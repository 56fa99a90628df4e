"""Benchmark harness configuration.

Each benchmark regenerates one table or figure of the paper: it computes
the same rows/series the paper reports, prints them, and writes them under
``benchmarks/out/`` so results survive pytest's output capture.  Run with::

    pytest benchmarks/bench_*.py --benchmark-only

(naming the files matters: pytest's default ``test_*.py`` pattern
collects nothing from a bare ``benchmarks/``)

and inspect ``benchmarks/out/*.txt`` for the reproduced artifacts.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
