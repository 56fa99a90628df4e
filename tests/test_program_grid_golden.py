"""Built-in schedule programs and their prices, pinned over a shape grid.

``tests/traces/program_grid_golden.json`` records, for every built-in
schedule over a grid of pipeline shapes, a SHA-256 over the program's
canonical JSONL (``build_program(...).to_jsonl()``) and its
``simulate_program`` timing: a SHA-256 over the sorted ``op_times`` plus
the literal ``stage_finish`` and ``stage_bubble`` lists.  Stage times
differ per stage and transfers cost ``COMM`` so every dependency edge
shows up in the floats.  A change to a generator or to the pricer that
moves any instruction or any bit of any timing fails here.

Grid:

* ``1f1b`` and ``gpipe`` with ``p`` in 1..8 and ``m`` in 1..12;
* ``interleaved_1f1b`` with ``p`` in 1..5, ``v`` in {2, 3} and ``m`` a
  multiple of ``p`` up to ``4p``.

To re-pin after a deliberate schedule change, run
``PYTHONPATH=src python tests/test_program_grid_golden.py --write`` and
say in CHANGES.md which shapes moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.parallel import build_program, simulate_program

GOLDEN = Path(__file__).parent / "traces" / "program_grid_golden.json"

#: transfer cost between adjacent chunks (seconds)
COMM = 0.01

SHAPES = (
    [(name, p, m, 1) for name in ("1f1b", "gpipe")
     for p in range(1, 9) for m in range(1, 13)]
    + [("interleaved_1f1b", p, k * p, v) for p in range(1, 6)
       for v in (2, 3) for k in range(1, 5)]
)


def shape_key(name: str, p: int, m: int, v: int) -> str:
    return f"{name}_p{p}_m{m}" + (f"_v{v}" if v > 1 else "")


def stage_times(p: int) -> tuple[list[float], list[float]]:
    """Per-stage forward and backward seconds, distinct on every stage."""
    return ([1.0 + 0.25 * s for s in range(p)],
            [2.0 + 0.5 * s for s in range(p)])


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def capture(name: str, p: int, m: int, v: int) -> dict:
    program = build_program(name, p, m, v)
    fwd, bwd = stage_times(p)
    timing = simulate_program(program, fwd, bwd, COMM)
    op_times = sorted([*key, *span] for key, span in timing.op_times.items())
    return {
        "program_sha256": _sha256(program.to_jsonl()),
        "op_times_sha256": _sha256(
            json.dumps(op_times, separators=(",", ":"))),
        "stage_finish": timing.stage_finish,
        "stage_bubble": timing.stage_bubble,
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())["shapes"]


@pytest.mark.parametrize(
    "name,p,m,v", SHAPES, ids=[shape_key(*shape) for shape in SHAPES]
)
def test_program_and_timing_match_golden(name, p, m, v):
    assert capture(name, p, m, v) == _golden()[shape_key(name, p, m, v)]


def test_golden_covers_every_shape():
    assert sorted(_golden()) == sorted(shape_key(*s) for s in SHAPES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_program_grid_golden.py --write")
    shapes = {shape_key(*s): capture(*s) for s in SHAPES}
    GOLDEN.write_text(json.dumps({
        "description": "program JSONL and simulate_program timing of every "
                       "built-in schedule over a shape grid; see "
                       "tests/test_program_grid_golden.py",
        "shapes": shapes,
    }, indent=1) + "\n")
    print(f"wrote {len(shapes)} shapes to {GOLDEN}")
