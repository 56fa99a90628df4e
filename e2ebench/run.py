#!/usr/bin/env python3
"""End-to-end training-recovery benchmark for the ``repro`` package.

Run from the repository root::

    python3 e2ebench/run.py --workload dp_replication --seed 1 \\
        --seconds 28 --trace 0

``--workload`` is one of ``dp_replication``, ``pp_logging``, ``fleet``,
``serve_traffic``, or ``all`` (each in turn).  The run repeats *rounds* — a
failure-free reference run then the same inputs with failures — until the
next round would overrun ``--seconds``, checks every recovered output
against the reference, and prints a human-readable report followed by one
JSON line:

* ``--trace 0``: the end-to-end wall-clock metrics, measured untraced;
* ``--trace 1``: untraced and traced rounds alternate; the JSON carries
  the per-layer metrics of the traced rounds and the tracing overhead,
  and the spans of the last traced round are written, one JSON line
  each, to ``.e2ebench_spans/<workload>-seed<seed>.jsonl``.

See ``e2ebench/README.md`` for what every metric means.  Exit status is 0
when the run completed (the JSON's ``correct`` says whether the outputs
checked out), 2 when the ``repro`` sources are missing.
"""

from __future__ import annotations

import os

# single-threaded BLAS keeps runs comparable on a shared machine; set
# before NumPy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from tracer import (  # noqa: E402
    LAYER_METRICS,
    LAYERS,
    SELF_TIME,
    SIM_METRICS,
    Tracer,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: end-to-end metric -> unit (every workload reports every one)
END_TO_END = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "goodput_samples_per_s": "samples/s",
    "recovery_s_p50": "s",
    "cp_events_per_s": "events/s",
    "peak_mem_mb": "MB",
}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class Bench:
    """The rounds of one workload, and what they measured."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.w = workload
        self.seconds = seconds
        self.trace = trace
        #: (reference, injected) Run pairs measured untraced
        self.rounds: list = []
        #: per-layer metric dicts of the traced rounds
        self.layers: list[dict[str, float]] = []
        #: (untraced round, traced round) pairs
        self.pairs: list = []
        #: the last traced round's spans
        self.tracer: Tracer | None = None
        self.peak_mem_mb = 0.0
        self.elapsed = 0.0

    def _round(self, tracer=None):
        ref = self.w.reference(tracer)
        inj = self.w.injected(ref, tracer)
        return ref, inj

    def run(self) -> None:
        start = perf_counter()
        deadline = start + self.seconds
        while True:
            t0 = perf_counter()
            self.rounds.append(self._round())
            if self.trace:
                tracer = self.tracer = Tracer()
                traced = self._round(tracer)
                layer = tracer.layer_metrics()
                layer.update(traced[1].sim)
                self.layers.append(layer)
                self.pairs.append((self.rounds[-1], traced))
            took = perf_counter() - t0
            if perf_counter() + took > deadline:
                break
        self.elapsed = perf_counter() - start
        self.peak_mem_mb = self._peak_memory()

    def _peak_memory(self) -> float:
        """Peak bytes a failure run allocates above the pre-set-up level.

        A separate pass under :mod:`tracemalloc` (NumPy reports its array
        buffers to it); the timed rounds run without it.
        """
        ref = self.rounds[0][0]
        tracemalloc.start()
        try:
            self.w.injected(ref, check=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 1e6

    @staticmethod
    def _e2e(pairs) -> dict[str, float]:
        refs = [r for r, _ in pairs]
        injs = [i for _, i in pairs]
        return {
            "setup_s": _median(x.setup_s for p in pairs for x in p),
            "train_samples_per_s": _median(r.samples / r.wall_s
                                           for r in refs),
            "goodput_samples_per_s": _median(i.samples / i.wall_s
                                             for i in injs),
            "recovery_s_p50": _median(s for i in injs for s in i.recoveries),
            "cp_events_per_s": _median(r.events / r.wall_s for r in refs),
        }

    def overhead(self) -> dict[str, float]:
        """Median relative change of each metric, traced vs untraced."""
        changes = []
        for plain, traced in self.pairs:
            a, b = self._e2e([plain]), self._e2e([traced])
            changes.append({k: (b[k] - a[k]) / a[k] for k in a if a[k]})
        return {k: _median(c[k] for c in changes if k in c)
                for k in changes[0]} if changes else {}

    # -- results -------------------------------------------------------------
    def _checked(self):
        """Every checked failure run, traced ones included."""
        return [("", inj) for _, inj in self.rounds] + [
            ("traced ", inj) for _, (_, inj) in self.pairs
        ]

    @property
    def attempted(self) -> int:
        return sum(inj.attempted for _, inj in self._checked())

    @property
    def failed_ops(self) -> list[tuple[str, list[str]]]:
        return [
            (f"{kind}round {n}: {op}", problems)
            for n, (kind, inj) in enumerate(self._checked())
            for op, problems in inj.failures.items()
        ]

    def end_to_end(self) -> dict[str, float]:
        m = self._e2e(self.rounds)
        m["peak_mem_mb"] = self.peak_mem_mb
        return m

    def per_layer(self) -> dict[str, float]:
        out = {}
        for name in LAYER_METRICS:
            if name == "trace.overhead_frac":
                # traced vs untraced wall of the whole timed round
                out[name] = _median(
                    sum(_timed_wall(t) for t in traced)
                    / sum(_timed_wall(u) for u in plain) - 1.0
                    for plain, traced in self.pairs
                )
            else:
                out[name] = _median(layer.get(name, 0.0)
                                    for layer in self.layers)
        return out


def _timed_wall(run) -> float:
    return run.setup_s + run.wall_s


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.4g}"
    return f"{value:.4f}"


def report(bench: Bench) -> None:
    """Human-readable tables (the JSON line follows them)."""
    w = bench.w
    n = len(bench.rounds)
    print(f"== {w.name} (seed {w.seed}) — {n} round(s) in "
          f"{bench.elapsed:.1f} s")
    print(f"   why: {w.why}")
    e2e = bench.end_to_end()
    injs = [inj for _, inj in bench.rounds]
    samples = {
        "setup_s": f"median of {2 * n} set-ups",
        "train_samples_per_s": f"median of {n} reference runs",
        "goodput_samples_per_s": f"median of {n} failure runs",
        "recovery_s_p50": (f"median of "
                           f"{sum(len(i.recoveries) for i in injs)} "
                           "recoveries"),
        "cp_events_per_s": f"median of {n} reference runs",
        "peak_mem_mb": "one failure run under tracemalloc",
    }
    print("end-to-end (wall clock, tracing off)")
    for name, unit in END_TO_END.items():
        print(f"  {name:<24} {_fmt(e2e[name]):>12} {unit:<10} "
              f"{samples[name]}")
    failed = bench.failed_ops
    attempted = bench.attempted
    ratio = len(failed) / attempted if attempted else 0.0
    print(f"  {'failed_ops_ratio':<24} {_fmt(ratio):>12} {'':<10} "
          f"{len(failed)} failed of {attempted} operations")
    for op, problems in failed:
        for p in problems:
            print(f"    FAILED {op}: {p}")
    sim = {k: _median(i.sim.get(k, 0.0) for i in injs) for k in SIM_METRICS}
    print("simulated timeline (SimClock seconds; never mixed with wall "
          "time)")
    for name in SIM_METRICS:
        print(f"  {name:<28} {_fmt(sim[name]):>12} "
              f"{LAYER_METRICS[name]}")
    if not bench.trace:
        return
    layer = bench.per_layer()
    traced = _median(lay["_traced_wall_s"] for lay in bench.layers)
    print(f"per-layer (traced rounds, median of {len(bench.layers)}; "
          f"traced wall {traced:.3f} s)")
    print("  share of traced wall by layer (self time):")
    shares = []
    for lname, prefixes in LAYERS.items():
        t = sum(layer[m] for m in SELF_TIME
                if m.startswith(prefixes) and m in layer)
        shares.append((t, lname))
    shares.append((layer["trace.unattributed_s"], "unattributed"))
    for t, lname in sorted(shares, reverse=True):
        share = t / traced if traced else 0.0
        print(f"    {lname:<14} {t:>9.4f} s {100 * share:6.1f}%")
    print("  metrics:")
    for name, unit in LAYER_METRICS.items():
        if name.startswith("sim."):
            continue
        print(f"    {name:<32} {_fmt(layer[name]):>12} {unit}")
    print("  tracing overhead (traced vs untraced round, per metric): "
          + ", ".join(f"{k} {100 * v:+.1f}%"
                      for k, v in bench.overhead().items()))


def result_json(bench: Bench) -> dict:
    if bench.trace:
        values = bench.per_layer()
        metrics = {k: {"value": values[k], "unit": LAYER_METRICS[k]}
                   for k in LAYER_METRICS}
    else:
        values = bench.end_to_end()
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    failed = len(bench.failed_ops)
    return {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources under {SRC}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; known: "
                     f"{', '.join(WORKLOADS)} or all")
    work = Path(tempfile.mkdtemp(prefix="run-",
                                 dir=_checkout_dir(".e2ebench_work")))
    try:
        results = {}
        for name in names:
            bench = Bench(WORKLOADS[name](args.seed, work), args.seconds,
                          bool(args.trace))
            bench.run()
            report(bench)
            if bench.tracer is not None:
                spans = _checkout_dir(".e2ebench_spans") \
                    / f"{name}-seed{args.seed}.jsonl"
                bench.tracer.write(spans)
                print(f"  spans of the last traced round: "
                      f"{spans.relative_to(ROOT)}")
            print()
            results[name] = result_json(bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run still uses it
        except OSError:
            pass
    if len(results) == 1:
        out = next(iter(results.values()))
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


def _checkout_dir(name: str) -> Path:
    """A git-ignored directory at the checkout root (WAL files, spans)."""
    path = ROOT / name
    path.mkdir(exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
