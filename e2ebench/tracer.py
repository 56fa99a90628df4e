"""In-memory span tracer that instruments live ``repro`` objects from outside.

Nothing under ``src/`` knows about this module.  The benchmark replaces
public methods on the *instances* a workload builds (engines, stages,
workers, transports, tensor logs, checkpoint managers, recovery objects,
schedulers, servers) with thin wrappers that open a span, call through and
close it.  Spans are kept as parallel lists (name, start, end, parent) and
reduced to per-layer self times when the run ends; nothing is written while
the workload runs.

Spans are recorded only while a root span opened by the harness is active,
so output checks the harness makes between timed phases never show up in
the per-layer figures.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

_WRAPPED = "_e2ebench_wrapped"

#: spans whose *inclusive* time is reported too (metric name -> span name);
#: all other time metrics are self times, which partition the traced wall
INCLUSIVE = {
    "recovery.recover_s": "recovery.recover",
    "engine.iteration_s": "engine.iteration",
}

#: self-time metric -> the span it sums
SELF_TIME = {
    "api.build_s": "api.build",
    "data.batch_s": "data.batch",
    "nn.forward_s": "nn.forward",
    "nn.backward_s": "nn.backward",
    "nn.recompute_s": "nn.recompute",
    "nn.replay_s": "nn.replay",
    "optim.step_s": "optim.step",
    "comm.allreduce_s": "comm.allreduce",
    "comm.broadcast_s": "comm.broadcast",
    "p2p.send_s": "p2p.send",
    "p2p.recv_s": "p2p.recv",
    "tlog.append_s": "tlog.append",
    "tlog.query_s": "tlog.query",
    "tlog.gc_s": "tlog.gc",
    "ckpt.save_s": "ckpt.save",
    "ckpt.load_s": "ckpt.load",
    "recovery.self_s": "recovery.recover",
    "recovery.detect_s": "recovery.detect",
    "recovery.rebuild_s": "recovery.rebuild",
    "engine.self_s": "engine.iteration",
    "engine.timing_s": "engine.timing",
    "trainer.step_self_s": "trainer.step",
    "jobs.schedule_s": "jobs.schedule",
    "fleet.round_self_s": "fleet.run",
    "serve.submit_s": "serve.submit",
    "serve.tick_s": "serve.tick",
    "wal.append_s": "wal.append",
    "wal.recover_s": "wal.recover",
}

#: metric -> span name whose number of occurrences it reports
CALLS = {
    "data.batches": "data.batch",
    "optim.steps": "optim.step",
    "comm.allreduce_calls": "comm.allreduce",
    "p2p.messages": "p2p.send",
    "tlog.records": "tlog.append",
    "tlog.queries": "tlog.query",
    "ckpt.saves": "ckpt.save",
    "ckpt.loads": "ckpt.load",
    "recovery.count": "recovery.recover",
    "jobs.schedule_calls": "jobs.schedule",
    "serve.submits": "serve.submit",
    "serve.ticks": "serve.tick",
    "wal.appends": "wal.append",
}

#: span around the harness re-wrapping objects mid-run (harness time)
PROBE = "trace.probe"

NN_SPANS = ("nn.forward", "nn.backward", "nn.recompute", "nn.replay")

#: counters the instrumentation adds to directly
COUNTERS = (
    "comm.allreduce_bytes", "comm.broadcast_bytes", "p2p.bytes",
    "tlog.bytes_peak", "tlog.dropped_records", "ckpt.bytes",
    "recovery.lost_iterations", "recovery.replayed_microbatches",
    "jobs.preemptions", "jobs.queue_wait_rounds", "fleet.rounds",
    "serve.rejected", "wal.bytes", "wal.replayed_events",
)

#: the simulated axis, reported apart from wall time
SIM_METRICS = (
    "sim.iteration_s", "sim.recovery_s", "sim.goodput_samples_per_s",
    "sim.bubble_frac", "sim.log_bytes_per_iter",
)

#: per-layer metric names in report order, with units
LAYER_METRICS: dict[str, str] = {}
for _name in (
    "api.build_s", "data.batch_s", "data.batches",
    "nn.forward_s", "nn.backward_s", "nn.recompute_s", "nn.calls",
    "nn.replay_s",
    "optim.step_s", "optim.steps",
    "comm.allreduce_s", "comm.allreduce_calls", "comm.allreduce_bytes",
    "comm.broadcast_s", "comm.broadcast_bytes",
    "p2p.send_s", "p2p.recv_s", "p2p.messages", "p2p.bytes",
    "tlog.append_s", "tlog.records", "tlog.bytes_peak", "tlog.query_s",
    "tlog.queries", "tlog.gc_s", "tlog.dropped_records",
    "ckpt.save_s", "ckpt.saves", "ckpt.bytes", "ckpt.load_s", "ckpt.loads",
    "recovery.recover_s", "recovery.detect_s", "recovery.rebuild_s",
    "recovery.self_s", "recovery.count", "recovery.lost_iterations",
    "recovery.replayed_microbatches",
    "engine.iteration_s", "engine.self_s", "engine.timing_s",
    "trainer.step_self_s",
    "jobs.schedule_s", "jobs.schedule_calls", "jobs.preemptions",
    "jobs.queue_wait_rounds", "fleet.round_self_s", "fleet.rounds",
    "serve.submit_s", "serve.submits", "serve.rejected", "serve.tick_s",
    "serve.ticks", "wal.append_s", "wal.appends", "wal.bytes",
    "wal.recover_s", "wal.replayed_events",
    *SIM_METRICS,
    "trace.unattributed_s", "trace.overhead_frac",
):
    if _name.endswith("_bytes") or _name.endswith(".bytes") \
            or _name == "tlog.bytes_peak":
        LAYER_METRICS[_name] = "bytes"
    elif _name == "sim.goodput_samples_per_s":
        LAYER_METRICS[_name] = "samples/s"
    elif _name == "sim.log_bytes_per_iter":
        LAYER_METRICS[_name] = "bytes"
    elif _name in ("sim.bubble_frac", "trace.overhead_frac"):
        LAYER_METRICS[_name] = "fraction"
    elif _name.endswith("_s"):
        LAYER_METRICS[_name] = "s"
    else:
        LAYER_METRICS[_name] = "count"

#: layer -> metric prefixes, for the share table
LAYERS = {
    "nn": ("nn.",), "optim": ("optim.",), "comm": ("comm.",),
    "p2p": ("p2p.",), "tlog": ("tlog.",), "ckpt": ("ckpt.",),
    "recovery": ("recovery.",), "engine": ("engine.",),
    "trainer": ("trainer.",), "data": ("data.",), "api": ("api.",),
    "jobs+fleet": ("jobs.", "fleet."), "serve+wal": ("serve.", "wal."),
}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    # -- spans -------------------------------------------------------------
    @property
    def current(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        popped = self._stack.pop()
        assert popped == i, "spans must nest"

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters[name], value)

    # -- wrapping ----------------------------------------------------------
    def wrap(self, obj, attr: str, name, before=None, after=None) -> None:
        """Replace ``obj.attr`` with a spanned call-through (idempotent).

        ``name`` is a span name, a callable ``(current_span) -> name or
        None`` choosing it at call time (``None`` = no span of its own),
        or ``None`` for a wrapper that only runs its hooks.  ``before``
        gets ``(args, kwargs)`` ahead of the call and ``after`` gets
        ``(result, args, kwargs)`` once it returns; both run only while
        a root span is open.
        """
        fn = getattr(obj, attr)
        if getattr(fn, _WRAPPED, False):
            return
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            span = name(tracer.current) if callable(name) else name
            if span is None:
                result = fn(*args, **kwargs)
            else:
                i = tracer.open(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(i)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(wrapper, _WRAPPED, True)
        setattr(obj, attr, wrapper)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, times relative to the first."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i],
                    "start": self.starts[i] - t0, "end": self.ends[i] - t0,
                }) + "\n")

    # -- reduction ---------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus children)."""
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros_like(durations)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durations[has_parent])
        out: dict[str, float] = defaultdict(float)
        for name, own in zip(self.names, durations - child):
            out[name] += float(own)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything recorded so far."""
        self_t = self.self_times()
        names = np.asarray(self.names, dtype=object)
        durations = np.asarray(self.ends) - np.asarray(self.starts)
        roots = np.asarray(self.parents) < 0
        counts = Counter(self.names)
        m = {metric: self_t.get(span, 0.0)
             for metric, span in SELF_TIME.items()}
        for metric, span in INCLUSIVE.items():
            m[metric] = float(durations[names == span].sum())
        for metric, span in CALLS.items():
            m[metric] = float(counts[span])
        m["nn.calls"] = float(sum(counts[s] for s in NN_SPANS))
        for c in COUNTERS:
            m[c] = float(self.counters.get(c, 0.0))
        # harness time: the root spans' own time plus re-probing objects
        m["trace.unattributed_s"] = sum(
            self_t.get(r, 0.0) for r in set(names[roots]) | {PROBE}
        )
        m["_traced_wall_s"] = float(durations[roots].sum())
        return m
