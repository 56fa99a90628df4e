"""Attach :class:`~tracer.Tracer` wrappers to the live objects of a run.

Every function here is idempotent: calling it again on an object that is
already wrapped changes nothing, so the fleet workload can re-run it before
each job step to catch objects that elastic resizing or recovery created
since the last call.  Objects rebuilt *inside* recovery (pipeline stages
from ``new_stage``, DP workers from ``rebuild_worker``) are wrapped the
moment they are returned, so replay and broadcast time is attributed even
before the next step.
"""

from __future__ import annotations

from repro.parallel.pipeline import PipelineEngine

from tracer import PROBE, Tracer


def _stage_forward(current: str | None) -> str | None:
    """Module forward on a pipeline stage: recompute, replay, or inline."""
    if current == "nn.backward":
        return "nn.recompute"  # backward_mb re-runs the forward first
    if current in ("nn.forward", "nn.recompute", "nn.replay"):
        return None
    return "nn.replay"  # called by recovery on a rebuilt stage


def _stage_backward(current: str | None) -> str | None:
    if current in ("nn.backward", "nn.replay"):
        return None
    return "nn.replay"


def _nbytes(value) -> int:
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    return sum(int(getattr(v, "nbytes", 0)) for v in value.values())


def _swap_callback(registry: list, original, wrapped) -> None:
    """Replace a registered bound method (tap, hook) by its wrapper."""
    for i, fn in enumerate(registry):
        if fn == original:
            registry[i] = wrapped


def _wrap_registered(t: Tracer, obj, attr: str, registry: list, name,
                     before=None, after=None) -> None:
    original = getattr(obj, attr)
    t.wrap(obj, attr, name, before=before, after=after)
    wrapped = getattr(obj, attr)
    if wrapped is not original:
        _swap_callback(registry, original, wrapped)


def stage(t: Tracer, st) -> None:
    t.wrap(st, "forward_mb", "nn.forward")
    t.wrap(st, "backward_mb", "nn.backward")
    t.wrap(st, "step", "optim.step")
    for module in {id(m): m for m in (st.module, *st.chunks.values())
                   }.values():
        t.wrap(module, "forward", _stage_forward)
        t.wrap(module, "backward", _stage_backward)


def worker(t: Tracer, w) -> None:
    t.wrap(w.model, "forward", "nn.forward")
    t.wrap(w.model, "backward", "nn.backward")
    t.wrap(w.optimizer, "step_flat", "optim.step")
    t.wrap(w.optimizer, "step_param", "optim.step")
    t.wrap(w, "load_full_state", "comm.broadcast",
           after=lambda r, a, k: t.count("comm.broadcast_bytes",
                                         _nbytes(a[0])))


def pipeline_engine(t: Tracer, engine: PipelineEngine) -> None:
    t.wrap(engine, "run_iteration", "engine.iteration")
    t.wrap(engine, "timing", "engine.timing")
    t.wrap(engine.task, "batch", "data.batch")
    tr = engine.transport
    t.wrap(tr, "send", "p2p.send",
           after=lambda r, a, k: t.count("p2p.bytes", int(a[2].nbytes)))
    t.wrap(tr, "recv", "p2p.recv")
    t.wrap(tr, "recv_matching", "p2p.recv")
    t.wrap(engine, "new_stage", "recovery.rebuild",
           after=lambda st, a, k: stage(t, st))
    for st in engine.stages:
        stage(t, st)


def dp_engine(t: Tracer, engine) -> None:
    t.wrap(engine, "run_iteration", "engine.iteration")
    t.wrap(engine.task, "batch", "data.batch")

    def reduced(result, args, kwargs) -> None:
        t.count("comm.allreduce_bytes",
                int(next(iter(args[0].values())).nbytes))

    t.wrap(engine.group, "allreduce_mean", "comm.allreduce", after=reduced)
    t.wrap(engine, "rebuild_worker", "recovery.rebuild",
           after=lambda w, a, k: worker(t, w))
    for w in engine.workers:
        worker(t, w)


def tensor_log(t: Tracer, tlog, transport, checkpoints) -> None:
    _wrap_registered(t, tlog, "tap", transport._taps, "tlog.append")
    _wrap_registered(
        t, tlog, "gc", checkpoints.post_checkpoint_hooks, "tlog.gc",
        # the log only grows between collections, so its peak is the
        # size right before one (or before a crash drops records)
        before=lambda a, k: t.peak("tlog.bytes_peak", tlog.total_bytes()),
    )
    t.wrap(tlog, "query", "tlog.query")
    t.wrap(tlog, "drop_machine", None,
           before=lambda a, k: t.peak("tlog.bytes_peak", tlog.total_bytes()),
           after=lambda n, a, k: t.count("tlog.dropped_records", n))


def trainer(t: Tracer, tr) -> None:
    """Wrap a SwiftTrainer and everything it drives."""
    engine = tr.engine
    t.wrap(tr, "step", "trainer.step")
    t.wrap(tr, "take_checkpoint", "ckpt.save")
    t.wrap(tr.checkpoints, "save_global", None,
           after=lambda r, a, k: t.count(
               "ckpt.bytes", sum(_nbytes(s) for s in a[0].values())))
    t.wrap(tr.checkpoints, "load", "ckpt.load")
    t.wrap(tr.detector, "detect", "recovery.detect")
    rec = tr.recovery
    if getattr(rec, "detector", None) is not None:
        t.wrap(rec.detector, "detect", "recovery.detect")

    def recovered(report, args, kwargs) -> None:
        t.count("recovery.lost_iterations", report.lost_iterations)
        if report.strategy.startswith("logging"):
            spans = sum(1 for key in report.details if key.startswith("span_"))
            t.count("recovery.replayed_microbatches",
                    report.lost_iterations * engine.num_microbatches * spans)

    t.wrap(rec, "recover", "recovery.recover", after=recovered)
    if isinstance(engine, PipelineEngine):
        pipeline_engine(t, engine)
    else:
        dp_engine(t, engine)
    if tr.tlog is not None:
        tensor_log(t, tr.tlog, engine.transport, tr.checkpoints)


def tlog_final(t: Tracer, tr) -> None:
    """Fold the log's end-of-run size into its peak."""
    if tr is not None and tr.tlog is not None:
        t.peak("tlog.bytes_peak", tr.tlog.total_bytes())


def fleet(t: Tracer, sim) -> None:
    """Wrap a FleetSimulator: its loop, scheduler, and every job it admits."""
    t.wrap(sim, "run", "fleet.run")
    sched = sim.scheduler
    t.wrap(sched, "schedule", "jobs.schedule")

    def admitted(result, args, kwargs) -> None:
        job = args[0]

        def started(r, a, k) -> None:
            t.count("jobs.queue_wait_rounds", sim.rounds - job.spec.arrival)
            with t.span(PROBE):
                trainer(t, job.trainer)

        t.wrap(job, "start", None, after=started)

        # elastic resizing builds workers and collective groups outside
        # recovery; re-wrapping before each step picks them up
        def reprobe(args, kwargs) -> None:
            with t.span(PROBE):
                trainer(t, job.trainer)

        t.wrap(job, "step", None, before=reprobe)

    t.wrap(sched, "submit", None, after=admitted)


def serve(t: Tracer, server) -> None:
    def verdict(result, args, kwargs) -> None:
        if result[0] == "rejected":
            t.count("serve.rejected")

    t.wrap(server, "submit", "serve.submit", after=verdict)
    t.wrap(server, "tick", "serve.tick")
    t.wrap(server.wal, "append", "wal.append",
           after=lambda ev, a, k: t.count("wal.bytes",
                                          len(ev.to_json()) + 1))
