"""The four benchmark workloads, each a failure-free and a failure run.

A workload is built from one integer seed.  From it the workload derives
every input the program receives: model and data seeds, the crash schedule
(positions and machines, or the sampled chaos trace) and the traffic
script.  :meth:`Workload.reference` runs the failure-free reference;
:meth:`Workload.injected` runs the same inputs with failures and checks its
outputs against the reference, one *operation* per failure (per job on
``fleet``, per acknowledged submission on ``serve_traffic``).

Every timed phase runs inside :meth:`Workload._timed`, which is also where
a :class:`~tracer.Tracer` (when given) opens its root spans; the output
checks run between timed phases, so neither the wall figures nor the
traced per-layer figures include them.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
    demo_fleet_specs,
)
from repro.chaos import get_scenario
from repro.cluster import FailureEvent, FailurePhase, FailureSchedule
from repro.serve import ServeConfig, ServeServer, run_script, synthetic_traffic
from repro.serve.segments import DEFAULT_SEGMENT_BYTES
from repro.sim import FleetSimulator
from repro.utils.seeding import derive_seed

import probes
from tracer import Tracer


@dataclass
class Run:
    """Wall-clock outcome of one timed run (reference or injected)."""

    setup_s: float = 0.0
    #: seconds inside timed phases (set-up excluded)
    wall_s: float = 0.0
    #: useful samples: every iteration (or stepped job iteration) once
    samples: float = 0.0
    #: control-loop events committed (see README: cp_events_per_s)
    events: float = 0.0
    #: wall seconds of each recovery
    recoveries: list[float] = field(default_factory=list)
    attempted: int = 0
    #: failed operation -> what went wrong with it
    failures: dict[str, list[str]] = field(default_factory=dict)
    #: simulated-axis figures (never mixed with the wall ones)
    sim: dict[str, float] = field(default_factory=dict)
    #: workload-specific reference outputs the injected run checks
    outputs: object = None


def collect_garbage() -> None:
    """Free the previous run's reference cycles before timing the next.

    Engines, trainers and sessions reference each other, so a finished
    run's arrays are released by the cyclic collector; left alone, that
    collection (and the memory it unmaps) lands inside whichever timed
    phase happens to trigger it.
    """
    gc.collect()


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = workdir

    @staticmethod
    def fail(run: Run, op: str, problem: str) -> None:
        run.failures.setdefault(op, []).append(problem)

    def derive(self, *labels: str) -> int:
        return derive_seed(self.seed, "e2ebench", self.name, *labels)

    @contextmanager
    def _timed(self, run: Run, attr: str, tracer: Tracer | None,
               root: str):
        """Add the block's wall time to ``run.<attr>``, tracing it."""
        span = tracer.open(root) if tracer is not None else None
        t0 = perf_counter()
        try:
            yield
        finally:
            setattr(run, attr, getattr(run, attr) + perf_counter() - t0)
            if span is not None:
                tracer.close(span)

    def reference(self, tracer: Tracer | None = None) -> Run:
        raise NotImplementedError

    def injected(self, ref: Run, tracer: Tracer | None = None,
                 check: bool = True) -> Run:
        raise NotImplementedError


# -- training workloads (one Experiment session) ------------------------------
class _TrainingWorkload(Workload):
    iterations = 0
    batch_size = 0

    def experiment(self) -> Experiment:
        raise NotImplementedError

    def failures(self) -> list[FailureEvent]:
        raise NotImplementedError

    def check_recovery(self, session, event: FailureEvent, report,
                       last_checkpoint: int) -> list[str]:
        raise NotImplementedError

    loss_rtol = 0.0

    def _setup(self, run: Run, tracer: Tracer | None):
        """Spec validation, plan(), build(), then iteration 0 as warm-up.

        Iteration 0 fills the lazy state (flat arenas, COW sharing,
        program verification, the first checkpoint), so every timed
        iteration afterwards is steady state.
        """
        collect_garbage()
        with self._timed(run, "setup_s", tracer, "bench.setup"):
            if tracer is not None:
                with tracer.span("api.build"):
                    exp = self.experiment()
                    exp.plan()
                    session = exp.build()
                probes.trainer(tracer, session.trainer)
            else:
                exp = self.experiment()
                exp.plan()
                session = exp.build()
            session.step()
        return session

    def _finish(self, run: Run, session, tracer: Tracer | None) -> None:
        """Count the timed iterations (1 onwards) and their checkpoints."""
        run.samples = (self.iterations - 1) * self.batch_size
        run.events = (self.iterations - 1) + sum(
            1 for it, _ in session.trace.checkpoints if it >= 1
        )
        run.sim = self.sim_metrics(session)
        if tracer is not None:
            probes.tlog_final(tracer, session.trainer)

    def sim_metrics(self, session) -> dict[str, float]:
        trace = session.trace
        recs = [r.total_time for r in trace.recoveries]
        return {
            "sim.iteration_s": statistics.median(trace.iteration_times),
            "sim.recovery_s": statistics.median(recs) if recs else 0.0,
            "sim.goodput_samples_per_s": trace.goodput(self.batch_size),
            "sim.bubble_frac": 0.0,
            "sim.log_bytes_per_iter": 0.0,
        }

    def reference(self, tracer: Tracer | None = None) -> Run:
        run = Run()
        session = self._setup(run, tracer)
        while session.engine.iteration < self.iterations:
            with self._timed(run, "wall_s", tracer, "bench.step"):
                session.step()
        self._finish(run, session, tracer)
        run.outputs = dict(zip(session.trace.iteration_numbers,
                               session.trace.losses))
        return run

    def injected(self, ref: Run, tracer: Tracer | None = None,
                 check: bool = True) -> Run:
        run = Run()
        events = self.failures()
        schedule = FailureSchedule(list(events))
        run.attempted = len(events)
        session = self._setup(run, tracer)
        done = 0
        try:
            while session.engine.iteration < self.iterations:
                t0 = perf_counter()
                with self._timed(run, "wall_s", tracer, "bench.step"):
                    result = session.step(schedule)
                if result.failed:
                    run.recoveries.append(perf_counter() - t0)
                    if check:
                        event = events[done]
                        ckpts = [it for it, _ in session.trace.checkpoints
                                 if it <= event.iteration]
                        # a checkpoint taken right after recovery is at the
                        # crash iteration; the one recovery rolled back to
                        # precedes it
                        before = [it for it in ckpts if it < event.iteration]
                        last = before[-1] if before else ckpts[-1]
                        for p in self.check_recovery(
                            session, event, session.trace.recoveries[-1],
                            last,
                        ):
                            self.fail(run, self._op(done, event), p)
                    done += 1
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            # recovery raised: this failure and every later one fail
            for i in range(done, len(events)):
                self.fail(run, self._op(i, events[i]),
                          f"run aborted: {type(exc).__name__}: {exc}")
            return run
        for i in range(done, len(events)):
            self.fail(run, self._op(i, events[i]), "failure never hit")
        self._finish(run, session, tracer)
        if check:
            self._check_losses(run, session, events, ref.outputs)
        return run

    @staticmethod
    def _op(i: int, event: FailureEvent) -> str:
        return (f"failure {i} (iteration {event.iteration}, machine "
                f"{event.machine_id}, {event.phase.value})")

    def _check_losses(self, run: Run, session, events, reference) -> None:
        """Losses from each failure up to the next must match the reference."""
        got = dict(zip(session.trace.iteration_numbers, session.trace.losses))
        bounds = [e.iteration for e in events] + [self.iterations]
        for i, event in enumerate(events):
            its = range(bounds[i], bounds[i + 1])
            missing = [it for it in its if it not in got]
            if missing:
                self.fail(run, self._op(i, event),
                          f"iterations {missing} never completed")
                continue
            a = np.array([got[it] for it in its])
            b = np.array([reference[it] for it in its])
            if not np.allclose(a, b, rtol=self.loss_rtol, atol=0.0):
                worst = float(np.max(np.abs(a - b) / np.abs(b)))
                self.fail(
                    run, self._op(i, event),
                    f"losses of iterations {its.start}..{its.stop - 1} "
                    f"leave the reference curve (max relative error "
                    f"{worst:.3g}, tolerance {self.loss_rtol:g})",
                )


class DPReplication(_TrainingWorkload):
    name = "dp_replication"
    why = ("Optimizer, all-reduce and checkpoint capture carry the time; "
           "no tensor log, P2P or attention/GELU/LayerNorm, so a "
           "transformer-kernel or tensor-log change must predict no change")
    iterations = 120
    batch_size = 32
    checkpoint_interval = 20
    #: odd, so the median recovery is one failure's, not a mean of two
    num_failures = 5
    #: 5 Linear layers (weight + bias each)
    num_params = 10
    #: undo is an arithmetic inverse, exact only to rounding
    loss_rtol = 1e-9

    def experiment(self) -> Experiment:
        return Experiment(
            name=self.name,
            model=ModelSpec(family="mlp", dim=16, hidden_dim=256, depth=4,
                            num_classes=8, seed=self.derive("model") % 2**31,
                            optimizer="adam", lr=1e-3),
            data=DataSpec(kind="classification", batch_size=self.batch_size,
                          seed=self.derive("data") % 2**31),
            cluster=ClusterSpec(num_machines=4, devices_per_machine=2),
            parallelism=ParallelismSpec(kind="dp", num_workers=8),
            fault_tolerance=FaultToleranceSpec(
                checkpoint_interval=self.checkpoint_interval),
        )

    def failures(self) -> list[FailureEvent]:
        """One MID_UPDATE crash per window; machines 1-3 in rotation."""
        rng = np.random.default_rng(self.derive("crashes"))
        width = (self.iterations - 10) // self.num_failures
        start = int(rng.integers(0, 3))
        # how far the update got decides how much is undone; a seeded
        # order over a fixed spread keeps every seed's recovery work equal
        progress = rng.permutation(
            np.linspace(2, self.num_params - 2, self.num_failures).round()
        )
        events = []
        for k in range(self.num_failures):
            lo = 5 + k * width
            events.append(FailureEvent(
                machine_id=1 + (start + k) % 3,
                iteration=int(rng.integers(lo, lo + width - 5)),
                phase=FailurePhase.MID_UPDATE,
                after_updates=int(progress[k]),
            ))
        return events

    def check_recovery(self, session, event, report, last_checkpoint):
        problems = []
        if report.strategy != "replication":
            problems.append(f"strategy {report.strategy!r}, "
                            "expected 'replication'")
        if report.lost_iterations != 0:
            problems.append(f"lost {report.lost_iterations} iterations")
        if not session.engine.replicas_consistent():
            problems.append("replicas inconsistent after recovery")
        return problems


class PPLogging(_TrainingWorkload):
    name = "pp_logging"
    why = ("The nn substrate is most of wall time; every inter-stage send "
           "is logged and every recovery queries the log back and replays; "
           "optimizer and collectives are minor")
    iterations = 60
    batch_size = 16
    num_microbatches = 4
    checkpoint_interval = 10
    #: each crash lands this many iterations after a periodic checkpoint
    distance = 4
    #: parallel replay sums buckets in another order than the failure-free
    #: run (measured <= 1e-15 relative); degree-1 replay is bitwise
    loss_rtol = 1e-12

    def experiment(self) -> Experiment:
        return Experiment(
            name=self.name,
            model=ModelSpec(family="bert", dim=32, depth=2, vocab_size=32,
                            max_len=16, num_heads=4,
                            seed=self.derive("model") % 2**31,
                            optimizer="adam", lr=5e-3),
            data=DataSpec(kind="tokens", batch_size=self.batch_size,
                          seed=self.derive("data") % 2**31),
            cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
            parallelism=ParallelismSpec(
                kind="pp", num_workers=4, partition_sizes=(1, 1, 1, 1),
                num_microbatches=self.num_microbatches, schedule="1f1b"),
            fault_tolerance=FaultToleranceSpec(
                checkpoint_interval=self.checkpoint_interval,
                parallel_recovery_degree=2,
                checkpoint_after_recovery=True,
                logging_mode="bubble"),
        )

    def failures(self) -> list[FailureEvent]:
        """One FORWARD crash per checkpoint window, five in all.

        Every machine fails once, plus one more failure of a machine
        holding an encoder block (stages 1 and 2 replay the same work), in
        seeded order.  So every seed recovers the same multiset of stages,
        and the median recovery is an encoder-block replay.  The crash
        always hits the forward of the middle micro-batch, so the partial
        iteration thrown away costs the same for every seed.
        """
        rng = np.random.default_rng(self.derive("crashes"))
        machines = rng.permutation([0, 1, 2, 3, int(rng.integers(1, 3))])
        windows = (self.iterations - self.distance - 1) \
            // self.checkpoint_interval
        return [
            FailureEvent(
                machine_id=int(machines[k - 1]),
                iteration=k * self.checkpoint_interval + self.distance,
                phase=FailurePhase.FORWARD,
                after_updates=self.num_microbatches // 2,
            )
            for k in range(1, windows + 1)
        ]

    def check_recovery(self, session, event, report, last_checkpoint):
        problems = []
        if report.strategy != "logging+pr":
            problems.append(f"strategy {report.strategy!r}, "
                            "expected 'logging+pr'")
        expected = event.iteration - last_checkpoint
        if report.lost_iterations != expected:
            problems.append(
                f"lost {report.lost_iterations} iterations, expected the "
                f"distance to the last checkpoint ({expected})"
            )
        return problems

    def sim_metrics(self, session) -> dict[str, float]:
        sim = super().sim_metrics(session)
        timing = session.engine.timing()
        stages = len(timing.stage_bubble)
        sim["sim.bubble_frac"] = (
            sum(timing.stage_bubble) / (stages * timing.iteration_time)
        )
        tlog = session.trainer.tlog
        if tlog.bytes_per_iteration:
            sim["sim.log_bytes_per_iter"] = statistics.median(
                tlog.bytes_per_iteration.values())
        return sim


# -- fleet ----------------------------------------------------------------------
class Fleet(Workload):
    name = "fleet"
    why = ("Small tensors make per-call overhead dominate "
           "(trainer/engine/nn calls, P2P plus the log tap); repro.jobs "
           "scheduling, preemption and spares run only here")
    #: training length of the two long jobs (the others scale from it)
    iterations = 150
    crashes_per_machine = 3
    #: rounds between kept crashes: longer than a spare's repair time
    crash_gap = 7
    num_machines = 6
    devices_per_machine = 4
    scenario = "steady_mtbf"

    def specs(self):
        specs, _ = demo_fleet_specs(iterations=self.iterations)
        return [
            replace(s, seed=self.derive("model", s.name) % 2**31,
                    task_seed=self.derive("data", s.name) % 2**31)
            for s in specs
        ]

    def crashes(self):
        """Crashes from a seeded ``steady_mtbf`` trace, balanced by machine.

        The trace is sampled over a long horizon mapped onto the fleet's
        rounds.  Walking it in time order, a crash is kept while its
        machine has crashed fewer than ``crashes_per_machine`` times and
        it lands at least ``crash_gap`` rounds after the last kept one —
        enough for the repaired machine to rejoin the spare pool, so no
        gang ever loses every replica at once.  Every seed thus crashes
        every schedulable machine equally often, at seeded rounds and in
        seeded order, and runs of different seeds pay comparable
        recovery work.
        """
        spec = get_scenario(self.scenario)
        schedulable = range(self.num_machines - 1)  # the top id is the spare
        for attempt in range(64):
            trace = spec.sample(
                self.derive("chaos", str(attempt)), self.num_machines,
                horizon_iters=self.iterations,
                horizon_hours=40 * spec.horizon_hours,
            )
            kept: dict[int, list] = {m: [] for m in schedulable}
            last = -self.crash_gap
            for crash in trace.to_fleet_failures():
                picks = kept.get(crash.machine_id)
                if (picks is not None and crash.round >= 1
                        and crash.round - last >= self.crash_gap
                        and len(picks) < self.crashes_per_machine):
                    picks.append(crash)
                    last = crash.round
            if all(len(p) == self.crashes_per_machine
                   for p in kept.values()):
                return sorted((c for p in kept.values() for c in p),
                              key=lambda c: (c.round, c.machine_id))
        raise RuntimeError("no chaos trace crashes every machine")

    def _build(self, run: Run, tracer: Tracer | None, crashes):
        collect_garbage()
        with self._timed(run, "setup_s", tracer, "bench.setup"):
            if tracer is not None:
                with tracer.span("api.build"):
                    sim = self._simulator(crashes)
                probes.fleet(tracer, sim)
            else:
                sim = self._simulator(crashes)
        return sim

    def _simulator(self, crashes):
        return FleetSimulator(
            self.specs(), num_machines=self.num_machines,
            devices_per_machine=self.devices_per_machine, num_spares=1,
            failures=crashes,
        )

    def _run(self, crashes, tracer, timer=None) -> tuple[Run, object]:
        run = Run()
        sim = self._build(run, tracer, crashes)
        if timer is not None:
            timer(sim, run)
        with self._timed(run, "wall_s", tracer, "bench.fleet"):
            report = sim.run()
        jobs = sim.scheduler.jobs.values()
        run.samples = float(report.total_samples)
        run.events = float(sum(
            j.iteration + len(j.trainer.trace.checkpoints)
            for j in jobs if j.trainer is not None
        ))
        recs = [r.total_time for j in jobs for r in j.recoveries]
        run.sim = {
            "sim.iteration_s": statistics.median(
                t for j in jobs if j.trainer is not None
                for t in j.trainer.trace.iteration_times),
            "sim.recovery_s": statistics.median(recs) if recs else 0.0,
            "sim.goodput_samples_per_s": report.cluster_goodput,
            "sim.bubble_frac": 0.0,
            "sim.log_bytes_per_iter": 0.0,
        }
        if tracer is not None:
            tracer.count("jobs.preemptions", report.total_preemptions)
            tracer.count("fleet.rounds", report.rounds)
            for j in jobs:
                probes.tlog_final(tracer, j.trainer)
        run.outputs = {
            s.name: (s.state, s.iterations, s.samples) for s in report.jobs
        }
        return run, report

    def reference(self, tracer: Tracer | None = None) -> Run:
        run, _ = self._run([], tracer)
        return run

    def injected(self, ref: Run, tracer: Tracer | None = None,
                 check: bool = True) -> Run:
        def time_recoveries(sim, run: Run) -> None:
            # wall time of each Job.recover: from the routed failure to
            # the job being ready for its next iteration
            submit = sim.scheduler.submit

            def timed_submit(job, *args, **kwargs):
                recover = job.recover

                def timed_recover(*a, **k):
                    t0 = perf_counter()
                    try:
                        return recover(*a, **k)
                    finally:
                        run.recoveries.append(perf_counter() - t0)

                job.recover = timed_recover
                return submit(job, *args, **kwargs)

            sim.scheduler.submit = timed_submit

        run, _ = self._run(self.crashes(), tracer, timer=time_recoveries)
        run.attempted = len(run.outputs)
        if check:
            for name, (state, iters, samples) in sorted(run.outputs.items()):
                want = ref.outputs.get(name)
                if state != "completed":
                    self.fail(run, f"job {name}", f"ended {state}")
                elif want is None or (iters, samples) != want[1:]:
                    self.fail(
                        run, f"job {name}",
                        f"{iters} iterations / {samples} samples, the "
                        f"failure-free fleet had "
                        f"{want[1:] if want else None}",
                    )
        return run


# -- serve ----------------------------------------------------------------------
class _Killed(Exception):
    """The harness abandons the server right after a durable append."""


class ServeTraffic(Workload):
    name = "serve_traffic"
    why = ("The only workload exercising repro.serve admission/placement "
           "and the WAL write path (traffic) beside its read path (restart "
           "fold); no training runs here")
    num_jobs = 60
    horizon_rounds = 300
    #: odd, so the median recovery is one reopen, not a mean of two
    kill_points = 5
    #: the default segment size; the anchor snapshot of this traffic
    #: stays below it (~42 kB), so a run rotates once, after the last
    #: kill, and every reopen folds the same share of the log
    segment_bytes = DEFAULT_SEGMENT_BYTES

    def script(self):
        return synthetic_traffic(
            "priority-mixed", num_jobs=self.num_jobs,
            horizon_rounds=self.horizon_rounds, failures=4,
            seed=self.derive("traffic") % 2**31,
        )

    def _open(self, path: Path) -> ServeServer:
        return ServeServer(path, ServeConfig(), fsync=False,
                           segment_bytes=self.segment_bytes)

    def _fresh_path(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.workdir)) / "wal"

    def _setup(self, run: Run, tracer: Tracer | None) -> ServeServer:
        path = self._fresh_path()
        collect_garbage()
        with self._timed(run, "setup_s", tracer, "bench.setup"):
            if tracer is not None:
                with tracer.span("api.build"):
                    server = self._open(path)
                probes.serve(tracer, server)
            else:
                server = self._open(path)
        return server

    @staticmethod
    def _ack_recorder(server: ServeServer, acked: dict) -> None:
        submit = server.submit

        def acking_submit(tenant, spec, *args, **kwargs):
            verdict = submit(tenant, spec, *args, **kwargs)
            acked[spec.name] = verdict[0]  # returned == acknowledged
            return verdict

        server.submit = acking_submit

    def _sim(self, state) -> dict[str, float]:
        return {
            "sim.iteration_s": 0.0, "sim.recovery_s": 0.0,
            "sim.goodput_samples_per_s": state.goodput(),
            "sim.bubble_frac": 0.0, "sim.log_bytes_per_iter": 0.0,
        }

    def reference(self, tracer: Tracer | None = None) -> Run:
        run = Run()
        script = self.script()
        server = self._setup(run, tracer)
        with self._timed(run, "wall_s", tracer, "bench.serve"):
            run_script(server, script)
        state = server.state
        run.samples = state.total_samples()
        run.events = float(server.wal.next_seq)
        run.sim = self._sim(state)
        run.outputs = (
            server.wal.next_seq,
            {n: j["status"] for n, j in state.jobs.items()},
        )
        server.close()
        shutil.rmtree(Path(server.wal.dir).parent, ignore_errors=True)
        return run

    def injected(self, ref: Run, tracer: Tracer | None = None,
                 check: bool = True) -> Run:
        run = Run()
        script = self.script()
        total, statuses = ref.outputs
        offsets = sorted({
            max(1, min(total - 1,
                       round(total * (i + 1) / (self.kill_points + 1))))
            for i in range(self.kill_points)
        })
        acked: dict[str, str] = {}
        server = self._setup(run, tracer)
        path = server.wal.dir
        for kill_at in [*offsets, None]:
            self._ack_recorder(server, acked)
            if kill_at is not None:
                self._arm_kill(server, kill_at)
            try:
                with self._timed(run, "wall_s", tracer, "bench.serve"):
                    run_script(server, script)
            except _Killed:
                pass
            else:
                break
            # the dead server is abandoned, never closed: reopen the WAL
            t0 = perf_counter()
            with self._timed(run, "wall_s", tracer, "bench.serve"):
                if tracer is not None:
                    with tracer.span("wal.recover"):
                        server = self._open(path)
                    tracer.count("wal.replayed_events",
                                 len(server.wal.events))
                    probes.serve(tracer, server)
                else:
                    server = self._open(path)
            run.recoveries.append(perf_counter() - t0)
        state = server.state
        run.samples = state.total_samples()
        run.sim = self._sim(state)
        run.attempted = len(acked)
        if check:
            self._check(run, server, acked, statuses)
        server.close()
        shutil.rmtree(Path(path).parent, ignore_errors=True)
        return run

    @staticmethod
    def _arm_kill(server: ServeServer, kill_at: int) -> None:
        append = server.wal.append

        def append_then_die(event):
            result = append(event)
            if event.seq + 1 >= kill_at:
                raise _Killed()
            return result

        server.wal.append = append_then_die

    def _check(self, run: Run, server, acked: dict, statuses: dict) -> None:
        admitted: dict[str, int] = {}
        for event in server.wal.all_events():
            if event.kind == "submit":
                name = event.payload["name"]
                admitted[name] = admitted.get(name, 0) + 1
        jobs = server.state.jobs
        for name, verdict in sorted(acked.items()):
            op = f"submission {name}"
            if name not in jobs:
                self.fail(run, op, f"acknowledged ({verdict}) but lost "
                                   "after restart")
            elif admitted.get(name, 0) > 1:
                self.fail(run, op, f"admitted {admitted[name]} times")
            elif jobs[name]["status"] != statuses.get(name):
                self.fail(run, op,
                          f"ended {jobs[name]['status']}, the "
                          f"uninterrupted run ended {statuses.get(name)}")


WORKLOADS = {w.name: w for w in (DPReplication, PPLogging, Fleet,
                                 ServeTraffic)}
