"""Pipeline-parallel training engine over the simulated cluster.

Stages are contiguous slices of a Sequential model placed on devices across
machines; micro-batches flow through point-to-point messages (which is what
Swift's tensor log taps).  Numerics are exact NumPy; timing comes from
pricing the schedule program with
:func:`~repro.parallel.schedules.simulate_program`, so bubbles, iteration
time, and the logging budget all fall out of the same model (paper
Sections 2.1, 5.1).

The engine is an *instruction-stream interpreter* (DeepSpeed-style): the
schedule is not code but data — a per-stage
:class:`~repro.parallel.instructions.ScheduleProgram` of
``LoadMicroBatch / Forward / Backward / Send* / Recv* / OptimizerStep``
instructions produced by a registered generator (``1f1b``, ``gpipe``,
``interleaved_1f1b``, or anything added via
:func:`repro.parallel.register_schedule`) and statically verified before
the first iteration.  Instructions execute in simulated global-time
order, so failures land exactly where the schedule places them — and
:class:`~repro.cluster.failures.FailurePhase.INSTRUCTION` failures can
land *between* any two named instructions.

Design notes:

* **Activation recomputation on backward.**  Layers cache a single forward
  activation set, but 1F1B keeps several micro-batches in flight per stage.
  Each stage therefore caches only its *input* per (chunk, micro-batch) and
  re-runs the forward just before the corresponding backward.  This is
  numerically identical (deterministic layers) and mirrors common
  activation checkpointing practice.
* **Per-stage iteration counters.**  Stages update as soon as their own
  backwards finish, at different simulated times (wait-free across stages),
  so a crash can catch stages on different iterations — the pipeline
  flavour of the crash-consistency problem (Section 6, "Update-undo ...
  surviving workers need to exchange their current iteration number").
* **Virtual stages.**  With ``len(partition_sizes) == v * len(placement)``
  each physical stage hosts ``v`` model chunks (chunk ``c`` on stage
  ``c % p``, Megatron-style); the stage's ``module`` is the combined
  slice (state/checkpoint shape is unchanged), while forward/backward run
  per chunk.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.cluster.clock import SimClock
from repro.cluster.failures import FailureEvent, FailurePhase
from repro.cluster.topology import Cluster
from repro.comm.p2p import Transport
from repro.errors import ConfigurationError, MachineFailure
from repro.nn.sequential import Sequential
from repro.obs import NULL_RECORDER
from repro.optim.base import Optimizer
from repro.parallel.instructions import (
    Instruction,
    ScheduleProgram,
    verify_program,
)
from repro.parallel.partition import partition_by_sizes
from repro.parallel.programs import build_program
from repro.parallel.results import IterationResult
from repro.parallel.schedules import (
    ScheduleTiming,
    program_op_key,
    simulate_program,
)

__all__ = ["PipelineStage", "PipelineEngine"]

_COMPUTE = ("Forward", "Backward")


class PipelineStage:
    """One pipeline stage: its model chunk(s), optimizer, and mb caches."""

    #: apply stage updates through the vectorized flat kernels (bitwise
    #: equal to the per-parameter path; set False to force the eager loop)
    fused_updates = True

    def __init__(self, stage_id: int, module: Sequential, optimizer: Optimizer,
                 device, chunks: dict[int, Sequential] | None = None):
        self.stage_id = stage_id
        self.module = module
        self.optimizer = optimizer
        self.device = device
        self.iteration = 0
        #: model chunks hosted here, keyed by global chunk id; the layers
        #: are shared with :attr:`module` (flat pipelines: one chunk whose
        #: id is the stage id and whose module *is* ``module``)
        self.chunks: dict[int, Sequential] = (
            dict(chunks) if chunks is not None else {stage_id: module}
        )
        #: per-(chunk, microbatch) stage inputs, kept until the backward
        self.input_cache: dict[tuple[int, int], np.ndarray] = {}
        #: last-stage only: per-microbatch outputs for the loss
        self.output_cache: dict[int, np.ndarray] = {}
        self.updated_this_iteration = False

    @property
    def alive(self) -> bool:
        return self.device.alive

    @property
    def machine_id(self) -> int:
        return self.device.machine.machine_id

    def forward_mb(self, microbatch: int, x: np.ndarray,
                   chunk: int | None = None) -> np.ndarray:
        c = self.stage_id if chunk is None else chunk
        self.input_cache[(c, microbatch)] = x
        return self.chunks[c](x)

    def backward_mb(self, microbatch: int, grad: np.ndarray,
                    chunk: int | None = None) -> np.ndarray:
        # repopulate layer caches for this micro-batch, then backprop
        c = self.stage_id if chunk is None else chunk
        x = self.input_cache.pop((c, microbatch))
        module = self.chunks[c]
        module(x)
        return module.backward(grad)

    def step(self) -> None:
        if self.fused_updates and type(self.optimizer).supports_flat():
            self.optimizer.step_flat()
        else:
            self.optimizer.step()
        self.iteration += 1
        self.updated_this_iteration = True

    def undo(self) -> None:
        """Invert the latest update (update-undo, Section 4)."""
        self.optimizer.undo()
        self.iteration -= 1
        self.updated_this_iteration = False

    def clear_caches(self) -> None:
        self.input_cache.clear()
        self.output_cache.clear()

    def reset_transient(self) -> None:
        self.clear_caches()
        self.updated_this_iteration = False

    def full_state(self) -> dict[str, np.ndarray]:
        state = {f"model/{k}": v for k, v in self.module.state_dict().items()}
        state.update(
            {f"optim/{k}": v for k, v in self.optimizer.state_dict().items()}
        )
        state["iteration"] = np.array(self.iteration, dtype=np.int64)
        return state

    def load_full_state(self, state: dict[str, np.ndarray]) -> None:
        self.module.load_state_dict(
            {k[len("model/"):]: v for k, v in state.items() if k.startswith("model/")}
        )
        self.optimizer.load_state_dict(
            {k[len("optim/"):]: v for k, v in state.items() if k.startswith("optim/")}
        )
        self.iteration = int(state["iteration"])

    def dirty_full_state_keys(self) -> set[str]:
        """Keys of :meth:`full_state` changed since the last checkpoint.

        Mirrors ``DPWorker.dirty_full_state_keys``; the per-stage iteration
        counter advances every iteration, so it is always dirty.
        """
        keys = {f"optim/{k}" for k in self.optimizer.dirty_state_keys()}
        keys.update(f"model/{name}" for name in self.optimizer.dirty_params)
        keys.update(
            f"model/{name}"
            for name, _ in self.module.named_parameters()
            if name not in self.optimizer.params
        )
        keys.add("iteration")
        return keys

    def clear_dirty(self) -> None:
        self.optimizer.clear_dirty()


class PipelineEngine:
    """Interprets a verified schedule program with real numerics + sim timing.

    Parameters
    ----------
    model_factory:
        Deterministic zero-argument model builder; also used by recovery to
        rebuild failed stages' architecture.
    partition_sizes:
        Layer counts per model chunk.  ``len(partition_sizes)`` must be a
        multiple of ``len(placement)``; the multiple is the number of
        *virtual stages* per physical stage (1 for flat schedules).
    placement:
        ``(machine_id, device_idx)`` per physical stage.
    fwd_times / bwd_times:
        Per-stage simulated compute seconds per micro-batch (temporal layer
        only; defaults to uniform 1 ms / 2 ms).
    schedule:
        Name of a registered schedule generator (``repro schedule --list``).
    """

    def __init__(
        self,
        cluster: Cluster,
        model_factory: Callable[[], Sequential],
        partition_sizes: list[int],
        placement: list[tuple[int, int]],
        num_microbatches: int,
        opt_factory: Callable[[Sequential], Optimizer],
        loss_factory: Callable[[], object],
        task,
        clock: SimClock | None = None,
        fwd_times: list[float] | None = None,
        bwd_times: list[float] | None = None,
        schedule: str = "1f1b",
        comm_time: float = 0.0,
    ):
        if (
            not partition_sizes
            or not placement
            or len(partition_sizes) % len(placement) != 0
        ):
            raise ConfigurationError("one placement entry per stage required")
        if num_microbatches < 1:
            raise ConfigurationError("need at least one micro-batch")
        self.cluster = cluster
        self.model_factory = model_factory
        self.partition_sizes = list(partition_sizes)
        self.placement = list(placement)
        self.num_stages = len(placement)
        self.virtual_stages = len(partition_sizes) // len(placement)
        self.num_microbatches = num_microbatches
        self.opt_factory = opt_factory
        self.loss_factory = loss_factory
        self.task = task
        self.clock = clock or SimClock()
        self.fwd_times = fwd_times or [1e-3] * self.num_stages
        self.bwd_times = bwd_times or [2e-3] * self.num_stages
        self.schedule_name = schedule
        self.comm_time = comm_time

        # the schedule is data: generate, then statically verify before
        # anything executes (third-party schedules get the same treatment)
        self._program = build_program(
            schedule, self.num_stages, num_microbatches, self.virtual_stages
        )
        verify_program(self._program)

        chunk_modules = partition_by_sizes(model_factory(), partition_sizes)
        self.stages: list[PipelineStage] = []
        for sid, (machine_id, dev_idx) in enumerate(placement):
            device = cluster.device(machine_id, dev_idx)
            chunks = self._stage_chunks(sid, chunk_modules)
            module = self._combine_chunks(sid, chunks)
            self.stages.append(
                PipelineStage(sid, module, opt_factory(module), device,
                              chunks=chunks)
            )
        self.transport = Transport(
            cluster, {s.stage_id: s.device for s in self.stages}
        )
        self.iteration = 0
        #: instrumentation sink (replaced by the trainer/session when a
        #: TraceRecorder is attached)
        self.recorder = NULL_RECORDER
        self._timing_cache: ScheduleTiming | None = None
        self._order_cache: list[Instruction] | None = None
        #: per-iteration extra time charged by fault-tolerance machinery
        #: (logging spills, checkpoint stalls); callables appended by FT
        #: components receive the ScheduleTiming and return seconds
        self.overhead_hooks: list[Callable[[ScheduleTiming], tuple[str, float]]] = []

    # -- schedule/timing ----------------------------------------------------
    def program(self) -> ScheduleProgram:
        """The verified instruction stream this engine interprets."""
        return self._program

    def timing(self) -> ScheduleTiming:
        if self._timing_cache is None:
            self._timing_cache = simulate_program(
                self._program, self.fwd_times, self.bwd_times, self.comm_time
            )
        return self._timing_cache

    def stage_bubble_time(self, stage_id: int) -> float:
        return self.timing().stage_bubble[stage_id]

    def _execution_order(self) -> list[Instruction]:
        """All non-step instructions in simulated global-time order.

        Compute instructions are anchored at their simulated start time;
        a receive/load rides with the compute that consumes it and a send
        with the compute that produced it, so each compute unit (recv +
        compute + send) stays contiguous in the global order.
        """
        if self._order_cache is not None:
            return self._order_cache
        timing = self.timing()
        p, v = self.num_stages, self.virtual_stages
        keyed: list[tuple[float, int, int, Instruction]] = []
        for s, stream in enumerate(self._program.streams):
            starts: dict[int, float] = {
                idx: timing.op_times[
                    program_op_key(i.op, i.stage, i.chunk, i.microbatch, p, v)
                ][0]
                for idx, i in enumerate(stream)
                if i.op in _COMPUTE
            }
            anchors: list[float | None] = [None] * len(stream)
            nxt: float | None = None
            for idx in range(len(stream) - 1, -1, -1):
                if idx in starts:
                    nxt = starts[idx]
                anchors[idx] = nxt
            prev: float | None = None
            for idx, instr in enumerate(stream):
                if idx in starts:
                    prev = starts[idx]
                elif instr.op in ("SendActivation", "SendGrad"):
                    anchors[idx] = prev
            for idx, instr in enumerate(stream):
                if instr.op == "OptimizerStep":
                    continue
                anchor = anchors[idx]
                if anchor is None:
                    anchor = timing.stage_finish[s]
                keyed.append((anchor, s, idx, instr))
        keyed.sort(key=lambda t: t[:3])
        self._order_cache = [t[3] for t in keyed]
        return self._order_cache

    # -- state access ----------------------------------------------------------
    def stage(self, stage_id: int) -> PipelineStage:
        return self.stages[stage_id]

    def stages_on_machine(self, machine_id: int) -> list[PipelineStage]:
        return [s for s in self.stages if s.machine_id == machine_id]

    def machine_of_stage(self, stage_id: int) -> int:
        return self.placement[stage_id][0]

    def full_state(self) -> dict[int, dict[str, np.ndarray]]:
        return {s.stage_id: s.full_state() for s in self.stages}

    def _stage_chunks(
        self, stage_id: int, chunk_modules: list[Sequential]
    ) -> dict[int, Sequential]:
        return {
            c: chunk_modules[c]
            for c in range(len(chunk_modules))
            if c % self.num_stages == stage_id
        }

    def _combine_chunks(
        self, stage_id: int, chunks: dict[int, Sequential]
    ) -> Sequential:
        if self.virtual_stages == 1:
            return chunks[stage_id]
        combined = Sequential()
        for c in sorted(chunks):
            for layer in chunks[c].layers:
                combined.append(layer)
        return combined

    def build_stage_parts(
        self, stage_id: int
    ) -> tuple[Sequential, dict[int, Sequential]]:
        """Fresh (combined module, chunk map) for a stage (recovery path)."""
        chunk_modules = partition_by_sizes(
            self.model_factory(), self.partition_sizes
        )
        chunks = self._stage_chunks(stage_id, chunk_modules)
        return self._combine_chunks(stage_id, chunks), chunks

    def build_stage_module(self, stage_id: int) -> Sequential:
        """Rebuild a stage's architecture (recovery re-instantiates it)."""
        return self.build_stage_parts(stage_id)[0]

    def new_stage(self, stage_id: int, device) -> PipelineStage:
        """A freshly built stage (module + optimizer) on ``device``."""
        module, chunks = self.build_stage_parts(stage_id)
        return PipelineStage(
            stage_id, module, self.opt_factory(module), device, chunks=chunks
        )

    def state_nbytes(self, stage_id: int) -> int:
        return sum(
            int(np.asarray(v).nbytes)
            for v in self.stages[stage_id].full_state().values()
        )

    # -- micro-batch data ---------------------------------------------------
    def microbatches(self, iteration: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Deterministic micro-batch split of iteration's global batch."""
        x, y = self.task.batch(iteration)
        xs = np.array_split(x, self.num_microbatches)
        ys = np.array_split(y, self.num_microbatches)
        return xs, ys

    # -- execution ----------------------------------------------------------------
    def run_iteration(self, failure: FailureEvent | None = None) -> IterationResult:
        """One full pipeline iteration with optional failure injection.

        Instructions execute in simulated global-time order, so a crash
        interrupts the iteration exactly where the schedule places it —
        including *between* instructions for
        ``FailurePhase.INSTRUCTION`` failures.
        """
        live = [s for s in self.stages if s.alive]
        if len(live) != self.num_stages:
            raise MachineFailure(-1, "cannot run with failed stages; recover first")
        if failure is not None and failure.phase == FailurePhase.ITERATION_START:
            return self._fail(failure)

        timing = self.timing()
        order = self._execution_order()
        num_compute = sum(1 for i in order if i.op in _COMPUTE)
        xs, ys = self.microbatches(self.iteration)
        for s in self.stages:
            s.module.zero_grad()
            s.reset_transient()

        losses: list[float] = []
        fail_on_phase = (
            failure.phase.value if failure is not None else None
        )
        instruction_hits = 0
        last_chunk = self._program.num_chunks - 1
        flat = self.virtual_stages == 1
        #: transient per-iteration dataflow: values between recv/compute/send
        acts: dict[tuple[int, int], np.ndarray] = {}
        outs: dict[tuple[int, int], np.ndarray] = {}
        grads_in: dict[tuple[int, int], np.ndarray] = {}
        grads_out: dict[tuple[int, int], np.ndarray] = {}
        with self.recorder.span("engine/schedule", ops=num_compute):
            for instr in order:
                stage = self.stages[instr.stage]
                if failure is not None and stage.machine_id == failure.machine_id:
                    if (
                        fail_on_phase in ("forward", "backward")
                        and instr.op == (
                            "Forward" if fail_on_phase == "forward" else "Backward"
                        )
                        and instr.microbatch >= failure.after_updates
                    ):
                        return self._fail(failure)
                    if (
                        fail_on_phase == "instruction"
                        and instr.op == failure.instruction
                    ):
                        if instruction_hits >= failure.after_updates:
                            return self._fail(failure)
                        instruction_hits += 1
                key = (instr.chunk, instr.microbatch)
                if instr.op == "LoadMicroBatch":
                    acts[key] = xs[instr.microbatch]
                elif instr.op == "RecvActivation":
                    src = (instr.chunk - 1) % self.num_stages
                    msg = (
                        self.transport.recv(instr.stage, src)
                        if flat
                        else self.transport.recv_matching(instr.stage, src, "fwd")
                    )
                    acts[key] = msg.tensor
                elif instr.op == "Forward":
                    out = stage.forward_mb(
                        instr.microbatch, acts.pop(key), chunk=instr.chunk
                    )
                    if instr.chunk == last_chunk:
                        stage.output_cache[instr.microbatch] = out
                    else:
                        outs[key] = out
                elif instr.op == "SendActivation":
                    dst = (instr.chunk + 1) % self.num_stages
                    self.transport.send(
                        instr.stage, dst, outs.pop(key), self.iteration,
                        instr.microbatch, "fwd",
                    )
                elif instr.op == "RecvGrad":
                    src = (instr.chunk + 1) % self.num_stages
                    msg = (
                        self.transport.recv(instr.stage, src)
                        if flat
                        else self.transport.recv_matching(instr.stage, src, "bwd")
                    )
                    grads_in[key] = msg.tensor
                elif instr.op == "Backward":
                    if instr.chunk == last_chunk:
                        loss_fn = self.loss_factory()
                        out = stage.output_cache.pop(instr.microbatch)
                        losses.append(loss_fn(out, ys[instr.microbatch]))
                        grad = loss_fn.backward() / self.num_microbatches
                    else:
                        grad = grads_in.pop(key)
                    grad_in = stage.backward_mb(
                        instr.microbatch, grad, chunk=instr.chunk
                    )
                    if instr.chunk > 0:
                        grads_out[key] = grad_in
                else:  # SendGrad
                    dst = (instr.chunk - 1) % self.num_stages
                    self.transport.send(
                        instr.stage, dst, grads_out.pop(key), self.iteration,
                        instr.microbatch, "bwd",
                    )

        # wait-free per-stage updates in completion-time order (last stage
        # finishes its backwards first — Figure 1a)
        update_order = sorted(
            range(self.num_stages), key=lambda i: timing.stage_finish[i]
        )
        updates_done = 0
        with self.recorder.span("engine/optimizer"):
            for sid in update_order:
                if (
                    failure is not None
                    and failure.phase == FailurePhase.MID_UPDATE
                    and updates_done >= failure.after_updates
                ):
                    return self._fail(failure)
                if (
                    failure is not None
                    and fail_on_phase == "instruction"
                    and failure.instruction == "OptimizerStep"
                    and self.stages[sid].machine_id == failure.machine_id
                ):
                    if instruction_hits >= failure.after_updates:
                        return self._fail(failure)
                    instruction_hits += 1
                self.stages[sid].step()
                updates_done += 1

        self.iteration += 1
        overheads: dict[str, float] = {}
        for hook in self.overhead_hooks:
            label, seconds = hook(timing)
            overheads[label] = overheads.get(label, 0.0) + seconds
        sim_time = timing.iteration_time + sum(overheads.values())
        self.clock.advance(sim_time, "iteration", iteration=self.iteration - 1)
        return IterationResult(
            iteration=self.iteration - 1,
            loss=float(np.mean(losses)),
            sim_time=sim_time,
            overheads=overheads,
        )

    def _fail(self, failure: FailureEvent) -> IterationResult:
        self.cluster.fail_machine(failure.machine_id)
        self.cluster.kvstore.raise_failure(failure.machine_id, self.iteration)
        # the interrupted iteration is abandoned wholesale: no in-flight
        # message may survive into the post-recovery re-run
        self.transport.drop_all()
        # clear in-flight activation caches but KEEP the updated-this-
        # iteration marks: update-undo consumes them during recovery
        for s in self.stages:
            if s.alive:
                s.clear_caches()
        return IterationResult(
            iteration=self.iteration,
            failed=True,
            failed_machine=failure.machine_id,
        )
