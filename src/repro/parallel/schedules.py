"""Static pricing of pipeline schedule programs.

:func:`simulate_program` times every compute instruction of a
:class:`~repro.parallel.instructions.ScheduleProgram` (the generators
live in :mod:`repro.parallel.programs`).

The paper adopts the One-Forward-One-Backward (1F1B) schedule (Figure
1a): both 1F1B and GPipe have bubble ratio ``(p-1)/(m+p-1)``, but 1F1B
holds at most ``p - stage`` in-flight micro-batches, so peak memory is
lower (Section 2.1).  Bubble *time* matters doubly for Swift: it is the
window in which asynchronous logging hides its PCIe copies (Section
5.1), and its absence during replay is why recovery runs faster than
the original execution (Figure 1b).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "bubble_ratio",
    "ScheduleTiming",
    "simulate_program",
    "program_op_key",
]


def bubble_ratio(num_stages: int, num_microbatches: int) -> float:
    """Idle fraction of 1F1B/GPipe pipelines: (p-1)/(m+p-1) (Section 2.1)."""
    p, m = num_stages, num_microbatches
    if p < 1 or m < 1:
        raise ConfigurationError("need at least one stage and one micro-batch")
    return (p - 1) / (m + p - 1)


@dataclass
class ScheduleTiming:
    """Static timing of one pipeline iteration."""

    #: (stage, kind, microbatch) -> (start, end) in seconds from iteration start
    op_times: dict[tuple[int, str, int], tuple[float, float]]
    #: per-stage completion time of the last op
    stage_finish: list[float]
    #: per-stage idle (bubble) seconds within [first op start, last op end]
    stage_bubble: list[float]

    @property
    def iteration_time(self) -> float:
        return max(self.stage_finish)

    @property
    def max_in_flight(self) -> list[int]:
        """Peak number of outstanding forwards per stage (memory proxy)."""
        peaks = []
        by_stage: dict[int, list[tuple[float, int]]] = {}
        for (stage, kind, _), (start, _end) in self.op_times.items():
            delta = 1 if kind.startswith("F") else -1
            by_stage.setdefault(stage, []).append((start, delta))
        for stage in sorted(by_stage):
            level = peak = 0
            for _, delta in sorted(by_stage[stage]):
                level += delta
                peak = max(peak, level)
            peaks.append(peak)
        return peaks


def program_op_key(op: str, stage: int, chunk: int, microbatch: int,
                   num_stages: int, virtual_stages: int) -> tuple[int, str, int]:
    """The ``ScheduleTiming.op_times`` key of one compute instruction.

    Flat programs use ``(stage, "F"/"B", microbatch)`` keys;
    interleaved programs qualify the kind with the local chunk index so
    one stage's chunks stay distinguishable: ``(stage, "F0"/"B1"/...,
    microbatch)``.

    >>> program_op_key("Forward", 1, 1, 0, num_stages=2, virtual_stages=1)
    (1, 'F', 0)
    >>> program_op_key("Backward", 1, 3, 2, num_stages=2, virtual_stages=2)
    (1, 'B1', 2)
    """
    kind = "F" if op == "Forward" else "B"
    if virtual_stages > 1:
        kind += str(chunk // num_stages)
    return (stage, kind, microbatch)


def simulate_program(
    program,
    fwd_time: list[float],
    bwd_time: list[float],
    comm_time: float = 0.0,
) -> ScheduleTiming:
    """Price an arbitrary :class:`~repro.parallel.instructions.ScheduleProgram`.

    Compute instructions serialize per stage in stream order;
    a Forward on chunk ``c > 0`` waits for the Forward on chunk ``c-1``
    plus transfer; a Backward on the last chunk waits for its own
    Forward; any other Backward waits for the Backward on chunk ``c+1``
    plus transfer.  With ``virtual_stages > 1`` each chunk costs
    ``1/v`` of the stage's full forward/backward time.

    The solver sweeps the stages until every instruction is placed (the
    dependency graph is acyclic, so each pass places at least one —
    O(total_ops²) worst case, fine at this scale); an ordering that
    can never make progress raises ``ConfigurationError``.

    >>> from repro.parallel.programs import build_program
    >>> t = simulate_program(build_program("1f1b", 2, 2), [1.0, 1.0],
    ...                      [2.0, 2.0])
    >>> t.op_times[(0, "F", 0)]
    (0.0, 1.0)
    >>> t.iteration_time
    9.0
    """
    p = program.num_stages
    v = program.virtual_stages
    last_chunk = program.num_chunks - 1
    per_stage = [program.compute_instructions(s) for s in range(p)]
    done: dict[tuple[int, str, int], tuple[float, float]] = {}
    pointer = [0] * p
    stage_free = [0.0] * p

    def key_of(instr) -> tuple[int, str, int]:
        return program_op_key(instr.op, instr.stage, instr.chunk,
                              instr.microbatch, p, v)

    def dep_ready(instr) -> float | None:
        if instr.op == "Forward":
            if instr.chunk == 0:
                return 0.0
            c = instr.chunk - 1
            prev = done.get(program_op_key("Forward", c % p, c,
                                           instr.microbatch, p, v))
        else:
            if instr.chunk == last_chunk:
                prev = done.get(program_op_key("Forward", instr.stage,
                                               instr.chunk,
                                               instr.microbatch, p, v))
                return prev[1] if prev else None
            c = instr.chunk + 1
            prev = done.get(program_op_key("Backward", c % p, c,
                                           instr.microbatch, p, v))
        return prev[1] + comm_time if prev else None

    total = sum(len(ops) for ops in per_stage)
    while len(done) < total:
        progressed = False
        for stage in range(p):
            while pointer[stage] < len(per_stage[stage]):
                instr = per_stage[stage][pointer[stage]]
                ready = dep_ready(instr)
                if ready is None:
                    break
                start = max(stage_free[stage], ready)
                full = fwd_time[stage] if instr.op == "Forward" else bwd_time[stage]
                duration = full if v == 1 else full / v
                end = start + duration
                done[key_of(instr)] = (start, end)
                stage_free[stage] = end
                pointer[stage] += 1
                progressed = True
        if not progressed:
            raise ConfigurationError("schedule deadlock: invalid op ordering")

    stage_finish, stage_bubble = [], []
    for stage in range(p):
        ops = [done[key_of(i)] for i in per_stage[stage]]
        busy = sum(end - start for start, end in ops)
        first = min(start for start, _ in ops)
        last = max(end for _, end in ops)
        stage_finish.append(last)
        stage_bubble.append((last - first) - busy)
    return ScheduleTiming(done, stage_finish, stage_bubble)
