"""Schedule generators and the ``register_schedule`` registry.

Built-in generators — ``gpipe``, ``1f1b``, ``interleaved_1f1b`` — emit
:class:`~repro.parallel.instructions.ScheduleProgram` instruction
streams.  Each generator lists every stage's compute units —
``(kind, chunk, microbatch)`` in execution order — and one lowering
step adds the loads, sends, receives and the closing ``OptimizerStep``
around them.  ``gpipe`` and ``1f1b`` are flat (chunk == stage);
``interleaved_1f1b`` implements the Megatron-LM interleaved schedule:
each physical stage hosts ``virtual_stages`` model chunks, shrinking
the pipeline bubble by the same factor at the cost of more p2p traffic.

Third-party schedules plug in through :func:`register_schedule`; every
generated program is validated by
:func:`~repro.parallel.instructions.verify_program` before the engine
will execute it — schedules are data, not trusted code.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import ConfigurationError
from repro.parallel.instructions import Instruction, ScheduleProgram

__all__ = [
    "ScheduleGenerator",
    "register_schedule",
    "get_schedule",
    "schedule_names",
    "default_virtual_stages",
    "build_program",
    "program_gpipe",
    "program_1f1b",
    "program_interleaved_1f1b",
]

#: a generator maps (num_stages, num_microbatches, virtual_stages) to a
#: :class:`ScheduleProgram`
ScheduleGenerator = Callable[[int, int, int], ScheduleProgram]

_REGISTRY: dict[str, tuple[ScheduleGenerator, int]] = {}


def register_schedule(
    name: str,
    generator: ScheduleGenerator,
    *,
    virtual_stages: int = 1,
    overwrite: bool = False,
) -> None:
    """Register a schedule generator under ``name``.

    ``virtual_stages`` is the default chunk multiplier a planner should
    use when the user does not pick one (1 for flat schedules, 2 for
    interleaved).  Registered schedules become valid values for
    ``ParallelismSpec.schedule`` and show up in ``repro schedule
    --list``; their programs are statically verified before execution.

    >>> from dataclasses import replace
    >>> from repro.parallel.programs import build_program
    >>> def tiny(p, m, v):
    ...     return replace(program_gpipe(p, m, v), name="tiny_gpipe")
    >>> register_schedule("tiny_gpipe", tiny)
    >>> build_program("tiny_gpipe", 2, 2).name
    'tiny_gpipe'
    >>> register_schedule("tiny_gpipe", tiny)
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: schedule 'tiny_gpipe' is already ...
    """
    if not name or not isinstance(name, str):
        raise ConfigurationError("schedule name must be a non-empty string")
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"schedule {name!r} is already registered "
            f"(pass overwrite=True to replace it)"
        )
    if virtual_stages < 1:
        raise ConfigurationError("virtual_stages must be >= 1")
    _REGISTRY[name] = (generator, virtual_stages)


def get_schedule(name: str) -> ScheduleGenerator:
    """Look up a registered generator, or raise naming the options.

    >>> get_schedule("1f1b") is program_1f1b
    True
    """
    try:
        return _REGISTRY[name][0]
    except KeyError:
        raise ConfigurationError(
            f"unknown schedule {name!r}; registered schedules: "
            f"{', '.join(schedule_names())}"
        ) from None


def schedule_names() -> tuple[str, ...]:
    """All registered schedule names, sorted.

    >>> [n for n in schedule_names() if not n.startswith("tiny")]
    ['1f1b', 'gpipe', 'interleaved_1f1b']
    """
    return tuple(sorted(_REGISTRY))


def default_virtual_stages(name: str) -> int:
    """The chunk multiplier a schedule uses when none is requested.

    >>> (default_virtual_stages("1f1b"),
    ...  default_virtual_stages("interleaved_1f1b"))
    (1, 2)
    """
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown schedule {name!r}; registered schedules: "
            f"{', '.join(schedule_names())}"
        )
    return _REGISTRY[name][1]


def build_program(
    name: str,
    num_stages: int,
    num_microbatches: int,
    virtual_stages: int = 1,
) -> ScheduleProgram:
    """Generate the named schedule's program for (p, m, v).

    >>> prog = build_program("gpipe", 2, 3)
    >>> [i.op for i in prog.streams[1][:2]]
    ['RecvActivation', 'Forward']
    """
    if num_stages < 1:
        raise ConfigurationError("need at least one stage")
    if num_microbatches < 1:
        raise ConfigurationError("need at least one micro-batch")
    if virtual_stages < 1:
        raise ConfigurationError("virtual_stages must be >= 1")
    return get_schedule(name)(num_stages, num_microbatches, virtual_stages)


#: one compute unit of a stage: ("F" or "B", chunk, microbatch)
_Unit = tuple[str, int, int]


def _lower(
    name: str,
    num_stages: int,
    num_microbatches: int,
    num_chunks: int,
    per_stage_units: Iterable[Iterable[_Unit]],
) -> ScheduleProgram:
    """Lower per-stage compute units into instruction streams.

    Each ``F`` becomes load (chunk 0) or recv + ``Forward`` + send
    (unless last chunk); each ``B`` becomes recv (unless last chunk) +
    ``Backward`` + send (unless chunk 0); a single ``OptimizerStep``
    closes every stream.  Compute order is the units' order exactly.

    >>> prog = _lower("demo", 1, 2, 1, [[("F", 0, 0), ("F", 0, 1),
    ...                                  ("B", 0, 0), ("B", 0, 1)]])
    >>> [i.op for i in prog.streams[0]]
    ['LoadMicroBatch', 'Forward', 'LoadMicroBatch', 'Forward', \
'Backward', 'Backward', 'OptimizerStep']
    """
    last = num_chunks - 1
    streams: list[tuple[Instruction, ...]] = []
    for s, units in enumerate(per_stage_units):
        instrs: list[Instruction] = []
        for kind, chunk, mb in units:
            if kind == "F":
                instrs.append(Instruction(
                    "LoadMicroBatch" if chunk == 0 else "RecvActivation",
                    s, mb, chunk))
                instrs.append(Instruction("Forward", s, mb, chunk))
                if chunk < last:
                    instrs.append(Instruction("SendActivation", s, mb, chunk))
            else:
                if chunk < last:
                    instrs.append(Instruction("RecvGrad", s, mb, chunk))
                instrs.append(Instruction("Backward", s, mb, chunk))
                if chunk > 0:
                    instrs.append(Instruction("SendGrad", s, mb, chunk))
        instrs.append(Instruction("OptimizerStep", s))
        streams.append(tuple(instrs))
    return ScheduleProgram(
        name=name,
        num_stages=num_stages,
        num_microbatches=num_microbatches,
        num_chunks=num_chunks,
        streams=tuple(streams),
    )


def _one_f_one_b(
    fwd: list[tuple[int, int]], bwd: list[tuple[int, int]], warmup: int
) -> list[_Unit]:
    """``warmup`` forwards, then forward/backward pairs, then the
    remaining backwards; ``fwd``/``bwd`` list (chunk, microbatch) in
    issue order."""
    units = [("F", *u) for u in fwd[:warmup]]
    for f, b in zip(fwd[warmup:], bwd):
        units += [("F", *f), ("B", *b)]
    units += [("B", *u) for u in bwd[len(fwd) - warmup:]]
    return units


def _require_flat(name: str, virtual_stages: int) -> None:
    if virtual_stages != 1:
        raise ConfigurationError(
            f"schedule {name!r} does not support virtual stages "
            f"(got virtual_stages={virtual_stages}); use "
            f"'interleaved_1f1b' for v > 1"
        )


def program_gpipe(
    num_stages: int, num_microbatches: int, virtual_stages: int = 1
) -> ScheduleProgram:
    """GPipe: all forwards, then all backwards, per stage.

    >>> program_gpipe(2, 2).compute_instructions(0)[0].op
    'Forward'
    """
    _require_flat("gpipe", virtual_stages)
    p, m = num_stages, num_microbatches
    return _lower("gpipe", p, m, p, [
        [("F", s, k) for k in range(m)] + [("B", s, k) for k in range(m)]
        for s in range(p)
    ])


def program_1f1b(
    num_stages: int, num_microbatches: int, virtual_stages: int = 1
) -> ScheduleProgram:
    """1F1B: warm-up forwards, then strict one-forward-one-backward.

    Stage ``s`` warms up with ``min(p - s - 1, m)`` forwards, so it
    holds at most ``p - s`` micro-batches in flight (Section 2.1).

    >>> prog = program_1f1b(2, 4)
    >>> [
    ...     (i.op[0], i.microbatch)
    ...     for i in prog.compute_instructions(0)[:4]
    ... ]
    [('F', 0), ('F', 1), ('B', 0), ('F', 2)]
    """
    _require_flat("1f1b", virtual_stages)
    p, m = num_stages, num_microbatches
    units = []
    for s in range(p):
        order = [(s, k) for k in range(m)]
        units.append(_one_f_one_b(order, order, min(p - s - 1, m)))
    return _lower("1f1b", p, m, p, units)


def program_interleaved_1f1b(
    num_stages: int, num_microbatches: int, virtual_stages: int = 2
) -> ScheduleProgram:
    """Megatron-LM interleaved 1F1B over ``virtual_stages`` chunks.

    Each physical stage hosts ``v`` model chunks (stage ``s`` holds
    chunks ``s, s+p, ..., s+(v-1)p``); micro-batches advance in groups
    of ``p``, and each stage's warm-up covers ``(p - s - 1) * 2 +
    (v - 1) * p`` compute units before entering 1F1B steady state.  The
    bubble shrinks to ``(p-1)/v`` compute slots per iteration — the
    reason this schedule beats GPipe and flat 1F1B at equal (p, m).

    Requires ``v >= 2`` and ``m % p == 0`` (micro-batch groups must
    fill the pipeline width, as in Megatron-LM).

    >>> prog = program_interleaved_1f1b(2, 4, 2)
    >>> (prog.num_chunks, prog.virtual_stages)
    (4, 2)
    >>> [
    ...     (i.op[0], i.chunk, i.microbatch)
    ...     for i in prog.compute_instructions(0)[:4]
    ... ]
    [('F', 0, 0), ('F', 0, 1), ('F', 2, 0), ('F', 2, 1)]
    """
    p, m, v = num_stages, num_microbatches, virtual_stages
    if v < 2:
        raise ConfigurationError(
            f"interleaved_1f1b needs virtual_stages >= 2 (got {v}); "
            f"use '1f1b' for a flat pipeline"
        )
    if m % p != 0:
        raise ConfigurationError(
            f"interleaved_1f1b needs num_microbatches divisible by "
            f"num_stages (got m={m}, p={p})"
        )
    total = m * v  # compute units of each kind per stage
    units = []
    for s in range(p):
        # unit i is micro-batch group*p + k%p; forwards run local chunk
        # k//p, backwards local chunk v-1-k//p
        fwd, bwd = [], []
        for i in range(total):
            group, k = divmod(i, p * v)
            mb = group * p + k % p
            fwd.append((s + (k // p) * p, mb))
            bwd.append((s + (v - 1 - k // p) * p, mb))
        if m == p:
            warmup = total
        else:
            warmup = min(total, (p - s - 1) * 2 + (v - 1) * p)
        units.append(_one_f_one_b(fwd, bwd, warmup))
    return _lower("interleaved_1f1b", p, m, p * v, units)


register_schedule("gpipe", program_gpipe)
register_schedule("1f1b", program_1f1b)
register_schedule("interleaved_1f1b", program_interleaved_1f1b,
                  virtual_stages=2)
