"""Transformer and conv substrate numerics, pinned by golden traces.

Every model family that runs through the engines has its end-to-end
numerics recorded in ``tests/traces/substrate_golden.json``: per-iteration
losses, simulated iteration times and a SHA-256 over the full model and
optimizer state of every worker or stage.  A kernel change under
``repro.nn`` that moves any bit of a BERT, ViT or WRN run fails here, so
such a change lands either bitwise-preserving or as a deliberate re-pin.

Runs (small shapes, as in the e2ebench ``pp_logging`` workload):

* ``dp2``         - data parallelism over two workers;
* ``pp4_1f1b``    - a four-stage 1F1B pipeline;
* ``pp4_logging`` - the same pipeline with bubble logging, one
  ``FORWARD`` crash of an encoder-block stage and degree-2 parallel
  replay.

BERT and ViT run all three; the wide ResNet (conv + batch norm) runs
``dp2``.

To re-pin after a deliberate numerics change, run
``PYTHONPATH=src python tests/test_substrate_golden.py --write`` and
record the per-run deltas in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    ClusterSpec,
    DataSpec,
    Experiment,
    FaultToleranceSpec,
    ModelSpec,
    ParallelismSpec,
)
from repro.cluster import FailureEvent, FailurePhase, FailureSchedule

GOLDEN = Path(__file__).parent / "traces" / "substrate_golden.json"

ITERATIONS = 8
#: the logging run crashes stage 1 (an encoder block) mid-forward, two
#: iterations after the checkpoint at iteration 4
CRASH = FailureEvent(machine_id=1, iteration=6, phase=FailurePhase.FORWARD,
                     after_updates=2)

#: family -> (model, data, pipeline partition); each partition puts one
#: encoder block on each of stages 1 and 2
MODELS = {
    "bert": (
        ModelSpec(family="bert", dim=32, depth=2, vocab_size=32, max_len=16,
                  num_heads=4, seed=11, optimizer="adam", lr=5e-3),
        DataSpec(kind="tokens", batch_size=16, seed=12),
        (1, 1, 1, 1),
    ),
    "vit": (
        ModelSpec(family="vit", dim=32, depth=2, image_size=16, patch=4,
                  num_heads=4, num_classes=4, seed=13, optimizer="adam",
                  lr=5e-3),
        DataSpec(kind="images", batch_size=16, seed=14),
        (2, 1, 1, 1),
    ),
    "wrn": (
        ModelSpec(family="wide_resnet", depth=1, base_channels=4,
                  image_size=8, num_classes=4, seed=15),
        DataSpec(kind="images", batch_size=16, seed=16),
        None,
    ),
}

RUNS = [f"{family}_{run}" for family in ("bert", "vit")
        for run in ("dp2", "pp4_1f1b", "pp4_logging")] + ["wrn_dp2"]


def experiment(name: str) -> Experiment:
    family, run = name.split("_", 1)
    model, data, partition = MODELS[family]
    if run == "dp2":
        return Experiment(
            name=name, model=model, data=data,
            cluster=ClusterSpec(num_machines=2, devices_per_machine=1),
            parallelism=ParallelismSpec(kind="dp", num_workers=2),
        )
    logging = run == "pp4_logging"
    return Experiment(
        name=name, model=model, data=data,
        cluster=ClusterSpec(num_machines=4, devices_per_machine=1),
        parallelism=ParallelismSpec(
            kind="pp", num_workers=4, partition_sizes=partition,
            num_microbatches=4, schedule="1f1b"),
        fault_tolerance=FaultToleranceSpec(
            checkpoint_interval=4,
            parallel_recovery_degree=2 if logging else 1,
            logging_mode="bubble"),
    )


def state_digest(engine) -> str:
    """Order-stable SHA-256 over every worker's or stage's full state."""
    units = getattr(engine, "workers", None) or engine.stages
    h = hashlib.sha256()
    for unit in units:
        state = unit.full_state()
        for key in sorted(state):
            h.update(key.encode())
            h.update(np.ascontiguousarray(state[key]).tobytes())
    return h.hexdigest()


def capture(name: str) -> dict:
    session = experiment(name).build()
    failures = FailureSchedule([CRASH] if name.endswith("logging") else [])
    trace = session.run(ITERATIONS, failures=failures)
    if name.endswith("logging"):
        assert [r.strategy for r in trace.recoveries] == ["logging+pr"]
    return {
        "losses": trace.losses,
        "sim_times": trace.iteration_times,
        "state_sha256": state_digest(session.engine),
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())["runs"]


@pytest.mark.parametrize("name", RUNS)
def test_run_matches_golden(name):
    golden = _golden()[name]
    got = capture(name)
    assert got["losses"] == golden["losses"]
    assert got["sim_times"] == golden["sim_times"]
    assert got["state_sha256"] == golden["state_sha256"]


def test_golden_covers_every_run():
    assert sorted(_golden()) == sorted(RUNS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_substrate_golden.py --write")
    runs = {name: capture(name) for name in RUNS}
    GOLDEN.write_text(json.dumps({
        "description": "end-to-end numerics of BERT/ViT/WRN runs; see "
                       "tests/test_substrate_golden.py for the configs",
        "runs": runs,
    }, indent=1) + "\n")
    print(f"wrote {len(runs)} runs to {GOLDEN}")
