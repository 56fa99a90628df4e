"""Pipeline schedules: 1F1B/GPipe validity, bubble math, program pricing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.parallel import bubble_ratio, build_program, simulate_program

settings.register_profile("sched", deadline=None, max_examples=40)
settings.load_profile("sched")


def compute_kinds(name, p, m):
    """Per-stage ("F"/"B", microbatch) compute order of a flat program."""
    program = build_program(name, p, m)
    return [
        [(i.op[0], i.microbatch) for i in program.compute_instructions(s)]
        for s in range(p)
    ]


def simulate(name, p, m, fwd, bwd, comm_time=0.0):
    return simulate_program(build_program(name, p, m), fwd, bwd, comm_time)


def assert_valid_schedule(name, p, m):
    """Every stage runs m forwards and m backwards; B_k follows F_k."""
    for stage, ops in enumerate(compute_kinds(name, p, m)):
        fwd = [mb for kind, mb in ops if kind == "F"]
        bwd = [mb for kind, mb in ops if kind == "B"]
        assert fwd == list(range(m)), f"stage {stage} forwards wrong"
        assert bwd == list(range(m)), f"stage {stage} backwards wrong"
        pos = {op: i for i, op in enumerate(ops)}
        for k in range(m):
            assert pos[("F", k)] < pos[("B", k)]


class TestBubbleRatio:
    def test_paper_example(self):
        # Figure 1a: p=4, m=4 -> 3/7
        assert bubble_ratio(4, 4) == pytest.approx(3 / 7)

    def test_more_microbatches_fewer_bubbles(self):
        assert bubble_ratio(4, 16) < bubble_ratio(4, 4)

    def test_single_stage_no_bubbles(self):
        assert bubble_ratio(1, 8) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bubble_ratio(0, 4)


class TestSchedules:
    @pytest.mark.parametrize("p,m", [(1, 1), (2, 4), (4, 4), (4, 16), (8, 2)])
    def test_1f1b_valid(self, p, m):
        assert_valid_schedule("1f1b", p, m)

    @pytest.mark.parametrize("p,m", [(1, 1), (2, 4), (4, 4), (8, 2)])
    def test_gpipe_valid(self, p, m):
        assert_valid_schedule("gpipe", p, m)

    def test_1f1b_warmup_depth(self):
        per_stage = compute_kinds("1f1b", 4, 8)
        # stage 0 warms up with p-1 = 3 forwards before its first backward
        ops = per_stage[0]
        first_b = next(i for i, (kind, _) in enumerate(ops) if kind == "B")
        assert all(kind == "F" for kind, _ in ops[:first_b])
        assert first_b == 4  # 3 warmup + the paired forward

    def test_last_stage_alternates_immediately(self):
        ops = compute_kinds("1f1b", 4, 4)[3]
        kinds = [kind for kind, _ in ops]
        assert kinds == ["F", "B"] * 4

    @given(p=st.integers(1, 8), m=st.integers(1, 12))
    def test_1f1b_valid_property(self, p, m):
        assert_valid_schedule("1f1b", p, m)


class TestScheduleTiming:
    def test_iteration_time_uniform(self):
        p, m = 4, 4
        t = simulate("1f1b", p, m, [1.0] * p, [1.0] * p)
        # uniform fwd=bwd=1: iteration = 2m + 2(p-1) slots
        assert t.iteration_time == pytest.approx(2 * m + 2 * (p - 1))

    def test_bubble_matches_formula_for_uniform_times(self):
        p, m = 4, 8
        t = simulate("1f1b", p, m, [1.0] * p, [1.0] * p)
        busy = 2.0 * m
        span = t.iteration_time
        measured_ratio = 1 - busy * p / (span * p)
        assert measured_ratio == pytest.approx(bubble_ratio(p, m), abs=0.05)

    def test_gpipe_and_1f1b_same_iteration_time(self):
        """Same bubble ratio (Section 2.1) => same span for uniform times."""
        p, m = 4, 6
        a = simulate("1f1b", p, m, [1.0] * p, [1.0] * p)
        b = simulate("gpipe", p, m, [1.0] * p, [1.0] * p)
        assert a.iteration_time == pytest.approx(b.iteration_time)

    def test_1f1b_lower_peak_memory_than_gpipe(self):
        """The reason the paper adopts 1F1B (Section 2.1)."""
        p, m = 4, 8
        a = simulate("1f1b", p, m, [1.0] * p, [1.0] * p)
        b = simulate("gpipe", p, m, [1.0] * p, [1.0] * p)
        assert max(a.max_in_flight) < max(b.max_in_flight)
        # 1F1B stage 0 holds at most p in-flight microbatches
        assert a.max_in_flight[0] <= p

    def test_dependencies_respected(self):
        p, m = 3, 3
        t = simulate("1f1b", p, m, [1.0] * p, [2.0] * p, 0.1)
        for k in range(m):
            for s in range(1, p):
                up_end = t.op_times[(s - 1, "F", k)][1]
                start = t.op_times[(s, "F", k)][0]
                assert start >= up_end + 0.1 - 1e-12
            for s in range(p - 1):
                down_end = t.op_times[(s + 1, "B", k)][1]
                start = t.op_times[(s, "B", k)][0]
                assert start >= down_end + 0.1 - 1e-12

    def test_ops_on_stage_serialize(self):
        p, m = 4, 4
        t = simulate("1f1b", p, m, [1.0] * p, [1.0] * p)
        for stage in range(p):
            intervals = sorted(
                (se for (s, _, _), se in t.op_times.items() if s == stage)
            )
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-12

    def test_last_stage_has_least_bubble(self):
        p, m = 4, 8
        t = simulate("1f1b", p, m, [1.0] * p, [1.0] * p)
        assert t.stage_bubble[p - 1] <= min(t.stage_bubble[:-1]) + 1e-9

    @given(p=st.integers(1, 6), m=st.integers(1, 8))
    def test_timing_always_resolves(self, p, m):
        t = simulate("1f1b", p, m, [1.0] * p, [1.5] * p, 0.01)
        assert t.iteration_time > 0
        assert len(t.op_times) == 2 * p * m

    def test_heterogeneous_stage_times(self):
        p, m = 3, 4
        t = simulate("1f1b", p, m, [1.0, 3.0, 1.0], [1.0, 3.0, 1.0])
        # the slow middle stage is the bottleneck: span >= m * its fwd+bwd
        assert t.iteration_time >= m * 6.0


class TestWarmupWithFewMicrobatches:
    """Regression: the 1F1B warm-up for m < p - 1 was suspected of
    leaving trailing no-op slots that padded the simulated makespan.  It
    does not — these tests pin the exact op counts and timing so the bug
    can never be introduced."""

    CASES = [(4, 1), (4, 2), (5, 3), (3, 1), (6, 2)]

    @pytest.mark.parametrize("p,m", CASES)
    def test_no_noop_slots(self, p, m):
        """Every stage emits exactly m forwards + m backwards, nothing
        else, even when the warm-up cap (p - s - 1) exceeds m."""
        for name in ("1f1b", "gpipe"):
            assert_valid_schedule(name, p, m)
            for ops in compute_kinds(name, p, m):
                assert len(ops) == 2 * m

    @pytest.mark.parametrize("p,m", CASES)
    def test_exact_makespan(self, p, m):
        """Uniform stages, m <= p - 1: the makespan is exactly
        (m + p - 1) * (f + b) — no padding from degenerate warm-up."""
        f, b = 1.0, 2.0
        for name in ("1f1b", "gpipe"):
            t = simulate(name, p, m, [f] * p, [b] * p)
            assert t.iteration_time == (m + p - 1) * (f + b)
            assert len(t.op_times) == 2 * p * m

    @pytest.mark.parametrize("p,m", CASES)
    def test_bubble_pinned_against_bubble_ratio(self, p, m):
        """Stage 0's idle time equals the analytic bubble fraction of
        the makespan, and per-stage bubbles fall linearly to zero on
        the last stage."""
        f, b = 1.0, 2.0
        t = simulate("1f1b", p, m, [f] * p, [b] * p)
        assert t.stage_bubble[0] == pytest.approx(
            t.iteration_time * bubble_ratio(p, m)
        )
        for s in range(p):
            assert t.stage_bubble[s] == pytest.approx(
                (p - 1 - s) * (f + b)
            )
