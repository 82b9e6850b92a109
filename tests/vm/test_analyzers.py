"""Tests for the one-pass LRU/WS sweep analyzers, including exact
cross-validation against the event-driven simulator."""

import numpy as np
import pytest

from repro.vm.analyzers import LRUSweep, WSSweep
from repro.vm.policies import LRUPolicy, WorkingSetPolicy
from repro.vm.simulator import simulate

from .conftest import make_trace


def random_trace(seed, length=400, universe=12):
    rng = np.random.default_rng(seed)
    # Mix locality phases with uniform noise for realistic shape.
    pages = []
    base = 0
    for _ in range(length // 20):
        base = int(rng.integers(0, universe - 3))
        for _ in range(20):
            if rng.random() < 0.8:
                pages.append(base + int(rng.integers(0, 3)))
            else:
                pages.append(int(rng.integers(0, universe)))
    return make_trace(pages)


class TestLRUSweepBasics:
    def test_faults_match_known_string(self):
        sweep = LRUSweep(make_trace([0, 1, 0, 2, 1]))
        assert sweep.faults(2) == 4
        assert sweep.faults(3) == 3

    def test_faults_monotone_in_frames(self):
        sweep = LRUSweep(random_trace(1))
        faults = [sweep.faults(m) for m in range(1, sweep.max_useful_frames + 1)]
        assert faults == sorted(faults, reverse=True)

    def test_cold_faults_at_max_frames(self):
        trace = random_trace(2)
        sweep = LRUSweep(trace)
        assert sweep.faults(sweep.max_useful_frames) == trace.distinct_pages

    def test_invalid_frames(self):
        sweep = LRUSweep(make_trace([0]))
        with pytest.raises(ValueError):
            sweep.faults(0)

    def test_empty_trace(self):
        sweep = LRUSweep(make_trace([]))
        assert sweep.faults(1) == 0
        assert sweep.mem(1) == 0.0

    def test_curve_default_range(self):
        sweep = LRUSweep(make_trace([0, 1, 2, 0, 1, 2]))
        curve = sweep.curve()
        assert [r.parameter for r in curve] == [1, 2, 3]

    def test_min_space_time_is_global(self):
        sweep = LRUSweep(random_trace(3))
        best = sweep.min_space_time()
        for m in range(1, sweep.max_useful_frames + 1):
            assert best.space_time <= sweep.space_time(m)

    def test_min_frames_with_faults_at_most(self):
        sweep = LRUSweep(random_trace(4))
        target = sweep.faults(5)
        m = sweep.min_frames_with_faults_at_most(target)
        assert m is not None and m <= 5
        assert sweep.faults(m) <= target
        if m > 1:
            assert sweep.faults(m - 1) > target

    def test_min_frames_unreachable(self):
        sweep = LRUSweep(make_trace([0, 1, 2]))
        assert sweep.min_frames_with_faults_at_most(2) is None

    def test_frames_for_mem(self):
        sweep = LRUSweep(random_trace(5))
        target = sweep.mem(4)
        assert sweep.frames_for_mem(target) == 4


class TestLRUSweepAgreesWithSimulator:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("frames", [1, 2, 3, 5, 9])
    def test_exact_agreement(self, seed, frames):
        trace = random_trace(seed)
        sweep = LRUSweep(trace)
        exact = simulate(trace, LRUPolicy(frames=frames))
        assert sweep.faults(frames) == exact.page_faults
        assert sweep.mem(frames) == pytest.approx(exact.mem_average)
        assert sweep.space_time(frames) == pytest.approx(exact.space_time)


class TestWSSweepBasics:
    def test_faults_match_known_string(self):
        sweep = WSSweep(make_trace([0, 1, 0]))
        assert sweep.faults(2) == 2
        assert sweep.faults(1) == 3

    def test_faults_monotone_in_tau(self):
        sweep = WSSweep(random_trace(6))
        faults = [sweep.faults(t) for t in range(1, 100, 7)]
        assert faults == sorted(faults, reverse=True)

    def test_mem_monotone_in_tau(self):
        sweep = WSSweep(random_trace(7))
        mems = [sweep.mem(t) for t in range(1, 100, 7)]
        assert all(a <= b + 1e-12 for a, b in zip(mems, mems[1:]))

    def test_tau_one_mem_is_one(self):
        sweep = WSSweep(make_trace([0, 1, 2, 3]))
        assert sweep.mem(1) == 1.0

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            WSSweep(make_trace([0])).faults(0)

    def test_empty_trace(self):
        sweep = WSSweep(make_trace([]))
        assert sweep.faults(5) == 0

    def test_default_taus_cover_range(self):
        trace = random_trace(8)
        sweep = WSSweep(trace)
        taus = sweep.default_taus()
        assert taus[0] == 1
        assert taus[-1] == trace.length

    def test_tau_for_mem_bisection(self):
        sweep = WSSweep(random_trace(9))
        target = sweep.mem(40)
        tau = sweep.tau_for_mem(target)
        assert sweep.mem(tau) == pytest.approx(target, rel=0.05)

    def test_min_tau_with_faults_at_most(self):
        sweep = WSSweep(random_trace(10))
        target = sweep.faults(50)
        tau = sweep.min_tau_with_faults_at_most(target)
        assert tau is not None
        assert sweep.faults(tau) <= target
        if tau > 1:
            assert sweep.faults(tau - 1) > target

    def test_min_space_time_not_worse_than_grid(self):
        sweep = WSSweep(random_trace(11))
        best = sweep.min_space_time()
        for t in sweep.default_taus():
            assert best.space_time <= sweep.space_time(t) + 1e-9

    def test_min_space_time_best_first_in_descending_list(self):
        # τ=40 wins at index 0, so the refine range [40 // 2, 5] is
        # empty: the grid optimum stands (it used to raise ValueError)
        sweep = WSSweep(make_trace([0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 3, 4, 0, 1] * 20))
        assert sweep.space_time(40) < min(sweep.space_time(5), sweep.space_time(1))
        assert sweep.min_space_time([40, 5, 1]) == sweep.result(40)

    def test_results_cached(self):
        sweep = WSSweep(random_trace(12))
        assert sweep.result(17) is sweep.result(17)


class TestWSSweepAgreesWithSimulator:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("tau", [1, 2, 5, 19, 100])
    def test_exact_agreement(self, seed, tau):
        trace = random_trace(seed)
        sweep = WSSweep(trace)
        exact = simulate(trace, WorkingSetPolicy(tau=tau))
        assert sweep.faults(tau) == exact.page_faults
        assert sweep.mem(tau) == pytest.approx(exact.mem_average)
        assert sweep.space_time(tau) == pytest.approx(exact.space_time)


class TestMetrics:
    def test_percent_excess(self):
        from repro.vm.metrics import percent_excess

        assert percent_excess(150, 100) == pytest.approx(50.0)
        assert percent_excess(80, 100) == pytest.approx(-20.0)

    def test_result_virtual_time(self):
        from repro.vm.metrics import SimulationResult

        r = SimulationResult(
            policy="LRU",
            program="X",
            page_faults=10,
            references=1000,
            mem_average=2.0,
            space_time=1.0,
            fault_service=2000,
        )
        assert r.virtual_time == 21000
        assert r.fault_rate == pytest.approx(0.01)

    def test_describe_mentions_parameter(self):
        from repro.vm.metrics import SimulationResult

        r = SimulationResult(
            policy="WS",
            program="X",
            page_faults=1,
            references=10,
            mem_average=1.0,
            space_time=1.0,
            parameter=42,
        )
        assert "42" in r.describe()
