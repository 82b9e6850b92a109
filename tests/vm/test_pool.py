"""The load-controlled pool: profiles, admission policies, conservation."""

import numpy as np
import pytest

from repro.directives.model import AllocateRequest
from repro.obs import Admit, Defer, Depart, PoolSample, RingBufferSink, Suspend, Tracer
from repro.tracegen.events import DirectiveEvent, DirectiveKind
from repro.vm.multiprog import (
    ADMISSION_POLICIES,
    JobProfile,
    LoadControlledPool,
    MultiprogSimulator,
    admission_policy,
    poisson_arrivals,
)

from .conftest import make_trace


def alloc(position, *pairs):
    return DirectiveEvent(
        position=position,
        kind=DirectiveKind.ALLOCATE,
        site=0,
        requests=tuple(AllocateRequest(pi, x) for pi, x in pairs),
    )


def profile(pages, directives=None, name="J", **kw):
    return JobProfile.from_trace(
        make_trace(pages, directives=directives, name=name), **kw
    )


CYCLIC8 = list(range(8)) * 100  # 800 refs over 8 pages; knee = 8


class TestJobProfile:
    def test_basic_shape(self):
        p = profile(CYCLIC8)
        assert p.length == 800
        assert p.distinct == 8
        assert p.knee_frames == 8
        assert p.prev[0] == -1
        assert p.prev[8] == 0  # page 0 re-referenced one cycle later

    def test_faults_at_matches_lru_sweep(self):
        from repro.vm.analyzers import LRUSweep

        p = profile(CYCLIC8)
        sweep = LRUSweep(np.asarray(CYCLIC8, dtype=np.int32))
        for m in (1, 4, 8, 16):
            assert p.faults_at(m) == sweep.faults(m)

    def test_directive_demand(self):
        p = profile(CYCLIC8, [alloc(0, (1, 3), (2, 6))])
        assert p.cd_min_frames == 3  # largest PI=1 request
        assert p.cd_pref_frames == 6  # largest request of any PI

    def test_no_directives_falls_back_to_knee(self):
        p = profile(CYCLIC8)
        assert p.cd_min_frames == p.knee_frames
        assert p.cd_pref_frames == p.knee_frames

    def test_max_refs_truncates(self):
        p = profile(CYCLIC8, max_refs=80)
        assert p.length == 80


class TestAdmissionPolicies:
    def test_registry_has_all_four(self):
        assert set(ADMISSION_POLICIES) == {"uncontrolled", "knee", "ws", "cd"}

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown admission policy"):
            admission_policy("lottery")

    def test_knee_defers_when_short(self):
        pol = admission_policy("knee")
        p = profile(CYCLIC8)
        assert pol.allocation_for(p, free=4, total=32, admitted=1) is None
        assert pol.allocation_for(p, free=8, total=32, admitted=1) == 8

    def test_uncontrolled_admits_on_a_single_frame(self):
        pol = admission_policy("uncontrolled")
        p = profile(CYCLIC8)
        assert pol.allocation_for(p, free=1, total=32, admitted=5) == 1
        assert pol.allocation_for(p, free=0, total=32, admitted=5) is None

    def test_uncontrolled_share_shrinks_with_queue(self):
        pol = admission_policy("uncontrolled")
        p = profile(CYCLIC8)
        roomy = pol.allocation_for(p, free=32, total=32, admitted=0)
        jammed = pol.allocation_for(
            p, free=32, total=32, admitted=0, waiting=30
        )
        assert roomy == 8 and jammed == 1

    def test_cd_uses_directive_demand(self):
        pol = admission_policy("cd")
        p = profile(CYCLIC8, [alloc(0, (1, 3), (2, 6))])
        # walks the ALLOCATE chain (6, 3): largest named request that
        # fits -- never an in-between size the program didn't ask for
        assert p.cd_chain == (6, 3)
        assert pol.allocation_for(p, free=8, total=32, admitted=0) == 6
        assert pol.allocation_for(p, free=4, total=32, admitted=0) == 3
        assert pol.allocation_for(p, free=3, total=32, admitted=0) == 3
        assert pol.allocation_for(p, free=2, total=32, admitted=0) is None


def run_pool(arrivals, frames, policy, **kw):
    ring = RingBufferSink()
    pool = LoadControlledPool(
        arrivals, total_frames=frames, policy=policy,
        tracer=Tracer(ring), **kw,
    )
    result = pool.run()
    assert result.violations == []
    return result, ring.events


class TestPoolScheduling:
    def test_single_job_runs_exactly(self):
        p = profile(CYCLIC8)
        result, events = run_pool([(0, p)], frames=16, policy="knee")
        assert result.completed == 1
        rec = result.records[0]
        assert rec.references == p.length
        assert rec.faults == p.faults_at(rec.allocation) == 8
        assert rec.finish_time == result.elapsed

    def test_zero_process_pool(self):
        result, events = run_pool([], frames=16, policy="knee")
        assert result.arrivals == result.completed == 0
        assert result.elapsed == 0
        assert result.throughput == 0.0
        assert events == []

    def test_job_larger_than_pool_still_completes(self):
        # knee wants 8 but the whole machine has 4 frames: the grant is
        # clamped to the pool and the job simply faults more.
        p = profile(CYCLIC8)
        result, _ = run_pool([(0, p)], frames=4, policy="knee")
        rec = result.records[0]
        assert result.completed == 1
        assert rec.allocation == 4
        assert rec.faults == p.faults_at(4)

    def test_simultaneous_arrivals_admit_in_submission_order(self):
        p = profile(CYCLIC8)
        arrivals = [(0, p), (0, p), (0, p)]
        result, events = run_pool(arrivals, frames=16, policy="knee")
        admits = [e for e in events if isinstance(e, Admit)]
        # two fit at once (8 frames each); the third is deferred
        assert [a.proc for a in admits[:2]] == ["J#0", "J#1"]
        first_defer = next(e for e in events if isinstance(e, Defer))
        assert first_defer.proc == "J#2"
        assert result.completed == 3

    def test_determinism_under_fixed_seed(self):
        p = profile(CYCLIC8)
        arrivals = poisson_arrivals([p], load=2.0, horizon=20_000, seed=42)
        again = poisson_arrivals([p], load=2.0, horizon=20_000, seed=42)
        assert arrivals == again
        r1, _ = run_pool(arrivals, frames=24, policy="uncontrolled")
        r2, _ = run_pool(arrivals, frames=24, policy="uncontrolled")
        assert [rec.finish_time for rec in r1.records] == [
            rec.finish_time for rec in r2.records
        ]
        assert r1.faults == r2.faults

    def test_pool_faults_identity_across_policies(self):
        p = profile(CYCLIC8)
        arrivals = poisson_arrivals([p], load=1.0, horizon=30_000, seed=1)
        for policy in ADMISSION_POLICIES:
            result, _ = run_pool(arrivals, frames=24, policy=policy)
            for rec in result.records:
                if rec.suspensions == 0 and rec.finish_time is not None:
                    assert rec.faults == p.faults_at(rec.allocation)

    def test_frames_conserved_in_event_stream(self):
        p = profile(CYCLIC8)
        arrivals = poisson_arrivals([p], load=3.0, horizon=40_000, seed=5)
        _, events = run_pool(arrivals, frames=24, policy="uncontrolled")
        used = 0
        for e in events:
            if isinstance(e, Admit):
                used += e.frames
            elif isinstance(e, (Suspend, Depart)):
                used -= e.frames
            assert 0 <= used <= 24
        assert used == 0  # everything departed (no horizon)

    def test_pool_samples_emitted(self):
        p = profile(CYCLIC8)
        arrivals = poisson_arrivals([p], load=1.0, horizon=30_000, seed=2)
        _, events = run_pool(arrivals, frames=16, policy="knee")
        samples = [e for e in events if isinstance(e, PoolSample)]
        assert samples
        for s in samples:
            assert s.used + s.free == 16

    def test_horizon_bounds_the_run(self):
        p = profile(CYCLIC8)
        arrivals = poisson_arrivals([p], load=4.0, horizon=50_000, seed=3)
        result, _ = run_pool(
            arrivals, frames=8, policy="uncontrolled", horizon=10_000
        )
        assert result.elapsed == 10_000
        assert result.completed <= result.arrivals

    def test_bad_args_rejected(self):
        p = profile(CYCLIC8)
        with pytest.raises(ValueError):
            LoadControlledPool([(0, p)], total_frames=0)
        with pytest.raises(ValueError):
            LoadControlledPool([(0, p)], total_frames=8, cpus=0)
        with pytest.raises(ValueError):
            LoadControlledPool([(0, p)], total_frames=8, quantum=0)


class TestPreemption:
    def test_cd_swapper_suspends_larger_victim(self):
        # big takes the whole pool; the small PI=1 newcomer forces the
        # paper's swapper: big is suspended (releasing every frame),
        # small runs, big is re-admitted after small departs.
        big = profile(CYCLIC8, [alloc(0, (1, 8))], name="big")
        small = profile(
            [0, 1] * 40, [alloc(0, (1, 2))], name="small"
        )
        arrivals = [(0, big), (5, small)]
        result, events = run_pool(arrivals, frames=8, policy="cd")
        suspends = [e for e in events if isinstance(e, Suspend)]
        assert len(suspends) == 1
        assert suspends[0].proc == "big#0"
        assert suspends[0].frames == 8
        assert result.completed == 2
        big_rec = next(r for r in result.records if r.program == "big")
        assert big_rec.suspensions == 1
        # after the flush, the re-admitted process cold-starts: it
        # faults at least its resident set again
        assert big_rec.faults >= big.faults_at(big_rec.allocation)

    def test_knee_never_preempts(self):
        big = profile(CYCLIC8, name="big")
        small = profile([0, 1] * 40, name="small")
        result, events = run_pool(
            [(0, big), (5, small)], frames=8, policy="knee"
        )
        assert not [e for e in events if isinstance(e, Suspend)]
        assert result.suspensions == 0
        assert result.completed == 2

    def test_suspended_holds_zero_frames(self):
        big = profile(CYCLIC8, [alloc(0, (1, 8))], name="big")
        small = profile([0, 1] * 40, [alloc(0, (1, 2))], name="small")
        _, events = run_pool([(0, big), (5, small)], frames=8, policy="cd")
        held = {}
        suspended = set()
        for e in events:
            if isinstance(e, Admit):
                held[e.proc] = e.frames
                suspended.discard(e.proc)
            elif isinstance(e, Suspend):
                assert held[e.proc] == e.frames
                held[e.proc] = 0
                suspended.add(e.proc)
            elif isinstance(e, PoolSample) and suspended:
                # suspended processes contribute nothing to `used`
                assert e.used == sum(
                    f for pname, f in held.items() if pname not in suspended
                )


class TestLegacySimulatorEdgeCases:
    """Edge cases of the fixed-mix simulator that predate the pool."""

    def test_zero_process_mix(self):
        result = MultiprogSimulator([], total_frames=8, mode="cd").run()
        assert result.processes == []
        assert result.makespan == 0
        assert result.mem_utilization == 0.0

    @pytest.mark.parametrize("mode", ["cd", "ws"])
    def test_process_larger_than_pool(self, mode):
        trace = make_trace(list(range(12)) * 50, name="big")
        result = MultiprogSimulator(
            [("big", trace)], total_frames=4, mode=mode
        ).run()
        stats = result.processes[0]
        assert stats.references == 600
        assert stats.finish_time is not None
        assert stats.faults >= 12  # at least one cold fault per page


class TestPoissonArrivals:
    def test_deterministic_and_sorted(self):
        p = profile(CYCLIC8)
        a = poisson_arrivals([p], load=1.0, horizon=50_000, seed=9)
        assert a == poisson_arrivals([p], load=1.0, horizon=50_000, seed=9)
        assert all(a[i][0] <= a[i + 1][0] for i in range(len(a) - 1))
        assert all(t <= 50_000 for t, _ in a)

    def test_load_scales_volume(self):
        p = profile(CYCLIC8)
        light = poisson_arrivals([p], load=0.5, horizon=100_000, seed=9)
        heavy = poisson_arrivals([p], load=4.0, horizon=100_000, seed=9)
        assert len(heavy) > 2 * len(light)

    def test_empty_and_bad_args(self):
        p = profile(CYCLIC8)
        assert poisson_arrivals([], load=1.0, horizon=1000) == []
        for load in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                poisson_arrivals([p], load=load, horizon=1000)
        with pytest.raises(ValueError):
            poisson_arrivals([p], load=1.0, horizon=0)
