"""Instrumentation of the simulators and policies.

The central contracts: the event stream *is* the run — fault events
equal the PF count, space-time is exactly reconstructible from the
samples, lock pins balance — and turning tracing on never changes the
metrics the untraced replay produces.
"""

import numpy as np
import pytest

from repro.directives.model import AllocateRequest as AllocReq
from repro.tracegen.events import DirectiveEvent, DirectiveKind, ReferenceTrace
from repro.vm.multiprog import MultiprogSimulator
from repro.vm.policies import (
    CDConfig,
    CDPolicy,
    LRUPolicy,
    PFFPolicy,
    WorkingSetPolicy,
)
from repro.vm.policies.cd_adaptive import AdaptiveCDPolicy
from repro.vm.simulator import simulate
from repro.obs import (
    AllocateGrant,
    Evict,
    Fault,
    ForcedRelease,
    LevelChange,
    Lock,
    Resume,
    RingBufferSink,
    Suspend,
    Tracer,
    Unlock,
)
from repro.obs.events import ResidentSample


def make_trace(pages, directives=None, name="TEST"):
    pages = np.asarray(pages, dtype=np.int32)
    total = int(pages.max()) + 1 if len(pages) else 1
    return ReferenceTrace(
        program_name=name,
        pages=pages,
        total_pages=total,
        directives=list(directives or []),
    )


def alloc(position, *pairs, site=0):
    return DirectiveEvent(
        position=position,
        kind=DirectiveKind.ALLOCATE,
        site=site,
        requests=tuple(AllocReq(pi, x) for pi, x in pairs),
    )


def lock(position, pages, site=0, pj=2):
    return DirectiveEvent(
        position=position,
        kind=DirectiveKind.LOCK,
        site=site,
        lock_pages=tuple(pages),
        priority_index=pj,
    )


def unlock(position, pages, site=0):
    return DirectiveEvent(
        position=position,
        kind=DirectiveKind.UNLOCK,
        site=site,
        lock_pages=tuple(pages),
    )


def traced(trace, policy, **kwargs):
    ring = RingBufferSink()
    result = simulate(trace, policy, tracer=Tracer(ring), **kwargs)
    return result, ring.events


def by_type(events, cls):
    return [e for e in events if isinstance(e, cls)]


class TestSimulatorTracing:
    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda: LRUPolicy(frames=3),
            lambda: WorkingSetPolicy(tau=5),
            lambda: PFFPolicy(threshold=4),
            lambda: CDPolicy(CDConfig()),
        ],
        ids=["lru", "ws", "pff", "cd"],
    )
    def test_fault_conservation_and_identical_metrics(self, make_policy):
        pages = ([0, 1, 2, 3] * 6 + [7, 8] * 9) * 3
        trace = make_trace(pages, [alloc(0, (1, 3))])
        baseline = simulate(trace, make_policy())
        result, events = traced(trace, make_policy())
        assert (
            result.page_faults,
            result.mem_average,
            result.space_time,
        ) == (
            baseline.page_faults,
            baseline.mem_average,
            baseline.space_time,
        )
        faults = by_type(events, Fault)
        assert len(faults) == result.page_faults

    def test_st_reconstruction_identity(self):
        trace = make_trace([0, 1, 2, 3, 0, 4] * 15, [alloc(0, (1, 2))])
        result, events = traced(trace, CDPolicy(CDConfig()))
        samples = sum(e.resident for e in by_type(events, ResidentSample))
        fault_part = result.fault_service * sum(
            e.resident for e in by_type(events, Fault)
        )
        assert samples + fault_part == result.space_time

    def test_sample_interval_spacing(self):
        trace = make_trace([0, 1] * 50)
        _, events = traced(trace, LRUPolicy(frames=2), sample_interval=10)
        samples = by_type(events, ResidentSample)
        assert [s.time for s in samples] == list(range(0, 100, 10))

    def test_sample_interval_validated(self):
        trace = make_trace([0, 1])
        with pytest.raises(ValueError):
            simulate(trace, LRUPolicy(frames=2), tracer=Tracer(), sample_interval=0)

    def test_tracer_uninstalled_after_run(self):
        policy = LRUPolicy(frames=2)
        result, _ = traced(make_trace([0, 1, 2]), policy)
        assert result.page_faults == 3
        assert policy.tracer is None

    def test_untraced_policy_has_no_tracer(self):
        assert LRUPolicy(frames=2).tracer is None


class TestEvictEvents:
    def test_lru_capacity_evictions(self):
        trace = make_trace([0, 1, 2, 0, 1, 2])
        _, events = traced(trace, LRUPolicy(frames=2))
        evictions = by_type(events, Evict)
        assert evictions and all(e.reason == "capacity" for e in evictions)
        # every eviction names a page that previously faulted in
        faulted = {e.page for e in by_type(events, Fault)}
        assert {e.page for e in evictions} <= faulted

    def test_ws_window_expiry(self):
        trace = make_trace([0, 1, 2, 3, 4, 5])
        _, events = traced(trace, WorkingSetPolicy(tau=2))
        assert [e.reason for e in by_type(events, Evict)] == ["window"] * 4

    def test_pff_shrink(self):
        # Fault slowly over disjoint pages with a tiny threshold: each
        # fault sweeps the previously-resident, unused pages out.
        trace = make_trace([0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3])
        _, events = traced(trace, PFFPolicy(threshold=2))
        evictions = by_type(events, Evict)
        assert [e.page for e in evictions] == [0, 1]
        assert all(e.reason == "pff-shrink" for e in evictions)

    def test_cd_shrink_on_target_drop(self):
        directives = [alloc(0, (2, 4)), alloc(8, (1, 1), site=1)]
        trace = make_trace([0, 1, 2, 3] * 2 + [0] * 8, directives)
        _, events = traced(trace, CDPolicy(CDConfig()))
        shrinks = [e for e in by_type(events, Evict) if e.reason == "shrink"]
        # Target 4 -> 1 sheds three residents at the grant; page 0 then
        # faults back in and displaces the one survivor: four in all.
        assert len(shrinks) == 4


class TestDirectiveEvents:
    def test_grant_stream_matches_targets(self):
        directives = [alloc(0, (2, 4), site=0), alloc(6, (1, 2), site=1)]
        trace = make_trace([0, 1, 2, 3, 0, 1, 4, 5] * 4, directives)
        _, events = traced(trace, CDPolicy(CDConfig()))
        grants = by_type(events, AllocateGrant)
        assert [(g.site, g.pages, g.target) for g in grants] == [
            (0, 4, 4),
            (1, 2, 2),
        ]

    def test_lock_ledger_balances(self):
        directives = [
            lock(0, (0, 1), site=0),
            lock(4, (2,), site=1),
            unlock(8, (0, 1), site=0),
            unlock(12, (2,), site=1),
        ]
        trace = make_trace([0, 1, 2, 3] * 4, directives)
        _, events = traced(trace, CDPolicy(CDConfig()))
        pinned = sum(len(e.pages) for e in by_type(events, Lock))
        unpinned = sum(len(e.pages) for e in by_type(events, Unlock))
        assert pinned == unpinned == 3
        assert not by_type(events, ForcedRelease)

    def test_superseded_lock_emits_forced_release(self):
        # The same site re-locks different pages: the first pin must be
        # released as "superseded" so the ledger still balances.
        directives = [
            lock(0, (0,), site=0),
            lock(4, (1,), site=0),
            unlock(8, (1,), site=0),
        ]
        trace = make_trace([0, 1] * 5, directives)
        _, events = traced(trace, CDPolicy(CDConfig()))
        forced = by_type(events, ForcedRelease)
        assert [(e.pages, e.reason) for e in forced] == [((0,), "superseded")]
        pinned = sum(len(e.pages) for e in by_type(events, Lock))
        released = sum(len(e.pages) for e in by_type(events, Unlock)) + sum(
            len(e.pages) for e in forced
        )
        assert pinned == released

    def test_trailing_unlock_is_traced(self):
        # UNLOCK after the last reference still reaches the tracer.
        directives = [lock(0, (0,), site=0), unlock(4, (0,), site=0)]
        trace = make_trace([0, 1, 0, 1], directives)
        _, events = traced(trace, CDPolicy(CDConfig()))
        assert len(by_type(events, Unlock)) == 1


class TestAdaptiveTracing:
    def test_level_changes_emitted(self):
        # Site 0 re-executes with a too-small grant: faulting every
        # reference forces a raise, which the event stream records.
        directives = [alloc(i * 60, (2, 6), (1, 1), site=0) for i in range(6)]
        trace = make_trace(list(range(6)) * 60, directives)
        policy = AdaptiveCDPolicy(raise_threshold=50, min_evidence=10)
        _, events = traced(trace, policy)
        changes = by_type(events, LevelChange)
        assert policy.level_raises + policy.level_drops == len(changes)
        assert changes and changes[0].new_level == changes[0].old_level + 1


class TestMultiprogTracing:
    def _workloads(self):
        a = make_trace(list(range(6)) * 40, [alloc(0, (1, 2))], name="A")
        b = make_trace([10, 11] * 100, [alloc(0, (1, 2))], name="B")
        return [("A", a), ("B", b)]

    def test_faults_attributed_per_process(self):
        ring = RingBufferSink()
        sim = MultiprogSimulator(
            self._workloads(), total_frames=6, mode="cd", tracer=Tracer(ring)
        )
        result = sim.run()
        faults = by_type(ring.events, Fault)
        per_proc = {p.name: p.faults for p in result.processes}
        for name, expected in per_proc.items():
            assert sum(1 for f in faults if f.proc == name) == expected
        assert all(f.proc for f in faults)

    def test_suspend_resume_pairing(self):
        # A thrashing partner under a tight pool forces swap activity.
        thrash = make_trace(list(range(12)) * 30, [alloc(0, (1, 6))], name="T")
        cozy = make_trace([20, 21] * 200, [alloc(0, (1, 2))], name="C")
        ring = RingBufferSink()
        sim = MultiprogSimulator(
            [("T", thrash), ("C", cozy)],
            total_frames=5,
            mode="cd",
            tracer=Tracer(ring),
        )
        result = sim.run()
        suspends = by_type(ring.events, Suspend)
        assert len(suspends) == result.swaps
        if suspends:
            resumes = by_type(ring.events, Resume)
            assert resumes, "swapped processes must come back"

    def test_aggregate_resident_samples(self):
        ring = RingBufferSink()
        sim = MultiprogSimulator(
            self._workloads(),
            total_frames=6,
            mode="cd",
            tracer=Tracer(ring),
            sample_interval=100,
        )
        sim.run()
        samples = by_type(ring.events, ResidentSample)
        assert samples
        assert all(s.resident <= 6 for s in samples)

    def test_sample_interval_validated(self):
        with pytest.raises(ValueError):
            MultiprogSimulator(
                self._workloads(), total_frames=6, sample_interval=0
            )
