"""Tests for LOCK/UNLOCK handling in the multiprogramming simulator."""

import pytest

from repro.directives.model import AllocateRequest
from repro.experiments.runner import artifacts_for
from repro.tracegen.events import DirectiveEvent, DirectiveKind
from repro.vm.multiprog import MultiprogSimulator
from repro.vm.policies import CDPolicy
from repro.vm.simulator import simulate
from repro.workloads import workload_names

from .conftest import make_trace


def alloc(position, *pairs, site=0):
    return DirectiveEvent(
        position=position,
        kind=DirectiveKind.ALLOCATE,
        site=site,
        requests=tuple(AllocateRequest(pi, x) for pi, x in pairs),
    )


def lock(position, pages, pj=2, site=5):
    return DirectiveEvent(
        position=position,
        kind=DirectiveKind.LOCK,
        site=site,
        lock_pages=tuple(pages),
        priority_index=pj,
    )


def unlock(position, pages, site=5):
    return DirectiveEvent(
        position=position,
        kind=DirectiveKind.UNLOCK,
        site=site,
        lock_pages=tuple(pages),
    )


class TestLocksInMultiprogramming:
    def test_pinned_page_survives_target_shedding(self):
        # Target 1 with page 9 pinned: churning other pages never evicts
        # 9, so its re-reference hits.
        trace = make_trace(
            [9, 0, 1, 2, 9],
            directives=[alloc(0, (2, 1)), lock(1, [9])],
        )
        sim = MultiprogSimulator([("A", trace)], total_frames=8, mode="cd")
        result = sim.run()
        assert result.processes[0].faults == 4  # 9, 0, 1, 2 cold only

    def test_without_lock_the_page_refaults(self):
        trace = make_trace(
            [9, 0, 1, 2, 9],
            directives=[alloc(0, (2, 1))],
        )
        sim = MultiprogSimulator([("A", trace)], total_frames=8, mode="cd")
        result = sim.run()
        assert result.processes[0].faults == 5

    def test_unlock_releases_pin(self):
        trace = make_trace(
            [9, 0, 1, 9],
            directives=[alloc(0, (2, 1)), lock(1, [9]), unlock(2, [9])],
        )
        sim = MultiprogSimulator([("A", trace)], total_frames=8, mode="cd")
        result = sim.run()
        # After UNLOCK the target (1) sheds 9: the final 9 refaults.
        assert result.processes[0].faults == 4

    def test_relock_moves_pin(self):
        trace = make_trace(
            [9, 0, 8, 0, 9],
            directives=[
                alloc(0, (2, 1)),
                lock(1, [9], site=5),
                lock(3, [8], site=5),  # supersedes the pin on 9
            ],
        )
        sim = MultiprogSimulator([("A", trace)], total_frames=8, mode="cd")
        result = sim.run()
        assert result.processes[0].faults == 5  # 9 lost its pin, refaults

    def test_demand_includes_pinned_pages(self):
        trace = make_trace(
            [9, 0, 0, 0],
            directives=[alloc(0, (2, 1)), lock(1, [9])],
        )
        sim = MultiprogSimulator([("A", trace)], total_frames=8, mode="cd")
        process = sim.processes[0]
        # Mid-run state: target 1 with page 9 resident and pinned.
        process.target = 1
        process.resident[9] = None
        process.locked_site_of[9] = 5
        assert process.demand() == 2  # target + the pinned resident page

    def test_steal_skips_pinned_pages(self):
        # HOG pins its whole resident set; the needy process's claims
        # must not steal pinned frames (load control handles it instead).
        hog = make_trace(
            [0, 1, 2] * 50,
            directives=[alloc(0, (2, 3)), lock(1, [0, 1, 2], pj=2)],
            name="HOG",
        )
        needy = make_trace([10, 11] * 50, directives=[alloc(0, (2, 2))], name="N")
        sim = MultiprogSimulator(
            [("HOG", hog), ("N", needy)], total_frames=5, mode="cd"
        )
        result = sim.run()
        assert all(p.finish_time is not None for p in result.processes)

    def test_swap_out_drops_pins(self):
        trace = make_trace(
            [9, 0],
            directives=[alloc(0, (2, 1)), lock(1, [9])],
        )
        sim = MultiprogSimulator([("A", trace)], total_frames=8, mode="cd")
        sim.run()
        process = sim.processes[0]
        sim._swap_out(process)
        assert process.locked_site_of == {}
        assert process.resident_size == 0

    def test_shrinking_allocate_keeps_pins(self):
        # Target 3 holds {9, 0, 1} with 9 pinned; the grant of 1 sheds
        # the unlocked pages only, so 9's re-reference hits.
        trace = make_trace(
            [9, 0, 1, 2, 9],
            directives=[alloc(0, (2, 3)), lock(1, [9]), alloc(3, (2, 1))],
        )
        sim = MultiprogSimulator([("A", trace)], total_frames=8, mode="cd")
        result = sim.run()
        assert result.processes[0].faults == 4  # 9, 0, 1, 2 cold only
        assert result.processes[0].mem_integral == 1 + 2 + 3 + 2 + 2

    def test_unlock_sheds_to_target(self):
        # Pinned 9 rides above target 1 until the UNLOCK, which sheds it
        # (the LRU unlocked page) right away, not at the next fault.
        trace = make_trace(
            [9, 0, 0, 0],
            directives=[alloc(0, (2, 1)), lock(1, [9]), unlock(3, [9])],
        )
        sim = MultiprogSimulator([("A", trace)], total_frames=8, mode="cd")
        result = sim.run()
        assert result.processes[0].mem_integral == 1 + 2 + 2 + 1


def _ample_frames(trace) -> int:
    """Frames that grant every request and never force an eviction."""
    requests = [
        r.pages
        for d in trace.directives
        if d.kind is DirectiveKind.ALLOCATE
        for r in d.requests
    ]
    return max([trace.distinct_pages, *requests]) + 1


@pytest.mark.parametrize("with_locks", [False, True], ids=["bare", "locks"])
@pytest.mark.parametrize("name", workload_names())
def test_single_process_mix_matches_cd_policy(name, with_locks):
    """One process with ample frames is uniprogrammed CD: the fixed mix
    must fault and occupy memory exactly as ``CDPolicy`` does, pins
    riding above the target and UNLOCK shedding included."""
    trace = artifacts_for(name, with_locks=with_locks).trace
    reference = simulate(trace, CDPolicy())
    result = MultiprogSimulator(
        [(name, trace)], total_frames=_ample_frames(trace), mode="cd"
    ).run()
    process = result.processes[0]
    assert process.faults == reference.page_faults
    assert process.mem_average == reference.mem_average
