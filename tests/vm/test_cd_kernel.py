"""The closed-form CD kernel and the columnar directive path.

Random directive lists — ALLOCATEs with 1–4 requests, LOCK/UNLOCK with
0–5 pages, empty lists, a position equal to ``len(pages)``, and ALLOCATE
bursts at one position whose targets dip and then rise — must

* round-trip from events to :class:`DirectiveTable` to ``.npz`` and
  back unchanged;
* replay under the closed form (:func:`simulate_cd_fast`) and under
  the structure walk exactly as the event-driven
  ``simulate(trace, CDPolicy(config))`` does, for every PI cap and
  ``min_allocation`` floor — the clamp applying at every ALLOCATE,
  including ones with no references between them;
* replay under a memory ceiling (both kernels) and under honored LOCKs
  (the fault-to-fault replay, ceilings included) with every field of
  the result equal to the policy's: swaps, denials and forced lock
  releases too.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.symbolic import (
    Surrogate,
    detect_runs,
    simulate_cd_symbolic,
)
from repro.analysis.symbolic.runtrace import RunTrace
from repro.directives.model import AllocateRequest
from repro.tracegen.events import (
    DirectiveEvent,
    DirectiveKind,
    DirectiveTable,
    ReferenceTrace,
)
from repro.tracegen.io import load_trace, save_trace
from repro.vm.fastsim import cd_schedule, simulate_cd_fast
from repro.vm.policies import CDConfig, CDPolicy
from repro.vm.simulator import simulate

CONFIGS = [
    CDConfig(pi_cap=cap, min_allocation=floor, honor_locks=False)
    for cap in (None, 1, 2, 3)
    for floor in (1, 3, 5)
]

CEILINGS = [
    CDConfig(pi_cap=cap, memory_limit=limit, min_allocation=floor)
    for cap in (None, 1, 2)
    for limit in (1, 3, 8)
    for floor in (1, 5)
]


def _allocate(position, site, requests):
    return DirectiveEvent(
        position=position,
        kind=DirectiveKind.ALLOCATE,
        site=site,
        requests=tuple(AllocateRequest(pi, x) for pi, x in requests),
    )


@st.composite
def request_lists(draw):
    count = draw(st.integers(1, 4))
    pis = draw(st.sets(st.integers(1, 5), min_size=count, max_size=count))
    return [(pi, draw(st.integers(1, 12))) for pi in sorted(pis, reverse=True)]


@st.composite
def directive_lists(draw, n):
    """Position-ordered directive events for a string of ``n`` refs."""
    positions = sorted(draw(st.lists(st.integers(0, n), max_size=10)))
    if draw(st.booleans()):
        positions.append(n)  # fires after the last reference
    events = []
    for position in positions:
        site = draw(st.integers(0, 4))
        shape = draw(st.sampled_from(["allocate", "burst", "lock", "unlock"]))
        if shape == "allocate":
            events.append(_allocate(position, site, draw(request_lists())))
        elif shape == "burst":
            # targets dip and then rise with no reference in between
            high = draw(st.integers(4, 12))
            low = draw(st.integers(1, high - 1))
            for size in (high, low, high + draw(st.integers(0, 3))):
                events.append(_allocate(position, site, [(1, size)]))
        else:
            pages = tuple(draw(st.lists(st.integers(0, 15), max_size=5)))
            lock = shape == "lock"
            events.append(
                DirectiveEvent(
                    position=position,
                    kind=DirectiveKind.LOCK if lock else DirectiveKind.UNLOCK,
                    site=site,
                    lock_pages=pages,
                    priority_index=draw(st.integers(2, 4)) if lock else 0,
                )
            )
    return events


@st.composite
def traces(draw, periodic=False):
    if periodic:
        # stretches of a repeated block, so the detector finds runs
        pages = []
        for _ in range(draw(st.integers(1, 4))):
            block = draw(st.lists(st.integers(0, 15), min_size=1, max_size=6))
            pages += block * draw(st.integers(1, 12))
    else:
        pages = draw(st.lists(st.integers(0, 15), max_size=200))
    events = draw(directive_lists(len(pages)))
    return ReferenceTrace("KERNEL", np.asarray(pages, dtype=np.int32), 16, events)


def _fields(result):
    return (
        result.page_faults,
        result.references,
        result.mem_average,
        result.space_time,
        result.parameter,
    )


@given(trace=traces())
@settings(max_examples=60, deadline=None)
def test_directives_round_trip_through_table_and_disk(trace):
    events = trace.directives
    table = DirectiveTable.from_events(events)
    assert table == trace.directive_table
    assert DirectiveTable(table.columns()).events() == events
    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_trace(save_trace(trace, Path(tmp) / "t", compress=False))
        assert loaded.directive_table == table
        assert loaded.directives == events


@given(trace=traces())
@settings(max_examples=60, deadline=None)
def test_closed_form_equals_event_driven(trace):
    for config in CONFIGS:
        want = simulate(trace, CDPolicy(config))
        assert _fields(simulate_cd_fast(trace, config)) == _fields(want)


@given(trace=traces(periodic=True))
@settings(max_examples=60, deadline=None)
def test_structure_walk_equals_event_driven(trace):
    n = len(trace.pages)
    boundaries = trace.directive_table.position.tolist()
    runs = detect_runs(trace.pages, [(0, n, range(1, 7))], boundaries)
    runtrace = RunTrace(trace, runs)
    surrogate = Surrogate(trace.pages, runs)
    for config in CONFIGS:
        want = simulate(trace, CDPolicy(config))
        got = simulate_cd_symbolic(runtrace, config, surrogate=surrogate)
        assert _fields(got) == _fields(want)
    for config in CEILINGS:
        config = dataclasses.replace(config, honor_locks=False)
        want = simulate(trace, CDPolicy(config))
        assert simulate_cd_symbolic(runtrace, config, surrogate=surrogate) == want


@given(trace=traces())
@settings(max_examples=60, deadline=None)
def test_ceilings_and_locks_equal_event_driven(trace):
    for config in CEILINGS + [CDConfig(pi_cap=cap) for cap in (None, 1, 2)]:
        for honor in (True, False):
            config = dataclasses.replace(config, honor_locks=honor)
            assert simulate_cd_fast(trace, config) == simulate(trace, CDPolicy(config))


def test_lock_cells_replay_as_the_policy_does(lock_cell):
    trace = lock_cell[-1]
    tight = max(1, trace.distinct_pages // 8)
    for cap in (None, 2, 1):
        for limit in (None, tight):
            config = CDConfig(pi_cap=cap, memory_limit=limit)
            assert simulate_cd_fast(trace, config) == simulate(trace, CDPolicy(config))


def test_ceiling_defers_swaps_and_counts_past_the_end():
    pages = np.array([0, 1, 2, 3] * 3 + [4, 5] * 4 + [0, 1], dtype=np.int32)
    n = len(pages)
    events = [
        _allocate(0, 0, [(2, 3)]),  # 3 > 2 and PI 2: defer at the floor
        _allocate(4, 1, [(2, 6), (1, 2)]),  # 6 denied, then 2 granted
        _allocate(12, 2, [(1, 5)]),  # nothing fits at PI 1: a swap
        _allocate(n, 3, [(2, 9), (1, 4)]),  # past the last reference
    ]
    lock = DirectiveEvent(4, DirectiveKind.LOCK, 5, lock_pages=(1,), priority_index=2)
    for directives in (events, events[:1] + [lock] + events[1:]):
        trace = ReferenceTrace("CEILING", pages, 6, directives)
        config = CDConfig(memory_limit=2)
        want = simulate(trace, CDPolicy(config))
        assert (want.swaps, want.denied_requests) == (2, 5)
        assert simulate_cd_fast(trace, config) == want
        if len(directives) == len(events):
            runtrace = RunTrace(trace, [])
            assert simulate_cd_symbolic(runtrace, config) == want
    schedule = cd_schedule(trace.directive_table, config, n)
    assert schedule.targets.tolist() == [1, 1, 2, 2, 2]
    assert schedule.granted.tolist() == [-1, 2, 3, 5]


def test_burst_clamps_between_references():
    # residency saturates at 5, then one position carries 5 -> 2 -> 6:
    # the dip must evict down to 2 before the target rises again
    pages = np.array([0, 1, 2, 3, 4] * 4 + [0, 1, 2, 3, 4, 5] * 3, dtype=np.int32)
    events = [
        _allocate(0, 0, [(1, 5)]),
        _allocate(20, 1, [(1, 2)]),
        _allocate(20, 1, [(1, 6)]),
    ]
    trace = ReferenceTrace("BURST", pages, 6, events)
    config = CDConfig()
    want = simulate(trace, CDPolicy(config))
    assert _fields(simulate_cd_fast(trace, config)) == _fields(want)
    # without the dip the resident 0..4 survive the second ALLOCATE
    no_dip = ReferenceTrace("BURST", pages, 6, [events[0], events[2]])
    assert simulate_cd_fast(no_dip, config).page_faults < want.page_faults


def test_schedule_pi_cap_choice_and_floor():
    table = DirectiveTable.from_events(
        [
            _allocate(0, 0, [(3, 9), (2, 4), (1, 2)]),
            _allocate(5, 1, [(3, 7)]),
        ]
    )
    for cap, floor, targets in (
        (None, 1, [1, 9, 7]),
        (2, 1, [1, 4, 7]),  # no eligible request: the innermost one
        (1, 3, [3, 3, 7]),
    ):
        schedule = cd_schedule(table, CDConfig(pi_cap=cap, min_allocation=floor), 4)
        assert schedule.targets.tolist() == targets
        assert schedule.bounds.tolist() == [0, 0, 4, 4]  # clamped to the length
    locked = DirectiveTable.from_events(
        [DirectiveEvent(0, DirectiveKind.LOCK, 0, lock_pages=(1,), priority_index=2)]
    )
    assert cd_schedule(locked, CDConfig(), 4).targets.tolist() == [1]


def test_schedule_under_a_ceiling():
    table = DirectiveTable.from_events(
        [
            _allocate(0, 0, [(3, 9), (2, 4), (1, 2)]),
            _allocate(5, 1, [(3, 7)]),
        ]
    )
    for cap, limit, targets, granted, swaps, denials in (
        (None, 8, [1, 4, 7], [1, 3], 0, 1),
        (None, 3, [1, 2, 2], [2, -1], 0, 3),  # 7 > 3 at PI 3: deferred
        (None, 1, [1, 1, 1], [2, -1], 1, 4),  # nothing fits at PI 1: a swap
        (1, 1, [1, 1, 1], [2, -1], 1, 2),  # only the PI-1 request competes
    ):
        schedule = cd_schedule(table, CDConfig(pi_cap=cap, memory_limit=limit), 6)
        assert schedule.targets.tolist() == targets
        assert schedule.granted.tolist() == granted
        assert (schedule.swaps, schedule.denials) == (swaps, denials)
