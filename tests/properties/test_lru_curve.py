"""Hypothesis property tests for LRU's whole curve.

``LRUSweep`` and ``SymbolicLRU`` read every allocation's faults, MEM
sum and ST from ``lru_frame_stats``; each entry must equal the point
query at that allocation — on random page strings and on periodic
strings collapsed through ``detect_runs`` and ``Surrogate``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.symbolic import Surrogate, SymbolicLRU, detect_runs
from repro.vm.analyzers import LRUSweep

random_pages = st.lists(st.integers(min_value=0, max_value=40), max_size=160)


@st.composite
def periodic_pages(draw):
    """(pages, runs): a random head, a block repeated 4–30 times, a
    random tail — and the verified runs the collapse keeps."""
    head = draw(st.lists(st.integers(0, 40), max_size=15))
    body = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8))
    repeats = draw(st.integers(min_value=4, max_value=30))
    tail = draw(st.lists(st.integers(0, 40), max_size=15))
    pages = np.array(head + body * repeats + tail, dtype=np.int32)
    return pages, detect_runs(pages, [(0, len(pages), [len(body)])])


strings = st.one_of(
    random_pages.map(lambda pages: (np.asarray(pages, dtype=np.int32), [])),
    periodic_pages(),
)


def _assert_curve_equals_point_queries(sweep, n):
    faults, mem_sums, space_times = sweep._frame_stats()
    v = max(sweep.max_useful_frames, 1)
    assert len(faults) == len(mem_sums) == len(space_times) == v
    for m in range(1, v + 1):
        assert faults[m - 1] == sweep.faults(m)
        assert (mem_sums[m - 1] / n if n else 0.0) == sweep.mem(m)
        assert space_times[m - 1] == sweep.space_time(m)


@given(case=strings)
@settings(max_examples=80, deadline=None)
def test_trace_curve_equals_point_queries(case):
    pages, _ = case
    _assert_curve_equals_point_queries(LRUSweep(pages), len(pages))


@given(case=strings)
@settings(max_examples=80, deadline=None)
def test_static_curve_equals_trace(case):
    pages, runs = case
    exact = LRUSweep(pages)
    static = SymbolicLRU(Surrogate(pages, runs))
    _assert_curve_equals_point_queries(static, len(pages))
    for got, want in zip(static._frame_stats(), exact._frame_stats()):
        assert np.array_equal(got, want)
