"""Hypothesis property tests for the WS minimum space-time search.

Both tiers run one branch-and-bound search over the weighted
working-set kernel; it must return exactly what the plain rule returns
when every window is a point query (``ws_min_by_point_queries``) — on
random page strings and on periodic strings collapsed through
``detect_runs`` and ``Surrogate``, for the default grid and for
unsorted, descending, repeating, oversized and single-window lists.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.symbolic import Surrogate, SymbolicWS, detect_runs
from repro.oracle.harness import ws_min_by_point_queries
from repro.vm.analyzers import WSSweep

random_pages = st.lists(st.integers(min_value=0, max_value=7), max_size=120)


@st.composite
def periodic_pages(draw):
    """(pages, runs): a random head, a block repeated 4–30 times, a
    random tail — and the verified runs the collapse keeps."""
    head = draw(st.lists(st.integers(0, 7), max_size=15))
    body = draw(st.lists(st.integers(0, 7), min_size=1, max_size=6))
    repeats = draw(st.integers(min_value=4, max_value=30))
    tail = draw(st.lists(st.integers(0, 7), max_size=15))
    pages = np.array(head + body * repeats + tail, dtype=np.int32)
    return pages, detect_runs(pages, [(0, len(pages), [len(body)])])


#: (pages, runs): a random string (nothing collapses) or a periodic one
strings = st.one_of(
    random_pages.map(lambda pages: (np.asarray(pages, dtype=np.int32), [])),
    periodic_pages(),
)


def _window_lists(n, draw):
    """Candidate lists the search must handle like the plain rule."""
    window = st.integers(min_value=1, max_value=n + 6)
    listed = draw(st.lists(window, min_size=1, max_size=10))
    return [
        None,  # the default grid
        listed,  # unsorted, possibly repeating
        sorted(set(listed), reverse=True),  # descending
        listed + listed[:3],  # repeats a window
        [n + 1, n + 4, n + 2],  # all beyond n: they tie, the first wins
        [draw(window)],  # a single window
    ]


def _fields(result):
    return (
        result.parameter,
        result.page_faults,
        result.mem_average,
        result.space_time,
    )


def _assert_search_matches_point_queries(analyzer, n, draw):
    for taus in _window_lists(n, draw):
        grid = analyzer.default_taus() if taus is None else taus
        got = analyzer.min_space_time(taus)
        assert _fields(got) == _fields(ws_min_by_point_queries(analyzer, grid))


@given(case=strings, data=st.data())
@settings(max_examples=60, deadline=None)
def test_trace_search_equals_point_queries(case, data):
    pages, _ = case
    _assert_search_matches_point_queries(WSSweep(pages), len(pages), data.draw)


@given(case=strings, data=st.data())
@settings(max_examples=60, deadline=None)
def test_static_search_equals_point_queries(case, data):
    pages, runs = case
    static = SymbolicWS(Surrogate(pages, runs))
    _assert_search_matches_point_queries(static, len(pages), data.draw)


@given(case=strings)
@settings(max_examples=60, deadline=None)
def test_static_point_queries_equal_trace(case):
    pages, runs = case
    exact = WSSweep(pages)
    static = SymbolicWS(Surrogate(pages, runs))
    for tau in range(1, len(pages) + 3):
        assert static.faults(tau) == exact.faults(tau)
        assert static.mem(tau) == exact.mem(tau)
        assert static.space_time(tau) == exact.space_time(tau)


def test_empty_and_single_page_strings():
    for pages in ([], [3], [3] * 9):
        pages = np.asarray(pages, dtype=np.int32)
        n = len(pages)
        for analyzer in (WSSweep(pages), SymbolicWS(Surrogate(pages, []))):
            for taus in (None, [n + 2, 1], [1]):
                grid = analyzer.default_taus() if taus is None else taus
                got = analyzer.min_space_time(taus)
                want = ws_min_by_point_queries(analyzer, grid)
                assert _fields(got) == _fields(want)
