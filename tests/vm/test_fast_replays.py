"""Fault-to-fault PFF, OPT and FIFO replays against their event-driven
policies.

:func:`simulate_pff_fast`, :func:`simulate_opt_fast` and
:func:`simulate_fifo_fast` must equal ``simulate(trace, PFFPolicy(T))``,
``simulate(trace, OPTPolicy(m))`` and ``simulate(trace, FIFOPolicy(m))``
in faults, MEM and ST on every string: random ones (uniform and with
phase locality, long enough to leave the scalar look-ahead), the empty
string, one page, all-distinct pages, T=1, T past the string's length,
and frames at or above the distinct-page count — and on the catalog
traces at every PFF threshold and OPT frame count the policy zoo tries,
and at the zoo's LRU, FIFO and WS parameters.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import ablations
from repro.vm.analyzers import next_occurrences, previous_occurrences
from repro.experiments.runner import WorkloadArtifacts
from repro.vm.fastsim import simulate_fifo_fast, simulate_opt_fast, simulate_pff_fast
from repro.vm.policies import (
    FIFOPolicy,
    LRUPolicy,
    OPTPolicy,
    PFFPolicy,
    WorkingSetPolicy,
)
from repro.vm.simulator import simulate
from repro.vm.stream import stream_simulate
from repro.workloads import workload_names

from .conftest import make_trace


def _fields(result):
    return (
        result.policy,
        result.parameter,
        result.page_faults,
        result.references,
        result.mem_average,
        result.space_time,
    )


def _check_pff(pages, threshold):
    trace = make_trace(pages)
    fast = simulate_pff_fast(trace, threshold)
    assert _fields(fast) == _fields(simulate(trace, PFFPolicy(threshold=threshold)))
    shared = simulate_pff_fast(trace, threshold, prev=previous_occurrences(trace))
    assert _fields(shared) == _fields(fast)


def _check_opt(pages, frames):
    trace = make_trace(pages)
    fast = simulate_opt_fast(trace, frames)
    assert _fields(fast) == _fields(simulate(trace, OPTPolicy(frames=frames)))


def _check_fifo(pages, frames):
    trace = make_trace(pages)
    fast = simulate_fifo_fast(trace, frames)
    assert _fields(fast) == _fields(simulate(trace, FIFOPolicy(frames=frames)))


@st.composite
def strings(draw):
    """Uniform strings, or phases of locality that leave long hit runs."""
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, 12), max_size=300))
    pages = []
    for _ in range(draw(st.integers(0, 6))):
        base = draw(st.integers(0, 12))  # phases overlap and revisit pages
        span = draw(st.integers(1, 5))
        run = draw(st.integers(1, 400))
        seed = draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        pages.extend((base + rng.integers(0, span, size=run)).tolist())
    return pages


@settings(max_examples=150, deadline=None)
@given(strings(), st.sampled_from([1, 2, 3, 5, 17, 100, 5000]))
def test_pff_fast_matches_policy(pages, threshold):
    _check_pff(pages, threshold)


@settings(max_examples=150, deadline=None)
@given(strings(), st.sampled_from([1, 2, 3, 4, 7, 30, 100]))
def test_opt_fast_matches_policy(pages, frames):
    _check_opt(pages, frames)


@settings(max_examples=150, deadline=None)
@given(strings(), st.sampled_from([1, 2, 3, 4, 7, 30, 100]))
def test_fifo_fast_matches_policy(pages, frames):
    _check_fifo(pages, frames)


EDGE_STRINGS = {
    "empty": [],
    "one-page": [7],
    "one-page-repeated": [7] * 50,
    "all-distinct": list(range(120)),
    "cyclic": list(range(9)) * 30,
}


@pytest.mark.parametrize("name", sorted(EDGE_STRINGS))
@pytest.mark.parametrize("threshold", [1, 2, 10**6])
def test_pff_edge_strings(name, threshold):
    _check_pff(EDGE_STRINGS[name], threshold)


@pytest.mark.parametrize("name", sorted(EDGE_STRINGS))
@pytest.mark.parametrize("frames", [1, 2, 9, 500])
def test_opt_edge_strings(name, frames):
    _check_opt(EDGE_STRINGS[name], frames)


@pytest.mark.parametrize("name", sorted(EDGE_STRINGS))
@pytest.mark.parametrize("frames", [1, 2, 9, 500])
def test_fifo_edge_strings(name, frames):
    _check_fifo(EDGE_STRINGS[name], frames)


def test_pff_shrink_after_long_hit_run():
    # Pages 0 and 1 come back after a 100-reference run of page 3: the
    # shrink at page 4 keeps {3, 0, 1, 4}, counted past the look-ahead.
    pages = [0, 1, 2] + [3] * 100 + [0, 1, 4, 2, 0]
    _check_pff(pages, threshold=5)


def test_pff_threshold_past_length_only_cold_faults():
    pages = [0, 1, 0, 2, 1, 3, 0]
    result = simulate_pff_fast(make_trace(pages), threshold=len(pages) + 1)
    assert result.page_faults == len(set(pages))


def test_opt_ample_frames_only_cold_faults():
    pages = [3, 1, 3, 2, 1, 3, 0, 2]
    result = simulate_opt_fast(make_trace(pages), frames=len(set(pages)))
    assert result.page_faults == len(set(pages))


def test_parameters_validated():
    trace = make_trace([0, 1])
    with pytest.raises(ValueError):
        simulate_pff_fast(trace, 0)
    with pytest.raises(ValueError):
        simulate_opt_fast(trace, 0)
    with pytest.raises(ValueError):
        simulate_fifo_fast(trace, 0)


def test_next_occurrences():
    pages = [1, 2, 1, 1, 3, 2]
    assert next_occurrences(pages).tolist() == [2, 5, 3, 6, 6, 6]
    assert previous_occurrences(pages).tolist() == [-1, -1, 0, 2, -1, 1]
    assert next_occurrences([]).tolist() == []


@pytest.mark.parametrize("name", workload_names())
def test_zoo_replays_match_policies(name, monkeypatch):
    """Each catalog row of the policy zoo: every threshold the PFF
    search tries, OPT at CD's frames, and the LRU, FIFO and WS columns
    equal the event-driven policies (the long traces drive the widening
    windows and hit runs)."""
    tried = {"PFF": [], "OPT": [], "columns": []}
    references = {"LRU": LRUPolicy, "FIFO": FIFOPolicy, "WS": WorkingSetPolicy}

    def checked_pff(trace, threshold, prev=None):
        fast = simulate_pff_fast(trace, threshold, prev=prev)
        slow = simulate(trace, PFFPolicy(threshold=threshold))
        assert _fields(fast) == _fields(slow), threshold
        tried["PFF"].append(threshold)
        return fast

    def checked_opt(trace, frames):
        fast = simulate_opt_fast(trace, frames)
        assert _fields(fast) == _fields(simulate(trace, OPTPolicy(frames=frames)))
        tried["OPT"].append(frames)
        return fast

    real_columns = WorkloadArtifacts.policy_results

    def checked_columns(artifacts, requests):
        results = real_columns(artifacts, requests)
        # without the workload's sweeps, stream_simulate builds its own
        rebuilt = stream_simulate(artifacts.trace, requests)
        for request, fast, again in zip(requests, results, rebuilt):
            slow = simulate(
                artifacts.trace, references[request.kind](request.parameter())
            )
            assert _fields(fast) == _fields(slow) == _fields(again), request.label()
            tried["columns"].append(request.kind)
        return results

    monkeypatch.setattr(ablations, "simulate_pff_fast", checked_pff)
    monkeypatch.setattr(ablations, "simulate_opt_fast", checked_opt)
    monkeypatch.setattr(WorkloadArtifacts, "policy_results", checked_columns)
    ablations.policy_zoo([name])
    assert len(tried["OPT"]) == 1
    assert 1 in tried["PFF"] and len(tried["PFF"]) >= 4
    assert tried["columns"] == ["LRU", "FIFO", "WS"]
