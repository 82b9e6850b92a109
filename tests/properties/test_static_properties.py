"""Hypothesis property tests on the closed-form static engine.

Driven by the oracle's fuzzer at several reference caps, asserting the
agreement the static tier promises — static ≡ vectorized-exact — plus
its structural invariants:

* the static string's kept references and run journal reproduce the
  exact interpreter's page string element-for-element;
* the weighted analyzers over the static surrogate equal the exact
  sweeps at every sampled allocation and window;
* closed-form crossing math agrees with brute force on random
  progressions (the kernel the whole tier stands on);
* reference conservation: kept weights always sum to the string length.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.staticloc import generate_static_string
from repro.analysis.staticloc.affine import ap_crossings
from repro.analysis.symbolic import SymbolicLRU, SymbolicWS
from repro.oracle.generator import generate_case
from repro.tracegen.interpreter import generate_trace
from repro.vm.analyzers import LRUSweep, WSSweep

#: small enough to truncate mid-nest, large enough to leave runs intact
_BOUNDS = (257, 5_000, 200_000)

seed_strategy = st.integers(min_value=0, max_value=400)
bound_strategy = st.sampled_from(_BOUNDS)


def _pair(seed, bound):
    """(static string, exact trace) or None when the case raises (the
    oracle checks both tiers raise identically; properties skip)."""
    program = generate_case(seed).program
    try:
        trace = generate_trace(program, max_references=bound)
        string = generate_static_string(program, max_references=bound)
    except Exception:
        return None
    return string, trace


@given(seed=seed_strategy, bound=bound_strategy)
@settings(max_examples=40, deadline=None)
def test_static_string_reproduces_exact_pages(seed, bound):
    pair = _pair(seed, bound)
    assume(pair is not None)
    string, trace = pair
    n = len(trace.pages)
    assert string.n_references == n
    assert string.truncated == trace.truncated
    assert (string.kept_pages == trace.pages[string.kept_pos]).all()
    covered = np.zeros(n, dtype=bool)
    covered[string.kept_pos] = True
    for r in string.runs:
        end = r.start + r.block * r.repeats
        assert (
            trace.pages[r.start : end - r.block]
            == trace.pages[r.start + r.block : end]
        ).all()
        covered[r.start : end] = True
    assert covered.all()


@given(seed=seed_strategy, bound=bound_strategy)
@settings(max_examples=25, deadline=None)
def test_static_equals_exact_lru(seed, bound):
    pair = _pair(seed, bound)
    assume(pair is not None)
    string, trace = pair
    exact = LRUSweep(trace)
    static = SymbolicLRU(string.surrogate())
    for frames in (1, 2, 5, max(exact.max_useful_frames, 1)):
        assert static.faults(frames) == exact.faults(frames)


@given(seed=seed_strategy, bound=bound_strategy)
@settings(max_examples=25, deadline=None)
def test_static_equals_exact_ws(seed, bound):
    pair = _pair(seed, bound)
    assume(pair is not None)
    string, trace = pair
    exact = WSSweep(trace)
    static = SymbolicWS(string.surrogate())
    n = len(trace.pages)
    for tau in sorted({1, 3, 17, max(1, n // 2), n + 1}):
        assert static.faults(tau) == exact.faults(tau)
        assert static.mem(tau) == exact.mem(tau)


@given(seed=seed_strategy, bound=bound_strategy)
@settings(max_examples=40, deadline=None)
def test_static_collapse_conserves_references(seed, bound):
    pair = _pair(seed, bound)
    assume(pair is not None)
    string, _ = pair
    surrogate = string.surrogate()
    assert surrogate.verify_weights()
    assert int(surrogate.weights.sum()) == string.n_references


@given(
    lin0=st.integers(min_value=0, max_value=10_000),
    dlin=st.integers(min_value=-300, max_value=300),
    trips=st.integers(min_value=0, max_value=600),
    epp=st.sampled_from([1, 2, 16, 64, 256]),
)
@settings(max_examples=200, deadline=None)
def test_ap_crossings_matches_brute_force(lin0, dlin, trips, epp):
    if dlin < 0:
        lin0 -= dlin * max(trips - 1, 0)  # keep offsets non-negative
    got = ap_crossings(lin0, dlin, trips, epp)
    t = np.arange(trips, dtype=np.int64)
    page = (lin0 + dlin * t) // epp
    want = np.nonzero(page[:-1] != page[1:])[0] if trips else []
    assert got.tolist() == list(want)
