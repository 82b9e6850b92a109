"""Hypothesis property tests on the weighted (trace-free) analyzers.

Driven by the same fuzzer the oracle uses, at several reference caps so
truncation lands both outside and *inside* compiled nests, over the run
journal of the static string (:func:`_pair`):

* weighted LRU fault counts are monotone non-increasing in the
  allocation (the stack property survives the weighted collapse);
* the weighted WS size curve never exceeds the distinct-page count, and
  its fault counts are monotone non-increasing in τ;
* the CD structure walk's MEM (and every other field) equals the
  closed-form fast path's on the exact trace, memory ceilings included;
* the collapse itself conserves references (kept weights sum to n).
"""

from hypothesis import assume, given, settings

from repro.analysis.symbolic import (
    RunTrace,
    Surrogate,
    SymbolicLRU,
    SymbolicWS,
    simulate_cd_symbolic,
)
from repro.vm.fastsim import simulate_cd_fast
from repro.vm.policies import CDConfig

from .test_static_properties import _pair, bound_strategy, seed_strategy


@given(seed=seed_strategy, bound=bound_strategy)
@settings(max_examples=40, deadline=None)
def test_symbolic_lru_faults_monotone_in_frames(seed, bound):
    pair = _pair(seed, bound)
    assume(pair is not None)
    string, _ = pair
    lru = SymbolicLRU(string.surrogate())
    top = max(lru.max_useful_frames, 1) + 2
    faults = [lru.faults(m) for m in range(1, top + 1)]
    assert faults == sorted(faults, reverse=True)
    assert faults[-1] == faults[-2]  # beyond max useful: cold misses only


@given(seed=seed_strategy, bound=bound_strategy)
@settings(max_examples=40, deadline=None)
def test_symbolic_ws_curve_bounded_by_distinct_pages(seed, bound):
    pair = _pair(seed, bound)
    assume(pair is not None)
    string, trace = pair
    ws = SymbolicWS(string.surrogate())
    distinct = len(set(trace.pages.tolist()))
    n = len(trace.pages)
    taus = sorted({1, 2, 7, max(1, n // 2), n + 3})
    for tau in taus:
        assert ws.mem(tau) <= distinct + 1e-9
    faults = [ws.faults(tau) for tau in taus]
    assert faults == sorted(faults, reverse=True)


@given(seed=seed_strategy, bound=bound_strategy)
@settings(max_examples=40, deadline=None)
def test_symbolic_cd_mem_matches_fastsim(seed, bound):
    pair = _pair(seed, bound)
    assume(pair is not None)
    string, trace = pair
    runtrace = RunTrace(string, string.runs)
    for config in (
        CDConfig(),
        CDConfig(pi_cap=1),
        CDConfig(min_allocation=3),
        CDConfig(memory_limit=3),
        CDConfig(pi_cap=1, memory_limit=2),
    ):
        if config.honor_locks and trace.directive_table.has_locks:
            continue  # LOCK pinning replays fault to fault on the trace
        sym = simulate_cd_symbolic(runtrace, config, surrogate=string.surrogate())
        fast = simulate_cd_fast(trace, config)
        assert sym.mem_average == fast.mem_average
        assert sym.page_faults == fast.page_faults
        assert sym.space_time == fast.space_time
        assert (sym.swaps, sym.denied_requests) == (fast.swaps, fast.denied_requests)


@given(seed=seed_strategy, bound=bound_strategy)
@settings(max_examples=40, deadline=None)
def test_collapse_conserves_references(seed, bound):
    pair = _pair(seed, bound)
    assume(pair is not None)
    string, trace = pair
    surrogate = Surrogate(trace.pages, string.runs)
    assert surrogate.verify_weights()
    assert len(surrogate.kept_pos) <= len(trace.pages)
