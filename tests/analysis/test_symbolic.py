"""Unit tests for the weighted locality analyzers the static tier runs.

Synthetic page strings pin the run detector and the collapse algebra;
catalog workloads pin the structure walk against the closed-form fast
path over the exact trace; a deliberately non-affine nest pins the
CD301 fallback path (literal references, coverage report).
"""

import numpy as np
import pytest

from repro.analysis.staticloc import generate_static_string, static_artifacts_for
from repro.analysis.symbolic import (
    Run,
    Surrogate,
    SymbolicLRU,
    SymbolicWS,
    detect_runs,
    simulate_cd_symbolic,
)
from repro.experiments.runner import artifacts_for
from repro.frontend.parser import parse_source
from repro.tracegen.events import ReferenceTrace
from repro.tracegen.interpreter import generate_trace
from repro.vm.analyzers import LRUSweep, WSSweep
from repro.vm.fastsim import simulate_cd_fast
from repro.vm.policies import CDConfig, CDPolicy
from repro.vm.simulator import simulate


def _trace_of(pages):
    return ReferenceTrace(
        program_name="SYN",
        pages=np.asarray(pages, dtype=np.int32),
        total_pages=int(max(pages)) + 1,
    )


class TestDetectRuns:
    def test_finds_verified_periodic_run(self):
        pages = np.array([7, 8, 9] * 10, dtype=np.int32)
        runs = detect_runs(pages, [(0, len(pages), [3])])
        assert runs == [Run(0, 3, 10)]

    def test_wrong_hint_finds_nothing(self):
        pages = np.arange(30, dtype=np.int32)  # aperiodic
        assert detect_runs(pages, [(0, 30, [3])]) == []

    def test_runs_never_straddle_boundaries(self):
        pages = np.array([1, 2] * 12, dtype=np.int32)
        runs = detect_runs(pages, [(0, 24, [2])], boundaries=[10])
        assert runs  # both halves long enough to collapse
        for r in runs:
            assert not (r.start < 10 < r.start + r.block * r.repeats)

    def test_partial_trailing_period_is_excluded(self):
        pages = np.array([1, 2, 3] * 5 + [1], dtype=np.int32)
        runs = detect_runs(pages, [(0, 16, [3])])
        assert runs == [Run(0, 3, 5)]

    def test_smaller_period_wins_and_claims_positions(self):
        pages = np.array([4] * 12, dtype=np.int32)
        runs = detect_runs(pages, [(0, 12, [1, 2])])
        assert runs == [Run(0, 1, 12)]


class TestSurrogateAlgebra:
    def _pages(self):
        rng = np.random.default_rng(7)
        head = rng.integers(0, 6, size=17)
        body = np.tile(rng.integers(0, 6, size=4), 25)
        tail = rng.integers(0, 6, size=13)
        return np.concatenate([head, body, tail]).astype(np.int32)

    def _runtrace_like(self):
        pages = self._pages()
        runs = detect_runs(pages, [(0, len(pages), [4])])
        assert runs, "the synthetic string must contain a collapsible run"
        return pages, runs

    def test_weights_conserve_references(self):
        pages, runs = self._runtrace_like()
        s = Surrogate(pages, runs)
        assert s.verify_weights()
        assert len(s.kept_pos) < len(pages)

    def test_weighted_lru_equals_exact_sweep(self):
        pages, runs = self._runtrace_like()
        s = Surrogate(pages, runs)
        exact = LRUSweep(_trace_of(pages))
        sym = SymbolicLRU(s, program="SYN")
        for frames in range(1, max(exact.max_useful_frames, 1) + 2):
            assert sym.faults(frames) == exact.faults(frames)
            assert sym.mem(frames) == exact.mem(frames)
            assert sym.space_time(frames) == exact.space_time(frames)
        a, b = sym.min_space_time(), exact.min_space_time()
        assert (a.parameter, a.space_time) == (b.parameter, b.space_time)
        assert sym.knee_frames() == exact.knee_frames()

    def test_weighted_ws_equals_exact_sweep(self):
        pages, runs = self._runtrace_like()
        s = Surrogate(pages, runs)
        exact = WSSweep(_trace_of(pages))
        sym = SymbolicWS(s, program="SYN")
        n = len(pages)
        for tau in sorted({1, 2, 3, 5, 11, n // 2, n, n + 4}):
            assert sym.faults(tau) == exact.faults(tau)
            assert sym.mem(tau) == exact.mem(tau)
            assert sym.space_time(tau) == exact.space_time(tau)
        a, b = sym.min_space_time(), exact.min_space_time()
        assert (a.parameter, a.space_time) == (b.parameter, b.space_time)

    def test_min_space_time_best_first_in_descending_list(self):
        # τ=40 wins at index 0 and the refine range [40 // 2, 5] is
        # empty: the grid optimum stands (it used to raise ValueError)
        pages = np.array([0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 3, 4, 0, 1] * 20)
        sym = SymbolicWS(Surrogate(pages, []))
        assert sym.space_time(40) < min(sym.space_time(5), sym.space_time(1))
        assert sym.min_space_time([40, 5, 1]) == sym.result(40)


class TestSymbolicCD:
    def test_walk_matches_fastsim_on_workload(self):
        art = static_artifacts_for("FIELD")
        exact = artifacts_for("FIELD").trace
        for config in (CDConfig(), CDConfig(pi_cap=1), CDConfig(pi_cap=2)):
            sym = simulate_cd_symbolic(
                art.runtrace, config, surrogate=art.surrogate
            )
            fast = simulate_cd_fast(exact, config)
            assert sym.page_faults == fast.page_faults
            assert sym.mem_average == fast.mem_average
            assert sym.space_time == fast.space_time

    def test_ceilings_walked_and_locks_replayed_on_the_expanded_string(self):
        art = static_artifacts_for("INIT")
        exact = artifacts_for("INIT").trace
        for config in (CDConfig(memory_limit=4), CDConfig(pi_cap=2, memory_limit=4)):
            sym = simulate_cd_symbolic(art.runtrace, config, surrogate=art.surrogate)
            assert sym == simulate(exact, CDPolicy(config))
        locked = static_artifacts_for("TQL", with_locks=True)
        with pytest.raises(ValueError):
            simulate_cd_symbolic(
                locked.runtrace, CDConfig(), surrogate=locked.surrogate
            )
        # ...but the artifact-level entry point replays the expanded string
        config = CDConfig(pi_cap=2, memory_limit=4)
        want = simulate(artifacts_for("TQL", with_locks=True).trace, CDPolicy(config))
        assert locked.cd_result(config) == want


_NONAFFINE = """\
      PROGRAM TWISTY
      DIMENSION A(64), B(64)
      DO 10 I = 1, 8
         A(I*I) = B(I*I) + 1.0
10    CONTINUE
      END
"""


class TestNonAffineFallback:
    def test_fallback_trace_is_exact_and_flagged(self):
        program = parse_source(_NONAFFINE)
        string = generate_static_string(program)
        exact = generate_trace(program, compile_nests=False)
        pages = np.empty(string.n_references, dtype=np.int32)
        pages[string.kept_pos] = string.kept_pages
        for r in string.runs:  # every copy repeats the kept first one
            first = pages[r.start : r.start + r.block]
            pages[r.start : r.end] = np.tile(first, r.repeats)
        np.testing.assert_array_equal(pages, exact.pages)
        from repro.staticcheck import lint_program

        flagged = [
            d for d in lint_program(program) if d.rule == "CD301"
        ]
        assert flagged, "the quadratic subscript must be CD301-flagged"

    def test_workload_coverage_report(self):
        # FIELD carries four CD301-flagged subscripts; INIT none.  The
        # flags are advisory: both strings stay exact either way.
        assert static_artifacts_for("FIELD").coverage()["nonaffine_sites"] == 4
        assert static_artifacts_for("INIT").coverage()["nonaffine_sites"] == 0

