"""Unit tests for the closed-form static locality engine.

The crossing math is checked against brute force over a dense parameter
grid (both directions, steps larger than a page, degenerate inputs);
the closed-form run structure against the trace-backed detector on the
materialized pages; the parts-built surrogate against flat
construction; and the end-to-end static string against the exact
interpreter on synthetic programs and bundled workloads.
"""

import numpy as np
import pytest

from repro.analysis.staticloc import (
    ClosedFormPages,
    StaticString,
    ap_crossings,
    generate_static_string,
)
from repro.analysis.symbolic.collapse import Surrogate, detect_runs, kept_mask
from repro.directives import instrument_program
from repro.frontend.parser import parse_source
from repro.tracegen.interpreter import generate_trace
from repro.workloads import get_workload


def assert_same_trace(got, want):
    """Pages, layout, truncation and every directive field equal."""
    assert got.truncated == want.truncated
    assert got.array_pages == want.array_pages
    np.testing.assert_array_equal(got.pages, want.pages)
    fields = ("position", "kind", "site", "requests", "lock_pages",
              "priority_index")
    assert [tuple(getattr(d, f) for f in fields) for d in got.directives] == [
        tuple(getattr(d, f) for f in fields) for d in want.directives
    ]


def brute_crossings(lin0, dlin, trips, epp):
    t = np.arange(trips, dtype=np.int64)
    page = (lin0 + dlin * t) // epp
    return np.nonzero(page[:-1] != page[1:])[0]


class TestApCrossings:
    @pytest.mark.parametrize("dlin", [-130, -65, -64, -7, -1, 1, 3, 64, 100])
    @pytest.mark.parametrize("lin0", [0, 1, 63, 64, 65, 200, 1000])
    @pytest.mark.parametrize("trips", [2, 3, 17, 64, 257])
    def test_matches_brute_force(self, lin0, dlin, trips, epp=64):
        if lin0 + dlin * (trips - 1) < 0:
            lin0 -= dlin * (trips - 1)  # keep offsets non-negative
        got = ap_crossings(lin0, dlin, trips, epp)
        want = brute_crossings(lin0, dlin, trips, epp)
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize("epp", [1, 2, 7, 64, 256])
    def test_page_size_sweep(self, epp):
        for lin0 in (0, 3, epp - 1, epp, 5 * epp + 1):
            for dlin in (-2 * epp - 1, -3, -1, 1, 2, epp, 2 * epp + 1):
                base = lin0 if dlin > 0 else lin0 - dlin * 99
                got = ap_crossings(base, dlin, 100, epp)
                assert got.tolist() == brute_crossings(base, dlin, 100, epp).tolist()

    def test_degenerate_inputs(self):
        assert len(ap_crossings(5, 0, 100, 64)) == 0  # constant progression
        assert len(ap_crossings(5, 3, 1, 64)) == 0  # single trip
        assert len(ap_crossings(5, 3, 0, 64)) == 0  # empty
        assert len(ap_crossings(0, 1, 64, 64)) == 0  # never leaves page 0

    def test_big_step_crosses_once_per_iteration(self):
        # |dlin| > epp: several boundaries per step, one mismatch each
        got = ap_crossings(0, 200, 50, 64)
        assert got.tolist() == list(range(49))


class TestClosedFormStructure:
    def check(self, cf):
        pages = cf.materialize()
        n, b = len(pages), cf.n_sites
        runs, kept, kept_pages = cf.structure()
        want_runs = detect_runs(pages, [(0, n, [b])])
        assert runs == want_runs
        want_kept = np.flatnonzero(kept_mask(n, want_runs))
        assert kept.tolist() == want_kept.tolist()
        assert kept_pages.tolist() == pages[want_kept].tolist()

    def test_single_streaming_site(self):
        self.check(ClosedFormPages([10], [0], [1], epp=64, trips=300))

    def test_multi_site_mixed_directions(self):
        self.check(
            ClosedFormPages(
                first=[0, 40, 80],
                lin0=[0, 1023, 512],
                dlin=[1, -4, 0],
                epp=64,
                trips=256,
            )
        )

    def test_invariant_sites_collapse_whole_nest(self):
        cf = ClosedFormPages([0, 7], [3, 12], [0, 0], epp=64, trips=100)
        runs, kept, _ = cf.structure()
        (run,) = runs
        assert run.block == 2 and run.start == 0 and run.repeats == 100
        # the kept set is the run's representative block copies only
        assert len(kept) < len(cf)
        assert kept.tolist() == sorted(kept.tolist())

    def test_short_nest_stays_literal(self):
        cf = ClosedFormPages([0], [0], [1], epp=64, trips=2)
        runs, kept, kept_pages = cf.structure()
        assert runs == [] and len(kept) == 2
        assert kept_pages.tolist() == cf.materialize().tolist()

    def test_mismatches_equal_shifted_comparison(self):
        cf = ClosedFormPages(
            [0, 16], [100, 4000], [3, -5], epp=64, trips=257
        )
        pages = cf.materialize()
        b = cf.n_sites
        want = np.nonzero(pages[:-b] != pages[b:])[0]
        assert cf.mismatches().tolist() == want.tolist()


class TestStaticString:
    SRC = (
        "PROGRAM TINY\n"
        "DIMENSION A(300), B(300)\n"
        "DO I = 1, 300\n"
        "  A(I) = B(301 - I)\n"
        "ENDDO\n"
        "END\n"
    )

    def cross_check(self, program, plan=None, max_references=5_000_000):
        string = generate_static_string(
            program, plan=plan, max_references=max_references
        )
        trace = generate_trace(
            program, plan=plan, max_references=max_references
        )
        n = len(trace.pages)
        assert string.n_references == n == len(string.pages)
        assert string.truncated == trace.truncated
        assert string.array_pages == trace.array_pages
        assert [(d.position, d.kind) for d in string.directives] == [
            (d.position, d.kind) for d in trace.directives
        ]
        assert (string.kept_pages == trace.pages[string.kept_pos]).all()
        # runs reconstruct everything the kept set omits
        covered = np.zeros(n, dtype=bool)
        covered[string.kept_pos] = True
        for r in string.runs:
            end = r.start + r.block * r.repeats
            body, shifted = trace.pages[r.start : end - r.block], trace.pages[
                r.start + r.block : end
            ]
            assert (body == shifted).all()
            covered[r.start : end] = True
        assert covered.all()
        assert string.surrogate().verify_weights()
        return string, trace

    def test_plain_nest_collapses(self):
        string, _ = self.cross_check(parse_source(self.SRC))
        assert string.runs and not string.fully_literal

    def test_instrumented_variants(self):
        program = parse_source(self.SRC)
        for with_locks in (False, True):
            plan = instrument_program(program, with_locks=with_locks)
            self.cross_check(program, plan=plan)

    # parent touches A before the inner nest → Algorithm 2 emits a LOCK
    LOCK_SRC = (
        "PROGRAM TINY3\n"
        "DIMENSION A(300), B(300)\n"
        "DO K = 1, 3\n"
        "  A(K) = 0.0\n"
        "  DO I = 1, 300\n"
        "    B(I) = A(K) + B(301 - I)\n"
        "  ENDDO\n"
        "ENDDO\n"
        "END\n"
    )

    def test_lock_plan_collapses_and_expands_to_the_trace(self):
        program = parse_source(self.LOCK_SRC)
        plan = instrument_program(program, with_locks=True)
        assert plan.locks_before  # the shape really produced a LOCK
        string, trace = self.cross_check(program, plan=plan)
        assert not string.fully_literal
        assert_same_trace(string.to_reference_trace(), trace)

    def test_collapsed_string_expands_to_the_trace(self):
        string, trace = self.cross_check(parse_source(self.SRC))
        assert not string.fully_literal
        assert_same_trace(string.to_reference_trace(), trace)

    def test_lock_cell_expands_to_the_interpreter_trace(self, lock_cell):
        program, plan, symbols, page_config, trace = lock_cell
        string = generate_static_string(
            program, plan=plan, symbols=symbols, page_config=page_config
        )
        assert not string.fully_literal
        assert_same_trace(string.to_reference_trace(), trace)

    def test_truncation_matches_interpreter(self):
        program = parse_source(self.SRC)
        for cap in (7, 64, 257):
            string, trace = self.cross_check(program, max_references=cap)
            assert string.truncated and trace.truncated
            assert string.n_references == len(trace.pages)

    @pytest.mark.parametrize("name", ["INIT", "APPROX", "CONDUCT"])
    def test_workloads_cross_check(self, name):
        program = get_workload(name).program()
        plan = instrument_program(program, with_locks=False)
        string, _ = self.cross_check(program, plan=plan)
        assert string.n_references > 0

    def test_closed_form_skips_materialization_on_recipe_nests(self):
        # TQL's big nests are recipe-tier: most references must be
        # committed arithmetically, without flat pages
        from repro.analysis.staticloc.interp import StaticCompiler  # noqa: F401

        stats = {}
        program = get_workload("INIT").program()
        plan = instrument_program(program, with_locks=False)
        generate_static_string(program, plan=plan, stats=stats)
        assert stats.get("closed_form_references", 0) > 0


class TestSurrogateFromParts:
    def test_equals_flat_construction(self):
        program = parse_source(TestStaticString.SRC)
        string = generate_static_string(program)
        trace = generate_trace(program)
        parts = string.surrogate()
        flat = Surrogate(trace.pages, string.runs)
        assert parts.kept_pos.tolist() == flat.kept_pos.tolist()
        assert parts.kept_pages.tolist() == flat.kept_pages.tolist()
        assert parts.weights.tolist() == flat.weights.tolist()

    def test_empty_string(self):
        s = StaticString(program_name="E", n_references=0, total_pages=0)
        assert s.fully_literal
        assert s.surrogate().verify_weights()
