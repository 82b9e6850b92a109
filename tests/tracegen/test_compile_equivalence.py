"""The affine trace compiler must be invisible in the output.

Every workload is traced twice — once with the compiled fast path,
once forced through the pure interpreter — and the results must match
element for element: page arrays, directive events (kind, position,
requests, lock pages), array layouts, and the truncation flag.  The
compiler is allowed to decline a nest (fallback), never to change the
trace.
"""

import numpy as np
import pytest

from repro.analysis.staticloc import generate_static_string
from repro.directives import instrument_program
from repro.frontend.parser import parse_source
from repro.tracegen.events import DirectiveKind
from repro.tracegen.interpreter import Interpreter, generate_trace
from repro.workloads import all_workloads, get_workload, workload_names

WORKLOADS = workload_names()


def _pair(program, plan=None, symbols=None, **kwargs):
    slow = generate_trace(
        program, plan=plan, symbols=symbols, compile_nests=False, **kwargs
    )
    fast = generate_trace(
        program, plan=plan, symbols=symbols, compile_nests=True, **kwargs
    )
    return slow, fast


def _assert_identical(slow, fast):
    assert fast.truncated == slow.truncated
    np.testing.assert_array_equal(fast.pages, slow.pages)
    assert fast.array_pages == slow.array_pages
    assert len(fast.directives) == len(slow.directives)
    for a, b in zip(slow.directives, fast.directives):
        assert a.position == b.position
        assert a.kind is b.kind
        assert a.site == b.site
        assert tuple(a.requests) == tuple(b.requests)
        assert a.lock_pages == b.lock_pages
        assert a.priority_index == b.priority_index


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_uninstrumented(self, name):
        w = get_workload(name)
        _assert_identical(*_pair(w.program(), symbols=w.symbols()))

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_instrumented(self, name):
        w = get_workload(name)
        program = w.program()
        plan = instrument_program(program)
        _assert_identical(*_pair(program, plan=plan, symbols=w.symbols()))

    def test_compiler_engages_somewhere(self):
        """Guard against the fast path silently turning itself off."""
        from repro.tracegen.compile import TraceCompiler

        total = 0
        for w in all_workloads():
            it = Interpreter(w.program(), symbols=w.symbols(), compile_nests=True)
            it.run()
            assert isinstance(it._compiler, TraceCompiler)
            total += it._compiler.compiled_refs
        assert total > 100_000


class TestLockCompilation:
    """LOCK plans compile: batches resolve each LOCK's pages from their
    own references and share the LOCK state with the interpreter."""

    def test_lock_cell_equivalence(self, lock_cell):
        program, plan, symbols, page_config, slow = lock_cell
        fast = generate_trace(
            program, plan=plan, symbols=symbols, page_config=page_config
        )
        _assert_identical(slow, fast)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_compiler_engages_under_lock(self, name):
        w = get_workload(name)
        program = w.program()
        plan = instrument_program(program, with_locks=True)
        it = Interpreter(
            program, symbols=w.symbols(), plan=plan, compile_nests=True
        )
        it.run()
        assert it._compiler.compiled_refs > 0

    # the whole K nest compiles; three LOCKs fire inside the batch and
    # the UNLOCK closes it at position 2703
    NEST = (
        "PROGRAM LNEST\n"
        "DIMENSION A(300), B(300)\n"
        "DO K = 1, 3\n"
        "  A(K) = 0.0\n"
        "  DO I = 1, 300\n"
        "    B(I) = A(K) + B(301 - I)\n"
        "  ENDDO\n"
        "ENDDO\n"
        "END\n"
    )

    @pytest.mark.parametrize("cap", [1, 2, 903, 1500, 2702])
    def test_truncation_between_lock_and_unlock(self, cap):
        program = parse_source(self.NEST)
        plan = instrument_program(program, with_locks=True)
        slow, fast = _pair(program, plan=plan, max_references=cap)
        _assert_identical(slow, fast)
        kinds = [d.kind for d in fast.directives]
        assert fast.truncated and DirectiveKind.UNLOCK not in kinds
        assert (DirectiveKind.LOCK in kinds) == (cap > 1)

    # K and J hold IF blocks, so both run interpreted; I compiles.  The
    # LOCK before I (B) fires inside a batch, the one before J (A, named
    # by the never-taken IF) in the interpreter, after the batch moved A.
    MIXED = (
        "PROGRAM MIXED\n"
        "DIMENSION A(300), B(300), C(300)\n"
        "DO K = 1, 3\n"
        "  B(K) = 1.0\n"
        "  DO I = 1, 300\n"
        "    A(I) = B(I) + C(301 - I)\n"
        "  ENDDO\n"
        "  IF (K .GT. 5) THEN\n"
        "    A(1) = 0.0\n"
        "  ENDIF\n"
        "  DO J = 1, 10\n"
        "    IF (J .GT. 5) THEN\n"
        "      C(J) = A(J)\n"
        "    ENDIF\n"
        "  ENDDO\n"
        "ENDDO\n"
        "END\n"
    )

    def test_interpreted_nest_around_compiled_lock_sites(self):
        program = parse_source(self.MIXED)
        plan = instrument_program(program, with_locks=True)
        outer = program.body[0]
        inner, _if, last = outer.body[1:]
        assert plan.locks_before[inner.loop_id].arrays == ("B",)
        assert plan.locks_before[last.loop_id].arrays == ("A",)
        slow, fast = _pair(program, plan=plan)
        _assert_identical(slow, fast)

        it = Interpreter(program, plan=plan, compile_nests=True)
        trace = it.run()
        assert it._compiler.compiled_nests == 3  # the I loop, each pass
        assert it._compiler._legal == {
            outer.loop_id: False, inner.loop_id: True, last.loop_id: False
        }
        a = trace.array_pages["A"][0]
        b = trace.array_pages["B"][0]
        epp = it.page_config.elements_per_page
        locks = [d for d in trace.directives if d.kind is DirectiveKind.LOCK]
        # the interpreted LOCK reads the last page a batch left behind
        assert [d.lock_pages for d in locks if d.site == last.loop_id] == [
            (a + 299 // epp,)
        ] * 3
        # the interpreter's UNLOCK releases what the batches registered
        (unlock,) = [
            d for d in trace.directives if d.kind is DirectiveKind.UNLOCK
        ]
        assert unlock.site == outer.loop_id
        assert unlock.lock_pages == tuple(sorted({b + 2 // epp, a + 299 // epp}))

        # the static tier binds I in closed form (a recipe): the same
        # LOCK state and last pages must pass through its batches
        stats = {}
        string = generate_static_string(program, plan=plan, stats=stats)
        assert stats["recipe_binds"] == 3
        _assert_identical(slow, string.to_reference_trace())


class TestTruncation:
    def test_truncated_prefix_identical(self):
        w = get_workload("TQL")
        slow, fast = _pair(
            w.program(), symbols=w.symbols(), max_references=5_000
        )
        assert slow.truncated and fast.truncated
        assert len(fast.pages) == len(slow.pages) == 5_000
        np.testing.assert_array_equal(fast.pages, slow.pages)

    def test_truncation_inside_compiled_nest(self):
        src = (
            "PROGRAM TRUNC\n"
            "DIMENSION A(4096)\n"
            "DO I = 1, 4096\n"
            "A(I) = I\n"
            "ENDDO\n"
            "END\n"
        )
        program = parse_source(src)
        _assert_identical(*_pair(program, max_references=100))


class TestAdversarialNests:
    """Small programs aimed at the compiler's trickiest legality calls."""

    CASES = {
        "zero_trip": (
            "PROGRAM ZT\n"
            "DIMENSION A(8)\n"
            "N = 0\n"
            "DO I = 1, N\n"
            "A(I) = 1.0\n"
            "ENDDO\n"
            "X = A(1)\n"
            "END\n"
        ),
        "negative_step": (
            "PROGRAM NS\n"
            "DIMENSION A(64)\n"
            "DO I = 64, 1, -3\n"
            "A(I) = I\n"
            "ENDDO\n"
            "END\n"
        ),
        "triangular": (
            "PROGRAM TRI\n"
            "DIMENSION A(32, 32)\n"
            "DO I = 1, 32\n"
            "DO J = I, 32\n"
            "A(J, I) = A(I, J) + 1.0\n"
            "ENDDO\n"
            "ENDDO\n"
            "END\n"
        ),
        "carried_scalar": (
            "PROGRAM CARRY\n"
            "DIMENSION A(64)\n"
            "S = 0.0\n"
            "DO I = 1, 64\n"
            "S = S + A(I)\n"
            "A(I) = S\n"
            "ENDDO\n"
            "END\n"
        ),
        "if_guard": (
            "PROGRAM GUARD\n"
            "DIMENSION A(64), B(64)\n"
            "DO I = 1, 64\n"
            "IF (I .GT. 32) A(I) = B(I)\n"
            "ENDDO\n"
            "END\n"
        ),
        "in_place_stencil": (
            "PROGRAM STEN\n"
            "DIMENSION A(66)\n"
            "DO I = 2, 65\n"
            "A(I) = A(I - 1) + A(I + 1)\n"
            "ENDDO\n"
            "END\n"
        ),
        "data_dependent_subscript": (
            "PROGRAM DDEP\n"
            "DIMENSION P(16), A(64)\n"
            "DO I = 1, 16\n"
            "P(I) = 17 - I\n"
            "ENDDO\n"
            "DO I = 1, 16\n"
            "K = P(I)\n"
            "A(K) = 1.0\n"
            "ENDDO\n"
            "END\n"
        ),
        "loop_var_after_exit": (
            "PROGRAM LVAR\n"
            "DIMENSION A(8)\n"
            "DO I = 1, 5\n"
            "A(I) = 0.0\n"
            "ENDDO\n"
            "A(I) = 9.0\n"
            "END\n"
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equivalent(self, case):
        program = parse_source(self.CASES[case])
        _assert_identical(*_pair(program))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equivalent_instrumented(self, case):
        program = parse_source(self.CASES[case])
        plan = instrument_program(program, with_locks=True)
        _assert_identical(*_pair(program, plan=plan))
