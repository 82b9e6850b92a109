"""Run-structure-aware trace generation.

:class:`SymbolicCompiler` is the affine trace compiler
(:class:`~repro.tracegen.compile.TraceCompiler`) extended with two
things:

* a **segment journal** — every committed nest records the half-open
  reference interval it produced together with candidate periods
  (references per innermost-loop iteration), which is exactly what
  :func:`~repro.analysis.symbolic.collapse.detect_runs` needs;
* a **recipe tier** (:mod:`~repro.analysis.symbolic.nests`) — single
  affine loops matching a strict shape are generated arithmetically
  (offset = lin0 + dlin·t) without building the binder's iteration
  grids, which removes most of the generation cost of the two hot
  workload nests.  A recipe that cannot prove exactness declines and
  the ordinary binder (then the interpreter) takes over.

``generate_runtrace`` mirrors :func:`~repro.tracegen.interpreter.generate_trace`
— same arguments, same errors, element-identical pages/directives — but
returns a :class:`~repro.analysis.symbolic.runtrace.RunTrace` whose run
journal the weighted analyzers consume.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.parameters import PageConfig
from repro.directives.model import InstrumentationPlan
from repro.frontend import ast
from repro.frontend.symbols import SymbolTable
from repro.tracegen.compile import TraceCompiler, _Binder, _Fallback, _stmt_ref_exprs
from repro.tracegen.interpreter import Interpreter
from repro.analysis.symbolic.collapse import detect_runs
from repro.analysis.symbolic.runtrace import RunTrace

__all__ = ["SymbolicCompiler", "generate_runtrace"]


def _period_hints(root: ast.DoLoop) -> List[int]:
    """Candidate periods for a compiled nest: references per iteration
    of each innermost loop whose body is straight-line (Assign /
    Continue / Print only — guarded statements make the per-iteration
    reference count data-dependent)."""
    hints = set()

    def visit(loop: ast.DoLoop) -> None:
        inner = [s for s in loop.body if isinstance(s, ast.DoLoop)]
        for sub in inner:
            visit(sub)
        if inner:
            return
        if not all(
            isinstance(s, (ast.Assign, ast.Continue, ast.Print))
            for s in loop.body
        ):
            return
        refs = sum(len(_stmt_ref_exprs(s)) for s in loop.body)
        if refs >= 1:
            hints.add(refs)

    visit(root)
    return sorted(hints)


class SymbolicCompiler(TraceCompiler):
    """TraceCompiler that journals committed segments and tries the
    recipe tier before the general binder."""

    def __init__(self, interp) -> None:
        super().__init__(interp)
        #: (start, end, candidate periods) per committed nest
        self.segments: List[Tuple[int, int, List[int]]] = []
        #: loop_id -> recipe | False (False: structurally refused)
        self._recipes: dict = {}
        self.recipe_binds = 0

    def _recipe_for(self, loop: ast.DoLoop):
        cached = self._recipes.get(loop.loop_id)
        if cached is None:
            from repro.analysis.symbolic.nests import build_recipe

            cached = build_recipe(self, loop)
            if cached is None:
                cached = False
            self._recipes[loop.loop_id] = cached
        return cached or None

    def try_execute(self, loop: ast.DoLoop) -> bool:
        if not self.enabled or not self._static_legal(loop):
            return False
        recipe = self._recipe_for(loop)
        if recipe is not None:
            batch = recipe.bind(self.it)
            if batch is not None:
                self.recipe_binds += 1
                base = len(self.it._refs)
                self.segments.append(
                    (base, base + len(batch.pages), recipe.period_hints)
                )
                self._commit(batch)
                return True
        wins, losses = self._score.get(loop.loop_id, (0, 0))
        if losses >= 4 and not wins:
            return False
        try:
            batch = _Binder(self, loop).run()
        except _Fallback:
            self.fallback_binds += 1
            self._score[loop.loop_id] = (wins, losses + 1)
            return False
        self._score[loop.loop_id] = (wins + 1, losses)
        base = len(self.it._refs)
        self.segments.append(
            (base, base + len(batch.pages), _period_hints(loop))
        )
        self._commit(batch)
        return True


def generate_runtrace(
    program: ast.Program,
    plan: Optional[InstrumentationPlan] = None,
    symbols: Optional[SymbolTable] = None,
    page_config: Optional[PageConfig] = None,
    max_references: int = 5_000_000,
    max_operations: int = 100_000_000,
    stats: Optional[dict] = None,
) -> RunTrace:
    """Execute ``program`` and return its run-structured trace.

    The flat trace inside the result is element-identical to
    ``generate_trace(...)`` output (same pages, directives, truncation
    and errors); the run journal is verified against it at detection
    time.  ``stats`` (optional dict) receives coverage counters:
    recipe/binder/fallback bind counts and run-journal totals — how
    much of the trace the symbolic tier proved versus recovered by
    falling back to interpretation.
    """
    interpreter = Interpreter(
        program,
        symbols=symbols,
        page_config=page_config,
        plan=plan,
        max_references=max_references,
        max_operations=max_operations,
        compile_nests=True,
    )
    compiler = SymbolicCompiler(interpreter)
    interpreter._compiler = compiler
    trace = interpreter.run()
    boundaries = trace.directive_table.position.tolist()
    runs = detect_runs(trace.pages, compiler.segments, boundaries)
    result = RunTrace(trace, runs)
    if stats is not None:
        compiled_refs = sum(e - s for s, e, _ in compiler.segments)
        stats.update(
            references=len(trace.pages),
            compiled_segments=len(compiler.segments),
            compiled_references=compiled_refs,
            recipe_binds=compiler.recipe_binds,
            fallback_binds=compiler.fallback_binds,
            runs=len(runs),
            kept_references=result.compressed_length(),
        )
    return result
