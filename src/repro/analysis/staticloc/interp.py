"""Static partial evaluation: the run-structured string with no trace.

:class:`StaticCompiler` is the affine trace compiler
(:class:`~repro.tracegen.compile.TraceCompiler`) with two changes:

* a **recipe tier** (:mod:`~repro.analysis.symbolic.nests`) — single
  affine loops matching a strict shape bind arithmetically, without
  the binder's iteration grids, and commit
  :class:`~repro.analysis.staticloc.affine.ClosedFormPages`: their run
  journal comes straight from the affine subscript matrices and loop
  bounds, and their page block is never built.  A recipe that cannot
  prove exactness declines and the ordinary binder (then the
  interpreter) takes over;
* **structure at commit** — every committed batch goes through the
  interpreter's :class:`~repro.analysis.staticloc.string.RunBuffer`
  instead of being appended to a flat list.  Binder batches structure
  their own materialized block and discard it immediately.
  Interpreted references stay literal (they carry no provable
  structure).

LOCK-instrumented plans compile like any other: a recipe resolves a
LOCK on its loop from the interpreter's state at entry, a binder batch
from its own pages, and both hand the LOCK state back at commit
(:class:`~repro.tracegen.events.LockBook`), so their strings collapse
too.

``generate_static_string`` mirrors
:func:`~repro.tracegen.interpreter.generate_trace` — same arguments,
same errors, same directives — but returns a
:class:`~repro.analysis.staticloc.string.StaticString`: the complete
flat reference string is never materialized anywhere in the pipeline.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.parameters import PageConfig
from repro.analysis.staticloc.string import RunBuffer, StaticString
from repro.analysis.symbolic.nests import build_recipe
from repro.directives.model import InstrumentationPlan
from repro.frontend import ast
from repro.frontend.symbols import SymbolTable
from repro.tracegen.compile import TraceCompiler, _Binder, _Fallback, _stmt_ref_exprs
from repro.tracegen.events import DirectiveTable
from repro.tracegen.interpreter import Interpreter, _StopExecution, _TraceFull

__all__ = ["StaticCompiler", "generate_static_string"]


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


class StaticCompiler(TraceCompiler):
    """Trace compiler committing structure instead of pages.

    Requires ``interp._refs`` to be a
    :class:`~repro.analysis.staticloc.string.RunBuffer`; every commit is
    preceded by the buffer's ``pending`` hand-off (period hints plus the
    batch's event positions) so the buffer can claim runs without any
    global pass.
    """

    def __init__(self, interp) -> None:
        super().__init__(interp)
        #: loop_id -> recipe | False (False: structurally refused)
        self._recipes: dict = {}
        self.recipe_binds = 0

    def _recipe_for(self, loop: ast.DoLoop):
        cached = self._recipes.get(loop.loop_id)
        if cached is None:
            cached = build_recipe(self, loop)
            if cached is None:
                cached = False
            self._recipes[loop.loop_id] = cached
        return cached or None

    def try_execute(self, loop: ast.DoLoop) -> bool:
        if not self._static_legal(loop):
            return False
        recipe = self._recipe_for(loop)
        if recipe is not None:
            batch = recipe.bind_static(self.it)
            if batch is not None:
                self.recipe_binds += 1
                self._commit_structured(batch, recipe.period_hints)
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
        self._commit_structured(batch, _period_hints(loop))
        return True

    def _commit_structured(self, batch, hints) -> None:
        self.it._refs.pending = (hints, [e.position for e in batch.events])
        self._commit(batch)


def generate_static_string(
    program: ast.Program,
    plan: Optional[InstrumentationPlan] = None,
    symbols: Optional[SymbolTable] = None,
    page_config: Optional[PageConfig] = None,
    max_references: int = 5_000_000,
    max_operations: int = 100_000_000,
    stats: Optional[Dict[str, int]] = None,
) -> StaticString:
    """Partially evaluate ``program`` into its run-structured string.

    Length, directives, truncation and errors all match
    :func:`~repro.tracegen.interpreter.generate_trace` output exactly,
    and the kept references plus the run journal reproduce its pages
    (the oracle's ``static-*`` battery asserts it seed by seed); the
    flat page string is simply never built.  ``stats`` (optional dict)
    receives coverage counters: recipe/binder/fallback bind counts,
    run-journal totals and ``closed_form_references`` — how much of the
    string existed only as arithmetic.
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
    compiler = StaticCompiler(interpreter)
    interpreter._compiler = compiler
    buffer = RunBuffer()
    interpreter._refs = buffer
    try:
        interpreter._exec_block(program.body)
    except (_StopExecution, _TraceFull):
        pass
    n, kept_pos, kept_pages, runs = buffer.finish()
    string = StaticString(
        program_name=program.name,
        n_references=n,
        total_pages=max(interpreter.layout.total_pages, 1),
        directive_table=DirectiveTable.from_events(interpreter._events),
        array_pages={
            name: (p.first_page, p.page_count)
            for name, p in interpreter.layout.placements.items()
        },
        truncated=interpreter._truncated,
        kept_pos=kept_pos,
        kept_pages=kept_pages,
        runs=runs,
    )
    if stats is not None:
        stats.update(
            references=n,
            compiled_segments=compiler.compiled_nests,
            compiled_references=compiler.compiled_refs,
            closed_form_references=buffer.closed_form_refs,
            recipe_binds=compiler.recipe_binds,
            fallback_binds=compiler.fallback_binds,
            runs=len(runs),
            kept_references=len(kept_pos),
        )
    return string
