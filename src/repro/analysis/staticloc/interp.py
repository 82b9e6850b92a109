"""Static partial evaluation: the run-structured string with no trace.

:class:`StaticCompiler` is the symbolic compiler with one change: every
committed batch is structured *at commit time* through the interpreter's
:class:`~repro.analysis.staticloc.string.RunBuffer` instead of being
appended to a flat list.  Recipe bindings commit
:class:`~repro.analysis.staticloc.affine.ClosedFormPages` — their run
journal comes straight from the affine subscript matrices and loop
bounds, and their page block is never built.  Binder batches structure
their own materialized block and discard it immediately.  Interpreted
references stay literal (they carry no provable structure — exactly the
references the symbolic detector would not collapse either).

``generate_static_string`` mirrors
:func:`~repro.analysis.symbolic.interp.generate_runtrace` — same
arguments, same errors, same directives, the same run journal and kept
references — but returns a
:class:`~repro.analysis.staticloc.string.StaticString`: the complete
flat reference string is never materialized anywhere in the pipeline.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.parameters import PageConfig
from repro.analysis.staticloc.string import RunBuffer, StaticString
from repro.analysis.symbolic.interp import SymbolicCompiler, _period_hints
from repro.directives.model import InstrumentationPlan
from repro.frontend import ast
from repro.frontend.symbols import SymbolTable
from repro.tracegen.compile import _Binder, _Fallback
from repro.tracegen.events import DirectiveTable
from repro.tracegen.interpreter import Interpreter, _StopExecution, _TraceFull

__all__ = ["StaticCompiler", "generate_static_string"]


class StaticCompiler(SymbolicCompiler):
    """Symbolic compiler committing structure instead of pages.

    Requires ``interp._refs`` to be a
    :class:`~repro.analysis.staticloc.string.RunBuffer`; every commit is
    preceded by the buffer's ``pending`` hand-off (period hints plus the
    batch's event positions) so the buffer can claim runs without any
    global pass.
    """

    def try_execute(self, loop: ast.DoLoop) -> bool:
        if not self.enabled or not self._static_legal(loop):
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
        buffer = self.it._refs
        base = len(buffer)
        self.segments.append((base, base + len(batch.pages), hints))
        buffer.pending = (hints, [e.position for e in batch.events])
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

    Kept references, run journal, directives, truncation and errors all
    match :func:`~repro.analysis.symbolic.interp.generate_runtrace`
    output exactly (the oracle's ``static-*`` battery asserts it seed by
    seed); the flat page string is simply never built.  ``stats``
    additionally receives ``closed_form_references`` — how much of the
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
        compiled_refs = sum(e - s for s, e, _ in compiler.segments)
        stats.update(
            references=n,
            compiled_segments=len(compiler.segments),
            compiled_references=compiled_refs,
            closed_form_references=buffer.closed_form_refs,
            recipe_binds=compiler.recipe_binds,
            fallback_binds=compiler.fallback_binds,
            runs=len(runs),
            kept_references=len(kept_pos),
        )
    return string
