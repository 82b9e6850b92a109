"""Vectorized trace compilation for DO-loop nests (the affine fast path).

The tree-walking interpreter emits one page reference per array-element
access, costing several microseconds of Python dispatch each.  Most of
the references in the paper's nine workloads come from DO-loop nests
whose control flow is data independent: the loop bounds, the index
expressions, and (where it matters) the arithmetic can all be evaluated
for *every iteration at once* with numpy.  This module does exactly
that: given a DO loop about to execute, it tries to

1. enumerate every iteration of the nest level by level (broadcasted
   index grids, ragged via ``repeat``/``arange``),
2. evaluate each array subscript as an int64 vector, validate bounds,
   and turn column-major offsets into page ids in bulk,
3. interleave the per-statement reference slots back into sequential
   execution order with one packed-radix sort,
4. splice LOCK/ALLOCATE/UNLOCK directive events at their exact
   positions, resolving each LOCK's pages from the batch's own pages
   (an array's latest reference before the LOCK), and
5. commit scalars, array stores, LOCK state, the operation budget, and
   the reference-cap truncation *exactly* as the interpreter would have.

Anything the vectorized evaluator cannot reproduce bit-for-bit —
data-dependent control flow, loop-carried scalar dependences beyond the
accumulator idiom, aliasing array updates, value-dependent errors —
raises the internal :class:`_Fallback` before any state is touched, and
the interpreter simply runs the nest as before (inner loops of a
rejected nest get their own chance when the interpreter reaches them).

The analysis leans on *trace relevance* ("taint"): a name can influence
the trace only by flowing into a loop bound, a subscript, a condition,
or an error-raising operation.  Assignments to irrelevant names are
compiled ref-only — their page references are emitted but the values
are never computed, which is what makes fully data-independent kernels
(relaxation sweeps, matrix products) almost free.  Assignments to
relevant names are evaluated exactly (int64/float64 kinds, FORTRAN
integer division, ``math``-equivalent intrinsics via object loops), so
committed state is indistinguishable from interpretation.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.frontend import ast
from repro.tracegen.events import DirectiveEvent, DirectiveKind

__all__ = ["TraceCompiler", "trace_relevant_names"]


class _Fallback(Exception):
    """Internal: this nest (or this binding of it) cannot be compiled."""


#: Intrinsics that cannot raise for in-range int/float arguments and
#: whose *values* therefore only matter when the target is relevant.
_SAFE_INTRINSICS = {
    "ABS", "IABS", "FLOAT", "REAL", "DBLE", "SIGN", "ISIGN",
    "MIN", "MAX", "MIN0", "MAX0", "AMIN1", "AMAX1",
}

#: arity spec: exact count or (min, None) for variadic
_INTRINSIC_ARITY = {
    "SQRT": 1, "ABS": 1, "IABS": 1, "EXP": 1, "SIN": 1, "COS": 1,
    "TAN": 1, "ATAN": 1, "LOG": 1, "ALOG": 1, "LOG10": 1,
    "FLOAT": 1, "REAL": 1, "DBLE": 1, "INT": 1, "IFIX": 1, "NINT": 1,
    "MOD": 2, "AMOD": 2, "SIGN": 2, "ISIGN": 2,
    "MIN": (2, None), "MAX": (2, None), "MIN0": (2, None),
    "MAX0": (2, None), "AMIN1": (2, None), "AMAX1": (2, None),
}

_UNARY_MATH = {
    "SQRT": math.sqrt, "EXP": math.exp, "SIN": math.sin, "COS": math.cos,
    "TAN": math.tan, "ATAN": math.atan, "LOG": math.log, "ALOG": math.log,
    "LOG10": math.log10,
}

#: |int| beyond this we refuse to vectorize (int64 headroom)
_INT_LIMIT = 1 << 62
#: ints above this are not exactly representable as float64
_FLOAT_EXACT_INT = 1 << 53
#: cap on enumerated iterations of one nest binding (memory guard)
_MAX_INSTANCES = 40_000_000


def _reads_of(expr: ast.Expr) -> Set[str]:
    """Names (scalars and arrays) read anywhere inside ``expr``."""
    names: Set[str] = set()
    for node in ast.walk_expressions(expr):
        if isinstance(node, ast.Var):
            names.add(node.name)
        elif isinstance(node, ast.ArrayRef):
            names.add(node.name)
    return names


def trace_relevant_names(program: ast.Program) -> frozenset:
    """Names whose run-time values can influence the reference trace.

    Seeds: names read in DO bounds, DO WHILE / IF conditions, array
    subscripts, divisors, ``**`` operands, and arguments of intrinsics
    that can raise.  Closure: assigning a relevant name makes every name
    read by that assignment relevant (name-level, flow-insensitive —
    conservative, which is the safe direction).
    """
    seeds: Set[str] = set()
    edges: Dict[str, Set[str]] = {}

    def seed_expr(expr: Optional[ast.Expr]) -> None:
        if expr is not None:
            seeds.update(_reads_of(expr))

    for stmt in program.walk_statements():
        if isinstance(stmt, ast.DoLoop):
            seed_expr(stmt.start)
            seed_expr(stmt.end)
            seed_expr(stmt.step)
        elif isinstance(stmt, ast.WhileLoop):
            seed_expr(stmt.cond)
        elif isinstance(stmt, ast.IfBlock):
            for cond, _body in stmt.branches:
                seed_expr(cond)
        elif isinstance(stmt, ast.LogicalIf):
            seed_expr(stmt.cond)
        if isinstance(stmt, ast.Assign):
            target = stmt.target
            name = target.name if isinstance(target, (ast.Var, ast.ArrayRef)) else None
            if name is not None:
                reads = _reads_of(stmt.expr)
                if isinstance(target, ast.ArrayRef):
                    for ix in target.indices:
                        reads |= _reads_of(ix)
                edges.setdefault(name, set()).update(reads)
        for expr in _statement_exprs(stmt):
            for node in ast.walk_expressions(expr):
                if isinstance(node, ast.ArrayRef):
                    for ix in node.indices:
                        seeds.update(_reads_of(ix))
                elif isinstance(node, ast.BinOp):
                    if node.op == "/":
                        seeds.update(_reads_of(node.right))
                    elif node.op == "**":
                        seeds.update(_reads_of(node.left))
                        seeds.update(_reads_of(node.right))
                elif isinstance(node, ast.Call):
                    if node.name not in _SAFE_INTRINSICS:
                        for arg in node.args:
                            seeds.update(_reads_of(arg))

    tainted = set(seeds)
    work = list(seeds)
    while work:
        name = work.pop()
        for read in edges.get(name, ()):
            if read not in tainted:
                tainted.add(read)
                work.append(read)
    return frozenset(tainted)


def _statement_exprs(stmt: ast.Stmt) -> List[ast.Expr]:
    """Expressions a statement evaluates directly (not nested stmts)."""
    if isinstance(stmt, ast.Assign):
        return [stmt.expr, stmt.target]
    if isinstance(stmt, ast.DoLoop):
        exprs = [stmt.start, stmt.end]
        if stmt.step is not None:
            exprs.append(stmt.step)
        return exprs
    if isinstance(stmt, ast.WhileLoop):
        return [stmt.cond]
    if isinstance(stmt, ast.IfBlock):
        return [c for c, _b in stmt.branches if c is not None]
    if isinstance(stmt, ast.LogicalIf):
        return [stmt.cond] + _statement_exprs(stmt.stmt)
    if isinstance(stmt, ast.Print):
        return list(stmt.items)
    if isinstance(stmt, ast.CallStmt):
        return list(stmt.args)
    return []


def _expr_refs(expr: ast.Expr):
    """ArrayRef nodes of ``expr`` in interpreter evaluation order.

    Mirrors ``Interpreter._eval``: subscript sub-references fire before
    the reference itself; binary operands left before right.
    """
    if isinstance(expr, ast.ArrayRef):
        for ix in expr.indices:
            yield from _expr_refs(ix)
        yield expr
    elif isinstance(expr, (ast.BinOp, ast.Compare, ast.LogicalOp)):
        yield from _expr_refs(expr.left)
        yield from _expr_refs(expr.right)
    elif isinstance(expr, ast.UnaryOp):
        yield from _expr_refs(expr.operand)
    elif isinstance(expr, ast.Call):
        for arg in expr.args:
            yield from _expr_refs(arg)


def _stmt_ref_exprs(stmt: ast.Stmt) -> List[ast.ArrayRef]:
    """Reference slots of one statement execution, in emission order."""
    refs: List[ast.ArrayRef] = []
    if isinstance(stmt, ast.Assign):
        refs.extend(_expr_refs(stmt.expr))
        if isinstance(stmt.target, ast.ArrayRef):
            refs.extend(_expr_refs(stmt.target))
    elif isinstance(stmt, ast.Print):
        for item in stmt.items:
            refs.extend(_expr_refs(item))
    return refs


class TraceCompiler:
    """Per-interpreter compiler: intercepts DO loops and executes
    compilable nests in bulk.  Constructed once per
    :class:`~repro.tracegen.interpreter.Interpreter`."""

    def __init__(self, interp) -> None:
        self.it = interp
        self.tainted = trace_relevant_names(interp.program)
  # A LOCK pins the page of each named array's latest reference, so
  # every batch leaves those arrays' last pages behind for the LOCKs
  # that follow it, interpreted or compiled.
        plan = interp.plan
        self.lock_arrays = frozenset(
            name
            for lock in (plan.locks_before.values() if plan is not None else ())
            for name in lock.arrays
        )
        self._legal: Dict[int, bool] = {}
        #: loop_id -> (successful binds, dynamic fallbacks)
        self._score: Dict[int, Tuple[int, int]] = {}
        #: perf counters (surfaced in reports/benchmarks)
        self.compiled_nests = 0
        self.compiled_refs = 0
        self.fallback_binds = 0

  # -- entry point --------------------------------------------------------

    def try_execute(self, loop: ast.DoLoop) -> bool:
        """Execute ``loop`` in bulk if possible.  True on success (the
        interpreter must then skip the loop); False leaves all state
        untouched so the interpreter can run it normally."""
        if not self._static_legal(loop):
            return False
        wins, losses = self._score.get(loop.loop_id, (0, 0))
        if losses >= 4 and not wins:
            return False  # this nest never binds; stop burning time on it
        try:
            batch = _Binder(self, loop).run()
        except _Fallback:
            self.fallback_binds += 1
            self._score[loop.loop_id] = (wins, losses + 1)
            return False
        self._score[loop.loop_id] = (wins + 1, losses)
        self._commit(batch)
        return True

  # -- static legality ----------------------------------------------------

    def _static_legal(self, loop: ast.DoLoop) -> bool:
        cached = self._legal.get(loop.loop_id)
        if cached is not None:
            return cached
        ok = self._check_nest(loop)
        self._legal[loop.loop_id] = ok
        return ok

    def _check_nest(self, root: ast.DoLoop) -> bool:
        symbols = self.it.symbols
        for stmt in _walk_nest(root):
            if isinstance(stmt, (ast.WhileLoop, ast.IfBlock, ast.Stop,
                                 ast.ExitLoop, ast.CallStmt, ast.Return)):
                return False
            if isinstance(stmt, ast.LogicalIf) and not isinstance(
                stmt.stmt, (ast.Assign, ast.Continue)
            ):
                return False
            if not isinstance(
                stmt, (ast.Assign, ast.DoLoop, ast.LogicalIf, ast.Continue,
                       ast.Print)
            ):
                return False
            for expr in _statement_exprs(stmt):
                if not self._check_expr(expr, symbols):
                    return False
        return True

    def _check_expr(self, expr: ast.Expr, symbols) -> bool:
        for node in ast.walk_expressions(expr):
            if isinstance(node, ast.ArrayRef):
                info = symbols.arrays.get(node.name)
                if info is None or info.rank != len(node.indices):
                    return False
            elif isinstance(node, ast.Call):
                arity = _INTRINSIC_ARITY.get(node.name)
                if arity is None:
                    return False
                if isinstance(arity, int):
                    if len(node.args) != arity:
                        return False
                elif len(node.args) < arity[0]:
                    return False
            elif isinstance(node, ast.LogicalOp):
  # The interpreter short-circuits: the right side must be
  # free of references and of operations that could raise,
  # or skipping it would be observable.
                if any(True for _ in _expr_refs(node.right)):
                    return False
                if not _error_free(node.right):
                    return False
            elif isinstance(node, ast.BinOp) and node.op not in (
                "+", "-", "*", "/", "**"
            ):
                return False
        return True

  # -- commit -------------------------------------------------------------

    def _commit(self, batch: "_Batch") -> None:
        it = self.it
        it._refs.extend(batch.pages)
        it._events.extend(batch.events)
        self.compiled_nests += 1
        self.compiled_refs += len(batch.pages)
        if batch.truncated:
            it._truncated = True
            from repro.tracegen.interpreter import _TraceFull

            raise _TraceFull()
        it._operations += batch.nest_ops
        it.scalars.update(batch.scalars)
        for name, offsets, values in batch.array_stores:
            it.arrays[name][offsets] = values
        if batch.locks is not None:
            it._locks = batch.locks
        if batch.last_pages:
            it._last_page.update(batch.last_pages)


def _walk_nest(root: ast.DoLoop):
    yield from ast._walk(root.body)


def _error_free(expr: ast.Expr) -> bool:
    """True when evaluating ``expr`` can never raise (given in-bounds
    subscripts, which are checked separately)."""
    for node in ast.walk_expressions(expr):
        if isinstance(node, ast.BinOp) and node.op in ("/", "**"):
            return False
        if isinstance(node, ast.Call) and node.name not in _SAFE_INTRINSICS:
            return False
    return True


class _Batch:
    """Everything one compiled nest binding commits, fully materialized
    and validated before any interpreter state changes."""

    __slots__ = (
        "pages", "events", "truncated", "nest_ops", "scalars", "array_stores",
        "locks", "last_pages",
    )

    def __init__(self, pages, events, truncated, nest_ops, scalars, array_stores,
                 locks=None, last_pages=None):
        self.pages = pages
        self.events = events
        self.truncated = truncated
        self.nest_ops = nest_ops
        self.scalars = scalars
        self.array_stores = array_stores
        self.locks = locks  # the LockBook after the batch's LOCK/UNLOCKs
        self.last_pages = last_pages  # LOCK array -> its last page here


class _Ctx:
    """One loop-body context: the instances of a loop's body across the
    whole binding, in execution order."""

    __slots__ = (
        "idx", "depth", "parent", "parent_idx", "loop", "var", "var_values",
        "counts", "n", "cols", "chain", "final_values", "max_trip", "body",
    )

    def __init__(self, idx, depth, parent, parent_idx, loop, var_values,
                 counts, cols, chain, body):
        self.idx = idx
        self.depth = depth
        self.parent = parent  # parent ctx index (None for virtual)
        self.parent_idx = parent_idx  # instance -> parent instance (int64)
        self.loop = loop  # DoLoop (None for the virtual root)
        self.var = loop.var if loop is not None else None
        self.var_values = var_values  # int64, per instance
        self.counts = counts  # trips per parent instance (int64)
        self.n = int(var_values.shape[0]) if var_values is not None else 1
        self.cols = cols  # key columns, each per instance
        self.chain = chain  # tuple of ctx indices root..self
        self.final_values = None  # loop var after normal termination
        self.max_trip = int(counts.max()) if counts is not None and len(counts) else 0
        self.body = body


class _Def:
    """Latest processed definition of a scalar name."""

    __slots__ = ("ctx", "values", "kind", "guarded", "acc_seed_ctx",
                 "acc_seed_values", "acc_seed_kind")

    def __init__(self, ctx, values, kind, guarded=False):
        self.ctx = ctx  # ctx index
        self.values = values  # per-instance ndarray, or None (irrelevant)
        self.kind = kind  # 'i' | 'f' | None
        self.guarded = guarded
        self.acc_seed_ctx = -2  # -2: not an accumulator
        self.acc_seed_values = None
        self.acc_seed_kind = None


class _Binder:
    """Evaluates one execution of a nest in bulk.

    All work happens on private buffers; nothing touches interpreter
    state, so raising :class:`_Fallback` at any point is free.  The
    result is a :class:`_Batch` that the compiler commits atomically.
    """

    def __init__(self, comp: TraceCompiler, root: ast.DoLoop) -> None:
        self.comp = comp
        self.it = comp.it
        self.root = root
        self.layout = self.it.layout
        self.epp = self.it.page_config.elements_per_page
        self.ctxs: List[_Ctx] = []
        self.ctx_of_loop: Dict[int, int] = {}
        self.scalar_state: Dict[str, _Def] = {}
        self.processed: Set[int] = set()  # uids of executed def sites
        self.ref_groups: List[tuple] = []  # (ctx, pos, iter, slot, sel, pages)
  # evt_groups rows: (ctx, pos, iter, slot, kind, site, payload);
  # payload: ALLOCATE requests, the LockDirective, or None (UNLOCK)
        self.evt_groups: List[tuple] = []
        self.candidates: List[tuple] = []  # (name, ctx, pos, iter, inst, value)
  # writer_recs: uid -> (ctx, sel, offs, offs_c, vals64)
        self.writer_recs: Dict[int, tuple] = {}
  # store_groups: array -> [(ctx, pos, sel, offs, vals)]
        self.store_groups: Dict[str, List[tuple]] = {}
        self.nest_ops = 0
        self.total_refs = 0
        self._anc_cache: Dict[Tuple[int, int], np.ndarray] = {}
  # static shape of the nest: scalar def sites and array writers,
  # each with its enclosing-loop chain (for carry-hazard checks)
        self.scalar_defs: Dict[str, List[Tuple[int, Tuple[int, ...]]]] = {}
        self.array_writers: Dict[str, List[tuple]] = {}
        self._collect_static(root, (root.loop_id,))

    def _collect_static(self, loop: ast.DoLoop, chain: Tuple[int, ...]) -> None:
        self.scalar_defs.setdefault(loop.var, []).append((id(loop), chain))
        for stmt in loop.body:
            inner = stmt.stmt if isinstance(stmt, ast.LogicalIf) else stmt
            if isinstance(inner, ast.Assign):
                guarded = inner is not stmt
                if isinstance(inner.target, ast.Var):
                    self.scalar_defs.setdefault(inner.target.name, []).append(
                        (id(inner), chain)
                    )
                else:
                    self.array_writers.setdefault(inner.target.name, []).append(
                        (id(inner), inner, chain, guarded)
                    )
            elif isinstance(stmt, ast.DoLoop):
                self._collect_static(stmt, chain + (stmt.loop_id,))

  # -- driving ------------------------------------------------------------

    def run(self) -> _Batch:
        virtual = _Ctx(
            idx=0, depth=0, parent=None, parent_idx=None, loop=None,
            var_values=None, counts=None, cols=[], chain=(0,), body=None,
        )
        self.ctxs.append(virtual)
        budget = self.it.max_operations - self.it._operations
        self._process_loop(self.root, 0, 0)
        if self.nest_ops > budget:
            raise _Fallback  # the interpreter must raise mid-nest
        return self._materialize()

    def _process_loop(self, loop: ast.DoLoop, pctx_idx: int, pos: int) -> None:
        pctx = self.ctxs[pctx_idx]
        plan = self.it.plan
        slot = 0
        if plan is not None:
            lock = plan.locks_before.get(loop.loop_id)
            if lock is not None:
                self.evt_groups.append(
                    (pctx_idx, pos, 0, 0, DirectiveKind.LOCK, loop.loop_id, lock)
                )
            allocate = plan.allocates.get(loop.loop_id)
            if allocate is not None:
                self.evt_groups.append(
                    (pctx_idx, pos, 0, 1, DirectiveKind.ALLOCATE,
                     loop.loop_id, allocate.requests)
                )
            slot = 2
  # Bounds evaluate once per entry, in the parent context; any
  # references inside them fire at the entry marker.
        stash: Dict[int, np.ndarray] = {}
        bounds = [loop.start, loop.end] + ([loop.step] if loop.step is not None else [])
        for bound in bounds:
            slot = self._walk_refs(bound, pctx_idx, pos, 0, slot, None, stash)
        start = self._int_vec(self._eval(loop.start, pctx_idx, None, stash))
        end = self._int_vec(self._eval(loop.end, pctx_idx, None, stash))
        if loop.step is not None:
            step = self._int_vec(self._eval(loop.step, pctx_idx, None, stash))
        else:
            step = np.ones(pctx.n, dtype=np.int64)
        if (step == 0).any():
            raise _Fallback  # interpreter raises "DO step of zero"
        if _imax(start) > 1 << 31 or _imax(end) > 1 << 31 or _imax(step) > 1 << 31:
            raise _Fallback
        trips = np.maximum(0, (end - start + step) // step)
        n = int(trips.sum())
        if n > _MAX_INSTANCES:
            raise _Fallback
        parent_idx = np.repeat(np.arange(pctx.n, dtype=np.int64), trips)
        group_start = np.zeros(pctx.n, dtype=np.int64)
        np.cumsum(trips[:-1], out=group_start[1:])
        within = np.arange(n, dtype=np.int64) - group_start[parent_idx]
        var_values = start[parent_idx] + step[parent_idx] * within
        cols = [c[parent_idx] for c in pctx.cols]
        cols.append(np.full(n, pos, dtype=np.int64))
        cols.append(within + 1)
        ctx = _Ctx(
            idx=len(self.ctxs), depth=pctx.depth + 1, parent=pctx_idx,
            parent_idx=parent_idx, loop=loop, var_values=var_values,
            counts=trips, cols=cols, chain=pctx.chain + (len(self.ctxs),),
            body=loop.body,
        )
        self.ctxs.append(ctx)
        self.ctx_of_loop[loop.loop_id] = ctx.idx
        self.processed.add(id(loop))
        self.scalar_state[loop.var] = _Def(ctx.idx, var_values, "i")
        self._process_body(loop.body, ctx.idx)
  # Normal termination leaves the variable one step past the end,
  # even for zero-trip loops (the interpreter's for/else).
        finals = start + trips * step
        ctx.final_values = finals
        self.scalar_state[loop.var] = _Def(pctx_idx, finals, "i")
        if pctx.n:
            self.candidates.append(
                (loop.var, pctx_idx, pos, ctx.max_trip + 1, pctx.n - 1,
                 int(finals[-1]))
            )
        if plan is not None and loop.loop_id in plan.unlocks_after:
            self.evt_groups.append(
                (pctx_idx, pos, ctx.max_trip + 1, 0, DirectiveKind.UNLOCK,
                 loop.loop_id, None)
            )

    def _process_body(self, body: List[ast.Stmt], ctx_idx: int) -> None:
        ctx = self.ctxs[ctx_idx]
        self.nest_ops += ctx.n * len(body)
        for pos, stmt in enumerate(body):
            if isinstance(stmt, ast.Continue):
                continue
            if isinstance(stmt, ast.DoLoop):
                self._process_loop(stmt, ctx_idx, pos)
            elif isinstance(stmt, ast.Assign):
                self._process_assign(stmt, ctx_idx, pos, 0, None)
            elif isinstance(stmt, ast.LogicalIf):
                self._process_logical_if(stmt, ctx_idx, pos)
            elif isinstance(stmt, ast.Print):
                stash: Dict[int, np.ndarray] = {}
                slot = 0
                for item in stmt.items:
                    slot = self._walk_refs(item, ctx_idx, pos, None, slot, None, stash)
                for item in stmt.items:
                    self._check_effects(item, ctx_idx, None, stash)
            else:  # pragma: no cover - excluded by _check_nest
                raise _Fallback

    def _process_logical_if(self, stmt: ast.LogicalIf, ctx_idx: int, pos: int) -> None:
        stash: Dict[int, np.ndarray] = {}
        slot = self._walk_refs(stmt.cond, ctx_idx, pos, None, 0, None, stash)
        _k, cond = self._eval(stmt.cond, ctx_idx, None, stash)
        mask = cond != 0
        taken = int(mask.sum())
        self.nest_ops += taken
        if isinstance(stmt.stmt, ast.Continue):
            return
        if taken == len(mask):
            self._process_assign(stmt.stmt, ctx_idx, pos, slot, None)
        elif taken == 0:
            self._mark_def(stmt.stmt)
        else:
            sel = np.nonzero(mask)[0]
            self._process_assign(stmt.stmt, ctx_idx, pos, slot, sel, guarded=True)

    def _mark_def(self, stmt: ast.Assign) -> None:
        """A guarded assignment that never fired still counts as a
        processed def site (it can no longer carry values forward)."""
        self.processed.add(id(stmt))

    def _process_assign(self, stmt: ast.Assign, ctx_idx: int, pos: int,
                        slot0: int, sel, guarded: bool = False) -> None:
        stash: Dict[int, np.ndarray] = {}
        slot = self._walk_refs(stmt.expr, ctx_idx, pos, None, slot0, sel, stash)
        target = stmt.target
        if isinstance(target, ast.ArrayRef):
            for ix in target.indices:
                slot = self._walk_refs(ix, ctx_idx, pos, None, slot, sel, stash)
            t_offs, t_pages = self._offsets_pages(target, ctx_idx, sel, stash)
            self._emit_ref(ctx_idx, pos, None, slot, sel, t_pages)
            self._finish_array_store(stmt, ctx_idx, pos, sel, t_offs, stash)
            return
        self._finish_scalar_def(stmt, ctx_idx, pos, sel, guarded, stash)

    def _finish_array_store(self, stmt, ctx_idx, pos, sel, offs, stash) -> None:
        name = stmt.target.name
        if name in self.comp.tainted:
            kind, vals = self._eval(stmt.expr, ctx_idx, sel, stash)
            vals64 = _to_float(kind, vals)
            self.store_groups.setdefault(name, []).append(
                (ctx_idx, pos, sel, offs, vals64)
            )
            self.writer_recs[id(stmt)] = (ctx_idx, sel, offs, vals64)
        else:
            self._check_effects(stmt.expr, ctx_idx, sel, stash)
            self.writer_recs[id(stmt)] = (ctx_idx, sel, offs, None)
        self.processed.add(id(stmt))

    def _finish_scalar_def(self, stmt, ctx_idx, pos, sel, guarded, stash) -> None:
        name = stmt.target.name
        ctx = self.ctxs[ctx_idx]
        if name not in self.comp.tainted:
            self._check_effects(stmt.expr, ctx_idx, sel, stash)
            prior = self.scalar_state.get(name)
            if prior is None or not guarded:
                self.scalar_state[name] = _Def(ctx_idx, None, None, guarded=guarded)
            inst = int(sel[-1]) if sel is not None else ctx.n - 1
            if ctx.n and (sel is None or len(sel)):
                self.candidates.append((name, ctx_idx, pos, None, inst, 0.0))
            self.processed.add(id(stmt))
            return
        if guarded:
            prior = self.scalar_state.get(name)
            if (
                prior is None or prior.values is None
                or prior.ctx != ctx_idx or prior.guarded
            ):
                raise _Fallback  # no same-instance dominating value
            kind, vals = self._eval(stmt.expr, ctx_idx, sel, stash)
            if kind != prior.kind:
                raise _Fallback  # per-instance kind would diverge
            merged = prior.values.copy()
            merged[sel] = vals
            self.scalar_state[name] = _Def(ctx_idx, merged, kind)
            self.candidates.append(
                (name, ctx_idx, pos, None, int(sel[-1]), _pyval(kind, vals[-1]))
            )
            self.processed.add(id(stmt))
            return
        acc = self._accumulator_shape(stmt, name)
        if acc is not None and self._acc_applicable(stmt, name, ctx_idx):
            self._process_accumulator(stmt, name, ctx_idx, pos, acc, stash)
            return
        kind, vals = self._eval(stmt.expr, ctx_idx, None, stash)
        self.scalar_state[name] = _Def(ctx_idx, vals, kind)
        if ctx.n:
            self.candidates.append(
                (name, ctx_idx, pos, None, ctx.n - 1, _pyval(kind, vals[-1]))
            )
        self.processed.add(id(stmt))

  # -- references ---------------------------------------------------------

    def _walk_refs(self, expr, ctx_idx, pos, iter_val, slot, sel, stash) -> int:
        """Emit one ref group per array reference in ``expr``, in the
        interpreter's evaluation order, stashing element offsets for
        later value reads.  Returns the next free slot number."""
        for ref in _expr_refs(expr):
            offs, pages = self._offsets_pages(ref, ctx_idx, sel, stash)
            stash[id(ref)] = offs
            self._emit_ref(ctx_idx, pos, iter_val, slot, sel, pages)
            slot += 1
        return slot

    def _emit_ref(self, ctx_idx, pos, iter_val, slot, sel, pages) -> None:
        self.ref_groups.append((ctx_idx, pos, iter_val, slot, sel, pages))
        self.total_refs += len(pages)

    def _offsets_pages(self, ref, ctx_idx, sel, stash):
        placement = self.layout.placements.get(ref.name)
        if placement is None:
            raise _Fallback
        info = placement.info
        iv = self._int_vec(self._eval(ref.indices[0], ctx_idx, sel, stash))
        if iv.size and (iv.min() < 1 or iv.max() > info.rows):
            raise _Fallback  # interpreter raises a subscript error
        if info.rank == 2:
            jv = self._int_vec(self._eval(ref.indices[1], ctx_idx, sel, stash))
            if jv.size and (jv.min() < 1 or jv.max() > info.columns):
                raise _Fallback
            linear = (jv - 1) * info.rows + (iv - 1)
        else:
            linear = iv - 1
        pages = placement.first_page + linear // self.epp
        return linear, pages

  # -- expression evaluation ----------------------------------------------

    def _int_vec(self, kv) -> np.ndarray:
        """The interpreter's ``_int_value``: ints pass, integral floats
        convert, anything else is an error (so we fall back)."""
        kind, vals = kv
        if kind == "i":
            return vals
        if vals.size and (
            not np.isfinite(vals).all()
            or (np.trunc(vals) != vals).any()
            or np.abs(vals).max() >= _INT_LIMIT
        ):
            raise _Fallback
        return vals.astype(np.int64)

    def _out_n(self, ctx_idx, sel) -> int:
        return len(sel) if sel is not None else self.ctxs[ctx_idx].n

    def _eval(self, expr, ctx_idx, sel, stash):
        """Vectorized exact evaluation: returns ``(kind, values)`` with
        kind 'i' (int64, magnitudes < 2**62) or 'f' (float64), bitwise
        identical to the interpreter's per-instance results."""
        n = self._out_n(ctx_idx, sel)
        if isinstance(expr, ast.Num):
            v = expr.value
            if isinstance(v, int):
                if abs(v) >= _INT_LIMIT:
                    raise _Fallback
                return ("i", np.full(n, v, dtype=np.int64))
            return ("f", np.full(n, v, dtype=np.float64))
        if isinstance(expr, ast.Var):
            return self._resolve(expr.name, ctx_idx, sel)
        if isinstance(expr, ast.LogicalLit):
            return ("i", np.full(n, 1 if expr.value else 0, dtype=np.int64))
        if isinstance(expr, ast.ArrayRef):
            offs = stash.get(id(expr))
            if offs is None:  # pragma: no cover - walk order guarantees this
                raise _Fallback
            return self._arr_read(expr.name, offs, ctx_idx, sel)
        if isinstance(expr, ast.UnaryOp):
            kind, vals = self._eval(expr.operand, ctx_idx, sel, stash)
            if expr.op == ".NOT.":
                return ("i", (vals == 0).astype(np.int64))
            return (kind, -vals)
        if isinstance(expr, ast.BinOp):
            lkv = self._eval(expr.left, ctx_idx, sel, stash)
            rkv = self._eval(expr.right, ctx_idx, sel, stash)
            return self._binop(expr.op, lkv, rkv)
        if isinstance(expr, ast.Compare):
            lk, lv = self._eval(expr.left, ctx_idx, sel, stash)
            rk, rv = self._eval(expr.right, ctx_idx, sel, stash)
            if lk != rk:
                lv = _to_float(lk, lv)
                rv = _to_float(rk, rv)
            op = expr.op
            if op == "<":
                res = lv < rv
            elif op == "<=":
                res = lv <= rv
            elif op == ">":
                res = lv > rv
            elif op == ">=":
                res = lv >= rv
            elif op == "==":
                res = lv == rv
            elif op == "/=":
                res = lv != rv
            else:
                raise _Fallback
            return ("i", res.astype(np.int64))
        if isinstance(expr, ast.LogicalOp):
            _lk, lv = self._eval(expr.left, ctx_idx, sel, stash)
            _rk, rv = self._eval(expr.right, ctx_idx, sel, stash)
            lb = lv != 0
            rb = rv != 0
            res = (lb & rb) if expr.op == ".AND." else (lb | rb)
            return ("i", res.astype(np.int64))
        if isinstance(expr, ast.Call):
            args = [self._eval(a, ctx_idx, sel, stash) for a in expr.args]
            return self._call(expr.name, args, n)
        raise _Fallback

    def _binop(self, op, lkv, rkv):
        lk, lv = lkv
        rk, rv = rkv
        both_int = lk == "i" and rk == "i"
        if op in ("+", "-"):
            if both_int:
                if _imax(lv) + _imax(rv) >= _INT_LIMIT:
                    raise _Fallback
                return ("i", lv + rv if op == "+" else lv - rv)
            lv, rv = _to_float(lk, lv), _to_float(rk, rv)
            return ("f", lv + rv if op == "+" else lv - rv)
        if op == "*":
            if both_int:
                if _imax(lv) * _imax(rv) >= _INT_LIMIT:
                    raise _Fallback
                return ("i", lv * rv)
            return ("f", _to_float(lk, lv) * _to_float(rk, rv))
        if op == "/":
            if both_int:
                if rv.size and (rv == 0).any():
                    raise _Fallback  # interpreter: division by zero
                q = np.abs(lv) // np.abs(rv)
                return ("i", np.where((lv >= 0) == (rv >= 0), q, -q))
            lv, rv = _to_float(lk, lv), _to_float(rk, rv)
            if rv.size and (rv == 0.0).any():
                raise _Fallback
            return ("f", lv / rv)
        if op == "**":
            return self._pow(lkv, rkv)
        raise _Fallback

    def _pow(self, lkv, rkv):
        """Python ``**`` semantics element by element.  Rare in the
        workloads, so an exact object-level loop is acceptable."""
        lk, lv = lkv
        rk, rv = rkv
        out = []
        int_only = True
        float_only = True
        for a, b in zip(lv.tolist(), rv.tolist()):
            if isinstance(a, int) and isinstance(b, int) and b > 128:
                raise _Fallback  # huge-integer blowup guard
            try:
                r = a**b
            except (OverflowError, ZeroDivisionError):
                raise _Fallback  # interpreter raises InterpreterError
            if isinstance(r, complex):
                raise _Fallback  # "negative base with fractional exponent"
            if isinstance(r, int):
                if abs(r) >= _INT_LIMIT:
                    raise _Fallback
                float_only = False
            else:
                int_only = False
            out.append(r)
        if not out:
            kind = "f" if "f" in (lk, rk) else "i"
            dtype = np.float64 if kind == "f" else np.int64
            return (kind, np.empty(0, dtype=dtype))
        if int_only:
            return ("i", np.array(out, dtype=np.int64))
        if float_only:
            return ("f", np.array(out, dtype=np.float64))
        raise _Fallback  # mixed result kinds in one vector

    def _call(self, name, args, n):
        if name == "SQRT":
            v = _to_float(*args[0])
            if v.size and not (v >= 0).all():
                raise _Fallback  # domain error (or NaN) in interpreter
            return ("f", np.sqrt(v))
        fn = _UNARY_MATH.get(name)
        if fn is not None:
            v = _to_float(*args[0])
            try:
                out = np.frompyfunc(fn, 1, 1)(v)
            except (ValueError, OverflowError):
                raise _Fallback
            return ("f", out.astype(np.float64) if v.size else v)
        if name in ("ABS", "IABS"):
            k, v = args[0]
            return (k, np.abs(v))
        if name in ("MOD", "AMOD"):
            (lk, lv), (rk, rv) = args
            if lk == "i" and rk == "i":
                if rv.size and (rv == 0).any():
                    raise _Fallback
                q = np.abs(lv) // np.abs(rv)
                q = np.where((lv >= 0) == (rv >= 0), q, -q)
                return ("i", lv - q * rv)
            lv, rv = _to_float(lk, lv), _to_float(rk, rv)
            if lv.size and (np.isinf(lv).any() or (rv == 0.0).any()):
                raise _Fallback  # math.fmod raises ValueError
            return ("f", np.fmod(lv, rv))
        if name in ("MIN", "MAX", "MIN0", "MAX0", "AMIN1", "AMAX1"):
            kinds = {k for k, _ in args}
            if len(kinds) != 1:
                raise _Fallback  # python min/max returns a data-dependent kind
            kind = kinds.pop()
            vecs = [v for _, v in args]
            if kind == "f" and any(v.size and np.isnan(v).any() for v in vecs):
                raise _Fallback  # NaN ordering differs from np.minimum
            red = np.minimum if name in ("MIN", "MIN0", "AMIN1") else np.maximum
            out = vecs[0]
            for v in vecs[1:]:
                out = red(out, v)
            return (kind, out)
        if name in ("SIGN", "ISIGN"):
            (ak, av), (_bk, bv) = args
            mag = np.abs(av)
            return (ak, np.where(bv >= 0, mag, -mag))
        if name in ("FLOAT", "REAL", "DBLE"):
            return ("f", _to_float(*args[0]))
        if name in ("INT", "IFIX"):
            k, v = args[0]
            if k == "i":
                return ("i", v)
            if v.size and (
                not np.isfinite(v).all() or np.abs(v).max() >= _INT_LIMIT
            ):
                raise _Fallback
            return ("i", np.trunc(v).astype(np.int64))
        if name == "NINT":
            k, v = args[0]
            if k == "i":
                return ("i", v)
            if v.size and (
                not np.isfinite(v).all() or np.abs(v).max() >= _INT_LIMIT
            ):
                raise _Fallback
            return ("i", np.rint(v).astype(np.int64))
        raise _Fallback

  # -- scalar name resolution ---------------------------------------------

    def _chain_loops(self, ctx_idx) -> Tuple[int, ...]:
        return tuple(
            self.ctxs[c].loop.loop_id
            for c in self.ctxs[ctx_idx].chain
            if self.ctxs[c].loop is not None
        )

    def _compose_up(self, from_ctx, to_ctx, idx):
        c = from_ctx
        while c != to_ctx:
            ctx = self.ctxs[c]
            idx = ctx.parent_idx[idx]
            c = ctx.parent
        return idx

    def _anc_map(self, from_ctx, to_ctx):
        key = (from_ctx, to_ctx)
        m = self._anc_cache.get(key)
        if m is None:
            m = self._compose_up(
                from_ctx, to_ctx,
                np.arange(self.ctxs[from_ctx].n, dtype=np.int64),
            )
            self._anc_cache[key] = m
        return m

    def _common_ctx(self, a, b) -> int:
        ca, cb = self.ctxs[a].chain, self.ctxs[b].chain
        common = 0
        for x, y in zip(ca, cb):
            if x != y:
                break
            common += 1
        return ca[common - 1]

    def _carry_hazard(self, name, rec_ctx, read_ctx) -> bool:
        """True when an unprocessed (textually later) definition of
        ``name`` could execute, via an enclosing loop's next iteration,
        between the resolved definition and some read instance."""
        defs = self.scalar_defs.get(name)
        if not defs:
            return False
        read_loops = self._chain_loops(read_ctx)
        rec_loops = set(self._chain_loops(rec_ctx)) if rec_ctx is not None else set()
        for uid, d_chain in defs:
            if uid in self.processed:
                continue
            common = 0
            for x, y in zip(d_chain, read_loops):
                if x != y:
                    break
                common += 1
            for lid in read_loops[:common]:
                if lid in rec_loops:
                    continue  # re-defined every iteration of lid: dominated
                if self.ctxs[self.ctx_of_loop[lid]].max_trip > 1:
                    return True
        return False

    def _resolve(self, name, ctx_idx, sel):
        rec = self.scalar_state.get(name)
        if rec is not None and rec.values is None:
            raise _Fallback  # value requested for an untainted def
        if rec is None:
            if self._carry_hazard(name, 0, ctx_idx):
                raise _Fallback
            if name not in self.it.scalars:
                raise _Fallback  # interpreter: used before assignment
            v = self.it.scalars[name]
            n = self._out_n(ctx_idx, sel)
            if isinstance(v, int):
                if abs(v) >= _INT_LIMIT:
                    raise _Fallback
                return ("i", np.full(n, v, dtype=np.int64))
            return ("f", np.full(n, float(v), dtype=np.float64))
        if self._carry_hazard(name, rec.ctx, ctx_idx):
            raise _Fallback
        ctx = self.ctxs[ctx_idx]
        if rec.ctx == ctx_idx:
            return (rec.kind, rec.values if sel is None else rec.values[sel])
        if rec.ctx in ctx.chain:
            idx = sel if sel is not None else np.arange(ctx.n, dtype=np.int64)
            idx = self._compose_up(ctx_idx, rec.ctx, idx)
            return (rec.kind, rec.values[idx])
  # Definition is deeper or on a divergent (earlier) branch: the
  # read sees the last def instance executed before it -- resolved
  # per common-ancestor instance.
        a = self._common_ctx(rec.ctx, ctx_idx)
        anc = self._anc_map(rec.ctx, a)
        idx = sel if sel is not None else np.arange(ctx.n, dtype=np.int64)
        read_at_a = self._compose_up(ctx_idx, a, idx)
        ends = np.searchsorted(anc, read_at_a, side="right") - 1
        safe = np.maximum(ends, 0)
        if rec.acc_seed_ctx != -2:
            seed_ctx = rec.acc_seed_ctx
            sanc = self._anc_map(rec.ctx, seed_ctx)
            read_at_seed = self._compose_up(ctx_idx, seed_ctx, idx)
            valid = (ends >= 0) & (sanc[safe] == read_at_seed)
            if valid.all():
                return (rec.kind, rec.values[safe])
            if rec.acc_seed_kind != rec.kind:
                raise _Fallback  # pre-seed reads would change kind
            seed_vals = rec.acc_seed_values[read_at_seed]
            return (rec.kind, np.where(valid, rec.values[safe], seed_vals))
        if (ends < 0).any():
            raise _Fallback  # some read precedes every def instance
        if (anc[safe] != read_at_a).any() and len(self.scalar_defs.get(name, ())) != 1:
  # an ancestor instance with no def instance falls through to
  # an older definition we no longer have -- unless this site
  # is the only one, in which case the carry IS the value.
            raise _Fallback
        return (rec.kind, rec.values[ends])

    def _check_exists(self, name, ctx_idx, sel) -> None:
        """Reference-only mode: prove the interpreter would find a value
        for ``name`` at every instance (the value itself is irrelevant)."""
        if name in self.it.scalars:
            return
        rec = self.scalar_state.get(name)
        if rec is None or rec.guarded:
            raise _Fallback
        if rec.ctx == ctx_idx or rec.ctx in self.ctxs[ctx_idx].chain:
            return
        a = self._common_ctx(rec.ctx, ctx_idx)
        anc = self._anc_map(rec.ctx, a)
        if sel is not None:
            idx = sel
        else:
            idx = np.arange(self.ctxs[ctx_idx].n, dtype=np.int64)
        read_at_a = self._compose_up(ctx_idx, a, idx)
        if (np.searchsorted(anc, read_at_a, side="right") == 0).any():
            raise _Fallback

    def _check_effects(self, expr, ctx_idx, sel, stash) -> None:
        """Reference-only mode: prove evaluating ``expr`` cannot raise.
        Subscript expressions were already evaluated exactly during the
        slot walk, so array references need no further checks."""
        if isinstance(expr, (ast.Num, ast.LogicalLit, ast.ArrayRef)):
            return
        if isinstance(expr, ast.Var):
            self._check_exists(expr.name, ctx_idx, sel)
            return
        if isinstance(expr, ast.UnaryOp):
            self._check_effects(expr.operand, ctx_idx, sel, stash)
            return
        if isinstance(expr, (ast.Compare, ast.LogicalOp)):
            self._check_effects(expr.left, ctx_idx, sel, stash)
            self._check_effects(expr.right, ctx_idx, sel, stash)
            return
        if isinstance(expr, ast.BinOp):
            if expr.op == "/":
                self._check_effects(expr.left, ctx_idx, sel, stash)
                rk, rv = self._eval(expr.right, ctx_idx, sel, stash)
                if rv.size and (rv == 0).any():
                    raise _Fallback
                return
            if expr.op == "**":
                lkv = self._eval(expr.left, ctx_idx, sel, stash)
                rkv = self._eval(expr.right, ctx_idx, sel, stash)
                self._pow(lkv, rkv)
                return
            self._check_effects(expr.left, ctx_idx, sel, stash)
            self._check_effects(expr.right, ctx_idx, sel, stash)
            return
        if isinstance(expr, ast.Call):
            if expr.name in _SAFE_INTRINSICS:
                for a in expr.args:
                    self._check_effects(a, ctx_idx, sel, stash)
                return
            args = [self._eval(a, ctx_idx, sel, stash) for a in expr.args]
            self._call(expr.name, args, self._out_n(ctx_idx, sel))
            return
        raise _Fallback

  # -- loop-carried accumulators ------------------------------------------

    def _accumulator_shape(self, stmt, name):
        """``S = S + e`` / ``S = e + S`` / ``S = S - e`` with ``e`` not
        reading ``S``: returns ``(e, sign)`` or None."""
        expr = stmt.expr
        if not isinstance(expr, ast.BinOp) or expr.op not in ("+", "-"):
            return None
        left_is = isinstance(expr.left, ast.Var) and expr.left.name == name
        right_is = isinstance(expr.right, ast.Var) and expr.right.name == name
        if expr.op == "+":
            if left_is and name not in _reads_of(expr.right):
                return (expr.right, 1)
            if right_is and name not in _reads_of(expr.left):
                return (expr.left, 1)
        elif left_is and name not in _reads_of(expr.right):
            return (expr.right, -1)
        return None

    def _acc_applicable(self, stmt, name, ctx_idx) -> bool:
        for uid, _chain in self.scalar_defs.get(name, ()):
            if uid != id(stmt) and uid not in self.processed:
                return False
        rec = self.scalar_state.get(name)
        if rec is None:
            return name in self.it.scalars
        if rec.values is None:
            return False
  # the seed must be a per-ancestor-instance value fixed at entry
        return rec.ctx != ctx_idx and rec.ctx in self.ctxs[ctx_idx].chain

    def _process_accumulator(self, stmt, name, ctx_idx, pos, acc, stash) -> None:
        e, sign = acc
        ctx = self.ctxs[ctx_idx]
        ek, ev = self._eval(e, ctx_idx, None, stash)
        rec = self.scalar_state.get(name)
        if rec is None:
            v = self.it.scalars[name]
            seed_ctx = 0
            if isinstance(v, int):
                if abs(v) >= _INT_LIMIT:
                    raise _Fallback
                sk, sv = "i", np.full(1, v, dtype=np.int64)
            else:
                sk, sv = "f", np.full(1, float(v), dtype=np.float64)
        else:
            seed_ctx, sk, sv = rec.ctx, rec.kind, rec.values
        kind = "f" if "f" in (ek, sk) else "i"
        ev_p = ev if ek == kind else _to_float(ek, ev)
        sv_p = sv if sk == kind else _to_float(sk, sv)
        if sign < 0:
            ev_p = -ev_p
        anc = self._anc_map(ctx_idx, seed_ctx)
        ng = self.ctxs[seed_ctx].n
        if ctx.n:
            counts = np.bincount(anc, minlength=ng)
        else:
            counts = np.zeros(ng, dtype=np.int64)
        max_t = int(counts.max()) if ng else 0
        if ng * (max_t + 1) > 20_000_000:
            raise _Fallback  # rectangle too ragged to be worth it
        starts = np.searchsorted(anc, np.arange(ng, dtype=np.int64))
        within = np.arange(ctx.n, dtype=np.int64) - starts[anc]
        dtype = np.int64 if kind == "i" else np.float64
        rect = np.zeros((ng, max_t + 1), dtype=dtype)
        rect[:, 0] = sv_p
        rect[anc, within + 1] = ev_p
        if kind == "i" and rect.size:
            mags = np.abs(rect).astype(np.float64).cumsum(axis=1)
            if mags.max() >= float(_INT_LIMIT):
                raise _Fallback
        vals = rect.cumsum(axis=1)[anc, within + 1]
        new = _Def(ctx_idx, vals, kind)
        new.acc_seed_ctx = seed_ctx
        new.acc_seed_values = sv_p
        new.acc_seed_kind = sk
        self.scalar_state[name] = new
        if ctx.n:
            self.candidates.append(
                (name, ctx_idx, pos, None, ctx.n - 1, _pyval(kind, vals[-1]))
            )
        self.processed.add(id(stmt))

  # -- array value reads --------------------------------------------------

    def _early_name_ok(self, nm, ctx_idx) -> bool:
        """True when ``nm``'s value at a later statement of the same
        iteration provably equals its value now: either nest-invariant,
        or the variable of an active enclosing loop with no other defs."""
        sites = self.scalar_defs.get(nm)
        if sites is None:
            return nm in self.it.scalars
        for c in self.ctxs[ctx_idx].chain:
            loop = self.ctxs[c].loop
            if loop is not None and loop.var == nm:
                return all(uid == id(loop) for uid, _ in sites)
        return False

    def _arr_read(self, name, offs, ctx_idx, sel):
        """Exact value of an array read: pre-nest state plus any
        forwarding from writers processed so far; falls back whenever a
        write could interleave in a way we cannot replay in bulk."""
        cur = self.it.arrays[name][offs]
        for uid, stmt, chain, guarded in self.array_writers.get(name, ()):
            rec = self.writer_recs.get(uid)
            if rec is not None:
                w_ctx, w_sel, w_offs, w_vals = rec
                if w_ctx == ctx_idx and w_sel is None:
                    wo = w_offs if sel is None else w_offs[sel]
                    if wo.shape == offs.shape and (wo == offs).all():
                        cur = (w_vals if sel is None else w_vals[sel]).copy()
                        continue
                    if not _overlaps(offs, w_offs):
                        continue
                    raise _Fallback
                if _overlaps(offs, w_offs):
                    raise _Fallback  # cross-context interleaving
                continue
            if uid in self.processed:
                continue  # a guarded writer that never fired
  # Unprocessed: this writer runs later in the current
  # iteration (or deeper, not yet reached).
            if guarded or self.ctx_of_loop.get(chain[-1]) != ctx_idx:
                raise _Fallback
            tgt = stmt.target
            for ix in tgt.indices:
                if any(True for _ in _expr_refs(ix)):
                    raise _Fallback
                for nm in _reads_of(ix):
                    if nm in self.it.symbols.arrays:
                        raise _Fallback
                    if not self._early_name_ok(nm, ctx_idx):
                        raise _Fallback
            w_offs, _pages = self._offsets_pages(tgt, ctx_idx, None, {})
            wo = w_offs if sel is None else w_offs[sel]
            if wo.shape == offs.shape and (wo == offs).all():
  # each instance reads the very cell it will overwrite
  # later; safe iff no earlier instance already wrote it
                if _has_dups(w_offs):
                    raise _Fallback
                continue
            if not _overlaps(offs, w_offs):
                continue
            raise _Fallback
        return ("f", cur)

  # -- materialization ----------------------------------------------------

    def _materialize(self) -> _Batch:
        it = self.it
        cap = it.max_references - len(it._refs)
        truncated = self.total_refs >= cap
        width = max(len(c.cols) for c in self.ctxs) + 2
        radix = [1] * width
        for ctx in self.ctxs:
            for j, col in enumerate(ctx.cols):
                if len(col):
                    radix[j] = max(radix[j], int(col.max()) + 1)
            if ctx.loop is not None:
                j = len(ctx.cols) - 1
                radix[j] = max(radix[j], ctx.max_trip + 2)
        def bump(ctx_idx, pos, iter_val, slot):
            j = len(self.ctxs[ctx_idx].cols)
            radix[j] = max(radix[j], pos + 1)
            if iter_val is not None:
                radix[j + 1] = max(radix[j + 1], iter_val + 1)
            if slot is not None:
                radix[width - 1] = max(radix[width - 1], slot + 1)
        for g in self.ref_groups:
            bump(g[0], g[1], g[2], g[3])
        for g in self.evt_groups:
            bump(g[0], g[1], g[2], g[3])
        for name, ctx_idx, pos, iter_val, _inst, _val in self.candidates:
            bump(ctx_idx, pos, iter_val, None)
        for groups in self.store_groups.values():
            for ctx_idx, pos, _sel, _offs, _vals in groups:
                bump(ctx_idx, pos, None, None)
        S = [1] * width
        for j in range(width - 2, -1, -1):
            S[j] = S[j + 1] * radix[j + 1]
        if S[0] * radix[0] >= 1 << 63:
            raise _Fallback  # key space exceeds int64
        prefixes = []
        for ctx in self.ctxs:
            p = np.zeros(ctx.n, dtype=np.int64)
            for j, col in enumerate(ctx.cols):
                p += col * S[j]
            prefixes.append(p)

        def group_keys(ctx_idx, pos, iter_val, slot, sel):
            j = len(self.ctxs[ctx_idx].cols)
            base = prefixes[ctx_idx]
            if sel is not None:
                base = base[sel]
            key = base + pos * S[j] + slot
            if iter_val is not None:
                key = key + iter_val * S[j + 1]
            return key

        empty_i = np.empty(0, dtype=np.int64)
        ref_keys = [empty_i]
        ref_pages = [empty_i]
        for ctx_idx, pos, iter_val, slot, sel, pages in self.ref_groups:
            ref_keys.append(group_keys(ctx_idx, pos, iter_val, slot, sel))
            ref_pages.append(pages)
        rk = np.concatenate(ref_keys)
        rp = np.concatenate(ref_pages)
        evt_keys = [empty_i]
        evt_gidx = [empty_i]
        for gi, (ctx_idx, pos, iter_val, slot, _kind, _site, _req) in enumerate(
            self.evt_groups
        ):
            keys = group_keys(ctx_idx, pos, iter_val, slot, None)
            evt_keys.append(keys)
            evt_gidx.append(np.full(len(keys), gi, dtype=np.int64))
        ek = np.concatenate(evt_keys)
        eg = np.concatenate(evt_gidx)
        nr = len(rk)
        order = np.argsort(np.concatenate([rk, ek]), kind="stable")
        is_evt = order >= nr
        pages_sorted = rp[order[~is_evt]]
        evt_local_pos = np.cumsum(~is_evt)[is_evt]
        evt_sorted_gidx = eg[order[is_evt] - nr]
        base = len(it._refs)
        events = []
        locks = None
        lock_refs = _LockRefs(it, pages_sorted)
        for local, gi in zip(evt_local_pos.tolist(), evt_sorted_gidx.tolist()):
            if truncated and local >= cap:
                break  # the trace fills before this event fires
            _c, _p, _iv, _s, kind, site, payload = self.evt_groups[gi]
            if kind is DirectiveKind.ALLOCATE:
                events.append(DirectiveEvent(
                    position=base + local, kind=kind, site=site,
                    requests=payload,
                ))
                continue
            if locks is None:
                locks = it._locks.copy()
            if kind is DirectiveKind.LOCK:
                root = it._lock_root(self.root.loop_id)
                pages = [lock_refs.page_before(name, local) for name in payload.arrays]
                events.append(locks.lock(payload, root, pages, base + local))
            else:
                events.append(locks.unlock(site, base + local))
        if truncated:
            return _Batch(pages_sorted[:cap].tolist(), events, True,
                          self.nest_ops, {}, [])
        best: Dict[str, Tuple[int, object]] = {}
        for name, ctx_idx, pos, iter_val, inst, val in self.candidates:
            j = len(self.ctxs[ctx_idx].cols)
            key = int(prefixes[ctx_idx][inst]) + pos * S[j]
            if iter_val is not None:
                key += iter_val * S[j + 1]
            old = best.get(name)
            if old is None or key > old[0]:
                best[name] = (key, val)
        scalars = {name: kv[1] for name, kv in best.items()}
        array_stores = []
        for name, groups in self.store_groups.items():
            keys_l, offs_l, vals_l = [empty_i], [empty_i], [np.empty(0)]
            for ctx_idx, pos, sel, offs, vals in groups:
                keys_l.append(group_keys(ctx_idx, pos, None, 0, sel))
                offs_l.append(offs)
                vals_l.append(vals)
            k = np.concatenate(keys_l)
            o = np.concatenate(offs_l)
            v = np.concatenate(vals_l)
            ordr = np.argsort(k, kind="stable")
            array_stores.append((name, o[ordr], v[ordr]))
        last_pages = {
            name: lock_refs.page_before(name, len(pages_sorted))
            for name in self.comp.lock_arrays
        }
        return _Batch(pages_sorted.tolist(), events, False, self.nest_ops,
                      scalars, array_stores, locks, last_pages)


class _LockRefs:
    """Last-page queries over one batch's sorted pages, for LOCK
    resolution.  Arrays own disjoint page ranges, so an array's last
    page before batch position ``p`` is one ``searchsorted`` over the
    batch indices that fall in its range; with none there, the page
    comes from the interpreter (its last page, or the array's first)."""

    __slots__ = ("it", "pages", "_idx")

    def __init__(self, it, pages: np.ndarray) -> None:
        self.it = it
        self.pages = pages
        self._idx: Dict[str, np.ndarray] = {}

    def page_before(self, name: str, pos: int) -> int:
        idx = self._idx.get(name)
        if idx is None:
            placement = self.it.layout.placements[name]
            lo = placement.first_page
            idx = np.flatnonzero(
                (self.pages >= lo) & (self.pages < lo + placement.page_count)
            )
            self._idx[name] = idx
        k = int(np.searchsorted(idx, pos)) - 1
        if k < 0:
            return self.it._current_page_of(name)
        return int(self.pages[idx[k]])


def _overlaps(a: np.ndarray, b: np.ndarray) -> bool:
    """Do two offset vectors share any element?  Small vectors (the
    common case in per-bind nests) go through python sets, which beats
    np.isin's sort-based path by an order of magnitude."""
    if not a.size or not b.size:
        return False
    if len(a) + len(b) <= 512:
        return not set(a.tolist()).isdisjoint(b.tolist())
    return bool(np.isin(a, b).any())


def _has_dups(a: np.ndarray) -> bool:
    if len(a) <= 512:
        return len(set(a.tolist())) != len(a)
    return len(np.unique(a)) != len(a)


def _imax(v: np.ndarray) -> int:
    return int(np.abs(v).max()) if v.size else 0


def _to_float(kind: str, vals: np.ndarray) -> np.ndarray:
    if kind == "f":
        return vals
    if vals.size and int(np.abs(vals).max()) >= _FLOAT_EXACT_INT:
        raise _Fallback  # int -> float64 would round
    return vals.astype(np.float64)


def _pyval(kind: str, v) -> object:
    return int(v) if kind == "i" else float(v)
