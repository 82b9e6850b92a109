"""Closed-form generation recipes for single affine DO loops.

The general binder (:class:`repro.tracegen.compile._Binder`) re-derives
a nest's iteration grids, subscript vectors and interleave sort on
*every* binding.  For the two nests that dominate generation cost
(Givens-rotation rows in TQL, elimination rows in HYBRJ) that work is
overkill: one non-nested loop whose subscripts are affine in the loop
variable touches, per site, the arithmetic progression

    offset(t) = lin0 + dlin * t,        t = 0 .. trips-1

so the page string of the whole binding is ``S`` interleaved
progressions — computable (and memoizable) directly.

A recipe is built once per loop (structural checks) and *bound* per
execution (bounds, subscript endpoints, values).  Every rule the binder
enforces is mirrored here; anything not provably identical to
interpretation — non-affine subscripts, loop-carried scalars,
overlapping array updates, any operation that could raise — declines,
and the binder (then the interpreter) takes over.  Declining is always
safe: the recipe touches no interpreter state before returning its
:class:`~repro.tracegen.compile._Batch`, whose pages stay in closed
form (:class:`~repro.analysis.staticloc.affine.ClosedFormPages`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.frontend import ast
from repro.tracegen.compile import _Batch, _expr_refs, _overlaps
from repro.tracegen.events import DirectiveEvent, DirectiveKind
from repro.tracegen.interpreter import _fortran_int_div

__all__ = ["Recipe", "build_recipe"]

#: mirrors of the binder's guards
_MAX_INSTANCES = 40_000_000
_BOUND_LIMIT = 1 << 31
#: ints at or above this are not exactly representable as float64
_FLOAT_EXACT_INT = 1 << 53


class _Decline(Exception):
    """Internal: this loop (or this binding of it) has no recipe."""


# -- build-time structural checks -------------------------------------------


def _index_degree(expr, var: str, body_defined: Set[str], free: Set[str]) -> int:
    """Degree of a subscript expression in the loop variable; collects
    free scalar names.  Only integer +,-,* forms qualify."""
    if isinstance(expr, ast.Num):
        if not isinstance(expr.value, int):
            raise _Decline
        return 0
    if isinstance(expr, ast.Var):
        if expr.name == var:
            return 1
        if expr.name in body_defined:
            raise _Decline  # varies per iteration in a non-affine way
        free.add(expr.name)
        return 0
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        return _index_degree(expr.operand, var, body_defined, free)
    if isinstance(expr, ast.BinOp):
        ld = _index_degree(expr.left, var, body_defined, free)
        rd = _index_degree(expr.right, var, body_defined, free)
        if expr.op in ("+", "-"):
            return max(ld, rd)
        if expr.op == "*":
            return ld + rd
    raise _Decline


def _value_ok(expr, var: str, body_defined: Set[str], defined: Set[str]) -> None:
    """Value expressions may read scalars/arrays and combine them with
    +,-,*,/ and unary minus; the loop variable itself and any
    body-defined scalar not yet textually defined decline."""
    if isinstance(expr, ast.Num):
        return
    if isinstance(expr, ast.Var):
        if expr.name == var:
            raise _Decline
        if expr.name in body_defined and expr.name not in defined:
            raise _Decline  # loop-carried (or uninitialized) scalar
        return
    if isinstance(expr, ast.ArrayRef):
        return  # subscripts are validated as sites
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        _value_ok(expr.operand, var, body_defined, defined)
        return
    if isinstance(expr, ast.BinOp) and expr.op in ("+", "-", "*", "/"):
        _value_ok(expr.left, var, body_defined, defined)
        _value_ok(expr.right, var, body_defined, defined)
        return
    raise _Decline


def _ieval(expr, var: str, vval: int, scalars: Dict[str, int]) -> int:
    """Exact integer value of a subscript expression at one loop-variable
    value (all participating values pre-verified to be ints)."""
    if isinstance(expr, ast.Num):
        return expr.value
    if isinstance(expr, ast.Var):
        return vval if expr.name == var else scalars[expr.name]
    if isinstance(expr, ast.UnaryOp):
        return -_ieval(expr.operand, var, vval, scalars)
    op = expr.op
    left = _ieval(expr.left, var, vval, scalars)
    right = _ieval(expr.right, var, vval, scalars)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    return left * right


class _Assign:
    __slots__ = ("target_name", "array_site", "rhs", "rhs_sites", "tainted")

    def __init__(self, target_name, array_site, rhs, rhs_sites, tainted):
        self.target_name = target_name
        self.array_site = array_site  # site index, or None for scalars
        self.rhs = rhs
        self.rhs_sites = rhs_sites  # id(ArrayRef) -> site index
        self.tainted = tainted


def build_recipe(comp, loop: ast.DoLoop) -> Optional["Recipe"]:
    """Structural eligibility check; returns a bindable Recipe or None."""
    try:
        return _build(comp, loop)
    except _Decline:
        return None


def _build(comp, loop: ast.DoLoop) -> "Recipe":
    var = loop.var
    arrays = comp.it.symbols.arrays
    body = loop.body
    assign_stmts = []
    for stmt in body:
        if isinstance(stmt, ast.Continue):
            continue
        if not isinstance(stmt, ast.Assign):
            raise _Decline  # nested loops / IFs / PRINTs: binder's job
        assign_stmts.append(stmt)
    body_defined = {
        s.target.name for s in assign_stmts if isinstance(s.target, ast.Var)
    }
    if var in body_defined:
        raise _Decline
    for bound in (loop.start, loop.end, loop.step):
        if bound is not None and any(True for _ in _expr_refs(bound)):
            raise _Decline  # bounds with references stay on the binder path

    sites: List[ast.ArrayRef] = []
    free: Set[str] = set()
    specs: List[_Assign] = []
    defined: Set[str] = set()
    writes_by_array: Dict[str, List[Tuple[int, int]]] = {}

    def check_site(ref: ast.ArrayRef) -> None:
        info = arrays.get(ref.name)
        if info is None or len(ref.indices) not in (1, 2):
            raise _Decline
        for e in ref.indices:
            if _index_degree(e, var, body_defined, free) > 1:
                raise _Decline

    for stmt in assign_stmts:
        rhs_sites: Dict[int, int] = {}
        for ref in _expr_refs(stmt.expr):
            check_site(ref)
            rhs_sites[id(ref)] = len(sites)
            sites.append(ref)
        _value_ok(stmt.expr, var, body_defined, defined)
        target = stmt.target
        if isinstance(target, ast.Var):
            specs.append(
                _Assign(target.name, None, stmt.expr, rhs_sites,
                        target.name in comp.tainted)
            )
            defined.add(target.name)
        elif isinstance(target, ast.ArrayRef):
            check_site(target)
            site_idx = len(sites)
            sites.append(target)
            specs.append(
                _Assign(target.name, site_idx, stmt.expr, rhs_sites,
                        target.name in comp.tainted)
            )
            writes_by_array.setdefault(target.name, []).append(
                (len(specs) - 1, site_idx)
            )
        else:
            raise _Decline
    return Recipe(loop, len(body), sites, specs, writes_by_array, free)


# -- the recipe itself -------------------------------------------------------


class Recipe:
    """A bindable closed form for one structurally eligible loop."""

    def __init__(self, loop, body_len, sites, specs, writes_by_array, free):
        self.loop = loop
        self.body_len = body_len
        self.sites = sites
        self.specs = specs
        self.writes_by_array = writes_by_array
        self.free_names = free
        self.n_sites = len(sites)
        #: array -> its last site in an iteration (LOCK write-back)
        self._last_site = {ref.name: s for s, ref in enumerate(sites)}
        self.period_hints = [self.n_sites] if self.n_sites else []
        #: (trips, site APs) -> offsets per site
        self._offset_memo: Dict[tuple, list] = {}

    def bind_static(self, it) -> Optional[_Batch]:
        """One execution of the loop as a batch whose pages are a
        :class:`~repro.analysis.staticloc.affine.ClosedFormPages`
        placeholder — length and run structure in closed form, no
        per-reference list — or None when this binding is not provably
        exact.  A truncating binding materializes its capped prefix
        (truncation is terminal and happens once)."""
        try:
            return self._bind(it)
        except _Decline:
            return None

    # -- bind-time ----------------------------------------------------------

    def _bind(self, it) -> _Batch:
        loop = self.loop
        try:
            start = _int_like(it._eval(loop.start))
            end = _int_like(it._eval(loop.end))
            step = _int_like(it._eval(loop.step)) if loop.step is not None else 1
        except _Decline:
            raise
        except Exception:
            raise _Decline from None  # interpreter will raise the real error
        if step == 0:
            raise _Decline
        if max(abs(start), abs(end), abs(step)) > _BOUND_LIMIT:
            raise _Decline
        trips = max(0, (end - start + step) // step)
        if trips < 1 or trips > _MAX_INSTANCES:
            raise _Decline
        nest_ops = trips * self.body_len
        if nest_ops > it.max_operations - it._operations:
            raise _Decline  # the interpreter must raise mid-nest

        fv: Dict[str, int] = {}
        for nm in self.free_names:
            v = it.scalars.get(nm)
            if not isinstance(v, int):
                raise _Decline
            fv[nm] = v
        v0 = start
        v1 = start + (trips - 1) * step
        aps: List[Tuple[int, int]] = []
        for ref in self.sites:
            placement = it.layout.placements.get(ref.name)
            if placement is None:
                raise _Decline
            info = placement.info
            i0 = _ieval(ref.indices[0], loop.var, v0, fv)
            i1 = _ieval(ref.indices[0], loop.var, v1, fv)
            if not (1 <= i0 <= info.rows and 1 <= i1 <= info.rows):
                raise _Decline  # interpreter raises a subscript error
            if len(ref.indices) == 2:
                j0 = _ieval(ref.indices[1], loop.var, v0, fv)
                j1 = _ieval(ref.indices[1], loop.var, v1, fv)
                if not (1 <= j0 <= info.columns and 1 <= j1 <= info.columns):
                    raise _Decline
                lin0 = (j0 - 1) * info.rows + (i0 - 1)
                lin1 = (j1 - 1) * info.rows + (i1 - 1)
            else:
                lin0, lin1 = i0 - 1, i1 - 1
            if trips > 1:
                if (lin1 - lin0) % (trips - 1):
                    raise _Decline  # non-affine after all; play safe
                dlin = (lin1 - lin0) // (trips - 1)
            else:
                dlin = 0
            aps.append((lin0, dlin))

        offsets = self._offsets_for(trips, aps)
        pages = self._closed_pages(it, trips, aps)
        env, writer_vals = self._run_values(it, trips, aps, offsets)

        base = len(it._refs)
        n_refs = self.n_sites * trips
        cap = it.max_references - base
        truncated = n_refs >= cap
        events = []
        locks = None
        plan = it.plan
        if plan is not None:
            lock = plan.locks_before.get(loop.loop_id)
            if lock is not None:
                # no reference of the binding precedes its LOCK
                locks = it._locks.copy()
                held = [it._current_page_of(name) for name in lock.arrays]
                events.append(
                    locks.lock(lock, it._lock_root(loop.loop_id), held, base)
                )
            allocate = plan.allocates.get(loop.loop_id)
            if allocate is not None:
                events.append(DirectiveEvent(
                    position=base, kind=DirectiveKind.ALLOCATE,
                    site=loop.loop_id, requests=allocate.requests,
                ))
            if loop.loop_id in plan.unlocks_after and not truncated:
                locks = locks or it._locks.copy()
                events.append(locks.unlock(loop.loop_id, base + n_refs))
        if truncated:
            return _Batch(
                pages.materialize()[:cap].tolist(), events, True, nest_ops, {}, []
            )

        scalars_out: Dict[str, object] = {}
        for spec in self.specs:
            if spec.array_site is None:
                if spec.tainted:
                    kind, v = env[spec.target_name]
                    scalars_out[spec.target_name] = (
                        float(v[-1]) if kind == "v" else v
                    )
                else:
                    scalars_out[spec.target_name] = 0.0
        scalars_out[loop.var] = start + trips * step
        array_stores = []
        for name, entries in self.writes_by_array.items():
            if name not in it.arrays or name not in self._tainted(it):
                continue
            if len(entries) == 1:
                aidx, site = entries[0]
                array_stores.append(
                    (name, offsets[site], _as_vec(writer_vals[aidx], trips))
                )
            else:
                omat = np.stack([offsets[site] for _a, site in entries])
                vmat = np.stack(
                    [_as_vec(writer_vals[aidx], trips) for aidx, _s in entries]
                )
                array_stores.append(
                    (name, omat.T.ravel(), vmat.T.ravel())
                )
        lock_sites = {
            name: site for name, site in self._last_site.items()
            if name in it._compiler.lock_arrays
        }
        last_pages = {}
        if lock_sites:
            final = (trips - 1) * self.n_sites
            at = pages.pages_at([final + site for site in lock_sites.values()])
            last_pages = dict(zip(lock_sites, at.tolist()))
        return _Batch(pages, events, False, nest_ops, scalars_out,
                      array_stores, locks, last_pages)

    def _tainted(self, it):
        return it._compiler.tainted

    def _offsets_for(self, trips: int, aps: List[Tuple[int, int]]):
        """Per-site element-offset vectors (the value engine's index
        space)."""
        key = (trips, tuple(aps))
        hit = self._offset_memo.get(key)
        if hit is not None:
            return hit
        t = np.arange(trips, dtype=np.int64)
        offsets = [np.int64(lin0) + np.int64(dlin) * t for lin0, dlin in aps]
        if len(self._offset_memo) > 128:
            self._offset_memo.clear()
        self._offset_memo[key] = offsets
        return offsets

    def _closed_pages(self, it, trips: int, aps: List[Tuple[int, int]]):
        from repro.analysis.staticloc.affine import ClosedFormPages

        return ClosedFormPages(
            [it.layout.placements[ref.name].first_page for ref in self.sites],
            [lin0 for lin0, _dlin in aps],
            [dlin for _lin0, dlin in aps],
            it.page_config.elements_per_page,
            trips,
        )

    # -- value engine -------------------------------------------------------

    def _run_values(self, it, trips, aps, offsets):
        """Evaluate every assignment exactly (kinds: ('c', py int/float)
        or ('v', float64 per-iteration vector)); any condition under
        which the interpreter could raise, or forwarding could not be
        proven, declines the binding."""
        env: Dict[str, tuple] = {}
        writer_vals: Dict[int, tuple] = {}

        def read_array(ref, ridx):
            name = ref.name
            rsite = self.specs[ridx].rhs_sites[id(ref)]
            ap_r = aps[rsite]
            chosen = None
            for widx, wsite in self.writes_by_array.get(name, ()):
                ap_w = aps[wsite]
                if ap_w == ap_r:
                    if widx < ridx:
                        chosen = widx  # same-iteration forward, last wins
                    elif ap_w[1] == 0 and trips > 1:
                        raise _Decline  # reads a cell a past iteration wrote
                elif _overlaps(offsets[rsite], offsets[wsite]):
                    raise _Decline  # interleaving we cannot replay
            if chosen is not None:
                kind, v = writer_vals[chosen]
                if kind == "c":
                    if isinstance(v, int):
                        if abs(v) >= _FLOAT_EXACT_INT:
                            raise _Decline
                        return ("c", float(v))
                    return ("c", v)
                return ("v", v)
            return ("v", it.arrays[name][offsets[rsite]])

        def veval(expr, ridx):
            if isinstance(expr, ast.Num):
                return ("c", expr.value)
            if isinstance(expr, ast.Var):
                got = env.get(expr.name)
                if got is not None:
                    return got
                v = it.scalars.get(expr.name)
                if v is None:
                    raise _Decline  # interpreter: used before assignment
                return ("c", v)
            if isinstance(expr, ast.ArrayRef):
                return read_array(expr, ridx)
            if isinstance(expr, ast.UnaryOp):
                kind, v = veval(expr.operand, ridx)
                return (kind, -v)
            lkv = veval(expr.left, ridx)
            rkv = veval(expr.right, ridx)
            return _binop(expr.op, lkv, rkv, trips)

        for aidx, spec in enumerate(self.specs):
            val = veval(spec.rhs, aidx)
            if spec.array_site is None:
                env[spec.target_name] = val
            else:
                writer_vals[aidx] = val
        return env, writer_vals


# -- arithmetic mirrors ------------------------------------------------------


def _int_like(value) -> int:
    """The interpreter's ``_int_value`` without the error (declines)."""
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise _Decline


def _as_vec(kv, trips: int) -> np.ndarray:
    kind, v = kv
    if kind == "v":
        return v
    if isinstance(v, int):
        if abs(v) >= _FLOAT_EXACT_INT:
            raise _Decline  # float() would round; let the binder decide
        return np.full(trips, float(v), dtype=np.float64)
    return np.full(trips, v, dtype=np.float64)


def _binop(op, lkv, rkv, trips):
    lk, lv = lkv
    rk, rv = rkv
    if lk == "c" and rk == "c":
        try:
            if op == "+":
                return ("c", lv + rv)
            if op == "-":
                return ("c", lv - rv)
            if op == "*":
                return ("c", lv * rv)
            if op == "/":
                if isinstance(lv, int) and isinstance(rv, int):
                    return ("c", _fortran_int_div(lv, rv))
                return ("c", lv / rv)
        except (ZeroDivisionError, OverflowError):
            raise _Decline from None
        raise _Decline
    la = _as_vec(lkv, trips)
    ra = _as_vec(rkv, trips)
    with np.errstate(all="ignore"):  # IEEE inf/nan, exactly like python
        if op == "+":
            return ("v", la + ra)
        if op == "-":
            return ("v", la - ra)
        if op == "*":
            return ("v", la * ra)
        if op == "/":
            if (ra == 0.0).any():
                raise _Decline  # interpreter: division by zero
            return ("v", la / ra)
    raise _Decline
