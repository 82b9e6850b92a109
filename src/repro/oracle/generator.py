"""Seeded generator of adversarial mini-FORTRAN loop nests.

Programs are built as *source text* and pushed through the real
frontend (``parse_source``), so every generated case also exercises the
lexer, the parser, and — via the harness's round-trip check — the
unparser.  The generator is deliberately biased toward the situations
the affine trace compiler finds hard:

* triangular and non-unit-stride (including negative and zero-trip)
  loop bounds, bounds read from scalars assigned earlier;
* row-order vs column-order 2-D reference patterns (the paper's Θ);
* multiple index expression shapes per subscript (identity, reflection,
  shift, dilation, MOD-folding, constants — the paper's X);
* loop-carried scalar accumulators, guarded assignments, in-place
  stencils, array-to-array copies, DATA-initialized arrays;
* data-dependent control flow (IF blocks, DO WHILE) that *must* force
  the compiler to fall back without changing the trace;
* a LOCK that must read the page a compiled batch left behind: an
  interpreted outer loop around a compiled nest over a multi-page
  array, a logical IF on that array that is false on early iterations,
  then an interpreted inner loop that Algorithm 2 locks the array
  before.  This shape draws from its own seeded stream, so every other
  line of a program is the same whether or not it carries the shape.

Every subscript is in bounds *by construction* (each index template
carries the variable range it is valid for), and every arithmetic
operation is range-safe, so a generated program never raises at run
time — any interpreter error is itself a bug worth reporting.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.frontend import ast
from repro.frontend.parser import parse_source

__all__ = ["GeneratedCase", "generate_case"]

#: iteration budget for one nest (keeps traces small enough that a
#: 200-seed run fits in a CI time budget)
_NEST_ITERATION_BUDGET = 2400

_ARRAY_NAMES = ("A", "B", "C")
_LOOP_VARS = ("I", "J", "K")


@dataclass
class GeneratedCase:
    """One generated program, parsed and ready for the harness."""

    seed: int
    source: str
    program: ast.Program

    @property
    def name(self) -> str:
        return self.program.name


@dataclass
class _Array:
    name: str
    dims: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass
class _IntVal:
    """An integer-valued name with a statically known value range."""

    name: str
    lo: int
    hi: int


class _Emitter:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.lines: List[str] = []
        self.arrays: List[_Array] = []
        self.scalars: Dict[str, _IntVal] = {}
        self.float_scalars: List[str] = []
        self.depth = 0

    def emit(self, text: str) -> None:
        self.lines.append("  " * self.depth + text)

    # -- index templates ----------------------------------------------------

    def index_expr(self, var: Optional[_IntVal], dim: int) -> str:
        """A subscript expression guaranteed to land in ``[1, dim]``."""
        rng = self.rng
        choices: List[str] = [str(rng.randint(1, dim))]
        if var is not None:
            v = var.name
            if var.hi <= dim:
                choices += [v, v, f"{dim + 1} - {v}"]
            if var.hi + 1 <= dim:
                choices.append(f"{v} + 1")
            if var.lo >= 2:
                choices.append(f"{v} - 1")
            if 2 * var.hi - 1 <= dim:
                choices.append(f"2 * {v} - 1")
            choices.append(f"MOD({v}, {dim}) + 1")
            aux = self._random_int_scalar()
            if aux is not None and aux.name != v:
                choices.append(f"MOD({v} + {aux.name}, {dim}) + 1")
        return rng.choice(choices)

    def _random_int_scalar(self) -> Optional[_IntVal]:
        if not self.scalars:
            return None
        name = self.rng.choice(sorted(self.scalars))
        return self.scalars[name]

    def array_ref(self, loop_vars: List[_IntVal], write: bool = False) -> str:
        """A reference to a random array, in-bounds in every dimension.

        2-D references pick the variable→dimension pairing at random,
        covering both row-order and column-order access (Θ).
        """
        rng = self.rng
        arr = rng.choice(self.arrays)
        if arr.rank == 1:
            var = rng.choice(loop_vars) if loop_vars else None
            return f"{arr.name}({self.index_expr(var, arr.dims[0])})"
        if loop_vars:
            picks = [rng.choice(loop_vars), rng.choice(loop_vars)]
            if len(loop_vars) >= 2 and rng.random() < 0.7:
                picks = rng.sample(loop_vars, 2)
            if rng.random() < 0.5:
                picks.reverse()
        else:
            picks = [None, None]
        i1 = self.index_expr(picks[0], arr.dims[0])
        i2 = self.index_expr(picks[1], arr.dims[1])
        return f"{arr.name}({i1}, {i2})"

    # -- value expressions --------------------------------------------------

    def float_expr(self, loop_vars: List[_IntVal], depth: int = 0) -> str:
        """A float-valued expression that can never raise."""
        rng = self.rng
        leaves = [
            lambda: self.array_ref(loop_vars),
            lambda: rng.choice(("0.5", "1.0", "2.0", "0.25", "1.5")),
        ]
        if self.float_scalars:
            leaves.append(lambda: rng.choice(self.float_scalars))
        if loop_vars:
            leaves.append(lambda: f"FLOAT({rng.choice(loop_vars).name})")
            leaves.append(lambda: rng.choice(loop_vars).name)
        if depth >= 2 or rng.random() < 0.35:
            return rng.choice(leaves)()
        a = self.float_expr(loop_vars, depth + 1)
        b = self.float_expr(loop_vars, depth + 1)
        form = rng.randrange(7)
        if form == 0:
            return f"{a} + {b}"
        if form == 1:
            return f"{a} - {b}"
        if form == 2:
            return f"0.5 * ({a} + {b})"
        if form == 3:
            return f"{a} / 2.0"
        if form == 4:
            return f"ABS({a})"
        if form == 5:
            return f"AMIN1({a}, {b})"
        return f"AMAX1({a}, {b})"

    def condition(self, loop_vars: List[_IntVal]) -> str:
        rng = self.rng
        if loop_vars and rng.random() < 0.8:
            var = rng.choice(loop_vars)
            op = rng.choice((".GT.", ".LT.", ".GE.", ".LE.", ".EQ.", ".NE."))
            pivot = rng.randint(var.lo, max(var.lo, var.hi - 1))
            if rng.random() < 0.3:
                return f"MOD({var.name}, 2) {op} 0"
            return f"{var.name} {op} {pivot}"
        return rng.choice((f"{self.float_expr(loop_vars)} .GE. 0.0", ".TRUE."))


def _gen_body_statement(em: _Emitter, loop_vars: List[_IntVal]) -> None:
    rng = em.rng
    roll = rng.random()
    if roll < 0.45:
        em.emit(f"{em.array_ref(loop_vars, write=True)} = {em.float_expr(loop_vars)}")
    elif roll < 0.60:
        em.emit(f"S = S + {em.float_expr(loop_vars)}")
    elif roll < 0.72:
        guard = em.condition(loop_vars)
        em.emit(
            f"IF ({guard}) {em.array_ref(loop_vars, write=True)} = "
            f"{em.float_expr(loop_vars)}"
        )
    elif roll < 0.80:
        guard = em.condition(loop_vars)
        em.emit(f"IF ({guard}) S = S + {em.float_expr(loop_vars)}")
    elif roll < 0.88:
        em.emit(f"{em.array_ref(loop_vars, write=True)} = {em.array_ref(loop_vars)}")
    elif roll < 0.94 and loop_vars:
        # integer auxiliary definition, range tracked for later subscripts
        var = rng.choice(loop_vars)
        off = rng.randint(0, 3)
        em.scalars["T"] = _IntVal("T", var.lo + off, var.hi + off)
        em.emit(f"T = {var.name} + {off}")
    else:
        em.emit(f"PRINT *, {em.float_expr(loop_vars)}")


def _gen_if_block(em: _Emitter, loop_vars: List[_IntVal]) -> None:
    """A block IF — illegal for the compiler, forcing a clean fallback."""
    em.emit(f"IF ({em.condition(loop_vars)}) THEN")
    em.depth += 1
    _gen_body_statement(em, loop_vars)
    em.depth -= 1
    if em.rng.random() < 0.5:
        em.emit("ELSE")
        em.depth += 1
        _gen_body_statement(em, loop_vars)
        em.depth -= 1
    em.emit("ENDIF")


def _loop_header(
    em: _Emitter, var_name: str, outer: List[_IntVal], budget: int
) -> Tuple[str, _IntVal, int]:
    """One DO header: returns (text, value-range, worst-case trip count)."""
    rng = em.rng
    hi = rng.randint(2, max(2, min(16, budget)))
    style = rng.randrange(10)
    if style <= 3:  # plain unit-stride
        bound = str(hi)
        n_scalar = em.scalars.get("N")
        if n_scalar is not None and n_scalar.hi <= hi and rng.random() < 0.4:
            bound, hi = "N", n_scalar.hi
        return (f"DO {var_name} = 1, {bound}", _IntVal(var_name, 1, hi), hi)
    if style == 4:  # downward
        return (f"DO {var_name} = {hi}, 1, -1", _IntVal(var_name, 1, hi), hi)
    if style == 5:  # strided
        step = rng.choice((2, 3))
        return (
            f"DO {var_name} = 1, {hi}, {step}",
            _IntVal(var_name, 1, hi),
            hi // step + 1,
        )
    if style == 6:  # downward strided
        return (
            f"DO {var_name} = {hi}, 1, -2",
            _IntVal(var_name, 1, hi),
            hi // 2 + 1,
        )
    if style == 7 and outer:  # triangular: lower bound from an outer var
        ov = rng.choice(outer)
        top = max(hi, ov.hi)
        return (
            f"DO {var_name} = {ov.name}, {top}",
            _IntVal(var_name, ov.lo, top),
            top,
        )
    if style == 8 and outer:  # triangular: upper bound from an outer var
        ov = rng.choice(outer)
        return (
            f"DO {var_name} = 1, {ov.name}",
            _IntVal(var_name, 1, ov.hi),
            ov.hi,
        )
    if style == 9 and rng.random() < 0.5:  # zero-trip
        return (f"DO {var_name} = {hi}, 1", _IntVal(var_name, 1, hi), 1)
    return (f"DO {var_name} = 1, {hi}", _IntVal(var_name, 1, hi), hi)


def _gen_nest(em: _Emitter, depth: int) -> None:
    budget = _NEST_ITERATION_BUDGET
    loop_vars: List[_IntVal] = []
    opened = 0
    for level in range(depth):
        header, val, trips = _loop_header(
            em,
            _LOOP_VARS[level],
            loop_vars,
            max(2, int(budget ** (1 / (depth - level)))),
        )
        budget = max(1, budget // max(trips, 1))
        em.emit(header)
        em.depth += 1
        loop_vars.append(val)
        opened += 1
        # statements *between* loop levels exercise slot interleaving
        if em.rng.random() < 0.4:
            _gen_body_statement(em, list(loop_vars))
    n_stmts = em.rng.randint(1, 4)
    for _ in range(n_stmts):
        if em.rng.random() < 0.08:
            _gen_if_block(em, loop_vars)
        else:
            _gen_body_statement(em, loop_vars)
    for _ in range(opened):
        if em.rng.random() < 0.25:
            _gen_body_statement(em, list(loop_vars))
        em.depth -= 1
        em.emit("ENDDO")
        loop_vars.pop()


def _gen_while(em: _Emitter) -> None:
    """A bounded convergence loop (never compiled, always interpreted)."""
    em.emit("X = 16.0")
    if "X" not in em.float_scalars:
        em.float_scalars.append("X")
    em.emit("DO WHILE (X .GT. 1.0)")
    em.depth += 1
    em.emit("X = X / 2.0")
    em.emit(f"{em.array_ref([], write=True)} = {em.array_ref([])} + X")
    em.depth -= 1
    em.emit("ENDDO")


def _gen_lock_after_batch(em: _Emitter, rng: random.Random, dim: int) -> None:
    """The LOCK-after-batch shape over array ``D(dim)`` (``dim`` > one
    page): the block IF keeps K and J interpreted, the I nest compiles,
    and on iterations where the logical IF is false the LOCK before J
    can only learn D's page from the batch."""
    outer = rng.randint(2, 3)
    inner = rng.randint(2, 6)
    em.emit(f"DO K = 1, {outer}")
    em.depth += 1
    em.emit(f"DO I = 1, {dim}")
    em.emit("  D(I) = FLOAT(I)")
    em.emit("ENDDO")
    em.emit(f"IF (K .GT. {rng.randint(1, outer - 1)}) D({rng.randint(1, 64)}) = 0.5")
    em.emit(f"DO J = 1, {inner}")
    em.emit(f"  IF (J .GT. {rng.randint(1, inner)}) THEN")
    em.emit("    S = S + D(J)")
    em.emit("  ENDIF")
    em.emit("ENDDO")
    em.depth -= 1
    em.emit("ENDDO")


def generate_source(seed: int) -> str:
    """Deterministically generate one program's source text."""
    rng = random.Random(seed)
    shape_rng = random.Random(f"lock-after-batch:{seed}")
    lock_dim = shape_rng.randint(65, 160) if shape_rng.random() < 0.25 else None
    em = _Emitter(rng)
    n_arrays = rng.randint(1, 3)
    for i in range(n_arrays):
        rank = 2 if rng.random() < 0.45 else 1
        if rank == 1:
            dims: Tuple[int, ...] = (rng.randint(3, 40),)
        else:
            dims = (rng.randint(2, 16), rng.randint(2, 16))
        em.arrays.append(_Array(_ARRAY_NAMES[i], dims))

    decls = ", ".join(
        f"{a.name}({', '.join(str(d) for d in a.dims)})" for a in em.arrays
    )
    if lock_dim is not None:
        decls += f", D({lock_dim})"
    em.emit(f"PROGRAM FZ{seed % 100000}")
    em.emit(f"DIMENSION {decls}")
    data_arr = rng.choice(em.arrays) if rng.random() < 0.25 else None
    if data_arr is not None:
        count = 1
        for d in data_arr.dims:
            count *= d
        em.emit(f"DATA {data_arr.name} /{count}*0.5/")
    em.emit("S = 0.0")
    em.float_scalars.append("S")
    n_val = rng.randint(2, 9)
    em.scalars["N"] = _IntVal("N", n_val, n_val)
    em.emit(f"N = {n_val}")
    # T is reassigned inside loop bodies; the upfront definition keeps it
    # well-defined even when that reassignment sits in a zero-trip loop
    # or an untaken IF branch.  T only ever feeds MOD-folded subscripts,
    # which are in bounds for any non-negative value.
    em.scalars["T"] = _IntVal("T", 1, 1)
    em.emit("T = 1")
    n_nests = rng.randint(1, 3)
    for _ in range(n_nests):
        if rng.random() < 0.08:
            _gen_while(em)
        else:
            _gen_nest(em, rng.choices((1, 2, 3), weights=(3, 4, 3))[0])
    if lock_dim is not None:
        _gen_lock_after_batch(em, shape_rng, lock_dim)
    em.emit(f"S = S + {em.array_ref([])}")
    em.emit("END")
    return "\n".join(em.lines) + "\n"


def generate_case(seed: int) -> GeneratedCase:
    """Generate, parse, and package one differential-test case."""
    source = generate_source(seed)
    program = parse_source(source)
    return GeneratedCase(seed=seed, source=source, program=program)
