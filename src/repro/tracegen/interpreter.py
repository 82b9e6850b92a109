"""Tree-walking interpreter that executes a program and records its trace.

The interpreter performs the real numerics — FORTRAN-style integer
division and MOD, REAL array storage, data-dependent IF and convergence
loops — so the reference strings have the genuine shape of the
algorithms.  Every array-element access (read or write) appends one page
number to the trace; scalar operations are free, as in the paper.

When an :class:`~repro.directives.model.InstrumentationPlan` is
supplied, directive events are emitted at their execution points:

* ``LOCK`` / ``ALLOCATE`` each time control is about to enter the loop
  they precede (inner-loop directives therefore re-execute on every
  outer iteration, which is how denied requests get retried);
* ``UNLOCK`` right after the outermost loop of a nest exits.

``LOCK`` names arrays; the interpreter resolves each to the page of that
array's most recently referenced element (its first page when untouched)
— the run-time analogue of the paper's "array page to be locked".
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.analysis.parameters import PageConfig
from repro.directives.model import InstrumentationPlan
from repro.frontend import ast
from repro.frontend.errors import FrontendError
from repro.frontend.symbols import SymbolTable
from repro.tracegen.events import (
    DirectiveEvent,
    DirectiveKind,
    LockBook,
    ReferenceTrace,
)
from repro.tracegen.paging import MemoryLayout

Number = Union[int, float]


class InterpreterError(FrontendError):
    """Run-time error in the interpreted program (bad index, domain…)."""


class ExecutionLimitError(FrontendError):
    """The statement budget was exhausted (runaway loop guard)."""


class _TraceFull(Exception):
    """Internal: the reference cap was reached; stop and keep the prefix."""


class _StopExecution(Exception):
    """Internal: STOP statement."""


class _ExitLoop(Exception):
    """Internal: EXIT statement."""


def _fortran_int_div(left: int, right: int) -> int:
    if right == 0:
        raise ZeroDivisionError("integer division by zero")
    quotient = abs(left) // abs(right)
    return quotient if (left >= 0) == (right >= 0) else -quotient


def _fortran_mod(left: Number, right: Number) -> Number:
    if isinstance(left, int) and isinstance(right, int):
        return left - _fortran_int_div(left, right) * right
    return math.fmod(left, right)


def _sign(a: Number, b: Number) -> Number:
    magnitude = abs(a)
    return magnitude if b >= 0 else -magnitude


_INTRINSICS: Dict[str, Callable[..., Number]] = {
    "SQRT": math.sqrt,
    "ABS": abs,
    "IABS": abs,
    "EXP": math.exp,
    "SIN": math.sin,
    "COS": math.cos,
    "TAN": math.tan,
    "ATAN": math.atan,
    "LOG": math.log,
    "ALOG": math.log,
    "LOG10": math.log10,
    "MOD": _fortran_mod,
    "AMOD": _fortran_mod,
    "MIN": min,
    "MAX": max,
    "MIN0": min,
    "MAX0": max,
    "AMIN1": min,
    "AMAX1": max,
    "SIGN": _sign,
    "ISIGN": _sign,
    "FLOAT": float,
    "REAL": float,
    "DBLE": float,
    "INT": math.trunc,
    "IFIX": math.trunc,
    "NINT": lambda x: int(round(x)),
}


class Interpreter:
    """Executes one program, producing a :class:`ReferenceTrace`."""

    def __init__(
        self,
        program: ast.Program,
        symbols: Optional[SymbolTable] = None,
        page_config: Optional[PageConfig] = None,
        plan: Optional[InstrumentationPlan] = None,
        max_references: int = 5_000_000,
        max_operations: int = 100_000_000,
        compile_nests: bool = False,
    ):
        # compile_nests enables the affine fast path, which tracks
        # values only for names that can influence the trace: the
        # returned trace is exact, but scalar/array state left behind
        # is not.  Use it when the trace is the only observable output
        # (generate_trace does); direct Interpreter users who inspect
        # ``scalars``/``arrays`` afterwards need pure interpretation.
        self.program = program
        self.symbols = symbols or SymbolTable.from_program(program)
        self.page_config = page_config or PageConfig()
        self.layout = MemoryLayout(self.symbols, self.page_config)
        self.plan = plan
        self.max_references = max_references
        self.max_operations = max_operations
        self.scalars: Dict[str, Number] = dict(self.symbols.params)
        self.arrays: Dict[str, np.ndarray] = {
            name: np.zeros(info.element_count, dtype=np.float64)
            for name, info in self.symbols.arrays.items()
        }
        self._apply_data_statements()
        self._refs: List[int] = []
        self._events: List[DirectiveEvent] = []
        self._last_page: Dict[str, int] = {}
        self._locks = LockBook()
        self._loop_stack: List[int] = []
        self._operations = 0
        self._truncated = False
        if compile_nests:
            from repro.tracegen.compile import TraceCompiler

            self._compiler: Optional[TraceCompiler] = TraceCompiler(self)
        else:
            self._compiler = None

    # -- public -------------------------------------------------------------

    def run(self) -> ReferenceTrace:
        """Execute the program to completion (or a limit) and return the
        trace."""
        try:
            self._exec_block(self.program.body)
        except (_StopExecution, _TraceFull):
            pass
        return ReferenceTrace(
            program_name=self.program.name,
            pages=np.asarray(self._refs, dtype=np.int32),
            total_pages=max(self.layout.total_pages, 1),
            directives=self._events,
            array_pages={
                name: (p.first_page, p.page_count)
                for name, p in self.layout.placements.items()
            },
            truncated=self._truncated,
        )

    def _apply_data_statements(self) -> None:
        """Load-time initialization from DATA groups (no page refs:
        initial values arrive with the load image)."""
        from repro.frontend.symbols import eval_const_expr

        for group in self.program.data:
            if isinstance(group.target, str):
                self.arrays[group.target][:] = [float(v) for v in group.values]
            else:
                ref = group.target
                info = self.symbols.arrays[ref.name]
                indices = tuple(
                    int(eval_const_expr(ix, self.symbols.params))
                    for ix in ref.indices
                )
                self.arrays[ref.name][info.linear_index(indices)] = float(
                    group.values[0]
                )

    # -- statements -----------------------------------------------------------

    def _exec_block(self, stmts: List[ast.Stmt]) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.Stmt) -> None:
        self._operations += 1
        if self._operations > self.max_operations:
            raise ExecutionLimitError(
                f"statement budget ({self.max_operations}) exhausted", stmt.line
            )
        if isinstance(stmt, ast.Assign):
            self._exec_assign(stmt)
        elif isinstance(stmt, ast.DoLoop):
            if self._compiler is None or not self._compiler.try_execute(stmt):
                self._exec_do(stmt)
        elif isinstance(stmt, ast.WhileLoop):
            self._exec_while(stmt)
        elif isinstance(stmt, ast.IfBlock):
            for cond, body in stmt.branches:
                if cond is None or self._truthy(self._eval(cond)):
                    self._exec_block(body)
                    return
        elif isinstance(stmt, ast.LogicalIf):
            if self._truthy(self._eval(stmt.cond)):
                self._exec_stmt(stmt.stmt)
        elif isinstance(stmt, ast.Print):
            for item in stmt.items:
                self._eval(item)  # output discarded; references counted
        elif isinstance(stmt, ast.Continue):
            return
        elif isinstance(stmt, ast.Stop):
            raise _StopExecution()
        elif isinstance(stmt, ast.ExitLoop):
            raise _ExitLoop()
        else:  # pragma: no cover
            raise InterpreterError(
                f"cannot execute {type(stmt).__name__}", stmt.line
            )

    def _exec_assign(self, stmt: ast.Assign) -> None:
        value = self._eval(stmt.expr)
        target = stmt.target
        if isinstance(target, ast.Var):
            self.scalars[target.name] = value
            return
        indices = self._eval_indices(target)
        self._touch(target.name, indices, target.line)
        info = self.symbols.arrays[target.name]
        self.arrays[target.name][info.linear_index(indices)] = float(value)

    def _exec_do(self, loop: ast.DoLoop) -> None:
        self._emit_loop_entry_directives(loop)
        start = self._int_value(self._eval(loop.start), loop.line)
        end = self._int_value(self._eval(loop.end), loop.line)
        step = (
            self._int_value(self._eval(loop.step), loop.line)
            if loop.step is not None
            else 1
        )
        if step == 0:
            raise InterpreterError("DO step of zero", loop.line)
        # FORTRAN-77 trip count: zero-trip loops are legal.
        trips = max(0, (end - start + step) // step)
        self._loop_stack.append(loop.loop_id)
        try:
            value = start
            for _ in range(trips):
                self.scalars[loop.var] = value
                try:
                    self._exec_block(loop.body)
                except _ExitLoop:
                    break
                value += step
            else:
                # Normal termination leaves var one step past the end.
                self.scalars[loop.var] = value
        finally:
            self._loop_stack.pop()
        self._emit_loop_exit_directives(loop)

    def _exec_while(self, loop: ast.WhileLoop) -> None:
        self._emit_loop_entry_directives(loop)
        self._loop_stack.append(loop.loop_id)
        try:
            while True:
                self._operations += 1
                if self._operations > self.max_operations:
                    raise ExecutionLimitError(
                        f"statement budget ({self.max_operations}) exhausted "
                        "in DO WHILE",
                        loop.line,
                    )
                if not self._truthy(self._eval(loop.cond)):
                    break
                try:
                    self._exec_block(loop.body)
                except _ExitLoop:
                    break
        finally:
            self._loop_stack.pop()
        self._emit_loop_exit_directives(loop)

    # -- directives -------------------------------------------------------------

    def _emit_loop_entry_directives(self, loop) -> None:
        if self.plan is None:
            return
        lock = self.plan.locks_before.get(loop.loop_id)
        if lock is not None:
            pages = [self._current_page_of(name) for name in lock.arrays]
            self._events.append(
                self._locks.lock(
                    lock, self._lock_root(loop.loop_id), pages, len(self._refs)
                )
            )
        allocate = self.plan.allocates.get(loop.loop_id)
        if allocate is not None:
            self._events.append(
                DirectiveEvent(
                    position=len(self._refs),
                    kind=DirectiveKind.ALLOCATE,
                    site=loop.loop_id,
                    requests=allocate.requests,
                )
            )

    def _emit_loop_exit_directives(self, loop) -> None:
        if self.plan is None or loop.loop_id not in self.plan.unlocks_after:
            return
        self._events.append(self._locks.unlock(loop.loop_id, len(self._refs)))

    def _lock_root(self, loop_id: int) -> int:
        """The root nest a LOCK entering ``loop_id`` registers under: the
        outermost active loop, else ``loop_id`` (for a compiled batch,
        its root loop) itself."""
        return self._loop_stack[0] if self._loop_stack else loop_id

    def _current_page_of(self, array: str) -> int:
        page = self._last_page.get(array)
        if page is None:
            page = self.layout.placements[array].first_page
        return page

    # -- expressions --------------------------------------------------------------

    def _eval(self, expr: ast.Expr) -> Number:
        if isinstance(expr, ast.Num):
            return expr.value
        if isinstance(expr, ast.Var):
            try:
                return self.scalars[expr.name]
            except KeyError:
                raise InterpreterError(
                    f"scalar {expr.name} used before assignment", expr.line
                ) from None
        if isinstance(expr, ast.LogicalLit):
            return 1 if expr.value else 0
        if isinstance(expr, ast.ArrayRef):
            indices = self._eval_indices(expr)
            self._touch(expr.name, indices, expr.line)
            info = self.symbols.arrays[expr.name]
            return float(self.arrays[expr.name][info.linear_index(indices)])
        if isinstance(expr, ast.UnaryOp):
            value = self._eval(expr.operand)
            if expr.op == ".NOT.":
                return 0 if self._truthy(value) else 1
            return -value
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr)
        if isinstance(expr, ast.Compare):
            left, right = self._eval(expr.left), self._eval(expr.right)
            result = {
                "<": left < right,
                "<=": left <= right,
                ">": left > right,
                ">=": left >= right,
                "==": left == right,
                "/=": left != right,
            }[expr.op]
            return 1 if result else 0
        if isinstance(expr, ast.LogicalOp):
            left = self._truthy(self._eval(expr.left))
            if expr.op == ".AND.":
                if not left:
                    return 0
                return 1 if self._truthy(self._eval(expr.right)) else 0
            if left:
                return 1
            return 1 if self._truthy(self._eval(expr.right)) else 0
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        raise InterpreterError(  # pragma: no cover
            f"cannot evaluate {type(expr).__name__}", expr.line
        )

    def _eval_binop(self, expr: ast.BinOp) -> Number:
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        try:
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                if isinstance(left, int) and isinstance(right, int):
                    return _fortran_int_div(left, right)
                return left / right
            if expr.op == "**":
                result = left**right
                if isinstance(result, complex):
                    raise InterpreterError(
                        "negative base with fractional exponent", expr.line
                    )
                return result
        except ZeroDivisionError:
            raise InterpreterError("division by zero", expr.line) from None
        except OverflowError:
            raise InterpreterError("arithmetic overflow", expr.line) from None
        raise InterpreterError(  # pragma: no cover
            f"unknown operator {expr.op}", expr.line
        )

    def _eval_call(self, expr: ast.Call) -> Number:
        fn = _INTRINSICS.get(expr.name)
        if fn is None:
            raise InterpreterError(
                f"unknown function or undeclared array {expr.name}", expr.line
            )
        args = [self._eval(a) for a in expr.args]
        try:
            return fn(*args)
        except ValueError as err:
            raise InterpreterError(
                f"{expr.name} domain error: {err}", expr.line
            ) from None
        except TypeError as err:
            raise InterpreterError(
                f"bad arguments to {expr.name}: {err}", expr.line
            ) from None
        except ZeroDivisionError:
            raise InterpreterError(f"{expr.name} division by zero", expr.line) from None

    def _eval_indices(self, ref: ast.ArrayRef) -> Tuple[int, ...]:
        return tuple(
            self._int_value(self._eval(ix), ref.line) for ix in ref.indices
        )

    # -- helpers ----------------------------------------------------------------

    def _touch(self, array: str, indices: Tuple[int, ...], line: int) -> None:
        """Record one page reference for an array-element access."""
        try:
            page = self.layout.page_of(array, indices)
        except FrontendError as err:
            raise InterpreterError(str(err), line) from None
        self._refs.append(page)
        self._last_page[array] = page
        if len(self._refs) >= self.max_references:
            self._truncated = True
            raise _TraceFull()

    @staticmethod
    def _truthy(value: Number) -> bool:
        return bool(value)

    @staticmethod
    def _int_value(value: Number, line: int) -> int:
        if isinstance(value, int):
            return value
        if isinstance(value, float) and float(value).is_integer():
            return int(value)
        raise InterpreterError(
            f"expected an integer value, got {value!r}", line
        )


def generate_trace(
    program: ast.Program,
    plan: Optional[InstrumentationPlan] = None,
    symbols: Optional[SymbolTable] = None,
    page_config: Optional[PageConfig] = None,
    max_references: int = 5_000_000,
    max_operations: int = 100_000_000,
    compile_nests: bool = True,
) -> ReferenceTrace:
    """Execute ``program`` and return its reference trace.

    ``compile_nests=False`` disables the affine fast path
    (:mod:`repro.tracegen.compile`) and forces pure interpretation —
    the reference behaviour the compiler is tested against.
    """
    interpreter = Interpreter(
        program,
        symbols=symbols,
        page_config=page_config,
        plan=plan,
        max_references=max_references,
        max_operations=max_operations,
        compile_nests=compile_nests,
    )
    return interpreter.run()
