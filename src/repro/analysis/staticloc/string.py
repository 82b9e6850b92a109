"""The virtual reference string: structure without the pages.

:class:`RunBuffer` stands in for the interpreter's flat ``_refs`` list.
The interpreter only ever *appends* single pages (interpreted
references), *extends* with a compiled batch's pages, and takes
``len()`` — this class implements exactly that protocol, but instead of
growing one flat list it keeps literal references as-is and structures
every compiled batch the moment it is committed: runs are claimed
(closed form for recipe batches, the ordinary detector over the batch's
own block for binder batches), interior copies are dropped, and the
flat block is discarded.  The complete reference string never exists in
memory.

:class:`StaticString` is the finished product — a duck-typed
:class:`~repro.tracegen.events.ReferenceTrace` whose ``pages`` exposes
only its length.  Everything downstream of run detection (the weighted
LRU/WS analyzers via :meth:`surrogate`, the CD structure walk, the
:class:`~repro.analysis.symbolic.runtrace.RunTrace` validation) needs
nothing more.  For the exact-simulation fallbacks (a memory ceiling,
honored LOCKs) any string, collapsed or literal, expands back into its
real trace (:meth:`to_reference_trace`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.staticloc.affine import ClosedFormPages
from repro.analysis.symbolic.collapse import (
    MIN_REPEATS,
    Surrogate,
    detect_runs,
    kept_mask,
)
from repro.analysis.symbolic.runtrace import Run
from repro.tracegen.events import DirectiveEvent, DirectiveTable, ReferenceTrace

__all__ = ["RunBuffer", "StaticString"]


class RunBuffer:
    """Piecewise, run-structured replacement for the flat page list."""

    def __init__(self) -> None:
        self._n = 0
        self._tail: List[int] = []  # literal refs since the last piece
        self._kept_pos: List[np.ndarray] = []
        self._kept_pages: List[np.ndarray] = []
        self._runs: List[Run] = []
        #: set by the static compiler right before committing a batch:
        #: (period hints, absolute positions of the batch's events)
        self.pending: Optional[Tuple[List[int], List[int]]] = None
        #: references committed without ever materializing their pages
        self.closed_form_refs = 0

    # -- the `_refs` protocol -----------------------------------------------

    def __len__(self) -> int:
        return self._n

    def append(self, page: int) -> None:
        self._tail.append(page)
        self._n += 1

    def extend(self, pages) -> None:
        pending, self.pending = self.pending, None
        base = self._n
        if isinstance(pages, ClosedFormPages):
            self._flush_tail()
            runs, kept, kept_pages = pages.structure()
            self.closed_form_refs += len(pages)
            self._push(base, len(pages), runs, kept, kept_pages)
            return
        arr = np.asarray(pages, dtype=np.int32)
        if pending is None or len(arr) == 0:
            # no structure hints — keep the block literal
            self._tail.extend(arr.tolist())
            self._n += len(arr)
            return
        hints, event_positions = pending
        self._flush_tail()
        bounds = [p - base for p in event_positions if 0 < p - base < len(arr)]
        runs = detect_runs(arr, [(0, len(arr), hints)], bounds)
        kept = np.flatnonzero(kept_mask(len(arr), runs)).astype(np.int64)
        self._push(base, len(arr), runs, kept, arr[kept])

    # -- internals ----------------------------------------------------------

    def _flush_tail(self) -> None:
        if not self._tail:
            return
        count = len(self._tail)
        base = self._n - count
        self._kept_pos.append(base + np.arange(count, dtype=np.int64))
        self._kept_pages.append(np.asarray(self._tail, dtype=np.int32))
        self._tail = []

    def _push(
        self,
        base: int,
        length: int,
        runs: List[Run],
        kept: np.ndarray,
        kept_pages: np.ndarray,
    ) -> None:
        if len(kept):
            self._kept_pos.append(base + kept)
            self._kept_pages.append(np.asarray(kept_pages, dtype=np.int32))
        self._runs.extend(
            Run(base + r.start, r.block, r.repeats) for r in runs
        )
        self._n += length

    def finish(self) -> Tuple[int, np.ndarray, np.ndarray, List[Run]]:
        """``(n, kept_pos, kept_pages, runs)`` — the structured string."""
        self._flush_tail()
        kept_pos = (
            np.concatenate(self._kept_pos)
            if self._kept_pos
            else np.empty(0, dtype=np.int64)
        )
        kept_pages = (
            np.concatenate(self._kept_pages)
            if self._kept_pages
            else np.empty(0, dtype=np.int32)
        )
        return self._n, kept_pos, kept_pages, list(self._runs)


class _VirtualPages:
    """Length-only stand-in for the flat page array."""

    __slots__ = ("_n",)

    def __init__(self, n: int) -> None:
        self._n = n

    def __len__(self) -> int:
        return self._n


@dataclass
class StaticString:
    """A run-structured reference string that never had flat pages."""

    program_name: str
    n_references: int
    total_pages: int
    directive_table: DirectiveTable = field(default_factory=DirectiveTable.empty)
    array_pages: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    truncated: bool = False
    kept_pos: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    kept_pages: np.ndarray = field(default_factory=lambda: np.empty(0, np.int32))
    runs: List[Run] = field(default_factory=list)

    @cached_property
    def directives(self) -> List[DirectiveEvent]:
        return self.directive_table.events()

    @property
    def pages(self) -> _VirtualPages:
        return _VirtualPages(self.n_references)

    @property
    def length(self) -> int:
        return self.n_references

    @property
    def fully_literal(self) -> bool:
        """True when nothing was collapsed — every reference is kept."""
        return len(self.kept_pos) == self.n_references

    def surrogate(self) -> Surrogate:
        """The weighted kept-reference view (no flat pages needed)."""
        return Surrogate.from_parts(
            self.n_references, self.kept_pos, self.kept_pages, self.runs
        )

    def to_reference_trace(self) -> ReferenceTrace:
        """Expand into the exact trace: the kept pages at their
        positions, and each collapsed run's dropped copies 2 … k−2
        filled with its copy 0.  A fully literal string expands to
        itself."""
        pages = np.empty(self.n_references, dtype=np.int32)
        pages[self.kept_pos] = self.kept_pages
        for r in self.runs:
            if r.repeats >= MIN_REPEATS:
                first = pages[r.start : r.start + r.block]
                pages[r.start + 2 * r.block : r.end - r.block] = np.tile(
                    first, r.repeats - 3
                )
        return ReferenceTrace(
            program_name=self.program_name,
            pages=pages,
            total_pages=self.total_pages,
            directives=self.directive_table,
            array_pages=dict(self.array_pages),
            truncated=self.truncated,
        )
