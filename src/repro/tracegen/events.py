"""Trace representation: dense reference string + sparse directives.

A trace is the page-reference string of one program execution, stored as
a numpy ``int32`` array for fast replay, together with the directive
events the instrumented program executed.  Each directive event is
stamped with its *position*: the index of the reference before which it
fires.  Policies that ignore directives (LRU, WS, FIFO, OPT, …) replay
``pages`` directly; the CD policy merges the two streams.

Directives are held in columnar form (:class:`DirectiveTable`): the same
integer arrays go to disk, come back from it, and feed the closed-form
CD replay's schedule without a Python object per event.  The event
objects (:class:`DirectiveEvent`) are built once per table, on first
use, for the consumers that walk events one by one (the event-driven
simulator and policies, the multiprogramming simulator, the oracle).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.directives.model import AllocateRequest


class DirectiveKind(enum.Enum):
    ALLOCATE = "allocate"
    LOCK = "lock"
    UNLOCK = "unlock"


#: ``kind`` column code of each directive kind (the on-disk encoding)
KIND_CODES: Dict[DirectiveKind, int] = {
    DirectiveKind.ALLOCATE: 0,
    DirectiveKind.LOCK: 1,
    DirectiveKind.UNLOCK: 2,
}
_KIND_OF_CODE = tuple(KIND_CODES)
ALLOCATE_CODE = KIND_CODES[DirectiveKind.ALLOCATE]
LOCK_CODE = KIND_CODES[DirectiveKind.LOCK]


@dataclass(frozen=True)
class DirectiveEvent:
    """One executed directive, resolved to run-time values.

    ``position`` — fires before ``ReferenceTrace.pages[position]``
    (``position == len(pages)`` means after the last reference).
    ``site`` — the ``loop_id`` the directive was inserted at; a LOCK
    executed again at the same site supersedes the pages it locked
    there previously (the pin follows the moving locality).
    """

    position: int
    kind: DirectiveKind
    site: int
    requests: Tuple[AllocateRequest, ...] = ()
    lock_pages: Tuple[int, ...] = ()
    priority_index: int = 0  # PJ for LOCK events

    def __post_init__(self) -> None:
        if self.position < 0:
            raise ValueError("position must be non-negative")
        if self.kind is DirectiveKind.ALLOCATE and not self.requests:
            raise ValueError("ALLOCATE event needs requests")
        if self.kind is DirectiveKind.LOCK and self.priority_index < 2:
            raise ValueError("LOCK event needs PJ >= 2")


class LockBook:
    """Run-time LOCK bookkeeping shared by every trace producer.

    ``by_site`` holds the pages pinned at each LOCK site, ``by_root`` the
    sites locked under each root nest (the outermost loop active when
    the LOCK executed); the UNLOCK after a root releases the latest
    pages of every site under it.  The interpreter owns one book; a
    compiled batch works on a :meth:`copy` and hands it back at commit.
    """

    __slots__ = ("by_site", "by_root")

    def __init__(self) -> None:
        self.by_site: Dict[int, Tuple[int, ...]] = {}
        self.by_root: Dict[int, List[int]] = {}

    def copy(self) -> "LockBook":
        book = LockBook()
        book.by_site = dict(self.by_site)
        book.by_root = {root: list(sites) for root, sites in self.by_root.items()}
        return book

    def lock(self, lock, root: int, pages, position: int) -> DirectiveEvent:
        """Register ``lock`` (a ``LockDirective``) pinning ``pages``
        under ``root``; returns its LOCK event."""
        pages = tuple(sorted(set(pages)))
        self.by_site[lock.loop_id] = pages
        sites = self.by_root.setdefault(root, [])
        if lock.loop_id not in sites:
            sites.append(lock.loop_id)
        return DirectiveEvent(
            position=position,
            kind=DirectiveKind.LOCK,
            site=lock.loop_id,
            lock_pages=pages,
            priority_index=lock.priority_index,
        )

    def unlock(self, root: int, position: int) -> DirectiveEvent:
        """Release every site locked under ``root``; returns the UNLOCK
        event placed after that loop."""
        pages = set()
        for site in self.by_root.pop(root, ()):
            pages.update(self.by_site.pop(site, ()))
        return DirectiveEvent(
            position=position,
            kind=DirectiveKind.UNLOCK,
            site=root,
            lock_pages=tuple(sorted(pages)),
        )


def _ints(values: Sequence[int]) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def _csr(counts: Sequence[int]) -> np.ndarray:
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


class DirectiveTable:
    """Directive events as columns, one row per event in firing order.

    Row columns: ``position``, ``kind`` (:data:`KIND_CODES`), ``site``
    and ``pj`` (the event's priority index — PJ for LOCK rows).  Two
    CSR-packed lists hang off the rows: the ALLOCATE ``(PI, pages)``
    requests (``req_offsets`` into ``req_pi``/``req_pages``) and the
    LOCK/UNLOCK pages (``lock_offsets`` into ``lock_pages``); row ``i``
    owns ``values[offsets[i]:offsets[i + 1]]``.  All columns are int64.
    """

    #: column names, in on-disk order
    COLUMNS = (
        "position",
        "kind",
        "site",
        "pj",
        "req_offsets",
        "req_pi",
        "req_pages",
        "lock_offsets",
        "lock_pages",
    )

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        events: Optional[List[DirectiveEvent]] = None,
    ) -> None:
        for name in self.COLUMNS:
            setattr(self, name, columns[name])
        self._events = events

    @classmethod
    def from_events(cls, events: Sequence[DirectiveEvent]) -> "DirectiveTable":
        """Columns of ``events``; the list itself is kept as the
        table's event view, so nothing is rebuilt for walkers."""
        events = events if isinstance(events, list) else list(events)
        requests = [r for e in events for r in e.requests]
        columns = {
            "position": _ints([e.position for e in events]),
            "kind": _ints([KIND_CODES[e.kind] for e in events]),
            "site": _ints([e.site for e in events]),
            "pj": _ints([e.priority_index for e in events]),
            "req_offsets": _csr([len(e.requests) for e in events]),
            "req_pi": _ints([r.priority_index for r in requests]),
            "req_pages": _ints([r.pages for r in requests]),
            "lock_offsets": _csr([len(e.lock_pages) for e in events]),
            "lock_pages": _ints([p for e in events for p in e.lock_pages]),
        }
        return cls(columns, events=events)

    @classmethod
    def from_columns(
        cls, columns: Mapping[str, object], n_references: int
    ) -> "DirectiveTable":
        """Decode columns read from disk, with every check the event
        constructors would run (plus CSR and ordering checks).

        Raises :exc:`ValueError` on a missing or malformed column,
        offsets that do not start at 0, decrease or do not end at their
        column's length, an unknown kind code, an ALLOCATE row without
        a request, a request with PI < 1 or pages < 1, a LOCK row with
        PJ < 2, or positions that are negative, unsorted or past
        ``n_references``.
        """
        cols = {name: _int_column(columns, name) for name in cls.COLUMNS}
        rows = len(cols["position"])
        for name in ("kind", "site", "pj"):
            if len(cols[name]) != rows:
                raise ValueError(
                    f"directive column {name!r} has {len(cols[name])} rows, "
                    f"expected {rows}"
                )
        if len(cols["req_pi"]) != len(cols["req_pages"]):
            raise ValueError("directive request columns differ in length")
        req_counts = _check_offsets(cols, "req_offsets", "req_pi", rows)
        _check_offsets(cols, "lock_offsets", "lock_pages", rows)
        kind = cols["kind"]
        if rows and (kind.min() < 0 or kind.max() >= len(_KIND_OF_CODE)):
            raise ValueError("unknown directive kind code")
        if np.any(req_counts[kind == ALLOCATE_CODE] < 1):
            raise ValueError("ALLOCATE row without a request")
        if len(cols["req_pi"]) and (
            cols["req_pi"].min() < 1 or cols["req_pages"].min() < 1
        ):
            raise ValueError("ALLOCATE request with PI < 1 or pages < 1")
        if np.any(cols["pj"][kind == LOCK_CODE] < 2):
            raise ValueError("LOCK row with PJ < 2")
        position = cols["position"]
        if rows and (
            position[0] < 0
            or np.any(position[1:] < position[:-1])
            or position[-1] > n_references
        ):
            raise ValueError(
                "directive positions must be sorted and within "
                f"[0, {n_references}]"
            )
        return cls(cols)

    @classmethod
    def empty(cls) -> "DirectiveTable":
        return cls.from_events([])

    def columns(self) -> Dict[str, np.ndarray]:
        """The columns by name (the on-disk form)."""
        return {name: getattr(self, name) for name in self.COLUMNS}

    def __len__(self) -> int:
        return len(self.position)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirectiveTable):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in self.COLUMNS
        )

    @cached_property
    def has_locks(self) -> bool:
        return bool(np.any(self.kind == LOCK_CODE))

    def events(self) -> List[DirectiveEvent]:
        """The rows as :class:`DirectiveEvent` objects — built on first
        call, then the same list every time."""
        if self._events is None:
            kinds = [_KIND_OF_CODE[k] for k in self.kind.tolist()]
            req_off = self.req_offsets.tolist()
            lock_off = self.lock_offsets.tolist()
            req_pi = self.req_pi.tolist()
            req_pages = self.req_pages.tolist()
            lock_pages = self.lock_pages.tolist()
            # one shared tuple per distinct request list: a site fires
            # the same ALLOCATE many times
            shared: Dict[tuple, Tuple[AllocateRequest, ...]] = {}
            events = []
            for i, (position, site, pj) in enumerate(
                zip(self.position.tolist(), self.site.tolist(), self.pj.tolist())
            ):
                a, b = req_off[i], req_off[i + 1]
                key = (*req_pi[a:b], *req_pages[a:b])
                requests = shared.get(key)
                if requests is None:
                    requests = tuple(
                        AllocateRequest(priority_index=p, pages=x)
                        for p, x in zip(req_pi[a:b], req_pages[a:b])
                    )
                    shared[key] = requests
                events.append(
                    DirectiveEvent(
                        position=position,
                        kind=kinds[i],
                        site=site,
                        requests=requests,
                        lock_pages=tuple(lock_pages[lock_off[i] : lock_off[i + 1]]),
                        priority_index=pj,
                    )
                )
            self._events = events
        return self._events


def _int_column(columns: Mapping[str, object], name: str) -> np.ndarray:
    try:
        raw = columns[name]
    except KeyError:
        raise ValueError(f"directive column {name!r} missing") from None
    array = np.asarray(raw)
    if array.ndim != 1 or (array.size and array.dtype.kind not in "iu"):
        raise ValueError(f"directive column {name!r} is not a list of integers")
    return array.astype(np.int64)


def _check_offsets(
    cols: Dict[str, np.ndarray], name: str, values: str, rows: int
) -> np.ndarray:
    """Validate one CSR offset column; returns the per-row counts."""
    offsets = cols[name]
    if len(offsets) != rows + 1 or offsets[0] != 0:
        raise ValueError(f"{name} must hold {rows + 1} offsets starting at 0")
    counts = np.diff(offsets)
    if np.any(counts < 0):
        raise ValueError(f"{name} decrease")
    if offsets[-1] != len(cols[values]):
        raise ValueError(
            f"{name} end at {offsets[-1]} but {values} holds "
            f"{len(cols[values])} values"
        )
    return counts


DirectiveSource = Union[DirectiveTable, Sequence[DirectiveEvent]]


def as_directive_table(directives: DirectiveSource) -> DirectiveTable:
    """A table as-is; an event sequence converted (positions must be
    sorted, as a trace's are)."""
    if isinstance(directives, DirectiveTable):
        return directives
    table = DirectiveTable.from_events(directives)
    if np.any(table.position[1:] < table.position[:-1]):
        raise ValueError("directive events must be position-ordered")
    return table


class ReferenceTrace:
    """The page-reference string of one execution.

    ``directives`` may be given as a :class:`DirectiveTable` or as a
    position-ordered sequence of :class:`DirectiveEvent`; the trace
    holds the table (``directive_table``) and exposes the event list as
    ``directives``, built on first access and a plain attribute after.
    """

    def __init__(
        self,
        program_name: str,
        pages,
        total_pages: int,
        directives: DirectiveSource = (),
        array_pages: Optional[Dict[str, Tuple[int, int]]] = None,
        truncated: bool = False,
    ) -> None:
        self.program_name = program_name
        self.pages = np.asarray(pages, dtype=np.int32)  # one page per access
        self.total_pages = total_pages  # V: size of the virtual page space
        self.directive_table = as_directive_table(directives)
        #: first_page/page_count per array, for diagnostics and reports
        self.array_pages = {} if array_pages is None else array_pages
        #: True when generation stopped at the reference cap
        self.truncated = truncated
        if len(self.pages) and self.pages.min() < 0:
            raise ValueError("negative page number in trace")
        if len(self.pages) and self.total_pages <= int(self.pages.max()):
            raise ValueError("total_pages smaller than a referenced page")

    @cached_property
    def directives(self) -> List[DirectiveEvent]:
        return self.directive_table.events()

    @property
    def length(self) -> int:
        """R: the reference-string length."""
        return int(len(self.pages))

    @property
    def distinct_pages(self) -> int:
        """Number of distinct pages actually referenced."""
        if not len(self.pages):
            return 0
        return int(len(np.unique(self.pages)))

    def footprint_by_array(self) -> Dict[str, int]:
        """Distinct pages referenced, per array."""
        result: Dict[str, int] = {}
        if not len(self.pages):
            return {name: 0 for name in self.array_pages}
        unique = np.unique(self.pages)
        for name, (first, count) in self.array_pages.items():
            mask = (unique >= first) & (unique < first + count)
            result[name] = int(mask.sum())
        return result

    def without_directives(self) -> "ReferenceTrace":
        """A copy that carries no directive events (for baseline runs)."""
        return ReferenceTrace(
            program_name=self.program_name,
            pages=self.pages,
            total_pages=self.total_pages,
            directives=DirectiveTable.empty(),
            array_pages=dict(self.array_pages),
            truncated=self.truncated,
        )

    def summary(self) -> str:
        return (
            f"{self.program_name}: R={self.length} references, "
            f"V={self.total_pages} pages ({self.distinct_pages} touched), "
            f"{len(self.directive_table)} directive events"
        )
