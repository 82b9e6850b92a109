"""Belady's MIN (OPT): the offline-optimal fixed-partition policy.

Not part of the paper's comparison tables, but the natural upper bound
for the ablation benchmarks (the paper cites [AhDU71] and DMIN
[BDMS81]).  OPT requires the whole future reference string; the
simulator calls :meth:`prepare` before replay.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Set

import numpy as np

from repro.vm.analyzers import next_occurrences
from repro.vm.policies.base import Policy


class OPTPolicy(Policy):
    """Fixed-allocation optimal replacement (evict farthest next use)."""

    name = "OPT"

    def __init__(self, frames: int):
        if frames < 1:
            raise ValueError("OPT needs at least one frame")
        self.frames = frames
        self._next_use: np.ndarray = np.empty(0, dtype=np.int64)
        self._resident: Set[int] = set()
        #: max-heap of (-next_use_time, page) — entries may be stale and
        #: are validated against ``_page_next`` on pop
        self._heap: List = []
        self._page_next: Dict[int, int] = {}
        self._prepared = False

    def prepare(self, pages: np.ndarray) -> None:
        """Precompute, for each position, the next position at which the
        same page is referenced (``len(pages)`` when never again)."""
        self._next_use = next_occurrences(pages)
        self._prepared = True

    def access(self, page: int, time: int) -> bool:
        if not self._prepared:
            raise RuntimeError("OPTPolicy.prepare(pages) must run before replay")
        upcoming = int(self._next_use[time])
        if page in self._resident:
            self._page_next[page] = upcoming
            heapq.heappush(self._heap, (-upcoming, page))
            return False
        if len(self._resident) >= self.frames:
            self._evict()
        self._resident.add(page)
        self._page_next[page] = upcoming
        heapq.heappush(self._heap, (-upcoming, page))
        return True

    def _evict(self) -> None:
        while self._heap:
            neg_next, page = heapq.heappop(self._heap)
            if page in self._resident and self._page_next.get(page) == -neg_next:
                self._resident.discard(page)
                del self._page_next[page]
                return
        raise RuntimeError("eviction requested with empty heap")  # pragma: no cover

    @property
    def resident_size(self) -> int:
        return len(self._resident)

    def reset(self) -> None:
        self._resident.clear()
        self._heap.clear()
        self._page_next.clear()
        self._prepared = False

    def describe_parameter(self) -> int:
        return self.frames
