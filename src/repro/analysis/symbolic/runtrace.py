"""Run-length-structured strings: the weighted analyzers' input form.

A :class:`RunTrace` is a reference string — an exact
:class:`~repro.tracegen.events.ReferenceTrace` or the static tier's
:class:`~repro.analysis.staticloc.string.StaticString` — plus a
*journal* of periodic runs: maximal stretches where the page string
repeats a block of ``block`` pages ``repeats`` times back to back.
The journal is what the weighted analyzers exploit: inside a run,
every interior copy of the block has the same reuse behaviour as its
neighbours, so LRU/WS/CD statistics for all ``repeats`` copies follow
from three representative copies and integer weights.

Runs are *verified* when they are claimed (``pages[s+b:e] ==
pages[s:e-b]`` element-wise, or its closed-form equivalent), so a
missed run only costs compression, never exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.tracegen.events import ReferenceTrace


@dataclass(frozen=True)
class Run:
    """One verified periodic stretch: ``pages[start : start + block*repeats]``
    is ``repeats`` back-to-back copies of a ``block``-page pattern."""

    start: int
    block: int
    repeats: int

    @property
    def end(self) -> int:
        return self.start + self.block * self.repeats

    @property
    def length(self) -> int:
        return self.block * self.repeats


@dataclass
class RunTrace:
    """A reference string together with its run journal."""

    trace: ReferenceTrace  # or the static tier's duck-typed StaticString
    runs: List[Run]

    def __post_init__(self) -> None:
        last_end = 0
        n = len(self.trace.pages)
        for run in self.runs:
            if run.start < last_end:
                raise ValueError("runs must be ordered and disjoint")
            if run.end > n:
                raise ValueError("run extends past the trace")
            if run.block < 1 or run.repeats < 2:
                raise ValueError("degenerate run")
            last_end = run.end
