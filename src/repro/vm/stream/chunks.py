"""Chunked trace protocol: bounded-memory iteration over page strings.

A *chunk source* is anything the streaming engine can replay: it
exposes the trace metadata (length, page space, program name) and
yields ``TraceChunk`` views of the page string in order.
Two sources ship here:

* :class:`TraceChunks` adapts an in-RAM :class:`ReferenceTrace`
  (zero-copy slices), so existing call sites stream transparently.
* ``ShardedTrace`` (:mod:`repro.tracegen.io`) adapts the on-disk
  sharded format, where each shard is an mmap-backed ``.npy`` file and
  only the chunk being scanned is ever resident.

Chunk boundaries are invisible in results: the engine carries
cross-chunk state (last occurrences, policy state machines) so any
``chunk_size`` produces byte-identical metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.tracegen.events import ReferenceTrace

#: default references per chunk: large enough to amortize kernel
#: overheads, small enough to keep the scan tables cache-friendly
DEFAULT_CHUNK_SIZE = 1 << 16

#: hard ceiling — the scan's row-lifted merges assume chunk-local
#: positions fit comfortably in the lifted int64 value ranges
MAX_CHUNK_SIZE = 1 << 22


@dataclass(frozen=True)
class TraceChunk:
    """One dense slice of the reference string."""

    pages: np.ndarray  # int32 view, never mutated
    base: int  # global index of pages[0]
    is_last: bool


def _clamp_chunk_size(chunk_size: int) -> int:
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    return min(chunk_size, MAX_CHUNK_SIZE)


class TraceChunks:
    """Chunk source over an in-RAM :class:`ReferenceTrace`."""

    def __init__(
        self, trace: ReferenceTrace, chunk_size: int = DEFAULT_CHUNK_SIZE
    ):
        self.trace = trace
        self.chunk_size = _clamp_chunk_size(chunk_size)

    @property
    def program_name(self) -> str:
        return self.trace.program_name

    @property
    def total_pages(self) -> int:
        return self.trace.total_pages

    @property
    def length(self) -> int:
        return self.trace.length

    def chunks(self) -> Iterator[TraceChunk]:
        pages = self.trace.pages
        n = len(pages)
        if n == 0:
            return
        for base in range(0, n, self.chunk_size):
            stop = min(base + self.chunk_size, n)
            yield TraceChunk(
                pages=pages[base:stop], base=base, is_last=stop == n
            )


def as_chunk_source(source, chunk_size: int = None):
    """Coerce ``source`` into a chunk source.

    Accepts a :class:`ReferenceTrace`, an existing chunk source (object
    with ``.chunks()`` plus the metadata properties), or anything with
    a ``.as_chunks(chunk_size)`` adapter (the sharded reader).
    """
    size = DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size
    if isinstance(source, ReferenceTrace):
        return TraceChunks(source, size)
    if hasattr(source, "as_chunks"):
        return source.as_chunks(_clamp_chunk_size(size))
    if hasattr(source, "chunks"):
        return source
    raise TypeError(
        f"cannot stream from {type(source).__name__}: expected a "
        "ReferenceTrace, a sharded trace, or a chunk source"
    )
