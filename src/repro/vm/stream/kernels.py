"""Vectorized per-chunk kernels for the streaming simulation core.

One shared scan (:class:`ChunkScan`) per trace chunk feeds every policy
state machine in the one-pass engine.  The scan computes, per
reference, the previous occurrence of the same page (``prev``), the
backward reuse gap, and a cold-miss flag — all against carried
cross-chunk state, so chunking is invisible in the results.

LRU additionally needs *stack distances* (number of distinct pages
since the previous occurrence, inclusive).  Computing them for a
whole trace is the job of :class:`repro.vm.analyzers.LRUSweep`; the
streaming engine instead answers sparse *threshold* queries
(``distance > m``?) at the references whose reuse gap exceeds the
allocation, with a block-snapshot decomposition:

* Split the chunk into blocks of ``C`` references and record, at each
  block boundary, the chunk-local last-occurrence position of every
  page (one scatter in page-major order plus a running maximum over
  block rows, then a row sort).
* For a query at ``t`` with in-chunk previous occurrence ``P``,

  ``d(t) = 1 + #{pages whose boundary last-occurrence > P}
         + #{s in [max(block_start, P+1), t) : prev[s] <= P}``

  — the first term (``alive``) is one ``searchsorted`` into the sorted
  snapshot row, the second a flat count over at most ``C`` in-block
  stragglers.  When ``P`` falls inside ``t``'s own block the snapshot
  term vanishes on its own (boundary positions all precede the block).
* Threshold queries rarely need the straggler count at all:
  ``alive <= d - 1 <= alive + window`` brackets the answer, and only
  queries whose bracket straddles the threshold touch the flat path.

References whose previous occurrence precedes the chunk have a
separate exact closed form from the carried state (at most one such
reference per page per chunk), so snapshots stay chunk-local int32.
Every path is exact; block size only trades snapshot memory
(``V`` entries per block) against straggler window length, so it grows
with the page space.  Distances are *defined* only for warm references
(cold misses are infinite); callers filter on ``cold``.
"""

from __future__ import annotations

import numpy as np

#: sentinel gap/distance for cold misses (greater than any real value)
INFINITE = np.int64(2**62)

#: clamp for chunk-local ``prev`` values that point before the chunk —
#: below any in-chunk position, so in-chunk comparisons stay exact
_CLAMP = np.int32(-(2**30))

#: default snapshot block size (references per block)
_BLOCK = 128

#: max elements per straggler-window flat batch (bounds peak memory)
_FLAT_BATCH = 1 << 22


class StreamCarry:
    """Cross-chunk scan state: global last occurrence per page."""

    def __init__(self, total_pages: int):
        self.lastocc = np.full(total_pages, -1, dtype=np.int64)


class ChunkScan:
    """Shared single-scan state over one chunk of the reference string.

    ``pages`` is the chunk's slice of the page string, ``base`` its
    global offset.  Construction updates ``carry`` in place (so scans
    must be built in stream order); a copy of the pre-chunk carry is
    kept for the cross-chunk distance path.
    """

    def __init__(self, pages: np.ndarray, base: int, carry: StreamCarry):
        self.pages = pages
        self.base = base
        self.n = n = len(pages)
        self.total_pages = len(carry.lastocc)
        lastocc = carry.lastocc
        self.lastocc_pre = lastocc.copy()
        # page-major order; uint16 keys radix-sort faster when V allows
        if self.total_pages <= 0xFFFF:
            order = np.argsort(pages.astype(np.uint16), kind="stable")
        else:
            order = np.argsort(pages, kind="stable")
        self.order = order
        sp = pages[order]
        self.sorted_pages = sp
        first = np.empty(n, dtype=bool)
        if n:
            first[0] = True
            first[1:] = sp[1:] != sp[:-1]
        self.first_sorted = first
        # previous occurrence, built in the sorted domain (the firsts
        # are at most one per page, so one full scatter suffices)
        prev_sorted = np.empty(n, dtype=np.int64)
        if n:
            rep = ~first
            prev_sorted[rep] = base + order[np.flatnonzero(rep) - 1]
            prev_sorted[first] = lastocc[sp[first]]
        prev = np.empty(n, dtype=np.int64)
        prev[order] = prev_sorted
        self.prev = prev
        self.prev_rel = np.clip(prev - base, _CLAMP, None).astype(np.int32)
        self.cold = prev < 0
        # inclusive; int32 cumsum measures ~2x faster than int64 here
        # and chunk lengths stay far below the int32 range
        self.cold_cum = np.cumsum(self.cold, dtype=np.int32)
        gaps = base + np.arange(n, dtype=np.int64) - prev
        np.copyto(gaps, INFINITE, where=self.cold)
        self.gap = gaps
        if n:
            last = np.empty(n, dtype=bool)
            last[:-1] = first[1:]
            last[-1] = True
            self.last_sorted = last
            lastocc[sp[last]] = base + order[last]
        else:
            self.last_sorted = first
        self._next_local = None
        self._snap = None
        self._cross = None

    # -- derived views ---------------------------------------------------------

    @property
    def next_local(self) -> np.ndarray:
        """Next occurrence of each reference's page within the chunk
        (global position; -1 when the page does not recur here)."""
        if self._next_local is None:
            nxt = np.full(self.n, -1, dtype=np.int64)
            if self.n:
                order = self.order
                rep = np.flatnonzero(~self.first_sorted)
                nxt[order[rep - 1]] = self.base + order[rep]
            self._next_local = nxt
        return self._next_local

    # -- stack-distance machinery ---------------------------------------------

    @property
    def block_size(self) -> int:
        """Snapshot block size: grows with the page space so snapshot
        memory stays a small multiple of the chunk itself."""
        C = _BLOCK
        while C * 16 < self.total_pages:
            C *= 2
        return C

    def _build_snapshots(self):
        n, C, V = self.n, self.block_size, self.total_pages
        nb = (n + C - 1) // C
        po, sp = self.order, self.sorted_pages
        blk = po // C
        # last position of each (page, block) run: page-major order keeps
        # positions ascending within a page, so run ends carry the max
        boundary = np.empty(n, dtype=bool)
        boundary[:-1] = (sp[1:] != sp[:-1]) | (blk[1:] != blk[:-1])
        boundary[-1] = True
        state = np.full((nb, V), -1, dtype=np.int32)
        # run ends in the last block feed no boundary row (the scatter
        # target would be row nb); drop them instead of branching
        inner = boundary.copy()
        inner[blk == nb - 1] = False
        state[blk[inner] + 1, sp[inner]] = po[inner]
        np.maximum.accumulate(state, axis=0, out=state)
        state.sort(axis=1)
        # row-lift so one flat searchsorted ranks every query in its own
        # block row; int32 when the lifted range allows (2x less memory
        # traffic in the rank search)
        if nb * (n + 2) < 2**31:
            lift = np.int32(n + 2)
            rows = np.arange(nb, dtype=np.int32)[:, None]
        else:
            lift = np.int64(n + 2)
            rows = np.arange(nb, dtype=np.int64)[:, None]
        snap = state + rows * lift
        self._snap = (C, snap.ravel(), lift)
        # prev_rel padded to whole blocks: straggler windows then read
        # contiguous (block, C) rows instead of 2-D index matrices
        relpad = np.empty(nb * C, dtype=np.int32)
        relpad[:n] = self.prev_rel
        self._relpad = relpad.reshape(nb, C)

    def _alive(self, q: np.ndarray, P_rel: np.ndarray) -> np.ndarray:
        """#pages whose last occurrence before ``q``'s block start lies
        strictly after ``P`` (chunk-local positions)."""
        if self._snap is None:
            self._build_snapshots()
        C, snap_flat, lift = self._snap
        blk = q // C
        keys = (P_rel + blk * lift).astype(snap_flat.dtype, copy=False)
        rank = np.searchsorted(snap_flat, keys, side="right")
        return (blk + 1) * self.total_pages - rank

    def _window_counts(self, start, t, P_rel) -> np.ndarray:
        """Exact ``#{s in [start, t) : prev[s] <= P}`` per query.

        Every window lies inside the query's own snapshot block, so
        each query reads one dense ``C``-wide row of ``prev_rel`` and
        masks to its window — pure gathers and compares, no ragged
        bookkeeping (cumsum-based ragged layouts measure several times
        slower than the dense rows they would save).  Batched so peak
        scratch stays bounded by ``_FLAT_BATCH`` elements.
        """
        C = self._snap[0]
        relpad = self._relpad
        out = np.empty(len(t), dtype=np.int64)
        step = max(1, _FLAT_BATCH // C)
        j = np.arange(C, dtype=np.int64)[None, :]
        for b in range(0, len(t), step):
            sl = slice(b, b + step)
            blkq = t[sl] // C
            rows = relpad[blkq]  # contiguous row copies, one per query
            bs = blkq * C
            hit = (
                (j >= (start[sl] - bs)[:, None])
                & (j < (t[sl] - bs)[:, None])
                & (rows <= P_rel[sl, None])
            )
            out[sl] = np.count_nonzero(hit, axis=1)
        return out

    def _build_cross(self):
        pre = self.lastocc_pre
        self._cross_pre = np.sort(pre[pre >= 0])
        xmask = (self.prev >= 0) & (self.prev < self.base)
        xq = np.flatnonzero(xmask)
        self._cross = (xq.astype(np.int64), self.prev[xq])
        # references that first touch their page within this chunk,
        # exclusive prefix count
        firsts = self.prev < self.base
        self._chunk_first_cum = np.concatenate(
            ([0], np.cumsum(firsts, dtype=np.int64))
        )

    def _cross_distances(self, q: np.ndarray) -> np.ndarray:
        """Exact distances for queries whose prev is in an earlier
        chunk: every page alive at the chunk boundary counts unless its
        boundary occurrence is at or before ``P`` and it was not
        re-touched, plus pages first touched in-chunk before ``t``
        (minus those whose pre-chunk occurrence already counted)."""
        if self._cross is None:
            self._build_cross()
        xtime, xprev = self._cross
        P = self.prev[q]
        touched = self._chunk_first_cum[q]
        alive_pre = len(self._cross_pre) - np.searchsorted(
            self._cross_pre, P, side="right"
        )
        if len(xtime):
            dead = (
                (xtime[None, :] < q[:, None]) & (xprev[None, :] > P[:, None])
            ).sum(axis=1)
        else:
            dead = 0
        return 1 + touched + alive_pre - dead

    def distance_gt(self, q: np.ndarray, threshold) -> np.ndarray:
        """Boolean ``stack distance > threshold`` at local positions
        ``q`` (non-cold; cold distances are infinite by definition and
        must be handled by the caller).  ``threshold`` is a scalar or
        an array aligned with ``q``.

        ``alive <= d - 1 <= alive + window`` resolves most queries from
        the snapshot rank alone; only bracket-straddlers pay for the
        flat straggler count.
        """
        if len(q) == 0:
            return np.empty(0, dtype=bool)
        thr = np.broadcast_to(np.asarray(threshold, dtype=np.int64), q.shape)
        out = np.empty(len(q), dtype=bool)
        cross = self.prev[q] < self.base
        cq = np.flatnonzero(cross)
        if len(cq):
            out[cq] = self._cross_distances(q[cq]) > thr[cq]
        iq = np.flatnonzero(~cross)
        if len(iq) == 0:
            return out
        qi = q[iq]
        t = thr[iq]
        P_rel = self.prev_rel[qi].astype(np.int64)
        alive = self._alive(qi, P_rel)
        C = self._snap[0]
        start = np.maximum((qi // C) * C, P_rel + 1)
        lens = qi - start
        # d > thr  <=>  alive + stragglers >= thr
        res = alive >= t  # certain: stragglers only add
        undecided = ~res & (alive + lens >= t)
        uq = np.flatnonzero(undecided)
        if len(uq):
            cnt = self._window_counts(start[uq], qi[uq], P_rel[uq])
            res[uq] = (alive[uq] + cnt) >= t[uq]
        out[iq] = res
        return out
