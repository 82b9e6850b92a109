"""Verified run detection and the weighted surrogate reference string.

``detect_runs`` finds periodic stretches by direct comparison —
``pages[i] == pages[i - b]`` — over candidate periods supplied by the
compiler (references per innermost iteration), inside segments that are
pre-split at every directive position.  Because each run is verified
element-wise against the actual page string, a wrong period hint or a
non-periodic nest costs only compression, never correctness.

``Surrogate`` collapses each run of ``k`` repeats down to three kept
copies — the first (0), the second (1) and the last (k−1), at their
*true* positions — and gives every copy-1 reference weight ``1 + Ω``
(``Ω = k − 3`` omitted copies).  Two gap patches restore exact
backward/forward inter-reference gaps for the kept references:

* the last copy's backward gaps are the steady-state gaps every copy
  ``≥ 1`` has (its raw kept gaps would span the omitted hole), which
  are exactly copy-1's raw backward gaps;
* copy-1's forward gaps likewise become copy-0's raw forward gaps
  (copy-1's raw forward gaps would span the hole).

Every omitted copy then shares copy-1's patched gaps and caps: within a
run, a page's next/previous occurrence is at most one block away, so
the steady-state gap is the same for all interior copies, and the
position-dependent cap ``n − pos`` never binds (it is at least
``block + 1`` for omitted references).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.analysis.symbolic.runtrace import Run

#: same "never" sentinel the exact analyzers use
_INFINITE_DISTANCE = np.int64(2**62)

#: collapse only runs long enough to leave an interior (Ω >= 1)
MIN_REPEATS = 4


def _runs_in_interval(
    pages: np.ndarray, s: int, e: int, b: int, min_repeats: int
) -> List[Run]:
    """Maximal verified runs of period ``b`` inside ``pages[s:e]``."""
    if e - s < b * min_repeats:
        return []
    mis = np.flatnonzero(pages[s : e - b] != pages[s + b : e])
    mis += s
    return _runs_between(mis, 0, len(mis), s, e, b, min_repeats)


def _runs_between(
    mis: np.ndarray, i0: int, i1: int, s: int, e: int, b: int, min_repeats: int
) -> List[Run]:
    """Runs of period ``b`` in ``[s, e)`` given the sorted lower
    positions ``mis[i0:i1]`` of every mismatch ``pages[p] != pages[p+b]``
    with ``p`` in ``[s, e - b)``.  A mismatch-free stretch ``[st, en)``
    of lower positions means ``pages[st : en + b]`` is ``b``-periodic;
    runs are claimed left to right so they never overlap."""
    runs: List[Run] = []
    prev = s - 1
    prev_end = s
    for q in [*mis[i0:i1].tolist(), e - b]:
        st, en = prev + 1, q
        prev = q
        if en <= st:
            continue
        start = max(st, prev_end)
        k = (en + b - start) // b
        if k >= min_repeats:
            runs.append(Run(start, b, k))
            prev_end = start + k * b
    return runs


def detect_runs(
    pages: np.ndarray,
    segments: Sequence[Tuple[int, int, Sequence[int]]],
    boundaries: Sequence[int] = (),
    min_repeats: int = MIN_REPEATS,
) -> List[Run]:
    """Find verified periodic runs.

    ``segments`` — (start, end, candidate_periods) stretches emitted by
    one compiled nest each; ``boundaries`` — positions (directive
    firing points) no run may straddle.  Periods are tried smallest
    first; positions claimed by a run are excluded from later periods.
    """
    bounds = np.asarray(sorted(set(boundaries)), dtype=np.int64)
    runs: List[Run] = []
    for s0, e0, periods in segments:
        if e0 - s0 < min_repeats:
            continue
        inner = bounds[(bounds > s0) & (bounds < e0)]
        cuts = [s0, *inner.tolist(), e0]
        free = [
            (cuts[i], cuts[i + 1])
            for i in range(len(cuts) - 1)
            if cuts[i + 1] > cuts[i]
        ]
        for b in sorted({int(p) for p in periods if p >= 1}):
            if not free:
                break
            min_len = b * min_repeats
            if all(e - s < min_len for s, e in free):
                continue
            # mismatch lower positions for the whole segment, computed
            # once per period and shared by every free interval
            mis = np.flatnonzero(pages[s0 : e0 - b] != pages[s0 + b : e0])
            mis += s0
            next_free: List[Tuple[int, int]] = []
            for s, e in free:
                if e - s < min_len:
                    next_free.append((s, e))
                    continue
                i0 = int(np.searchsorted(mis, s, side="left"))
                i1 = int(np.searchsorted(mis, e - b, side="left"))
                found = _runs_between(mis, i0, i1, s, e, b, min_repeats)
                cur = s
                for run in found:
                    if run.start > cur:
                        next_free.append((cur, run.start))
                    cur = run.end
                if cur < e:
                    next_free.append((cur, e))
                runs.extend(found)
            free = next_free
    runs.sort(key=lambda r: r.start)
    return runs


def kept_mask(n: int, runs: Sequence[Run]) -> np.ndarray:
    """Boolean mask over ``n`` positions: True where the surrogate keeps
    the reference.  Each collapsible run keeps block copies 0, 1 and
    k−1; copies 2 … k−2 are dropped (their weight moves onto copy 1)."""
    mask = np.ones(n, dtype=bool)
    for r in runs:
        if r.repeats >= MIN_REPEATS:
            mask[r.start + 2 * r.block : r.start + (r.repeats - 1) * r.block] = (
                False
            )
    return mask


class Surrogate:
    """The weighted kept-reference view of a run-structured trace.

    Kept references carry their true positions; each collapsed run
    contributes three kept block copies (0, 1 and k−1) with copy-1
    weighted ``1 + Ω``.  ``backward``/``forward`` are the *true*
    inter-reference gaps of every kept reference (patched as described
    in the module docstring); ``cap`` is the WS residency cap
    ``min(forward, n − pos)``.
    """

    def __init__(self, pages: np.ndarray, runs: Sequence[Run]) -> None:
        pages = np.asarray(pages, dtype=np.int32)
        n = len(pages)
        mask = kept_mask(n, runs)
        kept_pos = np.flatnonzero(mask).astype(np.int64)
        self._init_from_parts(n, kept_pos, pages[kept_pos], runs)

    @classmethod
    def from_parts(
        cls,
        n_orig: int,
        kept_pos: np.ndarray,
        kept_pages: np.ndarray,
        runs: Sequence[Run],
    ) -> "Surrogate":
        """Build the surrogate without the flat page string.

        Contract: ``kept_pos`` must be exactly the positions
        :func:`kept_mask` keeps for ``runs`` (ascending), and
        ``kept_pages[i]`` the page referenced at ``kept_pos[i]`` — the
        static engine produces both in closed form.  The result is
        indistinguishable from ``Surrogate(pages, runs)``.
        """
        self = cls.__new__(cls)
        self._init_from_parts(
            n_orig,
            np.asarray(kept_pos, dtype=np.int64),
            np.asarray(kept_pages, dtype=np.int32),
            runs,
        )
        return self

    def _init_from_parts(
        self,
        n: int,
        kept_pos: np.ndarray,
        kept_pages: np.ndarray,
        runs: Sequence[Run],
    ) -> None:
        self.n_orig = n
        collapsed = [r for r in runs if r.repeats >= MIN_REPEATS]
        self.kept_pos = kept_pos
        self.kept_pages = kept_pages
        m = len(self.kept_pos)
        self.weights = np.ones(m, dtype=np.int64)
        nr = len(collapsed)
        self.r_start = np.empty(nr, dtype=np.int64)
        self.r_block = np.empty(nr, dtype=np.int64)
        self.r_omega = np.empty(nr, dtype=np.int64)
        self.r_c1ki = np.empty(nr, dtype=np.int64)
        self.r_olo = np.empty(nr, dtype=np.int64)
        self.r_ohi = np.empty(nr, dtype=np.int64)
        # kept index of each run's copy-1 start (position r.start + b is
        # always kept, so a left bisect lands exactly on it)
        c1ki_all = (
            np.searchsorted(
                self.kept_pos,
                np.array([r.start + r.block for r in collapsed], dtype=np.int64),
            )
            if nr
            else np.empty(0, dtype=np.int64)
        )
        for i, r in enumerate(collapsed):
            b, omega = r.block, r.repeats - 3
            self.r_start[i] = r.start
            self.r_block[i] = b
            self.r_omega[i] = omega
            c1ki = int(c1ki_all[i])
            self.r_c1ki[i] = c1ki
            self.r_olo[i] = r.start + 2 * b
            self.r_ohi[i] = r.start + (r.repeats - 1) * b
            self.weights[c1ki : c1ki + b] += omega
        #: kept indices of every copy-1 slot, concatenated run by run
        self.c1_kept = np.concatenate(
            [
                np.arange(ki, ki + b, dtype=np.int64)
                for ki, b in zip(self.r_c1ki.tolist(), self.r_block.tolist())
            ]
        ) if nr else np.empty(0, dtype=np.int64)
        self._compute_gaps()

    def _compute_gaps(self) -> None:
        m = len(self.kept_pos)
        backward = np.full(m, _INFINITE_DISTANCE, dtype=np.int64)
        forward = np.full(m, _INFINITE_DISTANCE, dtype=np.int64)
        if m:
            order = np.lexsort((self.kept_pos, self.kept_pages))
            pos = self.kept_pos[order]
            same = self.kept_pages[order][1:] == self.kept_pages[order][:-1]
            gaps = pos[1:] - pos[:-1]
            backward[order[1:][same]] = gaps[same]
            forward[order[:-1][same]] = gaps[same]
        # patches: last copy's backward := copy-1's (steady state);
        # copy-1's forward := copy-0's (steady state)
        for ki, b in zip(self.r_c1ki.tolist(), self.r_block.tolist()):
            backward[ki + b : ki + 2 * b] = backward[ki : ki + b]
            forward[ki : ki + b] = forward[ki - b : ki]
        self.backward = backward
        self.forward = forward
        self.cap = np.minimum(
            forward, self.n_orig - self.kept_pos
        )

    @property
    def total_weight(self) -> int:
        return self.n_orig

    def verify_weights(self) -> bool:
        """Self-check: kept weights account for every original reference."""
        return int(self.weights.sum()) == self.n_orig
