"""One-pass parameter-sweep analyzers for LRU and WS.

The paper's Tables 2–4 need LRU at *every* memory size 1..V and WS at
*many* window values.  Replaying the trace once per parameter is
wasteful; both policies admit single-pass analyses:

* **LRU is a stack algorithm** — one pass computes each reference's
  stack distance, from which the fault count for every partition size
  follows; the resident-set size under LRU with ``m`` frames after
  reference ``t`` is ``min(m, distinct_pages_seen(t))``, so MEM and ST
  follow too.
* **WS is window-defined** — a reference faults for window τ iff its
  backward inter-reference gap exceeds τ, and the working-set size at
  time ``t`` is the number of references ``s ≤ t`` that are still the
  most recent reference of their page and satisfy ``t < s + τ``; both
  derive from the backward/forward gap arrays in O(R) per τ.  One
  exact pass also bounds every other window's ST, so the minimum-ST
  search evaluates only a few windows.  :class:`WorkingSetKernel` holds
  this arithmetic for the trace and for the static tier's weighted
  surrogate alike.

Every number these analyzers produce agrees exactly with the
event-driven simulator (asserted by the test suite and the hypothesis
property tests).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.tracegen.events import ReferenceTrace
from repro.vm.metrics import FAULT_SERVICE_REFERENCES, SimulationResult

PagesLike = Union[ReferenceTrace, np.ndarray, List[int]]

#: Sentinel for "never" (first touch / no next reference): must exceed
#: any allocation or window a caller could query, not just the trace
#: length — callers may probe frames/τ larger than the trace.
_INFINITE_DISTANCE = np.int64(2**62)


def _as_pages(trace_or_pages: PagesLike) -> np.ndarray:
    if isinstance(trace_or_pages, ReferenceTrace):
        return trace_or_pages.pages
    return np.asarray(trace_or_pages, dtype=np.int32)


def previous_occurrences(trace_or_pages: PagesLike) -> np.ndarray:
    """``prev[t]``: index of the previous reference to ``pages[t]``
    (−1 on first touch), computed with one stable sort.

    This array, together with the LRU stack distances, is the whole
    state a segmented replay needs: after a flush at position ``f`` a
    reference faults iff ``prev < f`` (the page left with the flush) or
    its stack distance exceeds the allocation.  The multiprogrammed
    pool scheduler leans on exactly that identity.
    """
    pages = _as_pages(trace_or_pages)
    prev = np.full(len(pages), -1, dtype=np.int64)
    earlier, later = _successive_occurrences(pages)
    prev[later] = earlier
    return prev


def next_occurrences(trace_or_pages: PagesLike) -> np.ndarray:
    """``next_use[t]``: index of the next reference to ``pages[t]``
    (``len(pages)`` when it is never referenced again) — the future
    knowledge Belady's OPT evicts by."""
    pages = _as_pages(trace_or_pages)
    following = np.full(len(pages), len(pages), dtype=np.int64)
    earlier, later = _successive_occurrences(pages)
    following[earlier] = later
    return following


def _successive_occurrences(pages: np.ndarray):
    """Every pair of consecutive references to one page, as parallel
    ``(earlier, later)`` index arrays, from one stable sort (a radix
    sort when the pages fit in 16 bits)."""
    keys = pages
    if len(pages) and pages.min() >= 0 and pages.max() < 1 << 16:
        keys = pages.astype(np.uint16)
    order = np.argsort(keys, kind="stable").astype(np.int64, copy=False)
    ordered = keys[order]
    same = ordered[1:] == ordered[:-1]
    return order[:-1][same], order[1:][same]


def lru_frame_stats(
    distances: np.ndarray,
    distinct: np.ndarray,
    n: int,
    fault_service: int,
    weights: Optional[np.ndarray] = None,
):
    """``(faults, mem_sums, space_times)`` of LRU at every allocation
    ``m`` in 1..V, each indexed by ``m - 1``, in O(R + V) time and
    memory.  ``distances``/``distinct`` are per-reference stack
    distances (cold = huge) and distinct-pages-so-far; ``weights``
    (default 1) the references each entry stands for, ``n`` their sum.

    A reused page's stack distance is at most the distinct pages seen
    so far, so a reference that faults at ``m`` without being cold
    holds all ``m`` frames, and only the cold ones hold
    ``min(distinct, m)``.  Each sum is then one histogram (over
    distances or distinct counts) and its prefix sums.
    """
    v = max(int(distinct[-1]) if len(distinct) else 0, 1)
    d = np.minimum(distances, v + 1)  # v + 1: cold
    cold = d > v
    k = np.arange(v + 1, dtype=np.int64)

    def tally(keys: np.ndarray, w: Optional[np.ndarray]) -> np.ndarray:
        if w is None:
            return np.bincount(keys, minlength=v + 2)[: v + 1]
        counts = np.bincount(keys, weights=w.astype(np.float64), minlength=v + 2)
        return counts[: v + 1].astype(np.int64)

    def min_sums(counts: np.ndarray) -> np.ndarray:
        """``Σ_j counts[j]·min(j, m)`` for m in 1..v."""
        below = np.cumsum(counts)
        return (np.cumsum(counts * k) + k * (below[-1] - below))[1:]

    faults = n - np.cumsum(tally(d, weights))[1:]
    mem_sums = min_sums(tally(distinct, weights))
    cold_counts = tally(distinct[cold], None if weights is None else weights[cold])
    fault_mem = k[1:] * (faults - cold_counts.sum()) + min_sums(cold_counts)
    space_times = (mem_sums + fault_service * fault_mem).astype(np.float64)
    return faults, mem_sums, space_times


class LRUSweep:
    """All-partition-sizes LRU analysis of one reference string."""

    def __init__(
        self,
        trace_or_pages: PagesLike,
        program: str = "?",
        fault_service: int = FAULT_SERVICE_REFERENCES,
    ):
        if isinstance(trace_or_pages, ReferenceTrace):
            program = trace_or_pages.program_name
        self.program = program
        self.fault_service = fault_service
        self.pages = _as_pages(trace_or_pages)
        self._frame_stats_cache = None
        self._compute_distances()

    def _compute_distances(self) -> None:
        """LRU stack distances without a per-reference Python loop.

        With ``prev[t]`` the previous occurrence of the page referenced
        at ``t`` (−1 when cold), the stack distance satisfies

            distance(t) = #{s < t : prev[s] ≤ prev[t]} − prev[t]

        — each counted ``s`` is either ≤ prev[t] (contributing the
        subtracted prefix wholesale) or the *first* in-window occurrence
        of a distinct page.  That count is a two-sided dominance query
        answered offline: one bottom-up merge pass per doubling block
        size, all blocks of a level batched through one ``searchsorted``
        by lifting each block into its own disjoint value range.
        """
        n = len(self.pages)
        cold = _INFINITE_DISTANCE  # larger than any queryable allocation
        if n == 0:
            self._distances = np.empty(0, dtype=np.int64)
            self._distinct = np.empty(0, dtype=np.int64)
            self.max_useful_frames = 0
            return
        prev = previous_occurrences(self.pages)

        pad_point = n + 1  # sorts after every real prev, never ≤ a query
        offset = n + 3  # lifts row r into [r·offset, r·offset + n + 1]
        counts = np.zeros(n, dtype=np.int64)
        b = 1
        while b < n:
            width = 2 * b
            padded = ((n + width - 1) // width) * width
            points = np.full(padded, pad_point, dtype=np.int64)
            points[:n] = prev
            points = points.reshape(-1, width)
            left = np.sort(points[:, :b], axis=1)
            rows = np.arange(left.shape[0], dtype=np.int64)[:, None]
            queries = np.full(padded, -2, dtype=np.int64)  # pads count 0
            queries[:n] = prev
            queries = queries.reshape(-1, width)[:, b:]
            hits = (
                np.searchsorted(
                    (left + rows * offset).ravel(),
                    (queries + rows * offset).ravel(),
                    side="right",
                ).reshape(-1, b)
                - rows * b
            )
            pos = (rows * width + b + np.arange(b, dtype=np.int64)).ravel()
            valid = pos < n
            counts[pos[valid]] += hits.ravel()[valid]
            b = width

        distances = np.where(prev < 0, cold, counts - prev)
        self._distances = distances
        self._distinct = np.cumsum(prev < 0)
        #: number of distinct pages ever referenced
        self.max_useful_frames = int(self._distinct[-1]) if n else 0

    # -- persistence ---------------------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The precomputed per-reference arrays, for on-disk caching."""
        return {
            "pages": self.pages,
            "distances": self._distances,
            "distinct": self._distinct,
        }

    @classmethod
    def from_arrays(
        cls,
        arrays: Dict[str, np.ndarray],
        program: str = "?",
        fault_service: int = FAULT_SERVICE_REFERENCES,
    ) -> "LRUSweep":
        """Rebuild a sweep from :meth:`to_arrays` output without the
        O(R·depth) stack simulation."""
        sweep = object.__new__(cls)
        sweep.program = program
        sweep.fault_service = fault_service
        sweep.pages = np.asarray(arrays["pages"], dtype=np.int32)
        sweep._distances = np.asarray(arrays["distances"], dtype=np.int64)
        sweep._distinct = np.asarray(arrays["distinct"], dtype=np.int64)
        sweep._frame_stats_cache = None
        n = len(sweep.pages)
        sweep.max_useful_frames = int(sweep._distinct[-1]) if n else 0
        return sweep

    # -- point queries -------------------------------------------------------

    def faults(self, frames: int) -> int:
        """Page faults under LRU with ``frames`` frames."""
        if frames < 1:
            raise ValueError("frames must be >= 1")
        return int((self._distances > frames).sum())

    def mem(self, frames: int) -> float:
        """MEM: mean resident-set size."""
        if frames < 1:
            raise ValueError("frames must be >= 1")
        if not len(self.pages):
            return 0.0
        return float(np.minimum(self._distinct, frames).mean())

    def space_time(self, frames: int) -> float:
        """ST: space-time product including fault service."""
        if frames < 1:
            raise ValueError("frames must be >= 1")
        resident = np.minimum(self._distinct, frames)
        fault_mask = self._distances > frames
        return float(
            resident.sum() + self.fault_service * resident[fault_mask].sum()
        )

    def lifetime(self, frames: int) -> float:
        """Denning's lifetime function g(m): mean references between
        faults at allocation ``frames`` (``inf`` when nothing faults)."""
        faults = self.faults(frames)
        if faults == 0:
            return float("inf")
        return len(self.pages) / faults

    def _frame_stats(self):
        """Exact per-allocation sweep arrays for every m in 1..V:
        ``(faults, mem_sums, space_times)``, each indexed by ``m - 1``
        (:func:`lru_frame_stats`).  Every entry equals the corresponding
        point query.
        """
        if self._frame_stats_cache is None:
            self._frame_stats_cache = lru_frame_stats(
                self._distances, self._distinct, len(self.pages), self.fault_service
            )
        return self._frame_stats_cache

    def knee_frames(self) -> int:
        """The primary knee of the lifetime curve: the allocation
        maximizing g(m)/m, the classical operating point for
        load-control rules."""
        if not len(self.pages):
            return 1
        faults, _, _ = self._frame_stats()
        n = len(self.pages)
        scores = np.where(
            faults == 0,
            (n * 10.0) / np.arange(1, len(faults) + 1),
            (n / np.maximum(faults, 1)) / np.arange(1, len(faults) + 1),
        )
        return int(np.argmax(scores)) + 1

    def lifetime_curve(self) -> np.ndarray:
        """Denning's lifetime function g(m) for every m in 1..V: mean
        references between faults (``inf`` where nothing faults).

        This — with :meth:`knee_frames` — is the load-control API the
        multiprogrammed pool uses: knee-based admission sizes each
        process at the allocation maximizing g(m)/m and refuses to
        admit past the pool.
        """
        if not len(self.pages):
            return np.empty(0, dtype=np.float64)
        faults, _, _ = self._frame_stats()
        n = len(self.pages)
        with np.errstate(divide="ignore"):
            return np.where(faults > 0, n / np.maximum(faults, 1), np.inf)

    def result(self, frames: int) -> SimulationResult:
        return SimulationResult(
            policy="LRU",
            program=self.program,
            page_faults=self.faults(frames),
            references=len(self.pages),
            mem_average=self.mem(frames),
            space_time=self.space_time(frames),
            parameter=frames,
            fault_service=self.fault_service,
        )

    # -- sweep helpers ------------------------------------------------------------

    def curve(
        self, frames_values: Optional[Iterable[int]] = None
    ) -> List[SimulationResult]:
        """Results across a range of partition sizes (default 1..V)."""
        if frames_values is None:
            frames_values = range(1, max(self.max_useful_frames, 1) + 1)
        return [self.result(m) for m in frames_values]

    def min_space_time(self) -> SimulationResult:
        """The allocation minimizing ST (the paper's ST_min comparisons)."""
        if not len(self.pages):
            return self.result(1)
        _, _, space_times = self._frame_stats()
        return self.result(int(np.argmin(space_times)) + 1)

    def frames_for_mem(self, target_mem: float) -> int:
        """Smallest allocation whose MEM is closest to ``target_mem``
        (the paper's "similar values were obtained by direct assignment")."""
        if not len(self.pages):
            return 1
        _, mem_sums, _ = self._frame_stats()
        gaps = np.abs(mem_sums / len(self.pages) - target_mem)
        return int(np.argmin(gaps)) + 1

    def min_frames_with_faults_at_most(self, max_faults: int) -> Optional[int]:
        """Smallest allocation generating at most ``max_faults`` faults
        (LRU fault counts are monotone in the allocation: stack property)."""
        faults, _, _ = self._frame_stats()
        if faults[-1] > max_faults:
            return None
        return int(np.argmax(faults <= max_faults)) + 1


def _suffix_sums(values: np.ndarray) -> np.ndarray:
    """``out[k] = Σ values[k:]`` for ``k`` in ``0..len(values)``."""
    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values[::-1], out=out[1:])
    return out[::-1]


class WorkingSetKernel:
    """Exact Working Set indexes of one reference string, given by its
    kept references.

    Each kept reference carries its backward gap (it faults for window
    ``τ`` iff the gap exceeds ``τ``) and its residency cap
    ``min(forward gap, n − pos)``.  ``kept_pos`` holds the references'
    true positions (``None``: every one of the ``n`` positions is kept —
    the literal trace); ``weights`` the true references each one stands
    for, weighting the working-set size sum; ``fault_weights`` (``V``)
    the weight of each one's fault (``None``: all 1).

    With the working-set size at a kept reference ``t``

        D(t, τ) = #{kept s ≤ t : pos_s + min(cap_s, τ) > pos_t}

    the fault term of the space-time product is
    ``Σ_{kept t : b_t > τ} V_t · D(t, τ)``.  Writing ``g_s`` for the kept
    index of the end of ``s``'s residency interval, ``D(t, τ) = i_t + 1 −
    #{s : g_s ≤ i_t}``, so a point query is one prefix count of faults
    plus one gather at the ``g_s``; the minimum search evaluates ``D``
    itself and bounds every other window with it (:meth:`_first_min`).
    """

    def __init__(
        self,
        n: int,
        backward: np.ndarray,
        cap: np.ndarray,
        fault_service: int,
        kept_pos: Optional[np.ndarray] = None,
        weights: Optional[np.ndarray] = None,
        fault_weights: Optional[np.ndarray] = None,
    ):
        self.n = int(n)
        self.fault_service = fault_service
        m = len(backward)
        self._kept_pos = kept_pos
        self._fault_weights = fault_weights
        order = np.argsort(backward, kind="stable")
        self._sorted_backward = backward[order]
        # Σ over faults of V_t·i_t: one lookup for any τ.
        if fault_weights is None:
            self._fault_suffix = None
            self._index_suffix = _suffix_sums(order)
        else:
            ordered = fault_weights[order]
            self._fault_suffix = _suffix_sums(ordered)
            self._index_suffix = _suffix_sums(order * ordered)
        # Σ_s weight_s·min(cap_s, τ) from the caps sorted once.
        if weights is None:
            self._sorted_cap = np.sort(cap)
            self._cap_prefix = np.concatenate(([0], np.cumsum(self._sorted_cap)))
            self._weight_prefix = None
        else:
            cap_order = np.argsort(cap, kind="stable")
            self._sorted_cap = cap[cap_order]
            w = weights[cap_order]
            self._cap_prefix = np.concatenate(([0], np.cumsum(self._sorted_cap * w)))
            self._weight_prefix = np.concatenate(([0], np.cumsum(w)))
        if kept_pos is None:
            # int32 mirrors for the per-τ passes (halves memory traffic);
            # infinite gaps clip to 2^31-1, still above any queryable τ.
            clip = np.int64(2**31 - 1)
            self._backward = np.minimum(backward, clip).astype(np.int32)
            self._cap = cap.astype(np.int32)
            self._index = np.arange(m, dtype=np.int32)
        else:
            self._backward = backward
            self._cap = cap

    # -- closed-form pieces --------------------------------------------------

    def _fault_counts(self, tau):
        """Weighted fault count at ``tau`` (scalar or array) and the
        index ``k0`` where the faults start in backward-gap order."""
        k0 = np.searchsorted(self._sorted_backward, tau, side="right")
        if self._fault_suffix is None:
            return self.n - k0, k0
        return self._fault_suffix[k0], k0

    def _ws_size_sums(self, tau):
        """Σ_t |W(t, τ)| exactly, in O(log m), for a scalar or array."""
        split = np.searchsorted(self._sorted_cap, tau, side="right")
        below = split if self._weight_prefix is None else self._weight_prefix[split]
        return self._cap_prefix[split] + tau * (self.n - below)

    def _ends(self, tau: int) -> np.ndarray:
        """``g_s``: kept references strictly before the end of each kept
        reference's residency interval ``pos_s + min(cap_s, τ)``."""
        if self._kept_pos is None:
            return self._index + np.minimum(self._cap, tau)
        return np.searchsorted(
            self._kept_pos, self._kept_pos + np.minimum(self._cap, tau)
        )

    def _fault_space(self, tau: int, faults: int, k0: int) -> int:
        """``Σ_t V_t·D(t, τ)`` over faults, in prefix form:
        ``Σ V_t·(i_t + 1) − Σ_s W[g_s]`` with ``W`` the suffix sums of
        ``V·[b > τ]``, i.e. ``W[g] = faults − P[g]`` for prefix sums ``P``
        over the ``m`` kept references."""
        m = len(self._backward)
        if self._fault_weights is None:
            marks = np.empty(m + 1, dtype=np.int32)
            marks[0] = 0
            np.cumsum(self._backward > tau, dtype=np.int32, out=marks[1:])
        else:
            marks = np.zeros(m + 1, dtype=np.int64)
            np.cumsum(
                np.where(self._backward > tau, self._fault_weights, 0),
                out=marks[1:],
            )
        closed = int(marks[self._ends(tau)].sum(dtype=np.int64))
        return int(self._index_suffix[k0]) - ((m - 1) * faults - closed)

    def _sizes(self, tau: int) -> np.ndarray:
        """``V_t·D(t, τ)`` at every kept reference: one bincount of the
        interval ends and one cumsum."""
        m = len(self._backward)
        closed = np.cumsum(np.bincount(self._ends(tau), minlength=m + 1)[:m])
        sizes = np.arange(1, m + 1, dtype=np.int64) - closed
        if self._fault_weights is not None:
            sizes *= self._fault_weights
        return sizes

    # -- queries -------------------------------------------------------------

    def faults(self, tau: int) -> int:
        _check_tau(tau)
        return int(self._fault_counts(min(tau, self.n))[0])

    def mem(self, tau: int) -> float:
        _check_tau(tau)
        if not self.n:
            return 0.0
        return int(self._ws_size_sums(min(tau, self.n))) / self.n

    def lifetime(self, tau: int) -> float:
        """Mean references between faults at window ``tau``."""
        faults = self.faults(tau)
        if faults == 0:
            return float("inf")
        return self.n / faults

    def mean_frames(self, tau: int) -> int:
        """Mean working-set size at ``tau`` rounded up to whole frames
        (≥ 1 for a non-empty string)."""
        if not self.n:
            return 1
        return max(1, int(np.ceil(self.mem(tau))))

    def result(self, tau: int, program: str) -> SimulationResult:
        _check_tau(tau)
        tau_eff = min(tau, self.n)  # every gap and cap is ≤ n
        faults, k0 = self._fault_counts(tau_eff)
        faults, k0 = int(faults), int(k0)
        ws_sum = int(self._ws_size_sums(tau_eff))
        fault_space = self._fault_space(tau_eff, faults, k0)
        return SimulationResult(
            policy="WS",
            program=program,
            page_faults=faults,
            references=self.n,
            mem_average=ws_sum / self.n if self.n else 0.0,
            space_time=float(ws_sum + self.fault_service * fault_space),
            parameter=tau,
            fault_service=self.fault_service,
        )

    def default_taus(self, count: int = 48) -> List[int]:
        """A geometric grid of window sizes in [1, R]."""
        n = max(self.n, 2)
        grid = np.unique(np.round(np.geomspace(1, n, num=count)).astype(np.int64))
        return [int(t) for t in grid]

    def min_space_time_tau(self, taus: Iterable[int]) -> int:
        """The window minimizing ST over ``taus`` (first wins on ties),
        then refined over up to 33 evenly spaced windows between its
        grid neighbours; a refined window replaces it only when strictly
        better, and an empty refine range keeps it."""
        candidates = [int(t) for t in taus]
        if not candidates:
            raise ValueError("need at least one window")
        for tau in candidates:
            _check_tau(tau)
        index, best = self._first_min(candidates, np.inf)
        tau = candidates[index]
        lo = candidates[index - 1] if index > 0 else max(1, tau // 2)
        hi = candidates[index + 1] if index + 1 < len(candidates) else tau * 2
        step = max(1, (hi - lo) // 32)
        refine = list(range(lo, hi + 1, step))
        r_index, _ = self._first_min(refine, best)
        return tau if r_index is None else refine[r_index]

    def _first_min(self, taus: List[int], bar: float):
        """``(index, ST)`` of the first window in ``taus`` with minimal
        ST strictly below ``bar`` (``(None, bar)`` when there is none),
        by branch and bound.

        Every fault lies in its own working set, so ``ST(τ) ≥ ws(τ) +
        fs·F(τ)``.  An exact evaluation at ``τ_a`` yields ``D(·, τ_a)``,
        and ``D(t, ·)`` never decreases with the window while shrinking
        it by one reference loses at most one page, so for any ``τ``

            Σ_{b_t > τ} V_t·D(t, τ) ≥ Σ_{b_t > τ} V_t·D(t, τ_a)
                                        − max(0, τ_a − τ)·F(τ).

        Candidates are evaluated in ascending-bound order; one whose
        bound exceeds the best exact value (or equals it at a later
        index) can neither win nor tie first, and is never evaluated.
        Sums are exact in float64 (ST is a float64 everywhere).
        """
        fs = self.fault_service
        eff = np.minimum(np.asarray(taus, dtype=np.int64), self.n)
        faults = self._fault_counts(eff)[0].astype(np.float64)
        ws = self._ws_size_sums(eff).astype(np.float64)
        bound = ws + fs * faults
        windows, slot = np.unique(eff, return_inverse=True)
        # Fault sets nest in τ: t faults at windows[c] iff c < bucket[t].
        bucket = np.searchsorted(windows, self._backward, side="left")
        index = np.arange(len(eff))
        unseen = np.ones(len(eff), dtype=bool)
        best_index, best = -1, bar
        while True:
            live = unseen & (
                (bound < best) | ((bound == best) & (index < best_index))
            )
            if not live.any():
                break
            c = int(index[live][np.argmin(bound[live])])
            unseen[c] = False
            per_bucket = np.bincount(
                bucket, weights=self._sizes(int(eff[c])), minlength=len(windows) + 1
            )
            # Σ_{b_t > τ} V_t·D(t, τ_c) at every candidate τ
            anchored = np.cumsum(per_bucket[::-1])[::-1][slot + 1]
            st = ws[c] + fs * anchored[c]
            if st < best or (st == best and c < best_index):
                best_index, best = c, st
            shrink = np.maximum(eff[c] - eff, 0)
            bound = np.maximum(bound, ws + fs * self._bound(faults, anchored, shrink))
        return (None if best_index < 0 else best_index), best

    @staticmethod
    def _bound(faults: np.ndarray, anchored: np.ndarray, shrink: np.ndarray):
        """Lower bound on each window's fault term from one anchor:
        every fault's working set holds the fault itself, and it holds
        at most ``shrink`` fewer pages than at the anchor."""
        return np.maximum(faults, anchored - shrink * faults)

    def tau_for_mem(self, target_mem: float) -> int:
        """Window whose MEM best matches ``target_mem``; mean WS size is
        non-decreasing in τ, so bisection applies."""
        lo, hi = 1, max(self.n, 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.mem(mid) < target_mem:
                lo = mid + 1
            else:
                hi = mid
        # lo is the first τ reaching target; its neighbor below may be closer.
        best = lo
        if lo > 1 and abs(self.mem(lo - 1) - target_mem) < abs(
            self.mem(lo) - target_mem
        ):
            best = lo - 1
        return best

    def min_tau_with_faults_at_most(self, max_faults: int) -> Optional[int]:
        """Smallest window generating at most ``max_faults`` faults
        (WS fault counts are non-increasing in τ)."""
        lo, hi = 1, max(self.n, 1)
        if self.faults(hi) > max_faults:
            return None
        while lo < hi:
            mid = (lo + hi) // 2
            if self.faults(mid) <= max_faults:
                hi = mid
            else:
                lo = mid + 1
        return lo


def _check_tau(tau: int) -> None:
    if tau < 1:
        raise ValueError("tau must be >= 1")


class WSSweep:
    """All-window-sizes Working Set analysis of one reference string."""

    def __init__(
        self,
        trace_or_pages: PagesLike,
        program: str = "?",
        fault_service: int = FAULT_SERVICE_REFERENCES,
    ):
        if isinstance(trace_or_pages, ReferenceTrace):
            program = trace_or_pages.program_name
        self.program = program
        self.fault_service = fault_service
        self.pages = _as_pages(trace_or_pages)
        self._compute_gaps()

    def _compute_gaps(self) -> None:
        n = len(self.pages)
        backward = np.full(n, _INFINITE_DISTANCE, dtype=np.int64)
        forward = np.full(n, _INFINITE_DISTANCE, dtype=np.int64)  # "never again"
        if n:
            idx = np.arange(n, dtype=np.int64)
            # Stable sort by page keeps positions ascending inside each
            # page's occurrence list; consecutive entries of one page
            # are exactly the inter-reference gaps.
            order = np.lexsort((idx, self.pages))
            pos = idx[order]
            same = self.pages[order][1:] == self.pages[order][:-1]
            gaps = pos[1:] - pos[:-1]
            backward[pos[1:][same]] = gaps[same]
            forward[pos[:-1][same]] = gaps[same]
        self._backward = backward
        self._forward = forward
        self._init_kernel()

    def _init_kernel(self) -> None:
        # A reference at s keeps its page resident for
        # min(forward_s, τ, n - s) time steps.
        n = len(self.pages)
        cap = np.minimum(self._forward, n - np.arange(n, dtype=np.int64))
        self._kernel = WorkingSetKernel(n, self._backward, cap, self.fault_service)
        self._cache: Dict[int, SimulationResult] = {}
        self._min_st_cache: Optional[SimulationResult] = None

    # -- persistence ---------------------------------------------------------

    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The precomputed per-reference arrays, for on-disk caching."""
        return {
            "pages": self.pages,
            "backward": self._backward,
            "forward": self._forward,
        }

    @classmethod
    def from_arrays(
        cls,
        arrays: Dict[str, np.ndarray],
        program: str = "?",
        fault_service: int = FAULT_SERVICE_REFERENCES,
    ) -> "WSSweep":
        """Rebuild a sweep from :meth:`to_arrays` output."""
        sweep = object.__new__(cls)
        sweep.program = program
        sweep.fault_service = fault_service
        sweep.pages = np.asarray(arrays["pages"], dtype=np.int32)
        sweep._backward = np.asarray(arrays["backward"], dtype=np.int64)
        sweep._forward = np.asarray(arrays["forward"], dtype=np.int64)
        sweep._init_kernel()
        return sweep

    # -- point queries -----------------------------------------------------------

    def faults(self, tau: int) -> int:
        return self._kernel.faults(tau)

    def mem(self, tau: int) -> float:
        return self._kernel.mem(tau)

    def space_time(self, tau: int) -> float:
        return self.result(tau).space_time

    def result(self, tau: int) -> SimulationResult:
        cached = self._cache.get(tau)
        if cached is None:
            cached = self._cache[tau] = self._kernel.result(tau, self.program)
        return cached

    def lifetime(self, tau: int) -> float:
        """Mean references between faults at window ``tau``."""
        return self._kernel.lifetime(tau)

    def mean_frames(self, tau: int) -> int:
        """The WS load-control estimate: mean working-set size at
        window ``tau``, rounded up to whole frames (≥ 1 for a
        non-empty string) — what a WS-style admission controller
        reserves for the process."""
        return self._kernel.mean_frames(tau)

    # -- sweep helpers ---------------------------------------------------------------

    def default_taus(self, count: int = 48) -> List[int]:
        """A geometric grid of window sizes in [1, R]."""
        return self._kernel.default_taus(count)

    def curve(self, taus: Optional[Iterable[int]] = None) -> List[SimulationResult]:
        if taus is None:
            taus = self.default_taus()
        return [self.result(t) for t in taus]

    def min_space_time(self, taus: Optional[Iterable[int]] = None) -> SimulationResult:
        """The window minimizing ST over a grid (refined locally).

        The default-grid optimum is memoized (and persisted with the
        artifact cache), so warm runs never search.
        """
        if taus is None and self._min_st_cache is not None:
            return self._min_st_cache
        grid = self.default_taus() if taus is None else taus
        best = self.result(self._kernel.min_space_time_tau(grid))
        if taus is None:
            self._min_st_cache = best
        return best

    def tau_for_mem(self, target_mem: float) -> int:
        """Window whose MEM best matches ``target_mem`` (paper Table 3:
        "by adjusting the WS parameter, the window size τ")."""
        return self._kernel.tau_for_mem(target_mem)

    def min_tau_with_faults_at_most(self, max_faults: int) -> Optional[int]:
        """Smallest window generating at most ``max_faults`` faults."""
        return self._kernel.min_tau_with_faults_at_most(max_faults)
