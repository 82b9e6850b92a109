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
  derive from the backward/forward gap arrays in O(R) per τ.

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

#: Above this many distinct pages the O(V²) whole-curve histograms would
#: allocate large matrices; fall back to the per-allocation scan.
_DENSE_CURVE_LIMIT = 1500


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
    ``(earlier, later)`` index arrays, from one stable sort."""
    idx = np.arange(len(pages), dtype=np.int64)
    order = np.lexsort((idx, pages))
    po = idx[order]
    same = pages[order][1:] == pages[order][:-1]
    return po[:-1][same], po[1:][same]


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
        """Exact per-allocation sweep arrays for every m in 1..V.

        Returns ``(faults, mem_sums, space_times)`` — each an ndarray
        indexed by ``m - 1`` — computed from small histograms over
        (stack distance, distinct count) instead of one O(R) pass per
        allocation.  Every entry equals the corresponding point query.
        """
        if self._frame_stats_cache is not None:
            return self._frame_stats_cache
        n = len(self.pages)
        v = max(self.max_useful_frames, 1)
        if n == 0 or v > _DENSE_CURVE_LIMIT:
            faults = np.array([self.faults(m) for m in range(1, v + 1)])
            mem_sums = np.array(
                [np.minimum(self._distinct, m).sum() for m in range(1, v + 1)]
            )
            sts = np.array([self.space_time(m) for m in range(1, v + 1)])
            self._frame_stats_cache = (faults, mem_sums, sts)
            return self._frame_stats_cache
        # Clip distances into 1..v+1 (cold/deep references all behave
        # identically for any queried m ≤ v) and build the joint
        # histogram H[d-1, k-1] of (distance, distinct-so-far).
        d = np.minimum(self._distances, v + 1)
        k = self._distinct
        hist = np.bincount(
            (d - 1) * v + (k - 1), minlength=(v + 1) * v
        ).reshape(v + 1, v)
        m_col = np.arange(1, v + 1)[:, None]  # allocations, per row
        k_row = np.arange(1, v + 1)[None, :]  # distinct counts, per col
        min_mk = np.minimum(m_col, k_row)  # min(k, m) matrix
        # faults(m) = #{d > m}
        d_counts = hist.sum(axis=1)
        faults = n - np.cumsum(d_counts)[:v]
        # Σ_t min(distinct_t, m)
        k_counts = hist.sum(axis=0)
        mem_sums = min_mk @ k_counts
        # Σ_{t: d_t > m} min(distinct_t, m): suffix-over-distance rows
        suffix = np.cumsum(hist[::-1], axis=0)[::-1]
        fault_mem = np.einsum("mk,mk->m", suffix[1 : v + 1], min_mk)
        space_times = (mem_sums + self.fault_service * fault_mem).astype(
            np.float64
        )
        self._frame_stats_cache = (faults, mem_sums, space_times)
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
        self._cache: Dict[int, SimulationResult] = {}
        self._min_st_cache: Optional[SimulationResult] = None

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
        self._init_point_helpers()

    def _init_point_helpers(self) -> None:
        n = len(self.pages)
        order = np.argsort(self._backward, kind="stable")
        self._sorted_backward = self._backward[order]
        # Suffix sums of reference positions in backward-gap order:
        # Σ of fault positions for any τ is one searchsorted away.
        pos_suffix = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(order[::-1], out=pos_suffix[1:])
        self._fault_pos_suffix = pos_suffix[::-1]
        # A reference at s keeps its page resident for
        # min(forward_s, τ, n - s) time steps; the τ-independent cap
        # sorted once turns Σ_s min(cap_s, τ) into two lookups.
        cap = np.minimum(self._forward, n - np.arange(n, dtype=np.int64))
        self._sorted_cap = np.sort(cap)
        self._cap_prefix = np.concatenate(
            ([0], np.cumsum(self._sorted_cap))
        )
        # int32 mirrors for the per-τ pass (halves memory traffic);
        # infinite gaps clip to 2^31-1, still above any queryable τ.
        clip = np.int64(2**31 - 1)
        self._backward32 = np.minimum(self._backward, clip).astype(np.int32)
        self._cap32 = cap.astype(np.int32)
        self._arange32 = np.arange(n, dtype=np.int32)

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
        sweep._init_point_helpers()
        sweep._cache = {}
        sweep._min_st_cache = None
        return sweep

    def _ws_size_sum(self, tau: int) -> int:
        """Σ_t |W(t, τ)| exactly, in O(log R)."""
        n = len(self.pages)
        split = int(np.searchsorted(self._sorted_cap, tau, side="right"))
        return int(self._cap_prefix[split]) + tau * (n - split)

    def _analyze(self, tau: int) -> SimulationResult:
        if tau < 1:
            raise ValueError("tau must be >= 1")
        cached = self._cache.get(tau)
        if cached is not None:
            return cached
        n = len(self.pages)
        if n == 0:
            result = SimulationResult(
                policy="WS",
                program=self.program,
                page_faults=0,
                references=0,
                mem_average=0.0,
                space_time=0.0,
                parameter=tau,
                fault_service=self.fault_service,
            )
            self._cache[tau] = result
            return result
        # All three indexes have closed forms over the gap arrays; the
        # only O(R) work left is one prefix count of faults plus one
        # gather at the interval ends (exact, integer arithmetic).
        tau_eff = min(tau, n)  # every gap and cap is ≤ n
        k0 = int(np.searchsorted(self._sorted_backward, tau_eff, side="right"))
        faults = n - k0
        ws_sum = self._ws_size_sum(tau_eff)
        # Σ_{t fault} |W(t,τ)| = Σ_s (#faults < e_s) - Σ_s (#faults < s)
        # where e_s = s + min(cap_s, τ); the second term telescopes to
        # (n-1)·faults - Σ(fault positions).
        prefix = np.empty(n + 1, dtype=np.int32)
        prefix[0] = 0
        np.cumsum(self._backward32 > tau_eff, dtype=np.int32, out=prefix[1:])
        ends = self._arange32 + np.minimum(self._cap32, tau_eff)
        sum_at_ends = int(prefix[ends].sum(dtype=np.int64))
        sum_at_starts = (n - 1) * faults - int(self._fault_pos_suffix[k0])
        fault_space = sum_at_ends - sum_at_starts
        result = SimulationResult(
            policy="WS",
            program=self.program,
            page_faults=faults,
            references=n,
            mem_average=ws_sum / n,
            space_time=float(ws_sum + self.fault_service * fault_space),
            parameter=tau,
            fault_service=self.fault_service,
        )
        self._cache[tau] = result
        return result

    # -- point queries -----------------------------------------------------------

    def faults(self, tau: int) -> int:
        if tau < 1:
            raise ValueError("tau must be >= 1")
        cached = self._cache.get(tau)
        if cached is not None:
            return cached.page_faults
        n = len(self.pages)
        return n - int(
            np.searchsorted(self._sorted_backward, tau, side="right")
        )

    def mem(self, tau: int) -> float:
        if tau < 1:
            raise ValueError("tau must be >= 1")
        cached = self._cache.get(tau)
        if cached is not None:
            return cached.mem_average
        n = len(self.pages)
        if n == 0:
            return 0.0
        return self._ws_size_sum(tau) / n

    def space_time(self, tau: int) -> float:
        return self._analyze(tau).space_time

    def result(self, tau: int) -> SimulationResult:
        return self._analyze(tau)

    def lifetime(self, tau: int) -> float:
        """Mean references between faults at window ``tau``."""
        faults = self.faults(tau)
        if faults == 0:
            return float("inf")
        return len(self.pages) / faults

    def mean_frames(self, tau: int) -> int:
        """The WS load-control estimate: mean working-set size at
        window ``tau``, rounded up to whole frames (≥ 1 for a
        non-empty string) — what a WS-style admission controller
        reserves for the process."""
        if not len(self.pages):
            return 1
        return max(1, int(np.ceil(self.mem(tau))))

    # -- sweep helpers ---------------------------------------------------------------

    def default_taus(self, count: int = 48) -> List[int]:
        """A geometric grid of window sizes in [1, R]."""
        n = max(len(self.pages), 2)
        grid = np.unique(
            np.round(np.geomspace(1, n, num=count)).astype(np.int64)
        )
        return [int(t) for t in grid]

    def curve(self, taus: Optional[Iterable[int]] = None) -> List[SimulationResult]:
        if taus is None:
            taus = self.default_taus()
        return [self.result(t) for t in taus]

    def _st_many(self, taus: np.ndarray) -> np.ndarray:
        """Exact ST for a whole batch of windows in a few array passes.

        Same integer arithmetic as :meth:`_analyze`, vectorized over τ
        (chunked to bound the R×T working set); every entry equals the
        corresponding ``space_time(tau)``.
        """
        n = len(self.pages)
        taus = np.asarray(taus, dtype=np.int64)
        if n == 0:
            return np.zeros(len(taus), dtype=np.float64)
        tau_eff = np.minimum(taus, n)
        k0 = np.searchsorted(self._sorted_backward, tau_eff, side="right")
        faults = n - k0
        split = np.searchsorted(self._sorted_cap, tau_eff, side="right")
        ws_sum = self._cap_prefix[split] + tau_eff * (n - split)
        sum_at_starts = (n - 1) * faults - self._fault_pos_suffix[k0]
        sum_at_ends = np.empty(len(taus), dtype=np.int64)
        tau32 = tau_eff.astype(np.int32)
        for lo in range(0, len(taus), 16):
            block = tau32[lo : lo + 16, None]
            prefix = np.cumsum(
                self._backward32[None, :] > block, axis=1, dtype=np.int32
            )
            # e_s = s + min(cap_s, τ) ≥ 1, so prefix[e_s - 1] is the
            # fault count strictly before the interval end.
            ends = self._arange32 + np.minimum(self._cap32, block)
            rows = np.arange(len(block), dtype=np.int64)[:, None] * n
            gathered = prefix.ravel()[(ends - 1) + rows]
            sum_at_ends[lo : lo + 16] = gathered.sum(axis=1, dtype=np.int64)
        fault_space = sum_at_ends - sum_at_starts
        return (ws_sum + self.fault_service * fault_space).astype(np.float64)

    def min_space_time(self, taus: Optional[Iterable[int]] = None) -> SimulationResult:
        """The window minimizing ST over a grid (refined locally).

        The default-grid optimum is memoized (and persisted with the
        artifact cache) — the ~80-window scan is the dominant cost of a
        warm Table 2 run otherwise.
        """
        if taus is None and self._min_st_cache is not None:
            return self._min_st_cache
        candidates = list(taus) if taus is not None else self.default_taus()
        sts = self._st_many(np.array(candidates, dtype=np.int64))
        index = int(np.argmin(sts))
        best = self.result(candidates[index])
        # Local refinement around the best grid point.
        tau = int(best.parameter)
        lo = candidates[index - 1] if index > 0 else max(1, tau // 2)
        hi = candidates[index + 1] if index + 1 < len(candidates) else tau * 2
        step = max(1, (hi - lo) // 32)
        refine = list(range(lo, hi + 1, step))
        refine_sts = self._st_many(np.array(refine, dtype=np.int64))
        r_index = int(np.argmin(refine_sts))
        if refine_sts[r_index] < best.space_time:
            best = self.result(refine[r_index])
        if taus is None:
            self._min_st_cache = best
        return best

    def tau_for_mem(self, target_mem: float) -> int:
        """Window whose MEM best matches ``target_mem`` (paper Table 3:
        "by adjusting the WS parameter, the window size τ").

        Mean WS size is non-decreasing in τ, so bisection applies.
        """
        lo, hi = 1, max(len(self.pages), 1)
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
        lo, hi = 1, max(len(self.pages), 1)
        if self.faults(hi) > max_faults:
            return None
        while lo < hi:
            mid = (lo + hi) // 2
            if self.faults(mid) <= max_faults:
                hi = mid
            else:
                lo = mid + 1
        return lo
