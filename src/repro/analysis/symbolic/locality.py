"""Weighted LRU / WS analyzers over the collapsed surrogate.

Both classes reproduce the exact analyzers' integers from only the kept
references of a :class:`~repro.analysis.symbolic.collapse.Surrogate`:

* **LRU** — the kept string preserves every stack distance.  A kept
  reference's true previous occurrence is itself kept (a run's last
  copy survives collapse), and any omitted references inside the reuse
  window repeat pages that the window's surviving copies also contain,
  so the distinct count between occurrences is unchanged.  Omitted
  copies share their copy-1 slot's distance and distinct count (the
  reuse window of every interior copy is a period-shifted image of
  copy-1's), which is exactly what the copy-1 weights encode.
* **WS** — faults, working-set sizes and the fault-weighted space-time
  sum all have closed forms over the patched backward/forward gaps.
  The only subtle term is ``Σ_s faults_before(end_s)`` where
  ``end_s = s + min(cap_s, τ)``: for ends that land inside a collapsed
  run it is evaluated against the run's *arithmetic* fault layout
  (``q`` whole copies plus a partial prefix), never by expansion.

Every public method mirrors :class:`~repro.vm.analyzers.LRUSweep` /
:class:`~repro.vm.analyzers.WSSweep` — same names, same arguments,
same tie-breaking, bit-identical results (asserted by the
``static-*`` oracle battery and the property suite).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.analysis.symbolic.collapse import Surrogate
from repro.vm.analyzers import _DENSE_CURVE_LIMIT, LRUSweep
from repro.vm.metrics import FAULT_SERVICE_REFERENCES, SimulationResult

__all__ = ["SymbolicLRU", "SymbolicWS"]


class SymbolicLRU:
    """All-partition-sizes LRU analysis from a collapsed surrogate."""

    def __init__(
        self,
        surrogate: Surrogate,
        program: str = "?",
        fault_service: int = FAULT_SERVICE_REFERENCES,
        inner: Optional[LRUSweep] = None,
    ):
        self.program = program
        self.fault_service = fault_service
        self.surrogate = surrogate
        self.n = int(surrogate.n_orig)
        if inner is None:
            inner = LRUSweep(
                surrogate.kept_pages, program=program, fault_service=fault_service
            )
        #: true stack distance / distinct-so-far of each kept reference
        self._distances = inner._distances
        self._distinct = inner._distinct
        self._weights = surrogate.weights
        self.max_useful_frames = inner.max_useful_frames
        self._frame_stats_cache = None

    # -- point queries -------------------------------------------------------

    def faults(self, frames: int) -> int:
        if frames < 1:
            raise ValueError("frames must be >= 1")
        return int(self._weights[self._distances > frames].sum())

    def mem(self, frames: int) -> float:
        if frames < 1:
            raise ValueError("frames must be >= 1")
        if not self.n:
            return 0.0
        resident = np.minimum(self._distinct, frames)
        return int((resident * self._weights).sum()) / self.n

    def space_time(self, frames: int) -> float:
        if frames < 1:
            raise ValueError("frames must be >= 1")
        resident = np.minimum(self._distinct, frames) * self._weights
        fault_mask = self._distances > frames
        return float(resident.sum() + self.fault_service * resident[fault_mask].sum())

    def lifetime(self, frames: int) -> float:
        faults = self.faults(frames)
        if faults == 0:
            return float("inf")
        return self.n / faults

    def result(self, frames: int) -> SimulationResult:
        return SimulationResult(
            policy="LRU",
            program=self.program,
            page_faults=self.faults(frames),
            references=self.n,
            mem_average=self.mem(frames),
            space_time=self.space_time(frames),
            parameter=frames,
            fault_service=self.fault_service,
        )

    # -- whole-curve sweep ---------------------------------------------------

    def _frame_stats(self):
        """Weighted twin of ``LRUSweep._frame_stats`` (same histogram
        construction, kept references carrying their run weights)."""
        if self._frame_stats_cache is not None:
            return self._frame_stats_cache
        m = len(self._distances)
        v = max(self.max_useful_frames, 1)
        if m == 0 or v > _DENSE_CURVE_LIMIT:
            faults = np.array([self.faults(f) for f in range(1, v + 1)])
            mem_sums = np.array(
                [
                    int((np.minimum(self._distinct, f) * self._weights).sum())
                    for f in range(1, v + 1)
                ]
            )
            sts = np.array([self.space_time(f) for f in range(1, v + 1)])
            self._frame_stats_cache = (faults, mem_sums, sts)
            return self._frame_stats_cache
        d = np.minimum(self._distances, v + 1)
        k = self._distinct
        hist = (
            np.bincount(
                (d - 1) * v + (k - 1),
                weights=self._weights.astype(np.float64),
                minlength=(v + 1) * v,
            )
            .astype(np.int64)
            .reshape(v + 1, v)
        )
        m_col = np.arange(1, v + 1)[:, None]
        k_row = np.arange(1, v + 1)[None, :]
        min_mk = np.minimum(m_col, k_row)
        d_counts = hist.sum(axis=1)
        faults = self.n - np.cumsum(d_counts)[:v]
        k_counts = hist.sum(axis=0)
        mem_sums = min_mk @ k_counts
        suffix = np.cumsum(hist[::-1], axis=0)[::-1]
        fault_mem = np.einsum("mk,mk->m", suffix[1 : v + 1], min_mk)
        space_times = (mem_sums + self.fault_service * fault_mem).astype(np.float64)
        self._frame_stats_cache = (faults, mem_sums, space_times)
        return self._frame_stats_cache

    def knee_frames(self) -> int:
        if not self.n:
            return 1
        faults, _, _ = self._frame_stats()
        scores = np.where(
            faults == 0,
            (self.n * 10.0) / np.arange(1, len(faults) + 1),
            (self.n / np.maximum(faults, 1)) / np.arange(1, len(faults) + 1),
        )
        return int(np.argmax(scores)) + 1

    def lifetime_curve(self) -> np.ndarray:
        if not self.n:
            return np.empty(0, dtype=np.float64)
        faults, _, _ = self._frame_stats()
        with np.errstate(divide="ignore"):
            return np.where(faults > 0, self.n / np.maximum(faults, 1), np.inf)

    def curve(
        self, frames_values: Optional[Iterable[int]] = None
    ) -> List[SimulationResult]:
        if frames_values is None:
            frames_values = range(1, max(self.max_useful_frames, 1) + 1)
        return [self.result(f) for f in frames_values]

    def min_space_time(self) -> SimulationResult:
        if not self.n:
            return self.result(1)
        _, _, space_times = self._frame_stats()
        return self.result(int(np.argmin(space_times)) + 1)

    def frames_for_mem(self, target_mem: float) -> int:
        if not self.n:
            return 1
        _, mem_sums, _ = self._frame_stats()
        gaps = np.abs(mem_sums / self.n - target_mem)
        return int(np.argmin(gaps)) + 1

    def min_frames_with_faults_at_most(self, max_faults: int) -> Optional[int]:
        faults, _, _ = self._frame_stats()
        if faults[-1] > max_faults:
            return None
        return int(np.argmax(faults <= max_faults)) + 1


class SymbolicWS:
    """All-window-sizes Working Set analysis from a collapsed surrogate."""

    def __init__(
        self,
        surrogate: Surrogate,
        program: str = "?",
        fault_service: int = FAULT_SERVICE_REFERENCES,
    ):
        self.program = program
        self.fault_service = fault_service
        self.surrogate = surrogate
        self.n = int(surrogate.n_orig)
        self._init_helpers()
        self._cache: Dict[int, SimulationResult] = {}
        self._min_st_cache: Optional[SimulationResult] = None

    def _init_helpers(self) -> None:
        s = self.surrogate
        w = s.weights
        # faults(τ) and Σ(fault positions) by weighted prefix over
        # backward-sorted kept references.  posw folds in the omitted
        # copies of each copy-1 slot: positions p₁+b, …, p₁+Ωb sum to
        # Ω·p₁ + b·Ω(Ω+1)/2 on top of the slot's own weighted position.
        order = np.argsort(s.backward, kind="stable")
        self._sorted_backward = s.backward[order]
        self._wprefix = np.concatenate(([0], np.cumsum(w[order])))
        posw = s.kept_pos * w
        if len(s.c1_kept):
            om = s.r_omega[s.slot_run]
            posw = posw.copy()
            posw[s.c1_kept] += s.r_block[s.slot_run] * (om * (om + 1) // 2)
        self._posw_total = int(posw.sum())
        self._posw_prefix = np.concatenate(([0], np.cumsum(posw[order])))
        # Σ min(cap, τ) by weighted sorted caps.
        cap_order = np.argsort(s.cap, kind="stable")
        self._sorted_cap = s.cap[cap_order]
        self._capw_prefix = np.concatenate(
            ([0], np.cumsum(s.cap[cap_order] * w[cap_order]))
        )
        self._w_cap_prefix = np.concatenate(([0], np.cumsum(w[cap_order])))
        self._pos_maps = None

    def _position_maps(self):
        """Position-indexed twins of every per-τ ``phi`` lookup, shared
        by the whole batch sweep: for each position ``x`` in
        ``[0, n]`` — kept references before ``x``, runs wholly before
        ``x``, and (when ``x`` lands inside a collapsed span) the run
        index plus the precomputed whole-copy quotient ``q``, the
        partial-prefix slot index and the run's first slot index.
        Built lazily — point queries never pay."""
        if self._pos_maps is None:
            s = self.surrogate
            kept32 = s.kept_count.astype(np.int32)
            if not len(s.r_start):
                zeros = np.zeros(self.n + 1, dtype=np.int32)
                self._pos_maps = (kept32, zeros, zeros - 1, zeros, zeros, zeros)
                return self._pos_maps
            grid = np.arange(self.n + 1, dtype=np.int64)
            pos_runhi = np.searchsorted(s.r_ohi, grid, side="right").astype(
                np.int32
            )
            ridx = np.searchsorted(s.r_olo, grid, side="right") - 1
            safe = np.maximum(ridx, 0)
            olo = s.r_olo[safe]
            inside = (ridx >= 0) & (grid > olo) & (grid < s.r_ohi[safe])
            d = grid - olo
            b = s.r_block[safe]
            q = d // b
            off = s.r_c1off[safe]
            self._pos_maps = (
                kept32,
                pos_runhi,
                np.where(inside, safe, -1).astype(np.int32),
                np.where(inside, q, 0).astype(np.int32),
                np.where(inside, off + (d - q * b), 0).astype(np.int32),
                np.where(inside, off, 0).astype(np.int32),
            )
        return self._pos_maps

    # -- closed-form pieces --------------------------------------------------

    def _ws_size_sum(self, tau: int) -> int:
        split = int(np.searchsorted(self._sorted_cap, tau, side="right"))
        return int(self._capw_prefix[split]) + tau * (
            self.n - int(self._w_cap_prefix[split])
        )

    def _weighted_faults(self, tau_eff: int) -> int:
        k0 = int(np.searchsorted(self._sorted_backward, tau_eff, side="right"))
        return self.n - int(self._wprefix[k0])

    def _fault_space(self, tau_eff: int, faults: int) -> int:
        """Σ over all true references s of (#true faults in [s, e_s))
        with ``e_s = s + min(cap_s, τ)`` — the ST fault-space term."""
        s = self.surrogate
        m = len(s.kept_pos)
        if m == 0:
            return 0
        fm = (s.backward > tau_eff).astype(np.int64)
        fcum = np.concatenate(([0], np.cumsum(fm)))
        nr = len(s.r_start)
        if nr:
            fm_c1 = fm[s.c1_kept]
            gc = np.concatenate(([0], np.cumsum(fm_c1)))
            f_r = gc[s.r_c1off + s.r_block] - gc[s.r_c1off]
            full_prefix = np.concatenate(([0], np.cumsum(s.r_omega * f_r)))
        else:
            gc = np.zeros(1, dtype=np.int64)
            f_r = np.zeros(0, dtype=np.int64)
            full_prefix = np.zeros(1, dtype=np.int64)

        def phi(x: np.ndarray) -> np.ndarray:
            """Weighted count of true faults at positions < x."""
            kept = fcum[np.searchsorted(s.kept_pos, x, side="left")]
            if not nr:
                return kept
            full = full_prefix[np.searchsorted(s.r_ohi, x, side="right")]
            ridx = np.searchsorted(s.r_olo, x, side="right") - 1
            safe = np.maximum(ridx, 0)
            inside = (ridx >= 0) & (x > s.r_olo[safe]) & (x < s.r_ohi[safe])
            d = x - s.r_olo[safe]
            b = s.r_block[safe]
            q, rem = d // b, d % b
            off = s.r_c1off[safe]
            part = q * f_r[safe] + gc[off + rem] - gc[off]
            return kept + full + np.where(inside, part, 0)

        ends = s.kept_pos + np.minimum(s.cap, tau_eff)
        total = int(phi(ends).sum())
        if nr and len(s.c1_kept):
            # Omitted copies of slot j end at most 2b−1 past their copy
            # start; faults before those ends decompose into whole runs
            # before O_lo (K+F per copy), whole omitted copies of this
            # run (a triangular multiple of f_r) and one partial prefix.
            run = s.slot_run
            b = s.r_block[run]
            om = s.r_omega[run]
            u = s.slot_j + np.minimum(s.cap[s.c1_kept], tau_eff)
            le = u <= b
            k_part = fcum[s.r_c1ki[run] + b] + full_prefix[run]
            tri = np.where(le, om * (om - 1) // 2, om * (om + 1) // 2)
            off = s.r_c1off[run]
            pf = gc[off + np.where(le, u, u - b)] - gc[off]
            total += int((om * (k_part + pf) + f_r[run] * tri).sum())
        sum_at_starts = (self.n - 1) * faults - (
            self._posw_total - int(self._posw_prefix[
                np.searchsorted(self._sorted_backward, tau_eff, side="right")
            ])
        )
        return total - sum_at_starts

    def _analyze(self, tau: int) -> SimulationResult:
        if tau < 1:
            raise ValueError("tau must be >= 1")
        cached = self._cache.get(tau)
        if cached is not None:
            return cached
        if self.n == 0:
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
        tau_eff = min(tau, self.n)
        faults = self._weighted_faults(tau_eff)
        ws_sum = self._ws_size_sum(tau_eff)
        fault_space = self._fault_space(tau_eff, faults)
        result = SimulationResult(
            policy="WS",
            program=self.program,
            page_faults=faults,
            references=self.n,
            mem_average=ws_sum / self.n,
            space_time=float(ws_sum + self.fault_service * fault_space),
            parameter=tau,
            fault_service=self.fault_service,
        )
        self._cache[tau] = result
        return result

    # -- point queries -------------------------------------------------------

    def faults(self, tau: int) -> int:
        if tau < 1:
            raise ValueError("tau must be >= 1")
        cached = self._cache.get(tau)
        if cached is not None:
            return cached.page_faults
        if self.n == 0:
            return 0
        return self._weighted_faults(min(tau, self.n))

    def mem(self, tau: int) -> float:
        if tau < 1:
            raise ValueError("tau must be >= 1")
        cached = self._cache.get(tau)
        if cached is not None:
            return cached.mem_average
        if self.n == 0:
            return 0.0
        return self._ws_size_sum(min(tau, self.n)) / self.n

    def space_time(self, tau: int) -> float:
        return self._analyze(tau).space_time

    def result(self, tau: int) -> SimulationResult:
        return self._analyze(tau)

    def lifetime(self, tau: int) -> float:
        faults = self.faults(tau)
        if faults == 0:
            return float("inf")
        return self.n / faults

    def mean_frames(self, tau: int) -> int:
        if not self.n:
            return 1
        return max(1, int(np.ceil(self.mem(tau))))

    # -- sweep helpers -------------------------------------------------------

    def default_taus(self, count: int = 48) -> List[int]:
        n = max(self.n, 2)
        grid = np.unique(np.round(np.geomspace(1, n, num=count)).astype(np.int64))
        return [int(t) for t in grid]

    def curve(self, taus: Optional[Iterable[int]] = None) -> List[SimulationResult]:
        if taus is None:
            taus = self.default_taus()
        return [self.result(t) for t in taus]

    def _st_batch(self, taus_eff: np.ndarray) -> np.ndarray:
        """Space-time for a small batch of (effective) windows at once —
        the weighted twin of ``WSSweep._st_many``'s chunked matrix pass.
        Integer arithmetic throughout, so each row is bit-identical to
        the scalar ``_analyze`` path."""
        s = self.surrogate
        t = len(taus_eff)
        k0 = np.searchsorted(self._sorted_backward, taus_eff, side="right")
        faults = self.n - self._wprefix[k0]
        split = np.searchsorted(self._sorted_cap, taus_eff, side="right")
        ws_sum = self._capw_prefix[split] + taus_eff * (
            self.n - self._w_cap_prefix[split]
        )
        m = len(s.kept_pos)
        rows = np.arange(t)[:, None]
        FM = s.backward[None, :] > taus_eff[:, None]
        FCUM = np.zeros((t, m + 1), dtype=np.int32)
        np.cumsum(FM, axis=1, dtype=np.int32, out=FCUM[:, 1:])
        nr = len(s.r_start)
        kept_count, pos_runhi, pos_run, pos_q, pos_rem, pos_off = (
            self._position_maps()
        )
        if nr:
            c1 = len(s.c1_kept)
            GC = np.zeros((t, c1 + 1), dtype=np.int32)
            np.cumsum(FM[:, s.c1_kept], axis=1, dtype=np.int32, out=GC[:, 1:])
            F_R = GC[:, s.r_c1off + s.r_block] - GC[:, s.r_c1off]
            FULL = np.zeros((t, nr + 1), dtype=np.int32)
            np.cumsum(
                s.r_omega[None, :].astype(np.int32) * F_R,
                axis=1,
                dtype=np.int32,
                out=FULL[:, 1:],
            )
        ends = s.kept_pos[None, :] + np.minimum(s.cap[None, :], taus_eff[:, None])
        phi = FCUM[rows, kept_count[ends]]
        if nr:
            phi = phi + FULL[rows, pos_runhi[ends]]
            run = pos_run[ends]
            safe = np.maximum(run, 0)
            # whole omitted copies of the containing run plus the
            # partial prefix, both pre-resolved per position
            part = pos_q[ends] * F_R[rows, safe]
            part += GC[rows, pos_rem[ends]]
            part -= GC[rows, pos_off[ends]]
            phi = phi + np.where(run >= 0, part, 0)
        total = phi.sum(axis=1, dtype=np.int64)
        if nr and len(s.c1_kept):
            run = s.slot_run
            b1 = s.r_block[run]
            om = s.r_omega[run]
            u = s.slot_j[None, :] + np.minimum(
                s.cap[s.c1_kept][None, :], taus_eff[:, None]
            )
            le = u <= b1[None, :]
            k_part = FCUM[rows, (s.r_c1ki[run] + b1)[None, :]].astype(
                np.int64
            ) + FULL[rows, run[None, :]]
            tri = np.where(le, om * (om - 1) // 2, om * (om + 1) // 2)
            off1 = s.r_c1off[run][None, :]
            pf = GC[rows, off1 + np.where(le, u, u - b1[None, :])] - GC[
                rows, off1
            ]
            total = total + (
                om[None, :] * (k_part + pf)
                + F_R[rows, run[None, :]].astype(np.int64) * tri
            ).sum(axis=1)
        sum_at_starts = (self.n - 1) * faults - (
            self._posw_total - self._posw_prefix[k0]
        )
        fault_space = total - sum_at_starts
        return (ws_sum + self.fault_service * fault_space).astype(np.float64)

    def _st_many(self, taus: np.ndarray) -> np.ndarray:
        taus = np.asarray(taus, dtype=np.int64)
        if self.n == 0 or len(taus) == 0:
            return np.zeros(len(taus), dtype=np.float64)
        out = np.empty(len(taus), dtype=np.float64)
        taus_eff = np.minimum(taus, self.n)
        for i in range(0, len(taus), 16):
            out[i : i + 16] = self._st_batch(taus_eff[i : i + 16])
        return out

    def _st_lower_bounds(self, taus: np.ndarray) -> np.ndarray:
        """Cheap per-τ lower bound on space-time: ``ws_sum + fs·faults``.
        Sound because every fault lies inside its own window —
        ``e_p = p + min(cap_p, τ_eff) > p`` since caps and τ_eff are
        ≥ 1 — so the fault-space term is at least the fault count."""
        taus_eff = np.minimum(taus, self.n)
        k0 = np.searchsorted(self._sorted_backward, taus_eff, side="right")
        faults = self.n - self._wprefix[k0]
        split = np.searchsorted(self._sorted_cap, taus_eff, side="right")
        ws_sum = self._capw_prefix[split] + taus_eff * (
            self.n - self._w_cap_prefix[split]
        )
        return (ws_sum + self.fault_service * faults).astype(np.float64)

    def _pruned_min(
        self, candidates: List[int], threshold: float
    ) -> "tuple[Optional[int], float]":
        """First index achieving the minimal space-time over
        ``candidates``, skipping any candidate whose lower bound
        exceeds the best value seen (or ``threshold``).  Pruned
        candidates satisfy ``st >= lb > thr >= min``, so neither the
        argmin nor first-wins tie-breaking can change."""
        arr = np.asarray(candidates, dtype=np.int64)
        lbs = self._st_lower_bounds(arr)
        taus_eff = np.minimum(arr, self.n)
        seed = int(np.argmin(lbs))
        evaluated = {seed: float(self._st_batch(taus_eff[seed : seed + 1])[0])}
        thr = min(threshold, evaluated[seed])
        best_index: Optional[int] = None
        best_st = np.inf
        for i in range(len(arr)):
            if lbs[i] > thr:
                continue
            st = evaluated.get(i)
            if st is None:
                st = float(self._st_batch(taus_eff[i : i + 1])[0])
            if st < best_st:
                best_index, best_st = i, st
                thr = min(thr, st)
        return best_index, best_st

    def min_space_time(self, taus: Optional[Iterable[int]] = None) -> SimulationResult:
        if taus is None and self._min_st_cache is not None:
            return self._min_st_cache
        candidates = list(taus) if taus is not None else self.default_taus()
        if self.n == 0:
            best = self.result(candidates[0])
            if taus is None:
                self._min_st_cache = best
            return best
        index, _ = self._pruned_min(candidates, np.inf)
        best = self.result(candidates[index])
        tau = int(best.parameter)
        lo = candidates[index - 1] if index > 0 else max(1, tau // 2)
        hi = candidates[index + 1] if index + 1 < len(candidates) else tau * 2
        step = max(1, (hi - lo) // 32)
        refine = list(range(lo, hi + 1, step))
        r_index, r_st = self._pruned_min(refine, best.space_time)
        if r_index is not None and r_st < best.space_time:
            best = self.result(refine[r_index])
        if taus is None:
            self._min_st_cache = best
        return best

    def tau_for_mem(self, target_mem: float) -> int:
        lo, hi = 1, max(self.n, 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.mem(mid) < target_mem:
                lo = mid + 1
            else:
                hi = mid
        best = lo
        if lo > 1 and abs(self.mem(lo - 1) - target_mem) < abs(
            self.mem(lo) - target_mem
        ):
            best = lo - 1
        return best

    def min_tau_with_faults_at_most(self, max_faults: int) -> Optional[int]:
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
