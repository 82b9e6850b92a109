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
* **WS** — the exact tier's :class:`~repro.vm.analyzers.WorkingSetKernel`
  over the kept references and their patched gaps.  Faults and
  working-set size sums weight each kept reference by its run weight.
  The fault term of the space-time product is a sum over faults of
  ``V_t · D(t, τ)``, with ``D`` the count of kept references resident
  at ``t``.  Its fault weights ``V`` are the run weights with each
  run's last copy moved onto copy 1: a fault at ``τ`` has ``b > τ``,
  and inside a run ``b`` is at most one period, so every copy ≥ 1
  faults in the period image of copy 1's window.  Omitted references
  stay resident at most one period, so only the last copy's window
  can reach them; that is why its weight moves.

Every public method mirrors :class:`~repro.vm.analyzers.LRUSweep` /
:class:`~repro.vm.analyzers.WSSweep` — same names, same arguments,
same tie-breaking, bit-identical results (asserted by the
``static-*`` oracle battery and the property suite).  Each is defined
in its own class body: the traced benchmark patches them per class.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.analysis.symbolic.collapse import Surrogate
from repro.vm.analyzers import LRUSweep, WorkingSetKernel, lru_frame_stats
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
        """Weighted twin of ``LRUSweep._frame_stats``: kept references
        carry their run weights."""
        if self._frame_stats_cache is None:
            self._frame_stats_cache = lru_frame_stats(
                self._distances,
                self._distinct,
                self.n,
                self.fault_service,
                self._weights,
            )
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
        s = surrogate
        # A run's last copy faults exactly as copy 1 does, but its
        # window reaches into omitted copies: its weight moves to copy 1.
        fault_weights = s.weights.copy()
        fault_weights[s.c1_kept] += 1
        fault_weights[s.c1_kept + np.repeat(s.r_block, s.r_block)] = 0
        self._kernel = WorkingSetKernel(
            self.n,
            s.backward,
            s.cap,
            fault_service,
            kept_pos=s.kept_pos,
            weights=s.weights,
            fault_weights=fault_weights,
        )
        self._cache: Dict[int, SimulationResult] = {}
        self._min_st_cache: Optional[SimulationResult] = None

    # -- point queries -------------------------------------------------------

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
        return self._kernel.lifetime(tau)

    def mean_frames(self, tau: int) -> int:
        return self._kernel.mean_frames(tau)

    # -- sweep helpers -------------------------------------------------------

    def default_taus(self, count: int = 48) -> List[int]:
        return self._kernel.default_taus(count)

    def curve(self, taus: Optional[Iterable[int]] = None) -> List[SimulationResult]:
        if taus is None:
            taus = self.default_taus()
        return [self.result(t) for t in taus]

    def min_space_time(self, taus: Optional[Iterable[int]] = None) -> SimulationResult:
        if taus is None and self._min_st_cache is not None:
            return self._min_st_cache
        grid = self.default_taus() if taus is None else taus
        best = self.result(self._kernel.min_space_time_tau(grid))
        if taus is None:
            self._min_st_cache = best
        return best

    def tau_for_mem(self, target_mem: float) -> int:
        return self._kernel.tau_for_mem(target_mem)

    def min_tau_with_faults_at_most(self, max_faults: int) -> Optional[int]:
        return self._kernel.min_tau_with_faults_at_most(max_faults)
