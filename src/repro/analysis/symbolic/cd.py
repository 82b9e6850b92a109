"""Closed-form CD replay over the run-structured trace.

:func:`~repro.vm.fastsim.simulate_cd_fast` replays CD as a segment-level
recurrence: a reference faults iff its LRU stack distance exceeds the
current residency ``r``, which ramps up by one per fault toward a
piecewise-constant target.  This module runs the same kernel
(:func:`~repro.vm.fastsim.replay_cd`, same schedule, same saturated
arithmetic) over the *collapsed* structure instead of the full distance
array:

* every kept reference gets its segment's target as threshold, and one
  prefix count of the kept references above it — weighted by the
  surrogate's weights, so each copy-1 slot also stands for its ``Ω``
  omitted copies — makes a saturated segment plain arithmetic, omitted
  spans included (``Ω ×`` the count in the copy-1 block);
* a segment entered below its target is walked over its kept
  references only — a search for the next distance above ``r``, one
  fault per step — until ``r`` reaches the target.  Omitted copies
  never fault while ``r`` ramps: each distinct page's first reference
  in a run's copy 0 sits at stack depth ≥ its rank among them, so copy
  0 leaves ``r ≥ min(distinct pages, target)``, and every later copy
  references its pages at depth ≤ the distinct count.  The walk adds
  them at the live residency and moves on; after saturation the rest
  of the segment is again prefix arithmetic.

The decomposition is sound because runs never straddle a directive
position (:func:`~repro.analysis.symbolic.collapse.detect_runs` splits
segments there), so a run's copies share one segment; this is
re-checked up front and a :exc:`ValueError` falls back to the exact
replay at the call site.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional

import numpy as np

from repro.analysis.symbolic.collapse import Surrogate
from repro.analysis.symbolic.runtrace import RunTrace
from repro.vm.fastsim import cd_schedule, first_above, prefix_sum, replay_cd
from repro.vm.metrics import FAULT_SERVICE_REFERENCES, SimulationResult
from repro.vm.policies.cd import CDConfig

__all__ = ["simulate_cd_symbolic"]


def simulate_cd_symbolic(
    runtrace: RunTrace,
    config: Optional[CDConfig] = None,
    surrogate: Optional[Surrogate] = None,
    kept_distances: Optional[np.ndarray] = None,
    fault_service: int = FAULT_SERVICE_REFERENCES,
) -> SimulationResult:
    """Replay CD from the run journal; equals ``simulate_cd_fast``.

    ``kept_distances`` are the kept string's LRU stack distances (they
    equal the true distances at kept references); pass
    ``LRUSweep(surrogate.kept_pages)._distances`` to share work with
    :class:`~repro.analysis.symbolic.locality.SymbolicLRU`, or leave
    None to compute them here.  Raises :exc:`ValueError` when the
    closed form does not apply (honored LOCKs, which the fast path
    replays fault to fault) or a directive lands inside a collapsed
    span (never for detector-built journals — re-checked anyway).
    """
    trace = runtrace.trace
    config = config or CDConfig()
    n = len(trace.pages)
    if config.honor_locks and trace.directive_table.has_locks:
        raise ValueError("LOCK pinning needs the fault-to-fault replay")
    schedule = cd_schedule(trace.directive_table, config, n)
    s = surrogate if surrogate is not None else Surrogate(trace.pages, runtrace.runs)
    if kept_distances is None:
        from repro.vm.analyzers import LRUSweep

        kept_distances = LRUSweep(s.kept_pages)._distances
    d = kept_distances
    bounds, targets = schedule.bounds, schedule.targets
    _check_structure(s, bounds, n)

    # kept index of each segment boundary; a run's omitted copies sit
    # right before kept index q (its last copy), after its copy-1 block
    kept_bounds = np.searchsorted(s.kept_pos, bounds)
    above = d > np.repeat(targets, np.diff(kept_bounds))
    weighted = prefix_sum(above, s.weights)
    seg_faults = weighted[kept_bounds[1:]] - weighted[kept_bounds[:-1]]
    run_bounds = np.searchsorted(s.r_olo, bounds).tolist()
    span_refs = prefix_sum(s.r_block, s.r_omega).tolist()
    qs = (s.r_c1ki + s.r_block).tolist()
    kb = kept_bounds.tolist()
    tl = targets.tolist()

    def ramp(k: int, r: int, acc: List[int]) -> int:
        t = tl[k]
        j, end = kb[k], kb[k + 1]
        i, last = run_bounds[k], run_bounds[k + 1]
        while r < t:
            hit = first_above(d, j, end, r)
            stop = end if hit < 0 else hit
            # every omitted copy inserted before ``stop`` is a hit
            skip = bisect_right(qs, stop, i, last)
            acc[1] += r * (stop - j + span_refs[skip] - span_refs[i])
            i, j = skip, stop
            if hit < 0:
                return r
            acc[0] += 1
            acc[1] += r + 1
            acc[2] += r + 1
            r += 1
            j = hit + 1
        # saturated for the rest of the segment
        faults = int(weighted[end] - weighted[j])
        acc[0] += faults
        acc[1] += t * (end - j + span_refs[last] - span_refs[i])
        acc[2] += t * faults
        return r

    faults, mem_sum, fault_mem = replay_cd(schedule, seg_faults, ramp)
    return SimulationResult(
        policy="CD",
        program=trace.program_name,
        page_faults=faults,
        references=n,
        mem_average=mem_sum / n if n else 0.0,
        space_time=float(mem_sum + fault_mem * fault_service),
        parameter=config.pi_cap,
        fault_service=fault_service,
        swaps=schedule.swaps,
        denied_requests=schedule.denials,
    )


def _check_structure(s: Surrogate, bounds: np.ndarray, n: int) -> None:
    """Reject journals the walk cannot account for: a collapsed run's
    kept copies out of place, or an allocation boundary inside a run
    before its last copy."""
    if not len(s.r_start):
        return
    kept_pos = s.kept_pos
    q = s.r_c1ki + s.r_block
    if (
        q.max() >= len(kept_pos)
        or np.any(kept_pos[s.r_c1ki] != s.r_start + s.r_block)
        or np.any(kept_pos[q - 1] != s.r_olo - 1)
        or np.any(kept_pos[q] != s.r_ohi)
        or len(kept_pos) + int((s.r_block * s.r_omega).sum()) != n
    ):
        raise ValueError("collapsed span overlaps a kept stretch")
    cuts = bounds[1:-1]
    if np.any(
        np.searchsorted(cuts, s.r_start, side="right")
        != np.searchsorted(cuts, s.r_ohi - 1, side="right")
    ):
        raise ValueError("allocation boundary inside a collapsed span")
