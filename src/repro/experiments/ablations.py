"""Ablation studies beyond the paper's tables.

Three studies backing the design decisions called out in DESIGN.md:

* **Policy zoo** — every implemented policy (LRU, FIFO, OPT, WS, PFF,
  CD) replayed at (approximately) the same average memory, extending
  Table 3 with the static FIFO baseline, the offline OPT bound, and the
  PFF policy the paper's introduction discusses.
* **Sizing strategy** — ACTIVE_PAGE vs CONSERVATIVE column sizing in
  the locality calculus (the Figure-5 vs Figure-1 reading).
* **LOCK effectiveness** — the paper explicitly leaves LOCK/UNLOCK
  unevaluated ("The effectiveness of LOCK and UNLOCK directives is not
  studied in this work"); this ablation studies it: CD with and without
  LOCK processing at each directive-set level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.locality import SizingStrategy
from repro.experiments.report import format_table
from repro.experiments.runner import artifacts_for
from repro.vm.analyzers import previous_occurrences
from repro.vm.fastsim import simulate_opt_fast, simulate_pff_fast
from repro.vm.metrics import SimulationResult
from repro.vm.policies import (
    AdaptiveCDPolicy,
    CDConfig,
    ClockPolicy,
    DampedWorkingSetPolicy,
    SampledWorkingSetPolicy,
    VariableSampledWorkingSetPolicy,
    WorkingSetPolicy,
)
from repro.vm.simulator import simulate
from repro.workloads import workload_names


@dataclass(frozen=True)
class ZooRow:
    program: str
    mem_target: float
    cd_pf: int
    lru_pf: int
    fifo_pf: int
    clock_pf: int
    opt_pf: int
    ws_pf: int
    pff_pf: int


def policy_zoo(
    names: Optional[List[str]] = None, pi_cap: Optional[int] = 2
) -> List[ZooRow]:
    """Fault counts of every policy at CD's average memory.

    LRU, FIFO and WS come from :meth:`WorkloadArtifacts.policy_results`
    (point queries on the workload's sweeps for LRU and WS, a
    fault-to-fault replay for FIFO); OPT and PFF also replay fault to
    fault (:mod:`repro.vm.fastsim`); CLOCK keeps the event-driven path
    (its reference bits change on every hit).
    """
    from repro.vm.stream import StreamRequest

    rows = []
    for name in names or workload_names():
        artifacts = artifacts_for(name)
        cd = artifacts.cd_result(CDConfig(pi_cap=pi_cap))
        frames = max(1, round(cd.mem_average))
        trace = artifacts.trace
        tau = artifacts.ws.tau_for_mem(cd.mem_average)
        lru, fifo, ws = artifacts.policy_results(
            [
                StreamRequest.lru(frames),
                StreamRequest.fifo(frames),
                StreamRequest.ws(tau),
            ]
        )
        clock = simulate(trace, ClockPolicy(frames=frames))
        opt = simulate_opt_fast(trace, frames)
        pff = _pff_at_mem(trace, cd.mem_average)
        rows.append(
            ZooRow(
                program=name,
                mem_target=cd.mem_average,
                cd_pf=cd.page_faults,
                lru_pf=lru.page_faults,
                fifo_pf=fifo.page_faults,
                clock_pf=clock.page_faults,
                opt_pf=opt.page_faults,
                ws_pf=ws.page_faults,
                pff_pf=pff.page_faults,
            )
        )
    return rows


def _pff_at_mem(trace, mem_target: float) -> SimulationResult:
    """PFF result whose average memory best matches ``mem_target``.

    PFF's memory grows with its threshold; a coarse geometric search
    plus one refinement picks the closest threshold.  Every candidate
    replays fault to fault over one shared previous-occurrence array.
    """
    prev = previous_occurrences(trace)
    best: Optional[SimulationResult] = None
    threshold = 1
    candidates = []
    while threshold <= max(trace.length, 1):
        candidates.append(threshold)
        threshold *= 4
    for t in candidates:
        result = simulate_pff_fast(trace, t, prev=prev)
        if best is None or abs(result.mem_average - mem_target) < abs(
            best.mem_average - mem_target
        ):
            best = result
    # refine around the winner
    base = int(best.parameter)
    for t in (base // 2, base * 2, max(1, base * 3 // 2)):
        if t < 1:
            continue
        result = simulate_pff_fast(trace, t, prev=prev)
        if abs(result.mem_average - mem_target) < abs(
            best.mem_average - mem_target
        ):
            best = result
    return best


def render_policy_zoo(rows: Optional[List[ZooRow]] = None) -> str:
    rows = rows if rows is not None else policy_zoo()
    return format_table(
        ["PROGRAM", "MEM", "CD", "LRU", "FIFO", "CLOCK", "OPT", "WS", "PFF"],
        [
            (
                r.program,
                round(r.mem_target, 1),
                r.cd_pf,
                r.lru_pf,
                r.fifo_pf,
                r.clock_pf,
                r.opt_pf,
                r.ws_pf,
                r.pff_pf,
            )
            for r in rows
        ],
        title="Ablation: page faults of every policy at CD's average memory",
    )


@dataclass(frozen=True)
class StrategyRow:
    program: str
    pi_cap: Optional[int]
    active_mem: float
    active_pf: int
    conservative_mem: float
    conservative_pf: int


def sizing_strategy_ablation(
    names: Optional[List[str]] = None, pi_cap: Optional[int] = 1
) -> List[StrategyRow]:
    """ACTIVE_PAGE vs CONSERVATIVE locality sizing under inner-level
    directive sets (where column-walk sizing matters most)."""
    rows = []
    for name in names or workload_names():
        active = artifacts_for(name, strategy=SizingStrategy.ACTIVE_PAGE)
        conservative = artifacts_for(name, strategy=SizingStrategy.CONSERVATIVE)
        ra = active.cd_result(CDConfig(pi_cap=pi_cap))
        rc = conservative.cd_result(CDConfig(pi_cap=pi_cap))
        rows.append(
            StrategyRow(
                program=name,
                pi_cap=pi_cap,
                active_mem=ra.mem_average,
                active_pf=ra.page_faults,
                conservative_mem=rc.mem_average,
                conservative_pf=rc.page_faults,
            )
        )
    return rows


def render_sizing_ablation(rows: Optional[List[StrategyRow]] = None) -> str:
    rows = rows if rows is not None else sizing_strategy_ablation()
    return format_table(
        ["PROGRAM", "MEM act", "PF act", "MEM cons", "PF cons"],
        [
            (
                r.program,
                round(r.active_mem, 2),
                r.active_pf,
                round(r.conservative_mem, 2),
                r.conservative_pf,
            )
            for r in rows
        ],
        title="Ablation: ACTIVE_PAGE vs CONSERVATIVE column sizing (PI cap 1)",
    )


@dataclass(frozen=True)
class LockRow:
    program: str
    pi_cap: Optional[int]
    bare_mem: float
    bare_pf: int
    locked_mem: float
    locked_pf: int

    @property
    def pf_saved(self) -> int:
        return self.bare_pf - self.locked_pf


def lock_ablation(
    names: Optional[List[str]] = None, pi_cap: Optional[int] = 1
) -> List[LockRow]:
    """The study the paper defers: does LOCK help under tight sets?"""
    rows = []
    for name in names or workload_names():
        bare = artifacts_for(name, with_locks=False)
        locked = artifacts_for(name, with_locks=True)
        rb = bare.cd_result(CDConfig(pi_cap=pi_cap))
        rl = locked.cd_result(CDConfig(pi_cap=pi_cap))
        rows.append(
            LockRow(
                program=name,
                pi_cap=pi_cap,
                bare_mem=rb.mem_average,
                bare_pf=rb.page_faults,
                locked_mem=rl.mem_average,
                locked_pf=rl.page_faults,
            )
        )
    return rows


@dataclass(frozen=True)
class AdaptiveRow:
    program: str
    adaptive_st: float
    adaptive_pf: int
    adaptive_mem: float
    best_static_st: float
    best_static_cap: Optional[int]

    @property
    def ratio(self) -> float:
        return self.adaptive_st / self.best_static_st


def adaptive_cd_study(
    names: Optional[List[str]] = None,
) -> List[AdaptiveRow]:
    """Online directive-set selection vs the best offline choice.

    The paper selects each program's directive set before execution;
    :class:`AdaptiveCDPolicy` learns a level per directive site from
    fault-rate feedback instead.  Reported: the space-time ratio against
    the best static set (an oracle over PI caps ∞/2/1).
    """
    rows = []
    for name in names or workload_names():
        artifacts = artifacts_for(name)
        adaptive = simulate(artifacts.trace, AdaptiveCDPolicy())
        static = [
            artifacts.cd_result(CDConfig(pi_cap=cap)) for cap in (None, 2, 1)
        ]
        best = min(static, key=lambda r: r.space_time)
        rows.append(
            AdaptiveRow(
                program=name,
                adaptive_st=adaptive.space_time,
                adaptive_pf=adaptive.page_faults,
                adaptive_mem=adaptive.mem_average,
                best_static_st=best.space_time,
                best_static_cap=best.parameter,
            )
        )
    return rows


def render_adaptive_study(rows: Optional[List[AdaptiveRow]] = None) -> str:
    rows = rows if rows is not None else adaptive_cd_study()
    return format_table(
        ["PROGRAM", "CD-A ST", "CD-A PF", "best static ST", "cap", "ratio"],
        [
            (
                r.program,
                r.adaptive_st,
                r.adaptive_pf,
                r.best_static_st,
                "inf" if r.best_static_cap is None else r.best_static_cap,
                round(r.ratio, 2),
            )
            for r in rows
        ],
        title="Ablation: adaptive (online) directive-set selection vs the "
        "best offline set",
    )


@dataclass(frozen=True)
class WSFamilyRow:
    program: str
    tau: int
    ws_pf: int
    ws_mem: float
    dws_pf: int
    dws_mem: float
    sws_pf: int
    sws_mem: float
    vsws_pf: int
    vsws_mem: float


def ws_family_comparison(
    names: Optional[List[str]] = None, tau: int = 1500
) -> List[WSFamilyRow]:
    """WS vs its cheaper realizations (DWS, SWS, VSWS) at one window.

    The paper's survey claims these all land near WS with different
    cost/transition-fault trade-offs ("the DWS outperforms WS by less
    than 10%"; SWS is "a cheaper realization"; VSWS cuts "both
    implementation cost and transitional page faults").
    """
    rows = []
    for name in names or workload_names():
        trace = artifacts_for(name).trace
        ws = simulate(trace, WorkingSetPolicy(tau=tau))
        dws = simulate(trace, DampedWorkingSetPolicy(tau=tau))
        sws = simulate(trace, SampledWorkingSetPolicy(interval=tau))
        vsws = simulate(
            trace,
            VariableSampledWorkingSetPolicy(
                m_min=max(1, tau // 4), l_max=tau, q_faults=4
            ),
        )
        rows.append(
            WSFamilyRow(
                program=name,
                tau=tau,
                ws_pf=ws.page_faults,
                ws_mem=ws.mem_average,
                dws_pf=dws.page_faults,
                dws_mem=dws.mem_average,
                sws_pf=sws.page_faults,
                sws_mem=sws.mem_average,
                vsws_pf=vsws.page_faults,
                vsws_mem=vsws.mem_average,
            )
        )
    return rows


def render_ws_family(rows: Optional[List[WSFamilyRow]] = None) -> str:
    rows = rows if rows is not None else ws_family_comparison()
    return format_table(
        ["PROGRAM", "WS PF", "WS MEM", "DWS PF", "SWS PF", "VSWS PF", "VSWS MEM"],
        [
            (
                r.program,
                r.ws_pf,
                round(r.ws_mem, 1),
                r.dws_pf,
                r.sws_pf,
                r.vsws_pf,
                round(r.vsws_mem, 1),
            )
            for r in rows
        ],
        title=f"Ablation: the WS family at tau = {rows[0].tau if rows else '?'}",
    )


def render_lock_ablation(rows: Optional[List[LockRow]] = None) -> str:
    rows = rows if rows is not None else lock_ablation()
    return format_table(
        ["PROGRAM", "MEM bare", "PF bare", "MEM lock", "PF lock", "PF saved"],
        [
            (
                r.program,
                round(r.bare_mem, 2),
                r.bare_pf,
                round(r.locked_mem, 2),
                r.locked_pf,
                r.pf_saved,
            )
            for r in rows
        ],
        title="Ablation: LOCK/UNLOCK effectiveness under inner directive sets (PI cap 1)",
    )
