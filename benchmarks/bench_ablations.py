"""Benchmarks: the ablation studies this reproduction adds.

* Policy zoo — every implemented policy at CD's average memory (adds
  FIFO, OPT, and PFF to the paper's LRU/WS comparison).
* Sizing strategy — ACTIVE_PAGE (Figure-5 arithmetic) vs CONSERVATIVE
  (Figure-1 whole-column) locality sizing.
* LOCK effectiveness — the study the paper defers ("The effectiveness
  of LOCK and UNLOCK directives is not studied in this work").
"""

from repro.experiments.ablations import (
    lock_ablation,
    policy_zoo,
    render_lock_ablation,
    render_policy_zoo,
    render_sizing_ablation,
    sizing_strategy_ablation,
)

from .conftest import emit

# Representative subset: keeps the zoo benchmark under a minute while
# covering small (TQL), mid (HWSCRT), and large/phase-heavy (CONDUCT,
# INIT) programs.
ZOO_PROGRAMS = ["TQL", "INIT", "CONDUCT", "HWSCRT"]


def bench_policy_zoo(benchmark, warm_artifacts):
    rows = benchmark(policy_zoo, ZOO_PROGRAMS)
    emit("Ablation: policy zoo", render_policy_zoo(rows))
    benchmark.extra_info["faults"] = {
        r.program: {
            "cd": r.cd_pf,
            "lru": r.lru_pf,
            "fifo": r.fifo_pf,
            "opt": r.opt_pf,
            "ws": r.ws_pf,
            "pff": r.pff_pf,
        }
        for r in rows
    }


def bench_sizing_strategy(benchmark, warm_artifacts):
    rows = benchmark(sizing_strategy_ablation, ["MAIN", "TQL", "FIELD", "HWSCRT"])
    emit("Ablation: sizing strategy", render_sizing_ablation(rows))
    benchmark.extra_info["rows"] = {
        r.program: {
            "active": (round(r.active_mem, 2), r.active_pf),
            "conservative": (round(r.conservative_mem, 2), r.conservative_pf),
        }
        for r in rows
    }


def bench_lock_effectiveness(benchmark, warm_artifacts):
    rows = benchmark(lock_ablation, ["MAIN", "FDJAC", "TQL", "HYBRJ"])
    emit("Ablation: LOCK effectiveness", render_lock_ablation(rows))
    benchmark.extra_info["pf_saved"] = {r.program: r.pf_saved for r in rows}
