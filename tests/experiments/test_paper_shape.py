"""The paper's headline trends, asserted on the reproduced tables.

Each test regenerates one table (or ablation) and checks the shape the
paper reports for it; ``benchmarks/bench_table*.py`` and
``bench_ablations.py`` time and print the same tables.
"""

from repro.experiments.ablations import (
    lock_ablation,
    policy_zoo,
    sizing_strategy_ablation,
)
from repro.experiments.table1 import generate_table1
from repro.experiments.table2 import generate_table2
from repro.experiments.table3 import generate_table3
from repro.experiments.table4 import generate_table4


def test_table1_outer_sets_use_more_memory_and_fault_less():
    by_label = {r.label: r for r in generate_table1()}
    assert by_label["MAIN1"].mem > by_label["MAIN2"].mem > by_label["MAIN3"].mem
    assert (
        by_label["MAIN1"].page_faults
        < by_label["MAIN2"].page_faults
        < by_label["MAIN3"].page_faults
    )


def test_table2_lru_minimum_worse_than_best_cd():
    # paper %ST LRU: CONDUCT 288, APPROX 36
    rows = generate_table2()
    by_label = {r.label: r for r in rows}
    assert by_label["CONDUCT"].pct_st_lru > 50
    assert by_label["APPROX"].pct_st_lru > 30
    assert sum(r.pct_st_lru for r in rows) / len(rows) > 10


def test_table3_baselines_fault_more_at_equal_memory():
    # paper: 2863 (LRU) and 2340 (WS) more page faults than CD on average
    rows = generate_table3()
    lru_avg = sum(r.delta_pf_lru for r in rows) / len(rows)
    ws_avg = sum(r.delta_pf_ws for r in rows) / len(rows)
    assert lru_avg > 1000
    assert ws_avg > 0
    assert lru_avg > ws_avg


def test_table4_baselines_need_more_memory_for_cd_faults():
    # paper: LRU 247% and WS 175% more memory on average, HWSCRT 442%
    rows = generate_table4()
    lru_avg = sum(r.pct_mem_lru for r in rows) / len(rows)
    ws_avg = sum(r.pct_mem_ws for r in rows) / len(rows)
    assert lru_avg > 50
    assert lru_avg > ws_avg
    assert {r.label: r for r in rows}["CONDUCT"].pct_mem_lru > 200


def test_policy_zoo_opt_bounds_lru_and_cd_keeps_up():
    for row in policy_zoo(["TQL", "INIT", "CONDUCT", "HWSCRT"]):
        # OPT is the offline bound: never above LRU at equal allocation.
        assert row.opt_pf <= row.lru_pf
        # CD at its own memory never loses to LRU by more than noise.
        assert row.cd_pf <= row.lru_pf * 1.05 + 5


def test_conservative_sizing_never_allocates_less_or_faults_more():
    for row in sizing_strategy_ablation(["MAIN", "TQL", "FIELD", "HWSCRT"]):
        assert row.conservative_mem >= row.active_mem - 1e-9
        assert row.conservative_pf <= row.active_pf


def test_lock_never_adds_faults_and_saves_on_tql():
    # TQL's inner-level sets would otherwise churn the D/E vector pages.
    rows = lock_ablation(["MAIN", "FDJAC", "TQL", "HYBRJ"])
    for row in rows:
        assert row.locked_pf <= row.bare_pf
    assert {r.program: r for r in rows}["TQL"].pf_saved > 1000
