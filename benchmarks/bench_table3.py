"""Benchmark: regenerate Table 3 (ΔPF and %ST at equal average memory).

Paper reference: "Using the same amount of memory, LRU and WS produce
on the average 2863 and 2340 more page faults than does CD", with rows
like CONDUCT ΔPF(LRU)=3477 / %ST=988.3 and INIT ΔPF(LRU)=2287.

Reproduced shape: large positive average ΔPF for both baselines, LRU
worse than WS, CONDUCT/INIT/FIELD rows dramatic.
"""

from repro.experiments.table3 import generate_table3, render_table3

from .conftest import emit


def bench_table3(benchmark, warm_artifacts):
    rows = benchmark(generate_table3)
    emit("Table 3 (reproduced)", render_table3(rows))
    lru_avg = sum(r.delta_pf_lru for r in rows) / len(rows)
    ws_avg = sum(r.delta_pf_ws for r in rows) / len(rows)
    benchmark.extra_info["avg_delta_pf"] = {
        "lru": round(lru_avg),
        "ws": round(ws_avg),
    }
    benchmark.extra_info["rows"] = {
        r.label: {
            "mem_cd": round(r.mem_cd, 2),
            "dpf_lru": r.delta_pf_lru,
            "pct_st_lru": round(r.pct_st_lru, 1),
            "dpf_ws": r.delta_pf_ws,
            "pct_st_ws": round(r.pct_st_ws, 1),
        }
        for r in rows
    }
