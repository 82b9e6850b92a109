"""Benchmark: regenerate Table 4 (memory LRU/WS need to match CD's
fault count).

Paper reference: "LRU and WS need on the average 247% and 175%
respectively, more memory than the CD needs to generate the same number
of page faults", with HWSCRT's LRU row the extreme (442%).

Reproduced shape: large positive average %MEM for LRU, LRU above WS,
CONDUCT/HWSCRT among the largest rows.
"""

from repro.experiments.table4 import generate_table4, render_table4

from .conftest import emit


def bench_table4(benchmark, warm_artifacts):
    rows = benchmark(generate_table4)
    emit("Table 4 (reproduced)", render_table4(rows))
    lru_avg = sum(r.pct_mem_lru for r in rows) / len(rows)
    ws_avg = sum(r.pct_mem_ws for r in rows) / len(rows)
    benchmark.extra_info["avg_pct_mem"] = {
        "lru": round(lru_avg, 1),
        "ws": round(ws_avg, 1),
    }
