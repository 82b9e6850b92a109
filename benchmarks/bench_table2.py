"""Benchmark: regenerate Table 2 (minimal-ST LRU and WS vs best CD).

Paper reference (%ST LRU / %ST WS): MAIN3 47/17, FDJAC 27/39,
FIELD 23/6, INIT 133/22, APPROX 36/58, HYBRJ 31/32, CONDUCT 288/32,
TQL1 7/4 — LRU and WS minima are always worse than the best CD run.

Reproduced shape: the best CD directive set matches or beats the
best-tuned LRU/WS everywhere except (as in the paper) the near-tie
TQL row, with the largest margins on the phase-varying programs.
"""

from repro.experiments.table2 import generate_table2, render_table2

from .conftest import emit


def bench_table2(benchmark, warm_artifacts):
    rows = benchmark(generate_table2)
    emit("Table 2 (reproduced)", render_table2(rows))
    benchmark.extra_info["pct_st"] = {
        r.label: {
            "lru": round(r.pct_st_lru, 1),
            "ws": round(r.pct_st_ws, 1),
        }
        for r in rows
    }
