"""Benchmark: regenerate Table 1 (directive-set study under CD).

Paper reference values (MEM, PF, ST×10⁻⁶):
MAIN 1.62/531/3.39 — MAIN1 20.37/144/3.89 — MAIN2 12.23/319/10.6 —
MAIN3 1.11/652/2.77 — FDJAC 2.47/178/1.46 — FDJAC1 3.11/175/2.04 —
TQL1 2.48/322/2.84 — TQL2 2.02/421/3.063.

The reproduced trend: outer-level directive sets consume more memory
and fault less; inner-level sets the reverse.
"""

from repro.experiments.table1 import generate_table1, render_table1

from .conftest import emit


def bench_table1(benchmark, warm_artifacts):
    rows = benchmark(generate_table1)
    emit("Table 1 (reproduced)", render_table1(rows))
    benchmark.extra_info["rows"] = {
        r.label: {
            "mem": round(r.mem, 2),
            "pf": r.page_faults,
            "st_millions": round(r.st_millions, 3),
        }
        for r in rows
    }
