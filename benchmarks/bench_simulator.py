"""Performance benchmarks: simulator and analyzer throughput.

These are true timing benchmarks (many rounds, meaningful statistics),
complementing the table-regeneration benchmarks: they track the cost of
replaying one large real trace (CONDUCT, ~175k references) under each
policy, and of the one-pass sweep analyzers that make the full LRU/WS
parameter sweeps affordable.
"""

import pytest

from repro.experiments.runner import artifacts_for
from repro.vm.analyzers import LRUSweep, WSSweep
from repro.vm.policies import (
    CDPolicy,
    FIFOPolicy,
    LRUPolicy,
    OPTPolicy,
    PFFPolicy,
    WorkingSetPolicy,
)
from repro.vm.simulator import simulate


@pytest.fixture(scope="module")
def conduct_trace(warm_artifacts):
    return artifacts_for("CONDUCT").trace


def bench_replay_lru(benchmark, conduct_trace):
    result = benchmark(simulate, conduct_trace, LRUPolicy(frames=32))
    benchmark.extra_info["refs_per_sec"] = round(
        conduct_trace.length / benchmark.stats.stats.mean
    )
    assert result.page_faults > 0


def bench_replay_fifo(benchmark, conduct_trace):
    benchmark(simulate, conduct_trace, FIFOPolicy(frames=32))


def bench_replay_ws(benchmark, conduct_trace):
    benchmark(simulate, conduct_trace, WorkingSetPolicy(tau=2000))


def bench_replay_pff(benchmark, conduct_trace):
    benchmark(simulate, conduct_trace, PFFPolicy(threshold=2000))


def bench_replay_opt(benchmark, conduct_trace):
    benchmark(simulate, conduct_trace, OPTPolicy(frames=32))


def bench_replay_cd(benchmark, conduct_trace):
    benchmark(simulate, conduct_trace, CDPolicy())


def bench_lru_sweep_construction(benchmark, conduct_trace):
    sweep = benchmark(LRUSweep, conduct_trace)
    assert sweep.max_useful_frames > 100


def bench_ws_sweep_construction(benchmark, conduct_trace):
    benchmark(WSSweep, conduct_trace)


def bench_ws_sweep_query(benchmark, conduct_trace):
    sweep = WSSweep(conduct_trace)

    def query():
        sweep._cache.clear()
        return sweep.result(2000)

    benchmark(query)


def bench_trace_generation(benchmark, warm_artifacts):
    """End-to-end trace generation for a mid-size workload (TQL)."""
    from repro.tracegen.interpreter import generate_trace
    from repro.workloads import get_workload

    workload = get_workload("TQL")

    def generate():
        return generate_trace(workload.program(), symbols=workload.symbols())

    trace = benchmark(generate)
    benchmark.extra_info["refs"] = trace.length


def bench_replay_cd_fast(benchmark, conduct_trace):
    """Closed-form CD replay (the path the tables actually take)."""
    from repro.vm.analyzers import LRUSweep
    from repro.vm.fastsim import simulate_cd_fast
    from repro.vm.policies import CDConfig

    distances = LRUSweep(conduct_trace)._distances
    result = benchmark(
        simulate_cd_fast, conduct_trace, CDConfig(pi_cap=2), distances
    )
    benchmark.extra_info["refs_per_sec"] = round(
        conduct_trace.length / benchmark.stats.stats.mean
    )
    assert result.page_faults > 0


# -- standalone summary writer -------------------------------------------------
#
# ``python benchmarks/bench_simulator.py`` measures the headline numbers
# without pytest-benchmark and writes them to BENCH_simulator.json at
# the repo root: per-policy replay throughput, per-table wall times, and
# the cold/warm ``table 2`` CLI walls against the pre-optimization seed.


#: seed-tree wall time of ``python -m repro table 2`` (measured before
#: the affine trace compiler / fast CD replay / artifact cache landed)
SEED_TABLE2_WALL = 8.78


def _time(fn, repeat=3):
    import time as _time_mod

    best = float("inf")
    for _ in range(repeat):
        t0 = _time_mod.perf_counter()
        fn()
        best = min(best, _time_mod.perf_counter() - t0)
    return best


def _cli_wall(args, env):
    import subprocess
    import sys
    import time as _time_mod

    t0 = _time_mod.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", *args],
        check=True,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    return _time_mod.perf_counter() - t0


def write_summary(path="BENCH_simulator.json"):
    import json
    import os
    import sys
    import tempfile

    from repro.experiments.runner import clear_cache
    from repro.tracegen.interpreter import generate_trace
    from repro.vm.analyzers import LRUSweep as _LRU
    from repro.vm.fastsim import simulate_cd_fast
    from repro.vm.policies import CDConfig
    from repro.workloads import get_workload, workload_names

    # merge into the existing file so sections owned by other writers
    # (e.g. ``stream`` from bench_stream.py) survive a regeneration
    try:
        with open(path) as fh:
            summary = json.load(fh)
    except (OSError, ValueError):
        summary = {}
    summary["seed_table2_wall_sec"] = SEED_TABLE2_WALL

    trace = artifacts_for("CONDUCT").trace
    replay = {}
    policies = {
        "LRU": lambda: simulate(trace, LRUPolicy(frames=32)),
        "FIFO": lambda: simulate(trace, FIFOPolicy(frames=32)),
        "WS": lambda: simulate(trace, WorkingSetPolicy(tau=2000)),
        "CD": lambda: simulate(trace, CDPolicy()),
    }
    distances = _LRU(trace)._distances
    policies["CD_fast"] = lambda: simulate_cd_fast(
        trace, CDConfig(pi_cap=2), distances
    )
    for name, fn in policies.items():
        secs = _time(fn)
        replay[name] = {
            "wall_sec": round(secs, 4),
            "refs_per_sec": round(trace.length / secs),
        }
    summary["replay_conduct"] = replay

    tracegen = {}
    for name in workload_names():
        w = get_workload(name)
        secs = _time(
            lambda: generate_trace(w.program(), symbols=w.symbols()), repeat=1
        )
        t = w.program()  # noqa: F841 - keep parse warm across timings
        tracegen[name] = {"wall_sec": round(secs, 4)}
    summary["tracegen"] = tracegen

    # True CLI wall times, in fresh processes: cold (empty cache) and
    # warm (cache populated by the cold run).  Best of two runs each —
    # single-sample process walls are noisy on small machines.
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, REPRO_CACHE_DIR=cache, PYTHONPATH="src")
        tables = {}

        def cold_run():
            for entry in os.listdir(cache):
                os.unlink(os.path.join(cache, entry))
            return _cli_wall(["table", "2"], env)

        cold2 = min(cold_run(), cold_run())
        warm2 = min(_cli_wall(["table", "2"], env) for _ in range(2))
        tables["2"] = {
            "cold_wall_sec": round(cold2, 3),
            "warm_wall_sec": round(warm2, 3),
            "cold_speedup_vs_seed": round(SEED_TABLE2_WALL / cold2, 2),
            "warm_speedup_vs_seed": round(SEED_TABLE2_WALL / warm2, 2),
        }
        for which in ("1", "3", "4"):
            tables[which] = {
                "warm_wall_sec": round(_cli_wall(["table", which], env), 3)
            }
        summary["tables"] = tables

    # Static (closed-form) tier vs the trace-backed path, in-process so
    # python startup does not drown the comparison.  Three operating
    # points: trace-mode cold (empty cache — the full tracegen + sweep
    # build), static cold (empty cache — affine recovery + partial
    # evaluation, no flat string ever built) and static steady-state
    # (static npz on disk, process memo cleared — the same way the
    # trace path amortizes repeat use).  Every timed run's rows are
    # asserted identical to trace-mode's.
    from repro.analysis.staticloc.artifacts import (
        _STATIC_CACHE,
        clear_static_cache,
    )
    from repro.experiments.table2 import generate_table2

    with tempfile.TemporaryDirectory() as cache:
        prior = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = cache
        try:
            trace_rows = []
            static_rows = []

            def run_trace_cold():
                clear_cache()
                trace_rows.append(generate_table2())

            def run_static_cold():
                clear_static_cache()
                static_rows.append(generate_table2(mode="static"))

            def run_static_steady():
                _STATIC_CACHE.clear()
                static_rows.append(generate_table2(mode="static"))

            cold_trace = _time(run_trace_cold)
            cold_static = _time(run_static_cold)
            steady_static = _time(run_static_steady)
            rows_identical = bool(trace_rows) and all(
                rows == trace_rows[0] for rows in trace_rows + static_rows
            )
            summary["static"] = {
                "table2_trace_cold_wall_sec": round(cold_trace, 3),
                "table2_static_cold_wall_sec": round(cold_static, 3),
                "table2_static_steady_wall_sec": round(steady_static, 3),
                "cold_speedup_vs_cold_tracegen": round(
                    cold_trace / cold_static, 2
                ),
                "steady_speedup_vs_cold_tracegen": round(
                    cold_trace / steady_static, 2
                ),
                "rows_identical": rows_identical,
            }
        finally:
            clear_cache(disk=False)
            clear_static_cache(disk=False)
            if prior is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = prior

    clear_cache(disk=False)
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return summary


def quick_check(baseline_path="BENCH_simulator.json", slowdown_factor=4.0):
    """Warn-only benchmark smoke: re-measure the per-policy replay
    throughput on CONDUCT and compare with the committed baseline.

    CI shares runners of wildly varying speed, so this never fails the
    build — it prints a WARNING when a policy replays more than
    ``slowdown_factor`` times slower than the recorded numbers, which is
    loose enough to only trip on a genuine algorithmic regression.
    """
    import json
    import sys

    from repro.vm.analyzers import LRUSweep as _LRU
    from repro.vm.fastsim import simulate_cd_fast
    from repro.vm.policies import CDConfig

    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)["replay_conduct"]
    except (OSError, KeyError, ValueError) as err:
        print(f"quick: no usable baseline ({err}); nothing to compare")
        return 0

    trace = artifacts_for("CONDUCT").trace
    distances = _LRU(trace)._distances
    policies = {
        "LRU": lambda: simulate(trace, LRUPolicy(frames=32)),
        "FIFO": lambda: simulate(trace, FIFOPolicy(frames=32)),
        "WS": lambda: simulate(trace, WorkingSetPolicy(tau=2000)),
        "CD": lambda: simulate(trace, CDPolicy()),
        "CD_fast": lambda: simulate_cd_fast(
            trace, CDConfig(pi_cap=2), distances
        ),
    }
    warnings = 0
    for name, fn in policies.items():
        expected = baseline.get(name, {}).get("refs_per_sec")
        secs = _time(fn, repeat=2)
        measured = round(trace.length / secs)
        if expected is None:
            print(f"quick: {name:8s} {measured:>12,} refs/s (no baseline)")
            continue
        ratio = expected / measured
        status = "ok"
        if ratio > slowdown_factor:
            status = f"WARNING: {ratio:.1f}x slower than baseline"
            warnings += 1
        print(
            f"quick: {name:8s} {measured:>12,} refs/s "
            f"(baseline {expected:,}) {status}"
        )
    if warnings:
        print(
            f"quick: {warnings} polic{'y' if warnings == 1 else 'ies'} "
            "below threshold — investigate before trusting table timings",
            file=sys.stderr,
        )
    return 0  # warn-only by design


if __name__ == "__main__":
    import sys

    if "--quick" in sys.argv[1:]:
        args = [a for a in sys.argv[1:] if a != "--quick"]
        sys.exit(quick_check(*args[:1]))
    write_summary(*sys.argv[1:2])
