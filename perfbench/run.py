#!/usr/bin/env python3
"""Benchmark entry point; run it from the root of a checkout.

    python3 perfbench/run.py --workload tables-warm --seed 1 --seconds 15 --trace 0

Workloads: ``tables-warm``, ``build-cold``, ``replay`` (see
``workloads.py`` and ``config.json`` for why each was chosen).  With
``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a traced run.  The line before it
holds the diagnostics: raw (unscaled) seconds, the typical probe
duration, the drift factor and any failed ops.

Times are in reference seconds: each timed op's raw seconds × ``p_ref_s``
/ the mean of the probes just before and after it
(``harness.reference_seconds``); set-up's raw seconds × ``p_ref_s`` / the
typical probe duration of set-up (``harness.drift_factor``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import harness
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = ROOT / "results"
#: set-up is repeated this many times and its median reported
SETUP_REPEATS = 3
#: an op that runs longer fails (the CLI child is killed a second earlier)
OP_TIMEOUT_S = 30
#: a run that passes this many seconds starts no further op
RUN_DEADLINE_S = 150.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def isolate(tmp: Path, cache: str) -> None:
    """Pin threads before numpy loads, drop settings that change what
    the program does, and keep every write inside the run's directory."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("REPRO_TIMELINES_DIR", None)
    os.environ.pop("REPRO_BACKEND", None)
    os.environ["REPRO_CACHE_DIR"] = cache
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not EXPECTED.is_dir():
        print("perfbench: run from the root of a full checkout "
              "(needs src/repro/ and the expected outputs in results/)", file=sys.stderr)
        return 2
    config = json.loads((HERE / "config.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = workloads.WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        isolate(tmp, str(tmp / "cache") if workload_cls.persistent_cache else "")
        child = workloads.ChildCommand(
            dict(os.environ), ROOT, timeout_s=OP_TIMEOUT_S - 1
        )
        workload = workload_cls(ROOT, EXPECTED, args.seed, child)
        diagnostics, result = measure(
            workload, args, config, tmp, deadline=started + RUN_DEADLINE_S
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(diagnostics))
    print(json.dumps(result))
    return 0


def measure(workload, args, config, tmp: Path, deadline: float):
    """Set up, warm up, repeat the seeded round for ``args.seconds``, report.

    Every round runs the same ops on the same inputs, so the mean round
    measures a fixed input set however many rounds fit.  Set-up is scaled
    by the probes taken during set-up; each timed op by the probes around
    it."""
    t0 = time.perf_counter()
    workload.import_program()
    import_raw = time.perf_counter() - t0
    from repro.experiments.runner import STATS

    probe = harness.Probe(**config["probe"])
    gate = harness.Gate(probe, OP_TIMEOUT_S, deadline)
    paused = []

    def pause():
        t = time.perf_counter()
        probe.run()
        paused.append(time.perf_counter() - t)

    pause()
    prepare_raw = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        before = len(paused)
        workload.prepare(pause)
        prepare_raw.append(time.perf_counter() - t0 - sum(paused[before:]))
        pause()
    warmups = [gate.run(op) for op in workload.warmup_ops()]
    setup_raw = import_raw + statistics.median(prepare_raw) + sum(o.raw_s for o in warmups)
    setup_rss = harness.vm_hwm_mb()
    setup_probes = list(probe.durations)

    ops = workload.round_ops()
    tracer = None
    if args.trace:
        per_call = layers.wrapper_cost()
        tracer = layers.Tracer()
        tracer.install()
        workload.child.spans = tmp / "cli-spans.json"
        lookups = (STATS.cache_hits, STATS.cache_misses)
    gc.collect()
    harness.reset_hwm()
    del probe.durations[:]
    probe.run()
    rounds = []
    start = time.perf_counter()
    try:
        while not rounds or (
            time.perf_counter() - start < args.seconds and time.monotonic() < deadline
        ):
            rounds.append([gate.run(op) for op in ops])
    finally:
        if tracer is not None:
            tracer.remove()
    peak_rss = harness.vm_hwm_mb()

    p_ref = config["p_ref_s"]
    setup_factor = harness.drift_factor(setup_probes, p_ref)
    round_raw = [sum(o.raw_s for o in outcomes) for outcomes in rounds]
    round_ref = [
        sum(harness.reference_seconds(o, p_ref) for o in outcomes) for outcomes in rounds
    ]
    # mean over rounds, which all do the same work: a run holds one or two
    # rounds of build-cold or replay, where a median is no steadier
    wall_raw = sum(round_raw) / len(rounds)
    wall_ref = sum(round_ref) / len(rounds)
    # the timed phase's overall factor, for the per-layer seconds
    factor = wall_ref / wall_raw if wall_raw else 0.0
    attempted = len(gate.outcomes)
    failed = gate.failed
    diagnostics = {
        "workload": workload.name,
        "seed": workload.seed,
        "rounds": len(rounds),
        "ops_per_round": len(ops),
        "probes": [len(setup_probes), len(probe.durations)],
        "host.probe_s": [harness.typical(setup_probes), harness.typical(probe.durations)],
        "drift_factor": [setup_factor, factor],
        "raw_s": {
            "setup_s": setup_raw,
            "wall_s": wall_raw,
            "import": import_raw,
            "prepare": prepare_raw,
            "warmup": sum(o.raw_s for o in warmups),
            "rounds": round_raw,
            "op_kinds": {
                kind: statistics.median(o.raw_s for r in rounds for o in r if o.kind == kind)
                for kind in dict.fromkeys(o.kind for o in rounds[0])
            },
        },
        "ref_s_rounds": round_ref,
        "error_rate": len(failed) / attempted,
        "failures": [f"{o.label}: {o.problem}" for o in failed[:20]],
    }
    if tracer is None:
        metrics = {
            "setup_s": (setup_raw * setup_factor, "s"),
            "wall_s": (wall_ref, "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "setup_rss_mb": (setup_rss, "MB"),
        }
    else:
        hits = STATS.cache_hits - lookups[0]
        misses = STATS.cache_misses - lookups[1]
        timed = [o for outcomes in rounds for o in outcomes]
        metrics = layer_metrics(
            tracer, timed, len(rounds), p_ref, factor, workload.child,
            hits, misses, per_call,
        )
        metrics.update({
            "host.probe_s": (harness.typical(probe.durations), "s"),
            "host.wall_raw_s": (wall_raw, "s"),
            "host.setup_raw_s": (setup_raw, "s"),
        })
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return diagnostics, result


def layer_metrics(tracer, timed, rounds, p_ref, factor, child, hits, misses, per_call):
    """Per-round layer totals in reference seconds (raw × the timed phase's
    overall ``factor``), plus counts and rates."""

    def seconds(layer):
        return tracer.seconds.get(layer, 0.0) * factor / rounds

    def per_round(counter, layer):
        return counter.get(layer, 0) / rounds

    def rate(layer):
        busy = tracer.seconds.get(layer, 0.0) * factor
        return tracer.units.get(layer, 0) / busy if busy else 0.0

    def p50(kind):
        times = [harness.reference_seconds(o, p_ref) for o in timed if o.kind == kind]
        return statistics.median(times) if times else 0.0

    in_process_wall = sum(o.raw_s for o in timed if o.in_process)
    return {
        "runner.artifacts_s": (seconds("runner.artifacts"), "s"),
        "runner.load_s": (seconds("runner.load"), "s"),
        "runner.store_s": (seconds("runner.store"), "s"),
        "runner.hits": (hits / rounds, "count"),
        "runner.misses": (misses / rounds, "count"),
        "runner.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "analysis.analyze_s": (seconds("analysis.analyze"), "s"),
        "analysis.analyze_calls": (per_round(tracer.calls, "analysis.analyze"), "count"),
        "directives.instrument_s": (seconds("directives.instrument"), "s"),
        "cli.import_s": (
            statistics.median(child.import_s) * factor if child.import_s else 0.0, "s"
        ),
        "cli.table2_s_p50": (p50("cli-table2"), "s"),
        "frontend.parse_s": (
            (tracer.seconds.get("frontend.parse", 0.0) + child.parse_s) * factor / rounds,
            "s",
        ),
        "tracegen.generate_s": (seconds("tracegen.generate"), "s"),
        "tracegen.refs": (per_round(tracer.units, "tracegen.generate"), "count"),
        "tracegen.refs_per_s": (rate("tracegen.generate"), "1/s"),
        "analyzers.build_s": (seconds("analyzers.build"), "s"),
        "analyzers.query_s": (seconds("analyzers.query"), "s"),
        "fastsim.cd_s": (seconds("fastsim.cd"), "s"),
        "fastsim.calls": (per_round(tracer.calls, "fastsim.cd"), "count"),
        "fastsim.refs_per_s": (rate("fastsim.cd"), "1/s"),
        "staticloc.artifacts_s": (seconds("staticloc.artifacts"), "s"),
        "staticloc.string_s": (seconds("staticloc.string"), "s"),
        "staticloc.refs": (per_round(tracer.units, "staticloc.string"), "count"),
        "recovery.recover_s": (seconds("recovery.recover"), "s"),
        "symbolic.cd_s": (seconds("symbolic.cd"), "s"),
        "symbolic.query_s": (seconds("symbolic.query"), "s"),
        "simulator.replay_s": (seconds("simulator.replay"), "s"),
        "simulator.calls": (per_round(tracer.calls, "simulator.replay"), "count"),
        "simulator.refs_per_s": (rate("simulator.replay"), "1/s"),
        "stream.replay_s": (seconds("stream.replay"), "s"),
        "stream.policy_refs_per_s": (rate("stream.replay"), "1/s"),
        "multiprog.fixed_mix_s": (seconds("multiprog.fixed_mix"), "s"),
        "multiprog.pool_s": (seconds("multiprog.pool"), "s"),
        "tables.table1_s_p50": (p50("table1"), "s"),
        "tables.table2_s_p50": (p50("table2"), "s"),
        "tables.table3_s_p50": (p50("table3"), "s"),
        "tables.table4_s_p50": (p50("table4"), "s"),
        "tables.table2_static_s_p50": (p50("table2-static"), "s"),
        "tables.render_s": (seconds("tables.render"), "s"),
        "trace.overhead_s": (per_call * tracer.wrapper_calls * factor / rounds, "s"),
        "trace.coverage": (
            tracer.top_level_s / in_process_wall if in_process_wall else 0.0, "ratio"
        ),
    }


if __name__ == "__main__":
    sys.exit(main())
