"""Checks of the benchmark itself (not of the program it measures).

    python3 perfbench/selftest.py          # all checks, a few minutes
    python3 perfbench/selftest.py -k Fast  # the checks that run no workload

Run from the root of a checkout.  The slow checks start ``run.py`` with
one-round runs (``--seconds 1``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

#: per workload, the per-layer metrics the traced run must find non-zero
MOVES = {
    "tables-warm": [
        "runner.load_s", "runner.hits", "analysis.analyze_s",
        "analysis.analyze_calls", "directives.instrument_s", "cli.import_s",
        "cli.table2_s_p50", "frontend.parse_s", "analyzers.query_s",
        "fastsim.cd_s", "fastsim.calls", "fastsim.refs_per_s",
        "staticloc.artifacts_s", "simulator.replay_s", "tables.table1_s_p50",
        "tables.table2_s_p50", "tables.table3_s_p50", "tables.table4_s_p50",
        "tables.table2_static_s_p50",
    ],
    "build-cold": [
        "runner.misses", "runner.store_s", "analysis.analyze_s",
        "analysis.analyze_calls", "directives.instrument_s",
        "tracegen.generate_s", "tracegen.refs", "tracegen.refs_per_s",
        "analyzers.build_s", "staticloc.artifacts_s", "staticloc.string_s",
        "staticloc.refs", "recovery.recover_s",
    ],
    "replay": [
        "analyzers.query_s", "fastsim.cd_s", "fastsim.calls",
        "simulator.replay_s", "simulator.calls", "simulator.refs_per_s",
        "stream.replay_s", "stream.policy_refs_per_s",
        "multiprog.fixed_mix_s", "multiprog.pool_s",
    ],
}
#: per workload, per-layer metrics that must read exactly 0
FLAT = {
    "tables-warm": ["runner.store_s", "runner.misses", "tracegen.generate_s"],
    "build-cold": ["runner.load_s", "runner.hits", "stream.replay_s"],
    "replay": ["tracegen.generate_s", "runner.load_s", "staticloc.artifacts_s"],
}
HARNESS = ["host.probe_s", "host.wall_raw_s", "host.setup_raw_s", "trace.overhead_s"]


def run_benchmark(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    return done, lines


def make_workload(cls, seed: int):
    child = workloads.ChildCommand(dict(os.environ), ROOT, timeout_s=30)
    workload = cls(ROOT, ROOT / "results", seed, child)
    workload.import_program()
    return workload


class FastScaling(unittest.TestCase):
    def test_doubling_op_and_probe_times_leaves_scaled_seconds_unchanged(self):
        probes = [0.041, 0.043, 0.052, 0.050, 0.044, 0.090, 0.040, 0.047]
        doubled = [2 * p for p in probes]
        for raw in (0.25, 3.0, 17.5):
            once = raw * harness.drift_factor(probes, p_ref=0.0476)
            twice = 2 * raw * harness.drift_factor(doubled, p_ref=0.0476)
            self.assertAlmostEqual(once, twice, places=12)
            op = harness.Outcome("op", "op", raw, True, probe_s=probes[0])
            slow = harness.Outcome("op", "op", 2 * raw, True, probe_s=doubled[0])
            self.assertAlmostEqual(harness.reference_seconds(op, 0.0476),
                                   harness.reference_seconds(slow, 0.0476), places=12)

    def test_typical_probe_ignores_one_outlier(self):
        probes = [0.04] * 9 + [0.4]
        self.assertAlmostEqual(harness.typical(probes), 0.04)

    def test_reference_seconds_come_from_the_stored_p_ref(self):
        config = json.loads((HERE / "config.json").read_text())
        probes = [config["p_ref_s"]] * 5
        self.assertAlmostEqual(harness.drift_factor(probes, config["p_ref_s"]), 1.0)


class FastGate(unittest.TestCase):
    def setUp(self):
        probe = harness.Probe(loop_steps=10, numpy_calls=1, sort_elements=10, seed=1)
        self.gate = harness.Gate(probe, timeout_s=0.2, deadline=float("inf"))
        probe.run()

    def test_gate_scales_each_op_by_the_probes_around_it(self):
        op = harness.Op("op", "op", run=lambda: None, check=lambda _: None)
        outcome = self.gate.run(op)
        durations = self.gate.probe.durations
        self.assertEqual(outcome.probe_s, (durations[0] + durations[1]) / 2)

    def test_a_timeout_is_not_swallowed_by_the_programs_handlers(self):
        def swallows_exceptions():
            try:
                time.sleep(2)
            except Exception:
                pass
            return "late"

        op = harness.Op("op", "op", run=swallows_exceptions, check=lambda _: None)
        self.assertEqual(self.gate.run(op).problem, "timed out after 0.2s")

    def test_a_failing_before_fails_only_its_op(self):
        def before():
            raise OSError("cache gone")

        ops = [
            harness.Op("op", "bad", run=lambda: None, check=lambda _: None, before=before),
            harness.Op("op", "good", run=lambda: None, check=lambda _: None),
        ]
        outcomes = [self.gate.run(op) for op in ops]
        self.assertEqual([o.problem for o in outcomes], ["OSError: cache gone", None])


class FastSeeds(unittest.TestCase):
    def test_one_seed_gives_the_same_op_sequence_twice(self):
        for cls in workloads.WORKLOADS.values():
            first, second = make_workload(cls, 7), make_workload(cls, 7)
            self.assertEqual(first.labels(), second.labels(), cls.name)

    def test_build_cold_draws_differ_between_seeds(self):
        one = make_workload(workloads.BuildCold, 1).labels()
        two = make_workload(workloads.BuildCold, 2).labels()
        self.assertNotEqual(sorted(one), sorted(two))
        self.assertEqual(len(set(one)), 36, "two draws per (program, LOCK mode)")


class FastPatching(unittest.TestCase):
    def test_wrappers_reach_from_imports_and_are_removed(self):
        from repro.experiments import ablations, runner, table2
        from repro.tracegen import interpreter
        from repro.vm import analyzers, fastsim, simulator

        originals = (
            runner.generate_trace, runner.simulate_cd_fast, table2.artifacts_for,
            ablations.simulate, analyzers.LRUSweep.__init__,
        )
        tracer = layers.Tracer()
        tracer.install()
        try:
            self.assertIs(runner.generate_trace, interpreter.generate_trace)
            self.assertIsNot(runner.generate_trace, originals[0])
            self.assertIsNot(runner.simulate_cd_fast, originals[1])
            self.assertIs(table2.artifacts_for, runner.artifacts_for)
            self.assertIsNot(table2.artifacts_for, originals[2])
            self.assertIs(ablations.simulate, simulator.simulate)
            self.assertIsNot(ablations.simulate, originals[3])
            self.assertIsNot(analyzers.LRUSweep.__init__, originals[4])
        finally:
            tracer.remove()
        self.assertEqual(
            originals,
            (runner.generate_trace, runner.simulate_cd_fast, table2.artifacts_for,
             ablations.simulate, analyzers.LRUSweep.__init__),
        )
        self.assertIs(fastsim.simulate_cd_fast, originals[1])


class SlowReplayArrivals(unittest.TestCase):
    def test_arrival_streams_follow_the_seed(self):
        os.environ["REPRO_CACHE_DIR"] = ""
        streams = {}
        for seed in (1, 1, 2):
            replay = make_workload(workloads.Replay, seed)
            replay.prepare(lambda: None)
            arrivals = replay.arrivals(1.0)
            streams.setdefault(seed, []).append([(t, p.name) for t, p in arrivals])
        self.assertEqual(streams[1][0], streams[1][1])
        self.assertNotEqual(streams[1][0], streams[2][0])


class SlowRuns(unittest.TestCase):
    def test_tampered_expected_output_fails_ops_but_the_run_completes(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp)
            for part in ("src", "results", "perfbench"):
                shutil.copytree(ROOT / part, copy / part,
                                ignore=shutil.ignore_patterns("__pycache__"))
            table3 = copy / "results" / "table3.txt"
            table3.write_text(table3.read_text().replace("MAIN", "MAIM", 1))
            done, lines = run_benchmark("tables-warm", 0, cwd=copy)
        self.assertEqual(done.returncode, 0, done.stderr)
        result, diagnostics = json.loads(lines[-1]), json.loads(lines[-2])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(diagnostics["error_rate"], 0)
        self.assertLess(result["failed"], result["attempted"])
        self.assertTrue(all(f.startswith("table3") for f in diagnostics["failures"]))

    def test_traced_runs_report_every_layer(self):
        names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
        for workload in MOVES:
            with self.subTest(workload=workload):
                done, lines = run_benchmark(workload, 1)
                self.assertEqual(done.returncode, 0, done.stderr)
                result = json.loads(lines[-1])
                self.assertTrue(result["correct"], lines[-2])
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(sorted(metrics), sorted(names))
                for name in MOVES[workload] + HARNESS:
                    self.assertGreater(metrics[name], 0, name)
                for name in FLAT[workload]:
                    self.assertEqual(metrics[name], 0, name)
                self.assertGreaterEqual(metrics["trace.coverage"], 0.95)
                ratio = {"tables-warm": 1.0, "build-cold": 0.0}.get(workload)
                if ratio is not None:
                    self.assertEqual(metrics["runner.hit_ratio"], ratio)

    def test_untraced_run_reports_the_end_to_end_metrics_and_leaves_nothing(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        git_before = _git_status()
        cache_before = _listing(ROOT / ".repro-cache")
        results_before = _listing(ROOT / "results")
        done, lines = run_benchmark("build-cold", 0)
        self.assertEqual(done.returncode, 0, done.stderr)
        self.assertEqual(_git_status(), git_before)
        self.assertEqual(_listing(ROOT / ".repro-cache"), cache_before)
        self.assertEqual(_listing(ROOT / "results"), results_before)
        self.assertFalse((ROOT / ".perfbench-tmp").exists())
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], lines[-2])
        for metric in spec["end_to_end"]:
            value = result["metrics"][metric["name"]]
            self.assertEqual(value["unit"], metric["unit"])
            self.assertGreater(value["value"], 0)
        self.assertEqual(len(result["metrics"]), len(spec["end_to_end"]))

    def test_a_directory_without_the_program_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done, lines = run_benchmark("tables-warm", 0, cwd=bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(lines, [])


def _git_status() -> str:
    try:
        return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "(not a git checkout)"


def _listing(path: Path):
    if not path.exists():
        return None
    return sorted((str(p.relative_to(path)), p.stat().st_mtime_ns)
                  for p in path.rglob("*"))


if __name__ == "__main__":
    unittest.main()
