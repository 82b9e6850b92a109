"""The benchmark's three workloads.

Each is a closed loop with one caller and at most one child process at a
time, driven through each layer's public functions.  A run repeats one
*round*: a fixed set of ops whose order (and, for ``build-cold`` and
``replay``, whose inputs) the seed chooses.  Every op checks its output.

* ``tables-warm`` — the researcher's everyday loop against an artifact
  cache built in set-up: Tables 1-4 in trace mode and Table 2 in static
  mode, in-process, each after dropping the in-process memos, plus one
  real ``python -m repro table 2`` child.  Outputs are byte-compared with
  ``results/``.
* ``build-cold`` — first-touch builds: two ops per (program, LOCK mode)
  stratum, each a seeded (page size, sizing strategy) draw without
  replacement, built from source into an empty entry by both the trace
  tier and the static tier, whose Table-2 cells must agree.
* ``replay`` — the simulator as a tool, every trace in memory: one
  policy-zoo row per program, the eight fixed-mix multiprogramming
  cells, and load-control points on a seeded Poisson arrival stream.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from harness import Op
from layers import import_seconds

PAGE_BYTES = (64, 128, 256, 512, 1024)
MIX_FRAMES = (96, 64, 48, 32)
MIX_QUANTUM = 500
POOL_FRAMES = 64
POOL_ARRIVAL_HORIZON = 400_000
POOL_RUN_HORIZON = 1_200_000


def _same_text(expected: str):
    def check(output) -> Optional[str]:
        if output == expected:
            return None
        return "output differs from the expected file"

    return check


def _table_rows(path: Path, key_width: int) -> Dict[Tuple[str, ...], List[str]]:
    """Rows of a rendered ``results/`` table, keyed by their first cells."""
    lines = path.read_text().splitlines()
    rows = {}
    for line in lines[3:]:  # title, header, rule
        cells = line.split()
        if cells:
            rows[tuple(cells[:key_width])] = cells
    return rows


class Workload:
    """Set-up, warm-up and seeded rounds of one workload."""

    name = ""
    #: False: the artifact cache stays in memory (``REPRO_CACHE_DIR=""``)
    persistent_cache = True

    def __init__(self, root: Path, expected: Path, seed: int, child: "ChildCommand"):
        self.root = root
        self.expected = expected
        self.seed = seed
        self.child = child

    def import_program(self) -> None:
        """Import every module of the program this workload drives, and
        do any once-per-process work (parsing the programs) that set-up
        leaves out, so that the first round costs what every later one does."""
        raise NotImplementedError

    def prepare(self, pause: Callable[[], None]) -> None:
        """The repeatable part of set-up.  Calls ``pause()`` between its
        steps; the harness probes the host there, off the clock."""
        raise NotImplementedError

    def warmup_ops(self) -> List[Op]:
        raise NotImplementedError

    def round_ops(self) -> List[Op]:
        raise NotImplementedError

    def labels(self) -> List[str]:
        """The round's inputs, in order (no program work)."""
        raise NotImplementedError

    def _rng(self, *parts) -> random.Random:
        return random.Random(":".join(str(p) for p in (self.name, self.seed) + parts))


class ChildCommand:
    """How the CLI op starts ``python -m repro``: plain in the untraced
    run; under ``-X importtime`` through ``cli_child.py`` (which records
    parse spans) in the traced run."""

    def __init__(self, env: Dict[str, str], cwd: Path, timeout_s: float):
        self.env = env
        self.cwd = cwd
        self.timeout_s = timeout_s
        #: set for the traced run: where ``cli_child.py`` writes its spans
        self.spans: Optional[Path] = None
        self.parse_s = 0.0
        self.import_s: List[float] = []

    def run(self, *args: str) -> subprocess.CompletedProcess:
        if self.spans is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            script = Path(__file__).with_name("cli_child.py")
            argv = [sys.executable, "-X", "importtime", str(script), str(self.spans), *args]
        done = subprocess.run(
            argv,
            cwd=self.cwd,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=self.timeout_s,
        )
        if self.spans is not None:
            self.import_s.append(import_seconds(done.stderr))
            self.parse_s += json.loads(self.spans.read_text())["parse_s"]
            self.spans.unlink()
        return done


class TablesWarm(Workload):
    name = "tables-warm"
    KINDS = ("table1", "table2", "table3", "table4", "table2-static", "cli-table2")

    def import_program(self) -> None:
        from repro.analysis.staticloc import artifacts as static
        from repro.experiments import config, runner, table1, table2, table3, table4

        self.static = static
        self.runner = runner
        self.config = config
        self.renderers = {
            "table1": table1.render_table1,
            "table2": table2.render_table2,
            "table3": table3.render_table3,
            "table4": table4.render_table4,
            "table2-static": lambda: table2.render_table2(mode="static"),
        }

    def prepare(self, pause) -> None:
        self.runner.clear_cache(disk=True)
        self.static.clear_static_cache(disk=True)
        rows = self.config.table1_rows() + self.config.table34_rows()
        for program, locks in dict.fromkeys((v.workload, v.with_locks) for v in rows):
            self.runner.artifacts_for(program, with_locks=locks)
            pause()
        for v in self.config.table2_rows():
            self.static.static_artifacts_for(v.workload, with_locks=v.with_locks)
            pause()
        self._drop_memos()

    def _drop_memos(self) -> None:
        self.runner.clear_cache(disk=False)
        self.static.clear_static_cache(disk=False)

    def _op(self, kind: str) -> Op:
        name = "table2" if kind in ("table2-static", "cli-table2") else kind
        expected = (self.expected / f"{name}.txt").read_text()
        if kind == "cli-table2":
            return Op(
                kind,
                kind,
                run=lambda: self.child.run("table", "2"),
                check=lambda done: _cli_problem(done, expected),
                in_process=False,
            )
        render = self.renderers[kind]
        return Op(
            kind,
            kind,
            run=lambda: render() + "\n",
            check=_same_text(expected),
            before=self._drop_memos,
        )

    def warmup_ops(self) -> List[Op]:
        return [self._op(kind) for kind in self.KINDS]

    def labels(self) -> List[str]:
        kinds = list(self.KINDS)
        self._rng("order").shuffle(kinds)
        return kinds

    def round_ops(self) -> List[Op]:
        return [self._op(kind) for kind in self.labels()]


def _cli_problem(done: subprocess.CompletedProcess, expected: str) -> Optional[str]:
    if done.returncode != 0:
        return f"exit {done.returncode}: {done.stderr.strip()[-300:]}"
    if done.stdout != expected:
        return "output differs from the expected file"
    return None


class BuildCold(Workload):
    name = "build-cold"
    #: draws per (program, LOCK mode); with one, the seed alone spread a
    #: round's cost by about 5% (CONDUCT's ops double in cost across page sizes)
    DRAWS = 2

    def import_program(self) -> None:
        from repro.analysis.locality import SizingStrategy
        from repro.analysis.parameters import PageConfig
        from repro.analysis.staticloc import artifacts as static
        from repro.experiments import runner
        from repro.workloads import get_workload, workload_names

        self.static = static
        self.runner = runner
        self.PageConfig = PageConfig
        self.strategies = {s.value: s for s in SizingStrategy}
        self.programs = workload_names()
        for program in self.programs:
            get_workload(program).program()

    def prepare(self, pause) -> None:
        self._empty_cache()

    def _empty_cache(self) -> None:
        self.runner.clear_cache(disk=True)
        self.static.clear_static_cache(disk=True)

    def labels(self) -> List[str]:
        options = [(p, s) for p in PAGE_BYTES for s in sorted(self.strategies)]
        labels = []
        for program in self.programs:
            for locks in (False, True):
                for page_bytes, strategy in self._rng("draw", program, locks).sample(
                    options, self.DRAWS
                ):
                    labels.append(_build_label(program, page_bytes, strategy, locks))
        self._rng("order").shuffle(labels)
        return labels

    def _op(self, label: str) -> Op:
        program, page, strategy, lock_mode = label.split(":", 1)[1].split("/")
        spec = dict(
            page_config=self.PageConfig(page_bytes=int(page[1:])),
            strategy=self.strategies[strategy],
            with_locks=lock_mode == "locks",
        )

        def build():
            trace_tier = self.runner.artifacts_for(program, **spec)
            static_tier = self.static.static_artifacts_for(program, **spec)
            return _table2_cells(trace_tier), _table2_cells(static_tier)

        def check(cells) -> Optional[str]:
            trace_cells, static_cells = cells
            if trace_cells == static_cells:
                return None
            return f"tiers disagree: trace {trace_cells} static {static_cells}"

        return Op("build", label, run=build, check=check, before=self._empty_cache)

    def warmup_ops(self) -> List[Op]:
        return [self._op(_build_label("FDJAC", 256, "active-page", True))]

    def round_ops(self) -> List[Op]:
        return [self._op(label) for label in self.labels()]


def _build_label(program: str, page_bytes: int, strategy: str, locks: bool) -> str:
    return f"build:{program}/p{page_bytes}/{strategy}/{'locks' if locks else 'nolocks'}"


def _table2_cells(artifacts) -> Tuple:
    """A Table-2 row's inputs: best CD over the PI caps, and the LRU and
    WS minimum space-time points."""
    cd = artifacts.best_cd_result()
    lru = artifacts.lru.min_space_time()
    ws = artifacts.ws.min_space_time()
    return (
        cd.space_time, cd.parameter, cd.page_faults,
        lru.space_time, lru.parameter, lru.page_faults,
        ws.space_time, ws.parameter, ws.page_faults,
    )


class Replay(Workload):
    name = "replay"
    persistent_cache = False

    def import_program(self) -> None:
        from repro.experiments import ablations, load_control, runner
        from repro.experiments.multiprog_study import DEFAULT_MIX
        from repro.experiments.report import format_value
        from repro.vm import multiprog
        from repro.workloads import workload_names

        self.ablations = ablations
        self.load_control = load_control
        self.mix = DEFAULT_MIX
        self.multiprog = multiprog
        self.runner = runner
        self.format_value = format_value
        self.programs = workload_names()
        self.policies = tuple(multiprog.ADMISSION_POLICIES)
        self.loads = load_control.DEFAULT_LOADS

    def prepare(self, pause) -> None:
        self.runner.clear_cache(disk=False)
        for program in self.programs:
            self.runner.artifacts_for(program)
            pause()
        self.mix_traces = [(p, self.runner.artifacts_for(p).trace) for p in self.mix]
        self.profiles = self.load_control.workload_profiles(
            self.mix, max_refs=30_000
        ) + self.load_control.nest_profiles((11, 23, 47))

    def arrivals(self, load: float):
        """The run's Poisson arrival stream at ``load``, drawn from the seed."""
        return self.multiprog.poisson_arrivals(
            self.profiles, load=load, horizon=POOL_ARRIVAL_HORIZON,
            seed=self._rng("arrivals").randrange(2**31), cpus=1,
        )

    def labels(self) -> List[str]:
        labels = [f"zoo:{p}" for p in self.programs]
        labels += [f"mix:{f}/{m}" for f in MIX_FRAMES for m in ("cd", "ws")]
        labels += [f"pool:{load}/{p}" for load in self.loads for p in self.policies]
        self._rng("order").shuffle(labels)
        return labels

    def _row_check(self, expected_row: List[str], values) -> Optional[str]:
        got = [self.format_value(v) for v in values]
        if got == expected_row:
            return None
        return f"row {got} != expected {expected_row}"

    def _zoo_op(self, program: str, expected) -> Op:
        def check(row) -> Optional[str]:
            return self._row_check(expected[(program,)], (
                row.program, round(row.mem_target, 1), row.cd_pf, row.lru_pf,
                row.fifo_pf, row.clock_pf, row.opt_pf, row.ws_pf, row.pff_pf,
            ))

        return Op("zoo", f"zoo:{program}",
                  run=lambda: self.ablations.policy_zoo([program])[0], check=check)

    def _mix_op(self, frames: int, mode: str, expected) -> Op:
        def run():
            return self.multiprog.MultiprogSimulator(
                self.mix_traces, total_frames=frames, mode=mode, quantum=MIX_QUANTUM
            ).run()

        def check(result) -> Optional[str]:
            return self._row_check(expected[(str(frames), mode.upper())], (
                frames, mode.upper(), result.makespan, result.total_faults,
                result.swaps, round(result.mem_utilization, 2),
                round(result.throughput, 3),
            ))

        return Op("mix", f"mix:{frames}/{mode}", run=run, check=check)

    def _pool_op(self, load: float, policy: str, arrivals) -> Op:
        def run():
            return self.multiprog.LoadControlledPool(
                arrivals, total_frames=POOL_FRAMES, policy=policy, cpus=1,
                horizon=POOL_RUN_HORIZON,
            ).run()

        def check(result) -> Optional[str]:
            if result.violations:
                return f"conservation violated: {result.violations[:3]}"
            if result.arrivals != len(arrivals) or result.completed > result.arrivals:
                return f"{result.completed} done of {result.arrivals} arrivals"
            return None

        return Op("pool", f"pool:{load}/{policy}", run=run, check=check)

    def _ops(self, labels: List[str]) -> List[Op]:
        zoo = _table_rows(self.expected / "ablation_zoo.txt", 1)
        mix = _table_rows(self.expected / "multiprogramming.txt", 2)
        streams = {}
        ops = []
        for label in labels:
            family, arg = label.split(":")
            if family == "zoo":
                ops.append(self._zoo_op(arg, zoo))
            elif family == "mix":
                frames, mode = arg.split("/")
                ops.append(self._mix_op(int(frames), mode, mix))
            else:
                load, policy = arg.split("/")
                if load not in streams:
                    streams[load] = self.arrivals(float(load))
                ops.append(self._pool_op(float(load), policy, streams[load]))
        return ops

    def warmup_ops(self) -> List[Op]:
        labels = [f"zoo:{self.programs[0]}", f"mix:{MIX_FRAMES[0]}/cd",
                  f"pool:{self.loads[-1]}/{self.policies[0]}"]
        return self._ops(labels)

    def round_ops(self) -> List[Op]:
        return self._ops(self.labels())


WORKLOADS = {w.name: w for w in (TablesWarm, BuildCold, Replay)}
