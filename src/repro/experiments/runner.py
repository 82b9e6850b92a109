"""Per-workload artifact cache and CD simulation entry points.

Generating a trace and its LRU/WS sweeps costs real time; every table
needs the same artifacts.  Three layers keep that cost paid once:

* an in-process memo (:data:`_CACHE`) so one Python run reuses one
  trace per (workload, geometry), exactly as the paper replays one
  trace per program through all policies;
* a **persistent disk cache** (``.repro-cache/`` by default, see
  :func:`cache_dir`) holding the trace and the per-reference sweep
  arrays keyed by a content hash of everything that determines them —
  workload source, page geometry, sizing strategy, lock mode, and the
  on-disk format version — so fresh processes warm-start;
* a process-pool warm-up (:func:`warm_artifacts`) that builds missing
  cache entries for many workloads in parallel (``--jobs``).

CD replays go through :func:`repro.vm.fastsim.simulate_cd_fast`, which
is exact for every configuration; a traced replay runs the event-driven
simulator, whose policy is the one source of paging events.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis.locality import LocalityAnalysis, SizingStrategy, analyze_program
from repro.analysis.parameters import PageConfig
from repro.directives import instrument_program
from repro.directives.model import InstrumentationPlan
from repro.tracegen import io as trace_io
from repro.tracegen.events import ReferenceTrace
from repro.tracegen.interpreter import generate_trace
from repro.vm.analyzers import LRUSweep, WSSweep
from repro.vm.fastsim import simulate_cd_fast
from repro.vm.metrics import SimulationResult
from repro.vm.policies import CDConfig, CDPolicy
from repro.vm.simulator import simulate
from repro.workloads import get_workload


class StageStats:
    """Wall-time/throughput accounting per pipeline stage."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.units: Dict[str, int] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def add(self, stage: str, seconds: float, units: int = 0) -> None:
        self.seconds[stage] = self.seconds.get(stage, 0.0) + seconds
        self.units[stage] = self.units.get(stage, 0) + units

    def reset(self) -> None:
        self.seconds.clear()
        self.units.clear()
        self.cache_hits = 0
        self.cache_misses = 0

    def describe(self) -> str:
        parts = []
        for stage in sorted(self.seconds):
            secs = self.seconds[stage]
            units = self.units.get(stage, 0)
            if units and secs > 0:
                parts.append(f"{stage} {secs:.2f}s ({units / secs / 1e3:.0f}k refs/s)")
            else:
                parts.append(f"{stage} {secs:.2f}s")
        parts.append(f"cache {self.cache_hits} hit / {self.cache_misses} miss")
        return " · ".join(parts)


#: process-wide stage accounting (rendered by ``table --stats``)
STATS = StageStats()


#: ``table --timelines`` for the calls made inside :func:`replay_options`;
#: None defers to the environment
_TIMELINES: ContextVar[Optional[Path]] = ContextVar("timelines", default=None)


@contextmanager
def replay_options(timelines: Optional[Path] = None):
    """Within the block, CD replays write their timelines under
    ``timelines`` — the ``table --timelines`` flag.  Nothing outlives
    the block (``os.environ`` is never written); None keeps the
    ``REPRO_TIMELINES_DIR`` behaviour."""
    token = _TIMELINES.set(timelines)
    try:
        yield
    finally:
        _TIMELINES.reset(token)


def timelines_dir() -> Optional[Path]:
    """Where per-cell CD event timelines go, or None when disabled.

    Set ``REPRO_TIMELINES_DIR`` (or run inside :func:`replay_options`,
    as ``table --timelines`` does) to make every
    :meth:`WorkloadArtifacts.cd_result` call persist its event stream as
    one JSONL file in that directory.
    """
    override = _TIMELINES.get()
    if override is not None:
        return override
    env = os.environ.get("REPRO_TIMELINES_DIR")
    return Path(env) if env else None


@dataclass
class WorkloadArtifacts:
    """Everything the experiments need for one benchmark program."""

    name: str
    analysis: LocalityAnalysis
    plan: InstrumentationPlan
    trace: ReferenceTrace  # instrumented (directives included)
    lru: LRUSweep = field(repr=False, default=None)
    ws: WSSweep = field(repr=False, default=None)
    with_locks: bool = False  # the trace executes LOCK/UNLOCK events

    def timeline_name(self, config: CDConfig) -> str:
        """The file a traced replay under ``config`` writes, named by
        every input that selects the replay: workload, page size,
        sizing strategy, LOCK mode, PI cap and ceiling."""
        locks = "nolocks"
        if self.with_locks:
            locks = "locks" if config.honor_locks else "locks-ignored"
        cap = "all" if config.pi_cap is None else str(config.pi_cap)
        limit = "none" if config.memory_limit is None else str(config.memory_limit)
        return (
            f"{self.name.lower()}-{self.analysis.page_config.page_bytes}b"
            f"-{self.analysis.strategy.value}-{locks}-cd-pi{cap}-mem{limit}.jsonl"
        )

    def cd_result(self, config: Optional[CDConfig] = None) -> SimulationResult:
        """Replay the trace under CD with ``config``.

        Uses the fast replay, except that a traced replay (see
        :func:`timelines_dir`) runs the event-driven simulator.
        """
        config = config or CDConfig()
        tdir = timelines_dir()
        t0 = time.perf_counter()
        if tdir is None:
            result = simulate_cd_fast(self.trace, config, distances=self.lru._distances)
        else:
            from repro.obs import JsonlSink, Tracer

            tracer = Tracer(JsonlSink(tdir / self.timeline_name(config)))
            try:
                result = simulate(
                    self.trace,
                    CDPolicy(config),
                    tracer=tracer,
                    sample_interval=max(1, len(self.trace.pages) // 4096),
                )
            finally:
                tracer.close()
        STATS.add("simulate", time.perf_counter() - t0, len(self.trace.pages))
        return result

    def policy_results(self, requests) -> List[SimulationResult]:
        """LRU, FIFO and WS replays of this workload's trace.

        ``requests`` are :class:`repro.vm.stream.StreamRequest` items.
        LRU and WS are point queries on this workload's sweeps, FIFO
        replays fault to fault; every result equals the event-driven
        simulator's (the oracle's ``metric-*`` checks pin them).
        """
        from repro.vm.stream import stream_simulate

        t0 = time.perf_counter()
        results = stream_simulate(self.trace, requests, lru=self.lru, ws=self.ws)
        STATS.add(
            "simulate",
            time.perf_counter() - t0,
            len(self.trace.pages) * len(requests),
        )
        return results

    def best_cd_result(
        self, caps: Tuple[Optional[int], ...] = (None, 2, 1)
    ) -> SimulationResult:
        """The minimum-ST CD run across directive-set choices (PI caps).

        Mirrors the paper's procedure of rerunning a program with
        different directive sets and reporting the best.
        """
        candidates = [self.cd_result(CDConfig(pi_cap=cap)) for cap in caps]
        return min(candidates, key=lambda r: r.space_time)


_CACHE: Dict[Tuple[str, PageConfig, SizingStrategy, bool], WorkloadArtifacts] = {}


# -- disk cache ----------------------------------------------------------------


def cache_dir() -> Optional[Path]:
    """The on-disk artifact cache directory, or None when disabled.

    ``REPRO_CACHE_DIR`` overrides the default ``.repro-cache``; setting
    it to an empty string disables persistence entirely.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env is not None:
        return Path(env) if env else None
    return Path(".repro-cache")


def _cache_key(
    source: str,
    page_config: PageConfig,
    strategy: SizingStrategy,
    with_locks: bool,
) -> str:
    payload = json.dumps(
        {
            "source": source,
            "page_bytes": page_config.page_bytes,
            "word_bytes": page_config.word_bytes,
            "strategy": strategy.value,
            "with_locks": with_locks,
            "format": trace_io.FORMAT_VERSION,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def _entry_paths(cdir: Path, key: str) -> Tuple[Path, Path]:
    return cdir / f"trace-{key}.npz", cdir / f"sweeps-{key}.npz"


#: every cache entry family on disk: trace-mode traces and sweeps, the
#: static tier's strings
ENTRY_PATTERNS = ("trace-*.npz", "sweeps-*.npz", "static-*.npz")


#: per-process counter making quarantine names unique within one pid
_QUARANTINE_SEQ = itertools.count(1)


def stat_fingerprint(path: Path) -> Optional[Tuple[int, int, int]]:
    """A cheap identity for the bytes currently at ``path``.

    Entries are only ever replaced atomically (write-then-``os.replace``),
    so a rebuild changes the inode — (inode, size, mtime_ns) pins the
    exact file a failed load actually read.
    """
    try:
        st = path.stat()
    except OSError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def quarantine_paths(
    paths,
    label: str,
    key: str,
    reason: str,
    observed: Optional[Dict[Path, Optional[Tuple[int, int, int]]]] = None,
    stacklevel: int = 4,
) -> List[str]:
    """Move bad cache files aside as uniquely named ``*.corrupt``.

    Cross-process safe: the quarantine name carries a pid/sequence
    suffix so two processes quarantining concurrently never overwrite
    each other's evidence, and when ``observed`` carries the
    :func:`stat_fingerprint` of the bytes the failed load actually
    read, a path whose fingerprint has since changed is left alone — a
    freshly rebuilt good entry must never be clobbered into
    ``*.corrupt`` by a process that raced with the rebuild.  The rename
    is best-effort — a read-only cache just stays unreadable and is
    treated as a miss each time.
    """
    renamed = []
    for path in paths:
        if not path.exists():
            continue
        if observed is not None:
            expected = observed.get(path)
            if expected is not None and stat_fingerprint(path) != expected:
                continue  # rebuilt under us: the new bytes are not ours to judge
        unique = path.with_name(
            f"{path.name}.{os.getpid()}-{next(_QUARANTINE_SEQ)}.corrupt"
        )
        try:
            os.replace(path, unique)
            renamed.append(unique.name)
        except OSError:
            pass
    warnings.warn(
        f"{label} cache entry {key} unreadable ({reason}); "
        f"quarantined {renamed or 'nothing'} and recomputing",
        RuntimeWarning,
        stacklevel=stacklevel,
    )
    return renamed


def _load_entry(
    cdir: Path, key: str, name: str
) -> Optional[Tuple[ReferenceTrace, LRUSweep, WSSweep]]:
    trace_path, sweeps_path = _entry_paths(cdir, key)
    if not (trace_path.exists() and sweeps_path.exists()):
        return None
    observed = {
        path: stat_fingerprint(path) for path in (trace_path, sweeps_path)
    }
    try:
        trace = trace_io.load_trace(trace_path)
        arrays = trace_io.load_sweeps(sweeps_path)
        lru = LRUSweep.from_arrays(
            {
                "pages": trace.pages,
                "distances": arrays["distances"],
                "distinct": arrays["distinct"],
            },
            program=name,
        )
        ws = WSSweep.from_arrays(
            {
                "pages": trace.pages,
                "backward": arrays["backward"],
                "forward": arrays["forward"],
            },
            program=name,
        )
        best = arrays.get("ws_best")
        if best is not None and int(best[4]) == ws.fault_service:
            # Rehydrate the default-grid WS optimum so warm runs skip
            # the ~80-window scan entirely.
            ws._min_st_cache = SimulationResult(
                policy="WS",
                program=name,
                page_faults=int(best[1]),
                references=len(trace.pages),
                mem_average=float(best[2]),
                space_time=float(best[3]),
                parameter=int(best[0]),
                fault_service=ws.fault_service,
            )
    except Exception as err:
        # A truncated .npz surfaces as BadZipFile/EOFError, a bit-flip
        # as anything from json/zlib/numpy — every one of them is a
        # cache miss, never a crash.  Quarantine so the bad bytes are
        # kept for inspection but never re-read.
        quarantine_paths(
            (trace_path, sweeps_path),
            "artifact",
            key,
            f"{type(err).__name__}: {err}",
            observed=observed,
        )
        return None
    return trace, lru, ws


def _store_entry(
    cdir: Path, key: str, trace: ReferenceTrace, lru: LRUSweep, ws: WSSweep
) -> None:
    try:
        cdir.mkdir(parents=True, exist_ok=True)
        trace_path, sweeps_path = _entry_paths(cdir, key)
        # Write-then-rename so a concurrent reader (or a crash) never
        # sees a half-written archive.
        tmp = trace_path.with_name(trace_path.name + f".tmp{os.getpid()}.npz")
        try:
            trace_io.save_trace(trace, tmp, compress=False)
            os.replace(tmp, trace_path)
        finally:
            if tmp.exists():
                tmp.unlink()
        best = ws.min_space_time()  # computed once, reused warm
        tmp = sweeps_path.with_name(sweeps_path.name + f".tmp{os.getpid()}.npz")
        try:
            trace_io.save_sweeps(
                {
                    "distances": lru._distances,
                    "distinct": lru._distinct,
                    "backward": ws._backward,
                    "forward": ws._forward,
                    "ws_best": np.array(
                        [
                            float(best.parameter),
                            float(best.page_faults),
                            best.mem_average,
                            best.space_time,
                            float(best.fault_service),
                        ]
                    ),
                },
                tmp,
            )
            os.replace(tmp, sweeps_path)
        finally:
            if tmp.exists():
                tmp.unlink()
    except OSError:
        pass  # a read-only filesystem must not break the experiments


# -- artifact construction -----------------------------------------------------


def artifacts_for(
    name: str,
    page_config: Optional[PageConfig] = None,
    strategy: SizingStrategy = SizingStrategy.ACTIVE_PAGE,
    with_locks: bool = False,
) -> WorkloadArtifacts:
    """Build (or fetch) the artifacts for one benchmark.

    ``with_locks`` defaults to False: the paper's evaluation studies the
    ALLOCATE directive ("The effectiveness of LOCK and UNLOCK directives
    is not studied in this work"); the LOCK ablation turns it on.
    """
    page_config = page_config or PageConfig()
    key = (name.upper(), page_config, strategy, with_locks)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    workload = get_workload(name)
    program = workload.program()
    symbols = workload.symbols()
    analysis = analyze_program(
        program, symbols=symbols, page_config=page_config, strategy=strategy
    )
    plan = instrument_program(program, analysis=analysis, with_locks=with_locks)

    cdir = cache_dir()
    disk_key = _cache_key(workload.source, page_config, strategy, with_locks)
    entry = _load_entry(cdir, disk_key, workload.name) if cdir else None
    if entry is not None:
        trace, lru, ws = entry
        STATS.cache_hits += 1
    else:
        STATS.cache_misses += 1
        t0 = time.perf_counter()
        trace = generate_trace(
            program, plan=plan, symbols=symbols, page_config=page_config
        )
        t1 = time.perf_counter()
        STATS.add("tracegen", t1 - t0, len(trace.pages))
        lru = LRUSweep(trace)
        ws = WSSweep(trace)
        STATS.add("sweeps", time.perf_counter() - t1, 2 * len(trace.pages))
        if cdir is not None:
            _store_entry(cdir, disk_key, trace, lru, ws)

    artifacts = WorkloadArtifacts(
        name=workload.name,
        analysis=analysis,
        plan=plan,
        trace=trace,
        lru=lru,
        ws=ws,
        with_locks=with_locks,
    )
    _CACHE[key] = artifacts
    return artifacts


def clear_cache(disk: bool = True) -> None:
    """Drop all memoized artifacts — in-memory and (by default) the
    on-disk entries too (tests use this for isolation)."""
    _CACHE.clear()
    if not disk:
        return
    cdir = cache_dir()
    if cdir is None or not cdir.is_dir():
        return
    for pattern in (*ENTRY_PATTERNS, "*.corrupt"):
        for path in cdir.glob(pattern):
            path.unlink(missing_ok=True)


def cache_info() -> Dict[str, object]:
    """Inspect the artifact caches (for the ``cache`` CLI subcommand)."""
    cdir = cache_dir()
    info: Dict[str, object] = {
        "memory_entries": len(_CACHE),
        "dir": str(cdir) if cdir else None,
        "disk_entries": 0,
        "disk_bytes": 0,
        "quarantined": 0,
    }
    if cdir is not None and cdir.is_dir():
        files = [path for pattern in ENTRY_PATTERNS for path in cdir.glob(pattern)]
        info["disk_entries"] = len(files)
        info["disk_bytes"] = sum(f.stat().st_size for f in files)
        info["quarantined"] = len(list(cdir.glob("*.corrupt")))
    return info


def cache_entry_key(
    name: str,
    page_config: Optional[PageConfig] = None,
    strategy: SizingStrategy = SizingStrategy.ACTIVE_PAGE,
    with_locks: bool = False,
) -> str:
    """The disk-cache key one (workload, geometry, locks) spec maps to.

    The service daemon uses this for per-tenant byte accounting: a
    submission is charged for exactly the entries its warm jobs were
    first to materialize (see :func:`cache_entry_bytes`).
    """
    page_config = page_config or PageConfig()
    return _cache_key(
        get_workload(name).source, page_config, strategy, with_locks
    )


def cache_entry_exists(key: str) -> bool:
    """True when both archives of entry ``key`` are on disk."""
    cdir = cache_dir()
    if cdir is None:
        return False
    trace_path, sweeps_path = _entry_paths(cdir, key)
    return trace_path.exists() and sweeps_path.exists()


def cache_entry_bytes(key: str) -> int:
    """On-disk size of entry ``key`` (0 when absent or cache disabled)."""
    cdir = cache_dir()
    if cdir is None:
        return 0
    total = 0
    for path in _entry_paths(cdir, key):
        try:
            total += path.stat().st_size
        except OSError:
            pass
    return total


# -- parallel warm-up ----------------------------------------------------------


#: (workload name, with_locks) pairs; geometry/strategy ride along per call
WarmSpec = Tuple[str, bool]


class WarmupError(RuntimeError):
    """One or more workloads could not be warmed.

    Raised *after* every other spec has been built, so a single bad
    workload costs its own table cells and nothing else.  ``failures``
    maps each failing :data:`WarmSpec` to its error string.
    """

    def __init__(self, failures: Dict[WarmSpec, str]):
        self.failures = dict(failures)
        details = "; ".join(
            f"{name}{'+locks' if with_locks else ''}: {error}"
            for (name, with_locks), error in sorted(self.failures.items())
        )
        super().__init__(
            f"{len(self.failures)} workload(s) failed to warm: {details}"
        )


def warm_artifacts(
    specs: Iterable[WarmSpec],
    page_config: Optional[PageConfig] = None,
    strategy: SizingStrategy = SizingStrategy.ACTIVE_PAGE,
    jobs: Optional[int] = None,
) -> None:
    """Ensure artifacts exist for every (workload, with_locks) spec,
    fanning independent builds across supervised worker processes when
    ``jobs`` > 1 (one crash, hang, or kill fails only its own spec, and
    transient failures get one retry).

    Parallel builds communicate through the disk cache; with persistence
    disabled (``REPRO_CACHE_DIR=""``) the fan-out would be wasted work,
    so everything runs sequentially in-process instead.

    A spec that cannot be built never aborts the others: every failure
    is collected and reported at the end as one :class:`WarmupError`.
    """
    page_config = page_config or PageConfig()
    specs = list(dict.fromkeys(specs))
    todo: List[WarmSpec] = []
    cdir = cache_dir()
    for name, with_locks in specs:
        mem_key = (name.upper(), page_config, strategy, with_locks)
        if mem_key in _CACHE:
            continue
        if cdir is not None:
            disk_key = _cache_key(
                get_workload(name).source, page_config, strategy, with_locks
            )
            trace_path, sweeps_path = _entry_paths(cdir, disk_key)
            if trace_path.exists() and sweeps_path.exists():
                continue
        todo.append((name, with_locks))

    failures: Dict[WarmSpec, str] = {}
    jobs = jobs or 1
    if jobs > 1 and cdir is not None and len(todo) > 1:
        from repro.engine.jobs import JobSpec
        from repro.engine.supervisor import Engine, EngineConfig

        t0 = time.perf_counter()
        job_ids: Dict[str, WarmSpec] = {}
        job_specs = []
        for name, with_locks in todo:
            job_id = f"warm:{name.lower()}" + ("+locks" if with_locks else "")
            job_ids[job_id] = (name, with_locks)
            job_specs.append(
                JobSpec(
                    id=job_id,
                    kind="warm",
                    params={
                        "workload": name,
                        "with_locks": with_locks,
                        "page_bytes": page_config.page_bytes,
                        "word_bytes": page_config.word_bytes,
                        "strategy": strategy.value,
                    },
                )
            )
        engine = Engine(
            EngineConfig(
                max_workers=min(jobs, len(todo)),
                max_retries=1,
                backoff_base=0.05,
            )
        )
        report = engine.run(job_specs)
        for job_id, error in report.failed.items():
            failures[job_ids[job_id]] = error
        STATS.add("warm-pool", time.perf_counter() - t0)
        todo = []
    for name, with_locks in todo:
        try:
            artifacts_for(
                name, page_config=page_config, strategy=strategy,
                with_locks=with_locks,
            )
        except Exception as err:
            failures[(name, with_locks)] = f"{type(err).__name__}: {err}"
    # pull everything (parallel builds included) into the process memo
    for name, with_locks in specs:
        if (name, with_locks) in failures:
            continue
        try:
            artifacts_for(
                name, page_config=page_config, strategy=strategy,
                with_locks=with_locks,
            )
        except Exception as err:
            failures[(name, with_locks)] = f"{type(err).__name__}: {err}"
    if failures:
        raise WarmupError(failures)


def warm_for_table(which: str, jobs: Optional[int] = None) -> None:
    """Pre-build the artifacts a ``table`` subcommand will need."""
    from repro.experiments.config import table1_rows, table2_rows

    which = which.lower()
    if which == "1":
        rows = table1_rows()
    elif which in ("2", "3", "4"):
        rows = table2_rows()
    else:  # ablations/studies pull broadly: warm the full default set
        from repro.workloads import all_workloads

        warm_artifacts([(w.name, False) for w in all_workloads()], jobs=jobs)
        return
    warm_artifacts(
        [(v.workload, v.with_locks) for v in rows], jobs=jobs
    )
