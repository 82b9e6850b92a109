"""Sweep construction: CLI targets -> a job DAG -> run artifacts.

A *target* is what ``repro run`` accepts on the command line:

* a table/ablation name (``1``..``4``, ``zoo``, ``locks``, ``sizing``,
  ``geometry``, ``multiprog``, ``wsfamily``, ``control``, ``adaptive``)
  — expands to one ``warm`` job per (workload, lock-mode) the table
  needs plus one ``table`` job depending on them;
* ``verify[:seeds[:batch]]`` — the differential oracle fanned out as
  independent seed-batch jobs (default 50 seeds in batches of 25).

Each run owns a directory ``<runs-root>/<run-id>/`` holding the
JSONL run ledger (checkpoints), the engine event log, and the rendered
table files.  ``--resume <run-id>`` reloads the ledger and replays
completed jobs as instant results, so an interrupted sweep finishes
with byte-identical outputs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.jobs import JobSpec
from repro.engine.ledger import LedgerState, RunLedger
from repro.engine.supervisor import Engine, EngineConfig, RunReport
from repro.experiments import TABLE_RENDERERS

__all__ = ["SweepResult", "build_sweep", "new_run_id", "run_sweep"]

DEFAULT_RUNS_ROOT = Path("results") / "runs"


def new_run_id() -> str:
    return time.strftime("run-%Y%m%d-%H%M%S") + f"-{os.getpid()}"


def _warm_rows(which: str) -> List[Tuple[str, bool]]:
    """The (workload, with_locks) artifact specs one table consumes."""
    from repro.experiments.config import table1_rows, table2_rows

    if which == "1":
        rows = table1_rows()
    elif which in ("2", "3", "4"):
        rows = table2_rows()
    else:
        from repro.workloads import all_workloads

        return [(w.name, False) for w in all_workloads()]
    return list(dict.fromkeys((v.workload, v.with_locks) for v in rows))


def _warm_job_id(workload: str, with_locks: bool) -> str:
    return f"warm:{workload.lower()}" + ("+locks" if with_locks else "")


def build_sweep(targets: Sequence[str]) -> List[JobSpec]:
    """Expand targets into a deduplicated DAG of job specs."""
    specs: List[JobSpec] = []
    seen: Dict[str, JobSpec] = {}

    def add(spec: JobSpec) -> None:
        if spec.id not in seen:
            seen[spec.id] = spec
            specs.append(spec)

    for target in targets:
        if target in TABLE_RENDERERS:
            deps = []
            for workload, with_locks in _warm_rows(target):
                job_id = _warm_job_id(workload, with_locks)
                add(
                    JobSpec(
                        id=job_id,
                        kind="warm",
                        params={"workload": workload, "with_locks": with_locks},
                    )
                )
                deps.append(job_id)
            add(
                JobSpec(
                    id=f"table:{target}",
                    kind="table",
                    params={"which": target},
                    deps=tuple(deps),
                )
            )
        elif target == "verify" or target.startswith("verify:"):
            parts = target.split(":")
            seeds = int(parts[1]) if len(parts) > 1 and parts[1] else 50
            batch = int(parts[2]) if len(parts) > 2 and parts[2] else 25
            if seeds < 1 or batch < 1:
                raise ValueError(f"bad verify target {target!r}")
            for start in range(0, seeds, batch):
                count = min(batch, seeds - start)
                add(
                    JobSpec(
                        id=f"oracle:{start}-{start + count - 1}",
                        kind="oracle",
                        params={"start_seed": start, "seeds": count},
                    )
                )
        else:
            known = ", ".join(sorted(TABLE_RENDERERS))
            raise ValueError(
                f"unknown sweep target {target!r} (tables: {known}; "
                "or verify[:seeds[:batch]])"
            )
    return specs


@dataclass
class SweepResult:
    """One ``repro run`` invocation's outcome."""

    run_id: str
    run_dir: Path
    report: RunReport
    outputs: List[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.report.ok

    def oracle_failures(self) -> List[dict]:
        failures: List[dict] = []
        for job_id, payload in sorted(self.report.results.items()):
            if job_id.startswith("oracle:"):
                failures.extend(payload.get("failures", []))
        return failures


def _output_name(which: str) -> str:
    return f"table{which}.txt" if which.isdigit() else f"{which}.txt"


def run_sweep(
    targets: Sequence[str],
    run_id: Optional[str] = None,
    runs_root: Path = DEFAULT_RUNS_ROOT,
    resume: bool = False,
    config: Optional[EngineConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Build the DAG for ``targets`` and run it under supervision.

    ``resume=True`` reloads ``<runs_root>/<run_id>/ledger.jsonl`` and
    skips completed jobs.  On KeyboardInterrupt the ledger and event
    log are flushed before the exception propagates.
    """
    from repro.obs import JsonlSink, Tracer

    run_id = run_id or new_run_id()
    run_dir = Path(runs_root) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    say = progress or (lambda _msg: None)
    specs = build_sweep(targets)
    config = config or EngineConfig()
    config.seed = run_id

    resume_state = None
    if resume:
        resume_state = LedgerState.load(run_dir / "ledger.jsonl")
        say(
            f"resuming {run_id}: {len(resume_state.completed)} job(s) "
            f"checkpointed, {len(resume_state.failed)} previously failed"
        )

    ledger = RunLedger(run_dir / "ledger.jsonl")
    ledger.append(
        {
            "kind": "run-start",
            "run_id": run_id,
            "targets": list(targets),
            "jobs": [s.id for s in specs],
            "max_workers": config.max_workers,
            "max_retries": config.max_retries,
            "timeout": config.timeout,
            "chaos": config.chaos.mode if config.chaos else None,
            "resumed": bool(resume),
        }
    )
    tracer = Tracer(JsonlSink(run_dir / "events.jsonl", append=True))
    engine = Engine(config, tracer=tracer, ledger=ledger)
    say(
        f"{run_id}: {len(specs)} job(s), {config.max_workers} worker(s)"
        + (f", chaos={config.chaos.mode}" if config.chaos else "")
    )
    try:
        report = engine.run(specs, resume=resume_state)
    finally:
        tracer.close()
        ledger.close()

    result = SweepResult(run_id=run_id, run_dir=run_dir, report=report)
    for job_id, payload in sorted(report.results.items()):
        if job_id.startswith("table:"):
            path = run_dir / _output_name(payload["which"])
            path.write_text(payload["text"] + "\n")
            result.outputs.append(path)
            say(f"wrote {path}")
    return result
