"""The job model: what a supervised worker executes.

A job is a *name*, not a closure: :class:`JobSpec` carries a job
``kind`` (a key into :data:`JOB_KINDS`) plus a JSON-serializable
``params`` mapping, so the same spec can be shipped to a worker
process, checkpointed to the run ledger, and re-run bit-for-bit on
resume.  Heavy imports happen inside the kind functions — the registry
itself is import-light so worker startup stays cheap.

Built-in kinds
--------------

``warm``
    Build one workload's trace/sweep artifacts into the persistent
    disk cache (:func:`repro.experiments.runner.artifacts_for`).

``table``
    Render one paper table or ablation (the registry lives in
    :data:`repro.experiments.TABLE_RENDERERS`); the payload carries the
    full text, which is what makes resumed sweeps byte-identical.

``oracle``
    Run one batch of differential-oracle seeds
    (:func:`repro.oracle.verify`) and report divergences.

``selftest``
    Deterministic arithmetic (optionally slow or failing) — the kind
    the engine's own tests and chaos checks run, so they never pay for
    real trace generation.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.experiments import TABLE_RENDERERS, render_table

__all__ = [
    "JOB_KINDS",
    "JobSpec",
    "params_fingerprint",
    "run_job",
]


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit of a sweep.

    ``id`` must be unique within a run; ``deps`` name jobs that must
    complete first.  ``timeout``/``max_retries`` override the engine
    defaults for this job only (``None`` means inherit).  ``priority``
    orders ready-job launches (higher first; ties keep submission
    order) without affecting the fingerprint — the same work submitted
    at a different priority still resumes from its checkpoint.
    """

    id: str
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    deps: Tuple[str, ...] = ()
    timeout: Optional[float] = None
    max_retries: Optional[int] = None
    priority: int = 0

    def fingerprint(self) -> str:
        """Content hash of what determines the job's result — resume
        only reuses a ledger entry whose fingerprint still matches."""
        return params_fingerprint(self.kind, self.params)


def params_fingerprint(kind: str, params: Mapping[str, object]) -> str:
    payload = json.dumps({"kind": kind, "params": dict(params)}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


# -- job kinds -----------------------------------------------------------------


def _run_warm(params: Mapping[str, object]) -> dict:
    from repro.analysis.locality import SizingStrategy
    from repro.analysis.parameters import PageConfig
    from repro.experiments.runner import artifacts_for

    artifacts = artifacts_for(
        str(params["workload"]),
        page_config=PageConfig(
            page_bytes=int(params.get("page_bytes", PageConfig().page_bytes)),
            word_bytes=int(params.get("word_bytes", PageConfig().word_bytes)),
        ),
        strategy=SizingStrategy(
            params.get("strategy", SizingStrategy.ACTIVE_PAGE.value)
        ),
        with_locks=bool(params.get("with_locks", False)),
    )
    return {
        "workload": artifacts.name,
        "references": int(len(artifacts.trace.pages)),
    }


def _run_table(params: Mapping[str, object]) -> dict:
    which = str(params["which"])
    if which not in TABLE_RENDERERS:
        raise ValueError(f"unknown table {which!r}")
    return {"which": which, "text": render_table(which)}


def _run_oracle(params: Mapping[str, object]) -> dict:
    from repro.oracle import verify

    report = verify(
        seeds=int(params.get("seeds", 25)),
        start_seed=int(params.get("start_seed", 0)),
        shrink=bool(params.get("shrink", False)),
        deep=bool(params.get("deep", True)),
    )
    return {
        "start_seed": int(params.get("start_seed", 0)),
        "seeds_run": report.seeds_run,
        "failures": [
            {"seed": f.seed, "check": f.check, "detail": f.detail}
            for f in report.failures
        ],
    }


def _run_selftest(params: Mapping[str, object]) -> dict:
    value = int(params.get("value", 0))
    sleep = float(params.get("sleep", 0.0))
    if sleep:
        time.sleep(sleep)
    if params.get("fail"):
        raise RuntimeError(f"selftest job asked to fail (value={value})")
    return {"value": value, "square": value * value}


JOB_KINDS: Dict[str, Callable[[Mapping[str, object]], dict]] = {
    "warm": _run_warm,
    "table": _run_table,
    "oracle": _run_oracle,
    "selftest": _run_selftest,
}


def run_job(kind: str, params: Mapping[str, object]) -> dict:
    """Execute one job in the current process; the worker entry point."""
    try:
        fn = JOB_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown job kind {kind!r}") from None
    return fn(params)
