"""Deliberately broken fast paths must be caught, shrunk, and written
out as reproducers — the end-to-end acceptance test for the oracle."""

import dataclasses
import json
from collections import deque

import numpy as np

from repro.oracle.generator import generate_source
from repro.oracle.runner import verify
from repro.tracegen.compile import TraceCompiler, _LockRefs
from repro.vm import fastsim
from repro.vm.analyzers import WorkingSetKernel


def test_clean_run_writes_nothing(tmp_path):
    report = verify(seeds=3, out_dir=tmp_path, deep=False)
    assert report.ok
    assert report.seeds_run == 3
    assert list(tmp_path.iterdir()) == []


def test_broken_cd_fast_path_is_caught(tmp_path, monkeypatch):
    real = fastsim.simulate_cd_fast

    def off_by_one(trace, config, distances=None):
        result = real(trace, config, distances=distances)
        return dataclasses.replace(result, page_faults=result.page_faults + 1)

    monkeypatch.setattr(fastsim, "simulate_cd_fast", off_by_one)
    report = verify(seeds=2, out_dir=tmp_path, deep=False)
    assert not report.ok
    failure = report.failures[0]
    assert failure.check == "metric-cd"
    # the reproducer pair landed on disk and replays from the metadata
    src = tmp_path / f"seed{failure.seed:06d}-metric.f"
    meta = tmp_path / f"seed{failure.seed:06d}-metric.json"
    assert src.exists() and meta.exists()
    payload = json.loads(meta.read_text())
    assert payload["seed"] == failure.seed
    assert "verify --seeds 1 --start-seed" in payload["replay"]
    # shrinking can only remove text, never add it
    assert len(failure.shrunk_source) <= len(failure.source)
    assert src.read_text() == failure.shrunk_source


def test_lock_replay_shrinking_one_page_short_is_caught(tmp_path, monkeypatch):
    real = fastsim._replay_pinned

    def one_short(trace, config, schedule):
        # every shrink stops one page above its target
        return real(trace, config, schedule._replace(targets=schedule.targets + 1))

    monkeypatch.setattr(fastsim, "_replay_pinned", one_short)
    report = verify(seeds=2, out_dir=tmp_path, deep=False)
    assert not report.ok
    failure = report.failures[0]
    assert failure.check == "metric-cd"
    assert failure.detail.startswith("[metric-cd] locks: ")
    assert "honor_locks=True" in failure.detail
    src = tmp_path / f"seed{failure.seed:06d}-metric.f"
    assert src.read_text() == failure.shrunk_source


def test_ceiling_schedule_one_page_over_is_caught(tmp_path, monkeypatch):
    real = fastsim.cd_schedule

    def one_over(table, config, length):
        if config.memory_limit is not None:
            config = dataclasses.replace(config, memory_limit=config.memory_limit + 1)
        return real(table, config, length)

    monkeypatch.setattr(fastsim, "cd_schedule", one_over)
    report = verify(seeds=2, out_dir=tmp_path, deep=False, shrink=False)
    assert not report.ok
    failure = report.failures[0]
    assert failure.check == "metric-cd"
    assert "memory_limit=" in failure.detail


def test_broken_trace_compiler_is_caught(tmp_path, monkeypatch):
    real = TraceCompiler._commit

    def corrupting_commit(self, batch):
        if batch.pages:
            batch.pages[-1] += 1  # one wrong page per compiled nest
        return real(self, batch)

    monkeypatch.setattr(TraceCompiler, "_commit", corrupting_commit)
    report = verify(seeds=4, out_dir=tmp_path, deep=False, shrink=False)
    assert not report.ok
    assert any(f.check.startswith("trace") for f in report.failures)
    assert any(p.suffix == ".f" for p in tmp_path.iterdir())


def test_broken_lock_resolution_is_caught(tmp_path, monkeypatch):
    real = _LockRefs.page_before

    def inclusive(self, name, pos):
        # also counts the reference right after the LOCK
        return real(self, name, pos + 1)

    monkeypatch.setattr(_LockRefs, "page_before", inclusive)
    report = verify(seeds=2, out_dir=tmp_path, deep=False, shrink=False)
    assert not report.ok
    assert {f.check for f in report.failures} == {"trace-directives"}
    assert all("] locks: " in f.detail for f in report.failures)


def test_lock_after_batch_without_last_page_is_caught(tmp_path, monkeypatch):
    real = TraceCompiler._commit

    def no_write_back(self, batch):
        batch.last_pages = None  # LOCKs after the batch read a stale page
        return real(self, batch)

    monkeypatch.setattr(TraceCompiler, "_commit", no_write_back)
    # the first seed carrying the generator's LOCK-after-batch shape
    seed = next(s for s in range(200) if ", D(" in generate_source(s))
    report = verify(
        seeds=1, start_seed=seed, out_dir=tmp_path, deep=False, shrink=False
    )
    assert not report.ok
    assert report.failures[0].check == "trace-directives"
    assert "] locks: " in report.failures[0].detail


def test_over_tight_ws_search_bound_is_caught_and_shrunk(tmp_path, monkeypatch):
    def doubled(faults, anchored, shrink):
        return np.maximum(faults, 2 * anchored - shrink * faults)

    monkeypatch.setattr(WorkingSetKernel, "_bound", staticmethod(doubled))
    # seeds 40, 41 and 146 are the first 200 seeds' cases this prunes wrongly
    report = verify(seeds=1, start_seed=40, out_dir=tmp_path, deep=False)
    assert not report.ok
    failure = report.failures[0]
    assert failure.check == "metric-ws-min"
    assert (tmp_path / "seed000040-metric.f").read_text() == failure.shrunk_source
    assert len(failure.shrunk_source) < len(failure.source)


def test_fifo_evicting_newest_is_caught_and_shrunk(tmp_path, monkeypatch):
    class NewestFirst(deque):
        def popleft(self):
            return self.pop()  # evicts the newest insertion

    monkeypatch.setattr(fastsim, "deque", NewestFirst)
    report = verify(seeds=2, out_dir=tmp_path, deep=False)
    assert not report.ok
    failure = report.failures[0]
    assert failure.check == "metric-fifo"
    src = tmp_path / f"seed{failure.seed:06d}-metric.f"
    assert src.read_text() == failure.shrunk_source
    assert len(failure.shrunk_source) < len(failure.source)


def test_time_budget_stops_early_but_runs_at_least_one_seed(tmp_path):
    report = verify(seeds=500, time_budget=0.0, out_dir=tmp_path, deep=False)
    assert report.seeds_run >= 1
    assert report.seeds_run < 500
    assert report.budget_exhausted
    assert report.ok
    assert "time budget" in report.summary()
