"""Every untraced CD replay goes through ``simulate_cd_fast``, LOCK
pinning and memory ceilings included; every traced replay runs the
event-driven simulator, whose policy is the one source of paging
events."""

import pytest

from repro.analysis.locality import SizingStrategy
from repro.analysis.parameters import PageConfig
from repro.experiments import runner as runner_mod
from repro.experiments.runner import artifacts_for, clear_cache, replay_options
from repro.obs import (
    Evict,
    Fault,
    ResidentSample,
    RingBufferSink,
    Tracer,
    load_events,
)
from repro.tracegen.events import DirectiveEvent, DirectiveKind
from repro.vm.fastsim import simulate_cd_fast
from repro.vm.policies import CDConfig, CDPolicy
from repro.vm.simulator import simulate

from .conftest import make_trace


def _lock_trace():
    lock = DirectiveEvent(
        position=0,
        kind=DirectiveKind.LOCK,
        site=1,
        lock_pages=(0, 1),
        priority_index=2,
    )
    unlock = DirectiveEvent(
        position=6, kind=DirectiveKind.UNLOCK, site=1, lock_pages=(0, 1)
    )
    return make_trace([0, 1, 2, 0, 1, 2], directives=[lock, unlock])


def test_ignored_locks_and_unlock_without_lock_replay_as_the_policy_does():
    unlock = DirectiveEvent(
        position=2, kind=DirectiveKind.UNLOCK, site=1, lock_pages=(0,)
    )
    cases = [
        (_lock_trace(), CDConfig(honor_locks=False)),
        (make_trace([0, 1, 2, 0], directives=[unlock]), CDConfig()),
    ]
    for trace, config in cases:
        assert simulate_cd_fast(trace, config) == simulate(trace, CDPolicy(config))


@pytest.fixture
def artifacts(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_cache(disk=False)
    yield artifacts_for("TQL", with_locks=True)
    clear_cache(disk=False)


CONFIGS = [
    CDConfig(honor_locks=False),
    CDConfig(honor_locks=True),
    CDConfig(pi_cap=1, honor_locks=True),
    CDConfig(memory_limit=4),
    CDConfig(pi_cap=2, memory_limit=6, honor_locks=False),
]


def test_untraced_replays_never_run_the_simulator(artifacts, monkeypatch):
    def forbidden(*_args, **_kwargs):  # pragma: no cover - failure path
        raise AssertionError("an untraced CD replay ran event-driven")

    monkeypatch.setattr(runner_mod, "simulate", forbidden)
    for config in CONFIGS:
        result = artifacts.cd_result(config)
        assert result == simulate(artifacts.trace, CDPolicy(config))


def test_traced_replays_run_the_simulator(artifacts, monkeypatch, tmp_path):
    def forbidden(*_args, **_kwargs):  # pragma: no cover - failure path
        raise AssertionError("a traced CD replay ran the fast path")

    policies = []

    def spy(trace, policy, **kwargs):
        policies.append(policy)
        return simulate(trace, policy, **kwargs)

    untraced = [artifacts.cd_result(config) for config in CONFIGS]
    monkeypatch.setattr(runner_mod, "simulate_cd_fast", forbidden)
    monkeypatch.setattr(runner_mod, "simulate", spy)
    tdir = tmp_path / "timelines"
    tdir.mkdir()
    with replay_options(timelines=tdir):
        traced = [artifacts.cd_result(config) for config in CONFIGS]
    assert traced == untraced
    assert [type(p) for p in policies] == [CDPolicy] * len(CONFIGS)
    assert [p.config for p in policies] == CONFIGS
    # one file per configuration
    names = {artifacts.timeline_name(config) for config in CONFIGS}
    assert len(names) == len(CONFIGS)
    assert {path.name for path in tdir.glob("*.jsonl")} == names


def _paging_events(events):
    """Every event but the resident samples, whose interval the replay picks."""
    return [e for e in events if not isinstance(e, ResidentSample)]


def test_traced_replay_persists_the_policy_stream(artifacts, tmp_path):
    config = CDConfig(memory_limit=4, honor_locks=True)
    with replay_options(timelines=tmp_path):
        artifacts.cd_result(config)
    ring = RingBufferSink()
    simulate(artifacts.trace, CDPolicy(config), tracer=Tracer(ring))
    persisted = load_events(tmp_path / artifacts.timeline_name(config))
    assert _paging_events(persisted) == _paging_events(ring.events)
    assert any(isinstance(e, Evict) for e in persisted)


def test_timelines_of_page_sizes_and_sizing_strategies_stay_apart(tmp_path):
    config = CDConfig(pi_cap=1)
    cells = [
        artifacts_for("APPROX", PageConfig(page_bytes=page_bytes), strategy=strategy)
        for page_bytes in (256, 512)
        for strategy in SizingStrategy
    ]
    untraced = [cell.cd_result(config).page_faults for cell in cells]
    with replay_options(timelines=tmp_path):
        for cell in cells:
            cell.cd_result(config)
    assert len(list(tmp_path.glob("*.jsonl"))) == len(cells)
    for cell, faults in zip(cells, untraced):
        events = load_events(tmp_path / cell.timeline_name(config))
        assert sum(isinstance(e, Fault) for e in events) == faults
