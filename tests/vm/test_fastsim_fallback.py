"""Every untraced CD replay goes through ``simulate_cd_fast``, LOCK
pinning and memory ceilings included; only a traced replay of those
configurations runs the event-driven simulator, whose policy emits the
denial, eviction and pin events."""

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.runner import artifacts_for, clear_cache, replay_options
from repro.obs import RingBufferSink, Tracer
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


def test_traced_replay_refuses_what_it_cannot_synthesize():
    tracer = Tracer(RingBufferSink())
    with pytest.raises(ValueError):
        simulate_cd_fast(make_trace([0, 1, 2]), CDConfig(memory_limit=4), tracer=tracer)
    with pytest.raises(ValueError):
        simulate_cd_fast(_lock_trace(), CDConfig(honor_locks=True), tracer=tracer)
    # ignored LOCKs, and an UNLOCK without a LOCK, trace in closed form
    simulate_cd_fast(_lock_trace(), CDConfig(honor_locks=False), tracer=tracer)
    unlock = DirectiveEvent(
        position=2, kind=DirectiveKind.UNLOCK, site=1, lock_pages=(0,)
    )
    simulate_cd_fast(make_trace([0, 1, 2, 0], directives=[unlock]), tracer=tracer)


@pytest.fixture
def artifacts(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clear_cache(disk=False)
    yield artifacts_for("TQL", with_locks=True)
    clear_cache(disk=False)


CONFIGS = [
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


def test_traced_lock_replay_runs_the_simulator(artifacts, monkeypatch, tmp_path):
    def forbidden(*_args, **_kwargs):  # pragma: no cover - failure path
        raise AssertionError("a traced LOCK replay cannot synthesize its events")

    config = CDConfig(honor_locks=True)
    untraced = artifacts.cd_result(config)
    monkeypatch.setattr(runner_mod, "simulate_cd_fast", forbidden)
    with replay_options(timelines=tmp_path):
        traced = artifacts.cd_result(config)
    assert traced == untraced
    assert list(tmp_path.glob("tql-cd-*.jsonl"))
