"""``bench_simulator.write_summary`` merges into BENCH_simulator.json;
sections owned by other writers (``stream`` from bench_stream.py, or
anything future) must survive a regeneration, because the nightly
workflow commits the merged file as the benchmark trajectory."""

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT))
    import benchmarks.bench_simulator as mod

    # stub the timing loops: this test is about the merge semantics,
    # not the measurements (the timed callables are never invoked)
    monkeypatch.setattr(mod, "_time", lambda fn, repeat=3: 0.001)
    monkeypatch.setattr(mod, "_cli_wall", lambda args, env: 0.001)
    return mod


def test_write_summary_preserves_prior_sections(tmp_path, bench):
    path = tmp_path / "BENCH_simulator.json"
    prior = {
        "stream": {"one_pass": {"LRU": {"policy_refs_per_sec": 123}}},
        "future_section": [1, 2, 3],
    }
    path.write_text(json.dumps(prior))
    summary = bench.write_summary(str(path))
    data = json.loads(path.read_text())
    assert data["stream"] == prior["stream"]
    assert data["future_section"] == prior["future_section"]
    # ...while this writer's own sections were regenerated
    for key in ("replay_conduct", "tracegen", "tables", "static"):
        assert key in data, key
    assert data == summary


def test_write_summary_tolerates_missing_or_garbage_file(tmp_path, bench):
    path = tmp_path / "BENCH_simulator.json"
    summary = bench.write_summary(str(path))  # no prior file
    assert "replay_conduct" in summary
    path.write_text("{definitely not json")
    summary = bench.write_summary(str(path))  # corrupt prior file
    assert "static" in summary
    assert json.loads(path.read_text())  # rewritten clean
