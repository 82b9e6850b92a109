"""Deliberately broken static kernels must be caught by the
``static-*`` battery — the end-to-end acceptance test for the
closed-form engine's oracle.

Three injection points, matching the tier's two structuring paths and
the weighted analyzers they feed:

* the closed-form crossing formula (recipe bindings) — only bundled
  workloads reach it, so the fault is driven through
  :func:`check_static` on a recipe-tier workload;
* the per-batch run detector (binder bindings) and the weighted LRU
  reuse bins — fuzzer cases reach both, so the fault goes through the
  full ``verify`` runner, which must catch it, attribute it to the
  static tier, shrink it, and write the reproducer pair.
"""

import json

from repro.analysis.staticloc import affine
from repro.analysis.staticloc import string as staticloc_string
from repro.analysis.symbolic.locality import SymbolicLRU
from repro.analysis.symbolic.runtrace import Run
from repro.directives import instrument_program
from repro.oracle.harness import check_static
from repro.oracle.runner import verify
from repro.tracegen.interpreter import generate_trace
from repro.workloads import get_workload


def test_shifted_crossing_formula_is_caught(monkeypatch):
    # Shift every page-crossing iteration by one: the closed-form
    # mismatch set no longer matches the materialized string, so the
    # claimed runs stop being b-periodic in the exact pages.
    real = affine.ap_crossings

    def shifted(lin0, dlin, trips, epp):
        t = real(lin0, dlin, trips, epp)
        return t + 1 if len(t) else t

    monkeypatch.setattr(affine, "ap_crossings", shifted)
    program = get_workload("TQL").program()
    plan = instrument_program(program, with_locks=False)
    trace = generate_trace(program, plan=plan)
    divs = check_static(program, plan, trace, "TQL/alloc")
    assert divs
    assert all(d.check.startswith("static-") for d in divs)
    assert any(d.check == "static-runs" for d in divs)


def test_dropped_crossing_is_caught(monkeypatch):
    # Losing one crossing merges two genuinely different segments into
    # one over-long run.
    real = affine.ap_crossings

    def dropped(lin0, dlin, trips, epp):
        t = real(lin0, dlin, trips, epp)
        return t[1:] if len(t) else t

    monkeypatch.setattr(affine, "ap_crossings", dropped)
    program = get_workload("HYBRJ").program()
    plan = instrument_program(program, with_locks=False)
    trace = generate_trace(program, plan=plan)
    divs = check_static(program, plan, trace, "HYBRJ/alloc")
    assert any(d.check == "static-runs" for d in divs)


def test_overclaimed_binder_batch_is_caught_and_shrunk(tmp_path, monkeypatch):
    # One extra trailing repeat per binder-batch run: the journal claims
    # an iteration that is not in the string.  The verify runner must
    # attribute the failure to ``static-*``, shrink it, and write the
    # reproducer pair.
    real = staticloc_string.detect_runs

    def overclaim(pages, segments, boundaries=(), **kwargs):
        return [
            Run(r.start, r.block, r.repeats + 1)
            for r in real(pages, segments, boundaries, **kwargs)
        ]

    monkeypatch.setattr(staticloc_string, "detect_runs", overclaim)
    report = verify(seeds=6, out_dir=tmp_path, deep=False)
    assert not report.ok
    assert all(f.check.startswith("static-") for f in report.failures)
    failure = report.failures[0]
    src = tmp_path / f"seed{failure.seed:06d}-{failure.check.split('-')[0]}.f"
    meta = src.with_suffix(".json")
    assert src.exists() and meta.exists()
    payload = json.loads(meta.read_text())
    assert payload["seed"] == failure.seed
    # shrinking can only remove text, never add it
    assert len(failure.shrunk_source) <= len(failure.source)
    assert src.read_text() == failure.shrunk_source


def test_off_by_one_reuse_bin_is_caught(tmp_path, monkeypatch):
    # Shift the reuse-distance bin boundary by one: a reference whose
    # stack distance is exactly frames+1 no longer counts as a fault.
    real = SymbolicLRU.faults

    def off_by_one(self, frames):
        return real(self, frames + 1)

    monkeypatch.setattr(SymbolicLRU, "faults", off_by_one)
    report = verify(seeds=4, out_dir=tmp_path, deep=False)
    assert not report.ok
    failure = report.failures[0]
    assert failure.check == "static-lru"
    # the reproducer pair landed on disk and replays from the metadata
    src = tmp_path / f"seed{failure.seed:06d}-static.f"
    meta = tmp_path / f"seed{failure.seed:06d}-static.json"
    assert src.exists() and meta.exists()
    payload = json.loads(meta.read_text())
    assert payload["seed"] == failure.seed
    assert "verify --seeds 1 --start-seed" in payload["replay"]
    # shrinking can only remove text, never add it
    assert len(failure.shrunk_source) <= len(failure.source)
    assert src.read_text() == failure.shrunk_source


def test_clean_engine_passes_the_battery():
    # Control: with nothing injected the same drivers find nothing.
    program = get_workload("TQL").program()
    plan = instrument_program(program, with_locks=False)
    trace = generate_trace(program, plan=plan)
    assert check_static(program, plan, trace, "TQL/alloc") == []
