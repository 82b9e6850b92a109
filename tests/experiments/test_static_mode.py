"""``--mode static``: routing, CLI surface, and the static disk cache
(warm loads must be identical, corrupt entries quarantined)."""

import numpy as np
import pytest

from repro.analysis.parameters import PageConfig
from repro.analysis.staticloc.artifacts import (
    _STATIC_CACHE,
    clear_static_cache,
    static_artifacts_for,
)
from repro.cli import main
from repro.experiments.runner import STATS, artifacts_for, cache_info, clear_cache
from repro.experiments.table2 import generate_table2, render_table2
from repro.vm.policies import CDConfig


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_cache()
    clear_static_cache()
    STATS.reset()
    yield tmp_path / "cache"
    clear_cache()
    clear_static_cache()
    STATS.reset()


class TestModeRouting:
    def test_static_rows_equal_trace_rows(self, fresh_cache):
        assert generate_table2(mode="static") == generate_table2()

    def test_static_render_equals_trace_render(self, fresh_cache):
        assert render_table2(mode="static") == render_table2()

    def test_cli_table2_static(self, fresh_cache, capsys):
        assert main(["table", "2", "--mode", "static"]) == 0
        out = capsys.readouterr().out
        assert "HYBRJ" in out and "CONDUCT" in out

    def test_cli_other_tables_reject_static(self, fresh_cache):
        with pytest.raises(SystemExit, match="table 2"):
            main(["table", "1", "--mode", "static"])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            generate_table2(mode="psychic")

    def test_cli_accepts_only_trace_and_static(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "2", "--mode", "symbolic"])
        assert exc.value.code == 2  # argparse usage error
        assert "choose from 'trace', 'static'" in capsys.readouterr().err

    def test_cli_timelines_rejected_before_any_work(self, fresh_cache, tmp_path):
        # The static tier replays no events: --timelines would write
        # nothing, so it is refused before the directory is created.
        tdir = tmp_path / "timelines"
        with pytest.raises(SystemExit, match="--timelines"):
            main(["table", "2", "--mode", "static", "--timelines", str(tdir)])
        assert not tdir.exists()
        assert STATS.cache_hits == STATS.cache_misses == 0


class TestStaticArtifacts:
    def test_no_flat_pages_on_collapsed_workload(self, fresh_cache):
        art = static_artifacts_for("INIT")
        assert not art.string.fully_literal
        assert art.gen_stats.get("closed_form_references", 0) > 0
        # the virtual string only knows its length
        with pytest.raises(AttributeError):
            art.string.pages.tolist()

    def test_recovery_runs_during_generation(self, fresh_cache):
        art = static_artifacts_for("FIELD")
        assert art.gen_stats.get("recovered_sites", 0) >= 1

    @pytest.mark.parametrize("name", ["INIT", "CONDUCT"])
    def test_ceilinged_cd_equals_trace_tier_at_64_byte_pages(
        self, fresh_cache, name
    ):
        # A memory ceiling replays the exact trace, which must be this
        # string's own (64-B pages), not a default-geometry regeneration.
        page_config = PageConfig(page_bytes=64)
        config = CDConfig(memory_limit=8)
        static = static_artifacts_for(name, page_config=page_config)
        trace = artifacts_for(name, page_config=page_config)
        assert not static.string.fully_literal
        assert static.cd_result(config) == trace.cd_result(config)

    def test_locked_cd_equals_trace_tier(self, fresh_cache):
        # honored LOCKs replay the expanded, collapsed LOCK string
        static = static_artifacts_for("FDJAC", with_locks=True)
        trace = artifacts_for("FDJAC", with_locks=True)
        assert not static.string.fully_literal
        assert static.best_cd_result() == trace.best_cd_result()

    def test_coverage_reports_nonaffine_sites(self, fresh_cache):
        report = static_artifacts_for("FIELD").coverage()
        assert "nonaffine_sites" in report
        assert report["references"] == static_artifacts_for(
            "FIELD"
        ).string.n_references


class TestStaticDiskCache:
    def test_build_writes_one_entry(self, fresh_cache):
        static_artifacts_for("INIT")
        assert len(list(fresh_cache.glob("static-*.npz"))) == 1
        assert STATS.cache_misses == 1

    def test_warm_load_is_identical(self, fresh_cache):
        built = static_artifacts_for("INIT")
        built_lru = built.lru.min_space_time()
        built_ws = built.ws.min_space_time()
        built_cd = built.best_cd_result()
        _STATIC_CACHE.clear()  # cold process, warm disk
        loaded = static_artifacts_for("INIT")
        assert loaded is not built
        assert STATS.cache_hits == 1
        assert loaded.string.n_references == built.string.n_references
        np.testing.assert_array_equal(
            loaded.string.kept_pages, built.string.kept_pages
        )
        assert loaded.string.runs == built.string.runs
        for got, want in (
            (loaded.lru.min_space_time(), built_lru),
            (loaded.ws.min_space_time(), built_ws),
            (loaded.best_cd_result(), built_cd),
        ):
            assert got.parameter == want.parameter
            assert got.page_faults == want.page_faults
            assert got.space_time == want.space_time
        # the LRU arrays and ws_best were rehydrated, not recomputed
        np.testing.assert_array_equal(
            loaded.lru._distances, built.lru._distances
        )
        assert loaded.ws._min_st_cache is not None

    def test_corrupt_entry_quarantined_and_rebuilt(self, fresh_cache):
        built = static_artifacts_for("INIT")
        _STATIC_CACHE.clear()
        victim = sorted(fresh_cache.glob("static-*.npz"))[0]
        victim.write_bytes(b"not an npz archive")
        STATS.reset()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            healed = static_artifacts_for("INIT")
        assert STATS.cache_misses == 1
        assert sorted(fresh_cache.glob("static-*.corrupt"))
        assert healed.ws.min_space_time() == built.ws.min_space_time()

    def test_format_bump_invalidates(self, fresh_cache, monkeypatch):
        from repro.analysis.staticloc import artifacts as mod

        static_artifacts_for("INIT")
        _STATIC_CACHE.clear()
        monkeypatch.setattr(mod, "STATIC_FORMAT", mod.STATIC_FORMAT + 1)
        STATS.reset()
        static_artifacts_for("INIT")
        assert STATS.cache_misses == 1  # old entry never consulted

    def test_stale_ws_best_fault_service_ignored(self, fresh_cache):
        static_artifacts_for("INIT")
        _STATIC_CACHE.clear()
        victim = sorted(fresh_cache.glob("static-*.npz"))[0]
        with np.load(victim) as arrays:
            payload = dict(arrays)
        payload["ws_best"] = payload["ws_best"].copy()
        payload["ws_best"][4] += 1  # recorded under a different service time
        np.savez(victim, **payload)
        loaded = static_artifacts_for("INIT")
        assert loaded.ws._min_st_cache is None  # guard refused the seed
        # ...and the search still returns the right answer from scratch.
        assert loaded.ws.min_space_time().space_time > 0

    def test_cache_info_counts_static_entries(self, fresh_cache, capsys):
        before = cache_info()["disk_entries"]
        static_artifacts_for("FIELD")
        assert cache_info()["disk_entries"] == before + 1
        assert main(["cache", "clear"]) == 0
        assert f"removed {before + 1} cached" in capsys.readouterr().out
        assert cache_info()["disk_entries"] == 0

    def test_clear_static_cache_leaves_other_modes(self, fresh_cache):
        artifacts_for("INIT")
        static_artifacts_for("INIT")
        other_entries = set(fresh_cache.glob("*.npz")) - set(
            fresh_cache.glob("static-*.npz")
        )
        assert other_entries  # the trace-mode trace and sweeps
        clear_static_cache()
        assert not list(fresh_cache.glob("static-*.npz"))
        assert set(fresh_cache.glob("*.npz")) == other_entries
