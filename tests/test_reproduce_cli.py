"""Tests for the one-shot ``reproduce`` command."""

from pathlib import Path

import pytest

from repro.cli import main

COMMITTED = Path(__file__).resolve().parents[1] / "results"

EXPECTED_FILES = [
    "table1.txt",
    "table2.txt",
    "table3.txt",
    "table4.txt",
    "ablation_zoo.txt",
    "ablation_sizing.txt",
    "ablation_locks.txt",
    "ablation_ws_family.txt",
    "ablation_adaptive.txt",
    "controllability.txt",
    "geometry.txt",
    "multiprogramming.txt",
]


@pytest.fixture(scope="module")
def results_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    assert main(["reproduce", "-o", str(out)]) == 0
    return out


class TestReproduce:
    def test_all_artifacts_written(self, results_dir):
        names = {p.name for p in results_dir.iterdir()}
        assert names == set(EXPECTED_FILES)

    def test_tables_nonempty_and_titled(self, results_dir):
        for name in EXPECTED_FILES:
            text = (results_dir / name).read_text()
            assert len(text.splitlines()) >= 4, name

    @pytest.mark.parametrize("name", EXPECTED_FILES)
    def test_matches_committed_results(self, results_dir, name):
        """Every reproduced file equals the committed one byte for byte."""
        produced = (results_dir / name).read_bytes()
        assert produced == (COMMITTED / name).read_bytes(), name

    def test_table3_has_all_fourteen_rows(self, results_dir):
        text = (results_dir / "table3.txt").read_text()
        for label in ("MAIN3", "FDJAC1", "HWSCRT", "CONDUCT"):
            assert label in text

    def test_show_flag_prints(self, tmp_path, capsys):
        # Re-running is cheap: artifacts are cached in-process.
        assert main(["reproduce", "-o", str(tmp_path), "--show"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
