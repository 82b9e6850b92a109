"""Corrupt directive columns in saved cache entries.

Both entry families store directives as integer columns
(``trace-*.npz`` and ``static-*.npz``).  Decoding runs every check the
event constructors used to run at load time, so a damaged column must
turn into a quarantined entry and a rebuild — never a wrong table.
"""

import shutil

import numpy as np
import pytest

from repro.analysis.staticloc.artifacts import (
    clear_static_cache,
    static_artifacts_for,
)
from repro.experiments.runner import artifacts_for, clear_cache
from repro.tracegen.events import LOCK_CODE


def _set(column, index, value):
    def corrupt(arrays):
        values = arrays["dir_" + column].copy()
        values[index] = value
        arrays["dir_" + column] = values

    return corrupt


def _reverse_positions(arrays):
    arrays["dir_position"] = arrays["dir_position"][::-1].copy()


def _lock_row_with_low_pj(arrays):
    _set("kind", 0, LOCK_CODE)(arrays)
    _set("pj", 0, 1)(arrays)


def _offsets_decrease(arrays):
    offsets = arrays["dir_req_offsets"]
    _set("req_offsets", 1, offsets[2] + 1)(arrays)


def _offsets_past_end(arrays):
    _set("lock_offsets", -1, len(arrays["dir_lock_pages"]) + 3)(arrays)


def _float_column(arrays):
    arrays["dir_site"] = arrays["dir_site"].astype(np.float64)


CORRUPTIONS = {
    "offsets-not-at-zero": _set("req_offsets", 0, 1),
    "offsets-decrease": _offsets_decrease,
    "offsets-past-end": _offsets_past_end,
    "unknown-kind": _set("kind", 0, 7),
    "allocate-without-request": _set("req_offsets", 1, 0),
    "request-pi-below-one": _set("req_pi", 0, 0),
    "request-pages-below-one": _set("req_pages", 0, 0),
    "lock-pj-below-two": _lock_row_with_low_pj,
    "positions-unsorted": _reverse_positions,
    "position-past-count": _set("position", -1, 10**9),
    "not-integers": _float_column,
}

BUILDERS = {"trace": artifacts_for, "static": static_artifacts_for}


@pytest.fixture(scope="module")
def good_entries(tmp_path_factory):
    """INIT's entries in both tiers, and the best CD run each gives."""
    root = tmp_path_factory.mktemp("directive-columns")
    patch = pytest.MonkeyPatch()
    patch.setenv("REPRO_CACHE_DIR", str(root))
    try:
        clear_cache(disk=False)
        clear_static_cache(disk=False)
        best = {
            tier: build("INIT").best_cd_result() for tier, build in BUILDERS.items()
        }
    finally:
        clear_cache(disk=False)
        clear_static_cache(disk=False)
        patch.undo()
    return root, best


@pytest.mark.parametrize("tier", sorted(BUILDERS))
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_column_quarantined_and_rebuilt(
    tier, corruption, good_entries, tmp_path, monkeypatch
):
    root, best = good_entries
    cache = tmp_path / "cache"
    shutil.copytree(root, cache)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    clear_cache(disk=False)
    clear_static_cache(disk=False)
    (victim,) = cache.glob(f"{tier}-*.npz")
    with np.load(victim) as archive:
        arrays = dict(archive)
    CORRUPTIONS[corruption](arrays)
    np.savez(victim, **arrays)
    try:
        with pytest.warns(RuntimeWarning, match="quarantined"):
            rebuilt = BUILDERS[tier]("INIT")
        assert list(cache.glob(f"{tier}-*.corrupt"))
        assert rebuilt.best_cd_result() == best[tier]
    finally:
        clear_cache(disk=False)
        clear_static_cache(disk=False)
