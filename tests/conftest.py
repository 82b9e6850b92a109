"""Suite-wide fixtures.

The artifact cache persists to disk (``.repro-cache`` by default);
tests must neither depend on nor pollute a developer's cache, so the
whole session is pointed at a throwaway directory.  ``REPRO_*``
variables configure the pipeline, so a test that leaves one changed
silently reconfigures every later test: the guard below fails it.
"""

import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the golden table snapshots instead of comparing",
    )


@pytest.fixture(autouse=True, scope="session")
def _isolated_artifact_cache(tmp_path_factory, request):
    cache_root = tmp_path_factory.mktemp("repro-cache")
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_CACHE_DIR", str(cache_root))
    request.addfinalizer(mp.undo)


def _repro_env():
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


@pytest.fixture(autouse=True)
def _repro_env_unchanged():
    # Autouse fixtures are set up before the ones a test requests, so
    # this teardown runs after ``monkeypatch`` has undone its changes:
    # it sees exactly what the next test would inherit.
    before = _repro_env()
    yield
    after = _repro_env()
    changed = sorted(
        k for k in before.keys() | after.keys() if before.get(k) != after.get(k)
    )
    if changed:
        pytest.fail(
            f"test left REPRO_* variables changed: {', '.join(changed)}",
            pytrace=False,
        )
