"""Suite-wide fixtures.

The artifact cache persists to disk (``.repro-cache`` by default);
tests must neither depend on nor pollute a developer's cache, so the
whole session is pointed at a throwaway directory.  ``REPRO_*``
variables configure the pipeline, so a test that leaves one changed
silently reconfigures every later test: the guard below fails it.

A test that takes ``lock_cell`` runs once per LOCK-instrumented cell
(every workload with a LOCK site × page size × sizing strategy); the
interpreted reference trace of each cell is built once per session.
"""

import functools
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


#: page sizes of the LOCK cells (the perfbench build draws' range)
LOCK_PAGE_BYTES = (64, 128, 256, 512, 1024)


def _lock_cells():
    """(program, page bytes, sizing) for every workload with a LOCK site."""
    from repro.analysis.locality import SizingStrategy
    from repro.directives import instrument_program
    from repro.workloads import all_workloads

    programs = [
        w.name
        for w in all_workloads()
        if instrument_program(w.program(), with_locks=True).locks_before
    ]
    return [
        (name, page_bytes, strategy)
        for name in programs
        for page_bytes in LOCK_PAGE_BYTES
        for strategy in SizingStrategy
    ]


def pytest_generate_tests(metafunc):
    if "lock_cell" in metafunc.fixturenames:
        metafunc.parametrize(
            "lock_cell",
            _lock_cells(),
            indirect=True,
            ids=lambda c: f"{c[0]}-p{c[1]}-{c[2].value}",
        )


@functools.lru_cache(maxsize=None)
def _interpreted_lock_cell(name, page_bytes, strategy):
    from repro.analysis.locality import analyze_program
    from repro.analysis.parameters import PageConfig
    from repro.directives import instrument_program
    from repro.tracegen.interpreter import generate_trace
    from repro.workloads import get_workload

    workload = get_workload(name)
    program, symbols = workload.program(), workload.symbols()
    page_config = PageConfig(page_bytes=page_bytes)
    analysis = analyze_program(
        program, symbols=symbols, page_config=page_config, strategy=strategy
    )
    plan = instrument_program(program, analysis=analysis, with_locks=True)
    trace = generate_trace(
        program,
        plan=plan,
        symbols=symbols,
        page_config=page_config,
        compile_nests=False,
    )
    return program, plan, symbols, page_config, trace


@pytest.fixture
def lock_cell(request):
    """One LOCK-instrumented cell: ``(program, plan, symbols,
    page_config, trace)``, ``trace`` from the pure interpreter.  Each
    cell is interpreted once per session, whichever test asks first."""
    return _interpreted_lock_cell(*request.param)


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
