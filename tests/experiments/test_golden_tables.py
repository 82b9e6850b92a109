"""Golden-file regression tests for the four paper tables.

The behavioral tests in ``test_tables.py`` pin qualitative claims
(winners, trend directions); these pin the *exact rendered output*, so
any change to the numbers — an edit to the simulator, the policies, the
sizing rules, or the renderers — shows up as a diff against the
snapshots in ``tests/experiments/golden/``.

After an intentional change, regenerate with::

    pytest tests/experiments/test_golden_tables.py --update-golden
"""

from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"


def _renderers():
    from repro.experiments.table1 import render_table1
    from repro.experiments.table2 import render_table2
    from repro.experiments.table3 import render_table3
    from repro.experiments.table4 import render_table4

    return {
        "table1.txt": render_table1,
        "table2.txt": render_table2,
        "table3.txt": render_table3,
        "table4.txt": render_table4,
    }


def _check_golden(name, text, request):
    path = GOLDEN_DIR / name
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        pytest.skip(f"updated {path}")
    assert path.exists(), (
        f"missing snapshot {path} — generate it with "
        "pytest tests/experiments/test_golden_tables.py --update-golden"
    )
    expected = path.read_text()
    assert text == expected, (
        f"{name} drifted from its golden snapshot; if the change is "
        "intentional, rerun with --update-golden and commit the diff"
    )


TABLES = ["table1.txt", "table2.txt", "table3.txt", "table4.txt"]


@pytest.mark.parametrize("name", TABLES)
def test_table_matches_golden(name, request):
    text = _renderers()[name]().rstrip("\n") + "\n"
    _check_golden(name, text, request)


@pytest.mark.parametrize("name", TABLES)
def test_table_matches_golden_warm_from_disk(name, request):
    """Rendered from a warm artifact cache after dropping the
    in-process memo, so the snapshot pins the columnar load path too."""
    from repro.experiments.runner import clear_cache

    render = _renderers()[name]
    render()  # every entry the table reads is now on disk
    clear_cache(disk=False)
    _check_golden(name, render().rstrip("\n") + "\n", request)


@pytest.mark.parametrize("source", ["memory", "disk"])
def test_static_table2_matches_golden(source, request):
    """Table 2 from the static tier equals the trace-mode snapshot,
    built fresh and loaded back from its ``static-*`` entries."""
    from repro.analysis.staticloc.artifacts import clear_static_cache
    from repro.experiments.table2 import render_table2

    if source == "disk":
        render_table2(mode="static")
        clear_static_cache(disk=False)
    text = render_table2(mode="static").rstrip("\n") + "\n"
    if request.config.getoption("--update-golden"):
        pytest.skip("the trace-mode render owns table2.txt")
    _check_golden("table2.txt", text, request)
