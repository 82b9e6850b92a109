"""Golden-file regression tests for the trace-free engine's predictions.

One JSON snapshot per catalog workload pins the static tier's headline
numbers — string/collapse shape, affine coverage, and the LRU / WS /
CD space-time minima — so any change to the recipe tier, the closed
form, the run detector, or the weighted analyzers shows up as a diff
against ``tests/analysis/golden/``.

After an intentional change, regenerate with::

    pytest tests/analysis/test_symbolic_golden.py --update-golden
"""

import json
from pathlib import Path

import pytest

from repro.workloads import workload_names

GOLDEN_DIR = Path(__file__).parent / "golden"


def _snapshot(name):
    from repro.analysis.staticloc import static_artifacts_for
    from repro.staticcheck import lint_program

    art = static_artifacts_for(name)
    lru_min = art.lru.min_space_time()
    ws_min = art.ws.min_space_time()
    cd = art.best_cd_result()
    flagged = sum(
        1
        for d in lint_program(art.analysis.program, plan=art.plan)
        if d.rule == "CD301"
    )
    return {
        "references": art.string.n_references,
        "kept_references": len(art.surrogate.kept_pos),
        "runs": len(art.runtrace.runs),
        "nonaffine_sites": flagged,
        "lru_min": {
            "frames": lru_min.parameter,
            "page_faults": lru_min.page_faults,
            "space_time": lru_min.space_time,
        },
        "ws_min": {
            "tau": ws_min.parameter,
            "page_faults": ws_min.page_faults,
            "space_time": ws_min.space_time,
        },
        "cd": {
            "pi_cap": cd.parameter,
            "page_faults": cd.page_faults,
            "mem_average": round(cd.mem_average, 9),
            "space_time": cd.space_time,
        },
    }


@pytest.mark.parametrize("name", workload_names())
def test_symbolic_predictions_match_golden(name, request):
    got = _snapshot(name)
    path = GOLDEN_DIR / f"{name.lower()}.json"
    text = json.dumps(got, indent=2, sort_keys=True) + "\n"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        pytest.skip(f"updated {path}")
    assert path.exists(), (
        f"missing snapshot {path} — generate it with "
        "pytest tests/analysis/test_symbolic_golden.py --update-golden"
    )
    expected = json.loads(path.read_text())
    assert got == expected, (
        f"{name} static predictions drifted from the golden snapshot; "
        "if the change is intentional, rerun with --update-golden and "
        "commit the diff"
    )
