"""Shared fixtures for the benchmark harness.

Each ``bench_table*.py`` module regenerates one table of the paper's
evaluation; ``pytest benchmarks/ --benchmark-only`` runs them all,
prints every regenerated table, and records the headline numbers in the
benchmark's ``extra_info`` (visible with ``--benchmark-verbose`` or in
``--benchmark-json`` output).

The paper-shape assertions on these tables run in the test suite
(``tests/experiments/test_paper_shape.py``); the benchmarks only time
and print.

The expensive, shared artifacts (traces and sweeps for all nine
programs) are warmed once per session so each benchmark measures its own
table assembly, not trace generation.
"""

import pytest

from repro.experiments.runner import artifacts_for
from repro.workloads import workload_names


@pytest.fixture(scope="session")
def warm_artifacts():
    """Generate every workload's trace and sweeps once."""
    for name in workload_names():
        artifacts_for(name)
    # The base MAIN variant additionally executes LOCK/UNLOCK events.
    artifacts_for("MAIN", with_locks=True)
    return True


def emit(title: str, text: str) -> None:
    """Print a regenerated table so it lands in the pytest output."""
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{text}\n")
