"""The fourteen CD experiment rows of the paper's evaluation.

"Programs MAIN, FDJAC and TQL were rerun with different sets of
directives" (four sets for MAIN, two each for FDJAC and TQL).  A
directive *set* is modeled by ``CDConfig.pi_cap``: the cap selects which
level of the locality hierarchy the executed directives describe —
``None`` honors the outermost (largest) requests, ``1`` only the
innermost.  The base ``MAIN`` row additionally executes the LOCK/UNLOCK
directives (the full directive set), which pins the outer-loop pages the
inner-level allocation would otherwise churn.

Single-variant programs run at ``pi_cap=2``: the mid-level sets, which
are also what an OS under moderate contention would grant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.vm.policies import CDConfig


@dataclass(frozen=True)
class CDVariant:
    """One experiment row: a workload replayed under one directive set."""

    label: str  # row name as printed in the paper's tables
    workload: str  # catalog name of the program
    config: CDConfig
    with_locks: bool = False  # execute LOCK/UNLOCK events too

    def describe(self) -> str:
        cap = self.config.pi_cap
        level = "outermost" if cap is None else f"PI<={cap}"
        locks = ", locks" if self.with_locks else ""
        return f"{self.label}: {self.workload} with {level} directives{locks}"


#: Table 1 rows — the directive-set study on MAIN, FDJAC and TQL.
TABLE1_VARIANTS: List[CDVariant] = [
    CDVariant("MAIN", "MAIN", CDConfig(pi_cap=2), with_locks=True),
    CDVariant("MAIN1", "MAIN", CDConfig(pi_cap=None)),
    CDVariant("MAIN2", "MAIN", CDConfig(pi_cap=2)),
    CDVariant("MAIN3", "MAIN", CDConfig(pi_cap=1)),
    CDVariant("FDJAC", "FDJAC", CDConfig(pi_cap=1)),
    CDVariant("FDJAC1", "FDJAC", CDConfig(pi_cap=None)),
    CDVariant("TQL1", "TQL", CDConfig(pi_cap=2)),
    CDVariant("TQL2", "TQL", CDConfig(pi_cap=1)),
]

#: The six programs that appear with a single directive set.
SINGLE_VARIANTS: List[CDVariant] = [
    CDVariant("FIELD", "FIELD", CDConfig(pi_cap=2)),
    CDVariant("INIT", "INIT", CDConfig(pi_cap=2)),
    CDVariant("APPROX", "APPROX", CDConfig(pi_cap=2)),
    CDVariant("HYBRJ", "HYBRJ", CDConfig(pi_cap=2)),
    CDVariant("CONDUCT", "CONDUCT", CDConfig(pi_cap=2)),
    CDVariant("HWSCRT", "HWSCRT", CDConfig(pi_cap=2)),
]

_BY_LABEL = {v.label: v for v in TABLE1_VARIANTS + SINGLE_VARIANTS}


def variant(label: str) -> CDVariant:
    """Look up one experiment row by its table label."""
    try:
        return _BY_LABEL[label.upper()]
    except KeyError:
        known = ", ".join(_BY_LABEL)
        raise KeyError(f"unknown variant {label!r}; known: {known}") from None


def table1_rows() -> List[CDVariant]:
    """Rows of Table 1 (directive-set study)."""
    return list(TABLE1_VARIANTS)


def table2_rows() -> List[CDVariant]:
    """Rows of Table 2 (minimal-ST comparison) in the paper's order."""
    labels = ["MAIN3", "FDJAC", "FIELD", "INIT", "APPROX", "HYBRJ", "CONDUCT", "TQL1"]
    return [variant(label) for label in labels]


def table34_rows() -> List[CDVariant]:
    """The fourteen rows of Tables 3 and 4, in the paper's order."""
    labels = [
        "MAIN",
        "MAIN1",
        "MAIN2",
        "MAIN3",
        "FDJAC",
        "FDJAC1",
        "FIELD",
        "INIT",
        "APPROX",
        "HYBRJ",
        "CONDUCT",
        "TQL1",
        "TQL2",
        "HWSCRT",
    ]
    return [variant(label) for label in labels]

