"""Experiment harness: regenerates every table of the paper's evaluation.

* :mod:`runner` — per-workload cache of programs, analyses, directive
  plans, traces, and LRU/WS sweeps;
* :mod:`config` — the fourteen CD experiment rows (MAIN/MAIN1-3,
  FDJAC/FDJAC1, TQL1/TQL2, and the six single-variant programs);
* :mod:`table1` … :mod:`table4` — the four tables of Section 5;
* :mod:`ablations` — the policy zoo, sizing-strategy and LOCK ablations
  this reproduction adds;
* :mod:`report` — plain-text table rendering;
* :data:`TABLE_RENDERERS` / :func:`render_table` — every table and
  ablation by name, for the ``table`` CLI subcommand and the sweep
  engine's ``table`` job kind.
"""

import importlib
from typing import Dict, Tuple

from repro.experiments.config import CDVariant, table1_rows, table2_rows, table34_rows
from repro.experiments.runner import WorkloadArtifacts, artifacts_for, clear_cache
from repro.experiments.report import format_table
from repro.experiments.table1 import generate_table1
from repro.experiments.table2 import generate_table2
from repro.experiments.table3 import generate_table3
from repro.experiments.table4 import generate_table4
from repro.experiments.ablations import (
    lock_ablation,
    policy_zoo,
    sizing_strategy_ablation,
    ws_family_comparison,
)
from repro.experiments.controllability import controllability_study
from repro.experiments.curves import policy_curves
from repro.experiments.geometry import geometry_sweep
from repro.experiments.multiprog_study import multiprog_study

#: table/ablation name -> (module, callable) rendering it
TABLE_RENDERERS: Dict[str, Tuple[str, str]] = {
    "1": ("repro.experiments.table1", "render_table1"),
    "2": ("repro.experiments.table2", "render_table2"),
    "3": ("repro.experiments.table3", "render_table3"),
    "4": ("repro.experiments.table4", "render_table4"),
    "zoo": ("repro.experiments.ablations", "render_policy_zoo"),
    "locks": ("repro.experiments.ablations", "render_lock_ablation"),
    "sizing": ("repro.experiments.ablations", "render_sizing_ablation"),
    "wsfamily": ("repro.experiments.ablations", "render_ws_family"),
    "adaptive": ("repro.experiments.ablations", "render_adaptive_study"),
    "geometry": ("repro.experiments.geometry", "render_geometry"),
    "multiprog": ("repro.experiments.multiprog_study", "render_multiprog"),
    "loadctl": ("repro.experiments.load_control", "render_load_control"),
    "control": ("repro.experiments.controllability", "render_controllability"),
}


def render_table(which: str) -> str:
    """Render one table/ablation by name (raises KeyError on unknown)."""
    module_name, func_name = TABLE_RENDERERS[which]
    return getattr(importlib.import_module(module_name), func_name)()


__all__ = [
    "TABLE_RENDERERS",
    "CDVariant",
    "WorkloadArtifacts",
    "artifacts_for",
    "clear_cache",
    "controllability_study",
    "format_table",
    "generate_table1",
    "generate_table2",
    "generate_table3",
    "generate_table4",
    "geometry_sweep",
    "lock_ablation",
    "multiprog_study",
    "policy_curves",
    "policy_zoo",
    "render_table",
    "sizing_strategy_ablation",
    "table1_rows",
    "table2_rows",
    "table34_rows",
    "ws_family_comparison",
]
