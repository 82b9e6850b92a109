"""Weighted locality analysis over run-structured strings.

The static tier (:mod:`repro.analysis.staticloc`) journals the
periodic runs of every compiled affine nest; the modules here turn
that journal into the paper's LRU / WS / CD statistics: runs are
verified element-wise (:mod:`~repro.analysis.symbolic.collapse`), and
weighted analyzers reproduce the exact analyzers' integer counts from
only the collapsed representatives.
"""

from repro.analysis.symbolic.cd import simulate_cd_symbolic
from repro.analysis.symbolic.collapse import Surrogate, detect_runs
from repro.analysis.symbolic.locality import SymbolicLRU, SymbolicWS
from repro.analysis.symbolic.runtrace import Run, RunTrace

__all__ = [
    "Run",
    "RunTrace",
    "Surrogate",
    "SymbolicLRU",
    "SymbolicWS",
    "detect_runs",
    "simulate_cd_symbolic",
]
