"""Closed-form static locality analysis.

The static engine partially evaluates a program at compile time — loop
bounds, subscript matrices and directive positions come straight from
the AST — and derives the run structure of every recipe-tier nest **in
closed form** from its affine access functions, never materializing
the flat reference string.  The result is the weighted surrogate the
analyzers of :mod:`repro.analysis.symbolic` consume, so LRU reuse
histograms, WS(τ) curves and the CD structure walk are bit-identical
to the trace path (``repro table 2 --mode static``).

Layer map:

* :mod:`~repro.analysis.staticloc.affine` — closed-form page-crossing
  and run-claiming math for one affine binding;
* :mod:`~repro.analysis.staticloc.string` — the virtual reference
  string (:class:`StaticString`) and the piecewise buffer that stands
  in for the interpreter's flat page list;
* :mod:`~repro.analysis.staticloc.interp` — the static compiler (recipe
  tier included) plus :func:`generate_static_string`;
* :mod:`~repro.analysis.staticloc.artifacts` — cache-keyed per-workload
  artifacts (:func:`static_artifacts_for`), the ``--mode static`` twin
  of the trace builder.
"""

from repro.analysis.staticloc.affine import ClosedFormPages, ap_crossings
from repro.analysis.staticloc.artifacts import (
    StaticArtifacts,
    clear_static_cache,
    static_artifacts_for,
)
from repro.analysis.staticloc.interp import generate_static_string
from repro.analysis.staticloc.string import RunBuffer, StaticString

__all__ = [
    "ClosedFormPages",
    "ap_crossings",
    "StaticArtifacts",
    "static_artifacts_for",
    "clear_static_cache",
    "generate_static_string",
    "RunBuffer",
    "StaticString",
]
