"""Per-layer spans for the traced run.

The traced run wraps each layer's entry points and sums, per layer, the
time spent inside them and the units of work they processed.  A wrapper
is patched *wherever the name is looked up*: callers that bound a
function with ``from … import`` (``repro.experiments.runner`` binds
``generate_trace``, ``analyze_program``, ``simulate_cd_fast`` …; the
table modules bind ``artifacts_for``; ``ablations`` binds ``simulate``)
hold their own reference, so patching only the defining module would
record nothing.  Methods are patched on their class.  :meth:`Tracer.remove`
puts every original back, including in modules imported after install.

A span nested inside a span of the same layer adds nothing to that
layer's time (no double counting); a span with no enclosing span is
*top-level*, and the top-level total over an op's wall time is the
run's trace coverage.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import types
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

Units = Optional[Callable[[tuple, dict, object], int]]


def _pages_of_result(args, kwargs, result) -> int:
    return len(result.pages)


def _references_of_result(args, kwargs, result) -> int:
    return int(result.references)


def _string_references(args, kwargs, result) -> int:
    return int(result.n_references)


def _policy_references(args, kwargs, results) -> int:
    return sum(int(r.references) for r in results)


_LRU_QUERIES = (
    "faults", "mem", "space_time", "lifetime", "result", "curve",
    "min_space_time", "frames_for_mem", "min_frames_with_faults_at_most",
    "knee_frames", "lifetime_curve",
)
_WS_QUERIES = (
    "faults", "mem", "space_time", "lifetime", "result", "curve",
    "min_space_time", "tau_for_mem", "min_tau_with_faults_at_most",
    "mean_frames", "default_taus",
)

#: (layer, "module:qualname", units counter) — every traced entry point
ENTRY_POINTS: List[Tuple[str, str, Units]] = [
    ("runner.artifacts", "repro.experiments.runner:artifacts_for", None),
    ("runner.load", "repro.tracegen.io:load_trace", None),
    ("runner.load", "repro.tracegen.io:load_sweeps", None),
    ("runner.store", "repro.experiments.runner:_store_entry", None),
    ("analysis.analyze", "repro.analysis.locality:analyze_program", None),
    (
        "directives.instrument",
        "repro.directives.instrument:instrument_program",
        None,
    ),
    ("frontend.parse", "repro.frontend.parser:parse_source", None),
    (
        "tracegen.generate",
        "repro.tracegen.interpreter:generate_trace",
        _pages_of_result,
    ),
    ("analyzers.build", "repro.vm.analyzers:LRUSweep.__init__", None),
    ("analyzers.build", "repro.vm.analyzers:WSSweep.__init__", None),
    *(
        ("analyzers.query", f"repro.vm.analyzers:LRUSweep.{m}", None)
        for m in _LRU_QUERIES
    ),
    *(
        ("analyzers.query", f"repro.vm.analyzers:WSSweep.{m}", None)
        for m in _WS_QUERIES
    ),
    ("fastsim.cd", "repro.vm.fastsim:simulate_cd_fast", _references_of_result),
    (
        "staticloc.artifacts",
        "repro.analysis.staticloc.artifacts:static_artifacts_for",
        None,
    ),
    (
        "staticloc.string",
        "repro.analysis.staticloc.interp:generate_static_string",
        _string_references,
    ),
    ("recovery.recover", "repro.staticcheck.recovery:recover_program", None),
    ("symbolic.cd", "repro.analysis.symbolic.cd:simulate_cd_symbolic", None),
    *(
        ("symbolic.query", f"repro.analysis.symbolic.locality:SymbolicLRU.{m}", None)
        for m in _LRU_QUERIES
    ),
    *(
        ("symbolic.query", f"repro.analysis.symbolic.locality:SymbolicWS.{m}", None)
        for m in _WS_QUERIES
    ),
    ("simulator.replay", "repro.vm.simulator:simulate", _references_of_result),
    (
        "stream.replay",
        "repro.vm.stream.engine:stream_simulate",
        _policy_references,
    ),
    (
        "multiprog.fixed_mix",
        "repro.vm.multiprog:MultiprogSimulator.__init__",
        None,
    ),
    ("multiprog.fixed_mix", "repro.vm.multiprog:MultiprogSimulator.run", None),
    ("multiprog.pool", "repro.vm.multiprog:LoadControlledPool.__init__", None),
    ("multiprog.pool", "repro.vm.multiprog:LoadControlledPool.run", None),
    ("tables.render", "repro.experiments.report:format_table", None),
]


class Tracer:
    """Accumulates per-layer seconds, calls and units from wrapped calls."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.units: Counter = Counter()
        self.top_level_s = 0.0
        self.wrapper_calls = 0
        self._stack: List[str] = []
        self._class_patches: List[Tuple[type, str, object]] = []
        self._originals: Dict[int, Tuple[object, object]] = {}  # id(wrapper)

    def wrap(self, layer: str, fn, units: Units = None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = layer not in stack
            top_level = not stack
            stack.append(layer)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                self.wrapper_calls += 1
                if outermost:
                    self.seconds[layer] += elapsed
                    self.calls[layer] += 1
                if top_level:
                    self.top_level_s += elapsed
            if outermost and units is not None:
                self.units[layer] += units(args, kwargs, result)
            return result

        return wrapper

    def install(self, entry_points=ENTRY_POINTS) -> None:
        """Wrap every entry point, wherever its name is bound."""
        by_original: Dict[int, Tuple[object, object]] = {}
        for layer, spec, units in entry_points:
            owner, attr = _resolve(spec)
            original = vars(owner)[attr]
            wrapper = self.wrap(layer, original, units)
            self._originals[id(wrapper)] = (wrapper, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._class_patches.append((owner, attr, original))
            else:
                by_original[id(original)] = (original, wrapper)
        for module in _modules():
            namespace = vars(module)
            for name, value in list(namespace.items()):
                hit = by_original.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[name] = hit[1]

    def remove(self) -> None:
        """Put every original back (modules imported since install too)."""
        for owner, attr, original in self._class_patches:
            setattr(owner, attr, original)
        self._class_patches.clear()
        for module in _modules():
            namespace = vars(module)
            for name, value in list(namespace.items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[name] = hit[1]
        self._originals.clear()


def _resolve(spec: str):
    module_name, qualname = spec.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _modules() -> List[types.ModuleType]:
    return [m for m in list(sys.modules.values()) if isinstance(m, types.ModuleType)]


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a bare call (median of 5)."""

    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        samples.append((time.perf_counter() - t0 - bare) / calls)
    return max(0.0, statistics.median(samples))


def import_seconds(importtime_stderr: str) -> float:
    """Total import time from ``python -X importtime`` output: the sum of
    the cumulative times of top-level imports (nested ones are indented)."""
    total_us = 0
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the header line
        name = fields[2]
        if name.startswith(" ") and not name.startswith("  "):
            total_us += int(fields[1])
    return total_us / 1e6
