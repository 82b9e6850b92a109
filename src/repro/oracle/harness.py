"""Differential checks: fast path ≡ slow path, plus policy invariants.

Seven check classes, mirroring the fast paths the repo depends on (each
identified by the ``check`` field of a :class:`Divergence`):

* ``trace-*`` — the affine trace compiler against the pure interpreter
  (element-for-element pages, directive events, truncation), plus the
  frontend parse → unparse → parse round-trip;
* ``metric-*`` — the fast CD replay (closed form, fault to fault
  under LOCKs, ceilings included), the fault-to-fault PFF, OPT and
  FIFO replays and the one-pass LRU/WS analyzers against the
  event-driven simulator, and the pruned WS minimum-ST search against
  the same search rule run on point queries;
* ``invariant-*`` — policy laws that hold independently of any fast
  path: the LRU inclusion property across memory sizes, WS window
  contents, CD's LRU-prefix residency, and CD lock bookkeeping
  (balance at exit, PJ-ordered forced release);
* ``event-*`` — conservation laws over the event-driven simulator's
  observability stream, the one source of paging events: fault events
  equal the PF count, space-time is reconstructible from resident-set
  samples, lock pins balance, and residency never exceeds a memory
  ceiling;
* ``lint-*`` — static-checker agreement: generated programs with
  Algorithm-1/2 plans lint clean at error level, every dynamic
  directive event traces back to a static directive, and a clean
  static lock balance (rule CD103) implies an exactly balanced
  dynamic pin ledger;
* ``pool-*`` — the load-controlled multiprogramming pool: its frame
  ledger rebuilt from the event stream, and each process's replay;
* ``static-*`` — the trace-free locality engine: its run-structured
  string, the element-wise-verified run journal, the weighted LRU/WS
  analyzers, the CD structure walk, both minimum-space-time searches
  and the affine-recovery rewrite against the exact references.

All comparisons are exact — both sides compute in integer or identical
float arithmetic, so any difference at all is a real divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.directives import check_instrumented_roundtrip, instrument_program
from repro.frontend import ast
from repro.frontend.errors import FrontendError
from repro.frontend.parser import parse_source
from repro.frontend.unparse import unparse_program
from repro.tracegen.events import DirectiveKind, ReferenceTrace
from repro.tracegen.interpreter import generate_trace
from repro.vm import fastsim
from repro.vm.analyzers import LRUSweep, WSSweep, previous_occurrences
from repro.vm.metrics import SimulationResult
from repro.vm.policies import (
    CDConfig,
    CDPolicy,
    FIFOPolicy,
    LRUPolicy,
    OPTPolicy,
    PFFPolicy,
    WorkingSetPolicy,
)
from repro.vm.simulator import simulate

__all__ = [
    "Divergence",
    "check_case",
    "check_lint",
    "check_program",
    "check_static",
]

#: reference cap for generated programs — also exercises truncation
#: equivalence when a case overruns it
_MAX_REFERENCES = 200_000


@dataclass
class Divergence:
    """One observed disagreement between a fast path and its reference."""

    check: str  # e.g. "trace-pages", "metric-cd", "invariant-ws"
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.check}] {self.detail}"


def _result_fields(result) -> Tuple:
    return (
        result.page_faults,
        result.references,
        result.mem_average,
        result.space_time,
    )


def _cd_fields(result) -> Tuple:
    return _result_fields(result) + (
        result.swaps,
        result.denied_requests,
        result.lock_releases,
    )


def _cd_samples(trace: ReferenceTrace) -> List[CDConfig]:
    """CD configurations the fast replay must match: LOCKs honored at
    PI caps {None, 1, 2}, with and without a ceiling; the ceilings 1, 3
    and ⌊V/2⌋; a floor above the ceiling; LOCKs ignored."""
    half = max(1, trace.total_pages // 2)
    return [
        *(
            CDConfig(pi_cap=cap, memory_limit=limit)
            for cap in (None, 1, 2)
            for limit in (None, 3)
        ),
        CDConfig(memory_limit=1),
        CDConfig(pi_cap=2, memory_limit=half),
        CDConfig(min_allocation=3),
        CDConfig(min_allocation=5, memory_limit=3),
        CDConfig(honor_locks=False),
        CDConfig(honor_locks=False, memory_limit=half),
    ]


# -- check class 1: trace equivalence ----------------------------------------


def _trace_pair(program, plan, max_references):
    """(slow, fast) traces, or (exception, exception) when both raise."""
    outcomes = []
    for compiled in (False, True):
        try:
            trace = generate_trace(
                program,
                plan=plan,
                compile_nests=compiled,
                max_references=max_references,
            )
            outcomes.append(("ok", trace))
        except Exception as err:  # any raise is data: the paths must agree
            outcomes.append(("error", f"{type(err).__name__}: {err}"))
    return outcomes


def check_trace_equivalence(
    program: ast.Program, plan, label: str, max_references: int = _MAX_REFERENCES
) -> Tuple[List[Divergence], Optional[ReferenceTrace]]:
    """Compiled trace ≡ interpreted trace, element for element."""
    out: List[Divergence] = []
    (skind, slow), (fkind, fast) = _trace_pair(program, plan, max_references)
    if skind != fkind:
        out.append(
            Divergence(
                "trace-outcome",
                f"{label}: interpreter {skind} ({slow if skind == 'error' else ''})"
                f" but compiler {fkind} ({fast if fkind == 'error' else ''})",
            )
        )
        return out, None
    if skind == "error":
        if slow != fast:
            out.append(
                Divergence(
                    "trace-outcome",
                    f"{label}: error mismatch: {slow!r} vs {fast!r}",
                )
            )
        return out, None
    if slow.truncated != fast.truncated:
        out.append(
            Divergence(
                "trace-truncation",
                f"{label}: truncated {slow.truncated} vs {fast.truncated}",
            )
        )
    if len(slow.pages) != len(fast.pages):
        out.append(
            Divergence(
                "trace-pages",
                f"{label}: length {len(slow.pages)} vs {len(fast.pages)}",
            )
        )
    else:
        diff = np.nonzero(slow.pages != fast.pages)[0]
        if len(diff):
            i = int(diff[0])
            out.append(
                Divergence(
                    "trace-pages",
                    f"{label}: first page mismatch at {i}: "
                    f"{int(slow.pages[i])} vs {int(fast.pages[i])} "
                    f"({len(diff)} total)",
                )
            )
    if slow.array_pages != fast.array_pages:
        out.append(Divergence("trace-layout", f"{label}: array layouts differ"))
    if len(slow.directives) != len(fast.directives):
        out.append(
            Divergence(
                "trace-directives",
                f"{label}: {len(slow.directives)} vs "
                f"{len(fast.directives)} directive events",
            )
        )
    else:
        for i, (a, b) in enumerate(zip(slow.directives, fast.directives)):
            if (
                a.position != b.position
                or a.kind is not b.kind
                or a.site != b.site
                or tuple(a.requests) != tuple(b.requests)
                or a.lock_pages != b.lock_pages
            ):
                out.append(
                    Divergence(
                        "trace-directives",
                        f"{label}: directive {i} differs: {a} vs {b}",
                    )
                )
                break
    return out, (slow if skind == "ok" else None)


def check_roundtrip(program: ast.Program) -> List[Divergence]:
    """unparse → parse → unparse must be a fixed point, and the
    re-parsed program must produce the identical trace."""
    text1 = unparse_program(program)
    try:
        reparsed = parse_source(text1)
    except FrontendError as err:
        return [Divergence("trace-roundtrip", f"unparse output fails to parse: {err}")]
    text2 = unparse_program(reparsed)
    if text1 != text2:
        return [Divergence("trace-roundtrip", "unparse/parse not a fixed point")]
    t1 = generate_trace(program, compile_nests=False)
    t2 = generate_trace(reparsed, compile_nests=False)
    if len(t1.pages) != len(t2.pages) or (t1.pages != t2.pages).any():
        return [
            Divergence(
                "trace-roundtrip", "re-parsed program produces a different trace"
            )
        ]
    return []


# -- check class 2: metric equivalence ---------------------------------------


def _frames_samples(v: int) -> List[int]:
    return sorted({1, 2, 3, max(1, v // 2), max(1, v - 1), v, v + 2})


def _tau_samples(n: int) -> List[int]:
    return sorted({1, 2, 5, 13, max(1, n // 3), max(1, n // 2), n + 5})


def _pff_samples(n: int) -> List[int]:
    """T=1 (every fault shrinks), a mid threshold, and one past the
    string (no fault ever shrinks after the first)."""
    return sorted({1, max(2, n // 8), n + 1})


def _opt_samples(v: int) -> List[int]:
    return sorted({1, max(2, v // 2), v})


def _fifo_samples(v: int) -> List[int]:
    return sorted({1, 3, max(1, v // 2)})


def ws_min_by_point_queries(ws, grid: List[int]) -> SimulationResult:
    """The minimum-ST search rule run on point queries alone: every
    window of ``grid``, the first argmin, then the first strictly better
    window of the refine range between its grid neighbours."""
    results = [ws.result(tau) for tau in grid]
    index = min(range(len(grid)), key=lambda i: results[i].space_time)
    best = results[index]
    tau = grid[index]
    lo = grid[index - 1] if index > 0 else max(1, tau // 2)
    hi = grid[index + 1] if index + 1 < len(grid) else tau * 2
    for refined in range(lo, hi + 1, max(1, (hi - lo) // 32)):
        result = ws.result(refined)
        if result.space_time < best.space_time:
            best = result
    return best


def check_metrics(trace: ReferenceTrace, label: str) -> List[Divergence]:
    """Analyzers and the fast replays (closed-form CD, fault-to-fault
    PFF, OPT and FIFO) vs the event-driven simulator; the pruned WS
    minimum search vs the same rule run on point queries."""
    out: List[Divergence] = []
    n = len(trace.pages)
    lru = LRUSweep(trace)
    for frames in _frames_samples(max(lru.max_useful_frames, 1)):
        fast = lru.result(frames)
        slow = simulate(trace, LRUPolicy(frames=frames))
        if _result_fields(fast) != _result_fields(slow):
            out.append(
                Divergence(
                    "metric-lru",
                    f"{label}: frames={frames}: sweep "
                    f"{_result_fields(fast)} vs simulator {_result_fields(slow)}",
                )
            )
    ws = WSSweep(trace)
    for tau in _tau_samples(max(n, 1)):
        fast = ws.result(tau)
        slow = simulate(trace, WorkingSetPolicy(tau=tau))
        if _result_fields(fast) != _result_fields(slow):
            out.append(
                Divergence(
                    "metric-ws",
                    f"{label}: tau={tau}: sweep "
                    f"{_result_fields(fast)} vs simulator {_result_fields(slow)}",
                )
            )
    fast = ws.min_space_time()
    slow = ws_min_by_point_queries(ws, ws.default_taus())
    if _result_fields(fast) != _result_fields(slow) or fast.parameter != slow.parameter:
        out.append(
            Divergence(
                "metric-ws-min",
                f"{label}: search {_result_fields(fast)} @ {fast.parameter} "
                f"vs point queries {_result_fields(slow)} @ {slow.parameter}",
            )
        )
    for config in _cd_samples(trace):
        fast = fastsim.simulate_cd_fast(trace, config, distances=lru._distances)
        slow = simulate(trace, CDPolicy(config))
        if fast != slow:
            out.append(
                Divergence(
                    "metric-cd",
                    f"{label}: {config}: fast "
                    f"{_cd_fields(fast)} vs simulator {_cd_fields(slow)}",
                )
            )
    prev = previous_occurrences(trace)
    for threshold in _pff_samples(n):
        fast = fastsim.simulate_pff_fast(trace, threshold, prev=prev)
        slow = simulate(trace, PFFPolicy(threshold=threshold))
        if _result_fields(fast) != _result_fields(slow):
            out.append(
                Divergence(
                    "metric-pff",
                    f"{label}: T={threshold}: fast "
                    f"{_result_fields(fast)} vs simulator {_result_fields(slow)}",
                )
            )
    for frames in _opt_samples(max(lru.max_useful_frames, 1)):
        fast = fastsim.simulate_opt_fast(trace, frames)
        slow = simulate(trace, OPTPolicy(frames=frames))
        if _result_fields(fast) != _result_fields(slow):
            out.append(
                Divergence(
                    "metric-opt",
                    f"{label}: frames={frames}: fast "
                    f"{_result_fields(fast)} vs simulator {_result_fields(slow)}",
                )
            )
    for frames in _fifo_samples(max(1, trace.distinct_pages)):
        fast = fastsim.simulate_fifo_fast(trace, frames)
        slow = simulate(trace, FIFOPolicy(frames=frames))
        if _result_fields(fast) != _result_fields(slow):
            out.append(
                Divergence(
                    "metric-fifo",
                    f"{label}: frames={frames}: fast "
                    f"{_result_fields(fast)} vs simulator {_result_fields(slow)}",
                )
            )
    return out


# -- check class 3: policy invariants ----------------------------------------


def _drive(trace: ReferenceTrace, policy, with_directives: bool = True):
    """Step a policy through the trace, yielding it after each access."""
    policy.reset()
    directives = trace.directives if with_directives else []
    event_index = 0
    for time in range(len(trace.pages)):
        while (
            event_index < len(directives)
            and directives[event_index].position <= time
        ):
            policy.on_directive(directives[event_index])
            event_index += 1
        fault = policy.access(int(trace.pages[time]), time)
        yield time, fault, policy
    while event_index < len(directives):
        policy.on_directive(directives[event_index])
        event_index += 1


def check_lru_inclusion(trace: ReferenceTrace, label: str) -> List[Divergence]:
    """The stack property: LRU(m) resident ⊆ LRU(m+1) resident at every
    instant, so faults at m+1 are a subset of faults at m."""
    out: List[Divergence] = []
    v = len(set(trace.pages.tolist()))
    for m in sorted({2, max(2, v // 2)}):
        small = LRUPolicy(frames=m)
        big = LRUPolicy(frames=m + 1)
        stepper = zip(_drive(trace, small), _drive(trace, big))
        for (t, fault_s, _), (_, fault_b, _) in stepper:
            if fault_b and not fault_s:
                out.append(
                    Divergence(
                        "invariant-lru",
                        f"{label}: t={t}: fault at {m + 1} frames "
                        f"but not at {m} (inclusion violated)",
                    )
                )
                return out
            if not set(small._resident).issubset(big._resident):
                out.append(
                    Divergence(
                        "invariant-lru",
                        f"{label}: t={t}: LRU({m}) resident set not "
                        f"contained in LRU({m + 1})",
                    )
                )
                return out
    return out


def check_ws_window(trace: ReferenceTrace, label: str) -> List[Divergence]:
    """WS resident set == exact contents of the trailing-τ window."""
    out: List[Divergence] = []
    pages = trace.pages.tolist()
    for tau in (3, 17):
        policy = WorkingSetPolicy(tau=tau)
        window_count: Dict[int, int] = {}
        for t, fault, _ in _drive(trace, policy, with_directives=False):
            page = pages[t]
            window_count[page] = window_count.get(page, 0) + 1
            if t >= tau:
                old = pages[t - tau]
                window_count[old] -= 1
                if not window_count[old]:
                    del window_count[old]
            expected_fault = page not in set(pages[max(0, t - tau) : t])
            if fault != expected_fault:
                out.append(
                    Divergence(
                        "invariant-ws",
                        f"{label}: tau={tau} t={t}: fault={fault}, "
                        f"window says {expected_fault}",
                    )
                )
                return out
            if set(policy._last_ref) != set(window_count):
                out.append(
                    Divergence(
                        "invariant-ws",
                        f"{label}: tau={tau} t={t}: resident set is not "
                        "W(t, tau)",
                    )
                )
                return out
    return out


def check_cd_lru_prefix(trace: ReferenceTrace, label: str) -> List[Divergence]:
    """Lock-free, no-ceiling CD must hold exactly the top-r of the
    global LRU stack — the law the closed-form replay is built on."""
    if any(d.kind is DirectiveKind.LOCK for d in trace.directives):
        return []
    out: List[Divergence] = []
    policy = CDPolicy(CDConfig())
    stack: List[int] = []  # LRU order, most recent last
    for t, _fault, _ in _drive(trace, policy):
        page = int(trace.pages[t])
        if page in stack:
            stack.remove(page)
        stack.append(page)
        r = policy.resident_size
        if set(policy._resident) != set(stack[-r:]):
            out.append(
                Divergence(
                    "invariant-cd",
                    f"{label}: t={t}: CD resident set is not the "
                    f"top-{r} of the LRU stack",
                )
            )
            return out
        if r > policy.allocation_target:
            out.append(
                Divergence(
                    "invariant-cd",
                    f"{label}: t={t}: residency {r} exceeds target "
                    f"{policy.allocation_target}",
                )
            )
            return out
    return out


class _AuditedCD(CDPolicy):
    """CD with forced lock releases audited for PJ order."""

    def __init__(self, config):
        super().__init__(config)
        self.release_violations: List[str] = []

    def _release_highest_pj_site(self) -> bool:
        if self._site_pj:
            chosen = max(self._site_pj, key=lambda s: (self._site_pj[s], s))
            top = max(self._site_pj.values())
            if self._site_pj[chosen] != top:  # pragma: no cover - safety net
                self.release_violations.append(
                    f"released PJ {self._site_pj[chosen]} while PJ {top} active"
                )
        before = dict(self._site_pj)
        released = super()._release_highest_pj_site()
        if released:
            gone = set(before) - set(self._site_pj)
            for site in gone:
                if before[site] != max(before.values()):
                    self.release_violations.append(
                        f"forced release of site {site} (PJ {before[site]}) "
                        f"before PJ {max(before.values())}"
                    )
        return released


def check_cd_locks(trace: ReferenceTrace, label: str) -> List[Divergence]:
    """Lock bookkeeping: pins balance to zero at program exit; every
    UNLOCK covers pages some LOCK actually pinned; under memory
    pressure forced releases go highest-PJ-first."""
    out: List[Divergence] = []
    lock_events = [d for d in trace.directives if d.kind is DirectiveKind.LOCK]
    if not lock_events:
        return out
    positions = [d.position for d in trace.directives]
    if positions != sorted(positions):
        out.append(
            Divergence("invariant-cd", f"{label}: directive positions not monotone")
        )
    ever_locked = set()
    for d in lock_events:
        ever_locked.update(d.lock_pages)
    for d in trace.directives:
        if d.kind is DirectiveKind.UNLOCK and not set(d.lock_pages) <= ever_locked:
            out.append(
                Divergence(
                    "invariant-cd",
                    f"{label}: UNLOCK at {d.position} names never-locked pages",
                )
            )
    total = trace.total_pages
    for d in lock_events:
        if any(p < 0 or p >= total for p in d.lock_pages):
            out.append(
                Divergence(
                    "invariant-cd",
                    f"{label}: LOCK at {d.position} pins an out-of-range page",
                )
            )
    policy = CDPolicy(CDConfig(honor_locks=True))
    simulate(trace, policy)
    if policy.locked_page_count != 0:
        out.append(
            Divergence(
                "invariant-cd",
                f"{label}: {policy.locked_page_count} pages still pinned "
                "after the final UNLOCK (lock/unlock imbalance)",
            )
        )
    # Pressure run: a tiny ceiling forces PJ-ordered pin releases.
    audited = _AuditedCD(CDConfig(honor_locks=True, memory_limit=2))
    simulate(trace, audited)
    for violation in audited.release_violations:
        out.append(Divergence("invariant-cd", f"{label}: {violation}"))
    return out


# -- check class 4: event-stream conservation ---------------------------------


def check_event_conservation(
    trace: ReferenceTrace, label: str
) -> List[Divergence]:
    """Conservation laws the event stream must satisfy exactly.

    With ``sample_interval=1`` the stream carries one resident-set
    sample per reference, so the simulator's aggregate metrics are
    *redundant* with the events — any bookkeeping drift between the
    two shows up as an inequality here.
    """
    from repro.obs import RingBufferSink, Tracer
    from repro.obs.events import (
        AllocateGrant,
        Fault,
        ForcedRelease,
        Lock,
        ResidentSample,
        Unlock,
    )

    out: List[Divergence] = []
    for config in (CDConfig(), CDConfig(memory_limit=3)):
        ring = RingBufferSink()
        result = simulate(
            trace, CDPolicy(config), tracer=Tracer(ring), sample_interval=1
        )
        events = ring.events
        faults = [e for e in events if isinstance(e, Fault)]
        tag = f"{label}/{config.label()}"
        if len(faults) != result.page_faults:
            out.append(
                Divergence(
                    "event-faults",
                    f"{tag}: {len(faults)} Fault events but "
                    f"PF={result.page_faults}",
                )
            )
        reconstructed = sum(
            e.resident for e in events if isinstance(e, ResidentSample)
        ) + result.fault_service * sum(e.resident for e in faults)
        if reconstructed != result.space_time:
            out.append(
                Divergence(
                    "event-st",
                    f"{tag}: ST from events {reconstructed} != "
                    f"simulator ST {result.space_time}",
                )
            )
        pinned = sum(len(e.pages) for e in events if isinstance(e, Lock))
        unpinned = sum(
            len(e.pages)
            for e in events
            if isinstance(e, (Unlock, ForcedRelease))
        )
        if pinned != unpinned:
            out.append(
                Divergence(
                    "event-locks",
                    f"{tag}: {pinned} pages pinned but {unpinned} "
                    "released (ledger imbalance)",
                )
            )
        limit = config.memory_limit
        if limit is not None:
            over = [
                e
                for e in events
                if isinstance(e, (Fault, ResidentSample)) and e.resident > limit
            ]
            over_grant = [
                e
                for e in events
                if isinstance(e, AllocateGrant) and e.pages > limit
            ]
            if over or over_grant:
                out.append(
                    Divergence(
                        "event-grants",
                        f"{tag}: residency/grant exceeds the memory "
                        f"limit {limit} ({len(over)} samples, "
                        f"{len(over_grant)} grants)",
                    )
                )
    return out


# -- check class 5: static checker agreement ----------------------------------


def check_lint(
    program: ast.Program, plan, trace: Optional[ReferenceTrace], label: str
) -> List[Divergence]:
    """The static checker must agree with the dynamic world.

    * ``lint-clean`` — a generated program with a plan derived by
      Algorithms 1/2 must carry zero error-level diagnostics (the rules
      re-derive each invariant independently of the insertion code);
    * ``lint-directives`` — every directive *event* in the trace must
      trace back to a directive the plan declares statically, and every
      dynamically pinned page must belong to an array the static LOCK
      names;
    * ``lint-ledger`` — when the static lock-balance rule (CD103) is
      clean, the dynamic pin ledger from the observability layer must
      balance exactly (pages pinned == pages released).
    """
    from repro.staticcheck import Severity, lint_program

    out: List[Divergence] = []
    diagnostics = lint_program(program, plan=plan)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    for diag in errors:
        out.append(
            Divergence(
                "lint-clean",
                f"{label}: {diag.rule} [{diag.name}] line "
                f"{diag.span.line}: {diag.message}",
            )
        )
    if trace is None:
        return out
    out.extend(_check_lint_directive_agreement(plan, trace, label))
    cd103_clean = not any(d.rule == "CD103" for d in errors)
    if cd103_clean and any(
        d.kind is DirectiveKind.LOCK for d in trace.directives
    ):
        out.extend(_check_lint_ledger(trace, label))
    return out


def _check_lint_directive_agreement(
    plan, trace: ReferenceTrace, label: str
) -> List[Divergence]:
    out: List[Divergence] = []

    def array_page_set(arrays) -> set:
        pages = set()
        for name in arrays:
            first, count = trace.array_pages.get(name, (0, 0))
            pages.update(range(first, first + count))
        return pages

    for event in trace.directives:
        if event.kind is DirectiveKind.LOCK:
            static = plan.locks_before.get(event.site)
            if static is None:
                out.append(
                    Divergence(
                        "lint-directives",
                        f"{label}: dynamic LOCK at position "
                        f"{event.position} has no static LOCK before loop "
                        f"{event.site}",
                    )
                )
                continue
            allowed = array_page_set(static.arrays)
            stray = set(event.lock_pages) - allowed
            if stray:
                out.append(
                    Divergence(
                        "lint-directives",
                        f"{label}: LOCK at loop {event.site} pins pages "
                        f"{sorted(stray)} outside the statically named "
                        f"arrays {list(static.arrays)}",
                    )
                )
        elif event.kind is DirectiveKind.UNLOCK:
            static = plan.unlocks_after.get(event.site)
            if static is None:
                out.append(
                    Divergence(
                        "lint-directives",
                        f"{label}: dynamic UNLOCK at position "
                        f"{event.position} has no static UNLOCK after loop "
                        f"{event.site}",
                    )
                )
        elif event.kind is DirectiveKind.ALLOCATE:
            if event.site not in plan.allocates:
                out.append(
                    Divergence(
                        "lint-directives",
                        f"{label}: dynamic ALLOCATE at position "
                        f"{event.position} has no static ALLOCATE before "
                        f"loop {event.site}",
                    )
                )
    return out


def _check_lint_ledger(trace: ReferenceTrace, label: str) -> List[Divergence]:
    from repro.obs import RingBufferSink, Tracer
    from repro.obs.events import ForcedRelease, Lock, Unlock

    out: List[Divergence] = []
    for config in (CDConfig(honor_locks=True), CDConfig(memory_limit=3)):
        ring = RingBufferSink()
        simulate(trace, CDPolicy(config), tracer=Tracer(ring))
        pinned = sum(
            len(e.pages) for e in ring.events if isinstance(e, Lock)
        )
        released = sum(
            len(e.pages)
            for e in ring.events
            if isinstance(e, (Unlock, ForcedRelease))
        )
        if pinned != released:
            out.append(
                Divergence(
                    "lint-ledger",
                    f"{label}/{config.label()}: static lock balance is "
                    f"clean but the dynamic pin ledger pinned {pinned} "
                    f"page(s) and released {released}",
                )
            )
    return out


# -- check class: multiprogramming pool conservation -------------------------


def check_pool_conservation(
    trace: ReferenceTrace, label: str
) -> List[Divergence]:
    """The ``pool-*`` battery: load-controlled multiprogramming obeys
    its frame ledger and replays each process exactly.

    Four copies of the program (full-length and truncated, so CD
    preemption has a smaller newcomer to admit) run through
    :class:`~repro.vm.multiprog.LoadControlledPool` under knee and CD
    admission.  The emitted Admit/Suspend/Resume/Depart stream is then
    replayed independently and checked:

    * ``pool-frames``     — the ledger from events never leaves
      ``[0, total]`` and drains to zero when every job departs;
    * ``pool-admission``  — no admission ever exceeds the free pool;
    * ``pool-suspended``  — a suspended process holds zero frames
      until it is re-admitted, and releases exactly what it held;
    * ``pool-faults``     — a never-suspended process's fault count
      equals the single-process LRU replay at its granted allocation.
    """
    from repro.obs import RingBufferSink, Tracer
    from repro.obs.events import Admit, Depart, Resume, Suspend
    from repro.vm.multiprog import JobProfile, LoadControlledPool

    out: List[Divergence] = []
    if not len(trace.pages):
        return out
    full = JobProfile.from_trace(trace, name="full", max_refs=1500)
    short = JobProfile.from_trace(
        trace, name="short", max_refs=max(1, full.length // 3)
    )
    total = max(full.cd_pref_frames, full.knee_frames, 2)
    arrivals = [(0, full), (1, short), (2, full), (3, short)]
    for policy in ("knee", "cd"):
        ring = RingBufferSink()
        result = LoadControlledPool(
            arrivals,
            total_frames=total,
            policy=policy,
            tracer=Tracer(ring),
            horizon=None,
        ).run()
        tag = f"{label}/pool-{policy}"
        for violation in result.violations:
            out.append(Divergence("pool-frames", f"{tag}: {violation}"))
        if result.completed != len(arrivals):
            out.append(
                Divergence(
                    "pool-frames",
                    f"{tag}: only {result.completed}/{len(arrivals)} "
                    "jobs completed with no horizon",
                )
            )
        used = 0
        held: dict = {}
        suspended: set = set()
        ever_suspended: set = set()
        for event in ring.events:
            if isinstance(event, Admit):
                if event.frames > total - used:
                    out.append(
                        Divergence(
                            "pool-admission",
                            f"{tag}: admitted {event.proc} with "
                            f"{event.frames} frame(s) but only "
                            f"{total - used} free",
                        )
                    )
                used += event.frames
                held[event.proc] = event.frames
                suspended.discard(event.proc)
            elif isinstance(event, Suspend) and event.proc in held:
                if event.frames != held[event.proc]:
                    out.append(
                        Divergence(
                            "pool-suspended",
                            f"{tag}: {event.proc} released "
                            f"{event.frames} but held {held[event.proc]}",
                        )
                    )
                used -= event.frames
                held[event.proc] = 0
                suspended.add(event.proc)
                ever_suspended.add(event.proc)
            elif isinstance(event, Resume):
                if event.proc not in suspended:
                    out.append(
                        Divergence(
                            "pool-suspended",
                            f"{tag}: {event.proc} resumed but was "
                            "not suspended",
                        )
                    )
            elif isinstance(event, Depart):
                if event.proc in suspended:
                    out.append(
                        Divergence(
                            "pool-suspended",
                            f"{tag}: {event.proc} departed while "
                            "suspended",
                        )
                    )
                used -= event.frames
                held.pop(event.proc, None)
            if not 0 <= used <= total:
                out.append(
                    Divergence(
                        "pool-frames",
                        f"{tag}: ledger hit {used} (pool is {total}) "
                        f"after {event.kind} of {event.proc}",
                    )
                )
                break
        else:
            if used != 0:
                out.append(
                    Divergence(
                        "pool-frames",
                        f"{tag}: {used} frame(s) leaked after all "
                        "departures",
                    )
                )
        profiles = {"full": full, "short": short}
        for record in result.records:
            if record.suspensions or record.finish_time is None:
                continue
            profile = profiles[record.program]
            expected = profile.faults_at(record.allocation)
            if record.faults != expected:
                out.append(
                    Divergence(
                        "pool-faults",
                        f"{tag}: {record.name} saw {record.faults} "
                        f"fault(s) at {record.allocation} frame(s); "
                        f"single-process replay says {expected}",
                    )
                )
            if record.references != profile.length:
                out.append(
                    Divergence(
                        "pool-faults",
                        f"{tag}: {record.name} executed "
                        f"{record.references}/{profile.length} refs",
                    )
                )
    return out


# -- check class: static (trace-free) engine equivalence ----------------------


def check_static(
    program: ast.Program,
    plan,
    trace: Optional[ReferenceTrace],
    label: str,
    max_references: int = _MAX_REFERENCES,
) -> List[Divergence]:
    """The ``static-*`` battery: the closed-form static engine against
    the exact interpreter/analyzers, integer for integer — with no flat
    page string ever materialized on the static side.

    * ``static-string``   — :func:`generate_static_string` ≡ the
      interpreter's trace (length, truncation, directives, layout,
      every kept reference, and the full string reconstructed from the
      run journal; matching errors when the interpreter raises);
    * ``static-runs``     — the journal re-verified element-wise
      against the exact pages and :meth:`Surrogate.from_parts` ≡ the
      flat-construction surrogate, weights accounted;
    * ``static-lru`` / ``static-ws`` — the weighted analyzers over the
      parts-built surrogate ≡ the exact sweeps at the shared samples;
    * ``static-cd``       — the structure-walk CD replay over the
      virtual string ≡ the closed-form fast path wherever it applies;
    * ``static-min-st``   — both minimum-space-time searches agree,
      chosen parameter included;
    * ``static-recovery`` — when the FORAY-GEN pass rewrites anything,
      the rewritten program compiles to the identical reference trace
      (pages, directives, truncation) — recovery soundness.
    """
    from repro.analysis.staticloc import generate_static_string
    from repro.analysis.symbolic import (
        Surrogate,
        SymbolicLRU,
        SymbolicWS,
        simulate_cd_symbolic,
    )
    from repro.analysis.symbolic.runtrace import RunTrace
    from repro.staticcheck.recovery import recover_program

    out: List[Divergence] = []
    try:
        string = generate_static_string(
            program, plan=plan, max_references=max_references
        )
    except Exception as err:
        string = None
        static_error = f"{type(err).__name__}: {err}"
    if trace is None:
        # The interpreter raised; the static tier must raise identically.
        try:
            generate_trace(
                program,
                plan=plan,
                compile_nests=False,
                max_references=max_references,
            )
            return out  # caller-side mismatch, already reported
        except Exception as err:
            slow_error = f"{type(err).__name__}: {err}"
        if string is not None:
            out.append(
                Divergence(
                    "static-string",
                    f"{label}: interpreter raised {slow_error!r} but the "
                    "static tier produced a string",
                )
            )
        elif static_error != slow_error:
            out.append(
                Divergence(
                    "static-string",
                    f"{label}: error mismatch: interpreter {slow_error!r} "
                    f"vs static {static_error!r}",
                )
            )
        return out
    if string is None:
        out.append(
            Divergence(
                "static-string",
                f"{label}: static tier raised {static_error!r} but the "
                "interpreter produced a trace",
            )
        )
        return out

    n = len(trace.pages)
    if string.truncated != trace.truncated:
        out.append(
            Divergence(
                "static-string",
                f"{label}: truncated {trace.truncated} vs {string.truncated}",
            )
        )
    if string.n_references != n or len(string.pages) != n:
        out.append(
            Divergence(
                "static-string",
                f"{label}: length {n} vs {string.n_references}",
            )
        )
        return out  # everything below compares different strings
    if string.array_pages != trace.array_pages:
        out.append(Divergence("static-string", f"{label}: array layouts differ"))
    if [
        (d.position, d.kind, d.site, tuple(d.requests), d.lock_pages)
        for d in string.directives
    ] != [
        (d.position, d.kind, d.site, tuple(d.requests), d.lock_pages)
        for d in trace.directives
    ]:
        out.append(
            Divergence("static-string", f"{label}: directive events differ")
        )
    kept_pos = string.kept_pos
    if len(kept_pos) and (
        kept_pos[0] < 0
        or kept_pos[-1] >= n
        or (np.diff(kept_pos) <= 0).any()
    ):
        out.append(
            Divergence(
                "static-string", f"{label}: kept positions not sorted/bounded"
            )
        )
        return out
    mismatch = np.nonzero(string.kept_pages != trace.pages[kept_pos])[0]
    if len(mismatch):
        i = int(mismatch[0])
        out.append(
            Divergence(
                "static-string",
                f"{label}: kept page mismatch at position "
                f"{int(kept_pos[i])}: exact {int(trace.pages[kept_pos[i]])} "
                f"vs static {int(string.kept_pages[i])} "
                f"({len(mismatch)} total)",
            )
        )
        return out

    # -- the run journal, re-verified against the exact pages ----------------
    boundaries = sorted({d.position for d in string.directives})
    before_runs = len(out)
    covered = np.zeros(n, dtype=bool)
    covered[kept_pos] = True
    prev_end = 0
    for r in string.runs:
        end = r.start + r.block * r.repeats
        if r.block < 1 or r.repeats < 2 or r.start < 0 or end > n:
            out.append(
                Divergence(
                    "static-runs", f"{label}: malformed run {r} (n={n})"
                )
            )
            break
        if r.start < prev_end:
            out.append(
                Divergence(
                    "static-runs",
                    f"{label}: run {r} overlaps the previous run "
                    f"(ends at {prev_end})",
                )
            )
            break
        prev_end = end
        body = trace.pages[r.start : end - r.block]
        shifted = trace.pages[r.start + r.block : end]
        if len(body) != len(shifted) or (body != shifted).any():
            out.append(
                Divergence(
                    "static-runs",
                    f"{label}: run {r} is not {r.block}-periodic in the "
                    "exact page string",
                )
            )
            break
        straddled = [b for b in boundaries if r.start < b < end]
        if straddled:
            out.append(
                Divergence(
                    "static-runs",
                    f"{label}: run {r} straddles directive position(s) "
                    f"{straddled}",
                )
            )
            break
        covered[r.start : end] = True
    if len(out) > before_runs:
        return out
    if not covered.all():
        hole = int(np.nonzero(~covered)[0][0])
        out.append(
            Divergence(
                "static-runs",
                f"{label}: reference {hole} neither kept nor inside a run",
            )
        )
        return out
    surrogate = string.surrogate()
    if not surrogate.verify_weights():
        out.append(
            Divergence(
                "static-runs",
                f"{label}: kept weights sum to "
                f"{int(surrogate.weights.sum())}, not {n}",
            )
        )
    # from_parts must equal the flat construction on the same journal
    reference = Surrogate(trace.pages, string.runs)
    for attr in ("kept_pos", "kept_pages", "weights"):
        a = getattr(surrogate, attr)
        b = getattr(reference, attr)
        if len(a) != len(b) or (np.asarray(a) != np.asarray(b)).any():
            out.append(
                Divergence(
                    "static-runs",
                    f"{label}: from_parts surrogate differs from flat "
                    f"construction in {attr}",
                )
            )
            return out

    # -- weighted analyzers vs the exact sweeps ------------------------------
    exact_lru = LRUSweep(trace)
    static_lru = SymbolicLRU(surrogate, program=trace.program_name)
    for frames in _frames_samples(max(exact_lru.max_useful_frames, 1)):
        fast = static_lru.result(frames)
        slow = exact_lru.result(frames)
        if _result_fields(fast) != _result_fields(slow):
            out.append(
                Divergence(
                    "static-lru",
                    f"{label}: frames={frames}: static "
                    f"{_result_fields(fast)} vs sweep {_result_fields(slow)}",
                )
            )
    exact_ws = WSSweep(trace)
    static_ws = SymbolicWS(surrogate, program=trace.program_name)
    for tau in _tau_samples(max(n, 1)):
        fast = static_ws.result(tau)
        slow = exact_ws.result(tau)
        if _result_fields(fast) != _result_fields(slow):
            out.append(
                Divergence(
                    "static-ws",
                    f"{label}: tau={tau}: static "
                    f"{_result_fields(fast)} vs sweep {_result_fields(slow)}",
                )
            )

    # -- CD structure walk over the virtual string vs the fast path ----------
    runtrace = RunTrace(string, string.runs)
    for config in _cd_samples(trace):
        if config.honor_locks and trace.directive_table.has_locks:
            continue  # LOCK pinning replays the exact trace
        slow = fastsim.simulate_cd_fast(
            trace, config, distances=exact_lru._distances
        )
        try:
            fast = simulate_cd_symbolic(
                runtrace,
                config,
                surrogate=surrogate,
                kept_distances=static_lru._distances,
            )
        except ValueError as err:
            out.append(
                Divergence(
                    "static-cd",
                    f"{label}: {config}: walk rejected a "
                    f"static-built journal: {err}",
                )
            )
            continue
        if _cd_fields(fast) != _cd_fields(slow):
            out.append(
                Divergence(
                    "static-cd",
                    f"{label}: {config}: static "
                    f"{_cd_fields(fast)} vs fast {_cd_fields(slow)}",
                )
            )

    # -- full minimum-ST searches --------------------------------------------
    for check, fast, slow in (
        ("LRU", static_lru.min_space_time(), exact_lru.min_space_time()),
        ("WS", static_ws.min_space_time(), exact_ws.min_space_time()),
    ):
        if (
            _result_fields(fast) != _result_fields(slow)
            or fast.parameter != slow.parameter
        ):
            out.append(
                Divergence(
                    "static-min-st",
                    f"{label}: {check} min-ST: static "
                    f"{_result_fields(fast)} @ {fast.parameter} vs exact "
                    f"{_result_fields(slow)} @ {slow.parameter}",
                )
            )

    # -- affine-recovery soundness: rewrite ⇒ identical trace ----------------
    try:
        recovery = recover_program(program)
    except Exception as err:
        out.append(
            Divergence(
                "static-recovery",
                f"{label}: recovery pass raised {type(err).__name__}: {err}",
            )
        )
        return out
    if recovery.sites:
        try:
            recovered_trace = generate_trace(
                recovery.program, plan=plan, max_references=max_references
            )
        except Exception as err:
            out.append(
                Divergence(
                    "static-recovery",
                    f"{label}: recovered program raised "
                    f"{type(err).__name__}: {err} but the original ran",
                )
            )
            return out
        if len(recovered_trace.pages) != n or (
            recovered_trace.pages != trace.pages
        ).any():
            out.append(
                Divergence(
                    "static-recovery",
                    f"{label}: rewritten program is not trace-equivalent "
                    f"({len(recovery.sites)} recovered site(s))",
                )
            )
        elif [
            (d.position, d.kind) for d in recovered_trace.directives
        ] != [(d.position, d.kind) for d in trace.directives]:
            out.append(
                Divergence(
                    "static-recovery",
                    f"{label}: rewritten program shifts directive events",
                )
            )
    return out


# -- the full battery --------------------------------------------------------


def check_program(
    program: ast.Program,
    max_references: int = _MAX_REFERENCES,
    deep: bool = True,
) -> List[Divergence]:
    """Run every check on one program, across directive variants.

    Variants: uninstrumented, ALLOCATE-only, and ALLOCATE+LOCK — so
    directive placement, event splicing, and lock resolution are all
    exercised on every generated nest shape.
    """
    out: List[Divergence] = []
    out.extend(check_roundtrip(program))
    variants = [
        ("plain", None),
        ("alloc", instrument_program(program, with_locks=False)),
        ("locks", instrument_program(program, with_locks=True)),
    ]
    for label, plan in variants:
        if plan is not None:
            for problem in check_instrumented_roundtrip(program, plan):
                out.append(Divergence("trace-roundtrip", f"{label}: {problem}"))
        divs, trace = check_trace_equivalence(
            program, plan, label, max_references=max_references
        )
        out.extend(divs)
        if plan is not None:
            out.extend(check_lint(program, plan, trace, label))
        # metric-* before static-*: both compare against the same fast
        # paths, so a fastsim/analyzer bug should classify as the metric
        # divergence it is, not as a static one
        if trace is not None and len(trace.pages):
            out.extend(check_metrics(trace, label))
        out.extend(
            check_static(
                program, plan, trace, label, max_references=max_references
            )
        )
        if trace is None or not len(trace.pages):
            continue
        if deep:
            out.extend(check_lru_inclusion(trace, label))
            out.extend(check_ws_window(trace, label))
            out.extend(check_cd_lru_prefix(trace, label))
            out.extend(check_cd_locks(trace, label))
            out.extend(check_event_conservation(trace, label))
            if label == "alloc":
                out.extend(check_pool_conservation(trace, label))
    return out


def check_case(case, deep: bool = True) -> List[Divergence]:
    """Run the battery on one :class:`~repro.oracle.generator.GeneratedCase`.

    Every ninth seed is additionally replayed under a tiny reference
    cap, so mid-nest truncation (the trace filling up *inside* a
    compiled batch) is exercised continuously, not just by the fixed
    regression tests.
    """
    out = check_program(case.program, deep=deep)
    if case.seed % 9 == 0:
        divs, _trace = check_trace_equivalence(
            case.program, None, "truncated", max_references=257
        )
        out.extend(divs)
    return out


def check_source(source: str, deep: bool = True) -> List[Divergence]:
    """Parse ``source`` and run the battery (used by the shrinker)."""
    try:
        program = parse_source(source)
    except FrontendError:
        return []  # an unparsable candidate exhibits nothing
    return check_program(program, deep=deep)
