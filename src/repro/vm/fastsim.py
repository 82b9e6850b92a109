"""Exact fast replays: closed-form CD, fault-to-fault PFF, OPT and FIFO.

Each replay here reproduces, number for number, driving the matching
event-driven policy through :func:`~repro.vm.simulator.simulate`
(asserted by the test suite and the oracle's ``metric-*`` checks); the
event-driven pairs remain the reference implementation.

**CD** (:func:`simulate_cd_fast`).  The paper's main experiments run CD
with no physical-memory ceiling and no LOCK directives.  Under those
conditions the policy degenerates to *LRU with a piecewise-constant
allocation target*: the resident set is always the top ``r`` entries of
the global LRU stack, where ``r`` grows by one per fault up to the
current target and is clamped down whenever an ALLOCATE grants less.  A
reference faults iff its LRU stack distance exceeds the current ``r`` —
and stack distances are computed once per trace (shared with
:class:`~repro.vm.analyzers.LRUSweep`).

The replay is one kernel, :func:`replay_cd`, over the *segments*
between ALLOCATEs.  :func:`cd_schedule` builds the segments from the
directive columns in one vectorized step (PI-cap choice, the
``min_allocation`` floor).  A segment entered at its target stays
*saturated* — a reference faults iff its distance exceeds the target —
so with a per-reference target threshold and one prefix count of the
references above it, every run of saturated segments is plain
arithmetic.  Python-level work is left only for *ramp* steps, where a
segment is entered below its target (the first segment, and every
ALLOCATE that raises the target): each fault there raises ``r`` by one
until the target is reached, and the rest of the segment is again
arithmetic.  The structure walk of the trace-free tiers
(:mod:`repro.analysis.symbolic.cd`) runs the same kernel with its own
ramp step.  The event-driven CD handles the general case (memory
ceilings, LOCK pinning).

With a ``tracer`` the CD replay *synthesizes* the observability events
the event-driven path would emit — one :class:`~repro.obs.Fault` per
fault (with page identity and post-fault residency), ALLOCATE
request/grant events from the directive schedule, and resident-set
samples at each point the (piecewise constant) residency changes — so
timelines taken on the fast path stay comparable with the reference
simulator: fault counts and positions match exactly.  Per-eviction
events are not synthesized (recovering victim identity would need the
full LRU stack); use the event-driven simulator when eviction order
matters.

**PFF, OPT and FIFO** (:func:`simulate_pff_fast`,
:func:`simulate_opt_fast`, :func:`simulate_fifo_fast`) move from fault
to fault: the resident set is fixed between faults, so the next fault
is the first reference outside it, found by a short scalar look-ahead
and then widening vectorized windows.  PFF and OPT reduce to every
reference's previous or next occurrence
(:func:`~repro.vm.analyzers.previous_occurrences`,
:func:`~repro.vm.analyzers.next_occurrences`), the reuse-interval view
of the string; FIFO needs only its insertion queue.  None takes a
tracer; traced replays use the event-driven policies.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.tracegen.events import ALLOCATE_CODE, DirectiveTable, ReferenceTrace
from repro.vm.analyzers import LRUSweep, next_occurrences, previous_occurrences
from repro.vm.metrics import FAULT_SERVICE_REFERENCES, SimulationResult
from repro.vm.policies.cd import CDConfig


class CDSchedule(NamedTuple):
    """The allocation targets one CD configuration runs at.

    Segment ``s`` covers references ``[bounds[s], bounds[s + 1])`` and
    runs at target ``targets[s]``: segment 0 at ``min_allocation``,
    segment ``s ≥ 1`` at the target the ALLOCATE in table row
    ``rows[s - 1]`` sets, whose granted request is ``granted[s - 1]``
    (an index into the table's ``req_*`` columns).  ALLOCATE positions
    past the string are clamped to its length.
    """

    bounds: np.ndarray  # int64[E + 2]: 0, ALLOCATE positions, length
    targets: np.ndarray  # int64[E + 1]
    rows: np.ndarray  # int64[E]
    granted: np.ndarray  # int64[E]


def _closed_form_applies(table: DirectiveTable, config: CDConfig) -> bool:
    # UNLOCK events without a prior LOCK are inert, so only LOCK rows
    # (when honored) and a memory ceiling rule the closed form out.
    if config.memory_limit is not None:
        return False
    return not (config.honor_locks and table.has_locks)


def cd_fast_applicable(trace: ReferenceTrace, config: CDConfig) -> bool:
    """True when the closed-form replay reproduces the full simulator:
    the uniprogramming assumption (no memory ceiling) and no LOCK
    pinning in play."""
    return _closed_form_applies(trace.directive_table, config)


def cd_schedule(
    table: DirectiveTable, config: CDConfig, length: int
) -> Optional[CDSchedule]:
    """The segment schedule of ``config`` over a string of ``length``
    references, or None when the closed form does not apply.

    Mirrors CDPolicy's grant rule for the no-ceiling case: the first
    request with ``PI ≤ pi_cap`` (the innermost one when none is), which
    is always affordable, floored at ``min_allocation``.
    """
    if not _closed_form_applies(table, config):
        return None
    rows = np.flatnonzero(table.kind == ALLOCATE_CODE)
    first = table.req_offsets[rows]
    if config.pi_cap is None:
        granted = first
    else:
        last = table.req_offsets[rows + 1] - 1
        eligible = table.req_pi <= config.pi_cap
        slots = len(eligible)
        # index of the first eligible request at or after each slot
        following = np.where(eligible, np.arange(slots), slots)
        following = np.minimum.accumulate(following[::-1])[::-1]
        candidate = following[first]
        granted = np.where(candidate <= last, candidate, last)
    targets = np.empty(len(rows) + 1, dtype=np.int64)
    targets[0] = config.min_allocation
    np.maximum(table.req_pages[granted], config.min_allocation, out=targets[1:])
    bounds = np.empty(len(rows) + 2, dtype=np.int64)
    bounds[0] = 0
    np.minimum(table.position[rows], length, out=bounds[1:-1])
    bounds[-1] = length
    return CDSchedule(bounds, targets, rows, granted)


def prefix_sum(values: np.ndarray, weights: Optional[np.ndarray] = None) -> np.ndarray:
    """``P[x]`` = sum of ``values[:x]`` (each times its weight): with
    boolean values, the (weighted) count of True in ``[0, x)``."""
    out = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values if weights is None else values * weights, out=out[1:])
    return out


def first_above(values: np.ndarray, lo: int, hi: int, r: int) -> int:
    """Smallest ``j`` in ``[lo, hi)`` with ``values[j] > r``, else -1."""
    return first_where(values, lo, hi, lambda window: window > r)


def first_where(
    values: np.ndarray, lo: int, hi: int, test: Callable[[np.ndarray], np.ndarray]
) -> int:
    """Smallest ``j`` in ``[lo, hi)`` where ``test`` (applied to a slice
    of ``values``) is True, else -1.

    Scans geometrically growing windows, so a hit near ``lo`` costs a
    small comparison however long the range is."""
    width = 32
    while lo < hi:
        stop = min(hi, lo + width)
        window = test(values[lo:stop])
        k = int(window.argmax())
        if window[k]:
            return lo + k
        lo = stop
        width <<= 2
    return -1


#: ``ramp(s, r, acc) -> r``: walk segment ``s`` entered at residency
#: ``r`` below its target, adding to ``acc`` (see :func:`replay_cd`)
Ramp = Callable[[int, int, List[int]], int]


def replay_cd(
    schedule: CDSchedule,
    seg_faults: np.ndarray,
    ramp: Ramp,
    on_saturated: Optional[Callable[[int, int], None]] = None,
    clamps: Optional[List[int]] = None,
) -> List[int]:
    """The CD recurrence over the schedule's segments.

    ``seg_faults[s]`` — the faults segment ``s`` takes when it runs
    saturated (residency pinned at ``targets[s]``).  ``ramp`` walks a
    segment entered below its target and returns the residency at its
    end, adding that segment's faults, Σ residency after each
    reference and Σ residency at faults to ``acc``.  Segments entered
    at their target are accounted from prefix sums in one step per
    run of them; ``on_saturated(s, e)`` sees each such run
    ``[s, e)``.  ``clamps`` collects (in order) the ALLOCATE indices
    whose grant shrank the live residency.

    Returns ``acc = [faults, Σ residency, Σ residency at faults]``.
    """
    bounds, targets = schedule.bounds, schedule.targets
    lengths = np.diff(bounds)
    cum_faults = prefix_sum(seg_faults)
    cum_mem = prefix_sum(targets, lengths)
    cum_fault_mem = prefix_sum(targets, seg_faults)
    # a segment whose target exceeds the one before it is entered
    # below target even when its predecessor ran saturated
    rising = (np.flatnonzero(targets[1:] > targets[:-1]) + 1).tolist()
    rising.append(len(targets))
    tl = targets.tolist()
    acc = [0, 0, 0]
    r = 0
    k = 0
    nxt = 0
    while k < len(tl):
        t = tl[k]
        if r > t:
            if clamps is not None:
                clamps.append(k - 1)
            r = t
        if r < t:
            r = ramp(k, r, acc)
            k += 1
            continue
        while rising[nxt] <= k:
            nxt += 1
        e = rising[nxt]
        acc[0] += int(cum_faults[e] - cum_faults[k])
        acc[1] += int(cum_mem[e] - cum_mem[k])
        acc[2] += int(cum_fault_mem[e] - cum_fault_mem[k])
        if on_saturated is not None:
            on_saturated(k, e)
        if clamps is not None and e - k > 1:
            drops = np.flatnonzero(targets[k + 1 : e] < targets[k : e - 1])
            clamps.extend((drops + k).tolist())
        r = tl[e - 1]
        k = e
    return acc


def simulate_cd_fast(
    trace: ReferenceTrace,
    config: Optional[CDConfig] = None,
    distances: Optional[np.ndarray] = None,
    fault_service: int = FAULT_SERVICE_REFERENCES,
    tracer=None,
) -> SimulationResult:
    """Replay ``trace`` under CD without a per-reference loop.

    ``distances`` are the trace's LRU stack distances (cold = huge); pass
    ``LRUSweep(trace)._distances`` — or leave None to compute them here.
    Raises ValueError if :func:`cd_fast_applicable` is False.

    ``tracer`` (optional) receives synthesized Fault/ALLOCATE/sample
    events equivalent to the event-driven path's stream.
    """
    config = config or CDConfig()
    n = len(trace.pages)
    schedule = cd_schedule(trace.directive_table, config, n)
    if schedule is None:
        raise ValueError("trace/config requires the event-driven simulator")
    if distances is None:
        distances = LRUSweep(trace)._distances
    d = distances
    bounds, targets = schedule.bounds, schedule.targets
    threshold = np.repeat(targets, np.diff(bounds))
    above = d > threshold  # a fault whenever the residency is at target
    prefix = prefix_sum(above)
    seg_faults = prefix[bounds[1:]] - prefix[bounds[:-1]]
    bl = bounds.tolist()
    tl = targets.tolist()
    # (position, post-fault residency) per fault, in replay order
    fault_log: Optional[List[Tuple[int, int]]] = [] if tracer is not None else None

    def ramp(k: int, r: int, acc: List[int]) -> int:
        cur, b, t = bl[k], bl[k + 1], tl[k]
        while r < t:
            j = first_above(d, cur, b, r)
            if j < 0:
                acc[1] += r * (b - cur)
                return r
            acc[1] += r * (j - cur) + r + 1
            r += 1
            acc[0] += 1
            acc[2] += r
            if fault_log is not None:
                fault_log.append((j, r))
            cur = j + 1
        faults = int(prefix[b] - prefix[cur])
        acc[0] += faults
        acc[1] += t * (b - cur)
        acc[2] += t * faults
        if fault_log is not None:
            hits = cur + np.flatnonzero(above[cur:b])
            fault_log.extend((j, t) for j in hits.tolist())
        return r

    def saturated(k: int, e: int) -> None:
        lo, hi = bl[k], bl[e]
        hits = lo + np.flatnonzero(above[lo:hi])
        fault_log.extend(zip(hits.tolist(), threshold[hits].tolist()))

    clamps: Optional[List[int]] = [] if tracer is not None else None
    faults, mem_sum, fault_mem = replay_cd(
        schedule,
        seg_faults,
        ramp,
        on_saturated=saturated if tracer is not None else None,
        clamps=clamps,
    )
    if tracer is not None:
        _emit_events(tracer, trace, schedule, fault_log, clamps)

    return _fast_result(
        "CD", trace, config.pi_cap, faults, mem_sum, fault_mem, fault_service
    )


def _emit_events(tracer, trace, schedule: CDSchedule, faults, clamps) -> None:
    """Replay order: each ALLOCATE's request/grant (and the clamp
    sample when it shrank the residency) after the faults before its
    position; each fault as a Fault plus a post-fault sample."""
    from repro.obs import events as obs

    table = trace.directive_table
    pages = trace.pages
    req_off = table.req_offsets.tolist()
    req_pi = table.req_pi.tolist()
    req_pages = table.req_pages.tolist()
    sites = table.site[schedule.rows].tolist()
    rows = schedule.rows.tolist()
    granted = schedule.granted.tolist()
    targets = schedule.targets.tolist()
    clamped = set(clamps)

    def emit_fault(index: int, resident: int) -> None:
        tracer.emit(obs.Fault(time=index, page=int(pages[index]), resident=resident))
        tracer.emit(obs.ResidentSample(time=index, resident=resident))

    fi = 0
    for e, position in enumerate(schedule.bounds[1:-1].tolist()):
        while fi < len(faults) and faults[fi][0] < position:
            emit_fault(*faults[fi])
            fi += 1
        a, b = req_off[rows[e]], req_off[rows[e] + 1]
        tracer.emit(
            obs.AllocateRequest(
                time=position,
                site=sites[e],
                requests=tuple(zip(req_pi[a:b], req_pages[a:b])),
            )
        )
        g = granted[e]
        tracer.emit(
            obs.AllocateGrant(
                time=position,
                site=sites[e],
                pages=req_pages[g],
                priority_index=req_pi[g],
                target=targets[e + 1],
            )
        )
        if e in clamped:
            tracer.emit(obs.ResidentSample(time=position, resident=targets[e + 1]))
    for fault in faults[fi:]:
        emit_fault(*fault)


#: references a fault-to-fault replay tests one by one before it scans
#: in vectorized windows: dense faults (PFF at T=1 faults on most
#: references) must not pay a numpy call each
_LOOKAHEAD = 32


def simulate_pff_fast(
    trace: ReferenceTrace,
    threshold: int,
    prev: Optional[np.ndarray] = None,
) -> SimulationResult:
    """Replay ``trace`` under PFF with ``threshold``, fault to fault.

    After a *shrinking* fault at ``t`` (at least ``threshold`` since the
    last fault ``L``) :class:`~repro.vm.policies.pff.PFFPolicy` holds
    exactly the pages referenced in ``[L, t]``, and until the next
    shrink every reference adds its page.  So with ``W`` the fault
    before the latest shrinking fault (0 before the first), reference
    ``t`` faults iff ``prev[t] < W``.  The resident size is constant
    between faults: it rises by one at a growing fault and becomes the
    number of distinct pages in ``[L, t]`` — the ``j`` there with
    ``prev[j] < L`` — at a shrinking one.

    ``prev`` is :func:`~repro.vm.analyzers.previous_occurrences` of the
    trace; pass it to share one array across thresholds.
    """
    if threshold < 1:
        raise ValueError("the PFF threshold must be at least 1")
    n = len(trace.pages)
    if prev is None:
        prev = previous_occurrences(trace)
    view = memoryview(prev)
    faults = mem_sum = fault_mem = 0
    size = 0
    window = 0  # W: a reference faults iff its page was last seen before W
    last = -1  # L, the latest fault (-1: none yet, so the first shrinks)
    cur = 0
    while cur < n:
        t = -1
        fresh = 0  # references in [cur, t) to pages new since L
        stop = min(n, cur + _LOOKAHEAD)
        for j in range(cur, stop):
            p = view[j]
            if p < window:
                t = j
                break
            if p < last:
                fresh += 1
        else:
            t = first_where(prev, stop, n, lambda values: values < window)
            if t >= 0:
                fresh += int(np.count_nonzero(prev[stop:t] < last))
        if t < 0:
            mem_sum += size * (n - cur)
            break
        mem_sum += size * (t - cur)
        if last < 0 or t - last >= threshold:
            # shrink to the distinct pages of [L, t]: L's, the fresh
            # ones in between and t's
            window = max(last, 0)
            size = fresh + 1 + (last >= 0)
        else:
            size += 1
        last = t
        faults += 1
        mem_sum += size
        fault_mem += size
        cur = t + 1
    return _fast_result(
        "PFF", trace, threshold, faults, mem_sum, fault_mem, FAULT_SERVICE_REFERENCES
    )


def simulate_opt_fast(trace: ReferenceTrace, frames: int) -> SimulationResult:
    """Replay ``trace`` under Belady's OPT with ``frames``, fault to fault.

    A hit only moves its page's next use forward; the replay keeps,
    per resident page, the next use of its latest reference and skips
    runs of hits (updating only each page's last reference in the run).
    A fault with full frames evicts the resident page used farthest in
    the future, ties (pages never used again) going to the smallest page
    id — the ``(-next, page)`` order of
    :class:`~repro.vm.policies.opt.OPTPolicy`'s heap.  O(frames) work per
    fault, none per hit.
    """
    if frames < 1:
        raise ValueError("OPT needs at least one frame")
    pages = trace.pages
    n = len(pages)
    next_use = next_occurrences(pages)
    page_view = memoryview(pages)
    next_view = memoryview(next_use)
    is_resident = np.zeros(int(pages.max()) + 1 if n else 0, dtype=bool)
    resident = {}  # page -> next use of its latest reference
    faults = mem_sum = fault_mem = 0
    cur = 0
    while cur < n:
        t = -1
        stop = min(n, cur + _LOOKAHEAD)
        for j in range(cur, stop):
            page = page_view[j]
            if page not in resident:
                t = j
                break
            resident[page] = next_view[j]
        if t < 0 and stop < n:
            t = first_where(pages, stop, n, lambda window: ~is_resident[window])
            end = n if t < 0 else t
            # a run of hits: each page's latest reference in it is the
            # one whose next use lies past the run
            latest = stop + np.flatnonzero(next_use[stop:end] >= end)
            resident.update(zip(pages[latest].tolist(), next_use[latest].tolist()))
        size = len(resident)
        if t < 0:
            mem_sum += size * (n - cur)
            break
        mem_sum += size * (t - cur)
        if size >= frames:
            farthest = max(resident.values())
            if farthest < n:
                victim = page_view[farthest]
            else:
                victim = min(p for p, use in resident.items() if use == n)
            del resident[victim]
            is_resident[victim] = False
        page = page_view[t]
        resident[page] = next_view[t]
        is_resident[page] = True
        size = len(resident)
        faults += 1
        mem_sum += size
        fault_mem += size
        cur = t + 1
    return _fast_result(
        "OPT", trace, frames, faults, mem_sum, fault_mem, FAULT_SERVICE_REFERENCES
    )


def simulate_fifo_fast(trace: ReferenceTrace, frames: int) -> SimulationResult:
    """Replay ``trace`` under FIFO with ``frames``, fault to fault.

    FIFO orders its pages by insertion, so a hit changes nothing and
    the resident set is fixed between faults.  A fault with full frames
    evicts the oldest insertion, as
    :class:`~repro.vm.policies.fifo.FIFOPolicy` does.  O(1) work per
    fault, none per hit.
    """
    if frames < 1:
        raise ValueError("FIFO needs at least one frame")
    pages = trace.pages
    n = len(pages)
    page_view = memoryview(pages)
    is_resident = np.zeros(int(pages.max()) + 1 if n else 0, dtype=bool)
    resident = set()
    queue = deque()  # resident pages, oldest insertion first
    faults = mem_sum = fault_mem = 0
    size = 0
    cur = 0
    while cur < n:
        t = -1
        stop = min(n, cur + _LOOKAHEAD)
        for j in range(cur, stop):
            if page_view[j] not in resident:
                t = j
                break
        else:
            t = first_where(pages, stop, n, lambda window: ~is_resident[window])
        if t < 0:
            mem_sum += size * (n - cur)
            break
        mem_sum += size * (t - cur)
        if size >= frames:
            victim = queue.popleft()
            resident.discard(victim)
            is_resident[victim] = False
        else:
            size += 1
        page = page_view[t]
        queue.append(page)
        resident.add(page)
        is_resident[page] = True
        faults += 1
        mem_sum += size
        fault_mem += size
        cur = t + 1
    return _fast_result(
        "FIFO", trace, frames, faults, mem_sum, fault_mem, FAULT_SERVICE_REFERENCES
    )


def _fast_result(
    policy: str,
    trace: ReferenceTrace,
    parameter: Optional[int],
    faults: int,
    mem_sum: int,
    fault_mem: int,
    fault_service: int,
) -> SimulationResult:
    """The metrics of a replay from its integer sums: Σ residency after
    each reference and Σ residency at faults (a fast replay takes no
    swaps, denials or lock releases)."""
    n = len(trace.pages)
    return SimulationResult(
        policy=policy,
        program=trace.program_name,
        page_faults=faults,
        references=n,
        mem_average=mem_sum / n if n else 0.0,
        space_time=float(mem_sum + fault_mem * fault_service),
        parameter=parameter,
        fault_service=fault_service,
    )
