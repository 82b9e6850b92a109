"""Exact fast replays: closed-form CD, fault-to-fault PFF, OPT, FIFO and
pinned CD.

Each replay here reproduces, number for number, driving the matching
event-driven policy through :func:`~repro.vm.simulator.simulate`
(asserted by the test suite and the oracle's ``metric-*`` checks); the
event-driven pairs remain the reference implementation.

**CD** (:func:`simulate_cd_fast`).  Without LOCK pinning CD
degenerates to *LRU with a piecewise-constant allocation target*: the
resident set is always the top ``r`` entries of the global LRU stack,
where ``r`` grows by one per fault up to the current target and is
clamped down whenever an ALLOCATE grants less.  A reference faults iff
its LRU stack distance exceeds the current ``r`` — and stack distances
are computed once per trace (shared with
:class:`~repro.vm.analyzers.LRUSweep`).  A memory ceiling changes only
the grant rule, so it stays in the target schedule.

The replay is one kernel, :func:`replay_cd`, over the *segments*
between ALLOCATEs.  :func:`cd_schedule` builds the segments from the
directive columns in one vectorized step (PI-cap choice, the grant
under a ceiling with its deferrals, swaps and denials, the
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
ramp step.  Honored LOCKs take pinned pages out of the LRU order, so
they replay fault to fault instead (:func:`_replay_pinned`, below).

With a ``tracer`` the CD replay *synthesizes* the observability events
the event-driven path would emit — one :class:`~repro.obs.Fault` per
fault (with page identity and post-fault residency), ALLOCATE
request/grant events from the directive schedule, and resident-set
samples at each point the (piecewise constant) residency changes — so
timelines taken on the fast path stay comparable with the reference
simulator: fault counts and positions match exactly.  Per-eviction
events are not synthesized (recovering victim identity would need the
full LRU stack), nor are the denials, swaps and pins of a ceiling or
of LOCKs: a traced replay of those runs the event-driven simulator.

**PFF, OPT, FIFO and pinned CD** (:func:`simulate_pff_fast`,
:func:`simulate_opt_fast`, :func:`simulate_fifo_fast`,
:func:`_replay_pinned`) move from fault to fault: the resident set is
fixed between faults, so the next fault is the first reference outside
it, found by a short scalar look-ahead and then widening vectorized
windows.  PFF, OPT and pinned CD reduce to every reference's previous
or next occurrence (:func:`~repro.vm.analyzers.previous_occurrences`,
:func:`~repro.vm.analyzers.next_occurrences`), the reuse-interval view
of the string; FIFO needs only its insertion queue.  None takes a
tracer; traced replays use the event-driven policies.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.tracegen.events import (
    ALLOCATE_CODE,
    LOCK_CODE,
    DirectiveTable,
    ReferenceTrace,
)
from repro.vm.analyzers import LRUSweep, next_occurrences, previous_occurrences
from repro.vm.metrics import FAULT_SERVICE_REFERENCES, SimulationResult
from repro.vm.policies.cd import CDConfig


class CDSchedule(NamedTuple):
    """The allocation targets one CD configuration runs at.

    Segment ``s`` covers references ``[bounds[s], bounds[s + 1])`` and
    runs at target ``targets[s]``: segment 0 at ``min_allocation``,
    segment ``s ≥ 1`` at the target the ALLOCATE in table row
    ``rows[s - 1]`` sets, whose granted request is ``granted[s - 1]``
    (an index into the table's ``req_*`` columns; for a swap the
    innermost request, which is granted the ceiling; -1 when the
    ALLOCATE defers and the target carries over).  Targets never
    exceed the memory ceiling.  ALLOCATE positions past the string are
    clamped to its length.  ``swaps`` and ``denials`` count the swaps
    and the denied requests over every ALLOCATE.
    """

    bounds: np.ndarray  # int64[E + 2]: 0, ALLOCATE positions, length
    targets: np.ndarray  # int64[E + 1]
    rows: np.ndarray  # int64[E]
    granted: np.ndarray  # int64[E]
    swaps: int
    denials: int


def synthesizes_events(table: DirectiveTable, config: CDConfig) -> bool:
    """True when :func:`simulate_cd_fast` can emit a tracer's events:
    no memory ceiling and no honored LOCK.  Denials, swaps, evictions
    and pins come only from the event-driven
    :class:`~repro.vm.policies.cd.CDPolicy`."""
    return config.memory_limit is None and not (config.honor_locks and table.has_locks)


def cd_schedule(table: DirectiveTable, config: CDConfig, length: int) -> CDSchedule:
    """The segment schedule of ``config`` over a string of ``length``
    references.

    Mirrors CDPolicy's grant rule.  An ALLOCATE considers its requests
    with ``PI ≤ pi_cap`` (the innermost one when none is) and grants
    the first that fits under the ceiling.  When none fits and that
    innermost request has PI > 1 it defers: the target carries over.
    Otherwise it counts a swap and grants the ceiling.  Targets are
    ``min(max(grant, min_allocation), memory_limit)``; the requests
    tried before the grant (all of them on a deferral or swap) count
    as denied.
    """
    limit = config.memory_limit
    rows = np.flatnonzero(table.kind == ALLOCATE_CODE)
    first = table.req_offsets[rows]
    swaps = denials = 0
    deferred = None
    if config.pi_cap is None and limit is None:
        granted = first
    else:
        last = table.req_offsets[rows + 1] - 1
        slots = np.arange(len(table.req_pi))
        if config.pi_cap is None:
            eligible = np.ones(len(slots), dtype=bool)
        else:
            eligible = table.req_pi <= config.pi_cap
            if limit is not None:
                # a row with no eligible request considers its innermost one
                counts = prefix_sum(eligible)
                eligible[last[counts[last + 1] == counts[first]]] = True
        fits = eligible if limit is None else eligible & (table.req_pages <= limit)
        # index of the first fitting request at or after each slot
        following = np.where(fits, slots, len(slots))
        following = np.minimum.accumulate(following[::-1])[::-1]
        candidate = following[first]
        fitted = candidate <= last
        granted = np.where(fitted, candidate, last)
        if limit is not None:
            tried = prefix_sum(eligible)
            denied = tried[np.where(fitted, candidate, last + 1)] - tried[first]
            denials = int(denied.sum())
            if not fitted.all():
                # the innermost eligible request decides: a swap at PI 1
                preceding = np.maximum.accumulate(np.where(eligible, slots, -1))
                innermost = preceding[last]
                swapped = ~fitted & (table.req_pi[innermost] <= 1)
                swaps = int(swapped.sum())
                deferred = ~fitted & ~swapped
                granted = np.where(fitted, candidate, np.where(swapped, innermost, -1))
    grants = table.req_pages[granted]
    if deferred is not None:
        # a swap runs at the ceiling; a deferral carries over (below)
        grants[~fitted] = limit
    targets = np.empty(len(rows) + 1, dtype=np.int64)
    targets[0] = config.min_allocation
    np.maximum(grants, config.min_allocation, out=targets[1:])
    if limit is not None:
        np.minimum(targets, limit, out=targets)
        if deferred is not None and deferred.any():
            # forward fill: a deferral keeps the target before it
            source = np.arange(len(targets))
            source[1:][deferred] = 0
            targets = targets[np.maximum.accumulate(source)]
    bounds = np.empty(len(rows) + 2, dtype=np.int64)
    bounds[0] = 0
    np.minimum(table.position[rows], length, out=bounds[1:-1])
    bounds[-1] = length
    return CDSchedule(bounds, targets, rows, granted, swaps, denials)


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

    Honored LOCKs replay fault to fault (:func:`_replay_pinned`); every
    other configuration, memory ceilings included, runs the closed form
    (:func:`replay_cd`).  ``distances`` are the trace's LRU stack
    distances (cold = huge), which only the closed form reads; pass
    ``LRUSweep(trace)._distances`` — or leave None to compute them here.

    ``tracer`` (optional) receives synthesized Fault/ALLOCATE/sample
    events equivalent to the event-driven path's stream; a traced
    replay raises ValueError where :func:`synthesizes_events` is False.
    """
    config = config or CDConfig()
    table = trace.directive_table
    if tracer is not None and not synthesizes_events(table, config):
        raise ValueError(
            "a traced replay under a memory ceiling or LOCK pinning needs "
            "the event-driven simulator"
        )
    schedule = cd_schedule(table, config, len(trace.pages))
    releases = 0
    if config.honor_locks and table.has_locks:
        faults, mem_sum, fault_mem, releases = _replay_pinned(trace, config, schedule)
    else:
        faults, mem_sum, fault_mem = _replay_closed_form(
            trace, schedule, distances, tracer
        )
    return _fast_result(
        "CD",
        trace,
        config.pi_cap,
        faults,
        mem_sum,
        fault_mem,
        fault_service,
        swaps=schedule.swaps,
        denied_requests=schedule.denials,
        lock_releases=releases,
    )


def _replay_closed_form(
    trace: ReferenceTrace,
    schedule: CDSchedule,
    distances: Optional[np.ndarray],
    tracer,
) -> Tuple[int, int, int]:
    """``(faults, Σ residency, Σ residency at faults)`` of CD as LRU
    under the schedule's piecewise-constant target."""
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
    return faults, mem_sum, fault_mem


#: references a fault-to-fault replay tests one by one before it scans
#: in vectorized windows: dense faults (PFF at T=1 faults on most
#: references) must not pay a numpy call each
_LOOKAHEAD = 32


def _replay_pinned(
    trace: ReferenceTrace, config: CDConfig, schedule: CDSchedule
) -> Tuple[int, int, int, int]:
    """CD with honored LOCKs, fault to fault: ``(faults, Σ residency,
    Σ residency at faults, forced lock releases)``.

    :class:`~repro.vm.policies.cd.CDPolicy` keeps its resident pages
    in LRU order, so the replay keeps each resident page's latest
    reference and skips runs of hits as :func:`simulate_opt_fast`
    does.  A shrink evicts the unlocked pages with the oldest latest
    references, never the page being referenced; under a ceiling a
    fault with nothing left to evict releases the LOCK site with the
    highest PJ.  A LOCK never evicts, and an ALLOCATE or UNLOCK evicts
    only when unlocked residency exceeds the target, so a run of hits
    crosses every directive that evicts nothing.
    """
    pages = trace.pages
    n = len(pages)
    table = trace.directive_table
    limit = config.memory_limit
    next_use = next_occurrences(pages)
    page_view = memoryview(pages)
    resident = bytearray(int(pages.max()) + 1 if n else 0)
    is_resident = np.frombuffer(resident, dtype=bool)
    latest: Dict[int, int] = {}  # resident page -> its latest reference
    age = latest.__getitem__
    free: Set[int] = set()  # the resident pages no LOCK pins
    pinned: Dict[int, int] = {}  # page -> the LOCK site pinning it
    site_pages: Dict[int, Set[int]] = {}
    site_pj: Dict[int, int] = {}
    # per directive row: the target a granting ALLOCATE sets, else -1
    grants = np.full(len(table), -1, dtype=np.int64)
    granting = schedule.granted >= 0
    grants[schedule.rows[granting]] = schedule.targets[1:][granting]
    grants = grants.tolist()
    target = int(schedule.targets[0])
    position = table.position.tolist()
    kind = table.kind.tolist()
    site_of = table.site.tolist()
    pj_of = table.pj.tolist()
    lock_off = table.lock_offsets.tolist()
    lock_pages = table.lock_pages.tolist()
    rows = len(position)

    def evict(count: int, exclude: int = -1) -> int:
        """Evict up to ``count`` free pages, oldest latest reference
        first, never ``exclude``; the number evicted."""
        victims = sorted(free, key=age)[:count]
        if victims and victims[-1] == exclude:
            victims.pop()
        for p in victims:
            free.remove(p)
            del latest[p]
            resident[p] = 0
        return len(victims)

    def release(site: int) -> None:
        site_pj.pop(site, None)
        for p in site_pages.pop(site, ()):
            if pinned.get(p) == site:
                del pinned[p]
                if p in latest:
                    free.add(p)

    def fire(row: int) -> int:
        """Apply directive ``row``; the free pages it must evict."""
        nonlocal target
        k = kind[row]
        if k == ALLOCATE_CODE:
            if grants[row] < 0:
                return 0  # a deferral shrinks nothing
            target = grants[row]
            return len(free) - target
        pages_of = lock_pages[lock_off[row] : lock_off[row + 1]]
        if k == LOCK_CODE:
            site = site_of[row]
            release(site)  # a re-executed LOCK moves its pins
            fresh = set()
            for p in pages_of:
                if p not in pinned:
                    pinned[p] = site
                    fresh.add(p)
                    free.discard(p)
            if fresh:
                site_pages[site] = fresh
                site_pj[site] = pj_of[row]
            return 0
        for p in pages_of:
            site = pinned.pop(p, None)
            if site is None:
                continue
            if p in latest:
                free.add(p)
            held = site_pages[site]
            held.discard(p)
            if not held:
                del site_pages[site]
                del site_pj[site]
        return len(free) - target

    def enforce_limit(page: int) -> int:
        """Evict, then release pins highest PJ first, until residency
        fits the ceiling; the number of releases."""
        releases = 0
        while len(latest) > limit:
            if evict(len(latest) - limit, page) == 0:
                if not site_pj:
                    break
                release(max(site_pj, key=lambda s: (site_pj[s], s)))
                releases += 1
        return releases

    faults = mem_sum = fault_mem = releases = 0
    mark = 0  # Σ residency is counted for the references before ``mark``
    row = 0
    cur = 0
    lookahead = _LOOKAHEAD
    while True:
        # fire the directives due before reference ``cur``; ``latest``
        # is exact up to it
        while row < rows and position[row] <= cur:
            excess = fire(row)
            row += 1
            if excess > 0:
                mem_sum += len(latest) * (cur - mark)
                mark = cur
                evict(excess)
        if cur >= n:
            break
        due = position[row] if row < rows else n
        stop = min(due, cur + lookahead)
        for j in range(cur, stop):
            page = page_view[j]
            if page in latest:
                latest[page] = j
                continue
            # a fault: the page joins at the MRU end
            mem_sum += len(latest) * (j - mark)
            latest[page] = j
            resident[page] = 1
            if page not in pinned:
                free.add(page)
            excess = len(free) - target
            if excess == 1:  # the common shrink: one victim, no sort
                victim = min(free, key=age)
                if victim != page:
                    free.remove(victim)
                    del latest[victim]
                    resident[victim] = 0
            elif excess > 1:
                evict(excess, page)
            if limit is not None and len(latest) > limit:
                releases += enforce_limit(page)
            size = len(latest)
            faults += 1
            mem_sum += size
            fault_mem += size
            mark = j + 1
        cur = stop
        if stop == due or stop - mark < lookahead:
            continue
        # ``lookahead`` hits in a row: find the next miss in vectorized
        # windows, crossing every directive that evicts nothing
        t = first_where(pages, stop, n, lambda window: ~is_resident[window])
        end = n if t < 0 else t
        excess = 0
        while row < rows and position[row] <= end:
            excess = fire(row)
            row += 1
            if excess > 0:
                end = position[row - 1]
                break
        # each page's latest reference in the run of hits is the one
        # whose next use lies past the run
        run = stop + np.flatnonzero(next_use[stop:end] >= end)
        latest.update(zip(pages[run].tolist(), run.tolist()))
        if excess > 0:
            mem_sum += len(latest) * (end - mark)
            mark = end
            evict(excess)
        cur = end
    mem_sum += len(latest) * (n - mark)
    return faults, mem_sum, fault_mem, releases


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
    swaps: int = 0,
    denied_requests: int = 0,
    lock_releases: int = 0,
) -> SimulationResult:
    """The metrics of a replay from its integer sums: Σ residency after
    each reference and Σ residency at faults, plus CD's swap, denial and
    forced-release counts."""
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
        swaps=swaps,
        denied_requests=denied_requests,
        lock_releases=lock_releases,
    )
