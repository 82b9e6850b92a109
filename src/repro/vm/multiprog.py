"""Multiprogrammed memory management — the evaluation the paper defers.

"The performance of CD in a multiprogramming environment is still to be
evaluated."  This module evaluates it at two scales:

* :class:`MultiprogSimulator` — the original fixed-mix round-robin
  reference: a handful of traced programs share one physical memory,
  managed either by CD (directive-driven allocation with the paper's
  swapping mechanism) or by the Working Set policy with classic WS
  load control.

* :class:`LoadControlledPool` — the heavy-traffic scenario family: an
  event-driven pool scheduler running hundreds-to-thousands of
  processes with stochastic arrival/departure over a shared frame
  pool, under a pluggable *admission/load-control* policy
  (:data:`ADMISSION_POLICIES`): knee-based control at the lifetime
  knee g(m)/m (Denning), WS-estimate control, CD-directive-aware
  control with PI-priority preemption, and an uncontrolled
  thrash-prone baseline.  Each admitted process replays its reference
  string exactly (segmented LRU replay over precomputed stack
  distances, see :class:`JobProfile`), so per-process fault counts are
  checkable against the single-process analyzers — the oracle's
  ``pool-*`` conservation checks do exactly that.

Fixed-mix model
---------------

* Time is virtual and global.  The scheduler runs one READY process at a
  time for a quantum of references; a page fault blocks the process for
  ``fault_service`` time units during which other processes run (I/O is
  overlapped, as in a real multiprogrammed system).
* Physical memory holds ``total_frames`` pages shared by all processes.
  Each process's pages live in its own address space (disjoint from the
  others).
* **CD processes** follow Figure 6: an ALLOCATE grants the largest
  request not exceeding what the process could reach (its own resident
  pages plus free frames).  When the PI=1 request cannot be granted,
  the *swapper* is invoked: the largest other resident process is
  swapped out entirely (its frames freed, the process suspended until
  memory frees up); "The swapper is never invoked by a request whose
  priority is > 1."  LOCKed pages ride above the target, as under
  :class:`~repro.vm.policies.cd.CDPolicy`: a shrinking grant and an
  UNLOCK shed only unlocked pages, so one process with ample frames
  replays exactly as uniprogrammed CD.
* **WS processes** maintain their working sets; load control deactivates
  (swaps out) the process with the largest working set when total
  demand exceeds physical memory — Denning's classical rule.

Faults, swaps, completion time, and memory utilization are reported per
process and in aggregate, so CD's directive-driven control can be
compared with WS load control on identical workload mixes.
"""

from __future__ import annotations

import enum
import heapq
import math
import random
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tracegen.events import DirectiveEvent, DirectiveKind, ReferenceTrace
from repro.vm.metrics import FAULT_SERVICE_REFERENCES


class ProcessState(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"  # waiting out a page-fault service
    SWAPPED = "swapped"  # evicted wholesale by the swapper
    DONE = "done"


@dataclass
class ProcessStats:
    name: str
    policy: str
    references: int = 0
    faults: int = 0
    swapped_out: int = 0
    finish_time: Optional[int] = None
    mem_integral: int = 0  # Σ resident over its executed references

    @property
    def mem_average(self) -> float:
        if self.references == 0:
            return 0.0
        return self.mem_integral / self.references


#: ``next_directive`` of a process with nothing left to fire
_NEVER = 1 << 62


class _Process:
    """One program sharing the machine."""

    def __init__(self, name: str, trace: ReferenceTrace, mode: str, tau: int):
        if mode not in ("cd", "ws"):
            raise ValueError("mode must be 'cd' or 'ws'")
        self.name = name
        self.trace = trace
        self.mode = mode
        self.tau = tau
        #: the reference string, read as Python ints
        self.pages = memoryview(np.ascontiguousarray(trace.pages))
        self.length = len(self.pages)
        #: next reference index — also the process's own (local) time,
        #: which the WS window counts in
        self.position = 0
        self.event_index = 0
        #: position of the next directive to fire (CD processes only)
        self.next_directive = (
            trace.directives[0].position
            if mode == "cd" and trace.directives
            else _NEVER
        )
        self.state = ProcessState.READY
        self.wake_time = 0
        self.resident: "OrderedDict[int, None]" = OrderedDict()
        self.target = 1  # CD allocation target
        self.last_ref: Dict[int, int] = {}  # WS: page -> local time
        #: CD soft pins: page -> site, and per-site PJ (for release order)
        self.locked_site_of: Dict[int, int] = {}
        self.site_pages: Dict[int, set] = {}
        self.site_pj: Dict[int, int] = {}
        self.stats = ProcessStats(name=name, policy=mode.upper())

    @property
    def done(self) -> bool:
        return self.position >= self.length

    @property
    def resident_size(self) -> int:
        return len(self.resident)

    def locked_resident(self) -> int:
        if not self.locked_site_of:
            return 0
        return sum(1 for p in self.resident if p in self.locked_site_of)

    def demand(self) -> int:
        """Frames the process currently wants resident."""
        if self.mode == "cd":
            return max(self.target + self.locked_resident(), 1)
        return max(self.ws_size(), 1)

    def ws_size(self) -> int:
        """Pages referenced in the last τ references: the simulator
        expires every older one as the window slides, so ``last_ref``
        holds exactly the window."""
        return len(self.last_ref)


@dataclass
class MultiprogResult:
    total_frames: int
    makespan: int
    processes: List[ProcessStats]
    swaps: int
    mem_utilization: float  # mean fraction of frames occupied

    @property
    def total_faults(self) -> int:
        return sum(p.faults for p in self.processes)

    @property
    def throughput(self) -> float:
        """References completed per unit of virtual time."""
        if self.makespan == 0:
            return 0.0
        return sum(p.references for p in self.processes) / self.makespan

    def describe(self) -> str:
        lines = [
            f"{len(self.processes)} processes, {self.total_frames} frames: "
            f"makespan={self.makespan}, faults={self.total_faults}, "
            f"swaps={self.swaps}, util={self.mem_utilization:.2f}"
        ]
        for p in self.processes:
            lines.append(
                f"  {p.name:10s} [{p.policy}] PF={p.faults:6d} "
                f"MEM={p.mem_average:6.2f} done@{p.finish_time}"
            )
        return "\n".join(lines)


class MultiprogSimulator:
    """Round-robin multiprogramming over a shared frame pool.

    Bookkeeping is O(1) per reference: a running count of occupied
    frames, one possible WS expiry per reference (the page referenced
    exactly τ local references ago), and the position of each process's
    next directive.
    """

    def __init__(
        self,
        workloads: List[Tuple[str, ReferenceTrace]],
        total_frames: int,
        mode: str = "cd",
        quantum: int = 500,
        fault_service: int = FAULT_SERVICE_REFERENCES,
        ws_tau: int = 1500,
        max_time: int = 500_000_000,
        tracer=None,
        sample_interval: int = 1000,
    ):
        if total_frames < len(workloads):
            raise ValueError("need at least one frame per process")
        if quantum < 1:
            raise ValueError("quantum must be positive")
        if ws_tau < 1:
            raise ValueError("ws_tau must be positive")
        if sample_interval < 1:
            raise ValueError("sample_interval must be positive")
        self.total_frames = total_frames
        self.quantum = quantum
        self.fault_service = fault_service
        self.max_time = max_time
        self.processes = [
            _Process(name, trace, mode, ws_tau) for name, trace in workloads
        ]
        self.clock = 0
        self.swaps = 0
        self._used = 0  # Σ resident over all processes
        self._util_integral = 0.0
        self._util_samples = 0
        #: optional :class:`repro.obs.Tracer`; events carry ``proc``
        self.tracer = tracer
        self.sample_interval = sample_interval

    # -- memory accounting -------------------------------------------------

    @property
    def frames_used(self) -> int:
        return self._used

    @property
    def frames_free(self) -> int:
        return self.total_frames - self._used

    def _evict(self, process: _Process, page: int) -> None:
        del process.resident[page]
        self._used -= 1

    # -- main loop -----------------------------------------------------------

    def run(self) -> MultiprogResult:
        while self.clock < self.max_time:
            process = self._pick_ready()
            if process is None:
                if all(p.state is ProcessState.DONE for p in self.processes):
                    break
                self._advance_to_next_wake()
                continue
            self._run_quantum(process)
        util = self._util_integral / self._util_samples if self._util_samples else 0.0
        return MultiprogResult(
            total_frames=self.total_frames,
            makespan=self.clock,
            processes=[p.stats for p in self.processes],
            swaps=self.swaps,
            mem_utilization=util,
        )

    def _pick_ready(self) -> Optional[_Process]:
        self._wake_sleepers()
        ready = [p for p in self.processes if p.state is ProcessState.READY]
        if not ready:
            return None
        # Round robin: the ready process that has executed the least.
        return min(ready, key=lambda p: p.stats.references)

    def _wake_sleepers(self) -> None:
        for p in self.processes:
            if p.state is ProcessState.BLOCKED and p.wake_time <= self.clock:
                p.state = ProcessState.READY
            elif p.state is ProcessState.SWAPPED:
                # Swap back in when a fair share of memory is free.
                share = self.total_frames // max(len(self.processes), 1)
                if self.frames_free >= max(1, min(share, p.demand())):
                    p.state = ProcessState.READY
                    self._emit_resume(p)

    def _advance_to_next_wake(self) -> None:
        pending = [
            p.wake_time
            for p in self.processes
            if p.state is ProcessState.BLOCKED
        ]
        if pending:
            self.clock = max(self.clock + 1, min(pending))
            return
        # Only SWAPPED processes remain: force the smallest back in.
        candidates = [p for p in self.processes if p.state is ProcessState.SWAPPED]
        if candidates:
            victim = min(candidates, key=lambda p: p.demand())
            victim.state = ProcessState.READY
            self._emit_resume(victim)
        self.clock += 1

    def _run_quantum(self, process: _Process) -> None:
        """Run ``process`` for up to a quantum of references: until it
        faults, finishes or a directive swaps it out."""
        stats = process.stats
        resident = process.resident
        pages = process.pages
        total = self.total_frames
        tracer = self.tracer
        cd = process.mode == "cd"
        for _ in range(self.quantum):
            position = process.position
            if position >= process.length:
                break
            if position >= process.next_directive:
                self._fire_directives(process)
                if process.state is not ProcessState.READY:
                    return  # a directive swapped us out
            page = pages[position]
            process.position = position + 1
            stats.references += 1
            if cd and page in resident:
                resident.move_to_end(page)
                faulted = False
            elif cd:
                self._cd_fault(process, page)
                faulted = True
            else:
                faulted = self._ws_access(process, page)
            stats.mem_integral += len(resident)
            if faulted and tracer is not None:
                self._emit_fault(process, page)
            self.clock += 1
            self._util_integral += self._used / total
            self._util_samples += 1
            if tracer is not None and self.clock % self.sample_interval == 0:
                from repro.obs.events import ResidentSample

                tracer.emit(ResidentSample(time=self.clock, resident=self._used))
            if faulted:
                stats.faults += 1
                process.state = ProcessState.BLOCKED
                process.wake_time = self.clock + self.fault_service
                return
        if process.done:
            process.state = ProcessState.DONE
            stats.finish_time = self.clock
            self._release_all(process)

    def _emit_fault(self, process: _Process, page: int) -> None:
        from repro.obs.events import Fault

        self.tracer.emit(
            Fault(
                time=self.clock,
                page=page,
                resident=process.resident_size,
                proc=process.name,
            )
        )

    def _emit_resume(self, process: _Process) -> None:
        if self.tracer is not None:
            from repro.obs.events import Resume

            self.tracer.emit(Resume(time=self.clock, proc=process.name))

    # -- referencing -----------------------------------------------------------

    def _cd_fault(self, process: _Process, page: int) -> None:
        self._claim_frame(process, exclude_page=page)
        process.resident[page] = None
        self._used += 1
        # Stay within the CD allocation target; pinned pages ride above
        # it (the pin is precisely for surviving a denied allocation).
        self._shed_to_target(process, keep=page)

    def _shed_to_target(self, process: _Process, keep: Optional[int] = None) -> None:
        """Evict LRU unlocked pages until at most ``target`` unlocked
        pages remain; the page being referenced right now (``keep``)
        is never a candidate."""
        resident = process.resident
        locked = process.locked_site_of
        excess = len(resident) - process.locked_resident() - process.target
        if excess <= 0:
            return
        victims = []
        for p in resident:  # LRU -> MRU
            if p not in locked and p != keep:
                victims.append(p)
                if len(victims) == excess:
                    break
        for p in victims:
            del resident[p]
        self._used -= len(victims)

    def _ws_access(self, process: _Process, page: int) -> bool:
        now = process.position  # local time of this reference, from 1
        last_ref = process.last_ref
        previous = last_ref.get(page)
        fault = previous is None or (now - previous) > process.tau
        last_ref[page] = now
        # Slide the window: the only page that can leave it is the one
        # referenced at local time now - τ, unless it was used since.
        boundary = now - process.tau
        if boundary > 0:
            old = process.pages[boundary - 1]
            if last_ref.get(old) == boundary:
                del last_ref[old]
                if old in process.resident:
                    self._evict(process, old)
        if not fault and page in process.resident:
            process.resident.move_to_end(page)
            return False
        self._claim_frame(process, exclude_page=page)
        process.resident[page] = None
        self._used += 1
        return True

    def _claim_frame(self, process: _Process, exclude_page: int) -> None:
        """Make room for one incoming page."""
        if self.frames_free > 0:
            return
        # First shed our own excess (CD: over target; WS: out-of-window
        # pages were already shed).
        if process.mode == "cd" and process.resident_size >= process.target:
            if process.resident:
                self._evict(process, next(iter(process.resident)))
                return
        # Steal from the process with the largest surplus over demand.
        surplus_holder = max(
            (p for p in self.processes if p.resident_size > 0),
            key=lambda p: p.resident_size - p.demand(),
            default=None,
        )
        if surplus_holder is not None and (
            surplus_holder.resident_size - surplus_holder.demand() > 0
        ):
            victim = next(
                (
                    p
                    for p in surplus_holder.resident
                    if p not in surplus_holder.locked_site_of
                ),
                None,
            )
            if victim is not None:
                self._evict(surplus_holder, victim)
                if surplus_holder.mode == "ws":
                    surplus_holder.last_ref.pop(victim, None)
                return
        # Memory is genuinely over-committed: load control.
        self._load_control(requester=process)
        if self.frames_free <= 0 and process.resident:
            victim = next(iter(process.resident))
            self._evict(process, victim)
            if process.mode == "ws":
                process.last_ref.pop(victim, None)

    def _load_control(self, requester: _Process) -> None:
        """Swap out the largest other active process."""
        candidates = [
            p
            for p in self.processes
            if p is not requester
            and p.state in (ProcessState.READY, ProcessState.BLOCKED)
            and p.resident_size > 0
        ]
        if not candidates:
            return
        victim = max(candidates, key=lambda p: p.resident_size)
        self._swap_out(victim)

    def _swap_out(self, victim: _Process) -> None:
        self._release_all(victim)
        victim.state = ProcessState.SWAPPED
        victim.stats.swapped_out += 1
        self.swaps += 1
        if self.tracer is not None:
            from repro.obs.events import Suspend

            self.tracer.emit(
                Suspend(time=self.clock, reason="swap", proc=victim.name)
            )

    def _release_all(self, process: _Process) -> None:
        self._used -= len(process.resident)
        process.resident.clear()
        if process.mode == "ws":
            process.last_ref.clear()
        # Swapping out (or finishing) drops all pins: "the operating
        # system is entitled to release the locked pages".
        process.locked_site_of.clear()
        process.site_pages.clear()
        process.site_pj.clear()

    # -- directives ------------------------------------------------------------

    def _fire_directives(self, process: _Process) -> None:
        """Fire every directive due at the process's position (CD only);
        an ALLOCATE that swaps the process out defers the rest."""
        directives = process.trace.directives
        while (
            process.event_index < len(directives)
            and directives[process.event_index].position <= process.position
        ):
            event = directives[process.event_index]
            process.event_index += 1
            if event.kind is DirectiveKind.ALLOCATE:
                self._process_allocate(process, event)
                if process.state is not ProcessState.READY:
                    break
            elif event.kind is DirectiveKind.LOCK:
                self._process_lock(process, event)
            elif event.kind is DirectiveKind.UNLOCK:
                self._process_unlock(process, event)
        process.next_directive = (
            directives[process.event_index].position
            if process.event_index < len(directives)
            else _NEVER
        )

    @staticmethod
    def _process_lock(process: _Process, event: DirectiveEvent) -> None:
        site = event.site
        # Re-executing a LOCK at the same site moves its pins.
        for page in process.site_pages.pop(site, set()):
            if process.locked_site_of.get(page) == site:
                del process.locked_site_of[page]
        process.site_pj.pop(site, None)
        pages = set()
        for page in event.lock_pages:
            if page in process.locked_site_of:
                continue
            process.locked_site_of[page] = site
            pages.add(page)
        if pages:
            process.site_pages[site] = pages
            process.site_pj[site] = event.priority_index

    def _process_unlock(self, process: _Process, event: DirectiveEvent) -> None:
        for page in event.lock_pages:
            site = process.locked_site_of.pop(page, None)
            if site is None:
                continue
            site_set = process.site_pages.get(site)
            if site_set is not None:
                site_set.discard(page)
                if not site_set:
                    process.site_pages.pop(site, None)
                    process.site_pj.pop(site, None)
        # Unpinned pages count against the target again.
        self._shed_to_target(process)

    def _process_allocate(self, process: _Process, event: DirectiveEvent) -> None:
        reachable = process.resident_size + self.frames_free
        granted: Optional[int] = None
        for request in event.requests:
            if request.pages <= reachable:
                granted = request.pages
                break
        if granted is None:
            innermost = event.requests[-1]
            if innermost.priority_index > 1:
                return  # keep the current allocation (Figure 6)
            # PI = 1 denied: invoke the swapper on another process.
            self._load_control(requester=process)
            reachable = process.resident_size + self.frames_free
            granted = min(innermost.pages, max(reachable, 1))
        process.target = max(granted, 1)
        # A shrinking grant evicts LRU unlocked pages; pins ride above it.
        self._shed_to_target(process)


# =====================================================================
# Heavy-traffic pool scheduling: profiles, admission policies, the DES
# =====================================================================


@dataclass(frozen=True)
class JobProfile:
    """Everything the pool needs to replay one program exactly.

    A process admitted at a fixed allocation ``m`` and never resized
    pages exactly like single-process LRU: reference ``t`` faults iff
    its stack distance exceeds ``m``.  A *suspension* flushes the
    resident set; after resuming at position ``f`` the reference
    faults iff ``prev[t] < f`` (its page left with the flush) **or**
    the stack distance exceeds the allocation — both precomputable, so
    the scheduler advances a process by whole compute bursts with one
    vectorized scan instead of a per-reference loop.
    """

    name: str
    length: int
    distinct: int
    prev: np.ndarray = field(repr=False)  # previous occurrence, -1 cold
    distances: np.ndarray = field(repr=False)  # LRU stack distances
    knee_frames: int  # allocation maximizing g(m)/m
    ws_frames: int  # mean WS size at the control window, rounded up
    cd_min_frames: int  # largest PI=1 ALLOCATE request (must-have)
    cd_pref_frames: int  # largest request of any priority (preferred)
    cd_chain: Tuple[int, ...] = ()  # distinct ALLOCATE sizes, descending

    @classmethod
    def from_trace(
        cls,
        trace: ReferenceTrace,
        name: Optional[str] = None,
        ws_tau: int = 1500,
        max_refs: Optional[int] = None,
    ) -> "JobProfile":
        """Profile one trace (optionally truncated to ``max_refs``)."""
        from repro.vm.analyzers import LRUSweep, WSSweep, previous_occurrences

        pages = trace.pages
        directives = trace.directives
        if max_refs is not None and len(pages) > max_refs:
            pages = pages[:max_refs]
            directives = [d for d in directives if d.position < max_refs]
        sweep = LRUSweep(pages, program=trace.program_name)
        ws = WSSweep(pages, program=trace.program_name)
        knee = sweep.knee_frames()
        cd_min, cd_pref, cd_chain = _directive_demand(directives, fallback=knee)
        distinct = sweep.max_useful_frames
        cap = max(distinct, 1)
        return cls(
            name=name or trace.program_name,
            length=int(len(pages)),
            distinct=int(distinct),
            prev=previous_occurrences(pages),
            distances=sweep._distances,
            knee_frames=int(knee),
            ws_frames=int(ws.mean_frames(ws_tau)),
            cd_min_frames=int(max(1, min(cd_min, cap))),
            cd_pref_frames=int(max(1, min(cd_pref, cap))),
            cd_chain=tuple(
                sorted({max(1, min(s, cap)) for s in cd_chain}, reverse=True)
            ),
        )

    def faults_at(self, frames: int) -> int:
        """Single-process LRU fault count at a fixed allocation — the
        reference value the oracle's ``pool-faults`` check compares
        a never-suspended pool process against."""
        return int((self.distances > frames).sum())


def _directive_demand(
    directives: Sequence[DirectiveEvent], fallback: int
) -> Tuple[int, int, Tuple[int, ...]]:
    """(must-have, preferred, chain) frames from a trace's ALLOCATE
    chains.

    The must-have demand is the largest PI=1 request — the paper's
    "never denied" locality; the preferred demand is the largest
    request of any priority; the chain is every distinct request size,
    descending, because the CD policy grants only sizes the program
    actually named (Figure 6's else-chain walks the requests in order
    and takes the largest that fits — an in-between grant would leave
    the process sized for no locality at all).  Traces without
    ALLOCATE events fall back to the lifetime knee.
    """
    must, pref = 0, 0
    sizes: set = set()
    for event in directives:
        if event.kind is not DirectiveKind.ALLOCATE:
            continue
        for request in event.requests:
            pref = max(pref, request.pages)
            sizes.add(request.pages)
            if request.priority_index == 1:
                must = max(must, request.pages)
    if pref == 0:
        return fallback, fallback, (fallback,)
    if must == 0:
        must = pref
    pref = max(pref, must)
    sizes.update((must, pref))
    return must, pref, tuple(sorted(sizes, reverse=True))


# -- admission / load-control policies ----------------------------------------


class AdmissionPolicy:
    """Decides if (and at what allocation) a process enters the pool.

    ``allocation_for`` returns the frames to grant, or ``None`` to
    defer.  Grants are *reservations*: the pool subtracts them from
    the free-frame count at admission and returns them at departure or
    suspension, so conservation is enforced structurally — a policy
    cannot overcommit (grants are clamped to the free count by the
    pool as a final guard, and audited by the ``pool-*`` oracle
    checks).
    """

    name = "?"

    def allocation_for(
        self,
        profile: JobProfile,
        free: int,
        total: int,
        admitted: int,
        waiting: int = 0,
    ) -> Optional[int]:
        raise NotImplementedError

    def min_frames(self, profile: JobProfile, total: int) -> int:
        """The smallest allocation this policy would accept (used by
        preemption to size the hole a victim must leave)."""
        grant = self.allocation_for(profile, total, total, 0)
        return 1 if grant is None else grant

    def preemption_victim(
        self,
        profile: JobProfile,
        need: int,
        candidates: Sequence["_PoolProc"],
    ) -> Optional["_PoolProc"]:
        """A process to suspend so an arrival needing ``need`` frames
        can enter; ``None`` (default) disables preemption."""
        return None


class UncontrolledAdmission(AdmissionPolicy):
    """The thrash-prone baseline: no admission control at all.  Every
    process that can get a single frame gets in, at an even share of
    total memory over everything admitted *or waiting*.  Under heavy
    traffic that share collapses toward one frame per process, every
    reference faults, and throughput falls off the classic thrashing
    cliff — the figure Denning's load-control line of work exists to
    prevent."""

    name = "uncontrolled"

    def allocation_for(self, profile, free, total, admitted, waiting=0):
        if free < 1:
            return None
        share = max(1, total // (admitted + waiting + 1))
        return max(1, min(share, free, profile.distinct or 1))


class KneeAdmission(AdmissionPolicy):
    """Denning knee-based load control: each process runs at the knee
    of its lifetime curve (the allocation maximizing g(m)/m), and
    nothing is admitted past the pool."""

    name = "knee"

    def allocation_for(self, profile, free, total, admitted, waiting=0):
        want = max(1, min(profile.knee_frames, profile.distinct or 1, total))
        return want if want <= free else None


class WSAdmission(AdmissionPolicy):
    """Working-set-estimate control: reserve the process's mean WS
    size at the control window; defer when it does not fit."""

    name = "ws"

    def allocation_for(self, profile, free, total, admitted, waiting=0):
        want = max(1, min(profile.ws_frames, profile.distinct or 1, total))
        return want if want <= free else None


class CDAdmission(AdmissionPolicy):
    """Compiler-directed control: admission is sized by the program's
    own ALLOCATE chain.  Figure 6's else-chain is walked top-down and
    the largest request that fits is granted — never an in-between
    amount, which would size the process for no locality the compiler
    named and leave it faulting on every iteration.  When even the
    PI=1 must-have does not fit, the paper's swapper may suspend a
    strictly larger resident process ("the swapper is never invoked by
    a request whose priority is > 1")."""

    name = "cd"

    def allocation_for(self, profile, free, total, admitted, waiting=0):
        need = max(1, min(profile.cd_min_frames, total))
        if free < need:
            return None
        chain = profile.cd_chain or (profile.cd_pref_frames,)
        for size in chain:  # descending: first fit is the largest fit
            grant = max(need, min(size, total))
            if grant <= free:
                return grant
        return need

    def min_frames(self, profile, total):
        return max(1, min(profile.cd_min_frames, total))

    def preemption_victim(self, profile, need, candidates):
        # Swap the largest allocation, but only for a strictly smaller
        # newcomer: total demand drops monotonically, so preemption
        # cannot ping-pong.
        eligible = [p for p in candidates if p.allocation > need]
        if not eligible:
            return None
        return max(eligible, key=lambda p: (p.allocation, p.name))


#: name -> policy class; the registry `repro multiprog --policies` and
#: the load-control experiment draw from.
ADMISSION_POLICIES: Dict[str, type] = {
    cls.name: cls
    for cls in (UncontrolledAdmission, KneeAdmission, WSAdmission, CDAdmission)
}


def admission_policy(spec: Union[str, AdmissionPolicy]) -> AdmissionPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(spec, AdmissionPolicy):
        return spec
    try:
        return ADMISSION_POLICIES[spec]()
    except KeyError:
        known = ", ".join(sorted(ADMISSION_POLICIES))
        raise ValueError(
            f"unknown admission policy {spec!r}; known: {known}"
        ) from None


# -- the event-driven pool -----------------------------------------------------


class PoolState(enum.Enum):
    DEFERRED = "deferred"  # waiting for admission (or re-admission)
    READY = "ready"  # admitted, waiting for a CPU
    RUNNING = "running"  # executing a compute burst
    BLOCKED = "blocked"  # waiting out a page-fault service
    SUSPENDED = "suspended"  # preempted: zero frames, back in the queue
    DONE = "done"


@dataclass
class PoolProcessRecord:
    """Per-process outcome, kept after the process object is retired."""

    name: str
    program: str
    arrival: int
    admit_time: Optional[int]
    finish_time: Optional[int]
    references: int
    faults: int
    allocation: int  # last granted allocation
    deferrals: int
    suspensions: int
    service: int  # total references the job would execute

    @property
    def response_time(self) -> Optional[int]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival

    @property
    def slowdown(self) -> Optional[float]:
        response = self.response_time
        if response is None or self.service == 0:
            return None
        return response / self.service


class _PoolProc:
    """Mutable per-process scheduler state."""

    __slots__ = (
        "name",
        "profile",
        "arrival",
        "state",
        "position",
        "flush",
        "allocation",
        "faults",
        "deferrals",
        "suspensions",
        "admit_time",
        "finish_time",
        "refs_executed",
        "_burst",
    )

    def __init__(self, name: str, profile: JobProfile, arrival: int):
        self.name = name
        self.profile = profile
        self.arrival = arrival
        self.state = PoolState.DEFERRED
        self.position = 0
        self.flush = 0
        self.allocation = 0
        self.faults = 0
        self.deferrals = 0
        self.suspensions = 0
        self.admit_time: Optional[int] = None
        self.finish_time: Optional[int] = None
        self.refs_executed = 0

    def record(self) -> PoolProcessRecord:
        return PoolProcessRecord(
            name=self.name,
            program=self.profile.name,
            arrival=self.arrival,
            admit_time=self.admit_time,
            finish_time=self.finish_time,
            references=self.refs_executed,
            faults=self.faults,
            allocation=self.allocation,
            deferrals=self.deferrals,
            suspensions=self.suspensions,
            service=self.profile.length,
        )


@dataclass
class PoolResult:
    """Aggregate outcome of one load-controlled pool run."""

    policy: str
    total_frames: int
    cpus: int
    elapsed: int
    arrivals: int
    completed: int
    executed_refs: int
    faults: int
    deferrals: int
    suspensions: int
    peak_admitted: int
    frame_time: float  # ∫ frames_used dt
    busy_time: float  # ∫ busy CPUs dt
    records: List[PoolProcessRecord]
    violations: List[str]

    @property
    def throughput(self) -> float:
        """References executed per unit of virtual time (≤ cpus)."""
        if self.elapsed == 0:
            return 0.0
        return self.executed_refs / self.elapsed

    @property
    def normalized_throughput(self) -> float:
        """Throughput as a fraction of total CPU capacity."""
        if self.cpus == 0:
            return 0.0
        return self.throughput / self.cpus

    @property
    def job_throughput(self) -> float:
        if self.elapsed == 0:
            return 0.0
        return self.completed / self.elapsed

    @property
    def utilization(self) -> float:
        """Mean fraction of the frame pool reserved by admitted work."""
        if self.elapsed == 0 or self.total_frames == 0:
            return 0.0
        return self.frame_time / (self.elapsed * self.total_frames)

    def response_times(self) -> List[int]:
        return [
            r.response_time
            for r in self.records
            if r.response_time is not None
        ]

    @property
    def mean_response(self) -> float:
        times = self.response_times()
        return float(np.mean(times)) if times else float("inf")

    @property
    def p95_response(self) -> float:
        times = self.response_times()
        return float(np.percentile(times, 95)) if times else float("inf")

    @property
    def mean_slowdown(self) -> float:
        downs = [r.slowdown for r in self.records if r.slowdown is not None]
        return float(np.mean(downs)) if downs else float("inf")

    def describe(self) -> str:
        return (
            f"{self.policy}: {self.completed}/{self.arrivals} jobs over "
            f"{self.elapsed} time units; thru={self.normalized_throughput:.3f} "
            f"resp={self.mean_response:.0f} faults={self.faults} "
            f"susp={self.suspensions} util={self.utilization:.2f}"
        )


class LoadControlledPool:
    """Event-driven multiprogramming over a shared frame pool.

    ``arrivals`` is a time-ordered sequence of ``(time, profile)``
    pairs (see :func:`poisson_arrivals`).  ``cpus`` processors execute
    compute bursts of up to ``quantum`` references; a page fault ends
    the burst and blocks the process for ``fault_service`` time units
    (service is overlapped — other processes keep the CPUs busy).
    Admission, deferral, suspension, and resumption are delegated to
    the :class:`AdmissionPolicy`; every decision is traced through
    ``repro.obs`` (Admit/Defer/Suspend/Resume/Depart/PoolSample).

    Memory is conserved *by construction*: a grant is debited from the
    free count at admission, credited back at departure or suspension,
    and never exceeds the free count.  :meth:`run` returns a
    :class:`PoolResult` whose ``violations`` list any breach the
    internal audit observed (it stays empty; the oracle asserts so).
    """

    def __init__(
        self,
        arrivals: Iterable[Tuple[int, JobProfile]],
        total_frames: int,
        policy: Union[str, AdmissionPolicy] = "knee",
        *,
        cpus: int = 1,
        quantum: int = 2000,
        fault_service: int = FAULT_SERVICE_REFERENCES,
        horizon: Optional[int] = None,
        tracer=None,
        sample_interval: int = 5000,
        max_events: Optional[int] = None,
    ):
        if total_frames < 1:
            raise ValueError("total_frames must be positive")
        if cpus < 1:
            raise ValueError("cpus must be positive")
        if quantum < 1:
            raise ValueError("quantum must be positive")
        if sample_interval < 1:
            raise ValueError("sample_interval must be positive")
        self.total_frames = total_frames
        self.policy = admission_policy(policy)
        self.cpus = cpus
        self.quantum = quantum
        self.fault_service = fault_service
        self.horizon = horizon
        self.tracer = tracer
        self.sample_interval = sample_interval
        self.clock = 0
        self.frames_used = 0
        self._procs: List[_PoolProc] = []
        self._ready: "deque[_PoolProc]" = deque()
        self._deferred: "deque[_PoolProc]" = deque()
        self._idle_cpus = cpus
        self._heap: List[tuple] = []
        self._seq = 0
        self._violations: List[str] = []
        self._frame_time = 0.0
        self._busy_time = 0.0
        self._last_t = 0
        self._next_sample = 0
        self._faults = 0
        self._deferrals = 0
        self._suspensions = 0
        self._completed = 0
        self._executed = 0
        self._peak_admitted = 0
        arrivals = sorted(arrivals, key=lambda a: a[0])
        for k, (when, profile) in enumerate(arrivals):
            proc = _PoolProc(f"{profile.name}#{k}", profile, int(when))
            self._procs.append(proc)
            self._push(int(when), "arrive", proc)
        if max_events is None:
            # worst case every reference faults: one burst + one wake
            # per reference, plus the arrival itself
            budget = sum(2 * p.length + 8 for _, p in arrivals)
            max_events = max(100_000, 4 * budget)
        self.max_events = max_events

    # -- plumbing ------------------------------------------------------------

    def _push(self, when: int, action: str, proc: Optional[_PoolProc]) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, action, proc))

    def _emit(self, event) -> None:
        if self.tracer is not None:
            self.tracer.emit(event)

    def _advance_time(self, now: int) -> None:
        dt = now - self._last_t
        if dt > 0:
            self._frame_time += self.frames_used * dt
            self._busy_time += (self.cpus - self._idle_cpus) * dt
            self._last_t = now
        self.clock = now
        if self.tracer is not None and now >= self._next_sample:
            self._sample()
            self._next_sample = now + self.sample_interval

    def _sample(self) -> None:
        from repro.obs.events import PoolSample

        census: Dict[PoolState, int] = {}
        for proc in self._procs:
            if proc.arrival > self.clock:
                continue  # not in the system yet
            census[proc.state] = census.get(proc.state, 0) + 1
        admitted = (
            census.get(PoolState.READY, 0)
            + census.get(PoolState.RUNNING, 0)
            + census.get(PoolState.BLOCKED, 0)
        )
        self._emit(
            PoolSample(
                time=self.clock,
                used=self.frames_used,
                free=self.total_frames - self.frames_used,
                admitted=admitted,
                deferred=census.get(PoolState.DEFERRED, 0),
                suspended=census.get(PoolState.SUSPENDED, 0),
            )
        )

    @property
    def frames_free(self) -> int:
        return self.total_frames - self.frames_used

    def _admitted_count(self) -> int:
        return sum(
            1
            for p in self._procs
            if p.state
            in (PoolState.READY, PoolState.RUNNING, PoolState.BLOCKED)
        )

    # -- admission -----------------------------------------------------------

    def _try_admit(self, proc: _PoolProc, fresh: bool) -> bool:
        from repro.obs.events import Admit, Resume

        grant = self.policy.allocation_for(
            proc.profile, self.frames_free, self.total_frames,
            self._admitted_count(), waiting=len(self._deferred),
        )
        if grant is None and fresh:
            grant = self._preempt_for(proc)
        if grant is None:
            return False
        grant = max(1, min(grant, self.frames_free))
        if grant > self.frames_free:  # structurally impossible; audit anyway
            self._violations.append(
                f"grant {grant} exceeds free {self.frames_free}"
            )
            return False
        resumed = proc.suspensions > 0
        self.frames_used += grant
        proc.allocation = grant
        proc.state = PoolState.READY
        if proc.admit_time is None:
            proc.admit_time = self.clock
        self._ready.append(proc)
        self._peak_admitted = max(self._peak_admitted, self._admitted_count())
        if resumed:
            self._emit(Resume(time=self.clock, proc=proc.name))
        self._emit(
            Admit(
                time=self.clock,
                proc=proc.name,
                frames=grant,
                waited=self.clock - proc.arrival,
            )
        )
        self._check_frames()
        return True

    def _preempt_for(self, proc: _PoolProc) -> Optional[int]:
        """CD-style swapper: suspend a larger resident process so this
        one's must-have request fits.  Returns the grant or None."""
        need = self.policy.min_frames(proc.profile, self.total_frames)
        candidates = [
            p
            for p in self._procs
            if p.state in (PoolState.READY, PoolState.BLOCKED)
            and p.suspensions == 0
        ]
        victim = self.policy.preemption_victim(proc.profile, need, candidates)
        if victim is None:
            return None
        self._suspend(victim)
        if self.frames_free >= need:
            return need
        return None

    def _suspend(self, victim: _PoolProc) -> None:
        from repro.obs.events import Suspend

        released = victim.allocation
        self.frames_used -= released
        victim.allocation = 0
        victim.flush = victim.position  # resident set is lost
        victim.suspensions += 1
        self._suspensions += 1
        if victim.state is PoolState.READY:
            self._ready.remove(victim)
            victim.state = PoolState.SUSPENDED
            self._deferred.appendleft(victim)
        else:  # BLOCKED: its wake event re-routes it to the queue
            victim.state = PoolState.SUSPENDED
        self._emit(
            Suspend(
                time=self.clock,
                reason="preempt",
                proc=victim.name,
                frames=released,
            )
        )
        self._check_frames()

    def _drain_deferred(self) -> None:
        """FIFO re-admission: stop at the first process that still
        does not fit (head-of-line order is what keeps knee-based
        control from dribbling tiny grants under pressure)."""
        while self._deferred:
            head = self._deferred[0]
            if not self._try_admit(head, fresh=False):
                break
            self._deferred.popleft()

    def _defer(self, proc: _PoolProc, reason: str) -> None:
        from repro.obs.events import Defer

        proc.state = PoolState.DEFERRED
        proc.deferrals += 1
        self._deferrals += 1
        self._deferred.append(proc)
        self._emit(
            Defer(
                time=self.clock,
                proc=proc.name,
                frames=self.policy.min_frames(
                    proc.profile, self.total_frames
                ),
                reason=reason,
            )
        )

    # -- execution -----------------------------------------------------------

    def _refs_until_fault(self, proc: _PoolProc) -> Optional[int]:
        """Offset (from the current position) of the next faulting
        reference within this burst's lookahead, or None."""
        profile = proc.profile
        start = proc.position
        limit = min(profile.length, start + self.quantum)
        m = proc.allocation
        f = proc.flush
        chunk = 4096
        lo = start
        while lo < limit:
            hi = min(limit, lo + chunk)
            mask = (profile.distances[lo:hi] > m) | (profile.prev[lo:hi] < f)
            hits = np.flatnonzero(mask)
            if hits.size:
                return int(lo - start + hits[0])
            lo = hi
        return None

    def _dispatch(self) -> None:
        while self._idle_cpus > 0 and self._ready:
            proc = self._ready.popleft()
            if proc.state is not PoolState.READY:
                continue  # retired while queued
            stop = self._refs_until_fault(proc)
            remaining = proc.profile.length - proc.position
            if stop is None:
                burst = min(self.quantum, remaining)
                faulted = False
            else:
                burst = stop + 1  # run the hits, then the faulting ref
                faulted = True
            proc.state = PoolState.RUNNING
            self._idle_cpus -= 1
            self._push(self.clock + burst, "burst", proc)
            # stash burst metadata on the proc (one burst in flight max)
            proc._burst = (burst, faulted)  # type: ignore[attr-defined]

    def _finish_burst(self, proc: _PoolProc) -> None:
        burst, faulted = proc._burst  # type: ignore[attr-defined]
        self._idle_cpus += 1
        proc.position += burst
        proc.refs_executed += burst
        self._executed += burst
        if faulted:
            proc.faults += 1
            self._faults += 1
            proc.state = PoolState.BLOCKED
            self._push(self.clock + self.fault_service, "wake", proc)
            return
        if proc.position >= proc.profile.length:
            self._depart(proc)
            return
        proc.state = PoolState.READY
        self._ready.append(proc)

    def _wake(self, proc: _PoolProc) -> None:
        if proc.state is PoolState.SUSPENDED:
            # Preempted while its fault was in service: it joins the
            # queue only now that the page-in completed.
            self._deferred.appendleft(proc)
            return
        if proc.position >= proc.profile.length:
            self._depart(proc)
            return
        proc.state = PoolState.READY
        self._ready.append(proc)

    def _depart(self, proc: _PoolProc) -> None:
        from repro.obs.events import Depart

        released = proc.allocation
        self.frames_used -= released
        proc.state = PoolState.DONE
        proc.finish_time = self.clock
        self._completed += 1
        self._emit(
            Depart(
                time=self.clock,
                proc=proc.name,
                frames=released,
                refs=proc.refs_executed,
                faults=proc.faults,
            )
        )
        self._check_frames()
        self._drain_deferred()

    def _check_frames(self) -> None:
        if not 0 <= self.frames_used <= self.total_frames:
            self._violations.append(
                f"t={self.clock}: frames_used={self.frames_used} "
                f"outside [0, {self.total_frames}]"
            )

    # -- main loop -----------------------------------------------------------

    def run(self) -> PoolResult:
        events = 0
        while self._heap:
            when = self._heap[0][0]
            if self.horizon is not None and when > self.horizon:
                break
            events += 1
            if events > self.max_events:
                raise RuntimeError(
                    f"pool exceeded its event budget ({self.max_events}); "
                    "lower the load or raise max_events"
                )
            when, _seq, action, proc = heapq.heappop(self._heap)
            self._advance_time(when)
            if action == "arrive":
                if not self._try_admit(proc, fresh=True):
                    self._defer(proc, reason="no-frames")
            elif action == "burst":
                self._finish_burst(proc)
            elif action == "wake":
                self._wake(proc)
            self._dispatch()
        if self.horizon is not None:
            elapsed = self.horizon
            self._advance_time(self.horizon)
        else:
            elapsed = self.clock
        self._audit()
        return PoolResult(
            policy=self.policy.name,
            total_frames=self.total_frames,
            cpus=self.cpus,
            elapsed=elapsed,
            arrivals=len(self._procs),
            completed=self._completed,
            executed_refs=self._executed,
            faults=self._faults,
            deferrals=self._deferrals,
            suspensions=self._suspensions,
            peak_admitted=self._peak_admitted,
            frame_time=self._frame_time,
            busy_time=self._busy_time,
            records=[p.record() for p in self._procs],
            violations=list(self._violations),
        )

    def _audit(self) -> None:
        """Closing conservation audit (the oracle asserts it is clean)."""
        reserved = 0
        for proc in self._procs:
            if proc.state in (
                PoolState.READY,
                PoolState.RUNNING,
                PoolState.BLOCKED,
            ):
                reserved += proc.allocation
            elif proc.state in (PoolState.SUSPENDED, PoolState.DEFERRED):
                if proc.allocation != 0:
                    self._violations.append(
                        f"{proc.name}: {proc.state.value} but holds "
                        f"{proc.allocation} frame(s)"
                    )
        if reserved != self.frames_used:
            self._violations.append(
                f"ledger says {self.frames_used} frames used but admitted "
                f"processes hold {reserved}"
            )


def poisson_arrivals(
    profiles: Sequence[JobProfile],
    load: float,
    horizon: int,
    seed: int = 0,
    cpus: int = 1,
) -> List[Tuple[int, JobProfile]]:
    """A stochastic arrival stream at offered load ``load``.

    Offered load is normalized CPU demand: λ·E[service]/cpus, so
    ``load=1.0`` saturates the processors when memory never stalls.
    The stream is a seeded Poisson process over a uniform job mix —
    the same ``(seed, load)`` always yields the same stream, which is
    what makes policy comparisons paired.
    """
    if not profiles:
        return []
    if not (math.isfinite(load) and load > 0):
        raise ValueError("load must be a finite positive number")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    rng = random.Random(seed)
    mean_service = sum(p.length for p in profiles) / len(profiles)
    rate = load * cpus / max(mean_service, 1.0)
    out: List[Tuple[int, JobProfile]] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t > horizon:
            break
        out.append((int(t), rng.choice(profiles)))
    return out
