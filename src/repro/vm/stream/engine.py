"""One-pass multi-policy streaming engine.

A single scan of the reference string feeds every requested policy at
once: the shared per-chunk kernel (:class:`~repro.vm.stream.kernels.
ChunkScan`) computes previous-occurrence/reuse-gap state one time, and
per-policy state machines consume it to produce the exact metrics the
event-driven :func:`repro.vm.simulator.simulate` would — faults, MEM,
and ST are byte-identical (asserted by the oracle's ``stream-*``
checks).  It streams only LRU, FIFO and WS, whose ``on_directive``
ignores directives, so it never reads them; CD replays through
:func:`repro.vm.fastsim.simulate_cd_fast` or
:class:`~repro.vm.policies.cd.CDPolicy`.

How each policy streams:

* **LRU(m)** — a reference faults iff its stack distance exceeds
  ``m``.  References with reuse gap ≤ m are guaranteed hits (the gap
  bounds the distance), so only the sparse candidate set needs the
  kernel's threshold queries.  Residency is ``min(distinct-so-far, m)``.
* **FIFO(m)** — replayed by *trajectory speculation*: guess the fault
  set (cold ∪ gap > m is exact when no page is re-fetched), derive the
  per-reference last-insertion ordinals the guess implies (one
  segmented scan), and recompute the implied fault set: a reference
  faults iff its page was never inserted or at least ``m`` insertions
  happened since.  A self-consistent trajectory is *the* trajectory
  (induction on the first divergence), and each iteration extends the
  guaranteed-correct prefix, so the loop converges — almost always in
  one round; a bounded iteration cap falls back to an exact
  event-driven replay of the chunk from the carried queue state.
* **WS(τ)** — faults are exactly the references with backward gap > τ;
  the working-set size over time is the coverage count of the
  intervals ``[s, min(s+τ, next(s)))``, accumulated with a difference
  array (carried intervals resolve across chunk boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.vm.metrics import FAULT_SERVICE_REFERENCES, SimulationResult
from repro.vm.stream.chunks import as_chunk_source
from repro.vm.stream.kernels import ChunkScan, StreamCarry


@dataclass(frozen=True)
class StreamRequest:
    """One policy/parameter pair for the one-pass engine."""

    kind: str  # "LRU" | "FIFO" | "WS"
    frames: int = 0
    tau: int = 0

    @staticmethod
    def lru(frames: int) -> "StreamRequest":
        if frames < 1:
            raise ValueError("LRU needs at least one frame")
        return StreamRequest(kind="LRU", frames=frames)

    @staticmethod
    def fifo(frames: int) -> "StreamRequest":
        if frames < 1:
            raise ValueError("FIFO needs at least one frame")
        return StreamRequest(kind="FIFO", frames=frames)

    @staticmethod
    def ws(tau: int) -> "StreamRequest":
        if tau < 1:
            raise ValueError("the WS window must be at least 1")
        return StreamRequest(kind="WS", tau=tau)

    def parameter(self):
        return self.tau if self.kind == "WS" else self.frames

    def label(self) -> str:
        return f"{self.kind}({self.parameter()})"


class _Base:
    """Shared accumulator plumbing for the numpy state machines."""

    def __init__(self, request, program, fault_service, collect_faults):
        self.request = request
        self.program = program
        self.fault_service = fault_service
        self.collect = collect_faults
        self.faults = 0
        self.mem_sum = 0
        self.fault_mem = 0  # Σ resident-at-fault; × service at finalize
        self.chunk_faults = None  # (positions, resident) when collecting
        self.last_resident = 0

    def _record(self, positions, resident_at_faults):
        if self.collect:
            self.chunk_faults = (positions, resident_at_faults)

    def finalize(self, n: int) -> SimulationResult:
        return SimulationResult(
            policy=self.request.kind,
            program=self.program,
            page_faults=int(self.faults),
            references=n,
            mem_average=self.mem_sum / n if n else 0.0,
            space_time=float(self.mem_sum + self.fault_mem * self.fault_service),
            parameter=self.request.parameter(),
            fault_service=self.fault_service,
        )


class _LRUState(_Base):
    def __init__(self, request, program, fault_service, collect_faults):
        super().__init__(request, program, fault_service, collect_faults)
        self.distinct = 0

    def consume(self, scan: ChunkScan) -> None:
        m = self.request.frames
        n = scan.n
        if n == 0:
            return
        cand = np.flatnonzero(~scan.cold & (scan.gap > m))
        deep = cand[scan.distance_gt(cand, m)]
        cold_pos = np.flatnonzero(scan.cold)
        # resident(t) = min(distinct + cold_cum[t], m) is monotone: sum
        # it in O(crossing point) instead of materializing the array
        cc = scan.cold_cum
        c0 = self.distinct
        idx = int(np.searchsorted(cc, m - c0, side="left"))
        self.mem_sum += c0 * idx + int(cc[:idx].sum(dtype=np.int64))
        self.mem_sum += m * (n - idx)
        self.distinct += len(cold_pos)
        fpos = np.sort(np.concatenate([cold_pos, deep]))
        res_f = np.minimum(c0 + cc[fpos].astype(np.int64), m)
        self.faults += len(fpos)
        self.fault_mem += int(res_f.sum())
        self.last_resident = min(c0 + int(cc[-1]), m)
        self._record(fpos, res_f)


class _FIFOState(_Base):
    """FIFO by whole-trajectory speculation.

    Guess the fault set (cold ∪ gap > m — exact when no page is ever
    re-fetched), derive the insertion ordinals the guess implies with
    one segmented scan, and recompute the implied fault set: a
    reference faults iff its page was never inserted or ≥ m insertions
    happened since its last insertion.  A fixed point is *the* FIFO
    trajectory, and a self-consistent **prefix** is already correct
    (induction on positions: each implied value depends only on
    earlier ones), so on the rare non-convergent chunk (FIFO is not
    stack-based; small frame counts can oscillate) we commit the
    agreeing prefix and replay only the disputed tail exactly.
    """

    FULL_ROUNDS = 6  # typical chunks converge in one
    SUB_ROUNDS = 10
    SUB = 2048

    def __init__(self, request, program, fault_service, collect_faults, V):
        super().__init__(request, program, fault_service, collect_faults)
        self.insertions = 0
        self.last_ordinal = np.zeros(V, dtype=np.int64)  # 0 = never inserted
        self._small_keys = V <= 0xFFFF
        self._inserted = None  # cumsum cache from the converged round

    def consume(self, scan: ChunkScan) -> None:
        n = scan.n
        if n == 0:
            return
        m = self.request.frames
        guess = scan.cold | (scan.gap > m)
        fault = self._speculate(
            scan.pages,
            guess,
            self.FULL_ROUNDS,
            scan.order,
            scan.first_sorted,
            scan.last_sorted,
        )
        if fault is None:
            fault = self._subchunks(scan.pages, guess)
        inserted = self._inserted
        if inserted is None or len(inserted) != n:
            inserted = np.cumsum(fault, dtype=np.int32)
        # resident(t) = min(pre + inserted[t], m) is monotone — same
        # O(crossing point) summation as LRU
        pre = self.insertions - int(inserted[-1])
        idx = int(np.searchsorted(inserted, m - pre, side="left"))
        self.mem_sum += pre * idx + int(inserted[:idx].sum(dtype=np.int64))
        self.mem_sum += m * (n - idx)
        fpos = np.flatnonzero(fault)
        res_f = np.minimum(pre + inserted[fpos].astype(np.int64), m)
        self.faults += len(fpos)
        self.fault_mem += int(res_f.sum())
        self.last_resident = min(pre + int(inserted[-1]), m)
        self._record(fpos, res_f)

    def _speculate(
        self, pages, guess, rounds, order=None, first=None, last=None
    ):
        """Iterate to a fixed point over one slice; commit the carry and
        return the fault vector on convergence, else commit the agreed
        prefix and finish the tail with the exact replay.  ``order``/
        ``first``/``last`` reuse a ChunkScan's sort when available.
        Returns None (no commit) when ``rounds`` runs out and the slice
        is larger than one sub-chunk (caller retries in sub-chunks)."""
        n = len(pages)
        if order is None:
            keys = pages.astype(np.uint16) if self._small_keys else pages
            order = np.argsort(keys, kind="stable")
            sp = pages[order]
            first = np.empty(n, dtype=bool)
            first[0] = True
            first[1:] = sp[1:] != sp[:-1]
            last = np.empty(n, dtype=bool)
            last[:-1] = first[1:]
            last[-1] = True
        else:
            sp = pages[order]
        group = np.cumsum(first, dtype=np.int32)
        group -= 1
        seed = self.last_ordinal[sp]
        big = np.int64(self.insertions + n + 2)
        G = group * big  # per-page lift, fixed across rounds
        m = self.request.frames
        fault = guess.copy()
        converged = False
        run_max = None
        for _ in range(rounds):
            inserted = np.cumsum(fault, dtype=np.int32)
            ordinal = np.add(inserted, np.int64(self.insertions))
            val = np.where(fault, ordinal, 0)[order]
            val += G
            run_max = np.maximum.accumulate(val, out=val)
            run_max -= G
            exclusive = np.empty(n, dtype=np.int64)
            exclusive[1:] = run_max[:-1]
            exclusive[first] = 0
            last_seen = np.empty(n, dtype=np.int64)
            last_seen[order] = np.maximum(exclusive, seed)
            before = ordinal - fault
            implied = (last_seen == 0) | (before - last_seen >= m)
            if np.array_equal(implied, fault):
                converged = True
                break
            prior = fault
            fault = implied
        if converged:
            self.last_ordinal[sp[last]] = np.maximum(run_max[last], seed[last])
            self.insertions += int(inserted[-1])
            self._inserted = inserted
            return fault
        self._inserted = None
        if n > self.SUB:
            return None
        # commit the self-consistent prefix, replay the disputed tail
        agreed = int(np.argmin(prior == fault)) if n else 0
        if agreed:
            inserted = np.cumsum(fault[:agreed])
            ordinal = np.zeros(n, dtype=np.int64)
            ordinal[:agreed] = np.where(
                fault[:agreed], self.insertions + inserted, 0
            )
            val = ordinal[order]
            run_max = np.maximum.accumulate(val + G) - G
            self.last_ordinal[sp[last]] = np.maximum(run_max[last], seed[last])
            self.insertions += int(inserted[-1])
        tail = self._replay(pages[agreed:])
        out = fault.copy()
        out[:agreed] = fault[:agreed]
        out[agreed:] = tail
        return out

    def _subchunks(self, pages, guess):
        out = np.empty(len(pages), dtype=bool)
        for a in range(0, len(pages), self.SUB):
            b = min(a + self.SUB, len(pages))
            out[a:b] = self._speculate(pages[a:b], guess[a:b], self.SUB_ROUNDS)
        return out

    def _replay(self, pages) -> np.ndarray:
        """Exact event-driven FIFO over a short slice from the carried
        ordinals (the resident set and queue order are fully determined
        by each page's last insertion ordinal)."""
        from collections import deque

        m = self.request.frames
        alive = np.flatnonzero(
            (self.last_ordinal > 0)
            & (self.last_ordinal > self.insertions - m)
        )
        queue = deque(sorted(alive.tolist(), key=lambda p: self.last_ordinal[p]))
        resident = set(queue)
        fault = np.zeros(len(pages), dtype=bool)
        count = self.insertions
        for t in range(len(pages)):
            page = int(pages[t])
            if page in resident:
                continue
            fault[t] = True
            count += 1
            self.last_ordinal[page] = count
            if len(resident) >= m:
                victim = queue.popleft()
                resident.discard(victim)
            queue.append(page)
            resident.add(page)
        self.insertions = count
        return fault


class _WSState(_Base):
    def consume(self, scan: ChunkScan) -> None:
        n, base = scan.n, scan.base
        if n == 0:
            return
        tau = self.request.tau
        local = np.arange(n, dtype=np.int64)
        next_g = scan.next_local
        end = np.where(
            next_g >= 0,
            np.minimum(base + local + tau, next_g),
            np.minimum(base + local + tau, base + n),
        )
        # interval-coverage difference array; bincount beats np.add.at
        # by a wide margin for these scatter-adds
        ends = np.bincount(end - base, minlength=n + 1)
        pre = scan.lastocc_pre
        carried = np.flatnonzero((pre >= 0) & (pre + tau > base))
        opens = len(carried)
        if opens:
            first_here = np.full(len(pre), -1, dtype=np.int64)
            fp = scan.order[scan.first_sorted]
            first_here[scan.sorted_pages[scan.first_sorted]] = base + fp
            reref = first_here[carried]
            stop = np.where(
                reref >= 0,
                np.minimum(pre[carried] + tau, reref),
                pre[carried] + tau,
            )
            stop = np.minimum(stop, base + n)
            ends += np.bincount(
                np.maximum(stop - base, 0), minlength=n + 1
            )
        diff = -ends[:n]
        diff[0] += 1 + opens
        diff[1:] += 1
        resident = np.cumsum(diff, dtype=np.int32)
        fault = scan.cold | (scan.gap > tau)
        fpos = np.flatnonzero(fault)
        self.faults += len(fpos)
        self.mem_sum += int(resident.sum(dtype=np.int64))
        self.fault_mem += int(resident[fpos].sum(dtype=np.int64))
        self.last_resident = int(resident[-1])
        self._record(fpos, resident[fpos])


def _make_state(request, src, fault_service, collect):
    if request.kind == "LRU":
        return _LRUState(request, src.program_name, fault_service, collect)
    if request.kind == "FIFO":
        return _FIFOState(
            request, src.program_name, fault_service, collect, src.total_pages
        )
    if request.kind == "WS":
        return _WSState(request, src.program_name, fault_service, collect)
    raise ValueError(f"unknown stream policy {request.kind!r}")


def _emit(tracer, state, scan) -> None:
    from repro.obs.events import Fault, ResidentSample

    positions, residents = state.chunk_faults or (
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
    )
    for pos, res in zip(positions, residents):
        tracer.emit(
            Fault(
                time=scan.base + int(pos),
                page=int(scan.pages[int(pos)]),
                resident=int(res),
            )
        )
    last = scan.base + scan.n - 1
    tracer.emit(ResidentSample(time=last, resident=int(state.last_resident)))


def stream_simulate(
    source,
    requests: Sequence[StreamRequest],
    fault_service: int = FAULT_SERVICE_REFERENCES,
    chunk_size: Optional[int] = None,
    tracer=None,
) -> List[SimulationResult]:
    """Replay every request over one scan of ``source``.

    ``source`` is anything :func:`~repro.vm.stream.chunks.as_chunk_source`
    accepts: an in-RAM trace, a sharded trace, or a chunk source.  With
    a ``tracer`` the scan emits exact per-fault events (time, page,
    post-fault residency, matching the event-driven stream) plus one
    ResidentSample per chunk boundary; tracing requires a single
    request.  Eviction events are not synthesized — use the
    event-driven simulator when victim identity matters.
    """
    requests = list(requests)
    if not requests:
        return []
    if tracer is not None and len(requests) != 1:
        raise ValueError("tracing supports exactly one request")
    src = as_chunk_source(source, chunk_size)
    collect = tracer is not None
    states = [_make_state(rq, src, fault_service, collect) for rq in requests]
    carry = StreamCarry(src.total_pages)
    for chunk in src.chunks():
        scan = ChunkScan(chunk.pages, chunk.base, carry)
        for state in states:
            state.consume(scan)
        if collect:
            _emit(tracer, states[0], scan)
    return [state.finalize(src.length) for state in states]
