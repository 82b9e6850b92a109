"""Optional numba-jitted backend for the streaming engine.

Importing this module requires numba (``pip install repro[numba]``);
:func:`repro.vm.stream.kernels.resolve_backend` only routes here when
it is importable, and an explicit ``REPRO_BACKEND=numba`` without it
raises :class:`~repro.vm.stream.kernels.BackendUnavailable` at resolve
time — this guard is the backstop for direct imports.

The jitted kernels are the *sequential reference algorithms* (LRU
doubly-linked stack, FIFO ring queue, WS last-use ring, CD stack walk
with the directive schedule), compiled to native loops: simple code
whose exactness is easy to audit, with the interpreter overhead — the
reason the event-driven path is slow — compiled away.  Results are
byte-identical to both the numpy kernels and the event-driven
simulator; the oracle's ``stream-*`` checks and the backend tests
assert it whenever numba is importable.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.vm.metrics import SimulationResult
from repro.vm.stream.kernels import BackendUnavailable

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit
except ImportError as err:  # pragma: no cover
    raise BackendUnavailable(
        "the numba backend needs the optional 'numba' dependency "
        "(pip install repro[numba])"
    ) from err


# pragma: no cover begins here — this module is unreachable without numba


@njit(cache=True)
def _lru_chunk(pages, m, nxt, prv, head, in_stack, distinct, acc):
    # acc: [faults, mem_sum, fault_mem, last_resident]
    for i in range(len(pages)):
        page = pages[i]
        cold = not in_stack[page]
        if cold:
            distinct += 1
            fault = True
        else:
            # hit iff the page sits within the first m stack entries
            fault = True
            node = head[0]
            for _ in range(m):
                if node < 0:
                    break
                if node == page:
                    fault = False
                    break
                node = nxt[node]
            # unlink for the move-to-front
            p, q = prv[page], nxt[page]
            if p >= 0:
                nxt[p] = q
            else:
                head[0] = q
            if q >= 0:
                prv[q] = p
        # push to front
        old = head[0]
        nxt[page] = old
        prv[page] = -1
        if old >= 0:
            prv[old] = page
        head[0] = page
        in_stack[page] = True
        resident = distinct if distinct < m else m
        acc[1] += resident
        if fault:
            acc[0] += 1
            acc[2] += resident
        acc[3] = resident
    return distinct


@njit(cache=True)
def _fifo_chunk(pages, m, queue, qhead, resident_flag, state, acc):
    # state: [insertions, queue_len]; queue is a ring of capacity m
    insertions, qlen = state[0], state[1]
    for i in range(len(pages)):
        page = pages[i]
        if not resident_flag[page]:
            acc[0] += 1
            insertions += 1
            if qlen >= m:
                victim = queue[qhead[0]]
                resident_flag[victim] = False
                queue[qhead[0]] = page
                qhead[0] = (qhead[0] + 1) % m
            else:
                queue[(qhead[0] + qlen) % m] = page
                qlen += 1
            resident_flag[page] = True
            resident = insertions if insertions < m else m
            acc[2] += resident
        resident = insertions if insertions < m else m
        acc[1] += resident
        acc[3] = resident
    state[0], state[1] = insertions, qlen
    return 0


@njit(cache=True)
def _ws_chunk(pages, base, tau, ring, last_ref, state, acc):
    # state: [resident_count]; last_ref is -1 when absent
    count = state[0]
    for i in range(len(pages)):
        t = base + i
        page = pages[i]
        prev = last_ref[page]
        fault = prev < 0 or t - prev > tau
        if prev < 0:
            count += 1
        last_ref[page] = t
        boundary = t - tau
        if boundary >= 0:
            slot = boundary % tau
            old = ring[slot]
            if old >= 0 and old != page:
                when = last_ref[old]
                if when >= 0 and when <= boundary:
                    last_ref[old] = -1
                    count -= 1
            ring[slot] = -1
        ring[t % tau] = page
        acc[1] += count
        if fault:
            acc[0] += 1
            acc[2] += count
        acc[3] = count
    state[0] = count
    return 0


@njit(cache=True)
def _cd_chunk(
    pages, base, positions, targets, nxt, prv, head, in_stack, state, acc
):
    # state: [next_event, resident_r, target]
    ev, r, target = state[0], state[1], state[2]
    for i in range(len(pages)):
        t = base + i
        while ev < len(positions) and positions[ev] <= t:
            target = targets[ev]
            if r > target:
                r = target
            ev += 1
        page = pages[i]
        if not in_stack[page]:
            fault = True
        else:
            fault = True
            node = head[0]
            for _ in range(r):
                if node < 0:
                    break
                if node == page:
                    fault = False
                    break
                node = nxt[node]
            p, q = prv[page], nxt[page]
            if p >= 0:
                nxt[p] = q
            else:
                head[0] = q
            if q >= 0:
                prv[q] = p
        old = head[0]
        nxt[page] = old
        prv[page] = -1
        if old >= 0:
            prv[old] = page
        head[0] = page
        in_stack[page] = True
        if fault:
            if r < target:
                r += 1
            acc[0] += 1
            acc[2] += r
        acc[1] += r
        acc[3] = r
    state[0], state[1], state[2] = ev, r, target
    return 0


class _JitState:
    """One policy's carried native-kernel state."""

    def __init__(self, request, src, fault_service, schedule):
        self.request = request
        self.program = src.program_name
        self.fault_service = fault_service
        self.acc = np.zeros(4, dtype=np.int64)
        V = max(1, src.total_pages)
        kind = request.kind
        if kind in ("LRU", "CD"):
            self.nxt = np.full(V, -1, dtype=np.int64)
            self.prv = np.full(V, -1, dtype=np.int64)
            self.head = np.full(1, -1, dtype=np.int64)
            self.in_stack = np.zeros(V, dtype=np.bool_)
        if kind == "LRU":
            self.distinct = 0
        elif kind == "FIFO":
            self.queue = np.zeros(max(1, request.frames), dtype=np.int64)
            self.qhead = np.zeros(1, dtype=np.int64)
            self.resident_flag = np.zeros(V, dtype=np.bool_)
            self.state = np.zeros(2, dtype=np.int64)
        elif kind == "WS":
            self.ring = np.full(request.tau, -1, dtype=np.int64)
            self.last_ref = np.full(V, -1, dtype=np.int64)
            self.state = np.zeros(1, dtype=np.int64)
        elif kind == "CD":
            self.positions = np.ascontiguousarray(schedule.bounds[1:-1])
            self.targets = np.ascontiguousarray(schedule.targets[1:])
            self.state = np.asarray(
                [0, 0, request.config.min_allocation], dtype=np.int64
            )

    def consume(self, pages: np.ndarray, base: int) -> None:
        kind = self.request.kind
        pages = np.ascontiguousarray(pages, dtype=np.int64)
        if kind == "LRU":
            self.distinct = _lru_chunk(
                pages, self.request.frames, self.nxt, self.prv, self.head,
                self.in_stack, self.distinct, self.acc,
            )
        elif kind == "FIFO":
            _fifo_chunk(
                pages, self.request.frames, self.queue, self.qhead,
                self.resident_flag, self.state, self.acc,
            )
        elif kind == "WS":
            _ws_chunk(
                pages, base, self.request.tau, self.ring, self.last_ref,
                self.state, self.acc,
            )
        else:
            _cd_chunk(
                pages, base, self.positions, self.targets, self.nxt,
                self.prv, self.head, self.in_stack, self.state, self.acc,
            )

    def finalize(self, n: int) -> SimulationResult:
        faults, mem_sum, fault_mem, _last = (int(x) for x in self.acc)
        return SimulationResult(
            policy=self.request.kind,
            program=self.program,
            page_faults=faults,
            references=n,
            mem_average=mem_sum / n if n else 0.0,
            space_time=float(mem_sum + fault_mem * self.fault_service),
            parameter=self.request.parameter(),
            fault_service=self.fault_service,
        )


def run(engine, src, schedules) -> List[SimulationResult]:
    """Replay ``engine.requests`` over ``src`` with the jitted kernels.

    Each policy consumes the raw chunks natively; the shared numpy scan
    is not needed on this path (the jitted state machines carry their
    own cross-chunk state in page-space arrays).
    """
    states = [
        _JitState(
            request, src, engine.fault_service, schedules.get(request.config)
        )
        for request in engine.requests
    ]
    for chunk in src.chunks():
        for state in states:
            state.consume(chunk.pages, chunk.base)
    return [state.finalize(src.length) for state in states]
