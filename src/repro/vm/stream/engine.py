"""Several LRU, FIFO and WS replays of one trace in one call.

Each request is answered by the exact replay the codebase already has,
so every result equals the event-driven
:func:`repro.vm.simulator.simulate` under the matching policy:

* **LRU(m)** — a point query on the trace's
  :class:`~repro.vm.analyzers.LRUSweep` (a reference faults iff its
  stack distance exceeds ``m``);
* **WS(τ)** — a point query on the trace's
  :class:`~repro.vm.analyzers.WSSweep` (a reference faults iff its
  backward gap exceeds ``τ``);
* **FIFO(m)** — the fault-to-fault replay
  :func:`~repro.vm.fastsim.simulate_fifo_fast`.

The oracle's ``metric-lru``, ``metric-ws`` and ``metric-fifo`` checks
pin all three to the event-driven policies.  :func:`stream_simulate`
keeps its module path because the policy zoo's LRU, FIFO and WS columns
are timed as one layer under that name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.tracegen.events import ReferenceTrace
from repro.vm.analyzers import LRUSweep, WSSweep
from repro.vm.fastsim import simulate_fifo_fast
from repro.vm.metrics import SimulationResult


@dataclass(frozen=True)
class StreamRequest:
    """One policy/parameter pair for :func:`stream_simulate`."""

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


def stream_simulate(
    trace: ReferenceTrace,
    requests: Sequence[StreamRequest],
    lru: Optional[LRUSweep] = None,
    ws: Optional[WSSweep] = None,
) -> List[SimulationResult]:
    """One result per request, in order (``[]`` for no requests).

    ``lru`` and ``ws`` are the trace's sweeps; a sweep not passed is
    built at most once per call, and only when a request needs it.
    """
    results = []
    for request in requests:
        if request.kind == "LRU":
            if lru is None:
                lru = LRUSweep(trace)
            results.append(lru.result(request.frames))
        elif request.kind == "WS":
            if ws is None:
                ws = WSSweep(trace)
            results.append(ws.result(request.tau))
        elif request.kind == "FIFO":
            results.append(simulate_fifo_fast(trace, request.frames))
        else:
            raise ValueError(f"unknown stream policy {request.kind!r}")
    return results
