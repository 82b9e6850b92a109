"""LRU, FIFO and WS replays of one trace, answered in one call:

>>> from repro.vm.stream import StreamRequest, stream_simulate
>>> lru, fifo = stream_simulate(trace, [StreamRequest.lru(32),
...                                     StreamRequest.fifo(32)])

LRU and WS are point queries on the trace's one-pass sweeps and FIFO
replays fault to fault, so every result equals the event-driven
:func:`repro.vm.simulator.simulate` (the oracle's ``metric-*`` checks
assert it).  The policy zoo reads its LRU, FIFO and WS columns here.
"""

from repro.vm.stream.engine import StreamRequest, stream_simulate

__all__ = ["StreamRequest", "stream_simulate"]
