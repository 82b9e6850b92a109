"""Native-speed streaming simulation core.

One pass over a chunked trace replays LRU, FIFO and WS at once:

>>> from repro.vm.stream import StreamRequest, stream_simulate
>>> lru, fifo = stream_simulate(trace, [StreamRequest.lru(32),
...                                     StreamRequest.fifo(32)])

Results are exactly equal to the event-driven
:func:`repro.vm.simulator.simulate` (the oracle's ``stream-*`` checks
assert it).  Traces may be in RAM (:class:`ReferenceTrace`) or on disk
in the sharded format (:func:`repro.tracegen.io.open_sharded_trace`),
in which case peak memory is bounded by the chunk size regardless of
trace length.
"""

from repro.vm.stream.chunks import (
    DEFAULT_CHUNK_SIZE,
    MAX_CHUNK_SIZE,
    TraceChunk,
    TraceChunks,
    as_chunk_source,
)
from repro.vm.stream.engine import StreamRequest, stream_simulate
from repro.vm.stream.kernels import ChunkScan, StreamCarry

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "MAX_CHUNK_SIZE",
    "TraceChunk",
    "TraceChunks",
    "as_chunk_source",
    "StreamRequest",
    "stream_simulate",
    "ChunkScan",
    "StreamCarry",
]
