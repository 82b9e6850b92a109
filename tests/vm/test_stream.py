"""One-pass streaming engine: equivalence with the event-driven
simulator, chunking edge cases, sharded sources, and fault events."""

import numpy as np
import pytest

from repro.directives.model import AllocateRequest
from repro.tracegen.events import DirectiveEvent, DirectiveKind, ReferenceTrace
from repro.tracegen.io import open_sharded_trace, save_trace_sharded
from repro.vm.policies import FIFOPolicy, LRUPolicy, WorkingSetPolicy
from repro.vm.simulator import simulate
from repro.vm.stream import StreamRequest, stream_simulate


def make_trace(pages, directives=None, name="STREAM"):
    pages = np.asarray(pages, dtype=np.int32)
    total = int(pages.max()) + 1 if len(pages) else 1
    return ReferenceTrace(
        program_name=name,
        pages=pages,
        total_pages=total,
        directives=list(directives or []),
    )


def alloc(position, pages=4, pi=2):
    return DirectiveEvent(
        position=position,
        kind=DirectiveKind.ALLOCATE,
        site=0,
        requests=(AllocateRequest(priority_index=pi, pages=pages),),
    )


def fields(result):
    return (
        result.page_faults,
        result.references,
        result.mem_average,
        result.space_time,
    )


REQUESTS = [
    StreamRequest.lru(3),
    StreamRequest.lru(8),
    StreamRequest.fifo(4),
    StreamRequest.ws(5),
    StreamRequest.ws(64),
]


def reference_results(trace, requests):
    out = []
    for request in requests:
        if request.kind == "LRU":
            policy = LRUPolicy(frames=request.frames)
        elif request.kind == "FIFO":
            policy = FIFOPolicy(frames=request.frames)
        else:
            policy = WorkingSetPolicy(tau=request.tau)
        out.append(simulate(trace, policy))
    return out


class TestEquivalence:
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 100_000])
    def test_fuzz_matches_event_driven(self, chunk_size):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(0, 500))
            pages = rng.integers(0, 23, size=n)
            trace = make_trace(pages)
            streamed = stream_simulate(
                trace, REQUESTS, chunk_size=chunk_size
            )
            for got, want in zip(streamed, reference_results(trace, REQUESTS)):
                assert fields(got) == fields(want)

    def test_empty_trace(self):
        trace = make_trace([])
        for result in stream_simulate(trace, REQUESTS):
            assert result.page_faults == 0
            assert result.references == 0
        assert stream_simulate(trace, []) == []

    def test_one_pass_matches_individual_passes(self):
        trace = make_trace(np.arange(300) % 17)
        together = stream_simulate(trace, REQUESTS)
        for request, joint in zip(REQUESTS, together):
            alone = stream_simulate(trace, [request])[0]
            assert fields(joint) == fields(alone)

    def test_all_nine_workloads(self):
        from repro.experiments.runner import artifacts_for
        from repro.workloads import workload_names

        requests = [
            StreamRequest.lru(16),
            StreamRequest.fifo(8),
            StreamRequest.ws(64),
        ]
        for name in workload_names():
            trace = artifacts_for(name).trace
            streamed = stream_simulate(trace, requests)
            for got, want in zip(
                streamed, reference_results(trace, requests)
            ):
                assert fields(got) == fields(want), name


class TestSharded:
    def test_sharded_source_matches_in_ram(self, tmp_path):
        trace = make_trace(np.arange(500) % 19, directives=[alloc(123)])
        save_trace_sharded(trace, tmp_path / "t", shard_size=97)
        sharded = open_sharded_trace(tmp_path / "t")
        streamed = stream_simulate(sharded, REQUESTS, chunk_size=61)
        for got, want in zip(streamed, reference_results(trace, REQUESTS)):
            assert fields(got) == fields(want)


class TestEvents:
    def test_fault_stream_matches_event_driven(self):
        from repro.obs import Fault, RingBufferSink, Tracer

        trace = make_trace(np.arange(200) % 13)
        request = StreamRequest.lru(4)

        ring_stream = RingBufferSink()
        stream_simulate(
            trace, [request], chunk_size=37, tracer=Tracer(ring_stream)
        )
        ring_event = RingBufferSink()
        simulate(trace, LRUPolicy(frames=4), tracer=Tracer(ring_event))

        def faults(ring):
            return [
                (e.time, e.page, e.resident)
                for e in ring.events
                if isinstance(e, Fault)
            ]

        assert faults(ring_stream) == faults(ring_event)
        with pytest.raises(ValueError, match="exactly one request"):
            stream_simulate(trace, REQUESTS[:2], tracer=Tracer(ring_stream))
