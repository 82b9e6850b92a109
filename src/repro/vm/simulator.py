"""Event-driven replay of a reference trace under one policy.

The simulator merges the dense page-reference string with the sparse
directive stream (fired at their recorded positions), drives the policy,
and integrates the three performance indexes.  It is exact and
policy-agnostic; the one-pass analyzers in :mod:`repro.vm.analyzers`
reproduce its LRU/WS numbers for whole parameter sweeps and are
cross-validated against it in the test suite.

Passing ``tracer`` (a :class:`repro.obs.Tracer`) records the replay as
a typed event stream: the simulator emits :class:`~repro.obs.Fault`
per demand fetch and a :class:`~repro.obs.ResidentSample` every
``sample_interval`` references, and installs the tracer on the policy
so it emits its own Evict/ALLOCATE/LOCK decisions.  With ``tracer``
left as None the replay loop is byte-for-byte the untraced one.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tracegen.events import ReferenceTrace
from repro.vm.metrics import FAULT_SERVICE_REFERENCES, SimulationResult
from repro.vm.policies.base import Policy


def simulate(
    trace: ReferenceTrace,
    policy: Policy,
    fault_service: int = FAULT_SERVICE_REFERENCES,
    deliver_directives: Optional[bool] = None,
    tracer=None,
    sample_interval: int = 1,
) -> SimulationResult:
    """Replay ``trace`` under ``policy`` and return the metrics.

    ``deliver_directives`` defaults to True; pass False to replay the
    bare reference string (baselines ignore directives anyway, so this
    only matters for experiments that deliberately starve CD).

    ``sample_interval`` (with a tracer) spaces the ResidentSample
    events; the default 1 samples after every reference, which makes
    MEM and ST exactly reconstructible from the event stream.
    """
    policy.reset()
    prepare = getattr(policy, "prepare", None)
    if prepare is not None:
        prepare(trace.pages)
    deliver = True if deliver_directives is None else deliver_directives
    directives = trace.directives if deliver else []
    pages = trace.pages
    total_refs = len(pages)

    faults = 0
    mem_sum = 0  # Σ resident-size after each reference
    fault_space_time = 0  # Σ resident-size × service over fault intervals

    event_index = 0
    event_count = len(directives)
    if tracer is None:
        access = policy.access
        # position of the next directive to fire (past the end: none)
        due = directives[0].position if event_count else total_refs
        for time, page in enumerate(memoryview(np.ascontiguousarray(pages))):
            if time >= due:
                while (
                    event_index < event_count
                    and directives[event_index].position <= time
                ):
                    policy.on_directive(directives[event_index])
                    event_index += 1
                due = (
                    directives[event_index].position
                    if event_index < event_count
                    else total_refs
                )
            fault = access(page, time)
            resident = policy.resident_size
            mem_sum += resident
            if fault:
                faults += 1
                fault_space_time += resident * fault_service
        while event_index < event_count:
            policy.on_directive(directives[event_index])
            event_index += 1
    else:
        from repro.obs.events import Fault, ResidentSample

        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        previous_tracer = policy.tracer
        policy.tracer = tracer
        try:
            for time in range(total_refs):
                while (
                    event_index < event_count
                    and directives[event_index].position <= time
                ):
                    policy.on_directive(directives[event_index])
                    event_index += 1
                page = int(pages[time])
                fault = policy.access(page, time)
                resident = policy.resident_size
                mem_sum += resident
                if fault:
                    faults += 1
                    fault_space_time += resident * fault_service
                    tracer.emit(Fault(time=time, page=page, resident=resident))
                if time % sample_interval == 0:
                    tracer.emit(ResidentSample(time=time, resident=resident))
            # Trailing directives (position == total_refs) still trace:
            # the final UNLOCKs land here and the lock ledger must see them.
            while event_index < event_count:
                policy.on_directive(directives[event_index])
                event_index += 1
        finally:
            policy.tracer = previous_tracer

    mem_average = mem_sum / total_refs if total_refs else 0.0
    return SimulationResult(
        policy=policy.name,
        program=trace.program_name,
        page_faults=faults,
        references=total_refs,
        mem_average=mem_average,
        space_time=float(mem_sum + fault_space_time),
        parameter=policy.describe_parameter(),
        fault_service=fault_service,
        swaps=getattr(policy, "swaps", 0),
        denied_requests=getattr(policy, "denied_requests", 0),
        lock_releases=getattr(policy, "lock_releases", 0),
    )
