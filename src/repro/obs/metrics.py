"""Derived metrics over an event stream.

Everything here is computed from the typed events alone (plus the
trace's array layout for attribution), so the same analysis applies to
an in-memory ring buffer or a JSONL timeline file, both written by the
event-driven simulator:

* fault inter-arrival histogram (power-of-two buckets);
* per-array fault attribution (which array's pages miss);
* lock hold-time distribution, split by how the pin ended;
* MEM-over-time curve, downsampled to a fixed number of buckets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.events import (
    AllocateDeny,
    AllocateGrant,
    Event,
    Evict,
    Fault,
    ForcedRelease,
    Lock,
    ResidentSample,
    Unlock,
    event_from_dict,
)


def load_events(path: Union[str, Path]) -> List[Event]:
    """Read a JSONL timeline back into typed events."""
    events: List[Event] = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(event_from_dict(json.loads(line)))
    return events


@dataclass
class LockHold:
    """One pin's lifetime, from LOCK to whatever ended it."""

    page: int
    site: int
    priority_index: int
    start: int
    end: Optional[int] = None  # None: still pinned at end of trace
    ended_by: str = "open"  # "unlock" | "forced" | "superseded" | "open"

    @property
    def duration(self) -> Optional[int]:
        if self.end is None:
            return None
        return self.end - self.start


@dataclass
class Profile:
    """Everything the profile report renders."""

    event_counts: Dict[str, int] = field(default_factory=dict)
    fault_times: List[int] = field(default_factory=list)
    interarrival: List[Tuple[str, int]] = field(default_factory=list)
    per_array_faults: Dict[str, int] = field(default_factory=dict)
    evict_reasons: Dict[str, int] = field(default_factory=dict)
    grants: int = 0
    denies: int = 0
    deny_reasons: Dict[str, int] = field(default_factory=dict)
    lock_holds: List[LockHold] = field(default_factory=list)
    mem_curve: List[Tuple[int, float]] = field(default_factory=list)
    peak_resident: int = 0
    mean_resident: float = 0.0

    @property
    def faults(self) -> int:
        return len(self.fault_times)

    def closed_holds(self) -> List[LockHold]:
        return [h for h in self.lock_holds if h.duration is not None]


_BUCKET_LABELS = "1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65-128"


def interarrival_histogram(times: List[int]) -> List[Tuple[str, int]]:
    """Histogram of gaps between consecutive faults, in power-of-two
    buckets (last bucket is open-ended)."""
    gaps = [b - a for a, b in zip(times, times[1:])]
    buckets = [0] * (len(_BUCKET_LABELS) + 1)
    for gap in gaps:
        index = 0
        top = 1
        while gap > top and index < len(_BUCKET_LABELS):
            index += 1
            top *= 2
        buckets[index] += 1
    labelled = list(zip(_BUCKET_LABELS, buckets))  # zip stops before overflow
    labelled.append((f">{2 ** (len(_BUCKET_LABELS) - 1)}", buckets[-1]))
    return labelled


def attribute_faults(
    fault_pages: List[int], array_pages: Dict[str, Tuple[int, int]]
) -> Dict[str, int]:
    """Count faults per array from each array's (first_page, count)."""
    attribution = {name: 0 for name in array_pages}
    other = 0
    for page in fault_pages:
        for name, (first, count) in array_pages.items():
            if first <= page < first + count:
                attribution[name] += 1
                break
        else:
            other += 1
    if other:
        attribution["(other)"] = other
    return attribution


def lock_hold_times(events: List[Event]) -> List[LockHold]:
    """Pair each pinned page's Lock with the event that ended the pin."""
    open_holds: Dict[int, LockHold] = {}
    holds: List[LockHold] = []
    for event in events:
        if isinstance(event, Lock):
            for page in event.pages:
                hold = LockHold(
                    page=page,
                    site=event.site,
                    priority_index=event.priority_index,
                    start=event.time,
                )
                open_holds[page] = hold
                holds.append(hold)
        elif isinstance(event, Unlock):
            for page in event.pages:
                hold = open_holds.pop(page, None)
                if hold is not None:
                    hold.end = event.time
                    hold.ended_by = "unlock"
        elif isinstance(event, ForcedRelease):
            ended = "superseded" if event.reason == "superseded" else "forced"
            for page in event.pages:
                hold = open_holds.pop(page, None)
                if hold is not None:
                    hold.end = event.time
                    hold.ended_by = ended
    return holds


def mem_over_time(
    events: List[Event], buckets: int = 48
) -> List[Tuple[int, float]]:
    """Downsample ResidentSample events to ``buckets`` (time, mean) points.

    Samples may be arbitrarily spaced (the closed-form replay emits them
    at change points only); each bucket averages the samples whose time
    falls inside it and empty buckets inherit the previous value (the
    resident size is piecewise constant between samples).
    """
    samples = [e for e in events if isinstance(e, ResidentSample)]
    if not samples:
        return []
    if len(samples) <= buckets:
        return [(s.time, float(s.resident)) for s in samples]
    t0 = samples[0].time
    t1 = samples[-1].time
    span = max(t1 - t0, 1)
    sums = [0.0] * buckets
    counts = [0] * buckets
    for s in samples:
        index = min((s.time - t0) * buckets // span, buckets - 1)
        sums[index] += s.resident
        counts[index] += 1
    curve: List[Tuple[int, float]] = []
    previous = float(samples[0].resident)
    for i in range(buckets):
        mid = t0 + (2 * i + 1) * span // (2 * buckets)
        if counts[i]:
            previous = sums[i] / counts[i]
        curve.append((mid, previous))
    return curve


def build_profile(
    events: List[Event],
    array_pages: Optional[Dict[str, Tuple[int, int]]] = None,
    buckets: int = 48,
) -> Profile:
    """Compute every derived metric over one event stream."""
    profile = Profile()
    counts: Dict[str, int] = {}
    fault_pages: List[int] = []
    sample_sum = 0
    sample_count = 0
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
        if isinstance(event, Fault):
            profile.fault_times.append(event.time)
            fault_pages.append(event.page)
            if event.resident > profile.peak_resident:
                profile.peak_resident = event.resident
        elif isinstance(event, ResidentSample):
            sample_sum += event.resident
            sample_count += 1
            if event.resident > profile.peak_resident:
                profile.peak_resident = event.resident
        elif isinstance(event, Evict):
            profile.evict_reasons[event.reason] = (
                profile.evict_reasons.get(event.reason, 0) + 1
            )
        elif isinstance(event, AllocateGrant):
            profile.grants += 1
        elif isinstance(event, AllocateDeny):
            profile.denies += 1
            profile.deny_reasons[event.reason] = (
                profile.deny_reasons.get(event.reason, 0) + 1
            )
    profile.event_counts = dict(sorted(counts.items()))
    profile.interarrival = interarrival_histogram(profile.fault_times)
    if array_pages:
        profile.per_array_faults = attribute_faults(fault_pages, array_pages)
    profile.lock_holds = lock_hold_times(events)
    profile.mem_curve = mem_over_time(events, buckets=buckets)
    if sample_count:
        profile.mean_resident = sample_sum / sample_count
    return profile
