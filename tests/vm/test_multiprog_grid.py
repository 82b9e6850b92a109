"""Golden grid for the fixed-mix simulator.

A seeded grid of synthetic mixes (no LOCK directives) under CD and WS,
at tight and loose frame counts, short and long quanta and fault
services, pinned in ``golden/multiprog_grid.json``: every
:class:`MultiprogResult` field of the untraced run, and the length and
SHA-256 digest of the traced run's JSONL event stream.  Any change to
scheduling, stealing, load control, directive firing or the order of
float accumulation moves a digest.

After an intentional behavior change, regenerate with::

    pytest tests/vm/test_multiprog_grid.py --update-golden
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.directives.model import AllocateRequest
from repro.obs import RingBufferSink, Tracer
from repro.tracegen.events import DirectiveEvent, DirectiveKind
from repro.vm.multiprog import MultiprogSimulator

from .conftest import make_trace

GOLDEN = Path(__file__).parent / "golden" / "multiprog_grid.json"

#: (mode, quantum, fault_service, ws_tau) per grid row; each row runs
#: at a tight and a loose frame count
SETTINGS = [
    ("cd", 500, 2000, 1500),
    ("cd", 40, 150, 1500),
    ("ws", 500, 2000, 1500),
    ("ws", 40, 150, 60),
    ("ws", 25, 2000, 9),
]
MIX_SEEDS = (3, 11, 29)


def _synthetic_trace(rng: random.Random, name: str):
    """Phases of locality within a 40-page range, each opened by an
    ALLOCATE whose else-chain ends at PI 1 or (sometimes) PI 2."""
    base = rng.randrange(0, 200)
    pages = []
    directives = []
    for _ in range(rng.randint(3, 6)):
        size = rng.randint(2, 14)
        hot = [base + rng.randrange(40) for _ in range(size)]
        position = len(pages)
        outer = size + rng.randint(1, 10)
        chain = [(3, outer + 8), (2, outer), (1, max(1, size // 2))]
        if rng.random() < 0.25:
            chain = chain[:2]  # innermost PI 2: denial keeps the target
        directives.append(
            DirectiveEvent(
                position=position,
                kind=DirectiveKind.ALLOCATE,
                site=rng.randrange(4),
                requests=tuple(AllocateRequest(pi, x) for pi, x in chain),
            )
        )
        for _ in range(rng.randint(150, 700)):
            if rng.random() < 0.1:
                pages.append(base + rng.randrange(40))
            else:
                pages.append(rng.choice(hot))
    return make_trace(pages, directives, name=name)


def _mix(seed: int):
    rng = random.Random(seed)
    return [(f"P{i}", _synthetic_trace(rng, f"P{i}")) for i in range(rng.randint(2, 4))]


def _cells():
    for seed in MIX_SEEDS:
        mix = _mix(seed)
        distinct = sum(len(set(t.pages.tolist())) for _, t in mix)
        for mode, quantum, service, tau in SETTINGS:
            for frames in (max(len(mix), distinct // 4), distinct + 4):
                label = f"s{seed}/{mode}/q{quantum}/f{service}/tau{tau}/m{frames}"
                kwargs = dict(
                    total_frames=frames,
                    mode=mode,
                    quantum=quantum,
                    fault_service=service,
                    ws_tau=tau,
                )
                yield label, mix, kwargs


def _result_record(result):
    return {
        "total_frames": result.total_frames,
        "makespan": result.makespan,
        "swaps": result.swaps,
        "mem_utilization": repr(result.mem_utilization),
        "processes": [
            [
                p.name,
                p.policy,
                p.references,
                p.faults,
                p.swapped_out,
                p.finish_time,
                p.mem_integral,
            ]
            for p in result.processes
        ],
    }


def _event_digest(events):
    h = hashlib.sha256()
    for event in events:
        h.update(json.dumps(event.to_dict(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _run(mix, kwargs):
    """One cell run untraced and traced: both results' records, then
    the traced run's event count and digest."""
    plain = MultiprogSimulator(mix, **kwargs).run()
    ring = RingBufferSink()
    traced = MultiprogSimulator(
        mix, tracer=Tracer(ring), sample_interval=7, **kwargs
    ).run()
    return (
        _result_record(plain),
        _result_record(traced),
        len(ring),
        _event_digest(ring.events),
    )


@pytest.fixture(scope="module")
def runs():
    return {label: _run(mix, kwargs) for label, mix, kwargs in _cells()}


@pytest.fixture(scope="module")
def grid(runs):
    """What the golden pins per cell: the untraced result and the
    traced event stream."""
    return {
        label: {"result": plain, "events": events, "digest": digest}
        for label, (plain, _, events, digest) in runs.items()
    }


def test_grid_exercises_swaps_and_both_modes(grid):
    """The grid is only a regression net if it reaches load control."""
    modes = {label.split("/")[1] for label in grid}
    assert modes == {"cd", "ws"}
    for mode in modes:
        assert any(
            cell["result"]["swaps"] > 0
            for label, cell in grid.items()
            if label.split("/")[1] == mode
        ), mode


def test_traced_run_matches_untraced(runs):
    for label, (plain, traced, _, _) in runs.items():
        assert traced == plain, label


def test_grid_matches_golden(grid, request):
    text = json.dumps(grid, indent=1, sort_keys=True) + "\n"
    if request.config.getoption("--update-golden"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(text)
        pytest.skip(f"updated {GOLDEN}")
    golden = json.loads(GOLDEN.read_text())
    assert sorted(grid) == sorted(golden)
    for label in golden:
        assert grid[label] == golden[label], label
