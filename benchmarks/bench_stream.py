"""Performance benchmarks: the streaming simulation core.

Measures what the one-pass engine buys over the event-driven simulator
on the same large real trace bench_simulator.py uses (CONDUCT, ~175k
references): per-policy streaming throughput, the one-pass multi-policy
amortisation (a pair, then an eight-request LRU/FIFO sweep fed by a
single scan), and off-disk replay over a sharded trace.

``python benchmarks/bench_stream.py`` re-measures the headline numbers
and rewrites the ``stream`` section of BENCH_simulator.json in place;
``--quick`` is the warn-only CI smoke.
"""

import pytest

from repro.experiments.runner import artifacts_for
from repro.vm.policies import FIFOPolicy, LRUPolicy, WorkingSetPolicy
from repro.vm.simulator import simulate
from repro.vm.stream import StreamRequest, stream_simulate

SWEEP8 = [
    *(StreamRequest.lru(m) for m in (8, 16, 32, 64)),
    *(StreamRequest.fifo(m) for m in (8, 16, 32, 64)),
]


@pytest.fixture(scope="module")
def conduct_trace(warm_artifacts):
    return artifacts_for("CONDUCT").trace


def _policy_rate(benchmark, trace, n_requests):
    benchmark.extra_info["policy_refs_per_sec"] = round(
        trace.length * n_requests / benchmark.stats.stats.mean
    )


def bench_stream_lru(benchmark, conduct_trace):
    result = benchmark(
        stream_simulate, conduct_trace, [StreamRequest.lru(32)]
    )[0]
    _policy_rate(benchmark, conduct_trace, 1)
    assert result.page_faults > 0


def bench_stream_fifo(benchmark, conduct_trace):
    benchmark(stream_simulate, conduct_trace, [StreamRequest.fifo(32)])
    _policy_rate(benchmark, conduct_trace, 1)


def bench_stream_ws(benchmark, conduct_trace):
    benchmark(stream_simulate, conduct_trace, [StreamRequest.ws(2000)])
    _policy_rate(benchmark, conduct_trace, 1)


def bench_stream_pair_lru_fifo(benchmark, conduct_trace):
    """Two policies from one scan — the smallest one-pass win."""
    requests = [StreamRequest.lru(32), StreamRequest.fifo(32)]
    benchmark(stream_simulate, conduct_trace, requests)
    _policy_rate(benchmark, conduct_trace, 2)


def bench_stream_sweep8(benchmark, conduct_trace):
    """Eight requests (LRU and FIFO at four sizes each), one scan."""
    benchmark(stream_simulate, conduct_trace, list(SWEEP8))
    _policy_rate(benchmark, conduct_trace, len(SWEEP8))


def bench_stream_sharded_lru(benchmark, conduct_trace, tmp_path):
    """Off-disk replay: mmap-backed shards instead of an in-RAM trace."""
    from repro.tracegen.io import open_sharded_trace, save_trace_sharded

    save_trace_sharded(conduct_trace, tmp_path / "conduct", shard_size=65536)
    sharded = open_sharded_trace(tmp_path / "conduct")
    benchmark(stream_simulate, sharded, [StreamRequest.lru(32)])
    _policy_rate(benchmark, conduct_trace, 1)


# -- standalone summary writer -------------------------------------------------


def _time(fn, repeat=3):
    import time as _time_mod

    best = float("inf")
    for _ in range(repeat):
        t0 = _time_mod.perf_counter()
        fn()
        best = min(best, _time_mod.perf_counter() - t0)
    return best


def _sharded_rss_kb(length_factor):
    """Peak RSS (KiB) of a fresh process replaying a sharded trace.

    The CONDUCT trace is tiled ``length_factor`` times before sharding,
    so comparing factors shows the footprint does not grow with trace
    length — the engine holds one chunk plus per-policy state, never the
    whole reference string.
    """
    import os
    import subprocess
    import sys
    import tempfile
    import textwrap

    with tempfile.TemporaryDirectory() as tmp:
        script = textwrap.dedent(
            f"""
            import resource
            import numpy as np
            from repro.experiments.runner import artifacts_for
            from repro.tracegen.io import (
                ShardedTraceWriter, open_sharded_trace,
            )
            from repro.vm.stream import StreamRequest, stream_simulate

            trace = artifacts_for("CONDUCT").trace
            writer = ShardedTraceWriter(
                {tmp!r} + "/trace", trace.program_name,
                int(np.max(trace.pages)) + 1, shard_size=1 << 16,
            )
            for _ in range({length_factor}):
                writer.append(trace.pages)
            writer.close()
            del trace
            sharded = open_sharded_trace({tmp!r} + "/trace")
            stream_simulate(
                sharded, [StreamRequest.lru(32)], chunk_size=1 << 16
            )
            print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            """
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH="src"),
        )
    return int(out.stdout.strip())


def write_stream_section(path="BENCH_simulator.json"):
    """Measure the streaming core and update ``path`` in place."""
    import json
    import sys

    trace = artifacts_for("CONDUCT").trace
    section = {}

    one_pass = {}
    singles = {
        "LRU": [StreamRequest.lru(32)],
        "FIFO": [StreamRequest.fifo(32)],
        "WS": [StreamRequest.ws(2000)],
        "LRU+FIFO": [StreamRequest.lru(32), StreamRequest.fifo(32)],
        "sweep8": list(SWEEP8),
    }
    for name, requests in singles.items():
        stream_simulate(trace, requests)  # warm kernels and caches
        secs = _time(lambda r=requests: stream_simulate(trace, r))
        one_pass[name] = {
            "wall_sec": round(secs, 4),
            "policy_refs_per_sec": round(
                trace.length * len(requests) / secs
            ),
        }
    section["one_pass"] = one_pass

    # one-pass vs N independent event-driven replays: the same eight
    # results the sweep8 scan produces, replayed one policy at a time.
    def n_replay():
        for m in (8, 16, 32, 64):
            simulate(trace, LRUPolicy(frames=m))
        for m in (8, 16, 32, 64):
            simulate(trace, FIFOPolicy(frames=m))

    n_secs = _time(n_replay, repeat=1)
    section["sweep8_event_driven_wall_sec"] = round(n_secs, 3)
    section["sweep8_one_pass_speedup"] = round(
        n_secs / one_pass["sweep8"]["wall_sec"], 1
    )
    ws_secs = _time(lambda: simulate(trace, WorkingSetPolicy(tau=2000)))
    section["ws_event_driven_refs_per_sec"] = round(trace.length / ws_secs)

    # chunked off-disk replay over mmap-backed shards
    import tempfile

    from repro.tracegen.io import open_sharded_trace, save_trace_sharded

    with tempfile.TemporaryDirectory() as tmp:
        save_trace_sharded(trace, tmp + "/conduct", shard_size=65536)
        sharded = open_sharded_trace(tmp + "/conduct")
        secs = _time(
            lambda: stream_simulate(sharded, [StreamRequest.lru(32)])
        )
        section["sharded_lru"] = {
            "wall_sec": round(secs, 4),
            "refs_per_sec": round(trace.length / secs),
        }

    rss1 = _sharded_rss_kb(1)
    rss4 = _sharded_rss_kb(4)
    section["sharded_peak_rss_kb"] = {
        "trace_x1": rss1,
        "trace_x4": rss4,
        "growth_ratio": round(rss4 / rss1, 2),
    }

    try:
        with open(path) as fh:
            summary = json.load(fh)
    except (OSError, ValueError):
        summary = {}
    summary["stream"] = section
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote stream section of {path}", file=sys.stderr)
    return section


def quick_check(baseline_path="BENCH_simulator.json", slowdown_factor=4.0):
    """Warn-only streaming smoke for CI: re-measure one-pass throughput
    on CONDUCT and compare with the committed ``stream`` section.

    Never fails the build — shared CI runners vary too much — but warns
    when a configuration runs ``slowdown_factor`` times slower than the
    recorded baseline, which only trips on algorithmic regressions.
    """
    import json
    import sys

    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)["stream"]["one_pass"]
    except (OSError, KeyError, ValueError) as err:
        print(f"quick: no usable stream baseline ({err})")
        return 0

    trace = artifacts_for("CONDUCT").trace
    configs = {
        "LRU": [StreamRequest.lru(32)],
        "FIFO": [StreamRequest.fifo(32)],
        "WS": [StreamRequest.ws(2000)],
        "sweep8": list(SWEEP8),
    }
    warnings = 0
    for name, requests in configs.items():
        stream_simulate(trace, requests)
        secs = _time(lambda r=requests: stream_simulate(trace, r), repeat=2)
        measured = round(trace.length * len(requests) / secs)
        expected = baseline.get(name, {}).get("policy_refs_per_sec")
        if expected is None:
            print(f"quick: {name:8s} {measured:>12,} policy-refs/s (no baseline)")
            continue
        ratio = expected / measured
        status = "ok"
        if ratio > slowdown_factor:
            status = f"WARNING: {ratio:.1f}x slower than baseline"
            warnings += 1
        print(
            f"quick: {name:8s} {measured:>12,} policy-refs/s "
            f"(baseline {expected:,}) {status}"
        )
    if warnings:
        print(
            f"quick: {warnings} streaming config(s) below threshold — "
            "investigate before trusting sweep timings",
            file=sys.stderr,
        )
    return 0  # warn-only by design


if __name__ == "__main__":
    import sys

    if "--quick" in sys.argv[1:]:
        args = [a for a in sys.argv[1:] if a != "--quick"]
        sys.exit(quick_check(*args[:1]))
    write_stream_section(*sys.argv[1:2])
