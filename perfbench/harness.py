"""Measurement machinery shared by the workloads.

* :class:`Probe` — a fixed host-speed probe that uses no repo code; the
  probes around an op (:func:`reference_seconds`), or the typical probe
  of set-up (:func:`drift_factor`), turn raw seconds into reference
  seconds, so host drift between runs cancels;
* :class:`Gate` — runs one op at a time under a timeout, checks its
  output, runs the probe, and records the outcome (closed loop, one
  caller);
* :func:`vm_hwm_mb` / :func:`reset_hwm` — peak RSS of this process.
"""

from __future__ import annotations

import gc
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence


class Probe:
    """A fixed amount of host work that uses no repo code, run with gc
    off, in three parts: a dict-update loop (interpreter speed), a loop
    of small numpy calls (call overhead) and a stable argsort of a
    fixed-seed int64 array about the size of L2 (memory); the numpy
    calls take about half of its time and the sort a third.  The host's fast and slow states speed the
    interpreter up more than memory-bound work: the sort alone tracked
    tables-warm and build-cold best and replay worst, the two interpreter
    parts the other way round.  This mix was chosen on five same-seed
    runs of each workload, recorded with every part timed separately."""

    def __init__(self, loop_steps: int, numpy_calls: int, sort_elements: int, seed: int):
        import numpy as np

        self._argsort = np.argsort
        self._small = np.arange(256)
        self._array = np.random.default_rng(seed).integers(
            0, 1 << 40, sort_elements
        )
        self._steps = loop_steps
        self._numpy_calls = numpy_calls
        self.durations: List[float] = []

    def run(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            counts = {}
            for i in range(self._steps):
                key = i & 511
                counts[key] = counts.get(key, 0) + i
            small = self._small
            for i in range(self._numpy_calls):
                (small * i + 1).sum()
            self._argsort(self._array, kind="stable")
            elapsed = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.durations.append(elapsed)
        return elapsed


def typical(durations: Sequence[float], trim: float = 0.1) -> float:
    """Mean of the probe durations with ``trim`` cut from each end.

    The host flips between a fast and a slow state within seconds, so
    probe durations are bimodal: their median jumps between the two
    modes from run to run, while a trimmed mean follows the share of
    time spent in each and still ignores a stray outlier."""
    ordered = sorted(durations)
    cut = int(len(ordered) * trim)
    kept = ordered[cut: len(ordered) - cut] or ordered
    return sum(kept) / len(kept)


def drift_factor(probe_durations: Sequence[float], p_ref: float) -> float:
    """``P_ref / typical probe duration``: multiply raw seconds by this
    to get reference seconds.  ``P_ref`` is a constant of the benchmark,
    never re-measured per commit."""
    return p_ref / typical(probe_durations)


def reference_seconds(outcome: "Outcome", p_ref: float) -> float:
    """An op's raw seconds × ``P_ref`` / the mean of the probes taken just
    before and just after it.

    Scaling each op by the host speed around it weights the probes by the
    time the ops took; one factor for a whole phase gives a burst of short
    ops as much say as the long ops around it."""
    return outcome.raw_s * p_ref / outcome.probe_s


@dataclass
class Op:
    """One closed-loop operation.

    ``run`` does the work and returns its output; ``check`` returns None
    when the output is correct and a reason otherwise.  ``before`` runs
    just ahead of ``run`` (dropping memos, emptying a cache), off the
    clock but under the op's timeout; if it fails, the op fails.
    """

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    before: Optional[Callable[[], None]] = None
    in_process: bool = True


@dataclass
class Outcome:
    kind: str
    label: str
    raw_s: float
    in_process: bool
    #: mean duration of the probes just before and just after the op
    probe_s: float
    problem: Optional[str] = None  # None when the op passed its check


class OpTimeout(BaseException):
    """Raised by the per-op alarm.  Not an ``Exception``: the program
    catches ``Exception`` around cache loads (to quarantine and rebuild a
    bad entry), and an alarm swallowed there would let the op run on."""


@dataclass
class Gate:
    """Runs ops one at a time and checks each one.

    A mismatch, a failed check, an exception or a timeout marks the op
    failed; the run goes on, and no op is retried or dropped.  Past the
    run's ``deadline`` (``time.monotonic()``) ops fail without running,
    so a hanging program still ends the run in time.
    """

    probe: Probe
    timeout_s: float
    deadline: float
    outcomes: List[Outcome] = field(default_factory=list)

    def run(self, op: Op) -> Outcome:
        """Run, check and record ``op``; the probe must have run before."""
        probe_before = self.probe.durations[-1]
        if time.monotonic() > self.deadline:
            outcome = Outcome(op.kind, op.label, 0.0, op.in_process, probe_before,
                              "run deadline passed")
            self.outcomes.append(outcome)
            return outcome
        problem: Optional[str] = None
        t0 = raw = None
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, self.timeout_s)
        try:
            if op.before is not None:
                op.before()
            t0 = time.perf_counter()
            output = op.run()
            raw = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            problem = op.check(output)
        except OpTimeout:
            problem = f"timed out after {self.timeout_s:g}s"
        except Exception as err:  # any failure of the program is a failed op
            problem = f"{type(err).__name__}: {err}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if raw is None:  # failed in ``before`` or ``run``: time until the failure
            raw = time.perf_counter() - t0 if t0 is not None else 0.0
        probe_s = (probe_before + self.probe.run()) / 2
        outcome = Outcome(op.kind, op.label, raw, op.in_process, probe_s, problem)
        self.outcomes.append(outcome)
        return outcome

    @property
    def failed(self) -> List[Outcome]:
        return [o for o in self.outcomes if o.problem is not None]


def _raise_timeout(signum, frame):
    raise OpTimeout()


def vm_hwm_mb() -> float:
    """Peak resident set size of this process (VmHWM), in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def reset_hwm() -> None:
    """Reset VmHWM to the current RSS (``5`` to ``/proc/self/clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as clear_refs:
        clear_refs.write("5")
