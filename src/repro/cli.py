"""Command-line interface: ``python -m repro`` / ``cdmm``.

Subcommands
-----------

``analyze <file|workload>``
    Print the loop tree with Λ, Δ, PI, and locality sizes.

``instrument <file|workload>``
    Print the program with ALLOCATE/LOCK/UNLOCK directives interleaved
    (Figure-5c style).

``trace <file|workload>``
    Generate the reference trace and print its summary.

``simulate <file|workload> --policy …``
    Replay the trace under one policy and print PF/MEM/ST.

``table {1,2,3,4,zoo,locks,sizing}``
    Regenerate one of the paper's tables or an ablation.

``lint <file|workload|all> …``
    Run the static checker: paper invariants (Procedure 1, Algorithms
    1/2) and locality hygiene on the program and its directive plan.
    Exit code 1 when any error-level finding is reported.

``run [targets…] --jobs N --resume <run-id>``
    Run an experiment sweep (tables and/or oracle seed batches) as a
    DAG of supervised, retryable jobs; completed jobs checkpoint to a
    JSONL run ledger under ``results/runs/<run-id>/`` so an interrupted
    sweep resumes exactly where it stopped.  ``--chaos`` injects
    deterministic faults for testing the supervisor.

``list``
    List the bundled benchmark workloads.

``verify [--seeds N] [--time-budget S]``
    Run the differential-testing oracle: random loop nests through the
    compiled/interpreted trace paths, the fast/slow metric paths, and
    the policy invariants.  Divergences are shrunk and written to
    ``results/oracle_failures/``.

``serve [--dir D] [--jobs N] [--resume] [--quota T=BYTES …]``
    Run the persistent sweep daemon on a UNIX socket; clients drive it
    with the subcommands below.  SIGTERM drains in-flight attempts and
    exits 143; ``--resume`` picks the journaled queue back up.

``submit / status / results / watch / cancel / shutdown``
    Talk to a running daemon: enqueue sweep targets under a tenant and
    priority, inspect the queue, fetch settled payloads, stream a
    job's live events, cancel, or ask the daemon to drain.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Optional

from repro.analysis.locality import analyze_program
from repro.directives import instrument_program, render_instrumented
from repro.frontend.errors import FrontendError
from repro.frontend.parser import parse_source
from repro.tracegen.interpreter import generate_trace
from repro.vm.policies import (
    CDConfig,
    CDPolicy,
    FIFOPolicy,
    LRUPolicy,
    OPTPolicy,
    PFFPolicy,
    WorkingSetPolicy,
)
from repro.vm.simulator import simulate
from repro.workloads import all_workloads, get_workload


def _positive_int(text: str) -> int:
    """argparse type for counts and sizes that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _comma_list(item, name: str):
    """argparse type for a comma-separated list, each entry parsed by
    ``item`` (which raises ValueError with the reason); an empty string
    is an empty list."""

    def parse(text: str) -> list:
        values = []
        for part in text.split(",") if text else []:
            try:
                values.append(item(part))
            except ValueError as err:
                raise argparse.ArgumentTypeError(
                    f"invalid {name} {part!r}: {err}"
                ) from None
        return values

    return parse


def _offered_load(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError("must be a finite positive number")
    return value


def _admission_name(text: str) -> str:
    from repro.vm.multiprog import ADMISSION_POLICIES

    if text not in ADMISSION_POLICIES:
        raise ValueError(f"known: {', '.join(sorted(ADMISSION_POLICIES))}")
    return text


def _workload_name(text: str) -> str:
    try:
        get_workload(text)
    except KeyError:
        known = ", ".join(w.name for w in all_workloads())
        raise ValueError(f"known: {known}") from None
    return text


def _nest_seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError("not an integer") from None


def _load_program(spec: str):
    """A workload name or a path to a mini-FORTRAN source file."""
    path = Path(spec)
    if path.exists():
        return parse_source(path.read_text())
    try:
        return get_workload(spec).program()
    except KeyError:
        raise SystemExit(
            f"error: {spec!r} is neither a file nor a bundled workload"
        ) from None


def _replay_trace(spec: str, with_locks: bool):
    """An instrumented trace for a replay command.

    Bundled workloads go through the content-hash artifact cache
    (:func:`repro.experiments.runner.artifacts_for`), so the slow
    tracegen workloads (HYBRJ, TQL) pay their generation cost once per
    cache, not once per invocation.  Source files are always fresh.
    """
    path = Path(spec)
    if not path.exists():
        from repro.experiments.runner import artifacts_for

        try:
            return artifacts_for(spec, with_locks=with_locks).trace
        except KeyError:
            raise SystemExit(
                f"error: {spec!r} is neither a file nor a bundled workload"
            ) from None
    program = parse_source(path.read_text())
    plan = instrument_program(program, with_locks=with_locks)
    return generate_trace(program, plan=plan)


def _cmd_list(_args) -> int:
    for w in all_workloads():
        print(f"{w.name:8s} [{w.origin:8s}] {w.description}")
    return 0


def _cmd_analyze(args) -> int:
    program = _load_program(args.program)
    analysis = analyze_program(program)
    if args.report:
        from repro.analysis.explain import explain_program

        print(explain_program(program, analysis=analysis), end="")
        return 0
    print(f"PROGRAM {program.name}: Δ = {analysis.tree.max_depth}, ", end="")
    print(f"V = {analysis.program_virtual_size} pages")
    for node in analysis.tree.nodes():
        report = analysis.reports[node.loop_id]
        indent = "  " * node.level
        print(
            f"{indent}DO {node.var} (line {report.line}): "
            f"level Λ={report.level}, PI={report.priority_index}, "
            f"X={report.virtual_size} pages"
        )
        if args.verbose:
            for c in report.contributions:
                print(
                    f"{indent}    {c.array}: {c.pages} pages "
                    f"[{c.order.value}, d={c.depth_difference}] ({c.rule})"
                )
    return 0


def _cmd_instrument(args) -> int:
    program = _load_program(args.program)
    plan = instrument_program(program, with_locks=not args.no_locks)
    print(render_instrumented(program, plan), end="")
    return 0


def _cmd_lint(args) -> int:
    from repro.staticcheck import (
        all_rules,
        has_errors,
        lint_program,
        lint_source,
        render_json,
        render_text,
    )

    if args.list_rules:
        for info in all_rules():
            print(
                f"{info.rule_id}  {info.name:22s} {info.severity:8s} "
                f"{info.summary}"
            )
        return 0
    specs = list(args.programs)
    if specs == ["all"]:
        specs = [w.name for w in all_workloads()]
    if not specs:
        raise SystemExit("error: no programs given (or use --list-rules)")
    rule_ids = args.rules.split(",") if args.rules else None
    exit_code = 0
    for spec in specs:
        path = Path(spec)
        if path.exists():
            # Instrumented sources are checked against the plan they
            # carry; plain sources are self-instrumented and checked.
            diagnostics = lint_source(path.read_text(), rule_ids=rule_ids)
            name = str(path)
        else:
            diagnostics = lint_program(_load_program(spec), rule_ids=rule_ids)
            name = spec
        render = render_json if args.json else render_text
        print(render(diagnostics, name), end="")
        if has_errors(diagnostics):
            exit_code = 1
    return exit_code


def _cmd_trace(args) -> int:
    if args.policy is not None:
        return _trace_with_policy(args)
    program = _load_program(args.program)
    plan = None
    if args.directives:
        plan = instrument_program(program)
    trace = generate_trace(program, plan=plan)
    print(trace.summary())
    for array, pages in sorted(trace.footprint_by_array().items()):
        first, count = trace.array_pages[array]
        print(f"  {array:8s} pages {first}..{first + count - 1} ({pages} touched)")
    return 0


def _trace_with_policy(args) -> int:
    """``trace --policy``: replay under a policy with the tracer on,
    then write the event log and/or render a profile report."""
    from repro.obs import (
        Fault,
        JsonlSink,
        RingBufferSink,
        Tracer,
        build_profile,
        render_profile,
    )

    trace = _replay_trace(args.program, args.locks)
    policy = _make_policy(args)
    sample_every = args.sample_every
    if sample_every is None:
        # Auto: ~4096 samples per run keeps event logs a few MB at most.
        sample_every = max(1, len(trace.pages) // 4096)
    ring = RingBufferSink()
    sinks = [ring]
    if args.events:
        sinks.append(JsonlSink(Path(args.events)))
    tracer = Tracer(*sinks)
    try:
        result = simulate(
            trace, policy, tracer=tracer, sample_interval=sample_every
        )
    finally:
        tracer.close()
    event_faults = sum(1 for e in ring.events if isinstance(e, Fault))
    if event_faults != result.page_faults:
        print(
            f"error: event log recorded {event_faults} faults but the "
            f"simulator counted {result.page_faults}",
            file=sys.stderr,
        )
        return 1
    report = render_profile(
        build_profile(ring.events, array_pages=trace.array_pages),
        result=result,
        fmt=args.format,
    )
    if args.report and args.report != "-":
        Path(args.report).parent.mkdir(parents=True, exist_ok=True)
        Path(args.report).write_text(report + "\n")
        print(f"wrote report to {args.report}")
    else:
        print(report)
    if args.events:
        print(f"wrote {ring.total_seen} events to {args.events}")
    return 0


def _make_policy(args):
    name = args.policy.upper()
    if name == "LRU":
        return LRUPolicy(frames=args.frames)
    if name == "FIFO":
        return FIFOPolicy(frames=args.frames)
    if name == "CLOCK":
        from repro.vm.policies import ClockPolicy

        return ClockPolicy(frames=args.frames)
    if name == "OPT":
        return OPTPolicy(frames=args.frames)
    if name == "WS":
        return WorkingSetPolicy(tau=args.tau)
    if name == "PFF":
        return PFFPolicy(threshold=args.tau)
    if name == "CD":
        return CDPolicy(
            CDConfig(pi_cap=args.pi_cap, memory_limit=args.memory_limit)
        )
    raise SystemExit(f"error: unknown policy {args.policy!r}")


def _cmd_simulate(args) -> int:
    trace = _replay_trace(args.program, args.locks)
    policy = _make_policy(args)
    result = simulate(trace, policy)
    print(result.describe())
    if result.swaps or result.denied_requests or result.lock_releases:
        print(
            f"  swaps={result.swaps} denied={result.denied_requests} "
            f"lock_releases={result.lock_releases}"
        )
    return 0


def _cmd_multiprog(args) -> int:
    from repro.experiments.load_control import (
        cliff_report,
        load_control_sweep,
        nest_profiles,
        render_load_control,
        workload_profiles,
    )

    if args.smoke:
        loads = [0.25, 1.0, 4.0]
        nest_seeds = [11, 23, 47]
        workloads: list = []
        frames = 48
        arrival_horizon = 150_000
        run_horizon = 450_000
    else:
        loads = args.loads
        nest_seeds = args.nest_seeds
        workloads = args.workloads
        frames = args.frames
        arrival_horizon = args.horizon
        run_horizon = args.run_horizon
    policies = args.policies

    profiles = []
    if workloads:
        profiles.extend(workload_profiles(workloads, max_refs=args.max_refs))
    if nest_seeds:
        profiles.extend(nest_profiles(nest_seeds, max_refs=args.max_refs))
    if not profiles:
        # default mix: three benchmarks plus three fuzzer nests
        profiles.extend(
            workload_profiles(("TQL", "FDJAC", "HYBRJ"), max_refs=args.max_refs)
        )
        profiles.extend(nest_profiles((11, 23, 47), max_refs=args.max_refs))

    tracer = None
    sink = None
    if args.events:
        from repro.obs import JsonlSink, Tracer

        sink = JsonlSink(Path(args.events))
        tracer = Tracer(sink)
    try:
        points = load_control_sweep(
            profiles,
            loads=loads,
            policies=policies,
            total_frames=frames,
            cpus=args.cpus,
            arrival_horizon=arrival_horizon,
            run_horizon=run_horizon,
            seed=args.seed,
            tracer=tracer,
        )
    finally:
        if sink is not None:
            sink.close()
    print(render_load_control(points))
    if args.check:
        verdicts = cliff_report(points)
        failures = []
        if "uncontrolled" in policies and not verdicts.get("uncontrolled"):
            failures.append(
                "expected the uncontrolled baseline to hit a thrashing cliff"
            )
        for policy in policies:
            if policy != "uncontrolled" and verdicts.get(policy, False):
                failures.append(f"{policy} control fell off a cliff")
        if failures:
            for f in failures:
                print(f"CHECK FAILED: {f}", file=sys.stderr)
            return 1
        print("load-control checks passed", file=sys.stderr)
    return 0


def _cmd_table(args) -> int:
    import time

    from repro.experiments import TABLE_RENDERERS, render_table
    from repro.experiments.runner import STATS, replay_options, warm_for_table

    which = args.which.lower()
    if which not in TABLE_RENDERERS:
        raise SystemExit(f"error: unknown table {args.which!r}")
    if args.mode == "static":
        if which != "2":
            raise SystemExit(
                "error: --mode static currently supports table 2 only"
            )
        if args.timelines:
            raise SystemExit(
                "error: --timelines needs --mode trace (the static tier "
                "replays no events)"
            )
    tdir = None
    if args.timelines:
        tdir = Path(args.timelines)
        tdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    with replay_options(timelines=tdir):
        if args.mode == "static":
            from repro.experiments.table2 import render_table2

            print(render_table2(mode="static"))
        else:
            if args.jobs and args.jobs > 1:
                warm_for_table(which, jobs=args.jobs)
            print(render_table(which))
    if args.stats:
        wall = time.perf_counter() - t0
        print(f"[stats] wall {wall:.2f}s · {STATS.describe()}", file=sys.stderr)
    return 0


def _cmd_cache(args) -> int:
    from repro.experiments.runner import cache_dir, cache_info, clear_cache

    action = args.action
    if action == "path":
        cdir = cache_dir()
        print(cdir if cdir is not None else "(disabled)")
    elif action == "info":
        info = cache_info()
        print(f"dir:          {info['dir'] or '(disabled)'}")
        print(f"disk entries: {info['disk_entries']}")
        print(f"disk bytes:   {info['disk_bytes']}")
        if info["quarantined"]:
            print(f"quarantined:  {info['quarantined']} (*.corrupt)")
    elif action == "clear":
        before = cache_info()["disk_entries"]
        clear_cache()
        print(f"removed {before} cached file(s)")
    else:
        raise SystemExit(f"error: unknown cache action {action!r}")
    return 0


def _cmd_curves(args) -> int:
    from repro.experiments.curves import policy_curves

    curves = policy_curves(args.program)
    if args.csv:
        print(curves.to_csv(), end="")
    else:
        print(curves.render())
    return 0


def _cmd_reproduce(args) -> int:
    """Regenerate every table and study, writing one file per artifact."""
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    from repro.experiments.table1 import render_table1
    from repro.experiments.table2 import render_table2
    from repro.experiments.table3 import render_table3
    from repro.experiments.table4 import render_table4
    from repro.experiments.ablations import (
        render_adaptive_study,
        render_lock_ablation,
        render_policy_zoo,
        render_sizing_ablation,
        render_ws_family,
    )
    from repro.experiments.controllability import render_controllability
    from repro.experiments.geometry import render_geometry
    from repro.experiments.multiprog_study import render_multiprog

    artifacts = [
        ("table1.txt", render_table1),
        ("table2.txt", render_table2),
        ("table3.txt", render_table3),
        ("table4.txt", render_table4),
        ("ablation_zoo.txt", render_policy_zoo),
        ("ablation_sizing.txt", render_sizing_ablation),
        ("ablation_locks.txt", render_lock_ablation),
        ("ablation_ws_family.txt", render_ws_family),
        ("ablation_adaptive.txt", render_adaptive_study),
        ("controllability.txt", render_controllability),
        ("geometry.txt", render_geometry),
        ("multiprogramming.txt", render_multiprog),
    ]
    for filename, render in artifacts:
        text = render()
        (out_dir / filename).write_text(text + "\n")
        print(f"wrote {out_dir / filename}")
        if args.show:
            print(text)
            print()
    return 0


def _cmd_bli(args) -> int:
    from repro.directives import instrument_program
    from repro.vm.bli import BLIAnalyzer, compare_with_predictions

    program = _load_program(args.program)
    plan = instrument_program(program)
    trace = generate_trace(program, plan=plan)
    analyzer = BLIAnalyzer(trace)
    print(analyzer.summary())
    print(compare_with_predictions(trace).describe())
    return 0


def _cmd_run(args) -> int:
    """``repro run``: a supervised, resumable experiment sweep."""
    from repro.engine import ChaosPlan, EngineConfig, new_run_id, run_sweep

    chaos = None
    if args.chaos:
        chaos = ChaosPlan(
            args.chaos, hits=args.chaos_hits, match=args.chaos_match
        )
    config = EngineConfig(
        max_workers=max(1, args.jobs),
        max_retries=args.max_retries,
        timeout=args.timeout,
        chaos=chaos,
    )
    run_id = args.resume or new_run_id()
    try:
        result = run_sweep(
            args.targets,
            run_id=run_id,
            runs_root=Path(args.output),
            resume=args.resume is not None,
            config=config,
            progress=lambda msg: print(msg, flush=True),
        )
    except ValueError as err:
        raise SystemExit(f"error: {err}") from None
    report = result.report
    print(report.summary())
    for job_id, error in sorted(report.failed.items()):
        print(f"  {job_id}: {error}")
    oracle_failures = result.oracle_failures()
    for failure in oracle_failures:
        print(
            f"  oracle seed {failure['seed']}: {failure['check']} — "
            f"{failure['detail']}"
        )
    print(f"run ledger: {result.run_dir / 'ledger.jsonl'}")
    if not report.ok:
        print(
            f"resume with: repro run {' '.join(args.targets)} "
            f"--resume {result.run_id}"
        )
    return 0 if report.ok and not oracle_failures else 1


def _cmd_verify(args) -> int:
    from repro.oracle import verify

    report = verify(
        seeds=args.seeds,
        time_budget=args.time_budget,
        start_seed=args.start_seed,
        out_dir=Path(args.output) if args.output else None,
        shrink=not args.no_shrink,
        engine=args.engine,
        progress=lambda msg: print(msg, flush=True),
    )
    print(report.summary())
    for failure in report.failures:
        print(f"  seed {failure.seed}: {failure.check} — {failure.detail}")
        for path in failure.paths:
            print(f"    {path}")
    return 0 if report.ok else 1


def _cmd_serve(args) -> int:
    """``repro serve``: the persistent sweep daemon."""
    from repro.engine import EngineConfig
    from repro.service import ServeDaemon, TenantQuotas

    limits = {}
    for spec in args.quota or []:
        tenant, _, raw = spec.partition("=")
        if not tenant or not raw.isdigit():
            raise SystemExit(f"error: bad --quota {spec!r} (want TENANT=BYTES)")
        limits[tenant] = int(raw)
    quotas = TenantQuotas(limits, default_limit=args.default_quota)
    config = EngineConfig(
        max_workers=max(1, args.jobs),
        max_retries=args.max_retries,
        timeout=args.timeout,
    )
    daemon = ServeDaemon(args.dir, config=config, quotas=quotas)
    try:
        return daemon.serve(
            resume=args.resume, announce=lambda msg: print(msg, flush=True)
        )
    except RuntimeError as err:
        raise SystemExit(f"error: {err}") from None


def _client(args):
    from repro.service import ServiceClient

    return ServiceClient(args.dir)


def _service_fail(err) -> int:
    print(f"error: {err}", file=sys.stderr)
    return 1


def _cmd_submit(args) -> int:
    import json

    from repro.service import ServiceError

    try:
        with _client(args) as client:
            reply = client.submit(
                args.targets, tenant=args.tenant, priority=args.priority
            )
            job = reply["job"]
            if args.json:
                print(json.dumps(reply, sort_keys=True))
            else:
                warm = f" ({len(reply['warm'])} warm)" if reply.get("warm") else ""
                print(f"{job}: {len(reply['specs'])} spec(s) queued{warm}")
            if not args.wait:
                return 0
            state = client.wait(job)
            if not args.json:
                print(f"{job}: {state}")
            return 0 if state == "done" else 1
    except ServiceError as err:
        return _service_fail(err)


def _render_job(record: dict) -> str:
    states = record.get("spec_states", {})
    done = sum(1 for s in states.values() if s.get("state") == "done")
    warm = sum(
        1
        for s in states.values()
        if s.get("state") == "done" and s.get("attempts", 0) == 0
    )
    line = (
        f"{record['job']}  {record['tenant']:10s} prio {record['priority']:>3d}  "
        f"{record['state']:9s} {done}/{len(states)} specs"
        + (f" ({warm} warm)" if warm else "")
    )
    if record.get("error"):
        line += f"  [{record['error']}]"
    return line


def _cmd_status(args) -> int:
    import json

    from repro.service import ServiceError

    try:
        with _client(args) as client:
            reply = client.status(args.job)
    except ServiceError as err:
        return _service_fail(err)
    if args.json:
        print(json.dumps(reply, sort_keys=True))
        return 0
    records = [reply["job"]] if args.job else reply.get("jobs", [])
    if not records:
        print("no jobs")
    for record in records:
        print(_render_job(record))
        if args.job:
            for spec_id, s in record.get("spec_states", {}).items():
                detail = f"    {spec_id:24s} {s.get('state', '?'):8s}"
                detail += f" attempts={s.get('attempts', 0)}"
                if s.get("error"):
                    detail += f"  [{s['error']}]"
                print(detail)
    tenants = reply.get("tenants") or {}
    for tenant, usage in tenants.items():
        limit = usage.get("limit_bytes")
        print(
            f"tenant {tenant}: {usage.get('used_bytes', 0)} bytes charged"
            + (f" / {limit}" if limit is not None else "")
        )
    return 0


def _cmd_results(args) -> int:
    import json

    from repro.engine.sweeps import _output_name
    from repro.service import ServiceError

    try:
        with _client(args) as client:
            reply = client.results(args.job)
    except ServiceError as err:
        return _service_fail(err)
    payloads = reply.get("payloads", {})
    if args.output:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        for payload in payloads.values():
            if isinstance(payload, dict) and "text" in payload and "which" in payload:
                path = out_dir / _output_name(payload["which"])
                path.write_text(payload["text"] + "\n")
                print(f"wrote {path}")
        return 0
    if args.json:
        print(json.dumps(reply, sort_keys=True))
        return 0
    for spec_id, payload in payloads.items():
        if isinstance(payload, dict) and "text" in payload:
            print(payload["text"])
        else:
            print(f"{spec_id}: {json.dumps(payload, sort_keys=True)}")
    return 0


def _cmd_watch(args) -> int:
    import json

    from repro.service import ServiceError

    try:
        with _client(args) as client:
            final = "unknown"
            for frame in client.watch(args.job):
                if "done" in frame:
                    final = str(frame.get("state", "unknown"))
                    print(f"{args.job}: {final}")
                else:
                    print(json.dumps(frame.get("event", {}), sort_keys=True))
            return 0 if final == "done" else 1
    except ServiceError as err:
        return _service_fail(err)


def _cmd_cancel(args) -> int:
    from repro.service import ServiceError

    try:
        with _client(args) as client:
            reply = client.cancel(args.job)
    except ServiceError as err:
        return _service_fail(err)
    cancelled = reply.get("cancelled", [])
    shared = "" if cancelled else " (all specs shared or settled)"
    print(f"{reply['job']}: {reply['state']}, {len(cancelled)} spec(s) stopped{shared}")
    return 0


def _cmd_shutdown(args) -> int:
    from repro.service import ServiceError

    try:
        with _client(args) as client:
            client.shutdown()
    except ServiceError as err:
        return _service_fail(err)
    print("daemon draining")
    return 0


def _add_policy_arguments(p) -> None:
    """The policy parameters ``trace --policy`` and ``simulate`` share."""
    p.add_argument(
        "--frames",
        type=_positive_int,
        default=8,
        help="frames for LRU/FIFO/CLOCK/OPT (default 8)",
    )
    p.add_argument(
        "--tau",
        type=_positive_int,
        default=1000,
        help="window for WS / threshold for PFF (default 1000)",
    )
    p.add_argument("--pi-cap", type=_positive_int, dest="pi_cap")
    p.add_argument("--memory-limit", type=_positive_int, dest="memory_limit")
    p.add_argument("--locks", action="store_true", help="execute LOCK/UNLOCK")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdmm",
        description=(
            "Compiler Directed Memory Management (Malkawi & Patel, SOSP 1985)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list bundled workloads").set_defaults(
        func=_cmd_list
    )

    p = sub.add_parser("analyze", help="source-level locality analysis")
    p.add_argument("program", help="workload name or source file")
    p.add_argument("-v", "--verbose", action="store_true")
    p.add_argument(
        "--report", action="store_true", help="emit a markdown analysis report"
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("instrument", help="show inserted directives")
    p.add_argument("program")
    p.add_argument("--no-locks", action="store_true")
    p.set_defaults(func=_cmd_instrument)

    p = sub.add_parser(
        "lint",
        help="static checker: directive invariants and locality hygiene",
    )
    p.add_argument(
        "programs",
        nargs="*",
        help="workload names, source files, or 'all' for every workload",
    )
    p.add_argument("--json", action="store_true", help="emit a JSON report")
    p.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        dest="list_rules",
        help="print the rule catalog and exit",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "trace",
        help="generate a reference trace; with --policy, capture a "
        "structured event log and render a paging profile",
    )
    p.add_argument("program")
    p.add_argument("--directives", action="store_true")
    p.add_argument(
        "--policy",
        default=None,
        help="replay under this policy with event tracing on",
    )
    _add_policy_arguments(p)
    p.add_argument(
        "--events", default=None, help="write the event stream as JSONL here"
    )
    p.add_argument(
        "--report",
        default=None,
        help="write the profile report here ('-' or omitted: stdout)",
    )
    p.add_argument(
        "--format",
        choices=["text", "markdown"],
        default="text",
        help="profile report format",
    )
    p.add_argument(
        "--sample-every",
        type=_positive_int,
        default=None,
        dest="sample_every",
        help="resident-set sample interval in references "
        "(default: auto, ~4096 samples per run)",
    )
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("simulate", help="replay under one policy")
    p.add_argument("program")
    p.add_argument("--policy", default="CD")
    _add_policy_arguments(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("table", help="regenerate a paper table or ablation")
    p.add_argument(
        "which",
        help=(
            "1, 2, 3, 4, zoo, locks, sizing, geometry, multiprog, "
            "loadctl, wsfamily, control, or adaptive"
        ),
    )
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="build missing artifacts with this many worker processes",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print per-stage wall time and cache hit counts to stderr",
    )
    p.add_argument(
        "--timelines",
        nargs="?",
        const="results/timelines",
        default=None,
        help="persist per-cell CD event timelines (JSONL) under this "
        "directory (default results/timelines)",
    )
    p.add_argument(
        "--mode",
        choices=["trace", "static"],
        default="trace",
        help="static: derive table 2 from the closed-form static string "
        "via the weighted analyzers (identical rows, no trace is ever "
        "materialized)",
    )
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser(
        "multiprog",
        help="heavy-traffic load-control sweep: throughput/response vs load",
    )
    p.add_argument(
        "--policies",
        type=_comma_list(_admission_name, "admission policy"),
        default="uncontrolled,knee,ws,cd",
        help="comma-separated admission policies to sweep",
    )
    p.add_argument(
        "--loads",
        type=_comma_list(_offered_load, "load"),
        default="0.25,0.5,1.0,2.0,4.0",
        help="comma-separated offered loads (fraction of CPU capacity)",
    )
    p.add_argument("--frames", type=_positive_int, default=64, help="shared pool size")
    p.add_argument("--cpus", type=_positive_int, default=1)
    p.add_argument("--seed", type=int, default=0, help="arrival-stream seed")
    p.add_argument(
        "--workloads",
        type=_comma_list(_workload_name, "workload"),
        default="",
        help="comma-separated traced benchmark names (default mix if no "
        "--workloads/--nest-seeds given)",
    )
    p.add_argument(
        "--nest-seeds",
        type=_comma_list(_nest_seed, "nest seed"),
        default="",
        dest="nest_seeds",
        help="comma-separated fuzzer seeds for generated nest jobs",
    )
    p.add_argument(
        "--max-refs",
        type=_positive_int,
        default=30_000,
        dest="max_refs",
        help="truncate each job's trace to this many references",
    )
    p.add_argument(
        "--horizon",
        type=_positive_int,
        default=400_000,
        help="arrival window in virtual time units",
    )
    p.add_argument(
        "--run-horizon",
        type=_positive_int,
        default=1_200_000,
        dest="run_horizon",
        help="hard stop for each pool run (virtual time)",
    )
    p.add_argument(
        "--events",
        default=None,
        help="write pool events (Admit/Defer/Suspend/Depart/PoolSample) "
        "to this JSONL file",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless the uncontrolled baseline thrashes and every "
        "controlled policy stays flat-topped",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="small fast preset (fuzzer nests only) for CI",
    )
    p.set_defaults(func=_cmd_multiprog)

    p = sub.add_parser(
        "cache", help="inspect or clear the persistent artifact cache"
    )
    p.add_argument("action", choices=["info", "clear", "path"])
    p.set_defaults(func=_cmd_cache)

    p = sub.add_parser(
        "bli", help="detect locality intervals and compare with predictions"
    )
    p.add_argument("program")
    p.set_defaults(func=_cmd_bli)

    p = sub.add_parser(
        "curves", help="LRU/WS sweep series with CD operating points"
    )
    p.add_argument("program", help="bundled workload name")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser(
        "verify",
        help="run the differential-testing oracle over random loop nests",
    )
    p.add_argument(
        "--seeds", type=_positive_int, default=50, help="number of seeds to run"
    )
    p.add_argument(
        "--time-budget",
        type=float,
        default=None,
        dest="time_budget",
        help="stop cleanly after this many seconds (always runs >= 1 seed)",
    )
    p.add_argument(
        "--start-seed",
        type=int,
        default=0,
        dest="start_seed",
        help="first seed (replay a reproducer with --seeds 1 --start-seed N)",
    )
    p.add_argument(
        "-o",
        "--output",
        default=None,
        help="failure-reproducer directory (default results/oracle_failures)",
    )
    p.add_argument(
        "--no-shrink",
        action="store_true",
        dest="no_shrink",
        help="write the original failing source without minimizing it",
    )
    p.add_argument(
        "--engine",
        action="store_true",
        help="also run the engine self-checks (chaos retry/resume, "
        "ledger round-trip, cache self-healing)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "run",
        help="run an experiment sweep under supervision: retries, "
        "timeouts, checkpoint/resume, optional chaos",
    )
    p.add_argument(
        "targets",
        nargs="*",
        default=["1", "2", "3", "4"],
        help="tables/ablations (table names) and/or verify[:seeds[:batch]] "
        "(default: tables 1-4)",
    )
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="supervised worker processes",
    )
    p.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help="continue an interrupted run from its ledger",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        dest="max_retries",
        help="extra attempts per job after the first (default 2)",
    )
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-attempt timeout in seconds (default: none)",
    )
    p.add_argument(
        "--chaos",
        choices=["kill-worker", "inject-exception", "slow-job",
                 "corrupt-cache-entry"],
        default=None,
        help="inject deterministic faults (testing the supervisor)",
    )
    p.add_argument(
        "--chaos-hits",
        type=int,
        default=1,
        dest="chaos_hits",
        help="sabotaged attempts per matching job (default 1)",
    )
    p.add_argument(
        "--chaos-match",
        default="*",
        dest="chaos_match",
        help="fnmatch pattern over job ids the chaos applies to",
    )
    p.add_argument(
        "-o",
        "--output",
        default="results/runs",
        help="runs directory (default results/runs)",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "reproduce",
        help="regenerate every table and study into an output directory",
    )
    p.add_argument("-o", "--output", default="results", help="output directory")
    p.add_argument("--show", action="store_true", help="also print each table")
    p.set_defaults(func=_cmd_reproduce)

    default_dir = "results/service"

    p = sub.add_parser(
        "serve",
        help="run the persistent sweep daemon on a UNIX socket",
    )
    p.add_argument(
        "--dir",
        default=default_dir,
        help=f"service directory: socket, queue journal, ledgers "
        f"(default {default_dir})",
    )
    p.add_argument(
        "-j", "--jobs", type=int, default=2, help="supervised worker processes"
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="pick up an existing queue journal (required if one exists)",
    )
    p.add_argument(
        "--max-retries", type=int, default=2, dest="max_retries",
        help="extra attempts per job after the first (default 2)",
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-attempt timeout in seconds (default: none)",
    )
    p.add_argument(
        "--quota",
        action="append",
        metavar="TENANT=BYTES",
        help="artifact-cache byte quota for one tenant (repeatable)",
    )
    p.add_argument(
        "--default-quota",
        type=int,
        default=None,
        dest="default_quota",
        help="quota for tenants without an explicit --quota (default: none)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("submit", help="enqueue sweep targets on the daemon")
    p.add_argument(
        "targets",
        nargs="+",
        help="tables/ablations and/or verify[:seeds[:batch]], as for 'run'",
    )
    p.add_argument("--dir", default=default_dir, help="service directory")
    p.add_argument("--tenant", default="default", help="tenant id")
    p.add_argument(
        "--priority", type=int, default=0,
        help="scheduling priority (higher launches first)",
    )
    p.add_argument(
        "--wait", action="store_true",
        help="block until the job settles (exit 1 unless it completes)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("status", help="one job's record, or the whole queue")
    p.add_argument("job", nargs="?", default=None, help="service job id")
    p.add_argument("--dir", default=default_dir, help="service directory")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("results", help="fetch a settled job's payloads")
    p.add_argument("job", help="service job id")
    p.add_argument("--dir", default=default_dir, help="service directory")
    p.add_argument(
        "-o", "--output", default=None,
        help="write table payloads as files into this directory",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_results)

    p = sub.add_parser("watch", help="stream a job's engine events live")
    p.add_argument("job", help="service job id")
    p.add_argument("--dir", default=default_dir, help="service directory")
    p.set_defaults(func=_cmd_watch)

    p = sub.add_parser("cancel", help="cancel a queued or running job")
    p.add_argument("job", help="service job id")
    p.add_argument("--dir", default=default_dir, help="service directory")
    p.set_defaults(func=_cmd_cancel)

    p = sub.add_parser("shutdown", help="ask the daemon to drain and exit")
    p.add_argument("--dir", default=default_dir, help="service directory")
    p.set_defaults(func=_cmd_shutdown)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Long sweeps are interrupted on purpose; the engine has already
        # flushed its run ledger and event sinks on the way up.  Exit
        # with the conventional 128+SIGINT instead of a traceback.
        print("\ninterrupted — partial results checkpointed", file=sys.stderr)
        return 130
    except FrontendError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BaseException as err:
        # SIGTERM surfaces as GracefulExit from the engine/daemon after
        # workers are reaped and the ledger is flushed; exit 128+SIGTERM.
        from repro.engine import GracefulExit

        if isinstance(err, GracefulExit):
            print("\nterminated — partial results checkpointed", file=sys.stderr)
            return GracefulExit.exit_code
        raise


if __name__ == "__main__":
    sys.exit(main())
