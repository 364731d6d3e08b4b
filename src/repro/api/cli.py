"""``python -m repro``: list, run and report experiments from the shell.

Subcommands
-----------
``repro list``
    The registered experiments with their grids and budgets.
``repro run <name|spec.json> [--ci] [--backend B] [--out DIR] [--csv PATH]``
    Execute an experiment (registered name at ``--ci``/paper scale, or a
    spec JSON file) with artifact-store caching: a second invocation with
    the same spec completes from cache.  ``--no-resume`` forces retraining.
    ``--checkpoint-every N`` (serial backend) additionally persists
    mid-trial training state so a killed run resumes *inside* a trial;
    ``--progress-every N`` streams per-trial progress to stderr;
    ``--lease-batch K`` caps the distributed lease (default: each
    worker's share of the head task's lock-step key);
    ``--journal PATH`` (distributed backend) write-ahead logs broker
    queue transitions so a killed broker restarted with the same flag
    resumes the sweep instead of rerunning it.
``repro report <name|spec.json> [--ci] [--out DIR] [--csv PATH] [--plot]``
    Re-render a finished run purely from cached artifacts (no training;
    errors if trials are missing).  ``--plot`` regenerates the Figure 4/5
    panels from the cached curves into ``--plot-dir`` (needs matplotlib;
    graceful no-op message without it).
``repro worker --connect HOST:PORT [--store DIR]``
    Join a distributed sweep as a worker: pull tasks from the broker that
    ``repro run --backend distributed --bind HOST:PORT`` published, train
    each lease lock-step, and stream results back.  A lost
    broker connection reconnects with capped exponential backoff
    (``--reconnect-attempts``/``--reconnect-base-delay``/
    ``--reconnect-max-delay``/``--reconnect-deadline``; ``--no-reconnect``
    restores the pre-1.8 exit-on-disconnect).  ``--fault-plan SPEC``
    injects deterministic connection faults for chaos testing.
``repro fleet status --connect HOST:PORT [--watch] [--json]``
    Query a live broker's ``STATS`` channel: tasks queued/leased/done,
    per-worker liveness, drain state and lease age, requeue/dedup/
    backpressure/drain counters.  ``--watch`` refreshes every
    ``--interval`` seconds; ``--json`` prints the raw snapshot for scripts.
    ``--retry-attempts N`` (shared with ``fleet autoscale``) rides out a
    broker that is briefly unreachable — e.g. mid-restart from its
    journal — instead of failing the first query.
``repro fleet autoscale --connect HOST:PORT [--min N] [--max N]``
    Attach an elastic fleet to a live broker: poll its STATS channel,
    spawn local workers when the queue backs up, and gracefully drain
    idle ones (the broker stops leasing to them; they finish in-flight
    work, deliver, and exit — no lost leases).  Runs until the broker
    goes away or Ctrl-C; exits printing the fleet summary line.
    ``repro run --backend distributed --autoscale`` embeds the same loop
    in a single command.
``repro serve <name|spec.json> [--ci] [--store DIR] [--bind HOST:PORT]``
    Host the spec's trained policies (written by ``repro run
    --save-policy``) as an online action service: the rows of the
    ``ACT_BATCH`` requests one loop tick reads are batched onto the
    vectorized greedy predict path (at most ``--max-batch`` rows per
    call), weights hot-swap via ``SWAP``
    frames from a live trainer, and a ``STATS`` frame reports request
    counters plus p50/p90/p99 latency.  A bad launch (occupied port,
    unreadable store, missing policy) exits 2 with one aggregated
    preflight error.

The summary table printed by ``run``/``report`` is the paper report of
:mod:`repro.api.reports`, and ``--csv`` writes the same rows as CSV — the
CI workflow diffs those files across backends to guard backend equivalence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.api.engine import BACKENDS, RunReport, run
from repro.api.registry import get_spec, list_experiments
from repro.api.spec import ExperimentSpec
from repro.utils.serialization import load_json
from repro.utils.tables import format_table


def _resolve_spec(name_or_path: str, scale: str) -> ExperimentSpec:
    """A registered name, or a path to a spec JSON written by ``to_json``."""
    path = Path(name_or_path)
    if name_or_path.endswith(".json") or path.is_file():
        return ExperimentSpec.from_json(load_json(path))
    return get_spec(name_or_path, scale=scale)


def _env_families(env_ids) -> str:
    """The env families a spec spans, from the env registry's metadata."""
    from repro.envs import spec as env_spec

    families = set()
    for env_id in env_ids:
        try:
            families.add(env_spec(env_id).family)
        except KeyError:
            families.add("?")
    return "+".join(sorted(families)) if families else "-"


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = []
    for entry in list_experiments():
        spec = entry.paper
        rows.append({
            "name": entry.name,
            "kind": spec.kind,
            "env_family": ("-" if spec.kind == "resource_table"
                           else _env_families(spec.env_ids)),
            "grid": (f"{len(spec.designs)} designs x {len(spec.hidden_sizes)} "
                     f"sizes = {spec.n_trials} trials"
                     if spec.kind != "resource_table"
                     else f"{len(spec.hidden_sizes)} sizes"),
            "paper_episodes": spec.budget.max_episodes,
            "ci_episodes": entry.ci.budget.max_episodes,
            "description": entry.description,
        })
    print(format_table(rows, title="Registered experiments (repro run <name>)"))
    return 0


def _finish(report: RunReport, args: argparse.Namespace) -> int:
    if not args.quiet:
        print(report.render())
        if report.spec.kind != "resource_table":
            cached = report.cached_count
            print(f"\n{len(report.trials)} trials "
                  f"({cached} from cache, {report.executed_count} executed; "
                  f"backends: {report.backend_counts()}) "
                  f"in {report.wall_time_seconds:.2f}s")
            if report.store_root is not None:
                print(f"artifacts: {report.store_root}")
    if report.fleet_report is not None:
        # Printed even under --quiet: this one line is what the CI
        # elastic-fleet job asserts scale-ups/graceful drains against.
        print(report.fleet_report.summary())
    if args.csv is not None:
        Path(args.csv).parent.mkdir(parents=True, exist_ok=True)
        Path(args.csv).write_text(report.summary_csv(), encoding="utf-8")
        if not args.quiet:
            print(f"summary csv: {args.csv}")
    if getattr(args, "plot", False):
        from repro.api.plotting import plot_report

        written = plot_report(report, args.plot_dir)
        if written is None:
            print("plotting skipped: matplotlib is not installed "
                  "(pip install matplotlib to enable --plot)")
        elif not args.quiet:
            for path in written:
                print(f"figure: {path}")
    return 0


def _store_root(args: argparse.Namespace) -> str:
    """CLI runs always cache; ``--out`` falls back to the store default
    (``$REPRO_ARTIFACTS`` when set, else ``./artifacts``)."""
    from repro.api.store import default_store_root

    return args.out if args.out is not None else str(default_store_root())


def _build_autoscale_config(args: argparse.Namespace):
    from repro.fleet import AutoscaleConfig

    return AutoscaleConfig(
        min_workers=args.autoscale_min, max_workers=args.autoscale_max,
        poll_interval=args.autoscale_interval,
        idle_grace_seconds=args.autoscale_idle_grace,
        high_water=args.autoscale_high_water,
        low_water=args.autoscale_low_water,
        cooldown_seconds=args.autoscale_cooldown)


def _autoscale_config(args: argparse.Namespace):
    """``--autoscale*`` flags -> AutoscaleConfig (or None when not asked)."""
    if not getattr(args, "autoscale", False):
        return None
    return _build_autoscale_config(args)


def _retry_policy(args: argparse.Namespace):
    """``--retry-*`` flags -> RetryPolicy (None when retries are off)."""
    if args.retry_attempts <= 1:
        return None
    from repro.utils.retry import RetryPolicy

    return RetryPolicy(max_attempts=args.retry_attempts,
                       base_delay=args.retry_base_delay,
                       deadline=args.retry_deadline)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.distributed.preflight import PreflightError

    spec = _resolve_spec(args.experiment, "ci" if args.ci else "paper")
    workers = args.workers if args.workers is not None else args.max_workers
    try:
        report = run(spec, backend=args.backend, out=_store_root(args),
                     resume=not args.no_resume, max_workers=workers,
                     bind=args.bind, checkpoint_every=args.checkpoint_every,
                     lease_batch=args.lease_batch,
                     progress_every=args.progress_every,
                     save_policy=args.save_policy,
                     autoscale=_autoscale_config(args),
                     journal=args.journal)
    except (PreflightError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return _finish(report, args)


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.distributed import WorkerOptions, parse_address, run_worker
    from repro.parallel.pool import limit_blas_threads
    from repro.utils.retry import RetryPolicy

    limit_blas_threads()    # this process is one lane of a fleet

    host, port = parse_address(args.connect)
    reconnect = None
    if not args.no_reconnect:
        reconnect = RetryPolicy(max_attempts=args.reconnect_attempts,
                                base_delay=args.reconnect_base_delay,
                                max_delay=args.reconnect_max_delay,
                                deadline=args.reconnect_deadline)
    connect_factory = None
    if args.fault_plan:
        from repro.chaos import FaultPlan

        try:
            connect_factory = FaultPlan.from_spec(args.fault_plan).connect
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    options = WorkerOptions(worker_id=args.id, store_root=args.store,
                            max_tasks=args.max_tasks,
                            reconnect=reconnect,
                            idle_timeout=(args.idle_timeout
                                          if args.idle_timeout > 0 else None),
                            connect_factory=connect_factory)
    try:
        completed = run_worker(host, port, options)
    except OSError as error:
        # covers ConnectionError plus the other connect-time failures
        # (socket.gaierror for bad hostnames, TimeoutError for unroutable
        # addresses) — a human-readable refusal, not a traceback
        print(f"error: cannot serve broker at {args.connect}: {error}",
              file=sys.stderr)
        return 2
    print(f"worker done: {completed} trials completed")
    return 0


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    import json
    import time as _time

    from repro.distributed import parse_address
    from repro.telemetry.fleet import (
        FleetStatusError,
        fetch_fleet_stats,
        format_fleet_status,
    )

    try:
        host, port = parse_address(args.connect)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    retry = _retry_policy(args)
    while True:
        try:
            snapshot = fetch_fleet_stats(host, port, timeout=args.timeout,
                                         retry=retry)
        except (FleetStatusError, ConnectionError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(snapshot, indent=2, sort_keys=True))
        else:
            print(format_fleet_status(snapshot))
        if not args.watch:
            return 0
        done = snapshot.get("tasks", {}).get("done")
        total = snapshot.get("tasks", {}).get("total")
        if done is not None and done == total:
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0
        if not args.json:
            print()


def _cmd_fleet_autoscale(args: argparse.Namespace) -> int:
    import time as _time

    from repro.distributed import parse_address
    from repro.fleet import FleetAutoscaler
    from repro.telemetry.fleet import FleetStatusError, fetch_fleet_stats

    try:
        host, port = parse_address(args.connect)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        # --retry-attempts lets the preflight ride out a broker that is
        # mid-restart from its journal rather than refusing immediately.
        fetch_fleet_stats(host, port, timeout=5.0, retry=_retry_policy(args))
    except (FleetStatusError, ConnectionError) as error:
        # Refuse up front when no broker answers: an autoscaler pointed at
        # nothing would silently poll forever.
        print(f"error: {error}", file=sys.stderr)
        return 2
    autoscaler = FleetAutoscaler(host, port,
                                 config=_build_autoscale_config(args))
    print(f"autoscaling fleet for broker {host}:{port} "
          f"(min={args.autoscale_min}, max={args.autoscale_max}; "
          "Ctrl-C to stop)")
    autoscaler.start()
    misses = 0
    try:
        while True:
            _time.sleep(args.autoscale_interval)
            snapshot = autoscaler.last_snapshot
            try:
                fetch_fleet_stats(host, port, timeout=5.0)
                misses = 0
            except FleetStatusError:
                # The broker tears its port down the moment the sweep
                # drains; a few consecutive misses mean it is gone for
                # good, not mid-restart.
                misses += 1
                if misses >= 3:
                    break
            if args.watch and snapshot is not None:
                tasks = snapshot.get("tasks", {})
                print("tick: {done}/{total} done, {queued} queued, "
                      "{alive} workers alive".format(
                          done=tasks.get("done", 0),
                          total=tasks.get("total", 0),
                          queued=tasks.get("queued", 0),
                          alive=autoscaler.supervisor.alive_count()))
    except KeyboardInterrupt:
        pass
    finally:
        autoscaler.stop(retire_fleet=True)
    print(autoscaler.report.summary())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time as _time

    from repro.api.store import ArtifactStore, default_store_root
    from repro.distributed import parse_address
    from repro.distributed.preflight import (
        PreflightError,
        check_store_readable,
        run_preflight,
    )
    from repro.serving import PolicyServer, load_spec_policies

    spec = _resolve_spec(args.experiment, "ci" if args.ci else "paper")
    store_root = (args.store if args.store is not None
                  else str(default_store_root()))
    designs = ([name.strip() for name in args.designs.split(",") if name.strip()]
               if args.designs else None)
    # Policy discovery only makes sense on a readable store; an unreadable
    # root reports once through the preflight instead of once per design.
    policy_problems: list = []
    policies: dict = {}
    if check_store_readable(store_root) is None:
        policies, policy_problems = load_spec_policies(
            ArtifactStore(store_root), spec, designs)
    try:
        run_preflight(bind=args.bind, readable_store_root=store_root,
                      extra_problems=policy_problems, context="serve")
    except PreflightError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    host, port = parse_address(args.bind)
    server = PolicyServer(policies, host=host, port=port,
                          max_batch=args.max_batch)
    with server:
        bound_host, bound_port = server.address
        print(f"serving {len(policies)} "
              f"polic{'ies' if len(policies) != 1 else 'y'} "
              f"({', '.join(sorted(policies))}) at {bound_host}:{bound_port}",
              flush=True)
        deadline = (_time.monotonic() + args.max_seconds
                    if args.max_seconds else None)
        try:
            while deadline is None or _time.monotonic() < deadline:
                _time.sleep(0.2)
        except KeyboardInterrupt:
            pass
    print("policy server stopped")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.experiment, "ci" if args.ci else "paper")
    try:
        report = run(spec, backend="serial", out=_store_root(args),
                     cache_only=True)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return _finish(report, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Unified experiment runner for the paper reproduction.")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="show registered experiments"
                        ).set_defaults(handler=_cmd_list)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("experiment",
                         help="registered name (see `repro list`) or spec JSON path")
        sub.add_argument("--ci", action="store_true",
                         help="use the minutes-scale CI variant of a registered name")
        sub.add_argument("--out", default=None,
                         help="artifact store root (default: $REPRO_ARTIFACTS "
                              "when set, else ./artifacts)")
        sub.add_argument("--csv", default=None, metavar="PATH",
                         help="also write the summary rows as CSV")
        sub.add_argument("--plot", action="store_true",
                         help="regenerate the Figure 4/5 panels from the run's "
                              "curves (requires matplotlib, a graceful no-op "
                              "message without it)")
        sub.add_argument("--plot-dir", default="figures", metavar="DIR",
                         help="output directory for --plot (default: ./figures)")
        sub.add_argument("--quiet", action="store_true",
                         help="suppress the rendered table")

    runner = commands.add_parser("run", help="execute an experiment (with resume)")
    add_common(runner)
    runner.add_argument("--backend", default="auto", choices=BACKENDS,
                        help="execution backend (default: auto = vectorized "
                             "with serial fallback)")
    runner.add_argument("--no-resume", action="store_true",
                        help="ignore cached trials and retrain everything")
    runner.add_argument("--max-workers", type=int, default=None,
                        help="pool size for the process backend")
    runner.add_argument("--workers", type=int, default=None,
                        help="distributed backend: local worker processes to "
                             "auto-spawn (default: one per task, CPU-capped)")
    runner.add_argument("--bind", default=None, metavar="HOST:PORT",
                        help="distributed backend: accept external "
                             "`repro worker --connect` processes here")
    runner.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                        help="serial backend: persist mid-trial training state "
                             "every N episodes so a killed run resumes inside "
                             "a trial, bit-for-bit (0 = off)")
    runner.add_argument("--journal", default=None, metavar="PATH",
                        help="distributed backend: append-only write-ahead "
                             "journal of broker queue transitions; restart "
                             "a killed broker with the same path to resume "
                             "the sweep (completed trials stay done, "
                             "in-flight leases are requeued)")
    runner.add_argument("--lease-batch", type=int, default=None, metavar="K",
                        help="distributed backend: cap of K tasks per worker "
                             "lease, trained lock-step (default: each worker "
                             "leases its share of the head task's lock-step "
                             "key)")
    runner.add_argument("--progress-every", type=int, default=0, metavar="N",
                        help="stream per-trial training progress to stderr "
                             "every N episodes (serial/vectorized backends; "
                             "0 = off)")
    runner.add_argument("--autoscale", action="store_true",
                        help="distributed backend: replace the fixed "
                             "--workers fleet with an elastic autoscaler "
                             "(scale up on queue backlog, gracefully drain "
                             "idle workers; results stay byte-identical)")
    _add_autoscale_flags(runner)
    runner.add_argument("--save-policy", action="store_true",
                        help="also persist each freshly trained trial's "
                             "final agent (trials/<key>/policy.pkl) so "
                             "`repro serve` can host it; "
                             "serial/vectorized/process backends")
    runner.set_defaults(handler=_cmd_run)

    reporter = commands.add_parser(
        "report", help="re-render a finished run from cached artifacts only")
    add_common(reporter)
    reporter.set_defaults(handler=_cmd_report)

    worker = commands.add_parser(
        "worker", help="serve a distributed sweep broker as a worker")
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="broker address published by "
                             "`repro run --backend distributed --bind ...`")
    worker.add_argument("--store", default=None, metavar="DIR",
                        help="local artifact store: answer repeat tasks from "
                             "cache and checkpoint fresh results")
    worker.add_argument("--id", default=None,
                        help="worker id shown in broker logs (default: "
                             "hostname-pid-uuid)")
    worker.add_argument("--max-tasks", type=int, default=None,
                        help="exit after completing N tasks (default: serve "
                             "until the broker shuts the sweep down)")
    worker.add_argument("--no-reconnect", action="store_true",
                        help="exit on the first broker disconnect instead "
                             "of reconnecting with backoff (pre-1.8 "
                             "behaviour)")
    worker.add_argument("--reconnect-attempts", type=int, default=5,
                        metavar="N",
                        help="connection attempts per outage before giving "
                             "up (default 5)")
    worker.add_argument("--reconnect-base-delay", type=float, default=0.2,
                        metavar="S",
                        help="first backoff delay in seconds; doubles each "
                             "retry (default 0.2)")
    worker.add_argument("--reconnect-max-delay", type=float, default=5.0,
                        metavar="S",
                        help="backoff ceiling in seconds (default 5)")
    worker.add_argument("--reconnect-deadline", type=float, default=None,
                        metavar="S",
                        help="give up reconnecting S seconds into an outage "
                             "(default: attempts cap only)")
    worker.add_argument("--idle-timeout", type=float, default=60.0,
                        metavar="S",
                        help="treat a broker silent for S seconds as gone "
                             "and reconnect (default 60; 0 = wait forever)")
    worker.add_argument("--fault-plan", default=None, metavar="SPEC",
                        help="chaos testing: inject deterministic connection "
                             "faults, e.g. "
                             "'drop_after_frames=8,drop_every=5,seed=7' "
                             "(see repro.chaos.FaultPlan.from_spec)")
    worker.set_defaults(handler=_cmd_worker)

    server = commands.add_parser(
        "serve", help="host trained policies as an online action service")
    server.add_argument("experiment",
                        help="registered name (see `repro list`) or spec "
                             "JSON path whose trained policies to serve")
    server.add_argument("--ci", action="store_true",
                        help="resolve a registered name at CI scale (must "
                             "match the scale the policies were trained at)")
    server.add_argument("--store", default=None, metavar="DIR",
                        help="artifact store holding policy.pkl files "
                             "(default: $REPRO_ARTIFACTS when set, else "
                             "./artifacts)")
    server.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="listen address (default 127.0.0.1:0 = loopback, "
                             "ephemeral port; the bound address is printed)")
    server.add_argument("--designs", default=None, metavar="D1,D2",
                        help="serve only these designs of the spec "
                             "(default: all of them)")
    server.add_argument("--max-batch", type=int, default=8, metavar="N",
                        help="batch size: one act_batch call takes at most "
                             "N of the rows one loop tick read for a "
                             "design; none waits for a batch to fill "
                             "(default 8)")
    server.add_argument("--max-seconds", type=float, default=0.0, metavar="S",
                        help="exit after S seconds (0 = serve until "
                             "interrupted; useful for CI)")
    server.set_defaults(handler=_cmd_serve)

    fleet = commands.add_parser(
        "fleet", help="observe a running distributed sweep")
    fleet_commands = fleet.add_subparsers(dest="fleet_command", required=True)
    status = fleet_commands.add_parser(
        "status", help="query a live broker's STATS channel")
    status.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="broker address published by "
                             "`repro run --backend distributed --bind ...`")
    status.add_argument("--watch", action="store_true",
                        help="refresh until the sweep completes (Ctrl-C to stop)")
    status.add_argument("--interval", type=float, default=2.0, metavar="S",
                        help="seconds between --watch refreshes (default: 2)")
    status.add_argument("--json", action="store_true",
                        help="print the raw STATS snapshot as JSON")
    status.add_argument("--timeout", type=float, default=5.0, metavar="S",
                        help="per-query socket timeout (default: 5)")
    _add_retry_flags(status)
    status.set_defaults(handler=_cmd_fleet_status)
    autoscale = fleet_commands.add_parser(
        "autoscale", help="attach an elastic worker fleet to a live broker")
    autoscale.add_argument("--connect", required=True, metavar="HOST:PORT",
                           help="broker address published by `repro run "
                                "--backend distributed --bind ...`")
    _add_autoscale_flags(autoscale)
    _add_retry_flags(autoscale)
    autoscale.add_argument("--watch", action="store_true",
                           help="print a fleet status line every poll")
    autoscale.set_defaults(handler=_cmd_fleet_autoscale)
    return parser


def _add_autoscale_flags(parser: argparse.ArgumentParser) -> None:
    """The shared autoscaler knobs of `repro run` and `repro fleet autoscale`."""
    parser.add_argument("--autoscale-min", "--min", type=int, default=1,
                        metavar="N", dest="autoscale_min",
                        help="fleet floor, topped up immediately (default 1)")
    parser.add_argument("--autoscale-max", "--max", type=int, default=4,
                        metavar="N", dest="autoscale_max",
                        help="fleet ceiling (default 4)")
    parser.add_argument("--autoscale-interval", type=float, default=0.5,
                        metavar="S", dest="autoscale_interval",
                        help="seconds between control ticks (default 0.5)")
    parser.add_argument("--autoscale-idle-grace", type=float, default=2.0,
                        metavar="S", dest="autoscale_idle_grace",
                        help="continuous idle seconds before a worker is "
                             "drained (default 2)")
    parser.add_argument("--autoscale-high-water", type=float, default=2.0,
                        metavar="R", dest="autoscale_high_water",
                        help="queued/alive ratio that triggers scale-up "
                             "(default 2.0)")
    parser.add_argument("--autoscale-low-water", type=float, default=0.5,
                        metavar="R", dest="autoscale_low_water",
                        help="queued/alive ratio allowing scale-down "
                             "(default 0.5; the gap to --autoscale-high-water "
                             "is the hysteresis band)")
    parser.add_argument("--autoscale-cooldown", type=float, default=3.0,
                        metavar="S", dest="autoscale_cooldown",
                        help="minimum seconds between scaling actions "
                             "(default 3)")


def _add_retry_flags(parser: argparse.ArgumentParser) -> None:
    """The shared broker-query retry knobs of the `repro fleet` commands."""
    parser.add_argument("--retry-attempts", type=int, default=1, metavar="N",
                        dest="retry_attempts",
                        help="retry a transiently unreachable broker up to "
                             "N attempts (default 1 = fail immediately)")
    parser.add_argument("--retry-base-delay", type=float, default=0.5,
                        metavar="S", dest="retry_base_delay",
                        help="first retry delay in seconds; doubles each "
                             "attempt (default 0.5)")
    parser.add_argument("--retry-deadline", type=float, default=None,
                        metavar="S", dest="retry_deadline",
                        help="stop retrying S seconds after the first "
                             "failure (default: attempts cap only)")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


__all__ = ["build_parser", "main"]
