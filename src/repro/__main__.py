"""Command-line entry point: experiments, declarative scenarios, cache ops.

Usage::

    python -m repro --list
    python -m repro e1 e7
    python -m repro all --seed 3 --scale 2 --workers 4 --store .repro-cache
    python -m repro run scenario.json
    python -m repro run-batch scenarios.json --workers 8 --json out.json
    python -m repro run-batch scenarios.json --store sweep-cache --resume
    python -m repro sweep plan grid.json
    python -m repro sweep run grid.json --store sweep-cache --workers 8
    python -m repro sweep status grid.json --store sweep-cache
    python -m repro serve --store sweep-cache --workers 4 --port 8750
    python -m repro sweep submit grid.json --server http://127.0.0.1:8750
    python -m repro sweep watch  grid.json --server http://127.0.0.1:8750
    python -m repro sweep status sw0-ab12cd34 --server http://127.0.0.1:8750
    python -m repro paper run --out paper-artifact [--smoke]
    python -m repro paper render paper-artifact
    python -m repro paper diff run-a run-b
    python -m repro cache stats --store sweep-cache
    python -m repro registry

``run`` executes one scenario spec (a JSON object); ``run-batch`` executes a
JSON array of specs, deduplicating baseline expansion estimates and fanning
scenarios out over worker processes.  ``--store PATH`` attaches a persistent
result store: completed scenarios are appended as they finish and identical
scenarios are served from disk instead of re-executing, which is also what
makes an interrupted sweep resumable — rerun the same command and only the
missing scenarios execute.  ``--resume`` is shorthand for ``--store`` at the
default location (``.repro-cache``).  ``cache stats|prune|clear`` inspects
and maintains a store.  ``registry`` lists every registered component with
its metadata.

``sweep`` takes a :class:`repro.api.sweeps.SweepSpec` JSON file (a grid
over spec fields + trial counts + a sampling policy).  ``sweep plan``
prints the expansion without running anything; ``sweep run`` executes it —
trial by trial, streaming aggregates, honouring adaptive policies — and
``sweep status`` reports how much of the grid a store already holds (the
resume frontier).

``serve`` starts the long-running sweep service (:mod:`repro.service`): an
HTTP server with a distributed worker pool over a shared result store.
Clients submit SweepSpecs with ``sweep submit --server URL`` and follow
them with ``sweep status`` / ``sweep watch``; identical concurrent
submissions are deduplicated into one computation, warm grid points are
served from the store without dispatching, and results are bit-identical
to a local ``sweep run`` of the same file.  SIGTERM drains gracefully.

``paper`` produces the one-command reproduction artifact
(:mod:`repro.report.paper`): ``paper run`` executes the e1–e14 suite on a
shared session (warm stores re-render with zero engine calls) and writes
``report.md`` / ``report.html`` / ``figures/*.svg`` / ``tables/*.json`` /
``manifest.json``; ``paper render`` re-renders an artifact directory from
its tables without executing anything; ``paper diff`` compares two
manifests and flags only results whose confidence intervals do not
overlap (exit 1 when something is flagged).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from pathlib import Path

from .core.experiments import ALL_EXPERIMENTS
from .errors import ReproError
from .report.tables import format_row_dicts

#: Store directory used by ``--resume`` and the ``cache`` subcommand when no
#: explicit ``--store`` is given.
DEFAULT_STORE = ".repro-cache"

_DESCRIPTIONS = {
    "e1": "Theorem 2.1 — Prune under adversarial faults",
    "e2": "Claim 2.4 — chain-replacement expansion Θ(1/k)",
    "e3": "Theorem 2.3 — chain-centre attack shatters H(G,k)",
    "e4": "Theorem 2.5 — shattering uniform-expansion graphs",
    "e5": "Theorem 3.1 — random faults at p = Θ(α)",
    "e6": "Theorem 3.4 — Prune2 success threshold",
    "e7": "Theorem 3.6 — mesh span ≤ 2",
    "e8": "§1.1 survey — critical probabilities",
    "e9": "§4 — routing / load-balancing consequences",
    "e10": "§4 open problem — span of butterfly/deBruijn/S-E",
    "e11": "ablation — cut-finder strategies",
    "e12": "cascading faults — cascade size vs margin α",
    "e13": "shortcut hardening of geographic graphs",
    "e14": "small-world vs regular lattice disintegration",
}


def _load_specs(path: str):
    """Read one spec (object) or many (array) from a JSON file."""
    from .api.specs import ScenarioSpec

    payload = json.loads(Path(path).read_text())
    if isinstance(payload, list):
        return [ScenarioSpec.from_dict(d) for d in payload]
    return [ScenarioSpec.from_dict(payload)]


def _emit_results(results, *, json_path: str | None, title: str) -> None:
    print(format_row_dicts([r.row() for r in results], title=title))
    if json_path:
        Path(json_path).write_text(
            json.dumps([r.to_dict() for r in results], indent=2)
        )
        print(f"wrote {len(results)} result(s) to {json_path}")


def _store_path(args: argparse.Namespace) -> str | None:
    """Resolve the ``--store`` / ``--resume`` pair to a store directory."""
    if args.store:
        return args.store
    return DEFAULT_STORE if getattr(args, "resume", False) else None


def _open_session(store: str | None, workers: int | None):
    """Build a Session, turning an unusable store path (existing file,
    permissions, ...) into the CLI's one-line-error contract."""
    from .api.session import Session

    try:
        return Session(store=store, workers=workers), 0
    except OSError as exc:
        print(f"cannot open store at {store}: {exc}", file=sys.stderr)
        return None, 2


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        specs = _load_specs(args.spec_file)
    except (OSError, ValueError, ReproError) as exc:
        print(f"cannot load spec(s) from {args.spec_file}: {exc}", file=sys.stderr)
        return 2
    if args.command == "run" and len(specs) != 1:
        print(
            f"'run' expects a single spec object; {args.spec_file} holds "
            f"{len(specs)} — use 'run-batch'",
            file=sys.stderr,
        )
        return 2
    store = _store_path(args)
    session, err = _open_session(store, args.workers)
    if session is None:
        return err
    t0 = time.perf_counter()
    try:
        if args.command == "run":
            results = [session.run(specs[0])]
        else:
            results = session.run_batch(specs)
    except ReproError as exc:
        print(f"scenario failed: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    _emit_results(
        results,
        json_path=args.json,
        title=f"{len(results)} scenario(s) ({elapsed:.1f}s)",
    )
    if store is not None:
        print(
            f"store {store}: {session.hits} cached, {session.misses} computed"
        )
    return 0


def _planned_trials(sweep) -> tuple[int, str]:
    """(per-point planned/cap trials, human description) for a sweep."""
    policy = sweep.policy
    if policy.kind == "fixed":
        return sweep.trials, f"{sweep.trials} per point"
    if policy.kind == "ci_width":
        return sweep.trials, (
            f"{policy.min_trials}..{sweep.trials} per point "
            f"(stop at CI half-width <= {policy.target:g})"
        )
    if policy.kind == "transition":
        budget = f", {policy.budget} total" if policy.budget else ""
        return sweep.trials, (
            f"{policy.min_trials} per point, then chunks of {policy.chunk} "
            f"where fitted |slope| x CI half-width peaks "
            f"(cap {sweep.trials} per point{budget})"
        )
    return policy.budget, (
        f"{policy.min_trials} per point, then chunks of {policy.chunk} to the "
        f"noisiest point ({policy.budget} total)"
    )


def _cmd_sweep(argv: list[str]) -> int:
    sub = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Plan / execute / inspect a declarative sweep "
        "(a SweepSpec JSON file), locally or against a running sweep "
        "service (see 'python -m repro serve'). Sampling policies: fixed, "
        "ci_width, budget, transition (concentrate trials where the fitted "
        "response curve is steep).",
    )
    sub.add_argument(
        "action", choices=("run", "plan", "status", "submit", "watch")
    )
    sub.add_argument(
        "sweep_file",
        help="JSON file holding one SweepSpec object; with --server, "
        "status/watch also accept a sweep id (e.g. sw0-ab12cd34)",
    )
    sub.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for trial fan-out (default: auto)",
    )
    sub.add_argument("--json", default=None, help="also write the result as JSON")
    sub.add_argument(
        "--store", default=None,
        help="persistent result store: completed trials are reused instead "
        "of re-executed (resume at trial granularity)",
    )
    sub.add_argument(
        "--resume", action="store_true",
        help=f"shorthand for --store {DEFAULT_STORE}",
    )
    sub.add_argument(
        "--server", default=None, metavar="URL",
        help="a running sweep service (python -m repro serve); required "
        "for submit/watch, and switches status to the service's view",
    )
    sub.add_argument(
        "--priority", type=int, default=0,
        help="scheduling priority when submitting via --server "
        "(lower drains first; default 0)",
    )
    args = sub.parse_args(argv)
    from .api.sweeps import SweepSpec, run_sweep

    if args.action in ("submit", "watch") and not args.server:
        print(f"sweep {args.action} needs --server URL", file=sys.stderr)
        return 2
    if args.server:
        return _sweep_remote(args)

    try:
        sweep = SweepSpec.from_json(Path(args.sweep_file).read_text())
    except (OSError, ValueError, ReproError) as exc:
        print(f"cannot load sweep from {args.sweep_file}: {exc}", file=sys.stderr)
        return 2

    points = sweep.points()
    cap, description = _planned_trials(sweep)

    if args.action == "plan":
        print(f"sweep {sweep.hash()} ({sweep.label or 'unlabelled'})")
        print(f"  axes:     {len(sweep.axes)}  "
              + "  ".join(f"{a.path}[{len(a.values)}]" for a in sweep.axes))
        print(f"  points:   {len(points)}")
        print(f"  policy:   {sweep.policy.kind} — {description}")
        print(f"  metrics:  {', '.join(sweep.metrics)}")
        if sweep.policy.kind == "budget":
            print(f"  max trials: {sweep.policy.budget} (total)")
        else:
            print(f"  max trials: {len(points) * cap}")
        rows = [
            {"point": p.index, **{k.rsplit('.', 1)[-1]: v
                                  for k, v in p.coords if not isinstance(v, dict)},
             "label": p.spec.label}
            for p in points
        ]
        print()
        print(format_row_dicts(rows, title="grid"))
        return 0

    if args.action == "status":
        store_dir = args.store or DEFAULT_STORE
        if not Path(store_dir).is_dir():
            print(f"no store at {store_dir}")
            return 2
        from .api.store import ResultStore

        store = ResultStore(store_dir)
        rows = []
        total_done = 0
        for p in points:
            if sweep.policy.kind == "budget":
                # a budget is a *total*; per point, report the contiguous
                # cached frontier (probe until the first missing trial)
                done = 0
                while (
                    done < sweep.policy.budget
                    and store.get_result(sweep.trial_spec(p, done)) is not None
                ):
                    done += 1
                cached = f"{done}"
            else:
                done = sum(
                    1 for t in range(cap)
                    if store.get_result(sweep.trial_spec(p, t)) is not None
                )
                cached = f"{done}/{cap}"
            total_done += done
            rows.append(
                {"point": p.index, "label": p.spec.label,
                 "cached_trials": cached}
            )
        print(format_row_dicts(
            rows, title=f"store {store_dir}: {total_done} trial(s) cached"
        ))
        return 0

    store = _store_path(args)
    session, err = _open_session(store, args.workers)
    if session is None:
        return err
    t0 = time.perf_counter()

    def _on_round(round_no: int, units: int, done: int) -> None:
        print(f"round {round_no}: dispatching {units} trial(s) "
              f"({done} done so far)")

    try:
        result = run_sweep(sweep, session, on_round=_on_round)
    except ReproError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    print()
    print(format_row_dicts(
        result.rows(),
        title=f"sweep {sweep.hash()}: {result.total_trials} trial(s), "
        f"{result.rounds} round(s) ({elapsed:.1f}s)",
    ))
    print(f"fingerprint {result.fingerprint()}")
    if store is not None:
        print(f"store {store}: {session.hits} cached, {session.misses} computed")
    if args.json:
        Path(args.json).write_text(json.dumps(result.to_dict(), indent=2))
        print(f"wrote sweep result to {args.json}")
    return 0


def _resolve_remote_sweep(client, arg: str):
    """Map a CLI positional to a server-side sweep id.

    A path to a SweepSpec file resolves by content hash against the
    service's sweep index (returning the spec too, so ``watch`` can
    submit it when absent); anything else is taken as a sweep id.
    """
    from .api.sweeps import SweepSpec

    if not Path(arg).is_file():
        return arg, None
    spec = SweepSpec.from_json(Path(arg).read_text())
    sweep_hash = spec.hash()
    for entry in client.sweeps()["sweeps"]:
        if entry["hash"] == sweep_hash:
            return entry["id"], spec
    return None, spec


def _print_remote_status(status: dict) -> None:
    print(f"sweep {status['id']} ({status['label'] or 'unlabelled'})")
    print(f"  state:    {status['state']}"
          + (f" — {status['error']}" if status.get("error") else ""))
    print(f"  trials:   {status['trials_done']}/{status['trials_allocated']} "
          f"done, {status['rounds']} round(s), {status['points']} point(s)")
    print(f"  store:    {status['store']['hits']} cached, "
          f"{status['store']['misses']} computed")
    if status.get("dedup_count"):
        print(f"  shared:   {status['dedup_count']} deduplicated submission(s)")
    if status.get("fingerprint"):
        print(f"  fingerprint {status['fingerprint']}")
    service = status.get("service", {})
    if service:
        print(
            "  service:  "
            f"{service['workers_alive']} worker(s), "
            f"{service['jobs_queued']} queued, "
            f"{service['jobs_running']} running, "
            f"{service['sweeps_active']} sweep(s) active, "
            f"{service['workers_crashed_total']} crash(es)"
        )
        if "store_segments" in service:
            print(
                "  storage:  "
                f"{service['store_entries']} entr(ies) in "
                f"{service['store_segments']} segment(s), "
                f"garbage {service['store_garbage_ratio']:.0%}, "
                f"{service['store_compactions_total']} compaction(s), "
                f"{service['store_index_hits_total']} index hit(s)"
            )


def _sweep_remote(args: argparse.Namespace) -> int:
    """The --server side of the sweep verbs: submit / status / watch."""
    from .api.sweeps import SweepSpec
    from .service.client import ServiceClient, ServiceError

    client = ServiceClient(args.server)
    try:
        if args.action == "plan":
            print("sweep plan is local-only; drop --server", file=sys.stderr)
            return 2

        if args.action == "submit":
            try:
                spec = SweepSpec.from_json(Path(args.sweep_file).read_text())
            except (OSError, ValueError, ReproError) as exc:
                print(f"cannot load sweep from {args.sweep_file}: {exc}",
                      file=sys.stderr)
                return 2
            response = client.submit(spec, priority=args.priority)
            verb = "joined" if response["deduped"] else "submitted"
            print(f"{verb} sweep {response['id']} "
                  f"(hash {response['hash']}, state {response['state']})")
            print(f"follow with: python -m repro sweep watch "
                  f"{response['id']} --server {args.server}")
            return 0

        sweep_id, spec = _resolve_remote_sweep(client, args.sweep_file)
        if args.action == "status":
            if sweep_id is None:
                print(f"{args.sweep_file} (hash {spec.hash()}) is not on "
                      f"{args.server}; submit it first")
                return 2
            _print_remote_status(client.status(sweep_id))
            return 0

        # watch (and run, which aliases it): submit-if-absent, then follow.
        if sweep_id is None:
            response = client.submit(spec, priority=args.priority)
            sweep_id = response["id"]
            print(f"submitted sweep {sweep_id}")
        t0 = time.perf_counter()
        last = {"done": -1}

        def _progress(status: dict) -> None:
            if status["trials_done"] != last["done"]:
                last["done"] = status["trials_done"]
                print(f"  {status['trials_done']}/{status['trials_allocated']}"
                      f" trial(s) done ({status['state']})")

        results = client.watch(sweep_id, on_status=_progress)
        elapsed = time.perf_counter() - t0
        print()
        print(format_row_dicts(
            results["rows"],
            title=f"sweep {results['hash']}: {results['total_trials']} "
            f"trial(s), {results['rounds']} round(s) ({elapsed:.1f}s)",
        ))
        print(f"fingerprint {results['fingerprint']}")
        if args.json:
            Path(args.json).write_text(json.dumps(results, indent=2))
            print(f"wrote sweep result to {args.json}")
        return 0
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1


def _cmd_serve(argv: list[str]) -> int:
    sub = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the sweep service: an HTTP server scheduling "
        "submitted SweepSpecs over a pool of worker processes that share "
        "one result store.  SIGTERM/SIGINT drain gracefully.",
    )
    sub.add_argument(
        "--store", default=DEFAULT_STORE,
        help=f"shared result store directory (default: {DEFAULT_STORE})",
    )
    sub.add_argument(
        "--workers", type=int, default=2,
        help="worker processes executing trials (default: 2)",
    )
    sub.add_argument("--host", default="127.0.0.1", help="bind address")
    sub.add_argument(
        "--port", type=int, default=8750,
        help="bind port; 0 picks an ephemeral port (default: 8750)",
    )
    sub.add_argument(
        "--job-timeout", type=float, default=300.0,
        help="seconds a dispatched job may run before its worker is "
        "recycled and the job requeued (default: 300)",
    )
    sub.add_argument(
        "--max-attempts", type=int, default=3,
        help="tries a job gets (crashes/timeouts) before its sweep "
        "fails (default: 3)",
    )
    sub.add_argument(
        "--job-chunk", type=int, default=None,
        help="bound every job to at most this many trials; requests for "
        "compatible grid points share a job up to the bound (default: "
        "unbounded)",
    )
    sub.add_argument(
        "--fsync", action="store_true",
        help="fsync every result-store append (durable, slower)",
    )
    args = sub.parse_args(argv)
    import signal
    import threading

    from .service import ServiceConfig, SweepService

    config = ServiceConfig(
        store=args.store,
        workers=args.workers,
        host=args.host,
        port=args.port,
        job_timeout=args.job_timeout,
        max_attempts=args.max_attempts,
        job_chunk=args.job_chunk,
        fsync=args.fsync,
    )
    service = SweepService(config)
    stop = threading.Event()

    def _on_signal(signum, frame):
        print(f"received {signal.Signals(signum).name}; draining...",
              flush=True)
        service.begin_drain()
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        service.start()
    except OSError as exc:
        print(f"cannot start service: {exc}", file=sys.stderr)
        return 2
    print(
        f"sweep service listening on {service.url} "
        f"(store {args.store}, {args.workers} worker(s))",
        flush=True,
    )
    while not stop.wait(0.2):
        pass
    clean = service.stop()
    print("drained cleanly" if clean else
          "drain timed out; workers terminated", flush=True)
    return 0 if clean else 1


def _cmd_paper(argv: list[str]) -> int:
    actions = ("run", "render", "diff")
    if not argv or argv[0] not in actions:
        print(
            "usage: python -m repro paper {run,render,diff} ...\n"
            "  run    --out DIR [--smoke] [--seed N] [--scale N] "
            "[--workers N] [--store DIR] [--only e1,e5,...] [--refresh]\n"
            "  render OUT_DIR\n"
            "  diff   DIR_A DIR_B [--json PATH]",
            file=sys.stderr,
        )
        return 2
    action, rest = argv[0], argv[1:]
    from .errors import ReproError

    if action == "diff":
        sub = argparse.ArgumentParser(
            prog="python -m repro paper diff",
            description="Compare two paper artifacts by manifest; flag only "
            "results whose confidence intervals do not overlap.",
        )
        sub.add_argument("dir_a", help="first artifact directory")
        sub.add_argument("dir_b", help="second artifact directory")
        sub.add_argument("--json", default=None, help="also write the diff as JSON")
        args = sub.parse_args(rest)
        from .report.paper import diff_paper

        try:
            diff = diff_paper(args.dir_a, args.dir_b)
        except (OSError, ValueError) as exc:
            print(f"cannot diff: {exc}", file=sys.stderr)
            return 2
        print(diff.to_text())
        if args.json:
            Path(args.json).write_text(json.dumps(diff.to_dict(), indent=2))
            print(f"wrote diff to {args.json}")
        return 0 if diff.clean else 1

    if action == "render":
        sub = argparse.ArgumentParser(
            prog="python -m repro paper render",
            description="Re-render report.md/report.html/figures/manifest "
            "from an artifact's tables/*.json (no execution).",
        )
        sub.add_argument("out_dir", help="artifact directory to re-render")
        args = sub.parse_args(rest)
        from .report.paper import render_paper

        try:
            render_paper(args.out_dir)
        except (OSError, ValueError) as exc:
            print(f"cannot render {args.out_dir}: {exc}", file=sys.stderr)
            return 2
        print(f"re-rendered {args.out_dir} (report.md, report.html, "
              "figures/, manifest.json)")
        return 0

    sub = argparse.ArgumentParser(
        prog="python -m repro paper run",
        description="Run the paper's experiment suite and emit a "
        "self-contained reproduction artifact directory.",
    )
    sub.add_argument(
        "--out", default="paper-artifact",
        help="artifact output directory (default: paper-artifact)",
    )
    sub.add_argument(
        "--store", default=None,
        help="result store shared by the runners (default: <out>/store — "
        "rerunning with the same --out is warm and performs zero engine "
        "calls)",
    )
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sub.add_argument("--scale", type=int, default=1, help="instance size multiplier")
    sub.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for scenario fan-out (0 = auto)",
    )
    sub.add_argument(
        "--smoke", action="store_true",
        help="CI-sized run: same experiments, reduced trials/samples",
    )
    sub.add_argument(
        "--only", default=None,
        help="comma-separated experiment subset (e.g. e1,e5,e8)",
    )
    sub.add_argument(
        "--refresh", action="store_true",
        help="ignore cached results/tables; recompute and rewrite the store",
    )
    args = sub.parse_args(rest)
    from .report.paper import PaperConfig, run_paper

    try:
        config = PaperConfig(
            seed=args.seed,
            scale=args.scale,
            smoke=args.smoke,
            experiments=tuple(
                e.strip() for e in args.only.split(",") if e.strip()
            ) if args.only else (),
            workers=args.workers,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        run = run_paper(
            config, args.out, store=args.store, refresh=args.refresh,
            progress=print,
        )
    except (OSError, ReproError) as exc:
        print(f"paper run failed: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    print(
        f"tables: {run.table_hits} cached, {run.table_misses} computed; "
        f"scenarios: {run.scenario_hits} cached, "
        f"{run.scenario_misses} computed (engine calls: {run.engine_calls})"
    )
    print(
        f"wrote {args.out}: report.md, report.html, "
        f"{len(run.manifest.get('figures', {}))} figure(s), "
        f"{len(run.tables)} table(s), manifest.json ({elapsed:.1f}s)"
    )
    return 0


def _cmd_cache(argv: list[str]) -> int:
    sub = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="Inspect / maintain a persistent result store.",
    )
    sub.add_argument("action", choices=("stats", "prune", "clear", "compact"))
    sub.add_argument(
        "--store", default=DEFAULT_STORE,
        help=f"store directory (default: {DEFAULT_STORE})",
    )
    sub.add_argument(
        "--min-garbage", type=float, default=0.3, metavar="RATIO",
        help="compact: only rewrite shards at or above this garbage ratio "
        "(default: 0.3)",
    )
    sub.add_argument(
        "--force", action="store_true",
        help="compact: rewrite every shard regardless of garbage ratio",
    )
    sub.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="compact: evict oldest entries until live bytes fit the budget",
    )
    sub.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="compact: evict entries older than this many days",
    )
    args = sub.parse_args(argv)
    from .api.store import ResultStore

    if not Path(args.store).is_dir():
        print(f"no store at {args.store}")
        return 0 if args.action == "stats" else 2
    store = ResultStore(args.store)
    if args.action == "stats":
        for key, value in store.stats().to_dict().items():
            print(f"{key:>13}  {value}")
        for row in store.shard_rows("results"):
            if not row["segments"] and not row["entries"]:
                continue  # empty shards add nothing to the picture
            print(
                f"  results/shard-{row['shard']:02d}  "
                f"entries={row['entries']}  segments={row['segments']}  "
                f"garbage_ratio={row['garbage_ratio']:.2f}"
            )
    elif args.action == "prune":
        counts = store.prune()
        print(
            f"pruned {args.store}: kept {counts['kept']} result(s), "
            f"dropped {counts['dropped']}"
        )
    elif args.action == "compact":
        counts = store.compact(
            force=args.force,
            min_garbage=args.min_garbage,
            max_bytes=args.max_bytes,
            max_age_s=(
                args.max_age_days * 86400.0
                if args.max_age_days is not None
                else None
            ),
        )
        print(
            f"compacted {args.store}: kept {counts['kept']}, dropped "
            f"{counts['superseded']} superseded, {counts['corrupt']} corrupt, "
            f"{counts['evicted']} evicted"
        )
    else:
        n = len(store)
        store.clear()
        print(f"cleared {args.store}: removed {n} result(s)")
    return 0


def _cmd_registry(argv: list[str]) -> int:
    sub = argparse.ArgumentParser(
        prog="python -m repro registry",
        description="List registered components and their metadata.",
    )
    sub.add_argument(
        "kind",
        nargs="?",
        choices=("generators", "fault-models", "pruners", "finders"),
        help="restrict the listing to one registry",
    )
    args = sub.parse_args(argv)
    from .api.registry import (
        list_fault_models,
        list_finders,
        list_generators,
        list_pruners,
    )

    sections = {
        "generators": list_generators,
        "fault-models": list_fault_models,
        "pruners": list_pruners,
        "finders": list_finders,
    }
    wanted = [args.kind] if args.kind else list(sections)
    for kind in wanted:
        rows = sections[kind]()
        print(f"{kind.replace('-', ' ')} ({len(rows)}):")
        width = max((len(r["name"]) for r in rows), default=0)
        for row in rows:
            flags = "".join(
                f" [{flag}]"
                for flag, on in (("seeded", row["seeded"]), ("raw", row["takes_raw"]))
                if on
            )
            summary = f" — {row['summary']}" if row["summary"] else ""
            print(f"  {row['name']:<{width}}  {row['signature']}{flags}{summary}")
        print()
    return 0


def _run_experiments(args: argparse.Namespace) -> int:
    wanted = list(ALL_EXPERIMENTS) if "all" in args.experiments else args.experiments
    unknown = [e for e in wanted if e not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment id(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    store = _store_path(args)
    session = None
    if store is not None:
        session, err = _open_session(store, args.workers)
        if session is None:
            return err
    for key in wanted:
        runner = ALL_EXPERIMENTS[key]
        params = inspect.signature(runner).parameters
        kwargs = {"seed": args.seed, "scale": args.scale}
        if "workers" in params:
            kwargs["workers"] = args.workers
        if "session" in params and session is not None:
            kwargs["session"] = session
        t0 = time.perf_counter()
        rows = runner(**kwargs)
        elapsed = time.perf_counter() - t0
        print(
            format_row_dicts(
                rows, title=f"{key.upper()} — {_DESCRIPTIONS[key]} ({elapsed:.1f}s)"
            )
        )
        print()
    if session is not None:
        print(f"store {store}: {session.hits} cached, {session.misses} computed")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)

    if argv and argv[0] in ("run", "run-batch"):
        sub = argparse.ArgumentParser(
            prog=f"python -m repro {argv[0]}",
            description="Execute declarative scenario spec(s) from a JSON file.",
        )
        sub.add_argument("spec_file", help="JSON file: one spec object or an array")
        sub.add_argument(
            "--workers", type=int, default=None,
            help="worker processes for run-batch (default: auto)",
        )
        sub.add_argument("--json", default=None, help="also write results as JSON")
        sub.add_argument(
            "--store", default=None,
            help="persistent result store directory: completed scenarios are "
            "reused instead of re-executed",
        )
        sub.add_argument(
            "--resume", action="store_true",
            help=f"shorthand for --store {DEFAULT_STORE} (resume an "
            "interrupted sweep from the default store)",
        )
        args = sub.parse_args(argv[1:])
        args.command = argv[0]
        return _cmd_run(args)

    if argv and argv[0] == "sweep":
        return _cmd_sweep(argv[1:])

    if argv and argv[0] == "serve":
        return _cmd_serve(argv[1:])

    if argv and argv[0] == "paper":
        return _cmd_paper(argv[1:])

    if argv and argv[0] == "cache":
        return _cmd_cache(argv[1:])

    if argv and argv[0] == "registry":
        return _cmd_registry(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate experiments from 'The Effect of Faults on "
        "Network Expansion' (SPAA 2004), or run declarative scenarios "
        "(see 'python -m repro run --help').",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (e1..e14) or 'all'; or the subcommands "
        "run/run-batch/sweep/serve/paper/cache/registry",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--scale", type=int, default=1, help="instance size multiplier")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for batch-capable experiments (0 = auto)",
    )
    parser.add_argument(
        "--store", default=None,
        help="persistent result store directory shared by the experiment "
        "runners (reruns serve completed scenarios from disk)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help=f"shorthand for --store {DEFAULT_STORE}",
    )
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        for key in ALL_EXPERIMENTS:
            print(f"{key:>4}  {_DESCRIPTIONS[key]}")
        print(
            "\nsubcommands: run <spec.json> | run-batch <specs.json> | "
            "sweep <run|plan|status|submit|watch> <sweep.json> | "
            "serve | paper <run|render|diff> | "
            "cache <stats|prune|clear> | registry"
        )
        return 0
    return _run_experiments(args)


if __name__ == "__main__":
    raise SystemExit(main())
