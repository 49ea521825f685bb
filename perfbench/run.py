"""The repository benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload gamma_cold --seed 1 --seconds 15 --trace 0

Run it from the repository root; it imports the program from ``src/``
and writes only under ``.perfbench/`` there.  Workloads: ``gamma_cold``,
``gamma_warm``, ``prune_scalar``, ``service_roundtrip`` (see
``bench_workloads.py`` and ``README.md`` beside this file).

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps each layer's entry points (``bench_layers.py``),
runs half the time traced and, with every original restored, half
untraced, and reports the per-layer metrics; the spans are also written
to ``.perfbench/trace-<workload>-seed<seed>.json`` (Chrome trace events).

Every operation's output is checked; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``, and
the exit code is non-zero when any check failed.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, a fresh interpreter

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence  # noqa: E402

from bench_trace import Patches, Recorder, current, write_chrome_trace  # noqa: E402

#: Set-ups per untraced run: this process plus this many minus one
#: probe processes; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Share of ``--seconds`` a traced run spends traced (the rest untraced).
TRACE_SHARE = 0.5
#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_TAIL_SAMPLES = 10

#: BLAS thread pools are pinned to one thread, in this process and every
#: process it starts.  On a 2-core box the eigensolvers of the expansion
#: estimates spent twice the CPU on two threads for no gain in wall time,
#: and the idle spinning made run-to-run timings noisier.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: ``(name, unit)`` of the end-to-end metrics an untraced run reports.
END_TO_END = [
    ("setup_s", "s"),
    ("sweep_p50_s", "s"),
    ("trials_per_s", "trials/s"),
    ("store_bytes_per_trial", "B"),
    ("peak_rss_mb", "MB"),
]


@dataclass
class OpRecord:
    """One timed operation."""

    index: int
    seconds: float
    trials: int
    fingerprint: Optional[str]
    error: Optional[str]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, interpolated between order statistics.

    A tail percentile (``q > 50``) is refused unless at least
    ``MIN_TAIL_SAMPLES`` samples lie beyond it, e.g. p90 needs 100.

    >>> percentile([1, 2, 3, 4], 50)
    2.5
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    beyond = int(len(xs) * (100 - q) / 100 + 1e-9)
    if q > 50 and beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples has {beyond} beyond it; "
            f"needs {MIN_TAIL_SAMPLES}"
        )
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_phase(workload, seconds: float, recorder: Recorder, start: int, traced: bool) -> List[OpRecord]:
    """Run operations back to back (closed loop) for ``seconds``; at
    least one operation always runs."""
    records: List[OpRecord] = []
    deadline = time.perf_counter() + seconds
    i = start
    while not records or time.perf_counter() < deadline:
        outcome = error = None
        t0 = time.perf_counter()
        try:
            if traced:
                with recorder.op(i):
                    outcome = workload.op(i)
            else:
                outcome = workload.op(i)
            elapsed = time.perf_counter() - t0
            error = workload.check(i, outcome)
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed = time.perf_counter() - t0
            error = f"{type(exc).__name__}: {exc}"
        workload.after_op(i)
        records.append(
            OpRecord(
                index=i,
                seconds=elapsed,
                trials=outcome.trials if outcome is not None else 0,
                fingerprint=outcome.fingerprint if outcome is not None else None,
                error=error,
            )
        )
        i += 1
    return records


def probe_setup(workload: str, seed: int) -> float:
    """``setup_s`` of one more set-up, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _ok(records: List[OpRecord]) -> List[OpRecord]:
    return [r for r in records if r.error is None]


def end_to_end(ok: List[OpRecord], setups: List[float], peak_rss_mb: float, store_bytes_per_trial: float) -> Dict[str, float]:
    busy = sum(r.seconds for r in ok)
    return {
        "setup_s": statistics.median(setups),
        "sweep_p50_s": percentile([r.seconds for r in ok], 50),
        "trials_per_s": sum(r.trials for r in ok) / busy,
        "store_bytes_per_trial": store_bytes_per_trial,
        "peak_rss_mb": peak_rss_mb,
    }


def measure(
    args,
    workload,
    recorder: Recorder,
    import_s: float,
    outdir: Path,
    probes: int = SETUP_SAMPLES - 1,
) -> int:
    """Set up, run the timed phases, check, and print the report."""
    setups = [] if args.trace else [
        probe_setup(args.workload, args.seed) for _ in range(probes)
    ]
    t0 = time.perf_counter()
    workload.setup()
    setups.append(import_s + time.perf_counter() - t0)

    if args.trace:
        import bench_layers

        patches = Patches(recorder)
        before = workload.counters()
        bench_layers.install(patches)
        wrapped = patches.originals()
        try:
            traced = run_phase(workload, args.seconds * TRACE_SHARE, recorder, 0, True)
        finally:
            patches.restore()
        for owner, attr, original in wrapped:
            if current(owner, attr) is not original:
                raise RuntimeError(f"{attr} of {owner!r} was not restored")
        after = workload.counters()
        untraced = run_phase(
            workload, args.seconds * (1 - TRACE_SHARE), recorder, len(traced), False
        )
        records = traced + untraced
    else:
        records = run_phase(workload, args.seconds, recorder, 0, False)

    workload.verify(records)
    peak_rss_mb = workload.peak_rss_mb()
    problems = workload.close()
    # a drain that exits non-zero or leaves a process behind is one more
    # failed operation
    attempted = len(records) + workload.drains
    failed = sum(r.error is not None for r in records) + bool(problems)
    for r in records:
        if r.error is not None:
            print(f"operation {r.index} failed: {r.error}", file=sys.stderr)
    for problem in problems:
        print(f"drain: {problem}", file=sys.stderr)

    ok = _ok(records)
    if args.trace:
        ok_traced, ok_untraced = _ok(traced), _ok(untraced)
        counts = {k: v - before.get(k, 0) for k, v in after.items()}
        metrics = bench_layers.aggregate(recorder.spans, len(traced), counts)
        if ok_traced and ok_untraced:
            metrics["trace.overhead_frac"] = (
                percentile([r.seconds for r in ok_traced], 50)
                / percentile([r.seconds for r in ok_untraced], 50)
                - 1
            )
        metrics.update(workload.layer_extras(untraced))
        units = {name: unit for name, unit, _ in bench_layers.PER_LAYER}
        trace_path = outdir / f"trace-{args.workload}-seed{args.seed}.json"
        write_chrome_trace(recorder.spans, str(trace_path))
        print(f"spans: {len(recorder.spans)} written to {trace_path}")
    else:
        units = dict(END_TO_END)
        metrics = (
            end_to_end(ok, setups, peak_rss_mb, workload.store_bytes_per_trial())
            if ok
            else dict.fromkeys(units, 0.0)  # nothing to measure; the run failed
        )

    print(f"workload {args.workload}  seed {args.seed}  operations {len(records)}"
          f"  ({len(ok)} ok)")
    for name in units:
        print(f"  {name:28s} {metrics[name]:>14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'failed_frac':28s} {failed / attempted:>14.6g} ratio"
              f"  ({failed} of {attempted} operations)")
        print(f"  {'setup samples':28s} {len(setups):>14d}")
        try:
            p90 = f"{percentile([r.seconds for r in ok], 90):>14.6g} s"
        except ValueError as exc:
            p90 = f"{'not reported':>14s}   ({exc})"
        print(f"  {'sweep_p90_s':28s} {p90}  (n={len(ok)})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a terminated run still drains its server and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    import_s = time.perf_counter() - _T0

    outdir = root / ".perfbench"
    workdir = outdir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    recorder = Recorder()
    workload = WORKLOADS[args.workload](args.seed, workdir, recorder)
    try:
        if not args.setup_probe:
            return measure(args, workload, recorder, import_s, outdir)
        t0 = time.perf_counter()
        workload.setup()
        setup_s = import_s + time.perf_counter() - t0
        problems = workload.close()
        if problems:
            print("; ".join(problems), file=sys.stderr)
            return 1
        print(json.dumps({"setup_s": setup_s}))
        return 0
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
