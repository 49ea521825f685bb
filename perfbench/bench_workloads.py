"""The four benchmark workloads.

Each workload builds its sweeps from the benchmark seed alone, so the
program receives only the generated :class:`~repro.api.sweeps.SweepSpec`
objects.  One *operation* is one ``run_sweep`` call, or one service round
trip (submit → results received).  Every operation's sweep fingerprint is
checked against a reference computed by a storeless in-process
``run_sweep`` of the same sweep (:meth:`Workload.reference`).

* ``gamma_cold`` — the canonical γ(p) sweep into a new, empty store.
* ``gamma_warm`` — the same sweep, served entirely from a filled store.
* ``prune_scalar`` — Prune with survivor expansion, scalar engine, no store.
* ``service_roundtrip`` — γ sweeps through ``python -m repro serve``.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import repro
from repro.api.session import Session
from repro.api.specs import AnalysisSpec, FaultSpec, GraphSpec, ScenarioSpec
from repro.api.store import ResultStore
from repro.api.sweeps import Axis, SamplingPolicy, SweepSpec, run_sweep
from repro.service.client import ServiceClient

from bench_service import ServiceProcess, parse_prometheus
from bench_trace import Recorder

__all__ = ["WORKLOADS", "Outcome", "Workload", "gamma_sweep", "prune_sweep", "service_sweep"]

#: Fault probabilities of the canonical sweep: 12 points evenly spaced
#: over 0.05–0.65, through the site threshold of the 2-D torus.
GAMMA_P = tuple(round(0.05 + k * 0.6 / 11, 6) for k in range(12))
PRUNE_P = (0.02, 0.05, 0.10, 0.15)
SERVICE_P = (0.1, 0.3, 0.45, 0.6)
#: Trials per service grid point.  The service loop picks worker results
#: up on a 50 ms tick.  At 16 trials a worker's compute took 55-60 ms on
#: the 2-core box, right at one tick, so a round trip took one tick or two
#: with the machine's moment-to-moment speed (run medians 0.12 s or
#: 0.17 s).  At 4 trials it stays well inside one tick.
SERVICE_TRIALS = 4

#: Seconds between status polls while a service sweep is in flight.
POLL_S = 0.005
#: Seconds a service round trip may take before it counts as failed.
OP_TIMEOUT_S = 60.0


def _sweep(
    sides: int, ps, trials: int, seed: int, analysis: AnalysisSpec, label: str
) -> SweepSpec:
    return SweepSpec(
        base=ScenarioSpec(
            graph=GraphSpec("torus", {"sides": sides, "d": 2}),
            fault=FaultSpec("random_node", {"p": ps[0]}),
            analysis=analysis,
        ),
        axes=(Axis("fault.params.p", tuple(ps)),),
        trials=trials,
        seed=seed,
        metrics=("gamma",),
        policy=SamplingPolicy(kind="fixed"),
        label=label,
    )


def gamma_sweep(seed: int) -> SweepSpec:
    """12 points × 64 trials of γ on a 32×32 torus, no pruner."""
    analysis = AnalysisSpec(pruner=None, measure_expansion=False)
    return _sweep(32, GAMMA_P, 64, seed, analysis, "bench-gamma")


def prune_sweep(seed: int) -> SweepSpec:
    """Prune (node mode, default cut finder) with survivor expansion,
    4 points × 6 trials on a 24×24 torus."""
    analysis = AnalysisSpec(mode="node", pruner="prune", measure_expansion=True)
    return _sweep(24, PRUNE_P, 6, seed, analysis, "bench-prune")


def service_sweep(seed: int, key: int) -> SweepSpec:
    """Service sweep number ``key``: 4 points × ``SERVICE_TRIALS`` trials
    of γ on a 24×24 torus, with a sweep seed of its own."""
    analysis = AnalysisSpec(pruner=None, measure_expansion=False)
    return _sweep(
        24, SERVICE_P, SERVICE_TRIALS, seed * 1_000_000 + key, analysis, "bench-service"
    )


@dataclass
class Outcome:
    """What one operation delivered."""

    fingerprint: str
    trials: int
    counts: Dict[str, float] = field(default_factory=dict)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _store_bytes_per_trial(path: Path) -> float:
    """Bytes on disk under a store directory ÷ results it holds."""
    nbytes = _dir_bytes(path)
    return nbytes / max(ResultStore(path).stats().results, 1)


class Workload:
    """Set-up, the operation, its checks, and the figures taken at the end.

    Operation ``i`` runs :meth:`sweep_for` ``(i)``.  Its fingerprint must
    equal :meth:`reference` of that sweep, a storeless in-process
    ``run_sweep`` made once per distinct sweep; :meth:`verify` compares
    after the timed phase, so a reference set-up did not compute costs no
    timed time.  ``counters()`` returns cumulative operation-level
    counters; the runner turns their change over a phase into
    per-operation figures.
    """

    name = ""
    #: Closing operations (a service drain) counted as attempted.
    drains = 0

    def __init__(self, seed: int, workdir: Path, recorder: Recorder) -> None:
        self.seed = seed
        self.workdir = workdir
        self.recorder = recorder
        self.totals: Counter = Counter()
        self._references: Dict[str, str] = {}
        #: Seconds each reference run took, by sweep hash.
        self.reference_s: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def sweep_for(self, i: int) -> SweepSpec:
        raise NotImplementedError

    def op(self, i: int) -> Outcome:
        raise NotImplementedError

    def reference(self, sweep: SweepSpec) -> str:
        key = sweep.hash()
        if key not in self._references:
            t0 = time.perf_counter()
            self._references[key] = run_sweep(sweep, Session()).fingerprint()
            self.reference_s[key] = time.perf_counter() - t0
        return self._references[key]

    def check(self, i: int, outcome: Outcome) -> Optional[str]:
        """Why operation ``i`` is wrong on its own terms, or ``None``
        (its fingerprint is judged by :meth:`verify`)."""
        return None

    def verify(self, records: list) -> None:
        """Set ``record.error`` on every operation whose fingerprint
        differs from its sweep's reference."""
        for record in records:
            if record.error is None:
                expected = self.reference(self.sweep_for(record.index))
                if record.fingerprint != expected:
                    record.error = f"fingerprint {record.fingerprint} != reference {expected}"

    def warm_up(self) -> None:
        """One untimed operation, which must pass both checks."""
        outcome = self.op(-1)
        error = self.check(-1, outcome)
        expected = self.reference(self.sweep_for(-1))
        if error is None and outcome.fingerprint != expected:
            error = f"fingerprint {outcome.fingerprint} != reference {expected}"
        if error is not None:
            raise RuntimeError(f"{self.name} warm-up operation: {error}")

    def after_op(self, i: int) -> None:
        """Clean-up between operations (untimed)."""

    def counters(self) -> Dict[str, float]:
        return dict(self.totals)

    def layer_extras(self, untraced: list) -> Dict[str, float]:
        """Per-layer figures that need the untraced operations."""
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def store_bytes_per_trial(self) -> float:
        raise NotImplementedError

    def close(self) -> List[str]:
        """Release what set-up started; returns problems seen doing so."""
        return []

    def _count_session(self, sess: Session, rounds: int) -> Dict[str, float]:
        counts = {
            "sweeps.rounds": rounds,
            "session.hits": sess.hits,
            "session.misses": sess.misses,
        }
        if sess.store is not None:
            snap = sess.store.counters.snapshot()
            counts["storage.index_hits"] = snap["index_hits"]
            counts["storage.index_misses"] = snap["index_misses"]
        self.totals.update(counts)
        return counts

    def _run(self, sweep: SweepSpec, sess: Session) -> Outcome:
        result = run_sweep(sweep, sess)
        counts = self._count_session(sess, result.rounds)
        return Outcome(result.fingerprint(), result.total_trials, counts)


class GammaCold(Workload):
    """Each operation: ``run_sweep`` on a fresh Session over a new store."""

    name = "gamma_cold"

    def setup(self) -> None:
        self.sweep = gamma_sweep(self.seed)
        self._last: Optional[Path] = None
        self.warm_up()

    def sweep_for(self, i: int) -> SweepSpec:
        return self.sweep

    def _store_dir(self, i: int) -> Path:
        return self.workdir / f"cold-{i}"

    def op(self, i: int) -> Outcome:
        return self._run(self.sweep, Session(self._store_dir(i)))

    def after_op(self, i: int) -> None:
        # keep only the newest store: its size is the one reported
        if self._last is not None:
            shutil.rmtree(self._last, ignore_errors=True)
        self._last = self._store_dir(i)

    def store_bytes_per_trial(self) -> float:
        return _store_bytes_per_trial(self._last or self._store_dir(-1))


class GammaWarm(Workload):
    """Set-up fills the store once; each operation opens a fresh Session
    on a newly opened ResultStore over it, as a ``sweep run --store`` rerun
    does."""

    name = "gamma_warm"

    def setup(self) -> None:
        self.sweep = gamma_sweep(self.seed)
        self.store_dir = self.workdir / "warm"
        run_sweep(self.sweep, Session(self.store_dir))
        self.warm_up()

    def sweep_for(self, i: int) -> SweepSpec:
        return self.sweep

    def op(self, i: int) -> Outcome:
        return self._run(self.sweep, Session(ResultStore(self.store_dir)))

    def check(self, i: int, outcome: Outcome) -> Optional[str]:
        if outcome.counts.get("session.misses"):
            return f"warm sweep computed {outcome.counts['session.misses']} trials"
        return None

    def store_bytes_per_trial(self) -> float:
        return _store_bytes_per_trial(self.store_dir)


class PruneScalar(Workload):
    """Each operation: ``run_sweep`` of a Prune sweep on a fresh storeless
    serial Session (pruning analyses always take the scalar engine).

    The cost of a Prune sweep depends on its fault draws (one seed's sweep
    took 0.8 s, another's 1.2 s), so operation ``i`` runs the
    ``i mod sweeps``-th of several sweeps made from the seed, and a run's
    median is taken over all of them."""

    name = "prune_scalar"
    sweeps = 8

    def setup(self) -> None:
        self.warm_up()

    def sweep_for(self, i: int) -> SweepSpec:
        return prune_sweep(self.seed * 1000 + i % self.sweeps)

    def op(self, i: int) -> Outcome:
        return self._run(self.sweep_for(i), Session())

    def store_bytes_per_trial(self) -> float:
        # The operation keeps no store; measure what storing one sweep's
        # records would take.
        path = self.workdir / "prune-store"
        run_sweep(self.sweep_for(0), Session(path))
        return _store_bytes_per_trial(path)


#: /metrics counters of the service → the per-layer counters they feed.
_SERVICE_COUNTERS = {
    "jobs_dispatched_total": ("service.jobs_dispatched",),
    "jobs_warm_total": ("service.jobs_warm",),
    "store_misses_total": ("service.store_misses", "session.misses"),
    "store_hits_total": ("session.hits",),
    "sweeps_deduped_total": ("service.sweeps_deduped",),
    "workers_crashed_total": ("service.workers_crashed",),
    "store_index_hits_total": ("storage.index_hits",),
    "store_index_misses_total": ("storage.index_misses",),
}


class ServiceRoundtrip(Workload):
    """A ``repro serve --workers 2`` subprocess on a fresh store, driven
    closed-loop by one client with one sweep in flight.  Operation ``i``
    submits sweep ``i``, except that every fourth repeats the sweep
    submitted three before it, which the scheduler answers from the
    finished identical sweep."""

    name = "service_roundtrip"
    drains = 1
    warmups = 2
    #: The server keeps every finished sweep in memory, so its peak RSS
    #: grows with the sweeps served; it is read after this many round
    #: trips (or at the end of a shorter run) to compare equal work.
    rss_after_ops = 40

    def setup(self) -> None:
        src = Path(repro.__file__).resolve().parent.parent
        self.service = ServiceProcess(src, self.workdir / "service-store")
        self.client = ServiceClient(self.service.start(), timeout=OP_TIMEOUT_S)
        self.rss_mb: Optional[float] = None
        for k in range(self.warmups):
            self._roundtrip(service_sweep(self.seed, 900_000 + k))

    def sweep_for(self, i: int) -> SweepSpec:
        return service_sweep(self.seed, i - 3 if i % 4 == 3 else i)

    def _roundtrip(self, sweep: SweepSpec) -> dict:
        submitted = self.client.submit(sweep)
        state = submitted["state"]
        deadline = time.monotonic() + OP_TIMEOUT_S
        while state != "done":
            if state in ("failed", "cancelled"):
                raise RuntimeError(f"sweep {submitted['id']} {state}")
            if time.monotonic() > deadline:
                raise TimeoutError(f"sweep {submitted['id']} still {state}")
            with self.recorder.span("service.wait"):
                time.sleep(POLL_S)
            state = self.client.status(submitted["id"])["state"]
        return self.client.results(submitted["id"])

    def op(self, i: int) -> Outcome:
        results = self._roundtrip(self.sweep_for(i))
        self.totals["sweeps.rounds"] += results["rounds"]
        return Outcome(results["fingerprint"], results["total_trials"], {})

    def after_op(self, i: int) -> None:
        if i + 1 == self.rss_after_ops:
            self.rss_mb = self.service.peak_rss_mb()

    def counters(self) -> Dict[str, float]:
        out = Counter(self.totals)
        scraped = parse_prometheus(self.client.metrics())
        for source, targets in _SERVICE_COUNTERS.items():
            for target in targets:
                out[target] += scraped.get(source, 0)
        return dict(out)

    def layer_extras(self, untraced) -> Dict[str, float]:
        ok = [r for r in untraced if r.error is None]
        if not ok:
            return {}
        local = [self.reference_s[self.sweep_for(r.index).hash()] for r in ok]
        return {
            "service.overhead_s": statistics.median(r.seconds for r in ok)
            - statistics.median(local)
        }

    def peak_rss_mb(self) -> float:
        return self.rss_mb if self.rss_mb is not None else self.service.peak_rss_mb()

    def store_bytes_per_trial(self) -> float:
        return _store_bytes_per_trial(self.service.store)

    def close(self) -> List[str]:
        service = getattr(self, "service", None)
        return service.stop() if service is not None else []


WORKLOADS = {w.name: w for w in (GammaCold, GammaWarm, PruneScalar, ServiceRoundtrip)}
