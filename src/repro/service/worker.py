"""Worker-process entry point: pull jobs, execute trials, report back.

Each worker is a separate OS process (spawned, not forked — the server is
multi-threaded, and forking a threaded process inherits arbitrary lock
state).  The protocol is deliberately tiny:

* the server pushes ``(job key, sweep spec dict, segments)`` tuples onto
  the worker's private job queue — ``segments`` an ordered list of
  ``(point index, first trial, n trials)`` ranges, several when the
  scheduler merged compatible grid points into one job — one queue per
  worker, so crash attribution is exact — and ``None`` as the drain
  sentinel;
* the worker executes each job through a long-lived
  :class:`~repro.api.session.Session` bound to the *shared* result store
  (advisory-locked appends; trials already on disk are served as hits) and
  sends ``("done", worker id, job key, [result dicts], hits, misses)``
  down its private event pipe (no lock shared with other workers, so a
  worker killed mid-send cannot stall the rest);
* execution errors are reported as ``("error", ...)`` with a traceback —
  the scheduler fails the sweep, because scenario execution is
  deterministic and a retry would raise identically.

Between jobs the worker blocks on its queue; the only other event it
sends is ``("ready", worker id)`` once its session is open.
Crashes and hangs need no protocol at all: the server notices a dead
process and requeues its job, and recycles a worker whose job outlives
the job timeout.

Trials are executed through :func:`repro.api.sweeps.execute_units` — the
exact code path :func:`run_sweep` uses locally — so a distributed sweep's
per-trial results, store entries and fingerprints are bit-identical to a
single-process run by construction.
"""

from __future__ import annotations

import traceback
from typing import Any, Dict, Tuple

__all__ = ["worker_main"]


def _build_session(config: Dict[str, Any]):
    from ..api.session import Session
    from ..api.store import ResultStore

    store = ResultStore(config["store"], fsync=bool(config.get("fsync", False)))
    return Session(store=store, workers=1)


def worker_main(
    worker_id: str,
    job_queue,
    events,
    config: Dict[str, Any],
) -> None:
    """Run the worker loop until the ``None`` sentinel arrives.

    ``config`` keys: ``store`` (shared store directory) and ``fsync``
    (durable appends).
    """
    from ..api.sweeps import SweepSpec, execute_units

    session = _build_session(config)
    events.send(("ready", worker_id))

    # Sweep expansion is deterministic but not free; cache the expanded
    # grid per sweep hash so a sweep's later jobs skip re-expansion.
    sweeps: Dict[str, Tuple[Any, list]] = {}

    while True:
        message = job_queue.get()
        if message is None:
            break
        job_key, sweep_dict, segments = message
        try:
            sweep_hash = sweep_dict.get("__hash__")
            cached = sweeps.get(sweep_hash) if sweep_hash else None
            if cached is None:
                payload = {k: v for k, v in sweep_dict.items() if k != "__hash__"}
                sweep = SweepSpec.from_dict(payload)
                cached = (sweep, sweep.points())
                sweeps[sweep_hash or sweep.hash()] = cached
            sweep, points = cached
            units = [
                (point_index, t)
                for point_index, trial_start, n_trials in segments
                for t in range(trial_start, trial_start + n_trials)
            ]
            specs = [sweep.trial_spec(points[p], t) for p, t in units]
            hits0, misses0 = session.hits, session.misses
            results = execute_units(session, units, specs)
            events.send(
                (
                    "done",
                    worker_id,
                    job_key,
                    [r.to_dict() for r in results],
                    session.hits - hits0,
                    session.misses - misses0,
                )
            )
        except Exception:
            events.send(
                ("error", worker_id, job_key, traceback.format_exc(limit=20))
            )
