"""Cached, streaming, resumable sweeps with the Session API.

The determinism contract (identical ``(spec, seed)`` ⇒ identical result)
makes results content-addressable: a :class:`repro.api.Session` backed by a
store directory never executes the same scenario twice — across calls,
across processes, and across interruptions.  This example runs a
(topology × fault-rate × seed) robustness sweep three ways:

1. cold, streaming results out as they complete (``run_iter``);
2. interrupted halfway, then resumed — only the missing scenarios run;
3. fully warm — the whole sweep is served from disk with zero engine calls.

Run with ``PYTHONPATH=src python examples/cached_sweep.py``.
"""

import tempfile

from repro.api import FaultSpec, GraphSpec, ScenarioSpec, Session
from repro.report.tables import format_row_dicts


def build_sweep():
    """24 scenarios: two topologies × three fault rates × four seeds."""
    graphs = [
        GraphSpec("torus", {"sides": 10, "d": 2}),
        GraphSpec("hypercube", {"d": 6}),
    ]
    return [
        ScenarioSpec(
            graph=g,
            fault=FaultSpec("random_node", {"p": p}),
            seed=s,
            label=f"{g.generator}:p={p}",
        )
        for g in graphs
        for p in (0.02, 0.05, 0.10)
        for s in range(4)
    ]


def main() -> None:
    specs = build_sweep()
    with tempfile.TemporaryDirectory() as store_dir:
        # -- 1. cold + streaming: results land on disk as they finish ---- #
        session = Session(store_dir, workers=1)
        print(f"cold sweep of {len(specs)} scenarios (streaming):")
        for result in session.run_iter(specs[: len(specs) // 2]):
            print(
                f"  done {result.label:>16} seed={result.seed} "
                f"retention={result.expansion_retention}"
            )
        print(f"...interrupted halfway: {session.stats().results} stored\n")

        # -- 2. resume: the full sweep only executes the missing half ----- #
        resumed = Session(store_dir, workers=1)
        results = resumed.run_batch(specs)
        print(
            f"resumed full sweep: {resumed.hits} served from store, "
            f"{resumed.misses} computed\n"
        )

        # -- 3. warm: zero executions, identical fingerprints ------------- #
        warm = Session(store_dir, workers=1)
        replay = warm.run_batch(specs)
        assert warm.misses == 0
        assert [r.fingerprint() for r in replay] == [
            r.fingerprint() for r in results
        ]
        print(f"warm replay: {warm.hits} cached, {warm.misses} computed — "
              "fingerprints identical")

        rows = [r.row() for r in results[:6]]
        print()
        print(format_row_dicts(rows, title="first six results"))


if __name__ == "__main__":
    main()
