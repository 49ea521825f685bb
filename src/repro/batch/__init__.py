"""Batched trial engine: evaluate many fault trials on one graph at once.

The paper's experiments are Monte-Carlo: at every grid point of a sweep,
hundreds of i.i.d. fault trials hit *the same graph* with *the same
analysis* and differ only in their run seed.  The scalar engine executes
each trial as an independent ``fault → subgraph → components`` pipeline —
correct, but the per-trial Python and subgraph-construction overhead
dominates at sweep scale.

This package stacks a grid point's trials into one ``(T × n)`` alive-mask
matrix and evaluates them with the mask-parallel kernels in
:mod:`repro.graphs.traversal`:

* :mod:`repro.batch.faults` — vectorised fault injection: per-trial fault
  masks drawn without ever materialising per-trial subgraphs, bit-identical
  to the scalar fault models' draws;
* :mod:`repro.batch.engine` — :func:`~repro.batch.engine.run_trials`, the
  batched counterpart of :func:`repro.api.engine.run` for measure-only
  analyses, plus :func:`~repro.batch.engine.supports`, the eligibility
  test the sweep layer auto-batches on;
* :mod:`repro.batch.rounds` — sequential-round mask kernels
  (:func:`~repro.batch.rounds.run_rounds`) for fault dynamics that
  iterate, e.g. the load-redistribution cascade.

**The scalar-equivalence guarantee.**  The batched path is an *execution
strategy*, never a semantic switch: for every supported scenario it
produces :class:`~repro.api.specs.RunResult` records that are equal to the
scalar engine's (and hash to identical fingerprints) — the same per-trial
RNG streams, the same component statistics, the same store entries.  The
guarantee is enforced, not assumed: ``tests/batch/test_differential.py``
property-tests batched-vs-scalar equality across randomly generated
(graph, fault rate, seed) cases, against the scalar engine kept as the
reference (:func:`repro.testing.scalar_sweep` for whole sweeps).  See
``docs/batch.md`` and DESIGN.md §8.
"""

from .engine import run_trials, supports
from .faults import MASK_SAMPLERS, batched_fault_masks, register_mask_sampler
from .rounds import cascade_rounds, run_rounds

__all__ = [
    "run_trials",
    "supports",
    "MASK_SAMPLERS",
    "batched_fault_masks",
    "register_mask_sampler",
    "run_rounds",
    "cascade_rounds",
]
