"""Pluggable execution strategies for scenario batches.

:class:`Executor` is the one interface the session layer schedules work
through; the two built-ins are

* :class:`SerialExecutor` — an in-process loop.  Deterministic, zero
  overhead, trivially debuggable; the default for ``workers=1``.
* :class:`ProcessExecutor` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  fan-out.  Falls back to the serial path for batches of fewer than four
  tasks, too small to amortise pool start-up.

Both implement one operation, ``imap(fn, items)``: ``(index, result)``
pairs *in completion order*, which is what lets
:meth:`repro.api.session.Session.run_iter` stream results out while later
scenarios are still executing.  ``map(fn, items)`` — all results in input
order, a barrier — is built on it.

Work functions must be picklable module-level callables (the process pool
requirement); randomness must come from explicit seeds inside the items so
results never depend on scheduling order.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, TypeVar

from ..errors import InvalidParameterError

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "effective_workers",
    "make_executor",
]

T = TypeVar("T")
R = TypeVar("R")

#: Below this many tasks :class:`ProcessExecutor` runs serially — the pool
#: start-up cost (~100 ms) is never worth amortising over fewer tasks.
_POOL_MIN_ITEMS = 4


def effective_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker-count spec.

    ``None`` or 0 means "auto": one worker per CPU, capped at 8 (beyond that
    the fork+pickle overhead outweighs gains for our task sizes).  Negative
    values are invalid.
    """
    if workers is None or workers == 0:
        return max(1, min(8, os.cpu_count() or 1))
    if workers < 0:
        raise InvalidParameterError(f"workers must be >= 0 or None, got {workers}")
    return int(workers)


class Executor(ABC):
    """Strategy interface: how a batch of independent tasks is executed."""

    #: Resolved parallelism degree (1 for the serial executor).
    workers: int = 1

    @abstractmethod
    def imap(
        self, fn: Callable[[T], R], items: Iterable[T]
    ) -> Iterator[Tuple[int, R]]:
        """Yield ``(input_index, result)`` pairs as tasks complete."""

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """All results in input order (barriers on the full batch)."""
        work = list(items)
        out: List[R] = [None] * len(work)  # type: ignore[list-item]
        for i, result in self.imap(fn, work):
            out[i] = result
        return out


class SerialExecutor(Executor):
    """In-process loop: lazy, ordered, deterministic."""

    workers = 1

    def imap(
        self, fn: Callable[[T], R], items: Iterable[T]
    ) -> Iterator[Tuple[int, R]]:
        for i, item in enumerate(items):
            yield i, fn(item)


class ProcessExecutor(Executor):
    """Process-pool fan-out with a serial fallback for tiny batches.

    ``workers`` is the parallelism degree; ``None``/``0`` selects a
    CPU-count default.  Batches of fewer than ``_POOL_MIN_ITEMS`` tasks
    run serially.
    """

    def __init__(self, workers: Optional[int] = None):
        self.workers = effective_workers(workers)

    def imap(
        self, fn: Callable[[T], R], items: Iterable[T]
    ) -> Iterator[Tuple[int, R]]:
        work = list(items)
        if self.workers <= 1 or len(work) < _POOL_MIN_ITEMS:
            yield from SerialExecutor().imap(fn, work)
            return
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            pending = {pool.submit(fn, item): i for i, item in enumerate(work)}
            try:
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        yield pending.pop(future), future.result()
            finally:
                # Abandoned mid-stream (consumer closed the generator):
                # cancel everything still queued so pool teardown only waits
                # for tasks already in flight, not the whole remaining batch.
                for future in pending:
                    future.cancel()


def make_executor(workers: Optional[int] = 1) -> Executor:
    """The default executor for a worker-count spec: serial for ``workers=1``,
    a process pool otherwise (``None``/``0`` = auto-sized pool)."""
    if workers == 1:
        return SerialExecutor()
    return ProcessExecutor(workers)
