"""Reference helpers for tests and benchmarks.

The sweep layer picks the batched engine wherever it can
(:func:`repro.api.sweeps.execute_units`); the scalar engine stays as the
reference those batched results are compared against.
:func:`scalar_sweep` runs a whole sweep on that reference path.
"""

from __future__ import annotations

from typing import Optional

from .api.session import Session
from .api.sweeps import SweepDriver, SweepResult, SweepSpec

__all__ = ["scalar_sweep"]


def scalar_sweep(sweep: SweepSpec, session: Optional[Session] = None) -> SweepResult:
    """``run_sweep`` with every trial on the scalar engine.

    Drives a :class:`~repro.api.sweeps.SweepDriver` through
    :meth:`Session.run_iter` (a storeless serial session by default), so
    the result — fingerprint included — is what the batched path must
    reproduce bit for bit.
    """
    sess = session if session is not None else Session()
    driver = SweepDriver(sweep)
    while requests := driver.next_round():
        units = [(i, t) for i, start, n in requests for t in range(start, start + n)]
        specs = [sweep.trial_spec(driver.points[i], t) for i, t in units]
        for (i, t), result in zip(units, sess.run_iter(specs)):
            driver.fold(i, t, result)
    return driver.result()
