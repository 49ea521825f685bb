"""Unit tests for the worker-count rule the process executor resolves."""

import pytest

from repro.api.executors import effective_workers
from repro.errors import InvalidParameterError


class TestEffectiveWorkers:
    def test_auto(self):
        assert effective_workers(None) >= 1
        assert effective_workers(0) >= 1

    def test_explicit(self):
        assert effective_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            effective_workers(-1)
