"""Executor abstraction: serial/process parity, streaming, selection."""

import os
import tempfile
import time

import pytest

from repro.api.executors import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    effective_workers,
    make_executor,
)
from repro.errors import InvalidParameterError


def _square(x):
    return x * x


def _slow_marker(payload):
    marker_dir, i = payload
    time.sleep(0.2)
    with open(os.path.join(marker_dir, str(i)), "w") as fh:
        fh.write("ran")
    return i


class TestSerialExecutor:
    def test_map_ordered(self):
        assert SerialExecutor().map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_imap_yields_index_result_pairs(self):
        assert list(SerialExecutor().imap(_square, [2, 3])) == [(0, 4), (1, 9)]

    def test_imap_is_lazy(self):
        calls = []

        def tracked(x):
            calls.append(x)
            return x

        stream = SerialExecutor().imap(tracked, [1, 2, 3])
        assert calls == []
        next(stream)
        assert calls == [1]

    def test_empty(self):
        assert SerialExecutor().map(_square, []) == []


class TestProcessExecutor:
    def test_matches_serial(self, pool_starts):
        items = list(range(12))
        expected = SerialExecutor().map(_square, items)
        assert ProcessExecutor(2).map(_square, items) == expected
        assert pool_starts == [2]

    def test_imap_covers_all_indices(self, pool_starts):
        pairs = list(ProcessExecutor(2).imap(_square, range(8)))
        assert sorted(i for i, _ in pairs) == list(range(8))
        assert all(r == i * i for i, r in pairs)
        assert pool_starts == [2]

    def test_small_batch_falls_back_to_serial(self, pool_starts):
        # Too few items to amortise a pool: it is never started; results
        # identical.
        assert ProcessExecutor(4).map(_square, [2, 3]) == [4, 9]
        assert pool_starts == []

    def test_abandoned_imap_cancels_queued_work(self):
        # Close the stream after one result: still-queued tasks must be
        # cancelled instead of executing during generator teardown.
        with tempfile.TemporaryDirectory() as marker_dir:
            stream = ProcessExecutor(2).imap(
                _slow_marker, [(marker_dir, i) for i in range(12)]
            )
            next(stream)
            stream.close()
            executed = len(os.listdir(marker_dir))
        assert 1 <= executed < 12

    def test_workers_resolution(self):
        assert ProcessExecutor(3).workers == 3
        assert ProcessExecutor(None).workers >= 1
        with pytest.raises(InvalidParameterError):
            ProcessExecutor(-2)


class TestMakeExecutor:
    def test_one_worker_is_serial(self):
        assert isinstance(make_executor(1), SerialExecutor)

    def test_many_workers_is_process_pool(self):
        executor = make_executor(4)
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers == 4

    def test_auto_is_process_pool(self):
        assert isinstance(make_executor(None), ProcessExecutor)
        assert isinstance(make_executor(0), ProcessExecutor)

    def test_all_are_executors(self):
        assert isinstance(make_executor(1), Executor)
        assert isinstance(make_executor(2), Executor)


class TestEffectiveWorkers:
    def test_auto(self):
        assert effective_workers(None) >= 1
        assert effective_workers(0) >= 1

    def test_explicit(self):
        assert effective_workers(5) == 5

    def test_negative_rejected(self):
        with pytest.raises(InvalidParameterError):
            effective_workers(-1)
