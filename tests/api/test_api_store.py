"""ResultStore behaviour: round-trips, corruption tolerance, maintenance."""

import base64
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.engine import run
from repro.api.specs import (
    AnalysisSpec,
    FaultSpec,
    GraphSpec,
    RunResult,
    ScenarioSpec,
    canonical_json,
)
from repro.api.store import ResultStore, _result_line, baseline_key
from repro.expansion.estimate import ExpansionEstimate
from repro.storage import StorageEngine


def torus_spec(seed=3, p=0.1):
    return ScenarioSpec(
        graph=GraphSpec("torus", {"sides": 8, "d": 2}),
        fault=FaultSpec("random_node", {"p": p}),
        analysis=AnalysisSpec(),
        seed=seed,
    )


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestResultRoundTrip:
    def test_miss_then_hit(self, store):
        spec = torus_spec()
        assert store.get_result(spec) is None
        result = run(spec)
        store.put_result(result)
        assert spec in store
        cached = store.get_result(spec)
        assert cached == result
        assert cached.fingerprint() == result.fingerprint()

    def test_persists_across_instances(self, store):
        result = run(torus_spec())
        store.put_result(result)
        reopened = ResultStore(store.path)
        assert reopened.get_result(torus_spec()) == result
        assert len(reopened) == 1

    def test_different_seed_is_different_key(self, store):
        store.put_result(run(torus_spec(seed=1)))
        assert store.get_result(torus_spec(seed=2)) is None

    def test_last_entry_wins_and_counts_superseded(self, store):
        result = run(torus_spec())
        store.put_result(result)
        store.put_result(result)
        assert store.stats().superseded == 1  # counted at write time...
        reopened = ResultStore(store.path)
        assert len(reopened) == 1
        assert reopened.stats().superseded == 1  # ...and again at load time

    def test_same_instance_duplicates_counted_by_prune(self, store):
        result = run(torus_spec())
        store.put_result(result)
        store.put_result(result)
        assert store.prune() == {"kept": 1, "dropped": 1}


_TRICKY_TEXT = st.sampled_from(['', 'a"b', "back\\slash", "é", "日本", "\u2603\n\t", '"\\"'])
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1.0, float("inf")]),
    st.floats(allow_nan=False),
)


@st.composite
def run_results(draw):
    """Arbitrary (not engine-made) results stressing the line encoding:
    tricky labels, out-of-range seeds, signed zeros and surviving sets
    from empty to full."""
    seed = draw(
        st.one_of(
            st.none(),
            st.integers(-(2**70), 2**70),
            st.sampled_from([-1, 2**63, 2**64 + 1]),
        )
    )
    label = draw(st.one_of(_TRICKY_TEXT, st.text(max_size=12)))
    spec = ScenarioSpec(
        graph=GraphSpec("torus", {"sides": 8, "d": 2}),
        fault=FaultSpec("random_node", {"p": draw(_FLOATS)}),
        seed=seed,
        label=label,
    )
    n_original = draw(st.one_of(st.integers(0, 200), st.integers(0, 2**14)))
    nodes = draw(
        st.one_of(
            st.just(()),
            st.just(tuple(range(min(n_original, 1024)))),
            st.sets(st.integers(0, max(n_original - 1, 0)), max_size=30).map(
                lambda ids: tuple(sorted(i for i in ids if i < n_original))
            ),
        )
    )
    return RunResult(
        spec=spec,
        seed=seed,
        label=label,
        graph_name=draw(_TRICKY_TEXT),
        n_original=n_original,
        mode=draw(st.sampled_from(["node", "edge"])),
        fault_kind=draw(_TRICKY_TEXT),
        f=draw(st.integers(0, 10**6)),
        fault_fraction=draw(_FLOATS),
        faulty_components=draw(st.integers(0, 100)),
        largest_faulty_component=draw(st.integers(0, 100)),
        n_surviving=len(nodes),
        surviving_fraction=draw(_FLOATS),
        n_culled_sets=draw(st.integers(0, 100)),
        prune_iterations=draw(st.integers(0, 100)),
        baseline_expansion=draw(st.one_of(st.none(), _FLOATS)),
        surviving_expansion=draw(st.one_of(st.none(), _FLOATS)),
        expansion_retention=draw(st.one_of(st.none(), _FLOATS)),
        surviving_nodes=nodes,
        epsilon=draw(_FLOATS),
    )


def _fresh(result):
    """An equal result with nothing memoised."""
    return dataclasses.replace(result)


class TestResultLineEncoding:
    @settings(max_examples=150, deadline=None)
    @given(run_results())
    def test_line_is_the_record_dict_encoding(self, result):
        """The store splices each results line from the fingerprint's
        text; it must equal the encoding of the record dict byte for byte,
        framed in its log line by the key and the append time."""
        record = result.record()
        assert "spec" not in record and "surviving_nodes" not in record
        fingerprint = hashlib.sha256(canonical_json(record).encode()).hexdigest()[:16]
        reference = StorageEngine.encode(
            {"key": result.spec.hash(), "fingerprint": fingerprint, "result": record}
        )
        assert _result_line(_fresh(result)) == reference
        with tempfile.TemporaryDirectory() as tmp:
            ResultStore(tmp).put_result(result)
            store = ResultStore(tmp)
            seg, entry = store.engine.locate("results", result.spec.hash())
            frame = f"{json.dumps(result.spec.hash())}\t{entry.ts}\t".encode()
            with open(seg, "rb") as fh:
                assert fh.read() == frame + reference
            assert entry.length == len(frame + reference)
            assert store.engine.get_raw("results", result.spec.hash()) == reference
            cached = store.get_result(result.spec)
        assert cached == result
        assert cached.fingerprint() == result.fingerprint() == fingerprint


def _stored_line(result):
    """The results record ``put_result`` writes for ``result``."""
    with tempfile.TemporaryDirectory() as tmp:
        store = ResultStore(tmp)
        store.put_result(result)
        return store.engine.get_raw("results", result.spec.hash())


def _parent_line(result):
    """The results line of the earlier record layout: the readable dict,
    nested spec and node ids included, with the label and seed framed
    around it."""
    content = canonical_json(result.to_dict())
    return StorageEngine.encode(
        {
            "key": result.spec.hash(),
            "seed": result.seed,
            "label": result.label,
            "fingerprint": hashlib.sha256(content.encode()).hexdigest()[:16],
            "result": result.to_dict(),
        }
    )


class TestHitContract:
    """A hit is served from the bytes read: the caller's spec, the hash of
    the stored ``result`` text, and only for a byte-exact record."""

    @settings(max_examples=100, deadline=None)
    @given(run_results())
    def test_hit_reuses_the_spec_and_the_bytes_read(self, result):
        spec = dataclasses.replace(result.spec)  # equal, but not the stored object
        with tempfile.TemporaryDirectory() as tmp:
            ResultStore(tmp).put_result(result)
            store = ResultStore(tmp)
            raw = store.engine.get_raw("results", spec.hash())
            cached = store.get_result(spec)
        assert cached == result
        assert cached.spec is spec
        assert cached.fingerprint() == _fresh(cached).fingerprint()
        fingerprint, text = cached.fingerprint_and_text()
        assert _fresh(cached).fingerprint_and_text() == (fingerprint, text)
        start = raw.index(b',"result":') + len(b',"result":')
        assert text.encode() == raw[start:-2]
        assert fingerprint == result.fingerprint()

    @staticmethod
    def _case(case):
        """``(lookup spec, record filed under its hash)`` for one case.

        Each forged record but ``whitespace``, ``stale-fingerprint`` and
        ``parent-line`` stores the fingerprint of its own ``result`` text,
        so that a recomputed fingerprint cannot be what rejects it."""
        real = run(torus_spec(seed=3))
        a = ScenarioSpec(
            graph=real.spec.graph, fault=FaultSpec("random_node", {"p": 1.0}), seed=3
        )
        result = dataclasses.replace(real, spec=a)
        record = result.record()
        text = canonical_json(record)

        def framed(text, key=a.hash(), fingerprint=None):
            fingerprint = fingerprint or hashlib.sha256(text.encode()).hexdigest()[:16]
            head = {"fingerprint": fingerprint, "key": key}
            return f'{canonical_json(head)[:-1]},"result":{text}}}\n'.encode()

        def with_bitmap(surviving):
            return canonical_json(dict(record, surviving=surviving))

        line = _stored_line(result)
        assert framed(text) == line
        b = torus_spec(seed=4)
        a_int = dataclasses.replace(a, fault=FaultSpec("random_node", {"p": 1}))
        assert a_int == a and a_int.hash() != a.hash()  # equal once decoded
        # the canonical text with its first two fields swapped: same bytes
        # count, same decoded dict
        first, second, *rest = sorted(record)
        unsorted = {name: record[name] for name in (second, first, *rest)}
        bitmap = base64.b64decode(record["surviving"])
        cases = {
            "valid": (a, line),
            # another spec's valid line, re-framed under this key
            "other-key": (b, framed(canonical_json(run(b).record()))),
            "int-vs-float": (a_int, framed(text, key=a_int.hash())),
            "whitespace": (a, json.dumps(json.loads(line)).encode() + b"\n"),
            "stale-fingerprint": (a, framed(text, fingerprint="0" * 16)),
            # the earlier layout's top-level seed after the text
            "record-seed": (a, line[:-2] + f',"seed":{result.seed}}}\n'.encode()),
            "unsorted-fields": (a, framed(json.dumps(unsorted, separators=(",", ":")))),
            # a space inside the bitmap text, which b64decode would skip
            "spaced-ids": (a, framed(with_bitmap(record["surviving"][:4] + " " + record["surviving"][4:]))),
            "missing-field": (
                a,
                framed(canonical_json({k: v for k, v in record.items() if k != "epsilon"})),
            ),
            "extra-field": (a, framed(canonical_json(dict(record, spec=a.to_dict())))),
            "trailing-zero-byte": (
                a, framed(with_bitmap(base64.b64encode(bitmap + b"\0").decode()))
            ),
            "non-canonical-base64": (a, framed(with_bitmap(_non_canonical(record["surviving"])))),
            "parent-line": (a, _parent_line(result)),
            # the flat layout before baselines became optional: the same
            # frame and a valid fingerprint, plus a baseline_exact field
            "baseline-exact-line": (
                a, framed(canonical_json(dict(record, baseline_exact=True)))
            ),
            # the text and frame intact, the closing brace not
            "unclosed-record": (a, line[:-2] + b"]\n"),
        }
        return cases[case]

    @pytest.mark.parametrize(
        "case, served",
        [("valid", True)]
        + [
            (forged, False)
            for forged in (
                "other-key",
                "int-vs-float",
                "whitespace",
                "stale-fingerprint",
                "record-seed",
                "unsorted-fields",
                "spaced-ids",
                "missing-field",
                "extra-field",
                "trailing-zero-byte",
                "non-canonical-base64",
                "parent-line",
                "baseline-exact-line",
                "unclosed-record",
            )
        ],
    )
    def test_lookup_serves_exactly_what_compaction_keeps(self, tmp_path, case, served):
        spec, line = self._case(case)
        path = tmp_path / "store"
        ResultStore(path).engine.append_raw("results", spec.hash(), line)
        store = ResultStore(path)
        assert (store.get_result(spec) is not None) is served
        assert store.corrupt_entries == (0 if served else 1)
        # compaction's own verify pass, on an instance that never looked up
        counts = ResultStore(path).compact(force=True)
        assert (counts["kept"], counts["corrupt"]) == ((1, 0) if served else (0, 1))
        assert (spec in ResultStore(path)) is served

    def test_a_store_of_the_earlier_layout_goes_cold(self, tmp_path):
        """Lines written in the earlier record layout are never served:
        each lookup misses and counts one corrupt line, a sweep recomputes
        them, and compaction keeps only the fresh lines."""
        path = tmp_path / "store"
        results = [run(torus_spec(seed=s)) for s in range(3)]
        old = ResultStore(path)
        for result in results:
            old.engine.append_raw("results", result.spec.hash(), _parent_line(result))
        store = ResultStore(path)
        assert len(store) == 3
        assert [store.get_result(r.spec) for r in results] == [None] * 3
        assert store.corrupt_entries == 3
        store.put_results(run(r.spec) for r in results)
        counts = ResultStore(path).compact(force=True)
        assert (counts["kept"], counts["superseded"]) == (3, 3)
        warm = ResultStore(path)
        assert [warm.get_result(r.spec) for r in results] == results
        assert warm.corrupt_entries == 0


def _non_canonical(text):
    """``text`` with the unused low bits of its last base64 digit set:
    the same bytes decode from it (``QR==`` for ``QQ==``)."""
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    pad = text.count("=")
    assert pad, "the bitmap length must leave unused bits"
    last = alphabet.index(text[-pad - 1]) | (0b1111 if pad == 2 else 0b11)
    return text[: -pad - 1] + alphabet[last] + "=" * pad


class TestOlderLayout:
    def test_root_jsonl_files_open_cold_and_stay_on_disk(self, tmp_path):
        """The store is a cache: a directory in the single-file layout of
        early stores (root results/baselines/tables JSONL) opens as an
        empty store, and those files are neither read nor removed."""
        path = tmp_path / "store"
        path.mkdir()
        result = run(torus_spec())
        record = {
            "key": result.spec.hash(),
            "seed": result.seed,
            "label": result.label,
            "fingerprint": result.fingerprint(),
            "result": result.to_dict(),
        }
        files = {
            "results.jsonl": json.dumps(record, sort_keys=True) + "\n",
            "baselines.jsonl": json.dumps({"key": "g:node:14"}) + "\n",
            "tables.jsonl": json.dumps({"key": "t", "payload": {}}) + "\n",
        }
        for name, text in files.items():
            (path / name).write_text(text)
        store = ResultStore(path)
        assert len(store) == 0
        assert store.get_result(torus_spec()) is None
        assert store.get_table("t") is None
        stats = store.stats()
        assert (stats.results, stats.baselines, stats.tables) == (0, 0, 0)
        for name, text in files.items():
            assert (path / name).read_text() == text

    def test_sharded_layout_opens_cold_and_stays_on_disk(self, tmp_path):
        """A directory in the hash-sharded layout (``engine.json`` plus
        ``<kind>/shard-NN/`` segments with a sidecar ``index.log``) opens
        as an empty store, and none of its files is read or removed."""
        path = tmp_path / "store"
        result = run(torus_spec())
        record = {
            "key": result.spec.hash(),
            "seed": result.seed,
            "label": result.label,
            "fingerprint": result.fingerprint(),
            "result": result.to_dict(),
        }
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        files = {
            "engine.json": '{"shards": {"baselines": 4, "results": 16, "tables": 4}, "version": 1}',
            "results/shard-03/seg-000000.jsonl": line,
            "results/shard-03/index.log": (
                f'#repro-index v1\n"{result.spec.hash()}"\t0\t0\t{len(line)}\t0\n'
            ),
            "results/shard-03/epoch": "2",
            "tables/shard-00/seg-000000.jsonl": '{"key":"t","payload":{}}\n',
        }
        for name, text in files.items():
            (path / name).parent.mkdir(parents=True, exist_ok=True)
            (path / name).write_text(text)
        store = ResultStore(path)
        assert len(store) == 0
        assert store.get_result(torus_spec()) is None
        assert store.get_table("t") is None
        stats = store.stats()
        assert (stats.results, stats.tables, stats.corrupt) == (0, 0, 0)
        store.put_result(result)
        assert ResultStore(path).get_result(torus_spec()) == result
        for name, text in files.items():
            assert (path / name).read_text() == text


class TestBaselineRoundTrip:
    def test_baseline_round_trip(self, store):
        spec = torus_spec()
        key = baseline_key(spec)
        assert store.get_baseline(key) is None
        from repro.api.engine import _baseline_task

        estimate = _baseline_task(spec)
        store.put_baseline(key, estimate)
        restored = ResultStore(store.path).get_baseline(key)
        assert isinstance(restored, ExpansionEstimate)
        assert restored.value == estimate.value
        assert restored.exact == estimate.exact
        assert list(restored.witness) == list(estimate.witness)

    def test_two_stores_that_both_missed_write_one_line(self, tmp_path):
        """Two processes (here two stores) scan the baselines log, both
        miss, both compute and both put: one line lands, so a forced
        compaction finds nothing superseded.  A refresh rebuild still
        replaces the stored line."""
        from repro.api.engine import _baseline_task

        spec = torus_spec()
        key = baseline_key(spec)
        first, second = ResultStore(tmp_path / "s"), ResultStore(tmp_path / "s")
        assert first.get_baseline(key) is None and second.get_baseline(key) is None
        estimate = _baseline_task(spec)
        first.put_baseline(key, estimate)
        second.put_baseline(key, estimate)
        lines = [
            line
            for seg in first.segment_files("baselines")
            for line in seg.read_bytes().splitlines()
        ]
        assert len(lines) == 1
        assert ResultStore(tmp_path / "s").compact(force=True)["superseded"] == 0
        second.put_baseline(key, estimate, replace=True)
        assert ResultStore(tmp_path / "s").stats().superseded == 1


class TestCorruptionTolerance:
    def _fill(self, store, n=4):
        results = [run(torus_spec(seed=s)) for s in range(n)]
        for r in results:
            store.put_result(r)
        return results

    def test_garbage_lines_skipped(self, store):
        results = self._fill(store)
        seg = store.engine.locate("results", results[0].spec.hash())[0]
        with open(seg, "a") as fh:
            fh.write("not json at all\n")
            fh.write('[1, 2, 3]\n')
        reopened = ResultStore(store.path)
        assert len(reopened) == len(results)
        assert reopened.stats().corrupt == 2
        for r in results:
            assert reopened.get_result(r.spec) == r

    def test_parseable_but_bogus_record_dropped_by_compaction(self, store):
        """A line that parses (dict + string key) but holds no usable result
        survives the shallow index scan; compaction's verify pass — the one
        eager integrity sweep — physically drops it."""
        results = self._fill(store)
        store.engine.append_raw(
            "results", "bogus-key", b'{"key": "bogus-key"}\n'
        )
        reopened = ResultStore(store.path)
        assert len(reopened) == len(results) + 1  # shallow count
        counts = reopened.compact(force=True)
        assert counts["corrupt"] == 1
        assert len(reopened) == len(results)
        for r in results:
            assert reopened.get_result(r.spec) == r

    def test_truncated_final_line_tolerated(self, store):
        results = self._fill(store)
        # Truncate mid-way through seed=3's line; every later entry in the
        # log is collateral damage, everything else survives.
        key = torus_spec(seed=3).hash()
        log = store.engine.log("results")
        entry = log.entry(key)
        lost = {k for k in log.keys() if log.entry(k).off >= entry.off}
        seg = store.engine.locate("results", key)[0]
        with open(seg, "r+b") as fh:
            fh.truncate(entry.off + 50)
        reopened = ResultStore(store.path)
        assert len(reopened) == len(results) - len(lost)
        assert reopened.get_result(torus_spec(seed=3)) is None
        for s in range(3):
            present = reopened.get_result(torus_spec(seed=s)) is not None
            assert present == (torus_spec(seed=s).hash() not in lost)
        assert reopened.corrupt_entries == 1

    def _rewrite_record(self, store, key, mutate):
        """Tamper with the single record for ``key`` in place, keeping its
        line's frame (so the scan at open still maps the key to it)."""
        seg, _entry = store.engine.locate("results", key)
        frame_key, ts, text = seg.read_text().split("\t", 2)
        record = json.loads(text)
        mutate(record)
        seg.write_text(f"{frame_key}\t{ts}\t{json.dumps(record)}\n")

    def test_tampered_value_rejected_by_fingerprint(self, store):
        (result,) = self._fill(store, n=1)

        def tamper(record):
            record["result"]["n_surviving"] = 1  # silently wrong payload

        self._rewrite_record(store, result.spec.hash(), tamper)
        reopened = ResultStore(store.path)
        assert reopened.get_result(torus_spec(seed=0)) is None
        assert reopened.corrupt_entries == 1

    def test_wrong_key_rejected(self, store):
        (result,) = self._fill(store, n=1)

        def tamper(record):
            record["key"] = "0" * 16

        self._rewrite_record(store, result.spec.hash(), tamper)
        reopened = ResultStore(store.path)
        # Verification is lazy: the mis-keyed line occupies a map slot
        # until compaction's verify pass removes it, but it is never served.
        assert reopened.get_result(torus_spec(seed=0)) is None
        reopened.compact(force=True)
        assert len(reopened) == 0

    def test_corrupt_baseline_lines_skipped(self, store):
        seg = store.path / "baselines" / "seg-000000.jsonl"
        seg.write_text(
            '"x:node:14"\t1\t{"key": "x:node:14", "estimate": {"bad": true}}\n'
            "garbage\n"
        )
        assert store.get_baseline(("x", "node", 14)) is None
        assert store.corrupt_entries == 2


class TestMaintenance:
    def test_stats(self, store):
        store.put_result(run(torus_spec()))
        stats = store.stats()
        assert stats.results == 1
        assert stats.baselines == 0
        assert stats.bytes > 0
        assert stats.to_dict()["path"] == str(store.path)

    def test_clear(self, store):
        store.put_result(run(torus_spec()))
        store.clear()
        assert len(store) == 0
        assert store.segment_files("results") == []

    def test_prune_compacts_corrupt_and_duplicates(self, store):
        result = run(torus_spec())
        store.put_result(result)
        store.put_result(result)  # superseded duplicate
        seg = store.engine.locate("results", result.spec.hash())[0]
        with open(seg, "a") as fh:
            fh.write("garbage\n")
        reopened = ResultStore(store.path)
        counts = reopened.prune()
        # one superseded duplicate + one corrupt line physically removed
        assert counts == {"kept": 1, "dropped": 2}
        lines = [
            line
            for f in reopened.segment_files("results")
            for line in f.read_text().strip().splitlines()
        ]
        assert len(lines) == 1  # one clean line survives compaction
        assert ResultStore(store.path).get_result(torus_spec()) == result

    def test_prune_preserves_baselines(self, store):
        from repro.api.engine import _baseline_task

        spec = torus_spec()
        store.put_baseline(baseline_key(spec), _baseline_task(spec))
        store.prune()
        assert store.get_baseline(baseline_key(spec)) is not None


class TestRememberedCount:
    """``len()`` of a store whose overlay holds results other processes
    appended (the service's view of its workers' writes)."""

    def test_len_counts_remembered_results_once(self, store):
        store.put_result(run(torus_spec(seed=1)))
        worker = ResultStore(store.path)
        shipped = [run(torus_spec(seed=s)) for s in (2, 3)]
        for result in shipped:
            worker.put_result(result)
            store.remember(result)
            store.remember(result)
        assert len(store) == 3

    def test_len_stays_exact_after_another_process_compacts(self, store):
        indexed = run(torus_spec(seed=1))
        store.put_result(indexed)
        # worker results, which the reload below brings into the server's map
        shipped = [run(torus_spec(seed=seed)) for seed in (2, 3)]
        worker = ResultStore(store.path)
        for result in shipped:
            worker.put_result(result)
            store.remember(result)
        assert len(store) == 1 + len(shipped)

        ResultStore(store.path).prune()  # e.g. `cache prune` on the live store
        assert store.get_result(indexed.spec) == indexed  # epoch moved: reload
        assert len(store) == 1 + len(shipped) == len(ResultStore(store.path))


class TestCrossProcessStability:
    def test_fingerprint_stable_across_processes(self, store):
        """A stored result's fingerprint equals a fresh computation's in a
        brand-new interpreter — the cache-key soundness contract."""
        spec = torus_spec(seed=11)
        result = run(spec)
        store.put_result(result)
        code = (
            "import sys\n"
            "from repro.api.engine import run\n"
            "from repro.api.specs import ScenarioSpec\n"
            "from repro.api.store import ResultStore\n"
            "spec = ScenarioSpec.from_json(sys.argv[1])\n"
            "store = ResultStore(sys.argv[2])\n"
            "print(store.get_result(spec).fingerprint())\n"
            "print(run(spec).fingerprint())\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        proc = subprocess.run(
            [sys.executable, "-c", code, spec.to_json(), str(store.path)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        stored_fp, fresh_fp = proc.stdout.split()
        assert stored_fp == result.fingerprint()
        assert fresh_fp == result.fingerprint()


class TestWriteSafety:
    """Advisory locking, fsync and crash-tail recovery (the service's
    concurrent-store contract)."""

    def test_lock_file_created(self, tmp_path):
        locked = ResultStore(tmp_path / "locked")
        locked.put_table("k", {"v": 1})
        # Appends lock their kind's log: the written log has a lock file.
        assert (locked.path / "tables" / ".lock").exists()

    def test_lock_is_reentrant_through_prune(self, store):
        """prune() holds the lock while calling put_result (which locks
        again) — reentrancy means no self-deadlock."""
        store.put_result(run(torus_spec()))
        store.put_result(run(torus_spec()))
        assert store.prune() == {"kept": 1, "dropped": 1}
        assert not store.lock.held  # fully released afterwards

    def test_maintenance_blocks_until_writer_releases(self, store):
        """stats/prune/clear are safe while a writer holds the lock: the
        read-only stats tolerates the in-flight state, and prune/clear wait
        for the lock instead of racing the writer."""
        import threading

        store.put_table("warm", {"v": 1})
        other = ResultStore(store.path)
        release = threading.Event()
        entered = threading.Event()

        def hold():
            with other.lock:
                entered.set()
                release.wait(5.0)

        t = threading.Thread(target=hold)
        t.start()
        entered.wait(5.0)
        assert store.stats().tables == 1  # read path never blocks
        pruned = {}

        def prune():
            pruned["counts"] = store.prune()

        p = threading.Thread(target=prune)
        p.start()
        p.join(0.2)
        assert p.is_alive()  # prune is parked behind the writer's lock
        release.set()
        p.join(5.0)
        t.join(5.0)
        assert pruned["counts"]["kept"] == 0  # tables aren't results
        assert ResultStore(store.path).stats().tables == 1

    def test_fsync_append_round_trips(self, tmp_path):
        store = ResultStore(tmp_path / "durable", fsync=True)
        result = run(torus_spec())
        store.put_result(result)
        assert ResultStore(store.path).get_result(torus_spec()) == result

    def test_partial_tail_truncated_on_next_open(self, store):
        """A crash-truncated final line is tolerated on load and physically
        truncated, leaving the file all complete lines again."""
        results = [run(torus_spec(seed=s)) for s in range(3)]
        for r in results:
            store.put_result(r)
        seg = store.engine.locate("results", results[0].spec.hash())[0]
        raw = seg.read_text()
        with open(seg, "a") as fh:
            fh.write('{"key": "half-writ')  # no newline: simulated crash
        reopened = ResultStore(store.path)
        assert len(reopened) == 3
        assert reopened.corrupt_entries == 1
        healed = seg.read_text()
        assert healed == raw  # the fragment is physically gone
        assert healed.endswith("\n")

    def test_partial_tail_never_swallows_next_append(self, store):
        store.put_result(run(torus_spec(seed=0)))
        key0 = torus_spec(seed=0).hash()
        seg = store.engine.locate("results", key0)[0]
        with open(seg, "a") as fh:
            fh.write('"k"\t1\t{"key": "half-writ')  # no newline: simulated crash
        reopened = ResultStore(store.path)
        reopened.put_result(run(torus_spec(seed=1)))
        fresh = ResultStore(store.path)
        assert len(fresh) == 2
        assert fresh.stats().corrupt == 0  # fragment was truncated, not kept

    def test_concurrent_appends_never_interleave(self, tmp_path):
        """N processes hammering one store produce only complete lines —
        the advisory-lock guarantee the service's worker pool relies on."""
        store_dir = tmp_path / "shared"
        ResultStore(store_dir)  # create the directory
        code = (
            "import sys\n"
            "from repro.api.store import ResultStore\n"
            "store = ResultStore(sys.argv[1])\n"
            "who = sys.argv[2]\n"
            "pad = 'x' * 4096\n"
            "for i in range(40):\n"
            "    store.put_table(f'{who}:{i}', {'who': who, 'i': i, 'pad': pad})\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code, str(store_dir), f"w{k}"],
                env=env,
            )
            for k in range(4)
        ]
        for p in procs:
            assert p.wait(timeout=120) == 0
        store = ResultStore(store_dir)
        stats = store.stats()
        assert stats.tables == 4 * 40
        assert stats.corrupt == 0
        for k in range(4):
            for i in range(40):
                assert store.get_table(f"w{k}:{i}")["i"] == i
