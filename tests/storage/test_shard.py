"""Record-log invariants: framed lines, the scan at open, segment numbering,
crash recovery, cross-process epoch invalidation."""

import json

import pytest

from repro.storage.log import EPOCH_FILE, RecordLog


def record(key, value="v"):
    return (json.dumps({"key": key, "value": value}) + "\n").encode()


@pytest.fixture
def log(tmp_path):
    return RecordLog(tmp_path / "log")


class TestAppendAndGet:
    def test_round_trip(self, log):
        log.append("a", record("a"))
        assert log.get("a") == record("a")
        assert log.get("missing") is None
        assert len(log) == 1

    def test_last_entry_wins(self, log):
        log.append("a", record("a", "old"))
        superseded = log.append("a", record("a", "new"))
        assert superseded
        assert log.get("a") == record("a", "new")
        assert len(log) == 1
        assert log.superseded_current == 1

    def test_append_many_batches(self, log):
        flags = log.append_many(
            [("a", record("a")), ("b", record("b")), ("a", record("a", "2"))]
        )
        assert flags == [False, False, True]
        assert log.get("a") == record("a", "2")
        assert log.get("b") == record("b")


class TestFrame:
    def test_line_is_key_time_record(self, log):
        log.append("a", record("a"))
        key, ts, rest = log.segment_files()[0].read_bytes().split(b"\t", 2)
        assert json.loads(key) == "a"
        assert int(ts) == log.entry("a").ts
        assert rest == record("a")

    def test_open_decodes_no_record(self, tmp_path):
        log = RecordLog(tmp_path / "s")
        log.append_many([(f"k{i}", record(f"k{i}")) for i in range(20)])
        # a record that is not JSON at all: the scan reads only frames
        log.append("raw", b"not json\n")
        reopened = RecordLog(tmp_path / "s")
        assert len(reopened) == 21
        assert reopened.corrupt_seen == 0
        assert reopened.get("k7") == record("k7")
        assert reopened.get("raw") == b"not json\n"


class TestIndexPersistence:
    """The map is rebuilt from the line frames at every open."""

    def test_tail_scan_picks_up_unindexed_appends(self, tmp_path):
        first = RecordLog(tmp_path / "s")
        first.append("a", record("a"))
        # A framed line written past this writer's map (another process,
        # or a writer killed before it returned).
        with open(first.segment_files()[0], "ab") as fh:
            fh.write(b'"b"\t1\t' + record("b"))
        reopened = RecordLog(tmp_path / "s")
        assert reopened.keys() == ["a", "b"]
        assert reopened.get("b") == record("b")
        assert first.get("b") is None
        first.reload()
        assert first.get("b") == record("b")

    def test_shrunk_segment_triggers_rebuild(self, tmp_path):
        log = RecordLog(tmp_path / "s")
        log.append("a", record("a"))
        log.append("b", record("b"))
        seg = log.segment_files()[0]
        with open(seg, "r+b") as fh:
            fh.truncate(log.entry("a").length)  # "b" vanishes
        reopened = RecordLog(tmp_path / "s")
        assert len(reopened) == 1
        assert reopened.get("a") == record("a")
        assert reopened.get("b") is None
        assert reopened.corrupt_seen == 0

    def test_rebuild_does_not_resurrect_superseded_tail(self, tmp_path):
        # Old and new segments side by side (a compaction killed before
        # its unlink): the superseded copy ending the old segment must not
        # win over the live copy in the higher-numbered one.
        log = RecordLog(tmp_path / "s")
        log.append("a", record("a"))
        log.append("k", record("k", "old"))
        log.append("k", record("k", "new"))
        old = log.segment_files()[0].read_bytes()
        log.compact()
        (tmp_path / "s" / "seg-000000.jsonl").write_bytes(old[: -log.entry("k").length])
        for _ in range(2):  # stays true across further reopens
            reopened = RecordLog(tmp_path / "s")
            assert reopened.get("k") == record("k", "new")
            assert len(reopened) == 2
            assert reopened.superseded_current == 2

    def test_garbage_index_lines_skipped(self, tmp_path):
        log = RecordLog(tmp_path / "s")
        log.append("a", record("a"))
        with open(log.segment_files()[0], "ab") as fh:
            fh.write(b"no frame here\n")
            fh.write(b'"key"\tnot-a-time\t{}\n')
            fh.write(b'["not", "a", "key"]\t1\t{}\n')
        reopened = RecordLog(tmp_path / "s")
        assert len(reopened) == 1
        assert reopened.corrupt_seen == 3
        assert reopened.garbage_lines == 3
        assert reopened.get("a") == record("a")


class TestRotation:
    """Segments turn over only at compaction, to a never-used number."""

    def test_segments_created_counts_files_once(self, tmp_path):
        log = RecordLog(tmp_path / "s")
        for i in range(10):
            log.append(f"k{i}", record(f"k{i}", "x" * 50))
        log.compact()
        log.append("late", record("late"))
        assert len(log.segment_files()) == 1
        assert log.counters.get("segments_created") == 2

    def test_segment_numbers_monotonic_across_compaction(self, tmp_path):
        log = RecordLog(tmp_path / "s")
        for i in range(10):
            log.append(f"k{i}", record(f"k{i}", "x" * 50))
        before = {int(p.stem.split("-")[1]) for p in log.segment_files()}
        log.compact()
        after = {int(p.stem.split("-")[1]) for p in log.segment_files()}
        assert min(after) > max(before)  # numbers are never reused
        log.append("late", record("late"))
        assert {int(p.stem.split("-")[1]) for p in log.segment_files()} == after

    @pytest.mark.parametrize("empty", ["compact", "clear"])
    def test_numbers_survive_a_restart_with_no_segment_left(self, tmp_path, empty):
        """A compaction that kept nothing, or a clear, leaves no segment
        file; a fresh open must still append above every number used."""
        used = set()
        for round_ in range(3):
            log = RecordLog(tmp_path / "s")  # a fresh process, in spirit
            log.append(f"k{round_}", record(f"k{round_}"))
            (seg,) = log.segment_files()
            number = int(seg.stem.split("-")[1])
            assert number > max(used, default=-1)
            used.add(number)
            if empty == "compact":
                assert log.compact(max_age_s=-1)["evicted"] == 1
            else:
                log.clear()
            assert log.segment_files() == []


class TestEpochInvalidation:
    def test_stale_writer_reloads_after_foreign_compaction(self, tmp_path):
        writer = RecordLog(tmp_path / "s")
        writer.append("a", record("a", "old"))
        # A second handle (another process, in spirit) compacts the log:
        # old segments are deleted and the epoch bumped.
        other = RecordLog(tmp_path / "s")
        other.append("a", record("a", "new"))
        other.compact()
        # The stale writer's next append must not touch the dead segment.
        writer.append("b", record("b"))
        fresh = RecordLog(tmp_path / "s")
        assert fresh.get("a") == record("a", "new")
        assert fresh.get("b") == record("b")
        assert len(fresh) == 2
        assert len(fresh.segment_files()) == 1

    def test_reader_retries_after_foreign_compaction(self, tmp_path):
        reader = RecordLog(tmp_path / "s")
        reader.append("a", record("a"))
        assert reader.get("a") == record("a")  # caches the segment fd
        other = RecordLog(tmp_path / "s")
        other.append("a", record("a", "2"))
        other.compact()
        reader_fresh = RecordLog(tmp_path / "s")
        assert reader_fresh.get("a") == record("a", "2")
        # The original reader notices the deleted segment and reloads.
        assert reader.get("a") == record("a", "2")

    def test_epoch_file_written_by_compaction(self, tmp_path):
        log = RecordLog(tmp_path / "s")
        log.append("a", record("a"))
        assert not (log.path / EPOCH_FILE).exists()
        log.compact()
        assert int((log.path / EPOCH_FILE).read_text()) >= 1


class TestCorruptionAccounting:
    def test_torn_tail_healed_and_counted(self, tmp_path):
        log = RecordLog(tmp_path / "s")
        log.append("a", record("a"))
        seg = log.segment_files()[0]
        whole = seg.read_bytes()
        with open(seg, "ab") as fh:
            fh.write(b'"b"\t1\t{"key": "half')
        reopened = RecordLog(tmp_path / "s")
        assert len(reopened) == 1
        assert reopened.corrupt_seen == 1
        assert seg.read_bytes() == whole  # fragment physically gone

    def test_torn_tail_healed_before_next_append(self, tmp_path):
        # A long-lived writer whose map predates another writer's crash
        # must not glue its next line onto the crashed writer's fragment.
        writer = RecordLog(tmp_path / "s")
        writer.append("a", record("a"))
        with open(writer.segment_files()[0], "ab") as fh:
            fh.write(b'"x"\t1\t{"key": "x", "half')
        writer.append("b", record("b"))
        assert writer.corrupt_seen == 1
        fresh = RecordLog(tmp_path / "s")
        assert fresh.keys() == ["a", "b"]
        assert fresh.get("b") == record("b")
        assert fresh.corrupt_seen == 0

    def test_garbage_ratio(self, log):
        log.append("a", record("a"))
        assert log.garbage_ratio == 0.0
        log.append("a", record("a", "2"))
        assert log.garbage_ratio == pytest.approx(0.5)
        log.compact()
        assert log.garbage_ratio == 0.0

    def test_discard_counts_corrupt_not_superseded(self, log):
        log.append("a", record("a"))
        log.discard("a")
        assert len(log) == 0
        assert log.corrupt_seen == 1
        assert log.superseded_current == 0

    def test_reload_does_not_count_resident_corrupt_twice(self, tmp_path):
        log = RecordLog(tmp_path / "s")
        log.append("a", record("a"))
        with open(log.segment_files()[0], "ab") as fh:
            fh.write(b"garbage\n")
        reopened = RecordLog(tmp_path / "s")
        assert len(reopened) == 1
        assert reopened.corrupt_seen == 1
        RecordLog(tmp_path / "s").append("b", record("b"))
        (tmp_path / "s" / EPOCH_FILE).write_text("7")  # force a rescan
        assert reopened.get("b") == record("b")
        assert reopened.corrupt_seen == 1
