"""Tests for the pipelined ingest path: group commit, background
maintenance, snapshot-isolated reads.

The acceptance properties of the subsystem:

* **group-commit durability** — a batch of concurrent appends
  acknowledged by one shared fsync replays in full, and a torn tail
  inside a group-committed blob drops only the torn record(s), never an
  acknowledged prefix written by an earlier group;
* **kill-9 during background compaction** — a process SIGKILLed at
  each crash window of a background merge of an archive spanning all
  three storage tiers (merged segment written, manifest switched, first
  input removed) reopens on that side of the switch with every record
  reachable;
* **racing bit-identity** — queries running concurrently with
  background seal + compaction return, for any generated workload,
  exactly the records of a quiesced run (hypothesis-pinned);
* **backpressure** — once unsealed rows outrun the background seal,
  ``add`` sheds with the retryable :class:`IngestBackpressure` instead
  of stalling, and recovers after the worker catches up;
* **one write path** — an index whose seals and compactions run on the
  maintenance worker ends byte for byte where the same adds leave an
  index maintained inline (hypothesis-pinned).
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distortion.model import NormalDistortionModel
from repro.errors import IngestBackpressure
from repro.index.segmented import (
    CompactionPolicy,
    SegmentedS3Index,
    WriteAheadLog,
    replay,
    sketch_filename,
)
from repro.index.segmented import wal as wal_module

NDIMS = 8
SIGMA = 10.0
EXAMPLES = int(os.environ.get("PROPERTY_EXAMPLES", "8"))


def make_records(n, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.integers(40, 216, size=(max(n // 100, 4), NDIMS))
    assign = rng.integers(0, centers.shape[0], size=n)
    fp = np.clip(
        centers[assign] + rng.normal(0, 10, (n, NDIMS)), 0, 255
    ).astype(np.uint8)
    ids = rng.integers(0, 50, n).astype(np.uint32)
    tcs = rng.uniform(0, 500, n)
    return fp, ids, tcs


def result_key(result):
    return sorted(zip(
        result.ids.tolist(),
        result.timecodes.tolist(),
        [tuple(fp) for fp in result.fingerprints.tolist()],
    ))


# ----------------------------------------------------------------------
class TestGroupCommitDurability:
    def concurrent_append(self, wal, threads=6, appends=4, rows=3):
        """Drive overlapping appends so real groups form."""
        barrier = threading.Barrier(threads)
        errors = []

        def writer(t):
            barrier.wait()
            try:
                for a in range(appends):
                    fp, ids, tcs = make_records(rows, seed=100 * t + a)
                    wal.append(fp, ids, tcs)
            except BaseException as exc:  # pragma: no cover - surfaced
                errors.append(exc)

        ts = [
            threading.Thread(target=writer, args=(t,))
            for t in range(threads)
        ]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert not errors

    def test_group_commit_replays_in_full(self, tmp_path, monkeypatch):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path, NDIMS, durability="group")
        # A slow fsync keeps each leader flushing long enough for the
        # other writers to stage behind it, so groups must form.
        real_fsync = wal_module.os.fsync

        def slow_fsync(fd):
            time.sleep(0.01)
            real_fsync(fd)

        monkeypatch.setattr(wal_module.os, "fsync", slow_fsync)
        self.concurrent_append(wal)
        stats = wal.stats()
        wal.close()
        # Coalescing actually happened: fewer fsyncs than appends.
        assert 0 < stats["group_commits"] < stats["appends"]
        assert stats["records"] == 6 * 4 * 3
        replayed = sum(fp.shape[0] for fp, _, _ in replay(path))
        assert replayed == 6 * 4 * 3

    def test_torn_tail_inside_group_batch(self, tmp_path):
        """Tearing mid-record drops only the torn suffix of the blob.

        A group commit writes several records as one blob; a crash can
        tear anywhere inside it.  Every fully-written record of the
        blob must still replay — the recovery unit is the record, not
        the fsync batch.
        """
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path, NDIMS, durability="group")
        self.concurrent_append(wal)
        total = wal.stats()["records"]
        wal.close()
        size = path.stat().st_size
        # Tear 5 bytes off: mid-way through the last record's payload.
        with open(path, "r+b") as fh:
            fh.truncate(size - 5)
        replayed = sum(fp.shape[0] for fp, _, _ in replay(path))
        assert replayed == total - 3  # one 3-row record torn away
        # open() truncates the torn tail and appending resumes cleanly.
        wal = WriteAheadLog.open(path, durability="group")
        wal.append(*make_records(3, seed=999))
        wal.close()
        replayed = sum(fp.shape[0] for fp, _, _ in replay(path))
        assert replayed == total  # recovered prefix + new record

    def test_group_failure_never_acknowledges_followers(self, tmp_path):
        """A follower staged behind a failed leader flush must raise."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog.create(path, NDIMS, durability="group")
        wal.append(*make_records(2, seed=0))
        # Sever the file handle: the next flush must fail loudly for
        # every append staged into that group, leader and followers.
        wal._fh.close()
        with pytest.raises(ValueError):
            wal.append(*make_records(2, seed=1))


# ----------------------------------------------------------------------
COMPACT_CRASH_SCRIPT = r"""
import os, signal, sys
from pathlib import Path
import numpy as np
sys.path.insert(0, {src!r})
from repro.distortion.model import NormalDistortionModel
from repro.index.segmented import CompactionPolicy, SegmentedS3Index
from repro.index.segmented.manifest import Manifest
from repro.storage import StorageConfig

sys.path.insert(0, {here!r})
from test_ingest_pipeline import make_records, NDIMS, SIGMA

directory = {directory!r}
durability = {durability!r}
index = SegmentedS3Index.create(
    directory, ndims=NDIMS, model=NormalDistortionModel(NDIMS, SIGMA),
    flush_rows=10 ** 9, auto_compact=False,
    policy=CompactionPolicy(max_segments=2),
    storage=StorageConfig(cold_dir="cold"), durability=durability,
)
for i in range(2):
    index.add(*make_records(150, seed=i))
    index.flush()
index.close()

# Reopen mmapped (segments come back warm), add a hot one, demote one
# cold: the archive spans all three tiers.  The policy is per-open, so
# the reopen names it again; without it the default cap of 8 plans
# nothing for 3 segments and the worker would merge nothing.
index = SegmentedS3Index.open(
    directory, mmap=True, durability=durability,
    policy=CompactionPolicy(max_segments=2), auto_compact=False,
)
index.add(*make_records(150, seed=2))
index.flush()
index.storage.demote(index._segments[0])
tiers = sorted(s.meta.tier for s in index._segments)
assert tiers == ["cold", "hot", "warm"], tiers
index.add(*make_records(40, seed=3))            # WAL only, never sealed

# Die right after the named step of the merge: patched here, in the
# child only.
def die():
    os.kill(os.getpid(), signal.SIGKILL)

step = {step!r}
if step == "written":
    write = index._write_segment
    def write_then_die(*args):
        write(*args)
        die()
    index._write_segment = write_then_die
elif step == "saved":
    save = Manifest.save
    def save_then_die(self, *args):
        save(self, *args)
        die()
    Manifest.save = save_then_die
else:
    unlink = Path.unlink
    def unlink_then_die(self, *args, **kwargs):
        existed = self.exists()
        unlink(self, *args, **kwargs)
        if existed and self.suffix == ".store":
            die()
    Path.unlink = unlink_then_die

# Only a planned merge makes the kill land on one.
if index.policy.plan([s.meta.count for s in index._segments]):
    print("READY", *[s.meta.name for s in index._segments], flush=True)
    worker = index.start_maintenance()
    worker.request_compact()
    worker.drain()
    sys.exit(3)  # the merge finished without reaching the step
"""


class TestKill9DuringBackgroundCompaction:
    @pytest.mark.parametrize("step", ["written", "saved", "unlinked"])
    @pytest.mark.parametrize("durability", ["always", "group"])
    def test_recovery_with_all_tiers(self, tmp_path, durability, step):
        """SIGKILL at each crash window of the background merge.

        The child kills itself right after a named step of the merge:

        * ``written`` — ``_write_segment`` returned: the merged segment
          is fsynced, the manifest not yet switched;
        * ``saved`` — the switched manifest is saved;
        * ``unlinked`` — the first input ``.store`` file is removed.

        Every point must reopen with all 490 records reachable (the
        merge writes and fsyncs the new segment before the manifest
        references it, and deletes inputs only after), on the side of
        the switch the step is on.  The group case acknowledges every
        append through a shared group fsync; those rows must replay
        just the same.
        """
        directory = tmp_path / "idx"
        script = COMPACT_CRASH_SCRIPT.format(
            src=str(Path(__file__).resolve().parents[2] / "src"),
            here=str(Path(__file__).resolve().parent),
            directory=str(directory),
            step=step,
            durability=durability,
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
        )
        assert "READY" in proc.stdout, proc.stderr
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        before = proc.stdout.split("READY", 1)[1].split()

        reopened = SegmentedS3Index.open(directory, durability=durability)
        assert reopened.ingest_info()["durability"] == durability
        assert len(reopened) == 3 * 150 + 40
        assert reopened.pending_rows == 40  # WAL replayed
        names = [s.name for s in reopened.segments]
        if step == "written":
            assert names == before  # the merge never happened
        else:
            # The merged segment replaced the two oldest inputs.
            assert len(names) == 2 and names[1] == before[2]
            assert names[0] not in before
        # Every batch is reachable wherever the merge died.
        for seed in range(4):
            fp = make_records(150 if seed < 3 else 40, seed=seed)[0]
            for row in (0, 7):
                result = reopened.range_query(
                    fp[row].astype(np.float64), 0.0
                )
                assert len(result) >= 1
        reopened.close()


# ----------------------------------------------------------------------
class TestRacingBitIdentity:
    @settings(deadline=None, max_examples=EXAMPLES)
    @given(
        batches=st.lists(st.integers(30, 90), min_size=3, max_size=6),
        tail=st.integers(0, 40),
        seed=st.integers(0, 2 ** 16),
    )
    def test_queries_racing_seal_and_compaction(
        self, tmp_path_factory, batches, tail, seed
    ):
        """Any workload, same answers with and without the storm.

        An index of several sealed segments plus an optional memtable
        tail answers a query set twice: quiesced, then while the
        maintenance worker seals the tail and merges the over-cap
        segment set.  The storm only reorganises rows, so both passes
        must return identical record multisets.
        """
        directory = tmp_path_factory.mktemp("race") / "idx"
        index = SegmentedS3Index.create(
            directory, ndims=NDIMS,
            model=NormalDistortionModel(NDIMS, SIGMA),
            flush_rows=10 ** 9, auto_compact=False,
            policy=CompactionPolicy(max_segments=2), durability="async",
        )
        try:
            for i, n in enumerate(batches):
                index.add(*make_records(n, seed=seed + i))
                index.flush()
            if tail:
                index.add(*make_records(tail, seed=seed + 99))

            rng = np.random.default_rng(seed)
            all_fp = np.concatenate(
                [make_records(n, seed=seed + i)[0]
                 for i, n in enumerate(batches)]
            )
            picks = rng.integers(0, all_fp.shape[0], size=6)
            queries = np.clip(
                all_fp[picks].astype(np.float64)
                + rng.normal(0, SIGMA, (6, NDIMS)),
                0, 255,
            )

            def solo(q):
                return result_key(index.statistical_query(q, alpha=0.8))

            quiesced = [solo(q) for q in queries]
            worker = index.start_maintenance()
            worker.request_seal()
            worker.request_compact()
            for sweep in range(3):
                for q, expected in zip(queries, quiesced):
                    assert solo(q) == expected
            assert worker.drain()
            assert worker.errors == 0
            # The reorganisation really ran and converged to the cap.
            assert index.num_segments <= 2
            for q, expected in zip(queries, quiesced):
                assert solo(q) == expected
        finally:
            index.close()


# ----------------------------------------------------------------------
class TestBackpressure:
    def test_shed_past_limit_then_recover(self, tmp_path):
        # The limit is 4 * flush_rows = 120 unsealed rows.  Holding the
        # maintenance lock keeps the requested seals from running, so
        # the limit is hit deterministically, however fast the worker.
        index = SegmentedS3Index.create(
            tmp_path / "idx", ndims=NDIMS,
            model=NormalDistortionModel(NDIMS, SIGMA),
            flush_rows=30, auto_compact=False, durability="async",
        )
        try:
            worker = index.start_maintenance()
            with index._maint_lock:
                for i in range(12):
                    index.add(*make_records(10, seed=i))
                with pytest.raises(IngestBackpressure) as exc:
                    index.add(*make_records(10, seed=12))
            # The refusal carries the gauge and is marked retryable.
            assert exc.value.pending_rows == 120
            assert index.ingest_info()["backpressure_sheds"] == 1
            # Once the worker drains, ingest resumes and loses nothing.
            assert worker.drain()
            before = len(index)
            index.add(*make_records(10, seed=1000))
            assert len(index) == before + 10
        finally:
            index.close()

    def test_no_worker_no_shedding(self, tmp_path):
        """Without maintenance the inline seal applies, never a shed."""
        index = SegmentedS3Index.create(
            tmp_path / "idx", ndims=NDIMS,
            model=NormalDistortionModel(NDIMS, SIGMA),
            flush_rows=20, auto_compact=False, durability="async",
        )
        try:
            for i in range(30):
                index.add(*make_records(10, seed=i))
            assert index.ingest_info()["backpressure_sheds"] == 0
            assert len(index) == 300
        finally:
            index.close()


# ----------------------------------------------------------------------
class TestLazyMemtableKeys:
    def test_scan_equals_eager_rebuild(self, tmp_path):
        """Deferred key encoding is invisible to query results."""
        index = SegmentedS3Index.create(
            tmp_path / "idx", ndims=NDIMS,
            model=NormalDistortionModel(NDIMS, SIGMA),
            flush_rows=10 ** 9, auto_compact=False, durability="async",
        )
        try:
            fp, ids, tcs = make_records(200, seed=3)
            # Interleave adds and queries so the key cache is filled
            # incrementally, across several backfill calls.
            for lo in range(0, 200, 50):
                index.add(fp[lo:lo + 50], ids[lo:lo + 50], tcs[lo:lo + 50])
                index.statistical_query(fp[lo].astype(np.float64), 0.8)
            # Equivalence against an index whose memtable was built in
            # one shot (its keys come from a single encode call).
            fresh = SegmentedS3Index.create(
                tmp_path / "fresh", ndims=NDIMS,
                model=NormalDistortionModel(NDIMS, SIGMA),
                flush_rows=10 ** 9, auto_compact=False, durability="async",
            )
            try:
                fresh.add(fp, ids, tcs)
                for row in (0, 13, 77, 199):
                    q = fp[row].astype(np.float64)
                    assert result_key(
                        index.statistical_query(q, alpha=0.8)
                    ) == result_key(fresh.statistical_query(q, alpha=0.8))
            finally:
                fresh.close()
        finally:
            index.close()


# ----------------------------------------------------------------------
def _segment_files(index):
    """Bytes of every segment store and sketch, by file name."""
    names = [seg.name for seg in index.segments]
    return {
        fname: (index.directory / fname).read_bytes()
        for name in names
        for fname in (name + ".store", sketch_filename(name))
    }


class TestOneWritePath:
    @settings(deadline=None, max_examples=EXAMPLES)
    @given(
        batches=st.lists(st.integers(1, 120), min_size=1, max_size=12),
        flush_rows=st.integers(10, 150),
        max_segments=st.integers(1, 5),
        auto_compact=st.booleans(),
        seed=st.integers(0, 2 ** 16),
    )
    def test_background_maintenance_is_flush_on_another_thread(
        self, tmp_path_factory, batches, flush_rows, max_segments,
        auto_compact, seed,
    ):
        """The worker runs flush()/compact(); nothing else differs.

        The same adds drive one index inline and one through the
        maintenance worker (drained after every add), then one policy
        compaction each.  Both end with the same manifest segment list,
        byte-identical segment stores and sketches, and the same answers.
        """
        root = tmp_path_factory.mktemp("one-path")
        indexes = [
            SegmentedS3Index.create(
                root / kind, ndims=NDIMS,
                model=NormalDistortionModel(NDIMS, SIGMA),
                flush_rows=flush_rows, auto_compact=auto_compact,
                policy=CompactionPolicy(max_segments=max_segments),
                durability="async",
            )
            for kind in ("inline", "worker")
        ]
        inline, background = indexes
        try:
            worker = background.start_maintenance()
            for i, n in enumerate(batches):
                records = make_records(n, seed=seed + i)
                inline.add(*records)
                background.add(*records)
                assert worker.drain()
            inline.compact()
            worker.request_compact()
            assert worker.drain()
            assert worker.errors == 0, worker.last_error
            assert background.segments == inline.segments
            assert _segment_files(background) == _segment_files(inline)
            assert background.pending_rows == inline.pending_rows
            rng = np.random.default_rng(seed)
            queries = rng.uniform(0, 255, (4, NDIMS))
            for q in queries:
                got = background.statistical_query(q, alpha=0.8)
                want = inline.statistical_query(q, alpha=0.8)
                assert np.array_equal(got.rows, want.rows)
                assert result_key(got) == result_key(want)
        finally:
            for index in indexes:
                index.close()
