"""Tests for the stateful stream monitor."""

import numpy as np
import pytest

from repro.cbcd.detector import CopyDetector, DetectorConfig
from repro.cbcd.monitor import MonitorConfig, StreamMonitor
from repro.cbcd.voting import vote
from repro.corpus.builder import build_reference_corpus
from repro.corpus.filler import scale_store
from repro.distortion.model import NormalDistortionModel
from repro.errors import ConfigurationError
from repro.index.s3 import S3Index
from repro.video.synthetic import generate_corpus


@pytest.fixture(scope="module")
def setup():
    corpus = build_reference_corpus(num_videos=5, frames_per_video=140, seed=5)
    store = scale_store(corpus.store, 12_000, rng=5)
    index = S3Index(store, model=NormalDistortionModel(20, 20.0), depth=20)
    return corpus, index


def make_monitor(index, **overrides):
    defaults = dict(
        alpha=0.8, window_frames=60, hop_frames=30,
        buffer_keyframes=64, decision_threshold=12,
    )
    defaults.update(overrides)
    return StreamMonitor(index, MonitorConfig(**defaults))


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            MonitorConfig(alpha=0.0)
        with pytest.raises(ConfigurationError):
            MonitorConfig(window_frames=4)
        with pytest.raises(ConfigurationError):
            MonitorConfig(hop_frames=0)
        with pytest.raises(ConfigurationError):
            MonitorConfig(hop_frames=100, window_frames=80)
        with pytest.raises(ConfigurationError):
            MonitorConfig(buffer_keyframes=1)
        with pytest.raises(ConfigurationError):
            MonitorConfig(ingest_video_id=-1)
        with pytest.raises(ConfigurationError):
            MonitorConfig(ingest_match_threshold=-1)


class TestFeeding:
    def test_rejects_bad_shapes(self, setup):
        _, index = setup
        monitor = make_monitor(index)
        with pytest.raises(ConfigurationError):
            monitor.feed(np.zeros((4, 4), dtype=np.uint8))

    def test_rejects_geometry_change(self, setup):
        corpus, index = setup
        monitor = make_monitor(index)
        monitor.feed(corpus.clips[0].frames[:10])
        with pytest.raises(ConfigurationError):
            monitor.feed(np.zeros((5, 10, 10), dtype=np.uint8))

    def test_frames_seen_accumulates(self, setup):
        corpus, index = setup
        monitor = make_monitor(index)
        monitor.feed(corpus.clips[0].frames[:25])
        monitor.feed(corpus.clips[0].frames[25:40])
        assert monitor.frames_seen == 40

    def test_no_analysis_before_first_window(self, setup):
        corpus, index = setup
        monitor = make_monitor(index, window_frames=60)
        out = monitor.feed(corpus.clips[0].frames[:59])
        assert out == []

    def test_internal_buffer_is_trimmed(self, setup):
        corpus, index = setup
        monitor = make_monitor(index)
        stream = np.concatenate([c.frames for c in corpus.clips[:3]])
        monitor.feed(stream)
        # The retained frame buffer stays bounded by ~window+hop frames.
        assert monitor._frames.shape[0] <= 2 * monitor.config.window_frames


class TestDetection:
    def test_detects_copy_in_stream(self, setup):
        corpus, index = setup
        foreign = generate_corpus(2, 70, seed=909)
        copy_clip, truth = corpus.candidate(2, 30, 90)
        stream = np.concatenate(
            [foreign[0].frames, copy_clip.frames, foreign[1].frames]
        )
        monitor = make_monitor(index)
        detections = monitor.feed(stream)
        ids = {d.video_id for d in detections}
        assert truth.video_id in ids
        hit = next(d for d in detections if d.video_id == truth.video_id)
        # Stream-time alignment: the copy starts at frame 70 of the stream
        # and at frame 30 of programme 2, so tc' = tc - 30 + 70.
        assert hit.stream_offset == pytest.approx(40.0, abs=3.0)

    def test_detection_reported_once(self, setup):
        corpus, index = setup
        copy_clip, truth = corpus.candidate(1, 20, 120)
        monitor = make_monitor(index)
        all_detections = []
        # Feed in dribbles of 16 frames; the copy spans many windows.
        frames = copy_clip.frames
        for start in range(0, frames.shape[0], 16):
            all_detections.extend(monitor.feed(frames[start:start + 16]))
        mine = [d for d in all_detections if d.video_id == truth.video_id]
        assert len(mine) == 1  # de-duplicated across windows

    def test_chunking_invariance(self, setup):
        """Feeding one big chunk or many small ones yields the same
        detections (same ids and offsets)."""
        corpus, index = setup
        foreign = generate_corpus(1, 50, seed=31)
        copy_clip, _ = corpus.candidate(4, 10, 80)
        stream = np.concatenate([foreign[0].frames, copy_clip.frames])

        big = make_monitor(index)
        got_big = big.feed(stream)

        small = make_monitor(index)
        got_small = []
        for start in range(0, stream.shape[0], 7):
            got_small.extend(small.feed(stream[start:start + 7]))

        def key(d):
            return (d.video_id, round(d.stream_offset, 1))

        assert sorted(map(key, got_big)) == sorted(map(key, got_small))

    def test_overlapping_windows_vote_each_keyframe_once(self, setup):
        """A key-frame seen by two overlapping windows enters the vote
        buffer from one of them only, so the monitor's count of a planted
        copy never exceeds the offline detector's over the same frames."""
        corpus, index = setup
        copy_clip, truth = corpus.candidate(1, 20, 120)

        class Recording(StreamMonitor):
            def _analyse(self, window_start):
                before = len(self._matches)
                out = super()._analyse(window_start)
                self.voted.append(
                    {entry[0] for entry in list(self._matches)[before:]}
                )
                return out

        monitor = Recording(index, MonitorConfig(
            alpha=0.8, window_frames=60, hop_frames=30,
            buffer_keyframes=100_000, decision_threshold=12,
        ))
        monitor.voted = []
        monitor.feed(copy_clip.frames)
        assert len(monitor.voted) >= 3
        timecodes = [tc for window in monitor.voted for tc in window]
        assert timecodes
        assert len(timecodes) == len(set(timecodes))

        cfg = monitor.config
        streamed = {v.video_id: v.nsim for v in vote(monitor._matches)}
        offline = CopyDetector(
            index, DetectorConfig(alpha=cfg.alpha, decision_threshold=1)
        ).detect_clip(copy_clip)
        counted = {v.video_id: v.nsim for v in offline.votes}
        assert 0 < streamed[truth.video_id] <= counted[truth.video_id]

    def test_clean_stream_stays_quiet(self, setup):
        _, index = setup
        foreign = generate_corpus(2, 80, seed=555)
        stream = np.concatenate([c.frames for c in foreign])
        monitor = make_monitor(index, decision_threshold=25)
        assert monitor.feed(stream) == []


class TestOnlineIngestion:
    def make_live_index(self, directory):
        from repro.index.segmented import SegmentedS3Index

        return SegmentedS3Index.create(
            directory, ndims=20, depth=20,
            model=NormalDistortionModel(20, 20.0),
            flush_rows=100_000, auto_compact=False, durability="async",
        )

    def test_ingest_new_requires_mutable_index(self, setup):
        _, index = setup
        with pytest.raises(ConfigurationError, match="ingest_new"):
            StreamMonitor(index, MonitorConfig(ingest_new=True))

    def test_unmatched_material_is_referenced(self, setup, tmp_path):
        corpus, _ = setup
        with self.make_live_index(tmp_path / "live") as index:
            store = corpus.store
            index.add(store.fingerprints, store.ids, store.timecodes)
            before = len(index)
            monitor = make_monitor(index, ingest_new=True,
                                   ingest_video_id=777)
            novel = generate_corpus(1, 160, seed=60_001)[0]
            monitor.feed(novel.frames)
            assert monitor.ingested_rows > 0
            assert len(index) == before + monitor.ingested_rows

    def test_overlapping_windows_ingest_once(self, setup, tmp_path):
        """The ingest horizon stops overlapping analysis windows from
        referencing the same stream time twice."""
        corpus, _ = setup
        with self.make_live_index(tmp_path / "live") as index:
            store = corpus.store
            index.add(store.fingerprints, store.ids, store.timecodes)
            monitor = make_monitor(index, ingest_new=True,
                                   ingest_video_id=777)
            novel = generate_corpus(1, 200, seed=60_002)[0]
            monitor.feed(novel.frames)
            # Several local fingerprints legitimately share a key-frame
            # timecode, but no (fingerprint, timecode) pair may be
            # referenced twice by overlapping windows.
            ingested = [
                (tuple(fp), tc) for fp, vid, tc in (
                    index.record(row) for row in range(len(index))
                ) if vid == 777
            ]
            assert ingested
            assert len(ingested) == len(set(ingested))

    def test_rebroadcast_of_ingested_material_is_detected(
        self, setup, tmp_path
    ):
        corpus, _ = setup
        with self.make_live_index(tmp_path / "live") as index:
            store = corpus.store
            index.add(store.fingerprints, store.ids, store.timecodes)
            monitor = make_monitor(
                index, decision_threshold=20,
                ingest_new=True, ingest_video_id=777,
                ingest_match_threshold=4,
            )
            novel = generate_corpus(1, 120, seed=60_003)[0]
            filler = generate_corpus(2, 80, seed=60_004)
            stream = np.concatenate([
                filler[0].frames, novel.frames,     # first airing
                filler[1].frames, novel.frames,     # re-broadcast
            ])
            detections = monitor.feed(stream)
            assert 777 in {d.video_id for d in detections}

    def test_static_monitor_does_not_ingest(self, setup):
        corpus, index = setup
        monitor = make_monitor(index)  # ingest_new defaults to False
        novel = generate_corpus(1, 120, seed=60_005)[0]
        monitor.feed(novel.frames)
        assert monitor.ingested_rows == 0
