"""``clip_detect`` — frames in, copy verdict out (paper §III–IV).

Why it exists: this is the paper's real unit of work.  Extraction and
the Tukey vote do almost all of it and the index scan almost none, so a
change to ``fingerprint`` or ``cbcd`` moves this workload and a change
to the scan engine should not.
"""

from __future__ import annotations

import time

import numpy as np

from harness import READ, ClientOp
from spans import Recorder
from workloads.base import (
    STREAM_CLIPS,
    STREAM_FILLER,
    Check,
    State,
    Workload,
    reference_corpus,
    stream,
    timed,
)

from repro.cbcd.detector import CopyDetector, DetectorConfig
from repro.cbcd.voting import QueryMatches, vote
from repro.corpus import scale_store
from repro.distortion.model import NormalDistortionModel
from repro.errors import ExtractionError
from repro.fingerprint.descriptor import DescriptorExtractor
from repro.fingerprint.harris import detect_interest_points
from repro.fingerprint.motion import detect_keyframes
from repro.hilbert.vectorized import encode_batch
from repro.index.batch import BatchQueryExecutor
from repro.index.options import QueryOptions
from repro.index.s3 import S3Index
from repro.video.synthetic import generate_clip
from repro.video.transforms import (
    Contrast,
    Gamma,
    GaussianNoise,
    LogoInsertion,
    Resize,
    VerticalShift,
)

#: Clips compared, stage by stage, against the single public call.
TRACE_EQUALITY_SAMPLE = 6
#: Verdict slot of a clip no operation has reached yet.
_UNSEEN = object()


def _transforms(seed: int) -> list:
    return [
        Resize(0.9),
        VerticalShift(0.05),
        Gamma(1.3),
        Contrast(1.2),
        GaussianNoise(5.0, seed=stream(seed, STREAM_CLIPS, lane=1)),
        LogoInsertion(),
    ]


def _verdict(report) -> tuple | None:
    """What the caller acts on: the strongest detection, if any."""
    best = report.best() if report is not None else None
    if best is None:
        return None
    return (best.video_id, best.offset, best.nsim)


class ClipDetect(Workload):
    name = "clip_detect"
    op = "CopyDetector.detect_clip(one 32-frame candidate clip)"

    def sizes(self, smoke: bool) -> dict:
        return {
            "programmes": 8,
            "frames_per_programme": 120,
            "rows": 1_000 if smoke else 8_000,
            "clip_frames": 32,
            # 72 copies + 24 unrelated clips, each met about once per
            # window: the latency percentiles are over that many
            # different clips, which is what keeps them steady from seed
            # to seed.
            "copies_per_programme": 2 if smoke else 9,
            "non_copies": 4 if smoke else 24,
            "sigma": 6.0,
            "depth": 16,
            "alpha": 0.8,
            "decision_threshold": 8,
            "quality_floor": 0.7,
        }

    # ------------------------------------------------------------------
    def generate(self, seed: int, sizes: dict, layer: dict) -> dict:
        with timed(layer, "corpus.build_s"):
            corpus = reference_corpus(sizes)
            store = scale_store(
                corpus.store, sizes["rows"], rng=stream(seed, STREAM_FILLER)
            )
        clip_rng = stream(seed, STREAM_CLIPS)
        transforms = _transforms(seed)
        clips, truths = [], []
        spent: dict = {}
        # A stratified draw: every programme gives the same number of
        # clips, one from each equal stretch of its length.  Programmes
        # differ 2.5x in work per clip, so a free draw (3 to 16 clips of a
        # programme in a pool of 72) moved the work per clip by 8 % from
        # seed to seed before the program under test changed at all.
        edges = np.linspace(
            0, sizes["frames_per_programme"] - sizes["clip_frames"] + 1,
            sizes["copies_per_programme"] + 1,
        )
        cuts = [
            corpus.candidate(
                vid, int(clip_rng.uniform(lo, hi)), sizes["clip_frames"]
            )
            for vid in range(corpus.num_videos)
            for lo, hi in zip(edges, edges[1:])
        ]
        for i, (clip, truth) in enumerate(cuts):
            with timed(spent, "transform"):
                clips.append(transforms[i % len(transforms)].apply_clip(clip))
            truths.append((truth.video_id, truth.start_frame))
        layer["video.transform_ms_per_clip"] = (
            spent["transform"] / len(cuts) * 1e3
        )
        for clip_seed in clip_rng.integers(0, 2**62, sizes["non_copies"]):
            clips.append(generate_clip(sizes["clip_frames"], seed=int(clip_seed)))
            truths.append(None)
        # Copies and non-copies interleave so any prefix of the cycle
        # holds both kinds.
        order = stream(seed, STREAM_CLIPS, lane=2).permutation(len(clips))
        return {
            "store": store,
            "clips": [clips[i] for i in order],
            "truths": [truths[i] for i in order],
        }

    def build(self, state: State) -> None:
        sizes, inputs = state.sizes, state.inputs
        model = NormalDistortionModel(inputs["store"].ndims, sizes["sigma"])
        with timed(state.layer, "index.build_s"):
            index = S3Index(inputs["store"], model=model, depth=sizes["depth"])
        points = inputs["store"].fingerprints[:20_000]
        start = time.perf_counter()
        encode_batch(points, index.order, index.key_levels)
        state.layer["hilbert.encode_ns_per_point"] = (
            (time.perf_counter() - start) * 1e9 / len(points)
        )
        config = DetectorConfig(
            decision_threshold=sizes["decision_threshold"],
            options=QueryOptions(alpha=sizes["alpha"]),
        )
        detector = CopyDetector(index, config)
        state.live.update(
            index=index, detector=detector, config=config,
            verdicts=[_UNSEEN] * len(inputs["clips"]),
        )
        for i in range(min(4, len(inputs["clips"]))):  # warm-up
            self._detect(state, i)

    # ------------------------------------------------------------------
    def _detect(self, state: State, i: int):
        """The operation.  A featureless clip yields no fingerprints and
        therefore — as in ``monitor_stream`` — no detection."""
        try:
            report = state.live["detector"].detect_clip(state.inputs["clips"][i])
        except ExtractionError:
            report = None
        state.live["verdicts"][i] = _verdict(report)
        return report

    def clients(self, state: State) -> list[ClientOp]:
        num = len(state.inputs["clips"])

        def op(seq: int) -> str:
            self._detect(state, seq % num)
            return READ

        return [op]

    def verify(self, state: State) -> Check:
        verdicts = state.live["verdicts"]
        tolerance = state.live["config"].vote_tolerance
        right = 0
        for i, truth in enumerate(state.inputs["truths"]):
            if verdicts[i] is _UNSEEN:
                self._detect(state, i)
            verdict = verdicts[i]
            if truth is None:
                right += verdict is None
            elif verdict is not None:
                video_id, offset, _ = verdict
                right += (
                    video_id == truth[0]
                    and abs(offset + truth[1]) <= tolerance
                )
        quality = right / len(verdicts)
        floor = state.sizes["quality_floor"]
        return Check(
            quality, quality >= floor,
            f"{right}/{len(verdicts)} clips with the right verdict "
            f"(floor {floor})",
        )

    # ------------------------------------------------------------------
    def _decomposed(self, state: State, rec: Recorder, i: int, request: int):
        """``detect_clip`` replayed as its layer calls, one span each."""
        clip = state.inputs["clips"][i]
        index, cfg = state.live["index"], state.live["config"]
        ext = cfg.extractor
        counts = {"fingerprints": 0, "matches": 0, "ids_voted": 0}
        with rec.span("cbcd.detect_clip", request=request):
            with rec.span("fingerprint.keyframes"):
                keyframes = detect_keyframes(
                    clip, sigma=ext.motion_sigma,
                    margin=ext.keyframe_margin(),
                    max_keyframes=ext.max_keyframes,
                )
            with rec.span("fingerprint.harris"):
                positions = [
                    (int(t), int(y), int(x))
                    for t in keyframes
                    for y, x in detect_interest_points(
                        clip.frames[t], ext.harris
                    )
                ]
            with rec.span("fingerprint.describe"):
                fingerprints, kept = DescriptorExtractor(
                    clip, ext.descriptor
                ).describe_many(np.array(positions, dtype=np.int64).reshape(-1, 3))
                timecodes = np.array(
                    [float(p[0]) for p, k in zip(positions, kept) if k]
                )
            if len(fingerprints) == 0:
                return None, counts
            counts["fingerprints"] = len(fingerprints)
            with rec.span("cbcd.search"):
                index.reset_threshold_cache()
                with BatchQueryExecutor(index, options=cfg.options) as engine:
                    with rec.span("index.query_all"):
                        results = engine.query_all(
                            fingerprints.astype(np.float64)
                        )
                matches = [
                    QueryMatches(float(tc), r.ids, r.timecodes)
                    for r, tc in zip(results, timecodes) if len(r)
                ]
            counts["matches"] = sum(len(r) for r in results)
            with rec.span("cbcd.vote"):
                votes = vote(
                    matches, tolerance=cfg.vote_tolerance,
                    tukey_c=cfg.tukey_c, min_matches=cfg.min_matches,
                )
            with rec.span("cbcd.threshold"):
                detections = [
                    (v.video_id, v.offset, v.nsim) for v in votes
                    if v.nsim >= cfg.decision_threshold
                ]
            counts["ids_voted"] = len(votes)
        return detections, counts

    def trace(self, state: State, rec: Recorder, seconds: float) -> dict:
        num = len(state.inputs["clips"])
        totals = {"fingerprints": 0, "matches": 0, "ids_voted": 0}
        deadline = time.perf_counter() + seconds
        ops = 0
        while time.perf_counter() < deadline:
            _, counts = self._decomposed(state, rec, ops % num, ops)
            for key, value in counts.items():
                totals[key] += value
            ops += 1
        # The decomposition must return exactly what the public call does.
        quiet = Recorder()
        for i in range(min(TRACE_EQUALITY_SAMPLE, num)):
            detections, _ = self._decomposed(state, quiet, i, i)
            report = self._detect(state, i)
            public = [] if report is None else [
                (d.video_id, d.offset, d.nsim) for d in report.detections
            ]
            if (detections or []) != public:
                raise AssertionError(
                    f"clip {i}: decomposed pipeline {detections} != "
                    f"detect_clip {public}"
                )
        selfs = rec.self_times()
        wall = rec.root_wall_ns()

        def ms_per_clip(*names: str) -> float:
            return sum(selfs.get(n, (0, 0))[0] for n in names) / ops / 1e6

        return {
            "ops": ops,
            "fingerprint.extract_ms_per_clip": ms_per_clip(
                "fingerprint.keyframes", "fingerprint.harris",
                "fingerprint.describe",
            ),
            "fingerprint.keyframes_ms_per_clip": ms_per_clip("fingerprint.keyframes"),
            "fingerprint.harris_ms_per_clip": ms_per_clip("fingerprint.harris"),
            "fingerprint.describe_ms_per_clip": ms_per_clip("fingerprint.describe"),
            "fingerprint.fingerprints_per_clip": totals["fingerprints"] / ops,
            "cbcd.search_ms_per_clip": ms_per_clip("cbcd.search", "index.query_all"),
            "cbcd.vote_ms_per_clip": ms_per_clip("cbcd.vote"),
            "cbcd.vote_share": selfs.get("cbcd.vote", (0, 0))[0] / wall,
            "cbcd.matches_per_clip": totals["matches"] / ops,
            "cbcd.ids_voted_per_clip": totals["ids_voted"] / ops,
        }


WORKLOAD = ClipDetect()
