"""TV monitoring — continuous stream surveillance (paper §V-D).

Simulates the paper's production deployment: a "TV channel" stream is
assembled from non-referenced material with referenced excerpts spliced in
(one of them gamma-distorted, as off-air captures are), and a
:class:`StreamMonitor` is fed it chunk by chunk, reporting which archive
programme each detection matches and at which temporal alignment.

Run:  python examples/tv_monitoring.py
"""

import numpy as np

from repro import CopyDetector, DetectorConfig, NormalDistortionModel, S3Index
from repro.cbcd import (
    MonitorConfig,
    StreamMonitor,
    calibrate_decision_threshold,
)
from repro.corpus import build_reference_corpus, scale_store
from repro.video import Gamma, VideoClip, generate_corpus


def main() -> None:
    print("building reference archive ...")
    corpus = build_reference_corpus(num_videos=10, frames_per_video=160, seed=21)
    store = scale_store(corpus.store, 30_000, rng=21)
    index = S3Index(store, model=NormalDistortionModel(20, 20.0), depth=20)
    detector = CopyDetector(index, DetectorConfig(alpha=0.8))

    negatives = generate_corpus(3, 100, seed=31337)
    threshold = calibrate_decision_threshold(detector, negatives)
    print(f"  archive: {len(store)} fingerprints, threshold n_sim >= {threshold}")

    # --- assemble the broadcast stream -----------------------------------
    print("assembling a simulated broadcast stream ...")
    filler_clips = generate_corpus(3, 80, seed=777)
    excerpt_a, truth_a = corpus.candidate(3, 20, 80)
    excerpt_b, truth_b = corpus.candidate(8, 40, 80)
    excerpt_b = Gamma(1.7).apply_clip(excerpt_b)  # an off-air distortion

    segments = [
        ("filler", filler_clips[0], None),
        ("copy of programme 3", excerpt_a, truth_a),
        ("filler", filler_clips[1], None),
        ("distorted copy of programme 8", excerpt_b, truth_b),
        ("filler", filler_clips[2], None),
    ]
    stream = VideoClip(np.concatenate([seg[1].frames for seg in segments]))
    schedule = []
    cursor = 0
    for label, clip, truth in segments:
        schedule.append((cursor, cursor + clip.num_frames, label, truth))
        cursor += clip.num_frames
    print(f"  stream: {stream.num_frames} frames "
          f"({stream.duration:.0f} s at {stream.frame_rate:.0f} fps)")

    # --- monitor ----------------------------------------------------------
    print("\nmonitoring (80-frame windows every 40 frames, fed in 25-frame "
          "chunks):")
    monitor = StreamMonitor(
        index,
        MonitorConfig(alpha=0.8, window_frames=80, hop_frames=40,
                      decision_threshold=threshold),
    )
    for start in range(0, stream.num_frames, 25):
        for det in monitor.feed(stream.frames[start:start + 25]):
            print(f"  confirmed at frame {det.first_seen_frame:4d}: "
                  f"video {det.video_id} aligned at stream offset "
                  f"{det.stream_offset:7.1f} (n_sim={det.nsim})")

    # --- score against the schedule ---------------------------------------
    # A copy of reference frames [f, ...) spliced in at stream frame s
    # aligns at stream offset s - f.
    print("\nschedule:")
    for s, e, label, truth in schedule:
        if truth is None:
            print(f"  frames {s:4d}-{e:4d}: {label}")
            continue
        offset = s - truth.start_frame
        found = any(
            d.video_id == truth.video_id and abs(d.stream_offset - offset) <= 4
            for d in monitor.detections
        )
        print(f"  frames {s:4d}-{e:4d}: {label} (offset {offset:.0f}): "
              f"{'DETECTED' if found else 'missed'}")


if __name__ == "__main__":
    main()
