"""End-to-end tests of the ``repro-s3`` command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.video.synthetic import generate_clip


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A full CLI pipeline: synth -> extract -> build."""
    tmp = tmp_path_factory.mktemp("cli")
    video = tmp / "clip.npy"
    store = tmp / "db.fp"
    index = tmp / "archive"
    assert main(["synth", "--frames", "150", "--seed", "1",
                 "--out", str(video)]) == 0
    assert main(["extract", str(video), "--video-id", "0",
                 "--out", str(store)]) == 0
    # Depth 20: tight blocks keep coincidental matches (and hence the
    # foreign clip's n_sim) low even on this tiny single-video archive.
    assert main(["build", str(store), "--sigma", "20", "--depth", "20",
                 "--out", str(index)]) == 0
    return {"tmp": tmp, "video": video, "store": store, "index": index}


class TestPipeline:
    def test_info(self, workspace, capsys):
        assert main(["info", str(workspace["store"])]) == 0
        out = capsys.readouterr().out
        assert "fingerprints, dimension 20" in out

    def test_info_json_on_store(self, workspace, capsys):
        import json

        assert main(["info", "--json", str(workspace["store"])]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "store"
        assert payload["ndims"] == 20
        assert payload["rows"] > 0
        assert payload["bytes"] > 0

    def test_info_json_on_index_prefix(self, workspace, capsys):
        import json

        assert main([
            "info", "--json", str(workspace["index"]) + ".store",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["index"]["kind"] == "monolithic"
        assert payload["index"]["depth"] == 20
        assert payload["index"]["sigma"] == 20.0

    def test_query_from_row(self, workspace, capsys):
        assert main(["query", str(workspace["index"]),
                     "--from-row", "3", "--alpha", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "results" in out
        assert "id=0" in out  # the stored fingerprint itself matches

    def test_query_from_file(self, workspace, capsys):
        queries = np.random.default_rng(0).uniform(0, 255, (2, 20))
        qfile = workspace["tmp"] / "q.npy"
        np.save(qfile, queries)
        assert main(["query", str(workspace["index"]),
                     "--queries", str(qfile)]) == 0
        out = capsys.readouterr().out
        assert out.count("query") == 2

    def test_query_requires_source(self, workspace, capsys):
        assert main(["query", str(workspace["index"])]) == 2

    def test_detect_finds_copy(self, workspace, capsys):
        clip = generate_clip(150, seed=1)  # same seed as the indexed video
        candidate = workspace["tmp"] / "cand.npy"
        np.save(candidate, clip.frames[30:110])
        code = main(["detect", str(workspace["index"]), str(candidate),
                     "--threshold", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "copy of video 0" in out
        assert "b=-30" in out  # candidate starts at frame 30

    def test_detect_rejects_foreign_clip(self, workspace, capsys):
        foreign = generate_clip(80, seed=98765)
        candidate = workspace["tmp"] / "foreign.npy"
        np.save(candidate, foreign.frames)
        code = main(["detect", str(workspace["index"]), str(candidate),
                     "--threshold", "30"])
        assert code == 1
        assert "no copy detected" in capsys.readouterr().out


class TestSegmented:
    @pytest.fixture(scope="class")
    def live(self, workspace, tmp_path_factory):
        """A segmented index directory built with `ingest`."""
        directory = tmp_path_factory.mktemp("seg") / "live"
        assert main(["ingest", str(directory), str(workspace["store"]),
                     "--sigma", "20", "--depth", "20", "--flush"]) == 0
        return directory

    def test_ingest_creates_directory(self, live, capsys):
        assert (live / "MANIFEST.json").exists()
        assert list(live.glob("seg-*.store"))

    def test_ingest_appends_segment(self, live, workspace, capsys):
        assert main(["ingest", str(live), str(workspace["store"]),
                     "--flush"]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out
        assert "2 segments" in out

    def test_info_on_directory(self, live, capsys):
        assert main(["info", str(live)]) == 0
        out = capsys.readouterr().out
        assert "segmented index" in out
        assert "seg-000001" in out

    def test_info_json_on_directory(self, live, capsys):
        import json

        assert main(["info", "--json", str(live)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "segmented"
        assert payload["rows"] > 0
        assert payload["segments"]
        assert all(seg["bytes"] > 0 for seg in payload["segments"])

    def test_query_from_row_on_directory(self, live, capsys):
        assert main(["query", str(live), "--from-row", "3",
                     "--alpha", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "results" in out
        assert "id=0" in out

    def test_detect_on_directory(self, live, workspace, capsys):
        clip = generate_clip(150, seed=1)
        candidate = workspace["tmp"] / "seg-cand.npy"
        np.save(candidate, clip.frames[30:110])
        code = main(["detect", str(live), str(candidate),
                     "--threshold", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "copy of video 0" in out

    def test_compact_force_merges(self, live, capsys):
        assert main(["compact", str(live), "--force"]) == 0
        out = capsys.readouterr().out
        assert "compacted 2 segments" in out
        assert "-> 1 segments" in out

    def test_compact_nothing_to_do(self, live, capsys):
        assert main(["compact", str(live)]) == 0
        assert "nothing to compact" in capsys.readouterr().out


class TestErrors:
    def test_missing_store_reports_error(self, tmp_path, capsys):
        code = main(["info", str(tmp_path / "nope.fp")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_compact_missing_directory_reports_error(self, tmp_path, capsys):
        code = main(["compact", str(tmp_path / "nope")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestServeRequest:
    """`repro-s3 request` against an in-process detection server."""

    @pytest.fixture(scope="class")
    def server(self, workspace):
        from repro.index.s3 import S3Index
        from repro.serve import ServeConfig, ServerThread

        index = S3Index.load(str(workspace["index"]))
        with ServerThread(
            index, ServeConfig(port=0, alpha=0.8, max_wait_ms=1.0)
        ) as thread:
            yield thread

    def test_request_health(self, server, capsys):
        assert main(["request", "health",
                     "--port", str(server.port)]) == 0
        out = capsys.readouterr().out
        assert '"kind": "monolithic"' in out

    def test_request_query(self, server, workspace, capsys):
        from repro.index.s3 import S3Index

        index = S3Index.load(str(workspace["index"]))
        qfile = workspace["tmp"] / "serve-q.npy"
        np.save(qfile, index.store.fingerprints[:2].astype(np.float64))
        assert main(["request", "query", "--port", str(server.port),
                     "--queries", str(qfile)]) == 0
        out = capsys.readouterr().out
        assert out.count("query") == 2
        assert "id=0" in out  # the stored fingerprint matches itself

    def test_request_stats(self, server, capsys):
        assert main(["request", "stats",
                     "--port", str(server.port)]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["batcher"]["queries"] >= 2


class TestMerge:
    def test_merge_concatenates(self, workspace, tmp_path, capsys):
        merged = tmp_path / "merged.fp"
        code = main([
            "merge", str(workspace["store"]), str(workspace["store"]),
            "--out", str(merged),
        ])
        assert code == 0
        from repro.index.store import read_header

        count, ndims = read_header(merged)
        single, _ = read_header(workspace["store"])
        assert count == 2 * single
        assert ndims == 20


class TestArgumentValidation:
    """Out-of-domain knobs must fail with a one-line `error:` message."""

    @pytest.mark.parametrize("argv_extra, needle", [
        (["--batch-size", "0"], "--batch-size must be >= 1"),
        (["--alpha", "0"], "--alpha must be in (0, 1)"),
        (["--alpha", "1.5"], "--alpha must be in (0, 1)"),
    ])
    def test_query_rejects_bad_knobs(
        self, workspace, capsys, argv_extra, needle
    ):
        code = main(["query", str(workspace["index"]),
                     "--from-row", "0"] + argv_extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert needle in err

    def test_query_rejects_removed_workers_flag(self, workspace, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["query", str(workspace["index"]),
                  "--from-row", "0", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_detect_rejects_bad_alpha(self, workspace, capsys):
        code = main(["detect", str(workspace["index"]),
                     str(workspace["video"]), "--alpha", "-0.2"])
        assert code == 2
        assert "--alpha must be in (0, 1)" in capsys.readouterr().err

    def test_serve_refuses_alpha_one_before_loading(self, tmp_path, capsys):
        # The index path does not exist: the flag is refused first.
        code = main(["serve", str(tmp_path / "missing"), "--alpha", "1"])
        assert code == 2
        assert "--alpha must be in (0, 1)" in capsys.readouterr().err

    def test_request_unreachable_reports_friendly_error(self, capsys):
        code = main(["request", "stats", "--port", "1",
                     "--timeout", "0.2", "--retries", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestBuildOptions:
    def test_build_rejects_bad_depth(self, workspace, tmp_path, capsys):
        code = main([
            "build", str(workspace["store"]), "--depth", "99",
            "--out", str(tmp_path / "bad"),
        ])
        assert code == 2
        assert "depth" in capsys.readouterr().err

    def test_extract_featureless_video_reports_error(self, tmp_path, capsys):
        flat = np.full((30, 64, 64), 128, dtype=np.uint8)
        video = tmp_path / "flat.npy"
        np.save(video, flat)
        code = main([
            "extract", str(video), "--video-id", "0",
            "--out", str(tmp_path / "flat.fp"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestTierCommands:
    @pytest.fixture()
    def tiered(self, workspace, tmp_path):
        """A segmented directory with a budget that forces demotion."""
        from repro.index.segmented import SegmentedS3Index
        from repro.storage import StorageConfig

        directory = tmp_path / "tiered"
        assert main(["ingest", str(directory), str(workspace["store"]),
                     "--sigma", "20", "--depth", "20", "--flush"]) == 0
        assert main(["ingest", str(directory), str(workspace["store"]),
                     "--flush"]) == 0
        with SegmentedS3Index.open(
            directory, storage=StorageConfig(budget_bytes=0)
        ):
            pass
        return directory

    def test_tier_status(self, tiered, capsys):
        assert main(["tier", "status", str(tiered)]) == 0
        out = capsys.readouterr().out
        assert "tiered storage attached" in out
        assert "cold: 2 segment(s)" in out

    def test_tier_status_json(self, tiered, capsys):
        import json

        assert main(["tier", "status", str(tiered), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tiered"] is True
        assert payload["tiers"]["cold"]["segments"] == 2
        assert payload["manager"]["budget_bytes"] == 0

    def test_info_survives_cold_segments(self, tiered, capsys):
        import json

        assert main(["info", str(tiered)]) == 0
        assert "[cold]" in capsys.readouterr().out
        assert main(["info", "--json", str(tiered)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(seg["bytes"] > 0 for seg in payload["segments"])
        assert all(seg["tier"] == "cold" for seg in payload["segments"])

    def test_tier_attach_persists_and_demotes(self, workspace, tmp_path,
                                              capsys):
        import json

        directory = tmp_path / "attach"
        assert main(["ingest", str(directory), str(workspace["store"]),
                     "--sigma", "20", "--flush"]) == 0
        assert main(["tier", "attach", str(directory),
                     "--storage-budget", "0"]) == 0
        assert "demotion(s)" in capsys.readouterr().out
        # The config persisted: a plain status reopen sees cold tiers.
        assert main(["tier", "status", str(directory), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tiered"] is True
        assert payload["manager"]["budget_bytes"] == 0
        assert payload["tiers"]["cold"]["segments"] == 1

    def test_tier_attach_requires_a_flag(self, tiered, capsys):
        assert main(["tier", "attach", str(tiered)]) == 2
        assert "--storage-budget" in capsys.readouterr().err

    def test_query_against_cold_tiers(self, tiered, capsys):
        assert main(["query", str(tiered), "--from-row", "3",
                     "--alpha", "0.8"]) == 0
        assert "results" in capsys.readouterr().out

    def test_storage_budget_parse_rejects_garbage(self, tiered, capsys):
        code = main(["serve", str(tiered), "--storage-budget", "lots"])
        assert code == 2
        assert "byte size" in capsys.readouterr().err

    def test_storage_budget_rejected_on_monolithic(self, workspace, capsys):
        code = main(["serve", str(workspace["index"]),
                     "--storage-budget", "64M"])
        assert code == 2
        assert "segmented" in capsys.readouterr().err
