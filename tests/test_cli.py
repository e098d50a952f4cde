"""End-to-end CLI behavior: artifacts, reports, exit codes, determinism."""
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cupid
import cupid.kernels as kernels
from cupid.cli import main
from cupid.curation import read_curation_manifest, write_curation_manifest
from cupid.errors import FormatError
from cupid.store import ClipMatrix, CorpusHandle, build_corpus

from console_script import run_console_script
from helpers import load_matrix, random_videos, read_column_means, read_schedule


def _write_npz(path, rng, prefix, n, clips, dim):
    arrays = {f"{prefix}{i:04d}": rng.normal(size=(clips, dim)).astype(np.float32)
              for i in range(n)}
    np.savez(path, **arrays)
    return path


@pytest.fixture
def corpora(tmp_path, rng):
    """Ingested source (30 videos) and target (4 videos) corpora."""
    src_npz = _write_npz(tmp_path / "src.npz", rng, "s", 30, 3, 8)
    tgt_npz = _write_npz(tmp_path / "tgt.npz", rng, "t", 4, 2, 8)
    assert main(["ingest", "--input", str(src_npz), "--out", str(tmp_path / "src"),
                 "--corpus-id", "src", "--role", "source"]) == 0
    assert main(["ingest", "--input", str(tgt_npz), "--out", str(tmp_path / "tgt"),
                 "--corpus-id", "tgt", "--role", "target"]) == 0
    return (tmp_path / "src" / "src.manifest.jsonl",
            tmp_path / "tgt" / "tgt.manifest.jsonl")


class TestIngest:
    def test_from_npy_directory(self, tmp_path, rng):
        d = tmp_path / "npys"
        d.mkdir()
        for i in range(3):
            np.save(d / f"vid{i}.npy", rng.normal(size=(2, 4)).astype(np.float32))
        out = tmp_path / "corpus"
        assert main(["ingest", "--input", str(d), "--out", str(out)]) == 0
        handle = CorpusHandle.open(out / "corpus.manifest.jsonl", "source")
        assert handle.video_ids() == ["vid0", "vid1", "vid2"]
        report = json.loads((out / "run-report.json").read_text())
        assert report["command"] == "ingest"
        assert report["summary"]["videos"] == 3
        assert report["inputs"]
        written = [out / "corpus-00000.shard", out / "corpus.manifest.jsonl"]
        assert report["outputs"] == [str(p) for p in written]
        assert report["summary"]["shards"] == 1
        assert report["summary"]["bytes_written"] == sum(p.stat().st_size for p in written)

    def test_id_that_is_not_utf8_is_a_data_error(self, tmp_path, capsys):
        d = tmp_path / "npys"
        d.mkdir()
        np.save(d / "ok.npy", np.ones((1, 2), dtype=np.float32))
        # a file name byte that is not UTF-8 gives the stem a lone surrogate
        with open(os.fsencode(d) + b"/\xff.npy", "wb") as f:
            np.save(f, np.ones((1, 2), dtype=np.float32))
        assert main(["ingest", "--input", str(d), "--out", str(tmp_path / "c")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in lines] == [
            {"error": "data", "message": "video id '\\udcff' is not valid UTF-8"}]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["npys"]

    def test_expected_dim_mismatch_is_usage_error(self, tmp_path, rng, capsys):
        d = tmp_path / "npys"
        d.mkdir()
        np.save(d / "v.npy", rng.normal(size=(2, 4)).astype(np.float32))
        code = main(["ingest", "--input", str(d), "--out", str(tmp_path / "c"),
                     "--expected-dim", "8"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage"

    def test_existing_out_dir_rejected(self, tmp_path, rng):
        d = tmp_path / "npys"
        d.mkdir()
        np.save(d / "v.npy", np.ones((1, 2), dtype=np.float32))
        out = tmp_path / "c"
        out.mkdir()
        (out / "junk").write_text("x")
        assert main(["ingest", "--input", str(d), "--out", str(out)]) == 2

    def test_failed_build_leaves_nothing_behind(self, tmp_path, rng):
        # The second shard's dim differs from the first: the build fails
        # after one shard is already written to the staging directory.
        d = tmp_path / "npys"
        d.mkdir()
        np.save(d / "a.npy", rng.normal(size=(2, 4)).astype(np.float32))
        np.save(d / "b.npy", rng.normal(size=(2, 5)).astype(np.float32))
        out = tmp_path / "c"
        assert main(["ingest", "--input", str(d), "--out", str(out),
                     "--videos-per-shard", "1"]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["npys"]


class TestSimilarity:
    def test_matrix_dump(self, corpora, tmp_path):
        src, tgt = corpora
        out = tmp_path / "kernel.cpdk"
        assert main(["similarity", "--mode", "matrix", "--source-manifest", str(src),
                     "--target-manifest", str(tgt), "--out", str(out)]) == 0
        matrix = load_matrix(out)
        assert matrix.shape == (4, 30)

    def test_col_means_dump(self, corpora, tmp_path):
        src, tgt = corpora
        out = tmp_path / "means.jsonl"
        assert main(["similarity", "--mode", "col-means", "--source-manifest", str(src),
                     "--target-manifest", str(tgt), "--out", str(out),
                     "--threads", "4", "--tile-cols", "7"]) == 0
        ids, means = read_column_means(out)
        assert len(ids) == 30 and len(means) == 30

    def test_topk_requires_k(self, corpora, tmp_path):
        src, tgt = corpora
        code = main(["similarity", "--mode", "topk", "--source-manifest", str(src),
                     "--target-manifest", str(tgt), "--out", str(tmp_path / "t.jsonl")])
        assert code == 2

    def test_topk_dump(self, corpora, tmp_path):
        src, tgt = corpora
        out = tmp_path / "topk.jsonl"
        assert main(["similarity", "--mode", "topk", "--topk", "5",
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 4
        assert all(len(r["neighbors"]) == 5 for r in rows)

    def test_missing_manifest_is_usage_error(self, tmp_path):
        code = main(["similarity", "--mode", "matrix",
                     "--source-manifest", str(tmp_path / "nope.jsonl"),
                     "--target-manifest", str(tmp_path / "nope2.jsonl"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_dim_mismatch_is_data_failure(self, corpora, tmp_path, rng, capsys):
        src, _ = corpora
        other_npz = _write_npz(tmp_path / "wide.npz", rng, "w", 2, 2, 16)
        assert main(["ingest", "--input", str(other_npz), "--out",
                     str(tmp_path / "wide"), "--corpus-id", "wide",
                     "--role", "target"]) == 0
        out = tmp_path / "m.cpdk"
        code = main(["similarity", "--mode", "matrix", "--source-manifest", str(src),
                     "--target-manifest",
                     str(tmp_path / "wide" / "wide.manifest.jsonl"),
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "schema"


def _child_env():
    """The environment of a child interpreter that imports this cupid."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(cupid.__file__).resolve().parents[1]),
                    os.environ.get("PYTHONPATH")) if p))


# Runs the CLI on its arguments, then prints whether numpy and numpy.ma
# were imported.
_IMPORTS_CHILD = """\
import sys
from cupid import cli

code = cli.main(sys.argv[1:])
print("numpy" in sys.modules, "numpy.ma" in sys.modules)
sys.exit(code)
"""


class TestCurate:
    def test_avg_sim(self, corpora, tmp_path):
        src, tgt = corpora
        out = tmp_path / "picked.jsonl"
        assert main(["curate", "--strategy", "avg-sim", "--capacity", "10",
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(out)]) == 0
        manifest = read_curation_manifest(out)
        assert len(manifest.entries) == 10
        assert manifest.strategy == "avg_sim"
        scores = [e.score for e in manifest.entries]
        assert scores == sorted(scores, reverse=True)

    def test_capacity_above_corpus_is_failure(self, corpora, tmp_path, capsys):
        src, tgt = corpora
        out = tmp_path / "picked.jsonl"
        code = main(["curate", "--strategy", "avg-sim", "--capacity", "31",
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert json.loads(capsys.readouterr().err.strip())["error"] == "capacity"

    def test_knn_with_exclusions(self, corpora, tmp_path):
        src, tgt = corpora
        exclude = tmp_path / "downstream.txt"
        exclude.write_text("s0003\ns0007\n")
        out = tmp_path / "picked.jsonl"
        assert main(["curate", "--strategy", "knn", "--capacity", "6",
                     "--expansion-factor", "2.5", "--seed", "11",
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--exclude-ids", str(exclude), "--out", str(out)]) == 0
        manifest = read_curation_manifest(out)
        assert not {"s0003", "s0007"} & set(manifest.video_ids())
        sidecar = json.loads((tmp_path / "picked.jsonl.meta.json").read_text())
        assert sidecar["strategy"] == "knn"

    @pytest.mark.parametrize("strategy", ["avg-sim", "knn"])
    def test_empty_target_corpus_is_an_argument_error(self, corpora, tmp_path, capsys,
                                                      monkeypatch, strategy):
        from cupid import similarity

        calls = []
        row_topk = similarity.stream_row_topk

        def counting_topk(*args, **kwargs):
            calls.append(args[3])
            return row_topk(*args, **kwargs)

        monkeypatch.setattr(similarity, "stream_row_topk", counting_topk)
        src, _ = corpora
        build_corpus([], tmp_path / "empty", "empty", role="target")
        before = sorted(tmp_path.iterdir())
        assert main(["curate", "--strategy", strategy, "--capacity", "6",
                     "--source-manifest", str(src),
                     "--target-manifest", str(tmp_path / "empty" / "empty.manifest.jsonl"),
                     "--out", str(tmp_path / "picked.jsonl")]) == 2
        assert _single_error(capsys) == {"error": "argument",
                                         "message": "target corpus is empty"}
        assert calls == []
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("strategy", ["avg-sim", "knn"])
    def test_max_pooling_leaves_numpy_ma_unimported(self, corpora, tmp_path, strategy):
        """np.unique imports numpy.ma on its first call (about 17 ms); a
        max-pooling curate in a fresh interpreter needs neither."""
        src, tgt = corpora
        result = subprocess.run(
            [sys.executable, "-c", _IMPORTS_CHILD, "curate", "--strategy", strategy,
             "--pooling", "max", "--capacity", "6", "--source-manifest", str(src),
             "--target-manifest", str(tgt), "--out", str(tmp_path / "picked.jsonl")],
            capture_output=True, text=True, env=_child_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True", "False"]

    def test_heuristic(self, tmp_path):
        metadata = tmp_path / "meta.jsonl"
        rows = [
            {"video_id": "a", "category": "Food and Entertaining",
             "title": "pasta cooking", "subtitle_source": "human", "duration_s": 10.0},
            {"video_id": "b", "category": "Autos",
             "title": "pasta cooking", "subtitle_source": "human", "duration_s": 10.0},
            {"video_id": "c", "category": "Food and Entertaining",
             "title": "welding", "subtitle_source": "human", "duration_s": 10.0},
        ]
        metadata.write_text("".join(json.dumps(r) + "\n" for r in rows))
        out = tmp_path / "picked.jsonl"
        assert main(["curate", "--strategy", "heuristic", "--metadata", str(metadata),
                     "--allowed-categories", "Food and Entertaining",
                     "--vocabulary", "pasta,soup", "--require-human-subtitles",
                     "--out", str(out)]) == 0
        manifest = read_curation_manifest(out)
        assert manifest.video_ids() == ["a"]

    def test_heuristic_requires_vocabulary(self, tmp_path):
        metadata = tmp_path / "meta.jsonl"
        metadata.write_text("")
        code = main(["curate", "--strategy", "heuristic", "--metadata", str(metadata),
                     "--allowed-categories", "Food and Entertaining",
                     "--out", str(tmp_path / "o.jsonl")])
        assert code == 2


class TestShardBytesRead:
    def test_run_report_counts_the_shard_bytes_read(self, corpora, tmp_path, caplog):
        src, tgt = corpora
        shards = [p.read_bytes() for d in (src.parent, tgt.parent) for p in d.glob("*.shard")]
        # Max pooling reads the records: all but the header, index, sums and
        # footer. Mean pooling reads each shard's header, and what follows
        # its records (index, sums, footer), whose offset the footer gives.
        after_records = [len(data) - struct.unpack("<Q", data[-16:-8])[0] for data in shards]
        record_bytes = sum(len(data) - 14 for data in shards) - sum(after_records)
        sum_bytes = sum(n + 14 for n in after_records)
        caplog.set_level("INFO", logger="cupid")
        corpus_flags = ["--source-manifest", str(src), "--target-manifest", str(tgt)]
        reads = {}
        for name, command in [("full", ["curate", "--strategy", "avg-sim", "--capacity", "30"]),
                              ("pruned", ["curate", "--strategy", "avg-sim", "--capacity", "6"]),
                              ("col-means", ["similarity", "--mode", "col-means"]),
                              ("max", ["curate", "--strategy", "avg-sim", "--capacity", "6",
                                       "--pooling", "max"])]:
            out = tmp_path / f"{name}.jsonl"
            assert main(command + corpus_flags + ["--out", str(out)]) == 0
            report = json.loads(Path(f"{out}.run.json").read_text())
            reads[name] = report["summary"]["bytes_read"]
        # Every sum (or record) once, in one read per shard and tile; a
        # pruned run reads its candidates' sums a second time.
        assert reads["full"] == reads["col-means"] == sum_bytes
        assert sum_bytes < reads["pruned"] < 2 * sum_bytes
        assert reads["max"] == record_bytes
        assert f"read {sum_bytes} shard bytes" in caplog.text
        assert f"read {record_bytes} shard bytes" in caplog.text


class TestExactDots:
    """The run report counts the dots the kernels' certificates sent to the
    exact path. An exactly zero dot always goes there: its interval holds
    values of both signs. Integer clips orthogonal in 5 of the 8 pairs, and
    every pair scored (no pruning, k = N), give 5 in each score-based
    command, and max pooling (one clip a video) gives the same."""

    @pytest.mark.parametrize("command", [
        ["curate", "--strategy", "avg-sim", "--capacity", "4"],
        ["curate", "--strategy", "knn", "--capacity", "1"],
        ["curate", "--strategy", "avg-sim", "--capacity", "4", "--pooling", "max"],
        ["similarity", "--mode", "matrix"],
        ["similarity", "--mode", "col-means"],
        ["similarity", "--mode", "topk", "--topk", "2", "--threads", "2", "--tile-cols", "1"],
    ])
    def test_orthogonal_clips_are_rescored_exactly(self, tmp_path, command, caplog):
        def videos(prefix, rows):
            return [ClipMatrix(f"{prefix}{i}", np.array([row], dtype=np.float32))
                    for i, row in enumerate(rows)]

        build_corpus(videos("s", [[1, 0, 0], [0, 0, 1], [1, 1, 0], [0, 0, 2]]),
                     tmp_path / "src", "src", role="source")
        build_corpus(videos("t", [[1, 0, 0], [0, 1, 0]]), tmp_path / "tgt", "tgt",
                     role="target")
        caplog.set_level("INFO", logger="cupid")
        out = tmp_path / "out"
        assert main(command + ["--source-manifest", str(tmp_path / "src" / "src.manifest.jsonl"),
                               "--target-manifest", str(tmp_path / "tgt" / "tgt.manifest.jsonl"),
                               "--out", str(out)]) == 0
        report = json.loads(Path(f"{out}.run.json").read_text())
        assert report["summary"]["exact_dots"] == 5
        assert "5 dots re-scored exactly" in caplog.text


# Runs a cupid command and prints its RSS after its imports and its peak
# RSS, in KiB. The peak is VmHWM, not ru_maxrss: on Linux ru_maxrss also
# counts the RSS of the process that forked the child before its exec.
_RSS_CHILD = """\
import re, sys
from cupid import cli

def status(key):
    with open("/proc/self/status") as f:
        return int(re.search(key + r":\\s+(\\d+) kB", f.read()).group(1))

rss = status("VmRSS")
code = cli.main(sys.argv[1:])
print(rss, status("VmHWM"))
sys.exit(code)
"""


class TestResidentMemory:
    def test_curate_grows_rss_by_less_than_half_the_shards(self, tmp_path, rng):
        """Resident memory is bounded by the tile, not the corpus: a curate
        run over 24.6 MB of shards, in 256 KB tiles, grows its RSS by less
        than half the shard bytes. Shard pages touched through a memory map
        would stay resident, the whole corpus of them."""
        clips, dim, tile_cols = 8, 128, 64
        videos = [ClipMatrix(f"s{i:05d}", rng.normal(size=(clips, dim)).astype(np.float32))
                  for i in range(6000)]
        build_corpus(videos, tmp_path / "src", "src", videos_per_shard=1000)
        del videos
        build_corpus(random_videos(rng, "t", 4, clips, dim), tmp_path / "tgt", "tgt",
                     role="target")
        shard_bytes = sum(p.stat().st_size for p in (tmp_path / "src").glob("*.shard"))
        assert shard_bytes >= 4 * tile_cols * clips * dim * 4
        result = subprocess.run(
            [sys.executable, "-c", _RSS_CHILD, "curate", "--strategy", "avg-sim",
             "--capacity", "100", "--tile-cols", str(tile_cols), "--threads", "1",
             "--source-manifest", str(tmp_path / "src" / "src.manifest.jsonl"),
             "--target-manifest", str(tmp_path / "tgt" / "tgt.manifest.jsonl"),
             "--out", str(tmp_path / "picked.jsonl")],
            capture_output=True, text=True, env=_child_env())
        assert result.returncode == 0, result.stderr
        rss, peak = (1024 * int(kib) for kib in result.stdout.split())
        assert peak - rss < shard_bytes / 2, (rss, peak, shard_bytes)


class TestNonFiniteScores:
    """Clips of 3e19 against targets of +-3e19 give pair scores that
    overflow float32. Scoring commands fail with one data line naming the
    source and publish nothing; numpy warns about nothing."""

    ERROR = {"error": "data", "message": "source video 'a': a pair score is not finite in float32"}

    @pytest.fixture
    def huge(self, tmp_path):
        np.savez(tmp_path / "src.npz", a=np.full((2, 4), 3e19, np.float32),
                 b=np.ones((1, 4), np.float32))
        np.savez(tmp_path / "tgt.npz", t1=np.full((1, 4), 3e19, np.float32),
                 t2=np.full((1, 4), -3e19, np.float32))
        for name, role in (("src", "source"), ("tgt", "target")):
            assert main(["ingest", "--input", str(tmp_path / f"{name}.npz"), "--out",
                         str(tmp_path / name), "--corpus-id", name, "--role", role]) == 0
        return ["--source-manifest", str(tmp_path / "src" / "src.manifest.jsonl"),
                "--target-manifest", str(tmp_path / "tgt" / "tgt.manifest.jsonl")]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", [
        ["curate", "--strategy", "avg-sim", "--capacity", "1"],  # pruned
        ["curate", "--strategy", "avg-sim", "--capacity", "2"],
        ["curate", "--strategy", "knn", "--capacity", "1", "--expansion-factor", "2"],
        ["similarity", "--mode", "col-means"],
        ["similarity", "--mode", "topk", "--topk", "1"],
    ], ids=["avg-sim-pruned", "avg-sim", "knn", "col-means", "topk"])
    def test_overflow_is_a_data_error(self, huge, tmp_path, capsys, command):
        assert main(command + huge + ["--out", str(tmp_path / "out.jsonl")]) == 1
        assert _single_error(capsys) == self.ERROR
        assert sorted(p.name for p in tmp_path.iterdir()) == ["src", "src.npz", "tgt",
                                                              "tgt.npz"]

    def test_stderr_holds_only_the_error_line(self, huge, tmp_path):
        result = run_console_script("cupid", "curate", "--strategy", "avg-sim",
                                    "--capacity", "1", *huge,
                                    "--out", str(tmp_path / "out.jsonl"))
        assert result.returncode == 1
        assert [json.loads(line) for line in result.stderr.splitlines()] == [self.ERROR]

    @pytest.mark.parametrize("score", ["NaN", "Infinity", "-Infinity"])
    def test_schedule_rejects_a_score_that_is_not_finite(self, tmp_path, capsys, score):
        ranked = tmp_path / "ranked.jsonl"
        ranked.write_text('{"rank": 1, "video_id": "a", "score": %s, "strategy": "avg_sim"}\n'
                          % score)
        out = tmp_path / "sched.jsonl"
        assert main(["schedule", "--manifest", str(ranked), "--sizes", "1",
                     "--steps", "10", "--out", str(out)]) == 1
        assert _single_error(capsys) == {"error": "format",
                                         "message": f"{ranked}:1: bad manifest line"}
        assert not out.exists()


class TestSchedule:
    def test_three_stage_schedule(self, corpora, tmp_path):
        src, tgt = corpora
        ranked = tmp_path / "ranked.jsonl"
        assert main(["curate", "--strategy", "avg-sim", "--capacity", "30",
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(ranked)]) == 0
        out = tmp_path / "sched.jsonl"
        assert main(["schedule", "--manifest", str(ranked),
                     "--sizes", "20,10,5", "--steps", "100", "--out", str(out)]) == 0
        rows = read_schedule(out)
        assert [r[2] for r in rows] == [34, 33, 33]
        stage_sizes = []
        prev_ids = None
        for _, mpath, _ in rows:
            stage = read_curation_manifest(tmp_path / mpath)
            stage_sizes.append(len(stage.entries))
            ids = set(stage.video_ids())
            if prev_ids is not None:
                assert ids <= prev_ids  # nested by construction
            prev_ids = ids
        assert stage_sizes == [20, 10, 5]

    def test_bad_sizes_rejected(self, corpora, tmp_path):
        src, tgt = corpora
        ranked = tmp_path / "ranked.jsonl"
        assert main(["curate", "--strategy", "avg-sim", "--capacity", "10",
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(ranked)]) == 0
        code = main(["schedule", "--manifest", str(ranked),
                     "--sizes", "5,5", "--steps", "10",
                     "--out", str(tmp_path / "s.jsonl")])
        assert code == 2

    @pytest.mark.parametrize("sizes", ["10,-1", "10,0", "10,5,-3", "0"])
    def test_size_below_one_is_a_usage_error(self, tmp_path, capsys, sizes):
        # A negative size would cut from the end of the ranking, and 0 would
        # stage an empty manifest.
        ranked = tmp_path / "ranked.jsonl"
        entries = [cupid.CurationEntry(i, f"v{i:02d}", 1.0 / i) for i in range(1, 21)]
        write_curation_manifest(cupid.CurationManifest("avg_sim", entries), ranked)
        before = sorted(tmp_path.iterdir())
        assert main(["schedule", "--manifest", str(ranked), "--sizes", sizes,
                     "--steps", "100", "--out", str(tmp_path / "sched.jsonl")]) == 2
        assert _single_error(capsys) == {
            "error": "usage",
            "message": f"--sizes must list one or more positive stage sizes, got {sizes!r}"}
        assert sorted(tmp_path.iterdir()) == before


class TestProbe:
    def test_probe_report(self, tmp_path):
        queries = np.eye(4, dtype=np.float32)
        np.save(tmp_path / "q.npy", queries)
        np.save(tmp_path / "c.npy", queries)
        (tmp_path / "gt.json").write_text("[0, 1, 2, 3]")
        out = tmp_path / "report.json"
        assert main(["probe", "--queries", str(tmp_path / "q.npy"),
                     "--candidates", str(tmp_path / "c.npy"),
                     "--ground-truth", str(tmp_path / "gt.json"),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["recall"]["1"] == 1.0
        assert report["median_rank"] == 1
        assert report["query_count"] == 4
        assert report["candidate_count"] == 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("flag,side", [("--queries", "query"),
                                           ("--candidates", "candidate")])
    def test_value_that_is_not_finite_is_a_data_error(self, tmp_path, capsys, flag, side, bad):
        embs = {"--queries": np.eye(4, dtype=np.float32),
                "--candidates": np.eye(4, dtype=np.float32)}
        embs[flag][1, 3] = bad
        args = ["probe"]
        for name, values in embs.items():
            np.save(tmp_path / f"{name[2:]}.npy", values)
            args += [name, str(tmp_path / f"{name[2:]}.npy")]
        (tmp_path / "gt.json").write_text("[0, 1, 2, 3]")
        before = sorted(tmp_path.iterdir())
        assert main(args + ["--ground-truth", str(tmp_path / "gt.json"),
                            "--out", str(tmp_path / "report.json")]) == 1
        assert _single_error(capsys) == {
            "error": "data",
            "message": f"{side} embeddings: row 1 holds a value that is not finite"}
        assert sorted(tmp_path.iterdir()) == before

    def test_score_that_overflows_is_a_data_error(self, tmp_path):
        np.save(tmp_path / "q.npy", np.array([[1e308, 1e308]]))
        np.save(tmp_path / "c.npy", np.array([[10.0, -10.0], [1.0, 0.0]]))
        (tmp_path / "gt.json").write_text("[0]")
        before = sorted(tmp_path.iterdir())
        result = run_console_script("cupid", "probe", "--queries", str(tmp_path / "q.npy"),
                                    "--candidates", str(tmp_path / "c.npy"),
                                    "--ground-truth", str(tmp_path / "gt.json"),
                                    "--out", str(tmp_path / "report.json"))
        assert result.returncode == 1
        assert [json.loads(line) for line in result.stderr.splitlines()] == [{
            "error": "data",
            "message": "query embeddings: row 0 has a score that is not finite"}]
        assert sorted(tmp_path.iterdir()) == before


class TestNceCheck:
    def test_report_passes(self, tmp_path, capsys):
        out = tmp_path / "nce.json"
        assert main(["nce-check", "--batch", "4", "--seed", "1",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        for mode in ("standard", "n_squared"):
            assert report["modes"][mode]["max_grad_rel_err"] < 1e-4
        stdout = json.loads(capsys.readouterr().out)
        assert stdout == report


class TestStats:
    def test_stats_output(self, corpora, capsys):
        src, _ = corpora
        assert main(["stats", "--manifest", str(src)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["videos"] == 30
        assert summary["dim"] == 8


def _single_error(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


class TestBadManifest:
    @pytest.mark.parametrize("field,bad", [
        ("video_id", lambda v: 5),
        ("shard", lambda v: 7),
        ("offset", lambda v: v + 0.5),
        ("offset", str),
        ("clip_count", float),
        ("clip_count", lambda v: True),
    ], ids=["int-id", "int-shard", "float-offset", "string-offset", "float-count",
            "bool-count"])
    def test_mistyped_row_is_format_error(self, corpora, tmp_path, capsys, field, bad):
        src, tgt = corpora
        lines = src.read_text().splitlines(keepends=True)
        row = json.loads(lines[1])
        row[field] = bad(row[field])
        lines[1] = json.dumps(row) + "\n"
        src.write_text("".join(lines))
        message = f"{src}:2: bad manifest line"
        with pytest.raises(FormatError) as got:
            CorpusHandle.open(src, "source")
        assert str(got.value) == message
        out = tmp_path / "picked.jsonl"
        code = main(["curate", "--strategy", "avg-sim", "--capacity", "10",
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(out)])
        assert code == 1
        assert _single_error(capsys) == {"error": "format", "message": message}
        assert not out.exists()

    def test_manifest_that_is_not_utf8_is_format_error(self, corpora, capsys):
        src, _ = corpora
        src.write_bytes(src.read_bytes().replace(b'"s0001"', b'"s\xff001"', 1))
        with pytest.raises(FormatError, match="not valid UTF-8") as got:
            CorpusHandle.open(src, "source")
        assert str(got.value).startswith(f"{src}:")
        assert main(["stats", "--manifest", str(src)]) == 1
        assert _single_error(capsys) == {"error": "format", "message": str(got.value)}


class TestBadTextInputs:
    """Text inputs other than corpus manifests fail with one format line."""

    HEURISTIC = ["curate", "--strategy", "heuristic", "--allowed-categories", "Food",
                 "--vocabulary", "pasta"]

    @staticmethod
    def _metadata(path, video_id):
        row = {"video_id": video_id, "category": "Food", "title": "pasta",
               "subtitle_source": "human", "duration_s": 10.0}
        path.write_text(json.dumps(row) + "\n")
        return path

    def test_metadata_that_is_not_utf8(self, tmp_path, capsys):
        metadata = self._metadata(tmp_path / "meta.jsonl", "a")
        metadata.write_bytes(metadata.read_bytes().replace(b"pasta", b"p\xffsta"))
        out = tmp_path / "picked.jsonl"
        assert main(self.HEURISTIC + ["--metadata", str(metadata), "--out", str(out)]) == 1
        assert _single_error(capsys) == {
            "error": "format", "message": f"{metadata}: metadata file is not valid UTF-8"}
        assert not out.exists()

    def test_metadata_id_that_is_not_a_string(self, tmp_path, capsys):
        metadata = self._metadata(tmp_path / "meta.jsonl", 5)
        out = tmp_path / "picked.jsonl"
        assert main(self.HEURISTIC + ["--metadata", str(metadata), "--out", str(out)]) == 1
        assert _single_error(capsys) == {
            "error": "format", "message": f"{metadata}:1: bad metadata line"}
        assert not out.exists()

    def test_id_file_that_is_not_utf8(self, tmp_path, capsys):
        metadata = self._metadata(tmp_path / "meta.jsonl", "a")
        exclude = tmp_path / "downstream.txt"
        exclude.write_bytes(b"s0003\ns\xff007\n")
        out = tmp_path / "picked.jsonl"
        assert main(self.HEURISTIC + ["--metadata", str(metadata), "--exclude-ids",
                                      str(exclude), "--out", str(out)]) == 1
        assert _single_error(capsys) == {
            "error": "format", "message": f"{exclude}: id file is not valid UTF-8"}
        assert not out.exists()

    @pytest.mark.parametrize("part", ["rows", "sidecar"])
    def test_curation_manifest_that_is_not_utf8(self, tmp_path, capsys, part):
        metadata = self._metadata(tmp_path / "meta.jsonl", "a")
        ranked = tmp_path / "ranked.jsonl"
        assert main(self.HEURISTIC + ["--metadata", str(metadata), "--out", str(ranked)]) == 0
        bad, message = {
            "rows": (ranked, f"{ranked}: manifest file is not valid UTF-8"),
            "sidecar": (tmp_path / "ranked.jsonl.meta.json",
                        f"{ranked}.meta.json: bad manifest sidecar"),
        }[part]
        bad.write_bytes(bad.read_bytes().replace(b'"heuristic"', b'"\xff"'))
        out = tmp_path / "sched.jsonl"
        assert main(["schedule", "--manifest", str(ranked), "--sizes", "1",
                     "--steps", "10", "--out", str(out)]) == 1
        assert _single_error(capsys) == {"error": "format", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize("field, bad", [
        ("strategy", 7), ("strategy", None), ("config", 5), ("config", ["x"]),
        ("excluded_count", "0"), ("excluded_count", True), ("excluded_count", 1.5),
    ])
    def test_curation_sidecar_field_of_the_wrong_type(self, tmp_path, capsys, field, bad):
        metadata = self._metadata(tmp_path / "meta.jsonl", "a")
        ranked = tmp_path / "ranked.jsonl"
        assert main(self.HEURISTIC + ["--metadata", str(metadata), "--out", str(ranked)]) == 0
        sidecar = tmp_path / "ranked.jsonl.meta.json"
        sidecar.write_text(json.dumps(dict(json.loads(sidecar.read_text()), **{field: bad})))
        out = tmp_path / "sched.jsonl"
        assert main(["schedule", "--manifest", str(ranked), "--sizes", "1",
                     "--steps", "10", "--out", str(out)]) == 1
        assert _single_error(capsys) == {
            "error": "format", "message": f"{sidecar}: bad manifest sidecar"}
        assert not out.exists()


class TestTracedEntryPoints:
    """perfbench/tracing.py wraps similarity.stream_row_topk and
    curation.knn_candidate_pool as module attributes and reads k from the
    fourth positional argument and len(pool) from the (pool, k) result. If
    curate --strategy knn went around them, the benchmark's k and pool-size
    metrics would read 0 without an error."""

    def test_knn_curate_calls_both_through_the_modules(self, corpora, tmp_path,
                                                       monkeypatch):
        from cupid import curation, similarity

        topk_calls, pool_results = [], []
        row_topk, candidate_pool = similarity.stream_row_topk, curation.knn_candidate_pool

        def traced_topk(*args, **kwargs):
            topk_calls.append((args, kwargs))
            return row_topk(*args, **kwargs)

        def traced_pool(*args, **kwargs):
            pool_results.append(candidate_pool(*args, **kwargs))
            return pool_results[-1]

        monkeypatch.setattr(similarity, "stream_row_topk", traced_topk)
        monkeypatch.setattr(curation, "knn_candidate_pool", traced_pool)
        src, tgt = corpora
        out = tmp_path / "picked.jsonl"
        assert main(["curate", "--strategy", "knn", "--capacity", "6",
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(out)]) == 0
        assert topk_calls
        for args, kwargs in topk_calls:
            assert len(args) >= 4 and type(args[3]) is int and "k" not in kwargs
        assert len(pool_results) == 1
        pool, k = pool_results[0]
        assert 1 <= k <= max(args[3] for args, _ in topk_calls)
        sidecar = json.loads((tmp_path / "picked.jsonl.meta.json").read_text())
        assert len(pool) == sidecar["config"]["pool_size"] == 18

    def test_avg_sim_curate_scores_only_candidates_through_the_modules(
            self, corpora, tmp_path, monkeypatch, caplog):
        """The tracer wraps similarity.stream_column_means,
        CorpusHandle.load_tile and kernels.mean_score_block. A pruned
        avg-sim run must go through the first and the last, read its clip
        sums through CorpusHandle.load_sums and decode no clip (load_tile),
        and its kernel blocks must hold P x c' cells, c' being the summary's
        scored count."""
        from cupid import similarity, store

        calls = {"means": 0, "tiles": [], "sums": [], "cells": 0}
        column_means = similarity.stream_column_means
        load_tile, load_sums = store.CorpusHandle.load_tile, store.CorpusHandle.load_sums
        mean_block = kernels.mean_score_block

        def traced_means(*args, **kwargs):
            calls["means"] += 1
            return column_means(*args, **kwargs)

        def traced_tile(handle, *args, **kwargs):
            tile = load_tile(handle, *args, **kwargs)
            calls["tiles"].append((handle.role, len(args), len(tile.ids)))
            return tile

        def traced_sums(handle, *args, **kwargs):
            sums, counts = load_sums(handle, *args, **kwargs)
            calls["sums"].append((handle.role, len(args), len(counts)))
            return sums, counts

        def traced_block(*args):
            block = mean_block(*args)
            calls["cells"] += block.size
            return block

        monkeypatch.setattr(similarity, "stream_column_means", traced_means)
        monkeypatch.setattr(store.CorpusHandle, "load_tile", traced_tile)
        monkeypatch.setattr(store.CorpusHandle, "load_sums", traced_sums)
        monkeypatch.setattr(kernels, "mean_score_block", traced_block)
        caplog.set_level("INFO", logger="cupid")
        src, tgt = corpora
        out = tmp_path / "picked.jsonl"
        assert main(["curate", "--strategy", "avg-sim", "--capacity", "6",
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(out)]) == 0
        report = json.loads((tmp_path / "picked.jsonl.run.json").read_text())
        scored = report["summary"]["scored"]
        assert calls["means"] == 1
        assert scored == 6  # this corpus has no source within its bound of the cut
        assert calls["cells"] == 4 * scored
        # targets once, every source in the bound pass, the candidates gathered
        assert sorted(calls["sums"]) == [("source", 1, 6), ("source", 2, 30),
                                         ("target", 2, 4)]
        assert calls["tiles"] == []
        assert "30 sources, capacity 6, 6 scored exactly" in caplog.text


class TestConfigFile:
    def test_flags_win_over_config(self, corpora, tmp_path):
        src, tgt = corpora
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"capacity": 5, "seed": 3}))
        out = tmp_path / "picked.jsonl"
        assert main(["curate", "--strategy", "avg-sim", "--capacity", "8",
                     "--config", str(cfg),
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(out)]) == 0
        assert len(read_curation_manifest(out).entries) == 8

    def test_config_fills_missing_flags(self, corpora, tmp_path):
        src, tgt = corpora
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"capacity": 5}))
        out = tmp_path / "picked.jsonl"
        assert main(["curate", "--strategy", "avg-sim", "--config", str(cfg),
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(out)]) == 0
        assert len(read_curation_manifest(out).entries) == 5

    def test_unknown_config_key_rejected(self, corpora, tmp_path):
        src, tgt = corpora
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"caapcity": 5}))
        assert main(["curate", "--strategy", "avg-sim", "--config", str(cfg),
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(tmp_path / "o.jsonl")]) == 2

    # A --config value goes through its flag's own type and choices; a flag on
    # the command line wins, abbreviated or not.

    def _curate(self, corpora, tmp_path, cfg, *flags):
        src, tgt = corpora
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "picked.jsonl"
        code = main(["curate", "--strategy", "knn", *flags, "--config", str(path),
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(out)])
        return code, out

    @pytest.mark.parametrize("cfg, key, value", [
        ({"threads": "2"}, "threads", 2),
        ({"tile_cols": 5}, "tile_cols", 5),
        ({"expansion_factor": "3"}, "expansion_factor", 3.0),
        ({"expansion_factor": 2}, "expansion_factor", 2.0),
        ({"seed": "11"}, "seed", 11),
        ({"pooling": "max"}, "pooling", "max"),
        ({"require_human_subtitles": True}, "require_human_subtitles", True),
    ])
    def test_value_converted_like_its_flag(self, corpora, tmp_path, cfg, key, value):
        code, out = self._curate(corpora, tmp_path, dict(cfg, capacity=4))
        assert code == 0
        report = json.loads(Path(str(out) + ".run.json").read_text())
        assert report["config"][key] == value and type(report["config"][key]) is type(value)

    @pytest.mark.parametrize("cfg, key", [
        ({"threads": "two"}, "threads"),
        ({"threads": True}, "threads"),
        ({"tile_cols": 2.5}, "tile_cols"),
        ({"seed": "x"}, "seed"),
        ({"seed": 3.0}, "seed"),
        ({"capacity": None}, "capacity"),
        ({"capacity": [5]}, "capacity"),
        ({"expansion_factor": False}, "expansion_factor"),
        ({"pooling": "avg"}, "pooling"),
        ({"out": {"a": 1}}, "out"),
        ({"require_human_subtitles": "yes"}, "require_human_subtitles"),
        ({"require-human-subtitles": 1}, "require-human-subtitles"),
    ])
    def test_bad_value_is_a_usage_error_naming_the_key(self, corpora, tmp_path, capsys,
                                                      cfg, key):
        code, out = self._curate(corpora, tmp_path, dict({"capacity": 4}, **cfg))
        assert code == 2
        error = _single_error(capsys)
        assert error["error"] == "usage" and error["message"].startswith(f"--config key {key!r}")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--capacity=3"], ["--capa", "3"], ["--capa=3"]])
    def test_explicit_flag_wins_abbreviated_or_not(self, corpora, tmp_path, flags):
        code, out = self._curate(corpora, tmp_path, {"capacity": 7}, *flags)
        assert code == 0
        assert len(read_curation_manifest(out).entries) == 3

    def test_config_that_is_not_utf8_is_a_usage_error(self, corpora, tmp_path, capsys):
        src, tgt = corpora
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"capacity": "\xff"}')
        assert main(["curate", "--strategy", "knn", "--config", str(cfg),
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(tmp_path / "o.jsonl")]) == 2
        assert _single_error(capsys)["error"] == "usage"


def _text_file(path):
    path.write_text("not an array\n")


def _string_array(path):
    with open(path, "wb") as f:
        np.save(f, np.array([["a", "b"]]))


def _text_npz(path):
    path.write_text("not an archive\n")


def _npz_with_string_member(path):
    with open(path, "wb") as f:
        np.savez(f, ok=np.ones((1, 2), dtype=np.float32), bad=np.array([["x", "y"]]))


def _corrupt_compressed_npz(path):
    with open(path, "wb") as f:
        np.savez_compressed(f, a=np.arange(1000, dtype=np.float32).reshape(100, 10))
    data = bytearray(path.read_bytes())
    data[60:200] = bytes(b ^ 0x55 for b in data[60:200])  # inside the deflated member
    path.write_bytes(bytes(data))


def _truncated_npy(path):
    with open(path, "wb") as f:
        np.save(f, np.ones((3, 2), dtype=np.float32))
    path.write_bytes(path.read_bytes()[:-3])


class TestBadArrayInputs:
    """A malformed array input is a typed error naming the file, and nothing
    is published."""

    @pytest.mark.parametrize("make", [_text_file, _string_array, _truncated_npy])
    def test_ingest_npy_directory(self, tmp_path, capsys, make):
        d = tmp_path / "npys"
        d.mkdir()
        np.save(d / "b.npy", np.ones((1, 2), dtype=np.float32))
        make(d / "a.npy")
        assert main(["ingest", "--input", str(d), "--out", str(tmp_path / "c")]) == 1
        error = _single_error(capsys)
        assert error["error"] == "format" and error["message"].startswith(f"{d / 'a.npy'}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["npys"]

    @pytest.mark.parametrize("make", [_text_npz, _npz_with_string_member,
                                      _corrupt_compressed_npz])
    def test_ingest_npz(self, tmp_path, capsys, make):
        make(tmp_path / "in.npz")
        assert main(["ingest", "--input", str(tmp_path / "in.npz"),
                     "--out", str(tmp_path / "c")]) == 1
        error = _single_error(capsys)
        assert error["error"] == "format"
        assert error["message"].startswith(f"{tmp_path / 'in.npz'}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.npz"]

    def _probe(self, tmp_path, queries=None, ground_truth="[0, 1]"):
        np.save(tmp_path / "q.npy", np.eye(2, dtype=np.float32))
        np.save(tmp_path / "c.npy", np.eye(2, dtype=np.float32))
        if queries is not None:
            queries(tmp_path / "q.npy")
        (tmp_path / "gt.json").write_text(ground_truth)
        out = tmp_path / "report.json"
        code = main(["probe", "--queries", str(tmp_path / "q.npy"),
                     "--candidates", str(tmp_path / "c.npy"),
                     "--ground-truth", str(tmp_path / "gt.json"), "--out", str(out)])
        assert not out.exists() or code == 0
        return code

    @pytest.mark.parametrize("make", [_text_file, _string_array, _truncated_npy])
    def test_probe_queries(self, tmp_path, capsys, make):
        assert self._probe(tmp_path, queries=make) == 1
        error = _single_error(capsys)
        assert error["error"] == "format" and error["message"].startswith(f"{tmp_path / 'q.npy'}: ")

    @pytest.mark.parametrize("ground_truth", ["[0.5, 1]", "[[0], [1]]", "[true, 1]",
                                              '{"0": 0}', "[0, 1", ""])
    def test_probe_ground_truth(self, tmp_path, capsys, ground_truth):
        assert self._probe(tmp_path, ground_truth=ground_truth) == 2
        error = _single_error(capsys)
        assert error["error"] == "usage"
        assert error["message"].startswith(f"--ground-truth {tmp_path / 'gt.json'}")

    def test_probe_accepts_good_inputs(self, tmp_path):
        assert self._probe(tmp_path) == 0


def _golden_topk_videos(prefix, n, salt):
    """Videos made by integer arithmetic alone, so that no random generator's
    stream decides their bytes: clip values in {-2, ..., 2}, which tie
    often, and every third video scaled by 2^-100, so that its products with
    another such video underflow to 0.0 or -0.0 in float32. Ids are a
    permutation of the row order."""
    videos = []
    for i in range(n):
        k = np.arange((1 + i % 2) * 3) * 7919 + (i + salt) * 104729
        values = (k % 5 - 2).reshape(-1, 3).astype(np.float32)
        if i % 3 == 0:
            values *= np.float32(2.0 ** -100)
        videos.append(ClipMatrix(f"{prefix}{i * 7 % n:02d}", values))
    return videos


# SHA-256 of `similarity --mode topk --topk 20` and of `curate --strategy knn
# --capacity 5 --seed 3` (manifest, sidecar) on the golden corpora, per pooling.
_GOLDEN_TOPK_SHA256 = {
    "mean": {
        "topk.jsonl": "c215c7d96b1de7da12f9ca8efeff9eecc5b0cade5b105c3ebc7305d77ac97826",
        "knn.jsonl": "7805ef780308c670f52826daa6bdab4750e3c2aceb1a35f3d145710f40b0d2d7",
        "knn.jsonl.meta.json":
            "aa1c800c77b90ca77dac09d54cdca55390c2f6fa22f50be7136ca66b6b562d69",
    },
    "max": {
        "topk.jsonl": "1caa8c09ecc1285fd5480fa0327b7f4a4a7f4bd2bcdb75e09726e2ec2dbfb3bf",
        "knn.jsonl": "b6421349e88a86bf076cee18278830cfc4fe14e2f6abcd00f068eda6b6a9b448",
        "knn.jsonl.meta.json":
            "fe8d94ec260c7b60790e854d24951ca412d8cb7751dc377b2e376c12a7e0d114",
    },
}


class TestGoldenTopk:
    """Top-k and KNN artifacts with tied and signed-zero scores are pinned
    byte for byte, whatever the numpy version, tiles or threads."""

    @pytest.mark.parametrize("pooling", ["mean", "max"])
    @pytest.mark.parametrize("tile", [[], ["--threads", "2", "--tile-cols", "5"]])
    def test_golden_bytes(self, tmp_path, pooling, tile):
        build_corpus(_golden_topk_videos("s", 24, 0), tmp_path / "src", "src", role="source")
        build_corpus(_golden_topk_videos("t", 5, 1), tmp_path / "tgt", "tgt", role="target")
        common = ["--pooling", pooling, *tile,
                  "--source-manifest", str(tmp_path / "src" / "src.manifest.jsonl"),
                  "--target-manifest", str(tmp_path / "tgt" / "tgt.manifest.jsonl")]
        assert main(["similarity", "--mode", "topk", "--topk", "20", *common,
                     "--out", str(tmp_path / "topk.jsonl")]) == 0
        assert main(["curate", "--strategy", "knn", "--capacity", "5", "--seed", "3",
                     *common, "--out", str(tmp_path / "knn.jsonl")]) == 0
        topk = (tmp_path / "topk.jsonl").read_text()
        assert '"score": -0.0' in topk and '"score": 0.0' in topk
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in _GOLDEN_TOPK_SHA256[pooling]} == _GOLDEN_TOPK_SHA256[pooling]


class TestShardVersions:
    """The same corpora in version 1 shards (no sums block, so mean pooling
    sums the records) and in version 2 shards give byte-identical artifacts
    for every scoring command, pooling, thread count and tile width."""

    COMMANDS = {
        "avg-sim": ["curate", "--strategy", "avg-sim", "--capacity", "5"],
        "avg-sim-all": ["curate", "--strategy", "avg-sim", "--capacity", "24"],
        "knn": ["curate", "--strategy", "knn", "--capacity", "5", "--seed", "3"],
        "col-means": ["similarity", "--mode", "col-means"],
        "topk": ["similarity", "--mode", "topk", "--topk", "7"],
        "matrix": ["similarity", "--mode", "matrix"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("pooling", ["mean", "max"])
    def test_v1_and_v2_shards_give_the_same_bytes(self, tmp_path, command, pooling):
        from helpers import build_corpus_reference

        sources, targets = _golden_topk_videos("s", 24, 0), _golden_topk_videos("t", 5, 1)
        for version in (1, 2):
            build_corpus_reference(sources, tmp_path / f"v{version}" / "src", "src",
                                   videos_per_shard=7, version=version)
            build_corpus_reference(targets, tmp_path / f"v{version}" / "tgt", "tgt",
                                   role="target", videos_per_shard=3, version=version)
        artifacts = {}
        for version in ("v1", "v2"):
            corpus = ["--source-manifest", str(tmp_path / version / "src" / "src.manifest.jsonl"),
                      "--target-manifest", str(tmp_path / version / "tgt" / "tgt.manifest.jsonl")]
            for threads in ("1", "2"):
                for tile_cols in ("1", "7", "4096"):
                    out = tmp_path / f"{version}-{threads}-{tile_cols}" / "out"
                    out.parent.mkdir()
                    assert main([*self.COMMANDS[command], "--pooling", pooling,
                                 "--threads", threads, "--tile-cols", tile_cols, *corpus,
                                 "--out", str(out)]) == 0
                    artifacts[out.parent.name] = {
                        p.name: p.read_bytes() for p in out.parent.iterdir()
                        if not p.name.endswith(".run.json")}
        first = artifacts.pop("v1-1-1")
        assert first and all(got == first for got in artifacts.values())


class TestCorruptSums:
    """A corrupt sums block, index or footer is a format error naming the
    shard, and the command publishes nothing."""

    @pytest.mark.parametrize("kind", ["cut-sums", "cut-index", "footer-past-end", "nan"])
    @pytest.mark.parametrize("command", [
        ["curate", "--strategy", "avg-sim", "--capacity", "6"],
        ["curate", "--strategy", "knn", "--capacity", "6"],
        ["similarity", "--mode", "col-means"],
    ], ids=["avg-sim", "knn", "col-means"])
    def test_format_error_naming_the_shard(self, corpora, tmp_path, capsys, kind, command):
        src, tgt = corpora
        shard = sorted(src.parent.glob("*.shard"))[0]
        data = bytearray(shard.read_bytes())
        index_at, sums_at = struct.unpack("<QQ", data[-16:])
        if kind == "cut-sums":
            del data[-24:-16]
        elif kind == "cut-index":
            del data[index_at]
        elif kind == "footer-past-end":
            data[-8:] = struct.pack("<Q", len(data))
        else:
            data[sums_at + 8:sums_at + 16] = struct.pack("<d", float("nan"))
        shard.write_bytes(bytes(data))
        capsys.readouterr()
        out = tmp_path / "out" / "result.jsonl"
        assert main([*command, "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(out)]) == 1
        error = _single_error(capsys)
        assert error["error"] == "format"
        assert error["message"].startswith(f"shard {shard.name!r}")
        assert not out.parent.exists() or not any(out.parent.iterdir())


class TestDeterminism:
    def test_rerun_is_byte_identical(self, corpora, tmp_path):
        src, tgt = corpora
        artifacts = []
        for run in ("one", "two"):
            d = tmp_path / run
            d.mkdir()
            assert main(["curate", "--strategy", "knn", "--capacity", "6",
                         "--seed", "42", "--source-manifest", str(src),
                         "--target-manifest", str(tgt),
                         "--out", str(d / "picked.jsonl")]) == 0
            artifacts.append((d / "picked.jsonl").read_bytes())
        assert artifacts[0] == artifacts[1]

    def test_run_report_written(self, corpora, tmp_path):
        src, tgt = corpora
        out = tmp_path / "picked.jsonl"
        assert main(["curate", "--strategy", "avg-sim", "--capacity", "3",
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(out)]) == 0
        report = json.loads((tmp_path / "picked.jsonl.run.json").read_text())
        assert report["command"] == "curate"
        assert report["summary"]["selected"] == 3
        assert str(out) in report["outputs"]
        assert len(report["inputs"]) == 2
        assert "total_s" in report["timings"]
        assert report["summary"]["backend"] == kernels.backend_name()
        knn_out = tmp_path / "knn.jsonl"
        assert main(["curate", "--strategy", "knn", "--capacity", "3", "--seed", "1",
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(knn_out)]) == 0
        knn_report = json.loads((tmp_path / "knn.jsonl.run.json").read_text())
        assert knn_report["summary"]["backend"] == kernels.backend_name()


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert main(["curate"]) == 2

    def test_nonexistent_out_dir(self, corpora, tmp_path, capsys):
        src, tgt = corpora
        code = main(["curate", "--strategy", "avg-sim", "--capacity", "3",
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(tmp_path / "missing" / "picked.jsonl")])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"] == "usage"

    def test_nce_check_bad_trials(self):
        assert main(["nce-check", "--trials", "0"]) == 2


class TestConsoleScript:
    """The declared ``cupid`` console script, run from the checkout."""

    def test_entry_point_runs(self, tmp_path):
        result = run_console_script(
            "cupid", "nce-check", "--batch", "3", "--seed", "2", "--trials", "2")
        assert result.returncode == 0
        assert json.loads(result.stdout)["pass"] is True

    def test_log_env_var_accepted(self, tmp_path):
        env = {"PATH": "/usr/local/bin:/usr/bin:/bin", "CUPID_LOG": "DEBUG"}
        result = run_console_script("cupid", "--version", env=env)
        assert result.returncode == 0
        assert result.stdout.startswith("cupid ")
        # --version exits before anything is logged; a full command shows
        # that CUPID_LOG is read and that records go to stderr, not stdout.
        result = run_console_script(
            "cupid", "nce-check", "--batch", "3", "--seed", "2", "--trials", "2",
            env=env)
        assert result.returncode == 0
        assert json.loads(result.stdout)["pass"] is True
        assert "nce-check finished" in result.stderr


class TestErrorsAfterTheCommand:
    """Hashing the inputs and publishing the run report follow the
    command's own work; an error there gives the one JSON error line and
    its exit code, as an error in the command does, not a traceback."""

    @pytest.mark.parametrize("step", ["_hash_inputs", "_publish_single"])
    @pytest.mark.parametrize("error,code,category", [
        (OSError, 1, "io"), (FormatError, 1, "format"), (cupid.UsageError, 2, "usage")])
    def test_error_line_and_exit_code(self, corpora, tmp_path, capsys, monkeypatch,
                                      step, error, code, category):
        from cupid import cli

        def fail(*args):
            raise error(f"{step} failed")

        monkeypatch.setattr(cli, step, fail)
        src, tgt = corpora
        assert main(["curate", "--strategy", "avg-sim", "--capacity", "3",
                     "--source-manifest", str(src), "--target-manifest", str(tgt),
                     "--out", str(tmp_path / "picked.jsonl")]) == code
        assert _single_error(capsys) == {"error": category, "message": f"{step} failed"}
        assert not (tmp_path / "picked.jsonl.run.json").exists()


def _run_cli(entry, *args, **env):
    """Run the CLI in a fresh interpreter, through ``python -m cupid.cli``
    (entry "module") or the declared console script (entry "script"), with
    env added to this process's environment. Standard output is block
    buffered, as it is in a pipe by default, so what is not flushed is lost."""
    env = {k: v for k, v in {**os.environ, **env}.items() if k != "PYTHONUNBUFFERED"}
    if entry == "script":
        return run_console_script("cupid", *args, env=env)
    return subprocess.run([sys.executable, "-m", "cupid.cli", *args],
                          capture_output=True, text=True,
                          env=dict(env, PYTHONPATH=_child_env()["PYTHONPATH"]))


def _log_rows(records):
    """(logger, level, message) rows with the time of "finished in" masked."""
    return [(name, level, re.sub(r"finished in \d+\.\d\ds$", "finished in Ns", message))
            for name, level, message in records]


class TestEntryPoints:
    """``python -m cupid.cli`` and the ``cupid`` console script end the
    process with os._exit once main() has returned. Exit codes, standard
    streams, log lines and artifacts are those of main() run in process."""

    @pytest.mark.parametrize("entry", ["module", "script"])
    def test_success_matches_main(self, corpora, tmp_path, caplog, entry):
        src, tgt = corpora
        caplog.set_level("INFO", logger="cupid")
        runs = {}
        for where in ("main", entry):
            out_dir = tmp_path / where
            out_dir.mkdir()
            args = ["curate", "--strategy", "avg-sim", "--capacity", "6",
                    "--source-manifest", str(src), "--target-manifest", str(tgt),
                    "--out", str(out_dir / "picked.jsonl")]
            if where == "main":
                assert main(args) == 0
                logs = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
            else:
                result = _run_cli(entry, *args, CUPID_LOG="INFO")
                assert result.returncode == 0, result.stderr
                assert result.stdout == ""
                # "<date> <time> <logger> <level> <message>"
                logs = [tuple(line.split(" ", 4)[2:]) for line in result.stderr.splitlines()]
            artifacts = {p.name: p.read_bytes() for p in out_dir.iterdir()
                         if not p.name.endswith(".run.json")}
            runs[where] = (_log_rows(logs), artifacts)
        assert runs[entry] == runs["main"]
        logs, artifacts = runs[entry]
        assert logs[-1] == ("cupid", "INFO", "curate finished in Ns")
        assert sorted(artifacts) == ["picked.jsonl", "picked.jsonl.meta.json"]
        assert json.loads((tmp_path / entry / "picked.jsonl.run.json").read_text())[
            "summary"]["selected"] == 6

    @pytest.mark.parametrize("entry", ["module", "script"])
    def test_stdout_matches_main(self, corpora, capsys, entry):
        src, _ = corpora
        assert main(["stats", "--manifest", str(src)]) == 0
        result = _run_cli(entry, "stats", "--manifest", str(src), CUPID_LOG="WARNING")
        assert (result.returncode, result.stdout, result.stderr) == (
            0, capsys.readouterr().out, "")

    @pytest.mark.parametrize("entry", ["module", "script"])
    @pytest.mark.parametrize("case,code,category", [
        ("capacity", 1, "capacity"), ("missing-input", 2, "usage"),
        ("bad-flags", 2, None)])  # argparse's usage message, not a JSON line
    def test_failure_matches_main(self, corpora, tmp_path, capsys, entry, case, code,
                                  category):
        src, tgt = corpora
        args = {
            "capacity": ["curate", "--strategy", "avg-sim", "--capacity", "31",
                         "--source-manifest", str(src), "--target-manifest", str(tgt)],
            "missing-input": ["curate", "--strategy", "avg-sim", "--capacity", "3",
                              "--source-manifest", str(tmp_path / "none.jsonl"),
                              "--target-manifest", str(tgt)],
            "bad-flags": ["curate", "--strategy", "avg-sim", "--capacity", "three"],
        }[case] + ["--out", str(tmp_path / "picked.jsonl")]
        assert main(args) == code
        expected = capsys.readouterr().err
        result = _run_cli(entry, *args, CUPID_LOG="WARNING")
        assert (result.returncode, result.stdout, result.stderr) == (code, "", expected)
        if category is not None:
            assert json.loads(result.stderr)["error"] == category
        assert not (tmp_path / "picked.jsonl").exists()

    def test_failed_flush_exits_120(self):
        """A command whose buffered stdout cannot be flushed (the pipe's
        reader is gone) exits 120, as the interpreter's own exit does."""
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)  # keep the report in the buffer
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "cupid.cli", "nce-check", "--batch", "3",
                 "--trials", "1"], stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert result.returncode == 120, result.stderr


class TestNothingLeftOpen:
    """The entry points skip the interpreter's teardown. That is safe because
    main() has closed every descriptor it opened, and removed its staging
    directory, by the time it returns, on success and on failure."""

    def test_each_command(self, corpora, tmp_path, capsys):
        src, tgt = corpora
        corpus = ["--source-manifest", str(src), "--target-manifest", str(tgt)]
        np.save(tmp_path / "q.npy", np.eye(4, dtype=np.float32))
        (tmp_path / "gt.json").write_text("[0, 1, 2, 3]")
        (tmp_path / "meta.jsonl").write_text(json.dumps(
            {"video_id": "a", "category": "Food", "title": "pasta",
             "subtitle_source": "human", "duration_s": 1.0}) + "\n")
        out = tmp_path / "out"
        out.mkdir()
        commands = [
            (["ingest", "--input", str(tmp_path / "src.npz"), "--out", str(out / "corpus")], 0),
            (["similarity", "--mode", "matrix", *corpus, "--out", str(out / "m.cpdk")], 0),
            (["similarity", "--mode", "col-means", *corpus, "--out", str(out / "c.jsonl")], 0),
            (["similarity", "--mode", "topk", "--topk", "2", *corpus,
              "--out", str(out / "t.jsonl")], 0),
            (["curate", "--strategy", "avg-sim", "--capacity", "6", *corpus,
              "--out", str(out / "avg.jsonl")], 0),
            (["curate", "--strategy", "knn", "--capacity", "6", *corpus,
              "--out", str(out / "knn.jsonl")], 0),
            (["curate", "--strategy", "heuristic", "--metadata", str(tmp_path / "meta.jsonl"),
              "--allowed-categories", "Food", "--vocabulary", "pasta",
              "--out", str(out / "h.jsonl")], 0),
            (["schedule", "--manifest", str(out / "avg.jsonl"), "--sizes", "6,3",
              "--steps", "10", "--out", str(out / "s.jsonl")], 0),
            (["probe", "--queries", str(tmp_path / "q.npy"),
              "--candidates", str(tmp_path / "q.npy"), "--ground-truth",
              str(tmp_path / "gt.json"), "--out", str(out / "p.json")], 0),
            (["nce-check", "--batch", "3", "--trials", "1", "--out", str(out / "n.json")], 0),
            (["stats", "--manifest", str(src), "--out", str(out / "st.json")], 0),
            # fails after both corpora are open
            (["curate", "--strategy", "avg-sim", "--capacity", "31", *corpus,
              "--out", str(out / "big.jsonl")], 1),
            (["curate", "--strategy", "knn", "--capacity", "3",
              "--source-manifest", str(tmp_path / "none.jsonl"),
              "--target-manifest", str(tgt), "--out", str(out / "none.jsonl")], 2),
        ]
        fds = sorted(os.listdir("/proc/self/fd"))
        for args, code in commands:
            assert main(args) == code, args
            assert sorted(os.listdir("/proc/self/fd")) == fds, args
        assert [p.name for p in tmp_path.rglob(".cupid-stage-*")] == []
        assert not (out / "big.jsonl").exists()
