"""End-to-end CLI behavior: artifacts, reports, exit codes, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cupid
import cupid.kernels as kernels
from cupid.cli import main
from cupid.curation import read_curation_manifest, read_schedule
from cupid.errors import FormatError
from cupid.similarity import load_matrix, read_column_means
from cupid.store import ClipMatrix, CorpusHandle, build_corpus

from console_script import run_console_script
from helpers import random_videos


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
        shards = [p for d in (src.parent, tgt.parent) for p in d.glob("*.shard")]
        record_bytes = sum(p.stat().st_size - 14 for p in shards)  # all but the headers
        caplog.set_level("INFO", logger="cupid")
        corpus_flags = ["--source-manifest", str(src), "--target-manifest", str(tgt)]
        reads = {}
        for name, command in [("full", ["curate", "--strategy", "avg-sim", "--capacity", "30"]),
                              ("pruned", ["curate", "--strategy", "avg-sim", "--capacity", "6"]),
                              ("col-means", ["similarity", "--mode", "col-means"])]:
            out = tmp_path / f"{name}.jsonl"
            assert main(command + corpus_flags + ["--out", str(out)]) == 0
            report = json.loads(Path(f"{out}.run.json").read_text())
            reads[name] = report["summary"]["bytes_read"]
        # Every record once, in one read per shard and tile; a pruned run
        # reads its candidates' records a second time.
        assert reads["full"] == reads["col-means"] == record_bytes
        assert record_bytes < reads["pruned"] < 2 * record_bytes
        assert f"read {record_bytes} shard bytes" in caplog.text


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
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(Path(cupid.__file__).resolve().parents[1]),
                        os.environ.get("PYTHONPATH")) if p))
        result = subprocess.run(
            [sys.executable, "-c", _RSS_CHILD, "curate", "--strategy", "avg-sim",
             "--capacity", "100", "--tile-cols", str(tile_cols), "--threads", "1",
             "--source-manifest", str(tmp_path / "src" / "src.manifest.jsonl"),
             "--target-manifest", str(tmp_path / "tgt" / "tgt.manifest.jsonl"),
             "--out", str(tmp_path / "picked.jsonl")],
            capture_output=True, text=True, env=env)
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
        avg-sim run must go through all three, and its kernel blocks must
        hold P x c' cells, c' being the summary's scored count."""
        from cupid import similarity, store

        calls = {"means": 0, "tiles": [], "cells": 0}
        column_means = similarity.stream_column_means
        load_tile, mean_block = store.CorpusHandle.load_tile, kernels.mean_score_block

        def traced_means(*args, **kwargs):
            calls["means"] += 1
            return column_means(*args, **kwargs)

        def traced_tile(handle, *args, **kwargs):
            tile = load_tile(handle, *args, **kwargs)
            calls["tiles"].append((handle.role, len(args), len(tile.ids)))
            return tile

        def traced_block(*args):
            block = mean_block(*args)
            calls["cells"] += block.size
            return block

        monkeypatch.setattr(similarity, "stream_column_means", traced_means)
        monkeypatch.setattr(store.CorpusHandle, "load_tile", traced_tile)
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
        assert sorted(calls["tiles"]) == [("source", 1, 6), ("source", 2, 30),
                                          ("target", 2, 4)]
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
