"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The throughput test
exercises the full 100k-video streaming path and takes the longest.
"""
import functools
import json
import resource
import time

import numpy as np
import pytest

from cupid import (
    ClipMatrix,
    CorpusHandle,
    NegativeMode,
    PoolingMode,
    ScoreGrid,
    TileConfig,
    build_incremental_schedule,
    build_similarity_matrix,
    curate_avg_sim,
    curate_heuristic,
    curate_knn,
    HeuristicRules,
    VideoMeta,
    ingest_shard,
    nce_loss,
    negative_set,
    rank_queries,
    stream_column_means,
    stream_row_topk,
    summarize,
    write_shard,
)
from cupid.cli import main
from cupid.curation import (
    knn_candidate_pool,
    read_curation_manifest,
    write_curation_manifest,
    write_schedule,
)
from cupid.nce import gradient_check

from helpers import (
    column_means_from_matrix,
    load_videos,
    random_corpus,
    random_videos,
    read_schedule,
    row_topk_from_matrix,
    sort_by_score_then_id,
)


def _oracle_avg_sim_ids(view, c):
    means = view.matrix.astype(np.float64).mean(axis=0)
    return [view.source_ids[i] for i in sort_by_score_then_id(view.source_ids, means)[:c]]


def _oracle_knn_pool(view, pool_target):
    p, n = view.matrix.shape
    rows = [sorted(range(n), key=lambda i: (-float(view.matrix[j, i]),
                                            view.source_ids[i]))
            for j in range(p)]
    pool = set()
    for k in range(n):
        for row in rows:
            pool.add(view.source_ids[row[k]])
        if len(pool) >= pool_target:
            break
    return pool


def test_criterion_1_curation_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for trial in range(100):
        n = int(rng.integers(1, 201))
        p = int(rng.integers(1, 21))
        clips = int(rng.integers(1, 9))
        d = int(rng.integers(1, 17))
        pooling = PoolingMode.MEAN if trial % 2 == 0 else PoolingMode.MAX
        target = random_corpus(rng, "t", "target", p, clips, d)
        source = random_corpus(rng, "s", "source", n, clips, d)
        view = build_similarity_matrix(target, source, pooling)

        c = int(rng.integers(1, n + 1))
        ids, means = stream_column_means(target, source, pooling)
        got = curate_avg_sim(ids, means, c).video_ids()
        assert got == _oracle_avg_sim_ids(view, c), f"avg_sim mismatch on trial {trial}"

        factor = float(rng.uniform(2.0, 4.0))
        pool_target = int(round(factor * c))
        provider = functools.partial(stream_row_topk, target, source, pooling)
        pool, _ = knn_candidate_pool(provider, n, pool_target)
        assert {vid for vid, _ in pool} == _oracle_knn_pool(view, pool_target), \
            f"knn pool mismatch on trial {trial}"
        manifest = curate_knn(provider, n, c, factor, seed=trial)
        assert len(manifest.entries) == c
        assert set(manifest.video_ids()) <= {vid for vid, _ in pool}
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS: avg_sim + knn pool == brute-force oracle on 100 "
          f"instances, 0 mismatches, {elapsed:.1f}s")


@pytest.mark.usefixtures("threads_for_any_work")
def test_criterion_2_streaming_equals_dense_bitwise():
    rng = np.random.default_rng(202)
    shapes = [(1, 100), (2, 50), (5, 2000), (10, 1000), (20, 500), (100, 100),
              (7, 1400), (3, 3333), (1, 1), (14, 714)]
    checked = 0
    for idx, (p, n) in enumerate(shapes):
        assert p * n <= 10_000
        pooling = PoolingMode.MEAN if idx % 2 == 0 else PoolingMode.MAX
        target = random_corpus(rng, "t", "target", p, 4, 12)
        source = random_corpus(rng, "s", "source", n, 4, 12)
        dense = build_similarity_matrix(target, source, pooling)
        _, want_means = column_means_from_matrix(dense)
        k = min(7, n)
        want_topk = row_topk_from_matrix(dense, k)
        for width in (1, 7, n):
            for threads in (1, 4, 8):
                tile = TileConfig(tile_cols=width, threads=threads)
                _, means = stream_column_means(target, source, pooling, tile)
                assert (means == want_means).all(), (p, n, width, threads)
                topk = stream_row_topk(target, source, pooling, k, tile)
                assert topk.rows() == want_topk, (p, n, width, threads)
                checked += 1
    print(f"\nACCEPTANCE 2 PASS: streaming == dense bit-for-bit on {len(shapes)} "
          f"instances x {checked // len(shapes)} geometry/thread combos")


def test_criterion_3_planted_cluster_recovery():
    d, n, planted_count, c = 32, 10_000, 1_000, 1_000
    started = time.perf_counter()
    worst = 1.0
    for seed in range(20):
        rng = np.random.default_rng(9000 + seed)
        centroid = rng.normal(size=d)
        centroid /= np.linalg.norm(centroid)

        # planted sources: cosine >= 0.9 against the centroid
        cosines = rng.uniform(0.9, 1.0, size=planted_count)
        noise = rng.normal(size=(planted_count, d))
        noise -= np.outer(noise @ centroid, centroid)
        noise /= np.linalg.norm(noise, axis=1, keepdims=True)
        planted = (cosines[:, None] * centroid[None, :]
                   + np.sqrt(1.0 - cosines[:, None] ** 2) * noise)

        # background sources: random directions, near-zero expected cosine
        background = rng.normal(size=(n - planted_count, d))
        background /= np.linalg.norm(background, axis=1, keepdims=True)

        vectors = np.concatenate([planted, background]).astype(np.float32)
        order = rng.permutation(n)
        ids = [f"s{i:05d}" for i in range(n)]
        source = CorpusHandle.from_arrays(
            "s", "source",
            [ClipMatrix(ids[i], vectors[order[i]][None, :]) for i in range(n)])
        planted_ids = {ids[i] for i in range(n) if order[i] < planted_count}

        target_clips = centroid[None, :] + 0.05 * rng.normal(size=(8, d))
        target = CorpusHandle.from_arrays(
            "t", "target", [ClipMatrix(f"t{j}", target_clips[j][None, :].astype(np.float32))
                            for j in range(8)])

        ids_out, means = stream_column_means(target, source, PoolingMode.MEAN,
                                             TileConfig(tile_cols=4096))
        selected = set(curate_avg_sim(ids_out, means, c).video_ids())
        recovered = len(selected & planted_ids) / planted_count
        worst = min(worst, recovered)
        assert recovered >= 0.95, f"seed {seed}: recovered only {recovered:.3f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 PASS: planted recovery >= 95% on all 20 seeds "
          f"(worst {worst:.3f}), {elapsed:.1f}s")


def test_criterion_4_nce_numerics():
    rng = np.random.default_rng(404)
    # (a) analytic gradient vs central finite differences
    worst = 0.0
    for trial in range(50):
        b = int(rng.choice([2, 3, 4, 8]))
        grid = ScoreGrid.diagonal(rng.normal(size=(b, b)))
        mode = NegativeMode.STANDARD if trial % 2 == 0 else NegativeMode.N_SQUARED
        worst = max(worst, gradient_check(grid, mode, step=1e-5))
    assert worst < 1e-4

    # (b) B=2: the two negative conventions coincide
    worst_b2 = 0.0
    for _ in range(20):
        grid = ScoreGrid.diagonal(rng.normal(size=(2, 2)))
        delta = abs(nce_loss(grid, NegativeMode.STANDARD)
                    - nce_loss(grid, NegativeMode.N_SQUARED))
        worst_b2 = max(worst_b2, delta)
    assert worst_b2 < 1e-12

    # (c) negative cardinality with diagonal-only positives
    for b in range(2, 65):
        grid = ScoreGrid.diagonal(np.zeros((b, b)))
        assert len(negative_set(grid, NegativeMode.N_SQUARED, 0)) == b * b - b

    # (d) additive shift invariance
    worst_shift = 0.0
    for const in (1000.0, -250.0, 0.5):
        grid = ScoreGrid.diagonal(rng.normal(size=(6, 6)))
        shifted = ScoreGrid(grid.scores + const, grid.positive_mask)
        for mode in (NegativeMode.STANDARD, NegativeMode.N_SQUARED):
            worst_shift = max(worst_shift,
                              abs(nce_loss(shifted, mode) - nce_loss(grid, mode)))
    assert worst_shift < 1e-10
    print(f"\nACCEPTANCE 4 PASS: grad check max rel err {worst:.2e} (< 1e-4), "
          f"B=2 mode delta {worst_b2:.2e} (< 1e-12), cardinality B^2-B up to 64, "
          f"shift delta {worst_shift:.2e} (< 1e-10)")


def test_criterion_5_probe_correctness():
    rng = np.random.default_rng(505)
    for _ in range(100):
        q = int(rng.integers(1, 101))
        c = int(rng.integers(1, 101))
        d = int(rng.integers(1, 17))
        queries = rng.normal(size=(q, d))
        candidates = rng.normal(size=(c, d))
        gt = rng.integers(0, c, size=q).tolist()
        got = rank_queries(queries, candidates, gt)
        scores = queries @ candidates.T
        for row, (rank, gt_idx) in enumerate(zip(got, gt)):
            ordered = sorted(scores[row], reverse=True)
            assert rank == ordered.index(scores[row, gt_idx]) + 1

    eye = np.eye(8)
    perfect = summarize(rank_queries(eye, eye, list(range(8))), ks=(1,))
    assert perfect.recall_at[1] == 1.0 and perfect.median_rank == 1

    fixture = summarize([1, 2, 3, 1, 5], ks=(1, 5, 10))
    assert fixture.recall_at[1] == 0.4
    assert fixture.recall_at[5] == 1.0
    assert fixture.median_rank == 2
    print("\nACCEPTANCE 5 PASS: ranks == brute-force sort on 100 instances; "
          "perfect-diagonal and [1,2,3,1,5] fixtures exact")


def test_criterion_6_nestedness_and_scale_invariance():
    rng = np.random.default_rng(606)
    target = random_corpus(rng, "t", "target", 6, 4, 10)
    source = random_corpus(rng, "s", "source", 250, 4, 10)

    ids, means = stream_column_means(target, source)
    picks = {c: curate_avg_sim(ids, means, c).video_ids() for c in (15, 100, 200)}
    assert set(picks[15]) <= set(picks[100]) <= set(picks[200])
    assert picks[100][:15] == picks[15]  # prefix property, stronger than nesting

    metas = [VideoMeta(vid, "Food and Entertaining", f"cook {vid}", "human", 9.0)
             for vid in source.video_ids()[:40]]
    rules = HeuristicRules(frozenset({"Food and Entertaining"}), frozenset({"cook"}))
    heuristic_before = curate_heuristic(metas, rules).video_ids()

    for lam in (0.1, 3.0, 100.0):
        scaled = CorpusHandle.from_arrays(
            "s", "source",
            [ClipMatrix(v.video_id, v.values * np.float32(lam))
             for v in load_videos(source)])
        s_ids, s_means = stream_column_means(target, scaled)
        for c in (15, 100, 200):
            assert set(curate_avg_sim(s_ids, s_means, c).video_ids()) == set(picks[c]), lam
        base_knn = curate_knn(functools.partial(stream_row_topk, target, source,
                                                PoolingMode.MEAN), 250, 40, 3.0, seed=77)
        scaled_knn = curate_knn(functools.partial(stream_row_topk, target, scaled,
                                                  PoolingMode.MEAN), 250, 40, 3.0, seed=77)
        assert set(base_knn.video_ids()) == set(scaled_knn.video_ids()), lam
        assert curate_heuristic(metas, rules).video_ids() == heuristic_before
    print("\nACCEPTANCE 6 PASS: avg_sim nested across c in {15,100,200}; selections "
          "invariant under lambda in {0.1,3,100} for every strategy")


def test_criterion_7_format_round_trip(tmp_path):
    rng = np.random.default_rng(707)
    videos = random_videos(rng, "v", 1000, 8, 12)
    data = write_shard(videos)
    entries = ingest_shard(data, 12)
    handle = CorpusHandle("rt", "source", entries, 12, {"": data})
    for original in videos:
        loaded = handle.load_video(original.video_id)
        assert loaded.values.tobytes() == original.values.tobytes()
        assert loaded.clip_count == original.clip_count

    ids = [f"s{i:04d}" for i in range(300)]
    means = rng.normal(size=300)
    manifests = [curate_avg_sim(ids, means, c) for c in (200, 100, 40)]
    paths = []
    for i, manifest in enumerate(manifests):
        path = tmp_path / f"stage{i + 1}.jsonl"
        write_curation_manifest(manifest, path)
        reloaded = read_curation_manifest(path)
        assert reloaded.entries == manifest.entries
        assert reloaded.strategy == manifest.strategy
        assert reloaded.config_echo == manifest.config_echo
        assert reloaded.excluded_count == manifest.excluded_count
        paths.append(path)

    schedule = build_incremental_schedule(manifests, 1000)
    spath = tmp_path / "schedule.jsonl"
    write_schedule(schedule, paths, spath)
    rows = read_schedule(spath)
    assert [r[2] for r in rows] == [s.steps for s in schedule.stages]
    for (_, mpath, _), stage in zip(rows, schedule.stages):
        assert read_curation_manifest(mpath).entries == stage.manifest.entries
    print("\nACCEPTANCE 7 PASS: 1000-video shard round trip bit-exact; manifests "
          "and schedule re-parse to equal objects")


def test_criterion_8_throughput_smoke(tmp_path):
    d, n_sources, target_clips = 64, 100_000, 1_000
    rng = np.random.default_rng(808)

    videos = []
    clip_counts = rng.integers(1, 9, size=n_sources)
    block = rng.normal(scale=0.3, size=(int(clip_counts.sum()), d)).astype(np.float32)
    offset = 0
    for i in range(n_sources):
        cc = int(clip_counts[i])
        videos.append(ClipMatrix(f"s{i:06d}", block[offset:offset + cc]))
        offset += cc
    source = CorpusHandle.from_arrays("s", "source", videos)
    del videos, block

    # 125 target videos x 8 clips = 1000 target clips
    target = CorpusHandle.from_arrays(
        "t", "target",
        [ClipMatrix(f"t{j:03d}", rng.normal(size=(8, d)).astype(np.float32))
         for j in range(target_clips // 8)])

    tile = TileConfig(tile_cols=8192, threads=8)
    started = time.perf_counter()
    ids, means = stream_column_means(target, source, PoolingMode.MEAN, tile)
    manifest = curate_avg_sim(ids, means, 10_000)
    elapsed = time.perf_counter() - started
    assert len(manifest.entries) == 10_000
    assert elapsed < 120.0, f"streaming curation took {elapsed:.1f}s"

    peak_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 ** 2)
    assert peak_gib < 2.0, f"peak RSS {peak_gib:.2f} GiB"

    # spot check a dense sub-block against the streamed means
    lo, hi = 40_000, 40_500
    sub = CorpusHandle.from_arrays(
        "sub", "source", [source.load_video(vid) for vid in ids[lo:hi]])
    dense = build_similarity_matrix(target, sub, PoolingMode.MEAN)
    _, want = column_means_from_matrix(dense)
    assert (means[lo:hi] == want).all()
    print(f"\nACCEPTANCE 8 PASS: 100k x 1k-clip streaming curation in {elapsed:.1f}s "
          f"(< 120s), peak RSS {peak_gib:.2f} GiB (< 2), dense sub-block matches bitwise")


def test_criterion_9_cli_determinism(tmp_path):
    rng = np.random.default_rng(909)
    arrays = {f"s{i:04d}": rng.normal(size=(3, 8)).astype(np.float32) for i in range(25)}
    np.savez(tmp_path / "src.npz", **arrays)
    tarrays = {f"t{i}": rng.normal(size=(2, 8)).astype(np.float32) for i in range(4)}
    np.savez(tmp_path / "tgt.npz", **tarrays)
    np.save(tmp_path / "q.npy", np.eye(5, dtype=np.float32))
    np.save(tmp_path / "c.npy", rng.normal(size=(9, 5)).astype(np.float32))
    (tmp_path / "gt.json").write_text("[0, 1, 2, 3, 4]")
    metadata = tmp_path / "meta.jsonl"
    metadata.write_text("".join(
        json.dumps({"video_id": f"s{i:04d}", "category": "Food and Entertaining",
                    "title": f"cook video {i}", "subtitle_source": "human",
                    "duration_s": 30.0}) + "\n"
        for i in range(25)))

    def run_all(base):
        base.mkdir()
        cmds = {
            "ingest-src": ["ingest", "--input", str(tmp_path / "src.npz"),
                           "--out", str(base / "src"), "--corpus-id", "src"],
            "ingest-tgt": ["ingest", "--input", str(tmp_path / "tgt.npz"),
                           "--out", str(base / "tgt"), "--corpus-id", "tgt",
                           "--role", "target"],
        }
        for name, argv in cmds.items():
            assert main(argv) == 0, name
        src = str(base / "src" / "src.manifest.jsonl")
        tgt = str(base / "tgt" / "tgt.manifest.jsonl")
        followups = {
            "matrix.cpdk": ["similarity", "--mode", "matrix", "--source-manifest", src,
                            "--target-manifest", tgt, "--threads", "4",
                            "--out", str(base / "matrix.cpdk")],
            "means.jsonl": ["similarity", "--mode", "col-means", "--source-manifest",
                            src, "--target-manifest", tgt, "--tile-cols", "7",
                            "--out", str(base / "means.jsonl")],
            "topk.jsonl": ["similarity", "--mode", "topk", "--topk", "3",
                           "--source-manifest", src, "--target-manifest", tgt,
                           "--out", str(base / "topk.jsonl")],
            "avg.jsonl": ["curate", "--strategy", "avg-sim", "--capacity", "12",
                          "--source-manifest", src, "--target-manifest", tgt,
                          "--out", str(base / "avg.jsonl")],
            "knn.jsonl": ["curate", "--strategy", "knn", "--capacity", "8",
                          "--seed", "5", "--source-manifest", src,
                          "--target-manifest", tgt, "--out", str(base / "knn.jsonl")],
            "heur.jsonl": ["curate", "--strategy", "heuristic", "--metadata",
                           str(metadata), "--allowed-categories",
                           "Food and Entertaining", "--vocabulary", "cook",
                           "--out", str(base / "heur.jsonl")],
            "sched.jsonl": ["schedule", "--manifest", str(base / "avg.jsonl"),
                            "--sizes", "10,6,2", "--steps", "99",
                            "--out", str(base / "sched.jsonl")],
            "probe.json": ["probe", "--queries", str(tmp_path / "q.npy"),
                           "--candidates", str(tmp_path / "c.npy"),
                           "--ground-truth", str(tmp_path / "gt.json"),
                           "--out", str(base / "probe.json")],
            "nce.json": ["nce-check", "--batch", "4", "--seed", "1",
                         "--out", str(base / "nce.json")],
        }
        for name, argv in followups.items():
            assert main(argv) == 0, name
        artifacts = {}
        for path in sorted(base.rglob("*")):
            if path.is_file() and not path.name.endswith("run.json") \
                    and path.name != "run-report.json":
                artifacts[str(path.relative_to(base))] = path.read_bytes()
        return artifacts

    first = run_all(tmp_path / "run1")
    second = run_all(tmp_path / "run2")
    assert first.keys() == second.keys()
    diffs = [name for name in first if first[name] != second[name]]
    assert not diffs, f"non-deterministic artifacts: {diffs}"
    print(f"\nACCEPTANCE 9 PASS: {len(first)} primary artifacts byte-identical "
          f"across re-runs of every CLI command")
