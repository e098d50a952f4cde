"""Curation strategies, overlap exclusion, and the incremental schedule."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cupid import (
    ArgumentError,
    CapacityError,
    CurationConfig,
    CurationEntry,
    CurationManifest,
    FormatError,
    HeuristicRules,
    VideoMeta,
    build_incremental_schedule,
    curate_avg_sim,
    curate_heuristic,
    curate_knn,
    exclude_overlap,
)
from cupid.curation import (
    knn_candidate_pool,
    read_curation_manifest,
    tokenize_title,
    write_curation_manifest,
    write_schedule,
)
from cupid.similarity import SimilarityView

from helpers import (knn_pool_reference, matrix_topk_provider, read_schedule,
                     sort_by_score_then_id, title_vocabulary)


class TestAvgSim:
    def test_top_two_of_three(self):
        manifest = curate_avg_sim(["a", "b", "d"], np.array([0.9, 0.1, 0.5]), 2)
        assert manifest.video_ids() == ["a", "d"]
        assert [e.rank for e in manifest.entries] == [1, 2]
        assert [e.score for e in manifest.entries] == [0.9, 0.5]

    def test_full_ranking_at_capacity_n(self):
        manifest = curate_avg_sim(["a", "b", "d"], np.array([0.9, 0.1, 0.5]), 3)
        assert manifest.video_ids() == ["a", "d", "b"]

    def test_tie_prefers_smaller_id(self):
        manifest = curate_avg_sim(["b", "a"], np.array([0.5, 0.5]), 1)
        assert manifest.video_ids() == ["a"]

    def test_capacity_above_n_rejected(self):
        with pytest.raises(CapacityError):
            curate_avg_sim(["a"], np.array([1.0]), 2)

    def test_scores_non_increasing(self, rng):
        ids = [f"v{i:03d}" for i in range(50)]
        means = rng.normal(size=50)
        manifest = curate_avg_sim(ids, means, 20)
        scores = [e.score for e in manifest.entries]
        assert scores == sorted(scores, reverse=True)

    def test_matches_brute_force_sort(self, rng):
        for trial in range(90):
            n = int(rng.integers(1, 60))
            c = int(rng.integers(1, n + 1))
            if trial % 3 == 0:
                ids = [f"v{i:03d}" for i in range(n)]
            else:  # shuffled, and "v10" sorts before "v9"
                ids = [f"v{i}" for i in rng.permutation(3 * n)[:n]]
            if trial % 2 == 0:
                means = rng.normal(size=n)
            else:  # tie groups, with 0.0 and -0.0 tying
                means = rng.choice([0.0, -0.0, 0.5, -0.25], size=n)
            order = sort_by_score_then_id(ids, means)[:c]
            manifest = curate_avg_sim(ids, means, c)
            assert manifest.video_ids() == [ids[i] for i in order]
            assert [e.score for e in manifest.entries] == [float(means[i]) for i in order]

    def test_nested_in_capacity(self, rng):
        ids = [f"v{i:03d}" for i in range(40)]
        means = rng.normal(size=40)
        picks = {c: set(curate_avg_sim(ids, means, c).video_ids()) for c in (3, 10, 25)}
        assert picks[3] <= picks[10] <= picks[25]


def _fixture_view(rng, p=5, n=20):
    ids = [f"s{i:03d}" for i in range(n)]
    matrix = rng.normal(size=(p, n)).astype(np.float32)
    return SimilarityView([f"t{j}" for j in range(p)], ids, matrix)


def _oracle_pool(view, pool_target):
    """Independent pool recomputation: full per-row sorts, prefix unions."""
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


class TestKnn:
    def test_fixture_membership_and_size(self, rng):
        view = _fixture_view(rng)
        provider = matrix_topk_provider(view)
        manifest = curate_knn(provider, 20, c=4, expansion_factor=3.0, seed=7)
        assert len(manifest.entries) == 4
        pool_ids = _oracle_pool(view, round(3.0 * 4))
        assert set(manifest.video_ids()) <= pool_ids

    def test_pool_matches_oracle(self, rng):
        for _ in range(10):
            view = _fixture_view(rng, p=int(rng.integers(1, 8)),
                                 n=int(rng.integers(4, 40)))
            target = int(rng.integers(2, 3 * len(view.source_ids)))
            pool, _ = knn_candidate_pool(matrix_topk_provider(view),
                                         len(view.source_ids), target)
            assert {vid for vid, _ in pool} == _oracle_pool(view, target)

    def test_sample_is_whole_pool_when_pool_equals_c(self, rng):
        # N == c: growth caps at k = N, pool is the whole corpus.
        view = _fixture_view(rng, p=3, n=4)
        manifest = curate_knn(matrix_topk_provider(view), 4, c=4,
                              expansion_factor=2.0, seed=11)
        best = view.matrix.max(axis=0)
        order = sort_by_score_then_id(view.source_ids, best)
        assert manifest.video_ids() == [view.source_ids[i] for i in order]

    def test_deterministic_given_seed(self, rng):
        view = _fixture_view(rng)
        provider = matrix_topk_provider(view)
        a = curate_knn(provider, 20, c=5, expansion_factor=2.5, seed=123)
        b = curate_knn(provider, 20, c=5, expansion_factor=2.5, seed=123)
        assert a.entries == b.entries
        other = curate_knn(provider, 20, c=5, expansion_factor=2.5, seed=124)
        assert other.entries != a.entries or len(a.entries) == 20

    def test_scores_are_best_per_row(self, rng):
        view = _fixture_view(rng, p=4, n=6)
        manifest = curate_knn(matrix_topk_provider(view), 6, c=6,
                              expansion_factor=2.0, seed=0)
        best = {vid: float(np.float32(view.matrix[:, i].max()))
                for i, vid in enumerate(view.source_ids)}
        for e in manifest.entries:
            assert e.score == best[e.video_id]

    def test_expansion_factor_bounds(self, rng):
        view = _fixture_view(rng)
        provider = matrix_topk_provider(view)
        for bad in (1.5, 4.5):
            with pytest.raises(ArgumentError):
                curate_knn(provider, 20, c=2, expansion_factor=bad, seed=0)

    def test_capacity_above_n_rejected(self, rng):
        view = _fixture_view(rng)
        with pytest.raises(CapacityError):
            curate_knn(matrix_topk_provider(view), 20, c=21, expansion_factor=3.0, seed=0)


def _signed(pool):
    """Pool pairs with the sign of each score, so -0.0 and 0.0 differ."""
    return [(vid, score, math.copysign(1.0, score)) for vid, score in pool]


class TestKnnPoolArrays:
    """knn_candidate_pool on RowTopK arrays against the dict walk over
    (id, score) rows that it replaced (helpers.knn_pool_reference)."""

    # Few distinct scores, both zeros among them: tie groups are large, so
    # the depth that reaches the pool target often cuts through one.
    LEVELS = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_dict_walk(self, data):
        p = data.draw(st.integers(1, 6), label="targets")
        n = data.draw(st.integers(1, 40), label="sources")
        values = data.draw(st.lists(st.sampled_from(self.LEVELS),
                                    min_size=p * n, max_size=p * n), label="scores")
        # Ids not in column order, so ties by id are not ties by column.
        perm = data.draw(st.permutations(range(n)), label="id order")
        view = SimilarityView([f"t{j}" for j in range(p)], [f"s{i:02d}" for i in perm],
                              np.array(values, dtype=np.float32).reshape(p, n))
        # Targets above n make the reference's k grow to n.
        pool_target = data.draw(st.integers(1, n + 8), label="pool target")
        provider, calls = matrix_topk_provider(view), []

        def counting_provider(k):
            calls.append(k)
            return provider(k)

        got_pool, got_k = knn_candidate_pool(counting_provider, n, pool_target)
        want_pool, want_k = knn_pool_reference(view, pool_target)
        # One call is enough: a k-deep row holds k distinct ids.
        assert calls == [min(max(8, pool_target), n)]
        assert got_k == want_k
        assert _signed(got_pool) == _signed(want_pool)

    def test_first_zero_met_is_kept(self):
        # "a" is met as -0.0 in row 0, then as 0.0 in row 1 at the same depth.
        view = SimilarityView(["t0", "t1"], ["a", "b"],
                              np.array([[-0.0, -1.0], [0.0, -1.0]], dtype=np.float32))
        pool, k = knn_candidate_pool(matrix_topk_provider(view), 2, 1)
        assert k == 1
        assert _signed(pool) == [("a", -0.0, -1.0)]
        assert _signed(pool) == _signed(knn_pool_reference(view, 1)[0])

    def test_single_row_reaches_n(self):
        view = SimilarityView(["t0"], ["c", "a", "b"],
                              np.array([[0.5, 0.5, 1.0]], dtype=np.float32))
        pool, k = knn_candidate_pool(matrix_topk_provider(view), 3, 10)
        assert k == 3
        assert pool == [("b", 1.0), ("a", 0.5), ("c", 0.5)]


def _meta(vid, category="Food and Entertaining", title="how to cook pasta",
          subtitle_source="human"):
    return VideoMeta(vid, category, title, subtitle_source, 60.0)


class TestHeuristic:
    def test_category_stage_retains_expected_share(self):
        # 41 of 100 videos carry the whitelisted category; the other two
        # rules are satisfied by construction, so the category rule decides.
        metas = [_meta(f"v{i:03d}",
                       category="Food and Entertaining" if i < 41 else "Autos")
                 for i in range(100)]
        rules = HeuristicRules(frozenset({"Food and Entertaining"}),
                               frozenset({"cook"}))
        manifest = curate_heuristic(metas, rules)
        assert len(manifest.entries) == 41
        assert manifest.video_ids() == [f"v{i:03d}" for i in range(41)]

    def test_title_without_vocabulary_overlap_excluded(self):
        rules = HeuristicRules(frozenset({"Food and Entertaining"}),
                               frozenset({"salad"}))
        manifest = curate_heuristic([_meta("v1", title="welding basics")], rules)
        assert manifest.entries == []

    def test_six_video_fixture_keeps_exactly_two(self):
        metas = [
            _meta("v1"),                                     # passes all three
            _meta("v2", title="pasta again"),                # passes all three
            _meta("v3", category="Autos"),                   # wrong category
            _meta("v4", title="welding basics"),             # no vocab overlap
            _meta("v5", subtitle_source="asr"),              # machine subtitles
            _meta("v6", category="Autos", title="fixing cars"),
        ]
        rules = HeuristicRules(frozenset({"Food and Entertaining"}),
                               frozenset({"cook", "pasta"}),
                               require_human_subtitles=True)
        manifest = curate_heuristic(metas, rules)
        assert manifest.video_ids() == ["v1", "v2"]
        assert all(e.score is None for e in manifest.entries)

    def test_subtitle_rule_only_when_required(self):
        metas = [_meta("v1", subtitle_source="asr")]
        relaxed = HeuristicRules(frozenset({"Food and Entertaining"}), frozenset({"cook"}))
        assert curate_heuristic(metas, relaxed).video_ids() == ["v1"]

    def test_cap_truncates_by_ascending_id(self):
        metas = [_meta(vid) for vid in ("v3", "v1", "v2")]
        rules = HeuristicRules(frozenset({"Food and Entertaining"}),
                               frozenset({"cook"}), cap=2)
        assert curate_heuristic(metas, rules).video_ids() == ["v1", "v2"]

    def test_title_tokenization_strips_punctuation_and_case(self):
        assert tokenize_title("COOK, with: pasta!") == {"cook", "with", "pasta"}

    def test_vocabulary_from_target_metadata(self):
        metas = [_meta("t1", title="Best PASTA dish"), _meta("t2", title="soup time")]
        assert title_vocabulary(metas) >= {"pasta", "soup", "time"}

    def test_empty_categories_rejected(self):
        with pytest.raises(ArgumentError):
            HeuristicRules(frozenset(), frozenset({"x"}))


def _manifest(n, strategy="avg_sim", start=0):
    entries = [CurationEntry(r, f"v{start + r - 1:06d}", float(n - r))
               for r in range(1, n + 1)]
    return CurationManifest(strategy, entries)


class TestExcludeOverlap:
    def test_disjoint_set_is_noop(self):
        manifest = _manifest(5)
        out = exclude_overlap(manifest, {"zz"})
        assert out.entries == manifest.entries
        assert out.excluded_count == 0

    def test_full_overlap_empties_manifest(self):
        manifest = _manifest(4)
        out = exclude_overlap(manifest, set(manifest.video_ids()))
        assert out.entries == []
        assert out.excluded_count == 4

    def test_partial_overlap_recompacts_ranks(self):
        manifest = _manifest(10)
        drop = {"v000001", "v000004", "v000008"}
        out = exclude_overlap(manifest, drop)
        assert len(out.entries) == 7
        assert [e.rank for e in out.entries] == list(range(1, 8))
        assert not drop & set(out.video_ids())
        assert out.excluded_count == 3


class TestSchedule:
    def test_production_scale_split(self):
        manifests = [_manifest(200000), _manifest(100000), _manifest(15000)]
        schedule = build_incremental_schedule(manifests, 100000)
        assert [s.steps for s in schedule.stages] == [33334, 33333, 33333]
        assert schedule.total_steps() == 100000

    def test_single_stage_takes_all_steps(self):
        schedule = build_incremental_schedule([_manifest(10)], 777)
        assert [s.steps for s in schedule.stages] == [777]

    def test_remainder_goes_to_earliest(self):
        schedule = build_incremental_schedule([_manifest(5), _manifest(2)], 5)
        assert [s.steps for s in schedule.stages] == [3, 2]

    def test_non_decreasing_sizes_rejected(self):
        with pytest.raises(ArgumentError):
            build_incremental_schedule([_manifest(5), _manifest(5)], 10)

    def test_fewer_steps_than_stages_rejected(self):
        with pytest.raises(ArgumentError):
            build_incremental_schedule([_manifest(3), _manifest(2)], 1)


class TestManifestInvariants:
    def test_duplicate_ids_rejected(self):
        entries = [CurationEntry(1, "a", None), CurationEntry(2, "a", None)]
        with pytest.raises(Exception):
            CurationManifest("heuristic", entries)

    def test_non_contiguous_ranks_rejected(self):
        entries = [CurationEntry(1, "a", None), CurationEntry(3, "b", None)]
        with pytest.raises(Exception):
            CurationManifest("heuristic", entries)


class TestSerialization:
    def test_manifest_round_trip(self, tmp_path):
        config = CurationConfig(capacity_c=3, strategy="avg_sim")
        manifest = curate_avg_sim(["a", "b", "d"], np.array([0.9, 0.1, 0.5]), 3, config)
        path = tmp_path / "m.jsonl"
        write_curation_manifest(manifest, path)
        loaded = read_curation_manifest(path)
        assert loaded.entries == manifest.entries
        assert loaded.strategy == manifest.strategy
        assert loaded.excluded_count == manifest.excluded_count
        assert loaded.config_echo == manifest.config_echo

    @given(rows=st.lists(st.tuples(
               st.text(st.one_of(st.sampled_from('a"\\\t\x00\x1f\x7f %{}é'),
                                 st.characters(blacklist_categories=("Cs",))), max_size=5),
               st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False))),
               unique_by=lambda row: row[0]),
           strategy=st.sampled_from(["avg_sim", "knn", "heuristic", 'q"é']))
    @settings(max_examples=200, deadline=None)
    def test_manifest_writes_json_dumps_lines(self, tmp_path_factory, rows, strategy):
        path = tmp_path_factory.mktemp("m") / "m.jsonl"
        entries = [CurationEntry(rank, vid, score) for rank, (vid, score) in enumerate(rows, 1)]
        write_curation_manifest(CurationManifest(strategy, entries), path)
        assert path.read_bytes() == "".join(
            json.dumps({"rank": e.rank, "video_id": e.video_id, "score": e.score,
                        "strategy": strategy}) + "\n" for e in entries).encode("utf-8")

    def test_rows_that_name_different_strategies_are_a_format_error(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_curation_manifest(CurationManifest("knn", [CurationEntry(1, "a", 0.5),
                                                         CurationEntry(2, "b", 0.25)]), path)
        path.write_text(path.read_text().replace('"knn"', '"avg_sim"', 1))
        with pytest.raises(FormatError) as got:
            read_curation_manifest(path)
        assert str(got.value) == f"{path}: rows name different strategies ['avg_sim', 'knn']"

    def test_a_sidecar_that_names_another_strategy_is_a_format_error(self, tmp_path):
        path = tmp_path / "m.jsonl"
        write_curation_manifest(CurationManifest("knn", [CurationEntry(1, "a", 0.5)]), path)
        sidecar = tmp_path / "m.jsonl.meta.json"
        sidecar.write_text(sidecar.read_text().replace('"knn"', '"avg_sim"'))
        with pytest.raises(FormatError) as got:
            read_curation_manifest(path)
        assert str(got.value) == f"{path}: rows name strategy 'knn', its sidecar 'avg_sim'"

    def test_manifest_bytes_deterministic(self, tmp_path, rng):
        ids = [f"v{i}" for i in range(20)]
        means = rng.normal(size=20)
        paths = []
        for run in range(2):
            path = tmp_path / f"m{run}.jsonl"
            write_curation_manifest(curate_avg_sim(ids, means, 10), path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_schedule_round_trip(self, tmp_path):
        manifests = [_manifest(6), _manifest(3), _manifest(1)]
        schedule = build_incremental_schedule(manifests, 10)
        mpaths = []
        for i, stage in enumerate(schedule.stages, 1):
            p = tmp_path / f"stage{i}.jsonl"
            write_curation_manifest(stage.manifest, p)
            mpaths.append(p)
        spath = tmp_path / "schedule.jsonl"
        write_schedule(schedule, mpaths, spath)
        rows = read_schedule(spath)
        assert [r[0] for r in rows] == [1, 2, 3]
        assert [r[2] for r in rows] == [s.steps for s in schedule.stages]
        for (stage_no, mpath, _), stage in zip(rows, schedule.stages):
            reloaded = read_curation_manifest(mpath)
            assert reloaded.entries == stage.manifest.entries


class TestConfig:
    def test_expansion_factor_validated(self):
        with pytest.raises(ArgumentError):
            CurationConfig(capacity_c=5, strategy="knn", expansion_factor=5.0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ArgumentError):
            CurationConfig(capacity_c=5, strategy="vibes")
