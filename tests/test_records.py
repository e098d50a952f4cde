"""The behaviour of the library's records: field equality, hashing and
assignment, repr, and the typed errors of their constructors."""
import numpy as np
import pytest

from cupid import (ArgumentError, ClipMatrix, CurationConfig, CurationEntry, CurationManifest,
                   DataError, HeuristicRules, PoolingMode, RetrievalResult, SchemaError,
                   ScoreGrid, SimilarityView, StagedSchedule, Subtitle, TileConfig, VideoMeta)
from cupid.curation import ScheduleStage
from cupid.store import ManifestEntry


def _manifest(k_reached=None):
    return CurationManifest("knn", [CurationEntry(1, "a", 0.5), CurationEntry(2, "b", 0.25)],
                            {"pool_size": 2}, 0, k_reached=k_reached)


# Per frozen class, one of its fields and a maker: make() gives equal records
# on each call, make("b") one that differs from them in one field.
FROZEN = {
    "ManifestEntry": ("shard", lambda v="a": ManifestEntry(v, "x.shard", 14, 3)),
    "VideoMeta": ("title", lambda v="a": VideoMeta(v, "Food", "How to cook", "human", 61.5)),
    "Subtitle": ("text", lambda v="a": Subtitle(v, 1.0, 2.5)),
    "CurationConfig": ("strategy",
                       lambda v="a": CurationConfig(10, "knn" if v == "a" else "avg_sim")),
    "CurationEntry": ("video_id", lambda v="a": CurationEntry(1, v, 0.5)),
    "HeuristicRules": ("cap",
                       lambda v="a": HeuristicRules(frozenset({v}), frozenset({"pasta"}))),
    "TileConfig": ("threads", lambda v="a": TileConfig(tile_cols=7 if v == "a" else 8)),
}


class TestEquality:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_records_are_equal_by_fields(self, name):
        _, make = FROZEN[name]
        assert make() == make() and not make() != make()
        assert make() != make("b")
        assert make() != ("a",) and make() != object()

    def test_mutable_records_are_equal_by_fields(self):
        assert _manifest() == _manifest()
        assert _manifest() != CurationManifest("knn", [CurationEntry(1, "a", 0.5)])
        stage = ScheduleStage(_manifest(), 5)
        assert StagedSchedule([stage]) == StagedSchedule([ScheduleStage(_manifest(), 5)])
        assert StagedSchedule([stage]) != StagedSchedule([ScheduleStage(_manifest(), 6)])
        assert RetrievalResult([1, 2], {1: 0.5}, 1) == RetrievalResult([1, 2], {1: 0.5}, 1)
        assert RetrievalResult([1, 2], {1: 0.5}, 1) != RetrievalResult([1, 3], {1: 0.5}, 1)

    def test_array_fields_compare_by_identity_first(self):
        values = np.ones((2, 3), dtype=np.float32)
        view = SimilarityView(["t"], ["s"], values)
        assert view == SimilarityView(["t"], ["s"], values)
        assert view != SimilarityView(["u"], ["s"], values)

    def test_curation_manifest_equality_ignores_k_reached(self):
        assert _manifest(k_reached=3) == _manifest(k_reached=None)
        assert _manifest(k_reached=3).k_reached == 3

    def test_default_fields(self):
        config = CurationConfig(5, "avg_sim")
        assert (config.expansion_factor, config.seed, config.pooling) == (3.0, 0, PoolingMode.MEAN)
        manifest = CurationManifest("avg_sim", [])
        assert (manifest.config_echo, manifest.excluded_count, manifest.k_reached) == ({}, 0, None)
        assert manifest.config_echo is not CurationManifest("avg_sim", []).config_echo
        rules = HeuristicRules({"Food"}, {"Pasta"})
        assert (rules.require_human_subtitles, rules.cap) == (False, None)
        assert TileConfig() == TileConfig(tile_cols=4096, threads=1,
                                          max_dense_bytes=2 * 1024 ** 3)


class TestHashAndAssignment:
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_records_hash_by_fields_and_refuse_assignment(self, name):
        field, make = FROZEN[name]
        record = make()
        assert hash(record) == hash(make())
        assert len({record, make(), make("b")}) == 2
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == before

    def test_clip_matrix_refuses_assignment(self):
        clip = ClipMatrix("v", np.ones((1, 2)))
        with pytest.raises(AttributeError):
            clip.video_id = "w"
        with pytest.raises(AttributeError):
            clip.values = np.zeros((1, 2), dtype=np.float32)
        assert clip.video_id == "v" and clip.values.dtype == np.float32

    def test_mutable_records_are_unhashable_and_assignable(self):
        records = [_manifest(),
                   SimilarityView(["t"], ["s"], np.zeros((1, 1), dtype=np.float32)),
                   StagedSchedule([]),
                   ScoreGrid.diagonal(np.zeros((2, 2))),
                   RetrievalResult([1], {1: 1.0}, 1)]
        for record in records:
            with pytest.raises(TypeError):
                hash(record)
        manifest, view, schedule, grid, result = records
        manifest.k_reached = 9
        manifest.entries = []
        view.source_ids = ["u"]
        schedule.stages = [ScheduleStage(_manifest(), 1)]
        grid.scores = np.ones((2, 2))
        result.median_rank = 4
        assert (manifest.k_reached, manifest.entries, view.source_ids, schedule.total_steps(),
                grid.scores.sum(), result.median_rank) == (9, [], ["u"], 1, 4.0, 4)


class TestRepr:
    def test_repr_names_the_class_and_its_fields(self):
        assert repr(CurationEntry(1, "a", 0.5)) == \
            "CurationEntry(rank=1, video_id='a', score=0.5)"
        assert repr(ManifestEntry("a", "x.shard", 14, 3)) == \
            "ManifestEntry(video_id='a', shard='x.shard', offset=14, clip_count=3)"
        assert repr(Subtitle("hi", 1.0, 2.0)) == "Subtitle(text='hi', start_s=1.0, end_s=2.0)"
        assert repr(TileConfig(tile_cols=3)) == \
            f"TileConfig(tile_cols=3, threads=1, max_dense_bytes={2 * 1024 ** 3})"
        assert repr(RetrievalResult([2], {1: 0.0}, 2)) == \
            "RetrievalResult(ranks=[2], recall_at={1: 0.0}, median_rank=2)"
        manifest = repr(_manifest(k_reached=4))
        assert manifest.startswith("CurationManifest(strategy='knn', entries=[CurationEntry(")
        assert manifest.endswith("config_echo={'pool_size': 2}, excluded_count=0, k_reached=4)")
        clip = repr(ClipMatrix("v", np.ones((1, 2))))
        assert clip.startswith("ClipMatrix(video_id='v', values=array(")


class TestConstructorChecks:
    @pytest.mark.parametrize("values, error, message", [
        (np.ones(3), SchemaError, "video 'v': expected a 2-D clip matrix with dim >= 1"),
        (np.ones((2, 0)), SchemaError, "video 'v': expected a 2-D clip matrix with dim >= 1"),
        (np.ones((0, 3)), DataError, "video 'v' has zero clips"),
        (np.array([[1.0, np.nan]]), DataError, "video 'v' contains non-finite values"),
        (np.array([[-np.inf, 1.0]]), DataError, "video 'v' contains non-finite values"),
    ])
    def test_clip_matrix(self, values, error, message):
        with pytest.raises(error) as info:
            ClipMatrix("v", values)
        assert str(info.value) == message

    def test_clip_matrix_stores_contiguous_float32(self):
        values = np.arange(6, dtype=np.float64).reshape(3, 2).T
        clip = ClipMatrix("v", values)
        assert clip.values.dtype == np.float32 and clip.values.flags.c_contiguous
        assert (clip.clip_count, clip.dim) == (2, 3)
        assert (clip.values == values).all()

    @pytest.mark.parametrize("args, message", [
        (("v", "c", "t", "robot", 1.0),
         "video 'v': subtitle_source must be one of ('human', 'asr', 'none')"),
        (("v", "c", "t", "asr", -1.0), "video 'v': negative duration"),
    ])
    def test_video_meta(self, args, message):
        with pytest.raises(DataError) as info:
            VideoMeta(*args)
        assert str(info.value) == message

    def test_subtitle(self):
        with pytest.raises(DataError) as info:
            Subtitle("x", 2.0, 1.0)
        assert str(info.value) == "subtitle spans negative time range (2.0 > 1.0)"

    @pytest.mark.parametrize("kwargs, message", [
        ({"capacity_c": 0, "strategy": "knn"}, "capacity must be >= 1"),
        ({"capacity_c": 1, "strategy": "best"},
         "strategy must be one of ('avg_sim', 'knn', 'heuristic')"),
        ({"capacity_c": 1, "strategy": "knn", "expansion_factor": 1.5},
         "expansion_factor must lie in [2, 4]"),
        ({"capacity_c": 1, "strategy": "knn", "expansion_factor": 4.5},
         "expansion_factor must lie in [2, 4]"),
    ])
    def test_curation_config(self, kwargs, message):
        with pytest.raises(ArgumentError) as info:
            CurationConfig(**kwargs)
        assert str(info.value) == message

    def test_curation_config_takes_any_expansion_outside_knn(self):
        assert CurationConfig(1, "avg_sim", 9.0).expansion_factor == 9.0

    @pytest.mark.parametrize("kwargs, message", [
        ({"allowed_categories": frozenset(), "target_vocabulary": {"a"}},
         "allowed_categories must be non-empty"),
        ({"allowed_categories": {"c"}, "target_vocabulary": {"a"}, "cap": -1},
         "cap must be >= 0"),
    ])
    def test_heuristic_rules(self, kwargs, message):
        with pytest.raises(ArgumentError) as info:
            HeuristicRules(**kwargs)
        assert str(info.value) == message

    def test_heuristic_rules_normalise_their_sets(self):
        rules = HeuristicRules(["Food", "Food"], ["Pasta", "soup"], True, 0)
        assert rules.allowed_categories == frozenset({"Food"})
        assert rules.target_vocabulary == frozenset({"pasta", "soup"})
        assert type(rules.allowed_categories) is frozenset
        assert (rules.require_human_subtitles, rules.cap) == (True, 0)

    @pytest.mark.parametrize("kwargs, message", [
        ({"tile_cols": 0}, "tile_cols must be >= 1"),
        ({"threads": 0}, "threads must be >= 1"),
        ({"max_dense_bytes": -1}, "max_dense_bytes must be >= 0"),
    ])
    def test_tile_config(self, kwargs, message):
        with pytest.raises(ArgumentError) as info:
            TileConfig(**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("scores, mask, message", [
        (np.zeros((2, 3)), np.ones((2, 3), dtype=bool),
         "scores must be a square B x B matrix with B >= 1"),
        (np.zeros((0, 0)), np.ones((0, 0), dtype=bool),
         "scores must be a square B x B matrix with B >= 1"),
        (np.array([[0.0, np.inf], [0.0, 0.0]]), np.eye(2, dtype=bool), "scores must be finite"),
        (np.zeros((2, 2)), np.eye(3, dtype=bool), "positive_mask shape must match scores"),
        (np.zeros((2, 2)), np.zeros((2, 2), dtype=bool),
         "positive_mask diagonal must be all true"),
    ])
    def test_score_grid(self, scores, mask, message):
        with pytest.raises(DataError) as info:
            ScoreGrid(scores, mask)
        assert str(info.value) == message

    def test_score_grid_converts_its_arrays(self):
        grid = ScoreGrid([[1, 2], [3, 4]], [[1, 0], [0, 1]])
        assert grid.scores.dtype == np.float64 and grid.positive_mask.dtype == bool
        assert grid.batch == 2

    @pytest.mark.parametrize("entries, message", [
        ([CurationEntry(1, "a", None), CurationEntry(2, "a", None)],
         "curation manifest has duplicate video ids"),
        ([CurationEntry(1, "a", None), CurationEntry(3, "b", None)],
         "manifest ranks not contiguous at position 2"),
    ])
    def test_curation_manifest(self, entries, message):
        with pytest.raises(DataError) as info:
            CurationManifest("heuristic", entries)
        assert str(info.value) == message
