"""Pair scoring, dense kernel builds, and streaming reducers."""
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cupid.kernels as kernels
from cupid import similarity
from cupid import (
    ArgumentError,
    CapacityError,
    ClipMatrix,
    CorpusHandle,
    DataError,
    PoolingMode,
    SchemaError,
    SimilarityView,
    TileConfig,
    build_similarity_matrix,
    curate_avg_sim,
    pair_similarity,
    stream_column_means,
    stream_row_topk,
)
from cupid.similarity import _RowTopK, save_matrix, write_column_means

from helpers import (
    column_means_from_matrix,
    fraction_max_score,
    load_matrix,
    load_videos,
    naive_matrix,
    naive_pair_score,
    random_corpus,
    random_videos,
    read_column_means,
    row_topk_from_matrix,
    sort_by_score_then_id,
)

POOLINGS = [PoolingMode.MEAN, PoolingMode.MAX]


def _single(vid, *rows):
    return ClipMatrix(vid, np.array(rows, dtype=np.float32))


class TestPairSimilarity:
    def test_identical_unit_clips(self):
        v = _single("a", [1.0, 0.0, 0.0])
        assert pair_similarity(v, _single("b", [1.0, 0.0, 0.0])) == 1.0

    def test_orthogonal_unit_clips(self):
        a = _single("a", [1.0, 0.0])
        b = _single("b", [0.0, 1.0])
        assert pair_similarity(a, b) == 0.0

    def test_two_by_two_fixture(self):
        target = _single("t", [1.0, 0.0], [0.0, 1.0])
        source = _single("s", [1.0, 0.0], [1.0, 1.0])
        # pairwise dots: {1, 1, 0, 1}
        assert pair_similarity(target, source, PoolingMode.MEAN) == 0.75
        assert pair_similarity(target, source, PoolingMode.MAX) == 1.0

    def test_dim_mismatch(self):
        with pytest.raises(SchemaError):
            pair_similarity(_single("a", [1.0, 0.0]), _single("b", [1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_matches_naive_oracle(self, rng, pooling):
        for _ in range(50):
            a, b = random_videos(rng, "x", 2, 6, 9)
            want = naive_pair_score(a, b, pooling)
            got = pair_similarity(a, b, pooling)
            assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12)

    def test_mean_pooling_symmetry_is_exact(self, rng):
        for _ in range(100):
            a, b = random_videos(rng, "x", 2, 5, 7)
            assert pair_similarity(a, b) == pair_similarity(b, a)

    def test_mean_never_exceeds_max_beyond_rounding(self, rng):
        # The grand mean can land one ulp above the max when all pair dots
        # are equal, so allow that much.
        for _ in range(100):
            a, b = random_videos(rng, "x", 2, 5, 7)
            mean = pair_similarity(a, b, PoolingMode.MEAN)
            best = pair_similarity(a, b, PoolingMode.MAX)
            assert mean <= best or math.isclose(mean, best, rel_tol=1e-12)


def _stacked(videos):
    """Kernel arguments for a tile: float64 clip rows and intp offsets."""
    clips = np.concatenate([v.values for v in videos]).astype(np.float64)
    offsets = np.cumsum([0] + [v.clip_count for v in videos]).astype(np.intp)
    return clips, offsets


class TestKernels:
    def test_max_video_blocks_keep_pair_scores(self, rng, monkeypatch):
        # Clip counts 1-9 mixed on both sides, and one video on each side of
        # a block when the block budget is forced below one video pair.
        def videos(prefix, n):
            return [ClipMatrix(f"{prefix}{i}", rng.normal(size=(c, 6)).astype(np.float32))
                    for i, c in enumerate(rng.permutation(np.arange(n) % 9 + 1))]

        t_clips, t_offsets = _stacked(videos("t", 14))
        s_clips, s_offsets = _stacked(videos("s", 40))
        whole = kernels.max_score_block(t_clips, t_offsets, s_clips, s_offsets)
        monkeypatch.setattr(kernels, "_GRID_BYTES", 1)
        chunked = kernels.max_score_block(t_clips, t_offsets, s_clips, s_offsets)
        assert (chunked == whole).all()
        for j in range(len(t_offsets) - 1):
            tj = t_clips[t_offsets[j]:t_offsets[j + 1]]
            for i in range(len(s_offsets) - 1):
                si = s_clips[s_offsets[i]:s_offsets[i + 1]]
                pair = kernels.max_score_block(tj, np.array([0, len(tj)], dtype=np.intp),
                                               si, np.array([0, len(si)], dtype=np.intp))
                assert pair[0, 0] == whole[j, i]
                assert whole[j, i].tobytes() == fraction_max_score(tj, si).tobytes()

    @pytest.mark.parametrize("pooling, name", [(PoolingMode.MEAN, "mean_score_block"),
                                               (PoolingMode.MAX, "max_score_block")])
    def test_patched_kernel_is_the_one_called(self, rng, monkeypatch, pooling, name):
        # Tracing wraps the kernels by assigning to the module's attributes,
        # so the scoring code must look them up at call time.
        target = random_corpus(rng, "t", "target", 2, 3, 4)
        source = random_corpus(rng, "s", "source", 5, 3, 4)
        original = getattr(kernels, name)
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(kernels.active(), name, counted)
        build_similarity_matrix(target, source, pooling)
        assert calls


class TestDenseMatrix:
    def test_one_by_one_identical_unit_clip(self):
        target = CorpusHandle.from_arrays("t", "target", [_single("t0", [1.0, 0.0])])
        source = CorpusHandle.from_arrays("s", "source", [_single("s0", [1.0, 0.0])])
        view = build_similarity_matrix(target, source)
        assert view.matrix.tolist() == [[1.0]]

    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_matches_naive_double_loop(self, rng, pooling):
        target = random_corpus(rng, "t", "target", 2, 4, 8)
        source = random_corpus(rng, "s", "source", 3, 4, 8)
        view = build_similarity_matrix(target, source, pooling)
        reference = naive_matrix(target, source, pooling)
        np.testing.assert_allclose(view.matrix.astype(np.float64), reference, rtol=1e-5)

    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_entries_are_rounded_pair_scores(self, rng, pooling):
        target = random_corpus(rng, "t", "target", 3, 4, 8)
        source = random_corpus(rng, "s", "source", 5, 4, 8)
        view = build_similarity_matrix(target, source, pooling)
        for j, tid in enumerate(view.target_ids):
            for i, sid in enumerate(view.source_ids):
                score = pair_similarity(target.load_video(tid),
                                        source.load_video(sid), pooling)
                assert view.matrix[j, i] == np.float32(score)

    @pytest.mark.usefixtures("threads_for_any_work")
    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_tiling_and_threads_do_not_change_bits(self, rng, pooling):
        target = random_corpus(rng, "t", "target", 5, 3, 6)
        source = random_corpus(rng, "s", "source", 37, 3, 6)
        baseline = build_similarity_matrix(
            target, source, pooling, TileConfig(tile_cols=37)).matrix
        for tile in (TileConfig(tile_cols=1),
                     TileConfig(tile_cols=7, threads=4),
                     TileConfig(tile_cols=5, threads=8),
                     TileConfig(tile_cols=37)):
            got = build_similarity_matrix(target, source, pooling, tile).matrix
            assert (got == baseline).all()

    def test_memory_budget_capacity_error(self, rng):
        target = random_corpus(rng, "t", "target", 4, 2, 4)
        source = random_corpus(rng, "s", "source", 10, 2, 4)
        with pytest.raises(CapacityError, match="streaming"):
            build_similarity_matrix(target, source, PoolingMode.MEAN,
                                    TileConfig(max_dense_bytes=64))

    @pytest.mark.parametrize("field, least", [("tile_cols", 1), ("threads", 1),
                                              ("max_dense_bytes", 0)])
    def test_tile_config_rejects_a_value_below_its_least(self, field, least):
        with pytest.raises(ArgumentError, match=f"^{field} must be >= {least}$"):
            TileConfig(**{field: least - 1})
        assert getattr(TileConfig(**{field: least}), field) == least

    def test_dim_mismatch(self, rng):
        target = random_corpus(rng, "t", "target", 2, 2, 4)
        source = random_corpus(rng, "s", "source", 2, 2, 6)
        with pytest.raises(SchemaError):
            build_similarity_matrix(target, source)


class TestColumnMeans:
    def test_matched_orthogonal_pairs(self):
        # Two orthogonal unit-clip videos on each side -> K = [[1,0],[0,1]].
        target = CorpusHandle.from_arrays("t", "target", [
            _single("t0", [1.0, 0.0]), _single("t1", [0.0, 1.0])])
        source = CorpusHandle.from_arrays("s", "source", [
            _single("s0", [1.0, 0.0]), _single("s1", [0.0, 1.0])])
        ids, means = stream_column_means(target, source)
        assert ids == ["s0", "s1"]
        assert means.tolist() == [0.5, 0.5]

    @pytest.mark.usefixtures("threads_for_any_work")
    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_equals_dense_derivation_bitwise(self, rng, pooling):
        target = random_corpus(rng, "t", "target", 6, 4, 5)
        source = random_corpus(rng, "s", "source", 41, 4, 5)
        dense = build_similarity_matrix(target, source, pooling)
        _, want = column_means_from_matrix(dense)
        for tile in (TileConfig(tile_cols=1), TileConfig(tile_cols=7, threads=4),
                     TileConfig(tile_cols=41, threads=8)):
            _, got = stream_column_means(target, source, pooling, tile)
            assert (got == want).all()

    def test_single_target_row(self, rng):
        target = random_corpus(rng, "t", "target", 1, 3, 4)
        source = random_corpus(rng, "s", "source", 9, 3, 4)
        dense = build_similarity_matrix(target, source)
        _, means = stream_column_means(target, source)
        assert (means == dense.matrix[0].astype(np.float64)).all()

    def test_empty_target_rejected(self, rng):
        target = CorpusHandle.from_arrays("t", "target", [])
        source = random_corpus(rng, "s", "source", 3, 2, 4)
        with pytest.raises(ArgumentError):
            stream_column_means(target, source)


def _selection(ids, means, c):
    """curate_avg_sim's picks as (rank, id, score bits), or CapacityError."""
    try:
        manifest = curate_avg_sim(ids, means, c)
    except CapacityError:
        return CapacityError
    return [(e.rank, e.video_id, np.float64(e.score).tobytes()) for e in manifest.entries]


def _assert_pruned_matches_full(target, source, c, tile=TileConfig(tile_cols=3, threads=2)):
    try:
        full_ids, full_means = stream_column_means(target, source, PoolingMode.MEAN, tile)
    except DataError as exc:
        # A score overflows float32: the pruned pass scores that source too.
        with pytest.raises(DataError) as got:
            stream_column_means(target, source, PoolingMode.MEAN, tile, top=c)
        assert str(got.value) == str(exc)
        return None
    ids, means = stream_column_means(target, source, PoolingMode.MEAN, tile, top=c)
    assert _selection(ids, means, c) == _selection(full_ids, full_means, c)
    # a subset of the sources in source order, each with its full-pass bits
    index = {vid: i for i, vid in enumerate(full_ids)}
    rows = [index[vid] for vid in ids]
    assert rows == sorted(set(rows))
    assert means.tobytes() == full_means[rows].tobytes()
    return len(ids)


class TestPrunedColumnMeans:
    """stream_column_means(top=c) scores only the sources that can reach
    the top c, and the top c it gives is the full pass's, bit for bit."""

    # Clip scales: ordinary; tiny, whose scores are float32 subnormals or
    # round to zero; huge, whose scores may overflow float32, which both
    # passes must report as the same DataError.
    SCALES = (1.0, 2.0 ** -68, 2.0 ** -76, 2.0 ** 63, 2.0 ** 66)

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_top_c_matches_full_pass(self, data):
        p = data.draw(st.integers(1, 4), label="P")
        n = data.draw(st.integers(2, 14), label="N")
        dim = data.draw(st.integers(1, 3), label="dim")
        scales = data.draw(st.lists(st.sampled_from(self.SCALES), min_size=1, max_size=2,
                                    unique=True), label="scales")
        # small integers give exact products and ties; float32 mantissas
        # give scores that float32 rounds
        entries = st.integers(-3, 3) | st.floats(-4, 4, width=32, allow_subnormal=False)

        def clips():
            rows = data.draw(st.lists(st.lists(entries, min_size=dim, max_size=dim),
                                      min_size=1, max_size=3))
            return np.array(rows, dtype=np.float32) * np.float32(data.draw(
                st.sampled_from(scales)))

        targets = [clips() for _ in range(p)]
        sources = []
        for _ in range(n):
            kind = data.draw(st.sampled_from(["new", "copy", "nudge", "negate"])
                             if sources else st.just("new"))
            if kind == "new":
                values = clips()
            else:
                values = data.draw(st.sampled_from(sources)).copy()
                if kind == "negate":
                    values = -values
                elif kind == "nudge":
                    # one float32 step: a mean within the bound of its base
                    at = data.draw(st.integers(0, values.size - 1))
                    values.flat[at] = np.nextafter(
                        values.flat[at], np.float32(data.draw(st.sampled_from([1, -1]))))
            sources.append(values)
        # ids that are not in column order
        names = data.draw(st.permutations([f"s{i:02d}" for i in range(n)]))
        target = CorpusHandle.from_arrays(
            "t", "target", [ClipMatrix(f"t{j}", v) for j, v in enumerate(targets)])
        source = CorpusHandle.from_arrays(
            "s", "source", [ClipMatrix(vid, v) for vid, v in zip(names, sources)])
        c = data.draw(st.sampled_from([1, n - 1, n, n + 1]) | st.integers(1, n), label="c")
        tile = TileConfig(tile_cols=data.draw(st.integers(1, 5)),
                          threads=data.draw(st.integers(1, 2)))
        _assert_pruned_matches_full(target, source, c, tile)

    def test_sources_within_the_bound_of_the_cut_are_all_kept(self, rng):
        # Forty one-step variants of one source, ids in reverse column order:
        # every estimate lies within the bound of the cut.
        target = random_corpus(rng, "t", "target", 5, 3, 8)
        base = rng.normal(size=(3, 8)).astype(np.float32)
        videos = []
        for i in range(40):
            values = base.copy()
            values.flat[i % base.size] = np.nextafter(values.flat[i % base.size],
                                                      np.float32(i % 2 * 2 - 1))
            videos.append(ClipMatrix(f"v{39 - i:02d}", values))
        source = CorpusHandle.from_arrays("s", "source", videos)
        for c in (1, 7, 39):
            assert _assert_pruned_matches_full(target, source, c) == 40

    def test_float32_rounding_ties_keep_the_smaller_id(self):
        # One clip of dim 1 on each side, so Cauchy-Schwarz is tight. Two
        # sources one float32 step apart whose scores round to one float32
        # have estimates 0.75 ulp apart; their bounds cut to a quarter would
        # cover only 0.71 ulp. The lower one has the smaller id and wins.
        t = np.float32(0.75)
        s = np.float32(1.9) + np.arange(64, dtype=np.float32) * np.spacing(np.float32(1.9))
        x = (np.float64(t) * s).astype(np.float32)
        ties = np.flatnonzero(x[:-1] == x[1:])
        assert len(ties) >= 8
        target = CorpusHandle.from_arrays("t", "target", [ClipMatrix("t", [[t]])])
        for i in ties:
            source = CorpusHandle.from_arrays(
                "s", "source", [ClipMatrix("b", [[s[i + 1]]]), ClipMatrix("a", [[s[i]]])])
            _assert_pruned_matches_full(target, source, 1)
            assert curate_avg_sim(*stream_column_means(target, source, top=1), 1
                                  ).video_ids() == ["a"]

    def test_clear_winners_are_the_only_candidates(self, rng):
        target = random_corpus(rng, "t", "target", 6, 3, 8)
        source = random_corpus(rng, "s", "source", 200, 4, 8)
        assert _assert_pruned_matches_full(target, source, 10) == 10

    @pytest.mark.usefixtures("threads_for_any_work")
    def test_many_threads_on_one_tile_each_keep_the_bits(self, rng):
        # Eight threads write the bounds of one-video tiles into shared arrays.
        target = random_corpus(rng, "t", "target", 4, 3, 8)
        source = random_corpus(rng, "s", "source", 120, 3, 8)
        want = stream_column_means(target, source, top=30)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = stream_column_means(target, source,
                                          tile=TileConfig(tile_cols=1, threads=8), top=30)
                assert got[0] == want[0] and got[1].tobytes() == want[1].tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_top_outside_one_to_n_scores_everything(self, rng):
        target = random_corpus(rng, "t", "target", 3, 2, 4)
        source = random_corpus(rng, "s", "source", 9, 2, 4)
        full_ids, full_means = stream_column_means(target, source)
        for top in (None, 0, -1, 9, 10):
            ids, means = stream_column_means(target, source, top=top)
            assert ids == full_ids and means.tobytes() == full_means.tobytes()

    def test_max_pooling_ignores_top(self, rng):
        target = random_corpus(rng, "t", "target", 3, 2, 4)
        source = random_corpus(rng, "s", "source", 9, 2, 4)
        full = stream_column_means(target, source, PoolingMode.MAX)
        ids, means = stream_column_means(target, source, PoolingMode.MAX, top=2)
        assert ids == full[0] and means.tobytes() == full[1].tobytes()


@pytest.mark.usefixtures("threads_for_any_work")
class TestNonFiniteScores:
    """A pair score that overflows float32 is a DataError naming the first
    such source in source order, in every consumer and for any tiles and
    threads, and numpy warns about nothing."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_overflow_names_the_first_source(self, pooling):
        big = 3e19  # big * big overflows float32
        target = CorpusHandle.from_arrays("t", "target", [
            _single("t0", [big, 0.0]), _single("t1", [-big, 1.0])])
        videos = [_single(f"s{i}", [1.0, 1.0]) for i in range(9)]
        videos[4], videos[7] = _single("s4", [big, 0.0]), _single("s7", [-big, 0.0])
        source = CorpusHandle.from_arrays("s", "source", videos)
        for tile in (TileConfig(), TileConfig(tile_cols=2, threads=3)):
            for run in (lambda: build_similarity_matrix(target, source, pooling, tile),
                        lambda: stream_column_means(target, source, pooling, tile),
                        lambda: stream_column_means(target, source, pooling, tile, top=2),
                        lambda: stream_row_topk(target, source, pooling, 3, tile)):
                with pytest.raises(DataError, match="^source video 's4': a pair score is "
                                                    "not finite in float32$"):
                    run()


class TestTileThreads:
    """_each_tile runs the tiles on the calling thread, and on helper
    threads only for a whole _GRAIN of multiply-adds per thread."""

    def test_small_work_stays_on_the_calling_thread(self):
        spans, runners = [], set()
        before = threading.active_count()

        def work(lo, hi):
            spans.append((lo, hi))
            runners.add(threading.get_ident())
            assert threading.active_count() == before

        similarity._each_tile(10, TileConfig(tile_cols=4, threads=8), work,
                              2 * similarity._GRAIN - 1)
        # one thread: as few tiles as tile_cols allows, not a multiple of eight
        assert spans == [(0, 3), (3, 6), (6, 10)]
        assert runners == {threading.get_ident()}

    def test_no_tile_starts_after_one_has_failed(self):
        started = []

        def work(lo, hi):
            started.append(lo)
            if lo == 2:
                raise DataError(f"tile {lo}")

        with pytest.raises(DataError, match="^tile 2$"):
            similarity._each_tile(8, TileConfig(tile_cols=1), work, 0)
        assert started == [0, 1, 2]

    @staticmethod
    def _two_tiles_at_once(fail, started):
        """Run 8 one-video tiles on two threads, appending each tile's lo to
        started. Tiles 0 and 1 wait for each other, so they run at once on
        different threads, then call fail(lo, caller), caller telling
        whether the calling thread runs lo."""
        together = threading.Barrier(2, timeout=10)
        caller = threading.get_ident()

        def work(lo, hi):
            started.append(lo)
            if lo < 2:
                together.wait()
                fail(lo, threading.get_ident() == caller)

        before = threading.active_count()
        try:
            similarity._each_tile(8, TileConfig(tile_cols=1, threads=2), work, 0)
        finally:
            assert threading.active_count() == before

    @pytest.mark.usefixtures("threads_for_any_work")
    @pytest.mark.parametrize("failing", ["caller", "helper"])
    def test_a_failing_tile_raises_whatever_thread_ran_it(self, failing):
        ran = {}

        def fail(lo, caller):
            ran[caller] = lo
            if caller == (failing == "caller"):
                raise DataError(f"tile {lo}")

        with pytest.raises(DataError) as raised:
            self._two_tiles_at_once(fail, [])
        assert str(raised.value) == f"tile {ran[failing == 'caller']}"

    @pytest.mark.usefixtures("threads_for_any_work")
    @pytest.mark.parametrize("first_to_fail", [0, 1])
    def test_the_first_failing_tile_in_order_is_raised(self, first_to_fail):
        # Both tiles fail, in either order in time: tile 0's error is raised,
        # and neither thread starts another tile.
        failed = threading.Event()

        def fail(lo, caller):
            if lo != first_to_fail:
                assert failed.wait(10)
            failed.set()
            raise DataError(f"tile {lo}")

        started = []
        with pytest.raises(DataError, match="^tile 0$"):
            self._two_tiles_at_once(fail, started)
        assert sorted(started) == [0, 1]


class TestRowTopk:
    def test_k_equals_n_matches_dense_sort(self, rng):
        target = random_corpus(rng, "t", "target", 4, 3, 5)
        source = random_corpus(rng, "s", "source", 23, 3, 5)
        rows = stream_row_topk(target, source, PoolingMode.MEAN, 23).rows()
        dense = build_similarity_matrix(target, source)
        for j, row in enumerate(rows):
            order = sorted(range(23), key=lambda i: (-float(dense.matrix[j, i]),
                                                     dense.source_ids[i]))
            assert [vid for vid, _ in row] == [dense.source_ids[i] for i in order]

    def test_dominant_source_wins_every_row(self, rng):
        vecs = rng.normal(scale=0.01, size=(10, 4)).astype(np.float32)
        sources = [ClipMatrix(f"s{i}", vecs[i][None, :]) for i in range(10)]
        sources.append(ClipMatrix("winner", np.full((1, 4), 10.0, dtype=np.float32)))
        targets = [ClipMatrix(f"t{j}", np.abs(rng.normal(size=(1, 4))).astype(np.float32))
                   for j in range(5)]
        rows = stream_row_topk(CorpusHandle.from_arrays("t", "target", targets),
                               CorpusHandle.from_arrays("s", "source", sources),
                               PoolingMode.MEAN, 1).rows()
        assert all(row[0][0] == "winner" for row in rows)

    def test_equal_scores_pick_smaller_id(self):
        clip = np.array([[0.5, 0.5]], dtype=np.float32)
        target = CorpusHandle.from_arrays("t", "target", [ClipMatrix("t0", clip)])
        source = CorpusHandle.from_arrays("s", "source", [
            ClipMatrix("s-b", clip), ClipMatrix("s-a", clip)])
        rows = stream_row_topk(target, source, PoolingMode.MEAN, 1).rows()
        assert rows[0][0][0] == "s-a"

    @pytest.mark.usefixtures("threads_for_any_work")
    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_equals_dense_derivation(self, rng, pooling):
        target = random_corpus(rng, "t", "target", 5, 3, 6)
        source = random_corpus(rng, "s", "source", 29, 3, 6)
        dense = build_similarity_matrix(target, source, pooling)
        for k in (1, 3, 29):
            want = row_topk_from_matrix(dense, k)
            for tile in (TileConfig(tile_cols=4, threads=4),
                         TileConfig(tile_cols=29),
                         TileConfig(tile_cols=1)):
                assert stream_row_topk(target, source, pooling, k, tile).rows() == want

    def test_k_below_one_rejected(self, rng):
        target = random_corpus(rng, "t", "target", 2, 2, 4)
        source = random_corpus(rng, "s", "source", 3, 2, 4)
        with pytest.raises(ArgumentError):
            stream_row_topk(target, source, PoolingMode.MEAN, 0)

    def test_k_above_n_clamps(self, rng):
        target = random_corpus(rng, "t", "target", 2, 2, 4)
        source = random_corpus(rng, "s", "source", 3, 2, 4)
        rows = stream_row_topk(target, source, PoolingMode.MEAN, 50).rows()
        assert all(len(row) == 3 for row in rows)


class TestEmptyCorpora:
    """An empty side scores nothing: no kernel call, and the result keeps
    the shape of the other side."""

    @pytest.mark.parametrize("pooling", POOLINGS)
    @pytest.mark.parametrize("p, n", [(0, 5), (3, 0), (0, 0)])
    def test_matrix_and_topk_shapes(self, rng, monkeypatch, pooling, p, n):
        target = CorpusHandle.from_arrays("t", "target", random_videos(rng, "t", p, 3, 4))
        source = CorpusHandle.from_arrays("s", "source", random_videos(rng, "s", n, 3, 4))

        def no_call(*args):
            raise AssertionError("an empty side must not reach the kernel")

        monkeypatch.setattr(kernels, "mean_score_block", no_call)
        monkeypatch.setattr(kernels, "max_score_block", no_call)
        for tile in (TileConfig(), TileConfig(tile_cols=2, threads=4)):
            view = build_similarity_matrix(target, source, pooling, tile)
            assert view.matrix.shape == (p, n) and view.matrix.dtype == np.float32
            assert (len(view.target_ids), len(view.source_ids)) == (p, n)
            for k in (1, 3, 9):
                topk = stream_row_topk(target, source, pooling, k, tile)
                assert topk.cols.shape == topk.scores.shape == (p, min(k, n))
                assert topk.rows() == [[] for _ in range(p)]


def _quantized_videos(rng, ids, dim):
    """One or two clips per video drawn from {-1, 0, 1}, so scores tie often."""
    return [ClipMatrix(vid, rng.integers(-1, 2, size=(int(rng.integers(1, 3)), dim))
                       .astype(np.float32)) for vid in ids]


def _reducer_topk(view, k):
    """The streaming reducer fed the whole dense matrix as one block."""
    n = len(view.source_ids)
    reducer = _RowTopK(len(view.target_ids), min(k, n), view.source_ids, n)
    reducer.merge(reducer.candidates(view.matrix, 0))
    return reducer.result().rows()


class TestTopkTieOrder:
    """Ties must go to the smaller source id, wherever that id is stored."""

    @pytest.mark.usefixtures("threads_for_any_work")
    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_ties_break_by_id_not_column(self, rng, pooling):
        n = 40
        source_ids = [f"s{i:02d}" for i in rng.permutation(n)]
        assert source_ids != sorted(source_ids)
        target = CorpusHandle.from_arrays(
            "t", "target", _quantized_videos(rng, [f"t{j}" for j in range(5)], 3))
        source = CorpusHandle.from_arrays("s", "source", _quantized_videos(rng, source_ids, 3))
        dense = build_similarity_matrix(target, source, pooling)
        ks = (1, 2, 3, 5, 8, 13, 21, n)
        # Some k must cut through a group of equal scores, or ties go untested.
        ordered = [np.sort(row)[::-1] for row in dense.matrix]
        assert any(row[k - 1] == row[k] for row in ordered for k in ks if k < n)
        for k in ks:
            want = [[(dense.source_ids[i], float(row[i]))
                     for i in sort_by_score_then_id(dense.source_ids, row)[:k]]
                    for row in dense.matrix]
            assert _reducer_topk(dense, k) == want
            for tile_cols in (1, 3, 7, n):
                for threads in (1, 4):
                    tile = TileConfig(tile_cols=tile_cols, threads=threads)
                    assert stream_row_topk(target, source, pooling, k, tile).rows() == want, \
                        (k, tile_cols, threads)

    @pytest.mark.usefixtures("threads_for_any_work")
    def test_concurrent_merges_lose_nothing(self, rng):
        # More workers than cores and frequent thread switches: a merge that
        # raced with another would drop or duplicate kept entries.
        source_ids = [f"s{i:03d}" for i in rng.permutation(300)]
        target = CorpusHandle.from_arrays(
            "t", "target", _quantized_videos(rng, [f"t{j}" for j in range(6)], 4))
        source = CorpusHandle.from_arrays("s", "source", _quantized_videos(rng, source_ids, 4))
        want = row_topk_from_matrix(build_similarity_matrix(target, source), 17)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = stream_row_topk(target, source, PoolingMode.MEAN, 17,
                                  TileConfig(tile_cols=1, threads=8)).rows()
        finally:
            sys.setswitchinterval(interval)
        assert got == want


def _hex_rows(rows):
    """(id, score) rows with each score as float.hex, so -0.0 != 0.0."""
    return [[(vid, score.hex()) for vid, score in row] for row in rows]


class TestTopkSignedZeros:
    """0.0 and -0.0 are one score: they tie, the smaller id goes first, and
    each entry keeps the sign it was scored with."""

    def _corpus(self, rng, role, ids, choices):
        return CorpusHandle.from_arrays(role, role, [
            ClipMatrix(vid, rng.choice(np.array(choices, dtype=np.float32), size=(1, 2)))
            for vid in ids])

    def test_reducer_ties_signed_zeros_by_id(self):
        ids = ["s3", "s0", "s4", "s1", "s2"]
        view = SimilarityView(["t0"], ids, np.array([[0.0, -0.0, 1.0, -0.0, 0.0]],
                                                    dtype=np.float32))
        want = [[("s4", "0x1.0000000000000p+0"), ("s0", "-0x0.0p+0"), ("s1", "-0x0.0p+0"),
                 ("s2", "0x0.0p+0"), ("s3", "0x0.0p+0")]]
        for k in range(1, 6):
            assert _hex_rows(_reducer_topk(view, k)) == [want[0][:k]]

    @pytest.mark.usefixtures("threads_for_any_work")
    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_streamed_signed_zeros_match_dense(self, rng, pooling):
        tiny = np.float32(1e-30)  # a product of two such clips underflows to +-0.0
        n = 60
        source = self._corpus(rng, "source", [f"s{i:02d}" for i in rng.permutation(n)],
                              [-tiny, 0.0, tiny, -1.0, 1.0])
        target = self._corpus(rng, "target", [f"t{j}" for j in range(4)], [-tiny, tiny, 1.0])
        dense = build_similarity_matrix(target, source, pooling)
        negative = np.signbit(dense.matrix)
        zeros = dense.matrix == 0
        assert (zeros & negative).any() and (zeros & ~negative).any()
        for k in (1, 7, 20, 33, 45, n):
            want = _hex_rows(row_topk_from_matrix(dense, k))
            assert _hex_rows(_reducer_topk(dense, k)) == want
            for tile in (TileConfig(tile_cols=1), TileConfig(tile_cols=7, threads=3),
                         TileConfig()):
                assert _hex_rows(stream_row_topk(target, source, pooling, k, tile).rows()) \
                    == want, (k, tile)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_any_blocks_in_any_merge_order(self, data):
        p, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 12))
        values = data.draw(st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]),
                                    min_size=p * n, max_size=p * n))
        view = SimilarityView([f"t{j}" for j in range(p)],
                              data.draw(st.permutations([f"s{i:02d}" for i in range(n)])),
                              np.array(values, dtype=np.float32).reshape(p, n))
        k = data.draw(st.integers(1, n))
        bounds = [0, *sorted(data.draw(st.sets(st.integers(1, n), max_size=n)) - {n}), n]
        blocks = data.draw(st.permutations(list(zip(bounds, bounds[1:]))))
        reducer = _RowTopK(p, k, view.source_ids, max(hi - lo for lo, hi in blocks))
        for lo, hi in blocks:
            reducer.merge(reducer.candidates(view.matrix[:, lo:hi], lo))
        assert _hex_rows(reducer.result().rows()) == _hex_rows(row_topk_from_matrix(view, k))

    def test_source_ids_beyond_the_rank_field_rejected(self):
        class Ids:
            """2^31 source ids, never materialized."""

            def __len__(self):
                return 2 ** 31

            def __getitem__(self, i):
                raise AssertionError("the ids must not be read")

        with pytest.raises(CapacityError, match="2147483648"):
            _RowTopK(1, 1, Ids(), 1)


def _scaled_corpus(source, factor):
    videos = [ClipMatrix(v.video_id, v.values * np.float32(factor))
              for v in load_videos(source)]
    return CorpusHandle.from_arrays(source.corpus_id, source.role, videos)


class TestScaleEquivariance:
    def test_power_of_two_scales_scores_exactly(self, rng):
        target = random_corpus(rng, "t", "target", 3, 3, 5)
        source = random_corpus(rng, "s", "source", 17, 3, 5)
        base = build_similarity_matrix(target, source).matrix
        scaled = build_similarity_matrix(target, _scaled_corpus(source, 4.0)).matrix
        assert (scaled == base * np.float32(4.0)).all()

    @pytest.mark.parametrize("factor", [0.1, 3.0, 100.0])
    @pytest.mark.parametrize("pooling", POOLINGS)
    def test_topk_and_argmax_index_sets_invariant(self, rng, factor, pooling):
        target = random_corpus(rng, "t", "target", 4, 3, 5)
        source = random_corpus(rng, "s", "source", 31, 3, 5)
        scaled = _scaled_corpus(source, factor)
        for k in (1, 5):
            before = stream_row_topk(target, source, pooling, k).rows()
            after = stream_row_topk(target, scaled, pooling, k).rows()
            assert [[vid for vid, _ in row] for row in before] == \
                   [[vid for vid, _ in row] for row in after]


class TestDumps:
    def test_matrix_round_trip(self, rng, tmp_path):
        view = SimilarityView(["t0"], ["s0", "s1"],
                              rng.normal(size=(1, 2)).astype(np.float32))
        path = tmp_path / "k.cpdk"
        save_matrix(view, path)
        assert (load_matrix(path) == view.matrix).all()

    def test_matrix_truncated_rejected(self, rng, tmp_path):
        view = SimilarityView(["t0"], ["s0"], np.ones((1, 1), dtype=np.float32))
        path = tmp_path / "k.cpdk"
        save_matrix(view, path)
        path.write_bytes(path.read_bytes()[:-2])
        from cupid import FormatError
        with pytest.raises(FormatError):
            load_matrix(path)

    def test_matrix_header_layout(self, tmp_path):
        import struct
        view = SimilarityView(["t0", "t1"], ["s0", "s1", "s2"],
                              np.zeros((2, 3), dtype=np.float32))
        path = tmp_path / "k.cpdk"
        save_matrix(view, path)
        raw = path.read_bytes()
        magic, version, p, n = struct.unpack_from("<4sHII", raw, 0)
        assert (magic, version, p, n) == (b"CPDK", 1, 2, 3)
        assert len(raw) == 14 + 2 * 3 * 4

    def test_column_means_round_trip(self, tmp_path):
        ids = ["a", "b"]
        means = np.array([0.25, -1.5])
        path = tmp_path / "means.jsonl"
        write_column_means(ids, means, path)
        got_ids, got_means = read_column_means(path)
        assert got_ids == ids and (got_means == means).all()
