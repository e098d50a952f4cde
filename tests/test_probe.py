"""Zero-shot retrieval ranking and recall summaries."""
import numpy as np
import pytest

from cupid import ArgumentError, DataError, SchemaError, rank_queries, summarize
from cupid.probe import probe_report


def _brute_force_ranks(queries, candidates, ground_truth):
    """Full sort per query; optimistic placement among equal scores."""
    scores = np.asarray(queries, dtype=np.float64) @ np.asarray(candidates, dtype=np.float64).T
    ranks = []
    for q, gt in enumerate(ground_truth):
        ordered = sorted(scores[q], reverse=True)
        ranks.append(ordered.index(scores[q, gt]) + 1)
    return ranks


class TestRankQueries:
    def test_perfect_diagonal(self):
        embs = np.eye(4)
        assert rank_queries(embs, embs, [0, 1, 2, 3]) == [1, 1, 1, 1]

    def test_ground_truth_third_largest(self):
        queries = np.array([[1.0]])
        candidates = np.array([[4.0], [3.0], [2.0], [1.0]])
        assert rank_queries(queries, candidates, [2]) == [3]

    def test_tie_at_maximum_is_optimistic(self):
        queries = np.array([[1.0, 0.0]])
        candidates = np.array([[2.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        assert rank_queries(queries, candidates, [1]) == [1]

    def test_matches_brute_force_sort(self, rng):
        for _ in range(30):
            q = int(rng.integers(1, 30))
            c = int(rng.integers(1, 30))
            d = int(rng.integers(1, 10))
            queries = rng.normal(size=(q, d))
            candidates = rng.normal(size=(c, d))
            gt = rng.integers(0, c, size=q).tolist()
            assert rank_queries(queries, candidates, gt) == \
                _brute_force_ranks(queries, candidates, gt)

    def test_monotone_transform_leaves_ranks_unchanged(self, rng):
        queries = rng.normal(size=(10, 6))
        candidates = rng.normal(size=(25, 6))
        gt = rng.integers(0, 25, size=10).tolist()
        base = rank_queries(queries, candidates, gt)
        # exp(3x + 1) applied to scores == scaling embeddings won't do; use
        # the rank definition directly on transformed scores instead.
        scores = queries @ candidates.T
        transformed = np.exp(3.0 * scores + 1.0)
        gt_scores = transformed[np.arange(10), gt]
        ranks = (1 + (transformed > gt_scores[:, None]).sum(axis=1)).tolist()
        assert ranks == base

    def test_dim_mismatch(self):
        with pytest.raises(SchemaError):
            rank_queries(np.ones((1, 3)), np.ones((2, 4)), [0])

    def test_bad_ground_truth_index(self):
        with pytest.raises(ArgumentError):
            rank_queries(np.ones((1, 2)), np.ones((3, 2)), [3])

    def test_ground_truth_length_mismatch(self):
        with pytest.raises(ArgumentError):
            rank_queries(np.ones((2, 2)), np.ones((3, 2)), [0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["query", "candidate"])
    def test_value_that_is_not_finite(self, side, bad):
        # A NaN query scores NaN against every candidate; no candidate then
        # compares better, so its rank would read 1.
        queries, candidates = np.eye(3), np.eye(3)
        (queries if side == "query" else candidates)[2, 1] = bad
        with pytest.raises(DataError) as got:
            rank_queries(queries, candidates, [0, 1, 2])
        assert str(got.value) == f"{side} embeddings: row 2 holds a value that is not finite"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_score_that_overflows(self):
        # Finite inputs whose dot overflows: the ground truth [10, -10] scores
        # inf - inf = NaN against the second query, which would rank it 1.
        queries = np.array([[1.0, 0.0], [1e308, 1e308]])
        candidates = np.array([[10.0, -10.0], [1.0, 0.0]])
        with pytest.raises(DataError) as got:
            rank_queries(queries, candidates, [1, 0])
        assert str(got.value) == "query embeddings: row 1 has a score that is not finite"


class TestSummarize:
    def test_fixture(self):
        result = summarize([1, 2, 3, 1, 5], ks=(1, 5, 10))
        assert result.recall_at == {1: 0.4, 5: 1.0, 10: 1.0}
        assert result.median_rank == 2

    def test_all_rank_one(self):
        result = summarize([1, 1, 1], ks=(1,))
        assert result.recall_at[1] == 1.0
        assert result.median_rank == 1

    def test_lower_median_of_even_count(self):
        assert summarize([2, 4]).median_rank == 2

    def test_recall_monotone_and_saturates(self, rng):
        candidates = 40
        ranks = rng.integers(1, candidates + 1, size=100).tolist()
        result = summarize(ranks, ks=list(range(1, candidates + 1)))
        values = [result.recall_at[k] for k in range(1, candidates + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0

    def test_empty_ranks_rejected(self):
        with pytest.raises(ArgumentError):
            summarize([])

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ArgumentError):
            summarize([1], ks=(0,))


class TestReport:
    def test_report_shape(self):
        result = summarize([1, 2], ks=(1, 5))
        report = probe_report(result, candidate_count=9)
        assert report == {
            "recall": {"1": 0.5, "5": 1.0},
            "median_rank": 1,
            "query_count": 2,
            "candidate_count": 9,
        }
