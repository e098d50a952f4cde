"""Contrastive loss numerics: negative sets, loss values, analytic gradients."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cupid import ArgumentError, DataError, NegativeMode, ScoreGrid, negative_set
from cupid import nce_loss, nce_loss_grad
from cupid.nce import gradient_check, positive_set

MODES = [NegativeMode.STANDARD, NegativeMode.N_SQUARED]


def _diag_grid(rng, b):
    return ScoreGrid.diagonal(rng.normal(size=(b, b)))


def _enumerated_loss(grid, mode):
    """Direct closed-form evaluation with plain exponentials (no shift)."""
    total = 0.0
    for anchor in range(grid.batch):
        pos = positive_set(grid, anchor)
        neg = negative_set(grid, mode, anchor)
        if not neg:
            continue
        pos_sum = sum(math.exp(grid.scores[c]) for c in pos)
        neg_sum = sum(math.exp(grid.scores[c]) for c in neg)
        total += -math.log(pos_sum / (pos_sum + neg_sum))
    return total / grid.batch


class TestNegativeSets:
    def test_b5_n_squared_has_twenty_cells(self, rng):
        grid = _diag_grid(rng, 5)
        cells = negative_set(grid, NegativeMode.N_SQUARED, 0)
        assert len(cells) == 20
        assert all(a != b for a, b in cells)
        # identical for every anchor
        for anchor in range(1, 5):
            assert negative_set(grid, NegativeMode.N_SQUARED, anchor) == cells

    def test_b2_standard_and_n_squared_coincide(self, rng):
        grid = _diag_grid(rng, 2)
        std = negative_set(grid, NegativeMode.STANDARD, 0)
        nsq = negative_set(grid, NegativeMode.N_SQUARED, 0)
        assert std == nsq == {(0, 1), (1, 0)}

    def test_b3_anchor0_standard(self, rng):
        grid = _diag_grid(rng, 3)
        assert negative_set(grid, NegativeMode.STANDARD, 0) == \
            {(0, 1), (0, 2), (1, 0), (2, 0)}

    @pytest.mark.parametrize("b", range(2, 65))
    def test_cardinalities_with_diagonal_positives(self, rng, b):
        grid = ScoreGrid.diagonal(np.zeros((b, b)))
        assert len(negative_set(grid, NegativeMode.N_SQUARED, 0)) == b * b - b
        assert len(negative_set(grid, NegativeMode.STANDARD, 0)) == 2 * (b - 1)

    def test_positive_mask_removes_cells(self, rng):
        mask = np.eye(3, dtype=bool)
        mask[0, 1] = True
        grid = ScoreGrid(rng.normal(size=(3, 3)), mask)
        assert (0, 1) not in negative_set(grid, NegativeMode.STANDARD, 0)
        assert (0, 1) not in negative_set(grid, NegativeMode.N_SQUARED, 2)
        assert (0, 1) in positive_set(grid, 0)
        assert (0, 1) in positive_set(grid, 1)

    def test_anchor_out_of_range(self, rng):
        grid = _diag_grid(rng, 2)
        with pytest.raises(ArgumentError):
            negative_set(grid, NegativeMode.STANDARD, 2)


class TestScoreGrid:
    def test_diagonal_must_be_positive(self):
        mask = np.zeros((2, 2), dtype=bool)
        with pytest.raises(DataError):
            ScoreGrid(np.zeros((2, 2)), mask)

    def test_scores_must_be_finite(self):
        with pytest.raises(DataError):
            ScoreGrid.diagonal(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_scores_must_be_square(self):
        with pytest.raises(DataError):
            ScoreGrid.diagonal(np.zeros((2, 3)))


class TestLoss:
    def test_b1_is_zero(self):
        grid = ScoreGrid.diagonal(np.array([[3.7]]))
        for mode in MODES:
            assert nce_loss(grid, mode) == 0.0

    def test_b2_modes_agree(self, rng):
        for _ in range(20):
            grid = _diag_grid(rng, 2)
            a = nce_loss(grid, NegativeMode.STANDARD)
            b = nce_loss(grid, NegativeMode.N_SQUARED)
            assert abs(a - b) < 1e-12

    def test_b3_closed_form(self):
        scores = np.zeros((3, 3))
        np.fill_diagonal(scores, 2.0)
        grid = ScoreGrid.diagonal(scores)
        want = -math.log(math.exp(2.0) / (math.exp(2.0) + 6.0))
        assert math.isclose(nce_loss(grid, NegativeMode.N_SQUARED), want, rel_tol=1e-14)

    @pytest.mark.parametrize("mode", MODES)
    def test_matches_exhaustive_enumeration(self, rng, mode):
        for b in (2, 3, 4, 6):
            grid = _diag_grid(rng, b)
            assert math.isclose(nce_loss(grid, mode),
                                _enumerated_loss(grid, mode), rel_tol=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_multi_positive_mask(self, rng, mode):
        mask = np.eye(4, dtype=bool)
        mask[1, 2] = True
        grid = ScoreGrid(rng.normal(size=(4, 4)), mask)
        assert math.isclose(nce_loss(grid, mode),
                            _enumerated_loss(grid, mode), rel_tol=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_non_negative_and_zero_iff_no_negatives(self, rng, mode):
        for b in (1, 2, 5):
            for _ in range(10):
                loss = nce_loss(_diag_grid(rng, b), mode)
                assert loss >= 0.0
                if b > 1:
                    assert loss > 0.0

    def test_all_positive_mask_gives_zero_loss(self, rng):
        grid = ScoreGrid(rng.normal(size=(3, 3)), np.ones((3, 3), dtype=bool))
        for mode in MODES:
            assert nce_loss(grid, mode) == 0.0

    @pytest.mark.parametrize("mode", MODES)
    def test_shift_invariance(self, rng, mode):
        grid = _diag_grid(rng, 5)
        for const in (100.0, -42.0, 0.125):
            shifted = ScoreGrid(grid.scores + const, grid.positive_mask)
            assert abs(nce_loss(shifted, mode) - nce_loss(grid, mode)) < 1e-10


class TestGradient:
    def test_b1_zero_gradient(self):
        grid = ScoreGrid.diagonal(np.array([[1.0]]))
        loss, grad = nce_loss_grad(grid)
        assert loss == 0.0
        assert (grad == 0.0).all()

    @pytest.mark.parametrize("mode", MODES)
    def test_finite_difference_agreement(self, rng, mode):
        for b in (2, 3, 4):
            grid = _diag_grid(rng, b)
            assert gradient_check(grid, mode) < 1e-4

    def test_multi_positive_finite_difference(self, rng):
        mask = np.eye(4, dtype=bool)
        mask[0, 3] = mask[2, 1] = True
        grid = ScoreGrid(rng.normal(size=(4, 4)), mask)
        for mode in MODES:
            assert gradient_check(grid, mode) < 1e-4

    @pytest.mark.parametrize("mode", MODES)
    def test_diagonal_gradient_strictly_negative(self, rng, mode):
        grid = _diag_grid(rng, 4)
        _, grad = nce_loss_grad(grid, mode)
        assert (np.diagonal(grad) < 0.0).all()

    def test_raising_diagonal_score_lowers_loss(self, rng):
        grid = _diag_grid(rng, 3)
        bumped = grid.scores.copy()
        bumped[1, 1] += 0.25
        assert nce_loss(ScoreGrid.diagonal(bumped)) < nce_loss(grid)

    @pytest.mark.parametrize("mode", MODES)
    def test_gradient_mass_conservation(self, rng, mode):
        # Each anchor's positive and negative contributions cancel, so the
        # whole gradient sums to zero.
        for b in (2, 4, 7):
            _, grad = nce_loss_grad(_diag_grid(rng, b), mode)
            assert abs(grad.sum()) < 1e-12

    def test_loss_value_matches_loss_function(self, rng):
        grid = _diag_grid(rng, 5)
        for mode in MODES:
            loss, _ = nce_loss_grad(grid, mode)
            assert loss == nce_loss(grid, mode)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_loss_equals_the_loss_of_loss_grad_bit_for_bit(self, data):
        b = data.draw(st.integers(1, 6))
        scores = np.array(data.draw(st.lists(
            st.floats(-60.0, 60.0, allow_subnormal=False), min_size=b * b, max_size=b * b)))
        # diagonal positives, or more positive cells besides
        extra = data.draw(st.lists(st.booleans(), min_size=b * b, max_size=b * b))
        mask = np.eye(b, dtype=bool) | (np.array(extra).reshape(b, b)
                                        & data.draw(st.booleans()))
        grid = ScoreGrid(scores.reshape(b, b), mask)
        for mode in MODES:
            assert nce_loss(grid, mode).hex() == nce_loss_grad(grid, mode)[0].hex()
