"""Contrastive objective numerics over an in-batch score grid.

A batch of B video-text pairs induces a B x B score grid; cell (a, b) scores
video a against text b. The positive mask marks matching cells (diagonal at
minimum; extra true cells express multi-positive training). Two negative
conventions are supported per anchor row/column a:

  standard   the 2(B-1) cross cells in row a and column a (minus positives),
  n_squared  every mask-false cell in the grid (B^2 - B with diagonal-only
             positives), trading weaker negatives for quadratically more of
             them when batches are small.

The loss is the mean over anchors of -log(pos / (pos + neg)) on exponentiated
scores, evaluated with a shared max shift so it is exactly zero when an
anchor has no negatives. Gradients are analytic and finite-difference
checked in the test suite.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataError


class NegativeMode(enum.Enum):
    STANDARD = "standard"
    N_SQUARED = "n_squared"


@dataclass
class ScoreGrid:
    """B x B pairwise scores plus the positive-pair mask (diagonal always true)."""

    scores: np.ndarray
    positive_mask: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2 or scores.shape[0] != scores.shape[1] or scores.shape[0] < 1:
            raise DataError("scores must be a square B x B matrix with B >= 1")
        if not np.isfinite(scores).all():
            raise DataError("scores must be finite")
        mask = np.asarray(self.positive_mask, dtype=bool)
        if mask.shape != scores.shape:
            raise DataError("positive_mask shape must match scores")
        if not mask.diagonal().all():
            raise DataError("positive_mask diagonal must be all true")
        self.scores = scores
        self.positive_mask = mask

    @property
    def batch(self) -> int:
        return self.scores.shape[0]

    @classmethod
    def diagonal(cls, scores: np.ndarray) -> "ScoreGrid":
        scores = np.asarray(scores, dtype=np.float64)
        return cls(scores, np.eye(scores.shape[0], dtype=bool))


def positive_set(grid: ScoreGrid, anchor: int) -> set[tuple[int, int]]:
    """Mask-true cells lying in the anchor's row or column."""
    b = grid.batch
    if not 0 <= anchor < b:
        raise ArgumentError(f"anchor {anchor} out of range for batch {b}")
    cells = {(anchor, j) for j in range(b) if grid.positive_mask[anchor, j]}
    cells |= {(j, anchor) for j in range(b) if grid.positive_mask[j, anchor]}
    return cells


def negative_set(grid: ScoreGrid, mode: NegativeMode, anchor: int) -> set[tuple[int, int]]:
    """Negative cells for one anchor under the given convention."""
    b = grid.batch
    if not 0 <= anchor < b:
        raise ArgumentError(f"anchor {anchor} out of range for batch {b}")
    if mode is NegativeMode.N_SQUARED:
        rows, cols = np.nonzero(~grid.positive_mask)
        return {(int(r), int(c)) for r, c in zip(rows, cols)}
    cells = {(anchor, j) for j in range(b) if j != anchor}
    cells |= {(j, anchor) for j in range(b) if j != anchor}
    return {cell for cell in cells if not grid.positive_mask[cell]}


def _anchor_terms(grid: ScoreGrid, mode: NegativeMode):
    """For each anchor with negatives: its loss -log(pos / (pos + neg)),
    its positive and its negative cells each paired with exp(score - shift)
    (shift: the largest score among them), and the positive and total sums
    of those exponentials."""
    for anchor in range(grid.batch):
        pos = sorted(positive_set(grid, anchor))
        neg = sorted(negative_set(grid, mode, anchor))
        if not neg:
            continue
        shift = max(grid.scores[cell] for cell in pos + neg)
        pos_exp = [math.exp(grid.scores[cell] - shift) for cell in pos]
        neg_exp = [math.exp(grid.scores[cell] - shift) for cell in neg]
        pos_sum = math.fsum(pos_exp)
        all_sum = pos_sum + math.fsum(neg_exp)
        yield (math.log(all_sum) - math.log(pos_sum), zip(pos, pos_exp), zip(neg, neg_exp),
               pos_sum, all_sum)


def nce_loss(grid: ScoreGrid, mode: NegativeMode = NegativeMode.STANDARD) -> float:
    """Mean per-anchor contrastive loss; non-negative, zero iff no negatives."""
    total = 0.0
    for loss, *_ in _anchor_terms(grid, mode):
        total += loss
    return total / grid.batch


def nce_loss_grad(grid: ScoreGrid,
                  mode: NegativeMode = NegativeMode.STANDARD
                  ) -> tuple[float, np.ndarray]:
    """Loss plus its gradient with respect to every score cell.

    Per anchor the gradient is softmax(all) - softmax(pos) restricted to the
    respective sets, averaged over anchors; each anchor's contributions sum
    to zero, and the diagonal receives strictly negative gradient whenever
    the anchor has at least one negative.
    """
    b = grid.batch
    grad = np.zeros((b, b), dtype=np.float64)
    total = 0.0
    for loss, pos, neg, pos_sum, all_sum in _anchor_terms(grid, mode):
        total += loss
        for cell, e in pos:
            grad[cell] += (e / all_sum - e / pos_sum) / b
        for cell, e in neg:
            grad[cell] += (e / all_sum) / b
    return total / b, grad


def gradient_check(grid: ScoreGrid, mode: NegativeMode,
                   step: float = 1e-5) -> float:
    """Max relative error of the analytic gradient vs central differences."""
    _, grad = nce_loss_grad(grid, mode)
    worst = 0.0
    for a in range(grid.batch):
        for c in range(grid.batch):
            bumped = grid.scores.copy()
            bumped[a, c] += step
            up = nce_loss(ScoreGrid(bumped, grid.positive_mask), mode)
            bumped[a, c] -= 2 * step
            down = nce_loss(ScoreGrid(bumped, grid.positive_mask), mode)
            fd = (up - down) / (2 * step)
            denom = max(abs(grad[a, c]), abs(fd))
            if denom > 1e-10:
                worst = max(worst, abs(grad[a, c] - fd) / denom)
    return worst
