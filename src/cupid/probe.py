"""Zero-shot text-to-video retrieval metrics over precomputed embeddings.

Candidates are scored by dot product against each query; the ground-truth
candidate's rank is 1 plus the number of strictly better candidates, so ties
resolve optimistically. Reported as recall@k plus the lower median rank.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ArgumentError, DataError, SchemaError


@dataclass
class RetrievalResult:
    ranks: list[int]
    recall_at: dict[int, float]
    median_rank: int


def rank_queries(query_embs: np.ndarray, candidate_embs: np.ndarray,
                 ground_truth: Sequence[int]) -> list[int]:
    """Rank of each query's ground-truth candidate under dot-product scoring.
    A NaN or infinite embedding value is a DataError naming its input and row."""
    queries = np.asarray(query_embs, dtype=np.float64)
    candidates = np.asarray(candidate_embs, dtype=np.float64)
    if queries.ndim != 2 or candidates.ndim != 2:
        raise SchemaError("query and candidate embeddings must be 2-D")
    if queries.shape[1] != candidates.shape[1]:
        raise SchemaError(
            f"query dim {queries.shape[1]} != candidate dim {candidates.shape[1]}"
        )
    for name, embs in (("query", queries), ("candidate", candidates)):
        rows = np.flatnonzero(~np.isfinite(embs).all(axis=1))
        if len(rows):
            raise DataError(f"{name} embeddings: row {rows[0]} holds a value that is not finite")
    if len(ground_truth) != queries.shape[0]:
        raise ArgumentError("need exactly one ground-truth index per query")
    gt = np.asarray(ground_truth)
    if len(gt) and (gt.min() < 0 or gt.max() >= candidates.shape[0]):
        raise ArgumentError("ground-truth index out of range")
    scores = queries @ candidates.T
    gt_scores = scores[np.arange(len(gt)), gt]
    ranks = 1 + (scores > gt_scores[:, None]).sum(axis=1)
    return [int(r) for r in ranks]


def summarize(ranks: Sequence[int], ks: Sequence[int] = (1, 5, 10)) -> RetrievalResult:
    """Recall@k for each k plus the lower median rank.

    The median is the ceil(n/2)-th order statistic of the sorted ranks,
    always an integer.
    """
    if not ranks:
        raise ArgumentError("ranks must be non-empty")
    if any(k < 1 for k in ks):
        raise ArgumentError("recall cutoffs must be positive")
    ordered = sorted(ranks)
    recall = {int(k): sum(r <= k for r in ordered) / len(ordered) for k in ks}
    median = ordered[(len(ordered) + 1) // 2 - 1]
    return RetrievalResult(list(ranks), recall, int(median))


def probe_report(result: RetrievalResult, candidate_count: int) -> dict:
    """JSON-ready report matching the probe's external interface."""
    return {
        "recall": {str(k): result.recall_at[k] for k in sorted(result.recall_at)},
        "median_rank": result.median_rank,
        "query_count": len(result.ranks),
        "candidate_count": candidate_count,
    }


def write_probe_report(result: RetrievalResult, candidate_count: int,
                       path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(probe_report(result, candidate_count), f, indent=2, sort_keys=True)
        f.write("\n")
