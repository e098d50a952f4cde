"""Clip-level video-pair similarity and the target x source score kernel.

The pair score under mean pooling is the grand mean of all L x Q pairwise
clip dot products; under max pooling it is their maximum. The mean is
evaluated through per-video clip sums (the mean of all pairwise dots equals
dot(sum of target clips, sum of source clips) / (L*Q)), which makes a pair
cost O(dim) instead of O(L*Q*dim).

Determinism contract
--------------------
Accumulation is 64-bit with a fixed index order, so a pair's score depends
only on the two videos involved. Scores are then rounded once to float32;
every consumer (dense matrix, column means, per-row top-k) sees those same
float32 values, and ordered reductions over them are performed in target
index order. Consequently dense and streaming paths agree bit-for-bit and
results are independent of tile geometry and worker count.

All three consumers take their float32 blocks from one helper,
_score_blocks: one P x tile_cols block per source tile. stream_row_topk
returns a RowTopK: P x k arrays of source indices and scores, each row
sorted by (score desc, source id asc).

Pruned avg-sim selection
------------------------
stream_column_means(..., top=c) under mean pooling scores exactly only the
sources whose mean can be among the c largest (bound-and-verify, as in the
threshold algorithm of Fagin, Lotem and Naor, PODS 2001). Take target j's
float64 clip sum T_j and clip count L_j as given, and source i's float32
clips v with count Q_i and exact clip sum S_i. Source i's exact mean m_i
is fl(fl(sum_j x_ij) / P) with x_ij = fl32(fl(T_j . fl(S_i)) / (L_j Q_i)),
whose real counterpart is mu_i = S_i . C / Q_i for the target centre
C = (1/P) sum_j T_j / L_j. One bound pass computes per source, with
float64 np.einsum over the float32 clips,

    a_i = sum_clips (v . C^) / Q_i,      C^ the float64 value of C,
    B_i = K_i M R_i / Q_i + 2^-149,
    K_i = 2^-23 + 8 (d + P + Q_i + 8) 2^-53,

where M = (1/P) sum_j |T_j| / L_j, R_i = sum_clips |v| and d is the
dimension; B_i >= |m_i - a_i|. With u = 2^-53 and G = M R_i / Q_i:

- exact side: by Cauchy-Schwarz |T_j . S_i| / (L_j Q_i) <= |T_j| R_i /
  (L_j Q_i), whose mean over j is G. The float64 clip sum of S_i, the dot
  product, the division and the target-order column sum plus the final
  division by P each add at most Q_i u, d u, u and (P + 1) u times G (to
  first order). The float32 rounding adds at most 2^-24 |x| + 2^-150 per
  score, so 2^-24 G + 2^-150 to the mean.
- estimate side: |C^ - C| <= (P + 1) u M and |C| <= M, so the clip dots,
  their sum and the division by Q_i add at most (P + 1 + d + Q_i + 1) u G.
- K_i holds twice the float32 term and four times the float64 terms, which
  also covers the second-order terms, the rounding of B_i itself and of
  a_i +- B_i (|a_i| <= G (1 + small)); 2^-149 is twice the subnormal term.
  float64 neither overflows nor underflows: nonzero products of float32
  values lie between 2^-298 and 2^256, and clip counts move them by far
  less than the rest of its normal range.
- A score can overflow float32 only if max_j(|T_j| / L_j) R_i / Q_i >=
  2^127; such a source is always a candidate, with bounds -inf and +inf.

The candidates are the sources with a_i + B_i >= t, where t is the c-th
largest a_i - B_i. A pruned source has m_i <= a_i + B_i < t, and at least
c sources have m_k >= a_k - B_k >= t, so it is strictly below c others and
outside the top c whatever the tie-break. A source's mean depends only on
that source and the target set, so the candidates, scored by the same
_score_blocks path on their gathered rows, get the bits the full pass gives
them, and ranking them gives the full pass's top c byte for byte.
"""
from __future__ import annotations

import enum
import json
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import ArgumentError, CapacityError, DataError, FormatError, SchemaError
from .store import (ClipMatrix, CorpusHandle, _Tile, json_object, number_field, read_lines,
                    str_field)

MATRIX_MAGIC = b"CPDK"
MATRIX_VERSION = 1
_MATRIX_HEADER = struct.Struct("<4sHII")
# The smallest positive float32 (a subnormal): twice its largest rounding error.
_F32_TINY = 2.0 ** -149


class PoolingMode(enum.Enum):
    MEAN = "mean"
    MAX = "max"

    @classmethod
    def parse(cls, name: str) -> "PoolingMode":
        try:
            return cls(name.lower())
        except ValueError:
            raise ArgumentError(f"unknown pooling mode {name!r} (expected mean or max)") from None


@dataclass(frozen=True)
class TileConfig:
    """Tiling, threading, and memory limits for kernel evaluation.

    Each tile of tile_cols source videos is scored against all P targets in
    one kernel call: a P x tile_cols float64 block (and its float32 copy)
    per thread. Tile width and thread count never change results, only peak
    memory and wall time. max_dense_bytes caps build_similarity_matrix.
    """

    tile_cols: int = 4096
    threads: int = 1
    max_dense_bytes: int = 2 * 1024 ** 3

    def __post_init__(self):
        if self.tile_cols < 1:
            raise ArgumentError("tile_cols must be >= 1")
        if self.threads < 1:
            raise ArgumentError("threads must be >= 1")


DEFAULT_TILE = TileConfig()


@dataclass
class SimilarityView:
    """Materialized target x source score matrix (float32, row-major)."""

    target_ids: list[str]
    source_ids: list[str]
    matrix: np.ndarray


def _segment_clip_sums(clips32: np.ndarray, offsets: np.ndarray,
                       counts: np.ndarray) -> np.ndarray:
    """Per-video clip sums over a stacked tile, accumulated in float64.

    Vectorized over videos but sequential over clip index, so each video's
    sum is the same float64 whatever tile it is summed in.
    """
    n = len(counts)
    acc = np.zeros((n, clips32.shape[1]), dtype=np.float64)
    if n == 0 or len(clips32) == 0:
        return acc
    starts = offsets[:-1]
    for k in range(int(counts.max())):
        sel = np.nonzero(counts > k)[0]
        acc[sel] += clips32[starts[sel] + k]
    return acc


def _prepare_side(tile: _Tile, pooling: PoolingMode) -> tuple[np.ndarray, np.ndarray]:
    """A side's kernel arguments: (float64 clip sums, counts) or (float64 clips, offsets)."""
    if pooling is PoolingMode.MEAN:
        return _segment_clip_sums(tile.clips, tile.offsets, tile.counts), tile.counts
    return tile.clips.astype(np.float64), tile.offsets


def _video_side(video: ClipMatrix, pooling: PoolingMode) -> tuple[np.ndarray, np.ndarray]:
    count = video.clip_count
    return _prepare_side(_Tile([video.video_id], np.array([count], dtype=np.intp),
                               np.array([0, count], dtype=np.intp), video.values), pooling)


def _score_block(target_side: tuple, source_side: tuple, pooling: PoolingMode) -> np.ndarray:
    kernel = kernels.mean_score_block if pooling is PoolingMode.MEAN else kernels.max_score_block
    return kernel(*target_side, *source_side)


def _each_tile(n: int, tile: TileConfig, work: Callable[[int, int], None]) -> None:
    """Call work(lo, hi) for each tile [lo, hi) of tile.tile_cols positions
    in range(n), on tile.threads threads."""
    spans = [(lo, min(lo + tile.tile_cols, n)) for lo in range(0, n, tile.tile_cols)]
    if tile.threads <= 1 or len(spans) <= 1:
        for lo, hi in spans:
            work(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=tile.threads) as pool:
        futures = [pool.submit(work, lo, hi) for lo, hi in spans]
        for fut in futures:
            fut.result()


def _target_side(target: CorpusHandle, source: CorpusHandle,
                 pooling: PoolingMode) -> tuple | None:
    """The kernel arguments of all target videos, or None if there are none."""
    p, n = target.video_count, source.video_count
    if p and n and target.dim != source.dim:
        raise SchemaError(f"target dim {target.dim} != source dim {source.dim}")
    return _prepare_side(target.load_tile(0, p), pooling) if p else None


def _score_blocks(target_side: tuple | None, source: CorpusHandle, pooling: PoolingMode,
                  tile: TileConfig, consume: Callable[[int, int, np.ndarray], None],
                  rows: np.ndarray | None = None) -> None:
    """Call consume(lo, hi, block32) with the float32 P x (hi - lo) score
    block of every source tile [lo, hi) against all target videos.

    rows, if given, holds ascending source row indices; the tiles then run
    over positions in rows, and only those sources are read and scored.
    One kernel call per tile of tile.tile_cols source videos; tiles may run
    on tile.threads threads. An empty target side (None) makes no call.
    A score that is not finite in float32 is a DataError naming the source.
    """
    if target_side is None:
        return

    def work(lo: int, hi: int) -> None:
        # The decoded tile is freed once prepared, before the kernel runs.
        span = (lo, hi) if rows is None else (rows[lo:hi],)
        source_side = _prepare_side(source.load_tile(*span), pooling)
        with np.errstate(over="ignore"):  # overflow is reported below
            block32 = _score_block(target_side, source_side, pooling).astype(np.float32)
        finite = np.isfinite(block32).all(axis=0)
        if not finite.all():
            col = lo + int(np.argmin(finite))
            row = col if rows is None else int(rows[col])
            raise DataError(f"source video {source.columns.ids[row]!r}: a pair score "
                            "is not finite in float32")
        consume(lo, hi, block32)

    _each_tile(source.video_count if rows is None else len(rows), tile, work)


def pair_similarity(target: ClipMatrix, source: ClipMatrix,
                    pooling: PoolingMode = PoolingMode.MEAN) -> float:
    """Score one target/source video pair (float64).

    Mean pooling averages all L x Q clip dot products; max pooling takes
    their maximum. Symmetric under mean pooling: swapping the arguments
    reproduces the exact same float.
    """
    if target.dim != source.dim:
        raise SchemaError(f"target dim {target.dim} != source dim {source.dim}")
    block = _score_block(_video_side(target, pooling), _video_side(source, pooling), pooling)
    return float(block[0, 0])


def build_similarity_matrix(target: CorpusHandle, source: CorpusHandle,
                            pooling: PoolingMode = PoolingMode.MEAN,
                            tile: TileConfig = DEFAULT_TILE) -> SimilarityView:
    """Materialize the full P x N float32 score matrix."""
    p, n = target.video_count, source.video_count
    if p * n * 4 > tile.max_dense_bytes:
        raise CapacityError(
            f"dense matrix needs {p * n * 4} bytes (> {tile.max_dense_bytes}); "
            "use the streaming reducers instead"
        )
    matrix = np.empty((p, n), dtype=np.float32)

    def consume(lo: int, hi: int, block32: np.ndarray) -> None:
        matrix[:, lo:hi] = block32

    _score_blocks(_target_side(target, source, pooling), source, pooling, tile, consume)
    return SimilarityView(target.video_ids(), source.video_ids(), matrix)


def _mean_candidates(target_side: tuple, source: CorpusHandle, tile: TileConfig,
                     top: int) -> np.ndarray:
    """Ascending source rows whose exact mean score can be among the top
    largest: every row whose upper bound reaches the top-th largest lower
    bound. See "Pruned avg-sim selection" in the module docstring."""
    t_sums, t_counts = target_side
    p, dim = t_sums.shape
    scaled = t_sums / t_counts[:, None]
    center = scaled.sum(axis=0) / p
    norms = np.sqrt(np.einsum("jk,jk->j", scaled, scaled))
    spread, peak = norms.sum() / p, norms.max()
    n = source.video_count
    lower, upper = np.empty(n), np.empty(n)

    def work(lo: int, hi: int) -> None:
        part = source.load_tile(lo, hi)
        starts = part.offsets[:-1]
        # float64 accumulation over float32 clips, without a float64 copy of them
        dots = np.einsum("qk,k->q", part.clips, center)
        lengths = np.sqrt(np.einsum("qk,qk->q", part.clips, part.clips, dtype=np.float64))
        estimate = np.add.reduceat(dots, starts) / part.counts
        reach = np.add.reduceat(lengths, starts) / part.counts
        bound = (2.0 ** -23 + 8 * (dim + p + part.counts + 8) * 2.0 ** -53) * spread * reach
        bound += _F32_TINY
        overflow = peak * reach >= 2.0 ** 127
        lower[lo:hi] = np.where(overflow, -np.inf, estimate - bound)
        upper[lo:hi] = np.where(overflow, np.inf, estimate + bound)

    _each_tile(n, tile, work)
    cut = np.partition(lower, n - top)[n - top]
    return np.flatnonzero(upper >= cut)


def stream_column_means(target: CorpusHandle, source: CorpusHandle,
                        pooling: PoolingMode = PoolingMode.MEAN,
                        tile: TileConfig = DEFAULT_TILE, *, top: int | None = None
                        ) -> tuple[list[str], np.ndarray]:
    """Per-source mean score against the whole target corpus, without
    materializing the matrix.

    Returns (source_ids, float64 vector); entry i is the float64 sum of the
    float32 scores of column i in target index order, divided by P, so it
    equals that reduction over the build_similarity_matrix matrix
    bit-for-bit.

    With mean pooling and 1 <= top < N, only the sources whose mean can be
    among the top largest are scored: the result holds a subset of the
    sources, in source order, that contains every source of the top (by
    mean desc, then id asc), each with its exact mean. Otherwise top is
    ignored and every source is scored.
    """
    p = target.video_count
    if p == 0:
        raise ArgumentError("target corpus is empty")
    target_side = _target_side(target, source, pooling)
    ids = source.video_ids()
    rows = None
    if pooling is PoolingMode.MEAN and top is not None and 1 <= top < len(ids):
        rows = _mean_candidates(target_side, source, tile, top)
        if len(rows) == len(ids):
            rows = None
        else:
            ids = [ids[row] for row in rows.tolist()]
    sums = np.zeros(len(ids), dtype=np.float64)

    def consume(lo: int, hi: int, block32: np.ndarray) -> None:
        acc = sums[lo:hi]
        for row in block32:
            acc += row

    _score_blocks(target_side, source, pooling, tile, consume, rows)
    return ids, sums / p


def _id_rank(ids: Sequence[str]) -> np.ndarray:
    """rank[i] is the position of ids[i] in ascending id order."""
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def _top_k(scores32: np.ndarray, cols: np.ndarray, rank: np.ndarray,
           k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k best (score, column) entries under (score desc, id rank asc),
    in no particular order: all entries above the k-th largest score, then
    the entries equal to it with the smallest id ranks."""
    n = len(scores32)
    if n <= k:
        return scores32, cols
    kth = np.partition(scores32, n - k)[n - k]
    above = np.flatnonzero(scores32 > kth)
    tied = np.flatnonzero(scores32 == kth)
    need = k - len(above)
    if len(tied) > need:
        tied = tied[np.argpartition(rank[cols[tied]], need - 1)[:need]]
    keep = np.concatenate((above, tied))
    return scores32[keep], cols[keep]


@dataclass(frozen=True, eq=False)
class RowTopK:
    """Per-row top k of a P x N score matrix, as arrays.

    Row j's entries are source_ids[cols[j, i]] with score scores[j, i]
    (cols intp and scores float32, both P x k), sorted by descending score
    with ties broken by ascending source id.
    """

    source_ids: Sequence[str]
    cols: np.ndarray
    scores: np.ndarray

    def rows(self) -> list[list[tuple[str, float]]]:
        """Each row as a list of (source_id, score) pairs."""
        ids = self.source_ids
        return [[(ids[c], s) for c, s in zip(cols, scores)]
                for cols, scores in zip(self.cols.tolist(), self.scores.tolist())]


class _RowTopK:
    """Per-row top-k of a P x N float32 score matrix fed in column blocks.

    Each row keeps its k best entries under (score desc, source id asc) as
    a float32 score array and an intp source-index array, unordered until
    result(). Ties go by the rank of the source id, not by column, so the
    kept set is a function of the scores alone: block geometry and merge
    order cannot change it. A dense matrix is the case of a single block.
    """

    def __init__(self, rows: int, k: int, source_ids: Sequence[str]):
        self.k = k
        self.ids = source_ids
        self.rank = _id_rank(source_ids)
        self.scores = [np.empty(0, dtype=np.float32)] * rows
        self.cols = [np.empty(0, dtype=np.intp)] * rows

    def candidates(self, block32: np.ndarray, col0: int) -> list[tuple]:
        """The top k of each block row: its only entries that can make the
        row's overall top k."""
        cols = np.arange(col0, col0 + block32.shape[1])
        return [_top_k(row, cols, self.rank, self.k) for row in block32]

    def merge(self, candidates: list[tuple]) -> None:
        """Fold candidates() of every row into the kept entries."""
        for j, (scores, cols) in enumerate(candidates):
            if len(self.scores[j]) == self.k:
                # A full row admits only scores >= its worst kept score
                # (an equal score with a smaller id still wins).
                enter = scores >= self.scores[j].min()
                if not enter.any():
                    continue
                scores, cols = scores[enter], cols[enter]
            self.scores[j], self.cols[j] = _top_k(
                np.concatenate((self.scores[j], scores)),
                np.concatenate((self.cols[j], cols)), self.rank, self.k)

    def result(self) -> RowTopK:
        """The kept entries, each row sorted. Every row holds exactly k of
        them once all columns have been merged."""
        scores = np.empty((len(self.scores), self.k), dtype=np.float32)
        cols = np.empty((len(self.cols), self.k), dtype=np.intp)
        # Row by row: one lexsort over all rows would need P x k temporaries
        # on top of the kept entries, and k is 3c in a KNN pool search.
        for j, (row_scores, row_cols) in enumerate(zip(self.scores, self.cols)):
            order = np.lexsort((self.rank[row_cols], -row_scores))
            scores[j], cols[j] = row_scores[order], row_cols[order]
        return RowTopK(self.ids, cols, scores)


def stream_row_topk(target: CorpusHandle, source: CorpusHandle,
                    pooling: PoolingMode, k: int,
                    tile: TileConfig = DEFAULT_TILE) -> RowTopK:
    """Top-k scoring sources per target row, never materializing the matrix.

    Every row holds min(k, N) entries, sorted by descending score with ties
    broken by ascending source_id.
    """
    if k < 1:
        raise ArgumentError("k must be >= 1")
    reducer = _RowTopK(target.video_count, min(k, source.video_count), source.video_ids())
    lock = threading.Lock()

    def consume(lo: int, hi: int, block32: np.ndarray) -> None:
        candidates = reducer.candidates(block32, lo)
        with lock:
            reducer.merge(candidates)

    _score_blocks(_target_side(target, source, pooling), source, pooling, tile, consume)
    return reducer.result()


def save_matrix(view: SimilarityView, path: str | Path) -> None:
    """Dump a dense view: CPDK header then P x N float32 row-major."""
    p, n = view.matrix.shape
    with open(path, "wb") as f:
        f.write(_MATRIX_HEADER.pack(MATRIX_MAGIC, MATRIX_VERSION, p, n))
        f.write(view.matrix.astype("<f4", copy=False).tobytes())


def load_matrix(path: str | Path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < _MATRIX_HEADER.size:
        raise FormatError(f"{path}: shorter than header")
    magic, version, p, n = _MATRIX_HEADER.unpack_from(data, 0)
    if magic != MATRIX_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != MATRIX_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expected = _MATRIX_HEADER.size + p * n * 4
    if len(data) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(data)}")
    values = np.frombuffer(data, dtype="<f4", count=p * n, offset=_MATRIX_HEADER.size)
    return values.reshape(p, n).copy()


def write_column_means(source_ids: Sequence[str], means: np.ndarray,
                       path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for vid, mean in zip(source_ids, means):
            f.write(json.dumps({"source_id": vid, "avg_sim": float(mean)}) + "\n")


def read_column_means(path: str | Path) -> tuple[list[str], np.ndarray]:
    def parse(line: str) -> tuple[str, float]:
        obj = json_object(line)
        return str_field(obj, "source_id"), number_field(obj, "avg_sim")

    rows = read_lines(path, "column-mean", parse)
    return [vid for vid, _ in rows], np.array([mean for _, mean in rows], dtype=np.float64)
