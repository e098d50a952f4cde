"""Clip-level video-pair similarity and the target x source score kernel.

The pair score under mean pooling is the grand mean of all L x Q pairwise
clip dot products; under max pooling it is their maximum. The mean is
evaluated through per-video clip sums (the mean of all pairwise dots equals
dot(sum of target clips, sum of source clips) / (L*Q)), which makes a pair
cost O(dim) instead of O(L*Q*dim). The corpora's sums are read from their
shards (CorpusHandle.load_sums), so mean pooling decodes no clip.

Determinism contract
--------------------
A pair's float32 score is defined by the two videos alone, from correctly
rounded float64 dot products (see the kernels module), so no BLAS, thread
count, summation order or layout moves a bit of it. Every consumer (dense
matrix, column means, per-row top-k) sees those same float32 values, and
ordered reductions over them are performed in target index order.
Consequently dense and streaming paths agree bit-for-bit and results are
independent of tile geometry and worker count.

All three consumers take their float32 blocks from one helper,
_score_blocks: one P x tile_cols block per source tile. stream_row_topk
returns a RowTopK: P x k arrays of source indices and scores, each row
sorted by (score desc, source id asc).

Top-k keys
----------
The row top-k reducer codes each entry as one uint64 key whose ascending
order is (score desc, source id asc), with 0.0 and -0.0 equal. Bits 32-63
hold the float32 bits b of the score, -0.0 folded to +0.0, counting down:
0x7FFFFFFF - b for b >= 0 and b itself below 0. Bits 1-31 hold the rank of
the source id, so no two keys of a row are equal and the k smallest keys
are one set whatever blocks they came in; a source corpus of 2^31 videos
or more is a CapacityError. Bit 0 marks a -0.0 score, which comes back bit
for bit.

Pruned avg-sim selection
------------------------
stream_column_means(..., top=c) under mean pooling scores exactly only the
sources whose mean can be among the c largest (bound-and-verify, as in the
threshold algorithm of Fagin, Lotem and Naor, PODS 2001). Take target j's
float64 clip sum T_j and clip count L_j, and source i's float64 clip sum
S_i and clip count Q_i, as given: S_i is the sum its shard stores, which
the exact pass scores too. Source i's exact mean m_i is fl(fl(sum_j x_ij) /
P) with x_ij = fl32(fl(T_j . S_i) / fl(L_j Q_i)), whose real counterpart is
mu_i = S_i . C / Q_i for the target centre C = (1/P) sum_j T_j / L_j. One
bound pass computes per source, from its stored sum alone (one float64
mat-vec and one row norm per tile),

    a_i = fl(S_i . C^) / Q_i,      C^ the float64 value of C,
    B_i = K M |S_i| / Q_i + 2^-149,
    K = 2^-23 + 8 (d + P + 8) 2^-53,

where M = (1/P) sum_j |T_j| / L_j, |S_i| is the float64 value of the
Euclidean norm of S_i and d is the dimension; B_i >= |m_i - a_i|. With
u = 2^-53 and G = M |S_i| / Q_i:

- exact side: by Cauchy-Schwarz |T_j . S_i| / (L_j Q_i) <= |T_j| |S_i| /
  (L_j Q_i), whose mean over j is G. The kernel's dot product is correctly
  rounded, so it adds at most u; the count product and the division add
  2 u, and the target-order column sum plus the final division by P add
  (P + 1) u, all times G (to first order). The float32 rounding adds at
  most 2^-24 |x| + 2^-150 per score, so 2^-24 G + 2^-150 to the mean. S_i
  adds no error of its own: both passes take the same stored value.
- estimate side: |C^ - C| <= (P + 1) u M and |C^| <= M (1 + (P + 1) u), so
  the dot product with S_i (a matmul, d u in any summation order) and the
  division by Q_i add at most (P + 1 + d + 1) u G.
- The float64 terms add up to (2P + d + 6) u G, and K holds more than
  four times that, which covers the second-order terms and the rounding of
  a_i +- B_i (|a_i| <= G (1 + small)). K also holds the float32 term
  twice. The second copy covers the rounding of the computed G, |S_i| (a
  relative (d/2 + 2) u) and M among it, as long as that is below one half,
  and of B_i itself; 2^-149 is twice the subnormal term.
- float64 neither overflows nor underflows: a nonzero float64 sum of
  float32 values lies between 2^-149 and 2^160 in magnitude (fewer than
  2^32 clips below 2^128 each), so the products of two lie between 2^-298
  and 2^320, and counts below 2^64 move them by far less than the rest of
  its normal range.
- A score can overflow float32 only if max_j(|T_j| / L_j) |S_i| / Q_i >=
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
from .errors import ArgumentError, CapacityError, DataError, SchemaError
from .store import ClipMatrix, CorpusHandle, _segment_clip_sums

MATRIX_MAGIC = b"CPDK"
MATRIX_VERSION = 1
_MATRIX_HEADER = struct.Struct("<4sHII")
# The smallest positive float32 (a subnormal): twice its largest rounding error.
_F32_TINY = 2.0 ** -149
_RANKS = 2 ** 31  # source ids a top-k key can rank


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
    one kernel call: a P x tile_cols float32 block per thread, plus the mean
    kernel's P x kernels._CHUNK float64 temporaries. Tile width and thread
    count never change results, only peak memory and wall time.
    max_dense_bytes caps build_similarity_matrix.
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


def _prepare_side(corpus: CorpusHandle, span: tuple, pooling: PoolingMode) -> tuple:
    """The kernel arguments of the corpus rows span (load_tile's arguments):
    (float64 clip sums, counts), read by load_sums, under mean pooling, or
    (float64 clips, offsets) of the decoded tile under max pooling."""
    if pooling is PoolingMode.MEAN:
        return corpus.load_sums(*span)
    tile = corpus.load_tile(*span)
    return tile.clips.astype(np.float64), tile.offsets


def _clip_sum(video: ClipMatrix) -> np.ndarray:
    """The video's float64 clip sum (1 x dim), as its shard stores it."""
    count = video.clip_count
    return _segment_clip_sums(video.values, np.array([0, count]),
                              np.array([count], dtype=np.intp))


def _each_tile(n: int, tile: TileConfig, work: Callable[[int, int], None]) -> None:
    """Call work(lo, hi) for each tile [lo, hi) of range(n), on tile.threads
    threads. The tiles are near-equal, none wider than tile.tile_cols, and
    as few as that allows with their count a multiple of the thread count
    (or n, if that is smaller), so that the threads get equal shares."""
    count = -(-n // tile.tile_cols)
    count = min(-(-count // tile.threads) * tile.threads, n)
    bounds = [k * n // count for k in range(count + 1)] if count else []
    spans = list(zip(bounds[:-1], bounds[1:]))
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
    return _prepare_side(target, (0, p), pooling) if p else None


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
    kernel = kernels.mean_score_block if pooling is PoolingMode.MEAN else kernels.max_score_block

    def work(lo: int, hi: int) -> None:
        # A decoded tile is freed once prepared, before the kernel runs.
        span = (lo, hi) if rows is None else (rows[lo:hi],)
        block32 = kernel(*target_side, *_prepare_side(source, span, pooling))
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
    """Score one target/source video pair (float64): the value whose float32
    rounding is the pair's score (see the kernels module), computed exactly.

    Mean pooling averages all L x Q clip dot products; max pooling takes
    their maximum. Symmetric under mean pooling: swapping the arguments
    reproduces the exact same float.
    """
    if target.dim != source.dim:
        raise SchemaError(f"target dim {target.dim} != source dim {source.dim}")
    if pooling is PoolingMode.MAX:
        return kernels.exact_max(target.values.astype(np.float64),
                                 source.values.astype(np.float64))
    dot = kernels.exact_dots(_clip_sum(target), _clip_sum(source))[0]
    return float(dot / float(target.clip_count * source.clip_count))


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
    scale = (2.0 ** -23 + 8 * (dim + p + 8) * 2.0 ** -53) * spread
    n = source.video_count
    lower, upper = np.empty(n), np.empty(n)

    def work(lo: int, hi: int) -> None:
        sums, counts = source.load_sums(lo, hi)
        estimate = (sums @ center) / counts
        reach = np.sqrt(np.einsum("qk,qk->q", sums, sums)) / counts
        bound = scale * reach + _F32_TINY
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


def _count_down(bits: np.ndarray) -> np.ndarray:
    """The score field of a top-k key from float32 bits b, and back again:
    0x7FFFFFFF - b for b < 0x80000000, b itself otherwise (a new uint32
    array; branch-free, as a masked ufunc costs more than the whole key)."""
    flip = bits >> 31
    flip -= 1
    flip &= 0x7FFFFFFF
    flip ^= bits
    return flip


class _RowTopK:
    """Per-row top-k of a P x N float32 score matrix fed in column blocks
    of at most block_cols, kept as the k smallest "Top-k keys" of each row
    (see the module docstring). A dense matrix is the case of one block."""

    def __init__(self, rows: int, k: int, source_ids: Sequence[str], block_cols: int):
        if len(source_ids) >= _RANKS:
            raise CapacityError(f"top-k keys rank fewer than {_RANKS} source videos, "
                                f"got {len(source_ids)}")
        self.k = k
        self.ids = source_ids
        rank = _id_rank(source_ids)
        self.order = np.argsort(rank)
        self.rank_bits = rank.astype(np.uint64) << 1
        # k kept keys per row, then room for one block's candidates
        self.keys = np.empty((rows, k + min(k, block_cols)), dtype=np.uint64)
        self.filled = 0

    def candidates(self, block32: np.ndarray, col0: int) -> np.ndarray:
        """The k smallest keys of each block row: its only entries that can
        make the row's overall top k."""
        bits = block32.view(np.uint32)
        negzero = bits == 0x80000000
        keys = _count_down(bits)
        keys -= negzero  # -0.0 counts as +0.0
        keys = keys.astype(np.uint64)
        keys <<= 32
        keys |= self.rank_bits[col0:col0 + keys.shape[1]]
        keys |= negzero
        if keys.shape[1] <= self.k:
            return keys
        keys.partition(self.k - 1, axis=1)
        return keys[:, :self.k].copy()

    def merge(self, candidates: np.ndarray) -> None:
        """Fold candidates() of a block into the kept keys."""
        end = self.filled + candidates.shape[1]
        self.keys[:, self.filled:end] = candidates
        self.filled = min(end, self.k)
        if end > self.k:
            self.keys[:, :end].partition(self.k - 1, axis=1)

    def result(self) -> RowTopK:
        """The kept entries, each row sorted; call once, after every column
        has been merged (every row then holds exactly k entries)."""
        keys = self.keys[:, :self.k]
        keys.sort(axis=1)
        ranks = np.empty(keys.shape, dtype=np.intp)
        np.right_shift(keys, 1, out=ranks, casting="unsafe")
        ranks &= _RANKS - 1
        # Decode the scores in place; the -0.0 flag carries into the score
        # field, turning 0x7FFFFFFF into 0x80000000.
        keys |= 0xFFFFFFFE
        keys += 1
        keys >>= 32
        scores = _count_down(keys.astype(np.uint32)).view(np.float32)
        self.keys = keys = None  # free the keys before the columns are made
        return RowTopK(self.ids, self.order[ranks], scores)


def stream_row_topk(target: CorpusHandle, source: CorpusHandle,
                    pooling: PoolingMode, k: int,
                    tile: TileConfig = DEFAULT_TILE) -> RowTopK:
    """Top-k scoring sources per target row, never materializing the matrix.

    Every row holds min(k, N) entries, sorted by descending score with ties
    broken by ascending source_id.
    """
    if k < 1:
        raise ArgumentError("k must be >= 1")
    reducer = _RowTopK(target.video_count, min(k, source.video_count), source.video_ids(),
                       tile.tile_cols)
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


def write_column_means(source_ids: Sequence[str], means: np.ndarray,
                       path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for vid, mean in zip(source_ids, means):
            f.write(json.dumps({"source_id": vid, "avg_sim": float(mean)}) + "\n")
