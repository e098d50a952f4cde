"""Scoring kernels: target x source blocks of float32 pair scores.

Score definition
----------------
CR(x . y) is the correctly rounded float64 value of the exact dot product
of two float64 vectors, +0.0 when that dot is exactly zero; fl64 and fl32
round to nearest. Target video j has clips t_l, float64 clip sum T_j and
clip count L_j; source video i has s_q, S_i and Q_i.

- mean pooling: fl32(fl64(CR(T_j . S_i) / fl64(L_j Q_i)));
- max pooling: fl32(max CR(t_l . s_q)), the maximum in IEEE total order
  (+0.0 above -0.0).

A score so depends on the two videos alone: not on the BLAS, its threads,
the summation order, the memory layout, or the block, group or chunk it is
computed in. Inputs are finite.

Certificate
-----------
Both kernels take their dots from np.matmul, whose error in any summation
order is at most gamma_d |x| |y| with gamma_d = d u / (1 - d u), u = 2^-53
and d the dimension, and give every cell an interval around its computed
value that holds the exact one. The rounding a score goes through is
monotone, so when both ends of the interval round to the same float32 bits,
so does the exact value, and the cell keeps them. The interval's half-width
is 2 (d + 4) u times a product of norms. The errors it must hold add up to
at most (d + 5) u times that product to first order: gamma_d of the dot,
2 u of dividing the inputs by their clip counts (mean), 2 u of the rounding
to the float64 quotient and u of rounding the interval's ends. The other
(d + 3) u covers the second-order terms and the rounding of the norms and
of the bound itself, which shrink it by a relative (d + 6) u at most.

- mean: the dots are (T_j / L_j) . (S_i / Q_i) over column chunks of
  _CHUNK sources, so the float64 temporaries per call are P x _CHUNK. The
  half-width is one per column, from the largest target norm.
- max: the certificate is per video pair: the pair's largest clip dot +-
  one bound per grid, from the largest clip norms on each side.

Exact path
----------
A cell whose ends disagree is recomputed exactly, _EXACT_BATCH cells at a
time: the dot's products split into TwoProduct terms (Dekker's split, as
math.fma is missing before Python 3.13) summed by math.fsum, which rounds
correctly (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26(6), 2005;
Shewchuk, 1997); a dot whose products are all zero is +0.0 without them.
Every exactly zero dot takes this path, as its interval holds values of
both signs. A row with an entry that is neither 0 nor between 2^-400 and
2^400 in magnitude could overflow or underflow the split (and the matmul),
so its dots are summed as fractions.Fraction instead, and it never keeps a
matmul cell. Under max pooling only the clip dots whose interval reaches
the pair's largest lower end are recomputed. exact_dot_count() counts the
recomputed dots.

The max kernel groups the videos on each side by clip count, so one matmul
scores a whole (target group, source group) clip grid, which is then
max-reduced per video pair. Target videos are chunked so that no grid
exceeds _GRID_BYTES (a grid always holds at least one target video against
its source group, so memory stays bounded by the tile).
"""
import math
import operator
import sys
import threading

import numpy as np

# Largest clip grid (float64 bytes) one matmul in max_score_block may allocate.
_GRID_BYTES = 4 * 1024 ** 2
# Source columns per matmul in mean_score_block.
_CHUNK = 512
# Cells recomputed exactly at a time: bounds the gathered rows and fsum terms.
_EXACT_BATCH = 1024
# Magnitudes whose products and Dekker splits neither overflow nor underflow.
_SAFE_LO, _SAFE_HI = 2.0 ** -400, 2.0 ** 400
_SPLITTER = 2.0 ** 27 + 1

_exact_lock = threading.Lock()
_exact_total = 0


def active():
    """The kernel module; tracing wraps its functions through this handle."""
    return sys.modules[__name__]


def backend_name() -> str:
    return "numpy"


def exact_dot_count() -> int:
    """Dots the certificates of this process have sent to the exact path."""
    return _exact_total


def _count_exact(n: int) -> None:
    global _exact_total
    with _exact_lock:
        _exact_total += n


def _half_width(dim: int) -> float:
    """The certificate's factor on the product of norms: 2 (d + 4) u."""
    return (dim + 4) * 2.0 ** -52


def _safe_rows(x: np.ndarray) -> np.ndarray:
    """Rows of x whose every entry is 0 or between 2^-400 and 2^400 in magnitude."""
    mag = np.abs(x)
    return ((mag == 0) | ((mag >= _SAFE_LO) & (mag <= _SAFE_HI))).all(axis=1)


def _norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.square(x).sum(axis=1))


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: x = high + low, each half of the significand."""
    scaled = _SPLITTER * x
    high = scaled - (scaled - x)
    return high, x - high


def exact_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """CR(x_c . y_c) for each row pair of x and y (n x d float64)."""
    out = np.zeros(len(x))
    safe = _safe_rows(x) & _safe_rows(y)
    live = np.flatnonzero(safe)
    prod = x[live] * y[live]
    # Safe products do not underflow: a row of zero products has the dot +0.0
    # (sparse or one-hot clips give many such cells).
    nonzero = prod.any(axis=1)
    live, prod = live[nonzero], prod[nonzero]
    if len(live):
        xs, ys = x[live], y[live]
        (x_hi, x_lo), (y_hi, y_lo) = _split(xs), _split(ys)
        err = x_lo * y_lo - (((prod - x_hi * y_hi) - x_lo * y_hi) - x_hi * y_lo)
        # A nonzero sum of floats is at least 2^-1074 in magnitude, so a zero
        # is exact; `or` makes it +0.0 whichever sign fsum gives it.
        out[live] = [math.fsum(terms) or 0.0 for terms in np.hstack([prod, err]).tolist()]
    if safe.all():
        return out
    from fractions import Fraction  # not at import: it costs every command 3 ms and 0.5 MB

    for c in np.flatnonzero(~safe).tolist():
        total = sum(map(operator.mul, map(Fraction, x[c].tolist()),
                        map(Fraction, y[c].tolist())), Fraction(0))
        try:
            out[c] = float(total)
        except OverflowError:
            out[c] = math.inf if total > 0 else -math.inf
    return out


def mean_score_block(t_sums, t_counts, s_sums, s_counts):
    p, n = len(t_sums), len(s_sums)
    out = np.empty((p, n), dtype=np.float32)
    t_safe = _safe_rows(t_sums)
    t_unit = t_sums / t_counts[:, None]
    t_unit[~t_safe] = 0.0
    reach = _half_width(t_sums.shape[1]) * _norms(t_unit).max(initial=0.0)
    high = np.empty(p * min(n, _CHUNK), dtype=np.float32)
    with np.errstate(over="ignore"):  # a float32 overflow is the score; callers report it
        for a in range(0, n, _CHUNK):
            b = min(a + _CHUNK, n)
            s_safe = _safe_rows(s_sums[a:b])
            s_unit = s_sums[a:b] / s_counts[a:b, None]
            s_unit[~s_safe] = 0.0
            bound = reach * _norms(s_unit)
            dots = t_unit @ s_unit.T
            low, up = out[:, a:b], high[:p * (b - a)].reshape(p, b - a)
            np.subtract(dots, bound, out=low)
            np.add(dots, bound, out=up)
            unsure = low.view(np.uint32) != up.view(np.uint32)
            if not t_safe.all():
                unsure[~t_safe] = True
            if not s_safe.all():
                unsure[:, ~s_safe] = True
            cells = np.flatnonzero(unsure)  # not nonzero(unsure): 20x slower
            _count_exact(len(cells))
            for k in range(0, len(cells), _EXACT_BATCH):
                rows, cols = np.divmod(cells[k:k + _EXACT_BATCH], b - a)
                low[rows, cols] = exact_dots(t_sums[rows], s_sums[a + cols]) / (
                    t_counts[rows].astype(np.float64) * s_counts[a + cols].astype(np.float64))
    return out


def _count_groups(clips, offsets):
    """(clip count, video indices, their clip rows stacked contiguously,
    whether each video's clips are all safe, each video's largest clip norm)
    for each distinct clip count, in ascending count order. Unsafe clip
    rows are zeroed, so the matmul over them stays finite."""
    counts = np.diff(offsets)
    # not np.unique, whose first call imports numpy.ma (about 17 ms)
    for count in sorted(set(counts.tolist())):
        idx = np.flatnonzero(counts == count)
        rows = clips[(offsets[idx][:, None] + np.arange(count)).ravel()]
        safe = _safe_rows(rows)
        rows[~safe] = 0.0
        yield (count, idx, rows, safe.reshape(-1, count).all(axis=1),
               _norms(rows).reshape(-1, count).max(axis=1))


def exact_max(t_clips: np.ndarray, s_clips: np.ndarray, candidates=None) -> float:
    """The largest CR(t_l . s_q) in IEEE total order, over the (l, q) cells
    of the boolean candidates grid, or over all of them."""
    if candidates is None:
        candidates = np.ones((len(t_clips), len(s_clips)), dtype=bool)
    ls, qs = np.nonzero(candidates)
    dots = exact_dots(t_clips[ls], s_clips[qs]).tolist()
    return max(dots, key=lambda v: (v, math.copysign(1.0, v)))


def max_score_block(t_clips, t_offsets, s_clips, s_offsets):
    out = np.empty((len(t_offsets) - 1, len(s_offsets) - 1), dtype=np.float32)
    factor = _half_width(t_clips.shape[1])
    sources = list(_count_groups(s_clips, s_offsets))
    with np.errstate(over="ignore"):  # a float32 overflow is the score; callers report it
        for tc, t_idx, t_rows, t_safe, t_norm in _count_groups(t_clips, t_offsets):
            for sc, s_idx, s_rows, s_safe, s_norm in sources:
                step = max(1, _GRID_BYTES // (8 * tc * len(s_rows)))
                for a in range(0, len(t_idx), step):
                    chunk = t_idx[a:a + step]
                    grid = (t_rows[a * tc:(a + len(chunk)) * tc] @ s_rows.T).reshape(
                        len(chunk), tc, len(s_idx), sc)
                    best = grid.max(axis=(1, 3))
                    bound = factor * t_norm[a:a + len(chunk)].max() * s_norm.max()
                    low = (best - bound).astype(np.float32)
                    unsure = low.view(np.uint32) != (best + bound).astype(np.float32).view(
                        np.uint32)
                    safe = t_safe[a:a + len(chunk), None] & s_safe[None, :]
                    for j, i in zip(*np.nonzero(unsure | ~safe)):
                        t_video = t_clips[t_offsets[chunk[j]]:t_offsets[chunk[j] + 1]]
                        s_video = s_clips[s_offsets[s_idx[i]]:s_offsets[s_idx[i] + 1]]
                        # the cells whose interval reaches the pair's lower end
                        # (3, not 2, bounds: room for the rounding of this test)
                        reach = (grid[j, :, i, :] >= best[j, i] - 3 * bound
                                 if safe[j, i] else None)
                        _count_exact(tc * sc if reach is None else int(reach.sum()))
                        low[j, i] = exact_max(t_video, s_video, reach)
                    out[np.ix_(chunk, s_idx)] = low
    return out
