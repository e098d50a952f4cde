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
the summation order, the memory layout, or the block or chunk it is
computed in.

Input domain
------------
Every entry is finite and either 0 or of magnitude in [2^-149, 2^160]: the
inputs are float32 clips or float64 sums of fewer than 2^32 of them, and
CorpusHandle.load_sums rejects a stored sum above 2^160. So no Dekker split,
product or matmul overflows or underflows: a nonzero product of two entries,
divided by clip counts below 2^32, lies between 2^-362 and 2^320 in
magnitude, and its TwoProduct error is a multiple of 2^-402.

Certificate
-----------
The mean kernel takes its dots from np.matmul, whose error in any summation
order is at most gamma_d |x| |y| with gamma_d = d u / (1 - d u), u = 2^-53
and d the dimension, and gives every cell an interval around its computed
value that holds the exact one. The rounding a score goes through is
monotone, so when both ends of the interval round to the same float32 bits,
so does the exact value, and the cell keeps them. The interval's half-width
is 2 (d + 4) u times a product of norms. The errors it must hold add up to
at most (d + 5) u times that product to first order: gamma_d of the dot,
2 u of dividing the inputs by their clip counts, 2 u of the rounding
to the float64 quotient and u of rounding the interval's ends. The other
(d + 3) u covers the second-order terms and the rounding of the norms and
of the bound itself, which shrink it by a relative (d + 6) u at most.

The dots are (T_j / L_j) . (S_i / Q_i) over column chunks of _CHUNK
sources, so the float64 temporaries per call are P x _CHUNK. The half-width
is one per column, from the largest target norm.

Max pooling has no certificate of its own. With clip counts of 1 the mean
score is fl32(fl64(CR(t_l . s_q) / 1)) = fl32(CR(t_l . s_q)), one certified
score per clip pair; fl32 is monotone in IEEE total order, so the
total-order max of those scores is fl32(max CR), the max score. So
max_score_block runs the mean kernel on the clips of blocks of whole videos
with unit counts and max-reduces each video pair: at most _GRID_BYTES //
(8 _CHUNK L) target videos (L their most clips), which bounds the mean
kernel's temporaries, and as many sources as keep the float32 clip-pair
scores under _GRID_BYTES; at least one video on each side.

Exact path
----------
A cell whose ends disagree is recomputed exactly, _EXACT_BATCH cells at a
time: the dot's products split into TwoProduct terms (Dekker's split, as
math.fma is missing before Python 3.13) summed by math.fsum, which rounds
correctly (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26(6), 2005;
Shewchuk, 1997); a dot whose products are all zero is +0.0 without them.
Every exactly zero dot takes this path, as its interval holds values of
both signs. exact_dot_count() counts the recomputed dots: under max
pooling, clip-pair cells.
"""
import math
import sys
import threading

import numpy as np

# Largest block (bytes) of clip-pair scores or mean-kernel temporaries in max_score_block.
_GRID_BYTES = 4 * 1024 ** 2
# Source columns per matmul in mean_score_block.
_CHUNK = 512
# Cells recomputed exactly at a time: bounds the gathered rows and fsum terms.
_EXACT_BATCH = 1024
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
    prod = x * y
    # Products in the input domain do not underflow: a row of zero products
    # has the dot +0.0 (sparse or one-hot clips give many such cells).
    live = np.flatnonzero(prod.any(axis=1))
    if len(live):
        prod = prod[live]
        (x_hi, x_lo), (y_hi, y_lo) = _split(x[live]), _split(y[live])
        err = x_lo * y_lo - (((prod - x_hi * y_hi) - x_lo * y_hi) - x_hi * y_lo)
        # A nonzero sum of floats is at least 2^-1074 in magnitude, so a zero
        # is exact; `or` makes it +0.0 whichever sign fsum gives it.
        out[live] = [math.fsum(terms) or 0.0 for terms in np.hstack([prod, err]).tolist()]
    return out


def mean_score_block(t_sums, t_counts, s_sums, s_counts):
    p, n = len(t_sums), len(s_sums)
    out = np.empty((p, n), dtype=np.float32)
    t_unit = t_sums / t_counts[:, None]
    # the half-width's factor 2 (d + 4) u times the largest target norm
    reach = (t_sums.shape[1] + 4) * 2.0 ** -52 * _norms(t_unit).max(initial=0.0)
    high = np.empty(p * min(n, _CHUNK), dtype=np.float32)
    with np.errstate(over="ignore"):  # a float32 overflow is the score; callers report it
        for a in range(0, n, _CHUNK):
            b = min(a + _CHUNK, n)
            s_unit = s_sums[a:b] / s_counts[a:b, None]
            bound = reach * _norms(s_unit)
            dots = t_unit @ s_unit.T
            low, up = out[:, a:b], high[:p * (b - a)].reshape(p, b - a)
            np.subtract(dots, bound, out=low)
            np.add(dots, bound, out=up)
            # not nonzero(...): 20x slower
            cells = np.flatnonzero(low.view(np.uint32) != up.view(np.uint32))
            _count_exact(len(cells))
            for k in range(0, len(cells), _EXACT_BATCH):
                rows, cols = np.divmod(cells[k:k + _EXACT_BATCH], b - a)
                low[rows, cols] = exact_dots(t_sums[rows], s_sums[a + cols]) / (
                    t_counts[rows].astype(np.float64) * s_counts[a + cols].astype(np.float64))
    return out


def exact_max(t_clips: np.ndarray, s_clips: np.ndarray) -> float:
    """The largest CR(t_l . s_q) in IEEE total order."""
    dots = exact_dots(np.repeat(t_clips, len(s_clips), axis=0),
                      np.tile(s_clips, (len(t_clips), 1))).tolist()
    return max(dots, key=lambda v: (v, math.copysign(1.0, v)))


def _count_down(bits: np.ndarray) -> np.ndarray:
    """From float32 bits b, a uint32 key whose ascending order is descending
    IEEE total order, and back again: 0x7FFFFFFF - b for b < 0x80000000, b
    itself otherwise (a new array; branch-free, as a masked ufunc costs more
    than the whole top-k key)."""
    flip = bits >> 31
    flip -= 1
    flip &= 0x7FFFFFFF
    flip ^= bits
    return flip


# Bound at import: a wrapper installed on mean_score_block sees max_score_block's calls once.
_mean_block = mean_score_block


def max_score_block(t_clips, t_offsets, s_clips, s_offsets):
    p, n = len(t_offsets) - 1, len(s_offsets) - 1
    out = np.empty((p, n), dtype=np.float32)
    t_most, s_most = (int(np.diff(offsets).max(initial=1)) for offsets in (t_offsets, s_offsets))
    t_step = max(1, _GRID_BYTES // (8 * _CHUNK * t_most))
    for ja in range(0, p, t_step):
        t_ends = t_offsets[ja:ja + t_step + 1]
        t_rows = t_clips[t_ends[0]:t_ends[-1]]
        t_ones = np.ones(len(t_rows), dtype=np.intp)
        s_step = max(1, _GRID_BYTES // (4 * len(t_rows) * s_most))
        for ia in range(0, n, s_step):
            s_ends = s_offsets[ia:ia + s_step + 1]
            s_rows = s_clips[s_ends[0]:s_ends[-1]]
            scores = _mean_block(t_rows, t_ones, s_rows, np.ones(len(s_rows), dtype=np.intp))
            keys = np.minimum.reduceat(_count_down(scores.view(np.uint32)),
                                       t_ends[:-1] - t_ends[0], axis=0)
            keys = np.minimum.reduceat(keys, s_ends[:-1] - s_ends[0], axis=1)
            out[ja:ja + t_step, ia:ia + s_step] = _count_down(keys).view(np.float32)
    return out
