"""Scoring kernels: target x source blocks of pair scores, in float64.

Mean pooling scores a pair from its clip sums; max pooling takes the largest
of the L x Q clip dot products. The max kernel groups the videos on each
side by clip count, so one ``np.einsum`` scores a whole (target group,
source group) clip grid, which is then max-reduced per video pair. Target
videos are chunked so that no grid exceeds ``_GRID_BYTES`` (a grid always
holds at least one target video against its source group, so memory stays
bounded by the tile).

Bit-stability notes: ``np.einsum`` (optimize=False) evaluates each output
cell independently of block shape: a clip dot is summed over the embedding
dimension in the same order whatever the grid around it. The maximum is
exact. So a pair's score is the same whichever block, group or chunk it is
computed in, and results are independent of tiling and threading.
"""
import sys

import numpy as np

# Largest clip grid (float64 bytes) one einsum in max_score_block may allocate.
_GRID_BYTES = 4 * 1024 ** 2


def active():
    """The kernel module; tracing wraps its functions through this handle."""
    return sys.modules[__name__]


def backend_name() -> str:
    return "numpy"


def mean_score_block(t_sums, t_counts, s_sums, s_counts):
    raw = np.einsum("jk,ik->ji", t_sums, s_sums)
    return raw / (t_counts[:, None] * s_counts[None, :]).astype(np.float64)


def _count_groups(clips, offsets):
    """(clip count, video indices, their clip rows stacked contiguously) for
    each distinct clip count, in ascending count order."""
    counts = np.diff(offsets)
    # not np.unique, whose first call imports numpy.ma (about 17 ms)
    for count in sorted(set(counts.tolist())):
        idx = np.flatnonzero(counts == count)
        rows = (offsets[idx][:, None] + np.arange(count)).ravel()
        yield count, idx, clips[rows]


def max_score_block(t_clips, t_offsets, s_clips, s_offsets):
    out = np.empty((len(t_offsets) - 1, len(s_offsets) - 1), dtype=np.float64)
    sources = list(_count_groups(s_clips, s_offsets))
    for tc, t_idx, t_rows in _count_groups(t_clips, t_offsets):
        for sc, s_idx, s_rows in sources:
            step = max(1, _GRID_BYTES // (8 * tc * len(s_rows)))
            for a in range(0, len(t_idx), step):
                chunk = t_idx[a:a + step]
                grid = np.einsum("ld,qd->lq", t_rows[a * tc:(a + len(chunk)) * tc], s_rows)
                out[np.ix_(chunk, s_idx)] = grid.reshape(
                    len(chunk), tc, len(s_idx), sc).max(axis=(1, 3))
    return out
