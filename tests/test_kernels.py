"""The scoring kernels against their definition, summed as fractions.

A score is the float32 rounding of a value defined by correctly rounded dot
products (see the kernels module), so both kernels must equal the Fraction
oracles of tests/helpers.py bit for bit, whatever the memory layout, the
chunking or the BLAS threads. CI runs this file a second time under
OPENBLAS_NUM_THREADS=2.
"""
import hashlib
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cupid.kernels as kernels
from cupid import ClipMatrix, CorpusHandle, build_corpus
from cupid.cli import main

from helpers import fraction_max_score, fraction_mean_score, load_matrix

_F32_MAX = float(np.finfo(np.float32).max)
# Entries on the edges of the kernels' input domain (signed zeros, the
# smallest subnormal and normal float32, the largest float32, the largest
# clip sum 2^160) and far from 1.
_SPECIAL = [0.0, -0.0, 2.0 ** -149, -(2.0 ** -149), 2.0 ** -126, -(2.0 ** -126),
            _F32_MAX, -_F32_MAX, 2.0 ** 160, -(2.0 ** 160), 1e-30, 1e30]


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float32).view(np.uint32)


def _draw_matrix(data, rows: int, dim: int) -> np.ndarray:
    """rows x dim float64: float32 normals (exact products), float64 normals
    (inexact products) or small integers (exact zeros and ties), with a few
    special entries."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    kind = data.draw(st.sampled_from(["float32", "float64", "integer"]))
    if kind == "integer":
        x = rng.integers(-2, 3, size=(rows, dim)).astype(np.float64)
    else:
        x = rng.standard_normal((rows, dim)).astype(kind).astype(np.float64)
    for _ in range(data.draw(st.integers(0, 3))):
        x[data.draw(st.integers(0, rows - 1)),
          data.draw(st.integers(0, dim - 1))] = data.draw(st.sampled_from(_SPECIAL))
    return x


def _aim_at_midpoints(t: np.ndarray, s: np.ndarray, scales) -> None:
    """Set the last entry of each row i of s so that the exact dot with row
    i % len(t) of t, over scales(j, i), lands next to a float32 midpoint:
    the certificate cannot settle such a cell, so the exact path does."""
    for i in range(len(s)):
        j = i % len(t)
        pivot = t[j, -1]
        if not 1e-30 < abs(pivot) < 1e30:
            continue
        head = sum((Fraction(a) * Fraction(b) for a, b in zip(t[j, :-1].tolist(),
                                                             s[i, :-1].tolist())), Fraction(0))
        scale = scales(j, i)
        if abs(head / scale) > 1e30:
            continue
        near = np.float32(float(head / scale) + 1.0)
        up = np.nextafter(near, np.float32(np.inf))
        mid = (Fraction(float(near)) + Fraction(float(up))) / 2
        last = float((mid * scale - head) / Fraction(pivot))
        if last == 0 or 2.0 ** -149 <= abs(last) < 1e30:  # in the input domain
            s[i, -1] = last


def _draw_layout(data, x: np.ndarray) -> np.ndarray:
    """x as C order, Fortran order, or with negative row or column strides."""
    layout = data.draw(st.sampled_from(["C", "F", "rows reversed", "cols reversed"]))
    if layout == "F":
        return np.asfortranarray(x)
    if layout == "rows reversed":
        return np.ascontiguousarray(x[::-1])[::-1]
    if layout == "cols reversed":
        return np.ascontiguousarray(x[:, ::-1])[:, ::-1]
    return x


def _counts(data, n: int) -> np.ndarray:
    return np.array(data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)),
                    dtype=np.intp)


class TestDefinition:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mean_kernel_is_its_definition(self, data):
        dim = data.draw(st.integers(1, 64))
        p, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 7))
        t, s = _draw_matrix(data, p, dim), _draw_matrix(data, n, dim)
        t_counts, s_counts = _counts(data, p), _counts(data, n)
        if data.draw(st.booleans()):
            _aim_at_midpoints(t, s, lambda j, i: int(t_counts[j]) * int(s_counts[i]))
        want = np.array([[fraction_mean_score(t[j], t_counts[j], s[i], s_counts[i])
                          for i in range(n)] for j in range(p)], dtype=np.float32)
        chunk = data.draw(st.sampled_from([1, 3, kernels._CHUNK]))
        batch = data.draw(st.sampled_from([1, 2, kernels._EXACT_BATCH]))
        with mock.patch.multiple(kernels, _CHUNK=chunk, _EXACT_BATCH=batch):
            got = kernels.mean_score_block(_draw_layout(data, t), t_counts,
                                           _draw_layout(data, s), s_counts)
        assert got.dtype == np.float32 and got.shape == (p, n)
        assert (_bits(got) == _bits(want)).all(), (got, want)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_max_kernel_is_its_definition(self, data):
        dim = data.draw(st.integers(1, 64))
        t_counts, s_counts = (data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=m))
                              for m in (3, 5))
        t_offsets = np.cumsum([0] + t_counts).astype(np.intp)
        s_offsets = np.cumsum([0] + s_counts).astype(np.intp)
        t, s = (_draw_matrix(data, int(offsets[-1]), dim) for offsets in (t_offsets, s_offsets))
        if data.draw(st.booleans()):
            _aim_at_midpoints(t, s, lambda j, i: 1)
        want = np.array([[fraction_max_score(t[t_offsets[j]:t_offsets[j + 1]],
                                             s[s_offsets[i]:s_offsets[i + 1]])
                          for i in range(len(s_counts))] for j in range(len(t_counts))],
                        dtype=np.float32)
        grid = data.draw(st.sampled_from([1, kernels._GRID_BYTES]))
        chunk = data.draw(st.sampled_from([1, 3, kernels._CHUNK]))
        batch = data.draw(st.sampled_from([1, 2, kernels._EXACT_BATCH]))
        with mock.patch.multiple(kernels, _GRID_BYTES=grid, _CHUNK=chunk, _EXACT_BATCH=batch):
            got = kernels.max_score_block(_draw_layout(data, t), t_offsets,
                                          _draw_layout(data, s), s_offsets)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert (_bits(got) == _bits(want)).all(), (got, want)

    @pytest.mark.parametrize("t, s, bits", [
        ([[-1.0, 0.0]], [[0.0, 1.0]], 0), ([[-0.0, -0.0]], [[1.0, 2.0]], 0),
        ([[2.0, -3.0]], [[3.0, 2.0]], 0),
        ([[2.0 ** 160, 2.0 ** 160]], [[2.0 ** 160, -(2.0 ** 160)]], 0),
        ([[_F32_MAX, -_F32_MAX]], [[_F32_MAX, _F32_MAX]], 0),
        ([[2.0 ** -149, -(2.0 ** -149)]], [[2.0 ** -149, 2.0 ** -149]], 0),
        ([[2.0 ** -126, 2.0 ** -149]], [[2.0 ** -149, -(2.0 ** -126)]], 0),
        # max pooling: clip dots -1e-60 and an exact zero give +0.0 ...
        ([[1e-30, 0.0], [0.0, 1.0]], [[-1e-30, 0.0]], 0),
        # ... and clip dots -1e-60 and -2e-60 alone give -0.0
        ([[1e-30, 0.0], [2e-30, 0.0]], [[-1e-30, 0.0]], 0x80000000)])
    def test_an_exactly_zero_dot_scores_plus_zero(self, t, s, bits):
        t, s = np.array(t), np.array(s)
        if len(t) == 1:
            one = np.array([1], dtype=np.intp)
            assert _bits(kernels.mean_score_block(t, one, s, one)).tolist() == [[bits]]
        got = kernels.max_score_block(t, np.array([0, len(t)], dtype=np.intp),
                                      s, np.array([0, len(s)], dtype=np.intp))
        assert _bits(got).tolist() == [[bits]]

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [1, 2, 3, 0], [1, 0, 2, 3], [3, 2, 1, 0]])
    def test_a_float64_sum_on_a_midpoint_is_not_the_score(self, order):
        # The exact dot is 1 + 2^-24 + 3 2^-53, above the float32 midpoint
        # 1 + 2^-24; a sum from the left rounds each 2^-53 away, lands on the
        # midpoint, and its float32 would tie down to 1.0.
        t = np.ones((1, 4))
        s = np.array([[1 + 2.0 ** -24, 2.0 ** -53, 2.0 ** -53, 2.0 ** -53]])[:, order]
        want = np.float32(1 + 2.0 ** -23)
        one = np.array([1], dtype=np.intp)
        assert kernels.mean_score_block(t, one, s, one)[0, 0] == want
        offsets = np.array([0, 1], dtype=np.intp)
        assert kernels.max_score_block(t, offsets, s, offsets)[0, 0] == want

    @pytest.mark.parametrize("x, y", [(2.0 ** -149, -(2.0 ** -149)), (-(2.0 ** -126), 2.0 ** -149),
                                      (2.0 ** -126, -(2.0 ** -126))])
    def test_a_dot_that_rounds_to_zero_keeps_its_sign(self, x, y):
        t, s = np.array([[x]]), np.array([[y]])
        one = np.array([1], dtype=np.intp)
        assert _bits(kernels.mean_score_block(t, one, s, one)).tolist() == [[0x80000000]]

    def test_max_kernel_calls_the_mean_kernel_past_a_wrapper(self, monkeypatch):
        # Tracing wraps kernels.mean_score_block; a traced max run must not
        # count the max kernel's inner calls a second time.
        def wrapper(*args):
            raise AssertionError("the max kernel called the wrapped mean kernel")

        monkeypatch.setattr(kernels, "mean_score_block", wrapper)
        t, s = np.array([[1.0, 2.0], [3.0, -1.0]]), np.array([[2.0, 1.0], [0.5, 0.0]])
        offsets = np.array([0, 1, 2], dtype=np.intp)
        got = kernels.max_score_block(t, np.array([0, 2], dtype=np.intp), s, offsets)
        assert got.tolist() == [[5.0, 1.5]]

    def test_exact_dots_are_counted(self):
        # integer clips, orthogonal in 3 of the 6 pairs: only those go exact
        t = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        s = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        before = kernels.exact_dot_count()
        scores = kernels.mean_score_block(t, np.ones(2, np.intp), s, np.ones(3, np.intp))
        assert kernels.exact_dot_count() - before == 3
        assert scores.tolist() == [[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]]


class TestLargeBlock:
    """A block wide enough for several chunks and for a threaded BLAS to
    split the matmul keeps its bits under any chunking and layout."""

    def test_chunks_and_layouts_keep_the_bits(self):
        rng = np.random.default_rng(11)
        p, n, dim = 40, 1100, 64
        t = rng.standard_normal((p, dim)).astype(np.float32).astype(np.float64) * 3
        s = rng.standard_normal((n, dim)).astype(np.float32).astype(np.float64) * 3
        t_counts, s_counts = rng.integers(1, 9, size=p), rng.integers(1, 9, size=n)
        _aim_at_midpoints(t, s[:60], lambda j, i: int(t_counts[j]) * int(s_counts[i]))
        before = kernels.exact_dot_count()
        whole = kernels.mean_score_block(t, t_counts, s, s_counts)
        assert kernels.exact_dot_count() - before >= 30
        for layout in (np.asfortranarray, lambda x: np.ascontiguousarray(x[::-1])[::-1]):
            got = kernels.mean_score_block(layout(t), t_counts, layout(s), s_counts)
            assert (_bits(got) == _bits(whole)).all()
        with mock.patch.object(kernels, "_CHUNK", 7):
            assert (_bits(kernels.mean_score_block(t, t_counts, s, s_counts))
                    == _bits(whole)).all()
        cells = [(i % p, i) for i in range(60)] + [
            (int(j), int(i)) for j, i in zip(rng.integers(0, p, 100), rng.integers(0, n, 100))]
        for j, i in cells:
            assert _bits(whole[j, i]) == _bits(
                fraction_mean_score(t[j], t_counts[j], s[i], s_counts[i])), (j, i)


def _midpoint_videos(prefix: str, n: int, target: bool) -> list[ClipMatrix]:
    """d = 64 clips made without a random generator. Every target clip pairs
    its entries (m, 61 - m); even-numbered sources pair them as +-y, so that
    the first 62 products cancel exactly, and end in M1 + M2, M1 a float32 in
    [1, 2) and M2 = 2^-24: each such pair's dot is a float32 midpoint. The y
    span 2^-20 to 2^21, so float64 sums lose bits, and land on either side of
    the midpoint depending on their order. Odd-numbered sources do not
    cancel. Some sources have a second, zero clip."""
    videos = []
    for v in range(n):
        clip = np.empty(64)
        for m in range(31):
            x = 1 + ((v * 31 + m * 17) % 97) / 97
            if target:
                clip[m] = clip[61 - m] = x
            else:
                y = (1 + ((v * 13 + m * 29) % 89) / 89) * 2.0 ** ((m * 7) % 41 - 20)
                clip[m], clip[61 - m] = y, -y if v % 2 == 0 else y / 3
        if target:
            clip[62] = clip[63] = 2.0 ** (v - 1)
        else:
            clip[62], clip[63] = 1 + ((v * 7919) % 8388608) * 2.0 ** -23, 2.0 ** -24
        clips = [clip] if v % 3 else [clip, np.zeros(64)]
        videos.append(ClipMatrix(f"{prefix}{v}", np.array(clips, dtype=np.float32)))
    return videos


_GOLDEN_MATRIX_SHA256 = {
    "mean": "b4072a741bd0f0923a4f40e824987497304dff4485dfad77bfcf7cf9a85065f1",
    "max": "3d1b544dbc09f6d9724e225f5d80e7cbe1ffea228e3447023e0238639c2a1586",
}


class TestGoldenMatrix:
    """similarity --mode matrix bytes at d = 64 on float32 midpoints are
    pinned on every CI leg, and equal the Fraction oracle."""

    @pytest.mark.usefixtures("threads_for_any_work")
    @pytest.mark.parametrize("pooling", ["mean", "max"])
    @pytest.mark.parametrize("tile", [[], ["--threads", "2", "--tile-cols", "3"]])
    def test_golden_bytes(self, tmp_path, pooling, tile):
        sources, targets = _midpoint_videos("s", 8, False), _midpoint_videos("t", 3, True)
        build_corpus(sources, tmp_path / "src", "src", role="source")
        build_corpus(targets, tmp_path / "tgt", "tgt", role="target")
        out = tmp_path / "matrix.bin"
        assert main(["similarity", "--mode", "matrix", "--pooling", pooling, *tile,
                     "--source-manifest", str(tmp_path / "src" / "src.manifest.jsonl"),
                     "--target-manifest", str(tmp_path / "tgt" / "tgt.manifest.jsonl"),
                     "--out", str(out)]) == 0
        data = out.read_bytes()
        matrix = np.frombuffer(data[14:], dtype="<f4").reshape(3, 8)
        for j, tv in enumerate(targets):
            t_clips = tv.values.astype(np.float64)
            for i, sv in enumerate(sources):
                s_clips = sv.values.astype(np.float64)
                want = (fraction_max_score(t_clips, s_clips) if pooling == "max" else
                        fraction_mean_score(t_clips.sum(axis=0), tv.clip_count,
                                            s_clips.sum(axis=0), sv.clip_count))
                assert _bits(matrix[j, i]) == _bits(want), (j, i)
        report = json.loads((tmp_path / "matrix.bin.run.json").read_text())
        assert report["summary"]["exact_dots"] >= 12  # the midpoint pairs
        assert hashlib.sha256(data).hexdigest() == _GOLDEN_MATRIX_SHA256[pooling]


def _edge_clips(rng, n: int) -> dict[str, np.ndarray]:
    """n videos of 1-3 float32 clips (d = 8) at the input domain's edges:
    +-2^-149, +-2^-126, exact zeros and +-2^60 among float32 normals scaled
    by 2^-140 to 2^60, so no score overflows. Video 0 is all zeros and
    video 1's clips cancel, so their sums are exactly zero."""
    palette = np.array([0.0, 2.0 ** -149, -(2.0 ** -149), 2.0 ** -126, -(2.0 ** -126),
                        2.0 ** 60, -(2.0 ** 60)], dtype=np.float32)
    videos = {}
    for v in range(n):
        shape = (int(rng.integers(1, 4)), 8)
        scaled = rng.standard_normal(shape) * 2.0 ** rng.integers(-140, 61, size=shape)
        clips = np.where(rng.random(shape) < 0.5, rng.choice(palette, size=shape),
                         scaled).astype(np.float32)
        if v == 0:
            clips[:] = 0
        elif v == 1:
            clips = np.concatenate([clips[:1], -clips[:1]])
        videos[f"v{v:02d}"] = clips
    return videos


class TestDomainEdges:
    """Clips at the edges of the kernels' input domain, ingested and scored
    through the CLI: every stored sum is in the domain, and every score
    equals the Fraction oracle under any tiling."""

    @pytest.mark.usefixtures("threads_for_any_work")
    @pytest.mark.parametrize("pooling", ["mean", "max"])
    @pytest.mark.parametrize("tile", [[], ["--threads", "2", "--tile-cols", "3"]])
    def test_scores_at_the_edges_are_their_definition(self, tmp_path, pooling, tile):
        rng = np.random.default_rng(149)
        clips = {}
        for role, n in [("source", 12), ("target", 4)]:
            clips[role] = _edge_clips(rng, n)
            np.savez(tmp_path / f"{role}.npz", **clips[role])
            assert main(["ingest", "--input", str(tmp_path / f"{role}.npz"), "--role", role,
                         "--out", str(tmp_path / role)]) == 0
        manifests = {role: tmp_path / role / f"{role}.manifest.jsonl" for role in clips}
        for role, manifest in manifests.items():
            sums, _ = CorpusHandle.open(manifest, role).load_sums(0, len(clips[role]))
            mag = np.abs(sums)
            assert ((mag == 0) | ((mag >= 2.0 ** -149) & (mag <= 2.0 ** 160))).all()
            assert (mag[:2] == 0).all()
        out = tmp_path / "matrix.bin"
        assert main(["similarity", "--mode", "matrix", "--pooling", pooling, *tile,
                     "--source-manifest", str(manifests["source"]),
                     "--target-manifest", str(manifests["target"]), "--out", str(out)]) == 0
        matrix = load_matrix(out)
        assert np.isfinite(matrix).all()
        for j, t_clips in enumerate(clips["target"].values()):
            t = t_clips.astype(np.float64)
            for i, s_clips in enumerate(clips["source"].values()):
                s = s_clips.astype(np.float64)
                want = (fraction_max_score(t, s) if pooling == "max" else
                        fraction_mean_score(t.sum(axis=0), len(t), s.sum(axis=0), len(s)))
                assert _bits(matrix[j, i]) == _bits(want), (j, i)
