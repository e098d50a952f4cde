"""Shared fixtures-in-code: synthetic corpora and independent scoring oracles.

The oracles deliberately take the slow path (explicit pairwise dot products
in float64) so they stay independent of the kernel implementations.
"""
import dataclasses
import hashlib
import io
import json
import math
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from cupid import (ArgumentError, ClipMatrix, CorpusHandle, DataError, FormatError,
                   PoolingMode, SchemaError, SimilarityView, Subtitle, ingest_shard)
from cupid.curation import tokenize_title
from cupid.similarity import _MATRIX_HEADER, MATRIX_MAGIC, MATRIX_VERSION, RowTopK
from cupid.store import (ManifestEntry, int_field, json_object, number_field, read_lines,
                         str_field)


def random_videos(rng, prefix, n, max_clips, dim):
    videos = []
    for i in range(n):
        clips = int(rng.integers(1, max_clips + 1))
        values = rng.normal(size=(clips, dim)).astype(np.float32)
        videos.append(ClipMatrix(f"{prefix}{i:05d}", values))
    return videos


def random_corpus(rng, corpus_id, role, n, max_clips, dim):
    return CorpusHandle.from_arrays(
        corpus_id, role, random_videos(rng, corpus_id, n, max_clips, dim))


def naive_pair_score(target_video, source_video, pooling):
    """All L x Q clip dots in float64; grand mean or maximum."""
    dots = target_video.values.astype(np.float64) @ source_video.values.astype(np.float64).T
    return float(dots.mean() if pooling is PoolingMode.MEAN else dots.max())


def fraction_dot(x, y):
    """The correctly rounded float64 value of the exact dot of two float64
    vectors, summed as fractions; +0.0 when the dot is exactly zero."""
    total = sum((Fraction(a) * Fraction(b) for a, b in zip(x.tolist(), y.tolist())),
                Fraction(0))
    if total == 0:
        return 0.0
    try:
        return float(total)
    except OverflowError:
        return math.inf if total > 0 else -math.inf


def fraction_mean_score(t_sum, t_count, s_sum, s_count):
    """fl32(fl64(CR(T . S) / fl64(L Q))): the mean-pooled score by its definition."""
    with np.errstate(over="ignore"):
        return np.float32(fraction_dot(t_sum, s_sum) / float(int(t_count) * int(s_count)))


def fraction_max_score(t_clips, s_clips):
    """fl32 of the largest CR(t_l . s_q) in IEEE total order (+0.0 above -0.0):
    the max-pooled score by its definition."""
    dots = [fraction_dot(t, s) for t in t_clips for s in s_clips]
    with np.errstate(over="ignore"):
        return np.float32(max(dots, key=lambda v: (v, math.copysign(1.0, v))))


def naive_matrix(target, source, pooling):
    """Dense float64 reference built from per-pair naive scores."""
    targets = load_videos(target)
    sources = load_videos(source)
    out = np.empty((len(targets), len(sources)), dtype=np.float64)
    for j, tv in enumerate(targets):
        for i, sv in enumerate(sources):
            out[j, i] = naive_pair_score(tv, sv, pooling)
    return out


def sort_by_score_then_id(ids, scores):
    """Descending score with ascending-id tie break; returns index order."""
    return sorted(range(len(ids)), key=lambda i: (-float(scores[i]), ids[i]))


def row_topk_from_matrix(view, k):
    """Per-row top-k of a dense view by a full sort of each row."""
    k = min(k, view.matrix.shape[1])
    return [[(view.source_ids[i], float(row[i]))
             for i in sort_by_score_then_id(view.source_ids, row)[:k]]
            for row in view.matrix]


def matrix_topk_provider(view):
    """A curate_knn row_topk callable over a dense view: each row fully
    sorted by (score desc, id asc), then cut to its first k entries."""
    def row_topk(k):
        k = min(k, view.matrix.shape[1])
        cols = np.array([sort_by_score_then_id(view.source_ids, row)[:k]
                         for row in view.matrix], dtype=np.intp).reshape(-1, k)
        return RowTopK(view.source_ids, cols, np.take_along_axis(view.matrix, cols, 1))
    return row_topk


def minimal_k_reference(rows, pool_target):
    """Smallest prefix depth of (id, score) rows whose id union reaches
    pool_target, with that union (id -> best score, a held score replaced
    only by a larger one), walking depth by depth; the full depth and its
    union if none does."""
    best = {}
    depth = max((len(r) for r in rows), default=0)
    for k in range(1, depth + 1):
        for row in rows:
            if k <= len(row):
                vid, score = row[k - 1]
                if vid not in best or score > best[vid]:
                    best[vid] = score
        if len(best) >= pool_target:
            return k, best
    return depth, best


def knn_pool_reference(view, pool_target):
    """knn_candidate_pool over a dense view with the tuple rows and the
    dict walk of minimal_k_reference: the same k schedule, and the pool
    sorted by (score desc, id asc)."""
    n = view.matrix.shape[1]
    if n == 0:
        return [], 0
    fetch_k = min(max(8, pool_target), n)
    while True:
        k, union = minimal_k_reference(row_topk_from_matrix(view, fetch_k), pool_target)
        if len(union) >= pool_target:
            break
        if fetch_k >= n:
            k = n
            break
        fetch_k = min(fetch_k * 4, n)
    return sorted(union.items(), key=lambda item: (-item[1], item[0])), k


def column_means_from_matrix(view: SimilarityView) -> tuple[list[str], np.ndarray]:
    """Column means derived from a dense view, same reduction order as streaming."""
    p = view.matrix.shape[0]
    if p == 0:
        raise ArgumentError("matrix has no target rows")
    acc = np.zeros(view.matrix.shape[1], dtype=np.float64)
    for row in view.matrix:
        acc += row
    return list(view.source_ids), acc / p


def read_manifest_lines(path):
    """Manifest entries parsed with one json.loads per non-blank line.

    A line that is not one entry object with string video_id and shard and
    integer offset and clip_count raises ValueError with the line's number.
    """
    entries = []
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                row = (obj["video_id"], obj["shard"], obj["offset"], obj["clip_count"])
            except (ValueError, KeyError, TypeError):
                row = None
            if row is None or [type(v) for v in row] != [str, str, int, int]:
                raise ValueError(line_no)
            entries.append(ManifestEntry(*row))
    return entries


def write_shard_reference(videos, dim=None, version=2):
    """A shard serialized field by field: the records as store.write_shard
    first wrote them (all of a version 1 shard), then for version 2 the
    index, each video's clip sum added clip by clip to +0.0 in float64, and
    the footer."""
    if dim is None:
        dim = videos[0].dim if videos else 0
    seen = set()
    for v in videos:
        if v.dim != dim:
            raise SchemaError(f"video {v.video_id!r} has dim {v.dim}, shard dim is {dim}")
        if v.video_id in seen:
            raise DataError(f"duplicate video_id {v.video_id!r} in shard")
        seen.add(v.video_id)
    out = io.BytesIO()
    out.write(struct.pack("<4sHII", b"CPDE", version, dim, len(videos)))
    offsets = []
    for v in videos:
        id_bytes = v.video_id.encode("utf-8")
        if len(id_bytes) > 0xFFFF:
            raise DataError(f"video id too long ({len(id_bytes)} bytes)")
        offsets.append(out.tell())
        out.write(struct.pack("<H", len(id_bytes)))
        out.write(id_bytes)
        out.write(struct.pack("<I", v.clip_count))
        out.write(v.values.astype("<f4", copy=False).tobytes())
    if version == 1:
        return out.getvalue()
    index_at = out.tell()
    for offset in offsets:
        out.write(struct.pack("<Q", offset))
    for v in videos:
        out.write(struct.pack("<I", v.clip_count))
    for v in videos:
        out.write(struct.pack("<H", len(v.video_id.encode("utf-8"))))
    for v in videos:
        out.write(v.video_id.encode("utf-8"))
    sums_at = out.tell()
    for v in videos:
        acc = np.zeros(dim, dtype=np.float64)
        for clip in v.values:
            acc = acc + clip.astype(np.float64)
        out.write(acc.astype("<f8").tobytes())
    out.write(struct.pack("<QQ", index_at, sums_at))
    return out.getvalue()


def build_corpus_reference(videos, out_dir, corpus_id, role="source", videos_per_shard=4096,
                           version=2):
    """store.build_corpus by its first path: each shard is serialized by
    write_shard_reference (in the given shard version), written, and
    decoded again in full by ingest_shard for its manifest rows, and each
    manifest line is one json.dumps. With version 2 shards the digest
    sidecar is written too, from the files' bytes (write_digests_reference)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries, dim = [], None
    videos = list(videos)
    for start in range(0, len(videos), videos_per_shard):
        batch = videos[start:start + videos_per_shard]
        dim = batch[0].dim if dim is None else dim
        name = f"{corpus_id}-{start // videos_per_shard:05d}.shard"
        data = write_shard_reference(batch, dim, version)
        (out_dir / name).write_bytes(data)
        entries += ingest_shard(data, dim, shard_name=name)
    manifest_path = out_dir / f"{corpus_id}.manifest.jsonl"
    write_manifest(entries, manifest_path)
    if version == 2:
        write_digests_reference(manifest_path)
    return CorpusHandle.open(manifest_path, role, corpus_id=corpus_id)


def write_digests_reference(manifest_path):
    """Write the digest sidecar of a manifest of whole v2 shard blocks, read
    from the files: the manifest's SHA-256 and, per shard in block order,
    its name, its row count and the SHA-256 of the bytes between the two
    offsets of its footer."""
    manifest_path = Path(manifest_path)
    shards = []
    for entry in read_manifest_lines(manifest_path):
        if not shards or shards[-1]["name"] != entry.shard:
            data = (manifest_path.parent / entry.shard).read_bytes()
            index_at, sums_at = struct.unpack("<QQ", data[-16:])
            shards.append({"index_sha256": hashlib.sha256(data[index_at:sums_at]).hexdigest(),
                           "name": entry.shard, "rows": 0})
        shards[-1]["rows"] += 1
    sidecar = {"manifest_sha256": hashlib.sha256(manifest_path.read_bytes()).hexdigest(),
               "shards": shards}
    Path(str(manifest_path) + ".digests.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="ascii")


def corpus_files(out_dir):
    """{file name: bytes} of the files directly under out_dir."""
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def load_videos(handle):
    """Every video of a corpus handle, in manifest order."""
    return [handle.load_video(video_id) for video_id in handle.video_ids()]


def _write_json_lines(objs, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(json.dumps(obj) + "\n" for obj in objs))


def write_manifest(entries, path):
    """One json.dumps line per ManifestEntry, keys in field order."""
    _write_json_lines(map(dataclasses.asdict, entries), path)


def write_metadata(metas, path):
    """One json.dumps line per VideoMeta, keys in field order."""
    _write_json_lines(map(dataclasses.asdict, metas), path)


def write_subtitles(groups, path):
    """One {"video_id","start_s","end_s","text"} line per subtitle."""
    _write_json_lines(({"video_id": video_id, "start_s": s.start_s, "end_s": s.end_s,
                        "text": s.text} for video_id, subs in groups.items() for s in subs),
                      path)


def read_subtitles(path):
    """JSON-lines subtitles grouped by video, each group sorted by start time."""
    def parse(line):
        obj = json_object(line)
        return str_field(obj, "video_id"), Subtitle(
            str_field(obj, "text"), number_field(obj, "start_s", finite=True),
            number_field(obj, "end_s", finite=True))

    groups = {}
    for video_id, sub in read_lines(path, "subtitle", parse):
        groups.setdefault(video_id, []).append(sub)
    for subs in groups.values():
        subs.sort(key=lambda s: s.start_s)
    return groups


def read_schedule(path):
    """The (stage, manifest_path, steps) rows of a schedule file."""
    def parse(line):
        obj = json_object(line)
        return int_field(obj, "stage"), str_field(obj, "manifest_path"), int_field(obj, "steps")

    return read_lines(path, "schedule", parse)


def read_column_means(path):
    """The source ids and float64 means of a column-means file."""
    def parse(line):
        obj = json_object(line)
        return str_field(obj, "source_id"), number_field(obj, "avg_sim")

    rows = read_lines(path, "column-mean", parse)
    return [vid for vid, _ in rows], np.array([mean for _, mean in rows], dtype=np.float64)


def load_matrix(path):
    """The P x N float32 matrix of a CPDK dump; a FormatError if the header
    or the length is wrong."""
    data = Path(path).read_bytes()
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


def title_vocabulary(metas):
    """Union of title tokens across a metadata set (target-side vocabulary)."""
    return frozenset(token for meta in metas for token in tokenize_title(meta.title))
