"""On-disk corpus format and clip-boundary utilities.

Shard layout (binary, little-endian):

    magic   4 bytes  b"CPDE"
    version u16      currently 2; version 1 shards are read too
    dim     u32      embedding dimension (0 only for empty shards)
    count   u32      number of videos
    then per video (the record area, the same in both versions):
        id_len     u16
        id         UTF-8 bytes
        clip_count u32
        values     clip_count * dim float32, row-major (clip, dim)
    then, in version 2 only:
        index      count u64 record offsets, count u32 clip counts,
                   count u16 id lengths, then the ids' UTF-8 bytes
        sums       count * dim float64, row-major (video, dim): each
                   video's clips added in clip order to +0.0
                   (_segment_clip_sums)
        footer     u64 byte offset of the index, u64 byte offset of the sums

The index and the sums let mean pooling, which needs only a video's clip
sum, read no record. CorpusHandle.open reads each v2 shard's footer and
index once; one that does not describe the record area exactly, or a sums
block cut short, is a FormatError naming the shard, raised at open. A
handle whose manifest is whole shard blocks in index order (see below) is
bound: row r is entry r - (its block's first row), and load_sums reads the
stored sums. Any other handle (a v1 shard, another manifest, one made
directly) sums the tile's records, which gives the same bits, and a bad row
raises what load_video raises. A stored sum that is not finite or is
above 2^160 in magnitude is a FormatError naming the shard.

A corpus is a JSON-lines manifest, one object per video
{"video_id","shard","offset","clip_count"}, plus the shard files it points
to. Shard paths are stored relative to the manifest. Video metadata lives
in a JSON-lines file (read_metadata). No subtitle file is read (the
heuristic rule takes subtitle_source from the metadata), nor are the
schedules, column means or matrix dumps the package writes.

Writers trust validated ClipMatrix inputs: build_corpus and
CorpusHandle.from_arrays compute each record's offset from its id length and
clip count and never read a record back, and they check the values once per
shard, with one isfinite over its value rows, since a ClipMatrix's array can
be changed in place after it was made; they compute the clip sums once per
shard, over its value rows. ingest_shard is the validator for shards that
come from outside: it decodes and checks every record and, in a v2 shard,
checks that the index matches the records and that each stored sum equals
the sum of the decoded clips bit for bit.

Every manifest line is the one json.dumps writes for its row, and one
formatter, _manifest_lines, writes them all. Next to the manifest,
build_corpus writes a digest sidecar, <manifest name>.digests.json
(_write_digests): the manifest's SHA-256 and, for each shard in block
order, its name, its row count and the SHA-256 of its v2 index bytes.
CorpusHandle.open hashes the manifest once. If the sidecar parses, records
that digest and row counts that add up to the manifest's lines, and every
shard's index has the recorded digest and row count, the manifest is, byte
for byte, the one build_corpus wrote from those indexes: open takes the
columns from the indexes, one block per shard in sidecar order, and binds
the handle without formatting or parsing a line. In every other case (no
sidecar, a malformed or stale one, a v1 shard, an edited manifest)
read_manifest reads the manifest, one scanner call per line, so every
valid line parses and errors name path:line; the handle is bound when the
parsed rows are the indexes' rows, whole shard blocks in index order. So
the sidecar can only let a manifest through; it never decides an error. It
is a claim of its writer, not a proof: a sidecar rewritten by hand to
record an edited manifest is believed. The trade: a v2 corpus without its
sidecar opens through read_manifest, about 105 ms at 50k videos against
about 15 ms with it (31 ms when open formatted and compared the lines),
still bound and with the same bits.

After ingestion a CorpusHandle is immutable; any number of threads may read
from it concurrently. It keeps one read-only file descriptor per shard and
reads with positional reads (os.pread / os.preadv, so POSIX is required),
never through a memory map: what stays resident is the tile being read, not
the shard pages a run has touched, and a shard that shrinks after open is a
FormatError naming it instead of a SIGBUS. Shards given as bytes are read by
slicing through the same helper. The handle keeps the manifest as columns
(ManifestColumns). A tile read checks every row with numpy index arithmetic
against its shard: offset >= 0, the record ends inside the shard, and the
stored id length, id bytes and clip count equal the row's. It then reads the
tile's records into one buffer, bounded by their bytes plus one page per
read: rows whose records follow each other in one shard with gaps under a
page share a read. It gathers all value rows from that buffer in one copy
and checks that they are finite. If any check or read fails, the rows are
re-read one by one, so the error is the one load_video raises.

A sums read (load_sums) of a bound handle reads the sums of rows that
follow each other in one shard with one positional read straight into the
float64 result, so a contiguous tile costs one read per shard. Rows whose
sums lie less than _SUM_GAP bytes apart share a read through a staging
buffer of at most _SUM_WINDOW bytes, from which they are gathered.
"""
from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import struct
import threading
import weakref
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Sequence, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._record import FrozenRecord, set_field
from .errors import (ArgumentError, CupidError, DataError, FormatError, NotFoundError,
                     SchemaError)

log = logging.getLogger(__name__)

SHARD_MAGIC = b"CPDE"
SHARD_VERSION = 2
_VERSIONS = (1, 2)

_HEADER = struct.Struct("<4sHII")
_ID_LEN = struct.Struct("<H")
_CLIP_COUNT = struct.Struct("<I")
_FOOTER = struct.Struct("<QQ")  # v2: byte offsets of the index and of the sums
_INDEX_ROW = 8 + 4 + 2          # v2 index bytes per video, its id aside
# Records of one tile in one shard whose gap is shorter than this (a page)
# are read together, gap included.
_PAGE = 4096
# Sums of one tile in one shard less than _SUM_GAP bytes apart share a read
# (about what one more read costs in copied bytes); such a read goes through
# a staging buffer of at most _SUM_WINDOW bytes.
_SUM_GAP = 8 * _PAGE
_SUM_WINDOW = 64 * _PAGE
# Videos whose clip sums are computed together (see _segment_clip_sums).
_SUM_CHUNK = 256
# No sum of fewer than 2^32 float32 clips is larger in magnitude (the
# kernels' input domain); a stored sum above it is corrupt.
_SUM_LIMIT = 2.0 ** 160

SUBTITLE_SOURCES = ("human", "asr", "none")
ROLES = ("source", "target")

T = TypeVar("T")


class ClipMatrix(FrozenRecord):
    """Stack of clip embeddings for one video, row-major (clip, dim) float32."""

    __slots__ = ("video_id", "values")

    def __init__(self, video_id: str, values: np.ndarray):
        arr = np.ascontiguousarray(values, dtype=np.float32)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise SchemaError(f"video {video_id!r}: expected a 2-D clip matrix with dim >= 1")
        if arr.shape[0] < 1:
            raise DataError(f"video {video_id!r} has zero clips")
        if not np.isfinite(arr).all():
            raise DataError(f"video {video_id!r} contains non-finite values")
        set_field(self, "video_id", video_id)
        set_field(self, "values", arr)

    @property
    def clip_count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


class ManifestEntry(FrozenRecord):
    __slots__ = ("video_id", "shard", "offset", "clip_count")

    def __init__(self, video_id: str, shard: str, offset: int, clip_count: int):
        set_field(self, "video_id", video_id)
        set_field(self, "shard", shard)
        set_field(self, "offset", offset)
        set_field(self, "clip_count", clip_count)


class VideoMeta(FrozenRecord):
    __slots__ = ("video_id", "category", "title", "subtitle_source", "duration_s")

    def __init__(self, video_id: str, category: str, title: str, subtitle_source: str,
                 duration_s: float):
        if subtitle_source not in SUBTITLE_SOURCES:
            raise DataError(
                f"video {video_id!r}: subtitle_source must be one of {SUBTITLE_SOURCES}")
        if duration_s < 0:
            raise DataError(f"video {video_id!r}: negative duration")
        set_field(self, "video_id", video_id)
        set_field(self, "category", category)
        set_field(self, "title", title)
        set_field(self, "subtitle_source", subtitle_source)
        set_field(self, "duration_s", duration_s)


class Subtitle(FrozenRecord):
    __slots__ = ("text", "start_s", "end_s")

    def __init__(self, text: str, start_s: float, end_s: float):
        if start_s > end_s:
            raise DataError(f"subtitle spans negative time range ({start_s} > {end_s})")
        set_field(self, "text", text)
        set_field(self, "start_s", start_s)
        set_field(self, "end_s", end_s)


def write_shard(videos: Sequence[ClipMatrix], dim: int | None = None) -> bytes:
    """Serialize videos into one shard. Bit-exact round trip with ingest_shard."""
    return bytes(_pack_shard(videos, dim, check_finite=False)[0])


def _pack_shard(videos: Sequence[ClipMatrix], dim: int | None = None, *,
                check_finite: bool) -> tuple[bytearray, np.ndarray, np.ndarray]:
    """(shard bytes, record offsets, clip counts) of videos, as a v2 shard.

    Every video must have dim (the first video's by default) and a unique id
    of at most 0xFFFF UTF-8 bytes; with check_finite, one isfinite over all
    of the shard's value rows checks the values too, as ingest_shard would.
    The offsets are computed from the id lengths and clip counts and the
    clip sums from the value rows, all at once: the bytes are never read
    back.
    """
    if dim is None:
        dim = videos[0].dim if videos else 0
    n = len(videos)
    header = _HEADER.pack(SHARD_MAGIC, SHARD_VERSION, dim, n)
    if not n:
        empty = np.empty(0, dtype=np.int64)
        return bytearray(header + _FOOTER.pack(_HEADER.size, _HEADER.size)), empty, empty
    ids = [v.video_id for v in videos]
    try:
        values = np.concatenate([v.values for v in videos])
    except ValueError:  # the dims differ
        values = None
    if values is None or values.shape[1] != dim or len(set(ids)) < n:
        _raise_first_conflict(videos, dim)
    id_bytes = list(map(_encode_id, ids))
    if check_finite and not np.isfinite(values).all():
        bad = next(v for v in videos if not np.isfinite(v.values).all())
        raise DataError(f"video {bad.video_id!r} contains non-finite values")
    counts = np.fromiter(map(len, (v.values for v in videos)), dtype=np.int64, count=n)
    id_lens = np.fromiter(map(len, id_bytes), dtype=np.int64, count=n)
    all_ids = np.frombuffer(b"".join(id_bytes), dtype=np.uint8)
    heads = _ID_LEN.size + id_lens + _CLIP_COUNT.size
    sizes = heads + counts * (dim * 4)
    offsets = _HEADER.size + np.cumsum(sizes) - sizes
    index_at = _HEADER.size + int(sizes.sum())
    sums_at = index_at + n * _INDEX_ROW + len(all_ids)
    buf = bytearray(sums_at + n * dim * 8 + _FOOTER.size)
    buf[:_HEADER.size] = header
    out = np.frombuffer(buf, dtype=np.uint8)
    _put_rows(out, offsets, id_lens.astype("<u2"))
    out[_ranges(offsets + _ID_LEN.size, id_lens)] = all_ids
    _put_rows(out, offsets + heads - _CLIP_COUNT.size, counts.astype("<u4"))
    _put_rows(out, _ranges(offsets + heads, counts, dim * 4), values.astype("<f4", copy=False))
    index = [offsets.astype("<u8"), counts.astype("<u4"), id_lens.astype("<u2"), all_ids]
    out[index_at:sums_at] = np.concatenate([column.view(np.uint8) for column in index])
    clip_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=clip_offsets[1:])
    sums = _segment_clip_sums(values, clip_offsets, counts)
    out[sums_at:len(buf) - _FOOTER.size] = sums.astype("<f8", copy=False).reshape(-1).view(np.uint8)
    buf[len(buf) - _FOOTER.size:] = _FOOTER.pack(index_at, sums_at)
    return buf, offsets, counts


def _segment_clip_sums(clips32: np.ndarray, offsets: np.ndarray,
                       counts: np.ndarray) -> np.ndarray:
    """Per-video clip sums over a stacked tile, accumulated in float64.

    Each video's clips are added in clip order to +0.0, so its sum is the
    same float64 whatever tile it is summed in. The videos are summed in
    chunks of _SUM_CHUNK, which keeps the temporaries small; taken longest
    first, the videos of a chunk that have a k-th clip are a prefix, so
    clip index k is one gather and one slice add.
    """
    n = len(counts)
    sums = np.zeros((n, clips32.shape[1]), dtype=np.float64)
    if n == 0 or len(clips32) == 0:
        return sums
    for lo in range(0, n, _SUM_CHUNK):
        part = counts[lo:lo + _SUM_CHUNK]
        order = np.argsort(-part, kind="stable")
        starts = offsets[lo:lo + _SUM_CHUNK][order]
        # reached[k]: the number of videos with more than k clips
        reached = np.searchsorted(-part[order], -np.arange(1, int(part[order[0]]) + 1),
                                  side="right")
        acc = np.zeros((len(part), clips32.shape[1]), dtype=np.float64)
        for k, m in enumerate(reached.tolist()):
            acc[:m] += np.take(clips32, starts[:m] + k, axis=0)
        sums[lo + order] = acc
    return sums


def _raise_first_conflict(videos: Sequence[ClipMatrix], dim: int) -> None:
    """Raise the error for the first video whose dim is not dim or whose id
    an earlier video has."""
    seen: set[str] = set()
    for v in videos:
        if v.dim != dim:
            raise SchemaError(f"video {v.video_id!r} has dim {v.dim}, shard dim is {dim}")
        if v.video_id in seen:
            raise DataError(f"duplicate video_id {v.video_id!r} in shard")
        seen.add(v.video_id)


def _put_rows(buf: np.ndarray, starts: np.ndarray, rows: np.ndarray) -> None:
    """Write the bytes of rows[i] to buf (uint8) at starts[i], for each i;
    the rows must not overlap in buf."""
    rows = rows.reshape(len(starts), -1).view(np.uint8)
    sliding_window_view(buf, rows.shape[1], writeable=True)[starts] = rows


def _encode_id(video_id: str) -> bytes:
    """The UTF-8 bytes of a video id; a DataError unless they fit a shard."""
    try:
        id_bytes = video_id.encode("utf-8")
    except UnicodeEncodeError:
        raise DataError(f"video id {_short_repr(video_id)} is not valid UTF-8") from None
    if len(id_bytes) > 0xFFFF:
        raise DataError(f"video id {_short_repr(video_id)} too long ({len(id_bytes)} bytes)")
    return id_bytes


def _short_repr(text: str) -> str:
    """repr of the first 40 characters of text, marked if it was cut."""
    return repr(text[:40]) + ("..." if len(text) > 40 else "")


class _Shard:
    """Positional reads of one shard: from bytes in memory, or from a file
    descriptor that close() closes, or else dropping the object.

    size is the shard's size when it was attached; callers read inside it,
    and a file that has shrunk since fails the read with a FormatError
    naming the shard. Reads are positional, so threads may share the object.
    """

    def __init__(self, name: str, data=None, path: str | Path | None = None):
        self.name = name
        if path is None:
            self.fd, self._data = None, memoryview(data).cast("B")
            self.size = len(self._data)
        else:
            # An unbuffered file object: were it leaked, it would warn.
            file = open(path, "rb", buffering=0)
            self.close = weakref.finalize(self, file.close)
            self.fd, self._data = file.fileno(), None
            self.size = os.fstat(self.fd).st_size

    def read(self, start: int, stop: int):
        """Bytes [start, stop) as a bytes-like object, cut at size."""
        if self.fd is None:
            return self._data[start:stop]
        data = bytearray(max(min(stop, self.size) - start, 0))
        self.read_into(start, data)
        return data

    def read_into(self, start: int, out) -> None:
        """Fill out, a writable buffer of bytes, with the bytes from start on."""
        view = memoryview(out)
        if self.fd is None:
            chunk = self._data[start:start + len(view)]
            done = len(chunk)
            view[:done] = chunk
        else:
            done = 0
            while done < len(view):
                got = os.preadv(self.fd, [view[done:]], start + done)
                if not got:
                    break
                done += got
        if done < len(view):
            raise FormatError(f"shard {self.name!r} ends at byte {start + done}, before "
                              f"byte {start + len(view)}: it shrank after it was opened")


def _decode_video(shard: _Shard, offset: int, dim: int) -> tuple[ClipMatrix, int]:
    """Decode the video record at byte offset of shard; returns (video, next offset)."""
    try:
        if offset < 0:
            raise ValueError("negative offset")
        (id_len,) = _ID_LEN.unpack(shard.read(offset, offset + _ID_LEN.size))
        pos = offset + _ID_LEN.size
        head = shard.read(pos, pos + id_len + _CLIP_COUNT.size)
        if len(head) < id_len:
            raise FormatError(f"truncated id at offset {offset} in shard {shard.name!r}")
        video_id = bytes(head[:id_len]).decode("utf-8")
        (clip_count,) = _CLIP_COUNT.unpack(head[id_len:])
        pos += id_len + _CLIP_COUNT.size
        n_bytes = clip_count * dim * 4
        if pos + n_bytes > shard.size:
            raise FormatError(
                f"video {video_id!r} overruns shard {shard.name!r} (offset {offset})"
            )
        values = np.frombuffer(shard.read(pos, pos + n_bytes), dtype="<f4",
                               count=clip_count * dim)
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise FormatError(f"undecodable record at offset {offset} in shard {shard.name!r}") from exc
    if clip_count == 0:
        raise DataError(f"video {video_id!r} has zero clips")
    matrix = ClipMatrix(video_id, values.reshape(clip_count, dim))
    return matrix, pos + n_bytes


def ingest_shard(stream: BinaryIO | bytes, expected_dim: int,
                 shard_name: str = "") -> list[ManifestEntry]:
    """Validate a shard byte stream and return one manifest entry per video.

    Every record is fully decoded: ids must be unique, clip counts positive,
    values finite. The header dim must equal expected_dim (empty shards have
    dim 0 and match any expectation). A v2 shard's index must hold exactly
    the records' offsets, clip counts and ids, and its stored sums must
    equal the sums of the decoded clips bit for bit.
    """
    if expected_dim <= 0:
        raise ArgumentError("expected_dim must be positive")
    data = stream if isinstance(stream, (bytes, bytearray, memoryview)) else stream.read()
    version, dim, video_count = read_shard_header(data, shard_name)
    if video_count > 0 and dim != expected_dim:
        raise SchemaError(f"shard {shard_name!r} has dim {dim}, expected {expected_dim}")
    shard = _Shard(shard_name, data)
    entries = []
    values = []
    seen: set[str] = set()
    offset = _HEADER.size
    for _ in range(video_count):
        video, next_offset = _decode_video(shard, offset, dim)
        if video.video_id in seen:
            raise DataError(f"duplicate video_id {video.video_id!r} in shard {shard_name!r}")
        seen.add(video.video_id)
        entries.append(ManifestEntry(video.video_id, shard_name, offset, video.clip_count))
        values.append(video.values)
        offset = next_offset
    if version == 1:
        if offset != shard.size:
            raise FormatError(f"shard {shard_name!r} has {shard.size - offset} trailing bytes")
        return entries
    # The index's offsets and counts fix its id lengths; the records then
    # end where the index begins.
    index = _SumIndex.read(shard)[1]
    counts = np.array([e.clip_count for e in entries], dtype=np.int64)
    if not (np.array_equal(index.offsets, [e.offset for e in entries])
            and np.array_equal(index.counts, counts)
            and index.ids.tobytes() == "".join(e.video_id for e in entries).encode("utf-8")):
        raise FormatError(f"shard {shard_name!r}: its index does not match its records")
    clip_offsets = np.zeros(video_count + 1, dtype=np.int64)
    np.cumsum(counts, out=clip_offsets[1:])
    clips = np.concatenate(values) if values else np.empty((0, dim), dtype=np.float32)
    sums = _segment_clip_sums(clips, clip_offsets, counts)
    if bytes(shard.read(index.sums_at, shard.size - _FOOTER.size)) != sums.astype("<f8").tobytes():
        raise FormatError(f"shard {shard_name!r}: its stored clip sums differ from the sums "
                          "of its clips")
    return entries


def read_shard_header(buf, shard_name: str) -> tuple[int, int, int]:
    """Return (version, dim, video_count) from raw shard bytes; a bad header
    is a FormatError naming the shard."""
    if len(buf) < _HEADER.size:
        raise FormatError(f"shard {shard_name!r} shorter than header")
    magic, version, dim, video_count = _HEADER.unpack_from(buf, 0)
    if magic != SHARD_MAGIC:
        raise FormatError(f"shard {shard_name!r}: bad magic {magic!r}")
    if version not in _VERSIONS:
        raise FormatError(f"shard {shard_name!r}: unsupported version {version}")
    return version, dim, video_count


class _SumIndex:
    """The index of a v2 shard: row i is the record at offsets[i] with
    counts[i] clips and the i-th id of ids (uint8), the ids' UTF-8 bytes one
    after another, id_lens[i] bytes long (int64 columns, offsets ascending);
    its sum is the dim float64 values at byte sums_at + i * dim * 8. sha256
    is the hex SHA-256 of the index bytes, as the digest sidecar records it."""

    __slots__ = ("offsets", "counts", "id_lens", "ids", "sums_at", "sha256")

    def __init__(self, offsets: np.ndarray, counts: np.ndarray, id_lens: np.ndarray,
                 ids: np.ndarray, sums_at: int, sha256: str):
        self.offsets, self.counts, self.id_lens, self.ids = offsets, counts, id_lens, ids
        self.sums_at, self.sha256 = sums_at, sha256

    @classmethod
    def read(cls, shard: _Shard) -> tuple[int, "_SumIndex | None", int]:
        """(dim, index or None for a v1 shard, bytes read) of shard. A bad
        header, an index that does not describe the record area exactly, or
        a footer that does not place the index and the sums inside the
        shard, is a FormatError naming it."""
        version, dim, count = read_shard_header(shard.read(0, _HEADER.size), shard.name)
        if version == 1:
            return dim, None, _HEADER.size
        if shard.size < _HEADER.size + _FOOTER.size:
            raise FormatError(f"shard {shard.name!r} has no room for its footer")
        index_at, sums_at = _FOOTER.unpack(shard.read(shard.size - _FOOTER.size, shard.size))
        if not (_HEADER.size <= index_at <= sums_at - count * _INDEX_ROW
                and sums_at + count * dim * 8 + _FOOTER.size == shard.size):
            raise FormatError(f"shard {shard.name!r}: its footer does not place its index "
                              "and sums inside it")
        data = np.frombuffer(shard.read(index_at, sums_at), dtype=np.uint8)
        columns = np.split(data, np.cumsum([8 * count, 4 * count, 2 * count]))
        offsets, counts, id_lens = (column.view(dtype) for column, dtype
                                    in zip(columns, ("<u8", "<u4", "<u2")))
        ids = columns[3]
        # Every term is bounded before the record ends are summed from them.
        valid = ((offsets < index_at).all() and (counts >= 1).all()
                 and (counts <= index_at // max(dim * 4, 1)).all()
                 and int(id_lens.sum(dtype=np.int64)) == len(ids))
        if valid:
            offsets, counts, id_lens = (c.astype(np.int64) for c in (offsets, counts, id_lens))
            ends = offsets + (_ID_LEN.size + _CLIP_COUNT.size) + id_lens + counts * (dim * 4)
            valid = np.array_equal(np.append(offsets, index_at), np.append(_HEADER.size, ends))
        if not valid:
            raise FormatError(f"shard {shard.name!r}: its index does not describe its records")
        n_bytes = _HEADER.size + _FOOTER.size + len(data)
        digest = hashlib.sha256(data).hexdigest()
        return dim, cls(offsets, counts, id_lens, ids, sums_at, digest), n_bytes


class _Tile:
    """One contiguous run of source or target videos, decoded for scoring:
    ids, counts (intp, n), offsets (intp, n + 1) into clips (float32,
    total clips x dim)."""

    __slots__ = ("ids", "counts", "offsets", "clips")

    def __init__(self, ids: list[str], counts: np.ndarray, offsets: np.ndarray,
                 clips: np.ndarray):
        self.ids, self.counts, self.offsets, self.clips = ids, counts, offsets, clips


def _int_column(values) -> np.ndarray:
    """Read-only intp array of values; an object array of Python ints if
    one of them does not fit intp (a corrupt row, which load_video reports)."""
    try:
        column = np.asarray(values, dtype=np.intp)
    except OverflowError:
        column = np.array(values, dtype=object)
    column.flags.writeable = False
    return column


def _shard_codes(names: Sequence[str], table: dict[str, int]) -> np.ndarray:
    """The code of each name in table, adding the names it lacks."""
    for name in dict.fromkeys(names):
        table.setdefault(name, len(table))
    return np.fromiter(map(table.__getitem__, names), dtype=np.intp, count=len(names))


class ManifestColumns:
    """A manifest as columns: row i is (ids[i], shards[codes[i]], offsets[i],
    clip_counts[i]). The arrays are read-only; see _int_column."""

    __slots__ = ("ids", "shards", "codes", "offsets", "clip_counts")

    def __init__(self, ids: list[str], shards: list[str], codes, offsets, clip_counts):
        self.ids, self.shards = ids, shards
        self.codes = _int_column(codes)
        self.offsets = _int_column(offsets)
        self.clip_counts = _int_column(clip_counts)

    @classmethod
    def from_rows(cls, rows: Sequence[tuple[str, str, int, int]]) -> "ManifestColumns":
        """The columns of (video_id, shard, offset, clip_count) rows."""
        ids, shards, offsets, counts = zip(*rows) if rows else ((), (), (), ())
        table: dict[str, int] = {}
        codes = _shard_codes(shards, table)
        return cls(list(ids), list(table), codes, offsets, counts)

    def __len__(self) -> int:
        return len(self.ids)

    def entry(self, row: int) -> ManifestEntry:
        return ManifestEntry(self.ids[row], self.shards[self.codes[row]],
                             int(self.offsets[row]), int(self.clip_counts[row]))

    def entries(self) -> list[ManifestEntry]:
        return [self.entry(row) for row in range(len(self))]


def _windows(buf: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """buf[s:s + width] for each start s, as a (len(starts), width) array."""
    return sliding_window_view(buf, width)[starts]


def _ranges(starts: np.ndarray, counts: np.ndarray, step: int = 1) -> np.ndarray:
    """starts[i] + step * k for k in range(counts[i]), concatenated over i."""
    firsts = np.cumsum(counts) - counts
    out = np.arange(int(counts.sum()), dtype=np.int64)
    out *= step
    out += np.repeat(starts - step * firsts, counts)
    return out


class CorpusHandle:
    """Immutable random-access view over the videos of one corpus.

    The manifest is held as ManifestColumns (`columns`); `manifest` builds
    its rows as ManifestEntry objects on each access. The id -> row map
    load_video needs is built on its first call. `bytes_read` counts the
    shard bytes the handle has read so far: open's header, footer and index
    reads, then its record and sums reads. A handle whose rows are whole
    shard blocks in index order, from open or from from_arrays, is bound
    (_bind), and load_sums reads its stored sums; any other handle sums
    records. `manifest_sha256` is the hex SHA-256 of the manifest bytes open
    read (None for a handle open did not make).
    """

    def __init__(self, corpus_id: str, role: str,
                 manifest: ManifestColumns | Sequence[ManifestEntry],
                 dim: int, buffers: dict):
        if role not in ROLES:
            raise ArgumentError(f"role must be one of {ROLES}")
        if not isinstance(manifest, ManifestColumns):
            manifest = ManifestColumns.from_rows(
                [(e.video_id, e.shard, e.offset, e.clip_count) for e in manifest])
        if len(set(manifest.ids)) != len(manifest):
            seen: set[str] = set()
            dup = next(vid for vid in manifest.ids if vid in seen or seen.add(vid))
            raise DataError(f"corpus {corpus_id!r}: duplicate video id "
                            f"{_short_repr(dup)} in manifest")
        self.corpus_id = corpus_id
        self.role = role
        self.columns = manifest
        self.dim = dim
        # Per shard code: its reader (buffers holds readers or bytes), or
        # None and size -1 if it is not attached.
        self._shards = [None if name not in buffers
                        else buffers[name] if isinstance(buffers[name], _Shard)
                        else _Shard(name, buffers[name]) for name in manifest.shards]
        self._shard_sizes = np.array([-1 if shard is None else shard.size
                                      for shard in self._shards], dtype=np.int64)
        self._rows: dict[str, int] | None = None
        # Per shard code, once bound (_bind): where row 0's sum would start
        # in its shard, so row r's sum starts at origin + r * dim * 8.
        self._sum_origins: list[int] | None = None
        self._lock = threading.Lock()
        self.bytes_read = 0
        self.manifest_sha256: str | None = None

    def _bind(self, indexes: Sequence[_SumIndex]) -> None:
        """Bind the rows to index entries: the rows of shard code c are the
        entries of indexes[c] in order, one block per code in code order, so
        row r of a block whose first row is f is entry r - f."""
        self._sum_origins, first = [], 0
        for index in indexes:
            self._sum_origins.append(index.sums_at - first * self.dim * 8)
            first += len(index.offsets)

    @property
    def manifest(self) -> list[ManifestEntry]:
        return self.columns.entries()

    @property
    def video_count(self) -> int:
        return len(self.columns)

    def video_ids(self) -> list[str]:
        return list(self.columns.ids)

    def load_video(self, video_id: str) -> ClipMatrix:
        if self._rows is None:
            # Threads racing here build equal maps; either one may win.
            self._rows = dict(zip(self.columns.ids, range(len(self.columns))))
        row = self._rows.get(video_id)
        if row is None:
            raise NotFoundError(f"video {video_id!r} not in corpus {self.corpus_id!r}")
        return self._load_entry(row)

    def _load_entry(self, row: int) -> ClipMatrix:
        entry = self.columns.entry(row)
        shard = self._shards[self.columns.codes[row]]
        if shard is None:
            raise NotFoundError(f"shard {entry.shard!r} not attached to corpus")
        video, end = _decode_video(shard, entry.offset, self.dim)
        self._count(end - entry.offset)
        if video.video_id != entry.video_id:
            raise FormatError(
                f"offset {entry.offset} in shard {entry.shard!r} decodes to "
                f"{video.video_id!r}, manifest says {entry.video_id!r}"
            )
        if video.clip_count != entry.clip_count:
            raise FormatError(
                f"video {entry.video_id!r}: manifest clip_count {entry.clip_count} "
                f"!= stored {video.clip_count}"
            )
        return video

    def load_tile(self, start: int | np.ndarray, stop: int | None = None) -> _Tile:
        """Decode manifest rows [start, stop), or with stop omitted the rows
        named by start, an ascending array of row indices, into stacked clip
        arrays.

        The rows are checked, read and copied by _copy_records. If any check
        or read fails, they are re-read one by one through _load_entry, so
        the error raised is the one load_video raises for the first bad row.
        """
        rows = self._tile_rows(start, stop)
        ids = (self.columns.ids[rows] if stop is not None
               else [self.columns.ids[row] for row in rows.tolist()])
        clips = self._copy_records(rows, ids)
        if clips is None:
            row_list = rows.tolist() if stop is None else range(self.video_count)[rows]
            clips = np.concatenate([self._load_entry(row).values for row in row_list])
        counts = np.asarray(self.columns.clip_counts[rows], dtype=np.intp)
        offsets = np.zeros(len(ids) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        return _Tile(ids=ids, counts=counts, offsets=offsets, clips=clips)

    def load_sums(self, start: int | np.ndarray,
                  stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(float64 clip sums (n, dim), intp clip counts (n,)) of manifest
        rows [start, stop), or with stop omitted of the rows named by start,
        an ascending array of row indices.

        A row's sum is its clips added in clip order to +0.0, as
        _segment_clip_sums adds them. A bound handle reads the sums from the
        shards' sums blocks (_read_sums); any other handle sums the tile's
        records (load_tile), which gives the same bits and raises, for a bad
        row, what load_video raises.
        """
        rows = self._tile_rows(start, stop)
        sums = self._read_sums(rows)
        if sums is None:
            tile = self.load_tile(start, stop)
            return _segment_clip_sums(tile.clips, tile.offsets, tile.counts), tile.counts
        return sums, np.asarray(self.columns.clip_counts[rows], dtype=np.intp)

    def _tile_rows(self, start: int | np.ndarray, stop: int | None) -> slice | np.ndarray:
        """The rows of a tile: a slice, or a checked array of row indices if
        stop is None."""
        if stop is not None:
            return slice(start, stop)
        rows = np.asarray(start, dtype=np.intp)
        if rows.ndim != 1 or (len(rows) and (rows[0] < 0 or rows[-1] >= self.video_count
                                              or (np.diff(rows) <= 0).any())):
            raise ArgumentError("tile rows must be ascending row indices of the corpus")
        return rows

    def _read_sums(self, rows: slice | np.ndarray) -> np.ndarray | None:
        """The stored float64 sums of the rows (a slice or an index array),
        or None unless the handle is bound (and its dim is not 0). A stored
        sum that is not finite or is above 2^160 in magnitude is a
        FormatError naming its shard and video.
        """
        if self._sum_origins is None or not self.dim:  # dim 0: as _copy_records does
            return None
        if isinstance(rows, slice):
            rows = np.arange(*rows.indices(self.video_count))
        codes = self.columns.codes[rows]
        n = len(rows)
        sums = np.empty((n, self.dim), dtype=np.float64)
        new = np.ones(n, dtype=bool)
        new[1:] = (codes[1:] != codes[:-1]) | (np.diff(rows) * (self.dim * 8) > _SUM_GAP)
        bounds = np.append(np.flatnonzero(new), n).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            self._read_sum_run(int(codes[lo]), rows[lo:hi], sums[lo:hi])
        # NaN fails both comparisons
        if not (sums.max(initial=0.0) <= _SUM_LIMIT and sums.min(initial=0.0) >= -_SUM_LIMIT):
            bad = int(np.argmin((np.abs(sums) <= _SUM_LIMIT).all(axis=1)))
            what = ("is not finite" if not np.isfinite(sums[bad]).all()
                    else "is above 2^160 in magnitude")
            raise FormatError(f"shard {self.columns.shards[codes[bad]]!r}: the stored clip "
                              f"sum of video {self.columns.ids[rows[bad]]!r} {what}")
        return sums

    def _read_sum_run(self, code: int, rows: np.ndarray, out: np.ndarray) -> None:
        """Fill out with the sums of rows (ascending) of shard code: straight
        into out if they follow each other, else through staging buffers of
        at most _SUM_WINDOW bytes."""
        shard, origin = self._shards[code], self._sum_origins[code]
        row_bytes = out.shape[1] * 8
        if rows[-1] - rows[0] + 1 == len(rows):
            shard.read_into(origin + int(rows[0]) * row_bytes, out.reshape(-1).view(np.uint8))
            self._count(out.nbytes)
            return
        window = max(_SUM_WINDOW // row_bytes, 1)
        lo = 0
        while lo < len(rows):
            first = int(rows[lo])
            hi = lo + int(np.searchsorted(rows[lo:], first + window))
            stage = np.empty((int(rows[hi - 1]) - first + 1, out.shape[1]), dtype=np.float64)
            shard.read_into(origin + first * row_bytes, stage.reshape(-1).view(np.uint8))
            self._count(stage.nbytes)
            out[lo:hi] = stage[rows[lo:hi] - first]
            lo = hi

    def _copy_records(self, rows: slice | np.ndarray, ids: list[str]) -> np.ndarray | None:
        """The stacked float32 values of the rows (a slice or an index
        array), or None unless every record passes the checks _load_entry
        makes on it and is read in full.

        Offsets and counts are bounded by their shard before any sum or
        product of them is formed or any byte is read, so a corrupt row can
        neither overflow nor size an allocation or a read.
        """
        if not ids:
            return np.empty((0, self.dim), dtype=np.float32)
        row_bytes = self.dim * 4
        try:
            id_bytes = list(map(str.encode, ids))
            offsets = np.asarray(self.columns.offsets[rows], dtype=np.int64)
            counts = np.asarray(self.columns.clip_counts[rows], dtype=np.int64)
        except (UnicodeEncodeError, OverflowError):
            return None
        id_lens = np.fromiter(map(len, id_bytes), dtype=np.int64, count=len(ids))
        codes = self.columns.codes[rows]
        sizes = self._shard_sizes[codes]
        # A negative offset would index from the end of the shard.
        if row_bytes == 0 or not ((offsets >= 0) & (offsets <= sizes) & (counts >= 1)
                                  & (counts <= 0xFFFFFFFF) & (id_lens <= 0xFFFF)).all():
            return None
        heads = _ID_LEN.size + id_lens + _CLIP_COUNT.size
        if not (counts <= (sizes - offsets - heads) // row_bytes).all():
            return None
        try:
            buf, at = self._read_spans(codes, offsets, offsets + heads + counts * row_bytes)
        except FormatError:  # a shard shrank after open; _load_entry names it
            return None
        stored_id_lens = _windows(buf, at, _ID_LEN.size).view("<u2")[:, 0]
        stored_ids = buf[_ranges(at + _ID_LEN.size, id_lens)]
        values = at + heads
        stored_counts = _windows(buf, values - _CLIP_COUNT.size,
                                 _CLIP_COUNT.size).view("<u4")[:, 0]
        if not ((stored_id_lens == id_lens).all() and (stored_counts == counts).all()
                and stored_ids.tobytes() == b"".join(id_bytes)):
            return None
        clips = _windows(buf, _ranges(values, counts, row_bytes),
                         row_bytes).view("<f4").astype(np.float32, copy=False)
        if not np.isfinite(clips).all():
            return None
        return clips

    def _read_spans(self, codes: np.ndarray, starts: np.ndarray,
                    stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One uint8 buffer holding bytes [starts[i], stops[i]) of shard
        codes[i] for each i, and the position of each span in it. Spans that
        follow each other in one shard with a gap under _PAGE bytes share
        one read, gap included; every other span starts a read."""
        gaps = starts[1:] - stops[:-1]
        new = np.ones(len(starts), dtype=bool)
        new[1:] = (codes[1:] != codes[:-1]) | (gaps < 0) | (gaps >= _PAGE)
        first = np.flatnonzero(new)
        read_starts = starts[first]
        lens = stops[np.append(first[1:], len(starts)) - 1] - read_starts
        dests = np.cumsum(lens) - lens
        buf = np.empty(int(lens.sum()), dtype=np.uint8)
        for code, start, dest, n in zip(codes[first].tolist(), read_starts.tolist(),
                                        dests.tolist(), lens.tolist()):
            self._shards[code].read_into(start, buf[dest:dest + n])
        self._count(len(buf))
        read = np.cumsum(new) - 1
        return buf, dests[read] + (starts - read_starts[read])

    def _count(self, n: int) -> None:
        with self._lock:
            self.bytes_read += n

    @classmethod
    def from_arrays(cls, corpus_id: str, role: str,
                    videos: Sequence[ClipMatrix]) -> "CorpusHandle":
        """Build an in-memory corpus (single anonymous shard) from clip
        matrices, its rows bound to the shard's index."""
        dim = videos[0].dim if videos else 0
        data, offsets, counts = _pack_shard(videos, dim, check_finite=True)
        columns = ManifestColumns([v.video_id for v in videos], [":memory:"],
                                  np.zeros(len(videos), dtype=np.intp), offsets, counts)
        handle = cls(corpus_id, role, columns, dim, {":memory:": data})
        _, index, handle.bytes_read = _SumIndex.read(handle._shards[0])
        handle._bind([index])
        return handle

    @classmethod
    def open(cls, manifest_path: str | Path, role: str,
             corpus_id: str | None = None) -> "CorpusHandle":
        """Open a corpus from its JSON-lines manifest, keeping one read-only
        descriptor per shard; the descriptors close when the handle is dropped.

        The manifest is hashed once (manifest_sha256), and each shard is
        opened and its header, footer and index are read and checked
        (_SumIndex.read) once. If the digest sidecar records the manifest's
        digest and every shard index's digest and row count
        (_recorded_columns), the columns come from the indexes; otherwise
        read_manifest reads the manifest. Either way the handle is bound
        when its rows are whole shard blocks in index order.
        """
        manifest_path = Path(manifest_path)
        manifest_sha256, lines = _manifest_digest(manifest_path)
        opened: dict[str, tuple[_Shard, int, _SumIndex | None]] = {}
        n_read = 0

        def attach(name: str) -> tuple[_Shard, int, _SumIndex | None]:
            nonlocal n_read
            if name not in opened:
                shard_path = manifest_path.parent / name
                if not shard_path.exists():
                    raise NotFoundError(f"shard file {shard_path} missing")
                shard = _Shard(name, path=shard_path)
                dim, index, n_bytes = _SumIndex.read(shard)
                opened[name] = shard, dim, index
                n_read += n_bytes
            return opened[name]

        try:
            columns = _recorded_columns(manifest_path, manifest_sha256, lines,
                                        lambda name: attach(name)[2])
            bound = columns is not None
            if not bound:
                columns = read_manifest(manifest_path)
            dim = 0
            for shard_name in sorted(columns.shards):
                shard_dim = attach(shard_name)[1]
                if dim and shard_dim and shard_dim != dim:  # dim 0: an empty shard
                    raise SchemaError(
                        f"shard {shard_name!r} has dim {shard_dim}, corpus dim is {dim}")
                dim = dim or shard_dim
            handle = cls(corpus_id or manifest_path.stem, role, columns, dim,
                         {name: opened[name][0] for name in columns.shards})
        except BaseException:
            # The error's traceback holds this frame: close the shards now.
            for shard, _, _ in opened.values():
                shard.close()
            raise
        handle.bytes_read = n_read
        handle.manifest_sha256 = manifest_sha256
        indexes = [opened[name][2] for name in columns.shards]
        if bound or _same_rows(columns, _index_columns(columns.shards, indexes)):
            handle._bind(indexes)
        return handle


def build_corpus(videos: Iterable[ClipMatrix], out_dir: str | Path, corpus_id: str,
                 role: str = "source", videos_per_shard: int = 4096) -> CorpusHandle:
    """Write shards, digest sidecar and manifest under out_dir and return an
    open handle.

    The videos are trusted as validated ClipMatrix objects, except that
    their values are checked once per shard (they may have been changed in
    place since). Manifest rows take the packer's offsets, so no record is
    read back; the manifest is written with one write, and its digest and
    each shard's index digest, taken from the packed buffer, go to the
    sidecar (_write_digests). The open that ends the build reads the
    sidecar back.
    """
    if videos_per_shard < 1:
        raise ArgumentError("videos_per_shard must be positive")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines: list[str] = []
    shards: list[tuple[str, int, str]] = []
    batch: list[ClipMatrix] = []
    dim: int | None = None

    def flush():
        nonlocal dim
        if not batch:
            return
        if dim is None:
            dim = batch[0].dim
        name = f"{corpus_id}-{len(shards):05d}.shard"
        data, offsets, counts = _pack_shard(batch, dim, check_finite=True)
        with open(out_dir / name, "wb") as f:
            f.write(data)
        log.info("wrote shard %s: %d videos, %d bytes", name, len(batch), len(data))
        lines.extend(_manifest_lines(name, zip([v.video_id for v in batch],
                                               offsets.tolist(), counts.tolist())))
        index_at, sums_at = _FOOTER.unpack_from(data, len(data) - _FOOTER.size)
        shards.append((name, len(batch),
                       hashlib.sha256(memoryview(data)[index_at:sums_at]).hexdigest()))
        batch.clear()

    for video in videos:
        batch.append(video)
        if len(batch) >= videos_per_shard:
            flush()
    flush()
    manifest_path = out_dir / f"{corpus_id}.manifest.jsonl"
    text = "".join(lines).encode("ascii")
    _write_digests(manifest_path, hashlib.sha256(text).hexdigest(), shards)
    with open(manifest_path, "wb") as f:
        f.write(text)
    return CorpusHandle.open(manifest_path, role, corpus_id=corpus_id)


def digests_path(manifest_path: str | Path) -> Path:
    """The digest sidecar of a manifest: <manifest name>.digests.json."""
    manifest_path = Path(manifest_path)
    return manifest_path.with_name(manifest_path.name + ".digests.json")


def _write_digests(manifest_path: Path, manifest_sha256: str,
                   shards: Sequence[tuple[str, int, str]]) -> None:
    """Write the digest sidecar of manifest_path: the manifest's SHA-256
    and, per (name, rows, index SHA-256) of shards in block order, one
    object. Keys are sorted and strings ASCII, so equal inputs give equal
    bytes."""
    sidecar = {"manifest_sha256": manifest_sha256,
               "shards": [{"name": name, "rows": rows, "index_sha256": digest}
                          for name, rows, digest in shards]}
    with open(digests_path(manifest_path), "w", encoding="ascii") as f:
        f.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")


def _manifest_digest(path: Path) -> tuple[str, int]:
    """(hex SHA-256, number of newline bytes) of a manifest's bytes, read in
    1 MiB chunks."""
    h, lines = hashlib.sha256(), 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), lines


# The scanner json.loads runs, called without its per-call wrapper.
_scan_json = json.JSONDecoder().scan_once


def read_manifest(path: str | Path) -> ManifestColumns:
    """Read a JSON-lines manifest with the JSON scanner, one call per line;
    blank lines are skipped and every other line must hold exactly one
    entry object, with string video_id and shard and integer offset and
    clip_count."""
    return ManifestColumns.from_rows(read_lines(path, "manifest", _manifest_row))


def _recorded_columns(manifest_path: Path, manifest_sha256: str, lines: int,
                      index_of: Callable[[str], _SumIndex | None]) -> ManifestColumns | None:
    """The manifest's columns taken from its shards' v2 indexes, as the
    digest sidecar of manifest_path vouches for them, or None.

    They are given when the sidecar parses, records manifest_sha256, names
    each shard once in a list whose row counts add up to the manifest's
    lines, and every shard it names has a v2 index (index_of, as
    CorpusHandle.open reads it) of the recorded digest and row count and
    UTF-8 ids. Anything else gives None, errors included, so read_manifest
    and open's shard checks decide what a manifest holds and which error
    it is.
    """
    try:
        with open(digests_path(manifest_path), "rb") as f:
            sidecar = json.loads(f.read())
        if sidecar["manifest_sha256"] != manifest_sha256 or type(sidecar["shards"]) is not list:
            return None
        shards = [(str_field(s, "name"), int_field(s, "rows"), str_field(s, "index_sha256"))
                  for s in sidecar["shards"]]
        names = [name for name, _, _ in shards]
        if len(set(names)) < len(names) or sum(rows for _, rows, _ in shards) != lines:
            return None
        indexes = [index_of(name) for name in names]
        if not all(index is not None and index.sha256 == digest and len(index.offsets) == rows
                   for index, (_, rows, digest) in zip(indexes, shards)):
            return None
        return _index_columns(names, indexes)
    except (CupidError, OSError, ValueError, KeyError, TypeError, RecursionError):
        return None


def _index_columns(names: Sequence[str],
                   indexes: Sequence[_SumIndex | None]) -> ManifestColumns | None:
    """The columns of whole shard blocks, for each shard of names in turn
    all of its index's rows in order; None if a shard has no index (v1) or
    its ids are not UTF-8."""
    if None in indexes:
        return None
    ids: list[str] = []
    try:
        for index in indexes:
            ids += _index_ids(index)
    except UnicodeDecodeError:
        return None
    empty = [np.empty(0, dtype=np.intp)]
    codes = np.repeat(np.arange(len(indexes)), [len(index.offsets) for index in indexes])
    return ManifestColumns(ids, list(names), codes,
                           np.concatenate(empty + [index.offsets for index in indexes]),
                           np.concatenate(empty + [index.counts for index in indexes]))


def _index_ids(index: _SumIndex) -> list[str]:
    """The ids of a v2 index, decoded from UTF-8. Unless one holds a
    newline, they are decoded in one call, a newline put between each two."""
    if not len(index.id_lens):
        return []
    if not (index.ids == ord("\n")).any():
        marked = np.insert(index.ids, np.cumsum(index.id_lens[:-1]), ord("\n"))
        return marked.tobytes().decode("utf-8").split("\n")
    raw, ends = index.ids.tobytes(), np.cumsum(index.id_lens).tolist()
    return [raw[a:b].decode("utf-8") for a, b in zip([0] + ends, ends)]


def _same_rows(a: ManifestColumns, b: ManifestColumns | None) -> bool:
    """Whether b is not None and holds a's rows, with a's shard codes."""
    return (b is not None and a.ids == b.ids and a.shards == b.shards
            and all(np.array_equal(getattr(a, name), getattr(b, name))
                    for name in ("codes", "offsets", "clip_counts")))


def _manifest_row(line: str) -> tuple[str, str, int, int]:
    """The (video_id, shard, offset, clip_count) row of a manifest line."""
    obj = json_object(line)
    row = (obj["video_id"], obj["shard"], obj["offset"], obj["clip_count"])
    if tuple(map(type, row)) != (str, str, int, int):
        raise TypeError("video_id and shard must be strings, "
                        "offset and clip_count integers")
    return row


def read_lines(path: str | Path, what: str, parse: Callable[[str], T]) -> list[T]:
    """parse(line) of every non-blank line of a UTF-8 text file, stripped.

    A file that is not UTF-8 is a FormatError naming the file, and a line
    that parse rejects with KeyError, TypeError, ValueError or OverflowError
    (an integer too large for a float) is one naming path:line. Every
    JSON-lines reader of the package goes through here.
    """
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append(parse(line))
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise FormatError(f"{path}:{line_no}: bad {what} line") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {what} file is not valid UTF-8") from exc
    return rows


def json_object(line: str) -> dict:
    """The JSON value that makes up the whole line; ValueError otherwise."""
    try:
        obj, end = _scan_json(line, 0)
    except StopIteration:
        raise ValueError("not a JSON value") from None
    if end != len(line):
        raise ValueError("extra data after the JSON value")
    return obj


def str_field(obj: dict, key: str) -> str:
    """obj[key], which must be a JSON string; TypeError otherwise."""
    value = obj[key]
    if type(value) is not str:
        raise TypeError(f"{key} must be a string")
    return value


def int_field(obj: dict, key: str) -> int:
    """obj[key], which must be a JSON integer; TypeError otherwise."""
    value = obj[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer")
    return value


def number_field(obj: dict, key: str, finite: bool = False) -> float:
    """obj[key] as a float; it must be a JSON number (not a bool), and not
    NaN or infinite if finite is set. TypeError or ValueError otherwise."""
    value = obj[key]
    if type(value) not in (int, float):
        raise TypeError(f"{key} must be a number")
    if finite and not math.isfinite(value):
        raise ValueError(f"{key} must be finite")
    return float(value)


def _manifest_lines(shard: str, rows: Iterable[tuple[str, int, int]]) -> list[str]:
    """The manifest line json.dumps writes for each (video_id, offset,
    clip_count) row in shard, "\\n" included: its strings quoted as
    json.dumps quotes them (ensure_ascii), so every line is ASCII. This is
    the one definition of a manifest line; the digest sidecar records the
    SHA-256 of the lines build_corpus writes with it."""
    shard = _json_str(shard)
    return [f'{{"video_id": {_json_str(video_id)}, "shard": {shard}, "offset": {offset}, '
            f'"clip_count": {clip_count}}}\n' for video_id, offset, clip_count in rows]


def read_metadata(path: str | Path) -> list[VideoMeta]:
    """Read a JSON-lines metadata file; ids must be unique."""
    seen: set[str] = set()

    def parse(line: str) -> VideoMeta:
        obj = json_object(line)
        meta = VideoMeta(*(str_field(obj, key) for key in
                           ("video_id", "category", "title", "subtitle_source")),
                         number_field(obj, "duration_s", finite=True))
        if meta.video_id in seen:
            raise DataError(f"{path}: duplicate video_id {meta.video_id!r}")
        seen.add(meta.video_id)
        return meta

    return read_lines(path, "metadata", parse)


def make_uniform_windows(duration_s: float, n: int) -> list[tuple[float, float]]:
    """Split [0, duration_s] into n contiguous equal windows.

    Window k starts exactly at k*duration_s/n; the final boundary is pinned to
    duration_s so the windows cover the whole span.
    """
    if n < 1:
        raise ArgumentError("window count must be >= 1")
    if not duration_s > 0:
        raise ArgumentError("duration must be positive")
    bounds = [k * duration_s / n for k in range(n)] + [duration_s]
    return [(bounds[k], bounds[k + 1]) for k in range(n)]


def merge_consecutive_subtitles(subs: Sequence[Subtitle], group: int) -> list[Subtitle]:
    """Merge each run of `group` consecutive subtitles into one.

    Text is joined with single spaces and the merged span runs from the first
    start to the last end of the run; a trailing partial run is kept.
    """
    if group < 1:
        raise ArgumentError("group must be >= 1")
    for a, b in zip(subs, subs[1:]):
        if a.start_s > b.start_s:
            raise ArgumentError("subtitles must be sorted by start time")
    merged = []
    for i in range(0, len(subs), group):
        run = subs[i:i + group]
        merged.append(Subtitle(" ".join(s.text for s in run), run[0].start_s, run[-1].end_s))
    return merged
