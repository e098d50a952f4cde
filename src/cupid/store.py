"""On-disk corpus format and clip-boundary utilities.

Shard layout (binary, little-endian):

    magic   4 bytes  b"CPDE"
    version u16      currently 1
    dim     u32      embedding dimension (0 only for empty shards)
    count   u32      number of videos
    then per video:
        id_len     u16
        id         UTF-8 bytes
        clip_count u32
        values     clip_count * dim float32, row-major (clip, dim)

A corpus is a JSON-lines manifest, one object per video
{"video_id","shard","offset","clip_count"}, plus the shard files it points
to. Shard paths are stored relative to the manifest. Video metadata and
subtitles live in separate JSON-lines files (see read_metadata /
read_subtitles).

Manifests are read in chunks of about _CHUNK_BYTES. A chunk whose lines are
all canonical is parsed with numpy, without a Python object per field. A
canonical line is exactly what write_manifest writes for an id and a shard
name of printable ASCII without '"' or '\\' and integers of at most 18
digits:

    {"video_id": "v1", "shard": "c-00000.shard", "offset": 14, "clip_count": 3}

with "\\n" as its line ending. If any line of the file is not canonical, the
whole file is read line by line with the JSON scanner instead, so every valid
line still parses (other key orders, extra keys, escapes, whitespace, blank
lines, CRLF) and errors name path:line.

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
"""
from __future__ import annotations

import io
import json
import math
import os
import re
import struct
import threading
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ArgumentError, DataError, FormatError, NotFoundError, SchemaError

SHARD_MAGIC = b"CPDE"
SHARD_VERSION = 1

_HEADER = struct.Struct("<4sHII")
_ID_LEN = struct.Struct("<H")
_CLIP_COUNT = struct.Struct("<I")
# Records of one tile in one shard whose gap is shorter than this (a page)
# are read together, gap included.
_PAGE = 4096

SUBTITLE_SOURCES = ("human", "asr", "none")
ROLES = ("source", "target")

T = TypeVar("T")


@dataclass(frozen=True)
class ClipMatrix:
    """Stack of clip embeddings for one video, row-major (clip, dim) float32."""

    video_id: str
    values: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float32)
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise SchemaError(
                f"video {self.video_id!r}: expected a 2-D clip matrix with dim >= 1")
        object.__setattr__(self, "values", arr)
        if arr.shape[0] < 1:
            raise DataError(f"video {self.video_id!r} has zero clips")
        if not np.isfinite(arr).all():
            raise DataError(f"video {self.video_id!r} contains non-finite values")

    @property
    def clip_count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, slots=True)
class ManifestEntry:
    video_id: str
    shard: str
    offset: int
    clip_count: int


@dataclass(frozen=True)
class VideoMeta:
    video_id: str
    category: str
    title: str
    subtitle_source: str
    duration_s: float

    def __post_init__(self):
        if self.subtitle_source not in SUBTITLE_SOURCES:
            raise DataError(
                f"video {self.video_id!r}: subtitle_source must be one of {SUBTITLE_SOURCES}"
            )
        if self.duration_s < 0:
            raise DataError(f"video {self.video_id!r}: negative duration")


@dataclass(frozen=True)
class Subtitle:
    text: str
    start_s: float
    end_s: float

    def __post_init__(self):
        if self.start_s > self.end_s:
            raise DataError(f"subtitle spans negative time range ({self.start_s} > {self.end_s})")


def write_shard(videos: Sequence[ClipMatrix], dim: int | None = None) -> bytes:
    """Serialize videos into one shard. Bit-exact round trip with ingest_shard."""
    if dim is None:
        dim = videos[0].dim if videos else 0
    seen: set[str] = set()
    for v in videos:
        if v.dim != dim:
            raise SchemaError(f"video {v.video_id!r} has dim {v.dim}, shard dim is {dim}")
        if v.video_id in seen:
            raise DataError(f"duplicate video_id {v.video_id!r} in shard")
        seen.add(v.video_id)
    out = io.BytesIO()
    out.write(_HEADER.pack(SHARD_MAGIC, SHARD_VERSION, dim, len(videos)))
    for v in videos:
        id_bytes = v.video_id.encode("utf-8")
        if len(id_bytes) > 0xFFFF:
            raise DataError(f"video id too long ({len(id_bytes)} bytes)")
        out.write(_ID_LEN.pack(len(id_bytes)))
        out.write(id_bytes)
        out.write(_CLIP_COUNT.pack(v.clip_count))
        out.write(v.values.astype("<f4", copy=False).tobytes())
    return out.getvalue()


class _Shard:
    """Positional reads of one shard: from bytes in memory, or from a file
    descriptor that is closed when the object is dropped.

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
            weakref.finalize(self, file.close)
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
    dim 0 and match any expectation).
    """
    if expected_dim <= 0:
        raise ArgumentError("expected_dim must be positive")
    data = stream if isinstance(stream, (bytes, bytearray, memoryview)) else stream.read()
    dim, video_count = read_shard_header(data, shard_name)
    if video_count > 0 and dim != expected_dim:
        raise SchemaError(f"shard {shard_name!r} has dim {dim}, expected {expected_dim}")
    shard = _Shard(shard_name, data)
    entries = []
    seen: set[str] = set()
    offset = _HEADER.size
    for _ in range(video_count):
        video, next_offset = _decode_video(shard, offset, dim)
        if video.video_id in seen:
            raise DataError(f"duplicate video_id {video.video_id!r} in shard {shard_name!r}")
        seen.add(video.video_id)
        entries.append(ManifestEntry(video.video_id, shard_name, offset, video.clip_count))
        offset = next_offset
    if offset != shard.size:
        raise FormatError(f"shard {shard_name!r} has {shard.size - offset} trailing bytes")
    return entries


def read_shard_header(buf, shard_name: str) -> tuple[int, int]:
    """Return (dim, video_count) from raw shard bytes; a bad header is a
    FormatError naming the shard."""
    if len(buf) < _HEADER.size:
        raise FormatError(f"shard {shard_name!r} shorter than header")
    magic, version, dim, video_count = _HEADER.unpack_from(buf, 0)
    if magic != SHARD_MAGIC:
        raise FormatError(f"shard {shard_name!r}: bad magic {magic!r}")
    if version != SHARD_VERSION:
        raise FormatError(f"shard {shard_name!r}: unsupported version {version}")
    return dim, video_count


@dataclass
class _Tile:
    """One contiguous run of source or target videos, decoded for scoring."""

    ids: list[str]
    counts: np.ndarray      # intp (n,)
    offsets: np.ndarray     # intp (n+1,) into clips
    clips: np.ndarray       # float32 (total_clips, dim)


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


@dataclass(frozen=True, eq=False)
class ManifestColumns:
    """A manifest as columns: row i is (ids[i], shards[codes[i]], offsets[i],
    clip_counts[i]). The arrays are read-only; see _int_column."""

    ids: list[str]
    shards: list[str]
    codes: np.ndarray
    offsets: np.ndarray
    clip_counts: np.ndarray

    def __post_init__(self):
        for name in ("codes", "offsets", "clip_counts"):
            object.__setattr__(self, name, _int_column(getattr(self, name)))

    @classmethod
    def from_entries(cls, entries: Sequence[ManifestEntry]) -> "ManifestColumns":
        table: dict[str, int] = {}
        codes = _shard_codes([e.shard for e in entries], table)
        return cls([e.video_id for e in entries], list(table), codes,
                   [e.offset for e in entries], [e.clip_count for e in entries])

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
    shard bytes its record reads have taken so far.
    """

    def __init__(self, corpus_id: str, role: str,
                 manifest: ManifestColumns | Sequence[ManifestEntry],
                 dim: int, buffers: dict):
        if role not in ROLES:
            raise ArgumentError(f"role must be one of {ROLES}")
        if not isinstance(manifest, ManifestColumns):
            manifest = ManifestColumns.from_entries(manifest)
        if len(set(manifest.ids)) != len(manifest):
            raise DataError(f"corpus {corpus_id!r}: duplicate video ids in manifest")
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
        self._lock = threading.Lock()
        self.bytes_read = 0

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
        if stop is None:
            rows = np.asarray(start, dtype=np.intp)
            if rows.ndim != 1 or (len(rows) and (rows[0] < 0 or rows[-1] >= self.video_count
                                                  or (np.diff(rows) <= 0).any())):
                raise ArgumentError("tile rows must be ascending row indices of the corpus")
            row_list = rows.tolist()
            ids = [self.columns.ids[row] for row in row_list]
        else:
            rows = slice(start, stop)
            row_list = range(self.video_count)[rows]
            ids = self.columns.ids[rows]
        clips = self._copy_records(rows, ids)
        if clips is None:
            clips = np.concatenate([self._load_entry(row).values for row in row_list])
        counts = np.asarray(self.columns.clip_counts[rows], dtype=np.intp)
        offsets = np.zeros(len(ids) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        return _Tile(ids=ids, counts=counts, offsets=offsets, clips=clips)

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

    def iter_videos(self) -> Iterator[ClipMatrix]:
        for row in range(self.video_count):
            yield self._load_entry(row)

    @classmethod
    def from_arrays(cls, corpus_id: str, role: str,
                    videos: Sequence[ClipMatrix]) -> "CorpusHandle":
        """Build an in-memory corpus (single anonymous shard) from clip matrices."""
        dim = videos[0].dim if videos else 0
        data = write_shard(list(videos), dim=dim)
        entries = ingest_shard(data, dim if dim else 1, shard_name=":memory:")
        return cls(corpus_id, role, entries, dim, {":memory:": data})

    @classmethod
    def open(cls, manifest_path: str | Path, role: str,
             corpus_id: str | None = None) -> "CorpusHandle":
        """Open a corpus from its JSON-lines manifest, keeping one read-only
        descriptor per shard; the descriptors close when the handle is dropped."""
        manifest_path = Path(manifest_path)
        columns = read_manifest(manifest_path)
        base = manifest_path.parent
        shards: dict[str, _Shard] = {}
        dim: int | None = None
        for shard_name in sorted(columns.shards):
            shard_path = base / shard_name
            if not shard_path.exists():
                raise NotFoundError(f"shard file {shard_path} missing")
            shard = _Shard(shard_name, path=shard_path)
            shard_dim, _ = read_shard_header(shard.read(0, _HEADER.size), shard_name)
            if shard_dim != 0:
                if dim is None:
                    dim = shard_dim
                elif dim != shard_dim:
                    raise SchemaError(
                        f"shard {shard_name!r} has dim {shard_dim}, corpus dim is {dim}"
                    )
            shards[shard_name] = shard
        if dim is None:
            dim = 0
        return cls(corpus_id or manifest_path.stem, role, columns, dim, shards)


def build_corpus(videos: Iterable[ClipMatrix], out_dir: str | Path, corpus_id: str,
                 role: str = "source", videos_per_shard: int = 4096) -> CorpusHandle:
    """Write shards plus manifest under out_dir and return an open handle."""
    if videos_per_shard < 1:
        raise ArgumentError("videos_per_shard must be positive")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_entries: list[ManifestEntry] = []
    batch: list[ClipMatrix] = []
    shard_idx = 0
    dim: int | None = None

    def flush():
        nonlocal shard_idx, dim
        if not batch:
            return
        if dim is None:
            dim = batch[0].dim
        name = f"{corpus_id}-{shard_idx:05d}.shard"
        data = write_shard(batch, dim=dim)
        with open(out_dir / name, "wb") as f:
            f.write(data)
        all_entries.extend(ingest_shard(data, dim, shard_name=name))
        shard_idx += 1
        batch.clear()

    for video in videos:
        batch.append(video)
        if len(batch) >= videos_per_shard:
            flush()
    flush()
    manifest_path = out_dir / f"{corpus_id}.manifest.jsonl"
    write_manifest(all_entries, manifest_path)
    return CorpusHandle.open(manifest_path, role, corpus_id=corpus_id)


# Manifests are read in chunks of about this many bytes; a chunk of
# canonical lines (see the module docstring) matches _CANONICAL_LINES.
_CHUNK_BYTES = 1 << 18
_CANONICAL_STR = rb'[ !#-\[\]-~]*'
_CANONICAL_INT = rb'(?:0|[1-9][0-9]{0,17})'
_CANONICAL_LINES = re.compile(
    rb'(?:\{"video_id": "' + _CANONICAL_STR + rb'", "shard": "' + _CANONICAL_STR
    + rb'", "offset": ' + _CANONICAL_INT + rb', "clip_count": ' + _CANONICAL_INT
    + rb'\}\n)*')
_POW10 = 10 ** np.arange(18, dtype=np.int64)

# The scanner json.loads runs, called without its per-call wrapper.
_scan_json = json.JSONDecoder().scan_once


def read_manifest(path: str | Path) -> ManifestColumns:
    """Read a JSON-lines manifest; blank lines are skipped and every other
    line must hold exactly one entry object, with string video_id and shard
    and integer offset and clip_count."""
    ids: list[str] = []
    table: dict[str, int] = {}
    codes, offsets, counts = [], [], []
    with open(path, "rb") as f:
        while lines := f.readlines(_CHUNK_BYTES):
            chunk = _parse_canonical(b"".join(lines))
            if chunk is None:
                # Any valid manifest: one scanner call per line.
                return ManifestColumns.from_entries(read_lines(path, "manifest", _manifest_row))
            ids += chunk[0]
            codes.append(_shard_codes(chunk[1], table))
            offsets.append(chunk[2])
            counts.append(chunk[3])
    empty = [np.empty(0, dtype=np.intp)]
    return ManifestColumns(ids, list(table), np.concatenate(empty + codes),
                           np.concatenate(empty + offsets), np.concatenate(empty + counts))


def _parse_canonical(data: bytes) -> tuple[list[str], list[str], np.ndarray, np.ndarray] | None:
    """(ids, shard names, offsets, clip counts) of lines that are all
    canonical, or None."""
    if _CANONICAL_LINES.fullmatch(data) is None:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    # Ids and shard names hold no '"', so every line holds exactly 12 of them.
    quotes = np.flatnonzero(buf == ord('"')).reshape(-1, 12)
    ends = np.flatnonzero(buf == ord("\n"))
    return (_ascii_fields(buf, quotes[:, 2] + 1, quotes[:, 3]),
            _ascii_fields(buf, quotes[:, 6] + 1, quotes[:, 7]),
            _decimal_fields(buf, quotes[:, 9] + 3, quotes[:, 10] - 2),
            _decimal_fields(buf, quotes[:, 11] + 3, ends - 1))


def _ascii_fields(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> list[str]:
    """The strings buf[starts[i]:stops[i]], each followed in buf by '"'."""
    # Taken with their closing quotes, the fields come apart with one split.
    text = buf[_ranges(starts, stops + 1 - starts)].tobytes().decode("ascii")
    return text.split('"')[:-1]


def _decimal_fields(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The integers written in buf[starts[i]:stops[i]] with 1 to 18 digits."""
    lens = stops - starts
    pos = _ranges(starts, lens)
    digits = (buf[pos] - ord("0")).astype(np.int64) * _POW10[np.repeat(stops - 1, lens) - pos]
    return np.add.reduceat(digits, np.cumsum(lens) - lens)


def _manifest_row(line: str) -> ManifestEntry:
    obj = json_object(line)
    row = (obj["video_id"], obj["shard"], obj["offset"], obj["clip_count"])
    if tuple(map(type, row)) != (str, str, int, int):
        raise TypeError("video_id and shard must be strings, "
                        "offset and clip_count integers")
    return ManifestEntry(*row)


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


def write_manifest(entries: Sequence[ManifestEntry], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for e in entries:
            f.write(json.dumps({"video_id": e.video_id, "shard": e.shard,
                                "offset": e.offset, "clip_count": e.clip_count}) + "\n")


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


def write_metadata(metas: Sequence[VideoMeta], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for m in metas:
            f.write(json.dumps({
                "video_id": m.video_id, "category": m.category, "title": m.title,
                "subtitle_source": m.subtitle_source, "duration_s": m.duration_s,
            }) + "\n")


def read_subtitles(path: str | Path) -> dict[str, list[Subtitle]]:
    """Read JSON-lines subtitles grouped by video, each group sorted by start time."""
    def parse(line: str) -> tuple[str, Subtitle]:
        obj = json_object(line)
        return str_field(obj, "video_id"), Subtitle(
            str_field(obj, "text"), number_field(obj, "start_s", finite=True),
            number_field(obj, "end_s", finite=True))

    groups: dict[str, list[Subtitle]] = {}
    for video_id, sub in read_lines(path, "subtitle", parse):
        groups.setdefault(video_id, []).append(sub)
    for subs in groups.values():
        subs.sort(key=lambda s: s.start_s)
    return groups


def write_subtitles(groups: dict[str, Sequence[Subtitle]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for video_id in groups:
            for s in groups[video_id]:
                f.write(json.dumps({"video_id": video_id, "start_s": s.start_s,
                                    "end_s": s.end_s, "text": s.text}) + "\n")


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
