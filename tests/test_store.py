"""Shard format, corpus access, and clip-boundary utilities."""
import gc
import hashlib
import json
import logging
import os
import re
import struct
import warnings
from dataclasses import replace
from itertools import groupby, zip_longest
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cupid import (
    ArgumentError,
    ClipMatrix,
    CorpusHandle,
    CupidError,
    DataError,
    FormatError,
    NotFoundError,
    SchemaError,
    Subtitle,
    VideoMeta,
    build_corpus,
    ingest_shard,
    make_uniform_windows,
    merge_consecutive_subtitles,
    write_shard,
)
from cupid import store
from cupid.store import ManifestEntry, read_manifest, read_metadata

from cupid.curation import curate_avg_sim, read_curation_manifest, write_curation_manifest
from cupid.similarity import PoolingMode, stream_column_means

from helpers import (build_corpus_reference, corpus_files, load_videos, random_videos,
                     read_column_means, read_manifest_lines, read_schedule, read_subtitles,
                     write_manifest, write_metadata, write_shard_reference, write_subtitles)


def _reload(videos, expected_dim):
    data = write_shard(videos)
    entries = ingest_shard(data, expected_dim)
    handle = CorpusHandle("rt", "source", entries, expected_dim if videos else 0,
                          {"": data})
    return [handle.load_video(e.video_id) for e in entries]


class TestShardFormat:
    def test_two_video_offsets(self):
        videos = [
            ClipMatrix("va", np.zeros((3, 4), dtype=np.float32)),
            ClipMatrix("vb", np.ones((1, 4), dtype=np.float32)),
        ]
        entries = ingest_shard(write_shard(videos), 4)
        assert [e.video_id for e in entries] == ["va", "vb"]
        assert entries[0].offset == 14  # header: magic 4 + version 2 + dim 4 + count 4
        # record va: id_len 2 + id 2 + clip_count 4 + 3*4 floats * 4 bytes
        assert entries[1].offset == 14 + 2 + 2 + 4 + 3 * 4 * 4
        assert [e.clip_count for e in entries] == [3, 1]

    def test_single_video_bit_exact(self):
        video = ClipMatrix("v1", np.array([[1.0, 0.0, 0.0, 0.0]], dtype=np.float32))
        (loaded,) = _reload([video], 4)
        assert loaded.video_id == "v1"
        assert loaded.values.dtype == np.float32
        assert (loaded.values == video.values).all()

    def test_random_round_trip(self, rng):
        videos = random_videos(rng, "v", 100, 6, 5)
        loaded = _reload(videos, 5)
        for original, copy in zip(videos, loaded):
            assert copy.video_id == original.video_id
            assert copy.values.shape == original.values.shape
            assert (copy.values == original.values).all()

    def test_empty_shard(self):
        data = write_shard([])
        assert ingest_shard(data, 4) == []

    def test_dim_mismatch_is_schema_error(self):
        data = write_shard([ClipMatrix("v", np.zeros((1, 8), dtype=np.float32))])
        with pytest.raises(SchemaError):
            ingest_shard(data, 4)

    def test_mixed_dims_rejected_at_write(self):
        videos = [ClipMatrix("a", np.zeros((1, 4), dtype=np.float32)),
                  ClipMatrix("b", np.zeros((1, 8), dtype=np.float32))]
        with pytest.raises(SchemaError):
            write_shard(videos)

    def test_zero_clip_video_names_offender(self):
        data = struct.pack("<4sHII", b"CPDE", 1, 4, 1)
        data += struct.pack("<H", 3) + b"bad" + struct.pack("<I", 0)
        with pytest.raises(DataError, match="bad"):
            ingest_shard(data, 4)

    def test_non_finite_value_names_offender(self):
        record = struct.pack("<H", 3) + b"nan" + struct.pack("<I", 1)
        record += np.array([[1.0, float("nan")]], dtype="<f4").tobytes()
        data = struct.pack("<4sHII", b"CPDE", 1, 2, 1) + record
        with pytest.raises(DataError, match="nan"):
            ingest_shard(data, 2)

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            ingest_shard(b"NOPE" + bytes(10), 4)

    def test_bad_version(self):
        data = struct.pack("<4sHII", b"CPDE", 9, 4, 0)
        with pytest.raises(FormatError):
            ingest_shard(data, 4)

    def test_trailing_bytes_rejected(self):
        data = write_shard([ClipMatrix("v", np.zeros((1, 2), dtype=np.float32))])
        with pytest.raises(FormatError):
            ingest_shard(data + b"x", 2)

    def test_duplicate_ids_rejected(self):
        video = ClipMatrix("dup", np.zeros((1, 2), dtype=np.float32))
        record = write_shard_reference([video], version=1)[14:]
        doubled = struct.pack("<4sHII", b"CPDE", 1, 2, 2) + record + record
        with pytest.raises(DataError, match="dup"):
            ingest_shard(doubled, 2)


class TestClipMatrix:
    def test_zero_clips_rejected(self):
        with pytest.raises(DataError):
            ClipMatrix("v", np.zeros((0, 4), dtype=np.float32))

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            ClipMatrix("v", np.array([[np.inf, 0.0]], dtype=np.float32))

    def test_values_normalized_to_float32(self):
        m = ClipMatrix("v", np.ones((2, 3)))
        assert m.values.dtype == np.float32
        assert m.clip_count == 2 and m.dim == 3


class TestCorpusHandle:
    def test_load_video_and_not_found(self, rng):
        handle = CorpusHandle.from_arrays("c", "source", random_videos(rng, "v", 5, 3, 4))
        video = handle.load_video("v00002")
        assert video.video_id == "v00002"
        with pytest.raises(NotFoundError):
            handle.load_video("zz")

    def test_corrupted_offset_is_decode_error(self, rng):
        videos = random_videos(rng, "v", 3, 3, 4)
        data = write_shard(videos)
        entries = ingest_shard(data, 4)
        bad = [ManifestEntry(e.video_id, e.shard, e.offset + 1, e.clip_count)
               for e in entries]
        handle = CorpusHandle("c", "source", bad, 4, {"": data})
        with pytest.raises((FormatError, DataError)):
            handle.load_video("v00000")

    def test_on_disk_round_trip_multi_shard(self, rng, tmp_path):
        videos = random_videos(rng, "v", 10, 4, 6)
        built = build_corpus(videos, tmp_path, "corp", role="source", videos_per_shard=3)
        assert built.video_count == 10
        assert len({e.shard for e in built.manifest}) == 4
        reopened = CorpusHandle.open(tmp_path / "corp.manifest.jsonl", "source")
        assert reopened.dim == 6
        for v in videos:
            assert (reopened.load_video(v.video_id).values == v.values).all()

    @pytest.mark.parametrize("header, message", [
        (b"NOPE" + bytes(10), "bad magic b'NOPE'"),
        (struct.pack("<4sHII", b"CPDE", 9, 4, 0), "unsupported version 9"),
        (b"CPDE", "shorter than header"),
        (b"", "shorter than header"),
    ], ids=["magic", "version", "short", "empty"])
    def test_open_names_the_shard_with_a_bad_header(self, rng, tmp_path, header, message):
        build_corpus(random_videos(rng, "v", 4, 2, 4), tmp_path, "corp", videos_per_shard=2)
        bad = sorted(tmp_path.glob("*.shard"))[1]
        bad.write_bytes(header)
        with pytest.raises(FormatError) as got:
            CorpusHandle.open(tmp_path / "corp.manifest.jsonl", "source")
        assert repr(bad.name) in str(got.value) and message in str(got.value)

    def test_load_tile_stacks_in_manifest_order(self, rng, tmp_path, monkeypatch):
        videos = random_videos(rng, "v", 6, 3, 4)
        handles = [CorpusHandle.from_arrays("c", "source", videos),
                   build_corpus(videos, tmp_path, "corp", videos_per_shard=3)]

        def no_decode(*args):
            raise AssertionError("clean records must not be decoded one by one")

        monkeypatch.setattr(store, "_decode_video", no_decode)
        for handle in handles:
            tile = handle.load_tile(2, 5)  # rows 2..4 span both shards of corp
            assert tile.ids == [v.video_id for v in videos[2:5]]
            assert tile.offsets[-1] == sum(v.clip_count for v in videos[2:5])
            stacked = np.concatenate([v.values for v in videos[2:5]])
            assert tile.clips.dtype == np.float32
            assert (tile.clips == stacked).all()
            empty = handle.load_tile(4, 4)
            assert empty.ids == [] and empty.clips.shape == (0, 4)
        no_dim = CorpusHandle.from_arrays("e", "source", [])
        assert no_dim.load_tile(0, 0).clips.shape == (0, 0)

    def test_load_tile_gathers_rows_out_of_shard_order(self, rng, monkeypatch):
        videos = random_videos(rng, "v", 9, 4, 3)
        shards = {"a": write_shard(videos[:5]), "b": write_shard(videos[5:])}
        entries = [e for name, data in shards.items()
                   for e in ingest_shard(data, 3, shard_name=name)]
        order = [8, 0, 5, 3, 6, 1, 7, 2, 4]
        handle = CorpusHandle("c", "source", [entries[i] for i in order], 3, shards)
        monkeypatch.setattr(store, "_decode_video", None)  # no row-by-row fallback
        tile = handle.load_tile(1, 8)
        assert tile.ids == [videos[i].video_id for i in order[1:8]]
        assert tile.clips.tobytes() == b"".join(videos[i].values.tobytes()
                                                 for i in order[1:8])

    def test_load_tile_gathers_listed_rows(self, rng, tmp_path, monkeypatch):
        videos = random_videos(rng, "v", 7, 3, 4)
        handle = build_corpus(videos, tmp_path, "corp", videos_per_shard=3)
        monkeypatch.setattr(store, "_decode_video", None)  # no row-by-row fallback
        rows = np.array([0, 2, 3, 6])
        tile = handle.load_tile(rows)
        assert tile.ids == [videos[i].video_id for i in rows]
        assert tile.counts.tolist() == [videos[i].clip_count for i in rows]
        assert tile.clips.tobytes() == b"".join(videos[i].values.tobytes() for i in rows)
        assert handle.load_tile(np.array([], dtype=np.intp)).clips.shape == (0, 4)
        for bad in ([2, 2], [3, 1], [-1, 2], [5, 7], [[0, 1]]):
            with pytest.raises(ArgumentError):
                handle.load_tile(np.array(bad))

    @pytest.mark.parametrize("field,bad", [
        # Counted from the end of the shard, these offsets name the right
        # records; they must be rejected all the same.
        ("offset", lambda e, size: e.offset - size),
        ("clip_count", lambda e, size: 2**64),
        ("clip_count", lambda e, size: 2**63),
        ("clip_count", lambda e, size: -1),
    ], ids=["offset-minus-shard-size", "count-2**64", "count-2**63", "count-minus-1"])
    def test_out_of_range_rows_fail_as_load_video_does(self, rng, field, bad):
        data = write_shard(random_videos(rng, "v", 3, 3, 4))
        rows = [replace(e, **{field: bad(e, len(data))}) for e in ingest_shard(data, 4)]
        handle = CorpusHandle("c", "source", rows, 4, {"": data})
        with pytest.raises(FormatError) as want:
            handle.load_video(rows[0].video_id)
        for stop in (2, 3):
            with pytest.raises(FormatError) as got:
                handle.load_tile(0, stop)
            assert str(got.value) == str(want.value)

    def test_swapped_ids_fail_as_load_video_does(self, rng):
        # Ids of one length: only the id bytes tell the two rows apart.
        data = write_shard(random_videos(rng, "v", 3, 3, 4))
        rows = ingest_shard(data, 4)
        rows[0], rows[1] = (replace(rows[0], video_id=rows[1].video_id),
                            replace(rows[1], video_id=rows[0].video_id))
        handle = CorpusHandle("c", "source", rows, 4, {"": data})
        with pytest.raises(FormatError) as want:
            handle.load_video(rows[0].video_id)
        with pytest.raises(FormatError) as got:
            handle.load_tile(0, 3)
        assert str(got.value) == str(want.value)

    def test_truncated_shard_fails_as_load_video_does(self, rng):
        # Every header still matches its row; only the last record's values
        # run past the end of the (version 1) shard.
        data = write_shard_reference(random_videos(rng, "v", 3, 3, 4), version=1)[:-4]
        rows = ingest_shard(data + bytes(4), 4)
        handle = CorpusHandle("c", "source", rows, 4, {"": data})
        with pytest.raises(FormatError) as want:
            handle.load_video(rows[2].video_id)
        with pytest.raises(FormatError) as got:
            handle.load_tile(0, 3)
        assert str(got.value) == str(want.value)

    @given(data=st.data())
    @settings(max_examples=450, deadline=None)
    def test_tile_matches_load_video_under_corruption(self, data):
        """A tile holds exactly the bytes load_video gives for its rows, or
        raises what load_video raises for the first of them that fails."""
        seed = data.draw(st.integers(0, 2**32 - 1))
        videos = random_videos(np.random.default_rng(seed), "v", 7, 3, 3)
        shards = {"a.shard": bytearray(write_shard(videos[:4])),
                  "b.shard": bytearray(write_shard(videos[4:]))}
        entries = [e for name, buf in shards.items()
                   for e in ingest_shard(bytes(buf), 3, shard_name=name)]
        kind = data.draw(st.sampled_from(
            ["none", "flip", "truncate", "nan", "shift", "count", "id", "shard",
             "permute", "alternate", "header"]))
        if kind == "permute":
            entries = data.draw(st.permutations(entries))
        elif kind == "alternate":
            # a0 b0 a1 b1 a2 b2 a3: each row is in another shard than the row before
            entries = [e for pair in zip_longest(entries[:4], entries[4:])
                       for e in pair if e is not None]
        elif kind == "flip":
            buf = shards[data.draw(st.sampled_from(sorted(shards)))]
            pos = data.draw(st.integers(0, len(buf) - 1))
            buf[pos] ^= data.draw(st.integers(1, 255))
        elif kind == "truncate":
            buf = shards[data.draw(st.sampled_from(sorted(shards)))]
            del buf[data.draw(st.integers(0, len(buf) - 1)):]
        elif kind == "header":
            # a byte of one record's id length, id or clip count
            e = data.draw(st.sampled_from(entries))
            pos = e.offset + data.draw(st.integers(0, 2 + len(e.video_id) + 3))
            shards[e.shard][pos] ^= data.draw(st.integers(1, 255))
        elif kind == "nan":
            e = data.draw(st.sampled_from(entries))
            pos = (e.offset + 2 + len(e.video_id) + 4
                   + 4 * data.draw(st.integers(0, 3 * e.clip_count - 1)))
            shards[e.shard][pos:pos + 4] = struct.pack("<f", float("nan"))
        elif kind != "none":
            i = data.draw(st.integers(0, len(entries) - 1))
            e = entries[i]
            if kind == "shift":
                e = replace(e, offset=e.offset + data.draw(st.sampled_from([-1, 1])))
            elif kind == "count":
                e = replace(e, clip_count=data.draw(
                    (st.sampled_from([-1, 0, 2**32, 2**64]) | st.integers(1, 9))
                    .filter(lambda c: c != e.clip_count)))
            elif kind == "id":
                e = replace(e, video_id=e.video_id + data.draw(
                    st.sampled_from(["x", "\u00e9", "\ud800"])))
            else:
                e = replace(e, shard="missing.shard")
            entries[i] = e
        handle = CorpusHandle("c", "source", entries, 3,
                              {name: bytes(buf) for name, buf in shards.items()})
        lo = data.draw(st.integers(0, len(entries)))
        hi = data.draw(st.integers(lo, len(entries)))
        picked = sorted(data.draw(st.sets(st.integers(0, len(entries) - 1))))
        for args, ids in [((lo, hi), [e.video_id for e in entries[lo:hi]]),
                          ((np.array(picked, dtype=np.intp),),
                           [entries[row].video_id for row in picked])]:
            try:
                rows = [handle.load_video(video_id).values for video_id in ids]
            except CupidError as exc:
                with pytest.raises(CupidError) as got:
                    handle.load_tile(*args)
                assert type(got.value) is type(exc)
                assert str(got.value) == str(exc)
            else:
                tile = handle.load_tile(*args)
                want = np.concatenate(rows) if rows else np.empty((0, 3), np.float32)
                assert tile.ids == ids
                assert tile.clips.dtype == np.float32 and tile.clips.shape == want.shape
                assert tile.clips.tobytes() == want.tobytes()

    def test_shard_truncated_after_open_fails_as_load_video_does(self, rng, tmp_path):
        videos = random_videos(rng, "v", 6, 3, 4)
        handle = build_corpus(videos, tmp_path, "corp", videos_per_shard=3)
        last = sorted(tmp_path.glob("*.shard"))[-1]
        # into the last record, which ends where the shard's index begins
        (index_at,) = struct.unpack("<Q", last.read_bytes()[-16:-8])
        os.truncate(last, index_at - 5)
        with pytest.raises(FormatError) as want:
            handle.load_video("v00005")
        assert repr(last.name) in str(want.value) and "shrank" in str(want.value)
        for args in [(0, 6), (np.array([1, 5]),)]:
            with pytest.raises(FormatError) as got:
                handle.load_tile(*args)
            assert str(got.value) == str(want.value)
        assert handle.load_video("v00002").values.tobytes() == videos[2].values.tobytes()
        assert handle.load_tile(0, 3).clips.tobytes() == b"".join(
            v.values.tobytes() for v in videos[:3])

    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_gathered_rows_on_disk_match_load_video(self, tmp_path_factory, data):
        """Rows read from shard files, spread over two or three shards with
        gaps under and over a page between them, hold load_video's bytes;
        each run of rows with gaps under a page is read once, gaps
        included. A corrupt row, or a shard cut short after open, raises
        what load_video raises for the first bad row; a byte flipped in an
        index or footer may instead fail the open, naming its shard."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # Records of 268 to 2060 bytes: one skipped record is a gap under a
        # page, sixteen are a gap over one.
        videos = random_videos(rng, "v", 36, 8, 64)
        root = tmp_path_factory.mktemp("corpus")
        build_corpus(videos, root, "corp", videos_per_shard=data.draw(st.sampled_from([12, 18])))
        manifest = root / "corp.manifest.jsonl"
        rows = read_manifest(manifest).entries()
        kind = data.draw(st.sampled_from(["none", "none", "flip", "nan", "truncate"]))
        e = data.draw(st.sampled_from(rows))
        path = root / e.shard
        in_index = False  # whether the flipped byte is in the shard's index or footer
        if kind == "flip":  # a byte of a record (header or values), index or footer
            shard = bytearray(path.read_bytes())
            pos = data.draw(st.integers(14, len(shard) - 1))
            in_index = pos >= _sum_block(bytes(shard))[0]
            shard[pos] ^= data.draw(st.integers(1, 255))
            path.write_bytes(shard)
        elif kind == "nan":
            with open(path, "r+b") as f:
                f.seek(e.offset + 2 + len(e.video_id) + 4
                       + 4 * data.draw(st.integers(0, 64 * e.clip_count - 1)))
                f.write(struct.pack("<f", float("nan")))
        try:
            handle = CorpusHandle.open(manifest, "source")
        except CupidError as exc:  # open reads every index and footer
            assert in_index and type(exc) is FormatError and repr(e.shard) in str(exc)
            return
        if kind == "truncate":
            os.truncate(path, data.draw(st.integers(14, path.stat().st_size - 1)))
        lo = data.draw(st.integers(0, len(rows)))
        hi = data.draw(st.integers(lo, len(rows)))
        picked = sorted(data.draw(st.sets(st.integers(0, len(rows) - 1))))
        for args, tile_rows in [((lo, hi), list(range(lo, hi))),
                                ((np.array(picked, dtype=np.intp),), picked)]:
            try:
                want = [handle.load_video(rows[row].video_id).values for row in tile_rows]
            except CupidError as exc:
                with pytest.raises(CupidError) as got:
                    handle.load_tile(*args)
                assert type(got.value) is type(exc) and str(got.value) == str(exc)
                continue
            before = handle.bytes_read
            tile = handle.load_tile(*args)
            assert tile.ids == [rows[row].video_id for row in tile_rows]
            assert tile.clips.tobytes() == b"".join(v.tobytes() for v in want)
            if kind == "none":
                assert handle.bytes_read - before == _run_bytes([rows[r] for r in tile_rows], 64)

    def test_failed_open_leaves_no_shard_open(self, rng, tmp_path):
        """Open reads shard 0's index for the first block, then fails on the
        line after it; the shard is closed while the error is still alive."""
        build_corpus(random_videos(rng, "v", 6, 2, 3), tmp_path, "c", videos_per_shard=3)
        path = tmp_path / "c.manifest.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:3] + [b"not json\n"] + lines[3:]))
        fds = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(FormatError, match=":4: bad manifest line") as got:
            CorpusHandle.open(path, "source")
        assert got.value.__traceback__ is not None
        assert sorted(os.listdir("/proc/self/fd")) == fds

    def test_dropped_handle_closes_its_descriptors(self, rng, tmp_path):
        build_corpus(random_videos(rng, "v", 5, 3, 4), tmp_path, "corp", videos_per_shard=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            handle = CorpusHandle.open(tmp_path / "corp.manifest.jsonl", "source")
            handle.load_tile(0, 5)
            fds = [shard.fd for shard in handle._shards]
            del handle
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert len(set(fds)) == 3
        for fd in fds:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_duplicate_manifest_ids_rejected(self):
        data = write_shard([ClipMatrix("v", np.zeros((1, 2), dtype=np.float32))])
        entries = ingest_shard(data, 2)
        with pytest.raises(DataError, match="corpus 'c': duplicate video id 'v' in manifest"):
            CorpusHandle("c", "source", entries + entries, 2, {"": data})

    def test_bad_role_rejected(self):
        with pytest.raises(ArgumentError):
            CorpusHandle("c", "sideways", [], 2, {})


def _sum_block(data):
    """(index offset, sums offset) from a v2 shard's footer, and its sums
    as a (count, dim) float64 array."""
    _, _, dim, count = struct.unpack_from("<4sHII", data, 0)
    index_at, sums_at = struct.unpack("<QQ", data[-16:])
    return index_at, sums_at, np.frombuffer(data[sums_at:len(data) - 16],
                                            dtype="<f8").reshape(count, dim)


# Clip values: signed zeros, float32 subnormals, values near the float32
# overflow bound and ordinary ones.
_CLIP_VALUES = st.sampled_from([0.0, -0.0, 1.0, -2.5, 2.0 ** -149, -(2.0 ** -149),
                                2.0 ** -130, 3.0e38, -3.0e38,
                                float(np.finfo(np.float32).max)]) | st.floats(
    -1e6, 1e6, width=32)


class TestClipSums:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_stored_sums_are_segment_clip_sums(self, data):
        """Every writer stores, for each video, _segment_clip_sums of its
        decoded clips, byte for byte, and load_sums reads those bytes."""
        dim = data.draw(st.integers(1, 3))
        clip = st.lists(_CLIP_VALUES, min_size=dim, max_size=dim)
        videos = [ClipMatrix(f"v{i}", np.array(data.draw(st.lists(clip, min_size=1,
                                                                  max_size=5)),
                                               dtype=np.float32))
                  for i in range(data.draw(st.integers(1, 12)))]
        shard = write_shard(videos)
        assert shard == write_shard_reference(videos)
        entries = ingest_shard(shard, dim)
        handle = CorpusHandle("c", "source", entries, dim, {"": shard})
        tile = handle.load_tile(0, len(videos))
        want = store._segment_clip_sums(tile.clips, tile.offsets, tile.counts)
        assert _sum_block(shard)[2].tobytes() == want.tobytes()
        sums, counts = handle.load_sums(0, len(videos))
        assert sums.tobytes() == want.tobytes()
        assert counts.tolist() == [v.clip_count for v in videos]
        from_arrays = CorpusHandle.from_arrays("c", "source", videos)
        assert from_arrays.load_sums(0, len(videos))[0].tobytes() == want.tobytes()

    def test_a_negative_zero_clip_sums_to_positive_zero(self):
        shard = write_shard([ClipMatrix("z", np.array([[-0.0, -0.0]], dtype=np.float32)),
                             ClipMatrix("m", np.array([[-0.0, 1.0], [-0.0, -1.0]]))])
        assert _sum_block(shard)[2].tobytes() == bytes(32)

    def test_v1_shards_give_the_same_sums_from_their_records(self, rng, tmp_path,
                                                             monkeypatch):
        videos = random_videos(rng, "v", 9, 4, 5)
        new = build_corpus(videos, tmp_path / "v2", "c", videos_per_shard=4)
        old = build_corpus_reference(videos, tmp_path / "v1", "c", videos_per_shard=4,
                                     version=1)
        rows = np.array([1, 2, 6, 8])
        want = [handle.load_sums(*args) for handle in (old,) for args in [(0, 9), (rows,)]]
        monkeypatch.setattr(CorpusHandle, "load_tile", None)  # v2 decodes no clip
        for (sums, counts), args in zip(want, [(0, 9), (rows,)]):
            got_sums, got_counts = new.load_sums(*args)
            assert got_sums.tobytes() == sums.tobytes()
            assert got_counts.tolist() == counts.tolist()
        assert new.load_sums(4, 4)[0].shape == (0, 5)

    def test_sums_reads_are_one_read_per_shard_run(self, rng, tmp_path):
        videos = random_videos(rng, "v", 40, 3, 6)
        handle = build_corpus(videos, tmp_path, "c", videos_per_shard=16)
        before = handle.bytes_read
        handle.load_sums(3, 37)  # three shards, one read each
        assert handle.bytes_read - before == 34 * 6 * 8
        before = handle.bytes_read
        # rows 17 and 30 are 13 rows apart (under _SUM_GAP): one staged read
        handle.load_sums(np.array([0, 17, 30]))
        assert handle.bytes_read - before == (1 + 14) * 6 * 8


class TestSumCorruption:
    """Open checks every v2 shard's footer and index: a corrupt one, or a
    sums block cut short, is a FormatError naming the shard, raised at open.
    A handle whose rows are not bound to the index sums its records and
    raises what load_video raises; a stored sum that is not finite or is
    above 2^160 in magnitude is a FormatError naming its shard."""

    def _corpus(self, rng, tmp_path):
        videos = random_videos(rng, "v", 10, 3, 4)
        build_corpus(videos, tmp_path, "c", videos_per_shard=5)
        return videos, tmp_path / "c.manifest.jsonl", sorted(tmp_path.glob("*.shard"))[1]

    @pytest.mark.parametrize("kind", ["cut-sums", "cut-index", "footer-past-end",
                                      "index-past-end", "swapped-entries", "nan", "inf",
                                      "huge"])
    def test_corrupt_shard_is_a_format_error_naming_it(self, rng, tmp_path, kind):
        videos, manifest, bad = self._corpus(rng, tmp_path)
        data = bytearray(bad.read_bytes())
        index_at, sums_at, _ = _sum_block(bytes(data))
        if kind == "swapped-entries":
            # entries 1 and 3 trade every field, so each row still finds its
            # own offset, count and id, but at the other entry's sum
            for at, width in [(index_at, 8), (index_at + 40, 4), (index_at + 60, 2),
                              (index_at + 70, 6)]:
                one, three = slice(at + width, at + 2 * width), slice(at + 3 * width,
                                                                       at + 4 * width)
                data[one], data[three] = data[three], data[one]
        elif kind == "cut-sums":
            del data[sums_at + 8:sums_at + 16]
        elif kind == "cut-index":
            del data[index_at + 3]
        elif kind == "footer-past-end":
            data[-8:] = struct.pack("<Q", len(data) + 100)
        elif kind == "index-past-end":
            data[-16:-8] = struct.pack("<Q", 2 ** 64 - 1)
        else:
            value = {"nan": float("nan"), "inf": float("-inf"), "huge": 1e300}[kind]
            data[sums_at + 8 * (4 * 2 + 1):sums_at + 8 * (4 * 2 + 2)] = struct.pack("<d", value)
        bad.write_bytes(bytes(data))
        if kind in ("nan", "inf", "huge"):
            handle = CorpusHandle.open(manifest, "source")
            for v in videos:  # the records are intact
                assert handle.load_video(v.video_id).values.tobytes() == v.values.tobytes()
            assert handle.load_sums(0, 5)[0].shape == (5, 4)  # the other shard
            for args in [(0, 10), (np.array([3, 7]),)]:
                with pytest.raises(FormatError) as got:
                    handle.load_sums(*args)
                what = "is above 2^160 in magnitude" if kind == "huge" else "is not finite"
                assert str(got.value) == (f"shard {bad.name!r}: the stored clip sum of "
                                          f"video 'v00007' {what}")
        else:
            with pytest.raises(FormatError, match=re.escape(repr(bad.name))):
                CorpusHandle.open(manifest, "source")
        with pytest.raises(FormatError, match=re.escape(repr(bad.name))):
            ingest_shard(bytes(data), 4, shard_name=bad.name)

    @pytest.mark.parametrize("field,bad", [
        ("video_id", lambda e: "v0000x"),
        ("video_id", lambda e: e.video_id + "x"),
        ("clip_count", lambda e: e.clip_count % 3 + 1),
        ("offset", lambda e: e.offset + 1),
        ("offset", lambda e: e.offset - 1),
        ("shard", lambda e: "missing.shard"),
    ], ids=["id", "id-length", "count", "offset+1", "offset-1", "shard"])
    def test_row_that_disagrees_with_the_index_fails_as_load_video_does(
            self, rng, tmp_path, field, bad):
        videos, manifest, _ = self._corpus(rng, tmp_path)
        rows = read_manifest(manifest).entries()
        rows[7] = replace(rows[7], **{field: bad(rows[7])})
        handle = CorpusHandle("c", "source", rows, 4, {
            name: store._Shard(name, path=tmp_path / name)
            for name in {e.shard for e in rows} if (tmp_path / name).exists()})
        with pytest.raises(CupidError) as want:
            handle.load_video(rows[7].video_id)
        for args in [(0, 10), (5, 8), (np.array([2, 7, 9]),)]:
            with pytest.raises(CupidError) as got:
                handle.load_sums(*args)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_corrupt_index_ids_fall_back_to_the_records(self, rng, tmp_path, monkeypatch):
        videos, manifest, bad = self._corpus(rng, tmp_path)
        data = bytearray(bad.read_bytes())
        index_at, sums_at, _ = _sum_block(bytes(data))
        data[sums_at - 1] ^= 1  # the last id byte of the index
        bad.write_bytes(bytes(data))
        handle = CorpusHandle.open(manifest, "source")
        sums, counts = handle.load_sums(0, 10)
        tile = handle.load_tile(0, 10)
        assert sums.tobytes() == store._segment_clip_sums(tile.clips, tile.offsets,
                                                          tile.counts).tobytes()
        with pytest.raises(FormatError, match="its index does not match its records"):
            ingest_shard(bytes(data), 4, shard_name=bad.name)

    def test_shard_shrunk_after_open_is_a_format_error_naming_it(self, rng, tmp_path):
        videos, manifest, bad = self._corpus(rng, tmp_path)
        for loaded in (False, True):
            handle = CorpusHandle.open(manifest, "source")
            if loaded:
                handle.load_sums(5, 6)  # a sums read before the cut
            os.truncate(bad, bad.stat().st_size - 20)
            with pytest.raises(FormatError, match=re.escape(repr(bad.name)) + ".*shrank"):
                handle.load_sums(0, 10)
            build_corpus(videos, tmp_path, "c", videos_per_shard=5)

    def test_ingest_rejects_sums_that_differ_from_the_clips(self, rng):
        data = bytearray(write_shard(random_videos(rng, "v", 3, 3, 4)))
        _, sums_at, _ = _sum_block(bytes(data))
        data[sums_at + 8 * 5] ^= 1  # a finite sum, one bit off
        with pytest.raises(FormatError, match="'s': its stored clip sums differ from the "
                                              "sums of its clips"):
            ingest_shard(bytes(data), 4, shard_name="s")

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_sums_match_load_video_under_corruption(self, tmp_path_factory, data):
        """On shards and a manifest written to files and opened, a sums read
        gives _segment_clip_sums of load_video's clips, bit for bit, or
        raises what load_video raises for the first bad row; a byte flipped
        in an index or footer may instead be a FormatError naming its shard,
        at open or on the read, and a non-finite stored sum always is one."""
        videos = random_videos(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                               "v", 7, 3, 3)
        shards = {"a.shard": bytearray(write_shard(videos[:4])),
                  "b.shard": bytearray(write_shard(videos[4:]))}
        entries = [e for name, buf in shards.items()
                   for e in ingest_shard(bytes(buf), 3, shard_name=name)]
        kind = data.draw(st.sampled_from(["none", "shift", "count", "id", "shard", "permute",
                                          "reorder", "v1", "index", "nan"]))
        named = poisoned = None  # the shard a FormatError may name; a non-finite sum's video
        if kind == "permute":
            entries = data.draw(st.permutations(entries))
        elif kind == "reorder":  # one shard's rows, out of index order
            name = data.draw(st.sampled_from(sorted(shards)))
            rows = [i for i, e in enumerate(entries) if e.shard == name]
            order = data.draw(st.permutations(rows).filter(lambda p: p != rows))
            entries = [entries[order[rows.index(i)]] if i in rows else e
                       for i, e in enumerate(entries)]
        elif kind == "v1":
            shards["b.shard"] = bytearray(write_shard_reference(videos[4:], version=1))
        elif kind == "index":
            named = data.draw(st.sampled_from(sorted(shards)))
            buf = shards[named]
            index_at, sums_at, _ = _sum_block(bytes(buf))
            pos = data.draw(st.integers(index_at, sums_at - 1)
                            | st.integers(len(buf) - 16, len(buf) - 1))
            buf[pos] ^= data.draw(st.integers(1, 255))
        elif kind == "nan":
            e = data.draw(st.sampled_from(entries))
            named, poisoned = e.shard, e.video_id
            buf = shards[named]
            _, sums_at, _ = _sum_block(bytes(buf))
            row = [x.video_id for x in entries if x.shard == named].index(e.video_id)
            pos = sums_at + 8 * (3 * row + data.draw(st.integers(0, 2)))
            buf[pos:pos + 8] = struct.pack("<d", data.draw(st.sampled_from(
                [float("nan"), float("inf"), -float("inf")])))
        elif kind != "none":
            i = data.draw(st.integers(0, len(entries) - 1))
            e = entries[i]
            if kind == "shift":
                e = replace(e, offset=e.offset + data.draw(st.sampled_from([-1, 1])))
            elif kind == "count":
                e = replace(e, clip_count=data.draw(
                    (st.sampled_from([-1, 0, 2**32, 2**64]) | st.integers(1, 9))
                    .filter(lambda c: c != e.clip_count)))
            elif kind == "id":
                e = replace(e, video_id=e.video_id + data.draw(
                    st.sampled_from(["x", "\u00e9", "\ud800"])))
            else:
                e = replace(e, shard="missing.shard")
            entries[i] = e
        root = tmp_path_factory.mktemp("c")
        for name, buf in shards.items():
            (root / name).write_bytes(buf)
        write_manifest(entries, root / "c.manifest.jsonl")
        try:
            handle = CorpusHandle.open(root / "c.manifest.jsonl", "source")
        except CupidError as exc:  # a missing shard, or a corrupt index or footer
            if kind == "shard":
                assert type(exc) is NotFoundError and "missing.shard" in str(exc)
            else:
                assert kind == "index" and type(exc) is FormatError and repr(named) in str(exc)
            return
        lo = data.draw(st.integers(0, len(entries)))
        hi = data.draw(st.integers(lo, len(entries)))
        picked = sorted(data.draw(st.sets(st.integers(0, len(entries) - 1))))
        for args, ids in [((lo, hi), [e.video_id for e in entries[lo:hi]]),
                          ((np.array(picked, dtype=np.intp),),
                           [entries[row].video_id for row in picked])]:
            try:
                clips = [handle.load_video(video_id).values for video_id in ids]
            except CupidError as exc:
                with pytest.raises(CupidError) as got:
                    handle.load_sums(*args)
                if not (kind in ("index", "nan") and type(got.value) is FormatError
                        and repr(named) in str(got.value)):
                    assert (type(got.value), str(got.value)) == (type(exc), str(exc))
                continue
            counts = np.array([len(c) for c in clips], dtype=np.intp)
            offsets = np.concatenate([[0], np.cumsum(counts)])
            want = store._segment_clip_sums(
                np.concatenate(clips) if clips else np.empty((0, 3), np.float32),
                offsets, counts)
            try:
                sums, got_counts = handle.load_sums(*args)
            except FormatError as exc:
                assert kind == "index" or poisoned in ids
                assert repr(named) in str(exc)
                continue
            assert poisoned not in ids
            assert sums.tobytes() == want.tobytes()
            assert got_counts.tolist() == counts.tolist()


def _run_bytes(entries, dim, page=4096):
    """Bytes a tile read of these rows takes: runs of records that follow
    each other in one shard with gaps under a page are read as one span."""
    total, run = 0, None
    for e in entries:
        start = e.offset
        stop = start + 2 + len(e.video_id.encode()) + 4 + 4 * dim * e.clip_count
        if run and run[0] == e.shard and 0 <= start - run[2] < page:
            run[2] = stop
        else:
            total += run[2] - run[1] if run else 0
            run = [e.shard, start, stop]
    return total + (run[2] - run[1] if run else 0)


class TestUniformWindows:
    def test_twenty_windows(self):
        windows = make_uniform_windows(100.0, 20)
        assert windows == [(5.0 * k, 5.0 * (k + 1)) for k in range(20)]

    def test_single_window(self):
        assert make_uniform_windows(7.0, 1) == [(0.0, 7.0)]

    def test_thirds_exact_boundaries(self):
        windows = make_uniform_windows(10.0, 3)
        assert windows == [(0.0, 10.0 / 3), (10.0 / 3, 20.0 / 3), (20.0 / 3, 10.0)]

    @pytest.mark.parametrize("duration,n", [(0.0, 5), (-1.0, 5), (10.0, 0), (10.0, -2)])
    def test_bad_arguments(self, duration, n):
        with pytest.raises(ArgumentError):
            make_uniform_windows(duration, n)

    @given(duration=st.floats(min_value=1e-3, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
           n=st.integers(min_value=1, max_value=50))
    @settings(max_examples=200, deadline=None)
    def test_windows_cover_span_without_gaps(self, duration, n):
        windows = make_uniform_windows(duration, n)
        assert len(windows) == n
        assert windows[0][0] == 0.0
        assert windows[-1][1] == duration
        for k, (start, end) in enumerate(windows):
            assert start == k * duration / n
            assert start <= end
        for (_, end), (start, _) in zip(windows, windows[1:]):
            assert end == start


def _subs(*spans):
    return [Subtitle(f"s{i}", float(a), float(b)) for i, (a, b) in enumerate(spans)]


class TestMergeSubtitles:
    def test_seven_by_three(self):
        subs = _subs(*[(i, i + 1) for i in range(7)])
        merged = merge_consecutive_subtitles(subs, 3)
        assert [m.text for m in merged] == ["s0 s1 s2", "s3 s4 s5", "s6"]
        assert [(m.start_s, m.end_s) for m in merged] == [(0, 3), (3, 6), (6, 7)]

    def test_group_one_is_identity(self):
        subs = _subs((0, 1), (1, 2), (5, 9))
        assert merge_consecutive_subtitles(subs, 1) == subs

    def test_six_by_three_spans(self):
        subs = _subs((0, 2), (2, 3), (3, 7), (7, 8), (8, 9), (9, 12))
        merged = merge_consecutive_subtitles(subs, 3)
        assert len(merged) == 2
        assert (merged[0].start_s, merged[0].end_s) == (0, 7)
        assert (merged[1].start_s, merged[1].end_s) == (7, 12)

    def test_unsorted_rejected(self):
        subs = [Subtitle("b", 5.0, 6.0), Subtitle("a", 0.0, 1.0)]
        with pytest.raises(ArgumentError):
            merge_consecutive_subtitles(subs, 2)

    def test_bad_group(self):
        with pytest.raises(ArgumentError):
            merge_consecutive_subtitles([], 0)

    @given(texts=st.lists(st.text(max_size=8), max_size=20),
           group=st.integers(min_value=1, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_text_and_span_preserved(self, texts, group):
        # Non-overlapping consecutive spans, as in a real subtitle stream.
        subs = [Subtitle(t, float(i), float(i + 1)) for i, t in enumerate(texts)]
        merged = merge_consecutive_subtitles(subs, group)
        assert " ".join(m.text for m in merged) == " ".join(texts)
        if subs:
            assert merged[0].start_s == subs[0].start_s
            assert merged[-1].end_s == subs[-1].end_s


def _manifest_line(i: int) -> str:
    return json.dumps({"video_id": f"v{i}", "shard": f"s{i % 3}.shard",
                       "offset": 14 + 40 * i, "clip_count": 1 + i % 8})


# Characters a canonical manifest string may hold: printable ASCII but '"' and '\'.
_CANONICAL_CHARS = st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                 blacklist_characters='"\\')
# Rows write_manifest writes as canonical lines, keys in its order.
_CANONICAL_ROWS = st.tuples(
    st.text(_CANONICAL_CHARS, max_size=6), st.sampled_from(["s0.shard", "s1.shard", ""]),
    st.integers(0, 10**18 - 1), st.integers(0, 9),
).map(lambda row: dict(zip(("video_id", "shard", "offset", "clip_count"), row)))
# Ways to write a canonical row as a line that is not canonical, each
# differing from the canonical line in one way. Some lines are invalid.
_ODD_LINES = {
    "reordered": lambda row: json.dumps(dict(reversed(row.items()))),
    "extra_key": lambda row: json.dumps({**row, "extra": [1, None]}),
    "escaped_quote": lambda row: json.dumps({**row, "video_id": row["video_id"] + '"'}),
    "escaped_backslash": lambda row: json.dumps({**row, "shard": row["shard"] + "\\"}),
    "non_ascii_id": lambda row: json.dumps({**row, "video_id": row["video_id"] + "\u00e9"}),
    "unescaped_id": lambda row: json.dumps({**row, "video_id": "\u2603" + row["video_id"]},
                                           ensure_ascii=False),
    "control_id": lambda row: json.dumps({**row, "video_id": row["video_id"] + "\x7f"}),
    "19_digits": lambda row: json.dumps({**row, "offset": 10**18 + row["offset"]}),
    "20_digits": lambda row: json.dumps({**row, "clip_count": 10**19 + row["clip_count"]}),
    "past_int64": lambda row: json.dumps({**row, "offset": 2**64 + row["offset"]}),
    "compact": lambda row: json.dumps(row, separators=(",", ":")),
    "padded": lambda row: " \t" + json.dumps(row) + "  ",
    "crlf": lambda row: json.dumps(row) + "\r",
    "cr": lambda row: json.dumps(row) + "\r" + json.dumps({**row, "video_id": "cr"}),
    "blank": lambda row: " " * len(row["video_id"]),
    "leading_zero": lambda row: json.dumps(row).replace('"offset": ', '"offset": 0'),
    "float_offset": lambda row: json.dumps({**row, "offset": row["offset"] + 0.5}),
    "bool_count": lambda row: json.dumps({**row, "clip_count": True}),
    "int_id": lambda row: json.dumps({**row, "video_id": 5}),
    "truncated": lambda row: json.dumps(row)[:-1],
}


def _assert_reads_as_per_line_reader(path):
    """read_manifest gives the rows read_manifest_lines gives or raises an
    error naming the line it rejects."""
    try:
        want = read_manifest_lines(path)
    except ValueError as exc:
        want = FormatError(f"{path}:{exc.args[0]}: bad manifest line")
    if isinstance(want, FormatError):
        with pytest.raises(FormatError) as got:
            read_manifest(path)
        assert str(got.value) == str(want)
    else:
        columns = read_manifest(path)
        assert columns.entries() == want
        assert all(type(v) is str for v in columns.ids)
        assert not columns.offsets.flags.writeable


class TestManifestReader:
    def test_matches_per_line_reader(self, tmp_path):
        lines = [_manifest_line(i) for i in range(10_000)]
        lines[7] = json.dumps({"clip_count": 2, "offset": 9, "shard": "\u00e9.shard",
                               "video_id": "\u2603 \\ \"q\"", "extra": [1, {"a": None}]})
        lines[8] = "  " + lines[8] + " \t"
        for pos in (4098, 4097, 4096, 4095, 4094, 2000, 0):
            lines.insert(pos, " " if pos % 2 else "")
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
        got = read_manifest(path).entries()
        assert len(got) == 10_000
        assert got == read_manifest_lines(path)

    @pytest.mark.parametrize("bad", [
        '{"video_id": "v", "shard": "s", "offset": 1}',
        '{"video_id": "v", "shard": "s", "offset": 1, "clip_count": 2',
        '{"video_id": "v", "shard": "s", "offset": "x", "clip_count": 2}',
        '[]',
        'null',
        _manifest_line(1) + "," + _manifest_line(2),
        _manifest_line(1) + " " + _manifest_line(2),
        _manifest_line(1) + "]",
    ])
    def test_bad_line_is_named(self, tmp_path, bad):
        lines = [_manifest_line(i) for i in range(6000)]
        lines[4999] = bad
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":5000:"):
            read_manifest(path)

    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_fast_path_matches_per_line_reader(self, tmp_path_factory, data):
        """Canonical lines mixed with other valid and invalid lines: the
        rows equal the json.loads reader's, or the error names the line it
        rejects."""
        lines = [json.dumps(row) for row in data.draw(st.lists(_CANONICAL_ROWS, max_size=12))]
        # Mostly one odd line among canonical ones.
        for _ in range(data.draw(st.sampled_from([0, 1, 1, 2]))):
            write = data.draw(st.sampled_from(list(_ODD_LINES.values())))
            lines.insert(data.draw(st.integers(0, len(lines))), write(data.draw(_CANONICAL_ROWS)))
        text = "".join(line + "\n" for line in lines)
        if text and data.draw(st.booleans()):
            text = text[:-1]  # no final newline
        path = tmp_path_factory.mktemp("m") / "m.jsonl"
        path.write_bytes(text.encode("utf-8"))
        _assert_reads_as_per_line_reader(path)

    @pytest.mark.parametrize("kind", sorted(_ODD_LINES))
    def test_one_odd_line_among_canonical_ones(self, tmp_path, kind):
        rows = [{"video_id": f"v{i}", "shard": "s.shard", "offset": 14 + i, "clip_count": 1 + i}
                for i in range(3)]
        lines = [json.dumps(row) for row in rows]
        lines[1] = _ODD_LINES[kind](rows[1])
        path = tmp_path / "m.jsonl"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        _assert_reads_as_per_line_reader(path)

    def test_lines_that_parse_only_when_joined_are_rejected(self, tmp_path):
        head = '{"video_id": "a", "shard": "s", "offset": 1, "clip_count": 1'
        lines = [head + ', "x": [{}',
                 '{"video_id": "b", "shard": "s", "offset": 2, "clip_count": 1}]}',
                 _manifest_line(3) + "," + _manifest_line(4)]
        # As one JSON array the three lines hold three entries.
        assert len(json.loads("[" + ",".join(lines) + "]")) == 3
        path = tmp_path / "m.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":1:"):
            read_manifest(path)


# Ids the manifest writer escapes or that are not ASCII, and the empty id; a
# newline in an id makes open decode the index ids one by one (_index_ids).
_ESCAPED_IDS = st.text(st.sampled_from('a"\\\x7fé☃\n'), max_size=3)
# Ways to change a built corpus, its manifest taken as blocks of lines, one
# block per shard.
_MUTATIONS = ["none", "reorder_blocks", "repeat_block", "drop_line", "duplicate_line",
              "swap_lines", "rekey_line", "respace_line", "crlf_line", "blank_line",
              "no_final_newline", "v1_shard", "flip_index_byte", "cut_footer",
              "remove_shard", "other_dim"]
# The mutations after which the manifest's rows are still whole, distinct v2
# shard blocks in index order, so that the handle is bound.
_BOUND = {"none", "reorder_blocks", "rekey_line", "respace_line", "crlf_line", "blank_line",
          "no_final_newline"}
# Ways to change the digest sidecar of a built corpus, or what it records.
_SIDECAR_CASES = ["sidecar_missing", "sidecar_not_json", "sidecar_wrong_types",
                  "sidecar_short", "sidecar_stale_manifest", "sidecar_stale_shard",
                  "sidecar_flipped_id_byte"]
# The sidecar cases that leave the manifest and the shards as they were built.
_SIDECAR_ONLY = {"sidecar_missing", "sidecar_not_json", "sidecar_wrong_types", "sidecar_short"}
# Sidecars of the wrong shape, each from the one build_corpus wrote.
_WRONG_TYPES = [
    lambda sc: [sc],
    lambda sc: dict(sc, manifest_sha256=None),
    lambda sc: dict(sc, shards={}),
    lambda sc: dict(sc, shards=[[shard] for shard in sc["shards"]]),
    lambda sc: {k: v for k, v in sc.items() if k != "shards"},
    lambda sc: dict(sc, shards=[dict(shard, rows=str(shard["rows"])) for shard in sc["shards"]]),
    lambda sc: dict(sc, shards=[dict(shard, rows=True) for shard in sc["shards"]]),
    lambda sc: dict(sc, shards=[dict(shard, name=[shard["name"]]) for shard in sc["shards"]]),
    lambda sc: dict(sc, shards=[dict(shard, index_sha256=1) for shard in sc["shards"]]),
    lambda sc: dict(sc, shards=sc["shards"] + sc["shards"][:1]),
]


def _open_outcome(path):
    """(entries, dim, bound) of the corpus at path, or the type and message
    of the error opening it raises."""
    try:
        handle = CorpusHandle.open(path, "source")
    except CupidError as exc:
        return type(exc), str(exc)
    return handle.columns.entries(), handle.dim, handle._sum_origins is not None


def _mutate_sidecar(data, directory, videos, per_shard, case):
    """Change the digest sidecar of the corpus build_corpus wrote to
    directory from videos, or what it records, as case says."""
    sidecar_path = directory / "c.manifest.jsonl.digests.json"
    manifest = directory / "c.manifest.jsonl"
    k = data.draw(st.integers(0, len(videos) // per_shard - 1))
    shard = directory / f"c-{k:05d}.shard"
    if case == "sidecar_missing":
        sidecar_path.unlink()
    elif case == "sidecar_not_json":
        text = sidecar_path.read_bytes()
        sidecar_path.write_bytes(data.draw(st.sampled_from(
            [b"", b"{", b"\xff\xfe", text[:len(text) // 2], text + b"x", b"[" * 100000])))
    elif case == "sidecar_wrong_types":
        wrong = data.draw(st.sampled_from(_WRONG_TYPES))
        sidecar_path.write_text(json.dumps(wrong(json.loads(sidecar_path.read_text()))))
    elif case == "sidecar_short":
        # well formed, but blind to a shard's rows, or to all of them
        sidecar = json.loads(sidecar_path.read_text())
        del sidecar["shards"][data.draw(st.integers(0, len(sidecar["shards"]) - 1)):]
        sidecar_path.write_text(json.dumps(sidecar))
    elif case == "sidecar_stale_manifest":
        lines = manifest.read_bytes().splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 2))
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
        manifest.write_bytes(b"".join(lines))
    elif case == "sidecar_stale_shard":
        # the same row count and clips, other ids: the manifest still names the old ones
        batch = videos[k * per_shard:(k + 1) * per_shard]
        other = [ClipMatrix(f"other{i}{v.video_id}", v.values) for i, v in enumerate(batch)]
        build_corpus(other, directory / "other", "c", videos_per_shard=per_shard)
        shard.write_bytes((directory / "other" / "c-00000.shard").read_bytes())
    elif case == "sidecar_flipped_id_byte":
        raw = bytearray(shard.read_bytes())
        index_at, sums_at = struct.unpack("<QQ", raw[-16:])
        ids_at = index_at + 14 * per_shard
        if ids_at < sums_at:  # else every id is empty: flip a clip count's top byte
            raw[data.draw(st.integers(ids_at, sums_at - 1))] ^= 0x01
        else:
            raw[index_at + 8 * per_shard + 3] ^= 0x80
        shard.write_bytes(raw)


def _mutate_corpus(data, directory, videos, per_shard, mutation):
    """Apply mutation to the corpus build_corpus wrote to directory from
    videos; returns the manifest's blocks of lines as bytes, mutated."""
    lines = (directory / "c.manifest.jsonl").read_bytes().splitlines(keepends=True)
    blocks = [lines[i:i + per_shard] for i in range(0, len(lines), per_shard)]
    k = data.draw(st.integers(0, len(blocks) - 1))
    shard = directory / f"c-{k:05d}.shard"
    block = blocks[k]
    i = data.draw(st.integers(0, len(block) - 1))
    row = json.loads(block[i])
    if mutation == "reorder_blocks":
        blocks = data.draw(st.permutations(blocks))
    elif mutation == "repeat_block":
        blocks.insert(data.draw(st.integers(0, len(blocks))), block)
    elif mutation == "drop_line":
        del block[i]
    elif mutation == "duplicate_line":
        block.insert(data.draw(st.integers(0, len(block))), block[i])
    elif mutation == "swap_lines":
        j = (i + 1) % len(block)
        block[i], block[j] = block[j], block[i]
    elif mutation == "rekey_line":
        block[i] = (json.dumps(dict(reversed(row.items()))) + "\n").encode()
    elif mutation == "respace_line":
        block[i] = (json.dumps(row, separators=(",", ":")) + "\n").encode()
    elif mutation == "crlf_line":
        block[i] = block[i][:-1] + b"\r\n"
    elif mutation == "blank_line":
        block.insert(data.draw(st.integers(0, len(block))), b"\n")
    elif mutation == "no_final_newline":
        blocks[-1][-1] = blocks[-1][-1][:-1]
    elif mutation == "v1_shard":
        build_corpus_reference(videos, directory / "v1", "c", videos_per_shard=per_shard,
                               version=1)
        shard.write_bytes((directory / "v1" / shard.name).read_bytes())
    elif mutation == "flip_index_byte":
        raw = bytearray(shard.read_bytes())
        index_at, sums_at = struct.unpack("<QQ", raw[-16:])
        raw[data.draw(st.integers(index_at, sums_at - 1))] ^= data.draw(st.integers(1, 255))
        shard.write_bytes(raw)
    elif mutation == "cut_footer":
        raw = shard.read_bytes()
        shard.write_bytes(raw[:-data.draw(st.integers(1, 16))])
    elif mutation == "remove_shard":
        shard.unlink()
    elif mutation == "other_dim":
        wider = [ClipMatrix(v.video_id, np.repeat(v.values, 2, axis=1)) for v in videos]
        build_corpus(wider, directory / "wide", "c", videos_per_shard=per_shard)
        shard.write_bytes((directory / "wide" / shard.name).read_bytes())
        wide_lines = (directory / "wide" / "c.manifest.jsonl").read_bytes().splitlines(True)
        block[:] = wide_lines[k * per_shard:(k + 1) * per_shard]
    return blocks


class TestIndexedManifest:
    """CorpusHandle.open takes a manifest's columns from its shards' indexes
    when the digest sidecar vouches for them, and otherwise reads it with
    the scanner, with the same outcome."""

    def test_built_manifest_opens_through_the_index(self, rng, tmp_path, monkeypatch):
        videos = random_videos(rng, "vé\"", 3000, 3, 2)
        build_corpus(videos, tmp_path, "c", videos_per_shard=700)
        path = tmp_path / "c.manifest.jsonl"
        scans = []
        scan = store._scan_json
        monkeypatch.setattr(store, "_scan_json", lambda *a: scans.append(1) or scan(*a))
        handle = CorpusHandle.open(path, "source")
        assert scans == []  # no manifest line parsed
        assert handle.manifest == read_manifest_lines(path)
        assert handle.manifest_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
        assert handle.columns.shards == [f"c-{k:05d}.shard" for k in range(5)]
        assert not handle.columns.offsets.flags.writeable
        # Open read each shard's header, footer and index, once, and bound
        # the rows to the index; it read no record and no sum.
        footers = [struct.unpack("<QQ", (tmp_path / name).read_bytes()[-16:])
                   for name in handle.columns.shards]
        assert handle.bytes_read == sum(14 + 16 + sums_at - index_at
                                        for index_at, sums_at in footers)
        # row r of shard k (rows 700k on) has its sum at sums_at + (r - 700k) * 2 * 8
        assert handle._sum_origins == [sums_at - 700 * k * 16
                                       for k, (_, sums_at) in enumerate(footers)]

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_digest_path_matches_read_manifest(self, tmp_path_factory, data):
        """On ingested corpora, whole or with the manifest, a shard or the
        digest sidecar changed in one way, open gives the columns, the
        binding or the error it gives with the digest path turned off, and
        takes the digest path exactly when manifest and shards are as
        build_corpus wrote them."""
        n_shards = data.draw(st.integers(2, 4))
        per_shard = data.draw(st.integers(2, 4))
        ids = data.draw(st.lists(_ESCAPED_IDS, unique=True, min_size=n_shards * per_shard,
                                 max_size=n_shards * per_shard))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        videos = [ClipMatrix(vid, rng.normal(size=(int(rng.integers(1, 4)), 2)))
                  for vid in ids]
        directory = tmp_path_factory.mktemp("c")
        build_corpus(videos, directory, "c", videos_per_shard=per_shard)
        path = directory / "c.manifest.jsonl"
        built = corpus_files(directory)
        case = data.draw(st.sampled_from(_MUTATIONS + _SIDECAR_CASES))
        if case in _MUTATIONS:
            blocks = _mutate_corpus(data, directory, videos, per_shard, case)
            path.write_bytes(b"".join(b"".join(block) for block in blocks))
        else:
            _mutate_sidecar(data, directory, videos, per_shard, case)

        recorded, scans = [], []
        with pytest.MonkeyPatch.context() as mp:
            find, scan = store._recorded_columns, store._scan_json
            mp.setattr(store, "_recorded_columns",
                       lambda *a: recorded.append(find(*a)) or recorded[-1])
            mp.setattr(store, "_scan_json", lambda *a: scans.append(1) or scan(*a))
            got = _open_outcome(path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(store, "_recorded_columns", lambda *a: None)
            want = _open_outcome(path)
        assert got == want
        intact = all(corpus_files(directory).get(name) == data
                     for name, data in built.items())
        assert (recorded[0] is not None) == intact
        assert (scans == []) == intact
        if len(want) == 3:  # opened
            assert want[2] == (case in _BOUND or case in _SIDECAR_ONLY)


class TestJsonlFiles:
    def test_manifest_round_trip(self, tmp_path):
        entries = [ManifestEntry("a", "x.shard", 14, 3),
                   ManifestEntry("b", "x.shard", 99, 1)]
        path = tmp_path / "m.jsonl"
        write_manifest(entries, path)
        assert read_manifest(path).entries() == entries

    def test_metadata_round_trip(self, tmp_path):
        metas = [VideoMeta("a", "Food and Entertaining", "How to cook", "human", 61.5),
                 VideoMeta("b", "Sports and Fitness", "drill", "asr", 12.0)]
        path = tmp_path / "meta.jsonl"
        write_metadata(metas, path)
        assert read_metadata(path) == metas

    def test_metadata_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "meta.jsonl"
        row = {"video_id": "a", "category": "c", "title": "t",
               "subtitle_source": "asr", "duration_s": 1.0}
        path.write_text(json.dumps(row) + "\n" + json.dumps(row) + "\n")
        with pytest.raises(DataError):
            read_metadata(path)

    def test_metadata_bad_subtitle_source(self):
        with pytest.raises(DataError):
            VideoMeta("a", "c", "t", "robot", 1.0)

    def test_subtitles_round_trip_sorted(self, tmp_path):
        groups = {"v1": [Subtitle("late", 5.0, 6.0), Subtitle("early", 0.0, 1.0)]}
        path = tmp_path / "subs.jsonl"
        write_subtitles(groups, path)
        loaded = read_subtitles(path)
        assert [s.text for s in loaded["v1"]] == ["early", "late"]

    def test_negative_span_rejected(self):
        with pytest.raises(DataError):
            Subtitle("x", 2.0, 1.0)


def _metadata_row(i):
    return {"video_id": f"v{i}", "category": "c", "title": "t",
            "subtitle_source": "asr", "duration_s": 1.0}


def _subtitle_row(i):
    return {"video_id": "v", "start_s": float(i), "end_s": i + 1.0, "text": "x"}


def _curation_row(i):
    return {"rank": i, "video_id": f"v{i}", "score": 0.5, "strategy": "avg_sim"}


def _schedule_row(i):
    return {"stage": i, "manifest_path": f"stage{i}.jsonl", "steps": 10}


def _column_mean_row(i):
    return {"source_id": f"v{i}", "avg_sim": 0.5}


# reader, row maker, the name its errors use, and the fields that must be strings
_LINE_READERS = [
    (read_metadata, _metadata_row, "metadata",
     ["video_id", "category", "title", "subtitle_source"]),
    (read_subtitles, _subtitle_row, "subtitle", ["video_id", "text"]),
    (read_curation_manifest, _curation_row, "manifest", ["video_id", "strategy"]),
    (read_schedule, _schedule_row, "schedule", ["manifest_path"]),
    (read_column_means, _column_mean_row, "column-mean", ["source_id"]),
]
_STRING_FIELD_CASES = [(reader, row, what, field)
                       for reader, row, what, fields in _LINE_READERS for field in fields]

_NAN, _INF, _HUGE = float("nan"), float("inf"), 10 ** 400  # _HUGE overflows a float
# reader, row maker, the name its errors use, a numeric field and its bad values
_NUMBER_FIELD_CASES = [
    (read_metadata, _metadata_row, "metadata", "duration_s",
     ["10", True, None, _NAN, _INF, _HUGE]),
    (read_subtitles, _subtitle_row, "subtitle", "start_s", ["1", True, None, _NAN, -_INF]),
    (read_subtitles, _subtitle_row, "subtitle", "end_s", ["1", True, None, _NAN, _INF]),
    (read_curation_manifest, _curation_row, "manifest", "rank", [1.9, 2.0, "1", True, None]),
    (read_curation_manifest, _curation_row, "manifest", "score",
     ["high", True, [0.5], _NAN, _INF, -_INF]),
    (read_schedule, _schedule_row, "schedule", "stage", [2.0, "2", True, None]),
    (read_schedule, _schedule_row, "schedule", "steps", [7.5, "7", False, None]),
    (read_column_means, _column_mean_row, "column-mean", "avg_sim", ["0.5", True, None, _HUGE]),
]
_BAD_NUMBERS = [(reader, row, what, field, bad)
                for reader, row, what, field, bads in _NUMBER_FIELD_CASES for bad in bads]


class TestLineReaders:
    """Every JSON-lines reader: blank lines skipped, a non-UTF-8 file or a
    bad line is a FormatError naming the file or path:line."""

    @pytest.mark.parametrize("reader,row,what,fields", _LINE_READERS,
                             ids=[what for _, _, what, _ in _LINE_READERS])
    def test_blank_lines_skipped(self, tmp_path, reader, row, what, fields):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(json.dumps(row(1)) + "\n" + json.dumps(row(2)) + "\n")
        b.write_text("\n  \n" + json.dumps(row(1)) + "\n\n" + json.dumps(row(2)) + "\n\n")
        assert repr(reader(b)) == repr(reader(a))

    @pytest.mark.parametrize("reader,row,what,fields", _LINE_READERS,
                             ids=[what for _, _, what, _ in _LINE_READERS])
    def test_file_that_is_not_utf8(self, tmp_path, reader, row, what, fields):
        path = tmp_path / "bad.jsonl"
        line = json.dumps(row(2)).replace(fields[0] + '": "', fields[0] + '": "\udcff', 1)
        path.write_bytes((json.dumps(row(1)) + "\n" + line + "\n")
                         .encode("utf-8", "surrogateescape"))
        with pytest.raises(FormatError) as got:
            reader(path)
        assert str(got.value) == f"{path}: {what} file is not valid UTF-8"

    @pytest.mark.parametrize("reader,row,what,field", _STRING_FIELD_CASES,
                             ids=[f"{what}-{field}" for _, _, what, field in _STRING_FIELD_CASES])
    @pytest.mark.parametrize("bad", [5, None, ["x"]], ids=["int", "null", "list"])
    def test_string_field_that_is_not_a_string(self, tmp_path, reader, row, what, field,
                                               bad):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row(1)) + "\n" + json.dumps(dict(row(2), **{field: bad}))
                        + "\n")
        with pytest.raises(FormatError) as got:
            reader(path)
        assert str(got.value) == f"{path}:2: bad {what} line"

    @pytest.mark.parametrize("reader,row,what,field,bad", _BAD_NUMBERS,
                             ids=[f"{what}-{field}-{bad!r:.12}"
                                  for _, _, what, field, bad in _BAD_NUMBERS])
    def test_numeric_field_of_the_wrong_type(self, tmp_path, reader, row, what, field, bad):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(row(1)) + "\n" + json.dumps(dict(row(2), **{field: bad}))
                        + "\n")
        with pytest.raises(FormatError) as got:
            reader(path)
        assert str(got.value) == f"{path}:2: bad {what} line"

    def test_numeric_fields_take_json_numbers(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        path.write_text(json.dumps(dict(_metadata_row(1), duration_s=10)) + "\n")
        assert read_metadata(path)[0].duration_s == 10.0
        path.write_text(json.dumps(dict(_subtitle_row(1), start_s=1, end_s=2)) + "\n")
        assert [(s.start_s, s.end_s) for s in read_subtitles(path)["v"]] == [(1.0, 2.0)]
        path.write_text(json.dumps(dict(_curation_row(1), score=None)) + "\n"
                        + json.dumps(dict(_curation_row(2), score=-1)) + "\n")
        assert [e.score for e in read_curation_manifest(path).entries] == [None, -1.0]
        path.write_text(json.dumps(dict(_column_mean_row(1), avg_sim=_NAN)) + "\n")
        assert np.isnan(read_column_means(path)[1][0])

    @pytest.mark.parametrize("text", ["{", "[1, 2]", '{"video_id": "a"} x', "nope"])
    def test_line_that_is_not_one_object(self, tmp_path, text):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(_metadata_row(1)) + "\n" + text + "\n")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: bad metadata line$"):
            read_metadata(path)


# Ids the JSON writer escapes or that are not ASCII, among plain ones.
_IDS = st.text(st.one_of(st.sampled_from('a"\\\t\x00\x1f\x7f %{}é'),
                         st.characters(blacklist_categories=("Cs",))), max_size=5)
# Corpus ids that make shard names the canonical manifest lines cannot hold.
_CORPUS_IDS = ["c", "cé", 'c"q', "c\\d", "c\x7f", "c d", "c%d"]

_GOLDEN_IDS = ["g00", "g01", 'q"uote', "back\\slash", "café", "del\x7f", "tab\t",
               "", "☃ snow", "g09", "g10"]
# SHA-256 of every file build_corpus(_golden_videos(), d, "gold", videos_per_shard=4)
# writes; the bytes are the format's, so they must not change with numpy's version.
# The digest sidecar came with the manifest and shard digests it records unchanged.
_GOLDEN_SHA256 = {
    "gold-00000.shard": "37fb2ba8ebbac6814b44e719cef1637cbe534967f7280e32cb9fec19a8128d8e",
    "gold-00001.shard": "b03296b4b78ec6a4dd962e392423c24fb4f8186a260a2842c5698a1ee78374cf",
    "gold-00002.shard": "414cfc7453a12e5ae49bd38059088b81f34c111054b5eb0620dcdbdd48dcb0d6",
    "gold.manifest.jsonl": "13e3bde341dd30f246f145e116d22148eac60d3961e3467c64ab0798e21dc3d6",
    "gold.manifest.jsonl.digests.json":
        "dc7759159102054ff65cddb2c96550ddcf6b5ab5196ecaebb03763e5e8878468",
}
# The same corpus in version 1 shards, as build_corpus wrote it before the
# index and the sums block: the same manifest, since the records did not move.
_GOLDEN_V1_SHA256 = {
    "gold-00000.shard": "059322bff75d97a3ea3bad2cd9210b8a99905b76b229b12511325c1af4982cc7",
    "gold-00001.shard": "1352f7b728fffaeb65d9e3497e27e54620026f25cf041960be4e8b84d58a9921",
    "gold-00002.shard": "933080a2aef80eaaa451b0387bcf43e550cb9c96108e964fdfe64d212665e0b2",
    "gold.manifest.jsonl": "13e3bde341dd30f246f145e116d22148eac60d3961e3467c64ab0798e21dc3d6",
}


def _golden_videos(dim=5):
    """A fixed corpus made by integer arithmetic alone, so that no random
    generator's stream decides its bytes; every value is exact in float32."""
    videos = []
    for i, video_id in enumerate(_GOLDEN_IDS):
        k = np.arange((1 + i % 3) * dim) * 7919 + i * 104729
        videos.append(ClipMatrix(video_id, ((k % 2003 - 1001) / 64).reshape(-1, dim)))
    return videos


def _build_error(build, videos, tmp_path, **kwargs):
    """The error build(videos, ...) raises into a fresh directory."""
    with pytest.raises(CupidError) as caught:
        build(videos, tmp_path / build.__name__, "c", **kwargs)
    return caught.value


class TestBuildCorpus:
    def test_golden_bytes(self, tmp_path):
        build_corpus(_golden_videos(), tmp_path, "gold", videos_per_shard=4)
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in corpus_files(tmp_path).items()} == _GOLDEN_SHA256

    def test_golden_v1_corpus_reads_as_before(self, tmp_path):
        """The golden corpus in version 1 shards, the bytes build_corpus
        wrote before the sums block, opens and gives the avg-sim curation
        bytes of its version 2 copy, under both poolings."""
        videos = _golden_videos()
        build_corpus_reference(videos, tmp_path / "v1", "gold", videos_per_shard=4, version=1)
        assert {name: hashlib.sha256(data).hexdigest()
                for name, data in corpus_files(tmp_path / "v1").items()} == _GOLDEN_V1_SHA256
        build_corpus(videos, tmp_path / "v2", "gold", videos_per_shard=4)
        target = CorpusHandle.from_arrays("t", "target", videos[::3])
        curated = {}
        for version in ("v1", "v2"):
            source = CorpusHandle.open(tmp_path / version / "gold.manifest.jsonl", "source")
            for pooling in PoolingMode:
                for top in (4, None):
                    path = tmp_path / f"{version}-{pooling.value}-{top}.jsonl"
                    write_curation_manifest(curate_avg_sim(*stream_column_means(
                        target, source, pooling, top=top), 4), path)
                    curated.setdefault(version, []).append(path.read_bytes())
        assert curated["v1"] == curated["v2"]

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_byte_for_byte(self, tmp_path_factory, data):
        ids = data.draw(st.lists(_IDS, unique=True, max_size=9))
        dim = data.draw(st.integers(1, 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        videos = [ClipMatrix(vid, rng.normal(size=(int(rng.integers(1, 4)), dim)))
                  for vid in ids]
        n = len(videos)
        per_shard = data.draw(st.sampled_from(
            [1, n + 1] + [k for k in range(2, n + 1) if n % k == 0]))
        corpus_id = data.draw(st.sampled_from(_CORPUS_IDS))
        new, ref = (tmp_path_factory.mktemp("new"), tmp_path_factory.mktemp("ref"))
        handle = build_corpus(videos, new, corpus_id, videos_per_shard=per_shard)
        build_corpus_reference(videos, ref, corpus_id, videos_per_shard=per_shard)
        assert corpus_files(new) == corpus_files(ref)
        assert handle.video_ids() == ids
        assert len(handle.columns.shards) == -(-n // per_shard)

    @pytest.mark.parametrize("case", ["mixed_dims", "mixed_dims_across_shards",
                                      "duplicate", "duplicate_across_shards",
                                      "nan_after_construction"])
    def test_errors_match_reference(self, tmp_path, case):
        videos = [ClipMatrix(f"v{i}", np.full((2, 3), i, dtype=np.float32))
                  for i in range(5)]
        if case.startswith("mixed_dims"):
            videos[3] = ClipMatrix("v3", np.ones((1, 4), dtype=np.float32))
        elif case.startswith("duplicate"):
            videos[3] = videos[1]
        else:
            videos[3].values[1, 2] = np.nan
            videos[4].values[0, 0] = np.inf
        per_shard = 2 if case.endswith("across_shards") else 5
        got = _build_error(build_corpus, videos, tmp_path, videos_per_shard=per_shard)
        want = _build_error(build_corpus_reference, videos, tmp_path,
                            videos_per_shard=per_shard)
        assert (type(got), str(got)) == (type(want), str(want))
        if case == "duplicate_across_shards":
            assert str(got) == "corpus 'c': duplicate video id 'v1' in manifest"

    def test_too_long_id_names_the_video(self, tmp_path):
        videos = [ClipMatrix("ok", np.ones((1, 2))), ClipMatrix("x" * 70000, np.ones((1, 2)))]
        got = _build_error(build_corpus, videos, tmp_path)
        want = _build_error(build_corpus_reference, videos, tmp_path)
        assert type(got) is type(want) is DataError
        assert str(want) == "video id too long (70000 bytes)"
        assert str(got) == f"video id {'x' * 40!r}... too long (70000 bytes)"
        with pytest.raises(DataError, match=re.escape(str(got))):
            write_shard(videos)

    def test_id_that_is_not_utf8_names_the_video(self, tmp_path):
        videos = [ClipMatrix("a\udcff", np.ones((1, 2)))]
        message = re.escape("video id 'a\\udcff' is not valid UTF-8")
        for build in (lambda: build_corpus(videos, tmp_path, "c"), lambda: write_shard(videos),
                      lambda: CorpusHandle.from_arrays("c", "source", videos)):
            with pytest.raises(DataError, match=message):
                build()

    def test_checks_run_in_write_shard_order(self):
        # dims and duplicates of the whole shard first, then ids one by one
        videos = [ClipMatrix("\udcff", np.ones((1, 2))), ClipMatrix("b", np.ones((1, 2))),
                  ClipMatrix("c", np.ones((1, 3)))]
        with pytest.raises(SchemaError, match="'c' has dim 3"):
            write_shard(videos)
        with pytest.raises(DataError, match="duplicate video_id 'b'"):
            write_shard(videos[:2] + [videos[1]])
        with pytest.raises(DataError, match="too long"):
            write_shard([ClipMatrix("x" * 70000, np.ones((1, 2)))] + videos[:1])

    def test_write_shard_does_not_check_values(self):
        video = ClipMatrix("v", np.ones((1, 2)))
        video.values[0, 1] = np.nan
        data = write_shard([video])
        assert data == write_shard_reference([video])
        with pytest.raises(DataError, match="'v' contains non-finite values"):
            ingest_shard(data, 2)

    def test_from_arrays_matches_reference(self, rng):
        videos = random_videos(rng, "vé", 20, 4, 3)
        handle = CorpusHandle.from_arrays("c", "target", videos)
        data = write_shard_reference(videos)
        assert handle.manifest == ingest_shard(data, 3, shard_name=":memory:")
        assert bytes(handle._shards[0].read(0, len(data) + 1)) == data
        assert [v.values.tobytes() for v in load_videos(handle)] == \
            [v.values.tobytes() for v in videos]
        videos[7].values[0, 0] = np.nan
        with pytest.raises(DataError, match="'vé00007' contains non-finite values"):
            CorpusHandle.from_arrays("c", "target", videos)

    def test_empty_corpus(self, tmp_path):
        handle = build_corpus([], tmp_path / "new", "c")
        build_corpus_reference([], tmp_path / "ref", "c")
        assert corpus_files(tmp_path / "new") == corpus_files(tmp_path / "ref") == {
            "c.manifest.jsonl": b"",
            "c.manifest.jsonl.digests.json": b'{\n  "manifest_sha256": '
            b'"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",\n'
            b'  "shards": []\n}\n'}
        assert handle.video_count == 0
        assert CorpusHandle.from_arrays("c", "source", []).video_count == 0

    def test_each_shard_is_logged(self, rng, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="cupid"):
            build_corpus(random_videos(rng, "v", 5, 2, 4), tmp_path, "c", videos_per_shard=2)
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            f"wrote shard c-0000{i}.shard" for i in range(3)]

    @given(rows=st.lists(st.tuples(_IDS, st.sampled_from(["s.shard", "sé", 's"']),
                                   st.integers(0, 2**63), st.integers(1, 9))))
    @settings(max_examples=200, deadline=None)
    def test_write_manifest_writes_json_dumps_lines(self, rows):
        # The lines build_corpus writes, encoded as ASCII, are the json.dumps
        # lines of the rows, which read_manifest and other JSON readers parse.
        lines = [line for shard, group in groupby(rows, itemgetter(1)) for line in
                 store._manifest_lines(shard, [(vid, offset, count)
                                               for vid, _, offset, count in group])]
        assert "".join(lines).encode("ascii") == "".join(
            json.dumps(dict(zip(("video_id", "shard", "offset", "clip_count"), row))) + "\n"
            for row in rows).encode("utf-8")
