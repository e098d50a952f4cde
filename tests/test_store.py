"""Shard format, corpus access, and clip-boundary utilities."""
import gc
import json
import os
import re
import struct
import warnings
from dataclasses import replace
from itertools import zip_longest

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
from cupid.store import (
    ManifestEntry,
    read_manifest,
    read_metadata,
    read_subtitles,
    write_manifest,
    write_metadata,
    write_subtitles,
)

from cupid.curation import read_curation_manifest, read_schedule
from cupid.similarity import read_column_means

from helpers import random_videos, read_manifest_lines


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
        data = write_shard([video])
        record = data[14:]
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
        # run past the end of the shard.
        data = write_shard(random_videos(rng, "v", 3, 3, 4))[:-4]
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
        os.truncate(last, last.stat().st_size - 5)
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
        what load_video raises for the first bad row."""
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
        if kind == "flip":  # a byte of a record, header or values
            shard = bytearray(path.read_bytes())
            shard[data.draw(st.integers(14, len(shard) - 1))] ^= data.draw(st.integers(1, 255))
            path.write_bytes(shard)
        elif kind == "nan":
            with open(path, "r+b") as f:
                f.seek(e.offset + 2 + len(e.video_id) + 4
                       + 4 * data.draw(st.integers(0, 64 * e.clip_count - 1)))
                f.write(struct.pack("<f", float("nan")))
        handle = CorpusHandle.open(manifest, "source")
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
        with pytest.raises(DataError):
            CorpusHandle("c", "source", entries + entries, 2, {"": data})

    def test_bad_role_rejected(self):
        with pytest.raises(ArgumentError):
            CorpusHandle("c", "sideways", [], 2, {})


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


def _assert_reads_as_per_line_reader(path, chunk_bytes):
    """read_manifest, in chunks of about chunk_bytes, gives the rows
    read_manifest_lines gives or raises an error naming the line it rejects."""
    try:
        want = read_manifest_lines(path)
    except ValueError as exc:
        want = FormatError(f"{path}:{exc.args[0]}: bad manifest line")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(store, "_CHUNK_BYTES", chunk_bytes)
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

    def test_canonical_manifest_is_read_without_the_scanner(self, tmp_path, monkeypatch):
        entries = [ManifestEntry(f"v{i}", f"s{i % 3}.shard", 14 + 40 * i, 1 + i % 8)
                   for i in range(3000)]
        path = tmp_path / "m.jsonl"
        write_manifest(entries, path)
        monkeypatch.setattr(store, "_scan_json", None)
        assert read_manifest(path).entries() == entries

    @given(data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_fast_path_matches_per_line_reader(self, tmp_path_factory, data):
        """Canonical lines mixed with other valid and invalid lines, on both
        sides of chunk boundaries: the rows equal the json.loads reader's,
        or the error names the line it rejects."""
        lines = [json.dumps(row) for row in data.draw(st.lists(_CANONICAL_ROWS, max_size=12))]
        # Mostly one odd line, so that nothing else sends the file line by line.
        for _ in range(data.draw(st.sampled_from([0, 1, 1, 2]))):
            write = data.draw(st.sampled_from(list(_ODD_LINES.values())))
            lines.insert(data.draw(st.integers(0, len(lines))), write(data.draw(_CANONICAL_ROWS)))
        text = "".join(line + "\n" for line in lines)
        if text and data.draw(st.booleans()):
            text = text[:-1]  # no final newline
        path = tmp_path_factory.mktemp("m") / "m.jsonl"
        path.write_bytes(text.encode("utf-8"))
        _assert_reads_as_per_line_reader(path, data.draw(st.integers(1, 400)))

    @pytest.mark.parametrize("kind", sorted(_ODD_LINES))
    def test_one_odd_line_among_canonical_ones(self, tmp_path, kind):
        rows = [{"video_id": f"v{i}", "shard": "s.shard", "offset": 14 + i, "clip_count": 1 + i}
                for i in range(3)]
        lines = [json.dumps(row) for row in rows]
        lines[1] = _ODD_LINES[kind](rows[1])
        path = tmp_path / "m.jsonl"
        path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        _assert_reads_as_per_line_reader(path, 100)

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
