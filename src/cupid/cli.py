"""Command-line front end.

Subcommands: ingest, similarity, curate, schedule, probe, nce-check, stats.
Outputs are published atomically (write to temp, rename), and every run
writes a ``<out>.run.json`` report with input content hashes, the effective
configuration, timings, and a result summary. Re-running a command with
identical inputs and seed reproduces the primary artifacts byte for byte;
only the run report's timing fields vary.

Options may also come from a JSON file via --config; explicit flags win.
The CUPID_LOG environment variable sets the log level (DEBUG, INFO, ...).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import tempfile
import time
import zipfile
import zlib
from pathlib import Path

import numpy as np

from . import __version__, curation, kernels, nce, probe, similarity, store
from .errors import ArgumentError, CupidError, FormatError, UsageError

log = logging.getLogger("cupid")

_USAGE_EXIT = 2
_FAILURE_EXIT = 1
# The status the interpreter exits with when a standard stream fails to flush.
_FLUSH_FAILED_EXIT = 120


def _configure_logging() -> None:
    level = os.environ.get("CUPID_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def _error_line(category: str, message: str) -> None:
    print(json.dumps({"error": category, "message": message}), file=sys.stderr)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _hash_inputs(paths, known: dict[str, str]) -> dict[str, str]:
    """The SHA-256 of each input file (every file under a directory),
    taken from known where a command has already hashed the file."""
    hashes = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for child in sorted(p.rglob("*")):
                if child.is_file():
                    hashes[str(child)] = _sha256(child)
        elif str(p) in known:
            hashes[str(p)] = known[str(p)]
        elif p.is_file():
            hashes[str(p)] = _sha256(p)
    return hashes


def _require_exists(path, what: str) -> Path:
    if path is None:
        raise UsageError(f"missing required {what}")
    p = Path(path)
    if not p.exists():
        raise UsageError(f"{what} {p} does not exist")
    return p


def _read_json(path: Path, flag: str):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"{flag} {path}: invalid JSON ({exc})") from None


class _Publisher:
    """Collects finished files in a staging dir, renames them on publish.

    As a context manager it publishes when its block ends and deletes the
    staged files when the block raises. Secondary files (sidecars, stage
    manifests) are renamed before the primary, so a visible primary always
    implies a complete artifact set.
    """

    def __init__(self, out_dir: Path):
        if not Path(out_dir).is_dir():
            raise UsageError(f"output directory {out_dir} does not exist")
        self._staging = tempfile.TemporaryDirectory(dir=out_dir, prefix=".cupid-stage-")
        self.dir = Path(self._staging.name)
        self._moves: list[tuple[Path, Path]] = []
        self.published: list[Path] = []

    def stage(self, name: str, final_path: Path) -> Path:
        tmp = self.dir / name
        self._moves.append((tmp, final_path))
        return tmp

    def __enter__(self) -> "_Publisher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            for tmp, final in self._moves:
                os.replace(tmp, final)
                self.published.append(final)
        self._staging.cleanup()


def _publish_single(out: Path, write_fn) -> list[Path]:
    """Write one file through a staging dir and atomically move it to out."""
    with _Publisher(out.parent) as publisher:
        write_fn(publisher.stage(out.name, out))
    return publisher.published


def _tile_config(args) -> similarity.TileConfig:
    kwargs = {key: getattr(args, key, None)
              for key in ("tile_cols", "threads", "max_dense_bytes")}
    return similarity.TileConfig(**{k: v for k, v in kwargs.items() if v is not None})


def _open_corpus(args, path: Path, role: str) -> store.CorpusHandle:
    """Open the corpus at path; the run report cites the manifest digest
    open took."""
    handle = store.CorpusHandle.open(path, role)
    args._digests[str(path)] = handle.manifest_sha256
    return handle


def _open_corpora(args) -> tuple[store.CorpusHandle, store.CorpusHandle]:
    target_path = _require_exists(args.target_manifest, "--target-manifest")
    source_path = _require_exists(args.source_manifest, "--source-manifest")
    return _open_corpus(args, target_path, "target"), _open_corpus(args, source_path, "source")


def _bytes_read(*handles: store.CorpusHandle) -> int:
    """Shard bytes the handles have read, logged at INFO."""
    total = sum(handle.bytes_read for handle in handles)
    log.info("read %d shard bytes", total)
    return total


def _load_arrays(path: Path, archive: bool = False) -> list[tuple[str, np.ndarray]]:
    """(name, array) of a .npy file, named by its stem, or with archive of
    every member of a .npz file. A file numpy cannot read so, or an array
    that does not hold numbers, is a FormatError naming the file."""
    try:
        with open(path, "rb") as f:
            if archive:
                with np.lib.npyio.NpzFile(f) as members:
                    arrays = [(key, members[key]) for key in sorted(members.files)]
            else:
                arrays = [(path.stem, np.lib.format.read_array(f))]
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        kind = ".npz archive" if archive else ".npy file"
        raise FormatError(f"{path}: not a readable {kind} ({exc})") from None
    for name, arr in arrays:
        if not isinstance(arr, np.ndarray) or arr.dtype.kind not in "iuf":
            member = f" member {name!r}" if archive else ""
            raise FormatError(f"{path}:{member} not an array of numbers")
    return arrays


def _load_embedding_inputs(input_path: Path) -> list[store.ClipMatrix]:
    """Read per-video arrays from a directory of .npy files or one .npz."""
    if input_path.is_dir():
        files = sorted(input_path.glob("*.npy"))
        if not files:
            raise UsageError(f"no .npy files under {input_path}")
        arrays = [pair for f in files for pair in _load_arrays(f)]
    elif input_path.suffix == ".npz":
        arrays = _load_arrays(input_path, archive=True)
    else:
        raise UsageError(f"--input must be a directory of .npy files or a .npz, got {input_path}")
    return [_as_clip_matrix(video_id, arr) for video_id, arr in arrays]


def _as_clip_matrix(video_id: str, arr: np.ndarray) -> store.ClipMatrix:
    if arr.ndim == 1:
        arr = arr[None, :]
    return store.ClipMatrix(video_id, arr)


def cmd_ingest(args) -> dict:
    input_path = _require_exists(args.input, "--input")
    out_dir = Path(args.out)
    if out_dir.exists() and any(out_dir.iterdir()):
        raise UsageError(f"--out directory {out_dir} already exists and is not empty")
    videos = _load_embedding_inputs(input_path)
    if args.expected_dim is not None:
        for v in videos:
            if v.dim != args.expected_dim:
                raise UsageError(
                    f"video {v.video_id!r} has dim {v.dim}, expected {args.expected_dim}"
                )
    corpus_id = args.corpus_id or out_dir.name
    manifest_name = f"{corpus_id}.manifest.jsonl"
    with _Publisher(out_dir.parent) as publisher:
        handle = store.build_corpus(videos, publisher.dir, corpus_id, role=args.role,
                                    videos_per_shard=args.videos_per_shard)
        # shards, then the digest sidecar, then the manifest, so a visible
        # manifest implies its shards and sidecar
        for shard in sorted(handle.columns.shards):
            publisher.stage(shard, out_dir / shard)
        digests_name = store.digests_path(manifest_name).name
        publisher.stage(digests_name, out_dir / digests_name)
        publisher.stage(manifest_name, out_dir / manifest_name)
        out_dir.mkdir(exist_ok=True)
    args._outputs = publisher.published
    args._inputs = [input_path]
    args._report_path = out_dir / "run-report.json"
    return {
        "corpus_id": corpus_id,
        "videos": handle.video_count,
        "clips": int(handle.columns.clip_counts.sum()),
        "dim": handle.dim,
        "shards": len(handle.columns.shards),
        "bytes_written": sum(path.stat().st_size for path in publisher.published),
        "manifest": str(out_dir / manifest_name),
    }


def _exact_dots(since: int) -> int:
    """Dots the kernels' certificates have sent to the exact path since
    kernels.exact_dot_count() read `since`; logged at INFO."""
    count = kernels.exact_dot_count() - since
    log.info("%d dots re-scored exactly", count)
    return count


def cmd_similarity(args) -> dict:
    exact_since = kernels.exact_dot_count()
    target, source = _open_corpora(args)
    pooling = similarity.PoolingMode.parse(args.pooling)
    tile = _tile_config(args)
    out = Path(args.out)
    if args.mode == "matrix":
        view = similarity.build_similarity_matrix(target, source, pooling, tile)
        args._outputs = _publish_single(out, lambda p: similarity.save_matrix(view, p))
        summary = {"mode": "matrix", "rows": len(view.target_ids),
                   "cols": len(view.source_ids)}
    elif args.mode == "col-means":
        ids, means = similarity.stream_column_means(target, source, pooling, tile)
        args._outputs = _publish_single(
            out, lambda p: similarity.write_column_means(ids, means, p))
        summary = {"mode": "col-means", "sources": len(ids)}
    else:
        if args.topk is None:
            raise UsageError("--topk is required with --mode topk")
        rows = similarity.stream_row_topk(target, source, pooling, args.topk, tile).rows()

        def write_rows(path):
            with open(path, "w", encoding="utf-8") as f:
                for target_id, row in zip(target.video_ids(), rows):
                    f.write(json.dumps({
                        "target_id": target_id,
                        "neighbors": [{"source_id": vid, "score": score}
                                      for vid, score in row],
                    }) + "\n")

        args._outputs = _publish_single(out, write_rows)
        summary = {"mode": "topk", "k": args.topk, "rows": target.video_count}
    args._inputs = [args.target_manifest, args.source_manifest]
    args._report_path = Path(str(out) + ".run.json")
    summary.update({"pooling": pooling.value, "backend": kernels.backend_name(),
                    "bytes_read": _bytes_read(target, source),
                    "exact_dots": _exact_dots(exact_since)})
    return summary


def _read_id_file(path: Path) -> set[str]:
    return set(store.read_lines(path, "id", str))


def _heuristic_rules(args) -> curation.HeuristicRules:
    if not args.allowed_categories:
        raise UsageError("heuristic curation requires --allowed-categories")
    vocab: set[str] = set()
    if args.vocabulary:
        vocab |= {w.strip() for w in args.vocabulary.split(",") if w.strip()}
    if args.vocabulary_file:
        vocab |= {w for w in _read_id_file(_require_exists(args.vocabulary_file,
                                                           "--vocabulary-file"))}
    if not vocab:
        raise UsageError("heuristic curation requires --vocabulary or --vocabulary-file")
    return curation.HeuristicRules(
        allowed_categories=frozenset(
            c.strip() for c in args.allowed_categories.split(",") if c.strip()),
        target_vocabulary=frozenset(vocab),
        require_human_subtitles=args.require_human_subtitles,
        cap=args.cap,
    )


def cmd_curate(args) -> dict:
    exact_since = kernels.exact_dot_count()
    strategy = args.strategy.replace("-", "_")
    inputs = []
    if strategy == "heuristic":
        metadata_path = _require_exists(args.metadata, "--metadata")
        inputs.append(metadata_path)
        rules = _heuristic_rules(args)
        manifest = curation.curate_heuristic(store.read_metadata(metadata_path), rules)
    else:
        target, source = _open_corpora(args)
        inputs += [args.target_manifest, args.source_manifest]
        pooling = similarity.PoolingMode.parse(args.pooling)
        tile = _tile_config(args)
        config = curation.CurationConfig(
            capacity_c=args.capacity, strategy=strategy,
            expansion_factor=args.expansion_factor, seed=args.seed, pooling=pooling)
        if strategy == "avg_sim":
            ids, means = similarity.stream_column_means(target, source, pooling, tile,
                                                        top=args.capacity)
            scored = len(ids)
            log.info("avg-sim: %d sources, capacity %d, %d scored exactly",
                     source.video_count, args.capacity, scored)
            manifest = curation.curate_avg_sim(ids, means, args.capacity, config)
        else:
            if target.video_count == 0:
                raise ArgumentError("target corpus is empty")
            scored = source.video_count
            requested: list[int] = []

            def row_topk(k):
                requested.append(k)
                # Read from the module on each call, so a wrapper installed there is called.
                return similarity.stream_row_topk(target, source, pooling, k, tile=tile)

            manifest = curation.curate_knn(row_topk, source.video_count, args.capacity,
                                           args.expansion_factor, args.seed, config)
            knn = {"k_requested": max(requested), "k_reached": manifest.k_reached,
                   "pool_size": manifest.config_echo["pool_size"]}
    if args.exclude_ids:
        exclude_path = _require_exists(args.exclude_ids, "--exclude-ids")
        inputs.append(exclude_path)
        manifest = curation.exclude_overlap(manifest, _read_id_file(exclude_path))
    out = Path(args.out)
    with _Publisher(out.parent) as publisher:
        # sidecar registered first so it is published before the manifest
        publisher.stage(out.name + ".meta.json", out.with_name(out.name + ".meta.json"))
        curation.write_curation_manifest(manifest, publisher.stage(out.name, out))
    args._outputs = publisher.published
    args._inputs = inputs
    args._report_path = Path(str(out) + ".run.json")
    summary = {"strategy": manifest.strategy, "selected": len(manifest.entries),
               "excluded": manifest.excluded_count}
    if strategy != "heuristic":
        # only the score-based strategies run the kernels
        summary["backend"] = kernels.backend_name()
        summary["scored"] = scored
        summary["bytes_read"] = _bytes_read(target, source)
        summary["exact_dots"] = _exact_dots(exact_since)
    if strategy == "knn":
        summary.update(knn)
    return summary


def cmd_schedule(args) -> dict:
    manifest_path = _require_exists(args.manifest, "--manifest")
    ranked = curation.read_curation_manifest(manifest_path)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    if not sizes or min(sizes) < 1:
        raise UsageError(f"--sizes must list one or more positive stage sizes, got {args.sizes!r}")
    if sizes[0] > len(ranked.entries):
        raise UsageError(
            f"largest stage size {sizes[0]} exceeds manifest length {len(ranked.entries)}")
    stage_manifests = [
        curation.CurationManifest(ranked.strategy, ranked.entries[:size],
                                  dict(ranked.config_echo, stage_size=size))
        for size in sizes
    ]
    schedule = curation.build_incremental_schedule(stage_manifests, args.steps)
    out = Path(args.out)
    stem = out.name.removesuffix(".jsonl")
    with _Publisher(out.parent) as publisher:
        stage_names = []
        for i, stage in enumerate(schedule.stages, 1):
            name = f"{stem}.stage{i}.jsonl"
            staged = publisher.stage(name, out.with_name(name))
            publisher.stage(name + ".meta.json", out.with_name(name + ".meta.json"))
            curation.write_curation_manifest(stage.manifest, staged)
            stage_names.append(name)
        curation.write_schedule(schedule, stage_names, publisher.stage(out.name, out))
    args._outputs = publisher.published
    args._inputs = [manifest_path]
    args._report_path = Path(str(out) + ".run.json")
    return {"stages": len(schedule.stages), "sizes": sizes,
            "steps": [s.steps for s in schedule.stages]}


def cmd_probe(args) -> dict:
    queries_path = _require_exists(args.queries, "--queries")
    candidates_path = _require_exists(args.candidates, "--candidates")
    gt_path = _require_exists(args.ground_truth, "--ground-truth")
    [(_, queries)] = _load_arrays(queries_path)
    [(_, candidates)] = _load_arrays(candidates_path)
    ground_truth = _read_json(gt_path, "--ground-truth")
    if not (isinstance(ground_truth, list) and all(type(i) is int for i in ground_truth)):
        raise UsageError(f"--ground-truth {gt_path} must be a JSON array of integer "
                         "candidate indices")
    try:
        ks = [int(k) for k in args.ks.split(",") if k.strip()]
    except ValueError:
        raise UsageError(f"--ks must be comma-separated integers, got {args.ks!r}")
    ranks = probe.rank_queries(queries, candidates, ground_truth)
    result = probe.summarize(ranks, ks)
    out = Path(args.out)
    args._outputs = _publish_single(
        out, lambda p: probe.write_probe_report(result, len(candidates), p))
    args._inputs = [queries_path, candidates_path, gt_path]
    args._report_path = Path(str(out) + ".run.json")
    return probe.probe_report(result, len(candidates))


def cmd_nce_check(args) -> dict:
    if args.batch < 1:
        raise UsageError("--batch must be >= 1")
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    modes = {
        "standard": [nce.NegativeMode.STANDARD],
        "n-squared": [nce.NegativeMode.N_SQUARED],
        "both": [nce.NegativeMode.STANDARD, nce.NegativeMode.N_SQUARED],
    }[args.mode]
    rng = np.random.default_rng(args.seed)
    grids = [nce.ScoreGrid.diagonal(rng.normal(size=(args.batch, args.batch)))
             for _ in range(args.trials)]
    report: dict = {"batch": args.batch, "seed": args.seed, "trials": args.trials,
                    "threshold": 1e-4, "modes": {}}
    overall = True
    for mode in modes:
        worst = max(nce.gradient_check(grid, mode) for grid in grids)
        loss0 = nce.nce_loss(grids[0], mode)
        shifted = nce.ScoreGrid(grids[0].scores + 37.5, grids[0].positive_mask)
        shift_delta = abs(nce.nce_loss(shifted, mode) - loss0)
        passed = worst < 1e-4 and shift_delta < 1e-10
        overall = overall and passed
        report["modes"][mode.value] = {
            "loss_first_trial": loss0,
            "max_grad_rel_err": worst,
            "shift_invariance_delta": shift_delta,
            "pass": passed,
        }
    report["pass"] = overall
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    print(payload, end="")
    if args.out:
        out = Path(args.out)
        args._outputs = _publish_single(out, lambda p: p.write_text(payload))
        args._report_path = Path(str(out) + ".run.json")
    return report


def cmd_stats(args) -> dict:
    manifest_path = _require_exists(args.manifest, "--manifest")
    handle = _open_corpus(args, manifest_path, args.role)
    counts = handle.columns.clip_counts
    summary = {
        "corpus_id": handle.corpus_id,
        "videos": handle.video_count,
        "clips": int(counts.sum()),
        "dim": handle.dim,
        "shards": len(handle.columns.shards),
        "clips_per_video": {
            "min": int(counts.min()) if len(counts) else 0,
            "max": int(counts.max()) if len(counts) else 0,
        },
    }
    payload = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    print(payload, end="")
    if args.out:
        out = Path(args.out)
        args._outputs = _publish_single(out, lambda p: p.write_text(payload))
        args._report_path = Path(str(out) + ".run.json")
    args._inputs = [manifest_path]
    return summary


def _add_tile_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=None,
                   help="worker thread cap (results are identical for any value)")
    p.add_argument("--tile-cols", type=int, default=None,
                   help="source videos per score block (default 4096)")


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source-manifest", help="JSONL manifest of the source corpus")
    p.add_argument("--target-manifest", help="JSONL manifest of the target corpus")
    p.add_argument("--pooling", default="mean", choices=["mean", "max"],
                   help="clip-pair pooling (default mean)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cupid",
        description="Curate domain-matched pre-training subsets from "
                    "embedding-indexed video corpora.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="pack per-video embeddings into shards + manifest")
    p.add_argument("--input", required=True,
                   help="directory of <video_id>.npy files or one .npz archive")
    p.add_argument("--out", required=True, help="fresh output directory")
    p.add_argument("--corpus-id", default=None)
    p.add_argument("--role", default="source", choices=["source", "target"])
    p.add_argument("--expected-dim", type=int, default=None)
    p.add_argument("--videos-per-shard", type=int, default=4096)
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("similarity", help="dense matrix, column means, or per-row top-k")
    _add_corpus_flags(p)
    _add_tile_flags(p)
    p.add_argument("--max-dense-bytes", type=int, default=None,
                   help="memory budget for materialized matrices")
    p.add_argument("--mode", required=True, choices=["matrix", "col-means", "topk"])
    p.add_argument("--topk", type=int, default=None, help="k for --mode topk")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_similarity)

    p = sub.add_parser("curate", help="produce a curation manifest")
    _add_corpus_flags(p)
    _add_tile_flags(p)
    p.add_argument("--strategy", required=True, choices=["avg-sim", "knn", "heuristic"])
    p.add_argument("--capacity", type=int, default=200000,
                   help="subset size c (default 200000)")
    p.add_argument("--expansion-factor", type=float, default=3.0,
                   help="knn pool size multiplier in [2, 4] (default 3)")
    p.add_argument("--seed", type=int, default=0, help="knn sampling seed")
    p.add_argument("--metadata", help="JSONL video metadata (heuristic strategy)")
    p.add_argument("--allowed-categories", help="comma-separated category whitelist")
    p.add_argument("--vocabulary", help="comma-separated target title words")
    p.add_argument("--vocabulary-file", help="file with one vocabulary word per line")
    p.add_argument("--require-human-subtitles", action="store_true")
    p.add_argument("--cap", type=int, default=None,
                   help="heuristic result cap (truncates by ascending id)")
    p.add_argument("--exclude-ids", help="file of downstream ids to exclude, one per line")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_curate)

    p = sub.add_parser("schedule", help="stage a ranked manifest into an incremental plan")
    p.add_argument("--manifest", required=True, help="ranked curation manifest (JSONL)")
    p.add_argument("--sizes", required=True,
                   help="comma-separated strictly decreasing stage sizes")
    p.add_argument("--steps", type=int, required=True, help="total training steps")
    p.add_argument("--out", required=True, help="schedule file (JSONL)")
    p.set_defaults(handler=cmd_schedule)

    p = sub.add_parser("probe", help="zero-shot retrieval metrics over embeddings")
    p.add_argument("--queries", required=True, help=".npy query embeddings (Q x d)")
    p.add_argument("--candidates", required=True, help=".npy candidate embeddings (C x d)")
    p.add_argument("--ground-truth", required=True,
                   help="JSON array: ground-truth candidate index per query")
    p.add_argument("--ks", default="1,5,10", help="recall cutoffs (default 1,5,10)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(handler=cmd_probe)

    p = sub.add_parser("nce-check", help="self-check contrastive loss numerics")
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="both", choices=["standard", "n-squared", "both"])
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--out", default=None, help="optional report JSON path")
    p.set_defaults(handler=cmd_nce_check)

    p = sub.add_parser("stats", help="summarize a corpus manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--role", default="source", choices=["source", "target"])
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_stats)

    for sp in sub.choices.values():
        sp.add_argument("--config", default=None,
                        help="JSON file with option defaults; explicit flags win")
        sp.set_defaults(_parser=sp)
    return parser


def _config_value(key: str, action: argparse.Action, value):
    """A --config value, checked and converted as its flag's value would be."""
    switch = action.nargs == 0  # such as --require-human-subtitles
    if isinstance(value, (str, int, float)) and isinstance(value, bool) == switch:
        try:
            converted = value if switch else (action.type or str)(str(value))
        except ValueError:
            pass
        else:
            if action.choices is None or converted in action.choices:
                return converted
    raise UsageError(f"--config key {key!r}: {value!r} is not a valid value of "
                     f"{action.option_strings[0]}")


def _apply_config_file(args: argparse.Namespace, argv: list[str]) -> None:
    """Fill options from --config for flags the user did not pass explicitly."""
    if not getattr(args, "config", None):
        return
    cfg = _read_json(_require_exists(args.config, "--config"), "--config")
    if not isinstance(cfg, dict):
        raise UsageError("--config must contain a JSON object")
    options = {action.dest: action for action in args._parser._actions
               if action.dest not in ("help", "config")}
    # Parse the command's flags again over a marker in every option: argparse
    # overwrites the marker only where a flag (abbreviated or not) was given.
    unset = object()
    given = argparse.Namespace(**dict.fromkeys(options, unset))
    args._parser.parse_args(argv[argv.index(args.command) + 1:], given)
    for key, value in cfg.items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"--config key {key!r} is not an option of this command")
        value = _config_value(key, action, value)
        if getattr(given, action.dest) is unset:
            setattr(args, action.dest, value)


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        _apply_config_file(args, argv)
        args._inputs = []
        args._digests = {}
        args._outputs = []
        args._report_path = None
        summary = args.handler(args)
        if args._report_path is not None:
            _write_run_report(args, summary, started)
    except (UsageError, ArgumentError) as exc:
        _error_line(exc.category, str(exc))
        return _USAGE_EXIT
    except CupidError as exc:
        _error_line(exc.category, str(exc))
        return _FAILURE_EXIT
    except OSError as exc:
        _error_line("io", str(exc))
        return _FAILURE_EXIT
    log.info("%s finished in %.2fs", args.command, time.perf_counter() - started)
    return 0


def _write_run_report(args: argparse.Namespace, summary: dict, started: float) -> None:
    report = {
        "command": args.command,
        "config": {k: v for k, v in sorted(vars(args).items())
                   if not k.startswith("_") and k not in ("handler",)
                   and isinstance(v, (str, int, float, bool, type(None)))},
        "inputs": _hash_inputs(args._inputs, args._digests),
        "outputs": [str(p) for p in args._outputs],
        "summary": summary,
        "timings": {"total_s": time.perf_counter() - started},
    }
    payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _publish_single(args._report_path, lambda p: p.write_text(payload, encoding="utf-8"))


def main_entry() -> None:
    """Run main() on the command line and end the process with its code.

    When main() returns, its outputs are published and every file, shard
    descriptor and worker thread it used is closed or joined, so the
    process ends with os._exit once the log handlers and the standard
    streams are flushed: the interpreter's teardown (module cleanup, the
    final collection) would change nothing a caller can see. A stream that
    fails to flush gives exit status 120, as the interpreter's own exit
    does. An exception that escapes main() takes the normal traceback path.
    """
    code = main()
    logging.shutdown()
    for stream in (sys.stdout, sys.stderr):
        if stream is None or stream.closed:
            continue
        try:
            stream.flush()
        except OSError:
            code = _FLUSH_FAILED_EXIT
    os._exit(code)


if __name__ == "__main__":
    main_entry()
