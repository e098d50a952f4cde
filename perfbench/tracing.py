"""Spans around cupid's layer entry points, and the per-layer metrics they give.

Run as a script, this is the benchmark's traced driver:

    python perfbench/tracing.py SPANS_JSON CUPID_ARG...

It wraps, from outside and without changing cupid, the public entry points
of the store, kernels, similarity and curation layers, calls
``cupid.cli.main`` with the given arguments inside a ``cli.main`` span, and
writes every span to SPANS_JSON when the command ends. Spans are kept in
memory until then. Imported, the module turns such a span list into the
per-layer metrics of BENCHMARK.json (see README.md).
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path


class Tracer:
    """Records spans (name, start, end, parent, thread, attrs) in memory.

    A span's parent is the innermost open span of its own thread. A span
    opened on a worker thread that has none takes the innermost open span of
    the main thread, which is the call that handed the work out.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[dict]) -> int | None:
        if stack:
            return stack[-1]["id"]
        try:
            return self._main_stack[-1]["id"]
        except IndexError:
            return None

    def wrap(self, name: str, fn, attrs=None):
        """fn with a span around each call; attrs(args, kwargs, result) -> dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"id": next(self._ids), "name": name, "parent": self._parent(stack),
                    "thread": threading.get_ident(), "start": time.perf_counter()}
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                span["attrs"] = attrs(args, kwargs, result)
            return result

        return traced


def _tile_attrs(args, kwargs, tile) -> dict:
    return {"videos": len(tile.ids), "clips": int(tile.clips.shape[0]),
            "bytes": int(tile.clips.nbytes)}


def _mean_attrs(args, kwargs, block) -> dict:
    t_sums = args[0]
    pairs = int(block.size)
    return {"pairs": pairs, "clip_dots": pairs, "dim": int(t_sums.shape[1])}


def _max_attrs(args, kwargs, block) -> dict:
    t_clips, _, s_clips, _ = args
    return {"pairs": int(block.size),
            "clip_dots": int(t_clips.shape[0]) * int(s_clips.shape[0]),
            "dim": int(t_clips.shape[1])}


def _topk_attrs(args, kwargs, rows) -> dict:
    return {"k": int(args[3] if len(args) > 3 else kwargs["k"])}


def _pool_attrs(args, kwargs, result) -> dict:
    pool, k = result
    return {"k_reached": int(k), "pool_size": len(pool)}


def build_attrs(args, kwargs, handle) -> dict:
    """Attributes of a store.build_corpus span (the benchmark's set-up)."""
    out_dir = Path(args[1] if len(args) > 1 else kwargs["out_dir"])
    written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    user = sum(e.clip_count for e in handle.manifest) * handle.dim * 4
    return {"bytes_written": written, "user_bytes": user}


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points ``cupid curate`` calls."""
    from cupid import curation, kernels, similarity, store

    handle = store.CorpusHandle
    handle.open = classmethod(tracer.wrap("store.open", handle.open.__func__))
    handle.load_tile = tracer.wrap("store.load_tile", handle.load_tile, _tile_attrs)
    backend = kernels.active()
    backend.mean_score_block = tracer.wrap("kernels.mean_score_block",
                                           backend.mean_score_block, _mean_attrs)
    backend.max_score_block = tracer.wrap("kernels.max_score_block",
                                          backend.max_score_block, _max_attrs)
    similarity.stream_column_means = tracer.wrap(
        "similarity.stream_column_means", similarity.stream_column_means)
    similarity.stream_row_topk = tracer.wrap(
        "similarity.stream_row_topk", similarity.stream_row_topk, _topk_attrs)
    for name in ("curate_avg_sim", "curate_knn", "write_curation_manifest"):
        setattr(curation, name,
                tracer.wrap(f"curation.{name}", getattr(curation, name)))
    curation.knn_candidate_pool = tracer.wrap(
        "curation.knn_candidate_pool", curation.knn_candidate_pool, _pool_attrs)


# --------------------------------------------------------------------------
# Span analysis


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the union of its children's intervals within it."""
    intervals = sorted((max(c["start"], span["start"]), min(c["end"], span["end"]))
                       for c in children)
    covered, cur_start, cur_end = 0.0, None, None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return _duration(span) - covered


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced command that took wall_s seconds.

    Busy times sum span durations across threads; self times subtract the
    union of child spans. A layer the command does not reach reports 0.
    """
    by_name: dict[str, list[dict]] = {}
    children: dict[int, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        children.setdefault(span["parent"], []).append(span)

    def named(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def total(names, key=None):
        return sum(s["attrs"][key] if key else _duration(s) for s in named(*names))

    def self_total(*names):
        return sum(self_time(s, children.get(s["id"], [])) for s in named(*names))

    kernels = ("kernels.mean_score_block", "kernels.max_score_block")
    streams = ("similarity.stream_column_means", "similarity.stream_row_topk")
    decode_s = total(["store.load_tile"])
    kernel_s = total(kernels)
    flops = sum(2 * s["attrs"]["dim"] * s["attrs"]["clip_dots"] for s in named(*kernels))
    pools = named("curation.knn_candidate_pool")
    k_reached = pools[-1]["attrs"]["k_reached"] if pools else 0
    k_asked = max((s["attrs"]["k"] for s in named("similarity.stream_row_topk")), default=0)
    user_bytes = total(["store.build_corpus"], "user_bytes")
    main_s = total(["cli.main"])
    return {
        "store.open_s": total(["store.open"]),
        "store.decode_s": decode_s,
        "store.decode_calls": len(named("store.load_tile")),
        "store.clips_decoded": total(["store.load_tile"], "clips"),
        "store.decode_mb_per_s": (total(["store.load_tile"], "bytes") / 1e6 / decode_s
                                  if decode_s else 0.0),
        "store.build_s": total(["store.build_corpus"]),
        "store.bytes_per_user_byte": (total(["store.build_corpus"], "bytes_written")
                                      / user_bytes if user_bytes else 0.0),
        "kernels.busy_s": kernel_s,
        "kernels.calls": len(named(*kernels)),
        "kernels.pairs": total(kernels, "pairs"),
        "kernels.clip_dots": total(kernels, "clip_dots"),
        "kernels.gflops": flops / 1e9 / kernel_s if kernel_s else 0.0,
        "similarity.busy_s": total(streams),
        "similarity.self_s": self_total(*streams),
        "similarity.k_requested": total(["similarity.stream_row_topk"], "k"),
        "curation.k_reached": k_reached,
        "curation.k_efficiency": k_reached / k_asked if k_asked else 0.0,
        "curation.pool_size": pools[-1]["attrs"]["pool_size"] if pools else 0,
        "curation.select_s": self_total("curation.curate_avg_sim", "curation.curate_knn",
                                        "curation.knn_candidate_pool"),
        "curation.write_s": total(["curation.write_curation_manifest"]),
        "cli.self_s": self_total("cli.main"),
        "cli.startup_s": wall_s - main_s,
    }


def main(argv: list[str]) -> int:
    spans_path, cli_argv = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    from cupid import cli

    code = tracer.wrap("cli.main", cli.main)(cli_argv)
    spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
