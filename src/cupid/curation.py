"""Curation strategies producing pre-training manifests.

Three strategies are provided: ranking sources by their mean similarity to
the whole target corpus (avg_sim), sampling from a pool built out of
per-target nearest neighbours (knn), and metadata rule filtering (heuristic).
Manifests can be chained through overlap exclusion and staged into an
incremental schedule with strictly decreasing capacities.
The KNN pool is computed on the arrays of a similarity.RowTopK, with no
Python object per row entry.
"""
from __future__ import annotations

import json
import string
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ArgumentError, CapacityError, DataError, FormatError
from .similarity import PoolingMode, RowTopK, _id_rank
from .store import VideoMeta, int_field, json_object, number_field, read_lines, str_field

STRATEGIES = ("avg_sim", "knn", "heuristic")


@dataclass(frozen=True)
class CurationConfig:
    capacity_c: int
    strategy: str
    expansion_factor: float = 3.0
    seed: int = 0
    pooling: PoolingMode = PoolingMode.MEAN

    def __post_init__(self):
        if self.capacity_c < 1:
            raise ArgumentError("capacity must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ArgumentError(f"strategy must be one of {STRATEGIES}")
        if self.strategy == "knn" and not 2.0 <= self.expansion_factor <= 4.0:
            raise ArgumentError("expansion_factor must lie in [2, 4]")

    def as_dict(self) -> dict:
        return {
            "capacity_c": self.capacity_c,
            "strategy": self.strategy,
            "expansion_factor": self.expansion_factor,
            "seed": self.seed,
            "pooling": self.pooling.value,
        }


@dataclass(frozen=True, slots=True)
class CurationEntry:
    rank: int
    video_id: str
    score: float | None


@dataclass
class CurationManifest:
    """Ordered curation result: contiguous 1-based ranks, unique ids.

    k_reached is the KNN pool's depth (knn_candidate_pool) for a manifest
    curate_knn made, else None; it is not written with the manifest."""

    strategy: str
    entries: list[CurationEntry]
    config_echo: dict = field(default_factory=dict)
    excluded_count: int = 0
    k_reached: int | None = field(default=None, compare=False)

    def __post_init__(self):
        ids = [e.video_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise DataError("curation manifest has duplicate video ids")
        for i, e in enumerate(self.entries, 1):
            if e.rank != i:
                raise DataError(f"manifest ranks not contiguous at position {i}")

    def video_ids(self) -> list[str]:
        return [e.video_id for e in self.entries]


def curate_avg_sim(source_ids: Sequence[str], means: np.ndarray, c: int,
                   config: CurationConfig | None = None) -> CurationManifest:
    """Select the c sources with the largest mean similarity.

    Ranked by descending score; equal scores break by ascending source_id.
    Selections are nested in c: the top c1 < c2 picks are a prefix of the
    top c2 picks.
    """
    n = len(source_ids)
    if len(means) != n:
        raise ArgumentError("source_ids and means lengths differ")
    if c < 1:
        raise ArgumentError("capacity must be >= 1")
    if c > n:
        raise CapacityError(f"capacity {c} exceeds source count {n}")
    means = np.asarray(means)
    order = np.lexsort((_id_rank(source_ids), -means))[:c]
    entries = [CurationEntry(rank, source_ids[i], float(means[i]))
               for rank, i in enumerate(order.tolist(), 1)]
    echo = config.as_dict() if config else {"capacity_c": c, "strategy": "avg_sim"}
    return CurationManifest("avg_sim", entries, echo)


def knn_candidate_pool(row_topk: Callable[[int], RowTopK], n_sources: int,
                       pool_target: int) -> tuple[list[tuple[str, float]], int]:
    """The union of per-row top-k at the smallest k reaching pool_target ids.

    row_topk(k) is called once, for k = min(max(8, pool_target), n_sources):
    a k-deep row holds k distinct ids, so with one row or more the union
    reaches pool_target unless k = n_sources, where it holds every id.
    Returns the pool at the smallest depth reaching pool_target (the full
    depth if none does) as (source_id, best score over rows) pairs sorted by
    (score desc, id asc), plus that depth.
    """
    if n_sources == 0:
        return [], 0
    topk = row_topk(min(max(8, pool_target), n_sources))
    # Rows are sorted, so for any smaller k their first k entries are their top k.
    k = _minimal_depth(topk.cols, n_sources, pool_target)
    cols, scores = _best_scores(topk.cols[:, :k], topk.scores[:, :k])
    ids = [topk.source_ids[c] for c in cols.tolist()]
    order = np.lexsort((_id_rank(ids), -scores)).tolist()
    return list(zip([ids[i] for i in order], scores[order].tolist())), k


def _minimal_depth(cols: np.ndarray, n: int, pool_target: int) -> int:
    """Smallest depth d whose first d columns of all rows hold pool_target
    distinct ids; the full depth if none does."""
    depth = cols.shape[1] if len(cols) else 0
    first = np.full(n, depth, dtype=np.intp)  # the depth each id first appears at
    depths = np.broadcast_to(np.arange(cols.shape[1]), cols.shape)
    np.minimum.at(first, cols.ravel(), depths.ravel())
    sizes = np.cumsum(np.bincount(first, minlength=depth + 1)[:depth])
    return min(int(np.searchsorted(sizes, pool_target)) + 1, depth)


def _best_scores(cols: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids of cols, ascending, each with its best score. Of
    equal best scores (0.0 and -0.0) the first met depth by depth wins.
    """
    cols, scores = cols.T.ravel(), scores.T.ravel()  # depth by depth
    # Stable, unlike np.maximum.at's choice between equal zeros.
    order = np.lexsort((-scores, cols))
    cols, scores = cols[order], scores[order]
    head = np.ones(len(cols), dtype=bool)
    head[1:] = cols[1:] != cols[:-1]
    return cols[head], scores[head]


def curate_knn(row_topk: Callable[[int], RowTopK], n_sources: int, c: int,
               expansion_factor: float = 3.0, seed: int = 0,
               config: CurationConfig | None = None) -> CurationManifest:
    """Sample c sources from a nearest-neighbour pool 2-4x larger than c.

    The pool is the deduplicated union of per-target top-k lists at the
    smallest k reaching round(expansion_factor * c) ids (capped at k = N);
    c entries are then drawn uniformly without replacement with the seeded
    generator. Output is ordered by each id's best per-row score.
    """
    if c < 1:
        raise ArgumentError("capacity must be >= 1")
    if c > n_sources:
        raise CapacityError(f"capacity {c} exceeds source count {n_sources}")
    if not 2.0 <= expansion_factor <= 4.0:
        raise ArgumentError("expansion_factor must lie in [2, 4]")
    pool_target = int(round(expansion_factor * c))
    pool, k_reached = knn_candidate_pool(row_topk, n_sources, pool_target)
    if len(pool) < c:
        raise CapacityError(
            f"candidate pool has {len(pool)} ids, capacity is {c} "
            "(provider returned fewer rows than expected)")
    rng = np.random.default_rng(seed)
    # The pool is in output order, so its picked positions in ascending order are too.
    chosen = np.sort(rng.permutation(len(pool))[:c]).tolist()
    entries = [CurationEntry(rank, *pool[i]) for rank, i in enumerate(chosen, 1)]
    echo = config.as_dict() if config else {
        "capacity_c": c, "strategy": "knn",
        "expansion_factor": expansion_factor, "seed": seed,
    }
    echo = dict(echo, pool_size=len(pool))
    return CurationManifest("knn", entries, echo, k_reached=k_reached)


@dataclass(frozen=True)
class HeuristicRules:
    """Metadata predicates: category whitelist, title-vocabulary overlap,
    and optionally human-authored subtitles."""

    allowed_categories: frozenset[str]
    target_vocabulary: frozenset[str]
    require_human_subtitles: bool = False
    cap: int | None = None

    def __post_init__(self):
        if not self.allowed_categories:
            raise ArgumentError("allowed_categories must be non-empty")
        object.__setattr__(self, "allowed_categories", frozenset(self.allowed_categories))
        object.__setattr__(
            self, "target_vocabulary",
            frozenset(w.lower() for w in self.target_vocabulary),
        )
        if self.cap is not None and self.cap < 0:
            raise ArgumentError("cap must be >= 0")

    def as_dict(self) -> dict:
        return {
            "allowed_categories": sorted(self.allowed_categories),
            "target_vocabulary": sorted(self.target_vocabulary),
            "require_human_subtitles": self.require_human_subtitles,
            "cap": self.cap,
        }


_PUNCT_TABLE = str.maketrans({ch: " " for ch in string.punctuation})


def tokenize_title(title: str) -> set[str]:
    """Case-folded whitespace tokens with ASCII punctuation stripped."""
    return set(title.lower().translate(_PUNCT_TABLE).split())


def curate_heuristic(metas: Iterable[VideoMeta], rules: HeuristicRules) -> CurationManifest:
    """Keep videos passing all metadata rules; order by ascending video_id.

    Rules are conjunctive: category must be whitelisted, the lowercase title
    must share at least one token with the target vocabulary, and, when
    required, subtitles must be human-authored. Scores are null. A cap
    truncates by ascending id.
    """
    kept = []
    for meta in metas:
        if meta.category not in rules.allowed_categories:
            continue
        if not (tokenize_title(meta.title) & rules.target_vocabulary):
            continue
        if rules.require_human_subtitles and meta.subtitle_source != "human":
            continue
        kept.append(meta.video_id)
    kept.sort()
    if rules.cap is not None:
        kept = kept[:rules.cap]
    entries = [CurationEntry(rank, vid, None) for rank, vid in enumerate(kept, 1)]
    return CurationManifest("heuristic", entries, rules.as_dict())


def exclude_overlap(manifest: CurationManifest, downstream_ids: set[str]) -> CurationManifest:
    """Drop entries appearing in the downstream id set; ranks are recompacted."""
    kept = [e for e in manifest.entries if e.video_id not in downstream_ids]
    removed = len(manifest.entries) - len(kept)
    entries = [CurationEntry(rank, e.video_id, e.score)
               for rank, e in enumerate(kept, 1)]
    return CurationManifest(manifest.strategy, entries, dict(manifest.config_echo),
                            manifest.excluded_count + removed)


@dataclass(frozen=True)
class ScheduleStage:
    manifest: CurationManifest
    steps: int


@dataclass
class StagedSchedule:
    stages: list[ScheduleStage]

    def total_steps(self) -> int:
        return sum(s.steps for s in self.stages)


def build_incremental_schedule(manifests: Sequence[CurationManifest],
                               total_steps: int) -> StagedSchedule:
    """Distribute training steps uniformly over stages of decreasing size.

    The remainder goes to the earliest stages, so e.g. 100000 steps over
    three stages split as 33334/33333/33333.
    """
    if not manifests:
        raise ArgumentError("at least one manifest required")
    sizes = [len(m.entries) for m in manifests]
    for a, b in zip(sizes, sizes[1:]):
        if b >= a:
            raise ArgumentError(f"stage sizes must be strictly decreasing, got {sizes}")
    if total_steps < len(manifests):
        raise ArgumentError("total_steps must be >= number of stages")
    base, remainder = divmod(total_steps, len(manifests))
    steps = [base + 1 if i < remainder else base for i in range(len(manifests))]
    return StagedSchedule([ScheduleStage(m, s) for m, s in zip(manifests, steps)])


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def write_curation_manifest(manifest: CurationManifest, path: str | Path) -> None:
    """Write entry rows as JSON-lines plus a .meta.json sidecar.

    Each row is the line json.dumps writes for its {"rank", "video_id",
    "score", "strategy"} object: strings quoted as json.dumps quotes them
    (ensure_ascii), a score as float.__repr__ writes it, or null. Every
    strategy gives a finite float score or None, for which this is the text
    json.dumps writes.
    """
    path = Path(path)
    strategy = _json_str(manifest.strategy)
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(
            f'{{"rank": {e.rank}, "video_id": {_json_str(e.video_id)}, "score": '
            f'{"null" if e.score is None else float.__repr__(e.score)}, '
            f'"strategy": {strategy}}}\n' for e in manifest.entries))
    sidecar = {
        "strategy": manifest.strategy,
        "config": manifest.config_echo,
        "excluded_count": manifest.excluded_count,
    }
    with open(_sidecar_path(path), "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def read_curation_manifest(path: str | Path) -> CurationManifest:
    path = Path(path)

    def parse(line: str) -> tuple[CurationEntry, str]:
        obj = json_object(line)
        score = None if obj["score"] is None else number_field(obj, "score", finite=True)
        entry = CurationEntry(int_field(obj, "rank"), str_field(obj, "video_id"), score)
        return entry, str_field(obj, "strategy")

    rows = read_lines(path, "manifest", parse)
    entries = [entry for entry, _ in rows]
    strategies = sorted({row_strategy for _, row_strategy in rows})
    if len(strategies) > 1:
        raise FormatError(f"{path}: rows name different strategies {strategies}")
    strategy = strategies[0] if strategies else None
    sidecar_path = _sidecar_path(path)
    config_echo: dict = {}
    excluded = 0
    if sidecar_path.exists():
        try:
            # defaults first: a sidecar that is not an object fails the merge
            sidecar = {"config": {}, "excluded_count": 0,
                       **json.loads(sidecar_path.read_text(encoding="utf-8"))}
            stated = str_field(sidecar, "strategy") if "strategy" in sidecar else strategy
            config_echo, excluded = sidecar["config"], int_field(sidecar, "excluded_count")
            if type(config_echo) is not dict:
                raise TypeError("config must be an object")
        except (ValueError, TypeError) as exc:  # not UTF-8, not JSON, a field of the wrong type
            raise FormatError(f"{sidecar_path}: bad manifest sidecar") from exc
        if strategy is not None and stated != strategy:
            raise FormatError(f"{path}: rows name strategy {strategy!r}, "
                              f"its sidecar {stated!r}")
        strategy = stated
    if strategy is None:
        raise FormatError(f"{path}: cannot determine strategy (empty manifest, no sidecar)")
    return CurationManifest(strategy, entries, config_echo, excluded)


def write_schedule(schedule: StagedSchedule, manifest_paths: Sequence[str | Path],
                   path: str | Path) -> None:
    """Write the stage table as JSON-lines {"stage","manifest_path","steps"}."""
    if len(manifest_paths) != len(schedule.stages):
        raise ArgumentError("one manifest path required per stage")
    with open(path, "w", encoding="utf-8") as f:
        for i, (stage, mpath) in enumerate(zip(schedule.stages, manifest_paths), 1):
            f.write(json.dumps({"stage": i, "manifest_path": str(mpath),
                                "steps": stage.steps}) + "\n")
