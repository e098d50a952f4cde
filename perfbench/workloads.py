"""Workloads of the cupid benchmark.

Each workload makes its inputs from a seed, ingests them as a user would
before the measured command (set-up), names the one ``cupid curate`` command
that is measured, lists the artifacts that command publishes, and checks
them against an independent numpy oracle. The oracles never call cupid:
they recompute scores from the generated arrays.
"""
from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DIM = 64
DOMAIN_SHARE = 0.1      # share of source videos drawn from the target domain
DOMAIN_NORM = 1.5       # length of the domain offset added to in-domain clips

# Sizes per workload. "full" is what the benchmark measures; "smoke" is the
# tiny size the benchmark's own tests run. See README.md for why each
# workload exists and which layer it stresses.
SIZES = {
    "full": {
        "avgsim-mean": dict(sources=50000, source_clips=8, targets=125, target_clips=8,
                            capacity=5000),
        "knn-mean": dict(sources=10000, source_clips=8, targets=125, target_clips=8,
                         capacity=500),
    },
    "smoke": {
        "avgsim-mean": dict(sources=300, source_clips=8, targets=12, target_clips=8,
                            capacity=30),
        "knn-mean": dict(sources=300, source_clips=8, targets=12, target_clips=8,
                         capacity=20),
    },
}

THREADS = 2             # --threads of every curate command
POOLING = "mean"        # --pooling of every curate command
KNN_EXPANSION = 3.0
KNN_SAMPLING_SEED = 7


@dataclass
class Corpus:
    """Generated clip embeddings of one corpus, videos in id order."""

    ids: list[str]
    counts: np.ndarray    # int64 (n,)
    clips: np.ndarray     # float32 (total_clips, DIM)

    @property
    def starts(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.counts)[:-1]]).astype(np.int64)

    def arrays(self) -> dict[str, np.ndarray]:
        starts = self.starts
        return {vid: self.clips[s:s + c] for vid, s, c in zip(self.ids, starts, self.counts)}


def _make_corpus(rng, prefix: str, n: int, max_clips: int, fixed_clips: bool,
                 domain: np.ndarray, share: float) -> Corpus:
    counts = (np.full(n, max_clips, dtype=np.int64) if fixed_clips
              else rng.integers(1, max_clips + 1, size=n, dtype=np.int64))
    clips = rng.standard_normal((int(counts.sum()), DIM), dtype=np.float32)
    in_domain = rng.random(n) < share
    clips[np.repeat(in_domain, counts)] += domain
    return Corpus([f"{prefix}{i:07d}" for i in range(n)], counts, clips)


def make_inputs(seed: int, size: dict) -> tuple[Corpus, Corpus]:
    """Source corpus (1..source_clips clips per video) and a target corpus of
    target_clips clips per video around one domain."""
    rng = np.random.default_rng(seed)
    domain = rng.standard_normal(DIM).astype(np.float32)
    domain *= np.float32(DOMAIN_NORM / np.linalg.norm(domain))
    source = _make_corpus(rng, "s", size["sources"], size["source_clips"], False,
                          domain, DOMAIN_SHARE)
    target = _make_corpus(rng, "t", size["targets"], size["target_clips"], True,
                          domain, 1.0)
    return source, target


def inputs_digest(*corpora: Corpus) -> str:
    """Short content hash of generated inputs, recorded as provenance."""
    h = hashlib.sha256()
    for corpus in corpora:
        h.update(corpus.counts.tobytes())
        h.update(corpus.clips.tobytes())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------
# Workloads


class Workload:
    """``cupid curate`` of a source corpus against a target corpus."""

    def __init__(self, name: str, size: dict, strategy: str):
        self.name, self.size, self.strategy = name, size, strategy

    @property
    def videos(self) -> int:
        """Source videos one command scores against the whole target set."""
        return self.size["sources"]

    def setup(self, work: Path, seed: int) -> None:
        """Generate inputs from the seed and ingest both corpora under work."""
        from cupid import ClipMatrix, store

        self.source, self.target = make_inputs(seed, self.size)
        self.digest = inputs_digest(self.source, self.target)
        self.manifests = {}
        for role, corpus in (("source", self.source), ("target", self.target)):
            videos = [ClipMatrix(vid, arr) for vid, arr in corpus.arrays().items()]
            corpus_dir = work / role
            shutil.rmtree(corpus_dir, ignore_errors=True)
            store.build_corpus(videos, corpus_dir, role, role=role)
            self.manifests[role] = corpus_dir / f"{role}.manifest.jsonl"

    def command(self, out: Path) -> list[str]:
        """cupid CLI arguments of the measured command, writing under out."""
        argv = ["curate", "--strategy", self.strategy, "--pooling", POOLING,
                "--capacity", str(self.size["capacity"]),
                "--source-manifest", str(self.manifests["source"]),
                "--target-manifest", str(self.manifests["target"]),
                "--threads", str(THREADS), "--out", str(out / "curation.jsonl")]
        if self.strategy == "knn":
            argv += ["--expansion-factor", str(KNN_EXPANSION),
                     "--seed", str(KNN_SAMPLING_SEED)]
        return argv

    def artifacts(self, out: Path) -> list[Path]:
        """Files whose bytes must not change between runs of the same code."""
        return [out / "curation.jsonl", out / "curation.jsonl.meta.json"]

    def check(self, out: Path) -> list[str]:
        """Problems the oracle finds in the command's output (empty: correct)."""
        rows = [json.loads(line) for line in
                (out / "curation.jsonl").read_text(encoding="utf-8").splitlines()]
        meta = json.loads((out / "curation.jsonl.meta.json").read_text(encoding="utf-8"))
        scores = oracle_scores(self.target, self.source)
        if self.strategy == "knn":
            return check_knn(rows, meta, scores, self.source.ids, self.size["capacity"])
        return check_avg_sim(rows, scores, self.source.ids, self.size["capacity"])


_STRATEGIES = {"avgsim-mean": "avg-sim", "knn-mean": "knn"}


def make_workload(name: str, size_name: str = "full") -> Workload:
    return Workload(name, SIZES[size_name][name], _STRATEGIES[name])


# --------------------------------------------------------------------------
# Oracles


def oracle_scores(target: Corpus, source: Corpus) -> np.ndarray:
    """Target x source mean-pooled pair scores (float32) computed straight
    from the clips.

    The mean of all clip-pair dot products is the dot of the two clip sums
    over the clip-count product. It is evaluated in float64 and rounded once
    to float32, which is the precision the curation contract ranks by.
    """
    s_sums = np.add.reduceat(source.clips.astype(np.float64), source.starts, axis=0)
    t_sums = np.add.reduceat(target.clips.astype(np.float64), target.starts, axis=0)
    raw = t_sums @ s_sums.T
    return (raw / np.outer(target.counts, source.counts)).astype(np.float32)


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= 1e-6 * max(abs(b), scale)


def check_avg_sim(rows: list[dict], scores32: np.ndarray, ids: list[str],
                  capacity: int) -> list[str]:
    """Selected ids are the oracle top-c by mean score; a swap is allowed only
    between ids whose oracle scores tie within 1e-6 relative."""
    means = scores32.astype(np.float64).sum(axis=0) / scores32.shape[0]
    scale = 1e-3 * float(np.abs(means).max())
    order = np.lexsort((np.arange(len(ids)), -means))
    index = {vid: i for i, vid in enumerate(ids)}
    problems = []
    if len(rows) != capacity:
        problems.append(f"{len(rows)} rows selected, capacity is {capacity}")
    for rank, row in enumerate(rows[:capacity], 1):
        i = index.get(row["video_id"])
        if row["rank"] != rank or i is None:
            problems.append(f"rank {rank}: bad row {row}")
        elif not _close(means[i], means[order[rank - 1]], scale):
            problems.append(f"rank {rank}: {row['video_id']} is not the oracle's "
                            f"{ids[order[rank - 1]]} nor tied with it")
        elif not _close(row["score"], means[i], scale):
            problems.append(f"rank {rank}: score {row['score']} != oracle {means[i]}")
        if len(problems) >= 5:
            break
    return problems


def oracle_knn(scores32: np.ndarray, ids: list[str], capacity: int
               ) -> tuple[int, list[tuple[str, float]]]:
    """The KNN-pool selection: the smallest per-row depth k whose union of
    per-target top-k lists (score desc, id asc) holds expansion * c ids; then
    c pool entries drawn uniformly with the seeded generator, ranked by each
    id's best score."""
    p, n = scores32.shape
    pool_target = int(round(KNN_EXPANSION * capacity))
    orders = [np.lexsort((np.arange(n), -row)) for row in scores32]
    best: dict[int, float] = {}
    for k in range(n):
        for j in range(p):
            i = int(orders[j][k])
            score = float(scores32[j, i])
            if score > best.get(i, -np.inf):
                best[i] = score
        if len(best) >= pool_target:
            break
    pool = sorted(best.items(), key=lambda item: (-item[1], item[0]))
    rng = np.random.default_rng(KNN_SAMPLING_SEED)
    chosen = [pool[i] for i in sorted(rng.permutation(len(pool))[:capacity])]
    chosen.sort(key=lambda item: (-item[1], item[0]))
    return len(pool), [(ids[i], score) for i, score in chosen]


def check_knn(rows: list[dict], meta: dict, scores32: np.ndarray, ids: list[str],
              capacity: int) -> list[str]:
    """pool_size and every selected id (in rank order) match the oracle pool."""
    pool_size, expected = oracle_knn(scores32, ids, capacity)
    problems = []
    if meta.get("config", {}).get("pool_size") != pool_size:
        problems.append(f"pool_size {meta.get('config', {}).get('pool_size')} "
                        f"!= oracle {pool_size}")
    got = [row["video_id"] for row in rows]
    want = [vid for vid, _ in expected]
    if got != want:
        diff = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
        problems.append(f"{diff} selected ids differ from the oracle selection")
    for row, (_, score) in zip(rows, expected):
        if not _close(row["score"], score, 1e-12):
            problems.append(f"{row['video_id']}: score {row['score']} != oracle {score}")
            break
    return problems
