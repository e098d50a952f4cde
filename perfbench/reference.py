"""Reference task: a fixed job that measures how fast the host is right now.

The benchmark runs this between its timed commands, each time in a fresh
process started the same way, and divides each command's times by those of
the reference runs around it. The host's speed drifts over minutes; the
ratio does not, since both sides of it slow down together. Nothing here
imports cupid, so a change to cupid cannot change the reference.

The job mixes what the measured commands spend their time on: interpreter
start-up and ``import numpy``, ``json.loads`` of manifest-like lines, a
per-item loop of small numpy copies (tile decode), a float32 matmul of clip
sums (mean kernel) and a heap top-k loop (the reducer), on two threads that
share the interpreter lock as the commands' two threads do.
"""
import heapq
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

DIM = 64
ITEMS = 4096            # items per chunk, as many as videos in a source tile
CHUNKS = 8
THREADS = 2
TOP_K = 1500

_rng = np.random.default_rng(0)
_counts = _rng.integers(1, 9, size=ITEMS)
_offsets = np.concatenate([[0], np.cumsum(_counts)]).astype(np.intp)
_buffer = _rng.standard_normal(int(_offsets[-1]) * DIM).astype("<f4").tobytes()
_lines = [json.dumps({"video_id": f"s{i:07d}", "shard": "source-00000.cpd",
                      "offset": int(_offsets[i]) * DIM * 4, "clip_count": int(c)})
          for i, c in enumerate(_counts)]
_targets = _rng.standard_normal((125, DIM)).astype(np.float32)


def chunk(index: int) -> float:
    entries = [json.loads(line) for line in _lines]
    clips = np.empty((int(_offsets[-1]), DIM), dtype=np.float32)
    for i, entry in enumerate(entries):
        count = entry["clip_count"]
        clips[_offsets[i]:_offsets[i + 1]] = np.frombuffer(
            _buffer, dtype="<f4", count=count * DIM, offset=entry["offset"]
        ).reshape(count, DIM)
    sums = np.add.reduceat(clips, _offsets[:-1], axis=0)
    scores = (_targets @ sums.T).astype(np.float32)
    heap: list = []
    for score in scores[index % len(_targets)].tolist() * 2:
        if len(heap) < TOP_K:
            heapq.heappush(heap, score)
        elif heap[0] < score:
            heapq.heapreplace(heap, score)
    return heap[0]


def main() -> int:
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        total = sum(pool.map(chunk, range(CHUNKS)))
    print(f"{total:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
