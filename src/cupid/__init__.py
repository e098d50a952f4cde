"""Curation of domain-matched pre-training subsets from embedding-indexed
video corpora: shard storage, clip-level similarity with streaming reducers,
curation strategies, a zero-shot retrieval probe, and contrastive-loss
numerics."""

__version__ = "0.1.0"

from .curation import (
    CurationConfig,
    CurationEntry,
    CurationManifest,
    HeuristicRules,
    StagedSchedule,
    build_incremental_schedule,
    curate_avg_sim,
    curate_heuristic,
    curate_knn,
    exclude_overlap,
)
from .errors import (
    ArgumentError,
    CapacityError,
    CupidError,
    DataError,
    FormatError,
    NotFoundError,
    SchemaError,
    UsageError,
)
from .nce import NegativeMode, ScoreGrid, nce_loss, nce_loss_grad, negative_set
from .probe import RetrievalResult, rank_queries, summarize
from .similarity import (
    PoolingMode,
    SimilarityView,
    TileConfig,
    build_similarity_matrix,
    pair_similarity,
    stream_column_means,
    stream_row_topk,
)
from .store import (
    ClipMatrix,
    CorpusHandle,
    Subtitle,
    VideoMeta,
    build_corpus,
    ingest_shard,
    make_uniform_windows,
    merge_consecutive_subtitles,
    write_shard,
)

__all__ = [
    "ArgumentError",
    "CapacityError",
    "ClipMatrix",
    "CorpusHandle",
    "CupidError",
    "CurationConfig",
    "CurationEntry",
    "CurationManifest",
    "DataError",
    "FormatError",
    "HeuristicRules",
    "NegativeMode",
    "NotFoundError",
    "PoolingMode",
    "RetrievalResult",
    "SchemaError",
    "ScoreGrid",
    "SimilarityView",
    "StagedSchedule",
    "Subtitle",
    "TileConfig",
    "UsageError",
    "VideoMeta",
    "build_corpus",
    "build_incremental_schedule",
    "build_similarity_matrix",
    "curate_avg_sim",
    "curate_heuristic",
    "curate_knn",
    "exclude_overlap",
    "ingest_shard",
    "make_uniform_windows",
    "merge_consecutive_subtitles",
    "nce_loss",
    "nce_loss_grad",
    "negative_set",
    "pair_similarity",
    "rank_queries",
    "stream_column_means",
    "stream_row_topk",
    "summarize",
    "write_shard",
]
