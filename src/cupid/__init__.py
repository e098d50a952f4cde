"""Curation of domain-matched pre-training subsets from embedding-indexed
video corpora: shard storage, clip-level similarity with streaming reducers,
curation strategies, a zero-shot retrieval probe, and contrastive-loss
numerics.

Each exported name is imported from its module on first use (PEP 562), so
importing the package, or one command's modules, loads no other module.
"""

__version__ = "0.1.0"

# The module that defines each exported name.
_SOURCES = {name: module for module, names in (
    ("curation", "CurationConfig CurationEntry CurationManifest HeuristicRules StagedSchedule "
                 "build_incremental_schedule curate_avg_sim curate_heuristic curate_knn "
                 "exclude_overlap"),
    ("errors", "ArgumentError CapacityError CupidError DataError FormatError NotFoundError "
               "SchemaError UsageError"),
    ("nce", "NegativeMode ScoreGrid nce_loss nce_loss_grad negative_set"),
    ("probe", "RetrievalResult rank_queries summarize"),
    ("similarity", "PoolingMode SimilarityView TileConfig build_similarity_matrix "
                   "pair_similarity stream_column_means stream_row_topk"),
    ("store", "ClipMatrix CorpusHandle Subtitle VideoMeta build_corpus ingest_shard "
              "make_uniform_windows merge_consecutive_subtitles write_shard"),
) for name in names.split()}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    """Import an exported name from its module and keep it in the package."""
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
