"""Rank source files by textual relevance to a bug report.

The pipeline: load a benchmark of projects (:mod:`bugloc.corpus`),
normalize text into token streams (:mod:`bugloc.preprocess`), build local
or global TF.IDF models (:mod:`bugloc.tfidf`) and optionally paragraph
vectors (:mod:`bugloc.embedding`), rank files per bug report
(:mod:`bugloc.rank`) and score the results (:mod:`bugloc.metrics`).
"""

from .corpus import (Benchmark, BugReport, Project, SourceFile,
                     load_benchmark, load_project, validate_and_filter)
from .embedding import (DocVector, EmbeddingConfig, EmbeddingModel, PV_DBOW,
                        PV_DM, combined_vector, infer_vector, train)
from .errors import BugLocError, CorpusError, TrainingError
from .metrics import (MetricsReport, QueryResult, RankBatch, average_precision,
                      compute_metrics, mean_average_precision, mrr,
                      reciprocal_rank, top_n, wilcoxon_signed_rank)
# the pipeline entry point itself is bugloc.preprocess.preprocess; exporting
# it here would shadow the submodule
from .preprocess import (PreprocessConfig, TokenStream, preprocess_benchmark,
                         preprocess_project, split_identifier, stem,
                         strip_code_noise)
from .rank import Artifacts, MethodConfig, RankedList, fuse, localize
from .tfidf import (LengthNormalizer, TfIdfVector, Vocabulary,
                    build_global_idf, build_vocabulary, cosine, rvsm,
                    vectorize)

__version__ = "0.1.0"

__all__ = [
    "Artifacts", "Benchmark", "BugLocError", "BugReport", "CorpusError",
    "DocVector", "EmbeddingConfig", "EmbeddingModel", "LengthNormalizer",
    "MethodConfig", "MetricsReport", "PV_DBOW", "PV_DM", "PreprocessConfig",
    "Project", "QueryResult", "RankBatch", "RankedList", "SourceFile", "TfIdfVector",
    "TokenStream", "TrainingError", "Vocabulary", "average_precision",
    "build_global_idf", "build_vocabulary", "combined_vector",
    "compute_metrics", "cosine", "fuse", "infer_vector", "load_benchmark",
    "load_project", "localize", "mean_average_precision", "mrr",
    "preprocess_benchmark", "preprocess_project", "reciprocal_rank", "rvsm",
    "split_identifier", "stem", "strip_code_noise", "top_n", "train",
    "validate_and_filter", "vectorize",
]
