"""Which bugloc functions the traced run wraps, and the per-layer metrics
derived from what they recorded.

Which end-to-end metric each layer should move, and on which workload
("localize latency" is ``queries_per_s`` and the printed ``query_p50_ms``
and ``query_p90_ms``):

- ``cli.self_s``: localize latency on localize-cli.
- ``corpus.*``: localize latency on localize-cli, ``setup_s`` everywhere.
- ``preprocess.*``, ``porter.*``: ``setup_s`` and ``queries_per_s`` on
  evaluate-tfidf (``evaluate`` preprocesses again), localize latency on
  localize-cli.
- ``tfidf.*``: ``queries_per_s`` on evaluate-tfidf; not ``setup_s`` on docvec.
- ``embedding.*``: ``setup_s`` (training) and ``queries_per_s`` (inference)
  on docvec; nothing elsewhere.
- ``rank.*``: ``queries_per_s`` and ``peak_rss_mb`` on evaluate-tfidf.
- ``metrics.*``: ``mrr`` and ``map``; no timing change anywhere.
- ``cache.*``: localize latency on localize-cli, ``setup_s`` on docvec.
- ``trace.overhead_ratio``: nothing; it qualifies the other figures.

Metrics of a layer a workload does not use read 0.
"""

from __future__ import annotations

import math
import statistics

from tracer import Tracer

# (patch location, recorded name). Spans cover coarse calls; leaves are hot.
SPANS = [
    ("bugloc.cli.load_benchmark", "corpus.load"),
    ("bugloc.cli.preprocess_benchmark", "preprocess.benchmark"),
    ("bugloc.cache.corpus_digest", "cache.digest"),
    ("bugloc.cache.ArtifactCache.global_vocabulary", "cache.get"),
    ("bugloc.cache.ArtifactCache.embedding_model", "cache.get"),
    ("bugloc.tfidf.load_vocabulary", "cache.load"),
    ("bugloc.embedding.load_model", "cache.load"),
    ("bugloc.tfidf.save_vocabulary", "cache.save"),
    ("bugloc.embedding.save_model", "cache.save"),
    ("bugloc.tfidf.build_global_idf", "tfidf.build"),
    ("bugloc.tfidf.build_vocabulary", "tfidf.build"),
    ("bugloc.embedding.train", "embedding.train"),
    ("bugloc.rank.localize", "rank.localize"),
    ("bugloc.metrics.compute_metrics", "metrics.compute"),
    ("bugloc.metrics.wilcoxon_signed_rank", "metrics.wilcoxon"),
]
LEAVES = [
    ("bugloc.preprocess.preprocess", "preprocess.doc"),
    ("bugloc.preprocess.strip_code_noise", "preprocess.strip"),
    ("bugloc.porter.stem", "porter.stem"),
    ("bugloc.tfidf.vectorize", "tfidf.vectorize"),
    ("bugloc.tfidf.cosine", "tfidf.cosine"),
    ("bugloc.tfidf.rvsm", "tfidf.rvsm"),
    ("bugloc.embedding.infer_vector", "embedding.infer"),
    ("bugloc.embedding.combined_vector", "embedding.combined"),
    ("bugloc.embedding.doc_cosine", "embedding.doc_cosine"),
]

METHODS = range(1, 8)

# name -> (unit, better)
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "corpus.load_calls": ("count", "lower"),
    "corpus.load_s": ("s", "lower"),
    "preprocess.docs": ("count", "lower"),
    "preprocess.s": ("s", "lower"),
    "preprocess.docs_per_s": ("docs/s", "higher"),
    "preprocess.strip_s": ("s", "lower"),
    "porter.stem_calls": ("count", "lower"),
    "porter.stem_distinct": ("count", "lower"),
    "porter.stem_useful_ratio": ("1", "higher"),
    "tfidf.vocab_build_s": ("s", "lower"),
    "tfidf.vectorize_calls": ("count", "lower"),
    "tfidf.vectorize_s": ("s", "lower"),
    "tfidf.cosine_calls": ("count", "lower"),
    "tfidf.cosine_s": ("s", "lower"),
    "embedding.train_s": ("s", "lower"),
    "embedding.train_steps_per_s": ("steps/s", "higher"),
    "embedding.final_loss.pv_dm": ("1", "lower"),
    "embedding.final_loss.pv_dbow": ("1", "lower"),
    "embedding.infer_calls": ("count", "lower"),
    "embedding.infer_s": ("s", "lower"),
    "embedding.infer_docs_per_s": ("docs/s", "higher"),
    "embedding.doc_cosine_calls": ("count", "lower"),
    "rank.localize_calls": ("count", "lower"),
    "rank.localize_p50_ms": ("ms", "lower"),
    "rank.localize_p90_ms": ("ms", "lower"),
    "rank.self_s": ("s", "lower"),
    "rank.history_pairs": ("count", "lower"),
    "metrics.compute_s": ("s", "lower"),
    "metrics.wilcoxon_s": ("s", "lower"),
    **{f"metrics.{kind}.m{m}": ("1", "higher") for m in METHODS for kind in ("mrr", "map")},
    "cache.digest_calls": ("count", "lower"),
    "cache.digest_s": ("s", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.rebuilds": ("count", "lower"),
    "cache.load_s": ("s", "lower"),
    "cache.save_s": ("s", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
}

# metric family -> patch locations its metrics depend on. A family name
# covers itself and the names that extend it with "_" or "."; the first
# matching family wins. A metric whose target is gone is reported as absent.
_DEPENDS = {
    "corpus.load": ["bugloc.cli.load_benchmark"],
    "preprocess.s": ["bugloc.cli.preprocess_benchmark"],
    "preprocess.docs_per_s": ["bugloc.preprocess.preprocess", "bugloc.cli.preprocess_benchmark"],
    "preprocess.docs": ["bugloc.preprocess.preprocess"],
    "preprocess.strip_s": ["bugloc.preprocess.strip_code_noise"],
    "porter.stem": ["bugloc.porter.stem"],
    "tfidf.vocab_build_s": ["bugloc.tfidf.build_global_idf", "bugloc.tfidf.build_vocabulary"],
    "tfidf.vectorize": ["bugloc.tfidf.vectorize"],
    "tfidf.cosine": ["bugloc.tfidf.cosine"],
    "embedding.train": ["bugloc.embedding.train"],
    "embedding.final_loss": ["bugloc.embedding.train"],
    "embedding.infer": ["bugloc.embedding.infer_vector"],
    "embedding.doc_cosine": ["bugloc.embedding.doc_cosine"],
    "rank": ["bugloc.rank.localize"],
    "metrics.compute_s": ["bugloc.metrics.compute_metrics"],
    "metrics.wilcoxon_s": ["bugloc.metrics.wilcoxon_signed_rank"],
    "cache.digest": ["bugloc.cache.corpus_digest"],
    "cache.hits": ["bugloc.cache.ArtifactCache.global_vocabulary",
                   "bugloc.cache.ArtifactCache.embedding_model"],
    "cache.rebuilds": ["bugloc.cache.ArtifactCache.global_vocabulary",
                       "bugloc.cache.ArtifactCache.embedding_model"],
    "cache.load_s": ["bugloc.tfidf.load_vocabulary", "bugloc.embedding.load_model"],
    "cache.save_s": ["bugloc.tfidf.save_vocabulary", "bugloc.embedding.save_model"],
}


def _note_train(span, args, kwargs, model) -> None:
    documents = args[0] if args else kwargs["documents"]
    mode = args[2] if len(args) > 2 else kwargs["mode"]
    span.notes["mode"] = mode
    span.notes["steps"] = model.config.epochs * sum(len(model.token_ids(d)) for d in documents)
    span.notes["final_loss"] = model.epoch_losses[-1] if model.epoch_losses else 0.0


def _note_localize(span, args, kwargs, result) -> None:
    history = kwargs.get("history", args[4] if len(args) > 4 else None)
    span.notes["history"] = len(history) if history is not None else 0


def install(tracer: Tracer) -> None:
    notes = {"bugloc.embedding.train": _note_train, "bugloc.rank.localize": _note_localize}
    for path, name in SPANS:
        tracer.wrap_span(path, name, notes.get(path))
    for path, name in LEAVES:
        tracer.wrap_leaf(path, name, distinct_arg=(name == "porter.stem"))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]); 0 for an empty list."""
    if not values:
        return 0.0
    return sorted(values)[max(0, math.ceil(q * len(values)) - 1)]


def _total(spans) -> float:
    return sum(s.seconds for s in spans)


def absent_metrics(tracer: Tracer) -> list[str]:
    gone = set(tracer.absent)
    out = []
    for metric in PER_LAYER:
        family = next((f for f in _DEPENDS
                       if metric == f or metric.startswith((f + "_", f + "."))), None)
        if family is not None and any(p in gone for p in _DEPENDS[family]):
            out.append(metric)
    return out


# Layers whose share of each CLI command's time a traced run prints. Shares
# are of inclusive times, so nested layers overlap (rank.localize holds the
# tfidf leaves).
SHARE_LAYERS = ["corpus.load", "preprocess.benchmark", "cache.digest", "tfidf.build",
                "tfidf.vectorize", "tfidf.cosine", "embedding.train", "embedding.infer",
                "rank.localize", "metrics.compute"]


def shares(by_command: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """command -> layer -> share of the command's wall time, for the layers
    the command entered."""
    out = {}
    for command, inside in by_command.items():
        total = inside.get(f"cli.{command}", 0.0)
        if total > 0:
            out[command] = {layer: inside[layer] / total for layer in SHARE_LAYERS
                            if inside.get(layer, 0.0) > 0}
    return out


def layer_metrics(tracer: Tracer, quality: dict[int, tuple[float, float]],
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer figures; ``quality`` maps method id -> (mrr, map)."""
    named = tracer.spans_named
    m: dict[str, float] = {}
    m["cli.self_s"] = sum(s.self_s for s in tracer.spans if s.name.startswith("cli."))
    load = named("corpus.load")
    m["corpus.load_calls"] = len(load)
    m["corpus.load_s"] = _total(load)

    doc = tracer.leaf("preprocess.doc")
    m["preprocess.docs"] = doc.calls
    m["preprocess.s"] = _total(named("preprocess.benchmark"))
    m["preprocess.docs_per_s"] = doc.calls / m["preprocess.s"] if m["preprocess.s"] else 0.0
    m["preprocess.strip_s"] = tracer.leaf("preprocess.strip").total_s

    stem = tracer.leaf("porter.stem")
    distinct = len(tracer.distinct.get("porter.stem", ()))
    m["porter.stem_calls"] = stem.calls
    m["porter.stem_distinct"] = distinct
    m["porter.stem_useful_ratio"] = distinct / stem.calls if stem.calls else 0.0

    m["tfidf.vocab_build_s"] = _total(named("tfidf.build"))
    for leaf in ("vectorize", "cosine"):
        stats = tracer.leaf(f"tfidf.{leaf}")
        m[f"tfidf.{leaf}_calls"] = stats.calls
        m[f"tfidf.{leaf}_s"] = stats.total_s

    train = named("embedding.train")
    m["embedding.train_s"] = _total(train)
    steps = sum(s.notes.get("steps", 0) for s in train)
    m["embedding.train_steps_per_s"] = steps / m["embedding.train_s"] if train else 0.0
    for mode in ("pv_dm", "pv_dbow"):
        losses = [s.notes["final_loss"] for s in train if s.notes.get("mode") == mode]
        m[f"embedding.final_loss.{mode}"] = losses[-1] if losses else 0.0
    infer = tracer.leaf("embedding.infer")
    m["embedding.infer_calls"] = infer.calls
    m["embedding.infer_s"] = infer.total_s
    m["embedding.infer_docs_per_s"] = infer.calls / infer.total_s if infer.total_s else 0.0
    m["embedding.doc_cosine_calls"] = tracer.leaf("embedding.doc_cosine").calls

    localize = named("rank.localize")
    latencies = [s.seconds * 1000 for s in localize]
    m["rank.localize_calls"] = len(localize)
    m["rank.localize_p50_ms"] = statistics.median(latencies) if latencies else 0.0
    m["rank.localize_p90_ms"] = percentile(latencies, 0.9)
    m["rank.self_s"] = sum(s.self_s for s in localize)
    m["rank.history_pairs"] = sum(s.notes.get("history", 0) for s in localize)

    m["metrics.compute_s"] = _total(named("metrics.compute"))
    m["metrics.wilcoxon_s"] = _total(named("metrics.wilcoxon"))
    for method in METHODS:
        mrr, map_ = quality.get(method, (0.0, 0.0))
        m[f"metrics.mrr.m{method}"] = mrr
        m[f"metrics.map.m{method}"] = map_

    digest = named("cache.digest")
    m["cache.digest_calls"] = len(digest)
    m["cache.digest_s"] = _total(digest)
    built = {s.parent for s in tracer.spans if s.name in ("tfidf.build", "embedding.train")}
    gets = named("cache.get")
    m["cache.rebuilds"] = sum(1 for s in gets if s.id in built)
    m["cache.hits"] = len(gets) - m["cache.rebuilds"]
    m["cache.load_s"] = _total(named("cache.load"))
    m["cache.save_s"] = _total(named("cache.save"))
    m["trace.overhead_ratio"] = overhead_ratio
    return m
