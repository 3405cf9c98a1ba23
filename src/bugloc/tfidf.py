"""Sparse TF.IDF vectors and the length-weighted cosine ranking score.

Vocabularies are always built from source-file token streams; bug-report
terms missing from the vocabulary carry no weight and are dropped at
vectorization time. Term weights are ``(ln f + 1) * ln(#docs / n_t)`` with
natural logs throughout (the base cancels in every ratio the ranker uses).

The ranking score multiplies the cosine of two weight vectors by a logistic
factor of the candidate file's normalized length, so that larger files get
a bounded boost:

    score = 1 / (1 + exp(-N(#terms))) * cos(w_bug, w_file)

``N`` is min-max normalization of raw term counts over the file corpus
being ranked.

:class:`Postings` scores a batch of queries against a whole collection at
once and reproduces :func:`cosine` for every pair bit for bit (see its
docstring).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import container
from .corpus import Benchmark
from .preprocess import TokenStream


@dataclass
class Vocabulary:
    """Term ids plus the document-frequency model behind IDF weights."""

    term_ids: dict[str, int]
    doc_freq: list[int]
    total_documents: int
    scope: str = "local"
    held_out: str | None = None

    def __post_init__(self):
        if self.total_documents < 1:
            raise ValueError("vocabulary needs at least one counted document")
        for df in self.doc_freq:
            if not 1 <= df <= self.total_documents:
                raise ValueError(f"document frequency {df} outside [1, {self.total_documents}]")

    def __len__(self) -> int:
        return len(self.term_ids)

    def __contains__(self, term: str) -> bool:
        return term in self.term_ids

    def idf(self, term_id: int) -> float:
        return math.log(self.total_documents / self.doc_freq[term_id])


@dataclass
class TfIdfVector:
    """Sparse term_id -> weight map for one document.

    ``term_count`` is the raw stream length before out-of-vocabulary terms
    were dropped; the length normalizer works on raw counts.
    """

    weights: dict[int, float]
    term_count: int = 0

    def norm(self) -> float:
        return math.sqrt(sum(w * w for w in self.weights.values()))


@dataclass(frozen=True)
class LengthNormalizer:
    """Min-max scaler over the raw term counts of the corpus being ranked."""

    min_terms: int
    max_terms: int

    def __post_init__(self):
        if self.min_terms > self.max_terms:
            raise ValueError("min_terms must not exceed max_terms")

    @classmethod
    def from_counts(cls, counts: Iterable[int]) -> "LengthNormalizer":
        counts = list(counts)
        if not counts:
            raise ValueError("cannot build a length normalizer from no documents")
        return cls(min_terms=min(counts), max_terms=max(counts))

    def normalize(self, term_count: int) -> float:
        if self.max_terms == self.min_terms:
            return 0.5
        x = (term_count - self.min_terms) / (self.max_terms - self.min_terms)
        return min(1.0, max(0.0, x))


def build_vocabulary(documents: Iterable[TokenStream], scope: str = "local") -> Vocabulary:
    """Vocabulary and document frequencies over source-file streams.

    Every document counts toward ``total_documents`` even when empty.
    """
    documents = list(documents)
    if not documents:
        raise ValueError("cannot build a vocabulary from an empty document collection")
    df: dict[str, int] = {}
    for doc in documents:
        for term in set(doc.tokens):
            df[term] = df.get(term, 0) + 1
    terms = sorted(df)
    return Vocabulary(
        term_ids={t: i for i, t in enumerate(terms)},
        doc_freq=[df[t] for t in terms],
        total_documents=len(documents),
        scope=scope,
    )


class DocumentFrequencies(NamedTuple):
    """Source-file document frequencies of a whole benchmark, counted once:
    the sorted union vocabulary and its term ids, each term's frequency over
    every project, in term id order, and per project its file count and its
    own frequencies."""

    term_ids: dict[str, int]
    total: list[int]
    projects: dict[str, tuple[int, Counter]]

    @classmethod
    def count(cls, benchmark: Benchmark) -> "DocumentFrequencies":
        total: Counter = Counter()
        projects = {}
        for project in benchmark.projects:
            own: Counter = Counter()
            for src in project.source_files:
                if src.token_stream is None:
                    raise ValueError(
                        f"{project.name}/{src.id}: token stream missing; preprocess first")
                own.update(set(src.token_stream.tokens))
            total.update(own)
            projects[project.name] = (len(project.source_files), own)
        terms = sorted(total)
        return cls({t: i for i, t in enumerate(terms)}, [total[t] for t in terms], projects)


def build_global_idf(benchmark: Benchmark, held_out: str,
                     counts: DocumentFrequencies | None = None) -> Vocabulary:
    """Global vocabulary with leakage-safe document frequencies.

    Terms come from the source files of *every* project, the held-out one
    included; frequency counts and the document total exclude the held-out
    project's files: each is the benchmark's less the held-out project's
    own. Terms seen only there keep a frequency floor of 1 so their weight
    stays defined. ``counts`` are the benchmark's
    :class:`DocumentFrequencies`, counted here when not given; every
    vocabulary built from them shares their ``term_ids``.
    """
    benchmark.project(held_out)  # raises on unknown name
    counts = counts or DocumentFrequencies.count(benchmark)
    own_docs, own = counts.projects[held_out]
    counted_docs = sum(n for n, _ in counts.projects.values()) - own_docs
    if counted_docs == 0:
        raise ValueError("no documents left to count after holding out " + held_out)
    term_ids, doc_freq = counts.term_ids, counts.total.copy()
    for term, n in own.items():  # only the held-out project's terms can reach the floor
        tid = term_ids[term]
        doc_freq[tid] = max(1, doc_freq[tid] - n)
    return Vocabulary(
        term_ids=term_ids,
        doc_freq=doc_freq,
        total_documents=counted_docs,
        scope="global",
        held_out=held_out,
    )


def vectorize(stream: TokenStream, vocab: Vocabulary) -> TfIdfVector:
    """TF.IDF weights for one stream; out-of-vocabulary terms are dropped.

    Terms keep the order of their first occurrence (``Counter`` keeps it),
    which fixes the order :meth:`TfIdfVector.norm` adds the weights in.
    """
    term_ids = vocab.term_ids
    weights = {}
    for term, f in Counter(stream.tokens).items():
        tid = term_ids.get(term)
        if tid is not None:
            weights[tid] = (math.log(f) + 1.0) * vocab.idf(tid)
    return TfIdfVector(weights=weights, term_count=len(stream.tokens))


def cosine(u: TfIdfVector, v: TfIdfVector) -> float:
    """Cosine similarity of sparse vectors; 0 when either norm is zero.

    The shared terms are summed in sorted id order so the result is
    bit-identical under argument swap.
    """
    nu, nv = u.norm(), v.norm()
    if nu == 0.0 or nv == 0.0:
        return 0.0
    if len(u.weights) > len(v.weights):
        u, v = v, u
    dot = 0.0
    # a plain loop, not sum(): from Python 3.12 on sum() compensates float
    # rounding, and Postings.cosines must reproduce this order exactly
    for tid in sorted(tid for tid in u.weights if tid in v.weights):
        dot += u.weights[tid] * v.weights[tid]
    return dot / (nu * nv)


def length_weight(term_count: int, norm: LengthNormalizer) -> float:
    """The logistic length factor rVSM gives a file of ``term_count`` terms."""
    return 1.0 / (1.0 + math.exp(-norm.normalize(term_count)))


def rvsm(bug: TfIdfVector, file: TfIdfVector, norm: LengthNormalizer) -> float:
    """Length-weighted cosine score of a bug report against one file."""
    return length_weight(file.term_count, norm) * cosine(bug, file)


def span_indices(offsets: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the spans ``offsets[i]:offsets[i + 1]`` for each ``i`` in
    ``ids``, concatenated in the order of ``ids``, and for each position the
    index into ``ids`` of the span it came from."""
    starts = offsets[ids]
    counts = offsets[ids + 1] - starts
    owner = np.repeat(np.arange(len(ids)), counts)
    shift = starts - (np.cumsum(counts) - counts)
    return np.arange(len(owner)) + shift[owner], owner


def queries(vectors: Sequence[TfIdfVector]) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                     np.ndarray]:
    """What :meth:`Postings.cosines` reads of each vector as a query, as CSR
    arrays ``(offsets, terms, weights, norms)``: vector ``i``'s term ids in
    ascending order are ``terms[offsets[i]:offsets[i + 1]]``, their weights
    are the same span of ``weights``, and its norm is ``norms[i]``."""
    terms = [sorted(v.weights) for v in vectors]
    lengths = [len(t) for t in terms]
    flat = np.fromiter(chain.from_iterable(terms), dtype=np.int64, count=sum(lengths))
    weights = np.fromiter((v.weights[t] for v, ts in zip(vectors, terms) for t in ts),
                          dtype=float, count=len(flat))
    return (np.concatenate(([0], np.cumsum(lengths, dtype=np.int64))), flat, weights,
            np.array([v.norm() for v in vectors], dtype=float))


class Postings:
    """Term-major index over a list of TF.IDF vectors (the rows).

    The postings of term ``t`` are ``rows[offsets[t]:offsets[t + 1]]`` with
    their weights in ``weights``; ``norms`` holds each row's
    :meth:`TfIdfVector.norm`, computed once.

    :meth:`cosines` gathers each query's postings in ascending term id,
    query after query, and accumulates the products with one
    ``np.bincount`` over the bins ``query * len(self) + row``, which adds
    each bin's products one after another from 0 in input order, without
    compensation. That is the order and the arithmetic of :func:`cosine`'s
    loop over shared terms (a loop because ``sum()`` compensates float
    rounding from Python 3.12 on), so every score equals
    ``cosine(query, row)`` bit for bit, however many queries are asked at once.
    """

    def __init__(self, rows: np.ndarray, weights: np.ndarray, offsets: np.ndarray,
                 norms: np.ndarray):
        self.rows = rows
        self.weights = weights
        self.offsets = offsets
        self.norms = norms
        self._scored = np.flatnonzero(norms)   # rows with a nonzero norm
        self._scored_norms = norms[self._scored]

    @classmethod
    def from_vectors(cls, vectors: Sequence[TfIdfVector], n_terms: int) -> "Postings":
        lengths = [len(v.weights) for v in vectors]
        terms = np.fromiter(chain.from_iterable(v.weights for v in vectors),
                            dtype=np.intp, count=sum(lengths))
        weights = np.fromiter(chain.from_iterable(v.weights.values() for v in vectors),
                              dtype=float, count=len(terms))
        order = np.argsort(terms, kind="stable")
        return cls(np.repeat(np.arange(len(vectors)), lengths)[order], weights[order],
                   np.concatenate(([0], np.cumsum(np.bincount(terms, minlength=n_terms)))),
                   np.array([v.norm() for v in vectors], dtype=float))

    @property
    def n_terms(self) -> int:
        return len(self.offsets) - 1

    def __len__(self) -> int:
        return len(self.norms)

    def cosines(self, queries, asked: np.ndarray) -> np.ndarray:
        """``cosine(query, row)`` for every row, in row order, of each query
        ``asked`` holds: one result row per entry of ``asked``, an index into
        ``queries``, the CSR arrays ``(offsets, terms, weights, norms)``
        :func:`queries` gives."""
        offsets, terms, weights, norms = queries
        n = len(self)
        spans, query_of = span_indices(offsets, asked)
        idx, owner = span_indices(self.offsets, terms[spans])
        dots = np.bincount(query_of[owner] * n + self.rows[idx],
                           weights=weights[spans][owner] * self.weights[idx],
                           minlength=len(asked) * n).reshape(len(asked), n)
        norms = norms[asked]
        out = np.zeros((len(asked), n))
        out[:, self._scored] = np.divide(
            dots[:, self._scored], np.outer(norms, self._scored_norms),
            out=np.zeros((len(asked), len(self._scored))), where=(norms != 0.0)[:, None])
        return out


# The IDF model's artifact (see bugloc.container): terms in id order, their
# document frequencies, the documents counted, scope and held-out project if any.
LAYOUT = container.Layout(b"bugloc-idf v2\n", [
    ("terms", container.STR), ("doc_freq", "i4"), ("documents", "i8"),
    ("scope", container.STR), ("held_out", container.STR)])


def save_vocabulary(vocab: Vocabulary) -> list:
    """The IDF model as the buffers of its artifact, in write order."""
    return LAYOUT.encode({
        "terms": sorted(vocab.term_ids, key=vocab.term_ids.__getitem__),
        "doc_freq": vocab.doc_freq, "documents": [vocab.total_documents],
        "scope": [vocab.scope], "held_out": [vocab.held_out] if vocab.held_out else [],
    })


def load_vocabulary(data: bytes) -> Vocabulary:
    """The IDF model :func:`save_vocabulary` wrote; ``ValueError`` for any
    other bytes."""
    a = LAYOUT.decode(data)
    terms, doc_freq = a["terms"], a["doc_freq"]
    term_ids = {t: i for i, t in enumerate(terms)}
    if (len(term_ids) != len(terms) or len(doc_freq) != len(terms) or len(a["documents"]) != 1
            or len(a["scope"]) != 1 or len(a["held_out"]) > 1):
        raise ValueError("IDF model arrays disagree in length or repeat a term")
    return Vocabulary(term_ids=term_ids, doc_freq=doc_freq.tolist(),
                      total_documents=int(a["documents"][0]), scope=a["scope"][0],
                      held_out=a["held_out"][0] if a["held_out"] else None)
