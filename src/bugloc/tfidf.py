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

Ranking reads token streams as :class:`Rows` (:func:`weigh`) and scores
them with :class:`Postings`. :func:`vectorize`, :func:`cosine` and
:func:`rvsm` are the per-document reference API that both reproduce bit for
bit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import container
from .corpus import Benchmark, Project
from .preprocess import TokenStream


@dataclass
class Vocabulary:
    """Term ids plus the document-frequency model behind IDF weights."""

    term_ids: dict[str, int]
    doc_freq: list[int]
    total_documents: int

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
        total = 0.0
        for w in self.weights.values():  # not sum(), see cosine()
            total += w * w
        return math.sqrt(total)


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


def build_vocabulary(documents: Iterable[TokenStream]) -> Vocabulary:
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
    )


def source_streams(projects: Iterable[Project]) -> list[TokenStream]:
    """The token streams of the projects' source files, in order."""
    streams = []
    for project in projects:
        for src in project.source_files:
            if src.token_stream is None:
                raise ValueError(f"{project.name}/{src.id}: token stream missing; preprocess first")
            streams.append(src.token_stream)
    return streams


def hold_out(whole: Vocabulary, project: Project) -> Vocabulary:
    """The global IDF model of ``whole``, the :func:`build_vocabulary` of
    every project's source files, with ``project`` held out.

    Terms stay those of every project, the held-out one included, and the
    model shares ``whole``'s ``term_ids``; frequency counts and the document
    total exclude the held-out project's files: each is the benchmark's less
    the project's own. Terms seen only there keep a frequency floor of 1 so
    their weight stays defined. A term of the project that ``whole`` lacks,
    as when ``whole`` was stored before an edit, is skipped. Raises
    ``ValueError`` when no document is left to count, or when a frequency
    falls outside the documents left, which a ``whole`` counted from other
    files than ``project``'s can give.
    """
    counted = whole.total_documents - len(project.source_files)
    if counted < 1:
        raise ValueError("no documents left to count after holding out " + project.name)
    own: Counter = Counter()
    for stream in source_streams([project]):
        own.update(set(stream.tokens))
    get, doc_freq = whole.term_ids.get, whole.doc_freq.copy()
    for term, n in own.items():  # only the held-out project's terms can reach the floor
        tid = get(term)
        if tid is not None:
            doc_freq[tid] = max(1, doc_freq[tid] - n)
    return Vocabulary(term_ids=whole.term_ids, doc_freq=doc_freq, total_documents=counted)


def build_global_idf(benchmark: Benchmark, held_out: str) -> Vocabulary:
    """Global vocabulary with leakage-safe document frequencies: the
    :func:`hold_out` of ``held_out`` from the vocabulary of every
    project's source files, counted anew. The artifact cache stores that
    vocabulary once and holds each project out of the stored one."""
    project = benchmark.project(held_out)  # raises on unknown name
    return hold_out(build_vocabulary(source_streams(benchmark.projects)), project)


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


class Rows(NamedTuple):
    """TF.IDF vectors as CSR arrays: row ``i``'s term ids, ascending, are
    ``terms[offsets[i]:offsets[i + 1]]``, their weights are the same span of
    ``weights``, and its norm is ``norms[i]``."""

    offsets: np.ndarray
    terms: np.ndarray
    weights: np.ndarray
    norms: np.ndarray


def weigh(streams: Sequence[TokenStream], vocab: Vocabulary) -> Rows:
    """The :func:`vectorize` weights and ``norm()`` of each stream, one row
    each, bit for bit: a term's frequency is the count of its distinct
    (document, term) pair, ``math.log(f) + 1.0`` is taken once per distinct
    count and :meth:`Vocabulary.idf` once per distinct term, and each norm
    adds its squares in first-occurrence order with one ``np.bincount``."""
    lengths = [len(stream.tokens) for stream in streams]
    get = vocab.term_ids.get
    ids = np.fromiter(chain.from_iterable(map(get, s.tokens, repeat(-1)) for s in streams),
                      dtype=np.int32, count=sum(lengths))
    width = max(len(vocab), 1)  # no term is known to an empty vocabulary
    keys = np.repeat(np.arange(len(lengths), dtype=np.int64) * width, lengths) + ids
    pairs, first, counts = np.unique(keys[ids >= 0], return_index=True, return_counts=True)
    del ids, keys
    docs, terms = np.divmod(pairs, width)
    distinct, term_at = np.unique(terms, return_inverse=True)
    idf = np.array([vocab.idf(t) for t in distinct.tolist()], dtype=float)
    distinct, count_at = np.unique(counts, return_inverse=True)
    tf = np.array([math.log(f) + 1.0 for f in distinct.tolist()], dtype=float)
    weights = tf[count_at] * idf[term_at]
    order = np.argsort(first)
    squares = np.bincount(docs[order], weights=(weights * weights)[order],
                          minlength=len(lengths))
    return Rows(np.concatenate(([0], np.cumsum(np.bincount(docs, minlength=len(lengths))))),
                terms, weights, np.sqrt(squares, dtype=float))


class Postings:
    """Term-major index over TF.IDF vectors (the rows).

    The postings of term ``t`` are ``rows[offsets[t]:offsets[t + 1]]`` with
    their weights in ``weights``; ``norms`` holds each row's norm.

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
    def from_rows(cls, rows: Rows, n_terms: int) -> "Postings":
        """The postings of the vectors ``rows`` over ``n_terms`` term ids:
        a stable sort by term, so each term's rows ascend."""
        order = np.argsort(rows.terms, kind="stable")
        owner = np.repeat(np.arange(len(rows.norms)), np.diff(rows.offsets))
        return cls(owner[order], rows.weights[order],
                   np.concatenate(([0], np.cumsum(np.bincount(rows.terms, minlength=n_terms)))),
                   rows.norms)

    @property
    def n_terms(self) -> int:
        return len(self.offsets) - 1

    def __len__(self) -> int:
        return len(self.norms)

    def cosines(self, queries: Rows, asked: np.ndarray) -> np.ndarray:
        """``cosine(query, row)`` for every row, in row order, of each query
        ``asked`` holds: one result row per entry of ``asked``, an index into
        ``queries``."""
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
# document frequencies and the documents counted.
LAYOUT = container.Layout(b"bugloc-idf v3\n", [
    ("terms", container.STR), ("doc_freq", "i4"), ("documents", "i8")])


def save_vocabulary(vocab: Vocabulary) -> list:
    """The IDF model as the buffers of its artifact, in write order."""
    return LAYOUT.encode({
        "terms": sorted(vocab.term_ids, key=vocab.term_ids.__getitem__),
        "doc_freq": vocab.doc_freq, "documents": [vocab.total_documents],
    })


def load_vocabulary(data: bytes) -> Vocabulary:
    """The IDF model :func:`save_vocabulary` wrote; ``ValueError`` for any
    other bytes."""
    a = LAYOUT.decode(data)
    terms, doc_freq = a["terms"], a["doc_freq"]
    term_ids = {t: i for i, t in enumerate(terms)}
    if len(term_ids) != len(terms) or len(doc_freq) != len(terms) or len(a["documents"]) != 1:
        raise ValueError("IDF model arrays disagree in length or repeat a term")
    return Vocabulary(term_ids=term_ids, doc_freq=doc_freq.tolist(),
                      total_documents=int(a["documents"][0]))
