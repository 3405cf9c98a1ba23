"""Direct and indirect relevancy scoring and the seven ranking methods.

Direct relevancy compares the query report against every source file;
indirect relevancy compares it against historical bug reports and bridges
their similarity to the files each one fixed:

    indirect(f) = sum over history reports B fixing f of sim(query, B) / |fixed(B)|

Both score maps are min-max normalized per query and fused with a weighted
average (default 0.8 direct / 0.2 indirect). The method table:

    1  local TF.IDF, direct only          5  global doc vectors, direct only
    2  global TF.IDF, direct only         6  global TF.IDF + doc-vector history
    3  local TF.IDF, both functions       7  TF.IDF and doc vectors combined
    4  global TF.IDF, both functions         on both functions

Combined scoring (method 7) normalizes the TF.IDF and doc-vector maps to
[0, 1] separately and averages them per relevancy function.

Scores are numpy arrays over the project's files in path order, and
reports are addressed only as rows of the project's reports (in
``Artifacts.report_ids`` order): a query is a row and its history an int
array of rows, so neither can name a report of another project.

:func:`localize` ranks a batch of queries in one pass: an int array of
rows, each with its own history, gives one :class:`RankedList` whose
score arrays and ``entries`` (the file columns in ranked order) have one
row per query. An int row is the batch of one, returned as that query's
1-D :class:`RankedList`. Every path runs the same kernel, in chunks of a
bounded number of (query, document) pairs, counting the project's files
and reports, so a one-row call builds 1×F and 1×R arrays and a batch's
working arrays stay the size of a chunk's; only the result arrays grow
with the batch. Those are scored once per model: the batch's direct and
history-bridged score arrays of each model kind (a TF.IDF scope, the doc
vectors) are kept in :class:`BatchScores` by the :class:`Artifacts`, and
every method that ranks the same rows with the same histories fuses,
sorts and ranks from them; its :class:`RankedList` refers to them.

- TF.IDF: per scope, a :class:`TfidfScope` holds the files'
  :class:`~bugloc.tfidf.Postings`, their length factors, the reports'
  :class:`~bugloc.tfidf.Rows`, the queries, and the cosine of each pair
  of reports: :func:`build_scope` weighs them from the token streams, or
  the cache's ranking index holds them (the same float64 arrays). Direct
  scores are the length factors times ``Postings.cosines``: one
  ``bincount`` over the bins ``query * n + row`` of the chunk's query
  spans. The similarities to history reports are looked up in the pair
  cosines, which ``Postings.cosines`` computed once, against the reports'
  postings, the same bits in either order of the pair.
- Doc vectors (:class:`DocVectors`) are inferred in two batches
  (:func:`~bugloc.embedding.combined_matrix`): all of the project's files
  and all of its reports, each once, kept as matrix rows with their norms;
  or the cache's doc-vector index holds them (the same float64 arrays).
  Similarities are one matrix-vector product per query, over the file
  rows or that query's history rows, equal to the per-pair
  :func:`~bugloc.embedding.doc_cosine` within rounding. The direct scores
  of a chunk are one stacked ``np.matmul`` (numpy runs it as those
  matrix-vector products), the history similarities one
  :func:`~bugloc.embedding.doc_cosines` per query, over that query's
  gathered history rows. A matrix-matrix product, or one over more rows
  than the query's history, would round differently and can flip ties.
- The bridge is one ``bincount`` of ``sim / |fixed(B)|`` over the bins
  ``query * F + column`` of the (report, fixed file) pairs of the
  concatenated histories, in history order. Min-max, fusion and the stable
  sort work row by row.

Each bin sums the products of the per-pair formulas
(:func:`~bugloc.tfidf.rvsm`, :func:`~bugloc.tfidf.cosine`, a dict summed in
history order) in the same order, so the TF.IDF scores are bit-identical
to them, and a batch's arrays equal those of its one-row calls bit for
bit.

A batch's histories are one :class:`Histories`, CSR arrays of history
rows: :func:`project_histories` builds those of a project's reports under
a policy with numpy alone, and a list of per-query row arrays is converted
once, on entry to :func:`localize`; each chunk slices it.

Every method reads one :class:`Artifacts` per project: its file and
report ids, its fixed files as CSR arrays, a :class:`TfidfScope` per
scope and the :class:`DocVectors`. :meth:`Artifacts.of` takes the ids and
fixed files from a loaded project;
:meth:`~bugloc.cache.ArtifactCache.artifacts` gives all of them, from the
project's ranking indexes or built and stored.

``evaluate`` ranks all of a project's reports with one call per method,
with the whole project's :class:`Histories`, built once for every method,
so the methods share the models' scores, and scores each batch from the
ranks of the reports' fixed files: :meth:`RankedList.ranks_of` reads them
off ``entries`` for the fixed-file CSR arrays (:attr:`Artifacts.fixed`)
and returns them as CSR arrays too, which
:func:`~bugloc.metrics.compute_metrics` scores without a per-query object.
:class:`RankEntry` rows exist only for a ranking that is written or
printed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import embedding, tfidf
from .corpus import Project
from .errors import CorpusError

TFIDF_LOCAL = "tfidf_local"
TFIDF_GLOBAL = "tfidf_global"
DOC2VEC_GLOBAL = "doc2vec_global"
COMBINED_GLOBAL = "tfidf_global+doc2vec_global"
NONE = "none"

_METHOD_TABLE = {
    1: (TFIDF_LOCAL, NONE, 1.0, 0.0),
    2: (TFIDF_GLOBAL, NONE, 1.0, 0.0),
    3: (TFIDF_LOCAL, TFIDF_LOCAL, 0.8, 0.2),
    4: (TFIDF_GLOBAL, TFIDF_GLOBAL, 0.8, 0.2),
    5: (DOC2VEC_GLOBAL, NONE, 1.0, 0.0),
    6: (TFIDF_GLOBAL, DOC2VEC_GLOBAL, 0.8, 0.2),
    7: (COMBINED_GLOBAL, COMBINED_GLOBAL, 0.8, 0.2),
}


@dataclass(frozen=True)
class MethodConfig:
    method_id: int
    direct_model: str
    indirect_model: str
    w1: float = 0.8
    w2: float = 0.2

    def __post_init__(self):
        if abs(self.w1 + self.w2 - 1.0) > 1e-9:
            raise ValueError("fusion weights must sum to 1")

    @classmethod
    def from_id(cls, method_id: int, w1: float | None = None) -> "MethodConfig":
        if method_id not in _METHOD_TABLE:
            raise ValueError(f"unknown method id {method_id} (valid: 1..7)")
        direct, indirect, default_w1, default_w2 = _METHOD_TABLE[method_id]
        if w1 is not None and indirect != NONE:
            return cls(method_id, direct, indirect, w1, 1.0 - w1)
        return cls(method_id, direct, indirect, default_w1, default_w2)

    @property
    def tfidf_scopes(self) -> set[str]:
        """The TF.IDF scopes ("local", "global") the method ranks with."""
        kinds = {self.direct_model, self.indirect_model}
        if COMBINED_GLOBAL in kinds:
            kinds.add(TFIDF_GLOBAL)
        return {_TFIDF_SCOPES[k] for k in kinds if k in _TFIDF_SCOPES}

    @property
    def needs_global_tfidf(self) -> bool:
        return "global" in self.tfidf_scopes

    @property
    def needs_embeddings(self) -> bool:
        return any(m in (DOC2VEC_GLOBAL, COMBINED_GLOBAL)
                   for m in (self.direct_model, self.indirect_model))


class RankEntry(NamedTuple):
    """One row of a written or printed ranking."""

    file_id: str
    final_score: float
    direct_score: float
    indirect_score: float


@dataclass
class RankedList:
    """One query's scores over the project's files, and their order; or a
    batch of queries', one row each.

    ``final``, ``direct`` and ``indirect`` are score arrays over ``files``,
    the project's file ids in path order. ``entries`` holds the file
    columns from best to worst: a stable sort of ``final``, so tied files
    keep path order. For a batch the four arrays are 2-D (queries × files)
    and ``query_bug_id`` lists the queries' bug ids; :meth:`ranks_of` reads
    both forms, one query's as a batch of one, and returns CSR arrays; the
    other methods read one query's. :class:`RankEntry` rows are built only
    by :meth:`rows`, for output.

    ``direct`` and ``indirect`` may be read-only arrays shared with the
    results of other methods of the same batch (:class:`BatchScores`), or
    views into them; one query's are a row of the batch's, which stays in
    memory while the row does. Copy them before editing them.
    """

    query_bug_id: str | list[str]
    method_id: int
    files: list[str]
    final: np.ndarray
    direct: np.ndarray
    indirect: np.ndarray
    entries: np.ndarray

    @property
    def file_ids(self) -> list[str]:
        """File ids from best to worst."""
        files = self.files
        return [files[j] for j in self.entries.tolist()]

    def rows(self, limit: int | None = None) -> list[RankEntry]:
        """The first ``limit`` ranked files (all by default) as rows, best first."""
        order = self.entries[:limit]
        files = self.files
        return list(map(RankEntry, [files[j] for j in order.tolist()],
                        self.final[order].tolist(), self.direct[order].tolist(),
                        self.indirect[order].tolist()))

    def ranks_of(self, offsets: np.ndarray,
                 columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ranks of the files at the CSR columns: query ``i`` of the batch (the
        one query of a 1-D list) asks for the files at
        ``columns[offsets[i]:offsets[i + 1]]``, as :attr:`Artifacts.fixed`
        holds them. Returns CSR arrays: query ``i``'s ascending 1-based ranks
        are ``ranks[rank_offsets[i]:rank_offsets[i + 1]]``."""
        entries = np.atleast_2d(self.entries)
        wanted = np.zeros(entries.shape, dtype=bool)
        wanted[np.repeat(np.arange(len(entries)), np.diff(offsets)), columns] = True
        # row-major, so the ranks come out query by query, each ascending
        queries, positions = np.nonzero(np.take_along_axis(wanted, entries, axis=1))
        counts = np.bincount(queries, minlength=len(entries))
        return np.concatenate(([0], np.cumsum(counts))), positions + 1

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self.dump_csv(fh)

    def dump_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bug_id", "rank", "file_path", "final", "direct", "indirect"])
        for rank, e in enumerate(self.rows(), start=1):
            writer.writerow([self.query_bug_id, rank, e.file_id,
                             f"{e.final_score:.10g}", f"{e.direct_score:.10g}",
                             f"{e.indirect_score:.10g}"])


_TFIDF_SCOPES = {TFIDF_LOCAL: "local", TFIDF_GLOBAL: "global"}


def _streams(docs) -> list:
    """The documents' token streams; ``ValueError`` for a document without one."""
    streams = [d.token_stream for d in docs]
    for doc, stream in zip(docs, streams):
        if stream is None:
            raise ValueError(f"{doc.id}: token stream missing; preprocess first")
    return streams


class TfidfScope:
    """A project's TF.IDF arrays under one vocabulary: what ranking reads.

    ``files`` holds the file postings (rows in path order),
    ``length_weights`` the rVSM logistic factor of each file and
    ``queries`` the reports' rows. ``report_sims`` holds the cosine of each
    pair of reports once: the lower triangle of the reports × reports
    matrix, diagonal included, row by row in one flat array, so the pair
    (i, j) sits at ``hi * (hi + 1) // 2 + lo``; :meth:`report_cosines`
    reads it. It is given (the cache's ranking index holds it) or computed
    when history is first ranked or the scope is stored, so a direct-only
    method without a cache never computes it.
    """

    def __init__(self, files: tfidf.Postings, length_weights: np.ndarray,
                 queries: tfidf.Rows, report_sims: np.ndarray | None = None):
        self.files = files
        self.length_weights = length_weights
        self.queries = queries
        if report_sims is not None:  # else computed on first use
            self.report_sims = report_sims

    @staticmethod
    def n_pairs(n_reports: int) -> int:
        """The length of the ``report_sims`` of ``n_reports`` reports."""
        return n_reports * (n_reports + 1) // 2

    @cached_property
    def report_sims(self) -> np.ndarray:
        """``Postings.cosines`` of each report against the reports' postings,
        the columns up to the report kept, into one array. Each bin adds its
        products as ``cosine`` does, whichever other pairs are computed, and
        ``cosine`` is the same bit for bit under argument swap, so one entry
        serves both orders. The rows go in chunks of as many rows as a
        batch's (about ``_CHUNK_SCORES`` pairs, counting files and reports),
        so the working arrays stay the size of a chunk's."""
        queries = self.queries
        n = len(queries.norms)
        reports = tfidf.Postings.from_rows(queries, self.files.n_terms)
        sims = np.empty(self.n_pairs(n))
        columns = np.arange(n)
        step = max(1, _CHUNK_SCORES // max(len(self.files) + n, 1))
        for start in range(0, n, step):
            rows = columns[start:start + step]
            # row by row, the columns up to the row: the triangle's order
            sims[self.n_pairs(start):self.n_pairs(rows[-1] + 1)] = \
                reports.cosines(queries, rows)[columns <= rows[:, None]]
        sims.flags.writeable = False
        return sims

    def report_cosines(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``cosine`` of the reports at rows ``a[k]`` and ``b[k]``, for each
        ``k``, read from ``report_sims``."""
        hi, lo = np.maximum(a, b), np.minimum(a, b)
        return self.report_sims[self.n_pairs(hi) + lo]

    @classmethod
    def unranked(cls, n_files: int) -> TfidfScope:
        """The scope of a project with no reports, which nothing ranks: no
        term, and ``n_files`` files of norm 0."""
        none, zeros = np.zeros(0, dtype=np.intp), np.zeros(n_files)
        return cls(tfidf.Postings(none, np.zeros(0), np.zeros(1, dtype=np.intp), zeros), zeros,
                   tfidf.Rows(np.zeros(1, dtype=np.intp), none, np.zeros(0), np.zeros(0)))


def _path_order(project: Project) -> list:
    """The project's source files in path order, the order of score arrays."""
    return sorted(project.source_files, key=lambda f: f.id)


def build_scope(project: Project, vocab: tfidf.Vocabulary | None = None) -> TfidfScope:
    """The project's TF.IDF arrays under ``vocab``, by default the local
    vocabulary of its source files, weighed from its token streams; for a
    project without reports, which nothing ranks, the unranked scope."""
    if not project.has_queries:
        return TfidfScope.unranked(len(project.source_files))
    streams = _streams(project.source_files)
    if vocab is None:
        vocab = tfidf.build_vocabulary(streams)
    normalizer = tfidf.LengthNormalizer.from_counts(map(len, streams))
    ordered = _streams(_path_order(project))
    return TfidfScope(tfidf.Postings.from_rows(tfidf.weigh(ordered, vocab), len(vocab)),
                      np.array([tfidf.length_weight(len(s), normalizer) for s in ordered]),
                      tfidf.weigh(_streams(project.bug_reports), vocab))


class DocVectors(NamedTuple):
    """A project's combined DM+DBOW doc vectors as matrix rows: its files'
    in path order and its reports' in row order, each row with its norm."""

    files: np.ndarray
    file_norms: np.ndarray
    reports: np.ndarray
    report_norms: np.ndarray

    @classmethod
    def infer(cls, project: Project, dm_model: embedding.EmbeddingModel,
              dbow_model: embedding.EmbeddingModel, epochs: int | None = None) -> DocVectors:
        """The vectors of the project's files and of its reports, inferred
        from their token streams in one batch each."""
        def rows(docs):
            vectors, _ = embedding.combined_matrix(_streams(docs), dm_model, dbow_model,
                                                   epochs=epochs)
            # one norm per row, computed as doc_cosine computes it
            return vectors, np.array([np.linalg.norm(v) for v in vectors])

        return cls(*rows(_path_order(project)), *rows(project.bug_reports))

    @classmethod
    def unranked(cls, n_files: int, size: int) -> DocVectors:
        """The vectors of a project with no reports, which nothing ranks:
        ``n_files`` zero vectors of ``size`` values."""
        return cls(np.zeros((n_files, size)), np.zeros(n_files), np.zeros((0, size)),
                   np.zeros(0))


class Artifacts:
    """One project's ranking arrays, as every method reads them.

    ``file_ids`` are the project's source files in path order, the order of
    every score array, so a stable sort keeps tied files in path order;
    ``report_ids`` are its reports in row order. ``fixed`` holds each
    report's fixed files as CSR arrays: report ``i`` fixed the files at the
    ascending columns ``columns[offsets[i]:offsets[i + 1]]``.
    ``fixed_counts`` holds each report's ``|fixed files|``, by default its
    number of columns, as for a loaded project, whose fixed files all
    resolve to its files. ``scopes`` holds a :class:`TfidfScope` per
    TF.IDF scope ("local", "global") and ``doc_vectors`` the
    :class:`DocVectors`, or None; a method ranks only with the arrays
    supplied, and reads no token stream and no model.

    :meth:`of` takes the ids and fixed files from a project;
    :meth:`~bugloc.cache.ArtifactCache.artifacts` gives all of the arrays.

    The scores of the last batch ranked are kept (:meth:`batch_scores`)
    until a different batch is ranked, :meth:`keep_scores` frees them or
    the artifacts are freed.
    """

    def __init__(self, name: str, file_ids: list[str], report_ids: list[str],
                 fixed: tuple[np.ndarray, np.ndarray], scopes: dict[str, TfidfScope],
                 doc_vectors: DocVectors | None = None, fixed_counts: np.ndarray | None = None):
        self.name = name
        self.file_ids = file_ids
        self.report_ids = report_ids
        self.fixed = fixed
        self.fixed_counts = np.diff(fixed[0]) if fixed_counts is None else fixed_counts
        self.scopes = scopes
        self.doc_vectors = doc_vectors
        self._batch: BatchScores | None = None

    @classmethod
    def of(cls, project: Project, scopes: dict[str, TfidfScope],
           doc_vectors: DocVectors | None = None) -> Artifacts:
        """The project's ids and fixed files with the given arrays. A fixed
        file missing from the project has no column but counts in
        ``fixed_counts``."""
        reports = project.bug_reports
        file_ids = [f.id for f in _path_order(project)]
        column = {fid: j for j, fid in enumerate(file_ids)}
        counts, columns = [], []
        for report in reports:
            fixed = sorted(column[fid] for fid in report.fixed_files if fid in column)
            counts.append(len(fixed))
            columns += fixed
        return cls(project.name, file_ids, [r.id for r in reports],
                   (np.concatenate(([0], np.cumsum(counts, dtype=np.intp))),
                    np.array(columns, dtype=np.intp)), scopes, doc_vectors,
                   np.array([len(r.fixed_files) for r in reports], dtype=np.intp))

    def row(self, bug_id: str) -> int:
        """Row of the report with id ``bug_id``."""
        try:
            return self.report_ids.index(bug_id)
        except ValueError:
            raise CorpusError(f"unknown bug id {bug_id!r} in project {self.name}") from None

    @cached_property
    def _pair_sizes(self) -> np.ndarray:
        """The ``|fixed files|`` of the report of each pair of :attr:`fixed`,
        as floats."""
        return np.repeat(self.fixed_counts, np.diff(self.fixed[0])).astype(float)

    def batch_scores(self, rows: np.ndarray, history: Histories) -> BatchScores:
        """The scores of the batch ``rows`` with ``history``: those kept for
        the last batch ranked if it is the same batch, else a new, empty
        :class:`BatchScores` that replaces them."""
        if self._batch is None or not self._batch.holds(rows, history):
            self._batch = BatchScores(rows, history, len(self.file_ids), len(self.report_ids))
        return self._batch

    def keep_scores(self, configs) -> None:
        """Free the kept batch scores that none of the methods ``configs``
        ranks with; ``evaluate`` passes the methods it has yet to run."""
        if self._batch is not None:
            self._batch.keep(configs)

    def _bridge(self, history: Histories, sims: np.ndarray) -> np.ndarray:
        """Per query of the batch and file, the sum over the query's history
        reports B that fixed the file of ``sims[B] / |fixed(B)|`` (``sims``
        follows ``history.rows``), added up in history order as a dict
        accumulation would: one ``bincount`` over the bins ``query * F +
        column``."""
        offsets, columns = self.fixed
        idx, positions = tfidf.span_indices(offsets, history.rows)
        n_queries, n_files = len(history.offsets) - 1, len(self.file_ids)
        # float even when no pair is drawn on: bincount gives ints for no input
        scores = np.bincount(history.owner[positions] * n_files + columns[idx],
                             weights=sims[positions] / self._pair_sizes[idx],
                             minlength=n_queries * n_files).astype(float, copy=False)
        return scores.reshape(n_queries, n_files)


def _minmax(scores: np.ndarray) -> np.ndarray:
    """Each row of ``scores`` (or the one score array) scaled to [0, 1]."""
    lo = scores.min(axis=-1, keepdims=True)
    hi = scores.max(axis=-1, keepdims=True)
    # Constant maps (including all-zero) normalize to zero so they cannot
    # perturb the fused ranking.
    return np.divide(scores - lo, hi - lo, out=np.zeros_like(scores), where=hi != lo)


def _combined(lexical: np.ndarray, semantic: np.ndarray) -> np.ndarray:
    return (_minmax(lexical) + _minmax(semantic)) / 2


def fuse(direct: np.ndarray, indirect: np.ndarray, w1: float, w2: float) -> np.ndarray:
    """Min-max normalize both score arrays and combine them as w1*d + w2*i;
    2-D arrays are normalized row by row."""
    return w1 * _minmax(direct) + w2 * _minmax(indirect)


# localize scores a batch in chunks of about this many (query, document)
# pairs, documents being the project's files and reports (the direct scores
# and the history similarities), so that a chunk's working arrays stay
# cache-sized and memory does not grow with the number of queries; a TF.IDF
# scope computes its report cosines in chunks of as many rows
_CHUNK_SCORES = 1 << 14


class Histories:
    """The history rows of a batch of queries, as CSR arrays: query ``i`` of
    the batch may draw on ``rows[offsets[i]:offsets[i + 1]]``, and ``owner``
    holds the batch index of the query each of ``rows`` belongs to.
    ``len()`` is the number of queries, and a slice of the batch
    (``histories[start:stop]``) is the histories of those queries."""

    __slots__ = ("rows", "owner", "offsets")

    def __init__(self, rows: np.ndarray, owner: np.ndarray, offsets: np.ndarray):
        self.rows = rows
        self.owner = owner
        self.offsets = offsets

    @classmethod
    def of(cls, history) -> Histories:
        """The histories of a batch, one int array of rows per query."""
        lengths = [len(past) for past in history]
        return cls(np.concatenate([np.zeros(0, dtype=np.intp),
                                   *(np.asarray(past, dtype=np.intp) for past in history)]),
                   np.repeat(np.arange(len(history)), lengths),
                   np.concatenate(([0], np.cumsum(lengths, dtype=np.intp))))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, chunk: slice) -> Histories:
        start, stop, _ = chunk.indices(len(self))
        lo, hi = self.offsets[start], self.offsets[stop]
        return Histories(self.rows[lo:hi], self.owner[lo:hi] - start,
                         self.offsets[start:stop + 1] - lo)


def _arrays(artifacts: Artifacts, kind: str):
    """The arrays a model ranks with: its TF.IDF scope or the doc vectors."""
    arrays = (artifacts.doc_vectors if kind == DOC2VEC_GLOBAL
              else artifacts.scopes.get(_TFIDF_SCOPES[kind]))
    if arrays is None:
        raise ValueError(f"{kind} arrays required but not supplied")
    return arrays


def _direct_scores(rows: np.ndarray, kind: str, artifacts: Artifacts) -> np.ndarray:
    """Direct scores of the project's reports ``rows`` (one score row each)
    against every file, under one model: a TF.IDF scope or the doc vectors."""
    if kind in _TFIDF_SCOPES:
        data = _arrays(artifacts, kind)
        return data.length_weights * data.files.cosines(data.queries, rows)
    if kind != DOC2VEC_GLOBAL:
        raise ValueError(f"unknown direct model {kind!r}")
    vectors = _arrays(artifacts, kind)
    # one stacked product: numpy runs it as one matrix-vector product per
    # query, bit for bit as embedding.doc_cosines computes each row; the
    # matrix-matrix product reports @ files.T rounds differently
    products = np.matmul(vectors.files, vectors.reports[rows][:, :, None])[:, :, 0]
    norms = vectors.report_norms[rows]
    return np.divide(products, np.outer(norms, vectors.file_norms),
                     out=np.zeros(products.shape),
                     where=(norms != 0.0)[:, None] & (vectors.file_norms != 0.0))


def _history_sims(rows: np.ndarray, history: Histories, kind: str,
                  artifacts: Artifacts) -> np.ndarray:
    """Similarity of each query to each of its history reports, aligned
    with ``history.rows``."""
    if kind == DOC2VEC_GLOBAL:
        # one matrix-vector product per query over exactly its own history
        # rows: a product over more rows, or a matrix-matrix product, rounds
        # differently and can flip ties
        doc_vectors = _arrays(artifacts, kind)
        vectors, norms = doc_vectors.reports, doc_vectors.report_norms
        offsets = history.offsets.tolist()
        sims = np.empty(len(history.rows))
        for i, row in enumerate(rows.tolist()):
            past = history.rows[offsets[i]:offsets[i + 1]]
            sims[offsets[i]:offsets[i + 1]] = embedding.doc_cosines(
                vectors[past], norms[past], vectors[row], norms[row])
        return sims
    if kind not in _TFIDF_SCOPES:
        raise ValueError(f"unknown indirect model {kind!r}")
    return _arrays(artifacts, kind).report_cosines(rows[history.owner], history.rows)


class BatchScores:
    """The direct and history-bridged scores of one batch of queries (report
    ``rows``, each with its span of ``history``), one array per model kind,
    each computed on first use, in chunks, and kept for the methods that
    rank the same batch until :meth:`keep` drops it. Every method's
    :class:`RankedList` of the batch refers to these arrays, so they are
    read-only. Method 7's combined maps are derived from the TF.IDF-global
    and doc-vector arrays on each use, and those are dropped once combined:
    ``evaluate`` runs the methods in ascending order, so none ranks with
    them after method 7, and another caller's later method scores them
    anew. The scores come from the :class:`Artifacts` passed in, which keep
    this object; it keeps no reference back, so the project's arrays are
    freed with the artifacts, not at the next garbage collection.
    """

    def __init__(self, rows: np.ndarray, history: Histories, n_files: int, n_reports: int):
        self.rows = rows
        self.history = history
        self.shape = (len(rows), n_files)
        # chunks of about _CHUNK_SCORES (query, document) pairs, documents
        # being the project's files and reports
        step = max(1, _CHUNK_SCORES // (n_files + n_reports))
        self.chunks = [slice(start, start + step) for start in range(0, len(rows), step)]
        self._direct: dict[str, np.ndarray] = {}
        self._indirect: dict[str, np.ndarray] = {}

    def holds(self, rows: np.ndarray, history: Histories) -> bool:
        """Whether these are the scores of the batch ``rows`` with ``history``."""
        return (np.array_equal(self.rows, rows)
                and np.array_equal(self.history.offsets, history.offsets)
                and np.array_equal(self.history.rows, history.rows))

    def keep(self, configs) -> None:
        """Drop the arrays that none of the methods ``configs`` ranks with."""
        def kinds(models):
            return {kind for model in models
                    for kind in ((TFIDF_GLOBAL, DOC2VEC_GLOBAL) if model == COMBINED_GLOBAL
                                 else (model,))}
        direct = kinds(config.direct_model for config in configs)
        indirect = kinds(config.indirect_model for config in configs)
        self._direct = {k: v for k, v in self._direct.items() if k in direct}
        self._indirect = {k: v for k, v in self._indirect.items() if k in indirect}

    def _chunked(self, score) -> np.ndarray:
        """The batch's array of ``score(chunk)`` for each chunk, read-only."""
        out = np.empty(self.shape)
        for chunk in self.chunks:
            out[chunk] = score(chunk)
        out.flags.writeable = False
        return out

    def _combine(self, score, kept: dict, artifacts: Artifacts) -> np.ndarray:
        """Method 7's map of the TF.IDF-global and doc-vector arrays that
        ``score`` gives, which are dropped from ``kept``."""
        lexical = score(TFIDF_GLOBAL, artifacts)
        semantic = score(DOC2VEC_GLOBAL, artifacts)
        kept.pop(TFIDF_GLOBAL)
        kept.pop(DOC2VEC_GLOBAL)
        return self._chunked(lambda c: _combined(lexical[c], semantic[c]))

    def direct(self, kind: str, artifacts: Artifacts) -> np.ndarray:
        if kind == COMBINED_GLOBAL:
            return self._combine(self.direct, self._direct, artifacts)
        if kind not in self._direct:
            self._direct[kind] = self._chunked(
                lambda c: _direct_scores(self.rows[c], kind, artifacts))
        return self._direct[kind]

    def indirect(self, kind: str, artifacts: Artifacts) -> np.ndarray:
        """History-bridged scores; an empty history yields a row of zeros."""
        if kind == COMBINED_GLOBAL:
            return self._combine(self.indirect, self._indirect, artifacts)
        if kind == NONE:  # a read-only view of one zero, in no memory of its own
            return np.broadcast_to(0.0, self.shape)
        if kind not in self._indirect:
            self._indirect[kind] = self._chunked(lambda c: artifacts._bridge(
                self.history[c], _history_sims(self.rows[c], self.history[c], kind,
                                               artifacts)))
        return self._indirect[kind]


def project_histories(artifacts: Artifacts, policy: str = "earlier",
                      rows=None) -> Histories:
    """The histories of the project's reports at ``rows`` (every row by
    default) as one :class:`Histories`: each query row's span holds the rows
    before it in the project ordering, or every other row under
    ``policy="all"``."""
    n = len(artifacts.report_ids)
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
    if policy == "earlier":
        lengths = rows
    elif policy == "all":
        lengths = np.full(len(rows), max(n - 1, 0), dtype=np.intp)
    else:
        raise ValueError(f"unknown history policy {policy!r}")
    offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.intp)))
    owner = np.repeat(np.arange(len(rows)), lengths)
    # each span counts 0, 1, ... up; under "all" it steps over the query's own row
    past = np.arange(offsets[-1]) - offsets[owner]
    if policy == "all":
        past += past >= rows[owner]
    return Histories(past, owner, offsets)


def history_at(artifacts: Artifacts, row: int, policy: str = "earlier") -> np.ndarray:
    """Rows usable as history for the project's report ``row``: its span of
    :func:`project_histories`."""
    return project_histories(artifacts, policy, [row]).rows


def _check_rows(rows: np.ndarray, artifacts: Artifacts) -> None:
    """``ValueError`` unless every one of ``rows`` is a row of the project's
    reports: numpy would silently read a negative row from the end."""
    n_reports = len(artifacts.report_ids)
    if len(rows) and (rows.min() < 0 or rows.max() >= n_reports):
        raise ValueError(f"report rows must lie in [0, {n_reports}) for project "
                         f"{artifacts.name}")


def localize(artifacts: Artifacts, rows, config: MethodConfig,
             history=None) -> RankedList:
    """Rank every source file of the project for its reports at ``rows``,
    an int array of report rows, in one pass.

    ``history`` holds, per query row, the int array of report rows that
    query may draw on, or is one :class:`Histories` of the batch (a list is
    converted to one on entry); each defaults to the rows before it. The
    caller is responsible for excluding the query itself (and, during
    evaluation, anything not strictly earlier). The result's score arrays and
    ``entries`` have one row per query row. An int ``rows`` is a batch of
    one whose ``history`` is one int array, and its result is that one
    query's 1-D :class:`RankedList`.

    A query row or history row outside the project's reports raises
    ``ValueError``. Ties in the fused score break by file path so output
    order is total.
    """
    single = np.ndim(rows) == 0
    rows = np.atleast_1d(np.asarray(rows, dtype=np.intp))
    _check_rows(rows, artifacts)
    if history is None:
        history = project_histories(artifacts, "earlier", rows)
    elif not isinstance(history, Histories):
        history = Histories.of([history] if single else history)
    if len(history) != len(rows):
        raise ValueError(f"{len(history)} histories for {len(rows)} query rows")
    _check_rows(history.rows, artifacts)
    scores = artifacts.batch_scores(rows, history)
    direct = scores.direct(config.direct_model, artifacts)
    indirect = scores.indirect(config.indirect_model, artifacts)
    final, entries = np.empty(scores.shape), np.empty(scores.shape, dtype=np.intp)
    for chunk in scores.chunks:
        final[chunk] = fuse(direct[chunk], indirect[chunk], config.w1, config.w2)
        entries[chunk] = np.argsort(-final[chunk], axis=-1, kind="stable")
    ids = [artifacts.report_ids[row] for row in rows.tolist()]
    if single:
        return RankedList(ids[0], config.method_id, artifacts.file_ids, final[0], direct[0],
                          indirect[0], entries[0])
    return RankedList(ids, config.method_id, artifacts.file_ids, final, direct, indirect,
                      entries)
