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
reports are addressed only as rows of ``project.bug_reports``: a query is
a row and its history an int array of rows, so neither can name a report
of another project.

:func:`localize` ranks a batch of queries in one pass: an int array of
rows, each with its own history, gives one :class:`RankedList` whose
score arrays and ``entries`` (the file columns in ranked order) have one
row per query. An int row is the batch of one, returned as that query's
1-D :class:`RankedList`. Every path runs the same kernel, in chunks of a
bounded number of (query, document) pairs, counting the project's files
and reports, so a one-row call builds 1×F and 1×R arrays and a batch's
working arrays stay the size of a chunk's; only the four result arrays
grow with the batch:

- TF.IDF: per scope, a :class:`TfidfScope` holds the files'
  :class:`~bugloc.tfidf.Postings`, their length factors and the reports'
  :class:`~bugloc.tfidf.Rows`, the queries. :class:`Artifacts` builds it
  once from the token streams, or takes it as loaded from the cache's
  ranking index (the same float64 arrays). Direct scores are the length
  factors times ``Postings.cosines``, and the similarities to history
  reports are ``Postings.cosines`` against the report postings: each one
  ``bincount`` over the bins ``query * n + row`` of the chunk's query spans.
- Doc vectors (:class:`DocVectors`) are inferred in two batches
  (:func:`~bugloc.embedding.combined_matrix`): all of the project's files
  and all of its reports, each once, kept as matrix rows with their norms;
  or :class:`Artifacts` takes them as loaded from the cache's doc-vector
  index (the same float64 arrays), and then needs no model and no token
  stream. Similarities are one matrix-vector product per query
  (:func:`~bugloc.embedding.doc_cosines`), over the file rows or that
  query's history rows, equal to the per-pair
  :func:`~bugloc.embedding.doc_cosine` within rounding. A matrix-matrix
  product would round differently and can flip ties.
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

``evaluate`` ranks all of a project's reports with one call per method,
with the whole project's :class:`Histories`, and scores the batch from the
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
    ``queries`` the reports' rows; ``reports``, their postings, is derived
    from ``queries`` when history is first ranked.
    """

    def __init__(self, files: tfidf.Postings, length_weights: np.ndarray,
                 queries: tfidf.Rows):
        self.files = files
        self.length_weights = length_weights
        self.queries = queries

    @cached_property
    def reports(self) -> tfidf.Postings:
        return tfidf.Postings.from_rows(self.queries, self.files.n_terms)

    @classmethod
    def unranked(cls, n_files: int) -> TfidfScope:
        """The scope of a project with no reports, which nothing ranks: no
        term, and ``n_files`` files of norm 0."""
        none, zeros = np.zeros(0, dtype=np.intp), np.zeros(n_files)
        return cls(tfidf.Postings(none, np.zeros(0), np.zeros(1, dtype=np.intp), zeros), zeros,
                   tfidf.Rows(np.zeros(1, dtype=np.intp), none, np.zeros(0), np.zeros(0)))

    @classmethod
    def build(cls, vocab: tfidf.Vocabulary, files, reports,
              normalizer: tfidf.LengthNormalizer) -> "TfidfScope":
        """Weigh the files (in ``files`` order) and the reports."""
        streams = _streams(files)
        return cls(tfidf.Postings.from_rows(tfidf.weigh(streams, vocab), len(vocab)),
                   np.array([tfidf.length_weight(len(s), normalizer) for s in streams]),
                   tfidf.weigh(_streams(reports), vocab))


class DocVectors(NamedTuple):
    """A project's combined DM+DBOW doc vectors as matrix rows: its files'
    in path order and its reports' in row order, each row with its norm."""

    files: np.ndarray
    file_norms: np.ndarray
    reports: np.ndarray
    report_norms: np.ndarray

    @classmethod
    def infer(cls, files, reports, dm_model: embedding.EmbeddingModel,
              dbow_model: embedding.EmbeddingModel, epochs: int | None = None) -> DocVectors:
        """The vectors of the files and of the reports, inferred from their
        token streams in one batch each."""
        def rows(docs):
            vectors, _ = embedding.combined_matrix(_streams(docs), dm_model, dbow_model,
                                                   epochs=epochs)
            # one norm per row, computed as doc_cosine computes it
            return vectors, np.array([np.linalg.norm(v) for v in vectors])

        return cls(*rows(files), *rows(reports))

    @classmethod
    def unranked(cls, n_files: int, size: int) -> DocVectors:
        """The vectors of a project with no reports, which nothing ranks:
        ``n_files`` zero vectors of ``size`` values."""
        return cls(np.zeros((n_files, size)), np.zeros(n_files), np.zeros((0, size)),
                   np.zeros(0))


class Artifacts:
    """Models and per-project arrays a localization run draws on.

    Local TF.IDF state is derived lazily from the project itself; global
    models (IDF vocabulary, paragraph-vector pair) must be supplied when a
    method asks for them. Per TF.IDF scope, a :class:`TfidfScope` is built
    once and serves every query, unless ``scopes`` supplies it (loaded from
    a cache, say); the fix pairs are built only when a method ranks through
    history. The doc vectors of the files and of the reports are inferred
    together, each in one batch, when a method first needs either, unless
    ``doc_vectors`` supplies them; then no model is needed. Score arrays
    follow ``files``, the project's source files in path order, so a stable
    sort keeps tied files in path order; reports are rows of
    ``project.bug_reports``. ``fixed`` supplies the CSR arrays of
    :attr:`fixed` (a ranking index holds them), each report's fixed-file
    count being its number of columns, as it is for a project whose fixed
    files all resolved; else they are built from the project when first
    needed.

    Token streams are read only to build a scope or infer doc vectors. So a
    project whose scopes or doc vectors are supplied needs none, as long as
    its methods rank with nothing else; with neither supplied, every
    document must have one.
    """

    def __init__(self, project: Project, global_vocab: tfidf.Vocabulary | None = None,
                 dm_model: embedding.EmbeddingModel | None = None,
                 dbow_model: embedding.EmbeddingModel | None = None,
                 infer_epochs: int | None = None,
                 scopes: dict[str, TfidfScope] | None = None,
                 doc_vectors: DocVectors | None = None,
                 fixed: tuple[np.ndarray, np.ndarray] | None = None):
        self.project = project
        self.global_vocab = global_vocab
        self.dm_model = dm_model
        self.dbow_model = dbow_model
        self.infer_epochs = infer_epochs
        self.scopes = dict(scopes or {})
        if doc_vectors is not None:
            self.doc_vectors = doc_vectors
        elif not self.scopes:
            _streams([*project.source_files, *project.bug_reports])
        if fixed is not None:
            offsets, columns = fixed
            self._project_pairs = offsets, columns, np.diff(offsets)
        self.files = sorted(project.source_files, key=lambda f: f.id)
        self.file_ids = [f.id for f in self.files]
        self._column = {fid: j for j, fid in enumerate(self.file_ids)}

    @cached_property
    def local_vocab(self) -> tfidf.Vocabulary:
        return tfidf.build_vocabulary(_streams(self.project.source_files), scope="local")

    @cached_property
    def normalizer(self) -> tfidf.LengthNormalizer:
        return tfidf.LengthNormalizer.from_counts(map(len, _streams(self.project.source_files)))

    def vocab(self, scope: str) -> tfidf.Vocabulary:
        if scope == "local":
            return self.local_vocab
        if self.global_vocab is None:
            raise ValueError("global IDF model required but not provided")
        return self.global_vocab

    def build_scope(self, vocab: tfidf.Vocabulary) -> TfidfScope:
        """The project's TF.IDF arrays under ``vocab``, from its token streams."""
        return TfidfScope.build(vocab, self.files, self.project.bug_reports, self.normalizer)

    def _tfidf_scope(self, scope: str) -> TfidfScope:
        if scope not in self.scopes:
            self.scopes[scope] = self.build_scope(self.vocab(scope))
        return self.scopes[scope]

    @cached_property
    def doc_vectors(self) -> DocVectors:
        """The doc vectors of ``files`` and of the project's reports: as
        supplied, or else inferred with the models on first use."""
        if self.dm_model is None or self.dbow_model is None:
            raise ValueError("paragraph-vector models required but not provided")
        return DocVectors.infer(self.files, self.project.bug_reports, self.dm_model,
                                self.dbow_model, self.infer_epochs)

    @cached_property
    def _project_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """File column of every (report, fixed file of this project) pair, in
        report order and, within a report, by column, ``offsets`` such that
        report ``i``'s pairs are ``offsets[i]:offsets[i + 1]``, and each
        report's ``|fixed files|``, counting fixed files missing from the
        project too."""
        counts, columns, sizes = [], [], []
        for report in self.project.bug_reports:
            if report.fixed_files is None:
                raise ValueError(f"report {report.id} carries no fixed files: "
                                 "supply its ranking index's fixed-file arrays")
            fixed = sorted(self._column[fid] for fid in report.fixed_files
                           if fid in self._column)
            counts.append(len(fixed))
            columns += fixed
            sizes.append(len(report.fixed_files))
        return (np.concatenate(([0], np.cumsum(counts, dtype=np.intp))),
                np.array(columns, dtype=np.intp), np.array(sizes, dtype=np.intp))

    @property
    def fixed_counts(self) -> np.ndarray:
        """Each report's ``|fixed files|``; its number of columns in
        :attr:`fixed` when ``fixed`` was supplied."""
        return self._project_pairs[2]

    @cached_property
    def _pair_sizes(self) -> np.ndarray:
        """The ``|fixed files|`` of the report of each pair of :attr:`fixed`,
        as floats."""
        offsets, _, counts = self._project_pairs
        return np.repeat(counts, np.diff(offsets)).astype(float)

    @property
    def fixed(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR arrays of the fixed files of every report: report ``i`` fixed
        the files at the ascending columns ``columns[offsets[i]:offsets[i + 1]]``."""
        offsets, columns, _ = self._project_pairs
        return offsets, columns

    def _bridge(self, history: Histories, sims: np.ndarray) -> np.ndarray:
        """Per query of the batch and file, the sum over the query's history
        reports B that fixed the file of ``sims[B] / |fixed(B)|`` (``sims``
        follows ``history.rows``), added up in history order as a dict
        accumulation would: one ``bincount`` over the bins ``query * F +
        column``."""
        offsets, columns, _ = self._project_pairs
        idx, positions = tfidf.span_indices(offsets, history.rows)
        n_queries, n_files = len(history.offsets) - 1, len(self.files)
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
# cache-sized and memory does not grow with the number of queries
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


def _direct_scores(rows: np.ndarray, kind: str, artifacts: Artifacts) -> np.ndarray:
    """Direct scores of the project's reports ``rows`` (one score row each)
    against every file."""
    if kind in _TFIDF_SCOPES:
        data = artifacts._tfidf_scope(_TFIDF_SCOPES[kind])
        return data.length_weights * data.files.cosines(data.queries, rows)
    if kind == DOC2VEC_GLOBAL:
        vectors = artifacts.doc_vectors
        out = np.empty((len(rows), len(artifacts.files)))
        for i, row in enumerate(rows.tolist()):
            out[i] = embedding.doc_cosines(vectors.files, vectors.file_norms,
                                           vectors.reports[row], vectors.report_norms[row])
        return out
    if kind == COMBINED_GLOBAL:
        return _combined(_direct_scores(rows, TFIDF_GLOBAL, artifacts),
                         _direct_scores(rows, DOC2VEC_GLOBAL, artifacts))
    raise ValueError(f"unknown direct model {kind!r}")


def _history_sims(rows: np.ndarray, history: Histories, kind: str,
                  artifacts: Artifacts) -> np.ndarray:
    """Similarity of each query to each of its history reports, aligned
    with ``history.rows``."""
    if kind == DOC2VEC_GLOBAL:
        # one matrix-vector product per query over its own history rows: a
        # matrix-matrix product rounds differently and can flip ties
        doc_vectors = artifacts.doc_vectors
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
    data = artifacts._tfidf_scope(_TFIDF_SCOPES[kind])
    return data.reports.cosines(data.queries, rows)[history.owner, history.rows]


def _indirect_scores(rows: np.ndarray, history: Histories, kind: str,
                     artifacts: Artifacts) -> np.ndarray:
    """History-bridged scores of the reports ``rows``; an empty history
    yields a row of zeros."""
    if kind == NONE:
        return np.zeros((len(rows), len(artifacts.files)))
    if kind == COMBINED_GLOBAL:
        return _combined(_indirect_scores(rows, history, TFIDF_GLOBAL, artifacts),
                         _indirect_scores(rows, history, DOC2VEC_GLOBAL, artifacts))
    return artifacts._bridge(history, _history_sims(rows, history, kind, artifacts))


def project_histories(project: Project, policy: str = "earlier",
                      rows=None) -> Histories:
    """The histories of the project's reports at ``rows`` (every row by
    default) as one :class:`Histories`: each query row's span holds the rows
    before it in the project ordering, or every other row under
    ``policy="all"``."""
    n = len(project.bug_reports)
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


def history_at(project: Project, row: int, policy: str = "earlier") -> np.ndarray:
    """Rows usable as history for the project's report ``row``: its span of
    :func:`project_histories`."""
    return project_histories(project, policy, [row]).rows


def _check_rows(rows: np.ndarray, project: Project) -> None:
    """``ValueError`` unless every one of ``rows`` is a row of the project's
    reports: numpy would silently read a negative row from the end."""
    n_reports = len(project.bug_reports)
    if len(rows) and (rows.min() < 0 or rows.max() >= n_reports):
        raise ValueError(f"report rows must lie in [0, {n_reports}) for project "
                         f"{project.name}")


def localize(artifacts: Artifacts, rows, config: MethodConfig,
             history=None) -> RankedList:
    """Rank every source file of ``artifacts.project`` for its reports at
    ``rows``, an int array of report rows, in one pass.

    ``history`` holds, per query row, the int array of report rows that
    query may draw on, or is one :class:`Histories` of the batch (a list is
    converted to one on entry); each defaults to the rows before it. The
    caller is responsible for excluding the query itself (and, during
    evaluation, anything not strictly earlier). The result's score arrays and
    ``entries`` have one row per query row. An int ``rows`` is a batch of
    one whose ``history`` is one int array, and its result is that one
    query's 1-D :class:`RankedList`.

    A query row or history row outside ``project.bug_reports`` raises
    ``ValueError``. Ties in the fused score break by file path so output
    order is total.
    """
    project = artifacts.project
    n_reports = len(project.bug_reports)
    single = np.ndim(rows) == 0
    rows = np.atleast_1d(np.asarray(rows, dtype=np.intp))
    _check_rows(rows, project)
    if history is None:
        history = project_histories(project, "earlier", rows)
    elif not isinstance(history, Histories):
        history = Histories.of([history] if single else history)
    if len(history) != len(rows):
        raise ValueError(f"{len(history)} histories for {len(rows)} query rows")
    _check_rows(history.rows, project)
    shape = (len(rows), len(artifacts.files))
    direct, indirect, final = np.empty(shape), np.empty(shape), np.empty(shape)
    entries = np.empty(shape, dtype=np.intp)
    step = max(1, _CHUNK_SCORES // (shape[1] + n_reports))
    for start in range(0, len(rows), step):
        chunk = slice(start, start + step)
        direct[chunk] = _direct_scores(rows[chunk], config.direct_model, artifacts)
        indirect[chunk] = _indirect_scores(rows[chunk], history[chunk],
                                           config.indirect_model, artifacts)
        final[chunk] = fuse(direct[chunk], indirect[chunk], config.w1, config.w2)
        entries[chunk] = np.argsort(-final[chunk], axis=-1, kind="stable")
    ids = [project.bug_reports[row].id for row in rows.tolist()]
    if single:
        return RankedList(ids[0], config.method_id, artifacts.file_ids, final[0], direct[0],
                          indirect[0], entries[0])
    return RankedList(ids, config.method_id, artifacts.file_ids, final, direct, indirect,
                      entries)
