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
reports are addressed as rows of ``project.bug_reports``: a query or a
history report must be one of the project's own report objects. Per
TF.IDF scope, a :class:`TfidfScope` holds the files'
:class:`~bugloc.tfidf.Postings`, their length factors, each report's query
arrays (:func:`~bugloc.tfidf.queries`) and, for methods that use history,
the reports' postings. :class:`Artifacts` builds it once from the token
streams, or takes it as loaded from the cache's ranking index (the same
float64 arrays), so one query costs one
``bincount`` against each: direct scores are the files' logistic length
factors times ``Postings.cosines``, and the bridge is a ``bincount`` of
``sim / |fixed(B)|`` over (report, fixed file) pairs stored in report order,
of which an "earlier" history is a prefix. These TF.IDF operations repeat
the arithmetic of the per-pair formulas (:func:`~bugloc.tfidf.rvsm`,
:func:`~bugloc.tfidf.cosine`, a dict summed in history order) in the same
order, so the scores are bit-identical to them.

Doc vectors are inferred in two batches
(:func:`~bugloc.embedding.combined_matrix`): all of the project's files and
all of its reports, each once. They are kept as matrix rows with their
norms, so doc-vector similarities are matrix-vector products
(:func:`~bugloc.embedding.doc_cosines`), equal to the per-pair
:func:`~bugloc.embedding.doc_cosine` within rounding, and feed the same
bridge.

:func:`localize` returns the score arrays and ``entries``, the file
columns in ranked order, and builds no per-file object. ``evaluate``
scores a query from the ranks of its fixed files
(:meth:`RankedList.ranks_of`), not from a list of file ids, and takes
each query's history by row (:func:`history_at`); :class:`RankEntry` rows
exist only for a ranking that is written or printed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import embedding, tfidf
from .corpus import BugReport, Project

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
    """One query's scores over the project's files, and their order.

    ``final``, ``direct`` and ``indirect`` are score arrays over ``files``,
    the project's file ids in path order. ``entries`` holds the file
    columns from best to worst: a stable sort of ``final``, so tied files
    keep path order. :class:`RankEntry` rows are built only by
    :meth:`rows`, for output.
    """

    query_bug_id: str
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

    def ranks_of(self, columns: np.ndarray) -> np.ndarray:
        """Ascending 1-based ranks of the files at ``columns``."""
        wanted = np.zeros(len(self.files), dtype=bool)
        wanted[columns] = True
        return np.flatnonzero(wanted[self.entries]) + 1

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

    ``files`` holds the file postings (rows in path order) and
    ``length_weights`` the rVSM logistic factor of each file. Each report's
    query arrays (:func:`~bugloc.tfidf.queries`) are CSR arrays in report
    order, read through :meth:`query`. ``reports`` holds the report
    postings; a scope built from token streams builds them only when a
    method ranks through history.
    """

    def __init__(self, files: tfidf.Postings, length_weights: np.ndarray, queries,
                 reports: tfidf.Postings | None = None, report_vectors=None):
        self.files = files
        self.length_weights = length_weights
        self.query_offsets, self.query_terms, self.query_weights, self.query_norms = queries
        if reports is not None:
            self.reports = reports
        self._report_vectors = report_vectors

    @classmethod
    def build(cls, vocab: tfidf.Vocabulary, files, reports,
              normalizer: tfidf.LengthNormalizer) -> "TfidfScope":
        """Vectorize the files (in ``files`` order) and the reports."""
        vectors = [tfidf.vectorize(stream, vocab) for stream in _streams(files)]
        report_vectors = [tfidf.vectorize(stream, vocab) for stream in _streams(reports)]
        return cls(tfidf.Postings.from_vectors(vectors, len(vocab)),
                   np.array([tfidf.length_weight(v.term_count, normalizer) for v in vectors]),
                   tfidf.queries(report_vectors), report_vectors=report_vectors)

    @cached_property
    def reports(self) -> tfidf.Postings:
        """Postings over the project's reports, rows in report order."""
        return tfidf.Postings.from_vectors(self._report_vectors, self.files.n_terms)

    def query(self, row: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Report ``row``'s ascending term ids, their weights and its norm."""
        start, end = self.query_offsets[row], self.query_offsets[row + 1]
        return (self.query_terms[start:end], self.query_weights[start:end],
                self.query_norms[row])


class Artifacts:
    """Models and per-project arrays a localization run draws on.

    Local TF.IDF state is derived lazily from the project itself; global
    models (IDF vocabulary, paragraph-vector pair) must be supplied when a
    method asks for them. Per TF.IDF scope, a :class:`TfidfScope` is built
    once and serves every query, unless ``scopes`` supplies it (loaded from
    a cache, say); the fix pairs are built only when a method ranks through
    history; the doc vectors of the files and of the reports are each
    inferred once, in one batch. Score arrays follow ``files``, the
    project's source files in path order, so a stable sort keeps tied files
    in path order; reports are rows of ``project.bug_reports``.

    Token streams are read only to build a scope or infer doc vectors. So a
    project whose scopes are all supplied needs none; without ``scopes``,
    every document must have one.
    """

    def __init__(self, project: Project, global_vocab: tfidf.Vocabulary | None = None,
                 dm_model: embedding.EmbeddingModel | None = None,
                 dbow_model: embedding.EmbeddingModel | None = None,
                 infer_epochs: int | None = None,
                 scopes: dict[str, TfidfScope] | None = None):
        self.project = project
        self.global_vocab = global_vocab
        self.dm_model = dm_model
        self.dbow_model = dbow_model
        self.infer_epochs = infer_epochs
        self.scopes = dict(scopes or {})
        if not self.scopes:
            _streams([*project.source_files, *project.bug_reports])
        self.files = sorted(project.source_files, key=lambda f: f.id)
        self.file_ids = [f.id for f in self.files]
        self._column = {fid: j for j, fid in enumerate(self.file_ids)}
        # keyed by identity: only the project's own report objects have a row
        self._row = {id(r): i for i, r in enumerate(project.bug_reports)}

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

    def rows(self, reports) -> np.ndarray:
        """Row of each report in ``project.bug_reports``; a report that is
        not one of the project's own objects raises ``ValueError``."""
        try:  # runs for every history of every query, so kept to C-level loops
            return np.fromiter(map(self._row.__getitem__, map(id, reports)), dtype=np.intp,
                               count=len(reports))
        except KeyError:
            stranger = next(r for r in reports if id(r) not in self._row)
            raise ValueError(f"report {stranger.id!r} is not a report of project "
                             f"{self.project.name}") from None

    def _require_models(self):
        if self.dm_model is None or self.dbow_model is None:
            raise ValueError("paragraph-vector models required but not provided")

    def _infer(self, streams) -> tuple[np.ndarray, np.ndarray]:
        """Combined doc vectors of the streams, inferred in one batch, and
        their norms."""
        self._require_models()
        vectors, _ = embedding.combined_matrix(streams, self.dm_model, self.dbow_model,
                                               epochs=self.infer_epochs)
        # one norm per row, computed as doc_cosine computes it
        return vectors, np.array([np.linalg.norm(v) for v in vectors])

    @cached_property
    def file_doc_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Doc vectors of ``files`` as matrix rows, and their norms."""
        return self._infer(_streams(self.files))

    @cached_property
    def report_doc_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Doc vectors of the project's reports as matrix rows in report
        order, and their norms."""
        return self._infer(_streams(self.project.bug_reports))

    @cached_property
    def _project_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """File column and ``|fixed files|`` of every (report, fixed file of
        this project) pair, in report order, and ``offsets`` such that
        report ``i``'s pairs are ``offsets[i]:offsets[i + 1]``. The size
        counts fixed files missing from the project too."""
        counts, columns, sizes = [], [], []
        for report in self.project.bug_reports:
            fixed = [self._column[fid] for fid in report.fixed_files if fid in self._column]
            counts.append(len(fixed))
            columns += fixed
            sizes += [len(report.fixed_files)] * len(fixed)
        return (np.concatenate(([0], np.cumsum(counts, dtype=np.intp))),
                np.array(columns, dtype=np.intp), np.array(sizes, dtype=float))

    def fixed_columns(self, row: int) -> np.ndarray:
        """Columns of the files that the project's report ``row`` fixed."""
        offsets, columns, _ = self._project_pairs
        return columns[offsets[row]:offsets[row + 1]]

    def _bridge(self, rows: np.ndarray, sims: np.ndarray) -> np.ndarray:
        """Per file, the sum over the history reports B (project rows
        ``rows``) that fixed it of ``sims[B] / |fixed(B)|`` (``sims``
        follows ``rows``), added up in history order as a dict accumulation
        would."""
        offsets, columns, sizes = self._project_pairs
        idx, positions = tfidf.span_indices(offsets, rows)
        return np.bincount(columns[idx], weights=sims[positions] / sizes[idx],
                           minlength=len(self.files))


def _minmax(scores: np.ndarray) -> np.ndarray:
    # Constant maps (including all-zero) normalize to zero so they cannot
    # perturb the fused ranking.
    lo, hi = scores.min(), scores.max()
    if hi == lo:
        return np.zeros_like(scores)
    return (scores - lo) / (hi - lo)


def _combined(lexical: np.ndarray, semantic: np.ndarray) -> np.ndarray:
    return (_minmax(lexical) + _minmax(semantic)) / 2


def fuse(direct: np.ndarray, indirect: np.ndarray, w1: float, w2: float) -> np.ndarray:
    """Min-max normalize both score arrays and combine them as w1*d + w2*i."""
    return w1 * _minmax(direct) + w2 * _minmax(indirect)


def _direct_scores(row: int, kind: str, artifacts: Artifacts) -> np.ndarray:
    """Direct scores of the project's report ``row`` against every file."""
    if kind in _TFIDF_SCOPES:
        data = artifacts._tfidf_scope(_TFIDF_SCOPES[kind])
        return data.length_weights * data.files.cosines(*data.query(row))
    if kind == DOC2VEC_GLOBAL:
        files = artifacts.file_doc_vectors
        vectors, norms = artifacts.report_doc_vectors
        return embedding.doc_cosines(*files, vectors[row], norms[row])
    if kind == COMBINED_GLOBAL:
        return _combined(_direct_scores(row, TFIDF_GLOBAL, artifacts),
                         _direct_scores(row, DOC2VEC_GLOBAL, artifacts))
    raise ValueError(f"unknown direct model {kind!r}")


def _history_sims(row: int, history: np.ndarray, kind: str,
                  artifacts: Artifacts) -> np.ndarray:
    """Similarity of report ``row`` to each report row in ``history``."""
    if kind == DOC2VEC_GLOBAL:
        vectors, norms = artifacts.report_doc_vectors
        return embedding.doc_cosines(vectors[history], norms[history], vectors[row], norms[row])
    if kind not in _TFIDF_SCOPES:
        raise ValueError(f"unknown indirect model {kind!r}")
    data = artifacts._tfidf_scope(_TFIDF_SCOPES[kind])
    return data.reports.cosines(*data.query(row))[history]


def _indirect_scores(row: int, history: np.ndarray, kind: str,
                     artifacts: Artifacts) -> np.ndarray:
    """History-bridged scores of report ``row``; ``history`` holds the
    report rows it may draw on, and an empty one yields all zeros."""
    if kind == NONE:
        return np.zeros(len(artifacts.files))
    if kind == COMBINED_GLOBAL:
        return _combined(_indirect_scores(row, history, TFIDF_GLOBAL, artifacts),
                         _indirect_scores(row, history, DOC2VEC_GLOBAL, artifacts))
    return artifacts._bridge(history, _history_sims(row, history, kind, artifacts))


def history_at(project: Project, row: int, policy: str = "earlier") -> list[BugReport]:
    """Reports usable as history for the project's report ``row``: the
    reports before it in the project ordering, or every other report under
    ``policy="all"``."""
    reports = project.bug_reports
    if policy == "earlier":
        return reports[:row]
    if policy == "all":
        return reports[:row] + reports[row + 1:]
    raise ValueError(f"unknown history policy {policy!r}")


def history_for(query: BugReport, project: Project, policy: str = "earlier") -> list[BugReport]:
    """:func:`history_at` for the project's report with the query's id."""
    for row, report in enumerate(project.bug_reports):
        if report.id == query.id:
            return history_at(project, row, policy)
    raise ValueError(f"report {query.id!r} is not a report of project {project.name}")


def localize(query: BugReport, project: Project, config: MethodConfig,
             artifacts: Artifacts, history: list[BugReport] | None = None) -> RankedList:
    """Rank every source file of the project for one query.

    ``history`` defaults to the reports strictly earlier than the query.
    The query and the history must be reports of ``artifacts.project``
    (``ValueError`` otherwise); the caller is responsible for excluding the
    query itself (and, during evaluation, anything not strictly earlier)
    from ``history``. Ties in the fused score break by file path so output
    order is total.
    """
    if history is None:
        history = history_for(query, project)
    (row,) = artifacts.rows([query])
    rows = artifacts.rows(history)
    direct = _direct_scores(row, config.direct_model, artifacts)
    indirect = _indirect_scores(row, rows, config.indirect_model, artifacts)
    final = fuse(direct, indirect, config.w1, config.w2)
    return RankedList(query.id, config.method_id, artifacts.file_ids, final, direct, indirect,
                      np.argsort(-final, kind="stable"))
