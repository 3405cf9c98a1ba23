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

Scores are numpy arrays over the project's files in path order. Per
TF.IDF scope, :class:`Artifacts` builds two :class:`~bugloc.tfidf.Postings`
once, over the files and (for methods that use history) over the reports,
so one query costs one ``bincount`` against each: direct scores are the files' logistic length
factors times ``Postings.cosines``, and the bridge is a ``bincount`` of
``sim / |fixed(B)|`` over (report, fixed file) pairs stored in report order,
of which an "earlier" history is a prefix. Doc-vector similarities are
per-pair :func:`~bugloc.embedding.doc_cosine` values fed to the same
bridge. Every operation repeats the arithmetic of the per-pair formulas
(:func:`~bugloc.tfidf.rvsm`, :func:`~bugloc.tfidf.cosine`, a dict summed in
history order) in the same order, so the scores are bit-identical to
them. The dict-returning functions are views of these arrays.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

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
    def needs_global_tfidf(self) -> bool:
        return TFIDF_GLOBAL in (self.direct_model, self.indirect_model) or \
            COMBINED_GLOBAL in (self.direct_model, self.indirect_model)

    @property
    def needs_embeddings(self) -> bool:
        return any(m in (DOC2VEC_GLOBAL, COMBINED_GLOBAL)
                   for m in (self.direct_model, self.indirect_model))


@dataclass
class RankEntry:
    file_id: str
    final_score: float
    direct_score: float
    indirect_score: float


@dataclass
class RankedList:
    query_bug_id: str
    entries: list[RankEntry]
    method_id: int

    def rank_of(self, file_id: str) -> int:
        """1-based rank; raises if the file is absent."""
        for i, entry in enumerate(self.entries, start=1):
            if entry.file_id == file_id:
                return i
        raise KeyError(file_id)

    @property
    def file_ids(self) -> list[str]:
        return [e.file_id for e in self.entries]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            self.dump_csv(fh)

    def dump_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bug_id", "rank", "file_path", "final", "direct", "indirect"])
        for rank, e in enumerate(self.entries, start=1):
            writer.writerow([self.query_bug_id, rank, e.file_id,
                             f"{e.final_score:.10g}", f"{e.direct_score:.10g}",
                             f"{e.indirect_score:.10g}"])


_TFIDF_SCOPES = {TFIDF_LOCAL: "local", TFIDF_GLOBAL: "global"}


class _TfidfScope:
    """A project's TF.IDF data under one vocabulary.

    File postings and length factors are built up front; report vectors
    are built as queries ask for them, and the report postings only when
    a method ranks through history.
    """

    def __init__(self, vocab: tfidf.Vocabulary, files, reports,
                 normalizer: tfidf.LengthNormalizer):
        vectors = [tfidf.vectorize(f.token_stream, vocab, source_doc_id=f.id) for f in files]
        self.vocab = vocab
        self.files = tfidf.Postings(vectors, len(vocab))    # rows in ``files`` order
        self.length_weights = np.array([tfidf.length_weight(v.term_count, normalizer)
                                        for v in vectors])  # rVSM logistic factor per file
        self._reports = reports
        self._report_vectors: list[tfidf.TfIdfVector | None] = [None] * len(reports)

    def report_vector(self, row: int) -> tfidf.TfIdfVector:
        if self._report_vectors[row] is None:
            report = self._reports[row]
            self._report_vectors[row] = tfidf.vectorize(report.token_stream, self.vocab,
                                                        source_doc_id=report.id)
        return self._report_vectors[row]

    @cached_property
    def reports(self) -> tfidf.Postings:
        """Postings over the project's reports, rows in report order."""
        return tfidf.Postings([self.report_vector(i) for i in range(len(self._reports))],
                              len(self.vocab))


class Artifacts:
    """Models and per-project arrays a localization run draws on.

    Local TF.IDF state is derived lazily from the project itself; global
    models (IDF vocabulary, paragraph-vector pair) must be supplied when a
    method asks for them. Per TF.IDF scope, file postings are built once
    and serve every query; report postings and the fix pairs are built
    only when a method ranks through history; inferred doc vectors are
    computed once and reused. Score arrays follow ``files``, the project's
    source files in path order, so a stable sort keeps tied files in path
    order.
    """

    def __init__(self, project: Project, global_vocab: tfidf.Vocabulary | None = None,
                 dm_model: embedding.EmbeddingModel | None = None,
                 dbow_model: embedding.EmbeddingModel | None = None,
                 infer_epochs: int | None = None):
        self.project = project
        self.global_vocab = global_vocab
        self.dm_model = dm_model
        self.dbow_model = dbow_model
        self.infer_epochs = infer_epochs
        for src in project.source_files:
            if src.token_stream is None:
                raise ValueError(f"{src.id}: token stream missing; preprocess first")
        self.files = sorted(project.source_files, key=lambda f: f.id)
        self.file_ids = [f.id for f in self.files]
        self._column = {fid: j for j, fid in enumerate(self.file_ids)}
        # keyed by identity: a report of another project may share an id
        self._row = {id(r): i for i, r in enumerate(project.bug_reports)}
        self._local_vocab: tfidf.Vocabulary | None = None
        self._normalizer: tfidf.LengthNormalizer | None = None
        self._scopes: dict[str, _TfidfScope] = {}
        self._file_doc_vectors: list[embedding.DocVector] | None = None
        self._report_doc_vectors: dict[str, embedding.DocVector] = {}

    @property
    def local_vocab(self) -> tfidf.Vocabulary:
        if self._local_vocab is None:
            self._local_vocab = tfidf.build_vocabulary(
                [f.token_stream for f in self.project.source_files], scope="local")
        return self._local_vocab

    @property
    def normalizer(self) -> tfidf.LengthNormalizer:
        if self._normalizer is None:
            self._normalizer = tfidf.LengthNormalizer.from_counts(
                len(f.token_stream) for f in self.project.source_files)
        return self._normalizer

    def vocab(self, scope: str) -> tfidf.Vocabulary:
        if scope == "local":
            return self.local_vocab
        if self.global_vocab is None:
            raise ValueError("global IDF model required but not provided")
        return self.global_vocab

    def _tfidf_scope(self, scope: str) -> _TfidfScope:
        if scope not in self._scopes:
            self._scopes[scope] = _TfidfScope(self.vocab(scope), self.files,
                                              self.project.bug_reports, self.normalizer)
        return self._scopes[scope]

    def report_vector(self, report: BugReport, scope: str) -> tfidf.TfIdfVector:
        row = self._row.get(id(report))
        if row is not None:
            return self._tfidf_scope(scope).report_vector(row)
        return tfidf.vectorize(report.token_stream, self.vocab(scope), source_doc_id=report.id)

    def _require_models(self):
        if self.dm_model is None or self.dbow_model is None:
            raise ValueError("paragraph-vector models required but not provided")

    def file_doc_vectors(self) -> list[embedding.DocVector]:
        if self._file_doc_vectors is None:
            self._require_models()
            self._file_doc_vectors = [
                embedding.combined_vector(f.token_stream, self.dm_model, self.dbow_model,
                                          epochs=self.infer_epochs)
                for f in self.files]
        return self._file_doc_vectors

    def report_doc_vector(self, report: BugReport) -> embedding.DocVector:
        if report.id not in self._report_doc_vectors:
            self._require_models()
            self._report_doc_vectors[report.id] = embedding.combined_vector(
                report.token_stream, self.dm_model, self.dbow_model,
                epochs=self.infer_epochs)
        return self._report_doc_vectors[report.id]

    def _fix_pairs(self, reports) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Position in ``reports``, file column and ``|fixed files|`` of every
        (report, fixed file of this project) pair, in report order. The size
        counts fixed files missing from the project too."""
        positions, columns, sizes = [], [], []
        for i, report in enumerate(reports):
            for fid in report.fixed_files:
                if fid in self._column:
                    positions.append(i)
                    columns.append(self._column[fid])
                    sizes.append(len(report.fixed_files))
        return (np.array(positions, dtype=np.intp), np.array(columns, dtype=np.intp),
                np.array(sizes, dtype=float))

    @cached_property
    def _project_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columns and sizes of :meth:`_fix_pairs` over the project's
        reports, and ``offsets`` such that report ``i``'s pairs are
        ``offsets[i]:offsets[i + 1]``."""
        rows, columns, sizes = self._fix_pairs(self.project.bug_reports)
        offsets = np.concatenate(
            ([0], np.cumsum(np.bincount(rows, minlength=len(self.project.bug_reports)))))
        return offsets, columns, sizes

    def _history_rows(self, history) -> np.ndarray | None:
        """Project report row of each history report; None when one of
        them is not a report of this project."""
        rows = [self._row.get(id(r), -1) for r in history]
        return None if -1 in rows else np.array(rows, dtype=np.intp)

    def _bridge(self, history, rows: np.ndarray | None, sims: np.ndarray) -> np.ndarray:
        """Per file, the sum over history reports B that fixed it of
        ``sims[B] / |fixed(B)|`` (``sims`` follows ``history``), added up in
        history order as a dict accumulation would."""
        if rows is None:
            positions, columns, sizes = self._fix_pairs(history)
        else:
            offsets, all_columns, all_sizes = self._project_pairs
            idx, positions = tfidf.span_indices(offsets, rows)
            columns, sizes = all_columns[idx], all_sizes[idx]
        return np.bincount(columns, weights=sims[positions] / sizes,
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


def _fuse(direct: np.ndarray, indirect: np.ndarray, w1: float, w2: float) -> np.ndarray:
    return w1 * _minmax(direct) + w2 * _minmax(indirect)


def _direct_scores(query: BugReport, kind: str, artifacts: Artifacts) -> np.ndarray:
    if kind in _TFIDF_SCOPES:
        scope = _TFIDF_SCOPES[kind]
        data = artifacts._tfidf_scope(scope)
        return data.length_weights * data.files.cosines(artifacts.report_vector(query, scope))
    if kind == DOC2VEC_GLOBAL:
        query_vec = artifacts.report_doc_vector(query)
        return np.array([embedding.doc_cosine(query_vec, vec)
                         for vec in artifacts.file_doc_vectors()], dtype=float)
    if kind == COMBINED_GLOBAL:
        return _combined(_direct_scores(query, TFIDF_GLOBAL, artifacts),
                         _direct_scores(query, DOC2VEC_GLOBAL, artifacts))
    raise ValueError(f"unknown direct model {kind!r}")


def _history_sims(query: BugReport, history, rows, kind: str,
                  artifacts: Artifacts) -> np.ndarray:
    if kind == DOC2VEC_GLOBAL:
        query_vec = artifacts.report_doc_vector(query)
        return np.array([embedding.doc_cosine(query_vec, artifacts.report_doc_vector(past))
                         if past.fixed_files else 0.0 for past in history], dtype=float)
    if kind not in _TFIDF_SCOPES:
        raise ValueError(f"unknown indirect model {kind!r}")
    scope = _TFIDF_SCOPES[kind]
    query_vec = artifacts.report_vector(query, scope)
    if rows is None:
        return np.array([tfidf.cosine(query_vec, artifacts.report_vector(past, scope))
                         for past in history], dtype=float)
    return artifacts._tfidf_scope(scope).reports.cosines(query_vec)[rows]


def _indirect_scores(query: BugReport, history, kind: str,
                     artifacts: Artifacts) -> np.ndarray:
    if kind == NONE:
        return np.zeros(len(artifacts.files))
    if kind == COMBINED_GLOBAL:
        return _combined(_indirect_scores(query, history, TFIDF_GLOBAL, artifacts),
                         _indirect_scores(query, history, DOC2VEC_GLOBAL, artifacts))
    rows = artifacts._history_rows(history)
    return artifacts._bridge(history, rows, _history_sims(query, history, rows, kind, artifacts))


def direct_relevancy(query: BugReport, files, model: MethodConfig,
                     artifacts: Artifacts) -> dict[str, float]:
    """Per-file direct score under the configured direct model."""
    scores = _direct_scores(query, model.direct_model, artifacts)
    wanted = {f.id for f in files}
    return {fid: s for fid, s in zip(artifacts.file_ids, scores.tolist()) if fid in wanted}


def indirect_relevancy(query: BugReport, history, model: MethodConfig,
                       artifacts: Artifacts) -> dict[str, float]:
    """History-bridged score; an empty history yields an all-zero map.

    The caller is responsible for excluding the query itself (and, during
    evaluation, anything not strictly earlier) from ``history``.
    """
    scores = _indirect_scores(query, history, model.indirect_model, artifacts)
    return dict(zip(artifacts.file_ids, scores.tolist()))


def fuse(direct: dict[str, float], indirect: dict[str, float],
         w1: float, w2: float) -> dict[str, float]:
    """Min-max normalize both maps and combine them as w1*d + w2*i."""
    if set(direct) != set(indirect):
        raise ValueError("direct and indirect maps cover different file sets")
    fused = _fuse(np.array(list(direct.values()), dtype=float),
                  np.array([indirect[fid] for fid in direct], dtype=float), w1, w2)
    return dict(zip(direct, fused.tolist()))


def history_for(query: BugReport, project: Project, policy: str = "earlier") -> list[BugReport]:
    """Reports usable as history for a query: everything strictly earlier
    in the project ordering, or every other report under ``policy="all"``."""
    if policy == "all":
        return [r for r in project.bug_reports if r.id != query.id]
    if policy != "earlier":
        raise ValueError(f"unknown history policy {policy!r}")
    out = []
    for report in project.bug_reports:
        if report.id == query.id:
            break
        out.append(report)
    return out


def localize(query: BugReport, project: Project, config: MethodConfig,
             artifacts: Artifacts, history: list[BugReport] | None = None) -> RankedList:
    """Rank every source file of the project for one query.

    ``history`` defaults to the reports strictly earlier than the query.
    Ties in the fused score break by file path so output order is total.
    """
    if history is None:
        history = history_for(query, project)
    direct = _direct_scores(query, config.direct_model, artifacts)
    indirect = _indirect_scores(query, history, config.indirect_model, artifacts)
    final = _fuse(direct, indirect, config.w1, config.w2)
    ids, finals, directs, indirects = (artifacts.file_ids, final.tolist(), direct.tolist(),
                                       indirect.tolist())
    entries = [RankEntry(ids[j], finals[j], directs[j], indirects[j])
               for j in np.argsort(-final, kind="stable").tolist()]
    return RankedList(query_bug_id=query.id, entries=entries, method_id=config.method_id)
