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
``Artifacts.report_ids`` order), so a query cannot name a report of another
project. A report's history under the default policy (``"earlier"``) is the
rows before it, and under ``"all"`` every other row.

Each model kind ranks with the scores of its scope (:data:`SCOPES`:
``"local"``, ``"global"``, ``"docvec"``), one :class:`Scores` per scope:
two reports × files arrays, the direct scores and the history-bridged
scores under one history policy, the policy of the :class:`Artifacts` that
hold them, fixed where they are built. They are computed once per project
and policy, when the scope is built, and the cache keeps them as that
scope's ranking index of that policy:

- :func:`tfidf_scores`, from the files' :class:`~bugloc.tfidf.Postings` and
  the reports' :class:`~bugloc.tfidf.Rows`: the direct scores are the
  length factors times ``Postings.cosines``, and the history similarities
  are gathered from the cosine of each pair of reports, computed once as a
  triangle (:func:`_report_sims`);
- :func:`docvec_scores`, from the combined DM+DBOW vectors of the files and
  the reports (:func:`doc_vectors`, inferred in one batch each): the direct
  scores of a chunk are one stacked ``np.matmul`` (numpy runs it as one
  matrix-vector product per query), the history similarities one
  :func:`~bugloc.embedding.doc_cosines` per query over exactly that query's
  gathered history rows, each equal to the per-pair
  :func:`~bugloc.embedding.doc_cosine` within rounding. A matrix-matrix
  product, or one over more rows than the query's history, would round
  differently and can flip ties.

The bridge is one ``bincount`` of ``sim / |fixed(B)|`` over the bins
``query * F + column`` of the (report, fixed file) pairs of a chunk's
concatenated histories (:class:`Histories`, from :func:`project_histories`,
built for the chunk's own rows only), in history order. Each bin sums the
products of the per-pair formulas (:func:`~bugloc.tfidf.rvsm`,
:func:`~bugloc.tfidf.cosine`, a dict summed in history order) in the same
order, so the TF.IDF scores are bit-identical to them. A build works in
chunks of a bounded number of (query, document) pairs, counting the
project's files and reports, and a row is the same whichever rows are
computed with it.

:func:`localize` only reads, fuses and sorts. It ranks a batch of report
rows in one pass: it reads those rows of the stored arrays (the arrays
themselves for every report in row order, as ``evaluate`` asks), combines
method 7's maps from them, then min-max normalizes, fuses and stable-sorts
row by row, in chunks, normalizing and fusing in each chunk's own buffers.
A method without a history model (1, 2, 5) normalizes no bridged map: it
fuses as ``w1 * minmax(direct) + w2 * 0.0``, the bits of fusing the zero
map. Its :class:`RankedList` has one row per query; an int row is the
batch of one, returned as that query's 1-D list.

Every method reads one :class:`Artifacts` per project: its file and report
ids, its fixed files as CSR arrays and the :class:`Scores` of each scope.
:meth:`Artifacts.of` takes the ids and fixed files from a loaded project;
:meth:`~bugloc.cache.ArtifactCache.artifacts` gives all of them, from the
project's ranking indexes or built and stored.

``evaluate`` ranks all of a project's reports with one call per method and
scores each batch from the ranks of the reports' fixed files:
:meth:`RankedList.ranks_of` reads them off ``entries`` for the fixed-file
CSR arrays (:attr:`Artifacts.fixed`), comparing each fixed column with its
query's row of ``entries``, and returns them as CSR arrays too, which
:func:`~bugloc.metrics.compute_metrics` scores without a per-query
object. :class:`RankEntry` rows exist only for a ranking that is written or
printed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
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

# the scope of each model kind: the scores it ranks with, and their index
SCOPES = {TFIDF_LOCAL: "local", TFIDF_GLOBAL: "global", DOC2VEC_GLOBAL: "docvec"}
# the history policies; the Scores of an Artifacts are bridged under its one
POLICIES = ("earlier", "all")


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
    def scopes(self) -> set[str]:
        """The scopes (:data:`SCOPES`) of the models the method ranks with."""
        kinds = {self.direct_model, self.indirect_model}
        if COMBINED_GLOBAL in kinds:
            kinds |= {TFIDF_GLOBAL, DOC2VEC_GLOBAL}
        return {SCOPES[k] for k in kinds if k in SCOPES}


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

    ``direct`` and ``indirect`` may be the read-only stored arrays of the
    artifacts' :class:`Scores`, which other results share, or views into
    them; one query's are a row of the batch's, which stays in memory while
    the row does. Copy them before editing them.
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
        n_files = entries.shape[1]
        owner = np.repeat(np.arange(len(entries)), np.diff(offsets))
        positions = np.empty(len(columns), dtype=np.intp)
        # each fixed column against its query's row of the order, a bounded
        # block of (column, row) pairs at a time; every row is a permutation
        step = max(1, _CHUNK_SCORES // max(1, n_files))
        for start in range(0, len(columns), step):
            block = slice(start, start + step)
            positions[block] = np.argmax(entries[owner[block]] == columns[block, None], axis=1)
        # query by query, each query's ranks ascending
        keys = np.sort(owner * n_files + positions)
        return offsets, keys - owner * n_files + 1

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


class Scores(NamedTuple):
    """A model's scores over one project, what ranking reads: ``direct``, the
    score of each report (a row) against each file (a column, in path
    order), and ``bridged``, the history-bridged scores of each report under
    the history policy of the :class:`Artifacts` that hold them; two
    read-only reports × files float64 arrays."""

    direct: np.ndarray
    bridged: np.ndarray

    @classmethod
    def unranked(cls, n_files: int) -> Scores:
        """The scores of a project with no reports, which nothing ranks."""
        return cls(*(np.zeros((0, n_files)) for _ in range(2)))


def _streams(docs) -> list:
    """The documents' token streams; ``ValueError`` for a document without one."""
    streams = [d.token_stream for d in docs]
    for doc, stream in zip(docs, streams):
        if stream is None:
            raise ValueError(f"{doc.id}: token stream missing; preprocess first")
    return streams


def _path_order(project: Project) -> list:
    """The project's source files in path order, the order of score arrays."""
    return sorted(project.source_files, key=lambda f: f.id)


class Artifacts:
    """One project's ranking arrays, as every method reads them.

    ``file_ids`` are the project's source files in path order, the order of
    every score array, so a stable sort keeps tied files in path order;
    ``report_ids`` are its reports in row order. ``fixed`` holds each
    report's fixed files as CSR arrays: report ``i`` fixed the files at the
    ascending columns ``columns[offsets[i]:offsets[i + 1]]``.
    ``fixed_counts`` holds each report's ``|fixed files|``, by default its
    number of columns, as for a loaded project, whose fixed files all
    resolve to its files. ``policy`` is the history policy of every
    report's bridged scores (:data:`POLICIES`): ``"earlier"``, the rows
    before it, or ``"all"``, every other row; an unknown one raises
    ``ValueError``. ``scopes`` holds the :class:`Scores` of each scope
    (:data:`SCOPES`) supplied, bridged under ``policy``; a method ranks only
    with those, and reads no token stream and no model.

    :meth:`of` takes the ids and fixed files from a project;
    :meth:`~bugloc.cache.ArtifactCache.artifacts` gives all of the arrays.
    """

    def __init__(self, name: str, file_ids: list[str], report_ids: list[str],
                 fixed: tuple[np.ndarray, np.ndarray], scopes: dict[str, Scores] | None = None,
                 fixed_counts: np.ndarray | None = None, policy: str = "earlier"):
        if policy not in POLICIES:
            raise ValueError(f"unknown history policy {policy!r}")
        self.name = name
        self.policy = policy
        self.file_ids = file_ids
        self.report_ids = report_ids
        self.fixed = fixed
        self.fixed_counts = np.diff(fixed[0]) if fixed_counts is None else fixed_counts
        self.scopes = {} if scopes is None else scopes

    @classmethod
    def of(cls, project: Project, scopes: dict[str, Scores] | None = None,
           policy: str = "earlier") -> Artifacts:
        """The project's ids and fixed files with the given scores, bridged
        under ``policy``. A fixed file missing from the project has no column
        but counts in ``fixed_counts``."""
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
                    np.array(columns, dtype=np.intp)), scopes,
                   np.array([len(r.fixed_files) for r in reports], dtype=np.intp), policy)

    def row(self, bug_id: str) -> int:
        """Row of the report with id ``bug_id``."""
        try:
            return self.report_ids.index(bug_id)
        except ValueError:
            raise CorpusError(f"unknown bug id {bug_id!r} in project {self.name}") from None


# scores are built, fused and sorted in chunks of about this many (query,
# document) pairs, documents being the project's files and reports, so that
# a chunk's working arrays stay cache-sized and memory does not grow with
# the number of queries
_CHUNK_SCORES = 1 << 14


def _chunks(artifacts: Artifacts, n_rows: int) -> list[slice]:
    """Slices of ``n_rows`` rows, each of about ``_CHUNK_SCORES`` (query,
    document) pairs; the project may have no files and no reports."""
    step = max(1, _CHUNK_SCORES // max(1, len(artifacts.file_ids) + len(artifacts.report_ids)))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


class Histories:
    """The history rows of a batch of queries, as CSR arrays: query ``i`` of
    the batch may draw on ``rows[offsets[i]:offsets[i + 1]]``, and ``owner``
    holds the batch index of the query each of ``rows`` belongs to.
    ``len()`` is the number of queries."""

    __slots__ = ("rows", "owner", "offsets")

    def __init__(self, rows: np.ndarray, owner: np.ndarray, offsets: np.ndarray):
        self.rows = rows
        self.owner = owner
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1


def project_histories(artifacts: Artifacts, rows: slice = slice(None)) -> Histories:
    """The histories of the project's reports at ``rows`` (every report by
    default), in row order, as one :class:`Histories`: each row's span holds
    the rows before it in the project ordering, or every other row under
    the policy ``"all"`` of ``artifacts``."""
    n = len(artifacts.report_ids)
    queries = np.arange(n)[rows]
    policy = artifacts.policy
    if policy == "earlier":
        lengths = queries
    else:
        lengths = np.full(len(queries), max(n - 1, 0), dtype=np.intp)
    offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.intp)))
    owner = np.repeat(np.arange(len(queries)), lengths)
    # each span counts 0, 1, ... up; under "all" it steps over the query's own row
    past = np.arange(offsets[-1]) - offsets[owner]
    if policy == "all":
        past += past >= queries[owner]
    return Histories(past, owner, offsets)


def _bridge(artifacts: Artifacts, history: Histories, sims: np.ndarray) -> np.ndarray:
    """Per query of the batch and file, the sum over the query's history
    reports B that fixed the file of ``sims[B] / |fixed(B)|`` (``sims``
    follows ``history.rows``), added up in history order as a dict
    accumulation would: one ``bincount`` over the bins ``query * F +
    column``."""
    offsets, columns = artifacts.fixed
    idx, positions = tfidf.span_indices(offsets, history.rows)
    n_queries, n_files = len(history), len(artifacts.file_ids)
    sizes = artifacts.fixed_counts[history.rows[positions]].astype(float)
    # float even when no pair is drawn on: bincount gives ints for no input
    scores = np.bincount(history.owner[positions] * n_files + columns[idx],
                         weights=sims[positions] / sizes,
                         minlength=n_queries * n_files).astype(float, copy=False)
    return scores.reshape(n_queries, n_files)


def _scores(artifacts: Artifacts, direct: np.ndarray, similarities) -> Scores:
    """The :class:`Scores` of the direct scores and, under the policy of
    ``artifacts``, the bridge of ``similarities(rows, history)``: the
    similarity of each query of ``rows`` to each of its history reports,
    aligned with ``history.rows``; computed chunk by chunk, each chunk's
    histories built for its own rows only."""
    rows = np.arange(len(artifacts.report_ids))
    bridged = np.empty(direct.shape)
    for chunk in _chunks(artifacts, len(rows)):
        history = project_histories(artifacts, chunk)
        bridged[chunk] = _bridge(artifacts, history, similarities(rows[chunk], history))
    direct.flags.writeable = bridged.flags.writeable = False
    return Scores(direct, bridged)


def _report_sims(queries: tfidf.Rows, n_terms: int, step: int) -> np.ndarray:
    """``Postings.cosines`` of each report against the postings of the
    reports up to it, ``step`` rows at a time: the lower triangle of the
    reports × reports matrix, diagonal included, row by row in one flat
    array, so the pair (i, j) sits at ``hi * (hi + 1) // 2 + lo``. Each chunk
    is computed against the reports up to its last row, the columns up to
    the row kept. Each bin adds its products as ``cosine`` does, whichever
    other pairs are computed, and ``cosine`` is the same bit for bit under
    argument swap, so one entry serves both orders."""
    n = len(queries.norms)
    reports = tfidf.Postings.from_rows(queries, n_terms)
    sims = np.empty(n * (n + 1) // 2)
    columns = np.arange(n)
    for start in range(0, n, step):
        rows = columns[start:start + step]
        stop = rows[-1] + 1
        # row by row, the columns up to the row: the triangle's order
        sims[start * (start + 1) // 2:stop * (stop + 1) // 2] = \
            reports.cosines(queries, rows, stop)[columns[:stop] <= rows[:, None]]
    return sims


def tfidf_scores(project: Project, artifacts: Artifacts,
                 vocab: tfidf.Vocabulary | None = None) -> Scores:
    """The project's TF.IDF scores under ``vocab``, by default the local
    vocabulary of its source files, weighed from its token streams, with
    the ids and fixed files of ``artifacts``; for a project without
    reports, which nothing ranks, the unranked scores. The direct scores
    are the length factors times ``Postings.cosines`` and the history
    similarities are read from the cosines of the report pairs
    (:func:`_report_sims`), in chunks of rows; a row of ``Postings.cosines``
    is the same whichever rows are asked with it."""
    if not project.has_queries:
        return Scores.unranked(len(project.source_files))
    streams = _streams(project.source_files)
    if vocab is None:
        vocab = tfidf.build_vocabulary(streams)
    normalizer = tfidf.LengthNormalizer.from_counts(map(len, streams))
    ordered = _streams(_path_order(project))
    files = tfidf.Postings.from_rows(tfidf.weigh(ordered, vocab), len(vocab))
    length_weights = np.array([tfidf.length_weight(len(s), normalizer) for s in ordered])
    queries = tfidf.weigh(_streams(project.bug_reports), vocab)
    rows = np.arange(len(queries.norms))
    chunks = _chunks(artifacts, len(rows))
    direct = np.empty((len(rows), len(files)))
    for chunk in chunks:
        direct[chunk] = length_weights * files.cosines(queries, rows[chunk])
    sims = _report_sims(queries, len(vocab), chunks[0].stop)  # a chunk's rows at a time

    def similarities(asked: np.ndarray, history: Histories) -> np.ndarray:
        hi = np.maximum(asked[history.owner], history.rows)
        lo = np.minimum(asked[history.owner], history.rows)
        return sims[hi * (hi + 1) // 2 + lo]

    return _scores(artifacts, direct, similarities)


def doc_vectors(project: Project, dm_model: embedding.EmbeddingModel,
                dbow_model: embedding.EmbeddingModel, epochs: int | None = None) -> tuple:
    """The combined DM+DBOW vectors of the project's files, in path order,
    and of its reports, in row order, inferred from their token streams in
    one batch each, as matrix rows each with its norm: ``(files,
    file_norms, reports, report_norms)``."""
    def rows(docs):
        vectors, _ = embedding.combined_matrix(_streams(docs), dm_model, dbow_model,
                                               epochs=epochs)
        # one norm per row, computed as doc_cosine computes it
        return vectors, np.array([np.linalg.norm(v) for v in vectors])

    return (*rows(_path_order(project)), *rows(project.bug_reports))


def docvec_scores(artifacts: Artifacts, files: np.ndarray, file_norms: np.ndarray,
                  reports: np.ndarray, report_norms: np.ndarray) -> Scores:
    """The doc-vector scores of the project of ``artifacts`` from its
    :func:`doc_vectors`: each a cosine, equal to the per-pair
    :func:`~bugloc.embedding.doc_cosine` within rounding. The direct scores
    of a chunk are one stacked ``np.matmul``, which numpy runs as one
    matrix-vector product per query, and the history similarities one
    :func:`~bugloc.embedding.doc_cosines` per query over exactly its own
    history rows; a matrix-matrix product, or one over more rows, would
    round differently and can flip ties."""
    direct = np.empty((len(reports), len(files)))
    for chunk in _chunks(artifacts, len(reports)):
        products = np.matmul(files, reports[chunk][:, :, None])[:, :, 0]
        norms = report_norms[chunk]
        direct[chunk] = np.divide(products, np.outer(norms, file_norms),
                                  out=np.zeros(products.shape),
                                  where=(norms != 0.0)[:, None] & (file_norms != 0.0))

    def similarities(asked: np.ndarray, history: Histories) -> np.ndarray:
        offsets = history.offsets.tolist()
        sims = np.empty(len(history.rows))
        for i, row in enumerate(asked.tolist()):
            past = history.rows[offsets[i]:offsets[i + 1]]
            sims[offsets[i]:offsets[i + 1]] = embedding.doc_cosines(
                reports[past], report_norms[past], reports[row], report_norms[row])
        return sims

    return _scores(artifacts, direct, similarities)


def _minmax(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each row of ``scores`` (or the one score array) scaled to [0, 1], in
    ``out`` if given."""
    lo = scores.min(axis=-1, keepdims=True)
    hi = scores.max(axis=-1, keepdims=True)
    flat = hi == lo
    out = np.subtract(scores, lo, out=out)
    np.divide(out, np.where(flat, 1.0, hi - lo), out=out)
    # Constant maps (including all-zero) normalize to zero so they cannot
    # perturb the fused ranking; a row of 0.0 and -0.0 would keep a -0.0.
    if flat.any():
        np.copyto(out, 0.0, where=flat)
    return out


def fuse(direct: np.ndarray, indirect: np.ndarray | None, w1: float, w2: float,
         out: np.ndarray | None = None) -> np.ndarray:
    """Min-max normalize both score arrays and combine them as w1*d + w2*i,
    in ``out`` if given; 2-D arrays are normalized row by row. No
    ``indirect`` is an all-zero map, which normalizes to zero: w1*d +
    w2*0.0."""
    final = _minmax(direct, out)
    final *= w1
    if indirect is None:
        final += w2 * 0.0
    else:
        other = _minmax(indirect)
        other *= w2
        final += other
    return final


def _stored(artifacts: Artifacts, model: str, field: str, rows: np.ndarray,
            chunks: list[slice]) -> np.ndarray:
    """The rows ``rows`` of the model's stored ``field`` scores (``"direct"``
    or ``"bridged"``): the stored array itself for every report in row
    order, else its rows, read-only; for method 7's combined model, the
    average of the min-max normalized TF.IDF-global and doc-vector rows,
    chunk by chunk."""
    if model == COMBINED_GLOBAL:
        lexical, semantic = (_stored(artifacts, kind, field, rows, chunks)
                             for kind in (TFIDF_GLOBAL, DOC2VEC_GLOBAL))
        combined = np.empty((len(rows), len(artifacts.file_ids)))
        for chunk in chunks:
            both = _minmax(lexical[chunk], combined[chunk])
            both += _minmax(semantic[chunk])
            both /= 2
        return combined
    if model not in SCOPES:
        raise ValueError(f"unknown model {model!r}")
    scores = artifacts.scopes.get(SCOPES[model])
    if scores is None:
        raise ValueError(f"{model} scores required but not supplied")
    stored = getattr(scores, field)
    if np.array_equal(rows, np.arange(len(stored))):
        return stored
    selected = stored[rows]
    selected.flags.writeable = False
    return selected


def localize(artifacts: Artifacts, rows, config: MethodConfig) -> RankedList:
    """Rank every source file of the project for its reports at ``rows``,
    an int array of report rows, in one pass, each with its history under
    the policy of ``artifacts``. The result's score arrays and ``entries``
    have one row per query row. An int ``rows`` is a batch of one, and its
    result is that one query's 1-D :class:`RankedList`. A method without a
    history model fuses its direct scores with no bridged map, and its
    ``indirect`` is a read-only view of one zero.

    A query row outside the project's reports raises ``ValueError``. Ties
    in the fused score break by file path so output order is total.
    """
    single = np.ndim(rows) == 0
    rows = np.atleast_1d(np.asarray(rows, dtype=np.intp))
    n_reports = len(artifacts.report_ids)
    # numpy would silently read a negative row from the end
    if len(rows) and (rows.min() < 0 or rows.max() >= n_reports):
        raise ValueError(f"report rows must lie in [0, {n_reports}) for project "
                         f"{artifacts.name}")
    chunks = _chunks(artifacts, len(rows))
    direct = _stored(artifacts, config.direct_model, "direct", rows, chunks)
    indirect = (None if config.indirect_model == NONE
                else _stored(artifacts, config.indirect_model, "bridged", rows, chunks))
    shape = (len(rows), len(artifacts.file_ids))
    final, entries = np.empty(shape), np.empty(shape, dtype=np.intp)
    for chunk in chunks:
        fuse(direct[chunk], None if indirect is None else indirect[chunk], config.w1,
             config.w2, final[chunk])
        entries[chunk] = np.argsort(-final[chunk], axis=-1, kind="stable")
    if indirect is None:  # in no memory of its own
        indirect = np.broadcast_to(0.0, shape)
    ids = [artifacts.report_ids[row] for row in rows.tolist()]
    if single:
        return RankedList(ids[0], config.method_id, artifacts.file_ids, final[0], direct[0],
                          indirect[0], entries[0])
    return RankedList(ids, config.method_id, artifacts.file_ids, final, direct, indirect,
                      entries)
