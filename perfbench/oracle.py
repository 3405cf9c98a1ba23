"""Independent dense-numpy transcription of bugloc's ranking methods.

Starting from the token streams that ``bugloc.preprocess`` produces for the
generated texts, the oracle rebuilds every score from the formulas alone:

- TF.IDF weight ``(ln f + 1) * ln(#docs / df)``; the local model counts the
  project's own files, the global one every file outside the held-out
  project (terms seen only inside it keep ``df = 1``);
- rVSM: ``logistic(N(#terms)) * cos(w_bug, w_file)`` with ``N`` the min-max
  scaling of raw file term counts (0.5 when they are all equal);
- SimiScore bridging: ``sum over earlier reports B fixing f of
  sim(query, B) / |fixed(B)|`` as the matrix product ``H[k, :k] @ Fix[:k]``;
- min-max fusion ``w1 * d + w2 * i`` (a constant map normalizes to 0), with
  method 7 averaging the normalized TF.IDF and doc-vector maps first.

Doc vectors are the one input the oracle does not recompute: callers pass
the ``combined_vector`` outputs, and the oracle applies its own cosine and
bridge to them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from bugloc.preprocess import BUG_REPORT, SOURCE_FILE, PreprocessConfig, preprocess

# Scores are compared to a relative 1e-9, with this absolute floor for values
# near zero.
RTOL = 1e-9
ATOL = 1e-12
# Two fused scores closer than this may legitimately swap under a different
# summation order; RR/AP are then accepted anywhere in the range the swap allows.
TIE_TOL = 1e-9

_W1 = {1: 1.0, 2: 1.0, 3: 0.8, 4: 0.8, 5: 1.0, 6: 0.8, 7: 0.8}


@dataclass
class ProjectTokens:
    name: str
    file_ids: list[str]
    file_tokens: list[tuple[str, ...]]
    report_ids: list[str]            # history order
    report_tokens: list[tuple[str, ...]]
    fixed: list[list[str]]


def tokenize(projects, config: PreprocessConfig | None = None) -> list[ProjectTokens]:
    """Token streams of every generated file and report, via bugloc.preprocess."""
    config = config or PreprocessConfig()
    out = []
    for p in projects:
        out.append(ProjectTokens(
            name=p.name,
            file_ids=[f.id for f in p.files],
            file_tokens=[preprocess(f.text, SOURCE_FILE, config).tokens for f in p.files],
            report_ids=[r.id for r in p.reports],
            report_tokens=[preprocess(r.text, BUG_REPORT, config).tokens for r in p.reports],
            fixed=[list(r.fixed) for r in p.reports],
        ))
    return out


def _minmax(x: np.ndarray) -> np.ndarray:
    lo, hi = x.min(), x.max()
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def _unit_rows(m: np.ndarray) -> np.ndarray:
    norms = np.sqrt((m * m).sum(axis=1))
    safe = np.where(norms == 0.0, 1.0, norms)
    return m / safe[:, None]


def _doc_freq(docs) -> Counter:
    df: Counter = Counter()
    for tokens in docs:
        df.update(set(tokens))
    return df


def _weight_matrix(docs, columns: dict[str, int], idf: np.ndarray) -> np.ndarray:
    m = np.zeros((len(docs), len(columns)))
    for row, tokens in enumerate(docs):
        for term, f in Counter(tokens).items():
            col = columns.get(term)
            if col is not None:
                m[row, col] = (math.log(f) + 1.0) * idf[col]
    return m


@dataclass
class _ScopeScores:
    direct: np.ndarray    # (reports, files) direct scores
    sim: np.ndarray       # (reports, reports), report-report cosine


class Oracle:
    """Scores for every (project, method, query) of one generated corpus."""

    def __init__(self, projects: list[ProjectTokens]):
        self.projects = {p.name: p for p in projects}
        self._scopes: dict[tuple[str, str], _ScopeScores] = {}
        self._fix: dict[str, np.ndarray] = {}
        self._docvec: dict[str, _ScopeScores] = {}

    def _scope(self, name: str, scope: str) -> _ScopeScores:
        key = (name, scope)
        if key not in self._scopes:
            p = self.projects[name]
            if scope == "local":
                vocab = _doc_freq(p.file_tokens)
                n_docs = len(p.file_tokens)
            else:
                others = [t for q in self.projects.values() if q.name != name
                          for t in q.file_tokens]
                vocab = _doc_freq(others)
                n_docs = len(others)
                for tokens in p.file_tokens:
                    for term in tokens:
                        vocab.setdefault(term, 1)
            # only terms this project's documents use can change a score
            used = sorted({t for doc in p.file_tokens + p.report_tokens for t in doc
                           if t in vocab})
            columns = {t: i for i, t in enumerate(used)}
            idf = np.array([math.log(n_docs / vocab[t]) for t in used])
            files = _unit_rows(_weight_matrix(p.file_tokens, columns, idf))
            reports = _unit_rows(_weight_matrix(p.report_tokens, columns, idf))
            lengths = np.array([len(t) for t in p.file_tokens], dtype=float)
            lo, hi = lengths.min(), lengths.max()
            scaled = np.full_like(lengths, 0.5) if hi == lo else (lengths - lo) / (hi - lo)
            logistic = 1.0 / (1.0 + np.exp(-scaled))
            self._scopes[key] = _ScopeScores(direct=(reports @ files.T) * logistic,
                                             sim=reports @ reports.T)
        return self._scopes[key]

    def _fix_matrix(self, name: str) -> np.ndarray:
        if name not in self._fix:
            p = self.projects[name]
            col = {fid: i for i, fid in enumerate(p.file_ids)}
            fix = np.zeros((len(p.report_ids), len(p.file_ids)))
            for row, fixed in enumerate(p.fixed):
                for fid in fixed:
                    fix[row, col[fid]] = 1.0 / len(fixed)
            self._fix[name] = fix
        return self._fix[name]

    def set_doc_vectors(self, name: str, file_vectors: np.ndarray,
                        report_vectors: np.ndarray) -> None:
        """Doc vectors (rows in file / history order) from ``combined_vector``."""
        files, reports = _unit_rows(file_vectors), _unit_rows(report_vectors)
        self._docvec[name] = _ScopeScores(direct=reports @ files.T, sim=reports @ reports.T)

    def _bridge(self, name: str, sim: np.ndarray, k: int) -> np.ndarray:
        return sim[k, :k] @ self._fix_matrix(name)[:k]

    def scores(self, name: str, method: int, query_id: str):
        """(final, direct, indirect) arrays over the project's files, in
        ``file_ids`` order, for one query with an "earlier" history."""
        p = self.projects[name]
        k = p.report_ids.index(query_id)
        n_files = len(p.file_ids)
        if method in (1, 3):
            s = self._scope(name, "local")
            direct = s.direct[k]
            indirect = self._bridge(name, s.sim, k) if method == 3 else np.zeros(n_files)
        elif method in (2, 4):
            s = self._scope(name, "global")
            direct = s.direct[k]
            indirect = self._bridge(name, s.sim, k) if method == 4 else np.zeros(n_files)
        elif method == 5:
            direct = self._docvec[name].direct[k]
            indirect = np.zeros(n_files)
        elif method == 6:
            direct = self._scope(name, "global").direct[k]
            indirect = self._bridge(name, self._docvec[name].sim, k)
        elif method == 7:
            g, d = self._scope(name, "global"), self._docvec[name]
            direct = (_minmax(g.direct[k]) + _minmax(d.direct[k])) / 2
            indirect = (_minmax(self._bridge(name, g.sim, k))
                        + _minmax(self._bridge(name, d.sim, k))) / 2
        else:
            raise ValueError(f"unknown method {method}")
        w1 = _W1[method]
        final = w1 * _minmax(direct) + (1.0 - w1) * _minmax(indirect)
        return final, direct, indirect

    def rr_ap_range(self, name: str, method: int, query_id: str):
        """(lowest, highest) reciprocal rank and average precision the
        oracle's ranking admits once near-tied scores may swap."""
        p = self.projects[name]
        final, _, _ = self.scores(name, method, query_id)
        relevant = set(p.fixed[p.report_ids.index(query_id)])
        order = sorted(range(len(final)), key=lambda i: (-final[i], p.file_ids[i]))
        runs, run = [], [order[0]]
        for prev, cur in zip(order, order[1:]):
            if final[prev] - final[cur] > TIE_TOL:
                runs.append(run)
                run = []
            run.append(cur)
        runs.append(run)
        out = []
        for relevant_first in (False, True):
            ranked = []
            for run in runs:
                # exact ties keep their path order; a run of near-equal
                # scores may come out in any order
                if any(final[i] != final[run[0]] for i in run):
                    run = sorted(run, key=lambda i: (p.file_ids[i] in relevant) != relevant_first)
                ranked.extend(p.file_ids[i] for i in run)
            out.append(reciprocal_rank_and_ap(ranked, relevant))
        (rr_lo, ap_lo), (rr_hi, ap_hi) = out
        return (rr_lo, rr_hi), (ap_lo, ap_hi)


def reciprocal_rank_and_ap(ranked: list[str], relevant: set[str]) -> tuple[float, float]:
    rr, hits, precision_sum = 0.0, 0, 0.0
    for j, fid in enumerate(ranked, start=1):
        if fid in relevant:
            hits += 1
            precision_sum += hits / j
            if hits == 1:
                rr = 1.0 / j
    return rr, precision_sum / len(relevant)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def check_per_query_row(oracle: Oracle, name: str, method: int, query_id: str,
                        rr: float, ap: float) -> str | None:
    """Mismatch message for one per_query.csv row (6-decimal values), or None."""
    (rr_lo, rr_hi), (ap_lo, ap_hi) = oracle.rr_ap_range(name, method, query_id)
    slack = 1e-6
    if not (rr_lo - slack <= rr <= rr_hi + slack and ap_lo - slack <= ap <= ap_hi + slack):
        return (f"{name} m{method} {query_id}: rr={rr} ap={ap}, oracle "
                f"rr in [{rr_lo:.6f}, {rr_hi:.6f}] ap in [{ap_lo:.6f}, {ap_hi:.6f}]")
    return None


def check_ranking_rows(oracle: Oracle, name: str, method: int, query_id: str,
                       rows: list[dict]) -> str | None:
    """Mismatch message for one ``localize`` CSV, or None.

    Every file appears once, ranks run 1..n, final/direct/indirect match
    the oracle to a relative 1e-9, rows descend by the oracle's final score
    (near-ties may swap) and exactly tied files are in path order.
    """
    p = oracle.projects[name]
    final, direct, indirect = oracle.scores(name, method, query_id)
    index = {fid: i for i, fid in enumerate(p.file_ids)}
    paths = [row["file_path"] for row in rows]
    if sorted(paths) != sorted(p.file_ids):
        return f"{name} m{method} {query_id}: ranked file set differs from the project's files"
    if [row["rank"] for row in rows] != [str(r) for r in range(1, len(rows) + 1)]:
        return f"{name} m{method} {query_id}: ranks are not 1..{len(rows)}"
    for row in rows:
        i = index[row["file_path"]]
        if row["bug_id"] != query_id:
            return f"{name} m{method} {query_id}: row for bug {row['bug_id']}"
        for column, expected in (("final", final[i]), ("direct", direct[i]),
                                 ("indirect", indirect[i])):
            if not close(float(row[column]), float(expected)):
                return (f"{name} m{method} {query_id}: {row['file_path']} {column}="
                        f"{row[column]}, oracle {expected!r}")
    for a, b in zip(rows, rows[1:]):
        fa, fb = final[index[a["file_path"]]], final[index[b["file_path"]]]
        if fa < fb - TIE_TOL:
            return (f"{name} m{method} {query_id}: {a['file_path']} ranked above "
                    f"{b['file_path']} with a lower oracle score")
        if fa == fb and a["file_path"] > b["file_path"]:
            return f"{name} m{method} {query_id}: tie at {a['final']} not in path order"
    return None
