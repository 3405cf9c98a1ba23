"""Ranking quality metrics and the paired significance test.

A query's result is the ascending 1-based ranks its relevant files took
and the number of relevant files it has; no ranked list is kept. A
relevant file missing from the ranking has no rank and contributes
nothing (rank infinity). Reciprocal rank, average precision and Top-N hit
counts follow the usual IR definitions: RR is ``1 / r_1``, AP adds
``k / r_k`` over the ranks in ascending order (the arithmetic and order of
a walk down the list) and divides by the number of relevant files, and a
Top-N hit is ``r_1 <= N``. The Wilcoxon signed-rank test is exact (full
sign-assignment distribution, mid-ranks for ties) up to n=12 and falls
back to a tie- and continuity-corrected normal approximation for larger
samples.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

logger = logging.getLogger(__name__)


@dataclass
class QueryResult:
    """One bug report's ground truth as ranks: ``relevant_ranks`` are the
    ascending 1-based ranks of its relevant files that were ranked, and
    ``n_relevant`` counts all of its relevant files."""

    bug_id: str
    relevant_ranks: tuple[int, ...]
    n_relevant: int

    def __post_init__(self):
        if self.n_relevant < 1:
            raise ValueError(f"query {self.bug_id}: empty relevant set")
        ranks = self.relevant_ranks
        if len(ranks) > self.n_relevant or any(
                not a < b for a, b in zip((0, *ranks), ranks)):
            raise ValueError(f"query {self.bug_id}: relevant ranks {ranks} are not "
                             f"{self.n_relevant} or fewer ascending ranks")

    @classmethod
    def from_ranking(cls, bug_id: str, ranked_ids: Sequence[str],
                     relevant: Iterable[str]) -> "QueryResult":
        """The result of a full ranked list of file ids and the relevant ids."""
        relevant = set(relevant)
        if not relevant:
            raise ValueError(f"query {bug_id}: empty relevant set")
        if len(set(ranked_ids)) != len(ranked_ids):
            raise ValueError(f"query {bug_id}: duplicate entries in ranked list")
        return cls(bug_id, tuple(i for i, file_id in enumerate(ranked_ids, start=1)
                                 if file_id in relevant), len(relevant))


def first_relevant_rank(result: QueryResult) -> int | None:
    """1-based rank of the first relevant file, or None if none is ranked."""
    return result.relevant_ranks[0] if result.relevant_ranks else None


def reciprocal_rank(result: QueryResult) -> float:
    rank = first_relevant_rank(result)
    if rank is None:
        logger.warning("query %s: no relevant file in ranked list", result.bug_id)
        return 0.0
    return 1.0 / rank


def average_precision(result: QueryResult) -> float:
    """Mean of precision-at-j over the ranks j holding relevant files,
    divided by the total number of relevant files."""
    precision_sum = 0.0
    # a plain loop, not sum(): from Python 3.12 on sum() compensates float
    # rounding, and this must add exactly as a walk down the list does
    for hits, j in enumerate(result.relevant_ranks, start=1):
        precision_sum += hits / j
    return precision_sum / result.n_relevant


def _mean(values: list[float]) -> float:
    total = 0.0  # a plain loop, as in average_precision, on every Python version
    for value in values:
        total += value
    return total / len(values)


def mrr(results: Sequence[QueryResult]) -> float:
    if not results:
        raise ValueError("mrr of an empty query set")
    return _mean([reciprocal_rank(r) for r in results])


def mean_average_precision(results: Sequence[QueryResult]) -> float:
    if not results:
        raise ValueError("map of an empty query set")
    return _mean([average_precision(r) for r in results])


def top_n(results: Iterable[QueryResult], n: int) -> int:
    """Number of queries with a relevant file in the first n ranks."""
    if n < 1:
        raise ValueError("n must be >= 1")
    count = 0
    for result in results:
        rank = first_relevant_rank(result)
        if rank is not None and rank <= n:
            count += 1
    return count


@dataclass
class MetricsReport:
    mrr: float
    map: float
    top_n: dict[int, int]
    per_query: dict[str, tuple[float, float]] = field(default_factory=dict)
    n_queries: int = 0

    def as_dict(self) -> dict:
        out = {"mrr": self.mrr, "map": self.map, "n_queries": self.n_queries}
        for n, hits in sorted(self.top_n.items()):
            out[f"top{n}"] = hits
        return out


def compute_metrics(results: Sequence[QueryResult], top_ns=(1, 5, 10)) -> MetricsReport:
    """MRR, MAP, Top-N hits and each query's (RR, AP), each query's RR and
    AP computed once; MRR and MAP are :func:`mrr` and
    :func:`mean_average_precision` bit for bit."""
    if not results:
        raise ValueError("mrr of an empty query set")
    rrs = [reciprocal_rank(r) for r in results]
    aps = [average_precision(r) for r in results]
    return MetricsReport(
        mrr=_mean(rrs),
        map=_mean(aps),
        top_n={n: top_n(results, n) for n in top_ns},
        per_query=dict(zip([r.bug_id for r in results], zip(rrs, aps))),
        n_queries=len(results),
    )


def _midranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        rank = (i + j + 2) / 2  # average of 1-based positions i+1..j+1
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def _exact_two_sided_p(doubled_ranks: list[int], doubled_w_plus: int) -> float:
    # Distribution of 2*W+ over all sign assignments, by subset-sum counting.
    # Doubling makes mid-ranks integral.
    total = sum(doubled_ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled_ranks:
        for s in range(total, r - 1, -1):
            counts[s] += counts[s - r]
    n_assignments = 1 << len(doubled_ranks)
    le = sum(counts[: doubled_w_plus + 1])
    ge = sum(counts[doubled_w_plus:])
    return min(1.0, 2 * min(le, ge) / n_assignments)


def _approx_two_sided_p(ranks: list[float], w_plus: float) -> float:
    # W+ is a sum of independent rank*Bernoulli(1/2) terms, which gives the
    # cumulants directly (sum-of-squares variance equals the textbook
    # tie-corrected formula). The Edgeworth kurtosis term tightens the
    # normal tail enough to stay within 0.01 of enumeration already at n=12.
    mean = sum(ranks) / 2
    variance = sum(r * r for r in ranks) / 4
    if variance <= 0:
        raise ValueError("degenerate rank variance")
    kurt = -sum(r ** 4 for r in ranks) / 8 / variance ** 2
    w_low = min(w_plus, 2 * mean - w_plus)
    z = (w_low + 0.5 - mean) / math.sqrt(variance)  # continuity-corrected
    tail = 0.5 * math.erfc(-z / math.sqrt(2))
    tail -= math.exp(-z * z / 2) / math.sqrt(2 * math.pi) * (kurt / 24) * (z ** 3 - 3 * z)
    return max(0.0, min(1.0, 2 * tail))


def wilcoxon_signed_rank(paired_a: Sequence[float], paired_b: Sequence[float],
                         mode: str = "auto") -> tuple[float, float]:
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; ties get mid-ranks. ``mode`` picks the
    p-value computation: "exact" enumerates the full sign-assignment
    distribution, "approx" uses the corrected normal approximation, "auto"
    switches at n=12. Returns ``(min(W+, W-), p)``.
    """
    if len(paired_a) != len(paired_b):
        raise ValueError("paired samples differ in length")
    diffs = [a - b for a, b in zip(paired_a, paired_b) if a != b]
    if not diffs:
        raise ValueError("all differences zero")
    n = len(diffs)
    if n < 5:
        raise ValueError(f"need at least 5 nonzero differences, got {n}")
    if mode not in ("auto", "exact", "approx"):
        raise ValueError(f"unknown mode {mode!r}")

    ranks = _midranks([abs(d) for d in diffs])
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    w_minus = n * (n + 1) / 2 - w_plus
    statistic = min(w_plus, w_minus)

    if mode == "exact" or (mode == "auto" and n <= 12):
        doubled = [int(round(2 * r)) for r in ranks]
        p = _exact_two_sided_p(doubled, int(round(2 * w_plus)))
    else:
        p = _approx_two_sided_p(ranks, w_plus)
    return statistic, p
