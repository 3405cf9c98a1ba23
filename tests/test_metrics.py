import itertools
import logging
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bugloc.metrics import (MetricsReport, QueryResult, average_precision,
                            compute_metrics, first_relevant_rank,
                            mean_average_precision, mrr, reciprocal_rank,
                            top_n, wilcoxon_signed_rank)


def result(ranked, relevant, bug_id="q"):
    return QueryResult.from_ranking(bug_id, list(ranked), relevant)


class TestReciprocalRank:
    def test_rank_one(self):
        assert reciprocal_rank(result("abc", "a")) == 1.0

    def test_rank_four(self):
        assert reciprocal_rank(result("abcd", "d")) == 0.25

    def test_unranked_relevant_is_zero(self):
        assert reciprocal_rank(result("abc", "z")) == 0.0


class TestMrr:
    def test_hand_value(self):
        results = [result("abc", "a"), result("abc", "b"), result("abcd", "d")]
        assert mrr(results) == pytest.approx((1 + 0.5 + 0.25) / 3)
        assert mrr(results) == pytest.approx(0.5833333333, rel=1e-9)

    def test_all_rank_one(self):
        assert mrr([result("ab", "a"), result("ba", "b")]) == 1.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            mrr([])


class TestAveragePrecision:
    def test_hand_value(self):
        # relevant at ranks 1 and 3 of 2 relevant
        assert average_precision(result(["r1", "x", "r2"], ["r1", "r2"])) == \
            pytest.approx((1 + 2 / 3) / 2)

    def test_single_relevant_at_one(self):
        assert average_precision(result("abc", "a")) == 1.0

    def test_all_unranked(self):
        assert average_precision(result("abc", "zz")) == 0.0

    def test_brute_force_oracle_on_random_lists(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(1, 12)
            ranked = [f"f{i}" for i in range(n)]
            rng.shuffle(ranked)
            relevant = set(rng.sample(ranked, rng.randint(1, n)))
            # independent recomputation: precision@j via explicit slicing
            expected = sum(
                len(set(ranked[:j]) & relevant) / j
                for j in range(1, n + 1) if ranked[j - 1] in relevant
            ) / len(relevant)
            assert average_precision(result(ranked, relevant)) == pytest.approx(expected)


class TestMap:
    def test_mean(self):
        results = [result("ab", "a"), result("ab", "b")]
        assert mean_average_precision(results) == pytest.approx(0.75)

    def test_single_query(self):
        r = result(["r1", "x", "r2"], ["r1", "r2"])
        assert mean_average_precision([r]) == average_precision(r)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            mean_average_precision([])


class TestTopN:
    def test_counts_hits(self):
        results = [result("abc", "a"), result("abc", "b"), result("abc", "a"),
                   result("abc", "c"), result("abc", "a")]
        assert top_n(results, 1) == 3
        assert top_n(results, 2) == 4
        assert top_n(results, 3) == 5

    def test_n_beyond_list_length(self):
        results = [result("ab", "b"), result("ab", "zz")]
        assert top_n(results, 100) == 1

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            top_n([result("a", "a")], 0)

    @given(st.lists(st.tuples(st.permutations(list("abcdef")),
                              st.sets(st.sampled_from("abcdef"), min_size=1)),
                    min_size=1, max_size=8))
    def test_monotone_in_n(self, data):
        results = [result(ranked, rel) for ranked, rel in data]
        counts = [top_n(results, n) for n in range(1, 8)]
        assert counts == sorted(counts)
        assert counts[-1] <= len(results)


def test_singleton_truth_makes_rr_equal_ap():
    for ranked in itertools.permutations("abcd"):
        r = result(ranked, "c")
        assert reciprocal_rank(r) == average_precision(r)


def test_metrics_invariant_under_query_permutation():
    results = [result("abc", "a"), result("abc", "c"), result("abc", "b")]
    shuffled = [results[2], results[0], results[1]]
    assert mrr(results) == mrr(shuffled)
    assert mean_average_precision(results) == mean_average_precision(shuffled)
    assert top_n(results, 1) == top_n(shuffled, 1)


def test_means_add_left_to_right():
    """MRR and MAP add in a plain loop: these reciprocal ranks sum to another
    float left to right than exactly, as ``sum()`` from Python 3.12 on would
    give, so ``metrics.csv`` would differ between versions."""
    ranks = (1, 3, 7)
    results = [QueryResult(f"q{r}", (r,), 1) for r in ranks]
    total = 0.0
    for r in ranks:
        total += 1 / r
    assert total / len(ranks) != math.fsum(1 / r for r in ranks) / len(ranks)
    assert mrr(results) == total / len(ranks)
    assert mean_average_precision(results) == total / len(ranks)


def test_compute_metrics_report():
    results = [result("abc", "a", "q1"), result("abc", "b", "q2")]
    report = compute_metrics(results)
    assert isinstance(report, MetricsReport)
    assert report.n_queries == 2
    assert report.top_n == {1: 1, 5: 2, 10: 2}
    assert 0 <= report.map <= report.mrr <= 1
    assert report.per_query["q2"] == (0.5, 0.5)
    assert report.as_dict()["top5"] == 2
    assert report.top_n[1] <= report.top_n[5] <= report.top_n[10] <= report.n_queries


def test_compute_metrics_warns_once_per_query_without_ranked_relevant_file(caplog):
    results = [QueryResult("q1", (), 1), QueryResult("q2", (3,), 2), QueryResult("q3", (), 2)]
    with caplog.at_level(logging.WARNING, logger="bugloc.metrics"):
        report = compute_metrics(results)
    assert [r.getMessage() for r in caplog.records] == [
        "query q1: no relevant file in ranked list", "query q3: no relevant file in ranked list"]
    assert report.mrr == mrr(results) and report.map == mean_average_precision(results)
    assert report.per_query == {"q1": (0.0, 0.0), "q2": (1 / 3, 1 / 6), "q3": (0.0, 0.0)}


def test_query_result_validation():
    with pytest.raises(ValueError):
        result("abc", "")
    with pytest.raises(ValueError):
        QueryResult.from_ranking("q", ["a", "a"], {"a"})


@pytest.mark.parametrize("ranks, n_relevant", [((), 0), ((1, 2), 1), ((2, 2), 2),
                                               ((3, 1), 2), ((0,), 1)])
def test_query_result_rejects_impossible_ranks(ranks, n_relevant):
    with pytest.raises(ValueError, match="query q"):
        QueryResult("q", ranks, n_relevant)


def test_from_ranking_keeps_ascending_ranks_and_counts_unranked_files():
    r = QueryResult.from_ranking("q", ["x", "r2", "y", "r1"], {"r1", "r2", "gone"})
    assert (r.relevant_ranks, r.n_relevant) == ((2, 4), 3)


# The list-walking formulas the rank-based metrics replaced, kept as the
# reference they must reproduce bit for bit.
def list_rr(ranked, relevant):
    for i, file_id in enumerate(ranked, start=1):
        if file_id in relevant:
            return 1.0 / i
    return 0.0


def list_ap(ranked, relevant):
    hits = 0
    precision_sum = 0.0
    for j, file_id in enumerate(ranked, start=1):
        if file_id in relevant:
            hits += 1
            precision_sum += hits / j
    return precision_sum / len(relevant)


def list_top_n(ranked, relevant, n):
    return any(file_id in relevant for file_id in ranked[:n])


@given(st.data())
def test_ranks_from_tied_scores_match_list_formulas(data):
    n_files = data.draw(st.integers(1, 40))
    scores = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n_files,
                                         max_size=n_files)), dtype=float)
    columns = data.draw(st.sets(st.integers(0, n_files - 1), min_size=1))
    missing = data.draw(st.integers(0, 2))  # relevant files not in the ranking
    ids = [f"f{j:02d}" for j in range(n_files)]
    order = np.argsort(-scores, kind="stable")  # few distinct values: many exact ties
    ranked = [ids[j] for j in order]
    relevant = {ids[j] for j in columns} | {f"gone{k}" for k in range(missing)}

    wanted = np.zeros(n_files, dtype=bool)
    wanted[list(columns)] = True
    ranks = tuple((np.flatnonzero(wanted[order]) + 1).tolist())
    from_ranks = QueryResult("q", ranks, len(relevant))
    assert from_ranks == QueryResult.from_ranking("q", ranked, relevant)
    assert reciprocal_rank(from_ranks) == list_rr(ranked, relevant)
    assert average_precision(from_ranks) == list_ap(ranked, relevant)
    for n in (1, 5, 10):
        assert top_n([from_ranks], n) == list_top_n(ranked, relevant, n)


def test_first_relevant_rank():
    assert first_relevant_rank(result("abc", "b")) == 2
    assert first_relevant_rank(result("abc", "z")) is None


def wilcoxon_enumeration_oracle(a, b):
    """Exhaustive 2^n enumeration, written independently of the module."""
    diffs = [x - y for x, y in zip(a, b) if x != y]
    n = len(diffs)
    absd = [abs(d) for d in diffs]
    # mid-ranks by explicit position averaging
    ranks = []
    for d in absd:
        smaller = sum(1 for x in absd if x < d)
        equal = sum(1 for x in absd if x == d)
        ranks.append(smaller + (equal + 1) / 2)
    w_obs = sum(r for r, d in zip(ranks, diffs) if d > 0)
    le = ge = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        le += w <= w_obs
        ge += w >= w_obs
    total = 2 ** n
    return min(1.0, 2 * min(le / total, ge / total))


class TestWilcoxon:
    def test_all_positive_n5(self):
        stat, p = wilcoxon_signed_rank([2, 4, 6, 8, 10], [1, 3, 5, 7, 9])
        assert stat == 0.0
        assert p == 1 / 16  # two-sided; one-sided would be 1/32

    def test_all_zero_differences(self):
        with pytest.raises(ValueError, match="all differences zero"):
            wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            wilcoxon_signed_rank([1, 2, 3], [1, 2])

    def test_too_few_nonzero(self):
        with pytest.raises(ValueError, match="at least 5"):
            wilcoxon_signed_rank([1, 2, 3, 9], [0, 1, 2, 9])

    def test_exact_matches_enumeration(self):
        rng = random.Random(3)
        for n in range(5, 13):
            for _ in range(6):
                # integer data forces plenty of rank ties
                a = [rng.randint(0, 6) for _ in range(n)]
                b = [rng.randint(0, 6) for _ in range(n)]
                if all(x == y for x, y in zip(a, b)):
                    a[0] += 1
                diffs = sum(1 for x, y in zip(a, b) if x != y)
                if diffs < 5:
                    continue
                _, p = wilcoxon_signed_rank(a, b, mode="exact")
                assert p == wilcoxon_enumeration_oracle(a, b), (a, b)

    def test_approximation_close_to_exact_at_n12(self):
        rng = random.Random(8)
        for _ in range(20):
            a = [rng.uniform(0, 1) for _ in range(12)]
            b = [rng.uniform(0, 1) for _ in range(12)]
            _, p_exact = wilcoxon_signed_rank(a, b, mode="exact")
            _, p_approx = wilcoxon_signed_rank(a, b, mode="approx")
            assert abs(p_exact - p_approx) < 0.01

    def test_symmetric_in_arguments(self):
        rng = random.Random(5)
        for _ in range(10):
            a = [rng.uniform(0, 1) for _ in range(9)]
            b = [rng.uniform(0, 1) for _ in range(9)]
            _, p_ab = wilcoxon_signed_rank(a, b)
            _, p_ba = wilcoxon_signed_rank(b, a)
            assert p_ab == p_ba

    def test_known_shift_detected_large_n(self):
        rng = random.Random(11)
        a = [rng.gauss(0.6, 0.1) for _ in range(40)]
        b = [x - 0.08 for x in a]
        _, p = wilcoxon_signed_rank(a, b)
        assert p < 0.05

    def test_agrees_with_scipy_large_n(self):
        # sanity cross-check against an established implementation; ours
        # carries an extra Edgeworth term, so agreement is approximate
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = random.Random(17)
        for _ in range(10):
            a = [rng.uniform(0, 1) for _ in range(30)]
            b = [rng.uniform(0, 1) for _ in range(30)]
            stat, p = wilcoxon_signed_rank(a, b, mode="approx")
            ref = scipy_stats.wilcoxon(a, b, correction=True, method="approx")
            assert stat == pytest.approx(ref.statistic)
            assert p == pytest.approx(ref.pvalue, abs=0.01)

    def test_auto_switches_to_exact_for_small_n(self):
        a = [1, 2, 3, 4, 5, 6]
        b = [0, 0, 0, 0, 0, 0]
        _, p_auto = wilcoxon_signed_rank(a, b)
        _, p_exact = wilcoxon_signed_rank(a, b, mode="exact")
        assert p_auto == p_exact == 2 / 64

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            wilcoxon_signed_rank([1, 2, 3, 4, 5], [0, 0, 0, 0, 0], mode="bogus")
