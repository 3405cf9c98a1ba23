"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The headline benchmark numbers from the literature need the full
multi-project dataset and hours of compute, so the gate here is oracle-
and property-based; the one dataset-backed check (criterion 8) only runs
when BUGLOC_BENCH4BL_DIR points at a prepared benchmark tree.
"""

import csv
import itertools
import os
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from bugloc import cli, metrics, rank, synth, tfidf
from bugloc.cli import main
from bugloc.corpus import load_benchmark
from bugloc.embedding import PV_DBOW, PV_DM, softmax
from bugloc.preprocess import TokenStream, preprocess_benchmark

from test_embedding import finite_difference_error
from test_metrics import wilcoxon_enumeration_oracle
from test_tfidf import rvsm_reference


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\ncriterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"
    print(f"\ncriterion {number} ({description}): PASS [{elapsed:.2f}s]")


def test_criterion_1_rvsm_oracle_equivalence():
    with criterion(1, "rVSM matches straight-line formula on 50 random corpora", 5):
        rng = random.Random(1234)
        alphabet = [f"w{i}" for i in range(15)]
        for trial in range(50):
            n_docs = rng.randint(2, 20)
            corpus = [[rng.choice(alphabet) for _ in range(rng.randint(1, 18))]
                      for _ in range(n_docs)]
            bug = [rng.choice(alphabet) for _ in range(rng.randint(1, 14))]

            streams = [TokenStream(tuple(t), "source_file") for t in corpus]
            vocab = tfidf.build_vocabulary(streams)
            vectors = [tfidf.vectorize(s, vocab) for s in streams]
            norm = tfidf.LengthNormalizer.from_counts(len(s) for s in streams)
            bug_vec = tfidf.vectorize(TokenStream(tuple(bug), "bug_report"), vocab)

            for i in range(n_docs):
                expected = rvsm_reference(bug, corpus, i)
                actual = tfidf.rvsm(bug_vec, vectors[i], norm)
                if expected == 0.0:
                    assert actual == 0.0, (trial, i)
                else:
                    assert abs(actual - expected) / abs(expected) < 1e-12, (trial, i)


def test_criterion_2_metric_fixtures():
    with criterion(2, "MRR/MAP fixtures exact, Top-N monotone on 1000 sets", 5):
        ranks_result = [
            metrics.QueryResult.from_ranking("q1", ["a", "b", "c", "d"], {"a"}),
            metrics.QueryResult.from_ranking("q2", ["a", "b", "c", "d"], {"b"}),
            metrics.QueryResult.from_ranking("q3", ["a", "b", "c", "d"], {"d"}),
        ]
        assert metrics.mrr(ranks_result) == (1 + 0.5 + 0.25) / 3
        assert metrics.mrr(ranks_result) == pytest.approx(0.58333, abs=5e-6)

        ap = metrics.average_precision(
            metrics.QueryResult.from_ranking("q", ["r1", "x", "r2", "y"], {"r1", "r2"}))
        assert ap == (1 + 2 / 3) / 2
        assert ap == pytest.approx(0.83333, abs=5e-6)

        rng = random.Random(77)
        pool = [f"f{i}" for i in range(12)]
        for _ in range(1000):
            n_queries = rng.randint(1, 6)
            results = []
            for q in range(n_queries):
                ranked = rng.sample(pool, rng.randint(1, len(pool)))
                relevant = {rng.choice(pool)}
                results.append(metrics.QueryResult.from_ranking(f"q{q}", ranked, relevant))
            counts = [metrics.top_n(results, n) for n in (1, 2, 3, 5, 8, 12)]
            assert counts == sorted(counts)
            assert counts[-1] <= len(results)


def test_criterion_3_wilcoxon_exactness():
    with criterion(3, "exact p equals 2^n enumeration; approximation near at n=12", 30):
        rng = random.Random(55)
        for n in range(5, 13):
            for _ in range(8):
                a = [rng.randint(0, 5) for _ in range(n)]
                b = [rng.randint(0, 5) for _ in range(n)]
                if sum(1 for x, y in zip(a, b) if x != y) < 5:
                    continue
                _, p = metrics.wilcoxon_signed_rank(a, b, mode="exact")
                assert p == wilcoxon_enumeration_oracle(a, b), (n, a, b)

        for _ in range(40):
            a = [rng.uniform(0, 1) for _ in range(12)]
            b = [rng.uniform(0, 1) for _ in range(12)]
            _, p_exact = metrics.wilcoxon_signed_rank(a, b, mode="exact")
            _, p_approx = metrics.wilcoxon_signed_rank(a, b, mode="approx")
            assert abs(p_exact - p_approx) < 0.01


def test_criterion_4_embedding_gradients():
    with criterion(4, "kernel gradients match finite differences; softmax sums to 1", 10):
        rng = np.random.default_rng(99)
        V, N, d = 5, 3, 4
        for mode in (PV_DM, PV_DBOW):
            for negatives in (None, np.array([0, 4, 1])):
                W = rng.normal(0, 0.5, (V, d))
                D = rng.normal(0, 0.5, (N, d))
                U = rng.normal(0, 0.5, (V, d))
                b = rng.normal(0, 0.5, V)
                err = finite_difference_error(W, D, U, b, mode=mode, doc_index=0, target=3,
                                              context=(1, 2) if mode == PV_DM else (),
                                              negatives=negatives)
                assert err < 1e-4, (mode, negatives, err)

        for _ in range(50):
            p = softmax(rng.normal(0, 8, size=rng.integers(2, 60)))
            assert abs(p.sum() - 1.0) <= 1e-9


def test_criterion_5_synthetic_end_to_end(synth_benchmark, tmp_path, monkeypatch):
    with criterion(5, "methods 1-4 hit rank 1 >= 95%; global IDF beats local on decoys", 60):
        root, benchmark, meta = synth_benchmark
        loads = []

        def counted(*args, **kwargs):
            loads.append(args)
            return load_benchmark(*args, **kwargs)

        monkeypatch.setattr(cli, "load_benchmark", counted)

        def evaluate(out):
            """Each (project, bug, method)'s first relevant rank, from the
            evaluate command's per_query.csv."""
            result = CliRunner().invoke(main, [
                "evaluate", "--benchmark", str(root), "--methods", "1,2,3,4",
                "--cache", str(tmp_path / "cache"), "--out", str(tmp_path / out)])
            assert result.exit_code == 0, result.output
            with open(tmp_path / out / "per_query.csv", newline="") as fh:
                return {(r["project"], r["bug_id"], int(r["method"])):
                        round(1 / float(r["reciprocal_rank"]))
                        for r in csv.DictReader(fh)}

        cold = evaluate("cold")
        assert len(loads) == 1
        warm = evaluate("warm")  # every ranking index hits: no benchmark load
        assert len(loads) == 1
        assert warm == cold

        total = sum(len(p.bug_reports) for p in benchmark.projects)
        for method_id in (1, 2, 3, 4):
            ranks = [r for (_, _, m), r in warm.items() if m == method_id]
            assert len(ranks) == total
            rate = ranks.count(1) / total
            assert rate >= 0.95, f"method {method_id} rank-1 rate {rate:.3f}"

        assert meta["decoy"], "fixture must plant at least one decoy query"
        for entry in meta["decoy"]:
            ranks = {m: warm[(entry["project"], entry["bug_id"], m)] for m in (1, 4)}
            assert ranks[4] < ranks[1], f"global IDF did not win: {ranks}"
            assert ranks[4] == 1


def test_criterion_6_evaluate_determinism(synth_benchmark, tmp_path):
    with criterion(6, "evaluate is byte-identical under a fixed seed", 120):
        root, _, _ = synth_benchmark
        runner = CliRunner()
        args = ["--benchmark", str(root), "--methods", "1,2,3,4,5,6,7",
                "--cache", str(tmp_path / "cache"), "--seed", "5",
                "--epochs", "2", "--vector-size", "8", "--min-count", "1",
                "--infer-epochs", "2"]
        for out in ("run1", "run2"):
            result = runner.invoke(main, ["evaluate", *args, "--out",
                                          str(tmp_path / out)])
            assert result.exit_code == 0, result.output
        for name in ("metrics.csv", "per_query.csv", "wilcoxon.csv", "metrics.json"):
            a = (tmp_path / "run1" / name).read_bytes()
            b = (tmp_path / "run2" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


def test_criterion_7_fusion_invariants():
    with criterion(7, "w2=0 keeps the direct ranking; scaling never reorders", 5):
        rng = random.Random(4242)
        for _ in range(100):
            ids = [f"f{i}" for i in range(rng.randint(2, 12))]
            direct = np.array([rng.uniform(0, 3) for _ in ids])
            indirect = np.array([rng.uniform(0, 3) for _ in ids])

            def ranking(scores):
                return sorted(range(len(ids)), key=lambda j: (-scores[j], ids[j]))

            fused = rank.fuse(direct, indirect, 1.0, 0.0)
            assert ranking(fused) == ranking(direct)

            c = rng.uniform(1e-3, 1e3)
            base = rank.fuse(direct, indirect, 0.8, 0.2)
            scaled_direct = rank.fuse(c * direct, indirect, 0.8, 0.2)
            scaled_indirect = rank.fuse(direct, c * indirect, 0.8, 0.2)
            order = ranking(base)
            assert ranking(scaled_direct) == order
            assert ranking(scaled_indirect) == order


BENCH4BL_DIR = os.environ.get("BUGLOC_BENCH4BL_DIR")


@pytest.mark.skipif(not BENCH4BL_DIR, reason="set BUGLOC_BENCH4BL_DIR to run the "
                    "dataset-backed check (environment-dependent, not CI-gating)")
def test_criterion_8_real_dataset_counts():
    with criterion(8, "real benchmark reproduces published corpus counts", 7200):
        benchmark = load_benchmark(BENCH4BL_DIR, strict=False)
        assert len(benchmark.projects) == 51
        csv_project = benchmark.project("CSV")
        assert len(csv_project.source_files) == 29
        assert len(csv_project.bug_reports) == 14
        preprocess_benchmark(benchmark)
        streams = [f.token_stream for p in benchmark.projects
                   for f in p.source_files]
        vocab = tfidf.build_vocabulary(streams)
        assert len(vocab) == 263402
