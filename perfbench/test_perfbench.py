"""Tests of the benchmark itself: tiny smoke runs of every workload, the
oracle catching a perturbed ranking, and refusal to run without bugloc.

Run with ``python -m pytest perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.bugloc_source()))

import corpus_gen  # noqa: E402
import workloads  # noqa: E402
from bugloc import rank  # noqa: E402

TINY_CORPUS = corpus_gen.CorpusSpec(projects=2, files=8, reports=10, mean_idents=8,
                                    max_idents=20, topic_size=4)


def tiny(name):
    spec = workloads.SPECS[name]
    calls = 4 if name == "localize-cli" else 1
    return dataclasses.replace(spec, corpus=TINY_CORPUS, rounds=1, min_calls=calls,
                               trace_calls=calls)


def test_entry_point_knows_every_workload():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS) == set(workloads.SPECS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_end_to_end(name, tmp_path):
    result = workloads.run(name, seed=3, seconds=0.0, trace=False, work=tmp_path,
                           spec=tiny(name))
    assert result.failures == []
    line = result.json_line()
    assert line["correct"] and line["attempted"] > 0
    assert set(line["metrics"]) == set(workloads.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert all(value > 0 for value, _ in result.printed_only.values())
    assert result.conditions["corpus"]["projects"] == 2


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_traced(name, tmp_path):
    result = workloads.run(name, seed=3, seconds=0.0, trace=True, work=tmp_path,
                           spec=tiny(name))
    assert result.failures == []
    assert result.absent == []
    metrics = result.json_line()["metrics"]
    assert set(metrics) == set(workloads.layers.PER_LAYER)
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["rank.localize_calls"]["value"] > 0
    assert metrics["porter.stem_calls"]["value"] > metrics["porter.stem_distinct"]["value"]
    trained = metrics["embedding.train_s"]["value"] > 0
    assert trained == (name == "docvec")
    setup_shares = result.shares["train-global"]
    assert 0 < setup_shares["preprocess.benchmark"] < 1
    assert ("embedding.train" in setup_shares) == (name == "docvec")


def test_every_round_sets_up_once_and_queries(tmp_path):
    spec = dataclasses.replace(tiny("localize-cli"), rounds=3)
    result = workloads.run("localize-cli", seed=3, seconds=0.0, trace=False, work=tmp_path,
                           spec=spec)
    assert result.failures == []
    assert result.conditions["samples"]["setup_s"] == 3
    assert result.conditions["samples"]["query_latency"] == max(spec.rounds, spec.min_calls)


def test_quality_is_fixed_per_seed(tmp_path):
    first, second = (workloads.run("localize-cli", seed=5, seconds=0.0, trace=False,
                                   work=tmp_path / str(i), spec=tiny("localize-cli"))
                     for i in range(2))
    assert first.metrics["mrr"] == second.metrics["mrr"]
    assert first.metrics["map"] == second.metrics["map"]


def _swap_top_two(monkeypatch):
    original = rank.localize

    def perturbed(*args, **kwargs):
        ranked = original(*args, **kwargs)
        ranked.entries[0], ranked.entries[1] = ranked.entries[1], ranked.entries[0]
        return ranked

    monkeypatch.setattr(rank, "localize", perturbed)


@pytest.mark.parametrize("name", ["evaluate-tfidf", "localize-cli"])
def test_oracle_catches_perturbed_ranking(name, tmp_path, monkeypatch):
    _swap_top_two(monkeypatch)
    result = workloads.run(name, seed=3, seconds=0.0, trace=False, work=tmp_path,
                           spec=tiny(name))
    line = result.json_line()
    assert not line["correct"]
    assert line["failed"] / line["attempted"] > 0


def test_refuses_to_run_without_bugloc(tmp_path):
    bench_dir = tmp_path / "perfbench"
    shutil.copytree(Path(run.__file__).parent, bench_dir,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(bench_dir / "run.py"), "--workload", "docvec",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_json_line_is_last(tmp_path, capsys, monkeypatch):
    (tmp_path / "src").symlink_to(run.bugloc_source())
    monkeypatch.setattr(workloads, "SPECS", {**workloads.SPECS, "docvec": tiny("docvec")})
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "docvec", "--seed", "2", "--seconds", "0"]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert set(json.loads(last)) == {"correct", "attempted", "failed", "metrics"}


def test_missing_wrap_target_is_absent_not_an_error(tmp_path, monkeypatch):
    from bugloc import metrics
    # localize never runs the significance test, so bugloc works without it
    monkeypatch.delattr(metrics, "wilcoxon_signed_rank")
    result = workloads.run("localize-cli", seed=3, seconds=0.0, trace=True, work=tmp_path,
                           spec=tiny("localize-cli"))
    assert result.failures == []
    assert result.absent == ["metrics.wilcoxon_s"]
    assert result.metrics["metrics.wilcoxon_s"] == (0.0, "s")
