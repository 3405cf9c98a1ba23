"""Generate a synthetic benchmark, run the seven ranking methods over it,
and print the evaluation table the CSV reports are built from.

Run: python demos/04_benchmark_evaluation.py
"""

import tempfile
from pathlib import Path

from bugloc import rank, synth
from bugloc.cache import ArtifactCache
from bugloc.corpus import load_benchmark
from bugloc.embedding import EmbeddingConfig
from bugloc.metrics import QueryResult, compute_metrics, wilcoxon_signed_rank
from bugloc.preprocess import PreprocessConfig, preprocess_benchmark


def evaluate(project, artifacts, method_id):
    results = []
    for row, query in enumerate(project.bug_reports):
        ranked = rank.localize(artifacts, row, rank.MethodConfig.from_id(method_id))
        results.append(QueryResult.from_ranking(query.id, ranked.file_ids, query.fixed_files))
    return compute_metrics(results)


def main():
    with tempfile.TemporaryDirectory(prefix="bugloc-demo-") as workdir:
        run(Path(workdir))


def run(workdir: Path):
    print(f"writing benchmark under {workdir}")
    synth.generate_benchmark(workdir / "bench", synth.SynthSpec(seed=21))
    benchmark = load_benchmark(workdir / "bench")
    preprocess_benchmark(benchmark)

    embed = EmbeddingConfig(vector_size=12, epochs=4, min_count=1, seed=2)
    cache = ArtifactCache(workdir / "cache", benchmark, PreprocessConfig(), embed,
                          infer_epochs=4)

    print(f"\n{'project':8s} {'method':>6s} {'MRR':>7s} {'MAP':>7s} {'top1':>5s}")
    per_method_mrr = {m: [] for m in range(1, 8)}
    for project in benchmark.projects:
        # the project's TF.IDF scopes and doc vectors, built and kept as its
        # ranking indexes
        artifacts = cache.artifacts(project.name, {"local", "global", "docvec"},
                                    lambda: benchmark)
        for method_id in range(1, 8):
            report = evaluate(project, artifacts, method_id)
            per_method_mrr[method_id].append(report.mrr)
            print(f"{project.name:8s} {method_id:>6d} {report.mrr:7.3f} "
                  f"{report.map:7.3f} {report.top_n[1]:>5d}")

    print("\nmean MRR per method:",
          {m: round(sum(v) / len(v), 3) for m, v in per_method_mrr.items()})
    print("\nLexical methods dominate here by construction: each query shares "
          "planted rare terms with its fix location, which is exactly the "
          "regime where term matching shines and tiny embeddings trail.")

    a = [x for x in per_method_mrr[3]]
    b = [x for x in per_method_mrr[4]]
    try:
        stat, p = wilcoxon_signed_rank(a, b)
        print(f"wilcoxon method 3 vs 4 over projects: stat={stat}, p={p:.4f}")
    except ValueError as exc:
        print(f"wilcoxon method 3 vs 4: not applicable ({exc})")


if __name__ == "__main__":
    main()
