"""Command-line entry points.

Four commands cover the pipeline: ``train-global`` builds the offline
models, ``localize`` ranks one bug report, ``evaluate`` runs whole
benchmarks and writes metric reports, ``report`` summarizes a finished
evaluation. Options may come from a ``key=value`` config file; explicit
flags win over file values. Failures print one machine-readable JSON line
to stderr and exit nonzero.
"""

from __future__ import annotations

import csv
import functools
import json
import re
import statistics
import sys
from pathlib import Path

import click
import numpy as np

from . import embedding, metrics, rank
from .cache import ArtifactCache
from .corpus import Benchmark, load_benchmark, load_benchmark_project, project_dirs
from .errors import BugLocError, CorpusError
from .preprocess import PreprocessConfig, preprocess_benchmark

# '#' at the start of a line or after whitespace starts a comment; inside a
# value, as in a path like /data/c#/stop.txt, it is part of the value.
_COMMENT_RE = re.compile(r"(?:^|\s)#.*")


def read_config_file(path) -> dict[str, str]:
    """Parse a line-oriented key=value config file with '#' comments."""
    values: dict[str, str] = {}
    for raw in Path(path).read_text("utf-8").splitlines():
        line = _COMMENT_RE.sub("", raw, count=1).strip()
        if not line:
            continue
        if "=" not in line:
            raise BugLocError(f"bad config line (expected key=value): {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


class Settings:
    """Resolved option values: CLI flag > config file > default.

    Embedding and preprocessing options left unset take the defaults of
    :class:`~bugloc.embedding.EmbeddingConfig` and
    :class:`~bugloc.preprocess.PreprocessConfig`.
    """

    _DEFAULTS = {"methods": "3,4", "history_policy": "earlier"}
    # option key -> (config field, type)
    _EMBEDDING_OPTIONS = {
        "vector_size": ("vector_size", int),
        "alpha": ("alpha", float),
        "window": ("window", int),
        "min_count": ("min_count", int),
        "negative": ("negative", int),
        "sample": ("sample", float),
        "epochs": ("epochs", int),
        "seed": ("seed", int),
    }
    _PREPROCESS_OPTIONS = {
        "stopwords_path": ("stopwords_path", str),
        "keywords_path": ("keywords_path", str),
        "min_token_length": ("min_token_length", int),
        "split_compounds": ("split_compound_identifiers", bool),
    }

    _KEYS = {*_DEFAULTS, *_EMBEDDING_OPTIONS, *_PREPROCESS_OPTIONS, "infer_epochs"}
    _BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}

    def __init__(self, config_path, cli_values: dict):
        self.config_path = config_path
        self.file_values = read_config_file(config_path) if config_path else {}
        for key in self.file_values:
            if key not in self._KEYS:
                raise BugLocError(f"{config_path}: unknown config key {key!r} "
                                  f"(recognized: {', '.join(sorted(self._KEYS))})")
        self.cli_values = cli_values

    def get(self, key, cast=str):
        value = self.cli_values.get(key)
        source = f"flag --{key.replace('_', '-')}"
        if value is None:
            value = self.file_values.get(key)
            source = f"config file {self.config_path}"
        if value is None:
            return self._DEFAULTS.get(key)
        if cast is bool and isinstance(value, str):
            if value.lower() not in self._BOOLEANS:
                raise BugLocError(f"{key} must be 1/0, true/false, yes/no or on/off, "
                                  f"got {value!r}")
            return self._BOOLEANS[value.lower()]
        try:
            return cast(value)
        except ValueError:  # only int and float casts can fail
            kind = "an integer" if cast is int else "a number"
            raise BugLocError(f"{key} must be {kind}, got {value!r} ({source})") from None

    def _given(self, options: dict) -> dict:
        """Config fields of the options that have a value."""
        values = {field: self.get(key, cast) for key, (field, cast) in options.items()}
        return {field: value for field, value in values.items() if value is not None}

    def method_ids(self) -> list[int]:
        raw = str(self.get("methods"))
        try:
            ids = sorted({int(part) for part in raw.replace(" ", "").split(",") if part})
        except ValueError:
            raise click.UsageError(f"bad method list: {raw!r}")
        for mid in ids:
            if not 1 <= mid <= 7:
                raise click.UsageError(f"unknown method id {mid} (valid: 1..7)")
        if not ids:
            raise click.UsageError("no methods requested")
        return ids

    def preprocess_config(self) -> PreprocessConfig:
        return PreprocessConfig.load(**self._given(self._PREPROCESS_OPTIONS))

    def embedding_config(self) -> embedding.EmbeddingConfig:
        return embedding.EmbeddingConfig(**self._given(self._EMBEDDING_OPTIONS))

    def infer_epochs(self) -> int | None:
        if self.get("infer_epochs") in (None, ""):
            return None
        epochs = self.get("infer_epochs", int)
        if epochs < 1:
            raise BugLocError(f"infer_epochs must be >= 1, got {epochs}")
        return epochs


def _echo(message: str, err: bool = False) -> None:
    """``click.echo`` to the current ``sys.stdout`` or ``sys.stderr``.

    Naming the stream keeps click from caching it: click 8.4 remembers each
    default stream it wraps in a ``WeakKeyDictionary`` whose value refers
    back to the stream, so every redirected stream of an in-process caller
    would stay alive.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout)


def fail_cleanly(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (BugLocError, ValueError, OSError) as exc:
            _echo(json.dumps({"error": str(exc)}), err=True)
            sys.exit(1)

    return wrapper


def _cache(settings, benchmark_path, cache_dir) -> ArtifactCache | None:
    """The call's artifact cache over the benchmark's bytes; None without
    ``--cache``."""
    infer_epochs = settings.infer_epochs()  # checked with or without a cache
    if cache_dir is None:
        return None
    return ArtifactCache(cache_dir, benchmark_path, settings.preprocess_config(),
                         settings.embedding_config(), infer_epochs)


def _loader(settings, benchmark_path, cache=None, project_name=None):
    """A function returning the benchmark with every token stream filled,
    loaded on its first call only. With a cache, the benchmark becomes
    ``cache.benchmark`` and the streams come from its token-stream index, or
    are preprocessed and indexed on a miss. Without a cache, a
    ``project_name`` limits the load to that project."""
    @functools.cache
    def loaded() -> Benchmark:
        if cache is None and project_name is not None:
            benchmark = Benchmark([load_benchmark_project(benchmark_path, project_name,
                                                          strict=False)])
        else:
            benchmark = load_benchmark(benchmark_path, strict=False)
        if cache is not None:
            cache.benchmark = benchmark
        if cache is None or not cache.load_token_streams():
            encoded = preprocess_benchmark(benchmark, settings.preprocess_config(),
                                           encode=cache is not None)
            if cache is not None:
                cache.save_token_streams(encoded)
        return benchmark

    return loaded


def _artifacts(name, method_ids, cache, loaded) -> rank.Artifacts:
    """Artifacts of project ``name`` holding the scores of every scope the
    given methods rank with: with a cache, from the project's ranking
    indexes or built and stored
    (:meth:`~bugloc.cache.ArtifactCache.artifacts`); without one, the local
    scope of the project that ``loaded()`` holds."""
    scopes = set().union(*(rank.MethodConfig.from_id(m).scopes for m in method_ids))
    if cache is not None:
        return cache.artifacts(name, scopes, loaded)
    if scopes != {"local"}:
        raise BugLocError(f"methods {sorted(method_ids)} need global models: pass --cache")
    project = loaded().project(name)
    artifacts = rank.Artifacts.of(project)
    artifacts.scopes["local"] = rank.tfidf_scores(project, artifacts)
    return artifacts


_common_options = [
    click.option("--config", "config_path", type=click.Path(exists=True),
                 default=None, help="key=value config file"),
    click.option("--seed", type=int, default=None, help="RNG seed"),
    click.option("--vector-size", "vector_size", type=int, default=None),
    click.option("--alpha", type=float, default=None),
    click.option("--window", type=int, default=None),
    click.option("--min-count", "min_count", type=int, default=None),
    click.option("--negative", type=int, default=None),
    click.option("--sample", type=float, default=None),
    click.option("--epochs", type=int, default=None),
    click.option("--infer-epochs", "infer_epochs", type=int, default=None),
    click.option("--min-token-length", "min_token_length", type=int, default=None),
    click.option("--stopwords", "stopwords_path", type=click.Path(exists=True),
                 default=None),
    click.option("--keywords", "keywords_path", type=click.Path(exists=True),
                 default=None),
]

_COMMON_KEYS = ("config_path", "seed", "vector_size", "alpha", "window",
                "min_count", "negative", "sample", "epochs", "infer_epochs",
                "min_token_length", "stopwords_path", "keywords_path")


def common_options(fn):
    for option in reversed(_common_options):
        fn = option(fn)
    return fn


def _settings(kwargs: dict, **extra) -> Settings:
    """Pop the shared option values out of a command's kwargs."""
    cli_values = {key: kwargs.pop(key) for key in _COMMON_KEYS}
    config_path = cli_values.pop("config_path")
    cli_values.update(extra)
    return Settings(config_path, cli_values)


@click.group()
def main():
    """Fault localization: rank source files by relevance to bug reports."""


@main.command("train-global")
@click.option("--benchmark", "benchmark_path", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--cache", "cache_dir", required=True, type=click.Path(file_okay=False))
@click.option("--held-out", "held_out", multiple=True,
              help="project to hold out (repeatable; default: every project)")
@click.option("--embeddings/--no-embeddings", default=True,
              help="also train the paragraph-vector models")
@common_options
@fail_cleanly
def cmd_train_global(benchmark_path, cache_dir, held_out, embeddings, **kwargs):
    """Build the global IDF model and the paragraph-vector models per held-out project.

    The one IDF model counts every project; each held-out project's model is
    derived from it, here and where it is used, so every project's line
    names the same IDF file."""
    settings = _settings(kwargs)
    cache = _cache(settings, benchmark_path, cache_dir)
    benchmark = _loader(settings, benchmark_path, cache)()
    names = list(held_out) or benchmark.project_names
    for name in names:
        benchmark.project(name)  # validate early, raises on unknown names
    built = cache.train_all(sorted(names), with_embeddings=embeddings)
    for name, artifacts in built.items():
        for kind, path in artifacts.items():
            _echo(f"{name}\t{kind}\t{path}")


def _print_top(ranked: rank.RankedList, limit: int = 10) -> None:
    _echo(f"top {limit} of {len(ranked.entries)} files for {ranked.query_bug_id} "
          f"(method {ranked.method_id}):")
    _echo(f"{'rank':>4}  {'final':>10}  {'direct':>10}  {'indirect':>10}  file")
    for i, e in enumerate(ranked.rows(limit), start=1):
        _echo(f"{i:>4}  {e.final_score:>10.6f}  {e.direct_score:>10.6f}  "
              f"{e.indirect_score:>10.6f}  {e.file_id}")


@main.command("localize")
@click.option("--benchmark", "benchmark_path", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--project", "project_name", required=True)
@click.option("--bug", "bug_id", required=True)
@click.option("--method", "method_id", type=int, default=3, show_default=True)
@click.option("--cache", "cache_dir", type=click.Path(file_okay=False), default=None)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--history", "history_policy", type=click.Choice(["earlier", "all"]),
              default=None)
@common_options
@fail_cleanly
def cmd_localize(benchmark_path, project_name, bug_id, method_id, cache_dir,
                 out_dir, history_policy, **kwargs):
    """Rank one project's files for one bug report; writes a ranking CSV."""
    if not 1 <= method_id <= 7:
        raise click.UsageError(f"unknown method id {method_id} (valid: 1..7)")
    settings = _settings(kwargs, history_policy=history_policy)
    cache = _cache(settings, benchmark_path, cache_dir)
    # without a cache only the query project is read, so only it is loaded
    artifacts = _artifacts(project_name, [method_id], cache,
                           _loader(settings, benchmark_path, cache, project_name))
    ranked = rank.localize(artifacts, artifacts.row(bug_id), rank.MethodConfig.from_id(method_id),
                           policy=settings.get("history_policy"))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"ranking_{project_name}_m{method_id}_{bug_id}.csv"
    ranked.write_csv(csv_path)
    _print_top(ranked)
    _echo(f"wrote {csv_path}")


def _evaluate_project(name, method_ids, settings, cache,
                      loaded) -> dict[int, metrics.MetricsReport] | None:
    """Rank every report of the project with each method, in one batch per
    method, and score each batch from the ranks of the reports' fixed files;
    None for a project without queries.

    One :class:`~bugloc.rank.Artifacts` holds the scores of every scope the
    methods rank with, so each method reads, fuses and sorts them.
    """
    artifacts = _artifacts(name, method_ids, cache, loaded)
    if not artifacts.report_ids:
        return None
    rows = np.arange(len(artifacts.report_ids))
    reports = {}
    for method_id in method_ids:
        ranked = rank.localize(artifacts, rows, rank.MethodConfig.from_id(method_id),
                               policy=settings.get("history_policy"))
        offsets, ranks = ranked.ranks_of(*artifacts.fixed)
        reports[method_id] = metrics.compute_metrics(metrics.RankBatch(
            ranked.query_bug_id, offsets, ranks, artifacts.fixed_counts))
        del ranked  # its final scores and order are not kept through the next method
    return reports


_METRICS_HEADER = ["project", "method", "mrr", "map", "top1", "top5", "top10", "n_queries"]


def _write_metrics_outputs(out, rows, per_query_rows, wilcoxon_rows):
    out.mkdir(parents=True, exist_ok=True)
    for name, header, table in [
            ("metrics.csv", _METRICS_HEADER, rows),
            ("per_query.csv", ["project", "method", "bug_id", "reciprocal_rank",
                               "average_precision"], per_query_rows),
            ("wilcoxon.csv", ["metric", "method_a", "method_b", "n", "statistic", "p_value",
                              "note"], wilcoxon_rows)]:
        with open(out / name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *table])
    with open(out / "metrics.json", "w") as fh:
        json.dump([dict(zip(_METRICS_HEADER, row)) for row in rows], fh, indent=2)
        fh.write("\n")


@main.command("evaluate")
@click.option("--benchmark", "benchmark_path", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--methods", "methods_raw", default=None,
              help="comma-separated method ids (default 3,4)")
@click.option("--projects", "projects_raw", default=None,
              help="comma-separated project names (default: all)")
@click.option("--cache", "cache_dir", type=click.Path(file_okay=False), default=None)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--history", "history_policy", type=click.Choice(["earlier", "all"]),
              default=None)
@common_options
@fail_cleanly
def cmd_evaluate(benchmark_path, methods_raw, projects_raw, cache_dir, out_dir,
                 history_policy, **kwargs):
    """Run methods over the benchmark; writes metrics, per-query values and
    pairwise significance tests under --out."""
    settings = _settings(kwargs, methods=methods_raw, history_policy=history_policy)
    cache = _cache(settings, benchmark_path, cache_dir)
    method_ids = settings.method_ids()
    root = Path(benchmark_path)
    available = (cache.project_names if cache is not None
                 else [project_dir.name for project_dir in project_dirs(root)])
    if not available:
        raise CorpusError(f"no projects found under {root}")
    if not projects_raw:
        project_names = available
    else:
        project_names = sorted({name for name in projects_raw.replace(" ", "").split(",")
                                if name})
        if not project_names:
            raise click.UsageError("no projects requested")
        for name in project_names:  # validate before any work
            if name not in available:
                raise CorpusError(f"unknown project: {name}")
    # the benchmark is loaded once, and only if a project's indexes miss
    loaded = _loader(settings, benchmark_path, cache)

    rows, per_query_rows = [], []
    per_project: dict[int, dict[str, metrics.MetricsReport]] = {m: {} for m in method_ids}
    for name in project_names:
        reports = _evaluate_project(name, method_ids, settings, cache, loaded)
        if reports is None:
            _echo(f"skipping {name}: no queries", err=True)
            continue
        for method_id, report in reports.items():
            per_project[method_id][name] = report
            rows.append([name, method_id, f"{report.mrr:.6f}", f"{report.map:.6f}",
                         report.top_n[1], report.top_n[5], report.top_n[10],
                         report.n_queries])
            per_query_rows += [[name, method_id, bug_id, f"{rr:.6f}", f"{ap:.6f}"]
                               for bug_id, (rr, ap) in report.per_query.items()]

    for method_id in method_ids:
        reports = [per_project[method_id][n] for n in sorted(per_project[method_id])]
        if not reports:
            continue
        rows.append(["ALL", method_id,
                     f"{statistics.mean(r.mrr for r in reports):.6f}",
                     f"{statistics.mean(r.map for r in reports):.6f}",
                     sum(r.top_n[1] for r in reports),
                     sum(r.top_n[5] for r in reports),
                     sum(r.top_n[10] for r in reports),
                     sum(r.n_queries for r in reports)])

    wilcoxon_rows = []
    for i, method_a in enumerate(method_ids):
        for method_b in method_ids[i + 1:]:
            shared = sorted(set(per_project[method_a]) & set(per_project[method_b]))
            for metric_name in ("mrr", "map"):
                a = [getattr(per_project[method_a][n], metric_name) for n in shared]
                b = [getattr(per_project[method_b][n], metric_name) for n in shared]
                try:
                    stat, p = metrics.wilcoxon_signed_rank(a, b)
                    wilcoxon_rows.append([metric_name, method_a, method_b, len(shared),
                                          f"{stat:.6f}", f"{p:.6g}", ""])
                except ValueError as exc:
                    wilcoxon_rows.append([metric_name, method_a, method_b, len(shared),
                                          "", "", str(exc)])

    _write_metrics_outputs(Path(out_dir), rows, per_query_rows, wilcoxon_rows)
    _echo(f"wrote metrics for {len(per_project[method_ids[0]])} project(s), "
          f"methods {','.join(map(str, method_ids))} to {out_dir}")


@main.command("report")
@click.option("--results", "results_dir", required=True,
              type=click.Path(exists=True, file_okay=False))
@click.option("--pair", "pair", default=None,
              help="two method ids to compare, e.g. 3:4")
@fail_cleanly
def cmd_report(results_dir, pair):
    """Print a summary table from an evaluate output directory."""
    results = Path(results_dir)
    path = results / "metrics.csv"
    with open(path, newline="") as fh:
        header, *lines = list(csv.reader(fh)) or [_METRICS_HEADER]
    if header != _METRICS_HEADER:
        raise BugLocError(f"{path}: header is not {','.join(_METRICS_HEADER)}")
    for number, values in enumerate(lines, start=2):
        if len(values) != len(header):
            raise BugLocError(f"{path}: row {number} has {len(values)} fields, "
                              f"expected {len(header)}")
    rows = [dict(zip(header, values)) for values in lines]
    if not rows:
        raise BugLocError("metrics.csv is empty")

    _echo(f"{'project':<16} {'method':>6} {'MRR':>8} {'MAP':>8} "
          f"{'top1':>5} {'top5':>5} {'top10':>5}")
    for row in rows:
        _echo(f"{row['project']:<16} {row['method']:>6} {float(row['mrr']):>8.4f} "
              f"{float(row['map']):>8.4f} {row['top1']:>5} {row['top5']:>5} "
              f"{row['top10']:>5}")

    if pair:
        try:
            method_a, method_b = (int(x) for x in pair.split(":"))
        except ValueError:
            raise click.UsageError(f"bad --pair value: {pair!r} (expected A:B)")
        per_project = {}
        for row in rows:
            if row["project"] == "ALL":
                continue
            per_project.setdefault(row["project"], {})[int(row["method"])] = row
        deltas_mrr, deltas_map = [], []
        for name, by_method in sorted(per_project.items()):
            if method_a in by_method and method_b in by_method:
                deltas_mrr.append(float(by_method[method_b]["mrr"]) -
                                  float(by_method[method_a]["mrr"]))
                deltas_map.append(float(by_method[method_b]["map"]) -
                                  float(by_method[method_a]["map"]))
        if not deltas_mrr:
            raise BugLocError(f"no shared projects for methods {method_a} and {method_b}")
        _echo(f"\nmethod {method_b} vs method {method_a} over {len(deltas_mrr)} project(s):")
        _echo(f"  mean MRR delta {statistics.mean(deltas_mrr):+.4f}, "
              f"mean MAP delta {statistics.mean(deltas_map):+.4f}")
        wilcoxon_path = results / "wilcoxon.csv"
        if wilcoxon_path.is_file():
            with open(wilcoxon_path, newline="") as fh:
                for row in csv.DictReader(fh):
                    if {int(row["method_a"]), int(row["method_b"])} == {method_a, method_b}:
                        value = row["p_value"] or f"n/a ({row['note']})"
                        _echo(f"  wilcoxon {row['metric']}: p = {value}")


if __name__ == "__main__":
    main()
