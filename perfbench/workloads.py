"""The three benchmark workloads, driven through ``bugloc.cli.main``.

Every workload is a closed loop with one client: the next CLI call starts
when the previous one has returned. Calls run in this process with
``standalone_mode=False``, so interpreter start-up is not in the numbers.

- ``evaluate-tfidf``: ``train-global --no-embeddings``, then repeated
  ``evaluate --methods 1,2,3,4``. Long files and long histories make
  ranking (cosine, per-query dicts, bridging) the larger share of the
  time, with preprocessing the rest.
- ``localize-cli``: ``train-global --no-embeddings``, then sequential
  ``localize`` calls on the newest reports, alternating method 3 (no cache)
  and method 4 (cached IDF). Each call re-loads and re-preprocesses the
  whole corpus; ranking is a sliver of it.
- ``docvec``: ``train-global`` with small paragraph-vector models for one
  held-out project, then repeated ``evaluate --methods 5,6,7`` on it.
  Training is nearly all of a set-up, inference the largest part of a query
  call.

A run is a number of rounds that share its time; each round is one
``train-global`` into a fresh cache followed by query calls on that cache.

End-to-end metrics, from an untraced run:

- ``setup_s``: median wall time of the rounds' ``train-global`` calls;
- ``queries_per_s``: rankings made, as (query, method) pairs, over the wall
  time of the query calls;
- ``query_p50_ms``, ``query_p90_ms`` (printed only): nearest-rank
  percentiles of one query-phase call; on the evaluate workloads a call is
  a whole ``evaluate`` and the few calls make p90 the slowest one or two;
- ``mrr``, ``map``: mean over the (project, method) rows, fixed per seed;
- ``peak_rss_mb``: peak resident memory once the query phase is done,
  before the oracle allocates anything;
- ``failed_ratio`` (printed): failed attempts over attempts, where an
  attempt is a CLI call or an oracle comparison.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import platform
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from bugloc import cli, embedding
from bugloc.cache import ArtifactCache
from bugloc.corpus import load_benchmark
from bugloc.preprocess import PreprocessConfig, TokenStream, preprocess_benchmark

import corpus_gen
import layers
import oracle
from tracer import Tracer


@dataclass(frozen=True)
class Spec:
    corpus: corpus_gen.CorpusSpec
    rounds: int               # train-global runs spread over the run; setup_s is their median
    min_calls: int = 1        # query-phase calls made even past the time limit
    trace_calls: int = 1      # query-phase calls in a traced run


SPECS = {
    "evaluate-tfidf": Spec(
        corpus_gen.CorpusSpec(projects=3, files=90, reports=200, mean_idents=100,
                              max_idents=700),
        rounds=4),
    "localize-cli": Spec(
        corpus_gen.CorpusSpec(projects=3, files=24, reports=50, mean_idents=10,
                              max_idents=60, topic_size=5),
        # 210 calls ask about each project's 35 newest reports with both methods
        rounds=12, min_calls=210, trace_calls=100),
    "docvec": Spec(
        corpus_gen.CorpusSpec(projects=3, files=30, reports=120, mean_idents=20,
                              max_idents=120, topic_size=5),
        rounds=6),
}

CHECK_SAMPLE = 50             # oracle-checked queries per (project, method)

END_TO_END_UNITS = {
    "setup_s": "s", "queries_per_s": "queries/s", "mrr": "1", "map": "1", "peak_rss_mb": "MiB",
}
# Printed with the others but left out of the result line. On a shared
# 2-core host the same work runs up to 1.7x slower for stretches of seconds
# to minutes, and a percentile flips with the mix of speeds: over ten seeds
# the spread of the median reached 0.26 and that of p90 0.26, above the
# largest bound BENCHMARK.json may set (0.25). The mean behind
# ``queries_per_s`` moves less.
PRINTED_ONLY_UNITS = {"query_p50_ms": "ms", "query_p90_ms": "ms"}


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failures: list[str]
    conditions: dict
    absent: list[str] = field(default_factory=list)
    printed_only: dict[str, tuple[float, str]] = field(default_factory=dict)
    shares: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def json_line(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


class Session:
    """Runs CLI commands in-process and counts attempts and failures."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        # traced only: command -> layer name -> inclusive seconds inside it
        self.by_command: dict[str, dict[str, float]] = {}

    def call(self, args: list[str]) -> float | None:
        """Wall time of one CLI command, or None when it failed."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.span(f"cli.{args[0]}") if self.tracer else contextlib.nullcontext()
        before = self.tracer.totals() if self.tracer else {}
        code = 0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                code = cli.main(args, standalone_mode=False) or 0
        except SystemExit as exc:
            code = exc.code
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception as exc:  # a crashing command is a failed attempt, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if self.tracer:
            inside = self.by_command.setdefault(args[0], {})
            for name, seconds in self.tracer.totals().items():
                inside[name] = inside.get(name, 0.0) + seconds - before.get(name, 0.0)
        if code not in (0, None):
            self.failures.append(f"bugloc {args[0]} exited {code}: {err.getvalue().strip()[-300:]}")
            return None
        return elapsed

    def check(self, mismatch: str | None) -> None:
        """Count one oracle comparison; a mismatch is a failure."""
        self.attempted += 1
        if mismatch is not None:
            self.failures.append(mismatch)


@dataclass
class Pass:
    """What the rounds of set-up and query calls of one run produced."""
    setup_s: list[float]      # per successful train-global
    cache: Path               # the last round's cache
    outputs: list             # per query call, what its check reads
    latencies: list           # per query call, seconds or None when it failed
    query_wall: float         # wall time of the query calls, set-ups excluded


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- workloads ----------------------------------------------------------------

class EvaluateTfidf:
    setup_flags = ["--no-embeddings"]
    methods = [1, 2, 3, 4]
    warmup = 0

    def __init__(self, projects: list[corpus_gen.GenProject]):
        self.projects = projects
        self.names = [p.name for p in projects]

    def query_args(self, i: int, bench: Path, cache: Path, work: Path):
        out = work / f"out{i}"
        return ["evaluate", "--benchmark", str(bench), "--cache", str(cache), "--out", str(out),
                "--methods", ",".join(map(str, self.methods))], out

    def prepare_oracle(self, check: oracle.Oracle, bench: Path, cache: Path) -> None:
        pass

    def check(self, session: Session, check: oracle.Oracle, bench: Path, run: Pass,
              spec: Spec, seed: int):
        """Oracle-check a seeded sample of the first output's per-query
        values and require every later output to be byte-identical.
        Returns quality by method, rankings per call and queries checked."""
        done = [out for out, t in zip(run.outputs, run.latencies) if t is not None]
        if not done:
            return {}, 0, 0
        self.prepare_oracle(check, bench, run.cache)
        first = done[0]
        rows = _read_csv(first / "per_query.csv")
        got = {(r["project"], int(r["method"]), r["bug_id"]): r for r in rows}
        rng = random.Random(seed)
        checked = 0
        for name in self.names:
            bugs = check.projects[name].report_ids
            for method in self.methods:
                present = [b for b in bugs if (name, method, b) in got]
                missing = len(bugs) - len(present)
                session.check(f"{name} m{method}: {missing} queries missing from "
                              f"per_query.csv" if missing else None)
                for bug in sorted(rng.sample(present, min(CHECK_SAMPLE, len(present)))):
                    row = got[(name, method, bug)]
                    session.check(oracle.check_per_query_row(
                        check, name, method, bug, float(row["reciprocal_rank"]),
                        float(row["average_precision"])))
                    checked += 1
        for out in done[1:]:
            for result_file in ("per_query.csv", "metrics.csv"):
                same = (out / result_file).read_bytes() == (first / result_file).read_bytes()
                session.check(None if same else f"{out.name}/{result_file} differs from "
                              "the first evaluate call's")
        metric_rows = _read_csv(first / "metrics.csv")
        quality = {int(r["method"]): (float(r["mrr"]), float(r["map"]))
                   for r in metric_rows if r["project"] == "ALL"}
        per_project = [r for r in metric_rows if r["project"] != "ALL"]
        quality["mean"] = (statistics.fmean(float(r["mrr"]) for r in per_project),
                           statistics.fmean(float(r["map"]) for r in per_project))
        return quality, len(rows), checked


class Docvec(EvaluateTfidf):
    project = "proj1"
    methods = [5, 6, 7]
    # Every embedding setting is passed explicitly, so the oracle can rebuild
    # the exact configuration the CLI trained with.
    embedding_settings = {"vector_size": 16, "epochs": 3, "alpha": 0.045, "window": 5,
                          "min_count": 2, "negative": 5, "sample": 0.0, "seed": 1}
    embedding_flags = [arg for key, value in embedding_settings.items()
                       for arg in (f"--{key.replace('_', '-')}", str(value))]
    setup_flags = ["--held-out", project, *embedding_flags]

    def __init__(self, projects):
        super().__init__(projects)
        self.names = [self.project]

    def query_args(self, i, bench, cache, work):
        args, out = super().query_args(i, bench, cache, work)
        return [*args, "--projects", self.project, *self.embedding_flags], out

    def prepare_oracle(self, check, bench, cache):
        """Feed bugloc's combined_vector outputs for the held-out project to the oracle."""
        benchmark = load_benchmark(bench, strict=False)
        preprocess_benchmark(benchmark, PreprocessConfig())
        models = ArtifactCache(cache, benchmark, PreprocessConfig(),
                               embedding.EmbeddingConfig(**self.embedding_settings))
        dm = models.embedding_model(self.project, embedding.PV_DM)
        dbow = models.embedding_model(self.project, embedding.PV_DBOW)
        p = check.projects[self.project]

        def vectors(token_lists, origin):
            return np.array([embedding.combined_vector(TokenStream(t, origin), dm, dbow).values
                             for t in token_lists])

        check.set_doc_vectors(self.project, vectors(p.file_tokens, "source_file"),
                              vectors(p.report_tokens, "bug_report"))


class LocalizeCli:
    setup_flags = ["--no-embeddings"]
    warmup = 2
    # localize asks about this many of a project's newest reports; odd, so
    # that with 3 projects the second pass over them swaps the methods
    newest = 35

    def __init__(self, projects: list[corpus_gen.GenProject]):
        self.projects = projects
        self.truth = {(p.name, r.id): set(r.fixed) for p in projects for r in p.reports}

    def query(self, i: int) -> tuple[str, int, str]:
        """Call i: project i mod P, method 3 or 4 alternating, and the
        project's next newest report, so calls run with long histories, the
        first P * newest calls ask distinct questions and the next P * newest
        ask the same ones of the other method."""
        p = self.projects[i % len(self.projects)]
        reports = p.reports[-self.newest:]
        return p.name, 3 + i % 2, reports[(i // len(self.projects)) % len(reports)].id

    def query_args(self, i, bench, cache, work):
        name, method, bug = self.query(i)
        out = work / f"c{i}"
        return (["localize", "--benchmark", str(bench), "--project", name, "--bug", bug,
                 "--method", str(method), "--cache", str(cache), "--out", str(out)],
                (name, method, bug, out / f"ranking_{name}_m{method}_{bug}.csv"))

    def check(self, session, check, bench, run: Pass, spec: Spec, seed: int):
        """Oracle-check every ranking. Quality comes from the first
        ``min_calls`` rankings, which every run makes, so it is fixed per seed."""
        groups: dict[tuple[str, int], list[tuple[float, float]]] = {}
        checked = 0
        for i, ((name, method, bug, path), t) in enumerate(zip(run.outputs, run.latencies)):
            if t is None:
                continue
            rows = _read_csv(path)
            session.check(oracle.check_ranking_rows(check, name, method, bug, rows))
            checked += 1
            if i < spec.min_calls:
                groups.setdefault((name, method), []).append(oracle.reciprocal_rank_and_ap(
                    [r["file_path"] for r in rows], self.truth[(name, bug)]))

        def mean_of_means(selected, column):
            return statistics.fmean(statistics.fmean(v[column] for v in g) for g in selected)

        quality = {}
        for method in (3, 4):
            selected = [g for (_, m), g in groups.items() if m == method]
            if selected:
                quality[method] = (mean_of_means(selected, 0), mean_of_means(selected, 1))
        if groups:
            quality["mean"] = (mean_of_means(groups.values(), 0),
                               mean_of_means(groups.values(), 1))
        return quality, 1, checked


WORKLOADS = {"evaluate-tfidf": EvaluateTfidf, "localize-cli": LocalizeCli, "docvec": Docvec}


# -- phases -------------------------------------------------------------------

def _setup(session: Session, bench: Path, cache: Path, flags: list[str]) -> float | None:
    """Run train-global into a fresh cache; its wall time, or None when it failed."""
    return session.call(["train-global", "--benchmark", str(bench), "--cache", str(cache),
                         *flags])


def _pass(workload, session: Session, bench: Path, work: Path, seconds: float,
          min_calls: int, rounds: int) -> Pass:
    """``rounds`` rounds share ``seconds``. Each round runs train-global into
    a fresh cache, then query calls on it until the round's share of the time
    is up; the last round goes on until ``min_calls`` query calls were made.
    Spread over the run, set-ups and queries meet the same mix of host
    speeds, which on a shared host drift over seconds to minutes."""
    setup_s, outputs, latencies, query_wall = [], [], [], 0.0
    start = time.perf_counter()
    for r in range(rounds):
        cache = work / f"cache{r}"
        elapsed = _setup(session, bench, cache, workload.setup_flags)
        if elapsed is not None:
            setup_s.append(elapsed)
        if r == 0:
            for i in range(workload.warmup):
                session.call(workload.query_args(i, bench, cache, work / "warmup")[0])
        deadline = start + seconds * (r + 1) / rounds
        last = r == rounds - 1
        begin = time.perf_counter()
        while True:
            args, output = workload.query_args(len(latencies), bench, cache, work)
            outputs.append(output)
            latencies.append(session.call(args))
            if time.perf_counter() >= deadline and (not last or len(latencies) >= min_calls):
                break
        query_wall += time.perf_counter() - begin
    return Pass(setup_s, cache, outputs, latencies, query_wall)


# -- run conditions -----------------------------------------------------------

def _blas_threads() -> int | str:
    """Thread count of the OpenBLAS numpy loaded, asked through its C API."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def _conditions(workload: str, seed: int, tokens: list[oracle.ProjectTokens],
                samples: dict) -> dict:
    lengths = [len(t) for p in tokens for t in p.file_tokens]
    return {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": _blas_threads(),
        "corpus": {
            "projects": len(tokens), "files": len(lengths),
            "reports": sum(len(p.report_ids) for p in tokens),
            "mean_tokens_per_file": round(statistics.fmean(lengths), 1),
            "max_tokens_per_file": max(lengths),
            "vocabulary": len({term for p in tokens for t in p.file_tokens for term in t}),
        },
        "samples": samples,
    }


# -- entry point --------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool, work: Path,
        spec: Spec | None = None) -> Result:
    """Generate the seeded corpus under ``work``, run the workload and check it."""
    spec = spec or SPECS[name]
    projects = corpus_gen.generate(spec.corpus, seed)
    bench = work / "bench"
    corpus_gen.write_tree(projects, bench)
    workload = WORKLOADS[name](projects)
    if trace:
        return _traced_run(name, spec, workload, projects, bench, work, seed)

    session = Session()
    measured = _pass(workload, session, bench, work / "run", seconds, spec.min_calls,
                     spec.rounds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tokens = oracle.tokenize(projects)
    quality, per_call, checked = workload.check(session, oracle.Oracle(tokens), bench,
                                                measured, spec, seed)
    ms = [t * 1000 for t in measured.latencies if t is not None]
    values = {
        "setup_s": statistics.median(measured.setup_s) if measured.setup_s else 0.0,
        "queries_per_s": len(ms) * per_call / measured.query_wall,
        "query_p50_ms": statistics.median(ms) if ms else 0.0,
        "query_p90_ms": layers.percentile(ms, 0.9),
        "mrr": quality.get("mean", (0.0, 0.0))[0],
        "map": quality.get("mean", (0.0, 0.0))[1],
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"setup_s": len(measured.setup_s), "query_latency": len(ms),
               "warmup_calls": workload.warmup, "oracle_checked_queries": checked}
    return Result({k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()},
                  session.attempted, session.failures, _conditions(name, seed, tokens, samples),
                  printed_only={k: (values[k], unit) for k, unit in PRINTED_ONLY_UNITS.items()})


def _traced_run(name, spec, workload, projects, bench, work, seed) -> Result:
    """An untraced pass and a traced pass making the same calls; the
    per-layer figures come from the traced one, their wall-time ratio is the
    tracing overhead."""
    warm = Session()
    _setup(warm, bench, work / "warm", ["--no-embeddings"])
    reference = Session()
    start = time.perf_counter()
    _pass(workload, reference, bench, work / "reference", 0.0, spec.trace_calls, 1)
    untraced = time.perf_counter() - start

    tracer = Tracer()
    layers.install(tracer)
    session = Session(tracer)
    try:
        start = time.perf_counter()
        traced_pass = _pass(workload, session, bench, work / "traced", 0.0, spec.trace_calls, 1)
        traced = time.perf_counter() - start
    finally:
        tracer.restore()

    tokens = oracle.tokenize(projects)
    quality, _, checked = workload.check(session, oracle.Oracle(tokens), bench, traced_pass,
                                         spec, seed)
    values = layers.layer_metrics(tracer, quality, traced / untraced)
    samples = {"traced_query_calls": spec.trace_calls, "warmup_calls": workload.warmup,
               "rank.localize": int(values["rank.localize_calls"]),
               "oracle_checked_queries": checked}
    return Result({k: (values[k], unit) for k, (unit, _) in layers.PER_LAYER.items()},
                  warm.attempted + reference.attempted + session.attempted,
                  warm.failures + reference.failures + session.failures,
                  _conditions(name, seed, tokens, samples), layers.absent_metrics(tracer),
                  shares=layers.shares(session.by_command))
