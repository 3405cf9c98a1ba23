import contextlib
import csv
import gc
import io
import json
import shutil
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from bugloc import cli, metrics, rank
from bugloc.cache import ArtifactCache
from bugloc.cli import Settings, main, read_config_file
from bugloc.embedding import EmbeddingConfig, PV_DM
from bugloc.errors import BugLocError
from bugloc.preprocess import PreprocessConfig
from conftest import index_name, java_stub, write_project

FAST = ["--epochs", "2", "--vector-size", "8", "--min-count", "1",
        "--infer-epochs", "2"]


@pytest.fixture
def runner():
    return CliRunner()


def test_read_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseed = 9\nmethods=1,4  # trailing\n\nalpha=0.1\n")
    assert read_config_file(path) == {"seed": "9", "methods": "1,4", "alpha": "0.1"}


def test_read_config_file_keeps_hash_inside_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("stopwords_path = /data/c#/stop.txt  # the C# list\n"
                    "  # indented comment\nmethods=1,4#5\n")
    assert read_config_file(path) == {"stopwords_path": "/data/c#/stop.txt",
                                      "methods": "1,4#5"}


def test_unset_options_take_config_defaults():
    settings = Settings(None, {})
    assert settings.embedding_config() == EmbeddingConfig()
    assert settings.preprocess_config() == PreprocessConfig()
    # the settings of artifacts already in caches: their fingerprints must
    # not move, or every cache would be rebuilt
    before = EmbeddingConfig(vector_size=100, alpha=0.045, window=5, min_count=2,
                             negative=5, sample=0.0, epochs=20, seed=1)
    assert settings.embedding_config().fingerprint() == before.fingerprint()
    assert settings.preprocess_config().fingerprint() == PreprocessConfig.load(
        min_token_length=2, split_compound_identifiers=True).fingerprint()


def test_read_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just words\n")
    with pytest.raises(BugLocError):
        read_config_file(path)


class TestArtifactCache:
    def _cache(self, synth_benchmark, tmp_path, **embed):
        _, benchmark, _ = synth_benchmark
        config = EmbeddingConfig(vector_size=8, epochs=2, min_count=1, seed=3, **embed)
        return ArtifactCache(tmp_path / "cache", benchmark, PreprocessConfig(), config)

    def test_cache_hit_skips_rebuild(self, synth_benchmark, tmp_path):
        cache = self._cache(synth_benchmark, tmp_path)
        cache.global_vocabulary("proj1")
        artifact = tmp_path / "cache" / "idf.bin"
        stamp = artifact.stat().st_mtime_ns
        cache2 = self._cache(synth_benchmark, tmp_path)
        cache2.global_vocabulary("proj1")
        assert artifact.stat().st_mtime_ns == stamp

    def test_config_change_invalidates(self, synth_benchmark, tmp_path):
        cache = self._cache(synth_benchmark, tmp_path)
        cache.embedding_model("proj1", PV_DM)
        artifact = tmp_path / "cache" / "dm_proj1.bin"
        stamp = artifact.stat().st_mtime_ns
        cache2 = self._cache(synth_benchmark, tmp_path, alpha=0.09)
        cache2.embedding_model("proj1", PV_DM)
        assert artifact.stat().st_mtime_ns != stamp

    def test_corrupt_artifact_retrained_with_warning(self, synth_benchmark,
                                                     tmp_path, caplog):
        cache = self._cache(synth_benchmark, tmp_path)
        cache.global_vocabulary("proj1")
        artifact = tmp_path / "cache" / "idf.bin"
        artifact.write_text("scrambled\n")
        vocab = self._cache(synth_benchmark, tmp_path).global_vocabulary("proj1")
        assert len(vocab) > 0
        assert "retraining" in " ".join(r.message for r in caplog.records)

    def test_corrupt_metadata_retrains(self, synth_benchmark, tmp_path, caplog):
        cache = self._cache(synth_benchmark, tmp_path)
        cache.global_vocabulary("proj1")
        artifact = tmp_path / "cache" / "idf.bin"
        inode = artifact.stat().st_ino
        artifact.with_name("idf.bin.meta.json").write_text("{broken")
        vocab = self._cache(synth_benchmark, tmp_path).global_vocabulary("proj1")
        assert len(vocab) > 0
        assert "unreadable cache metadata for idf.bin" in caplog.text
        assert artifact.stat().st_ino != inode  # rewritten

    def test_training_corpus_excludes_held_out_reports(self, synth_benchmark, tmp_path):
        _, benchmark, _ = synth_benchmark
        docs, vocab_docs = self._cache(synth_benchmark, tmp_path)._training_corpus("proj1")
        trained = {id(d) for d in docs}

        def streams(project, part):
            return [id(d.token_stream) for d in getattr(benchmark.project(project), part)]

        assert not trained & set(streams("proj1", "bug_reports"))
        assert set(streams("proj1", "source_files")) <= trained  # source files stay
        assert set(streams("proj2", "bug_reports")) <= trained
        assert [id(d) for d in vocab_docs] == [
            i for p in ("proj1", "proj2", "proj3") for i in streams(p, "source_files")]


class TestTrainGlobalCommand:
    def test_builds_idf_per_held_out(self, synth_benchmark, tmp_path, runner):
        """One IDF model serves every held-out project, and each project's
        line names it."""
        root, _, _ = synth_benchmark
        result = runner.invoke(main, ["train-global", "--benchmark", str(root),
                                      "--cache", str(tmp_path / "c"),
                                      "--no-embeddings"])
        assert result.exit_code == 0, result.output
        idf = str(tmp_path / "c" / "idf.bin")
        assert result.stdout.splitlines() == [f"{name}\tidf\t{idf}"
                                              for name in ("proj1", "proj2", "proj3")]
        assert [path.name for path in (tmp_path / "c").glob("idf*.bin")] == ["idf.bin"]

    def test_held_out_leaving_no_document_fails_at_train_time(self, synth_benchmark, tmp_path,
                                                              runner):
        """proj1 is the only project with source files: holding it out
        leaves nothing to count."""
        bench = tmp_path / "bench"
        shutil.copytree(synth_benchmark[0] / "proj1", bench / "proj1")
        (bench / "proj2" / "sources").mkdir(parents=True)
        (bench / "proj2" / "bugs").mkdir()
        result = runner.invoke(main, ["train-global", "--benchmark", str(bench),
                                      "--cache", str(tmp_path / "c"), "--no-embeddings"])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [json.dumps(
            {"error": "no documents left to count after holding out proj1"})]

    @pytest.mark.parametrize("sample", ["-1", "nan"])
    def test_invalid_sample_is_one_json_error(self, synth_benchmark, tmp_path, runner, sample):
        root, _, _ = synth_benchmark
        result = runner.invoke(main, ["train-global", "--benchmark", str(root),
                                      "--cache", str(tmp_path / "c"), "--sample", sample])
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and "sample" in json.loads(lines[0])["error"]

    def test_unknown_held_out_fails(self, synth_benchmark, tmp_path, runner):
        root, _, _ = synth_benchmark
        result = runner.invoke(main, ["train-global", "--benchmark", str(root),
                                      "--cache", str(tmp_path / "c"),
                                      "--held-out", "nope"])
        assert result.exit_code == 1
        assert "error" in result.output or result.exception


class TestLocalizeCommand:
    def test_rank_one_hit_printed(self, synth_benchmark, tmp_path, runner):
        root, benchmark, meta = synth_benchmark
        bug_id = "BUG-proj2-001"
        truth = meta["planted"][("proj2", bug_id)]
        result = runner.invoke(main, ["localize", "--benchmark", str(root),
                                      "--project", "proj2", "--bug", bug_id,
                                      "--method", "3", "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        first_row = [l for l in result.output.splitlines() if l.strip().startswith("1 ")]
        assert truth in first_row[0]
        csv_path = tmp_path / "o" / f"ranking_proj2_m3_{bug_id}.csv"
        rows = list(csv.DictReader(open(csv_path)))
        assert rows[0]["file_path"] == truth
        assert rows[0]["rank"] == "1"

    def test_method3_runs_without_cache(self, synth_benchmark, tmp_path, runner):
        root, _, _ = synth_benchmark
        result = runner.invoke(main, ["localize", "--benchmark", str(root),
                                      "--project", "proj1", "--bug", "BUG-proj1-001",
                                      "--method", "3", "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("method", [1, 3])
    def test_local_method_without_cache_reads_only_its_project(self, synth_benchmark,
                                                               tmp_path, runner, method):
        root = shutil.copytree(synth_benchmark[0], tmp_path / "bench")
        args = ["localize", "--benchmark", str(root), "--project", "proj1",
                "--bug", "BUG-proj1-001", "--method", str(method)]
        csv_path = tmp_path / "o" / f"ranking_proj1_m{method}_BUG-proj1-001.csv"
        before = runner.invoke(main, [*args, "--out", str(tmp_path / "o")])
        assert before.exit_code == 0, before.output
        ranking = csv_path.read_bytes()
        (root / "proj2" / "bugs" / "broken.json").write_text("{not json")
        after = runner.invoke(main, [*args, "--out", str(tmp_path / "o")])
        assert after.exit_code == 0, after.output
        assert after.stdout == before.stdout
        assert csv_path.read_bytes() == ranking
        manifest = root / "manifest.csv"
        manifest.write_text(manifest.read_text().replace("proj1,", "proj1,1"))
        result = runner.invoke(main, [*args, "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and "manifest" in json.loads(lines[0])["error"]

    def test_unknown_project_is_one_json_error(self, synth_benchmark, tmp_path, runner):
        root, _, _ = synth_benchmark
        for cache in ([], ["--cache", str(tmp_path / "c")]):
            result = runner.invoke(main, ["localize", "--benchmark", str(root),
                                          "--project", "nope", "--bug", "BUG-proj1-001",
                                          "--method", "3", "--out", str(tmp_path / "o"),
                                          *cache])
            assert result.exit_code == 1
            assert json.loads(result.stderr)["error"] == "unknown project: nope"

    def test_global_method_without_cache_errors(self, synth_benchmark, tmp_path, runner):
        root, _, _ = synth_benchmark
        result = runner.invoke(main, ["localize", "--benchmark", str(root),
                                      "--project", "proj1", "--bug", "BUG-proj1-001",
                                      "--method", "4", "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "cache" in result.output

    def test_unknown_method_is_usage_error(self, synth_benchmark, tmp_path, runner):
        root, _, _ = synth_benchmark
        result = runner.invoke(main, ["localize", "--benchmark", str(root),
                                      "--project", "proj1", "--bug", "BUG-proj1-001",
                                      "--method", "9", "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_unknown_bug_reports_json_error(self, synth_benchmark, tmp_path, runner):
        root, _, _ = synth_benchmark
        cache = ["--cache", str(tmp_path / "c")]
        for extra in ([], cache, cache):  # without a cache, on an index miss, on a hit
            result = runner.invoke(main, ["localize", "--benchmark", str(root),
                                          "--project", "proj1", "--bug", "NOPE",
                                          "--method", "1", "--out", str(tmp_path / "o"),
                                          *extra])
            assert result.exit_code == 1
            assert json.loads(result.output.strip().splitlines()[-1])["error"] == \
                "unknown bug id 'NOPE' in project proj1"
        assert (tmp_path / "c" / "index_local_proj1.bin").is_file()


@pytest.mark.parametrize("flag", [["--infer-epochs", "0"], ["--infer-epochs", "-1"],
                                  ["--epochs", "0"]])
def test_epochs_below_one_is_one_json_error(synth_benchmark, tmp_path, runner, flag):
    root, _, _ = synth_benchmark
    result = runner.invoke(main, ["evaluate", "--benchmark", str(root), "--methods", "5",
                                  "--projects", "proj1", "--cache", str(tmp_path / "c"),
                                  "--out", str(tmp_path / "o"), *FAST, *flag])
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert "epochs" in json.loads(lines[0])["error"]


@pytest.mark.parametrize("warm", [False, True])
def test_bad_infer_epochs_is_one_json_error_on_index_miss_and_hit(synth_benchmark, tmp_path,
                                                                  runner, warm):
    root, _, _ = synth_benchmark
    args = ["localize", "--benchmark", str(root), "--project", "proj1", "--bug", "BUG-proj1-001",
            "--method", "4", "--cache", str(tmp_path / "c"), "--out", str(tmp_path / "o")]
    if warm:
        assert runner.invoke(main, args).exit_code == 0
        assert (tmp_path / "c" / "index_global_proj1.bin").is_file()
    result = runner.invoke(main, [*args, "--infer-epochs", "0"])
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert "infer_epochs" in json.loads(lines[0])["error"]


class TestEvaluateCommand:
    def test_report_structure(self, synth_benchmark, tmp_path, runner):
        root, _, _ = synth_benchmark
        out = tmp_path / "eval"
        result = runner.invoke(main, ["evaluate", "--benchmark", str(root),
                                      "--methods", "3,4", "--cache",
                                      str(tmp_path / "c"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(open(out / "metrics.csv")))
        per_project = [r for r in rows if r["project"] != "ALL"]
        assert len(per_project) == 6  # 3 projects x 2 methods
        aggregate = [r for r in rows if r["project"] == "ALL"]
        assert {r["method"] for r in aggregate} == {"3", "4"}
        wil = list(csv.DictReader(open(out / "wilcoxon.csv")))
        assert {(r["metric"], r["method_a"], r["method_b"]) for r in wil} == \
            {("mrr", "3", "4"), ("map", "3", "4")}
        # 3 projects cannot clear the n>=5 bar; the row records why
        assert all(r["note"] for r in wil)
        assert (out / "metrics.json").is_file()
        assert (out / "per_query.csv").is_file()

    def test_identical_methods_note_zero_differences(self, synth_benchmark,
                                                     tmp_path, runner):
        root, _, _ = synth_benchmark
        out = tmp_path / "eval2"
        result = runner.invoke(main, ["evaluate", "--benchmark", str(root),
                                      "--methods", "1,3", "--out", str(out)])
        assert result.exit_code == 0, result.output
        wil = list(csv.DictReader(open(out / "wilcoxon.csv")))
        # methods 1 and 3 coincide on this fixture (indirect map is ~zero),
        # so every difference is zero and the row must say so
        assert any("zero" in r["note"] or "at least 5" in r["note"] for r in wil)

    def test_benchmark_tree_never_mutated(self, synth_benchmark, tmp_path, runner):
        root, _, _ = synth_benchmark
        before = {p: p.stat().st_mtime_ns for p in sorted(root.rglob("*")) if p.is_file()}
        result = runner.invoke(main, ["evaluate", "--benchmark", str(root),
                                      "--methods", "1,3", "--out",
                                      str(tmp_path / "mut")])
        assert result.exit_code == 0, result.output
        after = {p: p.stat().st_mtime_ns for p in sorted(root.rglob("*")) if p.is_file()}
        assert before == after

    def test_config_file_with_cli_override(self, synth_benchmark, tmp_path, runner):
        root, _, _ = synth_benchmark
        cfg = tmp_path / "run.cfg"
        cfg.write_text("methods=1\nseed=9\n")
        out = tmp_path / "eval3"
        result = runner.invoke(main, ["evaluate", "--benchmark", str(root),
                                      "--config", str(cfg), "--methods", "2",
                                      "--cache", str(tmp_path / "c"),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(open(out / "metrics.csv")))
        assert {r["method"] for r in rows} == {"2"}  # CLI beats config file


class TestReportCommand:
    def test_summary_and_pair(self, synth_benchmark, tmp_path, runner):
        root, _, _ = synth_benchmark
        out = tmp_path / "eval"
        runner.invoke(main, ["evaluate", "--benchmark", str(root), "--methods",
                             "3,4", "--cache", str(tmp_path / "c"), "--out", str(out)])
        result = runner.invoke(main, ["report", "--results", str(out),
                                      "--pair", "3:4"])
        assert result.exit_code == 0, result.output
        assert "method 4 vs method 3" in result.output
        assert "MRR delta" in result.output

    @pytest.mark.parametrize("text, complaint", [
        ("a,b\n", "header is not project,method,"),
        ("project,method,mrr,map,top1,top5,top10,n_queries\nproj1,3\n",
         "row 2 has 2 fields, expected 8")], ids=["other_header", "short_row"])
    def test_malformed_metrics_is_one_json_error(self, runner, tmp_path, text, complaint):
        (tmp_path / "metrics.csv").write_text(text)
        result = runner.invoke(main, ["report", "--results", str(tmp_path)])
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert str(tmp_path / "metrics.csv") in error and complaint in error

    def test_missing_results_dir(self, runner, tmp_path):
        result = runner.invoke(main, ["report", "--results", str(tmp_path)])
        assert result.exit_code == 1


def test_redirected_stdout_is_not_kept_alive(synth_benchmark, tmp_path):
    root, _, _ = synth_benchmark
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["localize", "--benchmark", str(root), "--project", "proj1",
              "--bug", "BUG-proj1-001", "--method", "1", "--out", str(tmp_path / "o")],
             standalone_mode=False)
    assert "wrote" in buf.getvalue()
    alive = weakref.ref(buf)
    del buf
    gc.collect()
    assert alive() is None


def test_duplicate_bug_id_is_one_json_error(tmp_path, runner):
    project = write_project(tmp_path / "bench", "dup", {"A.java": java_stub("alpha")},
                            [{"id": "B-1", "summary": "alpha fails", "description": "",
                              "fixed_files": ["A.java"]}])
    (project / "bugs" / "B-1-again.json").write_text(json.dumps(
        {"id": "B-1", "summary": "alpha again", "description": "",
         "fixed_files": ["A.java"]}))
    result = runner.invoke(main, ["evaluate", "--benchmark", str(tmp_path / "bench"),
                                  "--methods", "1", "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert "dup: duplicate bug id 'B-1'" in json.loads(lines[0])["error"]


class TestEvaluateProjects:
    def test_repeated_name_evaluated_once(self, synth_benchmark, tmp_path, runner):
        root, benchmark, _ = synth_benchmark
        out = tmp_path / "o"
        result = runner.invoke(main, ["evaluate", "--benchmark", str(root), "--methods", "1",
                                      "--projects", "proj1, proj1,", "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = list(csv.DictReader(open(out / "metrics.csv")))
        n_queries = len(benchmark.project("proj1").bug_reports)
        assert [(r["project"], r["n_queries"]) for r in rows] == \
            [("proj1", str(n_queries)), ("ALL", str(n_queries))]
        assert len(list(csv.DictReader(open(out / "per_query.csv")))) == n_queries

    def test_unknown_name_fails_before_any_ranking(self, synth_benchmark, tmp_path, runner,
                                                   monkeypatch):
        root, _, _ = synth_benchmark
        ranked = []
        localize = rank.localize
        monkeypatch.setattr(rank, "localize", lambda *a, **k: ranked.append(1) or localize(*a, **k))
        result = runner.invoke(main, ["evaluate", "--benchmark", str(root), "--methods", "1",
                                      "--projects", "proj1,nope", "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "unknown project: nope"
        assert ranked == []
        assert not (tmp_path / "o").exists()


def test_unknown_config_key_is_one_json_error(synth_benchmark, tmp_path, runner):
    root, _, _ = synth_benchmark
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epoch = 5\nseed = 3\n")
    result = runner.invoke(main, ["evaluate", "--benchmark", str(root), "--methods", "1",
                                  "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert "unknown config key 'epoch'" in json.loads(lines[0])["error"]
    with pytest.raises(BugLocError, match="'epoch'"):
        Settings(cfg, {})


def test_readme_config_keys_are_the_recognized_ones(tmp_path):
    readme = ["seed", "methods", "history_policy", "vector_size", "alpha", "window",
              "min_count", "negative", "sample", "epochs", "infer_epochs", "min_token_length",
              "split_compounds", "stopwords_path", "keywords_path"]
    assert Settings._KEYS == set(readme)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = 1\n" for key in readme))
    assert Settings(cfg, {}).file_values.keys() == set(readme)


def test_evaluate_ranks_each_project_and_method_in_one_localize_call(
        synth_benchmark, tmp_path, runner, monkeypatch):
    # the benchmark's oracle test perturbs evaluate through this hook
    root, benchmark, _ = synth_benchmark
    original = rank.localize
    calls = []

    def counting(artifacts, rows, config, **kwargs):
        calls.append((artifacts.name, config.method_id))
        return original(artifacts, rows, config, **kwargs)

    def swapped(*args, **kwargs):
        ranked = original(*args, **kwargs)
        ranked.entries[0], ranked.entries[1] = ranked.entries[1], ranked.entries[0]
        return ranked

    outputs = []
    for i, hook in enumerate((counting, swapped)):
        monkeypatch.setattr(rank, "localize", hook)
        out = tmp_path / f"o{i}"
        result = runner.invoke(main, ["evaluate", "--benchmark", str(root), "--methods", "1,3",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        outputs.append((out / "per_query.csv").read_bytes())
    assert sorted(calls) == [(p.name, m) for p in sorted(benchmark.projects, key=lambda p: p.name)
                             for m in (1, 3)]
    assert outputs[0] != outputs[1]


def test_non_numeric_config_value_is_one_json_error_naming_key_and_file(
        synth_benchmark, tmp_path, runner):
    root, _, _ = synth_benchmark
    cfg = tmp_path / "run.cfg"
    cfg.write_text("min_token_length = two\n")
    result = runner.invoke(main, ["evaluate", "--benchmark", str(root), "--methods", "1",
                                  "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == (
        f"min_token_length must be an integer, got 'two' (config file {cfg})")
    assert not (tmp_path / "o").exists()
    with pytest.raises(BugLocError, match=r"^alpha must be a number, got 'fast' "
                                          r"\(flag --alpha\)$"):
        Settings(None, {"alpha": "fast"}).embedding_config()


def test_evaluate_builds_no_rank_entry(synth_benchmark, tmp_path, runner, monkeypatch):
    root, _, _ = synth_benchmark
    built = []

    class CountingEntry(rank.RankEntry):
        def __new__(cls, *args):
            built.append(args[0])
            return super().__new__(cls, *args)

    monkeypatch.setattr(rank, "RankEntry", CountingEntry)
    result = runner.invoke(main, ["evaluate", "--benchmark", str(root), "--methods", "1,3",
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    assert built == []
    # the probe does see the rows a localize call writes
    result = runner.invoke(main, ["localize", "--benchmark", str(root), "--project", "proj1",
                                  "--bug", "BUG-proj1-001", "--method", "1",
                                  "--out", str(tmp_path / "l")])
    assert result.exit_code == 0, result.output
    assert built


def test_json_report_of_wrong_field_type_is_one_json_error(tmp_path, runner):
    # an integer open date next to string ones used to crash the report sort
    project = write_project(tmp_path / "bench", "mixed", {"A.java": java_stub("alpha")}, [
        {"id": "B-1", "summary": "alpha fails", "fixed_files": ["A.java"],
         "open_date": "2021-01-01"},
        {"id": "B-2", "summary": "alpha again", "fixed_files": ["A.java"],
         "open_date": 20210201}])
    result = runner.invoke(main, ["evaluate", "--benchmark", str(tmp_path / "bench"),
                                  "--methods", "1", "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert str(project / "bugs" / "B-2.json") in error
    assert "'open_date' must be a string or null, not int" in error


@pytest.mark.parametrize("value, expected", [("1", True), ("TRUE", True), ("Yes", True),
                                             ("on", True), ("0", False), ("False", False),
                                             ("NO", False), ("Off", False)])
def test_config_booleans_accept_the_usual_spellings(tmp_path, value, expected):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"split_compounds = {value}\n")
    settings = Settings(cfg, {})
    assert settings.get("split_compounds", bool) is expected
    assert settings.preprocess_config().split_compound_identifiers is expected


def test_misspelt_config_boolean_is_one_json_error(synth_benchmark, tmp_path, runner):
    root, _, _ = synth_benchmark
    cfg = tmp_path / "run.cfg"
    cfg.write_text("split_compounds = flase\n")
    result = runner.invoke(main, ["evaluate", "--benchmark", str(root), "--methods", "1",
                                  "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == (
        "split_compounds must be 1/0, true/false, yes/no or on/off, got 'flase'")
    assert not (tmp_path / "o").exists()


def test_evaluate_closing_line_counts_only_evaluated_projects(tmp_path, runner):
    bench = tmp_path / "bench"
    write_project(bench, "fixed", {"A.java": java_stub("alpha")},
                  [{"id": "B-1", "summary": "alpha fails", "fixed_files": ["A.java"]}])
    write_project(bench, "unfixed", {"A.java": java_stub("alpha")},
                  [{"id": "B-1", "summary": "alpha fails", "fixed_files": []}])
    result = runner.invoke(main, ["evaluate", "--benchmark", str(bench), "--methods", "1",
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    assert "skipping unfixed: no queries" in result.stderr
    assert result.stdout.strip() == f"wrote metrics for 1 project(s), methods 1 to {tmp_path / 'o'}"


class TestDocVectorIndex:
    """Methods 5-7 rank the same from a cold cache, from their indexes and
    when only some of a project's indexes hit."""

    OUTPUTS = ("metrics.csv", "metrics.json", "per_query.csv", "wilcoxon.csv")

    @pytest.mark.parametrize("policy", ["earlier", "all"])
    def test_evaluate_cold_warm_and_partial_hit_agree(self, synth_benchmark, tmp_path, runner,
                                                      policy):
        root, _, _ = synth_benchmark
        cache = tmp_path / "c"

        def evaluate(out):
            result = runner.invoke(main, ["evaluate", "--benchmark", str(root), "--methods",
                                          "5,6,7", "--cache", str(cache), "--out",
                                          str(tmp_path / out), "--history", policy, *FAST])
            assert result.exit_code == 0, result.output
            return [(tmp_path / out / name).read_bytes() for name in self.OUTPUTS]

        cold = evaluate("cold")
        assert sorted(p.name for p in cache.glob("index_*docvec_*.bin")) == [
            index_name("docvec", project, policy) for project in ("proj1", "proj2", "proj3")]
        assert evaluate("warm") == cold
        (cache / index_name("docvec", "proj1", policy)).unlink()
        (cache / index_name("global", "proj2", policy)).unlink()
        assert evaluate("partial") == cold
        assert (cache / index_name("docvec", "proj1", policy)).is_file()
        assert (cache / index_name("global", "proj2", policy)).is_file()

    @pytest.mark.parametrize("policy", ["earlier", "all"])
    @pytest.mark.parametrize("method", [5, 6, 7])
    def test_localize_cold_warm_and_partial_hit_agree(self, synth_benchmark, tmp_path, runner,
                                                      method, policy):
        root, _, _ = synth_benchmark
        cache = tmp_path / "c"
        csv_path = tmp_path / "o" / f"ranking_proj2_m{method}_BUG-proj2-003.csv"

        def localize():
            result = runner.invoke(main, ["localize", "--benchmark", str(root), "--project",
                                          "proj2", "--bug", "BUG-proj2-003", "--method",
                                          str(method), "--cache", str(cache), "--out",
                                          str(tmp_path / "o"), "--history", policy, *FAST])
            assert result.exit_code == 0, result.output
            return result.stdout, csv_path.read_bytes()

        cold = localize()
        assert localize() == cold
        indexes = [index_name(scope, "proj2", policy)
                   for scope in ["docvec"] + (["global"] if method > 5 else [])]
        for name in indexes:  # each missing on its own
            (cache / name).unlink()
            assert localize() == cold
            assert (cache / name).is_file()


def test_per_query_lines_are_the_bytes_csv_writer_wrote(tmp_path):
    """``per_query.csv``, written as lines with each project name and bug id
    quoted once, holds the bytes that ``csv.writer`` wrote row by row, also
    for names and ids that need quoting."""
    odd = ["plain", "with,comma", 'with "quote"', "cr\rhere", "lf\nhere", "cr lf\r\n",
           " spaced ", "ünïcödé ✓", '"', ",", ""]
    rng = np.random.default_rng(2)
    rows, lines = [], []
    for k, name in enumerate(odd):
        bug_ids = [f"{bug}{k}" if bug else bug for bug in odd[k:] + odd[:k]][:5]
        reports = {}
        for method_id in (1, 4, 7):
            values = [(float(rr), float(ap)) for rr, ap in rng.random((len(bug_ids), 2))]
            values[0] = (0.0, 1.0)
            reports[method_id] = metrics.MetricsReport(0.5, 0.5, {1: 0, 5: 0, 10: 0},
                                                       dict(zip(bug_ids, values)))
            rows += [[name, method_id, bug_id, f"{rr:.6f}", f"{ap:.6f}"]
                     for bug_id, (rr, ap) in reports[method_id].per_query.items()]
        lines += cli._per_query_lines(name, reports)
    cli._write_metrics_outputs(tmp_path / "lines", [], lines, [])
    with open(tmp_path / "rows.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [["project", "method", "bug_id", "reciprocal_rank", "average_precision"], *rows])
    assert (tmp_path / "lines" / "per_query.csv").read_bytes() == \
        (tmp_path / "rows.csv").read_bytes()
