"""The token-stream index, the ranking indexes and the integrity of cached
artifacts."""

import builtins
import gc
import hashlib
import io
import json
import logging
import multiprocessing
import multiprocessing.process
import os
import re
import shutil
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from bugloc import cache as cache_module, cli, corpus, embedding, pool, preprocess, rank, tfidf
from bugloc.cache import ArtifactCache
from bugloc.cli import main
from bugloc.corpus import load_benchmark
from bugloc.embedding import EmbeddingConfig, PV_DBOW, PV_DM
from bugloc.preprocess import PreprocessConfig, preprocess_benchmark

EMBED = EmbeddingConfig(vector_size=8, epochs=2, min_count=1, seed=3)
FAST = ["--epochs", "2", "--vector-size", "8", "--min-count", "1", "--infer-epochs", "2"]
OUTPUTS = ("metrics.csv", "metrics.json", "per_query.csv", "wilcoxon.csv")

# every kind of artifact, and its file for the benchmark or for proj1
KINDS = {"tokens": "tokens.bin", "idf": "idf.bin", "dm": "dm_proj1.bin",
         "dbow": "dbow_proj1.bin", "index_local": "index_local_proj1.bin",
         "index_global": "index_global_proj1.bin", "index_docvec": "index_docvec_proj1.bin"}


@pytest.fixture
def bench(synth_benchmark, tmp_path):
    """A private copy of the synthetic benchmark tree, free to edit."""
    root, _, _ = synth_benchmark
    return shutil.copytree(root, tmp_path / "bench")


@pytest.fixture
def preprocess_calls(monkeypatch):
    """Records every call the CLI makes to preprocess_benchmark."""
    calls = []

    def counted(benchmark, config=None):
        calls.append(config)
        return preprocess_benchmark(benchmark, config)

    monkeypatch.setattr(cli, "preprocess_benchmark", counted)
    return calls


@pytest.fixture
def load_calls(monkeypatch):
    """Records every call the CLI makes to load_benchmark."""
    calls = []

    def counted(root, strict=True):
        calls.append(root)
        return load_benchmark(root, strict)

    monkeypatch.setattr(cli, "load_benchmark", counted)
    return calls


@pytest.fixture
def digest_calls(monkeypatch):
    """Records every root the cache hashes byte by byte."""
    calls = []
    digest = cache_module.corpus_digest

    def counted(root, entries=None):
        calls.append(root)
        return digest(root, entries)

    monkeypatch.setattr(cache_module, "corpus_digest", counted)
    return calls


@pytest.fixture
def listings(monkeypatch):
    """Records every call to a function that lists a directory, by name."""
    calls = []
    for module, name in [(os, "walk"), (os, "scandir"), (os, "listdir"),
                         (corpus, "project_dirs"), (corpus, "project_files"),
                         (cli, "project_dirs")]:
        def counted(*args, real=getattr(module, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def opened(monkeypatch):
    """Records every path opened through ``open`` or ``io.open``."""
    paths = []
    real = io.open

    def tracked(file, *args, **kwargs):
        paths.append(file)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", tracked)
    monkeypatch.setattr(io, "open", tracked)
    return paths


def under(paths, root):
    """The paths of ``paths`` that lie under the directory ``root``."""
    root = Path(root).resolve()
    return [p for p in paths if isinstance(p, (str, os.PathLike))
            and Path(os.fspath(p)).resolve().is_relative_to(root)]


def run(*args):
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, result.output
    return result


def train(bench, cache, *extra):
    return run("train-global", "--benchmark", bench, "--cache", cache, "--no-embeddings",
               *extra)


def localize(bench, cache, *extra, method=4):
    return run("localize", "--benchmark", bench, "--project", "proj1",
               "--bug", "BUG-proj1-001", "--method", method, "--cache", cache,
               "--out", cache.parent / "out", *extra)


def ranking(cache, method=4):
    """The bytes of the ranking CSV the last ``localize`` wrote."""
    return (cache.parent / "out" / f"ranking_proj1_m{method}_BUG-proj1-001.csv").read_bytes()


def reads(kind, bench, cache, out):
    """The call that reads the artifact of that kind: ``train-global`` of
    proj1 for the token streams and proj1's models, and ``evaluate`` of
    proj1 with all seven methods for its ranking indexes."""
    if kind.startswith("index"):
        return run("evaluate", "--benchmark", bench, "--methods", "1,2,3,4,5,6,7", "--projects",
                   "proj1", "--cache", cache, "--out", out, *FAST)
    return run("train-global", "--benchmark", bench, "--cache", cache, "--held-out", "proj1",
               *FAST)


def seal(bench, cache, out):
    """Write an artifact of every kind of :data:`KINDS`."""
    reads("tokens", bench, cache, out)
    reads("index_local", bench, cache, out)


@pytest.fixture(scope="module")
def sealed(synth_benchmark, tmp_path_factory):
    """The synthetic benchmark's root and a cache holding every kind of
    artifact; tests copy the cache before changing it."""
    root = synth_benchmark[0]
    cache = tmp_path_factory.mktemp("sealed") / "c"
    seal(root, cache, cache.parent / "out")
    return root, cache


@pytest.fixture(scope="module")
def sealed_bytes(sealed):
    """Per kind, the bytes of the sealed artifact and the function that
    decodes them."""
    root, cache = sealed
    origins = [origin for _, origin in preprocess.documents(load_benchmark(root))]
    config = EmbeddingConfig(vector_size=8, epochs=2, min_count=1)  # as FAST sets it
    decoders = {"tokens": lambda data: cache_module._decode_streams(data, origins),
                "idf": tfidf.load_vocabulary,
                "dm": lambda data: embedding.load_model(data, PV_DM, config),
                "dbow": lambda data: embedding.load_model(data, PV_DBOW, config),
                "index_local": cache_module._decode_index,
                "index_global": cache_module._decode_index,
                "index_docvec": lambda data: cache_module._decode_docvec(data, 16)}
    return {kind: ((cache / name).read_bytes(), decoders[kind]) for kind, name in KINDS.items()}


def damage(artifact, how):
    """Damage a sealed artifact in one of four ways."""
    data = bytearray(artifact.read_bytes())
    if how == "truncate":
        artifact.write_bytes(data[:len(data) // 2])
    elif how == "flip":
        data[len(data) // 2] ^= 0x01
        artifact.write_bytes(bytes(data))
    elif how == "wrong_sha":
        meta = artifact.with_suffix(artifact.suffix + ".meta.json")
        record = json.loads(meta.read_text())
        record["sha256"] = "0" * 64
        meta.write_text(json.dumps(record))
    else:  # a consistent sha over bytes that are not an artifact of this corpus
        artifact.write_bytes(data[:40] + b"\xff" * 20)
        reseal(artifact)


def record_path(cache):
    return cache / cache_module._CORPUS_RECORD


def settle(cache):
    """Date the corpus record after every benchmark file, as if it had been
    written a clock tick after the last edit, so no file is racily clean."""
    later = time.time_ns() + 10 ** 9
    os.utime(record_path(cache), ns=(later, later))


def artifact_stamps(cache):
    """The inode and ``mtime_ns`` of every artifact, by name: an artifact
    rewritten in place of another gets a new inode."""
    return {path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
            for path in cache.glob("*.bin")}


def stale_record(cache, digest):
    """Put ``digest`` in the corpus record, keeping its stamps, and settle it."""
    recorded = json.loads(record_path(cache).read_text())
    recorded["digest"] = digest
    record_path(cache).write_text(json.dumps(recorded))
    settle(cache)


def first(bench, pattern):
    return sorted(bench.glob(pattern))[0]


def unchanged(bench):
    pass


def add_java_in_new_package(bench):
    package = bench / "proj1" / "sources" / "org" / "zebra"
    package.mkdir(parents=True)
    (package / "Zebra.java").write_text("class Zebra {}\n")


def rename_java_to_txt(bench):
    source = first(bench, "proj3/sources/**/*.java")
    source.rename(source.with_suffix(".txt"))


def add_bug_json(bench):
    (bench / "proj1" / "bugs" / "ZEBRA.json").write_text('{"id": "ZEBRA", "summary": "zebra"}')


def add_project(bench):
    (bench / "proj4" / "sources").mkdir(parents=True)
    (bench / "proj4" / "bugs").mkdir()


def add_manifest(bench):
    (bench / "manifest.csv").write_text("proj1,1,1\n")


def remove_manifest(bench):
    (bench / "manifest.csv").unlink()


def add_repository(bench):
    (bench / "proj1" / "bugrepo").mkdir(exist_ok=True)
    (bench / "proj1" / "bugrepo" / "repository.xml").write_text("<bugrepository/>\n")


def remove_bugs(bench):
    shutil.rmtree(bench / "proj1" / "bugs")


def replace_bugs_with_empty_bugrepo(bench):
    remove_bugs(bench)
    (bench / "proj1" / "bugrepo").mkdir()


# changes to what the loader lists, each as (prepare the benchmark, change it)
LISTING_CHANGES = {
    "java_in_new_package": (unchanged, add_java_in_new_package),
    "java_deleted": (unchanged, lambda bench: first(bench, "proj2/sources/**/*.java").unlink()),
    "java_renamed_to_txt": (unchanged, rename_java_to_txt),
    "bug_json_added": (unchanged, add_bug_json),
    "bug_json_deleted": (unchanged, lambda bench: first(bench, "proj2/bugs/*.json").unlink()),
    "new_project": (unchanged, add_project),
    "manifest_created": (remove_manifest, add_manifest),
    "manifest_deleted": (unchanged, remove_manifest),
    "bugs_removed_with_bugrepo_present": (add_repository, remove_bugs),
    "repository_xml_created": (replace_bugs_with_empty_bugrepo, add_repository),
}


def same_size_edit(path):
    """Change one byte of the file, keeping its size."""
    data = bytearray(path.read_bytes())
    data[-2] = ord("y") if data[-2] != ord("y") else ord("z")
    path.write_bytes(bytes(data))


def cached_digest(cache, bench):
    return ArtifactCache(cache, bench, PreprocessConfig())._corpus


def documents(benchmark):
    for project in benchmark.projects:
        yield from project.source_files
        yield from project.bug_reports


def indexed(cache, *scopes):
    """The artifacts of proj1 from its ranking indexes under ``scopes``,
    which must all hit."""
    def loaded():
        raise AssertionError("the ranking indexes of proj1 missed")

    return cache.artifacts("proj1", set(scopes), loaded)


def reseal(artifact):
    """Record the artifact's current bytes as its sha256, as a writer would."""
    meta = artifact.with_suffix(artifact.suffix + ".meta.json")
    record = json.loads(meta.read_text())
    record["sha256"] = hashlib.sha256(artifact.read_bytes()).hexdigest()
    meta.write_text(json.dumps(record))


class TestTokenStreamIndex:
    def test_hit_equals_fresh_preprocessing(self, bench, tmp_path):
        train(bench, tmp_path / "c")
        loaded = load_benchmark(bench, strict=False)
        cache = ArtifactCache(tmp_path / "c", loaded, PreprocessConfig())
        assert cache.load_token_streams()
        fresh = load_benchmark(bench, strict=False)
        preprocess_benchmark(fresh, PreprocessConfig())
        pairs = list(zip(documents(loaded), documents(fresh)))
        assert len(pairs) > 0
        for got, want in pairs:
            assert got.token_stream == want.token_stream
        # one str object per distinct term across all streams
        by_value = {}
        for doc in documents(loaded):
            for term in doc.token_stream.tokens:
                assert by_value.setdefault(term, term) is term

    def test_second_evaluate_does_not_preprocess(self, bench, tmp_path, preprocess_calls):
        cache = tmp_path / "c"
        for i in range(2):
            run("evaluate", "--benchmark", bench, "--methods", "1,4", "--cache", cache,
                "--out", tmp_path / f"out{i}")
        assert len(preprocess_calls) == 1
        for name in ("metrics.csv", "per_query.csv", "wilcoxon.csv"):
            assert (tmp_path / "out0" / name).read_bytes() == \
                (tmp_path / "out1" / name).read_bytes()

    def test_train_global_writes_the_index(self, bench, tmp_path, preprocess_calls):
        train(bench, tmp_path / "c")
        localize(bench, tmp_path / "c")
        assert len(preprocess_calls) == 1
        assert (tmp_path / "c" / "tokens.bin").is_file()

    def test_edited_source_file_misses(self, bench, tmp_path, preprocess_calls):
        train(bench, tmp_path / "c")
        source = sorted((bench / "proj2" / "sources").rglob("*.java"))[0]
        source.write_text(source.read_text() + "\nclass Zebrafish {}\n")
        localize(bench, tmp_path / "c")
        localize(bench, tmp_path / "c")
        assert len(preprocess_calls) == 2  # rebuilt once, then hit

    def test_config_change_misses(self, bench, tmp_path, preprocess_calls):
        train(bench, tmp_path / "c")
        localize(bench, tmp_path / "c", "--min-token-length", "4")
        assert len(preprocess_calls) == 2
        assert preprocess_calls[-1].min_token_length == 4

    def test_pipeline_version_change_rebuilds_index_and_models(
            self, bench, tmp_path, preprocess_calls, monkeypatch):
        train(bench, tmp_path / "c")
        idf = tmp_path / "c" / "idf.bin"
        stamp = idf.stat().st_mtime_ns
        monkeypatch.setattr(preprocess, "PIPELINE_VERSION", preprocess.PIPELINE_VERSION + 1)
        localize(bench, tmp_path / "c")
        assert len(preprocess_calls) == 2
        assert idf.stat().st_mtime_ns != stamp

    @pytest.mark.parametrize("how", ["truncate", "flip", "wrong_sha", "resealed_garbage"])
    def test_damaged_index_rebuilt_with_warning(self, bench, tmp_path, preprocess_calls,
                                                caplog, how):
        train(bench, tmp_path / "c")
        damage(tmp_path / "c" / "tokens.bin", how)
        with caplog.at_level(logging.WARNING):
            localize(bench, tmp_path / "c")
        assert len(preprocess_calls) == 2
        assert any("re-preprocessing" in r.getMessage() for r in caplog.records)
        # the rebuilt index is used again: method 3 has no ranking index yet,
        # so this call reads the token streams
        localize(bench, tmp_path / "c", method=3)
        assert len(preprocess_calls) == 2


class TestRankingIndex:
    @pytest.mark.parametrize("method", [1, 2, 3, 4])
    @pytest.mark.parametrize("policy", ["earlier", "all"])
    def test_hit_equals_miss(self, bench, tmp_path, load_calls, method, policy):
        train(bench, tmp_path / "c")
        miss = localize(bench, tmp_path / "c", "--history", policy, method=method)
        built = ranking(tmp_path / "c", method)
        scope = "local" if method in (1, 3) else "global"
        assert (tmp_path / "c" / f"index_{scope}_proj1.bin").is_file()
        hit = localize(bench, tmp_path / "c", "--history", policy, method=method)
        assert len(load_calls) == 2  # train-global and the miss; the hit loads no benchmark
        assert ranking(tmp_path / "c", method) == built
        assert hit.stdout == miss.stdout

    def test_hit_loads_no_benchmark_and_reads_no_token_streams(
            self, bench, tmp_path, load_calls, preprocess_calls, monkeypatch):
        train(bench, tmp_path / "c")
        localize(bench, tmp_path / "c")
        (tmp_path / "c" / "tokens.bin").unlink()
        loads, preprocessings = len(load_calls), len(preprocess_calls)
        ranked = []
        original = rank.localize
        monkeypatch.setattr(rank, "localize", lambda *a, **k: ranked.append(1) or original(*a, **k))
        localize(bench, tmp_path / "c")
        assert (len(load_calls), len(preprocess_calls)) == (loads, preprocessings)
        assert len(ranked) == 1
        assert not (tmp_path / "c" / "tokens.bin").exists()  # a miss would have rewritten it

    @pytest.mark.parametrize("how", ["truncate", "flip", "wrong_sha", "resealed_garbage"])
    def test_damaged_index_rebuilt_with_warning(self, bench, tmp_path, load_calls, caplog,
                                                how):
        train(bench, tmp_path / "c")
        localize(bench, tmp_path / "c")
        built = ranking(tmp_path / "c")
        damage(tmp_path / "c" / "index_global_proj1.bin", how)
        with caplog.at_level(logging.WARNING):
            localize(bench, tmp_path / "c")
        assert any("index_global_proj1.bin" in r.getMessage() and "rebuilding" in r.getMessage()
                   for r in caplog.records)
        assert ranking(tmp_path / "c") == built
        assert len(load_calls) == 3
        localize(bench, tmp_path / "c")  # the rebuilt index is used again
        assert len(load_calls) == 3

    @pytest.mark.parametrize("flaw", ["query_term_out_of_range", "offsets_decrease",
                                      "row_out_of_range", "short_length_weights",
                                      "fixed_column_out_of_range",
                                      "fixed_offsets_wrong_length",
                                      "report_sims_wrong_length"])
    def test_resealed_index_of_bad_structure_rebuilt_with_warning(self, bench, tmp_path,
                                                                  caplog, flaw):
        train(bench, tmp_path / "c")
        localize(bench, tmp_path / "c")
        built = ranking(tmp_path / "c")
        artifact = tmp_path / "c" / "index_global_proj1.bin"
        cache = ArtifactCache(tmp_path / "c", bench, PreprocessConfig(), EmbeddingConfig())
        artifacts = indexed(cache, "global")
        scope = artifacts.scopes["global"]
        fixed_offsets, fixed_columns = artifacts.fixed
        files = scope.files
        terms, rows, offsets = (scope.queries.terms.copy(), files.rows.copy(),
                                files.offsets.copy())
        length_weights, report_sims = scope.length_weights, scope.report_sims
        if flaw == "query_term_out_of_range":
            terms[0] = files.n_terms
        elif flaw == "offsets_decrease":
            step = np.flatnonzero(np.diff(offsets))[0]
            offsets[step + 1] = offsets[step] - 1
        elif flaw == "row_out_of_range":
            rows[0] = len(files)
        elif flaw == "fixed_column_out_of_range":
            fixed_columns = fixed_columns.copy()
            fixed_columns[0] = len(files)
        elif flaw == "fixed_offsets_wrong_length":
            fixed_offsets = fixed_offsets[:-1]
        elif flaw == "report_sims_wrong_length":  # one pair short of the triangle
            report_sims = report_sims[:-1]
        else:
            length_weights = length_weights[:-1]
        bad = rank.TfidfScope(
            tfidf.Postings(rows, files.weights, offsets, files.norms), length_weights,
            scope.queries._replace(terms=terms), report_sims)
        artifact.write_bytes(b"".join(cache_module._encode_index(
            bad, artifacts.file_ids, artifacts.report_ids, fixed_offsets, fixed_columns)))
        reseal(artifact)
        with caplog.at_level(logging.WARNING):
            localize(bench, tmp_path / "c")
        (warning,) = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert "corrupt ranking index index_global_proj1.bin" in warning
        assert ranking(tmp_path / "c") == built

    @pytest.mark.parametrize("edit", ["other_project_file", "new_java_file", "manifest",
                                      "loader_version", "new_empty_project"])
    def test_benchmark_change_misses(self, bench, tmp_path, load_calls, monkeypatch, edit):
        if edit == "new_java_file":  # a new file changes the counts the manifest checks
            (bench / "manifest.csv").unlink()
        train(bench, tmp_path / "c")
        localize(bench, tmp_path / "c")
        assert len(load_calls) == 2
        if edit == "other_project_file":
            source = sorted((bench / "proj2" / "sources").rglob("*.java"))[0]
            source.write_text(source.read_text() + "\nclass Zebrafish {}\n")
        elif edit == "new_java_file":
            (bench / "proj3" / "sources" / "Zebrafish.java").write_text("class Zebrafish {}\n")
        elif edit == "new_empty_project":  # loads, with no files and no queries
            (bench / "proj4" / "sources").mkdir(parents=True)
            (bench / "proj4" / "bugs").mkdir()
        elif edit == "manifest":  # a comment: the benchmark loads the same
            with open(bench / "manifest.csv", "a") as fh:
                fh.write("# checked\n")
        else:
            monkeypatch.setattr(corpus, "LOADER_VERSION", corpus.LOADER_VERSION + 1)
        localize(bench, tmp_path / "c")
        assert len(load_calls) == 3

    def test_warm_evaluate_decodes_no_token_stream(self, bench, tmp_path, monkeypatch):
        decoded = []
        decode = cache_module._decode_streams
        monkeypatch.setattr(cache_module, "_decode_streams",
                            lambda *args: decoded.append(1) or decode(*args))
        train(bench, tmp_path / "c")
        outputs = ("metrics.csv", "metrics.json", "per_query.csv", "wilcoxon.csv")

        def evaluate(i):
            run("evaluate", "--benchmark", bench, "--methods", "1,2,3,4", "--cache",
                tmp_path / "c", "--out", tmp_path / f"out{i}")
            return [(tmp_path / f"out{i}" / name).read_bytes() for name in outputs]

        first = evaluate(0)  # builds every ranking index from the decoded streams
        assert len(decoded) == 1
        assert evaluate(1) == first
        assert len(decoded) == 1
        index = tmp_path / "c" / "index_global_proj2.bin"
        index.unlink()
        assert evaluate(2) == first
        assert index.is_file()
        assert len(decoded) == 2

    def test_word_list_files_are_read_on_every_call(self, bench, tmp_path, preprocess_calls):
        words = tmp_path / "stop.txt"
        for listed in ("zeppelin", "quagmire"):
            words.write_text(f"{listed}\n")
            localize(bench, tmp_path / "c", "--stopwords", words, method=3)
        assert [c.stopwords for c in preprocess_calls] == [frozenset({"zeppelin"}),
                                                            frozenset({"quagmire"})]

    def test_digest_hashes_bytes_not_decoded_text(self, bench):
        source = sorted((bench / "proj1" / "sources").rglob("*.java"))[0]
        text = source.read_text()
        before = cache_module.corpus_digest(bench)
        source.write_bytes(text.replace("\n", "\r\n").encode())
        crlf = cache_module.corpus_digest(bench)
        source.write_bytes(text.encode() + b"// \xfe\n")
        invalid_fe = cache_module.corpus_digest(bench)
        fe_text = corpus.load_project(bench / "proj1").source_files[0].raw_text
        source.write_bytes(text.encode() + b"// \xff\n")
        invalid_ff = cache_module.corpus_digest(bench)
        # the loader decodes all three edits to text it has seen before
        assert corpus.load_project(bench / "proj1").source_files[0].raw_text == fe_text
        assert len({before, crlf, invalid_fe, invalid_ff}) == 4

    def test_index_of_other_reports_misses(self, bench, tmp_path, caplog):
        """A fresh index that holds other report ids than the loaded project
        is not paired with it: a doc-vector method, which ranks the loaded
        project, rebuilds the index instead."""
        benchmark = load_benchmark(bench, strict=False)
        preprocess_benchmark(benchmark, PreprocessConfig())
        project = benchmark.project("proj1")
        cache = ArtifactCache(tmp_path / "c", benchmark, PreprocessConfig())
        fewer = corpus.Project("proj1", project.source_files, project.bug_reports[:-1])
        cache.artifacts("proj1", {"global"}, lambda: corpus.Benchmark([fewer]))
        assert len(indexed(cache, "global").report_ids) == len(project.bug_reports) - 1
        fast = ["--epochs", "2", "--vector-size", "8", "--min-count", "1", "--infer-epochs", "2"]
        with caplog.at_level(logging.INFO):
            localize(bench, tmp_path / "c", *fast, method=6)
        assert any("other files or reports" in r.getMessage() for r in caplog.records)
        built = ranking(tmp_path / "c", 6)
        hit = indexed(ArtifactCache(tmp_path / "c", bench, PreprocessConfig()), "global")
        assert hit.report_ids == [r.id for r in project.bug_reports]
        index = tmp_path / "c" / "index_global_proj1.bin"
        stamp = index.stat().st_mtime_ns
        localize(bench, tmp_path / "c", *fast, method=6)  # the rebuilt index is paired
        assert index.stat().st_mtime_ns == stamp
        assert ranking(tmp_path / "c", 6) == built
        # a fresh global index of other reports beside a fresh doc-vector
        # index of these: the two disagree, and only the global one is rebuilt
        index.unlink()
        cache.artifacts("proj1", {"global"}, lambda: corpus.Benchmark([fewer]))
        docvec = tmp_path / "c" / "index_docvec_proj1.bin"
        inodes = docvec.stat().st_ino, index.stat().st_ino
        caplog.clear()
        with caplog.at_level(logging.INFO):
            localize(bench, tmp_path / "c", *fast, method=6)
        assert any("disagree on ids or fixed files" in r.getMessage() for r in caplog.records)
        assert docvec.stat().st_ino == inodes[0] and index.stat().st_ino != inodes[1]
        assert ranking(tmp_path / "c", 6) == built

    def test_arrays_round_trip(self, bench, tmp_path):
        benchmark = load_benchmark(bench, strict=False)
        preprocess_benchmark(benchmark, PreprocessConfig())
        cache = ArtifactCache(tmp_path / "c", benchmark, PreprocessConfig())
        built = cache.artifacts("proj1", {"local"}, lambda: benchmark).scopes["local"]
        reloaded = ArtifactCache(tmp_path / "c", benchmark, PreprocessConfig())
        loaded = indexed(reloaded, "local").scopes["local"]
        for name in ("rows", "weights", "offsets", "norms"):
            want, got = getattr(built.files, name), getattr(loaded.files, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(loaded.length_weights, built.length_weights)
        for want, got in zip(built.queries, loaded.queries):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        want, got = built.report_sims, loaded.report_sims
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_stored_report_sims_are_the_cosines_in_either_order(self, synth_benchmark,
                                                                 tmp_path):
        """Each stored entry is the cosine of its two reports, bit for bit,
        in either argument order: the property that lets one entry serve
        the pair both ways."""
        root, benchmark, _ = synth_benchmark
        project = benchmark.project("proj1")
        cache = ArtifactCache(tmp_path / "c", benchmark, PreprocessConfig())
        cache.artifacts("proj1", {"local", "global"}, lambda: benchmark)
        stored = indexed(ArtifactCache(tmp_path / "c", root, PreprocessConfig()),
                         "local", "global")
        vocabs = {"local": tfidf.build_vocabulary(f.token_stream for f in project.source_files),
                  "global": cache.global_vocabulary("proj1")}
        for scope, vocab in vocabs.items():
            data = stored.scopes[scope]
            vectors = [tfidf.vectorize(r.token_stream, vocab) for r in project.bug_reports]
            n = len(vectors)
            assert len(data.report_sims) == n * (n + 1) // 2
            cosines = np.empty((n, n))
            for i in range(n):
                for j in range(i + 1):
                    entry = data.report_sims[i * (i + 1) // 2 + j]
                    assert entry == tfidf.cosine(vectors[i], vectors[j]) == \
                        tfidf.cosine(vectors[j], vectors[i])
                    cosines[i, j] = cosines[j, i] = entry
            assert np.count_nonzero(np.tril(cosines, -1))
            a, b = np.indices((n, n)).reshape(2, -1)
            assert np.array_equal(data.report_cosines(a, b), cosines.ravel())


class TestCorpusRecord:
    """The corpus digest looked up by stat, and when it is hashed anew."""

    def test_warm_call_hashes_nothing(self, bench, tmp_path, digest_calls):
        assert cached_digest(tmp_path / "c", bench) == cache_module.corpus_digest(bench)
        settle(tmp_path / "c")
        del digest_calls[:]
        assert cached_digest(tmp_path / "c", bench) == cache_module.corpus_digest(bench)
        assert len(digest_calls) == 1  # the comparison's own

    def test_racily_clean_file_is_rehashed(self, bench, tmp_path, digest_calls):
        """A file edited in the clock tick the record was written in keeps
        the recorded stamps; its time, not older than the record's, gives it
        away."""
        before = cached_digest(tmp_path / "c", bench)
        source = sorted((bench / "proj1" / "sources").rglob("*.java"))[0]
        same_size_edit(source)
        tick = time.time_ns() + 10 ** 9  # after every other file's times
        os.utime(source, ns=(tick, tick))
        after = cache_module.corpus_digest(bench)
        assert cached_digest(tmp_path / "c", bench) == after
        # the record of a call that stamped the edited file in that tick
        # and hashed the bytes before the edit
        stale_record(tmp_path / "c", before)
        assert cached_digest(tmp_path / "c", bench) == before  # the stamps alone agree
        os.utime(record_path(tmp_path / "c"), ns=(tick, tick))
        del digest_calls[:]
        assert cached_digest(tmp_path / "c", bench) == after
        assert len(digest_calls) == 1

    def test_racily_clean_directory_is_relisted(self, bench, tmp_path, digest_calls, listings):
        """Likewise a directory whose entries changed in that tick: a file
        removed from it, with no file left whose time gives it away."""
        before = cached_digest(tmp_path / "c", bench)
        source = sorted((bench / "proj2" / "sources").rglob("*.java"))[0]
        source.unlink()
        tick = time.time_ns() + 10 ** 9
        os.utime(source.parent, ns=(tick, tick))
        after = cache_module.corpus_digest(bench)
        assert cached_digest(tmp_path / "c", bench) == after
        stale_record(tmp_path / "c", before)
        assert cached_digest(tmp_path / "c", bench) == before
        os.utime(record_path(tmp_path / "c"), ns=(tick, tick))
        del digest_calls[:], listings[:]
        assert cached_digest(tmp_path / "c", bench) == after
        assert len(digest_calls) == 1 and listings

    @pytest.mark.parametrize("change", sorted(LISTING_CHANGES))
    def test_listing_change_rehashes_once(self, bench, tmp_path, digest_calls, change):
        """Under a settled record every file keeps its stamp; only the stamp
        of the directory whose entries changed tells."""
        prepare, edit = LISTING_CHANGES[change]
        prepare(bench)
        before = cached_digest(tmp_path / "c", bench)
        settle(tmp_path / "c")
        assert cached_digest(tmp_path / "c", bench) == before
        edit(bench)
        del digest_calls[:]
        after = cached_digest(tmp_path / "c", bench)
        assert len(digest_calls) == 1
        assert after != before and after == cache_module.corpus_digest(bench)
        settle(tmp_path / "c")
        assert cached_digest(tmp_path / "c", bench) == after
        assert len(digest_calls) == 2  # the comparison's own

    def test_edit_restoring_mtime_misses_through_ctime(self, bench, tmp_path, digest_calls):
        before = cached_digest(tmp_path / "c", bench)
        source = sorted((bench / "proj2" / "sources").rglob("*.java"))[0]
        stat = source.stat()
        same_size_edit(source)
        os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (source.stat().st_size, source.stat().st_mtime_ns) == (stat.st_size,
                                                                      stat.st_mtime_ns)
        settle(tmp_path / "c")
        del digest_calls[:]
        after = cached_digest(tmp_path / "c", bench)
        assert len(digest_calls) == 1
        assert after != before and after == cache_module.corpus_digest(bench)

    def test_file_replaced_by_rename_misses(self, bench, tmp_path, digest_calls):
        before = cached_digest(tmp_path / "c", bench)
        source = sorted((bench / "proj3" / "sources").rglob("*.java"))[0]
        stat = source.stat()
        replacement = source.with_name("replacement.tmp")
        shutil.copy2(source, replacement)
        same_size_edit(replacement)
        os.utime(replacement, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        os.replace(replacement, source)
        settle(tmp_path / "c")
        del digest_calls[:]
        after = cached_digest(tmp_path / "c", bench)
        assert len(digest_calls) == 1
        assert after != before and after == cache_module.corpus_digest(bench)

    def test_two_roots_never_share_a_digest(self, bench, tmp_path):
        other = shutil.copytree(bench, tmp_path / "other")  # copy2 keeps sizes and mtimes
        same_size_edit(sorted((other / "proj1" / "sources").rglob("*.java"))[0])
        want = {root: cache_module.corpus_digest(root) for root in (bench, other)}
        assert len(set(want.values())) == 2
        for root in (bench, other, other, bench, other):
            assert cached_digest(tmp_path / "c", root) == want[root]
            settle(tmp_path / "c")

    @pytest.mark.parametrize("content", [b"", b'{"root": "', b"\xff\xfe garbage", b"[1, 2]",
                                         b'{"root": 1}', b"null"])
    def test_damaged_record_falls_back_to_full_hash(self, bench, tmp_path, digest_calls,
                                                    content):
        train(bench, tmp_path / "c")
        localize(bench, tmp_path / "c")
        built = ranking(tmp_path / "c")
        record_path(tmp_path / "c").write_bytes(content)
        settle(tmp_path / "c")
        del digest_calls[:]
        localize(bench, tmp_path / "c")  # exit 0, no traceback
        assert len(digest_calls) == 1
        assert ranking(tmp_path / "c") == built
        assert json.loads(record_path(tmp_path / "c").read_text())["digest"] == \
            cache_module.corpus_digest(bench)


    def test_hidden_directories_are_not_projects(self, bench, tmp_path, digest_calls,
                                                 load_calls):
        digest = cache_module.corpus_digest(bench)
        names = load_benchmark(bench).project_names
        train(bench, tmp_path / "c")
        localize(bench, tmp_path / "c")
        built, artifacts = ranking(tmp_path / "c"), artifact_stamps(tmp_path / "c")
        settle(tmp_path / "c")
        (bench / ".git").mkdir()
        (bench / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
        (bench / ".idea").mkdir()
        del digest_calls[:]
        localize(bench, tmp_path / "c")
        assert len(digest_calls) == 1  # the root's stamp moved
        assert len(load_calls) == 2  # train-global and the first localize
        assert ranking(tmp_path / "c") == built
        assert artifact_stamps(tmp_path / "c") == artifacts
        assert load_benchmark(bench).project_names == names
        assert cache_module.corpus_digest(bench) == digest
        run("evaluate", "--benchmark", bench, "--methods", "1", "--out", tmp_path / "out")

    def test_record_of_the_previous_layout_rehashes_once(self, bench, tmp_path, digest_calls,
                                                         load_calls, caplog):
        """A record holding one hash of every file's stats, without the
        listing's directories, is read as no record: one re-hash, to the same
        digest, so no artifact is rebuilt."""
        train(bench, tmp_path / "c")
        localize(bench, tmp_path / "c")
        built, artifacts = ranking(tmp_path / "c"), artifact_stamps(tmp_path / "c")
        recorded = json.loads(record_path(tmp_path / "c").read_text())
        record_path(tmp_path / "c").write_text(json.dumps(
            {"root": recorded["root"], "loader": recorded["loader"], "stats": "0" * 64,
             "digest": recorded["digest"]}))
        settle(tmp_path / "c")
        del digest_calls[:]
        with caplog.at_level(logging.WARNING):
            localize(bench, tmp_path / "c")
        assert len(digest_calls) == 1 and not caplog.records
        assert len(load_calls) == 2
        assert ranking(tmp_path / "c") == built
        assert artifact_stamps(tmp_path / "c") == artifacts
        settle(tmp_path / "c")
        localize(bench, tmp_path / "c")
        assert len(digest_calls) == 1


class TestHitsReadNoBenchmarkFile:
    @pytest.mark.parametrize("command", ["localize", "evaluate"])
    def test_hit_lists_nothing(self, bench, tmp_path, digest_calls, listings, command):
        def call():
            if command == "localize":
                localize(bench, tmp_path / "c")
            else:
                run("evaluate", "--benchmark", bench, "--methods", "1,2,3,4", "--cache",
                    tmp_path / "c", "--out", tmp_path / "out")

        train(bench, tmp_path / "c")
        call()
        assert "project_files" in listings  # the misses listed, and were seen doing so
        settle(tmp_path / "c")
        del digest_calls[:], listings[:]
        call()
        assert listings == [] and digest_calls == []
        assert json.loads(record_path(tmp_path / "c").read_text())["digest"] == \
            cache_module.corpus_digest(bench)

    def test_localize_hit(self, bench, tmp_path, opened):
        train(bench, tmp_path / "c")
        localize(bench, tmp_path / "c")
        assert under(opened, bench)  # the miss read the benchmark, and was seen doing so
        built = ranking(tmp_path / "c")
        settle(tmp_path / "c")
        del opened[:]
        localize(bench, tmp_path / "c")
        assert opened and not under(opened, bench)
        assert ranking(tmp_path / "c") == built

    @pytest.mark.parametrize("policy", ["earlier", "all"])
    def test_all_hit_evaluate(self, bench, tmp_path, opened, load_calls, policy):
        outputs = ("metrics.csv", "metrics.json", "per_query.csv", "wilcoxon.csv")

        def evaluate(i):
            run("evaluate", "--benchmark", bench, "--methods", "1,2,3,4", "--cache",
                tmp_path / "c", "--out", tmp_path / f"out{i}", "--history", policy)
            return [(tmp_path / f"out{i}" / name).read_bytes() for name in outputs]

        cold = evaluate("cold")
        settle(tmp_path / "c")
        del opened[:]
        assert evaluate("warm") == cold
        assert opened and not under(opened, bench)
        assert len(load_calls) == 1
        # without a cache every file is read, and the outputs are the same
        run("evaluate", "--benchmark", bench, "--methods", "1,3", "--out", tmp_path / "plain",
            "--history", policy)
        run("evaluate", "--benchmark", bench, "--methods", "1,3", "--cache", tmp_path / "c",
            "--out", tmp_path / "hit13", "--history", policy)
        assert len(load_calls) == 2
        for name in outputs:
            assert (tmp_path / "plain" / name).read_bytes() == \
                (tmp_path / "hit13" / name).read_bytes()

    def test_partial_hit_evaluate_loads_the_benchmark(self, bench, tmp_path, load_calls):
        outputs = ("metrics.csv", "metrics.json", "per_query.csv", "wilcoxon.csv")

        def evaluate(i):
            run("evaluate", "--benchmark", bench, "--methods", "1,2,3,4", "--cache",
                tmp_path / "c", "--out", tmp_path / f"out{i}")
            return [(tmp_path / f"out{i}" / name).read_bytes() for name in outputs]

        cold = evaluate(0)
        assert len(load_calls) == 1
        (tmp_path / "c" / "index_local_proj3.bin").unlink()
        assert evaluate(1) == cold
        assert len(load_calls) == 2
        assert (tmp_path / "c" / "index_local_proj3.bin").is_file()
        assert evaluate(2) == cold
        assert len(load_calls) == 2

    def test_evaluate_of_named_projects_hits_on_their_indexes(self, bench, tmp_path,
                                                              load_calls):
        outputs = ("metrics.csv", "metrics.json", "per_query.csv", "wilcoxon.csv")

        def evaluate(i):
            run("evaluate", "--benchmark", bench, "--methods", "1,3", "--projects", "proj1",
                "--cache", tmp_path / "c", "--out", tmp_path / f"out{i}")
            return [(tmp_path / f"out{i}" / name).read_bytes() for name in outputs]

        cold = evaluate(0)
        assert evaluate(1) == cold
        assert evaluate(2) == cold
        assert len(load_calls) == 1
        assert not (tmp_path / "c" / "index_local_proj2.bin").exists()

    @pytest.mark.parametrize("methods, with_file", [("1,3", True), ("1,3", False),
                                                    ("5", True), ("1,2,3,4,5,6,7", False)])
    def test_project_without_queries_hits_too(self, bench, tmp_path, load_calls,
                                              methods, with_file):
        (bench / "proj4" / "sources").mkdir(parents=True)
        (bench / "proj4" / "bugs").mkdir()
        if with_file:
            (bench / "proj4" / "sources" / "Lone.java").write_text("class Lone { int lone; }\n")
        flags = FAST if any(m in methods for m in "567") else []
        if methods != "1,3":  # the global models of proj1-3, and none of proj4
            for name in ("proj1", "proj2", "proj3"):
                run("train-global", "--benchmark", bench, "--cache", tmp_path / "c",
                    "--held-out", name, *flags)
        del load_calls[:]

        def evaluate(i):
            result = run("evaluate", "--benchmark", bench, "--methods", methods, "--cache",
                         tmp_path / "c", "--out", tmp_path / f"out{i}", *flags)
            assert "skipping proj4: no queries" in result.stderr
            return [(tmp_path / f"out{i}" / name).read_bytes() for name in OUTPUTS]

        cold = evaluate(0)
        assert evaluate(1) == cold
        assert evaluate(2) == cold
        assert len(load_calls) == 1
        # nothing ranks proj4, so it got no model of its own
        assert not [kind for kind in ("dm", "dbow")
                    if (tmp_path / "c" / f"{kind}_proj4.bin").exists()]

    @pytest.mark.parametrize("command", ["localize", "evaluate"])
    def test_doc_vector_hit_reads_no_model_and_infers_nothing(self, bench, tmp_path, opened,
                                                              load_calls, monkeypatch, command):
        inferred = []
        infer = embedding.infer_matrix
        monkeypatch.setattr(embedding, "infer_matrix",
                            lambda *args, **kwargs: inferred.append(1) or infer(*args, **kwargs))

        def call():
            if command == "localize":
                localize(bench, tmp_path / "c", *FAST, method=7)
                return ranking(tmp_path / "c", 7)
            run("evaluate", "--benchmark", bench, "--methods", "5,6,7", "--cache",
                tmp_path / "c", "--out", tmp_path / "out", *FAST)
            return [(tmp_path / "out" / name).read_bytes() for name in OUTPUTS]

        run("train-global", "--benchmark", bench, "--cache", tmp_path / "c", *FAST)
        del opened[:]
        cold = call()
        # the miss read the benchmark and the models and inferred, and was seen doing so
        assert inferred and under(opened, bench) and len(load_calls) == 2
        assert any(Path(p).name == "dm_proj1.bin" for p in opened if isinstance(p, (str, Path)))
        settle(tmp_path / "c")
        del opened[:], inferred[:]
        assert call() == cold
        assert inferred == [] and len(load_calls) == 2
        assert opened and not under(opened, bench)
        assert not [p for p in opened if isinstance(p, (str, os.PathLike))
                    and Path(p).name.startswith(("dm_", "dbow_", "tokens"))]

    def test_all_hit_artifacts_equal_the_cold_ones(self, bench, tmp_path):
        """The arrays of an all-hit call are those the cold call built from
        the loaded project, and a report's fixed files are its span of the
        fixed-file arrays."""
        benchmark = load_benchmark(bench, strict=False)
        preprocess_benchmark(benchmark, PreprocessConfig())
        scopes = ("local", "global", "docvec")
        cold = ArtifactCache(tmp_path / "c", benchmark, PreprocessConfig(), EMBED, 2).artifacts(
            "proj1", set(scopes), lambda: benchmark)
        hit = indexed(ArtifactCache(tmp_path / "c", bench, PreprocessConfig(), EMBED, 2), *scopes)
        assert (hit.name, hit.file_ids, hit.report_ids) == \
            (cold.name, cold.file_ids, cold.report_ids)

        def arrays(artifacts):
            found = [*artifacts.fixed, artifacts.fixed_counts, *artifacts.doc_vectors]
            for scope in ("local", "global"):
                data = artifacts.scopes[scope]
                files = data.files
                found += [files.rows, files.weights, files.offsets, files.norms,
                          data.length_weights, *data.queries, data.report_sims]
            return found

        assert len(arrays(hit)) == len(arrays(cold)) == 27
        for got, want in zip(arrays(hit), arrays(cold)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        offsets, columns = hit.fixed
        assert [(rid, {hit.file_ids[c] for c in columns[a:b]})
                for rid, a, b in zip(hit.report_ids, offsets, offsets[1:])] == \
            [(r.id, r.fixed_files) for r in benchmark.project("proj1").bug_reports]

    @pytest.mark.parametrize("kind", KINDS)
    def test_index_of_older_layout_rebuilds_quietly(self, bench, tmp_path, caplog,
                                                    monkeypatch, kind):
        """An artifact written in an older layout, as by an earlier version,
        is stale: rebuilt once without a warning, then hit."""
        layout = cache_module._KINDS[kind][0]
        current = layout.header
        monkeypatch.setattr(layout, "header", current.split()[0] + b" v0\n")
        seal(bench, tmp_path / "c", tmp_path / "old")
        artifact = tmp_path / "c" / KINDS[kind]
        assert not artifact.read_bytes().startswith(current)
        monkeypatch.undo()
        with caplog.at_level(logging.INFO):
            reads(kind, bench, tmp_path / "c", tmp_path / "new")
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert artifact.read_bytes().startswith(current)
        stamp = artifact.stat().st_ino  # a rewrite moves a new file into place
        reads(kind, bench, tmp_path / "c", tmp_path / "hit")
        assert artifact.stat().st_ino == stamp
        if kind.startswith("index"):
            for name in OUTPUTS:
                assert (tmp_path / "hit" / name).read_bytes() == \
                    (tmp_path / "old" / name).read_bytes()


# sha256 of what `train-global --no-embeddings` writes for the default
# synthetic benchmark. A change to pipeline output must update these together
# with a bump of preprocess.PIPELINE_VERSION (or of the artifact's layout).
GOLDEN = {
    "tokens.bin": "7731e3b3816caa4966aa31b341eeb044b55fd9879370624bc257e0c7f8ec4ae6",
    "idf.bin": "2fb42db892d013d0459302169abde39c4eaa24ff200b028a0f35577aeb5252cf",
}


def test_train_global_artifacts_match_golden_digests(synth_benchmark, tmp_path):
    root, _, _ = synth_benchmark
    train(root, tmp_path / "c")
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "c").glob("*.bin")}
    assert written == GOLDEN
    assert preprocess.PIPELINE_VERSION == 1


# sha256 of the ranking indexes and metrics that `evaluate --methods 1,2,3,4`
# writes for the default synthetic benchmark on a cache trained as above.
# Every float is added in a fixed order, without sum(), so these hold on every
# Python version.
GOLDEN_EVALUATE = {
    "c/index_local_proj1.bin": "4b7834121a158e2126d9baae09283cf369716b23995d87264bac96c8cfd3c741",
    "c/index_global_proj1.bin": "f497eca0e4386bbb32d501e4cfb418ad9421752eaae4481b95d17af4375fb361",
    "out/metrics.csv": "3e9f404e3f6ed7b313e46fc1f176ef5b927f45f1e775c9d6a1cbc81eb2a3fc18",
    "out/per_query.csv": "42a5494c9be21ee50e0c77ac91c3dde528d2bea9a0d49220240703e21daf04cf",
}


def test_evaluate_outputs_match_golden_digests(synth_benchmark, tmp_path):
    root, _, _ = synth_benchmark
    train(root, tmp_path / "c")
    run("evaluate", "--benchmark", root, "--methods", "1,2,3,4", "--cache", tmp_path / "c",
        "--out", tmp_path / "out")
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_EVALUATE} == GOLDEN_EVALUATE


# sha256 of what `evaluate --methods 1,2,3,4 --history all` writes for the
# default synthetic benchmark on a cache trained as above. On this benchmark
# the policy moves no printed value: they equal the default policy's digests.
GOLDEN_EVALUATE_ALL = {
    "out/metrics.csv": "3e9f404e3f6ed7b313e46fc1f176ef5b927f45f1e775c9d6a1cbc81eb2a3fc18",
    "out/per_query.csv": "42a5494c9be21ee50e0c77ac91c3dde528d2bea9a0d49220240703e21daf04cf",
}


def test_evaluate_all_history_outputs_match_golden_digests(synth_benchmark, tmp_path):
    root, _, _ = synth_benchmark
    train(root, tmp_path / "c")
    run("evaluate", "--benchmark", root, "--methods", "1,2,3,4", "--cache", tmp_path / "c",
        "--out", tmp_path / "out", "--history", "all")
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_EVALUATE_ALL} == GOLDEN_EVALUATE_ALL


# sha256 of what `evaluate --methods 5,6,7` writes for the default synthetic
# benchmark with the FAST settings, before doc-vector indexes existed: a hit on
# the index must rank as the inference it replaces did.
GOLDEN_DOCVEC = {
    "metrics.csv": "f7ad15ae54702ad1fd25f644324d7986211c42ef7154c43a7171d8c0fd9e6fca",
    "per_query.csv": "e92a28fd006aca5cb081a509c38ed36e2f12e8777f725a7340d19079a0006ad0",
}


def test_doc_vector_outputs_match_golden_digests(synth_benchmark, tmp_path):
    root, _, _ = synth_benchmark
    for out in ("cold", "warm"):  # the second call ranks from the doc-vector indexes
        run("evaluate", "--benchmark", root, "--methods", "5,6,7", "--cache", tmp_path / "c",
            "--out", tmp_path / out, *FAST)
        assert {name: hashlib.sha256((tmp_path / out / name).read_bytes()).hexdigest()
                for name in GOLDEN_DOCVEC} == GOLDEN_DOCVEC


# sha256 of what `evaluate --methods 5,6,7 --history all` writes with the
# FAST settings, whose doc-vector histories are not runs of consecutive rows,
# and of the `localize --method 7` ranking of the fifth report of proj1 under
# each history policy, a batch of one, on the cache that evaluate trained.
GOLDEN_DOCVEC_ALL = {
    "metrics.csv": "de99ab33faac8464db623c75f72fb791306c9d0b25e66fa7057a103f1956aa30",
    "per_query.csv": "8167dd4403bbe859e8891a9c01c5ec68487887b135697d2bb5c4acb8ed6c89d9",
}
GOLDEN_LOCALIZE_DOCVEC = {
    "earlier": "a143a4bce183bf149aa050044ee824c0b0c2b62619f002f8ed730c5fc6462024",
    "all": "44e82637c057d9e628758be38e05699e25814d5f44448319de1289eb5ac25dc5",
}


def test_doc_vector_all_history_and_localize_match_golden_digests(synth_benchmark,
                                                                  tmp_path):
    root, _, _ = synth_benchmark
    run("evaluate", "--benchmark", root, "--methods", "5,6,7", "--cache", tmp_path / "c",
        "--out", tmp_path / "out", "--history", "all", *FAST)
    assert {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in GOLDEN_DOCVEC_ALL} == GOLDEN_DOCVEC_ALL
    written = {}
    for policy in GOLDEN_LOCALIZE_DOCVEC:
        run("localize", "--benchmark", root, "--project", "proj1", "--bug", "BUG-proj1-005",
            "--method", 7, "--cache", tmp_path / "c", "--out", tmp_path / policy,
            "--history", policy, *FAST)
        written[policy] = hashlib.sha256(
            (tmp_path / policy / "ranking_proj1_m7_BUG-proj1-005.csv").read_bytes()).hexdigest()
    assert written == GOLDEN_LOCALIZE_DOCVEC


# sha256 of the doc-vector index of proj1 that `evaluate --methods 5,6,7`
# writes with the FAST settings
GOLDEN_INDEX_DOCVEC = "99ba771e53f3e520f3deacaa158e04c9884002521766857ca3e3ab3e0372838e"


def test_doc_vector_index_matches_golden_digest(synth_benchmark, tmp_path):
    root, _, _ = synth_benchmark
    run("evaluate", "--benchmark", root, "--methods", "5,6,7", "--projects", "proj1",
        "--cache", tmp_path / "c", "--out", tmp_path / "out", *FAST)
    assert hashlib.sha256((tmp_path / "c" / "index_docvec_proj1.bin").read_bytes()
                          ).hexdigest() == GOLDEN_INDEX_DOCVEC


# sha256 of the `localize` ranking of the fifth report of proj1 by each
# TF.IDF method, on a cache trained as for GOLDEN: the miss that builds the
# ranking index and the hit on it write the same bytes
GOLDEN_LOCALIZE_TFIDF = {
    1: "ddf8f833c2a4013ef315df9c25107f87699b27f958663f9cbdf66e9411af13d2",
    2: "dad9c4f439670536fd8b04f821a827fa9d38802493099fc574e170ef90f63bee",
    3: "cd4f212b8a93fc9cfd9ba6e82d1cda5cd3009548714cac882221ac5b9672bfbf",
    4: "d8885ab28813f82a409fc6ee41f17604cab66c7bb55994fe990095506e89f098",
}


def test_localize_on_an_index_hit_matches_golden_digests(synth_benchmark, tmp_path):
    root, _, _ = synth_benchmark
    train(root, tmp_path / "c")
    written = {}
    for method in GOLDEN_LOCALIZE_TFIDF:
        digests = set()
        for _ in ("miss", "hit"):
            run("localize", "--benchmark", root, "--project", "proj1", "--bug", "BUG-proj1-005",
                "--method", method, "--cache", tmp_path / "c", "--out", tmp_path / "out")
            digests.add(hashlib.sha256((tmp_path / "out" / f"ranking_proj1_m{method}_BUG-proj1-005"
                                                           ".csv").read_bytes()).hexdigest())
        (written[method],) = digests
    assert written == GOLDEN_LOCALIZE_TFIDF


# sha256 of the raw bytes of `final`, `direct`, `indirect` and `entries`, in
# that order, of the `rank.localize` batch of every report of proj1, per
# TF.IDF method with history and per history: the printed CSV goldens round
# their floats and cannot see a change in the last bit
GOLDEN_RAW = {
    (3, "earlier"): "4ea9c5cbb8c06481f230df2164f51404cf287e9b85fd521acb4f9374a852bf31",
    (3, "all"): "bf72c2e029c1aa6babb19e2c3a1692c6446c981f36c17d0a00965b6ce4b91ad8",
    (3, "custom"): "e05a37832cfda8edc4ee99bf4a422af1c5644151828b9c4dc35606c498f60bbe",
    (4, "earlier"): "1edc197c34ac35686ce30cd0fe890cf08ae20b09c43ccd4a13141ffa0e3cb19a",
    (4, "all"): "ee716da4d8ab98570e213db5cb8b5a8343ce2a1812d9ce59b5adb3f21d398ef1",
    (4, "custom"): "67245ef79984caea284a465cb91592561b1c28549ebb295fa19c74a028e24f54",
}


def custom_histories(n):
    """Per query row of ``n`` reports, a history of the query's own row,
    every other later row and every third earlier row, in that order."""
    return [np.concatenate(([row], np.arange(row + 1, n, 2), np.arange(0, row, 3)))
            for row in range(n)]


def test_raw_batch_scores_match_golden_digests(synth_benchmark, tmp_path):
    root, benchmark, _ = synth_benchmark
    scopes = {"local", "global"}
    cold = ArtifactCache(tmp_path / "c", benchmark, PreprocessConfig()).artifacts(
        "proj1", scopes, lambda: benchmark)
    hit = indexed(ArtifactCache(tmp_path / "c", root, PreprocessConfig()), *scopes)
    for artifacts in (cold, hit):
        n = len(artifacts.report_ids)
        histories = {"earlier": rank.project_histories(artifacts, "earlier"),
                     "all": rank.project_histories(artifacts, "all"),
                     "custom": custom_histories(n)}
        written = {}
        for method, policy in GOLDEN_RAW:
            ranked = rank.localize(artifacts, np.arange(n), rank.MethodConfig.from_id(method),
                                   histories[policy])
            digest = hashlib.sha256()
            for array in (ranked.final, ranked.direct, ranked.indirect, ranked.entries):
                digest.update(np.ascontiguousarray(array).tobytes())
            written[method, policy] = digest.hexdigest()
        assert written == GOLDEN_RAW


# sha256 of what `localize --method 3` (the fifth report of proj1) and
# `evaluate --methods 1,3` write without a cache
GOLDEN_UNCACHED = {
    "ranking_proj1_m3_BUG-proj1-005.csv":
        "cd4f212b8a93fc9cfd9ba6e82d1cda5cd3009548714cac882221ac5b9672bfbf",
    "metrics.csv": "5975dcf6792c4853c1252313e20ef695d7fec22278e27a89159245388bad18ce",
    "per_query.csv": "6191392ef2781f324d193ba0515654ed43cc3e0268a0ef7841bb0bed338728c2",
}


def test_calls_without_a_cache_match_golden_digests(synth_benchmark, tmp_path):
    root, _, _ = synth_benchmark
    run("localize", "--benchmark", root, "--project", "proj1", "--bug", "BUG-proj1-005",
        "--method", 3, "--out", tmp_path)
    run("evaluate", "--benchmark", root, "--methods", "1,3", "--out", tmp_path)
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_UNCACHED} == GOLDEN_UNCACHED


@pytest.mark.parametrize("policy", ["earlier", "all"])
def test_a_method_scores_the_same_alone_as_alongside_others(synth_benchmark, tmp_path,
                                                            policy):
    root, _, _ = synth_benchmark
    run("train-global", "--benchmark", root, "--cache", tmp_path / "c", *FAST)

    def method_rows(methods, method):
        """Each output's rows of ``method``, from an evaluate of ``methods``."""
        out = tmp_path / f"{methods}-{policy}"
        run("evaluate", "--benchmark", root, "--methods", methods, "--cache", tmp_path / "c",
            "--out", out, "--history", policy, *FAST)
        return {name: [line for line in (out / name).read_text().splitlines()[1:]
                       if line.split(",")[1] == str(method)]
                for name in ("metrics.csv", "per_query.csv")}

    for method, alone, alongside in ((7, "7", ("5,6,7", "1,2,3,4,5,6,7")),
                                     (3, "3", ("1,2,3,4",))):
        want = method_rows(alone, method)
        assert all(want.values())
        for methods in alongside:
            assert method_rows(methods, method) == want


def test_evaluate_frees_the_scores_no_later_method_ranks_with(synth_benchmark, tmp_path,
                                                              monkeypatch):
    root, _, _ = synth_benchmark
    refs, alive = [], []
    localize = rank.localize

    def recording(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        ranked = localize(*args, **kwargs)
        refs.extend((weakref.ref(ranked.direct), weakref.ref(ranked.indirect)))
        return ranked

    monkeypatch.setattr(rank, "localize", recording)
    gc.disable()
    try:
        run("evaluate", "--benchmark", root, "--methods", "1,3,4", "--projects", "proj1",
            "--cache", tmp_path / "c", "--out", tmp_path / "out")
    finally:
        gc.enable()
    # method 3 ranks with method 1's direct scores, method 4 with neither's
    assert alive == [[], [True, False], [False] * 4]


class TestDocVectorIndex:
    @staticmethod
    def fast(**changes):
        """FAST with some values changed, by flag name without dashes."""
        values = dict(zip(FAST[::2], FAST[1::2]))
        values.update({f"--{key.replace('_', '-')}": str(v) for key, v in changes.items()})
        return [arg for item in values.items() for arg in item]

    def test_hit_logs_one_line_and_a_miss_logs_what_it_built(self, bench, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="bugloc.cache"):
            localize(bench, tmp_path / "c", *FAST, method=5)
        built = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("built doc-vector index")]
        assert len(built) == 1
        assert re.fullmatch(r"built doc-vector index of proj1: 12 files, 13 reports, "
                            r"[0-9.]+ s inferring", built[0]), built
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="bugloc.cache"):
            localize(bench, tmp_path / "c", *FAST, method=5)
        assert [r.getMessage() for r in caplog.records] == ["doc-vector index of proj1 hit"]
        assert "doc-vector" not in ranking(tmp_path / "c", 5).decode()

    def test_tfidf_call_never_opens_a_doc_vector_index(self, bench, tmp_path, opened,
                                                       monkeypatch):
        stats = []
        stat = os.stat
        monkeypatch.setattr(os, "stat", lambda path, *args, **kwargs:
                            stats.append(path) or stat(path, *args, **kwargs))
        localize(bench, tmp_path / "c", *FAST, method=6)
        del opened[:], stats[:]
        for method in (1, 2, 3, 4):
            localize(bench, tmp_path / "c", *FAST, method=method)
        touched = [os.fspath(p) for p in [*opened, *stats] if isinstance(p, (str, os.PathLike))]
        assert touched and not [p for p in touched if "docvec" in p]

    @pytest.mark.parametrize("change", [{"infer_epochs": 3}, {"seed": 4}, {"vector_size": 6}])
    def test_inference_settings_change_misses(self, bench, tmp_path, change):
        index = tmp_path / "c" / "index_docvec_proj1.bin"
        localize(bench, tmp_path / "c", *FAST, method=5)
        stamp, data = artifact_stamps(tmp_path / "c")["index_docvec_proj1.bin"], index.read_bytes()
        localize(bench, tmp_path / "c", *FAST, method=5)
        assert artifact_stamps(tmp_path / "c")["index_docvec_proj1.bin"] == stamp
        localize(bench, tmp_path / "c", *self.fast(**change), method=5)
        assert artifact_stamps(tmp_path / "c")["index_docvec_proj1.bin"] != stamp
        assert index.read_bytes() != data
        vectors = cache_module._decode_docvec(index.read_bytes(),
                                              2 * change.get("vector_size", 8)).arrays
        assert vectors.files.shape[0] == 12 and vectors.reports.shape[0] == 13

    def test_unset_infer_epochs_means_the_training_epochs(self, bench, tmp_path):
        localize(bench, tmp_path / "c", *FAST, method=5)  # --epochs 2 --infer-epochs 2
        stamp = artifact_stamps(tmp_path / "c")["index_docvec_proj1.bin"]
        built = ranking(tmp_path / "c", 5)
        unset = FAST[:FAST.index("--infer-epochs")]
        localize(bench, tmp_path / "c", *unset, method=5)
        assert artifact_stamps(tmp_path / "c")["index_docvec_proj1.bin"] == stamp
        assert ranking(tmp_path / "c", 5) == built

    @pytest.mark.parametrize("how", ["truncate", "flip", "wrong_shape"])
    def test_damaged_index_rebuilt_with_one_warning(self, bench, tmp_path, caplog, how):
        localize(bench, tmp_path / "c", *FAST, method=7)
        built = ranking(tmp_path / "c", 7)
        artifact = tmp_path / "c" / "index_docvec_proj1.bin"
        if how == "wrong_shape":  # resealed vectors one value short per row
            cache = ArtifactCache(tmp_path / "c", bench, PreprocessConfig(),
                                  EmbeddingConfig(vector_size=8, epochs=2, min_count=1), 2)
            artifacts = indexed(cache, "docvec")
            vectors = artifacts.doc_vectors
            short = rank.DocVectors(vectors.files[:, 1:], vectors.file_norms,
                                    vectors.reports[:, 1:], vectors.report_norms)
            artifact.write_bytes(b"".join(cache_module._encode_docvec(
                short, artifacts.file_ids, artifacts.report_ids, *artifacts.fixed)))
            reseal(artifact)
        else:
            damage(artifact, how)
        with caplog.at_level(logging.WARNING):
            localize(bench, tmp_path / "c", *FAST, method=7)
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1 and "index_docvec_proj1.bin" in warnings[0], warnings
        assert "rebuilding" in warnings[0]
        assert ranking(tmp_path / "c", 7) == built
        stamp = artifact_stamps(tmp_path / "c")
        localize(bench, tmp_path / "c", *FAST, method=7)  # the rebuilt index hits
        assert artifact_stamps(tmp_path / "c") == stamp

    def test_cache_without_doc_vector_indexes_gains_them_quietly(self, bench, tmp_path,
                                                                 caplog):
        """A cache of a version before doc-vector indexes holds every other
        artifact of a doc-vector ``evaluate``: the next call adds the
        indexes and rewrites nothing else."""
        def evaluate(out):
            run("evaluate", "--benchmark", bench, "--methods", "5,6,7", "--cache",
                tmp_path / "c", "--out", tmp_path / out, *FAST)
            return [(tmp_path / out / name).read_bytes() for name in OUTPUTS]

        cold = evaluate("cold")
        for path in (tmp_path / "c").glob("index_docvec_*"):
            path.unlink()
        before = artifact_stamps(tmp_path / "c")
        assert "index_global_proj1.bin" in before and "dm_proj2.bin" in before
        with caplog.at_level(logging.INFO):
            assert evaluate("upgraded") == cold
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        after = artifact_stamps(tmp_path / "c")
        assert {name: after[name] for name in before} == before
        assert sorted(set(after) - set(before)) == [
            f"index_docvec_{p}.bin" for p in ("proj1", "proj2", "proj3")]
        assert evaluate("hit") == cold
        assert artifact_stamps(tmp_path / "c") == after


def test_global_df_counted_once_per_cache(synth_benchmark, tmp_path, monkeypatch):
    """A cold cache builds the whole model once for every held-out project;
    a warm one reads it once and builds nothing."""
    _, benchmark, _ = synth_benchmark
    built, read = [], []
    build, load = tfidf.build_vocabulary, tfidf.load_vocabulary
    monkeypatch.setattr(tfidf, "build_vocabulary", lambda docs: built.append(1) or build(docs))
    monkeypatch.setattr(tfidf, "load_vocabulary", lambda data: read.append(1) or load(data))
    names = benchmark.project_names
    ArtifactCache(tmp_path / "c", benchmark, PreprocessConfig()).train_all(names, False)
    assert (len(built), len(read)) == (1, 0)
    ArtifactCache(tmp_path / "c", benchmark, PreprocessConfig()).train_all(names, False)
    assert (len(built), len(read)) == (1, 1)
    assert sorted(path.name for path in (tmp_path / "c").glob("idf*")) == [
        "idf.bin", "idf.bin.meta.json"]


def test_warm_hold_out_equals_a_count_over_the_other_projects(bench, tmp_path):
    """Every project's model, derived on a warm cache from the stored one,
    equals build_global_idf's, also for the terms only that project has."""
    for name, word in (("proj1", "Wombat"), ("proj2", "Quokka"), ("proj3", "Numbat")):
        source = sorted((bench / name / "sources").rglob("*.java"))[0]
        source.write_text(source.read_text() + f"\nclass {word} {{}}\n")
    benchmark = load_benchmark(bench)
    preprocess_benchmark(benchmark)
    names = benchmark.project_names
    ArtifactCache(tmp_path / "c", benchmark, PreprocessConfig()).train_all(names, False)
    stored = (tmp_path / "c" / "idf.bin").stat().st_ino
    warm = ArtifactCache(tmp_path / "c", benchmark, PreprocessConfig())
    for name in names:
        own = set(tfidf.build_vocabulary(tfidf.source_streams([benchmark.project(name)])).term_ids)
        others = tfidf.build_vocabulary(tfidf.source_streams(
            p for p in benchmark.projects if p.name != name)).term_ids
        only = own - set(others)
        assert only  # at least the class name added above
        got, want = warm.global_vocabulary(name), tfidf.build_global_idf(benchmark, name)
        assert ((got.term_ids, got.doc_freq, got.total_documents)
                == (want.term_ids, want.doc_freq, want.total_documents))
        assert {got.doc_freq[got.term_ids[term]] for term in only} == {1}
    assert (tmp_path / "c" / "idf.bin").stat().st_ino == stored  # read, not rebuilt


@pytest.mark.parametrize("edited, added", [
    ("proj1", ("added",)),  # holding it out would raise: "zzshared" counts too many files
    ("proj2", ("added", "zzshared")),  # raises nowhere, but counts one file less
    ("proj1", None),  # the same files, none with "zzshared" any more: raises
], ids=["proj1 gains a file", "proj2 gains a file", "proj1 drops a term"])
def test_stored_idf_of_the_bytes_before_an_edit_is_counted_again(bench, tmp_path, edited, added,
                                                                 caplog):
    """An edit made while a call runs leaves the call with the digest of the
    bytes before it, under which idf.bin may hold the model of those bytes,
    and with the benchmark loaded after it. A stored model of another file
    count, or one a project cannot be held out of, is counted again from the
    loaded benchmark, once, so every derived model equals build_global_idf's
    of what was loaded."""
    caplog.set_level(logging.INFO, logger="bugloc.cache")

    def loaded():  # every source file holds "zzshared"
        benchmark = load_benchmark(bench)
        preprocess_benchmark(benchmark)
        for src in (src for project in benchmark.projects for src in project.source_files):
            src.token_stream = preprocess.TokenStream(src.token_stream.tokens + ("zzshared",),
                                                      src.token_stream.origin)
        return benchmark

    before = loaded()
    names = before.project_names
    ArtifactCache(tmp_path / "c", before, PreprocessConfig()).train_all(names, False)
    stored = (tmp_path / "c" / "idf.bin").stat().st_ino
    after = loaded()
    files = after.project(edited).source_files
    if added:
        files.append(corpus.SourceFile(id="Added.java", path="Added.java", raw_text="x"))
        files[-1].token_stream = preprocess.TokenStream(added, files[0].token_stream.origin)
    else:
        for src in files:
            src.token_stream = preprocess.TokenStream(src.token_stream.tokens[:-1],
                                                      src.token_stream.origin)
    cache = ArtifactCache(tmp_path / "c", before, PreprocessConfig())  # the digest before
    cache.benchmark = after
    for name in names:
        got, want = cache.global_vocabulary(name), tfidf.build_global_idf(after, name)
        assert ((got.term_ids, got.doc_freq, got.total_documents)
                == (want.term_ids, want.doc_freq, want.total_documents))
    assert (tmp_path / "c" / "idf.bin").stat().st_ino != stored
    assert caplog.text.count("building global IDF model") == 2  # the first call's and one more


def generated_corpus(seed, root, workload="docvec"):
    """perfbench's corpus of that workload and seed, written under ``root``,
    and the docvec workload's embedding flags."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import corpus_gen
        import workloads
    finally:
        sys.path.pop(0)
    corpus_gen.write_tree(corpus_gen.generate(workloads.SPECS[workload].corpus, seed), root)
    return root, workloads.Docvec.embedding_flags


@pytest.fixture
def starts(monkeypatch):
    """Records every process start, and starts it."""
    started = []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda process: started.append(process) or start(process))
    return started


class TestParallelTraining:
    """``train-global`` trains the models it misses on one worker per CPU:
    the caller and forked children, with the bytes, errors and logs of one
    process training them in order."""

    @staticmethod
    def workers(monkeypatch, n):
        monkeypatch.setattr(pool, "cpu_count", lambda: n)

    @staticmethod
    def train_global(bench, cache, *extra):
        return CliRunner().invoke(main, [str(a) for a in ("train-global", "--benchmark", bench,
                                                          "--cache", cache, *extra)])

    @staticmethod
    def models(cache):
        """The bytes of every model artifact and its sidecar, by name."""
        return {path.name: path.read_bytes() for path in sorted(cache.iterdir())
                if path.name.startswith(("dm_", "dbow_"))}

    @staticmethod
    def assert_clean(cache):
        assert multiprocessing.active_children() == []
        assert not [path.name for path in cache.iterdir() if ".tmp" in path.name]

    def same_models(self, bench, tmp_path, monkeypatch, starts, *flags):
        trained = {}
        for n in (1, 2):
            self.workers(monkeypatch, n)
            del starts[:]
            result = self.train_global(bench, tmp_path / f"c{n}", *flags)
            assert result.exit_code == 0, result.output
            assert len(starts) == n - 1
            trained[n] = self.models(tmp_path / f"c{n}")
        self.assert_clean(tmp_path / "c2")
        assert trained[1] == trained[2]
        return trained[1]

    def test_synth_benchmark_models_are_the_same_on_two_workers(self, synth_benchmark, tmp_path,
                                                               monkeypatch, starts):
        models = self.same_models(synth_benchmark[0], tmp_path, monkeypatch, starts, *FAST)
        assert len(models) == 12  # 3 projects x 2 modes, each with its sidecar

    @pytest.mark.parametrize("seed", [5, 11])
    def test_docvec_corpus_models_are_the_same_on_two_workers(self, tmp_path, monkeypatch,
                                                              starts, seed):
        bench, flags = generated_corpus(seed, tmp_path / "bench")
        # four models on two workers: each process trains several; one epoch
        # keeps the test short
        models = self.same_models(bench, tmp_path, monkeypatch, starts, "--held-out", "proj1",
                                  "--held-out", "proj2", *flags, "--epochs", "1")
        assert len(models) == 8

    def failing(self, monkeypatch, fails, marker):
        """Make ``embedding.train`` raise for the modes in ``fails``; forked
        workers inherit it. A DBOW job creates ``marker`` as it begins and,
        when it trains, waits first; a failing DM job with a child running
        waits for that marker, so that it fails while the child trains. Each
        failure records how many children were running."""
        running = []
        train = embedding.train

        def patched(docs, config, mode, **kwargs):
            if mode == PV_DBOW:
                marker.touch()
            if mode in fails:
                if mode == PV_DM and multiprocessing.active_children():
                    for _ in range(1000):
                        if marker.exists():
                            break
                        time.sleep(0.01)
                running.append(len(multiprocessing.active_children()))
                raise embedding.TrainingError(f"{mode} diverged")
            if mode == PV_DBOW:
                time.sleep(0.3)
            return train(docs, config, mode, **kwargs)

        monkeypatch.setattr(embedding, "train", patched)
        return running

    @pytest.mark.parametrize("fails, where", [({PV_DBOW}, "child"), ({PV_DM}, "caller"),
                                              ({PV_DM, PV_DBOW}, "both")])
    def test_first_failing_job_raises_its_error(self, synth_benchmark, tmp_path, monkeypatch,
                                                starts, fails, where):
        errors = {}
        for n in (1, 2):
            self.workers(monkeypatch, n)
            running = self.failing(monkeypatch, fails, tmp_path / f"started{n}")
            del starts[:]
            result = self.train_global(synth_benchmark[0], tmp_path / f"c{n}", "--held-out",
                                       "proj1", *FAST)
            assert result.exit_code == 1, result.output
            lines = result.stderr.splitlines()
            assert len(lines) == 1, lines
            errors[n] = json.loads(lines[0])["error"]
            assert len(starts) == n - 1
            self.assert_clean(tmp_path / f"c{n}")
        # job 0, the DM model, runs in the caller, job 1 in the child
        assert errors[1] == errors[2] == f"{PV_DM if PV_DM in fails else PV_DBOW} diverged"
        if where == "caller":  # it failed while the child trained, which then finished
            assert running == [1]
            assert len(self.models(tmp_path / "c2")) == 2  # the DBOW model and its sidecar

    def test_child_that_dies_fails_its_job(self, synth_benchmark, tmp_path, monkeypatch):
        self.workers(monkeypatch, 2)
        train, caller = embedding.train, os.getpid()

        def patched(docs, config, mode, **kwargs):
            if mode == PV_DBOW and os.getpid() != caller:  # dies before it reports
                os._exit(3)
            return train(docs, config, mode, **kwargs)

        monkeypatch.setattr(embedding, "train", patched)
        result = self.train_global(synth_benchmark[0], tmp_path / "c", "--held-out", "proj1",
                                   *FAST)
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [json.dumps({"error": (
            "the process training the pv_dbow model, held-out project proj1, exited "
            "without reporting")})]
        self.assert_clean(tmp_path / "c")

    def test_interrupt_terminates_children_and_removes_their_files(self, synth_benchmark,
                                                                  tmp_path, monkeypatch):
        self.workers(monkeypatch, 2)
        cache = ArtifactCache(tmp_path / "c", synth_benchmark[1], PreprocessConfig(), EMBED)
        train = embedding.train

        def patched(docs, config, mode, **kwargs):
            if mode == PV_DBOW:  # in the child: a write under way, then a long wait
                (tmp_path / "c" / f"dbow_proj1.bin.tmp{os.getpid()}").write_bytes(b"partial")
                time.sleep(60)
            for _ in range(500):  # in the caller, once the child is writing
                if list((tmp_path / "c").glob("*.tmp*")):
                    raise KeyboardInterrupt
                time.sleep(0.01)
            return train(docs, config, mode, **kwargs)

        monkeypatch.setattr(embedding, "train", patched)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            cache.train_all(["proj1"])
        assert time.perf_counter() - start < 30
        self.assert_clean(tmp_path / "c")
        assert self.models(tmp_path / "c") == {}

    @pytest.mark.parametrize("error", [
        UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),  # several arguments
        KeyError("pv_dbow"),  # str() quotes the argument
        embedding.TrainingError("diverged")])
    def test_child_raises_the_error_in_process_training_raises(self, synth_benchmark,
                                                               tmp_path, monkeypatch, error):
        raised, train = {}, embedding.train

        def patched(docs, config, mode, **kwargs):
            if mode == PV_DBOW:  # job 1: in the child on two workers
                raise error
            return train(docs, config, mode, **kwargs)

        monkeypatch.setattr(embedding, "train", patched)
        for n in (1, 2):
            self.workers(monkeypatch, n)
            cache = ArtifactCache(tmp_path / f"c{n}", synth_benchmark[1], PreprocessConfig(),
                                  EMBED)
            with pytest.raises(type(error)) as info:
                cache.train_all(["proj1"])
            raised[n] = info.value
            self.assert_clean(tmp_path / f"c{n}")
        assert type(raised[2]) is type(error)
        assert raised[2].args == raised[1].args == error.args
        assert str(raised[2]) == str(error)

    def test_child_error_that_does_not_pickle_names_its_type(self, synth_benchmark, tmp_path,
                                                              monkeypatch):
        class Local(ValueError):  # a local class: pickle cannot find it by name
            pass

        self.workers(monkeypatch, 2)
        train = embedding.train

        def patched(docs, config, mode, **kwargs):
            if mode == PV_DBOW:
                raise Local("no way back")
            return train(docs, config, mode, **kwargs)

        monkeypatch.setattr(embedding, "train", patched)
        result = self.train_global(synth_benchmark[0], tmp_path / "c", "--held-out", "proj1",
                                   *FAST)
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [json.dumps({"error": "Local: no way back"})]
        self.assert_clean(tmp_path / "c")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc, and "
                        "only Linux signals an orphaned child")
    @pytest.mark.parametrize("signalled", [True, False])
    def test_children_exit_when_the_caller_is_killed(self, synth_benchmark, tmp_path,
                                                     signalled):
        """The caller dies by SIGKILL while its child trains. Signalled, the
        child exits at once, removes the file it was writing and stores no
        model; with no signal (``prctl`` missing), it stores the model it
        was training and takes no other job."""
        child_pid, cache = tmp_path / "child.pid", tmp_path / "c"
        code = (
            "import os, sys, time\n"
            "from pathlib import Path\n"
            "from bugloc import embedding, pool\n"
            "from bugloc.cli import main\n"
            "pool.cpu_count = lambda: 2\n"
            "if sys.argv[4] == 'False':\n"
            "    pool._signal_when_orphaned = lambda signum: None\n"
            "caller, train = os.getpid(), embedding.train\n"
            "def patched(docs, config, mode, **kwargs):\n"
            "    if os.getpid() == caller:\n"
            "        time.sleep(60)\n"
            "    model = train(docs, config, mode, **kwargs)\n"
            "    if sys.argv[4] == 'False':\n"
            "        Path(sys.argv[1]).write_text(str(os.getpid()))\n"
            "        for _ in range(3000):\n"
            "            if os.getppid() != caller:\n"
            "                break\n"
            "            time.sleep(0.01)\n"
            "        return model\n"
            "    def chunks():\n"
            "        yield b'partial'\n"
            "        Path(sys.argv[1]).write_text(str(os.getpid()))\n"
            "        time.sleep(60)\n"
            "    embedding.save_model = lambda model: chunks()\n"
            "    return model\n"
            "embedding.train = patched\n"
            "main(['train-global', '--benchmark', sys.argv[2], '--cache', sys.argv[3],\n"
            "      '--held-out', 'proj1', '--held-out', 'proj2', *sys.argv[5:]])\n")
        src = str(Path(cache_module.__file__).parents[1])
        caller = subprocess.Popen([sys.executable, "-c", code, str(child_pid),
                                   str(synth_benchmark[0]), str(cache), str(signalled), *FAST],
                                  env={**os.environ, "PYTHONPATH": src},
                                  stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            for _ in range(3000):
                if child_pid.exists() and child_pid.read_text():
                    break
                assert caller.poll() is None
                time.sleep(0.01)
            pid = int(child_pid.read_text())
            if signalled:
                assert [path.name for path in cache.glob("*.tmp*")] == [
                    f"dbow_proj1.bin.tmp{pid}"]
        finally:
            caller.kill()
            caller.wait()

        def running() -> bool:
            try:  # a zombie, waiting for whoever adopted it, has exited
                return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        for _ in range(1000):
            if not running():
                break
            time.sleep(0.01)
        assert not running()
        assert list(cache.glob("*.tmp*")) == []
        # jobs: DM and DBOW of proj1, then of proj2; the child took job 1
        assert list(self.models(cache)) == ([] if signalled else
                                            ["dbow_proj1.bin", "dbow_proj1.bin.meta.json"])

    def test_caller_keeps_no_trained_model(self, synth_benchmark, tmp_path, monkeypatch):
        """Each model trained in process is gone before the next one trains,
        so a set-up holds one model at a time, however many it trains."""
        self.workers(monkeypatch, 1)
        trained, alive = [], []
        train = embedding.train

        def patched(docs, config, mode, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in trained))
            model = train(docs, config, mode, **kwargs)
            trained.append(weakref.ref(model))
            return model

        monkeypatch.setattr(embedding, "train", patched)
        cache = ArtifactCache(tmp_path / "c", synth_benchmark[1], PreprocessConfig(), EMBED)
        cache.train_all(["proj1", "proj2", "proj3"])
        gc.collect()
        assert alive == [0] * 6
        assert [ref() for ref in trained] == [None] * 6

    def test_all_hits_start_no_process(self, synth_benchmark, tmp_path, monkeypatch, starts):
        self.workers(monkeypatch, 2)
        assert self.train_global(synth_benchmark[0], tmp_path / "c", *FAST).exit_code == 0
        assert len(starts) == 1
        del starts[:]
        assert self.train_global(synth_benchmark[0], tmp_path / "c", *FAST).exit_code == 0
        assert starts == []

    def test_min_count_above_every_term_raises_as_before(self, synth_benchmark, tmp_path,
                                                          monkeypatch, starts):
        for n in (1, 2):
            self.workers(monkeypatch, n)
            result = self.train_global(synth_benchmark[0], tmp_path / f"c{n}",
                                       *FAST, "--min-count", "100000")
            assert result.exit_code == 1
            assert result.stderr.splitlines() == [
                json.dumps({"error": "vocabulary is empty after min_count filtering"})]
            self.assert_clean(tmp_path / f"c{n}")
        assert len(starts) == 1

    def test_each_trained_model_logs_how_it_converged(self, synth_benchmark, tmp_path,
                                                       monkeypatch, caplog):
        logged = {}
        for n in (1, 2):
            self.workers(monkeypatch, n)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="bugloc.cache"):
                cache = ArtifactCache(tmp_path / f"c{n}", synth_benchmark[1], PreprocessConfig(),
                                      EMBED)
                cache.train_all(["proj1", "proj2"])
            logged[n] = [r.getMessage() for r in caplog.records
                         if r.getMessage().startswith("trained ")]
        assert logged[1] == logged[2]
        assert [line.split(":")[0] for line in logged[2]] == [
            f"trained {mode} model, held-out project {name}"
            for name in ("proj1", "proj2") for mode in (PV_DM, PV_DBOW)]
        model = embedding.train(*cache._training_corpus("proj2")[:1], EMBED, PV_DBOW,
                                vocab_documents=cache._training_corpus("proj2")[1])
        assert logged[2][-1] == (
            f"trained pv_dbow model, held-out project proj2: {model.steps} steps, "
            f"epoch losses {model.epoch_losses[0]:.6g}, {model.epoch_losses[1]:.6g}, "
            f"final learning rate {model.final_lr:.6g}")

    def test_tfidf_set_up_and_queries_import_no_multiprocessing(self, synth_benchmark, tmp_path):
        bench, cache = synth_benchmark[0], tmp_path / "c"
        calls = [["train-global", "--benchmark", bench, "--cache", cache, "--no-embeddings"],
                 *[["localize", "--benchmark", bench, "--project", "proj1", "--bug",
                    "BUG-proj1-001", "--method", "4", "--cache", cache, "--out", tmp_path]] * 2]
        code = ("import json, sys\nfrom bugloc.cli import main\n"
                "for args in json.loads(sys.argv[1]):\n"
                "    main(args, standalone_mode=False)\n"
                "print('multiprocessing' in sys.modules)")
        src = str(Path(cache_module.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code, json.dumps(calls, default=str)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"


class TestParallelPreprocessing:
    """A benchmark of at least twice ``preprocess._CHARS_PER_WORKER``
    characters is preprocessed on one worker per that many characters, up
    to one per CPU: every artifact and output holds the bytes of one
    process preprocessing it."""

    @staticmethod
    def workers(monkeypatch, n):
        """Preprocess any benchmark on n workers."""
        monkeypatch.setattr(pool, "cpu_count", lambda: n)
        monkeypatch.setattr(preprocess, "_CHARS_PER_WORKER", 1)

    @pytest.mark.parametrize("seed", [None, 5, 11])
    def test_artifacts_and_outputs_are_the_same_on_two_workers(self, synth_benchmark, tmp_path,
                                                               monkeypatch, starts, seed):
        """On the synthetic benchmark, and on perfbench's evaluate-tfidf
        corpus of each seed."""
        bench = (synth_benchmark[0] if seed is None else
                 generated_corpus(seed, tmp_path / "bench", "evaluate-tfidf")[0])
        built = {}
        for n in (1, 2):
            self.workers(monkeypatch, n)
            del starts[:]
            cache, out = tmp_path / f"c{n}", tmp_path / f"out{n}"
            train(bench, cache)
            assert len(starts) == n - 1
            run("evaluate", "--benchmark", bench, "--methods", "1,2,3,4", "--cache", cache,
                "--out", out)
            built[n] = {path.name: path.read_bytes() for directory in (cache, out)
                        for path in sorted(directory.iterdir())}
        assert multiprocessing.active_children() == []
        assert built[1] == built[2]
        assert {"tokens.bin", "idf.bin", "index_local_proj3.bin",
                "index_global_proj3.bin", *OUTPUTS} <= set(built[2])

    def test_error_in_a_child_chunk_fails_the_call_cleanly(self, synth_benchmark, tmp_path,
                                                          monkeypatch, starts):
        self.workers(monkeypatch, 2)
        real = preprocess.preprocess
        last = max(load_benchmark(synth_benchmark[0]).projects, key=lambda p: p.name)
        failing = last.bug_reports[-1].text  # the last document: the child's chunk

        def patched(text, origin=preprocess.BUG_REPORT, config=None, memo=None):
            if text == failing:
                raise ValueError("no tokens in this report")
            return real(text, origin, config, memo)

        monkeypatch.setattr(preprocess, "preprocess", patched)
        result = CliRunner().invoke(main, ["train-global", "--benchmark", str(synth_benchmark[0]),
                                           "--cache", str(tmp_path / "c"), "--no-embeddings"])
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            json.dumps({"error": "no tokens in this report"})]
        assert len(starts) == 1
        assert multiprocessing.active_children() == []
        assert not [path.name for path in (tmp_path / "c").iterdir() if ".tmp" in path.name]

    @pytest.mark.parametrize("workload", ["localize-cli", "docvec"])
    def test_benchmarks_below_the_gate_fork_nothing(self, synth_benchmark, tmp_path,
                                                    monkeypatch, starts, workload):
        """The synthetic benchmark and perfbench's localize-cli and docvec
        corpora are preprocessed in process, however many CPUs."""
        monkeypatch.setattr(pool, "cpu_count", lambda: 64)
        bench, _ = generated_corpus(5, tmp_path / "bench", workload)
        for root in (synth_benchmark[0], bench):
            preprocess_benchmark(load_benchmark(root, strict=False), PreprocessConfig())
        assert starts == []


class TestArtifactIntegrity:
    def _cache(self, bench, tmp_path):
        benchmark = load_benchmark(bench, strict=False)
        preprocess_benchmark(benchmark, PreprocessConfig())
        return ArtifactCache(tmp_path / "c", benchmark, PreprocessConfig(), EMBED)

    @pytest.mark.parametrize("how", ["truncate", "resealed_garbage"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_resealed_damaged_artifact_rebuilt_with_one_warning(self, sealed, tmp_path,
                                                                caplog, kind, how):
        bench, sealed_cache = sealed
        cache = shutil.copytree(sealed_cache, tmp_path / "c")
        artifact = cache / KINDS[kind]
        built = artifact.read_bytes()
        damage(artifact, how)
        reseal(artifact)
        with caplog.at_level(logging.WARNING):
            reads(kind, bench, cache, tmp_path / "out")
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1 and KINDS[kind] in warnings[0], warnings
        assert artifact.read_bytes() == built
        caplog.clear()
        stamp = artifact.stat().st_ino  # a rewrite moves a new file into place
        with caplog.at_level(logging.WARNING):
            reads(kind, bench, cache, tmp_path / "out")
        assert not caplog.records
        assert artifact.stat().st_ino == stamp

    def test_cache_bytes_tool_counts_every_kind(self, sealed):
        _, cache = sealed
        tool = Path(__file__).resolve().parent.parent / "tools" / "cache_bytes.py"
        done = subprocess.run([sys.executable, tool, cache], capture_output=True, text=True,
                              check=True)
        printed = {name: int(size.replace(",", ""))
                   for name, size in map(str.split, done.stdout.splitlines())}
        on_disk = {kind: sum(p.stat().st_size for p in cache.glob(f"{kind}*.bin")
                             if p.name == f"{kind}.bin" or p.name.startswith(f"{kind}_"))
                   for kind in cache_module._KINDS}
        assert printed == {**on_disk, "total": sum(on_disk.values())}
        assert all(on_disk.values())  # the sealed cache holds every kind

    def test_model_round_trip_without_pickle(self, bench, tmp_path):
        model = self._cache(bench, tmp_path).embedding_model("proj1", PV_DM)
        data = (tmp_path / "c" / "dm_proj1.bin").read_bytes()
        assert set(embedding.LAYOUT.decode(data)) == {"terms", "counts", "W", "U", "b"}
        loaded = embedding.load_model(data, PV_DM, EMBED)
        assert loaded.terms == model.terms and loaded.config == model.config
        assert loaded.D is None
        for name in ("counts", "W", "U", "b"):
            assert np.array_equal(getattr(loaded, name), getattr(model, name))
        again = self._cache(bench, tmp_path).embedding_model("proj1", PV_DM)
        assert np.array_equal(again.W, model.W) and not again.W.flags.writeable


@pytest.mark.parametrize("kind", KINDS)
class TestDecoderFuzz:
    """Every decoder of an artifact raises ValueError, and nothing else, on
    bytes that are not exactly an artifact of its kind."""

    @settings(max_examples=60, deadline=None)
    @given(junk=st.binary(max_size=200), keep=st.integers(min_value=0, max_value=400))
    def test_arbitrary_bytes(self, sealed_bytes, kind, junk, keep):
        data, decode = sealed_bytes[kind]
        for candidate in (junk, data[:keep] + junk):
            try:
                decode(candidate)
            except ValueError:
                pass

    @settings(max_examples=60, deadline=None)
    @given(cut=st.floats(min_value=0, max_value=1, exclude_max=True))
    def test_truncation(self, sealed_bytes, kind, cut):
        data, decode = sealed_bytes[kind]
        with pytest.raises(ValueError):
            decode(data[:int(cut * len(data))])

    @settings(max_examples=60, deadline=None)
    @given(where=st.floats(min_value=0, max_value=1, exclude_max=True),
           bits=st.integers(min_value=1, max_value=255))
    def test_single_byte_flip(self, sealed_bytes, kind, where, bits):
        data, decode = sealed_bytes[kind]
        flipped = bytearray(data)
        flipped[int(where * len(data))] ^= bits
        try:
            decode(bytes(flipped))
        except ValueError:
            pass

    def test_real_artifact_decodes(self, sealed_bytes, kind):
        data, decode = sealed_bytes[kind]
        decode(data)
