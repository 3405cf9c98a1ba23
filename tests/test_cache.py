"""The token-stream index, the ranking indexes and the integrity of cached
artifacts."""

import hashlib
import json
import logging
import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from bugloc import cache as cache_module, cli, corpus, embedding, preprocess, rank, tfidf
from bugloc.cache import ArtifactCache
from bugloc.cli import main
from bugloc.corpus import load_benchmark
from bugloc.embedding import EmbeddingConfig, PV_DM
from bugloc.preprocess import PreprocessConfig, preprocess_benchmark

EMBED = EmbeddingConfig(vector_size=8, epochs=2, min_count=1, seed=3)


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


def documents(benchmark):
    for project in benchmark.projects:
        yield from project.source_files
        yield from project.bug_reports


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
        idf = tmp_path / "c" / "idf_proj1.txt"
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
                                      "row_out_of_range", "short_length_weights"])
    def test_resealed_index_of_bad_structure_rebuilt_with_warning(self, bench, tmp_path,
                                                                  caplog, flaw):
        train(bench, tmp_path / "c")
        localize(bench, tmp_path / "c")
        built = ranking(tmp_path / "c")
        artifact = tmp_path / "c" / "index_global_proj1.bin"
        project = corpus.load_benchmark_project(bench, "proj1", strict=False)
        cache = ArtifactCache(tmp_path / "c", bench, PreprocessConfig(), EmbeddingConfig())
        scope = cache.stored_scope(project, "global")
        files, reports = scope.files, scope.reports
        terms, rows, offsets = (scope.query_terms.copy(), files.rows.copy(),
                                files.offsets.copy())
        length_weights = scope.length_weights
        if flaw == "query_term_out_of_range":
            terms[0] = files.n_terms
        elif flaw == "offsets_decrease":
            step = np.flatnonzero(np.diff(offsets))[0]
            offsets[step + 1] = offsets[step] - 1
        elif flaw == "row_out_of_range":
            rows[0] = len(files)
        else:
            length_weights = length_weights[:-1]
        bad = rank.TfidfScope(
            tfidf.Postings(rows, files.weights, offsets, files.norms), length_weights,
            (scope.query_offsets, terms, scope.query_weights, scope.query_norms),
            reports=reports)
        file_ids = sorted(f.id for f in project.source_files)
        artifact.write_bytes(b"".join(cache_module._encode_index(
            bad, file_ids, [r.id for r in project.bug_reports])))
        reseal(artifact)
        with caplog.at_level(logging.WARNING):
            localize(bench, tmp_path / "c")
        assert any("corrupt ranking index" in r.getMessage() for r in caplog.records)
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

    def test_index_of_other_reports_misses(self, bench, tmp_path, load_calls):
        train(bench, tmp_path / "c")
        localize(bench, tmp_path / "c")
        project = corpus.load_benchmark_project(bench, "proj1", strict=False)
        cache = ArtifactCache(tmp_path / "c", bench, PreprocessConfig(), EmbeddingConfig())
        assert cache.stored_scope(project, "global") is not None
        project.bug_reports.pop()
        cache = ArtifactCache(tmp_path / "c", bench, PreprocessConfig(), EmbeddingConfig())
        assert cache.stored_scope(project, "global") is None

    def test_arrays_round_trip(self, bench, tmp_path):
        benchmark = load_benchmark(bench, strict=False)
        preprocess_benchmark(benchmark, PreprocessConfig())
        project = benchmark.project("proj1")
        cache = ArtifactCache(tmp_path / "c", benchmark, PreprocessConfig())
        built = cache.tfidf_scope(rank.Artifacts(project), "local")
        loaded = ArtifactCache(tmp_path / "c", benchmark, PreprocessConfig()).stored_scope(
            project, "local")
        for name in ("rows", "weights", "offsets", "norms"):
            for part in ("files", "reports"):
                want, got = getattr(getattr(built, part), name), getattr(getattr(loaded, part), name)
                assert got.dtype == want.dtype and np.array_equal(got, want)
        for name in ("length_weights", "query_offsets", "query_terms", "query_weights",
                     "query_norms"):
            assert np.array_equal(getattr(loaded, name), getattr(built, name))


class TestArtifactIntegrity:
    def _cache(self, bench, tmp_path):
        benchmark = load_benchmark(bench, strict=False)
        preprocess_benchmark(benchmark, PreprocessConfig())
        return ArtifactCache(tmp_path / "c", benchmark, PreprocessConfig(), EMBED)

    def test_idf_cut_at_a_line_boundary_is_rebuilt(self, bench, tmp_path, caplog):
        vocab = self._cache(bench, tmp_path).global_vocabulary("proj1")
        artifact = tmp_path / "c" / "idf_proj1.txt"
        lines = artifact.read_text().splitlines(keepends=True)
        artifact.write_text("".join(lines[:-2]))
        assert len(tfidf.load_vocabulary(artifact)) == len(vocab) - 2  # loads silently
        with caplog.at_level(logging.WARNING):
            again = self._cache(bench, tmp_path).global_vocabulary("proj1")
        assert again.term_ids == vocab.term_ids
        assert any("sha256" in r.getMessage() for r in caplog.records)

    def test_model_holding_an_object_array_is_never_unpickled(self, bench, tmp_path,
                                                              caplog):
        model = self._cache(bench, tmp_path).embedding_model("proj1", PV_DM)
        assert all(type(t) is str for t in model.terms + model.doc_ids)
        artifact = tmp_path / "c" / "dm_proj1.npz"
        with np.load(artifact) as data:
            arrays = dict(data)
        arrays["terms"] = np.array([Tripwire()] + model.terms[1:], dtype=object)
        np.savez_compressed(artifact, **arrays)
        reseal(artifact)
        with caplog.at_level(logging.WARNING):
            again = self._cache(bench, tmp_path).embedding_model("proj1", PV_DM)
        assert not Tripwire.unpickled
        assert again.terms == model.terms
        assert any("retraining" in r.getMessage() for r in caplog.records)
        with np.load(artifact, allow_pickle=False) as data:
            assert data["terms"].dtype.kind == "U"

    def test_model_round_trip_without_pickle(self, bench, tmp_path):
        model = self._cache(bench, tmp_path).embedding_model("proj1", PV_DM)
        loaded = embedding.load_model(tmp_path / "c" / "dm_proj1.npz")
        assert loaded.terms == model.terms and loaded.doc_ids == model.doc_ids
        assert np.array_equal(loaded.D, model.D)


class Tripwire:
    unpickled = False

    def __reduce__(self):
        return (_trip, ())


def _trip():
    Tripwire.unpickled = True
    return "tripped"
