"""The token-stream index and the integrity of cached artifacts."""

import hashlib
import json
import logging
import shutil

import numpy as np
import pytest
from click.testing import CliRunner

from bugloc import cli, embedding, preprocess, tfidf
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


def run(*args):
    result = CliRunner().invoke(main, [str(a) for a in args])
    assert result.exit_code == 0, result.output
    return result


def train(bench, cache, *extra):
    return run("train-global", "--benchmark", bench, "--cache", cache, "--no-embeddings",
               *extra)


def localize(bench, cache, *extra):
    return run("localize", "--benchmark", bench, "--project", "proj1",
               "--bug", "BUG-proj1-001", "--method", "4", "--cache", cache,
               "--out", cache.parent / "out", *extra)


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

    @pytest.mark.parametrize("damage", ["truncate", "flip", "wrong_sha", "resealed_garbage"])
    def test_damaged_index_rebuilt_with_warning(self, bench, tmp_path, preprocess_calls,
                                                caplog, damage):
        train(bench, tmp_path / "c")
        index = tmp_path / "c" / "tokens.bin"
        data = bytearray(index.read_bytes())
        meta = index.with_suffix(".bin.meta.json")
        if damage == "truncate":
            index.write_bytes(data[:len(data) // 2])
        elif damage == "flip":
            data[len(data) // 2] ^= 0x01
            index.write_bytes(bytes(data))
        elif damage == "wrong_sha":
            record = json.loads(meta.read_text())
            record["sha256"] = "0" * 64
            meta.write_text(json.dumps(record))
        else:  # a consistent sha over bytes that are not an index of this corpus
            index.write_bytes(data[:40] + b"\xff" * 20)
            reseal(index)
        with caplog.at_level(logging.WARNING):
            localize(bench, tmp_path / "c")
        assert len(preprocess_calls) == 2
        assert any("re-preprocessing" in r.getMessage() for r in caplog.records)
        localize(bench, tmp_path / "c")  # the rebuilt index is used again
        assert len(preprocess_calls) == 2


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
