import math

import numpy as np
import pytest

from bugloc.embedding import (LAYOUT, DocVector, EmbeddingConfig, PV_DBOW, PV_DM,
                              combined_matrix, combined_vector, doc_cosine,
                              doc_cosines, infer_matrix, infer_vector,
                              load_model, prediction_gradients, save_model,
                              softmax, train)
from bugloc.errors import TrainingError

TOY_DOCS = [
    ("alpha", "beta", "alpha", "gamma"),
    ("beta", "delta", "beta", "epsilon"),
    ("gamma", "alpha", "delta", "delta"),
]


def toy_config(**overrides):
    base = dict(vector_size=4, alpha=0.05, window=2, min_count=1,
                negative=0, epochs=3, seed=11)
    base.update(overrides)
    return EmbeddingConfig(**base)


class TestConfig:
    def test_defaults_follow_published_settings(self):
        config = EmbeddingConfig()
        assert config.vector_size == 100
        assert config.alpha == 0.045
        assert config.window == 5
        assert config.min_count == 2
        assert config.negative == 5
        assert config.sample == 0.0
        assert config.min_alpha(PV_DM) == pytest.approx(0.045 / 2)
        assert config.min_alpha(PV_DBOW) == pytest.approx(0.045 / 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            EmbeddingConfig(vector_size=0)
        for epochs in (0, -1):
            with pytest.raises(ValueError, match="epochs"):
                EmbeddingConfig(epochs=epochs)
        with pytest.raises(ValueError):
            EmbeddingConfig(window=0)
        with pytest.raises(ValueError):
            EmbeddingConfig(negative=-1)
        with pytest.raises(ValueError):
            EmbeddingConfig(min_alpha_dm=0.2, alpha=0.1)

    def test_explicit_min_alpha_wins(self):
        config = EmbeddingConfig(alpha=0.1, min_alpha_dm=0.01)
        assert config.min_alpha(PV_DM) == 0.01


def test_softmax_normalizes():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = softmax(rng.normal(0, 10, size=rng.integers(2, 40)))
        assert abs(p.sum() - 1.0) <= 1e-9
        assert (p >= 0).all()


def finite_difference_error(W, D, U, b, **kwargs) -> float:
    """Largest relative difference between the gradients of
    :func:`prediction_gradients` and central finite differences of its loss,
    over every entry of W, D, U and b.

    The kernel's sparse gradients are scattered into dense arrays the way
    training applies them: ``U``/``b`` rows with repeats adding up, the share
    to the doc row and, in PV-DM, to every context word.
    """
    _, rows, g_out, g_bias, share = prediction_gradients(W, D, U, b, **kwargs)
    gW, gD, gU, gb = (np.zeros_like(a) for a in (W, D, U, b))
    np.add.at(gU, rows, g_out)
    np.add.at(gb, rows, g_bias)
    gD[kwargs["doc_index"]] = share
    if kwargs["mode"] == PV_DM:
        np.add.at(gW, np.asarray(kwargs["context"], dtype=np.intp), share)
    eps = 1e-6
    worst = 0.0
    for arr, grad in ((W, gW), (D, gD), (U, gU), (b, gb)):
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = prediction_gradients(W, D, U, b, **kwargs)[0]
            flat[i] = orig - eps
            down = prediction_gradients(W, D, U, b, **kwargs)[0]
            flat[i] = orig
            numeric = (up - down) / (2 * eps)
            scale = max(abs(numeric), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(numeric - gflat[i]) / scale)
    return worst


class TestGradients:
    """The training kernel's gradients against central finite differences
    on a 5-word, d=4 toy model, for both modes and both output layers."""

    def _max_rel_err(self, mode, negatives):
        rng = np.random.default_rng(2)
        V, N, d = 5, 3, 4
        W, D, U, b = (rng.normal(0, 0.4, (V, d)), rng.normal(0, 0.4, (N, d)),
                      rng.normal(0, 0.4, (V, d)), rng.normal(0, 0.4, V))
        return finite_difference_error(W, D, U, b, mode=mode, doc_index=1, target=2,
                                       context=(0, 3, 3) if mode == PV_DM else (),
                                       negatives=negatives)

    @pytest.mark.parametrize("mode", [PV_DM, PV_DBOW])
    def test_softmax_loss(self, mode):
        assert self._max_rel_err(mode, None) < 1e-4

    @pytest.mark.parametrize("mode", [PV_DM, PV_DBOW])
    def test_negative_sampling_loss(self, mode):
        # duplicate negative checks gradient accumulation on shared rows
        assert self._max_rel_err(mode, np.array([0, 4, 4])) < 1e-4


class TestTraining:
    def test_deterministic_under_seed(self):
        a = train(TOY_DOCS, toy_config(), PV_DM)
        b = train(TOY_DOCS, toy_config(), PV_DM)
        for x, y in ((a.W, b.W), (a.D, b.D), (a.U, b.U), (a.b, b.b)):
            assert np.array_equal(x, y)

    def test_different_seed_differs(self):
        a = train(TOY_DOCS, toy_config(), PV_DM)
        b = train(TOY_DOCS, toy_config(seed=12), PV_DM)
        assert not np.array_equal(a.W, b.W)

    def test_loss_not_increased_by_training(self):
        docs = [("alpha",), ("beta",)]
        config = toy_config(vector_size=2, epochs=1, alpha=0.01)
        model = train(docs, config, PV_DM, track_loss=True)
        assert model.final_loss <= model.initial_loss

    @pytest.mark.parametrize("mode", [PV_DM, PV_DBOW])
    def test_loss_decreases_over_epochs(self, mode):
        model = train(TOY_DOCS, toy_config(epochs=30), mode, track_loss=True)
        assert model.final_loss < model.initial_loss

    def test_min_count_filters_vocabulary(self):
        model = train(TOY_DOCS, toy_config(min_count=2), PV_DBOW)
        assert "epsilon" not in model.term_index  # appears once
        assert "alpha" in model.term_index

    def test_empty_vocabulary_errors(self):
        with pytest.raises(TrainingError, match="empty"):
            train(TOY_DOCS, toy_config(min_count=99), PV_DM)

    def test_needs_two_documents(self):
        with pytest.raises(ValueError):
            train([("alpha",)], toy_config(), PV_DM)

    def test_learning_rate_reaches_floor(self):
        config = toy_config(epochs=4)
        model = train(TOY_DOCS, config, PV_DM)
        total_steps = config.epochs * sum(len(d) for d in TOY_DOCS)
        one_step = (config.alpha - config.min_alpha(PV_DM)) / total_steps
        assert abs(model.final_lr - config.min_alpha(PV_DM)) <= one_step + 1e-12

    def test_epoch_losses_recorded_and_finite(self):
        model = train(TOY_DOCS, toy_config(epochs=5), PV_DBOW)
        assert len(model.epoch_losses) == 5
        assert all(math.isfinite(x) for x in model.epoch_losses)

    def test_separate_vocabulary_documents(self):
        extra = [("alpha", "zeta"), ("beta", "zeta")]
        model = train(TOY_DOCS + extra, toy_config(), PV_DM,
                      vocab_documents=TOY_DOCS)
        assert "zeta" not in model.term_index
        assert len(model.D) == 5

    def test_divergence_reported_with_epoch(self):
        # an absurd learning rate overflows the weights within a few epochs
        config = toy_config(alpha=1e8, min_alpha_dm=1e8, negative=2, epochs=50)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError, match="epoch"):
                train(TOY_DOCS, config, PV_DM)


class TestInference:
    def test_repeated_calls_identical(self):
        model = train(TOY_DOCS, toy_config(), PV_DM)
        v1 = infer_vector(TOY_DOCS[0], model)
        v2 = infer_vector(TOY_DOCS[0], model)
        assert np.array_equal(v1.values, v2.values)
        assert not v1.oov

    def test_model_unchanged_by_inference(self):
        model = train(TOY_DOCS, toy_config(), PV_DBOW)
        before = (model.W.copy(), model.D.copy(), model.U.copy(), model.b.copy())
        infer_vector(TOY_DOCS[1], model)
        for old, new in zip(before, (model.W, model.D, model.U, model.b)):
            assert np.array_equal(old, new)

    def test_out_of_vocabulary_stream(self):
        model = train(TOY_DOCS, toy_config(), PV_DM)
        vec = infer_vector(("nope", "missing"), model)
        assert vec.oov
        assert np.all(vec.values == 0)

    def test_empty_stream(self):
        model = train(TOY_DOCS, toy_config(), PV_DM)
        vec = infer_vector((), model)
        assert vec.oov
        assert np.all(vec.values == 0)

    def test_self_similarity_beats_median(self):
        # 20 docs, each dominated by its own word plus shared filler
        docs = []
        for i in range(20):
            own = f"own{i}"
            docs.append((own, "fill", own, "glue", own, own, "fill", own))
        config = EmbeddingConfig(vector_size=16, alpha=0.08, window=3,
                                 min_count=1, negative=3, epochs=40, seed=5)
        for mode in (PV_DM, PV_DBOW):
            model = train(docs, config, mode)
            wins = 0
            for i in (0, 7, 13, 19):
                inferred = infer_vector(docs[i], model)
                sims = [float(np.dot(inferred.values, model.D[j]) /
                              (np.linalg.norm(inferred.values) * np.linalg.norm(model.D[j])))
                        for j in range(20)]
                own_sim = sims[i]
                others = sorted(sims[:i] + sims[i + 1:])
                median = others[len(others) // 2]
                wins += own_sim > median
            assert wins == 4, mode


def reference_infer(stream, model, epochs=None, seed=None) -> np.ndarray:
    """Per-document inference, one SGD step at a time against the frozen
    model: the loop that the lock-step batch replaces. Each step takes the
    doc-vector gradient of the training kernel, run on a one-row doc matrix."""
    ids = model.token_ids(stream)
    d = model.vector_size
    if len(ids) == 0:
        return np.zeros(d)
    rng = np.random.default_rng(model.config.seed if seed is None else seed)
    doc = ((rng.random(d) - 0.5) / d)[None, :]
    epochs = model.config.epochs if epochs is None else epochs
    alpha, min_alpha = model.config.alpha, model.config.min_alpha(model.mode)
    window, total = model.config.window, epochs * len(ids)
    for step in range(total):
        pos = step % len(ids)
        lr = alpha + (min_alpha - alpha) * (step / total)
        context = np.concatenate((ids[max(0, pos - window):pos], ids[pos + 1:pos + window + 1]))
        target = ids[pos]
        negatives = model.sample_negatives(target, rng) if model.config.negative else None
        share = prediction_gradients(model.W, doc, model.U, model.b, model.mode, 0,
                                     target, context, negatives)[4]
        doc[0] -= lr * share
    return doc[0]


class TestBatchedInference:
    """The lock-step batch against the per-document reference loop."""

    VOCAB = [f"w{i}" for i in range(30)]
    # 1 token, fewer tokens than the window, long, duplicated, OOV, empty,
    # partly OOV, and ordinary documents of mixed lengths
    DOCS = [("w3",), ("w1", "w2"), tuple(VOCAB * 4), ("w5", "w6", "w7", "w5", "w8"),
            ("w5", "w6", "w7", "w5", "w8"), ("nope", "missing"), (),
            ("w9", "nope", "w10", "w11"), tuple(VOCAB[::-3]), ("w2", "w2", "w2")]

    def _model(self, mode, negative):
        rng = np.random.default_rng(4)
        docs = [tuple(rng.choice(self.VOCAB, size=rng.integers(3, 15))) for _ in range(12)]
        config = EmbeddingConfig(vector_size=8, alpha=0.05, window=3, min_count=1,
                                 negative=negative, epochs=3, seed=9)
        return train(docs + [tuple(self.VOCAB)], config, mode)

    @pytest.mark.parametrize("negative", [0, 5])
    @pytest.mark.parametrize("mode", [PV_DM, PV_DBOW])
    def test_matches_per_document_reference(self, mode, negative):
        model = self._model(mode, negative)
        for kwargs in ({}, {"epochs": 2, "seed": 5}):
            values, oov = infer_matrix(self.DOCS, model, **kwargs)
            reference = np.array([reference_infer(d, model, **kwargs) for d in self.DOCS])
            assert np.abs(values - reference).max() <= 1e-12
            assert oov.tolist() == [len(model.token_ids(d)) == 0 for d in self.DOCS]
            assert np.array_equal(values[3], values[4])  # duplicated document

    @pytest.mark.parametrize("negative", [0, 5])
    @pytest.mark.parametrize("mode", [PV_DM, PV_DBOW])
    def test_row_same_alone_or_in_batch(self, mode, negative):
        model = self._model(mode, negative)
        values, _ = infer_matrix(self.DOCS, model)
        for doc, row in zip(self.DOCS, values):
            assert np.array_equal(infer_vector(doc, model).values, row)
        reordered, _ = infer_matrix(self.DOCS[::-1], model)
        assert np.array_equal(reordered[::-1], values)

    @pytest.mark.parametrize("negative", [0, 5])
    @pytest.mark.parametrize("mode", [PV_DM, PV_DBOW])
    def test_model_unchanged(self, mode, negative):
        model = self._model(mode, negative)
        before = [a.copy() for a in (model.W, model.D, model.U, model.b)]
        infer_matrix(self.DOCS, model)
        for old, new in zip(before, (model.W, model.D, model.U, model.b)):
            assert np.array_equal(old, new)

    def test_combined_rows_concatenate_both_models(self):
        dm, dbow = self._model(PV_DM, 5), self._model(PV_DBOW, 5)
        values, oov = combined_matrix(self.DOCS, dm, dbow)
        assert values.shape == (len(self.DOCS), 16)
        assert np.array_equal(values[:, :8], infer_matrix(self.DOCS, dm)[0])
        assert np.array_equal(values[:, 8:], infer_matrix(self.DOCS, dbow)[0])
        assert oov.tolist() == [not dm.token_ids(d).size for d in self.DOCS]

    def test_no_streams(self):
        values, oov = infer_matrix([], self._model(PV_DM, 5))
        assert values.shape == (0, 8) and oov.shape == (0,)

    @pytest.mark.parametrize("epochs", [0, -2])
    def test_epochs_below_one_rejected(self, epochs):
        model = self._model(PV_DBOW, 5)
        with pytest.raises(ValueError, match="epochs"):
            infer_matrix(self.DOCS, model, epochs=epochs)
        with pytest.raises(ValueError, match="epochs"):
            infer_vector(self.DOCS[0], model, epochs=epochs)


def test_doc_cosines_match_doc_cosine():
    rng = np.random.default_rng(8)
    vectors = rng.normal(size=(6, 5))
    vectors[2] = 0.0
    norms = np.linalg.norm(vectors, axis=1)
    for query in (rng.normal(size=5), np.zeros(5), vectors[4]):
        got = doc_cosines(vectors, norms, query, float(np.linalg.norm(query)))
        want = [doc_cosine(DocVector(query), DocVector(v)) for v in vectors]
        assert np.abs(got - want).max() <= 1e-12
        assert got[2] == 0.0


class TestCombined:
    def _models(self):
        dm = train(TOY_DOCS, toy_config(), PV_DM)
        dbow = train(TOY_DOCS, toy_config(), PV_DBOW)
        return dm, dbow

    def test_concatenated_dimension(self):
        dm, dbow = self._models()
        vec = combined_vector(TOY_DOCS[0], dm, dbow)
        assert vec.values.shape == (8,)

    def test_mismatched_dimensions_rejected(self):
        dm = train(TOY_DOCS, toy_config(), PV_DM)
        dbow = train(TOY_DOCS, toy_config(vector_size=6), PV_DBOW)
        with pytest.raises(ValueError, match="mismatch"):
            combined_vector(TOY_DOCS[0], dm, dbow)

    def test_zero_half_preserves_other(self):
        dm, dbow = self._models()
        vec = combined_vector(TOY_DOCS[0], dm, dbow)
        half = dm.config.vector_size
        zeroed = DocVector(values=np.concatenate((np.zeros(half), vec.values[half:])))
        assert np.array_equal(zeroed.values[half:], vec.values[half:])
        assert doc_cosine(zeroed, vec) > 0

    def test_cosine_of_concatenation_is_norm_weighted_blend(self):
        # cos([u1;u2],[v1;v2]) == (|u1||v1| cos1 + |u2||v2| cos2) / (|u||v|)
        rng = np.random.default_rng(7)
        for _ in range(25):
            u1, u2 = rng.normal(size=5), rng.normal(size=5)
            v1, v2 = rng.normal(size=5), rng.normal(size=5)
            u = DocVector(np.concatenate((u1, u2)))
            v = DocVector(np.concatenate((v1, v2)))
            cos1 = float(u1 @ v1) / (np.linalg.norm(u1) * np.linalg.norm(v1))
            cos2 = float(u2 @ v2) / (np.linalg.norm(u2) * np.linalg.norm(v2))
            blend = (np.linalg.norm(u1) * np.linalg.norm(v1) * cos1 +
                     np.linalg.norm(u2) * np.linalg.norm(v2) * cos2) / (
                np.linalg.norm(u.values) * np.linalg.norm(v.values))
            assert doc_cosine(u, v) == pytest.approx(blend, rel=1e-9)


def test_doc_cosine_zero_vector():
    assert doc_cosine(DocVector(np.zeros(3)), DocVector(np.ones(3))) == 0.0


def test_serialization_roundtrip():
    model = train(TOY_DOCS, toy_config(negative=2), PV_DBOW)
    data = b"".join(save_model(model))
    loaded = load_model(data, PV_DBOW, model.config)
    assert loaded.mode == PV_DBOW
    assert loaded.terms == model.terms
    assert loaded.config == model.config
    assert np.array_equal(loaded.counts, model.counts)
    for x, y in ((loaded.W, model.W), (loaded.U, model.U), (loaded.b, model.b)):
        assert np.array_equal(x, y)
    # the file holds what inference reads: no training doc vectors
    assert loaded.D is None and model.D.tobytes() not in data
    # inference through the reloaded model is identical
    a = infer_vector(TOY_DOCS[2], model)
    b = infer_vector(TOY_DOCS[2], loaded)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("flaw", ["no_terms", "repeated_term", "zero_count", "short_W",
                                  "short_b", "other_vector_size"])
def test_load_rejects_inconsistent_arrays(flaw):
    model = train(TOY_DOCS, toy_config(negative=2), PV_DM)
    values = {"terms": model.terms, "counts": model.counts, "W": model.W, "U": model.U,
              "b": model.b}
    config = model.config
    if flaw == "no_terms":
        values = {"terms": [], "counts": [], "W": [], "U": [], "b": []}
    elif flaw == "repeated_term":
        values["terms"] = [model.terms[0]] * len(model.terms)
    elif flaw == "zero_count":
        values["counts"] = np.zeros(len(model.terms), dtype=int)
    elif flaw == "short_W":
        values["W"] = model.W[:-1]
    elif flaw == "short_b":
        values["b"] = model.b[:-1]
    else:
        config = toy_config(negative=2, vector_size=model.vector_size + 1)
    with pytest.raises(ValueError):
        load_model(b"".join(LAYOUT.encode(values)), PV_DM, config)
