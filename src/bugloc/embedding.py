"""Paragraph-vector models (distributed-memory and distributed
bag-of-words) trained from scratch with plain numpy SGD.

Both modes share a two-layer architecture: input vectors (word matrix W,
doc matrix D) feed a hidden state h, and output weights U with bias b score
candidate words. The DM mode predicts each word from the average of its
context-word vectors and the doc vector; the DBOW mode predicts each word
from the doc vector alone. The output layer uses negative sampling with a
unigram^0.75 noise distribution, or the full softmax when ``negative`` is
0 (only sensible for small vocabularies, e.g. in gradient tests).

Training is deterministic for a fixed seed: a single rng drives
initialization, document shuffling, subsampling and noise draws.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from . import container
from .errors import TrainingError

PV_DM = "pv_dm"
PV_DBOW = "pv_dbow"


@dataclass(frozen=True)
class EmbeddingConfig:
    vector_size: int = 100
    alpha: float = 0.045
    window: int = 5
    min_count: int = 2
    min_alpha_dm: float | None = None    # defaults to alpha/2
    min_alpha_dbow: float | None = None  # defaults to alpha/3
    negative: int = 5
    sample: float = 0.0
    epochs: int = 20
    seed: int = 1

    def __post_init__(self):
        if self.vector_size < 1:
            raise ValueError("vector_size must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.negative < 0:
            raise ValueError("negative must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        for value in (self.min_alpha_dm, self.min_alpha_dbow):
            if value is not None and not 0 < value <= self.alpha:
                raise ValueError("min_alpha must be in (0, alpha]")

    def min_alpha(self, mode: str) -> float:
        if mode == PV_DM:
            return self.min_alpha_dm if self.min_alpha_dm is not None else self.alpha / 2
        if mode == PV_DBOW:
            return self.min_alpha_dbow if self.min_alpha_dbow is not None else self.alpha / 3
        raise ValueError(f"unknown mode {mode!r}")

    def fingerprint(self) -> dict:
        return asdict(self)


@dataclass
class DocVector:
    """Dense inferred vector for one document; ``oov`` marks streams whose
    every token fell outside the model vocabulary (values are zero then)."""

    values: np.ndarray
    oov: bool = False


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / e.sum()


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _log_sigmoid(z):
    # -log(1 + exp(-z)) computed stably for large |z|
    return -np.logaddexp(0.0, -z)


def _tokens(document) -> tuple[str, ...]:
    return tuple(getattr(document, "tokens", document))


def prediction_gradients(W, D, U, b, mode, doc_index, target, context, negatives=None):
    """Loss of one training prediction and its gradients: the kernel that
    training applies and the gradient checks test.

    The hidden state is doc vector ``D[doc_index]``, in PV-DM averaged with
    the ``context`` word vectors (PV-DBOW ignores the context). The output
    layer is the full softmax when ``negatives`` is None, otherwise negative
    sampling of ``target`` against those noise-word rows.

    Returns ``(loss, rows, g_out, g_bias, share)``: the gradients with
    respect to ``U[rows]`` and ``b[rows]`` (``rows`` is every row under the
    full softmax; a repeated row's gradients add up), and ``share``, the
    gradient with respect to the doc vector and to each context word vector.
    """
    if mode == PV_DM and len(context):
        n_avg = len(context) + 1
        h = (D[doc_index] + W[np.asarray(context)].sum(axis=0)) / n_avg
    else:
        n_avg, h = 1, D[doc_index]
    if negatives is None:
        rows = slice(None)
        g = softmax(U @ h + b)
        loss = -math.log(g[target])
        g[target] -= 1.0
        g_hidden = U.T @ g
    else:
        rows = np.concatenate(([target], negatives))
        out = U[rows]
        z = out @ h + b[rows]
        loss = float(-_log_sigmoid(z[0]) - _log_sigmoid(-z[1:]).sum())
        g = _sigmoid(z)
        g[0] -= 1.0
        g_hidden = g @ out
    return loss, rows, np.outer(g, h), g, g_hidden / n_avg


class EmbeddingModel:
    """Paragraph-vector model; immutable after training. ``D``, the training
    documents' vectors, exists only on a model fresh from :func:`train`."""

    def __init__(self, mode, config, terms, counts, W, U, b, D=None):
        self.mode = mode
        self.config = config
        self.terms = list(terms)
        self.term_index = {t: i for i, t in enumerate(self.terms)}
        self.counts = np.asarray(counts, dtype=np.int64)
        self.W = W
        self.D = D
        self.U = U
        self.b = b
        noise = self.counts.astype(float) ** 0.75
        self.noise_cum = np.cumsum(noise / noise.sum())
        self.epoch_losses: list[float] = []
        self.initial_loss: float | None = None
        self.final_loss: float | None = None
        self.final_lr: float | None = None

    @property
    def vector_size(self) -> int:
        return self.W.shape[1]

    def token_ids(self, document) -> np.ndarray:
        return np.array([self.term_index[t] for t in _tokens(document)
                         if t in self.term_index], dtype=np.int64)

    def sample_negatives(self, target: int, rng) -> np.ndarray:
        """Draw noise words from the unigram^0.75 table, skipping the target."""
        draws = np.searchsorted(self.noise_cum, rng.random(self.config.negative))
        return draws[draws != target]


def _context_window(ids: np.ndarray, pos: int, window: int) -> np.ndarray:
    lo = max(0, pos - window)
    return np.concatenate((ids[lo:pos], ids[pos + 1:pos + window + 1]))


def _sgd_step(model: EmbeddingModel, doc_index, target, context, lr, rng) -> float:
    """One training prediction step, updating parameters in place."""
    negatives = model.sample_negatives(target, rng) if model.config.negative > 0 else None
    loss, rows, g_out, g_bias, share = prediction_gradients(
        model.W, model.D, model.U, model.b, model.mode, doc_index, target, context, negatives)
    if negatives is None:
        model.U -= lr * g_out
        model.b -= lr * g_bias
    else:
        np.add.at(model.U, rows, -lr * g_out)
        np.add.at(model.b, rows, -lr * g_bias)
    model.D[doc_index] -= lr * share
    if model.mode == PV_DM and len(context):
        np.add.at(model.W, context, -lr * share)
    return loss


def corpus_loss(model: EmbeddingModel, doc_token_ids: Sequence[np.ndarray]) -> float:
    """Mean full-softmax loss over every prediction in the corpus; the
    deterministic objective used for before/after training comparisons."""
    total, count = 0.0, 0
    window = model.config.window
    for doc_index, ids in enumerate(doc_token_ids):
        for pos in range(len(ids)):
            context = _context_window(ids, pos, window) if model.mode == PV_DM else ()
            total += prediction_gradients(model.W, model.D, model.U, model.b, model.mode,
                                          doc_index, ids[pos], context)[0]
            count += 1
    if count == 0:
        raise TrainingError("no in-vocabulary tokens to evaluate")
    return total / count


def train(documents: Iterable, config: EmbeddingConfig, mode: str,
          vocab_documents: Iterable | None = None,
          track_loss: bool = False) -> EmbeddingModel:
    """Train a paragraph-vector model by SGD over the documents.

    The vocabulary comes from ``vocab_documents`` when given (e.g. source
    files only) and from the training documents otherwise; terms below
    ``min_count`` are dropped. The learning rate decays linearly from
    ``alpha`` to the mode's floor across all epochs. ``track_loss`` also
    records the exact softmax corpus loss before and after training.
    """
    if mode not in (PV_DM, PV_DBOW):
        raise ValueError(f"unknown mode {mode!r}")
    docs = [_tokens(d) for d in documents]
    if len(docs) < 2:
        raise ValueError("need at least 2 documents to train")

    vocab_docs = docs if vocab_documents is None else [_tokens(d) for d in vocab_documents]
    freq: dict[str, int] = {}
    for tokens in vocab_docs:
        for t in tokens:
            freq[t] = freq.get(t, 0) + 1
    terms = sorted(t for t, c in freq.items() if c >= config.min_count)
    if not terms:
        raise TrainingError("vocabulary is empty after min_count filtering")
    counts = [freq[t] for t in terms]

    d = config.vector_size
    rng = np.random.default_rng(config.seed)
    W = (rng.random((len(terms), d)) - 0.5) / d
    D = (rng.random((len(docs), d)) - 0.5) / d
    U = np.zeros((len(terms), d))
    b = np.zeros(len(terms))
    model = EmbeddingModel(mode, config, terms, counts, W, U, b, D)

    doc_token_ids = [model.token_ids(tokens) for tokens in docs]
    total_positions = sum(len(ids) for ids in doc_token_ids)
    if total_positions == 0:
        raise TrainingError("all documents are out of vocabulary")
    total_steps = config.epochs * total_positions
    alpha, min_alpha = config.alpha, config.min_alpha(mode)

    keep_prob = None
    if config.sample > 0:
        frac = model.counts / model.counts.sum()
        keep_prob = np.minimum(1.0, (np.sqrt(frac / config.sample) + 1) * config.sample / frac)

    if track_loss:
        model.initial_loss = corpus_loss(model, doc_token_ids)

    step = 0
    lr = alpha
    for epoch in range(config.epochs):
        epoch_total, epoch_examples = 0.0, 0
        for doc_index in rng.permutation(len(docs)):
            ids = doc_token_ids[doc_index]
            for pos in range(len(ids)):
                lr = alpha + (min_alpha - alpha) * (step / total_steps)
                step += 1
                if keep_prob is not None and rng.random() > keep_prob[ids[pos]]:
                    continue
                context = (_context_window(ids, pos, config.window)
                           if mode == PV_DM else np.empty(0, dtype=np.int64))
                epoch_total += _sgd_step(model, doc_index, ids[pos], context, lr, rng)
                epoch_examples += 1
        mean_loss = epoch_total / max(1, epoch_examples)
        if not math.isfinite(mean_loss):
            raise TrainingError(f"non-finite training loss at epoch {epoch}")
        model.epoch_losses.append(mean_loss)
    model.final_lr = lr

    if track_loss:
        model.final_loss = corpus_loss(model, doc_token_ids)
    return model


def _hidden_gradients(model: EmbeddingModel, targets: np.ndarray, rng):
    """For a block of inference steps × documents with target words
    ``targets``, a function of a step ``j`` and the documents' hidden states
    ``h`` (rows) giving each document's loss gradient with respect to its
    hidden state, the output layer frozen.

    Under negative sampling every document scores the same noise draws at a
    step, drawn for the whole block at once; a draw equal to a document's
    target gets zero weight, as :meth:`EmbeddingModel.sample_negatives`
    would skip it. Stacked matrix products keep each document's arithmetic
    independent of the other documents.
    """
    U, b = model.U, model.b
    steps, docs = targets.shape
    if model.config.negative == 0:
        every = np.arange(docs)

        def softmax_gradients(j: int, h: np.ndarray) -> np.ndarray:
            logits = np.matmul(U, h[:, :, None])[:, :, 0] + b
            p = np.exp(logits - logits.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            p[every, targets[j]] -= 1.0
            return np.matmul(p[:, None, :], U)[:, 0]

        return softmax_gradients

    negative = model.config.negative
    draws = np.searchsorted(model.noise_cum, rng.random((steps, negative)))[:, None, :]
    rows = np.empty((steps, docs, negative + 1), dtype=np.intp)
    rows[:, :, 0] = targets
    rows[:, :, 1:] = draws
    labels = np.zeros(rows.shape)
    labels[:, :, 0] = 1.0
    weights = labels.copy()
    weights[:, :, 1:] = draws != targets[:, :, None]
    # Negated output rows: exp(-z) comes straight from them, and the negated
    # error ``labels - sigmoid(z)`` against them gives the gradient exactly.
    minus_out, minus_bias = -U[rows], -b[rows]

    def sampled_gradients(j: int, h: np.ndarray) -> np.ndarray:
        exp_minus_z = np.exp(np.matmul(minus_out[j], h[:, :, None])[:, :, 0] + minus_bias[j])
        minus_g = labels[j] - weights[j] / (1.0 + exp_minus_z)
        return np.matmul(minus_g[:, None, :], minus_out[j])[:, 0]

    return sampled_gradients


# Inference prepares the windows and output rows of this many (step,
# document) pairs at a time, which bounds the memory they take.
_BLOCK_ROWS = 256


def infer_matrix(streams: Sequence, model: EmbeddingModel, epochs: int | None = None,
                 seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Optimize a fresh doc vector per stream against frozen model weights.

    Returns the vectors as the rows of an N×d matrix, and N flags marking
    the streams with no in-vocabulary tokens, whose rows are zero.

    Every document starts from the same seeded vector (the seed defaults to
    the training seed) and takes ``epochs`` passes of one step per token,
    each step drawing the same noise words for every document. So all
    documents run in lock-step, longest first: at step ``s`` each document
    still running predicts its token ``s mod len`` from its own context
    window, at its own learning rate ``alpha + (min_alpha - alpha) * s /
    (epochs * len)``. A row is the same whether its stream is inferred
    alone or in a batch.
    """
    epochs = model.config.epochs if epochs is None else epochs
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    ids = [model.token_ids(stream) for stream in streams]
    lengths = np.array([len(doc) for doc in ids], dtype=np.int64)
    values = np.zeros((len(ids), model.vector_size))
    oov = lengths == 0
    order = np.argsort(-lengths, kind="stable")
    order = order[lengths[order] > 0]
    if len(order) == 0:
        return values, oov

    # Documents laid end to end, each after ``window`` padding slots, so a
    # window never reaches into a neighbour; ``present`` zeroes the padding.
    window = model.config.window
    lengths = lengths[order]
    starts = np.cumsum(lengths + window) - lengths
    tokens = np.zeros(starts[-1] + lengths[-1] + window, dtype=np.int64)
    present = np.zeros(len(tokens))
    for start, doc in zip(starts.tolist(), order.tolist()):
        tokens[start:start + len(ids[doc])] = ids[doc]
        present[start:start + len(ids[doc])] = 1.0
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))

    rng = np.random.default_rng(model.config.seed if seed is None else seed)
    d = model.vector_size
    vectors = np.tile((rng.random(d) - 0.5) / d, (len(order), 1))
    alpha, min_alpha = model.config.alpha, model.config.min_alpha(model.mode)
    ends = epochs * lengths
    step = 0
    for n in range(len(order), 0, -1):  # documents [0, n) run until step ends[n - 1]
        vec, stop, block = vectors[:n], int(ends[n - 1]), max(1, _BLOCK_ROWS // n)
        for first in range(step, stop, block):
            steps = np.arange(first, min(stop, first + block))[:, None]
            center = starts[:n] + steps % lengths[:n]
            # per-step factors repeated along the vector: same-shape
            # operands keep numpy's per-step overhead low
            lr = alpha + (min_alpha - alpha) * (steps / ends[:n])
            lr = np.repeat(lr[:, :, None], d, axis=2)
            gradients = _hidden_gradients(model, tokens[center], rng)
            if model.mode == PV_DBOW:
                for j in range(len(steps)):
                    vec -= lr[j] * gradients(j, vec)
                continue
            slots = center[:, :, None] + offsets
            mask = present[slots][:, :, :, None]
            n_avg = np.repeat(mask.sum(axis=2) + 1, d, axis=2)
            context = (model.W[tokens[slots]] * mask).sum(axis=2)
            for j in range(len(steps)):
                share = gradients(j, (vec + context[j]) / n_avg[j]) / n_avg[j]
                vec -= lr[j] * share
        step = stop
    values[order] = vectors
    return values, oov


def infer_vector(stream, model: EmbeddingModel,
                 epochs: int | None = None, seed: int | None = None) -> DocVector:
    """One stream's row of :func:`infer_matrix`. A stream with no
    in-vocabulary tokens yields a zero vector flagged ``oov``."""
    values, oov = infer_matrix([stream], model, epochs=epochs, seed=seed)
    return DocVector(values=values[0], oov=bool(oov[0]))


def combined_matrix(streams: Sequence, model_dm: EmbeddingModel, model_dbow: EmbeddingModel,
                    epochs: int | None = None,
                    seed: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated DM and DBOW rows of :func:`infer_matrix` (dimension 2d);
    a stream is flagged out of vocabulary when it is for both models."""
    if model_dm.vector_size != model_dbow.vector_size:
        raise ValueError("models have mismatched vector sizes")
    dm, dm_oov = infer_matrix(streams, model_dm, epochs=epochs, seed=seed)
    dbow, dbow_oov = infer_matrix(streams, model_dbow, epochs=epochs, seed=seed)
    return np.hstack((dm, dbow)), dm_oov & dbow_oov


def combined_vector(stream, model_dm: EmbeddingModel, model_dbow: EmbeddingModel,
                    epochs: int | None = None, seed: int | None = None) -> DocVector:
    """One stream's row of :func:`combined_matrix`."""
    values, oov = combined_matrix([stream], model_dm, model_dbow, epochs=epochs, seed=seed)
    return DocVector(values=values[0], oov=bool(oov[0]))


def doc_cosine(u: DocVector, v: DocVector) -> float:
    """Cosine of dense doc vectors; 0 when either is a zero vector."""
    nu = float(np.linalg.norm(u.values))
    nv = float(np.linalg.norm(v.values))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u.values @ v.values) / (nu * nv)


def doc_cosines(vectors: np.ndarray, norms: np.ndarray, query: np.ndarray,
                query_norm: float) -> np.ndarray:
    """:func:`doc_cosine` of a query vector against every row of
    ``vectors``, given the norms of both: 0 where either is a zero vector."""
    if query_norm == 0.0:
        return np.zeros(len(vectors))
    return np.divide(vectors @ query, norms * query_norm, out=np.zeros(len(vectors)),
                     where=norms != 0.0)


# A model's artifact (see bugloc.container) holds what inference reads: the
# terms in id order with their counts, W and U (terms × vector size,
# row-major) and b. Mode and config are not stored: the cache's fingerprint
# pins them.
LAYOUT = container.Layout(b"bugloc-pv v3\n", [
    ("terms", container.STR), ("counts", "i4"), ("W", "f8"), ("U", "f8"), ("b", "f8")])


def save_model(model: EmbeddingModel) -> list:
    """The buffers of the model's artifact, in write order."""
    return LAYOUT.encode({"terms": model.terms, "counts": model.counts, "W": model.W,
                          "U": model.U, "b": model.b})


def load_model(data: bytes, mode: str, config: EmbeddingConfig) -> EmbeddingModel:
    """The model of that mode and config whose artifact :func:`save_model`
    wrote; ``ValueError`` for any other bytes. Nothing is unpickled, and the
    arrays are read-only views of ``data``."""
    a = LAYOUT.decode(data)
    terms, counts, d = a["terms"], a["counts"], config.vector_size
    if (not terms or len(set(terms)) != len(terms) or len(counts) != len(terms)
            or len(a["W"]) != len(terms) * d or len(a["U"]) != len(terms) * d
            or len(a["b"]) != len(terms) or counts.min() < 1):
        raise ValueError("model arrays disagree with its terms and vector size")
    return EmbeddingModel(mode, config, terms, counts, a["W"].reshape(-1, d),
                          a["U"].reshape(-1, d), a["b"])
