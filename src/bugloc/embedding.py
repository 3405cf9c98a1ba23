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

import json
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

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
    hs: bool = False
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
    source_doc_id: str | None = None
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


def _hidden_state(W, D, mode, doc_index, context) -> tuple[np.ndarray, int]:
    """Hidden state h and the number of vectors averaged into it."""
    if mode == PV_DBOW:
        return D[doc_index].copy(), 1
    n = len(context) + 1
    h = D[doc_index].copy()
    for c in context:
        h += W[c]
    return h / n, n


def example_loss(W, D, U, b, mode, doc_index, target, context=(), negatives=None) -> float:
    """Loss of a single prediction; full softmax when ``negatives`` is None,
    otherwise negative sampling against the given noise-word indices."""
    h, _ = _hidden_state(W, D, mode, doc_index, context)
    if negatives is None:
        return -math.log(softmax(U @ h + b)[target])
    rows = np.concatenate(([target], negatives)).astype(int)
    z = U[rows] @ h + b[rows]
    return float(-_log_sigmoid(z[0]) - _log_sigmoid(-z[1:]).sum())


def example_gradients(W, D, U, b, mode, doc_index, target, context=(), negatives=None):
    """Analytic gradients of :func:`example_loss` w.r.t. all parameters.

    Returns ``(loss, gW, gD, gU, gb)`` as dense arrays shaped like the
    inputs; meant for small models (tests, diagnostics).
    """
    h, n_avg = _hidden_state(W, D, mode, doc_index, context)
    gU = np.zeros_like(U)
    gb = np.zeros_like(b)
    if negatives is None:
        p = softmax(U @ h + b)
        loss = -math.log(p[target])
        g = p.copy()
        g[target] -= 1.0
        gU += np.outer(g, h)
        gb += g
        gh = U.T @ g
    else:
        rows = np.concatenate(([target], negatives)).astype(int)
        z = U[rows] @ h + b[rows]
        loss = float(-_log_sigmoid(z[0]) - _log_sigmoid(-z[1:]).sum())
        labels = np.zeros(len(rows))
        labels[0] = 1.0
        g = _sigmoid(z) - labels
        np.add.at(gU, rows, np.outer(g, h))
        np.add.at(gb, rows, g)
        gh = g @ U[rows]
    gW = np.zeros_like(W)
    gD = np.zeros_like(D)
    if mode == PV_DBOW:
        gD[doc_index] = gh
    else:
        share = gh / n_avg
        gD[doc_index] = share
        np.add.at(gW, list(context), share)
    return loss, gW, gD, gU, gb


class EmbeddingModel:
    """Trained paragraph-vector model; immutable after training."""

    def __init__(self, mode, config, terms, counts, doc_ids, W, D, U, b):
        self.mode = mode
        self.config = config
        self.terms = list(terms)
        self.term_index = {t: i for i, t in enumerate(self.terms)}
        self.counts = np.asarray(counts, dtype=np.int64)
        self.doc_ids = list(doc_ids)
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

    def doc_vector(self, doc_id: str) -> np.ndarray:
        return self.D[self.doc_ids.index(doc_id)]

    def sample_negatives(self, target: int, rng) -> np.ndarray:
        """Draw noise words from the unigram^0.75 table, skipping the target."""
        draws = np.searchsorted(self.noise_cum, rng.random(self.config.negative))
        return draws[draws != target]


def _context_window(ids: np.ndarray, pos: int, window: int) -> np.ndarray:
    lo = max(0, pos - window)
    return np.concatenate((ids[lo:pos], ids[pos + 1:pos + window + 1]))


def _sgd_step(model: EmbeddingModel, doc_index, target, context, lr, rng,
              train_doc: np.ndarray | None = None, freeze_words: bool = False) -> float:
    """One prediction step, updating parameters in place.

    ``train_doc`` substitutes an external doc vector (inference); with
    ``freeze_words`` only that vector learns.
    """
    W, U, b = model.W, model.U, model.b
    doc_vec = model.D[doc_index] if train_doc is None else train_doc
    if model.mode == PV_DBOW:
        h, n_avg = doc_vec.copy(), 1
        context = np.empty(0, dtype=np.int64)
    else:
        n_avg = len(context) + 1
        h = (doc_vec + W[context].sum(axis=0)) / n_avg if len(context) else doc_vec.copy()

    if model.config.negative > 0:
        negatives = model.sample_negatives(target, rng)
        rows = np.concatenate(([target], negatives))
        z = U[rows] @ h + b[rows]
        labels = np.zeros(len(rows))
        labels[0] = 1.0
        g = _sigmoid(z) - labels
        loss = float(-_log_sigmoid(z[0]) - _log_sigmoid(-z[1:]).sum())
        gh = g @ U[rows]
        if not freeze_words:
            np.add.at(U, rows, -lr * np.outer(g, h))
            np.add.at(b, rows, -lr * g)
    else:
        p = softmax(U @ h + b)
        loss = -math.log(p[target])
        g = p
        g[target] -= 1.0
        gh = U.T @ g
        if not freeze_words:
            U -= lr * np.outer(g, h)
            b -= lr * g
    share = gh / n_avg
    doc_vec -= lr * share
    if model.mode == PV_DM and len(context) and not freeze_words:
        np.add.at(W, context, -lr * share)
    return loss


def corpus_loss(model: EmbeddingModel, doc_token_ids: Sequence[np.ndarray]) -> float:
    """Mean full-softmax loss over every prediction in the corpus; the
    deterministic objective used for before/after training comparisons."""
    total, count = 0.0, 0
    window = model.config.window
    for doc_index, ids in enumerate(doc_token_ids):
        for pos in range(len(ids)):
            context = _context_window(ids, pos, window) if model.mode == PV_DM else ()
            total += example_loss(model.W, model.D, model.U, model.b, model.mode,
                                  doc_index, ids[pos], context)
            count += 1
    if count == 0:
        raise TrainingError("no in-vocabulary tokens to evaluate")
    return total / count


def train(documents: Iterable, config: EmbeddingConfig, mode: str,
          doc_ids: Sequence[str] | None = None,
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
    if config.hs:
        raise TrainingError("hierarchical softmax training is not supported")
    docs = [_tokens(d) for d in documents]
    if len(docs) < 2:
        raise ValueError("need at least 2 documents to train")
    if doc_ids is None:
        doc_ids = [f"doc{i}" for i in range(len(docs))]
    elif len(doc_ids) != len(docs):
        raise ValueError("doc_ids length does not match documents")

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
    model = EmbeddingModel(mode, config, terms, counts, doc_ids, W, D, U, b)

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


def infer_vector(stream, model: EmbeddingModel,
                 epochs: int | None = None, seed: int | None = None) -> DocVector:
    """Optimize a fresh doc vector against frozen model weights.

    Deterministic for a fixed seed (defaults to the training seed). A
    stream with no in-vocabulary tokens yields a zero vector flagged
    ``oov``.
    """
    doc_id = getattr(stream, "source_doc_id", None)
    ids = model.token_ids(stream)
    if len(ids) == 0:
        return DocVector(values=np.zeros(model.vector_size), source_doc_id=doc_id, oov=True)
    rng = np.random.default_rng(model.config.seed if seed is None else seed)
    vec = (rng.random(model.vector_size) - 0.5) / model.vector_size
    epochs = epochs if epochs is not None else model.config.epochs
    alpha, min_alpha = model.config.alpha, model.config.min_alpha(model.mode)
    total_steps = epochs * len(ids)
    step = 0
    for _ in range(epochs):
        for pos in range(len(ids)):
            lr = alpha + (min_alpha - alpha) * (step / total_steps)
            step += 1
            context = (_context_window(ids, pos, model.config.window)
                       if model.mode == PV_DM else np.empty(0, dtype=np.int64))
            _sgd_step(model, 0, ids[pos], context, lr, rng,
                      train_doc=vec, freeze_words=True)
    return DocVector(values=vec, source_doc_id=doc_id)


def combined_vector(stream, model_dm: EmbeddingModel, model_dbow: EmbeddingModel,
                    epochs: int | None = None, seed: int | None = None) -> DocVector:
    """Concatenated DM and DBOW inferred vectors (dimension 2d)."""
    if model_dm.vector_size != model_dbow.vector_size:
        raise ValueError("models have mismatched vector sizes")
    dm = infer_vector(stream, model_dm, epochs=epochs, seed=seed)
    dbow = infer_vector(stream, model_dbow, epochs=epochs, seed=seed)
    return DocVector(values=np.concatenate((dm.values, dbow.values)),
                     source_doc_id=dm.source_doc_id, oov=dm.oov and dbow.oov)


def doc_cosine(u: DocVector, v: DocVector) -> float:
    """Cosine of dense doc vectors; 0 when either is a zero vector."""
    nu = float(np.linalg.norm(u.values))
    nv = float(np.linalg.norm(v.values))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u.values @ v.values) / (nu * nv)


_FORMAT_VERSION = 2  # 2: terms and doc ids as unicode arrays, not pickled objects


def save_model(model: EmbeddingModel, path) -> None:
    np.savez_compressed(
        path,
        version=_FORMAT_VERSION,
        mode=model.mode,
        terms=np.array(model.terms, dtype=str),
        counts=model.counts,
        doc_ids=np.array(model.doc_ids, dtype=str),
        W=model.W, D=model.D, U=model.U, b=model.b,
        config=json.dumps(asdict(model.config)),
    )


def load_model(path) -> EmbeddingModel:
    """Load a saved model; a file holding pickled objects raises ValueError."""
    with np.load(path, allow_pickle=False) as data:
        if int(data["version"]) != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported model format version")
        config = EmbeddingConfig(**json.loads(str(data["config"])))
        return EmbeddingModel(
            mode=str(data["mode"]),
            config=config,
            terms=data["terms"].tolist(),
            counts=data["counts"],
            doc_ids=data["doc_ids"].tolist(),
            W=data["W"], D=data["D"], U=data["U"], b=data["b"],
        )
