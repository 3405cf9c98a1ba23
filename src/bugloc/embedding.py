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
initialization, document shuffling, subsampling and noise draws. SGD takes
one step per token, epoch by epoch (documents shuffled, the learning rate
decaying per step), each step reading the weights the one before updated.
What no step changes is prepared a block of steps at a time: the random
draws (the same doubles, in the same order, as one draw per step), the
output rows, the context windows, and flags for the steps whose output
rows or context words repeat, which keep ``np.add.at``; every other step
writes its rows with plain fancy indexing, which adds the same floats.
Each step runs the kernel that :func:`prediction_gradients` runs, and a
block's losses come from its loss function over all of the block's scores
at once, so the weights and losses are those of a one-step loop bit for
bit.
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
        floats = (self.alpha, self.sample, self.min_alpha_dm, self.min_alpha_dbow)
        if not all(math.isfinite(value) for value in floats if value is not None):
            raise ValueError("alpha, sample and min_alpha must be finite")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.sample < 0:
            raise ValueError("sample must be >= 0")
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


def _hidden(W, D, mode, doc_index, context) -> tuple[int, np.ndarray]:
    """The number of vectors a prediction's hidden state averages, and the
    state: doc vector ``D[doc_index]``, in PV-DM averaged with the
    ``context`` word vectors."""
    if mode == PV_DM and len(context):
        n_avg = len(context) + 1
        return n_avg, (D[doc_index] + W[np.asarray(context)].sum(axis=0)) / n_avg
    return 1, D[doc_index]


def _softmax_gradients(U, b, h, target):
    """Full-softmax loss of ``target`` given hidden state ``h``, the error
    ``g`` (the softmax minus the one-hot target: the gradient with respect
    to ``b``) and the gradient ``U.T @ g`` with respect to ``h``."""
    g = softmax(U @ h + b)
    loss = -math.log(g[target])
    g[target] -= 1.0
    return loss, g, U.T @ g


def _sampled_gradients(out, bias, h):
    """Negative sampling's scores ``z`` of the output rows ``out`` (the
    target's first, then the noise words') with biases ``bias`` given
    hidden state ``h``, the error ``g = sigmoid(z) - label`` (the gradient
    with respect to the biases) and the gradient ``g @ out`` with respect
    to ``h``."""
    z = out @ h + bias
    g = _sigmoid(z)
    g[0] -= 1.0
    return z, g, g @ out


def _sampled_loss(z):
    """Negative-sampling loss of the scores ``z`` (the target's first), or
    of each row of a matrix of them: a row's loss is the same float either
    way."""
    return -_log_sigmoid(z[..., 0]) - _log_sigmoid(-z[..., 1:]).sum(axis=-1)


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
    Training runs the same functions step by step.
    """
    n_avg, h = _hidden(W, D, mode, doc_index, context)
    if negatives is None:
        rows = slice(None)
        loss, g, g_hidden = _softmax_gradients(U, b, h, target)
    else:
        rows = np.concatenate(([target], negatives))
        z, g, g_hidden = _sampled_gradients(U[rows], b[rows], h)
        loss = float(_sampled_loss(z))
    return loss, rows, g[:, None] * h, g, g_hidden / n_avg


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


def _context_window(ids: np.ndarray, pos: int, window: int) -> np.ndarray:
    lo = max(0, pos - window)
    return np.concatenate((ids[lo:pos], ids[pos + 1:pos + window + 1]))


# Training and inference prepare the draws, windows and output rows of this
# many steps (in inference, (step, document) pairs) at a time, which bounds
# the memory they take.
_BLOCK_ROWS = 256
_NO_CONTEXT = np.empty(0, dtype=np.int64)


def _layout(doc_ids: Sequence[np.ndarray], window: int):
    """Documents laid end to end, each after ``window`` padding slots, so
    that a context window never reaches into a neighbour: each document's
    first slot, every slot's token id, and which slots hold a token."""
    lengths = np.array([len(ids) for ids in doc_ids], dtype=np.int64)
    starts = np.cumsum(lengths + window) - lengths
    tokens = np.zeros(starts[-1] + lengths[-1] + window, dtype=np.int64)
    present = np.zeros(len(tokens), dtype=bool)
    for start, ids in zip(starts.tolist(), doc_ids):
        tokens[start:start + len(ids)] = ids
        present[start:start + len(ids)] = True
    return starts, tokens, present


def _window_offsets(window: int) -> np.ndarray:
    return np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))


def _noise(model: EmbeddingModel, rng, n: int, keep_prob=None):
    """The positions of a block of ``n`` that train, and the noise words of
    each one that does (a row of ``negative``), read from ``rng`` in the
    per-step order: under subsampling (``keep_prob``, each position's keep
    probability, not None) a position's keep draw and then, if it trains,
    its noise draws. It never draws more doubles than the block reads, so
    the next block, or the next epoch's shuffle, reads on where it stopped.
    """
    negative = model.config.negative
    if keep_prob is None:
        return np.arange(n), np.searchsorted(model.noise_cum, rng.random((n, negative)))
    kept, noise, buffer, at = [], [], [], 0
    for i, p in enumerate(keep_prob.tolist()):
        if at == len(buffer):  # every position left reads one double at least
            buffer, at = rng.random(n - i).tolist(), 0
        at += 1
        if buffer[at - 1] > p:
            continue
        kept.append(i)
        row = buffer[at:at + negative]
        at += len(row)
        if len(row) < negative:  # the rest of this row, and one double per position left
            buffer = rng.random(negative - len(row) + n - i - 1).tolist()
            at = negative - len(row)
            row += buffer[:at]
        noise.append(row)
    doubles = np.array(noise, dtype=float).reshape(len(kept), negative)
    return np.array(kept, dtype=np.intp), np.searchsorted(model.noise_cum, doubles)


def _repeats(ids: np.ndarray) -> list[bool]:
    """Per row of ``ids``, whether a value occurs in it twice."""
    ordered = np.sort(ids, axis=1)
    return (ordered[:, 1:] == ordered[:, :-1]).any(axis=1).tolist()


def _train_block(model: EmbeddingModel, docs: np.ndarray, centers: np.ndarray,
                 noise: np.ndarray, lrs: np.ndarray, tokens: np.ndarray,
                 present: np.ndarray) -> list[float]:
    """Take one block's SGD steps in order, updating the weights in place,
    and return each step's loss. Step ``s`` predicts the token in slot
    ``centers[s]`` of the :func:`_layout` (``tokens``, ``present``) of
    document ``docs[s]`` against noise words ``noise[s]``, at learning rate
    ``lrs[s]``."""
    W, D, U, b, mode = model.W, model.D, model.U, model.b, model.mode
    targets = tokens[centers]
    n = len(targets)
    contexts = [_NO_CONTEXT] * n
    shared = [False] * n
    if mode == PV_DM:
        slots = centers[:, None] + _window_offsets(model.config.window)
        inside = present[slots]
        words = tokens[slots]
        contexts = [row[mask] for row, mask in zip(words, inside)]
        # padding slots get distinct negative ids, so only words can repeat
        shared = _repeats(np.where(inside, words, -1 - np.arange(slots.shape[1])))
    losses = np.zeros(n)
    negative = model.config.negative
    if negative:
        rows = np.empty((n, negative + 1), dtype=np.intp)
        rows[:, 0] = targets
        rows[:, 1:] = noise
        drawn = rows != targets[:, None]  # a step drops each draw of its target
        drawn[:, 0] = True
        filtered = (~drawn).any(axis=1).tolist()
        repeated = _repeats(rows)
        scores = np.zeros(rows.shape)
    for s, (doc, target, lr, context) in enumerate(zip(docs.tolist(), targets.tolist(),
                                                        lrs.tolist(), contexts)):
        n_avg, h = _hidden(W, D, mode, doc, context)
        if not negative:
            losses[s], g, g_hidden = _softmax_gradients(U, b, h, target)
            U -= lr * (g[:, None] * h)
            b -= lr * g
        else:
            step_rows = rows[s][drawn[s]] if filtered[s] else rows[s]
            out, bias = U[step_rows], b[step_rows]
            z, g, g_hidden = _sampled_gradients(out, bias, h)
            step_out, step_bias = -lr * (g[:, None] * h), -lr * g
            if repeated[s]:
                np.add.at(U, step_rows, step_out)
                np.add.at(b, step_rows, step_bias)
            else:
                U[step_rows] = out + step_out
                b[step_rows] = bias + step_bias
            if filtered[s]:
                losses[s] = _sampled_loss(z)
            else:
                scores[s] = z
        # dividing by 1 and subtracting x in place of adding -x change no float
        step = lr * (g_hidden / n_avg if n_avg > 1 else g_hidden)
        row = D[doc]
        row -= step
        if len(context):
            if shared[s]:
                np.subtract.at(W, context, step)
            else:
                W[context] -= step
    if negative:
        losses = np.where(filtered, losses, _sampled_loss(scores))
    return losses.tolist()


def corpus_loss(model: EmbeddingModel, doc_token_ids: Sequence[np.ndarray]) -> float:
    """Mean full-softmax loss over every prediction in the corpus; the
    deterministic objective used for before/after training comparisons.
    Each loss is :func:`prediction_gradients`' full-softmax loss, bit for
    bit, with no gradient computed."""
    total, count = 0.0, 0
    window = model.config.window
    for doc_index, ids in enumerate(doc_token_ids):
        for pos in range(len(ids)):
            context = _context_window(ids, pos, window) if model.mode == PV_DM else ()
            _, h = _hidden(model.W, model.D, model.mode, doc_index, context)
            total += -math.log(softmax(model.U @ h + model.b)[ids[pos]])
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
    lengths = np.array([len(ids) for ids in doc_token_ids], dtype=np.int64)
    total_positions = int(lengths.sum())
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

    starts, tokens, present = _layout(doc_token_ids, config.window)
    for epoch in range(config.epochs):
        epoch_total, epoch_examples = 0.0, 0
        order = rng.permutation(len(docs))
        ends = np.cumsum(lengths[order])  # where each document's positions end in the epoch
        for first in range(0, total_positions, _BLOCK_ROWS):
            at = np.arange(first, min(first + _BLOCK_ROWS, total_positions))
            which = np.searchsorted(ends, at, side="right")
            docs_at = order[which]
            centers = starts[docs_at] + at - ends[which] + lengths[docs_at]
            kept, noise = _noise(model, rng, len(at),
                                 None if keep_prob is None else keep_prob[tokens[centers]])
            steps = epoch * total_positions + at[kept]
            for loss in _train_block(model, docs_at[kept], centers[kept], noise,
                                     alpha + (min_alpha - alpha) * (steps / total_steps),
                                     tokens, present):
                epoch_total += loss
            epoch_examples += len(kept)
        mean_loss = epoch_total / max(1, epoch_examples)
        if not math.isfinite(mean_loss):
            raise TrainingError(f"non-finite training loss at epoch {epoch}")
        model.epoch_losses.append(mean_loss)
    model.final_lr = alpha + (min_alpha - alpha) * ((total_steps - 1) / total_steps)

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
    target gets zero weight, as a training step drops it. Stacked matrix
    products keep each document's arithmetic independent of the other
    documents.
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
    draws = _noise(model, rng, steps)[1][:, None, :]
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

    lengths = lengths[order]
    starts, tokens, present = _layout([ids[doc] for doc in order.tolist()],
                                      model.config.window)
    offsets = _window_offsets(model.config.window)

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
            mask = present[slots][:, :, :, None]  # zeroes the padding
            n_avg = np.repeat(mask.sum(axis=2) + 1.0, d, axis=2)
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
