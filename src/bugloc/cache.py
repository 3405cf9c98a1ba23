"""On-disk cache for offline-trained global models and the token-stream index.

Every artifact gets a sidecar ``.meta.json`` holding a fingerprint of the
corpus contents and the preprocessing/embedding configuration that
produced it, plus the sha256 of the artifact's bytes. An artifact is
written to a temporary file and moved into place, so it is never seen half
written. A fingerprint mismatch forces a rebuild; so does an artifact that
no longer matches its sha256 or cannot be read, with a warning. Nothing is
trusted by filename alone, and nothing is unpickled.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
import sys
from array import array
from pathlib import Path

from . import embedding, tfidf
from .corpus import Benchmark
from .preprocess import BUG_REPORT, SOURCE_FILE, PreprocessConfig, TokenStream

logger = logging.getLogger(__name__)


def corpus_digest(benchmark: Benchmark) -> str:
    """Content hash over project names, file paths/texts and bug reports."""
    h = hashlib.sha256()
    for project in sorted(benchmark.projects, key=lambda p: p.name):
        h.update(project.name.encode())
        for src in project.source_files:
            h.update(src.id.encode())
            h.update(hashlib.sha256(src.raw_text.encode()).digest())
        for report in project.bug_reports:
            h.update(report.id.encode())
            h.update(hashlib.sha256(report.text.encode()).digest())
            h.update(",".join(sorted(report.fixed_files)).encode())
    return h.hexdigest()


def _documents(benchmark: Benchmark):
    """(document, origin) in corpus_digest order: projects by name, each
    project's source files, then its bug reports."""
    for project in sorted(benchmark.projects, key=lambda p: p.name):
        for src in project.source_files:
            yield src, SOURCE_FILE
        for report in project.bug_reports:
            yield report, BUG_REPORT


# Token-stream index: this header line, then three little-endian int64
# (byte length of the terms, number of document offsets, number of term
# ids), the distinct terms as UTF-8 joined by "\n", the int64 offsets of
# each document's first term id and of the end, and the int32 term ids.
_TOKENS_HEADER = b"bugloc-tokens v1\n"


def _encode_streams(streams) -> list:
    """The index of the streams, as the buffers to write in order."""
    term_ids: dict[str, int] = {}
    offsets, ids = array("q", [0]), array("i")  # int32 on every supported platform
    for stream in streams:
        ids.extend(term_ids.setdefault(t, len(term_ids)) for t in stream.tokens)
        offsets.append(len(ids))
    if sys.byteorder == "big":
        offsets.byteswap()
        ids.byteswap()
    terms = "\n".join(term_ids).encode("utf-8")
    return [_TOKENS_HEADER, struct.pack("<3q", len(terms), len(offsets), len(ids)), terms,
            offsets, ids]


def _decode_streams(data: bytes, origins: list[str]) -> list[TokenStream]:
    """Token streams of a verified index; every stream shares one str per term."""
    if not data.startswith(_TOKENS_HEADER):
        raise ValueError("not a token-stream index")
    start = len(_TOKENS_HEADER) + 24
    if len(data) < start:
        raise ValueError("token-stream index header cut short")
    n_bytes, n_offsets, n_ids = struct.unpack_from("<3q", data, len(_TOKENS_HEADER))
    if (n_bytes < 0 or n_ids < 0 or n_offsets != len(origins) + 1
            or len(data) != start + n_bytes + 8 * n_offsets + 4 * n_ids):
        raise ValueError("token-stream index does not fit the corpus")
    terms = data[start:start + n_bytes].decode("utf-8").split("\n") if n_bytes else []
    offsets, ids = array("q"), array("i")
    offsets.frombytes(data[start + n_bytes:start + n_bytes + 8 * n_offsets])
    ids.frombytes(data[start + n_bytes + 8 * n_offsets:])
    if sys.byteorder == "big":
        offsets.byteswap()
        ids.byteswap()
    if (offsets[0] != 0 or offsets[-1] != n_ids
            or any(a > b for a, b in zip(offsets, offsets[1:]))
            or (n_ids and not 0 <= min(ids) <= max(ids) < len(terms))):
        raise ValueError("token-stream index offsets or term ids out of range")
    lookup = terms.__getitem__
    return [TokenStream(tuple(map(lookup, ids[a:b])), origin)
            for origin, a, b in zip(origins, offsets, offsets[1:])]


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _replace(path: Path, write) -> str:
    """Write ``path`` through ``write(tmp)`` to a temporary file beside it,
    then move that into place; returns the sha256 of what was written."""
    tmp = path.with_name(f"{path.stem}.tmp{os.getpid()}{path.suffix}")
    try:
        write(tmp)
        sha = _file_sha256(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return sha


def _fingerprint(kind: str, held_out: str, corpus: str,
                 preprocess_config: PreprocessConfig,
                 embed_config: embedding.EmbeddingConfig | None) -> str:
    payload = {
        "kind": kind,
        "held_out": held_out,
        "corpus": corpus,
        "preprocess": preprocess_config.fingerprint(),
        "embedding": embed_config.fingerprint() if embed_config else None,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class ArtifactCache:
    """Directory of per-held-out-project global models and of the token
    streams of the whole benchmark."""

    def __init__(self, directory, benchmark: Benchmark,
                 preprocess_config: PreprocessConfig,
                 embed_config: embedding.EmbeddingConfig | None = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.benchmark = benchmark
        self.preprocess_config = preprocess_config
        self.embed_config = embed_config
        self._corpus = corpus_digest(benchmark)

    def _paths(self, kind: str, held_out: str) -> tuple[Path, Path]:
        suffix = {"idf": "txt", "tokens": "bin"}.get(kind, "npz")
        stem = f"{kind}_{held_out}" if held_out else kind
        artifact = self.directory / f"{stem}.{suffix}"
        return artifact, artifact.with_suffix(artifact.suffix + ".meta.json")

    def _is_fresh(self, kind: str, held_out: str, embed_config,
                  data: bytes | None = None) -> bool:
        """Whether the artifact was recorded under today's fingerprint and
        its bytes (``data``, or else the file's) hash to the recorded sha256."""
        artifact, meta = self._paths(kind, held_out)
        if not artifact.is_file() or not meta.is_file():
            return False
        rebuild = "re-preprocessing" if kind == "tokens" else "retraining"
        try:
            recorded = json.loads(meta.read_text("utf-8"))
            fingerprint, sha = recorded["fingerprint"], recorded["sha256"]
        except (json.JSONDecodeError, KeyError, TypeError, OSError):
            logger.warning("unreadable cache metadata for %s; %s", artifact.name, rebuild)
            return False
        if fingerprint != _fingerprint(kind, held_out, self._corpus,
                                       self.preprocess_config, embed_config):
            return False
        actual = hashlib.sha256(data).hexdigest() if data is not None else _file_sha256(artifact)
        if actual != sha:
            logger.warning("cache artifact %s does not match its recorded sha256; %s",
                           artifact.name, rebuild)
            return False
        return True

    def _store(self, kind: str, held_out: str, embed_config, write) -> None:
        """Put the artifact in place with ``write(path)``, then record its
        fingerprint and sha256."""
        artifact, meta = self._paths(kind, held_out)
        record = {
            "fingerprint": _fingerprint(kind, held_out, self._corpus,
                                        self.preprocess_config, embed_config),
            "sha256": _replace(artifact, write),
        }
        _replace(meta, lambda tmp: tmp.write_text(json.dumps(record, indent=2), "utf-8"))

    def load_token_streams(self) -> bool:
        """Fill every document's ``token_stream`` from the index; False, with
        nothing filled, when the index is missing, stale or damaged."""
        artifact, _ = self._paths("tokens", "")
        try:
            data = artifact.read_bytes()
        except OSError:
            return False
        if not self._is_fresh("tokens", "", None, data):
            return False
        docs = list(_documents(self.benchmark))
        try:
            streams = _decode_streams(data, [origin for _, origin in docs])
        except (ValueError, UnicodeDecodeError) as exc:
            logger.warning("corrupt token-stream index %s (%s); re-preprocessing",
                           artifact.name, exc)
            return False
        for (doc, _), stream in zip(docs, streams):
            doc.token_stream = stream
        return True

    def save_token_streams(self) -> None:
        """Write the index of every document's current ``token_stream``."""
        chunks = _encode_streams(doc.token_stream for doc, _ in _documents(self.benchmark))

        def write(tmp):
            with open(tmp, "wb") as fh:
                fh.writelines(chunks)

        self._store("tokens", "", None, write)

    def global_vocabulary(self, held_out: str) -> tfidf.Vocabulary:
        """Load or build the leakage-safe global IDF model for a project."""
        artifact, _ = self._paths("idf", held_out)
        if self._is_fresh("idf", held_out, None):
            try:
                return tfidf.load_vocabulary(artifact)
            except (ValueError, OSError) as exc:
                logger.warning("corrupt cached IDF model %s (%s); retraining",
                               artifact.name, exc)
        logger.info("building global IDF model, held-out project %s", held_out)
        vocab = tfidf.build_global_idf(self.benchmark, held_out)
        self._store("idf", held_out, None, lambda tmp: tfidf.save_vocabulary(vocab, tmp))
        return vocab

    def _training_corpus(self, held_out: str):
        """Source files of every project plus the other projects' reports."""
        docs, ids, vocab_docs = [], [], []
        for project in self.benchmark.projects:
            for src in project.source_files:
                docs.append(src.token_stream)
                ids.append(f"{project.name}/{src.id}")
                vocab_docs.append(src.token_stream)
            if project.name == held_out:
                continue
            for report in project.bug_reports:
                docs.append(report.token_stream)
                ids.append(f"{project.name}#{report.id}")
        return docs, ids, vocab_docs

    def embedding_model(self, held_out: str, mode: str) -> embedding.EmbeddingModel:
        """Load or train the paragraph-vector model of the given mode."""
        if self.embed_config is None:
            raise ValueError("no embedding configuration supplied")
        kind = "dm" if mode == embedding.PV_DM else "dbow"
        artifact, _ = self._paths(kind, held_out)
        if self._is_fresh(kind, held_out, self.embed_config):
            try:
                return embedding.load_model(artifact)
            except (ValueError, OSError, KeyError, TypeError) as exc:
                logger.warning("corrupt cached model %s (%s); retraining",
                               artifact.name, exc)
        logger.info("training %s model, held-out project %s", mode, held_out)
        docs, ids, vocab_docs = self._training_corpus(held_out)
        model = embedding.train(docs, self.embed_config, mode,
                                doc_ids=ids, vocab_documents=vocab_docs)
        self._store(kind, held_out, self.embed_config,
                    lambda tmp: embedding.save_model(model, tmp))
        return model

    def train_all(self, held_out_projects, with_embeddings: bool = True) -> dict:
        """Materialize artifacts for each held-out project; returns paths."""
        built = {}
        for name in held_out_projects:
            self.global_vocabulary(name)
            entry = {"idf": str(self._paths("idf", name)[0])}
            if with_embeddings:
                self.embedding_model(name, embedding.PV_DM)
                self.embedding_model(name, embedding.PV_DBOW)
                entry["dm"] = str(self._paths("dm", name)[0])
                entry["dbow"] = str(self._paths("dbow", name)[0])
            built[name] = entry
        return built
