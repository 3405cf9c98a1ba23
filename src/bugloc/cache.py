"""On-disk cache: offline-trained global models, the token-stream index of
the benchmark, and per-project ranking indexes.

Artifacts, one file each in the cache directory:

- ``idf_<project>.txt``: the global IDF model with ``<project>`` held out;
- ``dm_<project>.npz``, ``dbow_<project>.npz``: its paragraph-vector models;
- ``tokens.bin``: the token streams of every document of the benchmark;
- ``index_local_<project>.bin``, ``index_global_<project>.bin``: the
  project's TF.IDF ranking arrays under that scope
  (:class:`~bugloc.rank.TfidfScope`), its file and report ids and each
  report's fixed-file columns. The first ``localize`` or ``evaluate`` that
  ranks with a scope builds its index; ``train-global`` builds none.

Every artifact gets a sidecar ``.meta.json`` holding a fingerprint of the
corpus and of the preprocessing/embedding configuration that produced it,
plus the sha256 of the artifact's bytes. The corpus part is
:func:`corpus_digest`, a hash over the bytes of every file the benchmark
loader reads, listed by the loader's own functions. An artifact is written
to a temporary file and moved into place, so it is never seen half written.
A fingerprint mismatch forces a rebuild; so does an artifact that no longer
matches its sha256 or cannot be read, with a warning. Nothing is unpickled.

The digest is looked up by stat, as git trusts its index: the record
``corpus.json`` holds the digest with the benchmark's absolute root,
``corpus.LOADER_VERSION`` and a hash of the (name, size, ``mtime_ns``,
``ctime_ns``, inode) of every file the loader reads. A call stats those
files and reuses the recorded digest when all of that matches and every
file is older than the record itself; a file whose ``mtime_ns`` or
``ctime_ns`` is not older than the record's ``mtime_ns`` may have changed
in the same clock tick ("racily clean") and counts as changed. Otherwise it
hashes every byte and records the digest with the stats taken before the
bytes were read. An edit that restores the old ``mtime_ns`` still moves
``ctime_ns``, and a file replaced by rename has another inode; only a
same-size edit on a filesystem that keeps neither ``mtime`` nor ``ctime``
goes unseen.

Ranking indexes are read only by :meth:`ArtifactCache.indexed_project`,
each once per call, and a hit is decided per project. A ``localize`` or
``evaluate`` ranking a project with TF.IDF methods only, whose every
requested scope has a fresh index, rebuilds the project from those indexes:
it stats the benchmark, reads no benchmark file and preprocesses nothing,
also when ``evaluate --projects`` names a subset. A project with any index
missing, stale or damaged is loaded, and all of its requested scopes are
rebuilt, with the same bytes for the indexes that were whole. The stats are
taken before the benchmark is read: an edit made while a call runs can be
cached under the digest of the bytes before it, and the next call, which
sees the new stats, rebuilds.
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
from typing import NamedTuple

import numpy as np

from . import corpus, embedding, rank, tfidf
from .corpus import Benchmark, BugReport, Project, SourceFile
from .preprocess import BUG_REPORT, SOURCE_FILE, PreprocessConfig, TokenStream

logger = logging.getLogger(__name__)


def _corpus_entries(root) -> list[tuple[bytes, str, str | None]]:
    """(tag, name relative to root, path to read or None) of what the
    benchmark loader reads under ``root``, in digest order."""
    entries = []
    for project in corpus.project_dirs(Path(root)):
        entries.append((b"P", project.name, None))
        files = corpus.project_files(project)
        entries += [(b"F", f"{project.name}/sources/{rel}", f"{project}/sources/{rel}")
                    for rel in files.sources]
        entries += [(b"F", f"{project.name}/{rel}", f"{project}/{rel}") for rel in files.reports]
    manifest = os.path.join(root, corpus.MANIFEST)
    if os.path.isfile(manifest):
        entries.append((b"M", corpus.MANIFEST, manifest))
    return entries


def corpus_digest(root, entries=None) -> str:
    """sha256 over what the benchmark loader reads under ``root``: the
    project directory names, the paths and bytes of each project's source
    and bug-report files, ``manifest.csv``, and ``corpus.LOADER_VERSION``.
    Each name and content goes in behind its tag and both lengths, so no two
    benchmarks feed the hash the same stream. ``entries`` is
    ``_corpus_entries(root)`` when the caller has listed it already."""
    h = hashlib.sha256(b"bugloc-corpus %d\n" % corpus.LOADER_VERSION)
    for tag, name, path in _corpus_entries(root) if entries is None else entries:
        data = b""
        if path is not None:
            with open(path, "rb", buffering=0) as fh:
                data = fh.read()
        encoded = name.encode("utf-8", "surrogateescape")
        h.update(tag + struct.pack("<2q", len(encoded), len(data)) + encoded)
        h.update(data)
    return h.hexdigest()


def _stat_key(entries) -> tuple[str, int]:
    """A hash of the entries' names and of each file's size, ``mtime_ns``,
    ``ctime_ns`` and inode, and the newest of those times (-1 for none)."""
    lines, newest = [], -1
    for tag, name, path in entries:
        line = f"{tag.decode()}\0{name}\0"
        if path is not None:
            st = os.stat(path)
            line += f"{st.st_size} {st.st_mtime_ns} {st.st_ctime_ns} {st.st_ino}"
            newest = max(newest, st.st_mtime_ns, st.st_ctime_ns)
        lines.append(line)
    return hashlib.sha256("\n".join(lines).encode("utf-8", "surrogateescape")).hexdigest(), newest


def _documents(benchmark: Benchmark):
    """(document, origin) in index order: projects by name, each project's
    source files, then its bug reports."""
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
        # ids go to each stream's new terms in first-occurrence order
        for term in dict.fromkeys(stream.tokens):
            term_ids.setdefault(term, len(term_ids))
        ids.extend(map(term_ids.__getitem__, stream.tokens))
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


# Ranking index: this header line, the int64 number of arrays, a table of
# one (name: 16 bytes, dtype: 8 bytes, both ASCII padded with NULs; length:
# int64) record per array in _INDEX_ARRAYS order, then the arrays in that
# order, little-endian, each padded with zeros to a multiple of 8 bytes.
# "fixed_offsets" and "fixed_columns" are CSR arrays of each report's fixed
# files as ascending file columns; "ids" is the JSON list [file ids in path
# order, report ids in row order]. The header is part of the index's
# fingerprint, so an index of another layout is stale, not corrupt.
_INDEX_HEADER = b"bugloc-index v2\n"
_INDEX_DTYPES = {"i8": np.dtype("<i8"), "f8": np.dtype("<f8"), "u1": np.dtype("u1")}
_INDEX_ARRAYS = [
    ("file_rows", "i8"), ("file_weights", "f8"), ("file_offsets", "i8"), ("file_norms", "f8"),
    ("length_weights", "f8"),
    ("report_rows", "i8"), ("report_weights", "f8"), ("report_offsets", "i8"),
    ("query_offsets", "i8"), ("query_terms", "i8"), ("query_weights", "f8"),
    ("query_norms", "f8"),
    ("fixed_offsets", "i8"), ("fixed_columns", "i8"),
    ("ids", "u1"),
]
_RECORD = struct.Struct("<16s8sq")


class _Index(NamedTuple):
    """What a ranking index holds: the scope's arrays, the project's file
    ids in path order, its report ids in row order, and the CSR arrays of
    each report's fixed-file columns."""

    scope: rank.TfidfScope
    file_ids: list[str]
    report_ids: list[str]
    fixed_offsets: np.ndarray
    fixed_columns: np.ndarray

    def project(self, name: str) -> Project:
        """The project as ranking sees it: ids and fixed files, with empty
        texts and no token streams, so building a scope from it raises."""
        files = self.file_ids
        offsets = self.fixed_offsets.tolist()
        columns = self.fixed_columns.tolist()
        return Project(name, [SourceFile(fid, fid, "") for fid in files],
                       [BugReport(rid, "", "", {files[c] for c in columns[a:b]})
                        for rid, a, b in zip(self.report_ids, offsets, offsets[1:])])


def _encode_index(scope: rank.TfidfScope, file_ids: list[str], report_ids: list[str],
                  fixed_offsets: np.ndarray, fixed_columns: np.ndarray) -> list[bytes]:
    """The index of a scope, as the buffers to write in order. The report
    postings' norms are the queries' norms, so they are stored once."""
    files, reports = scope.files, scope.reports
    ids = json.dumps([file_ids, report_ids]).encode()
    values = {
        "file_rows": files.rows, "file_weights": files.weights, "file_offsets": files.offsets,
        "file_norms": files.norms, "length_weights": scope.length_weights,
        "report_rows": reports.rows, "report_weights": reports.weights,
        "report_offsets": reports.offsets,
        "query_offsets": scope.query_offsets, "query_terms": scope.query_terms,
        "query_weights": scope.query_weights, "query_norms": scope.query_norms,
        "fixed_offsets": fixed_offsets, "fixed_columns": fixed_columns,
        "ids": np.frombuffer(ids, dtype=np.uint8),
    }
    table, chunks = [], []
    for name, code in _INDEX_ARRAYS:
        value = values[name]
        raw = np.ascontiguousarray(value, dtype=_INDEX_DTYPES[code]).tobytes()
        table.append(_RECORD.pack(name.encode(), code.encode(), len(value)))
        chunks.append(raw + bytes(-len(raw) % 8))
    return [_INDEX_HEADER, struct.pack("<q", len(table)), *table, *chunks]


def _check_spans(offsets, indices, n_spans: int, bound: int, *aligned) -> None:
    """Raise unless ``offsets`` cut ``indices`` into ``n_spans`` spans (from
    0, never decreasing, to the end), every index is in ``[0, bound)`` and
    every ``aligned`` array is as long as ``indices``."""
    if (n_spans < 0 or len(offsets) != n_spans + 1 or offsets[0] != 0
            or offsets[-1] != len(indices) or np.any(offsets[1:] < offsets[:-1])
            or (len(indices) and not 0 <= indices.min() <= indices.max() < bound)
            or any(len(a) != len(indices) for a in aligned)):
        raise ValueError("ranking index offsets, indices or lengths out of range")


def _decode_index(data: bytes) -> _Index:
    """What a verified index holds. The arrays are read-only views of
    ``data``."""
    if not data.startswith(_INDEX_HEADER):
        raise ValueError("not a ranking index")
    start = len(_INDEX_HEADER) + 8 + _RECORD.size * len(_INDEX_ARRAYS)
    if len(data) < start or struct.unpack_from("<q", data, len(_INDEX_HEADER))[0] != len(
            _INDEX_ARRAYS):
        raise ValueError("ranking index table cut short or of another layout")
    a, offset = {}, start
    for i, (name, code) in enumerate(_INDEX_ARRAYS):
        got_name, got_code, length = _RECORD.unpack_from(
            data, len(_INDEX_HEADER) + 8 + _RECORD.size * i)
        dtype = _INDEX_DTYPES[code]
        size = length * dtype.itemsize
        if (got_name.rstrip(b"\0") != name.encode() or got_code.rstrip(b"\0") != code.encode()
                or length < 0 or offset + size > len(data)):
            raise ValueError(f"ranking index array {name} missing or cut short")
        a[name] = np.frombuffer(data, dtype=dtype, count=length, offset=offset)
        offset += size + -size % 8
    if offset != len(data):
        raise ValueError("ranking index has trailing bytes")
    ids = json.loads(a["ids"].tobytes())
    if not (isinstance(ids, list) and len(ids) == 2
            and all(isinstance(x, list) and all(isinstance(i, str) for i in x) for x in ids)):
        raise ValueError("ranking index ids are not two lists of strings")
    file_ids, report_ids = ids
    n_files, n_reports, n_terms = len(file_ids), len(report_ids), len(a["file_offsets"]) - 1
    _check_spans(a["file_offsets"], a["file_rows"], n_terms, n_files, a["file_weights"])
    _check_spans(a["report_offsets"], a["report_rows"], n_terms, n_reports, a["report_weights"])
    _check_spans(a["query_offsets"], a["query_terms"], n_reports, n_terms, a["query_weights"])
    _check_spans(a["fixed_offsets"], a["fixed_columns"], n_reports, n_files)
    if (len(a["file_norms"]) != n_files or len(a["length_weights"]) != n_files
            or len(a["query_norms"]) != n_reports):
        raise ValueError("ranking index lengths disagree with its file and report counts")
    scope = rank.TfidfScope(
        tfidf.Postings(a["file_rows"], a["file_weights"], a["file_offsets"], a["file_norms"]),
        a["length_weights"],
        (a["query_offsets"], a["query_terms"], a["query_weights"], a["query_norms"]),
        reports=tfidf.Postings(a["report_rows"], a["report_weights"], a["report_offsets"],
                               a["query_norms"]))
    return _Index(scope, file_ids, report_ids, a["fixed_offsets"], a["fixed_columns"])


def _write_chunks(chunks):
    """A ``write(path)`` for :meth:`ArtifactCache._store` writing the buffers."""
    def write(tmp):
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)
    return write


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
    if kind in _INDEX_KINDS:
        payload["layout"] = _INDEX_HEADER.decode("ascii").strip()
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


_INDEX_KINDS = ("index_local", "index_global")
_REBUILD = {"tokens": "re-preprocessing", **dict.fromkeys(_INDEX_KINDS, "rebuilding")}

# the record of the corpus digest in the cache directory, see the module docstring
_CORPUS_RECORD = "corpus.json"


class ArtifactCache:
    """Directory of per-held-out-project global models, the token streams
    of the whole benchmark and per-project ranking indexes.

    ``benchmark`` is a loaded :class:`~bugloc.corpus.Benchmark`, or the
    root directory of one. A cache over a root serves ranking indexes
    (:meth:`indexed_project`) before anything is loaded; what else it
    serves reads ``self.benchmark``, which the caller sets once it has
    loaded it.
    """

    def __init__(self, directory, benchmark, preprocess_config: PreprocessConfig,
                 embed_config: embedding.EmbeddingConfig | None = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if isinstance(benchmark, Benchmark):
            if benchmark.root is None:
                raise ValueError("the benchmark was not loaded from a directory")
            self.benchmark, root = benchmark, benchmark.root
        else:
            self.benchmark, root = None, benchmark
        self.preprocess_config = preprocess_config
        self.embed_config = embed_config
        self._corpus = self._recorded_digest(root)

    def _recorded_digest(self, root) -> str:
        """:func:`corpus_digest` of ``root``: the recorded one while the
        stats of what it hashes match the record and none is racily clean,
        or else hashed anew and recorded with the stats taken before."""
        entries = _corpus_entries(root)
        stats, newest = _stat_key(entries)
        identity = {"root": os.path.abspath(root), "loader": corpus.LOADER_VERSION,
                    "stats": stats}
        record = self.directory / _CORPUS_RECORD
        try:
            written = record.stat().st_mtime_ns
            recorded = json.loads(record.read_text("utf-8"))
            if (newest < written and all(recorded[key] == value for key, value in identity.items())
                    and isinstance(recorded["digest"], str)):
                return recorded["digest"]
        except (OSError, ValueError, KeyError, TypeError):  # missing or damaged: hash
            pass
        digest = corpus_digest(root, entries)
        text = json.dumps({**identity, "digest": digest})
        _replace(record, lambda tmp: tmp.write_text(text, "utf-8"))
        return digest

    def _paths(self, kind: str, held_out: str) -> tuple[Path, Path]:
        suffix = {"idf": "txt", "dm": "npz", "dbow": "npz"}.get(kind, "bin")
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
        rebuild = _REBUILD.get(kind, "retraining")
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
        self._store("tokens", "", None, _write_chunks(chunks))

    def _read_index(self, kind: str, name: str) -> _Index | None:
        """The project's ranking index of that kind; None when it is
        missing, stale or damaged (with a warning)."""
        artifact, _ = self._paths(kind, name)
        try:
            data = artifact.read_bytes()
        except OSError:
            return None
        if not self._is_fresh(kind, name, None, data):
            return None
        try:
            return _decode_index(data)
        except ValueError as exc:  # JSON and UTF-8 errors are ValueErrors
            logger.warning("corrupt ranking index %s (%s); rebuilding", artifact.name, exc)
            return None

    def indexed_project(self, name: str,
                        scopes) -> tuple[Project, dict[str, rank.TfidfScope]] | None:
        """Project ``name`` rebuilt from its ranking indexes under each of
        ``scopes``, and their TF.IDF arrays by scope, each index read once;
        None unless every index is fresh and whole and all hold the same
        ids and fixed files.

        The project holds only what ranking reads: file ids, report ids and
        fixed files, with empty texts and no token streams. It must not be
        preprocessed or used to build a scope. A fresh index was built from
        the loaded benchmark of these same bytes, so the project loaded and
        passed its manifest check.
        """
        found = {}
        for scope in sorted(scopes):
            index = self._read_index(f"index_{scope}", name)
            if index is None:
                return None
            found[scope] = index
        first, *others = found.values()
        for other in others:
            if (other.file_ids != first.file_ids or other.report_ids != first.report_ids
                    or not np.array_equal(other.fixed_offsets, first.fixed_offsets)
                    or not np.array_equal(other.fixed_columns, first.fixed_columns)):
                logger.info("ranking indexes of %s disagree on ids or fixed files", name)
                return None
        return first.project(name), {scope: index.scope for scope, index in found.items()}

    def tfidf_scope(self, artifacts: rank.Artifacts, scope: str) -> rank.TfidfScope:
        """The TF.IDF arrays of ``artifacts.project`` under ``scope`` ("local"
        or "global"), built from the artifacts' token streams and the scope's
        vocabulary, and stored as the project's ranking index."""
        project = artifacts.project
        vocab = (self.global_vocabulary(project.name) if scope == "global"
                 else artifacts.local_vocab)
        built = artifacts.build_scope(vocab)
        chunks = _encode_index(built, artifacts.file_ids, [r.id for r in project.bug_reports],
                               *artifacts.fixed)
        self._store(f"index_{scope}", project.name, None, _write_chunks(chunks))
        return built

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
