"""On-disk cache: offline-trained global models, the token-stream index of
the benchmark, and per-project ranking indexes.

Artifacts, one file ``<kind>[_<project>].bin`` each in the cache directory:

- ``idf.bin``: the benchmark's global IDF model, the document frequencies
  of every project's source files with nothing held out; the model of a
  held-out project is derived from it where it is used
  (:func:`~bugloc.tfidf.hold_out`);
- ``dm_<project>.bin``, ``dbow_<project>.bin``: the paragraph-vector models
  with ``<project>`` held out, holding what inference reads: terms, counts,
  ``W``, ``U``, ``b``;
- ``tokens.bin``: the token streams of every document of the benchmark;
- ``index_local_<project>.bin``, ``index_global_<project>.bin``: the
  project's TF.IDF ranking arrays under that scope
  (:class:`~bugloc.rank.TfidfScope`: file postings, length factors, each
  report's vector, stored once, and the cosine of each pair of reports, the
  R(R+1)/2 float64 values of a triangle), its file and report ids and each
  report's fixed-file columns;
- ``index_docvec_<project>.bin``: the project's doc-vector index, the
  combined DM+DBOW vectors of its files and of its reports with their norms
  (:class:`~bugloc.rank.DocVectors`), and the same ids and fixed-file
  columns. Its fingerprint also holds the inference epochs, ``None``
  resolved to the configured training epochs.

The first ``localize`` or ``evaluate`` that ranks with a scope (``local``,
``global`` or ``docvec``) builds its index; ``train-global`` builds none.

Paragraph-vector models are trained where they miss: by ``train-global``,
after the IDF model, or by the first doc-vector call that needs them, on
the fork pool of :mod:`bugloc.pool`. A child reads the token streams from
the memory it shares with the caller and stores each model it trains as the
caller would. Each model's rng is seeded from the configuration alone and no
model reads what another writes, so every model and sidecar holds the bytes
that one process training them in order writes. The caller reads every
cached model, and each model trained logs how it converged. Every worker
holds one model at a time, the one it trains, with its training matrices,
and drops it once it is stored; the doc-vector index reads back the two
models it needs. So peak memory grows with the number of workers, not of
models. A child that exits with an error, as when it is terminated, has its
temporary files removed.

All share the layout of :mod:`bugloc.container`; nothing is pickled. Every
artifact gets a sidecar ``.meta.json`` holding a fingerprint of the corpus,
of the preprocessing/embedding configuration that produced it and of its
layout's header line, plus the sha256 of its bytes as they were written.
The corpus part is :func:`corpus_digest`, a hash over the bytes of every
file the benchmark loader reads, listed by the loader's own functions. An
artifact is written to a temporary file and moved into place, so it is
never seen half written. :meth:`ArtifactCache._read` reads an artifact's
bytes once and decodes them only when fingerprint and sha256 match. A
fingerprint mismatch, as for an artifact of an older layout, is a quiet
rebuild: a cache written before this layout rebuilds every artifact once,
and its ``idf_*.txt``, ``idf_<project>.bin`` and ``*.npz`` files are no
longer read and may be deleted with their ``.meta.json``. An artifact that
fails its sha256 or does not decode is rebuilt with a warning.

The digest is looked up by stat, as git trusts its index and its untracked
cache: the record ``corpus.json`` holds the digest with the benchmark's
absolute root, ``corpus.LOADER_VERSION``, the project names, the relative
names of the directories whose entries decide the listing (the root, each
project directory, ``sources/`` and every directory under it, and
``bugs/`` or else ``bugrepo/``, as :mod:`bugloc.corpus` reports them) and
of every file the digest reads, and one sha256 over each name's stamp: file
type, size, ``mtime_ns``, ``ctime_ns`` and inode, packed as 64-bit integers.
A call stats each recorded name relative to the opened root and lists
nothing: it reuses the recorded digest when the stamps match and every
directory and file is older than the record itself. A name whose
``mtime_ns`` or ``ctime_ns`` is not older than the record's ``mtime_ns``
may have changed in the same clock tick ("racily clean") and counts as
changed; for a directory that means it re-lists. Otherwise the call lists
the benchmark once, stamping each directory before it is listed, stamps
each file before its bytes are read, hashes every byte and records it all.
Creating, removing or renaming an entry moves its directory's ``mtime`` and
``ctime``, so a settled record sees it; an edit that restores a file's old
``mtime_ns`` still moves ``ctime_ns``, and a file replaced by rename has
another inode; only a same-size edit on a filesystem that keeps neither
``mtime`` nor ``ctime`` goes unseen. A record of another layout, such as
one without directory stamps, counts as missing: it costs one re-hash to
the same digest, and no artifact is rebuilt.

Ranking indexes are read only by :meth:`ArtifactCache.artifacts`, each
once per call, and a hit is decided per project, by one rule for all seven
methods. A ``localize`` or ``evaluate`` ranking a project whose every
requested scope has a fresh index, all of the same ids and fixed files,
ranks with those indexes' arrays: it stats the benchmark, reads no
benchmark file, no token stream and no paragraph-vector model,
preprocesses nothing and infers nothing, also when ``evaluate --projects``
names a subset. A TF.IDF-only call never opens a doc-vector index. A
project with any index missing, stale or damaged is loaded; each of its
requested indexes that holds the loaded project's ids and fixed files is
used as it is, and the others are rebuilt. So a cache written before
doc-vector indexes existed gains them on its next doc-vector call and
rewrites nothing else. The stamps are
taken before the benchmark is listed and read: an edit made while a call
runs can be cached under the digest of the bytes before it, and the next
call, which sees the new stamps, rebuilds.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import logging
import operator
import os
import stat
import struct
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import container, corpus, embedding, pool, rank, tfidf
from .corpus import Benchmark, Project
from .preprocess import PreprocessConfig, TokenStream, decode_streams, documents, encode_streams

logger = logging.getLogger(__name__)


def _corpus_entries(root, stamp=lambda path: None) -> list[tuple[bytes, str, str | None]]:
    """(tag, name relative to root, path to read or None) of what the
    benchmark loader reads under ``root``, in digest order; ``stamp`` goes
    to the listing functions of :mod:`bugloc.corpus`."""
    entries = []
    for project in corpus.project_dirs(Path(root), stamp):
        entries.append((b"P", project.name, None))
        files = corpus.project_files(project, stamp)
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


# a stamp: file type, size, mtime_ns, ctime_ns and inode; all 0 for a name
# that cannot be stat'ed
_STAMP = struct.Struct("<4qQ")


def _stamp(path, dir_fd=None) -> tuple[int, int, int, int, int]:
    try:
        st = os.stat(path, dir_fd=dir_fd)
    except OSError:
        return (0, 0, 0, 0, 0)
    return stat.S_IFMT(st.st_mode), st.st_size, st.st_mtime_ns, st.st_ctime_ns, st.st_ino


def _seal(stamps) -> tuple[str, int]:
    """The sha256 of the packed stamps, in order, and the newest ``mtime_ns``
    or ``ctime_ns`` among them."""
    newest = max(max(map(operator.itemgetter(2), stamps)),
                 max(map(operator.itemgetter(3), stamps)))
    return hashlib.sha256(b"".join(itertools.starmap(_STAMP.pack, stamps))).hexdigest(), newest


def _seal_at(root: str, names) -> tuple[str, int]:
    """:func:`_seal` of the stamps of ``names``, each relative to ``root``."""
    fd = os.open(root, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    try:
        return _seal([_stamp(name, fd) for name in names])
    finally:
        os.close(fd)


# The token-stream index (see bugloc.container): the distinct terms, each
# document's offset into ``ids`` and the end, and the term ids in order.
_TOKENS = container.Layout(b"bugloc-tokens v2\n",
                           [("terms", container.STR), ("offsets", "i8"), ("ids", "i4")])
# What every ranking index ends with: each report's fixed files as CSR arrays
# of ascending file columns, file ids in path order and report ids in row order.
_PROJECT = [("fixed_offsets", "i8"), ("fixed_columns", "i8"),
            ("file_ids", container.STR), ("report_ids", container.STR)]
# A TF.IDF ranking index: a scope's arrays, then the project's.
_INDEX = container.Layout(b"bugloc-index v5\n", [
    ("file_rows", "i8"), ("file_weights", "f8"), ("file_offsets", "i8"), ("file_norms", "f8"),
    ("length_weights", "f8"),
    ("query_offsets", "i8"), ("query_terms", "i8"), ("query_weights", "f8"),
    ("query_norms", "f8"), ("report_sims", "f8"), *_PROJECT])
# A doc-vector index: the file and report vectors (rows of 2d values, stored
# flat) with their norms, then the project's arrays.
_DOCVEC = container.Layout(b"bugloc-docvec v1\n", [
    ("file_vectors", "f8"), ("file_norms", "f8"), ("report_vectors", "f8"),
    ("report_norms", "f8"), *_PROJECT])


def _encode_streams(streams) -> list:
    """The index of the streams, as the buffers to write in order."""
    terms, offsets, ids = encode_streams(streams)
    return _TOKENS.encode({"terms": terms, "offsets": offsets, "ids": ids})


def _decode_streams(data: bytes, origins: list[str]) -> list[TokenStream]:
    """Token streams of a verified index (see :func:`~bugloc.preprocess.decode_streams`)."""
    a = _TOKENS.decode(data)
    terms, offsets, ids = a["terms"], a["offsets"], a["ids"]
    container.check_spans(offsets, ids, len(origins), len(terms))
    return decode_streams(terms, offsets, ids, origins)


class _Index(NamedTuple):
    """What a ranking index holds: the arrays ranking reads (a
    :class:`~bugloc.rank.TfidfScope` or :class:`~bugloc.rank.DocVectors`),
    the project's file ids in path order, its report ids in row order, and
    the CSR arrays of each report's fixed-file columns."""

    arrays: rank.TfidfScope | rank.DocVectors
    file_ids: list[str]
    report_ids: list[str]
    fixed: tuple[np.ndarray, np.ndarray]

    def holds(self, other) -> bool:
        """Whether the index is of the ids and fixed files of ``other``, an
        index or :class:`~bugloc.rank.Artifacts`."""
        return (self.file_ids == other.file_ids and self.report_ids == other.report_ids
                and all(map(np.array_equal, self.fixed, other.fixed)))


def _encode_index(scope: rank.TfidfScope, file_ids: list[str], report_ids: list[str],
                  fixed_offsets: np.ndarray, fixed_columns: np.ndarray) -> list:
    """The index of a scope, as the buffers to write in order."""
    files, queries = scope.files, scope.queries
    return _INDEX.encode({
        "file_rows": files.rows, "file_weights": files.weights, "file_offsets": files.offsets,
        "file_norms": files.norms, "length_weights": scope.length_weights,
        "query_offsets": queries.offsets, "query_terms": queries.terms,
        "query_weights": queries.weights, "query_norms": queries.norms,
        "report_sims": scope.report_sims,
        "fixed_offsets": fixed_offsets, "fixed_columns": fixed_columns,
        "file_ids": file_ids, "report_ids": report_ids,
    })


def _project_arrays(a: dict) -> tuple[int, int]:
    """The file and report counts of a decoded index, once its ids and
    fixed-file columns are checked."""
    file_ids, report_ids = a["file_ids"], a["report_ids"]
    if sorted(set(file_ids)) != file_ids or len(set(report_ids)) != len(report_ids):
        raise ValueError("ranking index file ids out of path order or report ids repeated")
    container.check_spans(a["fixed_offsets"], a["fixed_columns"], len(report_ids),
                          len(file_ids))
    return len(file_ids), len(report_ids)


def _decode_index(data: bytes) -> _Index:
    """What a verified index holds. The arrays are read-only views of
    ``data``."""
    a = _INDEX.decode(data)
    n_files, n_reports = _project_arrays(a)
    n_terms = len(a["file_offsets"]) - 1
    check = container.check_spans
    check(a["file_offsets"], a["file_rows"], n_terms, n_files, a["file_weights"])
    check(a["query_offsets"], a["query_terms"], n_reports, n_terms, a["query_weights"])
    if (len(a["file_norms"]) != n_files or len(a["length_weights"]) != n_files
            or len(a["query_norms"]) != n_reports
            or len(a["report_sims"]) != rank.TfidfScope.n_pairs(n_reports)):
        raise ValueError("ranking index lengths disagree with its file and report counts")
    scope = rank.TfidfScope(
        tfidf.Postings(a["file_rows"], a["file_weights"], a["file_offsets"], a["file_norms"]),
        a["length_weights"],
        tfidf.Rows(a["query_offsets"], a["query_terms"], a["query_weights"], a["query_norms"]),
        a["report_sims"])
    return _Index(scope, a["file_ids"], a["report_ids"], (a["fixed_offsets"], a["fixed_columns"]))


def _encode_docvec(vectors: rank.DocVectors, file_ids: list[str], report_ids: list[str],
                   fixed_offsets: np.ndarray, fixed_columns: np.ndarray) -> list:
    """The doc-vector index of a project, as the buffers to write in order."""
    return _DOCVEC.encode({
        "file_vectors": vectors.files, "file_norms": vectors.file_norms,
        "report_vectors": vectors.reports, "report_norms": vectors.report_norms,
        "fixed_offsets": fixed_offsets, "fixed_columns": fixed_columns,
        "file_ids": file_ids, "report_ids": report_ids,
    })


def _decode_docvec(data: bytes, dimension: int) -> _Index:
    """What a verified doc-vector index of vectors of ``dimension`` values
    holds. The arrays are read-only views of ``data``."""
    a = _DOCVEC.decode(data)
    n_files, n_reports = _project_arrays(a)
    if (len(a["file_vectors"]) != n_files * dimension or len(a["file_norms"]) != n_files
            or len(a["report_vectors"]) != n_reports * dimension
            or len(a["report_norms"]) != n_reports):
        raise ValueError("doc-vector index lengths disagree with its file and report counts "
                         "and vector size")
    vectors = rank.DocVectors(a["file_vectors"].reshape(n_files, dimension), a["file_norms"],
                              a["report_vectors"].reshape(n_reports, dimension),
                              a["report_norms"])
    return _Index(vectors, a["file_ids"], a["report_ids"],
                  (a["fixed_offsets"], a["fixed_columns"]))


def _replace(path: Path, chunks) -> str:
    """Write the buffers to a temporary file beside ``path``, then move
    that into place; returns the sha256 of what was written."""
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    sha = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                sha.update(chunk)
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return sha.hexdigest()


# per kind of artifact: its layout, what a warning calls it and what replaces it
_KINDS = {"tokens": (_TOKENS, "token-stream index", "re-preprocessing"),
          "idf": (tfidf.LAYOUT, "cached IDF model", "retraining"),
          **dict.fromkeys(("dm", "dbow"), (embedding.LAYOUT, "cached model", "retraining")),
          **dict.fromkeys(("index_local", "index_global"), (_INDEX, "ranking index", "rebuilding")),
          "index_docvec": (_DOCVEC, "doc-vector index", "rebuilding")}
# the kinds whose bytes depend on the embedding configuration
_EMBEDDED = {"dm", "dbow", "index_docvec"}
# the kind of each paragraph-vector mode's model
_MODEL_KINDS = {embedding.PV_DM: "dm", embedding.PV_DBOW: "dbow"}

# the record of the corpus digest in the cache directory, see the module docstring
_CORPUS_RECORD = "corpus.json"


class ArtifactCache:
    """Directory of the benchmark's global IDF model, per-held-out-project
    paragraph-vector models, the token streams of the whole benchmark and
    per-project ranking indexes.

    ``benchmark`` is a loaded :class:`~bugloc.corpus.Benchmark`, or the
    root directory of one. A cache over a root serves ranking indexes
    (:meth:`artifacts`) before anything is loaded; what else it serves
    reads ``self.benchmark``, which the caller sets once it has loaded it.
    ``project_names`` are the benchmark's project directories, as the
    corpus record lists them. ``infer_epochs`` are the inference epochs of
    the doc vectors it indexes, ``None`` for the training epochs of
    ``embed_config``.
    """

    def __init__(self, directory, benchmark, preprocess_config: PreprocessConfig,
                 embed_config: embedding.EmbeddingConfig | None = None,
                 infer_epochs: int | None = None):
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
        self.infer_epochs = infer_epochs
        self._corpus = self._recorded_digest(root)

    def _recorded_digest(self, root) -> str:
        """:func:`corpus_digest` of ``root``: the recorded one while every
        recorded directory and file has its recorded stamp and none is
        racily clean, or else hashed anew and recorded with stamps taken
        before each directory was listed and each file read. Sets
        ``project_names``."""
        root = os.path.abspath(root)
        identity = {"root": root, "loader": corpus.LOADER_VERSION}
        record = self.directory / _CORPUS_RECORD
        try:
            with open(record, "rb") as fh:
                written = os.fstat(fh.fileno()).st_mtime_ns
                recorded = json.loads(fh.read())
            if all(recorded[key] == value for key, value in identity.items()):
                stamps, newest = _seal_at(root, recorded["dirs"] + recorded["files"])
                if (stamps == recorded["stamps"] and newest < written
                        and isinstance(recorded["digest"], str)
                        and isinstance(recorded["projects"], list)):
                    self.project_names = recorded["projects"]
                    return recorded["digest"]
        except (OSError, ValueError, KeyError, TypeError):  # missing or damaged: hash
            pass
        cut = len(os.path.join(root, ""))
        dirs, dir_stamps = [], []

        def stamp(path):
            path = os.fspath(path)
            dirs.append(path[cut:] or ".")
            dir_stamps.append(_stamp(path))

        entries = _corpus_entries(root, stamp)
        files = [(name, path) for _, name, path in entries if path is not None]
        stamps, _ = _seal(dir_stamps + [_stamp(path) for _, path in files])
        digest = corpus_digest(root, entries)
        self.project_names = [name for tag, name, _ in entries if tag == b"P"]
        text = json.dumps({**identity, "digest": digest, "projects": self.project_names,
                           "dirs": dirs, "files": [name for name, _ in files],
                           "stamps": stamps})
        _replace(record, [text.encode("utf-8")])
        return digest

    def _paths(self, kind: str, held_out: str) -> tuple[Path, Path]:
        artifact = self.directory / (f"{kind}_{held_out}.bin" if held_out else f"{kind}.bin")
        return artifact, artifact.with_name(artifact.name + ".meta.json")

    def _fingerprint(self, kind: str, held_out: str) -> str:
        """What an artifact of that kind and project is built from: the
        corpus digest, the configurations its bytes depend on and its
        layout's header line."""
        embedded = kind in _EMBEDDED
        if embedded and self.embed_config is None:
            raise ValueError("no embedding configuration supplied")
        payload = {"kind": kind, "held_out": held_out, "corpus": self._corpus,
                   "preprocess": self.preprocess_config.fingerprint(),
                   "embedding": self.embed_config.fingerprint() if embedded else None,
                   "layout": _KINDS[kind][0].header.decode("ascii").strip()}
        if kind == "index_docvec":
            payload["infer_epochs"] = (self.embed_config.epochs if self.infer_epochs is None
                                       else self.infer_epochs)
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def _read(self, kind: str, held_out: str, decode):
        """``decode`` of the artifact's bytes, read once; None when the
        artifact is missing or stale, and, with a warning, when its bytes do
        not match the recorded sha256 or ``decode`` raises ``ValueError``."""
        artifact, meta = self._paths(kind, held_out)
        _, what, rebuild = _KINDS[kind]
        try:
            recorded = json.loads(meta.read_text("utf-8"))
            fingerprint, sha = recorded["fingerprint"], recorded["sha256"]
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError, OSError):
            logger.warning("unreadable cache metadata for %s; %s", artifact.name, rebuild)
            return None
        if fingerprint != self._fingerprint(kind, held_out):
            return None
        try:
            data = artifact.read_bytes()
        except OSError:
            return None
        if hashlib.sha256(data).hexdigest() != sha:
            logger.warning("cache artifact %s does not match its recorded sha256; %s",
                           artifact.name, rebuild)
            return None
        try:
            return decode(data)
        except ValueError as exc:  # UTF-8 errors are ValueErrors
            logger.warning("corrupt %s %s (%s); %s", what, artifact.name, exc, rebuild)
            return None

    def _store(self, kind: str, held_out: str, chunks) -> None:
        """Put the artifact's buffers in place, then record its fingerprint
        and the sha256 of the buffers."""
        artifact, meta = self._paths(kind, held_out)
        record = {"fingerprint": self._fingerprint(kind, held_out),
                  "sha256": _replace(artifact, chunks)}
        _replace(meta, [json.dumps(record, indent=2).encode()])

    def load_token_streams(self) -> bool:
        """Fill every document's ``token_stream`` from the index; False, with
        nothing filled, when the index is missing, stale or damaged."""
        docs = list(documents(self.benchmark))
        streams = self._read("tokens", "",
                             lambda data: _decode_streams(data, [origin for _, origin in docs]))
        if streams is None:
            return False
        for (doc, _), stream in zip(docs, streams):
            doc.token_stream = stream
        return True

    def save_token_streams(self) -> None:
        """Write the index of every document's current ``token_stream``."""
        self._store("tokens", "",
                    _encode_streams(doc.token_stream for doc, _ in documents(self.benchmark)))

    def artifacts(self, name: str, scopes, loaded) -> rank.Artifacts:
        """The ranking arrays of project ``name`` under each of ``scopes``
        ("local", "global", "docvec"): a :class:`~bugloc.rank.TfidfScope`
        per TF.IDF scope and, under "docvec", the
        :class:`~bugloc.rank.DocVectors`. Each index is read once.

        When every index is fresh and whole and all hold the same ids and
        fixed files, the arrays are theirs: no benchmark file, token stream
        or model is read. A fresh index was built from the loaded benchmark
        of these same bytes, so the project loaded and passed its manifest
        check. Otherwise the project comes from ``loaded()``, the benchmark
        with its token streams; each index that holds the project's ids and
        fixed files is used as it is, and the others are built and stored.
        """
        found = {}
        for scope in sorted(scopes):
            if scope == "docvec":  # a fresh fingerprint means an embedding config
                found[scope] = self._read("index_docvec", name, lambda data: _decode_docvec(
                    data, 2 * self.embed_config.vector_size))
            else:
                found[scope] = self._read(f"index_{scope}", name, _decode_index)
        indexes = list(found.values())
        if None not in indexes and all(indexes[0].holds(index) for index in indexes[1:]):
            if "docvec" in found:
                logger.info("doc-vector index of %s hit", name)
            first, project = indexes[0], None
            artifacts = rank.Artifacts(name, first.file_ids, first.report_ids, first.fixed, {})
        else:
            if None not in indexes:
                logger.info("ranking indexes of %s disagree on ids or fixed files", name)
            project = loaded().project(name)
            artifacts = rank.Artifacts.of(project, {})
        for scope, index in found.items():
            if index is not None and not index.holds(artifacts):
                logger.info("%s index of %s is of other files or reports; rebuilding", scope,
                            name)
                index = None
            arrays = self._build(project, scope, artifacts) if index is None else index.arrays
            if scope == "docvec":
                artifacts.doc_vectors = arrays
            else:
                artifacts.scopes[scope] = arrays
        return artifacts

    def _build(self, project: Project, scope: str, artifacts: rank.Artifacts):
        """The arrays of the project's index under ``scope``, built from its
        token streams and stored as that index of the ids and fixed files
        of ``artifacts``. A project without queries, which nothing ranks,
        gets empty arrays, and no vocabulary or model is built for it."""
        held = (artifacts.file_ids, artifacts.report_ids, *artifacts.fixed)
        if scope != "docvec":
            vocab = (self.global_vocabulary(project.name)
                     if scope == "global" and project.has_queries else None)
            built = rank.build_scope(project, vocab)
            self._store(f"index_{scope}", project.name, _encode_index(built, *held))
            return built
        if not project.has_queries:
            vectors = rank.DocVectors.unranked(len(project.source_files),
                                               2 * self.embed_config.vector_size)
        else:
            pairs = [(project.name, embedding.PV_DM), (project.name, embedding.PV_DBOW)]
            dm, dbow = self._models(pairs)
            start = time.perf_counter()
            vectors = rank.DocVectors.infer(project, dm, dbow, self.infer_epochs)
            logger.info("built doc-vector index of %s: %d files, %d reports, %.3f s "
                        "inferring", project.name, len(project.source_files),
                        len(project.bug_reports), time.perf_counter() - start)
        self._store("index_docvec", project.name, _encode_docvec(vectors, *held))
        return vectors

    def global_vocabulary(self, held_out: str) -> tfidf.Vocabulary:
        """The leakage-safe global IDF model of a project: the benchmark's
        model with the project held out (:func:`~bugloc.tfidf.hold_out`).

        A stored model the project cannot be held out of was counted from
        other bytes than the loaded benchmark's, as when an edit is made
        while this call runs (see the module docstring). It is counted
        again from the loaded benchmark, and the error of that model, if
        any, is raised."""
        project = self.benchmark.project(held_out)  # raises on unknown name
        whole, counted = self._global_idf
        try:
            return tfidf.hold_out(whole, project)
        except ValueError:
            if counted:
                raise
        logger.info("stored global IDF model does not fit the loaded benchmark; rebuilding")
        self._global_idf = self._count_global_idf(), True
        return tfidf.hold_out(self._global_idf[0], project)

    @functools.cached_property
    def _global_idf(self) -> tuple[tfidf.Vocabulary, bool]:
        """The benchmark's IDF model, nothing held out, and whether this
        cache counted it: read once per cache, or else counted from every
        project's source files and stored. A stored model that counts
        another number of files than the loaded benchmark holds is counted
        again."""
        vocab = self._read("idf", "", tfidf.load_vocabulary)
        if vocab is None or vocab.total_documents != sum(
                len(project.source_files) for project in self.benchmark.projects):
            return self._count_global_idf(), True
        return vocab, False

    def _count_global_idf(self) -> tfidf.Vocabulary:
        """The IDF model of every project's source files, stored."""
        logger.info("building global IDF model")
        vocab = tfidf.build_vocabulary(tfidf.source_streams(self.benchmark.projects))
        self._store("idf", "", tfidf.save_vocabulary(vocab))
        return vocab

    def _training_corpus(self, held_out: str):
        """Source files of every project plus the other projects' reports,
        and the source files alone, which the vocabulary comes from."""
        docs, vocab_docs = [], []
        for project in self.benchmark.projects:
            for src in project.source_files:
                docs.append(src.token_stream)
                vocab_docs.append(src.token_stream)
            if project.name != held_out:
                docs += [report.token_stream for report in project.bug_reports]
        return docs, vocab_docs

    def embedding_model(self, held_out: str, mode: str) -> embedding.EmbeddingModel:
        """Load or train the paragraph-vector model of the given mode."""
        return self._models([(held_out, mode)])[0]

    def _load_model(self, held_out: str, mode: str) -> embedding.EmbeddingModel | None:
        """The cached model of that mode, or None where it misses."""
        if self.embed_config is None:
            raise ValueError("no embedding configuration supplied")
        return self._read(_MODEL_KINDS[mode], held_out,
                          lambda data: embedding.load_model(data, mode, self.embed_config))

    def _models(self, pairs) -> list[embedding.EmbeddingModel]:
        """The paragraph-vector model of each (held-out project, mode) of
        ``pairs``, in order: read from the cache, or else trained and stored
        by :meth:`_train_jobs`, and read back."""
        models = [self._load_model(*pair) for pair in pairs]
        self._train_jobs([pair for pair, model in zip(pairs, models) if model is None])
        return [self._load_model(*pair) if model is None else model
                for pair, model in zip(pairs, models)]

    def _train(self, job: tuple[str, str]) -> None:
        """Train the model of the (held-out project, mode) ``job`` over the
        training corpus of that project, store it and log how it converged;
        keeps no model."""
        held_out, mode = job
        docs, vocab_docs = self._training_corpus(held_out)
        model = embedding.train(docs, self.embed_config, mode, vocab_documents=vocab_docs)
        self._store(_MODEL_KINDS[mode], held_out, embedding.save_model(model))
        logger.info("trained %s model, held-out project %s: %d steps, epoch losses %s, "
                    "final learning rate %.6g", mode, held_out, model.steps,
                    ", ".join(f"{loss:.6g}" for loss in model.epoch_losses), model.final_lr)

    def _train_jobs(self, jobs) -> None:
        """Train and store the model of each (held-out project, mode) of
        ``jobs`` on up to one worker per CPU this process may use
        (:func:`bugloc.pool.run`): the models stored, the lines logged and
        the first error raised are those of one process training the jobs in
        order."""
        for held_out, mode in jobs:
            logger.info("training %s model, held-out project %s", mode, held_out)
        pool.run(jobs, self._train, pool.cpu_count(),
                 lambda job: f"the process training the {job[1]} model, held-out project "
                             f"{job[0]}, exited without reporting",
                 self._remove_temporary)

    def _remove_temporary(self, pid: int) -> None:
        """Remove the temporary files process ``pid`` left (see
        :func:`_replace`)."""
        for path in self.directory.glob(f"*.tmp{pid}"):
            path.unlink(missing_ok=True)

    def train_all(self, held_out_projects, with_embeddings: bool = True) -> dict:
        """Materialize artifacts for each held-out project; returns paths,
        the one IDF model's for every project. The global IDF model is
        built first and every hold-out of it derived, then every
        paragraph-vector model that misses is trained, several at once
        where CPUs allow."""
        names = list(dict.fromkeys(held_out_projects))
        for name in names:
            self.global_vocabulary(name)
        if with_embeddings:
            pairs = [(name, mode) for name in names
                     for mode in (embedding.PV_DM, embedding.PV_DBOW)]
            self._train_jobs([pair for pair in pairs if self._load_model(*pair) is None])
        kinds = ["idf", "dm", "dbow"] if with_embeddings else ["idf"]
        return {name: {kind: str(self._paths(kind, "" if kind == "idf" else name)[0])
                       for kind in kinds}
                for name in names}
