"""On-disk cache: offline-trained global models, the token-stream index of
the benchmark, and per-project ranking indexes.

Artifacts, one file ``<kind>[_<project>].bin`` each in the cache directory:

- ``idf_<project>.bin``: the global IDF model with ``<project>`` held out;
- ``dm_<project>.bin``, ``dbow_<project>.bin``: its paragraph-vector
  models, holding what inference reads: terms, counts, ``W``, ``U``, ``b``;
- ``tokens.bin``: the token streams of every document of the benchmark;
- ``index_local_<project>.bin``, ``index_global_<project>.bin``: the
  project's TF.IDF ranking arrays under that scope
  (:class:`~bugloc.rank.TfidfScope`: file postings, length factors and
  each report's vector, stored once), its file and report ids and each
  report's fixed-file columns;
- ``index_docvec_<project>.bin``: the project's doc-vector index, the
  combined DM+DBOW vectors of its files and of its reports with their norms
  (:class:`~bugloc.rank.DocVectors`), and the same ids and fixed-file
  columns. Its fingerprint also holds the inference epochs, ``None``
  resolved to the configured training epochs.

The first ``localize`` or ``evaluate`` that ranks with a scope (``local``,
``global`` or ``docvec``) builds its index; ``train-global`` builds none.

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
and its ``idf_*.txt`` and ``*.npz`` files are no longer read and may be
deleted with their ``.meta.json``. An artifact that fails its sha256 or
does not decode is rebuilt with a warning.

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

Ranking indexes are read only by :meth:`ArtifactCache.indexed_project`,
each once per call, and a hit is decided per project, by one rule for all
seven methods. A ``localize`` or ``evaluate`` ranking a project whose every
requested scope has a fresh index rebuilds the project from those indexes:
it stats the benchmark, reads no benchmark file, no token stream and no
paragraph-vector model, preprocesses nothing and infers nothing, also when
``evaluate --projects`` names a subset. A TF.IDF-only call never opens a
doc-vector index. A project with any index missing, stale or damaged is
loaded; each of its requested indexes that was read whole and holds the
loaded project's ids and fixed files is kept as it is, and the others are
rebuilt. So a cache written before doc-vector indexes existed gains them
on its next doc-vector call and rewrites nothing else. The stamps are
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

from . import container, corpus, embedding, rank, tfidf
from .corpus import Benchmark, BugReport, Project, SourceFile
from .preprocess import BUG_REPORT, SOURCE_FILE, PreprocessConfig, TokenStream

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


def _documents(benchmark: Benchmark):
    """(document, origin) in index order: projects by name, each project's
    source files, then its bug reports."""
    for project in sorted(benchmark.projects, key=lambda p: p.name):
        for src in project.source_files:
            yield src, SOURCE_FILE
        for report in project.bug_reports:
            yield report, BUG_REPORT


# The token-stream index (see bugloc.container): the distinct terms, each
# document's offset into ``ids`` and the end, and the term ids in order.
_TOKENS = container.Layout(b"bugloc-tokens v2\n",
                           [("terms", container.STR), ("offsets", "i8"), ("ids", "i4")])
# What every ranking index ends with: each report's fixed files as CSR arrays
# of ascending file columns, file ids in path order and report ids in row order.
_PROJECT = [("fixed_offsets", "i8"), ("fixed_columns", "i8"),
            ("file_ids", container.STR), ("report_ids", container.STR)]
# A TF.IDF ranking index: a scope's arrays, then the project's.
_INDEX = container.Layout(b"bugloc-index v4\n", [
    ("file_rows", "i8"), ("file_weights", "f8"), ("file_offsets", "i8"), ("file_norms", "f8"),
    ("length_weights", "f8"),
    ("query_offsets", "i8"), ("query_terms", "i8"), ("query_weights", "f8"),
    ("query_norms", "f8"), *_PROJECT])
# A doc-vector index: the file and report vectors (rows of 2d values, stored
# flat) with their norms, then the project's arrays.
_DOCVEC = container.Layout(b"bugloc-docvec v1\n", [
    ("file_vectors", "f8"), ("file_norms", "f8"), ("report_vectors", "f8"),
    ("report_norms", "f8"), *_PROJECT])


def _encode_streams(streams) -> list:
    """The index of the streams, as the buffers to write in order."""
    streams = list(streams)
    offsets = np.cumsum([0, *(len(stream.tokens) for stream in streams)])
    term_ids: dict[str, int] = {}
    ids = np.empty(offsets[-1], dtype=np.int32)
    for stream, start, end in zip(streams, offsets.tolist(), offsets[1:].tolist()):
        # ids go to each stream's new terms in first-occurrence order
        for term in dict.fromkeys(stream.tokens):
            term_ids.setdefault(term, len(term_ids))
        ids[start:end] = np.fromiter(map(term_ids.__getitem__, stream.tokens), np.int32)
    return _TOKENS.encode({"terms": list(term_ids), "offsets": offsets, "ids": ids})


def _decode_streams(data: bytes, origins: list[str]) -> list[TokenStream]:
    """Token streams of a verified index, decoded one document at a time;
    every stream shares one str per term."""
    a = _TOKENS.decode(data)
    terms, offsets, ids = a["terms"], a["offsets"], a["ids"]
    container.check_spans(offsets, ids, len(origins), len(terms))
    lookup = terms.__getitem__
    bounds = offsets.tolist()
    return [TokenStream(tuple(map(lookup, ids[start:end].tolist())), origin)
            for origin, start, end in zip(origins, bounds, bounds[1:])]


class _Index(NamedTuple):
    """What a ranking index holds: the arrays ranking reads (a
    :class:`~bugloc.rank.TfidfScope` or :class:`~bugloc.rank.DocVectors`),
    the project's file ids in path order, its report ids in row order, and
    the CSR arrays of each report's fixed-file columns."""

    arrays: rank.TfidfScope | rank.DocVectors
    file_ids: list[str]
    report_ids: list[str]
    fixed_offsets: np.ndarray
    fixed_columns: np.ndarray

    def holds(self, file_ids, report_ids, fixed_offsets, fixed_columns) -> bool:
        """Whether the index is of these ids and fixed files."""
        return (self.file_ids == file_ids and self.report_ids == report_ids
                and np.array_equal(self.fixed_offsets, fixed_offsets)
                and np.array_equal(self.fixed_columns, fixed_columns))

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
                  fixed_offsets: np.ndarray, fixed_columns: np.ndarray) -> list:
    """The index of a scope, as the buffers to write in order."""
    files, queries = scope.files, scope.queries
    return _INDEX.encode({
        "file_rows": files.rows, "file_weights": files.weights, "file_offsets": files.offsets,
        "file_norms": files.norms, "length_weights": scope.length_weights,
        "query_offsets": queries.offsets, "query_terms": queries.terms,
        "query_weights": queries.weights, "query_norms": queries.norms,
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
            or len(a["query_norms"]) != n_reports):
        raise ValueError("ranking index lengths disagree with its file and report counts")
    scope = rank.TfidfScope(
        tfidf.Postings(a["file_rows"], a["file_weights"], a["file_offsets"], a["file_norms"]),
        a["length_weights"],
        tfidf.Rows(a["query_offsets"], a["query_terms"], a["query_weights"], a["query_norms"]))
    return _Index(scope, a["file_ids"], a["report_ids"], a["fixed_offsets"], a["fixed_columns"])


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
    return _Index(vectors, a["file_ids"], a["report_ids"], a["fixed_offsets"],
                  a["fixed_columns"])


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

# the record of the corpus digest in the cache directory, see the module docstring
_CORPUS_RECORD = "corpus.json"


class ArtifactCache:
    """Directory of per-held-out-project global models, the token streams
    of the whole benchmark and per-project ranking indexes.

    ``benchmark`` is a loaded :class:`~bugloc.corpus.Benchmark`, or the
    root directory of one. A cache over a root serves ranking indexes
    (:meth:`indexed_project`) before anything is loaded; what else it
    serves reads ``self.benchmark``, which the caller sets once it has
    loaded it. ``project_names`` are the benchmark's project directories,
    as the corpus record lists them. ``infer_epochs`` are the inference
    epochs of the doc vectors it indexes, ``None`` for the training epochs
    of ``embed_config``.
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
        # the indexes a missed indexed_project read whole, by (project, scope)
        self._whole: dict[tuple[str, str], _Index] = {}
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
        docs = list(_documents(self.benchmark))
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
                    _encode_streams(doc.token_stream for doc, _ in _documents(self.benchmark)))

    def indexed_project(self, name: str, scopes) -> tuple[Project, dict, tuple] | None:
        """Project ``name`` rebuilt from its ranking indexes under each of
        ``scopes`` ("local", "global", "docvec"), their arrays by scope
        (a :class:`~bugloc.rank.TfidfScope` per TF.IDF scope, the
        :class:`~bugloc.rank.DocVectors` under "docvec"), each index read
        once, and the CSR arrays of the reports' fixed-file columns (see
        :attr:`~bugloc.rank.Artifacts.fixed`); None unless every index is
        fresh and whole and all hold the same ids and fixed files.

        The project holds only what ranking reads: file ids, report ids and
        fixed files, with empty texts and no token streams. It must not be
        preprocessed or used to build a scope. A fresh index was built from
        the loaded benchmark of these same bytes, so the project loaded and
        passed its manifest check.

        On a miss, the indexes that were read whole are kept for this call:
        :meth:`tfidf_scope` and :meth:`doc_vector_index` use each one, rather
        than rebuild it, when it holds the loaded project's ids and fixed
        files.
        """
        found = {}
        for scope in sorted(scopes):
            if scope == "docvec":  # a fresh fingerprint means an embedding config
                index = self._read("index_docvec", name, lambda data: _decode_docvec(
                    data, 2 * self.embed_config.vector_size))
            else:
                index = self._read(f"index_{scope}", name, _decode_index)
            if index is not None:
                found[scope] = index
        whole = len(found) == len(scopes)
        indexes = list(found.values())
        if whole and not all(indexes[0].holds(*other[1:]) for other in indexes[1:]):
            logger.info("ranking indexes of %s disagree on ids or fixed files", name)
            whole = False
        if not whole:
            self._whole.update({(name, scope): index for scope, index in found.items()})
            return None
        if "docvec" in found:
            logger.info("doc-vector index of %s hit", name)
        first = indexes[0]
        return (first.project(name), {scope: index.arrays for scope, index in found.items()},
                (first.fixed_offsets, first.fixed_columns))

    def _kept(self, artifacts: rank.Artifacts, scope: str):
        """The arrays of the project's index under ``scope`` that the missed
        :meth:`indexed_project` read whole, when it holds the ids and fixed
        files of ``artifacts.project``; else None."""
        project = artifacts.project
        index = self._whole.pop((project.name, scope), None)
        if index is None:
            return None
        if index.holds(artifacts.file_ids, [r.id for r in project.bug_reports],
                       *artifacts.fixed):
            return index.arrays
        logger.info("%s index of %s is of other files or reports; rebuilding", scope,
                    project.name)
        return None

    def tfidf_scope(self, artifacts: rank.Artifacts, scope: str) -> rank.TfidfScope:
        """The TF.IDF arrays of ``artifacts.project`` under ``scope`` ("local"
        or "global"): its index as this call read it whole, or else built
        from the artifacts' token streams and the scope's vocabulary, and
        stored as the project's ranking index."""
        kept = self._kept(artifacts, scope)
        if kept is not None:
            return kept
        project = artifacts.project
        if not project.has_queries:  # nothing ranks it, and it may have no file to weigh
            built = rank.TfidfScope.unranked(len(artifacts.files))
        else:
            vocab = (self.global_vocabulary(project.name) if scope == "global"
                     else artifacts.local_vocab)
            built = artifacts.build_scope(vocab)
        self._store(f"index_{scope}", project.name,
                    _encode_index(built, artifacts.file_ids,
                                  [r.id for r in project.bug_reports], *artifacts.fixed))
        return built

    def doc_vector_index(self, artifacts: rank.Artifacts) -> rank.DocVectors:
        """The doc vectors of ``artifacts.project``: its doc-vector index as
        this call read it whole, or else inferred from the artifacts' token
        streams with the held-out project's models, and stored as its index."""
        kept = self._kept(artifacts, "docvec")
        if kept is not None:
            return kept
        project = artifacts.project
        if not project.has_queries:  # nothing ranks it: no model, no inference
            vectors = rank.DocVectors.unranked(len(artifacts.files),
                                               2 * self.embed_config.vector_size)
        else:
            dm = self.embedding_model(project.name, embedding.PV_DM)
            dbow = self.embedding_model(project.name, embedding.PV_DBOW)
            start = time.perf_counter()
            vectors = rank.DocVectors.infer(artifacts.files, project.bug_reports, dm, dbow,
                                            self.infer_epochs)
            logger.info("built doc-vector index of %s: %d files, %d reports, %.3f s "
                        "inferring", project.name, len(artifacts.files),
                        len(project.bug_reports), time.perf_counter() - start)
        self._store("index_docvec", project.name,
                    _encode_docvec(vectors, artifacts.file_ids,
                                   [r.id for r in project.bug_reports], *artifacts.fixed))
        return vectors

    def global_vocabulary(self, held_out: str) -> tfidf.Vocabulary:
        """Load or build the leakage-safe global IDF model for a project."""
        vocab = self._read("idf", held_out, tfidf.load_vocabulary)
        if vocab is None:
            logger.info("building global IDF model, held-out project %s", held_out)
            vocab = tfidf.build_global_idf(self.benchmark, held_out,
                                           self._document_frequencies)
            self._store("idf", held_out, tfidf.save_vocabulary(vocab))
        return vocab

    @functools.cached_property
    def _document_frequencies(self) -> tfidf.DocumentFrequencies:
        """The benchmark's source-file document frequencies, counted on the
        first global IDF model built, once for every held-out project."""
        return tfidf.DocumentFrequencies.count(self.benchmark)

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
        if self.embed_config is None:
            raise ValueError("no embedding configuration supplied")
        kind = "dm" if mode == embedding.PV_DM else "dbow"
        model = self._read(kind, held_out,
                           lambda data: embedding.load_model(data, mode, self.embed_config))
        if model is None:
            logger.info("training %s model, held-out project %s", mode, held_out)
            docs, vocab_docs = self._training_corpus(held_out)
            model = embedding.train(docs, self.embed_config, mode, vocab_documents=vocab_docs)
            self._store(kind, held_out, embedding.save_model(model))
        return model

    def train_all(self, held_out_projects, with_embeddings: bool = True) -> dict:
        """Materialize artifacts for each held-out project; returns paths."""
        built = {}
        for name in held_out_projects:
            self.global_vocabulary(name)
            if with_embeddings:
                self.embedding_model(name, embedding.PV_DM)
                self.embedding_model(name, embedding.PV_DBOW)
            built[name] = {kind: str(self._paths(kind, name)[0])
                           for kind in (["idf", "dm", "dbow"] if with_embeddings else ["idf"])}
        return built
