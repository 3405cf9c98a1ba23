"""Text normalization: raw bug-report and source-file text to token streams.

The pipeline is deliberately lexical. Source files go through a
comment/literal-aware scanner rather than a real parser; everything
downstream consumes bags of terms, so syntactic structure would be wasted
effort. Identifiers are split on case, underscores and digits, with the
joined compound kept alongside its parts so exact class-name mentions in
bug reports still match.
"""

from __future__ import annotations

import itertools
import logging
import re
from dataclasses import dataclass, field
from functools import cache, cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from . import pool, porter

logger = logging.getLogger(__name__)

BUG_REPORT = "bug_report"
SOURCE_FILE = "source_file"

# Bump on any change to what the pipeline outputs for the same input, so
# that cached token streams and models built from them are rebuilt.
PIPELINE_VERSION = 1

# preprocess_benchmark runs one worker per this many characters of text, up to
# one per CPU. Two workers first gain in a fresh process, which imports
# multiprocessing for its first fork, between 350k and 420k characters; below
# that, forking and sending the streams back cost more than a worker saves.
_CHARS_PER_WORKER = 200_000

_WORD_RE = re.compile(r"[A-Za-z0-9_]+")
_CAMEL_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z]?[a-z]+")
# Line comment, block comment (to end of file when unterminated), then
# double- and single-quoted literals, whose backslash escapes any character.
_NOISE_RE = re.compile(
    r"//[^\n]*"
    r"|/\*.*?(?:\*/|(?P<open>\Z))"
    r'|"(?:[^"\\]|\\(?:.|\Z))*(?:"|\Z)'
    r"|'(?:[^'\\]|\\(?:.|\Z))*(?:'|\Z)",
    re.S)


@cache  # the packaged lists never change while the process runs
def _load_wordlist(name: str) -> frozenset[str]:
    text = resources.files("bugloc.resources").joinpath(name).read_text("utf-8")
    return _parse_wordlist(text)


def _parse_wordlist(text: str) -> frozenset[str]:
    terms = set()
    for line in text.splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            terms.add(line)
    return frozenset(terms)


@dataclass(frozen=True)
class TokenStream:
    """Ordered, fully normalized terms of one document."""

    tokens: tuple[str, ...]
    origin: str = BUG_REPORT

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def empty(self) -> bool:
        return not self.tokens


@dataclass(frozen=True)
class PreprocessConfig:
    stopwords: frozenset[str] = field(default_factory=lambda: _load_wordlist("stopwords.txt"))
    keywords: frozenset[str] = field(default_factory=lambda: _load_wordlist("java_keywords.txt"))
    min_token_length: int = 2
    split_compound_identifiers: bool = True

    def __post_init__(self):
        if not self.stopwords or not self.keywords:
            raise ValueError("stopword and keyword lists must be non-empty")

    @classmethod
    def load(cls, stopwords_path=None, keywords_path=None, **kwargs) -> "PreprocessConfig":
        """Build a config, optionally reading the word lists from files."""
        if stopwords_path is not None:
            kwargs["stopwords"] = _parse_wordlist(Path(stopwords_path).read_text("utf-8"))
        if keywords_path is not None:
            kwargs["keywords"] = _parse_wordlist(Path(keywords_path).read_text("utf-8"))
        return cls(**kwargs)

    def fingerprint(self) -> dict:
        """Stable summary used for artifact cache invalidation, computed once
        per config; callers must not modify it."""
        return self._fingerprint

    @cached_property
    def reserved(self) -> frozenset[str]:
        """The stop words and the keywords: terms no token stream holds."""
        return self.stopwords | self.keywords

    @cached_property
    def _fingerprint(self) -> dict:
        return {
            "pipeline_version": PIPELINE_VERSION,
            "stopwords": sorted(self.stopwords),
            "keywords": sorted(self.keywords),
            "min_token_length": self.min_token_length,
            "split_compound_identifiers": self.split_compound_identifiers,
        }


def strip_code_noise(raw_source: str) -> str:
    """Remove comments and string/char literal contents from source text.

    Line and block comments disappear entirely; an unterminated block
    comment is stripped to end of file with a warning. String and char
    literals are dropped including their quotes, since their contents are
    prose-like noise on par with comments. Trailing whitespace left behind
    on each line is trimmed.
    """
    stripped = _NOISE_RE.sub(_drop_noise, raw_source)
    return "\n".join(line.rstrip() for line in stripped.split("\n"))


def _drop_noise(match: re.Match) -> str:
    if match.group("open") is not None:
        logger.warning("unterminated block comment; stripping to end of file")
    return ""


def split_identifier(identifier: str, keep_compound: bool = True) -> list[str]:
    """Split an identifier into lowercase alphabetic parts.

    Boundaries are camelCase transitions, underscores, and digit runs;
    acronym runs stay together (``XMLParser`` -> xml, parser). When
    ``keep_compound`` is set and the identifier has more than one part, the
    concatenation of all its letters is appended as an extra term, so
    ``MAX_VALUE`` yields max, value, maxvalue.
    """
    parts = [part.lower() for part in _CAMEL_RE.findall(identifier)]
    if keep_compound:
        compound = "".join(parts)
        if compound and parts != [compound]:
            parts.append(compound)
    return parts


def stem(term: str) -> str:
    """Porter stem of a lowercase term."""
    return porter.stem(term)


def _stem_fixpoint(term: str) -> str:
    # Porter is not idempotent (agree -> agre -> agr); iterating to a fixed
    # point keeps the whole pipeline idempotent over its own output.
    while True:
        stemmed = porter.stem(term)
        if stemmed == term:
            return term
        term = stemmed


@dataclass
class Memo:
    """What one preprocessing call has worked out, shared by its documents:
    each raw word's terms (split, filtered, stemmed and length-filtered) in
    ``words``, and each identifier part's stem in ``stems``. Distinct words
    and parts are few next to their occurrences. Valid for one config; keep
    one only as long as the call, so that every call does its own work.
    :func:`preprocess_benchmark` keeps one memo per worker: one per chunk of
    the benchmark, and a chunk per worker."""

    words: dict[str, tuple[str, ...]] = field(default_factory=dict)
    stems: dict[str, str] = field(default_factory=dict)


def _expand(word: str, config: PreprocessConfig, stems: dict[str, str]) -> tuple[str, ...]:
    """The terms one raw word contributes to a stream, in order."""
    drop = config.reserved
    terms = []
    for part in split_identifier(word, config.split_compound_identifiers):
        if part in drop:
            continue
        stemmed = stems.get(part)
        if stemmed is None:
            stemmed = stems[part] = _stem_fixpoint(part)
        if len(stemmed) >= config.min_token_length and stemmed not in drop:
            terms.append(stemmed)
    return tuple(terms)


def preprocess(text: str, origin: str = BUG_REPORT,
               config: PreprocessConfig | None = None,
               memo: Memo | None = None) -> TokenStream:
    """Run the full normalization pipeline over one document's text.

    Source text is first scrubbed of comments and literals. Tokens are
    split into identifier parts (plus compounds), filtered against the
    stop-word and language-keyword lists, stemmed, filtered again (a stem
    may collapse onto a reserved word, e.g. classes -> class), and finally
    length-filtered. An empty result is legal.

    ``memo`` carries each distinct word's terms and each part's stem across
    the documents of one call: pass the same :class:`Memo` for every
    document of a corpus.
    """
    if origin not in (BUG_REPORT, SOURCE_FILE):
        raise ValueError(f"unknown document origin: {origin!r}")
    config = config or PreprocessConfig()
    if origin == SOURCE_FILE:
        text = strip_code_noise(text)
    memo = memo or Memo()
    words, stems = memo.words, memo.stems
    tokens: list[str] = []
    for word in _WORD_RE.findall(text):
        terms = words.get(word)
        if terms is None:
            terms = words[word] = _expand(word, config, stems)
        tokens += terms
    return TokenStream(tokens=tuple(tokens), origin=origin)


def preprocess_project(project, config: PreprocessConfig | None = None,
                       memo: Memo | None = None) -> None:
    """Fill ``token_stream`` on every source file and bug report in place.

    Words and stems are memoized in ``memo`` (a fresh one by default) for
    the duration of the call only, so every call expands its own corpus.
    """
    config = config or PreprocessConfig()
    memo = memo or Memo()
    for src in project.source_files:
        src.token_stream = preprocess(src.raw_text, SOURCE_FILE, config, memo)
    for report in project.bug_reports:
        report.token_stream = preprocess(report.text, BUG_REPORT, config, memo)


def documents(benchmark):
    """(document, origin) in index order: projects by name, each project's
    source files, then its bug reports."""
    for project in sorted(benchmark.projects, key=lambda p: p.name):
        for src in project.source_files:
            yield src, SOURCE_FILE
        for report in project.bug_reports:
            yield report, BUG_REPORT


def encode_streams(streams) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The streams as their distinct terms, in first-occurrence order, each
    stream's int64 offset into the term ids and the end, and the int32 term
    ids in order."""
    streams = list(streams)
    offsets = np.cumsum([0, *(len(stream.tokens) for stream in streams)])
    tokens = list(itertools.chain.from_iterable(stream.tokens for stream in streams))
    term_ids = {term: i for i, term in enumerate(dict.fromkeys(tokens))}
    return (list(term_ids), offsets,
            np.fromiter(map(term_ids.__getitem__, tokens), np.int32, len(tokens)))


def decode_streams(terms, offsets, ids, origins) -> list[TokenStream]:
    """The streams that :func:`encode_streams` gave ``terms``, ``offsets``
    and ``ids`` for, with these origins, decoded one at a time; every stream
    shares one str per term."""
    lookup = terms.__getitem__
    bounds = offsets.tolist()
    return [TokenStream(tuple(map(lookup, ids[start:end].tolist())), origin)
            for origin, start, end in zip(origins, bounds, bounds[1:])]


class _Streams(list):
    """A list of token streams that pickles as :func:`encode_streams` of
    them and unpickles through :func:`decode_streams`: a worker sends its
    streams back as one str per distinct term and an int32 id per token."""

    def __reduce__(self):
        return decode_streams, (*encode_streams(self), [stream.origin for stream in self])


def _chunks(lengths: list[int], workers: int) -> list[tuple[int, int]]:
    """(start, end) of up to ``workers`` contiguous, non-empty spans of the
    documents of these text lengths: cut into ``workers`` equal parts, the
    text of each document goes to the part that holds its middle."""
    total = sum(lengths)
    parts = [min(workers - 1, (2 * start + length) * workers // (2 * total))
             for start, length in zip(itertools.accumulate(lengths, initial=0), lengths)]
    cuts = [0, *(i for i in range(1, len(parts)) if parts[i] != parts[i - 1]), len(parts)]
    return list(zip(cuts, cuts[1:]))


def preprocess_benchmark(benchmark, config: PreprocessConfig | None = None) -> None:
    """Fill ``token_stream`` on every document of every project in place,
    with one :class:`Memo` per worker.

    A benchmark of at least twice ``_CHARS_PER_WORKER`` characters of text
    is preprocessed on one worker per that many characters, up to one per
    CPU this process may use (:mod:`bugloc.pool`): the documents, in
    :func:`documents` order, are cut into one contiguous chunk per worker of
    about equal text length; the caller preprocesses the first and children
    forked from it the others, each chunk through :func:`preprocess` with a
    memo of its own. A child sends its streams back as :func:`encode_streams`
    arrays (see :class:`_Streams`) with what it logged, which the caller
    logs in document order. A memo never changes a term, so the streams are
    those of one memo over the whole benchmark. A smaller benchmark, or one
    on one CPU, is preprocessed in process, and nothing is forked.
    """
    config = config or PreprocessConfig()
    docs = list(documents(benchmark))
    texts = [doc.raw_text if origin == SOURCE_FILE else doc.text for doc, origin in docs]
    lengths = list(map(len, texts))
    workers = min(pool.cpu_count(), sum(lengths) // _CHARS_PER_WORKER)
    spans = _chunks(lengths, workers) if workers > 1 else [(0, len(docs))]

    def chunk(span: tuple[int, int]) -> _Streams:
        memo = Memo()
        return _Streams(preprocess(text, origin, config, memo)
                        for (_, origin), text in zip(docs[slice(*span)], texts[slice(*span)]))

    chunks = pool.run(spans, chunk, len(spans),
                      lambda span: f"the process preprocessing documents {span[0]} to "
                                   f"{span[1] - 1} exited without reporting")
    for span, streams in zip(spans, chunks):
        for (doc, _), stream in zip(docs[slice(*span)], streams):
            doc.token_stream = stream
