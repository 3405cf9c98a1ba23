"""Text normalization: raw bug-report and source-file text to token streams.

The pipeline is deliberately lexical. Source files go through a
comment/literal-aware scanner rather than a real parser; everything
downstream consumes bags of terms, so syntactic structure would be wasted
effort. Identifiers are split on case, underscores and digits, with the
joined compound kept alongside its parts so exact class-name mentions in
bug reports still match.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from functools import cache, cached_property
from importlib import resources
from pathlib import Path

from . import porter

logger = logging.getLogger(__name__)

BUG_REPORT = "bug_report"
SOURCE_FILE = "source_file"

# Bump on any change to what the pipeline outputs for the same input, so
# that cached token streams and models built from them are rebuilt.
PIPELINE_VERSION = 1

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
    parts = [m.group(0).lower() for m in _CAMEL_RE.finditer(identifier)]
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


def preprocess(text: str, origin: str = BUG_REPORT,
               config: PreprocessConfig | None = None,
               stems: dict[str, str] | None = None) -> TokenStream:
    """Run the full normalization pipeline over one document's text.

    Source text is first scrubbed of comments and literals. Tokens are
    split into identifier parts (plus compounds), filtered against the
    stop-word and language-keyword lists, stemmed, filtered again (a stem
    may collapse onto a reserved word, e.g. classes -> class), and finally
    length-filtered. An empty result is legal.

    ``stems`` memoizes stemming across the documents of one call: pass the
    same dict for every document of a corpus, whose distinct terms are few
    next to its occurrences.
    """
    if origin not in (BUG_REPORT, SOURCE_FILE):
        raise ValueError(f"unknown document origin: {origin!r}")
    config = config or PreprocessConfig()
    if origin == SOURCE_FILE:
        text = strip_code_noise(text)
    drop = config.stopwords | config.keywords
    if stems is None:
        stems = {}
    tokens: list[str] = []
    for match in _WORD_RE.finditer(text):
        for part in split_identifier(match.group(0), config.split_compound_identifiers):
            if part in drop:
                continue
            stemmed = stems.get(part)
            if stemmed is None:
                stemmed = stems[part] = _stem_fixpoint(part)
            if len(stemmed) >= config.min_token_length and stemmed not in drop:
                tokens.append(stemmed)
    return TokenStream(tokens=tuple(tokens), origin=origin)


def preprocess_project(project, config: PreprocessConfig | None = None,
                       stems: dict[str, str] | None = None) -> None:
    """Fill ``token_stream`` on every source file and bug report in place.

    Stems are memoized in ``stems`` (a fresh dict by default) for the
    duration of the call only, so every call stems its own corpus.
    """
    config = config or PreprocessConfig()
    stems = {} if stems is None else stems
    for src in project.source_files:
        src.token_stream = preprocess(src.raw_text, SOURCE_FILE, config, stems)
    for report in project.bug_reports:
        report.token_stream = preprocess(report.text, BUG_REPORT, config, stems)


def preprocess_benchmark(benchmark, config: PreprocessConfig | None = None) -> None:
    config = config or PreprocessConfig()
    stems: dict[str, str] = {}
    for project in benchmark.projects:
        preprocess_project(project, config, stems)
