"""Seeded generator of Java-like benchmark corpora with planted ground truth.

The generated tree follows bugloc's canonical layout
(``<project>/sources/**/*.java`` and ``<project>/bugs/*.json``); bugloc sees
nothing else. The generator also returns the same data in memory, so the
oracle never has to read it back through bugloc.

What makes the ranking task non-trivial:

- every project has topics; files of one topic share most of their
  identifier words, so a report about one file also matches its siblings;
- file lengths are log-normal (skewed, a few very long files), with
  comments and string literals that the pipeline must strip;
- reports mention terms of files they did not fix (stack-trace lines,
  "also seen in" remarks) and generic English;
- some fixes span several files, and fix targets follow a skewed
  popularity, so the same files are fixed again and history helps.
"""

from __future__ import annotations

import json
import math
import random
from statistics import NormalDist
from dataclasses import dataclass
from pathlib import Path

# Real words give the stemmer realistic work; the made-up ones widen the
# vocabulary the way project-specific jargon does.
_WORDS = """
account action adapter address agent alarm align allocate anchor append
archive array asset attach attribute audit backup balance banner batch
bind block border bound branch bridge browse bucket buffer blueprint bundle
button cache calendar callback canvas capture cargo catalog channel chart
checkout chunk cipher circle claim client clock cluster codec column
command comment commit compile component compress config connect console
consumer contact container content context control convert cookie
counter cursor dashboard database dataset debug decode default delegate
delete deploy descriptor device dialog digest directory dispatch display
document domain download draft drone editor element encode endpoint
engine entity entry event exception executor export extension factory
feature fetch field filter folder font footer format frame gateway
gauge generator graph grid group handler hash header heap history host
icon image import index inject input insert inspect instance interval
invoice inventory item journal kernel label launch layer layout ledger
lexer library limit listener loader locale lock logger lookup manager
mapper marker matrix member memory menu merge message metric migrate
mirror model module monitor mount network node notify object observer
offset option order output owner package packet page panel parser
partition password patch payload peer permission pipeline pixel plugin
policy pool portal position preview printer process profile project
property provider proxy publish query queue quota range reader record
redirect reference region registry render replica report request
resolve resource response result retry revision role route router rule
runner sample scanner schedule schema scope screen script search
section segment select sensor sequence server service shelf setting
shape shard signal snapshot socket source span splitter stack stage
state status storage stream style subject summary supplier switch
symbol sync table target task template tenant terminal theme thread
ticket timer token toolbar topic tracker transaction transform tree
trigger tuple upload user validator value vector version viewer volume
widget window worker workflow writer zone
""".split()

_COMMON = """
get set value result list map index count size name type data item info
state init update create remove add find check load save handle build
parse read write close open start stop reset clear apply
""".split()

# Generic bug-report prose; mostly stop words or terms common to every report.
_PROSE = """
the when after before with while is was it this that does not cannot
crash crashes error fails failing wrong unexpected broken hangs freezes
throws exception null pointer click press screen user please see attached
log trace steps reproduce expected actual behaviour again sometimes always
""".split()

_CONSONANTS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"
_TYPES = ["int", "long", "String", "boolean", "double", "Object", "List", "Map"]
_JARGON_WORDS = 300
_LENGTH_SIGMA = 0.7    # shape of the log-normal file length


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of one generated benchmark."""

    projects: int
    files: int             # source files per project
    reports: int           # bug reports per project
    mean_idents: int       # mean identifier occurrences per file body
    max_idents: int        # cap on the log-normal file length
    topic_size: int = 8    # files per topic, on average


@dataclass
class GenFile:
    id: str                # path relative to sources/
    text: str
    topic: int


@dataclass
class GenReport:
    id: str
    summary: str
    description: str
    fixed: list[str]
    open_date: str

    @property
    def text(self) -> str:
        """The query text bugloc builds from a report: summary, newline, description."""
        return f"{self.summary}\n{self.description}"


@dataclass
class GenProject:
    name: str
    files: list[GenFile]
    reports: list[GenReport]     # in history order (open_date, then id)


def _camel(words: list[str]) -> str:
    return words[0] + "".join(w.capitalize() for w in words[1:])


def _pascal(words: list[str]) -> str:
    return "".join(w.capitalize() for w in words)


class _Generator:
    def __init__(self, spec: CorpusSpec, seed: int):
        self.spec = spec
        self.rng = random.Random(seed)
        jargon = set()
        while len(jargon) < _JARGON_WORDS:
            jargon.add("".join(self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS)
                               for _ in range(self.rng.randint(2, 3)))
                       + self.rng.choice("klmnrtx"))
        self.pool = sorted(set(_WORDS) | jargon)

    # -- source files -------------------------------------------------------

    def _ident(self, topic_words: list[str], parts: int) -> list[str]:
        words = [self.rng.choice(topic_words) for _ in range(parts)]
        if self.rng.random() < 0.3:
            words.insert(0, self.rng.choice(_COMMON))
        return words

    def _comment_words(self, n: int) -> str:
        return " ".join(self.rng.choice(self.pool + _PROSE) for _ in range(n))

    def _java_file(self, package: str, class_words: list[str], topic_words: list[str],
                   n_idents: int) -> str:
        rng = self.rng
        lines = [f"package {package};", "",
                 "import java.util.List;", "import java.util.Map;", "",
                 "/**", f" * {self._comment_words(rng.randint(6, 14))}",
                 f" * @author {rng.choice(self.pool)}", " */",
                 f"public class {_pascal(class_words)} {{"]
        used = 0
        for _ in range(rng.randint(2, 6)):
            field = _camel(self._ident(topic_words, rng.randint(1, 2)))
            lines.append(f"    private {rng.choice(_TYPES)} {field};")
            used += 1
        while used < n_idents:
            method = _camel([rng.choice(_COMMON)] + self._ident(topic_words, rng.randint(1, 2)))
            params = [_camel(self._ident(topic_words, 1)) for _ in range(rng.randint(0, 3))]
            signature = ", ".join(f"{rng.choice(_TYPES)} {p}" for p in params)
            lines.append("")
            if rng.random() < 0.5:
                lines.append(f"    /** {self._comment_words(rng.randint(4, 12))} */")
            lines.append(f"    public {rng.choice(_TYPES)} {method}({signature}) {{")
            used += 1 + len(params)
            for _ in range(rng.randint(1, 8)):
                target = _camel(self._ident(topic_words, rng.randint(1, 3)))
                source = _camel(self._ident(topic_words, rng.randint(1, 2)))
                roll = rng.random()
                if roll < 0.15:
                    lines.append(f"        // {self._comment_words(rng.randint(3, 9))}")
                    continue
                if roll < 0.3:
                    lines.append(f'        logger.debug("{self._comment_words(rng.randint(2, 6))}"'
                                 f" + {source});")
                elif roll < 0.5:
                    lines.append(f"        if ({source} != null) {{ {target} = {source}; }}")
                elif roll < 0.6:
                    lines.append(f"        for (int i = 0; i < {source}.size(); i++) "
                                 f"{{ {target}.add({source}.get(i)); }}")
                else:
                    lines.append(f"        {target} = this.{source}({rng.randint(0, 9)});")
                used += 2
            lines.append("        return null;")
            lines.append("    }")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def _project_files(self, p: int, topics: list[list[str]]) -> tuple[list[GenFile], dict]:
        spec, rng = self.spec, self.rng
        files, vocab_of, seen = [], {}, set()
        # Every seed gets the same skewed length profile, shuffled: seeds vary
        # the content of a corpus, not its size.
        dist = NormalDist(math.log(spec.mean_idents) - _LENGTH_SIGMA ** 2 / 2, _LENGTH_SIGMA)
        lengths = [int(math.exp(dist.inv_cdf((i + 0.5) / spec.files)))
                   for i in range(spec.files)]
        lengths = [min(spec.max_idents, max(8, n)) for n in lengths]
        rng.shuffle(lengths)
        for i, n_idents in enumerate(lengths):
            topic = i % len(topics)
            words = topics[topic]
            class_words = rng.sample(words, 2)
            name = _pascal(class_words)
            while name in seen:
                class_words.append(rng.choice(words))
                name = _pascal(class_words)
            seen.add(name)
            # a file mostly uses its topic's words plus a few of its own
            own = rng.sample(self.pool, 3)
            file_words = words + own + class_words * 2
            package = f"org.proj{p + 1}.{words[0]}"
            text = self._java_file(package, class_words, file_words, n_idents)
            file_id = f"org/proj{p + 1}/{words[0]}/{name}.java"
            files.append(GenFile(file_id, text, topic))
            vocab_of[file_id] = (class_words, own, words)
        return files, vocab_of

    # -- bug reports --------------------------------------------------------

    def _report(self, bug_id: str, fixed: list[str], vocab_of: dict, other: str,
                day: int) -> GenReport:
        rng = self.rng
        class_words, own, words = vocab_of[fixed[0]]
        o_class, o_own, _ = vocab_of[other]
        summary_terms = [rng.choice(own + words) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            summary_terms.append(_pascal(class_words))
        summary = (f"{rng.choice(['Crash', 'Error', 'Wrong result', 'Hang', 'Exception'])} "
                   f"in {' '.join(summary_terms)} when {rng.choice(words)} "
                   f"{rng.choice(_PROSE)}")
        body = []
        for _ in range(2 + day % 4):
            sentence = [rng.choice(_PROSE) for _ in range(rng.randint(3, 7))]
            sentence += [rng.choice(words + own) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                sentence.append(rng.choice(o_own))
            rng.shuffle(sentence)
            body.append(" ".join(sentence) + ".")
        if rng.random() < 0.5:
            body.append(f"at org.{_pascal(o_class)}.{_camel([rng.choice(_COMMON), o_own[0]])}"
                        f"(Unknown Source)")
        if rng.random() < 0.3:
            body.append(f"Also seen in {_pascal(o_class)} after {rng.choice(o_own)} changes.")
        year, rest = divmod(day, 336)
        month, dom = divmod(rest, 28)
        stamp = f"{2015 + year:04d}-{month + 1:02d}-{dom + 1:02d}T{rng.randint(0, 23):02d}:00:00"
        return GenReport(bug_id, summary, " ".join(body), sorted(set(fixed)), stamp)

    def _project_reports(self, p: int, files: list[GenFile], vocab_of: dict) -> list[GenReport]:
        spec, rng = self.spec, self.rng
        ids = [f.id for f in files]
        topic_of = {f.id: f.topic for f in files}
        by_topic: dict[int, list[str]] = {}
        for f in files:
            by_topic.setdefault(f.topic, []).append(f.id)
        popularity = ids[:]
        rng.shuffle(popularity)
        weights = [1.0 / (rank + 1) ** 0.9 for rank in range(len(popularity))]
        reports = []
        for r in range(spec.reports):
            primary = rng.choices(popularity, weights)[0]
            fixed = [primary]
            if rng.random() < 0.35:
                siblings = [f for f in by_topic[topic_of[primary]] if f != primary]
                fixed += rng.sample(siblings, min(len(siblings), rng.randint(1, 2)))
            other = rng.choice([f for f in ids if f not in fixed])
            reports.append(self._report(f"P{p + 1}-{r + 1:04d}", fixed, vocab_of, other, r))
        reports.sort(key=lambda rep: (rep.open_date, rep.id))
        return reports

    def generate(self) -> list[GenProject]:
        spec, rng = self.spec, self.rng
        projects = []
        # topics are drawn per project from the shared pool, so projects
        # overlap in vocabulary and global IDF differs from local IDF
        for p in range(spec.projects):
            n_topics = max(2, spec.files // spec.topic_size)
            topics = [rng.sample(self.pool, 12) for _ in range(n_topics)]
            files, vocab_of = self._project_files(p, topics)
            reports = self._project_reports(p, files, vocab_of)
            projects.append(GenProject(f"proj{p + 1}", files, reports))
        return projects


def generate(spec: CorpusSpec, seed: int) -> list[GenProject]:
    """Projects, files and reports for one seed; same seed, same corpus."""
    return _Generator(spec, seed).generate()


def write_tree(projects: list[GenProject], root: Path) -> None:
    """Write the corpus in bugloc's canonical layout under ``root``."""
    for project in projects:
        for f in project.files:
            path = root / project.name / "sources" / f.id
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(f.text, "utf-8")
        bugs = root / project.name / "bugs"
        bugs.mkdir(parents=True, exist_ok=True)
        for r in project.reports:
            (bugs / f"{r.id}.json").write_text(json.dumps({
                "id": r.id, "summary": r.summary, "description": r.description,
                "fixed_files": r.fixed, "open_date": r.open_date}), "utf-8")
