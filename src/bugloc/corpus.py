"""Benchmark loading: projects, source files, bug reports, fix links.

Canonical on-disk layout, one directory per project::

    <project>/
        sources/**/*.java      file identity = path relative to sources/
        bugs/*.json            one report per file, see below

Bug JSON schema: ``{"id": str, "summary": str, "description": str,
"fixed_files": [relative paths], "open_date": optional ISO-8601 string}``.

Projects exported in the BugLocator/Bench4BL XML convention
(``<project>/bugrepo/repository.xml``) load through the same entry points;
the adapter is picked by what is on disk.
"""

from __future__ import annotations

import json
import logging
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import CorpusError

if TYPE_CHECKING:
    from .preprocess import TokenStream

logger = logging.getLogger(__name__)


@dataclass
class SourceFile:
    id: str
    path: str
    raw_text: str
    token_stream: "TokenStream | None" = None
    degenerate: bool = field(init=False, default=False)

    def __post_init__(self):
        self.degenerate = not self.raw_text.strip()


@dataclass
class BugReport:
    id: str
    summary: str
    description: str
    fixed_files: set[str]
    timestamp: str | None = None
    token_stream: "TokenStream | None" = None

    @property
    def text(self) -> str:
        """Query text: summary and description concatenated."""
        return f"{self.summary}\n{self.description}"


@dataclass
class Project:
    name: str
    source_files: list[SourceFile]
    bug_reports: list[BugReport]
    removed_reports: int = 0

    def __post_init__(self):
        self._by_id = {f.id: f for f in self.source_files}

    def file(self, file_id: str) -> SourceFile:
        return self._by_id[file_id]

    @property
    def file_ids(self) -> set[str]:
        return set(self._by_id)

    @property
    def has_queries(self) -> bool:
        return bool(self.bug_reports)

    def report(self, bug_id: str) -> BugReport:
        for r in self.bug_reports:
            if r.id == bug_id:
                return r
        raise KeyError(bug_id)


@dataclass
class Benchmark:
    projects: list[Project]
    manifest: dict[str, tuple[int, int]] | None = None

    def __post_init__(self):
        names = [p.name for p in self.projects]
        if len(set(names)) != len(names):
            raise CorpusError("duplicate project names in benchmark")

    def project(self, name: str) -> Project:
        for p in self.projects:
            if p.name == name:
                return p
        raise CorpusError(f"unknown project: {name}")

    @property
    def project_names(self) -> list[str]:
        return [p.name for p in self.projects]


def _report_sort_key(report: BugReport):
    # Timestamped reports first in time order; the rest by id. This fixed
    # ordering is what "history" means for indirect relevancy.
    if report.timestamp:
        return (0, report.timestamp, report.id)
    return (1, "", report.id)


class _FileIndex:
    """Path and basename lookups for fix-link resolution."""

    def __init__(self, file_ids):
        self.paths = set(file_ids)
        self.by_basename: dict[str, list[str]] = {}
        for path in sorted(self.paths):
            self.by_basename.setdefault(path.rsplit("/", 1)[-1], []).append(path)

    def _dotted(self, link: str) -> str | None:
        """The path a dotted class name such as ``org.foo.Bar.java``
        (BugLocator's ``repository.xml``) names: ``org/foo/Bar.java`` itself
        or the one project path ending in it."""
        stem, _, extension = link.rpartition(".")
        if "/" in link or "." not in stem:
            return None
        path = stem.replace(".", "/") + "." + extension
        if path in self.paths:
            return path
        matches = [p for p in self.by_basename.get(path.rsplit("/", 1)[-1], [])
                   if p.endswith("/" + path)]
        return matches[0] if len(matches) == 1 else None

    def resolve(self, bug_id: str, raw_links, strict: bool) -> set[str]:
        resolved = set()
        for link in raw_links:
            link = str(link).replace("\\", "/").lstrip("/")
            if link in self.paths:
                resolved.add(link)
                continue
            dotted = self._dotted(link)
            if dotted is not None:
                resolved.add(dotted)
                continue
            candidates = self.by_basename.get(link.rsplit("/", 1)[-1], [])
            if len(candidates) == 1:
                logger.warning("bug %s: fix link %r matched by basename to %r",
                               bug_id, link, candidates[0])
                resolved.add(candidates[0])
            elif strict:
                raise CorpusError(f"bug {bug_id}: unresolvable fix link {link!r}")
            else:
                logger.warning("bug %s: dropping unresolvable fix link %r", bug_id, link)
        return resolved


def _load_source_files(root: Path) -> list[SourceFile]:
    sources_dir = root / "sources"
    if not sources_dir.is_dir():
        raise CorpusError(f"{root}: missing sources/ directory")
    files = []
    for path in sorted(sources_dir.rglob("*.java")):
        rel = path.relative_to(sources_dir).as_posix()
        files.append(SourceFile(id=rel, path=rel, raw_text=path.read_text("utf-8", errors="replace")))
    return files


def _load_json_reports(bugs_dir: Path, index: _FileIndex, strict: bool) -> list[BugReport]:
    reports = []
    for path in sorted(bugs_dir.glob("*.json")):
        try:
            raw = json.loads(path.read_text("utf-8"))
            bug_id = str(raw["id"])
            report = BugReport(
                id=bug_id,
                summary=str(raw.get("summary", "")),
                description=str(raw.get("description", "")),
                fixed_files=index.resolve(bug_id, raw.get("fixed_files", []), strict),
                timestamp=raw.get("open_date"),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise CorpusError(f"malformed bug report {path}: {exc}") from exc
        reports.append(report)
    return reports


def _load_xml_reports(xml_path: Path, index: _FileIndex, strict: bool) -> list[BugReport]:
    """BugLocator/Bench4BL repository.xml adapter."""
    try:
        tree = ET.parse(xml_path)
    except ET.ParseError as exc:
        raise CorpusError(f"malformed bug repository {xml_path}: {exc}") from exc
    reports = []
    for bug in tree.getroot().iter("bug"):
        bug_id = bug.get("id")
        if bug_id is None:
            raise CorpusError(f"malformed bug repository {xml_path}: <bug> without id")
        info = bug.find("buginformation")
        summary = info.findtext("summary", "") if info is not None else ""
        description = info.findtext("description", "") if info is not None else ""
        links = [el.text for el in bug.iter("file") if el.text]
        reports.append(BugReport(
            id=bug_id,
            summary=summary or "",
            description=description or "",
            fixed_files=index.resolve(bug_id, links, strict),
            timestamp=bug.get("opendate"),
        ))
    return reports


def load_project(root_path, strict: bool = True) -> Project:
    """Load one project directory; fix links are resolved to file ids.

    With ``strict`` (default) an unresolvable fix link raises, naming the
    offending bug id; otherwise it is dropped with a warning and the report
    is left to ``validate_and_filter``.
    """
    root = Path(root_path)
    if not root.is_dir():
        raise CorpusError(f"project directory not found: {root}")
    source_files = _load_source_files(root)
    index = _FileIndex(f.id for f in source_files)

    bugs_dir = root / "bugs"
    xml_path = root / "bugrepo" / "repository.xml"
    if bugs_dir.is_dir():
        reports = _load_json_reports(bugs_dir, index, strict)
    elif xml_path.is_file():
        reports = _load_xml_reports(xml_path, index, strict)
    else:
        raise CorpusError(f"{root}: no bugs/ directory or bugrepo/repository.xml")
    # results and history are keyed by bug id, so one id must be one report
    seen = set()
    for report in reports:
        if report.id in seen:
            raise CorpusError(f"{root.name}: duplicate bug id {report.id!r}")
        seen.add(report.id)

    reports.sort(key=_report_sort_key)
    return Project(name=root.name, source_files=source_files, bug_reports=reports)


def validate_and_filter(project: Project) -> Project:
    """Drop bug reports with no resolvable fixed files (they cannot be
    queries); the removal count is kept on the returned project."""
    kept = [r for r in project.bug_reports if r.fixed_files]
    filtered = Project(name=project.name, source_files=project.source_files,
                       bug_reports=kept,
                       removed_reports=project.removed_reports + len(project.bug_reports) - len(kept))
    if not filtered.has_queries:
        logger.warning("project %s has no queries after filtering", project.name)
    return filtered


def _load_manifest(path: Path) -> dict[str, tuple[int, int]]:
    manifest = {}
    for line in path.read_text("utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("project,"):
            continue
        name, n_files, n_reports = [part.strip() for part in line.split(",")]
        manifest[name] = (int(n_files), int(n_reports))
    return manifest


def load_benchmark(root_path, strict: bool = True) -> Benchmark:
    """Load every project subdirectory, validate each, and check the
    optional ``manifest.csv`` (project, source file count, bug report count)."""
    root = Path(root_path)
    if not root.is_dir():
        raise CorpusError(f"benchmark directory not found: {root}")
    project_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not project_dirs:
        raise CorpusError(f"no projects found under {root}")

    projects, failures = [], []
    for pdir in project_dirs:
        try:
            projects.append(validate_and_filter(load_project(pdir, strict=strict)))
        except CorpusError as exc:
            failures.append(f"{pdir.name}: {exc}")
    if failures:
        raise CorpusError("failed to load projects: " + "; ".join(failures))

    manifest = None
    manifest_path = root / "manifest.csv"
    if manifest_path.is_file():
        manifest = _load_manifest(manifest_path)
        for project in projects:
            expected = manifest.get(project.name)
            if expected is None:
                continue
            actual = (len(project.source_files), len(project.bug_reports))
            if actual != expected:
                raise CorpusError(
                    f"{project.name}: manifest expects {expected[0]} source files "
                    f"and {expected[1]} bug reports, found {actual[0]} and {actual[1]}")
    return Benchmark(projects=projects, manifest=manifest)
