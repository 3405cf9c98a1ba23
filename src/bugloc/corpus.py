"""Benchmark loading: projects, source files, bug reports, fix links.

Canonical on-disk layout, one directory per project::

    <project>/
        sources/**/*.java      file identity = path relative to sources/
        bugs/*.json            one report per file, see below

Bug JSON schema: ``{"id": str or int, "summary": str, "description": str,
"fixed_files": [relative paths], "open_date": optional ISO-8601 string}``.
A null or missing summary or description loads as ``""``, a null or
missing open date as none; a field of another type is an error.

Projects exported in the BugLocator/Bench4BL XML convention
(``<project>/bugrepo/repository.xml``) load through the same entry points;
the adapter is picked by what is on disk. An optional ``manifest.csv`` at
the root lists each project's expected file and report counts.

:func:`project_dirs` and :func:`project_files` list what the loaders read,
so the cache can hash exactly those bytes to tell whether a benchmark
changed. Given a ``stamp`` callable they also report, each just before it
is looked into, every directory whose entries decide that listing: the
root, each project directory, ``sources/`` and every directory under it,
and ``bugs/`` when it exists, else ``bugrepo/``. Creating, removing or
renaming an entry moves its directory's ``mtime`` and ``ctime``, so while
none of those directories changes its stat the listing is the same, and
the cache stats them instead of listing again. Directories whose names
start with ``.`` (``.git/``, ``.idea/``) are not projects.
"""

from __future__ import annotations

import json
import logging
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .errors import CorpusError

if TYPE_CHECKING:
    from .preprocess import TokenStream

logger = logging.getLogger(__name__)

# Bump on any change to how the same files load (parsing, fix-link
# resolution, report order or filtering), so that cached artifacts rebuild.
LOADER_VERSION = 2

MANIFEST = "manifest.csv"


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


@dataclass
class Benchmark:
    projects: list[Project]
    manifest: dict[str, tuple[int, int]] | None = None
    root: Path | None = None    # the directory it was loaded from

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
            link = link.replace("\\", "/").lstrip("/")
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


class ProjectFiles(NamedTuple):
    """The files :func:`load_project` reads in a project directory."""

    sources: list[str]          # sources/**/*.java as ids: "/"-paths under sources/
    reports: list[str]          # bugs/*.json, or else bugrepo/repository.xml, as
                                # "/"-paths under the project directory
    report_format: str | None   # "json", "xml", or None when there are neither


def _unstamped(path) -> None:
    pass


def project_files(root: Path, stamp=_unstamped) -> ProjectFiles:
    """Each list in path order: sorted by path component, as ``Path`` sorts.

    ``stamp`` is called with the path of the project directory, of
    ``sources/``, of each directory under it and of ``bugs/`` or, without
    that, ``bugrepo/``, each before it is looked into; ``sources/`` and
    ``bugrepo/`` also when they are missing."""
    top = os.path.join(root, "sources")
    stamp(root)
    stamp(top)
    cut = len(top) + 1
    sources = []
    for dirpath, dirnames, names in os.walk(top):
        for name in dirnames:  # os.walk lists a directory after its parent's turn
            stamp(os.path.join(dirpath, name))
        base = dirpath[cut:].replace(os.sep, "/")
        sources += [f"{base}/{n}" if base else n for n in names if n.endswith(".java")]
    sources.sort(key=lambda rel: rel.split("/"))
    bugs_dir = os.path.join(root, "bugs")
    if os.path.isdir(bugs_dir):
        stamp(bugs_dir)
        return ProjectFiles(sources, [f"bugs/{n}" for n in sorted(os.listdir(bugs_dir))
                                      if n.endswith(".json")], "json")
    bugrepo = os.path.join(root, "bugrepo")
    stamp(bugrepo)
    if os.path.isfile(os.path.join(bugrepo, "repository.xml")):
        return ProjectFiles(sources, ["bugrepo/repository.xml"], "xml")
    return ProjectFiles(sources, [], None)


def project_dirs(root: Path, stamp=_unstamped) -> list[Path]:
    """The project directories of a benchmark root, sorted: every directory
    in it whose name does not start with ``.``. ``stamp`` is called with
    ``root`` before it is listed."""
    stamp(root)
    return sorted(p for p in root.iterdir() if not p.name.startswith(".") and p.is_dir())


def _optional_str(raw: dict, key: str) -> str | None:
    value = raw.get(key)
    if value is not None and not isinstance(value, str):
        raise TypeError(f"{key!r} must be a string or null, not {type(value).__name__}")
    return value


def _load_json_reports(paths: list[str], index: _FileIndex, strict: bool) -> list[BugReport]:
    reports = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.loads(fh.read())
            if not isinstance(raw, dict):
                raise TypeError("not a JSON object")
            raw_id, links = raw["id"], raw.get("fixed_files", [])
            if isinstance(raw_id, bool) or not isinstance(raw_id, (str, int)):
                raise TypeError(f"'id' must be a string or an integer, "
                                f"not {type(raw_id).__name__}")
            if not (isinstance(links, list) and all(isinstance(link, str) for link in links)):
                raise TypeError("'fixed_files' must be a list of strings")
            bug_id = str(raw_id)
            report = BugReport(
                id=bug_id,
                summary=_optional_str(raw, "summary") or "",
                description=_optional_str(raw, "description") or "",
                fixed_files=index.resolve(bug_id, links, strict),
                timestamp=_optional_str(raw, "open_date"),
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
    sources_dir = root / "sources"
    if not sources_dir.is_dir():
        raise CorpusError(f"{root}: missing sources/ directory")
    files = project_files(root)
    source_files = []
    for rel in files.sources:
        with open(os.path.join(sources_dir, rel), encoding="utf-8", errors="replace") as fh:
            source_files.append(SourceFile(id=rel, path=rel, raw_text=fh.read()))
    index = _FileIndex(f.id for f in source_files)

    if files.report_format == "json":
        reports = _load_json_reports([os.path.join(root, rel) for rel in files.reports],
                                     index, strict)
    elif files.report_format == "xml":
        reports = _load_xml_reports(root / files.reports[0], index, strict)
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
    for number, line in enumerate(path.read_text("utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("project,"):
            continue
        try:
            name, n_files, n_reports = [part.strip() for part in line.split(",")]
            manifest[name] = (int(n_files), int(n_reports))
        except ValueError:
            raise CorpusError(f"{path}: line {number} is not project,files,reports: "
                              f"{line!r}") from None
    return manifest


def _check_manifest(manifest: dict[str, tuple[int, int]], project: Project) -> None:
    expected = manifest.get(project.name)
    if expected is None:
        return
    actual = (len(project.source_files), len(project.bug_reports))
    if actual != expected:
        raise CorpusError(
            f"{project.name}: manifest expects {expected[0]} source files "
            f"and {expected[1]} bug reports, found {actual[0]} and {actual[1]}")


def load_benchmark(root_path, strict: bool = True) -> Benchmark:
    """Load every project subdirectory, validate each, and check the
    optional ``manifest.csv`` (project, source file count, bug report count)."""
    root = Path(root_path)
    if not root.is_dir():
        raise CorpusError(f"benchmark directory not found: {root}")
    dirs = project_dirs(root)
    if not dirs:
        raise CorpusError(f"no projects found under {root}")

    projects, failures = [], []
    for pdir in dirs:
        try:
            projects.append(validate_and_filter(load_project(pdir, strict=strict)))
        except CorpusError as exc:
            failures.append(f"{pdir.name}: {exc}")
    if failures:
        raise CorpusError("failed to load projects: " + "; ".join(failures))

    manifest = None
    manifest_path = root / MANIFEST
    if manifest_path.is_file():
        manifest = _load_manifest(manifest_path)
        for project in projects:
            _check_manifest(manifest, project)
    return Benchmark(projects=projects, manifest=manifest, root=root)


def load_benchmark_project(root_path, name: str, strict: bool = True) -> Project:
    """One project of the benchmark at ``root_path``, loaded, filtered and
    checked against ``manifest.csv`` as :func:`load_benchmark` would, without
    reading the other projects."""
    root = Path(root_path)
    if not root.is_dir():
        raise CorpusError(f"benchmark directory not found: {root}")
    if name not in {p.name for p in project_dirs(root)}:
        raise CorpusError(f"unknown project: {name}")
    project = validate_and_filter(load_project(root / name, strict=strict))
    manifest_path = root / MANIFEST
    if manifest_path.is_file():
        _check_manifest(_load_manifest(manifest_path), project)
    return project
