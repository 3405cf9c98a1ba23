import json
import os

import pytest

from bugloc.corpus import (CorpusError, load_benchmark, load_benchmark_project, load_project,
                           project_dirs, project_files, validate_and_filter)
from conftest import java_stub, write_project


def _bug(bug_id, fixed, stamp=None, summary="a crash", description="it crashes"):
    out = {"id": bug_id, "summary": summary, "description": description,
           "fixed_files": fixed}
    if stamp:
        out["open_date"] = stamp
    return out


@pytest.fixture
def small_project(tmp_path):
    files = {
        "a/Alpha.java": java_stub("alpha"),
        "a/Beta.java": java_stub("beta"),
        "Gamma.java": java_stub("gamma"),
    }
    bugs = [
        _bug("B-2", ["a/Alpha.java"], stamp="2021-02-01T00:00:00"),
        _bug("B-1", ["Gamma.java", "a/Beta.java"], stamp="2021-01-01T00:00:00"),
    ]
    return write_project(tmp_path, "demo", files, bugs)


def test_load_counts(small_project):
    project = load_project(small_project)
    assert len(project.source_files) == 3
    assert len(project.bug_reports) == 2
    assert project.name == "demo"


def test_file_identity_is_relative_path(small_project):
    project = load_project(small_project)
    assert project.file_ids == {"a/Alpha.java", "a/Beta.java", "Gamma.java"}
    assert project.file("Gamma.java").raw_text.startswith("public class")


def test_reports_ordered_by_timestamp(small_project):
    project = load_project(small_project)
    assert [r.id for r in project.bug_reports] == ["B-1", "B-2"]


def test_fix_links_resolved(small_project):
    project = load_project(small_project)
    assert project.bug_reports[project.row("B-1")].fixed_files == {"Gamma.java", "a/Beta.java"}


def test_sources_listed_in_path_order(tmp_path):
    names = ["a-b/X.java", "a/X.java", "a.b/X.java", "a/b/c/Y.java", "Z.java", "a/Z.java",
             "a/Notes.txt"]
    files = {name: java_stub("x") for name in names}
    root = write_project(tmp_path, "order", files, [_bug("B-1", ["Z.java"])])
    want = [p.relative_to(root / "sources").as_posix()
            for p in sorted((root / "sources").rglob("*.java"))]
    assert project_files(root).sources == want
    assert [f.id for f in load_project(root).source_files] == want
    assert project_files(root).reports == ["bugs/B-1.json"]


def test_listing_stamps_each_directory_before_looking_into_it(tmp_path, monkeypatch):
    bench = tmp_path / "bench"
    write_project(bench, "json", {"a/b/X.java": java_stub("x"), "Y.java": java_stub("y")},
                  [_bug("B-1", ["Y.java"])])
    (bench / "xml" / "sources").mkdir(parents=True)
    (bench / "xml" / "bugrepo").mkdir()
    (bench / ".git" / "objects").mkdir(parents=True)
    events = []
    for name in ("listdir", "scandir"):
        def listed(path=".", real=getattr(os, name)):
            events.append(("list", os.fspath(path)))
            return real(path)

        monkeypatch.setattr(os, name, listed)

    def stamp(path):
        events.append(("stamp", os.fspath(path)))

    projects = project_dirs(bench, stamp)
    for project in projects:
        project_files(project, stamp)
    monkeypatch.undo()
    assert [p.name for p in projects] == ["json", "xml"]
    for at, (kind, path) in enumerate(events):
        if kind == "list":
            assert ("stamp", path) in events[:at]
    stamped = [os.path.relpath(path, bench) for kind, path in events if kind == "stamp"]
    assert stamped == [".", "json", "json/sources", "json/sources/a", "json/sources/a/b",
                       "json/bugs", "xml", "xml/sources", "xml/bugrepo"]


def test_hidden_directories_are_not_projects(tmp_path):
    write_project(tmp_path, "p", {"A.java": java_stub("a")}, [_bug("B-1", ["A.java"])])
    (tmp_path / ".git").mkdir()
    (tmp_path / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (tmp_path / ".idea").mkdir()
    assert load_benchmark(tmp_path).project_names == ["p"]
    with pytest.raises(CorpusError, match="unknown project"):
        load_benchmark_project(tmp_path, ".git")


def test_missing_directory(tmp_path):
    with pytest.raises(CorpusError, match="not found"):
        load_project(tmp_path / "nope")


def test_unresolvable_link_names_bug_id(tmp_path):
    project_dir = write_project(tmp_path, "p", {"A.java": java_stub("a")},
                                [_bug("B-77", ["Missing.java"])])
    with pytest.raises(CorpusError, match="B-77"):
        load_project(project_dir)


def test_nonstrict_drops_bad_link(tmp_path, caplog):
    project_dir = write_project(tmp_path, "p", {"A.java": java_stub("a")},
                                [_bug("B-77", ["Missing.java", "A.java"])])
    project = load_project(project_dir, strict=False)
    assert project.bug_reports[project.row("B-77")].fixed_files == {"A.java"}


def test_basename_fallback_when_unambiguous(tmp_path):
    project_dir = write_project(tmp_path, "p", {"x/deep/A.java": java_stub("a")},
                                [_bug("B-1", ["A.java"])])
    project = load_project(project_dir)
    assert project.bug_reports[project.row("B-1")].fixed_files == {"x/deep/A.java"}


def test_basename_fallback_rejects_ambiguity(tmp_path):
    files = {"x/A.java": java_stub("a"), "y/A.java": java_stub("b")}
    project_dir = write_project(tmp_path, "p", files, [_bug("B-1", ["A.java"])])
    with pytest.raises(CorpusError, match="B-1"):
        load_project(project_dir)


def test_malformed_report(tmp_path):
    project_dir = write_project(tmp_path, "p", {"A.java": java_stub("a")}, [])
    (project_dir / "bugs" / "bad.json").write_text('{"summary": "no id"}')
    with pytest.raises(CorpusError, match="malformed"):
        load_project(project_dir)


class TestJsonFieldTypes:
    def load(self, tmp_path, **fields):
        """The report of a one-report project whose bug JSON is ``fields``
        over a valid report; a field set to ``...`` is left out."""
        bug = {**_bug("B-1", ["A.java"], stamp="2021-01-01"), **fields}
        project_dir = write_project(tmp_path, "p", {"A.java": java_stub("a")}, [])
        (project_dir / "bugs" / "bug.json").write_text(
            json.dumps({k: v for k, v in bug.items() if v is not ...}))
        (report,) = load_project(project_dir).bug_reports
        return report

    def test_null_or_missing_text_fields_load_empty(self, tmp_path):
        report = self.load(tmp_path, summary=None, description=..., open_date=None)
        assert (report.summary, report.description, report.timestamp) == ("", "", None)

    def test_integer_id_loads_as_text(self, tmp_path):
        assert self.load(tmp_path, id=7).id == "7"

    @pytest.mark.parametrize("field, value, message", [
        ("id", None, "'id' must be a string or an integer, not NoneType"),
        ("id", True, "'id' must be a string or an integer, not bool"),
        ("id", 1.5, "'id' must be a string or an integer, not float"),
        ("summary", 3, "'summary' must be a string or null, not int"),
        ("description", ["it", "crashes"], "'description' must be a string or null, not list"),
        ("open_date", 20210101, "'open_date' must be a string or null, not int"),
        ("fixed_files", "A.java", "'fixed_files' must be a list of strings"),
        ("fixed_files", ["A.java", 3], "'fixed_files' must be a list of strings"),
        ("fixed_files", None, "'fixed_files' must be a list of strings"),
    ])
    def test_wrong_type_rejected_naming_the_file(self, tmp_path, field, value, message):
        with pytest.raises(CorpusError, match=r"malformed bug report \S*bug\.json: ") as info:
            self.load(tmp_path, **{field: value})
        assert str(info.value).endswith(message)

    def test_not_an_object_rejected(self, tmp_path):
        project_dir = write_project(tmp_path, "p", {"A.java": java_stub("a")}, [])
        (project_dir / "bugs" / "bug.json").write_text('["B-1"]')
        with pytest.raises(CorpusError, match="bug.json: not a JSON object"):
            load_project(project_dir)

    def test_mixed_open_date_types_rejected_before_sorting(self, tmp_path):
        project_dir = write_project(tmp_path, "p", {"A.java": java_stub("a")}, [
            _bug("B-1", ["A.java"], stamp="2021-01-01"), {**_bug("B-2", ["A.java"]),
                                                         "open_date": 20210201}])
        with pytest.raises(CorpusError, match="B-2.json: 'open_date' must be a string"):
            load_project(project_dir)


def test_row_of_bug_id(small_project):
    project = load_project(small_project)
    assert [project.row(bug_id) for bug_id in ("B-1", "B-2")] == [0, 1]
    with pytest.raises(CorpusError, match="unknown bug id 'B-3' in project demo"):
        project.row("B-3")


def test_empty_file_flagged_degenerate(tmp_path):
    project_dir = write_project(tmp_path, "p",
                                {"A.java": "", "B.java": java_stub("b")},
                                [_bug("B-1", ["B.java"])])
    project = load_project(project_dir)
    assert project.file("A.java").degenerate
    assert not project.file("B.java").degenerate


class TestValidateAndFilter:
    def test_drops_empty_fix_sets(self, tmp_path):
        bugs = [_bug(f"B-{i}", ["A.java"]) for i in range(4)] + [_bug("B-empty", [])]
        project_dir = write_project(tmp_path, "p", {"A.java": java_stub("a")}, bugs)
        project = validate_and_filter(load_project(project_dir))
        assert len(project.bug_reports) == 4
        assert project.removed_reports == 1

    def test_identity_when_all_valid(self, small_project):
        project = validate_and_filter(load_project(small_project))
        assert len(project.bug_reports) == 2
        assert project.removed_reports == 0

    def test_no_queries_flagged(self, tmp_path):
        project_dir = write_project(tmp_path, "p", {"A.java": java_stub("a")},
                                    [_bug("B-1", [])])
        project = validate_and_filter(load_project(project_dir))
        assert not project.has_queries
        assert project.removed_reports == 1

    def test_every_kept_report_has_fix(self, tmp_path):
        bugs = [_bug("B-1", ["A.java"]), _bug("B-2", [])]
        project_dir = write_project(tmp_path, "p", {"A.java": java_stub("a")}, bugs)
        project = validate_and_filter(load_project(project_dir))
        assert all(r.fixed_files for r in project.bug_reports)


class TestBenchmark:
    def test_three_projects(self, tmp_path):
        for name in ("p1", "p2", "p3"):
            write_project(tmp_path, name, {"A.java": java_stub("a")},
                          [_bug("B-1", ["A.java"])])
        benchmark = load_benchmark(tmp_path)
        assert benchmark.project_names == ["p1", "p2", "p3"]

    def test_empty_root(self, tmp_path):
        with pytest.raises(CorpusError, match="no projects found"):
            load_benchmark(tmp_path)

    def test_errors_aggregated_with_project_names(self, tmp_path):
        write_project(tmp_path, "good", {"A.java": java_stub("a")},
                      [_bug("B-1", ["A.java"])])
        write_project(tmp_path, "broken", {"A.java": java_stub("a")},
                      [_bug("B-9", ["Nope.java"])])
        with pytest.raises(CorpusError, match="broken"):
            load_benchmark(tmp_path)

    def test_manifest_checked(self, tmp_path):
        write_project(tmp_path, "p1", {"A.java": java_stub("a")},
                      [_bug("B-1", ["A.java"])])
        (tmp_path / "manifest.csv").write_text(
            "project,source_files,bug_reports\np1,1,1\n")
        assert load_benchmark(tmp_path).manifest == {"p1": (1, 1)}

    def test_manifest_mismatch(self, tmp_path):
        write_project(tmp_path, "p1", {"A.java": java_stub("a")},
                      [_bug("B-1", ["A.java"])])
        (tmp_path / "manifest.csv").write_text(
            "project,source_files,bug_reports\np1,29,14\n")
        with pytest.raises(CorpusError, match="manifest"):
            load_benchmark(tmp_path)

    @pytest.mark.parametrize("line", ["p1,1", "p1,1,x", "p1,1,1,1"])
    def test_bad_manifest_line_names_file_and_line(self, tmp_path, line):
        write_project(tmp_path, "p1", {"A.java": java_stub("a")},
                      [_bug("B-1", ["A.java"])])
        (tmp_path / "manifest.csv").write_text(f"project,source_files,bug_reports\n{line}\n")
        with pytest.raises(CorpusError) as caught:
            load_benchmark(tmp_path)
        message = str(caught.value)
        assert "manifest.csv" in message and "line 2" in message
        assert "project,files,reports" in message and repr(line) in message

    def test_one_project_loads_alone_and_checks_the_manifest(self, tmp_path):
        write_project(tmp_path, "p1", {"A.java": java_stub("a")},
                      [_bug("B-1", ["A.java"]), _bug("B-2", ["Gone.java"])])
        write_project(tmp_path, "broken", {"A.java": java_stub("a")},
                      [_bug("B-9", ["Nope.java"])])
        project = load_benchmark_project(tmp_path, "p1", strict=False)
        assert [r.id for r in project.bug_reports] == ["B-1"]
        assert project.removed_reports == 1
        with pytest.raises(CorpusError, match="unknown project: nope"):
            load_benchmark_project(tmp_path, "nope")
        (tmp_path / "manifest.csv").write_text("project,source_files,bug_reports\np1,1,2\n")
        with pytest.raises(CorpusError, match="manifest"):
            load_benchmark_project(tmp_path, "p1", strict=False)

    def test_loading_is_deterministic(self, tmp_path):
        for name in ("p1", "p2"):
            write_project(tmp_path, name,
                          {"B.java": java_stub("b"), "A.java": java_stub("a")},
                          [_bug("B-2", ["A.java"]), _bug("B-1", ["B.java"])])
        first = load_benchmark(tmp_path)
        second = load_benchmark(tmp_path)
        for p1, p2 in zip(first.projects, second.projects):
            assert [f.id for f in p1.source_files] == [f.id for f in p2.source_files]
            assert [r.id for r in p1.bug_reports] == [r.id for r in p2.bug_reports]
            assert [f.raw_text for f in p1.source_files] == [f.raw_text for f in p2.source_files]


def test_duplicate_project_names_rejected():
    from bugloc.corpus import Benchmark, Project
    twin = Project(name="p", source_files=[], bug_reports=[])
    with pytest.raises(CorpusError, match="duplicate"):
        Benchmark(projects=[twin, Project(name="p", source_files=[], bug_reports=[])])


def _xml_project(tmp_path, sources, links):
    project_dir = tmp_path / "xmlproj"
    for rel in sources:
        (project_dir / "sources" / rel).parent.mkdir(parents=True, exist_ok=True)
        (project_dir / "sources" / rel).write_text(java_stub("bar"))
    (project_dir / "bugrepo").mkdir()
    files = "".join(f"<file>{link}</file>" for link in links)
    (project_dir / "bugrepo" / "repository.xml").write_text(
        f'<bugrepository><bug id="1"><buginformation><summary>bar fails</summary>'
        f'</buginformation><fixedFiles>{files}</fixedFiles></bug></bugrepository>')
    return project_dir


@pytest.mark.parametrize("sources, resolved", [
    (["org/foo/Bar.java"], "org/foo/Bar.java"),
    (["src/main/org/foo/Bar.java", "org/other/Bar.java"], "src/main/org/foo/Bar.java"),
])
def test_dotted_fix_link_resolves_to_path(tmp_path, sources, resolved):
    project = load_project(_xml_project(tmp_path, sources, ["org.foo.Bar.java"]))
    assert project.bug_reports[0].fixed_files == {resolved}


def test_dotted_fix_link_with_ambiguous_suffix_rejected(tmp_path):
    sources = ["a/org/foo/Bar.java", "b/org/foo/Bar.java"]
    with pytest.raises(CorpusError, match="unresolvable"):
        load_project(_xml_project(tmp_path, sources, ["org.foo.Bar.java"]))


def test_xml_adapter(tmp_path):
    project_dir = tmp_path / "xmlproj"
    src = project_dir / "sources" / "pkg"
    src.mkdir(parents=True)
    (src / "Widget.java").write_text(java_stub("widget"))
    repo = project_dir / "bugrepo"
    repo.mkdir()
    (repo / "repository.xml").write_text("""<?xml version="1.0"?>
<bugrepository name="xmlproj">
  <bug id="1001" opendate="2013-05-01 10:00:00" fixdate="2013-06-01 10:00:00">
    <buginformation>
      <summary>Widget breaks</summary>
      <description>The widget explodes on startup.</description>
    </buginformation>
    <fixedFiles>
      <file>pkg/Widget.java</file>
    </fixedFiles>
  </bug>
</bugrepository>
""")
    project = load_project(project_dir)
    assert len(project.bug_reports) == 1
    report = project.bug_reports[0]
    assert report.id == "1001"
    assert report.fixed_files == {"pkg/Widget.java"}
    assert "explodes" in report.text
    assert report.timestamp == "2013-05-01 10:00:00"


@pytest.mark.parametrize("strict", [True, False])
def test_duplicate_bug_id_rejected_json(tmp_path, strict):
    project_dir = write_project(tmp_path, "dup", {"A.java": java_stub("a")},
                                [_bug("B-1", ["A.java"])])
    (project_dir / "bugs" / "B-1-again.json").write_text(
        json.dumps(_bug("B-1", ["A.java"], summary="another crash")))
    with pytest.raises(CorpusError, match=r"dup: duplicate bug id 'B-1'"):
        load_project(project_dir, strict=strict)


@pytest.mark.parametrize("strict", [True, False])
def test_duplicate_bug_id_rejected_xml(tmp_path, strict):
    project_dir = _xml_project(tmp_path, ["org/foo/Bar.java"], ["org.foo.Bar.java"])
    xml = project_dir / "bugrepo" / "repository.xml"
    bug = '<bug id="1"><buginformation><summary>bar again</summary></buginformation></bug>'
    xml.write_text(xml.read_text().replace("</bugrepository>", bug + "</bugrepository>"))
    with pytest.raises(CorpusError, match=r"xmlproj: duplicate bug id '1'"):
        load_project(project_dir, strict=strict)
