import logging

import pytest
from hypothesis import given, settings, strategies as st

from bugloc import porter
from bugloc.corpus import BugReport, Project, SourceFile
from bugloc.preprocess import (BUG_REPORT, SOURCE_FILE, PreprocessConfig,
                               TokenStream, preprocess, preprocess_project,
                               split_identifier, stem, strip_code_noise)

CONFIG = PreprocessConfig()


class TestStripCodeNoise:
    def test_line_comment(self):
        assert strip_code_noise("int x; // counter") == "int x;"

    def test_block_comment(self):
        assert strip_code_noise("/* a */ y = 1;") == " y = 1;"

    def test_string_literal_dropped(self):
        assert strip_code_noise('s = "hello world";') == "s = ;"

    def test_char_literal_dropped(self):
        assert strip_code_noise("c = 'x';") == "c = ;"

    def test_escaped_quote_inside_literal(self):
        assert strip_code_noise(r's = "a \" b"; int y;') == "s = ; int y;"

    def test_comment_marker_inside_literal(self):
        assert strip_code_noise('u = "http://x"; int k;') == "u = ; int k;"

    def test_unterminated_block_comment_strips_to_eof(self, caplog):
        with caplog.at_level(logging.WARNING):
            assert strip_code_noise("int a; /* oops") == "int a;"
        assert any("unterminated" in r.message for r in caplog.records)

    def test_multiline(self):
        src = "int a; // one\n/* two\nthree */ int b;\n"
        assert strip_code_noise(src) == "int a;\n int b;\n"


def reference_strip_code_noise(raw_source: str) -> str:
    """The character-loop scanner that the single regex replaced."""
    out: list[str] = []
    i, n = 0, len(raw_source)
    while i < n:
        c = raw_source[i]
        nxt = raw_source[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            i += 2
            while i < n and raw_source[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            end = raw_source.find("*/", i + 2)
            i = n if end == -1 else end + 2
        elif c == '"' or c == "'":
            quote = c
            i += 1
            while i < n and raw_source[i] != quote:
                if raw_source[i] == "\\":
                    i += 1
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "\n".join(line.rstrip() for line in "".join(out).split("\n"))


@pytest.mark.parametrize("text", [
    "", "/", "/*/", "/**/x", "a/*/b*/c", "//", "x//\ny", '"', "'", '"\\', "'\\",
    '"a\\"b"c', "'a\\\nb'c", '"\n"x', "a /* b\n c */ d // e\n f", "x = '\"'; y",
    '/* "unclosed */ z', '"/* not a comment */" w', "a  \t\nb \n",
])
def test_regex_matches_reference_on_edge_cases(text):
    assert strip_code_noise(text) == reference_strip_code_noise(text)


_java_ish = st.text(alphabet=st.sampled_from(list("/*\"'\\\n ab")), max_size=60)


@settings(max_examples=500, deadline=None)
@given(_java_ish)
def test_regex_matches_reference(text):
    assert strip_code_noise(text) == reference_strip_code_noise(text)


def test_unterminated_comment_warns_once_only_when_unterminated(caplog):
    with caplog.at_level(logging.WARNING):
        strip_code_noise("a /* b */ c /* d */")
    assert not caplog.records
    with caplog.at_level(logging.WARNING):
        strip_code_noise("a /* b */ c /* d")
    assert ["unterminated" in r.message for r in caplog.records] == [True]


class TestSplitIdentifier:
    def test_camel_case(self):
        assert split_identifier("getUserName") == ["get", "user", "name", "getusername"]

    def test_underscores(self):
        assert split_identifier("MAX_VALUE") == ["max", "value", "maxvalue"]

    def test_single_letter(self):
        assert split_identifier("x") == ["x"]

    def test_acronym_run(self):
        assert split_identifier("XMLParser") == ["xml", "parser", "xmlparser"]

    def test_digits_separate(self):
        assert split_identifier("utf8Decoder") == ["utf", "decoder", "utfdecoder"]

    def test_compound_disabled(self):
        assert split_identifier("getUserName", keep_compound=False) == ["get", "user", "name"]

    def test_pure_digits(self):
        assert split_identifier("404") == []


class TestPipeline:
    def test_bug_report_text(self):
        ts = preprocess("Stop the running job", BUG_REPORT, CONFIG)
        assert ts.tokens == ("stop", "run", "job")
        assert ts.origin == BUG_REPORT

    def test_source_keywords_removed(self):
        ts = preprocess("public void printLine()", SOURCE_FILE, CONFIG)
        assert ts.tokens == ("print", "line", "printlin")

    def test_empty_text(self):
        ts = preprocess("", BUG_REPORT, CONFIG)
        assert ts.empty
        assert len(ts) == 0

    def test_comment_text_not_indexed(self):
        ts = preprocess("int counter; // seekrit flamingo", SOURCE_FILE, CONFIG)
        assert "flamingo" not in ts.tokens
        assert "counter" in ts.tokens

    def test_stem_collapsing_onto_keyword_is_filtered(self):
        # "classes" stems to the reserved word "class"
        ts = preprocess("classes of widgets", BUG_REPORT, CONFIG)
        assert "class" not in ts.tokens
        assert "widget" in ts.tokens

    def test_unknown_origin_rejected(self):
        with pytest.raises(ValueError):
            preprocess("text", "email", CONFIG)

    def test_short_tokens_dropped(self):
        ts = preprocess("x y go stop", BUG_REPORT, CONFIG)
        assert ts.tokens == ("go", "stop")


# realistic-looking text: identifiers, prose words, punctuation, literals
_words = st.sampled_from([
    "runner", "connected", "parseLine", "MAX_VALUE", "the", "agree",
    "NullPointerException", "causes", "utf8", "x", "widgetFactory",
    "classes", "dying", "analyser", "this.field", "a_b_c", "pony;",
])
_texts = st.lists(_words, min_size=0, max_size=30).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(_texts)
def test_idempotent_over_own_output(text):
    once = preprocess(text, BUG_REPORT, CONFIG)
    again = preprocess(" ".join(once.tokens), BUG_REPORT, CONFIG)
    assert sorted(once.tokens) == sorted(again.tokens)


@settings(max_examples=200, deadline=None)
@given(_texts)
def test_no_stopwords_or_keywords_in_output(text):
    ts = preprocess(text, SOURCE_FILE, CONFIG)
    banned = CONFIG.stopwords | CONFIG.keywords
    assert not set(ts.tokens) & banned
    assert all(t == t.lower() and len(t) >= CONFIG.min_token_length for t in ts.tokens)


def test_deterministic():
    text = "Stop the running RunningJob jobs // with noise"
    a = preprocess(text, SOURCE_FILE, CONFIG)
    b = preprocess(text, SOURCE_FILE, CONFIG)
    assert a.tokens == b.tokens


def test_stems_memoized_within_one_call_only(monkeypatch):
    calls = []
    real_stem = porter.stem
    monkeypatch.setattr(porter, "stem", lambda term: calls.append(term) or real_stem(term))
    project = Project(
        name="p",
        source_files=[SourceFile(id="A.java", path="A.java",
                                 raw_text="class A { int running; int running2; }")],
        bug_reports=[BugReport(id="B-1", summary="running runner", description="",
                               fixed_files={"A.java"})])
    preprocess_project(project, CONFIG)
    first = list(calls)
    assert first.count("running") == 1
    assert project.bug_reports[0].token_stream.tokens == ("run", "runner")
    calls.clear()
    preprocess_project(project, CONFIG)
    assert calls == first


def test_config_from_files(tmp_path):
    stop = tmp_path / "stop.txt"
    stop.write_text("# comment\nfoo\nBAR\n")
    keys = tmp_path / "keys.txt"
    keys.write_text("zork\n")
    config = PreprocessConfig.load(stopwords_path=stop, keywords_path=keys)
    assert config.stopwords == frozenset({"foo", "bar"})
    assert config.keywords == frozenset({"zork"})
    ts = preprocess("foo bar zork quux", BUG_REPORT, config)
    assert ts.tokens == ("quux",)


def test_packaged_wordlists_parsed_once_and_fingerprint_once_per_config():
    first, second = PreprocessConfig(), PreprocessConfig(min_token_length=3)
    assert first.stopwords is second.stopwords and first.keywords is second.keywords
    assert first.fingerprint() is first.fingerprint()
    assert first.fingerprint()["min_token_length"] == 2
    assert second.fingerprint()["min_token_length"] == 3


def test_empty_wordlists_rejected():
    with pytest.raises(ValueError):
        PreprocessConfig(stopwords=frozenset(), keywords=frozenset({"if"}))


def test_token_stream_is_immutable():
    ts = TokenStream(("a",), BUG_REPORT)
    with pytest.raises(AttributeError):
        ts.tokens = ()


def test_stem_is_single_pass_porter():
    # the op itself is one Porter application; only the pipeline iterates
    assert stem("agreed") == "agre"
