import logging
import multiprocessing
import multiprocessing.process
import os
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bugloc import pool, porter, preprocess as preprocess_module
from bugloc.corpus import Benchmark, BugReport, Project, SourceFile
from bugloc.preprocess import (BUG_REPORT, SOURCE_FILE, Memo, PreprocessConfig,
                               TokenStream, preprocess, preprocess_benchmark,
                               preprocess_project, split_identifier, stem, strip_code_noise)

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
    calls, splits = [], []
    real_stem, real_split = porter.stem, preprocess_module.split_identifier
    monkeypatch.setattr(porter, "stem", lambda term: calls.append(term) or real_stem(term))
    monkeypatch.setattr(preprocess_module, "split_identifier",
                        lambda word, keep=True: splits.append(word) or real_split(word, keep))
    project = Project(
        name="p",
        source_files=[SourceFile(id="A.java", path="A.java",
                                 raw_text="class A { int running; int running2; }"),
                      SourceFile(id="B.java", path="B.java",
                                 raw_text="class B { int running; int isRunning; }")],
        bug_reports=[BugReport(id="B-1", summary="running runner isRunning", description="",
                               fixed_files={"A.java"})])
    preprocess_project(project, CONFIG)
    first, first_splits = list(calls), list(splits)
    assert first.count("running") == 1
    assert sorted(first_splits) == sorted(
        {"class", "A", "B", "int", "running", "running2", "isRunning", "runner"})
    assert project.bug_reports[0].token_stream.tokens == ("run", "runner", "run", "isrun")
    calls.clear()
    splits.clear()
    preprocess_project(project, CONFIG)
    assert calls == first and splits == first_splits


_mixed = st.lists(st.tuples(st.one_of(_texts, st.text(max_size=40)),
                            st.sampled_from([BUG_REPORT, SOURCE_FILE])), max_size=8)


@settings(max_examples=100, deadline=None)
@given(_mixed)
def test_shared_memo_gives_the_streams_of_fresh_ones(docs):
    fresh = [preprocess(text, origin, CONFIG) for text, origin in docs]
    for order in (docs, docs[::-1]):
        memo = Memo()
        shared = [preprocess(text, origin, CONFIG, memo) for text, origin in order]
        assert shared == (fresh if order is docs else fresh[::-1])


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


def workers(monkeypatch, n):
    """Make preprocess_benchmark cut any benchmark into n chunks."""
    monkeypatch.setattr(pool, "cpu_count", lambda: n)
    monkeypatch.setattr(preprocess_module, "_CHARS_PER_WORKER", 1)


def benchmark_of(texts_by_project):
    """A benchmark of one source file per text and one report per project."""
    return Benchmark([
        Project(name, [SourceFile(f"F{i}.java", f"F{i}.java", text)
                       for i, text in enumerate(texts)],
                [BugReport(f"{name}-1", "closing comment", "missing", None)])
        for name, texts in texts_by_project.items()])


def streams_of(benchmark):
    return [doc.token_stream for doc, _ in preprocess_module.documents(benchmark)]


@settings(max_examples=30, deadline=None)
@given(st.dictionaries(st.sampled_from(["b", "a", "c"]),
                       st.lists(st.one_of(_texts, st.text(max_size=60)), max_size=6),
                       min_size=1))
def test_chunks_on_two_workers_give_the_streams_of_one(texts_by_project):
    streams, encoded = {}, {}
    for n in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            workers(mp, n)
            benchmark = benchmark_of(texts_by_project)
            encoded[n] = preprocess_benchmark(benchmark, CONFIG, encode=True)
        streams[n] = streams_of(benchmark)
    assert streams[1] == streams[2] == streams[3]
    terms, offsets, ids = preprocess_module.encode_streams(streams[1])
    for n, (got_terms, got_offsets, got_ids) in encoded.items():
        # merged from the chunks' own arrays, the index of one pass
        assert got_terms == terms, n
        assert got_offsets.tolist() == offsets.tolist() and got_ids.tolist() == ids.tolist(), n
    assert multiprocessing.active_children() == []


def test_merged_encodings_are_the_encoding_of_every_part():
    parts = [[TokenStream(("get", "user"), SOURCE_FILE), TokenStream((), BUG_REPORT)],
             [], [TokenStream(("run", "user", "x1"), SOURCE_FILE)],
             [TokenStream(("get",), BUG_REPORT), TokenStream(("x1", "é"), SOURCE_FILE)]]
    terms, offsets, ids = preprocess_module.merge_encodings(
        preprocess_module.encode_streams(part) for part in parts)
    want = preprocess_module.encode_streams([s for part in parts for s in part])
    assert terms == want[0] == ["get", "user", "run", "x1", "é"]
    assert offsets.dtype == np.int64 and offsets.tolist() == want[1].tolist()
    assert ids.dtype == np.int32 and ids.tolist() == want[2].tolist()


def test_worker_warnings_reach_the_caller_once_in_document_order(monkeypatch, caplog,
                                                                tmp_path):
    """Every file of both chunks has an unterminated block comment: each
    warns once, through the caller's logging, the caller's chunk first."""
    texts = {"p1": ["int a; /* open"] * 3, "p2": ["int b; /* open", "int c; /* open"]}
    report = len("closing comment\nmissing")
    lengths = [*map(len, texts["p1"]), report, *map(len, texts["p2"]), report]
    assert preprocess_module._chunks(lengths, 2) == [(0, 4), (4, 7)]  # p1 | p2
    caller, started, real = os.getpid(), tmp_path / "child started", preprocess

    def patched(text, origin=BUG_REPORT, config=None, memo=None):
        if os.getpid() != caller:
            started.touch()
        else:  # the caller's chunk waits until the child took the other
            for _ in range(1000):
                if started.exists() or not multiprocessing.active_children():
                    break
                time.sleep(0.01)
        return real(text, origin, config, memo)

    monkeypatch.setattr(preprocess_module, "preprocess", patched)
    logged, streams = {}, {}
    for n in (1, 2):
        workers(monkeypatch, n)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="bugloc.preprocess"):
            benchmark = benchmark_of(texts)
            preprocess_benchmark(benchmark, CONFIG)
        logged[n] = [(r.getMessage(), r.process) for r in caplog.records]
        streams[n] = streams_of(benchmark)
    assert streams[1] == streams[2]
    message = "unterminated block comment; stripping to end of file"
    assert logged[1] == [(message, caller)] * 5
    assert [text for text, _ in logged[2]] == [message] * 5
    pids = [pid for _, pid in logged[2]]
    assert pids[:3] == [caller] * 3
    assert len(set(pids[3:])) == 1 and pids[3] != caller
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("lengths, workers, expected", [
    ([5] * 8, 2, [(0, 4), (4, 8)]),
    ([1, 1, 1, 9], 2, [(0, 3), (3, 4)]),
    ([9, 1, 1, 1], 2, [(0, 1), (1, 4)]),
    ([100], 3, [(0, 1)]),
    ([3, 3, 3, 3, 3, 3], 3, [(0, 2), (2, 4), (4, 6)]),
])
def test_chunks_are_contiguous_and_cut_by_text_length(lengths, workers, expected):
    assert preprocess_module._chunks(lengths, workers) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.lists(st.sampled_from(["get", "user", "run", "x1", "é"]),
                                   max_size=6),
                          st.sampled_from([BUG_REPORT, SOURCE_FILE])), max_size=8))
def test_streams_pickle_as_ids_and_come_back_equal(docs):
    streams = preprocess_module._Streams(TokenStream(tuple(tokens), origin)
                                         for tokens, origin in docs)
    back = pickle.loads(pickle.dumps(streams))
    assert back == list(streams)
    terms = {}
    for stream in back:  # one str per term across the streams
        for token in stream.tokens:
            assert terms.setdefault(token, token) is token


@pytest.mark.parametrize("per_worker, started", [(0.5, 0), (0.49, 1), (0.3, 2), (0.01, 3)])
def test_one_worker_per_chars_per_worker_up_to_the_cpus(monkeypatch, per_worker, started):
    benchmark = benchmark_of({"p1": ["class A { int x; }", "int getUserName;"] * 4,
                              "p2": ["long runs;"] * 6})
    total = sum(len(doc.raw_text if origin == SOURCE_FILE else doc.text)
                for doc, origin in preprocess_module.documents(benchmark))
    starts = []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        lambda process: starts.append(process) or start(process))
    monkeypatch.setattr(pool, "cpu_count", lambda: 4)
    monkeypatch.setattr(preprocess_module, "_CHARS_PER_WORKER", int(total * per_worker) + 1)
    preprocess_benchmark(benchmark, CONFIG)
    assert len(starts) == started
    assert multiprocessing.active_children() == []


def test_small_benchmark_is_preprocessed_in_process(monkeypatch):
    """Below the size gate, no multiprocessing import and no fork, however
    many CPUs."""
    monkeypatch.setattr(pool, "cpu_count", lambda: 8)
    monkeypatch.setattr(pool, "_fork_context", lambda: pytest.fail("forked"))
    benchmark = benchmark_of({"p1": ["class A { int x; }"] * 3})
    preprocess_benchmark(benchmark, CONFIG)
    assert streams_of(benchmark)[0].tokens == ()
