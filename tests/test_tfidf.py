import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bugloc.corpus import Benchmark, Project, SourceFile
from bugloc.preprocess import SOURCE_FILE, TokenStream
from bugloc.tfidf import (LAYOUT, LengthNormalizer, Postings, TfIdfVector, Vocabulary,
                          build_global_idf, build_vocabulary, cosine, hold_out, load_vocabulary,
                          rvsm, save_vocabulary, source_streams, vectorize, weigh)


def stream(*tokens, origin=SOURCE_FILE):
    return TokenStream(tuple(tokens), origin)


def rvsm_reference(bug_tokens, file_corpus, file_index):
    """Straight-line transcription of the ranking formula, independent of
    the production code path. ``file_corpus`` is a list of token lists."""
    n_docs = len(file_corpus)
    vocab = set()
    for tokens in file_corpus:
        vocab.update(tokens)
    df = {t: sum(1 for tokens in file_corpus if t in tokens) for t in vocab}

    file_tokens = file_corpus[file_index]
    counts = [len(tokens) for tokens in file_corpus]
    lo, hi = min(counts), max(counts)
    n_terms = 0.5 if hi == lo else (len(file_tokens) - lo) / (hi - lo)
    logistic = 1.0 / (1.0 + math.exp(-n_terms))

    bug_norm_sq = 0.0
    for t in set(bug_tokens):
        if t not in vocab:
            continue
        f = bug_tokens.count(t)
        bug_norm_sq += ((math.log(f) + 1) * math.log(n_docs / df[t])) ** 2
    file_norm_sq = 0.0
    for t in set(file_tokens):
        f = file_tokens.count(t)
        file_norm_sq += ((math.log(f) + 1) * math.log(n_docs / df[t])) ** 2
    if bug_norm_sq == 0.0 or file_norm_sq == 0.0:
        return 0.0

    shared = 0.0
    for t in set(bug_tokens) & set(file_tokens):
        f_bug = bug_tokens.count(t)
        f_file = file_tokens.count(t)
        shared += ((math.log(f_bug) + 1) * (math.log(f_file) + 1)
                   * math.log(n_docs / df[t]) ** 2)
    return logistic * shared / (math.sqrt(bug_norm_sq) * math.sqrt(file_norm_sq))


def rvsm_module(bug_tokens, file_corpus, file_index):
    """Same score through the production path."""
    docs = [stream(*tokens) for tokens in file_corpus]
    vocab = build_vocabulary(docs)
    vectors = [vectorize(doc, vocab) for doc in docs]
    norm = LengthNormalizer.from_counts(len(d) for d in docs)
    bug_vec = vectorize(stream(*bug_tokens, origin="bug_report"), vocab)
    return rvsm(bug_vec, vectors[file_index], norm)


class TestVocabulary:
    def test_forced_example(self):
        vocab = build_vocabulary([stream("a", "b"), stream("b", "c")])
        assert set(vocab.term_ids) == {"a", "b", "c"}
        assert vocab.doc_freq[vocab.term_ids["b"]] == 2
        assert vocab.doc_freq[vocab.term_ids["a"]] == 1
        assert vocab.total_documents == 2

    def test_empty_collection(self):
        with pytest.raises(ValueError):
            build_vocabulary([])

    def test_empty_document_counts_toward_total(self):
        vocab = build_vocabulary([stream("a"), stream()])
        assert vocab.total_documents == 2
        assert set(vocab.term_ids) == {"a"}

    def test_dense_ids(self):
        vocab = build_vocabulary([stream("z", "m", "a")])
        assert sorted(vocab.term_ids.values()) == [0, 1, 2]

    def test_df_bounds_validated(self):
        with pytest.raises(ValueError):
            Vocabulary(term_ids={"a": 0}, doc_freq=[3], total_documents=2)


class TestVectorize:
    def test_weight_formula(self):
        # df(a)=1, df(b)=2 over 2 documents
        vocab = build_vocabulary([stream("a", "b"), stream("b", "c")])
        vec = vectorize(stream("a", "a", "b"), vocab)
        a, b = vocab.term_ids["a"], vocab.term_ids["b"]
        assert vec.weights[a] == pytest.approx((math.log(2) + 1) * math.log(2), rel=1e-12)
        assert vec.weights[b] == 0.0
        assert vec.term_count == 3

    def test_oov_dropped_but_counted(self):
        vocab = build_vocabulary([stream("a")])
        vec = vectorize(stream("x", "y", "z"), vocab)
        assert vec.weights == {}
        assert vec.term_count == 3

    def test_df_equal_to_docs_gives_zero_weight(self):
        vocab = build_vocabulary([stream("a", "b"), stream("a")])
        vec = vectorize(stream("a"), vocab)
        assert vec.weights[vocab.term_ids["a"]] == 0.0


class TestCosine:
    def test_identical(self):
        u = TfIdfVector({0: 0.3, 1: 1.7})
        assert cosine(u, u) == pytest.approx(1.0)

    def test_disjoint(self):
        assert cosine(TfIdfVector({0: 1.0}), TfIdfVector({1: 1.0})) == 0.0

    def test_hand_value(self):
        u = TfIdfVector({0: 1.0, 1: 1.0})
        v = TfIdfVector({0: 1.0})
        assert cosine(u, v) == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    def test_zero_norm(self):
        assert cosine(TfIdfVector({}), TfIdfVector({0: 1.0})) == 0.0

    @given(st.dictionaries(st.integers(0, 6), st.floats(0, 50), max_size=6),
           st.dictionaries(st.integers(0, 6), st.floats(0, 50), max_size=6))
    def test_symmetry_and_range(self, wu, wv):
        u, v = TfIdfVector(wu), TfIdfVector(wv)
        assert cosine(u, v) == cosine(v, u)
        assert -1e-12 <= cosine(u, v) <= 1 + 1e-12

    @given(st.floats(0.001, 1000))
    def test_scaling_invariance(self, c):
        u = TfIdfVector({0: 1.0, 1: 2.0})
        v = TfIdfVector({0: 2.0, 2: 1.0})
        scaled = TfIdfVector({k: c * w for k, w in u.weights.items()})
        assert cosine(scaled, v) == pytest.approx(cosine(u, v), rel=1e-9)


class TestRvsm:
    def test_no_shared_terms(self):
        corpus = [["a", "a"], ["b", "b", "b"], ["c"]]
        assert rvsm_module(["a"], corpus, 1) == 0.0

    def test_identical_text_at_max_length(self):
        corpus = [["a"], ["b", "b"], ["c", "c", "c", "d"]]
        score = rvsm_module(["c", "c", "c", "d"], corpus, 2)
        # logistic(1) * cosine(v, v); the file is the longest in its corpus
        assert score == pytest.approx(1 / (1 + math.exp(-1)), rel=1e-12)

    def test_three_file_toy_matches_reference(self):
        corpus = [["x", "y"], ["y", "z", "z"], ["z", "w", "x", "x"]]
        bug = ["x", "z", "z", "q"]
        for i in range(3):
            assert rvsm_module(bug, corpus, i) == pytest.approx(
                rvsm_reference(bug, corpus, i), rel=1e-12)

    def test_logistic_factor_monotone_in_length(self):
        vocab = build_vocabulary([stream("a"), stream("b")])
        bug = vectorize(stream("a"), vocab)
        short = vectorize(stream("a"), vocab)
        norm = LengthNormalizer(min_terms=1, max_terms=10)
        longer = TfIdfVector(dict(short.weights), term_count=10)
        assert rvsm(bug, longer, norm) > rvsm(bug, short, norm)

    def test_randomized_corpora_match_reference(self):
        rng = random.Random(42)
        alphabet = [f"t{i}" for i in range(12)]
        for _ in range(25):
            n_docs = rng.randint(2, 20)
            corpus = [[rng.choice(alphabet) for _ in range(rng.randint(1, 15))]
                      for _ in range(n_docs)]
            bug = [rng.choice(alphabet) for _ in range(rng.randint(1, 12))]
            i = rng.randrange(n_docs)
            expected = rvsm_reference(bug, corpus, i)
            actual = rvsm_module(bug, corpus, i)
            if expected == 0.0:
                assert actual == 0.0
            else:
                assert actual == pytest.approx(expected, rel=1e-12)


# "x" and "y" are never in a vocabulary built from the files' terms only
_tokens = st.lists(st.sampled_from("abcde"), max_size=12)
_query_tokens = st.lists(st.sampled_from("abcdexy"), max_size=12)


@given(st.lists(_tokens, min_size=1, max_size=5), st.lists(_query_tokens, max_size=5))
@example([["a", "b"], ["b", "c"]], [[]]).via("empty query stream")
@example([["a", "b"], []], [["x", "y", "x"]]).via("every query term out of vocabulary")
@example([["a", "a", "a", "b"], ["b", "c", "c"]], [["c", "a", "c", "c", "a"]]).via(
    "repeated terms")
@example([["d", "e", "d"]], [["e", "d"]]).via("a single document")
@example([[], []], [["a", "x"], []]).via("a vocabulary with no terms")
def test_weigh_and_postings_match_the_reference(files, queries):
    """``weigh`` gives each stream's ``vectorize`` terms, ascending, their
    weights and ``norm()``, and the postings of its rows score every
    (query, row) pair as ``cosine`` does, all bit for bit, also when asked
    only for the rows below a bound."""
    vocab = build_vocabulary([stream(*tokens) for tokens in files])
    docs = [stream(*tokens) for tokens in files]
    asked = [stream(*tokens, origin="bug_report") for tokens in queries]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, query_rows = weigh(docs, vocab), weigh(asked, vocab)
        postings = Postings.from_rows(rows, len(vocab))
        scores = postings.cosines(query_rows, np.arange(len(asked)))
        for below in range(len(docs) + 1):
            assert postings.cosines(query_rows, np.arange(len(asked)), below).tolist() == \
                scores[:, :below].tolist()
    vectors = [vectorize(doc, vocab) for doc in docs]
    query_vectors = [vectorize(doc, vocab) for doc in asked]
    for got, want in ((rows, vectors), (query_rows, query_vectors)):
        assert len(got.offsets) == len(want) + 1 and got.offsets[0] == 0
        for i, vec in enumerate(want):
            span = slice(got.offsets[i], got.offsets[i + 1])
            terms = sorted(vec.weights)
            assert got.terms[span].tolist() == terms
            assert got.weights[span].tolist() == [vec.weights[t] for t in terms]
            assert got.norms[i] == vec.norm()
    assert scores.shape == (len(asked), len(docs))
    assert scores.tolist() == [[cosine(q, f) for f in vectors] for q in query_vectors]


class TestLengthNormalizer:
    def test_bounds(self):
        norm = LengthNormalizer.from_counts([5, 10, 20])
        assert norm.normalize(5) == 0.0
        assert norm.normalize(20) == 1.0
        assert norm.normalize(12.5) == 0.5

    def test_degenerate_corpus(self):
        assert LengthNormalizer.from_counts([7, 7]).normalize(7) == 0.5

    def test_clamped(self):
        norm = LengthNormalizer(min_terms=5, max_terms=10)
        assert norm.normalize(100) == 1.0
        assert norm.normalize(0) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            LengthNormalizer(min_terms=3, max_terms=1)


def _project(name, token_lists):
    files = []
    for i, tokens in enumerate(token_lists):
        f = SourceFile(id=f"F{i}.java", path=f"F{i}.java", raw_text="x")
        f.token_stream = stream(*tokens)
        files.append(f)
    return Project(name=name, source_files=files, bug_reports=[])


class TestGlobalIdf:
    def _benchmark(self):
        return Benchmark(projects=[
            _project("p1", [["a", "only1"], ["a", "b"]]),
            _project("p2", [["a"], ["b", "c"], ["c"]]),
            _project("p3", [["b"], ["c", "d"]]),
        ])

    def test_docs_exclude_held_out(self):
        vocab = build_global_idf(self._benchmark(), "p1")
        assert vocab.total_documents == 5  # p2 and p3 files only

    def test_held_out_only_term_gets_floor(self):
        vocab = build_global_idf(self._benchmark(), "p1")
        assert "only1" in vocab.term_ids
        assert vocab.doc_freq[vocab.term_ids["only1"]] == 1

    def test_term_in_every_counted_doc_has_zero_idf(self):
        bench = Benchmark(projects=[
            _project("p1", [["x"]]),
            _project("p2", [["e", "y"], ["e"]]),
            _project("p3", [["e", "z"]]),
        ])
        vocab = build_global_idf(bench, "p1")
        assert vocab.idf(vocab.term_ids["e"]) == 0.0

    def test_unknown_project(self):
        from bugloc.errors import CorpusError
        with pytest.raises(CorpusError):
            build_global_idf(self._benchmark(), "nope")

    def test_df_counts_only_other_projects(self):
        vocab = build_global_idf(self._benchmark(), "p1")
        # "a" is in 2 of p1's files but only 1 counted doc (p2/F0)
        assert vocab.doc_freq[vocab.term_ids["a"]] == 1

    def test_no_documents_left(self):
        bench = Benchmark(projects=[_project("p1", [["a"]]), _project("p2", [])])
        with pytest.raises(ValueError, match="no documents left"):
            build_global_idf(bench, "p1")

    def test_missing_token_stream(self):
        bench = self._benchmark()
        bench.projects[2].source_files[1].token_stream = None
        with pytest.raises(ValueError, match="p3/F1.java: token stream missing"):
            build_global_idf(bench, "p1")

    def test_hold_out_skips_a_term_the_stored_model_lacks(self):
        """A model stored before an edit can lack a term of the project as
        loaded now: the term is skipped, not looked up."""
        bench = self._benchmark()
        stored = build_vocabulary(source_streams(bench.projects))
        edited = _project("p1", [["a", "only1", "new"], ["a", "b"]])
        vocab = hold_out(stored, edited)
        assert "new" not in vocab.term_ids
        assert vocab.term_ids is stored.term_ids
        assert (vocab.doc_freq, vocab.total_documents) == (
            build_global_idf(bench, "p1").doc_freq, 5)


def recounted_idf(benchmark, held_out):
    """Global DF counted over every project but the held-out one, with the
    floor of 1, as (terms in id order, doc_freq, total_documents)."""
    vocab, df, docs = set(), {}, 0
    for project in benchmark.projects:
        for src in project.source_files:
            vocab.update(src.token_stream.tokens)
            if project.name != held_out:
                docs += 1
                for term in set(src.token_stream.tokens):
                    df[term] = df.get(term, 0) + 1
    terms = sorted(vocab)
    return terms, [max(1, df.get(t, 0)) for t in terms], docs


_project_tokens = st.lists(st.lists(st.sampled_from("abcdefg"), max_size=5), max_size=4)


@given(st.lists(_project_tokens, min_size=2, max_size=4))
def test_counted_once_equals_recount_per_held_out_project(token_lists):
    bench = Benchmark(projects=[_project(f"p{i}", files) for i, files in enumerate(token_lists)])
    if not any(project.source_files for project in bench.projects):
        with pytest.raises(ValueError, match="empty document collection"):
            build_global_idf(bench, "p0")  # no file anywhere: no model to hold out of
        return
    whole = build_vocabulary(source_streams(bench.projects))
    for project in bench.projects:
        expected = recounted_idf(bench, project.name)
        if expected[2] == 0:
            with pytest.raises(ValueError, match="no documents left"):
                hold_out(whole, project)
            continue
        vocab = hold_out(whole, project)
        assert vocab.term_ids is whole.term_ids
        assert (sorted(vocab.term_ids, key=vocab.term_ids.get), vocab.doc_freq,
                vocab.total_documents) == expected
        assert (b"".join(save_vocabulary(vocab))
                == b"".join(save_vocabulary(build_global_idf(bench, project.name))))


def test_vocabulary_roundtrip():
    bench = Benchmark(projects=[
        _project("p1", [["a", "only1"]]),
        _project("p2", [["a", "b"], ["b"]]),
    ])
    vocab = build_global_idf(bench, "p1")
    loaded = load_vocabulary(b"".join(save_vocabulary(vocab)))
    assert loaded.term_ids == vocab.term_ids
    assert loaded.doc_freq == vocab.doc_freq
    assert loaded.total_documents == vocab.total_documents
    local = load_vocabulary(b"".join(save_vocabulary(build_vocabulary([stream("a\nb", "\ud800")]))))
    assert local.term_ids == {"\ud800": 1, "a\nb": 0}


def test_load_rejects_other_files():
    with pytest.raises(ValueError):
        load_vocabulary(b"not a model\n")


@pytest.mark.parametrize("change", [
    {"doc_freq": [1]}, {"terms": ["a", "a"]}, {"documents": [2, 2]}, {"documents": []},
    {"doc_freq": [1, 3]}], ids=["short_doc_freq", "repeated_term", "two_documents",
                                "no_documents", "df_above_documents"])
def test_load_rejects_inconsistent_arrays(change):
    values = {"terms": ["a", "b"], "doc_freq": [1, 2], "documents": [2]}
    assert load_vocabulary(b"".join(LAYOUT.encode(values))).total_documents == 2
    with pytest.raises(ValueError):
        load_vocabulary(b"".join(LAYOUT.encode({**values, **change})))
