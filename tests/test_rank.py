import gc
import itertools
import random
import weakref

import numpy as np
import pytest

from bugloc import embedding, rank, tfidf
from bugloc.corpus import Benchmark, BugReport, Project, SourceFile
from bugloc.preprocess import PreprocessConfig, preprocess_project
from bugloc.rank import (Artifacts, Histories, MethodConfig, RankedList, fuse, localize,
                         project_histories)
from conftest import artifacts_of

CONFIG = PreprocessConfig()


def make_project(name, file_texts, reports=()):
    files = [SourceFile(id=fid, path=fid, raw_text=text)
             for fid, text in sorted(file_texts.items())]
    project = Project(name=name, source_files=files,
                      bug_reports=[BugReport(**r) for r in reports])
    preprocess_project(project, CONFIG)
    return project


def report(bug_id, text, fixed=frozenset(), stamp=None):
    return dict(id=bug_id, summary=text, description="", fixed_files=set(fixed),
                timestamp=stamp)


TOY_FILES = {
    "Zeppelin.java": "class Zeppelin { int zeppelin; int shared; }",
    "Quagmire.java": "class Quagmire { int quagmire; int shared; int shared2; }",
    "Obelisk.java": "class Obelisk { int obelisk; int obelisk2; }",
    "Empty.java": "class Empty { }",
}
TOY_REPORTS = [
    report("B-1", "zeppelin drifts away", {"Zeppelin.java"}, "2021-01-01"),
    report("B-2", "quagmire swallows zeppelin", {"Quagmire.java"}, "2021-02-01"),
    report("B-3", "obelisk cracked", {"Obelisk.java"}, "2021-03-01"),
]


@pytest.fixture
def toy_project():
    return make_project("toy", TOY_FILES, TOY_REPORTS)


def toy_with(*extra):
    """The toy project with more reports after its own, and those reports."""
    project = make_project("toy", TOY_FILES, [*TOY_REPORTS, *extra])
    return project, project.bug_reports[len(TOY_REPORTS):]


def reports_at(project, rows):
    """The project's reports at ``rows``, in that order."""
    return [project.bug_reports[i] for i in rows]


def scores(ranked, kind):
    """``{file id: score}`` of one kind ("direct", "indirect", "final")."""
    return {e.file_id: getattr(e, f"{kind}_score") for e in ranked.rows()}


class TestMethodTable:
    # (direct, indirect, w1, w2) straight from the experiment design
    EXPECTED = {
        1: ("tfidf_local", "none", 1.0, 0.0),
        2: ("tfidf_global", "none", 1.0, 0.0),
        3: ("tfidf_local", "tfidf_local", 0.8, 0.2),
        4: ("tfidf_global", "tfidf_global", 0.8, 0.2),
        5: ("doc2vec_global", "none", 1.0, 0.0),
        6: ("tfidf_global", "doc2vec_global", 0.8, 0.2),
        7: ("tfidf_global+doc2vec_global", "tfidf_global+doc2vec_global", 0.8, 0.2),
    }

    @pytest.mark.parametrize("method_id", list(range(1, 8)))
    def test_mapping(self, method_id):
        config = MethodConfig.from_id(method_id)
        direct, indirect, w1, w2 = self.EXPECTED[method_id]
        assert (config.direct_model, config.indirect_model) == (direct, indirect)
        assert (config.w1, config.w2) == (w1, w2)
        assert config.w1 + config.w2 == pytest.approx(1.0)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="method id"):
            MethodConfig.from_id(8)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MethodConfig(3, "tfidf_local", "tfidf_local", 0.8, 0.3)

    def test_custom_weight_split(self):
        config = MethodConfig.from_id(3, w1=0.6)
        assert (config.w1, config.w2) == (0.6, pytest.approx(0.4))

    def test_scopes(self):
        assert [MethodConfig.from_id(m).scopes for m in range(1, 8)] == [
            {"local"}, {"global"}, {"local"}, {"global"}, {"docvec"}, {"global", "docvec"},
            {"global", "docvec"}]


class TestDirectRelevancy:
    def test_identical_file_gets_strict_max(self):
        project, (query,) = toy_with(report("q", "obelisk obelisk2"))
        artifacts = artifacts_of(project)
        direct = scores(localize(artifacts, artifacts.row(query.id), MethodConfig.from_id(1)),
                        "direct")
        best = max(direct, key=direct.get)
        assert best == "Obelisk.java"
        assert direct["Obelisk.java"] > max(v for k, v in direct.items()
                                            if k != "Obelisk.java")

    def test_empty_query_all_zero(self):
        project, (query,) = toy_with(report("q", ""))
        artifacts = artifacts_of(project)
        ranked = localize(artifacts, artifacts.row(query.id), MethodConfig.from_id(1))
        assert set(scores(ranked, "direct").values()) == {0.0}

    def test_matches_module_oracle(self, toy_project):
        # scores must equal independently composed vectorize/rvsm calls
        artifacts = artifacts_of(toy_project)
        query = toy_project.bug_reports[1]
        direct = scores(localize(artifacts, 1, MethodConfig.from_id(1)), "direct")
        vocab = tfidf.build_vocabulary([f.token_stream for f in toy_project.source_files])
        norm = tfidf.LengthNormalizer.from_counts(
            len(f.token_stream) for f in toy_project.source_files)
        bug_vec = tfidf.vectorize(query.token_stream, vocab)
        for f in toy_project.source_files:
            expected = tfidf.rvsm(bug_vec, tfidf.vectorize(f.token_stream, vocab), norm)
            assert direct[f.id] == pytest.approx(expected, rel=1e-12)

    def test_global_scope_requires_model(self, toy_project):
        artifacts = artifacts_of(toy_project)
        with pytest.raises(ValueError, match="global"):
            localize(artifacts, 0, MethodConfig.from_id(2))


def test_reports_must_be_preprocessed(toy_project):
    toy_project.bug_reports[1].token_stream = None
    with pytest.raises(ValueError, match="B-2: token stream missing; preprocess first"):
        rank.tfidf_scores(toy_project, Artifacts.of(toy_project))


class TestIndirectRelevancy:
    def test_empty_history_is_zero_map(self, toy_project):
        # row 0 is the earliest report: its history is empty
        ranked = localize(artifacts_of(toy_project), 0, MethodConfig.from_id(3))
        indirect = scores(ranked, "indirect")
        assert set(indirect) == toy_project.file_ids
        assert set(indirect.values()) == {0.0}

    def test_contribution_split_across_fixed_files(self):
        project = make_project("toy", TOY_FILES, [
            report("h", "zeppelin drifts away", {"Zeppelin.java", "Obelisk.java"}),
            report("q", "zeppelin drifts away")])
        past, query = project.bug_reports
        artifacts = artifacts_of(project)
        vocab = local_vocab(project)
        similarity = tfidf.cosine(tfidf.vectorize(query.token_stream, vocab),
                                  tfidf.vectorize(past.token_stream, vocab))
        # the query's history is the one report before it
        indirect = scores(localize(artifacts, artifacts.row(query.id), MethodConfig.from_id(3)),
                          "indirect")
        assert similarity > 0
        assert indirect["Zeppelin.java"] == pytest.approx(similarity / 2)
        assert indirect["Obelisk.java"] == pytest.approx(similarity / 2)
        assert indirect["Quagmire.java"] == 0.0

    def test_contributions_sum_over_history(self):
        project, (h2,) = toy_with(report("h2", "zeppelin quagmire", {"Zeppelin.java"}))
        artifacts = artifacts_of(project)
        query = project.bug_reports[1]  # mentions zeppelin too
        h1 = project.bug_reports[0]
        vocab = local_vocab(project)
        query_vec = tfidf.vectorize(query.token_stream, vocab)
        sim1, sim2 = (tfidf.cosine(query_vec, tfidf.vectorize(h.token_stream, vocab))
                      for h in (h1, h2))
        # every other report; B-3 shares no term with the query and fixed
        # only Obelisk.java
        indirect = scores(localize(artifacts, 1, MethodConfig.from_id(3), "all"), "indirect")
        assert indirect["Zeppelin.java"] == pytest.approx(sim1 / 1 + sim2 / 1)


def order(values):
    """Positions of ``values`` from the highest value to the lowest."""
    return sorted(range(len(values)), key=lambda j: -values[j])


class TestFuse:
    def test_weighted_average(self):
        fused = fuse(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.8, 0.2)
        assert fused[0] == pytest.approx(0.8)
        assert fused[1] == pytest.approx(0.2)

    def test_convexity_fixed_point(self):
        # equal normalized maps stay put under any weight split
        direct = np.array([0.3, 0.9, 0.6])
        fused = fuse(direct, direct.copy(), 0.8, 0.2)
        assert fused == pytest.approx([0.0, 1.0, 0.5])

    def test_w2_zero_keeps_direct_order(self):
        rng = random.Random(1)
        for _ in range(50):
            direct = np.array([rng.random() for _ in range(8)])
            indirect = np.array([rng.random() for _ in range(8)])
            assert order(fuse(direct, indirect, 1.0, 0.0)) == order(direct)

    def test_w1_zero_keeps_indirect_order(self):
        rng = random.Random(6)
        for _ in range(50):
            direct = np.array([rng.random() for _ in range(8)])
            indirect = np.array([rng.random() for _ in range(8)])
            assert order(fuse(direct, indirect, 0.0, 1.0)) == order(indirect)

    def test_scaling_leaves_ranking(self):
        rng = random.Random(2)
        direct = np.array([rng.random() for _ in range(6)])
        indirect = np.array([rng.random() for _ in range(6)])
        base = fuse(direct, indirect, 0.8, 0.2)
        for c in (0.001, 3.7, 4096):
            assert order(fuse(c * direct, indirect, 0.8, 0.2)) == order(base)

    def test_constant_map_normalizes_to_zero(self):
        fused = fuse(np.array([5.0, 5.0]), np.array([1.0, 0.0]), 0.8, 0.2)
        assert fused[0] == pytest.approx(0.2)
        assert fused[1] == pytest.approx(0.0)


def reference_history(n, row, policy):
    """The rows before ``row`` of n reports, or every other row under "all"."""
    return list(range(row)) if policy == "earlier" else [r for r in range(n) if r != row]


def histories_of(histories):
    """The :class:`Histories` of a batch, from one list of rows per query."""
    lengths = [len(past) for past in histories]
    return Histories(np.array([row for past in histories for row in past], dtype=np.intp),
                     np.repeat(np.arange(len(histories)), lengths),
                     np.concatenate(([0], np.cumsum(lengths, dtype=np.intp))))


def span(histories, row):
    """The history rows of the query ``row`` of the batch."""
    return histories.rows[histories.offsets[row]:histories.offsets[row + 1]]


def assert_same_histories(got, want):
    assert len(got) == len(want)
    for name in ("rows", "owner", "offsets"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == np.intp and np.array_equal(a, b), name


class TestProjectHistories:
    def test_strictly_earlier(self, toy_project):
        history = span(project_histories(artifacts_of(toy_project)), 1)
        assert [r.id for r in reports_at(toy_project, history)] == ["B-1"]

    def test_first_report_has_no_history(self, toy_project):
        assert len(span(project_histories(artifacts_of(toy_project)), 0)) == 0

    def test_all_others_policy(self, toy_project):
        history = span(project_histories(artifacts_of(toy_project), "all"), 0)
        assert [r.id for r in reports_at(toy_project, history)] == ["B-2", "B-3"]

    @pytest.mark.parametrize("policy", ["earlier", "all"])
    def test_rows_are_list_positions(self, toy_project, policy):
        reports = toy_project.bug_reports
        histories = project_histories(artifacts_of(toy_project), policy)
        for row in range(len(reports)):
            expected = reports[:row] if policy == "earlier" else reports[:row] + reports[row + 1:]
            assert reports_at(toy_project, span(histories, row)) == expected

    @pytest.mark.parametrize("policy", ["earlier", "all"])
    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_equals_the_per_query_histories(self, policy, n):
        project = make_project("h", TOY_FILES, [report(f"B-{i}", "shared", {"Empty.java"})
                                                for i in range(n)])
        assert_same_histories(project_histories(artifacts_of(project), policy), histories_of(
            [reference_history(n, row, policy) for row in range(n)]))

    def test_slices_are_the_histories_of_those_queries(self):
        histories = [[2, 0], [], [1], [0, 1, 2]]
        whole = histories_of(histories)
        for start, stop in ((0, 4), (1, 3), (2, 2), (3, 4), (2, 9)):
            assert_same_histories(whole[start:stop], histories_of(histories[start:stop]))

    def test_unknown_policy(self, toy_project):
        artifacts = artifacts_of(toy_project)
        with pytest.raises(ValueError, match="unknown history policy 'future'"):
            project_histories(artifacts, "future")
        with pytest.raises(ValueError, match="unknown history policy 'future'"):
            localize(artifacts, 0, MethodConfig.from_id(3), "future")


class TestLocalize:
    def test_ranked_list_covers_all_files(self, toy_project):
        artifacts = artifacts_of(toy_project)
        ranked = localize(artifacts, 0, MethodConfig.from_id(1))
        assert len(ranked.entries) == len(toy_project.source_files)
        assert set(ranked.file_ids) == toy_project.file_ids
        finals = [e.final_score for e in ranked.rows()]
        assert finals == sorted(finals, reverse=True)

    def test_planted_file_ranks_first(self, toy_project):
        artifacts = artifacts_of(toy_project)
        for row, query in enumerate(toy_project.bug_reports):
            ranked = localize(artifacts, row, MethodConfig.from_id(1))
            assert ranked.file_ids.index(next(iter(query.fixed_files))) + 1 == 1

    def test_method3_equals_method1_with_empty_history(self, toy_project):
        artifacts = artifacts_of(toy_project)
        # row 0 is the earliest report: empty history
        local_only = localize(artifacts, 0, MethodConfig.from_id(1))
        with_history = localize(artifacts, 0, MethodConfig.from_id(3))
        assert local_only.file_ids == with_history.file_ids

    def test_tie_break_is_path_lexicographic(self):
        files = {"B.java": "class B { int same; }", "A.java": "class A { int same; }",
                 "C.java": "class C { int other; }"}
        project = make_project("ties", files, [
            report("B-1", "same problem", {"A.java"}, "2021-01-01")])
        artifacts = artifacts_of(project)
        ranked = localize(artifacts, 0, MethodConfig.from_id(1))
        # A and B tie on content; A must precede B
        assert ranked.file_ids.index("A.java") < ranked.file_ids.index("B.java")

    def test_deterministic(self, toy_project):
        artifacts = artifacts_of(toy_project)
        a = localize(artifacts, 2, MethodConfig.from_id(3))
        b = localize(artifacts_of(toy_project), 2, MethodConfig.from_id(3))
        assert a.file_ids == b.file_ids
        assert [e.final_score for e in a.rows()] == [e.final_score for e in b.rows()]

    def test_rows_and_ranks_follow_entries(self, toy_project):
        ranked = localize(artifacts_of(toy_project), 1, MethodConfig.from_id(3))
        rows = ranked.rows()
        assert [e.file_id for e in rows] == ranked.file_ids
        assert ranked.rows(2) == rows[:2]
        for e in rows:
            j = ranked.files.index(e.file_id)
            assert (e.final_score, e.direct_score, e.indirect_score) == \
                (ranked.final[j], ranked.direct[j], ranked.indirect[j])
        columns = np.array([ranked.files.index("Quagmire.java"), ranked.files.index("Empty.java")])
        expected = sorted(ranked.file_ids.index(f) + 1 for f in ("Quagmire.java", "Empty.java"))
        offsets, ranks = ranked.ranks_of(np.array([0, len(columns)]), columns)
        assert offsets.tolist() == [0, 2] and ranks.tolist() == expected

    def test_csv_round_trip(self, toy_project, tmp_path):
        artifacts = artifacts_of(toy_project)
        ranked = localize(artifacts, 0, MethodConfig.from_id(3))
        path = tmp_path / "out.csv"
        ranked.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bug_id,rank,file_path,final,direct,indirect"
        assert len(lines) == 1 + len(toy_project.source_files)
        assert lines[1].startswith("B-1,1,")


def reference_scores(query, history, config, project, vocab):
    """Final, direct and indirect maps of a TF.IDF method from per-pair
    rVSM and cosine calls and a dict bridge summed in history order
    (``history`` holds report objects)."""
    def vec(stream):
        return tfidf.vectorize(stream, vocab)

    norm = tfidf.LengthNormalizer.from_counts(
        len(f.token_stream) for f in project.source_files)
    query_vec = vec(query.token_stream)
    direct = {f.id: tfidf.rvsm(query_vec, vec(f.token_stream), norm)
              for f in project.source_files}
    indirect = {f.id: 0.0 for f in project.source_files}
    if config.indirect_model != "none":
        for past in history:
            if not past.fixed_files:
                continue
            similarity = tfidf.cosine(query_vec, vec(past.token_stream))
            if similarity == 0.0:
                continue
            for fid in past.fixed_files:
                if fid in indirect:
                    indirect[fid] += similarity / len(past.fixed_files)

    def minmax(scores):
        lo, hi = min(scores.values()), max(scores.values())
        if hi == lo:
            return {k: 0.0 for k in scores}
        return {k: (v - lo) / (hi - lo) for k, v in scores.items()}

    direct_n, indirect_n = minmax(direct), minmax(indirect)
    final = {fid: config.w1 * direct_n[fid] + config.w2 * indirect_n[fid] for fid in direct}
    return final, direct, indirect


def shared_terms_projects(extra=()):
    """Two projects of long documents over a small vocabulary, so that they
    share many terms and a change of summation order or rounding shows in
    the last bit; the ``extra`` reports are added after each project's own."""
    rng = random.Random(11)
    words = ["".join(rng.choice("bdgklmprtvz") + rng.choice("aiou") for _ in range(3))
             for _ in range(60)]

    def text(n):
        return " ".join(rng.choices(words, weights=range(60, 0, -1), k=n))

    projects = []
    for name in ("p1", "p2"):
        files = {f"F{i:02d}.java": f"class F {{ {text(rng.randint(5, 80))} }}"
                 for i in range(30)}
        reports = [report(f"B-{k:02d}", text(rng.randint(3, 25)),
                          set(rng.sample(sorted(files), rng.randint(1, 5)))
                          | ({"Gone.java"} if k % 4 == 0 else set()),
                          f"2021-01-{k + 1:02d}")
                   for k in range(25)]
        projects.append(make_project(name, files, [*reports, *extra]))
    return projects


def docvec_project(extra=()):
    """A project with a file out of every vocabulary (a zero doc vector),
    paragraph-vector models trained on it and the ``extra`` reports added
    after its own: ``(project, dm, dbow)``."""
    rng = random.Random(5)
    words = [f"{a}{b}" for a in ("kes", "har", "osp", "mer", "fal") for b in
             ("trel", "rier", "rey", "lin", "con")]

    def text(low, high):
        return " ".join(rng.choices(words, k=rng.randint(low, high)))

    files = {f"F{i:02d}.java": f"class F {{ {text(4, 30)} }}" for i in range(12)}
    files["Lone.java"] = "class Lone { int zyzzyva; }"  # out of vocabulary: zero vector
    reports = [report(f"B-{k:02d}", text(2, 9), set(rng.sample(sorted(files), rng.randint(0, 3))),
                      f"2021-01-{k + 1:02d}")
               for k in range(10)]
    project = make_project("dv", files, [*reports, *extra])
    streams = [f.token_stream for f in project.source_files]
    streams += [r.token_stream for r in project.bug_reports]
    config = embedding.EmbeddingConfig(vector_size=6, window=2, min_count=2, negative=3,
                                       epochs=3, seed=2)
    dm = embedding.train(streams, config, embedding.PV_DM)
    dbow = embedding.train(streams, config, embedding.PV_DBOW)
    return project, dm, dbow


def rankings(project, artifacts, config, policy, batch):
    """``(row, query, ranked)`` for every report of the project, each ranked
    with its history under ``policy``: in one-row calls, or cut from one
    batched call."""
    reports = project.bug_reports
    if not batch:
        for row, query in enumerate(reports):
            yield row, query, localize(artifacts, row, config, policy)
        return
    both = localize(artifacts, np.arange(len(reports)), config, policy)
    assert both.query_bug_id == [r.id for r in reports]
    for row, query in enumerate(reports):
        yield row, query, RankedList(query.id, both.method_id, both.files, both.final[row],
                                     both.direct[row], both.indirect[row], both.entries[row])


def assert_matches_reference(ranked, query, history, config, project, vocab):
    final, direct, indirect = reference_scores(query, history, config, project, vocab)
    assert [e.file_id for e in ranked.rows()] == sorted(final, key=lambda f: (-final[f], f))
    for e in ranked.rows():
        assert e.final_score == final[e.file_id]
        assert e.direct_score == direct[e.file_id]
        assert e.indirect_score == indirect[e.file_id]


class TestMatchesPerPairReference:
    """The postings reproduce the per-pair formulas exactly, not approximately."""

    @pytest.mark.parametrize("policy", ["earlier", "all"])
    @pytest.mark.parametrize("method_id", [1, 2, 3, 4])
    def test_synthetic_benchmark(self, synth_benchmark, method_id, policy):
        _, benchmark, _ = synth_benchmark
        config = MethodConfig.from_id(method_id)
        for project in benchmark.projects:
            vocab = tfidf.build_global_idf(benchmark, project.name)
            artifacts = artifacts_of(project, vocab)
            if method_id in (1, 3):
                vocab = local_vocab(project)
            n = len(project.bug_reports)
            for batch in (False, True):
                for row, query, ranked in rankings(project, artifacts, config, policy, batch):
                    history = reference_history(n, row, policy)
                    assert_matches_reference(ranked, query, reports_at(project, history),
                                             config, project, vocab)

    @pytest.mark.parametrize("policy", ["earlier", "all"])
    @pytest.mark.parametrize("method_id", [1, 2, 3, 4])
    def test_random_corpus_with_many_shared_terms(self, method_id, policy):
        config = MethodConfig.from_id(method_id)
        projects = shared_terms_projects()
        benchmark = Benchmark(projects)
        for project in projects:
            vocab = tfidf.build_global_idf(benchmark, project.name)
            artifacts = artifacts_of(project, vocab)
            if method_id in (1, 3):
                vocab = local_vocab(project)
            n = len(project.bug_reports)
            for batch in (False, True):
                for row, query, ranked in rankings(project, artifacts, config, policy, batch):
                    history = reference_history(n, row, policy)
                    assert_matches_reference(ranked, query, reports_at(project, history),
                                             config, project, vocab)

    def test_multi_file_fixes_count_files_missing_from_project(self):
        files = {"Zeppelin.java": "class Zeppelin { int zeppelin; int drift; }",
                 "Quagmire.java": "class Quagmire { int quagmire; int drift; }",
                 "Obelisk.java": "class Obelisk { int obelisk; }"}
        project = make_project("multi", files, [
            report("B-1", "zeppelin drift", {"Zeppelin.java", "Gone.java"}, "2021-01-01"),
            report("B-2", "quagmire drift", {"Quagmire.java", "Zeppelin.java",
                                              "Obelisk.java"}, "2021-02-01"),
            report("B-3", "drift zeppelin quagmire", {"Quagmire.java"}, "2021-03-01"),
        ])
        artifacts = artifacts_of(project)
        config = MethodConfig.from_id(3)
        for policy, batch in itertools.product(("earlier", "all"), (False, True)):
            for row, query, ranked in rankings(project, artifacts, config, policy, batch):
                history = reference_history(len(project.bug_reports), row, policy)
                assert_matches_reference(ranked, query, reports_at(project, history),
                                         config, project, local_vocab(project))
        ranked = localize(artifacts, 2, config)
        scores = {e.file_id: e.indirect_score for e in ranked.rows()}
        vocab = local_vocab(project)
        query_vec = tfidf.vectorize(project.bug_reports[2].token_stream, vocab)
        sim1, sim2 = (tfidf.cosine(query_vec, tfidf.vectorize(r.token_stream, vocab))
                      for r in project.bug_reports[:2])
        assert scores["Zeppelin.java"] == sim1 / 2 + sim2 / 3

    def test_query_row_out_of_range_rejected(self, toy_project):
        artifacts = artifacts_of(toy_project)
        n = len(toy_project.bug_reports)
        for method_id in (1, 3):  # with and without history
            config = MethodConfig.from_id(method_id)
            # numpy would read row -1 as the last report
            for row in (-1, n):
                with pytest.raises(ValueError, match=r"report rows must lie in \[0, 3\) "
                                                     "for project toy"):
                    localize(artifacts, row, config)

    @pytest.mark.parametrize("method_id", [1, 3])
    def test_identical_files_stay_exactly_tied_in_path_order(self, method_id):
        twin = "class Twin { int kestrel; int harrier; int kestrel2; }"
        files = {"b/Twin.java": twin, "a/Twin.java": twin, "a-b/Twin.java": twin,
                 "Other.java": "class Other { int harrier; int osprey; }"}
        project = make_project("twins", files, [
            report("B-1", "kestrel harrier", {"a/Twin.java", "b/Twin.java",
                                              "a-b/Twin.java"}, "2021-01-01"),
            report("B-2", "kestrel osprey", {"Other.java"}, "2021-02-01")])
        ranked = localize(artifacts_of(project), 1, MethodConfig.from_id(method_id))
        twins = [e for e in ranked.rows() if e.file_id.endswith("Twin.java")]
        assert [e.file_id for e in twins] == ["a-b/Twin.java", "a/Twin.java", "b/Twin.java"]
        assert len({(e.final_score, e.direct_score, e.indirect_score) for e in twins}) == 1
        assert twins[0].direct_score > 0
        position = ranked.file_ids.index("a-b/Twin.java")
        assert ranked.file_ids[position:position + 3] == [e.file_id for e in twins]


class TestDocVectorMethods:
    """Doc-vector scores as matrix products against the per-pair
    :func:`~bugloc.embedding.doc_cosine` formulas."""

    @pytest.fixture(scope="class")
    def setting(self):
        return docvec_project()

    def _vector(self, doc, dm, dbow):
        return embedding.combined_vector(doc.token_stream, dm, dbow)

    @pytest.mark.parametrize("policy", ["earlier", "all"])
    def test_scores_match_per_pair_doc_cosine(self, setting, policy):
        project, dm, dbow = setting
        artifacts = artifacts_of(project, global_vocab(project), dm, dbow)
        files = sorted(project.source_files, key=lambda f: f.id)
        assert not self._vector(project.file("Lone.java"), dm, dbow).values.any()
        n = len(project.bug_reports)
        for row, query in enumerate(project.bug_reports):
            history = reference_history(n, row, policy)
            direct = scores(localize(artifacts, row, MethodConfig.from_id(5), policy), "direct")
            indirect = scores(localize(artifacts, row, MethodConfig.from_id(6), policy),
                              "indirect")
            q = self._vector(query, dm, dbow)
            want_direct = {f.id: embedding.doc_cosine(q, self._vector(f, dm, dbow))
                           for f in files}
            want_indirect = dict.fromkeys(want_direct, 0.0)
            for past in reports_at(project, history):
                sim = embedding.doc_cosine(q, self._vector(past, dm, dbow))
                for fid in past.fixed_files:
                    want_indirect[fid] += sim / len(past.fixed_files)
            for got, want in ((direct, want_direct), (indirect, want_indirect)):
                assert got.keys() == want.keys()
                assert max(abs(got[f] - want[f]) for f in want) <= 1e-12
            assert direct["Lone.java"] == 0.0

    def test_files_and_reports_each_inferred_once_in_one_batch(self, setting,
                                                                monkeypatch):
        project, dm, dbow = setting
        inferred = []

        def counting(streams, *args, **kwargs):
            inferred.append(len(streams))
            return combined_matrix(streams, *args, **kwargs)

        combined_matrix = embedding.combined_matrix
        monkeypatch.setattr(embedding, "combined_matrix", counting)
        artifacts = artifacts_of(project, global_vocab(project), dm, dbow)
        for row in (6, 2):
            for method_id in (5, 6, 7):
                localize(artifacts, row, MethodConfig.from_id(method_id))
        assert inferred == [len(project.source_files), len(project.bug_reports)]

    @staticmethod
    def vectors_project(rng, n_files, n_reports, size):
        """A project of ``n_files`` files and ``n_reports`` reports, each
        fixing up to three files, whose doc vectors are random, with a zero
        vector among the files and among the reports when there are two or
        more: its Artifacts and its ``rank.doc_vectors``."""
        files = [SourceFile(id=f"F{i:03d}.java", path=f"F{i:03d}.java", raw_text="")
                 for i in range(n_files)]
        reports = [BugReport(id=f"B-{k:03d}", summary="", description="",
                             fixed_files={files[j].id for j in rng.integers(n_files, size=k % 4)})
                   for k in range(n_reports)]
        project = Project(name="vec", source_files=files, bug_reports=reports)
        matrices = [rng.standard_normal((n, size)) * rng.uniform(0.01, 10.0)
                    for n in (n_files, n_reports)]
        for matrix in matrices:
            if len(matrix) > 1:
                matrix[rng.integers(len(matrix))] = 0.0
        norms = [np.array([np.linalg.norm(v) for v in matrix]) for matrix in matrices]
        return Artifacts.of(project), (matrices[0], norms[0], matrices[1], norms[1])

    @pytest.mark.parametrize("n_files,size", [(1, 16), (2, 1), (7, 1), (1, 1), (33, 8),
                                              (50, 16), (120, 32), (200, 64), (97, 100),
                                              (64, 200)])
    def test_stacked_direct_and_history_scores_equal_doc_cosines_row_by_row(self, n_files, size):
        rng = np.random.default_rng(n_files * 1000 + size)
        n_reports = 9
        artifacts, vectors = self.vectors_project(rng, n_files, n_reports, size)
        files, file_norms, reports, report_norms = vectors
        built = rank.docvec_scores(artifacts, *vectors)
        assert built.direct.shape == built.earlier.shape == built.all.shape == (n_reports, n_files)
        offsets, columns = artifacts.fixed
        for row in range(n_reports):
            assert np.array_equal(built.direct[row], embedding.doc_cosines(
                files, file_norms, reports[row], report_norms[row]))
            for policy in ("earlier", "all"):
                # one product over exactly the history rows, bridged in their order
                past = reference_history(n_reports, row, policy)
                sims = embedding.doc_cosines(reports[past], report_norms[past], reports[row],
                                             report_norms[row])
                want = np.zeros(n_files)
                for sim, b in zip(sims.tolist(), past):
                    for column in columns[offsets[b]:offsets[b + 1]].tolist():
                        want[column] += sim / artifacts.fixed_counts[b]
                assert np.array_equal(getattr(built, policy)[row], want), policy
        zero_reports = np.flatnonzero(report_norms == 0.0)
        assert len(zero_reports) == 1 and not built.direct[zero_reports].any()
        if n_files > 1:
            assert not built.direct[:, file_norms == 0.0].any()
        assert built.all.any()

    @pytest.mark.parametrize("n_reports", [0, 1])
    def test_zero_reports_and_one(self, n_reports):
        artifacts, vectors = self.vectors_project(np.random.default_rng(1), 4, n_reports, 5)
        files, file_norms, reports, report_norms = vectors
        built = rank.docvec_scores(artifacts, *vectors)
        for array in built:
            assert array.shape == (n_reports, 4) and not array.flags.writeable
        if n_reports:
            assert np.array_equal(built.direct[0], embedding.doc_cosines(
                files, file_norms, reports[0], report_norms[0]))
            assert not built.earlier.any() and not built.all.any()  # no other report


# reports the batch must rank as the one-row calls do: one whose terms are
# all out of every vocabulary (a zero-norm query, a zero doc vector), and
# one whose fixed files are all missing from the project
EDGE_REPORTS = [report("B-oov", "xylophonic quixotry", {"F00.java"}, "2021-12-01"),
                report("B-gone", "class F", {"Gone.java", "Lost.java"}, "2021-12-02")]


class TestBatchEqualsOneRowCalls:
    """One ``localize`` over all of a project's rows returns, bit for bit,
    the arrays of the one-row calls, and the scores are the same whatever
    chunks they are built in."""

    @pytest.fixture(scope="class")
    def corpora(self):
        projects = shared_terms_projects(EDGE_REPORTS)
        benchmark = Benchmark(projects)
        tfidf_only = [(p, artifacts_of(p, tfidf.build_global_idf(benchmark, p.name)))
                      for p in projects]
        project, dm, dbow = docvec_project(EDGE_REPORTS)
        return tfidf_only, (project, artifacts_of(project, global_vocab(project), dm, dbow))

    @pytest.mark.parametrize("chunked", [False, True])
    @pytest.mark.parametrize("policy", ["earlier", "all"])
    @pytest.mark.parametrize("method_id", range(1, 8))
    def test_arrays_equal(self, corpora, monkeypatch, method_id, policy, chunked):
        tfidf_only, with_vectors = corpora
        config = MethodConfig.from_id(method_id)
        for project, artifacts in ([with_vectors] if method_id > 4
                                   else [*tfidf_only, with_vectors]):
            if chunked:  # three queries a chunk, so the batch spans several
                monkeypatch.setattr(rank, "_CHUNK_SCORES",
                                    3 * (len(artifacts.file_ids) + len(project.bug_reports)))
            rows = np.arange(len(project.bug_reports))
            both = localize(artifacts, rows, config, policy)
            assert both.query_bug_id == [r.id for r in project.bug_reports]
            for row in rows:
                one = localize(artifacts, int(row), config, policy)
                assert one.query_bug_id == project.bug_reports[row].id
                for name in ("final", "direct", "indirect", "entries"):
                    assert np.array_equal(getattr(both, name)[row], getattr(one, name)), name
            assert both.final.shape == both.entries.shape == (len(rows), len(artifacts.file_ids))
            # the edge reports are what they claim to be
            assert not both.direct[artifacts.row("B-oov")].any()
            offsets, _ = artifacts.fixed
            assert offsets[artifacts.row("B-gone")] == offsets[artifacts.row("B-gone") + 1]

    @pytest.mark.parametrize("corpus", ["p1", "p2", "dv"])
    def test_scores_built_in_chunks_equal_those_built_whole(self, corpora, monkeypatch,
                                                            corpus):
        """Built three reports a chunk, every stored array is, bit for bit,
        the one built in a single chunk."""
        tfidf_only, with_vectors = corpora
        project, whole = {p.name: (p, a) for p, a in [*tfidf_only, with_vectors]}[corpus]
        monkeypatch.setattr(rank, "_CHUNK_SCORES", 3 * (len(whole.file_ids)
                                                        + len(whole.report_ids)))
        if corpus == "dv":
            _, dm, dbow = docvec_project(EDGE_REPORTS)
            chunked = artifacts_of(project, global_vocab(project), dm, dbow)
        else:
            benchmark = Benchmark([p for p, _ in tfidf_only])
            chunked = artifacts_of(project, tfidf.build_global_idf(benchmark, corpus))
        assert set(chunked.scopes) == set(whole.scopes)
        for scope, scores in whole.scopes.items():
            for name, array in scores._asdict().items():
                assert np.array_equal(getattr(chunked.scopes[scope], name), array), (scope, name)

    @pytest.mark.parametrize("method_id", [1, 3, 6])
    def test_csr_ranks_are_the_positions_of_the_fixed_columns(self, corpora, method_id):
        project, artifacts = corpora[1]
        ranked = localize(artifacts, np.arange(len(project.bug_reports)),
                          MethodConfig.from_id(method_id))
        ranked.entries[[0, 1]] = ranked.entries[[1, 0]]  # ranks follow entries, not scores
        offsets, columns = artifacts.fixed
        rank_offsets, ranks = ranked.ranks_of(offsets, columns)
        assert rank_offsets.tolist() == offsets.tolist()
        for i, entries in enumerate(ranked.entries):
            want = np.flatnonzero(np.isin(entries, columns[offsets[i]:offsets[i + 1]])) + 1
            assert ranks[rank_offsets[i]:rank_offsets[i + 1]].tolist() == want.tolist()
        gone = artifacts.row("B-gone")
        assert rank_offsets[gone] == rank_offsets[gone + 1]

    @pytest.mark.parametrize("policy", ["earlier", "all"])
    def test_history_is_the_policy_of_each_row_in_any_batch(self, corpora, policy):
        _, artifacts = corpora[0][0]
        config = MethodConfig.from_id(3)
        rows = np.array([4, 0, 9, 4])
        both = localize(artifacts, rows, config, policy)
        for i, row in enumerate(rows.tolist()):
            assert np.array_equal(both.final[i], localize(artifacts, row, config, policy).final)

    def test_one_out_of_range_row_fails_the_batch(self, corpora):
        project, artifacts = corpora[0][0]
        n = len(project.bug_reports)
        with pytest.raises(ValueError, match=rf"report rows must lie in \[0, {n}\) "
                                             "for project p1"):
            localize(artifacts, np.array([2, n, 1]), MethodConfig.from_id(3))


class TestStoredScores:
    """``localize`` ranks with the stored :class:`rank.Scores` of each
    scope: the arrays themselves for every report in row order, else their
    rows, read-only either way."""

    @pytest.fixture(scope="class")
    def artifacts(self):
        project, dm, dbow = docvec_project(EDGE_REPORTS)
        return artifacts_of(project, global_vocab(project), dm, dbow)

    @pytest.mark.parametrize("policy", ["earlier", "all"])
    def test_every_report_in_row_order_ranks_with_the_stored_arrays(self, artifacts, policy):
        rows = np.arange(len(artifacts.report_ids))
        ranked = {m: localize(artifacts, rows, MethodConfig.from_id(m), policy)
                  for m in range(1, 8)}
        local, global_, docvec = (artifacts.scopes[s] for s in ("local", "global", "docvec"))
        assert ranked[1].direct is ranked[3].direct is local.direct
        assert ranked[2].direct is ranked[4].direct is ranked[6].direct is global_.direct
        assert ranked[5].direct is docvec.direct
        assert ranked[3].indirect is getattr(local, policy)
        assert ranked[4].indirect is getattr(global_, policy)
        assert ranked[6].indirect is getattr(docvec, policy)
        for method_id in (1, 2, 5):  # no history: one zero, viewed
            assert ranked[method_id].indirect.strides == (0, 0)
            assert not ranked[method_id].indirect.any()
        # method 7 combines the stored arrays into maps of its own
        assert np.array_equal(ranked[7].direct, (rank._minmax(global_.direct)
                                                 + rank._minmax(docvec.direct)) / 2)
        assert not global_.direct.flags.writeable
        with pytest.raises(ValueError):
            ranked[4].direct[0, 0] = 1.0

    @pytest.mark.parametrize("policy", ["earlier", "all"])
    @pytest.mark.parametrize("method_id", [3, 4, 6, 7])
    def test_other_rows_read_the_stored_rows(self, artifacts, method_id, policy):
        rows = np.array([5, 0, 9])
        config = MethodConfig.from_id(method_id)
        ranked = localize(artifacts, rows, config, policy)
        whole = localize(artifacts, np.arange(len(artifacts.report_ids)), config, policy)
        for name in ("final", "direct", "indirect", "entries"):
            assert np.array_equal(getattr(ranked, name), getattr(whole, name)[rows]), name
        if method_id != 7:  # method 7 combines them into maps of its own
            assert not ranked.direct.flags.writeable and not ranked.indirect.flags.writeable

    def test_scores_are_freed_with_the_artifacts_without_a_collection(self):
        project, dm, dbow = docvec_project(EDGE_REPORTS)
        artifacts = artifacts_of(project, global_vocab(project), dm, dbow)
        rows = np.arange(len(artifacts.report_ids))
        ranked = localize(artifacts, rows, MethodConfig.from_id(7))
        kept = weakref.ref(artifacts)
        gc.disable()
        try:
            del artifacts
            assert kept() is None
        finally:
            gc.enable()
        assert ranked.final.shape == (len(rows), len(ranked.files))


def local_vocab(project):
    return tfidf.build_vocabulary([f.token_stream for f in project.source_files])


# where a test needs a global model, the project's own vocabulary stands in
global_vocab = local_vocab
