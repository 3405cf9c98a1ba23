import random

import pytest

from bugloc import tfidf
from bugloc.corpus import Benchmark, BugReport, Project, SourceFile
from bugloc.preprocess import PreprocessConfig, preprocess_project
from bugloc.rank import (Artifacts, MethodConfig, direct_relevancy, fuse,
                         history_for, indirect_relevancy, localize)

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


@pytest.fixture
def toy_project():
    files = {
        "Zeppelin.java": "class Zeppelin { int zeppelin; int shared; }",
        "Quagmire.java": "class Quagmire { int quagmire; int shared; int shared2; }",
        "Obelisk.java": "class Obelisk { int obelisk; int obelisk2; }",
        "Empty.java": "class Empty { }",
    }
    reports = [
        report("B-1", "zeppelin drifts away", {"Zeppelin.java"}, "2021-01-01"),
        report("B-2", "quagmire swallows zeppelin", {"Quagmire.java"}, "2021-02-01"),
        report("B-3", "obelisk cracked", {"Obelisk.java"}, "2021-03-01"),
    ]
    return make_project("toy", files, reports)


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

    def test_needs_flags(self):
        assert not MethodConfig.from_id(1).needs_global_tfidf
        assert MethodConfig.from_id(2).needs_global_tfidf
        assert MethodConfig.from_id(5).needs_embeddings
        assert not MethodConfig.from_id(5).needs_global_tfidf
        assert MethodConfig.from_id(7).needs_embeddings
        assert MethodConfig.from_id(7).needs_global_tfidf


class TestDirectRelevancy:
    def test_identical_file_gets_strict_max(self, toy_project):
        artifacts = Artifacts(toy_project)
        query = BugReport(id="q", summary="obelisk obelisk2", description="",
                          fixed_files=set())
        preprocess_query(query)
        scores = direct_relevancy(query, toy_project.source_files,
                                  MethodConfig.from_id(1), artifacts)
        best = max(scores, key=scores.get)
        assert best == "Obelisk.java"
        assert scores["Obelisk.java"] > max(v for k, v in scores.items()
                                            if k != "Obelisk.java")

    def test_empty_query_all_zero(self, toy_project):
        artifacts = Artifacts(toy_project)
        query = BugReport(id="q", summary="", description="", fixed_files=set())
        preprocess_query(query)
        scores = direct_relevancy(query, toy_project.source_files,
                                  MethodConfig.from_id(1), artifacts)
        assert set(scores.values()) == {0.0}

    def test_matches_module_oracle(self, toy_project):
        # scores must equal independently composed vectorize/rvsm calls
        artifacts = Artifacts(toy_project)
        query = toy_project.bug_reports[1]
        scores = direct_relevancy(query, toy_project.source_files,
                                  MethodConfig.from_id(1), artifacts)
        vocab = tfidf.build_vocabulary([f.token_stream for f in toy_project.source_files])
        norm = tfidf.LengthNormalizer.from_counts(
            len(f.token_stream) for f in toy_project.source_files)
        bug_vec = tfidf.vectorize(query.token_stream, vocab)
        for f in toy_project.source_files:
            expected = tfidf.rvsm(bug_vec, tfidf.vectorize(f.token_stream, vocab), norm)
            assert scores[f.id] == pytest.approx(expected, rel=1e-12)

    def test_respects_file_subset(self, toy_project):
        artifacts = Artifacts(toy_project)
        query = toy_project.bug_reports[0]
        subset = toy_project.source_files[:2]
        scores = direct_relevancy(query, subset, MethodConfig.from_id(1), artifacts)
        assert set(scores) == {f.id for f in subset}

    def test_global_scope_requires_model(self, toy_project):
        artifacts = Artifacts(toy_project)
        with pytest.raises(ValueError, match="global"):
            direct_relevancy(toy_project.bug_reports[0], toy_project.source_files,
                             MethodConfig.from_id(2), artifacts)


def preprocess_query(query):
    from bugloc.preprocess import BUG_REPORT, preprocess
    query.token_stream = preprocess(query.text, BUG_REPORT, CONFIG)


class TestIndirectRelevancy:
    def test_empty_history_is_zero_map(self, toy_project):
        artifacts = Artifacts(toy_project)
        scores = indirect_relevancy(toy_project.bug_reports[0], [],
                                    MethodConfig.from_id(3), artifacts)
        assert set(scores) == toy_project.file_ids
        assert set(scores.values()) == {0.0}

    def test_contribution_split_across_fixed_files(self, toy_project):
        artifacts = Artifacts(toy_project)
        query = BugReport(id="q", summary="zeppelin drifts away", description="",
                          fixed_files=set())
        preprocess_query(query)
        past = BugReport(id="h", summary="zeppelin drifts away", description="",
                         fixed_files={"Zeppelin.java", "Obelisk.java"})
        preprocess_query(past)
        similarity = tfidf.cosine(
            artifacts.report_vector(query, "local"),
            artifacts.report_vector(past, "local"))
        scores = indirect_relevancy(query, [past], MethodConfig.from_id(3), artifacts)
        assert similarity > 0
        assert scores["Zeppelin.java"] == pytest.approx(similarity / 2)
        assert scores["Obelisk.java"] == pytest.approx(similarity / 2)
        assert scores["Quagmire.java"] == 0.0

    def test_contributions_sum_over_history(self, toy_project):
        artifacts = Artifacts(toy_project)
        query = toy_project.bug_reports[1]  # mentions zeppelin too
        h1 = toy_project.bug_reports[0]
        h2 = BugReport(id="h2", summary="zeppelin quagmire", description="",
                       fixed_files={"Zeppelin.java"})
        preprocess_query(h2)
        sim1 = tfidf.cosine(artifacts.report_vector(query, "local"),
                            artifacts.report_vector(h1, "local"))
        sim2 = tfidf.cosine(artifacts.report_vector(query, "local"),
                            artifacts.report_vector(h2, "local"))
        scores = indirect_relevancy(query, [h1, h2], MethodConfig.from_id(3), artifacts)
        assert scores["Zeppelin.java"] == pytest.approx(sim1 / 1 + sim2 / 1)


class TestFuse:
    def test_weighted_average(self):
        fused = fuse({"a": 1.0, "b": 0.0}, {"a": 0.0, "b": 1.0}, 0.8, 0.2)
        assert fused["a"] == pytest.approx(0.8)
        assert fused["b"] == pytest.approx(0.2)

    def test_convexity_fixed_point(self):
        # equal normalized maps stay put under any weight split
        direct = {"a": 0.3, "b": 0.9, "c": 0.6}
        fused = fuse(direct, dict(direct), 0.8, 0.2)
        normalized = {"a": 0.0, "b": 1.0, "c": 0.5}
        for k in direct:
            assert fused[k] == pytest.approx(normalized[k])

    def test_w2_zero_keeps_direct_order(self):
        rng = random.Random(1)
        for _ in range(50):
            direct = {f"f{i}": rng.random() for i in range(8)}
            indirect = {f"f{i}": rng.random() for i in range(8)}
            fused = fuse(direct, indirect, 1.0, 0.0)
            assert sorted(fused, key=fused.get) == sorted(direct, key=direct.get)

    def test_w1_zero_keeps_indirect_order(self):
        rng = random.Random(6)
        for _ in range(50):
            direct = {f"f{i}": rng.random() for i in range(8)}
            indirect = {f"f{i}": rng.random() for i in range(8)}
            fused = fuse(direct, indirect, 0.0, 1.0)
            assert sorted(fused, key=fused.get) == sorted(indirect, key=indirect.get)

    def test_scaling_leaves_ranking(self):
        rng = random.Random(2)
        direct = {f"f{i}": rng.random() for i in range(6)}
        indirect = {f"f{i}": rng.random() for i in range(6)}
        base = fuse(direct, indirect, 0.8, 0.2)
        for c in (0.001, 3.7, 4096):
            scaled = fuse({k: c * v for k, v in direct.items()}, indirect, 0.8, 0.2)
            assert sorted(base, key=base.get) == sorted(scaled, key=scaled.get)

    def test_constant_map_normalizes_to_zero(self):
        fused = fuse({"a": 5.0, "b": 5.0}, {"a": 1.0, "b": 0.0}, 0.8, 0.2)
        assert fused["a"] == pytest.approx(0.2)
        assert fused["b"] == pytest.approx(0.0)

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ValueError, match="file sets"):
            fuse({"a": 1.0}, {"b": 1.0}, 0.8, 0.2)


class TestHistory:
    def test_strictly_earlier(self, toy_project):
        query = toy_project.bug_reports[1]
        assert [r.id for r in history_for(query, toy_project)] == ["B-1"]

    def test_first_report_has_no_history(self, toy_project):
        assert history_for(toy_project.bug_reports[0], toy_project) == []

    def test_all_others_policy(self, toy_project):
        query = toy_project.bug_reports[0]
        ids = [r.id for r in history_for(query, toy_project, policy="all")]
        assert ids == ["B-2", "B-3"]

    def test_unknown_policy(self, toy_project):
        with pytest.raises(ValueError):
            history_for(toy_project.bug_reports[0], toy_project, policy="future")


class TestLocalize:
    def test_ranked_list_covers_all_files(self, toy_project):
        artifacts = Artifacts(toy_project)
        ranked = localize(toy_project.bug_reports[0], toy_project,
                          MethodConfig.from_id(1), artifacts)
        assert len(ranked.entries) == len(toy_project.source_files)
        assert set(ranked.file_ids) == toy_project.file_ids
        finals = [e.final_score for e in ranked.entries]
        assert finals == sorted(finals, reverse=True)

    def test_planted_file_ranks_first(self, toy_project):
        artifacts = Artifacts(toy_project)
        for query in toy_project.bug_reports:
            ranked = localize(query, toy_project, MethodConfig.from_id(1), artifacts)
            assert ranked.rank_of(next(iter(query.fixed_files))) == 1

    def test_method3_equals_method1_with_empty_history(self, toy_project):
        artifacts = Artifacts(toy_project)
        query = toy_project.bug_reports[0]  # earliest: empty history
        local_only = localize(query, toy_project, MethodConfig.from_id(1), artifacts)
        with_history = localize(query, toy_project, MethodConfig.from_id(3), artifacts)
        assert local_only.file_ids == with_history.file_ids

    def test_tie_break_is_path_lexicographic(self):
        files = {"B.java": "class B { int same; }", "A.java": "class A { int same; }",
                 "C.java": "class C { int other; }"}
        project = make_project("ties", files, [
            report("B-1", "same problem", {"A.java"}, "2021-01-01")])
        artifacts = Artifacts(project)
        ranked = localize(project.bug_reports[0], project,
                          MethodConfig.from_id(1), artifacts)
        # A and B tie on content; A must precede B
        assert ranked.file_ids.index("A.java") < ranked.file_ids.index("B.java")

    def test_deterministic(self, toy_project):
        artifacts = Artifacts(toy_project)
        query = toy_project.bug_reports[2]
        a = localize(query, toy_project, MethodConfig.from_id(3), artifacts)
        b = localize(query, toy_project, MethodConfig.from_id(3), Artifacts(toy_project))
        assert a.file_ids == b.file_ids
        assert [e.final_score for e in a.entries] == [e.final_score for e in b.entries]

    def test_csv_round_trip(self, toy_project, tmp_path):
        artifacts = Artifacts(toy_project)
        ranked = localize(toy_project.bug_reports[0], toy_project,
                          MethodConfig.from_id(3), artifacts)
        path = tmp_path / "out.csv"
        ranked.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bug_id,rank,file_path,final,direct,indirect"
        assert len(lines) == 1 + len(toy_project.source_files)
        assert lines[1].startswith("B-1,1,")


def reference_scores(query, history, config, project, vocab):
    """Final, direct and indirect maps of a TF.IDF method from per-pair
    rVSM and cosine calls and a dict bridge summed in history order."""
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


def assert_matches_reference(ranked, query, history, config, project, vocab):
    final, direct, indirect = reference_scores(query, history, config, project, vocab)
    assert [e.file_id for e in ranked.entries] == sorted(final, key=lambda f: (-final[f], f))
    for e in ranked.entries:
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
            artifacts = Artifacts(project, global_vocab=tfidf.build_global_idf(
                benchmark, project.name))
            vocab = artifacts.vocab("local" if method_id in (1, 3) else "global")
            for query in project.bug_reports:
                history = history_for(query, project, policy)
                ranked = localize(query, project, config, artifacts, history=history)
                assert_matches_reference(ranked, query, history, config, project, vocab)

    @pytest.mark.parametrize("policy", ["earlier", "all"])
    @pytest.mark.parametrize("method_id", [1, 2, 3, 4])
    def test_random_corpus_with_many_shared_terms(self, method_id, policy):
        # long documents over a small vocabulary share many terms, so a
        # change of summation order or rounding shows in the last bit
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
            projects.append(make_project(name, files, reports))
        benchmark = Benchmark(projects)
        config = MethodConfig.from_id(method_id)
        for project in projects:
            artifacts = Artifacts(project, global_vocab=tfidf.build_global_idf(
                benchmark, project.name))
            vocab = artifacts.vocab("local" if method_id in (1, 3) else "global")
            for query in project.bug_reports:
                history = history_for(query, project, policy)
                ranked = localize(query, project, config, artifacts, history=history)
                assert_matches_reference(ranked, query, history, config, project, vocab)

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
        artifacts = Artifacts(project)
        config = MethodConfig.from_id(3)
        for policy in ("earlier", "all"):
            for query in project.bug_reports:
                history = history_for(query, project, policy)
                ranked = localize(query, project, config, artifacts, history=history)
                assert_matches_reference(ranked, query, history, config, project,
                                         artifacts.local_vocab)
        ranked = localize(project.bug_reports[2], project, config, artifacts)
        scores = {e.file_id: e.indirect_score for e in ranked.entries}
        sim1, sim2 = (tfidf.cosine(artifacts.report_vector(project.bug_reports[2], "local"),
                                   artifacts.report_vector(r, "local"))
                      for r in project.bug_reports[:2])
        assert scores["Zeppelin.java"] == sim1 / 2 + sim2 / 3

    def test_query_and_history_from_outside_the_project(self, toy_project):
        artifacts = Artifacts(toy_project)
        query = BugReport(id="q", summary="zeppelin quagmire obelisk", description="",
                          fixed_files=set())
        outsider = BugReport(id="h", summary="obelisk zeppelin", description="",
                             fixed_files={"Obelisk.java", "Elsewhere.java"})
        for r in (query, outsider):
            preprocess_query(r)
        history = [toy_project.bug_reports[0], outsider, toy_project.bug_reports[1]]
        config = MethodConfig.from_id(3)
        ranked = localize(query, toy_project, config, artifacts, history=history)
        assert_matches_reference(ranked, query, history, config, toy_project,
                                 artifacts.local_vocab)
        assert {e.file_id: e.indirect_score for e in ranked.entries}["Obelisk.java"] > 0

    @pytest.mark.parametrize("method_id", [1, 3])
    def test_identical_files_stay_exactly_tied_in_path_order(self, method_id):
        twin = "class Twin { int kestrel; int harrier; int kestrel2; }"
        files = {"b/Twin.java": twin, "a/Twin.java": twin, "a-b/Twin.java": twin,
                 "Other.java": "class Other { int harrier; int osprey; }"}
        project = make_project("twins", files, [
            report("B-1", "kestrel harrier", {"a/Twin.java", "b/Twin.java",
                                              "a-b/Twin.java"}, "2021-01-01"),
            report("B-2", "kestrel osprey", {"Other.java"}, "2021-02-01")])
        ranked = localize(project.bug_reports[1], project, MethodConfig.from_id(method_id),
                          Artifacts(project))
        twins = [e for e in ranked.entries if e.file_id.endswith("Twin.java")]
        assert [e.file_id for e in twins] == ["a-b/Twin.java", "a/Twin.java", "b/Twin.java"]
        assert len({(e.final_score, e.direct_score, e.indirect_score) for e in twins}) == 1
        assert twins[0].direct_score > 0
        position = ranked.file_ids.index("a-b/Twin.java")
        assert ranked.file_ids[position:position + 3] == [e.file_id for e in twins]


@pytest.mark.parametrize("method_id, uses_history", [(1, False), (3, True)])
def test_report_postings_built_only_for_history_methods(toy_project, method_id,
                                                        uses_history):
    artifacts = Artifacts(toy_project)
    localize(toy_project.bug_reports[2], toy_project, MethodConfig.from_id(method_id),
             artifacts)
    assert ("reports" in vars(artifacts._tfidf_scope("local"))) == uses_history
    assert ("_project_pairs" in vars(artifacts)) == uses_history
