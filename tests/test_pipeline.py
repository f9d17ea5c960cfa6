"""Tests for demo selection policies, passage ranking, NDCG, and run files."""

import dataclasses
import json
import logging
import math

import numpy as np
import pytest

from demorank.bm25 import Bm25Params
from demorank.data import (
    Dataset,
    Demonstration,
    Label,
    Passage,
    Query,
    RelJudgment,
    TrainingInput,
    build_pool,
)
from demorank.pipeline import (
    POLICIES,
    EvalReport,
    PolicyContext,
    RunEntry,
    SelectionParams,
    brute_force_best_list,
    compare_reports,
    evaluate_run,
    greedy_select,
    greedy_select_from,
    initial_rankings,
    load_run,
    ndcg_at_k,
    rank_passages,
    rank_passages_per_input,
    run_policy,
    write_run,
)
from demorank.reranker import CrossEncoder
from demorank.retriever import BiEncoder, DenseIndex, EncoderConfig, encoding_cache
from demorank.scoring import (LabelDistribution, MockScorer, PromptTemplate, ScoreRequest,
                              score_list)
from demorank.synth import SynthParams, generate_synthetic_dataset

WORDS = [
    "ocean", "tide", "coral", "reef", "lava", "magma", "crater", "basalt",
    "fern", "moss", "lichen", "spore", "quartz", "slate", "flint", "ore",
]


def random_text(rng, lo=2, hi=6) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.integers(lo, hi + 1)))


def make_demo(tag: str, qtext: str, ptext: str, label=Label.YES) -> Demonstration:
    return Demonstration(Query(f"q{tag}", qtext), Passage(f"p{tag}", ptext), label)


def make_input(qtext: str, ptext: str) -> TrainingInput:
    return TrainingInput(Query("q0", qtext), Passage("p0", ptext), Label.YES)


def entry(qid: str, pid: str, rank: int, score: float = 0.0) -> RunEntry:
    return RunEntry(qid, pid, rank, score, "test")


class ConstScorer:
    """Scores every request with the same half-and-half distribution."""

    def distribution(self, request) -> LabelDistribution:
        return LabelDistribution(0.5, 0.5)

    def distributions(self, requests):
        return [self.distribution(r) for r in requests]


class TestNdcg:
    def test_ideal_ranking_scores_exactly_one(self):
        qrels = {"q1": {"p1": 1, "p2": 0}}
        run = [entry("q1", "p1", 1), entry("q1", "p2", 2)]
        assert ndcg_at_k(run, qrels) == 1.0

    def test_relevant_at_rank_two(self):
        qrels = {"q1": {"p1": 1, "p2": 0}}
        run = [entry("q1", "p2", 1), entry("q1", "p1", 2)]
        assert ndcg_at_k(run, qrels) == pytest.approx(1 / math.log2(3), abs=1e-9)
        assert ndcg_at_k(run, qrels) == pytest.approx(0.6309297535714574, abs=1e-9)

    def test_graded_judgments_hand_computed(self):
        qrels = {"q1": {"p1": 2, "p2": 1, "p3": 0}}
        run = [entry("q1", "p3", 1), entry("q1", "p1", 2), entry("q1", "p2", 3)]
        got = (2**2 - 1) / math.log2(3) + (2**1 - 1) / math.log2(4)
        ideal = (2**2 - 1) / math.log2(2) + (2**1 - 1) / math.log2(3)
        assert ndcg_at_k(run, qrels) == pytest.approx(got / ideal, abs=1e-12)

    def test_cutoff_truncates_run_and_ideal(self):
        qrels = {"q1": {"p1": 1, "p2": 1}}
        run = [entry("q1", "p3", 1), entry("q1", "p1", 2)]
        # at k=1 only the unjudged top passage counts, so the score is zero
        assert ndcg_at_k(run, qrels, k=1) == 0.0
        # at k=2 the ideal still counts both relevant passages
        expected = (1 / math.log2(3)) / (1 + 1 / math.log2(3))
        assert ndcg_at_k(run, qrels, k=2) == pytest.approx(expected, abs=1e-12)

    def test_unjudged_passages_count_as_grade_zero(self):
        qrels = {"q1": {"p1": 1}}
        run = [entry("q1", "px", 1), entry("q1", "p1", 2)]
        assert ndcg_at_k(run, qrels) == pytest.approx(1 / math.log2(3), abs=1e-12)

    def test_all_zero_judgments_score_zero(self):
        qrels = {"q1": {"p1": 0, "p2": 0}}
        run = [entry("q1", "p1", 1), entry("q1", "p2", 2)]
        assert ndcg_at_k(run, qrels) == 0.0

    def test_error_cases(self):
        qrels = {"q1": {"p1": 1}}
        with pytest.raises(ValueError, match="empty run"):
            ndcg_at_k([], qrels)
        mixed = [entry("q1", "p1", 1), entry("q2", "p1", 1)]
        with pytest.raises(ValueError, match="mixes queries"):
            ndcg_at_k(mixed, qrels)
        with pytest.raises(ValueError, match="no judgments"):
            ndcg_at_k([entry("q9", "p1", 1)], qrels)


class TestEvaluateRun:
    def test_mean_and_exclusions(self):
        qrels = {"q1": {"p1": 1, "p2": 0}, "q2": {"p1": 1, "p2": 0}}
        entries = [
            entry("q1", "p1", 1), entry("q1", "p2", 2),   # ndcg 1.0
            entry("q2", "p2", 1), entry("q2", "p1", 2),   # ndcg 1/log2(3)
            entry("q3", "p1", 1),                          # unjudged query
        ]
        per_query, mean, excluded = evaluate_run(entries, qrels)
        assert set(per_query) == {"q1", "q2"}
        assert per_query["q1"] == 1.0
        assert mean == pytest.approx((1.0 + 1 / math.log2(3)) / 2, abs=1e-12)
        assert excluded == ["q3"]

    def test_empty_entries(self):
        per_query, mean, excluded = evaluate_run([], {})
        assert per_query == {} and mean == 0.0 and excluded == []


class TestGreedySelectFrom:
    def make_candidates(self, n):
        return [make_demo(str(i), f"query {i}", f"passage {i}") for i in range(n)]

    def test_follows_scripted_argmax_path(self):
        cands = self.make_candidates(4)
        tables = {
            0: {"q0": 1.0, "q1": 3.0, "q2": 3.0, "q3": 0.0},
            1: {"q0": 5.0, "q2": 5.0, "q3": 2.0},
        }

        def batch_fn(prefix, remaining):
            return [tables[len(prefix)][d.query.id] for d in remaining]

        chosen = greedy_select_from(cands, 2, batch_fn)
        # step 0 ties q1/q2 at 3.0 and keeps q1; step 1 ties q0/q2 and keeps q0
        assert [d.query.id for d in chosen] == ["q1", "q0"]

    def test_zero_k_selects_nothing(self):
        calls = []

        def batch_fn(prefix, remaining):
            calls.append(1)
            return [0.0] * len(remaining)

        assert greedy_select_from(self.make_candidates(3), 0, batch_fn) == []
        assert calls == []

    def test_k_beyond_pool_exhausts_candidates(self):
        cands = self.make_candidates(3)
        chosen = greedy_select_from(cands, 10, lambda prefix, rem: list(range(len(rem))))
        assert len(chosen) == 3
        assert {d.query.id for d in chosen} == {"q0", "q1", "q2"}

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            greedy_select_from(self.make_candidates(2), -1, lambda prefix, rem: [])

    def test_greedy_select_validates_k_against_d(self):
        rng = np.random.default_rng(42)
        model = BiEncoder.init(EncoderConfig(vocab_buckets=32, dim=4), 42)
        reranker = CrossEncoder.init(EncoderConfig(vocab_buckets=32, dim=4), 2, 42)
        demos = [make_demo(str(i), random_text(rng), random_text(rng))
                 for i in range(4)]
        pool = sorted(demos, key=lambda d: d.ref)
        index = DenseIndex.build(model, pool)
        with pytest.raises(ValueError, match="must not exceed"):
            greedy_select(make_input("a", "b"), index, reranker, D=2, k=3,
                          encodings=encoding_cache(reranker.embeddings))


class TestBruteForceBestList:
    def make_candidates(self, rng, n):
        return [make_demo(str(i), random_text(rng), random_text(rng),
                          Label.YES if i % 2 == 0 else Label.NO)
                for i in range(n)]

    def test_scores_every_ordered_subset(self):
        rng = np.random.default_rng(42)
        cands = self.make_candidates(rng, 4)
        inp = make_input(random_text(rng), random_text(rng))
        (best, best_score), scored = brute_force_best_list(
            inp, cands, 2, MockScorer(), PromptTemplate())
        assert len(scored) == 4 * 3
        assert best_score == max(s for _, s in scored)
        assert len(best) == 2

    def test_equal_scores_pick_lexicographically_first(self):
        rng = np.random.default_rng(42)
        cands = self.make_candidates(rng, 3)
        inp = make_input(random_text(rng), random_text(rng))
        (best, best_score), _ = brute_force_best_list(
            inp, cands, 2, ConstScorer(), PromptTemplate())
        assert best_score == 0.5
        assert [d.ref for d in best] == [cands[0].ref, cands[1].ref]

    def test_agrees_with_exhaustive_rescoring(self):
        rng = np.random.default_rng(42)
        backend, template = MockScorer(), PromptTemplate()
        for _ in range(5):
            cands = self.make_candidates(rng, 4)
            inp = make_input(random_text(rng), random_text(rng))
            (best, best_score), _ = brute_force_best_list(inp, cands, 2,
                                                          backend, template)
            assert best_score == pytest.approx(
                score_list(backend, template, list(best), inp), abs=1e-12)

    def test_k_bounds(self):
        rng = np.random.default_rng(42)
        cands = self.make_candidates(rng, 3)
        inp = make_input("a", "b")
        for bad in (0, 4):
            with pytest.raises(ValueError, match="need 1 <= k"):
                brute_force_best_list(inp, cands, bad, MockScorer(), PromptTemplate())

    def test_sequence_guard(self):
        rng = np.random.default_rng(42)
        cands = self.make_candidates(rng, 6)
        inp = make_input("a", "b")
        with pytest.raises(ValueError, match="exceeds"):
            brute_force_best_list(inp, cands, 6, MockScorer(), PromptTemplate(),
                                  max_sequences=500)

    def test_greedy_matches_brute_force_at_k_one(self):
        rng = np.random.default_rng(42)
        backend, template = MockScorer(), PromptTemplate()
        for trial in range(30):
            n = int(rng.integers(2, 6))
            cands = self.make_candidates(rng, n)
            inp = make_input(random_text(rng), random_text(rng))
            (best, _), _ = brute_force_best_list(inp, cands, 1, backend, template)
            chosen = greedy_select_from(
                cands, 1,
                lambda prefix, rem: [score_list(backend, template, prefix + [z], inp)
                                     for z in rem])
            assert [d.ref for d in chosen] == [d.ref for d in best]


class TestRankPassages:
    def test_overlap_ranks_first(self):
        query = Query("q1", "coral reef")
        passages = [Passage("p1", "quartz slate"), Passage("p2", "coral reef")]
        entries = rank_passages(query, passages, [], MockScorer(), PromptTemplate())
        assert [e.passage_id for e in entries] == ["p2", "p1"]
        assert [e.rank for e in entries] == [1, 2]
        assert entries[0].score > entries[1].score

    def test_score_is_p_yes(self):
        entries = rank_passages(Query("q", "alpha"), [Passage("p", "beta")], [],
                                MockScorer(), PromptTemplate())
        assert entries[0].score == MockScorer().distribution(
            ScoreRequest(PromptTemplate(), (), "alpha", "beta")).p_yes

    def test_tied_scores_keep_initial_order(self):
        query = Query("q1", "coral reef")
        passages = [Passage(f"p{i}", "quartz slate") for i in (3, 1, 2)]
        entries = rank_passages(query, passages, [], MockScorer(), PromptTemplate())
        assert [e.passage_id for e in entries] == ["p3", "p1", "p2"]

    def test_per_input_variant_matches_shared_demos(self):
        rng = np.random.default_rng(42)
        query = Query("q1", random_text(rng))
        passages = [Passage(f"p{i}", random_text(rng)) for i in range(4)]
        demos = [make_demo(str(i), random_text(rng), random_text(rng))
                 for i in range(2)]
        a = rank_passages(query, passages, demos, MockScorer(), PromptTemplate())
        b = rank_passages_per_input(query, passages, [demos] * 4,
                                    MockScorer(), PromptTemplate())
        assert a == b


class TestRunFiles:
    def test_round_trip_preserves_scores_exactly(self, tmp_path):
        rng = np.random.default_rng(42)
        entries = [RunEntry(f"q{i}", f"p{i}", i + 1, float(rng.random()), "tag")
                   for i in range(5)]
        path = tmp_path / "test.run"
        write_run(path, entries)
        assert load_run(path) == entries

    def test_line_format(self, tmp_path):
        path = tmp_path / "test.run"
        write_run(path, [RunEntry("q1", "p2", 1, 0.25, "demo")])
        assert path.read_text() == "q1 Q0 p2 1 0.25 demo\n"

    def test_bad_lines_rejected(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 p2 1 0.25\n")
        with pytest.raises(ValueError, match="bad run line"):
            load_run(path)
        path.write_text("q1 XX p2 1 0.25 demo\n")
        with pytest.raises(ValueError, match="bad run line"):
            load_run(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "test.run"
        path.write_text("q1 Q0 p2 1 0.25 demo\n\n")
        assert len(load_run(path)) == 1


class TestInitialRankings:
    def make_dataset(self):
        queries = [Query("q1", "coral reef"), Query("q2", "lava flow")]
        passages = [
            Passage("p1", "quartz slate"), Passage("p2", "coral atoll"),
            Passage("p3", "moss fern"), Passage("p4", "basalt ore"),
        ]
        judgments = [
            RelJudgment("q1", "p2", 1), RelJudgment("q1", "p1", 0),
            RelJudgment("q1", "p3", 0),
        ]
        return Dataset(queries, passages, judgments, "test")

    def test_bm25_hits_lead_then_pid_order(self):
        rankings = initial_rankings(self.make_dataset(), Bm25Params())
        # p2 shares "coral" with the query; p1 and p3 do not match and follow
        # in passage-id order
        assert [p.id for p in rankings["q1"]] == ["p2", "p1", "p3"]

    def test_query_without_judgments_is_empty(self):
        rankings = initial_rankings(self.make_dataset(), Bm25Params())
        assert rankings["q2"] == []


@pytest.fixture(scope="module")
def policy_world():
    synth = generate_synthetic_dataset(SynthParams(
        topics=4, vocab=50, train_queries=8, test_queries=3,
        passages_per_query=6, tokens_per_text=6), 7)
    pool = build_pool(synth.train, 13)
    retriever = BiEncoder.init(EncoderConfig(vocab_buckets=128, dim=8), 23)
    ctx = PolicyContext(
        pool=pool,
        backend=MockScorer(relevance_fn=synth.relevance_fn()),
        template=PromptTemplate(),
        retriever=retriever,
        reranker=CrossEncoder.init(EncoderConfig(vocab_buckets=128, dim=8), 4, 37),
        selection=SelectionParams(shots=2, retrieve_d=5),
    )
    return synth, ctx


class TestRunPolicy:
    def test_every_policy_produces_a_full_deterministic_run(self, policy_world):
        synth, ctx = policy_world
        qrels = synth.test.judgments_by_query()
        judged = {qid for qid, js in qrels.items() if js}
        for policy in POLICIES:
            entries = run_policy(policy, synth.test, ctx, 43)
            entries_again = run_policy(policy, synth.test, ctx, 43)
            assert entries == entries_again
            assert {e.tag for e in entries} == {policy}
            assert {e.query_id for e in entries} == judged
            by_query = {}
            for e in entries:
                by_query.setdefault(e.query_id, []).append(e.rank)
            for ranks in by_query.values():
                assert sorted(ranks) == list(range(1, len(ranks) + 1))
            per_query, mean, excluded = evaluate_run(entries, qrels)
            assert 0.0 <= mean <= 1.0
            assert set(per_query) == judged
            assert excluded == []

    def test_query_without_judged_passages_is_skipped(self, policy_world):
        synth, ctx = policy_world
        # sorts after every synthetic id, so no other query's seed moves
        unjudged = dataclasses.replace(
            synth.test, queries=[*synth.test.queries, Query("~unjudged", "coral reef")])
        for policy in POLICIES:
            assert run_policy(policy, unjudged, ctx, 43) == run_policy(policy, synth.test, ctx, 43)

    def test_zero_shot_matches_direct_ranking(self, policy_world):
        synth, ctx = policy_world
        entries = run_policy("zero-shot", synth.test, ctx, 43)
        rankings = initial_rankings(synth.test, ctx.bm25_params)
        expected = []
        for query in sorted(synth.test.queries, key=lambda q: q.id):
            passages = rankings[query.id]
            if passages:
                expected.extend(rank_passages(query, passages, [], ctx.backend,
                                              ctx.template, tag="zero-shot"))
        assert entries == expected

    def test_per_query_selection_mode(self, policy_world):
        synth, ctx = policy_world
        import dataclasses

        fast_ctx = dataclasses.replace(
            ctx, selection=dataclasses.replace(ctx.selection, per_query=True))
        entries = run_policy("demorank", synth.test, fast_ctx, 43)
        entries_again = run_policy("demorank", synth.test, fast_ctx, 43)
        assert entries == entries_again
        _, mean, _ = evaluate_run(entries, synth.test.judgments_by_query())
        assert 0.0 <= mean <= 1.0

    def test_unknown_policy_rejected(self, policy_world):
        synth, ctx = policy_world
        with pytest.raises(ValueError, match="unknown policy"):
            run_policy("best-effort", synth.test, ctx)

    def test_missing_dependency_rejected(self, policy_world):
        synth, ctx = policy_world
        bare = dataclasses.replace(ctx, retriever=None)
        with pytest.raises(ValueError, match="policy needs retriever"):
            run_policy("retriever-topk", synth.test, bare)

    def test_oversized_retrieval_warns_once_per_policy(self, policy_world, caplog):
        synth, ctx = policy_world
        d = len(ctx.pool) + 5
        wide = dataclasses.replace(ctx, selection=dataclasses.replace(ctx.selection, retrieve_d=d))
        for policy in ("retriever-topk", "demorank"):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="demorank.retriever"):
                run_policy(policy, synth.test, wide)
            assert [r.getMessage() for r in caplog.records] == [
                f"requested top {d} from a pool of {len(ctx.pool)}; returning all"]


class TestReports:
    def make_report(self, policy, mean):
        return EvalReport(policy, 3, mean, {"q1": mean}, [], "digest")

    def test_to_json_keys(self):
        report = self.make_report("zero-shot", 0.75)
        obj = json.loads(report.to_json())
        assert set(obj) == {
            "policy", "shots", "mean_ndcg", "per_query", "excluded_queries",
            "config_digest",
        }
        assert obj["mean_ndcg"] == 0.75
        assert obj["per_query"] == {"q1": 0.75}

    def test_from_json_reads_to_json(self):
        report = EvalReport("random", 3, 0.5, {"q1": 0.5}, ["q2"], "digest")
        assert EvalReport.from_json(report.to_json()) == report

    def test_compare_reports_deltas(self):
        reports = [
            self.make_report("zero-shot", 0.5),
            self.make_report("random", 0.6),
            self.make_report("demorank", 0.8),
        ]
        out = compare_reports(reports)
        assert out["mean_ndcg"]["demorank"] == 0.8
        assert out["delta_vs_zero_shot"]["random"] == pytest.approx(0.1, abs=1e-12)
        assert out["delta_vs_zero_shot"]["demorank"] == pytest.approx(0.3, abs=1e-12)
        assert "zero-shot" not in out["delta_vs_zero_shot"]

    def test_compare_without_zero_shot(self):
        out = compare_reports([self.make_report("random", 0.6)])
        assert "delta_vs_zero_shot" not in out
        assert out["mean_ndcg"] == {"random": 0.6}
