"""Tests for the dependency-aware cross-encoder reranker."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from demorank import reranker, retriever
from demorank.bm25 import build_pool_index, mine_candidates
from demorank.data import (
    Demonstration,
    Label,
    Passage,
    Query,
    TrainingInput,
    build_pool,
    build_training_inputs,
    pair_text,
)
from demorank.reranker import (
    CrossEncoder,
    EmptyListError,
    RerankerTrainConfig,
    SampleGroup,
    construct_samples,
    construct_samples_for_corpus,
    cross_score,
    cross_score_batch,
    list_pairwise_loss,
    load_samples,
    rank_sample_probabilities,
    reranker_loss_and_grads,
    sample_by_rank,
    train_reranker,
    write_samples,
)
from demorank.retriever import (
    BiEncoder,
    EncoderConfig,
    NonFiniteLossError,
    ScoredCandidate,
    ScoredCandidateSet,
    demo_text,
    score_candidates,
    snap_f32,
    text_features,
    train_retriever,
)
from demorank.scoring import LabelDistribution, MockScorer, PromptTemplate, score_list
from demorank.synth import SynthParams, generate_synthetic_dataset

WORDS = [
    "ocean", "tide", "coral", "reef", "lava", "magma", "crater", "basalt",
    "fern", "moss", "lichen", "spore", "quartz", "slate", "flint", "ore",
]


def random_text(rng, lo=2, hi=6) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.integers(lo, hi + 1)))


def make_demo(tag: str, qtext: str, ptext: str, label=Label.YES) -> Demonstration:
    return Demonstration(Query(f"q{tag}", qtext), Passage(f"p{tag}", ptext), label)


def make_input(qtext: str, ptext: str, label=Label.YES) -> TrainingInput:
    return TrainingInput(Query("q0", qtext), Passage("p0", ptext), label)


def random_sample(rng, n_prefix: int, n_continuations: int) -> ScoredCandidateSet:
    inp = make_input(random_text(rng), random_text(rng))
    prefix = tuple(make_demo(f"pre{i}", random_text(rng), random_text(rng))
                   for i in range(n_prefix))
    scores = np.sort(rng.random(n_continuations))[::-1]
    conts = [
        ScoredCandidate(make_demo(f"c{i}", random_text(rng), random_text(rng)),
                        float(scores[i]))
        for i in range(n_continuations)
    ]
    return ScoredCandidateSet(inp, conts, prefix)


class CountingScorer:
    """Wraps a backend and counts distribution calls."""

    def __init__(self, backend):
        self.backend = backend
        self.calls = 0

    def distribution(self, request):
        self.calls += 1
        return self.backend.distribution(request)

    def distributions(self, requests):
        return [self.distribution(r) for r in requests]


class TestCrossEncoderInit:
    def test_shapes(self):
        model = CrossEncoder.init(EncoderConfig(vocab_buckets=32, dim=8, hidden=4), 42)
        assert model.embeddings.shape == (32, 8)
        assert model.w1.shape == (4, 32)
        assert model.b1.shape == (4,)
        assert model.w2.shape == (4,)
        assert model.b2.shape == (1,)

    def test_parameters_float32_representable(self):
        model = CrossEncoder.init(EncoderConfig(vocab_buckets=32, dim=8, hidden=4), 42)
        for arr in (model.embeddings, model.w1, model.b1, model.w2, model.b2):
            np.testing.assert_array_equal(arr, snap_f32(arr))

    def test_deterministic(self):
        a = CrossEncoder.init(EncoderConfig(vocab_buckets=32, dim=8, hidden=4), 42)
        b = CrossEncoder.init(EncoderConfig(vocab_buckets=32, dim=8, hidden=4), 42)
        np.testing.assert_array_equal(a.embeddings, b.embeddings)
        np.testing.assert_array_equal(a.w1, b.w1)

    def test_rejects_nonpositive_hidden(self):
        with pytest.raises(ValueError, match="hidden"):
            CrossEncoder.init(EncoderConfig(vocab_buckets=32, dim=8, hidden=0), 42)


def hand_model() -> CrossEncoder:
    """dim=1, hidden=1 model over 8 buckets with every embedding row set to
    2.0 except the bucket of token "a", which is 1.0.  With 8 buckets the
    tokens "a", "b", "yes", and "no" land in buckets 4, 5, 0, and 2, so any
    text avoiding "a" encodes to exactly 2.0 and "a a" encodes to 1.0."""
    table = np.full((8, 1), 2.0)
    table[4, 0] = 1.0
    return CrossEncoder(table, w1=np.ones((1, 4)), b1=np.zeros(1),
                        w2=np.ones(1), b2=np.zeros(1))


class TestCrossScore:
    def test_hand_computed_single_demo(self):
        # features are [e_input, e_prefix, e_last, e_input * e_last]; with
        # e_input=1, e_prefix=0, e_last=2 the pre-activation is 1+0+2+2=5
        model = hand_model()
        inp = make_input("a", "a")
        demo = make_demo("b", "b", "b", Label.YES)
        assert cross_score(model, inp, [demo]) == pytest.approx(math.tanh(5.0), abs=1e-12)

    def test_hand_computed_with_prefix(self):
        # the prefix demo encodes to 2, so the pre-activation is 1+2+2+2=7
        model = hand_model()
        inp = make_input("a", "a")
        prefix_demo = make_demo("b1", "b", "b", Label.NO)
        last_demo = make_demo("b2", "b", "b", Label.YES)
        got = cross_score(model, inp, [prefix_demo, last_demo])
        assert got == pytest.approx(math.tanh(7.0), abs=1e-12)

    def test_single_demo_uses_zero_prefix_encoding(self):
        # W1 reads only the prefix block, so a one-demo list scores tanh(0)=0
        model = hand_model()
        model.w1 = np.array([[0.0, 1.0, 0.0, 0.0]])
        inp = make_input("a", "a")
        assert cross_score(model, inp, [make_demo("b", "b", "b")]) == pytest.approx(0.0, abs=1e-15)

    def test_all_zero_parameters_score_zero(self):
        model = hand_model()
        model.embeddings = np.zeros_like(model.embeddings)
        model.w1 = np.zeros_like(model.w1)
        model.w2 = np.zeros_like(model.w2)
        rng = np.random.default_rng(42)
        inp = make_input(random_text(rng), random_text(rng))
        demos = [make_demo(str(i), random_text(rng), random_text(rng)) for i in range(3)]
        assert cross_score(model, inp, demos) == 0.0

    def test_empty_list_rejected(self):
        model = hand_model()
        with pytest.raises(EmptyListError):
            cross_score(model, make_input("a", "a"), [])

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(42)
        model = CrossEncoder.init(EncoderConfig(vocab_buckets=64, dim=8, hidden=4), 42)
        for _ in range(10):
            inp = make_input(random_text(rng), random_text(rng))
            prefix = [make_demo(f"pre{i}", random_text(rng), random_text(rng))
                      for i in range(int(rng.integers(0, 3)))]
            cands = [make_demo(f"c{i}", random_text(rng), random_text(rng))
                     for i in range(int(rng.integers(1, 5)))]
            batch = cross_score_batch(model, inp, prefix, cands)
            loop = [cross_score(model, inp, prefix + [z]) for z in cands]
            np.testing.assert_allclose(batch, loop, atol=1e-12)

    def test_batch_empty_candidates(self):
        model = hand_model()
        out = cross_score_batch(model, make_input("a", "a"), [], [])
        assert out.shape == (0,)


class TestRankSampling:
    def test_probabilities_match_analytic_values(self):
        probs = rank_sample_probabilities([1, 2, 3])
        denom = sum(math.exp(-r) for r in (1, 2, 3))
        np.testing.assert_allclose(
            probs, [math.exp(-r) / denom for r in (1, 2, 3)], atol=1e-12)
        np.testing.assert_allclose(probs, [0.66524, 0.24473, 0.09003], atol=5e-6)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(1, 12))
            probs = rank_sample_probabilities(list(rng.permutation(n) + 1))
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_ranking_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rank_sample_probabilities([])

    def test_single_candidate_always_chosen(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            assert sample_by_rank([1], rng) == 0

    def test_monte_carlo_frequencies(self):
        rng = np.random.default_rng(99)
        counts = np.zeros(3)
        draws = 50_000
        for _ in range(draws):
            counts[sample_by_rank([1, 2, 3], rng)] += 1
        np.testing.assert_allclose(counts / draws, [0.66524, 0.24473, 0.09003], atol=0.01)

    def test_choice_independent_of_input_order(self):
        # the CDF walks ranks in ascending order, so the same uniform draw
        # selects the same rank no matter how the candidates are permuted
        for seed in range(20):
            a = sample_by_rank([1, 2, 3], np.random.default_rng(seed))
            b = sample_by_rank([3, 2, 1], np.random.default_rng(seed))
            assert [1, 2, 3][a] == [3, 2, 1][b]

    def test_deterministic_given_generator(self):
        a = [sample_by_rank([1, 2, 3, 4], np.random.default_rng(s)) for s in range(30)]
        b = [sample_by_rank([1, 2, 3, 4], np.random.default_rng(s)) for s in range(30)]
        assert a == b

    def test_draw_past_a_rounded_down_cdf_picks_the_last_rank(self):
        # these probabilities sum to just under 1 in rank order, so a draw
        # just below 1 passes every step of the CDF walk
        ranks = [3, 1, 6, 2, 5, 4]
        below_one = float(np.nextafter(1.0, 0.0))
        probs = rank_sample_probabilities(ranks)
        assert sum(probs[np.argsort(ranks, kind="stable")].tolist()) < below_one

        class TopDraw:
            def random(self):
                return below_one

        assert sample_by_rank(ranks, TopDraw()) == 2


def walk_cdf(ranks, u: float) -> int:
    """The inverse-CDF loop `sample_by_rank` once ran: add each candidate's
    probability in ascending rank order and stop at the first partial sum
    above `u`; a draw past every partial sum picks the last rank."""
    probs = rank_sample_probabilities(ranks)
    order = np.argsort(np.asarray(ranks), kind="stable")
    cum = 0.0
    for idx in order:
        cum += probs[idx]
        if u < cum:
            return int(idx)
    return int(order[-1])


class FixedDraw:
    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


class TestRankDrawMatchesCdfWalk:
    def random_ranks(self, rng) -> list[float]:
        ranks = rng.permutation(int(rng.integers(1, 60))) + 1.0
        # scaled ranks make exp(-rank) underflow to 0 beyond the first few
        return list(ranks * float(rng.uniform(1.0, 40.0)) if rng.random() < 0.2 else ranks)

    def test_same_choice_on_random_rankings(self):
        rng = np.random.default_rng(2024)
        for _ in range(3000):
            ranks, seed = self.random_ranks(rng), int(rng.integers(2**32))
            u = np.random.default_rng(seed).random()
            assert sample_by_rank(ranks, np.random.default_rng(seed)) == walk_cdf(ranks, u)

    def test_same_choice_on_a_draw_just_below_one(self):
        rng = np.random.default_rng(7)
        below_one = float(np.nextafter(1.0, 0.0))
        for _ in range(500):
            ranks = self.random_ranks(rng)
            assert sample_by_rank(ranks, FixedDraw(below_one)) == walk_cdf(ranks, below_one)

    def test_same_choice_on_draws_at_each_partial_sum(self):
        # a draw equal to a partial sum moves on to the next rank in both
        ranks = [4, 2, 5, 1, 3]
        probs = rank_sample_probabilities(ranks)
        for cum in np.cumsum(probs[np.argsort(ranks, kind="stable")]):
            for u in (float(np.nextafter(cum, 0.0)), float(cum), 0.0):
                assert sample_by_rank(ranks, FixedDraw(u)) == walk_cdf(ranks, u)


class TestConstructSamples:
    def make_retrieved(self, rng, m: int):
        return [make_demo(str(i), random_text(rng), random_text(rng),
                          Label.YES if i % 2 == 0 else Label.NO)
                for i in range(m)]

    def test_scorer_call_count_is_sum_of_list_sizes(self):
        rng = np.random.default_rng(42)
        template = PromptTemplate()
        for m, k in ((8, 3), (5, 5), (6, 1)):
            backend = CountingScorer(MockScorer())
            inp = make_input(random_text(rng), random_text(rng))
            retrieved = self.make_retrieved(rng, m)
            samples = construct_samples(inp, retrieved, backend, template, k,
                                        np.random.default_rng(5))
            assert backend.calls == sum(m - i for i in range(k))
            assert len(samples) == k

    def test_sample_invariants(self):
        rng = np.random.default_rng(42)
        template = PromptTemplate()
        for trial in range(20):
            m = int(rng.integers(2, 9))
            k = int(rng.integers(1, m + 1))
            backend = MockScorer()
            inp = make_input(random_text(rng), random_text(rng))
            retrieved = self.make_retrieved(rng, m)
            retrieved_refs = {d.ref for d in retrieved}
            samples = construct_samples(inp, retrieved, backend, template, k,
                                        np.random.default_rng(trial))
            assert len(samples) == k
            for i, sample in enumerate(samples):
                assert len(sample.prefix) == i
                assert len(sample.candidates) == m - i
                assert sample.shot == i + 1
                assert len({d.ref for d in sample.prefix}) == i
                for cont in sample.candidates:
                    assert cont.demo not in sample.prefix
                    assert cont.demo.ref in retrieved_refs

    def test_continuation_scores_match_backend(self):
        rng = np.random.default_rng(42)
        template = PromptTemplate()
        backend = MockScorer()
        inp = make_input(random_text(rng), random_text(rng))
        retrieved = self.make_retrieved(rng, 5)
        samples = construct_samples(inp, retrieved, backend, template, 2,
                                    np.random.default_rng(5))
        for sample in samples:
            for cont in sample.candidates:
                expected = score_list(backend, template, [*sample.prefix, cont.demo], inp)
                assert cont.llm_score == pytest.approx(expected, abs=1e-12)

    def test_first_round_is_score_candidates_in_order(self):
        rng = np.random.default_rng(42)
        template = PromptTemplate()
        backend = MockScorer()
        for trial in range(10):
            inp = make_input(random_text(rng), random_text(rng))
            retrieved = self.make_retrieved(rng, 6)
            first = construct_samples(inp, retrieved, backend, template, 2,
                                      np.random.default_rng(trial))[0]
            scored = score_candidates(backend, template, inp, retrieved)
            assert first == scored

    def test_score_candidates_without_prefix_matches_single_demo_scores(self):
        rng = np.random.default_rng(42)
        template = PromptTemplate()
        backend = MockScorer()
        inp = make_input(random_text(rng), random_text(rng))
        retrieved = self.make_retrieved(rng, 7)
        scored = score_candidates(backend, template, inp, retrieved, prefix=())
        assert [c.demo for c in scored.candidates] == retrieved
        assert [c.llm_score for c in scored.candidates] == \
            [score_list(backend, template, [d], inp) for d in retrieved]

    def test_tied_scores_keep_retrieval_order(self, monkeypatch):
        class FixedScorer:
            def distributions(self, requests):
                return [LabelDistribution(0.6, 0.4) for _ in requests]

        drawn_ranks = []

        def spy(ranks, rng):
            drawn_ranks.append(list(ranks))
            return sample_by_rank(ranks, rng)

        monkeypatch.setattr("demorank.reranker.sample_by_rank", spy)
        rng = np.random.default_rng(42)
        m, k = 6, 4
        inp = make_input(random_text(rng), random_text(rng))
        retrieved = self.make_retrieved(rng, m)
        samples = construct_samples(inp, retrieved, FixedScorer(), PromptTemplate(), k,
                                    np.random.default_rng(5))
        for sample in samples:
            unselected = [d for d in retrieved if d not in sample.prefix]
            assert [c.demo for c in sample.ranked()] == unselected
            assert len({c.llm_score for c in sample.candidates}) == 1
        assert drawn_ranks == [list(range(1, m - i + 1)) for i in range(k)]

    def test_iteration_bounds(self):
        rng = np.random.default_rng(42)
        inp = make_input("a", "b")
        retrieved = self.make_retrieved(rng, 4)
        for bad in (0, 5):
            with pytest.raises(ValueError, match="iterations"):
                construct_samples(inp, retrieved, MockScorer(), PromptTemplate(),
                                  bad, np.random.default_rng(5))

    def test_corpus_determinism(self, toy_chain):
        again = construct_samples_for_corpus(
            toy_chain["inputs"], toy_chain["retrieved"], toy_chain["backend"],
            toy_chain["template"], 2, 31)
        assert len(again) == len(toy_chain["samples"])
        for a, b in zip(again, toy_chain["samples"]):
            assert a.input.input_id == b.input.input_id
            assert [c.demo.ref for c in a.candidates] == \
                [c.demo.ref for c in b.candidates]

    def test_corpus_seed_changes_trajectories(self, toy_chain):
        other = construct_samples_for_corpus(
            toy_chain["inputs"], toy_chain["retrieved"], toy_chain["backend"],
            toy_chain["template"], 2, 32)
        prefixes = lambda ss: [tuple(d.ref for d in s.prefix) for s in ss]
        assert prefixes(other) != prefixes(toy_chain["samples"])

    def test_multiple_trajectories(self, toy_chain):
        doubled = construct_samples_for_corpus(
            toy_chain["inputs"], toy_chain["retrieved"], toy_chain["backend"],
            toy_chain["template"], 2, 31, trajectories=2)
        assert len(doubled) == 2 * len(toy_chain["samples"])
        with pytest.raises(ValueError, match="trajectories"):
            construct_samples_for_corpus(
                toy_chain["inputs"], toy_chain["retrieved"], toy_chain["backend"],
                toy_chain["template"], 2, 31, trajectories=0)


class TestListPairwiseLoss:
    def test_zero_parameters_give_pair_count_times_log2(self):
        rng = np.random.default_rng(42)
        model = hand_model()
        model.embeddings = np.zeros_like(model.embeddings)
        model.w2 = np.zeros_like(model.w2)
        samples = [random_sample(rng, int(rng.integers(0, 2)), int(rng.integers(2, 6)))
                   for _ in range(5)]
        expected = sum(math.comb(len(s.candidates), 2) for s in samples) * math.log(2)
        assert list_pairwise_loss(model, samples) == pytest.approx(expected, abs=1e-9)

    def test_no_samples_give_zero(self):
        assert list_pairwise_loss(hand_model(), []) == 0.0

    def test_matches_pairwise_reimplementation(self):
        rng = np.random.default_rng(42)
        model = CrossEncoder.init(EncoderConfig(vocab_buckets=64, dim=8, hidden=4), 42)
        for _ in range(10):
            sample = random_sample(rng, int(rng.integers(0, 3)), int(rng.integers(2, 6)))
            scores = [cross_score(model, sample.input, [*sample.prefix, c.demo])
                      for c in sample.ranked()]
            expected = 0.0
            for i in range(len(scores)):
                for j in range(i + 1, len(scores)):
                    expected += math.log1p(math.exp(min(scores[j] - scores[i], 50.0)))
            got = list_pairwise_loss(model, [sample])
            assert got == pytest.approx(expected, abs=1e-9)

    def test_shift_invariance_via_output_bias(self):
        rng = np.random.default_rng(42)
        model = CrossEncoder.init(EncoderConfig(vocab_buckets=64, dim=8, hidden=4), 42)
        samples = [random_sample(rng, 1, 4) for _ in range(5)]
        base = list_pairwise_loss(model, samples)
        shifted = dataclasses.replace(model, b2=model.b2 + 11.25)
        assert list_pairwise_loss(shifted, samples) == pytest.approx(base, abs=1e-9)

    def test_pair_cap_at_or_above_total_changes_nothing(self):
        rng = np.random.default_rng(42)
        model = CrossEncoder.init(EncoderConfig(vocab_buckets=64, dim=8, hidden=4), 42)
        sample = random_sample(rng, 0, 5)
        full = list_pairwise_loss(model, [sample])
        capped = list_pairwise_loss(model, [sample], max_pairs_per_sample=10,
                                    pair_rng=np.random.default_rng(1))
        assert capped == pytest.approx(full, abs=1e-12)

    def test_pair_cap_subsamples_deterministically(self):
        rng = np.random.default_rng(42)
        model = CrossEncoder.init(EncoderConfig(vocab_buckets=64, dim=8, hidden=4), 42)
        sample = random_sample(rng, 0, 6)
        full = list_pairwise_loss(model, [sample])
        a = list_pairwise_loss(model, [sample], max_pairs_per_sample=4,
                               pair_rng=np.random.default_rng(1))
        b = list_pairwise_loss(model, [sample], max_pairs_per_sample=4,
                               pair_rng=np.random.default_rng(1))
        assert a == b
        assert a < full  # fewer log(1+exp) terms than the 15-pair total


class TestRerankerGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for trial in range(5):
            model = CrossEncoder.init(EncoderConfig(vocab_buckets=16, dim=4, hidden=4), trial)
            samples = [random_sample(rng, int(rng.integers(0, 3)), int(rng.integers(2, 6)))
                       for _ in range(3)]
            loss, grads = reranker_loss_and_grads(
                model, SampleGroup.build(samples, len(model.embeddings)))
            assert loss == list_pairwise_loss(model, samples)
            for name in ("embeddings", "w1", "b1", "w2", "b2"):
                arr = getattr(model, name)
                flat = arr.reshape(-1)
                gflat = grads[name].reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = list_pairwise_loss(model, samples)
                    flat[i] = orig - h
                    down = list_pairwise_loss(model, samples)
                    flat[i] = orig
                    fd = (up - down) / (2 * h)
                    rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-6)
                    assert rel < 1e-4


class TestTrainReranker:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RerankerTrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            RerankerTrainConfig(epochs=0)
        with pytest.raises(ValueError):
            RerankerTrainConfig(max_pairs_per_sample=0)

    def test_rejects_empty_samples(self):
        model = CrossEncoder.init(EncoderConfig(vocab_buckets=16, dim=4, hidden=4), 42)
        with pytest.raises(ValueError, match="no training samples"):
            train_reranker(model, [])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow on the way
    def test_non_finite_loss_names_the_trainer(self, toy_chain):
        model = CrossEncoder.init(toy_chain["config"], 37)
        cfg = RerankerTrainConfig(learning_rate=1e300, epochs=1)
        with pytest.raises(NonFiniteLossError, match="non-finite reranker loss at epoch 0") as exc:
            train_reranker(model, toy_chain["samples"], cfg, 41)
        assert exc.value.model == "reranker"

    def test_deterministic_and_leaves_input_untouched(self, toy_chain):
        model = CrossEncoder.init(toy_chain["config"], 37)
        names = ("embeddings", "w1", "b1", "w2", "b2")
        before = {name: getattr(model, name).copy() for name in names}
        cfg = RerankerTrainConfig(epochs=1)
        a = train_reranker(model, toy_chain["samples"], cfg, 41)
        b = train_reranker(model, toy_chain["samples"], cfg, 41)
        for name in names:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            np.testing.assert_array_equal(getattr(model, name), before[name])

    def test_featurizes_each_distinct_text_once(self, toy_chain):
        samples = toy_chain["samples"]
        texts = {pair_text(s.input) for s in samples}
        texts |= {demo_text(d) for s in samples
                  for d in (*s.prefix, *(c.demo for c in s.candidates))}
        model = CrossEncoder.init(toy_chain["config"], 37)
        text_features.cache_clear()
        train_reranker(model, samples, RerankerTrainConfig(epochs=2), 41)
        assert text_features.cache_info().misses == len(texts)

    def test_epoch_losses_non_increasing(self, toy_chain):
        # with a shared seed the permutation stream makes each longer run an
        # exact extension of the shorter one, so corpus losses after 0, 1, 2,
        # and 3 epochs trace one descent path
        model = CrossEncoder.init(toy_chain["config"], 37)
        losses = [list_pairwise_loss(model, toy_chain["samples"])]
        for epochs in (1, 2, 3):
            cfg = RerankerTrainConfig(epochs=epochs)
            trained = train_reranker(model, toy_chain["samples"], cfg, 41)
            losses.append(list_pairwise_loss(trained, toy_chain["samples"]))
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-9

    def test_parameters_stay_float32_representable(self, toy_chain):
        model = CrossEncoder.init(toy_chain["config"], 37)
        cfg = RerankerTrainConfig(epochs=1)
        trained = train_reranker(model, toy_chain["samples"], cfg, 41)
        for arr in (trained.embeddings, trained.w1, trained.b1, trained.w2, trained.b2):
            np.testing.assert_array_equal(arr, snap_f32(arr))
        # also from an embedding table off the grid, including rows no step touches
        model.embeddings = model.embeddings + 1e-10
        trained = train_reranker(model, toy_chain["samples"], cfg, 41)
        np.testing.assert_array_equal(trained.embeddings, snap_f32(trained.embeddings))


class TestStepRowsCoverGradients:
    """`descend` steps only `rows[i]` of the table, so each trainer's rows
    must hold every row its step's gradient touches."""

    @pytest.fixture
    def checked_descend(self, monkeypatch):
        steps = []
        real = retriever.descend

        def spy(model, keys, rows, loss_and_grads, *args):
            def checked(trained, i):
                loss, grads = loss_and_grads(trained, i)
                touched = np.flatnonzero(np.any(grads["embeddings"] != 0, axis=1))
                assert len(touched) and np.isin(touched, rows[i]).all(), keys[i]
                steps.append(keys[i])
                return loss, grads
            return real(model, keys, rows, checked, *args)

        monkeypatch.setattr(retriever, "descend", spy)
        monkeypatch.setattr(reranker, "descend", spy)
        return steps

    def test_retriever(self, toy_chain, checked_descend):
        sets = [score_candidates(toy_chain["backend"], toy_chain["template"], inp, demos)
                for inp, demos in zip(toy_chain["inputs"], toy_chain["retrieved"])]
        model = BiEncoder.init(toy_chain["config"], 23)
        train_retriever(model, sets, retriever.RetrieverTrainConfig(epochs=2), 7)
        assert len(checked_descend) == 2 * len(sets)

    def test_reranker(self, toy_chain, checked_descend):
        samples = toy_chain["samples"]
        model = CrossEncoder.init(toy_chain["config"], 37)
        train_reranker(model, samples, RerankerTrainConfig(epochs=2), 41)
        assert len(checked_descend) == 2 * len({s.input.input_id for s in samples})


class TestPreparationOutsideSteps:
    """Both trainers build texts, features and ranks once, before the first
    step, so that work does not grow with the number of epochs."""

    COUNTED = [(reranker, "demo_text"), (reranker, "pair_text"),
               (reranker, "text_features"), (reranker, "encoding_cache"),
               (retriever, "demo_text"), (retriever, "pair_text"),
               (retriever, "text_features"), (retriever.ScoredCandidateSet, "order")]

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        for owner, name in self.COUNTED:
            def counted(*args, _real=getattr(owner, name), _key=f"{owner.__name__}.{name}"):
                counts[_key] += 1
                return _real(*args)
            monkeypatch.setattr(owner, name, counted)
        return counts

    @staticmethod
    def counts_at(counts, train, epochs: int) -> dict:
        counts.clear()
        train(epochs)
        return dict(counts)

    def test_retriever(self, toy_chain, counts):
        sets = [score_candidates(toy_chain["backend"], toy_chain["template"], inp, demos)
                for inp, demos in zip(toy_chain["inputs"], toy_chain["retrieved"])]
        model = BiEncoder.init(toy_chain["config"], 23)

        def train(epochs):
            train_retriever(model, sets, retriever.RetrieverTrainConfig(epochs=epochs), 7)

        once = self.counts_at(counts, train, 1)
        assert once["ScoredCandidateSet.order"] == len(sets)
        assert self.counts_at(counts, train, 3) == once

    def test_reranker(self, toy_chain, counts):
        model = CrossEncoder.init(toy_chain["config"], 37)

        def train(epochs):
            train_reranker(model, toy_chain["samples"], RerankerTrainConfig(epochs=epochs), 41)

        once = self.counts_at(counts, train, 1)
        assert once["demorank.reranker.demo_text"] > 0
        assert "demorank.reranker.encoding_cache" not in once
        assert self.counts_at(counts, train, 3) == once


class TestDeskScaleReranker:
    def test_training_loss_decreases(self, desk_state):
        assert (list_pairwise_loss(desk_state.reranker, desk_state.samples)
                < list_pairwise_loss(desk_state.reranker_untrained, desk_state.samples))

    def test_held_out_pairwise_accuracy_improves(self, desk_state):
        # Regression pin measured on the seeded default run: accuracy on
        # held-out dependency samples rises from 0.499 to 0.546.
        before = desk_state.pairwise_accuracy(desk_state.reranker_untrained,
                                              desk_state.held_samples)
        after = desk_state.pairwise_accuracy(desk_state.reranker,
                                             desk_state.held_samples)
        assert after - before >= 0.02


class TestSampleIO:
    def build_corpus(self):
        rng = np.random.default_rng(42)
        synth = generate_synthetic_dataset(SynthParams(
            topics=4, vocab=50, train_queries=6, test_queries=2,
            passages_per_query=6, tokens_per_text=6), 7)
        pool = build_pool(synth.train, 13)
        inputs, _ = build_training_inputs(synth.train, 17)
        backend = MockScorer()
        template = PromptTemplate()
        index = build_pool_index(pool)
        retrieved = [mine_candidates(pool, index, inp, 3, 19 + i)
                     for i, inp in enumerate(inputs)]
        samples = construct_samples_for_corpus(inputs, retrieved, backend,
                                               template, 2, 31)
        del rng
        return pool, inputs, samples

    def test_round_trip(self, tmp_path):
        pool, inputs, samples = self.build_corpus()
        path = tmp_path / "samples.jsonl"
        write_samples(path, samples)
        loaded = load_samples(path, inputs, pool)
        assert len(loaded) == len(samples)
        for orig, back in zip(samples, loaded):
            assert back.input.input_id == orig.input.input_id
            assert back.shot == orig.shot
            assert tuple(d.ref for d in back.prefix) == tuple(d.ref for d in orig.prefix)
            assert back.candidates == back.ranked() == orig.ranked()

    def test_unknown_input_rejected(self, tmp_path):
        pool, inputs, samples = self.build_corpus()
        path = tmp_path / "samples.jsonl"
        write_samples(path, samples)
        with pytest.raises(ValueError, match="unknown input"):
            load_samples(path, inputs[:1], pool)

    def test_unknown_demo_rejected(self, tmp_path):
        import json

        pool, inputs, samples = self.build_corpus()
        path = tmp_path / "samples.jsonl"
        write_samples(path, samples)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[0])
        obj["continuations"][0]["last"] = ["ghost", "ghost", "Yes"]
        lines[0] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="unknown demo"):
            load_samples(path, inputs, pool)

    def test_shot_mismatch_rejected(self, tmp_path):
        import json

        pool, inputs, samples = self.build_corpus()
        path = tmp_path / "samples.jsonl"
        write_samples(path, samples)
        lines = path.read_text().splitlines()
        obj = json.loads(lines[0])
        obj["shot"] = obj["shot"] + 1
        lines[0] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="shot mismatch"):
            load_samples(path, inputs, pool)
