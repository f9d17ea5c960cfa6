"""Tests for the hashed bi-encoder retriever and its training losses."""

import logging
import math

import numpy as np
import pytest

from demorank.data import Demonstration, Label, Passage, Query, TrainingInput, pair_text
from demorank.retriever import (
    BiEncoder,
    DenseIndex,
    EncoderConfig,
    NonFiniteLossError,
    RetrieverTrainConfig,
    ScoredCandidate,
    ScoredCandidateSet,
    contrastive_loss_and_grad,
    contrastive_set_loss_and_grad,
    demo_text,
    descend,
    encode,
    encode_feats,
    encoding_cache,
    feats_rows,
    fnv1a64,
    load_scored_sets,
    ranknet_loss_and_grad,
    ranknet_set_loss_and_grad,
    retrieve_topD,
    retriever_corpus_loss,
    score_candidates,
    scatter_feats,
    set_loss_and_grad,
    sgd_rows,
    similarity,
    snap_f32,
    text_features,
    train_retriever,
    write_scored_sets,
)
from demorank.scoring import MockScorer, PromptTemplate

WORDS = [
    "ocean", "tide", "coral", "reef", "lava", "magma", "crater", "basalt",
    "fern", "moss", "lichen", "spore", "quartz", "slate", "flint", "ore",
]


def random_text(rng, lo=2, hi=6) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.integers(lo, hi + 1)))


def make_demo(qid: str, qtext: str, pid: str, ptext: str, label=Label.YES) -> Demonstration:
    return Demonstration(Query(qid, qtext), Passage(pid, ptext), label)


def make_input(qtext: str, ptext: str, label=Label.YES) -> TrainingInput:
    return TrainingInput(Query("q0", qtext), Passage("p0", ptext), label)


def make_candidate_set(rng, n_candidates: int) -> ScoredCandidateSet:
    inp = make_input(random_text(rng), random_text(rng))
    cands = []
    for i in range(n_candidates):
        label = Label.YES if rng.random() < 0.5 else Label.NO
        demo = make_demo(f"dq{i}", random_text(rng), f"dp{i}", random_text(rng), label)
        cands.append(ScoredCandidate(demo, float(rng.random())))
    return ScoredCandidateSet(inp, cands)


class TestFnv1a64:
    def test_known_vectors(self):
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C
        assert fnv1a64("foobar") == 0x85944171F73967E8

    def test_stays_in_64_bits(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            text = random_text(rng)
            assert 0 <= fnv1a64(text) < 1 << 64

    def test_deterministic(self):
        assert fnv1a64("quartz") == fnv1a64("quartz")
        assert fnv1a64("quartz") != fnv1a64("slate")


class TestTextFeatures:
    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            ids, weights = text_features(random_text(rng), 64)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert list(ids) == sorted(ids)

    def test_repeated_token_weights(self):
        # "a" and "b" hash to buckets 4 and 5 when there are 8 buckets
        ids, weights = text_features("a a b", 8)
        assert list(ids) == [4, 5]
        assert weights[0] == pytest.approx(2 / 3)
        assert weights[1] == pytest.approx(1 / 3)

    def test_case_folding(self):
        ids_a, w_a = text_features("Reef CORAL reef", 64)
        ids_b, w_b = text_features("reef coral reef", 64)
        assert list(ids_a) == list(ids_b)
        np.testing.assert_array_equal(w_a, w_b)

    def test_empty_text(self):
        ids, weights = text_features("", 64)
        assert len(ids) == 0 and len(weights) == 0

    @pytest.mark.parametrize("text", ["reef coral reef", ""])
    def test_repeat_call_shares_read_only_arrays(self, text):
        ids, weights = text_features(text, 64)
        again = text_features(text, 64)
        assert again[0] is ids and again[1] is weights
        assert not ids.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            weights[:] = 0.0


class TestEncode:
    def test_single_token_is_table_row(self):
        model = BiEncoder.init(EncoderConfig(vocab_buckets=8, dim=4), 42)
        bucket = fnv1a64("ocean") % 8
        np.testing.assert_array_equal(encode(model, "ocean"), model.embeddings[bucket])

    def test_repeated_tokens_weighted_mean(self):
        model = BiEncoder.init(EncoderConfig(vocab_buckets=8, dim=4), 42)
        expected = (2 / 3) * model.embeddings[4] + (1 / 3) * model.embeddings[5]
        np.testing.assert_allclose(encode(model, "a a b"), expected, atol=1e-15)

    def test_empty_text_encodes_to_zeros(self):
        model = BiEncoder.init(EncoderConfig(vocab_buckets=8, dim=4), 42)
        np.testing.assert_array_equal(encode(model, "!!!"), np.zeros(4))

    def test_encode_feats_empty(self):
        table = np.ones((8, 4))
        out = encode_feats(table, (np.empty(0, dtype=np.intp), np.empty(0)))
        np.testing.assert_array_equal(out, np.zeros(4))


class TestSparseKernels:
    def test_scatter_matches_add_at_bit_for_bit(self):
        rng = np.random.default_rng(42)
        grad = np.zeros((64, 8))
        ref = np.zeros((64, 8))
        for _ in range(50):
            feats = text_features(random_text(rng), 64)
            row = rng.normal(size=8)
            scatter_feats(grad, feats, row)
            np.add.at(ref, feats[0], feats[1][:, None] * row[None, :])
        assert grad.tobytes() == ref.tobytes()

    def test_row_sparse_step_matches_full_table_step(self):
        rng = np.random.default_rng(42)
        table = snap_f32(rng.uniform(-1.0, 1.0, size=(64, 8)))
        feats = [text_features(random_text(rng), 64) for _ in range(5)]
        grad = np.zeros_like(table)
        for f in feats:
            scatter_feats(grad, f, rng.normal(size=8))
        rows = feats_rows(feats)
        np.testing.assert_array_equal(rows, np.unique(np.concatenate([f[0] for f in feats])))
        assert len(rows) < len(table)
        sparse = table.copy()
        sgd_rows(sparse, grad, rows, 0.05)
        assert sparse.tobytes() == snap_f32(table - 0.05 * grad).tobytes()

    def test_caches_compute_each_text_once(self):
        table = BiEncoder.init(EncoderConfig(vocab_buckets=64, dim=8), 42).embeddings
        enc = encoding_cache(table)
        first = enc("reef coral reef")
        assert enc("reef coral reef") is first
        np.testing.assert_array_equal(
            first, encode_feats(table, text_features("reef coral reef", 64)))
        np.testing.assert_array_equal(enc("!!!"), np.zeros(8))


class TestSimilarity:
    def test_matches_encode_dot_product(self):
        rng = np.random.default_rng(42)
        model = BiEncoder.init(EncoderConfig(vocab_buckets=64, dim=8), 42)
        for _ in range(20):
            inp = make_input(random_text(rng), random_text(rng))
            demo = make_demo("dq", random_text(rng), "dp", random_text(rng))
            u = encode(model, pair_text(inp))
            v = encode(model, demo_text(demo))
            assert similarity(model, inp, demo) == pytest.approx(float(u @ v), abs=1e-15)

    def test_label_is_part_of_demo_text(self):
        model = BiEncoder.init(EncoderConfig(vocab_buckets=4096, dim=8), 42)
        inp = make_input("coral reef", "tide pool")
        yes = make_demo("dq", "lava flow", "dp", "magma vent", Label.YES)
        no = make_demo("dq", "lava flow", "dp", "magma vent", Label.NO)
        assert demo_text(yes) != demo_text(no)
        assert similarity(model, inp, yes) != similarity(model, inp, no)


class TestSnapF32:
    def test_idempotent(self):
        rng = np.random.default_rng(42)
        arr = rng.normal(size=(16, 4))
        once = snap_f32(arr)
        np.testing.assert_array_equal(snap_f32(once), once)

    def test_matches_float32_cast(self):
        arr = np.array([1 / 3, math.pi, 1e-20])
        np.testing.assert_array_equal(snap_f32(arr), arr.astype(np.float32).astype(np.float64))
        assert snap_f32(arr).dtype == np.float64


class TestContrastiveLoss:
    def test_equal_scores_give_log_n(self):
        for n in (2, 5, 50):
            loss = contrastive_loss_and_grad(np.full(n, 0.7), 0)[0]
            assert loss == pytest.approx(math.log(n), abs=1e-9)

    def test_hand_computed_two_candidates(self):
        scores = np.array([2.0, 0.0])
        assert contrastive_loss_and_grad(scores, 0)[0] == pytest.approx(
            math.log(1 + math.exp(-2)), abs=1e-12)
        assert contrastive_loss_and_grad(scores, 1)[0] == pytest.approx(
            math.log(1 + math.exp(2)), abs=1e-12)

    def test_large_scores_stable(self):
        loss = contrastive_loss_and_grad(np.array([1000.0, 0.0]), 0)[0]
        assert math.isfinite(loss)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_grad_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            scores = rng.normal(size=rng.integers(2, 8))
            pos = int(rng.integers(len(scores)))
            e = np.exp(scores - scores.max())
            expected = e / e.sum()
            expected[pos] -= 1.0
            np.testing.assert_allclose(contrastive_loss_and_grad(scores, pos)[1], expected,
                                       atol=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(10):
            scores = rng.normal(size=5)
            grad = contrastive_loss_and_grad(scores, 2)[1]
            for i in range(5):
                up, down = scores.copy(), scores.copy()
                up[i] += h
                down[i] -= h
                fd = (contrastive_loss_and_grad(up, 2)[0]
                      - contrastive_loss_and_grad(down, 2)[0]) / (2 * h)
                assert grad[i] == pytest.approx(fd, abs=1e-7)


class TestRanknetLoss:
    def test_equal_scores_give_pair_count_times_log2(self):
        for n in (2, 4, 7):
            ranks = list(range(1, n + 1))
            loss = ranknet_loss_and_grad(np.full(n, 0.3), ranks)[0]
            assert loss == pytest.approx(math.comb(n, 2) * math.log(2), abs=1e-9)

    def test_hand_computed_pair(self):
        scores = np.array([2.0, 0.0])
        assert ranknet_loss_and_grad(scores, [1, 2])[0] == pytest.approx(
            math.log(1 + math.exp(-2)), abs=1e-12)
        assert ranknet_loss_and_grad(scores, [2, 1])[0] == pytest.approx(
            math.log(1 + math.exp(2)), abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            scores = rng.normal(size=n)
            ranks = list(rng.permutation(n) + 1)
            base = ranknet_loss_and_grad(scores, ranks)[0]
            shifted = ranknet_loss_and_grad(scores + 17.5, ranks)[0]
            assert shifted == pytest.approx(base, abs=1e-9)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(10):
            n = int(rng.integers(2, 7))
            scores = rng.normal(size=n)
            ranks = list(rng.permutation(n) + 1)
            grad = ranknet_loss_and_grad(scores, ranks)[1]
            for i in range(n):
                up, down = scores.copy(), scores.copy()
                up[i] += h
                down[i] -= h
                fd = (ranknet_loss_and_grad(up, ranks)[0]
                      - ranknet_loss_and_grad(down, ranks)[0]) / (2 * h)
                assert grad[i] == pytest.approx(fd, abs=1e-6)

    def test_grad_sums_to_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            grad = ranknet_loss_and_grad(rng.normal(size=n), list(rng.permutation(n) + 1))[1]
            assert grad.sum() == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_permutation_ranks(self):
        with pytest.raises(ValueError, match="permutation"):
            ranknet_loss_and_grad(np.array([1.0, 2.0]), [1, 1])
        with pytest.raises(ValueError, match="permutation"):
            ranknet_loss_and_grad(np.array([1.0, 2.0]), [0, 1])


class TestCombinedLoss:
    def test_weighted_sum(self):
        # The training objective is lam * contrastive + ranknet, loss and gradient.
        rng = np.random.default_rng(42)
        table = BiEncoder.init(EncoderConfig(vocab_buckets=16, dim=4), 42).embeddings
        cand_set = make_candidate_set(rng, 5)
        feats = text_features(pair_text(cand_set.input), 16)
        demo_feats = [text_features(demo_text(c.demo), 16) for c in cand_set.candidates]
        pos, ranks = cand_set.order()[0], cand_set.ranks()
        c_loss, c_grad = contrastive_set_loss_and_grad(table, feats, demo_feats, pos)
        r_loss, r_grad = ranknet_set_loss_and_grad(table, feats, demo_feats, ranks)
        for lam in (0.2, 0.0):
            loss, grad = set_loss_and_grad(table, feats, demo_feats, pos, ranks, lam)
            assert loss == pytest.approx(lam * c_loss + r_loss, abs=1e-12)
            np.testing.assert_allclose(grad, lam * c_grad + r_grad, atol=1e-12)


class TestScoredCandidateSet:
    def test_ranks_break_ties_by_ordinal(self):
        rng = np.random.default_rng(42)
        cands = make_candidate_set(rng, 3).candidates
        cand_set = ScoredCandidateSet(make_input("a", "b"), [
            ScoredCandidate(c.demo, s) for c, s in zip(cands, [0.5, 0.9, 0.5])])
        assert cand_set.ranks() == [2, 1, 3]
        assert cand_set.order()[0] == 1
        assert cand_set.ranked() == [cand_set.candidates[i] for i in (1, 0, 2)]

    def test_shot_is_prefix_length_plus_one(self):
        rng = np.random.default_rng(42)
        cand_set = make_candidate_set(rng, 3)
        assert cand_set.shot == 1
        prefix = tuple(make_demo(f"pq{i}", "a", f"pp{i}", "b") for i in range(2))
        assert ScoredCandidateSet(cand_set.input, cand_set.candidates, prefix).shot == 3

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="empty candidate set"):
            ScoredCandidateSet(make_input("a", "b"), [])

    def test_repeated_candidate_demo_rejected(self):
        rng = np.random.default_rng(42)
        first = make_candidate_set(rng, 2).candidates[0]
        with pytest.raises(ValueError, match="repeated candidate demo"):
            ScoredCandidateSet(make_input("a", "b"),
                               [first, ScoredCandidate(first.demo, first.llm_score - 0.1)])

    def test_demo_named_twice_across_prefix_and_candidates_rejected(self):
        rng = np.random.default_rng(42)
        cands = make_candidate_set(rng, 3).candidates
        for prefix in ((cands[2].demo, cands[2].demo), (cands[0].demo,)):
            with pytest.raises(ValueError, match="repeated candidate demo"):
                ScoredCandidateSet(make_input("a", "b"), cands[:2], prefix)

    def test_score_candidates_keeps_a_snapshot_of_the_prefix(self):
        rng = np.random.default_rng(42)
        demos = [c.demo for c in make_candidate_set(rng, 3).candidates]
        prefix = demos[:1]
        scored = score_candidates(MockScorer(), PromptTemplate(), make_input("a", "b"),
                                  demos[1:], prefix)
        prefix.append(demos[1])
        assert scored.prefix == (demos[0],)
        assert scored.shot == 2


def relative_error(analytic: float, fd: float) -> float:
    return abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)


class TestSetLossAndGrad:
    def setup_method(self):
        self.config = EncoderConfig(vocab_buckets=16, dim=4)

    def test_loss_matches_components(self):
        rng = np.random.default_rng(42)
        model = BiEncoder.init(self.config, 42)
        for _ in range(10):
            cand_set = make_candidate_set(rng, int(rng.integers(2, 7)))
            inp = cand_set.input
            u = encode(model, pair_text(inp))
            scores = np.array([float(u @ encode(model, demo_text(c.demo)))
                               for c in cand_set.candidates])
            expected = (0.2 * contrastive_loss_and_grad(scores, cand_set.order()[0])[0]
                        + ranknet_loss_and_grad(scores, cand_set.ranks())[0])
            feats = text_features(pair_text(inp), 16)
            demo_feats = [text_features(demo_text(c.demo), 16) for c in cand_set.candidates]
            loss, _ = set_loss_and_grad(model.embeddings, feats, demo_feats,
                                        cand_set.order()[0], cand_set.ranks(), 0.2)
            assert loss == pytest.approx(expected, abs=1e-9)

    def test_combined_grad_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(8):
            model = BiEncoder.init(self.config, int(rng.integers(1000)))
            cand_set = make_candidate_set(rng, int(rng.integers(2, 7)))
            feats = text_features(pair_text(cand_set.input), 16)
            demo_feats = [text_features(demo_text(c.demo), 16) for c in cand_set.candidates]
            pos, ranks = cand_set.order()[0], cand_set.ranks()
            _, grad = set_loss_and_grad(model.embeddings, feats, demo_feats, pos, ranks, 0.2)
            table = model.embeddings.copy()
            for r in range(16):
                for c in range(4):
                    orig = table[r, c]
                    table[r, c] = orig + h
                    up, _ = set_loss_and_grad(table, feats, demo_feats, pos, ranks, 0.2)
                    table[r, c] = orig - h
                    down, _ = set_loss_and_grad(table, feats, demo_feats, pos, ranks, 0.2)
                    table[r, c] = orig
                    assert relative_error(grad[r, c], (up - down) / (2 * h)) < 1e-4

    def test_contrastive_only_grad_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(5):
            model = BiEncoder.init(self.config, int(rng.integers(1000)))
            cand_set = make_candidate_set(rng, int(rng.integers(2, 7)))
            feats = text_features(pair_text(cand_set.input), 16)
            demo_feats = [text_features(demo_text(c.demo), 16) for c in cand_set.candidates]
            pos = cand_set.order()[0]
            _, grad = contrastive_set_loss_and_grad(model.embeddings, feats, demo_feats, pos)
            table = model.embeddings.copy()
            for r in range(16):
                for c in range(4):
                    orig = table[r, c]
                    table[r, c] = orig + h
                    up, _ = contrastive_set_loss_and_grad(table, feats, demo_feats, pos)
                    table[r, c] = orig - h
                    down, _ = contrastive_set_loss_and_grad(table, feats, demo_feats, pos)
                    table[r, c] = orig
                    assert relative_error(grad[r, c], (up - down) / (2 * h)) < 1e-4

    def test_ranknet_only_grad_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(5):
            model = BiEncoder.init(self.config, int(rng.integers(1000)))
            cand_set = make_candidate_set(rng, int(rng.integers(2, 7)))
            feats = text_features(pair_text(cand_set.input), 16)
            demo_feats = [text_features(demo_text(c.demo), 16) for c in cand_set.candidates]
            ranks = cand_set.ranks()
            _, grad = ranknet_set_loss_and_grad(model.embeddings, feats, demo_feats, ranks)
            table = model.embeddings.copy()
            for r in range(16):
                for c in range(4):
                    orig = table[r, c]
                    table[r, c] = orig + h
                    up, _ = ranknet_set_loss_and_grad(table, feats, demo_feats, ranks)
                    table[r, c] = orig - h
                    down, _ = ranknet_set_loss_and_grad(table, feats, demo_feats, ranks)
                    table[r, c] = orig
                    assert relative_error(grad[r, c], (up - down) / (2 * h)) < 1e-4


class TestTrainRetriever:
    def make_sets(self, rng, n_sets=6):
        return [make_candidate_set(rng, int(rng.integers(3, 7))) for _ in range(n_sets)]

    def test_deterministic_and_leaves_input_untouched(self):
        rng = np.random.default_rng(42)
        sets = self.make_sets(rng)
        model = BiEncoder.init(EncoderConfig(vocab_buckets=64, dim=8), 42)
        before = model.embeddings.copy()
        trained_a = train_retriever(model, sets, RetrieverTrainConfig(), 7)
        trained_b = train_retriever(model, sets, RetrieverTrainConfig(), 7)
        np.testing.assert_array_equal(trained_a.embeddings, trained_b.embeddings)
        np.testing.assert_array_equal(model.embeddings, before)
        assert not np.array_equal(trained_a.embeddings, before)

    def test_seed_changes_result(self):
        rng = np.random.default_rng(42)
        sets = self.make_sets(rng)
        model = BiEncoder.init(EncoderConfig(vocab_buckets=64, dim=8), 42)
        a = train_retriever(model, sets, RetrieverTrainConfig(), 7)
        b = train_retriever(model, sets, RetrieverTrainConfig(), 8)
        assert not np.array_equal(a.embeddings, b.embeddings)

    def test_corpus_loss_decreases(self):
        rng = np.random.default_rng(42)
        sets = self.make_sets(rng, n_sets=10)
        model = BiEncoder.init(EncoderConfig(vocab_buckets=64, dim=8), 42)
        cfg = RetrieverTrainConfig()
        trained = train_retriever(model, sets, cfg, 7)
        assert (retriever_corpus_loss(trained, sets, cfg.lam)
                < retriever_corpus_loss(model, sets, cfg.lam))

    def test_parameters_stay_float32_representable(self):
        rng = np.random.default_rng(42)
        sets = self.make_sets(rng)
        model = BiEncoder.init(EncoderConfig(vocab_buckets=64, dim=8), 42)
        trained = train_retriever(model, sets, RetrieverTrainConfig(), 7)
        np.testing.assert_array_equal(trained.embeddings, snap_f32(trained.embeddings))
        # also from a table off the grid, including rows no step touches
        off_grid = BiEncoder(model.embeddings + 1e-10)
        trained = train_retriever(off_grid, sets, RetrieverTrainConfig(), 7)
        np.testing.assert_array_equal(trained.embeddings, snap_f32(trained.embeddings))

    def test_featurizes_each_distinct_text_once(self):
        rng = np.random.default_rng(42)
        sets = self.make_sets(rng)
        texts = {pair_text(s.input) for s in sets}
        texts |= {demo_text(c.demo) for s in sets for c in s.candidates}
        model = BiEncoder.init(EncoderConfig(vocab_buckets=64, dim=8), 42)
        text_features.cache_clear()
        train_retriever(model, sets, RetrieverTrainConfig(), 7)
        assert text_features.cache_info().misses == len(texts)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow on the way
    def test_non_finite_loss_names_the_trainer(self):
        rng = np.random.default_rng(42)
        sets = self.make_sets(rng)
        model = BiEncoder.init(EncoderConfig(vocab_buckets=64, dim=8), 42)
        with pytest.raises(NonFiniteLossError,
                           match="non-finite retriever loss at epoch 0 on q0::p0::Yes") as exc:
            train_retriever(model, sets, RetrieverTrainConfig(learning_rate=1e30), 7)
        assert exc.value.model == "retriever"

    def test_rejects_empty_training_set(self):
        model = BiEncoder.init(EncoderConfig(vocab_buckets=64, dim=8), 42)
        with pytest.raises(ValueError, match="no training sets"):
            train_retriever(model, [])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RetrieverTrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            RetrieverTrainConfig(epochs=0)
        with pytest.raises(ValueError):
            RetrieverTrainConfig(lam=-0.1)


class TestDescend:
    KEYS = ["a", "b", "c", "d", "e"]

    def run(self, step, rows=None, epochs=3):
        model = BiEncoder.init(EncoderConfig(vocab_buckets=16, dim=4), 42)
        rows = rows if rows is not None else [np.array([i]) for i in range(len(self.KEYS))]
        return model, descend(model, self.KEYS, rows, step, 0.1, epochs, 7, "test")

    def test_each_epoch_visits_every_step_in_seeded_permutation_order(self, caplog):
        visited = []

        def step(trained, i):
            visited.append(i)
            return float(i), {"embeddings": np.zeros_like(trained.embeddings)}

        with caplog.at_level(logging.INFO, logger="demorank.retriever"):
            self.run(step)
        rng = np.random.default_rng(7)
        assert visited == [i for _ in range(3) for i in rng.permutation(5).tolist()]
        assert [r.getMessage() for r in caplog.records] == [
            f"test epoch {e} mean loss 2.000000" for e in range(3)]

    def test_rows_outside_the_step_keep_their_bits(self):
        rows = [np.array([1, 3]), np.array([5]), np.array([1]), np.array([8]), np.array([3])]

        def step(trained, i):
            return 0.0, {"embeddings": np.ones_like(trained.embeddings)}

        model, trained = self.run(step, rows)
        touched = [1, 3, 5, 8]
        others = np.setdiff1d(np.arange(16), touched)
        np.testing.assert_array_equal(trained.embeddings[others].view(np.uint64),
                                      model.embeddings[others].view(np.uint64))
        assert not np.any(trained.embeddings[touched] == model.embeddings[touched])
        fresh = BiEncoder.init(EncoderConfig(vocab_buckets=16, dim=4), 42)
        np.testing.assert_array_equal(model.embeddings, fresh.embeddings)  # input untouched

    def test_non_finite_loss_names_the_step_key(self):
        def step(trained, i):
            return math.inf if i == 2 else 0.0, {"embeddings": np.zeros_like(trained.embeddings)}

        with pytest.raises(NonFiniteLossError,
                           match="non-finite test loss at epoch 0 on c: inf") as exc:
            self.run(step)
        assert exc.value.model == "test"


class TestDeskScaleTraining:
    def test_mean_positive_rank_improves(self, desk_state):
        # Regression pin measured on the seeded default run: the mean rank of
        # the best-placed of the tied best candidates improves from 13.62 to
        # 9.75 on the training sets.
        before = desk_state.mean_positive_rank(desk_state.retriever_untrained,
                                               desk_state.train_sets)
        after = desk_state.mean_positive_rank(desk_state.retriever_split,
                                              desk_state.train_sets)
        assert before - after >= 2.0

    def test_corpus_loss_improves(self, desk_state):
        lam = RetrieverTrainConfig().lam
        assert (retriever_corpus_loss(desk_state.retriever_split, desk_state.train_sets, lam)
                < retriever_corpus_loss(desk_state.retriever_untrained,
                                        desk_state.train_sets, lam))


def make_pool(rng, n_demos: int):
    demos = []
    for i in range(n_demos):
        label = Label.YES if i % 2 == 0 else Label.NO
        demos.append(make_demo(f"q{i // 2}", random_text(rng), f"p{i}",
                               random_text(rng), label))
    demos.sort(key=lambda d: d.ref)
    return demos


class TestRetrieveTopD:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            pool = make_pool(rng, int(rng.integers(4, 12)))
            model = BiEncoder.init(EncoderConfig(vocab_buckets=32, dim=4), trial)
            index = DenseIndex.build(model, pool)
            inp = make_input(random_text(rng), random_text(rng))
            d = int(rng.integers(1, len(pool) + 1))
            got = retrieve_topD(index, inp, d)
            sims = [similarity(model, inp, demo) for demo in pool]
            order = sorted(range(len(pool)), key=lambda i: (-sims[i], i))
            assert [demo.ref for demo in got] == [pool[i].ref for i in order[:d]]

    def test_tie_scores_keep_pool_order(self):
        rng = np.random.default_rng(42)
        pool = make_pool(rng, 6)
        model = BiEncoder.init(EncoderConfig(vocab_buckets=32, dim=4), 42)
        model.embeddings = np.zeros_like(model.embeddings)
        index = DenseIndex.build(model, pool)
        got = retrieve_topD(index, make_input("a", "b"), 6)
        assert [demo.ref for demo in got] == [demo.ref for demo in pool]

    def test_oversized_request_returns_all_with_warning(self, caplog):
        rng = np.random.default_rng(42)
        pool = make_pool(rng, 4)
        model = BiEncoder.init(EncoderConfig(vocab_buckets=32, dim=4), 42)
        index = DenseIndex.build(model, pool)
        with caplog.at_level(logging.WARNING, logger="demorank.retriever"):
            got = retrieve_topD(index, make_input("a", "b"), 10)
        assert len(got) == 4
        assert any("returning all" in rec.message for rec in caplog.records)

    def test_nonpositive_d_rejected(self):
        rng = np.random.default_rng(42)
        pool = make_pool(rng, 4)
        model = BiEncoder.init(EncoderConfig(vocab_buckets=32, dim=4), 42)
        index = DenseIndex.build(model, pool)
        with pytest.raises(ValueError, match="positive"):
            retrieve_topD(index, make_input("a", "b"), 0)

    def test_empty_pool_rejected(self):
        model = BiEncoder.init(EncoderConfig(vocab_buckets=32, dim=4), 42)
        with pytest.raises(ValueError, match="empty pool"):
            DenseIndex.build(model, [])

    def test_positive_rescaling_preserves_order(self):
        rng = np.random.default_rng(42)
        pool = make_pool(rng, 8)
        model = BiEncoder.init(EncoderConfig(vocab_buckets=32, dim=4), 42)
        scaled = BiEncoder(model.embeddings * 3.0)
        inp = make_input(random_text(rng), random_text(rng))
        base = retrieve_topD(DenseIndex.build(model, pool), inp, 8)
        resc = retrieve_topD(DenseIndex.build(scaled, pool), inp, 8)
        assert [d.ref for d in base] == [d.ref for d in resc]


class TestScoredSetIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        pool = make_pool(rng, 8)
        inputs = [TrainingInput(Query(f"q{i}", random_text(rng)),
                                Passage(f"p{i}", random_text(rng)), Label.YES)
                  for i in range(3)]
        sets = []
        for inp in inputs:
            cands = [ScoredCandidate(demo, float(rng.random()))
                     for demo in list(pool)[:4]]
            sets.append(ScoredCandidateSet(inp, cands))
        path = tmp_path / "scored.jsonl"
        write_scored_sets(path, sets)
        loaded = load_scored_sets(path, inputs, pool)
        assert len(loaded) == len(sets)
        for orig, back in zip(sets, loaded):
            assert back.input.input_id == orig.input.input_id
            assert [c.demo.ref for c in back.candidates] == [c.demo.ref for c in orig.candidates]
            assert [c.llm_score for c in back.candidates] == [c.llm_score for c in orig.candidates]

    def test_unknown_input_rejected(self, tmp_path):
        rng = np.random.default_rng(42)
        pool = make_pool(rng, 4)
        inp = TrainingInput(Query("q0", "a"), Passage("p0", "b"), Label.YES)
        sets = [ScoredCandidateSet(inp, [ScoredCandidate(pool[0], 0.5)])]
        path = tmp_path / "scored.jsonl"
        write_scored_sets(path, sets)
        with pytest.raises(ValueError, match="unknown input"):
            load_scored_sets(path, [], pool)

    def test_unknown_demo_rejected(self, tmp_path):
        rng = np.random.default_rng(42)
        pool = make_pool(rng, 4)
        inp = TrainingInput(Query("q0", "a"), Passage("p0", "b"), Label.YES)
        stranger = make_demo("zq", "zzz", "zp", "yyy")
        sets = [ScoredCandidateSet(inp, [ScoredCandidate(stranger, 0.5)])]
        path = tmp_path / "scored.jsonl"
        write_scored_sets(path, sets)
        with pytest.raises(ValueError, match="unknown demo"):
            load_scored_sets(path, [inp], pool)

    def test_blank_lines_skipped(self, tmp_path):
        rng = np.random.default_rng(42)
        pool = make_pool(rng, 4)
        inp = TrainingInput(Query("q0", "a"), Passage("p0", "b"), Label.YES)
        sets = [ScoredCandidateSet(inp, [ScoredCandidate(pool[0], 0.25)])]
        path = tmp_path / "scored.jsonl"
        write_scored_sets(path, sets)
        path.write_text(path.read_text() + "\n\n")
        assert len(load_scored_sets(path, [inp], pool)) == 1
