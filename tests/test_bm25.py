"""Tests for the BM25 index, search, and candidate mining."""

import math
import random

import pytest

from demorank.bm25 import (
    Bm25Params,
    EmptyIndexError,
    PoolTooSmallError,
    bm25_search,
    build_index,
    build_pool_index,
    mine_candidates,
    tokenize,
)
from demorank.data import (
    Dataset,
    Label,
    Passage,
    Query,
    RelJudgment,
    TrainingInput,
    build_pool,
    pair_text,
)
from demorank.pipeline import RankInput

WORDS = ["ocean", "tide", "coral", "reef", "lava", "magma", "crater",
         "basalt", "fern", "moss", "lichen", "spore", "quartz", "slate",
         "flint", "ore"]


def random_text(rng, lo=2, hi=6):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def brute_force_bm25(texts, params, query_text):
    """Independent BM25 oracle: per-document loop over unique query terms."""
    docs = [tokenize(t) for t in texts]
    n = len(docs)
    avgdl = sum(len(d) for d in docs) / n if n else 1.0
    avgdl = avgdl or 1.0
    out = []
    for ordinal, doc in enumerate(docs):
        score = 0.0
        matched = False
        for term in set(tokenize(query_text)):
            tf = doc.count(term)
            df = sum(1 for d in docs if term in d)
            if tf == 0 or df == 0:
                continue
            matched = True
            idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
            norm = params.k1 * (1.0 - params.b + params.b * len(doc) / avgdl)
            score += idf * tf * (params.k1 + 1.0) / (tf + norm)
        if matched:
            out.append((ordinal, score))
    out.sort(key=lambda kv: (-kv[1], kv[0]))
    return out


class TestTokenize:
    def test_lowercases_and_splits_on_punctuation(self):
        assert tokenize("The QUICK, brown-fox!") == ("the", "quick", "brown", "fox")

    def test_digits_kept_underscore_split(self):
        assert tokenize("v2 foo_bar") == ("v2", "foo", "bar")

    def test_empty_text(self):
        assert tokenize("") == ()
        assert tokenize("!!! ---") == ()


class TestParams:
    def test_defaults(self):
        params = Bm25Params()
        assert params.k1 == pytest.approx(0.9)
        assert params.b == pytest.approx(0.4)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Bm25Params(k1=-0.1)
        with pytest.raises(ValueError):
            Bm25Params(b=1.5)


class TestIndex:
    def test_postings_and_lengths(self):
        index = build_index(["a b a", "b c"])
        assert index.doc_count == 2
        assert index.doc_lengths == [3, 2]
        assert index.avg_doc_length == pytest.approx(2.5)
        assert index.postings["a"] == [(0, 2)]
        assert index.postings["b"] == [(0, 1), (1, 1)]
        assert index.postings["c"] == [(1, 1)]

    def test_empty_index_search_raises(self):
        with pytest.raises(EmptyIndexError):
            bm25_search(build_index([]), Bm25Params(), "a", top=5)


class TestSearch:
    def test_hand_computed_score(self):
        # One-term query, 3 docs, term in doc 0 only, all lengths equal:
        # idf = ln(1 + (3 - 1 + 0.5) / 1.5), tf term = (k1 + 1) / (1 + k1).
        params = Bm25Params(k1=0.9, b=0.4)
        index = build_index(["apple pear", "plum pear", "grape pear"])
        hits = bm25_search(index, params, "apple", top=3)
        idf = math.log(1.0 + 2.5 / 1.5)
        expected = idf * 1.0 * (params.k1 + 1.0) / (1.0 + params.k1)
        assert hits == [(0, pytest.approx(expected))]

    def test_duplicate_query_terms_count_once(self):
        index = build_index(["apple pear", "plum pear"])
        once = bm25_search(index, Bm25Params(), "apple", top=2)
        twice = bm25_search(index, Bm25Params(), "apple apple", top=2)
        assert once == twice

    def test_nonmatching_documents_excluded(self):
        index = build_index(["apple", "plum", "grape"])
        hits = bm25_search(index, Bm25Params(), "apple", top=3)
        assert [o for o, _ in hits] == [0]

    def test_ties_break_by_ascending_ordinal(self):
        index = build_index(["apple pear", "apple pear", "apple pear"])
        hits = bm25_search(index, Bm25Params(), "apple", top=3)
        assert [o for o, _ in hits] == [0, 1, 2]
        assert hits[0][1] == pytest.approx(hits[2][1])

    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(42)
        for trial in range(40):
            texts = [random_text(rng) for _ in range(rng.randint(2, 15))]
            params = Bm25Params(k1=rng.uniform(0.2, 2.0), b=rng.uniform(0.0, 1.0))
            query = random_text(rng, 1, 4)
            index = build_index(texts)
            got = bm25_search(index, params, query, top=len(texts))
            want = brute_force_bm25(texts, params, query)
            assert [o for o, _ in got] == [o for o, _ in want]
            for (_, gs), (_, ws) in zip(got, want):
                assert gs == pytest.approx(ws, abs=1e-9)

    def test_top_truncates(self):
        index = build_index(["apple a", "apple b", "apple c"])
        hits = bm25_search(index, Bm25Params(), "apple", top=2)
        assert len(hits) == 2


def make_pool(n_queries=8, rng_seed=0):
    """Balanced pool with 2 Yes and 2 No demonstrations per query."""
    rng = random.Random(rng_seed)
    queries = [Query(f"q{i}", random_text(rng)) for i in range(n_queries)]
    passages, judgments = [], []
    for i in range(n_queries):
        for j in range(4):
            pid = f"p{i}-{j}"
            passages.append(Passage(pid, random_text(rng)))
            judgments.append(RelJudgment(f"q{i}", pid, 1 if j < 2 else 0))
    ds = Dataset(queries, passages, judgments, split="train")
    return build_pool(ds, rng_seed=rng_seed)


class TestMineCandidates:
    def test_exactly_2b_distinct_candidates(self):
        pool = make_pool()
        index = build_pool_index(pool)
        rng = random.Random(7)
        for trial in range(10):
            inp = TrainingInput(Query("qx", random_text(rng)),
                                Passage("px", random_text(rng)), Label.YES)
            b = rng.randint(1, len(pool) // 2)
            cands = mine_candidates(pool, index, inp, b=b, rng_seed=trial)
            assert len(cands) == 2 * b
            refs = [d.ref for d in cands]
            assert len(set(refs)) == 2 * b

    def test_bm25_half_leads_and_matches_search(self):
        pool = make_pool()
        index = build_pool_index(pool)
        inp = TrainingInput(Query("qx", pool[0].query.text),
                            Passage("px", pool[0].passage.text), Label.YES)
        b = 3
        key = f"{inp.query.text} {inp.passage.text}"
        hits = bm25_search(index, Bm25Params(), key, top=b)
        cands = mine_candidates(pool, index, inp, b=b, rng_seed=0)
        assert [d.ref for d in cands[:len(hits)]] == [
            pool[o].ref for o, _ in hits]

    def test_deterministic_for_seed(self):
        pool = make_pool()
        index = build_pool_index(pool)
        inp = TrainingInput(Query("qx", "coral reef"),
                            Passage("px", "lava tide"), Label.NO)
        a = mine_candidates(pool, index, inp, b=4, rng_seed=11)
        b = mine_candidates(pool, index, inp, b=4, rng_seed=11)
        assert [d.ref for d in a] == [d.ref for d in b]
        c = mine_candidates(pool, index, inp, b=4, rng_seed=12)
        assert [d.ref for d in a[4:]] != [d.ref for d in c[4:]]

    def test_no_lexical_overlap_still_yields_2b(self):
        pool = make_pool()
        index = build_pool_index(pool)
        inp = TrainingInput(Query("qx", "zzz yyy"), Passage("px", "xxx www"),
                            Label.YES)
        cands = mine_candidates(pool, index, inp, b=5, rng_seed=0)
        assert len(cands) == 10

    def test_pool_too_small_raises(self):
        pool = make_pool(n_queries=2)  # 8 demos
        index = build_pool_index(pool)
        inp = TrainingInput(Query("qx", "coral"), Passage("px", "reef"),
                            Label.YES)
        with pytest.raises(PoolTooSmallError):
            mine_candidates(pool, index, inp, b=5, rng_seed=0)

    def test_nonpositive_b_rejected(self):
        pool = make_pool()
        index = build_pool_index(pool)
        inp = TrainingInput(Query("qx", "coral"), Passage("px", "reef"),
                            Label.YES)
        with pytest.raises(ValueError):
            mine_candidates(pool, index, inp, b=0, rng_seed=0)


class TestPoolIndexing:
    def test_pair_text_concatenates_query_and_passage(self):
        demo = make_pool()[0]
        assert pair_text(demo) == f"{demo.query.text} {demo.passage.text}"
        assert pair_text(RankInput(demo.query, demo.passage)) == pair_text(demo)

    def test_pool_index_covers_every_demo(self):
        pool = make_pool()
        index = build_pool_index(pool)
        assert index.doc_count == len(pool)
