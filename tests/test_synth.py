"""Tests for the synthetic topic-model corpus generator."""

import json

import pytest

from demorank.synth import (
    SynthParams,
    generate_synthetic_dataset,
    load_topics,
    relevance_fn_from_files,
    write_topics,
)


SMALL = SynthParams(topics=5, vocab=60, train_queries=10, test_queries=4,
                    passages_per_query=6, tokens_per_text=8)


class TestGeneration:
    def test_split_sizes(self):
        synth = generate_synthetic_dataset(SMALL, rng_seed=42)
        assert len(synth.train.queries) == SMALL.train_queries
        assert len(synth.test.queries) == SMALL.test_queries
        assert len(synth.train.passages) == (
            SMALL.train_queries * SMALL.passages_per_query)
        assert len(synth.test.passages) == (
            SMALL.test_queries * SMALL.passages_per_query)
        assert synth.train.split == "train"
        assert synth.test.split == "test"

    def test_default_sizes(self):
        params = SynthParams()
        assert params.train_queries == 200
        assert params.test_queries == 50
        assert params.passages_per_query == 20
        assert params.topics == 20
        assert params.vocab == 500
        assert params.tokens_per_text == 16

    def test_every_query_has_both_judgment_kinds(self):
        synth = generate_synthetic_dataset(SMALL, rng_seed=42)
        for ds in (synth.train, synth.test):
            judged = ds.judgments_by_query()
            for q in ds.queries:
                grades = list(judged[q.id].values())
                assert any(g > 0 for g in grades)
                assert any(g == 0 for g in grades)

    def test_every_text_has_requested_token_count(self):
        synth = generate_synthetic_dataset(SMALL, rng_seed=42)
        for ds in (synth.train, synth.test):
            for q in ds.queries:
                assert len(q.text.split()) == SMALL.tokens_per_text
            for p in ds.passages:
                assert len(p.text.split()) == SMALL.tokens_per_text

    def test_topic_maps_cover_everything(self):
        synth = generate_synthetic_dataset(SMALL, rng_seed=42)
        qids = {q.id for ds in (synth.train, synth.test) for q in ds.queries}
        pids = {p.id for ds in (synth.train, synth.test) for p in ds.passages}
        assert set(synth.query_topics) == qids
        assert set(synth.passage_topics) == pids
        topics = set(synth.query_topics.values()) | set(synth.passage_topics.values())
        assert topics <= set(range(SMALL.topics))

    def test_relevant_passages_share_the_query_topic(self):
        synth = generate_synthetic_dataset(SMALL, rng_seed=42)
        for ds in (synth.train, synth.test):
            for j in ds.judgments:
                same = (synth.query_topics[j.query_id]
                        == synth.passage_topics[j.passage_id])
                assert (j.grade > 0) == same

    def test_deterministic_for_seed(self):
        a = generate_synthetic_dataset(SMALL, rng_seed=42)
        b = generate_synthetic_dataset(SMALL, rng_seed=42)
        assert a.train.queries == b.train.queries
        assert a.train.passages == b.train.passages
        assert a.train.judgments == b.train.judgments
        assert a.query_topics == b.query_topics

    def test_seed_changes_output(self):
        a = generate_synthetic_dataset(SMALL, rng_seed=42)
        b = generate_synthetic_dataset(SMALL, rng_seed=43)
        assert a.train.queries != b.train.queries


class TestParamValidation:
    @pytest.mark.parametrize("field", ["topics", "vocab", "train_queries",
                                       "test_queries", "passages_per_query",
                                       "tokens_per_text"])
    def test_nonpositive_rejected(self, field):
        kwargs = dict(topics=5, vocab=60, train_queries=10, test_queries=4,
                      passages_per_query=6, tokens_per_text=8)
        kwargs[field] = 0
        with pytest.raises(ValueError):
            generate_synthetic_dataset(SynthParams(**kwargs), rng_seed=0)

    @pytest.mark.parametrize("field, error", [
        ("topics", "need at least 2 topics"),
        ("passages_per_query", "need at least 2 passages per query"),
    ])
    def test_one_topic_or_passage_per_query_rejected(self, field, error):
        kwargs = dict(topics=5, vocab=60, train_queries=10, test_queries=4,
                      passages_per_query=6, tokens_per_text=8)
        kwargs[field] = 1
        with pytest.raises(ValueError, match=error):
            SynthParams(**kwargs)

    def test_vocab_smaller_than_topics_rejected(self):
        with pytest.raises(ValueError):
            SynthParams(topics=5, vocab=4, train_queries=10, test_queries=4,
                        passages_per_query=6, tokens_per_text=8)


class TestTopicsFile:
    def test_round_trip(self, tmp_path):
        synth = generate_synthetic_dataset(SMALL, rng_seed=42)
        write_topics(tmp_path / "topics.json", synth)
        q_topics, p_topics = load_topics(tmp_path / "topics.json")
        assert q_topics == synth.query_topics
        assert p_topics == synth.passage_topics


    @pytest.mark.parametrize("topics", [
        {"query_topics": {"q1": "1"}, "passage_topics": {"p1": 1}},
        {"query_topics": {"q1": 1}, "passage_topics": {"p1": 1.0}},
        {"query_topics": {"q1": 1}, "passage_topics": {"p1": True}},
        {"query_topics": [1], "passage_topics": {"p1": 1}},
        {"query_topics": {"q1": 1}, "passage_topics": None},
    ], ids=["string-id", "float-id", "bool-id", "list", "null"])
    def test_maps_other_than_json_ints_refused(self, tmp_path, topics):
        path = tmp_path / "topics.json"
        path.write_text(json.dumps(topics), encoding="utf-8")
        with pytest.raises(ValueError, match="JSON objects of JSON ints"):
            load_topics(path)


class TestRelevanceFn:
    def test_matches_topic_assignment(self):
        synth = generate_synthetic_dataset(SMALL, rng_seed=42)
        fn = relevance_fn_from_files(synth.query_topics, synth.passage_topics,
                                     [synth.train, synth.test])
        for ds in (synth.train, synth.test):
            for q in ds.queries[:3]:
                for p in ds.passages[:5]:
                    expected = (synth.query_topics[q.id]
                                == synth.passage_topics[p.id])
                    assert fn(q.text, p.text) is expected

    def test_unknown_text_yields_none(self):
        synth = generate_synthetic_dataset(SMALL, rng_seed=42)
        fn = relevance_fn_from_files(synth.query_topics, synth.passage_topics,
                                     [synth.train, synth.test])
        known_passage = synth.train.passages[0].text
        assert fn("never generated text", known_passage) is None
        assert fn(synth.train.queries[0].text, "never generated text") is None
