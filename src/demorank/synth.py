"""Seeded synthetic retrieval data with topic structure.

Each query belongs to a topic; its relevant passages share that topic and the
rest are drawn from other topics.  Texts mix topic-specific words with a shared
common vocabulary, so lexical overlap correlates with relevance without being
degenerate.  Topic assignments double as a ground-truth relevance oracle for
the mock scorer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import Dataset, Passage, Query, RelJudgment

TOPIC_WORD_RATE = 0.7  # chance a sampled token is topic-specific vs common


@dataclass(frozen=True)
class SynthParams:
    topics: int = 20
    vocab: int = 500
    train_queries: int = 200
    test_queries: int = 50
    passages_per_query: int = 20
    tokens_per_text: int = 16

    def __post_init__(self) -> None:
        for name in ("topics", "vocab", "train_queries", "test_queries",
                     "passages_per_query", "tokens_per_text"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.topics < 2:
            raise ValueError("need at least 2 topics to have irrelevant passages")
        if self.passages_per_query < 2:
            raise ValueError("need at least 2 passages per query")
        n_common = self.vocab // 5
        if self.vocab - n_common < self.topics:
            raise ValueError("vocab too small for the requested topic count")


@dataclass
class SyntheticDataset:
    train: Dataset
    test: Dataset
    query_topics: dict[str, int]
    passage_topics: dict[str, int]

    def relevance_fn(self):
        """Oracle mapping (query_text, passage_text) to ground truth (None if unknown)."""
        return relevance_fn_from_files(self.query_topics, self.passage_topics,
                                       [self.train, self.test])


def _make_vocab(params: SynthParams) -> tuple[list[str], list[list[str]]]:
    words = [f"w{i:03d}" for i in range(params.vocab)]
    n_common = params.vocab // 5
    common = words[:n_common]
    rest = words[n_common:]
    chunk = len(rest) // params.topics
    topic_words = [rest[t * chunk:(t + 1) * chunk] for t in range(params.topics)]
    return common, topic_words


def _sample_text(rng: np.random.Generator, common: list[str],
                 topical: list[str], n_tokens: int) -> str:
    toks = []
    for _ in range(n_tokens):
        if rng.random() < TOPIC_WORD_RATE:
            toks.append(topical[int(rng.integers(len(topical)))])
        else:
            toks.append(common[int(rng.integers(len(common)))])
    return " ".join(toks)


def _gen_split(params: SynthParams, rng: np.random.Generator, split: str,
               n_queries: int, query_topics: dict[str, int],
               passage_topics: dict[str, int],
               common: list[str], topic_words: list[list[str]]) -> Dataset:
    queries, passages, judgments = [], [], []
    max_rel = max(1, params.passages_per_query // 5)
    for i in range(n_queries):
        qid = f"{split}-q{i:04d}"
        topic = int(rng.integers(params.topics))
        query_topics[qid] = topic
        queries.append(Query(qid, _sample_text(rng, common, topic_words[topic],
                                               params.tokens_per_text)))
        n_rel = 1 + int(rng.integers(max_rel))
        n_rel = min(n_rel, params.passages_per_query - 1)
        rel_positions = set(
            int(j) for j in rng.choice(params.passages_per_query, size=n_rel, replace=False)
        )
        for j in range(params.passages_per_query):
            pid = f"{qid}-p{j:02d}"
            if j in rel_positions:
                p_topic = topic
                grade = 1
            else:
                # any other topic, uniformly
                offset = 1 + int(rng.integers(params.topics - 1))
                p_topic = (topic + offset) % params.topics
                grade = 0
            passage_topics[pid] = p_topic
            passages.append(Passage(pid, _sample_text(rng, common, topic_words[p_topic],
                                                      params.tokens_per_text)))
            judgments.append(RelJudgment(qid, pid, grade))
    return Dataset(queries, passages, judgments, split)


def generate_synthetic_dataset(params: SynthParams, rng_seed: int) -> SyntheticDataset:
    rng = np.random.default_rng(rng_seed)
    common, topic_words = _make_vocab(params)
    query_topics: dict[str, int] = {}
    passage_topics: dict[str, int] = {}
    train = _gen_split(params, rng, "train", params.train_queries,
                       query_topics, passage_topics, common, topic_words)
    test = _gen_split(params, rng, "test", params.test_queries,
                      query_topics, passage_topics, common, topic_words)
    return SyntheticDataset(train, test, query_topics, passage_topics)


def write_topics(path: str | Path, synth: SyntheticDataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"query_topics": synth.query_topics,
                   "passage_topics": synth.passage_topics}, fh, sort_keys=True)


def load_topics(path: str | Path) -> tuple[dict[str, int], dict[str, int]]:
    """The query and passage topic maps; ValueError unless each is a JSON
    object whose values are JSON ints."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    maps = obj["query_topics"], obj["passage_topics"]
    if not all(type(m) is dict and all(type(t) is int for t in m.values()) for m in maps):
        raise ValueError("topic maps must be JSON objects of JSON ints")
    return maps


def relevance_fn_from_files(query_topics: dict[str, int], passage_topics: dict[str, int],
                            datasets: list[Dataset]):
    """Rebuild the oracle from a topics sidecar plus the materialized datasets."""
    q_by_text: dict[str, int] = {}
    p_by_text: dict[str, int] = {}
    for ds in datasets:
        for q in ds.queries:
            if q.id in query_topics:
                q_by_text[q.text] = query_topics[q.id]
        for p in ds.passages:
            if p.id in passage_topics:
                p_by_text[p.text] = passage_topics[p.id]

    def fn(query_text: str, passage_text: str):
        qt = q_by_text.get(query_text)
        pt = p_by_text.get(passage_text)
        if qt is None or pt is None:
            return None
        return qt == pt

    return fn
