"""Shared fixtures: the toy and desk-scale pipeline states behind the pins.

toy_chain is a small seeded chain shared by the training tests.  desk_state
rebuilds the default synthetic experiment once per session (seeds fixed, mock
scorer with the ground-truth relevance oracle) and exposes every intermediate
the pinned regression tests need.  The acceptance criteria summary collected
by record_criterion is printed after the test summary so each criterion shows
one pass/fail line per run.
"""

import random
import time
from dataclasses import dataclass

import pytest

from demorank.bm25 import build_pool_index, mine_candidates
from demorank.data import Label, TrainingInput, build_pool, build_training_inputs
from demorank.reranker import (
    CrossEncoder,
    RerankerTrainConfig,
    construct_samples_for_corpus,
    cross_score_batch,
    train_reranker,
)
from demorank.retriever import (
    BiEncoder,
    DenseIndex,
    EncoderConfig,
    RetrieverTrainConfig,
    ScoredCandidate,
    ScoredCandidateSet,
    encode,
    demo_text,
    input_text,
    retrieve_topD,
    train_retriever,
)
from demorank.scoring import CachedScorer, MockScorer, PromptTemplate, score_list
from demorank.synth import SynthParams, generate_synthetic_dataset


@dataclass
class DeskState:
    synth: object
    pool: object
    inputs: list
    backend: object
    template: object
    sets: list
    train_sets: list
    held_sets: list
    retriever_untrained: object
    retriever_split: object  # trained on train_sets only
    retriever_all: object  # trained on every set; feeds the reranker chain
    dense_index: object
    samples: list
    reranker_untrained: object
    reranker: object
    held_samples: list
    build_seconds: float

    @staticmethod
    def mean_positive_rank(model, eval_sets) -> float:
        """Mean rank of each set's best candidate under the model's similarity.

        Every candidate whose LLM score is within 1e-12 of the set's top score
        counts as best, and the set contributes the rank of the best-placed of
        them, as reciprocal rank counts the first of several relevant items.
        Similarity ties are ordered by candidate ordinal.  Under the mock
        scorer a gold-No input's candidates that share no word with it all get
        the same top score, so picking one of them by ordinal would rank an
        arbitrary member of the tie.
        """
        total = 0.0
        for cand_set in eval_sets:
            top = max(c.llm_score for c in cand_set.candidates)
            best = {i for i, c in enumerate(cand_set.candidates)
                    if c.llm_score >= top - 1e-12}
            inp = cand_set.input
            u = encode(model, input_text(inp.query.text, inp.passage.text))
            sims = [float(u @ encode(model, demo_text(c.demo)))
                    for c in cand_set.candidates]
            order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))
            total += next(r for r, i in enumerate(order, 1) if i in best)
        return total / len(eval_sets)

    @staticmethod
    def pairwise_accuracy(model, samples) -> float:
        """Fraction of continuation pairs the model orders like the LLM."""
        good = 0
        total = 0
        for sample in samples:
            scores = cross_score_batch(model, sample.input, list(sample.prefix),
                                       [c.demos[-1] for c in sample.continuations])
            llm = [c.llm_score for c in sample.continuations]
            n = len(scores)
            for i in range(n):
                for j in range(i + 1, n):
                    if llm[i] > llm[j] + 1e-12:
                        good += scores[i] > scores[j]
                        total += 1
        return good / total


@pytest.fixture(scope="module")
def toy_chain():
    """Small end-to-end chain shared by the training tests: synthetic data,
    a pool, an untrained retriever, and dependency samples built from it."""
    synth = generate_synthetic_dataset(SynthParams(
        topics=5, vocab=60, train_queries=10, test_queries=4,
        passages_per_query=6, tokens_per_text=8), 7)
    pool = build_pool(synth.train, 13)
    inputs, _ = build_training_inputs(synth.train, 17)
    backend = CachedScorer(MockScorer(relevance_fn=synth.relevance_fn()))
    template = PromptTemplate()
    config = EncoderConfig(vocab_buckets=256, dim=16)
    retriever = BiEncoder.init(config, 23)
    index = DenseIndex.build(retriever, pool)
    retrieved = [retrieve_topD(index, retriever, inp, 8) for inp in inputs]
    samples = construct_samples_for_corpus(inputs, retrieved, backend, template, 2, 31)
    return {
        "config": config, "pool": pool, "inputs": inputs, "backend": backend,
        "template": template, "retrieved": retrieved, "samples": samples,
    }


@pytest.fixture(scope="session")
def desk_state() -> DeskState:
    start = time.monotonic()
    synth = generate_synthetic_dataset(SynthParams(), 11)
    pool = build_pool(synth.train, 13)
    inputs, _ = build_training_inputs(synth.train, 17)
    backend = CachedScorer(MockScorer(relevance_fn=synth.relevance_fn()))
    template = PromptTemplate()
    index = build_pool_index(pool)
    sets = []
    for ordinal, inp in enumerate(inputs):
        cands = mine_candidates(pool, index, inp, 25, 19 + ordinal)
        sets.append(ScoredCandidateSet(inp, [
            ScoredCandidate(d, score_list(backend, template, [d], inp))
            for d in cands
        ]))
    split = int(len(sets) * 0.8)
    train_sets, held_sets = sets[:split], sets[split:]

    retr0 = BiEncoder.init(EncoderConfig(), 23)
    retr_split = train_retriever(retr0, train_sets, RetrieverTrainConfig(seed=29))
    retr_all = train_retriever(retr0, sets, RetrieverTrainConfig(seed=29))
    dense_index = DenseIndex.build(retr_all, pool)

    retrieved = [retrieve_topD(dense_index, retr_all, inp, 50) for inp in inputs]
    samples = construct_samples_for_corpus(inputs, retrieved, backend, template, 3, 31)
    rr0 = CrossEncoder.init(EncoderConfig(), 64, 37)
    reranker = train_reranker(rr0, samples, RerankerTrainConfig(seed=41))

    # Held-out inputs come from the test split: one Yes and one No per query.
    rng = random.Random(47)
    judged_by_q = synth.test.judgments_by_query()
    passages_by_id = synth.test.passages_by_id()
    held_inputs = []
    for q in sorted(synth.test.queries, key=lambda q: q.id):
        judged = judged_by_q.get(q.id, {})
        rel = sorted(p for p, g in judged.items() if g > 0)
        irr = sorted(p for p, g in judged.items() if g == 0)
        if rel and irr:
            held_inputs.append(TrainingInput(q, passages_by_id[rng.choice(rel)],
                                             Label.YES))
            held_inputs.append(TrainingInput(q, passages_by_id[rng.choice(irr)],
                                             Label.NO))
    held_retrieved = [retrieve_topD(dense_index, retr_all, inp, 50)
                      for inp in held_inputs]
    held_samples = construct_samples_for_corpus(held_inputs, held_retrieved,
                                                backend, template, 3, 530000)

    return DeskState(
        synth=synth, pool=pool, inputs=inputs, backend=backend,
        template=template, sets=sets, train_sets=train_sets,
        held_sets=held_sets, retriever_untrained=retr0,
        retriever_split=retr_split, retriever_all=retr_all,
        dense_index=dense_index, samples=samples, reranker_untrained=rr0,
        reranker=reranker, held_samples=held_samples,
        build_seconds=time.monotonic() - start,
    )


_criterion_lines: list[str] = []


@pytest.fixture
def record_criterion():
    """Returns a callable the acceptance tests use to log one summary line."""

    def _record(line: str) -> None:
        _criterion_lines.append(line)
        print(line)

    return _record


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
