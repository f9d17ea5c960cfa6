"""Shared fixtures: the toy and desk-scale pipeline states behind the pins.

toy_chain is a small seeded chain shared by the training tests.  desk_state
runs the default-config CLI chain (`build-pool` through `train-reranker`,
mock scorer with the ground-truth relevance oracle) in-process once per
session, reads back what it wrote, and adds only what the program does not
make: an 80/20 split of the scored sets with a retriever trained on the 80%,
the untrained models, and held-out inputs and samples.  The acceptance
criteria summary collected by record_criterion is printed after the test
summary so each criterion shows one pass/fail line per run.
"""

import random
import time
from dataclasses import dataclass

import pytest

from demorank import cli
from demorank.config import ExperimentConfig
from demorank.data import Label, TrainingInput, build_pool, build_training_inputs, pair_text
from demorank.reranker import (
    CrossEncoder,
    construct_samples_for_corpus,
    cross_score_batch,
    load_samples,
)
from demorank.retriever import (
    BiEncoder,
    DenseIndex,
    EncoderConfig,
    encode,
    demo_text,
    load_scored_sets,
    retrieve_topD,
    train_retriever,
)
from demorank.scoring import CachedScorer, MockScorer, PromptTemplate
from demorank.synth import SynthParams, generate_synthetic_dataset

# The CLI commands whose outputs desk_state reads, in run order.
DESK_CHAIN = ("build-pool", "mine-candidates", "score-candidates",
              "train-retriever", "build-samples", "train-reranker")


@dataclass
class DeskState:
    test: object
    pool: object
    inputs: list
    backend: object
    template: object
    sets: list
    train_sets: list
    held_sets: list
    retriever_untrained: object
    retriever_split: object  # trained on train_sets only
    retriever_all: object  # the CLI's retriever.ckpt, trained on every set
    samples: list
    reranker_untrained: object
    reranker: object  # the CLI's reranker.ckpt
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
            u = encode(model, pair_text(inp))
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
                                       [c.demo for c in sample.ranked()])
            llm = [c.llm_score for c in sample.ranked()]
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
    config = EncoderConfig(vocab_buckets=256, dim=16, hidden=8)
    retriever = BiEncoder.init(config, 23)
    index = DenseIndex.build(retriever, pool)
    retrieved = [retrieve_topD(index, inp, 8) for inp in inputs]
    samples = construct_samples_for_corpus(inputs, retrieved, backend, template, 2, 31)
    return {
        "config": config, "pool": pool, "inputs": inputs, "backend": backend,
        "template": template, "retrieved": retrieved, "samples": samples,
    }


@pytest.fixture(scope="session")
def desk_state(tmp_path_factory) -> DeskState:
    start = time.monotonic()
    cfg = ExperimentConfig()
    workdir = tmp_path_factory.mktemp("desk")
    for command in DESK_CHAIN:
        assert cli.main(["--workdir", str(workdir), command]) == 0, command
    s = cli.Workspace(workdir, cfg, workdir)
    pool, inputs = s.pool, s.training_inputs
    sets = load_scored_sets(s.path("scored.jsonl"), inputs, pool)
    split = int(len(sets) * 0.8)
    train_sets, held_sets = sets[:split], sets[split:]

    retr0 = BiEncoder.init(cfg.encoder, cfg.seeds.retriever_init)
    retr_split = train_retriever(retr0, train_sets, cfg.retriever, cfg.seeds.retriever_train)
    retr_all = s.model("retriever")
    rr0 = CrossEncoder.init(cfg.encoder, cfg.seeds.reranker_init)

    # Held-out inputs come from the test split: one Yes and one No per query.
    rng = random.Random(47)
    judged_by_q = s.test.judgments_by_query()
    passages_by_id = s.test.passages_by_id()
    held_inputs = []
    for q in sorted(s.test.queries, key=lambda q: q.id):
        judged = judged_by_q.get(q.id, {})
        rel = sorted(p for p, g in judged.items() if g > 0)
        irr = sorted(p for p, g in judged.items() if g == 0)
        if rel and irr:
            held_inputs.append(TrainingInput(q, passages_by_id[rng.choice(rel)],
                                             Label.YES))
            held_inputs.append(TrainingInput(q, passages_by_id[rng.choice(irr)],
                                             Label.NO))
    index = DenseIndex.build(retr_all, pool)
    held_retrieved = [retrieve_topD(index, inp, cfg.reranker.retrieve_m)
                      for inp in held_inputs]
    held_samples = construct_samples_for_corpus(held_inputs, held_retrieved, s.backend,
                                                cfg.template, cfg.reranker.iterations,
                                                530000)

    return DeskState(
        test=s.test, pool=pool, inputs=inputs, backend=s.backend,
        template=cfg.template, sets=sets, train_sets=train_sets,
        held_sets=held_sets, retriever_untrained=retr0,
        retriever_split=retr_split, retriever_all=retr_all,
        samples=load_samples(s.path("samples.jsonl"), inputs, pool),
        reranker_untrained=rr0, reranker=s.model("reranker"),
        held_samples=held_samples, build_seconds=time.monotonic() - start,
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
