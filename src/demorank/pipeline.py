"""End-to-end ranking: demo selection policies, passage scoring, NDCG@k.

A policy picks a demonstration list per test input (query-passage pair), the
scorer turns p(Yes) into a ranking score, and runs are written in the standard
six-column format "query_id Q0 passage_id rank score tag".
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import asdict, dataclass
from functools import cache
from math import log2
from typing import Callable

import numpy as np

from .bm25 import Bm25Params, bm25_search, build_index, build_pool_index
from .data import (CorpusError, Dataset, Demonstration, Passage, Query, TrainingInput,
                   read_lines)
from .reranker import CrossEncoder, cross_score_batch
from .retriever import BiEncoder, DenseIndex, encoding_cache, retrieve_topD
from .scoring import PromptTemplate, ScoreRequest, ScorerBackend, score_list

# Each policy, with the trained models (PolicyContext fields) it reads.
MODELS_BY_POLICY = {"zero-shot": (), "random": (), "bm25-demos": (),
                    "retriever-topk": ("retriever",), "demorank": ("retriever", "reranker")}
POLICIES = tuple(MODELS_BY_POLICY)


@dataclass(frozen=True)
class RankInput:
    """A test query-passage pair; what demo selection conditions on."""

    query: Query
    passage: Passage


@dataclass(frozen=True)
class RunEntry:
    query_id: str
    passage_id: str
    rank: int
    score: float
    tag: str


# ---------------------------------------------------------------------------
# Greedy demonstration selection


def greedy_select_from(candidates: list[Demonstration], k: int,
                       batch_score_fn) -> list[Demonstration]:
    """Pick k demos one at a time, each maximizing the list score so far.

    `batch_score_fn(prefix, remaining)` returns one score per remaining
    candidate for prefix + [candidate].  Ties keep the earliest candidate,
    i.e. the better retrieval rank.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    selected: list[Demonstration] = []
    remaining = list(candidates)
    for _ in range(min(k, len(candidates))):
        scores = np.asarray(batch_score_fn(selected, remaining))
        best = int(np.argmax(scores))  # argmax keeps the first of equals
        selected.append(remaining.pop(best))
    return selected


def greedy_select(input, index: DenseIndex, reranker: CrossEncoder, D: int, k: int,
                  encodings: Callable[[str], np.ndarray]) -> list[Demonstration]:
    """Retrieve top-D with the index's bi-encoder, then greedily pick k by
    reranker score.

    `encodings` is an `encoding_cache(reranker.embeddings)`: each text is
    encoded once per memo, however many rounds and calls score it.
    """
    if k > D:
        raise ValueError(f"k={k} must not exceed D={D}")
    return greedy_select_from(
        retrieve_topD(index, input, D), k,
        lambda prefix, rem: cross_score_batch(reranker, input, prefix, rem, encodings))


def brute_force_best_list(input: TrainingInput, candidates: list[Demonstration],
                          k: int, backend: ScorerBackend, template: PromptTemplate,
                          max_sequences: int = 100_000):
    """Exhaustive search over ordered k-subsets of candidates.

    Returns the best (demos, llm_score) pair, ties by lexicographic candidate
    ordinals, plus every scored sequence for analysis.
    """
    n = len(candidates)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}")
    count = 1
    for i in range(k):
        count *= n - i
    if count > max_sequences:
        raise ValueError(f"{count} sequences exceeds the {max_sequences} guard")
    scored = []
    for ordinals in itertools.permutations(range(n), k):
        demos = [candidates[i] for i in ordinals]
        scored.append((ordinals, score_list(backend, template, demos, input)))
    best_ordinals, best_score = min(scored, key=lambda t: (-t[1], t[0]))
    best_demos = tuple(candidates[i] for i in best_ordinals)
    return (best_demos, best_score), scored


# ---------------------------------------------------------------------------
# Passage ranking and NDCG


def rank_passages(query: Query, passages: list[Passage], demos,
                  backend: ScorerBackend, template: PromptTemplate,
                  tag: str = "run") -> list[RunEntry]:
    """Order passages by p(Yes) given one demo list shared by all of them."""
    return rank_passages_per_input(query, passages, [demos] * len(passages),
                                   backend, template, tag)


def rank_passages_per_input(query: Query, passages: list[Passage], demos_per_passage,
                            backend: ScorerBackend, template: PromptTemplate,
                            tag: str = "run") -> list[RunEntry]:
    """Order passages by p(Yes) descending, each scored with its own demo list;
    ties keep the initial order."""
    requests = [ScoreRequest(template, tuple(demos), query.text, p.text)
                for p, demos in zip(passages, demos_per_passage)]
    scores = [d.p_yes for d in backend.distributions(requests)]
    order = sorted(range(len(passages)), key=lambda i: (-scores[i], i))
    return [
        RunEntry(query.id, passages[i].id, pos + 1, scores[i], tag)
        for pos, i in enumerate(order)
    ]


def _dcg(grades, k: int) -> float:
    return sum((2.0 ** g - 1.0) / log2(i + 2) for i, g in enumerate(grades[:k]))


def ndcg_at_k(run: list[RunEntry], qrels: dict[str, dict[str, int]],
              k: int = 10) -> float:
    """NDCG@k for one query's run entries.

    Unjudged retrieved passages count as grade 0; the ideal ranking uses all
    judged passages.  A query whose judgments are all zero scores 0.
    """
    if not run:
        raise ValueError("empty run")
    qids = {e.query_id for e in run}
    if len(qids) != 1:
        raise ValueError(f"run mixes queries: {sorted(qids)}")
    qid = run[0].query_id
    judged = qrels.get(qid)
    if not judged:
        raise ValueError(f"no judgments for query {qid!r}")
    by_rank = sorted(run, key=lambda e: e.rank)
    got = _dcg([judged.get(e.passage_id, 0) for e in by_rank], k)
    ideal = _dcg(sorted(judged.values(), reverse=True), k)
    if ideal == 0.0:
        return 0.0
    return got / ideal


def evaluate_run(entries: list[RunEntry], qrels: dict[str, dict[str, int]],
                 k: int = 10) -> tuple[dict[str, float], float, list[str]]:
    """Per-query NDCG@k, their mean, and queries excluded for missing qrels."""
    by_query: dict[str, list[RunEntry]] = {}
    for e in entries:
        by_query.setdefault(e.query_id, []).append(e)
    per_query: dict[str, float] = {}
    excluded = []
    for qid in sorted(by_query):
        if not qrels.get(qid):
            excluded.append(qid)
            continue
        per_query[qid] = ndcg_at_k(by_query[qid], qrels, k)
    mean = sum(per_query.values()) / len(per_query) if per_query else 0.0
    return per_query, mean, excluded


# ---------------------------------------------------------------------------
# Run files


def write_run(path, entries: list[RunEntry]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in entries:
            fh.write(f"{e.query_id} Q0 {e.passage_id} {e.rank} {e.score!r} {e.tag}\n")


def load_run(path) -> list[RunEntry]:
    out = []
    for lineno, line in read_lines(path):
        parts = line.split()
        if not parts:
            continue
        try:
            if len(parts) != 6 or parts[1] != "Q0":
                raise ValueError("want 'query_id Q0 passage_id rank score tag'")
            out.append(RunEntry(parts[0], parts[2], int(parts[3]),
                                float(parts[4]), parts[5]))
        except ValueError as exc:
            raise CorpusError(f"{path}:{lineno}: bad run line: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# Policies


@dataclass(frozen=True)
class SelectionParams:
    """Demos per input, the top-D they come from, and one list per query or per passage."""

    shots: int = 3
    retrieve_d: int = 30
    per_query: bool = False

    def __post_init__(self) -> None:
        if self.shots < 0 or self.retrieve_d < 1:
            raise ValueError("bad selection sizes")
        if self.shots > self.retrieve_d:
            raise ValueError("shots must not exceed retrieve_d")


@dataclass
class PolicyContext:
    pool: list[Demonstration]
    backend: ScorerBackend
    template: PromptTemplate
    bm25_params: Bm25Params = Bm25Params()
    selection: SelectionParams = SelectionParams()
    retriever: BiEncoder | None = None
    reranker: CrossEncoder | None = None


@dataclass
class EvalReport:
    policy: str
    shots: int
    mean_ndcg: float
    per_query: dict[str, float]
    excluded_queries: list[str]
    config_digest: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        return cls(**json.loads(text))


def initial_rankings(dataset: Dataset, params: Bm25Params) -> dict[str, list[Passage]]:
    """Judged passages per query, BM25-ordered on the query text.

    This fixes the initial order that ranking starts from.  Passages sharing
    no term with the query follow the matched ones, in passage-id order.
    """
    passages = dataset.passages_by_id()
    judged_by_q = dataset.judgments_by_query()
    out: dict[str, list[Passage]] = {}
    for q in dataset.queries:
        judged = sorted(judged_by_q.get(q.id, {}))
        if not judged:
            out[q.id] = []
            continue
        texts = [passages[pid].text for pid in judged]
        index = build_index(texts)
        hits = bm25_search(index, params, q.text, top=len(judged))
        hit_ordinals = [i for i, _ in hits]
        hit_set = set(hit_ordinals)
        rest = [i for i in range(len(judged)) if i not in hit_set]
        out[q.id] = [passages[judged[i]] for i in hit_ordinals + rest]
    return out


def _selector(policy: str, ctx: PolicyContext
              ) -> Callable[[RankInput, random.Random], list[Demonstration]]:
    """The policy's demo selection function, one call per test input.

    Make a fresh one per `run_policy` call: it builds the pool indexes it
    searches and may memoize per call.
    """
    for name in MODELS_BY_POLICY[policy]:
        if getattr(ctx, name) is None:
            raise ValueError(f"policy needs {name}")
    shots, d = ctx.selection.shots, ctx.selection.retrieve_d
    if policy == "zero-shot":
        return lambda input, rng: []
    if policy == "random":
        k = min(shots, len(ctx.pool))
        return lambda input, rng: [ctx.pool[i] for i in rng.sample(range(len(ctx.pool)), k)]
    if policy == "bm25-demos":
        index = build_pool_index(ctx.pool)

        @cache  # the search reads only the query
        def by_query(text: str) -> list[Demonstration]:
            return [ctx.pool[i] for i, _ in bm25_search(index, ctx.bm25_params, text, top=shots)]
        return lambda input, rng: by_query(input.query.text)
    dense = DenseIndex.build(ctx.retriever, ctx.pool)
    if policy == "retriever-topk":
        return lambda input, rng: retrieve_topD(dense, input, d)[:shots]
    encodings = encoding_cache(ctx.reranker.embeddings)  # the reranker is frozen while ranking
    return lambda input, rng: greedy_select(input, dense, ctx.reranker, d, shots, encodings)


def run_policy(policy: str, dataset: Dataset, ctx: PolicyContext,
               seed: int = 0) -> list[RunEntry]:
    """Rank every test query's judged passages under one selection policy;
    `evaluate_run` scores the run."""
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
    select = _selector(policy, ctx)
    initial = initial_rankings(dataset, ctx.bm25_params)
    entries: list[RunEntry] = []
    for q_ordinal, query in enumerate(sorted(dataset.queries, key=lambda q: q.id)):
        passages = initial[query.id]
        if not passages:
            continue
        if ctx.selection.per_query:
            rng = random.Random((seed, policy, q_ordinal).__repr__())
            demos_per_passage = [select(RankInput(query, passages[0]), rng)] * len(passages)
        else:
            demos_per_passage = [
                select(RankInput(query, passage),
                       random.Random((seed, policy, q_ordinal, p_ordinal).__repr__()))
                for p_ordinal, passage in enumerate(passages)]
        entries.extend(rank_passages_per_input(query, passages, demos_per_passage,
                                               ctx.backend, ctx.template, tag=policy))
    return entries


def compare_reports(reports: list[EvalReport]) -> dict:
    """Side-by-side mean NDCG with deltas against the zero-shot floor."""
    means = {r.policy: r.mean_ndcg for r in reports}
    base = means.get("zero-shot")
    out = {
        "mean_ndcg": means,
        "shots": {r.policy: r.shots for r in reports},
    }
    if base is not None:
        out["delta_vs_zero_shot"] = {
            p: m - base for p, m in means.items() if p != "zero-shot"
        }
    return out
