"""Demonstration reranker aware of previously selected demonstrations.

A cross-encoder scores (input, demo list) pairs: it embeds the input, the mean
of the list's prefix (all but the last demo), and the last demo with its own
hashed table, then feeds [e_input; e_prefix; e_last; e_input * e_last] through
a one-hidden-layer tanh MLP.

Training data comes from an iterative construction: starting from the
retriever's top-M candidates, each round scores every unselected candidate as
a continuation of the current prefix, records the full ranking, then moves one
candidate into the prefix, sampled with probability proportional to
exp(-rank).  The recorded rankings train the model with a RankNet loss over
lists sharing a prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import Demonstration, RefResolver, TrainingInput, pair_text, read_jsonl, write_jsonl
from .retriever import (
    EncoderConfig,
    ScoredCandidate,
    ScoredCandidateSet,
    demo_text,
    descend,
    encode_feats,
    encoding_cache,
    feats_rows,
    scatter_feats,
    score_candidates,
    snap_f32,
    stable_sigmoid,
    text_features,
)
from .scoring import PromptTemplate, ScorerBackend, json_number

# Initialization scales for CrossEncoder.init.  NOMINAL_TOKENS_PER_TEXT is the
# token count the block scales are normalized against; texts of a different
# length just shift every pre-activation by a common factor.
EMBED_INIT_SCALE = 1.0
NOMINAL_TOKENS_PER_TEXT = 12
PREACT_TARGET = 1.0
B1_INIT_SCALE = 0.5


class EmptyListError(ValueError):
    pass


@dataclass
class CrossEncoder:
    embeddings: np.ndarray  # (vocab_buckets, dim)
    w1: np.ndarray  # (hidden, 4 * dim)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: np.ndarray  # (1,)

    @classmethod
    def init(cls, config: EncoderConfig, seed: int) -> "CrossEncoder":
        """Seeded init, scaled so hidden units start in tanh's nonlinear range.

        Mean-pooled hashed encodings are small (roughly EMBED_INIT_SCALE /
        sqrt(3 * tokens) per entry) and the elementwise-product block is
        smaller still, so uniform weights of one shared scale would leave
        every pre-activation near zero, where tanh is effectively linear and
        the first epochs are wasted.  Each W1 block therefore gets its own
        scale, chosen so every feature block contributes about the same
        pre-activation variance.
        """
        rng = np.random.default_rng(seed)
        d, hidden = config.dim, config.hidden
        embeddings = snap_f32(rng.uniform(-EMBED_INIT_SCALE, EMBED_INIT_SCALE,
                                          size=(config.vocab_buckets, d)))
        s_enc = EMBED_INIT_SCALE / math.sqrt(3 * NOMINAL_TOKENS_PER_TEXT)
        w1 = np.empty((hidden, 4 * d))
        for block, s_block in enumerate((s_enc, s_enc, s_enc, s_enc * s_enc)):
            scale = PREACT_TARGET * math.sqrt(3.0) / (2.0 * s_block * math.sqrt(d))
            w1[:, block * d:(block + 1) * d] = rng.uniform(-scale, scale,
                                                           size=(hidden, d))
        return cls(embeddings, snap_f32(w1),
                   snap_f32(rng.uniform(-B1_INIT_SCALE, B1_INIT_SCALE, size=hidden)),
                   snap_f32(rng.uniform(-1.0, 1.0, size=hidden) / math.sqrt(hidden)),
                   snap_f32(np.zeros(1)))


def _features(e_input: np.ndarray, e_prefix_rows, e_lasts: np.ndarray) -> np.ndarray:
    """The single place cross-encoder feature rows are built: one row
    [e_input; e_prefix; e_last; e_input * e_last] per last demo, where
    e_prefix is the mean of the prefix's encodings (zeros for no prefix)."""
    if len(e_prefix_rows):
        e_prefix = np.mean(e_prefix_rows, axis=0)
    else:
        e_prefix = np.zeros_like(e_input)
    n, d = e_lasts.shape
    x = np.empty((n, 4 * d))
    x[:, :d] = e_input
    x[:, d:2 * d] = e_prefix
    x[:, 2 * d:3 * d] = e_lasts
    np.multiply(e_input, e_lasts, out=x[:, 3 * d:])
    return x


def _forward(model: CrossEncoder, x_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores and hidden activations for a batch of feature rows."""
    a = x_rows @ model.w1.T + model.b1
    h = np.tanh(a)
    return h @ model.w2 + model.b2[0], h


def cross_score(model: CrossEncoder, input, demos) -> float:
    """Predicted value of `demos` as an ordered demonstration list for `input`."""
    if not demos:
        raise EmptyListError("cross_score needs at least one demonstration")
    return float(cross_score_batch(model, input, demos[:-1], demos[-1:])[0])


def cross_score_batch(model: CrossEncoder, input, prefix, candidates,
                      encodings: Callable[[str], np.ndarray] | None = None) -> np.ndarray:
    """cross_score(input, prefix + [z]) for every candidate z, in one batch.

    `encodings` (an `encoding_cache(model.embeddings)`) lets calls on a
    frozen model share text encodings.
    """
    if not candidates:
        return np.empty(0, dtype=np.float64)
    enc = encodings if encodings is not None else encoding_cache(model.embeddings)
    x = _features(enc(pair_text(input)),
                  [enc(demo_text(d)) for d in prefix],
                  np.stack([enc(demo_text(z)) for z in candidates]))
    return _forward(model, x)[0]


# ---------------------------------------------------------------------------
# Rank-proportional sampling: p(rank r) = exp(-r) / sum_j exp(-r_j)


def rank_sample_probabilities(ranks) -> np.ndarray:
    r = np.asarray(ranks, dtype=np.float64)
    if len(r) == 0:
        raise ValueError("cannot sample from an empty ranking")
    w = np.exp(-r)
    return w / w.sum()


def sample_by_rank(ranks, rng: np.random.Generator) -> int:
    """One index drawn with probability exp(-rank), by inverse CDF over ranks.

    The CDF walks candidates in ascending rank order, so a given uniform draw
    maps to the same choice regardless of input ordering.
    """
    probs = rank_sample_probabilities(ranks)
    order = np.argsort(np.asarray(ranks), kind="stable")
    pick = np.searchsorted(np.cumsum(probs[order]), rng.random(), side="right")
    return int(order[min(pick, len(order) - 1)])


# ---------------------------------------------------------------------------
# Dependency-aware training samples: ScoredCandidateSets with a round's prefix


def construct_samples(input: TrainingInput, retrieved: list[Demonstration],
                      backend: ScorerBackend, template: PromptTemplate,
                      iterations: int, rng: np.random.Generator) -> list[ScoredCandidateSet]:
    """Iterative sample construction for one training input.

    Runs `iterations` rounds over the retrieved candidates.  Each round scores
    prefix + candidate for every unselected candidate, emits that scored set
    as a sample holding every continuation, then moves one candidate into the
    prefix, drawn by exp(-rank).  Round i scores len(retrieved) - i lists.
    """
    m = len(retrieved)
    if not 1 <= iterations <= m:
        raise ValueError(f"need 1 <= iterations <= {m}, got {iterations}")
    prefix: list[Demonstration] = []
    unselected = list(retrieved)
    samples = []
    for _ in range(iterations):
        scored = score_candidates(backend, template, input, unselected, prefix)
        samples.append(scored)
        prefix.append(unselected.pop(sample_by_rank(scored.ranks(), rng)))
    return samples


def construct_samples_for_corpus(inputs, retrieved_by_input, backend, template,
                                 iterations: int, seed: int,
                                 trajectories: int = 1) -> list[ScoredCandidateSet]:
    """Samples for every training input; seeds derive from the input ordinal."""
    if trajectories < 1:
        raise ValueError("trajectories must be at least 1")
    out = []
    for ordinal, inp in enumerate(inputs):
        for traj in range(trajectories):
            rng = np.random.default_rng(seed + 1_000_003 * ordinal + traj)
            out.extend(construct_samples(inp, retrieved_by_input[ordinal],
                                         backend, template, iterations, rng))
    return out


# ---------------------------------------------------------------------------
# List-pairwise loss


def _select_pairs(n: int, max_pairs: int | None, rng) -> tuple[np.ndarray, np.ndarray]:
    iu = np.triu_indices(n, k=1)
    total = len(iu[0])
    if max_pairs is None or total <= max_pairs:
        return iu
    # rank-stratified subsample: sort pairs by rank gap, take a seeded,
    # evenly spread selection so near and far pairs both survive
    gaps = iu[1] - iu[0]
    order = np.lexsort((iu[0], iu[1], gaps))
    stride = total / max_pairs
    offset = rng.random() if rng is not None else 0.0
    picks = order[(np.floor(offset + np.arange(max_pairs) * stride)).astype(int) % total]
    return iu[0][picks], iu[1][picks]


@dataclass(frozen=True)
class SampleGroup:
    """Samples prepared once for every training step on them: each distinct
    text's `text_features`, each sample as (input, prefix, lasts) indices into
    them, and the table rows those texts read."""

    features: list[tuple[np.ndarray, np.ndarray]]
    samples: list[tuple[int, list[int], list[int]]]
    rows: np.ndarray

    @classmethod
    def build(cls, samples: list[ScoredCandidateSet], buckets: int) -> "SampleGroup":
        index: dict[str, int] = {}

        def ids(texts) -> list[int]:
            return [index.setdefault(t, len(index)) for t in texts]

        indexed = [(ids([pair_text(s.input)])[0],
                    ids(demo_text(d) for d in s.prefix),
                    ids(demo_text(c.demo) for c in s.ranked())) for s in samples]
        features = [text_features(t, buckets) for t in index]
        return cls(features, indexed, feats_rows(features))


def list_pairwise_loss(model: CrossEncoder, samples: list[ScoredCandidateSet],
                       max_pairs_per_sample: int | None = None,
                       pair_rng: np.random.Generator | None = None) -> float:
    """Sum over samples and better/worse continuation pairs of
    log(1 + exp(score_worse - score_better)) under the model: the training
    step's loss over one group of the samples."""
    if not samples:
        return 0.0
    return reranker_loss_and_grads(model, SampleGroup.build(samples, len(model.embeddings)),
                                   max_pairs_per_sample, pair_rng)[0]


def reranker_loss_and_grads(model: CrossEncoder, group: SampleGroup,
                            max_pairs_per_sample: int | None = None,
                            pair_rng=None) -> tuple[float, dict]:
    """List-pairwise loss over a group's samples plus gradients for every
    parameter; every distinct text is encoded once.

    Per sample, table rows receive the input's, then each prefix demo's, then
    each last demo's contribution, in that order.
    """
    grads = {
        "embeddings": np.zeros_like(model.embeddings),
        "w1": np.zeros_like(model.w1),
        "b1": np.zeros_like(model.b1),
        "w2": np.zeros_like(model.w2),
        "b2": np.zeros_like(model.b2),
    }
    table_grad, feats = grads["embeddings"], group.features
    enc = np.stack([encode_feats(model.embeddings, f) for f in feats])
    loss = 0.0
    for inp, prefix, lasts in group.samples:
        e_input, e_lasts = enc[inp], enc[lasts]
        x = _features(e_input, enc[prefix], e_lasts)
        scores, h = _forward(model, x)
        n = len(scores)
        ii, jj = _select_pairs(n, max_pairs_per_sample, pair_rng)
        sig = stable_sigmoid(scores[jj] - scores[ii])
        loss += float(np.logaddexp(0.0, scores[jj] - scores[ii]).sum())
        gscore = np.zeros(n, dtype=np.float64)
        np.add.at(gscore, jj, sig)
        np.add.at(gscore, ii, -sig)

        d = len(e_input)
        ga = gscore[:, None] * model.w2[None, :] * (1.0 - h * h)
        grads["w1"] += ga.T @ x
        grads["b1"] += ga.sum(axis=0)
        grads["w2"] += (gscore[:, None] * h).sum(axis=0)
        grads["b2"][0] += gscore.sum()
        gx = ga @ model.w1

        scatter_feats(table_grad, feats[inp],
                      gx[:, :d].sum(axis=0) + (gx[:, 3 * d:] * e_lasts).sum(axis=0))
        if prefix:
            g_each = gx[:, d:2 * d].sum(axis=0) / len(prefix)
            for i in prefix:
                scatter_feats(table_grad, feats[i], g_each)
        for row, i in zip(gx[:, 2 * d:3 * d] + gx[:, 3 * d:] * e_input[None, :], lasts):
            scatter_feats(table_grad, feats[i], row)
    return loss, grads


@dataclass(frozen=True)
class RerankerTrainConfig:
    max_pairs_per_sample: int | None = None
    learning_rate: float = 0.001
    epochs: int = 2

    def __post_init__(self) -> None:
        if self.learning_rate <= 0 or self.epochs < 1 or (
                self.max_pairs_per_sample is not None and self.max_pairs_per_sample < 1):
            raise ValueError("bad reranker training config")


def train_reranker(model: CrossEncoder, samples: list[ScoredCandidateSet],
                   cfg: RerankerTrainConfig = RerankerTrainConfig(),
                   seed: int = 0) -> CrossEncoder:
    """Seeded gradient descent on the list-pairwise loss.

    Samples sharing a training input form one gradient step, so each step
    optimizes that input's full loss across its prefixes.  Each input's
    `SampleGroup` is built once, before the first step, and each step updates
    only the embedding rows its group's texts read.
    """
    if not samples:
        raise ValueError("no training samples")
    groups: dict[str, list[ScoredCandidateSet]] = {}
    for s in samples:
        groups.setdefault(s.input.input_id, []).append(s)
    keys = sorted(groups)
    prepared = [SampleGroup.build(groups[key], len(model.embeddings)) for key in keys]
    return descend(model, keys, [g.rows for g in prepared],
                   lambda trained, i: reranker_loss_and_grads(
                       trained, prepared[i], cfg.max_pairs_per_sample,
                       np.random.default_rng(seed + 7919 * i)),
                   cfg.learning_rate, cfg.epochs, seed, "reranker")


# ---------------------------------------------------------------------------
# Sample IO: {"input_id", "shot", "prefix": [ref...],
#             "continuations": [{"last": ref, "llm_score": s}]} in ranked() order


def write_samples(path, samples: list[ScoredCandidateSet]) -> None:
    write_jsonl(path, ({
        "input_id": s.input.input_id,
        "shot": s.shot,
        "prefix": [list(d.ref) for d in s.prefix],
        "continuations": [{"last": list(c.demo.ref), "llm_score": c.llm_score}
                          for c in s.ranked()],
    } for s in samples))


def load_samples(path, inputs: list[TrainingInput],
                 pool: list[Demonstration]) -> list[ScoredCandidateSet]:
    refs = RefResolver(inputs, pool)

    def parse(obj: dict) -> ScoredCandidateSet:
        sample = ScoredCandidateSet(refs.input(obj["input_id"]), [
            ScoredCandidate(refs.demo(c["last"]), json_number(c["llm_score"]))
            for c in obj["continuations"]], tuple(refs.demo(r) for r in obj["prefix"]))
        if sample.order() != list(range(len(sample.candidates))):
            raise ValueError("continuations out of rank order")
        if type(obj["shot"]) is not int or obj["shot"] != sample.shot:
            raise ValueError(f"shot mismatch: {obj['shot']!r}, not the JSON int {sample.shot}")
        return sample

    return read_jsonl(path, parse, "sample")
