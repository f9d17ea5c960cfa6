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

import logging
import math
from dataclasses import dataclass

import numpy as np

from .data import Demonstration, RefResolver, TrainingInput, read_jsonl, write_jsonl
from .retriever import (
    EncoderConfig,
    EncodingCache,
    NonFiniteLossError,
    demo_text,
    feats_rows,
    input_text,
    scatter_feats,
    sgd_rows,
    snap_f32,
    stable_sigmoid,
    text_features,
)
# encode_feats stays importable from this module, as perfbench/spans.py
# (which wraps every module alias) expects.
from .retriever import encode_feats  # noqa: F401
from .scoring import PromptTemplate, ScorerBackend, score_list

logger = logging.getLogger(__name__)

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
    config: EncoderConfig
    hidden: int
    embeddings: np.ndarray  # (vocab_buckets, dim)
    w1: np.ndarray  # (hidden, 4 * dim)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: np.ndarray  # (1,)

    @classmethod
    def init(cls, config: EncoderConfig, hidden: int, seed: int) -> "CrossEncoder":
        """Seeded init, scaled so hidden units start in tanh's nonlinear range.

        Mean-pooled hashed encodings are small (roughly EMBED_INIT_SCALE /
        sqrt(3 * tokens) per entry) and the elementwise-product block is
        smaller still, so uniform weights of one shared scale would leave
        every pre-activation near zero, where tanh is effectively linear and
        the first epochs are wasted.  Each W1 block therefore gets its own
        scale, chosen so every feature block contributes about the same
        pre-activation variance.
        """
        if hidden <= 0:
            raise ValueError("hidden must be positive")
        rng = np.random.default_rng(seed)
        d = config.dim
        embeddings = snap_f32(rng.uniform(-EMBED_INIT_SCALE, EMBED_INIT_SCALE,
                                          size=(config.vocab_buckets, d)))
        s_enc = EMBED_INIT_SCALE / math.sqrt(3 * NOMINAL_TOKENS_PER_TEXT)
        w1 = np.empty((hidden, 4 * d))
        for block, s_block in enumerate((s_enc, s_enc, s_enc, s_enc * s_enc)):
            scale = PREACT_TARGET * math.sqrt(3.0) / (2.0 * s_block * math.sqrt(d))
            w1[:, block * d:(block + 1) * d] = rng.uniform(-scale, scale,
                                                           size=(hidden, d))
        return cls(config, hidden, embeddings, snap_f32(w1),
                   snap_f32(rng.uniform(-B1_INIT_SCALE, B1_INIT_SCALE, size=hidden)),
                   snap_f32(rng.uniform(-1.0, 1.0, size=hidden) / math.sqrt(hidden)),
                   snap_f32(np.zeros(1)))

    def copy(self) -> "CrossEncoder":
        return CrossEncoder(self.config, self.hidden, self.embeddings.copy(),
                            self.w1.copy(), self.b1.copy(), self.w2.copy(),
                            self.b2.copy())


@dataclass(frozen=True)
class _Lists:
    """One input and prefix with a batch of candidate last demos: the texts,
    their encodings, and one feature row [e_input; e_prefix; e_last;
    e_input * e_last] per candidate."""

    input_text: str
    prefix_texts: list[str]
    last_texts: list[str]
    e_input: np.ndarray
    e_lasts: np.ndarray  # (n, dim)
    x: np.ndarray  # (n, 4 * dim)


def _featurize(enc: EncodingCache, input, prefix, lasts) -> _Lists:
    """The single place cross-encoder feature rows are built."""
    in_text = input_text(input.query.text, input.passage.text)
    prefix_texts = [demo_text(d) for d in prefix]
    last_texts = [demo_text(z) for z in lasts]
    e_input = enc(in_text)
    if prefix_texts:
        e_prefix = np.mean([enc(t) for t in prefix_texts], axis=0)
    else:
        e_prefix = np.zeros_like(e_input)
    e_lasts = np.stack([enc(t) for t in last_texts])
    n, d = e_lasts.shape
    x = np.empty((n, 4 * d))
    x[:, :d] = e_input
    x[:, d:2 * d] = e_prefix
    x[:, 2 * d:3 * d] = e_lasts
    np.multiply(e_input, e_lasts, out=x[:, 3 * d:])
    return _Lists(in_text, prefix_texts, last_texts, e_input, e_lasts, x)


def _forward(model: CrossEncoder, x_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores and hidden activations for a batch of feature rows."""
    a = x_rows @ model.w1.T + model.b1
    h = np.tanh(a)
    return h @ model.w2 + model.b2[0], h


def _backward(model: CrossEncoder, lists: _Lists, h: np.ndarray,
              gscore: np.ndarray, grads: dict) -> None:
    """Add the gradient of sum(gscore * scores) to every parameter's grads.

    Table rows receive the input's, then each prefix demo's, then each last
    demo's contribution, in that order.
    """
    d = model.config.dim
    ga = gscore[:, None] * model.w2[None, :] * (1.0 - h * h)
    grads["w1"] += ga.T @ lists.x
    grads["b1"] += ga.sum(axis=0)
    grads["w2"] += (gscore[:, None] * h).sum(axis=0)
    grads["b2"][0] += gscore.sum()
    gx = ga @ model.w1

    g_input = gx[:, :d].sum(axis=0) + (gx[:, 3 * d:] * lists.e_lasts).sum(axis=0)
    g_prefix = gx[:, d:2 * d].sum(axis=0)
    g_lasts = gx[:, 2 * d:3 * d] + gx[:, 3 * d:] * lists.e_input[None, :]

    table_grad = grads["embeddings"]
    buckets = model.config.vocab_buckets
    scatter_feats(table_grad, text_features(lists.input_text, buckets), g_input)
    if lists.prefix_texts:
        g_each = g_prefix / len(lists.prefix_texts)
        for text in lists.prefix_texts:
            scatter_feats(table_grad, text_features(text, buckets), g_each)
    for row, text in zip(g_lasts, lists.last_texts):
        scatter_feats(table_grad, text_features(text, buckets), row)


def cross_score(model: CrossEncoder, input, demos) -> float:
    """Predicted value of `demos` as an ordered demonstration list for `input`."""
    if not demos:
        raise EmptyListError("cross_score needs at least one demonstration")
    return float(cross_score_batch(model, input, demos[:-1], demos[-1:])[0])


def cross_score_batch(model: CrossEncoder, input, prefix, candidates,
                      encodings: EncodingCache | None = None) -> np.ndarray:
    """cross_score(input, prefix + [z]) for every candidate z, in one batch.

    `encodings` (an `EncodingCache(model.embeddings)`) lets calls on a
    frozen model share text encodings.
    """
    if not candidates:
        return np.empty(0, dtype=np.float64)
    enc = encodings if encodings is not None else EncodingCache(model.embeddings)
    scores, _ = _forward(model, _featurize(enc, input, prefix, candidates).x)
    return scores


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
    u = rng.random()
    cum = 0.0
    for idx in order:
        cum += probs[idx]
        if u < cum:
            return int(idx)
    return int(order[-1])  # float rounding fallback


# ---------------------------------------------------------------------------
# Dependency-aware training samples


@dataclass(frozen=True)
class DemoList:
    demos: tuple[Demonstration, ...]
    llm_score: float


@dataclass(frozen=True)
class DependencySample:
    """All continuations of one shared prefix, rank-ordered by LLM score."""

    input: TrainingInput
    prefix: tuple[Demonstration, ...]
    continuations: tuple[DemoList, ...]

    @property
    def shot(self) -> int:
        return len(self.prefix) + 1

    def __post_init__(self) -> None:
        if not self.continuations:
            raise ValueError("sample needs at least one continuation")
        lasts = set()
        prev = None
        for c in self.continuations:
            if c.demos[:-1] != self.prefix:
                raise ValueError("continuation does not extend the sample prefix")
            if c.demos[-1].ref in lasts:
                raise ValueError("duplicate continuation demo")
            lasts.add(c.demos[-1].ref)
            if prev is not None and c.llm_score > prev + 1e-12:
                raise ValueError("continuations must be ordered by non-increasing score")
            prev = c.llm_score


def construct_samples(input: TrainingInput, retrieved: list[Demonstration],
                      backend: ScorerBackend, template: PromptTemplate,
                      iterations: int, rng: np.random.Generator) -> list[DependencySample]:
    """Iterative sample construction for one training input.

    Runs `iterations` rounds over the retrieved candidates.  Each round scores
    prefix + candidate for every unselected candidate, emits a sample holding
    the full ranked set of continuations, then moves one candidate into the
    prefix, drawn by exp(-rank).  Round i scores len(retrieved) - i lists.
    """
    m = len(retrieved)
    if not 1 <= iterations <= m:
        raise ValueError(f"need 1 <= iterations <= {m}, got {iterations}")
    prefix: list[Demonstration] = []
    unselected = list(retrieved)
    samples = []
    for _ in range(iterations):
        scores = [score_list(backend, template, prefix + [z], input) for z in unselected]
        order = sorted(range(len(unselected)), key=lambda i: (-scores[i], i))
        ranks = [0] * len(unselected)
        for pos, i in enumerate(order):
            ranks[i] = pos + 1
        continuations = tuple(
            DemoList(tuple(prefix) + (unselected[i],), scores[i]) for i in order
        )
        samples.append(DependencySample(input, tuple(prefix), continuations))
        chosen = sample_by_rank(ranks, rng)
        prefix.append(unselected.pop(chosen))
    return samples


def construct_samples_for_corpus(inputs, retrieved_by_input, backend, template,
                                 iterations: int, seed: int,
                                 trajectories: int = 1) -> list[DependencySample]:
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


def _sample_lists(enc: EncodingCache, sample: DependencySample) -> _Lists:
    return _featurize(enc, sample.input, sample.prefix,
                      [c.demos[-1] for c in sample.continuations])


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


def list_pairwise_loss(model: CrossEncoder, samples: list[DependencySample],
                       max_pairs_per_sample: int | None = None,
                       pair_rng: np.random.Generator | None = None) -> float:
    """Sum over samples and better/worse continuation pairs of
    log(1 + exp(score_worse - score_better)) under the model."""
    enc = EncodingCache(model.embeddings)
    total = 0.0
    for sample in samples:
        scores, _ = _forward(model, _sample_lists(enc, sample).x)
        ii, jj = _select_pairs(len(scores), max_pairs_per_sample, pair_rng)
        total += float(np.logaddexp(0.0, scores[jj] - scores[ii]).sum())
    return total


def reranker_loss_and_grads(model: CrossEncoder, samples: list[DependencySample],
                            max_pairs_per_sample: int | None = None,
                            pair_rng=None) -> tuple[float, dict]:
    """List-pairwise loss over samples plus gradients for every parameter.

    Each distinct text is encoded once for all samples.
    """
    enc = EncodingCache(model.embeddings)
    grads = {
        "embeddings": np.zeros_like(model.embeddings),
        "w1": np.zeros_like(model.w1),
        "b1": np.zeros_like(model.b1),
        "w2": np.zeros_like(model.w2),
        "b2": np.zeros_like(model.b2),
    }
    loss = 0.0
    for sample in samples:
        lists = _sample_lists(enc, sample)
        scores, h = _forward(model, lists.x)
        n = len(scores)
        ii, jj = _select_pairs(n, max_pairs_per_sample, pair_rng)
        sig = stable_sigmoid(scores[jj] - scores[ii])
        loss += float(np.logaddexp(0.0, scores[jj] - scores[ii]).sum())
        gscore = np.zeros(n, dtype=np.float64)
        np.add.at(gscore, jj, sig)
        np.add.at(gscore, ii, -sig)
        _backward(model, lists, h, gscore, grads)
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


def _group_rows(group: list[DependencySample], buckets: int) -> np.ndarray:
    """Table rows read by any text of a group's samples."""
    texts = []
    for s in group:
        texts.append(input_text(s.input.query.text, s.input.passage.text))
        texts.extend(demo_text(d) for d in s.prefix)
        texts.extend(demo_text(c.demos[-1]) for c in s.continuations)
    return feats_rows([text_features(t, buckets) for t in texts])


def train_reranker(model: CrossEncoder, samples: list[DependencySample],
                   cfg: RerankerTrainConfig = RerankerTrainConfig(),
                   seed: int = 0) -> CrossEncoder:
    """Seeded gradient descent on the list-pairwise loss.

    Samples sharing a training input form one gradient step, so each step
    optimizes that input's full loss across its prefixes.  Features are built
    once per distinct text, and each step updates only the embedding rows its
    group's texts read.
    """
    if not samples:
        raise ValueError("no training samples")
    groups: dict[str, list[DependencySample]] = {}
    for s in samples:
        groups.setdefault(s.input.input_id, []).append(s)
    keys = sorted(groups)
    rows = [_group_rows(groups[key], model.config.vocab_buckets) for key in keys]
    trained = model.copy()
    # on the float32 grid from the start, as sgd_rows leaves untouched rows alone
    trained.embeddings = snap_f32(model.embeddings)
    rng = np.random.default_rng(seed)
    for epoch in range(cfg.epochs):
        total = 0.0
        for gi in rng.permutation(len(keys)):
            group = groups[keys[gi]]
            loss, grads = reranker_loss_and_grads(
                trained, group, cfg.max_pairs_per_sample,
                np.random.default_rng(seed + 7919 * int(gi)))
            if not np.isfinite(loss):
                raise NonFiniteLossError("reranker", epoch, keys[gi], loss)
            total += loss
            sgd_rows(trained.embeddings, grads["embeddings"], rows[gi], cfg.learning_rate)
            trained.w1 = snap_f32(trained.w1 - cfg.learning_rate * grads["w1"])
            trained.b1 = snap_f32(trained.b1 - cfg.learning_rate * grads["b1"])
            trained.w2 = snap_f32(trained.w2 - cfg.learning_rate * grads["w2"])
            trained.b2 = snap_f32(trained.b2 - cfg.learning_rate * grads["b2"])
        logger.info("reranker epoch %d total loss %.6f", epoch, total)
    return trained


# ---------------------------------------------------------------------------
# Sample IO: {"input_id", "shot", "prefix": [ref...],
#             "continuations": [{"last": ref, "llm_score": s}]} rank-ordered


def write_samples(path, samples: list[DependencySample]) -> None:
    write_jsonl(path, ({
        "input_id": s.input.input_id,
        "shot": s.shot,
        "prefix": [list(d.ref) for d in s.prefix],
        "continuations": [{"last": list(c.demos[-1].ref), "llm_score": c.llm_score}
                          for c in s.continuations],
    } for s in samples))


def load_samples(path, inputs: list[TrainingInput],
                 pool: list[Demonstration]) -> list[DependencySample]:
    refs = RefResolver(inputs, pool)

    def parse(obj: dict) -> DependencySample:
        inp = refs.input(obj["input_id"])
        prefix = tuple(refs.demo(r) for r in obj["prefix"])
        sample = DependencySample(inp, prefix, tuple(
            DemoList(prefix + (refs.demo(c["last"]),), float(c["llm_score"]))
            for c in obj["continuations"]))
        if sample.shot != int(obj["shot"]):
            raise ValueError("shot mismatch")
        return sample

    return read_jsonl(path, parse, "sample")
