"""Trained demonstration retriever: a hashed bag-of-tokens bi-encoder.

Texts are tokenized, each token is FNV-1a-hashed into one of `vocab_buckets`
rows of a shared embedding table, and the text encoding is the mean of its
token rows.  Inputs render as "query passage"; demonstrations additionally
append their label.  Similarity is the dot product.

Training minimizes lam * contrastive + ranknet over scored candidate sets,
by plain full-set gradient descent, one step per training input.  Parameters
live on the float32 grid (checkpoints store float32 payloads bit-exactly)
while all arithmetic runs in float64.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bm25 import tokenize
from .data import Demonstration, DemonstrationPool, Label, Passage, Query, TrainingInput

logger = logging.getLogger(__name__)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(token: str) -> int:
    h = _FNV_OFFSET
    for byte in token.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _U64
    return h


@lru_cache(maxsize=1 << 17)
def _hashed_counts(text: str, buckets: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    counts: dict[int, int] = {}
    for tok in tokenize(text):
        b = fnv1a64(tok) % buckets
        counts[b] = counts.get(b, 0) + 1
    ids = sorted(counts)
    return tuple(ids), tuple(counts[i] for i in ids)


def text_features(text: str, buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """Bucket ids and mean-pooling weights (counts / total) for a text."""
    ids, counts = _hashed_counts(text, buckets)
    if not ids:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.float64)
    counts_arr = np.asarray(counts, dtype=np.float64)
    return np.asarray(ids, dtype=np.intp), counts_arr / counts_arr.sum()


def input_text(query_text: str, passage_text: str) -> str:
    return f"{query_text} {passage_text}"


def demo_text(demo: Demonstration) -> str:
    return f"{demo.query.text} {demo.passage.text} {demo.label.value}"


def snap_f32(arr: np.ndarray) -> np.ndarray:
    """Round to the nearest float32-representable value, kept as float64."""
    return arr.astype(np.float32).astype(np.float64)


@dataclass(frozen=True)
class EncoderConfig:
    vocab_buckets: int = 4096
    dim: int = 64

    def __post_init__(self) -> None:
        if self.vocab_buckets <= 0 or self.dim <= 0:
            raise ValueError("vocab_buckets and dim must be positive")


INIT_SCALE = 0.05


@dataclass
class BiEncoder:
    config: EncoderConfig
    embeddings: np.ndarray  # (vocab_buckets, dim)

    @classmethod
    def init(cls, config: EncoderConfig, seed: int) -> "BiEncoder":
        rng = np.random.default_rng(seed)
        table = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(config.vocab_buckets, config.dim))
        return cls(config, snap_f32(table))

    def copy(self) -> "BiEncoder":
        return BiEncoder(self.config, self.embeddings.copy())


def encode_feats(table: np.ndarray, feats: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    ids, weights = feats
    if len(ids) == 0:
        return np.zeros(table.shape[1], dtype=np.float64)
    return weights @ table.take(ids, axis=0)


def scatter_feats(grad: np.ndarray, feats: tuple[np.ndarray, np.ndarray],
                  row: np.ndarray) -> None:
    """grad[ids] += weights x row: the table gradient of one encoding.

    A text's bucket ids are distinct, so gathering, adding and writing back
    the rows equals np.add.at bit for bit; callers add texts in a fixed order
    so every row sums its contributions in that order.
    """
    ids, weights = feats
    if len(ids):
        contrib = weights[:, None] * row[None, :]
        contrib += grad.take(ids, axis=0)
        grad[ids] = contrib


def feats_rows(feats_list) -> np.ndarray:
    """Sorted distinct table rows that any of the texts' encodings read."""
    return np.unique(np.concatenate([ids for ids, _ in feats_list]))


def sgd_rows(table: np.ndarray, grad: np.ndarray, rows: np.ndarray,
             learning_rate: float) -> None:
    """One float32-grid SGD step on the given rows of `table`, in place.

    Rows outside `rows` must have zero gradient; they are left alone, which
    equals a full-table step because a float32-grid value e gives
    snap_f32(e - lr * 0) == e.
    """
    table[rows] = snap_f32(table[rows] - learning_rate * grad[rows])


class FeatureCache:
    """Each distinct text's (ids, weights), computed once for the cache's life."""

    def __init__(self, buckets: int) -> None:
        self.buckets = buckets
        self._feats: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def __call__(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        got = self._feats.get(text)
        if got is None:
            got = self._feats[text] = text_features(text, self.buckets)
        return got


class EncodingCache:
    """Each distinct text's encoding under one table, computed once.

    Valid while the table is unchanged: within one training step, or for a
    frozen model.
    """

    def __init__(self, table: np.ndarray, features: FeatureCache) -> None:
        self.table = table
        self.features = features
        self._enc: dict[str, np.ndarray] = {}

    def __call__(self, text: str) -> np.ndarray:
        got = self._enc.get(text)
        if got is None:
            got = self._enc[text] = encode_feats(self.table, self.features(text))
        return got


def encode(model: BiEncoder, text: str) -> np.ndarray:
    return encode_feats(model.embeddings, text_features(text, model.config.vocab_buckets))


def similarity(model: BiEncoder, input, demo: Demonstration) -> float:
    u = encode(model, input_text(input.query.text, input.passage.text))
    v = encode(model, demo_text(demo))
    return float(u @ v)


# ---------------------------------------------------------------------------
# Losses over a candidate set's similarity scores


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def contrastive_loss(scores: np.ndarray, positive_index: int) -> float:
    """Negative log-softmax of the positive candidate's score."""
    s = np.asarray(scores, dtype=np.float64)
    m = s.max()
    return float(np.log(np.sum(np.exp(s - m))) + m - s[positive_index])


def contrastive_grad(scores: np.ndarray, positive_index: int) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    e = np.exp(s - s.max())
    g = e / e.sum()
    g[positive_index] -= 1.0
    return g


def ranknet_loss(scores: np.ndarray, ranks) -> float:
    """Sum over better/worse pairs of log(1 + exp(s_worse - s_better)).

    `ranks` is a permutation of 1..N where rank 1 is the best candidate.
    """
    s_by_rank = _scores_in_rank_order(scores, ranks)
    diff = s_by_rank[None, :] - s_by_rank[:, None]  # diff[i, j] = s_j - s_i
    iu = np.triu_indices(len(s_by_rank), k=1)
    return float(np.logaddexp(0.0, diff[iu]).sum())


def ranknet_grad(scores: np.ndarray, ranks) -> np.ndarray:
    s_by_rank = _scores_in_rank_order(scores, ranks)
    n = len(s_by_rank)
    diff = s_by_rank[None, :] - s_by_rank[:, None]
    sig = stable_sigmoid(diff)
    mask = np.triu(np.ones((n, n)), k=1)
    g_by_rank = (sig * mask).sum(axis=0) - (sig * mask).sum(axis=1)
    order = np.argsort(np.asarray(ranks))
    g = np.empty(n, dtype=np.float64)
    g[order] = g_by_rank
    return g


def _scores_in_rank_order(scores: np.ndarray, ranks) -> np.ndarray:
    s = np.asarray(scores, dtype=np.float64)
    r = np.asarray(ranks)
    if sorted(r.tolist()) != list(range(1, len(s) + 1)):
        raise ValueError("ranks must be a permutation of 1..N")
    order = np.argsort(r)
    return s[order]


def combined_loss(contrastive: float, ranknet: float, lam: float) -> float:
    return lam * contrastive + ranknet


# ---------------------------------------------------------------------------
# Scored candidate sets


@dataclass(frozen=True)
class ScoredCandidate:
    demo: Demonstration
    llm_score: float


@dataclass
class ScoredCandidateSet:
    input: TrainingInput
    candidates: list[ScoredCandidate]

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError(f"empty candidate set for {self.input.input_id}")

    def ranks(self) -> list[int]:
        """Rank 1..N by descending llm_score, ties by candidate ordinal."""
        order = sorted(range(len(self.candidates)),
                       key=lambda i: (-self.candidates[i].llm_score, i))
        ranks = [0] * len(order)
        for pos, i in enumerate(order):
            ranks[i] = pos + 1
        return ranks

    def positive_index(self) -> int:
        return self.ranks().index(1)


def _set_loss_and_grad(table: np.ndarray, input_feats, demo_feats_list,
                       positive_index: int, ranks, w_contrastive: float,
                       w_ranknet: float) -> tuple[float, np.ndarray]:
    u = encode_feats(table, input_feats)
    vmat = np.stack([encode_feats(table, f) for f in demo_feats_list])
    scores = vmat @ u

    loss = 0.0
    gs = np.zeros(len(demo_feats_list), dtype=np.float64)
    if w_contrastive:
        loss += w_contrastive * contrastive_loss(scores, positive_index)
        gs += w_contrastive * contrastive_grad(scores, positive_index)
    if w_ranknet:
        loss += w_ranknet * ranknet_loss(scores, ranks)
        gs += w_ranknet * ranknet_grad(scores, ranks)

    grad = np.zeros_like(table)
    scatter_feats(grad, input_feats, vmat.T @ gs)
    for gsi, feats in zip(gs, demo_feats_list):
        scatter_feats(grad, feats, gsi * u)
    return loss, grad


def set_loss_and_grad(table, input_feats, demo_feats_list, positive_index,
                      ranks, lam: float) -> tuple[float, np.ndarray]:
    """Loss lam * contrastive + ranknet and its gradient w.r.t. the table."""
    return _set_loss_and_grad(table, input_feats, demo_feats_list,
                              positive_index, ranks, lam, 1.0)


def contrastive_set_loss_and_grad(table, input_feats, demo_feats_list,
                                  positive_index) -> tuple[float, np.ndarray]:
    ranks = list(range(1, len(demo_feats_list) + 1))
    return _set_loss_and_grad(table, input_feats, demo_feats_list,
                              positive_index, ranks, 1.0, 0.0)


def ranknet_set_loss_and_grad(table, input_feats, demo_feats_list,
                              ranks) -> tuple[float, np.ndarray]:
    return _set_loss_and_grad(table, input_feats, demo_feats_list, 0, ranks, 0.0, 1.0)


@dataclass(frozen=True)
class RetrieverTrainConfig:
    learning_rate: float = 0.05
    epochs: int = 2
    lam: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0 or self.epochs < 1 or self.lam < 0:
            raise ValueError("bad retriever training config")


def _set_features(features: FeatureCache, cand_set: ScoredCandidateSet):
    inp = cand_set.input
    input_feats = features(input_text(inp.query.text, inp.passage.text))
    demo_feats = [features(demo_text(c.demo)) for c in cand_set.candidates]
    return input_feats, demo_feats


def train_retriever(model: BiEncoder, sets: list[ScoredCandidateSet],
                    cfg: RetrieverTrainConfig = RetrieverTrainConfig()) -> BiEncoder:
    """Seeded gradient descent; one step per candidate set; leaves input model untouched.

    Features are built once per distinct text, and each step updates only
    the table rows its set's texts read.
    """
    if not sets:
        raise ValueError("no training sets")
    # on the float32 grid from the start, as sgd_rows leaves untouched rows alone
    trained = BiEncoder(model.config, snap_f32(model.embeddings))
    rng = np.random.default_rng(cfg.seed)
    features = FeatureCache(model.config.vocab_buckets)
    prepared = []
    for s in sets:
        input_feats, demo_feats = _set_features(features, s)
        rows = feats_rows([input_feats, *demo_feats])
        prepared.append((s, input_feats, demo_feats, s.positive_index(), s.ranks(), rows))
    for epoch in range(cfg.epochs):
        total = 0.0
        for idx in rng.permutation(len(prepared)):
            cand_set, input_feats, demo_feats, pos, ranks, rows = prepared[idx]
            loss, grad = set_loss_and_grad(trained.embeddings, input_feats,
                                           demo_feats, pos, ranks, cfg.lam)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite retriever loss at epoch {epoch} on "
                    f"{cand_set.input.input_id}: {loss}"
                )
            total += loss
            sgd_rows(trained.embeddings, grad, rows, cfg.learning_rate)
        logger.info("retriever epoch %d mean loss %.6f", epoch, total / len(prepared))
    return trained


def retriever_corpus_loss(model: BiEncoder, sets: list[ScoredCandidateSet],
                          lam: float) -> float:
    total = 0.0
    features = FeatureCache(model.config.vocab_buckets)
    for s in sets:
        input_feats, demo_feats = _set_features(features, s)
        loss, _ = set_loss_and_grad(model.embeddings, input_feats, demo_feats,
                                    s.positive_index(), s.ranks(), lam)
        total += loss
    return total / len(sets)


# ---------------------------------------------------------------------------
# Dense retrieval


@dataclass
class DenseIndex:
    pool: DemonstrationPool
    matrix: np.ndarray  # (len(pool), dim)

    @classmethod
    def build(cls, model: BiEncoder, pool: DemonstrationPool) -> "DenseIndex":
        if len(pool) == 0:
            raise ValueError("cannot index an empty pool")
        matrix = np.stack([encode(model, demo_text(d)) for d in pool])
        return cls(pool, matrix)


def retrieve_topD(index: DenseIndex, model: BiEncoder, input, D: int) -> list[Demonstration]:
    """Top-D pool demos by dot-product similarity, ties by pool ordinal."""
    if D <= 0:
        raise ValueError("D must be positive")
    if D > len(index.pool):
        logger.warning("requested top %d from a pool of %d; returning all",
                       D, len(index.pool))
    u = encode(model, input_text(input.query.text, input.passage.text))
    scores = index.matrix @ u
    order = np.argsort(-scores, kind="stable")
    return [index.pool[int(i)] for i in order[:D]]


# ---------------------------------------------------------------------------
# Scored-candidate IO: {"input_id", "candidates": [{"demo_ref", "llm_score"}]}


def write_scored_sets(path, sets: list[ScoredCandidateSet]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in sets:
            fh.write(json.dumps({
                "input_id": s.input.input_id,
                "candidates": [
                    {"demo_ref": list(c.demo.ref), "llm_score": c.llm_score}
                    for c in s.candidates
                ],
            }) + "\n")


def load_scored_sets(path, inputs: list[TrainingInput],
                     pool: DemonstrationPool) -> list[ScoredCandidateSet]:
    by_id = {t.input_id: t for t in inputs}
    by_ref = pool.by_ref()
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            inp = by_id.get(obj["input_id"])
            if inp is None:
                raise ValueError(f"{path}:{lineno}: unknown input {obj['input_id']!r}")
            cands = []
            for c in obj["candidates"]:
                ref = tuple(c["demo_ref"])
                if ref not in by_ref:
                    raise ValueError(f"{path}:{lineno}: unknown demo {ref}")
                cands.append(ScoredCandidate(by_ref[ref], float(c["llm_score"])))
            out.append(ScoredCandidateSet(inp, cands))
    return out
