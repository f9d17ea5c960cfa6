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

import logging
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bm25 import tokenize
from .data import Demonstration, RefResolver, TrainingInput, read_jsonl, write_jsonl

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
def text_features(text: str, buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """Bucket ids and mean-pooling weights (counts / total) for a text.

    Memoized for the process, so every caller shares the same arrays; they
    are read-only.
    """
    counts: dict[int, int] = {}
    for tok in tokenize(text):
        b = fnv1a64(tok) % buckets
        counts[b] = counts.get(b, 0) + 1
    ids = sorted(counts)
    weights = np.array([counts[i] for i in ids], dtype=np.float64)
    feats = np.array(ids, dtype=np.intp), weights / weights.sum()
    for arr in feats:
        arr.flags.writeable = False
    return feats


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


class EncodingCache:
    """Each distinct text's encoding under one table, computed once.

    Valid while the table is unchanged: within one training step, or for a
    frozen model.
    """

    def __init__(self, table: np.ndarray) -> None:
        self.table = table
        self._enc: dict[str, np.ndarray] = {}

    def __call__(self, text: str) -> np.ndarray:
        got = self._enc.get(text)
        if got is None:
            got = self._enc[text] = encode_feats(self.table, text_features(text, len(self.table)))
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


def contrastive_loss_and_grad(scores: np.ndarray,
                              positive_index: int) -> tuple[float, np.ndarray]:
    """Negative log-softmax of the positive candidate's score, and its gradient
    (softmax minus the one-hot positive)."""
    s = np.asarray(scores, dtype=np.float64)
    m = s.max()
    e = np.exp(s - m)
    total = e.sum()
    g = e / total
    g[positive_index] -= 1.0
    return float(np.log(total) + m - s[positive_index]), g


def ranknet_loss_and_grad(scores: np.ndarray, ranks) -> tuple[float, np.ndarray]:
    """Sum over better/worse pairs of log(1 + exp(s_worse - s_better)), and its
    gradient.

    `ranks` is a permutation of 1..N where rank 1 is the best candidate.
    """
    s = np.asarray(scores, dtype=np.float64)
    r = np.asarray(ranks)
    n = len(s)
    if sorted(r.tolist()) != list(range(1, n + 1)):
        raise ValueError("ranks must be a permutation of 1..N")
    order = np.argsort(r)
    s_by_rank = s[order]
    diff = s_by_rank[None, :] - s_by_rank[:, None]  # diff[i, j] = s_j - s_i
    loss = float(np.logaddexp(0.0, diff[np.triu_indices(n, k=1)]).sum())
    upper = stable_sigmoid(diff) * np.triu(np.ones((n, n)), k=1)
    g = np.empty(n, dtype=np.float64)
    g[order] = upper.sum(axis=0) - upper.sum(axis=1)
    return loss, g


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
    for weight, objective, target in ((w_contrastive, contrastive_loss_and_grad, positive_index),
                                      (w_ranknet, ranknet_loss_and_grad, ranks)):
        if weight:
            part_loss, part_grad = objective(scores, target)
            loss += weight * part_loss
            gs += weight * part_grad

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

    def __post_init__(self) -> None:
        if self.learning_rate <= 0 or self.epochs < 1 or self.lam < 0:
            raise ValueError("bad retriever training config")


class NonFiniteLossError(RuntimeError):
    """A training loss overflowed: the `model` trainer's learning rate is too high."""

    def __init__(self, model: str, epoch: int, key: str, loss: float) -> None:
        super().__init__(f"non-finite {model} loss at epoch {epoch} on {key}: {loss}")
        self.model = model


def _set_features(cand_set: ScoredCandidateSet, buckets: int):
    inp = cand_set.input
    input_feats = text_features(input_text(inp.query.text, inp.passage.text), buckets)
    demo_feats = [text_features(demo_text(c.demo), buckets) for c in cand_set.candidates]
    return input_feats, demo_feats


def train_retriever(model: BiEncoder, sets: list[ScoredCandidateSet],
                    cfg: RetrieverTrainConfig = RetrieverTrainConfig(),
                    seed: int = 0) -> BiEncoder:
    """Seeded gradient descent; one step per candidate set; leaves input model untouched.

    Features are built once per distinct text, and each step updates only
    the table rows its set's texts read.
    """
    if not sets:
        raise ValueError("no training sets")
    # on the float32 grid from the start, as sgd_rows leaves untouched rows alone
    trained = BiEncoder(model.config, snap_f32(model.embeddings))
    rng = np.random.default_rng(seed)
    prepared = []
    for s in sets:
        input_feats, demo_feats = _set_features(s, model.config.vocab_buckets)
        rows = feats_rows([input_feats, *demo_feats])
        prepared.append((s, input_feats, demo_feats, s.positive_index(), s.ranks(), rows))
    for epoch in range(cfg.epochs):
        total = 0.0
        for idx in rng.permutation(len(prepared)):
            cand_set, input_feats, demo_feats, pos, ranks, rows = prepared[idx]
            loss, grad = set_loss_and_grad(trained.embeddings, input_feats,
                                           demo_feats, pos, ranks, cfg.lam)
            if not np.isfinite(loss):
                raise NonFiniteLossError("retriever", epoch, cand_set.input.input_id, loss)
            total += loss
            sgd_rows(trained.embeddings, grad, rows, cfg.learning_rate)
        logger.info("retriever epoch %d mean loss %.6f", epoch, total / len(prepared))
    return trained


def retriever_corpus_loss(model: BiEncoder, sets: list[ScoredCandidateSet],
                          lam: float) -> float:
    total = 0.0
    for s in sets:
        input_feats, demo_feats = _set_features(s, model.config.vocab_buckets)
        loss, _ = set_loss_and_grad(model.embeddings, input_feats, demo_feats,
                                    s.positive_index(), s.ranks(), lam)
        total += loss
    return total / len(sets)


# ---------------------------------------------------------------------------
# Dense retrieval


@dataclass
class DenseIndex:
    pool: list[Demonstration]
    matrix: np.ndarray  # (len(pool), dim)
    warned_oversized: bool = field(default=False, init=False)  # retrieve_topD warns once

    @classmethod
    def build(cls, model: BiEncoder, pool: list[Demonstration]) -> "DenseIndex":
        if len(pool) == 0:
            raise ValueError("cannot index an empty pool")
        matrix = np.stack([encode(model, demo_text(d)) for d in pool])
        return cls(pool, matrix)


def retrieve_topD(index: DenseIndex, model: BiEncoder, input, D: int) -> list[Demonstration]:
    """Top-D pool demos by dot-product similarity, ties by pool ordinal."""
    if D <= 0:
        raise ValueError("D must be positive")
    if D > len(index.pool) and not index.warned_oversized:
        logger.warning("requested top %d from a pool of %d; returning all",
                       D, len(index.pool))
        index.warned_oversized = True
    u = encode(model, input_text(input.query.text, input.passage.text))
    scores = index.matrix @ u
    order = np.argsort(-scores, kind="stable")
    return [index.pool[int(i)] for i in order[:D]]


# ---------------------------------------------------------------------------
# Scored-candidate IO: {"input_id", "candidates": [{"demo_ref", "llm_score"}]}


def write_scored_sets(path, sets: list[ScoredCandidateSet]) -> None:
    write_jsonl(path, ({
        "input_id": s.input.input_id,
        "candidates": [{"demo_ref": list(c.demo.ref), "llm_score": c.llm_score}
                       for c in s.candidates],
    } for s in sets))


def load_scored_sets(path, inputs: list[TrainingInput],
                     pool: list[Demonstration]) -> list[ScoredCandidateSet]:
    refs = RefResolver(inputs, pool)
    return read_jsonl(path, lambda obj: ScoredCandidateSet(refs.input(obj["input_id"]), [
        ScoredCandidate(refs.demo(c["demo_ref"]), float(c["llm_score"]))
        for c in obj["candidates"]]), "scored set")
