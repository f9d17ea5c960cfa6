"""BM25 over demonstration pools plus the BM25+random candidate miner.

Scoring uses the non-negative idf variant ln(1 + (N - df + 0.5) / (df + 0.5)),
so absent terms contribute nothing and present terms never hurt.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache
from math import log

from .data import Demonstration, TrainingInput, pair_text

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


class EmptyIndexError(ValueError):
    pass


class PoolTooSmallError(ValueError):
    pass


@lru_cache(maxsize=1 << 17)
def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase and split on runs of non-alphanumeric characters."""
    return tuple(_TOKEN_RE.findall(text.lower()))


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 0.9
    b: float = 0.4

    def __post_init__(self) -> None:
        if self.k1 < 0 or not 0 <= self.b <= 1:
            raise ValueError(f"bad BM25 params k1={self.k1} b={self.b}")


@dataclass
class InvertedIndex:
    postings: dict[str, list[tuple[int, int]]]  # term -> [(doc ordinal, tf)]
    doc_lengths: list[int]
    avg_doc_length: float

    @property
    def doc_count(self) -> int:
        return len(self.doc_lengths)


def build_index(texts: list[str]) -> InvertedIndex:
    postings: dict[str, list[tuple[int, int]]] = {}
    lengths = []
    for ordinal, text in enumerate(texts):
        toks = tokenize(text)
        lengths.append(len(toks))
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        for term, count in tf.items():
            postings.setdefault(term, []).append((ordinal, count))
    avg = sum(lengths) / len(lengths) if lengths else 0.0
    return InvertedIndex(postings, lengths, avg)


def build_pool_index(pool: list[Demonstration]) -> InvertedIndex:
    return build_index([pair_text(d) for d in pool])


def bm25_search(index: InvertedIndex, params: Bm25Params, query_text: str,
                top: int) -> list[tuple[int, float]]:
    """Top documents for a query as (ordinal, score), ties by ascending ordinal.

    Only documents sharing at least one term with the query are returned, so
    the result may be shorter than `top`.  Duplicate query terms count once,
    and terms are summed in sorted order, so no score depends on the hash seed.
    """
    if index.doc_count == 0:
        raise EmptyIndexError("cannot search an empty index")
    n = index.doc_count
    avgdl = index.avg_doc_length or 1.0
    scores: dict[int, float] = {}
    for term in sorted(set(tokenize(query_text))):
        plist = index.postings.get(term)
        if not plist:
            continue
        df = len(plist)
        idf = log(1.0 + (n - df + 0.5) / (df + 0.5))
        for ordinal, tf in plist:
            norm = params.k1 * (1.0 - params.b + params.b * index.doc_lengths[ordinal] / avgdl)
            scores[ordinal] = scores.get(ordinal, 0.0) + idf * tf * (params.k1 + 1.0) / (tf + norm)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:top]


def mine_candidates(pool: list[Demonstration], index: InvertedIndex, input: TrainingInput,
                    b: int, rng_seed: int,
                    params: Bm25Params = Bm25Params()) -> list[Demonstration]:
    """Candidate demonstrations for one training input: b by BM25, b at random.

    BM25 is keyed on the input's query and passage text concatenated.  The
    random half is drawn seeded, without replacement, from the remainder of the
    pool; BM25 shortfall (fewer than b lexical matches) is topped up from the
    random remainder so the result always has exactly 2b distinct entries.
    """
    if b <= 0:
        raise ValueError("b must be positive")
    if len(pool) < 2 * b:
        raise PoolTooSmallError(f"pool has {len(pool)} demos, need at least {2 * b}")
    hits = [ordinal for ordinal, _ in bm25_search(index, params, pair_text(input), top=b)]
    hit_set = set(hits)
    rest = [i for i in range(len(pool)) if i not in hit_set]
    need = 2 * b - len(hits)
    rng = random.Random(rng_seed)
    picked = rng.sample(rest, need)
    return [pool[i] for i in hits] + [pool[i] for i in picked]
