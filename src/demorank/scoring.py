"""Pointwise LLM scorer abstraction.

A scorer backend maps a request (task description, k demonstrations, one
test input) to a probability distribution over the Yes/No label space.
Two backends ship: a deterministic mock built on token overlap, used for all
tests and desk experiments, and an HTTP client for a real model server.  The
HTTP client imports `requests` when it is built, so a process that only uses
the mock never loads it.
"""

from __future__ import annotations

import json
import logging
import random
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from hashlib import sha256
from math import exp, isfinite
from typing import TYPE_CHECKING, Callable, Protocol
from urllib.parse import urlsplit, urlunsplit

from .bm25 import tokenize
from .data import Demonstration, Label, LABEL_SPACE, TrainingInput

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

ENV_SCORER_URL = "DEMORANK_SCORER_URL"

DEFAULT_TASK = (
    "Given a passage and a query, decide whether the passage answers the query."
)
DEFAULT_INPUT_FORMAT = (
    "Passage: {passage}\nQuery: {query}\nDoes the passage answer the query? Answer:"
)
DEFAULT_DEMO_FORMAT = DEFAULT_INPUT_FORMAT + " {label}"


class BackendError(RuntimeError):
    pass


class BackendUnavailableError(BackendError):
    """All retry attempts failed."""


class MalformedResponseError(BackendError):
    pass


def _json_number(value) -> float:
    """A JSON number as a float; TypeError for a bool, a string or any other
    value, OverflowError for an int beyond float range."""
    if type(value) not in (int, float):
        raise TypeError(f"not a JSON number: {value!r}")
    return float(value)


@dataclass(frozen=True)
class PromptTemplate:
    task_description: str = DEFAULT_TASK
    demo_format: str = DEFAULT_DEMO_FORMAT
    input_format: str = DEFAULT_INPUT_FORMAT
    separator: str = "\n\n"

    def __post_init__(self) -> None:
        for name, fmt, holes in (
            ("demo_format", self.demo_format, ("{query}", "{passage}", "{label}")),
            ("input_format", self.input_format, ("{query}", "{passage}")),
        ):
            for hole in holes:
                if fmt.count(hole) != 1:
                    raise ValueError(f"{name} must contain {hole} exactly once")
        if "{label}" in self.input_format:
            raise ValueError("input_format must not contain {label}")


@dataclass(frozen=True)
class ScoreRequest:
    template: PromptTemplate
    demos: tuple[Demonstration, ...]
    input_query: str
    input_passage: str
    label_space: tuple[str, str] = LABEL_SPACE

    def body(self) -> dict:
        """The `/v1/score` JSON; the template contributes only its task description."""
        return {
            "task_description": self.template.task_description,
            "demonstrations": [
                {"query": d.query.text, "passage": d.passage.text, "label": d.label.value}
                for d in self.demos
            ],
            "input": {"query": self.input_query, "passage": self.input_passage},
            "label_space": list(self.label_space),
        }

    def digest(self) -> str:
        return sha256(json.dumps(self.body()).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class LabelDistribution:
    p_yes: float
    p_no: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_yes <= 1.0 and 0.0 <= self.p_no <= 1.0):
            raise ValueError(f"probabilities out of range: {self.p_yes}, {self.p_no}")
        if abs(self.p_yes + self.p_no - 1.0) > 1e-9:
            raise ValueError(f"distribution does not sum to 1: {self.p_yes} + {self.p_no}")

    @classmethod
    def from_unnormalized(cls, yes: float, no: float) -> "LabelDistribution":
        if yes < 0 or no < 0:
            raise MalformedResponseError(f"negative mass: yes={yes} no={no}")
        total = yes + no
        if not isfinite(total):  # NaN, infinite or overflowing mass
            raise MalformedResponseError(f"non-finite mass: yes={yes} no={no}")
        if total <= 0:
            raise MalformedResponseError("zero total mass over the label space")
        return cls(yes / total, no / total)

    def p(self, label: Label) -> float:
        return self.p_yes if label is Label.YES else self.p_no


class ScorerBackend(Protocol):
    def distribution(self, request: ScoreRequest) -> LabelDistribution: ...


# ---------------------------------------------------------------------------
# Mock backend


@lru_cache(maxsize=1 << 17)
def _word_set(text: str) -> frozenset[str]:
    return frozenset(tokenize(text))


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + exp(-x))
    z = exp(x)
    return z / (1.0 + z)


@dataclass(frozen=True)
class MockScorerWeights:
    rel: float = 2.0
    div: float = 1.0
    bal: float = 1.0
    raw_scale: float = 2.0
    offset: float = -1.0
    relevance: float = 3.0


class MockScorer:
    """Deterministic stand-in for an LLM relevance scorer.

    p_yes = sigmoid(raw_scale * raw + offset + relevance * tr * overlap) where
    raw = rel * relevance_of_demos + div * demo_diversity + bal * label_balance,
    overlap is the query-passage Jaccard similarity, and tr is +1 when the pair
    is truly relevant (ground-truth oracle when available, otherwise an overlap
    threshold) and -1 otherwise.  Invariant under demonstration permutation.
    """

    def __init__(self, weights: MockScorerWeights = MockScorerWeights(),
                 relevance_fn: Callable[[str, str], bool | None] | None = None,
                 relevance_threshold: float = 0.2) -> None:
        self.weights = weights
        self.relevance_fn = relevance_fn
        self.relevance_threshold = relevance_threshold

    def identity(self) -> str:
        oracle = " oracle" if self.relevance_fn is not None else ""
        return f"mock {self.weights!r} {self.relevance_threshold!r}{oracle}"

    def distribution(self, request: ScoreRequest) -> LabelDistribution:
        w = self.weights
        input_words = _word_set(f"{request.input_query} {request.input_passage}")
        demos = request.demos
        m = len(demos)

        rel = 0.0
        if m:
            rel = sum(
                _jaccard(_word_set(f"{d.query.text} {d.passage.text}"), input_words)
                for d in demos
            ) / m

        div = 0.0
        if m > 1:
            qsets = [_word_set(d.query.text) for d in demos]
            acc = 0.0
            for j in range(m):
                for l in range(j + 1, m):
                    acc += 1.0 - _jaccard(qsets[j], qsets[l])
            div = 2.0 * acc / (m * (m - 1))

        bal = 0.0
        if m:
            yes = sum(1 for d in demos if d.label is Label.YES)
            bal = 1.0 - abs(yes - (m - yes)) / m

        raw = w.rel * rel + w.div * div + w.bal * bal
        overlap = _jaccard(_word_set(request.input_query), _word_set(request.input_passage))
        truly_relevant = None
        if self.relevance_fn is not None:
            truly_relevant = self.relevance_fn(request.input_query, request.input_passage)
        if truly_relevant is None:
            truly_relevant = overlap > self.relevance_threshold
        tr = 1.0 if truly_relevant else -1.0

        p_yes = _sigmoid(w.raw_scale * raw + w.offset + w.relevance * tr * overlap)
        return LabelDistribution(p_yes, 1.0 - p_yes)


# ---------------------------------------------------------------------------
# HTTP backend

SCORE_PATH = "/v1/score"
# 4xx statuses that say "try again later" rather than "this request is wrong".
RETRYABLE_4XX = (408, 429)


class HttpScorer:
    """Client for a scorer server speaking the /v1/score JSON protocol.

    Retries timeouts, connection failures, 5xx, 408 and 429 statuses, other
    non-2xx statuses outside 4xx, and malformed bodies with exponential
    backoff plus jitter, logging each retry at WARNING; after `max_retries`
    attempts raises BackendUnavailableError.  Any other 4xx status raises
    BackendError at once, since resending the same request cannot fix it.
    A semaphore bounds in-flight requests.
    """

    def __init__(self, base_url: str, timeout: float = 10.0, max_retries: int = 3,
                 backoff_base: float = 0.5, max_in_flight: int = 8,
                 session: requests.Session | None = None) -> None:
        if max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        try:
            parts = urlsplit(base_url)
            if parts.scheme not in ("http", "https") or not parts.hostname:
                raise ValueError
        except ValueError:
            raise ValueError(f"scorer endpoint {base_url!r} is not an http:// or "
                             "https:// URL with a host") from None
        import requests

        # /v1/score joins the path; the query stays
        self.url = urlunsplit(parts._replace(path=parts.path.rstrip("/") + SCORE_PATH))
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self._session = session or requests.Session()
        self._gate = threading.Semaphore(max_in_flight)

    def identity(self) -> str:
        return f"http {self.url}"

    def _parse(self, resp: requests.Response, request: ScoreRequest) -> LabelDistribution:
        try:
            p = resp.json()["p"]
            yes, no = (_json_number(p[label]) for label in request.label_space)
        except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
            raise MalformedResponseError(f"bad response body: {exc}") from exc
        return LabelDistribution.from_unnormalized(yes, no)

    def distribution(self, request: ScoreRequest) -> LabelDistribution:
        from requests import RequestException  # loaded by __init__

        last_err: Exception | None = None
        for attempt in range(self.max_retries):
            if attempt:
                delay = self.backoff_base * (2 ** (attempt - 1))
                logger.warning("scorer at %s: attempt %d of %d failed (%s); retrying",
                               self.url, attempt, self.max_retries, cause)
                time.sleep(delay + random.uniform(0, 0.1 * delay))
            try:
                with self._gate:
                    resp = self._session.post(self.url, json=request.body(), timeout=self.timeout)
                status = resp.status_code
                if 400 <= status < 500 and status not in RETRYABLE_4XX:
                    raise BackendError(
                        f"scorer at {self.url} rejected the request with status {status} "
                        f"(query={request.input_query[:60]!r})")
                if not 200 <= status < 300:
                    last_err = BackendError(f"status {status}")
                    cause = f"status {status}"
                    continue
                return self._parse(resp, request)
            except (MalformedResponseError, RequestException) as exc:
                last_err = exc
                cause = type(exc).__name__
        raise BackendUnavailableError(
            f"scorer at {self.url} failed after {self.max_retries} attempts "
            f"(query={request.input_query[:60]!r}): {last_err}"
        ) from last_err


# ---------------------------------------------------------------------------
# Cache


class ScoreCache:
    """Thread-safe map from a key (see `CachedScorer`) to a `LabelDistribution`."""

    def __init__(self) -> None:
        self._store: dict[str, LabelDistribution] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)

    def lookup(self, digest: str) -> LabelDistribution | None:
        with self._lock:
            got = self._store.get(digest)
            if got is None:
                self.misses += 1
            else:
                self.hits += 1
            return got

    def store(self, digest: str, dist: LabelDistribution) -> None:
        with self._lock:
            self._store[digest] = dist

    def save(self, path) -> None:
        with self._lock:
            snapshot = {k: [d.p_yes, d.p_no] for k, d in self._store.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh)

    def load(self, path) -> None:
        """Merge a saved cache; ValueError if the file is not one, or if an
        entry is not a distribution `LabelDistribution` accepts."""
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        try:  # a JSON value that unpacks into two numbers is a [number, number] list
            entries = {k: LabelDistribution(_json_number(yes), _json_number(no))
                       for k, (yes, no) in obj.items()}
        except (ArithmeticError, AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"not a JSON object of [p_yes, p_no] pairs: {exc}") from exc
        with self._lock:
            self._store.update(entries)


class CachedScorer:
    """Read-through cache around any backend; identical values either way.

    Entries are keyed on the backend's identity (its `identity()`, else its
    class name) plus the request digest, so one cache shared by differently
    configured scorers never serves one scorer's values to another.
    """

    def __init__(self, backend: ScorerBackend, cache: ScoreCache | None = None) -> None:
        self.backend = backend
        self.cache = cache if cache is not None else ScoreCache()
        identity = getattr(backend, "identity", lambda: type(backend).__qualname__)()
        self._scope = sha256(identity.encode("utf-8")).hexdigest()[:16] + ":"

    def distribution(self, request: ScoreRequest) -> LabelDistribution:
        key = self._scope + request.digest()
        dist = self.cache.lookup(key)
        if dist is None:
            dist = self.backend.distribution(request)
            self.cache.store(key, dist)
        return dist


# ---------------------------------------------------------------------------
# Scoring entry points


def score_list(backend: ScorerBackend, template: PromptTemplate,
               demos, input: TrainingInput) -> float:
    """Normalized probability of the input's gold label given the demo list."""
    request = ScoreRequest(template, tuple(demos), input.query.text, input.passage.text)
    return backend.distribution(request).p(input.gold)


def relevance_score(backend: ScorerBackend, template: PromptTemplate,
                    demos, query, passage) -> float:
    """Probability of Yes for a test pair; the ranking score."""
    request = ScoreRequest(template, tuple(demos), query.text, passage.text)
    return backend.distribution(request).p_yes
