"""Tests for prompt templates, the mock scorer, caching, and the HTTP client."""

import contextlib
import http.server
import json
import math
import random
import threading
from hashlib import sha256
from types import SimpleNamespace

import pytest

from demorank.data import Demonstration, Label, Passage, Query, TrainingInput
from demorank.scoring import (
    BackendError,
    BackendUnavailableError,
    CachedScorer,
    HttpScorer,
    LabelDistribution,
    MalformedResponseError,
    MockScorer,
    MockScorerWeights,
    PromptTemplate,
    ScoreCache,
    ScoreRequest,
    score_list,
)


def demo(query, passage, label):
    return Demonstration(Query("dq", query), Passage("dp", passage),
                         Label.YES if label == "Yes" else Label.NO)


def request(demos, query, passage, template=None):
    return ScoreRequest(template or PromptTemplate(), tuple(demos), query, passage)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


class TestPromptTemplate:
    def test_missing_hole_rejected(self):
        with pytest.raises(ValueError):
            PromptTemplate(demo_format="no holes {label}")
        with pytest.raises(ValueError):
            PromptTemplate(input_format="only {query}")

    def test_duplicate_hole_rejected(self):
        with pytest.raises(ValueError):
            PromptTemplate(demo_format="{query}{query}{passage}{label}")

    def test_label_in_input_format_rejected(self):
        with pytest.raises(ValueError):
            PromptTemplate(input_format="{query}{passage}{label}")


class TestScoreRequestDigest:
    def test_equal_requests_equal_digests(self):
        a = request([demo("q", "p", "Yes")], "iq", "ip")
        b = request([demo("q", "p", "Yes")], "iq", "ip")
        assert a.digest() == b.digest()

    def test_digest_sensitive_to_every_field(self):
        base = request([demo("q", "p", "Yes")], "iq", "ip")
        variants = [
            request([demo("q", "p", "No")], "iq", "ip"),
            request([demo("q", "p2", "Yes")], "iq", "ip"),
            request([], "iq", "ip"),
            request([demo("q", "p", "Yes")], "iq2", "ip"),
            request([demo("q", "p", "Yes")], "iq", "ip2"),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == len(variants) + 1

    def test_digest_sensitive_to_label_space(self):
        a = request([], "iq", "ip")
        b = ScoreRequest(PromptTemplate(), (), "iq", "ip",
                         label_space=("True", "False"))
        assert a.digest() != b.digest()

    def test_demo_and_input_do_not_collide_with_a_crafted_passage(self):
        """A request without demos whose passage spells out a demo and the
        input in the default formats is still a different request."""
        with_demo = request([demo("alpha", "beta", "Yes")], "gamma", "delta")
        crafted = request([], "gamma", "beta\nQuery: alpha\nDoes the passage answer"
                          " the query? Answer: Yes\n\nPassage: delta")
        assert with_demo.body() != crafted.body()
        assert with_demo.digest() != crafted.digest()

    def test_only_the_task_description_of_the_template_counts(self):
        demos = [demo("q", "p", "Yes")]
        base = request(demos, "iq", "ip").digest()
        for fields in ({"demo_format": "D {query}|{passage}|{label}"},
                       {"input_format": "I {query}|{passage}"},
                       {"separator": " :: "}):
            assert request(demos, "iq", "ip", PromptTemplate(**fields)).digest() == base
        assert request(demos, "iq", "ip", PromptTemplate(task_description="TASK")
                       ).digest() != base

    def test_digest_is_the_hash_of_the_body(self):
        req = request([demo("q", "p", "No")], "iq", "ip")
        assert req.digest() == sha256(json.dumps(req.body()).encode("utf-8")).hexdigest()


class TestLabelDistribution:
    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            LabelDistribution(1.2, -0.2)
        with pytest.raises(ValueError):
            LabelDistribution(0.6, 0.6)

    def test_from_unnormalized_renormalizes(self):
        dist = LabelDistribution.from_unnormalized(3.0, 1.0)
        assert dist.p_yes == pytest.approx(0.75)
        assert dist.p_no == pytest.approx(0.25)

    def test_from_unnormalized_rejects_bad_mass(self):
        with pytest.raises(MalformedResponseError):
            LabelDistribution.from_unnormalized(-1.0, 2.0)
        with pytest.raises(MalformedResponseError):
            LabelDistribution.from_unnormalized(0.0, 0.0)
        with pytest.raises(MalformedResponseError, match="non-finite"):
            LabelDistribution.from_unnormalized(float("nan"), 1.0)

    def test_label_indexing(self):
        dist = LabelDistribution(0.7, 0.3)
        assert dist.p(Label.YES) == pytest.approx(0.7)
        assert dist.p(Label.NO) == pytest.approx(0.3)


class TestMockScorer:
    def test_zero_demos_no_overlap(self):
        # raw = 0, overlap = 0, not truly relevant: p_yes = sigmoid(-1).
        scorer = MockScorer()
        dist = scorer.distribution(request([], "alpha", "beta"))
        assert dist.p_yes == pytest.approx(sigmoid(-1.0), abs=1e-12)
        assert dist.p_yes == pytest.approx(0.2689414213699951, abs=1e-12)

    def test_texts_without_tokens_have_no_overlap(self):
        # No text holds a word, and the Jaccard of two empty sets is 0: rel = 0,
        # div = 1 - 0 = 1, one Yes and one No give bal = 1, overlap = 0, so
        # p_yes = sigmoid(2 * (0 + 1 + 1) - 1).
        scorer = MockScorer()
        demos = [demo("?", "", "Yes"), demo("", "...", "No")]
        dist = scorer.distribution(request(demos, "", "!"))
        assert dist.p_yes == pytest.approx(sigmoid(3.0), abs=1e-12)

    def test_overlap_above_threshold_flips_sign(self):
        # Query {a, b, c} vs passage {a, b, d}: Jaccard 2/4 = 0.5 > 0.2,
        # so the pair counts as relevant: p_yes = sigmoid(-1 + 3 * 0.5).
        scorer = MockScorer()
        dist = scorer.distribution(request([], "a b c", "a b d"))
        assert dist.p_yes == pytest.approx(sigmoid(0.5), abs=1e-12)

    def test_full_hand_example(self):
        # Demo 1 duplicates the input pair (Jaccard 1), demo 2 is disjoint
        # (Jaccard 0): rel = 0.5.  The two demo queries are disjoint: div = 1.
        # One Yes and one No: bal = 1.  raw = 2 * 0.5 + 1 + 1 = 3.
        # Input overlap 0, not relevant: p_yes = sigmoid(2 * 3 - 1) = sigmoid(5).
        scorer = MockScorer()
        demos = [demo("a b", "c d", "Yes"), demo("x y", "z w", "No")]
        dist = scorer.distribution(request(demos, "a b", "c d"))
        assert dist.p_yes == pytest.approx(sigmoid(5.0), abs=1e-12)

    def test_custom_weights_respected(self):
        weights = MockScorerWeights(rel=0.0, div=0.0, bal=0.0, raw_scale=1.0,
                                    offset=0.25, relevance=0.0)
        scorer = MockScorer(weights)
        dist = scorer.distribution(request([demo("a", "b", "Yes")], "x", "y"))
        assert dist.p_yes == pytest.approx(sigmoid(0.25), abs=1e-12)

    def test_demo_order_invariance(self):
        rng = random.Random(42)
        words = ["sun", "moon", "star", "rain", "wind", "snow", "fog", "hail"]
        for trial in range(20):
            demos = [demo(" ".join(rng.sample(words, 3)),
                          " ".join(rng.sample(words, 3)),
                          rng.choice(["Yes", "No"]))
                     for _ in range(rng.randint(2, 5))]
            query = " ".join(rng.sample(words, 3))
            passage = " ".join(rng.sample(words, 3))
            scorer = MockScorer()
            base = scorer.distribution(request(demos, query, passage))
            shuffled = demos[:]
            rng.shuffle(shuffled)
            again = scorer.distribution(request(shuffled, query, passage))
            assert again.p_yes == base.p_yes

    def test_relevance_oracle_overrides_overlap(self):
        yes_oracle = MockScorer(relevance_fn=lambda q, p: True)
        no_oracle = MockScorer(relevance_fn=lambda q, p: False)
        # Overlap is high, yet the oracle verdict decides the sign.
        req = request([], "a b c", "a b c")
        assert yes_oracle.distribution(req).p_yes == pytest.approx(
            sigmoid(-1.0 + 3.0), abs=1e-12)
        assert no_oracle.distribution(req).p_yes == pytest.approx(
            sigmoid(-1.0 - 3.0), abs=1e-12)

    def test_relevance_oracle_none_falls_back_to_threshold(self):
        scorer = MockScorer(relevance_fn=lambda q, p: None)
        plain = MockScorer()
        req = request([], "a b c", "a b d")
        assert (scorer.distribution(req).p_yes
                == plain.distribution(req).p_yes)

    def test_balanced_demos_beat_one_sided(self):
        # With disjoint same-structure demos, flipping one label to balance
        # the set raises bal from 0 to 1 and leaves rel and div unchanged.
        scorer = MockScorer()
        one_sided = [demo("k1 k2", "k3 k4", "Yes"), demo("m1 m2", "m3 m4", "Yes")]
        balanced = [demo("k1 k2", "k3 k4", "Yes"), demo("m1 m2", "m3 m4", "No")]
        req_one = request(one_sided, "zz yy", "xx ww")
        req_bal = request(balanced, "zz yy", "xx ww")
        assert (scorer.distribution(req_bal).p_yes
                > scorer.distribution(req_one).p_yes)

    def test_diverse_demos_beat_duplicates(self):
        # Same labels and zero input overlap either way; distinct demo
        # queries raise div above the duplicated pair's zero.
        scorer = MockScorer()
        dup = [demo("k1 k2", "aa bb", "Yes"), demo("k1 k2", "cc dd", "No")]
        div = [demo("k1 k2", "aa bb", "Yes"), demo("m1 m2", "cc dd", "No")]
        req_dup = request(dup, "zz yy", "xx ww")
        req_div = request(div, "zz yy", "xx ww")
        assert (scorer.distribution(req_div).p_yes
                > scorer.distribution(req_dup).p_yes)


class TestScoringEntryPoints:
    def test_score_list_returns_gold_probability(self):
        scorer = MockScorer()
        inp_yes = TrainingInput(Query("q", "a b c"), Passage("p", "a b d"),
                                Label.YES)
        inp_no = TrainingInput(Query("q", "a b c"), Passage("p", "a b d"),
                               Label.NO)
        template = PromptTemplate()
        p_yes = score_list(scorer, template, [], inp_yes)
        p_no = score_list(scorer, template, [], inp_no)
        assert p_yes == pytest.approx(sigmoid(0.5), abs=1e-12)
        assert p_no == pytest.approx(1.0 - sigmoid(0.5), abs=1e-12)


class TestScoreCache:
    def test_lookup_and_store_with_stats(self):
        cache = ScoreCache()
        assert cache.lookup("k") is None
        assert cache.misses == 1
        cache.store("k", LabelDistribution(0.6, 0.4))
        assert cache.lookup("k") == LabelDistribution(0.6, 0.4)
        assert cache.hits == 1
        assert len(cache) == 1

    def test_save_load_round_trip(self, tmp_path):
        cache = ScoreCache()
        cache.store("a", LabelDistribution(0.6, 0.4))
        cache.store("b", LabelDistribution(0.1, 0.9))
        cache.save(tmp_path / "cache.json")
        assert (tmp_path / "cache.json").read_text(encoding="utf-8") == (
            '{"a": [0.6, 0.4], "b": [0.1, 0.9]}')
        fresh = ScoreCache()
        fresh.load(tmp_path / "cache.json")
        assert fresh.lookup("a") == LabelDistribution(0.6, 0.4)
        assert fresh.lookup("b") == LabelDistribution(0.1, 0.9)

    def test_load_keeps_only_the_scope(self, tmp_path):
        cache = ScoreCache()
        for key in ("s1:a", "s1:b", "s2:a"):
            cache.store(key, LabelDistribution(0.6, 0.4))
        cache.save(tmp_path / "cache.json")
        fresh = ScoreCache()
        fresh.load(tmp_path / "cache.json", "s1:")
        fresh.save(tmp_path / "cache.json")
        assert (tmp_path / "cache.json").read_text(encoding="utf-8") == (
            '{"s1:a": [0.6, 0.4], "s1:b": [0.6, 0.4]}')

    def test_entry_beyond_float_range_is_unreadable(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"k": [1' + "0" * 400 + ', 0]}')
        with pytest.raises(ValueError, match="not a JSON object of"):
            ScoreCache().load(path)


class CountingScorer:
    """Wraps MockScorer and counts distribution calls."""

    def __init__(self):
        self.inner = MockScorer()
        self.calls = 0

    def distribution(self, req):
        self.calls += 1
        return self.inner.distribution(req)

    def distributions(self, reqs):
        return [self.distribution(r) for r in reqs]


class BatchRecorder:
    """Wraps MockScorer and records each batch `distributions` receives."""

    def __init__(self):
        self.inner = MockScorer()
        self.batches = []

    def distributions(self, reqs):
        self.batches.append(list(reqs))
        return self.inner.distributions(reqs)


class TestCachedScorer:
    def test_transparent_and_caches(self):
        backend = CountingScorer()
        cached = CachedScorer(backend)
        req = request([], "a b c", "a b d")
        direct = backend.inner.distribution(req)
        first = cached.distribution(req)
        second = cached.distribution(req)
        assert first == direct
        assert second == direct
        assert backend.calls == 1
        assert cached.cache.hits == 1
        assert cached.cache.misses == 1

    def test_distinct_requests_not_conflated(self):
        cached = CachedScorer(CountingScorer())
        a = cached.distribution(request([], "a b c", "a b c"))
        b = cached.distribution(request([], "x y", "z w"))
        assert a != b
        assert len(cached.cache) == 2

    def test_shared_cache_is_scoped_by_scorer_identity(self):
        shared = ScoreCache()
        req = request([], "a b c", "a b d")
        first = CachedScorer(MockScorer(), shared)
        other = CachedScorer(MockScorer(MockScorerWeights(offset=0.5)), shared)
        same = CachedScorer(MockScorer(), shared)
        # a ground-truth oracle that calls the pair irrelevant, where the
        # overlap threshold alone calls it relevant
        irrelevant = MockScorer(relevance_fn=lambda q, p: False)
        oracle = CachedScorer(irrelevant, shared)
        assert first.distribution(req) != other.distribution(req)
        assert same.distribution(req) == first.distribution(req)
        assert oracle.distribution(req) == irrelevant.distribution(req) != first.distribution(req)
        assert (shared.misses, shared.hits, len(shared)) == (3, 3, 3)
        urls = {HttpScorer(u).identity() for u in ("http://a:1", "http://a:1/", "http://b:1")}
        assert len(urls) == 2

    def test_thread_safety(self):
        backend = CountingScorer()
        cached = CachedScorer(backend)
        requests_pool = [request([], f"query {i}", f"passage {i}")
                         for i in range(8)]
        expected = {r.digest(): backend.inner.distribution(r)
                    for r in requests_pool}
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(50):
                req = rng.choice(requests_pool)
                got = cached.distribution(req)
                if got != expected[req.digest()]:
                    errors.append((req.input_query, got))

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(cached.cache) == len(requests_pool)
        total = cached.cache.hits + cached.cache.misses
        assert total == 8 * 50

    def test_batch_sends_each_distinct_miss_once_in_first_seen_order(self, tmp_path):
        backend = BatchRecorder()
        cached = CachedScorer(backend)
        a, b, c = (request([], f"query {x}", f"passage {x}") for x in "abc")
        cached.distributions([c])
        batch = [a, c, b, a]
        got = cached.distributions(batch)
        assert got == [backend.inner.distribution(r) for r in batch]
        assert backend.batches == [[c], [a, b]]
        # c missed, then a missed, c hit and b missed; the repeated a is not looked up
        assert (cached.cache.hits, cached.cache.misses) == (1, 3)
        assert cached.distributions(batch) == got
        assert len(backend.batches) == 2  # all hits: no backend call
        cached.cache.save(tmp_path / "batch.json")
        one_by_one = CachedScorer(BatchRecorder())
        for req in [c] + batch:
            one_by_one.distribution(req)
        one_by_one.cache.save(tmp_path / "one_by_one.json")
        assert (tmp_path / "batch.json").read_bytes() == \
            (tmp_path / "one_by_one.json").read_bytes()

    def test_batch_keeps_the_results_before_a_backend_failure(self):
        class FailsThird(BatchRecorder):
            def distributions(self, reqs):
                for i, req in enumerate(reqs):
                    if i == 2:
                        raise BackendUnavailableError("down")
                    yield self.inner.distribution(req)

        cached = CachedScorer(FailsThird())
        batch = [request([], f"query {i}", f"passage {i}") for i in range(4)]
        with pytest.raises(BackendUnavailableError):
            cached.distributions(batch)
        assert len(cached.cache) == 2
        cached.backend = MockScorer()
        assert cached.distributions(batch[:2]) == cached.backend.distributions(batch[:2])
        assert cached.cache.hits == 2


@contextlib.contextmanager
def answering_server(answer, hold_until=0):
    """Local threaded HTTP server answering each POST with `answer(body)`, a
    (status, payload) pair.  Each request is held until `hold_until` requests
    have been in flight at once (for at most 5 s), so a client that sends that
    many concurrently is seen doing so however slowly its threads start.

    Yields the base URL and a namespace holding `seen`, the list of
    (path, parsed body) requests received, and `peak`, the most requests it
    served at once.
    """
    state = SimpleNamespace(seen=[], in_flight=0, peak=0)
    lock = threading.Lock()
    reached = threading.Event()

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length) if length else b""
            try:
                body = json.loads(raw)
            except ValueError:
                body = None
            with lock:
                state.seen.append((self.path, body))
                state.in_flight += 1
                state.peak = max(state.peak, state.in_flight)
                if state.in_flight >= hold_until:
                    reached.set()
                status, payload = answer(body)
            reached.wait(timeout=5.0)
            with lock:
                state.in_flight -= 1
            data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", state
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@contextlib.contextmanager
def scripted_server(script):
    """`answering_server` that answers from a list of (status, body) pairs.

    The last entry repeats once the script is exhausted.  Yields the base URL
    and the list of (path, parsed body) requests seen.
    """
    remaining = list(script)

    def answer(body):
        return remaining.pop(0) if len(remaining) > 1 else remaining[0]

    with answering_server(answer) as (url, state):
        yield url, state.seen


class TestHttpScorer:
    def test_success_renormalizes(self):
        with scripted_server([(200, {"p": {"Yes": 3, "No": 1}})]) as (url, seen):
            scorer = HttpScorer(url, max_retries=1)
            dist = scorer.distribution(request([demo("q", "p", "Yes")], "iq", "ip"))
        assert dist.p_yes == pytest.approx(0.75)
        assert dist.p_no == pytest.approx(0.25)
        path, body = seen[0]
        assert path == "/v1/score"
        assert body["input"] == {"query": "iq", "passage": "ip"}
        assert body["label_space"] == ["Yes", "No"]
        assert body["demonstrations"] == [
            {"query": "q", "passage": "p", "label": "Yes"}]

    def test_server_receives_the_request_body(self):
        req = request([demo("q1", "p1", "Yes"), demo("q2", "p2", "No")], "iq", "ip",
                      PromptTemplate(task_description="TASK"))
        with scripted_server([(200, {"p": {"Yes": 1, "No": 1}})]) as (url, seen):
            HttpScorer(url, max_retries=1).distribution(req)
        assert [body for _, body in seen] == [req.body()]

    def test_retries_server_error_then_succeeds(self):
        script = [(500, {}), (200, {"p": {"Yes": 1, "No": 1}})]
        with scripted_server(script) as (url, seen):
            scorer = HttpScorer(url, max_retries=3, backoff_base=0.001)
            dist = scorer.distribution(request([], "iq", "ip"))
            assert len(seen) == 2
        assert dist.p_yes == pytest.approx(0.5)

    def test_retry_logged_at_warning_with_attempt_and_cause(self, caplog):
        script = [(500, {}), (200, {"p": {"Yes": 1, "No": 1}})]
        with scripted_server(script) as (url, seen):
            scorer = HttpScorer(url, max_retries=3, backoff_base=0.001)
            with caplog.at_level("WARNING", logger="demorank.scoring"):
                scorer.distribution(request([], "iq", "ip"))
            assert len(seen) == 2
        retries = [r for r in caplog.records if r.name == "demorank.scoring"]
        assert len(retries) == 1
        assert retries[0].levelname == "WARNING"
        assert "attempt 1 of 3" in retries[0].getMessage()
        assert "status 500" in retries[0].getMessage()

    def test_connection_error_retry_names_exception_class(self, caplog):
        scorer = HttpScorer("http://127.0.0.1:9", timeout=0.2, max_retries=2,
                            backoff_base=0.001)
        with caplog.at_level("WARNING", logger="demorank.scoring"):
            with pytest.raises(BackendUnavailableError):
                scorer.distribution(request([], "iq", "ip"))
        messages = [r.getMessage() for r in caplog.records if r.name == "demorank.scoring"]
        assert len(messages) == 1
        assert "attempt 1 of 2" in messages[0] and "ConnectionError" in messages[0]

    @pytest.mark.parametrize("status", [400, 401, 404, 422])
    def test_client_error_is_sent_once(self, status, caplog):
        with scripted_server([(status, {"error": "bad request"}),
                              (200, {"p": {"Yes": 1, "No": 1}})]) as (url, seen):
            scorer = HttpScorer(url, max_retries=3, backoff_base=0.001)
            with caplog.at_level("WARNING", logger="demorank.scoring"):
                with pytest.raises(BackendError, match=f"status {status}") as excinfo:
                    scorer.distribution(request([], "iq", "ip"))
            assert len(seen) == 1
        assert not isinstance(excinfo.value, BackendUnavailableError)
        assert not [r for r in caplog.records if r.name == "demorank.scoring"]

    @pytest.mark.parametrize("status", [408, 429])
    def test_timeout_and_rate_limit_statuses_are_retried(self, status):
        script = [(status, {}), (200, {"p": {"Yes": 1, "No": 1}})]
        with scripted_server(script) as (url, seen):
            scorer = HttpScorer(url, max_retries=3, backoff_base=0.001)
            dist = scorer.distribution(request([], "iq", "ip"))
            assert len(seen) == 2
        assert dist.p_yes == pytest.approx(0.5)

    def test_exhausted_retries_raise_unavailable(self):
        with scripted_server([(503, {})]) as (url, seen):
            scorer = HttpScorer(url, max_retries=2, backoff_base=0.001)
            with pytest.raises(BackendUnavailableError):
                scorer.distribution(request([], "iq", "ip"))
            assert len(seen) == 2

    def test_connection_refused_raises_unavailable(self):
        scorer = HttpScorer("http://127.0.0.1:9", timeout=0.2, max_retries=2,
                            backoff_base=0.001)
        with pytest.raises(BackendUnavailableError):
            scorer.distribution(request([], "iq", "ip"))

    def test_malformed_body_raises_after_retries(self):
        with scripted_server([(200, {"oops": 1})]) as (url, seen):
            scorer = HttpScorer(url, max_retries=2, backoff_base=0.001)
            with pytest.raises(BackendUnavailableError) as excinfo:
                scorer.distribution(request([], "iq", "ip"))
            assert len(seen) == 2
        assert isinstance(excinfo.value.__cause__, MalformedResponseError)

    def test_negative_mass_is_malformed(self):
        with scripted_server([(200, {"p": {"Yes": -1, "No": 2}})]) as (url, _):
            scorer = HttpScorer(url, max_retries=1)
            with pytest.raises(BackendUnavailableError) as excinfo:
                scorer.distribution(request([], "iq", "ip"))
        assert isinstance(excinfo.value.__cause__, MalformedResponseError)

    @pytest.mark.parametrize("mass", [float("nan"), float("inf")])
    def test_non_finite_mass_is_malformed_and_retried(self, mass):
        """`resp.json()` parses NaN and Infinity; such a body is retried like
        any malformed one, not raised as a bare ValueError."""
        class Session:
            posts = 0

            def post(self, url, json, timeout):
                Session.posts += 1
                return SimpleNamespace(status_code=200,
                                       json=lambda: {"p": {"Yes": mass, "No": 1.0}})

        scorer = HttpScorer("http://scorer", max_retries=2, backoff_base=0.001,
                            session=Session())
        with pytest.raises(BackendUnavailableError) as excinfo:
            scorer.distribution(request([], "iq", "ip"))
        assert Session.posts == 2
        assert isinstance(excinfo.value.__cause__, MalformedResponseError)

    @pytest.mark.parametrize("p", [
        {"Yes": True, "No": False}, {"Yes": "0.8", "No": "0.2"}, {"Yes": 10 ** 400, "No": 1}])
    def test_values_that_are_not_json_numbers_are_malformed_and_retried(self, p):
        with scripted_server([(200, {"p": p})]) as (url, seen):
            scorer = HttpScorer(url, max_retries=2, backoff_base=0.001)
            with pytest.raises(BackendUnavailableError) as excinfo:
                scorer.distribution(request([], "iq", "ip"))
            assert len(seen) == 2
        assert isinstance(excinfo.value.__cause__, MalformedResponseError)

    @pytest.mark.parametrize("suffix, path", [
        ("", "/v1/score"), ("/", "/v1/score"),
        ("/api", "/api/v1/score"), ("/api/", "/api/v1/score"),
        ("/?key=abc", "/v1/score?key=abc"), ("/api/?key=abc", "/api/v1/score?key=abc")])
    def test_score_path_is_joined_onto_the_endpoint(self, suffix, path):
        with scripted_server([(200, {"p": {"Yes": 1, "No": 1}})]) as (url, seen):
            scorer = HttpScorer(url + suffix, max_retries=1)
            scorer.distribution(request([], "iq", "ip"))
        assert scorer.identity() == f"http {url}{path}"
        assert [p for p, _ in seen] == [path]

    def test_batch_is_answered_in_request_order_at_most_max_in_flight_at_once(self):
        reqs = [request([], f"query {i}", f"passage {i}") for i in range(8)]

        def answer(body):
            i = int(body["input"]["query"].split()[1])
            return 200, {"p": {"Yes": i + 1, "No": 8 - i}}

        with answering_server(answer, hold_until=2) as (url, state):
            scorer = HttpScorer(url, max_retries=1, max_in_flight=2)
            got = list(scorer.distributions(reqs))
            assert state.peak == 2
            bodies = sorted(json.dumps(body) for _, body in state.seen)
            assert bodies == sorted(json.dumps(r.body()) for r in reqs)
            assert list(scorer.distributions(reqs[3:4])) == [scorer.distribution(reqs[3])]
        assert got == [LabelDistribution.from_unnormalized(i + 1, 8 - i) for i in range(8)]

    def test_connection_pool_holds_max_in_flight_connections(self, caplog):
        reqs = [request([], f"query {i}", f"passage {i}") for i in range(24)]
        answer = lambda body: (200, {"p": {"Yes": 1, "No": 1}})  # noqa: E731
        with answering_server(answer, hold_until=12) as (url, state):
            scorer = HttpScorer(url, max_retries=1, max_in_flight=12)
            with caplog.at_level("WARNING", logger="urllib3"):
                assert len(list(scorer.distributions(reqs))) == 24
            assert state.peak == 12
        assert not [r for r in caplog.records if "pool is full" in r.getMessage()]

    def test_injected_session_keeps_its_adapters(self):
        import requests

        session = requests.Session()
        adapters = dict(session.adapters)
        HttpScorer("http://scorer", max_in_flight=12, session=session)
        assert session.adapters == adapters

    def test_max_retries_validated(self):
        with pytest.raises(ValueError):
            HttpScorer("http://127.0.0.1:9", max_retries=0)


    @pytest.mark.parametrize("endpoint", [
        "localhost:9", "ftp://h", "http://", "http:///v1", "https://[::1", ""])
    def test_endpoint_without_http_scheme_and_host_is_refused_when_built(self, endpoint):
        with pytest.raises(ValueError) as excinfo:
            HttpScorer(endpoint)
        assert str(excinfo.value) == (f"scorer endpoint {endpoint!r} is not an "
                                      "http:// or https:// URL with a host")
