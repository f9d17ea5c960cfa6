"""Tests for the benchmark's own code: stub protocol, span arithmetic, names."""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import stub  # noqa: E402
from demorank import data, synth  # noqa: E402
from demorank.scoring import (HttpScorer, MockScorer, MockScorerWeights,  # noqa: E402
                              PromptTemplate, ScoreRequest)


@contextmanager
def serving(state):
    server = stub.make_server(state)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def get_json(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read())


def post(url, body: bytes):
    req = urllib.request.Request(url, data=body, method="POST")
    return urllib.request.urlopen(req, timeout=10)


def small_dataset(tmp_path):
    generated = synth.generate_synthetic_dataset(
        synth.SynthParams(topics=4, vocab=60, train_queries=6, test_queries=3,
                          passages_per_query=4, tokens_per_text=8), 5)
    d = tmp_path / "data"
    d.mkdir()
    for split, ds in (("train", generated.train), ("test", generated.test)):
        data.write_jsonl_texts(d / f"{split}_queries.jsonl", ds.queries)
        data.write_jsonl_texts(d / f"{split}_passages.jsonl", ds.passages)
        data.write_qrels(d / f"{split}_qrels.tsv", ds.judgments)
    synth.write_topics(d / "topics.json", generated)
    return d, generated


def requests_for(generated):
    ds = generated.train
    demo = data.Demonstration(ds.queries[0], ds.passages[0], data.Label.YES)
    other = data.Demonstration(ds.queries[1], ds.passages[3], data.Label.NO)
    return [
        ScoreRequest(PromptTemplate(), demos, q.text, p.text)
        for demos in ((), (demo,), (demo, other))
        for q in ds.queries[:3] for p in ds.passages[:4]
    ]


class TestStub:
    def test_scores_match_mock_with_oracle(self, tmp_path):
        data_dir, generated = small_dataset(tmp_path)
        weights = MockScorerWeights()
        state = stub.StubState(data_dir, weights, 0.2, 0.0)
        local = MockScorer(weights, generated.relevance_fn(), 0.2)
        with serving(state) as url:
            client = HttpScorer(url, max_retries=1)
            reqs = requests_for(generated)
            for req in reqs:
                assert client.distribution(req) == local.distribution(req)
            stats = get_json(url + "/stats")
        assert stats["requests"] == len(reqs)
        assert stats["max_concurrent"] == 1
        assert stats["service_s"] > 0

    def test_reset_and_errors(self):
        state = stub.StubState(None, MockScorerWeights(), 0.2, 0.0)
        with serving(state) as url:
            with pytest.raises(urllib.error.HTTPError) as bad:
                post(url + "/v1/score", b"{\"input\": {}}")
            assert bad.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as missing:
                post(url + "/v1/other", b"{}")
            assert missing.value.code == 404
            assert get_json(url + "/stats")["requests"] == 1
            post(url + "/reset", b"{}").close()
            assert get_json(url + "/stats") == {"requests": 0, "max_concurrent": 0,
                                                "service_s": 0.0}

    def test_keep_alive_calls_are_not_delayed(self):
        # With Nagle's algorithm on, each keep-alive reply waits for the
        # client's delayed ACK (about 40 ms); 100 calls would take seconds.
        state = stub.StubState(None, MockScorerWeights(), 0.2, 0.0)
        req = ScoreRequest(PromptTemplate(), (), "a query", "a passage")
        with serving(state) as url:
            client = HttpScorer(url, max_retries=1)
            client.distribution(req)
            start = time.perf_counter()
            for _ in range(100):
                client.distribution(req)
            elapsed = time.perf_counter() - start
        assert elapsed < 1.5

    def test_service_delay_is_applied(self):
        state = stub.StubState(None, MockScorerWeights(), 0.2, 0.02)
        req = ScoreRequest(PromptTemplate(), (), "q", "p")
        with serving(state) as url:
            HttpScorer(url, max_retries=1).distribution(req)
            assert get_json(url + "/stats")["service_s"] >= 0.02


def spans_of(rows):
    """rows: (name, parent, start, end) -> the dict summarize() reads."""
    names = sorted({r[0] for r in rows})
    return {
        "names": names,
        "name_id": np.array([names.index(r[0]) for r in rows], dtype=np.int64),
        "parent": np.array([r[1] for r in rows], dtype=np.int64),
        "start": np.array([r[2] for r in rows], dtype=np.int64),
        "end": np.array([r[3] for r in rows], dtype=np.int64),
        "errors": np.zeros(len(rows), dtype=np.int64),
        "counters": {},
    }


class TestSpans:
    def test_self_time_subtracts_direct_children_only(self):
        parent = np.array([-1, 0, 0, 2])
        start = np.array([0, 10, 50, 60])
        end = np.array([100, 40, 90, 70])
        assert spans.self_times(parent, start, end).tolist() == [30, 30, 30, 10]

    def test_summarize_sums_per_name(self):
        rows = [("root", -1, 0, 1000), ("a", 0, 100, 300), ("b", 1, 150, 250),
                ("a", 0, 400, 500), ("b", -1, 2000, 2100)]
        got = spans.summarize(spans_of(rows))
        a, b, root = (got["by_name"][n] for n in ("a", "b", "root"))
        assert (a["calls"], a["total_s"], a["self_s"]) == (2, pytest.approx(300e-9),
                                                           pytest.approx(200e-9))
        assert (b["calls"], b["total_s"], b["self_s"]) == (2, pytest.approx(200e-9),
                                                           pytest.approx(200e-9))
        assert root["self_s"] == pytest.approx(700e-9)
        assert (got["root_start_ns"], got["root_end_ns"]) == (0, 2100)

    def test_self_times_add_up_to_the_roots(self):
        rows = [("root", -1, 0, 1000), ("a", 0, 100, 300), ("b", 1, 150, 250),
                ("c", 0, 600, 900)]
        selfs = spans.self_times(*(spans_of(rows)[k] for k in ("parent", "start", "end")))
        assert selfs.sum() == 1000

    def test_tracer_records_nesting_and_errors(self):
        tracer = spans.Tracer()

        def boom():
            raise KeyError("x")

        inner = tracer.wrap("inner", lambda x: x + 1)
        failing = tracer.wrap("failing", boom)

        def body():
            inner(1)
            with pytest.raises(KeyError):
                failing()
            return inner(2)

        assert tracer.wrap("outer", body)() == 3
        assert tracer.names == ["inner", "failing", "outer"]
        assert list(tracer.parent) == [-1, 0, 0, 0]
        assert list(tracer.errors) == [0, 0, 1, 0]
        assert all(e >= s for s, e in zip(tracer.start, tracer.end))

    def test_install_patches_every_alias(self, tmp_path):
        # Installing rewrites module globals, so it runs in its own process.
        code = """
import json, spans
import demorank.pipeline as pl, demorank.reranker as rr, demorank.retriever as rt
import demorank.bm25 as bm, demorank.scoring as sc
t = spans.Tracer()
missing = spans.install(t)
pairs = [(rr.text_features, rt.text_features), (rr.encode_feats, rt.encode_feats),
         (pl.bm25_search, bm.bm25_search), (pl.retrieve_topD, rt.retrieve_topD),
         (pl.cross_score_batch, rr.cross_score_batch), (pl.score_list, sc.score_list)]
print(json.dumps({"missing": missing,
                  "same": [a is b for a, b in pairs],
                  "wrapped": [hasattr(a, "__wrapped_original__") for a, _ in pairs[:5]]}))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(HERE), str(HERE.parent / "src"), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        got = json.loads(out.stdout)
        assert got["missing"] == []
        assert all(got["same"]) and all(got["wrapped"])


def _dummy_chain():
    stages = [run.StageResult(0, 0, 10**9, 1024) for _ in run.STAGES]
    return run.ChainOutcome(stages, [], 0.5, 0.5)


class TestMetricNames:
    def test_names_are_valid_and_declared(self):
        chain = _dummy_chain()
        e2e = run.end_to_end_metrics([chain], [0.1])
        layer = run.per_layer_metrics(chain, chain, 0, {})
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert set(e2e) == {m["name"] for m in declared["end_to_end"]}
        assert set(layer) == {m["name"] for m in declared["per_layer"]}
        for metrics, spec in ((e2e, declared["end_to_end"]), (layer, declared["per_layer"])):
            units = {m["name"]: m["unit"] for m in spec}
            for name, m in metrics.items():
                assert run.METRIC_NAME.fullmatch(name), name
                assert m["unit"] == units[name], name

    @pytest.mark.parametrize("bad", ["", "_x", "a b", "a/b", "é", "x" * 65])
    def test_invalid_names_rejected(self, bad):
        assert not run.METRIC_NAME.fullmatch(bad)

    def test_workloads_and_data_seeds(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert [w["name"] for w in declared["workloads"]] == list(run.BENCHMARK_WORKLOADS)
        assert set(run.BENCHMARK_WORKLOADS) < set(run.WORKLOADS)
        assert run.data_seed(0) == run.data_seed(len(run.DATA_SEEDS))
        reference = run.load_reference()
        for key in {w.reference_key for w in run.WORKLOADS.values()}:
            assert sorted(reference[key]) == sorted(str(s) for s in run.DATA_SEEDS)
