"""Stub scorer server for the benchmark's HTTP workloads.

Speaks the `/v1/score` protocol of `demorank.scoring.HttpScorer` and answers
with `MockScorer`, using the ground-truth topics oracle read from a workdir's
`data/` directory, so an HTTP run produces the same scores as a mock run on
the same data config.  Every request also sleeps a fixed service delay, which
stands in for model time that a concurrent client could overlap.

    python3 perfbench/stub.py --data-dir WORKDIR/data --config CONFIG --delay-ms 1

binds 127.0.0.1 on a free port and prints `READY <port>` once it listens.
`GET /stats` returns the request count, the highest number of requests served
at once, and the summed service time.  `POST /reset` zeroes those counters.
"""

from __future__ import annotations

import argparse
import http.server
import json
import sys
import threading
import time
from pathlib import Path

from demorank.config import load_config
from demorank.data import Demonstration, Label, Passage, Query, load_dataset
from demorank.scoring import SCORE_PATH, MockScorer, ScoreRequest
from demorank.synth import load_topics, relevance_fn_from_files


class StubState:
    """Scorer plus the counters the handler threads update under one lock."""

    def __init__(self, data_dir: Path | None, weights, threshold: float,
                 delay_s: float) -> None:
        self.data_dir = data_dir
        self.weights = weights
        self.threshold = threshold
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self._scorer: MockScorer | None = None
        self.requests = 0
        self.in_flight = 0
        self.max_concurrent = 0
        self.service_s = 0.0

    def scorer(self) -> MockScorer:
        # The data files appear only after the pipeline's first stage, so the
        # oracle is read on the first scoring request, not at start-up.
        with self._lock:
            if self._scorer is None:
                self._scorer = MockScorer(self.weights, self._relevance_fn(),
                                          self.threshold)
            return self._scorer

    def _relevance_fn(self):
        if self.data_dir is None or not (self.data_dir / "topics.json").exists():
            return None
        q_topics, p_topics = load_topics(self.data_dir / "topics.json")
        datasets = [
            load_dataset(self.data_dir / f"{split}_queries.jsonl",
                         self.data_dir / f"{split}_passages.jsonl",
                         self.data_dir / f"{split}_qrels.tsv", split)
            for split in ("train", "test")
        ]
        return relevance_fn_from_files(q_topics, p_topics, datasets)

    def enter(self) -> None:
        with self._lock:
            self.requests += 1
            self.in_flight += 1
            self.max_concurrent = max(self.max_concurrent, self.in_flight)

    def leave(self, elapsed: float) -> None:
        with self._lock:
            self.in_flight -= 1
            self.service_s += elapsed

    def stats(self) -> dict:
        with self._lock:
            return {"requests": self.requests, "max_concurrent": self.max_concurrent,
                    "service_s": self.service_s}

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.max_concurrent = self.in_flight
            self.service_s = 0.0


def parse_score_body(body: dict) -> ScoreRequest:
    """The `ScoreRequest` a `/v1/score` body describes; the template is not sent."""
    demos = tuple(
        Demonstration(Query("", d["query"]), Passage("", d["passage"]), Label(d["label"]))
        for d in body["demonstrations"]
    )
    return ScoreRequest(None, demos, body["input"]["query"], body["input"]["passage"],
                        tuple(body["label_space"]))


def make_handler(state: StubState):
    class Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive, as requests.Session expects
        # Without this each keep-alive response waits on the client's delayed
        # ACK, which costs tens of milliseconds per call.
        disable_nagle_algorithm = True

        def _reply(self, status: int, obj) -> None:
            data = json.dumps(obj).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, state.stats())
            else:
                self._reply(404, {"error": "not found"})

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            raw = self.rfile.read(length) if length else b""
            if self.path == "/reset":
                state.reset()
                self._reply(200, {})
                return
            if self.path != SCORE_PATH:
                self._reply(404, {"error": "not found"})
                return
            start = time.perf_counter()
            state.enter()
            try:
                try:
                    request = parse_score_body(json.loads(raw))
                except (ValueError, KeyError, TypeError) as exc:
                    self._reply(400, {"error": f"bad request: {exc}"})
                    return
                dist = state.scorer().distribution(request)
                time.sleep(state.delay_s)
                yes, no = request.label_space
                self._reply(200, {"p": {yes: dist.p_yes, no: dist.p_no}})
            finally:
                state.leave(time.perf_counter() - start)

        def log_message(self, *args):
            pass

    return Handler


def make_server(state: StubState, port: int = 0) -> http.server.ThreadingHTTPServer:
    server = http.server.ThreadingHTTPServer(("127.0.0.1", port), make_handler(state))
    server.daemon_threads = True
    return server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", type=Path, required=True)
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--delay-ms", type=float, default=0.0)
    args = parser.parse_args(argv)
    scorer_cfg = load_config(args.config).scorer
    state = StubState(args.data_dir, scorer_cfg.mock_weights(),
                      scorer_cfg.mock_relevance_threshold, args.delay_ms / 1000.0)
    server = make_server(state)
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
