"""Span tracing for one pipeline stage, from outside the program.

    python3 perfbench/spans.py SPANS_PREFIX -- <demorank CLI arguments>

wraps the public functions of each demorank module (every alias of each one,
since modules import each other's functions by name), runs
`demorank.cli.main` under a root span, and writes the spans to
`SPANS_PREFIX.npz` plus their names to `SPANS_PREFIX.json` when the stage
ends.  A span is (name, parent, start, end); clocks are `time.monotonic_ns`,
which every process on the host shares, so the parent can relate span times
to when it spawned the stage.

The helpers below the tracer turn span files into per-name counts, total
times and self times (duration minus the part covered by child spans).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, module, attribute path).  Names share their layer's prefix.
TARGETS = [
    ("retriever.text_features", "demorank.retriever", "text_features"),
    ("retriever.encode_feats", "demorank.retriever", "encode_feats"),
    ("retriever.step", "demorank.retriever", "set_loss_and_grad"),
    ("retriever.retrieve_topD", "demorank.retriever", "retrieve_topD"),
    ("retriever.dense_index_build", "demorank.retriever", "DenseIndex.build"),
    ("retriever.train", "demorank.retriever", "train_retriever"),
    ("retriever.load_scored_sets", "demorank.retriever", "load_scored_sets"),
    ("reranker.step", "demorank.reranker", "reranker_loss_and_grads"),
    ("reranker.construct_samples", "demorank.reranker", "construct_samples"),
    ("reranker.cross_score_batch", "demorank.reranker", "cross_score_batch"),
    ("reranker.train", "demorank.reranker", "train_reranker"),
    ("reranker.load_samples", "demorank.reranker", "load_samples"),
    ("pipeline.greedy_select", "demorank.pipeline", "greedy_select"),
    ("pipeline.rank_passages", "demorank.pipeline", "rank_passages"),
    ("pipeline.rank_passages", "demorank.pipeline", "rank_passages_per_input"),
    ("pipeline.initial_rankings", "demorank.pipeline", "initial_rankings"),
    ("pipeline.evaluate_run", "demorank.pipeline", "evaluate_run"),
    ("pipeline.run_policy", "demorank.pipeline", "run_policy"),
    ("scoring.request", "demorank.scoring", "CachedScorer.distribution"),
    ("scoring.digest", "demorank.scoring", "ScoreRequest.digest"),
    ("scoring.lookup", "demorank.scoring", "ScoreCache.lookup"),
    ("scoring.backend", "demorank.scoring", "MockScorer.distribution"),
    ("scoring.backend", "demorank.scoring", "HttpScorer.distribution"),
    ("scoring.http_post", "requests", "Session.post"),
    ("scoring.cache_load", "demorank.scoring", "ScoreCache.load"),
    ("scoring.cache_save", "demorank.scoring", "ScoreCache.save"),
    ("bm25.search", "demorank.bm25", "bm25_search"),
    ("bm25.index_build", "demorank.bm25", "build_index"),
    ("bm25.mine_candidates", "demorank.bm25", "mine_candidates"),
    ("data.load", "demorank.data", "load_dataset"),
    ("data.load", "demorank.data", "load_pool"),
    ("data.load", "demorank.data", "load_training_inputs"),
    ("data.build", "demorank.data", "build_pool"),
    ("data.build", "demorank.data", "build_training_inputs"),
    ("synth.generate", "demorank.synth", "generate_synthetic_dataset"),
    ("checkpoint.save", "demorank.checkpoint", "save_retriever"),
    ("checkpoint.save", "demorank.checkpoint", "save_reranker"),
    ("checkpoint.load", "demorank.checkpoint", "load_retriever"),
    ("checkpoint.load", "demorank.checkpoint", "load_reranker"),
    ("cli.manifest", "demorank.cli", "Workspace.require"),
    ("cli.manifest", "demorank.cli", "Workspace.up_to_date"),
    ("cli.manifest", "demorank.cli", "Workspace.write_manifest"),
]

ROOT = "cli.main"
# Counters kept at span boundaries, beside the spans.
LOOKUP_HITS = "scoring.cache_hits"
LOOKUP_MISSES = "scoring.cache_misses"


class Tracer:
    """Spans in flat arrays; the open spans form a stack (one thread)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.errors = array("q")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def wrap(self, name: str, fn, on_result=None):
        nid = self._id(name)
        stack = self._stack
        now = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.errors.append(0)
            self.end.append(0)
            stack.append(idx)
            self.start.append(now())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[idx] = 1
                raise
            finally:
                self.end[idx] = now()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped_original__ = fn
        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def dump(self, prefix: Path) -> None:
        np.savez(prefix.with_suffix(".npz"),
                 name_id=np.frombuffer(self.name_id, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64),
                 errors=np.frombuffer(self.errors, dtype=np.int64))
        prefix.with_suffix(".json").write_text(
            json.dumps({"names": self.names, "counters": self.counters}),
            encoding="utf-8")


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Wrap every target in place, plus every demorank module-level alias of it.

    Returns the targets that no longer exist, so a renamed function shows up
    as a warning instead of a silently missing span.
    """
    import importlib

    import demorank.cli  # noqa: F401  (imports every pipeline module)

    missing = []
    for name, module_name, path in targets:
        try:
            importlib.import_module(module_name)
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}.{path}")
            continue
        on_result = None
        if name == "scoring.lookup":
            def on_result(got):
                tracer.count(LOOKUP_MISSES if got is None else LOOKUP_HITS)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, on_result)))
            continue
        wrapped = tracer.wrap(name, raw, on_result)
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "demorank" or mod_name.startswith("demorank."):
                for alias, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, alias, wrapped)
    return missing


# ---------------------------------------------------------------------------
# Reading spans back


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children.

    Children of one span run one after another in a single thread, so their
    summed durations equal the part of the parent's interval they cover.
    """
    dur = (end - start).astype(np.int64)
    covered = np.zeros(len(dur), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def load_spans(prefix: Path) -> dict:
    with np.load(prefix.with_suffix(".npz")) as arrays:
        spans = {k: arrays[k] for k in arrays.files}
    meta = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
    spans["names"] = meta["names"]
    spans["counters"] = meta["counters"]
    return spans


def summarize(spans: dict) -> dict:
    """Per span name: calls, total seconds, self seconds, errors.

    Totals add up nested spans of the same name once each, so a recursive
    name would count twice; no target here calls itself.  Also returns the
    root span's start and end (ns) and the counters.
    """
    names = spans["names"]
    nid = spans["name_id"]
    dur = spans["end"] - spans["start"]
    selfs = self_times(spans["parent"], spans["start"], spans["end"])
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    total = np.bincount(nid, weights=dur, minlength=k)
    self_ = np.bincount(nid, weights=selfs, minlength=k)
    errors = np.bincount(nid, weights=spans["errors"], minlength=k)
    out = {
        name: {"calls": int(calls[i]), "total_s": total[i] / 1e9,
               "self_s": self_[i] / 1e9, "errors": int(errors[i])}
        for i, name in enumerate(names)
    }
    roots = np.flatnonzero(spans["parent"] < 0)
    return {
        "by_name": out,
        "root_start_ns": int(spans["start"][roots].min()) if len(roots) else None,
        "root_end_ns": int(spans["end"][roots].max()) if len(roots) else None,
        "counters": dict(spans["counters"]),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS_PREFIX -- <demorank CLI arguments>", file=sys.stderr)
        return 2
    prefix = Path(argv[0])
    tracer = Tracer()
    missing = install(tracer)
    for target in missing:
        print(f"spans: trace target {target} not found", file=sys.stderr)
    from demorank import cli

    root = tracer.wrap(ROOT, cli.main)
    try:
        return root(argv[2:])
    finally:
        tracer.dump(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
