"""The JSONL artifacts of the pipeline: pinned bytes and malformed records.

A tiny hand-written corpus goes through `build-pool` and `mine-candidates`
(data.source=files); scored sets and samples with fixed scores are built on
the mined candidates and written with the pipeline's writers.
"""

import json
import re
from hashlib import sha256

import pytest

from demorank.cli import _load_candidates, main
from demorank.data import (
    CorpusError,
    Passage,
    Query,
    RelJudgment,
    load_passages,
    load_pool,
    load_queries,
    load_training_inputs,
    write_jsonl_texts,
    write_qrels,
)
from demorank.reranker import load_samples, write_samples
from demorank.retriever import (
    ScoredCandidate,
    ScoredCandidateSet,
    load_scored_sets,
    write_scored_sets,
)

# One word per query and one or two per passage, so every BM25 score of the
# mining key sums at most two terms and does not depend on the hash seed.
QUERIES = [Query("q0", "alpha"), Query("q1", "beta"), Query("q2", "café")]
PASSAGES = [Passage("p0", "one"), Passage("p1", "two"), Passage("p2", "three"),
            Passage("p3", "four"), Passage("p4", "five"), Passage("p5", 'six "quoted"')]
QRELS = [RelJudgment(f"q{i // 2}", f"p{i}", 1 - i % 2) for i in range(6)]

# SHA-256 of each file, recorded before the JSONL codec was shared.
GOLDEN = {
    "queries.jsonl": "402e63536b34636207027e15352fb778c120ec14452d29f1fc07290efcc88a87",
    "passages.jsonl": "4730bbb51fb688fe50c9960e1c3552bfe9dd3b2767af602e5d1325a6502ada70",
    "pool.jsonl": "01d205ce0b924cd049ec7ff5145d552c94e3709d95fc3ff427ed914adf86f1ce",
    "training_inputs.jsonl": "f1d217095e8487dbc92384b6ab6ef256e3b370da3b23a68853f4ffc8e735c723",
    "candidates.jsonl": "985e6e15eb1002926675fffad273ae81576b2fcb07857f223ded6bb3424ac684",
    "scored.jsonl": "8235d2830977afb6bfdec0612171791d1ec3104096c01e8395d5f5c5ff0bac4d",
    "samples.jsonl": "e8a5dcfbff8a45e8b547640d602431012284332af2fe94005581918fb6cd5e19",
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Directory holding every file in GOLDEN."""
    root = tmp_path_factory.mktemp("artifacts")
    write_jsonl_texts(root / "queries.jsonl", QUERIES)
    write_jsonl_texts(root / "passages.jsonl", PASSAGES)
    write_qrels(root / "qrels.tsv", QRELS)
    files = {"queries": "queries.jsonl", "passages": "passages.jsonl", "qrels": "qrels.tsv"}
    config = {"data": {"source": "files",
                       **{f"{split}_{kind}_path": name for split in ("train", "test")
                          for kind, name in files.items()}},
              "retriever": {"candidates_b": 2}}
    (root / "config.json").write_text(json.dumps(config))
    for command in ("build-pool", "mine-candidates"):
        assert main(["--config", str(root / "config.json"), "--workdir", str(root),
                     command]) == 0
    pool = load_pool(root / "pool.jsonl")
    inputs = load_training_inputs(root / "training_inputs.jsonl")
    mined = _load_candidates(root / "candidates.jsonl", inputs, pool)
    write_scored_sets(root / "scored.jsonl", [
        ScoredCandidateSet(inp, [ScoredCandidate(d, (j + 1) / 7) for j, d in enumerate(demos)])
        for inp, demos in mined])
    write_samples(root / "samples.jsonl", [
        ScoredCandidateSet(inp, [ScoredCandidate(d, 1 / (j + 3)) for j, d in enumerate(demos[1:])],
                           (demos[0],))
        for inp, demos in mined])
    return root, inputs, pool


def test_file_bytes_are_pinned(artifacts):
    root, _, _ = artifacts
    got = {name: sha256((root / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert got == GOLDEN


# loader name -> (file, loader, a field the loader reads)
LOADERS = {
    "queries": ("queries.jsonl", lambda p, inputs, pool: load_queries(p), "text"),
    "passages": ("passages.jsonl", lambda p, inputs, pool: load_passages(p), "text"),
    "pool": ("pool.jsonl", lambda p, inputs, pool: load_pool(p), "label"),
    "training_inputs": ("training_inputs.jsonl",
                        lambda p, inputs, pool: load_training_inputs(p), "gold"),
    "candidates": ("candidates.jsonl", _load_candidates, "demo_refs"),
    "scored": ("scored.jsonl", load_scored_sets, "candidates"),
    "samples": ("samples.jsonl", load_samples, "continuations"),
}
GHOST = ["ghost", "ghost", "Yes"]
SCORED = ("scored", "samples")
TEXTS = ("queries", "passages")


def _unknown_demo(obj: dict, field: str) -> str:
    if "demo_refs" in obj:
        obj["demo_refs"][0] = GHOST
    elif "candidates" in obj:
        obj["candidates"][0]["demo_ref"] = GHOST
    else:
        obj["continuations"][0]["last"] = GHOST
    return json.dumps(obj)


def _scored(obj: dict) -> list:
    """A scored set's candidates or a sample's continuations."""
    return obj["candidates"] if "candidates" in obj else obj["continuations"]


def _score(value):
    def brk(obj: dict, field: str) -> str:
        _scored(obj)[0]["llm_score"] = value
        return json.dumps(obj)
    return brk


def _shot(value):
    return lambda obj, field: json.dumps({**obj, "shot": value})


def _repeated_demo(obj: dict, field: str) -> str:
    """The first candidate again, scored lower so a sample keeps its rank order."""
    if "demo_refs" in obj:
        obj["demo_refs"].append(obj["demo_refs"][0])
    else:
        first = _scored(obj)[0]
        _scored(obj).append({**first, "llm_score": first["llm_score"] / 2})
    return json.dumps(obj)


def _prefix_plus(pick):
    """One more prefix demo, `pick(record)`, with the shot kept consistent."""
    def brk(obj: dict, field: str) -> str:
        obj["prefix"].append(pick(obj))
        return json.dumps({**obj, "shot": obj["shot"] + 1})
    return brk


def _out_of_rank_order(obj: dict, field: str) -> str:
    """The prefix demo moved to a last continuation that outscores the first."""
    obj["continuations"].append({"last": obj["prefix"].pop(), "llm_score": 1.0})
    return json.dumps({**obj, "shot": obj["shot"] - 1})


# break -> (the loaders it applies to, None for every loader; how it rewrites
# a record; what the error must say after "malformed <record>:")
BREAKS = {
    "not-json": (None, lambda obj, field: "{not json", ""),
    "missing-field": (None, lambda obj, field: json.dumps(
        {k: v for k, v in obj.items() if k != field}), ""),
    "unknown-input": (("candidates", *SCORED),
                      lambda obj, field: json.dumps({**obj, "input_id": "ghost::ghost::Yes"}),
                      "unknown input"),
    "unknown-demo": (("candidates", *SCORED), _unknown_demo, "unknown demo"),
    "nan-score": (SCORED, _score(float("nan")), "not a finite JSON number"),
    "string-score": (SCORED, _score("0.5"), "not a JSON number"),
    "bool-score": (SCORED, _score(True), "not a JSON number"),
    "huge-score": (SCORED, _score(10 ** 400), "too large"),
    "repeated-demo": (("candidates", *SCORED), _repeated_demo, "repeated candidate demo"),
    "fractional-shot": (("samples",), _shot(2.5), "shot mismatch"),
    "string-shot": (("samples",), _shot("2"), "shot mismatch"),
    "out-of-rank-order": (("samples",), _out_of_rank_order, "out of rank order"),
    "repeated-prefix-demo": (("samples",), _prefix_plus(lambda obj: obj["prefix"][0]),
                             "repeated candidate demo"),
    "continuation-in-prefix": (("samples",),
                               _prefix_plus(lambda obj: obj["continuations"][0]["last"]),
                               "repeated candidate demo"),
    "null-text": (TEXTS, lambda obj, field: json.dumps({**obj, "text": None}),
                  "text is not a JSON string"),
    "list-text": (TEXTS, lambda obj, field: json.dumps({**obj, "text": ["a", "b"]}),
                  "text is not a JSON string"),
    "bool-id": (TEXTS, lambda obj, field: json.dumps({**obj, "id": True}),
                "id is not a JSON string or integer"),
}
CASES = [(loader, brk) for brk, (loaders, _, _) in BREAKS.items()
         for loader in (loaders or LOADERS)]


@pytest.mark.parametrize("loader,brk", CASES)
def test_malformed_record_names_file_and_line(artifacts, tmp_path, loader, brk):
    root, inputs, pool = artifacts
    name, load, field = LOADERS[loader]
    _, rewrite, reason = BREAKS[brk]
    first = (root / name).read_text(encoding="utf-8").splitlines()[0]
    bad = rewrite(json.loads(first), field)
    path = tmp_path / name
    path.write_text(f"{first}\n{bad}\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(f"{path}:2: malformed") + ".*" + reason):
        load(path, inputs, pool)
