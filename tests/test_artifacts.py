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
from demorank.reranker import DependencySample, load_samples, write_samples
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
        DependencySample(inp, (demos[0],), tuple(
            ScoredCandidate(d, 1 / (j + 3)) for j, d in enumerate(demos[1:])))
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


def _unknown_demo(obj: dict, field: str) -> str:
    if "demo_refs" in obj:
        obj["demo_refs"][0] = GHOST
    elif "candidates" in obj:
        obj["candidates"][0]["demo_ref"] = GHOST
    else:
        obj["continuations"][0]["last"] = GHOST
    return json.dumps(obj)


BREAKS = {
    "not-json": lambda obj, field: "{not json",
    "missing-field": lambda obj, field: json.dumps(
        {k: v for k, v in obj.items() if k != field}),
    "unknown-input": lambda obj, field: json.dumps({**obj, "input_id": "ghost::ghost::Yes"}),
    "unknown-demo": _unknown_demo,
}
CASES = [(loader, brk) for loader in LOADERS for brk in BREAKS
         if not brk.startswith("unknown") or loader in ("candidates", "scored", "samples")]


@pytest.mark.parametrize("loader,brk", CASES)
def test_malformed_record_names_file_and_line(artifacts, tmp_path, loader, brk):
    root, inputs, pool = artifacts
    name, load, field = LOADERS[loader]
    first = (root / name).read_text(encoding="utf-8").splitlines()[0]
    bad = BREAKS[brk](json.loads(first), field)
    path = tmp_path / name
    path.write_text(f"{first}\n{bad}\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=re.escape(f"{path}:2: malformed")):
        load(path, inputs, pool)
