"""Command-line pipeline driver.

The pipeline is a table of stages (`stages()`): each names the artifacts it
reads, the files it writes and a function that builds them.  One runner,
`run_stage`, checks every input (present, and produced under the current
config digest with the content its producer's manifest records, from
upstream files that still match that manifest), skips the stage when its own
manifest still matches (unless --force), builds the outputs under temp names,
renames them into place and writes the stage's manifest: the config digest
and the SHA-256 of everything the stage read and wrote.

A command runs its stages in table order.  `build-pool` first runs the `data`
stage, which writes the synthetic dataset under `data/` with its own manifest
(`manifests/data.manifest.json`); `rank` and `evaluate` run one stage per
policy (`rank-<policy>`, `evaluate-<policy>`), so a run file or report that
changed since it was written is caught like any other stale artifact.

Exit codes: 0 success, 2 configuration error (an unusable --workdir or
--score-cache, a scorer endpoint that is not an http(s) URL, and a training
loss that turns non-finite under too high a learning rate, included),
3 missing, stale or unreadable artifact (a corrupt --score-cache included),
4 scorer backend failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from hashlib import sha256
from pathlib import Path
from typing import Callable

from . import bm25, checkpoint, data, pipeline, reranker, retriever, scoring, synth
from .config import ConfigError, ExperimentConfig, check_policies, load_config


class ArtifactError(RuntimeError):
    """An input artifact is missing, stale or unreadable (exit code 3)."""


# Dataset files by artifact key: under data/ in the workdir when the data is
# synthetic, otherwise at the config's data.<key>_path.
DATA_KEYS = tuple(f"{split}_{kind}" for split in ("train", "test")
                  for kind in ("queries", "passages", "qrels"))
DATA_FILES = {key: f"data/{key}.{'tsv' if key.endswith('qrels') else 'jsonl'}"
              for key in DATA_KEYS} | {"topics": "data/topics.json"}


def _hash_file(path: Path) -> str:
    h = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def read_artifact(path: Path, load, what: str):
    """`load(path)`; a malformed file raises CorpusError naming it (exit 3)."""
    try:
        return load(path)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise data.CorpusError(f"{path}: malformed {what}: {exc}") from exc


def atomic_produce(path: Path, producer) -> None:
    """Run `producer(tmp_path)` then rename the temp file into place."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    producer(tmp)
    os.replace(tmp, path)


class Workspace:
    def __init__(self, workdir: Path, config: ExperimentConfig, config_dir: Path):
        self.root = workdir
        self.config = config
        self.digest = config.digest()
        synthetic = config.data.source == "synthetic"
        # Dataset files from outside the workdir: no stage produces them.
        self.external = {} if synthetic else {
            key: config_dir / getattr(config.data, f"{key}_path") for key in DATA_KEYS}
        # The mock scorer's ground-truth oracle reads the topics and both splits.
        self.oracle = (("topics", *DATA_KEYS)
                       if synthetic and config.scorer.backend == "mock" else ())
        for sub in ("manifests", "data", "runs", "reports"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        self.hashes: dict[Path, str] = {}  # file -> SHA-256, for this command
        # stage -> its manifest, once `_check` has walked the manifest's inputs;
        # cleared whenever a manifest is written
        self.vouched: dict[str, dict] = {}

    def path(self, rel: str) -> Path:
        return self.external.get(rel) or self.root / DATA_FILES.get(rel, rel)

    def manifest_path(self, name: str) -> Path:
        return self.root / "manifests" / f"{name}.manifest.json"

    def read_manifest(self, name: str) -> dict | None:
        """The stage's manifest, or None if it is missing or malformed."""
        try:
            manifest = json.loads(self.manifest_path(name).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if isinstance(manifest, dict) and isinstance(manifest.get("config_digest"), str) and all(
                isinstance(m, dict) and all(isinstance(v, str) for v in m.values())
                for m in (manifest.get("inputs"), manifest.get("outputs"))):
            return manifest
        return None

    def hash(self, path: Path) -> str:
        """The file's SHA-256, computed once per command (see write_manifest)."""
        if path not in self.hashes:
            try:
                self.hashes[path] = _hash_file(path)
            except OSError as exc:
                raise ArtifactError(f"cannot read {path}: {exc}") from exc
        return self.hashes[path]

    def write_manifest(self, name: str, command: str, inputs: dict[str, str],
                       outputs: dict[str, Path]) -> None:
        """Record the config digest, the inputs' digests and the new outputs'."""
        for p in outputs.values():  # rewritten by the stage
            self.hashes.pop(p, None)
        self.vouched.clear()
        manifest = {
            "format_version": 1,
            "command": command,
            "config_digest": self.digest,
            "inputs": inputs,
            "outputs": {k: self.hash(p) for k, p in outputs.items()},
        }
        text = json.dumps(manifest, sort_keys=True, indent=2)
        atomic_produce(self.manifest_path(name),
                       lambda p: p.write_text(text, encoding="utf-8"))

    def up_to_date(self, name: str, inputs: dict[str, str],
                   outputs: dict[str, Path]) -> bool:
        manifest = self.read_manifest(name) or {}
        current = {"config_digest": self.digest, "inputs": inputs,
                   "outputs": {k: self.hash(p) for k, p in outputs.items() if p.exists()}}
        return {k: manifest.get(k) for k in current} == current

    def require(self, rel: str) -> str:
        """An artifact a stage consumes: present, produced under this config
        from the upstream files now on disk.  Returns its SHA-256."""
        p = self.path(rel)
        if not p.exists():
            stage = None if rel in self.external else PRODUCERS.get(rel)
            hint = f"; run '{stage.command}' first" if stage else ""
            raise ArtifactError(f"missing {p}{hint}")
        return self._check(rel)

    def _check(self, rel: str) -> str:
        """The SHA-256 of an artifact on disk, once its producer's manifest
        vouches for it and for each of its upstream files.  Upstream files
        that are absent are skipped, so a stage can run from a copy of just
        its own inputs and their manifests.  Each producer's manifest is read
        and its upstream walked once, however many of its outputs are checked."""
        digest = self.hash(self.path(rel))
        stage = None if rel in self.external else PRODUCERS.get(rel)
        if stage:
            rerun = f"rerun '{stage.command}'"
            manifest = self.vouched.get(stage.name) or self.read_manifest(stage.name)
            if manifest is None:
                raise ArtifactError(f"artifact {rel} has no manifest; {rerun}")
            if manifest["config_digest"] != self.digest:
                raise ArtifactError(
                    f"artifact {rel} was produced under config digest "
                    f"{manifest['config_digest'][:12]}, current is "
                    f"{self.digest[:12]}; {rerun} (or --force the chain)")
            recorded = manifest["outputs"].get(rel)
            if recorded is not None and digest != recorded:
                raise ArtifactError(
                    f"artifact {rel} changed since '{stage.command}' wrote it; {rerun}")
            if stage.name not in self.vouched:
                for key, upstream in manifest["inputs"].items():
                    if self.path(key).exists() and self._check(key) != upstream:
                        raise ArtifactError(
                            f"artifact {rel} was made from an older {key}; {rerun}")
                self.vouched[stage.name] = manifest
        return digest


# ---------------------------------------------------------------------------
# What the stages of one command share


class Session:
    """Artifacts and the scorer, each loaded once per command when first used.

    Stages read only what `run_stage` has required, so loading from
    `ws.path` is safe here.
    """

    def __init__(self, ws: Workspace, score_cache: Path | None):
        self.ws = ws
        self.score_cache = score_cache
        self.models: dict[str, object] = {}

    def _split(self, split: str) -> data.Dataset:
        return data.load_dataset(*(self.ws.path(f"{split}_{kind}")
                                   for kind in ("queries", "passages", "qrels")), split)

    @cached_property
    def train(self) -> data.Dataset:
        return self._split("train")

    @cached_property
    def test(self) -> data.Dataset:
        return self._split("test")

    @cached_property
    def pool(self) -> list[data.Demonstration]:
        return data.load_pool(self.ws.path("pool.jsonl"))

    @cached_property
    def training_inputs(self) -> list[data.TrainingInput]:
        return data.load_training_inputs(self.ws.path("training_inputs.jsonl"))

    def model(self, name: str):
        """The trained "retriever" or "reranker", read from `<name>.ckpt`."""
        if name not in self.models:
            load = {"retriever": checkpoint.load_retriever,
                    "reranker": checkpoint.load_reranker}[name]
            self.models[name] = read_artifact(self.ws.path(f"{name}.ckpt"), load,
                                              "checkpoint")[0]
        return self.models[name]

    @cached_property
    def backend(self) -> scoring.CachedScorer:
        sc = self.ws.config.scorer
        if sc.backend == "mock":
            oracle = None
            if self.ws.oracle:
                q_topics, p_topics = read_artifact(self.ws.path("topics"),
                                                   synth.load_topics, "topics")
                oracle = synth.relevance_fn_from_files(q_topics, p_topics,
                                                       [self.train, self.test])
            inner = scoring.MockScorer(sc.mock_weights(), oracle,
                                       sc.mock_relevance_threshold)
        else:
            url = os.environ.get(scoring.ENV_SCORER_URL) or sc.endpoint
            if not url:
                raise ConfigError(
                    "scorer.backend is http but no endpoint is configured "
                    f"(set scorer.endpoint or ${scoring.ENV_SCORER_URL})")
            try:
                inner = scoring.HttpScorer(url, timeout=sc.timeout_sec,
                                           max_retries=sc.max_retries,
                                           max_in_flight=sc.max_in_flight)
            except ValueError as exc:  # the endpoint is not an http(s) URL
                raise ConfigError(str(exc)) from exc
        cached = scoring.CachedScorer(inner)
        if self.score_cache and self.score_cache.exists():
            try:
                cached.cache.load(self.score_cache)
            except (OSError, ValueError) as exc:
                raise ArtifactError(
                    f"score cache {self.score_cache} is unreadable ({exc}); "
                    "delete it or pass another --score-cache") from exc
        return cached

    def save_cache(self) -> None:
        """Write the score cache, if a stage of this command built the scorer."""
        backend = self.__dict__.get("backend")  # set once the property ran
        if backend is not None and self.score_cache:
            atomic_produce(self.score_cache, backend.cache.save)


# ---------------------------------------------------------------------------
# Stage build functions: each writes its outputs to the temp paths in `out` and
# returns the status line.


def _build_data(s: Session, out: dict[str, Path]) -> str:
    generated = synth.generate_synthetic_dataset(s.ws.config.data, s.ws.config.seeds.data)
    for split, ds in (("train", generated.train), ("test", generated.test)):
        data.write_jsonl_texts(out[f"{split}_queries"], ds.queries)
        data.write_jsonl_texts(out[f"{split}_passages"], ds.passages)
        data.write_qrels(out[f"{split}_qrels"], ds.judgments)
    synth.write_topics(out["topics"], generated)
    return (f"{len(generated.train.queries)} train and "
            f"{len(generated.test.queries)} test queries")


def _build_pool(s: Session, out: dict[str, Path]) -> str:
    seeds = s.ws.config.seeds
    pool = data.build_pool(s.train, seeds.pool)
    training_inputs, report = data.build_training_inputs(s.train, seeds.training_inputs)
    data.write_pool(out["pool.jsonl"], pool)
    data.write_training_inputs(out["training_inputs.jsonl"], training_inputs)
    out["training_inputs.report.json"].write_text(
        json.dumps(asdict(report), sort_keys=True, indent=2), encoding="utf-8")
    return (f"{len(pool)} demos, {len(training_inputs)} training inputs "
            f"({len(report.skipped)} queries skipped)")


def _mine_candidates(s: Session, out: dict[str, Path]) -> str:
    cfg = s.ws.config
    index = bm25.build_pool_index(s.pool)
    b = cfg.retriever.candidates_b
    data.write_jsonl(out["candidates.jsonl"], ({
        "input_id": inp.input_id,
        "demo_refs": [list(d.ref) for d in bm25.mine_candidates(
            s.pool, index, inp, b, cfg.seeds.mining + ordinal, cfg.bm25)],
    } for ordinal, inp in enumerate(s.training_inputs)))
    return f"{len(s.training_inputs)} inputs x {2 * b} candidates"


def _load_candidates(path: Path, training_inputs, pool):
    refs = data.RefResolver(training_inputs, pool)
    return data.read_jsonl(path, lambda obj: (refs.input(obj["input_id"]),
                                              [refs.demo(r) for r in obj["demo_refs"]]),
                           "candidates record")


def _score_candidates(s: Session, out: dict[str, Path]) -> str:
    mined = _load_candidates(s.ws.path("candidates.jsonl"), s.training_inputs, s.pool)
    template = s.ws.config.template
    sets = [
        retriever.ScoredCandidateSet(inp, [
            retriever.ScoredCandidate(d, scoring.score_list(s.backend, template, [d], inp))
            for d in demos])
        for inp, demos in mined
    ]
    retriever.write_scored_sets(out["scored.jsonl"], sets)
    return (f"{sum(len(c.candidates) for c in sets)} scores "
            f"({s.backend.cache.hits} cache hits)")


def _train_retriever(s: Session, out: dict[str, Path]) -> str:
    cfg = s.ws.config
    sets = retriever.load_scored_sets(s.ws.path("scored.jsonl"), s.training_inputs, s.pool)
    model = retriever.BiEncoder.init(cfg.encoder, cfg.seeds.retriever_init)
    trained = retriever.train_retriever(model, sets, cfg.retriever, cfg.seeds.retriever_train)
    checkpoint.save_retriever(out["retriever.ckpt"], trained, s.ws.digest)
    return f"{len(sets)} sets, {cfg.retriever.epochs} epochs"


def _build_samples(s: Session, out: dict[str, Path]) -> str:
    cfg = s.ws.config
    if cfg.reranker.iterations > len(s.pool):
        raise ConfigError(f"reranker.iterations is {cfg.reranker.iterations} but the pool "
                          f"has {len(s.pool)} demos; lower it or build a larger pool")
    m = min(cfg.reranker.retrieve_m, len(s.pool))
    model = s.model("retriever")
    index = retriever.DenseIndex.build(model, s.pool)
    retrieved = [retriever.retrieve_topD(index, model, inp, m) for inp in s.training_inputs]
    samples = reranker.construct_samples_for_corpus(
        s.training_inputs, retrieved, s.backend, cfg.template,
        cfg.reranker.iterations, cfg.seeds.sampling, cfg.reranker.trajectories)
    reranker.write_samples(out["samples.jsonl"], samples)
    return f"{len(samples)} samples from {len(s.training_inputs)} inputs"


def _train_reranker(s: Session, out: dict[str, Path]) -> str:
    cfg = s.ws.config
    samples = reranker.load_samples(s.ws.path("samples.jsonl"), s.training_inputs, s.pool)
    model = reranker.CrossEncoder.init(cfg.encoder, cfg.encoder.hidden, cfg.seeds.reranker_init)
    trained = reranker.train_reranker(model, samples, cfg.reranker, cfg.seeds.reranker_train)
    checkpoint.save_reranker(out["reranker.ckpt"], trained, s.ws.digest)
    return f"{len(samples)} samples, {cfg.reranker.epochs} epochs"


def _rank(policy: str, s: Session, out: dict[str, Path]) -> str:
    cfg = s.ws.config
    sel = cfg.selection
    ctx = pipeline.PolicyContext(
        pool=s.pool, backend=s.backend, template=cfg.template,
        bm25_params=cfg.bm25, shots=sel.shots, retrieve_d=sel.retrieve_d,
        per_query_selection=sel.per_query, seed=cfg.seeds.policy,
        **{name: s.model(name) for name in pipeline.MODELS_BY_POLICY[policy]},
    )
    _, entries = pipeline.run_policy(policy, s.test, ctx, s.ws.digest)
    pipeline.write_run(out[f"runs/{policy}.run"], entries)
    return f"{len(entries)} entries"


def _evaluate(policy: str, s: Session, out: dict[str, Path]) -> str:
    start = time.monotonic()
    entries = pipeline.load_run(s.ws.path(f"runs/{policy}.run"))
    per_query, mean, excluded = pipeline.evaluate_run(entries, s.test.judgments_by_query())
    report = pipeline.EvalReport(policy, s.ws.config.selection.shots, mean, per_query,
                                 excluded, s.ws.digest, time.monotonic() - start)
    out[f"reports/{policy}.json"].write_text(report.to_json(), encoding="utf-8")
    extra = f", {len(excluded)} queries excluded" if excluded else ""
    return f"mean NDCG@10 {mean:.5f} over {len(per_query)} queries{extra}"


def _compare(policies: list[str], s: Session, out: dict[str, Path]) -> str:
    reports = [read_artifact(s.ws.path(f"reports/{policy}.json"),
                             lambda p: pipeline.EvalReport.from_json(p.read_text(encoding="utf-8")),
                             "report") for policy in policies]
    comparison = pipeline.compare_reports(reports)
    comparison["config_digest"] = s.ws.digest
    out["compare.json"].write_text(json.dumps(comparison, sort_keys=True, indent=2),
                                   encoding="utf-8")
    width = max(len(p) for p in policies)
    rows = [f"{'policy'.ljust(width)}  mean NDCG@10"]
    rows += [f"{r.policy.ljust(width)}  {r.mean_ndcg:.5f}"
             for r in sorted(reports, key=lambda r: -r.mean_ndcg)]
    return "\n".join([f"{len(reports)} policies", *rows])


# ---------------------------------------------------------------------------
# The stage table and its runner


@dataclass(frozen=True)
class Stage:
    """One pipeline step; its manifest is `manifests/<name>.manifest.json`.

    `command` is the CLI command that runs it.  `scores` marks stages that call
    the scorer, which also read the scorer's oracle files (`Workspace.oracle`).
    """

    name: str
    command: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    build: Callable[[Session, dict[str, Path]], str]
    scores: bool = False
    policy: str | None = None

    @property
    def label(self) -> str:
        return f"{self.command}[{self.policy}]" if self.policy else self.name


POOL = ("pool.jsonl", "training_inputs.jsonl")
TRAIN_SPLIT, TEST_SPLIT = DATA_KEYS[:3], DATA_KEYS[3:]


def stages(policies=pipeline.POLICIES) -> list[Stage]:
    """The pipeline in run order, with ranking stages for `policies`."""
    return [
        Stage("data", "build-pool", (), tuple(DATA_FILES), _build_data),
        Stage("build-pool", "build-pool", TRAIN_SPLIT,
              (*POOL, "training_inputs.report.json"), _build_pool),
        Stage("mine-candidates", "mine-candidates", POOL, ("candidates.jsonl",),
              _mine_candidates),
        Stage("score-candidates", "score-candidates", (*POOL, "candidates.jsonl"),
              ("scored.jsonl",), _score_candidates, scores=True),
        Stage("train-retriever", "train-retriever", (*POOL, "scored.jsonl"),
              ("retriever.ckpt",), _train_retriever),
        Stage("build-samples", "build-samples", (*POOL, "retriever.ckpt"),
              ("samples.jsonl",), _build_samples, scores=True),
        Stage("train-reranker", "train-reranker", (*POOL, "samples.jsonl"),
              ("reranker.ckpt",), _train_reranker),
        *(Stage(f"rank-{p}", "rank", ("pool.jsonl", *TEST_SPLIT,
                                      *(f"{m}.ckpt" for m in pipeline.MODELS_BY_POLICY[p])),
                (f"runs/{p}.run",), partial(_rank, p), scores=True, policy=p)
          for p in policies),
        *(Stage(f"evaluate-{p}", "evaluate", (f"runs/{p}.run", *TEST_SPLIT),
                (f"reports/{p}.json",), partial(_evaluate, p), policy=p)
          for p in policies),
        Stage("compare", "compare", tuple(f"reports/{p}.json" for p in policies),
              ("compare.json",), partial(_compare, list(policies))),
    ]


# artifact -> the stage that produces it
PRODUCERS = {rel: stage for stage in stages() for rel in stage.outputs}
COMMANDS = ("print-config", *dict.fromkeys(stage.command for stage in stages()))


def run_stage(s: Session, stage: Stage, force: bool) -> None:
    """Require the inputs, skip if up to date, build, rename, write the manifest."""
    ws = s.ws
    keys = stage.inputs + (ws.oracle if stage.scores else ())
    inputs = {rel: ws.require(rel) for rel in keys}
    outputs = {rel: ws.path(rel) for rel in stage.outputs}
    if not force and ws.up_to_date(stage.name, inputs, outputs):
        print(f"{stage.label}: up to date")
        return
    tmp = {rel: p.with_suffix(p.suffix + ".tmp") for rel, p in outputs.items()}
    summary = stage.build(s, tmp)
    for rel, p in outputs.items():
        os.replace(tmp[rel], p)
    ws.write_manifest(stage.name, stage.command, inputs, outputs)
    print(f"{stage.label}: {summary}")


def run_command(ws: Workspace, args, policies: list[str]) -> int:
    session = Session(ws, args.score_cache)
    try:
        for stage in stages(policies):
            # A dataset read from files has no data stage to run.
            if stage.command == args.command and not ws.external.keys() & stage.outputs:
                run_stage(session, stage, args.force)
    finally:
        session.save_cache()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demorank",
        description="Demonstration selection pipeline for LLM passage ranking")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON config file (defaults apply when omitted)")
    parser.add_argument("--workdir", type=Path, default=Path("demorank_work"),
                        help="artifact directory (default: demorank_work)")
    parser.add_argument("--force", action="store_true",
                        help="rebuild even when manifests are up to date")
    parser.add_argument("--score-cache", type=Path, default=None,
                        help="persist scorer results here and reuse them on reruns")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name in ("rank", "evaluate", "compare"):
            p.add_argument("--policy", action="append", default=None,
                           help="restrict to one policy (repeatable)")
    return parser


def _make_dir(path: Path, option: str) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{option}: cannot make directory: {exc}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        config = load_config(args.config)
        if args.command == "print-config":  # reads and writes no artifact
            print(config.to_json())
            return 0
        policies = check_policies(getattr(args, "policy", None) or config.selection.policies)
        config_dir = args.config.parent.resolve() if args.config else Path.cwd()
        # Both locations are made or refused before a stage runs, so a bad
        # one cannot surface after the scorer's results are paid for.
        if args.score_cache:
            if args.score_cache.is_dir():
                raise ConfigError(f"--score-cache {args.score_cache} is a directory")
            _make_dir(args.score_cache.parent, f"--score-cache {args.score_cache}")
        _make_dir(args.workdir, f"--workdir {args.workdir}")
        return run_command(Workspace(args.workdir, config, config_dir), args, policies)
    except (ConfigError, bm25.PoolTooSmallError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except retriever.NonFiniteLossError as exc:
        print(f"config error: {exc}; lower {exc.model}.learning_rate", file=sys.stderr)
        return 2
    except (ArtifactError, data.CorpusError) as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 3
    except scoring.BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
