"""Benchmark of the demorank CLI pipeline, stage by stage.

    python3 perfbench/run.py --workload desk-mock --seed 0 --seconds 32 --trace 0

Run from the repository root.  Each run sets up a fresh workdir under
`.perfbench/`, then runs the nine CLI stages (`build-pool` ... `compare`),
each in its own process as a user would, so per-process caches start cold.
Stages run with PYTHONHASHSEED=0: BM25 ties break in set iteration order (see
`bm25.hashseed_mismatches`), so the hash seed is part of the input.

Workloads (one client process; the HTTP ones add one stub scorer process):
  desk-mock     50/12 queries (a quarter of the default), mock scorer, no
                score cache.
  http-cold     12/3 queries, 24 candidates and retrieve_m=24, scorer.backend=
                http against perfbench/stub.py (fixed service delay), a fresh
                --score-cache, max_in_flight=2.
  http-warm     the http-cold config rerun with --force on the score cache a
                cold chain wrote; the stub must receive no request.
  desk-default  the default config (200/50 queries); not in BENCHMARK.json, for
                `--trace 1` only, which prints ROADMAP's baseline table.

`--seed` picks the synthetic data seed from DATA_SEEDS; the outputs of every
chain are checked against digests in perfbench/reference.json, recorded with
perfbench/record.py on the commit that defined the benchmark.

With `--trace 0` the run repeats whole chains while they fit in `--seconds`
and reports the medians of pipeline_s (summed stage times), setup_s (fresh
workdir and config, an import check of the program, and stub readiness; set
up at least SETUP_REPEATS times) and peak_rss_mb (largest stage process).  With
`--trace 1` it runs one untraced chain and one traced chain (perfbench/spans.py
wraps each stage), prints a per-stage table of time and scorer calls, and
reports the per-layer metrics, each stage's untraced time (stage.<name>_s)
and the tracing overhead (traced minus untraced pipeline time).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}};
`attempted` counts stages run and `failed` the stages that exited non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import spans  # noqa: E402

STAGES = ("build-pool", "mine-candidates", "score-candidates", "train-retriever",
          "build-samples", "train-reranker", "rank", "evaluate", "compare")
SCORING_STAGES = ("score-candidates", "build-samples", "rank")
POLICIES = ("zero-shot", "random", "bm25-demos", "retriever-topk", "demorank")
CHECKED_ARTIFACTS = ("compare.json", *(f"runs/{p}.run" for p in POLICIES),
                     "retriever.ckpt", "reranker.ckpt", "samples.jsonl")

HASH_SEED = "0"
PROBE_HASH_SEED = "1"
DATA_SEEDS = (11, 12, 13, 14)
# Host CPU speed on a shared 2-CPU machine swings up to 2x over a few seconds,
# which one long chain cannot average out.  So the workloads are sized for
# several chains per run (desk-mock about 9 s a chain, http-cold about 12 s)
# and a run reports their median.  desk-mock keeps training and featurization
# dominant; http-cold is dominated by scorer round trips rather than training.
DESK_SECTIONS = {"data": {"train_queries": 50, "test_queries": 12}}
HTTP_SECTIONS = {"data": {"train_queries": 12, "test_queries": 3},
                 "retriever": {"candidates_b": 12}, "reranker": {"retrieve_m": 24}}
STUB_DELAY_MS = 1.0
MAX_IN_FLIGHT = 2
SETUP_REPEATS = 7
STAGE_TIMEOUT_S = 120.0
READY_TIMEOUT_S = 20.0
REFERENCE = HERE / "reference.json"
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")


@dataclass(frozen=True)
class Workload:
    http: bool
    warm: bool
    sections: dict
    reference_key: str


WORKLOADS = {
    "desk-mock": Workload(http=False, warm=False, sections=DESK_SECTIONS,
                          reference_key="desk"),
    "http-cold": Workload(http=True, warm=False, sections=HTTP_SECTIONS, reference_key="http"),
    "http-warm": Workload(http=True, warm=True, sections=HTTP_SECTIONS, reference_key="http"),
    # The default config (200/50 queries), which ROADMAP's baseline table is
    # taken on.  One chain takes about 22 s, too long to repeat within a run,
    # so it is not a benchmark workload; `--trace 1` on it prints that table.
    "desk-default": Workload(http=False, warm=False, sections={},
                             reference_key="desk-default"),
}
BENCHMARK_WORKLOADS = ("desk-mock", "http-cold", "http-warm")


def data_seed(seed: int) -> int:
    return DATA_SEEDS[seed % len(DATA_SEEDS)]


def make_config(workload: Workload, dseed: int, backend: str | None = None) -> dict:
    cfg: dict = {"seeds": {"data": dseed}}
    cfg.update((section, dict(values)) for section, values in workload.sections.items())
    backend = backend or ("http" if workload.http else "mock")
    if backend == "http":
        # The endpoint travels in the environment so the config digest, which
        # checkpoints and compare.json record, does not depend on the port.
        cfg["scorer"] = {"backend": "http", "max_in_flight": MAX_IN_FLIGHT}
    return cfg


def digest_file(path: Path) -> str | None:
    if not path.exists():
        return None
    return sha256(path.read_bytes()).hexdigest()


def artifact_digests(workdir: Path) -> dict[str, str | None]:
    return {rel: digest_file(workdir / rel) for rel in CHECKED_ARTIFACTS}


# ---------------------------------------------------------------------------
# Processes


class Stub:
    """The stub scorer process, bound to one workdir's data."""

    def __init__(self, root: Path, workdir: Path, config: Path, env: dict, log: Path):
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--data-dir", str(workdir / "data"),
             "--config", str(config), "--delay-ms", str(STUB_DELAY_MS)],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log)
        try:
            self.url = f"http://127.0.0.1:{self._wait_ready()}"
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                raise RuntimeError("stub scorer did not become ready")
            chunk = os.read(self.proc.stdout.fileno(), 64)
            if not chunk:
                raise RuntimeError(f"stub scorer exited with {self.proc.wait()}")
            line += chunk
        word, port = line.decode().split()
        if word != "READY":
            raise RuntimeError(f"unexpected stub output {line!r}")
        return int(port)

    def stats(self) -> dict:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def reset(self) -> None:
        req = urllib.request.Request(self.url + "/reset", data=b"{}", method="POST")
        urllib.request.urlopen(req, timeout=10).close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


@dataclass
class StageResult:
    returncode: int
    spawn_ns: int
    exit_ns: int
    maxrss_kb: int
    spans: dict | None = None

    @property
    def seconds(self) -> float:
        return (self.exit_ns - self.spawn_ns) / 1e9


def run_process(cmd: list[str], root: Path, env: dict, log: Path) -> StageResult:
    """Spawn, wait with a timeout, and return wall times plus peak RSS."""
    with open(log, "ab") as out:
        spawn = time.monotonic_ns()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        exit_ns = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return StageResult(proc.returncode, spawn, exit_ns, usage.ru_maxrss)


# ---------------------------------------------------------------------------
# One workdir: set-up, chains, checks


@dataclass
class Env:
    """A fresh workdir with its config, score cache path and (http) stub."""

    root: Path
    workdir: Path
    config: Path
    cache: Path | None
    proc_env: dict
    stub: Stub | None = None

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()
            self.stub = None


def base_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = HASH_SEED
    env.pop("DEMORANK_SCORER_URL", None)
    return env


def set_up(root: Path, scratch: Path, config: dict, http: bool, cache: bool) -> Env:
    """Fresh workdir and config; check the program imports; start the stub."""
    workdir = scratch / f"wd{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    env = Env(root, workdir, cfg_path, workdir / "scores.cache" if cache else None,
              base_env(root))
    subprocess.run([sys.executable, "-c", "import demorank.cli"], cwd=root,
                   env=env.proc_env, check=True)
    if http:
        env.stub = Stub(root, workdir, cfg_path, env.proc_env,
                        workdir.with_suffix(".stub.log"))
        env.proc_env["DEMORANK_SCORER_URL"] = env.stub.url
    return env


def timed_set_up(*args) -> tuple[Env, float]:
    start = time.perf_counter()
    env = set_up(*args)
    return env, time.perf_counter() - start


def stage_argv(env: Env, stage: str, force: bool) -> list[str]:
    argv = ["--config", str(env.config), "--workdir", str(env.workdir)]
    if env.cache is not None:
        argv += ["--score-cache", str(env.cache)]
    if force:
        argv.append("--force")
    return argv + [stage]


def run_chain(env: Env, force: bool, trace: bool = False) -> list[StageResult]:
    results = []
    log = env.workdir.with_suffix(".log")
    for stage in STAGES:
        argv = stage_argv(env, stage, force)
        prefix = env.workdir / f"spans-{stage}"
        if trace:
            cmd = [sys.executable, str(HERE / "spans.py"), str(prefix), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "demorank.cli", *argv]
        res = run_process(cmd, env.root, env.proc_env, log)
        if trace and prefix.with_suffix(".npz").exists():
            res.spans = spans.summarize(spans.load_spans(prefix))
        if res.returncode != 0:
            print(f"stage {stage} exited {res.returncode}; see {log}", file=sys.stderr)
        results.append(res)
    return results


def load_reference() -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def output_mismatches(workdir: Path, expected: dict | None) -> list[str]:
    """Checked artifacts whose digest differs from the reference (all, if none)."""
    got = artifact_digests(workdir)
    if not expected:
        return list(CHECKED_ARTIFACTS)
    return [rel for rel in CHECKED_ARTIFACTS if got[rel] is None or got[rel] != expected.get(rel)]


def ndcg(workdir: Path, policy: str) -> float:
    path = workdir / "compare.json"
    if not path.exists():
        return float("nan")
    return float(json.loads(path.read_text(encoding="utf-8"))["mean_ndcg"][policy])


@dataclass
class ChainOutcome:
    stages: list[StageResult]
    mismatches: list[str]
    ndcg_demorank: float
    ndcg_topk: float

    @property
    def failed(self) -> int:
        return sum(1 for r in self.stages if r.returncode != 0)

    @property
    def pipeline_s(self) -> float:
        """Summed stage times, leaving out the benchmark's own work between stages."""
        return sum(r.seconds for r in self.stages)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.maxrss_kb for r in self.stages) / 1024.0


def checked_chain(env: Env, force: bool, expected: dict | None,
                  trace: bool = False) -> ChainOutcome:
    stages = run_chain(env, force, trace)
    mism = output_mismatches(env.workdir, expected)
    for rel in mism:
        print(f"output mismatch: {rel}", file=sys.stderr)
    return ChainOutcome(stages, mism, ndcg(env.workdir, "demorank"),
                        ndcg(env.workdir, "retriever-topk"))


def hashseed_mismatches(env: Env) -> int:
    """Lines of candidates.jsonl that change when mine-candidates runs under
    PROBE_HASH_SEED instead of HASH_SEED, on the workdir's own pool."""
    probe = env.workdir / "hashseed-probe"
    (probe / "manifests").mkdir(parents=True)
    for rel in ("pool.jsonl", "training_inputs.jsonl",
                "manifests/build-pool.manifest.json"):
        shutil.copyfile(env.workdir / rel, probe / rel)
    proc_env = dict(env.proc_env, PYTHONHASHSEED=PROBE_HASH_SEED)
    argv = ["--config", str(env.config), "--workdir", str(probe), "mine-candidates"]
    res = run_process([sys.executable, "-m", "demorank.cli", *argv], env.root, proc_env,
                      probe / "probe.log")
    if res.returncode != 0:
        raise RuntimeError("hash-seed probe: mine-candidates failed")
    base = (env.workdir / "candidates.jsonl").read_text(encoding="utf-8").splitlines()
    other = (probe / "candidates.jsonl").read_text(encoding="utf-8").splitlines()
    if len(base) != len(other):
        return max(len(base), len(other))
    return sum(1 for a, b in zip(base, other) if a != b)


# ---------------------------------------------------------------------------
# Metrics


# Single stages swing by 20-30% between runs on a shared 2-CPU host, so they
# are per-layer metrics (stage.<name>_s); only their sum carries a bound.
END_TO_END = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYERS = ("retriever", "reranker", "pipeline", "scoring", "bm25", "data", "synth",
          "checkpoint", "cli")


def end_to_end_metrics(chains: list[ChainOutcome], setups: list[float]) -> dict:
    med = statistics.median
    values = {
        "pipeline_s": med(c.pipeline_s for c in chains),
        "setup_s": med(setups),
        "peak_rss_mb": med(c.peak_rss_mb for c in chains),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


_NO_SPANS = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0}


def _name_stats(stage: StageResult, name: str) -> dict:
    return stage.spans["by_name"].get(name, _NO_SPANS) if stage.spans else _NO_SPANS


def per_layer_metrics(untraced: ChainOutcome, traced: ChainOutcome,
                      hashseed: int, stub_stats: dict) -> dict:
    stages = traced.stages

    def total(name: str, key: str, only: str | None = None) -> float:
        return sum(_name_stats(s, name)[key] for st, s in zip(STAGES, stages)
                   if only is None or st == only)

    def layer_self(layer: str) -> float:
        return sum(v["self_s"] for s in stages if s.spans
                   for n, v in s.spans["by_name"].items() if n.split(".")[0] == layer)

    def counter(name: str) -> int:
        return sum(s.spans["counters"].get(name, 0) for s in stages if s.spans)

    startup = sum((s.spans["root_start_ns"] - s.spawn_ns) / 1e9 for s in stages if s.spans)
    teardown = sum((s.exit_ns - s.spans["root_end_ns"]) / 1e9 for s in stages if s.spans)
    self_sum = sum(layer_self(layer) for layer in LAYERS)
    requests = total("scoring.request", "calls")
    hits = counter(spans.LOOKUP_HITS)
    backend_calls = total("scoring.backend", "calls")
    http_posts = total("scoring.http_post", "calls")
    http_backend = backend_calls if http_posts else 0

    m: dict[str, tuple[float, str]] = {
        "retriever.text_features_calls": (total("retriever.text_features", "calls"), "count"),
        "retriever.text_features_s": (total("retriever.text_features", "total_s"), "s"),
        "retriever.encode_feats_calls": (total("retriever.encode_feats", "calls"), "count"),
        "retriever.encode_feats_s": (total("retriever.encode_feats", "total_s"), "s"),
        "retriever.steps": (total("retriever.step", "calls"), "count"),
        "retriever.step_s": (total("retriever.step", "total_s"), "s"),
        "retriever.retrieve_topD_calls": (total("retriever.retrieve_topD", "calls"), "count"),
        "retriever.retrieve_topD_s": (total("retriever.retrieve_topD", "total_s"), "s"),
        "retriever.dense_index_build_s": (total("retriever.dense_index_build", "total_s"), "s"),
        "reranker.steps": (total("reranker.step", "calls"), "count"),
        "reranker.step_s": (total("reranker.step", "total_s"), "s"),
        "reranker.construct_samples_self_s": (total("reranker.construct_samples", "self_s"), "s"),
        "reranker.cross_score_batch_calls": (total("reranker.cross_score_batch", "calls"), "count"),
        "reranker.cross_score_batch_s": (total("reranker.cross_score_batch", "total_s"), "s"),
        "pipeline.greedy_select_calls": (total("pipeline.greedy_select", "calls"), "count"),
        "pipeline.greedy_select_s": (total("pipeline.greedy_select", "total_s"), "s"),
        "pipeline.rank_passages_self_s": (total("pipeline.rank_passages", "self_s"), "s"),
        "pipeline.initial_rankings_s": (total("pipeline.initial_rankings", "total_s"), "s"),
        "pipeline.evaluate_run_s": (total("pipeline.evaluate_run", "total_s"), "s"),
        "scoring.requests": (requests, "count"),
        "scoring.cache_hits": (hits, "count"),
        "scoring.cache_misses": (counter(spans.LOOKUP_MISSES), "count"),
        "scoring.cache_hit_ratio": (hits / requests if requests else 0.0, "ratio"),
        "scoring.backend_calls": (backend_calls, "count"),
        "scoring.backend_s": (total("scoring.backend", "total_s"), "s"),
        "scoring.digest_s": (total("scoring.digest", "total_s"), "s"),
        "scoring.cache_load_s": (total("scoring.cache_load", "total_s"), "s"),
        "scoring.cache_save_s": (total("scoring.cache_save", "total_s"), "s"),
        "scoring.http_retries": (http_posts - http_backend, "count"),
        "scoring.http_failures": (total("scoring.backend", "errors") if http_posts else 0,
                                  "count"),
        "stub.requests": (stub_stats.get("requests", 0), "count"),
        "stub.max_concurrent": (stub_stats.get("max_concurrent", 0), "count"),
        "stub.service_s": (stub_stats.get("service_s", 0.0), "s"),
        "bm25.search_calls": (total("bm25.search", "calls"), "count"),
        "bm25.search_s": (total("bm25.search", "total_s"), "s"),
        "bm25.index_build_s": (total("bm25.index_build", "total_s"), "s"),
        "bm25.hashseed_mismatches": (hashseed, "count"),
        "data.load_s": (total("data.load", "total_s"), "s"),
        "synth.generate_s": (total("synth.generate", "total_s"), "s"),
        "checkpoint.save_s": (total("checkpoint.save", "total_s"), "s"),
        "checkpoint.load_s": (total("checkpoint.load", "total_s"), "s"),
        "cli.manifest_s": (total("cli.manifest", "total_s"), "s"),
        "cli.stage_startup_s": (startup, "s"),
        "cli.stage_teardown_s": (teardown, "s"),
        # trace.pipeline_s = cli.stage_startup_s + trace.self_sum_s +
        # cli.stage_teardown_s exactly, so the self times account for the
        # untraced pipeline_s up to trace.overhead_s.
        "trace.pipeline_s": (traced.pipeline_s, "s"),
        "trace.overhead_s": (traced.pipeline_s - untraced.pipeline_s, "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "scorer_requests": (backend_calls, "count"),
        "failed_stages": (untraced.failed + traced.failed, "count"),
        "output_mismatches": (len(untraced.mismatches) + len(traced.mismatches), "count"),
        "ndcg10_demorank": (untraced.ndcg_demorank, "ndcg"),
        "ndcg10_retriever_topk": (untraced.ndcg_topk, "ndcg"),
    }
    for stage, res in zip(STAGES, untraced.stages):
        m[f"stage.{stage}_s"] = (res.seconds, "s")
    for stage in SCORING_STAGES:
        m[f"scoring.requests.{stage}"] = (total("scoring.request", "calls", stage), "count")
        m[f"scoring.backend_calls.{stage}"] = (total("scoring.backend", "calls", stage),
                                               "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in m.items()}


def stage_table(untraced: ChainOutcome, traced: ChainOutcome) -> str:
    """Markdown table: per stage, untraced wall time and scorer calls."""
    rows = ["| stage | time (s) | scoring requests | backend calls (cache misses) |",
            "| --- | --- | --- | --- |"]
    for stage, plain, tr in zip(STAGES, untraced.stages, traced.stages):
        req = _name_stats(tr, "scoring.request")["calls"]
        back = _name_stats(tr, "scoring.backend")["calls"]
        rows.append(f"| {stage} | {plain.seconds:.2f} | {req:,} | {back:,} |")
    return "\n".join(rows)


# ---------------------------------------------------------------------------
# Command line


def check_checkout(root: Path) -> str | None:
    if not (root / "src" / "demorank" / "cli.py").is_file():
        return f"no demorank sources under {root / 'src'}; run from the repository root"
    return None


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    workload = WORKLOADS[workload_name]
    dseed = data_seed(seed)
    expected = load_reference().get(workload.reference_key, {}).get(str(dseed))
    if expected is None:
        print(f"no reference digests for data seed {dseed}", file=sys.stderr)
    scratch = root / ".perfbench" / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    setup_args = (root, scratch, make_config(workload, dseed), workload.http, workload.http)
    setups: list[float] = []
    env: Env | None = None

    def fresh_env() -> Env:
        if env is not None:
            env.close()
        new, took = timed_set_up(*setup_args)
        setups.append(took)
        return new

    try:
        for _ in range(SETUP_REPEATS - 1):
            fresh_env().close()
        env = fresh_env()
        if workload.warm:
            prime = checked_chain(env, False, expected)
            if prime.failed or prime.mismatches:
                print("the chain that fills the score cache failed", file=sys.stderr)
            env.stub.reset()

        chains: list[ChainOutcome] = []
        measure_start = time.monotonic()
        while True:
            # Warm chains rerun on the filled cache; the others start afresh.
            if chains and not workload.warm:
                env = fresh_env()
            chain_start = time.monotonic()
            chains.append(checked_chain(env, workload.warm, expected))
            now = time.monotonic()
            if trace or (now - measure_start) + (now - chain_start) > seconds:
                break

        # The warm chains must all be served from the cache.
        leaked = env.stub.stats()["requests"] if workload.warm else 0
        stub_stats = {}
        if trace:
            if not workload.warm:
                env = fresh_env()
            if env.stub:
                env.stub.reset()
            traced = checked_chain(env, workload.warm, expected, trace=True)
            stub_stats = env.stub.stats() if env.stub else {}
            all_chains = [chains[-1], traced]
            metrics = per_layer_metrics(chains[-1], traced, hashseed_mismatches(env),
                                        stub_stats)
            print(stage_table(chains[-1], traced))
        else:
            all_chains = chains
            metrics = end_to_end_metrics(chains, setups)
        if workload.warm:
            leaked += stub_stats.get("requests", 0)
        if leaked:
            print(f"http-warm: the stub received {leaked} requests", file=sys.stderr)
        failed = sum(c.failed for c in all_chains)
        mismatched = sum(len(c.mismatches) for c in all_chains)
        for name, m in metrics.items():
            if not METRIC_NAME.fullmatch(name):
                raise ValueError(f"invalid metric name {name!r}")
            print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
        return {
            "correct": failed == 0 and mismatched == 0 and not leaked,
            "attempted": len(STAGES) * len(all_chains),
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        if env is not None:
            env.close()
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="demorank pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    problem = check_checkout(root)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    # Turn SIGTERM into an exit, so the finally blocks stop the stub scorer.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
