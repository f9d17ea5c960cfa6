"""End-to-end tests for the command-line pipeline driver."""

import json
import os
import re
import shutil
import subprocess
import sys
from hashlib import sha256
from pathlib import Path

import pytest

import demorank
from demorank import cli
from demorank.cli import DATA_KEYS, main
from demorank.config import load_config
from demorank.pipeline import POLICIES, load_run
from test_scoring import answering_server

TOY_CONFIG = {
    "data": {"topics": 4, "vocab": 60, "train_queries": 12, "test_queries": 4,
             "passages_per_query": 6, "tokens_per_text": 6},
    "encoder": {"vocab_buckets": 256, "dim": 16, "hidden": 8},
    "retriever": {"candidates_b": 4},
    "reranker": {"retrieve_m": 10, "iterations": 2, "epochs": 1},
    "selection": {"shots": 2, "retrieve_d": 6},
}

CHAIN = ["build-pool", "mine-candidates", "score-candidates", "train-retriever",
         "build-samples", "train-reranker", "rank", "evaluate", "compare"]


def write_config(dirpath, overrides=None):
    merged = {k: dict(v) for k, v in TOY_CONFIG.items()}
    for section, values in (overrides or {}).items():
        merged.setdefault(section, {}).update(values)
    path = dirpath / "config.json"
    path.write_text(json.dumps(merged, indent=2))
    return path


def run_cli(config_path, workdir, command, *sub_args, global_args=()) -> int:
    return main(["--config", str(config_path), "--workdir", str(workdir),
                 *global_args, command, *sub_args])


def build_chain(config_path, workdir, upto=None) -> None:
    for command in CHAIN[:CHAIN.index(upto) + 1 if upto else len(CHAIN)]:
        code = run_cli(config_path, workdir, command)
        assert code == 0, f"{command} exited {code}"


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_chain")
    config_path = write_config(root)
    workdir = root / "work"
    build_chain(config_path, workdir)
    return config_path, workdir


class TestFullChain:
    def test_artifacts_exist(self, built):
        _, workdir = built
        for rel in ("pool.jsonl", "training_inputs.jsonl",
                    "training_inputs.report.json", "candidates.jsonl",
                    "scored.jsonl", "retriever.ckpt", "samples.jsonl",
                    "reranker.ckpt", "compare.json"):
            assert (workdir / rel).exists(), rel
        for policy in POLICIES:
            assert (workdir / f"runs/{policy}.run").exists()
            assert (workdir / f"reports/{policy}.json").exists()
        for name in ("train_queries.jsonl", "train_passages.jsonl",
                     "train_qrels.tsv", "test_queries.jsonl",
                     "test_passages.jsonl", "test_qrels.tsv", "topics.json"):
            assert (workdir / "data" / name).exists(), name

    def test_manifests_written(self, built):
        _, workdir = built
        manifests = {p.name for p in (workdir / "manifests").glob("*.manifest.json")}
        for name in ("build-pool", "mine-candidates", "score-candidates",
                     "train-retriever", "build-samples", "train-reranker",
                     "compare"):
            assert f"{name}.manifest.json" in manifests
        for policy in POLICIES:
            assert f"rank-{policy}.manifest.json" in manifests
            assert f"evaluate-{policy}.manifest.json" in manifests

    def test_manifest_contents(self, built):
        config_path, workdir = built
        digest = load_config(config_path).digest()
        manifest = json.loads(
            (workdir / "manifests" / "build-pool.manifest.json").read_text())
        assert manifest["format_version"] == 1
        assert manifest["command"] == "build-pool"
        assert manifest["config_digest"] == digest
        assert set(manifest["inputs"]) == {"train_queries", "train_passages",
                                           "train_qrels"}
        assert "pool.jsonl" in manifest["outputs"]
        for digest_val in manifest["outputs"].values():
            assert re.fullmatch(r"[0-9a-f]{64}", digest_val)

    def test_manifest_inputs(self, built):
        """Each manifest lists every artifact its stage reads; the scoring
        stages also read the mock oracle's files."""
        _, workdir = built
        pool = {"pool.jsonl", "training_inputs.jsonl"}
        oracle = {"topics", *DATA_KEYS}
        models = {"retriever-topk": {"retriever.ckpt"},
                  "demorank": {"retriever.ckpt", "reranker.ckpt"}}
        expected = {
            "data": set(),
            "build-pool": {"train_queries", "train_passages", "train_qrels"},
            "mine-candidates": pool,
            "score-candidates": {*pool, "candidates.jsonl", *oracle},
            "train-retriever": {*pool, "scored.jsonl"},
            "build-samples": {*pool, "retriever.ckpt", *oracle},
            "train-reranker": {*pool, "samples.jsonl"},
            "compare": {f"reports/{p}.json" for p in POLICIES},
            **{f"rank-{p}": {"pool.jsonl", *oracle, *models.get(p, ())} for p in POLICIES},
            **{f"evaluate-{p}": {f"runs/{p}.run", "test_queries", "test_passages",
                                 "test_qrels"} for p in POLICIES},
        }
        found = {path.name.removesuffix(".manifest.json"):
                 set(json.loads(path.read_text())["inputs"])
                 for path in (workdir / "manifests").glob("*.manifest.json")}
        assert found == expected

    def test_run_files_parse(self, built):
        _, workdir = built
        for policy in POLICIES:
            entries = load_run(workdir / f"runs/{policy}.run")
            assert entries
            assert all(e.tag == policy for e in entries)

    def test_reports_parse(self, built):
        config_path, workdir = built
        digest = load_config(config_path).digest()
        for policy in POLICIES:
            obj = json.loads((workdir / f"reports/{policy}.json").read_text())
            assert obj["policy"] == policy
            assert 0.0 <= obj["mean_ndcg"] <= 1.0
            assert obj["config_digest"] == digest
            assert obj["shots"] == 2

    def test_compare_json(self, built):
        config_path, workdir = built
        obj = json.loads((workdir / "compare.json").read_text())
        assert set(obj["mean_ndcg"]) == set(POLICIES)
        assert set(obj["delta_vs_zero_shot"]) == set(POLICIES) - {"zero-shot"}
        assert obj["config_digest"] == load_config(config_path).digest()

    def test_rerun_is_noop(self, built, capsys):
        config_path, workdir = built
        assert run_cli(config_path, workdir, "build-pool") == 0
        assert "build-pool: up to date" in capsys.readouterr().out
        assert run_cli(config_path, workdir, "rank") == 0
        out = capsys.readouterr().out
        for policy in POLICIES:
            assert f"rank[{policy}]: up to date" in out

    def test_force_rebuild_is_deterministic(self, built, capsys):
        config_path, workdir = built
        before = (workdir / "scored.jsonl").read_bytes()
        assert run_cli(config_path, workdir, "score-candidates",
                       global_args=("--force",)) == 0
        out = capsys.readouterr().out
        assert "up to date" not in out
        assert "score-candidates:" in out
        assert (workdir / "scored.jsonl").read_bytes() == before

    def test_identical_chains_write_identical_reports(self, built, tmp_path):
        config_path, workdir = built
        build_chain(config_path, tmp_path / "again")
        for rel in (*(f"reports/{p}.json" for p in POLICIES), "manifests/compare.manifest.json"):
            assert (tmp_path / "again" / rel).read_bytes() == (workdir / rel).read_bytes(), rel

    def test_evaluate_single_policy(self, built, capsys):
        config_path, workdir = built
        assert run_cli(config_path, workdir, "evaluate", "--policy", "zero-shot") == 0
        out = capsys.readouterr().out
        assert "evaluate[zero-shot]: up to date" in out


class TestStageTable:
    ORACLE = {"topics", *DATA_KEYS}
    SCORING = {"score-candidates", "build-samples", *(f"rank-{p}" for p in POLICIES)}

    @pytest.mark.parametrize("source,backend", [
        ("synthetic", "mock"), ("synthetic", "http"), ("files", "mock")])
    def test_table_names_every_input(self, tmp_path, source, backend):
        data = {"source": source}
        if source == "files":
            data.update({f"{key}_path": f"{key}.data" for key in DATA_KEYS})
        config = load_config(write_config(tmp_path, {"data": data, "scorer": {"backend": backend}}))
        table = cli.stages(config)
        assert ("data" in [stage.name for stage in table]) == (source == "synthetic")
        # dataset files read from outside the workdir are the only unproduced inputs
        available = set() if source == "synthetic" else set(DATA_KEYS)
        for stage in table:
            assert set(stage.inputs) <= available, stage.name
            available |= set(stage.outputs)
            reads_oracle = (source, backend) == ("synthetic", "mock") and stage.name in self.SCORING
            assert (self.ORACLE <= set(stage.inputs)) == reads_oracle, stage.name
            assert ("topics" in stage.inputs) == reads_oracle, stage.name


class TestPrintConfig:
    def test_output_is_resolved_json(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        assert run_cli(config_path, tmp_path / "work", "print-config") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["data"]["topics"] == 4
        assert obj["selection"]["shots"] == 2
        assert obj["seeds"]["data"] == 11  # defaults are materialized

    def test_defaults_without_config_file(self, tmp_path, capsys):
        assert main(["--workdir", str(tmp_path / "work"), "print-config"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["data"]["topics"] == 20

    def test_leaves_no_workdir(self, tmp_path, capsys):
        assert run_cli(write_config(tmp_path), tmp_path / "work", "print-config") == 0
        assert not (tmp_path / "work").exists()


class TestExitCodes:
    def test_invalid_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["--config", str(bad), "--workdir", str(tmp_path / "w"),
                     "print-config"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"data": {"topics_count": 3}}))
        assert main(["--config", str(bad), "--workdir", str(tmp_path / "w"),
                     "print-config"]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_unknown_policy(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        assert run_cli(config_path, tmp_path / "work", "rank",
                       "--policy", "clairvoyant") == 2
        assert "unknown policy" in capsys.readouterr().err
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_duplicate_policy_fails_before_any_stage(self, tmp_path, capsys, where):
        policies = ["zero-shot", "random", "random"]
        if where == "config":
            config_path = write_config(tmp_path, {"selection": {"policies": policies}})
            flags = ()
        else:
            config_path = write_config(tmp_path)
            flags = [arg for p in policies for arg in ("--policy", p)]
        assert run_cli(config_path, tmp_path / "work", "rank", *flags) == 2
        assert "policy 'random' given twice" in capsys.readouterr().err
        assert not (tmp_path / "work").exists()

    def test_unknown_policy_in_config_fails_before_any_stage(self, tmp_path, capsys):
        config_path = write_config(
            tmp_path, {"selection": {"policies": ["zero-shot", "zeroshot"]}})
        assert run_cli(config_path, tmp_path / "work", "build-pool") == 2
        assert "unknown policy 'zeroshot'" in capsys.readouterr().err
        assert not (tmp_path / "work").exists()

    def test_bad_value_fails_before_any_stage(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {"reranker": {"epochs": 0}})
        assert run_cli(config_path, tmp_path / "work", "build-pool") == 2
        assert "config error: bad value in reranker" in capsys.readouterr().err
        assert not (tmp_path / "work").exists()

    def test_malformed_artifact_is_an_artifact_error(self, built, tmp_path, capsys):
        config_path, workdir = copy_built(built, tmp_path)
        lines = (workdir / "candidates.jsonl").read_bytes().splitlines(keepends=True)
        lines[1] = b'{"input_id": "no such input", "demo_refs": []}\n'
        rewrite_vouched(workdir, "candidates.jsonl", "mine-candidates", b"".join(lines))
        assert run_cli(config_path, workdir, "score-candidates") == 3
        err = capsys.readouterr().err
        assert err.startswith("artifact error: ")
        assert "candidates.jsonl:2: malformed candidates record" in err

    @pytest.mark.parametrize("rel, stage, command, mutate", [
        ("runs/zero-shot.run", "rank-zero-shot", ["evaluate", "--policy", "zero-shot"],
         lambda b: re.sub(rb"^(\S+ Q0 \S+ \d+) \S+", rb"\1 notanumber", b, count=1)),
        ("reranker.ckpt", "train-reranker", ["rank", "--policy", "demorank"],
         lambda b: b[:len(b) // 2]),
        ("reports/random.json", "evaluate-random", ["compare"],
         lambda b: json.dumps({k: v for k, v in json.loads(b).items()
                               if k != "excluded_queries"}).encode()),
        ("reports/random.json", "evaluate-random", ["compare"], lambda b: b'"x"'),
        ("reports/random.json", "evaluate-random", ["compare"], lambda b: b"null"),
        ("data/topics.json", "data", ["score-candidates"], lambda b: b"[]"),
        ("data/topics.json", "data", ["score-candidates"], lambda b: b'"x"'),
        ("data/topics.json", "data", ["score-candidates"],
         lambda b: b'{"query_topics": {}}'),
        # a valid header (magic, version, metadata length) over metadata `[]`
        ("retriever.ckpt", "train-retriever", ["rank", "--policy", "retriever-topk"],
         lambda b: b[:12] + (2).to_bytes(8, "little") + b"[]"),
    ], ids=["run-score", "truncated-checkpoint", "report-field", "report-string",
            "report-null", "topics-list", "topics-string", "topics-no-passages",
            "checkpoint-metadata-list"])
    def test_malformed_output_is_an_artifact_error(self, built, tmp_path, capsys,
                                                   rel, stage, command, mutate):
        config_path, workdir = copy_built(built, tmp_path)
        rewrite_vouched(workdir, rel, stage, mutate((workdir / rel).read_bytes()))
        assert run_cli(config_path, workdir, *command) == 3
        err = capsys.readouterr().err
        assert err.startswith("artifact error: ")
        assert str(workdir / rel) in err

    def test_input_that_is_a_directory_is_an_artifact_error(self, built, tmp_path, capsys):
        config_path, workdir = copy_built(built, tmp_path)
        run = workdir / "runs" / "random.run"
        run.unlink()
        run.mkdir()
        assert run_cli(config_path, workdir, "evaluate", "--policy", "random") == 3
        err = capsys.readouterr().err
        assert err.startswith(f"artifact error: cannot read {run}: ")

    def test_iterations_beyond_the_pool_is_a_config_error(self, tmp_path, capsys):
        config_path = write_config(tmp_path, {"data": {"train_queries": 3},
                                              "retriever": {"candidates_b": 2},
                                              "reranker": {"iterations": 8}})
        workdir = tmp_path / "work"
        build_chain(config_path, workdir, upto="train-retriever")
        assert run_cli(config_path, workdir, "build-samples") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: reranker.iterations is 8")
        assert "pool has 6 demos" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow on the way
    @pytest.mark.parametrize("model, rate", [("retriever", 1e30), ("reranker", 1e300)])
    def test_non_finite_training_loss_is_a_config_error(self, tmp_path, capsys, model, rate):
        config_path = write_config(tmp_path, {model: {"learning_rate": rate}})
        workdir = tmp_path / "work"
        command = f"train-{model}"
        build_chain(config_path, workdir, upto=CHAIN[CHAIN.index(command) - 1])
        assert run_cli(config_path, workdir, command) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: non-finite {model} loss at epoch 0 on ")
        assert err.rstrip().endswith(f"; lower {model}.learning_rate")
        assert not (workdir / f"{model}.ckpt").exists()

    def test_http_backend_without_endpoint(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("DEMORANK_SCORER_URL", raising=False)
        config_path = write_config(tmp_path, {"scorer": {"backend": "http"}})
        workdir = tmp_path / "work"
        build_chain(config_path, workdir, upto="mine-candidates")
        assert run_cli(config_path, workdir, "score-candidates") == 2
        assert "no endpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["config", "env"])
    def test_endpoint_without_scheme_fails_before_any_request(self, tmp_path, capsys,
                                                              monkeypatch, where):
        import requests

        posts = []
        monkeypatch.setattr(requests.Session, "post", lambda *a, **kw: posts.append(a))
        if where == "env":
            monkeypatch.setenv("DEMORANK_SCORER_URL", "localhost:9")
        else:
            monkeypatch.delenv("DEMORANK_SCORER_URL", raising=False)
        config_path = write_config(tmp_path, {"scorer": {
            "backend": "http",
            "endpoint": "http://127.0.0.1:9" if where == "env" else "localhost:9"}})
        workdir = tmp_path / "work"
        build_chain(config_path, workdir, upto="mine-candidates")
        assert run_cli(config_path, workdir, "score-candidates") == 2
        assert ("config error: scorer endpoint 'localhost:9' is not an http:// or "
                "https:// URL with a host") in capsys.readouterr().err
        assert posts == []
        assert not (workdir / "scored.jsonl").exists()

    def test_missing_artifact(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        assert run_cli(config_path, tmp_path / "work", "mine-candidates") == 3
        err = capsys.readouterr().err
        assert "artifact error" in err
        assert "build-pool" in err

    def test_stale_artifact_after_config_change(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        workdir = tmp_path / "work"
        build_chain(config_path, workdir, upto="score-candidates")
        changed = write_config(tmp_path, {"seeds": {"mining": 1900}})
        assert run_cli(changed, workdir, "train-retriever") == 3
        err = capsys.readouterr().err
        assert "artifact error" in err
        assert "digest" in err

    def test_tampered_artifact_detected(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        workdir = tmp_path / "work"
        build_chain(config_path, workdir, upto="mine-candidates")
        with open(workdir / "pool.jsonl", "a", encoding="utf-8") as fh:
            fh.write("\n")
        assert run_cli(config_path, workdir, "score-candidates") == 3
        assert "changed since" in capsys.readouterr().err

    def test_unreachable_http_backend(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("DEMORANK_SCORER_URL", raising=False)
        config_path = write_config(tmp_path, {"scorer": {
            "backend": "http", "endpoint": "http://127.0.0.1:9/score",
            "timeout_sec": 0.2, "max_retries": 1}})
        workdir = tmp_path / "work"
        build_chain(config_path, workdir, upto="mine-candidates")
        assert run_cli(config_path, workdir, "score-candidates") == 4
        assert "backend error" in capsys.readouterr().err


def copy_built(built, tmp_path):
    """A private copy of the shared chain's workdir, safe to tamper with."""
    config_path, workdir = built
    copy = tmp_path / "work"
    shutil.copytree(workdir, copy)
    return config_path, copy


def rewrite_vouched(workdir, rel, stage, content: bytes) -> None:
    """Replace an artifact and record its new hash in its producer's manifest,
    so a stage reads the new bytes instead of rejecting them as changed."""
    (workdir / rel).write_bytes(content)
    manifest_path = workdir / "manifests" / f"{stage}.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    # the data stage records its files by artifact key, e.g. "topics"
    key = {path: key for key, path in cli.DATA_FILES.items()}.get(rel, rel)
    manifest["outputs"][key] = cli._hash_file(workdir / rel)
    manifest_path.write_text(json.dumps(manifest))


class TestStageChecks:
    def test_data_section_change_regenerates_data(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        workdir = tmp_path / "work"
        assert run_cli(config_path, workdir, "build-pool") == 0
        changed = write_config(tmp_path, {"data": {"train_queries": 16}})
        assert run_cli(changed, workdir, "build-pool") == 0
        assert "data: 16 train and 4 test queries" in capsys.readouterr().out
        queries = (workdir / "data" / "train_queries.jsonl").read_text().splitlines()
        assert len(queries) == 16
        manifest = json.loads((workdir / "manifests" / "data.manifest.json").read_text())
        assert manifest["config_digest"] == load_config(changed).digest()

    def test_tampered_run_file_detected_by_evaluate(self, built, tmp_path, capsys):
        config_path, workdir = copy_built(built, tmp_path)
        with open(workdir / "runs" / "zero-shot.run", "a", encoding="utf-8") as fh:
            fh.write("not a run line\n")
        assert run_cli(config_path, workdir, "evaluate", global_args=("--force",)) == 3
        err = capsys.readouterr().err
        assert "runs/zero-shot.run changed since 'rank' wrote it; rerun 'rank'" in err

    def test_tampered_report_detected_by_compare(self, built, tmp_path, capsys):
        config_path, workdir = copy_built(built, tmp_path)
        (workdir / "reports" / "random.json").write_text("{bad")
        assert run_cli(config_path, workdir, "compare") == 3
        assert "rerun 'evaluate'" in capsys.readouterr().err

    def test_missing_data_file_names_build_pool(self, built, tmp_path, capsys):
        config_path, workdir = copy_built(built, tmp_path)
        (workdir / "data" / "test_queries.jsonl").unlink()
        assert run_cli(config_path, workdir, "rank", global_args=("--force",)) == 3
        err = capsys.readouterr().err
        assert "test_queries.jsonl; run 'build-pool' first" in err

    def test_mine_candidates_needs_only_the_pool_files(self, built, tmp_path):
        config_path, workdir = built
        fresh = tmp_path / "fresh"
        (fresh / "manifests").mkdir(parents=True)
        for rel in ("pool.jsonl", "training_inputs.jsonl",
                    "manifests/build-pool.manifest.json"):
            shutil.copyfile(workdir / rel, fresh / rel)
        assert run_cli(config_path, fresh, "mine-candidates") == 0
        assert ((fresh / "candidates.jsonl").read_bytes()
                == (workdir / "candidates.jsonl").read_bytes())

    def test_artifact_made_from_an_older_upstream_file_is_stale(self, tmp_path, capsys):
        assert run_cli(write_config(tmp_path), tmp_path / "synth", "build-pool") == 0
        shutil.copytree(tmp_path / "synth" / "data", tmp_path / "data")
        config_path = write_config(tmp_path, {"data": {"source": "files", **{
            f"{key}_path": f"data/{key}.{'tsv' if key.endswith('qrels') else 'jsonl'}"
            for key in DATA_KEYS}}})
        workdir = tmp_path / "work"
        build_chain(config_path, workdir, upto="train-retriever")
        passages = tmp_path / "data" / "train_passages.jsonl"
        records = [json.loads(line) for line in passages.read_text().splitlines()]
        passages.write_text("".join(json.dumps({**r, "text": "zzz " + r["text"]}) + "\n"
                                    for r in records))
        assert run_cli(config_path, workdir, "build-pool") == 0
        assert run_cli(config_path, workdir, "train-retriever", global_args=("--force",)) == 3
        assert ("artifact candidates.jsonl was made from an older pool.jsonl; "
                "rerun 'mine-candidates'") in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "[]", "[1]", '{"config_digest": 7, "outputs": []}',
        '{"config_digest": "x", "inputs": {"data": 1}, "outputs": {}}'])
    def test_manifest_that_is_not_an_object_of_digests_counts_as_missing(
            self, built, tmp_path, capsys, text):
        config_path, workdir = copy_built(built, tmp_path)
        (workdir / "manifests" / "build-pool.manifest.json").write_text(text)
        assert run_cli(config_path, workdir, "mine-candidates") == 3
        assert "has no manifest; rerun 'build-pool'" in capsys.readouterr().err
        assert run_cli(config_path, workdir, "build-pool") == 0
        assert "build-pool: up to date" not in capsys.readouterr().out
        assert run_cli(config_path, workdir, "mine-candidates", global_args=("--force",)) == 0

    @pytest.mark.parametrize("force", [False, True])
    def test_each_file_is_hashed_once_per_command(self, built, tmp_path, monkeypatch, force):
        config_path, workdir = copy_built(built, tmp_path)
        real, hashed = cli._hash_file, []
        monkeypatch.setattr(cli, "_hash_file", lambda p: hashed.append(p) or real(p))
        flags = ("--force",) if force else ()
        assert run_cli(config_path, workdir, "rank", global_args=flags) == 0
        assert hashed and len(hashed) == len(set(hashed))

    @pytest.mark.parametrize("force", [False, True])
    def test_each_manifest_is_read_at_most_once_per_stage(self, built, tmp_path,
                                                          monkeypatch, force):
        config_path, workdir = copy_built(built, tmp_path)
        run_stage, read_manifest = cli.run_stage, cli.Workspace.read_manifest
        current, reads = [], []
        monkeypatch.setattr(cli, "run_stage", lambda s, stage, force: (
            current.append(stage.name) or run_stage(s, stage, force)))
        monkeypatch.setattr(cli.Workspace, "read_manifest", lambda ws, name: (
            reads.append((current[-1], name)) or read_manifest(ws, name)))
        flags = ("--force",) if force else ()
        assert run_cli(config_path, workdir, "rank", global_args=flags) == 0
        assert {stage for stage, _ in reads} == {f"rank-{p}" for p in POLICIES}
        assert len(reads) == len(set(reads))


class TestScoreCache:
    def test_cache_persists_and_serves_hits(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        workdir = tmp_path / "work"
        cache_path = tmp_path / "scores.cache"
        build_chain(config_path, workdir, upto="mine-candidates")
        assert run_cli(config_path, workdir, "score-candidates",
                       global_args=("--score-cache", str(cache_path))) == 0
        first = capsys.readouterr().out
        assert cache_path.exists()
        assert "(0 cache hits)" in first
        assert run_cli(config_path, workdir, "score-candidates",
                       global_args=("--force", "--score-cache", str(cache_path))) == 0
        second = capsys.readouterr().out
        scores, hits = map(int, re.search(
            r"score-candidates: (\d+) scores \((\d+) cache hits\)", second).groups())
        assert hits == scores > 0


    def test_cache_not_shared_across_scorer_configs(self, tmp_path, capsys):
        cache_path = tmp_path / "scores.cache"
        runs = {}
        for name, overrides in (("a", None), ("b", {"scorer": {"mock_rel": 5.0}})):
            (tmp_path / name).mkdir()
            config_path = write_config(tmp_path / name, overrides)
            workdir = tmp_path / name / "work"
            build_chain(config_path, workdir, upto="mine-candidates")
            assert run_cli(config_path, workdir, "score-candidates",
                           global_args=("--score-cache", str(cache_path))) == 0
            runs[name] = config_path, workdir
        assert "(0 cache hits)" in capsys.readouterr().out.splitlines()[-1]
        config_path, workdir = runs["b"]
        cached = (workdir / "scored.jsonl").read_bytes()
        assert run_cli(config_path, workdir, "score-candidates",
                       global_args=("--force",)) == 0
        assert (workdir / "scored.jsonl").read_bytes() == cached

    def test_cache_file_holds_only_the_last_scorers_entries(self, tmp_path, capsys):
        """A run under another scorer replaces the file's entries: it keeps
        only the keys it could hit."""
        cache_path = tmp_path / "scores.cache"
        for name, overrides in (("a", None), ("b", {"scorer": {"mock_rel": 5.0}})):
            (tmp_path / name).mkdir()
            config_path = write_config(tmp_path / name, overrides)
            workdir = tmp_path / name / "work"
            build_chain(config_path, workdir, upto="mine-candidates")
            assert run_cli(config_path, workdir, "score-candidates",
                           global_args=("--score-cache", str(cache_path))) == 0
        scores = int(re.search(r"score-candidates: (\d+) scores",
                               capsys.readouterr().out.splitlines()[-1]).group(1))
        keys = json.loads(cache_path.read_text())
        assert len({key.split(":")[0] for key in keys}) == 1
        assert len(keys) == scores > 0

    def test_cache_is_shared_across_format_keys(self, tmp_path, capsys):
        """The format keys reach no scorer, so they split no cache key."""
        cache_path = tmp_path / "scores.cache"
        for name, separator in (("a", "\n\n"), ("b", " | ")):
            (tmp_path / name).mkdir()
            config_path = write_config(tmp_path / name, {"template": {"separator": separator}})
            workdir = tmp_path / name / "work"
            build_chain(config_path, workdir, upto="mine-candidates")
            assert run_cli(config_path, workdir, "score-candidates",
                           global_args=("--score-cache", str(cache_path))) == 0
        scores, hits = map(int, re.search(
            r"score-candidates: (\d+) scores \((\d+) cache hits\)",
            capsys.readouterr().out.splitlines()[-1]).groups())
        assert hits == scores > 0

    def test_failed_http_batch_keeps_the_scores_before_the_failure(
            self, tmp_path, capsys, monkeypatch):
        """A scorer failure loses no score returned for an earlier request, and
        a rerun sends only the requests the cache does not hold."""
        fail = set()

        def answer(body):
            digest = sha256(json.dumps(body).encode("utf-8")).hexdigest()
            if digest in fail:
                return 503, {}
            return 200, {"p": {"Yes": 1 + int(digest[:2], 16), "No": 256}}

        with answering_server(answer) as (url, state):
            monkeypatch.setenv("DEMORANK_SCORER_URL", url)
            config_path = write_config(tmp_path, {"scorer": {
                "backend": "http", "max_retries": 1, "max_in_flight": 2}})
            workdir = tmp_path / "work"
            build_chain(config_path, workdir, upto="mine-candidates")
            healthy, cache = tmp_path / "healthy.cache", tmp_path / "scores.cache"
            assert run_cli(config_path, workdir, "score-candidates",
                           global_args=("--score-cache", str(healthy))) == 0
            scored = (workdir / "scored.jsonl").read_bytes()
            paid = json.loads(healthy.read_text())  # keys in request order
            keys = list(paid)
            cut = len(keys) // 2
            fail.add(keys[cut].split(":")[1])
            assert run_cli(config_path, workdir, "score-candidates",
                           global_args=("--force", "--score-cache", str(cache))) == 4
            assert "backend error" in capsys.readouterr().err
            assert json.loads(cache.read_text()) == {k: paid[k] for k in keys[:cut]}
            fail.clear()
            state.seen.clear()
            assert run_cli(config_path, workdir, "score-candidates",
                           global_args=("--force", "--score-cache", str(cache))) == 0
            sent = sorted(sha256(json.dumps(body).encode("utf-8")).hexdigest()
                          for _, body in state.seen)
        assert sent == sorted(k.split(":")[1] for k in keys[cut:])
        assert cache.read_bytes() == healthy.read_bytes()
        assert (workdir / "scored.jsonl").read_bytes() == scored

    @pytest.mark.parametrize("content", [
        "{bad", '{"x": 1}', "[]", '{"x": [2.0, -1.0]}', '{"x": [true, false]}',
        '{"x": ["0.25", "0.75"]}', '{"x": {"0.25": 1, "0.75": 2}}', '{"x": "01"}'])
    def test_corrupt_cache_is_an_artifact_error(self, built, tmp_path, capsys, content):
        config_path, workdir = copy_built(built, tmp_path)
        cache_path = tmp_path / "scores.cache"
        cache_path.write_text(content)
        assert run_cli(config_path, workdir, "score-candidates",
                       global_args=("--force", "--score-cache", str(cache_path))) == 3
        err = capsys.readouterr().err
        assert f"score cache {cache_path} is unreadable" in err
        assert cache_path.read_text() == content


class TestWorkdir:
    def test_nested_workdir_created(self, tmp_path):
        config_path = write_config(tmp_path)
        nested = tmp_path / "a" / "b" / "work"
        assert run_cli(config_path, nested, "build-pool") == 0
        assert (nested / "pool.jsonl").exists()

    def test_workdir_that_is_a_file_is_a_config_error(self, tmp_path, capsys):
        config_path = write_config(tmp_path)
        workdir = tmp_path / "work"
        workdir.write_text("")
        assert run_cli(config_path, workdir, "build-pool") == 2
        assert f"config error: --workdir {workdir}: cannot make directory" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("name", ["blocker/scores.cache", "blocker"])
    def test_unusable_score_cache_fails_before_any_stage(self, tmp_path, capsys, name):
        config_path = write_config(tmp_path)
        workdir = tmp_path / "work"
        build_chain(config_path, workdir, upto="mine-candidates")
        blocker = tmp_path / "blocker"
        if "/" in name:
            blocker.write_text("")
        else:
            blocker.mkdir()
        cache_path = tmp_path / name
        assert run_cli(config_path, workdir, "score-candidates",
                       global_args=("--score-cache", str(cache_path))) == 2
        assert f"config error: --score-cache {cache_path}" in capsys.readouterr().err
        assert not (workdir / "scored.jsonl").exists()
        assert not (workdir / "manifests" / "score-candidates.manifest.json").exists()


class TestHashSeed:
    def test_mining_does_not_depend_on_the_hash_seed(self, tmp_path):
        """BM25 sums query terms in sorted order, so processes with different
        hash seeds mine the same candidates."""
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            {"data": {"train_queries": 50, "test_queries": 12}, "seeds": {"data": 11}}))
        src = Path(demorank.__file__).resolve().parent.parent
        mined = []
        for hash_seed in ("0", "1"):
            workdir = tmp_path / f"work-{hash_seed}"
            for command in ("build-pool", "mine-candidates"):
                result = subprocess.run(
                    [sys.executable, "-m", "demorank.cli", "--config", str(config_path),
                     "--workdir", str(workdir), command],
                    cwd=tmp_path, capture_output=True, text=True, timeout=300,
                    env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed})
                assert result.returncode == 0, result.stderr
            mined.append((workdir / "candidates.jsonl").read_bytes())
        assert mined[0] == mined[1]


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_stops_the_status_lines_not_the_command(self, built, tmp_path,
                                                                  unbuffered):
        config_path, workdir = copy_built(built, tmp_path)
        for policy in POLICIES:
            (workdir / "reports" / f"{policy}.json").unlink()
            (workdir / "manifests" / f"evaluate-{policy}.manifest.json").unlink()
        env = {**os.environ, "PYTHONPATH": str(Path(demorank.__file__).resolve().parent.parent)}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # nobody reads: every write to stdout fails with EPIPE
        try:
            result = subprocess.run(
                [sys.executable, "-m", "demorank.cli", "--config", str(config_path),
                 "--workdir", str(workdir), "--force", "evaluate"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (0, "")
        for policy in POLICIES:
            assert (workdir / "reports" / f"{policy}.json").exists(), policy
            assert (workdir / "manifests" / f"evaluate-{policy}.manifest.json").exists(), policy


class TestImportWeight:
    def test_mock_chain_never_imports_requests(self, tmp_path):
        """Only the HTTP scorer needs `requests`; a mock-backend process never loads it."""
        script = "\n".join([
            "import sys",
            "import demorank, demorank.cli",
            "for command in ('build-pool', 'mine-candidates', 'score-candidates'):",
            "    argv = ['--config', sys.argv[1], '--workdir', sys.argv[2], command]",
            "    assert demorank.cli.main(argv) == 0, command",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'requests'))",
        ])
        src = Path(demorank.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c", script, str(write_config(tmp_path)), str(tmp_path / "work")],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "work" / "scored.jsonl").exists()
        assert result.stdout.splitlines()[-1] == "[]"

    def test_mock_scoring_starts_no_thread(self, tmp_path):
        """The mock scores a batch in the calling thread; only the HTTP scorer
        builds a thread pool."""
        script = "\n".join([
            "import sys, threading",
            "import demorank.cli",
            "for command in ('build-pool', 'mine-candidates', 'score-candidates'):",
            "    argv = ['--config', sys.argv[1], '--workdir', sys.argv[2], command]",
            "    assert demorank.cli.main(argv) == 0, command",
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)",
        ])
        src = Path(demorank.__file__).resolve().parent.parent
        result = subprocess.run(
            [sys.executable, "-c", script, str(write_config(tmp_path)), str(tmp_path / "work")],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "work" / "scored.jsonl").exists()
        assert result.stdout.splitlines()[-1] == "1 False"
