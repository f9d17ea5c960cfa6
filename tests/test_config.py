"""Tests for the experiment configuration file format and its digest."""

import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import demorank
from demorank.bm25 import Bm25Params
from demorank.config import (
    ConfigError,
    DataSection,
    ExperimentConfig,
    RerankerSection,
    RetrieverSection,
    ScorerSection,
    config_from_dict,
    load_config,
)
from demorank.pipeline import SelectionParams
from demorank.retriever import EncoderConfig, RetrieverTrainConfig
from demorank.reranker import RerankerTrainConfig
from demorank.scoring import HttpScorer, MockScorer, MockScorerWeights, PromptTemplate
from demorank.synth import SynthParams


class TestDefaults:
    def test_data_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.data.source == "synthetic"
        assert (cfg.data.topics, cfg.data.vocab) == (20, 500)
        assert (cfg.data.train_queries, cfg.data.test_queries) == (200, 50)
        assert cfg.data.passages_per_query == 20
        assert cfg.data.tokens_per_text == 16

    def test_stage_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.retriever.candidates_b == 25
        assert cfg.retriever.learning_rate == 0.05
        assert cfg.retriever.epochs == 2
        assert cfg.retriever.lam == 0.2
        assert cfg.reranker.retrieve_m == 50
        assert cfg.reranker.iterations == 3
        assert cfg.reranker.learning_rate == 0.001
        assert cfg.selection.shots == 3
        assert cfg.selection.retrieve_d == 30
        assert cfg.selection.policies == (
            "zero-shot", "random", "bm25-demos", "retriever-topk", "demorank")
        assert (cfg.encoder.vocab_buckets, cfg.encoder.dim, cfg.encoder.hidden) == \
            (4096, 64, 64)
        assert (cfg.bm25.k1, cfg.bm25.b) == (0.9, 0.4)
        assert cfg.bm25 == Bm25Params()
        assert cfg.template == PromptTemplate()
        assert cfg.template.separator == "\n\n"

    def test_every_seed_is_explicit(self):
        seeds = ExperimentConfig().seeds
        assert (seeds.data, seeds.pool, seeds.training_inputs) == (11, 13, 17)
        assert (seeds.mining, seeds.retriever_init, seeds.retriever_train) == (19, 23, 29)
        assert (seeds.sampling, seeds.reranker_init, seeds.reranker_train) == (31, 37, 41)
        assert seeds.policy == 43

    def test_load_none_gives_defaults(self):
        assert load_config(None) == ExperimentConfig()


class TestDigest:
    def test_stable_across_instances(self):
        a, b = ExperimentConfig(), ExperimentConfig()
        assert a.digest() == b.digest()
        assert len(a.digest()) == 64
        int(a.digest(), 16)  # hex

    def test_sensitive_to_any_field(self):
        base = ExperimentConfig().digest()
        assert config_from_dict({"data": {"topics": 21}}).digest() != base
        assert config_from_dict({"seeds": {"policy": 44}}).digest() != base
        assert config_from_dict({"selection": {"shots": 2}}).digest() != base

    def test_json_round_trip_preserves_digest(self):
        cfg = config_from_dict({"data": {"topics": 7, "vocab": 120},
                                "selection": {"shots": 2, "retrieve_d": 9}})
        back = config_from_dict(json.loads(cfg.to_json()))
        assert back == cfg
        assert back.digest() == cfg.digest()

    def test_to_dict_round_trip(self):
        cfg = ExperimentConfig()
        assert config_from_dict(cfg.to_dict()) == cfg

    # Checkpoints, reports and compare.json record these digests, so a change
    # to the config's types must leave them as they are.
    @pytest.mark.parametrize("obj,digest", [
        ({}, "4d057db8d91e30b523fa3d64c6effc8de4ec3609f1f4b2b46b80d649d4fc0c85"),
        ({"seeds": {"data": 11}, "data": {"train_queries": 50, "test_queries": 12}},
         "70ac07a7b7dfa4a0f0445d207c15cda35c5a12dc95bcd1b98f7313efff12a099"),
        ({"seeds": {"data": 11}, "data": {"train_queries": 12, "test_queries": 3},
          "retriever": {"candidates_b": 12}, "reranker": {"retrieve_m": 24},
          "scorer": {"backend": "http", "max_in_flight": 2}},
         "be0aa87cb0d618d3128bbdd01c0ec5726066c115b38a13e23f517209c7a11902"),
    ], ids=["default", "desk-mock", "http"])
    def test_digest_is_pinned(self, obj, digest):
        assert config_from_dict(obj).digest() == digest


class TestCoercions:
    def test_int_becomes_float(self):
        cfg = config_from_dict({"bm25": {"k1": 1, "b": 0}})
        assert cfg.bm25.k1 == 1.0 and isinstance(cfg.bm25.k1, float)
        assert cfg.bm25.b == 0.0 and isinstance(cfg.bm25.b, float)

    def test_policy_list_becomes_tuple(self):
        cfg = config_from_dict({"selection": {"policies": ["zero-shot", "random"]}})
        assert cfg.selection.policies == ("zero-shot", "random")


class TestValidation:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config sections"):
            config_from_dict({"dataa": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys in data"):
            config_from_dict({"data": {"topic_count": 5}})

    def test_non_object_section_rejected(self):
        with pytest.raises(ConfigError, match="data must be an object"):
            config_from_dict({"data": 5})

    def test_non_object_root_rejected(self):
        with pytest.raises(ConfigError, match="root must be an object"):
            config_from_dict([1, 2])

    def test_bad_data_source(self):
        with pytest.raises(ConfigError, match="synthetic or files"):
            DataSection(source="database")

    def test_files_source_requires_paths(self):
        with pytest.raises(ConfigError, match="required when source is files"):
            DataSection(source="files", train_queries_path="q.jsonl")

    def test_bad_scorer_backend(self):
        with pytest.raises(ConfigError, match="mock or http"):
            ScorerSection(backend="grpc")

    def test_bad_scorer_limits(self):
        with pytest.raises(ConfigError, match="scorer limits"):
            ScorerSection(max_retries=0)
        with pytest.raises(ConfigError, match="scorer limits"):
            ScorerSection(timeout_sec=0.0)
        with pytest.raises(ConfigError, match="scorer limits"):
            ScorerSection(max_in_flight=0)

    def test_in_batch_negatives_reserved(self):
        with pytest.raises(ConfigError, match="reserved"):
            RetrieverSection(in_batch_negatives=True)

    def test_bad_candidate_count(self):
        with pytest.raises(ConfigError, match="candidates_b"):
            RetrieverSection(candidates_b=0)

    def test_bad_selection_sizes(self):
        with pytest.raises(ConfigError, match="bad value in selection: bad selection sizes"):
            config_from_dict({"selection": {"shots": -1}})
        with pytest.raises(ConfigError, match="bad value in selection: bad selection sizes"):
            config_from_dict({"selection": {"retrieve_d": 0}})

    def test_iterations_capped_by_retrieve_m(self):
        with pytest.raises(ConfigError, match="iterations must not exceed"):
            config_from_dict({"reranker": {"retrieve_m": 4, "iterations": 5}})

    def test_shots_capped_by_retrieve_d(self):
        with pytest.raises(ConfigError, match="shots must not exceed"):
            config_from_dict({"selection": {"shots": 5, "retrieve_d": 4}})

    @pytest.mark.parametrize("key,value", [
        ("data.topics", 0),
        ("template.input_format", "Passage: {passage}"),  # no {query}
        ("bm25.k1", -1),
        ("encoder.dim", 0),
        ("encoder.hidden", 0),
        ("retriever.learning_rate", -1),
        ("retriever.lam", -1),
        ("reranker.epochs", 0),
        ("reranker.learning_rate", 0),
        ("reranker.trajectories", 0),
        ("reranker.iterations", 0),
        ("reranker.max_pairs_per_sample", 0),
        ("reranker.max_pairs_per_sample", 2.5),
        ("reranker.max_pairs_per_sample", True),
        ("selection.policies", ["zero-shot", "zeroshot"]),
        ("selection.policies", []),
        ("selection.policies", ["zero-shot", "random", "random"]),
        ("reranker.epochs", 2.5),
        ("template.separator", 5),
        ("selection.per_query", "yes"),
        ("selection.policies", "random"),
        ("retriever.lam", float("nan")),
        ("reranker.learning_rate", float("inf")),
        ("bm25.k1", float("nan")),
        ("scorer.timeout_sec", float("inf")),
        ("scorer.timeout_sec", 10 ** 400),
        ("seeds.retriever_init", -1),
        ("seeds.data", -5),
    ])
    def test_bad_value_fails_at_load_naming_its_section(self, key, value):
        section, name = key.split(".")
        with pytest.raises(ConfigError, match=f"bad value in {section}: "):
            config_from_dict({section: {name: value}})

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_json_literal_rejected(self, tmp_path, literal):
        path = tmp_path / "config.json"
        path.write_text('{"retriever": {"lam": %s}}' % literal)
        with pytest.raises(ConfigError, match="bad value in retriever: lam must be finite"):
            load_config(path)

    def test_policies_must_be_a_list(self):
        with pytest.raises(ConfigError, match="policies must be a list"):
            config_from_dict({"selection": {"policies": "random"}})

    def test_unknown_policy_message(self):
        with pytest.raises(ConfigError, match="unknown policy 'zeroshot'; expected one of"):
            config_from_dict({"selection": {"policies": ["zeroshot"]}})


class TestSectionBuilders:
    def test_synth_params(self):
        section = DataSection(topics=5, vocab=60, train_queries=10, test_queries=4,
                              passages_per_query=6, tokens_per_text=8)
        assert isinstance(section, SynthParams)
        assert (section.topics, section.vocab, section.train_queries, section.test_queries,
                section.passages_per_query, section.tokens_per_text) == (5, 60, 10, 4, 6, 8)

    def test_bad_synth_params_wrapped(self):
        with pytest.raises(ConfigError, match="bad value in data: topics must be positive"):
            config_from_dict({"data": {"topics": 0}})

    def test_encoder_section_is_the_encoder_config(self):
        cfg = config_from_dict({"encoder": {"vocab_buckets": 256, "dim": 16, "hidden": 8}})
        assert cfg.encoder == EncoderConfig(vocab_buckets=256, dim=16, hidden=8)
        for key in ("vocab_buckets", "dim", "hidden"):
            with pytest.raises(ConfigError, match=f"bad value in encoder: .*{key}"):
                config_from_dict({"encoder": {key: 0}})

    def test_retriever_train_config(self):
        section = RetrieverSection(learning_rate=0.1, epochs=3, lam=0.5)
        assert isinstance(section, RetrieverTrainConfig)
        assert (section.learning_rate, section.epochs, section.lam) == (0.1, 3, 0.5)
        with pytest.raises(ConfigError, match="bad value in retriever"):
            config_from_dict({"retriever": {"learning_rate": -1.0}})

    def test_reranker_train_config(self):
        section = RerankerSection(max_pairs_per_sample=5, learning_rate=0.01, epochs=3)
        assert isinstance(section, RerankerTrainConfig)
        assert (section.max_pairs_per_sample, section.learning_rate, section.epochs) == \
            (5, 0.01, 3)
        with pytest.raises(ConfigError, match="bad value in reranker"):
            config_from_dict({"reranker": {"epochs": 0}})

    @pytest.mark.parametrize("section, library_type", [
        ("data", SynthParams), ("template", PromptTemplate), ("bm25", Bm25Params),
        ("encoder", EncoderConfig), ("retriever", RetrieverTrainConfig),
        ("reranker", RerankerTrainConfig), ("selection", SelectionParams),
    ])
    def test_section_is_its_library_type(self, section, library_type):
        assert isinstance(getattr(ExperimentConfig(), section), library_type)
        # seeds are `seeds.*` keys only, passed to the trainers as arguments
        assert "seed" not in {f.name for f in dataclasses.fields(library_type)}

    def test_mock_weights(self):
        assert ScorerSection().mock_weights() == MockScorerWeights(
            2.0, 1.0, 1.0, 2.0, -1.0, 3.0)


class TestScorerDefaults:
    """The `scorer` section restates library defaults; they must not drift."""

    def test_every_default_matches_the_library(self):
        mock, http = (inspect.signature(cls).parameters for cls in (MockScorer, HttpScorer))
        library = {
            **{f"mock_{f.name}": f.default for f in dataclasses.fields(MockScorerWeights)},
            "mock_relevance_threshold": mock["relevance_threshold"].default,
            "timeout_sec": http["timeout"].default,
            "max_retries": http["max_retries"].default,
            "max_in_flight": http["max_in_flight"].default,
        }
        section = ScorerSection()
        assert {f.name: getattr(section, f.name) for f in dataclasses.fields(ScorerSection)
                if f.name not in ("backend", "endpoint")} == library
        assert len(library) == 10

    def test_mock_weights_maps_each_key_by_name(self):
        values = {f.name: float(i) for i, f in enumerate(dataclasses.fields(MockScorerWeights))}
        section = ScorerSection(**{f"mock_{name}": v for name, v in values.items()})
        assert section.mock_weights() == MockScorerWeights(**values)


def demorank_modules():
    package = Path(demorank.__file__).parent
    return [importlib.import_module(f"demorank.{path.stem}")
            for path in sorted(package.glob("*.py")) if path.stem != "__init__"]


class TestParameterTypes:
    def test_no_dataclass_holds_a_seed(self):
        """Every seed reaches the library as an argument."""
        seeded = [f"{module.__name__}.{cls.__qualname__}.{f.name}"
                  for module in demorank_modules() for cls in vars(module).values()
                  if isinstance(cls, type) and dataclasses.is_dataclass(cls)
                  and cls.__module__ == module.__name__
                  for f in dataclasses.fields(cls)
                  if f.name == "seed" or f.name.endswith("_seed")]
        assert seeded == []

    def test_every_section_but_scorer_and_seeds_is_a_library_type(self):
        config_only = [f.name for f in dataclasses.fields(ExperimentConfig)
                       if not any(dataclasses.is_dataclass(base)
                                  and base.__module__ != "demorank.config"
                                  for base in f.default_factory.__mro__)]
        assert config_only == ["scorer", "seeds"]


class TestLoadConfig:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"data": {"topics": 6, "vocab": 90}}))
        cfg = load_config(path)
        assert cfg.data.topics == 6
        assert cfg.data.vocab == 90
        assert cfg.selection.shots == 3  # untouched sections keep defaults

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.json")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"data": {"source": "synth\xe9tic"}}')
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


ROOT = Path(__file__).resolve().parents[1]


def _readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def _readme_config_block() -> str:
    section = _readme().split("## Configuration", 1)[1]
    return section.split("```jsonc\n", 1)[1].split("```", 1)[0]


def test_readme_config_block_lists_every_key_with_its_default():
    block = json.loads(re.sub(r"//[^\n]*", "", _readme_config_block()))
    defaults = json.loads(ExperimentConfig().to_json())
    assert list(block) == list(ExperimentConfig().to_dict())
    for section, values in block.items():
        assert set(values) == set(defaults[section]), section
        for key, value in values.items():
            if value != "...":
                assert value == defaults[section][key], f"{section}.{key}"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", _readme(), re.S | re.M)
    assert blocks
    for block in blocks:
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        result = subprocess.run([sys.executable, "-c", block], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
