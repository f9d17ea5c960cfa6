"""Experiment configuration: one JSON file drives every pipeline stage.

Unknown keys are rejected and every value is checked when the config loads:
a section is the library type it feeds plus its config-only keys, and a bad
value is a ConfigError naming its section.  Every seed is a `seeds` key, and
the canonical JSON digest stamps artifacts.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path

from .bm25 import Bm25Params
from .pipeline import POLICIES, SelectionParams
from .retriever import EncoderConfig, RetrieverTrainConfig
from .reranker import RerankerTrainConfig
from .scoring import MockScorerWeights, PromptTemplate
from .synth import SynthParams


class ConfigError(ValueError):
    pass


def check_policies(policies) -> list[str]:
    """The policy names, once each is known to `pipeline.POLICIES` and named once."""
    if not policies:
        raise ConfigError("no policy selected")
    for i, p in enumerate(policies):
        if p not in POLICIES:
            raise ConfigError(f"unknown policy {p!r}; expected one of {POLICIES}")
        if p in policies[:i]:
            raise ConfigError(f"policy {p!r} given twice")
    return list(policies)


@dataclass(frozen=True)
class DataSection(SynthParams):
    source: str = "synthetic"  # "synthetic" or "files"
    # used when source == "files"; paths are relative to the config file
    train_queries_path: str = ""
    train_passages_path: str = ""
    train_qrels_path: str = ""
    test_queries_path: str = ""
    test_passages_path: str = ""
    test_qrels_path: str = ""

    def __post_init__(self) -> None:
        if self.source not in ("synthetic", "files"):
            raise ConfigError(f"data.source must be synthetic or files, got {self.source!r}")
        if self.source == "files":
            for name in ("train_queries_path", "train_passages_path", "train_qrels_path",
                         "test_queries_path", "test_passages_path", "test_qrels_path"):
                if not getattr(self, name):
                    raise ConfigError(f"data.{name} is required when source is files")
        super().__post_init__()


@dataclass(frozen=True)
class ScorerSection:
    backend: str = "mock"  # "mock" or "http"
    endpoint: str = ""
    timeout_sec: float = 10.0
    max_retries: int = 3
    max_in_flight: int = 8
    mock_rel: float = 2.0
    mock_div: float = 1.0
    mock_bal: float = 1.0
    mock_raw_scale: float = 2.0
    mock_offset: float = -1.0
    mock_relevance: float = 3.0
    mock_relevance_threshold: float = 0.2

    def __post_init__(self) -> None:
        if self.backend not in ("mock", "http"):
            raise ConfigError(f"scorer.backend must be mock or http, got {self.backend!r}")
        if self.max_retries < 1 or self.max_in_flight < 1 or self.timeout_sec <= 0:
            raise ConfigError("bad scorer limits")

    def mock_weights(self) -> MockScorerWeights:
        return MockScorerWeights(self.mock_rel, self.mock_div, self.mock_bal,
                                 self.mock_raw_scale, self.mock_offset,
                                 self.mock_relevance)


@dataclass(frozen=True)
class EncoderSection(EncoderConfig):
    hidden: int = 64

    def __post_init__(self) -> None:
        if self.hidden <= 0:
            raise ConfigError("encoder.hidden must be positive")
        super().__post_init__()


@dataclass(frozen=True)
class RetrieverSection(RetrieverTrainConfig):
    candidates_b: int = 25  # BM25 half; total candidates = 2b
    in_batch_negatives: bool = False

    def __post_init__(self) -> None:
        if self.candidates_b < 1:
            raise ConfigError("retriever.candidates_b must be at least 1")
        if self.in_batch_negatives:
            raise ConfigError(
                "retriever.in_batch_negatives is reserved; the explicit-negatives "
                "objective is the only implemented variant")
        super().__post_init__()


@dataclass(frozen=True)
class RerankerSection(RerankerTrainConfig):
    retrieve_m: int = 50
    iterations: int = 3
    trajectories: int = 1

    def __post_init__(self) -> None:
        if self.iterations > self.retrieve_m:
            raise ConfigError("reranker.iterations must not exceed reranker.retrieve_m")
        if self.iterations < 1 or self.trajectories < 1:
            raise ConfigError("reranker.iterations and reranker.trajectories must be at least 1")
        super().__post_init__()


@dataclass(frozen=True)
class SelectionSection(SelectionParams):
    policies: tuple[str, ...] = POLICIES

    def __post_init__(self) -> None:
        super().__post_init__()
        check_policies(self.policies)


@dataclass(frozen=True)
class SeedsSection:
    data: int = 11
    pool: int = 13
    training_inputs: int = 17
    mining: int = 19
    retriever_init: int = 23
    retriever_train: int = 29
    sampling: int = 31
    reranker_init: int = 37
    reranker_train: int = 41
    policy: int = 43

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigError(f"seeds.{f.name} must be non-negative")


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataSection = field(default_factory=DataSection)
    template: PromptTemplate = field(default_factory=PromptTemplate)
    scorer: ScorerSection = field(default_factory=ScorerSection)
    bm25: Bm25Params = field(default_factory=Bm25Params)
    encoder: EncoderSection = field(default_factory=EncoderSection)
    retriever: RetrieverSection = field(default_factory=RetrieverSection)
    reranker: RerankerSection = field(default_factory=RerankerSection)
    selection: SelectionSection = field(default_factory=SelectionSection)
    seeds: SeedsSection = field(default_factory=SeedsSection)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return sha256(canonical.encode("utf-8")).hexdigest()

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


# Field types checked by exact type; a union of them (`int | None`) accepts any.
_PLAIN_TYPES = {bool, int, float, str, types.NoneType}


def _build_section(cls, obj: dict, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    hints = typing.get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in obj:
            continue
        val = obj[f.name]
        hint = hints[f.name]
        if hint is float and type(val) is int:
            try:
                val = float(val)
            except OverflowError:
                val = math.inf
        if type(val) is float and not math.isfinite(val):
            raise ConfigError(f"bad value in {where}: {f.name} must be finite, got {val!r}")
        if hint == tuple[str, ...]:
            if not isinstance(val, (list, tuple)):
                raise ConfigError(f"bad value in {where}: {f.name} must be a list, got {val!r}")
            val = tuple(val)
        allowed = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        if set(allowed) <= _PLAIN_TYPES and type(val) not in allowed:
            names = " or ".join("null" if t is types.NoneType else t.__name__ for t in allowed)
            raise ConfigError(f"bad value in {where}: {f.name} must be {names}, got {val!r}")
        kwargs[f.name] = val
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value in {where}: {exc}") from exc


_SECTIONS = {f.name: f.default_factory for f in dataclasses.fields(ExperimentConfig)}


def config_from_dict(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config root must be an object")
    unknown = set(obj) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    kwargs = {
        name: _build_section(cls, obj[name], name)
        for name, cls in _SECTIONS.items() if name in obj
    }
    return ExperimentConfig(**kwargs)


def load_config(path: str | Path | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(obj)
