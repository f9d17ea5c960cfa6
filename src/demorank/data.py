"""Corpus types: queries, passages, judgments, demonstration pools, training inputs.

File formats:
  queries.jsonl / passages.jsonl   one {"id": ..., "text": ...} object per line
  qrels.tsv                        query_id <TAB> 0 <TAB> passage_id <TAB> grade
  pool.jsonl                       one demonstration per line (explicit fields)
  training_inputs.jsonl            one training input per line

Every JSONL artifact is written by `write_jsonl` and read by `read_jsonl`;
records that point at training inputs and pool demonstrations are resolved
by `RefResolver`.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


class Label(str, enum.Enum):
    YES = "Yes"
    NO = "No"

    def __str__(self) -> str:
        return self.value


LABEL_SPACE = (Label.YES.value, Label.NO.value)


class CorpusError(ValueError):
    pass


class EmptyPoolError(CorpusError):
    pass


@dataclass(frozen=True)
class Query:
    id: str
    text: str


@dataclass(frozen=True)
class Passage:
    id: str
    text: str


@dataclass(frozen=True)
class RelJudgment:
    query_id: str
    passage_id: str
    grade: int  # 0 = judged irrelevant, >0 = relevant


@dataclass(frozen=True)
class Demonstration:
    """A judged query-passage pair with its relevance verdict as the label."""

    query: Query
    passage: Passage
    label: Label

    @property
    def ref(self) -> tuple[str, str, str]:
        return (self.query.id, self.passage.id, self.label.value)


@dataclass(frozen=True)
class TrainingInput:
    """A query-passage pair whose gold label the scorer is asked to recover."""

    query: Query
    passage: Passage
    gold: Label

    @property
    def input_id(self) -> str:
        return f"{self.query.id}::{self.passage.id}::{self.gold.value}"


def pair_text(pair) -> str:
    """A query-passage pair (anything with `.query` and `.passage`) as the one
    text BM25, both encoders and the mock judge read: query, space, passage."""
    return f"{pair.query.text} {pair.passage.text}"


@dataclass
class Dataset:
    queries: list[Query]
    passages: list[Passage]
    judgments: list[RelJudgment]
    split: str

    def __post_init__(self) -> None:
        qids = [q.id for q in self.queries]
        pids = [p.id for p in self.passages]
        if len(set(qids)) != len(qids):
            raise CorpusError(f"duplicate query ids in {self.split} split")
        if len(set(pids)) != len(pids):
            raise CorpusError(f"duplicate passage ids in {self.split} split")
        qid_set, pid_set = set(qids), set(pids)
        for j in self.judgments:
            if j.query_id not in qid_set:
                raise CorpusError(f"judgment references unknown query {j.query_id!r}")
            if j.passage_id not in pid_set:
                raise CorpusError(f"judgment references unknown passage {j.passage_id!r}")
            if j.grade < 0:
                raise CorpusError(f"negative grade for ({j.query_id}, {j.passage_id})")

    def passages_by_id(self) -> dict[str, Passage]:
        return {p.id: p for p in self.passages}

    def judgments_by_query(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for j in self.judgments:
            out.setdefault(j.query_id, {})[j.passage_id] = j.grade
        return out


@dataclass
class TrainingInputReport:
    total_queries: int
    built_queries: int
    skipped: dict[str, str] = field(default_factory=dict)  # query_id -> reason


def _judged_queries(dataset: Dataset) -> Iterator[tuple[Query, list[str], list[str], bool]]:
    """The positives/negatives rule the pool and the training inputs share.

    For each query in id order: the query, its sorted relevant passage ids,
    its negatives and whether those were judged.  The negatives are the sorted
    judged-irrelevant ids or, when there are none, every other passage id of
    the split.
    """
    judged_by_q = dataset.judgments_by_query()
    all_pids = sorted(p.id for p in dataset.passages)
    for q in sorted(dataset.queries, key=lambda q: q.id):
        judged = judged_by_q.get(q.id, {})
        rel = sorted(pid for pid, g in judged.items() if g > 0)
        irr = sorted(pid for pid, g in judged.items() if g == 0)
        if irr:
            yield q, rel, irr, True
        else:
            rel_set = set(rel)
            yield q, rel, [pid for pid in all_pids if pid not in rel_set], False


def build_pool(dataset: Dataset, rng_seed: int) -> list[Demonstration]:
    """Turn a training split into a balanced demonstration pool.

    Per query, every relevant passage yields a Yes demonstration and an equal
    number of No demonstrations comes from judged-irrelevant passages, falling
    back to a seeded draw from unjudged corpus passages.  Queries without a
    relevant passage contribute nothing.  Whichever side is scarcer caps both.
    """
    rng = random.Random(rng_seed)
    passages = dataset.passages_by_id()
    demos: list[Demonstration] = []
    for q, rel, neg, judged in _judged_queries(dataset):
        n = min(len(rel), len(neg))
        if n == 0:
            continue
        neg_pids = neg[:n] if judged else sorted(rng.sample(neg, n))
        demos.extend(Demonstration(q, passages[pid], Label.YES) for pid in rel[:n])
        demos.extend(Demonstration(q, passages[pid], Label.NO) for pid in neg_pids)

    if not demos:
        raise EmptyPoolError("no query in the dataset has a usable relevant passage")
    demos.sort(key=lambda d: (d.query.id, d.passage.id, d.label.value))
    return demos


def build_training_inputs(
    dataset: Dataset, rng_seed: int
) -> tuple[list[TrainingInput], TrainingInputReport]:
    """Draw one relevant and one irrelevant passage per training query.

    The relevant pick becomes a Yes input and the irrelevant one a No input.
    Queries lacking either side are skipped and recorded in the report.
    """
    if dataset.split != "train":
        raise CorpusError(f"training inputs require the train split, got {dataset.split!r}")
    rng = random.Random(rng_seed)
    passages = dataset.passages_by_id()
    inputs: list[TrainingInput] = []
    report = TrainingInputReport(total_queries=len(dataset.queries), built_queries=0)
    for q, rel, neg, _ in _judged_queries(dataset):
        if not rel:
            report.skipped[q.id] = "no relevant passage"
        elif not neg:
            report.skipped[q.id] = "no irrelevant passage"
        else:
            yes, no = rng.choice(rel), rng.choice(neg)
            inputs.append(TrainingInput(q, passages[yes], Label.YES))
            inputs.append(TrainingInput(q, passages[no], Label.NO))
            report.built_queries += 1
    return inputs, report


# ---------------------------------------------------------------------------
# File IO


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One `json.dumps(record)` per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) for each line of a text file; a line that is not
    UTF-8 raises CorpusError naming the file and line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: not UTF-8: {exc}") from exc
            yield lineno, line


def read_jsonl(path: str | Path, parse: Callable[[dict], T], what: str) -> list[T]:
    """`parse(record)` for each non-blank line of a JSONL file.

    A line that is not JSON, lacks a field `parse` reads or holds a value it
    rejects (an unknown input or demo, say) raises CorpusError naming file and line.
    """
    out = []
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            out.append(parse(json.loads(line)))
        except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"{path}:{lineno}: malformed {what}: {exc}") from exc
    return out


class RefResolver:
    """Maps the ids artifact records carry back to what they name.

    Records name a training input by its `input_id` and a pool demonstration
    by its ref [query_id, passage_id, label].
    """

    def __init__(self, inputs: list[TrainingInput], pool: list[Demonstration]):
        self.inputs = {t.input_id: t for t in inputs}
        self.demos = {d.ref: d for d in pool}

    def input(self, input_id: str) -> TrainingInput:
        inp = self.inputs.get(input_id)
        if inp is None:
            raise ValueError(f"unknown input {input_id!r}")
        return inp

    def demo(self, ref: list[str]) -> Demonstration:
        demo = self.demos.get(tuple(ref))
        if demo is None:
            raise ValueError(f"unknown demo {ref}")
        return demo


def _id_and_text(obj: dict) -> tuple[str, str]:
    """A query or passage record's id, a JSON string or integer (read as its
    decimal string), and its text, a JSON string."""
    if type(obj["id"]) not in (str, int):
        raise TypeError(f"id is not a JSON string or integer: {obj['id']!r}")
    if type(obj["text"]) is not str:
        raise TypeError(f"text is not a JSON string: {obj['text']!r}")
    return str(obj["id"]), obj["text"]


def load_queries(path: str | Path) -> list[Query]:
    return read_jsonl(path, lambda obj: Query(*_id_and_text(obj)), "query")


def load_passages(path: str | Path) -> list[Passage]:
    return read_jsonl(path, lambda obj: Passage(*_id_and_text(obj)), "passage")


def load_qrels(path: str | Path) -> list[RelJudgment]:
    out = []
    for lineno, line in read_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise CorpusError(f"{path}:{lineno}: expected 4 tab-separated fields")
        qid, _, pid, grade = parts
        try:
            out.append(RelJudgment(qid, pid, int(grade)))
        except ValueError as exc:
            raise CorpusError(f"{path}:{lineno}: bad grade {grade!r}") from exc
    return out


def write_jsonl_texts(path: str | Path, items) -> None:
    write_jsonl(path, ({"id": item.id, "text": item.text} for item in items))


def write_qrels(path: str | Path, judgments: list[RelJudgment]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for j in judgments:
            fh.write(f"{j.query_id}\t0\t{j.passage_id}\t{j.grade}\n")


def load_dataset(queries_path, passages_path, qrels_path, split: str) -> Dataset:
    return Dataset(
        queries=load_queries(queries_path),
        passages=load_passages(passages_path),
        judgments=load_qrels(qrels_path),
        split=split,
    )


# Demonstrations and training inputs share one record; the label field is
# "label" for a demonstration and "gold" for a training input.


def _pair_record(pair: Demonstration | TrainingInput, key: str) -> dict:
    return {"query_id": pair.query.id, "query_text": pair.query.text,
            "passage_id": pair.passage.id, "passage_text": pair.passage.text,
            key: getattr(pair, key).value}


def _read_pairs(path: str | Path, cls: type, key: str, what: str) -> list:
    return read_jsonl(path, lambda obj: cls(Query(obj["query_id"], obj["query_text"]),
                                            Passage(obj["passage_id"], obj["passage_text"]),
                                            Label(obj[key])), what)


def write_pool(path: str | Path, pool: list[Demonstration]) -> None:
    write_jsonl(path, (_pair_record(d, "label") for d in pool))


def load_pool(path: str | Path) -> list[Demonstration]:
    return _read_pairs(path, Demonstration, "label", "pool record")


def write_training_inputs(path: str | Path, inputs: list[TrainingInput]) -> None:
    write_jsonl(path, (_pair_record(t, "gold") for t in inputs))


def load_training_inputs(path: str | Path) -> list[TrainingInput]:
    return _read_pairs(path, TrainingInput, "gold", "input record")
