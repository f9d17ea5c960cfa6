"""Tests for corpus types, demonstration pools, training inputs, and file IO."""

import json
import random
import re

import pytest

from demorank.data import (
    CorpusError,
    Dataset,
    Demonstration,
    EmptyPoolError,
    Label,
    Passage,
    Query,
    RelJudgment,
    TrainingInput,
    build_pool,
    build_training_inputs,
    load_passages,
    load_pool,
    load_qrels,
    load_queries,
    load_training_inputs,
    write_jsonl_texts,
    write_pool,
    write_qrels,
    write_training_inputs,
)
from demorank.pipeline import load_run


def make_dataset(n_queries=3, n_passages=None, rel_per_query=2, irr_per_query=3,
                 split="train"):
    """Small dataset where query i is judged against a disjoint passage block."""
    if n_passages is None:
        n_passages = n_queries * (rel_per_query + irr_per_query)
    queries = [Query(f"q{i}", f"query text {i}") for i in range(n_queries)]
    passages = [Passage(f"p{i}", f"passage text {i}") for i in range(n_passages)]
    judgments = []
    per_query = rel_per_query + irr_per_query
    for i in range(n_queries):
        block = [f"p{j}" for j in range(i * per_query, (i + 1) * per_query)]
        for pid in block[:rel_per_query]:
            judgments.append(RelJudgment(f"q{i}", pid, 1))
        for pid in block[rel_per_query:]:
            judgments.append(RelJudgment(f"q{i}", pid, 0))
    return Dataset(queries, passages, judgments, split=split)


def yes_no_by_query(pool) -> dict[str, tuple[int, int]]:
    """(Yes count, No count) per query of the pool's demonstrations."""
    labels: dict[str, list[Label]] = {}
    for d in pool:
        labels.setdefault(d.query.id, []).append(d.label)
    return {q: (ls.count(Label.YES), ls.count(Label.NO)) for q, ls in labels.items()}


class TestDatasetValidation:
    def test_duplicate_query_ids_rejected(self):
        qs = [Query("q0", "a"), Query("q0", "b")]
        with pytest.raises(CorpusError):
            Dataset(qs, [Passage("p0", "x")], [], split="train")

    def test_duplicate_passage_ids_rejected(self):
        ps = [Passage("p0", "a"), Passage("p0", "b")]
        with pytest.raises(CorpusError):
            Dataset([Query("q0", "x")], ps, [], split="train")

    def test_judgment_unknown_query_rejected(self):
        with pytest.raises(CorpusError):
            Dataset([Query("q0", "x")], [Passage("p0", "y")],
                    [RelJudgment("q9", "p0", 1)], split="train")

    def test_judgment_unknown_passage_rejected(self):
        with pytest.raises(CorpusError):
            Dataset([Query("q0", "x")], [Passage("p0", "y")],
                    [RelJudgment("q0", "p9", 1)], split="train")

    def test_negative_grade_rejected(self):
        with pytest.raises(CorpusError):
            Dataset([Query("q0", "x")], [Passage("p0", "y")],
                    [RelJudgment("q0", "p0", -1)], split="train")

    def test_judgments_by_query_groups_grades(self):
        ds = make_dataset(n_queries=2, n_passages=10, rel_per_query=1,
                          irr_per_query=4)
        grouped = ds.judgments_by_query()
        assert set(grouped) == {"q0", "q1"}
        assert grouped["q0"]["p0"] == 1
        assert grouped["q0"]["p1"] == 0


class TestBuildPool:
    def test_balanced_per_query(self):
        ds = make_dataset(rel_per_query=2, irr_per_query=5, n_passages=21)
        pool = build_pool(ds, rng_seed=42)
        assert set(yes_no_by_query(pool).values()) == {(2, 2)}

    def test_scarcer_side_caps_both(self):
        # 5 relevant but only 1 judged-irrelevant: one Yes and one No survive.
        qs = [Query("q0", "alpha")]
        ps = [Passage(f"p{i}", f"t{i}") for i in range(6)]
        js = [RelJudgment("q0", f"p{i}", 1) for i in range(5)]
        js.append(RelJudgment("q0", "p5", 0))
        pool = build_pool(Dataset(qs, ps, js, split="train"), rng_seed=0)
        labels = [d.label for d in pool]
        assert labels.count(Label.YES) == 1
        assert labels.count(Label.NO) == 1

    def test_query_without_relevant_contributes_nothing(self):
        qs = [Query("q0", "alpha"), Query("q1", "beta")]
        ps = [Passage(f"p{i}", f"t{i}") for i in range(4)]
        js = [RelJudgment("q0", "p0", 1), RelJudgment("q0", "p1", 0),
              RelJudgment("q1", "p2", 0), RelJudgment("q1", "p3", 0)]
        pool = build_pool(Dataset(qs, ps, js, split="train"), rng_seed=0)
        assert all(d.query.id == "q0" for d in pool)
        assert "q1" not in yes_no_by_query(pool)

    def test_unjudged_fallback_for_negatives(self):
        # No judged-irrelevant passages at all: negatives come from the rest
        # of the corpus, never colliding with the relevant set.
        qs = [Query("q0", "alpha")]
        ps = [Passage(f"p{i}", f"t{i}") for i in range(10)]
        js = [RelJudgment("q0", "p0", 1), RelJudgment("q0", "p1", 2)]
        pool = build_pool(Dataset(qs, ps, js, split="train"), rng_seed=5)
        yes = {d.passage.id for d in pool if d.label is Label.YES}
        no = {d.passage.id for d in pool if d.label is Label.NO}
        assert yes == {"p0", "p1"}
        assert len(no) == 2
        assert not (no & yes)

    def test_deterministic_for_seed(self):
        ds = make_dataset()
        a = build_pool(ds, rng_seed=42)
        b = build_pool(ds, rng_seed=42)
        assert [d.ref for d in a] == [d.ref for d in b]

    def test_empty_pool_raises(self):
        qs = [Query("q0", "alpha")]
        ps = [Passage("p0", "t0")]
        js = [RelJudgment("q0", "p0", 0)]
        with pytest.raises(EmptyPoolError):
            build_pool(Dataset(qs, ps, js, split="train"), rng_seed=0)

    def test_pool_sorted_and_indexable(self):
        ds = make_dataset()
        pool = build_pool(ds, rng_seed=42)
        refs = [d.ref for d in pool]
        assert refs == sorted(refs)
        assert type(pool) is list


class TestBuildTrainingInputs:
    def test_two_inputs_per_eligible_query(self):
        ds = make_dataset(n_queries=4, n_passages=20, rel_per_query=2,
                          irr_per_query=3)
        inputs, report = build_training_inputs(ds, rng_seed=42)
        assert len(inputs) == 2 * report.built_queries
        assert report.built_queries == 4
        assert report.total_queries == 4
        assert report.skipped == {}
        golds = [i.gold for i in inputs]
        assert golds.count(Label.YES) == golds.count(Label.NO) == 4

    def test_yes_input_uses_relevant_passage(self):
        ds = make_dataset()
        judged = ds.judgments_by_query()
        inputs, _ = build_training_inputs(ds, rng_seed=7)
        for inp in inputs:
            grade = judged[inp.query.id].get(inp.passage.id, 0)
            if inp.gold is Label.YES:
                assert grade > 0
            else:
                assert grade == 0

    def test_query_without_relevant_is_skipped_with_reason(self):
        qs = [Query("q0", "alpha"), Query("q1", "beta")]
        ps = [Passage(f"p{i}", f"t{i}") for i in range(4)]
        js = [RelJudgment("q0", "p0", 1), RelJudgment("q0", "p1", 0),
              RelJudgment("q1", "p2", 0)]
        inputs, report = build_training_inputs(
            Dataset(qs, ps, js, split="train"), rng_seed=0)
        assert report.skipped == {"q1": "no relevant passage"}
        assert report.built_queries == 1
        assert {i.query.id for i in inputs} == {"q0"}

    def test_rejects_non_train_split(self):
        ds = make_dataset(split="test")
        with pytest.raises(CorpusError):
            build_training_inputs(ds, rng_seed=0)

    def test_deterministic_for_seed(self):
        ds = make_dataset(n_queries=5, n_passages=40, rel_per_query=3,
                          irr_per_query=5)
        a, _ = build_training_inputs(ds, rng_seed=3)
        b, _ = build_training_inputs(ds, rng_seed=3)
        assert [i.input_id for i in a] == [i.input_id for i in b]

    def test_input_id_format(self):
        inp = TrainingInput(Query("q7", "x"), Passage("p9", "y"), Label.NO)
        assert inp.input_id == "q7::p9::No"


class TestBuilderPins:
    """Both builders on one query of each kind, pinned to recorded outputs.

    qa has judged negatives, qb and qe fall back to unjudged passages, qc has
    no relevant passage and qd is relevant to every passage, so it has no
    possible negative.  The pins hold the seeded draw order of both builders.
    """

    @staticmethod
    def dataset():
        qs = [Query(q, f"text {q}") for q in ("qa", "qb", "qc", "qd", "qe")]
        ps = [Passage(f"p{i}", f"body {i}") for i in range(8)]
        js = ([RelJudgment("qa", "p0", 1), RelJudgment("qa", "p1", 1)]
              + [RelJudgment("qa", p, 0) for p in ("p2", "p3", "p4")]
              + [RelJudgment("qb", "p5", 2), RelJudgment("qb", "p6", 1)]
              + [RelJudgment("qc", "p1", 0)]
              + [RelJudgment("qd", f"p{i}", 1) for i in range(8)]
              + [RelJudgment("qe", "p3", 1)])
        return Dataset(qs, ps, js, split="train")

    def test_pool(self):
        pool = build_pool(self.dataset(), rng_seed=7)
        assert [d.ref for d in pool] == [
            ("qa", "p0", "Yes"), ("qa", "p1", "Yes"), ("qa", "p2", "No"), ("qa", "p3", "No"),
            ("qb", "p1", "No"), ("qb", "p2", "No"), ("qb", "p5", "Yes"), ("qb", "p6", "Yes"),
            ("qe", "p3", "Yes"), ("qe", "p4", "No")]

    def test_training_inputs(self):
        inputs, report = build_training_inputs(self.dataset(), rng_seed=7)
        assert [i.input_id for i in inputs] == [
            "qa::p1::Yes", "qa::p2::No", "qb::p6::Yes", "qb::p7::No",
            "qe::p3::Yes", "qe::p0::No"]
        assert (report.total_queries, report.built_queries) == (5, 3)
        assert report.skipped == {"qc": "no relevant passage",
                                  "qd": "no irrelevant passage"}


class TestFileRoundTrips:
    def test_queries_and_passages_jsonl(self, tmp_path):
        qs = [Query(f"q{i}", f"text {i}") for i in range(5)]
        write_jsonl_texts(tmp_path / "queries.jsonl", qs)
        assert load_queries(tmp_path / "queries.jsonl") == qs
        ps = [Passage(f"p{i}", f"body {i}") for i in range(5)]
        write_jsonl_texts(tmp_path / "passages.jsonl", ps)
        assert load_passages(tmp_path / "passages.jsonl") == ps

    def test_integer_ids_read_as_decimal_strings(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text('{"id": 7, "text": "reef"}\n{"id": -3, "text": ""}\n')
        assert load_queries(path) == [Query("7", "reef"), Query("-3", "")]

    def test_qrels_round_trip(self, tmp_path):
        js = [RelJudgment("q0", "p0", 1), RelJudgment("q0", "p1", 0),
              RelJudgment("q1", "p2", 2)]
        write_qrels(tmp_path / "qrels.tsv", js)
        assert load_qrels(tmp_path / "qrels.tsv") == js

    def test_qrels_format_is_tab_separated_with_zero_column(self, tmp_path):
        write_qrels(tmp_path / "qrels.tsv", [RelJudgment("q0", "p0", 1)])
        line = (tmp_path / "qrels.tsv").read_text().splitlines()[0]
        assert line.split("\t") == ["q0", "0", "p0", "1"]

    def test_qrels_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "qrels.tsv"
        path.write_text("q0\t0\tp0\t1\n\n  \nq1\t0\tp1\t0\n")
        assert load_qrels(path) == [RelJudgment("q0", "p0", 1), RelJudgment("q1", "p1", 0)]

    @pytest.mark.parametrize("line, error", [
        ("q0\t0\tp0", "expected 4 tab-separated fields"),
        ("q0\t0\tp0\t1\t1", "expected 4 tab-separated fields"),
        ("q0 0 p0 1", "expected 4 tab-separated fields"),
        ("q0\t0\tp0\thigh", "bad grade 'high'"),
        ("q0\t0\tp0\t1.5", "bad grade '1.5'"),
    ])
    def test_malformed_qrels_line_is_a_corpus_error_naming_it(self, tmp_path, line, error):
        path = tmp_path / "qrels.tsv"
        path.write_text(f"q0\t0\tp0\t1\n{line}\n")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:2: {error}"):
            load_qrels(path)

    def test_pool_round_trip(self, tmp_path):
        ds = make_dataset()
        pool = build_pool(ds, rng_seed=42)
        write_pool(tmp_path / "pool.jsonl", pool)
        loaded = load_pool(tmp_path / "pool.jsonl")
        assert [d.ref for d in loaded] == [d.ref for d in pool]
        assert all(isinstance(d.label, Label) for d in loaded)

    def test_training_inputs_round_trip(self, tmp_path):
        ds = make_dataset()
        inputs, _ = build_training_inputs(ds, rng_seed=42)
        write_training_inputs(tmp_path / "inputs.jsonl", inputs)
        loaded = load_training_inputs(tmp_path / "inputs.jsonl")
        assert loaded == inputs

    @pytest.mark.parametrize("load, key", [(load_pool, "label"), (load_training_inputs, "gold")])
    @pytest.mark.parametrize("field, value", [
        ("query_text", None), ("passage_text", ["a", "b"]), ("query_id", 1.5),
        ("passage_id", None)])
    def test_pair_record_fields_follow_the_query_and_passage_rule(self, tmp_path, load, key,
                                                                  field, value):
        record = {"query_id": "q0", "query_text": "reef", "passage_id": "p0",
                  "passage_text": "coral reef", key: "Yes"}
        path = tmp_path / "pool.jsonl"
        path.write_text(json.dumps({**record, field: value}) + "\n")
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:1: malformed .*"
                                              f"{field} is not a JSON string"):
            load(path)

    def test_unicode_text_survives_round_trip(self, tmp_path):
        qs = [Query("q0", "café über 中文")]
        write_jsonl_texts(tmp_path / "queries.jsonl", qs)
        assert load_queries(tmp_path / "queries.jsonl") == qs


@pytest.mark.parametrize("reader, good", [
    (load_queries, b'{"id": "q0", "text": "reef"}\n'),
    (load_qrels, b"q0\t0\tp0\t1\n"),
    (load_run, b"q0 Q0 p0 1 0.5 tag\n"),
])
def test_non_utf8_line_is_a_corpus_error_naming_it(tmp_path, reader, good):
    path = tmp_path / "file"
    path.write_bytes(good + good.replace(b"0", b"\xe9", 1))
    with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:2: not UTF-8"):
        reader(path)


class TestPoolProperties:
    """Seeded random datasets always produce balanced, well-formed pools."""

    def test_random_datasets_balanced(self):
        rng = random.Random(42)
        for trial in range(25):
            n_q = rng.randint(1, 6)
            n_p = rng.randint(8, 30)
            queries = [Query(f"q{i}", f"text {i}") for i in range(n_q)]
            passages = [Passage(f"p{i}", f"body {i}") for i in range(n_p)]
            judgments = []
            for i in range(n_q):
                judged = rng.sample(range(n_p), rng.randint(1, min(8, n_p)))
                for pid in judged:
                    judgments.append(
                        RelJudgment(f"q{i}", f"p{pid}", rng.randint(0, 2)))
            ds = Dataset(queries, passages, judgments, split="train")
            try:
                pool = build_pool(ds, rng_seed=trial)
            except EmptyPoolError:
                continue
            assert all(yes == no for yes, no in yes_no_by_query(pool).values())
            labels = [d.label for d in pool]
            assert labels.count(Label.YES) == labels.count(Label.NO)
            # No duplicated (query, passage, label) triples.
            refs = [d.ref for d in pool]
            assert len(refs) == len(set(refs))
