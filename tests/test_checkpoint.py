"""Tests for the binary checkpoint container and the model adapters."""

import json

import numpy as np
import pytest

from demorank.checkpoint import (
    MAGIC,
    CheckpointFormatError,
    UnsupportedVersionError,
    load_checkpoint,
    load_reranker,
    load_retriever,
    save_checkpoint,
    save_reranker,
    save_retriever,
)
from demorank.data import Demonstration, Label, Passage, Query, TrainingInput
from demorank.reranker import CrossEncoder, cross_score
from demorank.retriever import BiEncoder, EncoderConfig, similarity, snap_f32

WORDS = [
    "ocean", "tide", "coral", "reef", "lava", "magma", "crater", "basalt",
    "fern", "moss", "lichen", "spore", "quartz", "slate", "flint", "ore",
]


def random_text(rng, lo=2, hi=6) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.integers(lo, hi + 1)))


class TestContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        tensors = [
            ("alpha", snap_f32(rng.normal(size=(3, 4)))),
            ("beta", snap_f32(rng.normal(size=7))),
        ]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"kind": "test", "note": "hello"}, tensors)
        meta, loaded = load_checkpoint(path)
        assert meta["kind"] == "test"
        assert meta["note"] == "hello"
        assert [t["name"] for t in meta["tensors"]] == ["alpha", "beta"]
        for name, arr in tensors:
            assert loaded[name].dtype == np.float64
            np.testing.assert_array_equal(loaded[name], arr)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"kind": "test"}, [("t", np.zeros(2))])
        blob = path.read_bytes()
        assert blob[:8] == MAGIC == b"DEMORANK"
        assert int.from_bytes(blob[8:12], "little") == 1
        meta_len = int.from_bytes(blob[12:20], "little")
        meta = json.loads(blob[20:20 + meta_len])
        assert meta["kind"] == "test"
        assert len(blob) == 20 + meta_len + 2 * 4  # two float32 payload values

    def test_scalar_shape_tensor(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, [("s", np.array(2.5))])
        _, loaded = load_checkpoint(path)
        assert loaded["s"].shape == ()
        assert loaded["s"] == 2.5

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(CheckpointFormatError, match="bad magic"):
            load_checkpoint(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(CheckpointFormatError, match="bad magic"):
            load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        meta = json.dumps({"tensors": []}).encode()
        path.write_bytes(MAGIC + (2).to_bytes(4, "little")
                         + len(meta).to_bytes(8, "little") + meta)
        with pytest.raises(UnsupportedVersionError, match="version 2"):
            load_checkpoint(path)
        assert issubclass(UnsupportedVersionError, CheckpointFormatError)

    def test_truncated_metadata_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(MAGIC + (1).to_bytes(4, "little")
                         + (1000).to_bytes(8, "little") + b"{}")
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_checkpoint(path)

    def test_malformed_json_metadata_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        meta = b"{not json"
        path.write_bytes(MAGIC + (1).to_bytes(4, "little")
                         + len(meta).to_bytes(8, "little") + meta)
        with pytest.raises(CheckpointFormatError, match="bad metadata"):
            load_checkpoint(path)

    def test_tensor_overrun_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        meta = json.dumps(
            {"tensors": [{"name": "t", "shape": [4], "offset": 0}]}).encode()
        payload = b"\x00" * 8  # room for two float32 values, manifest claims four
        path.write_bytes(MAGIC + (1).to_bytes(4, "little")
                         + len(meta).to_bytes(8, "little") + meta + payload)
        with pytest.raises(CheckpointFormatError, match="overruns"):
            load_checkpoint(path)


    @pytest.mark.parametrize("meta", [
        {"tensors": [{"name": "t", "shape": [-1, 2], "offset": 0}]},
        [],
        {"tensors": [{"name": "t", "offset": 0}]},
        {"tensors": [{"name": "t", "shape": [2], "offset": "a"}]},
        {"tensors": 5},
        {"tensors": [{"name": ["t"], "shape": [2], "offset": 0}]},
        {"tensors": [{"name": "t", "shape": [1.7], "offset": 0.9}]},
        {"tensors": [{"name": "t", "shape": [1.7], "offset": 0}]},
        {"tensors": [{"name": "t", "shape": [1], "offset": 0.9}]},
        {"tensors": [{"name": "t", "shape": ["2"], "offset": 0}]},
        {"tensors": [{"name": "t", "shape": [2], "offset": True}]},
        {"tensors": [{"name": "t", "shape": [True], "offset": 0}]},
    ], ids=["negative-dim", "list-metadata", "missing-shape", "non-int-offset",
            "non-list-tensors", "non-string-name", "float-shape-and-offset", "float-dim",
            "float-offset", "string-dim", "bool-offset", "bool-dim"])
    def test_bad_tensor_metadata_rejected(self, tmp_path, meta):
        path = tmp_path / "bad.ckpt"
        meta_bytes = json.dumps(meta).encode()
        path.write_bytes(MAGIC + (1).to_bytes(4, "little")
                         + len(meta_bytes).to_bytes(8, "little") + meta_bytes + b"\x00" * 8)
        with pytest.raises(CheckpointFormatError, match="bad (metadata|tensor entry)"):
            load_checkpoint(path)

class TestRetrieverCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        model = BiEncoder.init(EncoderConfig(vocab_buckets=64, dim=8), 42)
        path = tmp_path / "retriever.ckpt"
        save_retriever(path, model, config_digest="abc123")
        loaded, meta = load_retriever(path)
        np.testing.assert_array_equal(loaded.embeddings, model.embeddings)
        assert meta["kind"] == "bi_encoder"
        assert meta["hash"] == "fnv1a64"
        assert meta["config_digest"] == "abc123"
        for _ in range(10):
            inp = TrainingInput(Query("q", random_text(rng)),
                                Passage("p", random_text(rng)), Label.YES)
            demo = Demonstration(Query("dq", random_text(rng)),
                                 Passage("dp", random_text(rng)), Label.NO)
            assert similarity(loaded, inp, demo) == similarity(model, inp, demo)

    def test_wrong_kind_rejected(self, tmp_path):
        reranker = CrossEncoder.init(EncoderConfig(vocab_buckets=32, dim=4), 2, 42)
        path = tmp_path / "model.ckpt"
        save_reranker(path, reranker)
        with pytest.raises(CheckpointFormatError, match="expected a bi_encoder"):
            load_retriever(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {
            "kind": "bi_encoder", "vocab_buckets": 64, "dim": 8,
            "hash": "fnv1a64", "config_digest": "",
        }, [("embeddings", np.zeros((4, 4)))])
        with pytest.raises(CheckpointFormatError, match="does not match"):
            load_retriever(path)


class TestRerankerCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        model = CrossEncoder.init(EncoderConfig(vocab_buckets=64, dim=8), 4, 42)
        path = tmp_path / "reranker.ckpt"
        save_reranker(path, model, config_digest="def456")
        loaded, meta = load_reranker(path)
        for name in ("embeddings", "w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name))
        assert meta["kind"] == "cross_encoder"
        assert meta["hidden"] == 4
        assert meta["config_digest"] == "def456"
        for _ in range(10):
            inp = TrainingInput(Query("q", random_text(rng)),
                                Passage("p", random_text(rng)), Label.YES)
            demos = [Demonstration(Query(f"dq{i}", random_text(rng)),
                                   Passage(f"dp{i}", random_text(rng)), Label.YES)
                     for i in range(int(rng.integers(1, 4)))]
            assert cross_score(loaded, inp, demos) == cross_score(model, inp, demos)

    def test_wrong_kind_rejected(self, tmp_path):
        retriever = BiEncoder.init(EncoderConfig(vocab_buckets=32, dim=4), 42)
        path = tmp_path / "model.ckpt"
        save_retriever(path, retriever)
        with pytest.raises(CheckpointFormatError, match="expected a cross_encoder"):
            load_reranker(path)

    @pytest.mark.parametrize("name", ["embeddings", "w1", "b1", "w2", "b2"])
    def test_shape_mismatch_rejected(self, tmp_path, name):
        """Each tensor must have the shape its metadata implies, so a wrong one
        fails at load, not as a broadcast error in the first `cross_score`."""
        shapes = {"embeddings": (32, 4), "w1": (2, 16), "b1": (2,), "w2": (2,), "b2": (1,)}
        shapes[name] += (1,)  # one axis too many
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {
            "kind": "cross_encoder", "vocab_buckets": 32, "dim": 4,
            "hidden": 2, "hash": "fnv1a64", "config_digest": "",
        }, [(n, np.zeros(shape)) for n, shape in shapes.items()])
        with pytest.raises(CheckpointFormatError, match=f"{name} shape .* does not match"):
            load_reranker(path)

    def test_missing_tensor_rejected(self, tmp_path):
        model = CrossEncoder.init(EncoderConfig(vocab_buckets=32, dim=4), 2, 42)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {
            "kind": "cross_encoder", "vocab_buckets": 32, "dim": 4,
            "hidden": 2, "hash": "fnv1a64", "config_digest": "",
        }, [(n, getattr(model, n)) for n in ("embeddings", "w1", "b1", "w2")])
        with pytest.raises(CheckpointFormatError, match="b2 shape missing"):
            load_reranker(path)


class TestModelMetadata:
    """The metadata dimensions must be positive JSON integers: a checkpoint
    whose tensors match a loosely read value must not load."""

    TENSORS = {"embeddings": (8, 4), "w1": (2, 16), "b1": (2,), "w2": (2,), "b2": (1,)}

    @pytest.mark.parametrize("kind,key,value", [
        ("bi_encoder", "vocab_buckets", None),
        ("bi_encoder", "vocab_buckets", "x"),
        ("bi_encoder", "vocab_buckets", "8"),
        ("bi_encoder", "vocab_buckets", 8.0),
        ("bi_encoder", "vocab_buckets", True),
        ("bi_encoder", "vocab_buckets", 0),
        ("bi_encoder", "vocab_buckets", -8),
        ("bi_encoder", "dim", None),
        ("bi_encoder", "dim", 4.0),
        ("cross_encoder", "dim", "4"),
        ("cross_encoder", "hidden", None),
        ("cross_encoder", "hidden", "2"),
        ("cross_encoder", "hidden", 2.5),
        ("cross_encoder", "hidden", True),
        ("cross_encoder", "hidden", -2),
    ], ids=["missing-buckets", "word-buckets", "string-buckets", "float-buckets",
            "bool-buckets", "zero-buckets", "negative-buckets", "missing-dim", "float-dim",
            "string-dim", "missing-hidden", "string-hidden", "float-hidden", "bool-hidden",
            "negative-hidden"])
    def test_dimension_that_is_not_a_positive_integer_rejected(self, tmp_path, kind, key,
                                                               value):
        meta = {"kind": kind, "vocab_buckets": 8, "dim": 4, "hidden": 2,
                "hash": "fnv1a64", "config_digest": ""}
        if kind == "bi_encoder":
            del meta["hidden"]
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        # tensors of the shapes an int() reader derives, so that only the
        # type check can reject the file
        lenient = None if value in (None, "x") else max(int(float(value)), 0)
        shapes = dict(self.TENSORS)
        if lenient is not None and key == "hidden":
            shapes.update(w1=(lenient, 16), b1=(lenient,), w2=(lenient,))
        elif lenient is not None and key == "vocab_buckets":
            shapes["embeddings"] = (lenient, 4)
        names = ["embeddings"] if kind == "bi_encoder" else list(shapes)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, meta, [(n, np.zeros(shapes[n])) for n in names])
        load = load_retriever if kind == "bi_encoder" else load_reranker
        with pytest.raises(CheckpointFormatError, match=f"{key} must be a positive integer"):
            load(path)
