"""Binary checkpoint container for trained models.

Layout: 8-byte magic "DEMORANK", little-endian u32 format version, little-endian
u64 metadata length, UTF-8 JSON metadata, then the payload: raw little-endian
float32 tensor data in manifest order.  Metadata carries the model kind, its
dimensions, the hashing scheme, the config digest, and a tensor manifest of
(name, shape, byte offset into the payload).

Model parameters are kept on the float32 grid in memory, so save followed by
load reproduces scores bit-exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .retriever import BiEncoder
from .reranker import CrossEncoder

MAGIC = b"DEMORANK"
VERSION = 1
HASH_SCHEME = "fnv1a64"


class CheckpointFormatError(ValueError):
    pass


class UnsupportedVersionError(CheckpointFormatError):
    pass


def _pack(metadata: dict, tensors: list[tuple[str, np.ndarray]]) -> bytes:
    manifest = []
    payload = bytearray()
    for name, arr in tensors:
        data = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        manifest.append({"name": name, "shape": list(arr.shape), "offset": len(payload)})
        payload += data
    meta = dict(metadata)
    meta["tensors"] = manifest
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    head = MAGIC + VERSION.to_bytes(4, "little") + len(meta_bytes).to_bytes(8, "little")
    return head + meta_bytes + bytes(payload)


def _is_int(value) -> bool:
    """A JSON integer: json loads 8.0 as a float and true as a bool (an int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _unpack(blob: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    if len(blob) < 20 or blob[:8] != MAGIC:
        raise CheckpointFormatError("not a checkpoint: bad magic")
    version = int.from_bytes(blob[8:12], "little")
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported checkpoint version {version}")
    meta_len = int.from_bytes(blob[12:20], "little")
    if len(blob) < 20 + meta_len:
        raise CheckpointFormatError("truncated metadata")
    try:
        meta = json.loads(blob[20:20 + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"bad metadata: {exc}") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("tensors", []), list):
        raise CheckpointFormatError("bad metadata: expected an object with a tensor list")
    payload = memoryview(blob)[20 + meta_len:]  # tensors are copied out, not the payload
    tensors: dict[str, np.ndarray] = {}
    for entry in meta.get("tensors", []):
        try:
            name, start, shape = entry["name"], entry["offset"], tuple(entry["shape"])
        except (KeyError, TypeError) as exc:
            raise CheckpointFormatError(f"bad tensor entry {entry!r}: {exc!r}") from exc
        if not isinstance(name, str) or not all(_is_int(n) and n >= 0 for n in (start, *shape)):
            raise CheckpointFormatError(f"bad tensor entry {entry!r}")
        end = start + 4 * math.prod(shape)
        if end > len(payload):
            raise CheckpointFormatError(
                f"tensor {name!r} overruns payload ({start}:{end} of {len(payload)})")
        arr = np.frombuffer(payload[start:end], dtype="<f4").reshape(shape)
        tensors[name] = arr.astype(np.float64)
    return meta, tensors


def save_checkpoint(path: str | Path, metadata: dict,
                    tensors: list[tuple[str, np.ndarray]]) -> None:
    Path(path).write_bytes(_pack(metadata, tensors))


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    return _unpack(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# Model adapters


def _shapes(meta: dict) -> dict[str, tuple[int, ...]]:
    """Each tensor a checkpoint of this kind holds, in payload order, with the
    shape its metadata implies; the one reader of the metadata dimensions."""
    keys = ("vocab_buckets", "dim") + (("hidden",) if meta["kind"] == "cross_encoder" else ())
    for key in keys:
        if not (_is_int(meta.get(key)) and meta[key] > 0):
            raise CheckpointFormatError(
                f"bad metadata: {key} must be a positive integer, got {meta.get(key)!r}")
    v, d = meta["vocab_buckets"], meta["dim"]
    if meta["kind"] == "bi_encoder":
        return {"embeddings": (v, d)}
    h = meta["hidden"]
    return {"embeddings": (v, d), "w1": (h, 4 * d), "b1": (h,), "w2": (h,), "b2": (1,)}


def _save_model(path, model, kind_meta: dict, config_digest: str) -> None:
    """Save `model`'s tensors under `kind_meta` (its kind and any dimension of
    its own) plus the table's dimensions, hash scheme and config digest."""
    v, d = model.embeddings.shape
    meta = {**kind_meta, "vocab_buckets": v, "dim": d,
            "hash": HASH_SCHEME, "config_digest": config_digest}
    save_checkpoint(path, meta, [(name, getattr(model, name)) for name in _shapes(meta)])


def _load_model(path, kind: str) -> tuple[list[np.ndarray], dict]:
    """The tensors in `_shapes` order, each checked, and the metadata."""
    meta, tensors = load_checkpoint(path)
    if meta.get("kind") != kind:
        raise CheckpointFormatError(f"expected a {kind} checkpoint, got {meta.get('kind')!r}")
    shapes = _shapes(meta)
    for name, shape in shapes.items():
        got = tensors[name].shape if name in tensors else "missing"
        if got != shape:
            raise CheckpointFormatError(f"{name} shape {got} does not match metadata {shape}")
    return [tensors[name] for name in shapes], meta


def save_retriever(path, model: BiEncoder, config_digest: str = "") -> None:
    _save_model(path, model, {"kind": "bi_encoder"}, config_digest)


def load_retriever(path) -> tuple[BiEncoder, dict]:
    (emb,), meta = _load_model(path, "bi_encoder")
    return BiEncoder(emb), meta


def save_reranker(path, model: CrossEncoder, config_digest: str = "") -> None:
    _save_model(path, model, {"kind": "cross_encoder", "hidden": len(model.w1)}, config_digest)


def load_reranker(path) -> tuple[CrossEncoder, dict]:
    arrays, meta = _load_model(path, "cross_encoder")
    return CrossEncoder(*arrays), meta
