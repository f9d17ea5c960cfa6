"""Bit-identity pins on trained parameters.

Each digest is the SHA-256 of a trained parameter array (shape, then its
float64 values little-endian).  Speedups to featurization, encoding and the
gradient kernels must leave every bit of these arrays unchanged, so a failure
here means training changed numerically, not just got faster or slower.  The
digests were recorded on the code before encoding reuse, ordered scatters and
row-sparse table updates replaced per-step re-encoding, np.add.at and full
table rewrites.

The bits also depend on the platform: numpy's SIMD loops and the BLAS kernel.
So a mismatch names the platform the pins were recorded on and this host's.
"""

from hashlib import sha256

import numpy as np
import pytest

from demorank.reranker import CrossEncoder, RerankerTrainConfig, train_reranker
from demorank.retriever import (
    BiEncoder,
    RetrieverTrainConfig,
    ScoredCandidate,
    ScoredCandidateSet,
    train_retriever,
)
from demorank.scoring import score_list

RERANKER_ARRAYS = ("embeddings", "w1", "b1", "w2", "b2")

PIN_PLATFORM = {
    "numpy": "2.4.6",
    "dispatch": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
    "blas": "scipy-openblas 0.3.31.188.0",
}

PINS = {
    "toy.retriever": {
        "embeddings": "7140b531b9488d0ed4cd553f70e1da8b6e31992d8f81183876560b118ec88999",
    },
    "toy.reranker": {
        "embeddings": "5fbc4ba3e47aea1b17c82b79b2b36decafd07a0a29597c843172723d8dffeb4d",
        "w1": "5faadee1c2071ce4ec6fc602479bc876052bdeed91683dc9b2a5e5c398be34a2",
        "b1": "671c36e73a4845dd8395b9a6b4db89380cace27fb752af60af89072bed4db726",
        "w2": "dc04b5bfb923fdd00f48329a25da9a64d4d7fd95c4314e24888ac06b9c043f5f",
        "b2": "5d6bc5048c7a2b5e5096940dd384a01a5c2e8c2d710ce4658218d1d35be59c94",
    },
    "toy.reranker_capped_pairs": {
        "embeddings": "164c1c23b2673bbe821aa0881995877a55747e4bd916e6876efdb7de2dc65427",
        "w1": "f2ca1e514a865335a9490a3197b9ca58516c0cec2fbd54dc4cc2ea767e2294c4",
        "b1": "d8e3a69d4b16f2c160a512410922cae38e9ecf0c36addfce47cb50ad75af90ae",
        "w2": "f50e7dbebe15bdf73e52f6a7c6a88d8a0b5b8e472077fbe5e479539482572f3e",
        "b2": "42676b2fd51d5a74dbdb8707da7ce8c5ee56cb6c7b86441adb3866a291608339",
    },
    "desk.retriever_split": {
        "embeddings": "e43918e685a8c1c70d6f75610a2893b9120a750014cb7b7b916846302bd64f24",
    },
    "desk.retriever_all": {
        "embeddings": "7d6dabc6a36fc10c25b5acac82531c7708d3e92be62ddca45fd01f47c5c4d42b",
    },
    "desk.reranker": {
        "embeddings": "f2a105ce05a25f5d57f7b2b9410ca9d85f3c9b462c4ef7cc7008ea68bc09a9e5",
        "w1": "dbda408e3835e98e865ab2be17f1c2e09668b91ea8325d9895196657e02aff82",
        "b1": "1490d5d5a6b16e9c906f54fb0d2a076a54c04c0e467024538a99ace4832ac377",
        "w2": "14abba2fea31dcf1ddde9d593ed48ecd76a44b29f670e18130ed2c3f9c01c317",
        "b2": "604c28f1e6cdd0b40da337d6732c564e341f1d3075c363664ebc462c04efd236",
    },
}


def digest(arr: np.ndarray) -> str:
    h = sha256(repr(arr.shape).encode("ascii"))
    h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def platform() -> dict:
    """The numpy version, numpy's SIMD dispatch targets enabled at runtime, and
    the BLAS numpy was built against, in `PIN_PLATFORM`'s form."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
        "blas": f"{blas['name']} {blas['version']}",
    }


def check_pins(got: dict[str, dict[str, str]]) -> None:
    for key, value in got.items():
        assert value == PINS[key], (
            f"{key}: pinned on {PIN_PLATFORM}, this host is {platform()}")


def reranker_digests(model: CrossEncoder) -> dict[str, str]:
    return {name: digest(getattr(model, name)) for name in RERANKER_ARRAYS}


@pytest.fixture(scope="module")
def toy_trained(toy_chain):
    """Both encoders trained on the toy chain; the reranker once with every
    continuation pair and once with a seeded pair subsample."""
    sets = [
        ScoredCandidateSet(inp, [
            ScoredCandidate(d, score_list(toy_chain["backend"], toy_chain["template"],
                                          [d], inp))
            for d in retrieved
        ])
        for inp, retrieved in zip(toy_chain["inputs"], toy_chain["retrieved"])
    ]
    retriever = train_retriever(BiEncoder.init(toy_chain["config"], 23), sets,
                                RetrieverTrainConfig(), 29)
    rr0 = CrossEncoder.init(toy_chain["config"], 8, 37)
    full = train_reranker(rr0, toy_chain["samples"],
                          RerankerTrainConfig(), 41)
    capped = train_reranker(rr0, toy_chain["samples"],
                            RerankerTrainConfig(max_pairs_per_sample=5), 41)
    return {
        "toy.retriever": {"embeddings": digest(retriever.embeddings)},
        "toy.reranker": reranker_digests(full),
        "toy.reranker_capped_pairs": reranker_digests(capped),
    }


class TestTrainedParameterPins:
    def test_toy_chain(self, toy_trained):
        check_pins(toy_trained)

    def test_desk_state(self, desk_state):
        got = {
            "desk.retriever_split": {"embeddings": digest(desk_state.retriever_split.embeddings)},
            "desk.retriever_all": {"embeddings": digest(desk_state.retriever_all.embeddings)},
            "desk.reranker": reranker_digests(desk_state.reranker),
        }
        check_pins(got)

    def test_digest_sees_the_last_bit(self):
        arr = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        bumped = arr.copy()
        bumped[1, 2] = np.nextafter(bumped[1, 2], 2.0)
        assert digest(arr) != digest(bumped)
        assert digest(arr) != digest(arr.reshape(4, 3))

    def test_mismatch_names_both_platforms(self):
        with pytest.raises(AssertionError) as exc:
            check_pins({"toy.retriever": {"embeddings": "0" * 64}})
        message = str(exc.value)
        assert f"toy.retriever: pinned on {PIN_PLATFORM}, this host is {platform()}" in message
