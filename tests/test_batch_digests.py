"""Digests of the 10^5- and 10^6-row batch path, recorded before its column kernels.

The values were taken from the samplers that drew ``uniform`` proposals and
indexed them with a boolean mask, and from the product answers that reduced
(rows, N) arrays with ``np.prod``.  A change to any draw, its order, the
generator state a sampler leaves, or the rounding of a fidelity shows here.
"""

import hashlib
import json

import numpy as np
import pytest

from qccp import (
    CommTree,
    ProductStrategyA,
    ProductStrategyB,
    Task,
    fidelity_mc,
    half_split_strategy_b,
    sample_a,
    sample_b,
)
from qccp.cli import main

SAMPLER_SEED = 20261018
SAMPLER_SHA256 = {  # (rows.tobytes(), json of the generator state after the draw)
    "B": (
        "e476fbe49ba9fc1e61b51398fff557e40843399f54e1a41ee6cf40ee4fe8250c",
        "e8963e73b000a06900a0996d797503f340a5c3c57325957351d94863811c04dd",
    ),
    "A": (
        "7fc3f938d25817b4e42ac31c023708bcf8a40c24e0248ae3adbd4a98f61594a7",
        "6853950ebe058392c466d6a2e0a02a181d1da75e6d423b2df52a1782c909a44c",
    ),
}

STRATEGY_A = ProductStrategyA([[1, -1], [-1, 1], [1, 1], [1, -1], [-1, -1]])
STRATEGY_B7 = ProductStrategyB(np.random.default_rng(5).choice([-1, 1], size=(5, 7)))
FIDELITY_MC = [  # (strategy, task, float.hex of fidelity, float.hex of stderr)
    (STRATEGY_A, Task.A, "0x1.028cbd1244a62p-2", "0x1.1b96fb62531c6p-9"),
    (half_split_strategy_b(5, 64), Task.B, "0x1.56b11c6d1e109p-3", "0x1.20f4238b4e290p-9"),
    (STRATEGY_B7, Task.B, "0x1.10a137f38c543p-13", "0x1.2515fd81f794ep-9"),
]

REPRODUCE_SEED7_SHA256 = "4ee22e4f0c578932ecc46e5fd9349a4b2852f7db98091ac9af5004ead925198f"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("task", ["B", "A"])
def test_sampler_rows_and_final_state(task):
    sampler = sample_b if task == "B" else sample_a
    rng = np.random.default_rng(SAMPLER_SEED)
    rows = sampler(5, rng, 10**5)
    state = json.dumps(rng.bit_generator.state, sort_keys=True).encode()
    assert (sha256(rows.tobytes()), sha256(state)) == SAMPLER_SHA256[task]


@pytest.mark.parametrize("strategy, task, fidelity, stderr", FIDELITY_MC)
def test_product_fidelity_mc(strategy, task, fidelity, stderr):
    got = fidelity_mc(strategy, CommTree.chain(5), task, 200_000, np.random.default_rng(99))
    assert (got[0].hex(), got[1].hex()) == (fidelity, stderr)


def test_reproduce_report(capsys, tmp_path):
    # holds the 10^6-row quantum-mc-B-N5 estimate and both experiments
    out = tmp_path / "reproduce.json"
    assert main(["reproduce", "--seed", "7", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS total: 23/23 checks"
    assert sha256(out.read_bytes()) == REPRODUCE_SEED7_SHA256
