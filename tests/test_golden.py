"""Behaviour pin: SHA-256 of the batch report for fixed (synth seed,
engine config) pairs. A change to these digests is a change to the
engine's alarms or report records; update them only on purpose and
record why in CHANGES.md."""

import hashlib

import pytest

from ethsentinel import cli, ensemble
from ethsentinel.config import EngineConfig
from ethsentinel.synth import SynthConfig, synth_generate

GOLDEN = {
    # one-day synthetic stream, default SynthConfig apart from the rate
    "dense": (6.0, 3, "99e957ca00c6ca5d67253b366b342e4021f758817b038a2cf080e105746953db"),
    "sparse": (0.02, 3, "81c8428cd677938f3a27f158bafa39527e2bdc16915bf2e93e4be228dcc9bf87"),
}


def report_digest(base_rate: float, seed: int) -> str:
    transactions, _ = synth_generate(SynthConfig(base_rate=base_rate, seed=seed))
    config = EngineConfig()
    report = ensemble.run_batch(transactions, config)
    grids = ensemble.build_grids(transactions, config)
    text = "".join(line + "\n" for line in cli._report_lines(report, grids, ""))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_batch_report_digest(name):
    base_rate, seed, digest = GOLDEN[name]
    assert report_digest(base_rate, seed) == digest
