"""Behaviour pin: SHA-256 of the batch report and of a stream replay's
alarms for fixed (synth seed, engine config) pairs. A change to these digests is a change to the
engine's alarms or report records; update them only on purpose and
record why in CHANGES.md. The replay also checks that the traced
benchmark's hooks still see every detector kind."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from ethsentinel import cli, ensemble
from ethsentinel.config import CLUSTERING_KINDS, PREDICTIVE_KINDS, REDUCTION_KINDS, EngineConfig
from ethsentinel.series import TimeSeries
from ethsentinel.synth import SPIKE, Injection, SynthConfig, synth_generate

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


# two hours of database, 41 one-cell advances, one retrain (at advance
# 25) and a spike at advance 15
STREAM_DATABASE = 2 * 3600
STREAM_GOLDEN = "7f6eb983f0dc3fb12e652052308a7a87eb9ba620f302cd61391f2efd085df763"


def stream_replay():
    """The replay's engine, fitted on its database, and its one-cell
    advances, as ``detect stream`` feeds them."""
    transactions, _ = synth_generate(
        SynthConfig(
            duration=STREAM_DATABASE + 40 * 60,
            base_rate=6.0,
            seed=3,
            injections=(Injection(SPIKE, STREAM_DATABASE + 15 * 60, 60.0),),
        )
    )
    config = EngineConfig(database_span=STREAM_DATABASE, retrain_interval=25 * 60)
    grids = ensemble.build_grids(transactions, config)
    fit_cells = STREAM_DATABASE // config.grid_step
    initial = {
        name: TimeSeries(g.timestamps[:fit_cells], g.values[:fit_cells], step=g.step)
        for name, g in grids.items()
    }
    advances = [
        {
            name: TimeSeries(g.timestamps[i : i + 1], g.values[i : i + 1], step=g.step)
            for name, g in grids.items()
        }
        for i in range(fit_cells, len(grids["value"]))
    ]
    return ensemble.engine_from_grids(initial, config), advances


def stream_alarm_lines() -> list[str]:
    """Replay the stream and render its alarms as ``detect stream``
    writes them."""
    engine, advances = stream_replay()
    lines = []
    for new in advances:
        for alarm in ensemble.stream_advance(engine, new):
            lines.append(
                cli._alarm_line(
                    alarm.timestamp, alarm.account, alarm.categories, True, alarm.detectors
                )
            )
    return lines


def test_stream_alarm_digest():
    lines = stream_alarm_lines()
    assert lines  # the pin covers alarm records, not an empty file
    text = "".join(line + "\n" for line in lines)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == STREAM_GOLDEN


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_replay_reaches_every_kind():
    """The traced benchmark wraps functions at the module attribute
    their callers look up: installing it fails if a hooked name is
    gone, and a call that bypasses the attribute, such as a library
    function bound into the detector table at import, records 0 calls.
    It also reads arguments of the per-kind fit and score functions by
    position: the detector kind and the scored rows."""
    tracing = load_tracing()
    engine, advances = stream_replay()
    with tracing.Tracer() as tracer:
        for new in advances[:3]:
            ensemble.stream_advance(engine, new)
        ensemble.retrain(engine)
    _, _, calls = tracer.totals()
    for kind in (*PREDICTIVE_KINDS, *REDUCTION_KINDS, *CLUSTERING_KINDS):
        assert calls[f"score.{kind}"] > 0, kind
        assert calls[f"fit.{kind}"] > 0, kind
    assert tracer.windows_scored > 0
    assert calls["reduction.iforest_score"] > 0
    assert calls["kernels.one_class_decision"] > 0
