"""Behaviour pin: SHA-256 of the batch report and of a stream replay's
alarms for fixed (synth seed, engine config) pairs. A change to these digests is a change to the
engine's alarms or report records; update them only on purpose and
record why in CHANGES.md. The replay also checks that the traced
benchmark's hooks still see every detector kind."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ethsentinel import cli, ensemble
from ethsentinel.config import CLUSTERING_KINDS, PREDICTIVE_KINDS, REDUCTION_KINDS, EngineConfig
from ethsentinel.series import TimeSeries
from ethsentinel.synth import SPIKE, Injection, SynthConfig, synth_generate

GOLDEN = {
    # (rate, seed, days): a synthetic stream, default SynthConfig apart
    # from these; "sparse-4day" is the benchmark's batch-sparse input
    "dense": (6.0, 3, 1, "9d917203459bcc999ecb331062bb75754a03daae5c7b69893e58ef4422487f6a"),
    "sparse": (0.02, 3, 1, "cf5098d4af52c248a222b7103451f66b1a65b38996c8bf881ff897b6f9fa4678"),
    "sparse-4day": (
        0.02,
        1,
        4,
        "57fd8c1d9bb1e331e0fd35a40522c41bfc5c8018fbe3af357883bc1b6ceefc86",
    ),
}


def report_digest(base_rate: float, seed: int, days: int = 1) -> str:
    transactions, _ = synth_generate(
        SynthConfig(duration=days * 86400, base_rate=base_rate, seed=seed)
    )
    config = EngineConfig()
    report = ensemble.run_batch(transactions, config)
    grids = ensemble.build_grids(transactions, config)
    text = "".join(line + "\n" for line in cli._report_lines(report, grids, ""))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_batch_report_digest(name):
    base_rate, seed, days, digest = GOLDEN[name]
    assert report_digest(base_rate, seed, days) == digest


def with_two_blas_threads(function: str, *args) -> str:
    """What this module's ``function(*args)`` returns, as printed by a
    fresh interpreter with 2 BLAS threads. The benchmark pins the thread
    count to 1 and a test run leaves it to the core count; it is read
    when numpy loads, hence the fresh interpreter."""
    env = os.environ | {
        "OPENBLAS_NUM_THREADS": "2",
        "PYTHONPATH": os.pathsep.join(path for path in sys.path if path),
    }
    result = subprocess.run(
        [sys.executable, "-c", f"from test_golden import {function}; print({function}{args!r})"],
        cwd=Path(__file__).resolve().parent,
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_batch_report_digest_with_two_blas_threads(name):
    """The digests do not depend on the BLAS thread count."""
    base_rate, seed, days, digest = GOLDEN[name]
    assert with_two_blas_threads("report_digest", base_rate, seed, days) == digest


# two hours of database, 41 one-cell advances, one retrain (at advance
# 25) and a spike at advance 15
STREAM_DATABASE = 2 * 3600
STREAM_GOLDEN = "2c293a5f823f8c1a80d5bb60929c294b0744faba08205611cd27a189d3f95478"


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


# SHA-256 over the coefficients and training residual RMS of every
# ARIMA and SARIMA detector that ``fit_bank`` fits on the "dense" input.
# The report digests move only when a flag flips; this one moves when a
# coefficient changes in its last bit.
COEFFICIENT_GOLDEN = "bcfec6e78712d06446382413d2023a0b95efa19680fbc17b8afe8a7d35997bf8"


def coefficient_digest() -> tuple[str, list[str]]:
    """The digest over the batch fits, and the ids of the detectors it
    covers."""
    base_rate, seed, days, _ = GOLDEN["dense"]
    transactions, _ = synth_generate(
        SynthConfig(duration=days * 86400, base_rate=base_rate, seed=seed)
    )
    config = EngineConfig(
        predictive_detectors=("arima", "sarima"), reduction_detectors=(), clustering_detectors=()
    )
    grids = ensemble.build_grids(transactions, config)
    split = int(round(config.train_ratio * len(grids["value"].values)))
    detectors, warnings = ensemble.fit_bank(grids, config, predictive_train_cells=split)
    assert not warnings
    digest = hashlib.sha256()
    for det in detectors:
        model = det.payload["model"]
        digest.update(det.detector_id.encode("utf-8"))
        digest.update(model.params.tobytes())
        digest.update(np.float64(model.residual_rms).tobytes())
    return digest.hexdigest(), [det.detector_id for det in detectors]


def test_arima_coefficient_digest():
    digest, ids = coefficient_digest()
    groups = EngineConfig().features
    assert sorted(ids) == sorted(f"{kind}:{g}" for kind in ("arima", "sarima") for g in groups)
    assert digest == COEFFICIENT_GOLDEN


def stream_alarm_digest() -> str:
    lines = stream_alarm_lines()
    assert lines  # the pin covers alarm records, not an empty file
    text = "".join(line + "\n" for line in lines)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_stream_alarm_digest():
    assert stream_alarm_digest() == STREAM_GOLDEN


def test_stream_alarm_digest_with_two_blas_threads():
    """The replay refits every detector at its retrain, the one-class
    machines from single-row kernel products among them."""
    assert with_two_blas_threads("stream_alarm_digest") == STREAM_GOLDEN


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
    # the two loops behind the benchmark's share metrics
    assert calls["predictive.css_residuals"] > 0
    assert calls["kernels.smo_solve"] > 0
