"""Ensemble orchestration: category voting semantics, grid building,
batch detection, and the streaming engine's advance/retrain/evict
machinery."""

import copy

import numpy as np
import pytest

from ethsentinel import ensemble, kernels, predictive, synth
from ethsentinel.config import CLUSTERING_KINDS, PREDICTIVE_KINDS, REDUCTION_KINDS, EngineConfig
from ethsentinel.ensemble import (
    DetectorCategory,
    DetectorVerdict,
    build_grids,
    engine_from_grids,
    merge_group_votes,
    run_batch,
    stream_advance,
)
from ethsentinel.errors import DataError, FitError
from ethsentinel.series import TimeSeries
from oracles import naive_knn_loo_predictions


def verdict(det_id, cat, flags, ts=None):
    flags = np.asarray(flags, dtype=bool)
    if ts is None:
        ts = 60 * np.arange(len(flags))
    return DetectorVerdict(det_id, cat, np.asarray(ts), flags)


P, R, C = DetectorCategory.PREDICTIVE, DetectorCategory.REDUCTION, DetectorCategory.CLUSTERING


def vote(verdicts):
    """Votes of a single stream group over its own point set."""
    return merge_group_votes({"g": verdicts}, verdicts[0].timestamps)


def test_strict_majority_two_of_three_fires():
    report = vote([
        verdict("a", P, [True, False]),
        verdict("b", P, [True, False]),
        verdict("c", P, [False, False]),
    ])
    assert report.categories["predictive"].decision.tolist() == [True, False]
    assert report.alarm.tolist() == [True, False]
    assert report.categories["predictive"].flagged.tolist() == [2, 0]
    assert report.categories["predictive"].total.tolist() == [3, 3]


def test_even_tie_is_non_anomalous():
    report = vote([
        verdict("a", P, [True]),
        verdict("b", P, [False]),
    ])
    assert report.alarm.tolist() == [False]


def test_alarm_is_or_over_categories():
    report = vote([
        verdict("p1", P, [False, True]),
        verdict("r1", R, [True, False]),
    ])
    # single-member categories: the lone flag is a majority
    assert report.categories["predictive"].decision.tolist() == [False, True]
    assert report.categories["reduction"].decision.tolist() == [True, False]
    assert report.alarm.tolist() == [True, True]
    assert report.flagging_detectors == [["r1"], ["p1"]]


def test_category_isolation():
    # a unanimous reduction bank cannot tip the predictive majority
    report = vote([
        verdict("p1", P, [False]),
        verdict("p2", P, [False]),
        verdict("p3", P, [True]),
        verdict("r1", R, [True]),
        verdict("r2", R, [True]),
    ])
    assert report.categories["predictive"].decision.tolist() == [False]
    assert report.categories["reduction"].decision.tolist() == [True]


def test_vote_monotone_in_flags():
    rng = np.random.default_rng(0)
    flags = rng.random((5, 30)) < 0.4
    cats = [P, P, P, R, C]
    base = vote(
        [verdict(f"d{i}", cats[i], flags[i]) for i in range(5)]
    )
    boosted_flags = flags.copy()
    boosted_flags[1] |= True  # detector 1 now flags everywhere
    boosted = vote(
        [verdict(f"d{i}", cats[i], boosted_flags[i]) for i in range(5)]
    )
    # adding flags can only add alarms, never remove them
    assert np.all(boosted.alarm >= base.alarm)


def small_config(**overrides):
    base = dict(
        predictive_detectors=("knn", "cart"),
        reduction_detectors=("pca",),
        clustering_detectors=("kmeans",),
        kmeans_k=2,
    )
    base.update(overrides)
    return EngineConfig(**base)


def small_stream(seed=0, duration=4 * 3600, injections=()):
    cfg = synth.SynthConfig(
        duration=duration, base_rate=6.0, seed=seed, injections=tuple(injections)
    )
    return synth.synth_generate(cfg)


def test_build_grids_shared_timeline_and_zero_cells():
    txs, _ = small_stream()
    config = small_config()
    grids = build_grids(txs, config)
    assert set(grids) == {"value", "gasprice", "gaslimit"}
    lengths = {len(g) for g in grids.values()}
    assert len(lengths) == 1
    for g in grids.values():
        assert g.step == 60
        assert np.all(np.diff(g.timestamps) == 60)


def test_run_batch_flags_planted_spike():
    at = int(4 * 3600 * 0.9)
    txs, labels = small_stream(
        seed=1, injections=[synth.Injection(synth.SPIKE, at, 60.0)]
    )
    report = run_batch(txs, small_config())
    label = labels[0]
    hits = report.alarm_timestamps()
    assert any(abs(int(t) - label) <= 120 for t in hits)


def test_run_batch_deterministic():
    txs, _ = small_stream(seed=2)
    config = small_config()
    r1 = run_batch(txs, config)
    r2 = run_batch(txs, config)
    assert np.array_equal(r1.alarm, r2.alarm)
    assert r1.flagging_detectors == r2.flagging_detectors


def test_run_batch_rejects_empty_inputs():
    with pytest.raises(DataError):
        run_batch([], small_config())
    config = EngineConfig(
        predictive_detectors=(), reduction_detectors=(), clustering_detectors=()
    )
    txs, _ = small_stream(seed=3)
    with pytest.raises(DataError):
        run_batch(txs, config)


def stream_fixture(seed=4, retrain_interval=2 * 3600, injections=(), **overrides):
    config = small_config(
        database_span=2 * 3600, retrain_interval=retrain_interval, **overrides
    )
    txs, _ = small_stream(seed=seed, duration=3 * 3600, injections=injections)
    grids = build_grids(txs, config)
    fit_cells = config.database_span // config.grid_step
    initial = {
        name: TimeSeries(g.timestamps[:fit_cells], g.values[:fit_cells], step=60)
        for name, g in grids.items()
    }
    engine = engine_from_grids(initial, config)
    return engine, grids, fit_cells


def advance_one(engine, grids, i):
    new = {
        name: TimeSeries(g.timestamps[i : i + 1], g.values[i : i + 1], step=60)
        for name, g in grids.items()
    }
    return stream_advance(engine, new)


def test_stream_advance_appends_and_evicts():
    engine, grids, fit_cells = stream_fixture()
    keep = engine.config.database_span // 60
    before = int(next(iter(engine.grids.values())).timestamps[-1])
    advance_one(engine, grids, fit_cells)
    after = next(iter(engine.grids.values()))
    assert int(after.timestamps[-1]) == before + 60
    assert len(after) == keep  # database stays capped


def test_stream_advance_rejects_gap_backwards_and_skew():
    engine, grids, fit_cells = stream_fixture()
    # re-sending the last cell is non-contiguous
    with pytest.raises(DataError):
        advance_one(engine, grids, fit_cells - 1)
    # unequal advance across features
    new = {
        name: TimeSeries(
            g.timestamps[fit_cells : fit_cells + (1 if name == "value" else 2)],
            g.values[fit_cells : fit_cells + (1 if name == "value" else 2)],
            step=60,
        )
        for name, g in grids.items()
    }
    with pytest.raises(DataError):
        stream_advance(engine, new)


def test_stream_advance_rejects_an_empty_advance():
    engine, grids, fit_cells = stream_fixture()
    advance_one(engine, grids, fit_cells)
    before, carried = dict(engine.grids), engine.carried
    empty = {
        name: TimeSeries(g.timestamps[:0], g.values[:0], step=60) for name, g in grids.items()
    }
    with pytest.raises(DataError):
        stream_advance(engine, empty)
    # a feature left out carries no cell either
    i = fit_cells + 1
    partial = {
        name: TimeSeries(g.timestamps[i : i + 1], g.values[i : i + 1], step=60)
        for name, g in grids.items()
        if name != "gaslimit"
    }
    with pytest.raises(DataError):
        stream_advance(engine, partial)
    assert engine.grids == before and engine.carried is carried
    # a rejected advance leaves the engine ready for the next cell
    advance_one(engine, grids, fit_cells + 1)


def test_stream_gap_zero_fill_notice():
    engine, grids, fit_cells = stream_fixture()
    skipped = {
        name: TimeSeries(
            g.timestamps[fit_cells + 10 : fit_cells + 11],
            np.array([1000.0]),  # big value so the advance alarms
            step=60,
        )
        for name, g in grids.items()
    }
    alarms = stream_advance(engine, skipped)
    grid = next(iter(engine.grids.values()))
    # ten skipped cells were zero-filled
    assert int(grid.timestamps[-1]) == int(grids["value"].timestamps[fit_cells + 10])
    assert np.all(np.diff(grid.timestamps) == 60)
    for alarm in alarms:
        assert alarm.gap_notice


def test_stream_retrain_fires_once_on_schedule():
    engine, grids, fit_cells = stream_fixture()
    first_retrain = engine.last_retrain
    fired = []
    for i in range(fit_cells, fit_cells + 5):
        advance_one(engine, grids, i)
        fired.append(engine.last_retrain)
    # interval not yet elapsed: clock untouched
    assert all(t == first_retrain for t in fired)


def test_stream_retrain_updates_clock():
    config = small_config(database_span=3600, retrain_interval=300)
    txs, _ = small_stream(seed=5, duration=2 * 3600)
    grids = build_grids(txs, config)
    fit_cells = 3600 // 60
    initial = {
        name: TimeSeries(g.timestamps[:fit_cells], g.values[:fit_cells], step=60)
        for name, g in grids.items()
    }
    engine = engine_from_grids(initial, config)
    start_clock = engine.last_retrain
    retrains = 0
    for i in range(fit_cells, fit_cells + 12):
        advance_one(engine, grids, i)
        if engine.last_retrain != start_clock:
            retrains += 1
            start_clock = engine.last_retrain
    # 12 one-minute advances with a 5-minute interval: retrained twice or thrice
    assert 2 <= retrains <= 3


def test_stream_alarms_deduplicated():
    engine, grids, fit_cells = stream_fixture(seed=6)
    seen = set()
    for i in range(fit_cells, fit_cells + 30):
        for alarm in advance_one(engine, grids, i):
            assert alarm.timestamp not in seen
            seen.add(alarm.timestamp)


@pytest.fixture(scope="module")
def default_bank():
    """The default 41-detector bank, fitted on two hours of stream."""
    config = EngineConfig()
    txs, _ = small_stream(seed=3, duration=2 * 3600)
    grids = build_grids(txs, config)
    return config, grids, *ensemble.fit_bank(grids, config)


def test_kind_table_wires_every_configured_kind(default_bank):
    kinds = (*PREDICTIVE_KINDS, *REDUCTION_KINDS, *CLUSTERING_KINDS)
    assert tuple(ensemble.DETECTOR_KINDS) == kinds
    assert tuple(ensemble.KIND_CATEGORY) == kinds
    for category, members in ((P, PREDICTIVE_KINDS), (R, REDUCTION_KINDS), (C, CLUSTERING_KINDS)):
        assert {ensemble.KIND_CATEGORY[kind] for kind in members} == {category}
    # the default bank: every kind on every feature, and every row kind
    # but the autoencoder on the multivariate rows
    config, _, detectors, warnings = default_bank
    assert warnings == []
    bank_order = (*PREDICTIVE_KINDS, *CLUSTERING_KINDS, *REDUCTION_KINDS)
    expected = [f"{kind}:{feature}" for feature in config.features for kind in bank_order]
    expected += ["kmeans:multi", "dbscan:multi", "ocsvm:multi", "pca:multi", "iforest:multi"]
    assert [det.detector_id for det in detectors] == expected
    assert len(detectors) == 41
    assert all(det.category is ensemble.KIND_CATEGORY[det.kind] for det in detectors)


def test_every_detector_flags_where_its_score_exceeds_its_threshold(default_bank):
    config, grids, detectors, _ = default_bank
    multi_rows = np.column_stack([grids[name].values for name in config.features])
    for det in detectors:
        kind, payload = ensemble.DETECTOR_KINDS[det.kind], det.payload
        assert np.isfinite(payload["threshold"]), det.detector_id
        if det.category is P:
            values = grids[det.group].values
            start = len(values) // 2
            first, scores = kind.score(payload, values, start, None)
            flags = ensemble._predictive_point_flags(det, values, start)
            assert not flags[: first - start].any()
            flags = flags[first - start :]
        else:
            values = multi_rows if det.group == ensemble.MULTI_GROUP else grids[det.group].values
            rows, _ = ensemble._window_matrix(
                values, payload["window_cells"], payload["stride_cells"], 0
            )
            scores = kind.score(payload, (rows - payload["mean"]) / payload["std"])
            flags = ensemble._score_rows(det.kind, payload, rows)
        assert scores.shape == flags.shape, det.detector_id
        assert np.array_equal(flags, scores > payload["threshold"]), det.detector_id


def test_stream_tick_builds_only_windows_covering_new_cells(monkeypatch):
    engine, grids, fit_cells = stream_fixture()
    built = []
    window_matrix = ensemble._window_matrix

    def counting(values, w, *args):
        matrix, starts = window_matrix(values, w, *args)
        built.append((w, len(matrix)))
        return matrix, starts

    monkeypatch.setattr(ensemble, "_window_matrix", counting)
    clock = engine.last_retrain
    advance_one(engine, grids, fit_cells)
    assert engine.last_retrain == clock  # an ordinary tick: scoring only
    window_detectors = [d for d in engine.detectors if d.category is not P]
    assert len(built) == len(window_detectors)
    # a one-cell tick needs at most the w windows that cover that cell,
    # not every window of the database
    for w, rows in built:
        assert 0 < rows <= w


def fail_refits(monkeypatch, failing):
    """Make the refits of the kinds in ``failing`` raise FitError."""
    for name in ("_fit_predictive", "_fit_row_detector"):
        original = getattr(ensemble, name)

        def fit(kind, *args, original=original):
            if kind in failing:
                raise FitError("refit failed on purpose")
            return original(kind, *args)

        monkeypatch.setattr(ensemble, name, fit)


def retrain_tick(engine, grids, fit_cells):
    before = list(engine.detectors)
    clock = engine.last_retrain
    advance_one(engine, grids, fit_cells)
    assert engine.last_retrain == clock + 60  # the retrain clock advances
    return before


def test_stream_survives_retrain_where_every_refit_fails(monkeypatch):
    engine, grids, fit_cells = stream_fixture(retrain_interval=60)
    fail_refits(monkeypatch, set(ensemble.KIND_CATEGORY))
    before = retrain_tick(engine, grids, fit_cells)
    # every detector keeps its previous model, in the bank's order
    assert len(engine.detectors) == len(before)
    assert all(a is b for a, b in zip(engine.detectors, before))
    failed = [w for w in engine.warnings if "refit failed on purpose" in w]
    assert len(failed) == len(before)
    # the next ordinary tick scores with the kept bank
    advance_one(engine, grids, fit_cells + 1)


def test_retrain_keeps_previous_model_of_a_failed_detector(monkeypatch):
    engine, grids, fit_cells = stream_fixture(retrain_interval=60)
    fail_refits(monkeypatch, {"pca"})
    before = retrain_tick(engine, grids, fit_cells)
    assert [d.detector_id for d in engine.detectors] == [d.detector_id for d in before]
    for new, old in zip(engine.detectors, before):
        assert (new is old) == (new.kind == "pca")
    failed = sorted(w.split(": ")[1] for w in engine.warnings if "on purpose" in w)
    assert failed == ["pca:gaslimit", "pca:gasprice", "pca:multi", "pca:value"]


def test_detector_seed_stable_and_distinct():
    s1 = ensemble._detector_seed(0, "knn", "value")
    assert s1 == ensemble._detector_seed(0, "knn", "value")
    assert s1 != ensemble._detector_seed(0, "knn", "gasprice")
    assert s1 != ensemble._detector_seed(1, "knn", "value")


ARIMA_KINDS = ("arima", "sarima")


def test_ordinary_tick_recurses_over_its_own_cells_only(monkeypatch):
    engine, grids, fit_cells = stream_fixture(predictive_detectors=ARIMA_KINDS)
    models = [det.payload["model"] for det in engine.detectors if det.kind in ARIMA_KINDS]
    assert len(models) == 6
    assert all(model.recursion_contracts for model in models)  # so every state is carried
    advance_one(engine, grids, fit_cells)  # the first tick after the fit: full passes
    spans = []
    css_residuals = predictive.css_residuals

    def counting(w, c, phi, sphi, theta, stheta, s, start, history=None):
        spans.append(len(w) - start)
        return css_residuals(w, c, phi, sphi, theta, stheta, s, start, history)

    monkeypatch.setattr(predictive, "css_residuals", counting)
    clock = engine.last_retrain
    advance_one(engine, grids, fit_cells + 1)
    assert engine.last_retrain == clock  # an ordinary tick
    assert spans == [1] * len(models)
    # a refit bank starts its recursions afresh
    ensemble.retrain(engine)
    assert engine.carried == {}


def test_non_contracting_model_is_never_carried():
    # theta = 1.04: the residual recursion grows 4% a cell, so residuals
    # carried from tick to tick drift away from those of a restart
    model = predictive.ArimaModel(
        order=predictive.ArimaOrder(1, 1, 1),
        phi=np.array([0.2]),
        theta=np.array([1.04]),
        seasonal_phi=np.empty(0),
        seasonal_theta=np.empty(0),
        intercept=0.0,
        residual_rms=1.0,
    )
    assert not model.recursion_contracts
    payload = {"model": model, "rms": 1.0, "threshold": 3.0}
    det = ensemble.FittedDetector("arima:value", "arima", P, "value", payload)
    x = np.cumsum(np.random.default_rng(12).standard_normal(160))
    state = {}
    for k in range(100):
        database = x[k : k + 60]
        carried = ensemble._predictive_point_flags(det, database, 59, state)
        # a restart, as every tick made before states were carried
        restarted = ensemble._predictive_point_flags(det, database, 59)
        assert np.array_equal(carried, restarted)
    assert "carry" not in state


def test_deep_copied_engine_alarms_like_its_original():
    at = 3 * 3600 - 40 * 60
    engine, grids, fit_cells = stream_fixture(
        predictive_detectors=ARIMA_KINDS, injections=[synth.Injection(synth.SPIKE, at, 60.0)]
    )
    for i in range(fit_cells, fit_cells + 5):
        advance_one(engine, grids, i)
    twin = copy.deepcopy(engine)
    assert any("carry" in state for state in twin.carried.values())
    alarms = []
    for i in range(fit_cells + 5, fit_cells + 40):
        ours = advance_one(engine, grids, i)
        assert advance_one(twin, grids, i) == ours
        alarms += ours
    assert alarms


@pytest.mark.parametrize("pairs", [6, 511, 512, 513, 1500])
def test_knn_fit_matches_whole_matrix_oracle(pairs):
    # the leave-self-out forecasts, one row block at a time, equal those
    # of the whole distance matrix with its diagonal set to +inf
    config = EngineConfig()
    train = np.random.default_rng(pairs).standard_normal(pairs + config.knn_lags)
    y, preds = naive_knn_loo_predictions(train, config.knn_lags, config.knn_k)
    payload = ensemble._fit_knn(train, config, seed=0)
    assert len(payload["y"]) == pairs
    assert payload["rms"] == ensemble.rms(y - preds)


def test_no_distance_matrix_grows_with_the_square_of_the_series(monkeypatch):
    # a refit on 2 days of cells and the batch scoring after it: every
    # distance matrix stays within the reference cap squared
    config = EngineConfig(
        predictive_detectors=("knn",),
        reduction_detectors=(),
        clustering_detectors=("dbscan", "ocsvm"),
    )
    txs, _ = small_stream(seed=2, duration=2 * 86400)
    grids = build_grids(txs, config)
    n = len(next(iter(grids.values())))
    assert n > config.boundary_subsample
    sizes = []
    sq_dists = kernels.sq_dists

    def recording(A, B):
        out = sq_dists(A, B)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(kernels, "sq_dists", recording)
    detectors, warnings = ensemble.fit_bank(grids, config)
    assert not warnings
    split = int(round(config.train_ratio * n))
    ensemble.score_bank(detectors, grids, config, predictive_start=split)
    assert sizes
    assert max(sizes) <= config.boundary_subsample**2
