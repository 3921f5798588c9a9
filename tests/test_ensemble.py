"""Ensemble orchestration: category voting semantics, grid building,
batch detection, and the streaming engine's advance/retrain/evict
machinery."""

import copy
import dataclasses

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
from oracles import naive_knn_loo_predictions, naive_sq_dists, traced_peak


def verdict(det_id, cat, flags):
    return DetectorVerdict(det_id, cat, np.asarray(flags, dtype=bool))


P, R, C = DetectorCategory.PREDICTIVE, DetectorCategory.REDUCTION, DetectorCategory.CLUSTERING


def vote(verdicts):
    """Votes of a single stream group over its own point set."""
    return merge_group_votes({"g": verdicts}, 60 * np.arange(len(verdicts[0].flags)))


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


def test_votes_of_verdicts_covering_the_last_cells():
    # the batch shape: predictive verdicts cover the scored tail, row
    # verdicts every cell, in two groups
    timeline = 60 * np.arange(5)
    report = merge_group_votes(
        {
            "a": [
                verdict("arima:a", P, [1, 1]),
                verdict("knn:a", P, [0, 1]),
                verdict("stl:a", P, [1, 0]),
                verdict("pca:a", R, [1, 0, 0, 1, 0]),
            ],
            "b": [
                verdict("arima:b", P, [0, 1]),
                verdict("knn:b", P, [0, 0]),
                verdict("pca:b", R, [0, 0, 1, 1, 1]),
                verdict("ae:b", R, [0, 1, 1, 0, 1]),
            ],
        },
        timeline,
        alarm_categories=("predictive",),
    )
    pred = report.categories["predictive"]
    # cell 3: group a 2 of 3 (margin +1), group b 0 of 2; cell 4: a 2 of
    # 3, b 1 of 2 (margin 0). Cells 0-2 have no predictive vote.
    assert pred.flagged.tolist() == [0, 0, 0, 2, 2]
    assert pred.total.tolist() == [0, 0, 0, 3, 3]
    assert pred.decision.tolist() == [False, False, False, True, True]
    red = report.categories["reduction"]
    # a's 1 of 1 wins cells 0 and 3 (margin +1 against b's -2 and 0);
    # b's 2 of 2 wins cells 2 and 4, and its 1 of 2 (margin 0) cell 1
    # over a's 0 of 1 (margin -1)
    assert red.flagged.tolist() == [1, 1, 2, 1, 2]
    assert red.total.tolist() == [1, 2, 2, 1, 2]
    assert red.decision.tolist() == [True, False, True, True, True]
    assert report.alarm.tolist() == pred.decision.tolist()
    assert report.flagging_detectors == [
        ["pca:a"],
        ["ae:b"],
        ["pca:b", "ae:b"],
        ["arima:a", "stl:a", "pca:a", "pca:b"],
        ["arima:a", "knn:a", "arima:b", "pca:b", "ae:b"],
    ]


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
    hits = report.timestamps[report.alarm]
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
    txs, _ = small_stream(seed=3)
    with pytest.raises(DataError):
        config = EngineConfig(
            predictive_detectors=(), reduction_detectors=(), clustering_detectors=()
        )
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


@pytest.mark.parametrize("features", [("value",), ("value", "gasprice", "gaslimit")])
@pytest.mark.parametrize("mode", ["univariate", "multivariate", "both"])
def test_fit_bank_fits_the_groups_that_group_kinds_wires(mode, features):
    txs, _ = small_stream(seed=3, duration=2 * 3600)
    for predictive, reduction, clustering in (
        (("arima",), (), ()),
        ((), ("ae",), ()),
        ((), ("pca", "ae"), ("kmeans",)),
        (("knn",), ("pca",), ("kmeans",)),
        ((), (), ()),
    ):
        overrides = dict(
            mode=mode,
            features=features,
            predictive_detectors=predictive,
            reduction_detectors=reduction,
            clustering_detectors=clustering,
            kmeans_k=2,
            ae_epochs=5,
        )
        unchecked = copy.copy(EngineConfig())
        for key, value in overrides.items():
            object.__setattr__(unchecked, key, value)
        # the config is refused exactly when its wiring rule fits nothing
        if not any(unchecked.group_kinds()):
            with pytest.raises(DataError, match="wires no detector"):
                EngineConfig(**overrides)
            continue
        config = EngineConfig(**overrides)
        grids = build_grids(txs, config)
        detectors, warnings = ensemble.fit_bank(grids, config)
        assert warnings == []
        groups = ensemble._groups(grids, config)
        expected = [(group, kind) for group, _, kinds in groups for kind in kinds]
        assert [(det.group, det.kind) for det in detectors] == expected


def test_fit_bank_raises_when_every_detector_fails(monkeypatch):
    config = small_config()
    txs, _ = small_stream(seed=3, duration=2 * 3600)
    fail_refits(monkeypatch, set(ensemble.KIND_CATEGORY))
    with pytest.raises(FitError, match="every detector failed to fit"):
        ensemble.fit_bank(build_grids(txs, config), config)


def test_every_ocsvm_payload_keeps_fewer_rows_than_its_subsample():
    # two days of cells: every group trains on a full OCSVM subsample,
    # and keeps only its support vectors
    config = EngineConfig(
        predictive_detectors=(), reduction_detectors=(), clustering_detectors=("ocsvm",)
    )
    txs, _ = small_stream(seed=3, duration=2 * 86400)
    grids = build_grids(txs, config)
    detectors, warnings = ensemble.fit_bank(grids, config)
    assert warnings == []
    assert len(detectors) == len(config.features) + 1
    group_values = {group: values for group, values, _ in ensemble._groups(grids, config)}
    for det in detectors:
        frame, model = det.payload["frame"], det.payload["model"]
        _, rows = ensemble.WindowFrame.fit(group_values[det.group], frame.cells)
        assert len(rows) > config.boundary_subsample, det.detector_id
        assert len(model.support_vectors) < config.boundary_subsample, det.detector_id


def test_every_detector_flags_where_its_score_exceeds_its_threshold(default_bank):
    config, grids, detectors, _ = default_bank
    group_values = {group: values for group, values, _ in ensemble._groups(grids, config)}
    for det in detectors:
        kind, payload = ensemble.DETECTOR_KINDS[det.kind], det.payload
        assert np.isfinite(payload["threshold"]), det.detector_id
        values = group_values[det.group]
        if det.category is P:
            start = len(values) // 2
            first, scores = kind.score(payload, values, start, {})
            flags = ensemble._predictive_point_flags(det, values, start, {})
            assert not flags[: first - start].any()
            flags = flags[first - start :]
        else:
            frame = payload["frame"]
            rows, _ = ensemble._window_matrix(values, frame.cells, 0)
            rows = (rows - frame.mean) / frame.std
            scores = kind.score(payload, rows)
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
    # one build per distinct frame, shared by the row kinds that use it
    window_detectors = [d for d in engine.detectors if d.category is not P]
    frames = {id(d.payload["frame"]) for d in window_detectors}
    assert len(built) == len(frames) < len(window_detectors)
    # a one-cell tick needs at most the w windows that cover that cell,
    # not every window of the database
    for w, rows in built:
        assert 0 < rows <= w


def test_the_fallback_period_is_one_day_of_cells():
    # a constant series shows no period, so SARIMA and STL fall back to
    # one day: 288 cells of 300 s, inside the cap of 2000 // cycles
    config = EngineConfig(grid_step=300)
    train = np.full(2000, 7.0)
    assert ensemble._resolve_period(train, config, 2) == 288
    assert ensemble._resolve_period(train, config, 3) == 288
    assert ensemble.DETECTOR_KINDS["stl"].fit(train, config, 0)["period"] == 288


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


def test_a_detector_kept_after_a_failed_refit_scores_with_its_own_frame(monkeypatch):
    engine, grids, fit_cells = stream_fixture(retrain_interval=60)
    fail_refits(monkeypatch, {"pca"})
    retrain_tick(engine, grids, fit_cells)
    refitted = {d.group: d.payload["frame"] for d in engine.detectors if d.kind == "kmeans"}
    kept = [d for d in engine.detectors if d.kind == "pca"]
    for det in kept:
        frame = det.payload["frame"]
        assert frame is not refitted[det.group]
        # the refit moved the group's standardization
        assert not np.array_equal(frame.mean, refitted[det.group].mean)
    scored = {}
    score_rows = ensemble._score_rows

    def spy(kind, payload, rows):
        scored[id(payload)] = rows
        return score_rows(kind, payload, rows)

    monkeypatch.setattr(ensemble, "_score_rows", spy)
    # this tick retrains too, and pca fails and is kept again
    advance_one(engine, grids, fit_cells + 1)
    groups = ensemble._groups(engine.grids, engine.config)
    group_values = {group: values for group, values, _ in groups}
    for det in kept:
        assert any(d is det for d in engine.detectors)
        frame = det.payload["frame"]
        values = group_values[det.group]
        start = len(values) - 1
        matrix, _ = ensemble._window_matrix(values, frame.cells, max(0, start - frame.cells + 1))
        assert np.array_equal(scored[id(det.payload)], (matrix - frame.mean) / frame.std)


def row_kinds_config():
    """Every row kind and no predictive one, with a quick autoencoder."""
    return EngineConfig(predictive_detectors=(), kmeans_k=2, ae_epochs=5)


def test_row_kinds_fit_and_score_one_read_only_frame_per_group_and_window(monkeypatch):
    config = row_kinds_config()
    txs, _ = small_stream(seed=3, duration=2 * 3600)
    grids = build_grids(txs, config)
    fitted = []
    fit_row_detector = ensemble._fit_row_detector

    def spy_fit(kind, rows, *args):
        fitted.append((kind, rows))
        return fit_row_detector(kind, rows, *args)

    monkeypatch.setattr(ensemble, "_fit_row_detector", spy_fit)
    detectors, warnings = ensemble.fit_bank(grids, config)
    assert warnings == [] and len(detectors) == len(fitted) == 23
    frames = {}
    for det, (kind, rows) in zip(detectors, fitted):
        assert kind == det.kind
        assert det.payload.keys().isdisjoint({"mean", "std", "window_cells", "stride_cells"})
        frame = det.payload["frame"]
        # the frame holds its format and standardization, not the training rows
        assert [f.name for f in dataclasses.fields(frame)] == ["cells", "mean", "std"]
        assert frame.cells == ensemble.DETECTOR_KINDS[kind].window(config)
        assert not rows.flags.writeable
        shared_frame, shared_rows = frames.setdefault((det.group, frame.cells), (frame, rows))
        assert frame is shared_frame and rows is shared_rows
    assert len(frames) == 7  # 3 features x {5, 32 cells} + the multi rows at 5

    built, scored = [], []
    window_matrix, score_rows = ensemble._window_matrix, ensemble._score_rows

    def spy_windows(*args):
        built.append(args[1])
        return window_matrix(*args)

    def spy_score(kind, payload, rows):
        scored.append(rows)
        return score_rows(kind, payload, rows)

    monkeypatch.setattr(ensemble, "_window_matrix", spy_windows)
    monkeypatch.setattr(ensemble, "_score_rows", spy_score)
    ensemble.score_bank(detectors, grids, config, predictive_start=0)
    assert sorted(built) == sorted(w for _, w in frames)
    assert len(scored) == 23
    assert not any(rows.flags.writeable for rows in scored)


def test_a_frame_that_fails_is_reported_by_each_kind_that_shares_it():
    config = row_kinds_config()
    txs, _ = small_stream(seed=3, duration=2 * 3600)
    grids = build_grids(txs, config)
    previous, _ = ensemble.fit_bank(grids, config)
    old = {det.detector_id: det for det in previous}

    def last(cells):
        return {
            name: TimeSeries(g.timestamps[-cells:], g.values[-cells:], step=60)
            for name, g in grids.items()
        }

    # 40 cells: 36 five-cell windows, but only 9 thirty-two-cell ones
    detectors, warnings = ensemble.fit_bank(last(40), config, previous=previous)
    assert warnings == [f"ae:{name}: fit failed: too few windows" for name in config.features]
    assert [d.detector_id for d in detectors] == [d.detector_id for d in previous]
    for det in detectors:
        assert (det is old[det.detector_id]) == (det.kind == "ae")
    # 12 cells: 8 five-cell windows, so every kind of every frame reports
    detectors, warnings = ensemble.fit_bank(last(12), config, previous=previous)
    assert warnings == [f"{d.detector_id}: fit failed: too few windows" for d in previous]
    assert all(a is b for a, b in zip(detectors, previous))


@pytest.fixture(scope="module")
def replay_and_batch():
    """Each tick's verdicts of a 60-tick replay with the retrain off, and
    one ``score_bank`` of the same bank over the cells the stream scored
    with: the first tick evicted cell 0 before it scored, and the later
    ticks carry on from there."""
    engine, grids, fit_cells = stream_fixture(
        retrain_interval=10**9, predictive_detectors=PREDICTIVE_KINDS
    )
    bank = list(engine.detectors)
    ticks = []
    score_bank = ensemble.score_bank

    def spy(*args, **kwargs):
        ticks.append(score_bank(*args, **kwargs))
        return ticks[-1]

    replayed = 60
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(ensemble, "score_bank", spy)
        for i in range(fit_cells, fit_cells + replayed):
            advance_one(engine, grids, i)
    assert all(a is b for a, b in zip(engine.detectors, bank))  # no retrain
    cells = slice(1, fit_cells + replayed)
    seen = {
        name: TimeSeries(g.timestamps[cells], g.values[cells], step=60)
        for name, g in grids.items()
    }
    return ticks, score_bank(bank, seen, engine.config, fit_cells - 1, fit_cells - 1)


@pytest.mark.parametrize(
    "kind",
    [
        *(kind for kind in PREDICTIVE_KINDS if kind != "stl"),
        pytest.param(
            "stl",
            marks=pytest.mark.xfail(
                strict=True,
                reason="batch STL takes a cell's trend and phase means over the later cells "
                "too; a tick takes them over its database, which ends at the cell",
            ),
        ),
    ],
)
def test_stream_predictive_flags_equal_one_batch_score_of_the_same_bank(replay_and_batch, kind):
    ticks, batch = replay_and_batch
    compared = 0
    for group, verdicts in batch.items():
        for j, verdict in enumerate(verdicts):
            if verdict.detector_id == f"{kind}:{group}":
                stream = np.concatenate([tick[group][j].flags for tick in ticks])
                assert np.array_equal(stream, verdict.flags), verdict.detector_id
                compared += 1
    assert compared == 3


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
        predictive.ArimaOrder(1, 1, 1), params=[0.0, 0.2, 1.04], residual_rms=1.0
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
        restarted = ensemble._predictive_point_flags(det, database, 59, {})
        assert np.array_equal(carried, restarted)
    assert "carry" not in state


@pytest.mark.parametrize("period", [7, 12])
def test_stl_carried_average_equals_a_restart(period):
    payload = {"period": period, "rms": 1.0, "threshold": 1.5}
    det = ensemble.FittedDetector("stl:value", "stl", P, "value", payload)
    score = ensemble.DETECTOR_KINDS["stl"].score
    rng = np.random.default_rng(13)
    t = np.arange(300)
    x = 3.0 * np.sin(2 * np.pi * t / period) + np.cumsum(0.2 * rng.standard_normal(300))
    x += rng.standard_normal(300)
    span = 5 * period
    hi = 2 * period
    # the database grows to its span, then rolls; after 60 one-cell
    # ticks, one tick brings a two-cell zero-filled gap and the cell
    # after it
    gap = hi + 60
    x[gap : gap + 2] = 0.0
    scored, flagged = {}, {}  # one stream state per scoring path
    for appended in [1] * 60 + [3] + [1] * 39:
        hi += appended
        database = x[max(0, hi - span) : hi]
        start = len(database) - appended
        first, carried = score(payload, database, start, scored)
        _, restarted = score(payload, database, start, {})
        assert first == start and np.array_equal(carried, restarted)
        assert np.array_equal(
            ensemble._predictive_point_flags(det, database, start, flagged),
            ensemble._predictive_point_flags(det, database, start, {}),
        )
        assert flagged["stl"][1] == len(database)
    assert hi > span


def test_ordinary_tick_convolves_only_windows_reaching_new_cells(monkeypatch):
    engine, grids, fit_cells = stream_fixture(predictive_detectors=("stl",))
    periods = [det.payload["period"] for det in engine.detectors if det.kind == "stl"]
    assert len(periods) == 3
    advance_one(engine, grids, fit_cells)  # the first tick after the fit: full convolutions
    convolved = []
    convolve = np.convolve

    def counting(a, v, mode="full"):
        convolved.append(len(a))
        return convolve(a, v, mode)

    monkeypatch.setattr(np, "convolve", counting)
    clock = engine.last_retrain
    advance_one(engine, grids, fit_cells + 1)
    assert engine.last_retrain == clock  # an ordinary tick
    assert len(convolved) == len(periods)
    for cells, period in zip(convolved, periods):
        assert cells <= period + 1  # the period's taps plus the appended cell
    # a refit bank convolves the whole database again
    ensemble.retrain(engine)
    assert engine.carried == {}


def test_deep_copied_engine_alarms_like_its_original():
    at = 3 * 3600 - 40 * 60
    engine, grids, fit_cells = stream_fixture(
        predictive_detectors=(*ARIMA_KINDS, "stl"),
        injections=[synth.Injection(synth.SPIKE, at, 60.0)],
    )
    for i in range(fit_cells, fit_cells + 5):
        advance_one(engine, grids, i)
    twin = copy.deepcopy(engine)
    assert any("carry" in state for state in twin.carried.values())
    assert any("stl" in state for state in twin.carried.values())
    alarms = []
    for i in range(fit_cells + 5, fit_cells + 40):
        ours = advance_one(engine, grids, i)
        assert advance_one(twin, grids, i) == ours
        alarms += ours
    assert alarms


@pytest.mark.parametrize("pairs", [6, 511, 512, 513, 1500])
def test_knn_fit_matches_whole_matrix_oracle(pairs):
    # the leave-self-out forecasts, one block of distinct contexts at a
    # time, equal those of the whole (pairs x pairs) distance matrix
    config = EngineConfig()
    train = np.random.default_rng(pairs).standard_normal(pairs + config.knn_lags)
    y, preds = naive_knn_loo_predictions(train, config.knn_lags, config.knn_k)
    payload = ensemble._fit_knn(train, config, seed=0)
    assert payload["contexts"].counts.sum() == pairs
    assert payload["rms"] == ensemble.rms(y - preds)


def sparse_series(n, seed, integer=False, rate=0.05):
    """A mostly-zero series, as the grid of a sparse account: a share
    ``rate`` of its cells hold a small integer or a normal draw."""
    rng = np.random.default_rng(seed)
    active = rng.random(n) < rate
    draws = rng.integers(1, 4, n) if integer else rng.standard_normal(n)
    return np.where(active, draws, 0).astype(float)


@pytest.mark.parametrize("pairs", [40, 600, 1500])
def test_knn_fit_matches_whole_matrix_oracle_on_repeated_contexts(pairs):
    # most lag contexts of a sparse series are all zeros, so most pairs
    # tie with many others: one context's forecast serves all its pairs
    config = EngineConfig()
    train = sparse_series(pairs + config.knn_lags, pairs)
    y, preds = naive_knn_loo_predictions(train, config.knn_lags, config.knn_k)
    payload = ensemble._fit_knn(train, config, seed=0)
    assert len(payload["contexts"].rows) < pairs / 2
    assert payload["contexts"].counts.sum() == pairs
    assert payload["rms"] == ensemble.rms(y - preds)


def test_knn_forecasts_do_not_depend_on_the_order_of_the_pairs():
    # integer targets make every context's target sum exact in any
    # order, so the forecasts must agree to the last bit
    train = sparse_series(2000, 7, integer=True)
    X, y = predictive._lag_pairs(train, 5)
    queries = predictive._lag_pairs(sparse_series(300, 8, integer=True), 5)[0]
    payload, preds = ensemble._knn_fit_pairs(X, y, 5)
    perm = np.random.default_rng(0).permutation(len(y))
    shuffled, shuffled_preds = ensemble._knn_fit_pairs(X[perm], y[perm], 5)
    assert np.array_equal(shuffled_preds, preds[perm])
    for key in ("rows", "counts", "sq"):
        assert np.array_equal(getattr(shuffled["contexts"], key), getattr(payload["contexts"], key))
    assert np.array_equal(shuffled["sums"], payload["sums"])
    assert np.array_equal(
        ensemble._knn_predictions(shuffled, queries), ensemble._knn_predictions(payload, queries)
    )


def test_knn_fit_holds_no_index_array_beside_its_distance_block():
    # a dense 4-day series, where every lag context is distinct: a
    # 512-row block of distances with an index array of its size beside
    # it peaked at twice the block
    config = EngineConfig()
    train = np.random.default_rng(0).standard_normal(5760)
    block = 512 * (len(train) - config.knn_lags) * 8
    assert traced_peak(lambda: ensemble._fit_knn(train, config, seed=0)) < 1.5 * block


def test_knn_score_holds_one_block_of_distances():
    # a dense 4-day series' lag pairs scored against another's fit: a
    # 128-row block of distances to the 5755 contexts and its
    # argpartition index took 11.3 MB; 16-row blocks take 1.5 MB
    config = EngineConfig()
    train = np.random.default_rng(0).standard_normal(5760)
    payload = ensemble._fit_knn(train, config, seed=0)
    series = np.random.default_rng(1).standard_normal(5760)
    queries = predictive._lag_pairs(series, config.knn_lags)[0]
    block = kernels._BLOCK_ENTRIES * 8
    assert traced_peak(lambda: ensemble._knn_predictions(payload, queries)) < 3 * block


def test_dbscan_score_counts_the_whole_reference_subsample():
    # a mostly-zero window matrix beyond the reference cap: the distinct
    # reference rows with their copies count as the subsample itself
    config = EngineConfig()
    values = sparse_series(3000 + 14, 3, rate=0.02)
    rows = np.lib.stride_tricks.sliding_window_view(values, 15)
    payload = ensemble._fit_dbscan(rows, config, seed=11)
    reference = ensemble._subsample_rows(rows, config.boundary_subsample, 11)
    assert len(payload["reference"].rows) < len(reference) / 2
    assert payload["reference"].counts.sum() == len(reference)
    within = naive_sq_dists(rows, reference) <= payload["eps"] ** 2
    expected = config.dbscan_min_pts - 1 - within.sum(axis=1)
    assert np.array_equal(ensemble._score_dbscan(payload, rows), expected)


def test_fit_bank_builds_one_distinct_row_set_per_knn_dbscan_and_ae_detector(monkeypatch):
    # the kNN lag contexts, the DBSCAN reference, whose eps estimate
    # takes the same set, and the autoencoder's training windows
    fitting, built = [], {}
    of = kernels.DistinctRows.of.__func__

    def counting(cls, X):
        built[fitting[-1]] = built.get(fitting[-1], 0) + 1
        return of(cls, X)

    monkeypatch.setattr(kernels.DistinctRows, "of", classmethod(counting))
    for name in ("_fit_predictive", "_fit_row_detector"):

        def tracked(kind, *args, fit=getattr(ensemble, name)):
            fitting.append(kind)
            return fit(kind, *args)

        monkeypatch.setattr(ensemble, name, tracked)
    config = EngineConfig()
    grids = build_grids(small_stream(seed=3, duration=2 * 3600)[0], config)
    detectors, _ = ensemble.fit_bank(grids, config)
    assert len(detectors) == 41
    assert built == {"knn": 3, "dbscan": 4, "ae": 3}


@pytest.fixture(scope="module")
def one_day_bank():
    """The default bank's verdicts on a one-day dense stream, as
    ``detect_batch`` fits and scores them."""
    config = EngineConfig()
    txs, _ = synth.synth_generate(synth.SynthConfig(base_rate=6.0, seed=5))
    grids = build_grids(txs, config)
    timeline = next(iter(grids.values())).timestamps
    split = int(round(config.train_ratio * len(timeline)))
    detectors, warnings = ensemble.fit_bank(grids, config, predictive_train_cells=split)
    verdicts = ensemble.score_bank(detectors, grids, config, predictive_start=split)
    return txs, config, timeline, verdicts, warnings


@pytest.mark.parametrize(
    ("kind", "bank"), [("knn", "predictive_detectors"), ("dbscan", "clustering_detectors")]
)
def test_leaving_a_kind_out_equals_dropping_its_verdicts(one_day_bank, kind, bank):
    # each detector's seed depends only on (config seed, kind, group) and
    # no fit reads another's, so one bank's verdicts measure every subset
    txs, config, timeline, verdicts, warnings = one_day_bank
    kept = {
        group: [v for v in members if not v.detector_id.startswith(f"{kind}:")]
        for group, members in verdicts.items()
    }
    merged = merge_group_votes(kept, timeline, config.alarm_categories, warnings)
    without = dataclasses.replace(
        config, **{bank: tuple(k for k in getattr(config, bank) if k != kind)}
    )
    report = run_batch(txs, without)
    assert np.array_equal(report.alarm, merged.alarm)
    assert report.flagging_detectors == merged.flagging_detectors
    assert report.categories.keys() == merged.categories.keys()
    for name, tally in report.categories.items():
        for field in ("flagged", "total", "decision"):
            assert np.array_equal(getattr(tally, field), getattr(merged.categories[name], field))


def test_no_distance_matrix_grows_with_the_square_of_the_series(monkeypatch):
    # a refit on 2 days of cells and the batch scoring after it: every
    # distance or kernel matrix is a block of rows, at most one block's
    # entries and a lone last row against the whole series
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

    def recording(fn):
        def record(*args, **kwargs):
            out = fn(*args, **kwargs)
            sizes.append(out.size)
            return out

        return record

    monkeypatch.setattr(kernels, "sq_dists", recording(kernels.sq_dists))
    monkeypatch.setattr(kernels, "kernel_matrix", recording(kernels.kernel_matrix))
    detectors, warnings = ensemble.fit_bank(grids, config)
    assert not warnings
    split = int(round(config.train_ratio * n))
    ensemble.score_bank(detectors, grids, config, predictive_start=split)
    assert sizes
    assert max(sizes) <= kernels._BLOCK_ENTRIES + n
