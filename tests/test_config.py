"""Engine configuration: defaults, validation, and the flat key-value
file format."""

import math
from dataclasses import fields

import pytest

from ethsentinel.config import EngineConfig, load_config, parse_config_text
from ethsentinel.errors import DataError


def test_defaults_match_design_decisions():
    cfg = EngineConfig()
    assert cfg.grid_step == 60
    assert cfg.window_duration == 300 and cfg.window_stride == 60
    assert cfg.train_ratio == 0.7
    assert cfg.database_span == 4 * 86400 == cfg.retrain_interval
    assert cfg.residual_multiplier == 3.0
    assert cfg.features == ("value", "gasprice", "gaslimit")
    assert len(cfg.predictive_detectors) == 6
    assert len(cfg.reduction_detectors) == 3
    assert len(cfg.clustering_detectors) == 3


def test_validation():
    with pytest.raises(DataError):
        EngineConfig(mode="sideways")
    with pytest.raises(DataError):
        EngineConfig(window_duration=301)  # not a multiple of the grid step
    with pytest.raises(DataError):
        EngineConfig(window_vote="most")
    with pytest.raises(DataError):
        EngineConfig(predictive_detectors=("lstm",))
    for vote in ("any", "majority", "all"):
        assert EngineConfig(window_vote=vote).window_vote == vote
    for bad in (
        {"residual_multiplier": math.nan},
        {"residual_multiplier": math.inf},
        {"residual_multiplier": -1.0},
        {"iforest_cutoff": -math.inf},
        {"ocsvm_nu": 5.0},
        {"ocsvm_nu": 0.0},
        {"train_ratio": 1.5},
        {"train_ratio": 0.0},
        {"train_ratio": 1.0},
        {"grid_step": 0},
        {"grid_step": -60},
        {"knn_k": 0},
        {"iforest_trees": 0},
        {"sarima_period": -1},
        {"seed": -1},
        {"pca_explained": 0.0},
        {"pca_explained": 5.0},
        {"kridge_lambda": 0.0},
        {"kridge_lambda": -1.0},
        {"dbscan_eps": -1.0},
        {"dbscan_eps_scale": 0.0},
        {"ae_learning_rate": 0.0},
        {"ae_learning_rate": -0.01},
        {"features": ("value", "gasprize")},
        {"features": ()},
        {"alarm_categories": ("predictve",)},
        {"arima_order": (1, 1)},
        {"arima_order": (1, -1, 1)},
        # a kind listed twice would fit twins under one id that both vote
        {"predictive_detectors": ("knn", "knn")},
        {"reduction_detectors": ("pca", "iforest", "pca")},
        {"clustering_detectors": ("ocsvm", "ocsvm")},
        # a category that decides the alarm must have detectors to vote
        {"alarm_categories": ("clustering",), "clustering_detectors": ()},
        {"alarm_categories": ("reduction", "predictive"), "predictive_detectors": ()},
        # ... also once mode and features are applied: predictive kinds
        # and the autoencoder fit no multivariate rows
        {"alarm_categories": ("predictive",), "mode": "multivariate"},
        {
            "alarm_categories": ("reduction",),
            "reduction_detectors": ("ae",),
            "mode": "multivariate",
        },
        # a config must wire some detector
        {"predictive_detectors": (), "reduction_detectors": (), "clustering_detectors": ()},
        {"mode": "multivariate", "features": ("value",)},
        {"mode": "multivariate", "reduction_detectors": ("ae",), "clustering_detectors": ()},
    ):
        with pytest.raises(DataError):
            EngineConfig(**bad)
    with pytest.raises(DataError):
        parse_config_text("residual_multiplier = nan")
    with pytest.raises(DataError):
        parse_config_text("alarm_categories = predictve")
    with pytest.raises(DataError):
        parse_config_text("arima_order = 1,1")
    assert EngineConfig(alarm_categories=("reduction",), features=("gaslimit",))
    assert EngineConfig(alarm_categories=("reduction",), clustering_detectors=())
    assert EngineConfig(
        alarm_categories=("reduction",), reduction_detectors=("ae", "pca"), mode="multivariate"
    )
    assert EngineConfig(mode="univariate", features=("value",))
    # zero keeps its meaning where it has one; the boundaries of the ranges hold
    EngineConfig(sarima_period=0, cart_depth=0, kmeans_k=0, seed=0, dbscan_eps=0.0)
    EngineConfig(ocsvm_nu=1.0, residual_multiplier=0.0, train_ratio=0.5, pca_explained=1.0)
    assert len(fields(EngineConfig)) == 43


def test_parse_overrides_and_types():
    cfg = parse_config_text(
        """
        # tuning
        grid_step = 30
        window_duration = 300
        window_stride = 30
        train_ratio = 0.8
        features = value,gasprice
        predictive_detectors = arima,knn
        arima_order = 2,0,1
        keep_failed = no
        """
    )
    assert cfg.grid_step == 30
    assert cfg.train_ratio == 0.8
    assert cfg.features == ("value", "gasprice")
    assert cfg.predictive_detectors == ("arima", "knn")
    assert cfg.arima_order == (2, 0, 1)
    assert cfg.keep_failed is False


def test_parse_rejects_unknown_and_malformed():
    with pytest.raises(DataError):
        parse_config_text("no_such_key = 1")
    with pytest.raises(DataError):
        parse_config_text("grid_step 60")
    with pytest.raises(DataError):
        parse_config_text("grid_step = sixty")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("seed = 7\nocsvm_nu = 0.05\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.seed == 7 and cfg.ocsvm_nu == 0.05
