"""Engine configuration: defaults, validation, and the flat key-value
file format."""

import math
from dataclasses import fields
from pathlib import Path

import pytest

from ethsentinel import config
from ethsentinel.config import EngineConfig, load_config, parse_config_text
from ethsentinel.errors import DataError


def test_defaults_match_design_decisions():
    cfg = EngineConfig()
    assert cfg.grid_step == 60
    assert cfg.window_duration == 300
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
    # any grid step that divides the window duration, not only those dividing 60
    assert EngineConfig(grid_step=120, window_duration=600).window_duration == 600
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
        # with no AR, MA or differencing term every arima fit would fail
        {"arima_order": (0, 0, 0)},
        {"arima_order": (0, 0, 0), "predictive_detectors": ("arima", "sarima")},
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
        # with the kind wired, every fit would fail, or select_k would
        # fit k = 2 whatever kmeans_k_max says
        {"ae_hidden": 32},
        {"ae_hidden": 40, "reduction_detectors": ("ae",)},
        {"iforest_subsample": 1},
        {"boundary_subsample": 1},
        {"boundary_subsample": 1, "clustering_detectors": ("dbscan",)},
        {"boundary_subsample": 1, "clustering_detectors": ("ocsvm",)},
        # the eps estimate takes each reference row's dbscan_min_pts - 1 nearest others
        {"boundary_subsample": 3, "clustering_detectors": ("dbscan",)},
        {"kmeans_k_max": 1},
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
    # sarima's seasonal part carries the model, and an unwired arima fits nothing
    assert EngineConfig(arima_order=(0, 0, 0), predictive_detectors=("sarima", "knn"))
    assert EngineConfig(arima_order=(0, 0, 0), mode="multivariate")
    assert EngineConfig(arima_order=(0, 1, 0), predictive_detectors=("arima",))
    # ... and an unwired kind's keys are not checked
    assert EngineConfig(ae_hidden=32, reduction_detectors=("pca",))
    assert EngineConfig(ae_hidden=32, mode="multivariate")
    assert EngineConfig(iforest_subsample=1, reduction_detectors=("pca", "ae"))
    assert EngineConfig(boundary_subsample=1, clustering_detectors=("kmeans",))
    assert EngineConfig(boundary_subsample=3, clustering_detectors=("dbscan",), dbscan_eps=0.5)
    assert EngineConfig(boundary_subsample=3, clustering_detectors=("dbscan",), dbscan_min_pts=3)
    assert EngineConfig(kmeans_k_max=1, clustering_detectors=("dbscan", "ocsvm"))
    # a fixed k needs no selection range
    assert EngineConfig(kmeans_k=3, kmeans_k_max=1)
    EngineConfig(ae_hidden=31, iforest_subsample=2, boundary_subsample=4, kmeans_k_max=2)
    EngineConfig(boundary_subsample=2, clustering_detectors=("ocsvm",))
    # zero keeps its meaning where it has one; the boundaries of the ranges hold
    EngineConfig(sarima_period=0, cart_depth=0, kmeans_k=0, seed=0, dbscan_eps=0.0)
    EngineConfig(ocsvm_nu=1.0, residual_multiplier=0.0, train_ratio=0.5, pca_explained=1.0)
    assert len(fields(EngineConfig)) == 41


def test_parse_overrides_and_types():
    cfg = parse_config_text(
        """
        # tuning
        grid_step = 30
        window_duration = 300
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
    # a window ends at every cell: there is no stride to set
    with pytest.raises(DataError, match="'window_stride'"):
        parse_config_text("window_stride = 60")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "engine.cfg"
    path.write_text("seed = 7\nocsvm_nu = 0.05\n", encoding="utf-8")
    cfg = load_config(path)
    assert cfg.seed == 7 and cfg.ocsvm_nu == 0.05


def test_only_the_config_reads_the_wiring_rule():
    # one wiring rule, EngineConfig.group_kinds: another module that names
    # UNIVARIATE_ONLY_KINDS, or a wires_* property, is a second copy of it
    texts = {path.name: path.read_text() for path in Path(config.__file__).parent.glob("*.py")}
    readers = [name for name, text in texts.items() if "UNIVARIATE_ONLY_KINDS" in text]
    assert readers == ["config.py"]
    assert not any("wires_" in text for text in texts.values())
