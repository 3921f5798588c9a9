"""Command-line interface: the five subcommands end to end on small
streams, exit-code mapping, and output determinism."""

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from ethsentinel import cli, ensemble
from ethsentinel.cli import main

SMALL_ENGINE_CFG = """
predictive_detectors = knn,cart
reduction_detectors = pca
clustering_detectors = kmeans
kmeans_k = 2
"""

EXPLORER_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "explorer_fixture.json")

SMALL_SYNTH_CFG = """
duration = 14400
base_rate = 6
seed = 11
inject = spike,12600,80
"""


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "engine.cfg").write_text(SMALL_ENGINE_CFG, encoding="utf-8")
    (tmp_path / "synth.cfg").write_text(SMALL_SYNTH_CFG, encoding="utf-8")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def test_a_bank_where_every_detector_fails_exits_3(workspace, capsys, monkeypatch):
    def fail(*args):
        raise ensemble.FitError("failed on purpose")

    for name in ("_fit_predictive", "_fit_row_detector"):
        monkeypatch.setattr(ensemble, name, fail)
    for command in ("batch", "stream"):
        assert run(
            "detect", command, "--input", EXPLORER_FIXTURE, "--config",
            workspace / "engine.cfg", "--out", workspace / "out.jsonl",
        ) == 3
        assert "every detector failed to fit" in capsys.readouterr().err


def test_full_pipeline(workspace, capsys, monkeypatch):
    ws = workspace
    assert run(
        "synth", "--config", ws / "synth.cfg", "--out", ws / "txs.csv",
        "--labels", ws / "labels.csv",
    ) == 0
    built = []
    build_grids = ensemble.build_grids

    def counting(*args):
        built.append(args)
        return build_grids(*args)

    monkeypatch.setattr(ensemble, "build_grids", counting)
    assert run(
        "detect", "batch", "--input", ws / "txs.csv", "--config", ws / "engine.cfg",
        "--out", ws / "report.jsonl", "--account", "0xabc",
    ) == 0
    assert len(built) == 1  # the report's feature values come from the detection's grids
    lines = (ws / "report.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines
    first = json.loads(lines[0])
    assert set(first) >= {"ts", "account", "categories", "alarm", "detectors"}
    assert first["account"] == "0xabc"
    for name in ("predictive", "reduction", "clustering"):
        tally = first["categories"][name]
        assert set(tally) == {"flagged", "total", "decision"}
        assert tally["decision"] == (tally["flagged"] * 2 > tally["total"])

    assert run(
        "eval", "--report", ws / "report.jsonl", "--labels", ws / "labels.csv",
        "--tolerance", 120,
    ) == 0
    out = capsys.readouterr().out
    metrics = dict(
        line.split("=") for line in out.strip().splitlines() if "=" in line
    )
    assert float(metrics["recall"]) == 1.0  # the 80x spike is found

    assert run("plotdata", "--report", ws / "report.jsonl", "--out", ws / "plots") == 0
    plots = sorted(os.listdir(ws / "plots"))
    assert len(plots) == 3  # one CSV per feature


def test_detect_stream_replay(workspace):
    ws = workspace
    run("synth", "--config", ws / "synth.cfg", "--out", ws / "txs.csv",
        "--labels", ws / "labels.csv")
    cfg = ws / "stream.cfg"
    cfg.write_text(SMALL_ENGINE_CFG + "database_span = 7200\nretrain_interval = 7200\n",
                   encoding="utf-8")
    assert run(
        "detect", "stream", "--input", ws / "txs.csv", "--config", cfg,
        "--out", ws / "alarms.jsonl",
    ) == 0
    label = int((ws / "labels.csv").read_text().splitlines()[1])
    hit = False
    for line in (ws / "alarms.jsonl").read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        assert rec["alarm"] is True
        hit = hit or abs(rec["ts"] - label) <= 120
    assert hit


def test_detect_stream_takes_a_grid_step_that_does_not_divide_60(workspace, capsys):
    # a window ends at every grid cell, so --grid needs only to divide --window
    ws = workspace
    run("synth", "--config", ws / "synth.cfg", "--out", ws / "txs.csv",
        "--labels", ws / "labels.csv")
    cfg = ws / "stream.cfg"
    cfg.write_text(SMALL_ENGINE_CFG + "database_span = 7200\n", encoding="utf-8")
    assert run(
        "detect", "stream", "--input", ws / "txs.csv", "--config", cfg,
        "--grid", 120, "--window", 600, "--out", ws / "alarms.jsonl",
    ) == 0
    # 121 cells of 120 s, the first 60 of them in the database
    assert "replayed 61 advances" in capsys.readouterr().out
    records = [json.loads(line) for line in (ws / "alarms.jsonl").read_text().splitlines()]
    assert records
    assert all(rec["alarm"] is True and rec["ts"] % 120 == 0 for rec in records)


def test_detect_stream_prints_the_engine_fit_warnings(workspace, capsys):
    # ARIMA(9,0,9) needs 190 cells, more than the 120-cell database holds,
    # so it fails on every feature at the first fit and at each retrain
    ws = workspace
    run("synth", "--config", ws / "synth.cfg", "--out", ws / "txs.csv",
        "--labels", ws / "labels.csv")
    cfg = ws / "stream.cfg"
    cfg.write_text(
        SMALL_ENGINE_CFG
        + "predictive_detectors = arima,knn\narima_order = 9,0,9\n"
        + "database_span = 7200\nretrain_interval = 3600\n",
        encoding="utf-8",
    )
    out = ws / "alarms.jsonl"
    assert run("detect", "stream", "--input", ws / "txs.csv", "--config", cfg, "--out", out) == 0
    captured = capsys.readouterr()
    assert "replayed 121 advances" in captured.out
    warnings = captured.err.splitlines()
    assert all(line.startswith("warning: ") for line in warnings)
    assert all("arima:" in line and "fit failed" in line for line in warnings)
    # 3 features at the first fit, then at each of the 2 retrains in 121 cells
    assert len(warnings) == 9
    assert sum(line.startswith("warning: retrain at ") for line in warnings) == 6


def test_keep_failed_key_drops_failed_records(workspace):
    ws = workspace
    with open(EXPLORER_FIXTURE, encoding="utf-8") as fh:
        failed = [int(r["timeStamp"]) for r in json.load(fh)["result"] if r["isError"] == "1"]
    assert len(failed) == 2
    cells = {t - t % 60 for t in failed}  # the fixture has nothing else in these cells
    values = {}
    for keep in ("yes", "no"):
        cfg = ws / f"keep_{keep}.cfg"
        cfg.write_text(SMALL_ENGINE_CFG + f"keep_failed = {keep}\n", encoding="utf-8")
        out = ws / f"report_{keep}.jsonl"
        assert run(
            "detect", "batch", "--input", EXPLORER_FIXTURE, "--config", cfg, "--out", out
        ) == 0
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        values[keep] = [float(r["features"]["value"]) for r in records if r["ts"] in cells]
    assert len(values["yes"]) == 2 and all(v > 0.0 for v in values["yes"])
    assert values["no"] == [0.0, 0.0]


def test_detect_batch_frees_the_transactions_before_the_fit(workspace, monkeypatch):
    # the grids hold what the fit needs; the parsed list is not kept beside them
    firsts, alive = [], []
    load, detect = cli._load_transactions, ensemble.detect_grids

    def loading(*args):
        transactions = load(*args)
        firsts.append(weakref.ref(transactions[0]))
        return transactions

    def detecting(grids, config):
        alive.append(firsts[0]() is not None)
        return detect(grids, config)

    monkeypatch.setattr(cli, "_load_transactions", loading)
    monkeypatch.setattr(ensemble, "detect_grids", detecting)
    assert run(
        "detect", "batch", "--input", EXPLORER_FIXTURE, "--config", workspace / "engine.cfg",
        "--out", workspace / "report.jsonl",
    ) == 0
    assert alive == [False]


def test_synth_determinism(workspace):
    ws = workspace
    for tag in ("a", "b"):
        run("synth", "--config", ws / "synth.cfg", "--seed", 5,
            "--out", ws / f"txs_{tag}.csv", "--labels", ws / f"labels_{tag}.csv")
    assert (ws / "txs_a.csv").read_bytes() == (ws / "txs_b.csv").read_bytes()
    assert (ws / "labels_a.csv").read_bytes() == (ws / "labels_b.csv").read_bytes()


def test_exit_codes(workspace, capsys):
    ws = workspace
    # usage errors -> 1
    assert run("detect") == 1
    assert run("no-such-command") == 1
    assert run("eval", "--report") == 1
    # data errors -> 2
    assert run(
        "detect", "batch", "--input", ws / "missing.csv", "--out", ws / "r.jsonl"
    ) == 2
    bad = ws / "bad.json"
    bad.write_text("{broken", encoding="utf-8")
    assert run("detect", "batch", "--input", bad, "--out", ws / "r.jsonl") == 2
    empty = ws / "empty_labels.csv"
    empty.write_text("timestamp\nnot-a-number\n", encoding="utf-8")
    report = ws / "tiny_report.jsonl"
    report.write_text(
        '{"ts":0,"account":"","categories":{},"alarm":false,"detectors":[]}\n',
        encoding="utf-8",
    )
    assert run("eval", "--report", report, "--labels", empty) == 2
    # a config naming an unknown feature or category
    assert run(
        "detect", "batch", "--input", EXPLORER_FIXTURE, "--features", "value,gasprize",
        "--out", ws / "r.jsonl",
    ) == 2
    typo = ws / "typo.cfg"
    typo.write_text(SMALL_ENGINE_CFG + "alarm_categories = predictve\n", encoding="utf-8")
    assert run(
        "detect", "batch", "--input", EXPLORER_FIXTURE, "--config", typo, "--out", ws / "r.jsonl"
    ) == 2
    # a kind listed twice, an alarm category with no detectors to vote
    # (also once mode applies), a config that wires no detector, or an
    # arima detector whose order has no term
    for extra in (
        "predictive_detectors = knn,knn",
        "alarm_categories = clustering\nclustering_detectors =",
        "alarm_categories = predictive\nmode = multivariate",
        "alarm_categories = reduction\nreduction_detectors = ae\nmode = multivariate",
        "mode = multivariate\nfeatures = value",
        "predictive_detectors = arima\narima_order = 0,0,0",
    ):
        skewed = ws / "skewed.cfg"
        skewed.write_text(SMALL_ENGINE_CFG + extra + "\n", encoding="utf-8")
        assert run(
            "detect", "batch", "--input", EXPLORER_FIXTURE, "--config", skewed,
            "--out", ws / "r.jsonl",
        ) == 2
    capsys.readouterr()


def test_package_import_loads_only_the_stdlib_and_numpy():
    # batch setup time is a fresh interpreter importing the package, so
    # a top-level import of any other library would add to it
    src = Path(ensemble.__file__).parents[1]
    code = (
        "import sys; before = set(sys.modules); "
        f"sys.path.insert(0, {str(src)!r}); "
        "from ethsentinel import cli, ensemble, evaluate, ingest, synth; "
        "print(*sorted({name.partition('.')[0] for name in set(sys.modules) - before}))"
    )
    run = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    loaded = set(run.stdout.split())
    assert {"ethsentinel", "numpy"} <= loaded
    assert loaded <= {*sys.stdlib_module_names, "ethsentinel", "numpy"}, loaded
