"""Command-line interface: the five subcommands end to end on small
streams, exit-code mapping, and output determinism."""

import json
import os

import pytest

from ethsentinel import ensemble
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
    capsys.readouterr()
