"""Command-line front end: batch detection, stream replay, synthetic
data generation, metric computation, and plot-data emission.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric/fit
error. All output is deterministic given fixed seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import ensemble, evaluate, ingest, synth
from .config import EngineConfig, load_config
from .errors import DataError, FitError, NumericError
from .series import TimeSeries

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the interface
    # reserves 2 for data errors, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_transactions(path: str, keep_failed: bool) -> list[ingest.Transaction]:
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            return ingest.parse_explorer_json(fh.read(), keep_failed)
    return ingest.read_csv(path)


def _engine_config(args) -> EngineConfig:
    config = load_config(args.config) if getattr(args, "config", None) else EngineConfig()
    overrides = {}
    if getattr(args, "features", None):
        overrides["features"] = tuple(
            part.strip() for part in args.features.split(",") if part.strip()
        )
    if getattr(args, "mode", None):
        overrides["mode"] = args.mode
    if getattr(args, "window", None) is not None:
        overrides["window_duration"] = args.window
    if getattr(args, "retrain", None) is not None:
        overrides["retrain_interval"] = args.retrain
    if getattr(args, "grid", None) is not None:
        overrides["grid_step"] = args.grid
    if overrides:
        config = replace(config, **overrides)
    return config


def _alarm_line(ts, account, categories, alarm, detectors, features=None) -> str:
    record = {
        "ts": int(ts),
        "account": account,
        "categories": categories,
        "alarm": bool(alarm),
        "detectors": list(detectors),
    }
    if features is not None:
        record["features"] = features
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _report_lines(report, grids, account: str):
    """Report records; record i is cell i of the grids' timeline."""
    for i, ts in enumerate(report.timestamps):
        categories = report.categories_at(i)
        features = {name: repr(float(grid.values[i])) for name, grid in grids.items()}
        yield _alarm_line(
            ts, account, categories, report.alarm[i], report.flagging_detectors[i], features
        )


def cmd_detect_batch(args) -> int:
    config = _engine_config(args)
    # the parsed transactions are freed once the grids hold them: the
    # 35k of a 4-day dense stream are some 12 MB of objects
    grids = ensemble.batch_grids(_load_transactions(args.input, config.keep_failed), config)
    report = ensemble.detect_grids(grids, config)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        for line in _report_lines(report, grids, args.account):
            fh.write(line + "\n")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote {len(report.timestamps)} records to {args.out}")
    return EXIT_OK


def cmd_detect_stream(args) -> int:
    config = _engine_config(args)
    transactions = _load_transactions(args.input, config.keep_failed)
    grids = ensemble.build_grids(transactions, config)
    n = len(next(iter(grids.values())))
    fit_cells = min(n, config.database_span // config.grid_step)
    initial = {
        name: TimeSeries(
            grid.timestamps[:fit_cells], grid.values[:fit_cells], step=config.grid_step
        )
        for name, grid in grids.items()
    }
    engine = ensemble.engine_from_grids(initial, config, account=args.account)
    emitted = 0
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        for i in range(fit_cells, n):
            new = {
                name: TimeSeries(
                    grid.timestamps[i : i + 1],
                    grid.values[i : i + 1],
                    step=config.grid_step,
                )
                for name, grid in grids.items()
            }
            for alarm in ensemble.stream_advance(engine, new):
                fh.write(
                    _alarm_line(
                        alarm.timestamp,
                        alarm.account,
                        alarm.categories,
                        True,
                        alarm.detectors,
                    )
                    + "\n"
                )
                emitted += 1
    for warning in engine.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"replayed {n - fit_cells} advances, {emitted} alarms -> {args.out}")
    return EXIT_OK


def cmd_synth(args) -> int:
    config = synth.load_synth_config(args.config) if args.config else synth.SynthConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    transactions, labels = synth.synth_generate(config)
    ingest.write_csv(transactions, args.out)
    with open(args.labels, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp\n")
        for label in labels:
            fh.write(f"{label}\n")
    print(f"wrote {len(transactions)} transactions, {len(labels)} labels")
    return EXIT_OK


def _read_report(path):
    timestamps, alarms, categories_per_line, detectors_per_line, features = [], [], [], [], {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw)
                timestamps.append(int(record["ts"]))
                alarms.append(bool(record["alarm"]))
                categories_per_line.append(record.get("categories", {}))
                detectors_per_line.append(list(record.get("detectors", [])))
                for name, value in record.get("features", {}).items():
                    features.setdefault(name, []).append(float(value))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise DataError(f"{path}:{line_no}: bad report record: {exc}") from exc
    if not timestamps:
        raise DataError(f"{path}: empty report")
    return timestamps, alarms, categories_per_line, detectors_per_line, features


def _rebuild_report(path) -> tuple[ensemble.EnsembleReport, dict]:
    timestamps, alarms, cats, dets, features = _read_report(path)
    ts = np.array(timestamps, dtype=np.int64)
    n = len(ts)
    categories = {}
    names = sorted({name for c in cats for name in c})
    for name in names:
        flagged = np.array([c.get(name, {}).get("flagged", 0) for c in cats])
        total = np.array([c.get(name, {}).get("total", 0) for c in cats])
        decision = np.array([bool(c.get(name, {}).get("decision", False)) for c in cats])
        categories[name] = ensemble.CategoryTally(flagged, total, decision)
    report = ensemble.EnsembleReport(
        timestamps=ts,
        categories=categories,
        alarm=np.array(alarms, dtype=bool),
        flagging_detectors=dets,
    )
    step = int(np.min(np.diff(ts))) if n > 1 else 60
    grids = {
        name: TimeSeries(ts, np.array(vals), step=step if n > 1 else None)
        for name, vals in features.items()
        if len(vals) == n
    }
    return report, grids


def _read_labels(path) -> list[int]:
    labels = []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or (line_no == 1 and text.lower() == "timestamp"):
                continue
            try:
                labels.append(int(text))
            except ValueError as exc:
                raise DataError(f"{path}:{line_no}: bad label: {text!r}") from exc
    return labels


def cmd_eval(args) -> int:
    report, _ = _rebuild_report(args.report)
    labels = _read_labels(args.labels)
    metrics = evaluate.evaluate(report, labels, args.tolerance)
    print(f"true_positives={metrics.true_positives}")
    print(f"false_positives={metrics.false_positives}")
    print(f"false_negatives={metrics.false_negatives}")
    print(f"precision={metrics.precision:.4f}")
    print(f"recall={metrics.recall:.4f}")
    print(f"accuracy={metrics.accuracy:.4f}")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    report, grids = _rebuild_report(args.report)
    if not grids:
        raise DataError(
            "report carries no feature values; regenerate it with `detect batch`"
        )
    paths = evaluate.emit_plot_data(report, grids, args.out)
    print(f"wrote {len(paths)} plot files to {args.out}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="ethsentinel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="run the detector ensemble")
    dsub = detect.add_subparsers(dest="detect_mode", required=True)

    batch = dsub.add_parser("batch", help="batch detection over a transaction file")
    batch.add_argument("--input", required=True, help="transactions (.json or .csv)")
    batch.add_argument("--features", default=None, help="comma list: value,gasprice,gaslimit")
    batch.add_argument("--mode", choices=["univariate", "multivariate", "both"], default=None)
    batch.add_argument("--out", required=True, help="report JSONL path")
    batch.add_argument("--config", default=None, help="engine config file")
    batch.add_argument("--account", default="", help="account tag for alarm records")
    batch.set_defaults(func=cmd_detect_batch)

    stream = dsub.add_parser("stream", help="replay a transaction file as a stream")
    stream.add_argument("--input", required=True)
    stream.add_argument("--window", type=int, default=None, help="window seconds")
    stream.add_argument("--retrain", type=int, default=None, help="retrain interval seconds")
    stream.add_argument("--grid", type=int, default=None, help="grid step seconds")
    stream.add_argument("--out", required=True, help="alarm JSONL path")
    stream.add_argument("--config", default=None)
    stream.add_argument("--account", default="")
    stream.set_defaults(func=cmd_detect_stream)

    synth_cmd = sub.add_parser("synth", help="generate a labeled synthetic stream")
    synth_cmd.add_argument("--config", default=None, help="synth config file")
    synth_cmd.add_argument("--seed", type=int, default=None)
    synth_cmd.add_argument("--out", required=True, help="transactions CSV path")
    synth_cmd.add_argument("--labels", required=True, help="labels CSV path")
    synth_cmd.set_defaults(func=cmd_synth)

    eval_cmd = sub.add_parser("eval", help="score a report against labels")
    eval_cmd.add_argument("--report", required=True)
    eval_cmd.add_argument("--labels", required=True)
    eval_cmd.add_argument("--tolerance", type=int, default=120, help="seconds")
    eval_cmd.set_defaults(func=cmd_eval)

    plot = sub.add_parser("plotdata", help="emit per-feature plot CSVs")
    plot.add_argument("--report", required=True)
    plot.add_argument("--out", required=True, help="output directory")
    plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FitError, NumericError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
