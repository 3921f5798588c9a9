"""Alarm-versus-label scoring and plot-data emission.

Consecutive flagged grid cells (up to a tolerance-sized gap) coalesce
into one alarm event; events then match labels one-to-one, greedily in
time order, within the tolerance. Accuracy is a cell-level confusion
count so it stays comparable to per-sample accuracy figures.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleReport
from .errors import DataError


@dataclass(frozen=True)
class EvalMetrics:
    true_positives: int
    false_positives: int
    false_negatives: int
    precision: float
    recall: float
    accuracy: float
    match_tolerance: int  # seconds

    def __post_init__(self):
        tp, fp, fn = self.true_positives, self.false_positives, self.false_negatives
        if min(tp, fp, fn) < 0:
            raise DataError("confusion counts must be non-negative")


def alarm_events(
    timestamps: np.ndarray, alarm: np.ndarray, merge_gap: int = 0
) -> list[tuple[int, int]]:
    """Coalesce flagged cells into (start, end) events (end inclusive).

    Flagged cells separated by an unflagged stretch of at most
    ``merge_gap`` seconds join the same event; adjacent flagged cells
    (no unflagged stretch) always join.
    """
    ts = np.asarray(timestamps)
    diffs = np.diff(ts)
    step = int(diffs.min()) if len(diffs) else 1
    events: list[tuple[int, int]] = []
    for t, flagged in zip(ts, alarm):
        if not flagged:
            continue
        t = int(t)
        # unflagged stretch between cell ends: t - last_end - step
        if events and t - events[-1][1] - step <= merge_gap:
            events[-1] = (events[-1][0], t)
        else:
            events.append((t, t))
    return events


def _interval_distance(event: tuple[int, int], label: int) -> int:
    start, end = event
    if label < start:
        return start - label
    if label > end:
        return label - end
    return 0


def evaluate(report: EnsembleReport, labels, match_tolerance: int) -> EvalMetrics:
    """Score a report against injected-anomaly timestamps.

    Greedy one-to-one matching in time order: each alarm event takes
    the earliest unmatched label within ±tolerance. Unmatched events
    are false positives, unmatched labels false negatives.
    """
    if match_tolerance < 0:
        raise DataError("match tolerance must be non-negative")
    labels = sorted(int(x) for x in labels)
    events = alarm_events(report.timestamps, report.alarm, merge_gap=match_tolerance)
    matched = np.zeros(len(labels), dtype=bool)
    tp = 0
    for event in events:
        for i, label in enumerate(labels):
            if matched[i]:
                continue
            if _interval_distance(event, label) <= match_tolerance:
                matched[i] = True
                tp += 1
                break
    fp = len(events) - tp
    fn = len(labels) - tp
    precision = 1.0 if (tp + fp) == 0 else tp / (tp + fp)
    recall = 1.0 if (tp + fn) == 0 else tp / (tp + fn)

    # cell-level confusion: a cell is truly anomalous when it lies
    # within the tolerance of some label
    ts = report.timestamps.astype(np.int64)
    truth = np.zeros(len(ts), dtype=bool)
    for label in labels:
        truth |= np.abs(ts - label) <= match_tolerance
    correct = int(np.sum(report.alarm == truth))
    accuracy = correct / len(ts) if len(ts) else 1.0
    return EvalMetrics(
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        precision=precision,
        recall=recall,
        accuracy=accuracy,
        match_tolerance=match_tolerance,
    )


def emit_plot_data(report: EnsembleReport, grids: dict, out_dir: str) -> list[str]:
    """One CSV per feature: timestamp, value, per-detector flags,
    per-category decisions, final alarm. Row i of a grid is record i of
    the report. Returns the written paths."""
    n = len(report.timestamps)
    for name, grid in grids.items():
        if len(grid) != n:
            raise DataError(f"grid {name!r} has {len(grid)} cells for {n} report records")
    detector_ids = sorted({d for ids in report.flagging_detectors for d in ids})
    category_names = list(report.categories)
    flag_sets = [frozenset(ids) for ids in report.flagging_detectors]
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, grid in grids.items():
        path = os.path.join(out_dir, f"{name}.csv")
        header = (
            ["timestamp", "value"]
            + detector_ids
            + [f"category_{c}" for c in category_names]
            + ["alarm"]
        )
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(",".join(header) + "\n")
                for i, (t, v) in enumerate(zip(grid.timestamps, grid.values)):
                    flags = ["1" if d in flag_sets[i] else "0" for d in detector_ids]
                    cats = [
                        "1" if report.categories[c].decision[i] else "0"
                        for c in category_names
                    ]
                    alarm = "1" if report.alarm[i] else "0"
                    row = [str(int(t)), repr(float(v))] + flags + cats + [alarm]
                    fh.write(",".join(row) + "\n")
        except OSError as exc:
            raise DataError(f"cannot write plot data to {path}: {exc}") from exc
        paths.append(path)
    return paths
