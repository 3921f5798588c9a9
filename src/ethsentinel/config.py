"""Engine configuration: every tunable default lives here, loadable
from a flat key-value text file (``key = value`` per line, ``#``
comments)."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields, replace

from .errors import DataError
from .ingest import FeatureKind
from .predictive import ArimaOrder

UNIVARIATE = "univariate"
MULTIVARIATE = "multivariate"
BOTH = "both"

PREDICTIVE_KINDS = ("arima", "sarima", "stl", "knn", "cart", "kridge")
REDUCTION_KINDS = ("pca", "iforest", "ae")
CLUSTERING_KINDS = ("kmeans", "dbscan", "ocsvm")
# kinds fitted on each feature's grid alone, never on the per-cell
# feature rows: the predictive kinds forecast one series, and the
# autoencoder has its own window length
UNIVARIATE_ONLY_KINDS = (*PREDICTIVE_KINDS, "ae")


class DetectorCategory(enum.Enum):
    PREDICTIVE = "predictive"
    REDUCTION = "reduction"
    CLUSTERING = "clustering"


# integer keys where 0 is meaningful (estimate, a root-only tree, the
# first seed); every other integer key counts something and must be >= 1
_ZERO_ALLOWED = ("sarima_period", "cart_depth", "kmeans_k", "seed")


@dataclass(frozen=True)
class EngineConfig:
    # series construction
    grid_step: int = 60
    window_duration: int = 300  # a window of this span ends at every cell
    window_vote: str = "all"  # point flag rule over covering windows
    train_ratio: float = 0.7
    # streaming
    database_span: int = 345600  # 4 days
    retrain_interval: int = 345600
    # features / wiring
    features: tuple[str, ...] = ("value", "gasprice", "gaslimit")
    mode: str = BOTH
    predictive_detectors: tuple[str, ...] = PREDICTIVE_KINDS
    reduction_detectors: tuple[str, ...] = REDUCTION_KINDS
    clustering_detectors: tuple[str, ...] = CLUSTERING_KINDS
    alarm_categories: tuple[str, ...] = ()  # empty: OR over all categories
    # predictive bank
    residual_multiplier: float = 3.0
    arima_order: tuple[int, int, int] = (1, 1, 1)
    sarima_period: int = 0  # 0: estimate, fall back to one day
    knn_lags: int = 5
    knn_k: int = 5
    cart_lags: int = 5
    cart_depth: int = 6
    cart_min_leaf: int = 5
    kridge_lags: int = 5
    kridge_lambda: float = 1.0
    # reduction bank
    pca_explained: float = 0.90
    iforest_trees: int = 100
    iforest_subsample: int = 256
    iforest_cutoff: float = 0.6
    ae_window: int = 32
    ae_hidden: int = 8
    ae_epochs: int = 200
    ae_learning_rate: float = 0.01
    # clustering bank
    kmeans_k: int = 0  # 0: silhouette selection over 2..10
    kmeans_k_max: int = 10
    kmeans_restarts: int = 4
    dbscan_eps: float = 0.0  # 0: k-distance heuristic
    dbscan_eps_scale: float = 1.5  # headroom over the heuristic (auto mode only)
    dbscan_min_pts: int = 4
    ocsvm_nu: float = 0.02
    fit_subsample: int = 512  # row cap for the cubic-cost kernel ridge fit
    boundary_subsample: int = 2048  # row cap for OCSVM / DBSCAN references
    # misc
    keep_failed: bool = True
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise DataError(f"{f.name} must be finite, got {value!r}")
            least = 0 if f.name in _ZERO_ALLOWED else 1
            if f.type == "int" and value < least:
                raise DataError(f"{f.name} must be at least {least}")
        if not 0.0 < self.train_ratio < 1.0:
            raise DataError("train_ratio must lie in (0, 1)")
        if not 0.0 < self.ocsvm_nu <= 1.0:
            raise DataError("ocsvm_nu must lie in (0, 1]")
        if self.residual_multiplier < 0.0:
            raise DataError("residual_multiplier must not be negative")
        if not 0.0 < self.pca_explained <= 1.0:
            raise DataError("pca_explained must lie in (0, 1]")
        if self.dbscan_eps < 0.0:
            raise DataError("dbscan_eps must not be negative (0 estimates it)")
        for name in ("kridge_lambda", "dbscan_eps_scale", "ae_learning_rate"):
            if getattr(self, name) <= 0.0:
                raise DataError(f"{name} must be positive")
        if not self.features:
            raise DataError("features must name at least one feature")
        for name in self.features:
            _member(FeatureKind, name, "feature")
        for name in self.alarm_categories:
            _member(DetectorCategory, name, "alarm category")
        order = self.arima_order
        if len(order) != 3 or not all(isinstance(x, int) and x >= 0 for x in order):
            raise DataError(f"arima_order must be three non-negative ints, got {order!r}")
        if self.mode not in (UNIVARIATE, MULTIVARIATE, BOTH):
            raise DataError(f"unknown mode {self.mode!r}")
        if self.window_duration % self.grid_step:
            raise DataError("window duration must be a multiple of the grid step")
        if self.window_vote not in ("any", "majority", "all"):
            raise DataError(f"unknown window vote rule {self.window_vote!r}")
        banks = {
            DetectorCategory.PREDICTIVE: (self.predictive_detectors, PREDICTIVE_KINDS),
            DetectorCategory.REDUCTION: (self.reduction_detectors, REDUCTION_KINDS),
            DetectorCategory.CLUSTERING: (self.clustering_detectors, CLUSTERING_KINDS),
        }
        for category, (names, kinds) in banks.items():
            for name in names:
                if name not in kinds:
                    raise DataError(f"unknown {category.value} detector {name!r}")
            # twins would fit under one detector id and both vote
            if len(set(names)) < len(names):
                raise DataError(f"{category.value}_detectors lists a detector twice: {names!r}")

        wired = set().union(*self.group_kinds())
        if not wired:
            raise DataError(f"mode {self.mode!r} with features {self.features!r} wires no detector")
        if "arima" in wired:
            # sarima's seasonal part carries its model whatever the order
            try:
                ArimaOrder(*order)
            except DataError as exc:
                raise DataError(f"arima_order {order!r} gives arima no model: {exc}") from None
        for name in self.alarm_categories:
            if wired.isdisjoint(banks[DetectorCategory(name)][0]):
                raise DataError(
                    f"alarm category {name!r} has no detectors to vote in mode {self.mode!r}"
                )

    def group_kinds(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The bank's wiring: (the kinds fitted on each feature's grid,
        the kinds fitted on the per-cell feature rows), in bank order. A
        tuple is empty where ``mode`` wires no such group; one feature
        makes no feature rows."""
        row_kinds = (*self.clustering_detectors, *self.reduction_detectors)
        grid_kinds = (*self.predictive_detectors, *row_kinds)
        multi = self.mode in (MULTIVARIATE, BOTH) and len(self.features) > 1
        return (
            grid_kinds if self.mode in (UNIVARIATE, BOTH) else (),
            tuple(k for k in row_kinds if k not in UNIVARIATE_ONLY_KINDS) if multi else (),
        )


def _member(kind: type[enum.Enum], name: str, what: str) -> None:
    try:
        kind(name)
    except ValueError:
        known = ", ".join(member.value for member in kind)
        raise DataError(f"unknown {what} {name!r}; expected one of {known}") from None


def _parse_value(text: str, annotation):
    text = text.strip()
    if annotation == "int":
        return int(text)
    if annotation == "float":
        return float(text)
    if annotation == "bool":
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
        raise DataError(f"not a boolean: {text!r}")
    if annotation.startswith("tuple[int"):
        return tuple(int(part) for part in text.split(",") if part.strip())
    if annotation.startswith("tuple[str"):
        return tuple(part.strip() for part in text.split(",") if part.strip())
    return text


def _key_value_lines(text: str, what: str):
    """(line number, key, value) of each ``key = value`` line, with ``#``
    comments and blank lines skipped; key and value are stripped. A line
    without ``=`` raises, its message prefixed "<what> line N"."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{what} line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        yield line_no, key.strip(), value.strip()


def parse_config_text(text: str, base: EngineConfig | None = None) -> EngineConfig:
    """Build a config from flat ``key = value`` lines over the defaults."""
    base = base if base is not None else EngineConfig()
    known = {f.name: f for f in fields(EngineConfig)}
    overrides = {}
    for line_no, key, value in _key_value_lines(text, "config"):
        if key not in known:
            raise DataError(f"config line {line_no}: unknown key {key!r}")
        annotation = known[key].type
        try:
            overrides[key] = _parse_value(value, annotation)
        except ValueError as exc:
            raise DataError(f"config line {line_no}: {exc}") from exc
    return replace(base, **overrides)


def load_config(path, base: EngineConfig | None = None) -> EngineConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base)
