"""Seeded synthetic transaction streams with labeled injected anomalies.

The baseline is a Poisson arrival process with log-normal payment
amounts and positively correlated gas price / gas limit noise. Four
injection kinds cover the pointwise / collective / contextual anomaly
taxonomy: a single multiplied payment (Spike), a one-minute arrival
flood (Burst), a persistent level shift (TrendBreak), and a gas-price
perturbation that breaks the gas correlation (GasDecouple).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .config import _key_value_lines
from .errors import DataError
from .ingest import WEI_PER_ETHER, WEI_PER_GWEI, Transaction

SPIKE = "spike"
BURST = "burst"
TREND_BREAK = "trendbreak"
GAS_DECOUPLE = "gasdecouple"

INJECTION_KINDS = (SPIKE, BURST, TREND_BREAK, GAS_DECOUPLE)


@dataclass(frozen=True)
class Injection:
    kind: str
    at: int  # seconds from the start of the stream
    magnitude: float

    def __post_init__(self):
        if self.kind not in INJECTION_KINDS:
            raise DataError(f"unknown injection kind {self.kind!r}")
        if self.magnitude <= 0:
            raise DataError("injection magnitude must be positive")
        if self.at < 0:
            raise DataError("injection timestamp must be non-negative")


@dataclass(frozen=True)
class SynthConfig:
    duration: int = 86400  # seconds
    base_rate: float = 4.0  # expected transactions per minute
    rate_amplitude: float = 0.0  # relative daily sinusoid on the arrival rate
    value_mu: float = 0.0  # log-normal parameters, amounts in ether
    value_sigma: float = 0.25
    gas_price_gwei: float = 20.0
    gas_price_noise: float = 0.05  # relative noise level
    gas_limit: float = 21000.0
    gas_limit_noise: float = 0.02
    gas_correlation: float = 0.8  # weight of the shared gas noise factor
    start_time: int = 1_600_000_000
    injections: tuple[Injection, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.duration <= 0:
            raise DataError("duration must be positive")
        if self.base_rate <= 0:
            raise DataError("base_rate must be positive")
        if not 0.0 <= self.rate_amplitude < 1.0:
            raise DataError("rate_amplitude must lie in [0, 1)")
        if self.value_sigma < 0 or self.gas_price_noise < 0 or self.gas_limit_noise < 0:
            raise DataError("noise levels must be non-negative")
        if not 0.0 <= self.gas_correlation <= 1.0:
            raise DataError("gas_correlation must lie in [0, 1]")
        for inj in self.injections:
            if inj.at >= self.duration:
                raise DataError("injection timestamps must fall within the duration")


def _gas_pair(config: SynthConfig, shared, own_price, own_limit):
    """Positively correlated gas price (wei) and gas limit draws."""
    w = config.gas_correlation
    price_noise = config.gas_price_noise * (w * shared + (1 - w) * own_price)
    limit_noise = config.gas_limit_noise * (w * shared + (1 - w) * own_limit)
    price = config.gas_price_gwei * WEI_PER_GWEI * (1.0 + price_noise)
    limit = config.gas_limit * (1.0 + limit_noise)
    return max(int(price), 1), max(int(limit), 1)


def synth_generate(config: SynthConfig) -> tuple[list[Transaction], list[int]]:
    """Return (transactions sorted by (timestamp, hash), label timestamps).

    Labels are exactly the injected events' absolute timestamps — one
    per injection, nothing else.
    """
    rng = np.random.default_rng(config.seed)
    records = []  # mutable [timestamp, value, gas_price, gas_limit]
    t = float(config.start_time)
    end = config.start_time + config.duration
    while True:
        # inhomogeneous Poisson via a rate evaluated at the current time
        phase = 2.0 * np.pi * (t % 86400.0) / 86400.0
        rate = config.base_rate * (1.0 + config.rate_amplitude * np.sin(phase))
        t += rng.exponential(60.0 / rate)
        ts = int(t)
        if ts >= end:
            break
        value = int(rng.lognormal(config.value_mu, config.value_sigma) * WEI_PER_ETHER)
        shared = rng.standard_normal()
        price, limit = _gas_pair(
            config, shared, rng.standard_normal(), rng.standard_normal()
        )
        records.append([ts, value, price, limit])
    if not records:
        raise DataError("no transactions generated; raise base_rate or duration")

    labels = []
    for inj in config.injections:
        at = config.start_time + inj.at
        labels.append(at)
        if inj.kind == SPIKE:
            # multiply the payment of the transaction closest in time
            nearest = min(range(len(records)), key=lambda i: abs(records[i][0] - at))
            records[nearest][1] = int(records[nearest][1] * inj.magnitude)
        elif inj.kind == BURST:
            count = max(1, int(round(inj.magnitude * config.base_rate)))
            offsets = np.sort(rng.uniform(0.0, 60.0, size=count))
            for off in offsets:
                value = int(
                    rng.lognormal(config.value_mu, config.value_sigma) * WEI_PER_ETHER
                )
                shared = rng.standard_normal()
                price, limit = _gas_pair(
                    config, shared, rng.standard_normal(), rng.standard_normal()
                )
                records.append([min(at + int(off), end - 1), value, price, limit])
        elif inj.kind == TREND_BREAK:
            for rec in records:
                if rec[0] >= at:
                    rec[1] = int(rec[1] * inj.magnitude)
        elif inj.kind == GAS_DECOUPLE:
            # gas price alone moves for one minute; the limit stays put,
            # breaking the baseline correlation
            for rec in records:
                if at <= rec[0] < at + 60:
                    rec[2] = int(rec[2] * inj.magnitude)

    records.sort(key=lambda rec: rec[0])
    txs = [
        Transaction(
            timestamp=ts,
            hash=f"0x{i:08x}",
            from_address="0xsynthsender",
            to_address="0xsynthreceiver",
            value=value,
            gas_price=price,
            gas_limit=limit,
        )
        for i, (ts, value, price, limit) in enumerate(records)
    ]
    txs.sort(key=lambda tx: (tx.timestamp, tx.hash))
    return txs, sorted(labels)


# ---------------------------------------------------------------------------
# flat key-value config files (`inject` may repeat: kind,at,magnitude)


def parse_synth_config(text: str, base: SynthConfig | None = None) -> SynthConfig:
    base = base if base is not None else SynthConfig()
    known = {f.name: f for f in fields(SynthConfig)}
    overrides: dict = {}
    injections = list(base.injections)
    injections_reset = False
    for line_no, key, value in _key_value_lines(text, "synth config"):
        try:
            if key == "inject":
                parts = [p.strip() for p in value.split(",")]
                if len(parts) != 3:
                    raise DataError(
                        f"synth config line {line_no}: inject needs kind,at,magnitude"
                    )
                if not injections_reset:
                    injections = []  # file-specified injections replace defaults
                    injections_reset = True
                injections.append(
                    Injection(parts[0].lower(), int(parts[1]), float(parts[2]))
                )
            elif key in ("duration", "start_time", "seed"):
                overrides[key] = int(value)
            elif key in known:
                overrides[key] = float(value)
            else:
                raise DataError(f"synth config line {line_no}: unknown key {key!r}")
        except ValueError as exc:
            raise DataError(f"synth config line {line_no}: {exc}") from exc
    return replace(base, injections=tuple(injections), **overrides)


def load_synth_config(path, base: SynthConfig | None = None) -> SynthConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_synth_config(fh.read(), base)
