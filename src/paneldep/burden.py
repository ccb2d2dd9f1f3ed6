"""Disease-burden accounting over opaque age bands.

Years of life lost weight deaths by residual life expectancy; years lived
with disability weight prevalence by severity; their sum is the combined
burden. Bands are plain labels, never parsed or compared numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import (
    DomainError,
    MissingBandError,
    MissingWeightError,
    NormalizationError,
    ParseError,
)
from .panel import _csv_records, _parse_number

WEIGHT_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class LifeTable:
    """Residual life expectancy (years) per age band."""

    entries: Mapping[str, float]

    def __post_init__(self):
        for band, le in self.entries.items():
            if le < 0:
                raise DomainError(f"life expectancy for band {band!r} is negative")

    def expectancy(self, band: str) -> float:
        try:
            return self.entries[band]
        except KeyError:
            raise MissingBandError(
                f"age band {band!r} missing from life table"
            ) from None


@dataclass(frozen=True)
class DisabilityWeights:
    """Severity weights in [0, 1] keyed by (condition, age band)."""

    entries: Mapping[tuple[str, str], float]

    def __post_init__(self):
        for key, w in self.entries.items():
            if not 0.0 <= w <= 1.0:
                raise DomainError(f"weight for {key!r} is {w}, outside [0, 1]")

    def weight(self, condition: str, band: str) -> float:
        try:
            return self.entries[(condition, band)]
        except KeyError:
            raise MissingWeightError(
                f"no disability weight for condition {condition!r}, band {band!r}"
            ) from None

    def conditions(self) -> tuple[str, ...]:
        seen: list[str] = []
        for condition, _ in self.entries:
            if condition not in seen:
                seen.append(condition)
        return tuple(seen)


@dataclass(frozen=True)
class BurdenInput:
    """Death and prevalence counts per age band for one condition."""

    deaths: Mapping[str, float]
    prevalence: Mapping[str, float]

    def __post_init__(self):
        for name, counts in (("deaths", self.deaths), ("prevalence", self.prevalence)):
            for band, c in counts.items():
                if c < 0:
                    raise DomainError(f"{name} count for band {band!r} is negative")


@dataclass(frozen=True)
class BurdenSummary:
    yll: float
    yld: float
    daly: float

    def __post_init__(self):
        if self.yll < 0 or self.yld < 0:
            raise DomainError("burden components must be non-negative")
        if self.daly != self.yll + self.yld:
            raise DomainError("combined burden must equal yll + yld exactly")


def compute_yll(deaths: Mapping[str, float], table: LifeTable) -> float:
    """Sum of deaths times residual life expectancy over the given bands."""
    total = 0.0
    for band, d in deaths.items():
        if d < 0:
            raise DomainError(f"deaths for band {band!r} is negative")
        total += d * table.expectancy(band)
    return _finite("YLL", total)


def compute_yld(prevalence: Mapping[str, float], weights: DisabilityWeights,
                condition: str) -> float:
    """Sum of prevalence times severity weight over the given bands."""
    total = 0.0
    for band, p in prevalence.items():
        if p < 0:
            raise DomainError(f"prevalence for band {band!r} is negative")
        total += p * weights.weight(condition, band)
    return _finite("YLD", total)


def compute_daly(yll: float, yld: float) -> BurdenSummary:
    if yll < 0 or yld < 0:
        raise DomainError("yll and yld must be non-negative")
    return BurdenSummary(yll=yll, yld=yld, daly=_finite("DALY", yll + yld))


def age_standardize(rates: Mapping[str, float],
                    weights: Mapping[str, float]) -> float:
    """Weighted average of band rates against a standard population.

    Weights must cover every rate band and sum to one (within 1e-9).
    """
    total_w = sum(weights.values())
    if abs(total_w - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise NormalizationError(
            f"standard-population weights sum to {total_w!r}, expected 1"
        )
    result = 0.0
    for band, rate in rates.items():
        if band not in weights:
            raise MissingBandError(f"no standard-population weight for band {band!r}")
        result += rate * weights[band]
    return _finite("age-standardized rate", result)


def _finite(name: str, total: float) -> float:
    """``total``, or a DomainError when the sum that made it overflowed."""
    if not math.isfinite(total):
        raise DomainError(f"{name} is {total}: the inputs overflow a float")
    return total


def band_rates(inputs: BurdenInput, table: LifeTable,
               weights: DisabilityWeights, condition: str) -> dict[str, float]:
    """Combined burden per band, deaths x expectancy plus prevalence x weight.

    Bands are every band of either count, in sorted order; a band absent
    from one count contributes nothing from it.
    """
    rates: dict[str, float] = {}
    for band in sorted(set(inputs.deaths) | set(inputs.prevalence)):
        yll = (inputs.deaths[band] * table.expectancy(band)
               if band in inputs.deaths else 0.0)
        yld = (inputs.prevalence[band] * weights.weight(condition, band)
               if band in inputs.prevalence else 0.0)
        rates[band] = yll + yld
    return rates


# -- CSV inputs -------------------------------------------------------------

def _load_keyed_csv(text: str,
                    header: tuple[str, ...]) -> dict[tuple[str, ...], float]:
    """CSV with the given header row: key columns, then one finite value."""
    rows = list(_csv_records(text))
    if not rows:
        raise ParseError("no header: input is empty")
    if [h.strip().lower() for h in rows[0][1]] != list(header):
        raise ParseError(f"line 1: expected header {','.join(header)!r}")
    out: dict[tuple[str, ...], float] = {}
    for line_no, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(f"line {line_no}: expected {len(header)} fields")
        key = tuple(f.strip() for f in row[:-1])
        value = _parse_number(row[-1], line_no, header[-1])
        if value is None:
            raise ParseError(f"line {line_no}: value is missing")
        if key in out:
            raise ParseError(f"line {line_no}: duplicate entry {','.join(key)!r}")
        out[key] = value
    return out


def load_band_csv(text: str) -> dict[str, float]:
    """Two-column "band,value" CSV with a header row."""
    rows = _load_keyed_csv(text, ("band", "value"))
    return {band: value for (band,), value in rows.items()}


def load_weights_csv(text: str) -> DisabilityWeights:
    """Three-column "condition,band,value" CSV with a header row."""
    return DisabilityWeights(_load_keyed_csv(text, ("condition", "band", "value")))
