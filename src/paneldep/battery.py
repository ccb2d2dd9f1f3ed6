"""Run the four-method battery over every (outcome, region, indicator) cell.

A matrix never fails atomically: each cell either holds a method result or
a machine-readable skip tag, and their counts always add up to the grid
size. Output order is fixed by the configuration regardless of how cells
are computed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from .errors import (
    ConfigError,
    DegenerateInputError,
    InsufficientDataError,
    InsufficientOverlapError,
    NonContiguousYearsError,
    ParseError,
    SingularDesignError,
)
from .panel import (
    BUILTIN_INDICATORS,
    DEFAULT_MIC_ALPHA,
    DEFAULT_MIC_CLUMPS,
    DEFAULT_MIN_OVERLAP,
    MIC_NORMALIZATIONS,
    STRATEGIES,
    AgeGroup,
    PanelDataset,
    age_group_of_code,
    align_pair,
    _classify_code,
)

if TYPE_CHECKING:
    from .info import MicResult, MutualInfoResult
    from .linear import PearsonResult
    from .temporal import GrangerResult

METHODS = ("pearson", "mutual_information", "granger", "mic")

SKIP_MISSING_SERIES = "missing-series"
SKIP_INSUFFICIENT_OVERLAP = "insufficient-overlap"
SKIP_DEGENERATE = "degenerate-input"
SKIP_NON_CONTIGUOUS = "non-contiguous-years"
SKIP_INSUFFICIENT_DATA = "insufficient-data"
SKIP_SINGULAR = "singular-design"

_BUILTIN_ORDER = {ind.code: i for i, ind in enumerate(BUILTIN_INDICATORS)}


@dataclass(frozen=True)
class BatteryConfig:
    """Everything a battery run depends on, echoed into every export.

    Empty outcome/indicator tuples are rejected at validation time; the
    CLI fills them from the dataset (every burden code, every other code)
    before running.
    """

    methods: tuple[str, ...] = METHODS
    outcomes: tuple[str, ...] = ()
    indicators: tuple[str, ...] = ()
    min_overlap: int = DEFAULT_MIN_OVERLAP
    max_lag: int = 5
    difference_first: bool = False
    granger_reverse: bool = False
    mi_bins: int | None = None
    mi_strategy: str = "equal-frequency"
    mic_alpha: float = DEFAULT_MIC_ALPHA
    mic_clumps: int = DEFAULT_MIC_CLUMPS
    mic_normalization: str = "min-entropy-grid"

    @classmethod
    def from_dict(cls, doc: dict) -> "BatteryConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        doc = dict(doc)
        for key in ("methods", "outcomes", "indicators"):
            if key in doc:
                if not isinstance(doc[key], list) or not all(
                        isinstance(v, str) for v in doc[key]):
                    raise ConfigError(f"{key} must be a list of strings, got {doc[key]!r}")
                doc[key] = tuple(doc[key])
        return cls(**doc)

    @classmethod
    def from_json(cls, text: str) -> "BatteryConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"config is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object of key/value pairs")
        return cls.from_dict(doc)

    def to_dict(self) -> dict:
        return {
            f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v
            for f in fields(self)
        }

    def validate(self, dataset: PanelDataset) -> None:
        """Reject bad configurations before any cell is computed."""
        if not self.methods:
            raise ConfigError("config selects no methods")
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigError(f"unknown methods {bad}; choose from {METHODS}")
        if not self.outcomes:
            raise ConfigError("config selects no outcome codes")
        if not self.indicators:
            raise ConfigError("config selects no indicator codes")
        for name in ("methods", "outcomes", "indicators"):
            values = getattr(self, name)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{name} lists {repeated} more than once")
        known = set(dataset.codes())
        missing = [c for c in (*self.outcomes, *self.indicators) if c not in known]
        if missing:
            raise ConfigError(f"codes not present in the dataset: {missing}")
        # exact types, as JSON decodes them: a bool or a float is no integer
        minima = {"min_overlap": 3, "max_lag": 1, "mic_clumps": 1}
        if self.mi_bins is not None:
            minima["mi_bins"] = 2
        for name, low in minima.items():
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("difference_first", "granger_reverse"):
            if type(value := getattr(self, name)) is not bool:
                raise ConfigError(f"{name} must be true or false, got {value!r}")
        if type(self.mic_alpha) not in (float, int) or not 0.0 < self.mic_alpha <= 1.0:
            raise ConfigError(f"mic_alpha must be a number in (0, 1], "
                              f"got {self.mic_alpha!r}")
        if self.mi_strategy not in STRATEGIES:
            raise ConfigError(f"mi_strategy must be one of {STRATEGIES}")
        if self.mic_normalization not in MIC_NORMALIZATIONS:
            raise ConfigError(
                f"mic_normalization must be one of {MIC_NORMALIZATIONS}"
            )


@dataclass(frozen=True)
class MatrixCell:
    """One computed cell: the method result plus its aligned sample size."""

    n: int
    result: PearsonResult | MutualInfoResult | GrangerResult | MicResult


@dataclass
class ResultMatrix:
    """Regions x indicators grid of one method's results for one outcome."""

    method: str
    age_group: AgeGroup
    outcome: str
    rows: tuple[str, ...]
    cols: tuple[str, ...]
    cells: dict[tuple[str, str], MatrixCell] = field(default_factory=dict)
    skips: dict[tuple[str, str], str] = field(default_factory=dict)

    def complete(self) -> bool:
        return len(self.cells) + len(self.skips) == len(self.rows) * len(self.cols)

    @property
    def stem(self) -> str:
        """The name of this matrix's output files, without extension."""
        return f"{self.method}__{_slug(self.outcome)}__{_slug(self.age_group.value)}"


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_") or "x"


def canonical_columns(codes) -> tuple[str, ...]:
    """Built-in codes in registry order first, then the rest as given."""
    codes = list(codes)
    builtin = sorted((c for c in codes if c in _BUILTIN_ORDER),
                     key=_BUILTIN_ORDER.__getitem__)
    return tuple(builtin + [c for c in codes if c not in _BUILTIN_ORDER])


_SKIP_TAGS = {
    InsufficientOverlapError: SKIP_INSUFFICIENT_OVERLAP,
    DegenerateInputError: SKIP_DEGENERATE,
    NonContiguousYearsError: SKIP_NON_CONTIGUOUS,
    InsufficientDataError: SKIP_INSUFFICIENT_DATA,
    SingularDesignError: SKIP_SINGULAR,
}
_SKIP_EXCEPTIONS = tuple(_SKIP_TAGS)


def _method_cells(method: str, pairs, config: BatteryConfig) -> list[MatrixCell | str]:
    """A cell or a skip tag for each aligned pair of the run, from one batch
    call over every pair.

    The kernels, and numpy with them, are imported on the first call.
    """
    from .info import mics, mutual_informations
    from .linear import pearsons
    from .temporal import lag_sweeps

    if method == "pearson":
        results = pearsons(pairs)
    elif method == "mutual_information":
        results = mutual_informations(pairs, config.mi_bins, config.mi_strategy)
    elif method == "granger":
        directed = [pair.swapped() for pair in pairs] if config.granger_reverse else pairs
        # lag L fits n points only when n - L > 1 + 2L; a longer lag is a
        # skip in every pair and changes no pair's best lag
        max_lag = min(config.max_lag, max([1, *((pair.n - 2) // 3 for pair in pairs)]))
        results = [sweep if isinstance(sweep, Exception) else sweep.best
                   for sweep in lag_sweeps(directed, max_lag, config.difference_first)]
    else:
        results = mics(pairs, config.mic_alpha, config.mic_clumps,
                       config.mic_normalization)
    return [_SKIP_TAGS[type(result)] if isinstance(result, Exception)
            else MatrixCell(pair.n, result)
            for pair, result in zip(pairs, results)]


def plan_battery(dataset: PanelDataset, config: BatteryConfig) -> list[ResultMatrix]:
    """The run's matrices, empty, in ``run_battery``'s order.

    Validates the config first. Raises ConfigError when two outcomes would
    write files under one stem, since the second matrix's files would
    overwrite the first's.
    """
    config.validate(dataset)
    cols = canonical_columns(config.indicators)
    matrices = [ResultMatrix(method=method, age_group=age_group_of_code(outcome),
                             outcome=outcome, rows=dataset.regions, cols=cols)
                for method in config.methods for outcome in config.outcomes]
    owners: dict[str, str] = {}
    for matrix in matrices:
        owner = owners.setdefault(matrix.stem, matrix.outcome)
        if owner != matrix.outcome:
            raise ConfigError(f"outcomes {owner!r} and {matrix.outcome!r} both "
                              f"write files named {matrix.stem}.*; rename one")
    return matrices


def run_battery(dataset: PanelDataset, config: BatteryConfig) -> list[ResultMatrix]:
    """``plan_battery``'s matrices, filled: one per configured method and outcome.

    Deterministic for a fixed (dataset, config): matrices come out in
    method-major, outcome-minor configuration order, rows in dataset
    region order, columns in canonical indicator order. Each pair is aligned
    once; a pair-level skip lands in every method's matrix. Each method
    then runs once over all of the run's aligned pairs.
    """
    matrices = plan_battery(dataset, config)
    per_method = len(config.outcomes)
    places = []  # (outcome index, cell key) of each aligned pair
    pairs = []
    for region in dataset.regions:
        for i, outcome in enumerate(config.outcomes):
            outcome_series = dataset.series(region, outcome)
            for code in matrices[0].cols:
                key = (region, code)
                indicator_series = dataset.series(region, code)
                skip = SKIP_MISSING_SERIES
                if outcome_series is not None and indicator_series is not None:
                    try:
                        pairs.append(align_pair(indicator_series, outcome_series,
                                                config.min_overlap))
                        places.append((i, key))
                        continue
                    except _SKIP_EXCEPTIONS as exc:
                        skip = _SKIP_TAGS[type(exc)]
                for matrix in matrices[i::per_method]:
                    matrix.skips[key] = skip
    for start in range(0, len(matrices), per_method):
        row = matrices[start:start + per_method]
        for (i, key), out in zip(places, _method_cells(row[0].method, pairs, config)):
            if isinstance(out, str):
                row[i].skips[key] = out
            else:
                row[i].cells[key] = out
    return matrices


def summarize_lags(matrices) -> dict[tuple[str, str], dict[int, int]]:
    """Best-lag counts per (indicator category, outcome), pooled over
    regions and over the indicators in each category."""
    summary: dict[tuple[str, str], dict[int, int]] = {}
    for matrix in matrices:
        if matrix.method != "granger":
            raise TypeError(
                f"lag summary needs granger matrices, got {matrix.method!r}"
            )
        for (_, code), cell in matrix.cells.items():
            category = _classify_code(code).category
            lags = summary.setdefault((category, matrix.outcome), {})
            lag = cell.result.lag
            lags[lag] = lags.get(lag, 0) + 1
    return {
        key: dict(sorted(summary[key].items()))
        for key in sorted(summary)
    }
