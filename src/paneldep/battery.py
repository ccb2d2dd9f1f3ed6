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
    _classify_code,
)

if TYPE_CHECKING:
    from .info import MicResult, MutualInfoResult
    from .linear import PearsonResult
    from .table import PairTable
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
    DegenerateInputError: SKIP_DEGENERATE,
    NonContiguousYearsError: SKIP_NON_CONTIGUOUS,
    InsufficientDataError: SKIP_INSUFFICIENT_DATA,
    SingularDesignError: SKIP_SINGULAR,
}


def _method_results(method: str, table: PairTable, config: BatteryConfig) -> list:
    """Each place's method result or error, from one batch call over every
    pair of the run's table (None at a place with no pair).

    Only the method's kernel module is imported, on its first call, as the
    table is in ``run_battery``, so that numpy loads only when a kernel
    runs and a run loads no kernel it does not use.
    """
    if method == "pearson":
        from .linear import pearsons_over
        return pearsons_over(table)
    if method == "mutual_information":
        from .info import mutual_informations_over
        return mutual_informations_over(table, config.mi_bins, config.mi_strategy)
    if method == "granger":
        from .temporal import best_fits_over
        directed = table.swapped() if config.granger_reverse else table
        return best_fits_over(directed, config.max_lag, config.difference_first)
    from .info import mics_over
    return mics_over(table, config.mic_alpha, config.mic_clumps, config.mic_normalization)


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
    region order, columns in canonical indicator order. The run is
    planned, then its pair table is built: each (region, outcome,
    indicator) is placed once, and a pair-level skip lands in every
    method's matrix before any kernel runs. Each method then runs once
    over the whole table.
    """
    matrices = plan_battery(dataset, config)
    from .table import PairTable  # numpy loads here, just before the kernels

    cols = matrices[0].cols
    table = PairTable.of_panel(dataset, config.outcomes, cols, config.min_overlap)
    per_method = len(config.outcomes)

    def located(place: int) -> tuple[int, tuple[str, str]]:
        """(outcome index, cell key) of a place."""
        rest, col = divmod(place, len(cols))
        region, outcome = divmod(rest, per_method)
        return outcome, (dataset.regions[region], cols[col])

    skipped = sorted([*((place, SKIP_MISSING_SERIES) for place in table.missing.tolist()),
                      *((place, SKIP_INSUFFICIENT_OVERLAP) for place in table.short.tolist())])
    for place, tag in skipped:
        i, key = located(place)
        for matrix in matrices[i::per_method]:
            matrix.skips[key] = tag
    paired = sorted((place, group.n) for group in table.groups
                    for place in group.places.tolist())
    paired = [(place, n, *located(place)) for place, n in paired]
    for start in range(0, len(matrices), per_method):
        row = matrices[start:start + per_method]
        results = _method_results(row[0].method, table, config)
        for place, n, i, key in paired:
            result = results[place]
            if isinstance(result, Exception):
                row[i].skips[key] = _SKIP_TAGS[type(result)]
            else:
                row[i].cells[key] = MatrixCell(n, result)
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
