"""Run the four-method battery over every (outcome, region, indicator) cell.

A matrix never fails atomically: each cell either holds a method result or
a machine-readable skip tag, and their counts always add up to the grid
size. Output order is fixed by the configuration regardless of how cells
are computed.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, NamedTuple

from .errors import (
    ConfigError,
    DegenerateInputError,
    DomainError,
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
    import numpy as np

    from .table import Columns, PairTable

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


class MatrixCell(NamedTuple):
    """One computed cell of ``ResultMatrix.cells``: the method result and
    its aligned sample size."""

    n: int
    result: object


@dataclass(frozen=True, eq=False)
class ResultMatrix:
    """Regions x indicators grid of one method's results for one outcome.

    A filled matrix holds its results as columns: ``columns`` maps each
    field of the result dataclass ``kind``, and ``n``, to a (rows, cols)
    array. ``tags`` is the (rows, cols) object array of each cell's skip
    tag, None where the cell holds a result; there a column's entry means
    nothing. A planned matrix has no columns and ``tags`` None. The arrays
    are views of the run's columns, which the matrices of one method, and
    for ``n`` of every method, share. A matrix is never changed once built:
    ``run_battery`` returns new, filled copies of the planned ones, and
    ``cells`` and ``skips`` are read from the columns once, on first use.
    """

    method: str
    age_group: AgeGroup
    outcome: str
    rows: tuple[str, ...]
    cols: tuple[str, ...]
    kind: type | None = None
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    tags: np.ndarray | None = None

    def complete(self) -> bool:
        return self.tags is not None

    def held(self) -> np.ndarray:
        """(rows, cols) bools: True where the cell holds a result. Raises
        DomainError for a planned matrix, which holds no cells yet."""
        import numpy as np

        if self.tags is None:
            raise DomainError(f"matrix {self.stem} is planned, not filled; "
                              f"run_battery fills it")
        return np.equal(self.tags, None)

    @property
    def stem(self) -> str:
        """The name of this matrix's output files, without extension."""
        return f"{self.method}__{_slug(self.outcome)}__{_slug(self.age_group.value)}"

    @cached_property
    def cells(self) -> Mapping[tuple[str, str], MatrixCell]:
        """The (region, code) of each cell that holds a result, in row-major
        order, mapped to its ``MatrixCell``: a read-only dict, empty for a
        planned matrix."""
        if self.tags is None:
            return MappingProxyType({})
        held = self.held()
        values = {name: column[held].tolist() for name, column in self.columns.items()}
        results = map(self.kind, *(values[f.name] for f in fields(self.kind)))
        return MappingProxyType(dict(zip(self._keys(held), map(MatrixCell, values["n"], results))))

    @cached_property
    def skips(self) -> Mapping[tuple[str, str], str]:
        """The (region, code) of each skipped cell, in row-major order, mapped
        to its skip tag: a read-only dict, empty for a planned matrix."""
        if self.tags is None:
            return MappingProxyType({})
        skipped = ~self.held()
        return MappingProxyType(dict(zip(self._keys(skipped), self.tags[skipped].tolist())))

    def _keys(self, mask: np.ndarray) -> list[tuple[str, str]]:
        """The (region, code) of each True cell of ``mask``, row-major."""
        ri, ci = mask.nonzero()
        return [(self.rows[r], self.cols[c]) for r, c in zip(ri.tolist(), ci.tolist())]

    def __eq__(self, other):
        if not isinstance(other, ResultMatrix):
            return NotImplemented
        return ((self.method, self.age_group, self.outcome, self.rows, self.cols)
                == (other.method, other.age_group, other.outcome, other.rows, other.cols)
                and self.cells == other.cells and self.skips == other.skips)


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


def _method_results(method: str, table: PairTable, config: BatteryConfig) -> Columns:
    """The method's results over every pair of the run's table, from one
    batch call.

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
    import numpy as np  # numpy loads here, just before the kernels

    from .table import PairTable

    cols = matrices[0].cols
    table = PairTable.of_panel(dataset, config.outcomes, cols, config.min_overlap)
    # place = (region * outcomes + outcome) * cols + col, so matrix i of a
    # method is [:, i, :] of each of its columns as a (regions, outcomes, cols) grid
    per_method = len(config.outcomes)
    shape = (len(dataset.regions), per_method, len(cols))
    pair_tags = np.full(table.size, None, dtype=object)
    pair_tags[table.missing] = SKIP_MISSING_SERIES
    pair_tags[table.short] = SKIP_INSUFFICIENT_OVERLAP
    filled = []
    for start in range(0, len(matrices), per_method):
        row = matrices[start:start + per_method]
        batch = _method_results(row[0].method, table, config)
        tags = pair_tags.copy()
        tags[list(batch.errors)] = [_SKIP_TAGS[type(error)] for error in batch.errors.values()]
        grids = {name: column.reshape(shape)
                 for name, column in {**batch.values, "n": batch.n}.items()}
        tags = tags.reshape(shape)
        filled += [replace(planned, kind=batch.kind,
                           columns={name: grid[:, i, :] for name, grid in grids.items()},
                           tags=tags[:, i, :])
                   for i, planned in enumerate(row)]
    return filled


def summarize_lags(matrices) -> dict[tuple[str, str], dict[int, int]]:
    """Best-lag counts per (indicator category, outcome), pooled over
    regions and over the indicators in each category."""
    summary: dict[tuple[str, str], dict[int, int]] = {}
    for matrix in matrices:
        if matrix.method != "granger":
            raise TypeError(
                f"lag summary needs granger matrices, got {matrix.method!r}"
            )
        held, best_lags = matrix.held(), matrix.columns["lag"]
        for ci, code in enumerate(matrix.cols):
            found = best_lags[held[:, ci], ci].tolist()
            if not found:
                continue
            lags = summary.setdefault((_classify_code(code).category, matrix.outcome), {})
            for lag in found:
                lags[lag] = lags.get(lag, 0) + 1
    return {
        key: dict(sorted(summary[key].items()))
        for key in sorted(summary)
    }
