"""Panel model: regions x indicator codes x calendar years.

Heterogeneous annual series (wide indicator CSVs, long outcome CSVs) are
normalized into a single :class:`PanelDataset`. Alignment of two series
onto their jointly populated years (pairwise deletion) is the entry point
for every pairwise method in the battery.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources

from .errors import (
    DomainError,
    DuplicateKeyError,
    InsufficientOverlapError,
    MappingError,
    NotFoundError,
    ParseError,
)

CATEGORIES = ("Economic", "Education", "Society", "Technology", "MentalHealth")

DEFAULT_REGION = "global"

#: Minimum jointly populated years unless the caller overrides it; below
#: roughly ten annual points the lagged and grid-based methods are noise.
DEFAULT_MIN_OVERLAP = 10

#: Mutual-information binning strategies and MIC normalizations, with the
#: MIC defaults. They live here, not in ``info``, so that configuration can
#: be validated without importing numpy.
STRATEGIES = ("equal-width", "equal-frequency")
MIC_NORMALIZATIONS = ("min-entropy-grid", "max-entropy")

DEFAULT_MIC_ALPHA = 0.6
DEFAULT_MIC_CLUMPS = 15


class AgeGroup(Enum):
    """The three age strata an outcome series may carry."""

    AGE_20_39 = "20-39"
    AGE_40_PLUS = "40+"
    ALL_AGES = "all"


_AGE_ALIASES = {
    "20-39": AgeGroup.AGE_20_39,
    "20-39 years": AgeGroup.AGE_20_39,
    "20 to 39": AgeGroup.AGE_20_39,
    "40+": AgeGroup.AGE_40_PLUS,
    "40+ years": AgeGroup.AGE_40_PLUS,
    "40 plus": AgeGroup.AGE_40_PLUS,
    "all": AgeGroup.ALL_AGES,
    "all ages": AgeGroup.ALL_AGES,
}


def parse_age_group(text: str) -> AgeGroup:
    """Map an age-group string from an input file onto an AgeGroup."""
    try:
        return _AGE_ALIASES[text.strip().lower()]
    except KeyError:
        raise MappingError(
            f"unknown age group {text!r}; expected one of "
            f"{sorted(set(_AGE_ALIASES))}"
        ) from None


@dataclass(frozen=True)
class IndicatorCode:
    code: str
    name: str
    category: str
    units: str

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise DomainError(
                f"category {self.category!r} not in {CATEGORIES}"
            )


#: The built-in socioeconomic indicator registry. Callers may add their own
#: codes on top; these eighteen are the canonical set.
BUILTIN_INDICATORS = (
    IndicatorCode("E1", "GDP", "Economic", "Current US$"),
    IndicatorCode("E2", "GDP per capita", "Economic", "Current US$"),
    IndicatorCode("E3", "Inflation, consumer prices", "Economic", "%"),
    IndicatorCode("E4", "Employment in industry", "Economic", "%"),
    IndicatorCode("E5", "Employment in services", "Economic", "%"),
    IndicatorCode("E6", "Employment in agriculture", "Economic", "%"),
    IndicatorCode("ED1", "School enrollment, primary", "Education", "%"),
    IndicatorCode("ED2", "School enrollment, secondary", "Education", "%"),
    IndicatorCode("ED3", "School enrollment, tertiary", "Education", "%"),
    IndicatorCode("ED4", "Government expenditure on education, total", "Education", "%"),
    IndicatorCode("S1", "Life expectancy at birth, total", "Society", "Years"),
    IndicatorCode("S2", "Unemployment, total", "Society", "%"),
    IndicatorCode("S3", "Prevalence of undernourishment", "Society", "%"),
    IndicatorCode("T1", "Individuals using the Internet", "Technology", "%"),
    IndicatorCode("T2", "Mobile cellular subscriptions", "Technology", "per 100 people"),
    IndicatorCode("T3", "Fixed broadband subscriptions", "Technology", "per 100 people"),
    IndicatorCode("T4", "Secure Internet servers", "Technology", "per 1 million people"),
    IndicatorCode("T5", "ICT goods exports", "Technology", "%"),
)

_BY_CODE = {ind.code: ind for ind in BUILTIN_INDICATORS}
_BY_NAME = {ind.name.lower(): ind for ind in BUILTIN_INDICATORS}


def indicator_lookup(key: str) -> IndicatorCode:
    """Resolve a built-in indicator by code ("E2") or full name.

    Name matching is case-insensitive. Unknown keys raise NotFoundError
    carrying the nearest known codes/names.
    """
    if key in _BY_CODE:
        return _BY_CODE[key]
    low = key.strip().lower()
    if low in _BY_NAME:
        return _BY_NAME[low]
    if low.upper() in _BY_CODE:
        return _BY_CODE[low.upper()]
    import difflib  # only a miss needs it

    universe = list(_BY_CODE) + [ind.name for ind in BUILTIN_INDICATORS]
    nearest = difflib.get_close_matches(key, universe, n=3, cutoff=0.3)
    raise NotFoundError(
        f"unknown indicator {key!r}" + (f"; nearest: {nearest}" if nearest else ""),
        nearest=nearest,
    )


def _classify_code(code: str) -> IndicatorCode:
    """Build an IndicatorCode for a code outside the built-in registry.

    Outcome codes produced by the long-format parser look like
    "cause|measure|age" and always land in MentalHealth; anything else is
    classified by code prefix, falling back to MentalHealth.
    """
    if code in _BY_CODE:
        return _BY_CODE[code]
    if "|" in code:
        cause, _, rest = code.partition("|")
        measure, _, age = rest.partition("|")
        name = f"{cause} ({measure}, ages {age})" if age else code
        return IndicatorCode(code, name, "MentalHealth", measure or "")
    for prefix, category in (("ED", "Education"), ("E", "Economic"),
                             ("S", "Society"), ("T", "Technology")):
        if code.startswith(prefix):
            return IndicatorCode(code, code, category, "")
    return IndicatorCode(code, code, "MentalHealth", "")


def age_group_of_code(code: str) -> AgeGroup:
    """Age stratum encoded in an outcome code; AllAges when not encoded."""
    if "|" in code:
        tag = code.rsplit("|", 1)[1]
        for group in AgeGroup:
            if group.value == tag:
                return group
    return AgeGroup.ALL_AGES


_FLOAT_OR_NONE = {float, type(None)}


def _check_finite(values) -> tuple:
    """``values`` with each number as its float; raise DomainError unless
    each value is None or a finite number other than a bool (numpy's bool
    is no ``numbers.Number``).

    Floats whose sum is finite are all finite, so a series of floats and
    Nones passes with one sum and comes back as it is; a NaN, an infinity,
    another type or a sum that overflows sends every value through its own
    check.
    """
    if set(map(type, values)) <= _FLOAT_OR_NONE:
        total = sum(filter(None, values))  # None and zeros add nothing
        if total - total == 0.0:
            return values
    checked = []
    for value in values:
        if value is not None:
            try:
                if isinstance(value, bool) or not isinstance(value, numbers.Number):
                    raise TypeError
                finite = math.isfinite(value)
            except (TypeError, OverflowError):
                raise DomainError(f"value {value!r} is not a finite float") from None
            if not finite:
                raise DomainError("non-finite value")
            value = float(value)
        checked.append(value)
    return tuple(checked)


@dataclass(frozen=True)
class AnnualSeries:
    """Calendar years and one optional value per year.

    A value is None (missing) or a finite number, stored as its float; NaN,
    infinities and bools are a DomainError.
    """

    years: tuple[int, ...]
    values: tuple[float | None, ...]

    def __post_init__(self):
        values = _check_finite(self.values)
        if values is not self.values:
            object.__setattr__(self, "values", values)
        if len(self.years) != len(self.values):
            raise DomainError("years and values differ in length")
        if any(map(operator.le, self.years[1:], self.years)):
            raise DomainError("years must be strictly increasing")
        if self.values.count(None) == len(self.values):
            raise DomainError("series has no values at all")

    def present(self) -> dict[int, float]:
        """Year -> value for the non-missing entries, in year order."""
        return {y: v for y, v in zip(self.years, self.values) if v is not None}


@dataclass(frozen=True)
class AlignedPair:
    """Two gap-free value sequences over the same years."""

    x: tuple[float, ...]
    y: tuple[float, ...]
    years: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.years)

    def swapped(self) -> "AlignedPair":
        return AlignedPair(self.y, self.x, self.years)


def align_pair(a: AnnualSeries, b: AnnualSeries,
               min_overlap: int = DEFAULT_MIN_OVERLAP) -> AlignedPair:
    """Restrict two series to the years where both have values.

    Raises InsufficientOverlapError (carrying the actual count) when fewer
    than ``min_overlap`` jointly populated years remain.
    """
    if min_overlap < 3:
        raise DomainError(f"min_overlap must be >= 3, got {min_overlap}")
    pa, pb = a.present(), b.present()
    years = [year for year in pa if year in pb]
    x, y = [pa[year] for year in years], [pb[year] for year in years]
    if len(years) < min_overlap:
        raise InsufficientOverlapError(
            f"only {len(years)} jointly populated years, need {min_overlap}",
            overlap=len(years),
        )
    return AlignedPair(tuple(x), tuple(y), tuple(years))


@dataclass
class PanelDataset:
    """Immutable-by-convention panel of (region, code) -> AnnualSeries."""

    regions: tuple[str, ...]
    indicators: tuple[IndicatorCode, ...]
    cells: dict[tuple[str, str], AnnualSeries] = field(default_factory=dict)

    def __post_init__(self):
        codes = self.codes()
        for what, names in (("regions", self.regions), ("indicators", codes)):
            if len(set(names)) < len(names):
                repeated = sorted({name for name in names if names.count(name) > 1})
                raise DomainError(f"{what} list {repeated} more than once")
        known = set(codes)
        regions = set(self.regions)
        for region, code in self.cells:
            if code not in known:
                raise DomainError(f"cell code {code!r} not in indicator list")
            if region not in regions:
                raise DomainError(f"cell region {region!r} not in region list")

    def codes(self) -> tuple[str, ...]:
        return tuple(ind.code for ind in self.indicators)

    def series(self, region: str, code: str) -> AnnualSeries | None:
        return self.cells.get((region, code))

    def restrict_region(self, region: str) -> "PanelDataset":
        if region not in self.regions:
            raise NotFoundError(f"region {region!r} not in dataset")
        cells = {k: v for k, v in self.cells.items() if k[0] == region}
        keep = {code for _, code in cells}
        return PanelDataset(
            regions=(region,),
            indicators=tuple(i for i in self.indicators if i.code in keep),
            cells=cells,
        )

    def merge(self, other: "PanelDataset") -> "PanelDataset":
        """Union of two panels, e.g. indicator series plus outcome series.

        Region and code order: self first, then whatever ``other`` adds.
        A (region, code) pair present in both is a duplicate-key error.
        """
        overlap = self.cells.keys() & other.cells.keys()
        if overlap:
            raise DuplicateKeyError(
                f"series present in both panels: {sorted(overlap)[:3]}"
            )
        regions = list(self.regions)
        regions += [r for r in other.regions if r not in regions]
        known = {i.code for i in self.indicators}
        indicators = list(self.indicators)
        indicators += [i for i in other.indicators if i.code not in known]
        return PanelDataset(tuple(regions), tuple(indicators),
                            {**self.cells, **other.cells})

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """Canonical full-fidelity snapshot: the panel as one line of compact
        JSON plus a newline; see from_json for the inverse."""
        return self._json_line() + "\n"

    def _json_line(self) -> str:
        """The snapshot's line of compact JSON, without its newline; each
        series' tuples are written as they are, as JSON arrays."""
        doc = {
            "regions": list(self.regions),
            "indicators": [
                {"code": i.code, "name": i.name,
                 "category": i.category, "units": i.units}
                for i in self.indicators
            ],
            "cells": [
                {
                    "region": region,
                    "code": code,
                    "years": s.years,
                    "values": s.values,
                }
                for (region, code), s in self.cells.items()
            ],
        }
        return json.dumps(doc, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "PanelDataset":
        """Inverse of to_json, whatever the text's JSON whitespace. Regions,
        codes, names, categories and units must be strings, values finite
        numbers or null, years integers, and regions and indicator codes
        unrepeated; anything else is a ParseError."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"panel snapshot is not valid JSON: {exc}") from None
        if type(doc) is not dict:
            raise ParseError("panel snapshot: the document must be a JSON object")
        try:
            regions = _snapshot_list(doc["regions"], "regions", str)
            indicators = tuple(
                IndicatorCode(*_snapshot_strings(d, "indicator",
                                                 ("code", "name", "category", "units")))
                for d in _snapshot_list(doc["indicators"], "indicators", dict)
            )
            cells = {}
            for c in _snapshot_list(doc["cells"], "cells", dict):
                key = (c["region"], c["code"])
                if type(key[0]) is not str or type(key[1]) is not str:
                    _snapshot_strings(c, "cell", ("region", "code"))  # raises
                if key in cells:
                    raise DuplicateKeyError(f"panel snapshot repeats cell {key}")
                cells[key] = _snapshot_series(key, c["years"], c["values"])
            return cls(tuple(regions), indicators, cells)
        except KeyError as exc:
            raise ParseError(f"panel snapshot missing field: {exc}") from None
        except (DomainError, TypeError) as exc:
            raise ParseError(f"panel snapshot: {exc}") from None

    def to_wdi_csv(self) -> str:
        """Wide CSV over the union of all years; missing marker "-"."""
        all_years = sorted({y for s in self.cells.values() for y in s.years})
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["code", "region"] + [str(y) for y in all_years])
        for ind in self.indicators:
            for region in self.regions:
                s = self.cells.get((region, ind.code))
                if s is None:
                    continue
                present = s.present()
                row = [ind.code, region]
                for y in all_years:
                    v = present.get(y)
                    row.append("-" if v is None else repr(v))
                writer.writerow(row)
        return out.getvalue()

    def fingerprint(self) -> str:
        """Content hash of the panel (reproducibility anchor): the sha256 of
        the ``to_json`` line without its final newline."""
        import hashlib  # only a bundle needs it

        return hashlib.sha256(self._json_line().encode()).hexdigest()


_TYPE_NAMES = {str: "strings", dict: "objects"}


def _snapshot_list(value, field: str, kind: type) -> list:
    """A snapshot field that must be a list of ``kind``."""
    if type(value) is not list or not all(type(item) is kind for item in value):
        raise ParseError(f"panel snapshot: {field} must be a list of {_TYPE_NAMES[kind]}")
    return value


def _snapshot_strings(entry: dict, what: str, names: tuple[str, ...]) -> tuple[str, ...]:
    """The fields ``names`` of a snapshot entry, each of which must be a string."""
    values = tuple(entry[name] for name in names)
    for name, value in zip(names, values):
        if type(value) is not str:
            raise ParseError(f"panel snapshot: {what} {name} must be a string, "
                             f"got {type(value).__name__}")
    return values


def _snapshot_series(key, years, values) -> AnnualSeries:
    """One snapshot cell; integer years, finite values, as the CSVs require.

    AnnualSeries takes each value as a float and rejects a non-finite one
    or one that is no number.
    """
    try:
        if type(years) is not list or type(values) is not list:
            raise ParseError("years and values must be lists")
        if not set(map(type, years)) <= {int}:
            raise ParseError("years must be integers")
        return AnnualSeries(tuple(years), tuple(values))
    except (ParseError, DomainError) as exc:
        raise ParseError(f"panel snapshot cell {key}: {exc}") from None


def _csv_records(text: str):
    """(line number, fields) of each non-blank CSV record, read lazily.

    Any line ending is accepted; a record the csv module rejects is a
    ParseError.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            if "".join(row).strip():
                yield reader.line_num, row
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from None


def _parse_number(cell: str, line_no: int, col_name: str) -> float | None:
    cell = cell.strip()
    if cell in ("-", ""):
        return None
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(
            f"line {line_no}, column {col_name!r}: {cell!r} is not numeric "
            f"and not the missing marker '-'"
        ) from None
    if math.isnan(value) or math.isinf(value):
        raise ParseError(f"line {line_no}, column {col_name!r}: non-finite value")
    return value


def parse_wdi_wide(text: str, default_region: str = DEFAULT_REGION) -> PanelDataset:
    """Parse a wide indicator CSV: code [, region], then one column per year.

    The region column is optional; rows without it are assigned
    ``default_region``. Missing cells are "-" or empty.
    """
    rows = list(_csv_records(text))
    if not rows:
        raise ParseError("no header: input is empty")
    header = rows[0][1]
    if len(header) < 2:
        raise ParseError("line 1: header needs a code column and year columns")
    has_region = not _looks_like_year(header[1])
    first_year_col = 2 if has_region else 1
    years = []
    for idx, cell in enumerate(header[first_year_col:], start=first_year_col):
        if not _looks_like_year(cell):
            raise ParseError(
                f"line 1: header column {idx + 1} is {cell.strip()!r}, "
                f"expected a four-digit year"
            )
        years.append(int(cell.strip()))
    if not years:
        raise ParseError("line 1: header contains no year columns")
    if any(b <= a for a, b in zip(years, years[1:])):
        raise ParseError("line 1: year columns must be strictly increasing")
    years = tuple(years)

    cells: dict[tuple[str, str], AnnualSeries] = {}
    for line_no, row in rows[1:]:
        if len(row) != len(header):
            raise ParseError(
                f"line {line_no}: {len(row)} fields, header has {len(header)}"
            )
        code = row[0].strip()
        if not code:
            raise ParseError(f"line {line_no}: empty indicator code")
        region = row[1].strip() if has_region else default_region
        region = region or default_region
        key = (region, code)
        if key in cells:
            raise DuplicateKeyError(
                f"line {line_no}: duplicate series for region {region!r}, "
                f"code {code!r}"
            )
        cells[key] = AnnualSeries(years, _wide_values(row[first_year_col:], years,
                                                      line_no, code))
    if not cells:
        raise ParseError("no data rows after header")
    return _panel_of(cells)


_MISSING_MARKERS = frozenset(("-", ""))


def _wide_values(cells: list[str], years: tuple, line_no: int, code: str) -> tuple:
    """The values of one wide row, None for each missing marker ("-" or
    empty, with spaces around it or not).

    The cells go through ``float`` in one pass; in a row with markers, the
    markers are set aside first. The values are finite if their sum is,
    and each one is checked only when it is not. A row with a cell that is
    neither a finite number nor a marker raises that cell's
    ``_parse_number`` error, the first one's.
    """
    try:
        values = present = tuple(map(float, cells))
    except ValueError:
        try:
            values = tuple([None if cell in _MISSING_MARKERS else float(cell)
                            for cell in map(str.strip, cells)])
        except ValueError:  # some cell is neither a number nor a marker
            present = None
        else:
            present = [v for v in values if v is not None]
            if not present:
                raise ParseError(f"line {line_no}: series {code!r} has no values") from None
    if present is not None:
        total = sum(present)
        if total - total == 0.0 or all(map(math.isfinite, present)):
            return values
    return tuple(_parse_number(cell, line_no, str(year)) for year, cell in zip(years, cells))


def _looks_like_year(cell: str) -> bool:
    cell = cell.strip()
    return len(cell) == 4 and cell.isascii() and cell.isdigit()


GBD_HEADER = ("location", "age_group", "cause", "measure", "year", "value")
GBD_MEASURES = ("DALYs", "YLLs", "YLDs", "prevalence", "deaths")


def outcome_code(cause: str, measure: str, age: AgeGroup) -> str:
    """Synthetic outcome code for one (cause, measure, age stratum)."""
    return f"{cause}|{measure}|{age.value}"


def parse_gbd_long(text: str) -> PanelDataset:
    """Parse a long outcome CSV into one series per (location, outcome code).

    Expected header: location,age_group,cause,measure,year,value. Each
    distinct (cause, measure, age group) becomes its own outcome code.
    """
    records = _csv_records(text)
    _, header = next(records, (None, None))
    if header is None:
        raise ParseError("no header: input is empty")
    if tuple(h.strip() for h in header) != GBD_HEADER:
        raise ParseError(
            f"line 1: expected header {','.join(GBD_HEADER)!r}, "
            f"got {','.join(header)!r}"
        )

    points: dict[tuple[str, str], dict[int, float]] = {}
    outcomes: dict[tuple[str, str, str], tuple[str, AgeGroup]] = {}
    for line_no, row in records:
        if len(row) != len(GBD_HEADER):
            raise ParseError(f"line {line_no}: expected {len(GBD_HEADER)} fields")
        location, age_text, cause, measure, year_text, value_text = map(str.strip, row)
        outcome = outcomes.get((age_text, cause, measure))
        if outcome is None:
            if measure not in GBD_MEASURES:
                raise ParseError(
                    f"line {line_no}: measure {measure!r} not in {GBD_MEASURES}"
                )
            age = parse_age_group(age_text)
            outcome = outcomes[age_text, cause, measure] = (
                outcome_code(cause, measure, age), age)
        code, age = outcome
        if not _looks_like_year(year_text):
            raise ParseError(f"line {line_no}: year {year_text!r} is not a four-digit year")
        year = int(year_text)
        try:
            value = float(value_text)
        except ValueError:
            value = math.nan  # the exact error, or the missing marker
        if value - value != 0.0:
            value = _parse_number(value_text, line_no, "value")
            if value is None:
                raise ParseError(f"line {line_no}: value is missing")
        key = (location, code)
        series = points.setdefault(key, {})
        if year in series:
            raise DuplicateKeyError(
                f"line {line_no}: duplicate record for {location!r}, "
                f"{cause!r}, {age.value!r}, {measure!r}, year {year}"
            )
        series[year] = value
    if not points:
        raise ParseError("no data rows after header")

    return _panel_of({
        key: AnnualSeries(tuple(sorted(by_year)),
                          tuple(by_year[y] for y in sorted(by_year)))
        for key, by_year in points.items()
    })


def _panel_of(cells: dict[tuple[str, str], AnnualSeries]) -> PanelDataset:
    """A parsed panel; regions and codes in the order their first cell came."""
    return PanelDataset(
        tuple(dict.fromkeys(region for region, _ in cells)),
        tuple(map(_classify_code, dict.fromkeys(code for _, code in cells))),
        cells,
    )


# -- bundled fixture -------------------------------------------------------

FIXTURE_YEARS = tuple(range(1991, 2024))

#: Synthetic outcome series shipped next to the fixture for self-testing.
#: Values are generated, not observed; the cause name says so.
SYNTHETIC_CAUSE = "synthetic-burden"


def _fixture_text() -> str:
    return (resources.files("paneldep") / "data" / "table_wdi.csv").read_text()


def synthetic_outcome_series() -> dict[str, AnnualSeries]:
    """Deterministic made-up burden series, one per age stratum.

    Smooth trend plus a bounded oscillation, rounded to one decimal so the
    CSV round trip is exact. Spans every fixture year with no gaps, which
    keeps the lagged methods applicable.
    """
    spans = {
        AgeGroup.ALL_AGES: (1200.0, 5.0, -0.06, 35.0, 0.55, 0.0),
        AgeGroup.AGE_20_39: (950.0, 7.5, 0.0, 45.0, 0.5, 0.4),
        AgeGroup.AGE_40_PLUS: (1400.0, 3.0, 0.0, 25.0, 0.75, 1.0),
    }
    out = {}
    for age, (base, slope, quad, amp, freq, phase) in spans.items():
        values = tuple(
            round(base + slope * i + quad * i * i + amp * math.sin(freq * i + phase), 1)
            for i in range(len(FIXTURE_YEARS))
        )
        out[outcome_code(SYNTHETIC_CAUSE, "DALYs", age)] = AnnualSeries(
            FIXTURE_YEARS, values
        )
    return out


def load_fixture(with_outcomes: bool = False) -> PanelDataset:
    """The bundled annual-indicator panel (15 series, 1991-2023).

    With ``with_outcomes`` three synthetic outcome series are appended so a
    full analysis run has something to explain.
    """
    ds = parse_wdi_wide(_fixture_text())
    # The bundled file stores E1 in trillions and E2 in thousands of US$.
    indicators = tuple(
        IndicatorCode(i.code, i.name, i.category, "trillion US$") if i.code == "E1"
        else IndicatorCode(i.code, i.name, i.category, "thousand US$") if i.code == "E2"
        else i
        for i in ds.indicators
    )
    cells = dict(ds.cells)
    if with_outcomes:
        extra = synthetic_outcome_series()
        indicators = indicators + tuple(_classify_code(c) for c in extra)
        for code, series in extra.items():
            cells[(DEFAULT_REGION, code)] = series
    return PanelDataset(ds.regions, indicators, cells)
