import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paneldep.errors import (
    DomainError,
    DuplicateKeyError,
    InsufficientOverlapError,
    MappingError,
    NotFoundError,
    ParseError,
)
from paneldep.panel import (
    CATEGORIES,
    GBD_HEADER,
    AgeGroup,
    AnnualSeries,
    BUILTIN_INDICATORS,
    IndicatorCode,
    PanelDataset,
    age_group_of_code,
    align_pair,
    indicator_lookup,
    load_fixture,
    outcome_code,
    parse_gbd_long,
    parse_wdi_wide,
    _parse_number,
)

from oracles import reference_align_pair

WDI_SMALL = """code,region,2000,2001,2002,2003
E1,global,1.0,2.0,-,4.0
S1,global,60.0,61.0,62.0,63.0
"""

GBD_SMALL = """location,age_group,cause,measure,year,value
R1,20-39,depressive,DALYs,2000,512.0
R1,20-39,depressive,DALYs,2001,530.5
R1,40+,depressive,DALYs,2000,210.0
"""


class TestIndicatorRegistry:
    def test_eighteen_builtins(self):
        assert len(BUILTIN_INDICATORS) == 18
        codes = [i.code for i in BUILTIN_INDICATORS]
        assert codes == [
            "E1", "E2", "E3", "E4", "E5", "E6",
            "ED1", "ED2", "ED3", "ED4",
            "S1", "S2", "S3",
            "T1", "T2", "T3", "T4", "T5",
        ]
        assert len(set(codes)) == 18

    def test_lookup_by_code(self):
        ind = indicator_lookup("E2")
        assert (ind.code, ind.name, ind.category, ind.units) == (
            "E2", "GDP per capita", "Economic", "Current US$"
        )

    def test_lookup_by_name_case_insensitive(self):
        assert indicator_lookup("Unemployment, total").code == "S2"
        assert indicator_lookup("unemployment, TOTAL").code == "S2"

    def test_lookup_unknown_lists_nearest(self):
        with pytest.raises(NotFoundError) as exc_info:
            indicator_lookup("Z9")
        assert isinstance(exc_info.value.nearest, list)

    def test_lookup_near_miss_suggests(self):
        with pytest.raises(NotFoundError) as exc_info:
            indicator_lookup("GDP per capit")
        assert "GDP per capita" in exc_info.value.nearest


class TestAnnualSeries:
    def test_rejects_unsorted_years(self):
        with pytest.raises(DomainError):
            AnnualSeries((2001, 2000), (1.0, 2.0))

    def test_rejects_duplicate_years(self):
        with pytest.raises(DomainError):
            AnnualSeries((2000, 2000), (1.0, 2.0))

    def test_rejects_all_missing(self):
        with pytest.raises(DomainError):
            AnnualSeries((2000, 2001), (None, None))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("gap", [False, True])
    def test_rejects_non_finite_values(self, bad, gap):
        values = [float(v) for v in range(11)] + [bad]
        if gap:
            values[3] = None
        with pytest.raises(DomainError, match="non-finite value"):
            AnnualSeries(tuple(range(2000, 2012)), tuple(values))

    @pytest.mark.parametrize("bad", ["1.0", 10 ** 400, True, np.True_])
    def test_rejects_values_without_a_float(self, bad):
        with pytest.raises(DomainError, match="is not a finite float"):
            AnnualSeries((2000, 2001), (1.0, bad))

    def test_values_whose_sum_overflows_accepted(self):
        values = (1e308, 1e308, None, -1e308, 1e308)
        assert AnnualSeries(tuple(range(2000, 2005)), values).values == values


class TestParseWdi:
    def test_small_panel(self):
        ds = parse_wdi_wide(WDI_SMALL)
        assert ds.regions == ("global",)
        assert ds.codes() == ("E1", "S1")
        series = ds.series("global", "E1")
        assert series.years == (2000, 2001, 2002, 2003)
        assert series.values == (1.0, 2.0, None, 4.0)

    def test_region_column_optional(self):
        ds = parse_wdi_wide("code,2000,2001\nE1,1.0,2.0\n")
        assert ds.regions == ("global",)
        ds2 = parse_wdi_wide("code,2000,2001\nE1,1.0,2.0\n", default_region="R7")
        assert ds2.regions == ("R7",)

    def test_empty_file_is_no_header(self):
        with pytest.raises(ParseError, match="no header"):
            parse_wdi_wide("")

    def test_bad_year_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_wdi_wide("code,region,20x0\nE1,global,1.0\n")

    def test_non_numeric_cell_cites_location(self):
        with pytest.raises(ParseError, match="line 2.*2001"):
            parse_wdi_wide("code,region,2000,2001\nE1,global,1.0,oops\n")

    def test_line_numbers_survive_blank_lines(self):
        text = "code,region,2000,2001\n\nE1,global,1.0,2.0\n\nE2,global,bad,1.0\n"
        with pytest.raises(ParseError, match="line 5"):
            parse_wdi_wide(text)

    def test_duplicate_series_rejected(self):
        text = "code,region,2000,2001\nE1,global,1.0,2.0\nE1,global,3.0,4.0\n"
        with pytest.raises(DuplicateKeyError):
            parse_wdi_wide(text)

    def test_roundtrip_wdi_csv(self):
        ds = parse_wdi_wide(WDI_SMALL)
        again = parse_wdi_wide(ds.to_wdi_csv())
        assert again == ds

    def test_roundtrip_json(self):
        ds = parse_wdi_wide(WDI_SMALL)
        assert PanelDataset.from_json(ds.to_json()) == ds


def per_cell_row(cells, line_no=2, code="E1"):
    """A wide row's values, or its ParseError message, parsed cell by cell."""
    try:
        values = tuple(_parse_number(cell, line_no, str(2000 + i))
                       for i, cell in enumerate(cells))
        if all(v is None for v in values):
            raise ParseError(f"line {line_no}: series {code!r} has no values")
    except ParseError as exc:
        return str(exc)
    return values


def parsed_row(cells):
    """A one-row wide CSV's values, or its ParseError message."""
    header = ",".join(str(2000 + i) for i in range(len(cells)))
    try:
        ds = parse_wdi_wide(f"code,{header}\nE1,{','.join(cells)}\n")
    except ParseError as exc:
        return str(exc)
    return ds.series("global", "E1").values


_CELLS = ["1.5", " 2 ", "-0.0", "1e308", "-", " - ", "", "  ", "\t-", "inf", " -inf",
          "nan", "NaN ", "1e999", "abc", "1;5", "--", "- 1", "0x10", "1_000"]


class TestWideMissingMarkers:
    """A row with missing markers is parsed in bulk, as the per-cell parser
    would parse it."""

    @pytest.mark.parametrize("cells", [
        ["1.0", " - ", "3.0"],
        ["-", "", "  -  ", "4.5"],
        ["inf", "-", "1.0"],
        ["1.0", "-", "nan"],
        ["-", "abc", "1.0"],
        ["-", "1.0", "abc", "inf"],
        ["1e308", "-", "1e308"],
        ["-", " ", "-"],
    ], ids=["padded", "markers", "inf", "nan", "not-numeric", "first-error",
            "sum-overflows", "no-values"])
    def test_rows_as_the_per_cell_parser(self, cells):
        assert parsed_row(cells) == per_cell_row(cells)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(_CELLS), min_size=1, max_size=6))
    def test_any_row_as_the_per_cell_parser(self, cells):
        assert parsed_row(cells) == per_cell_row(cells)


class TestParseGbd:
    def test_single_record(self):
        ds = parse_gbd_long(
            "location,age_group,cause,measure,year,value\n"
            "R1,20-39,depressive,DALYs,2000,512.0\n"
        )
        code = outcome_code("depressive", "DALYs", AgeGroup.AGE_20_39)
        series = ds.series("R1", code)
        assert series.years == (2000,)
        assert series.values == (512.0,)

    def test_years_sorted(self):
        ds = parse_gbd_long(
            "location,age_group,cause,measure,year,value\n"
            "R1,all,anxiety,DALYs,2005,9.0\n"
            "R1,all,anxiety,DALYs,2003,7.0\n"
        )
        series = ds.series("R1", outcome_code("anxiety", "DALYs", AgeGroup.ALL_AGES))
        assert series.years == (2003, 2005)
        assert series.values == (7.0, 9.0)

    def test_age_groups_become_distinct_codes(self):
        ds = parse_gbd_long(GBD_SMALL)
        codes = ds.codes()
        assert outcome_code("depressive", "DALYs", AgeGroup.AGE_20_39) in codes
        assert outcome_code("depressive", "DALYs", AgeGroup.AGE_40_PLUS) in codes
        assert len(codes) == 2

    def test_outcome_age_recovered_from_code(self):
        assert age_group_of_code("depressive|DALYs|20-39") is AgeGroup.AGE_20_39
        assert age_group_of_code("depressive|DALYs|40+") is AgeGroup.AGE_40_PLUS
        assert age_group_of_code("E1") is AgeGroup.ALL_AGES

    def test_unknown_age_group(self):
        with pytest.raises(MappingError):
            parse_gbd_long(
                "location,age_group,cause,measure,year,value\n"
                "R1,youth,depressive,DALYs,2000,1.0\n"
            )

    @pytest.mark.parametrize("year", ["1_990", "+1990", "\u0661\u0669\u0669\u0660", "90"])
    def test_year_must_be_four_ascii_digits(self, year):
        # int() reads each of these as a year; the wide header refuses them all
        with pytest.raises(ParseError, match=re.escape(f"line 2: year {year!r} is not a")):
            parse_gbd_long(f"location,age_group,cause,measure,year,value\n"
                           f"R1,all,anxiety,DALYs,{year},9.0\n")

    def test_duplicate_record(self):
        text = (
            "location,age_group,cause,measure,year,value\n"
            "R1,all,anxiety,DALYs,2005,9.0\n"
            "R1,all,anxiety,DALYs,2005,9.0\n"
        )
        with pytest.raises(DuplicateKeyError):
            parse_gbd_long(text)

    def test_roundtrip_json(self):
        ds = parse_gbd_long(GBD_SMALL)
        assert PanelDataset.from_json(ds.to_json()) == ds


def series_over(years, values):
    return AnnualSeries(tuple(years), tuple(values))


class TestAlignPair:
    def test_interval_intersection(self):
        a = series_over(range(1990, 2001), [float(i) for i in range(11)])
        b = series_over(range(1995, 2006), [float(i) for i in range(11)])
        pair = align_pair(a, b, min_overlap=3)
        assert pair.years == tuple(range(1995, 2001))
        assert pair.n == 6

    def test_gap_dropped_pairwise(self):
        values = [float(i) for i in range(11)]
        values[7] = None  # 1997 missing
        a = series_over(range(1990, 2001), values)
        b = series_over(range(1995, 2006), [float(i) for i in range(11)])
        pair = align_pair(a, b, min_overlap=3)
        assert 1997 not in pair.years
        assert pair.n == 5

    def test_insufficient_overlap_carries_count(self):
        a = series_over([2000, 2001], [1.0, 2.0])
        b = series_over([2001, 2002], [1.0, 2.0])
        with pytest.raises(InsufficientOverlapError) as exc_info:
            align_pair(a, b, min_overlap=10)
        assert exc_info.value.overlap == 1

    def test_min_overlap_floor(self):
        a = series_over([2000, 2001, 2002], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            align_pair(a, a, min_overlap=2)

    @given(st.data())
    def test_symmetry_of_year_coverage(self, data):
        years = sorted(data.draw(st.sets(st.integers(1950, 2050), min_size=8, max_size=40)))
        mask_a = data.draw(st.lists(st.booleans(), min_size=len(years), max_size=len(years)))
        mask_b = data.draw(st.lists(st.booleans(), min_size=len(years), max_size=len(years)))
        va = [float(i) if m else None for i, m in enumerate(mask_a)]
        vb = [float(i) * 2 if m else None for i, m in enumerate(mask_b)]
        if not any(va):
            va[0] = 0.5
        if not any(vb):
            vb[0] = 0.5
        a = series_over(years, va)
        b = series_over(years, vb)
        try:
            forward = align_pair(a, b, min_overlap=3)
        except InsufficientOverlapError:
            with pytest.raises(InsufficientOverlapError):
                align_pair(b, a, min_overlap=3)
            return
        backward = align_pair(b, a, min_overlap=3)
        assert forward.years == backward.years
        # every jointly populated year is present, none invented
        joint = set(a.present()) & set(b.present())
        assert set(forward.years) == joint


@st.composite
def series_pairs(draw):
    """Two series over equal or unequal years, each with or without gaps,
    and a min_overlap at, just below or just above their joint count."""
    def series(years):
        element = st.floats(-1e6, 1e6)
        if draw(st.booleans()):
            element = element | st.none()
        values = draw(st.lists(element, min_size=len(years), max_size=len(years))
                      .filter(lambda vs: any(v is not None for v in vs)))
        return series_over(years, values)

    years_a = sorted(draw(st.sets(st.integers(1990, 2010), min_size=1, max_size=14)))
    years_b = years_a if draw(st.booleans()) else sorted(
        draw(st.sets(st.integers(1990, 2010), min_size=1, max_size=14)))
    a, b = series(years_a), series(years_b)
    joint = len(a.present().keys() & b.present().keys())
    return a, b, max(2, joint + draw(st.integers(-1, 1)))


def align_outcome(a, b, min_overlap, align):
    try:
        return align(a, b, min_overlap)
    except (DomainError, InsufficientOverlapError) as exc:
        return type(exc), str(exc), getattr(exc, "overlap", None)


class TestAlignOracle:
    @settings(max_examples=300)
    @given(series_pairs())
    def test_matches_per_year_reference(self, case):
        a, b, min_overlap = case
        got = align_outcome(a, b, min_overlap, align_pair)
        want = align_outcome(a, b, min_overlap, reference_align_pair)
        assert got == want
        assert repr(got) == repr(want)

    def test_gap_free_equal_years_keep_the_series_tuples(self):
        a = series_over(range(2000, 2012), [float(i) for i in range(12)])
        b = series_over(range(2000, 2012), [float(-i) for i in range(12)])
        pair = align_pair(a, b, min_overlap=12)
        assert (pair.x, pair.y, pair.years) == (a.values, b.values, a.years)
        with pytest.raises(InsufficientOverlapError) as exc_info:
            align_pair(a, b, min_overlap=13)
        assert exc_info.value.overlap == 12
        assert str(exc_info.value) == "only 12 jointly populated years, need 13"


class TestMerge:
    def test_union_preserves_order(self):
        indicators = parse_wdi_wide(WDI_SMALL)
        outcomes = parse_gbd_long(GBD_SMALL)
        merged = indicators.merge(outcomes)
        assert merged.regions == ("global", "R1")
        assert merged.codes()[:2] == ("E1", "S1")
        assert len(merged.codes()) == 4
        assert merged.series("global", "E1") == indicators.series("global", "E1")

    def test_duplicate_series_rejected(self):
        ds = parse_wdi_wide(WDI_SMALL)
        with pytest.raises(DuplicateKeyError):
            ds.merge(ds)

    def test_merged_panel_roundtrips(self):
        merged = parse_wdi_wide(WDI_SMALL).merge(parse_gbd_long(GBD_SMALL))
        assert PanelDataset.from_json(merged.to_json()) == merged


class TestFixture:
    def test_fifteen_series_thirtythree_years(self):
        ds = load_fixture()
        assert len(ds.indicators) == 15
        assert ds.regions == ("global",)
        for code in ds.codes():
            assert ds.series("global", code).years == tuple(range(1991, 2024))

    def test_missing_pattern_anchors(self):
        ds = load_fixture()
        ed4 = ds.series("global", "ED4").present()
        assert min(ed4) == 1999 and max(ed4) == 2022
        s3 = ds.series("global", "S3").present()
        assert min(s3) == 2001 and s3[2001] == 13.0
        t4 = ds.series("global", "T4").present()
        assert min(t4) == 2010 and t4[2010] == 185.2
        t5 = ds.series("global", "T5").present()
        assert (min(t5), max(t5)) == (2000, 2022)
        for code in ("T1", "T3"):
            assert min(ds.series("global", code).present()) == 2005

    def test_spot_values(self):
        ds = load_fixture()
        assert ds.series("global", "E1").present()[1991] == 23.9
        assert ds.series("global", "T4").present()[2023] == 15466.2

    def test_fixture_json_roundtrip_is_identical(self):
        ds = load_fixture()
        assert PanelDataset.from_json(ds.to_json()) == ds

    def test_fixture_csv_roundtrip_preserves_data(self):
        # The wide CSV has no units column, so the loader's units notes are
        # the one thing a CSV round trip cannot carry.
        ds = load_fixture()
        again = parse_wdi_wide(ds.to_wdi_csv())
        assert again.regions == ds.regions
        assert again.cells == ds.cells
        assert again.codes() == ds.codes()
        assert again.to_wdi_csv() == ds.to_wdi_csv()

    def test_outcome_variant_adds_three_series(self):
        ds = load_fixture(with_outcomes=True)
        assert len(ds.indicators) == 18
        burden_codes = [i.code for i in ds.indicators if i.category == "MentalHealth"]
        assert len(burden_codes) == 3
        ages = {age_group_of_code(c) for c in burden_codes}
        assert ages == {AgeGroup.ALL_AGES, AgeGroup.AGE_20_39, AgeGroup.AGE_40_PLUS}
        for code in burden_codes:
            series = ds.series("global", code)
            assert series.years == tuple(range(1991, 2024))
            assert None not in series.values


# -- parser fuzzing -----------------------------------------------------------

#: Fragments that steer generated text toward the parsers' branches.
CSV_TOKENS = st.sampled_from([
    "code", "region", "E1", "S1", "global", "2000", "2001", "1999", "-", "",
    "1.5", "-0.0", "nan", "inf", "-Infinity", "1e999", "abc", '"', '"a,b"',
    "\ufeff", " ", "20-39", "40+", "all", "depressive", "DALYs", "deaths",
    "\u00b2\u00b2\u00b2\u00b2", "\u0662\u0660\u0660\u0660",
]) | st.text(max_size=4)


@st.composite
def csv_texts(draw, header=None):
    """Comma/newline-joined token grids, optionally under a fixed header."""
    rows = draw(st.lists(st.lists(CSV_TOKENS, max_size=7), max_size=6))
    lines = [",".join(row) for row in rows]
    if header is not None:
        lines.insert(0, header)
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=10**308, max_value=10**400)
                | st.floats() | st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)


def _or_junk(strategy):
    return strategy | JSON_VALUES


SNAPSHOT_DOCS = st.fixed_dictionaries({
    "regions": _or_junk(st.lists(st.sampled_from(["r1", "r2"]), max_size=3)),
    "indicators": _or_junk(st.lists(_or_junk(st.fixed_dictionaries({
        "code": _or_junk(st.sampled_from(["E1", "S1"])),
        "name": _or_junk(st.text(max_size=3)),
        "category": _or_junk(st.sampled_from(CATEGORIES)),
        "units": _or_junk(st.text(max_size=3)),
    })), max_size=3)),
    "cells": _or_junk(st.lists(_or_junk(st.fixed_dictionaries({
        "region": _or_junk(st.sampled_from(["r1", "r2"])),
        "code": _or_junk(st.sampled_from(["E1", "S1"])),
        "years": _or_junk(st.lists(_or_junk(st.integers(1998, 2003)), max_size=4)),
        "values": _or_junk(st.lists(_or_junk(st.floats() | st.none()), max_size=4)),
    })), max_size=3)),
})


@st.composite
def panel_datasets(draw):
    regions = draw(st.lists(st.text(max_size=6), min_size=1, max_size=3,
                            unique=True))
    codes = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4,
                          unique=True))
    indicators = tuple(
        IndicatorCode(code, draw(st.text(max_size=6)),
                      draw(st.sampled_from(CATEGORIES)), draw(st.text(max_size=4)))
        for code in codes
    )
    cells = {}
    for key in draw(st.lists(st.tuples(st.sampled_from(regions),
                                       st.sampled_from(codes)), unique=True)):
        years = sorted(draw(st.sets(st.integers(1900, 2100), min_size=1,
                                    max_size=8)))
        values = draw(st.lists(st.none() | st.floats(allow_nan=False,
                                                     allow_infinity=False),
                               min_size=len(years), max_size=len(years))
                      .filter(lambda vs: any(v is not None for v in vs)))
        cells[key] = AnnualSeries(tuple(years), tuple(values))
    return PanelDataset(tuple(regions), indicators, cells)


class TestParserFuzz:
    """Any text either parses or raises ParseError; nothing else escapes."""

    @settings(max_examples=300)
    @given(st.text() | csv_texts() | csv_texts(header="code,region,2000,2001")
           | csv_texts(header="code,2000,2001,2002"))
    @example("code,region,\u00b2\u00b2\u00b2\u00b2\nE1,global,1\n")
    @example("code,2000\rE1,1\r")
    def test_wide_csv(self, text):
        try:
            parse_wdi_wide(text)
        except ParseError:
            pass

    @settings(max_examples=300)
    @given(st.text() | csv_texts() | csv_texts(header=",".join(GBD_HEADER)))
    @example(",".join(GBD_HEADER) + "\rR1,all,dep,DALYs,2000,1.0")
    def test_long_csv(self, text):
        try:
            parse_gbd_long(text)
        except ParseError:
            pass

    @settings(max_examples=300)
    @given(st.text() | JSON_VALUES.map(json.dumps) | SNAPSHOT_DOCS.map(json.dumps))
    def test_snapshot(self, text):
        try:
            ds = PanelDataset.from_json(text)
        except ParseError:
            return
        for series in ds.cells.values():
            assert all(type(year) is int for year in series.years)
            assert all(v is None or type(v) is float for v in series.values)

    @given(panel_datasets())
    def test_snapshot_roundtrip(self, ds):
        assert PanelDataset.from_json(ds.to_json()) == ds


class TestFingerprint:
    def test_hashes_the_compact_snapshot_document(self):
        ds = load_fixture(with_outcomes=True)
        compact = json.dumps(json.loads(ds.to_json()), separators=(",", ":"))
        assert ds.fingerprint() == hashlib.sha256(compact.encode()).hexdigest()
        assert ds.fingerprint() != hashlib.sha256(ds.to_json().encode()).hexdigest()

    def test_snapshot_is_one_line_that_hashes_to_it(self):
        text = load_fixture(with_outcomes=True).to_json()
        assert text.endswith("}\n") and text.count("\n") == 1
        ds = PanelDataset.from_json(text)
        assert ds.fingerprint() == hashlib.sha256(text[:-1].encode()).hexdigest()

    @given(panel_datasets())
    def test_invariant_under_snapshot_roundtrip(self, ds):
        assert PanelDataset.from_json(ds.to_json()).fingerprint() == ds.fingerprint()

    def test_numbers_are_stored_as_floats_through_a_snapshot(self):
        """An int or numpy value is stored as its float, so the snapshot
        reads back to the panel's own fingerprint."""
        import numpy as np

        ds = load_fixture(with_outcomes=True)
        key = ("global", "E1")
        series = ds.cells[key]
        values = (1, np.float64(2.5), np.int64(3)) + series.values[3:]
        cells = {**ds.cells, key: AnnualSeries(series.years, values)}
        numbers = PanelDataset(ds.regions, ds.indicators, cells)
        assert numbers.cells[key].values[:3] == (1.0, 2.5, 3.0)
        assert all(type(v) is float for v in numbers.cells[key].values[:3])
        assert PanelDataset.from_json(numbers.to_json()).fingerprint() == numbers.fingerprint()

    @pytest.mark.parametrize("indent", [None, 0, 4, "\t"])
    def test_independent_of_snapshot_indentation(self, indent):
        ds = load_fixture(with_outcomes=True)
        text = json.dumps(json.loads(ds.to_json()), indent=indent)
        assert PanelDataset.from_json(text).fingerprint() == ds.fingerprint()

    def test_one_ulp_changes_it(self):
        ds = load_fixture(with_outcomes=True)
        key = ("global", "E1")
        series = ds.cells[key]
        values = (math.nextafter(series.values[0], math.inf),) + series.values[1:]
        cells = {**ds.cells, key: AnnualSeries(series.years, values)}
        nudged = PanelDataset(ds.regions, ds.indicators, cells)
        assert nudged.fingerprint() != ds.fingerprint()
