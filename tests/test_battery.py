import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paneldep.table
from conftest import replica
from paneldep.battery import (
    BatteryConfig,
    MatrixCell,
    canonical_columns,
    plan_battery,
    run_battery,
    summarize_lags,
)
from paneldep.errors import (
    ConfigError,
    DegenerateInputError,
    DomainError,
    InsufficientDataError,
    InsufficientOverlapError,
    NonContiguousYearsError,
    PanelDepError,
    SingularDesignError,
)
from paneldep.info import default_mi_bins, mic, mutual_information, mutual_informations_over
from paneldep.linear import pearson, pearsons_over
from paneldep.panel import (
    AgeGroup,
    AnnualSeries,
    PanelDataset,
    load_fixture,
    outcome_code,
    _classify_code,
    align_pair,
)
from paneldep.table import PairTable
from paneldep.temporal import best_fits_over, lag_sweep

ALL_METHODS = ("pearson", "mutual_information", "granger", "mic")


def fixture_config(methods=ALL_METHODS, **overrides):
    ds = load_fixture(with_outcomes=True)
    outcomes = tuple(i.code for i in ds.indicators if i.category == "MentalHealth")
    indicators = tuple(i.code for i in ds.indicators if i.category != "MentalHealth")
    config = BatteryConfig(methods=tuple(methods), outcomes=outcomes,
                           indicators=indicators, **overrides)
    return ds, config


class TestConfig:
    def test_unknown_method(self):
        ds, config = fixture_config()
        bad = BatteryConfig(methods=("spearman",), outcomes=config.outcomes,
                            indicators=config.indicators)
        with pytest.raises(ConfigError):
            bad.validate(ds)

    def test_unknown_code_rejected_before_compute(self):
        ds, config = fixture_config()
        bad = BatteryConfig(methods=("pearson",), outcomes=("nope",),
                            indicators=config.indicators)
        with pytest.raises(ConfigError, match="nope"):
            run_battery(ds, bad)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            BatteryConfig.from_dict({"max_lags": 3})

    def test_roundtrip_dict(self):
        _, config = fixture_config()
        assert BatteryConfig.from_dict(config.to_dict()) == config

    def test_canonical_column_order(self):
        assert canonical_columns(["T5", "E1", "ED4", "custom", "S1"]) == (
            "E1", "ED4", "S1", "T5", "custom"
        )


class TestRunBattery:
    def test_shapes_and_completeness(self):
        ds, config = fixture_config()
        matrices = run_battery(ds, config)
        assert len(matrices) == 12  # 4 methods x 3 outcomes
        for matrix in matrices:
            assert matrix.rows == ("global",)
            assert len(matrix.cols) == 15
            assert matrix.complete()

    def test_plan_is_the_run_layout(self):
        ds, config = fixture_config()
        plan = plan_battery(ds, config)

        def layout(matrices):
            return [(m.method, m.outcome, m.stem) for m in matrices]

        assert layout(plan) == layout(run_battery(ds, config))
        assert all(not m.cells and not m.skips for m in plan)
        assert plan[0].stem == "pearson__synthetic-burden_DALYs_all__all"
        with pytest.raises(DomainError, match="is planned, not filled"):
            plan[0].held()

    def test_outcomes_sharing_a_stem_are_refused(self):
        ds = PanelDataset(
            regions=("global",),
            indicators=tuple(_classify_code(c) for c in ("E1", "X/a", "X a")),
            cells={("global", c): AnnualSeries((2000, 2001, 2002), (1.0, 2.0, v))
                   for c, v in (("E1", 3.0), ("X/a", 5.0), ("X a", 4.0))},
        )
        config = BatteryConfig(methods=("pearson",), outcomes=("X/a", "X a"),
                               indicators=("E1",), min_overlap=3)
        with pytest.raises(ConfigError, match=r"'X/a' and 'X a' both write files "
                                              r"named pearson__X_a__all\.\*"):
            plan_battery(ds, config)
        with pytest.raises(ConfigError, match="'X/a' and 'X a'"):
            run_battery(ds, config)

    def test_one_matrix_per_method_age_outcome(self):
        ds, config = fixture_config()
        matrices = run_battery(ds, config)
        seen = {(m.method, m.age_group, m.outcome) for m in matrices}
        assert len(seen) == 12
        ages = {m.age_group for m in matrices}
        assert ages == {AgeGroup.ALL_AGES, AgeGroup.AGE_20_39, AgeGroup.AGE_40_PLUS}

    def test_columns_follow_registry_order(self):
        ds, config = fixture_config(methods=("pearson",))
        matrix = run_battery(ds, config)[0]
        assert matrix.cols == (
            "E1", "E2", "E3", "ED1", "ED2", "ED3", "ED4",
            "S1", "S2", "S3", "T1", "T2", "T3", "T4", "T5",
        )

    def test_insufficient_overlap_is_a_skip(self):
        ds, config = fixture_config(min_overlap=20)
        matrices = run_battery(ds, config)
        assert {m.method for m in matrices} == set(ALL_METHODS)
        for matrix in matrices:
            # T4 has only 14 populated years against a full outcome series
            assert matrix.skips[("global", "T4")] == "insufficient-overlap"
            assert matrix.complete()

    def test_each_pair_aligned_once(self, monkeypatch):
        import paneldep.panel as panel
        from paneldep.table import PairTable

        def no_align(*args, **kwargs):
            raise AssertionError("run_battery aligns through its pair table")

        tables = []
        of_panel = PairTable.of_panel.__func__

        def recording_of_panel(cls, *args):
            tables.append(of_panel(cls, *args))
            return tables[-1]

        monkeypatch.setattr(panel, "align_pair", no_align)
        monkeypatch.setattr(PairTable, "of_panel", classmethod(recording_of_panel))
        ds, config = fixture_config(min_overlap=20)
        matrices = run_battery(ds, config)
        assert len(matrices) == 12
        (table,) = tables  # one table for every method
        assert table.size == 3 * 15  # outcomes x indicators, not x methods
        places = [p for group in table.groups for p in group.places.tolist()]
        places += table.missing.tolist() + table.short.tolist()
        assert sorted(places) == list(range(table.size))  # each triple placed once
        assert not table.missing.size
        # every overlap skip, with its count, is known before any kernel runs
        cols = matrices[0].cols
        short = {}
        for place, overlap in zip(table.short.tolist(), table.overlaps.tolist()):
            outcome, col = divmod(place, len(cols))
            short[(config.outcomes[outcome], cols[col])] = overlap
        expected = {}
        for outcome in config.outcomes:
            for code in cols:
                try:
                    align_pair(ds.series("global", code), ds.series("global", outcome), 20)
                except InsufficientOverlapError as exc:
                    expected[(outcome, code)] = exc.overlap
        assert short == expected
        assert {count for (_, code), count in short.items() if code == "T4"} == {14}

    def test_gapped_pairs_share_one_granger_call(self, monkeypatch):
        import paneldep.temporal as temporal

        batches = []
        fits = temporal._fits

        def recording_fits(table, *args):
            batches.append(table)
            return fits(table, *args)

        monkeypatch.setattr(temporal, "_fits", recording_fits)
        ds, config = fixture_config(methods=("granger",))
        matrices = run_battery(ds, config)
        (table,) = batches  # one call for the whole run
        # the 9 full series, ED4, S3, T1 with T3, T4 and T5: six year spans
        firsts = sorted({table.years[m][0] for group in table.groups
                         for m in group.mask.tolist()})
        assert firsts == [1991, 1999, 2000, 2001, 2005, 2010]
        cells = 0
        for matrix in matrices:
            for (region, code), cell in matrix.cells.items():
                pair = align_pair(ds.series(region, code),
                                  ds.series(region, matrix.outcome), config.min_overlap)
                assert repr(cell.result) == repr(lag_sweep(pair, config.max_lag).best)
                cells += 1
        assert cells == sum(len(group.places) for group in table.groups)

    def test_lags_no_pair_can_fit_change_nothing(self):
        # the fixture's longest pair has 33 years, so no lag past 10 fits;
        # differenced, lag 10 is the best lag of some pairs
        ds, unbounded = fixture_config(methods=("granger",), max_lag=10**9,
                                       difference_first=True)
        _, fitted = fixture_config(methods=("granger",), max_lag=10,
                                   difference_first=True)
        matrices = run_battery(ds, unbounded)
        assert matrices == run_battery(ds, fitted)
        for matrix in matrices:
            for (region, code), cell in matrix.cells.items():
                pair = align_pair(ds.series(region, code),
                                  ds.series(region, matrix.outcome))
                assert repr(cell.result) == repr(lag_sweep(pair, 10, True).best)

    @pytest.mark.parametrize("difference_first, longest", [(False, 10), (True, 9)])
    def test_granger_asks_only_for_lags_some_pair_fits(self, monkeypatch,
                                                       difference_first, longest):
        # 32 points fit lags up to 10; differenced to 31, up to 9
        import paneldep.temporal as temporal

        asked = []
        fits = temporal._fits

        def recording_fits(table, lags, *args):
            asked.append(list(lags))
            return fits(table, lags, *args)

        monkeypatch.setattr(temporal, "_fits", recording_fits)
        ds, (outcome,) = planted_lag_dataset({"E1": 1}, n=32)
        run_battery(ds, BatteryConfig(methods=("granger",), outcomes=(outcome,),
                                      indicators=("E1",), max_lag=10**9,
                                      difference_first=difference_first))
        assert asked == [list(range(1, longest + 1))]

    def test_mic_skips_short_series(self):
        ds, config = fixture_config(methods=("mic",))
        matrix = run_battery(ds, config)[0]
        assert matrix.skips[("global", "T4")] == "insufficient-data"
        assert ("global", "E1") in matrix.cells

    def test_method_independence(self):
        ds, config = fixture_config()
        full = {
            (m.method, m.outcome): m for m in run_battery(ds, config)
        }
        ds2, reduced = fixture_config(methods=("pearson", "mic"))
        for matrix in run_battery(ds2, reduced):
            reference = full[(matrix.method, matrix.outcome)]
            assert matrix.cells == reference.cells
            assert matrix.skips == reference.skips

    def test_symmetric_methods_ignore_labeling(self):
        ds, config = fixture_config(methods=("pearson", "mic"))
        outcome = config.outcomes[0]
        swapped = BatteryConfig(
            methods=("pearson", "mic"),
            outcomes=("E2",),
            indicators=(outcome,),
            min_overlap=config.min_overlap,
        )
        forward = run_battery(ds, BatteryConfig(
            methods=("pearson", "mic"), outcomes=(outcome,), indicators=("E2",),
        ))
        backward = run_battery(ds, swapped)
        for f, b in zip(forward, backward):
            fv = f.cells[("global", "E2")].result
            bv = b.cells[("global", outcome)].result
            if f.method == "pearson":
                assert abs(fv.r - bv.r) <= 1e-12
            else:
                assert abs(fv.mic - bv.mic) <= 1e-12

    def test_granger_direction_is_indicator_to_outcome(self):
        ds, _ = fixture_config()
        outcome = outcome_code("synthetic-burden", "DALYs", AgeGroup.ALL_AGES)
        forward = run_battery(ds, BatteryConfig(
            methods=("granger",), outcomes=(outcome,), indicators=("E1",),
        ))[0]
        reverse = run_battery(ds, BatteryConfig(
            methods=("granger",), outcomes=(outcome,), indicators=("E1",),
            granger_reverse=True,
        ))[0]
        fcell = forward.cells[("global", "E1")].result
        rcell = reverse.cells[("global", "E1")].result
        assert fcell.p_value != rcell.p_value

    def test_missing_series_skip(self):
        series = AnnualSeries(tuple(range(2000, 2020)),
                              tuple(float(i) for i in range(20)))
        wiggle = AnnualSeries(
            tuple(range(2000, 2020)),
            tuple(float(i % 7) + 0.1 * i for i in range(20)),
        )
        ds = PanelDataset(
            regions=("R1", "R2"),
            indicators=(_classify_code("E1"), _classify_code("dep|DALYs|all")),
            cells={
                ("R1", "E1"): series,
                ("R1", "dep|DALYs|all"): wiggle,
                ("R2", "dep|DALYs|all"): wiggle,
            },
        )
        config = BatteryConfig(methods=ALL_METHODS, outcomes=("dep|DALYs|all",),
                               indicators=("E1",))
        matrices = run_battery(ds, config)
        assert [m.method for m in matrices] == list(ALL_METHODS)
        for matrix in matrices:
            assert matrix.skips[("R2", "E1")] == "missing-series"
            assert matrix.complete()
        assert ("R1", "E1") in matrices[0].cells

    def test_every_lag_singular_is_tagged_singular_design(self):
        years = tuple(range(2000, 2030))
        wiggle = tuple(float(i % 7) + 0.1 * i for i in range(30))
        ds = PanelDataset(
            regions=("R",),
            indicators=(_classify_code("E1"), _classify_code("dep|DALYs|all")),
            cells={
                ("R", "E1"): AnnualSeries(years, (2.5,) * 30),  # repeats the intercept
                ("R", "dep|DALYs|all"): AnnualSeries(years, wiggle),
            },
        )
        config = BatteryConfig(methods=("granger",), outcomes=("dep|DALYs|all",),
                               indicators=("E1",), max_lag=4)
        (matrix,) = run_battery(ds, config)
        assert matrix.skips == {("R", "E1"): "singular-design"}

    def test_a_matrix_is_never_changed(self):
        ds, config = fixture_config(methods=("pearson",))
        matrix = run_battery(ds, config)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            matrix.tags = None
        with pytest.raises(TypeError):
            matrix.cells[("global", "E1")] = matrix.cells[("global", "E2")]
        with pytest.raises(TypeError):
            matrix.skips[("global", "E1")] = "missing-series"

    def test_cells_and_skips_read_the_columns_and_tags(self):
        """Each cell read on its own from ``columns`` and ``tags``, row-major,
        on a run with missing-series, insufficient-overlap and
        singular-design skips."""
        years = tuple(range(2000, 2030))
        wiggle = AnnualSeries(years, tuple(float(i % 7) + 0.1 * i for i in range(30)))
        rising = AnnualSeries(years, tuple(float(i % 5) - 0.2 * i for i in range(30)))
        short = AnnualSeries(years, tuple(v if i < 4 else None
                                          for i, v in enumerate(rising.values)))
        flat = AnnualSeries(years, (2.5,) * 30)  # repeats Granger's intercept
        codes = ("E1", "E2", "dep|DALYs|all")
        ds = PanelDataset(
            regions=("R1", "R2", "R3"),
            indicators=tuple(_classify_code(c) for c in codes),
            cells={
                ("R1", "E1"): rising, ("R1", "E2"): flat, ("R1", "dep|DALYs|all"): wiggle,
                ("R2", "E1"): short, ("R2", "dep|DALYs|all"): wiggle,
                ("R3", "E1"): rising, ("R3", "E2"): rising,
            },
        )
        config = BatteryConfig(methods=ALL_METHODS, outcomes=("dep|DALYs|all",),
                               indicators=("E1", "E2"))
        tags_seen = set()
        for matrix in run_battery(ds, config):
            cells, skips = {}, {}
            for ri, region in enumerate(matrix.rows):
                for ci, code in enumerate(matrix.cols):
                    if (tag := matrix.tags[ri, ci]) is not None:
                        skips[region, code] = tag
                        continue
                    values = {name: column[ri, ci].item()
                              for name, column in matrix.columns.items()}
                    result = matrix.kind(**{f.name: values[f.name]
                                            for f in dataclasses.fields(matrix.kind)})
                    cells[region, code] = MatrixCell(values["n"], result)
            assert repr(list(matrix.cells.items())) == repr(list(cells.items()))
            assert list(matrix.skips.items()) == list(skips.items())
            tags_seen |= set(skips.values())
        assert {"missing-series", "insufficient-overlap", "singular-design"} <= tags_seen

    def test_determinism(self):
        ds, config = fixture_config()
        first = run_battery(ds, config)
        second = run_battery(ds, config)
        assert first == second


OUTCOMES = ("dep|DALYs|all", "dep|DALYs|40+")
INDICATORS = ("E1", "E2", "T1")
TAGS = {InsufficientDataError: "insufficient-data", DegenerateInputError: "degenerate-input",
        NonContiguousYearsError: "non-contiguous-years", SingularDesignError: "singular-design"}


@st.composite
def gapped_panels(draw):
    """Panels of one to three regions whose series are absent, full or
    gapped on a shared header of years (as a wide CSV gives them), on
    years of their own (as a long CSV does), constant, or a 0.0/-0.0 twin
    of another series."""
    start = draw(st.sampled_from((1990, 2001)))
    header = tuple(range(start, start + draw(st.one_of(st.integers(4, 12),
                                                       st.integers(25, 32)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    regions = tuple(f"R{i}" for i in range(draw(st.integers(1, 3))))
    cells = {}
    for region in regions:
        for code in INDICATORS + OUTCOMES:
            kind = draw(st.sampled_from(("full", "full", "gapped", "long", "long", "missing",
                                         "constant", "twin")))
            if kind == "missing":
                continue
            if kind == "twin" and cells:
                twin = cells[draw(st.sampled_from(sorted(cells)))]
                zero = list(twin.values)
                zero[draw(st.integers(0, len(zero) - 1))] = 0.0
                cells[(region, code)] = AnnualSeries(
                    twin.years, tuple(-0.0 if v == 0.0 else v for v in zero))
                continue
            years = header
            if kind == "long":  # a run of years, some of them dropped
                first = start + int(rng.integers(-3, 4))
                years = tuple(y for y in range(first, first + len(header) + 3)
                              if rng.random() > 0.05)
            if kind == "constant":
                values = [1.5] * len(years)
            elif rng.random() < 0.5:
                values = (rng.integers(-4, 5, len(years)) / 2).tolist()
            else:
                values = rng.normal(size=len(years)).tolist()
            if kind == "gapped":
                values = [None if rng.random() < 0.15 else v for v in values]
                values[int(rng.integers(len(values)))] = 0.25
            cells[(region, code)] = AnnualSeries(years, tuple(values))
    codes = INDICATORS + OUTCOMES
    return PanelDataset(regions, tuple(_classify_code(c) for c in codes), cells)


def pair_cell(ds, config, method, outcome, key):
    """What the kernel's own call on ``align_pair``'s pair gives one cell: a
    skip tag, or (n, result)."""
    x, y = ds.series(*key), ds.series(key[0], outcome)
    if x is None or y is None:
        return "missing-series"
    try:
        pair = align_pair(x, y, config.min_overlap)
    except InsufficientOverlapError:
        return "insufficient-overlap"
    try:
        if method == "pearson":
            result = pearson(pair)
        elif method == "mutual_information":
            result = mutual_information(pair, config.mi_bins or default_mi_bins(pair.n),
                                        config.mi_strategy)
        elif method == "granger":
            directed = pair.swapped() if config.granger_reverse else pair
            result = lag_sweep(directed, config.max_lag, config.difference_first).best
        else:
            result = mic(pair, config.mic_alpha, config.mic_clumps, config.mic_normalization)
    except PanelDepError as exc:
        return TAGS[type(exc)]
    return pair.n, result


@settings(max_examples=40, deadline=None)
@given(gapped_panels(), st.integers(3, 8), st.integers(1, 3), st.booleans(), st.booleans(),
       st.sampled_from((None, 2, 4)), st.sampled_from(("equal-frequency", "equal-width")),
       st.sampled_from((1, 15)), st.sampled_from((INDICATORS, INDICATORS + OUTCOMES[:1])))
def test_every_cell_is_the_kernel_call_on_its_aligned_pair(
        ds, min_overlap, max_lag, difference_first, granger_reverse, mi_bins, strategy,
        clumps, indicators):
    """An indicator list may name an outcome code too: that code's series
    is then paired with itself, once per region."""
    config = BatteryConfig(methods=ALL_METHODS, outcomes=OUTCOMES, indicators=indicators,
                           min_overlap=min_overlap, max_lag=max_lag,
                           difference_first=difference_first,
                           granger_reverse=granger_reverse, mi_bins=mi_bins,
                           mi_strategy=strategy, mic_clumps=clumps)
    for matrix in run_battery(ds, config):
        assert matrix.complete()
        for region in ds.regions:
            for code in matrix.cols:
                key = (region, code)
                expected = pair_cell(ds, config, matrix.method, matrix.outcome, key)
                if isinstance(expected, str):
                    assert matrix.skips[key] == expected, (matrix.method, key)
                else:
                    cell = matrix.cells[key]
                    assert (cell.n, repr(cell.result)) == (expected[0], repr(expected[1]))


@pytest.mark.parametrize("layout", ["shared-ends", "scattered"])
def test_far_apart_years_allocate_by_the_pairs_not_the_span(layout):
    """Far-apart years in one panel: nothing is laid out over the years
    between them, nor over every year that some series holds. In the
    "shared-ends" layout every series holds years 1-15 and 9985-9999; in
    "scattered" a region's series share 20 years drawn from 1000-9999, and
    each holds 10 years of its own."""
    rng = np.random.default_rng(0)
    span = np.arange(1000, 10000)
    regions = tuple(f"R{i}" for i in range(40))
    cells = {}
    for region in regions:
        if layout == "scattered":
            common = rng.choice(span, 20, replace=False)
        for code in ("E1", "dep|DALYs|all"):
            if layout == "shared-ends":
                years = tuple(range(1, 16)) + tuple(range(9985, 10000))
            else:
                own = rng.choice(np.setdiff1d(span, common), 10, replace=False)
                years = tuple(sorted(np.concatenate((common, own)).tolist()))
            values = [None if rng.random() < 0.1 else v for v in rng.normal(size=len(years))]
            values[0] = 1.0
            cells[(region, code)] = AnnualSeries(years, tuple(values))
    ds = PanelDataset(regions, (_classify_code("E1"), _classify_code("dep|DALYs|all")),
                      cells)
    config = BatteryConfig(methods=("pearson", "mutual_information"),
                           outcomes=("dep|DALYs|all",), indicators=("E1",))
    run_battery(ds, config)  # imports the kernels and numpy
    tracemalloc.start()
    try:
        matrices = run_battery(ds, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(matrices[0].cells) + len(matrices[0].skips) == 40
    # one float64 array over the 9,999-year span would take 80 kB per series,
    # and one over the scattered layout's ~1,600 distinct years 13 kB
    assert peak < 1_000_000, peak


#: Runs whose result columns must not depend on the slice cap: every method,
#: then Granger with differencing and in reverse, the two switches that
#: change its stacks.
SLICED_RUNS = ({"methods": ALL_METHODS},
               {"methods": ("granger",), "difference_first": True},
               {"methods": ("granger",), "granger_reverse": True})


def column_bits(ds, outcomes, indicators) -> list:
    """Every tag array and result column of each run of ``SLICED_RUNS``,
    each float column as its uint64 bits."""
    found = []
    for overrides in SLICED_RUNS:
        config = BatteryConfig(outcomes=outcomes, indicators=indicators, **overrides)
        for matrix in run_battery(ds, config):
            found.append((matrix.stem, "tags", matrix.tags))
            for name, column in sorted(matrix.columns.items()):
                found.append((matrix.stem, name,
                              column.view(np.uint64) if column.dtype == float else column))
    return found


@pytest.mark.parametrize("cap", [1, 10**9], ids=["one-pair-slices", "whole-stacks"])
@pytest.mark.parametrize("panel", ["fixture", "replica-10"])
def test_the_slice_cap_moves_no_bit(monkeypatch, cap, panel):
    """Slices of one pair and stacks of a whole length group give every
    result the bits that the default cap gives."""
    if panel == "fixture":
        ds, config = fixture_config()
        codes = (config.outcomes, config.indicators)
    else:
        ds, *codes = replica(10)
    expected = column_bits(ds, *codes)
    monkeypatch.setattr(paneldep.table, "_STACK_ELEMENTS", cap)
    found = column_bits(ds, *codes)
    assert [key for *key, _ in found] == [key for *key, _ in expected]
    for (*key, column), (_, _, reference) in zip(found, expected):
        assert np.array_equal(column, reference), key


def test_kernel_memory_does_not_grow_with_the_pairs():
    """From the seed-1 10-region replica (450 pairs) to the 100-region one
    (4,500 pairs), the traced peak of the Pearson, MI and Granger batches
    grows by at most the bytes of their output columns plus a stated
    allowance. The allowance covers what grows by design: the per-row work
    of each length group, which grows with the series, not the pairs
    (about 0.6 MB of rows at 100 regions, held a few times over), and a
    tail batch, whose elements each hold about 60 float64 values and which
    takes at most the cap's elements (a full F tail batch traces about
    6.5 MB). Pair stacks built whole per length group grow Pearson by
    3.5 MB, MI by 3.7 MB and Granger by 18.8 MB here, which fails this;
    sliced, they grow by 2.4, 2.2 and 8.3 MB."""
    allowance = {"pearson": 3.0e6, "mutual_information": 3.0e6, "granger": 10.0e6}
    kernels = {"pearson": pearsons_over,
               "mutual_information": lambda table: mutual_informations_over(table, None),
               "granger": lambda table: best_fits_over(table, 5)}
    peaks = {}
    for regions in (10, 100):
        ds, outcomes, indicators = replica(regions)
        table = PairTable.of_panel(ds, outcomes, indicators, 3)
        for name, kernel in kernels.items():
            kernel(table)  # loads numpy's lazy parts outside the trace
            tracemalloc.start()
            try:
                columns = kernel(table)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            outputs = sum(column.nbytes for column in columns.values.values()
                          if column.flags.owndata)
            peaks[name, regions] = peak, outputs
    for name, extra in allowance.items():
        (small, _), (large, outputs) = peaks[name, 10], peaks[name, 100]
        assert large <= small + outputs + extra, (name, small, large, outputs)


def planted_lag_dataset(lag_by_code, n=120, seed=0):
    """Outcome driven by each indicator at a code-specific lag."""
    rng = np.random.default_rng(seed)
    years = tuple(range(1900, 1900 + n))
    cells = {}
    indicators = []
    outcome = outcome_code("synthetic", "DALYs", AgeGroup.ALL_AGES)
    for code, lag in lag_by_code.items():
        x = rng.normal(size=n)
        y = np.zeros(n)
        eps = rng.normal(scale=0.05, size=n)
        for t in range(n):
            drive = 0.9 * x[t - lag] if t >= lag else 0.0
            y[t] = 0.2 * y[t - 1] + drive + eps[t]
        indicators.append(_classify_code(code))
        cells[("R", code)] = AnnualSeries(years, tuple(x))
        cells[("R", f"{code}-out")] = AnnualSeries(years, tuple(y))
    # one shared outcome per indicator is clearer for the summary test,
    # so expose each planted response under its own outcome code
    out_codes = []
    for code in lag_by_code:
        oc = outcome_code(f"resp-{code}", "DALYs", AgeGroup.ALL_AGES)
        cells[("R", oc)] = cells.pop(("R", f"{code}-out"))
        indicators.append(_classify_code(oc))
        out_codes.append(oc)
    return PanelDataset(("R",), tuple(indicators), cells), out_codes


class TestSummarizeLags:
    def test_counts_per_category(self):
        ds, out_codes = planted_lag_dataset({"ED1": 3, "ED2": 3, "E1": 1})
        matrices = []
        for code, oc in zip(("ED1", "ED2", "E1"), out_codes):
            config = BatteryConfig(methods=("granger",), outcomes=(oc,),
                                   indicators=(code,), max_lag=5)
            matrices.extend(run_battery(ds, config))
        summary = summarize_lags(matrices)
        education = [v for (cat, _), v in summary.items() if cat == "Education"]
        assert all(max(v, key=v.get) == 3 for v in education)
        economic = [v for (cat, _), v in summary.items() if cat == "Economic"]
        assert all(max(v, key=v.get) == 1 for v in economic)

    def test_counting_shape(self):
        ds, out_codes = planted_lag_dataset({"E1": 2, "E2": 2, "E3": 1})
        config = BatteryConfig(methods=("granger",), outcomes=(out_codes[0],),
                               indicators=("E1", "E2", "E3"), max_lag=4)
        summary = summarize_lags(run_battery(ds, config))
        (key, counts), = summary.items()
        assert key[0] == "Economic"
        assert sum(counts.values()) == 3

    def test_non_granger_rejected(self):
        ds, config = fixture_config(methods=("pearson",))
        matrices = run_battery(ds, config)
        with pytest.raises(TypeError):
            summarize_lags(matrices)

    def test_empty_matrices_give_empty_summary(self):
        assert summarize_lags([]) == {}
