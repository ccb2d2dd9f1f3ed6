import numpy as np
import pytest

from paneldep.battery import (
    BatteryConfig,
    canonical_columns,
    plan_battery,
    run_battery,
    summarize_lags,
)
from paneldep.errors import ConfigError
from paneldep.panel import (
    AgeGroup,
    AnnualSeries,
    PanelDataset,
    load_fixture,
    outcome_code,
    _classify_code,
    align_pair,
)
from paneldep.temporal import lag_sweep

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
        import paneldep.battery as battery

        calls = []
        align = battery.align_pair

        def counting_align(*args, **kwargs):
            calls.append(args)
            return align(*args, **kwargs)

        monkeypatch.setattr(battery, "align_pair", counting_align)
        ds, config = fixture_config()
        matrices = run_battery(ds, config)
        assert len(matrices) == 12
        assert len(calls) == 3 * 15  # outcomes x indicators, not x methods

    def test_gapped_pairs_share_one_granger_call(self, monkeypatch):
        import paneldep.temporal as temporal

        batches = []
        sweeps = temporal.lag_sweeps

        def recording_sweeps(pairs, *args):
            batches.append(list(pairs))
            return sweeps(pairs, *args)

        monkeypatch.setattr(temporal, "lag_sweeps", recording_sweeps)
        ds, config = fixture_config(methods=("granger",))
        matrices = run_battery(ds, config)
        (pairs,) = batches  # one call for the whole run
        # the 9 full series, ED4, S3, T1 with T3, T4 and T5: six year spans
        firsts = sorted({pair.years[0] for pair in pairs})
        assert firsts == [1991, 1999, 2000, 2001, 2005, 2010]
        cells = 0
        for matrix in matrices:
            for (region, code), cell in matrix.cells.items():
                pair = align_pair(ds.series(region, code),
                                  ds.series(region, matrix.outcome), config.min_overlap)
                assert repr(cell.result) == repr(lag_sweep(pair, config.max_lag).best)
                cells += 1
        assert cells == len(pairs)

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

    def test_determinism(self):
        ds, config = fixture_config()
        first = run_battery(ds, config)
        second = run_battery(ds, config)
        assert first == second


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
