import re
from collections import defaultdict

import numpy as np
import pytest

from paneldep.errors import (
    DomainError,
    InsufficientDataError,
    NonContiguousYearsError,
    SingularDesignError,
)
from paneldep.panel import AlignedPair, align_pair, load_fixture
from paneldep.special import f_sf
from paneldep.temporal import (
    first_difference,
    granger_test,
    lag_sweep,
    lag_sweeps,
    nested_rss,
)

from conftest import make_pair


class TestFirstDifference:
    def test_definition(self):
        assert first_difference((1, 3, 6)) == (2, 3)

    def test_constant_gives_zeros(self):
        assert first_difference((4.0, 4.0, 4.0)) == (0.0, 0.0)

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            first_difference((1.0,))

    def test_polynomial_collapses_to_constant(self):
        # degree-3 polynomial needs three passes to flatten
        t = np.arange(20, dtype=float)
        series = 2 * t**3 - 5 * t**2 + t - 7
        for _ in range(3):
            series = np.array(first_difference(series))
        assert np.all(np.abs(series - series[0]) < 1e-9)


class TestOlsRss:
    """Single-fit least-squares cases, checked through nested_rss."""

    def test_mean_model(self):
        rss_r, rss = nested_rss(np.ones((3, 1)), [1.0, 2.0, 3.0], 0)
        # the empty model's excess over the mean model is n * mean^2
        assert rss_r - rss == pytest.approx(3 * 2.0**2)
        assert rss == pytest.approx(2.0)

    def test_exact_fit_has_zero_rss(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(30), rng.normal(size=30)])
        y = 3.0 + 2.0 * X[:, 1]
        _, rss = nested_rss(X, y, 1)
        assert rss <= 1e-18 * float(y @ y)

    def test_duplicated_column_is_singular(self):
        X = np.column_stack([np.ones(10), np.arange(10.0), np.arange(10.0)])
        with pytest.raises(SingularDesignError) as exc_info:
            nested_rss(X, np.arange(10.0), 2)
        assert exc_info.value.rank == 2

    def test_needs_more_rows_than_columns(self):
        with pytest.raises(InsufficientDataError):
            nested_rss(np.ones((2, 2)), [1.0, 2.0], 1)

    def test_matches_two_separate_fits(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(40), rng.normal(size=(40, 4))])
        y = X @ [1.0, 0.5, -2.0, 0.1, 0.0] + rng.normal(size=40)
        rss_r, rss_ur = nested_rss(X, y, 2)
        for cols, rss in ((2, rss_r), (5, rss_ur)):
            _, (expected,), _, _ = np.linalg.lstsq(X[:, :cols], y, rcond=None)
            assert rss == pytest.approx(expected, rel=1e-12)

    def test_restricted_cols_out_of_range(self):
        for restricted_cols in (-1, 3):
            with pytest.raises(DomainError):
                nested_rss(np.ones((5, 2)), np.arange(5.0), restricted_cols)


class TestFTail:
    def test_zero_statistic(self):
        assert f_sf(0.0, 3, 7) == 1.0

    def test_equal_dof_at_one(self):
        for d in (1, 2, 5, 40):
            assert f_sf(1.0, d, d) == 0.5

    def test_pinned_value(self, tail_golden):
        for point in tail_golden["f"]:
            if point["f"] == 3.89 and point["d1"] == 1 and point["d2"] == 40:
                assert f_sf(3.89, 1, 40) == pytest.approx(point["sf"], abs=1e-9)
                return
        pytest.fail("golden grid lacks the pinned point")

    def test_golden_grid(self, tail_golden):
        for point in tail_golden["f"]:
            assert f_sf(point["f"], point["d1"], point["d2"]) == pytest.approx(
                point["sf"], abs=1e-10
            ), point

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            f_sf(-0.1, 1, 1)
        with pytest.raises(DomainError):
            f_sf(1.0, 0, 5)


def ar_pair(n, seed, beta_x=0.0, lag=2, rho=0.8, sigma=0.1):
    """y_t = rho*y_{t-1} + beta_x*x_{t-lag} + noise; x is white noise."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = np.zeros(n)
    eps = rng.normal(scale=sigma, size=n)
    for t in range(1, n):
        drive = beta_x * x[t - lag] if t >= lag else 0.0
        y[t] = rho * y[t - 1] + drive + eps[t]
    return make_pair(x, y)


class TestGranger:
    def test_perfect_one_step_predictability(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=50)
        y = np.empty(50)
        y[1:] = x[:-1]
        y[0] = 0.0
        result = granger_test(make_pair(x, y), lag=1)
        assert result.rss_unrestricted < 1e-18
        assert result.p_value < 1e-12

    def test_gap_rejected(self):
        pair = AlignedPair(tuple(map(float, range(30))),
                           tuple(map(float, range(30, 60))),
                           tuple(y for y in range(1990, 2021) if y != 2000))
        with pytest.raises(NonContiguousYearsError):
            granger_test(pair, lag=1)

    def test_nesting_holds(self):
        for seed in range(30):
            result = granger_test(ar_pair(80, seed, beta_x=0.3), lag=2)
            slack = 1e-9 * max(1.0, result.rss_restricted)
            assert result.rss_unrestricted <= result.rss_restricted + slack
            assert result.f_stat >= 0.0
            assert 0.0 <= result.p_value <= 1.0

    def test_scale_invariance_of_f(self):
        pair = ar_pair(100, 11, beta_x=0.4)
        base = granger_test(pair, lag=2)
        scaled = granger_test(
            AlignedPair(tuple(3.7 * v for v in pair.x),
                        tuple(0.002 * v for v in pair.y),
                        pair.years),
            lag=2,
        )
        assert scaled.f_stat == pytest.approx(base.f_stat, rel=1e-8)

    def test_direction_matters(self):
        forward = granger_test(ar_pair(200, 3, beta_x=0.5), lag=2)
        reverse = granger_test(ar_pair(200, 3, beta_x=0.5).swapped(), lag=2)
        assert forward.p_value < 0.01
        assert forward.p_value != reverse.p_value

    def test_difference_first_changes_design(self):
        pair = ar_pair(100, 9, beta_x=0.5)
        plain = granger_test(pair, lag=1)
        diffed = granger_test(pair, lag=1, difference_first=True)
        assert diffed.n_eff == plain.n_eff - 1

    def test_insufficient_length(self):
        with pytest.raises(InsufficientDataError):
            granger_test(make_pair(range(5), range(5, 10)), lag=2)


class TestLagSweep:
    def test_results_ordered_and_best_designated(self):
        sweep = lag_sweep(ar_pair(200, 21, beta_x=0.5, lag=2), max_lag=5)
        assert [r.lag for r in sweep.results] == [1, 2, 3, 4, 5]
        assert sweep.best.lag == 2
        assert not sweep.skipped

    def test_oversized_max_lag_records_skips(self):
        pair = ar_pair(20, 2, beta_x=0.0)
        sweep = lag_sweep(pair, max_lag=8)
        assert sweep.results
        assert sweep.skipped
        attempted = {r.lag for r in sweep.results} | {s.lag for s in sweep.skipped}
        assert attempted == set(range(1, 9))
        for skip in sweep.skipped:
            assert "lag" in skip.reason

    def test_tie_breaks_toward_small_lag(self):
        # near-perfect predictability keeps every design full rank while
        # the p-value underflows to an exact zero at every lag
        rng = np.random.default_rng(8)
        x = rng.normal(size=60)
        y = np.empty(60)
        y[1:] = x[:-1] + 1e-8 * rng.normal(size=59)
        y[0] = 0.0
        sweep = lag_sweep(make_pair(x, y), max_lag=3)
        assert {r.p_value for r in sweep.results} == {0.0}
        assert sweep.best.lag == 1

    def test_too_short_for_lag_one(self):
        with pytest.raises(InsufficientDataError):
            lag_sweep(make_pair([1, 2, 3], [4, 5, 6]), max_lag=2)

    def test_every_lag_singular_is_a_singular_design(self):
        # long enough for every lag, but a constant x repeats the intercept
        y = np.random.default_rng(31).normal(size=30)
        with pytest.raises(SingularDesignError, match="lag 4: design is rank deficient"):
            lag_sweep(make_pair(np.full(30, 2.5), y), max_lag=4)


class TestLagSweeps:
    def test_batch_matches_each_pair_alone(self):
        """A singular design skips only its own pair's lag; every other
        sweep in the batch equals that pair's lag_sweep, reasons included."""
        rng = np.random.default_rng(31)
        n = 30
        y = rng.normal(size=n)
        pairs = [make_pair(rng.normal(size=n), y) for _ in range(3)]
        pairs.insert(1, make_pair(np.full(n, 2.5), y))  # every lag singular
        # x[t] = y[t + 1]: from lag 2 on, an x lag repeats a y lag
        pairs.append(make_pair(np.append(y[1:], 0.0), y))
        sweeps = lag_sweeps(pairs, max_lag=4)
        assert isinstance(sweeps[1], SingularDesignError)
        with pytest.raises(SingularDesignError):
            granger_test(pairs[1], 2)
        assert [r.lag for r in sweeps[-1].results] == [1]
        assert [s.lag for s in sweeps[-1].skipped] == [2, 3, 4]
        assert all("rank deficient" in s.reason for s in sweeps[-1].skipped)
        for i, (pair, sweep) in enumerate(zip(pairs, sweeps)):
            if i != 1:
                assert repr(sweep) == repr(lag_sweep(pair, max_lag=4))

    def test_batch_mixes_years(self):
        """Pairs of any years, lengths and gaps go in one call; each gets
        what its own lag_sweep gives or raises."""
        rng = np.random.default_rng(5)
        pairs = [make_pair(rng.normal(size=n), rng.normal(size=n), start_year=start)
                 for n, start in ((20, 2000), (20, 2001), (26, 1990), (4, 2000),
                                  (20, 2000))]
        gapped = make_pair(range(12), rng.normal(size=12))
        pairs.insert(2, AlignedPair(gapped.x, gapped.y,
                                    (*range(2000, 2006), *range(2007, 2013))))
        sweeps = lag_sweeps(pairs, max_lag=3)
        assert isinstance(sweeps[2], NonContiguousYearsError)
        assert isinstance(sweeps[4], InsufficientDataError)
        for pair, sweep in zip(pairs, sweeps):
            if isinstance(sweep, Exception):
                with pytest.raises(type(sweep), match=re.escape(str(sweep))):
                    lag_sweep(pair, max_lag=3)
            else:
                assert repr(sweep) == repr(lag_sweep(pair, max_lag=3))


class TestFixtureOracle:
    def test_sweep_matches_extended_precision_fits(self, granger_golden):
        """Every fixture indicator pair, every lag, against 50-digit fits."""
        ds = load_fixture()
        by_pair = defaultdict(dict)
        for fit in granger_golden["fits"]:
            by_pair[fit["x"], fit["y"]][fit["lag"]] = fit
        for (x, y), fits in by_pair.items():
            pair = align_pair(ds.series("global", x), ds.series("global", y), 3)
            sweep = lag_sweep(pair, max_lag=5)
            assert {r.lag for r in sweep.results} == set(fits), (x, y)
            for result in sweep.results:
                fit = fits[result.lag]
                assert result.n_eff == fit["n_eff"]
                for key in ("rss_restricted", "rss_unrestricted", "f_stat"):
                    assert getattr(result, key) == pytest.approx(
                        fit[key], rel=1e-11, abs=0
                    ), (x, y, result.lag, key)


class TestCalibration:
    def test_null_rejection_rate(self):
        # quick version; the acceptance suite runs the full 1000 seeds
        hits = 0
        trials = 300
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            pair = make_pair(rng.normal(size=200), rng.normal(size=200))
            if granger_test(pair, lag=1).p_value < 0.05 :
                hits += 1
        assert 0.02 <= hits / trials <= 0.09

    def test_planted_lag_two_power(self):
        detected = 0
        for seed in range(40):
            result = granger_test(ar_pair(200, seed, beta_x=0.5, lag=2), lag=2)
            detected += result.p_value < 0.01
        assert detected >= 38
