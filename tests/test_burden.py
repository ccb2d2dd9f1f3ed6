import sys

import pytest
from hypothesis import assume, given, strategies as st

from paneldep.burden import (
    BurdenInput,
    BurdenSummary,
    DisabilityWeights,
    LifeTable,
    age_standardize,
    band_rates,
    compute_daly,
    compute_yld,
    compute_yll,
    load_band_csv,
    load_weights_csv,
)
from paneldep.errors import (
    DomainError,
    MissingBandError,
    MissingWeightError,
    NormalizationError,
    ParseError,
)

counts = st.dictionaries(
    st.sampled_from(["a1", "a2", "a3", "a4"]),
    st.floats(0, 1e6, allow_nan=False, allow_subnormal=False),
    max_size=4,
)


def test_yll_direct():
    assert compute_yll({"a1": 10}, LifeTable({"a1": 30})) == 300


def test_yll_empty_sum():
    assert compute_yll({}, LifeTable({"a1": 30})) == 0


def test_yll_two_terms():
    table = LifeTable({"a1": 30, "a2": 10})
    assert compute_yll({"a1": 10, "a2": 5}, table) == 350


def test_yll_missing_band_named():
    with pytest.raises(MissingBandError, match="a9"):
        compute_yll({"a9": 1}, LifeTable({"a1": 30}))


def test_yld_direct():
    weights = DisabilityWeights({("dep", "a1"): 0.2})
    assert compute_yld({"a1": 100}, weights, "dep") == pytest.approx(20)


def test_yld_zero_weight():
    weights = DisabilityWeights({("dep", "a1"): 0.0})
    assert compute_yld({"a1": 100}, weights, "dep") == 0


def test_yld_two_terms():
    weights = DisabilityWeights({("dep", "a1"): 0.2, ("dep", "a2"): 0.4})
    assert compute_yld({"a1": 100, "a2": 50}, weights, "dep") == pytest.approx(40)


def test_yld_missing_weight():
    weights = DisabilityWeights({("dep", "a1"): 0.2})
    with pytest.raises(MissingWeightError):
        compute_yld({"a1": 1}, weights, "anx")


def test_weight_out_of_range_rejected():
    with pytest.raises(DomainError):
        DisabilityWeights({("dep", "a1"): 1.2})


def test_daly_is_sum():
    summary = compute_daly(300, 20)
    assert summary == BurdenSummary(300, 20, 320)


def test_daly_zero():
    assert compute_daly(0, 0).daly == 0


def test_daly_negative_rejected():
    with pytest.raises(DomainError):
        compute_daly(-1, 0)


@pytest.mark.parametrize("compute, component", [
    (lambda: compute_yll({"a1": 1e200}, LifeTable({"a1": 1e200})), "YLL"),
    (lambda: compute_yld({"a1": 1e308, "a2": 1e308},
                         DisabilityWeights({("dep", "a1"): 0.9, ("dep", "a2"): 0.9}),
                         "dep"), "YLD"),
    (lambda: compute_daly(1e308, 1e308), "DALY"),
    (lambda: age_standardize({"a1": 1e308, "a2": 0.0}, {"a1": 2.0, "a2": -1.0}),
     "age-standardized rate"),
], ids=["yll", "yld", "daly", "age-standardized"])
def test_overflowing_total_rejected(compute, component):
    # every input is finite; only the total overflows
    with pytest.raises(DomainError, match=f"^{component} is inf: the inputs "
                                          "overflow a float$"):
        compute()


def test_largest_finite_totals_returned():
    assert compute_yll({"a1": 1e154}, LifeTable({"a1": 1e154})) == 1e308
    assert compute_daly(1e308, 0.0).daly == 1e308


def test_age_standardize_symmetric_average():
    assert age_standardize({"a1": 10, "a2": 20}, {"a1": 0.5, "a2": 0.5}) == 15


def test_age_standardize_identity():
    assert age_standardize({"a1": 7}, {"a1": 1.0}) == 7


def test_age_standardize_unnormalized():
    with pytest.raises(NormalizationError):
        age_standardize({"a1": 7}, {"a1": 0.9})


def test_age_standardize_band_mismatch():
    with pytest.raises(MissingBandError):
        age_standardize({"a1": 7, "a9": 1}, {"a1": 1.0})


@given(deaths=counts,
       expectancies=st.floats(0, 100, allow_nan=False, allow_subnormal=False))
def test_scaling_exact_for_power_of_two(deaths, expectancies):
    # doubling never rounds in IEEE arithmetic (away from subnormals),
    # so equality is bitwise. Normal inputs can still have a subnormal
    # product (1e-160 * 1e-160); subnormals round to a fixed absolute step,
    # so doubling before and after rounding differ. Such draws are outside
    # the claim.
    assume(all(d == 0 or expectancies == 0
               or d * expectancies >= sys.float_info.min
               for d in deaths.values()))
    table = LifeTable({band: expectancies for band in deaths})
    base = compute_yll(deaths, table)
    doubled = compute_yll({b: 2 * d for b, d in deaths.items()}, table)
    assert doubled == 2 * base


@given(deaths=counts, c=st.floats(0.01, 100, allow_nan=False))
def test_scaling_general(deaths, c):
    table = LifeTable({band: 9.25 for band in deaths})
    base = compute_yll(deaths, table)
    scaled = compute_yll({b: c * d for b, d in deaths.items()}, table)
    assert scaled == pytest.approx(c * base, rel=1e-12, abs=1e-9)


@given(deaths=counts)
def test_partition_additivity(deaths):
    table = LifeTable({b: 12.5 for b in deaths})
    total = compute_yll(deaths, table)
    by_band = sum(compute_yll({b: d}, table) for b, d in deaths.items())
    assert by_band == total


@given(deaths=counts, bump=st.floats(0.001, 1e5))
def test_monotone_in_counts(deaths, bump):
    if not deaths:
        return
    table = LifeTable({b: 7.0 for b in deaths})
    band = sorted(deaths)[0]
    more = dict(deaths)
    more[band] += bump
    assert compute_yll(more, table) >= compute_yll(deaths, table)


@given(rates=st.dictionaries(st.sampled_from(["a", "b", "c"]),
                             st.floats(0, 100, allow_nan=False),
                             min_size=2, max_size=3))
def test_standardize_permutation_invariant(rates):
    w = 1.0 / len(rates)
    weights = {band: w for band in rates}
    if abs(sum(weights.values()) - 1) > 1e-9:
        return
    forward = age_standardize(rates, weights)
    backward = age_standardize(dict(reversed(list(rates.items()))), weights)
    assert forward == pytest.approx(backward, abs=1e-12)


def test_band_csv_loader():
    assert load_band_csv("band,value\na1,30\na2,12.5\n") == {"a1": 30.0, "a2": 12.5}


def test_band_csv_rejects_garbage():
    with pytest.raises(ParseError, match="line 2"):
        load_band_csv("band,value\na1,whoops\n")


def test_weights_csv_loader():
    weights = load_weights_csv("condition,band,value\ndep,a1,0.2\ndep,a2,0.4\n")
    assert weights.weight("dep", "a2") == 0.4
    assert weights.conditions() == ("dep",)


def test_band_rates():
    inputs = BurdenInput(deaths={"a2": 5.0, "a1": 10.0},
                         prevalence={"a1": 100.0, "a3": 50.0})
    table = LifeTable({"a1": 30.0, "a2": 10.0})
    weights = DisabilityWeights({("dep", "a1"): 0.2, ("dep", "a3"): 0.4})
    rates = band_rates(inputs, table, weights, "dep")
    assert list(rates) == ["a1", "a2", "a3"]
    assert rates == {"a1": 320.0, "a2": 50.0, "a3": 20.0}
    with pytest.raises(MissingBandError, match="a2"):
        band_rates(inputs, LifeTable({"a1": 30.0}), weights, "dep")
