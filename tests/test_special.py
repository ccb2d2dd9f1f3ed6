import math
from fractions import Fraction

import pytest

from paneldep import special
from paneldep.errors import ConvergenceError, DomainError
from paneldep.linear import t_sf
from paneldep.special import f_sf

#: Relative bound on the dense grid, which reaches p ~ 1e-100.
DENSE_RTOL = 2e-13


def _worst(points, sf, args):
    worst = max(points, key=lambda p: abs(sf(*(p[k] for k in args)) - p["sf"]) / p["sf"])
    got = sf(*(worst[k] for k in args))
    return abs(got - worst["sf"]) / worst["sf"], worst, got


def test_t_sf_dense_grid(tail_dense_golden):
    points = tail_dense_golden["t"]
    assert {p["dof"] for p in points} >= {2, 400}
    assert min(p["sf"] for p in points) < 1e-99
    rel, point, got = _worst(points, t_sf, ("t", "dof"))
    assert rel <= DENSE_RTOL, f"t_sf{point['t'], point['dof']} = {got!r}, golden {point['sf']!r}"


def test_f_sf_dense_grid(tail_dense_golden):
    points = tail_dense_golden["f"]
    assert {p["d1"] for p in points} == {1, 2, 3, 4, 5}
    assert {p["d2"] for p in points} >= {3, 400}
    rel, point, got = _worst(points, f_sf, ("f", "d1", "d2"))
    assert rel <= DENSE_RTOL, (
        f"f_sf{point['f'], point['d1'], point['d2']} = {got!r}, golden {point['sf']!r}"
    )


def test_log_beta_against_closed_forms():
    # B(a, 1) = 1/a; B(1/2, 1/2) = pi; B(m, n) = (m-1)! (n-1)! / (m+n-1)!
    for a in (12.0, 250.0, 1e6):
        assert special.log_beta(a, 1.0) == pytest.approx(-math.log(a), rel=1e-14)
    assert special.log_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), rel=1e-14)
    for m, n in ((3, 7), (12, 15), (40, 300)):
        exact = Fraction(math.factorial(m - 1) * math.factorial(n - 1),
                         math.factorial(m + n - 1))
        log_exact = math.log(exact.numerator) - math.log(exact.denominator)
        assert special.log_beta(m, n) == pytest.approx(log_exact, rel=1e-14)
        assert special.log_beta(n, m) == special.log_beta(m, n)


def test_unconverged_fraction_raises(monkeypatch):
    monkeypatch.setattr(special, "_MAX_ITER", 2)
    with pytest.raises(ConvergenceError):
        t_sf(2.5, 31)


@pytest.mark.parametrize("args, message", [
    (([1], [1], [-0.5], [1.5]), r"x and y must lie in \[0, 1\], got \(-0.5, 1.5\)"),
    (([-1], [1], [0.3], [0.7]), r"a and b must be > 0, got \(-1.0, 1.0\)"),
    (([2, 3, 1], [2, 0, 1], [0.3, 0.5, -0.5], [0.7, 0.5, 1.5]),
     r"a and b must be > 0, got \(3.0, 0.0\)"),
    (([2, 1], [2, 1], [0.3, float("nan")], [0.7, float("nan")]),
     r"x and y must lie in \[0, 1\], got \(nan, nan\)"),
], ids=["x-below-0", "a-below-0", "first-bad-of-two", "one-bad-of-two"])
def test_regularized_betas_outside_the_domain_raise(args, message):
    with pytest.raises(DomainError, match=message):
        special.regularized_betas(*args)


def test_regularized_betas_good_elements_keep_their_values():
    batch = special.regularized_betas([2, 0.5, 3], [2, 0.5, 1], [0.3, 0.0, 1.0], [0.7, 1.0, 0.0])
    assert batch == [special.regularized_betas([2], [2], [0.3], [0.7])[0], 0.0, 1.0]
    assert batch[0] == pytest.approx(0.216, rel=1e-14)  # I_x(2, 2) = x^2 (3 - 2x)
