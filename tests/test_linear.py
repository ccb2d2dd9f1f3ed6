import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paneldep.errors import DegenerateInputError, DomainError, InsufficientDataError
from paneldep.linear import _fsums, pearson, t_sf
from paneldep.panel import align_pair, load_fixture

from conftest import make_pair


def definitional_r(x, y):
    """Definitional formula evaluated term by term in extended precision."""
    x = np.asarray(x, dtype=np.longdouble)
    y = np.asarray(y, dtype=np.longdouble)
    mx, my = x.mean(), y.mean()
    num = ((x - mx) * (y - my)).sum()
    den = np.sqrt(((x - mx) ** 2).sum() * ((y - my) ** 2).sum())
    return float(num / den)


class TestPearson:
    def test_exact_linearity(self):
        assert pearson(make_pair([1, 2, 3], [2, 4, 6])).r == 1.0

    def test_exact_anti_linearity(self):
        assert pearson(make_pair([1, 2, 3], [6, 4, 2])).r == -1.0

    def test_perfect_correlation_p_zero(self):
        assert pearson(make_pair([1, 2, 3], [2, 4, 6])).p_value == 0.0

    def test_fixture_gdp_per_capita_vs_life_expectancy(self, pearson_golden):
        # Value frozen from the definitional oracle before this module existed.
        ds = load_fixture()
        pair = align_pair(ds.series("global", "E2"), ds.series("global", "S1"))
        result = pearson(pair)
        i = pearson_golden["codes"].index("E2")
        j = pearson_golden["codes"].index("S1")
        assert result.n == 33
        assert result.r > 0.9
        assert result.r == pytest.approx(pearson_golden["r"][i][j], abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateInputError):
            pearson(make_pair([1, 1, 1, 1], [1, 2, 3, 4]))

    def test_too_short_rejected(self):
        with pytest.raises(InsufficientDataError):
            pearson(make_pair([1, 2], [3, 4]))

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = rng.integers(5, 60)
            x, y = rng.normal(size=n), rng.normal(size=n)
            assert pearson(make_pair(x, y)).r == pearson(make_pair(y, x)).r

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(5, 60))
            x, y = rng.normal(size=n), rng.normal(size=n)
            a = float(rng.uniform(-5, 5)) or 1.0
            b = float(rng.uniform(-10, 10))
            base = pearson(make_pair(x, y)).r
            scaled = pearson(make_pair(a * x + b, y)).r
            assert scaled == pytest.approx(math.copysign(1, a) * base, abs=1e-12)

    def test_self_correlation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=int(rng.integers(5, 100)))
            assert pearson(make_pair(x, x)).r == pytest.approx(1.0, abs=1e-12)

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(5, 500))
            x = rng.normal(size=n) * rng.uniform(0.1, 1e4)
            y = rng.normal(size=n) + 0.3 * x
            got = pearson(make_pair(x, y)).r
            assert abs(got - definitional_r(x, y)) < 1e-10

    @pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e-160, 1e-100, 1e76, 1e100,
                                       1e150, 1e200, 1e300])
    def test_far_scales_keep_r(self, scale):
        rng = np.random.default_rng(5)
        x = rng.normal(size=33)
        y = x + 0.8 * rng.normal(size=33)
        base = pearson(make_pair(x, y))
        scaled = pearson(make_pair(x * scale, y))
        assert scaled.r == pytest.approx(base.r, rel=1e-13)
        assert scaled.p_value == pytest.approx(base.p_value, rel=1e-9)
        assert pearson(make_pair(x * scale, y * scale)).r == pytest.approx(base.r, rel=1e-13)


# far enough from zero that x * 2**-900 is a normal float, so the scaling is exact
_coordinate = st.one_of(st.just(0.0), st.integers(-5, 5).map(float),
                        st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 40).flatmap(
           lambda n: st.tuples(*[st.lists(_coordinate, min_size=n, max_size=n)] * 2)),
       st.integers(-900, 900), st.integers(-900, 900))
def test_power_of_two_scaling_keeps_the_bits(xy, i, j):
    x, y = xy
    scaled_x, scaled_y = [math.ldexp(v, i) for v in x], [math.ldexp(v, j) for v in y]
    try:
        base = repr(pearson(make_pair(x, y)))
    except DegenerateInputError as exc:
        base = repr(exc)
    try:
        scaled = repr(pearson(make_pair(scaled_x, scaled_y)))
    except DegenerateInputError as exc:
        scaled = repr(exc)
    assert scaled == base


# the edges of exact summation: ties at 1 + 2**-53, units in the last place,
# signed zeros, subnormals, and magnitudes 2**±1000 apart
_EDGES = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 1.5, 2.0 ** -52, 2.0 ** -53, -2.0 ** -53,
                   3 * 2.0 ** -53, 2.0 ** -54, 2.0 ** 1000, -2.0 ** 1000, 2.0 ** -1000,
                   -2.0 ** -1000, 5e-324, -5e-324, 2.0 ** -1022, 1e16, -1e16])


@st.composite
def summand_stacks(draw):
    """A stack of 1 to 300 rows of edge values, floats of any exponent and
    multiples of 2**-60, mixed in a proportion drawn per row; the rows of
    some stacks are followed by their own negation, in reverse, so that
    they cancel to zero or close to it. The elements come from a seeded
    generator, as drawing each one would take minutes."""
    rows, cols = draw(st.integers(1, 300)), draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (rows, cols)
    kinds = (rng.random(shape) < rng.random((rows, 1))) + (rng.random(shape) < 0.3)
    stack = np.choose(kinds, [
        rng.choice(_EDGES, shape),
        np.ldexp(rng.uniform(-1.0, 1.0, shape), rng.integers(-1074, 1000, shape)),
        rng.integers(-2 ** 20, 2 ** 20, shape) * 2.0 ** -60,
    ])
    if draw(st.booleans()):
        tail = -stack[:, ::-1]
        tail[:, :1] *= draw(st.sampled_from([1.0, 1.0 + 2.0 ** -52, 0.5]))
        stack = np.concatenate([stack, tail], axis=1)
    return stack


@settings(max_examples=400, deadline=None)
@given(summand_stacks())
@example(np.array([[1.0, 2.0 ** -53], [1.0, 3 * 2.0 ** -53], [-0.0, -0.0], [0.0, -0.0]]))
@example(np.zeros((3, 0)))
@example(np.array([[2.0 ** 1000, 1.0, -2.0 ** 1000, 2.0 ** -1000]]))
def test_row_sums_are_fsum_bit_for_bit(stack):
    assert [float.hex(v) for v in _fsums(stack)] == \
        [float.hex(math.fsum(row)) for row in stack.tolist()]


def test_a_row_whose_fsum_overflows_raises_its_error():
    # the tree adds 1e308 and -1e308 first, fsum's partials 1e308 and 1e308
    stack = np.array([[1.0, 2.0, 3.0], [1e308, 1e308, -1e308]])
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        math.fsum(stack[1])
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        _fsums(stack)


class TestTTail:
    def test_zero_is_half(self):
        assert t_sf(0.0, 1) == 0.5
        assert t_sf(0.0, 17) == 0.5

    def test_dof_one_closed_form(self):
        assert t_sf(1.0, 1) == 0.25
        assert t_sf(-1.0, 1) == 0.75

    def test_pinned_value(self, tail_golden):
        for point in tail_golden["t"]:
            if point["t"] == 2.5 and point["dof"] == 10:
                assert t_sf(2.5, 10) == pytest.approx(point["sf"], abs=1e-9)
                break
        else:
            pytest.fail("golden grid lacks the pinned point")

    def test_golden_grid(self, tail_golden):
        for point in tail_golden["t"]:
            assert t_sf(point["t"], point["dof"]) == pytest.approx(
                point["sf"], abs=1e-10
            ), (point["t"], point["dof"])

    def test_dof_below_one_rejected(self):
        with pytest.raises(DomainError):
            t_sf(1.0, 0)

    def test_complement(self):
        for t in (0.3, 1.7, 4.2):
            for dof in (2, 9, 33):
                assert t_sf(t, dof) + t_sf(-t, dof) == pytest.approx(1.0, abs=1e-14)
