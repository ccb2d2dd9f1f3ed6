"""Batch kernels against their batches of one and their scalar references.

A kernel over the table of a list of pairs (``PairTable.of_pairs``)
returns, for every pair, what the same kernel gives that pair alone, bit
for bit: the batch order and the companion pairs must not matter. The
references in ``oracles`` are the one-pair loops the batch kernels stack,
so agreement with them pins the bits as well.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paneldep import special
from paneldep.errors import (
    ConvergenceError,
    DomainError,
    InsufficientDataError,
    SingularDesignError,
)
from paneldep.info import (
    _mi_bits,
    _optimize_axis,
    _Tables,
    mics_over,
    mutual_informations_over,
)
from paneldep.linear import pearson, pearsons_over, t_sf, t_sfs
from paneldep.panel import MIC_NORMALIZATIONS, AlignedPair
from paneldep.special import f_sf, f_sfs
from paneldep.table import PairTable
from paneldep.temporal import best_fits_over

from conftest import sweep_or_error

from oracles import (
    _ref_optimize_axis,
    _ref_unit_scaled,
    reference_f_sf,
    reference_lag_fit,
    reference_mi_bits,
    reference_mic,
    reference_mutual_information,
    reference_pearson,
    reference_t_sf,
)

tied = st.integers(-4, 4).map(lambda v: v / 2)
spread = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def aligned_pairs(draw):
    """Pairs of mixed lengths and years, with ties, constant rows and gaps."""
    n = draw(st.integers(3, 36))
    x, y = (draw(st.one_of(st.lists(tied, min_size=n, max_size=n),
                           st.lists(spread, min_size=n, max_size=n),
                           tied.map(lambda v: [v] * n)))
            for _ in range(2))
    start = draw(st.sampled_from((1990, 2000, 2001)))
    years = list(range(start, start + n))
    if n > 4 and draw(st.booleans()):
        years[n // 2:] = [year + 1 for year in years[n // 2:]]
    return AlignedPair(tuple(x), tuple(y), tuple(years))


@st.composite
def pair_batches(draw):
    """Batches of ``aligned_pairs`` plus pairs drawn from a small pool of
    their series, so that batches share series as a screen's pairs do. The
    pool holds a 0.0/-0.0 twin: the two compare equal, and each must keep
    its own bits."""
    pairs = draw(st.lists(aligned_pairs(), min_size=1, max_size=8))
    years = draw(st.sampled_from([pair.years for pair in pairs]))
    pool = [s for pair in pairs if pair.years == years for s in (pair.x, pair.y)]
    zeroed = list(draw(st.sampled_from(pool)))
    zeroed[draw(st.integers(0, len(years) - 1))] = 0.0
    twin = [-0.0 if v == 0.0 else v for v in zeroed]
    pool += [tuple(zeroed), tuple(twin)]
    series = st.sampled_from(pool)
    shared = [AlignedPair(draw(series), draw(series), years)
              for _ in range(draw(st.integers(1, 6)))]
    return pairs + shared


def same(batched, alone):
    """Equal results, or the same error with the same message."""
    if isinstance(alone, Exception):
        return type(batched) is type(alone) and batched.args == alone.args
    return repr(batched) == repr(alone)


@settings(max_examples=60, deadline=None)
@given(pair_batches(), st.randoms(), st.integers(2, 12), st.integers(1, 4),
       st.booleans())
def test_batches_match_batches_of_one(pairs, rnd, bins, max_lag, difference_first):
    shuffled = pairs[:]
    rnd.shuffle(shuffled)
    kernels = {
        "pearson": pearsons_over,
        **{f"mi {b} {s}": (lambda table, b=b, s=s: mutual_informations_over(table, b, s))
           for b in (None, bins) for s in ("equal-frequency", "equal-width")},
        "mic": mics_over,
    }
    for name, kernel in kernels.items():
        batch = kernel(PairTable.of_pairs(shuffled)).results()
        for pair, result in zip(shuffled, batch):
            assert same(result, kernel(PairTable.of_pairs([pair])).results()[0]), name
    # the battery's Granger cells: each pair's sweep's best fit, or its error's kind
    sweeps = [sweep_or_error(pair, max_lag, difference_first) for pair in shuffled]
    for best, sweep in zip(best_fits_over(PairTable.of_pairs(shuffled), max_lag,
                                          difference_first).results(), sweeps):
        if isinstance(sweep, Exception):
            assert type(best) is type(sweep)
            assert getattr(best, "rank", None) == getattr(sweep, "rank", None)
        else:
            assert repr(best) == repr(sweep.best)


@settings(max_examples=60, deadline=None)
@given(st.lists(aligned_pairs(), min_size=1, max_size=8), st.integers(2, 12))
def test_batches_match_scalar_references(pairs, bins):
    table = PairTable.of_pairs(pairs)
    for pair, result in zip(pairs, pearsons_over(table).results()):
        expected = reference_pearson(pair.x, pair.y)
        if expected is None:
            assert isinstance(result, Exception)
        else:
            assert repr((result.r, result.p_value)) == repr(expected)
    for strategy in ("equal-frequency", "equal-width"):
        for pair, result in zip(pairs, mutual_informations_over(table, bins, strategy).results()):
            if pair.n >= max(bins, 4):
                assert repr(result.mi) == repr(
                    reference_mutual_information(pair.x, pair.y, bins, strategy))


@st.composite
def unit_scale_pairs(draw):
    """Contiguous pairs whose series each have their largest magnitude in
    [0.5, 1) (or are all zero), so the Granger kernel's own scaling is the
    identity; with ties, constant rows and rows met again."""
    n = draw(st.integers(3, 30))
    rows = st.one_of(st.lists(tied, min_size=n, max_size=n),
                     st.lists(spread, min_size=n, max_size=n),
                     tied.map(lambda v: [v] * n))
    x = _ref_unit_scaled(draw(rows))
    y = x if draw(st.integers(0, 9)) == 0 else _ref_unit_scaled(draw(rows))
    return AlignedPair(tuple(x), tuple(y), tuple(range(2000, 2000 + n)))


@settings(max_examples=100, deadline=None)
@given(st.lists(unit_scale_pairs(), min_size=1, max_size=6), st.integers(1, 5))
def test_lag_sweeps_match_the_per_fit_reference(pairs, max_lag):
    """Every field of every fit, bit for bit, and every skip, against one
    QR per design; each p-value is its own ``f_sf`` call's."""
    for pair in pairs:
        sweep = sweep_or_error(pair, max_lag)
        fits = {lag: reference_lag_fit(pair.x, pair.y, lag) for lag in range(1, max_lag + 1)}
        expected = {lag: fit for lag, fit in fits.items() if isinstance(fit, tuple)}
        if not expected:
            singular = any(isinstance(fit, int) for fit in fits.values())
            assert type(sweep) is (SingularDesignError if singular else InsufficientDataError)
            continue
        assert [result.lag for result in sweep.results] == list(expected)
        for result in sweep.results:
            f, rss_r, rss_ur, n_eff = expected[result.lag]
            p = f_sf(f, result.lag, n_eff - (1 + 2 * result.lag))
            assert repr((result.f_stat, result.p_value, result.rss_restricted,
                         result.rss_unrestricted, result.n_eff)) == repr(
                (f, p, rss_r, rss_ur, n_eff))
        for skip in sweep.skipped:
            fit = fits[skip.lag]
            assert ("usable rows" if fit is None else f"(rank {fit} of") in skip.reason


@st.composite
def mic_batches(draw):
    """Shuffled pairs of one or two lengths from 25 to 90, plus short ones:
    spread, tied, coarse and constant series, some of them met again in
    later pairs (a pair of a series with itself ties many resolutions)."""
    lengths = draw(st.lists(st.integers(25, 90), min_size=1, max_size=2))
    seen: dict[int, list] = {}

    def series(n):
        kind = draw(st.sampled_from(("spread", "tied", "coarse", "constant", "again")))
        if kind == "again" and seen.get(n):
            return draw(st.sampled_from(seen[n]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "tied":
            values = rng.integers(-4, 5, n) / 2
        elif kind == "coarse":  # a few long tie runs
            values = rng.integers(0, 3, n).astype(float)
        elif kind == "constant":
            values = np.full(n, 1.5)
        else:
            values = rng.normal(size=n)
        seen.setdefault(n, []).append(tuple(values.tolist()))
        return seen[n][-1]

    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.sampled_from(lengths)) if draw(st.integers(0, 9)) else \
            draw(st.integers(10, 24))
        pairs.append(AlignedPair(series(n), series(n), tuple(range(2000, 2000 + n))))
    return draw(st.permutations(pairs))


@settings(max_examples=150, deadline=None)
@given(mic_batches(), st.sampled_from((1, 2, 15)), st.sampled_from((0.5, 0.6, 0.75)),
       st.sampled_from(MIC_NORMALIZATIONS))
def test_mic_batches_match_the_per_pair_reference(pairs, clumps, alpha, normalization):
    """Every field of every stacked result is the one-pair search's, to the bit."""
    table = PairTable.of_pairs(pairs)
    for pair, result in zip(pairs, mics_over(table, alpha, clumps, normalization).results()):
        expected = reference_mic(pair.x, pair.y, alpha, clumps, normalization)
        if expected is None:
            assert isinstance(result, InsufficientDataError)
            continue
        assert type(result.mic) is float
        assert float.hex(result.mic) == float.hex(expected["mic"])
        assert {**vars(result), "mic": None} == {**expected, "mic": None}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(2, 15),
       st.integers(2, 30), st.integers(2, 8), st.booleans())
def test_stacked_dp_matches_the_one_pair_dp(seed, pairs, rows, k, max_cols, partitions):
    """Every score, not just each pair's best, at every row count: from 8
    rows on numpy sums a row axis pairwise, and the stack must too."""
    rng = np.random.default_rng(seed)
    n = k + int(rng.integers(0, 40))
    ends = np.array([np.concatenate(([0], np.sort(rng.choice(np.arange(1, n), k - 1,
                                                             replace=False)), [n]))
                     for _ in range(pairs)])
    assign = rng.integers(0, rows, (pairs, n))
    cum = np.zeros((pairs, n + 1, rows), dtype=np.intp)
    np.cumsum(assign[:, :, None] == np.arange(rows), axis=1, out=cum[:, 1:])
    cum = np.take_along_axis(cum, ends[:, :, None], axis=1)
    hq = rng.random(pairs) * np.log2(rows)
    scores, sizes = _optimize_axis(_Tables(), cum, ends, n, max_cols, hq, partitions)
    for p in range(pairs):
        ref_scores, ref_sizes = _ref_optimize_axis(cum[p], ends[p], n, max_cols,
                                                   float(hq[p]), partitions)
        assert [float.hex(float(v)) for v in scores[p]] == \
            [float.hex(float(ref_scores[l])) for l in range(2, max_cols + 1)]
        if partitions:
            assert [v.tolist() for v in sizes[p]] == \
                [ref_sizes[l].tolist() for l in range(2, max_cols + 1)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-50, 50), st.integers(1, 400),
                          st.floats(0, 60), st.integers(1, 6)),
                min_size=1, max_size=30))
def test_tail_batches_match_each_element(args):
    ts, dofs, fs, d1s = zip(*args)
    assert [repr(v) for v in t_sfs(ts, dofs)] == \
        [repr(reference_t_sf(t, dof)) for t, dof in zip(ts, dofs)]
    assert [repr(v) for v in f_sfs(fs, d1s, dofs)] == \
        [repr(reference_f_sf(f, d1, d2)) for f, d1, d2 in zip(fs, d1s, dofs)]
    # t*t ~ F(1, dof): above one degree of freedom the upper t tail is half
    # the F tail, to the bit
    upper = [(abs(t), dof) for t, dof in zip(ts, dofs) if dof > 1]
    assert [repr(v) for v in t_sfs([t for t, _ in upper], [dof for _, dof in upper])] == \
        [repr(0.5 * v) for v in f_sfs([t * t for t, _ in upper], [1] * len(upper),
                                      [dof for _, dof in upper])]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, -0.0, math.inf, 1.0, 1e308]),
                                    st.floats(0, 1e6)),
                          st.integers(1, 6), st.integers(0, 5)),
                min_size=1, max_size=30))
def test_f_tail_edge_cases_match_each_element(args):
    """F = 0, F = inf and F = 1 with d1 == d2 (an offset of 0) take their
    exact branches inside a batch of ordinary tails; d1 * F past the float
    range is inf, as in the one-element arithmetic."""
    fs, d1s, offsets = zip(*args)
    d2s = [d1 + offset for d1, offset in zip(d1s, offsets)]
    assert [repr(v) for v in f_sfs(fs, d1s, d2s)] == \
        [repr(reference_f_sf(f, d1, d2)) for f, d1, d2 in zip(fs, d1s, d2s)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, -0.0, 1e200, -1e200]),
                                    st.floats(-1e40, 1e40),
                                    st.floats(-60, 60)),
                          st.one_of(st.just(1), st.integers(1, 400))),
                min_size=1, max_size=30))
def test_t_tail_edge_cases_match_each_element(args):
    """dof 1 (the arctangent form) and every other dof, with t negative,
    -0.0 and up to 1e40 in magnitude, and t * t past the float range."""
    ts, dofs = zip(*args)
    assert [repr(v) for v in t_sfs(ts, dofs)] == \
        [repr(reference_t_sf(t, dof)) for t, dof in zip(ts, dofs)]


@pytest.mark.parametrize("batch, elements, message", [
    # a dof below 1 is reported before a NaN in the same element
    (t_sfs, [(1.5, 3), (math.nan, 0), (math.nan, 4)], "dof must be >= 1, got 0"),
    (t_sfs, [(1.5, 3), (math.nan, 4), (2.0, 0)], "t statistic is NaN"),
    (t_sfs, [(1.5, 0.5), (math.nan, 0)], "dof must be >= 1, got 0.5"),
    (f_sfs, [(1.5, 2, 3), (math.nan, 0, 3), (-1.0, 2, 2)],
     "degrees of freedom must be >= 1, got (0, 3)"),
    (f_sfs, [(1.5, 2, 3), (-1.0, 2, 2), (2.0, 1, 0)], "F statistic must be >= 0, got -1.0"),
    (f_sfs, [(math.nan, 1, 1), (2.0, 1, 0.5)], "F statistic must be >= 0, got nan"),
])
def test_a_bad_batch_raises_the_first_bad_elements_error(batch, elements, message):
    scalar = {t_sfs: t_sf, f_sfs: f_sf}[batch]
    for args in elements:  # the first element whose own call raises
        try:
            scalar(*args)
        except DomainError as alone:
            assert alone.args == (message,)
            break
    else:
        pytest.fail("no element fails on its own")
    with pytest.raises(DomainError) as batched:
        batch(*zip(*elements))
    assert batched.value.args == (message,)


@st.composite
def count_stacks(draw):
    """Stacks of count grids of one shape, all holding n points, whose
    nonzero-term counts lie below 8, from 8 to 127, or both in one stack."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(2, 12)), draw(st.integers(2, 12)))
    cells = shape[0] * shape[1]
    terms = draw(st.lists(st.one_of(st.integers(1, 7), st.integers(8, 127)),
                          min_size=1, max_size=12))
    terms = [min(k, cells) for k in terms]
    n = max(terms) + draw(st.integers(0, 200))
    grids = np.zeros((len(terms), cells), dtype=np.int64)
    for grid, k in zip(grids, terms):
        grid[rng.choice(cells, k, replace=False)] = 1 + rng.multinomial(n - k, [1 / k] * k)
    return grids.reshape(-1, *shape), n


@settings(max_examples=100, deadline=None)
@given(count_stacks())
def test_mi_sums_each_grid_as_its_own_slice(stack):
    counts, n = stack
    assert [float.hex(v) for v in _mi_bits(counts, n)] == \
        [float.hex(reference_mi_bits(grid, n)) for grid in counts]


def test_squares_are_rounded_as_python_pow():
    # glibc's pow(d, 2.0), behind Python's ``d ** 2``, and d * d round some
    # of this pair's squared deviations, taken after the power-of-two
    # scaling, differently, and r with them
    x, y = (-40.79, -51.879, -69.011, 35.518), (1.745, 79.726, -28.247, 54.703)
    result = pearson(AlignedPair(x, y, (2000, 2001, 2002, 2003)))
    assert repr(result.r) == repr(reference_pearson(x, y)[0])


def test_dense_tail_grid_as_one_batch(tail_dense_golden):
    t = tail_dense_golden["t"]
    batch = t_sfs([p["t"] for p in t], [p["dof"] for p in t])
    assert [repr(v) for v in batch] == [repr(t_sf(p["t"], p["dof"])) for p in t]
    assert [repr(v) for v in batch] == [repr(reference_t_sf(p["t"], p["dof"])) for p in t]
    f = tail_dense_golden["f"]
    batch = f_sfs([p["f"] for p in f], [p["d1"] for p in f], [p["d2"] for p in f])
    assert [repr(v) for v in batch] == \
        [repr(f_sf(p["f"], p["d1"], p["d2"])) for p in f]
    assert [repr(v) for v in batch] == \
        [repr(reference_f_sf(p["f"], p["d1"], p["d2"])) for p in f]


def test_one_unconverged_element_fails_the_batch(monkeypatch):
    # x ~ 5e-20 converges in the first step; t = 2.5 at dof 31 needs more
    easy = (2.5, 0.5, 5e-20, 1.0)
    hard = (15.5, 0.5, 31 / 37.25, 6.25 / 37.25)
    monkeypatch.setattr(special, "_MAX_ITER", 2)
    assert special.regularized_betas(*zip(easy))[0] > 0.0
    with pytest.raises(ConvergenceError, match="a=15.5"):
        special.regularized_betas(*zip(easy, hard, easy))


def test_empty_batches():
    empty = PairTable.of_pairs([])
    assert pearsons_over(empty).results() == []
    assert mutual_informations_over(empty, None).results() == []
    assert best_fits_over(empty, 3).results() == []
    assert mics_over(empty).results() == []
    assert t_sfs([], []) == [] and f_sfs([], [], []) == []
    assert special.regularized_betas([], [], [], []) == []
