import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paneldep.errors import DomainError, InsufficientDataError
from paneldep.info import (
    JointHistogram,
    _Axes,
    _equipartition,
    default_mi_bins,
    discretize,
    entropy,
    grid_bound,
    mic,
    mics,
    mutual_information,
)
from paneldep.linear import pearson

from conftest import make_pair
from oracles import brute_force_mic, reference_equipartition


class TestDiscretize:
    def test_median_split(self):
        labels = discretize([1, 2, 3, 4], bins=2, strategy="equal-frequency")
        assert labels.tolist() == [0, 0, 1, 1]

    def test_equal_width_isolates_outlier(self):
        labels = discretize([0, 0.1, 0.2, 10], bins=2, strategy="equal-width")
        assert labels.tolist() == [0, 0, 0, 1]

    def test_constant_input_goes_to_bin_zero(self):
        labels = discretize([5, 5, 5, 5], bins=2, strategy="equal-width")
        assert labels.tolist() == [0, 0, 0, 0]

    def test_max_lands_in_top_bin(self):
        labels = discretize([0.0, 0.5, 1.0], bins=3, strategy="equal-width")
        assert labels.tolist() == [0, 1, 2]

    def test_ties_share_a_group(self):
        labels = discretize([7, 7, 7, 7], bins=2, strategy="equal-frequency")
        assert labels.tolist() == [0, 0, 0, 0]
        labels = discretize([3, 1, 3, 2, 3, 1], bins=3, strategy="equal-frequency")
        assert labels.tolist() == [2, 0, 2, 1, 2, 0]

    def test_bins_must_be_at_least_two(self):
        with pytest.raises(DomainError):
            discretize([1, 2, 3], bins=1)

    def test_not_enough_values(self):
        with pytest.raises(InsufficientDataError):
            discretize([1, 2], bins=3)


class TestEntropy:
    def test_fair_binary_split(self):
        assert entropy([0, 0, 1, 1]) == 1.0

    def test_degenerate(self):
        assert entropy([0, 0, 0, 0]) == 0.0

    def test_uniform_over_four(self):
        assert entropy([0, 1, 2, 3]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            entropy([])

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=60))
    def test_bounds(self, labels):
        h = entropy(labels)
        assert -1e-12 <= h <= math.log2(len(set(labels))) + 1e-9


class TestMutualInformation:
    def test_identity_is_label_entropy(self):
        x = np.arange(100, dtype=float)
        result = mutual_information(make_pair(x, x), bins=4)
        assert result.mi == pytest.approx(2.0, abs=1e-12)

    def test_independent_joint_is_zero(self):
        counts = np.array([[25, 25], [25, 25]])
        assert JointHistogram(counts, 100).mi_bits() == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_joint_is_one_bit(self):
        counts = np.array([[50, 0], [0, 50]])
        assert JointHistogram(counts, 100).mi_bits() == pytest.approx(1.0, abs=1e-12)

    def test_negative_label_rejected(self):
        with pytest.raises(DomainError):
            JointHistogram.from_labels([0, 1, -1, 1], [0, 1, 1, 0], 2, 2)
        with pytest.raises(DomainError):
            JointHistogram.from_labels([0, 1, 1, 1], [0, 1, -1, 0], 2, 2)

    def test_label_beyond_bins_rejected(self):
        with pytest.raises(DomainError):
            JointHistogram.from_labels([0, 1, 2, 1], [0, 1, 1, 0], 2, 2)
        with pytest.raises(DomainError):
            JointHistogram.from_labels([0, 1, 1, 1], [0, 1, 1, 3], 2, 3)

    def test_labels_in_range_counted(self):
        hist = JointHistogram.from_labels([0, 1, 1, 1], [0, 1, 2, 0], 2, 3)
        assert hist.counts.tolist() == [[1, 0, 0], [1, 1, 1]]
        assert hist.n == 4

    def test_identity_four_bins_from_counts(self):
        counts = np.diag([25, 25, 25, 25])
        assert JointHistogram(counts, 100).mi_bits() == pytest.approx(2.0, abs=1e-12)

    def test_independent_sequences_near_zero(self):
        # exact independence at the label level
        x = np.tile([0.0, 0.0, 1.0, 1.0], 25)
        y = np.tile([0.0, 1.0, 0.0, 1.0], 25)
        result = mutual_information(make_pair(x, y), bins=2)
        assert result.mi == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(20, 120))
            x, y = rng.normal(size=n), rng.normal(size=n)
            a = mutual_information(make_pair(x, y), bins=5)
            b = mutual_information(make_pair(y, x), bins=5)
            assert abs(a.mi - b.mi) <= 1e-12

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(16, 300))
            bins = int(rng.integers(2, 8))
            strategy = ("equal-width", "equal-frequency")[int(rng.integers(2))]
            x, y = rng.normal(size=n), rng.normal(size=n)
            result = mutual_information(make_pair(x, y), bins, strategy)
            assert result.mi >= 0.0
            assert result.mi <= math.log2(min(result.bins_x, result.bins_y)) + 1e-9

    def test_constant_series_gives_zero(self):
        result = mutual_information(make_pair([5.0] * 12, range(12)), bins=3)
        assert result.mi == 0.0
        assert (result.bins_x, result.bins_y) == (1, 3)

    def test_bins_report_the_groups_used(self):
        # the ties of x leave two groups of four bins
        result = mutual_information(make_pair([1, 1, 1, 1, 2, 2, 2, 2], range(8)), bins=4)
        assert (result.bins_x, result.bins_y) == (2, 4)
        assert result.mi == pytest.approx(1.0, abs=1e-12)
        assert result.mi <= math.log2(min(result.bins_x, result.bins_y))

    @given(st.data())
    def test_invariant_under_row_permutation(self, data):
        n = data.draw(st.integers(4, 40))
        column = st.lists(st.integers(-3, 3).map(lambda v: v / 2), min_size=n, max_size=n)
        x, y = data.draw(column), data.draw(column)
        order = data.draw(st.permutations(range(n)))
        bins = data.draw(st.integers(2, min(n, 8)))
        for strategy in ("equal-frequency", "equal-width"):
            a = mutual_information(make_pair(x, y), bins, strategy)
            b = mutual_information(make_pair([x[i] for i in order], [y[i] for i in order]),
                                   bins, strategy)
            assert repr(a) == repr(b)

    def test_default_bins(self):
        assert default_mi_bins(33) == 5
        assert default_mi_bins(200) == 10
        assert default_mi_bins(4) == 2


class TestMic:
    def test_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=200)
        result = mic(make_pair(x, x))
        assert result.mic >= 0.99
        assert result.best_b1 * result.best_b2 <= result.grid_bound

    def test_parabola_beats_pearson(self):
        x = np.linspace(-1, 1, 200)
        pair = make_pair(x, x * x)
        assert mic(pair).mic > 0.9
        assert abs(pearson(pair).r) < 0.1

    def test_constant_axis_degenerate(self):
        x = np.arange(30, dtype=float)
        result = mic(make_pair(x, np.full(30, 2.5)))
        assert result.mic == 0.0
        assert result.degenerate

    def test_needs_25_points(self):
        with pytest.raises(InsufficientDataError):
            mic(make_pair(range(24), range(24)))

    def test_grid_bound_under_four_is_insufficient_data(self):
        # ceil(30 ** 0.3) = 3 fits no 2x2 grid; ceil(100 ** 0.3) = 4 does
        rng = np.random.default_rng(8)
        short, full = (make_pair(rng.normal(size=n), rng.normal(size=n))
                       for n in (30, 100))
        error, result = mics([short, full], alpha=0.3)
        assert isinstance(error, InsufficientDataError)
        assert "B = 3 at n = 30" in str(error)
        assert (result.grid_bound, result.best_b1, result.best_b2) == (4, 2, 2)
        with pytest.raises(InsufficientDataError, match="B = 3 at n = 30"):
            mic(short, alpha=0.3)

    def test_score_is_a_python_float(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=60)
        inside = mic(make_pair(x, rng.normal(size=60)))
        clamped = mic(make_pair(x, x))
        degenerate = mic(make_pair(x, np.full(60, 2.0)))
        assert 0.0 < inside.mic < 1.0 and clamped.mic == 1.0 and degenerate.degenerate
        for result in (inside, clamped, degenerate):
            assert type(result.mic) is float
        assert repr(inside).startswith("MicResult(mic=0.")

    def test_alpha_domain(self):
        x = np.arange(30, dtype=float)
        with pytest.raises(DomainError):
            mic(make_pair(x, x), alpha=1.5)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=80)
            y = rng.normal(size=80) + 0.4 * x
            a = mic(make_pair(x, y)).mic
            b = mic(make_pair(np.exp(x), y)).mic
            c = mic(make_pair(x, np.arctan(y))).mic
            assert a == pytest.approx(b, abs=1e-9)
            assert a == pytest.approx(c, abs=1e-9)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.normal(size=60)
            y = rng.normal(size=60)
            assert mic(make_pair(x, y)).mic == pytest.approx(
                mic(make_pair(y, x)).mic, abs=1e-12
            )

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(5)
        for n in (25, 28, 31):
            x = rng.normal(size=n)
            y = 0.6 * x + rng.normal(size=n)
            fast = mic(make_pair(x, y), clumps=64).mic
            slow = brute_force_mic(x, y)
            assert fast == pytest.approx(slow, abs=1e-9)

    def test_brute_force_equivalence_with_ties(self):
        rng = np.random.default_rng(50)
        for n in (26, 30):
            x = np.round(rng.normal(size=n), 1)  # heavy value ties
            y = np.round(0.6 * x + rng.normal(size=n), 1)
            fast = mic(make_pair(x, y), clumps=64).mic
            slow = brute_force_mic(x, y)
            assert fast == pytest.approx(slow, abs=1e-9)

    def test_clump_budget_only_narrows_search(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            x = rng.normal(size=120)
            y = rng.normal(size=120) + 0.5 * x
            frugal = mic(make_pair(x, y), clumps=1).mic
            generous = mic(make_pair(x, y), clumps=64).mic
            assert frugal <= generous + 1e-12

    def test_eq7_normalization_stays_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = rng.normal(size=60)
            y = rng.normal(size=60) + x
            result = mic(make_pair(x, y), normalization="max-entropy")
            assert 0.0 <= result.mic <= 1.0
            assert result.normalization == "max-entropy"

    def test_eq7_identity_still_saturates(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=200)
        assert mic(make_pair(x, x), normalization="max-entropy").mic >= 0.99

    def test_grid_bound(self):
        assert grid_bound(200, 0.6) == 25
        assert grid_bound(25, 0.6) == 7

    @given(st.integers(1, 80).flatmap(lambda n: st.lists(
        st.lists(st.integers(-6, 6).map(lambda v: v / 4), min_size=n, max_size=n),
        min_size=1, max_size=4)))
    def test_equipartition_matches_point_by_point_reference(self, rows):
        rows = np.asarray(rows)
        axes = _Axes(rows)
        for k in range(1, 21):
            labels, used = axes.equipartition(k)
            for values, found, count in zip(rows, labels, used.tolist()):
                expected = reference_equipartition(values, k)
                assert found.tolist() == expected.tolist()
                assert count == expected.max() + 1
        # a group count per row: each run's group, read at the run's first value
        ks = np.arange(len(rows)) * 5 + 2
        groups = _equipartition(axes.lengths, axes.first, ks)
        for i, (values, k) in enumerate(zip(rows, ks.tolist())):
            expected = reference_equipartition(values, k)[axes.order[i]][axes.opens[i]]
            runs = groups[axes.first[i]:axes.first[i] + axes.count[i]]
            assert runs.tolist() == expected.tolist()


tied_values = st.lists(st.integers(-4, 4).map(lambda v: v / 2), min_size=25, max_size=40)


class TestSharedAxes:
    @settings(max_examples=40)
    @given(st.data())
    def test_cached_axes_match_public_mic(self, data):
        """One batch over pairs sharing y, in both orientations, gives each
        pair exactly what mic() gives it alone."""
        y = data.draw(tied_values)
        n = len(y)
        xs = data.draw(st.lists(st.lists(st.integers(-4, 4).map(lambda v: v / 2),
                                         min_size=n, max_size=n),
                                min_size=2, max_size=3))
        xs.append(y)  # a series paired with itself shares one axis
        # every axis is met again later in the batch
        pairs = [pair for x in xs + xs[::-1]
                 for pair in (make_pair(x, y), make_pair(y, x))]
        for normalization in ("min-entropy-grid", "max-entropy"):
            for pair, result in zip(pairs, mics(pairs, 0.6, 15, normalization)):
                assert repr(result) == repr(mic(pair, 0.6, 15, normalization))

    def test_bad_argument_fails_the_batch_before_short_pairs(self):
        short, full = make_pair(range(24), range(24)), make_pair(range(30), range(30))
        assert isinstance(mics([short, full])[0], InsufficientDataError)
        for kwargs in ({"alpha": 0.0}, {"clumps": 0}, {"normalization": "grid"}):
            with pytest.raises(DomainError):
                mics([short, full], **kwargs)
            with pytest.raises(DomainError):
                mics([], **kwargs)
