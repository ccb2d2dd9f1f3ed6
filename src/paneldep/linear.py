"""Linear association: product-moment correlation with a two-sided test."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, InsufficientDataError, _only
from .panel import AlignedPair
from .special import _f_sfs, _map
from .table import Columns, PairTable, _pair_slices, _unit_scaled


@dataclass(frozen=True)
class PearsonResult:
    r: float
    n: int
    p_value: float


def t_sfs(ts, dofs) -> list[float]:
    """``t_sf`` over equal-length sequences, with one incomplete-beta batch.

    Each value has the bits of its own ``t_sf`` call, and a batch with bad
    elements raises the error of the first one's own call. Above one
    degree of freedom the upper tail is half the F(1, dof) tail of t*t.
    """
    return _t_sfs(ts, dofs).tolist()


def _t_sfs(ts, dofs) -> np.ndarray:
    """``t_sfs``, as a float64 array."""
    t, dof = (np.asarray(v, dtype=float) for v in (ts, dofs))
    bad = (dof < 1) | np.isnan(t)
    if bad.any():
        i = int(bad.argmax())
        if dof[i] < 1:
            raise DomainError(f"dof must be >= 1, got {dofs[i]}")
        raise DomainError("t statistic is NaN")
    upper = np.empty_like(t)
    one = dof == 1
    upper[one] = 0.5 - _map(math.atan, np.abs(t[one])) / math.pi
    rest = t[~one]
    with np.errstate(over="ignore"):  # a square past the float range is inf, as t * t is
        squares = rest * rest
    upper[~one] = _f_sfs(squares, np.ones_like(rest), dof[~one])
    upper[~one] *= 0.5
    return np.where(t < 0.0, 1.0 - upper, upper)


def t_sf(t: float, dof: float) -> float:
    """Upper-tail probability of the t distribution.

    Evaluated through the regularized incomplete beta function; dof 1 uses
    the arctangent closed form so its textbook values come out exact.
    """
    return t_sfs((t,), (dof,))[0]


def pearsons_over(table: PairTable) -> Columns:
    """``pearson`` of each pair of a table, as columns by place.

    Each series is first scaled by the power of two that brings its largest
    magnitude into [0.5, 1), exactly for every element above the subnormal
    range. So the sums neither overflow nor underflow at any scale, and
    scaling a series by a power of two that keeps its elements normal leaves
    the result's bits as they are. Each row's scaling, mean and sum of
    squares are computed once, in slices of its length group's rows, for
    every pair that holds it; the deviations, their products and sums and
    the t tails are formed in slices of the pairs (see
    ``table._pair_slices``). The means and the sums of squares and of
    deviation products have the bits of ``math.fsum`` over each row of a
    stack, formed as array steps (see ``_fsums``); squares go through libm
    ``pow``, as Python's ``** 2`` does, not ``d * d``, which rounds some of
    them differently. ``pow`` is not exact under scaling either, so the
    scaled squares can round differently from squares at the input's own
    scale. r, the degenerate test and t are elementwise array steps in the
    one-pair order, every p-value comes from a ``t_sfs`` batch, and each
    result has the bits of its own ``pearson`` call.
    """
    errors: dict = {}
    # each slice's tested places and r, after an empty seed for a table without one
    places, rs = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for group in table.groups:
        n = group.n
        if n < 3:
            for place in group.places.tolist():
                errors[place] = InsufficientDataError(f"need at least 3 observations, got {n}")
            continue
        rows = group.rows
        exponents, means, squares = _moments(rows)
        for part in _pair_slices(len(group.places), n):
            xi, yi, at = group.xi[part], group.yi[part], group.places[part]
            sxx, syy = squares[xi], squares[yi]
            degenerate = (sxx == 0.0) | (syy == 0.0)
            for place in at[degenerate].tolist():
                errors[place] = DegenerateInputError(
                    "correlation undefined for a constant sequence")
            kept = ~degenerate
            products = _deviations(rows, xi[kept], exponents, means)
            products *= _deviations(rows, yi[kept], exponents, means)
            ratio = _fsums(products) / np.sqrt(sxx[kept] * syy[kept])
            ratio = np.where(ratio < 1.0, ratio, 1.0)  # max(-1.0, min(1.0, ratio))
            rs.append(np.where(ratio > -1.0, ratio, -1.0))
            places.append(at[kept])
    place, r = np.concatenate(places), np.concatenate(rs)
    p = np.zeros_like(r)
    tested = np.flatnonzero(np.abs(r) != 1.0)
    for part in _pair_slices(len(tested), 1):
        at = tested[part]
        r_t, n_t = r[at], table.n[place[at]]
        tails = _t_sfs(np.abs(r_t * np.sqrt((n_t - 2) / (1.0 - r_t * r_t))), n_t - 2)
        tails *= 2.0
        p[at] = np.where(tails < 1.0, tails, 1.0)  # min(1.0, 2.0 * tail)
    r_column, p_column = np.full(table.size, np.nan), np.full(table.size, np.nan)
    r_column[place], p_column[place] = r, p
    return Columns(PearsonResult, {"r": r_column, "n": table.n, "p_value": p_column},
                   table.n, errors)


def _fsums(stack: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-d array, as array steps.

    A pairwise tree of TwoSums, one array step per level, turns each row
    into its float sum s and the rounding errors e of its additions, with
    exact sum s + sum(e). The float sum c of the errors is within
    n * 2**-52 * sum(|e|) of sum(e), so the exact sum lies within that of
    r + t, where r + t = s + c exactly and r is s + c rounded (Sum2 of
    Ogita, Rump and Oishi, 2005). Where that interval lies strictly between
    the midpoints of r and its neighbours, the exact sum rounds to r, which
    is what ``math.fsum`` returns. The other rows go to ``math.fsum``
    itself: a sum within the bound of a tie, an r that is zero, subnormal
    or not finite (half its spacing rounds to zero or is NaN, so no
    interval fits), and a row large enough that fsum's partials might
    overflow.
    """
    rows, n = stack.shape
    total = stack.T.copy()  # a column per row, and a copy: the tree writes its sums in place
    errors = np.empty((max(n - 1, 0), rows))
    width, filled = n, 0
    with np.errstate(invalid="ignore", over="ignore"):  # such rows go to fsum
        small = np.abs(total).max(axis=0, initial=0.0) * n < 2.0 ** 1022
        while width > 1:
            half = width // 2  # an odd width carries its middle line up a level
            x, y = total[:half], total[width - half:width]
            x[...], errors[filled:filled + half] = _two_sum(x, y)
            width -= half
            filled += half
        r, t = _two_sum(total[0] if n else np.zeros(rows), errors.sum(axis=0))
        bound = np.abs(errors).sum(axis=0)
        bound *= n * 2.0 ** -52
        up, down = np.nextafter(r, np.inf) - r, r - np.nextafter(r, -np.inf)
        exact = (t + bound < up / 2) & (bound - t < down / 2) & small
    rest = np.flatnonzero(~exact)
    r[rest] = list(map(math.fsum, stack[rest].tolist()))
    return r


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a + b rounded, and its rounding error: a + b = s + e exactly (Knuth)."""
    s = a + b
    b_part = s - a
    e = a - (s - b_part)
    e += b - b_part
    return s, e


def _moments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's exponent e (see ``table._unit_scaled``), the mean of its
    scaled values and the sum of squares of their deviations from it,
    formed in slices of the rows (see ``table._pair_slices``)."""
    exponents = np.empty(len(rows), dtype=np.intc)
    means, squares = np.empty(len(rows)), np.empty(len(rows))
    for part in _pair_slices(len(rows), rows.shape[1]):
        scaled, exponents[part] = _unit_scaled(rows[part])
        means[part] = _fsums(scaled) / rows.shape[1]
        scaled -= means[part, None]
        squares[part] = _fsums(np.float_power(scaled, 2.0))
    return exponents, means, squares


def _deviations(rows: np.ndarray, at: np.ndarray, exponents: np.ndarray,
                means: np.ndarray) -> np.ndarray:
    """The scaled deviations from its mean of each row ``rows[at]``, from
    the rows' exponents and scaled means (see ``_moments``)."""
    dev = rows[at]
    np.ldexp(dev, -exponents[at, None], out=dev)
    dev -= means[at, None]
    return dev


def pearson(pair: AlignedPair) -> PearsonResult:
    """Two-pass product-moment correlation with a two-sided p-value.

    The two-pass form (subtract the mean, then accumulate deviation
    products) is kept deliberately: annual series are often near-constant
    and the single-pass expansion loses precision there.
    """
    return _only(pearsons_over(PairTable.of_pairs([pair])).results())
