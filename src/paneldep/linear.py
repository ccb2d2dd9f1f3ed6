"""Linear association: product-moment correlation with a two-sided test."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, InsufficientDataError, _only
from .panel import AlignedPair
from .special import _map, f_sfs
from .table import Columns, PairTable, _unit_scaled


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
    upper[~one] = f_sfs(squares, np.ones_like(rest), dof[~one])
    upper[~one] *= 0.5
    return np.where(t < 0.0, 1.0 - upper, upper).tolist()


def t_sf(t: float, dof: float) -> float:
    """Upper-tail probability of the t distribution.

    Evaluated through the regularized incomplete beta function; dof 1 uses
    the arctangent closed form so its textbook values come out exact.
    """
    return t_sfs((t,), (dof,))[0]


def pearsons_over(table: PairTable) -> Columns:
    """``pearson`` of each pair of a table, as columns by place.

    Each series is first scaled by the power of two that brings its
    largest magnitude into [0.5, 1), exactly for every element above the
    subnormal range. So the sums neither overflow nor underflow at any
    scale, and scaling a series by a power of two that keeps its elements
    normal leaves the result's bits as they are. Each row's deviations and
    sum of squares are computed once, for every pair of its length group
    that holds it. The means and the sums of squares and of deviation
    products are ``math.fsum`` over each row of a stack; squares
    go through libm ``pow``, as Python's ``** 2`` does, not ``d * d``,
    which rounds some of them differently. ``pow`` is not exact under
    scaling either, so the scaled squares can round differently from
    squares at the input's own scale. r, the degenerate test and t are
    elementwise array steps in the one-pair order, every p-value comes
    from one ``t_sfs`` call, and each result has the bits of its own
    ``pearson`` call.
    """
    errors: dict = {}
    # each group's tested places, n and r, after an empty seed for a table without one
    places, ns, rs = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], [np.empty(0)]
    for group in table.groups:
        n = group.n
        if n < 3:
            for place in group.places.tolist():
                errors[place] = InsufficientDataError(f"need at least 3 observations, got {n}")
            continue
        dev, squares = _deviations(group.rows)
        sxx, syy = squares[group.xi], squares[group.yi]
        degenerate = (sxx == 0.0) | (syy == 0.0)
        for place in group.places[degenerate].tolist():
            errors[place] = DegenerateInputError("correlation undefined for a constant sequence")
        kept = ~degenerate
        products = dev[group.xi[kept]]
        products *= dev[group.yi[kept]]
        ratio = _fsums(products) / np.sqrt(sxx[kept] * syy[kept])
        ratio = np.where(ratio < 1.0, ratio, 1.0)  # max(-1.0, min(1.0, ratio))
        rs.append(np.where(ratio > -1.0, ratio, -1.0))
        places.append(group.places[kept])
        ns.append(np.full(len(ratio), n))
    place, n, r = (np.concatenate(v) for v in (places, ns, rs))
    p = np.zeros_like(r)
    tested = np.abs(r) != 1.0
    r_t, n_t = r[tested], n[tested]
    tails = np.array(t_sfs(np.abs(r_t * np.sqrt((n_t - 2) / (1.0 - r_t * r_t))), n_t - 2))
    tails *= 2.0
    p[tested] = np.where(tails < 1.0, tails, 1.0)  # min(1.0, 2.0 * tail)
    r_column, p_column = np.full(table.size, np.nan), np.full(table.size, np.nan)
    r_column[place], p_column[place] = r, p
    return Columns(PearsonResult, {"r": r_column, "n": table.n, "p_value": p_column},
                   table.n, errors)


def _fsums(stack: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of a 2-d array."""
    return np.fromiter(map(math.fsum, stack.tolist()), dtype=float, count=len(stack))


def _deviations(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's scaled deviations from its mean and their sum of squares."""
    scaled, _ = _unit_scaled(rows)
    dev = scaled - (_fsums(scaled) / rows.shape[1])[:, None]
    return dev, _fsums(np.float_power(dev, 2.0))


def pearson(pair: AlignedPair) -> PearsonResult:
    """Two-pass product-moment correlation with a two-sided p-value.

    The two-pass form (subtract the mean, then accumulate deviation
    products) is kept deliberately: annual series are often near-constant
    and the single-pass expansion loses precision there.
    """
    return _only(pearsons_over(PairTable.of_pairs([pair])).results())
