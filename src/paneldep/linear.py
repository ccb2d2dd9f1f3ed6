"""Linear association: product-moment correlation with a two-sided test."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DomainError, InsufficientDataError, _only
from .panel import AlignedPair
from .special import f_sfs
from .table import PairTable


@dataclass(frozen=True)
class PearsonResult:
    r: float
    n: int
    p_value: float


def t_sfs(ts, dofs) -> list[float]:
    """``t_sf`` over equal-length sequences, with one incomplete-beta batch.

    Each value has the bits of its own ``t_sf`` call. Above one degree of
    freedom the upper tail is half the F(1, dof) tail of t*t.
    """
    out: list[float] = []
    pending: list[int] = []  # positions whose tail is the F tail of t*t
    for i, (t, dof) in enumerate(zip(ts, dofs)):
        if dof < 1:
            raise DomainError(f"dof must be >= 1, got {dof}")
        if math.isnan(t):
            raise DomainError("t statistic is NaN")
        if dof == 1:
            upper = 0.5 - math.atan(abs(t)) / math.pi
            out.append(1.0 - upper if t < 0.0 else upper)
        else:
            out.append(math.nan)
            pending.append(i)
    tails = f_sfs([ts[i] * ts[i] for i in pending], [1] * len(pending),
                  [dofs[i] for i in pending])
    for i, tail in zip(pending, tails):
        upper = 0.5 * tail
        out[i] = 1.0 - upper if ts[i] < 0.0 else upper
    return out


def t_sf(t: float, dof: float) -> float:
    """Upper-tail probability of the t distribution.

    Evaluated through the regularized incomplete beta function; dof 1 uses
    the arctangent closed form so its textbook values come out exact.
    """
    return t_sfs((t,), (dof,))[0]


def pearsons(pairs) -> list[PearsonResult | InsufficientDataError | DegenerateInputError]:
    """``pearson`` over many pairs: each pair's result, or the error its own
    call raises. See ``pearsons_over``."""
    return pearsons_over(PairTable.of_pairs(pairs))


def pearsons_over(table: PairTable) -> list:
    """``pearson`` of each pair of a table, by place (None at a place with
    no pair).

    Each series is first scaled by the power of two that brings its
    largest magnitude into [0.5, 1), exactly for every element above the
    subnormal range. So the sums neither overflow nor underflow at any
    scale, and scaling a series by a power of two that keeps its elements
    normal leaves the result's bits as they are. An aligned series'
    deviations and sum of squares are computed once, for every pair of its
    length group that holds it. The means and the sums of deviation
    products are ``math.fsum`` over each pair's own floats; squares go
    through libm ``pow``, as Python's ``** 2`` does, not ``d * d``, which
    rounds some of them differently. ``pow`` is not exact under scaling
    either, so the scaled squares can round differently from squares at
    the input's own scale. Every p-value comes from one ``t_sfs`` call,
    and each result has the bits of its own ``pearson`` call.
    """
    out: list = [None] * table.size
    tested = []  # (place, r, n, t)
    for group in table.groups:
        n = group.n
        places = group.places.tolist()
        if n < 3:
            for place in places:
                out[place] = InsufficientDataError(f"need at least 3 observations, got {n}")
            continue
        dev, squares = _deviations(group.rows)
        products = dev[group.xi]
        products *= dev[group.yi]
        sxy = [math.fsum(row.tolist()) for row in products]
        for place, sxy_i, i, j in zip(places, sxy, group.xi.tolist(), group.yi.tolist()):
            sxx_i, syy_i = squares[i], squares[j]
            if sxx_i == 0.0 or syy_i == 0.0:
                out[place] = DegenerateInputError(
                    "correlation undefined for a constant sequence")
                continue
            r = max(-1.0, min(1.0, sxy_i / math.sqrt(sxx_i * syy_i)))
            if abs(r) == 1.0:
                out[place] = PearsonResult(r=r, n=n, p_value=0.0)
            else:
                tested.append((place, r, n, abs(r * math.sqrt((n - 2) / (1.0 - r * r)))))
    tails = t_sfs([t for *_, t in tested], [n - 2 for _, _, n, _ in tested])
    for (place, r, n, _), tail in zip(tested, tails):
        out[place] = PearsonResult(r=r, n=n, p_value=min(1.0, 2.0 * tail))
    return out


def _deviations(rows: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Each row's scaled deviations from its mean and their sum of squares."""
    n = rows.shape[1]
    scaled = _unit_scaled(rows)
    dev = scaled - np.array([math.fsum(row.tolist()) / n for row in scaled])[:, None]
    return dev, [math.fsum(row.tolist()) for row in np.float_power(dev, 2.0)]


def _unit_scaled(rows: np.ndarray) -> np.ndarray:
    """Each row times the power of two that brings its largest magnitude
    into [0.5, 1); an all-zero row stays as it is."""
    return np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=1))[1][:, None])


def pearson(pair: AlignedPair) -> PearsonResult:
    """Two-pass product-moment correlation with a two-sided p-value.

    The two-pass form (subtract the mean, then accumulate deviation
    products) is kept deliberately: annual series are often near-constant
    and the single-pass expansion loses precision there.
    """
    return _only(pearsons([pair]))
