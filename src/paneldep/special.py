"""Regularized incomplete beta function and the F tail built on it.

Every p-value the battery writes comes from here, so the bundle bytes
depend on this module's arithmetic and the platform's libm, not on a
third-party release. The method is the continued fraction of Numerical
Recipes (3rd ed., section 6.4) evaluated by the modified Lentz algorithm.
The prefactor ``x**a * (1-x)**b / B(a, b)`` is formed in log space with
log B computed after DiDonato & Morris (1992, ACM TOMS 708, ``betaln`` and
``algdiv``): when an argument is large the huge log-gamma terms are
cancelled analytically through Stirling's series instead of subtracted.
A batch of tails is one array program: every check and branch is a mask,
every +, -, *, / and comparison one correctly rounded elementwise numpy
operation in the one-element order, and every log, log1p and exp libm's,
through ``math`` per element; log B is formed once per distinct (a, b).
The fractions of a batch run as one numpy iteration. So each element's
value is the one it gets alone. The t tail (``linear.t_sfs``) is taken
from the F tail, as t*t ~ F(1, dof). Steps pass arrays to each other; a
list is built only where a public function returns one.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ConvergenceError, DomainError

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
#: At and above this argument the Stirling series below is truncated at
#: the z**-11 term; the first omitted term is 1/(156 z**13) < 7e-16.
_STIRLING_MIN = 10.0
#: Stirling series coefficients B_2k / (2k (2k-1)), k = 1..6.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0)
_TINY = 1e-300
_EPS = sys.float_info.epsilon
#: The fraction needs O(sqrt(max(a, b))) terms once the symmetry swap has
#: put x below the mean (about 40 at a = 200); the cap is a guard against
#: returning a partial value, not a limit any panel's dof comes near.
_MAX_ITER = 10_000


def _stirling_tail(z: float) -> float:
    """log Gamma(z) - ((z - 1/2) log z - z + log(2 pi)/2), for z >= 10."""
    w = 1.0 / (z * z)
    acc = 0.0
    for coef in reversed(_STIRLING):
        acc = acc * w + coef
    return acc / z


def log_beta(a: float, b: float) -> float:
    """log B(a, b) for a, b > 0, without cancellation when either is large."""
    p, q = min(a, b), max(a, b)
    if q < _STIRLING_MIN:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    h = p / q
    if p < _STIRLING_MIN:
        # log Gamma(p) + [log Gamma(q) - log Gamma(p + q)]
        return (math.lgamma(p) + (_stirling_tail(q) - _stirling_tail(p + q))
                - (p + q - 0.5) * math.log1p(h) - p * (math.log(q) - 1.0))
    correction = _stirling_tail(p) + _stirling_tail(q) - _stirling_tail(p + q)
    return (-0.5 * math.log(q) + _HALF_LOG_2PI + correction
            + (p - 0.5) * math.log(h / (1.0 + h)) - q * math.log1p(h))


def _clamped(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) < _TINY, _TINY, v)


def _fractions(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Continued fraction for I_x(a, b), converging fast for x < (a+1)/(a+b+2).

    Elementwise: every step is the same IEEE operation on every element,
    and an element leaves with its own ``h`` at the step where its own
    ``|delta - 1|`` first drops below eps, so its bits do not depend on
    the rest of the batch.
    """
    out = np.empty_like(x)
    if not len(x):
        return out
    live = np.arange(len(x))  # the input position of each unconverged element
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _clamped(1.0 - qab * x / qap)
    h = d.copy()
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _clamped(1.0 + aa * d)
        c = _clamped(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _clamped(1.0 + aa * d)
        c = _clamped(1.0 + aa / c)
        delta = d * c
        h *= delta
        done = np.abs(delta - 1.0) < _EPS
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            if not keep.any():
                return out
            live, a, b, x, qab, qap, qam, c, d, h = (
                v[keep] for v in (live, a, b, x, qab, qap, qam, c, d, h))
    raise ConvergenceError(
        f"incomplete beta fraction did not converge in {_MAX_ITER} steps "
        f"(a={float(a[0])!r}, b={float(b[0])!r}, x={float(x[0])!r})"
    )


def _map(fn, v: np.ndarray) -> np.ndarray:
    """``fn`` of each element of a float64 array, through ``math`` (so
    through libm), one Python float at a time: no list of the elements is
    built."""
    return np.fromiter(map(fn, memoryview(np.ascontiguousarray(v))), dtype=float,
                       count=len(v))


def _log_of(v: np.ndarray, complement: np.ndarray) -> np.ndarray:
    """log of each element, as ``log(v)`` below 0.5 and ``log1p(-(1 - v))``
    from there, with ``1 - v`` given as ``complement``."""
    out = np.empty_like(v)
    small = v < 0.5
    out[small] = _map(math.log, v[small])
    out[~small] = _map(math.log1p, -complement[~small])
    return out


def _log_betas(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``log_beta`` of each (a, b) of two positive float64 arrays, called
    once per distinct pair: a pair is the places of a and of b among their
    distinct values, joined in one integer.

    The values are told apart by their bits, read as int64, which for
    positive floats are equal and ordered as the values are; sorting int64
    uses the sort that the pair table already loads, where sorting float64
    would page in another (about 0.3 MB of RSS per process)."""
    a_values, a_at = np.unique(a.view(np.int64), return_inverse=True)
    b_values, b_at = np.unique(b.view(np.int64), return_inverse=True)
    keys, key = np.unique(a_at * len(b_values) + b_at, return_inverse=True)
    a_of, b_of = divmod(keys, len(b_values))
    return np.fromiter(map(log_beta, a_values.view(float)[a_of].tolist(),
                           b_values.view(float)[b_of].tolist()),
                       dtype=float, count=len(keys))[key]


def regularized_betas(a, b, x, y) -> list[float]:
    """Regularized incomplete beta I_x(a, b) of each element of
    equal-length sequences, for a, b > 0 and x in [0, 1].

    ``y`` is ``1 - x``, passed separately so that a caller who can form
    it without cancellation (the t and F tails can) keeps its precision
    near x = 1. Every branch is a mask and every arithmetic step one
    elementwise operation, in the one-element order; each log and exp is
    libm's, through ``math``, and log B once per distinct (a, b). The
    continued fractions of all elements run as one numpy iteration. Each
    element's value has the bits of a batch of one. Where x or y is 0 the
    value is 0 or 1 and the other one is not read. Any element whose
    fraction does not converge raises ConvergenceError, and a batch with an
    element outside the domain raises the DomainError of the first one.
    """
    return _regularized_betas(*(np.asarray(v, dtype=float) for v in (a, b, x, y))).tolist()


def _regularized_betas(a: np.ndarray, b: np.ndarray, x: np.ndarray,
                       y: np.ndarray) -> np.ndarray:
    """``regularized_betas`` of float64 arrays, as an array."""
    out = np.where(x == 0.0, 0.0, 1.0)
    live = (x != 0.0) & (y != 0.0)
    bad_shape = ~((a > 0.0) & (b > 0.0))  # NaN fails every comparison
    bad = bad_shape | (live & ~((x >= 0.0) & (x <= 1.0) & (y >= 0.0) & (y <= 1.0)))
    if bad.any():
        i = int(bad.argmax())
        if bad_shape[i]:
            raise DomainError(f"a and b must be > 0, got ({float(a[i])!r}, {float(b[i])!r})")
        raise DomainError(f"x and y must lie in [0, 1], got ({float(x[i])!r}, {float(y[i])!r})")
    a, b, x, y = a[live], b[live], x[live], y[live]
    exponent = a * _log_of(x, y) + b * _log_of(y, x)
    exponent -= _log_betas(a, b)
    front = _map(math.exp, exponent)
    swapped = ~(x < (a + 1.0) / (a + b + 2.0))  # then I_x(a, b) = 1 - I_y(b, a)
    divisor = np.where(swapped, b, a)
    value = front * _fractions(divisor, np.where(swapped, a, b), np.where(swapped, y, x))
    value /= divisor
    out[live] = np.where(swapped, 1.0 - value, value)
    return out


def f_sfs(fs, d1s, d2s) -> list[float]:
    """``f_sf`` over equal-length sequences, with one incomplete-beta batch.

    Each value has the bits of its own ``f_sf`` call, and a batch with bad
    elements raises the error of the first one's own call.
    """
    return _f_sfs(fs, d1s, d2s).tolist()


def _f_sfs(fs, d1s, d2s) -> np.ndarray:
    """``f_sfs``, as a float64 array."""
    f, d1, d2 = (np.asarray(v, dtype=float) for v in (fs, d1s, d2s))
    bad_dof = (d1 < 1) | (d2 < 1)
    bad = bad_dof | np.isnan(f) | (f < 0)
    if bad.any():
        i = int(bad.argmax())
        if bad_dof[i]:
            raise DomainError(f"degrees of freedom must be >= 1, got ({d1s[i]}, {d2s[i]})")
        raise DomainError(f"F statistic must be >= 0, got {fs[i]}")
    out = np.where(f == 0.0, 1.0, np.where(np.isinf(f), 0.0, 0.5))
    beta = (f != 0.0) & ~np.isinf(f) & ~((f == 1.0) & (d1 == d2))
    f, d1, d2 = f[beta], d1[beta], d2[beta]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as float arithmetic
        fd = d1 * f
        x, y = d2 / (d2 + fd), fd / (d2 + fd)
    out[beta] = _regularized_betas(d2 / 2.0, d1 / 2.0, x, y)
    return out


def f_sf(f: float, d1: float, d2: float) -> float:
    """Upper-tail probability of the F distribution.

    Evaluated through the regularized incomplete beta function. The
    equal-dof statistic at 1 sits on the symmetry point and is returned
    exactly.
    """
    return f_sfs((f,), (d1,), (d2,))[0]
