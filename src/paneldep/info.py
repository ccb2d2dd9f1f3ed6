"""Discretization, entropy, mutual information, and the maximal
information coefficient.

Everything is in bits (log base 2) so the textbook cases land on exact
values. The MIC search walks every grid resolution (b1, b2) with
b1*b2 <= ceil(n**alpha) and, per resolution, equipartitions one axis and
optimizes the other with an exact dynamic program over clump boundaries;
both orientations are evaluated and the larger kept, which also makes the
score symmetric in its arguments. Pairs of one length are searched as one
stack, with the bits of a one-pair search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError, _check_count, _only
from .panel import (
    DEFAULT_MIC_ALPHA,
    DEFAULT_MIC_CLUMPS,
    MIC_NORMALIZATIONS,
    STRATEGIES,
    AlignedPair,
)
from . import table as _table
from .table import Columns, PairTable, _pair_slices, shared


def discretize(values, bins: int, strategy: str = "equal-frequency") -> np.ndarray:
    """Assign each value a bin label in [0, bins).

    equal-width spans [min, max] with the maximum placed in the top bin;
    a constant input collapses to bin 0. equal-frequency is MIC's
    equipartition: at most ``bins`` ordered groups of near-equal size, tied
    values always sharing a group, so labels do not depend on value order.
    """
    _check_binning(bins, strategy)
    v = np.asarray(values, dtype=float)[None]
    if v.shape[1] < bins:
        raise InsufficientDataError(f"{v.shape[1]} values cannot fill {bins} bins")
    return _discretize_rows(v, bins, strategy)[0][0]


def _check_binning(bins: int | None, strategy: str) -> None:
    """Raise DomainError for a bin count that is no integer or under 2
    (None, each pair's default, passes) or an unknown strategy."""
    if bins is not None:
        _check_count("bins", bins, 2)
    if strategy not in STRATEGIES:
        raise DomainError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")


def _discretize_rows(v: np.ndarray, bins: int,
                     strategy: str) -> tuple[np.ndarray, np.ndarray]:
    """``discretize`` applied to each row of a 2-d array of at least
    ``bins`` columns, and the bins each row uses: ``bins`` for equal-width,
    the groups its ties leave for equal-frequency."""
    if strategy == "equal-frequency":
        return _Axes(v).equipartition(bins)
    lo = v.min(axis=1, keepdims=True)
    hi = v.max(axis=1, keepdims=True)
    constant = lo == hi
    labels = ((v - lo) / np.where(constant, 1.0, hi - lo) * bins).astype(np.intp)
    labels[constant[:, 0]] = 0
    return np.minimum(labels, bins - 1), np.full(len(v), bins)


def _labels(rows: np.ndarray, bins: int, strategy: str) -> tuple[np.ndarray, np.ndarray]:
    """``_discretize_rows`` of a length group's rows, formed in slices of
    the rows (see ``table._pair_slices``), with the labels held in the
    smallest unsigned integer type that holds ``bins - 1``."""
    labels = np.empty(rows.shape, dtype=np.min_scalar_type(bins - 1))
    used = np.empty(len(rows), dtype=np.intp)
    for part in _pair_slices(len(rows), rows.shape[1]):
        labels[part], used[part] = _discretize_rows(rows[part], bins, strategy)
    return labels, used


def entropy(labels) -> float:
    """Shannon entropy in bits of a label sequence."""
    arr = np.asarray(labels)
    if arr.size == 0:
        raise DomainError("entropy of an empty sequence is undefined")
    return _entropy_counts(np.unique(arr, return_counts=True)[1])


@dataclass(frozen=True)
class JointHistogram:
    """Grid of co-occurrence counts for two label sequences."""

    counts: np.ndarray
    n: int

    @classmethod
    def from_labels(cls, lx, ly, bins_x: int, bins_y: int) -> "JointHistogram":
        lx = np.asarray(lx, dtype=np.intp)
        ly = np.asarray(ly, dtype=np.intp)
        if lx.shape != ly.shape:
            raise DomainError("label sequences differ in length")
        for labels, bins, axis in ((lx, bins_x, "x"), (ly, bins_y, "y")):
            if labels.size and (labels.min() < 0 or labels.max() >= bins):
                raise DomainError(
                    f"{axis} labels must lie in [0, {bins}), got "
                    f"{int(labels.min())}..{int(labels.max())}"
                )
        counts = np.zeros((bins_x, bins_y), dtype=np.int64)
        np.add.at(counts, (lx, ly), 1)
        return cls(counts=counts, n=int(lx.size))

    def mi_bits(self) -> float:
        """Mutual information of the joint distribution, in bits."""
        if self.n == 0:
            raise DomainError("empty histogram")
        return _mi_bits(np.asarray(self.counts)[None], self.n)[0].item()


def _mi_bits(counts: np.ndarray, n: int) -> np.ndarray:
    """Mutual information in bits of each (bins_x, bins_y) count grid of a
    stack whose grids all hold n points.

    The terms of all grids are formed in one pass. The grids with c
    nonzero terms are summed as one ``np.add.reduce(axis=1)`` over a
    C-contiguous (grids, c) gather of their terms, one reduce per distinct
    c; numpy sums each row in the pairwise order it uses for the one grid's
    slice, so each value has the bits of a stack of one.
    """
    joint = counts / n
    px = joint.sum(axis=2, keepdims=True)
    py = joint.sum(axis=1, keepdims=True)
    nz = joint > 0
    terms = joint[nz] * np.log2(joint[nz] / (px * py)[nz])
    sizes = np.count_nonzero(nz, axis=(1, 2))
    starts = np.cumsum(sizes) - sizes
    out = np.empty(len(counts))
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        grids = np.flatnonzero(sizes == size)
        out[grids] = np.add.reduce(terms[starts[grids, None] + np.arange(size)], axis=1)
    return np.where(out > 0.0, out, 0.0)  # max(0.0, sum)


@dataclass(frozen=True)
class MutualInfoResult:
    mi: float
    bins_x: int
    bins_y: int
    strategy: str


def mutual_informations_over(table: PairTable, bins: int | None,
                             strategy: str = "equal-frequency") -> Columns:
    """``mutual_information`` of each pair of a table, as columns by place.

    ``bins`` None gives each pair ``default_mi_bins(n)``. Each row of a
    length group is discretized once, in slices of the rows (see
    ``_labels``), and the joint counts of each slice of the group's pairs
    (see ``table._pair_slices``) come from one ``bincount``; each result
    has the bits of its own call.
    ``bins_x`` and ``bins_y`` are the bins each series uses (see
    ``_discretize_rows``); a series that is one group gives MI 0. A bad
    ``bins`` or ``strategy`` raises.
    """
    _check_binning(bins, strategy)
    errors: dict = {}
    mi = np.full(table.size, np.nan)
    bins_x, bins_y = np.zeros(table.size, dtype=np.intp), np.zeros(table.size, dtype=np.intp)
    for group in table.groups:
        n = group.n
        k = default_mi_bins(n) if bins is None else bins
        if n < max(k, 4):
            for place in group.places.tolist():
                errors[place] = InsufficientDataError(
                    f"need at least max(bins, 4) = {max(k, 4)} observations, got {n}")
            continue
        labels, used = _labels(group.rows, k, strategy)
        for part in _pair_slices(len(group.places), max(n, k * k)):
            xi, yi, at = group.xi[part], group.yi[part], group.places[part]
            cell = labels[xi].astype(np.intp)  # (pair * k + x label) * k + y label, in place
            cell += np.arange(0, len(at) * k, k)[:, None]
            cell *= k
            cell += labels[yi]
            counts = np.bincount(cell.ravel(), minlength=len(at) * k * k).reshape(-1, k, k)
            mi[at] = _mi_bits(counts, n)
            bins_x[at], bins_y[at] = used[xi], used[yi]
    return Columns(MutualInfoResult, {"mi": mi, "bins_x": bins_x, "bins_y": bins_y,
                                      "strategy": shared(strategy, table.size)},
                   table.n, errors)


def mutual_information(pair: AlignedPair, bins: int,
                       strategy: str = "equal-frequency") -> MutualInfoResult:
    """Discretize both sequences and measure their shared information."""
    return _only(mutual_informations_over(PairTable.of_pairs([pair]), bins, strategy).results())


def default_mi_bins(n: int) -> int:
    """Rank-based default: sqrt(n) capped at 10, floor 2."""
    return max(2, min(int(math.isqrt(n)), 10))


@dataclass(frozen=True)
class MicResult:
    mic: float
    best_b1: int
    best_b2: int
    grid_bound: int
    normalization: str
    degenerate: bool = False


def grid_bound(n: int, alpha: float) -> int:
    return int(math.ceil(n ** alpha))


def mics_over(table: PairTable, alpha: float = DEFAULT_MIC_ALPHA,
              clumps: int = DEFAULT_MIC_CLUMPS,
              normalization: str = "min-entropy-grid") -> Columns:
    """``mic`` of each pair of a table, as columns by place.

    An aligned series' axis depends only on its values, so every pair, and
    both orientations, that hold the same aligned series (one row of its
    group) share its tie runs and each row count's equipartition, found once
    per row in slices of the group's rows (see ``_Ranks``); they live for
    this call only. Each length group is searched as stacks that hold each
    pair in both orientations (see ``_search``). Per row count, the exact DP
    runs once per slice of a stack's pairs sorted by clump count k, each
    pair padded to its slice's largest k (see ``_fill_cells``). A bad
    ``alpha``, ``clumps`` or ``normalization`` raises.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    _check_count("clumps", clumps, 1)
    if normalization not in MIC_NORMALIZATIONS:
        raise DomainError(
            f"normalization must be one of {MIC_NORMALIZATIONS}, got {normalization!r}"
        )
    errors: dict = {}
    # a degenerate pair keeps MIC 0 and resolution (0, 0)
    mic = np.zeros(table.size)
    best_b1, best_b2, bounds = (np.zeros(table.size, dtype=np.intp) for _ in range(3))
    degenerate = np.zeros(table.size, dtype=bool)
    for group in table.groups:
        n = group.n
        bound = grid_bound(n, alpha)
        if n < 25 or bound < 4:
            message = (f"need at least 25 observations, got {n}" if n < 25 else
                       f"grid bound B = {bound} at n = {n} fits no 2x2 grid; need B >= 4")
            for place in group.places.tolist():
                errors[place] = InsufficientDataError(message)
            continue
        bounds[group.places] = bound
        ranks = _Ranks(group.rows, range(2, bound // 2 + 1))
        flat = (ranks.count[group.xi] == 1) | (ranks.count[group.yi] == 1)  # one tie run
        degenerate[group.places[flat]] = True
        members = group.places[~flat]
        xs, ys = group.xi[~flat], group.yi[~flat]  # the searched pairs' rows
        # a stack's prefix counts hold (n + 1) * (B // 2) integers per pair
        # and orientation
        for part in _pair_slices(len(members), 2 * (n + 1) * (bound // 2)):
            at = members[part]
            mic[at], best_b1[at], best_b2[at] = _search(
                ranks, xs[part], ys[part], bound, clumps, normalization)
    return Columns(MicResult, {"mic": mic, "best_b1": best_b1, "best_b2": best_b2,
                               "grid_bound": bounds,
                               "normalization": shared(normalization, table.size),
                               "degenerate": degenerate}, table.n, errors)


def mic(pair: AlignedPair, alpha: float = DEFAULT_MIC_ALPHA,
        clumps: int = DEFAULT_MIC_CLUMPS,
        normalization: str = "min-entropy-grid") -> MicResult:
    """Maximal information coefficient over all bounded grid resolutions.

    ``clumps`` scales the candidate-boundary budget (clumps * columns) of
    the per-resolution optimizer; raising it trades time for exactness.
    The default normalization divides each resolution's score by
    log2(min(b1, b2)); "max-entropy" divides by the larger marginal
    entropy of the maximizing grid instead.
    """
    return _only(mics_over(PairTable.of_pairs([pair]), alpha, clumps, normalization).results())


def _search(ranks: _Ranks, xs: np.ndarray, ys: np.ndarray, bound: int,
            clumps: int, normalization: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid search behind ``mic`` for a stack of pairs of one length,
    none of them with a constant axis: pair p is row ``xs[p]`` of ``ranks``
    against row ``ys[p]``. Returns each pair's MIC and best (b1, b2).

    Each resolution's score of each pair has the bits of a one-pair search:
    the stacks run the same elementwise operations, a padded boundary
    enters no partition, and each interval's row terms are added from left
    to right, so a row the pair leaves empty adds +0.0.
    """
    keys = sorted({key for n_rows in range(2, bound // 2 + 1)
                   for l in range(2, bound // n_rows + 1)
                   for key in ((l, n_rows), (n_rows, l))})
    column = {key: j for j, key in enumerate(keys)}
    P = len(xs)
    cells = np.full((2 * P, len(keys)), -np.inf)  # x by y, then y by x
    _fill_cells(cells, column, ranks, np.concatenate((xs, ys)),
                np.concatenate((ys, xs)), bound, clumps, normalization == "max-entropy")
    cells = np.maximum(cells[:P], cells[P:])

    # Reduce after the full sweep so evaluation order cannot matter; the
    # columns are in (b1, b2) order, so ties go to the smallest resolution.
    best = cells.argmax(axis=1)
    values = cells[np.arange(P), best]
    values = np.where(values > 0.0, values, 0.0)  # min(1.0, max(0.0, value))
    resolution = np.array(keys, dtype=np.intp).reshape(-1, 2)[best]
    return np.where(values < 1.0, values, 1.0), resolution[:, 0], resolution[:, 1]


# -- grid-search internals --------------------------------------------------
#
# All of this operates on ranks and tie patterns only, never on numeric
# magnitudes, so the score is invariant under strictly monotone transforms
# of either axis.

def _equipartition(lengths: np.ndarray, first: np.ndarray,
                   k: int | np.ndarray) -> np.ndarray:
    """Each run's group when each sequence of runs (laid end to end, sequence
    s from run ``first[s]``) is cut into at most k ordered groups of
    near-equal size, no run split; k is one count or one per sequence.

    Group g ends before the first later run whose midpoint, in points,
    reaches start + (n - start) / (k - g), start being the points before
    the group; the last group takes the rest. In integers, with cum_r the
    points before run r: cum_r + cum_{r+1} >= 2 start + ceil(2 (n - start)
    / (k - g)), the float test's decision (a tie needs a half-integer
    target, exact in a double), and one ``searchsorted`` per group.
    """
    cum = np.concatenate(([0], np.cumsum(lengths)))
    mid = cum[:-1] + cum[1:]  # twice each run's midpoint, increasing
    cum *= 2  # from here on, twice the points before each run
    stop = np.append(first[1:], len(lengths))  # one past each sequence's runs
    end = cum[stop]
    at, opened = first, []  # each sequence's first run of its current group
    for g in range(int(np.max(k)) - 1):
        start = cum.take(at)
        left = np.maximum(k - g, 1)  # at 1 the target is n: the sequence is done
        target = start - (start - end) // left  # the ceiling, as -(-x // left)
        at = np.minimum(np.maximum(mid.searchsorted(target), at + 1), stop)
        opened.append(at)
    # a finished sequence marks its stop, which the subtraction cancels
    opens = np.zeros(len(lengths) + 1, dtype=np.intp)
    opens[np.concatenate([first] + opened)] = 1
    groups = np.cumsum(opens[:-1])
    return groups - np.repeat(groups[first], stop - first)


class _Axes:
    """The rows of a stack as ranks and tie runs only: each row's stable
    sort ``order``, and where in it each run of tied values ``opens``. Row
    i has ``count[i]`` runs, from run ``first[i]`` of the ``lengths`` of all
    rows' runs laid end to end."""

    def __init__(self, rows: np.ndarray):
        self.n = rows.shape[1]
        self.order = np.argsort(rows, axis=1, kind="stable")
        ordered = np.take_along_axis(rows, self.order, axis=1)
        self.opens = np.ones(rows.shape, dtype=bool)
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=self.opens[:, 1:])
        self.count = np.count_nonzero(self.opens, axis=1)
        self.first = np.cumsum(self.count) - self.count
        self.lengths = np.diff(np.append(np.flatnonzero(self.opens), rows.size))

    def equipartition(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Each value's group in its row's equipartition into at most k
        groups (see ``_equipartition``), and the groups each row uses."""
        groups = _equipartition(self.lengths, self.first, k)
        labels = np.empty(self.order.shape, dtype=np.intp)
        np.put_along_axis(labels, self.order,
                          np.repeat(groups, self.lengths).reshape(labels.shape), axis=1)
        return labels, groups[self.first + self.count - 1] + 1


class _Ranks:
    """What the grid search reads of each row of a length group, found in
    slices of the rows (see ``table._pair_slices``) and held for the whole
    group: each row's ``_Axes`` ``order``, ``opens`` and ``count``, and for
    each row count r of ``row_counts`` the rows' ``_row_partition``, with
    labels in ``labels[r]`` and entropies in ``hq[r]``. ``order`` and the
    labels are held in the smallest unsigned integer type of their values.
    """

    def __init__(self, rows: np.ndarray, row_counts):
        count, self.n = rows.shape
        self.order = np.empty(rows.shape, dtype=np.min_scalar_type(self.n - 1))
        self.opens = np.empty(rows.shape, dtype=bool)
        self.count = np.empty(count, dtype=np.intp)
        self.labels = {r: np.empty(rows.shape, dtype=np.min_scalar_type(r - 1))
                       for r in row_counts}
        self.hq = {r: np.empty(count) for r in row_counts}
        for part in _pair_slices(count, self.n):
            axes = _Axes(rows[part])
            self.order[part], self.opens[part], self.count[part] = (
                axes.order, axes.opens, axes.count)
            for r in row_counts:
                self.labels[r][part], self.hq[r][part] = _row_partition(axes, r)


def _row_partition(axes: _Axes, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each value's group in ``axes.equipartition(k)`` and the entropy in
    bits of each row's group sizes, summed row by row as ``_entropy_counts``
    sums."""
    labels, used = axes.equipartition(k)
    sizes = np.bincount((labels + k * np.arange(len(used))[:, None]).ravel(),
                        minlength=k * len(used)).reshape(len(used), k)
    hq = np.empty(len(used))
    for u in np.flatnonzero(np.bincount(used)).tolist():  # np.unique would load numpy.ma
        at = np.flatnonzero(used == u)
        p = sizes[at, :u] / axes.n
        hq[at] = -np.sum(p * np.log2(p), axis=1)
    return labels, hq


def _entropy_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log2(p)))


def _fill_cells(cells: np.ndarray, column: dict, ranks: _Ranks, cols: np.ndarray,
                rows: np.ndarray, bound: int, clumps: int, eq7: bool) -> None:
    """Score every resolution of a stack of pairs, each in one orientation:
    pair p has columns ``cols[p]`` and rows ``rows[p]``, rows of ``ranks``,
    and the stack's second half is its first half transposed.

    The rows in column order and the clump ends of every row count and
    pair come from one array program each, over the pairs laid end to end;
    per row count, so do the prefix counts. The exact DP then runs once per
    row count and slice: the pairs, sorted by clump count k, are cut into
    slices under ``table._STACK_ELEMENTS``, and each pair's clump
    boundaries are padded to its slice's largest k. Each cell gets one value.
    """
    P, n = len(cols), ranks.n
    order = (ranks.order[cols] + np.arange(0, P * n, n)[:, None]).ravel()
    row_counts = range(2, bound // 2 + 1)
    # the pairs' row labels in column order, one row per row count
    in_order = np.array([ranks.labels[n_rows][rows].ravel()[order] for n_rows in row_counts],
                        dtype=np.intp)
    budget = np.repeat([clumps * (bound // n_rows) for n_rows in row_counts], P)
    ends, k = _clump_ends(ranks, cols, in_order, budget)
    # positions in the prefix counts below, which give each pair n + 1 rows
    prefix_at = np.arange(0, P * (n + 1), n + 1)
    first = np.cumsum(k) - k  # each (row count, pair)'s first clump end
    for n_rows, rows_x_order, k, first in zip(row_counts, in_order, k.reshape(-1, P),
                                              first.reshape(-1, P)):
        max_cols = bound // n_rows
        cum = np.zeros((n_rows, P, n + 1), dtype=np.intp)  # one plane per row
        np.cumsum(rows_x_order.reshape(P, n) == np.arange(n_rows)[:, None, None], axis=2,
                  out=cum[:, :, 1:])
        cum = cum.reshape(n_rows, P * (n + 1))

        hq = ranks.hq[n_rows][rows]
        js = np.array([[column[(l, n_rows)] for l in range(2, max_cols + 1)],
                       [column[(n_rows, l)] for l in range(2, max_cols + 1)]])
        log_grid = np.array([math.log2(min(l, n_rows)) for l in range(2, max_cols + 1)])
        for part in _slices(k, square=max_cols > 2 or eq7):
            # each pair's boundaries past its own k repeat its last one
            width = int(k[part[-1]])
            at = np.empty((len(part), width + 1), dtype=np.intp)
            at[:, 0] = prefix_at[part]
            at[:, 1:] = ends[first[part, None]
                             + np.minimum(np.arange(width), k[part, None] - 1)]
            scores, partitions = _optimize_axis(np.take(cum, at, axis=1), at, k[part], n,
                                                max_cols, hq[part], eq7)
            into = part[:, None], js[(part >= P // 2).astype(np.intp)]
            if eq7:
                cells[into] = _max_entropy_scores(scores, partitions, hq[part])
            else:
                cells[into] = scores / log_grid


def _clump_ends(ranks: _Ranks, cols: np.ndarray, in_order: np.ndarray,
                budget: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The clump ends of each row count (a row of ``in_order``, the pairs'
    row labels in column order, laid end to end) and pair, merged down to
    ``budget``, which has one entry per (row count, pair): the ends without
    each leading 0, in the prefix counts' positions (n + 1 per pair), and
    each (row count, pair)'s number of clumps k.

    A clump is a maximal run of column-consecutive points sharing a row; a
    tie run whose rows disagree is pinned as an unmergeable clump of its
    own; a pair's last run closes its last clump. Over budget, clumps are
    merged by the equipartition, clumps intact.
    """
    P, n = len(cols), ranks.n
    runs = ranks.count[cols]
    run_starts = np.flatnonzero(ranks.opens[cols])  # in the pairs' points end to end
    run_ends = np.append(run_starts[1:], P * n) + np.repeat(np.arange(P), runs)
    run_first = np.cumsum(runs) - runs
    low = np.minimum.reduceat(in_order, run_starts, axis=1)
    high = np.maximum.reduceat(in_order, run_starts, axis=1)
    token = np.where(low == high, low, -1 - run_starts)
    closes = np.ones(token.shape, dtype=bool)
    np.not_equal(token[:, 1:], token[:, :-1], out=closes[:, :-1])
    closes[:, run_first + runs - 1] = True
    ends = np.broadcast_to(run_ends, closes.shape)[closes]
    k = np.add.reduceat(closes, run_first, axis=1, dtype=np.intp).ravel()
    over = np.flatnonzero(k > budget)
    if len(over):
        clumped = np.flatnonzero(np.repeat(k > budget, k))  # their clumps
        head = np.cumsum(k[over]) - k[over]  # each one's first clump in them
        sizes = np.diff(ends[clumped], prepend=0)
        sizes[head] = ends[(np.cumsum(k) - k)[over]] - (over % P) * (n + 1)
        groups = _equipartition(sizes, head, budget[over])
        keep = np.ones(len(ends), dtype=bool)  # a pair's last group is >= 1
        keep[clumped[:-1]] = groups[1:] != groups[:-1]
        k[over] = groups[head + k[over] - 1] + 1
        ends = ends[keep]
    return ends, k


def _slices(k: np.ndarray, square: bool):
    """The pairs of each DP call, sorted by clump count k, each padded to
    its slice's last pair's k. Per pair, G, each DP level and the row terms
    of the intervals hold about (k + 1)^2 floats when the DP forms every
    interval (``square``), else about k + 1."""
    order = np.argsort(k, kind="stable")
    width = k[order] + 1
    held = width ** 2 if square else width  # nondecreasing
    start = 0
    while start < len(order):
        # m pairs from start hold m times the m-th one's share
        total = np.arange(1, len(order) - start + 1) * held[start:]
        end = start + max(1, int(np.searchsorted(total, _table._STACK_ELEMENTS,
                                                 side="right")))
        yield order[start:end]
        start = end


def _optimize_axis(cum: np.ndarray, ends: np.ndarray, k: np.ndarray, n: int,
                   max_cols: int, hq: np.ndarray, want_partitions: bool):
    """Exact DP over the boundary sets of a stack: best I(P;Q) per column count.

    Pair p has ``k[p]`` clumps. ``cum[r, p, t]`` is the integer count of
    points of row r in its first t clumps, and ``ends[p, t]`` the count of
    all points in them (plus an offset per pair), so every x*log2(x) term
    is a lookup in one table. A row past those the pair's partition uses
    holds 0 points, so its terms add exactly +0.0 and the stack may mix
    row counts. Past t = k[p] both repeat their value at k[p], up to the
    stack's largest k; every interval that ends there gets G = -inf, so no
    partition holds it, and each pair's scores and partitions are read at
    its own k. For an interval (s, t] forming one column, the contribution
    sum_r c_r*log2(c_r) - m*log2(m) is additive across columns, so prefix
    optima compose exactly. Returns each pair's score for l = 2..max_cols
    columns (column counts beyond the number of clumps reuse the best
    achievable) and, when asked, each pair's column sizes of the
    maximizing partition per l.
    """
    P, K = ends.shape[0], ends.shape[1] - 1
    levels = min(max_cols, K)
    pair = np.arange(P)
    c = np.arange(1, n + 1, dtype=float)
    xlog2x = np.concatenate(([0.0], c * np.log2(c)))  # 0 at c = 0

    def interval_scores(span):
        # span(a) is a[end] - a[start] of each interval, for a per pair and
        # boundary; each interval's row terms are added from left to right
        total = xlog2x.take(span(cum[0]))
        for plane in cum[1:]:
            total += xlog2x.take(span(plane))
        return total - xlog2x.take(span(ends))

    # Only the scores are read at a pair's last level, so the stack's last
    # level forms each pair's column t = k[p] alone; with two levels, G is
    # read in row 0 and that column only.
    last_column = not want_partitions
    padded = np.arange(K + 1) > k[:, None]  # each pair's t past its k
    if levels > 2 or not last_column:
        s, t = np.triu_indices(K + 1, 1)  # every interval (s, t]
        G = np.full((P, K + 1, K + 1), -np.inf)
        # np.take gathers whole rows far faster than fancy indexing does
        G.reshape(P, -1)[:, s * (K + 1) + t] = interval_scores(
            lambda a: np.take(a, t, axis=1) - np.take(a, s, axis=1))
        G.transpose(0, 2, 1)[padded] = -np.inf
        W, column = G[:, 0], G[pair, :, k]
    else:
        W = np.full((P, K + 1), -np.inf)  # (0, t] for each t
        W[:, 1:] = interval_scores(lambda a: a[:, 1:] - a[:, :1])
        W[padded] = -np.inf
        column = np.full((P, K + 1), -np.inf)  # (s, k[p]] for each s
        column[:, :-1] = interval_scores(lambda a: a[pair, k][:, None] - a[:, :-1])
        column[np.arange(K + 1) >= k[:, None]] = -np.inf

    best_w = np.empty((P, levels - 1))
    argmax_at = []
    M = None  # each level's W[s] + G[s, t], in one buffer
    for level in range(2, levels + 1):
        if last_column and level == levels:
            best_w[:, level - 2] = (W + column).max(axis=1)
            break
        M = np.add(W[:, :, None], G, out=M)
        if want_partitions:
            argmax_at.append(M.argmax(axis=1))
        W = M.max(axis=1)
        best_w[:, level - 2] = W[pair, k]
    reach = np.minimum(np.arange(2, max_cols + 1), k[:, None])
    scores = hq[:, None] + best_w[pair[:, None], reach - 2] / n

    partitions = []
    if want_partitions:
        for p, width in enumerate(k.tolist()):
            sizes = []
            for l in range(2, max_cols + 1):
                chain = [width]
                for level in range(min(l, width), 1, -1):
                    chain.append(int(argmax_at[level - 2][p, chain[-1]]))
                chain.append(0)
                sizes.append(np.diff(ends[p, chain[::-1]]))
            partitions.append(sizes)
    return scores, partitions


def _max_entropy_scores(scores: np.ndarray, partitions: list,
                        hq: np.ndarray) -> np.ndarray:
    """Each score over the larger marginal entropy of its maximizing grid."""
    value = np.zeros(scores.shape)
    for p, h in enumerate(hq.tolist()):
        for j, sizes in enumerate(partitions[p]):
            denom = max(_entropy_counts(sizes), h)
            if denom > 0:
                value[p, j] = scores[p, j] / denom
    return value
