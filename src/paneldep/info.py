"""Discretization, entropy, mutual information, and the maximal
information coefficient.

Everything is in bits (log base 2) so the textbook cases land on exact
values. The MIC search walks every grid resolution (b1, b2) with
b1*b2 <= ceil(n**alpha) and, per resolution, equipartitions one axis and
optimizes the other with an exact dynamic program over clump boundaries;
both orientations are evaluated and the larger kept, which also makes the
score symmetric in its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError, _only
from .panel import (
    DEFAULT_MIC_ALPHA,
    DEFAULT_MIC_CLUMPS,
    MIC_NORMALIZATIONS,
    STRATEGIES,
    AlignedPair,
)


def discretize(values, bins: int, strategy: str = "equal-frequency") -> np.ndarray:
    """Assign each value a bin label in [0, bins).

    equal-width spans [min, max] with the maximum placed in the top bin;
    a constant input collapses to bin 0. equal-frequency splits by rank,
    ties keeping their first-occurrence order.
    """
    return _discretize_rows(np.asarray(values, dtype=float)[None], bins, strategy)[0]


def _discretize_rows(v: np.ndarray, bins: int, strategy: str) -> np.ndarray:
    """``discretize`` applied to each row of a 2-d array."""
    if bins < 2:
        raise DomainError(f"bins must be >= 2, got {bins}")
    if strategy not in STRATEGIES:
        raise DomainError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    n = v.shape[1]
    if n < bins:
        raise InsufficientDataError(f"{n} values cannot fill {bins} bins")
    if strategy == "equal-width":
        lo = v.min(axis=1, keepdims=True)
        hi = v.max(axis=1, keepdims=True)
        constant = lo == hi
        labels = ((v - lo) / np.where(constant, 1.0, hi - lo) * bins).astype(np.intp)
        labels[constant[:, 0]] = 0
        return np.minimum(labels, bins - 1)
    labels = np.empty(v.shape, dtype=np.intp)
    np.put_along_axis(labels, np.argsort(v, axis=1, kind="stable"),
                      np.arange(n) * bins // n, axis=1)
    return labels


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
        return _mi_bits(np.asarray(self.counts)[None], self.n)[0]


def _mi_bits(counts: np.ndarray, n: int) -> list[float]:
    """Mutual information in bits of each (bins_x, bins_y) count grid of a
    stack whose grids all hold n points.

    The terms of all grids are formed in one pass; each grid's are summed
    on their own, in the order a single grid sums them.
    """
    joint = counts / n
    px = joint.sum(axis=2, keepdims=True)
    py = joint.sum(axis=1, keepdims=True)
    nz = joint > 0
    terms = joint[nz] * np.log2(joint[nz] / (px * py)[nz])
    ends = np.cumsum(np.count_nonzero(nz, axis=(1, 2))).tolist()
    return [max(0.0, float(np.add.reduce(terms[start:end])))
            for start, end in zip([0] + ends, ends)]


@dataclass(frozen=True)
class MutualInfoResult:
    mi: float
    bins_x: int
    bins_y: int
    strategy: str


def mutual_informations(pairs, bins: int | None,
                        strategy: str = "equal-frequency"
                        ) -> list[MutualInfoResult | InsufficientDataError]:
    """``mutual_information`` over many pairs: each pair's result, or the
    error its own call raises.

    ``bins`` None gives each pair ``default_mi_bins(pair.n)``. Pairs of one
    length are discretized as one stack and their joint counts come from
    one ``bincount``; each result has the bits of its own call.
    """
    out: list = [None] * len(pairs)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, pair in enumerate(pairs):
        k = default_mi_bins(pair.n) if bins is None else bins
        if pair.n < max(k, 4):
            out[i] = InsufficientDataError(
                f"need at least max(bins, 4) = {max(k, 4)} observations, got {pair.n}"
            )
        else:
            groups.setdefault((pair.n, k), []).append(i)
    for (n, k), members in groups.items():
        lx = _discretize_rows(np.array([pairs[i].x for i in members]), k, strategy)
        ly = _discretize_rows(np.array([pairs[i].y for i in members]), k, strategy)
        cell = (np.arange(len(members))[:, None] * k + lx) * k + ly
        counts = np.bincount(cell.ravel(), minlength=len(members) * k * k)
        for i, mi in zip(members, _mi_bits(counts.reshape(-1, k, k), n)):
            out[i] = MutualInfoResult(mi=mi, bins_x=k, bins_y=k, strategy=strategy)
    return out


def mutual_information(pair: AlignedPair, bins: int,
                       strategy: str = "equal-frequency") -> MutualInfoResult:
    """Discretize both sequences and measure their shared information."""
    return _only(mutual_informations([pair], bins, strategy))


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


def mics(pairs, alpha: float = DEFAULT_MIC_ALPHA, clumps: int = DEFAULT_MIC_CLUMPS,
         normalization: str = "min-entropy-grid"
         ) -> list[MicResult | InsufficientDataError]:
    """``mic`` over many pairs: each pair's result, or the error its own
    call raises.

    A series' axis depends only on its values, so every pair, and both
    orientations, that hold the same aligned series reuse one axis; the
    axes and the per-size tables live for this call only. A bad
    ``alpha``, ``clumps`` or ``normalization`` raises.
    """
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must be in (0, 1], got {alpha}")
    if clumps < 1:
        raise DomainError(f"clumps must be >= 1, got {clumps}")
    if normalization not in MIC_NORMALIZATIONS:
        raise DomainError(
            f"normalization must be one of {MIC_NORMALIZATIONS}, got {normalization!r}"
        )
    tables = _Tables()
    axes: dict[tuple, _Axis] = {}
    out: list = []
    for pair in pairs:
        if pair.n < 25:
            out.append(InsufficientDataError(
                f"need at least 25 observations, got {pair.n}"))
            continue
        for values in (pair.x, pair.y):
            if values not in axes:
                axes[values] = _Axis(values)
        out.append(_search(tables, axes[pair.x], axes[pair.y],
                           grid_bound(pair.n, alpha), clumps, normalization))
    return out


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
    return _only(mics([pair], alpha, clumps, normalization))


def _search(tables: _Tables, x: _Axis, y: _Axis, bound: int, clumps: int,
            normalization: str) -> MicResult:
    """The grid search behind ``mic``, over two prepared axes of one length."""
    if len(x.runs) == 1 or len(y.runs) == 1:  # one tie run: a constant axis
        return MicResult(0.0, 0, 0, bound, normalization, degenerate=True)

    eq7 = normalization == "max-entropy"
    cells: dict[tuple[int, int], float] = {}
    _fill_cells(tables, cells, x, y, bound, clumps, eq7, transpose=False)
    _fill_cells(tables, cells, y, x, bound, clumps, eq7, transpose=True)

    # Reduce after the full sweep so evaluation order cannot matter; ties
    # go to the lexicographically smallest resolution.
    best_key, best_val = None, -math.inf
    for key in sorted(cells):
        if cells[key] > best_val:
            best_key, best_val = key, cells[key]
    assert best_key is not None
    return MicResult(
        mic=min(1.0, max(0.0, best_val)),
        best_b1=best_key[0],
        best_b2=best_key[1],
        grid_bound=bound,
        normalization=normalization,
    )


class _Tables:
    """The index and x*log2(x) tables of one ``mics`` call, kept per size."""

    def __init__(self):
        self._triu: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._xlog2x: dict[int, np.ndarray] = {}

    def xlog2x(self, n: int) -> np.ndarray:
        """c * log2(c) for c = 0..n (0 at c = 0)."""
        table = self._xlog2x.get(n)
        if table is None:
            c = np.arange(1, n + 1, dtype=float)
            table = self._xlog2x[n] = np.concatenate(([0.0], c * np.log2(c)))
        return table

    def triu(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Every (s, t) with 0 <= s < t <= k."""
        pairs = self._triu.get(k)
        if pairs is None:
            pairs = self._triu[k] = np.triu_indices(k + 1, 1)
        return pairs


# -- grid-search internals --------------------------------------------------
#
# All of this operates on ranks and tie patterns only, never on numeric
# magnitudes, so the score is invariant under strictly monotone transforms
# of either axis.

def _run_ends(sorted_values: np.ndarray) -> np.ndarray:
    """End index of each run of equal values in a sorted array."""
    change = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
    return np.append(change, len(sorted_values))


def _group_runs(lengths: np.ndarray, k: int) -> np.ndarray:
    """Assign consecutive runs to at most k ordered groups of near-equal size.

    A run never splits. The running target size is re-estimated from the
    remaining points whenever a group closes.
    """
    n = int(lengths.sum())
    groups = np.empty(len(lengths), dtype=np.intp)
    group = 0
    in_group = 0
    desired = n / k
    placed = 0
    for r, tie in enumerate(lengths.tolist()):
        if (in_group > 0 and group < k - 1
                and abs(in_group + tie - desired) >= abs(in_group - desired)):
            group += 1
            in_group = 0
            desired = (n - placed) / (k - group)
        groups[r] = group
        in_group += tie
        placed += tie
    return groups


class _Axis:
    """One series as the grid search sees it: ranks and tie runs only.

    The stable sort order and the tie runs are found once. Each row
    count's equipartition is found on first use and kept, since every
    partner series and both orientations ask for the same ones.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        self.n = len(values)
        self.order = np.argsort(values, kind="stable")
        #: End and start of each run of tied values, in sorted order.
        self.runs = _run_ends(values[self.order])
        self.starts = np.concatenate(([0], self.runs[:-1]))
        self.lengths = self.runs - self.starts
        self._partitions: dict[int, tuple[np.ndarray, int, float]] = {}

    def partition(self, k: int) -> tuple[np.ndarray, int, float]:
        """At most k ordered groups of near-equal size; ties share a group.

        Returns each sample's group, the number of groups used and the
        entropy in bits of the group sizes.
        """
        found = self._partitions.get(k)
        if found is None:
            groups = _group_runs(self.lengths, k)
            assign = np.empty(self.n, dtype=np.intp)
            assign[self.order] = np.repeat(groups, self.lengths)
            used = int(groups[-1]) + 1
            found = self._partitions[k] = (
                assign, used, _entropy_counts(np.bincount(assign, minlength=used)))
        return found


def _clump_ends(cols: _Axis, rows: np.ndarray) -> np.ndarray:
    """Prefix point counts at clump boundaries (index 0 is the empty prefix).

    ``rows`` gives the row of each point in the column axis's order. A
    clump is a maximal run of column-consecutive points sharing a row; a
    tie run whose rows disagree is pinned as an unmergeable clump of its own.
    """
    low = np.minimum.reduceat(rows, cols.starts)
    token = np.where(low == np.maximum.reduceat(rows, cols.starts), low,
                     -1 - cols.starts)
    return np.concatenate(([0], cols.runs[:-1][token[1:] != token[:-1]],
                           cols.runs[-1:]))


def _superclump_ends(ends: np.ndarray, budget: int) -> np.ndarray:
    """Merge clumps down to at most ``budget`` candidates, clumps intact."""
    if len(ends) - 1 <= budget:
        return ends
    groups = _group_runs(np.diff(ends), budget)
    return ends[np.concatenate(([True], groups[1:] != groups[:-1], [True]))]


def _entropy_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log2(p)))


def _optimize_axis(tables: _Tables, cum: np.ndarray, ends: np.ndarray, n: int,
                   max_cols: int, hq: float, want_partitions: bool):
    """Exact DP over the boundary set: best I(P;Q) per column count.

    ``cum[t, r]`` is the integer count of points of row r in the first t
    clumps, and ``ends[t]`` the count of all points in them, so every
    x*log2(x) term is a lookup in one table. For an interval (s, t]
    forming one column, the contribution sum_r c_r*log2(c_r) - m*log2(m)
    is additive across columns, so prefix optima compose exactly.
    Returns {l: score} for l = 2..max_cols (column counts beyond the
    number of clumps reuse the best achievable) and, when asked,
    {l: column sizes of the maximizing partition}.
    """
    k = len(ends) - 1
    xlog2x = tables.xlog2x(n)
    s, t = tables.triu(k)
    G = np.full((k + 1, k + 1), -np.inf)
    G[s, t] = xlog2x[cum[t] - cum[s]].sum(axis=1) - xlog2x[ends[t] - ends[s]]

    W = G[0].copy()
    argmax_at: dict[int, np.ndarray] = {}
    best_w: dict[int, float] = {}
    for level in range(2, min(max_cols, k) + 1):
        M = W[:, None] + G
        if want_partitions:
            argmax_at[level] = M.argmax(axis=0)
        W = M.max(axis=0)
        best_w[level] = W[k]

    scores: dict[int, float] = {}
    partitions: dict[int, np.ndarray] = {}
    for l in range(2, max_cols + 1):
        reach = min(l, k)
        scores[l] = hq + best_w[reach] / n
        if want_partitions:
            chain = [k]
            for level in range(reach, 1, -1):
                chain.append(int(argmax_at[level][chain[-1]]))
            chain.append(0)
            partitions[l] = np.diff(ends[np.asarray(chain[::-1])])
    return scores, partitions


def _fill_cells(tables: _Tables, cells: dict, cols: _Axis, rows: _Axis,
                bound: int, clumps: int, eq7: bool, transpose: bool) -> None:
    n = cols.n
    for n_rows in range(2, bound // 2 + 1):
        max_cols = bound // n_rows
        if max_cols < 2:
            break
        row_assign, row_count, hq = rows.partition(n_rows)
        rows_x_order = row_assign[cols.order]
        ends = _superclump_ends(_clump_ends(cols, rows_x_order),
                                max(clumps * max_cols, max_cols))
        cum = np.zeros((n + 1, row_count), dtype=np.intp)
        np.cumsum(rows_x_order[:, None] == np.arange(row_count), axis=0,
                  out=cum[1:])
        scores, partitions = _optimize_axis(tables, cum[ends], ends, n, max_cols,
                                            hq, eq7)
        for l in range(2, max_cols + 1):
            raw = scores[l]
            if eq7:
                hp = _entropy_counts(partitions[l])
                denom = max(hp, hq)
                value = raw / denom if denom > 0 else 0.0
            else:
                value = raw / math.log2(min(l, n_rows))
            key = (n_rows, l) if transpose else (l, n_rows)
            if value > cells.get(key, -math.inf):
                cells[key] = value
