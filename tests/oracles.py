"""Slow reference implementations the fast code is checked against."""

import itertools
import math

import numpy as np

from paneldep.errors import DomainError, InsufficientOverlapError
from paneldep.panel import AlignedPair
from paneldep.special import log_beta


def reference_equipartition(values: np.ndarray, k: int) -> np.ndarray:
    """Assign samples to at most k ordered groups of near-equal size.

    Point-by-point reference for the package's tie-run version. Tied values
    always share a group. The running target size is re-estimated from the
    remaining points whenever a group closes.
    """
    n = len(values)
    order = np.argsort(values, kind="stable")
    assign = np.empty(n, dtype=np.intp)
    group = 0
    in_group = 0
    desired = n / k
    i = 0
    while i < n:
        j = i + 1
        while j < n and values[order[j]] == values[order[i]]:
            j += 1
        tie = j - i
        if (in_group > 0 and group < k - 1
                and abs(in_group + tie - desired) >= abs(in_group - desired)):
            group += 1
            in_group = 0
            desired = (n - i) / (k - group)
        assign[order[i:j]] = group
        in_group += tie
        i = j
    return assign


def brute_force_mic(x, y, alpha: float = 0.6) -> float:
    """Exhaustive grid search at tiny n.

    For every resolution: one axis equipartitioned, the other maximized by
    trying every consecutive split of the sorted points (all cut positions,
    not just clump boundaries). Normalization matches the default scheme.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    bound = int(math.ceil(n ** alpha))
    cells: dict[tuple[int, int], float] = {}
    for col_vals, row_vals, flip in ((x, y, False), (y, x, True)):
        order = np.argsort(col_vals, kind="stable")
        col_sorted = col_vals[order]
        # a grid line cannot separate equal values, so cuts are only legal
        # where the sorted sequence changes
        legal_cuts = [i for i in range(1, n) if col_sorted[i] != col_sorted[i - 1]]
        for n_rows in range(2, bound // 2 + 1):
            max_cols = bound // n_rows
            if max_cols < 2:
                break
            assign = reference_equipartition(row_vals, n_rows)
            row_counts = np.bincount(assign)
            pq = row_counts / n
            hq = float(-np.sum(pq[pq > 0] * np.log2(pq[pq > 0])))
            rows_sorted = assign[order]
            # every segment's term, once: segments run between edges
            edges_all = [0] + legal_cuts + [n]
            term = {}
            for ai, a in enumerate(edges_all):
                for b in edges_all[ai + 1:]:
                    seg = np.bincount(rows_sorted[a:b],
                                      minlength=len(row_counts)).astype(float)
                    nz = seg[seg > 0]
                    term[a, b] = float(np.sum(nz * np.log2(nz))) - (b - a) * np.log2(b - a)
            prev_best = -np.inf
            for cols in range(2, max_cols + 1):
                best = -np.inf
                for cuts in itertools.combinations(legal_cuts, cols - 1):
                    edges = (0,) + cuts + (n,)
                    gain = 0.0
                    for a, b in zip(edges, edges[1:]):
                        gain += term[a, b]
                    best = max(best, hq + gain / n)
                if best == -np.inf:
                    best = prev_best  # fewer distinct values than columns
                prev_best = best
                key = (n_rows, cols) if flip else (cols, n_rows)
                value = best / np.log2(min(cols, n_rows))
                cells[key] = max(cells.get(key, -np.inf), value)
    return max(cells.values())


# -- scalar forms of the batched kernels -------------------------------------
#
# One pair or one tail at a time, in plain Python where the package stacks
# pairs. Each performs the same IEEE operations in the same order as its
# batched counterpart, so the two must agree bit for bit.

_TINY = 1e-300
_EPS = float(np.finfo(float).eps)


def reference_fraction(a: float, b: float, x: float, max_iter: int = 10_000) -> float:
    """Continued fraction of I_x(a, b) by the modified Lentz method."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0

    def clamp(v):
        return _TINY if abs(v) < _TINY else v

    c = 1.0
    d = 1.0 / clamp(1.0 - qab * x / qap)
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / clamp(1.0 + aa * d)
        c = clamp(1.0 + aa / c)
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / clamp(1.0 + aa * d)
        c = clamp(1.0 + aa / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise AssertionError("reference fraction did not converge")


def reference_regularized_beta(a: float, b: float, x: float, y: float) -> float:
    if x == 0.0:
        return 0.0
    if y == 0.0:
        return 1.0
    log_x = math.log(x) if x < 0.5 else math.log1p(-y)
    log_y = math.log(y) if y < 0.5 else math.log1p(-x)
    front = math.exp(a * log_x + b * log_y - log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * reference_fraction(a, b, x) / a
    return 1.0 - front * reference_fraction(b, a, y) / b


def reference_t_sf(t: float, dof: float) -> float:
    if t == 0.0:
        return 0.5
    if t < 0.0:
        return 1.0 - reference_t_sf(-t, dof)
    if dof == 1:
        return 0.5 - math.atan(t) / math.pi
    t2 = t * t
    return 0.5 * reference_regularized_beta(dof / 2.0, 0.5, dof / (dof + t2),
                                            t2 / (dof + t2))


def reference_f_sf(f: float, d1: float, d2: float) -> float:
    if f == 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    if f == 1.0 and d1 == d2:
        return 0.5
    fd = d1 * f
    return reference_regularized_beta(d2 / 2.0, d1 / 2.0, d2 / (d2 + fd), fd / (d2 + fd))


def _ref_unit_scaled(series) -> list[float]:
    e = math.frexp(max(map(abs, series)))[1]
    return [math.ldexp(v, -e) for v in series]


def reference_pearson(x, y) -> tuple[float, float] | None:
    """(r, p) by the two-pass form, or None for a constant sequence.

    Each series is first scaled by the power of two that brings its largest
    magnitude into [0.5, 1)."""
    n = len(x)
    x, y = _ref_unit_scaled(x), _ref_unit_scaled(y)
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    sxy = math.fsum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    sxx = math.fsum((a - mean_x) ** 2 for a in x)
    syy = math.fsum((b - mean_y) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        return None
    r = max(-1.0, min(1.0, sxy / math.sqrt(sxx * syy)))
    if abs(r) == 1.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return r, min(1.0, 2.0 * reference_t_sf(abs(t), n - 2))


def reference_lag_fit(x, y, lag: int):
    """One Granger fit of y on its own and x's past, with one QR per design.

    The design is [1 | y lagged 1..lag | x lagged 1..lag]; the restricted
    fit drops the x lags. Returns (f_stat, rss_restricted,
    rss_unrestricted, n_eff); the rank when some |diag R| is at or below
    max(rows, cols) * eps * max|diag R|; None when the pair is too short.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n_eff, cols = len(y) - lag, 1 + 2 * lag
    if n_eff <= cols:
        return None
    lagged = [s[lag - j:len(s) - j] for s in (y, x) for j in range(1, lag + 1)]
    R = np.linalg.qr(np.column_stack([np.ones(n_eff), *lagged, y[lag:]]), mode="r")
    diag = np.abs(np.diag(R)[:cols])
    rank = int(np.count_nonzero(diag > max(n_eff, cols) * np.finfo(float).eps * diag.max()))
    if rank < cols:
        return rank
    gain = R[1 + lag:cols, cols]
    gain, rss_ur = float(gain @ gain), float(R[cols, cols] ** 2)
    f = math.inf if rss_ur == 0.0 else (gain / lag) / (rss_ur / (n_eff - cols))
    return f, rss_ur + gain, rss_ur, n_eff


def reference_labels(values, bins: int, strategy: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if strategy == "equal-width":
        lo, hi = v.min(), v.max()
        if lo == hi:
            return np.zeros(len(v), dtype=np.intp)
        return np.minimum(((v - lo) / (hi - lo) * bins).astype(np.intp), bins - 1)
    return reference_equipartition(v, bins)


def reference_mutual_information(x, y, bins: int, strategy: str) -> float:
    counts = np.zeros((bins, bins), dtype=np.int64)
    np.add.at(counts, (reference_labels(x, bins, strategy),
                       reference_labels(y, bins, strategy)), 1)
    joint = counts / len(x)
    px = joint.sum(axis=1, keepdims=True)
    py = joint.sum(axis=0, keepdims=True)
    nz = joint > 0
    return max(0.0, float(np.sum(joint[nz] * np.log2(joint[nz] / (px @ py)[nz]))))


def reference_align_pair(a, b, min_overlap: int):
    """Pairwise deletion year by year, through each series' year -> value map."""
    if min_overlap < 3:
        raise DomainError(f"min_overlap must be >= 3, got {min_overlap}")
    pa, pb = a.present(), b.present()
    common = [y for y in pa if y in pb]
    if len(common) < min_overlap:
        raise InsufficientOverlapError(
            f"only {len(common)} jointly populated years, need {min_overlap}",
            overlap=len(common),
        )
    return AlignedPair(
        x=tuple(pa[y] for y in common),
        y=tuple(pb[y] for y in common),
        years=tuple(common),
    )


# -- MIC one pair at a time ---------------------------------------------------
#
# The grid search with one pair, one orientation and one row count per step,
# where ``info.mics`` stacks pairs. It has its own copies of the helpers, so
# a fault in the package's cannot hide here.

def reference_mic(x, y, alpha: float, clumps: int, normalization: str) -> dict | None:
    """The fields of ``mic``'s MicResult for one pair, or None where ``mic``
    raises InsufficientDataError (under 25 points, or a grid bound under 4)."""
    n = len(x)
    bound = int(math.ceil(n ** alpha))
    if n < 25 or bound < 4:
        return None
    xa, ya = _RefAxis(x), _RefAxis(y)
    if len(xa.runs) == 1 or len(ya.runs) == 1:  # one tie run: a constant axis
        return {"mic": 0.0, "best_b1": 0, "best_b2": 0, "grid_bound": bound,
                "normalization": normalization, "degenerate": True}

    eq7 = normalization == "max-entropy"
    cells: dict[tuple[int, int], float] = {}
    _ref_fill_cells(cells, xa, ya, bound, clumps, eq7, transpose=False)
    _ref_fill_cells(cells, ya, xa, bound, clumps, eq7, transpose=True)

    # ties go to the lexicographically smallest resolution
    best_key, best_val = None, -math.inf
    for key in sorted(cells):
        if cells[key] > best_val:
            best_key, best_val = key, cells[key]
    return {"mic": float(min(1.0, max(0.0, best_val))), "best_b1": best_key[0],
            "best_b2": best_key[1], "grid_bound": bound,
            "normalization": normalization, "degenerate": False}


def _ref_group_runs(lengths: np.ndarray, k: int) -> np.ndarray:
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


def _ref_entropy_counts(counts: np.ndarray) -> float:
    total = counts.sum()
    p = counts[counts > 0] / total
    return float(-np.sum(p * np.log2(p)))


class _RefAxis:
    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        self.n = len(values)
        self.order = np.argsort(values, kind="stable")
        sorted_values = values[self.order]
        change = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
        self.runs = np.append(change, self.n)
        self.starts = np.concatenate(([0], self.runs[:-1]))
        self.lengths = self.runs - self.starts

    def partition(self, k: int) -> tuple[np.ndarray, int, float]:
        groups = _ref_group_runs(self.lengths, k)
        assign = np.empty(self.n, dtype=np.intp)
        assign[self.order] = np.repeat(groups, self.lengths)
        used = int(groups[-1]) + 1
        return assign, used, _ref_entropy_counts(np.bincount(assign, minlength=used))


def _ref_clump_ends(cols: _RefAxis, rows: np.ndarray) -> np.ndarray:
    low = np.minimum.reduceat(rows, cols.starts)
    token = np.where(low == np.maximum.reduceat(rows, cols.starts), low,
                     -1 - cols.starts)
    return np.concatenate(([0], cols.runs[:-1][token[1:] != token[:-1]],
                           cols.runs[-1:]))


def _ref_superclump_ends(ends: np.ndarray, budget: int) -> np.ndarray:
    if len(ends) - 1 <= budget:
        return ends
    groups = _ref_group_runs(np.diff(ends), budget)
    return ends[np.concatenate(([True], groups[1:] != groups[:-1], [True]))]


def _ref_optimize_axis(cum: np.ndarray, ends: np.ndarray, n: int, max_cols: int,
                       hq: float, want_partitions: bool):
    k = len(ends) - 1
    c = np.arange(1, n + 1, dtype=float)
    xlog2x = np.concatenate(([0.0], c * np.log2(c)))
    s, t = np.triu_indices(k + 1, 1)
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


def _ref_fill_cells(cells: dict, cols: _RefAxis, rows: _RefAxis, bound: int,
                    clumps: int, eq7: bool, transpose: bool) -> None:
    n = cols.n
    for n_rows in range(2, bound // 2 + 1):
        max_cols = bound // n_rows
        if max_cols < 2:
            break
        row_assign, row_count, hq = rows.partition(n_rows)
        rows_x_order = row_assign[cols.order]
        ends = _ref_superclump_ends(_ref_clump_ends(cols, rows_x_order),
                                    max(clumps * max_cols, max_cols))
        cum = np.zeros((n + 1, row_count), dtype=np.intp)
        np.cumsum(rows_x_order[:, None] == np.arange(row_count), axis=0,
                  out=cum[1:])
        scores, partitions = _ref_optimize_axis(cum[ends], ends, n, max_cols, hq, eq7)
        for l in range(2, max_cols + 1):
            raw = scores[l]
            if eq7:
                hp = _ref_entropy_counts(partitions[l])
                denom = max(hp, hq)
                value = raw / denom if denom > 0 else 0.0
            else:
                value = raw / math.log2(min(l, n_rows))
            key = (n_rows, l) if transpose else (l, n_rows)
            if value > cells.get(key, -math.inf):
                cells[key] = value


# -- the heatmap one cell at a time ---------------------------------------------
#
# The renderer as it was before its fills became one array program per
# matrix: per-cell scalar reads and the scalar colour helpers. It has its own
# copies of the layout, the palettes and the formatting, so that a fault in
# the package's cannot hide here.

_REF_SCALARS = {"pearson": "r", "mutual_information": "mi", "granger": "p_value",
                "mic": "mic"}
_REF_PALETTE = {"pearson": "diverging", "mutual_information": "sequential",
                "mic": "sequential", "granger": "p-value"}
_REF_P_FLOOR = 1e-10
_REF_CELL, _REF_LEFT, _REF_TOP, _REF_BOTTOM = 30, 130, 46, 26


def _ref_cell_scalar(matrix, key):
    cell = matrix.cells.get(key)
    if cell is None:
        return None
    return getattr(cell.result, _REF_SCALARS[matrix.method])


def _ref_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ref_fmt(value: float) -> str:
    return "%#.6g" % value


def reference_hex(r: float, g: float, b: float) -> str:
    clamp = lambda c: max(0, min(255, int(round(c))))
    return f"#{clamp(r):02x}{clamp(g):02x}{clamp(b):02x}"


def reference_diverging(v: float) -> str:
    """[-1, 1] onto blue-white-red; the sign picks the hue."""
    v = max(-1.0, min(1.0, v))
    if v >= 0:
        return reference_hex(255, 255 * (1 - v), 255 * (1 - v))
    return reference_hex(255 * (1 + v), 255 * (1 + v), 255)


def reference_sequential(t: float) -> str:
    """[0, 1] onto white-to-navy."""
    t = max(0.0, min(1.0, t))
    return reference_hex(255 + t * (8 - 255), 255 + t * (48 - 255),
                         255 + t * (107 - 255))


def reference_p_ramp(p: float) -> float:
    p = max(_REF_P_FLOOR, min(1.0, p))
    return -math.log10(p) / -math.log10(_REF_P_FLOOR)


def reference_heatmap_svg(matrix, p_mask: float | None = None) -> str:
    if not matrix.rows or not matrix.cols:
        raise DomainError("cannot render an empty matrix")
    palette = _REF_PALETTE[matrix.method]
    CELL, LEFT, TOP, BOTTOM = _REF_CELL, _REF_LEFT, _REF_TOP, _REF_BOTTOM

    peak = max(
        (v for key in matrix.cells if (v := _ref_cell_scalar(matrix, key)) is not None),
        default=0.0,
    )
    width = LEFT + CELL * len(matrix.cols) + 10
    height = TOP + CELL * len(matrix.rows) + BOTTOM

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<title>{_ref_escape(matrix.method)}: {_ref_escape(matrix.outcome)} "
        f"(ages {_ref_escape(matrix.age_group.value)})</title>",
    ]
    for ci, code in enumerate(matrix.cols):
        x = LEFT + ci * CELL + CELL // 2
        parts.append(
            f'<text x="{x}" y="{TOP - 8}" text-anchor="middle" '
            f'font-size="11">{_ref_escape(code)}</text>'
        )
    for ri, region in enumerate(matrix.rows):
        y = TOP + ri * CELL + CELL // 2 + 4
        parts.append(
            f'<text x="{LEFT - 6}" y="{y}" text-anchor="end" '
            f'font-size="11">{_ref_escape(region)}</text>'
        )
        for ci, code in enumerate(matrix.cols):
            key = (region, code)
            x = LEFT + ci * CELL
            y0 = TOP + ri * CELL
            value = _ref_cell_scalar(matrix, key)
            if value is None:
                fill = "#808080"
                title = matrix.skips.get(key, "absent")
            elif p_mask is not None and _ref_masked(matrix, key, p_mask):
                fill = "#d9d9d9"
                title = f"masked: p > {p_mask:g}"
            else:
                if palette == "diverging":
                    fill = reference_diverging(value)
                elif palette == "sequential":
                    fill = reference_sequential(value / peak if peak > 0 else 0.0)
                else:
                    fill = reference_sequential(reference_p_ramp(value))
                title = f"{code} = {_ref_fmt(value)}"
            parts.append(
                f'<rect class="cell" x="{x}" y="{y0}" width="{CELL}" '
                f'height="{CELL}" fill="{fill}" stroke="#ffffff">'
                f"<title>{_ref_escape(title)}</title></rect>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _ref_masked(matrix, key, p_mask: float) -> bool:
    result = matrix.cells[key].result
    p = getattr(result, "p_value", None)
    return p is not None and p > p_mask
