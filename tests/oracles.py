"""Slow reference implementations the fast code is checked against."""

import itertools

import numpy as np

from paneldep.info import grid_bound


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
    bound = grid_bound(n, alpha)
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
            prev_best = -np.inf
            for cols in range(2, max_cols + 1):
                best = -np.inf
                for cuts in itertools.combinations(legal_cuts, cols - 1):
                    edges = (0,) + cuts + (n,)
                    gain = 0.0
                    for a, b in zip(edges, edges[1:]):
                        seg = np.bincount(rows_sorted[a:b],
                                          minlength=len(row_counts)).astype(float)
                        nz = seg[seg > 0]
                        gain += float(np.sum(nz * np.log2(nz))) - (b - a) * np.log2(b - a)
                    best = max(best, hq + gain / n)
                if best == -np.inf:
                    best = prev_best  # fewer distinct values than columns
                prev_best = best
                key = (n_rows, cols) if flip else (cols, n_rows)
                value = best / np.log2(min(cols, n_rows))
                cells[key] = max(cells.get(key, -np.inf), value)
    return max(cells.values())
