"""The run's aligned pairs, placed once as float64 stacks: the pair table.

A battery run pairs each (region, outcome, indicator) triple of its plan:
the indicator's series is x and the outcome's y, both restricted to the
years where each has a value (pairwise deletion, as ``panel.align_pair``
does). ``PairTable.of_panel`` places every triple once. A triple with an
absent series, or whose pair has too few joint years, is recorded as a
skip before any kernel runs. The other pairs are grouped by their length n
into ``PairGroup`` stacks, which every kernel reads.

A place is a triple's flat position in the plan's (region, outcome,
indicator) grid, region-major. ``PairTable.of_pairs`` builds the table of
a list of ``AlignedPair``; there a place is the pair's position in the
list. Each kernel returns its results as ``Columns``, by place.
"""

from __future__ import annotations

from dataclasses import fields
from itertools import compress

import numpy as np

from .panel import PanelDataset

_EMPTY = np.empty(0, dtype=np.intp)


class PairGroup:
    """The table's pairs of one length n.

    An aligned series is one series over one year set. Each one that the
    group's pairs hold is a row of the float64 stack ``rows``. Pair j is
    ``rows[xi[j]]`` against ``rows[yi[j]]``; ``mask[j]`` is the id of its
    year set (``PairTable.years`` holds the years) and ``places[j]`` its
    place.
    """

    def __init__(self, n: int, rows: np.ndarray, xi: np.ndarray, yi: np.ndarray,
                 mask: np.ndarray, places: np.ndarray):
        self.n = n
        self.rows = rows
        self.xi, self.yi = xi, yi
        self.mask = mask
        self.places = places

    def swapped(self) -> "PairGroup":
        """The group with x and y exchanged in every pair."""
        return PairGroup(self.n, self.rows, self.yi, self.xi, self.mask, self.places)


class PairTable:
    """Every pair of a run, each placed once.

    ``size`` is the number of places and ``groups`` the pairs, one
    ``PairGroup`` per length; ``n`` is each place's pair length, -1 at a
    place with no pair. ``years[m]`` is the tuple of years of year set m.
    ``missing`` holds the places whose x or y series is absent, and
    ``short`` the places whose pair has fewer joint years than the run's
    minimum overlap, with that count in ``overlaps``.
    """

    def __init__(self, size: int, groups: list[PairGroup], years: list[tuple],
                 missing: np.ndarray = _EMPTY, short: np.ndarray = _EMPTY,
                 overlaps: np.ndarray = _EMPTY):
        self.size = size
        self.groups = groups
        self.years = years
        self.missing = missing
        self.short = short
        self.overlaps = overlaps
        self.n = np.full(size, -1, dtype=np.intp)
        for group in groups:
            self.n[group.places] = group.n

    def swapped(self) -> "PairTable":
        """The table with x and y exchanged in every pair."""
        return PairTable(self.size, [group.swapped() for group in self.groups],
                         self.years, self.missing, self.short, self.overlaps)

    @classmethod
    def of_pairs(cls, pairs) -> "PairTable":
        """The table of a list of ``AlignedPair``: place i is ``pairs[i]``,
        whose x and y are two rows of its length's group; each distinct
        years tuple is one year set."""
        by_length: dict[int, list[int]] = {}
        for i, pair in enumerate(pairs):
            by_length.setdefault(pair.n, []).append(i)
        masks: dict[tuple, int] = {}
        groups = []
        for n, members in by_length.items():
            count = len(members)
            rows = np.array([pairs[i].x for i in members] + [pairs[i].y for i in members],
                            dtype=float).reshape(2 * count, n)
            mask = np.array([masks.setdefault(pairs[i].years, len(masks))
                             for i in members], dtype=np.intp)
            groups.append(PairGroup(n, rows, np.arange(count), np.arange(count, 2 * count),
                                    mask, np.array(members, dtype=np.intp)))
        return cls(len(pairs), groups, list(masks))

    @classmethod
    def of_panel(cls, dataset: PanelDataset, outcomes, indicators,
                 min_overlap: int) -> "PairTable":
        """The table of every (region, outcome, indicator) triple of a run.

        The pairs of one (x pattern, y pattern) (see ``_value_runs``) are
        aligned by one intersection of the two patterns and cut to their
        joint years by one gather from the flat array of the series' runs.
        """
        shape = (len(dataset.regions), len(outcomes), len(indicators))
        codes = {code: i for i, code in enumerate(dict.fromkeys((*outcomes, *indicators)))}
        index = dataset.index
        grid = np.array([index.get((region, code), -1) for region in dataset.regions
                         for code in codes], dtype=np.intp).reshape(shape[0], len(codes))
        y_all = np.broadcast_to(grid[:, [codes[c] for c in outcomes], None], shape).ravel()
        x_all = np.broadcast_to(grid[:, None, [codes[c] for c in indicators]], shape).ravel()
        paired = (x_all >= 0) & (y_all >= 0)
        places = np.flatnonzero(paired)
        xs, ys = x_all[places], y_all[places]

        years_of, positions, pattern, first, flat = _value_runs(dataset.blocks)
        arrays = [np.array(years) for years in years_of]

        # one intersection per (x pattern, y pattern) combination gives its
        # pairs' joint years and their positions in each series' run
        combos, combo = np.unique(pattern[xs] * len(years_of) + pattern[ys], return_inverse=True)
        joint = np.empty(len(combos), dtype=np.intp)  # each combination's joint years count
        mask_of = np.empty(len(combos), dtype=np.intp)  # and year set
        slot = np.empty(len(combos), dtype=np.intp)  # and place among its length's combinations
        cuts: dict[int, list[np.ndarray]] = {}  # n -> each combination's x and y positions
        masks: dict[tuple, int] = {}
        for c, key in enumerate(combos.tolist()):
            px, py = divmod(key, len(years_of))
            _, ix, iy = np.intersect1d(arrays[px], arrays[py], assume_unique=True,
                                       return_indices=True)
            joint[c] = n = len(ix)
            if n >= min_overlap:  # the year set holds the pattern's own year objects
                common = tuple(map(years_of[px].__getitem__, ix.tolist()))
                mask_of[c] = masks.setdefault(common, len(masks))
                at = cuts.setdefault(n, [])
                slot[c] = len(at) // 2
                at += (positions[px][ix], positions[py][iy])
        n = joint[combo]
        groups = []
        for length in sorted(cuts):
            # one row per distinct (series, year set), gathered from flat
            members = np.flatnonzero(n == length)
            ids = np.concatenate((xs[members], ys[members]))
            mask, at = mask_of[combo[members]], 2 * slot[combo[members]]
            _, rep, inverse = np.unique(ids * (len(places) + 1) + np.tile(mask, 2),
                                        return_index=True, return_inverse=True)
            cut = np.array(cuts[length])[np.concatenate((at, at + 1))[rep]]
            cut += first[ids[rep], None]
            groups.append(PairGroup(length, flat[cut], inverse[:len(members)],
                                    inverse[len(members):], mask, places[members]))
        short = np.flatnonzero(n < min_overlap)
        return cls(int(np.prod(shape)), groups, list(masks), np.flatnonzero(~paired),
                   places[short], n[short])


class Columns:
    """A kernel's results over the places of a table, one column per field.

    ``values`` maps each field of the result dataclass ``kind`` to an array
    indexed by place (a str field that every result shares is one value
    broadcast over the places). ``n`` is the table's ``n``, and ``errors``
    maps each place that the kernel skips to the error its own one-pair
    call raises. A place holds a result where it has a pair and no error;
    elsewhere its entries in ``values`` mean nothing.
    """

    def __init__(self, kind: type, values: dict, n: np.ndarray, errors: dict):
        self.kind = kind
        self.values = values
        self.n = n
        self.errors = errors

    def results(self) -> list:
        """Each place's result, or its error; None at a place with no pair."""
        columns = [self.values[f.name].tolist() for f in fields(self.kind)]
        kind, errors = self.kind, self.errors
        return [errors[place] if place in errors else None if n < 0 else kind(*row)
                for place, (n, row) in enumerate(zip(self.n.tolist(), zip(*columns)))]


#: The most elements that a kernel's working array holds, near enough. A
#: kernel does its per-row work (scaling, labels, axes) once per row, in
#: slices of a length group's rows, and everything it builds per pair in
#: slices of the group's pairs, both under this cap (see ``_pair_slices``),
#: so its working memory does not grow with the number of series or pairs.
#: On the seed-1 10-region replica (270 searched pairs of 33 points) the
#: cap holds the MIC batch's traced peak to 0.9 MB in 39 DP calls, against
#: 13 MB in 3 calls with no cap and 0.4 MB in 1,620 calls pair by pair.
_STACK_ELEMENTS = 16_384


def _pair_slices(count: int, per_pair: int) -> list[slice]:
    """Consecutive slices of ``count`` pairs (or rows), each of at least
    one, in which an array of ``per_pair`` elements a pair holds at most
    ``_STACK_ELEMENTS`` (or one pair's elements, where those are more)."""
    size = max(1, _STACK_ELEMENTS // max(per_pair, 1))
    return [slice(start, min(start + size, count)) for start in range(0, count, size)]


def shared(value: str, size: int) -> np.ndarray:
    """``value`` at each of ``size`` places, as a read-only broadcast view."""
    return np.broadcast_to(np.array(value), (size,))


def _value_runs(blocks) -> tuple[list[tuple], list, np.ndarray, np.ndarray, np.ndarray]:
    """Each pattern's years and their positions in its years tuple, each
    series' pattern id and the start of its run, by its row among the
    blocks' rows (``PanelDataset.index``), and the flat float64 array of
    runs, the blocks' values one after another. A pattern is the tuple of
    years in which a series holds a value, found once per distinct presence
    row of each block; a run is a series' values over its own years, NaN
    where one is missing, so memory grows with the points the series hold,
    never with a span of years."""
    patterns, positions, kinds, first, runs = [], [], [], [], []
    offset = 0
    for block in blocks:
        n = len(block.years)
        values = np.frombuffer(block.values).reshape(-1, n)
        # one opaque item per presence row: np.unique(axis=0) would sort a
        # bool row field by field, tens of times slower
        rows, kind = np.unique((~np.isnan(values)).view(f"V{n}").ravel(),
                               return_inverse=True)
        kinds.append(len(patterns) + kind)
        for row in rows.view(bool).reshape(len(rows), n):
            patterns.append(tuple(compress(block.years, row.tolist())))
            positions.append(np.flatnonzero(row))
        first.append(np.arange(offset, offset + values.size, n))
        offset += values.size
        runs.append(values.ravel())
    # one block's values are the flat array as they are, not a copy of them
    flat = runs[0] if len(runs) == 1 else np.concatenate([np.empty(0), *runs])
    return (patterns, positions, np.concatenate([_EMPTY, *kinds]),
            np.concatenate([_EMPTY, *first]), flat)


def _unit_scaled(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row times the power of two that brings its largest magnitude
    into [0.5, 1), and each row's exponent e: row = scaled row * 2**e. An
    all-zero row stays as it is, with e = 0."""
    exponents = _unit_exponents(rows)
    return np.ldexp(rows, -exponents[:, None]), exponents


def _unit_exponents(rows: np.ndarray) -> np.ndarray:
    """Each row's exponent e of ``_unit_scaled``."""
    return np.frexp(np.abs(rows).max(axis=1))[1]
