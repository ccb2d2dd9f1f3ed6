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

import numpy as np

from .panel import PanelDataset

_EMPTY = np.empty(0, dtype=np.intp)


class PairGroup:
    """The table's pairs of one length n.

    An aligned series is one series over one year set. Each one that the
    group's pairs hold is one row of the float64 stack ``rows``, once, and
    ``keys`` names it: equal keys hold equal values, run-wide. Pair j is
    ``rows[xi[j]]`` against ``rows[yi[j]]``; ``x_series[j]`` and
    ``y_series[j]`` are the ids of its two series, ``mask[j]`` the id of its
    year set (``PairTable.years`` holds the years) and ``places[j]`` its
    place.
    """

    def __init__(self, n: int, rows: np.ndarray, keys: np.ndarray, xi: np.ndarray,
                 yi: np.ndarray, x_series: np.ndarray, y_series: np.ndarray,
                 mask: np.ndarray, places: np.ndarray):
        self.n = n
        self.rows, self.keys = rows, keys
        self.xi, self.yi = xi, yi
        self.x_series, self.y_series = x_series, y_series
        self.mask = mask
        self.places = places

    @classmethod
    def of_rows(cls, n: int, rows: np.ndarray, keys: np.ndarray, xi: np.ndarray,
                yi: np.ndarray, *rest) -> "PairGroup":
        """The group whose rows are ``rows`` with each repeated key dropped."""
        unique, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        if len(unique) < len(keys):
            rows, keys, xi, yi = rows[first], unique, inverse[xi], inverse[yi]
        return cls(n, rows, keys, xi, yi, *rest)

    def swapped(self) -> "PairGroup":
        """The group with x and y exchanged in every pair."""
        return PairGroup(self.n, self.rows, self.keys, self.yi, self.xi, self.y_series,
                         self.x_series, self.mask, self.places)


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
        """The table of a list of ``AlignedPair``: place i is ``pairs[i]``.

        Value rows with the same bits get one series id, so 0.0 and -0.0
        stay apart; each distinct years tuple is one year set.
        """
        by_length: dict[int, list[int]] = {}
        for i, pair in enumerate(pairs):
            by_length.setdefault(pair.n, []).append(i)
        series: dict[bytes, int] = {}
        masks: dict[tuple, int] = {}
        groups = []
        for n, members in by_length.items():
            count = len(members)
            rows = np.array([pairs[i].x for i in members] + [pairs[i].y for i in members],
                            dtype=float).reshape(2 * count, n)
            ids = np.array([series.setdefault(row.tobytes(), len(series)) for row in rows],
                           dtype=np.intp)
            mask = np.array([masks.setdefault(pairs[i].years, len(masks))
                             for i in members], dtype=np.intp)
            keys = ids * (len(pairs) + 1) + np.concatenate((mask, mask))
            groups.append(PairGroup.of_rows(
                n, rows, keys, np.arange(count), np.arange(count, 2 * count),
                ids[:count], ids[count:], mask, np.array(members, dtype=np.intp)))
        return cls(len(pairs), groups, list(masks))

    @classmethod
    def of_panel(cls, dataset: PanelDataset, outcomes, indicators,
                 min_overlap: int) -> "PairTable":
        """The table of every (region, outcome, indicator) triple of a run.

        Each series' values go into an array once, as a row of the block
        of series that share its years tuple, with NaN where a value is
        missing (a value is never NaN, see ``AnnualSeries``). The pairs of
        one (x block, y block) combination are aligned on the years the
        two tuples share, never on a span of years, and pairs whose x and
        y have the same presence patterns there are cut to their joint
        years by one gather.
        """
        shape = (len(dataset.regions), len(outcomes), len(indicators))
        cells = dataset.cells
        ids: dict[tuple[str, str], int] = {}
        # years tuple -> (block, values of the block's series)
        blocks_of: dict[tuple, tuple[int, list]] = {}
        where: list[tuple[int, int]] = []  # series id -> (block, row)

        def series_id(key) -> int:
            found = ids.get(key)
            if found is None:
                series = cells.get(key)
                if series is None:
                    return -1
                block, rows = blocks_of.setdefault(series.years, (len(blocks_of), []))
                found = ids[key] = len(where)
                where.append((block, len(rows)))
                rows.append(series.values)
            return found

        def id_grid(codes) -> np.ndarray:
            return np.array([[series_id((region, code)) for code in codes]
                             for region in dataset.regions],
                            dtype=np.intp).reshape(shape[0], len(codes))

        y_all = np.broadcast_to(id_grid(outcomes)[:, :, None], shape).ravel()
        x_all = np.broadcast_to(id_grid(indicators)[:, None, :], shape).ravel()
        paired = (x_all >= 0) & (y_all >= 0)
        places = np.flatnonzero(paired)
        xs, ys = x_all[places], y_all[places]

        blocks = [_Block(years, rows) for years, (_, rows) in blocks_of.items()]
        series_block, series_row = np.array(where, dtype=np.intp).reshape(-1, 2).T

        # per length, the rows, keys, x and y rows in them, series, year set
        # and place of each piece of pairs that share a year set
        pieces: dict[int, list[tuple]] = {}
        masks: dict[tuple, int] = {}
        short, overlaps = [], []
        combo = series_block[xs] * len(blocks) + series_block[ys]
        for run in _runs(combo):
            bx, by = divmod(int(combo[run[0]]), len(blocks))
            xb, yb = blocks[bx], blocks[by]
            common, ix, iy = xb.shared_years(yb)
            kinds = (xb.pattern[series_row[xs[run]]] * len(yb.patterns)
                     + yb.pattern[series_row[ys[run]]])
            for members in _runs(kinds):
                px, py = divmod(int(kinds[members[0]]), len(yb.patterns))
                cols = np.flatnonzero(xb.patterns[px, ix] & yb.patterns[py, iy])
                n = len(cols)
                rows = run[members]
                if n < min_overlap:
                    short.append(places[rows])
                    overlaps.append(np.full(len(rows), n, dtype=np.intp))
                    continue
                mask = masks.setdefault(tuple(common[c] for c in cols.tolist()), len(masks))
                x_ids, xi = np.unique(xs[rows], return_inverse=True)
                y_ids, yi = np.unique(ys[rows], return_inverse=True)
                pieces.setdefault(n, []).append((
                    np.concatenate((xb.values[series_row[x_ids, None], ix[cols]],
                                    yb.values[series_row[y_ids, None], iy[cols]])),
                    np.concatenate((x_ids, y_ids)) * (len(places) + 1) + mask,
                    xi, yi + len(x_ids), xs[rows], ys[rows],
                    np.full(len(rows), mask, dtype=np.intp), places[rows]))
        groups = []
        for n in sorted(pieces):
            # x and y rows count from the start of the length's stack
            starts = np.cumsum([0] + [len(piece[0]) for piece in pieces[n]]).tolist()
            parts = [(rows, keys, xi + start, yi + start, *rest)
                     for (rows, keys, xi, yi, *rest), start in zip(pieces.pop(n), starts)]
            columns = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
            groups.append(PairGroup.of_rows(n, *columns))
        return cls(int(np.prod(shape)), groups, list(masks), np.flatnonzero(~paired),
                   np.concatenate(short) if short else _EMPTY,
                   np.concatenate(overlaps) if overlaps else _EMPTY)


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


def shared(value: str, size: int) -> np.ndarray:
    """``value`` at each of ``size`` places, as a read-only broadcast view."""
    return np.broadcast_to(np.array(value), (size,))


class _Block:
    """The series of one years tuple: their values, NaN where missing, and
    each series' presence pattern over the years."""

    def __init__(self, years: tuple, rows: list[tuple]):
        self.years = years
        self.values = np.array(rows, dtype=float).reshape(len(rows), len(years))
        present = ~np.isnan(self.values)
        if present.all():
            self.pattern = np.zeros(len(rows), dtype=np.intp)
            self.patterns = np.ones((1, len(years)), dtype=bool)
        else:
            seen: dict[bytes, int] = {}
            self.pattern = np.array([seen.setdefault(row.tobytes(), len(seen))
                                     for row in present], dtype=np.intp)
            self.patterns = np.empty((len(seen), len(years)), dtype=bool)
            self.patterns[self.pattern] = present

    def shared_years(self, other: "_Block") -> tuple[tuple, np.ndarray, np.ndarray]:
        """The years both blocks hold, in order, and their columns in each."""
        if other is self:
            cols = np.arange(len(self.years))
            return self.years, cols, cols
        at = {year: i for i, year in enumerate(other.years)}
        mine = [i for i, year in enumerate(self.years) if year in at]
        common = tuple(self.years[i] for i in mine)
        return (common, np.array(mine, dtype=np.intp),
                np.array([at[year] for year in common], dtype=np.intp))


def _runs(keys: np.ndarray) -> list[np.ndarray]:
    """The positions of each distinct key, in key order; stable within a key."""
    if not len(keys):
        return []
    order = np.argsort(keys, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(keys[order])) + 1)


def _unit_scaled(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row times the power of two that brings its largest magnitude
    into [0.5, 1), and each row's exponent e: row = scaled row * 2**e. An
    all-zero row stays as it is, with e = 0."""
    exponents = np.frexp(np.abs(rows).max(axis=1))[1]
    return np.ldexp(rows, -exponents[:, None]), exponents
