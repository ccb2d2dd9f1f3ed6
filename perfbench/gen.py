"""Seeded multi-region replicas of the bundled fixture panel.

The bundled fixture is one region ("global") of 15 indicator series over
1991-2023 plus three synthetic outcome series. A replica copies it into
``regions`` regions. Each region scales every series by its own factor and
every value by a small noise term, then rounds to one decimal, as the
fixture table in ``tools/make_fixture.py`` is written. Missing cells stay
missing, so the fixture's gap pattern (and the skips it causes) repeats in
every region.

The same (regions, seed) always gives the same bytes: the noise comes from
``random.Random``, whose sequence does not depend on the numpy version.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

GBD_HEADER = "location,age_group,cause,measure,year,value"

#: Relative spread of one region's scale factor per series.
REGION_SCALE = 0.25
#: Relative standard deviation of the per-value noise, clipped at 3 sigma.
CELL_NOISE = 0.03


@dataclass(frozen=True)
class Panel:
    """Plain-data panel: rows keyed by (region, code), None for a gap."""

    years: tuple[int, ...]
    regions: tuple[str, ...]
    indicators: tuple[str, ...]
    outcomes: tuple[str, ...]
    values: dict[tuple[str, str], tuple[float | None, ...]]

    @property
    def pairs(self) -> int:
        """Outcome/indicator pairs per method: one battery cell each."""
        return len(self.regions) * len(self.outcomes) * len(self.indicators)


def fixture_panel() -> Panel:
    """The bundled fixture with its synthetic outcomes, unperturbed."""
    from paneldep.panel import load_fixture

    ds = load_fixture(with_outcomes=True)
    indicators = tuple(i.code for i in ds.indicators if i.category != "MentalHealth")
    outcomes = tuple(i.code for i in ds.indicators if i.category == "MentalHealth")
    years = sorted({y for s in ds.cells.values() for y in s.years})
    values = {}
    for (region, code), series in ds.cells.items():
        present = series.present()
        values[(region, code)] = tuple(present.get(y) for y in years)
    return Panel(tuple(years), ds.regions, indicators, outcomes, values)


def region_name(index: int) -> str:
    return f"R{index:04d}"


def make_replica(base: Panel, regions: int, seed: int) -> Panel:
    """``regions`` perturbed copies of the single-region ``base`` panel."""
    if regions < 1:
        raise ValueError(f"regions must be >= 1, got {regions}")
    (source,) = base.regions
    rng = random.Random(seed)
    names = tuple(region_name(i) for i in range(regions))
    values = {}
    for name in names:
        for code in base.indicators + base.outcomes:
            scale = 1.0 + rng.uniform(-REGION_SCALE, REGION_SCALE)
            row = []
            for v in base.values[(source, code)]:
                noise = max(-3.0, min(3.0, rng.gauss(0.0, 1.0))) * CELL_NOISE
                row.append(None if v is None else round(v * scale * (1.0 + noise), 1))
            values[(name, code)] = tuple(row)
    return Panel(base.years, names, base.indicators, base.outcomes, values)


def _fmt(value: float | None) -> str:
    return "-" if value is None else repr(value)


def wide_csv(panel: Panel, with_outcomes: bool) -> str:
    """Indicator-major wide CSV (code, region, one column per year)."""
    codes = panel.indicators + (panel.outcomes if with_outcomes else ())
    lines = ["code,region," + ",".join(str(y) for y in panel.years)]
    for code in codes:
        for region in panel.regions:
            row = panel.values[(region, code)]
            lines.append(f"{code},{region}," + ",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def long_csv(panel: Panel) -> str:
    """Outcome series as long records; an outcome code is cause|measure|age."""
    lines = [GBD_HEADER]
    for region in panel.regions:
        for code in panel.outcomes:
            cause, measure, age = code.split("|")
            for year, v in zip(panel.years, panel.values[(region, code)]):
                if v is not None:
                    lines.append(f"{region},{age},{cause},{measure},{year},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def write_inputs(panel: Panel, out: Path) -> dict:
    """Write panel.csv (indicators and outcomes), wide.csv and long.csv.

    Returns the record of what was written: regions, pairs and the byte
    size of each file.
    """
    out.mkdir(parents=True, exist_ok=True)
    texts = {
        "panel.csv": wide_csv(panel, with_outcomes=True),
        "wide.csv": wide_csv(panel, with_outcomes=False),
        "long.csv": long_csv(panel),
    }
    for name, text in texts.items():
        (out / name).write_bytes(text.encode())
    return {
        "regions": len(panel.regions),
        "outcomes": len(panel.outcomes),
        "indicators": len(panel.indicators),
        "years": len(panel.years),
        "pairs": panel.pairs,
        "input_bytes": {name: len(text.encode()) for name, text in texts.items()},
    }
