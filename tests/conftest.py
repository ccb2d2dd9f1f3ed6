import functools
import json
import sys
from pathlib import Path

import pytest

from paneldep.errors import PanelDepError
from paneldep.panel import AlignedPair, PanelDataset, parse_wdi_wide
from paneldep.temporal import lag_sweep

DATA = Path(__file__).parent / "data"
BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def make_pair(x, y, start_year: int = 2000) -> AlignedPair:
    """Aligned pair over consecutive years starting at start_year."""
    x = tuple(float(v) for v in x)
    y = tuple(float(v) for v in y)
    return AlignedPair(x, y, tuple(range(start_year, start_year + len(x))))


def sweep_or_error(pair: AlignedPair, max_lag: int, difference_first: bool = False):
    """The pair's ``lag_sweep``, or the error it raises."""
    try:
        return lag_sweep(pair, max_lag, difference_first)
    except PanelDepError as error:
        return error


@functools.lru_cache(maxsize=None)
def replica(regions: int) -> tuple[PanelDataset, tuple[str, ...], tuple[str, ...]]:
    """The seed-1 ``regions``-region replica of the fixture that the
    benchmark generates (``perfbench/gen.py``), parsed from its wide CSV,
    with its outcome and indicator codes."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import gen

    panel = gen.make_replica(gen.fixture_panel(), regions, 1)
    return (parse_wdi_wide(gen.wide_csv(panel, with_outcomes=True)), panel.outcomes,
            panel.indicators)


def json_differences(doc, golden, path="$"):
    """Every path at which two parsed JSON documents differ, with both values."""
    if isinstance(doc, dict) and isinstance(golden, dict):
        for key in sorted(doc.keys() | golden.keys()):
            if key not in golden:
                yield f"{path}.{key}: {doc[key]!r} not in golden"
            elif key not in doc:
                yield f"{path}.{key}: missing, golden {golden[key]!r}"
            else:
                yield from json_differences(doc[key], golden[key], f"{path}.{key}")
    elif isinstance(doc, list) and isinstance(golden, list) and len(doc) == len(golden):
        for i, (a, b) in enumerate(zip(doc, golden)):
            yield from json_differences(a, b, f"{path}[{i}]")
    elif type(doc) is not type(golden) or doc != golden:
        yield f"{path}: {doc!r} != golden {golden!r}"


@pytest.fixture(scope="session")
def pearson_golden():
    with open(DATA / "pearson_fixture_golden.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def tail_golden():
    with open(DATA / "tail_probability_golden.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def tail_dense_golden():
    with open(DATA / "tail_probability_dense_golden.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def granger_golden():
    with open(DATA / "granger_fixture_golden.json") as fh:
        return json.load(fh)
