"""Reading a panel snapshot, the inverse of ``PanelDataset.to_json``.

The snapshot is one JSON object: ``regions``, ``indicators`` and
``blocks``, each block the ``years`` and ``keys`` of the series that share
one years tuple and their ``values``, the base64 of their little-endian
doubles, keys by years. ``PanelDataset.from_json`` loads this module, so a
run that reads no snapshot does not.
"""

from __future__ import annotations

import base64
import json
import operator
import sys
from array import array

from .errors import DomainError, ParseError
from .panel import _GAP, IndicatorCode, PanelDataset, SeriesBlock

_TYPE_NAMES = {str: "strings", dict: "objects"}

#: Over a little-endian double's bytes 7 and 6: 1 where they hold the
#: exponent's bits, all set (a NaN or an infinity), else 0.
_TOP_SET = bytes(b & 0x7F == 0x7F for b in range(256))
_NEXT_SET = bytes(b >= 0xF0 for b in range(256))


def read_snapshot(text: str) -> PanelDataset:
    """The panel of a snapshot, whatever the text's JSON whitespace and key
    order: one ``json.loads``, then the header's checks (no unknown field;
    strings; regions and codes unrepeated; each cell's key listed) and each
    block's (``_snapshot_block``). Anything else is a ParseError, as are the
    layouts of earlier versions: per-cell ``"cells"``, and blocks whose
    values are lists of rows. Cells come back block by block."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"panel snapshot is not valid JSON: {exc}") from None
    if type(doc) is not dict:
        raise ParseError("panel snapshot: the document must be a JSON object")
    if "cells" in doc and "blocks" not in doc:
        raise ParseError('panel snapshot is in the old per-cell layout ("cells"); '
                         "re-run `paneldep ingest` to write it in blocks")
    try:
        _snapshot_fields(doc, "the document", ("regions", "indicators", "blocks"))
        regions = _snapshot_list(doc["regions"], "regions", str)
        indicators = tuple(
            IndicatorCode(*_snapshot_strings(d, "indicator",
                                             ("code", "name", "category", "units")))
            for d in _snapshot_list(doc["indicators"], "indicators", dict)
        )
        names = {name: name for name in (*regions, *(i.code for i in indicators))}
        blocks = [_snapshot_block(block, number, names) for number, block
                  in enumerate(_snapshot_list(doc["blocks"], "blocks", dict))]
        return PanelDataset._of_blocks(tuple(regions), indicators, blocks,
                                       [key for block in blocks for key in block.keys])
    except KeyError as exc:
        raise ParseError(f"panel snapshot missing field: {exc}") from None
    except DomainError as exc:
        raise ParseError(f"panel snapshot: {exc}") from None


def _snapshot_list(value, field: str, kind: type) -> list:
    """A snapshot field that must be a list of ``kind``."""
    if type(value) is not list or not all(type(item) is kind for item in value):
        raise ParseError(f"panel snapshot: {field} must be a list of {_TYPE_NAMES[kind]}")
    return value


def _snapshot_fields(entry: dict, what: str, names: tuple[str, ...]) -> None:
    """Raise ParseError for the first field of a snapshot entry not in ``names``."""
    for name in entry:
        if name not in names:
            raise ParseError(f"panel snapshot: unknown field {name!r} in {what}")


def _snapshot_strings(entry: dict, what: str, names: tuple[str, ...]) -> tuple[str, ...]:
    """The fields ``names`` of a snapshot entry, which has no other field,
    each of which must be a string."""
    _snapshot_fields(entry, f"an {what}", names)
    values = tuple(entry[name] for name in names)
    for name, value in zip(names, values):
        if type(value) is not str:
            raise ParseError(f"panel snapshot: {what} {name} must be a string, "
                             f"got {type(value).__name__}")
    return values


def _snapshot_block(block: dict, number: int, names: dict) -> SeriesBlock:
    """Snapshot block ``number``, checked: its fields "years", a non-empty
    list of increasing integers, "keys", a non-empty list of [region, code]
    pairs of strings (each taken as the header's string ``names`` holds),
    and "values", the base64 of the little-endian doubles of keys by years.
    Each NaN is a gap, held as ``_GAP``; an infinity and a row of gaps only
    are errors that name their cell."""
    _snapshot_fields(block, f"block {number}", ("years", "keys", "values"))
    years, keys, text = block["years"], block["keys"], block["values"]
    where = f"panel snapshot block {number}"
    if type(text) is list:
        raise ParseError(f"{where}: values are a list of rows, the layout of earlier "
                         "versions; re-run `paneldep ingest` to write them as base64")
    if type(years) is not list or not years or not all(type(year) is int for year in years):
        raise ParseError(f"{where}: years must be a non-empty list of integers")
    if any(map(operator.le, years[1:], years)):
        raise ParseError(f"{where}: years must be strictly increasing")
    if type(keys) is not list or not keys:
        raise ParseError(f"{where}: keys must be a non-empty list")
    try:
        if not set(map(type, keys)) <= {list}:
            raise TypeError
        keys = [(names[region], names[code]) for region, code in keys]
    except (KeyError, TypeError, ValueError):  # some key is no pair of listed names
        keys = [_snapshot_key(key, where, names) for key in keys]
    if type(text) is not str:
        raise ParseError(f"{where}: values must be a base64 string")
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError:
        raise ParseError(f"{where}: values are not base64 text") from None
    n = len(years)
    if len(data) != 8 * len(keys) * n:
        raise ParseError(f"{where}: values hold {len(data)} bytes; {len(keys)} keys "
                         f"by {n} years take {8 * len(keys) * n}")
    values = array("d", data)
    if sys.byteorder == "big":
        values.byteswap()
    # byte i is 1 where double i's exponent bits are all set
    flags = (int.from_bytes(data[7::8].translate(_TOP_SET), "little")
             & int.from_bytes(data[6::8].translate(_NEXT_SET), "little"))
    if flags:
        fill = flags * 0xFF  # 0xFF in each flagged byte
        if (any(int.from_bytes(data[lane::8], "little") & fill for lane in range(6))
                or int.from_bytes(data[6::8], "little") & fill != flags * 0xF8
                or int.from_bytes(data[7::8], "little") & fill != flags * 0x7F):
            _gaps_of_nans(values, flags.to_bytes(len(values), "little"), keys, years)
        flags = flags.to_bytes(len(values), "little")
        at = flags.find(b"\x01" * n)
        while at > 0 and at % n:  # a run of gaps across rows: look from the next row on
            at = flags.find(b"\x01" * n, at + n - at % n)
        if at >= 0:
            raise ParseError(f"panel snapshot cell {keys[at // n]}: series has no values at all")
    return SeriesBlock(tuple(years), keys, values)


def _snapshot_key(key, where: str, names: dict) -> tuple[str, str]:
    """A block's key as a (region, code) tuple of the header's strings."""
    if type(key) is not list or len(key) != 2 or not type(key[0]) is type(key[1]) is str:
        raise ParseError(f"{where}: key {key!r} must be a [region, code] pair of strings")
    return names.get(key[0], key[0]), names.get(key[1], key[1])


def _gaps_of_nans(values: array, flags: bytes, keys: list, years: list) -> None:
    """Set each NaN among the values that ``flags`` marks to ``_GAP``; the
    first infinity there is a ParseError that names its cell."""
    at = flags.find(1)
    while at >= 0:
        if values[at] == values[at]:
            row, column = divmod(at, len(years))
            raise ParseError(f"panel snapshot cell {keys[row]}: value {values[at]!r} "
                             f"in year {years[column]} is not finite")
        values[at] = _GAP
        at = flags.find(1, at + 1)
