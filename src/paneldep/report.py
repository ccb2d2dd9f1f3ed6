"""Deterministic result serialization and heatmap rendering.

Every emitter here is a pure function of its inputs: no timestamps, no
environment lookups, fixed number formatting. Two runs over the same
panel and configuration must produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TextIO

from . import __version__
from .battery import BatteryConfig, ResultMatrix
from .errors import DomainError
from .panel import PanelDataset

TOOL_VERSION = __version__

#: Scalar plotted/exported per method. The lagged test exports the p-value
#: at its best lag; that convention is echoed in bundle metadata because
#: other summaries of the same result are plausible.
METHOD_SCALARS = {
    "pearson": "r",
    "mutual_information": "mi",
    "granger": "p_value",
    "mic": "mic",
}

_PALETTE = {
    "pearson": "diverging",
    "mutual_information": "sequential",
    "mic": "sequential",
    "granger": "p-value",
}

_P_FLOOR = 1e-10  # p-values at or below this render at full darkness


@dataclass
class ExportBundle:
    """Matrices plus everything needed to reproduce them."""

    matrices: list[ResultMatrix]
    metadata: dict


def build_bundle(matrices: list[ResultMatrix], dataset: PanelDataset,
                 config: BatteryConfig) -> ExportBundle:
    return ExportBundle(
        matrices=list(matrices),
        metadata={
            "tool_version": TOOL_VERSION,
            "config": config.to_dict(),
            "dataset_fingerprint": dataset.fingerprint(),
            "granger_cell_value": "p_value at best lag",
        },
    )


def cell_scalars(matrix: ResultMatrix) -> tuple[list[float | None], list[str | None]]:
    """Each cell's plotted scalar in row-major order, and its text in the
    CSV and the heatmap; None for a cell that holds no result.

    ``export_csv`` and ``render_heatmap_svg`` take them, so that a caller
    writing both formats each value once.
    """
    import numpy as np

    held = matrix.held().ravel()
    values = np.full(held.shape, None, dtype=object)
    texts = values.copy()
    found = matrix.columns[METHOD_SCALARS[matrix.method]].ravel()[held].tolist()
    values[held] = _objects(found)
    texts[held] = _objects([_fmt(v) for v in found])
    return values.tolist(), texts.tolist()


def _objects(items: list):
    """The items as a 1-d object array, each one itself: numpy would
    otherwise copy a list of str into a unicode array first."""
    import numpy as np

    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out


def _escape(text: str) -> str:
    """Escape &, < and > for XML text, ``&`` first so no entity is doubled.

    Gives the bytes of ``xml.sax.saxutils.escape`` without importing it,
    which would pull in urllib, http.client and ssl at startup.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float) -> str:
    """Six significant digits, locale independent."""
    return "%#.6g" % value


def export_csv(matrix: ResultMatrix, scalars=None) -> str:
    """Header of indicator codes, one row per region, "-" for absent cells.

    A code or region name that holds a comma, a double quote, CR or LF is
    quoted as RFC 4180 asks (``csv.QUOTE_MINIMAL``); number texts never are.
    ``scalars`` is the matrix's ``cell_scalars``, computed when not given.
    """
    _, texts = scalars or cell_scalars(matrix)
    width = len(matrix.cols)
    lines = ["region," + ",".join(map(_csv_field, matrix.cols))]
    for ri, region in enumerate(matrix.rows):
        row = texts[ri * width:(ri + 1) * width]
        lines.append(",".join([_csv_field(region), *("-" if t is None else t for t in row)]))
    return "\n".join(lines) + "\n"


def _csv_field(text: str) -> str:
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cell_texts(columns: dict, held) -> list[str]:
    """The JSON object of each held cell, in row-major order, from one
    template with the keys in sorted order.

    An int column is written by ``%d`` and a float column by ``%r``, which
    is the float repr the json encoder writes; a non-finite float is
    written as the string "inf", "-inf" or "nan". A bool column is written
    true or false, and a str column by ``_encoded``.
    """
    import numpy as np

    fields, args = [], []
    for name in sorted(columns):
        values = columns[name].ravel()[held]
        key = json.dumps(name)
        if values.dtype.kind == "U":
            fields.append(f"{key}: %s")
            args.append(_encoded(values.tolist()))
        elif values.dtype.kind == "b":
            fields.append(f"{key}: %s")
            args.append(np.where(values, "true", "false").tolist())
        elif values.dtype.kind != "f":
            fields.append(f"{key}: %d")
            args.append(values.tolist())
        elif np.isfinite(values).all():
            fields.append(f"{key}: %r")
            args.append(values.tolist())
        else:
            fields.append(f"{key}: %s")
            texts = list(map(repr, values.tolist()))
            for i in np.flatnonzero(~np.isfinite(values)).tolist():
                texts[i] = f'"{texts[i]}"'
            args.append(texts)
    template = "{" + ", ".join(fields) + "}"
    return [template % cell for cell in zip(*args)]


def _encoded(texts: list[str]) -> list[str]:
    """Each str as JSON, each distinct one encoded once."""
    encoded = {text: json.dumps(text) for text in set(texts)}
    return [encoded[text] for text in texts]


def _grid_json(items: list[str], width: int, height: int) -> str:
    """A JSON list of ``height`` rows of ``width`` items each, from their texts."""
    return "[" + ", ".join("[" + ", ".join(items[row * width:(row + 1) * width]) + "]"
                           for row in range(height)) + "]"


def _matrix_json(matrix: ResultMatrix) -> str:
    """The matrix as one JSON object, keys in sorted order, written from
    its columns; the json encoder writes the header values."""
    import numpy as np

    tags, held = matrix.tags.ravel(), matrix.held().ravel()
    cells = np.full(tags.shape, "null", dtype=object)
    skips = cells.copy()
    cells[held] = _objects(_cell_texts(matrix.columns, held))
    skips[~held] = _objects(_encoded(tags[~held].tolist()))
    width, height = len(matrix.cols), len(matrix.rows)
    return ('{"age_group": %s, "cells": %s, "indicators": %s, "method": %s, '
            '"outcome": %s, "regions": %s, "skips": %s}') % (
        json.dumps(matrix.age_group.value), _grid_json(cells.tolist(), width, height),
        json.dumps(list(matrix.cols)), json.dumps(matrix.method),
        json.dumps(matrix.outcome), json.dumps(list(matrix.rows)),
        _grid_json(skips.tolist(), width, height))


def export_json(bundle: ExportBundle, out: TextIO) -> None:
    """Write the canonical bundle serialization to the text stream ``out``:
    sorted keys, stable float repr.

    One line plus a newline, the bytes ``json.dumps(doc, sort_keys=True)``
    gives for the bundle's document, with each non-finite float written as
    a string ("inf", "-inf" or "nan"). The matrices are written one at a
    time, so the whole text is never held. Pretty-print the file with
    ``python -m json.tool bundle.json``.
    """
    metadata = json.dumps(bundle.metadata, sort_keys=True, allow_nan=False)
    out.write('{"matrices": [')
    for i, matrix in enumerate(bundle.matrices):
        if i:
            out.write(", ")
        out.write(_matrix_json(matrix))
    out.write(f'], "metadata": {metadata}}}\n')


# -- heatmap ----------------------------------------------------------------

CELL = 30
LEFT = 130
TOP = 46
BOTTOM = 26

_ABSENT_FILL = "#808080"


def _fills(palette: str, values, peak: float) -> list[str]:
    """Each value's fill, from one array program over the matrix.

    The float steps are the scalar palette's, in its order, so every
    channel rounds the same double. Python's ``min(hi, v)`` keeps ``hi``
    against NaN, which ``np.fmin`` does too. ``np.rint`` rounds half to
    even, as ``round`` does. The p-value ramp takes libm's ``log10`` per
    element, whose bits ``np.log10`` does not promise.

    - diverging: [-1, 1] onto blue-white-red, the sign picks the hue;
    - sequential: [0, 1] of the matrix maximum onto white-to-navy;
    - p-value: -log10 of p in [_P_FLOOR, 1] onto the sequential ramp,
      darker for smaller p.
    """
    import numpy as np

    v = np.array(values, dtype=float)
    with np.errstate(all="ignore"):
        if palette == "diverging":
            v = np.maximum(-1.0, np.fmin(1.0, v))
            pos = v >= 0
            fade = np.where(pos, 255 * (1 - v), 255 * (1 + v))
            channels = (np.where(pos, 255.0, fade), fade, np.where(pos, fade, 255.0))
        else:
            if palette == "sequential":
                t = v / peak if peak > 0 else np.zeros_like(v)
            else:
                p = np.maximum(_P_FLOOR, np.fmin(1.0, v)).tolist()
                t = -np.array([math.log10(q) for q in p]) / -math.log10(_P_FLOOR)
            t = np.maximum(0.0, np.fmin(1.0, t))
            channels = [255 + t * (end - 255) for end in (8, 48, 107)]
    digits = np.array(["%02x" % c for c in range(256)], dtype=object)
    r, g, b = (digits[np.clip(np.rint(c), 0, 255).astype(np.intp)] for c in channels)
    return ("#" + r + g + b).tolist()


def render_heatmap_svg(matrix: ResultMatrix, scalars=None) -> str:
    """Grid heatmap: indicators across, regions down.

    Signed scalars use the diverging palette on a fixed [-1, 1] scale;
    non-negative scores a sequential palette scaled to the matrix maximum;
    p-values a log ramp where darker means smaller. Skipped cells are gray
    with the skip reason in their tooltip. ``scalars`` is the matrix's
    ``cell_scalars``, computed when not given.
    """
    if not matrix.rows or not matrix.cols:
        raise DomainError("cannot render an empty matrix")
    values, texts = scalars or cell_scalars(matrix)
    peak = max((v for v in values if v is not None), default=0.0)
    fills = _fills(_PALETTE[matrix.method], values, peak)
    width = LEFT + CELL * len(matrix.cols) + 10
    height = TOP + CELL * len(matrix.rows) + BOTTOM

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<title>{_escape(matrix.method)}: {_escape(matrix.outcome)} "
        f"(ages {_escape(matrix.age_group.value)})</title>",
    ]
    codes = [_escape(code) for code in matrix.cols]
    xs = [LEFT + ci * CELL for ci in range(len(codes))]
    for x, code in zip(xs, codes):
        parts.append(
            f'<text x="{x + CELL // 2}" y="{TOP - 8}" text-anchor="middle" '
            f'font-size="11">{code}</text>'
        )
    tags = matrix.tags.ravel().tolist()
    i = 0
    for ri, region in enumerate(matrix.rows):
        y0 = TOP + ri * CELL
        parts.append(
            f'<text x="{LEFT - 6}" y="{y0 + CELL // 2 + 4}" text-anchor="end" '
            f'font-size="11">{_escape(region)}</text>'
        )
        for x, code in zip(xs, codes):
            if values[i] is None:
                fill = _ABSENT_FILL
                title = _escape(tags[i])
            else:
                fill = fills[i]
                title = f"{code} = {texts[i]}"  # %#.6g emits no &, < or >
            parts.append(
                f'<rect class="cell" x="{x}" y="{y0}" width="{CELL}" '
                f'height="{CELL}" fill="{fill}" stroke="#ffffff">'
                f"<title>{title}</title></rect>"
            )
            i += 1
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
