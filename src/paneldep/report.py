"""Deterministic result serialization and heatmap rendering.

Every emitter here is a pure function of its inputs: no timestamps, no
environment lookups, fixed number formatting. Two runs over the same
panel and configuration must produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields

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
    CSV and the heatmap; None for an absent cell.

    ``export_csv`` and ``render_heatmap_svg`` take them, so that a caller
    writing both formats each value once.
    """
    name = METHOD_SCALARS[matrix.method]
    cells = matrix.cells
    values = []
    for region in matrix.rows:
        for code in matrix.cols:
            cell = cells.get((region, code))
            values.append(None if cell is None else getattr(cell.result, name))
    return values, [None if v is None else _fmt(v) for v in values]


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

    ``scalars`` is the matrix's ``cell_scalars``, computed when not given.
    """
    _, texts = scalars or cell_scalars(matrix)
    width = len(matrix.cols)
    lines = ["region," + ",".join(matrix.cols)]
    for ri, region in enumerate(matrix.rows):
        row = texts[ri * width:(ri + 1) * width]
        lines.append(",".join([region, *("-" if t is None else t for t in row)]))
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    return value


def _reader(kind: type):
    """A function that gives a result of the dataclass ``kind`` as a dict
    of its fields.

    The fields are read by one attrgetter, not through ``vars``, which
    would give every result object a dict of its own for the rest of the
    run.
    """
    names = tuple(f.name for f in fields(kind))
    get = operator.attrgetter(*names)
    return lambda result: dict(zip(names, get(result)))


def _matrix_doc(matrix: ResultMatrix, finite: bool) -> dict:
    """The matrix as a JSON document; unless ``finite``, its non-finite
    floats are written as strings (see ``_jsonable``)."""
    readers: dict[type, object] = {}
    cells = []
    skips = []
    for region in matrix.rows:
        cell_row = []
        skip_row = []
        for code in matrix.cols:
            key = (region, code)
            cell = matrix.cells.get(key)
            if cell is None:
                cell_row.append(None)
                skip_row.append(matrix.skips.get(key))
            else:
                kind = type(cell.result)
                read = readers.get(kind) or readers.setdefault(kind, _reader(kind))
                doc = read(cell.result)
                if not finite:
                    doc = {k: _jsonable(v) for k, v in doc.items()}
                doc["n"] = cell.n
                cell_row.append(doc)
                skip_row.append(None)
        cells.append(cell_row)
        skips.append(skip_row)
    return {
        "method": matrix.method,
        "age_group": matrix.age_group.value,
        "outcome": matrix.outcome,
        "regions": list(matrix.rows),
        "indicators": list(matrix.cols),
        "cells": cells,
        "skips": skips,
    }


def export_json(bundle: ExportBundle) -> str:
    """Canonical bundle serialization: sorted keys, stable float repr.

    One line plus a newline, so the C encoder writes it; pretty-print it
    with ``python -m json.tool bundle.json``.
    """
    doc = {
        "metadata": bundle.metadata,
        "matrices": [_matrix_doc(m, finite=True) for m in bundle.matrices],
    }
    try:
        return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:  # a non-finite float in some cell
        doc["matrices"] = [_matrix_doc(m, finite=False) for m in bundle.matrices]
        return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


# -- heatmap ----------------------------------------------------------------

CELL = 30
LEFT = 130
TOP = 46
BOTTOM = 26

_ABSENT_FILL = "#808080"
_MASKED_FILL = "#d9d9d9"


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


def render_heatmap_svg(matrix: ResultMatrix, p_mask: float | None = None,
                       scalars=None) -> str:
    """Grid heatmap: indicators across, regions down.

    Signed scalars use the diverging palette on a fixed [-1, 1] scale;
    non-negative scores a sequential palette scaled to the matrix maximum;
    p-values a log ramp where darker means smaller. Absent cells are gray
    with the skip reason in their tooltip. ``p_mask`` optionally blanks
    cells whose p-value exceeds it (only meaningful for methods that carry
    one). ``scalars`` is the matrix's ``cell_scalars``, computed when not
    given.
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
    masked_title = _escape(f"masked: p > {p_mask:g}") if p_mask is not None else None
    i = 0
    for ri, region in enumerate(matrix.rows):
        y0 = TOP + ri * CELL
        parts.append(
            f'<text x="{LEFT - 6}" y="{y0 + CELL // 2 + 4}" text-anchor="end" '
            f'font-size="11">{_escape(region)}</text>'
        )
        for x, code, col in zip(xs, codes, matrix.cols):
            if values[i] is None:
                fill = _ABSENT_FILL
                title = _escape(matrix.skips.get((region, col), "absent"))
            elif p_mask is not None and _masked(matrix.cells[region, col], p_mask):
                fill = _MASKED_FILL
                title = masked_title
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


def _masked(cell, p_mask: float) -> bool:
    p = getattr(cell.result, "p_value", None)
    return p is not None and p > p_mask
