"""Deterministic result serialization and heatmap rendering.

Every emitter here is a pure function of its inputs: no timestamps, no
environment lookups, fixed number formatting. Two runs over the same
panel and configuration must produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .battery import BatteryConfig, ResultMatrix
from .errors import DomainError
from .panel import PanelDataset

TOOL_VERSION = "0.1.0"

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


def cell_scalar(matrix: ResultMatrix, key) -> float | None:
    cell = matrix.cells.get(key)
    if cell is None:
        return None
    return getattr(cell.result, METHOD_SCALARS[matrix.method])


def _escape(text: str) -> str:
    """Escape &, < and > for XML text, ``&`` first so no entity is doubled.

    Gives the bytes of ``xml.sax.saxutils.escape`` without importing it,
    which would pull in urllib, http.client and ssl at startup.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float) -> str:
    """Six significant digits, locale independent."""
    return "%#.6g" % value


def export_csv(matrix: ResultMatrix) -> str:
    """Header of indicator codes, one row per region, "-" for absent cells."""
    lines = ["region," + ",".join(matrix.cols)]
    for region in matrix.rows:
        row = [region]
        for code in matrix.cols:
            value = cell_scalar(matrix, (region, code))
            row.append("-" if value is None else _fmt(value))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    return value


def _matrix_doc(matrix: ResultMatrix) -> dict:
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
                doc = {k: _jsonable(v) for k, v in vars(cell.result).items()}
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
        "matrices": [_matrix_doc(m) for m in bundle.matrices],
    }
    return json.dumps(doc, sort_keys=True, allow_nan=False) + "\n"


# -- heatmap ----------------------------------------------------------------

CELL = 30
LEFT = 130
TOP = 46
BOTTOM = 26

_ABSENT_FILL = "#808080"
_MASKED_FILL = "#d9d9d9"


def _hex(r: float, g: float, b: float) -> str:
    clamp = lambda c: max(0, min(255, int(round(c))))
    return f"#{clamp(r):02x}{clamp(g):02x}{clamp(b):02x}"


def _diverging(v: float) -> str:
    """[-1, 1] onto blue-white-red; the sign picks the hue."""
    v = max(-1.0, min(1.0, v))
    if v >= 0:
        return _hex(255, 255 * (1 - v), 255 * (1 - v))
    return _hex(255 * (1 + v), 255 * (1 + v), 255)


def _sequential(t: float) -> str:
    """[0, 1] onto white-to-navy."""
    t = max(0.0, min(1.0, t))
    return _hex(255 + t * (8 - 255), 255 + t * (48 - 255), 255 + t * (107 - 255))


def _p_ramp(p: float) -> float:
    p = max(_P_FLOOR, min(1.0, p))
    return -math.log10(p) / -math.log10(_P_FLOOR)


def render_heatmap_svg(matrix: ResultMatrix, p_mask: float | None = None) -> str:
    """Grid heatmap: indicators across, regions down.

    Signed scalars use the diverging palette on a fixed [-1, 1] scale;
    non-negative scores a sequential palette scaled to the matrix maximum;
    p-values a log ramp where darker means smaller. Absent cells are gray
    with the skip reason in their tooltip. ``p_mask`` optionally blanks
    cells whose p-value exceeds it (only meaningful for methods that carry
    one).
    """
    if not matrix.rows or not matrix.cols:
        raise DomainError("cannot render an empty matrix")
    palette = _PALETTE[matrix.method]

    peak = max(
        (v for key in matrix.cells if (v := cell_scalar(matrix, key)) is not None),
        default=0.0,
    )
    width = LEFT + CELL * len(matrix.cols) + 10
    height = TOP + CELL * len(matrix.rows) + BOTTOM

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<title>{_escape(matrix.method)}: {_escape(matrix.outcome)} "
        f"(ages {_escape(matrix.age_group.value)})</title>",
    ]
    for ci, code in enumerate(matrix.cols):
        x = LEFT + ci * CELL + CELL // 2
        parts.append(
            f'<text x="{x}" y="{TOP - 8}" text-anchor="middle" '
            f'font-size="11">{_escape(code)}</text>'
        )
    for ri, region in enumerate(matrix.rows):
        y = TOP + ri * CELL + CELL // 2 + 4
        parts.append(
            f'<text x="{LEFT - 6}" y="{y}" text-anchor="end" '
            f'font-size="11">{_escape(region)}</text>'
        )
        for ci, code in enumerate(matrix.cols):
            key = (region, code)
            x = LEFT + ci * CELL
            y0 = TOP + ri * CELL
            value = cell_scalar(matrix, key)
            if value is None:
                fill = _ABSENT_FILL
                title = matrix.skips.get(key, "absent")
            elif p_mask is not None and _masked(matrix, key, p_mask):
                fill = _MASKED_FILL
                title = f"masked: p > {p_mask:g}"
            else:
                if palette == "diverging":
                    fill = _diverging(value)
                elif palette == "sequential":
                    fill = _sequential(value / peak if peak > 0 else 0.0)
                else:
                    fill = _sequential(_p_ramp(value))
                title = f"{code} = {_fmt(value)}"
            parts.append(
                f'<rect class="cell" x="{x}" y="{y0}" width="{CELL}" '
                f'height="{CELL}" fill="{fill}" stroke="#ffffff">'
                f"<title>{_escape(title)}</title></rect>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _masked(matrix: ResultMatrix, key, p_mask: float) -> bool:
    result = matrix.cells[key].result
    p = getattr(result, "p_value", None)
    return p is not None and p > p_mask
