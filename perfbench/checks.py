"""Output checks on a paneldep ``bundle.json``.

Every check returns a list of problems; an empty list means it passed.
The benchmark counts an invocation as failed when any check on its output
reports a problem.
"""

from __future__ import annotations

import math
from collections import Counter

#: Relative tolerance of the value-by-value golden comparison. The bytes
#: are not compared: p-values move in the last few ulps between scipy
#: versions (up to 9.1e-16 relative on the fixture), and a package that
#: computes them without scipy must still pass.
GOLDEN_RTOL = 1e-12

#: (method, field) -> inclusive range of the field's values.
RANGES = {
    ("pearson", "r"): (-1.0, 1.0),
    ("pearson", "p_value"): (0.0, 1.0),
    ("granger", "p_value"): (0.0, 1.0),
    ("mutual_information", "mi"): (0.0, math.inf),
    ("mic", "mic"): (0.0, 1.0),
}


def compare_golden(doc, golden, rtol: float = GOLDEN_RTOL, path: str = "$") -> list[str]:
    """Structural equality, with floats equal to ``rtol`` relative."""
    if isinstance(golden, float) and isinstance(doc, (int, float)) \
            and not isinstance(doc, bool):
        if math.isclose(doc, golden, rel_tol=rtol, abs_tol=0.0):
            return []
        return [f"{path}: {doc!r} != golden {golden!r} (rtol {rtol:g})"]
    if type(doc) is not type(golden):
        return [f"{path}: {type(doc).__name__} where golden has {type(golden).__name__}"]
    if isinstance(golden, dict):
        if doc.keys() != golden.keys():
            return [f"{path}: keys {sorted(doc)} != golden {sorted(golden)}"]
        return [p for k in golden for p in compare_golden(doc[k], golden[k], rtol,
                                                           f"{path}.{k}")]
    if isinstance(golden, list):
        if len(doc) != len(golden):
            return [f"{path}: length {len(doc)} != golden {len(golden)}"]
        return [p for i, (a, b) in enumerate(zip(doc, golden))
                for p in compare_golden(a, b, rtol, f"{path}[{i}]")]
    return [] if doc == golden else [f"{path}: {doc!r} != golden {golden!r}"]


def check_grid(doc, expected_cells: int) -> list[str]:
    """Each matrix is complete (cell xor skip per slot); total is the grid."""
    problems = []
    total = 0
    for i, m in enumerate(doc["matrices"]):
        rows, cols = len(m["regions"]), len(m["indicators"])
        if len(m["cells"]) != rows or len(m["skips"]) != rows:
            problems.append(f"matrix {i}: {len(m['cells'])} cell rows for {rows} regions")
            continue
        for cell_row, skip_row in zip(m["cells"], m["skips"]):
            if len(cell_row) != cols or len(skip_row) != cols:
                problems.append(f"matrix {i}: row length differs from {cols} indicators")
                continue
            for cell, skip in zip(cell_row, skip_row):
                if (cell is None) == (skip is None):
                    problems.append(f"matrix {i}: a slot holds both or neither "
                                    f"of a cell and a skip")
                total += 1
    if total != expected_cells:
        problems.append(f"cells + skips = {total}, expected grid size {expected_cells}")
    return problems


def check_ranges(doc) -> list[str]:
    """r in [-1, 1], p-values in [0, 1], MI >= 0, MIC in [0, 1]."""
    problems = []
    for m in doc["matrices"]:
        fields = [(f, lo, hi) for (method, f), (lo, hi) in RANGES.items()
                  if method == m["method"]]
        for row in m["cells"]:
            for cell in row:
                if cell is None:
                    continue
                for f, lo, hi in fields:
                    v = cell.get(f)
                    if not isinstance(v, (int, float)) or not lo <= v <= hi:
                        problems.append(f"{m['method']} {m['outcome']}: "
                                        f"{f} = {v!r} outside [{lo}, {hi}]")
    return problems


def skip_histogram(doc) -> Counter:
    """Count of each skip tag over every matrix's ``skips`` grid."""
    return Counter(tag for m in doc["matrices"] for row in m["skips"]
                   for tag in row if tag is not None)


def computed_cells(doc) -> int:
    return sum(cell is not None for m in doc["matrices"] for row in m["cells"]
               for cell in row)


def check_digests(digests: dict[str, str], reference: dict[str, str]) -> list[str]:
    """Every output file has the same bytes as in the run's first invocation."""
    return [f"{key} bytes differ from the first invocation"
            for key, digest in digests.items() if digest != reference.get(key)]


def check_file_counts(names, matrices: int) -> list[str]:
    """One CSV and one SVG per matrix in the output directory."""
    problems = []
    for ext in (".csv", ".svg"):
        found = sum(n.endswith(ext) for n in names)
        if found != matrices:
            problems.append(f"{found} {ext} files for {matrices} matrices")
    return problems


def check_bundle(doc, expected_cells: int, golden=None) -> list[str]:
    """Every check that applies to one bundle."""
    problems = check_grid(doc, expected_cells) + check_ranges(doc)
    if golden is not None:
        problems += compare_golden(doc, golden)
    return problems
