import json
import math
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_heatmap_svg
from paneldep.battery import BatteryConfig, MatrixCell, ResultMatrix, run_battery
from paneldep.errors import DomainError
from paneldep.panel import AgeGroup, AnnualSeries, PanelDataset, load_fixture
from paneldep.report import (
    METHOD_SCALARS,
    ExportBundle,
    build_bundle,
    cell_scalars,
    export_csv,
    export_json,
    render_heatmap_svg,
)


@pytest.fixture(scope="module")
def fixture_run():
    ds = load_fixture(with_outcomes=True)
    outcomes = tuple(i.code for i in ds.indicators if i.category == "MentalHealth")
    indicators = tuple(i.code for i in ds.indicators if i.category != "MentalHealth")
    config = BatteryConfig(outcomes=outcomes, indicators=indicators)
    return ds, config, run_battery(ds, config)


def matrix_for(matrices, method):
    return next(m for m in matrices if m.method == method)


class TestCsv:
    def test_shape(self, fixture_run):
        _, _, matrices = fixture_run
        text = export_csv(matrix_for(matrices, "pearson"))
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == "region,E1,E2,E3,ED1,ED2,ED3,ED4,S1,S2,S3,T1,T2,T3,T4,T5"
        assert lines[1].startswith("global,")

    def test_absent_cells_use_missing_marker(self, fixture_run):
        _, _, matrices = fixture_run
        matrix = matrix_for(matrices, "mic")
        text = export_csv(matrix)
        cells = text.strip().splitlines()[1].split(",")[1:]
        markers = [c == "-" for c in cells]
        assert sum(markers) == len(matrix.skips)

    def test_six_significant_digits_fixed_form(self):
        ds = load_fixture(with_outcomes=True)
        config = BatteryConfig(methods=("pearson",),
                               outcomes=("synthetic-burden|DALYs|all",),
                               indicators=("E1",))
        matrix = run_battery(ds, config)[0]
        object.__setattr__(matrix.cells[("global", "E1")].result, "r", 1.0)
        assert ",1.00000" in export_csv(matrix)

    def test_reparse_recovers_six_digits(self, fixture_run):
        _, _, matrices = fixture_run
        matrix = matrix_for(matrices, "pearson")
        line = export_csv(matrix).strip().splitlines()[1].split(",")
        for code, cell_text in zip(matrix.cols, line[1:]):
            if cell_text == "-":
                continue
            reparsed = float(cell_text)
            true = matrix.cells[("global", code)].result.r
            assert reparsed == pytest.approx(true, rel=1e-5)

    def test_byte_stability(self, fixture_run):
        _, _, matrices = fixture_run
        matrix = matrix_for(matrices, "granger")
        assert export_csv(matrix) == export_csv(matrix)

    def test_shared_scalars_give_the_same_files(self, fixture_run):
        _, _, matrices = fixture_run
        for matrix in matrices:
            scalars = cell_scalars(matrix)
            assert export_csv(matrix, scalars) == export_csv(matrix)
            assert render_heatmap_svg(matrix, scalars=scalars) == render_heatmap_svg(matrix)


class TestJson:
    def test_empty_bundle(self):
        text = export_json(ExportBundle(matrices=[], metadata={"tool_version": "x"}))
        assert '"matrices": []' in text
        assert '"metadata"' in text

    def test_one_line_that_roundtrips(self, fixture_run):
        ds, config, matrices = fixture_run
        text = export_json(build_bundle(matrices, ds, config))
        assert text.endswith("\n") and "\n" not in text[:-1]
        doc = json.loads(text)
        assert json.dumps(doc, sort_keys=True, allow_nan=False) + "\n" == text
        assert len(doc["matrices"]) == len(matrices)

    def test_byte_identical_across_runs(self, fixture_run):
        ds, config, _ = fixture_run
        a = export_json(build_bundle(run_battery(ds, config), ds, config))
        b = export_json(build_bundle(run_battery(ds, config), ds, config))
        assert a == b

    def test_non_finite_floats_are_written_as_strings(self):
        ds = load_fixture(with_outcomes=True)
        config = BatteryConfig(methods=("granger", "pearson"),
                               outcomes=("synthetic-burden|DALYs|all",),
                               indicators=("E1", "E2"))
        matrices = run_battery(ds, config)
        finite = json.loads(export_json(build_bundle(matrices, ds, config)))
        result = matrices[0].cells[("global", "E1")].result
        object.__setattr__(result, "f_stat", math.inf)
        object.__setattr__(result, "rss_unrestricted", math.nan)
        doc = json.loads(export_json(build_bundle(matrices, ds, config)))
        cell = doc["matrices"][0]["cells"][0][0]
        assert (cell["f_stat"], cell["rss_unrestricted"]) == ("inf", "nan")
        finite["matrices"][0]["cells"][0][0].update(f_stat="inf", rss_unrestricted="nan")
        assert doc == finite

    def test_sums_past_the_float_range_are_written_as_inf(self):
        """A response at 1e300 still fits every lag; only its residual sums
        overflow, and the bundle writes them as "inf"."""
        ds = load_fixture(with_outcomes=True)
        outcome = "synthetic-burden|DALYs|all"
        config = BatteryConfig(methods=("granger",), outcomes=(outcome,),
                               indicators=("E1", "E2"))
        series = ds.cells["global", outcome]
        cells = {**ds.cells, ("global", outcome): AnnualSeries(
            series.years, tuple(None if v is None else v * 1e300 for v in series.values))}
        far = PanelDataset(ds.regions, ds.indicators, cells)
        (row,) = json.loads(export_json(build_bundle(run_battery(far, config), far,
                                                     config)))["matrices"][0]["cells"]
        (base,) = json.loads(export_json(build_bundle(run_battery(ds, config), ds,
                                                      config)))["matrices"][0]["cells"]
        for cell, expected in zip(row, base):
            assert (cell["rss_restricted"], cell["rss_unrestricted"]) == ("inf", "inf")
            assert cell["lag"] == expected["lag"]
            assert cell["p_value"] == pytest.approx(expected["p_value"], rel=1e-9)

    def test_carries_full_cell_detail(self, fixture_run):
        ds, config, matrices = fixture_run
        doc = json.loads(export_json(build_bundle(matrices, ds, config)))
        granger = next(m for m in doc["matrices"] if m["method"] == "granger")
        cell = next(c for row in granger["cells"] for c in row if c)
        assert {"lag", "f_stat", "p_value", "rss_restricted",
                "rss_unrestricted", "n_eff", "n"} <= set(cell)
        assert doc["metadata"]["dataset_fingerprint"] == ds.fingerprint()
        assert doc["metadata"]["granger_cell_value"] == "p_value at best lag"

    def test_skips_are_machine_readable(self, fixture_run):
        ds, config, matrices = fixture_run
        doc = json.loads(export_json(build_bundle(matrices, ds, config)))
        mic_doc = next(m for m in doc["matrices"] if m["method"] == "mic")
        reasons = {s for row in mic_doc["skips"] for s in row if s}
        assert reasons == {"insufficient-data"}


class TestSvg:
    def test_wellformed_and_cell_count(self, fixture_run):
        _, _, matrices = fixture_run
        for matrix in matrices:
            text = render_heatmap_svg(matrix)
            ET.fromstring(text)
            assert text.count('<rect class="cell"') == 15

    def test_color_endpoints(self, fixture_run):
        _, _, matrices = fixture_run
        matrix = matrix_for(matrices, "pearson")
        key = ("global", "E1")
        for forced, expected in ((1.0, "#ff0000"), (-1.0, "#0000ff"), (0.0, "#ffffff")):
            object.__setattr__(matrix.cells[key].result, "r", forced)
            text = render_heatmap_svg(matrix)
            first_cell = text.split('<rect class="cell"')[1]
            assert f'fill="{expected}"' in first_cell

    def test_absent_cell_gray_with_reason(self, fixture_run):
        _, _, matrices = fixture_run
        matrix = matrix_for(matrices, "mic")
        text = render_heatmap_svg(matrix)
        assert 'fill="#808080"' in text
        assert "<title>insufficient-data</title>" in text

    def test_lower_p_is_darker(self):
        from paneldep.report import _fills
        ps = [1.0, 0.1, 0.01, 1e-5, 1e-10, 1e-12]
        fills = _fills("p-value", ps, peak=1.0)
        assert fills[0] == "#ffffff"
        assert fills[-2] == fills[-1] == "#08306b"  # clamped at the floor
        red = [int(fill[1:3], 16) for fill in fills]
        assert red == sorted(red, reverse=True)
        assert _fills("sequential", [0.0, 1.0], peak=1.0) == ["#ffffff", "#08306b"]

    def test_empty_matrix_rejected(self, fixture_run):
        _, _, matrices = fixture_run
        matrix = matrix_for(matrices, "pearson")
        empty = type(matrix)(method="pearson", age_group=matrix.age_group,
                             outcome=matrix.outcome, rows=(), cols=())
        with pytest.raises(DomainError):
            render_heatmap_svg(empty)

    def test_p_mask_blankets_weak_cells(self, fixture_run):
        _, _, matrices = fixture_run
        matrix = matrix_for(matrices, "pearson")
        masked = render_heatmap_svg(matrix, p_mask=1e-300)
        assert 'fill="#d9d9d9"' in masked

    def test_determinism(self, fixture_run):
        _, _, matrices = fixture_run
        matrix = matrix_for(matrices, "mic")
        assert render_heatmap_svg(matrix) == render_heatmap_svg(matrix)

    @pytest.mark.parametrize("text", [
        "", "plain", "&", "&amp;", "a<b>c", "<&>", "&lt;&gt;", "R&D <40> years",
        "São Paulo – Zürich ≥ 5 & < 7", "日本 <地域> &amp; 🌍",
    ])
    def test_escape_matches_saxutils(self, text):
        from xml.sax.saxutils import escape
        from paneldep.report import _escape
        assert _escape(text) == escape(text)


# -- the SVG bytes against the per-cell reference ------------------------------

_HAS_P = ("pearson", "granger")

#: Values whose fills sit on a rounding edge of either palette: the
#: diverging channel is 255 * (1 -+ v), the sequential 255 + t * (end - 255).
_EDGES = sorted(
    {k / 255 - 1 for k in range(256)} | {1 - k / 255 for k in range(256)}
    | {(k + 0.5) / 255 - 1 for k in range(255)} | {1 - (k + 0.5) / 255 for k in range(255)}
    | {(k + 0.5) / 247 for k in range(247)}
)
_SPECIAL = (0.0, -0.0, 1.0, -1.0, 1.5, -2.0, 1e300, -1e300, 5e-324, 1e-10, 1e-12,
            math.inf, -math.inf, math.nan)
_values = st.one_of(st.sampled_from(_EDGES), st.sampled_from(_SPECIAL),
                    st.floats(-3.0, 3.0), st.floats(allow_nan=True, allow_infinity=True))


def _matrix(method, rows, cols, values, p_values, skips):
    """A matrix whose cells are filled row-major, as ``run_battery`` fills them."""
    matrix = ResultMatrix(method=method, age_group=AgeGroup.ALL_AGES,
                          outcome="o<&>", rows=tuple(rows), cols=tuple(cols))
    cells = iter(zip(values, p_values, skips))
    for region in rows:
        for code in cols:
            value, p, skip = next(cells)
            if skip is not None:
                if skip != "absent":
                    matrix.skips[region, code] = skip
                continue
            fields = {METHOD_SCALARS[method]: value}
            if method in _HAS_P:
                fields["p_value"] = p if method == "pearson" else value
            matrix.cells[region, code] = MatrixCell(30, SimpleNamespace(**fields))
    return matrix


@st.composite
def synthetic_matrices(draw):
    method = draw(st.sampled_from(sorted(METHOD_SCALARS)))
    rows = draw(st.lists(st.sampled_from(["r1", "R&D", "<r>", "São"]),
                         min_size=1, max_size=4, unique=True))
    cols = draw(st.lists(st.sampled_from(["E1", "a&b", "<x>", "T5", "S1"]),
                         min_size=1, max_size=5, unique=True))
    size = len(rows) * len(cols)
    zero = draw(st.booleans())  # every drawn value zero: a zero peak
    values = draw(st.lists(st.just(0.0) if zero else _values,
                           min_size=size, max_size=size))
    p_values = draw(st.lists(_values, min_size=size, max_size=size))
    skips = draw(st.lists(st.sampled_from([None] * 4 + ["insufficient-data", "a<b", "absent"]),
                          min_size=size, max_size=size))
    return _matrix(method, rows, cols, values, p_values, skips)


@settings(max_examples=300, deadline=None)
@given(synthetic_matrices(), st.sampled_from([None, 0.05, 1e-300, 0.5, 1.0]))
def test_svg_matches_the_per_cell_reference(matrix, p_mask):
    assert render_heatmap_svg(matrix, p_mask) == reference_heatmap_svg(matrix, p_mask)


@pytest.mark.parametrize("method", sorted(METHOD_SCALARS))
def test_svg_matches_the_reference_on_every_rounding_edge(method):
    """One row of every edge value, with 1.0 among them so that the
    sequential ramp's peak is 1 and its edges land on .5 exactly."""
    values = [*_EDGES, *_SPECIAL]
    cols = [f"c{i}" for i in range(len(values))]
    matrix = _matrix(method, ["r"], cols, values, values, [None] * len(values))
    assert render_heatmap_svg(matrix) == reference_heatmap_svg(matrix)


@pytest.mark.parametrize("p_mask", [None, 0.05])
def test_svg_matches_the_reference_on_the_fixture_run(fixture_run, p_mask):
    _, _, matrices = fixture_run
    assert len(matrices) == 12
    for matrix in matrices:
        assert render_heatmap_svg(matrix, p_mask) == reference_heatmap_svg(matrix, p_mask)
