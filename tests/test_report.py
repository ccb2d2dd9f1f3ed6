import json
import xml.etree.ElementTree as ET

import pytest

from paneldep.battery import BatteryConfig, run_battery
from paneldep.errors import DomainError
from paneldep.panel import load_fixture
from paneldep.report import (
    ExportBundle,
    build_bundle,
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
        from paneldep.report import _p_ramp, _sequential
        assert _p_ramp(1.0) == 0.0
        assert _p_ramp(1e-10) == 1.0
        assert _p_ramp(1e-12) == 1.0  # clamped at the floor
        ramps = [_p_ramp(p) for p in (1.0, 0.1, 0.01, 1e-5, 1e-10)]
        assert ramps == sorted(ramps)
        assert _sequential(0.0) == "#ffffff"
        assert _sequential(1.0) == "#08306b"

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
