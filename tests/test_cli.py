import base64
import gc
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import paneldep
import paneldep.cli
import paneldep.linear
from paneldep.battery import (
    METHODS,
    BatteryConfig,
    ResultMatrix,
    plan_battery,
    run_battery,
)
from paneldep.cli import main
from paneldep.errors import PanelDepError, ParseError
from paneldep.panel import PanelDataset, parse_wdi_wide

from oracles import pack_values


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


WDI = "code,region,2000,2001,2002,2003\nE1,global,1.0,2.0,-,4.0\nS1,global,60,61,62,63\n"
GBD = (
    "location,age_group,cause,measure,year,value\n"
    "R1,20-39,depressive,DALYs,2000,512.0\n"
    "R1,20-39,depressive,DALYs,2001,530.0\n"
    "R2,20-39,depressive,DALYs,2000,222.0\n"
)


class TestIngest:
    def test_wdi_roundtrip(self, workdir, capsys):
        (workdir / "wdi.csv").write_text(WDI)
        assert run("ingest", "--wdi", "wdi.csv", "--out", "panel.json") == 0
        ds = PanelDataset.from_json((workdir / "panel.json").read_text())
        assert ds.codes() == ("E1", "S1")

    def test_gbd_with_region_filter(self, workdir):
        (workdir / "gbd.csv").write_text(GBD)
        assert run("ingest", "--gbd", "gbd.csv", "--region", "R2",
                   "--out", "panel.json") == 0
        ds = PanelDataset.from_json((workdir / "panel.json").read_text())
        assert ds.regions == ("R2",)

    def test_both_sources_merge(self, workdir):
        (workdir / "wdi.csv").write_text(
            "code,region,2000,2001\nE1,R1,1.0,2.0\nE1,R2,3.0,4.0\n"
        )
        (workdir / "gbd.csv").write_text(GBD)
        assert run("ingest", "--wdi", "wdi.csv", "--gbd", "gbd.csv",
                   "--out", "p.json") == 0
        ds = PanelDataset.from_json((workdir / "p.json").read_text())
        assert ds.regions == ("R1", "R2")
        assert len(ds.codes()) == 2  # E1 plus one outcome code

    def test_no_sources_is_config_error(self, workdir):
        assert run("ingest", "--out", "p.json") == 2

    def test_gbd_with_byte_order_mark(self, workdir):
        (workdir / "gbd.csv").write_text("\ufeff" + GBD, encoding="utf-8")
        assert run("ingest", "--gbd", "gbd.csv", "--out", "panel.json") == 0
        ds = PanelDataset.from_json((workdir / "panel.json").read_text())
        assert ds.regions == ("R1", "R2")

    def test_parse_error_exits_one(self, workdir):
        (workdir / "bad.csv").write_text("code,region,20xx\nE1,global,1\n")
        assert run("ingest", "--wdi", "bad.csv", "--out", "p.json") == 1

    def test_missing_file_exits_input_error(self, workdir):
        assert run("ingest", "--wdi", "missing.csv", "--out", "p.json") == 1

    @pytest.mark.parametrize("rows", [
        "E1,R1,1.0,2.0\n",
        "E1,R1,1.0,2.0\nE1,R3,3.0,4.0\n",
    ], ids=["one-region", "two-regions"])
    def test_region_absent_from_wide_file_exits_input_error(self, workdir, capsys,
                                                            rows):
        (workdir / "wdi.csv").write_text("code,region,2000,2001\n" + rows)
        assert run("ingest", "--wdi", "wdi.csv", "--region", "R2",
                   "--out", "p.json") == 1
        assert "input error: region 'R2' not in dataset" in capsys.readouterr().err
        assert not (workdir / "p.json").exists()

    @pytest.mark.parametrize("text", [
        "code,2000,2001\nE1,1.0,2.0\n",
        "code,region,2000,2001\nE1,R2,1.0,2.0\n",
        "code,region,2000,2001\nE1,R1,1.0,2.0\nE1,R2,3.0,4.0\n",
    ], ids=["region-less", "only-that-region", "two-regions"])
    def test_region_option_on_wide_file(self, workdir, text):
        (workdir / "wdi.csv").write_text(text)
        assert run("ingest", "--wdi", "wdi.csv", "--region", "R2",
                   "--out", "p.json") == 0
        ds = PanelDataset.from_json((workdir / "p.json").read_text())
        assert ds.regions == ("R2",)


E1_ROW, S1_ROW = [1.0, 2.0, 3.0, 5.0], [60.0, 61.0, 60.5, 62.0]

SNAPSHOT = {
    "regions": ["global"],
    "indicators": [
        {"code": "E1", "name": "GDP", "category": "Economic", "units": ""},
        {"code": "S1", "name": "Life", "category": "Society", "units": ""},
    ],
    "blocks": [
        {"years": [2000, 2001, 2002, 2003],
         "keys": [["global", "E1"], ["global", "S1"]],
         "values": pack_values([E1_ROW, S1_ROW])},
    ],
}


def _snapshot_with(*path, value):
    """SNAPSHOT as JSON text with the item at ``path`` replaced by ``value``."""
    doc = json.loads(json.dumps(SNAPSHOT))
    item = doc
    for step in path[:-1]:
        item = item[step]
    item[path[-1]] = value
    return json.dumps(doc)


def _values_with(e1=E1_ROW, s1=S1_ROW, extra=b""):
    """SNAPSHOT with the block's values packed from these rows and bytes."""
    packed = base64.b64decode(pack_values([e1, s1])) + extra
    return _snapshot_with("blocks", 0, "values", value=base64.b64encode(packed).decode())


def _nans(*bits):
    """NaNs with other bits than the gap's: sign, quiet bit, payload."""
    return [struct.unpack("<d", struct.pack("<Q", b))[0] for b in bits]


E1_CELL, S1_CELL, BLOCK = "cell ('global', 'E1')", "cell ('global', 'S1')", "block 0"


class TestSnapshotValidation:
    @pytest.mark.parametrize("text, message", [
        (_snapshot_with("blocks", 0, "values", value=SNAPSHOT["blocks"][0]["values"][:-4] + "AA*A"),
         f"{BLOCK}: values are not base64 text"),
        (_values_with(e1=_nans(0xFFF8000000000000, 0x7FF0000000000001, 0x7FF8DEADBEEF0000,
                               0xFFFFFFFFFFFFFFFF)),
         f"{E1_CELL}: series has no values at all"),
        (_values_with(e1=[1.0, math.inf, 3.0, 5.0]),
         f"{E1_CELL}: value inf in year 2001 is not finite"),
        (_values_with(extra=struct.pack("<d", 1.0)),
         f"{BLOCK}: values hold 72 bytes; 2 keys by 4 years take 64"),
        (_snapshot_with("blocks", 0, "years", value=[2000, 2002, 2001, 2003]),
         f"{BLOCK}: years must be strictly increasing"),
        (_snapshot_with("blocks", 0, "years", value=[2000, 2001, 2002]),
         f"{BLOCK}: values hold 64 bytes; 2 keys by 3 years take 48"),
        (_snapshot_with("blocks", 0, "keys", 0, value=["global", "ZZ9"]),
         ": cell code 'ZZ9' not in indicator list"),
        (_snapshot_with("indicators", 0, "category", value="Finance"),
         ": category 'Finance' not in ("),
        (_snapshot_with("blocks", 0, "years", value=["2000", "2001", "2002", "2003"]),
         f"{BLOCK}: years must be a non-empty list of integers"),
        (_snapshot_with("blocks", 0, "keys", 1, value=["global", "E1"]),
         f": {E1_CELL} more than once"),
        (json.dumps({**SNAPSHOT, "regions": ["global", "global"]}),
         ": regions list ['global'] more than once"),
        (json.dumps({**SNAPSHOT, "indicators": SNAPSHOT["indicators"] * 2}),
         ": indicators list ['E1', 'S1'] more than once"),
        (_snapshot_with("blocks", 0, "values", value=True),
         f"{BLOCK}: values must be a base64 string"),
        (json.dumps({**SNAPSHOT, "blocks": SNAPSHOT["blocks"] + [
            {"years": [2004], "keys": [["global", "S1"]], "values": pack_values([[63.0]])}]}),
         f": {S1_CELL} more than once"),
        (json.dumps({"regions": SNAPSHOT["regions"], "indicators": SNAPSHOT["indicators"],
                     "cells": [{"region": "global", "code": "E1", "years": [2000],
                                "values": [1.0]}]}),
         ' is in the old per-cell layout ("cells"); re-run `paneldep ingest`'),
        (_snapshot_with("blocks", 0, "values", value=[E1_ROW, S1_ROW]),
         f"{BLOCK}: values are a list of rows, the layout of earlier versions; "
         "re-run `paneldep ingest` to write them as base64"),
        (_values_with(s1=[60.0, 61.0, -math.inf, 62.0]),
         f"{S1_CELL}: value -inf in year 2002 is not finite"),
        (_values_with(s1=[None] * 4), f"{S1_CELL}: series has no values at all"),
        (json.dumps({**SNAPSHOT, "note": "x"}), ": unknown field 'note' in the document"),
        (_snapshot_with("indicators", 1, "source", value="WDI"),
         ": unknown field 'source' in an indicator"),
        (_snapshot_with("blocks", 0, "unit", value="%"), f": unknown field 'unit' in {BLOCK}"),
    ], ids=["string-value", "nan", "infinity", "overflow", "years-not-increasing",
            "length-mismatch", "unknown-code", "bad-category", "string-years",
            "repeated-cell", "repeated-region", "repeated-code", "bool-value",
            "cell-repeated-in-two-blocks", "old-per-cell-layout", "list-values",
            "minus-infinity", "all-gap-row", "unknown-document-field",
            "unknown-indicator-field", "unknown-block-field"])
    def test_malformed_snapshot_exits_input_error(self, workdir, capsys, text, message):
        (workdir / "panel.json").write_text(text)
        (workdir / "config.json").write_text(json.dumps({
            "methods": ["pearson", "granger"], "outcomes": ["S1"],
            "indicators": ["E1"], "min_overlap": 3,
        }))
        assert run("--quiet", "analyze", "--panel", "panel.json",
                   "--config", "config.json", "--out", "results") == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: panel snapshot") and message in err

    @pytest.mark.parametrize("text, message", [
        (json.dumps({**SNAPSHOT, "regions": [7], "blocks": [
            {**SNAPSHOT["blocks"][0], "keys": [[7, "E1"], [7, "S1"]]}]}),
         "regions must be a list of strings"),
        (json.dumps({**SNAPSHOT, "regions": "global"}), "regions must be a list of strings"),
        (_snapshot_with("blocks", 0, "keys", 0, 0, value=7),
         f"{BLOCK}: key [7, 'E1'] must be a [region, code] pair of strings"),
        (_snapshot_with("blocks", 0, "keys", 0, 1, value=["E1"]),
         f"{BLOCK}: key ['global', ['E1']] must be a [region, code] pair of strings"),
        (json.dumps({**SNAPSHOT,
                     "indicators": [{**SNAPSHOT["indicators"][0], "code": 1},
                                    SNAPSHOT["indicators"][1]],
                     "blocks": [{**SNAPSHOT["blocks"][0], "keys": [["global", 1],
                                                                   ["global", "S1"]]}]}),
         "indicator code must be a string, got int"),
        (_snapshot_with("indicators", 0, "name", value=["GDP"]),
         "indicator name must be a string, got list"),
        (_snapshot_with("indicators", 0, "units", value=None),
         "indicator units must be a string, got NoneType"),
        (json.dumps({**SNAPSHOT, "indicators": {}}), "indicators must be a list of objects"),
        (json.dumps({**SNAPSHOT, "blocks": [[]]}), "blocks must be a list of objects"),
        (_snapshot_with("blocks", 0, "years", value=2000),
         f"{BLOCK}: years must be a non-empty list of integers"),
        (_snapshot_with("blocks", 0, "keys", value={}), f"{BLOCK}: keys must be a non-empty list"),
        (_snapshot_with("blocks", 0, "values", value=pack_values([E1_ROW])),
         f"{BLOCK}: values hold 32 bytes; 2 keys by 4 years take 64"),
        (json.dumps({**SNAPSHOT, "blocks": SNAPSHOT["blocks"] + [
            {"years": [2004], "keys": [], "values": ""}]}),
         "block 1: keys must be a non-empty list"),
    ], ids=["numeric-region", "regions-string", "numeric-cell-region", "list-cell-code",
            "numeric-code", "list-name", "null-units", "indicators-object", "cell-list",
            "years-number", "keys-object", "missing-values-row", "empty-block"])
    def test_wrong_types_are_named(self, workdir, capsys, text, message):
        (workdir / "panel.json").write_text(text)
        (workdir / "config.json").write_text(json.dumps({"methods": ["pearson"]}))
        assert run("--quiet", "analyze", "--panel", "panel.json",
                   "--config", "config.json", "--out", "results") == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: panel snapshot") and message in err
        assert "missing field" not in err
        assert not (workdir / "results").exists()

    def test_document_must_be_an_object(self):
        with pytest.raises(ParseError, match="the document must be a JSON object"):
            PanelDataset.from_json(json.dumps([SNAPSHOT]))

    def test_json_array_panel_is_read_as_a_snapshot(self, workdir, capsys):
        (workdir / "panel.json").write_text(" " + json.dumps([SNAPSHOT]))
        (workdir / "config.json").write_text(json.dumps({"methods": ["pearson"]}))
        assert run("--quiet", "analyze", "--panel", "panel.json",
                   "--config", "config.json", "--out", "results") == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: panel snapshot: the document must be a JSON object")
        assert not (workdir / "results").exists()

    @pytest.mark.parametrize("values", [[1, 2, 3, 5], [1, 2.0, None, 5]],
                             ids=["all-ints", "mixed"])
    def test_integer_values_read_as_their_floats(self, values):
        read = PanelDataset.from_json(_values_with(e1=values))
        series = read.cells[("global", "E1")]
        assert series.values == tuple(None if v is None else float(v) for v in values)
        assert all(type(v) is float for v in series.values if v is not None)

    def test_values_whose_sum_overflows_accepted(self):
        values = [1e308, 1e308, -1e308, 1e308]
        read = PanelDataset.from_json(_values_with(e1=values))
        assert read.cells[("global", "E1")].values == tuple(values)

    def test_negative_zero_keeps_its_sign(self):
        read = PanelDataset.from_json(_values_with(e1=[1.0, -0.0, 3.0, 5.0]))
        assert math.copysign(1.0, read.cells[("global", "E1")].values[1]) == -1.0
        assert '"values":"%s"}' % pack_values([[1.0, -0.0, 3.0, 5.0], S1_ROW]) in read.to_json()

    def test_every_nan_reads_as_the_gap(self):
        """A NaN of any bits is a gap, and is written back as the gap's bits."""
        e1 = [1.0] + _nans(0xFFF8000000000000, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF)
        read = PanelDataset.from_json(_values_with(e1=e1))
        assert read.cells[("global", "E1")].values == (1.0, None, None, None)
        assert read.to_json() == PanelDataset.from_json(
            _values_with(e1=[1.0, None, None, None])).to_json()

    def test_well_formed_snapshot_runs(self, workdir):
        (workdir / "panel.json").write_text(json.dumps(SNAPSHOT))
        (workdir / "config.json").write_text(json.dumps({
            "methods": ["pearson"], "outcomes": ["S1"], "indicators": ["E1"],
            "min_overlap": 3,
        }))
        assert run("--quiet", "analyze", "--panel", "panel.json",
                   "--config", "config.json", "--out", "results") == 0


class TestFixtureCommand:
    def test_emits_15_rows(self, workdir, capsys):
        assert run("fixture") == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 16  # header + 15 series
        assert lines[0].startswith("code,region,1991,")

    def test_with_outcomes_appends_three(self, workdir):
        assert run("fixture", "--with-outcomes", "--out", "panel.csv") == 0
        lines = (workdir / "panel.csv").read_text().strip().splitlines()
        assert len(lines) == 19
        assert sum("synthetic-burden" in line for line in lines) == 3


class TestAnalyze:
    def test_end_to_end(self, workdir):
        assert run("fixture", "--with-outcomes", "--out", "panel.csv") == 0
        (workdir / "config.json").write_text(json.dumps({
            "methods": ["pearson", "granger"],
        }))
        assert run("--quiet", "analyze", "--panel", "panel.csv",
                   "--config", "config.json", "--out", "results") == 0
        files = {p.name for p in (workdir / "results").iterdir()}
        bundle = json.loads((workdir / "results" / "bundle.json").read_text())
        config = BatteryConfig.from_dict(bundle["metadata"]["config"])
        plan = plan_battery(parse_wdi_wide((workdir / "panel.csv").read_text()), config)
        assert len(plan) == 6  # 2 methods x 3 outcomes
        assert files == {"bundle.json", *(f"{m.stem}{suffix}" for m in plan
                                          for suffix in (".csv", ".svg"))}

    def test_outputs_are_written_from_the_columns(self, workdir, monkeypatch):
        """No output reads a matrix's per-cell mappings, which would build
        a result object for every cell."""
        def per_cell(matrix):
            raise AssertionError("analyze read a per-cell mapping")

        monkeypatch.setattr(ResultMatrix, "cells", property(per_cell))
        monkeypatch.setattr(ResultMatrix, "skips", property(per_cell))
        assert run("fixture", "--with-outcomes", "--out", "panel.csv") == 0
        (workdir / "config.json").write_text(json.dumps({"methods": list(METHODS)}))
        assert run("--quiet", "analyze", "--panel", "panel.csv",
                   "--config", "config.json", "--out", "results") == 0
        assert len(list((workdir / "results").iterdir())) == 25

    def test_unknown_code_exits_config(self, workdir):
        run("fixture", "--with-outcomes", "--out", "panel.csv")
        (workdir / "config.json").write_text(json.dumps({
            "methods": ["pearson"], "outcomes": ["bogus"], "indicators": ["E1"],
        }))
        assert run("analyze", "--panel", "panel.csv", "--config", "config.json",
                   "--out", "results") == 2

    def test_outcomes_sharing_a_file_name_exit_config(self, workdir, capsys):
        (workdir / "wdi.csv").write_text(
            "code,2000,2001,2002,2003\n"
            "E1,1.0,2.0,3.0,5.0\nX/a,4.0,3.0,2.5,1.0\nX a,1.0,1.5,1.0,2.0\n"
        )
        (workdir / "config.json").write_text(json.dumps({
            "methods": ["pearson"], "outcomes": ["X/a", "X a"],
            "indicators": ["E1"], "min_overlap": 3,
        }))
        assert run("analyze", "--panel", "wdi.csv", "--config", "config.json",
                   "--out", "results") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "'X/a'" in err and "'X a'" in err
        assert not (workdir / "results").exists()

    def test_mic_grid_too_small_for_the_data_is_insufficient_data(self, workdir):
        # the fixture's longest pairs hold 33 points: ceil(33 ** 0.3) = 3 < 4
        run("fixture", "--with-outcomes", "--out", "panel.csv")
        (workdir / "config.json").write_text(json.dumps({
            "methods": ["pearson", "mic"], "mic_alpha": 0.3,
        }))
        assert run("--quiet", "analyze", "--panel", "panel.csv", "--config",
                   "config.json", "--out", "results") == 0
        matrices = json.loads((workdir / "results" / "bundle.json").read_text())["matrices"]
        pearson = [m for m in matrices if m["method"] == "pearson"]
        mic = [m for m in matrices if m["method"] == "mic"]
        aligned = 0
        for p, m in zip(pearson, mic, strict=True):
            assert all(cell is None for row in m["cells"] for cell in row)
            for p_cells, p_skips, m_skips in zip(p["cells"], p["skips"], m["skips"]):
                for p_cell, p_skip, m_skip in zip(p_cells, p_skips, m_skips):
                    aligned += p_cell is not None
                    assert m_skip == ("insufficient-data" if p_cell else p_skip)
        assert aligned > 0

    def test_bad_config_json_exits_one(self, workdir):
        run("fixture", "--out", "panel.csv")
        (workdir / "config.json").write_text("{never valid")
        assert run("analyze", "--panel", "panel.csv", "--config", "config.json",
                   "--out", "results") == 1

    @pytest.mark.parametrize("body", [
        {"min_overlap": "10"},
        {"max_lag": 2.5, "methods": ["granger"]},
        {"outcomes": 5},
        {"mi_bins": "4", "methods": ["mutual_information"]},
        {"methods": None},
        {"mic_clumps": 1.5, "methods": ["mic"]},
        {"granger_reverse": "yes", "methods": ["granger"]},
        {"mic_alpha": "0.6", "methods": ["mic"]},
    ], ids=["string-min-overlap", "float-max-lag", "number-outcomes",
            "string-mi-bins", "null-methods", "float-mic-clumps",
            "string-flag", "string-mic-alpha"])
    def test_wrongly_typed_config_exits_config(self, workdir, capsys, body):
        run("fixture", "--with-outcomes", "--out", "panel.csv")
        (workdir / "config.json").write_text(json.dumps(body))
        assert run("analyze", "--panel", "panel.csv", "--config", "config.json",
                   "--out", "results") == 2
        assert "config error" in capsys.readouterr().err
        assert not (workdir / "results").exists()

    @pytest.mark.parametrize("body", [
        {"methods": ["pearson", "pearson"], "indicators": ["E1", "E1"]},
        {"methods": ["pearson", "mic", "pearson"]},
        {"methods": ["pearson"], "outcomes": ["synthetic-burden|DALYs|all"] * 2},
        {"methods": ["pearson"], "indicators": ["E1", "S1", "E1"]},
    ], ids=["methods-and-indicators", "methods", "outcomes", "indicators"])
    def test_repeated_config_entry_exits_config(self, workdir, capsys, body):
        run("fixture", "--with-outcomes", "--out", "panel.csv")
        (workdir / "config.json").write_text(json.dumps(body))
        assert run("analyze", "--panel", "panel.csv", "--config", "config.json",
                   "--out", "results") == 2
        assert "more than once" in capsys.readouterr().err
        assert not (workdir / "results").exists()

    def test_matrix_file_of_another_run_in_out_exits_config(self, workdir, capsys):
        run("fixture", "--with-outcomes", "--out", "panel.csv")
        for methods, code in ((["pearson", "granger"], 0), (["pearson", "granger"], 0),
                              (["pearson"], 2)):
            (workdir / "config.json").write_text(json.dumps({"methods": methods}))
            before = {p.name: p.read_bytes() for p in (workdir / "results").glob("*")}
            assert run("--quiet", "analyze", "--panel", "panel.csv", "--config",
                       "config.json", "--out", "results") == code
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "granger__" in err
        assert {p.name: p.read_bytes() for p in (workdir / "results").glob("*")} == before
        assert len(before) == 13  # 2 methods x 3 outcomes x (csv, svg) + bundle

    def test_bundle_is_moved_into_place_whole(self, workdir, monkeypatch):
        """bundle.json is written under a temporary name in --out and moved
        onto its name once complete: an earlier run's bundle is replaced, no
        temporary file stays, and a write that fails leaves the earlier
        bundle as it was."""
        run("fixture", "--with-outcomes", "--out", "panel.csv")
        results = workdir / "results"
        results.mkdir()
        (results / "bundle.json").write_text("an earlier bundle\n")
        (workdir / "config.json").write_text(json.dumps({"methods": ["pearson"]}))
        argv = ("--quiet", "analyze", "--panel", "panel.csv", "--config", "config.json",
                "--out", "results")
        assert run(*argv) == 0
        written = (results / "bundle.json").read_bytes()
        assert json.loads(written)["metadata"]["config"]["methods"] == ["pearson"]
        assert {p.name for p in results.iterdir()
                if not p.name.startswith("pearson__")} == {"bundle.json"}

        def failing(bundle, out):
            out.write('{"matrices": [')
            raise OSError("no space left on device")

        monkeypatch.setattr(paneldep.cli, "export_json", failing)
        assert run(*argv) == 1
        assert (results / "bundle.json").read_bytes() == written
        assert not [p for p in results.iterdir() if p.name.startswith(".")]

    def test_panel_snapshot_accepted(self, workdir):
        (workdir / "wdi.csv").write_text(WDI)
        run("ingest", "--wdi", "wdi.csv", "--out", "panel.json")
        (workdir / "config.json").write_text(json.dumps({
            "methods": ["pearson"], "outcomes": ["S1"], "indicators": ["E1"],
            "min_overlap": 3,
        }))
        assert run("--quiet", "analyze", "--panel", "panel.json",
                   "--config", "config.json", "--out", "results") == 0


class TestTwoRegionPipeline:
    def test_gbd_plus_wdi_end_to_end(self, workdir):
        import numpy as np
        rng = np.random.default_rng(12)
        years = range(1995, 2020)
        gbd_rows = ["location,age_group,cause,measure,year,value"]
        wdi_rows = ["code,region," + ",".join(str(y) for y in years)]
        for region in ("north", "south"):
            burden = 100 + np.cumsum(rng.normal(size=len(years)))
            gbd_rows += [
                f"{region},20-39,anxiety,DALYs,{y},{v:.2f}"
                for y, v in zip(years, burden)
            ]
            for code in ("E1", "S2"):
                series = rng.uniform(1, 9, size=len(years))
                wdi_rows.append(
                    f"{code},{region}," + ",".join(f"{v:.2f}" for v in series)
                )
        (workdir / "gbd.csv").write_text("\n".join(gbd_rows) + "\n")
        (workdir / "wdi.csv").write_text("\n".join(wdi_rows) + "\n")
        assert run("--quiet", "ingest", "--wdi", "wdi.csv", "--gbd", "gbd.csv",
                   "--out", "panel.json") == 0
        (workdir / "config.json").write_text(json.dumps({
            "methods": ["pearson", "granger"],
        }))
        assert run("--quiet", "analyze", "--panel", "panel.json",
                   "--config", "config.json", "--out", "results") == 0
        bundle = json.loads((workdir / "results" / "bundle.json").read_text())
        assert len(bundle["matrices"]) == 2
        for matrix in bundle["matrices"]:
            assert matrix["regions"] == ["north", "south"]
            assert matrix["indicators"] == ["E1", "S2"]
            assert matrix["age_group"] == "20-39"
            cells = sum(c is not None for row in matrix["cells"] for c in row)
            assert cells == 4
        svgs = list((workdir / "results").glob("*.svg"))
        assert len(svgs) == 2
        for svg in svgs:
            assert svg.read_text().count('<rect class="cell"') == 4

    def test_long_csv_accepted_as_panel_directly(self, workdir):
        rows = ["location,age_group,cause,measure,year,value"]
        for year in (2000, 2001):
            rows.append(f"R1,20-39,depressive,DALYs,{year},{500 + year % 7}.0")
            rows.append(f"R1,20-39,anxiety,DALYs,{year},{300 + year % 5}.0")
        (workdir / "gbd.csv").write_text("\n".join(rows) + "\n")
        (workdir / "config.json").write_text(json.dumps({
            "methods": ["pearson"],
            "outcomes": ["depressive|DALYs|20-39"],
            "indicators": ["anxiety|DALYs|20-39"],
            "min_overlap": 3,
        }))
        # two-point series: every cell skips, but the run itself succeeds
        assert run("--quiet", "analyze", "--panel", "gbd.csv",
                   "--config", "config.json", "--out", "results") == 0
        bundle = json.loads((workdir / "results" / "bundle.json").read_text())
        skips = [s for row in bundle["matrices"][0]["skips"] for s in row if s]
        assert skips

    def test_long_csv_with_byte_order_mark_accepted_as_panel(self, workdir):
        rows = ["\ufefflocation,age_group,cause,measure,year,value"]
        rows += [f"R1,20-39,{cause},DALYs,{year},{value}"
                 for year in range(2000, 2010)
                 for cause, value in (("depressive", 500 + year % 7),
                                      ("anxiety", 300 + year % 5))]
        (workdir / "gbd.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        (workdir / "config.json").write_text(json.dumps({
            "methods": ["pearson"],
            "outcomes": ["depressive|DALYs|20-39"],
            "indicators": ["anxiety|DALYs|20-39"],
            "min_overlap": 3,
        }))
        assert run("--quiet", "analyze", "--panel", "gbd.csv",
                   "--config", "config.json", "--out", "results") == 0
        bundle = json.loads((workdir / "results" / "bundle.json").read_text())
        assert bundle["matrices"][0]["cells"][0][0]["n"] == 10


BANDS = "band,value\na1,10\na2,5\n"
PREV = "band,value\na1,100\na2,50\n"
LIFE = "band,value\na1,30\na2,10\n"
WEIGHTS = "condition,band,value\ndep,a1,0.2\ndep,a2,0.4\n"
STD = "band,value\na1,0.5\na2,0.5\n"


class TestBurden:
    def test_summary(self, workdir, capsys):
        (workdir / "d.csv").write_text(BANDS)
        (workdir / "p.csv").write_text(PREV)
        (workdir / "l.csv").write_text(LIFE)
        (workdir / "w.csv").write_text(WEIGHTS)
        assert run("burden", "--deaths", "d.csv", "--prevalence", "p.csv",
                   "--life-table", "l.csv", "--weights", "w.csv") == 0
        out = capsys.readouterr().out
        assert "YLL: 350" in out
        assert "YLD: 40" in out
        assert "DALY: 390" in out

    def test_age_standardized_rate(self, workdir, capsys):
        for name, text in (("d.csv", BANDS), ("p.csv", PREV), ("l.csv", LIFE),
                           ("w.csv", WEIGHTS), ("s.csv", STD)):
            (workdir / name).write_text(text)
        assert run("burden", "--deaths", "d.csv", "--prevalence", "p.csv",
                   "--life-table", "l.csv", "--weights", "w.csv",
                   "--std-pop", "s.csv") == 0
        out = capsys.readouterr().out
        # band a1: 10*30 + 100*0.2 = 320; band a2: 5*10 + 50*0.4 = 70
        assert "Age-standardized rate: 195" in out

    def test_ambiguous_condition_exits_config(self, workdir):
        (workdir / "d.csv").write_text(BANDS)
        (workdir / "p.csv").write_text(PREV)
        (workdir / "l.csv").write_text(LIFE)
        (workdir / "w.csv").write_text(
            "condition,band,value\ndep,a1,0.2\ndep,a2,0.4\nanx,a1,0.1\nanx,a2,0.1\n"
        )
        assert run("burden", "--deaths", "d.csv", "--prevalence", "p.csv",
                   "--life-table", "l.csv", "--weights", "w.csv") == 2

    def test_explicit_condition(self, workdir, capsys):
        (workdir / "d.csv").write_text(BANDS)
        (workdir / "p.csv").write_text(PREV)
        (workdir / "l.csv").write_text(LIFE)
        (workdir / "w.csv").write_text(
            "condition,band,value\ndep,a1,0.2\ndep,a2,0.4\nanx,a1,0.1\nanx,a2,0.1\n"
        )
        assert run("burden", "--deaths", "d.csv", "--prevalence", "p.csv",
                   "--life-table", "l.csv", "--weights", "w.csv",
                   "--condition", "anx") == 0
        assert "YLD: 15" in capsys.readouterr().out

    @pytest.mark.parametrize("deaths, life", [
        ("band,value\na1,nan\na2,5\n", LIFE),
        (BANDS, "band,value\na1,inf\na2,10\n"),
    ], ids=["nan-deaths", "inf-life-expectancy"])
    def test_non_finite_value_exits_parse_error(self, workdir, capsys,
                                                deaths, life):
        (workdir / "d.csv").write_text(deaths)
        (workdir / "p.csv").write_text(PREV)
        (workdir / "l.csv").write_text(life)
        (workdir / "w.csv").write_text(WEIGHTS)
        assert run("burden", "--deaths", "d.csv", "--prevalence", "p.csv",
                   "--life-table", "l.csv", "--weights", "w.csv") == 1
        captured = capsys.readouterr()
        assert "non-finite value" in captured.err
        assert "DALY" not in captured.out


    @pytest.mark.parametrize("deaths, weights, missing", [
        ("band,value\na1,10\na9,5\n", WEIGHTS, "'a9' missing from life table"),
        (BANDS, "condition,band,value\ndep,a1,0.2\n", "no disability weight"),
    ], ids=["deaths-band-without-life-expectancy", "prevalence-band-without-weight"])
    def test_missing_band_exits_input_error(self, workdir, capsys,
                                            deaths, weights, missing):
        (workdir / "d.csv").write_text(deaths)
        (workdir / "p.csv").write_text(PREV)
        (workdir / "l.csv").write_text(LIFE)
        (workdir / "w.csv").write_text(weights)
        assert run("burden", "--deaths", "d.csv", "--prevalence", "p.csv",
                   "--life-table", "l.csv", "--weights", "w.csv") == 1
        captured = capsys.readouterr()
        assert "input error" in captured.err
        assert missing in captured.err
        assert "DALY" not in captured.out

    @pytest.mark.parametrize("file, text, message", [
        ("l.csv", "band,value\na1,-30\na2,10\n", "life expectancy for band 'a1'"),
        ("w.csv", "condition,band,value\ndep,a1,1.5\ndep,a2,0.4\n", "outside [0, 1]"),
        ("d.csv", "band,value\na1,-10\na2,5\n", "deaths count for band 'a1'"),
        ("s.csv", "band,value\na1,0.7\na2,0.7\n", "sum to 1.4"),
    ], ids=["negative-life-expectancy", "weight-above-one", "negative-deaths",
            "std-pop-not-normalized"])
    def test_out_of_range_value_exits_input_error(self, workdir, capsys,
                                                  file, text, message):
        for name, default in (("d.csv", BANDS), ("p.csv", PREV), ("l.csv", LIFE),
                              ("w.csv", WEIGHTS), ("s.csv", STD)):
            (workdir / name).write_text(text if name == file else default)
        assert run("burden", "--deaths", "d.csv", "--prevalence", "p.csv",
                   "--life-table", "l.csv", "--weights", "w.csv",
                   "--std-pop", "s.csv") == 1
        captured = capsys.readouterr()
        assert "input error" in captured.err
        assert message in captured.err
        assert "DALY" not in captured.out

    @pytest.mark.parametrize("deaths, prevalence, weights, component", [
        ("band,value\na1,1e200\na2,5\n", PREV, WEIGHTS, "YLL is inf"),
        (BANDS, "band,value\na1,1e308\na2,1e308\n",
         "condition,band,value\ndep,a1,0.9\ndep,a2,0.9\n", "YLD is inf"),
        ("band,value\na1,1e108\na2,0\n", "band,value\na1,1e308\na2,0\n",
         "condition,band,value\ndep,a1,1\ndep,a2,1\n", "DALY is inf"),
    ], ids=["yll", "yld", "daly"])
    def test_overflowing_component_exits_input_error(self, workdir, capsys, deaths,
                                                     prevalence, weights, component):
        for name, text in (("d.csv", deaths), ("p.csv", prevalence),
                           ("l.csv", "band,value\na1,1e200\na2,10\n"),
                           ("w.csv", weights), ("s.csv", STD)):
            (workdir / name).write_text(text)
        assert run(*BURDEN_ARGS) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"input error: {component}")
        assert captured.out == ""


BURDEN_ARGS = ("burden", "--deaths", "d.csv", "--prevalence", "p.csv", "--life-table",
               "l.csv", "--weights", "w.csv", "--std-pop", "s.csv")


class TestInputEncoding:
    @pytest.mark.parametrize("argv, latin1", [
        (("ingest", "--wdi", "in.csv", "--out", "p.json"), "in.csv"),
        (("ingest", "--gbd", "in.csv", "--out", "p.json"), "in.csv"),
        (("analyze", "--panel", "in.csv", "--config", "c.json", "--out", "r"), "in.csv"),
        (("analyze", "--panel", "panel.csv", "--config", "c.json", "--out", "r"),
         "c.json"),
        (BURDEN_ARGS, "d.csv"),
        (BURDEN_ARGS, "p.csv"),
        (BURDEN_ARGS, "l.csv"),
        (BURDEN_ARGS, "w.csv"),
        (BURDEN_ARGS, "s.csv"),
    ], ids=["wdi", "gbd", "panel", "config", "deaths", "prevalence", "life-table",
            "weights", "std-pop"])
    def test_non_utf8_file_exits_input_error(self, workdir, capsys, argv, latin1):
        run("fixture", "--with-outcomes", "--out", "panel.csv")
        for name, text in (("d.csv", BANDS), ("p.csv", PREV), ("l.csv", LIFE),
                           ("w.csv", WEIGHTS), ("s.csv", STD),
                           ("c.json", json.dumps({"methods": ["pearson"]}))):
            (workdir / name).write_text(text)
        (workdir / latin1).write_bytes("code,region,2000\nE1,S\xe3o Paulo,1.0\n"
                                       .encode("latin-1"))
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"input error: {latin1}: 'utf-8' codec can't "
                                       f"decode byte 0xe3")
        assert captured.out == ""


class TestOutputEncoding:
    def test_ascii_locale_writes_utf8(self, workdir):
        (workdir / "wdi.csv").write_text("code,region,2000,2001,2002,2003\n"
                                         "X,São,1.0,3.0,2.0,5.0\n"
                                         "E1,São,1.0,2.0,3.0,4.0\n", encoding="utf-8")
        (workdir / "config.json").write_text(json.dumps({
            "methods": ["pearson"], "outcomes": ["X"], "indicators": ["E1"],
            "min_overlap": 3,
        }))
        path = [str(Path(paneldep.__file__).resolve().parents[1]),
                os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
               "PYTHONPATH": os.pathsep.join(filter(None, path))}
        done = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "paneldep.cli",
                               "analyze", "--panel", "wdi.csv", "--config", "config.json",
                               "--out", "out"], cwd=workdir, env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        for name in ("pearson__X__all.csv", "pearson__X__all.svg"):
            assert "São" in (workdir / "out" / name).read_bytes().decode("utf-8")


class TestGlobalFlags:
    def test_seed_is_a_usage_error(self, workdir, capsys):
        # the analysis is deterministic, and no option takes a seed
        assert run("--seed", "42", "fixture") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unrecognized arguments: --seed" in err

    def test_unknown_option_with_a_value_is_named(self, workdir, capsys):
        # argparse alone takes the "1" for the command and names that
        assert run("--bogus", "1", "fixture") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unrecognized arguments: --bogus\n"
        assert captured.out == ""
        assert not any(workdir.iterdir())

    def test_version(self, workdir, capsys):
        assert run("--version") == 0
        assert capsys.readouterr().out == "paneldep, version 0.1.0\n"


class TestGarbageCollection:
    """Commands run with automatic collection off, and the caller's setting
    comes back on every exit path."""

    ANALYZE = ("analyze", "--panel", "wdi.csv", "--config", "config.json",
               "--out", "out")

    @pytest.fixture()
    def inputs(self, workdir):
        (workdir / "wdi.csv").write_text(WDI)
        (workdir / "config.json").write_text(json.dumps({
            "methods": ["pearson"], "outcomes": ["S1"], "indicators": ["E1"],
            "min_overlap": 3,
        }))
        enabled = gc.isenabled()
        yield workdir
        (gc.enable if enabled else gc.disable)()

    def test_battery_runs_with_collection_off(self, inputs, monkeypatch):
        seen = []

        def recording(dataset, config):
            seen.append(gc.isenabled())
            return run_battery(dataset, config)

        monkeypatch.setattr(paneldep.cli, "run_battery", recording)
        gc.enable()
        assert run("--quiet", *self.ANALYZE) == 0
        assert seen == [False]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("argv, code", [
        (("fixture", "--out", "fixture.csv"), 0),
        (("ingest", "--wdi", "missing.csv", "--out", "p.json"), 1),
        (("ingest", "--out", "p.json"), 2),
        (ANALYZE, 3),
        (("--help",), 0),
    ], ids=["ok", "input-error", "config-error", "numerical-failure", "help"])
    def test_setting_restored(self, inputs, monkeypatch, capsys, enabled, argv, code):
        def failing(table):
            raise PanelDepError("kernel failed")

        monkeypatch.setattr(paneldep.linear, "pearsons_over", failing)
        (gc.enable if enabled else gc.disable)()
        assert run(*argv) == code
        assert gc.isenabled() is enabled
        if code == 3:
            assert "numerical failure: kernel failed" in capsys.readouterr().err

    def test_entry_freezes_the_heap_after_main(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["paneldep", "--version"])
        assert gc.get_freeze_count() == 0
        try:
            assert paneldep.cli.entry() == 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert capsys.readouterr().out == "paneldep, version 0.1.0\n"


class TestUsage:
    """Exit codes and the stderr prefix match those of the click-based CLI."""

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["analyze", "--config", "config.json", "--out", "results"],
        ["ingest", "--out"],
        ["--bogus", "fixture"],
    ], ids=["no-arguments", "unknown-command", "missing-panel", "out-without-value",
            "unknown-option"])
    def test_usage_error_exits_config(self, workdir, capsys, argv):
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not any(workdir.iterdir())

    @pytest.mark.parametrize("argv, option", [
        (["--help"], "--quiet"),
        (["ingest", "--help"], "--wdi"),
    ], ids=["top-level", "ingest"])
    def test_help_exits_zero(self, workdir, capsys, argv, option):
        assert run(*argv) == 0
        captured = capsys.readouterr()
        assert option in captured.out
        assert captured.err == ""
