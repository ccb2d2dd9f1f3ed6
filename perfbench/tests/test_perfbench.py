"""Tests of the benchmark's own logic: generator, span arithmetic, checks.

Stdlib only (plus the package, for the fixture). Run from the repository
root with either of::

    PYTHONPATH=src python3 -m unittest discover -s perfbench/tests
    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

GOLDEN = json.loads((ROOT / run.GOLDEN).read_text())
FIXTURE_CELLS = 180  # 4 methods x 3 outcomes x 1 region x 15 indicators


def first_cell(doc, method: str) -> dict:
    matrix = next(m for m in doc["matrices"] if m["method"] == method)
    return next(c for row in matrix["cells"] for c in row if c is not None)


class GeneratorTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.base = gen.fixture_panel()

    def _bytes(self, regions: int, seed: int) -> dict[str, bytes]:
        with tempfile.TemporaryDirectory() as tmp:
            gen.write_inputs(gen.make_replica(self.base, regions, seed), Path(tmp))
            return {p.name: p.read_bytes() for p in Path(tmp).iterdir()}

    def test_same_seed_same_bytes(self):
        self.assertEqual(self._bytes(4, 7), self._bytes(4, 7))

    def test_other_seed_other_bytes(self):
        first, second = self._bytes(4, 7), self._bytes(4, 8)
        for name in first:
            self.assertNotEqual(first[name], second[name], name)

    def test_replica_keeps_the_gap_pattern(self):
        replica = gen.make_replica(self.base, 3, seed=1)
        (source,) = self.base.regions
        for region in replica.regions:
            for code in self.base.indicators + self.base.outcomes:
                gaps = [v is None for v in replica.values[(region, code)]]
                self.assertEqual(gaps, [v is None for v in self.base.values[(source, code)]])

    def test_record_counts(self):
        replica = gen.make_replica(self.base, 5, seed=3)
        with tempfile.TemporaryDirectory() as tmp:
            record = gen.write_inputs(replica, Path(tmp))
            sizes = {p.name: p.stat().st_size for p in Path(tmp).iterdir()}
        self.assertEqual(record["regions"], 5)
        self.assertEqual(record["pairs"], 5 * 3 * 15)
        self.assertEqual(record["input_bytes"], sizes)

    def test_replica_parses_to_the_same_grid(self):
        from paneldep.panel import parse_gbd_long, parse_wdi_wide

        replica = gen.make_replica(self.base, 2, seed=5)
        combined = parse_wdi_wide(gen.wide_csv(replica, with_outcomes=True))
        merged = parse_wdi_wide(gen.wide_csv(replica, with_outcomes=False)).merge(
            parse_gbd_long(gen.long_csv(replica)))
        self.assertEqual(combined.regions, replica.regions)
        self.assertEqual(set(combined.cells), set(merged.cells))
        for key, series in combined.cells.items():
            self.assertEqual(series.present(), merged.cells[key].present())

    def test_fixture_itself_is_the_bundled_fixture(self):
        from paneldep.panel import load_fixture

        self.assertEqual(gen.wide_csv(self.base, with_outcomes=True),
                         load_fixture(with_outcomes=True).to_wdi_csv())


class FakeClock:
    def __init__(self, *readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # root [0, 10] > child [1, 7] > grandchild [2, 5]; root > child [8, 9]
        tracer = spans.Tracer(FakeClock(0, 1, 2, 5, 7, 8, 9, 10))
        root = tracer.begin("root")
        child = tracer.begin("child")
        grand = tracer.begin("grand")
        tracer.end(grand)
        tracer.end(child)
        other = tracer.begin("child")
        tracer.end(other)
        tracer.end(root)
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 1, 0])
        self.assertEqual(spans.self_times(tracer.spans), [10 - 6 - 1, 6 - 3, 3, 1])

        layers = spans.summarize(tracer.spans)
        self.assertEqual(layers.roots_s, 10)
        self.assertEqual(sum(layers.self_s.values()), layers.roots_s)
        self.assertEqual(layers.total_s["child"], 7)
        self.assertEqual(layers.self_s["child"], 4)
        self.assertEqual(layers.calls["child"], 2)

    def test_wrapped_function_ends_its_span_when_it_raises(self):
        tracer = spans.Tracer(FakeClock(0, 1, 2, 3))

        def boom():
            raise ValueError("x")

        outer = tracer.begin("outer")
        with self.assertRaises(ValueError):
            tracer.wrap("boom", boom)()
        tracer.end(outer)
        self.assertEqual(tracer.spans, [["outer", 0, 3, -1], ["boom", 1, 2, 0]])

    def test_snapshot_write_excludes_the_fingerprint_serialization(self):
        docs = [["cli.main", 0.0, 10.0, -1],
                ["panel.to_json", 1.0, 3.0, 0],
                ["panel.fingerprint", 4.0, 8.0, 0],
                ["panel.to_json", 4.5, 7.5, 2]]
        layers = spans.summarize(docs)
        self.assertEqual(layers.snapshot_write_s, 2.0)
        self.assertEqual(layers.total_s["panel.to_json"], 5.0)
        self.assertEqual(layers.self_s["panel.fingerprint"], 1.0)
        self.assertEqual(layers.self_s["cli.main"], 10.0 - 2.0 - 4.0)

    def test_snapshot_write_includes_the_file_write(self):
        docs = [["cli.main", 0.0, 10.0, -1],
                ["panel.to_json", 1.0, 3.0, 0],
                ["panel.snapshot_file", 3.0, 4.5, 0]]
        layers = spans.summarize(docs)
        self.assertEqual(layers.snapshot_write_s, 2.0 + 1.5)
        self.assertEqual(layers.self_s["cli.main"], 10.0 - 2.0 - 1.5)

    def test_lag_counts_include_sweeps_that_fit_no_lag(self):
        class TooShort(Exception):
            pass

        class Sweep:
            results, skipped = (1, 2, 3), (4,)

        def lag_sweep(pair, max_lag):
            if pair == "short":
                raise TooShort
            return Sweep

        tracer = spans.Tracer()
        sweep = spans._counting_sweep(tracer, lag_sweep, TooShort)
        self.assertIs(sweep("long", 5), Sweep)
        with self.assertRaises(TooShort):
            sweep("short", 5)
        self.assertEqual(tracer.counts, {"temporal.lags_fitted": 3,
                                         "temporal.lags_skipped": 1 + 5})

    def test_layers_add_pools_processes(self):
        one = spans.summarize([["a", 0.0, 2.0, -1]], {"k": 1})
        two = spans.summarize([["a", 0.0, 3.0, -1], ["b", 1.0, 2.0, 0]], {"k": 2})
        two.startup_s, two.exit_s = 0.5, 0.25
        pooled = spans.Layers()
        pooled.add(one)
        pooled.add(two)
        self.assertEqual(pooled.total_s, {"a": 5.0, "b": 1.0})
        self.assertEqual(pooled.self_s, {"a": 4.0, "b": 1.0})
        self.assertEqual(pooled.calls, {"a": 2, "b": 1})
        self.assertEqual(pooled.counts, {"k": 3})
        self.assertEqual((pooled.roots_s, pooled.startup_s, pooled.exit_s),
                         (5.0, 0.5, 0.25))


class MetricTest(unittest.TestCase):
    def test_end_to_end_takes_medians_of_scaled_times(self):
        samples = [run.Sample(False, scaled_walls={"ingest": 0.5, "analyze": 0.5},
                              peak_rss_kb=2048),
                   run.Sample(False, scaled_walls={"ingest": 1.0, "analyze": 2.0},
                              peak_rss_kb=1024),
                   run.Sample(False, scaled_walls={"ingest": 4.0}, problems=["exited 1"],
                              peak_rss_kb=1024)]
        record = {"samples": samples, "inputs": {"cells": 30},
                  "setup_s_scaled": [0.2, 0.4, 0.3]}
        self.assertEqual(run.end_to_end(record), {
            "wall_s": 3.0, "cells_per_s": 10.0, "setup_s": 0.3,
            "peak_rss_mb": 1.0, "ok_ratio": 2 / 3})

    def test_metric_names_match_the_benchmark_spec(self):
        spec = run.spec_metrics(ROOT)
        bench = run.Bench(ROOT, "cli-fixture", seed=0, seconds=0)
        record = {"samples": [], "warmup_problems": [], "calib_s": []}
        metrics, _ = run.per_layer(record, bench)
        self.assertEqual(set(metrics), set(spec["per_layer"]))
        record = {"samples": [run.Sample(False, scaled_walls={"analyze": 1.0})],
                  "inputs": {"cells": 1}, "setup_s_scaled": [1.0]}
        self.assertEqual(set(run.end_to_end(record)), set(spec["end_to_end"]))

    def test_a_bundle_wrong_the_same_way_every_time_fails_every_iteration(self):
        doc = copy.deepcopy(GOLDEN)
        first_cell(doc, "mic")["mic"] = 1.2
        with tempfile.TemporaryDirectory() as tmp:
            bench = run.Bench(Path(tmp), "regions-battery", seed=0, seconds=0)
            bench.cells = FIXTURE_CELLS
            out = bench.work / "it" / "out"
            out.mkdir(parents=True)
            (out / "bundle.json").write_text(json.dumps(doc))
            for i in range(len(doc["matrices"])):
                (out / f"m{i}.csv").touch()
                (out / f"m{i}.svg").touch()
            warm = run.Sample(False)
            bench._check_outputs(warm)
            samples = [run.Sample(False, scaled_walls={"analyze": 1.0}) for _ in range(3)]
            for sample in samples:
                bench._check_outputs(sample)
        self.assertEqual(len(warm.problems), 1)
        self.assertEqual([s.problems for s in samples], [warm.problems] * 3)
        record = {"samples": samples, "inputs": {"cells": FIXTURE_CELLS},
                  "setup_s_scaled": [1.0]}
        self.assertEqual(run.end_to_end(record)["ok_ratio"], 0.0)


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.doc = copy.deepcopy(GOLDEN)

    def test_golden_passes_every_check(self):
        self.assertEqual(checks.check_bundle(self.doc, FIXTURE_CELLS, GOLDEN), [])
        self.assertEqual(checks.skip_histogram(self.doc), {"insufficient-data": 18})
        self.assertEqual(checks.computed_cells(self.doc), 162)

    def test_golden_tolerates_last_ulp_drift_only(self):
        cell = first_cell(self.doc, "granger")
        cell["p_value"] *= 1 + 9.1e-16
        self.assertEqual(checks.compare_golden(self.doc, GOLDEN), [])
        cell["p_value"] *= 1 + 1e-9
        self.assertEqual(len(checks.compare_golden(self.doc, GOLDEN)), 1)

    def test_golden_catches_structure_and_strings(self):
        self.doc["metadata"]["dataset_fingerprint"] = "0" * 64
        self.assertTrue(checks.compare_golden(self.doc, GOLDEN))
        doc = copy.deepcopy(GOLDEN)
        doc["matrices"].pop()
        self.assertTrue(checks.compare_golden(doc, GOLDEN))

    def test_ranges_catch_each_method(self):
        for method, field, bad in (("pearson", "r", 1.5), ("pearson", "p_value", -0.1),
                                   ("granger", "p_value", 1.01),
                                   ("mutual_information", "mi", -1e-3),
                                   ("mic", "mic", 1.2), ("mic", "mic", "nan")):
            doc = copy.deepcopy(GOLDEN)
            first_cell(doc, method)[field] = bad
            self.assertEqual(len(checks.check_ranges(doc)), 1, (method, field, bad))
            self.assertTrue(checks.check_bundle(doc, FIXTURE_CELLS))

    def test_grid_catches_a_lost_or_doubled_slot(self):
        matrix = next(m for m in self.doc["matrices"] if m["method"] == "mic")
        j = matrix["skips"][0].index("insufficient-data")
        matrix["skips"][0][j] = None
        self.assertTrue(checks.check_grid(self.doc, FIXTURE_CELLS))
        matrix["skips"][0][j] = "insufficient-data"
        matrix["skips"][0][0] = "degenerate-input"
        self.assertTrue(checks.check_grid(self.doc, FIXTURE_CELLS))

    def test_grid_catches_a_wrong_total(self):
        self.assertEqual(checks.check_grid(self.doc, FIXTURE_CELLS), [])
        self.assertTrue(checks.check_grid(self.doc, FIXTURE_CELLS + 15))
        self.doc["matrices"].pop()
        self.assertTrue(checks.check_grid(self.doc, FIXTURE_CELLS))

    def test_digests_must_repeat(self):
        ref = {"bundle": "a", "snapshot": "b"}
        self.assertEqual(checks.check_digests(dict(ref), ref), [])
        self.assertEqual(len(checks.check_digests({"bundle": "a", "snapshot": "c"}, ref)), 1)

    def test_one_csv_and_svg_per_matrix(self):
        names = ["bundle.json", "a.csv", "a.svg", "b.csv", "b.svg"]
        self.assertEqual(checks.check_file_counts(names, 2), [])
        self.assertEqual(len(checks.check_file_counts(names[:-1], 2)), 1)


if __name__ == "__main__":
    unittest.main()
