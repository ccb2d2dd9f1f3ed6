"""End-to-end and per-layer benchmark of the paneldep CLI.

Run from the root of a source checkout (no install needed)::

    python3 perfbench/run.py --workload regions-battery --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

The load is closed-loop: one client starts one ``paneldep`` process at a
time and waits for it to exit. A run generates its inputs from ``--seed``,
makes one untimed warm-up iteration whose outputs it checks in full, then
repeats the workload's iteration until ``--seconds`` have passed. Every
iteration's outputs must have the warm-up's bytes, and an iteration that
repeats them repeats whatever problems the full checks found in them.

With ``--trace 0`` every iteration is untraced and the end-to-end metrics
are reported. ``wall_s`` is the median over iterations of the wall time of
the iteration's CLI processes, launch to exit; ``setup_s`` the median of
``SETUP_SAMPLES`` fresh-interpreter imports of ``paneldep.cli`` spread over
the run. Both are scaled by host speed (see ``Calibration``); the unscaled
times are in the record. ``peak_rss_mb`` is the median over iterations of
the largest peak RSS among the iteration's processes. ``ok_ratio`` is the
share of iterations whose processes all exited 0 and whose outputs passed
every check; the result's ``failed`` / ``attempted`` is the failed ratio.

With ``--trace 1`` untraced and traced iterations alternate: a traced
iteration runs the CLI under ``spans.py``, and the per-layer metrics are
unscaled medians over the traced iterations.

Metric names and units come from ``BENCHMARK.json``. The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is the full record (environment, inputs, sample counts, bundle sha256).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

GOLDEN = Path("tests/data/bundle_fixture_golden.json")
ALL_METHODS = ("pearson", "mutual_information", "granger", "mic")
SETUP_SAMPLES = 7
#: Every skip tag the battery writes; each gets a battery.skip.<tag> count.
SKIP_TAGS = ("missing-series", "insufficient-overlap", "degenerate-input",
             "non-contiguous-years", "insufficient-data", "singular-design")
PROCESS_TIMEOUT_S = 120
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import paneldep.cli; "
                "print(repr(time.perf_counter() - t))")

#: Reference time of one ``Calibration`` round; see Calibration.
CALIB_REF_S = 0.03


class Calibration:
    """Host speed, from a fixed mix of work that does not use paneldep.

    On a shared 2-vCPU host the same process runs up to 1.5x slower in
    phases that last minutes. The benchmark times one round of this mix
    (pure-Python integer loop, numpy sort of an 8 MB array, dict and list
    work on Python floats) before and after every measured process, and
    scales the measured time by CALIB_REF_S / (mean of the two round
    times): the time as it would read on a host where a round takes
    CALIB_REF_S. The mix slows down with the host, so scaled times drift
    less than the raw ones, which the record keeps. The three parts take
    about equal time.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._array = rng.random(1_000_000)
        self._floats = rng.random(20_000).tolist()

    def _round(self) -> None:
        total = 0
        for i in range(100_000):
            total += i * i
        self._np.sort(self._array)
        sums: dict[int, float] = {}
        for i, x in enumerate(self._floats):
            sums[i % 997] = sums.get(i % 997, 0.0) + x
        sorted(self._floats)

    def measure(self) -> float:
        """Seconds of the faster of two rounds."""
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            self._round()
            best = min(best, time.perf_counter() - start)
        return best


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass(frozen=True)
class Workload:
    regions: int  # 0 means the bundled fixture itself
    methods: tuple[str, ...]
    ingest: bool  # ingest wide + long CSVs to a snapshot before analyze
    golden: bool  # compare the bundle with the fixture golden


WORKLOADS = {
    "cli-fixture": Workload(0, ALL_METHODS, ingest=False, golden=True),
    "regions-battery": Workload(10, ALL_METHODS, ingest=False, golden=False),
    "ingest-screen": Workload(200, ("pearson", "mutual_information"),
                              ingest=True, golden=False),
}


@dataclass
class Sample:
    """One iteration: every process it started, and what its outputs were."""

    traced: bool
    walls: dict[str, float] = field(default_factory=dict)  # per process
    scaled_walls: dict[str, float] = field(default_factory=dict)  # see Calibration
    peak_rss_kb: int = 0
    problems: list[str] = field(default_factory=list)
    layers: spans.Layers = field(default_factory=spans.Layers)
    untraced_targets: set[str] = field(default_factory=set)

    @property
    def wall_s(self) -> float:
        return sum(self.walls.values())

    @property
    def scaled_wall_s(self) -> float:
        return sum(self.scaled_walls.values())


class Bench:
    def __init__(self, root: Path, name: str, seed: int, seconds: float):
        self.root = root
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.work = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.ref_sha: dict[str, str] = {}
        self.ref_doc: dict | None = None
        self.ref_problems: list[str] = []  # what the full checks found in ref_doc
        self.ref_bytes = 0
        self.matrices = 0
        self.cells = 0
        self.host: Calibration | None = None
        self.calib: list[float] = []

    # -- set-up -----------------------------------------------------------

    def setup(self) -> dict:
        """Write the inputs; return the record of what was generated."""
        if self.work.exists():
            shutil.rmtree(self.work)
        base = gen.fixture_panel()
        w = self.workload
        panel = base if w.regions == 0 else gen.make_replica(base, w.regions, self.seed)
        record = gen.write_inputs(panel, self.work / "in")
        record["cells"] = self.cells = record["pairs"] * len(w.methods)
        (self.work / "in" / "config.json").write_text(
            json.dumps({"methods": list(w.methods)}))
        return record

    def _host_scale(self) -> float:
        """Calibrate now; the scale for what ran since the last calibration."""
        self.calib.append(self.host.measure())
        return CALIB_REF_S / ((self.calib[-2] + self.calib[-1]) / 2)

    def import_time(self) -> tuple[float, float]:
        """Seconds a fresh interpreter spends in ``import paneldep.cli``,
        and the host-speed scale for them."""
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=self.env,
                              cwd=self.work, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
        if done.returncode != 0:
            raise HarnessError(f"import paneldep.cli failed:\n{done.stderr}")
        return float(done.stdout), self._host_scale()

    # -- one iteration ----------------------------------------------------

    def _launch(self, sample: Sample, args: list[str], tag: str) -> bool:
        """Run one CLI process to exit; add its wall time and peak RSS."""
        out = self.work / "it"
        if sample.traced:
            span_file = out / f"spans-{tag}.json"
            argv = [sys.executable, str(HERE / "spans.py"), str(span_file), *args]
        else:
            argv = [sys.executable, "-m", "paneldep.cli", *args]
        log = out / f"{tag}.log"
        launcher = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launch.py"), str(log), *argv],
            stdout=subprocess.PIPE, text=True, env=self.env, cwd=self.work,
            start_new_session=True)
        try:
            report, _ = launcher.communicate(timeout=PROCESS_TIMEOUT_S)
        except BaseException:
            os.killpg(launcher.pid, signal.SIGKILL)  # the launcher and the CLI
            launcher.wait()
            raise
        if launcher.returncode != 0:
            raise HarnessError(f"launcher failed with exit code {launcher.returncode}")
        start, end, code, peak_rss_kb = report.split()
        start, end = float(start), float(end)
        sample.walls[tag] = end - start
        sample.scaled_walls[tag] = (end - start) * self._host_scale()
        sample.peak_rss_kb = max(sample.peak_rss_kb, int(peak_rss_kb))
        if code != "0":
            tail = log.read_text(errors="replace")[-400:]
            sample.problems.append(f"{tag} exited {code}: {tail}")
            return False
        if sample.traced:
            doc = json.loads(span_file.read_text())
            layers = spans.Layers(**doc["layers"])
            layers.startup_s = doc["started"] - start
            layers.exit_s = end - doc["finished"]
            sample.layers.add(layers)
            sample.untraced_targets.update(doc["missing"])
        return True

    def iterate(self, traced: bool) -> Sample:
        out = self.work / "it"
        if out.exists():
            shutil.rmtree(out)
        out.mkdir()
        sample = Sample(traced)
        panel = "in/panel.csv"
        if self.workload.ingest:
            panel = "it/panel.json"
            if not self._launch(sample, ["--quiet", "ingest", "--wdi", "in/wide.csv",
                                         "--gbd", "in/long.csv", "--out", panel],
                                "ingest"):
                return sample
        if self._launch(sample, ["--quiet", "analyze", "--panel", panel, "--config",
                                 "in/config.json", "--out", "it/out"], "analyze"):
            self._check_outputs(sample)
        return sample

    def _check_outputs(self, sample: Sample) -> None:
        """Outputs must match the warm-up's bytes, which were fully checked.

        Outputs with the warm-up's bytes have the warm-up's problems, so a
        bundle that is wrong the same way every time fails every iteration.
        """
        out = self.work / "it"
        files = {"bundle": out / "out" / "bundle.json"}
        if self.workload.ingest:
            files["snapshot"] = out / "panel.json"
        digests = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in files.items()}
        if not self.ref_sha:
            self.ref_sha = digests
            bundle = files["bundle"].read_bytes()
            self.ref_bytes = len(bundle)
            self.ref_doc = json.loads(bundle)
            self.matrices = len(self.ref_doc["matrices"])
            golden = None
            if self.workload.golden:
                golden = json.loads((self.root / GOLDEN).read_text())
            self.ref_problems = checks.check_bundle(self.ref_doc, self.cells, golden)
        sample.problems += checks.check_digests(digests, self.ref_sha) or self.ref_problems
        sample.problems += checks.check_file_counts(os.listdir(out / "out"), self.matrices)

    # -- the run ----------------------------------------------------------

    def run(self, trace: bool) -> dict:
        record = {"workload": self.name, "seed": self.seed, "trace": int(trace)}
        record["inputs"] = self.setup()
        samples: list[Sample] = []
        imports: list[tuple[float, float]] = []  # (raw seconds, scale)
        probes = 0 if trace else SETUP_SAMPLES
        try:
            self.host = Calibration()
            self.calib = [self.host.measure()]
            warm = self.iterate(traced=False)
            record["warmup_problems"] = warm.problems
            start = time.perf_counter()
            while (time.perf_counter() < start + self.seconds
                   or len(samples) < (2 if trace else 1)):
                # Import probes are spread over the run, between iterations.
                due = len(imports) * self.seconds / SETUP_SAMPLES
                if (len(imports) < probes and len(imports) <= len(samples)
                        and time.perf_counter() - start >= due):
                    imports.append(self.import_time())
                else:
                    samples.append(self.iterate(traced=trace and len(samples) % 2 == 1))
            while len(imports) < probes:
                imports.append(self.import_time())
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                self.work.parent.rmdir()
            except OSError:
                pass  # another run's directory is still there
        record["bundle_sha256"] = self.ref_sha.get("bundle")
        record["snapshot_sha256"] = self.ref_sha.get("snapshot")
        record["samples"] = samples
        record["import_s"] = [raw for raw, _ in imports]
        record["setup_s_scaled"] = [raw * scale for raw, scale in imports]
        record["calib_s"] = self.calib
        return record


# -- metrics --------------------------------------------------------------

def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(record: dict) -> dict[str, float]:
    """Medians of the host-speed-scaled times; see Calibration."""
    samples = record["samples"]
    failed = sum(bool(s.problems) for s in samples)
    wall = _median([s.scaled_wall_s for s in samples])
    return {
        "wall_s": wall,
        "cells_per_s": record["inputs"]["cells"] / wall,
        "setup_s": _median(record["setup_s_scaled"]),
        "peak_rss_mb": _median([s.peak_rss_kb / 1024 for s in samples]),
        "ok_ratio": (len(samples) - failed) / len(samples),
    }


def layer_metrics(layers: spans.Layers) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, from its spans."""
    t = defaultdict(float, layers.total_s)
    n = defaultdict(int, layers.calls)
    c = defaultdict(int, layers.counts)
    mic_calls = n["info.mic"]
    return {
        "proc.startup_s": layers.startup_s,
        "proc.exit_s": layers.exit_s,
        "cli.import_s": t["cli.import"],
        "cli.self_s": layers.self_s.get("cli.main", 0.0),
        "panel.parse_s": t["panel.parse"],
        "panel.snapshot_write_s": layers.snapshot_write_s,
        "panel.snapshot_read_s": t["panel.snapshot_read"],
        "panel.fingerprint_s": t["panel.fingerprint"],
        "panel.align_s": t["panel.align"],
        "panel.align_calls": n["panel.align"],
        "linear.pearson_s": t["linear.pearson"],
        "linear.pearson_calls": n["linear.pearson"],
        "info.mi_s": t["info.mi"],
        "info.mi_calls": n["info.mi"],
        "info.mic_s": t["info.mic"],
        "info.mic_calls": mic_calls,
        "info.mic_ms_per_call": 1000 * t["info.mic"] / mic_calls if mic_calls else 0.0,
        "temporal.lag_sweep_s": t["temporal.lag_sweep"],
        "temporal.lag_sweep_calls": n["temporal.lag_sweep"],
        "temporal.lags_fitted": c["temporal.lags_fitted"],
        "temporal.lags_skipped": c["temporal.lags_skipped"],
        "battery.run_s": t["battery.run"],
        "battery.self_s": layers.self_s.get("battery.run", 0.0),
        "report.csv_s": t["report.csv"],
        "report.svg_s": t["report.svg"],
        "report.bundle_build_s": t["report.bundle_build"],
        "report.bundle_json_s": t["report.bundle_json"],
    }


def per_layer(record: dict, bench: Bench) -> tuple[dict[str, float], dict]:
    """Medians over traced iterations, plus counts read from the bundle.

    Also returns the self-time breakdown of the traced iteration with the
    median wall time: its self times plus the unattributed remainder add up
    to that iteration's wall time.
    """
    traced = [s for s in record["samples"] if s.traced and not s.problems]
    plain = [s.wall_s for s in record["samples"] if not s.traced]
    per_iteration = []
    for s in traced:
        values = layer_metrics(s.layers)
        values["trace.wall_s"] = s.wall_s
        values["trace.unattributed_s"] = (s.wall_s - s.layers.roots_s
                                          - s.layers.startup_s - s.layers.exit_s)
        per_iteration.append((values, s.layers))
    names = [*layer_metrics(spans.Layers()), "trace.wall_s", "trace.unattributed_s"]
    metrics = {k: _median([v[k] for v, _ in per_iteration]) for k in names}
    metrics["trace.overhead_s"] = metrics.get("trace.wall_s", 0.0) - _median(plain)
    metrics["host.calib_ms"] = 1000 * _median(record["calib_s"])

    doc = bench.ref_doc or {"matrices": []}
    cells = checks.computed_cells(doc)
    skips = checks.skip_histogram(doc)
    metrics["battery.cells"] = cells
    metrics["battery.skips"] = sum(skips.values())
    total = cells + metrics["battery.skips"]
    metrics["battery.useful_ratio"] = cells / total if total else 0.0
    for tag in SKIP_TAGS:
        metrics[f"battery.skip.{tag}"] = skips.get(tag, 0)
    metrics["report.bundle_bytes"] = bench.ref_bytes

    breakdown = {}
    if per_iteration:
        by_wall = sorted(per_iteration, key=lambda p: p[0]["trace.wall_s"])
        values, layers = by_wall[len(by_wall) // 2]
        breakdown = {"proc.startup": layers.startup_s, "proc.exit": layers.exit_s,
                     **layers.self_s}
        breakdown = dict(sorted(breakdown.items(), key=lambda kv: -kv[1]))
        breakdown["(unattributed)"] = values["trace.unattributed_s"]
        breakdown["= wall"] = values["trace.wall_s"]
    unknown = set(skips) - set(SKIP_TAGS)
    if unknown:
        record["warmup_problems"].append(f"unknown skip tags {sorted(unknown)}")
    record["untraced_targets"] = sorted(set().union(*(s.untraced_targets for s in traced)))
    return metrics, breakdown


# -- reporting --------------------------------------------------------------

def environment(root: Path) -> dict:
    def version(module: str) -> str | None:
        try:
            return __import__(module).__version__
        except ImportError:
            return None

    try:
        # The ceiling keeps git from reporting a repository that encloses root.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                text=True, capture_output=True,
                                timeout=30).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "git_commit": commit,
        "platform": platform.platform(),
    }


def spec_metrics(root: Path) -> dict[str, dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]}}


def run_one(root: Path, spec: dict, name: str, seed: int, seconds: float,
            trace: bool) -> dict:
    """Run one workload; print its summary; return its result object."""
    bench = Bench(root, name, seed, seconds)
    record = bench.run(trace)
    samples = record["samples"]
    if trace:
        values, breakdown = per_layer(record, bench)
        wanted = spec["per_layer"]
    else:
        values, breakdown = end_to_end(record), {}
        wanted = spec["end_to_end"]
    if set(values) != set(wanted):
        raise HarnessError(f"metrics {sorted(set(values) ^ set(wanted))} do not "
                           f"match BENCHMARK.json")
    failed = sum(bool(s.problems) for s in samples)
    problems = record["warmup_problems"] + [p for s in samples for p in s.problems]
    correct = not problems
    metrics = {k: {"value": values[k], "unit": wanted[k]["unit"]} for k in wanted}

    print(f"== {name}  seed={seed}  trace={int(trace)}  iterations={len(samples)} "
          f"({sum(s.traced for s in samples)} traced)")
    print(f"   inputs: {json.dumps(record['inputs'], sort_keys=True)}")
    print(f"   bundle sha256: {record['bundle_sha256']}")
    print(f"   failed_ratio: {failed}/{len(samples)} = {failed / len(samples):g}")
    print(f"   unscaled median wall {_median([s.wall_s for s in samples]):.4f} s; "
          f"calibration round {1000 * _median(record['calib_s']):.2f} ms "
          f"(reference {1000 * CALIB_REF_S:g} ms)")
    if record["import_s"]:
        print(f"   unscaled median import {_median(record['import_s']):.4f} s")
    for k, m in metrics.items():
        print(f"   {k:36s} {m['value']:14.6g} {m['unit']}")
    if breakdown:
        print("   self time by span, median traced iteration:")
        for k, v in breakdown.items():
            print(f"     {k:34s} {v:10.4f} s")
    for target in record.get("untraced_targets", []):
        print(f"   WARNING: {target} not found; its layer reads 0")
    for p in problems[:10]:
        print(f"   PROBLEM: {p}")
    full = {k: v for k, v in record.items() if k != "samples"}
    full["walls"] = [s.walls for s in samples]
    full["scaled_walls"] = [s.scaled_walls for s in samples]
    full["wall_raw_median_s"] = _median([s.wall_s for s in samples])
    full["sample_counts"] = {"iterations": len(samples),
                             "traced": sum(s.traced for s in samples),
                             "import": len(record.get("import_s", []))}
    full["metrics"] = values
    full["env"] = environment(root)
    print(json.dumps({"record": full}, sort_keys=True, default=str))
    return {"correct": correct, "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="ignored with --workload all, which runs both")
    args = parser.parse_args(argv)

    # A terminated run still kills its child and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    try:
        if not (root / "src" / "paneldep" / "__init__.py").is_file():
            raise HarnessError(f"{root} is not a paneldep checkout (no src/paneldep)")
        if not (root / GOLDEN).is_file():
            raise HarnessError(f"missing {GOLDEN}")
        spec = spec_metrics(root)
        sys.path.insert(0, str(root / "src"))
        if args.workload != "all":
            result = run_one(root, spec, args.workload, args.seed, args.seconds,
                             bool(args.trace))
        else:
            results = {(n, t): run_one(root, spec, n, args.seed, args.seconds, t)
                       for n in WORKLOADS for t in (False, True)}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{n}.{k}": m for (n, _), r in results.items()
                            for k, m in r["metrics"].items()},
            }
    except (HarnessError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
