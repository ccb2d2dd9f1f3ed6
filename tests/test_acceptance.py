"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s or -rA to see
them); a failure reads as the criterion number plus the violated bound.
"""

import json
import math
import time
import xml.etree.ElementTree as ET

import numpy as np

from paneldep.burden import LifeTable, compute_daly, compute_yll
from paneldep.cli import main as cli_main
from paneldep.info import mic, mutual_information, JointHistogram
from paneldep.linear import pearson, t_sf
from paneldep.panel import align_pair, load_fixture
from paneldep.special import f_sf
from paneldep.temporal import granger_test, lag_sweep

from conftest import DATA, json_differences, make_pair
from oracles import brute_force_mic


def _passed(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num} ({label}): PASS")


def extended_precision_r(x, y) -> float:
    x = np.asarray(x, dtype=np.longdouble)
    y = np.asarray(y, dtype=np.longdouble)
    mx, my = x.mean(), y.mean()
    num = ((x - mx) * (y - my)).sum()
    den = np.sqrt(((x - mx) ** 2).sum() * ((y - my) ** 2).sum())
    return float(num / den)


def test_c1_fixture_golden_suite(pearson_golden):
    start = time.perf_counter()
    ds = load_fixture()
    assert len(ds.indicators) == 15
    years = tuple(range(1991, 2024))
    for code in ds.codes():
        assert ds.series("global", code).years == years

    ed4 = ds.series("global", "ED4").present()
    assert set(range(1991, 1999)).isdisjoint(ed4) and 2023 not in ed4
    assert min(ed4) == 1999
    for code in ("T1", "T3"):
        assert min(ds.series("global", code).present()) == 2005
    t4 = ds.series("global", "T4").present()
    assert min(t4) == 2010 and t4[2010] == 185.2
    s3 = ds.series("global", "S3").present()
    assert min(s3) == 2001 and s3[2001] == 13.0
    t5 = ds.series("global", "T5").present()
    assert (min(t5), max(t5)) == (2000, 2022)

    codes = pearson_golden["codes"]
    assert codes == list(ds.codes())
    computed = {}
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            if i == j:
                computed[(i, j)] = 1.0
                continue
            pair = align_pair(ds.series("global", a), ds.series("global", b),
                              min_overlap=3)
            assert pair.n == pearson_golden["n"][i][j]
            computed[(i, j)] = pearson(pair).r
    for i in range(15):
        assert computed[(i, i)] == 1.0
        for j in range(15):
            assert computed[(i, j)] == computed[(j, i)]
            assert abs(computed[(i, j)] - pearson_golden["r"][i][j]) < 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"fixture suite took {elapsed:.2f}s"
    _passed(1, "fixture golden suite")


def test_c2_pearson_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    for trial in range(1000):
        n = int(rng.integers(5, 501))
        scale = float(rng.uniform(0.5, 1000.0))
        x = rng.normal(size=n) * scale
        y = rng.normal(size=n) + float(rng.uniform(-1, 1)) * x
        pair = make_pair(x, y)
        r = pearson(pair).r
        assert abs(r - extended_precision_r(x, y)) < 1e-10, trial
        # symmetry is exact
        assert pearson(make_pair(y, x)).r == r
    # affine invariance within 1e-12
    for trial in range(200):
        n = int(rng.integers(5, 200))
        x, y = rng.normal(size=n), rng.normal(size=n)
        a = float(rng.choice([-3.5, -1.0, 0.25, 2.0, 7.5]))
        b = float(rng.uniform(-100, 100))
        base = pearson(make_pair(x, y)).r
        transformed = pearson(make_pair(a * x + b, y)).r
        assert abs(transformed - math.copysign(1.0, a) * base) < 1e-12
    # self correlation
    for trial in range(50):
        x = rng.normal(size=int(rng.integers(5, 300)))
        assert abs(pearson(make_pair(x, x)).r - 1.0) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle suite took {elapsed:.2f}s"
    _passed(2, "pearson oracle equivalence")


def test_c3_mutual_information_exactness():
    assert JointHistogram(np.array([[25, 25], [25, 25]]), 100).mi_bits() < 1e-12
    one_bit = JointHistogram(np.array([[50, 0], [0, 50]]), 100).mi_bits()
    assert abs(one_bit - 1.0) < 1e-12
    two_bits = JointHistogram(np.diag([25] * 4), 100).mi_bits()
    assert abs(two_bits - 2.0) < 1e-12

    rng = np.random.default_rng(30)
    for _ in range(1000):
        n = int(rng.integers(16, 400))
        bins = int(rng.integers(2, 9))
        strategy = ("equal-width", "equal-frequency")[int(rng.integers(2))]
        x = rng.normal(size=n)
        y = rng.normal(size=n) + float(rng.uniform(-1, 1)) * x
        result = mutual_information(make_pair(x, y), bins, strategy)
        assert result.mi >= 0.0
        assert result.mi <= math.log2(min(result.bins_x, result.bins_y)) + 1e-9
    _passed(3, "mutual information exactness")


def test_c4_mic_functional_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(40)

    x = rng.normal(size=200)
    assert mic(make_pair(x, x)).mic >= 0.99

    x = np.linspace(-1.0, 1.0, 200)
    parabola = make_pair(x, x * x)
    assert mic(parabola).mic >= 0.9
    assert abs(pearson(parabola).r) < 0.1

    null_values = []
    for seed in range(500):
        r = np.random.default_rng(seed)
        xs = r.normal(size=200)
        ys = r.permutation(r.normal(size=200))
        null_values.append(mic(make_pair(xs, ys)).mic)
    assert float(np.median(null_values)) < 0.25

    for n in (25, 30, 36, 40):
        xs = rng.normal(size=n)
        ys = 0.5 * xs + rng.normal(size=n)
        fast = mic(make_pair(xs, ys), clumps=64).mic
        slow = brute_force_mic(xs, ys)
        assert abs(fast - slow) < 1e-9, n

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"mic suite took {elapsed:.1f}s"
    _passed(4, "mic functional suite")


def _planted_system(seed, n=200, beta=0.5, lag=2, rho=0.8, sigma=0.1):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    eps = rng.normal(scale=sigma, size=n)
    y = np.zeros(n)
    for t in range(1, n):
        drive = beta * x[t - lag] if t >= lag else 0.0
        y[t] = rho * y[t - 1] + drive + eps[t]
    return make_pair(x, y)


def test_c5_granger_calibration_and_power():
    rejections = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        pair = make_pair(rng.normal(size=200), rng.normal(size=200))
        rejections += granger_test(pair, lag=1).p_value < 0.05
    assert 0.03 <= rejections / 1000 <= 0.07, rejections

    forward = reverse = best_lag_two = 0
    for seed in range(100):
        pair = _planted_system(seed)
        forward += granger_test(pair, lag=2).p_value < 0.01
        reverse += granger_test(pair.swapped(), lag=2).p_value > 0.05
        best_lag_two += lag_sweep(pair, max_lag=5).best.lag == 2
    assert forward >= 95, forward
    assert reverse >= 85, reverse
    assert best_lag_two >= 90, best_lag_two
    _passed(5, "granger calibration and power")


def test_c6_special_functions(tail_golden):
    points = tail_golden["t"] + tail_golden["f"]
    assert len(points) == 50
    for point in tail_golden["t"]:
        assert abs(t_sf(point["t"], point["dof"]) - point["sf"]) < 1e-9
    for point in tail_golden["f"]:
        assert abs(f_sf(point["f"], point["d1"], point["d2"]) - point["sf"]) < 1e-9
    # closed forms at one degree of freedom are exact
    assert t_sf(0.0, 1) == 0.5
    assert t_sf(1.0, 1) == 0.25
    assert f_sf(0.0, 1, 1) == 1.0
    assert f_sf(1.0, 1, 1) == 0.5
    _passed(6, "special functions vs quadrature oracle")


def test_c7_burden_property_suite():
    rng = np.random.default_rng(70)
    bands = [f"band{i}" for i in range(6)]
    for _ in range(500):
        k = int(rng.integers(1, 7))
        chosen = bands[:k]
        deaths = {b: float(rng.uniform(0, 1e5)) for b in chosen}
        expectancy = LifeTable({b: float(rng.uniform(0, 90)) for b in chosen})
        yll = compute_yll(deaths, expectancy)
        # additivity over a partition of the bands
        parts = sum(compute_yll({b: d}, expectancy) for b, d in deaths.items())
        assert parts == yll
        # monotonicity
        bumped = dict(deaths)
        bump_band = chosen[int(rng.integers(k))]
        bumped[bump_band] += float(rng.uniform(0, 1e4))
        assert compute_yll(bumped, expectancy) >= yll
        # exact power-of-two scaling
        doubled = compute_yll({b: 2.0 * d for b, d in deaths.items()}, expectancy)
        assert doubled == 2.0 * yll
        # combined burden is exactly the sum of its parts
        yld = float(rng.uniform(0, 1e6))
        summary = compute_daly(yll, yld)
        assert summary.daly == summary.yll + summary.yld
        assert (summary.yll, summary.yld) == (yll, yld)
    _passed(7, "burden formula properties")


def _golden_mismatch(bundle: bytes, golden: bytes) -> str:
    diffs = list(json_differences(json.loads(bundle), json.loads(golden)))
    if not diffs:
        return "bundle.json parses equal to the golden; only its formatting differs"
    return "bundle.json differs from the golden at:\n" + "\n".join(diffs)


def test_c8_end_to_end_determinism(tmp_path, monkeypatch, capsys):
    start = time.perf_counter()
    monkeypatch.chdir(tmp_path)
    assert cli_main(["fixture", "--with-outcomes", "--out", "panel.csv"]) == 0
    (tmp_path / "config.json").write_text(json.dumps({
        "methods": ["pearson", "mutual_information", "granger", "mic"],
    }))
    for out in ("run1", "run2"):
        code = cli_main(["--quiet", "analyze", "--panel", "panel.csv",
                         "--config", "config.json", "--out", out])
        assert code == 0

    bundle1 = (tmp_path / "run1" / "bundle.json").read_bytes()
    bundle2 = (tmp_path / "run2" / "bundle.json").read_bytes()
    assert bundle1 == bundle2

    golden = (DATA / "bundle_fixture_golden.json").read_bytes()
    assert bundle1 == golden, _golden_mismatch(bundle1, golden)

    doc = json.loads(bundle1)
    matrices = doc["matrices"]
    assert len(matrices) == 12  # 4 methods x 3 synthetic outcome variants
    all_ages = [m for m in matrices if m["age_group"] == "all"]
    assert sorted(m["method"] for m in all_ages) == [
        "granger", "mic", "mutual_information", "pearson",
    ]
    for m in matrices:
        assert len(m["regions"]) == 1
        assert len(m["indicators"]) == 15
        cells = sum(c is not None for row in m["cells"] for c in row)
        skips = sum(s is not None for row in m["skips"] for s in row)
        assert cells + skips == 15

    svg_files = sorted((tmp_path / "run1").glob("*.svg"))
    assert len(svg_files) == 12
    for svg in svg_files:
        ET.fromstring(svg.read_text())

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"end-to-end took {elapsed:.1f}s"
    _passed(8, "end-to-end determinism")
