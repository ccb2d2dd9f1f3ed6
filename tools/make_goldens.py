"""Compute and freeze golden expected values for the test suite.

Three independent oracles, all deliberately avoiding the code paths the
package itself uses:

* Pairwise correlation over the bundled fixture, evaluated term by term
  from the definitional formula in 50-digit arithmetic (mpmath), over
  pairwise-complete years.
* Granger fits over the bundled fixture: for every ordered pair of
  indicators and every lag 1-5 the sample allows, both nested
  autoregressions solved by least squares through the normal equations
  (not the package's orthogonal factorization), kept only when 50- and
  80-digit solutions agree to 1e-30. Inputs are the doubles the package
  reads from the CSV, so the golden measures solver error alone.
* Upper-tail probabilities of the t and F distributions from mpmath's
  regularized incomplete beta (a hypergeometric series, not the package's
  continued fraction), kept only when 50- and 80-digit evaluations agree
  to 1e-40: a 50-point grid of moderate statistics, and a dense grid over
  the degrees of freedom the battery uses, down to p ~ 1e-100.

Outputs land in tests/data/ and are committed; the tests never recompute
them.
"""

import json
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "src" / "paneldep" / "data" / "table_wdi.csv"
OUTDIR = ROOT / "tests" / "data"


def load_fixture(parse=mp.mpf):
    lines = FIXTURE.read_text().strip().splitlines()
    years = [int(y) for y in lines[0].split(",")[2:]]
    series = {}
    for line in lines[1:]:
        parts = line.split(",")
        vals = {}
        for year, cell in zip(years, parts[2:]):
            if cell != "-":
                vals[year] = parse(cell)
        series[parts[0]] = vals
    return series


def definitional_r(xs, ys):
    n = len(xs)
    xbar = mp.fsum(xs) / n
    ybar = mp.fsum(ys) / n
    num = mp.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    dx = mp.fsum((x - xbar) ** 2 for x in xs)
    dy = mp.fsum((y - ybar) ** 2 for y in ys)
    return num / mp.sqrt(dx * dy)


def pearson_matrix():
    series = load_fixture()
    codes = list(series)
    r = [[None] * len(codes) for _ in codes]
    n = [[0] * len(codes) for _ in codes]
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            common = sorted(set(series[a]) & set(series[b]))
            n[i][j] = len(common)
            if i == j:
                r[i][j] = 1.0
                continue
            xs = [series[a][y] for y in common]
            ys = [series[b][y] for y in common]
            r[i][j] = float(definitional_r(xs, ys))
    return {"codes": codes, "n": n, "r": r}


#: Lags the Granger oracle tries, as the battery's default max_lag does.
GRANGER_LAGS = range(1, 6)


def lstsq_rss(rows, response):
    """Residual sum of squares of least squares on the normal equations."""
    X = mp.matrix(rows)
    y = mp.matrix(response)
    beta = mp.lu_solve(X.T * X, X.T * y)
    resid = y - X * beta
    return mp.fsum(r * r for r in resid)


def stable_rss(rows, response):
    with mp.workdps(50):
        low = lstsq_rss(rows, response)
    with mp.workdps(80):
        high = lstsq_rss(rows, response)
    assert abs(low - high) <= mp.mpf("1e-30") * high
    return high


def granger_fixture():
    """Both nested Granger fits for every ordered indicator pair and lag."""
    series = load_fixture(parse=lambda cell: mp.mpf(float(cell)))
    fits = []
    for a in series:
        for b in series:
            if a == b:
                continue
            common = sorted(set(series[a]) & set(series[b]))
            assert common == list(range(common[0], common[-1] + 1))
            xs = [series[a][y] for y in common]
            ys = [series[b][y] for y in common]
            n = len(common)
            for lag in GRANGER_LAGS:
                n_eff = n - lag
                dof = n_eff - (1 + 2 * lag)
                if dof < 1:
                    continue
                restricted, full = [], []
                for t in range(lag, n):
                    own = [ys[t - j] for j in range(1, lag + 1)]
                    other = [xs[t - j] for j in range(1, lag + 1)]
                    restricted.append([mp.mpf(1)] + own)
                    full.append([mp.mpf(1)] + own + other)
                rss_r = stable_rss(restricted, ys[lag:])
                rss_ur = stable_rss(full, ys[lag:])
                f = ((rss_r - rss_ur) / lag) / (rss_ur / dof)
                fits.append({"x": a, "y": b, "lag": lag, "n_eff": n_eff,
                             "rss_restricted": float(rss_r),
                             "rss_unrestricted": float(rss_ur),
                             "f_stat": float(f)})
    return {"fits": fits}


def tail_grid():
    t_stats = [0.0, 0.5, 1.0, 2.0, 2.5, 3.5, 5.0]
    t_dofs = [1, 2, 5, 10]
    t_points = [
        {"t": t, "dof": d, "sf": float(t_tail_beta(t, d))}
        for t in t_stats
        for d in t_dofs
    ]
    f_combos = [(1, 1), (1, 40), (2, 10), (5, 5)]
    f_stats = [0.05, 0.5, 1.0, 2.5, 3.89]
    f_points = [
        {"f": f, "d1": d1, "d2": d2, "sf": float(f_tail_beta(f, d1, d2))}
        for f in f_stats
        for d1, d2 in f_combos
    ]
    f_points += [
        {"f": f, "d1": d1, "d2": d2, "sf": float(f_tail_beta(f, d1, d2))}
        for f, d1, d2 in ((20.0, 1, 40), (7.7, 3, 30))
    ]
    assert len(t_points) + len(f_points) == 50
    return {"t": t_points, "f": f_points}


#: Target upper-tail probabilities of the dense grid; each is met by a
#: statistic rounded to 4 significant digits, whose exact tail is stored.
DENSE_T_TARGETS = [0.45, 0.25, 0.1, 0.05, 1e-2, 1e-3, 1e-5, 1e-8, 1e-12,
                   1e-16, 1e-25, 1e-40, 1e-60, 1e-80, 1e-100]
DENSE_T_DOFS = [2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 20, 25, 30, 40, 50, 60, 80,
                100, 125, 150, 200, 250, 300, 350, 400]
DENSE_F_TARGETS = [0.95, 0.5, 0.1, 1e-2, 1e-4, 1e-8, 1e-16, 1e-30, 1e-60,
                   1e-100]
DENSE_F_D1 = [1, 2, 3, 4, 5]
DENSE_F_D2 = [3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 30, 40, 50, 75, 100, 150,
              200, 300, 400]


def beta_tail(a, b, x):
    """I_x(a, b), checked for stability at two working precisions."""
    with mp.workdps(50):
        low = mp.betainc(a, b, 0, x, regularized=True)
    with mp.workdps(80):
        high = mp.betainc(a, b, 0, x, regularized=True)
    assert abs(low - high) <= mp.mpf("1e-40") * high, (a, b, x)
    return high


def t_tail_beta(t, dof):
    t, dof = mp.mpf(t), mp.mpf(dof)
    return beta_tail(dof / 2, mp.mpf(1) / 2, dof / (dof + t * t)) / 2


def f_tail_beta(f, d1, d2):
    f, d1, d2 = mp.mpf(f), mp.mpf(d1), mp.mpf(d2)
    return beta_tail(d2 / 2, d1 / 2, d2 / (d2 + d1 * f))


def solve_statistic(tail, target):
    """Statistic, rounded to 4 significant digits, whose tail is ~target."""
    lo, hi = -4.0, 60.0  # log10 of the statistic; tail falls as it grows
    for _ in range(40):
        mid = (lo + hi) / 2
        if tail(10.0 ** mid) > target:
            lo = mid
        else:
            hi = mid
    return float(f"{10.0 ** lo:.4g}")


def dense_tail_grid():
    t_points = []
    for dof in DENSE_T_DOFS:
        for target in DENSE_T_TARGETS:
            t = solve_statistic(lambda s: t_tail_beta(s, dof), target)
            t_points.append({"t": t, "dof": dof, "sf": float(t_tail_beta(t, dof))})
    f_points = []
    for d1 in DENSE_F_D1:
        for d2 in DENSE_F_D2:
            for target in DENSE_F_TARGETS:
                f = solve_statistic(lambda s: f_tail_beta(s, d1, d2), target)
                f_points.append({"f": f, "d1": d1, "d2": d2,
                                 "sf": float(f_tail_beta(f, d1, d2))})
    return {"t": t_points, "f": f_points}


def main():
    OUTDIR.mkdir(parents=True, exist_ok=True)
    mat = pearson_matrix()
    (OUTDIR / "pearson_fixture_golden.json").write_text(
        json.dumps(mat, indent=1) + "\n"
    )
    i, j = mat["codes"].index("E2"), mat["codes"].index("S1")
    print(f"r(E2, S1) n={mat['n'][i][j]}: {mat['r'][i][j]!r}")

    grid = tail_grid()
    (OUTDIR / "tail_probability_golden.json").write_text(
        json.dumps(grid, indent=1) + "\n"
    )
    for p in grid["t"]:
        if p["t"] == 2.5 and p["dof"] == 10:
            print("t_sf(2.5, 10) =", repr(p["sf"]))
    for p in grid["f"]:
        if p["f"] == 3.89 and p["d1"] == 1 and p["d2"] == 40:
            print("f_sf(3.89, 1, 40) =", repr(p["sf"]))

    granger = granger_fixture()
    (OUTDIR / "granger_fixture_golden.json").write_text(
        json.dumps(granger, indent=1) + "\n"
    )
    print(f"granger: {len(granger['fits'])} lag fits")

    dense = dense_tail_grid()
    (OUTDIR / "tail_probability_dense_golden.json").write_text(
        json.dumps(dense, indent=1) + "\n"
    )
    print(f"dense grid: {len(dense['t'])} t points, {len(dense['f'])} F points")


if __name__ == "__main__":
    main()
