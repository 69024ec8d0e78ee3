"""Acceptance suite: the package's headline guarantees, one test per
guarantee, each with its stated tolerance and wall-clock budget.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
guarantee.
"""

import csv
import math
import time

import numpy as np
from scipy.stats import nbinom

from firemarg.burnt_area import GpdParams, fit_gpd, fit_mixture, sample_gpd
from firemarg.cli import main as cli_main
from firemarg.counts import ZinbParams, fit_zinb, sample_zinb, zinb_cdf, zinb_pmf
from firemarg.dependence import chi_u, chibar_u, kendall_tau
from firemarg.geo import EARTH_RADIUS_KM, haversine_km, zone_area_km2
from firemarg.neighborhoods import NeighborhoodSpec, build_neighborhood
from firemarg.pipeline import (
    benchmark_tables,
    predict_tables,
    score_tables,
    write_tuning_csv,
)
from firemarg.rules import apply_overrides, deduce_from_pair, resolve_forced
from firemarg.scoring import ScoreConfig, expected_score
from firemarg.synth import SyntheticSpec, generate, radius_recovery_preset
from firemarg.tuning import TuningGrid, select_parameters


def test_c01_geodesy():
    """Global tiling sums to the sphere area within 1e-9 relative, and
    the spatial index equals brute-force distance filtering on 1,000
    random queries over a 30x30 grid."""
    t0 = time.monotonic()
    lats = np.arange(-89.5, 90.0, 1.0)
    total = 360.0 * sum(zone_area_km2(0.0, float(lat), 1.0, 1.0) for lat in lats)
    sphere = 4.0 * math.pi * EARTH_RADIUS_KM ** 2
    assert abs(total - sphere) / sphere < 1e-9

    spec = SyntheticSpec(nx=30, ny=30, months=(6, 7), years=(2000, 2001),
                         cnt_missing_rate=0.0, ba_missing_rate=0.0)
    ds, _ = generate(spec, seed=101)
    rng = np.random.default_rng(7)
    centers = rng.integers(0, ds.n, size=1000)
    radii = rng.uniform(20.0, 600.0, size=1000)
    for c, r in zip(centers, radii):
        got = build_neighborhood(ds, int(c), NeighborhoodSpec(radius_km=float(r))).members
        same = (ds.month == ds.month[c]) & (ds.year == ds.year[c])
        dist = haversine_km(ds.lon[c], ds.lat[c], ds.lon, ds.lat)
        np.testing.assert_array_equal(got, np.flatnonzero(same & (dist <= r)))
    assert time.monotonic() - t0 < 10.0


def test_c02_distribution_correctness():
    """Count pmf sums to 1 within 1e-10; the burnt-area mixture's bulk
    and tail branches agree at the threshold within 1e-9 over 1,000
    random fits; CDF rows are monotone in [0, 1]."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    for _ in range(200):
        params = ZinbParams(pi=float(rng.uniform(0.0, 0.9)),
                            mu=float(rng.uniform(0.1, 40.0)),
                            r=float(rng.uniform(0.05, 20.0)))
        p = params.r / (params.r + params.mu)
        top = int(nbinom.ppf(1.0 - 1e-13, params.r, p)) + 10
        total = zinb_pmf(params, np.arange(top + 1)).sum()
        assert abs(total - 1.0) < 1e-10
        row = zinb_cdf(params, np.arange(30.0))
        assert np.all(np.diff(row) >= 0.0)
        assert row[0] >= 0.0 and row[-1] <= 1.0

    fitted = 0
    grid = np.linspace(0.0, 1.0, 40)
    for k in range(1000):
        drng = np.random.default_rng(1000 + k)
        n = int(drng.integers(150, 400))
        zeros = drng.random(n) < drng.uniform(0.05, 0.4)
        vals = np.where(zeros, 0.0, np.minimum(drng.lognormal(-4.0, 1.2, n), 1.0))
        mix = fit_mixture(vals, k2=float(drng.uniform(0.5, 0.85)))
        row = mix.cdf(grid)
        assert np.all(np.diff(row) >= -1e-12)
        assert row.min() >= 0.0 and row.max() <= 1.0
        if mix.kind != "mixture":
            continue
        fitted += 1
        at_u = mix.cdf(mix.u)
        assert abs(at_u - (1.0 - mix.lam)) < 1e-9
        assert abs(mix.cdf(np.nextafter(mix.u, 1.0)) - at_u) < 1e-9
    assert fitted >= 700
    assert time.monotonic() - t0 < 5.0


def test_c03_estimator_consistency():
    """Count MLE recovers (0.3, 4, 2) within (0.05, 0.3, 0.4) and tail
    MLE recovers (1, 0.2) within 0.1 each, in >= 95/100 replicates."""
    t0 = time.monotonic()
    truth = ZinbParams(0.3, 4.0, 2.0)
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(300 + seed)
        model = fit_zinb(sample_zinb(truth, int(rng.integers(2000, 5001)), rng))
        assert model.kind == "zinb"
        est = model.params
        hits += (abs(est.pi - 0.3) <= 0.05 and abs(est.mu - 4.0) <= 0.3
                 and abs(est.r - 2.0) <= 0.4)
    assert hits >= 95

    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(400 + seed)
        sample = sample_gpd(GpdParams(1.0, 0.2), int(rng.integers(2000, 5001)), rng)
        fit = fit_gpd(sample, threshold=0.0)
        hits += abs(fit.sigma - 1.0) <= 0.1 and abs(fit.xi - 0.2) <= 0.1
    assert hits >= 95
    assert time.monotonic() - t0 < 60.0


def test_c04_score_propriety():
    """On exhaustively enumerated 3-point truths, the expected score over
    a 0.05-step forecast grid is minimized by the true CDF, for 20
    random weight vectors."""
    t0 = time.monotonic()
    support = np.array([0.0, 1.0, 2.0])
    levels = np.round(np.arange(21) * 0.05, 2)
    rows = np.array([(a, b, c) for a in levels for b in levels for c in levels
                     if a <= b <= c])
    rng = np.random.default_rng(4)
    for _ in range(20):
        config = ScoreConfig(support, rng.uniform(0.1, 2.0, size=3))
        cuts = np.sort(rng.integers(0, 21, size=2))
        probs = np.array([cuts[0], cuts[1] - cuts[0], 20 - cuts[1]]) / 20.0
        scores = np.array([expected_score(row, support, probs, config)
                           for row in rows])
        best = int(np.argmin(scores))
        np.testing.assert_allclose(rows[best], np.cumsum(probs), atol=1e-12)
        others = scores[np.arange(rows.shape[0]) != best]
        assert np.all(others > scores[best])
    assert time.monotonic() - t0 < 10.0


def test_c05_cv_recovers_planted_radius():
    """On scenes with a planted 150 km shared-marginal radius, the CV
    grid search returns 150 +- 25 km in >= 80/100 seeded replicates."""
    t0 = time.monotonic()
    spec = radius_recovery_preset()
    bap_grid = TuningGrid(radii=(150.0,), quantiles=(0.5,))
    hits = 0
    for seed in range(100):
        ds, _ = generate(spec, seed)
        result = select_parameters(ds, TuningGrid(), bap_grid)
        hits += 125.0 <= result.cnt_radius <= 175.0
    assert hits >= 80
    assert time.monotonic() - t0 < 300.0


def test_c06_model_beats_pooled_benchmark():
    """The model pipeline's total score lands strictly below the pooled
    empirical benchmark in >= 95/100 seeded replicates."""
    t0 = time.monotonic()
    spec = SyntheticSpec(nx=14, ny=14, cnt_missing_rate=0.12,
                         ba_missing_rate=0.12,
                         cnt_regimes=(ZinbParams(0.1, 1.0, 2.0),
                                      ZinbParams(0.05, 12.0, 1.0)),
                         ba_regimes=((-5.0, 0.7), (-2.0, 1.0)))
    hood = NeighborhoodSpec(radius_km=150.0)
    wins = 0
    for seed in range(100):
        ds, truth = generate(spec, seed)
        cnt_truth = {int(i): float(truth.cnt_full[i]) for i in ds.cnt_missing}
        ba_truth = {int(i): float(truth.ba_full[i]) for i in ds.ba_missing}
        ours = predict_tables(ds, hood, hood, k2=0.8, workers=1)
        base = benchmark_tables(ds)
        ours_total = score_tables(ours.cnt, ours.ba, cnt_truth, ba_truth).total
        base_total = score_tables(base.cnt, base.ba, cnt_truth, ba_truth).total
        wins += ours_total < base_total
        if seed == 0:
            for table in (ours.cnt, ours.ba, base.cnt, base.ba):
                assert np.all(np.diff(table.rows, axis=1) >= -1e-9)
                assert table.rows.min() >= 0.0 and table.rows.max() <= 1.0
    assert wins >= 95
    assert time.monotonic() - t0 < 300.0


def test_c07_spatial_variant_beats_temporal_under_drift(tmp_path):
    """With year-drifting marginals, the spatial variant's tuned score
    stays at or below the temporal variant's for every year half-width
    in 1..6, and each grid search emits its score table as CSV."""
    t0 = time.monotonic()
    spec = SyntheticSpec(nx=12, ny=12, years=tuple(range(2000, 2009)),
                         year_drift=0.12, cnt_missing_rate=0.12,
                         ba_missing_rate=0.12)
    ds, _ = generate(spec, seed=70)
    radii = (50.0, 100.0, 150.0, 200.0, 250.0)
    quantiles = (0.5, 0.75, 0.9)

    def tuned_total(variant, ky):
        base = NeighborhoodSpec(variant=variant, year_half_width=ky)
        result = select_parameters(ds, TuningGrid(radii=radii),
                                   TuningGrid(radii=radii, quantiles=quantiles),
                                   base_spec=base)
        write_tuning_csv(result, str(tmp_path / f"tuning_{variant}_{ky}.csv"))
        return (min(s for _, s in result.cnt_scores)
                + min(s for *_, s in result.bap_scores))

    spatial = tuned_total("spatial", 0)
    for ky in range(1, 7):
        assert spatial <= tuned_total("temporal", ky)

    with open(tmp_path / "tuning_temporal_6.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["variable", "radius_km", "quantile", "score"]
    assert len(table) == 1 + len(radii) + len(radii) * len(quantiles)
    assert time.monotonic() - t0 < 600.0


def test_c08_pair_deduction_lowers_the_score():
    """Applying the paired-zero deduction on scenes with 40% mask
    overlap strictly lowers the total score in >= 95/100 replicates."""
    t0 = time.monotonic()
    spec = SyntheticSpec(nx=12, ny=12, cnt_missing_rate=0.15,
                         ba_missing_rate=0.15, mask_overlap=0.4)
    hood = NeighborhoodSpec(radius_km=150.0)
    wins = 0
    for seed in range(100):
        ds, truth = generate(spec, seed)
        cnt_truth = {int(i): float(truth.cnt_full[i]) for i in ds.cnt_missing}
        ba_truth = {int(i): float(truth.ba_full[i]) for i in ds.ba_missing}
        off = predict_tables(ds, hood, hood, k2=0.8, pair_rule=False,
                             water_rule=False, workers=1)
        forced = resolve_forced(ds, pair=deduce_from_pair(ds))
        assert any(r.all_one.any() or r.zero_at_zero.any() for r in forced.values())
        score_off = score_tables(off.cnt, off.ba, cnt_truth, ba_truth).total
        score_on = score_tables(apply_overrides(off.cnt, forced),
                                apply_overrides(off.ba, forced),
                                cnt_truth, ba_truth).total
        wins += score_on < score_off
    assert wins >= 95
    assert time.monotonic() - t0 < 120.0


def test_c09_dependence_analytics():
    """Upper-tail concurrence on independent pairs matches 1-u within 3
    Monte Carlo standard errors; identical vectors give exact units."""
    t0 = time.monotonic()
    rng = np.random.default_rng(9)
    n = 60000
    x, y = rng.normal(size=n), rng.normal(size=n)
    for u in (0.9, 0.95):
        se = math.sqrt(u * (1.0 - u) / (n * (1.0 - u)))
        assert abs(chi_u(x, y, u) - (1.0 - u)) <= 3.0 * se
    z = rng.normal(size=500)
    assert kendall_tau(z, z) == 1.0
    assert chibar_u(z, z, 0.9) == 1.0
    assert time.monotonic() - t0 < 10.0


def test_c10_run_is_deterministic(tmp_path):
    """Repeated full runs with one config and seed write byte-identical
    prediction, score and diagnostics files, independent of the worker
    count."""
    t0 = time.monotonic()
    scene = tmp_path / "scene"
    assert cli_main(["synth", "--out", str(scene), "--nx", "10", "--ny", "10",
                     "--rate", "0.12", "--seed", "21"]) == 0
    args = ["run", "--data", str(scene / "data.csv"),
            "--truth", str(scene / "truth.csv"),
            "--k1", "150", "--k2", "0.8", "--seed", "3"]
    outs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / name
        assert cli_main(args + ["--out", str(out), "--workers", str(workers)]) == 0
        outs.append(out)
    for name in ("predictions_cnt.csv", "predictions_ba.csv", "scores.csv",
                 "diagnostics.csv"):
        first = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == first
        assert (outs[2] / name).read_bytes() == first
    assert time.monotonic() - t0 < 120.0
