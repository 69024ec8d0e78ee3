import math
from collections import Counter

import numpy as np
import pytest

from firemarg import tuning
from firemarg.burnt_area import FEW_EXCEEDANCES, MIXTURE, ZERO_MASS, cdf_rows, fit_mixture
from firemarg.counts import ZINB_PAD, fit_zinb
from firemarg.data import build_dataset
from firemarg.errors import DataError
from firemarg.geo import haversine_km
from firemarg.neighborhoods import NeighborhoodSpec, build_neighborhood, fitting_samples
from firemarg.scoring import ScoreConfig, score_one
from firemarg.tuning import (
    DEFAULT_QUANTILES,
    DEFAULT_RADII,
    CvPlan,
    TuningGrid,
    build_cv_plan,
    cv_score,
    select_parameters,
)

from conftest import make_grid_columns


def _ds(**kw):
    return build_dataset(**make_grid_columns(**kw))


def brute_force_plan(ds, variable):
    column = ds.cnt if variable == "cnt" else ds.ba
    missing = ds.cnt_missing if variable == "cnt" else ds.ba_missing
    pairs = []
    skipped = []
    for i in missing:
        best = None
        for j in range(ds.n):
            if np.isnan(column[j]):
                continue
            if ds.month[j] != ds.month[i] or ds.year[j] != ds.year[i]:
                continue
            d = float(haversine_km(ds.lon[i], ds.lat[i], ds.lon[j], ds.lat[j],
                                   radius_km=ds.radius_km))
            if best is None or d < best[0] - 1e-9 or (abs(d - best[0]) <= 1e-9 and j < best[1]):
                best = (d, j)
        if best is None:
            skipped.append(int(i))
        else:
            pairs.append((int(i), best[1]))
    return pairs, skipped


def test_default_grids():
    assert DEFAULT_RADII[0] == 50.0
    assert DEFAULT_RADII[-1] == 400.0
    assert len(DEFAULT_RADII) == 15
    assert np.allclose(np.diff(DEFAULT_RADII), 25.0)
    assert DEFAULT_QUANTILES[0] == 0.05
    assert DEFAULT_QUANTILES[-1] == 0.95
    assert len(DEFAULT_QUANTILES) == 19


@pytest.mark.parametrize("variable", ["cnt", "ba"])
def test_plan_matches_brute_force(variable):
    ds = _ds(nx=6, ny=6, months=(6, 7), years=(2000, 2001), seed=11,
             cnt_missing_frac=0.3, ba_missing_frac=0.25)
    plan = build_cv_plan(ds, variable)
    pairs, skipped = brute_force_plan(ds, variable)
    assert list(plan.pairs) == pairs
    assert list(plan.skipped) == skipped
    assert plan.variable == variable


def test_plan_tie_breaks_to_smallest_id():
    cols = make_grid_columns(nx=3, ny=1, seed=3)
    cols["cnt"][1] = np.nan          # middle cell, equidistant flanks
    ds = build_dataset(**cols)
    plan = build_cv_plan(ds, "cnt")
    assert plan.pairs == ((1, 0),)


def test_plan_skips_uncovered_slice(caplog):
    # rows run year by year and slices month by month, so the two
    # uncovered slices come in the opposite order to their ids
    cols = make_grid_columns(nx=3, ny=3, months=(6, 7), years=(2000, 2001), seed=5)
    month, year = cols["month"], cols["year"]
    uncovered = ((month == 7) & (year == 2000)) | ((month == 6) & (year == 2001))
    cols["cnt"][uncovered] = np.nan
    ds = build_dataset(**cols)
    with caplog.at_level("WARNING", logger="firemarg.tuning"):
        plan = build_cv_plan(ds, "cnt")
    assert plan.pairs == ()
    assert plan.skipped == tuple(np.flatnonzero(uncovered).tolist())
    assert "no same-slice candidate" in caplog.text


def test_plan_rejects_unknown_variable(grid_ds):
    with pytest.raises(DataError):
        build_cv_plan(grid_ds, "bap")


def test_cv_score_matches_reference_loop():
    # the full plan at two radii, one lone fit_zinb per surrogate; the
    # counts are overdispersed, so the samples' largest values spread
    # over several padded support lengths of the stacked fit
    cols = make_grid_columns(nx=6, ny=6, months=(6, 7), seed=21,
                             cnt_missing_frac=0.25)
    observed = ~np.isnan(cols["cnt"])
    cols["cnt"][observed] = np.random.default_rng(21).negative_binomial(
        0.8, 0.05, observed.sum())
    ds = build_dataset(**cols)
    plan = build_cv_plan(ds, "cnt")
    cfg = ScoreConfig(ds.cnt_thresholds)

    radii, totals = (120.0, 200.0), []
    for radius in radii:
        expected, widths = [], set()
        for _, s in plan.pairs:
            members = build_neighborhood(ds, s, NeighborhoodSpec(radius_km=radius)).members
            members = members[members != s]
            vals = ds.cnt[members]
            vals = vals[~np.isnan(vals)]
            widths.add(-(-int(vals.max()) // ZINB_PAD))
            model = fit_zinb(vals)
            expected.append(score_one(model.cdf(ds.cnt_thresholds), ds.cnt[s], cfg))
        totals.append((float(np.sum(expected)),))
        assert len(widths) >= 3
    specs = [NeighborhoodSpec(radius_km=radius) for radius in radii]
    assert cv_score(ds, specs, plan, cfg) == totals


def test_empty_neighborhood_widens_to_slice_pool():
    # a radius excluding every neighbor must still score the plan,
    # otherwise it wins the grid search by scoring nothing
    ds = _ds(nx=4, ny=4, seed=9, cnt_missing_frac=0.1)
    plan = build_cv_plan(ds, "cnt")
    cfg = ScoreConfig(ds.cnt_thresholds)
    [(tiny,)] = cv_score(ds, [NeighborhoodSpec(radius_km=5.0)], plan, cfg)
    assert tiny > 0.0

    expected = []
    for _, s in plan.pairs:
        pool = np.delete(ds.cnt, s)
        model = fit_zinb(pool[~np.isnan(pool)])
        expected.append(score_one(model.cdf(ds.cnt_thresholds), ds.cnt[s], cfg))
    assert tiny == pytest.approx(float(np.sum(expected)))


def test_duplicate_surrogates_score_per_occurrence():
    ds = _ds(nx=5, ny=5, seed=9, cnt_missing_frac=0.2)
    s = int(build_cv_plan(ds, "cnt").pairs[0][1])
    cfg = ScoreConfig(ds.cnt_thresholds)
    spec = NeighborhoodSpec(radius_km=120.0)
    [(one,)] = cv_score(ds, [spec], CvPlan("cnt", ((0, s),)), cfg)
    [(two,)] = cv_score(ds, [spec], CvPlan("cnt", ((0, s), (1, s))), cfg)
    assert two == pytest.approx(2.0 * one)
    assert one > 0.0


def test_select_parameters_queries_once_per_radius_and_pair(monkeypatch):
    # the burnt-area quantiles share each radius's samples, so the
    # neighborhood queries carry no quantile factor: one stacked query
    # per (variable, radius), over each distinct surrogate once
    ds = _ds(nx=5, ny=5, seed=29, cnt_missing_frac=0.25, ba_missing_frac=0.25)
    radii = (100.0, 150.0)
    plans, queries = {}, []
    plan_fn, query_fn = tuning.build_cv_plan, tuning.fitting_samples

    def plan(ds, variable):
        plans[variable] = plan_fn(ds, variable)
        return plans[variable]

    def query(ds, centers, variable, spec):
        queries.append((variable, spec.radius_km, list(centers)))
        return query_fn(ds, centers, variable, spec)

    monkeypatch.setattr(tuning, "build_cv_plan", plan)
    monkeypatch.setattr(tuning, "fitting_samples", query)
    select_parameters(ds, TuningGrid(radii=radii),
                      TuningGrid(radii=radii, quantiles=(0.3, 0.5, 0.7)))
    for variable in ("cnt", "ba"):
        surrogates = sorted({s for _, s in plans[variable].pairs})
        batches = [(r, c) for v, r, c in queries if v == variable]
        assert [r for r, _ in batches] == list(radii)
        for _, centers in batches:
            assert sorted(centers) == surrogates


def test_bap_scores_equal_a_per_pair_reference_loop():
    # the quantiles hit all three fit_mixture outcomes: zero mass at the
    # k2 level, too few exceedances, and a GPD tail
    ds = _ds(nx=8, ny=8, seed=37, cnt_missing_frac=0.2, ba_missing_frac=0.2)
    radii, quantiles = (60.0, 300.0), (0.1, 0.5, 0.9)
    result = select_parameters(ds, TuningGrid(radii=radii),
                               TuningGrid(radii=radii, quantiles=quantiles))

    plan = build_cv_plan(ds, "ba")
    cfg = ScoreConfig(ds.ba_thresholds)
    expected = []
    outcomes = Counter()
    for radius in radii:
        spec = NeighborhoodSpec(radius_km=radius)
        for q in quantiles:
            scores = []
            for _, s in plan.pairs:
                model = fit_mixture(fitting_samples(ds, [s], "ba", spec)[0][0], q)
                outcomes[model.fallback_reason or model.kind] += 1
                row = cdf_rows(model.fits, ds.ba_thresholds, [float(ds.capacity[s])])[0, 0]
                scores.append(score_one(row, float(ds.ba[s]), cfg))
            expected.append((radius, q, float(np.sum(scores))))
    assert set(outcomes) == {"zero mass at or above the k2 level",
                             "too few exceedances", "mixture"}
    assert result.bap_scores == tuple(expected)


def test_select_parameters_scores_each_variable_in_one_call(monkeypatch):
    ds = _ds(nx=5, ny=5, seed=29, cnt_missing_frac=0.25, ba_missing_frac=0.25)
    radii = (200.0, 100.0, 150.0)
    calls = []
    score_fn = tuning.cv_score

    def counted(ds, specs, plan, *args, **kwargs):
        calls.append((plan.variable, [spec.radius_km for spec in specs]))
        return score_fn(ds, specs, plan, *args, **kwargs)

    monkeypatch.setattr(tuning, "cv_score", counted)
    result = select_parameters(ds, TuningGrid(radii=radii),
                               TuningGrid(radii=radii, quantiles=(0.3, 0.5, 0.7)))
    assert calls == [("cnt", list(radii)), ("ba", list(radii))]
    assert len(result.bap_scores) == 3 * len(radii)


@pytest.mark.parametrize("variable", ["cnt", "ba"])
def test_chunks_score_as_one_chunk_and_as_each_radius_alone(monkeypatch, variable):
    # every 5 km sample widens to its slice, and the levels hit the
    # zero-mass, too-few and mixture outcomes of fit_mixtures
    ds = _ds(nx=8, ny=8, seed=37, cnt_missing_frac=0.2, ba_missing_frac=0.2)
    plan = build_cv_plan(ds, variable)
    cfg = ScoreConfig(ds.cnt_thresholds if variable == "cnt" else ds.ba_thresholds)
    radii = (60.0, 150.0, 5.0, 300.0)
    specs = [NeighborhoodSpec(radius_km=r) for r in radii]
    k2 = (0.1, 0.5, 0.9)
    surrogates = list(dict.fromkeys(s for _, s in plan.pairs))
    assert len(surrogates) > 6
    sources = {source for _, source in fitting_samples(ds, surrogates, variable, specs[2])}
    assert sources == {"slice"}
    alone = [cv_score(ds, [spec], plan, cfg, k2=k2)[0] for spec in specs]
    assert len(alone) == len(specs)
    assert all(len(totals) == (1 if variable == "cnt" else len(k2)) for totals in alone)

    events, codes = [], set()
    query_fn, zinb_fn, mixture_fn = (tuning.fitting_samples, tuning.fit_zinbs,
                                     tuning.fit_mixtures)

    def query(ds, centers, variable, spec):
        events.append((spec.radius_km, list(centers)))
        return query_fn(ds, centers, variable, spec)

    def zinbs(samples):
        events.append("fit")
        return zinb_fn(samples)

    def mixtures(samples, levels):
        events.append("fit")
        fits = mixture_fn(samples, levels)
        codes.update(fits.code.ravel().tolist())
        return fits

    monkeypatch.setattr(tuning, "fitting_samples", query)
    monkeypatch.setattr(tuning, "fit_zinbs", zinbs)
    monkeypatch.setattr(tuning, "fit_mixtures", mixtures)
    for chunk in (1, 3, len(surrogates), len(surrogates) + 5):
        monkeypatch.setattr(tuning, "CV_CHUNK", chunk)
        events.clear()
        assert cv_score(ds, specs, plan, cfg, k2=k2) == alone
        # chunk by chunk: one query per spec over the chunk's (at most
        # CV_CHUNK) surrogates, then one fit of all their samples
        expected = []
        for first in range(0, len(surrogates), chunk):
            centers = surrogates[first:first + chunk]
            expected += [(r, centers) for r in radii] + ["fit"]
        assert events == expected
    if variable == "ba":
        assert codes == {MIXTURE, ZERO_MASS, FEW_EXCEEDANCES}


@pytest.mark.parametrize("variable", ["cnt", "ba"])
def test_surrogate_with_an_empty_sample_is_left_out(monkeypatch, variable):
    # month 7 has one observed row: every month-7 pair has it as the
    # surrogate, and its sample (the rest of month 7) is empty; its ids
    # come first, so it leads the surrogates and its gap shifts the rest
    cols = make_grid_columns(nx=5, ny=5, months=(7, 6), seed=43,
                             cnt_missing_frac=0.2, ba_missing_frac=0.2)
    july = np.flatnonzero(cols["month"] == 7)
    lone = int(july[0])
    for name, value in (("cnt", 3.0), ("ba", 40.0)):
        cols[name][july] = np.nan
        cols[name][lone] = value
    ds = build_dataset(**cols)
    plan = build_cv_plan(ds, variable)
    assert sum(s == lone for _, s in plan.pairs) == july.size - 1
    cfg = ScoreConfig(ds.cnt_thresholds if variable == "cnt" else ds.ba_thresholds)
    column = ds.cnt if variable == "cnt" else ds.ba
    radii, k2 = (80.0, 250.0), (0.3, 0.7)

    expected, left_out = [], set()
    for radius in radii:
        spec = NeighborhoodSpec(radius_km=radius)
        scores = []
        for _, s in plan.pairs:
            sample = fitting_samples(ds, [s], variable, spec)[0][0]
            if not sample.size:
                left_out.add(s)
                continue
            if variable == "cnt":
                rows = [fit_zinb(sample).cdf(ds.cnt_thresholds)]
            else:
                rows = [cdf_rows(fit_mixture(sample, q).fits, ds.ba_thresholds,
                                 [float(ds.capacity[s])])[0, 0] for q in k2]
            scores.append([score_one(row, float(column[s]), cfg) for row in rows])
        expected.append(tuple(float(np.sum(level)) for level in np.array(scores).T))
    assert left_out == {lone}
    assert plan.pairs[0][1] == lone

    specs = [NeighborhoodSpec(radius_km=r) for r in radii]
    surrogates = {s for _, s in plan.pairs}
    for chunk in (1, 3, len(surrogates)):
        monkeypatch.setattr(tuning, "CV_CHUNK", chunk)
        assert cv_score(ds, specs, plan, cfg, k2=k2) == expected


@pytest.mark.parametrize("variable", ["cnt", "ba"])
def test_cv_never_hands_the_kernel_a_month_lone_surrogate(monkeypatch, variable):
    # month 7 has one observed row, the surrogate of every month-7 pair
    cols = make_grid_columns(nx=5, ny=5, months=(7, 6), seed=43,
                             cnt_missing_frac=0.2, ba_missing_frac=0.2)
    july = np.flatnonzero(cols["month"] == 7)
    lone = int(july[0])
    cols[variable][july] = np.nan
    cols[variable][lone] = 3.0
    ds = build_dataset(**cols)
    plan = build_cv_plan(ds, variable)
    assert lone in {s for _, s in plan.pairs}

    seen, kernel = [], tuning._fitted_rows

    def spy(ds, centers, *args):
        seen.extend(np.asarray(centers).tolist())
        return kernel(ds, centers, *args)

    monkeypatch.setattr(tuning, "_fitted_rows", spy)
    monkeypatch.setattr(tuning, "CV_CHUNK", 4)
    cfg = ScoreConfig(ds.cnt_thresholds if variable == "cnt" else ds.ba_thresholds)
    cv_score(ds, [NeighborhoodSpec(radius_km=80.0)], plan, cfg, k2=0.5)
    assert sorted(seen) == sorted({s for _, s in plan.pairs} - {lone})


@pytest.mark.parametrize("variable", ["cnt", "ba"])
def test_kernel_raises_on_an_empty_sample_before_any_fit(monkeypatch, variable):
    # ids run month 7 before month 6, and month 6 has no observed value
    cols = make_grid_columns(nx=3, ny=3, months=(7, 6), seed=12,
                             cnt_missing_frac=0.3, ba_missing_frac=0.3)
    cols[variable][cols["month"] == 6] = np.nan
    ds = build_dataset(**cols)
    centers = np.flatnonzero(ds.month == 7)[:4].tolist() + [int(np.argmax(ds.month == 6))]
    fits = []
    monkeypatch.setattr(tuning, "fit_zinbs", lambda *args: fits.append(args))
    monkeypatch.setattr(tuning, "fit_mixtures", lambda *args: fits.append(args))
    grid = ds.cnt_thresholds if variable == "cnt" else ds.ba_thresholds
    specs = [NeighborhoodSpec(radius_km=r) for r in (80.0, 250.0)]
    with pytest.raises(DataError, match=f"no observed {variable} values for month 6$"):
        list(tuning._fitted_rows(ds, centers, variable, specs, (0.5,), grid))
    assert fits == []


def test_burnt_area_cv_needs_a_level():
    ds = _ds(nx=4, ny=4, seed=9, ba_missing_frac=0.2)
    with pytest.raises(DataError):
        cv_score(ds, [NeighborhoodSpec()], build_cv_plan(ds, "ba"),
                 ScoreConfig(ds.ba_thresholds))


def test_identical_members_give_identical_scores():
    # 54-56 km between grid neighbors; both radii catch exactly the rook
    # neighbors plus diagonals, so the samples coincide.
    ds = _ds(nx=4, ny=4, seed=17, cnt_missing_frac=0.2)
    cfg = ScoreConfig(ds.cnt_thresholds)
    plan = build_cv_plan(ds, "cnt")
    [(a,)] = cv_score(ds, [NeighborhoodSpec(radius_km=300.0)], plan, cfg)
    [(b,)] = cv_score(ds, [NeighborhoodSpec(radius_km=301.0)], plan, cfg)
    assert a == b


def test_empty_plan_scores_zero(grid_ds):
    cfg = ScoreConfig(grid_ds.cnt_thresholds)
    assert cv_score(grid_ds, [NeighborhoodSpec()], CvPlan("cnt", ()), cfg) == [(0.0,)]
    ba_cfg = ScoreConfig(grid_ds.ba_thresholds)
    assert cv_score(grid_ds, [NeighborhoodSpec()], CvPlan("ba", ()), ba_cfg,
                    k2=(0.3, 0.5)) == [(0.0, 0.0)]


def test_grid_validation():
    with pytest.raises(DataError):
        TuningGrid(radii=())
    with pytest.raises(DataError):
        TuningGrid(radii=(50.0,), quantiles=(0.0,))
    with pytest.raises(DataError):
        select_parameters(_ds(nx=3, ny=3, cnt_missing_frac=0.3),
                          TuningGrid(radii=(100.0,)),
                          TuningGrid(radii=(100.0,)))


def test_grid_rejects_nan_radius():
    with pytest.raises(DataError, match="radii must be nonnegative"):
        TuningGrid(radii=(math.nan, 100.0))


def test_select_ties_go_to_smallest_radius():
    # Tiny domain: every candidate radius swallows the whole slice, all
    # scores coincide, and the smaller radius must win even when listed
    # later in the grid.
    ds = _ds(nx=2, ny=2, seed=31, cnt_missing_frac=0.3, ba_missing_frac=0.3)
    result = select_parameters(ds,
                               TuningGrid(radii=(400.0, 200.0)),
                               TuningGrid(radii=(400.0, 200.0), quantiles=(0.5,)))
    assert result.cnt_radius == 200.0
    assert result.bap_radius == 200.0
    scores = dict((r, s) for r, s in result.cnt_scores)
    assert scores[200.0] == scores[400.0]


def test_select_parameters_end_to_end():
    ds = _ds(nx=5, ny=5, seed=29, cnt_missing_frac=0.25, ba_missing_frac=0.25)
    cnt_grid = TuningGrid(radii=(100.0, 200.0))
    bap_grid = TuningGrid(radii=(150.0,), quantiles=(0.4, 0.6))
    first = select_parameters(ds, cnt_grid, bap_grid)
    second = select_parameters(ds, cnt_grid, bap_grid)
    assert first == second
    assert first.cnt_radius in cnt_grid.radii
    assert first.bap_radius in bap_grid.radii
    assert first.bap_quantile in bap_grid.quantiles
    assert len(first.cnt_scores) == 2
    assert len(first.bap_scores) == 2
    assert min(s for _, s in first.cnt_scores) == \
        dict((r, s) for r, s in first.cnt_scores)[first.cnt_radius]


def test_ba_cdf_row_saturates_at_capacity():
    rng = np.random.default_rng(41)
    sample = np.r_[np.zeros(40), rng.beta(1.2, 3.0, 160)]
    model = fit_mixture(sample, 0.5)
    thresholds = np.array([0.0, 1.0, 5.0, 20.0, 150.0, 200.0, 1000.0])
    row = cdf_rows(model.fits, thresholds, [150.0])[0, 0]
    assert row[0] == pytest.approx(0.2)          # zero mass
    assert np.all(row[thresholds >= 150.0] == 1.0)
    assert row[3] < 1.0
    assert np.all(np.diff(row) >= 0.0)
    assert np.all((row >= 0.0) & (row <= 1.0))
