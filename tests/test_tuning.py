from collections import Counter

import numpy as np
import pytest

from firemarg import neighborhoods, tuning
from firemarg.burnt_area import cdf_row, fit_mixture
from firemarg.counts import fit_zinb
from firemarg.data import build_dataset
from firemarg.errors import DataError
from firemarg.geo import haversine_km
from firemarg.neighborhoods import NeighborhoodSpec, fitting_sample, spatial_neighborhood
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
    cols = make_grid_columns(nx=3, ny=3, months=(6, 7), seed=5)
    month = cols["month"]
    cols["cnt"][month == 7] = np.nan
    ds = build_dataset(**cols)
    with caplog.at_level("WARNING", logger="firemarg.tuning"):
        plan = build_cv_plan(ds, "cnt")
    assert plan.pairs == ()
    assert sorted(plan.skipped) == list(np.flatnonzero(month == 7))
    assert "no same-slice candidate" in caplog.text


def test_plan_rejects_unknown_variable(grid_ds):
    with pytest.raises(DataError):
        build_cv_plan(grid_ds, "bap")


def test_cv_score_matches_reference_loop():
    ds = _ds(nx=6, ny=6, seed=21, cnt_missing_frac=0.2)
    plan = build_cv_plan(ds, "cnt")
    short = CvPlan(variable="cnt", pairs=plan.pairs[:6])
    cfg = ScoreConfig(ds.cnt_thresholds)
    spec = NeighborhoodSpec(radius_km=150.0)

    expected = []
    for _, s in short.pairs:
        members = spatial_neighborhood(ds, s, 150.0).members
        members = members[members != s]
        vals = ds.cnt[members]
        model = fit_zinb(vals[~np.isnan(vals)])
        expected.append(score_one(model.cdf(ds.cnt_thresholds), ds.cnt[s], cfg))
    assert cv_score(ds, spec, short, cfg) == float(np.sum(expected))


def test_empty_neighborhood_widens_to_slice_pool():
    # a radius excluding every neighbor must still score the plan,
    # otherwise it wins the grid search by scoring nothing
    ds = _ds(nx=4, ny=4, seed=9, cnt_missing_frac=0.1)
    plan = build_cv_plan(ds, "cnt")
    cfg = ScoreConfig(ds.cnt_thresholds)
    tiny = cv_score(ds, NeighborhoodSpec(radius_km=5.0), plan, cfg)
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
    one = cv_score(ds, spec, CvPlan("cnt", ((0, s),)), cfg)
    two = cv_score(ds, spec, CvPlan("cnt", ((0, s), (1, s))), cfg)
    assert two == pytest.approx(2.0 * one)
    assert one > 0.0


def test_cache_never_changes_scores():
    ds = _ds(nx=5, ny=5, seed=13, cnt_missing_frac=0.25, ba_missing_frac=0.25)
    cnt_cfg = ScoreConfig(ds.cnt_thresholds)
    ba_cfg = ScoreConfig(ds.ba_thresholds)
    cnt_plan = build_cv_plan(ds, "cnt")
    ba_plan = build_cv_plan(ds, "ba")
    cache = {}
    for radius in (100.0, 150.0):
        spec = NeighborhoodSpec(radius_km=radius)
        assert cv_score(ds, spec, cnt_plan, cnt_cfg, cache=cache) == \
            cv_score(ds, spec, cnt_plan, cnt_cfg)
        for q in (0.4, 0.7):
            assert cv_score(ds, spec, ba_plan, ba_cfg, k2=q, cache=cache) == \
                cv_score(ds, spec, ba_plan, ba_cfg, k2=q)
    assert len(cache) > 0


def test_select_parameters_queries_once_per_radius_and_pair(monkeypatch):
    # the burnt-area quantiles share each radius's samples, so the
    # neighborhood queries carry no quantile factor
    ds = _ds(nx=5, ny=5, seed=29, cnt_missing_frac=0.25, ba_missing_frac=0.25)
    radii = (100.0, 150.0)
    plans, queries = {}, Counter()
    plan_fn, query_fn = tuning.build_cv_plan, neighborhoods.build_neighborhood

    def plan(ds, variable):
        plans[variable] = plan_fn(ds, variable)
        return plans[variable]

    def query(*args, **kwargs):
        queries[list(plans)[-1]] += 1
        return query_fn(*args, **kwargs)

    monkeypatch.setattr(tuning, "build_cv_plan", plan)
    monkeypatch.setattr(neighborhoods, "build_neighborhood", query)
    select_parameters(ds, TuningGrid(radii=radii),
                      TuningGrid(radii=radii, quantiles=(0.3, 0.5, 0.7)))
    assert queries["ba"] > 0
    for variable in ("cnt", "ba"):
        assert queries[variable] <= len(radii) * len(plans[variable].pairs)


def test_bap_scores_equal_a_per_pair_reference_loop(monkeypatch):
    # the quantiles hit all three fit_mixture outcomes: zero mass at the
    # k2 level, too few exceedances, and a GPD tail
    ds = _ds(nx=8, ny=8, seed=37, cnt_missing_frac=0.2, ba_missing_frac=0.2)
    radii, quantiles = (60.0, 300.0), (0.1, 0.5, 0.9)
    outcomes = Counter()

    def fit(sample, k2):
        model = fit_mixture(sample, k2)
        outcomes[model.fallback_reason or model.kind] += 1
        return model

    monkeypatch.setattr(tuning, "fit_mixture", fit)
    result = select_parameters(ds, TuningGrid(radii=radii),
                               TuningGrid(radii=radii, quantiles=quantiles))
    assert set(outcomes) == {"zero mass at or above the k2 level",
                             "too few exceedances", "mixture"}

    plan = build_cv_plan(ds, "ba")
    cfg = ScoreConfig(ds.ba_thresholds)
    expected = []
    for radius in radii:
        spec = NeighborhoodSpec(radius_km=radius)
        for q in quantiles:
            scores = []
            for _, s in plan.pairs:
                model = fit_mixture(fitting_sample(ds, s, "ba", spec)[0], q)
                row = cdf_row(model, ds.ba_thresholds, float(ds.capacity[s]))
                scores.append(score_one(row, float(ds.ba[s]), cfg))
            expected.append((radius, q, float(np.sum(scores))))
    assert result.bap_scores == tuple(expected)


def test_select_parameters_scores_each_radius_in_one_call(monkeypatch):
    ds = _ds(nx=5, ny=5, seed=29, cnt_missing_frac=0.25, ba_missing_frac=0.25)
    radii = (100.0, 150.0, 200.0)
    calls = Counter()
    score_fn = tuning.cv_score

    def counted(ds, spec, plan, *args, **kwargs):
        calls[plan.variable] += 1
        return score_fn(ds, spec, plan, *args, **kwargs)

    monkeypatch.setattr(tuning, "cv_score", counted)
    result = select_parameters(ds, TuningGrid(radii=radii),
                               TuningGrid(radii=radii, quantiles=(0.3, 0.5, 0.7)))
    assert calls == {"cnt": len(radii), "ba": len(radii)}
    assert len(result.bap_scores) == 3 * len(radii)


def test_identical_samples_share_one_cache_entry(monkeypatch):
    # the fit depends on the sample alone, not on the surrogate
    ds = _ds(nx=5, ny=5, seed=13, cnt_missing_frac=0.25, ba_missing_frac=0.25)
    spec = NeighborhoodSpec(radius_km=100.0)
    for variable, k2, column in (("cnt", None, ds.cnt), ("ba", (0.4, 0.7), ds.bap)):
        observed = np.flatnonzero(~np.isnan(column))
        a, b = int(observed[0]), int(observed[1])
        sample = column[observed[2:30]]
        monkeypatch.setattr(tuning, "fitting_sample",
                            lambda ds, center, variable, spec: (sample.copy(),
                                                                "neighborhood"))
        plan = CvPlan(variable, ((0, a), (1, b)))
        cfg = ScoreConfig(ds.cnt_thresholds if variable == "cnt" else ds.ba_thresholds)
        cache = {}
        cv_score(ds, spec, plan, cfg, k2=k2, cache=cache)
        assert len(cache) == (1 if k2 is None else len(k2))


def test_burnt_area_cv_needs_a_level():
    ds = _ds(nx=4, ny=4, seed=9, ba_missing_frac=0.2)
    with pytest.raises(DataError):
        cv_score(ds, NeighborhoodSpec(), build_cv_plan(ds, "ba"),
                 ScoreConfig(ds.ba_thresholds))


def test_identical_members_give_identical_scores():
    # 54-56 km between grid neighbors; both radii catch exactly the rook
    # neighbors plus diagonals, so the samples coincide.
    ds = _ds(nx=4, ny=4, seed=17, cnt_missing_frac=0.2)
    cfg = ScoreConfig(ds.cnt_thresholds)
    plan = build_cv_plan(ds, "cnt")
    cache = {}
    a = cv_score(ds, NeighborhoodSpec(radius_km=300.0), plan, cfg, cache=cache)
    before = len(cache)
    b = cv_score(ds, NeighborhoodSpec(radius_km=301.0), plan, cfg, cache=cache)
    assert a == b
    assert len(cache) == before


def test_empty_plan_scores_zero(grid_ds):
    cfg = ScoreConfig(grid_ds.cnt_thresholds)
    assert cv_score(grid_ds, NeighborhoodSpec(), CvPlan("cnt", ()), cfg) == 0.0


def test_grid_validation():
    with pytest.raises(DataError):
        TuningGrid(radii=())
    with pytest.raises(DataError):
        TuningGrid(radii=(50.0,), quantiles=(0.0,))
    with pytest.raises(DataError):
        select_parameters(_ds(nx=3, ny=3, cnt_missing_frac=0.3),
                          TuningGrid(radii=(100.0,)),
                          TuningGrid(radii=(100.0,)))


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
    row = cdf_row(model, thresholds, capacity=150.0)
    assert row[0] == pytest.approx(0.2)          # zero mass
    assert np.all(row[thresholds >= 150.0] == 1.0)
    assert row[3] < 1.0
    assert np.all(np.diff(row) >= 0.0)
    assert np.all((row >= 0.0) & (row <= 1.0))
