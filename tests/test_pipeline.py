import csv
import json
import os

import numpy as np
import pytest

from firemarg import pipeline
from firemarg.config import RunConfig
from firemarg.counts import ZinbParams
from firemarg.data import PredictionTable, build_dataset, write_csv
from firemarg.errors import DataError, FiremargError
from firemarg.neighborhoods import NeighborhoodSpec
from firemarg.pipeline import (
    benchmark_tables,
    predict_tables,
    read_prediction_csv,
    read_truth_csv,
    run_all,
    score_tables,
    write_prediction_csv,
    write_truth_csv,
    write_tuning_csv,
)
from firemarg.scoring import ScoreConfig, pooled_ecdf_row, score_one
from firemarg.synth import SyntheticSpec, generate
from firemarg.tuning import TuningResult

from conftest import make_grid_columns


def _ds(**kw):
    return build_dataset(**make_grid_columns(**kw))


@pytest.fixture(scope="module")
def masked_ds():
    spec = SyntheticSpec(nx=12, ny=12, cnt_missing_rate=0.15,
                         ba_missing_rate=0.15, mask_overlap=0.4)
    ds, _ = generate(spec, seed=5)
    return ds


def test_tables_cover_missing_indices_once(masked_ds):
    res = predict_tables(masked_ds, NeighborhoodSpec(radius_km=150.0),
                         NeighborhoodSpec(radius_km=150.0), 0.5)
    for table, missing in ((res.cnt, masked_ds.cnt_missing),
                           (res.ba, masked_ds.ba_missing)):
        assert np.array_equal(table.indices, missing)
        assert np.all(np.diff(table.indices) > 0)
        assert np.all(table.rows >= 0.0) and np.all(table.rows <= 1.0)
        assert np.all(np.diff(table.rows, axis=1) >= 0.0)
    variables = {(d.index, d.variable) for d in res.diagnostics}
    assert len(variables) == len(res.diagnostics)
    assert len(res.diagnostics) == masked_ds.cnt_missing.size + masked_ds.ba_missing.size


@pytest.mark.parametrize("variable, kinds", [("cnt", {"zinb"}),
                                             ("ba", {"mixture", "empirical"})])
def test_chunk_rows_equal_single_index_chunks(masked_ds, variable, kinds):
    indices = masked_ds.cnt_missing if variable == "cnt" else masked_ds.ba_missing
    payload = (indices, variable, NeighborhoodSpec(radius_km=300.0), 0.7)
    rows, diags = pipeline._predict_block(payload, masked_ds)
    alone = [pipeline._predict_block((indices[p:p + 1],) + payload[1:], masked_ds)
             for p in range(indices.size)]
    assert rows.shape == (indices.size, 28)
    assert np.array_equal(rows, np.concatenate([r for r, _ in alone]))
    assert diags == [d for _, block in alone for d in block]
    assert {d.model for d in diags} == kinds


def test_both_variables_share_one_worker_pool(masked_ds, monkeypatch, tmp_path):
    pools = []

    class CountedPool(pipeline.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", CountedPool)
    specs = (NeighborhoodSpec(radius_km=150.0), NeighborhoodSpec(radius_km=150.0), 0.5)
    serial = predict_tables(masked_ds, *specs, workers=1)
    assert pools == []
    pooled = predict_tables(masked_ds, *specs, workers=2)
    assert pools == [2]
    assert pooled.diagnostics == serial.diagnostics
    for name in ("cnt", "ba"):
        paths = [str(tmp_path / f"{name}{k}.csv") for k in range(2)]
        write_prediction_csv(getattr(serial, name), paths[0])
        write_prediction_csv(getattr(pooled, name), paths[1])
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()


def test_predicted_rows_near_planted_truth():
    # one shared marginal everywhere and a neighborhood covering the
    # whole slice: the fitted row must track the generating CDF
    spec = SyntheticSpec(nx=50, ny=50,
                         cnt_regimes=(ZinbParams(0.3, 4.0, 2.0),),
                         ba_regimes=((-4.0, 1.0),),
                         cnt_missing_rate=0.02, ba_missing_rate=0.02,
                         mask_overlap=0.0)
    ds, truth = generate(spec, seed=77)
    assert ds.n - ds.cnt_missing.size >= 2000
    wide = NeighborhoodSpec(radius_km=10000.0)
    res = predict_tables(ds, wide, wide, 0.5, pair_rule=False, water_rule=False)
    sup_cnt = max(
        np.max(np.abs(res.cnt.row_for(i) - truth.true_cnt_cdf(i, ds.cnt_thresholds)))
        for i in ds.cnt_missing)
    sup_ba = max(
        np.max(np.abs(res.ba.row_for(i) - truth.true_ba_cdf(i, ds.ba_thresholds)))
        for i in ds.ba_missing)
    assert sup_cnt <= 0.05
    assert sup_ba <= 0.05


def test_pair_rule_overrides_rows():
    cols = make_grid_columns(nx=5, ny=5, seed=3)
    cols["cnt"][6] = np.nan
    cols["ba"][6] = 0.0        # known zero partner forces the count row
    cols["cnt"][8] = np.nan
    cols["ba"][8] = 40.0       # known positive partner pins the zero entry
    ds = build_dataset(**cols)
    res = predict_tables(ds, NeighborhoodSpec(radius_km=150.0),
                         NeighborhoodSpec(radius_km=150.0), 0.5)
    assert np.all(res.cnt.row_for(6) == 1.0)
    assert res.cnt.row_for(8)[0] == 0.0
    assert res.cnt.row_for(8)[-1] <= 1.0
    forced = {d.index: d.forced for d in res.diagnostics if d.variable == "cnt"}
    assert forced[6] == "all_one"
    assert forced[8] == "zero_at_zero"

    off = predict_tables(ds, NeighborhoodSpec(radius_km=150.0),
                         NeighborhoodSpec(radius_km=150.0), 0.5,
                         pair_rule=False)
    assert not np.all(off.cnt.row_for(6) == 1.0)


def test_water_rule_overrides_both_tables():
    cols = make_grid_columns(nx=5, ny=5, seed=4)
    cols["land_cover"][7, 17] = 0.97
    cols["cnt"][7] = np.nan
    cols["ba"][7] = np.nan
    ds = build_dataset(**cols)
    res = predict_tables(ds, NeighborhoodSpec(radius_km=150.0),
                         NeighborhoodSpec(radius_km=150.0), 0.5)
    assert np.all(res.cnt.row_for(7) == 1.0)
    assert np.all(res.ba.row_for(7) == 1.0)


def test_saturation_pins_thresholds_beyond_capacity():
    cols = make_grid_columns(nx=5, ny=5, seed=6)
    cols["area_fraction"][9] = 0.032   # capacity ~2e4, inside the grid
    cols["ba"][9] = np.nan
    ds = build_dataset(**cols)
    res = predict_tables(ds, NeighborhoodSpec(radius_km=150.0),
                         NeighborhoodSpec(radius_km=150.0), 0.5)
    row = res.ba.row_for(9)
    cap = float(ds.capacity[9])
    grid = ds.ba_thresholds
    assert cap < grid[-1]
    assert np.all(row[grid >= cap] == 1.0)
    assert row[1] < 1.0
    forced = {d.index: d.forced for d in res.diagnostics if d.variable == "ba"}
    assert forced[9] == "tail_one+zero_at_zero"   # the count is observed positive


def test_sample_ladder_widens_to_slice_and_month():
    cols = make_grid_columns(nx=5, ny=1, years=(2000, 2001), seed=8)
    # 2000 slice: cells 0..4 along one parallel, ~46 km apart
    cols["cnt"][[0, 1, 2]] = np.nan
    ds = build_dataset(**cols)
    res = predict_tables(ds, NeighborhoodSpec(radius_km=50.0),
                         NeighborhoodSpec(radius_km=50.0), 0.5)
    source = {d.index: d.source for d in res.diagnostics if d.variable == "cnt"}
    assert source[1] == "slice"          # flanks masked, slice pool remains

    cols = make_grid_columns(nx=3, ny=1, years=(2000, 2001), seed=8)
    cols["cnt"][[0, 1, 2]] = np.nan      # whole 2000 slice masked
    ds = build_dataset(**cols)
    res = predict_tables(ds, NeighborhoodSpec(radius_km=50.0),
                         NeighborhoodSpec(radius_km=50.0), 0.5)
    source = {d.index: d.source for d in res.diagnostics if d.variable == "cnt"}
    assert source[1] == "month"


def test_benchmark_rows_are_month_pools():
    ds = _ds(nx=5, ny=5, months=(6, 7), seed=12,
             cnt_missing_frac=0.2, ba_missing_frac=0.2)
    res = benchmark_tables(ds)
    assert np.array_equal(res.cnt.indices, ds.cnt_missing)
    for i in ds.cnt_missing:
        pool = ds.cnt[ds.month == ds.month[i]]
        pool = pool[~np.isnan(pool)]
        expected = pooled_ecdf_row(pool, ds.cnt_thresholds)
        assert np.array_equal(res.cnt.row_for(i), expected)
    for i in ds.ba_missing:
        pool = ds.ba[ds.month == ds.month[i]]
        pool = pool[~np.isnan(pool)]
        expected = pooled_ecdf_row(pool, ds.ba_thresholds)
        assert np.array_equal(res.ba.row_for(i), expected)


def test_benchmark_error_names_the_first_month_without_observations():
    # ids run month 7 before month 6, and neither month has a count
    cols = make_grid_columns(nx=3, ny=3, months=(7, 6), seed=12)
    cols["cnt"][:] = np.nan
    with pytest.raises(DataError, match="no observed cnt values for month 7$"):
        benchmark_tables(build_dataset(**cols))


def test_score_tables_arithmetic_and_skips():
    thresholds = np.array([0.0, 1.0, 2.0])
    rows = np.array([[0.2, 0.5, 0.9], [0.1, 0.4, 0.8]])
    cnt = PredictionTable("cnt", np.array([3, 7]), thresholds, rows)
    ba = PredictionTable("ba", np.array([4]), thresholds,
                         np.array([[0.3, 0.6, 1.0]]))
    report = score_tables(cnt, ba, {3: 1.0, 7: 0.0}, {4: 2.0})
    config = ScoreConfig(thresholds)
    expected_cnt = (score_one(rows[0], 1.0, config)
                    + score_one(rows[1], 0.0, config))
    assert report.cnt_score == pytest.approx(expected_cnt)
    assert report.ba_score == pytest.approx(
        score_one(np.array([0.3, 0.6, 1.0]), 2.0, config))
    assert report.total == report.cnt_score + report.ba_score
    assert (report.cnt_scored, report.ba_scored) == (2, 1)

    partial = score_tables(cnt, ba, {3: 1.0}, {})
    assert (partial.cnt_scored, partial.cnt_skipped) == (1, 1)
    assert (partial.ba_scored, partial.ba_skipped) == (0, 1)
    assert partial.ba_score == 0.0


def test_prediction_csv_round_trip(tmp_path, masked_ds):
    res = predict_tables(masked_ds, NeighborhoodSpec(radius_km=150.0),
                         NeighborhoodSpec(radius_km=150.0), 0.5)
    path = tmp_path / "pred.csv"
    write_prediction_csv(res.ba, str(path))
    back = read_prediction_csv(str(path), "ba")
    assert np.array_equal(back.indices, res.ba.indices)
    assert np.array_equal(back.thresholds, res.ba.thresholds)
    assert np.array_equal(back.rows, res.ba.rows)


def test_prediction_csv_bytes_match_csv_writer(tmp_path):
    """The joined-line writer against the csv.writer loop it replaced."""
    tiny = 2.0 ** -1074                  # the smallest subnormal
    table = PredictionTable(
        variable="ba", indices=np.array([0, 7, 123456]),
        thresholds=np.array([0.0, 0.1, 1.0, 2.5, 10.0, 100000.0]),
        rows=np.array([[0.0, tiny, 0.5, 1 - 2.0 ** -53, 1.0, 1.0],
                       [0.1, 0.2, 0.30000000000000004, 2.2e-308, 1.0, 1.0],
                       [1 / 3, 2 / 3, 0.9999999999999999, 1.0, 1.0, 1.0]]))
    path = tmp_path / "pred.csv"
    write_prediction_csv(table, str(path))
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "threshold", "probability"])
        for pos, i in enumerate(table.indices):
            for u, p in zip(table.thresholds, table.rows[pos]):
                writer.writerow([int(i), f"{u:.17g}", f"{p:.17g}"])
    assert path.read_bytes() == ref.read_bytes()
    back = read_prediction_csv(str(path), "ba")
    assert back.indices.tobytes() == table.indices.tobytes()
    assert back.thresholds.tobytes() == table.thresholds.tobytes()
    assert back.rows.tobytes() == table.rows.tobytes()


def test_truth_csv_round_trip(tmp_path):
    path = tmp_path / "truth.csv"
    write_truth_csv([3, 5], {3: 2.0, 5: 0.0}, [5, 9], {5: 17.25, 9: 0.0},
                    str(path))
    cnt, ba = read_truth_csv(str(path))
    assert cnt == {3: 2.0, 5: 0.0}
    assert ba == {5: 17.25, 9: 0.0}


def test_truth_csv_rejects_bad_values(tmp_path):
    # a NaN truth would score as if it lay above every threshold
    path = tmp_path / "truth.csv"
    for line, bad in (("3,nan,NA", "cnt truth 'nan'"),
                      ("4,-2,inf", "cnt truth '-2'"),
                      ("4,2,inf", "ba truth 'inf'"),
                      ("5,2.5,NA", "cnt truth '2.5' is not a finite nonnegative whole"),
                      ("6,NA,-0.5", "ba truth '-0.5'"),
                      ("7,two,NA", "cnt truth 'two'"),
                      ("x,2,NA", "cannot parse index='x'"),
                      ("8,2", "expected 3 fields"),
                      ("8,2,0.5,1", "expected 3 fields")):
        path.write_text("index,cnt,ba\n1,0,0.25\n" + line + "\n")
        with pytest.raises(DataError, match=f"truth.csv:3: {bad}"):
            read_truth_csv(str(path))


def test_truth_csv_rejects_a_repeated_index(tmp_path):
    # the later row would silently replace the earlier one
    path = tmp_path / "truth.csv"
    path.write_text("index,cnt,ba\n3,1,2\n4,0,0\n3,5,6\n")
    with pytest.raises(DataError, match="truth.csv:4: repeated index 3, "
                                        "first seen at line 2"):
        read_truth_csv(str(path))


def test_prediction_csv_rejects_a_repeated_pair(tmp_path):
    # the repeated threshold would read as a grid the rows were never
    # predicted on
    path = tmp_path / "pred.csv"
    path.write_text("index,threshold,probability\n3,1,0.5\n4,1,0.2\n"
                    "3,2,0.7\n3,1.0,0.6\n")
    with pytest.raises(DataError, match=r"pred.csv:5: repeated \(index, "
                                        r"threshold\) \(3, 1\), first seen at line 2"):
        read_prediction_csv(str(path), "cnt")


@pytest.mark.parametrize("line, fault", [
    ("3,1,nan", "probability nan is not in"),
    ("3,1,1.5", "probability 1.5 is not in"),
    ("3,1,-0.25", "probability -0.25 is not in"),
    ("3,inf,0.9", "threshold inf is not finite"),
    ("3,nan,0.7", "threshold nan is not finite"),
])
def test_prediction_csv_rejects_an_unscorable_value(tmp_path, line, fault):
    # score_rows would reject each of these later, without naming a line
    path = tmp_path / "pred.csv"
    path.write_text(f"index,threshold,probability\n3,0,0.5\n{line}\n")
    with pytest.raises(DataError, match=f"pred.csv:3: {fault}"):
        read_prediction_csv(str(path), "cnt")


@pytest.mark.parametrize("token", ["1_0", "\u0661", "1_0.5"])
def test_readers_apply_the_ingest_token_rule(tmp_path, token):
    # int() and float() read digit-group underscores and non-ASCII
    # digits; ingest (np.loadtxt) rejects them, and so do both readers
    good = {"index": "3", "cnt": "1", "ba": "2"}
    for column in good:
        path = tmp_path / "truth.csv"
        row = dict(good, **{column: token})
        path.write_text("index,cnt,ba\n" + ",".join(row.values()) + "\n",
                        encoding="utf-8")
        with pytest.raises(DataError, match="truth.csv:2: "):
            read_truth_csv(str(path))
    good = {"index": "3", "threshold": "1", "probability": "0.5"}
    for column in good:
        path = tmp_path / "pred.csv"
        row = dict(good, **{column: token})
        path.write_text("index,threshold,probability\n" + ",".join(row.values())
                        + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"pred.csv:2: cannot parse {column}="):
            read_prediction_csv(str(path), "cnt")


@pytest.fixture
def run_inputs(tmp_path):
    spec = SyntheticSpec(nx=8, ny=8, cnt_missing_rate=0.15,
                         ba_missing_rate=0.15, mask_overlap=0.4)
    ds, truth = generate(spec, seed=19)
    data_path = tmp_path / "data.csv"
    truth_path = tmp_path / "truth.csv"
    write_csv(ds, str(data_path))
    write_truth_csv(ds.cnt_missing,
                    {int(i): float(truth.cnt_full[i]) for i in ds.cnt_missing},
                    ds.ba_missing,
                    {int(i): float(truth.ba_full[i]) for i in ds.ba_missing},
                    str(truth_path))
    return str(data_path), str(truth_path)


def _run_config(run_inputs, out_dir, **kw):
    data_path, truth_path = run_inputs
    base = dict(data_path=data_path, truth_path=truth_path, out_dir=out_dir,
                k1_cnt=150.0, k1_bap=150.0, k2_bap=0.5, workers=1)
    base.update(kw)
    return RunConfig(**base)


def test_run_all_byte_identical(tmp_path, run_inputs):
    outs = [str(tmp_path / name) for name in ("a", "b", "c")]
    run_all(_run_config(run_inputs, outs[0]))
    run_all(_run_config(run_inputs, outs[1]))
    run_all(_run_config(run_inputs, outs[2], workers=2))
    names = ("predictions_cnt.csv", "predictions_ba.csv", "scores.csv",
             "diagnostics.csv")
    for name in names:
        ref = open(os.path.join(outs[0], name), "rb").read()
        assert open(os.path.join(outs[1], name), "rb").read() == ref
        assert open(os.path.join(outs[2], name), "rb").read() == ref
    a = json.load(open(os.path.join(outs[0], "manifest.json")))
    b = json.load(open(os.path.join(outs[1], "manifest.json")))
    assert a == b
    assert set(a) == {"version", "config_hash", "seed", "workers", "selected",
                      "water_cut", "rows", "score"}


def test_run_all_tunes_when_unset(tmp_path, run_inputs):
    out = str(tmp_path / "tuned")
    config = _run_config(run_inputs, out, k1_cnt=None, k1_bap=None,
                         k2_bap=None, radii=(100.0, 150.0), quantiles=(0.5,))
    artifacts = run_all(config)
    assert artifacts.tuning is not None
    assert artifacts.config.k1_cnt in (100.0, 150.0)
    assert artifacts.config.k1_bap in (100.0, 150.0)
    assert artifacts.config.k2_bap == 0.5
    assert os.path.exists(os.path.join(out, "tuning.csv"))
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["selected"]["k1_cnt"] == artifacts.config.k1_cnt


def test_tuning_csv_names_each_candidate_exactly(tmp_path):
    # 10 significant digits: `:g` alone would write 100.123 and 0.123457
    radius, q = 100.1234567, 0.1234567891
    result = TuningResult(cnt_radius=radius, bap_radius=50.0, bap_quantile=q,
                          cnt_scores=((radius, 1.5), (50.0, 2.0)),
                          bap_scores=((radius, q, 3.0), (50.0, 0.25, 4.0)))
    path = str(tmp_path / "tuning.csv")
    write_tuning_csv(result, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[1:3] for r in rows] == [["100.1234567", ""], ["50", ""],
                                      ["100.1234567", "0.1234567891"], ["50", "0.25"]]
    assert [(float(r[1]), float(r[3])) for r in rows[:2]] == list(result.cnt_scores)
    assert [tuple(map(float, r[1:])) for r in rows[2:]] == list(result.bap_scores)


def test_tuned_run_is_byte_identical_across_worker_counts(tmp_path, run_inputs):
    outs = [str(tmp_path / f"w{workers}") for workers in (1, 2)]
    for out, workers in zip(outs, (1, 2)):
        run_all(_run_config(run_inputs, out, k1_cnt=None, k1_bap=None, k2_bap=None,
                            radii=(100.0, 150.0), quantiles=(0.4, 0.6), workers=workers))
    for name in ("tuning.csv", "predictions_cnt.csv", "predictions_ba.csv",
                 "diagnostics.csv", "scores.csv"):
        with open(os.path.join(outs[0], name), "rb") as a, \
                open(os.path.join(outs[1], name), "rb") as b:
            assert a.read() == b.read(), name


def test_run_all_labels_failing_stage(tmp_path, run_inputs):
    config = _run_config(run_inputs, str(tmp_path / "x"),
                         data_path=str(tmp_path / "nope.csv"))
    with pytest.raises(FiremargError, match="stage ingest"):
        run_all(config)


def test_run_all_checks_truth_at_ingest(tmp_path, run_inputs, monkeypatch):
    # a bad truth file fails before any tuning or prediction work
    truth_path = tmp_path / "bad_truth.csv"
    truth_path.write_text("index,cnt,ba\n1,0,0.25\n3,nan,NA\n")
    tuned = []
    monkeypatch.setattr("firemarg.pipeline.tune_parameters",
                        lambda *args: tuned.append(args))
    out = tmp_path / "out"
    config = _run_config(run_inputs, str(out), truth_path=str(truth_path),
                         k1_cnt=None, k1_bap=None, k2_bap=None)
    with pytest.raises(FiremargError, match="stage ingest: .*bad_truth.csv:3"):
        run_all(config)
    assert tuned == []
    assert not list(out.glob("predictions_*.csv"))


def test_run_all_labels_a_missing_truth_file(tmp_path, run_inputs):
    missing = str(tmp_path / "no_truth.csv")
    config = _run_config(run_inputs, str(tmp_path / "out"), truth_path=missing)
    with pytest.raises(FiremargError, match="stage ingest: cannot open .*no_truth.csv"):
        run_all(config)


def test_run_all_rejects_non_finite_thresholds_at_ingest(tmp_path, run_inputs):
    config = _run_config(run_inputs, str(tmp_path / "out"),
                         cnt_thresholds=(0.0, 1.0, np.inf))
    with pytest.raises(FiremargError, match="stage ingest: .*finite"):
        run_all(config)


def test_run_all_without_truth_skips_score(tmp_path, run_inputs):
    out = str(tmp_path / "noscore")
    artifacts = run_all(_run_config(run_inputs, out, truth_path=None))
    assert artifacts.report is None
    assert not os.path.exists(os.path.join(out, "scores.csv"))
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["score"] is None
