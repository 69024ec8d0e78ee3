import math
from dataclasses import fields, replace

import pytest

from firemarg import config as config_module
from firemarg.config import (
    RunConfig,
    config_hash,
    format_config,
    load_config,
    with_overrides,
)
from firemarg.errors import DataError
from firemarg.tuning import DEFAULT_RADII


def test_defaults_round_trip():
    assert load_config(text=format_config()) == RunConfig()
    assert load_config() == RunConfig()


def test_parse_typed_values():
    text = """
[io]
data_path = /data/fires.csv
truth_path = /data/truth.csv
[model]
variant = temporal
k1_cnt = 125
k2_bap = 0.5
ky = 3
radii = 100, 150 200
[score]
cnt_weights = 1 2 3
[rules]
pair_rule = false
[run]
workers = 4
"""
    config = load_config(text=text)
    assert config.data_path == "/data/fires.csv"
    assert config.truth_path == "/data/truth.csv"
    assert config.variant == "temporal"
    assert config.k1_cnt == 125.0
    assert config.k1_bap is None
    assert config.k2_bap == 0.5
    assert config.ky == 3
    assert config.radii == (100.0, 150.0, 200.0)
    assert config.cnt_weights == (1.0, 2.0, 3.0)
    assert config.pair_rule is False
    assert config.water_rule is True
    assert config.workers == 4


def test_none_token_clears_optional():
    config = load_config(text="[model]\nk1_cnt = none\n[io]\ntruth_path = none\n")
    assert config.k1_cnt is None
    assert config.truth_path is None


def test_file_round_trip(tmp_path):
    original = RunConfig(k1_cnt=125.0, k1_bap=175.0, k2_bap=0.5,
                         variant="temporal", ky=2, pair_rule=False,
                         cnt_weights=(1.0, 2.0), seed=9)
    path = tmp_path / "run.ini"
    path.write_text(format_config(original))
    assert load_config(str(path)) == original


def test_unknown_keys_rejected():
    with pytest.raises(DataError, match="unknown config section"):
        load_config(text="[nope]\nx = 1\n")
    with pytest.raises(DataError, match="unknown config key"):
        load_config(text="[io]\ndata_file = x.csv\n")
    with pytest.raises(DataError, match="bad value"):
        load_config(text="[run]\nseed = soon\n")
    with pytest.raises(DataError, match="cannot read config"):
        load_config("/does/not/exist.ini")


def test_validation():
    with pytest.raises(DataError):
        RunConfig(variant="radial")
    with pytest.raises(DataError):
        RunConfig(variant="cluster")
    with pytest.raises(DataError, match="ky >= 1"):
        RunConfig(variant="temporal", ky=0)
    with pytest.raises(DataError):
        RunConfig(k2_bap=1.0)
    with pytest.raises(DataError):
        RunConfig(workers=-1)
    # the tuning grid is checked up front, not at stage tune
    with pytest.raises(DataError, match="quantiles must lie in"):
        RunConfig(quantiles=(1.5,))
    with pytest.raises(DataError, match="quantile grid must be nonempty"):
        RunConfig(quantiles=())
    with pytest.raises(DataError, match="radii must be nonnegative"):
        RunConfig(radii=(-50.0,))
    with pytest.raises(DataError, match="radius grid must be nonempty"):
        RunConfig(radii=())
    with pytest.raises(DataError, match="quantiles must lie in"):
        load_config(text="[model]\nquantiles = 0.5 1.5\n")
    RunConfig(variant="cluster", cluster_covariate="altitude")


def test_rejects_nan_or_negative_k1():
    # caught here, not at stage predict after a full tune
    for name in ("k1_cnt", "k1_bap"):
        for bad in (math.nan, -5.0):
            with pytest.raises(DataError, match=f"{name} must be a nonnegative radius"):
                RunConfig(**{name: bad})
    with pytest.raises(DataError, match="k1_cnt must be a nonnegative radius"):
        load_config(text="[model]\nk1_cnt = nan\n")
    RunConfig(k1_cnt=0.0, k1_bap=150.0)


def test_rejects_non_finite_or_non_positive_geometry():
    # an infinite earth radius put every row on the "slice" rung, NaN
    # failed only at stage predict, a negative one at a capacity check
    for name in ("earth_radius_km", "unit_scale", "lon_width", "lat_height"):
        for bad in (math.inf, -math.inf, math.nan, 0.0, -6371.0):
            with pytest.raises(DataError, match=f"{name} must be finite and positive"):
                RunConfig(**{name: bad})
    with pytest.raises(DataError, match="earth_radius_km must be finite and positive"):
        load_config(text="[geometry]\nearth_radius_km = inf\n")
    RunConfig(earth_radius_km=6371.0, unit_scale=1.0, lon_width=0.25, lat_height=1.0)


@pytest.mark.parametrize("name", ["water_cut", "water_target"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -0.1, 5.0])
def test_rejects_water_settings_outside_the_unit_interval(name, value):
    # lc18 > nan is always False, and a target above 1 is never met
    with pytest.raises(DataError, match=rf"{name} must lie in \[0, 1\]"):
        RunConfig(**{name: value})
    with pytest.raises(DataError, match=rf"{name} must lie in \[0, 1\]"):
        load_config(text=f"[rules]\n{name} = {value}\n")
    assert getattr(RunConfig(**{name: 1.0}), name) == 1.0


def test_with_overrides():
    base = RunConfig()
    same = with_overrides(base, seed=None, k1_cnt=None)
    assert same == base
    changed = with_overrides(base, seed=5, k1_cnt=100.0)
    assert changed.seed == 5 and changed.k1_cnt == 100.0
    with pytest.raises(DataError, match="unknown config overrides"):
        with_overrides(base, radius=100.0)


def test_hash_ignores_output_only_settings():
    base = RunConfig()
    assert config_hash(base) == config_hash(RunConfig(workers=8, out_dir="elsewhere"))
    assert config_hash(base) != config_hash(RunConfig(k1_cnt=100.0))
    assert config_hash(base) != config_hash(RunConfig(seed=1))
    assert config_hash(base) != config_hash(RunConfig(water_cut=0.9))


def test_every_field_has_one_section_and_a_parser():
    listed = [key for keys in config_module._SECTIONS.values() for key in keys]
    assert sorted(listed) == sorted(f.name for f in fields(RunConfig))
    for f in fields(RunConfig):
        assert f.type.removesuffix(" | None") in config_module._TYPE_PARSERS
        text = config_module._format_value(f.default)
        assert config_module._parse(f.type, text) == f.default, f.name


def test_tuple_entries_round_trip_exactly():
    odd = RunConfig(radii=(100.0, 123.4567891), k1_cnt=123.4567891,
                    cnt_thresholds=(0.0, 1234567.0, 1234568.0),
                    quantiles=(0.1, 1.0 / 3.0), ba_weights=(1e-7, 2.5e12))
    assert load_config(text=format_config(odd)) == odd
    assert config_hash(odd) != config_hash(replace(odd, radii=(100.0, 123.4567892)))
    # entries `:g` writes exactly keep its text, so default manifests do not change
    assert "radii = " + " ".join(f"{r:g}" for r in DEFAULT_RADII) in format_config()
    assert "cnt_thresholds = 0 1234567.0 1234568.0\n" in format_config(odd)


@pytest.mark.parametrize("name", ["cnt_weights", "ba_weights"])
@pytest.mark.parametrize("weights", [(1.0, math.nan), (1.0, math.inf),
                                     (1.0, -1.0), (0.0, 0.0), ()])
def test_rejects_score_weights_that_are_not_finite_nonnegative_and_nonzero(name, weights):
    # caught here, not where a ScoreConfig is first built (stage tune or score)
    with pytest.raises(DataError, match=f"{name} must be finite, nonnegative"):
        RunConfig(**{name: weights})
    text = " ".join(str(w) for w in weights) or ","
    with pytest.raises(DataError, match=f"{name} must be finite, nonnegative"):
        load_config(text=f"[score]\n{name} = {text}\n")
    RunConfig(**{name: (0.0, 2.0, 1.0)})
