import pytest

from firemarg.config import (
    RunConfig,
    config_hash,
    format_config,
    load_config,
    with_overrides,
)
from firemarg.errors import DataError


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
    RunConfig(variant="cluster", cluster_covariate="altitude")


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
