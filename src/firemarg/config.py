"""Run configuration: defaults, INI-style file parsing, canonical hash.

Config files are flat key/value pairs grouped in sections
(configparser syntax). Every key has a printable default; unknown
sections or keys are rejected so typos fail loudly. Optional values are
written as the literal token "none".
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, fields, replace

from .data import _to_float
from .errors import DataError
from .geo import ACRES_PER_KM2, EARTH_RADIUS_KM
from .neighborhoods import VARIANTS
from .rules import DEFAULT_WATER_CUT, DEFAULT_WATER_TARGET
from .scoring import check_weights
from .tuning import DEFAULT_QUANTILES, DEFAULT_RADII, TuningGrid

_NONE_TOKENS = {"", "none"}


@dataclass(frozen=True)
class RunConfig:
    data_path: str = "data.csv"
    truth_path: str | None = None      # enables the score stage
    out_dir: str = "out"
    earth_radius_km: float = EARTH_RADIUS_KM
    unit_scale: float = ACRES_PER_KM2  # burnt-area units per km^2
    lon_width: float = 0.5
    lat_height: float = 0.5
    cnt_thresholds: tuple | None = None   # none -> built-in grids
    ba_thresholds: tuple | None = None
    variant: str = "spatial"
    k1_cnt: float | None = None        # none -> tuned by cross-validation
    k1_bap: float | None = None
    k2_bap: float | None = None
    ky: int = 1
    cluster_covariate: str | None = None
    radii: tuple = DEFAULT_RADII
    quantiles: tuple = DEFAULT_QUANTILES
    cnt_weights: tuple | None = None   # none -> default ramp
    ba_weights: tuple | None = None
    pair_rule: bool = True
    water_rule: bool = True
    water_cut: float = DEFAULT_WATER_CUT
    calibrate_water: bool = False
    water_target: float = DEFAULT_WATER_TARGET
    seed: int = 0
    workers: int = 0                   # 0 -> available parallelism

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DataError(f"unknown variant {self.variant!r}")
        if self.variant == "cluster" and not self.cluster_covariate:
            raise DataError("cluster variant needs cluster_covariate")
        if self.variant == "temporal" and self.ky < 1:
            raise DataError("temporal variant needs ky >= 1")
        if self.k2_bap is not None and not 0.0 < self.k2_bap < 1.0:
            raise DataError("k2_bap must lie in (0,1)")
        for name in ("k1_cnt", "k1_bap"):
            radius = getattr(self, name)
            if radius is not None and not radius >= 0:    # NaN fails too
                raise DataError(f"{name} must be a nonnegative radius")
        for name in ("earth_radius_km", "unit_scale", "lon_width", "lat_height"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DataError(f"{name} must be finite and positive, got {value}")
        for name in ("water_cut", "water_target"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:                # NaN fails too
                raise DataError(f"{name} must lie in [0, 1], got {value}")
        if self.ky < 0 or self.workers < 0:
            raise DataError("ky and workers must be nonnegative")
        for name in ("cnt_weights", "ba_weights"):
            if getattr(self, name) is not None:    # length is checked per grid
                check_weights(getattr(self, name), name)
        TuningGrid(radii=self.radii, quantiles=self.quantiles)
        if not self.quantiles:
            raise DataError("quantile grid must be nonempty")


_SECTIONS = {
    "io": ("data_path", "truth_path", "out_dir"),
    "geometry": ("earth_radius_km", "unit_scale", "lon_width", "lat_height"),
    "thresholds": ("cnt_thresholds", "ba_thresholds"),
    "model": ("variant", "k1_cnt", "k1_bap", "k2_bap", "ky",
              "cluster_covariate", "radii", "quantiles"),
    "score": ("cnt_weights", "ba_weights"),
    "rules": ("pair_rule", "water_rule", "water_cut", "calibrate_water",
              "water_target"),
    "run": ("seed", "workers"),
}

# Keys that cannot change any prediction or score value.
_HASH_EXEMPT = {"out_dir", "workers"}


def _integer(raw: str) -> int:
    """int(raw) for a token ingest's rule (data._to_float) accepts."""
    _to_float(raw)
    return int(raw)


def _numbers(raw: str) -> tuple:
    return tuple(_to_float(t) for t in raw.replace(",", " ").split())


def _bool(raw: str) -> bool:
    mapping = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}
    try:
        return mapping[raw.strip().lower()]
    except KeyError:
        raise DataError(f"cannot parse boolean {raw!r}") from None


_TYPE_PARSERS = {"str": str, "float": _to_float, "int": _integer,
                 "bool": _bool, "tuple": _numbers}


def _parse(annotation: str, raw: str):
    """raw as a RunConfig field of this annotation: a _TYPE_PARSERS key,
    optionally `| None`, when "none" (or nothing) reads as None."""
    base = annotation.removesuffix(" | None")
    if base != annotation and raw.strip().lower() in _NONE_TOKENS:
        return None
    return _TYPE_PARSERS[base](raw)


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        # `:g` text where it reads back exactly, else the shortest that does
        return " ".join(f"{v:g}" if float(f"{v:g}") == v else repr(float(v))
                        for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def format_config(config: RunConfig | None = None) -> str:
    """Printable INI text; round-trips through load_config."""
    config = config or RunConfig()
    out = io.StringIO()
    for section, keys in _SECTIONS.items():
        out.write(f"[{section}]\n")
        for key in keys:
            out.write(f"{key} = {_format_value(getattr(config, key))}\n")
        out.write("\n")
    return out.getvalue()


def load_config(path: str | None = None, text: str | None = None) -> RunConfig:
    """Defaults overlaid with a config file (or literal text)."""
    if path is None and text is None:
        return RunConfig()
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if text is not None:
            parser.read_string(text)
        else:
            with open(path) as fh:
                parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise DataError(f"cannot read config: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise DataError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                raise DataError(f"unknown config key {key!r} in [{section}]")
            try:
                values[key] = _parse(RunConfig.__annotations__[key], raw)
            except (ValueError, DataError) as exc:
                raise DataError(f"bad value for {key!r}: {exc}") from None
    return RunConfig(**values)


def with_overrides(config: RunConfig, **overrides) -> RunConfig:
    """Apply non-None command-line overrides on top of a config."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    bad = set(changes) - {f.name for f in fields(RunConfig)}
    if bad:
        raise DataError(f"unknown config overrides: {sorted(bad)}")
    return replace(config, **changes) if changes else config


def config_hash(config: RunConfig) -> str:
    """Digest over every setting that can affect an output value."""
    lines = [f"{f.name}={_format_value(getattr(config, f.name))}"
             for f in fields(RunConfig) if f.name not in _HASH_EXEMPT]
    payload = "\n".join(sorted(lines)).encode()
    return hashlib.sha256(payload).hexdigest()
