"""Dependence diagnostics between paired series: Kendall's tau,
sub-asymptotic tail dependence (chi and chi-bar at level u), percentile
bootstrap intervals, and the regional quadrant split.

All estimators work on rank-transformed margins F(x) = rank/(n+1), so
they are invariant to strictly increasing marginal transforms and the
log terms in chi-bar never see an exact 1.

`scipy.stats` is imported on first use, inside `rank_transform` and
`kendall_tau`, not when this module loads. Only `firemarg explore` calls
into this module, but the package and the CLI import it, so a
module-level import would put `scipy.stats`, and the `scipy.optimize`
it imports, into the memory and start-up time of every `run`, `tune`
and `predict` process and of every worker forked from one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


def _paired(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"paired series must be equal-length vectors, got {x.shape} vs {y.shape}")
    if x.size < 2:
        raise DataError("need at least two pairs")
    return x, y


def rank_transform(v) -> np.ndarray:
    """Pseudo-uniform margins rank/(n+1), average ranks on ties."""
    from scipy.stats import rankdata

    v = np.asarray(v, dtype=float)
    return rankdata(v) / (v.size + 1.0)


def kendall_tau(x, y) -> float:
    """Kendall's tau-b (tie-corrected); count data are heavily tied."""
    from scipy.stats import kendalltau, rankdata

    x, y = _paired(x, y)
    # identical (or mirrored) rank vectors mean every comparable pair is
    # concordant (discordant); report the exact extreme, not 1 - eps
    rx, ry = rankdata(x), rankdata(y)
    if np.ptp(rx) > 0 and np.ptp(ry) > 0:
        if np.array_equal(rx, ry):
            return 1.0
        if np.array_equal(rx, rankdata(-y)):
            return -1.0
    tau = kendalltau(x, y).statistic
    if np.isnan(tau):
        raise DataError("tau undefined: a margin is constant")
    return float(tau)


def chi_u(x, y, u: float) -> float:
    """chi(u) = Pr(F_Y(Y) > u | F_X(X) > u), empirical plug-in."""
    x, y = _paired(x, y)
    if not 0.0 < u < 1.0:
        raise DataError(f"level u must lie in (0,1), got {u}")
    fx, fy = rank_transform(x), rank_transform(y)
    above_x = fx > u
    k = int(np.count_nonzero(above_x))
    if k == 0:
        raise DataError(f"no exceedances of level {u}")
    return float(np.count_nonzero(above_x & (fy > u))) / k


def chibar_u(x, y, u: float) -> float:
    """chi-bar(u) = 2*log Pr(F_Y>u) / log Pr(F_X>u, F_Y>u) - 1."""
    x, y = _paired(x, y)
    if not 0.0 < u < 1.0:
        raise DataError(f"level u must lie in (0,1), got {u}")
    fx, fy = rank_transform(x), rank_transform(y)
    p_y = np.count_nonzero(fy > u) / y.size
    p_joint = np.count_nonzero((fx > u) & (fy > u)) / y.size
    if p_joint == 0.0:
        raise DataError(f"no joint exceedances of level {u}")
    return float(2.0 * np.log(p_y) / np.log(p_joint) - 1.0)


def bootstrap_ci(statistic, x, y, level: float = 0.95, n_boot: int = 1000,
                 seed: int = 0, max_redraw_factor: int = 10):
    """Percentile bootstrap interval for statistic(x, y) on resampled pairs.

    A resample on which the statistic is undefined (raises DataError or
    returns NaN) is redrawn; redraws are counted and capped at
    max_redraw_factor * n_boot.
    """
    x, y = _paired(x, y)
    if n_boot < 100:
        raise DataError("need at least 100 bootstrap replicates")
    if not 0.0 < level < 1.0:
        raise DataError("confidence level must lie in (0,1)")
    rng = np.random.default_rng(seed)
    n = x.size
    stats = np.empty(n_boot)
    redraws = 0
    cap = max_redraw_factor * n_boot
    got = 0
    while got < n_boot:
        idx = rng.integers(0, n, size=n)
        try:
            value = statistic(x[idx], y[idx])
        except DataError:
            value = np.nan
        if np.isnan(value):
            redraws += 1
            if redraws > cap:
                raise DataError(
                    f"statistic undefined on more than {cap} bootstrap resamples")
            continue
        stats[got] = value
        got += 1
    alpha = 1.0 - level
    lo, hi = np.quantile(stats, [alpha / 2.0, 1.0 - alpha / 2.0])
    return float(lo), float(hi)


# Quadrant boundaries: the 37.5N parallel and the 100W meridian.
LAT_SPLIT = 37.5
LON_SPLIT = -100.0


def quadrant_split(lon, lat) -> dict[str, np.ndarray]:
    """Partition indices into NE/SE/SW/NW by the 37.5N / 100W lines.

    Boundary convention: latitude exactly 37.5 goes south, longitude
    exactly -100 goes west, so (-100, 37.5) lands in SW.
    """
    lon = np.asarray(lon, dtype=float)
    lat = np.asarray(lat, dtype=float)
    if lon.shape != lat.shape:
        raise DataError("lon and lat must have the same shape")
    north = lat > LAT_SPLIT
    east = lon > LON_SPLIT
    idx = np.arange(lon.size)
    return {
        "NE": idx[north & east],
        "SE": idx[~north & east],
        "SW": idx[~north & ~east],
        "NW": idx[north & ~east],
    }


@dataclass(frozen=True)
class DependenceReport:
    region: str
    n: int
    u: float
    tau: float
    tau_ci: tuple[float, float]
    chi: float
    chi_ci: tuple[float, float]
    chibar: float
    chibar_ci: tuple[float, float]


def dependence_report(x, y, region: str, u: float, level: float = 0.95,
                      n_boot: int = 1000, seed: int = 0) -> DependenceReport:
    """Point estimates plus bootstrap intervals for one region and level."""
    x, y = _paired(x, y)
    return DependenceReport(
        region=region, n=x.size, u=u,
        tau=kendall_tau(x, y),
        tau_ci=bootstrap_ci(kendall_tau, x, y, level, n_boot, seed),
        chi=chi_u(x, y, u),
        chi_ci=bootstrap_ci(lambda a, b: chi_u(a, b, u), x, y, level, n_boot, seed + 1),
        chibar=chibar_u(x, y, u),
        chibar_ci=bootstrap_ci(lambda a, b: chibar_u(a, b, u), x, y, level, n_boot, seed + 2),
    )

