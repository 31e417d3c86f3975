"""Posterior summaries: quantiles, interval widths, exceedance and trend
probabilities, and per-draw indicator trajectories.

Everything operates on a TrajectoryMatrix, one scalar indicator per
draw per period. Quantiles use numpy's default linear interpolation
(type 7) so results are reproducible bit for bit elsewhere. Trend
measures regress on the START year of each period.

``_INDICATORS`` owns each named indicator's kind and formula. A rate
reads the parameter draws; a flow or a stock also reads the projected
counts. A stock has a value per grid year, the rest per period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import FEMALE, MALE, ModelGrid
from .projection import project_full
from .sampler import PosteriorSample


@dataclass(frozen=True)
class TrajectoryMatrix:
    """Per-draw series of one scalar indicator: values is (n_draws, n_years)."""

    name: str
    values: np.ndarray
    years: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"values must be 2-d (draws, years), got shape {v.shape}")
        if v.shape[1] != len(self.years):
            raise ValueError(f"{v.shape[1]} columns but {len(self.years)} years")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))

    @property
    def n_draws(self) -> int:
        return self.values.shape[0]

    def column(self, year: int) -> np.ndarray:
        return self.values[:, self.years.index(year)]


def marginal_quantiles(tm: TrajectoryMatrix, probs) -> np.ndarray:
    """Empirical quantiles per period: shape (len(probs), n_years)."""
    if tm.n_draws == 0:
        raise ValueError("empty sample")
    return np.quantile(tm.values, np.asarray(probs, dtype=np.float64), axis=0)


def mean_half_width(lower: np.ndarray, upper: np.ndarray) -> float:
    """Mean over all cells of (upper - lower) / 2."""
    lo = np.asarray(lower, dtype=np.float64)
    hi = np.asarray(upper, dtype=np.float64)
    if lo.shape != hi.shape:
        raise ValueError(f"shape mismatch: {lo.shape} vs {hi.shape}")
    return float(np.mean((hi - lo) / 2.0))


# threshold comparisons; ">=" and "<=" come before ">" and "<", so a
# statement searched for each operator in turn is split on the whole one
COMPARISONS = {">=": np.greater_equal, "<=": np.less_equal, ">": np.greater, "<": np.less}


def exceedance_prob(tm: TrajectoryMatrix, threshold: float, direction: str = ">") -> np.ndarray:
    """Fraction of draws beyond the threshold, per period."""
    if direction not in COMPARISONS:
        raise ValueError(f"direction must be one of {' '.join(COMPARISONS)}, got {direction!r}")
    return COMPARISONS[direction](tm.values, threshold).mean(axis=0)


def endpoint_diff(tm: TrajectoryMatrix, year_a: int = None, year_b: int = None) -> np.ndarray:
    """Per-draw change value(year_b) - value(year_a); defaults to last minus first."""
    a = tm.years[0] if year_a is None else year_a
    b = tm.years[-1] if year_b is None else year_b
    return tm.column(b) - tm.column(a)


def ols_slope(tm: TrajectoryMatrix) -> np.ndarray:
    """Per-draw least-squares slope of the series against period start years.

    slope = sum((x - xbar) * (y - ybar)) / sum((x - xbar)^2), per year.
    """
    if len(tm.years) < 2:
        raise ValueError("need at least two periods for a slope")
    x = np.asarray(tm.years, dtype=np.float64)
    xc = x - x.mean()
    yc = tm.values - tm.values.mean(axis=1, keepdims=True)
    return (yc @ xc) / float(xc @ xc)


def joint_event_prob(predicates) -> float:
    """Fraction of draws on which every predicate holds.

    predicates is a sequence of equal-length boolean arrays, one entry
    per draw (e.g. ``endpoint_diff(tm, 1960, 1980) > 0``).
    """
    preds = [np.asarray(p, dtype=bool) for p in predicates]
    if not preds:
        raise ValueError("need at least one predicate")
    n = preds[0].size
    if any(p.size != n for p in preds):
        raise ValueError("predicates must cover the same draws")
    return float(np.logical_and.reduce([p.ravel() for p in preds]).mean())


def _e0_matrix(survival: np.ndarray, sex: int) -> np.ndarray:
    """Life expectancy per draw and period from (draws, K+1, P, 2) survival."""
    s = survival[:, :, :, sex]
    s_open = s[:, -1, :]
    if np.any(s_open >= 1.0):
        raise ValueError("open-group survival >= 1 in the sample: life expectancy diverges")
    live = np.cumprod(s[:, :-1, :], axis=1)
    return 5.0 * (live.sum(axis=1) + live[:, -1, :] * s_open / (1.0 - s_open))


def _u5mr_matrix(survival: np.ndarray, sex: int) -> np.ndarray:
    """Under-five deaths per 1000 births per draw and period, from
    (draws, K+1, P, 2) survival: 1000 times one minus the age-0 entry."""
    return 1000.0 * (1.0 - survival[:, 0, :, sex])


def _net_migrants(d, c, sex: int) -> np.ndarray:
    """Net migrants per year: start-of-period counts times migration, over age."""
    flows = c[:, :-1, :, sex] * d["migration"][..., sex].transpose(0, 2, 1)
    return flows.sum(axis=-1) / 5.0


# name -> (kind, formula(d, c)); d maps each class to its draws, c is the
# (draws, P+1, K, 2) projected counts or None for a rate
_INDICATORS = {
    "tfr": ("rate", lambda d, c: 5.0 * d["fertility"].sum(axis=1)),
    "srb": ("rate", lambda d, c: d["srb"]),
    "e0_female": ("rate", lambda d, c: _e0_matrix(d["survival"], FEMALE)),
    "e0_male": ("rate", lambda d, c: _e0_matrix(d["survival"], MALE)),
    "u5mr_female": ("rate", lambda d, c: _u5mr_matrix(d["survival"], FEMALE)),
    "u5mr_male": ("rate", lambda d, c: _u5mr_matrix(d["survival"], MALE)),
    "sex_ratio_u5mr": ("rate", lambda d, c: _u5mr_matrix(d["survival"], MALE)
                       / _u5mr_matrix(d["survival"], FEMALE)),
    "sex_diff_e0": ("rate", lambda d, c: _e0_matrix(d["survival"], FEMALE)
                    - _e0_matrix(d["survival"], MALE)),
    "srtp": ("stock", lambda d, c: c[..., MALE].sum(axis=-1) / c[..., FEMALE].sum(axis=-1)),
    "sru5": ("stock", lambda d, c: c[..., 0, MALE] / c[..., 0, FEMALE]),
    "net_migrants_female": ("flow", lambda d, c: _net_migrants(d, c, FEMALE)),
    "net_migrants_male": ("flow", lambda d, c: _net_migrants(d, c, MALE)),
}
INDICATOR_NAMES = tuple(_INDICATORS)


def indicator_years(grid: ModelGrid, name: str) -> tuple:
    """Years of an indicator's series: every grid year for a stock, else period starts."""
    years = grid.stock_years if _INDICATORS[name][0] == "stock" else grid.period_years
    return tuple(int(y) for y in years)


def _projected_counts(sample: PosteriorSample) -> np.ndarray:
    """(draws, P+1, K, 2) counts of every draw, in one stacked ``project_full`` call."""
    theta = sample.theta_at(slice(None))
    return project_full(theta.baseline, theta, sample.grid).counts


def indicator_trajectories(sample: PosteriorSample, name: str, counts=None) -> TrajectoryMatrix:
    """Evaluate one named indicator on every draw of the sample. A flow
    or a stock reads the sample's projected counts: counts when given,
    else one stacked ``project_full`` of all draws."""
    kind, formula = _INDICATORS[name]
    if kind != "rate" and counts is None:
        counts = _projected_counts(sample)
    return TrajectoryMatrix(name, formula(sample.draws, counts),
                            indicator_years(sample.grid, name))


def summary_rows(sample: PosteriorSample, indicators, probs=(0.025, 0.5, 0.975),
                 thresholds=(), trends=(), joints=()) -> list:
    """Tidy summary table: one dict per (indicator, year, statistic).

    thresholds: (indicator, direction, value) triples.
    trends: indicator names; each yields the posterior of the last-minus-
    first change and of the OLS slope on start years.
    joints: (label, predicates) pairs where predicates is a list of
    (indicator, year_a, year_b, direction) meaning the draw counts when
    value(year_b) - value(year_a) is > 0 (a rise from year_a to year_b)
    or < 0, matching the direction sign.
    """
    rows = []
    probs = tuple(float(p) for p in probs)
    named = dict.fromkeys([*indicators, *(t[0] for t in thresholds), *trends,
                           *(pred[0] for _, preds in joints for pred in preds)])
    # the flows and stocks share one projection of the draws
    counts = (_projected_counts(sample)
              if any(_INDICATORS[name][0] != "rate" for name in named) else None)
    tm = {name: indicator_trajectories(sample, name, counts) for name in named}

    for name in indicators:
        t = tm[name]
        qs = marginal_quantiles(t, probs)
        for j, year in enumerate(t.years):
            rows.append({"indicator": name, "year": year, "statistic": "mean",
                         "value": float(t.values[:, j].mean())})
            for p, q in zip(probs, qs[:, j]):
                rows.append({"indicator": name, "year": year,
                             "statistic": f"q{p:g}", "value": float(q)})
        if len(probs) >= 2:
            rows.append({"indicator": name, "year": "", "statistic": "mean_half_width",
                         "value": mean_half_width(qs[np.argmin(probs)], qs[np.argmax(probs)])})

    for name, direction, value in thresholds:
        t = tm[name]
        p = exceedance_prob(t, value, direction)
        stat = f"p({name}{direction}{value:g})"
        for j, year in enumerate(t.years):
            rows.append({"indicator": name, "year": year, "statistic": stat,
                         "value": float(p[j])})

    for name in trends:
        t = tm[name]
        for label, vals in (("endpoint_diff", endpoint_diff(t)), ("ols_slope", ols_slope(t))):
            rows.append({"indicator": name, "year": "", "statistic": f"{label}_mean",
                         "value": float(vals.mean())})
            for p in probs:
                rows.append({"indicator": name, "year": "",
                             "statistic": f"{label}_q{p:g}",
                             "value": float(np.quantile(vals, p))})
            rows.append({"indicator": name, "year": "", "statistic": f"p({label}>0)",
                         "value": float(np.mean(vals > 0))})

    for label, predicates in joints:
        arrays = [COMPARISONS[d](endpoint_diff(tm[n], a, b), 0) for n, a, b, d in predicates]
        rows.append({"indicator": "joint", "year": "", "statistic": label,
                     "value": joint_event_prob(arrays)})
    return rows
