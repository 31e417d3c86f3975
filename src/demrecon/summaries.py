"""Posterior summaries: quantiles, interval widths, exceedance and trend
probabilities, and per-draw indicator trajectories.

Quantiles use numpy's default linear interpolation (type 7) so results
are reproducible bit for bit elsewhere. Trend measures regress on the
START year of each period.

``_INDICATORS`` owns each named indicator's kind and formula. A rate
reads the parameter draws; a flow or a stock also reads the projected
counts. A stock has a value per grid year, the rest per period.
"""

from __future__ import annotations

import numpy as np

from .grid import FEMALE, MALE, ModelGrid
from .projection import project_full
from .sampler import PosteriorSample


# threshold comparisons; ">=" and "<=" come before ">" and "<", so a
# statement searched for each operator in turn is split on the whole one
COMPARISONS = {">=": np.greater_equal, "<=": np.less_equal, ">": np.greater, "<": np.less}


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


def indicator_trajectories(sample: PosteriorSample, name: str, counts=None) -> np.ndarray:
    """One named indicator on every draw: an (n_draws, n_years) array over
    ``indicator_years(sample.grid, name)``; srb is the sample's own draws,
    not a copy. A flow or a stock reads the sample's projected counts:
    counts when given, else one stacked ``project_full`` of all draws."""
    kind, formula = _INDICATORS[name]
    if kind != "rate" and counts is None:
        counts = _projected_counts(sample)
    return formula(sample.draws, counts)


def _label_number(v) -> str:
    """v in a statistic label: ``:g`` where that reads back as v, else the exact repr."""
    return f"{v:g}" if float(f"{v:g}") == v else repr(float(v))


def summary_rows(sample: PosteriorSample, indicators, probs=(0.025, 0.5, 0.975),
                 thresholds=(), trends=(), joints=()) -> list:
    """Tidy summary table: one dict per (indicator, year, statistic).

    thresholds: (indicator, direction, value) triples; each yields, per
    year, the fraction of draws with ``COMPARISONS[direction](draw, value)``.
    trends: indicator names; each yields the posterior of the last-minus-
    first change and of the OLS slope on start years.
    joints: (label, predicates) pairs where predicates is a list of
    (indicator, year_a, year_b, direction); the row is the fraction of
    draws on which every change value(year_b) - value(year_a) compares
    to 0 as its direction says (> 0 is a rise from year_a to year_b).

    Raises ValueError on an empty sample, a direction outside COMPARISONS,
    a trend on fewer than two years, a joint without predicates, or a
    joint year outside its indicator's years.
    """
    if sample.n_draws == 0:
        raise ValueError("empty sample")
    named = dict.fromkeys([*indicators, *(t[0] for t in thresholds), *trends,
                           *(pred[0] for _, preds in joints for pred in preds)])
    years = {name: indicator_years(sample.grid, name) for name in named}
    for direction in [t[1] for t in thresholds] + [p[3] for _, ps in joints for p in ps]:
        if direction not in COMPARISONS:
            raise ValueError(f"direction must be one of {' '.join(COMPARISONS)}, got {direction!r}")
    for name in trends:
        if len(years[name]) < 2:
            raise ValueError(f"trend {name} needs at least two years, has {list(years[name])}")
    for label, predicates in joints:
        if not predicates:
            raise ValueError(f"joint {label!r} has no predicates")
        for name, year in ((n, y) for n, a, b, _ in predicates for y in (a, b)):
            if year not in years[name]:
                raise ValueError(f"joint {label!r}: {name} has no year {year}")

    # the flows and stocks share one projection of the draws
    counts = (_projected_counts(sample)
              if any(_INDICATORS[name][0] != "rate" for name in named) else None)
    values = {name: indicator_trajectories(sample, name, counts) for name in named}

    rows = []
    probs = tuple(float(p) for p in probs)
    for name in indicators:
        qs = np.quantile(values[name], probs, axis=0)
        for j, year in enumerate(years[name]):
            rows.append({"indicator": name, "year": year, "statistic": "mean",
                         "value": float(values[name][:, j].mean())})
            for p, q in zip(probs, qs[:, j]):
                rows.append({"indicator": name, "year": year,
                             "statistic": f"q{_label_number(p)}", "value": float(q)})
        if len(probs) >= 2:
            half = (qs[np.argmax(probs)] - qs[np.argmin(probs)]) / 2.0
            rows.append({"indicator": name, "year": "", "statistic": "mean_half_width",
                         "value": float(np.mean(half))})

    for name, direction, value in thresholds:
        stat = f"p({name}{direction}{_label_number(value)})"
        for year, p in zip(years[name], COMPARISONS[direction](values[name], value).mean(axis=0)):
            rows.append({"indicator": name, "year": year, "statistic": stat, "value": float(p)})

    for name in trends:
        # slope = sum((x - xbar) * (y - ybar)) / sum((x - xbar)^2), per draw
        x = np.asarray(years[name], dtype=np.float64)
        xc = x - x.mean()
        yc = values[name] - values[name].mean(axis=1, keepdims=True)
        slope = (yc @ xc) / float(xc @ xc)
        diff = values[name][:, -1] - values[name][:, 0]
        for label, vals in (("endpoint_diff", diff), ("ols_slope", slope)):
            rows.append({"indicator": name, "year": "", "statistic": f"{label}_mean",
                         "value": float(vals.mean())})
            for p, q in zip(probs, np.quantile(vals, probs)):
                rows.append({"indicator": name, "year": "",
                             "statistic": f"{label}_q{_label_number(p)}", "value": float(q)})
            rows.append({"indicator": name, "year": "", "statistic": f"p({label}>0)",
                         "value": float(np.mean(vals > 0))})

    for label, predicates in joints:
        held = [COMPARISONS[d](values[n][:, years[n].index(b)] - values[n][:, years[n].index(a)], 0)
                for n, a, b, d in predicates]
        rows.append({"indicator": "joint", "year": "", "statistic": label,
                     "value": float(np.logical_and.reduce(held).mean())})
    return rows
