"""Densities of the hierarchical model and elicitation of its hyperpriors.

Level 1 (likelihood): log census counts are Gaussian around log projected
counts with variance sigma2_counts, at census years after the baseline.
Level 3 (parameter priors): each parameter class is Gaussian around its
initial estimate on a transformed scale, with one shared variance per
class: log scale for counts, fertility and srb, logit for survival,
natural scale for migration. Level 4: each variance is inverse gamma.

All theta densities here are densities OF the transformed values. The
sampler walks in the same transformed coordinates, so no change of
variables ever enters an acceptance ratio.

Marginalizing the variance out of one Gaussian component leaves a
Student t with 2*alpha degrees of freedom, centred at the transformed
initial estimate, with scale sqrt(beta/alpha). ``beta_from_elicitation``
inverts that: it picks beta so the central 90 percent interval of the
t marginal matches the expert's stated relative error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.special import expit, gammaln, logit, stdtrit

from .grid import (PARAM_CLASSES, SEX_LABELS, STEP, CensusData, Elicitation, ModelGrid,
                   ThetaVector)
from .projection import Trajectory

LOG_SCALE_CLASSES = ("counts", "fertility", "srb")
SURVIVAL_CLAMP = 1e-6

_LOG_2PI = float(np.log(2.0 * np.pi))


class ElicitationError(ValueError):
    """Raised when elicited inputs cannot produce a usable hyperprior."""


def transform(cls: str, values):
    """Map natural-scale values of one parameter class to its sampling scale."""
    if cls in LOG_SCALE_CLASSES:
        return np.log(values)
    if cls == "survival":
        return logit(values)
    return np.asarray(values, dtype=np.float64)


def untransform(cls: str, values):
    """Inverse of ``transform``."""
    if cls in LOG_SCALE_CLASSES:
        return np.exp(values)
    if cls == "survival":
        return expit(values)
    return np.asarray(values, dtype=np.float64)


def _gauss_block(x: np.ndarray, center: np.ndarray, sigma2: float) -> float:
    """Sum of iid Gaussian log densities of x around center."""
    m = x.size
    quad = float(np.sum((x - center) ** 2))
    return -0.5 * quad / sigma2 - 0.5 * m * (_LOG_2PI + np.log(sigma2))


def log_prior_theta(theta: ThetaVector, initial: ThetaVector, sigma2) -> float:
    """Joint log prior of all projection parameters given sigma2, the five
    variances in PARAM_CLASSES order.

    Sum of Gaussian log densities on each class's transformed scale. At
    theta equal to the initial estimates every quadratic term is zero
    and the value is the sum of the normalizing constants.
    """
    vals = theta.by_class()
    cents = initial.by_class()
    total = 0.0
    for cls, s2 in zip(PARAM_CLASSES, sigma2):
        x, c = vals[cls], cents[cls]
        if cls in LOG_SCALE_CLASSES and (np.any(x <= 0) or np.any(c <= 0)):
            raise ValueError(f"{cls}: log scale requires strictly positive values")
        if cls == "survival" and (np.any(x <= 0) or np.any(x >= 1)):
            raise ValueError("survival: logit scale requires values inside (0, 1)")
        total += _gauss_block(transform(cls, x), transform(cls, c), s2)
    return total


def log_likelihood_census(trajectory: Trajectory, census: CensusData,
                          sigma2_counts: float, grid: ModelGrid) -> float:
    """Gaussian log likelihood of log census counts around log projections.

    Covers ``grid.likelihood_years``, the census years strictly after the
    baseline, and census must hold each of them. The baseline census
    enters through the prior on the baseline counts instead, so it is
    never used twice; a census entry at the baseline year is ignored here.
    """
    total = 0.0
    for year in grid.likelihood_years:
        proj = trajectory.at(year)
        obs = census.at(year)
        if np.any(proj <= 0):
            raise ValueError(f"projected count nonpositive at census year {year}")
        if np.any(obs <= 0):
            raise ValueError(f"census count nonpositive at year {year}")
        total += _gauss_block(np.log(obs), np.log(proj), sigma2_counts)
    return total


def log_invgamma(sigma2: float, alpha: float, beta: float) -> float:
    """Inverse-gamma log density at sigma2."""
    if sigma2 <= 0 or alpha <= 0 or beta <= 0:
        raise ValueError("log_invgamma needs strictly positive arguments")
    return (alpha * np.log(beta) - gammaln(alpha)
            - (alpha + 1.0) * np.log(sigma2) - beta / sigma2)


def draw_invgamma(rng: np.random.Generator, shape: float, scale: float, size=None):
    """Inverse-gamma draws, reciprocals of gamma(shape, 1/scale) draws."""
    return 1.0 / rng.gamma(shape, 1.0 / scale, size)


@dataclass(frozen=True)
class HyperParams:
    """Inverse-gamma (alpha, beta) per parameter class."""

    alpha: Mapping
    beta: Mapping

    def __post_init__(self):
        object.__setattr__(self, "alpha", {c: float(self.alpha[c]) for c in PARAM_CLASSES})
        object.__setattr__(self, "beta", {c: float(self.beta[c]) for c in PARAM_CLASSES})


def t_quantile_95(alpha: float) -> float:
    """Upper 95 percent quantile of Student's t with 2*alpha degrees of freedom."""
    return float(stdtrit(2.0 * alpha, 0.95))


def beta_from_elicitation(elicitation: Elicitation,
                          initial: ThetaVector) -> HyperParams:
    """Turn elicited relative errors into inverse-gamma scale parameters.

    For each class the marginal prior of a transformed component is
    Student t with 2*alpha df and scale sqrt(beta/alpha); beta is chosen
    so the central 90 percent interval has the elicited half width:

      log classes:  half width log(1 + eta), so the untransformed
                    interval is [estimate/(1+eta), estimate*(1+eta)]
      migration:    half width eta on the natural scale
      survival:     half width d on the logit scale, where d is the
                    largest logit displacement of estimate*(1 +/- eta)
                    anywhere on the grid, with the upper value clamped
                    to 1 - 1e-6 first. One global beta per class, so
                    every cell gets at least the elicited coverage.

    beta = alpha * (half_width / t_quantile_95(alpha))^2. Every eta, alpha
    and beta must be finite and positive, else ElicitationError names the
    class; so must every initial baseline count, the log of which centres
    the counts prior, else ElicitationError names the cells.
    """
    alpha = dict(elicitation.alpha)
    eta = dict(elicitation.eta)
    for cls in PARAM_CLASSES:
        for what, v in (("elicited relative error", eta[cls]), ("alpha", alpha[cls])):
            if not 0.0 < v < np.inf:  # NaN fails too
                raise ElicitationError(f"{cls}: {what} must be finite and positive, got {v}")
    bad = [f"baseline[{STEP * a},{SEX_LABELS[x]}] = {v:g}"
           for (a, x), v in np.ndenumerate(initial.baseline) if not 0.0 < v < np.inf]
    if bad:
        raise ElicitationError("counts: the prior is centred on the log of the initial"
                               " baseline counts, which must be finite and positive: "
                               + "; ".join(bad))

    beta = {}
    for cls in LOG_SCALE_CLASSES:
        half = np.log1p(eta[cls])
        beta[cls] = alpha[cls] * (half / t_quantile_95(alpha[cls])) ** 2
    beta["migration"] = alpha["migration"] * (eta["migration"] / t_quantile_95(alpha["migration"])) ** 2

    if eta["survival"] >= 1.0:
        raise ElicitationError(
            f"survival: relative error {eta['survival']} >= 1 puts the lower"
            " bound at or below 0, where the logit is undefined"
        )
    s_star = initial.survival
    up_raw = s_star * (1.0 + eta["survival"])
    if np.all(up_raw >= 1.0):
        raise ElicitationError(
            "survival: estimate*(1+eta) is at or above 1 for every cell;"
            " the elicited upper bounds are unattainable"
        )
    upper = np.minimum(up_raw, 1.0 - SURVIVAL_CLAMP)
    lower = s_star * (1.0 - eta["survival"])
    center = logit(s_star)
    d = max(float(np.max(np.abs(logit(upper) - center))),
            float(np.max(np.abs(center - logit(lower)))))
    beta["survival"] = alpha["survival"] * (d / t_quantile_95(alpha["survival"])) ** 2

    for cls, b in beta.items():
        if not 0.0 < b < np.inf:  # underflow or overflow of a finite elicitation
            raise ElicitationError(f"{cls}: eta {eta[cls]} and alpha {alpha[cls]} give"
                                   f" beta = {b}; it must be finite and positive")
    return HyperParams(alpha=alpha, beta=beta)
