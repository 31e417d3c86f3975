"""Transformed scales, the inverse-gamma density and the elicitation of
the hyperpriors of the hierarchical model.

Each parameter class is Gaussian around its initial estimate on a
transformed scale: log scale for counts, fertility and srb, logit for
survival, natural scale for migration. Each class's variance is inverse
gamma. ``sampler.log_posterior`` evaluates the joint density.

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

from .grid import PARAM_CLASSES, SEX_LABELS, STEP, Elicitation, ThetaVector

LOG_SCALE_CLASSES = ("counts", "fertility", "srb")
SURVIVAL_CLAMP = 1e-6


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


def log_invgamma(sigma2: float, alpha: float, beta: float) -> float:
    """Inverse-gamma log density at sigma2."""
    if sigma2 <= 0 or alpha <= 0 or beta <= 0:
        raise ValueError("log_invgamma needs strictly positive arguments")
    return (alpha * np.log(beta) - gammaln(alpha)
            - (alpha + 1.0) * np.log(sigma2) - beta / sigma2)


def draw_invgamma(rng: np.random.Generator, shape: float, scale: float, size=None):
    """Inverse-gamma draws, reciprocals of gamma(shape, 1/scale) draws. A
    gamma draw that underflows to 0 gives inf; one that overflows gives 0."""
    g = rng.gamma(shape, 1.0 / scale, size)
    if size is None:  # a float, whose division by 0 raises
        return 1.0 / g if g else np.inf
    with np.errstate(divide="ignore"):
        return 1.0 / g


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

    if eta["survival"] >= 1.0:
        raise ElicitationError(f"survival: relative error {eta['survival']} >= 1 puts the"
                               " lower bound at or below 0, where the logit is undefined")
    s_star = initial.survival
    up_raw = s_star * (1.0 + eta["survival"])
    if np.all(up_raw >= 1.0):
        raise ElicitationError("survival: estimate*(1+eta) is at or above 1 for every cell;"
                               " the elicited upper bounds are unattainable")
    upper = np.minimum(up_raw, 1.0 - SURVIVAL_CLAMP)
    lower = s_star * (1.0 - eta["survival"])
    center = logit(s_star)
    half = {cls: np.log1p(eta[cls]) for cls in LOG_SCALE_CLASSES}
    half["migration"] = eta["migration"]
    half["survival"] = max(float(np.max(np.abs(logit(upper) - center))),
                           float(np.max(np.abs(center - logit(lower)))))

    beta = {}
    for cls, h in half.items():
        try:
            beta[cls] = b = alpha[cls] * (h / t_quantile_95(alpha[cls])) ** 2
        except OverflowError:  # migration's half width is a Python float, whose square raises
            b = np.inf
        if not 0.0 < b < np.inf:  # underflow or overflow of a finite elicitation
            raise ElicitationError(f"{cls}: eta {eta[cls]} and alpha {alpha[cls]} give"
                                   f" beta = {b}; it must be finite and positive")
    return HyperParams(alpha=alpha, beta=beta)
