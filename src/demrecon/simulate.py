"""Draws from the model itself: prior samples and synthetic datasets.

``simulate_dataset`` generates data exactly the way the hierarchical
model says data arise: draw the variances from their inverse-gamma
hyperpriors, draw a true parameter vector from the (positivity
restricted) prior around the supplied initial estimates, project it,
and add lognormal noise to the projected counts at the census years
after the baseline. Reconstructions run on such data are exactly
calibrated, which is what makes interval-coverage tests well posed.

``prior_sample`` produces the same kind of object as the MCMC sampler
but drawn directly from the prior, so every posterior summary can also
be computed under the prior with the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PARAM_CLASSES, CensusData, ModelGrid, ThetaVector, VarianceParams
from .priors import HyperParams, InitialEstimates, transform, untransform
from .projection import positivity_indicator, project_full
from .sampler import PosteriorSample, SamplerConfig


def variance_draws(hyper: HyperParams, cls: str, rng: np.random.Generator,
                   n: int = 1) -> np.ndarray:
    """n inverse-gamma draws for one parameter class."""
    return 1.0 / rng.gamma(hyper.alpha[cls], 1.0 / hyper.beta[cls], size=n)


def draw_variances(hyper: HyperParams, rng: np.random.Generator) -> VarianceParams:
    return VarianceParams(**{c: float(variance_draws(hyper, c, rng, 1)[0])
                             for c in PARAM_CLASSES})


def draw_theta(initial: InitialEstimates, variances: VarianceParams,
               grid: ModelGrid, rng: np.random.Generator,
               require_positive: bool = True, max_tries: int = 1000) -> ThetaVector:
    """One draw from the parameter prior around the initial estimates.

    Each class is Gaussian on its transformed scale with that class's
    variance. With require_positive the draw is rejected and retried
    until its projection has no negative count, which is the prior's
    positivity restriction.
    """
    mus = {c: transform(c, v) for c, v in initial.by_class().items()}
    sds = {c: np.sqrt(getattr(variances, c)) for c in PARAM_CLASSES}
    for _ in range(max_tries):
        # one standard-normal block per class, in PARAM_CLASSES order
        theta = ThetaVector.from_classes({
            c: untransform(c, mus[c] + sds[c] * rng.standard_normal(mus[c].shape))
            for c in PARAM_CLASSES})
        if not require_positive:
            return theta
        if positivity_indicator(project_full(theta.baseline, theta, grid)):
            return theta
    raise RuntimeError(f"no positive draw found in {max_tries} tries;"
                       " the prior may be concentrated on impossible populations")


def draw_joint(initial: InitialEstimates, hyper: HyperParams, grid: ModelGrid,
               rng: np.random.Generator, max_tries: int = 100000):
    """One (variances, theta) pair from the positivity-restricted joint prior.

    The restriction truncates the joint distribution, so a failed draw
    discards the variances too; redrawing only theta under a huge
    variance draw would both bias the result and loop forever.
    """
    for _ in range(max_tries):
        v = draw_variances(hyper, rng)
        theta = draw_theta(initial, v, grid, rng, require_positive=False)
        if positivity_indicator(project_full(theta.baseline, theta, grid)):
            return v, theta
    raise RuntimeError(f"no positive joint draw in {max_tries} tries")


def prior_sample(initial: InitialEstimates, hyper: HyperParams, grid: ModelGrid,
                 n_draws: int, seed: int = 0) -> PosteriorSample:
    """Direct Monte Carlo sample from the prior, packaged like an MCMC run."""
    rng = np.random.default_rng(seed)
    draws = {c: np.empty((n_draws,) + shape) for c, shape in grid.class_shapes().items()}
    sig = np.empty((n_draws, len(PARAM_CLASSES)))
    for i in range(n_draws):
        v, theta = draw_joint(initial, hyper, grid, rng)
        for c, a in theta.by_class().items():
            draws[c][i] = a
        sig[i] = [getattr(v, c) for c in PARAM_CLASSES]
    config = SamplerConfig(iterations=n_draws, burn_in=0, thin=1, chains=1, seed=seed)
    return PosteriorSample(grid=grid, draws=draws, sigma2=sig,
                           chain=np.zeros(n_draws, dtype=np.int64),
                           acceptance={}, config=config)


@dataclass(frozen=True)
class SimulatedData:
    """A synthetic reconstruction problem with its generating truth."""

    grid: ModelGrid
    initial: InitialEstimates
    census: CensusData
    theta_true: ThetaVector
    variances_true: VarianceParams


def simulate_dataset(grid: ModelGrid, initial: InitialEstimates,
                     hyper: HyperParams, seed: int = 0) -> SimulatedData:
    """Generate one dataset from the model's own generative process."""
    rng = np.random.default_rng(seed)
    v_true, theta_true = draw_joint(initial, hyper, grid, rng)
    traj = project_full(theta_true.baseline, theta_true, grid)
    years = grid.likelihood_years
    if not years:
        raise ValueError("grid declares no census years after the baseline")
    sd = np.sqrt(v_true.counts)
    counts = np.empty((len(years), grid.n_ages, 2))
    for i, year in enumerate(years):
        proj = traj.at(year)
        if np.any(proj <= 0):
            raise RuntimeError(f"true trajectory has a nonpositive count at census year {year}")
        counts[i] = np.exp(np.log(proj) + sd * rng.standard_normal(proj.shape))
    census = CensusData(years=years, counts=counts)
    return SimulatedData(grid=grid, initial=initial, census=census,
                         theta_true=theta_true, variances_true=v_true)
