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
be computed under the prior with the same code. It projects candidates
one stacked chunk (up to 512) at a time and keeps, in draw order, the
first whose counts are finite and nonnegative: the draws of successive
``draw_joint`` calls, which run the same routine one candidate at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PARAM_CLASSES, CensusData, ModelGrid, ThetaVector, VarianceParams
from .priors import HyperParams, InitialEstimates, transform, untransform
from .projection import project_full
from .sampler import PosteriorSample, SamplerConfig


def variance_draws(hyper: HyperParams, cls: str, rng: np.random.Generator,
                   n: int = 1) -> np.ndarray:
    """n inverse-gamma draws for one parameter class."""
    return 1.0 / rng.gamma(hyper.alpha[cls], 1.0 / hyper.beta[cls], size=n)


def draw_variances(hyper: HyperParams, rng: np.random.Generator) -> VarianceParams:
    return VarianceParams(**{c: float(variance_draws(hyper, c, rng, 1)[0])
                             for c in PARAM_CLASSES})


def _first_admissible(initial: InitialEstimates, grid: ModelGrid, rng: np.random.Generator, n: int,
                      max_tries: int, hyper: HyperParams = None, variances=None, chunk: int = 1):
    """The first n admissible prior candidates in draw order: (sigma2 (n, 5),
    class-keyed draws with a leading draw axis). A candidate takes from rng
    its variances from hyper (unless hyper is None), then one standard-normal
    block per class. Up to ``chunk`` candidates, never more than are still
    needed, are projected as one stack and admitted if every count is finite
    and nonnegative. Raises RuntimeError after max_tries straight failures."""
    mus = {c: transform(c, v) for c, v in initial.by_class().items()}
    sig = np.empty((n, len(PARAM_CLASSES)))
    draws = {c: np.empty((n,) + mu.shape) for c, mu in mus.items()}
    kept = fails = 0
    while kept < n:
        m = min(n - kept, chunk)
        s = np.empty((m, len(PARAM_CLASSES)))
        z = {c: np.empty((m,) + mu.shape) for c, mu in mus.items()}
        for i in range(m):
            s[i] = [getattr(variances, c) if hyper is None else variance_draws(hyper, c, rng)[0]
                    for c in PARAM_CLASSES]
            for c in mus:
                rng.standard_normal(out=z[c][i])
        with np.errstate(all="ignore"):  # rejected candidates may overflow
            theta = ThetaVector.from_classes({c: untransform(c, mu + (z[c].T * np.sqrt(s[:, j])).T)
                                              for j, (c, mu) in enumerate(mus.items())})
            counts = project_full(theta.baseline, theta, grid).counts
            ok = np.all((counts >= 0) & (counts < np.inf), axis=(-3, -2, -1))
        for good in ok.tolist():
            fails = 0 if good else fails + 1
            if fails >= max_tries:
                raise RuntimeError(f"no positive prior draw in {max_tries} consecutive tries")
        new = slice(kept, kept + int(ok.sum()))
        sig[new] = s[ok]
        for c, a in theta.by_class().items():
            draws[c][new] = a[ok]
        kept = new.stop
    return sig, draws


def draw_theta(initial: InitialEstimates, variances: VarianceParams,
               grid: ModelGrid, rng: np.random.Generator,
               max_tries: int = 1000) -> ThetaVector:
    """One draw from the parameter prior around the initial estimates.

    Each class is Gaussian on its transformed scale with that class's
    variance. The draw is retried until its projection has only finite,
    nonnegative counts: the prior's positivity restriction.
    """
    _, draws = _first_admissible(initial, grid, rng, 1, max_tries, variances=variances)
    return ThetaVector.from_classes({c: a[0] for c, a in draws.items()})


def draw_joint(initial: InitialEstimates, hyper: HyperParams, grid: ModelGrid,
               rng: np.random.Generator, max_tries: int = 100000):
    """One (variances, theta) pair from the positivity-restricted joint prior.

    The restriction truncates the joint distribution, so a failed draw
    discards the variances too; redrawing only theta under a huge
    variance draw would both bias the result and loop forever.
    """
    sig, draws = _first_admissible(initial, grid, rng, 1, max_tries, hyper)
    return (VarianceParams(*sig[0].tolist()),
            ThetaVector.from_classes({c: a[0] for c, a in draws.items()}))


def prior_sample(initial: InitialEstimates, hyper: HyperParams, grid: ModelGrid,
                 n_draws: int, seed: int = 0) -> PosteriorSample:
    """Direct Monte Carlo sample from the prior, packaged like an MCMC run."""
    sig, draws = _first_admissible(initial, grid, np.random.default_rng(seed),
                                   n_draws, 100000, hyper, chunk=512)
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
