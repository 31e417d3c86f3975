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
be computed under the prior with the same code. It and ``draw_joint``
share one routine: draw candidates, project them in stacks of up to
``CHUNK`` and keep, in draw order, those that pass
``positivity_indicator``; so both give the same draws from one stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PARAM_CLASSES, CensusData, ModelGrid, ThetaVector
from .priors import HyperParams, draw_invgamma, transform, untransform
from .projection import positivity_indicator, project_full
from .sampler import PosteriorSample, SamplerConfig

CHUNK = 512  # candidates projected as one stack by _first_admissible


def _first_admissible(initial: ThetaVector, grid: ModelGrid, rng: np.random.Generator, n: int,
                      max_tries: int, hyper: HyperParams):
    """The first n admissible prior candidates in draw order: (sigma2 (n, 5),
    class-keyed draws), views of one (n, n_params) draw matrix. A candidate
    takes from rng its variances from hyper, then one standard-normal block
    per class. Up to ``CHUNK`` candidates still needed are projected as one
    stack and admitted where ``positivity_indicator`` holds. Raises
    RuntimeError after max_tries straight failures."""
    mus = {c: transform(c, v) for c, v in initial.by_class().items()}
    rows = np.empty((n, sum(mu.size for mu in mus.values()) + len(PARAM_CLASSES)))
    sig, draws = rows[:, -len(PARAM_CLASSES):], grid.class_views(rows)
    kept = fails = 0
    while kept < n:
        m = min(n - kept, CHUNK)
        s = np.empty((m, len(PARAM_CLASSES)))
        z = {c: np.empty((m,) + mu.shape) for c, mu in mus.items()}
        for i in range(m):
            s[i] = [draw_invgamma(rng, hyper.alpha[c], hyper.beta[c]) for c in PARAM_CLASSES]
            for c in mus:
                rng.standard_normal(out=z[c][i])
        with np.errstate(all="ignore"):  # rejected candidates may overflow
            theta = ThetaVector.from_classes({c: untransform(c, mu + (z[c].T * np.sqrt(s[:, j])).T)
                                              for j, (c, mu) in enumerate(mus.items())})
            ok = positivity_indicator(project_full(theta.baseline, theta, grid).counts)
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


def draw_joint(initial: ThetaVector, hyper: HyperParams, grid: ModelGrid,
               rng: np.random.Generator, max_tries: int = 100000):
    """One (sigma2, theta) pair from the positivity-restricted joint prior,
    sigma2 the five variances in PARAM_CLASSES order.

    The restriction truncates the joint distribution, so a failed draw
    discards the variances too; redrawing only theta under a huge
    variance draw would both bias the result and loop forever.
    """
    sig, draws = _first_admissible(initial, grid, rng, 1, max_tries, hyper)
    return (sig[0].copy(),
            ThetaVector.from_classes({c: a[0] for c, a in draws.items()}))


def prior_sample(initial: ThetaVector, hyper: HyperParams, grid: ModelGrid,
                 n_draws: int, seed: int = 0) -> PosteriorSample:
    """Direct Monte Carlo sample from the prior, packaged like an MCMC run."""
    sig, draws = _first_admissible(initial, grid, np.random.default_rng(seed),
                                   n_draws, 100000, hyper)
    config = SamplerConfig(iterations=n_draws, burn_in=0, thin=1, chains=1, seed=seed)
    return PosteriorSample(grid=grid, draws=draws, sigma2=sig,
                           chain=np.zeros(n_draws, dtype=np.int64),
                           acceptance={}, config=config)


@dataclass(frozen=True)
class SimulatedData:
    """A synthetic reconstruction problem with its generating truth."""

    grid: ModelGrid
    initial: ThetaVector
    census: CensusData
    theta_true: ThetaVector
    variances_true: np.ndarray  # the five variances in PARAM_CLASSES order


def simulate_dataset(grid: ModelGrid, initial: ThetaVector,
                     hyper: HyperParams, seed: int = 0) -> SimulatedData:
    """Generate one dataset from the model's own generative process."""
    rng = np.random.default_rng(seed)
    v_true, theta_true = draw_joint(initial, hyper, grid, rng)
    traj = project_full(theta_true.baseline, theta_true, grid)
    years = grid.likelihood_years
    if not years:
        raise ValueError("grid declares no census years after the baseline")
    sd = np.sqrt(v_true[0])
    counts = np.empty((len(years), grid.n_ages, 2))
    for i, year in enumerate(years):
        proj = traj.at(year)
        if np.any(proj <= 0):
            raise RuntimeError(f"true trajectory has a nonpositive count at census year {year}")
        counts[i] = np.exp(np.log(proj) + sd * rng.standard_normal(proj.shape))
    census = CensusData(years=years, counts=counts)
    return SimulatedData(grid=grid, initial=initial, census=census,
                         theta_true=theta_true, variances_true=v_true)
