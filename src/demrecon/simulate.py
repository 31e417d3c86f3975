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
``CHUNK`` and keep, in draw order, those with variances in (0, inf) that
pass ``positivity_indicator``; so both give the same draws from one stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import PARAM_CLASSES, CensusData, ModelGrid, ThetaVector
from .priors import HyperParams, draw_invgamma, transform, untransform
from .projection import positivity_indicator, project_full
from .sampler import PosteriorSample, SamplerConfig

CHUNK = 512  # candidates projected as one stack by _first_admissible
MAX_TRIES = 100000  # straight inadmissible candidates before a prior draw gives up


def _first_admissible(initial: ThetaVector, grid: ModelGrid, rng: np.random.Generator, n: int,
                      hyper: HyperParams) -> np.ndarray:
    """The first n admissible prior candidates in draw order, as the rows of
    one (n, n_params) matrix in ``parameter_names`` order. A candidate takes
    from rng its five variances from hyper, then all its standard-normal
    theta columns in one call. Up to ``CHUNK`` candidates still needed are
    projected as one stack, and admitted where all five variances lie in
    (0, inf) and ``positivity_indicator`` holds. Raises RuntimeError after
    MAX_TRIES straight failures."""
    mus = [transform(c, v).ravel() for c, v in initial.by_class().items()]
    mu, col_class = np.concatenate(mus), np.repeat(range(len(mus)), [m.size for m in mus])
    rows = np.empty((n, mu.size + len(PARAM_CLASSES)))
    kept = fails = 0
    while kept < n:
        chunk = np.empty((min(n - kept, CHUNK), rows.shape[1]))
        for row in chunk:
            row[mu.size:] = [draw_invgamma(rng, hyper.alpha[c], hyper.beta[c]) for c in PARAM_CLASSES]
            rng.standard_normal(out=row[:mu.size])
        with np.errstate(all="ignore"):  # rejected candidates may overflow
            chunk[:, :mu.size] = mu + chunk[:, :mu.size] * np.sqrt(chunk[:, mu.size:])[:, col_class]
            views = grid.class_views(chunk)
            for c, v in views.items():
                v[...] = untransform(c, v)
            theta = ThetaVector.from_classes(views)
            ok = positivity_indicator(project_full(theta.baseline, theta, grid).counts)
        ok &= np.all((chunk[:, mu.size:] > 0.0) & (chunk[:, mu.size:] < np.inf), axis=1)
        for good in ok.tolist():
            fails = 0 if good else fails + 1
            if fails >= MAX_TRIES:
                raise RuntimeError(f"no positive prior draw in {MAX_TRIES} consecutive tries")
        new = slice(kept, kept + int(ok.sum()))
        rows[new] = chunk[ok]
        kept = new.stop
    return rows


def draw_joint(initial: ThetaVector, hyper: HyperParams, grid: ModelGrid,
               rng: np.random.Generator):
    """One (sigma2, theta) pair from the positivity-restricted joint prior,
    sigma2 the five variances in PARAM_CLASSES order.

    The restriction truncates the joint distribution, so a failed draw
    discards the variances too; redrawing only theta under a huge
    variance draw would both bias the result and loop forever.
    """
    row = _first_admissible(initial, grid, rng, 1, hyper)[0]
    return row[-len(PARAM_CLASSES):], ThetaVector.from_classes(grid.class_views(row))


def prior_sample(initial: ThetaVector, hyper: HyperParams, grid: ModelGrid,
                 n_draws: int, seed: int = 0) -> PosteriorSample:
    """Direct Monte Carlo sample from the prior, packaged like an MCMC run."""
    rows = _first_admissible(initial, grid, np.random.default_rng(seed), n_draws, hyper)
    config = SamplerConfig(iterations=n_draws, burn_in=0, thin=1, chains=1, seed=seed)
    return PosteriorSample(grid=grid, draws=grid.class_views(rows),
                           sigma2=rows[:, -len(PARAM_CLASSES):],
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
