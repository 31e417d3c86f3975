"""Metropolis-within-Gibbs sampler for the joint posterior of (theta, variances).

Each sweep updates every projection parameter one at a time with a
Gaussian random walk on that parameter's transformed scale (log for
counts, fertility and srb, logit for survival, natural scale for
migration), then draws all five variances from their conjugate
inverse-gamma full conditionals. The scan order is fixed: baseline
counts (age, sex), fertility (age, period), survival (age, period,
sex), migration (age, period, sex), srb (period).

Because the walk happens in the transformed coordinates the prior
densities apply directly and acceptance ratios need no Jacobian. A
proposal whose re-projection produces a negative count anywhere is
rejected outright; that is the positivity restriction of the prior.

Proposal scales adapt during burn-in only, by a Robbins-Monro step on
the log scale toward a 0.44 acceptance rate, and are frozen afterwards
so the retained draws come from a fixed transition kernel.

Changing a parameter of period t leaves all states up to t untouched,
so each update re-projects only from the first affected period. The
suffix states come from the same step function as a full projection
and are bitwise identical to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .grid import (PARAM_CLASSES, SEX_LABELS,
                   CensusData, ModelGrid, ThetaVector, VarianceParams)
from .priors import (HyperParams, InitialEstimates, log_invgamma,
                     log_likelihood_census, log_prior_theta, transform)
from .projection import Trajectory, _step_counts, positivity_indicator, project_full

# acceptance rate the burn-in adaptation steers each proposal scale toward
TARGET_ACCEPT = 0.44


class ConfigError(ValueError):
    """Sampler configuration that cannot produce a valid run."""


class SamplingError(RuntimeError):
    """Raised when a run cannot start or continue (for example an
    initial point with zero posterior density)."""


@dataclass(frozen=True)
class SamplerConfig:
    iterations: int
    burn_in: int
    thin: int = 1
    chains: int = 1
    seed: int = 0
    # which parameter classes move; the rest stay at their start values
    sample_classes: tuple = PARAM_CLASSES
    update_variances: bool = True

    def check(self):
        if self.iterations <= 0 or self.burn_in < 0 or self.thin <= 0 or self.chains <= 0:
            raise ConfigError("iterations, thin and chains must be positive; burn_in nonnegative")
        if self.iterations <= self.burn_in:
            raise ConfigError(
                f"no draws left after burn-in: iterations={self.iterations}"
                f" burn_in={self.burn_in}"
            )
        if (self.iterations - self.burn_in) % self.thin != 0:
            raise ConfigError("iterations - burn_in must be a multiple of thin")
        unknown = set(self.sample_classes) - set(PARAM_CLASSES)
        if unknown:
            raise ConfigError(f"unknown parameter classes: {sorted(unknown)}")


@dataclass(frozen=True)
class PosteriorSample:
    """Retained draws from one run (all chains concatenated).

    draws maps each parameter class to an array with a leading draw
    axis, on the natural scale; sigma2 is (n_draws, 5) in PARAM_CLASSES
    order; chain labels each draw. acceptance maps each class to the
    post-burn-in acceptance rate per component, per chain.
    """

    grid: ModelGrid
    draws: Mapping
    sigma2: np.ndarray
    chain: np.ndarray
    acceptance: Mapping
    config: SamplerConfig

    @property
    def n_draws(self) -> int:
        return self.sigma2.shape[0]

    def theta_at(self, i) -> ThetaVector:
        """Parameters of draw i. A slice or index array gives the stacked
        draws, each array with a leading draw axis."""
        return ThetaVector.from_classes({c: a[i] for c, a in self.draws.items()})

    def variances_at(self, i: int) -> VarianceParams:
        return VarianceParams(*self.sigma2[i])

    def flat(self) -> np.ndarray:
        """(n_draws, n_params) matrix in ``parameter_names`` order."""
        cols = [self.draws[c].reshape(self.n_draws, -1) for c in PARAM_CLASSES]
        cols.append(self.sigma2)
        return np.concatenate(cols, axis=1)

    def chain_ids(self) -> list:
        return sorted(set(int(c) for c in self.chain))


def parameter_names(grid: ModelGrid) -> list:
    """Scalar parameter names in the order used by ``PosteriorSample.flat``.

    Within each class the order is the C order of its array.
    """
    names = []
    years = [int(y) for y in grid.period_years]
    for a in grid.ages:
        for l in SEX_LABELS:
            names.append(f"baseline[{a},{l}]")
    for a in grid.fertile_ages:
        for y in years:
            names.append(f"fertility[{a},{y}]")
    for a in grid.survival_ages:
        for y in years:
            for l in SEX_LABELS:
                names.append(f"survival[{a},{y},{l}]")
    for a in grid.ages:
        for y in years:
            for l in SEX_LABELS:
                names.append(f"migration[{a},{y},{l}]")
    for y in years:
        names.append(f"srb[{y}]")
    for c in PARAM_CLASSES:
        names.append(f"sigma2[{c}]")
    return names


def log_posterior(theta: ThetaVector, variances: VarianceParams,
                  initial: InitialEstimates, hyper: HyperParams,
                  census: Optional[CensusData], grid: ModelGrid) -> float:
    """Joint log posterior up to a constant; -inf on a positivity violation."""
    traj = project_full(theta.baseline, theta, grid)
    if not positivity_indicator(traj):
        return float("-inf")
    total = log_prior_theta(theta, initial, variances)
    if census is not None:
        proj_ok = all(np.all(traj.at(y) > 0) for y in grid.likelihood_years if y in census.years)
        if not proj_ok:
            return float("-inf")
        total += log_likelihood_census(traj, census, variances.counts, grid)
    for i, cls in enumerate(PARAM_CLASSES):
        total += log_invgamma(getattr(variances, cls), hyper.alpha[cls], hyper.beta[cls])
    return float(total)


def variance_posterior(alpha: float, beta: float, m: int, ss: float) -> tuple:
    """Conjugate inverse-gamma full-conditional parameters given m squared
    residuals summing to ss."""
    return alpha + 0.5 * m, beta + 0.5 * ss


def _draw_invgamma(rng: np.random.Generator, shape: float, scale: float) -> float:
    """One inverse-gamma draw: reciprocal of a gamma draw."""
    return 1.0 / rng.gamma(shape, 1.0 / scale)


# ---------------------------------------------------------------------------
# chain machinery


def _nat_scalar(cls: str, x: float) -> float:
    """Natural-scale value of one transformed scalar, overflow safe."""
    if cls == "survival":
        if x >= 0:
            return 1.0 / (1.0 + math.exp(-x)) if x < 700.0 else 1.0
        return math.exp(x) / (1.0 + math.exp(x)) if x > -700.0 else 0.0
    if cls == "migration":
        return x
    return math.exp(x) if x < 709.0 else math.inf


class ChainState:
    """Mutable state of one chain: transformed parameters, their natural
    values, the cached trajectory and the census fit statistics.

    The cached pieces are kept consistent by ``update_component`` and
    ``update_variances``; everything else should treat instances as
    read-only.
    """

    def __init__(self, grid: ModelGrid, initial: InitialEstimates,
                 census: Optional[CensusData], hyper: HyperParams,
                 config: SamplerConfig):
        self.grid = grid
        self.initial = initial
        self.census = census
        self.hyper = hyper
        self.config = config
        K, P = grid.n_ages, grid.n_periods
        self.fertile_index = grid.fertile_index

        cents = initial.by_class()
        self.mu = {c: transform(c, v).ravel() for c, v in cents.items()}
        for c in PARAM_CLASSES:
            if not np.all(np.isfinite(self.mu[c])):
                raise SamplingError(f"initial estimates are not finite on the {c} transformed scale")
        self.x = {c: self.mu[c].copy() for c in PARAM_CLASSES}
        self.nat = {c: np.array(v, dtype=np.float64) for c, v in cents.items()}

        # start the variances at their prior modes (deterministic)
        self.sigma2 = np.array([hyper.beta[c] / (hyper.alpha[c] + 1.0) for c in PARAM_CLASSES])

        self.traj = np.empty((P + 1, K, 2))
        self.scratch = np.empty_like(self.traj)
        self._reproject_into(self.traj, 0)
        if np.any(self.traj < 0) or np.any(~np.isfinite(self.traj)):
            raise SamplingError(
                "initial estimates project to a negative or non-finite count;"
                f" first offence at {Trajectory(self.traj.copy(), grid.stock_years).first_negative()}"
            )

        # census bookkeeping: log observations and per-year squared misfit
        self.cen_pos = []
        self.cen_logobs = []
        if census is not None:
            for year in grid.likelihood_years:
                if year in census.years:
                    self.cen_pos.append(grid.year_index(year))
                    self.cen_logobs.append(np.log(census.at(year)))
        self.cen_pos = np.array(self.cen_pos, dtype=np.intp)
        self.quad = np.array([self._year_quad(i) for i in range(len(self.cen_pos))])
        if self.quad.size and not np.all(np.isfinite(self.quad)):
            raise SamplingError("initial estimates give zero projected counts at a census year")
        self.n_cen_cells = sum(lo.size for lo in self.cen_logobs)

        # scan table: (class, flat index, first trajectory row affected)
        self.components = []
        for cls in config.sample_classes:
            size = self.x[cls].size
            for j in range(size):
                self.components.append((cls, j, self._first_affected(cls, j)))
        self.n_components = len(self.components)

        # proposal scales start at sqrt(beta/alpha), the scale of the
        # marginal t prior
        self.log_scale = {}
        for cls in PARAM_CLASSES:
            s0 = math.sqrt(hyper.beta[cls] / hyper.alpha[cls])
            self.log_scale[cls] = np.full(self.x[cls].size, math.log(s0))

    def _first_affected(self, cls: str, j: int) -> int:
        """First trajectory row (state index) that a component invalidates."""
        if cls == "counts":
            return 0
        P = self.grid.n_periods
        if cls == "srb":
            p = j
        elif cls == "fertility":
            p = j % P
        else:  # survival, migration: C order over (age, period, sex)
            p = (j // 2) % P
        return p + 1

    def _reproject_into(self, buf: np.ndarray, first: int):
        """Recompute trajectory rows first..P into buf from current rates."""
        nat = self.nat
        if first == 0:
            buf[0] = nat["counts"]
            prev = buf[0]
            start = 1
        else:
            prev = self.traj[first - 1]
            start = first
        fert, surv = nat["fertility"], nat["survival"]
        mig, srb = nat["migration"], nat["srb"]
        for i in range(start, self.grid.n_periods + 1):
            p = i - 1
            prev = _step_counts(prev, fert[:, p], surv[:, p, :], mig[:, p, :],
                                float(srb[p]), self.fertile_index)
            buf[i] = prev

    def _year_quad(self, ci: int, traj: Optional[np.ndarray] = None) -> float:
        """Squared log misfit of one census year against a trajectory buffer."""
        t = self.traj if traj is None else traj
        proj = t[self.cen_pos[ci]]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = self.cen_logobs[ci] - np.log(proj)
        return float(np.sum(r * r))

    def update_component(self, comp: int, scale: float, z: float, logu: float) -> tuple:
        """Metropolis step for one scan-table entry.

        Returns (accepted, acceptance probability). Mutates the cached
        state only on acceptance.
        """
        cls, j, first = self.components[comp]
        cls_i = PARAM_CLASSES.index(cls)
        x = self.x[cls]
        x_old = x[j]
        x_new = x_old + scale * z
        mu = self.mu[cls][j]
        s2 = self.sigma2[cls_i]
        dlp = -0.5 * ((x_new - mu) ** 2 - (x_old - mu) ** 2) / s2

        nat = self.nat[cls]
        nat_flat = nat.reshape(-1)
        nat_old = nat_flat[j]
        nat_flat[j] = _nat_scalar(cls, x_new)

        self._reproject_into(self.scratch, first)
        tail = self.scratch[first:]
        if not np.all(tail >= 0.0):  # also rejects NaN
            nat_flat[j] = nat_old
            return False, 0.0

        affected = np.nonzero(self.cen_pos >= first)[0]
        new_quads = np.array([self._year_quad(ci, self.scratch) for ci in affected])
        if affected.size:
            dll = -0.5 * (float(np.sum(new_quads)) - float(np.sum(self.quad[affected]))) \
                / self.sigma2[0]
        else:
            dll = 0.0

        log_alpha = dlp + dll
        if math.isnan(log_alpha):
            log_alpha = float("-inf")
        if logu < log_alpha:
            x[j] = x_new
            self.traj[first:] = tail
            if affected.size:
                self.quad[affected] = new_quads
            return True, min(1.0, math.exp(min(log_alpha, 0.0)))
        nat_flat[j] = nat_old
        return False, min(1.0, math.exp(log_alpha)) if log_alpha > -math.inf else 0.0

    def update_variances(self, rng: np.random.Generator):
        """Gibbs draw of all five variances given the current parameters.
        The counts class pools the baseline residuals with the census log
        residuals at the likelihood years: one variance governs both."""
        for i, cls in enumerate(PARAM_CLASSES):
            r = self.x[cls] - self.mu[cls]
            m, ss = r.size, float(r @ r)
            if cls == "counts":
                m += self.n_cen_cells
                ss += float(np.sum(self.quad))
            a, b = variance_posterior(self.hyper.alpha[cls], self.hyper.beta[cls], m, ss)
            self.sigma2[i] = _draw_invgamma(rng, a, b)

    def theta(self) -> ThetaVector:
        return ThetaVector.from_classes(self.nat)


def run_chain(config: SamplerConfig, grid: ModelGrid, initial: InitialEstimates,
              census: Optional[CensusData], hyper: HyperParams) -> PosteriorSample:
    """Run the configured number of chains and collect retained draws.

    Each chain starts at the initial estimates with the variances at
    their prior modes, uses its own RNG stream spawned from the seed,
    and adapts proposal scales during burn-in only. Raises
    SamplingError if the starting point has zero posterior density.
    """
    config.check()
    per_chain = (config.iterations - config.burn_in) // config.thin
    total = per_chain * config.chains

    shapes = grid.class_shapes()
    draws = {c: np.empty((total,) + shape) for c, shape in shapes.items()}
    sig = np.empty((total, len(PARAM_CLASSES)))
    chain_lab = np.empty(total, dtype=np.int64)
    acc = {c: np.zeros((config.chains, math.prod(shape))) for c, shape in shapes.items()}

    streams = np.random.SeedSequence(config.seed).spawn(config.chains)
    pos = 0
    for c in range(config.chains):
        rng = np.random.default_rng(streams[c])
        state = ChainState(grid, initial, census, hyper, config)
        ncomp = state.n_components
        acc_counts = {cls: np.zeros(state.x[cls].size) for cls in PARAM_CLASSES}
        for it in range(config.iterations):
            adapting = it < config.burn_in
            if ncomp:
                zs = rng.standard_normal(ncomp)
                us = rng.random(ncomp)
                gamma = (it + 1.0) ** -0.6 if adapting else 0.0
                for k in range(ncomp):
                    cls, j, _ = state.components[k]
                    scale = math.exp(state.log_scale[cls][j])
                    accepted, aprob = state.update_component(
                        k, scale, zs[k], math.log(us[k]) if us[k] > 0.0 else -math.inf)
                    if adapting:
                        state.log_scale[cls][j] += gamma * (aprob - TARGET_ACCEPT)
                    elif accepted:
                        acc_counts[cls][j] += 1.0
            if config.update_variances:
                state.update_variances(rng)
            if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
                for cls in PARAM_CLASSES:
                    draws[cls][pos] = state.nat[cls]
                sig[pos] = state.sigma2
                chain_lab[pos] = c
                pos += 1
        post = config.iterations - config.burn_in
        for cls in PARAM_CLASSES:
            acc[cls][c] = acc_counts[cls] / max(post, 1)

    acc = {c: acc[c].reshape((config.chains,) + shapes[c]) for c in PARAM_CLASSES}
    return PosteriorSample(grid=grid, draws=draws, sigma2=sig, chain=chain_lab,
                           acceptance=acc, config=config)
