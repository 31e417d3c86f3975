"""Metropolis-within-Gibbs sampler for the joint posterior of (theta, variances).

Each sweep updates every projection parameter one at a time with a
Gaussian random walk on that parameter's transformed scale (log for
counts, fertility and srb, logit for survival, natural scale for
migration), then draws all five variances from their conjugate
inverse-gamma full conditionals. The scan order is fixed, the
``parameter_names`` order over the sampled classes: baseline counts
(age, sex), fertility (age, period), survival (age, period, sex),
migration (age, period, sex), srb (period).

Because the walk happens in the transformed coordinates the prior
densities apply directly and acceptance ratios need no Jacobian. A
proposal whose re-projection produces a negative or non-finite count
anywhere is rejected outright; that is the positivity restriction of the
prior.

Proposal scales adapt during burn-in only, by a Robbins-Monro step on
the log scale toward a 0.44 acceptance rate, and are frozen afterwards
so the retained draws come from a fixed transition kernel.

Changing a parameter of period t leaves all states up to t untouched,
so each update re-projects only from the first affected period. The
suffix states come from the same step function as a full projection
and are bitwise identical to one.

``ChainState`` keeps what each re-projected step needs ready, built
once as tables of views: the ``rate_terms`` of every period (period as
the batch axis), a period-major copy of survival, a rates tuple of
views per period over both, the row views of its trajectory and of its
scratch buffer, and one work buffer. A step reads its source row's
views and writes its destination row's in place, so re-projecting a
suffix slices and allocates nothing. A proposal rewrites only the
cached entries its scalar feeds (g/2, 1 + g/2 and the age-0 factor for
migration, the survival copy and at age 0 the factor for survival, the
birth shares for srb) and a rejection restores them, so the cache
always equals ``rate_terms`` of the current rates, bit for bit.

Births come from female counts at the fertile ages only, and each step
moves every cohort one age group up, so most proposals cannot change
them. ``ChainState`` keeps each period's births by sex next to its
trajectory, and its scan table marks the entries that feed them:
fertility, srb, and the female count, survival and migration entries
whose youngest changed age group in their first re-projected row is at
or below the last fertile group (see ``ChainState._feeds``). A feeding
entry's re-projection computes births into a scratch row, copied to the
cache when it is accepted; every other entry's steps read the cache.
The census misfit of every census year a proposal reaches is one vectorised
expression over the stacked log observations of those years.

Chains share only their inputs, and each has its own RNG stream spawned
from the seed. ``run_chain`` therefore splits them into contiguous
groups, one per usable CPU, and ``_fork_map`` runs them: the calling
process runs the first group, forked workers run the others, and the
groups' draws are joined in chain order, equal bit for bit to running
every chain in one process. The calling process keeps a group so that a
profiler or wrapper installed in it still sees the work of that group's
chains, and forked rather than spawned workers need not import the
package again. ``io.read_samples`` parses the blocks of a large sample
table the same way.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Mapping, Optional

import numpy as np

from .grid import FEMALE, PARAM_CLASSES, CensusData, ModelGrid, ThetaVector
from .priors import LOG_SCALE_CLASSES, HyperParams, draw_invgamma, log_invgamma, transform
from .projection import (Trajectory, _rate_views, _row_views, _step_counts, _step_work,
                         positivity_indicator, project_full, rate_terms)

# acceptance rate the burn-in adaptation steers each proposal scale toward
TARGET_ACCEPT = 0.44

_LOG_2PI = float(np.log(2.0 * np.pi))


class ConfigError(ValueError):
    """Sampler configuration that cannot produce a valid run."""


class SamplingError(RuntimeError):
    """Raised when a run cannot start or continue (for example an
    initial point with zero posterior density)."""


# the SamplerConfig fields a config file's ``sampler:`` section and the
# ``sample`` command's flags may set
SAMPLER_SETTINGS = ("iterations", "burn_in", "thin", "chains", "seed")


@dataclass(frozen=True)
class SamplerConfig:
    iterations: int = 5000
    burn_in: int = 2500
    thin: int = 1
    chains: int = 1
    seed: int = 0
    # which parameter classes move; the rest stay at their start values
    sample_classes: tuple = PARAM_CLASSES
    update_variances: bool = True

    def check(self):
        if self.iterations <= 0 or self.burn_in < 0 or self.thin <= 0 or self.chains <= 0:
            raise ConfigError("iterations, thin and chains must be positive; burn_in nonnegative")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
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
    order; chain labels each draw. ``run_chain``, ``prior_sample`` and
    ``io.read_samples`` give both as views of one draw matrix carved by
    ``ModelGrid.class_views``. acceptance maps each class to the
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

    def flat(self) -> np.ndarray:
        """(n_draws, n_params) matrix in ``parameter_names`` order."""
        cols = [self.draws[c].reshape(self.n_draws, -1) for c in PARAM_CLASSES]
        cols.append(self.sigma2)
        return np.concatenate(cols, axis=1)


def parameter_names(grid: ModelGrid) -> list:
    """Scalar parameter names in the order used by ``PosteriorSample.flat``:
    each class's cells in the C order of its array, labelled by
    ``ModelGrid.class_axes`` and named by ``ThetaVector`` field, then the
    five variances. ``ModelGrid.class_slices`` gives each class's range."""
    names = [f"{f.name}[{','.join(key)}]"
             for f, axes in zip(fields(ThetaVector), grid.class_axes().values())
             for key in itertools.product(*(map(str, ax) for ax in axes))]
    return names + [f"sigma2[{c}]" for c in PARAM_CLASSES]


def _gauss_block(x: np.ndarray, center: np.ndarray, sigma2: float) -> float:
    """Sum of iid Gaussian log densities of x around center."""
    quad = float(np.sum((x - center) ** 2))
    return -0.5 * quad / sigma2 - 0.5 * x.size * (_LOG_2PI + np.log(sigma2))


def log_posterior(theta: ThetaVector, sigma2, initial: ThetaVector,
                  hyper: HyperParams, census: Optional[CensusData],
                  grid: ModelGrid) -> float:
    """Joint log posterior up to a constant, evaluated from scratch; sigma2
    holds the five variances in PARAM_CLASSES order (a row of
    ``PosteriorSample.sigma2``).

    The sum of each class's Gaussian log prior around its initial estimate,
    a density of its transformed values (``priors.transform``), which the
    sampler walks in; the Gaussian log likelihood of log census counts
    around log projections at ``grid.likelihood_years`` (a baseline census
    centres the counts prior instead and is ignored); and each variance's
    inverse-gamma log prior. -inf when the projection fails
    ``positivity_indicator`` or, given a census, is zero at a census year.
    ValueError for a value outside its class's log or logit domain and for
    a nonpositive census count.
    """
    traj = project_full(theta.baseline, theta, grid)
    if not positivity_indicator(traj.counts):
        return float("-inf")
    cents = initial.by_class()
    total = 0.0
    for (cls, x), s2 in zip(theta.by_class().items(), sigma2):
        c = cents[cls]
        if cls in LOG_SCALE_CLASSES and (np.any(x <= 0) or np.any(c <= 0)):
            raise ValueError(f"{cls}: log scale requires strictly positive values")
        if cls == "survival" and (np.any(x <= 0) or np.any(x >= 1)):
            raise ValueError("survival: logit scale requires values inside (0, 1)")
        total += _gauss_block(transform(cls, x), transform(cls, c), s2)
    if census is not None:
        years = grid.likelihood_years
        if not all(np.all(traj.at(y) > 0) for y in years):
            return float("-inf")
        lik = 0.0
        for y in years:
            obs = census.at(y)
            if np.any(obs <= 0):
                raise ValueError(f"census count nonpositive at year {y}")
            lik += _gauss_block(np.log(obs), np.log(traj.at(y)), sigma2[0])
        total += lik
    for cls, s2 in zip(PARAM_CLASSES, sigma2):
        total += log_invgamma(s2, hyper.alpha[cls], hyper.beta[cls])
    return float(total)


def variance_posterior(alpha: float, beta: float, m: int, ss: float) -> tuple:
    """Conjugate inverse-gamma full-conditional parameters given m squared
    residuals summing to ss."""
    return alpha + 0.5 * m, beta + 0.5 * ss


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
    """Mutable state of one chain: transformed parameters, their prior
    centres and proposal log scales (flat vectors in ``parameter_names``
    order), their natural values, the cached trajectory and the census fit
    statistics.

    The step kernel's arguments are tables built here once: the
    ``_rate_views`` of each period over the cached rate terms and the
    natural rates, the ``_row_views`` of every row of ``traj`` and of
    ``scratch``, one ``_step_work`` buffer, and the rows of the births by
    sex of ``traj`` (``births``) and of ``scratch`` (``scratch_births``).
    A re-projection passes table entries to ``_step_counts`` and nothing
    else.

    The cached pieces are kept consistent by ``update_component`` and
    ``update_variances``; everything else should treat instances as
    read-only.
    """

    def __init__(self, grid: ModelGrid, initial: ThetaVector,
                 census: Optional[CensusData], hyper: HyperParams,
                 config: SamplerConfig):
        self.grid = grid
        self.hyper = hyper
        K, P = grid.n_ages, grid.n_periods

        # transformed parameters and their prior centres, flat in
        # parameter_names order; class_slices carves each class
        cents = initial.by_class()
        self.slices = grid.class_slices()
        with np.errstate(divide="ignore", invalid="ignore"):  # a start <= 0 is refused below
            self.mu = np.concatenate([transform(c, v).ravel() for c, v in cents.items()])
        for c, sl in self.slices.items():
            if not np.all(np.isfinite(self.mu[sl])):
                raise SamplingError(f"initial estimates are not finite on the {c} transformed scale")
        self.x = self.mu.copy()
        self.nat = {c: np.array(v, dtype=np.float64) for c, v in cents.items()}

        # start the variances at their prior modes (deterministic)
        self.sigma2 = np.array([hyper.beta[c] / (hyper.alpha[c] + 1.0) for c in PARAM_CLASSES])

        # rate terms by period, and the views the step kernel reads and
        # writes, built once: one rates tuple per period (a proposal
        # refreshes only the terms it touches, see _refresh_terms), the
        # rows of traj and of scratch, and one work buffer. Survival is
        # also kept period-major, so that the (K+1, 2) survival of a
        # period that the kernel reads is contiguous.
        self.surv_by_period = np.ascontiguousarray(np.moveaxis(self.nat["survival"], 1, 0))
        self.terms = rate_terms(self.surv_by_period, np.moveaxis(self.nat["migration"], 1, 0),
                                self.nat["srb"])
        fert, fi = self.nat["fertility"], grid.fertile_index
        grow_half, factor0, shares = self.terms
        self._rates = [_rate_views(self.surv_by_period[p], fert[:, p],
                                   (grow_half[:, p], factor0[p], shares[p]), fi)
                       for p in range(P)]
        # flat views for the proposal writes. fertility read from CSV is
        # Fortran-ordered, so its reshape is a copy and the write never
        # reaches nat (ROADMAP item 1); that layout is carried as is.
        self._nat_flat = {c: v.reshape(-1) for c, v in self.nat.items()}

        self.traj = np.empty((P + 1, K, 2))
        self.scratch = np.empty_like(self.traj)
        self._traj_rows = [_row_views(row, fi) for row in self.traj]
        self._scratch_rows = [_row_views(row, fi) for row in self.scratch]
        self._work = _step_work((), K, fi)
        # births by sex of each period of traj, and of scratch
        self.births = np.empty((P, 2))
        self.scratch_births = np.empty_like(self.births)
        self._births_rows = list(self.births)
        self._scratch_births_rows = list(self.scratch_births)
        self._reproject_into(self._traj_rows, self._births_rows, 0, True)
        if not positivity_indicator(self.traj):
            raise SamplingError(
                "initial estimates project to a negative or non-finite count;"
                f" first offence at {Trajectory(self.traj, grid.stock_years).first_negative()}"
            )

        # census bookkeeping: trajectory rows of the census years, their
        # log observations stacked, and the per-year squared misfit
        years = grid.likelihood_years if census is not None else ()
        self.cen_pos = np.array([grid.year_index(y) for y in years], dtype=np.intp)
        self.cen_logobs = np.array([np.log(census.at(y)) for y in years]).reshape(-1, K, 2)
        self.n_cen_cells = self.cen_logobs.size
        # per first re-projected row: the first census entry it reaches
        # (census rows ascend, so the reached entries are a suffix), and
        # those entries' trajectory rows and log observations
        self._cen_from = [(lo, self.cen_pos[lo:], self.cen_logobs[lo:])
                          for lo in np.searchsorted(self.cen_pos, np.arange(P + 1)).tolist()]
        with np.errstate(divide="ignore", invalid="ignore"):
            self.quad = self._census_quads(self.traj, 0)
        if not np.all(np.isfinite(self.quad)):
            raise SamplingError("initial estimates give zero projected counts at a census year")

        # scan table over the sampled classes in parameter_names order:
        # (flat index, first trajectory row affected, rate terms fed or
        # None, class, its index in PARAM_CLASSES, index within the class,
        # whether it feeds births)
        self.components = []
        for ci, (cls, axes) in enumerate(grid.class_axes().items()):
            if cls in config.sample_classes:
                start = self.slices[cls].start
                for j, pos in enumerate(np.ndindex(*map(len, axes))):
                    first, touched, fresh = self._feeds(cls, pos)
                    self.components.append((start + j, first, touched, cls, ci, j, fresh))
        self.n_components = len(self.components)

        # proposal scales start at sqrt(beta/alpha), the scale of the
        # marginal t prior
        self.log_scale = np.concatenate([
            np.full(sl.stop - sl.start, math.log(math.sqrt(hyper.beta[c] / hyper.alpha[c])))
            for c, sl in self.slices.items()])

    def _feeds(self, cls: str, pos: tuple) -> tuple:
        """(first trajectory row, cached terms, births) of the component at
        array position pos of a class: the row after its period (0 for
        baseline counts), (kind, period, age, sex) of the cached terms it
        feeds or None, and whether it can change births.

        Migration feeds the stacked (1 + g/2, g/2), survival its
        period-major copy, both the age-0 factor at age 0, and srb the
        birth shares. Fertility and srb feed births. A count, survival or
        migration entry feeds them when it is female and the youngest age
        group it changes in its first row is at or below the last fertile
        group: count a changes group a, survival a the survivors into
        group a and migration a the migrants arriving in a+1, each capped
        at the open group, and at age 0 both change group 0 through the
        age-0 factor. Cohorts only age from there, so a younger fertile
        group never sees the change."""
        if cls == "counts":
            a, sex = pos
            first, touched, youngest = 0, None, a
        elif cls == "srb":
            return pos[0] + 1, ("srb", pos[0], 0, 0), True
        elif cls == "fertility":
            return pos[1] + 1, None, True
        else:
            a, p, sex = pos
            first, touched = p + 1, (cls, p, a, sex)
            youngest = min(a + (cls == "migration"), self.grid.n_ages - 1) if a else 0
        return first, touched, sex == FEMALE and youngest <= int(self.grid.fertile_index[-1])

    def _refresh_terms(self, touched):
        """Recompute the cached terms that one component feeds from the
        current natural values, with the arithmetic of ``rate_terms``."""
        kind, p, a, sex = touched
        grow_half, factor0, shares = self.terms
        if kind == "srb":
            srb = self.nat["srb"][p]
            shares[p, 0] = 1.0 / (1.0 + srb)
            shares[p, 1] = srb / (1.0 + srb)
            return
        if kind == "survival":
            self.surv_by_period[p, a, sex] = self.nat["survival"][a, p, sex]
        else:
            hg = 0.5 * self.nat["migration"][a, p, sex]
            grow_half[1, p, a, sex] = hg
            grow_half[0, p, a, sex] = 1.0 + hg
        if a == 0:
            factor0[p, sex] = (self.surv_by_period[p, 0, sex] * grow_half[0, p, 0, sex]
                               + grow_half[1, p, 0, sex])

    def _reproject_into(self, rows: list, births: list, first: int, fresh: bool):
        """Recompute trajectory rows first..P into rows, the row views of
        traj or of scratch, from current rates. births holds the rows of
        each period's births by sex: when fresh, each step computes its
        period's into them, otherwise it reads them from there."""
        if first == 0:
            np.copyto(rows[0][0], self.nat["counts"])
            src = rows[0]
            first = 1
        else:
            src = self._traj_rows[first - 1]
        rates, work = self._rates, self._work
        for i in range(first, len(rows)):
            dst = rows[i]
            _step_counts(src, dst, rates[i - 1], work, births[i - 1], fresh)
            src = dst

    def _census_quads(self, traj: np.ndarray, first: int) -> np.ndarray:
        """Squared log misfit of every census year at or after row first,
        against a trajectory buffer."""
        _, rows, logobs = self._cen_from[first]
        r = logobs - np.log(traj[rows])
        return np.add.reduce(r * r, axis=(1, 2))

    def update_component(self, comp: int, scale: float, z: float, logu: float) -> tuple:
        """Metropolis step for one scan-table entry.

        Returns (accepted, acceptance probability). Mutates the cached
        state only on acceptance; a proposal that breaks positivity has
        probability 0 and is undone like any other rejection.
        """
        i, first, touched, cls, cls_i, j, fresh = self.components[comp]
        x_old = self.x[i]
        x_new = x_old + scale * z
        mu = self.mu[i]
        dlp = -0.5 * ((x_new - mu) ** 2 - (x_old - mu) ** 2) / self.sigma2[cls_i]

        nat_flat = self._nat_flat[cls]
        nat_old = nat_flat[j]
        nat_flat[j] = _nat_scalar(cls, x_new)
        if touched is not None:
            self._refresh_terms(touched)

        scratch = self.scratch
        self._reproject_into(self._scratch_rows,
                             self._scratch_births_rows if fresh else self._births_rows,
                             first, fresh)
        tail = scratch[first:]
        log_alpha = float("-inf")
        if positivity_indicator(tail):
            lo = self._cen_from[first][0]
            new_quads = self._census_quads(scratch, first)
            dll = -0.5 * (float(np.add.reduce(new_quads))
                          - float(np.add.reduce(self.quad[lo:]))) / self.sigma2[0]
            if not math.isnan(dlp + dll):
                log_alpha = dlp + dll
        aprob = math.exp(min(log_alpha, 0.0))
        if logu < log_alpha:
            self.x[i] = x_new
            self.traj[first:] = tail
            self.quad[lo:] = new_quads
            if fresh:
                period = max(first - 1, 0)
                self.births[period:] = self.scratch_births[period:]
            return True, aprob
        nat_flat[j] = nat_old
        if touched is not None:
            self._refresh_terms(touched)
        return False, aprob

    def update_variances(self, rng: np.random.Generator):
        """Gibbs draw of all five variances given the current parameters.
        The counts class pools the baseline residuals with the census log
        residuals at the likelihood years: one variance governs both."""
        for i, (cls, sl) in enumerate(self.slices.items()):
            r = self.x[sl] - self.mu[sl]
            m, ss = r.size, float(r @ r)
            if cls == "counts":
                m += self.n_cen_cells
                ss += float(np.sum(self.quad))
            a, b = variance_posterior(self.hyper.alpha[cls], self.hyper.beta[cls], m, ss)
            self.sigma2[i] = draw_invgamma(rng, a, b)

    def theta(self) -> ThetaVector:
        return ThetaVector.from_classes(self.nat)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _can_fork() -> bool:
    """Whether work may go to forked workers: the fork start method exists
    and this process runs no other thread, since forking a process that
    runs other threads can copy a lock one of them holds."""
    return ("fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1)


_forked_fn = None  # in a worker of _fork_map, the function it runs


def _set_forked_fn(fn):
    """Pool initializer, run in each worker: keep fn, and end the worker
    as soon as its parent ends, even by a kill that runs no cleanup (the
    parent's sentinel reads end-of-file then)."""
    global _forked_fn
    _forked_fn = fn
    sentinel = multiprocessing.parent_process().sentinel
    threading.Thread(target=lambda: os.read(sentinel, 1) or os._exit(1), daemon=True).start()


def _call_forked_fn(*args):
    return _forked_fn(*args)


def _fork_map(fn, items: list) -> list:
    """[fn(*item) for item in items], in order. The first item runs in
    this process and each other one in a forked worker of its own, so
    callers give at most ``_usable_cpus()`` items, and more than one only
    where ``_can_fork()``. One item starts no process. fn reaches the
    workers through the fork, not by pickling, so it may close over what
    cannot be pickled, such as a shared mapping; items and results are
    pickled. A worker's exception is raised here; a worker that dies
    raises BrokenProcessPool, a RuntimeError."""
    if len(items) == 1:
        return [fn(*items[0])]
    with ProcessPoolExecutor(len(items) - 1, mp_context=multiprocessing.get_context("fork"),
                             initializer=_set_forked_fn, initargs=(fn,)) as pool:
        futures = [pool.submit(_call_forked_fn, *item) for item in items[1:]]
        return [fn(*items[0])] + [f.result() for f in futures]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _run_chains(chain_ids: list, config: SamplerConfig, grid: ModelGrid,
                initial: ThetaVector, census: Optional[CensusData],
                hyper: HyperParams) -> tuple:
    """Run the given chains one after another.

    Returns their retained draws as the rows of one (draws, n_params)
    matrix in ``parameter_names`` order, and their post-burn-in
    acceptance counts (a row per chain, a column per scalar of theta),
    each in chain order. Projections that overflow are
    rejected by the positivity check, and a zero projected count at a
    census year gives an infinite misfit that the Metropolis step
    rejects, so numpy's overflow, invalid and divide warnings are
    silenced here.
    """
    per_chain = (config.iterations - config.burn_in) // config.thin
    total = per_chain * len(chain_ids)
    n_theta = grid.class_slices()["srb"].stop
    rows = np.empty((total, n_theta + len(PARAM_CLASSES)))
    draws = grid.class_views(rows)
    acc = np.zeros((len(chain_ids), n_theta))

    streams = np.random.SeedSequence(config.seed).spawn(config.chains)
    pos = 0
    for acc_c, c in zip(acc, chain_ids):
        rng = np.random.default_rng(streams[c])
        state = ChainState(grid, initial, census, hyper, config)
        ncomp = state.n_components
        flat_index = [comp[0] for comp in state.components]
        log_scale = state.log_scale
        for it in range(config.iterations):
            adapting = it < config.burn_in
            if ncomp:
                zs = rng.standard_normal(ncomp)
                us = rng.random(ncomp)
                gamma = (it + 1.0) ** -0.6 if adapting else 0.0
                for k, i in enumerate(flat_index):
                    accepted, aprob = state.update_component(
                        k, math.exp(log_scale[i]), zs[k],
                        math.log(us[k]) if us[k] > 0.0 else -math.inf)
                    if adapting:
                        log_scale[i] += gamma * (aprob - TARGET_ACCEPT)
                    elif accepted:
                        acc_c[i] += 1.0
            if config.update_variances:
                state.update_variances(rng)
            if it >= config.burn_in and (it - config.burn_in) % config.thin == 0:
                for cls, view in draws.items():
                    view[pos] = state.nat[cls]
                rows[pos, n_theta:] = state.sigma2
                pos += 1
    return rows, acc


def run_chain(config: SamplerConfig, grid: ModelGrid, initial: ThetaVector,
              census: Optional[CensusData], hyper: HyperParams) -> PosteriorSample:
    """Run the configured number of chains and collect retained draws.

    Each chain starts at the initial estimates with the variances at
    their prior modes, uses its own RNG stream spawned from the seed,
    and adapts proposal scales during burn-in only. Raises
    SamplingError if the starting point has zero posterior density, and
    MemoryError before any chain runs if no array could hold the draws.

    The chains are split into as many contiguous groups as there are
    usable CPUs (at most one group per chain). The calling process runs
    the first group and forked worker processes run the others, so the
    draws equal those of running every chain here, bit for bit. One
    chain, one CPU, another thread running in this process or no
    ``fork`` start method make one group, which starts no process.
    The groups' draws are joined into one draw matrix, which the
    sample's draws and sigma2 view.
    """
    config.check()
    per_chain = (config.iterations - config.burn_in) // config.thin
    shape = (per_chain * config.chains, grid.class_slices()["srb"].stop + len(PARAM_CLASSES))
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:  # numpy refuses it with a ValueError
        raise MemoryError(f"Unable to allocate a {shape[0]} x {shape[1]} float64 draw matrix:"
                          " it exceeds the largest array size")
    n_groups = min(config.chains, _usable_cpus()) if _can_fork() else 1
    groups = [(g.tolist(),) for g in np.array_split(np.arange(config.chains), n_groups)]
    parts = _fork_map(lambda chain_ids: _run_chains(chain_ids, config, grid, initial,
                                                    census, hyper), groups)
    rows, acc = parts[0] if len(parts) == 1 else (np.concatenate(j) for j in zip(*parts))

    chain_lab = np.repeat(np.arange(config.chains, dtype=np.int64), per_chain)
    acc /= max(config.iterations - config.burn_in, 1)
    return PosteriorSample(grid=grid, draws=grid.class_views(rows),
                           sigma2=rows[:, acc.shape[1]:], chain=chain_lab,
                           acceptance=grid.class_views(acc), config=config)
