"""Deterministic two-sex cohort-component projection.

One projection step advances the population five years:

  ages 5+ :  n[t+5] = L @ (n[t] * (1 + g/2)) + (n[t] * g/2 aged forward)
  age 0   :  b = 5 * sum over fertile ages a of
                 f[a] * (nF[a] + nF[a-5] * sF[a]) / 2
             n0_female = b * 1/(1+srb)   * (s0 * (1 + g0/2) + g0/2)
             n0_male   = b * srb/(1+srb) * (s0 * (1 + g0/2) + g0/2)

L is the (K-1) x K survival matrix: survivors of age group a move into
a+5, and the open group additionally retains its own members with the
extra survival entry. Migration is split in half: the first half
migrates at the start of the period and ages with the cohort, the
second half arrives at the end of the period, counted as n*g/2 persons
landing in the destination age group (the group the cohort has aged
into). The projection is female dominant: male counts never enter the
birth sum.

The terms that depend on one period's rates alone, g/2, 1 + g/2, the
age-0 factor s0*(1 + g0/2) + g0/2 and the birth shares 1/(1+srb) and
srb/(1+srb), come from ``rate_terms``; the step kernel ``_step_counts``
takes them in place of raw migration and srb. ``project_full`` computes
them period by period, and the sampler keeps them cached by period and
refreshes only the entries a proposal touches. Either way the step is
the same kernel with the same arithmetic.

Exact arithmetic notes, relied on by tests: the aged survivor at
destination a+5 is computed as count[a] * (1 + g[a]/2) * s[a+5], and the
open group accumulates as (survivors from open_age-5) + (retained open
group members), in that order, before any migration is added. With g
identically zero these reduce bitwise to count * survival.

Negative and non-finite counts are never an error here: they are carried
through, and ``positivity_indicator``, the one test of the prior's
positivity restriction, takes counts with any leading axes for
``log_posterior``, the sampler and the prior draws alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import FEMALE, SEX_LABELS, STEP, ModelGrid, ThetaVector


def total_births(counts_female: np.ndarray, survival_female: np.ndarray,
                 fertility: np.ndarray, fertile_index: np.ndarray):
    """Births over one 5-year period given the female side of the state.

    Approximates person-years lived in fertile group a by women already
    there plus women surviving in from a-5: 5 * (n[a] + n[a-5]*s[a]) / 2.
    When the first fertile group is [0,5) there is no younger group and
    that term is zero. Only female counts enter; the projection is
    female dominant.

    counts_female (..., K), survival_female (..., K+1) and fertility
    (..., F) may carry leading batch axes; the result has shape (...).
    fertile_index must be consecutive age groups, as
    ``ModelGrid.fertile_index`` is, so the fertile span is read as a
    slice rather than gathered.
    """
    lo, hi = fertile_index[0], fertile_index[-1] + 1
    n_a = counts_female[..., lo:hi]
    if lo > 0:
        n_prev = counts_female[..., lo - 1:hi - 1]
    else:
        n_prev = np.zeros(n_a.shape)
        n_prev[..., 1:] = counts_female[..., :hi - 1]
    s_a = survival_female[..., lo:hi]
    return 5.0 * (fertility * (n_a + n_prev * s_a) * 0.5).sum(axis=-1)


def rate_terms(survival: np.ndarray, migration: np.ndarray, srb):
    """The terms of one projection step that depend on the rates alone.

    survival (..., K+1, 2), migration (..., K, 2) and srb (...) are one
    period's rates, with any leading batch axes. Returns
    (half_g, grow, factor0, shares):

      half_g  = g/2 and grow = 1 + g/2, both (..., K, 2);
      factor0 = s0 * (1 + g0/2) + g0/2, the age-0 factor, (..., 2);
      shares  = [1/(1+srb), srb/(1+srb)], the birth shares by sex, (..., 2).

    These are what ``_step_counts`` takes in place of raw migration and
    srb, so a caller that holds them across steps (the sampler) only
    refreshes the entries a proposal touches.
    """
    half_g = 0.5 * migration
    grow = 1.0 + half_g
    factor0 = survival[..., 0, :] * grow[..., 0, :] + half_g[..., 0, :]
    srb = np.asarray(srb, dtype=np.float64)
    den = 1.0 + srb
    shares = np.empty(srb.shape + (2,))
    shares[..., 0] = 1.0 / den
    shares[..., 1] = srb / den
    return half_g, grow, factor0, shares


def _step_counts(counts: np.ndarray, fertility: np.ndarray, survival: np.ndarray,
                 half_g: np.ndarray, grow: np.ndarray, factor0: np.ndarray,
                 shares: np.ndarray, fertile_index: np.ndarray) -> np.ndarray:
    """One projection step on raw arrays; the hot path used by the sampler.

    counts (..., K, 2), fertility (..., F) and survival (..., K+1, 2),
    plus the ``rate_terms`` of the same period's survival, migration and
    srb, where the leading axes, if any, are the same on every argument
    (stacked draws). Returns (..., K, 2); each draw's slice equals the
    step of that draw alone, bit for bit.
    """
    # survivors age one group (row a holds the survivors of group a); the
    # open group also retains its members, added to the survivors into it
    aged = counts * grow * survival[..., 1:, :]
    aged[..., -2, :] += aged[..., -1, :]
    # second-half migrants arrive already aged into the destination group
    mig_in = counts * half_g
    out = np.empty_like(aged)
    np.add(aged[..., :-1, :], mig_in[..., :-1, :], out=out[..., 1:, :])
    out[..., -1, :] += mig_in[..., -1, :]

    b = total_births(counts[..., FEMALE], survival[..., FEMALE], fertility, fertile_index)
    np.multiply(b[..., None] * shares, factor0, out=out[..., 0, :])
    return out


@dataclass(frozen=True)
class Trajectory:
    """Projected counts at every grid year. counts is (..., P+1, K, 2):
    one (P+1, K, 2) trajectory per draw when the projection was run on
    stacked draws."""

    counts: np.ndarray
    years: tuple

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.float64)
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))

    def at(self, year: int) -> np.ndarray:
        return self.counts[..., self.years.index(year), :, :]

    def first_negative(self):
        """(year, age, sex label) of the first count that fails
        ``positivity_indicator`` (negative, infinite or NaN), or None.

        On stacked draws this is the first offence of the first draw
        that has one.
        """
        # each cell as its own (1, 1, 1) block gets its own answer
        bad = np.argwhere(~positivity_indicator(self.counts[..., None, None, None]))
        if bad.size == 0:
            return None
        t, a, l = bad[0][-3:]
        return (self.years[t], int(a) * STEP, SEX_LABELS[l])


def project_full(baseline: np.ndarray, theta: ThetaVector, grid: ModelGrid) -> Trajectory:
    """Run the projection over every period of the grid.

    baseline is the (K, 2) count array for the start year (normally
    theta.baseline). Returns all intermediate states, baseline included.

    Stacked draws project in one call: give baseline shape (..., K, 2)
    and theta arrays the same leading axes (fertility (..., F, P),
    survival (..., K+1, P, 2), migration (..., K, P, 2), srb (..., P)),
    for example ``PosteriorSample.theta_at(slice(None))``. The counts
    are then (..., P+1, K, 2), and each draw's trajectory is bitwise
    equal to projecting that draw alone.
    """
    P = grid.n_periods
    fi = grid.fertile_index
    traj = np.empty(np.shape(baseline)[:-2] + (P + 1, grid.n_ages, 2))
    traj[..., 0, :, :] = baseline
    for p in range(P):
        surv = theta.survival[..., p, :]
        terms = rate_terms(surv, theta.migration[..., p, :], theta.srb[..., p])
        traj[..., p + 1, :, :] = _step_counts(
            traj[..., p, :, :], theta.fertility[..., p], surv, *terms, fi)
    return Trajectory(counts=traj, years=tuple(grid.stock_years))


def positivity_indicator(counts: np.ndarray):
    """Whether every count is finite and nonnegative, the prior's positivity
    restriction: one bool per leading index of counts (..., T, K, 2), a numpy
    bool when there are none. The min and max reductions propagate NaN, so
    NaN fails; -0.0 passes."""
    return ((np.minimum.reduce(counts, (-3, -2, -1)) >= 0.0)
            & (np.maximum.reduce(counts, (-3, -2, -1)) < math.inf))
