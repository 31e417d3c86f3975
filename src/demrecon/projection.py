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

The terms that depend on one period's rates alone, the pair
(1 + g/2, g/2) stacked on one axis, the age-0 factor
s0*(1 + g0/2) + g0/2 and the birth shares 1/(1+srb) and srb/(1+srb),
come from ``rate_terms``; the step kernel ``_step_counts`` takes them in
place of raw migration and srb. One multiply of a row of counts by the
stacked pair gives both count*(1 + g/2) and count*g/2. ``project_full``
computes the terms period by period, and the sampler keeps them cached
by period and refreshes only the entries a proposal touches. Either way
the step is the same kernel with the same arithmetic.

The kernel does no slicing and allocates nothing: it reads prebuilt
views of its source row (``_row_views``), writes every result in place
into prebuilt views of its destination row, and keeps its intermediates
in a prebuilt work buffer (``_step_work``). The period's rates come as
views too (``_rate_views``). A caller builds these tables once and
reuses them for every step: ``project_full`` for the rows of its
stacked trajectory, ``ChainState`` for the rows of its trajectory and
of its scratch buffer. When the first fertile group is [0, 5), the
survivors-in term of that group is a zero that the work buffer holds,
so the same kernel serves that case.

The kernel also takes a row for the period's births by sex, b * shares,
and a flag that says whether to compute them into it or read them from
it. Births read only the source row's female counts at the fertile ages
and the group below them, and the period's fertility, female survival
into the fertile ages and srb, so a caller whose change reaches none of
these may reuse them; the sampler does (see its module docstring).
``project_full`` always computes them.

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


def _fertile_span(fertile_index: np.ndarray) -> tuple:
    """(lo, hi, off): the fertile age groups are lo..hi-1, consecutive as
    ``ModelGrid.fertile_index`` is, and off is 1 when the first of them
    is [0, 5), which has no younger group to survive in from, else 0."""
    lo, hi = int(fertile_index[0]), int(fertile_index[-1]) + 1
    return lo, hi, int(lo == 0)


def _births_work(shape: tuple, fertile_index: np.ndarray) -> tuple:
    """Buffers of ``_births`` for a batch shape: the survivors-in products
    (zero-filled, so the [0, 5) group's term stays 0 when off is 1), the
    span of them that is written, the weighted terms and the (..., 1)
    births."""
    lo, hi, off = _fertile_span(fertile_index)
    prod = np.zeros(shape + (hi - lo,))
    return prod, prod[..., off:], np.empty_like(prod), np.empty(shape + (1,))


def _births(n_fert: np.ndarray, n_younger: np.ndarray, s_fert: np.ndarray,
            fertility: np.ndarray, work: tuple) -> np.ndarray:
    """5 * sum over the fertile span of f * (n + n_younger * s) * 0.5, into
    the (..., 1) births buffer of work (``_births_work``), which it returns.
    n_younger and s_fert cover the fertile groups that have a younger group."""
    prod, prod_span, acc, out = work
    np.multiply(n_younger, s_fert, out=prod_span)
    np.add(n_fert, prod, out=acc)
    np.multiply(fertility, acc, out=acc)
    np.multiply(acc, 0.5, out=acc)
    np.add.reduce(acc, axis=-1, keepdims=True, out=out)
    return np.multiply(5.0, out, out=out)


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
    lo, hi, off = _fertile_span(fertile_index)
    shape = np.broadcast_shapes(np.shape(counts_female)[:-1],
                                np.shape(survival_female)[:-1], np.shape(fertility)[:-1])
    b = _births(counts_female[..., lo:hi], counts_female[..., lo - 1 + off:hi - 1],
                survival_female[..., lo + off:hi], fertility, _births_work(shape, fertile_index))
    return b[..., 0] if shape else b[0]


def rate_terms(survival: np.ndarray, migration: np.ndarray, srb):
    """The terms of one projection step that depend on the rates alone.

    survival (..., K+1, 2), migration (..., K, 2) and srb (...) are one
    period's rates, with any leading batch axes. Returns
    (grow_half, factor0, shares):

      grow_half = (1 + g/2, g/2) stacked on a new first axis, (2, ..., K, 2);
      factor0   = s0 * (1 + g0/2) + g0/2, the age-0 factor, (..., 2);
      shares    = [1/(1+srb), srb/(1+srb)], the birth shares by sex, (..., 2).

    These are what ``_step_counts`` takes in place of raw migration and
    srb, so a caller that holds them across steps (the sampler) only
    refreshes the entries a proposal touches. The pair's axis comes
    first so that each half of stacked draws is one contiguous block,
    which the kernel's in-place writes need to stay fast.
    """
    grow_half = np.empty((2,) + np.shape(migration))
    half_g = np.multiply(0.5, migration, out=grow_half[1])
    grow = np.add(1.0, half_g, out=grow_half[0])
    factor0 = survival[..., 0, :] * grow[..., 0, :] + half_g[..., 0, :]
    srb = np.asarray(srb, dtype=np.float64)
    den = 1.0 + srb
    shares = np.empty(srb.shape + (2,))
    shares[..., 0] = 1.0 / den
    shares[..., 1] = srb / den
    return grow_half, factor0, shares


def _row_views(row: np.ndarray, fertile_index: np.ndarray) -> tuple:
    """The views of one row of counts (..., K, 2) that ``_step_counts``
    reads as a source or writes as a destination: the row, ages 5+, the
    open group, age 0, the female fertile span, and the female groups
    one younger than the fertile groups that have one."""
    lo, hi, off = _fertile_span(fertile_index)
    return (row, row[..., 1:, :], row[..., -1, :], row[..., 0, :],
            row[..., lo:hi, FEMALE], row[..., lo - 1 + off:hi - 1, FEMALE])


def _rate_views(survival: np.ndarray, fertility: np.ndarray, terms: tuple,
                fertile_index: np.ndarray) -> tuple:
    """One period's rates as ``_step_counts`` reads them: survival
    (..., K+1, 2), fertility (..., F) and that period's ``rate_terms``."""
    grow_half, factor0, shares = terms
    lo, hi, off = _fertile_span(fertile_index)
    return (grow_half, survival[..., 1:, :], survival[..., lo + off:hi, FEMALE], fertility,
            shares, factor0)


def _step_work(shape: tuple, n_ages: int, fertile_index: np.ndarray) -> tuple:
    """The work buffer of ``_step_counts`` for a batch shape, with its
    views: (count * (1 + g/2), count * g/2) stacked as ``rate_terms``
    stacks its pair, the aged survivors, their ages below the open
    group, the survivors into the open group, the retained open group,
    the second-half migrants below the open group and in it, and the
    ``_births_work``."""
    w = np.empty((2,) + shape + (n_ages, 2))
    aged, mig = w[0], w[1]
    return (w, aged, aged[..., :-1, :], aged[..., -2, :], aged[..., -1, :],
            mig[..., :-1, :], mig[..., -1, :], _births_work(shape, fertile_index))


def _step_counts(src: tuple, dst: tuple, rates: tuple, work: tuple,
                 births: np.ndarray, fresh: bool) -> np.ndarray:
    """One projection step; the hot path used by the sampler.

    src and dst are ``_row_views`` of two rows of counts (..., K, 2),
    rates the ``_rate_views`` of the period between them and work a
    ``_step_work`` buffer, where the leading axes, if any, are the same
    on every argument (stacked draws). Writes the step of src into dst
    and returns dst's row; each draw's slice equals the step of that
    draw alone, bit for bit.

    births (..., 2) is the period's births by sex, total births times the
    birth shares: computed from src and the rates into it when fresh,
    read from it otherwise. Age 0 is births * factor0 either way, the
    arithmetic of (b * shares) * factor0, so a reused row gives the
    result of a fresh one bit for bit.
    """
    row, _, _, _, n_fert, n_younger = src
    out, out_aged, out_open, out0, _, _ = dst
    grow_half, s_next, s_fert, fertility, shares, factor0 = rates
    w, aged, aged_head, aged_into_open, aged_open, mig_head, mig_open, b_work = work
    # (count * (1 + g/2), count * g/2) in one multiply; then survivors
    # age one group (row a holds the survivors of group a), and the open
    # group also retains its members, added to the survivors into it
    np.multiply(row, grow_half, out=w)
    np.multiply(aged, s_next, out=aged)
    np.add(aged_into_open, aged_open, out=aged_into_open)
    # second-half migrants arrive already aged into the destination group
    np.add(aged_head, mig_head, out=out_aged)
    np.add(out_open, mig_open, out=out_open)

    if fresh:
        np.multiply(_births(n_fert, n_younger, s_fert, fertility, b_work), shares, out=births)
    np.multiply(births, factor0, out=out0)
    return out


@dataclass(frozen=True)
class Trajectory:
    """Projected counts at every grid year. counts is (..., P+1, K, 2):
    one (P+1, K, 2) trajectory per draw when the projection was run on
    stacked draws."""

    counts: np.ndarray
    years: tuple

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.float64).view()  # the caller's array stays writeable
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
    P, K, fi = grid.n_periods, grid.n_ages, grid.fertile_index
    shape = np.shape(baseline)[:-2]
    traj = np.empty(shape + (P + 1, K, 2))
    traj[..., 0, :, :] = baseline
    rows = [_row_views(traj[..., t, :, :], fi) for t in range(P + 1)]
    work, births = _step_work(shape, K, fi), np.empty(shape + (2,))
    for p in range(P):
        surv = theta.survival[..., p, :]
        terms = rate_terms(surv, theta.migration[..., p, :], theta.srb[..., p])
        _step_counts(rows[p], rows[p + 1],
                     _rate_views(surv, theta.fertility[..., p], terms, fi), work, births, True)
    return Trajectory(counts=traj, years=tuple(grid.stock_years))


def positivity_indicator(counts: np.ndarray):
    """Whether every count is finite and nonnegative, the prior's positivity
    restriction: one bool per leading index of counts (..., T, K, 2), a numpy
    bool when there are none. The min and max reductions propagate NaN, so
    NaN fails; -0.0 passes."""
    return ((np.minimum.reduce(counts, (-3, -2, -1)) >= 0.0)
            & (np.maximum.reduce(counts, (-3, -2, -1)) < math.inf))
