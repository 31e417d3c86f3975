"""Metropolis-within-Gibbs machinery: posterior evaluation, the variance
Gibbs block, single-component updates and full runs."""

import dataclasses
import hashlib
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from demrecon import (FEMALE, MALE, CensusData, ConfigError, ModelGrid, PARAM_CLASSES,
                      SamplerConfig, SamplingError, ThetaVector, Trajectory,
                      beta_from_elicitation, gelman_rubin,
                      load_elicitation, load_grid, load_theta, log_posterior,
                      parameter_names, positivity_indicator, prior_sample,
                      project_full, run_chain, sampler, simulate,
                      simulate_dataset, total_births, transform, variance_posterior)
from demrecon.projection import rate_terms
from demrecon.sampler import ChainState
from conftest import draw_matrix, make_theta, flat_elicitation
from oracles import invgamma_cdf_oracle, log_posterior_oracle, prior_draws_oracle

DEMO = Path(__file__).resolve().parent.parent / "data" / "demo"


def _variances():
    """counts, fertility, survival, migration and srb variances, in that order."""
    return np.array([2e-4, 3e-4, 0.5, 1e-4, 1.5e-4])


def _census_from(theta, grid, noise=0.03, seed=0):
    rng = np.random.default_rng(seed)
    traj = project_full(theta.baseline, theta, grid)
    years = grid.likelihood_years
    counts = np.stack([traj.at(y) * rng.lognormal(0.0, noise, (grid.n_ages, 2))
                       for y in years])
    return CensusData(years=years, counts=counts)


# ---------------------------------------------------------------------------
# configuration


def test_config_check_rejects_bad_values():
    with pytest.raises(ConfigError):
        SamplerConfig(iterations=0, burn_in=0).check()
    with pytest.raises(ConfigError):
        SamplerConfig(iterations=100, burn_in=100).check()
    with pytest.raises(ConfigError):
        SamplerConfig(iterations=101, burn_in=1, thin=3).check()
    with pytest.raises(ConfigError):
        SamplerConfig(iterations=100, burn_in=10, chains=0).check()
    with pytest.raises(ConfigError):
        SamplerConfig(iterations=100, burn_in=10,
                      sample_classes=("srb", "tempo")).check()
    with pytest.raises(ConfigError, match="seed must be nonnegative"):
        SamplerConfig(iterations=100, burn_in=10, seed=-1).check()
    SamplerConfig(iterations=100, burn_in=10, thin=2).check()


def test_parameter_names_layout(desk_grid):
    names = parameter_names(desk_grid)
    K, P, F = desk_grid.n_ages, desk_grid.n_periods, desk_grid.n_fertile
    assert len(names) == K * 2 + F * P + (K + 1) * P * 2 + K * P * 2 + P + 5
    assert len(names) == 76
    assert names[0] == "baseline[0,female]"
    assert names[1] == "baseline[0,male]"
    assert "fertility[10,1960]" in names
    assert "survival[80,1960,female]" not in names  # open age is 15 here
    assert names[-5:] == [f"sigma2[{c}]" for c in PARAM_CLASSES]
    assert len(set(names)) == len(names)


# ---------------------------------------------------------------------------
# joint posterior


def test_log_posterior_finite_and_matches_oracle(desk_grid, desk_hyper):
    initial = make_theta(desk_grid, seed=1)
    theta = make_theta(desk_grid, seed=2)
    census = _census_from(initial, desk_grid)
    v = _variances()
    got = log_posterior(theta, v, initial, desk_hyper, census, desk_grid)
    assert math.isfinite(got)
    traj = project_full(theta.baseline, theta, desk_grid)
    want = log_posterior_oracle(theta, v, initial, desk_hyper, census, desk_grid, traj)
    assert got == pytest.approx(want, rel=1e-12)


def test_log_posterior_without_census_drops_likelihood(desk_grid, desk_hyper):
    initial = make_theta(desk_grid, seed=1)
    theta = make_theta(desk_grid, seed=2)
    v = _variances()
    got = log_posterior(theta, v, initial, desk_hyper, None, desk_grid)
    want = log_posterior_oracle(theta, v, initial, desk_hyper, None, desk_grid, None)
    assert got == pytest.approx(want, rel=1e-12)


def test_log_posterior_negative_projection_is_minus_inf(desk_grid, desk_hyper):
    initial = make_theta(desk_grid, seed=1)
    mig = initial.migration.copy()
    mig[:, 0, :] = -3.0
    theta = initial.replace(migration=mig)
    v = _variances()
    assert log_posterior(theta, v, initial, desk_hyper, None, desk_grid) == -math.inf


def test_log_posterior_zero_census_year_count_is_minus_inf(desk_grid, desk_hyper):
    """Age-0 survival 0.25 and migration -0.4 make the age-0 factor
    0.25 * 0.8 - 0.2 exactly 0, so the count at age 0 in 1965, a census
    year, is zero: admissible without a census, -inf with one."""
    initial = make_theta(desk_grid, seed=1)
    surv, mig = initial.survival.copy(), initial.migration.copy()
    surv[0, 0, :] = 0.25
    mig[0, 0, :] = -0.4
    theta = initial.replace(survival=surv, migration=mig)
    assert np.all(project_full(theta.baseline, theta, desk_grid).at(1965)[0] == 0.0)
    census = _census_from(initial, desk_grid)
    v = _variances()
    assert math.isfinite(log_posterior(theta, v, initial, desk_hyper, None, desk_grid))
    assert log_posterior(theta, v, initial, desk_hyper, census, desk_grid) == -math.inf


def test_log_posterior_overflowing_projection_is_minus_inf(desk_grid, desk_hyper):
    """Finite parameters whose counts overflow to inf are no population,
    as the prior's admissibility check already says."""
    initial = make_theta(desk_grid, seed=1)
    huge = initial.replace(baseline=np.full_like(initial.baseline, 1e308),
                           migration=np.full_like(initial.migration, 0.01))
    with np.errstate(over="ignore"):
        assert np.isinf(project_full(huge.baseline, huge, desk_grid).counts).any()
        assert log_posterior(huge, _variances(), initial, desk_hyper, None, desk_grid) == -math.inf


# ---------------------------------------------------------------------------
# variance conditionals


def test_variance_posterior_hand_case():
    assert variance_posterior(0.5, 1e-4, 2, 2e-4) == (1.5, 2e-4)


def test_variance_posterior_no_data_is_prior():
    assert variance_posterior(0.5, 1e-4, 0, 0.0) == (0.5, 1e-4)


def test_residual_squares_pools_census_into_counts(desk_grid, desk_hyper):
    """The counts variance pools the baseline residuals with the census
    log residuals at the likelihood years."""
    initial = make_theta(desk_grid, seed=1)
    theta = make_theta(desk_grid, seed=2)
    census = _census_from(initial, desk_grid)
    traj = project_full(theta.baseline, theta, desk_grid)
    state = ChainState(desk_grid, theta, census, desk_hyper,
                       SamplerConfig(iterations=1, burn_in=0))
    assert state.n_cen_cells == sum(census.at(y).size for y in desk_grid.likelihood_years)
    hand = 0.0
    for y in desk_grid.likelihood_years:
        r = np.log(census.at(y)) - np.log(traj.at(y))
        hand += float(np.sum(r * r))
    assert float(np.sum(state.quad)) == pytest.approx(hand, rel=1e-12)

    # the pooled residuals set the counts conditional: same gamma draw
    state.x = np.concatenate([transform(c, v).ravel() for c, v in initial.by_class().items()])
    state.update_variances(np.random.default_rng(4))
    r = transform("counts", initial.baseline) - transform("counts", theta.baseline)
    a, b = variance_posterior(desk_hyper.alpha["counts"], desk_hyper.beta["counts"],
                              r.size + state.n_cen_cells, float(np.sum(r * r)) + hand)
    want = 1.0 / np.random.default_rng(4).gamma(a, 1.0 / b)
    assert state.sigma2[0] == pytest.approx(want, rel=1e-12)


def test_residual_squares_at_center_is_zero(desk_grid, desk_hyper):
    theta = make_theta(desk_grid, seed=3)
    traj = project_full(theta.baseline, theta, desk_grid)
    years = desk_grid.likelihood_years
    census = CensusData(years=years, counts=np.stack([traj.at(y) for y in years]))
    state = ChainState(desk_grid, theta, census, desk_hyper,
                       SamplerConfig(iterations=1, burn_in=0))
    slices = desk_grid.class_slices()
    for cls, arr in theta.by_class().items():
        r = state.x[slices[cls]] - state.mu[slices[cls]]
        assert r.size == arr.size
        assert not np.any(r)
    assert state.n_cen_cells == census.counts.size
    assert np.all(state.quad == 0.0)


def test_gibbs_draws_follow_conjugate_distribution(desk_grid, desk_hyper):
    """With theta fixed, repeated Gibbs draws of one variance must follow
    the analytic inverse-gamma full conditional (KS check)."""
    initial = make_theta(desk_grid, seed=1)
    theta = make_theta(desk_grid, seed=2)
    state = ChainState(desk_grid, initial, None, desk_hyper,
                       SamplerConfig(iterations=1, burn_in=0))
    state.x = np.concatenate([transform(c, v).ravel() for c, v in theta.by_class().items()])
    rng = np.random.default_rng(123)
    n = 4000
    draws = np.empty(n)
    for i in range(n):
        state.update_variances(rng)
        draws[i] = state.sigma2[4]  # srb
    r = transform("srb", theta.srb) - transform("srb", initial.srb)
    a, b = variance_posterior(desk_hyper.alpha["srb"], desk_hyper.beta["srb"],
                              r.size, float(r @ r))
    cdf = lambda x: np.array([invgamma_cdf_oracle(v, a, b) for v in np.atleast_1d(x)])
    stat = stats.kstest(draws, cdf).pvalue
    assert stat > 0.01


# ---------------------------------------------------------------------------
# chain state and single-component updates


def _mh_update_component(state, comp, scale, rng):
    """One random-walk update of a single component with an explicit scale;
    a zero scale proposes the current point, accepted by construction."""
    z = rng.standard_normal()
    if scale == 0.0:
        return state.update_component(comp, 0.0, z, -math.inf)[0]
    return state.update_component(comp, scale, z, math.log(rng.random()))[0]


def _state(grid, hyper, with_census=True, seed=1):
    initial = make_theta(grid, seed=seed)
    census = _census_from(initial, grid) if with_census else None
    config = SamplerConfig(iterations=10, burn_in=5)
    return ChainState(grid, initial, census, hyper, config), initial, census


def test_chain_state_rejects_negative_start(desk_grid, desk_hyper):
    initial = make_theta(desk_grid, seed=1)
    mig = initial.migration.copy()
    mig[:, 0, :] = -3.0
    bad = initial.replace(migration=mig)
    with pytest.raises(SamplingError):
        ChainState(desk_grid, bad, None, desk_hyper,
                   SamplerConfig(iterations=10, burn_in=5))


@pytest.mark.parametrize("field, cell, value, cls", [
    ("baseline", (2, MALE), 0.0, "counts"),
    ("baseline", (2, MALE), -5.0, "counts"),  # log gives invalid, not divide
    ("fertility", (1, 0), 0.0, "fertility"),
    ("srb", (0,), 0.0, "srb"),
], ids=["zero-count", "negative-count", "zero-fertility", "zero-srb"])
def test_chain_state_rejects_nonpositive_start(desk_grid, desk_hyper, field, cell, value, cls):
    """A start value <= 0 has no log: it is not finite on its class's
    transformed scale. The refusal names the class, and no numpy warning
    escapes (the suite turns one into an error)."""
    initial = make_theta(desk_grid, seed=1)
    arr = getattr(initial, field).copy()
    arr[cell] = value
    with pytest.raises(SamplingError,
                       match=f"initial estimates are not finite on the {cls} transformed scale"):
        ChainState(desk_grid, initial.replace(**{field: arr}), None, desk_hyper,
                   SamplerConfig(iterations=10, burn_in=5))


def test_chain_state_rejects_overflowing_proposal(desk_grid, desk_hyper):
    """Without a census no misfit sees a suffix that overflows to inf, so the
    positivity check must reject it, leaving the state as it was. Migration
    is positive everywhere, so the overflow is +inf and not NaN."""
    initial = make_theta(desk_grid, seed=1)
    big = initial.replace(baseline=np.full_like(initial.baseline, 1e305),
                          migration=np.full_like(initial.migration, 0.01))
    state = ChainState(desk_grid, big, None, desk_hyper, SamplerConfig(iterations=10, burn_in=5))
    comp = next(k for k, entry in enumerate(state.components) if entry[3] == "migration")
    x, traj = state.x.copy(), state.traj.copy()
    with np.errstate(over="ignore"):
        assert state.update_component(comp, 1.0, 1e4, -math.inf) == (False, 0.0)
    assert np.array_equal(state.x, x) and np.array_equal(state.traj, traj)


@pytest.mark.parametrize("value, admissible", [(-1.0, False), (np.inf, False),
                                                (np.nan, False), (-0.0, True)],
                         ids=["negative", "inf", "nan", "minus_zero"])
def test_planted_count_gets_one_verdict_everywhere(desk_grid, desk_hyper, monkeypatch,
                                                   value, admissible):
    """One count planted at 1970, age 5, male: positivity_indicator (alone
    and stacked), log_posterior, ChainState and prior_sample agree on it."""
    initial = make_theta(desk_grid, seed=1)
    clean = project_full(initial.baseline, initial, desk_grid).counts
    planted = clean.copy()
    planted[2, 1, MALE] = value
    assert positivity_indicator(planted) == admissible
    assert positivity_indicator(np.stack([clean, planted])).tolist() == [True, admissible]

    real_project, real_step, steps = sampler.project_full, sampler._step_counts, []
    with monkeypatch.context() as m:
        m.setattr(sampler, "project_full",
                  lambda b, th, g: Trajectory(planted, real_project(b, th, g).years))
        lp = log_posterior(initial, _variances(), initial, desk_hyper, None, desk_grid)
    assert (lp > -math.inf) == admissible

    def step(*args):  # the start's projection, one step per period
        out = real_step(*args)
        steps.append(1)
        if len(steps) == 2:
            out[1, MALE] = value
        return out

    with monkeypatch.context() as m, np.errstate(invalid="ignore"):  # inf - inf downstream
        m.setattr(sampler, "_step_counts", step)
        if admissible:
            ChainState(desk_grid, initial, None, desk_hyper, SamplerConfig())
        else:
            with pytest.raises(SamplingError, match=r"first offence at \(1970, 5, 'male'\)"):
                ChainState(desk_grid, initial, None, desk_hyper, SamplerConfig())

    clean_draws = prior_sample(initial, desk_hyper, desk_grid, 8, seed=0).flat()
    assert prior_draws_oracle(initial, desk_hyper, desk_grid, np.random.default_rng(0), 1)[2] == 1
    real_full, calls = simulate.project_full, []

    def first_planted(baseline, theta, grid):  # in the first candidate only
        counts = real_full(baseline, theta, grid).counts.copy()
        if not calls:
            counts[0, 2, 1, MALE] = value
        calls.append(1)
        return Trajectory(counts, grid.stock_years)

    monkeypatch.setattr(simulate, "project_full", first_planted)
    kept = prior_sample(initial, desk_hyper, desk_grid, 7, seed=0).flat()
    want = clean_draws[:7] if admissible else clean_draws[1:]
    assert kept.tobytes() == want.tobytes()


def _census_quads_by_year(state, traj):
    """Each census year's squared log misfit, one ``np.sum`` per year."""
    quads = []
    for row, logobs in zip(state.cen_pos, state.cen_logobs):
        r = logobs - np.log(traj[row])
        quads.append(float(np.sum(r * r)))
    return quads


def _fresh_rate_terms(state):
    nat = state.nat
    return rate_terms(np.moveaxis(nat["survival"], 1, 0),
                      np.moveaxis(nat["migration"], 1, 0), nat["srb"])


def _period_births(grid, theta, counts):
    """Total births of each period from a trajectory's counts, one
    ``total_births`` call per period."""
    return [total_births(counts[p, :, FEMALE], theta.survival[:, p, FEMALE],
                         theta.fertility[:, p], grid.fertile_index)
            for p in range(grid.n_periods)]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_update_preserves_trajectory_cache(desk_grid, desk_hyper):
    state, initial, census = _state(desk_grid, desk_hyper)
    rng = np.random.default_rng(7)
    for comp in range(state.n_components):
        i = state.components[comp][0]
        _mh_update_component(state, comp, 0.3 * math.exp(state.log_scale[i]), rng)
    fresh = project_full(state.theta().baseline, state.theta(), desk_grid)
    assert np.array_equal(state.traj, fresh.counts)
    for got, want in zip(state.quad, _census_quads_by_year(state, fresh.counts)):
        assert got == pytest.approx(want, rel=1e-12)


# Grids by the shape of their fertile span: the demo's, inside the age
# range; one that starts at [0, 5); the desk grid's, whose last fertile
# group is the open group; a single fertile group; and a span that ends
# one group below the open group.
_DEMO_GRID = ModelGrid(start_year=1960, end_year=1980, open_age=80, fert_min_age=15,
                       fert_max_age=45, census_years=(1960, 1980))
_DESK_GRID = ModelGrid(start_year=1960, end_year=1975, open_age=15, fert_min_age=10,
                       fert_max_age=15, census_years=(1960, 1965, 1975))
SPAN_GRIDS = {
    "demo": _DEMO_GRID,
    "fert_min_age_0": dataclasses.replace(_DEMO_GRID, fert_min_age=0),
    "open_fertile": _DESK_GRID,
    "one_fertile": dataclasses.replace(_DEMO_GRID, fert_min_age=30, fert_max_age=30),
    "below_open": dataclasses.replace(_DESK_GRID, fert_min_age=5, fert_max_age=10),
}


# ids: the first fertile age on the demo grid, or the desk shape
@pytest.mark.parametrize("name", [pytest.param("demo", id="15"),
                                  pytest.param("fert_min_age_0", id="0"), "open_fertile"])
def test_cached_terms_trajectory_and_quads_stay_exact(name):
    """After every update (accepted, rejected by the Metropolis draw, or
    rejected for a negative count) the cached rate terms, trajectory,
    births by sex and census misfits equal a fresh computation from the
    current rates, bit for bit."""
    grid = SPAN_GRIDS[name]
    hyper = beta_from_elicitation(flat_elicitation(), make_theta(grid, seed=1))
    state, _, _ = _state(grid, hyper, seed=1)
    rng = np.random.default_rng(11)
    outcomes = {"accepted": 0, "metropolis": 0, "positivity": 0}
    for _ in range(3):
        for comp in range(state.n_components):
            i, first = state.components[comp][:2]
            # every fifth proposal is a huge step: negative counts for
            # migration, a sure Metropolis rejection for the rest
            scale = 40.0 if comp % 5 == 0 else math.exp(state.log_scale[i])
            accepted, _ = state.update_component(
                comp, scale, rng.standard_normal(), math.log(rng.random()))
            if accepted:
                outcomes["accepted"] += 1
            elif not state.scratch[first:].min() >= 0.0:
                outcomes["positivity"] += 1
            else:
                outcomes["metropolis"] += 1
            for got, want in zip(state.terms, _fresh_rate_terms(state)):
                assert _same_bits(got, want)
            assert _same_bits(state.surv_by_period, np.moveaxis(state.nat["survival"], 1, 0))
            fresh = project_full(state.theta().baseline, state.theta(), grid).counts
            assert _same_bits(state.traj, fresh)
            assert _same_bits(state.quad, _census_quads_by_year(state, fresh))
            shares = _fresh_rate_terms(state)[2]
            births = _period_births(grid, state.theta(), state.traj)
            assert _same_bits(state.births, [b * s for b, s in zip(births, shares)])
    assert min(outcomes.values()) > 0, outcomes


# scan-table entries that feed births, per grid: fertility, srb, and the
# female counts, survival and migration entries whose youngest changed
# age group is at or below the last fertile group f. On the demo (K=17,
# P=4, f=9): 10 counts, 28 fertility, 4 srb, 40 survival, 36 migration.
FEEDING_ENTRIES = {"demo": 118, "fert_min_age_0": 130, "open_fertile": 40,
                   "one_fertile": 67, "below_open": 27}


@pytest.mark.parametrize("name", SPAN_GRIDS)
def test_entries_marked_not_feeding_leave_every_births_unchanged(name):
    """Perturbing any scan-table entry that is marked as not feeding births
    leaves every period's total births of a full projection bit for bit
    as they were, so the sampler may reuse its cached births for it."""
    grid = SPAN_GRIDS[name]
    theta = make_theta(grid, seed=2)
    hyper = beta_from_elicitation(flat_elicitation(), theta)
    state = ChainState(grid, theta, None, hyper, SamplerConfig())
    natural = np.concatenate([v.ravel() for v in theta.by_class().values()])

    def births(vec):
        th = ThetaVector.from_classes(grid.class_views(vec))
        counts = project_full(th.baseline, th, grid).counts
        return [b.tobytes() for b in _period_births(grid, th, counts)]

    base, names = births(natural), parameter_names(grid)
    for i, *_, feeds in state.components:
        if not feeds:
            vec = natural.copy()
            vec[i] = 0.5 * vec[i] + 0.01
            assert births(vec) == base, names[i]
    assert sum(entry[-1] for entry in state.components) == FEEDING_ENTRIES[name]


def test_update_delta_matches_posterior_difference(desk_grid, desk_hyper):
    """The incremental acceptance ratio must equal the brute-force
    difference of full log posteriors at fixed variances."""
    state, initial, census = _state(desk_grid, desk_hyper)
    v = state.sigma2.copy()
    before = log_posterior(state.theta(), v, initial, desk_hyper, census, desk_grid)
    comp = 11  # a fertility component
    assert state.components[comp][3] == "fertility"
    z, scale = 0.8, 0.05
    accepted, aprob = state.update_component(comp, scale, z, -math.inf)
    assert accepted
    after = log_posterior(state.theta(), v, initial, desk_hyper, census, desk_grid)
    assert aprob == pytest.approx(min(1.0, math.exp(min(after - before, 0.0))),
                                  rel=1e-9)


def test_update_rejection_restores_state(desk_grid, desk_hyper):
    state, _, _ = _state(desk_grid, desk_hyper)
    x_before = state.x.copy()
    nat_before = {c: state.nat[c].copy() for c in PARAM_CLASSES}
    traj_before = state.traj.copy()
    quad_before = state.quad.copy()
    terms_before = [t.copy() for t in (*state.terms, state.surv_by_period)]
    # logu = 0 can only accept when the proposal strictly improves;
    # a huge step into the tail will not. Besides a baseline count, try
    # one entry of each class that feeds the cached rate terms: srb,
    # age-0 survival, age-0 migration and an older migration entry.
    slices = desk_grid.class_slices()
    comps = [0] + [next(k for k, comp in enumerate(state.components)
                        if comp[0] == slices[cls].start + j0)
                   for cls, j0 in (("srb", 1), ("survival", 3), ("migration", 1),
                                   ("migration", 2 * desk_grid.n_periods + 1))]
    for comp in comps:
        accepted, _ = state.update_component(comp, 50.0, 3.0, 0.0)
        assert not accepted
        assert np.array_equal(state.x, x_before)
        for c in PARAM_CLASSES:
            assert np.array_equal(state.nat[c], nat_before[c])
        assert np.array_equal(state.traj, traj_before)
        assert np.array_equal(state.quad, quad_before)
        for got, want in zip((*state.terms, state.surv_by_period), terms_before):
            assert _same_bits(got, want)


def test_zero_scale_always_accepts(desk_grid, desk_hyper):
    state, _, _ = _state(desk_grid, desk_hyper)
    rng = np.random.default_rng(0)
    for comp in range(state.n_components):
        assert _mh_update_component(state, comp, 0.0, rng)


def test_positivity_violating_proposal_rejected(desk_grid, desk_hyper):
    """A migration proposal that drives a count negative is rejected even
    with an always-accept uniform draw."""
    initial = make_theta(desk_grid, seed=1, mig_width=0.0)
    config = SamplerConfig(iterations=10, burn_in=5)
    state = ChainState(desk_grid, initial, None, desk_hyper, config)
    comps = [k for k, comp in enumerate(state.components) if comp[3] == "migration"]
    comp = comps[0]
    accepted, aprob = state.update_component(comp, 10.0, -1.0, -math.inf)
    assert not accepted
    assert aprob == 0.0
    assert np.all(state.traj >= 0)


def test_acceptance_ratio_antisymmetry(desk_grid, desk_hyper):
    """Forward and reverse moves between the same two points must have
    log ratios that cancel (detailed balance of the acceptance rule)."""
    state, initial, census = _state(desk_grid, desk_hyper)
    v = state.sigma2.copy()
    comp = 3
    z, scale = 0.7, 0.04
    p0 = log_posterior(state.theta(), v, initial, desk_hyper, census, desk_grid)
    accepted, _ = state.update_component(comp, scale, z, -math.inf)
    assert accepted
    p1 = log_posterior(state.theta(), v, initial, desk_hyper, census, desk_grid)
    accepted, aprob_back = state.update_component(comp, scale, -z, -math.inf)
    assert accepted
    p2 = log_posterior(state.theta(), v, initial, desk_hyper, census, desk_grid)
    assert p2 == pytest.approx(p0, rel=1e-12)
    assert aprob_back == pytest.approx(min(1.0, math.exp(min(p0 - p1, 0.0))), rel=1e-9)


# ---------------------------------------------------------------------------
# full runs


def test_run_chain_shapes_and_determinism(desk_grid):
    initial = make_theta(desk_grid, seed=1)
    hyper = beta_from_elicitation(flat_elicitation(), initial)
    data = simulate_dataset(desk_grid, initial, hyper, seed=5)
    config = SamplerConfig(iterations=120, burn_in=40, thin=2, chains=2, seed=9)
    s1 = run_chain(config, desk_grid, data.initial, data.census, hyper)
    s2 = run_chain(config, desk_grid, data.initial, data.census, hyper)
    per_chain = (120 - 40) // 2
    assert s1.n_draws == per_chain * 2
    assert s1.flat().shape == (per_chain * 2, len(parameter_names(desk_grid)))
    assert np.array_equal(s1.flat(), s2.flat())
    assert np.unique(s1.chain).tolist() == [0, 1]
    assert np.all(s1.sigma2 > 0)
    for cls in PARAM_CLASSES:
        assert np.all(s1.draws[cls] > 0 if cls != "migration" else
                      np.isfinite(s1.draws[cls]))


def test_run_chain_seed_changes_draws(desk_grid):
    initial = make_theta(desk_grid, seed=1)
    hyper = beta_from_elicitation(flat_elicitation(), initial)
    data = simulate_dataset(desk_grid, initial, hyper, seed=5)
    base = SamplerConfig(iterations=60, burn_in=20, chains=1, seed=9)
    other = SamplerConfig(iterations=60, burn_in=20, chains=1, seed=10)
    s1 = run_chain(base, desk_grid, data.initial, data.census, hyper)
    s2 = run_chain(other, desk_grid, data.initial, data.census, hyper)
    assert not np.array_equal(s1.flat(), s2.flat())


def test_adaptation_brings_acceptance_near_target(desk_grid):
    initial = make_theta(desk_grid, seed=2)
    hyper = beta_from_elicitation(flat_elicitation(), initial)
    data = simulate_dataset(desk_grid, initial, hyper, seed=11)
    config = SamplerConfig(iterations=3000, burn_in=2000, chains=1, seed=3)
    sample = run_chain(config, desk_grid, data.initial, data.census, hyper)
    rates = np.concatenate([sample.acceptance[c].ravel() for c in PARAM_CLASSES])
    assert rates.mean() == pytest.approx(0.44, abs=0.12)
    assert np.mean((rates > 0.15) & (rates < 0.75)) > 0.9


def test_restricted_classes_stay_at_start(desk_grid, desk_hyper):
    initial = make_theta(desk_grid, seed=1)
    census = _census_from(initial, desk_grid)
    config = SamplerConfig(iterations=60, burn_in=20, chains=1, seed=0,
                           sample_classes=("srb",), update_variances=False)
    sample = run_chain(config, desk_grid, initial, census, desk_hyper)
    assert not np.allclose(sample.draws["srb"], initial.srb)
    for cls, start in initial.by_class().items():
        if cls == "srb":
            continue
        got = sample.draws[cls]
        assert np.array_equal(got, np.broadcast_to(start, got.shape))
    # variances frozen at the prior modes
    modes = [desk_hyper.beta[c] / (desk_hyper.alpha[c] + 1.0) for c in PARAM_CLASSES]
    assert np.allclose(sample.sigma2, np.array(modes)[None, :])


@pytest.mark.slow
def test_two_chains_mix_on_small_problem(desk_grid):
    initial = make_theta(desk_grid, seed=4)
    hyper = beta_from_elicitation(flat_elicitation(), initial)
    data = simulate_dataset(desk_grid, initial, hyper, seed=21)
    config = SamplerConfig(iterations=4000, burn_in=2000, chains=2, seed=17)
    sample = run_chain(config, desk_grid, data.initial, data.census, hyper)
    flat = sample.flat()
    half = sample.n_draws // 2
    names = parameter_names(desk_grid)
    col = names.index(f"srb[{desk_grid.period_years[0]}]")
    r = gelman_rubin([flat[:half, col], flat[half:, col]])
    assert r < 1.1


def test_scan_visits_sampled_classes_in_class_order(desk_grid, desk_hyper):
    """The scan follows PARAM_CLASSES whatever order sample_classes names
    the classes in, and scans a class named twice once."""
    initial = make_theta(desk_grid, seed=1)
    census = _census_from(initial, desk_grid)
    slices = desk_grid.class_slices()
    runs = []
    for classes in (("srb", "counts"), ("counts", "srb"), ("srb", "counts", "srb")):
        config = SamplerConfig(iterations=8, burn_in=4, chains=1, seed=3,
                               sample_classes=classes)
        state = ChainState(desk_grid, initial, census, desk_hyper, config)
        assert [comp[0] for comp in state.components] == \
            list(range(slices["counts"].start, slices["counts"].stop)) + \
            list(range(slices["srb"].start, slices["srb"].stop))
        runs.append(run_chain(config, desk_grid, initial, census, desk_hyper))
    for sample in runs[1:]:
        assert _same_bits(sample.flat(), runs[0].flat())


def test_theta_at_round_trip(desk_grid, desk_hyper):
    initial = make_theta(desk_grid, seed=1)
    census = _census_from(initial, desk_grid)
    config = SamplerConfig(iterations=30, burn_in=10, chains=1, seed=2)
    sample = run_chain(config, desk_grid, initial, census, desk_hyper)
    th = sample.theta_at(3)
    assert isinstance(th, ThetaVector)
    assert np.array_equal(th.srb, sample.draws["srb"][3])


# ---------------------------------------------------------------------------
# chain groups in worker processes


def _set_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


@pytest.mark.parametrize("chains", [3, 5])
def test_chain_groups_in_workers_equal_one_process(desk_grid, monkeypatch, chains):
    initial = make_theta(desk_grid, seed=1)
    hyper = beta_from_elicitation(flat_elicitation(), initial)
    data = simulate_dataset(desk_grid, initial, hyper, seed=5)
    config = SamplerConfig(iterations=12, burn_in=4, thin=2, chains=chains, seed=9)
    forks = _count_forks(monkeypatch)
    _set_cpus(monkeypatch, 1)
    one = run_chain(config, desk_grid, data.initial, data.census, hyper)
    assert forks == []
    for cpus in (2, 8):
        _set_cpus(monkeypatch, cpus)
        forks.clear()
        got = run_chain(config, desk_grid, data.initial, data.census, hyper)
        assert len(forks) == min(chains, cpus) - 1  # the caller runs the first group
        assert _same_bits(got.flat(), one.flat())
        assert _same_bits(got.chain, one.chain)
        assert _same_bits(got.sigma2, one.sigma2)
        for cls in PARAM_CLASSES:
            assert _same_bits(got.acceptance[cls], one.acceptance[cls])
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("case", ["one chain", "one cpu", "no fork method", "other thread"])
def test_one_group_starts_no_process(desk_grid, desk_hyper, monkeypatch, case):
    def no_fork():
        raise AssertionError("run_chain forked")

    monkeypatch.setattr(os, "fork", no_fork)
    _set_cpus(monkeypatch, 1 if case == "one cpu" else 8)
    if case == "no fork method":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
    chains = 1 if case == "one chain" else 3
    initial = make_theta(desk_grid, seed=1)
    config = SamplerConfig(iterations=4, burn_in=2, chains=chains)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30.0,))
    if case == "other thread":
        other.start()
    try:
        sample = run_chain(config, desk_grid, initial, _census_from(initial, desk_grid),
                           desk_hyper)
    finally:
        stop.set()
        if other.is_alive():
            other.join(timeout=30.0)
    assert not other.is_alive()
    assert np.unique(sample.chain).tolist() == list(range(chains))


@pytest.mark.parametrize("count", [1, None])
def test_cpu_count_rules_without_sched_getaffinity(desk_grid, desk_hyper, monkeypatch, count):
    """Where os.sched_getaffinity does not exist, os.cpu_count gives the
    CPUs, and one CPU or an unknown count runs both chains here."""
    def no_pool(*args, **kwargs):
        raise AssertionError("run_chain started a process pool")

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(sampler, "ProcessPoolExecutor", no_pool)
    if "fork" in multiprocessing.get_all_start_methods():
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert sampler._n_parts(2) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    initial = make_theta(desk_grid, seed=1)
    config = SamplerConfig(iterations=4, burn_in=2, chains=2)
    sample = run_chain(config, desk_grid, initial, _census_from(initial, desk_grid), desk_hyper)
    assert sample.chain.tolist() == [0, 0, 1, 1]


@pytest.mark.parametrize("cpus", [1, 2])
def test_draws_and_sigma2_are_views_of_one_draw_matrix(desk_grid, desk_hyper, monkeypatch,
                                                       cpus):
    """run_chain, from one process or joined from chain groups, and
    prior_sample keep their draws as the rows of one matrix in
    parameter_names order; acceptance has a leading chain axis."""
    _set_cpus(monkeypatch, cpus)
    initial = make_theta(desk_grid, seed=1)
    config = SamplerConfig(iterations=8, burn_in=4, chains=3, seed=2)
    fit = run_chain(config, desk_grid, initial, _census_from(initial, desk_grid), desk_hyper)
    prior = prior_sample(initial, desk_hyper, desk_grid, 5, seed=1)
    for sample in (fit, prior):
        matrix = draw_matrix(sample)
        assert matrix.shape == (sample.n_draws, len(parameter_names(desk_grid)))
        assert _same_bits(sample.flat(), matrix)
    for cls, shape in desk_grid.class_shapes().items():
        assert fit.acceptance[cls].shape == (3,) + shape


def _running(pid):
    """Whether process pid exists and has not ended; a zombie, ended but
    not yet reaped by its new parent, has ended."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_worker_ends_when_its_parent_is_killed(tmp_path):
    """A SIGKILL runs no cleanup in the process running _fork_map, so its
    worker must notice on its own that the parent is gone."""
    pid_file = tmp_path / "worker.pid"
    script = (
        "import os, time\n"
        "from demrecon.sampler import _fork_map\n"
        "def item(k):\n"
        "    if k:\n"
        f"        open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        "        time.sleep(60)\n"
        "_fork_map(item, [(0,), (1,)])\n")
    src = str(Path(sampler.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    parent = subprocess.Popen([sys.executable, "-c", script], env=env)
    worker = None
    try:
        deadline = time.monotonic() + 60.0
        while worker is None and time.monotonic() < deadline:
            text = pid_file.read_text() if pid_file.exists() else ""
            worker = int(text) if text else None
            time.sleep(0.05)
        assert worker is not None, "the worker never started"
        parent.send_signal(signal.SIGKILL)
        parent.wait(timeout=30.0)
        deadline = time.monotonic() + 5.0
        while _running(worker) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(worker)
    finally:
        parent.kill()
        parent.wait(timeout=30.0)
        if worker is not None and _running(worker):
            os.kill(worker, signal.SIGKILL)


# SHA-256 of flat() + chain of a 2-chain, 6-sweep demo run, per start
RUN_CHAIN_DIGESTS = {
    "memory": "1d0fdf004f243b371968fbcf36e4b82713085c7e080ffa65d36108ded9f81f12",
    "csv": "4ce766ce70f780c7722d7eed8d0002ac0d4db333f672c013528f8c937f207cc4",
}


@pytest.mark.parametrize("start", ["memory", "csv"])
def test_run_chain_draws_match_recorded_digest(start):
    """Draws, accept decisions and RNG consumption of ``run_chain`` are
    pinned bit for bit, so a faster sampler must reproduce them exactly.

    "memory" starts from a C-ordered copy of the demo initial estimates;
    "csv" starts from ``data/demo/initial`` as loaded, whose fertility is
    Fortran-ordered and therefore never moves (ROADMAP item 1). The fix
    of item 1 changes every fit draw: it must re-record both digests,
    together with ``perfbench/reference/``.
    """
    grid = load_grid(DEMO / "grid.yaml")
    loaded = load_theta(DEMO / "initial", grid)
    hyper = beta_from_elicitation(load_elicitation(DEMO / "elicitation.yaml"), loaded)
    census = simulate_dataset(grid, loaded, hyper, seed=3).census
    if start == "memory":
        initial = ThetaVector.from_classes(
            {c: np.ascontiguousarray(v) for c, v in loaded.by_class().items()})
    else:
        initial = loaded
    config = SamplerConfig(iterations=6, burn_in=3, chains=2, seed=0)
    sample = run_chain(config, grid, initial, census, hyper)
    h = hashlib.sha256(np.ascontiguousarray(sample.flat()).tobytes())
    h.update(sample.chain.astype(np.int64).tobytes())
    assert h.hexdigest() == RUN_CHAIN_DIGESTS[start]


# SHA-256 of flat() + chain of the "memory" run above without a census
CENSUS_FREE_DIGEST = "9c9ac1b35523141848f912f0032f6263da144a19e3791935c6a0f5d87e7d52c3"


# SHA-256 of flat() + chain of one 40-sweep chain on the desk grid, whose
# open group is fertile; the demo grid's digests above never run a step
# in which the open group feeds births
DESK_RUN_CHAIN_DIGEST = "0b3e4b3cdb5df76d913aade2bce8fbf8e301a947faa8b729382ebcb758ddccb4"


def test_desk_run_chain_draws_match_recorded_digest(desk_grid, desk_theta, desk_hyper):
    census = simulate_dataset(desk_grid, desk_theta, desk_hyper, seed=5).census
    config = SamplerConfig(iterations=40, burn_in=20, chains=1, seed=0)
    sample = run_chain(config, desk_grid, desk_theta, census, desk_hyper)
    h = hashlib.sha256(np.ascontiguousarray(sample.flat()).tobytes())
    h.update(sample.chain.astype(np.int64).tobytes())
    assert h.hexdigest() == DESK_RUN_CHAIN_DIGEST


def test_census_free_run_chain_draws_match_recorded_digest():
    """A state without a census makes the same accept decisions from its
    empty census misfit as from none."""
    grid = load_grid(DEMO / "grid.yaml")
    loaded = load_theta(DEMO / "initial", grid)
    hyper = beta_from_elicitation(load_elicitation(DEMO / "elicitation.yaml"), loaded)
    initial = ThetaVector.from_classes(
        {c: np.ascontiguousarray(v) for c, v in loaded.by_class().items()})
    config = SamplerConfig(iterations=6, burn_in=3, chains=2, seed=0)
    sample = run_chain(config, grid, initial, None, hyper)
    h = hashlib.sha256(np.ascontiguousarray(sample.flat()).tobytes())
    h.update(sample.chain.astype(np.int64).tobytes())
    assert h.hexdigest() == CENSUS_FREE_DIGEST


@pytest.mark.xfail(strict=True, reason=(
    "load_theta returns fertility Fortran-ordered; ChainState keeps that layout,"
    " so its flat fertility (reshape(-1)) is a copy and the proposal is lost"))
def test_fertility_draws_move_from_loaded_initial_estimates():
    grid = load_grid(DEMO / "grid.yaml")
    initial = load_theta(DEMO / "initial", grid)
    hyper = beta_from_elicitation(load_elicitation(DEMO / "elicitation.yaml"), initial)
    config = SamplerConfig(iterations=6, burn_in=2, chains=1, seed=0)
    sample = run_chain(config, grid, initial, None, hyper)
    assert not np.all(sample.draws["fertility"] == initial.fertility)
