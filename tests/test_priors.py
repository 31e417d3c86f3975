"""Hierarchical-model densities and elicitation arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demrecon import (CensusData, Elicitation, ElicitationError, PARAM_CLASSES,
                      beta_from_elicitation, log_invgamma,
                      log_likelihood_census, log_prior_theta, project_full,
                      t_quantile_95, transform, untransform)
from conftest import make_theta, flat_elicitation
from oracles import (invgamma_logpdf_oracle, log_likelihood_oracle,
                     log_prior_oracle, t_quantile_oracle)


def _variances():
    """counts, fertility, survival, migration and srb variances, in that order."""
    return np.array([2e-4, 3e-4, 0.5, 1e-4, 1.5e-4])


# ---------------------------------------------------------------------------
# transforms


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_log_transform_round_trip(x):
    for cls in ("counts", "fertility", "srb"):
        assert untransform(cls, transform(cls, x)) == pytest.approx(x, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_logit_transform_round_trip(s):
    assert untransform("survival", transform("survival", s)) == pytest.approx(s, rel=1e-9)


def test_migration_transform_is_identity():
    x = np.array([-0.5, 0.0, 0.7])
    assert np.array_equal(transform("migration", x), x)
    assert np.array_equal(untransform("migration", x), x)


# ---------------------------------------------------------------------------
# parameter prior


def test_log_prior_at_center_is_normalizing_constants(desk_grid):
    theta = make_theta(desk_grid, seed=1)
    v = _variances()
    got = log_prior_theta(theta, theta, v)
    expected = 0.0
    for arr, var in zip(theta.by_class().values(), v):
        expected += -0.5 * arr.size * math.log(2.0 * math.pi * var)
    assert got == pytest.approx(expected, rel=1e-12)


def test_log_prior_doubling_one_variance(desk_grid):
    """At the center the quadratic terms vanish, so doubling one variance
    moves the total by exactly half the class size times log 2."""
    theta = make_theta(desk_grid, seed=2)
    v1 = _variances()
    v2 = v1.copy()
    v2[PARAM_CLASSES.index("fertility")] *= 2.0
    drop = log_prior_theta(theta, theta, v1) - log_prior_theta(theta, theta, v2)
    assert drop == pytest.approx(0.5 * theta.fertility.size * math.log(2.0), rel=1e-12)


def test_log_prior_matches_scalar_oracle(desk_grid):
    initial = make_theta(desk_grid, seed=3)
    theta = make_theta(desk_grid, seed=4)
    v = _variances()
    assert log_prior_theta(theta, initial, v) == pytest.approx(
        log_prior_oracle(theta, initial, v), rel=1e-12)


def test_log_prior_rejects_domain_violations(desk_grid):
    theta = make_theta(desk_grid, seed=5)
    f = theta.fertility.copy()
    f[0, 0] = 0.0
    with pytest.raises(ValueError):
        log_prior_theta(theta.replace(fertility=f), theta, _variances())
    s = theta.survival.copy()
    s[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        log_prior_theta(theta.replace(survival=s), theta, _variances())


# ---------------------------------------------------------------------------
# census likelihood


def test_likelihood_zero_misfit_is_constant_only(desk_grid):
    theta = make_theta(desk_grid, seed=6)
    traj = project_full(theta.baseline, theta, desk_grid)
    years = desk_grid.likelihood_years
    counts = np.stack([traj.at(y) for y in years])
    census = CensusData(years=years, counts=counts)
    s2 = 1e-4
    got = log_likelihood_census(traj, census, s2, desk_grid)
    m = counts.size
    assert got == pytest.approx(-0.5 * m * math.log(2.0 * math.pi * s2), rel=1e-12)


def test_likelihood_single_factor_e_misfit(desk_grid):
    """One observation off by a factor of e adds a quadratic term of
    exactly -1/2 at unit variance."""
    theta = make_theta(desk_grid, seed=7)
    traj = project_full(theta.baseline, theta, desk_grid)
    years = desk_grid.likelihood_years
    counts = np.stack([traj.at(y) for y in years])
    base = log_likelihood_census(traj, CensusData(years=years, counts=counts),
                                 1.0, desk_grid)
    bumped = counts.copy()
    bumped[0, 2, 1] *= math.e
    offset = log_likelihood_census(traj, CensusData(years=years, counts=bumped),
                                   1.0, desk_grid)
    assert base - offset == pytest.approx(0.5, rel=1e-9)


def test_likelihood_matches_scalar_oracle(desk_grid):
    theta = make_theta(desk_grid, seed=8)
    traj = project_full(theta.baseline, theta, desk_grid)
    years = desk_grid.likelihood_years
    rng = np.random.default_rng(0)
    counts = np.stack([traj.at(y) for y in years]) * rng.lognormal(0.0, 0.05, (2, 4, 2))
    census = CensusData(years=years, counts=counts)
    s2 = 3.4e-3
    assert log_likelihood_census(traj, census, s2, desk_grid) == pytest.approx(
        log_likelihood_oracle(traj, census, s2, desk_grid), rel=1e-12)


def test_likelihood_ignores_baseline_census(desk_grid):
    """A census entry at the baseline year never enters the likelihood."""
    theta = make_theta(desk_grid, seed=9)
    traj = project_full(theta.baseline, theta, desk_grid)
    later = desk_grid.likelihood_years
    counts_later = np.stack([traj.at(y) for y in later])
    with_base = CensusData(years=(desk_grid.start_year,) + later,
                           counts=np.concatenate([1e6 * np.ones((1,) + counts_later.shape[1:]),
                                                  counts_later]))
    without = CensusData(years=later, counts=counts_later)
    s2 = 1e-3
    assert log_likelihood_census(traj, with_base, s2, desk_grid) == \
        log_likelihood_census(traj, without, s2, desk_grid)


def test_likelihood_rejects_nonpositive_projection(desk_grid):
    theta = make_theta(desk_grid, seed=10)
    mig = theta.migration.copy()
    mig[:, 0, :] = -3.0
    bad = theta.replace(migration=mig)
    traj = project_full(bad.baseline, bad, desk_grid)
    years = desk_grid.likelihood_years
    census = CensusData(years=years, counts=np.ones((2, desk_grid.n_ages, 2)))
    with pytest.raises(ValueError):
        log_likelihood_census(traj, census, 1e-3, desk_grid)


# ---------------------------------------------------------------------------
# inverse gamma density


def test_log_invgamma_unit_case():
    assert log_invgamma(1.0, 1.0, 1.0) == pytest.approx(-1.0, rel=1e-14)


def test_log_invgamma_mode():
    alpha, beta = 0.7, 2.3e-4
    mode = beta / (alpha + 1.0)
    at_mode = log_invgamma(mode, alpha, beta)
    for factor in (0.9, 1.1):
        assert log_invgamma(mode * factor, alpha, beta) < at_mode


def test_log_invgamma_matches_high_precision_oracle():
    for (s2, a, b) in [(1e-4, 0.5, 1.14e-4), (0.3, 2.0, 1.0), (5.0, 0.5, 0.2)]:
        assert log_invgamma(s2, a, b) == pytest.approx(
            invgamma_logpdf_oracle(s2, a, b), rel=1e-12)


def test_log_invgamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_invgamma(-1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        log_invgamma(1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# elicitation


def test_t_quantile_against_bisection_oracle():
    for alpha in (0.5, 1.0, 2.5):
        assert t_quantile_95(alpha) == pytest.approx(
            t_quantile_oracle(0.95, 2.0 * alpha), rel=1e-10)


def test_beta_log_scale_pinned_value(desk_grid):
    hyper = beta_from_elicitation(flat_elicitation(0.10), make_theta(desk_grid))
    t95 = t_quantile_oracle(0.95, 1.0)
    expected = 0.5 * (math.log(1.1) / t95) ** 2
    for cls in ("counts", "fertility", "srb"):
        assert hyper.beta[cls] == pytest.approx(expected, rel=1e-8)
    assert hyper.beta["counts"] == pytest.approx(1.1394e-4, abs=1e-7)


def test_beta_migration_natural_scale(desk_grid):
    e = Elicitation(eta={"counts": 0.1, "fertility": 0.1, "survival": 0.1,
                         "migration": 0.20, "srb": 0.1})
    hyper = beta_from_elicitation(e, make_theta(desk_grid))
    t95 = t_quantile_oracle(0.95, 1.0)
    assert hyper.beta["migration"] == pytest.approx(0.5 * (0.2 / t95) ** 2, rel=1e-8)
    assert hyper.beta["migration"] == pytest.approx(5.017e-4, abs=5e-7)


def test_beta_survival_uses_grid_max_halfwidth(desk_grid):
    theta = make_theta(desk_grid, seed=1)
    eta = 0.1
    hyper = beta_from_elicitation(flat_elicitation(eta), theta)
    s = theta.survival
    upper = np.minimum(s * (1.0 + eta), 1.0 - 1e-6)
    lower = s * (1.0 - eta)
    logit = lambda p: np.log(p / (1.0 - p))
    d = max(float(np.max(np.abs(logit(upper) - logit(s)))),
            float(np.max(np.abs(logit(s) - logit(lower)))))
    t95 = t_quantile_oracle(0.95, 1.0)
    assert hyper.beta["survival"] == pytest.approx(0.5 * (d / t95) ** 2, rel=1e-8)


def test_beta_survival_clamp_engages(desk_grid):
    """Survival estimates near 1 get their upper elicitation bound clamped
    below 1 instead of a domain error."""
    theta = make_theta(desk_grid, seed=1)
    s = np.full_like(theta.survival, 0.999)
    s[0, 0, 0] = 0.8
    hyper = beta_from_elicitation(flat_elicitation(0.1), theta.replace(survival=s))
    assert np.isfinite(hyper.beta["survival"])
    assert hyper.beta["survival"] > 0.0
    upper = np.minimum(s * 1.1, 1.0 - 1e-6)
    logit = lambda p: np.log(p / (1.0 - p))
    d = max(float(np.max(np.abs(logit(upper) - logit(s)))),
            float(np.max(np.abs(logit(s) - logit(s * 0.9)))))
    t95 = t_quantile_oracle(0.95, 1.0)
    assert hyper.beta["survival"] == pytest.approx(0.5 * (d / t95) ** 2, rel=1e-8)


def test_elicitation_all_survival_bounds_unattainable(desk_grid):
    theta = make_theta(desk_grid, seed=1)
    s = np.full_like(theta.survival, 0.999)
    with pytest.raises(ElicitationError):
        beta_from_elicitation(flat_elicitation(0.1), theta.replace(survival=s))


def test_elicitation_error_cases(desk_grid):
    theta = make_theta(desk_grid)
    with pytest.raises(ElicitationError):
        beta_from_elicitation(flat_elicitation(0.0), theta)
    with pytest.raises(ElicitationError):
        beta_from_elicitation(Elicitation(
            eta={c: 0.1 for c in PARAM_CLASSES},
            alpha={c: -1.0 for c in PARAM_CLASSES}), theta)
    with pytest.raises(ElicitationError):
        beta_from_elicitation(Elicitation(
            eta={"counts": 0.1, "fertility": 0.1, "survival": 1.5,
                 "migration": 0.1, "srb": 0.1}), theta)


def test_alpha_affects_degrees_of_freedom(desk_grid):
    theta = make_theta(desk_grid)
    e2 = Elicitation(eta={c: 0.1 for c in PARAM_CLASSES},
                     alpha={c: 2.0 for c in PARAM_CLASSES})
    hyper = beta_from_elicitation(e2, theta)
    t95 = t_quantile_oracle(0.95, 4.0)
    assert hyper.beta["srb"] == pytest.approx(2.0 * (math.log(1.1) / t95) ** 2, rel=1e-8)
