"""Metropolis-within-Gibbs machinery: posterior evaluation, the variance
Gibbs block, single-component updates and full runs."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from demrecon import (CensusData, ConfigError, PARAM_CLASSES,
                      SamplerConfig, SamplingError, ThetaVector,
                      VarianceParams, beta_from_elicitation, gelman_rubin,
                      load_elicitation, load_grid, load_theta, log_posterior,
                      parameter_names, project_full, run_chain,
                      simulate_dataset, transform, variance_posterior)
from demrecon.sampler import ChainState
from conftest import make_theta, flat_elicitation
from oracles import invgamma_cdf_oracle, log_posterior_oracle

DEMO = Path(__file__).resolve().parent.parent / "data" / "demo"


def _variances():
    return VarianceParams(counts=2e-4, fertility=3e-4, survival=0.5,
                          migration=1e-4, srb=1.5e-4)


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
    state.x = {c: transform(c, v).ravel() for c, v in initial.by_class().items()}
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
    for cls, arr in theta.by_class().items():
        r = state.x[cls] - state.mu[cls]
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
    state.x = {c: transform(c, v).ravel() for c, v in theta.by_class().items()}
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


def test_update_preserves_trajectory_cache(desk_grid, desk_hyper):
    state, initial, census = _state(desk_grid, desk_hyper)
    rng = np.random.default_rng(7)
    for comp in range(state.n_components):
        cls = state.components[comp][0]
        _mh_update_component(state, comp, 0.3 * math.exp(state.log_scale[cls][0]), rng)
    fresh = project_full(state.theta().baseline, state.theta(), desk_grid)
    assert np.array_equal(state.traj, fresh.counts)
    for ci in range(len(state.cen_pos)):
        assert state.quad[ci] == pytest.approx(state._year_quad(ci, fresh.counts),
                                               rel=1e-12)


def test_update_delta_matches_posterior_difference(desk_grid, desk_hyper):
    """The incremental acceptance ratio must equal the brute-force
    difference of full log posteriors at fixed variances."""
    state, initial, census = _state(desk_grid, desk_hyper)
    v = VarianceParams(*state.sigma2)
    before = log_posterior(state.theta(), v, initial, desk_hyper, census, desk_grid)
    comp = 11  # a fertility component
    cls, j, _ = state.components[comp]
    z, scale = 0.8, 0.05
    accepted, aprob = state.update_component(comp, scale, z, -math.inf)
    assert accepted
    after = log_posterior(state.theta(), v, initial, desk_hyper, census, desk_grid)
    assert aprob == pytest.approx(min(1.0, math.exp(min(after - before, 0.0))),
                                  rel=1e-9)


def test_update_rejection_restores_state(desk_grid, desk_hyper):
    state, _, _ = _state(desk_grid, desk_hyper)
    x_before = {c: state.x[c].copy() for c in PARAM_CLASSES}
    nat_before = {c: state.nat[c].copy() for c in PARAM_CLASSES}
    traj_before = state.traj.copy()
    quad_before = state.quad.copy()
    # logu = 0 can only accept when the proposal strictly improves;
    # a huge step into the tail will not
    accepted, _ = state.update_component(0, 50.0, 3.0, 0.0)
    assert not accepted
    for c in PARAM_CLASSES:
        assert np.array_equal(state.x[c], x_before[c])
        assert np.array_equal(state.nat[c], nat_before[c])
    assert np.array_equal(state.traj, traj_before)
    assert np.array_equal(state.quad, quad_before)


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
    comps = [i for i, (c, _, _) in enumerate(state.components) if c == "migration"]
    comp = comps[0]
    accepted, aprob = state.update_component(comp, 10.0, -1.0, -math.inf)
    assert not accepted
    assert aprob == 0.0
    assert np.all(state.traj >= 0)


def test_acceptance_ratio_antisymmetry(desk_grid, desk_hyper):
    """Forward and reverse moves between the same two points must have
    log ratios that cancel (detailed balance of the acceptance rule)."""
    state, initial, census = _state(desk_grid, desk_hyper)
    v = VarianceParams(*state.sigma2)
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
    assert s1.chain_ids() == [0, 1]
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


def test_theta_at_and_variances_at_round_trip(desk_grid, desk_hyper):
    initial = make_theta(desk_grid, seed=1)
    census = _census_from(initial, desk_grid)
    config = SamplerConfig(iterations=30, burn_in=10, chains=1, seed=2)
    sample = run_chain(config, desk_grid, initial, census, desk_hyper)
    th = sample.theta_at(3)
    assert isinstance(th, ThetaVector)
    assert np.array_equal(th.srb, sample.draws["srb"][3])
    v = sample.variances_at(3)
    assert v.counts == sample.sigma2[3, 0]
    assert v.srb == sample.sigma2[3, 4]


@pytest.mark.xfail(strict=True, reason=(
    "load_theta returns fertility Fortran-ordered; ChainState keeps that layout,"
    " so nat.reshape(-1) in update_component is a copy and the proposal is lost"))
def test_fertility_draws_move_from_loaded_initial_estimates():
    grid = load_grid(DEMO / "grid.yaml")
    initial = load_theta(DEMO / "initial", grid)
    hyper = beta_from_elicitation(load_elicitation(DEMO / "elicitation.yaml"), initial)
    config = SamplerConfig(iterations=6, burn_in=2, chains=1, seed=0)
    sample = run_chain(config, grid, initial, None, hyper)
    assert not np.all(sample.draws["fertility"] == initial.fertility)
