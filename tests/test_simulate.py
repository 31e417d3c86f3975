"""Generative-model draws and synthetic datasets."""

import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from demrecon import (ModelGrid, PARAM_CLASSES, HyperParams, Trajectory,
                      beta_from_elicitation, draw_joint, load_elicitation, load_grid,
                      load_theta, positivity_indicator, prior_sample, project_full,
                      simulate, simulate_dataset)
from demrecon.priors import draw_invgamma
from conftest import make_theta, flat_elicitation
from oracles import invgamma_cdf_oracle, prior_draws_oracle

DEMO = Path(__file__).resolve().parent.parent / "data" / "demo"


@pytest.fixture(scope="module")
def problems():
    """(grid, initial estimates, hyperparameters) of the demo and of a
    demo-sized grid whose fertile span starts at age 0."""
    grid = load_grid(DEMO / "grid.yaml")
    initial = load_theta(DEMO / "initial", grid)
    elic = load_elicitation(DEMO / "elicitation.yaml")
    grid0 = dataclasses.replace(grid, fert_min_age=0)
    initial0 = make_theta(grid0, seed=2)
    return {"demo": (grid, initial, beta_from_elicitation(elic, initial)),
            "fert_min_age_0": (grid0, initial0, beta_from_elicitation(elic, initial0))}


def test_variance_draws_follow_prior(desk_hyper):
    rng = np.random.default_rng(0)
    a, b = desk_hyper.alpha["fertility"], desk_hyper.beta["fertility"]
    draws = draw_invgamma(rng, a, b, 4000)
    assert np.all(draws > 0)
    cdf = lambda x: np.array([invgamma_cdf_oracle(v, a, b)
                              for v in np.atleast_1d(x)])
    assert stats.kstest(draws, cdf).pvalue > 0.01


def test_draw_joint_returns_positive_trajectory(desk_grid, desk_hyper):
    initial = make_theta(desk_grid, seed=1)
    rng = np.random.default_rng(4)
    for _ in range(20):
        v, theta = draw_joint(initial, desk_hyper, desk_grid, rng)
        traj = project_full(theta.baseline, theta, desk_grid)
        assert positivity_indicator(traj.counts)
        assert v.shape == (len(PARAM_CLASSES),) and np.all(v > 0)


def test_simulate_dataset_reproducible(desk_grid, desk_hyper):
    initial = make_theta(desk_grid, seed=1)
    d1 = simulate_dataset(desk_grid, initial, desk_hyper, seed=9)
    d2 = simulate_dataset(desk_grid, initial, desk_hyper, seed=9)
    assert np.array_equal(d1.census.counts, d2.census.counts)
    assert np.array_equal(d1.theta_true.srb, d2.theta_true.srb)
    d3 = simulate_dataset(desk_grid, initial, desk_hyper, seed=10)
    assert not np.array_equal(d1.census.counts, d3.census.counts)


def test_simulate_dataset_contents(desk_grid, desk_hyper):
    initial = make_theta(desk_grid, seed=1)
    data = simulate_dataset(desk_grid, initial, desk_hyper, seed=5)
    assert data.census.years == desk_grid.likelihood_years
    assert data.census.counts.shape == (len(data.census.years),
                                        desk_grid.n_ages, 2)
    assert np.all(data.census.counts > 0)
    # the noisy census scatters around the true trajectory
    traj = project_full(data.theta_true.baseline, data.theta_true, desk_grid)
    for i, y in enumerate(data.census.years):
        ratio = data.census.counts[i] / traj.at(y)
        assert np.all(ratio > 0.2) and np.all(ratio < 5.0)


def test_simulate_dataset_requires_post_baseline_census(desk_hyper, desk_grid):
    bare = ModelGrid(start_year=1960, end_year=1975, open_age=15,
                     fert_min_age=10, fert_max_age=15, census_years=(1960,))
    initial = make_theta(desk_grid, seed=1)
    with pytest.raises(ValueError):
        simulate_dataset(bare, initial, desk_hyper, seed=0)


def test_prior_sample_shapes_and_determinism(desk_grid, desk_hyper):
    initial = make_theta(desk_grid, seed=1)
    s = prior_sample(initial, desk_hyper, desk_grid, n_draws=8, seed=3)
    assert s.n_draws == 8
    assert s.draws["survival"].shape == (8,) + initial.survival.shape
    assert s.sigma2.shape == (8, 5)
    assert np.all(s.sigma2 > 0)
    s2 = prior_sample(initial, desk_hyper, desk_grid, n_draws=8, seed=3)
    assert np.array_equal(s.flat(), s2.flat())
    # every retained draw satisfies positivity
    for i in range(8):
        theta = s.theta_at(i)
        assert positivity_indicator(project_full(theta.baseline, theta, desk_grid).counts)


def test_prior_sample_variances_vary(desk_grid, desk_hyper):
    initial = make_theta(desk_grid, seed=1)
    s = prior_sample(initial, desk_hyper, desk_grid, n_draws=6, seed=0)
    assert np.unique(s.sigma2[:, 0]).size == 6


def test_hyperparameters_shrink_with_eta(desk_grid):
    """Smaller elicited relative error concentrates the variance prior."""
    initial = make_theta(desk_grid, seed=1)
    wide = beta_from_elicitation(flat_elicitation(0.2), initial)
    narrow = beta_from_elicitation(flat_elicitation(0.02), initial)
    for cls in PARAM_CLASSES:
        assert narrow.beta[cls] < wide.beta[cls]


@pytest.mark.parametrize("n_draws", [1, 7, 600])
@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("kind", ["demo", "fert_min_age_0"])
def test_prior_sample_equals_per_candidate_loop(problems, kind, seed, n_draws):
    """Chunked candidates keep bitwise the draws of one candidate at a time;
    600 draws take more than one chunk."""
    grid, initial, hyper = problems[kind]
    s = prior_sample(initial, hyper, grid, n_draws, seed=seed)
    sig, thetas, tried = prior_draws_oracle(initial, hyper, grid,
                                            np.random.default_rng(seed), n_draws)
    assert s.sigma2.tobytes() == np.array(sig).tobytes()
    for c in PARAM_CLASSES:
        assert s.draws[c].tobytes() == np.stack([t.by_class()[c] for t in thetas]).tobytes()
    assert s.chain.dtype == np.int64 and s.chain.tobytes() == bytes(8 * n_draws)
    if n_draws == 600:
        assert tried > 600  # rejections happened, in more than one chunk


@pytest.mark.parametrize("seed", [0, 7])
def test_simulate_dataset_takes_truth_then_noise_from_one_stream(problems, seed):
    grid, initial, hyper = problems["demo"]
    data = simulate_dataset(grid, initial, hyper, seed=seed)
    rng = np.random.default_rng(seed)
    (v,), (theta,), _ = prior_draws_oracle(initial, hyper, grid, rng, 1)
    traj = project_full(theta.baseline, theta, grid)
    want = np.stack([np.exp(np.log(traj.at(y)) + np.sqrt(v[0]) * rng.standard_normal((grid.n_ages, 2)))
                     for y in grid.likelihood_years])
    assert data.census.counts.tobytes() == want.tobytes()
    assert data.variances_true.tolist() == v
    for c, a in theta.by_class().items():
        assert data.theta_true.by_class()[c].tobytes() == a.tobytes()


def test_draw_joint_gives_up_when_positivity_unreachable(desk_grid, desk_hyper):
    initial = make_theta(desk_grid, seed=1)
    hopeless = initial.replace(migration=np.full_like(initial.migration, -3.0))
    with pytest.raises(RuntimeError, match="in 50 consecutive tries"):
        draw_joint(hopeless, desk_hyper, desk_grid, np.random.default_rng(3), max_tries=50)


def test_overflowing_candidate_is_rejected(desk_grid):
    """Finite parameters whose projection overflows to inf are no population."""
    initial = make_theta(desk_grid, seed=1)
    huge = initial.replace(baseline=np.full_like(initial.baseline, 1e308),
                           migration=np.full_like(initial.migration, 0.01))
    with np.errstate(over="ignore"):
        counts = project_full(huge.baseline, huge, desk_grid).counts
    assert np.isinf(counts).any() and np.all(counts >= 0)  # inf, not negative or NaN
    # variances near 1e-12, so every candidate stays beside the overflowing centre
    tight = HyperParams(alpha={c: 1.0 for c in PARAM_CLASSES},
                        beta={c: 1e-12 for c in PARAM_CLASSES})
    with pytest.raises(RuntimeError, match="in 5 consecutive tries"):
        draw_joint(huge, tight, desk_grid, np.random.default_rng(0), max_tries=5)


def test_prior_sample_skips_a_planted_overflow(problems, monkeypatch):
    """A candidate whose stacked trajectory holds inf is dropped from its
    chunk, and the next admissible candidate takes its place."""
    grid, initial, hyper = problems["demo"]
    clean = prior_sample(initial, hyper, grid, 8, seed=0)
    _, _, tried = prior_draws_oracle(initial, hyper, grid, np.random.default_rng(0), 1)
    assert tried == 1  # the stream's first candidate is admissible
    real, calls = simulate.project_full, []

    def first_overflows(baseline, theta, grid):
        traj = real(baseline, theta, grid)
        counts = traj.counts.copy()
        if not calls:
            counts[0, -1, -1, 0] = np.inf
        calls.append(1)
        return Trajectory(counts=counts, years=traj.years)

    monkeypatch.setattr(simulate, "project_full", first_overflows)
    planted = prior_sample(initial, hyper, grid, 7, seed=0)
    assert planted.flat().tobytes() == clean.flat()[1:].tobytes()


def test_prior_sample_projects_once_per_chunk(problems, monkeypatch):
    grid, initial, hyper = problems["demo"]
    real, calls = simulate.project_full, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(simulate, "project_full", counted)
    prior_sample(initial, hyper, grid, 2000, seed=0)
    assert len(calls) <= 20  # one call per candidate would be 4,068


def test_prior_sample_rejections_stay_silent(problems):
    """At seed 0 an srb candidate among the first 50 draws overflows exp;
    its rejection raises no numpy warning."""
    grid, initial, hyper = problems["demo"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prior_sample(initial, hyper, grid, 50, seed=0)
