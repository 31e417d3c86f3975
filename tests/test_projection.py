"""Projection engine against scalar-loop oracles and exact cohort identities."""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demrecon import (FEMALE, MALE, ModelGrid, ThetaVector, beta_from_elicitation,
                      load_elicitation, load_grid, load_theta, positivity_indicator,
                      prior_sample, project_full, total_births)
from conftest import flat_elicitation, make_theta
from oracles import project_oracle, step_oracle, births_oracle


def test_total_births_hand_case():
    # one fertile group, f=0.1, 100 women there and 100 below, survival 1
    counts_f = np.array([100.0, 100.0, 50.0])
    survival_f = np.array([1.0, 1.0, 1.0, 1.0])
    b = total_births(counts_f, survival_f, np.array([0.1]), np.array([1]))
    assert b == 50.0


def test_total_births_zero_fertility(desk_grid, desk_theta):
    b = total_births(desk_theta.baseline[:, FEMALE],
                     desk_theta.survival[:, 0, FEMALE],
                     np.zeros(desk_grid.n_fertile), desk_grid.fertile_index)
    assert b == 0.0


def test_total_births_matches_sum_oracle():
    rng = np.random.default_rng(7)
    counts_f = rng.uniform(10, 200, 8)
    survival_f = rng.uniform(0.5, 0.99, 9)
    fert = rng.uniform(0.01, 0.3, 3)
    idx = np.array([2, 3, 4])
    expected = births_oracle(counts_f.tolist(), survival_f.tolist(),
                             fert.tolist(), idx.tolist())
    got = total_births(counts_f, survival_f, fert, idx)
    assert got == pytest.approx(expected, rel=1e-14)


def test_total_births_first_group_fertile():
    """When age [0,5) is fertile there is no younger group to survive in."""
    counts_f = np.array([100.0, 80.0])
    survival_f = np.array([0.9, 0.9, 0.9])
    b = total_births(counts_f, survival_f, np.array([0.1]), np.array([0]))
    assert b == pytest.approx(5.0 * 0.1 * 100.0 / 2.0)


ONE_PERIOD = ModelGrid(start_year=2000, end_year=2005, open_age=10,
                       fert_min_age=5, fert_max_age=5)


def _one_step(counts, fertility):
    """Counts after one period on ONE_PERIOD with unit survival and no
    migration."""
    theta = ThetaVector(baseline=counts, fertility=[[fertility]],
                        survival=np.ones((4, 1, 2)), migration=np.zeros((3, 1, 2)),
                        srb=[1.05])
    traj = project_full(theta.baseline, theta, ONE_PERIOD)
    assert traj.years == (2000, 2005)
    return traj.counts[1]


def test_project_step_pure_age_shift():
    """No migration, no fertility, survival one: counts shift one group."""
    counts = np.array([[10.0, 10.0], [20.0, 20.0], [30.0, 30.0]])
    new = _one_step(counts, 0.0)
    for sex in (FEMALE, MALE):
        assert list(new[:, sex]) == [0.0, 10.0, 50.0]


def test_project_step_birth_split_shares():
    """1000 births at srb 1.05 with unit age-0 survival and no migration."""
    # f * (n + n_below * s) * 5 / 2 = 1000 with f=1, n=360, n_below=40, s=1
    counts = np.array([[40.0, 40.0], [360.0, 360.0], [30.0, 30.0]])
    new = _one_step(counts, 1.0)
    assert new[0, FEMALE] == pytest.approx(1000.0 / 2.05)
    assert new[0, MALE] == pytest.approx(1000.0 * 1.05 / 2.05)
    assert new[0, FEMALE] == pytest.approx(487.80487804878)
    assert new[0, MALE] == pytest.approx(512.19512195122)


def test_step_matches_scalar_oracle_full_size(full_grid):
    theta = make_theta(full_grid, seed=11, mig_width=0.05)
    new = project_full(theta.baseline, theta, full_grid).counts[1]
    expected = step_oracle(theta.baseline.tolist(),
                           theta.fertility[:, 0].tolist(),
                           theta.survival[:, 0, :].tolist(),
                           theta.migration[:, 0, :].tolist(),
                           float(theta.srb[0]),
                           full_grid.fertile_index.tolist())
    assert np.allclose(new, expected, rtol=1e-12, atol=0.0)


def test_project_full_one_period_equals_step(desk_grid, desk_theta):
    """A one-period grid gives bitwise the first step of the longer grid."""
    grid1 = ModelGrid(start_year=desk_grid.start_year,
                      end_year=desk_grid.start_year + 5,
                      open_age=desk_grid.open_age,
                      fert_min_age=desk_grid.fert_min_age,
                      fert_max_age=desk_grid.fert_max_age)
    theta1 = ThetaVector(baseline=desk_theta.baseline,
                         fertility=desk_theta.fertility[:, :1],
                         survival=desk_theta.survival[:, :1, :],
                         migration=desk_theta.migration[:, :1, :],
                         srb=desk_theta.srb[:1])
    traj = project_full(theta1.baseline, theta1, grid1)
    full = project_full(desk_theta.baseline, desk_theta, desk_grid)
    assert traj.years == full.years[:2]
    assert np.array_equal(traj.counts, full.counts[:2])


def test_project_full_double_shift():
    """Zero migration and unit survival over two periods move everyone
    up two age groups, with the open group accumulating."""
    grid = ModelGrid(start_year=2000, end_year=2010, open_age=15,
                     fert_min_age=10, fert_max_age=10)
    K, P = grid.n_ages, grid.n_periods
    theta = ThetaVector(
        baseline=np.array([[10.0, 1.0], [20.0, 2.0], [30.0, 3.0], [40.0, 4.0]]),
        fertility=np.zeros((1, P)),
        survival=np.ones((K + 1, P, 2)),
        migration=np.zeros((K, P, 2)),
        srb=np.full(P, 1.05),
    )
    traj = project_full(theta.baseline, theta, grid)
    assert list(traj.counts[2, :, FEMALE]) == [0.0, 0.0, 10.0, 90.0]
    assert list(traj.counts[2, :, MALE]) == [0.0, 0.0, 1.0, 9.0]


def test_project_full_matches_composed_oracle(full_grid):
    theta = make_theta(full_grid, seed=23, mig_width=0.05)
    traj = project_full(theta.baseline, theta, full_grid)
    expected = project_oracle(theta.baseline, theta.fertility, theta.survival,
                              theta.migration, theta.srb,
                              full_grid.fertile_index.tolist())
    assert traj.counts.shape == (5, 17, 2)
    assert np.allclose(traj.counts, expected, rtol=1e-12, atol=0.0)


def test_project_full_with_first_group_fertile_matches_oracle(full_grid):
    """Fertile ages from [0,5): the first group has no younger group."""
    grid = dataclasses.replace(full_grid, fert_min_age=0)
    theta = make_theta(grid, seed=29, mig_width=0.05)
    traj = project_full(theta.baseline, theta, grid)
    expected = project_oracle(theta.baseline, theta.fertility, theta.survival,
                              theta.migration, theta.srb, grid.fertile_index.tolist())
    assert np.allclose(traj.counts, expected, rtol=1e-12, atol=0.0)


def test_trajectory_years_and_at(desk_grid, desk_theta):
    traj = project_full(desk_theta.baseline, desk_theta, desk_grid)
    assert traj.years == (1960, 1965, 1970, 1975)
    assert np.array_equal(traj.at(1960), desk_theta.baseline)


def test_first_negative_reports_coordinates(desk_grid, desk_theta):
    mig = desk_theta.migration.copy()
    mig[1, 0, MALE] = -3.0
    traj = project_full(desk_theta.baseline, desk_theta.replace(migration=mig), desk_grid)
    year, age, sex = traj.first_negative()
    assert (year, age, sex) == (1965, 10, "male")
    assert not positivity_indicator(traj.counts)


def test_positivity_indicator_cases(desk_grid, desk_theta):
    traj = project_full(desk_theta.baseline, desk_theta, desk_grid)
    assert positivity_indicator(traj.counts)
    assert traj.first_negative() is None
    mig = desk_theta.migration.copy()
    mig[:, 1, :] = -3.0
    bad = project_full(desk_theta.baseline, desk_theta.replace(migration=mig), desk_grid)
    assert not positivity_indicator(bad.counts)


def test_positivity_indicator_rejects_nan(desk_grid, desk_theta):
    counts = np.full((4, 2), np.nan)
    traj = project_full(counts, desk_theta, desk_grid)
    assert not positivity_indicator(traj.counts)


# ---------------------------------------------------------------------------
# exact cohort identities with migration identically zero


def _no_migration_theta(grid, seed):
    rng = np.random.default_rng(seed)
    K, P, F = grid.n_ages, grid.n_periods, grid.n_fertile
    return ThetaVector(
        baseline=rng.uniform(1.0, 500.0, (K, 2)),
        fertility=rng.uniform(0.01, 0.4, (F, P)),
        survival=rng.uniform(0.2, 0.99, (K + 1, P, 2)),
        migration=np.zeros((K, P, 2)),
        srb=rng.uniform(0.8, 1.3, P),
    )


@pytest.mark.parametrize("seed", range(10))
def test_cohort_identities_bitwise(desk_grid, seed):
    """With no migration, survivors propagate exactly: interior groups as
    count * survival, the open group as survivors-from-below plus its own
    retained members, and births split by sex in the documented order."""
    theta = _no_migration_theta(desk_grid, seed)
    traj = project_full(theta.baseline, theta, desk_grid).counts
    K = desk_grid.n_ages
    for p in range(desk_grid.n_periods):
        n, out = traj[p], traj[p + 1]
        s = theta.survival[:, p, :]
        for sex in (FEMALE, MALE):
            for a in range(K - 2):
                assert out[a + 1, sex] == n[a, sex] * s[a + 1, sex]
            assert out[K - 1, sex] == n[K - 2, sex] * s[K - 1, sex] + n[K - 1, sex] * s[K, sex]
        b = total_births(n[:, FEMALE], s[:, FEMALE],
                         theta.fertility[:, p], desk_grid.fertile_index)
        srb = float(theta.srb[p])
        assert out[0, FEMALE] == b * (1.0 / (1.0 + srb)) * s[0, FEMALE]
        assert out[0, MALE] == b * (srb / (1.0 + srb)) * s[0, MALE]
        # the sexes together carry the full birth cohort through survival
        combined = b * (1.0 / (1.0 + srb)) * s[0, FEMALE] + b * (srb / (1.0 + srb)) * s[0, MALE]
        assert out[0, FEMALE] + out[0, MALE] == combined
        assert out[0, FEMALE] + out[0, MALE] == pytest.approx(
            b * (s[0, FEMALE] + srb * s[0, MALE]) / (1.0 + srb), rel=1e-14)


def test_linearity_in_baseline(desk_grid, desk_theta):
    """Scaling the baseline scales every projected count by the same factor."""
    traj1 = project_full(desk_theta.baseline, desk_theta, desk_grid).counts
    traj3 = project_full(3.0 * desk_theta.baseline, desk_theta, desk_grid).counts
    assert np.allclose(traj3, 3.0 * traj1, rtol=1e-12, atol=0.0)


def test_male_counts_never_enter_births(desk_grid, desk_theta):
    base = desk_theta.baseline.copy()
    base[:, MALE] *= 100.0
    t1 = project_full(desk_theta.baseline, desk_theta, desk_grid).counts
    t2 = project_full(base, desk_theta, desk_grid).counts
    # age-0 counts at the first step are driven by females only
    assert np.array_equal(t1[1, 0, :], t2[1, 0, :])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_zero_migration_base_is_bitwise_identity(seed):
    """counts * (1 + g/2) with g = 0 must leave the counts bit-identical,
    which is what makes the cohort identities exact."""
    grid = ModelGrid(start_year=2000, end_year=2010, open_age=15,
                     fert_min_age=10, fert_max_age=15)
    theta = _no_migration_theta(grid, seed)
    traj = project_full(theta.baseline, theta, grid).counts
    assert traj[1][2][0] == theta.baseline[1][0] * theta.survival[2, 0, 0]


# ---------------------------------------------------------------------------
# stacked draws


STACK_GRIDS = {
    "demo": ModelGrid(start_year=1960, end_year=1980, open_age=80,
                      fert_min_age=15, fert_max_age=45),
    # the first fertile group is [0,5): no younger group enters the births
    "fertile_from_0": ModelGrid(start_year=1960, end_year=1980, open_age=80,
                                fert_min_age=0, fert_max_age=45),
}


def _stacked(thetas, lead):
    arrays = {}
    for attr in ("baseline", "fertility", "survival", "migration", "srb"):
        a = np.stack([getattr(t, attr) for t in thetas])
        arrays[attr] = a.reshape(lead + a.shape[1:])
    return ThetaVector(**arrays)


@settings(max_examples=25, deadline=None)
@given(grid_name=st.sampled_from(sorted(STACK_GRIDS)),
       lead=st.one_of(st.tuples(st.integers(1, 6)),
                      st.tuples(st.integers(1, 3), st.integers(1, 4))),
       seed=st.integers(min_value=0, max_value=10 ** 6))
def test_stacked_projection_equals_per_draw_bitwise(grid_name, lead, seed):
    grid = STACK_GRIDS[grid_name]
    n = int(np.prod(lead))
    thetas = [make_theta(grid, seed=seed + i, mig_width=0.2) for i in range(n)]
    theta = _stacked(thetas, lead)
    counts = project_full(theta.baseline, theta, grid).counts
    assert counts.shape == lead + (grid.n_periods + 1, grid.n_ages, 2)
    per_draw = counts.reshape((n,) + counts.shape[len(lead):])
    for i, th in enumerate(thetas):
        assert np.array_equal(per_draw[i], project_full(th.baseline, th, grid).counts)


def test_stacked_trajectory_at_and_first_negative(desk_grid, desk_theta):
    mig = desk_theta.migration.copy()
    mig[1, 0, MALE] = -3.0
    bad = desk_theta.replace(migration=mig)
    theta = _stacked([desk_theta, bad], (2,))
    traj = project_full(theta.baseline, theta, desk_grid)
    alone = project_full(bad.baseline, bad, desk_grid)
    assert np.array_equal(traj.at(1965)[1], alone.at(1965))
    assert traj.first_negative() == (1965, 10, "male")


DEMO = Path(__file__).resolve().parent.parent / "data" / "demo"

# SHA-256 of project_full(...).counts for 300 stacked prior draws (seed 0)
PRIOR_PROJECTION_DIGESTS = {
    "demo": "663ace698117feb4f4d736cc64e01814aaf549b6a91c318260f59539e8fad2fd",
    "fert_min_age_0": "bff4dabd312d4242c9132fa937175ea50742a73e579a2ff95fa38b691305b24b",
}


@pytest.mark.parametrize("case", sorted(PRIOR_PROJECTION_DIGESTS))
def test_stacked_prior_projection_matches_recorded_digest(case):
    """The projected counts of stacked prior draws are pinned bit for bit,
    on the demo grid and on a grid whose first fertile group is [0, 5),
    which has no younger group to survive in from."""
    if case == "demo":
        grid = load_grid(DEMO / "grid.yaml")
        initial = load_theta(DEMO / "initial", grid)
        hyper = beta_from_elicitation(load_elicitation(DEMO / "elicitation.yaml"), initial)
    else:
        grid = dataclasses.replace(STACK_GRIDS["demo"], fert_min_age=0)
        initial = make_theta(grid, seed=2)
        hyper = beta_from_elicitation(flat_elicitation(), initial)
    theta = prior_sample(initial, hyper, grid, 300, seed=0).theta_at(slice(None))
    counts = project_full(theta.baseline, theta, grid).counts
    assert counts.shape == (300, grid.n_periods + 1, grid.n_ages, 2)
    digest = hashlib.sha256(np.ascontiguousarray(counts).tobytes()).hexdigest()
    assert digest == PRIOR_PROJECTION_DIGESTS[case]
