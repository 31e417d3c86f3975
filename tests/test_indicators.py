"""Demographic indicators on one-draw samples and their closed-form special
cases, evaluated through the vectorised ``indicator_trajectories``."""

import numpy as np
import pytest

from demrecon import FEMALE, MALE, ModelGrid, indicator_trajectories
from conftest import make_theta, sample_from_thetas
from oracles import e0_oracle, tfr_oracle


def _series(grid, name, seed=0, **arrays):
    """One-draw series of an indicator at make_theta(grid, seed) with some
    arrays replaced."""
    theta = make_theta(grid, seed=seed).replace(**arrays)
    return indicator_trajectories(sample_from_thetas(grid, [theta]), name).values[0]


def _every_cell(grid, column):
    """A (K+1, P, 2) survival array with the same column in every cell."""
    return np.broadcast_to(np.asarray(column)[:, None, None],
                           (grid.n_ages + 1, grid.n_periods, 2))


def _ratio_grid(n_ages):
    return ModelGrid(start_year=2000, end_year=2005, open_age=5 * (n_ages - 1),
                     fert_min_age=5, fert_max_age=5)


def test_tfr_constant_schedule(full_grid):
    fert = np.full((7, full_grid.n_periods), 0.03)
    assert _series(full_grid, "tfr", fertility=fert) == pytest.approx(1.05, rel=1e-15)


def test_tfr_zero(full_grid):
    fert = np.zeros((7, full_grid.n_periods))
    assert np.array_equal(_series(full_grid, "tfr", fertility=fert),
                          np.zeros(full_grid.n_periods))


def test_tfr_matches_sum_oracle(full_grid):
    rng = np.random.default_rng(5)
    f = rng.uniform(0.0, 0.3, (7, full_grid.n_periods))
    got = _series(full_grid, "tfr", fertility=f)
    for p in range(full_grid.n_periods):
        assert got[p] == pytest.approx(tfr_oracle(f[:, p].tolist()), rel=1e-14)


def test_tfr_is_linear(full_grid):
    rng = np.random.default_rng(6)
    f = rng.uniform(0.0, 0.3, (7, full_grid.n_periods))
    assert _series(full_grid, "tfr", fertility=2.5 * f) == pytest.approx(
        2.5 * _series(full_grid, "tfr", fertility=f), rel=1e-14)


def test_e0_all_survive_to_open_age(full_grid):
    """Everyone reaches the open group and dies there immediately: with 17
    closed products of 1 and no open-ended tail, e0 is 5 * 17 = 85."""
    s = np.ones(18)
    s[-1] = 0.0
    surv = _every_cell(full_grid, s)
    for name in ("e0_female", "e0_male"):
        assert np.all(_series(full_grid, name, survival=surv) == 85.0)


def test_e0_constant_half_survival(full_grid):
    """s = 0.5 everywhere telescopes to exactly 5.0: the closed part sums
    to 5 * (1 - 0.5^17) and the open tail restores the missing 5 * 0.5^17."""
    surv = _every_cell(full_grid, np.full(18, 0.5))
    for name in ("e0_female", "e0_male"):
        assert np.all(_series(full_grid, name, survival=surv) == 5.0)


def test_e0_matches_cumprod_oracle(full_grid):
    rng = np.random.default_rng(9)
    s = rng.uniform(0.3, 0.99, (18, full_grid.n_periods, 2))
    for name, sex in (("e0_female", FEMALE), ("e0_male", MALE)):
        got = _series(full_grid, name, survival=s)
        for p in range(full_grid.n_periods):
            assert got[p] == pytest.approx(e0_oracle(s[:, p, sex].tolist()), rel=1e-13)


def test_e0_monotone_in_every_entry(full_grid):
    rng = np.random.default_rng(10)
    s = rng.uniform(0.3, 0.9, 18)
    base = _series(full_grid, "e0_female", survival=_every_cell(full_grid, s))
    for i in range(18):
        bumped = s.copy()
        bumped[i] = min(bumped[i] + 0.05, 0.999)
        got = _series(full_grid, "e0_female", survival=_every_cell(full_grid, bumped))
        assert np.all(got >= base)


def test_e0_rejects_unit_open_survival(full_grid):
    s = np.full(18, 0.9)
    s[-1] = 1.0
    with pytest.raises(ValueError):
        _series(full_grid, "e0_female", survival=_every_cell(full_grid, s))


def test_u5mr_values(desk_grid):
    surv = make_theta(desk_grid).survival.copy()
    surv[0, :, FEMALE] = [0.95, 1.0, 0.88]
    got = _series(desk_grid, "u5mr_female", survival=surv)
    assert got[0] == pytest.approx(50.0, rel=1e-14)
    assert got[1] == 0.0
    assert got[2] == pytest.approx(120.0, rel=1e-13)


def test_sex_ratio_u5mr_symmetry(desk_grid):
    s = make_theta(desk_grid, seed=2).survival.copy()
    s[:, :, MALE] = s[:, :, FEMALE]
    assert np.all(_series(desk_grid, "sex_ratio_u5mr", seed=2, survival=s) == 1.0)
    assert np.all(_series(desk_grid, "sex_diff_e0", seed=2, survival=s) == 0.0)


def test_sex_diff_e0_antisymmetric(desk_grid):
    s = make_theta(desk_grid, seed=3).survival
    swapped = s[:, :, ::-1].copy()
    assert _series(desk_grid, "sex_diff_e0", seed=3, survival=swapped)[1] == pytest.approx(
        -_series(desk_grid, "sex_diff_e0", seed=3)[1], rel=1e-12)


def test_srtp_and_sru5():
    """At the baseline year the stock ratios read the baseline counts."""
    counts = np.array([[487.805, 512.195], [100.0, 100.0]])
    grid = _ratio_grid(2)
    assert _series(grid, "sru5", baseline=counts)[0] == pytest.approx(1.05, rel=1e-6)
    assert _series(grid, "srtp", baseline=counts)[0] == pytest.approx(
        (512.195 + 100.0) / (487.805 + 100.0), rel=1e-14)


def test_ratios_scale_invariant():
    """The projection is linear in the baseline, so both ratios are
    unchanged in every grid year when the baseline is scaled."""
    rng = np.random.default_rng(12)
    counts = rng.uniform(10, 100, (5, 2))
    grid = _ratio_grid(5)
    for name in ("srtp", "sru5"):
        assert _series(grid, name, baseline=7.0 * counts) == pytest.approx(
            _series(grid, name, baseline=counts), rel=1e-14)


def test_net_migrants_hand_case(desk_grid):
    counts = np.full((4, 2), 125.0)  # 500 per sex
    migration = np.full((4, desk_grid.n_periods, 2), 0.02)
    female = _series(desk_grid, "net_migrants_female", baseline=counts, migration=migration)
    male = _series(desk_grid, "net_migrants_male", baseline=counts, migration=migration)
    assert female.shape == (desk_grid.n_periods,)
    assert female[0] == pytest.approx(500.0 * 0.02 / 5.0, rel=1e-14)
    assert male[0] == pytest.approx(2.0, rel=1e-14)


def test_net_migrants_matches_direct_sum(desk_grid):
    theta = make_theta(desk_grid, seed=4)
    for name, sex in (("net_migrants_female", FEMALE), ("net_migrants_male", MALE)):
        got = _series(desk_grid, name, seed=4)
        expected = sum(theta.baseline[a, sex] * theta.migration[a, 0, sex]
                       for a in range(desk_grid.n_ages)) / 5.0
        assert got[0] == pytest.approx(expected, rel=1e-12)


def test_indicator_series_dispatch(desk_grid):
    theta = make_theta(desk_grid, seed=8)
    sample = sample_from_thetas(desk_grid, [theta])
    years = tuple(int(y) for y in desk_grid.period_years)

    tfr = indicator_trajectories(sample, "tfr")
    assert tfr.name == "tfr"
    assert tfr.years == years
    for j in range(len(years)):
        assert tfr.values[0, j] == pytest.approx(tfr_oracle(theta.fertility[:, j].tolist()),
                                                 rel=1e-14)

    e0f = indicator_trajectories(sample, "e0_female")
    for j in range(len(years)):
        assert e0f.values[0, j] == pytest.approx(
            e0_oracle(theta.survival[:, j, FEMALE].tolist()), rel=1e-14)

    srbs = indicator_trajectories(sample, "srb")
    assert srbs.values[0, -1] == theta.srb[-1]
