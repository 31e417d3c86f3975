"""Posterior summary statistics over indicator trajectories."""

import numpy as np
import pytest

from demrecon import (INDICATOR_NAMES, TrajectoryMatrix, endpoint_diff,
                      exceedance_prob, indicator_trajectories, joint_event_prob,
                      marginal_quantiles, mean_half_width, ols_slope,
                      project_full, summaries, summary_rows)
from demrecon.summaries import indicator_years
from conftest import make_theta, sample_from_thetas
from oracles import (FEMALE, MALE, e0_oracle, ols_slope_oracle,
                     quantile_type7_oracle, tfr_oracle)


@pytest.fixture
def desk_sample(desk_grid):
    return sample_from_thetas(desk_grid,
                               [make_theta(desk_grid, seed=s) for s in range(5)])


def _toy(values, years=None):
    v = np.asarray(values, dtype=np.float64)
    years = tuple(range(0, 5 * v.shape[1], 5)) if years is None else years
    return TrajectoryMatrix("toy", v, years)


# ---------------------------------------------------------------------------
# scalar summaries


def test_trajectory_matrix_validates_shape():
    with pytest.raises(ValueError):
        TrajectoryMatrix("x", np.zeros((3, 2)), (1960,))


def test_column_selects_by_year():
    tm = _toy([[1.0, 10.0], [2.0, 20.0]], years=(1960, 1965))
    assert np.array_equal(tm.column(1965), [10.0, 20.0])
    assert tm.n_draws == 2


def test_marginal_quantiles_toy():
    tm = _toy([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]], years=(1960, 1965))
    qs = marginal_quantiles(tm, (0.0, 0.5, 1.0))
    assert np.array_equal(qs, [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])


def test_marginal_quantiles_match_type7_oracle():
    rng = np.random.default_rng(0)
    vals = rng.random((40, 3))
    tm = _toy(vals)
    for p in (0.025, 0.31, 0.5, 0.9):
        got = marginal_quantiles(tm, [p])[0]
        want = [quantile_type7_oracle(vals[:, j], p) for j in range(3)]
        assert got == pytest.approx(want, rel=1e-13)


def test_marginal_quantiles_empty_sample():
    tm = _toy(np.empty((0, 2)), years=(1960, 1965))
    with pytest.raises(ValueError):
        marginal_quantiles(tm, [0.5])


def test_quantiles_invariant_to_draw_order():
    rng = np.random.default_rng(1)
    vals = rng.random((30, 4))
    shuffled = vals[rng.permutation(30)]
    assert np.array_equal(marginal_quantiles(_toy(vals), (0.1, 0.9)),
                          marginal_quantiles(_toy(shuffled), (0.1, 0.9)))


def test_mean_half_width_cases():
    assert mean_half_width([0.0], [2.0]) == 1.0
    assert mean_half_width([1.0], [1.22]) == (1.22 - 1.0) / 2.0
    assert mean_half_width([1.0], [1.22]) == pytest.approx(0.11, abs=1e-12)
    assert mean_half_width([0.0, 1.0], [2.0, 5.0]) == 1.5
    with pytest.raises(ValueError):
        mean_half_width([0.0], [1.0, 2.0])


def test_exceedance_directions():
    tm = _toy([[1.0], [2.0], [3.0]], years=(1960,))
    assert exceedance_prob(tm, 2.0, ">")[0] == pytest.approx(1.0 / 3.0)
    assert exceedance_prob(tm, 2.0, ">=")[0] == pytest.approx(2.0 / 3.0)
    assert exceedance_prob(tm, 2.0, "<")[0] == pytest.approx(1.0 / 3.0)
    assert exceedance_prob(tm, 2.0, "<=")[0] == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        exceedance_prob(tm, 2.0, "!=")


def test_exceedance_complement_invariant():
    rng = np.random.default_rng(2)
    tm = _toy(rng.random((25, 3)))
    t = 0.4
    assert np.allclose(exceedance_prob(tm, t, ">") + exceedance_prob(tm, t, "<="),
                       1.0)


def test_endpoint_diff_and_slope_toy():
    tm = _toy([[1.0, 2.0, 3.0]], years=(0, 5, 10))
    assert endpoint_diff(tm)[0] == 2.0
    assert endpoint_diff(tm, 10, 0)[0] == -2.0
    assert ols_slope(tm)[0] == pytest.approx(0.2, rel=1e-14)


def test_slope_matches_oracle_and_is_equivariant():
    rng = np.random.default_rng(3)
    vals = rng.random((10, 4))
    years = (1960, 1965, 1970, 1975)
    tm = _toy(vals, years=years)
    got = ols_slope(tm)
    want = [ols_slope_oracle(years, vals[i]) for i in range(10)]
    assert got == pytest.approx(want, rel=1e-12)
    scaled = _toy(3.0 * vals + 7.0, years=years)
    assert ols_slope(scaled) == pytest.approx(3.0 * got, rel=1e-12)


def test_slope_needs_two_periods():
    with pytest.raises(ValueError):
        ols_slope(_toy([[1.0]], years=(1960,)))


def test_joint_event_prob():
    a = np.array([True, True, False])
    b = np.array([True, False, False])
    assert joint_event_prob([a, b]) == pytest.approx(1.0 / 3.0)
    assert joint_event_prob([a]) == pytest.approx(np.mean(a))
    with pytest.raises(ValueError):
        joint_event_prob([])
    with pytest.raises(ValueError):
        joint_event_prob([a, np.array([True])])


# ---------------------------------------------------------------------------
# indicator evaluation on a posterior sample


def test_srb_is_passthrough(desk_grid, desk_sample):
    tm = indicator_trajectories(desk_sample, "srb")
    assert np.array_equal(tm.values, desk_sample.draws["srb"])
    assert tm.years == tuple(int(y) for y in desk_grid.period_years)


def test_tfr_matches_oracle(desk_sample):
    tm = indicator_trajectories(desk_sample, "tfr")
    f = desk_sample.draws["fertility"]
    for i in range(desk_sample.n_draws):
        for j in range(f.shape[2]):
            assert tm.values[i, j] == pytest.approx(tfr_oracle(f[i, :, j]),
                                                    rel=1e-14)


def test_e0_matches_oracle(desk_sample):
    tm = indicator_trajectories(desk_sample, "e0_female")
    s = desk_sample.draws["survival"]
    for i in range(desk_sample.n_draws):
        for j in range(s.shape[2]):
            assert tm.values[i, j] == pytest.approx(
                e0_oracle(s[i, :, j, FEMALE]), rel=1e-12)


def test_u5mr_formula(desk_sample):
    tm = indicator_trajectories(desk_sample, "u5mr_male")
    s0 = desk_sample.draws["survival"][:, 0, :, MALE]
    assert np.array_equal(tm.values, 1000.0 * (1.0 - s0))


def test_symmetric_survival_ratios(desk_grid):
    theta = make_theta(desk_grid, seed=0)
    s = theta.survival.copy()
    s[:, :, MALE] = s[:, :, FEMALE]
    sample = sample_from_thetas(desk_grid, [theta.replace(survival=s)])
    assert np.allclose(indicator_trajectories(sample, "sex_ratio_u5mr").values, 1.0)
    assert np.allclose(indicator_trajectories(sample, "sex_diff_e0").values, 0.0)


def test_stock_indicators_reproject_each_draw(desk_grid, desk_sample):
    for name, pick in (("srtp", lambda t: t[:, :, MALE].sum(axis=1)
                        / t[:, :, FEMALE].sum(axis=1)),
                       ("sru5", lambda t: t[:, 0, MALE] / t[:, 0, FEMALE])):
        tm = indicator_trajectories(desk_sample, name)
        assert tm.years == tuple(int(y) for y in desk_grid.stock_years)
        for i in range(desk_sample.n_draws):
            theta = desk_sample.theta_at(i)
            traj = project_full(theta.baseline, theta, desk_grid).counts
            assert tm.values[i] == pytest.approx(pick(traj), rel=1e-13)


def test_net_migrants_formula(desk_grid, desk_sample):
    tm = indicator_trajectories(desk_sample, "net_migrants_female")
    assert tm.years == tuple(int(y) for y in desk_grid.period_years)
    for i in range(desk_sample.n_draws):
        theta = desk_sample.theta_at(i)
        traj = project_full(theta.baseline, theta, desk_grid).counts
        want = np.sum(traj[:-1, :, FEMALE] * theta.migration[:, :, FEMALE].T,
                      axis=1) / 5.0
        assert tm.values[i] == pytest.approx(want, rel=1e-13)


def test_zero_migration_means_zero_net_migrants(desk_grid):
    theta = make_theta(desk_grid, seed=0, mig_width=0.0)
    sample = sample_from_thetas(desk_grid, [theta])
    for name in ("net_migrants_female", "net_migrants_male"):
        assert np.array_equal(indicator_trajectories(sample, name).values,
                              np.zeros((1, desk_grid.n_periods)))


def test_unknown_indicator_raises(desk_sample):
    with pytest.raises(KeyError):
        indicator_trajectories(desk_sample, "growth_rate")


def test_all_named_indicators_evaluate(desk_sample):
    for name in INDICATOR_NAMES:
        tm = indicator_trajectories(desk_sample, name)
        assert np.all(np.isfinite(tm.values))


def test_indicator_names_and_years_are_pinned(desk_grid, desk_sample):
    """The benchmark's postprocess workload summarizes the indicators in
    this order, and its recorded reference rows follow it; srtp and sru5
    are stocks on every grid year."""
    assert INDICATOR_NAMES == (
        "tfr", "srb", "e0_female", "e0_male", "u5mr_female", "u5mr_male",
        "sex_ratio_u5mr", "sex_diff_e0", "srtp", "sru5",
        "net_migrants_female", "net_migrants_male")
    for name in INDICATOR_NAMES:
        years = desk_grid.stock_years if name in ("srtp", "sru5") else desk_grid.period_years
        assert indicator_years(desk_grid, name) == tuple(int(y) for y in years), name
        assert indicator_trajectories(desk_sample, name).years == indicator_years(desk_grid, name)


def test_summary_rows_projects_once_for_every_flow_and_stock(desk_sample, monkeypatch):
    """The flows and stocks of one summary share one stacked projection;
    each named series is still one ``indicator_trajectories`` call, and
    its values equal those from evaluating the name alone, bit for bit."""
    alone = {name: indicator_trajectories(desk_sample, name).values
             for name in INDICATOR_NAMES}
    projections, evaluated = [], []
    real_project, real_evaluate = summaries.project_full, summaries.indicator_trajectories

    def project(*args):
        projections.append(1)
        return real_project(*args)

    def evaluate(sample, name, *args):
        tm = real_evaluate(sample, name, *args)
        evaluated.append(tm)
        return tm

    monkeypatch.setattr(summaries, "project_full", project)
    monkeypatch.setattr(summaries, "indicator_trajectories", evaluate)
    summary_rows(desk_sample, INDICATOR_NAMES)
    assert len(projections) == 1
    assert [tm.name for tm in evaluated] == list(INDICATOR_NAMES)
    for tm in evaluated:
        assert tm.values.tobytes() == alone[tm.name].tobytes(), tm.name

    projections.clear()
    summary_rows(desk_sample, ["tfr", "srb"])
    assert projections == []


# ---------------------------------------------------------------------------
# tidy rows


def test_summary_rows_structure(desk_grid, desk_sample):
    y0, y1 = int(desk_grid.period_years[0]), int(desk_grid.period_years[-1])
    rows = summary_rows(
        desk_sample, ["srb", "tfr"],
        thresholds=[("srb", ">", 1.05)],
        trends=["tfr"],
        joints=[("both_up", [("srb", y0, y1, ">"), ("tfr", y0, y1, ">")])])
    assert all(set(r) == {"indicator", "year", "statistic", "value"} for r in rows)
    P = desk_grid.n_periods
    per_indicator = P * 4 + 1   # mean + three quantiles per year, one half-width
    assert len(rows) == 2 * per_indicator + P + 10 + 1

    srb_mean_1960 = [r for r in rows if r["indicator"] == "srb"
                     and r["year"] == y0 and r["statistic"] == "mean"]
    assert len(srb_mean_1960) == 1
    assert srb_mean_1960[0]["value"] == pytest.approx(
        desk_sample.draws["srb"][:, 0].mean(), rel=1e-14)

    stats = {r["statistic"] for r in rows}
    assert "q0.025" in stats and "q0.975" in stats
    assert "mean_half_width" in stats
    assert "p(srb>1.05)" in stats
    assert "endpoint_diff_mean" in stats and "p(ols_slope>0)" in stats
    joint = [r for r in rows if r["indicator"] == "joint"]
    assert len(joint) == 1 and joint[0]["statistic"] == "both_up"
    assert 0.0 <= joint[0]["value"] <= 1.0


def test_summary_rows_threshold_matches_direct(desk_sample):
    rows = summary_rows(desk_sample, [], thresholds=[("tfr", "<", 3.0)])
    tm = indicator_trajectories(desk_sample, "tfr")
    direct = exceedance_prob(tm, 3.0, "<")
    for j, year in enumerate(tm.years):
        r = [row for row in rows if row["year"] == year]
        assert len(r) == 1
        assert r[0]["value"] == pytest.approx(direct[j], rel=1e-14)
        assert r[0]["statistic"] == "p(tfr<3)"


@pytest.mark.parametrize("probs", [[0.025, 0.5, 0.975], [0.1, 0.9], [0.05, 0.25, 0.75, 0.95],
                                   [0.9, 0.5, 0.1]])
def test_summary_rows_half_width_uses_outer_quantiles(desk_sample, probs):
    """The half-width comes from the widest requested interval, bitwise
    equal to quantiles computed for its two ends alone."""
    rows = summary_rows(desk_sample, ["tfr"], probs=probs)
    tm = indicator_trajectories(desk_sample, "tfr")
    lo = marginal_quantiles(tm, [min(probs)])[0]
    hi = marginal_quantiles(tm, [max(probs)])[0]
    [got] = [r["value"] for r in rows if r["statistic"] == "mean_half_width"]
    assert got == mean_half_width(lo, hi)
