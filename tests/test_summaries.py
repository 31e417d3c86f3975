"""Posterior summary statistics over indicator trajectories."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demrecon import (INDICATOR_NAMES, ModelGrid, indicator_trajectories, project_full,
                      summaries, summary_rows)
from demrecon.summaries import indicator_years
from conftest import make_theta, sample_from_thetas
from oracles import (FEMALE, MALE, e0_oracle, ols_slope_oracle,
                     quantile_type7_oracle, tfr_oracle)


@pytest.fixture
def desk_sample(desk_grid):
    return sample_from_thetas(desk_grid,
                               [make_theta(desk_grid, seed=s) for s in range(5)])


def _srb_sample(srb):
    """A sample whose srb draws, which the srb indicator passes through, are
    the rows of srb (draws, periods), on a grid of as many periods from 1960."""
    srb = np.asarray(srb, dtype=np.float64)
    grid = ModelGrid(start_year=1960, end_year=1960 + 5 * srb.shape[1], open_age=15,
                     fert_min_age=10, fert_max_age=15, census_years=(1960,))
    return sample_from_thetas(grid, [make_theta(grid).replace(srb=row) for row in srb])


def _stat(rows, statistic):
    """Values of one statistic, in row order."""
    return [r["value"] for r in rows if r["statistic"] == statistic]


def _slopes(srb):
    """OLS slope of each row of srb, each summarized alone as a one-draw
    sample, whose slope mean is the draw's own slope."""
    return [_stat(summary_rows(_srb_sample([row]), [], trends=["srb"]), "ols_slope_mean")[0]
            for row in srb]


# ---------------------------------------------------------------------------
# threshold, trend and joint statistics


def test_exceedance_directions():
    sample = _srb_sample([[1.0], [2.0], [3.0]])
    rows = summary_rows(sample, [], thresholds=[("srb", op, 2.0) for op in (">", ">=", "<", "<=")])
    assert [_stat(rows, f"p(srb{op}2)") for op in (">", ">=", "<", "<=")] == \
        [[pytest.approx(1.0 / 3.0)], [pytest.approx(2.0 / 3.0)],
         [pytest.approx(1.0 / 3.0)], [pytest.approx(2.0 / 3.0)]]


def test_exceedance_complement_invariant():
    rng = np.random.default_rng(2)
    rows = summary_rows(_srb_sample(rng.random((25, 3))), [],
                        thresholds=[("srb", ">", 0.4), ("srb", "<=", 0.4)])
    assert np.allclose(np.add(_stat(rows, "p(srb>0.4)"), _stat(rows, "p(srb<=0.4)")), 1.0)


def test_endpoint_diff_and_slope_toy():
    """On one draw of 1, 2, 3 at 1960, 1965, 1970 the change is 2 and the
    slope 0.2; the change read backwards is a fall."""
    rows = summary_rows(_srb_sample([[1.0, 2.0, 3.0]]), [], trends=["srb"],
                        joints=[("fall", [("srb", 1970, 1960, "<")])])
    assert _stat(rows, "endpoint_diff_mean") == [2.0]
    assert _stat(rows, "ols_slope_mean") == [pytest.approx(0.2, rel=1e-14)]
    assert _stat(rows, "fall") == [1.0]


def test_slope_matches_oracle_and_is_equivariant():
    rng = np.random.default_rng(3)
    vals = rng.random((10, 4))
    years = (1960, 1965, 1970, 1975)
    got = _slopes(vals)
    want = [ols_slope_oracle(years, vals[i]) for i in range(10)]
    assert got == pytest.approx(want, rel=1e-12)
    assert _slopes(3.0 * vals + 7.0) == pytest.approx(3.0 * np.array(got), rel=1e-12)


def test_slope_needs_two_periods():
    with pytest.raises(ValueError, match=re.escape("trend srb needs at least two years, has [1960]")):
        summary_rows(_srb_sample([[1.0]]), [], trends=["srb"])


def test_joint_event_prob():
    """Draws 1, 2, 3 / 1, 2, 1 / 2, 1, 1 rise from 1960 to 1965 on the
    first two draws and from 1965 to 1970 on the first alone."""
    sample = _srb_sample([[1.0, 2.0, 3.0], [1.0, 2.0, 1.0], [2.0, 1.0, 1.0]])
    a, b = ("srb", 1960, 1965, ">"), ("srb", 1965, 1970, ">")
    rows = summary_rows(sample, [], joints=[("ab", [a, b]), ("a", [a])])
    assert _stat(rows, "ab") == [pytest.approx(1.0 / 3.0)]
    assert _stat(rows, "a") == [pytest.approx(2.0 / 3.0)]


def test_summary_rows_refuses_an_unknown_direction():
    sample = _srb_sample([[1.0, 2.0]])
    for kwargs in ({"thresholds": [("srb", "!=", 2.0)]},
                   {"joints": [("ne", [("srb", 1960, 1965, "!=")])]}):
        with pytest.raises(ValueError, match="direction must be one of >= <= > <, got '!='"):
            summary_rows(sample, [], **kwargs)


def test_summary_rows_refuses_a_joint_year_off_the_series():
    """srb is a rate: its years are period starts, without the end year."""
    with pytest.raises(ValueError, match=re.escape(
            "joint 'up': srb has no year 1970; its years are [1960, 1965]")):
        summary_rows(_srb_sample([[1.0, 2.0]]), [], joints=[("up", [("srb", 1960, 1970, ">")])])


@pytest.mark.parametrize("kwargs", [
    {"trends": ["srb"]},
    {"joints": [("up", [("srb", 1960, 1965, ">")])]},
    {"thresholds": [("srb", "!=", 1.0)]},
    {"joints": [("none", [])]},
])
def test_summary_rows_refuses_what_check_statistics_refuses(kwargs):
    """summary_rows and check_statistics, which the CLI calls before it
    reads a sample, refuse a request with one message."""
    sample = _srb_sample([[1.0], [2.0]])
    with pytest.raises(ValueError) as checked:
        summaries.check_statistics(sample.grid, **kwargs)
    with pytest.raises(ValueError) as summarized:
        summary_rows(sample, ["srb"], **kwargs)
    assert str(summarized.value) == str(checked.value)


def test_summary_rows_refuses_a_joint_without_predicates():
    """A logical and over no predicates would hold on every draw and read 1."""
    with pytest.raises(ValueError, match="joint 'none' has no predicates"):
        summary_rows(_srb_sample([[1.0, 2.0]]), ["srb"], joints=[("none", [])])


# ---------------------------------------------------------------------------
# indicator evaluation on a posterior sample


def test_srb_is_passthrough(desk_grid, desk_sample):
    assert np.array_equal(indicator_trajectories(desk_sample, "srb"), desk_sample.draws["srb"])
    assert indicator_years(desk_grid, "srb") == tuple(int(y) for y in desk_grid.period_years)


def test_tfr_matches_oracle(desk_sample):
    tfr = indicator_trajectories(desk_sample, "tfr")
    f = desk_sample.draws["fertility"]
    for i in range(desk_sample.n_draws):
        for j in range(f.shape[2]):
            assert tfr[i, j] == pytest.approx(tfr_oracle(f[i, :, j]), rel=1e-14)


def test_e0_matches_oracle(desk_sample):
    e0 = indicator_trajectories(desk_sample, "e0_female")
    s = desk_sample.draws["survival"]
    for i in range(desk_sample.n_draws):
        for j in range(s.shape[2]):
            assert e0[i, j] == pytest.approx(
                e0_oracle(s[i, :, j, FEMALE]), rel=1e-12)


def test_u5mr_formula(desk_sample):
    s0 = desk_sample.draws["survival"][:, 0, :, MALE]
    assert np.array_equal(indicator_trajectories(desk_sample, "u5mr_male"), 1000.0 * (1.0 - s0))


def test_symmetric_survival_ratios(desk_grid):
    theta = make_theta(desk_grid, seed=0)
    s = theta.survival.copy()
    s[:, :, MALE] = s[:, :, FEMALE]
    sample = sample_from_thetas(desk_grid, [theta.replace(survival=s)])
    assert np.allclose(indicator_trajectories(sample, "sex_ratio_u5mr"), 1.0)
    assert np.allclose(indicator_trajectories(sample, "sex_diff_e0"), 0.0)


def test_stock_indicators_reproject_each_draw(desk_grid, desk_sample):
    for name, pick in (("srtp", lambda t: t[:, :, MALE].sum(axis=1)
                        / t[:, :, FEMALE].sum(axis=1)),
                       ("sru5", lambda t: t[:, 0, MALE] / t[:, 0, FEMALE])):
        values = indicator_trajectories(desk_sample, name)
        assert indicator_years(desk_grid, name) == tuple(int(y) for y in desk_grid.stock_years)
        for i in range(desk_sample.n_draws):
            theta = desk_sample.theta_at(i)
            traj = project_full(theta.baseline, theta, desk_grid).counts
            assert values[i] == pytest.approx(pick(traj), rel=1e-13)


def test_net_migrants_formula(desk_grid, desk_sample):
    values = indicator_trajectories(desk_sample, "net_migrants_female")
    assert indicator_years(desk_grid, "net_migrants_female") == \
        tuple(int(y) for y in desk_grid.period_years)
    for i in range(desk_sample.n_draws):
        theta = desk_sample.theta_at(i)
        traj = project_full(theta.baseline, theta, desk_grid).counts
        want = np.sum(traj[:-1, :, FEMALE] * theta.migration[:, :, FEMALE].T,
                      axis=1) / 5.0
        assert values[i] == pytest.approx(want, rel=1e-13)


def test_zero_migration_means_zero_net_migrants(desk_grid):
    theta = make_theta(desk_grid, seed=0, mig_width=0.0)
    sample = sample_from_thetas(desk_grid, [theta])
    for name in ("net_migrants_female", "net_migrants_male"):
        assert np.array_equal(indicator_trajectories(sample, name),
                              np.zeros((1, desk_grid.n_periods)))


def test_unknown_indicator_raises(desk_sample):
    with pytest.raises(KeyError):
        indicator_trajectories(desk_sample, "growth_rate")


def test_all_named_indicators_evaluate(desk_sample):
    for name in INDICATOR_NAMES:
        assert np.all(np.isfinite(indicator_trajectories(desk_sample, name)))


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
        assert indicator_trajectories(desk_sample, name).shape == \
            (desk_sample.n_draws, len(indicator_years(desk_grid, name)))


def test_summary_rows_projects_once_for_every_flow_and_stock(desk_sample, monkeypatch):
    """The flows and stocks of one summary share one stacked projection;
    each named series is still one ``indicator_trajectories`` call, and
    its values equal those from evaluating the name alone, bit for bit."""
    alone = {name: indicator_trajectories(desk_sample, name) for name in INDICATOR_NAMES}
    projections, evaluated = [], []
    real_project, real_evaluate = summaries.project_full, summaries.indicator_trajectories

    def project(*args):
        projections.append(1)
        return real_project(*args)

    def evaluate(sample, name, *args):
        values = real_evaluate(sample, name, *args)
        evaluated.append((name, values))
        return values

    monkeypatch.setattr(summaries, "project_full", project)
    monkeypatch.setattr(summaries, "indicator_trajectories", evaluate)
    summary_rows(desk_sample, INDICATOR_NAMES)
    assert len(projections) == 1
    assert [name for name, _ in evaluated] == list(INDICATOR_NAMES)
    for name, values in evaluated:
        assert values.tobytes() == alone[name].tobytes(), name

    projections.clear()
    summary_rows(desk_sample, ["tfr", "srb"])
    assert projections == []


# ---------------------------------------------------------------------------
# tidy rows


def test_summary_rows_quantiles_toy():
    rows = summary_rows(_srb_sample([[1.0, 10.0], [3.0, 30.0], [2.0, 20.0]]), ["srb"],
                        probs=(0.0, 0.5, 1.0))
    assert [_stat(rows, s) for s in ("q0", "q0.5", "q1")] == \
        [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]


def test_summary_rows_quantiles_match_type7_oracle():
    """Indicator and trend quantiles are type-7 sample quantiles."""
    vals = np.random.default_rng(0).random((40, 3))
    probs = (0.025, 0.31, 0.5, 0.9)
    rows = summary_rows(_srb_sample(vals), ["srb"], probs=probs, trends=["srb"])
    diff = vals[:, -1] - vals[:, 0]
    for p in probs:
        want = [quantile_type7_oracle(vals[:, j], p) for j in range(3)]
        assert _stat(rows, f"q{p:g}") == pytest.approx(want, rel=1e-13)
        assert _stat(rows, f"endpoint_diff_q{p:g}") == pytest.approx(
            [quantile_type7_oracle(diff, p)], rel=1e-12, abs=1e-15)


def test_summary_rows_refuses_an_empty_sample(desk_sample):
    """A sample without draws is refused, whatever the summary asks for."""
    empty = dataclasses.replace(
        desk_sample, draws={c: a[:0] for c, a in desk_sample.draws.items()},
        sigma2=desk_sample.sigma2[:0], chain=desk_sample.chain[:0])
    for kwargs in ({"indicators": ["tfr"]},
                   {"indicators": [], "thresholds": [("srb", ">", 1.0)]}):
        with pytest.raises(ValueError, match="empty sample"):
            summary_rows(empty, **kwargs)


def test_quantiles_invariant_to_draw_order():
    """Every statistic but the means, whose sums may round differently,
    is the same for the draws in any order."""
    rng = np.random.default_rng(1)
    vals = rng.random((30, 4))
    shuffled = vals[rng.permutation(30)]
    got = [[r for r in summary_rows(_srb_sample(v), ["srb"], probs=(0.1, 0.9),
                                    thresholds=[("srb", ">", 0.5)], trends=["srb"])
            if not r["statistic"].endswith("mean")] for v in (vals, shuffled)]
    assert got[0] == got[1]


def test_summary_rows_half_width_cases():
    """With probabilities 1 and 0 the half-width is half the range of the
    draws, averaged over the periods."""
    for lo, hi, want in (([0.0], [2.0], 1.0), ([1.0], [1.22], (1.22 - 1.0) / 2.0),
                         ([0.0, 1.0], [2.0, 5.0], 1.5)):
        rows = summary_rows(_srb_sample([hi, lo]), ["srb"], probs=(1.0, 0.0))
        assert _stat(rows, "mean_half_width") == [want]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(base=st.floats(0.0, 1.0), steps=st.lists(st.integers(-2, 2), min_size=1, max_size=4),
       others=st.lists(st.floats(-1e9, 1e9), max_size=3),
       op=st.sampled_from(list(summaries.COMPARISONS)))
@example(base=0.5, steps=[0, 10], others=[1.06, 1.0600001], op=">")
def test_summary_rows_labels_are_unique(base, steps, others, op):
    """Distinct probabilities and threshold values give distinct statistic
    labels, also where they agree in the six digits of ``:g``."""
    probs = list(dict.fromkeys(min(1.0, max(0.0, base + k * 1e-9)) for k in steps))
    values = list(dict.fromkeys(probs + others))
    sample = _srb_sample(np.random.default_rng(2).uniform(0.9, 1.2, (5, 3)))
    rows = summary_rows(sample, ["srb"], probs=probs,
                        thresholds=[("srb", op, v) for v in values], trends=["srb"])
    keys = [(r["indicator"], r["year"], r["statistic"]) for r in rows]
    assert len(keys) == len(set(keys))


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
    direct = (indicator_trajectories(desk_sample, "tfr") < 3.0).mean(axis=0)
    for j, year in enumerate(indicator_years(desk_sample.grid, "tfr")):
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
    tfr = indicator_trajectories(desk_sample, "tfr")
    lo = np.quantile(tfr, min(probs), axis=0)
    hi = np.quantile(tfr, max(probs), axis=0)
    assert _stat(rows, "mean_half_width") == [float(np.mean((hi - lo) / 2.0))]
