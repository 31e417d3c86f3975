"""Grid arithmetic, parameter containers and the structural validator."""

import numpy as np
import pytest

from demrecon import (PARAM_CLASSES, CensusData, Elicitation, ModelGrid, ThetaVector,
                      VarianceParams, parameter_names, validate)
from conftest import make_theta


def test_grid_derived_quantities():
    g = ModelGrid(start_year=1960, end_year=1980, open_age=80,
                  fert_min_age=15, fert_max_age=45, census_years=(1960, 1980))
    assert g.n_ages == 17
    assert g.n_periods == 4
    assert list(g.ages) == list(range(0, 85, 5))
    assert list(g.survival_ages) == list(range(0, 90, 5))
    assert list(g.fertile_ages) == list(range(15, 50, 5))
    assert g.n_fertile == 7
    assert list(g.period_years) == [1960, 1965, 1970, 1975]
    assert list(g.stock_years) == [1960, 1965, 1970, 1975, 1980]
    assert g.year_index(1970) == 2


def test_fertile_index_points_into_age_axis(desk_grid):
    assert list(desk_grid.fertile_ages) == [10, 15]
    assert list(desk_grid.fertile_index) == [2, 3]


def test_likelihood_years_exclude_baseline(desk_grid):
    assert desk_grid.likelihood_years == (1965, 1975)
    proj_only = ModelGrid(start_year=1960, end_year=1975, open_age=15,
                          fert_min_age=10, fert_max_age=15)
    assert proj_only.likelihood_years == ()


def test_theta_vector_is_read_only(desk_grid):
    th = make_theta(desk_grid)
    with pytest.raises(ValueError):
        th.survival[0, 0, 0] = 0.5
    replaced = th.replace(srb=np.full(desk_grid.n_periods, 1.05))
    assert np.all(replaced.srb == 1.05)
    assert replaced.baseline is not th.baseline or np.array_equal(replaced.baseline, th.baseline)
    # the original is untouched
    assert not np.all(th.srb == 1.05)


@pytest.mark.parametrize("fert_min_age", [15, 0])
def test_class_shapes_cover_every_parameter(fert_min_age):
    """Demo grid and a grid whose first fertile group is [0,5)."""
    grid = ModelGrid(start_year=1960, end_year=1980, open_age=80,
                     fert_min_age=fert_min_age, fert_max_age=45,
                     census_years=(1960, 1980))
    shapes = grid.class_shapes()
    assert tuple(shapes) == PARAM_CLASSES
    assert shapes["fertility"] == (grid.n_fertile, grid.n_periods)
    # every class's cells, then the five variances
    sizes = sum(int(np.prod(s)) for s in shapes.values())
    assert sizes + 5 == len(parameter_names(grid))
    rng = np.random.default_rng(0)
    arrays = {c: rng.uniform(0.2, 0.8, s) for c, s in shapes.items()}
    report = validate(grid, ThetaVector.from_classes(arrays))
    assert report.ok, str(report)


def test_parameter_names_pinned_on_tiny_grid():
    """Two age groups, fertile ages 0-5, one period: every name, in order,
    and each class's slice of them."""
    grid = ModelGrid(start_year=1960, end_year=1965, open_age=5,
                     fert_min_age=0, fert_max_age=5, census_years=(1960, 1965))
    names = parameter_names(grid)
    assert names == [
        "baseline[0,female]", "baseline[0,male]", "baseline[5,female]", "baseline[5,male]",
        "fertility[0,1960]", "fertility[5,1960]",
        "survival[0,1960,female]", "survival[0,1960,male]",
        "survival[5,1960,female]", "survival[5,1960,male]",
        "survival[10,1960,female]", "survival[10,1960,male]",
        "migration[0,1960,female]", "migration[0,1960,male]",
        "migration[5,1960,female]", "migration[5,1960,male]",
        "srb[1960]",
        "sigma2[counts]", "sigma2[fertility]", "sigma2[survival]",
        "sigma2[migration]", "sigma2[srb]",
    ]
    # the class slices tile the names class by class, then the variances
    slices = grid.class_slices()
    assert tuple(slices) == PARAM_CLASSES
    stop = 0
    for (cls, sl), field in zip(slices.items(), ("baseline", "fertility", "survival",
                                                  "migration", "srb")):
        assert sl.start == stop and sl.stop - sl.start == np.prod(grid.class_shapes()[cls])
        assert all(n.startswith(field + "[") for n in names[sl])
        stop = sl.stop
    assert names[stop:] == [f"sigma2[{c}]" for c in PARAM_CLASSES]


def test_class_views_carve_columns_with_leading_axes(desk_grid):
    """class_views reshapes each class's columns to the leading axes plus
    the class's shape, as views, and leaves the trailing columns out."""
    n = len(parameter_names(desk_grid))
    matrix = np.arange(2 * 3 * n, dtype=float).reshape(2, 3, n)
    views = desk_grid.class_views(matrix)
    assert tuple(views) == PARAM_CLASSES
    for (cls, view), sl in zip(views.items(), desk_grid.class_slices().values()):
        assert view.shape == (2, 3) + desk_grid.class_shapes()[cls]
        assert np.shares_memory(view, matrix)
        assert np.array_equal(view.reshape(2, 3, -1), matrix[..., sl])
    assert desk_grid.class_views(matrix[0, 0])["srb"].shape == (desk_grid.n_periods,)


def test_by_class_round_trip(desk_grid):
    th = make_theta(desk_grid, seed=5)
    arrays = th.by_class()
    assert tuple(arrays) == PARAM_CLASSES
    assert arrays["counts"] is th.baseline
    back = ThetaVector.from_classes(arrays)
    for cls in PARAM_CLASSES:
        assert back.by_class()[cls].tobytes() == arrays[cls].tobytes()
        assert back.by_class()[cls].shape == arrays[cls].shape


def test_variance_params_round_trip_dict():
    v = VarianceParams(counts=1e-4, fertility=2e-4, survival=3e-4,
                       migration=4e-4, srb=5e-4)
    assert v.as_dict() == {"counts": 1e-4, "fertility": 2e-4, "survival": 3e-4,
                           "migration": 4e-4, "srb": 5e-4}
    assert VarianceParams(**v.as_dict()) == v


def test_census_data_at(desk_grid):
    counts = np.arange(2 * desk_grid.n_ages * 2, dtype=float).reshape(2, desk_grid.n_ages, 2) + 1
    cen = CensusData(years=(1965, 1975), counts=counts)
    assert np.array_equal(cen.at(1975), counts[1])
    with pytest.raises(ValueError, match="no census counts for year 1970"):
        cen.at(1970)


def test_elicitation_alpha_defaults():
    e = Elicitation(eta={c: 0.1 for c in
                         ("counts", "fertility", "survival", "migration", "srb")})
    assert all(a == 0.5 for a in e.alpha.values())


def test_validate_passes_consistent_inputs(desk_grid):
    th = make_theta(desk_grid)
    report = validate(desk_grid, th)
    assert report.ok, str(report)


def test_validate_flags_survival_boundary(desk_grid):
    th = make_theta(desk_grid)
    s = th.survival.copy()
    s[1, 0, 0] = 1.0
    report = validate(desk_grid, th.replace(survival=s))
    assert not report.ok
    joined = str(report)
    assert "survival" in joined
    # the offending coordinate is named
    assert "5" in joined and "1960" in joined


def test_validate_flags_offgrid_census_year():
    g = ModelGrid(start_year=1971, end_year=1981, open_age=15,
                  fert_min_age=10, fert_max_age=15,
                  census_years=(1971, 1972, 1981))
    report = validate(g)
    assert not report.ok
    assert "1972" in str(report)


def test_validate_flags_baseline_not_census_year():
    g = ModelGrid(start_year=1960, end_year=1970, open_age=15,
                  fert_min_age=10, fert_max_age=15, census_years=(1965, 1970))
    report = validate(g)
    assert not report.ok
    assert "1960" in str(report)


def test_validate_is_total_on_garbage(desk_grid):
    """Many simultaneous violations still produce a report, not an exception."""
    K, P, F = desk_grid.n_ages, desk_grid.n_periods, desk_grid.n_fertile
    th = ThetaVector(
        baseline=np.full((K, 2), -2.0),
        fertility=np.zeros((F, P)),
        survival=np.full((K + 1, P, 2), 1.5),
        migration=np.zeros((K, P, 2)),
        srb=np.full(P, -1.0),
    )
    report = validate(desk_grid, th)
    assert not report.ok
    assert len(report.violations) >= 4


def test_validate_reports_census_shape_and_sign(desk_grid):
    bad = np.ones((2, desk_grid.n_ages, 2))
    bad[0, 1, 0] = -3.0
    cen = CensusData(years=(1965, 1975), counts=bad)
    report = validate(desk_grid, make_theta(desk_grid), cen)
    assert not report.ok
    assert "census" in str(report)


def test_validate_census_year_must_be_declared(desk_grid):
    cen = CensusData(years=(1970,), counts=np.ones((1, desk_grid.n_ages, 2)))
    report = validate(desk_grid, make_theta(desk_grid), cen)
    assert not report.ok
    assert "1970" in str(report)
    # and the grid's census years after the baseline have no counts
    assert report.violations[-2:] == ("census: grid census year 1965 has no census counts",
                                      "census: grid census year 1975 has no census counts")


def test_validate_reports_repeated_census_year(desk_grid):
    cen = CensusData(years=(1965, 1975, 1975, 1975),
                     counts=np.ones((4, desk_grid.n_ages, 2)))
    report = validate(desk_grid, make_theta(desk_grid), cen)
    assert report.violations == ("census: year 1975 appears 3 times",)


@pytest.mark.parametrize("cls,value,line", [
    ("counts", np.nan, "baseline[5,male] = nan is not finite"),
    ("fertility", np.inf, "fertility[15,1965] = inf is not finite"),
    ("survival", np.nan, "survival[5,1965,male] = nan is not finite"),
    ("migration", np.nan, "migration[5,1965,male] = nan is not finite"),
    ("migration", -np.inf, "migration[5,1965,male] = -inf is not finite"),
    ("srb", np.inf, "srb[1965] = inf is not finite"),
])
def test_validate_reports_non_finite_cells(desk_grid, cls, value, line):
    arrays = make_theta(desk_grid).by_class()
    bad = arrays[cls].copy()
    bad[(1,) * bad.ndim] = value
    report = validate(desk_grid, ThetaVector.from_classes({**arrays, cls: bad}))
    assert report.violations == (line,)


def test_validate_reports_every_non_finite_census_cell(desk_grid):
    counts = np.ones((2, desk_grid.n_ages, 2))
    counts[0, 1, 0] = np.nan
    counts[1, 3, 1] = np.inf
    report = validate(desk_grid, make_theta(desk_grid), CensusData((1965, 1975), counts))
    assert report.violations == ("census[1965,5,female] = nan is not finite",
                                 "census[1975,15,male] = inf is not finite")
