"""Grid arithmetic, parameter containers and the structural validator."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demrecon import (PARAM_CLASSES, CensusData, Elicitation, ModelGrid, ParseError,
                      ThetaVector, load_grid, parameter_names, validate)
from demrecon.grid import MAX_OPEN_AGE, MAX_SPAN
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
    assert validate(grid, ThetaVector.from_classes(arrays)) == ()


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
    assert validate(desk_grid, th) == ()


def test_validate_flags_survival_boundary(desk_grid):
    th = make_theta(desk_grid)
    s = th.survival.copy()
    s[1, 0, 0] = 1.0
    violations = validate(desk_grid, th.replace(survival=s))
    assert violations
    joined = "\n".join(violations)
    assert "survival" in joined
    # the offending coordinate is named
    assert "5" in joined and "1960" in joined


def test_validate_flags_offgrid_census_year():
    g = ModelGrid(start_year=1971, end_year=1981, open_age=15,
                  fert_min_age=10, fert_max_age=15,
                  census_years=(1971, 1972, 1981))
    violations = validate(g)
    assert violations
    assert any("1972" in line for line in violations)


def test_grid_step_key_is_unknown(tmp_path):
    """The grid is fixed at 5 years, so a step key in a grid file is refused
    like any other unknown key; it has no field to set."""
    p = tmp_path / "grid.yaml"
    p.write_text("grid:\n  start_year: 1960\n  end_year: 1980\n  step: 10\n")
    with pytest.raises(ParseError, match=r"unknown grid keys \['step'\]"):
        load_grid(p)
    assert not hasattr(ModelGrid(1960, 1980), "step")


def test_validate_flags_baseline_not_census_year():
    g = ModelGrid(start_year=1960, end_year=1970, open_age=15,
                  fert_min_age=10, fert_max_age=15, census_years=(1965, 1970))
    violations = validate(g)
    assert violations
    assert any("1960" in line for line in violations)


def test_validate_is_total_on_garbage(desk_grid):
    """Many simultaneous violations still produce their lines, not an exception."""
    K, P, F = desk_grid.n_ages, desk_grid.n_periods, desk_grid.n_fertile
    th = ThetaVector(
        baseline=np.full((K, 2), -2.0),
        fertility=np.zeros((F, P)),
        survival=np.full((K + 1, P, 2), 1.5),
        migration=np.zeros((K, P, 2)),
        srb=np.full(P, -1.0),
    )
    assert len(validate(desk_grid, th)) >= 4


def test_validate_bounds_open_age_and_span():
    """MAX_OPEN_AGE and MAX_SPAN are the largest values that pass; past
    them the grid gets a line and no axis is built for a parameter set."""
    ok = ModelGrid(1000, 1000 + MAX_SPAN, open_age=MAX_OPEN_AGE)
    assert validate(ok) == ()
    theta = make_theta(ModelGrid(1960, 1975, open_age=15, fert_min_age=10, fert_max_age=15))
    for grid, line in ((dataclasses.replace(ok, open_age=MAX_OPEN_AGE + 5),
                        f"grid: open_age {MAX_OPEN_AGE + 5} exceeds {MAX_OPEN_AGE}"),
                       (dataclasses.replace(ok, end_year=1000 + MAX_SPAN + 5),
                        f"grid: end_year - start_year = {MAX_SPAN + 5} exceeds {MAX_SPAN} years")):
        assert validate(grid) == validate(grid, theta) == (line,)


_YEARS = st.sampled_from([-5, 0, 1955, 1960, 1962, 1965, 1975, 1980, -10**30, 10**30])
_AGES = st.sampled_from([-5, 0, 3, 10, 15, 20, -10**30, 10**30])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(start=_YEARS, end=_YEARS, open_age=_AGES, fert=st.tuples(_AGES, _AGES),
       census_years=st.lists(_YEARS, max_size=4), years=st.lists(_YEARS, max_size=4),
       n_ages=st.sampled_from([1, 4]))
def test_validate_never_raises(start, end, open_age, fert, census_years, years, n_ages):
    """On grids with negative values, values off the 5-year step, reversed
    years, magnitudes no array can be sized by and any census years,
    validate returns its lines: without a parameter set, with one of
    another grid's shape, and with a census."""
    grid = ModelGrid(start, end, open_age, *fert, census_years=tuple(census_years))
    other = make_theta(ModelGrid(1960, 1975, open_age=15, fert_min_age=10, fert_max_age=15))
    census = CensusData(tuple(years), np.ones((len(years), n_ages, 2)))
    for theta, cen in ((None, None), (other, None), (None, census), (other, census)):
        out = validate(grid, theta, cen)
        assert isinstance(out, tuple) and all(isinstance(line, str) for line in out)


def test_validate_reports_census_shape_and_sign(desk_grid):
    bad = np.ones((2, desk_grid.n_ages, 2))
    bad[0, 1, 0] = -3.0
    cen = CensusData(years=(1965, 1975), counts=bad)
    violations = validate(desk_grid, make_theta(desk_grid), cen)
    assert violations
    assert all(line.startswith("census") for line in violations)


def test_validate_census_year_must_be_declared(desk_grid):
    cen = CensusData(years=(1970,), counts=np.ones((1, desk_grid.n_ages, 2)))
    violations = validate(desk_grid, make_theta(desk_grid), cen)
    assert any("1970" in line for line in violations)
    # and the grid's census years after the baseline have no counts
    assert violations[-2:] == ("census: grid census year 1965 has no census counts",
                               "census: grid census year 1975 has no census counts")


def test_validate_reports_repeated_census_year(desk_grid):
    cen = CensusData(years=(1965, 1975, 1975, 1975),
                     counts=np.ones((4, desk_grid.n_ages, 2)))
    assert validate(desk_grid, make_theta(desk_grid), cen) == (
        "census: year 1975 appears 3 times",)


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
    assert validate(desk_grid, ThetaVector.from_classes({**arrays, cls: bad})) == (line,)


def test_validate_reports_every_non_finite_census_cell(desk_grid):
    counts = np.ones((2, desk_grid.n_ages, 2))
    counts[0, 1, 0] = np.nan
    counts[1, 3, 1] = np.inf
    assert validate(desk_grid, make_theta(desk_grid), CensusData((1965, 1975), counts)) == (
        "census[1965,5,female] = nan is not finite", "census[1975,15,male] = inf is not finite")
