"""Age/time/sex data model shared by all other modules.

Everything runs on a 5-year grid: age groups [0,5), [5,10), ..., [A, inf)
and calendar periods [t, t+5). Ages are labelled by their lower bound.
The open age group A gets one extra survival entry (labelled A+5) for
people who stay in the open group across a period.

Types here are deliberately permissive at construction time. Bad values
(a survival of 1.0, a census year off the grid) are caught by
``validate``, which never raises and reports every violation it finds
with index coordinates, so a caller can show the user the whole list at
once instead of failing on the first problem.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

# Sex axis convention used by every array in the package.
FEMALE = 0
MALE = 1
SEX_LABELS = ("female", "male")

# The five parameter classes of the hierarchical model, in the order they
# appear everywhere (variance vectors, elicitation files, sample output).
PARAM_CLASSES = ("counts", "fertility", "survival", "migration", "srb")

STEP = 5

# bounds on a grid's open age group and on its span in years, far above any
# real reconstruction, so that its axes are small enough to build
MAX_OPEN_AGE = 150
MAX_SPAN = 1000


def _freeze(a) -> np.ndarray:
    """Return a float64 copy with the writeable flag cleared."""
    out = np.array(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ModelGrid:
    """Index frame: baseline year, end year, age range and fertile span.

    Parameters
    ----------
    start_year : int
        Baseline calendar year (earliest census year).
    end_year : int
        Final year of the reconstruction (latest census year).
    open_age : int
        Lower bound of the open-ended oldest age group, e.g. 80.
    fert_min_age, fert_max_age : int
        Lower bounds of the first and last fertile age groups.
    census_years : tuple of int
        Calendar years with census counts. May be empty for
        projection-only use.
    """

    start_year: int
    end_year: int
    open_age: int = 80
    fert_min_age: int = 15
    fert_max_age: int = 45
    census_years: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "census_years", tuple(int(y) for y in self.census_years))

    @property
    def n_ages(self) -> int:
        """Number of age groups K (closed groups plus the open group)."""
        return self.open_age // STEP + 1

    @property
    def n_periods(self) -> int:
        return (self.end_year - self.start_year) // STEP

    @property
    def ages(self) -> np.ndarray:
        """Lower bounds of the K age groups: 0, 5, ..., open_age."""
        return np.arange(0, self.open_age + STEP, STEP)

    @property
    def survival_ages(self) -> np.ndarray:
        """Destination-age labels of the K+1 survival entries.

        Entry a is the proportion of a cohort surviving INTO [a, a+5);
        the last entry (open_age + 5) is the proportion of the open
        group that remains alive over a period.
        """
        return np.arange(0, self.open_age + 2 * STEP, STEP)

    @property
    def fertile_ages(self) -> np.ndarray:
        return np.arange(self.fert_min_age, self.fert_max_age + STEP, STEP)

    @property
    def fertile_index(self) -> np.ndarray:
        """Indices of the fertile age groups within the K-length age axis."""
        return self.fertile_ages // STEP

    @property
    def n_fertile(self) -> int:
        return len(self.fertile_ages)

    @property
    def period_years(self) -> np.ndarray:
        """Start year of each projection period: start_year, ..., end_year-5."""
        return np.arange(self.start_year, self.end_year, STEP)

    @property
    def stock_years(self) -> np.ndarray:
        """Years at which population counts exist: start_year, ..., end_year."""
        return np.arange(self.start_year, self.end_year + STEP, STEP)

    def year_index(self, year: int) -> int:
        """Position of a stock year on the grid (0 for the baseline)."""
        if (year - self.start_year) % STEP != 0:
            raise ValueError(f"year {year} is not on the 5-year grid from {self.start_year}")
        return (year - self.start_year) // STEP

    @property
    def likelihood_years(self) -> tuple:
        """Census years that enter the count likelihood.

        The baseline census anchors the prior on the baseline counts and
        is excluded here so the same numbers are not used twice.
        """
        return tuple(y for y in self.census_years if self.start_year < y <= self.end_year)

    def class_axes(self) -> dict:
        """Axis labels of each ``ThetaVector`` array, keyed by class in
        PARAM_CLASSES order: age lower bounds, period start years and sex
        labels. Shapes, flat column ranges, parameter names and the
        coordinates in ``validate`` messages all derive from these."""
        ages, years = self.ages.tolist(), self.period_years.tolist()
        return {"counts": (ages, SEX_LABELS), "fertility": (self.fertile_ages.tolist(), years),
                "survival": (self.survival_ages.tolist(), years, SEX_LABELS),
                "migration": (ages, years, SEX_LABELS), "srb": (years,)}

    def class_shapes(self) -> dict:
        """Shape of each ``ThetaVector`` array, keyed by class in PARAM_CLASSES order."""
        return {c: tuple(map(len, axes)) for c, axes in self.class_axes().items()}

    def class_slices(self) -> dict:
        """Each class's column range in the flat parameter vector, whose
        order is ``parameter_names``: classes in PARAM_CLASSES order, each
        in the C order of its array."""
        out, start = {}, 0
        for c, shape in self.class_shapes().items():
            out[c] = slice(start, start + math.prod(shape))
            start = out[c].stop
        return out

    def class_views(self, matrix: np.ndarray) -> dict:
        """Class-keyed views of a (..., n) array with columns in ``parameter_names``
        order, each shaped leading axes + class shape; later columns are left out."""
        shapes = self.class_shapes()
        return {c: matrix[..., sl].reshape(matrix.shape[:-1] + shapes[c])
                for c, sl in self.class_slices().items()}


@dataclass(frozen=True)
class ThetaVector:
    """All inputs of the deterministic projection for one parameter draw.

    Arrays are float64 and read-only after construction. Axis order is
    (age, period, sex) throughout; sex uses FEMALE=0, MALE=1.

    baseline : (K, 2)
        Population counts at the baseline year.
    fertility : (n_fertile, P)
        Age-specific fertility rates for the fertile age groups only
        (births per person-year).
    survival : (K+1, P, 2)
        Survival proportions indexed by destination age (see
        ``ModelGrid.survival_ages``).
    migration : (K, P, 2)
        Net migration proportions over each period.
    srb : (P,)
        Sex ratio at birth, male births per female birth, per period.

    Fields follow PARAM_CLASSES order (``baseline`` holds the counts class);
    ``by_class`` and ``from_classes`` convert to and from class-keyed dicts.
    """

    baseline: np.ndarray
    fertility: np.ndarray
    survival: np.ndarray
    migration: np.ndarray
    srb: np.ndarray

    def __post_init__(self):
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _freeze(getattr(self, f.name)))

    def by_class(self) -> dict:
        """The arrays keyed by parameter class, in PARAM_CLASSES order."""
        return {c: getattr(self, f.name)
                for c, f in zip(PARAM_CLASSES, dataclasses.fields(self))}

    @classmethod
    def from_classes(cls, arrays: Mapping) -> "ThetaVector":
        """Inverse of ``by_class``: build from arrays keyed by class."""
        return cls(*(arrays[c] for c in PARAM_CLASSES))

    def replace(self, **arrays) -> "ThetaVector":
        """Copy with some arrays swapped out, named by field."""
        return dataclasses.replace(self, **arrays)


@dataclass(frozen=True)
class CensusData:
    """Census counts by age and sex at one or more census years.

    counts has shape (n_years, K, 2), aligned with ``years``.
    """

    years: tuple
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "years", tuple(int(y) for y in self.years))
        object.__setattr__(self, "counts", _freeze(self.counts))

    def at(self, year: int) -> np.ndarray:
        if year not in self.years:
            raise ValueError(f"no census counts for year {year}")
        return self.counts[self.years.index(year)]


@dataclass(frozen=True)
class Elicitation:
    """Expert inputs that set the variance hyperpriors.

    eta is the elicited relative error per parameter class: the expert
    believes the true value lies within eta * 100 percent of the initial
    estimate with 90 percent probability. alpha is the inverse-gamma
    shape; the default 0.5 gives each prior the weight of a single data
    point.
    """

    eta: Mapping
    alpha: Mapping = field(default_factory=dict)

    def __post_init__(self):
        eta = {c: float(self.eta[c]) for c in PARAM_CLASSES}
        alpha = {c: float(dict(self.alpha).get(c, 0.5)) for c in PARAM_CLASSES}
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "alpha", alpha)


def _check_grid(grid: ModelGrid, out: list, require_census: bool) -> bool:
    """Append the grid's violations to out. Returns whether its years and
    ages pass, so that its axes are small enough to build."""
    n = len(out)
    span = grid.end_year - grid.start_year
    if span <= 0:
        out.append(f"grid: end_year {grid.end_year} must exceed start_year {grid.start_year}")
    elif span > MAX_SPAN:
        out.append(f"grid: end_year - start_year = {span} exceeds {MAX_SPAN} years")
    elif span % STEP != 0:
        out.append(f"grid: end_year - start_year = {span} is not a multiple of {STEP}")
    if grid.open_age <= 0 or grid.open_age % STEP != 0:
        out.append(f"grid: open_age {grid.open_age} must be a positive multiple of {STEP}")
    elif grid.open_age > MAX_OPEN_AGE:
        out.append(f"grid: open_age {grid.open_age} exceeds {MAX_OPEN_AGE}")
    for name in ("fert_min_age", "fert_max_age"):
        v = getattr(grid, name)
        if v % STEP != 0 or not (0 <= v <= grid.open_age):
            out.append(f"grid: {name} {v} must be a multiple of {STEP} in [0, {grid.open_age}]")
    if grid.fert_min_age > grid.fert_max_age:
        out.append(
            f"grid: fert_min_age {grid.fert_min_age} exceeds fert_max_age {grid.fert_max_age}"
        )
    sized = len(out) == n

    years = grid.census_years
    if require_census and not years:
        out.append("grid: census_years is empty but census data was supplied")
    if years:
        for y in years:
            if (y - grid.start_year) % STEP != 0:
                out.append(
                    f"grid: census year {y} is off the {STEP}-year grid from {grid.start_year}"
                )
            elif not (grid.start_year <= y <= grid.end_year):
                out.append(
                    f"grid: census year {y} outside [{grid.start_year}, {grid.end_year}]"
                )
        if list(years) != sorted(set(years)):
            out.append("grid: census_years must be strictly increasing")
        if grid.start_year not in years:
            out.append(f"grid: baseline year {grid.start_year} must be a census year")
        if grid.end_year not in years:
            out.append(f"grid: end year {grid.end_year} must be a census year")
    return sized


def _check_shape(name: str, arr: np.ndarray, want: tuple, out: list) -> bool:
    if arr.shape != want:
        out.append(f"{name}: shape {arr.shape} does not match grid, expected {want}")
        return False
    return True


# the value range of each class and of census counts, as (cells outside
# it, reason); migration may take any finite value
_POSITIVE = (lambda a: a <= 0, "must be positive")
_RANGES = {"counts": (lambda a: a < 0, "is negative"), "fertility": _POSITIVE,
           "survival": (lambda a: (a <= 0) | (a >= 1), "outside (0, 1)"),
           "migration": (lambda a: False, ""), "srb": _POSITIVE}


def _cell_lines(name, arr, labels, value_range, out):
    """Append one line per non-finite cell, then one per finite cell
    outside the value range, each with its coordinates from labels."""
    finite = np.isfinite(arr)
    outside, reason = value_range
    for bad, why in ((~finite, "is not finite"), (finite & outside(arr), reason)):
        for idx in zip(*np.nonzero(bad)):
            coord = ",".join(str(lab[i]) for lab, i in zip(labels, idx))
            out.append(f"{name}[{coord}] = {arr[idx]:g} {why}")


def validate(grid: ModelGrid, theta: ThetaVector = None, census: CensusData = None) -> tuple:
    """Check every structural invariant and return the violations, one
    line each; an empty tuple means the inputs pass.

    Total: never raises on bad values. Coordinates in the messages are the
    labels of ``ModelGrid.class_axes``: age lower bounds, calendar years and
    sex labels. Census-year membership rules are only enforced when the
    grid declares census years or census data is supplied, so
    projection-only grids can leave ``census_years`` empty.
    Census data must hold every year of ``grid.likelihood_years``. A
    parameter set and a census are checked only against a grid whose years
    and ages pass, ``MAX_OPEN_AGE`` and ``MAX_SPAN`` included, since the
    grid's axes are built for them.
    """
    out: list = []
    if not _check_grid(grid, out, require_census=census is not None):
        return tuple(out)

    if theta is not None:
        for f, (cls, labels) in zip(dataclasses.fields(theta), grid.class_axes().items()):
            arr = getattr(theta, f.name)
            if _check_shape(f.name, arr, tuple(map(len, labels)), out):
                _cell_lines(f.name, arr, labels, _RANGES[cls], out)

    if census is not None:
        ages = grid.ages.tolist()
        if census.counts.shape != (len(census.years), len(ages), 2):
            out.append(
                f"census: counts shape {census.counts.shape} does not match"
                f" ({len(census.years)}, {len(ages)}, 2)"
            )
        else:
            _cell_lines("census", census.counts, (census.years, ages, SEX_LABELS), _POSITIVE, out)
        out += [f"census: year {y} appears {census.years.count(y)} times"
                for y in sorted(set(census.years)) if census.years.count(y) > 1]
        for y in census.years:
            if (y - grid.start_year) % STEP != 0 or not (grid.start_year <= y <= grid.end_year):
                out.append(f"census: year {y} is off the grid [{grid.start_year}, {grid.end_year}] step {STEP}")
            elif grid.census_years and y not in grid.census_years:
                out.append(f"census: year {y} is not declared in grid census_years")
        out += [f"census: grid census year {y} has no census counts"
                for y in grid.likelihood_years if y not in census.years]

    return tuple(out)
