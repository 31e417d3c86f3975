"""File formats: CSV matrices for parameter blocks, YAML configuration,
the sample draw matrix and the run manifest.

Parameter block CSVs have age lower bounds in the first column and
period start years as the remaining headers, one file per sex where the
block is sex specific:

  fertility.csv                    fertile age rows
  survival_female.csv / _male.csv  K+1 rows (0, 5, ..., open age + 5)
  migration_female.csv / _male.csv K rows
  baseline_female.csv / _male.csv  K rows, single column (baseline year)
  srb.csv                          two columns: year, srb

Census directories hold census_female.csv / census_male.csv shaped like
the blocks, with census years as columns. Posterior samples are the
draw matrix: a chain,draw header followed by ``parameter_names(grid)``,
then one row per retained draw, floats written with repr so a reload is
bit exact. The long format of version 0.1.0 (one chain,draw,parameter,
value row per scalar) fails the header check and is not read. The
manifest JSON records everything needed to reproduce a run: seed,
settings, hyperparameters, input file digests, package version and the
parsed grid.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from itertools import zip_longest
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .grid import (FEMALE, MALE, PARAM_CLASSES, SEX_LABELS,
                   CensusData, Elicitation, ModelGrid, ThetaVector)
from .projection import Trajectory
from .sampler import PosteriorSample, SamplerConfig, parameter_names


class ParseError(ValueError):
    """Malformed input file, with file and line context in the message."""


def _fail(path, line, msg):
    raise ParseError(f"{path}:{line}: {msg}")


# ---------------------------------------------------------------------------
# YAML configuration


def _load_section(path, section):
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as e:
            raise ParseError(f"{path}: not valid YAML: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a mapping at the top level")
    sub = doc.get(section)
    return sub if isinstance(sub, dict) else doc


def _int(path, what, value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ParseError(f"{path}: {what} must be an integer, got {value!r}") from None


def load_grid(path) -> ModelGrid:
    """Read a grid from YAML (either top-level keys or under ``grid:``)."""
    d = _load_section(path, "grid")
    for key in ("start_year", "end_year"):
        if key not in d:
            raise ParseError(f"{path}: grid is missing required key {key!r}")
    kwargs = {key: _int(path, f"grid key {key!r}", d[key])
              for key in ("start_year", "end_year", "open_age", "fert_min_age",
                          "fert_max_age", "step") if key in d}
    years = d.get("census_years", ())
    if years is None:
        years = ()
    if not isinstance(years, (list, tuple)):
        raise ParseError(f"{path}: census_years must be a list of years")
    kwargs["census_years"] = tuple(_int(path, "a census year", y) for y in years)
    return ModelGrid(**kwargs)


def load_elicitation(path) -> Elicitation:
    """Read elicited errors from YAML (top level or under ``elicitation:``)."""
    d = _load_section(path, "elicitation")
    if "eta" not in d or not isinstance(d["eta"], dict):
        raise ParseError(f"{path}: elicitation needs an 'eta' mapping with keys {PARAM_CLASSES}")
    missing = [c for c in PARAM_CLASSES if c not in d["eta"]]
    if missing:
        raise ParseError(f"{path}: eta is missing classes {missing}")
    alpha = d.get("alpha", {})
    if not isinstance(alpha, dict):
        raise ParseError(f"{path}: alpha must be a mapping if present")
    try:
        return Elicitation(eta=d["eta"], alpha=alpha)
    except (TypeError, ValueError) as e:
        raise ParseError(f"{path}: eta and alpha values must be numbers ({e})") from None


def load_sampler_settings(path) -> dict:
    """Optional ``sampler:`` section of a config file; {} when absent."""
    d = _load_section(path, "sampler")
    known = {"iterations", "burn_in", "thin", "chains", "seed"}
    return {k: _int(path, f"sampler key {k!r}", v) for k, v in d.items() if k in known}


# ---------------------------------------------------------------------------
# CSV matrices


def _read_matrix(path, index_name="age"):
    """Read one block CSV: returns (row_labels, col_labels, float matrix)."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: file not found")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            _fail(path, 1, "empty file")
        if len(header) < 2:
            _fail(path, 1, f"need an {index_name!r} column plus at least one data column")
        if header[0].strip() != index_name:
            _fail(path, 1, f"first column must be {index_name!r}, got {header[0]!r}")
        try:
            cols = [int(c) for c in header[1:]]
        except ValueError:
            _fail(path, 1, f"column headers after {index_name!r} must be years: {header[1:]}")
        rows = []
        values = []
        for lineno, rec in enumerate(reader, start=2):
            if not rec or all(not c.strip() for c in rec):
                continue
            if len(rec) != len(header):
                _fail(path, lineno, f"expected {len(header)} fields, got {len(rec)}")
            try:
                rows.append(int(rec[0]))
            except ValueError:
                _fail(path, lineno, f"row label {rec[0]!r} is not an integer {index_name}")
            vals = []
            for ci, cell in enumerate(rec[1:], start=2):
                try:
                    vals.append(float(cell))
                except ValueError:
                    _fail(path, lineno, f"column {ci} ({header[ci-1]}): {cell!r} is not a number")
            values.append(vals)
    if not rows:
        _fail(path, 2, "no data rows")
    order = np.argsort(rows)
    corder = np.argsort(cols)
    mat = np.asarray(values, dtype=np.float64)[order][:, corder]
    return ([rows[i] for i in order], [cols[i] for i in corder], mat)


def _write_matrix(path, row_labels, col_labels, matrix, index_name="age"):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([index_name] + [str(c) for c in col_labels])
        for lab, row in zip(row_labels, np.asarray(matrix)):
            w.writerow([str(lab)] + [repr(float(v)) for v in row])


def _read_srb(path):
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{path}: file not found")
    years, vals = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["year", "srb"]:
            _fail(path, 1, "header must be 'year,srb'")
        for lineno, rec in enumerate(reader, start=2):
            if not rec or all(not c.strip() for c in rec):
                continue
            try:
                years.append(int(rec[0]))
                vals.append(float(rec[1]))
            except (ValueError, IndexError):
                _fail(path, lineno, f"expected 'year,value', got {rec!r}")
    order = np.argsort(years)
    return [years[i] for i in order], np.asarray(vals, dtype=np.float64)[order]


def _expect_labels(path, kind, got, want):
    want = [int(w) for w in want]
    if list(got) != want:
        raise ParseError(f"{path}: {kind} {got} do not match the grid's {want}")


def load_theta(directory, grid: ModelGrid) -> ThetaVector:
    """Assemble a parameter vector from a directory of block CSVs.

    Row and column labels must match the grid exactly; that mismatch is
    a parse error (the file cannot be interpreted), while value-range
    problems are left to ``validate``.
    """
    d = Path(directory)
    pyears = list(grid.period_years)

    rows, cols, fert = _read_matrix(d / "fertility.csv")
    _expect_labels(d / "fertility.csv", "fertile ages", rows, grid.fertile_ages)
    _expect_labels(d / "fertility.csv", "period years", cols, pyears)

    surv = np.empty((grid.n_ages + 1, grid.n_periods, 2))
    mig = np.empty((grid.n_ages, grid.n_periods, 2))
    base = np.empty((grid.n_ages, 2))
    for sex, label in ((FEMALE, "female"), (MALE, "male")):
        p = d / f"survival_{label}.csv"
        rows, cols, m = _read_matrix(p)
        _expect_labels(p, "survival ages", rows, grid.survival_ages)
        _expect_labels(p, "period years", cols, pyears)
        surv[:, :, sex] = m

        p = d / f"migration_{label}.csv"
        rows, cols, m = _read_matrix(p)
        _expect_labels(p, "ages", rows, grid.ages)
        _expect_labels(p, "period years", cols, pyears)
        mig[:, :, sex] = m

        p = d / f"baseline_{label}.csv"
        rows, cols, m = _read_matrix(p)
        _expect_labels(p, "ages", rows, grid.ages)
        _expect_labels(p, "baseline year", cols, [grid.start_year])
        base[:, sex] = m[:, 0]

    years, srb = _read_srb(d / "srb.csv")
    _expect_labels(d / "srb.csv", "period years", years, pyears)

    return ThetaVector(baseline=base, fertility=fert, survival=surv,
                       migration=mig, srb=srb)


def write_theta(directory, theta: ThetaVector, grid: ModelGrid):
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    pyears = list(grid.period_years)
    _write_matrix(d / "fertility.csv", list(grid.fertile_ages), pyears, theta.fertility)
    for sex, label in ((FEMALE, "female"), (MALE, "male")):
        _write_matrix(d / f"survival_{label}.csv", list(grid.survival_ages), pyears,
                      theta.survival[:, :, sex])
        _write_matrix(d / f"migration_{label}.csv", list(grid.ages), pyears,
                      theta.migration[:, :, sex])
        _write_matrix(d / f"baseline_{label}.csv", list(grid.ages), [grid.start_year],
                      theta.baseline[:, sex:sex + 1])
    with open(d / "srb.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["year", "srb"])
        for y, v in zip(pyears, theta.srb):
            w.writerow([str(y), repr(float(v))])


def load_census(directory, grid: ModelGrid) -> CensusData:
    d = Path(directory)
    mats = {}
    years_seen = None
    for label in SEX_LABELS:
        p = d / f"census_{label}.csv"
        rows, cols, m = _read_matrix(p)
        _expect_labels(p, "ages", rows, grid.ages)
        if years_seen is None:
            years_seen = cols
        elif cols != years_seen:
            raise ParseError(f"{p}: census years {cols} differ from the female file's {years_seen}")
        mats[label] = m
    counts = np.stack([mats["female"].T, mats["male"].T], axis=-1)
    return CensusData(years=tuple(years_seen), counts=counts)


def write_census(directory, census: CensusData, grid: ModelGrid):
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    for sex, label in ((FEMALE, "female"), (MALE, "male")):
        _write_matrix(d / f"census_{label}.csv", list(grid.ages), list(census.years),
                      census.counts[:, :, sex].T)


# ---------------------------------------------------------------------------
# trajectories, samples, summaries


def write_trajectory(path, trajectory: Trajectory):
    """Tidy projection dump: year, sex, age, count."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["year", "sex", "age", "count"])
        K = trajectory.counts.shape[1]
        for ti, year in enumerate(trajectory.years):
            for sex, label in ((FEMALE, "female"), (MALE, "male")):
                for ai in range(K):
                    w.writerow([year, label, ai * 5,
                                repr(float(trajectory.counts[ti, ai, sex]))])


def write_samples(path, sample: PosteriorSample):
    """Draw matrix: chain, draw, then one column per parameter."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["chain", "draw"] + parameter_names(sample.grid))
        draw_no = {}
        for c, row in zip(sample.chain.tolist(), sample.flat()):
            k = draw_no[c] = draw_no.get(c, -1) + 1
            w.writerow([c, k] + [repr(v) for v in row.tolist()])


def read_samples(path, grid: ModelGrid) -> PosteriorSample:
    """Rebuild a PosteriorSample from a draw-matrix sample table; rows
    may come in any order."""
    columns = ["chain", "draw"] + parameter_names(grid)
    lines = {}  # (chain, draw) -> line number
    with open(path, newline="") as fh:
        # rows are parsed into one matrix sized by the line count: keeping
        # per-row arrays and then stacking them would hold the sample twice
        flat = np.empty((sum(1 for _ in fh), len(columns) - 2))
        fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != columns:
            i = next(i for i, (a, b) in enumerate(zip_longest(header, columns)) if a != b)
            got = repr(header[i]) if i < len(header) else "missing"
            if i < len(header) and header[i] not in columns:
                got = "unknown parameter " + got
            want = repr(columns[i]) if i < len(columns) else "no more columns"
            _fail(path, 1, f"column {i + 1} is {got}, expected {want}")
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(columns):
                _fail(path, lineno, f"expected {len(columns)} fields, got {len(rec)}")
            try:
                key = (int(rec[0]), int(rec[1]))
                flat[len(lines)] = np.array(rec[2:], dtype=np.float64)
            except ValueError as e:
                _fail(path, lineno, f"bad row: {e}")
            if key in lines:
                _fail(path, lineno, f"chain {key[0]} draw {key[1]} repeats line {lines[key]}")
            lines[key] = lineno
    if not lines:
        raise ParseError(f"{path}: no sample rows")
    keys = list(lines)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    flat = flat[:len(keys)] if order == list(range(len(keys))) else flat[order]
    chain = np.array([keys[i][0] for i in order], dtype=np.int64)

    n, shapes = len(keys), grid.class_shapes()
    *blocks, sigma2 = np.split(flat, np.cumsum([np.prod(s) for s in shapes.values()]), axis=1)
    draws = {c: b.reshape((n,) + s) for (c, s), b in zip(shapes.items(), blocks)}
    config = SamplerConfig(iterations=n, burn_in=0, thin=1, chains=int(chain.max()) + 1)
    return PosteriorSample(grid=grid, draws=draws, sigma2=sigma2, chain=chain,
                           acceptance={}, config=config)


def write_rows(path, rows, columns):
    """Write a list of dicts as CSV with the given column order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for r in rows:
            w.writerow([r.get(c, "") for c in columns])


# ---------------------------------------------------------------------------
# manifest


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to rerun a sampling job and get the same bytes."""

    seed: int
    settings: dict
    grid: dict
    elicitation: dict
    hyperparams: dict
    input_digests: dict
    version: str
    wall_clock_seconds: float
    created_unix: float

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def read(cls, path) -> "RunManifest":
        with open(path) as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}: not valid JSON: {e}") from None
        keys = [f.name for f in fields(cls)]
        missing = [k for k in keys if k not in d] if isinstance(d, dict) else keys
        if missing:
            raise ParseError(f"{path}: manifest is missing keys {missing}")
        return cls(**{k: d[k] for k in keys})

    def to_grid(self) -> ModelGrid:
        return ModelGrid(**self.grid)


def grid_as_dict(grid: ModelGrid) -> dict:
    return {**asdict(grid), "census_years": list(grid.census_years)}


def make_manifest(seed, settings, grid, elicitation, hyper, input_paths,
                  wall_clock_seconds) -> RunManifest:
    digests = {str(p): sha256_file(p) for p in input_paths}
    elic = {"eta": dict(elicitation.eta), "alpha": dict(elicitation.alpha)} \
        if elicitation is not None else {}
    hp = {"alpha": dict(hyper.alpha), "beta": dict(hyper.beta)} if hyper is not None else {}
    return RunManifest(seed=seed, settings=dict(settings), grid=grid_as_dict(grid),
                       elicitation=elic, hyperparams=hp, input_digests=digests,
                       version=__version__, wall_clock_seconds=wall_clock_seconds,
                       created_unix=time.time())
