"""Correctness gates. Each check returns a list of problems; an empty
list means the output passed. A benchmark operation whose gate reports
a problem counts as failed."""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

from demrecon import io, parameter_names, project_full

PROJECTION_RTOL = 1e-12
# summaries and diagnostics of this commit are matched within this
# relative tolerance, not bitwise: a vectorised indicator may sum in
# another order
REFERENCE_RTOL = 1e-9


def _read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_projection(produced, expected) -> list:
    """The projection CSV matches the frozen one at PROJECTION_RTOL."""
    got, want = _read_csv(produced), _read_csv(expected)
    if len(got) != len(want):
        return [f"projection has {len(got)} rows, expected {len(want)}"]
    problems = []
    for i, (g, w) in enumerate(zip(got, want)):
        if (g["year"], g["sex"], g["age"]) != (w["year"], w["sex"], w["age"]):
            return [f"projection row {i} is {g}, expected labels of {w}"]
        a, b = float(g["count"]), float(w["count"])
        if not abs(a - b) <= PROJECTION_RTOL * abs(b):
            problems.append(f"projection {w['year']} {w['sex']} {w['age']}: {a!r} vs {b!r}")
    return problems


def sample_digest(sample) -> str:
    """SHA-256 of the draws (flat matrix) and their chain labels."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(sample.flat(), dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(sample.chain, dtype=np.int64).tobytes())
    return h.hexdigest()


def check_draws(sample) -> list:
    """Every retained draw is finite and projects to nonnegative counts."""
    flat = sample.flat()
    bad = np.nonzero(~np.all(np.isfinite(flat), axis=1))[0]
    if bad.size:
        return [f"{bad.size} draws hold non-finite values, first is draw {bad[0]}"]
    for i in range(sample.n_draws):
        theta = sample.theta_at(i)
        traj = project_full(theta.baseline, theta, sample.grid)
        if np.any(traj.counts < 0):
            return [f"draw {i} projects to a negative count at {traj.first_negative()}"]
    return []


def check_summary(path, sample) -> list:
    """Spot-check summary.csv against means recomputed from the draws:
    the posterior mean of tfr and of srb in every period."""
    rows = _read_csv(path)
    if not rows:
        return [f"{path} has no rows"]
    years = [int(y) for y in sample.grid.period_years]
    expect = {"tfr": 5.0 * sample.draws["fertility"].sum(axis=1).mean(axis=0),
              "srb": sample.draws["srb"].mean(axis=0)}
    means = {(r["indicator"], r["year"]): float(r["value"])
             for r in rows if r["statistic"] == "mean"}
    problems = []
    for name, values in expect.items():
        for year, want in zip(years, values):
            got = means.get((name, str(year)))
            if got is None or not math.isclose(got, want, rel_tol=REFERENCE_RTOL):
                problems.append(f"summary mean of {name} in {year}: {got!r}, recomputed {want!r}")
    return problems


def check_diagnostics(path, grid) -> list:
    """diagnostics.csv has one row per parameter, in the sampler's order."""
    got = [r["parameter"] for r in _read_csv(path)]
    want = parameter_names(grid)
    if got != want:
        return [f"diagnostics lists {len(got)} parameters, expected the grid's {len(want)}"]
    return []


def _same_cell(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    if math.isnan(x) and math.isnan(y):
        return True
    return math.isclose(x, y, rel_tol=REFERENCE_RTOL)


def check_reference(produced, reference) -> list:
    """A CSV matches a recorded one cell by cell; numbers within
    REFERENCE_RTOL, every other cell exactly."""
    got, want = _read_csv(produced), _read_csv(reference)
    if len(got) != len(want):
        return [f"{Path(produced).name} has {len(got)} rows, the reference {len(want)}"]
    problems = []
    for i, (g, w) in enumerate(zip(got, want)):
        if g.keys() != w.keys():
            return [f"{Path(produced).name} columns {list(g)} differ from {list(w)}"]
        for col in w:
            if not _same_cell(g[col], w[col]):
                problems.append(f"{Path(produced).name} row {i} {col}: {g[col]!r} vs {w[col]!r}")
    return problems[:10]


def read_sample_dir(sample_dir):
    """Read a sample directory back the way ``summarize`` does."""
    manifest = io.RunManifest.read(Path(sample_dir) / "manifest.json")
    grid = manifest.to_grid()
    return io.read_samples(Path(sample_dir) / "samples.csv", grid)
