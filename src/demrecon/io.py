"""File formats: CSV matrices for parameter blocks, YAML configuration,
the sample draw matrix and the run manifest.

A block CSV has row labels in its first column (``age``, or ``year`` in
srb.csv) and period start years as the remaining headers unless noted.
A sex-specific block is two files with the same labels, ``<stem>_female.csv``
and ``<stem>_male.csv``, read into one array with a last (sex) axis:

  fertility.csv                    fertile age rows
  survival_female.csv / _male.csv  K+1 rows (0, 5, ..., open age + 5)
  migration_female.csv / _male.csv K rows
  baseline_female.csv / _male.csv  K rows, single column (baseline year)
  srb.csv                          one column, header year,srb
  census_female.csv / _male.csv    K rows, census years as columns

Posterior samples are the draw matrix: a chain,draw header followed by
``parameter_names(grid)``, then one row per retained draw, floats
written with repr so a reload is bit exact. The reader takes the rows in
any order and skips blank lines; ``chain`` and ``draw`` are non-negative
decimal integers, and a value is any float literal, ``inf`` and ``nan``
included. The long format of version 0.1.0 (one chain,draw,parameter,value
row per scalar) fails the header check and is not read. A large table is
parsed in contiguous blocks of whole lines, one per BLOCK_BYTES and at
most one per usable CPU: the calling process parses the first, which
holds the header, and forked workers the others, each into its own slice
of one shared mapping. The result, and every error message, is that of
parsing the whole file in one call. The manifest JSON
records everything needed to reproduce a run: seed, settings,
hyperparameters, input file digests, package version and the parsed grid.
Inputs are read as UTF-8; a byte that does not decode is a ``ParseError``
naming the file, which the CLI reports with exit code 2, as it does a
directory where a file should be.

A YAML config holds only ``grid:``, ``sampler:`` and ``elicitation:``
sections, each a mapping; those sections, the classes under ``eta`` and
``alpha`` and the manifest's grid refuse unknown keys. Of several config
files, each section is read from the one holding it, and two holding it
are refused. Grid and sampler values are ints or strings of one, never
a float or a bool.
"""

from __future__ import annotations

import csv
import hashlib
import json
import mmap
import os
import time
import warnings
from contextlib import contextmanager
from itertools import zip_longest
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .grid import PARAM_CLASSES, SEX_LABELS, STEP, CensusData, Elicitation, ModelGrid, ThetaVector
from .projection import Trajectory
from .sampler import (SAMPLER_SETTINGS, PosteriorSample, SamplerConfig, _can_fork, _fork_map,
                      _usable_cpus, parameter_names)


class ParseError(ValueError):
    """Malformed input file, with file and line context in the message."""


def _fail(path, line, msg):
    raise ParseError(f"{path}:{line}: {msg}")


@contextmanager
def _reading(path):
    """Open a text input for reading; a byte that is not UTF-8 anywhere in
    the with block becomes a ParseError naming the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text: {e.reason}") from None


# ---------------------------------------------------------------------------
# YAML configuration


def _known_keys(path, what, mapping, known) -> dict:
    """mapping, which must be a dict whose keys are all in known; else a
    ParseError naming what and the unknown keys."""
    if not isinstance(mapping, dict):
        raise ParseError(f"{path}: {what} must be a mapping, got {mapping!r}")
    unknown = [k for k in mapping if k not in known]
    if unknown:
        raise ParseError(f"{path}: unknown {what} keys {unknown}; known keys are {list(known)}")
    return mapping


SECTIONS = ("grid", "sampler", "elicitation")

# libyaml's parser, several times faster, where PyYAML was built with it
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_section(paths, section, known) -> tuple:
    """(path, mapping): the ``section:`` mapping of one YAML file or several
    and the file that holds it, or {} and all the files when none does. A
    file named twice counts once, and two holding the section are refused.
    Each file holds only SECTIONS, the section only keys in known."""
    paths = (paths,) if isinstance(paths, (str, os.PathLike)) else paths
    files = list({os.path.realpath(p): p for p in paths}.values())
    found = []
    for path in files:
        with _reading(path) as fh:
            try:
                doc = yaml.load(fh, Loader=_YAML_LOADER)
            except yaml.YAMLError as e:
                raise ParseError(f"{path}: not valid YAML: {e}") from e
        if section in _known_keys(path, "top-level", doc, SECTIONS):
            found.append((path, doc[section]))
    if len(found) > 1:
        raise ParseError(f"{found[0][0]} and {found[1][0]} both hold a {section}: section")
    path, d = found[0] if found else (" and ".join(map(str, files)), {})
    return path, _known_keys(path, section, d, known)


def _int(path, what, value) -> int:
    """An int, or a string of one; a bool or a float is refused, not truncated."""
    try:
        if isinstance(value, str) or type(value) is int:
            return int(value)
    except ValueError:
        pass
    raise ParseError(f"{path}: {what} must be an integer, got {value!r}")


GRID_KEYS = tuple(f.name for f in fields(ModelGrid))


def load_grid(paths) -> ModelGrid:
    """Read a grid from the ``grid:`` section of one or several YAML files."""
    path, d = _load_section(paths, "grid", GRID_KEYS)
    return _grid_from_mapping(path, d, ("start_year", "end_year"))


def _grid_from_mapping(path, d, required) -> ModelGrid:
    """ModelGrid from a mapping of grid keys that holds every key in
    required, each an integer (census_years a list of them); path names
    the source in errors."""
    d = _known_keys(path, "grid", d, GRID_KEYS)
    missing = [k for k in required if k not in d]
    if missing:
        raise ParseError(f"{path}: grid is missing required keys {missing}")
    kwargs = {k: _int(path, f"grid key {k!r}", v) for k, v in d.items() if k != "census_years"}
    years = d.get("census_years")
    if not isinstance(years, (list, tuple, type(None))):
        raise ParseError(f"{path}: census_years must be a list of years")
    kwargs["census_years"] = tuple(_int(path, "a census year", y) for y in years or ())
    return ModelGrid(**kwargs)


def load_elicitation(paths) -> Elicitation:
    """Read elicited errors from the ``elicitation:`` section of YAML files:
    an ``eta`` mapping with every class and an optional ``alpha`` mapping."""
    path, d = _load_section(paths, "elicitation", ("eta", "alpha"))
    eta = _known_keys(path, "eta", d.get("eta", {}), PARAM_CLASSES)
    alpha = _known_keys(path, "alpha", d.get("alpha", {}), PARAM_CLASSES)
    missing = [c for c in PARAM_CLASSES if c not in eta]
    if missing:
        raise ParseError(f"{path}: eta is missing classes {missing}")
    for what, m in (("eta", eta), ("alpha", alpha)):
        for c, v in m.items():
            if isinstance(v, bool):  # YAML true/false, not a number
                raise ParseError(f"{path}: {what} {c} must be a number, got {v!r}")
    try:
        return Elicitation(eta=eta, alpha=alpha)
    except (TypeError, ValueError) as e:
        raise ParseError(f"{path}: eta and alpha values must be numbers ({e})") from None


def load_sampler_settings(paths) -> dict:
    """The optional ``sampler:`` section of YAML files; {} when absent."""
    path, d = _load_section(paths, "sampler", SAMPLER_SETTINGS)
    return {k: _int(path, f"sampler key {k!r}", v) for k, v in d.items()}


# ---------------------------------------------------------------------------
# CSV matrices


def _read_matrix(path, index_name="age", columns=None):
    """Read one block CSV: returns (row_labels, col_labels, float matrix).
    The column headers are years, or exactly ``columns`` when given."""
    with _reading(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            _fail(path, 1, "empty file")
        if columns is not None and [h.strip() for h in header] != [index_name, *columns]:
            _fail(path, 1, f"header must be {','.join([index_name, *columns])!r}")
        if len(header) < 2:
            _fail(path, 1, f"need an {index_name!r} column plus at least one data column")
        if header[0].strip() != index_name:
            _fail(path, 1, f"first column must be {index_name!r}, got {header[0]!r}")
        try:
            cols = [int(c) for c in header[1:]] if columns is None else list(columns)
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


def _write_table(path, header, rows):
    """Write a CSV table: the header, then each of rows."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _write_matrix(path, row_labels, col_labels, matrix, index_name="age"):
    _write_table(path, [index_name, *map(str, col_labels)],
                 ([str(lab), *map(repr, row)]
                  for lab, row in zip(row_labels, np.asarray(matrix, np.float64).tolist())))


def _expect_labels(path, kind, got, want):
    want = [int(w) for w in want]
    if list(got) != want:
        raise ParseError(f"{path}: {kind} {got} do not match the grid's {want}")


def _read_per_sex(d, stem, row_kind, row_labels, col_kind, col_labels=None):
    """Read ``<stem>_female.csv`` and ``<stem>_male.csv`` from directory d.
    Their rows must be row_labels, and their columns col_labels or, when
    that is None, the same in both files. Returns (column labels, the two
    matrices stacked on a last sex axis, C-ordered)."""
    mats, cols_seen = [], None
    for label in SEX_LABELS:
        p = d / f"{stem}_{label}.csv"
        rows, cols, m = _read_matrix(p)
        _expect_labels(p, row_kind, rows, row_labels)
        if col_labels is not None:
            _expect_labels(p, col_kind, cols, col_labels)
        elif cols_seen is not None and cols != cols_seen:
            raise ParseError(f"{p}: {col_kind} {cols} differ from the female file's {cols_seen}")
        cols_seen = cols
        mats.append(m)
    # the matrices may be Fortran-ordered, and so would a bare stack of them
    return cols_seen, np.ascontiguousarray(np.stack(mats, axis=-1))


def _write_per_sex(d, stem, row_labels, col_labels, arr):
    """Write arr[..., sex] as ``<stem>_female.csv`` and ``<stem>_male.csv``."""
    for sex, label in enumerate(SEX_LABELS):
        _write_matrix(d / f"{stem}_{label}.csv", row_labels, col_labels, arr[..., sex])


def load_theta(directory, grid: ModelGrid) -> ThetaVector:
    """Assemble a parameter vector from a directory of block CSVs.

    Row and column labels must match the grid exactly; that mismatch is
    a parse error (the file cannot be interpreted), while value-range
    problems are left to ``validate``.
    """
    d = Path(directory)
    pyears = grid.period_years

    rows, cols, fert = _read_matrix(d / "fertility.csv")
    _expect_labels(d / "fertility.csv", "fertile ages", rows, grid.fertile_ages)
    _expect_labels(d / "fertility.csv", "period years", cols, pyears)
    _, surv = _read_per_sex(d, "survival", "survival ages", grid.survival_ages,
                            "period years", pyears)
    _, mig = _read_per_sex(d, "migration", "ages", grid.ages, "period years", pyears)
    _, base = _read_per_sex(d, "baseline", "ages", grid.ages,
                            "baseline year", [grid.start_year])
    years, _, srb = _read_matrix(d / "srb.csv", "year", ["srb"])
    _expect_labels(d / "srb.csv", "period years", years, pyears)

    return ThetaVector(baseline=base[:, 0], fertility=fert, survival=surv,
                       migration=mig, srb=srb[:, 0])


def write_theta(directory, theta: ThetaVector, grid: ModelGrid):
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    pyears = grid.period_years
    _write_matrix(d / "fertility.csv", grid.fertile_ages, pyears, theta.fertility)
    _write_per_sex(d, "survival", grid.survival_ages, pyears, theta.survival)
    _write_per_sex(d, "migration", grid.ages, pyears, theta.migration)
    _write_per_sex(d, "baseline", grid.ages, [grid.start_year], theta.baseline[:, None])
    _write_matrix(d / "srb.csv", pyears, ["srb"], theta.srb[:, None], "year")


def load_census(directory, grid: ModelGrid) -> CensusData:
    years, counts = _read_per_sex(Path(directory), "census", "ages", grid.ages, "census years")
    return CensusData(years=tuple(years), counts=np.ascontiguousarray(counts.transpose(1, 0, 2)))


def write_census(directory, census: CensusData, grid: ModelGrid):
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    _write_per_sex(d, "census", grid.ages, census.years, census.counts.transpose(1, 0, 2))


# ---------------------------------------------------------------------------
# trajectories, samples, summaries


def write_trajectory(path, trajectory: Trajectory):
    """Tidy projection dump: year, sex, age, count."""
    counts = trajectory.counts.tolist()  # [year][age][sex]
    _write_table(path, ["year", "sex", "age", "count"],
                 ([year, label, ai * STEP, repr(by_age[sex])]
                  for year, ages in zip(trajectory.years, counts)
                  for sex, label in enumerate(SEX_LABELS)
                  for ai, by_age in enumerate(ages)))


# A sample table is parsed in one block per BLOCK_BYTES, on up to the
# usable CPUs: on a 2-CPU VM a forked worker costs about 6 ms, and
# loadtxt parses 4 MB from _lines in about 60 ms.
BLOCK_BYTES = 4 << 20


def write_samples(path, sample: PosteriorSample):
    """Draw matrix: chain, draw, then one column per parameter. Only the
    header needs csv quoting; a float's repr never does."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["chain", "draw"] + parameter_names(sample.grid))
        draw_no = {}
        for c, row in zip(sample.chain.tolist(), sample.flat()):
            k = draw_no[c] = draw_no.get(c, -1) + 1
            fh.write(f"{c},{k},{','.join(map(repr, row.tolist()))}\r\n")


def read_samples(path, grid: ModelGrid) -> PosteriorSample:
    """Rebuild a PosteriorSample from a draw-matrix sample table; rows
    may come in any order. One C-level loadtxt call parses each block of
    rows (see ``_block_cuts``); a file that a block refuses is parsed
    again in one call, and one that call refuses is scanned again to
    name the bad line."""
    columns = ["chain", "draw"] + parameter_names(grid)
    row = np.dtype([("chain", np.int64), ("draw", np.int64),
                    ("v", np.float64, (len(columns) - 2,))])
    cuts = _block_cuts(path)
    parsed = None
    if len(cuts) > 2:
        try:
            parsed = _parse_blocks(path, columns, row, cuts)
        except (ValueError, csv.Error, OSError):  # a bad block or bare CR line end, or no
            pass  # mapping or fork: the one-call parse below reads the file or names its fault
    if parsed is None:
        with _reading(path) as fh:
            _check_header(path, fh, columns)
            try:
                rows = _loadtxt(fh, row)
            except UnicodeDecodeError:
                raise
            except ValueError as e:
                _raise_bad_row(path, columns, e)
        parsed = rows, np.arange(len(rows))
    rows, kept = parsed
    if not len(kept):
        raise ParseError(f"{path}: no sample rows")
    order = kept[np.lexsort((rows["draw"][kept], rows["chain"][kept]))]
    chain, draw = rows["chain"][order], rows["draw"][order]
    if chain[0] < 0 or draw.min() < 0 or (
            (chain[1:] == chain[:-1]) & (draw[1:] == draw[:-1])).any():
        _raise_bad_row(path, columns, None)
    flat = rows["v"][order]  # one C-ordered copy, in (chain, draw) order

    config = SamplerConfig(iterations=len(flat), burn_in=0, thin=1, chains=int(chain[-1]) + 1)
    return PosteriorSample(grid=grid, draws=grid.class_views(flat),
                           sigma2=flat[:, -len(PARAM_CLASSES):], chain=chain,
                           acceptance={}, config=config)


def _check_header(path, fh, columns):
    """Read the header of a sample table from fh; a ParseError unless it is columns."""
    header = next(csv.reader(fh), [])
    if header != columns:
        i = next(i for i, (a, b) in enumerate(zip_longest(header, columns)) if a != b)
        got = repr(header[i]) if i < len(header) else "missing"
        if i < len(header) and header[i] not in columns:
            got = "unknown parameter " + got
        want = repr(columns[i]) if i < len(columns) else "no more columns"
        _fail(path, 1, f"column {i + 1} is {got}, expected {want}")


def _loadtxt(fh, row) -> np.ndarray:
    """The rows of a sample table after its header, read from fh."""
    with warnings.catch_warnings():  # a header-only file is reported by read_samples
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(fh, dtype=row, delimiter=",", quotechar='"', comments=None, ndmin=1)


def _block_cuts(path) -> list:
    """Byte offsets [0, ..., size] that cut a sample table into blocks: one
    block per BLOCK_BYTES, up to one per usable CPU, and a single block
    where workers cannot be forked. Each inner cut is the start of the
    first line at or after its even share of the file, so the header,
    far shorter than a block, stays in the first block."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        n = max(1, min(_usable_cpus(), size // BLOCK_BYTES)) if _can_fork() else 1
        cuts = [0]
        for k in range(1, n):
            fh.seek(k * size // n - 1)
            if fh.readline(size // n).endswith(b"\n") and cuts[-1] < fh.tell() < size:
                cuts.append(fh.tell())
    return cuts + [size]


def _lines(path, begin, end):
    """The lines of a file from byte begin, a line start, up to byte end, decoded
    as UTF-8. A bare \\r ends no line here, unlike in text mode."""
    with open(path, "rb") as fh:
        fh.seek(begin)
        for line in fh:
            if begin >= end:
                return
            begin += len(line)
            yield line.decode("utf-8")


def _parse_blocks(path, columns, row, cuts) -> tuple:
    """(records, the indices of the parsed ones) of a sample table cut into
    blocks at cuts, parsed by ``_fork_map``: the first block here, every
    other one in a forked worker. Each block writes its records into its
    own slice of one shared anonymous mapping and returns only how many
    it wrote, so no record is pickled. A slice holds as many records as
    its block could: a record takes at least two bytes per column (a
    character and a delimiter or line end), and pages of the mapping
    that no record reaches are never allocated. Raises ValueError when a
    block cannot be parsed, and OSError when the mapping or a worker
    cannot be made; csv.Error too for the header of a file with bare \\r line ends."""
    room = [(end - begin) // (2 * len(columns)) + 1 for begin, end in zip(cuts, cuts[1:])]
    starts = np.cumsum([0] + room)
    rows = np.frombuffer(mmap.mmap(-1, int(starts[-1]) * row.itemsize), dtype=row)

    def parse(k):
        lines = _lines(path, cuts[k], cuts[k + 1])
        if k == 0:
            _check_header(path, lines, columns)
        block = _loadtxt(lines, row)
        if len(block) > room[k]:
            raise ValueError(f"block {k} holds more rows than its bytes allow")
        rows[starts[k]:starts[k] + len(block)] = block
        return len(block)

    counts = _fork_map(parse, [(k,) for k in range(len(room))])
    return rows, np.concatenate([np.arange(s, s + c) for s, c in zip(starts, counts)])


def _raise_bad_row(path, columns, cause):
    """Re-scan the rows of a sample table that the one-call parse refused,
    or that hold a negative or repeated key, and raise a ParseError naming
    the first bad line. A cell is read as the parse reads it: stripped of
    whitespace, ASCII only, no digit separators; chain and draw fit int64."""
    lines = {}  # (chain, draw) -> line number
    with _reading(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(columns):
                _fail(path, lineno, f"expected {len(columns)} fields, got {len(rec)}")
            cells = [c.strip() for c in rec]
            try:
                key = (int(cells[0]), int(cells[1]))
                np.array(cells[2:], dtype=np.float64)
            except ValueError as e:
                _fail(path, lineno, f"bad row: {e}")
            odd = next((c for c in cells if "_" in c or not c.isascii()), None)
            if odd is not None:
                _fail(path, lineno, f"bad row: {odd!r} is not an ASCII number")
            if not all(0 <= k < 2**63 for k in key):
                _fail(path, lineno, f"bad row: chain {rec[0]!r} and draw {rec[1]!r} must be "
                                    f"integers from 0 to 2**63 - 1")
            if key in lines:
                _fail(path, lineno, f"chain {key[0]} draw {key[1]} repeats line {lines[key]}")
            lines[key] = lineno
    # the scan accepts every row the parse refused: report the parse's fault
    raise ParseError(f"{path}: {cause}")


def write_rows(path, rows, columns):
    """Write a list of dicts as CSV with the given column order."""
    _write_table(path, columns, ([r.get(c, "") for c in columns] for r in rows))


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
        with _reading(path) as fh:
            try:
                d = json.load(fh)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}: not valid JSON: {e}") from None
        keys = [f.name for f in fields(cls)]
        missing = [k for k in keys if k not in d] if isinstance(d, dict) else keys
        if missing:
            raise ParseError(f"{path}: manifest is missing keys {missing}")
        if isinstance(d["grid"], dict) and d["grid"].get("step") == STEP:
            del d["grid"]["step"]  # written by 0.2.0, whose grid had a step field fixed at 5
        d["grid"] = grid_as_dict(_grid_from_mapping(path, d["grid"], GRID_KEYS))
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
