"""CSV and YAML round trips, parse diagnostics, and the run manifest."""

import csv
import io as stdio
import multiprocessing
import os
import re
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from demrecon import io as demrecon_io
from demrecon import sampler
from demrecon import (CensusData, ParseError, PosteriorSample, SamplerConfig,
                      beta_from_elicitation, load_census, load_elicitation,
                      load_grid, load_sampler_settings, load_theta,
                      make_manifest, parameter_names, project_full, read_samples,
                      run_chain, sha256_file, validate, write_census, write_samples,
                      write_theta, write_trajectory)
from demrecon.cli import main
from demrecon.io import RunManifest, write_rows
from conftest import draw_matrix, make_theta, flat_elicitation
from oracles import read_samples_oracle

ROOT = Path(__file__).resolve().parent.parent
DEMO = ROOT / "data" / "demo"


# ---------------------------------------------------------------------------
# parameter tables


def test_theta_round_trip_is_bitwise(tmp_path, desk_grid):
    theta = make_theta(desk_grid, seed=3)
    write_theta(tmp_path, theta, desk_grid)
    back = load_theta(tmp_path, desk_grid)
    for attr in ("baseline", "fertility", "survival", "migration", "srb"):
        assert np.array_equal(getattr(back, attr), getattr(theta, attr))


def test_census_round_trip_is_bitwise(tmp_path, desk_grid):
    theta = make_theta(desk_grid, seed=4)
    traj = project_full(theta.baseline, theta, desk_grid)
    years = desk_grid.likelihood_years
    census = CensusData(years=years,
                        counts=np.stack([traj.at(y) for y in years]))
    write_census(tmp_path, census, desk_grid)
    back = load_census(tmp_path, desk_grid)
    assert back.years == census.years
    assert np.array_equal(back.counts, census.counts)


def test_round_tripped_theta_validates_identically(tmp_path, desk_grid):
    theta = make_theta(desk_grid, seed=5)
    write_theta(tmp_path, theta, desk_grid)
    back = load_theta(tmp_path, desk_grid)
    assert validate(desk_grid, back) == validate(desk_grid, theta) == ()


def test_missing_file_mentions_path(tmp_path, desk_grid):
    theta = make_theta(desk_grid, seed=3)
    write_theta(tmp_path, theta, desk_grid)
    (tmp_path / "survival_male.csv").unlink()
    with pytest.raises((ParseError, OSError), match="survival_male"):
        load_theta(tmp_path, desk_grid)


def test_bad_header_reports_line(tmp_path, desk_grid):
    theta = make_theta(desk_grid, seed=3)
    write_theta(tmp_path, theta, desk_grid)
    p = tmp_path / "fertility.csv"
    lines = p.read_text().splitlines()
    lines[0] = "age;1960;1965;1970"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"fertility\.csv:1:"):
        load_theta(tmp_path, desk_grid)


def test_non_numeric_cell_reports_line(tmp_path, desk_grid):
    theta = make_theta(desk_grid, seed=3)
    write_theta(tmp_path, theta, desk_grid)
    p = tmp_path / "srb.csv"
    lines = p.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + ",not_a_number"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=r"srb\.csv:3:"):
        load_theta(tmp_path, desk_grid)


def test_blank_line_in_block_csv_is_skipped(tmp_path, desk_grid):
    theta = make_theta(desk_grid, seed=3)
    write_theta(tmp_path, theta, desk_grid)
    p = tmp_path / "fertility.csv"
    lines = p.read_text().splitlines(keepends=True)
    p.write_text("".join(lines[:2] + ["\n", " , ,\n"] + lines[2:]))
    back = load_theta(tmp_path, desk_grid)
    assert all(np.array_equal(a, b) for a, b in zip(back.by_class().values(),
                                                    theta.by_class().values()))


def test_wrong_age_labels_rejected(tmp_path, desk_grid):
    theta = make_theta(desk_grid, seed=3)
    write_theta(tmp_path, theta, desk_grid)
    p = tmp_path / "baseline_female.csv"
    text = p.read_text().replace("\n10,", "\n12,")
    p.write_text(text)
    with pytest.raises(ParseError):
        load_theta(tmp_path, desk_grid)


def test_wrong_row_label_in_male_file_names_it(tmp_path, desk_grid):
    write_theta(tmp_path, make_theta(desk_grid, seed=3), desk_grid)
    p = tmp_path / "survival_male.csv"
    p.write_text(p.read_text().replace("\n20,", "\n21,"))
    with pytest.raises(ParseError, match=r"survival_male\.csv: survival ages \[0, 5, 10, 15, 21\]"):
        load_theta(tmp_path, desk_grid)


def test_bad_srb_header_rejected(tmp_path, desk_grid):
    write_theta(tmp_path, make_theta(desk_grid, seed=3), desk_grid)
    p = tmp_path / "srb.csv"
    p.write_text(p.read_text().replace("year,srb", "year,sbr"))
    with pytest.raises(ParseError, match=r"srb\.csv:1: header must be 'year,srb'"):
        load_theta(tmp_path, desk_grid)


def test_census_sexes_with_different_years_rejected(tmp_path, desk_grid):
    years = desk_grid.likelihood_years
    write_census(tmp_path, CensusData(
        years=years, counts=np.full((len(years), desk_grid.n_ages, 2), 100.0)), desk_grid)
    p = tmp_path / "census_male.csv"
    p.write_text(p.read_text().replace(",1975", ",1970"))
    with pytest.raises(ParseError, match=r"census_male\.csv: census years \[1965, 1970\]"
                                         r" differ from the female file's \[1965, 1975\]"):
        load_census(tmp_path, desk_grid)


def test_loaded_blocks_are_c_ordered(tmp_path):
    """ChainState writes proposals through flat views of the loaded arrays,
    which reach the arrays only when they are C-ordered. Fertility is the
    known exception (ROADMAP item 1) and is not checked here."""
    grid = load_grid(DEMO / "grid.yaml")
    theta = load_theta(DEMO / "initial", grid)
    for cls in ("counts", "survival", "migration", "srb"):
        assert theta.by_class()[cls].flags.c_contiguous, cls
    traj = project_full(theta.baseline, theta, grid)
    years = grid.likelihood_years
    write_census(tmp_path, CensusData(years=years, counts=np.stack([traj.at(y) for y in years])),
                 grid)
    assert load_census(tmp_path, grid).counts.flags.c_contiguous


# ---------------------------------------------------------------------------
# config loaders


def test_load_grid(tmp_path):
    p = tmp_path / "grid.yaml"
    p.write_text(
        "grid:\n  start_year: 1960\n  end_year: 1975\n  open_age: 15\n"
        "  fert_min_age: 10\n  fert_max_age: 15\n"
        "  census_years: [1960, 1965, 1975]\n")
    g = load_grid(p)
    assert g.start_year == 1960 and g.end_year == 1975
    assert g.census_years == (1960, 1965, 1975)


def test_load_grid_top_level_keys(tmp_path, capsys, desk_grid):
    """Grid keys are read only under ``grid:``. At the top level, beside a
    misspelled section, or under a grid section that is not a mapping they
    make the command exit 2 naming the key, never a silent default."""
    keys = ("start_year: 1960\nend_year: 1975\nopen_age: 15\n"
            "fert_min_age: 10\nfert_max_age: 15\ncensus_years: [1960, 1975]\n")
    section = "grid:\n" + textwrap.indent(keys, "  ")
    p = tmp_path / "grid.yaml"
    p.write_text(section)
    assert load_grid(p).n_periods == 3
    write_theta(tmp_path / "initial", make_theta(desk_grid, seed=1), desk_grid)
    for text, message in [
        (keys, "unknown top-level keys ['start_year', 'end_year'"),
        (section + "sampeler:\n  iterations: 10\n", "unknown top-level keys ['sampeler']"),
        ("grid: 5\n", "grid must be a mapping, got 5"),
    ]:
        p.write_text(text)
        assert main(["project", "--grid", str(p), "--initial-estimates-dir",
                     str(tmp_path / "initial"), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: ") and message in err, err


def test_yaml_loaders_read_configs_alike(tmp_path, monkeypatch, capsys):
    """Config files are parsed with libyaml where PyYAML has it and with the
    pure-Python loader elsewhere. Both read the demo files and the README
    examples alike, and both make malformed YAML exit 2."""
    assert demrecon_io._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    text = (ROOT / "README.md").read_text()
    section = re.search(r"## File formats\n(.*?)\n## ", text, flags=re.S).group(1)
    readme = [tmp_path / "grid.yaml", tmp_path / "elicitation.yaml"]
    for path, block in zip(readme, re.findall(r"```yaml\n(.*?)```", section, flags=re.S)):
        path.write_text(block)
    write_theta(tmp_path / "initial", make_theta(load_grid(readme[0])), load_grid(readme[0]))
    bad = tmp_path / "bad.yaml"
    results = []
    for loader in (yaml.SafeLoader, demrecon_io._YAML_LOADER):
        monkeypatch.setattr(demrecon_io, "_YAML_LOADER", loader)
        results.append([(load_grid(g), load_elicitation(e), load_sampler_settings(g),
                         load_sampler_settings(e))
                        for g, e in ((DEMO / "grid.yaml", DEMO / "elicitation.yaml"), readme)])
        for malformed in ("grid: [1960,\n", "grid:\n  start_year: 1960\n   end_year: 1975\n"):
            bad.write_text(malformed)
            assert main(["project", "--grid", str(bad), "--initial-estimates-dir",
                         str(tmp_path / "initial"), "--out-dir", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err.startswith(f"error: {bad}: not valid YAML")
    assert all(r == results[0] for r in results)


def test_load_grid_missing_key(tmp_path):
    p = tmp_path / "grid.yaml"
    p.write_text("grid:\n  start_year: 1960\n")
    with pytest.raises(ParseError, match="end_year"):
        load_grid(p)


def test_load_elicitation(tmp_path):
    p = tmp_path / "elic.yaml"
    p.write_text(
        "elicitation:\n  eta:\n    counts: 0.1\n    fertility: 0.1\n"
        "    survival: 0.1\n    migration: 0.2\n    srb: 0.1\n")
    e = load_elicitation(p)
    assert e.eta["migration"] == 0.2
    assert e.alpha["counts"] == 0.5


def test_load_elicitation_missing_class(tmp_path):
    p = tmp_path / "elic.yaml"
    p.write_text("elicitation:\n  eta:\n    counts: 0.1\n")
    with pytest.raises(ParseError):
        load_elicitation(p)


def test_load_sampler_settings(tmp_path):
    p = tmp_path / "settings.yaml"
    p.write_text("sampler:\n  iterations: 500\n  burn_in: 100\n  thin: 2\n"
                 "  chains: 3\n  seed: 42\n")
    s = load_sampler_settings(p)
    assert s == {"iterations": 500, "burn_in": 100, "thin": 2,
                 "chains": 3, "seed": 42}


def test_sections_read_from_whichever_file_holds_them(tmp_path):
    """Given several config files, each section comes from the one that
    holds it; a file named twice, however spelled, counts once, and a
    section no file holds is named against all of them."""
    grid, other = tmp_path / "grid.yaml", tmp_path / "other.yaml"
    grid.write_text("grid:\n  start_year: 1960\n  end_year: 1975\n")
    other.write_text("sampler:\n  thin: 2\n")
    assert load_sampler_settings((grid, other)) == {"thin": 2}
    assert load_grid((grid, other)).end_year == 1975
    assert load_grid((grid, tmp_path / "." / "grid.yaml")).end_year == 1975
    assert load_sampler_settings((grid, grid)) == {}
    with pytest.raises(ParseError, match=re.escape(f"{grid} and {other}: eta is missing classes")):
        load_elicitation((grid, other))


def test_sampler_section_rejects_unknown_keys(tmp_path):
    """A misspelled key of a sampler section must not silently run the
    defaults; a grid section in the same file is not the sampler's."""
    p = tmp_path / "settings.yaml"
    p.write_text("sampler:\n  iteration: 10\n  burn_in: 2\n")
    with pytest.raises(ParseError, match=r"unknown sampler keys \['iteration'\]"):
        load_sampler_settings(p)
    p.write_text("grid:\n  start_year: 1960\n  end_year: 1975\nsampler:\n  iterations: 10\n")
    assert load_sampler_settings(p) == {"iterations": 10}


@pytest.mark.parametrize("text, message", [
    ("grid:\n  start_year: 1960\n  end_year: 1975\n  census_year: [1960]\n",
     r"unknown grid keys \['census_year'\]"),
    ("elicitation:\n  eta: {counts: 0.1, fertility: 0.1, survival: 0.1, migration: 0.2,"
     " srb: 0.1}\n  alphas: {srb: 3}\n", r"unknown elicitation keys \['alphas'\]"),
    ("elicitation:\n  eta: {counts: 0.1, fertility: 0.1, survival: 0.1, migration: 0.2,"
     " srb: 0.1}\n  alpha: {sbr: 3}\n", r"unknown alpha keys \['sbr'\]"),
    ("elicitation:\n  eta: {counts: 0.1, fertility: 0.1, survival: 0.1, migration: 0.2,"
     " sbr: 0.1}\n", r"unknown eta keys \['sbr'\]"),
], ids=["grid_key", "elicitation_key", "alpha_class", "eta_class"])
def test_config_sections_reject_unknown_keys_and_classes(tmp_path, text, message):
    p = tmp_path / "config.yaml"
    p.write_text(text)
    load = load_grid if "year" in text else load_elicitation
    with pytest.raises(ParseError, match=message):
        load(p)


@pytest.mark.parametrize("line, message", [
    ("open_age: 80.5", r"grid key 'open_age' must be an integer, got 80\.5"),
    ("open_age: true", r"grid key 'open_age' must be an integer, got True"),
    ("census_years: [1960, 1975.0]", r"a census year must be an integer, got 1975\.0"),
], ids=["float", "bool", "float_census_year"])
def test_grid_values_must_be_integers(tmp_path, line, message):
    p = tmp_path / "grid.yaml"
    p.write_text(f"grid:\n  start_year: 1960\n  end_year: '1975'\n  {line}\n")
    with pytest.raises(ParseError, match=message):
        load_grid(p)
    p.write_text("grid:\n  start_year: 1960\n  end_year: '1975'\n")
    assert load_grid(p).end_year == 1975


def test_sampler_values_must_be_integers(tmp_path):
    p = tmp_path / "settings.yaml"
    p.write_text("sampler:\n  iterations: 100.9\n")
    with pytest.raises(ParseError, match=r"sampler key 'iterations' must be an integer"):
        load_sampler_settings(p)


# ---------------------------------------------------------------------------
# samples and trajectories


def test_samples_round_trip(tmp_path, desk_grid):
    initial = make_theta(desk_grid, seed=1)
    hyper = beta_from_elicitation(flat_elicitation(), initial)
    config = SamplerConfig(iterations=30, burn_in=10, thin=2, chains=2, seed=5)
    sample = run_chain(config, desk_grid, initial, None, hyper)
    p = tmp_path / "samples.csv"
    write_samples(p, sample)
    back = read_samples(p, desk_grid)
    assert np.array_equal(back.flat(), sample.flat())
    assert np.array_equal(back.chain, sample.chain)


def _write_records(path, records):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(records)


def _header(grid):
    return ["chain", "draw"] + parameter_names(grid)


def test_read_samples_rejects_foreign_parameter(tmp_path, desk_grid):
    p = tmp_path / "samples.csv"
    header = _header(desk_grid)
    header[header.index("srb[1965]")] = "tempo[0]"
    _write_records(p, [header])
    with pytest.raises(ParseError, match=r"samples\.csv:1: column \d+ is unknown parameter"
                                         r" 'tempo\[0\]', expected 'srb\[1965\]'"):
        read_samples(p, desk_grid)


def test_read_samples_rejects_incomplete_draw(tmp_path, desk_grid):
    p = tmp_path / "samples.csv"
    n = len(parameter_names(desk_grid))
    _write_records(p, [_header(desk_grid), [0, 0] + [1.05] * (n - 1)])
    with pytest.raises(ParseError, match=rf"samples\.csv:2: expected {n + 2} fields, got {n + 1}"):
        read_samples(p, desk_grid)


@pytest.mark.parametrize("change, message", [
    ("long_format", "column 3 is unknown parameter 'parameter', expected 'baseline"),
    ("empty", "column 1 is missing, expected 'chain'"),
    ("drop_last", r"column \d+ is missing, expected 'sigma2\[srb\]'"),
    ("add_extra", r"column \d+ is unknown parameter 'extra', expected no more columns"),
    ("swap", r"column 3 is 'baseline\[0,male\]', expected 'baseline\[0,female\]'"),
])
def test_read_samples_rejects_other_headers(tmp_path, desk_grid, change, message):
    """The 0.1.0 long format, an empty file, and a missing, extra or
    reordered column."""
    full = _header(desk_grid)
    header = {"long_format": ["chain", "draw", "parameter", "value"], "empty": [],
              "drop_last": full[:-1], "add_extra": full + ["extra"],
              "swap": full[:2] + [full[3], full[2]] + full[4:]}[change]
    p = tmp_path / "samples.csv"
    _write_records(p, [header] if header else [])
    with pytest.raises(ParseError, match=rf"samples\.csv:1: {message}"):
        read_samples(p, desk_grid)


def _two_chain_samples(tmp_path, grid):
    """A random 2-chain sample written with write_samples, plus its records."""
    rng = np.random.default_rng(8)
    n = 7
    draws = {c: rng.uniform(0.1, 0.9, (n,) + shape) for c, shape in grid.class_shapes().items()}
    sample = PosteriorSample(grid=grid, draws=draws, sigma2=rng.uniform(0.1, 1.0, (n, 5)),
                             chain=np.array([0, 0, 0, 0, 1, 1, 1]), acceptance={},
                             config=SamplerConfig(iterations=n, burn_in=0))
    p = tmp_path / "samples.csv"
    write_samples(p, sample)
    with open(p, newline="") as fh:
        return sample, p, list(csv.reader(fh))


def test_samples_file_is_the_draw_matrix(tmp_path, desk_grid):
    sample, _, records = _two_chain_samples(tmp_path, desk_grid)
    assert records[0] == _header(desk_grid)
    assert [r[:2] for r in records[1:]] == [["0", "0"], ["0", "1"], ["0", "2"], ["0", "3"],
                                            ["1", "0"], ["1", "1"], ["1", "2"]]
    values = np.array([r[2:] for r in records[1:]], dtype=np.float64)
    assert np.array_equal(values, sample.flat())


def test_samples_file_bytes_are_csv_writer_of_repr(tmp_path, desk_grid):
    """Rows are the bytes csv.writer gives for repr'd values, extremes included,
    and read back bit for bit."""
    rng = np.random.default_rng(3)
    n = 4
    draws = {c: rng.uniform(0.1, 0.9, (n,) + shape) for c, shape in desk_grid.class_shapes().items()}
    draws["migration"][0, 0, 0, 0] = -0.0
    draws["migration"][1, 0, 0, 0] = 5e-324
    draws["counts"][2, 0, 0] = 1e300
    sigma2 = rng.uniform(0.1, 1.0, (n, 5))
    sigma2[3, 0] = np.inf
    sample = PosteriorSample(grid=desk_grid, draws=draws, sigma2=sigma2,
                             chain=np.array([0, 0, 1, 1]), acceptance={},
                             config=SamplerConfig(iterations=n, burn_in=0))
    p = tmp_path / "samples.csv"
    write_samples(p, sample)
    buf = stdio.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(_header(desk_grid))
    for (c, k), row in zip([(0, 0), (0, 1), (1, 0), (1, 1)], sample.flat().tolist()):
        w.writerow([c, k] + [repr(v) for v in row])
    assert p.read_bytes() == buf.getvalue().encode()
    assert read_samples(p, desk_grid).flat().tobytes() == sample.flat().tobytes()


@pytest.mark.parametrize("order", ["written", "shuffled"])
def test_read_samples_gives_views_of_one_draw_matrix(tmp_path, desk_grid, order):
    sample, p, records = _two_chain_samples(tmp_path, desk_grid)
    rows = records[1:]
    if order == "shuffled":
        rows = [rows[i] for i in np.random.default_rng(2).permutation(len(rows))]
    _write_records(p, [records[0]] + rows)
    back = read_samples(p, desk_grid)
    matrix = draw_matrix(back)
    assert matrix.shape == (sample.n_draws, len(parameter_names(desk_grid)))
    assert np.array_equal(back.flat(), matrix)
    assert np.array_equal(matrix, sample.flat())


@pytest.mark.parametrize("order", ["shuffled", "interleaved_chains"])
def test_read_samples_ignores_row_order(tmp_path, desk_grid, order):
    sample, p, records = _two_chain_samples(tmp_path, desk_grid)
    header, rows = records[0], records[1:]
    if order == "shuffled":
        rows = [rows[i] for i in np.random.default_rng(2).permutation(len(rows))]
    else:  # chain 0 draw k, then chain 1 draw k, ...
        rows = sorted(rows, key=lambda r: (int(r[1]), int(r[0])))
    assert rows != records[1:]
    _write_records(p, [header] + rows)
    back = read_samples(p, desk_grid)
    assert np.array_equal(back.flat(), sample.flat())
    assert np.array_equal(back.chain, sample.chain)


@pytest.mark.parametrize("field,bad,message", [
    (3, "1.0e", "bad row"),
    (1, "x", "bad row"),
    (0, "1" + "0" * 30, "bad row"),  # beyond int64
    (0, "-1", "bad row"),
    (2, "tempo[0]", "unknown parameter"),
])
def test_read_samples_reports_line_of_late_bad_row(tmp_path, desk_grid, field, bad, message):
    """A bad value, draw number or chain label (not an integer, beyond int64
    or negative) in the last draw row is reported on its line (8); a foreign
    parameter name is a header error on line 1."""
    _, p, records = _two_chain_samples(tmp_path, desk_grid)
    assert len(records) == 8
    lineno = 1 if message == "unknown parameter" else 8
    records[lineno - 1][field] = bad
    _write_records(p, records)
    with pytest.raises(ParseError, match=rf"samples\.csv:{lineno}: (column 3 is )?{message}"):
        read_samples(p, desk_grid)


def test_read_samples_rejects_duplicate_draw(tmp_path, desk_grid):
    _, p, records = _two_chain_samples(tmp_path, desk_grid)
    again = records[2][:2] + ["0.5"] * (len(records[2]) - 2)  # chain 0 draw 1, new values
    _write_records(p, records + [again])
    with pytest.raises(ParseError, match=r"samples\.csv:9: chain 0 draw 1 repeats line 3"):
        read_samples(p, desk_grid)


def _csv_text(records, eol="\r\n", quoting=csv.QUOTE_MINIMAL):
    buf = stdio.StringIO(newline="")
    csv.writer(buf, lineterminator=eol, quoting=quoting).writerows(records)
    return buf.getvalue()


def _edited(rows, edits):
    """rows with rows[i][j] = value for each (i, j, value) in edits."""
    rows = [list(r) for r in rows]
    for i, j, value in edits:
        rows[i][j] = value
    return rows


# whitespace as str.strip() removes it, control and non-ASCII kinds included
_PADDED = [(0, 0, " 0"), (2, 1, "2\t"), (3, 4, "\x1f0.75\xa0"), (4, 5, " 0.25 ")]

# each case: (file text from the header and the 7 rows of _two_chain_samples,
# None when the file reads, else a fragment of the error)
_ORACLE_CASES = {
    "written": (lambda h, r: _csv_text([h] + r), None),
    "shuffled": (lambda h, r: _csv_text([h] + [r[i] for i in (3, 6, 0, 5, 1, 4, 2)]), None),
    "interleaved_chains": (lambda h, r: _csv_text(
        [h] + sorted(r, key=lambda x: (int(x[1]), int(x[0])))), None),
    "blank_lines": (lambda h, r: _csv_text([h, [], []] + r[:3] + [[]] + r[3:] + [[], []]), None),
    "quoted_cells": (lambda h, r: _csv_text([h] + r, quoting=csv.QUOTE_ALL), None),
    "lf_endings": (lambda h, r: _csv_text([h] + r, eol="\n"), None),
    "cr_endings": (lambda h, r: _csv_text([h] + r, eol="\r"), None),
    "cr_then_crlf": (lambda h, r: _csv_text([h] + r[:3], eol="\r") + _csv_text(r[3:]), None),
    "crlf_then_cr": (lambda h, r: _csv_text([h] + r[:3]) + _csv_text(r[3:], eol="\r"), None),
    "padded_cells": (lambda h, r: _csv_text([h] + _edited(r, _PADDED)), None),
    "padded_then_bad_value": (lambda h, r: _csv_text(
        [h] + _edited(r, _PADDED + [(6, 3, "1.0e")])), ":8: bad row"),
    "extremes": (lambda h, r: _csv_text([h] + _edited(r, [
        (0, 2, "-0.0"), (1, 3, "5e-324"), (2, 4, "1e300"), (3, 5, "inf"),
        (4, 6, "nan"), (5, 7, "-inf")])), None),
    "foreign_parameter": (lambda h, r: _csv_text(
        [[c if c != "srb[1965]" else "tempo[0]" for c in h]] + r), "unknown parameter"),
    "long_format": (lambda h, r: _csv_text([["chain", "draw", "parameter", "value"]] + r),
                    "column 3 is unknown parameter 'parameter'"),
    "empty": (lambda h, r: "", "column 1 is missing"),
    "drop_last": (lambda h, r: _csv_text([h[:-1]] + r), "is missing, expected 'sigma2[srb]'"),
    "add_extra": (lambda h, r: _csv_text([h + ["extra"]] + r), "expected no more columns"),
    "swap": (lambda h, r: _csv_text([h[:2] + [h[3], h[2]] + h[4:]] + r), "column 3 is"),
    "header_only": (lambda h, r: _csv_text([h]), "no sample rows"),
    "incomplete_draw": (lambda h, r: _csv_text([h] + r[:6] + [r[6][:-1]]), ":8: expected"),
    "bad_value": (lambda h, r: _csv_text([h] + _edited(r, [(6, 3, "1.0e")])), ":8: bad row"),
    "bad_draw": (lambda h, r: _csv_text([h] + _edited(r, [(6, 1, "x")])), ":8: bad row"),
    "float_draw": (lambda h, r: _csv_text([h] + _edited(r, [(6, 1, "1e0")])), ":8: bad row"),
    "huge_chain": (lambda h, r: _csv_text([h] + _edited(r, [(6, 0, "1" + "0" * 30)])),
                   ":8: bad row"),
    "negative_chain": (lambda h, r: _csv_text([h] + _edited(r, [(6, 0, "-1")])), ":8: bad row"),
    "digit_separator": (lambda h, r: _csv_text([h] + _edited(r, [(5, 4, "0_5")])),
                        ":7: bad row"),
    "non_ascii_digit": (lambda h, r: _csv_text([h] + _edited(r, [(5, 1, "\u0663")])),
                        ":7: bad row"),
    "whitespace_line": (lambda h, r: _csv_text([h] + r[:4] + [[" "]] + r[4:]),
                        ":6: expected"),
    "repeated_draw": (lambda h, r: _csv_text([h] + r + [r[1][:2] + ["0.5"] * (len(h) - 2)]),
                      ":9: chain 0 draw 1 repeats line 3"),
    "repeated_draw_after_blank": (lambda h, r: _csv_text(
        [h] + r[:3] + [[]] + r[3:] + [[], r[1][:2] + ["0.5"] * (len(h) - 2)]),
        ":11: chain 0 draw 1 repeats line 3"),
}


def _set_blocks(monkeypatch, n):
    """Make read_samples cut a file of n bytes or more, and write_samples a
    table of n values or more, into up to n blocks."""
    monkeypatch.setattr(demrecon_io, "BLOCK_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_read_samples_matches_row_by_row_oracle(tmp_path, desk_grid, monkeypatch, case):
    """The parse, of the whole file or of it cut into 2 or 3 blocks, gives
    the draw matrix bytes and chain labels of a record-by-record read, or
    its error message, line number included, and leaves no process
    running."""
    _, p, records = _two_chain_samples(tmp_path, desk_grid)
    text, expected = _ORACLE_CASES[case]
    p.write_text(text(records[0], records[1:]), encoding="utf-8", newline="")
    try:
        chain, flat = read_samples_oracle(p, _header(desk_grid))
    except ValueError as e:
        assert expected is not None and expected in str(e), str(e)
        for blocks in (1, 2, 3):
            _set_blocks(monkeypatch, blocks)
            with pytest.raises(ParseError) as got:
                read_samples(p, desk_grid)
            assert str(got.value) == str(e), blocks
            assert multiprocessing.active_children() == []
    else:
        assert expected is None
        for blocks in (1, 2, 3):
            _set_blocks(monkeypatch, blocks)
            back = read_samples(p, desk_grid)
            assert back.flat().tobytes() == flat.tobytes(), blocks
            assert back.chain.tobytes() == chain.tobytes(), blocks
            assert multiprocessing.active_children() == []


def _cut_before(head: bytes, tail: bytes) -> tuple:
    """head and tail with "\n" blank lines added after the header or at the
    end, so that the middle byte of head + tail, where a cut into two
    blocks is sought, is the first byte of tail."""
    d = len(tail) - len(head)
    if d > 0:
        i = head.index(b"\n") + 1
        head = head[:i] + b"\n" * d + head[i:]
    else:
        tail += b"\n" * -d
    return head, tail


def _cut_cases(header, rows):
    """(head, tail) of files whose block cut falls at a feature: a blank
    line, a CRLF pair, a quoted cell or a byte that is not UTF-8."""
    def text(recs, **kw):
        return _csv_text([header] + recs, **kw).encode()
    first, second = text(rows[:3]), text(rows[3:])[len(text([])):]
    blank = first + b"\r\n" + second
    quoted = text(rows, quoting=csv.QUOTE_ALL)
    in_cell = quoted.index(b"\r\n", len(quoted) // 2) + 5  # in the second cell of a row
    bad_first = first + b"\xe9" + second[1:]
    bad_last = first[:-3] + b"\xe9\r\n" + second
    return {
        "blank_line_after_cut": (blank[:len(first)], blank[len(first):]),
        "blank_line_split_by_cut": (blank[:len(first) + 1], blank[len(first) + 1:]),
        "crlf_split_by_cut": (first[:-1], first[-1:] + second),
        "quoted_cell_split_by_cut": (quoted[:in_cell], quoted[in_cell:]),
        "non_utf8_byte_after_cut": (bad_first[:len(first)], bad_first[len(first):]),
        "non_utf8_byte_before_cut": (bad_last[:len(first) - 2], bad_last[len(first) - 2:]),
    }


@pytest.mark.parametrize("case", ["blank_line_after_cut", "blank_line_split_by_cut",
                                  "crlf_split_by_cut", "quoted_cell_split_by_cut",
                                  "non_utf8_byte_after_cut", "non_utf8_byte_before_cut"])
def test_read_samples_block_cut_at_a_line_feature(tmp_path, desk_grid, monkeypatch, case):
    """A file cut into two blocks next to a blank line, inside a CRLF pair
    or a quoted cell, or next to a byte that is not UTF-8, reads as one
    block reads it: the same bytes, or the same ParseError."""
    _, p, records = _two_chain_samples(tmp_path, desk_grid)
    head, tail = _cut_before(*_cut_cases(records[0], records[1:])[case])
    p.write_bytes(head + tail)
    _set_blocks(monkeypatch, 2)
    # the cut is the first line start at or after the start of tail
    cut = len(head) if head.endswith(b"\n") else len(head) + tail.index(b"\n") + 1
    assert demrecon_io._block_cuts(p) == [0, cut, len(head + tail)]
    try:
        back = read_samples(p, desk_grid)
    except ParseError as e:
        _set_blocks(monkeypatch, 1)
        with pytest.raises(ParseError) as got:
            read_samples(p, desk_grid)
        assert str(got.value) == str(e)
        assert "not UTF-8 text" in str(e)
    else:
        _set_blocks(monkeypatch, 1)
        one = read_samples(p, desk_grid)
        assert back.flat().tobytes() == one.flat().tobytes()
        assert back.chain.tobytes() == one.chain.tobytes()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("case", ["one cpu", "small file", "no fork method"])
def test_read_samples_in_one_block_starts_no_process(tmp_path, desk_grid, monkeypatch, case):
    """One usable CPU, a file under BLOCK_BYTES or no fork start method
    parse the file in this process; two CPUs and small blocks start a
    worker."""
    def no_pool(*args, **kwargs):
        raise AssertionError("read_samples started a process pool")

    sample, p, _ = _two_chain_samples(tmp_path, desk_grid)
    monkeypatch.setattr(sampler, "ProcessPoolExecutor", no_pool)
    _set_blocks(monkeypatch, 2)
    with pytest.raises(AssertionError, match="started a process pool"):
        read_samples(p, desk_grid)
    if case == "one cpu":
        _set_blocks(monkeypatch, 1)
    elif case == "small file":
        monkeypatch.setattr(demrecon_io, "BLOCK_BYTES", p.stat().st_size + 1)
    else:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn", "forkserver"])
    assert read_samples(p, desk_grid).flat().tobytes() == sample.flat().tobytes()


def _refuse_forks(monkeypatch, allowed):
    """Make os.fork refuse, as a system out of processes does, every fork
    after the first ``allowed``."""
    fork, forks = os.fork, []

    def refused():
        forks.append(None)
        if len(forks) > allowed:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", refused)


@pytest.mark.parametrize("case", ["no mapping", "no fork", "second fork refused"])
def test_read_samples_in_one_block_when_blocks_cannot_start(tmp_path, desk_grid, monkeypatch,
                                                            case):
    """A shared mapping or a worker that the system refuses, the first or
    one after a worker has started, sends the file to the one-call parse,
    which reads it as usual, and leaves no process running."""
    def refused(*args, **kwargs):
        raise OSError(12, "Cannot allocate memory")

    sample, p, _ = _two_chain_samples(tmp_path, desk_grid)
    _set_blocks(monkeypatch, 3 if case == "second fork refused" else 2)
    if case == "no mapping":
        monkeypatch.setattr(demrecon_io.mmap, "mmap", refused)
    else:
        _refuse_forks(monkeypatch, 1 if case == "second fork refused" else 0)
    assert read_samples(p, desk_grid).flat().tobytes() == sample.flat().tobytes()
    assert multiprocessing.active_children() == []


def test_worker_that_dies_in_a_block_parse_exits_3(tmp_path, capsys, monkeypatch, desk_grid):
    """A forked worker that dies while it parses its block ends summarize
    with exit code 3 and a message, and leaves no process running."""
    run = tmp_path / "run"
    run.mkdir()
    _, p, _ = _two_chain_samples(tmp_path, desk_grid)
    p.rename(run / "samples.csv")
    make_manifest(0, {}, desk_grid, None, None, [], 0.0).write(run / "manifest.json")
    parent, load = os.getpid(), demrecon_io._loadtxt

    def dies_in_workers(*args):
        if os.getpid() != parent:
            os._exit(1)
        return load(*args)

    monkeypatch.setattr(demrecon_io, "_loadtxt", dies_in_workers)
    _set_blocks(monkeypatch, 2)
    assert main(["summarize", "--sample-dir", str(run), "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err, err
    assert multiprocessing.active_children() == []


# the chain labels of each row: a block cut into 2 or 3 falls inside a chain,
# and a block that starts mid-chain must carry on that chain's draw count
_WRITE_CASES = {
    "interleaved_chains": [2, 0, 1, 0, 2, 1, 0],
    "cut_inside_a_chain": [0, 0, 0, 0, 1, 1, 1],
    "one_draw": [3],
    "no_draws": [],
}


def _special_sample(grid, chain):
    """A sample with the given chain labels and random draws, with -0.0,
    inf, nan and the extremes of float range among the values."""
    rng = np.random.default_rng(6)
    n = len(chain)
    draws = {c: rng.uniform(0.1, 0.9, (n,) + shape) for c, shape in grid.class_shapes().items()}
    sigma2 = rng.uniform(0.1, 1.0, (n, 5))
    for i, v in enumerate([-0.0, np.inf, np.nan, 5e-324, 1e300, -np.inf, 1.0 / 3.0][:n]):
        draws["migration"][i, 0, 0, 0] = v
        sigma2[n - 1 - i, i % 5] = abs(v)
    return PosteriorSample(grid=grid, draws=draws, sigma2=sigma2, chain=np.array(chain, int),
                           acceptance={}, config=SamplerConfig(iterations=max(n, 1), burn_in=0))


def _table_bytes(sample):
    """The bytes of a sample table, row by row through csv.writer: each
    row's draw number counts the rows of its chain before it."""
    buf = stdio.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(_header(sample.grid))
    seen = {}
    for c, row in zip(sample.chain.tolist(), sample.flat().tolist()):
        seen[c] = seen.get(c, -1) + 1
        w.writerow([c, seen[c]] + [repr(v) for v in row])
    return buf.getvalue().encode()


def _spy_temporary_files(monkeypatch):
    """Record the directory of every temporary file made from here on."""
    made, real = [], demrecon_io.tempfile.TemporaryFile

    def spy(*args, **kwargs):
        made.append(kwargs.get("dir"))
        return real(*args, **kwargs)

    monkeypatch.setattr(demrecon_io.tempfile, "TemporaryFile", spy)
    return made


@pytest.mark.parametrize("case", list(_WRITE_CASES))
def test_write_samples_in_blocks_gives_the_bytes_of_one_block(tmp_path, desk_grid, monkeypatch,
                                                              case):
    """A table written in 1, 2 or 3 blocks has the bytes of a row-by-row
    write, each block but the first from a temporary file in the output
    directory that is gone afterwards, and no process is left running."""
    sample = _special_sample(desk_grid, _WRITE_CASES[case])
    p = tmp_path / "samples.csv"
    made = _spy_temporary_files(monkeypatch)
    for blocks in (1, 2, 3):
        made.clear()
        _set_blocks(monkeypatch, blocks)
        write_samples(p, sample)
        assert p.read_bytes() == _table_bytes(sample), blocks
        assert made == [str(tmp_path)] * (blocks - 1 if sample.n_draws else 0), blocks
        assert os.listdir(tmp_path) == ["samples.csv"]
        assert multiprocessing.active_children() == []


def test_write_samples_in_blocks_reads_back_in_blocks(tmp_path, desk_grid, monkeypatch):
    """A table written in 3 blocks and read in 3 blocks gives the draws
    bit for bit, in (chain, draw) order."""
    chain = np.random.default_rng(9).integers(0, 3, 40)
    sample = _special_sample(desk_grid, chain.tolist())
    p = tmp_path / "samples.csv"
    _set_blocks(monkeypatch, 3)
    write_samples(p, sample)
    assert len(demrecon_io._block_cuts(p)) == 4
    back = read_samples(p, desk_grid)
    order = np.argsort(chain, kind="stable")
    assert back.flat().tobytes() == sample.flat()[order].tobytes()
    assert back.chain.tolist() == chain[order].tolist()


@pytest.mark.parametrize("case", ["no fork", "second fork refused", "worker dies"])
def test_write_samples_in_one_block_when_a_block_fails(tmp_path, desk_grid, monkeypatch, case):
    """A fork the system refuses, the first or one after a worker has
    started, or a worker that dies in its block, sends the whole table to
    one block in this process: the file holds every row, not a subset,
    and no process or temporary file is left."""
    sample = _special_sample(desk_grid, _WRITE_CASES["interleaved_chains"])
    p = tmp_path / "samples.csv"
    _set_blocks(monkeypatch, 3 if case == "second fork refused" else 2)
    parent, write, rows = os.getpid(), demrecon_io._write_rows, []
    if case != "worker dies":
        _refuse_forks(monkeypatch, 1 if case == "second fork refused" else 0)
    else:
        def dies_in_workers(fh, keys, flat):
            if os.getpid() != parent:
                os._exit(1)
            rows.append(len(keys))
            return write(fh, keys, flat)

        monkeypatch.setattr(demrecon_io, "_write_rows", dies_in_workers)
    write_samples(p, sample)
    assert p.read_bytes() == _table_bytes(sample)
    if case == "worker dies":
        assert rows == [3, 7]  # the first block, then the whole table
    assert os.listdir(tmp_path) == ["samples.csv"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("case", ["one cpu", "small table", "other thread"])
def test_write_samples_in_one_block_starts_no_process(tmp_path, desk_grid, monkeypatch, case):
    """One usable CPU, a table whose text bound is under BLOCK_BYTES, or
    another thread in this process write the table here, with no process
    and no temporary file; two CPUs and small blocks would make both."""
    def refuse(what):
        def refused(*args, **kwargs):
            raise AssertionError(f"write_samples {what}")
        return refused

    sample = _special_sample(desk_grid, _WRITE_CASES["cut_inside_a_chain"])
    p = tmp_path / "samples.csv"
    monkeypatch.setattr(sampler, "ProcessPoolExecutor", refuse("started a process pool"))
    _set_blocks(monkeypatch, 2)
    write_rows = demrecon_io._write_rows
    monkeypatch.setattr(demrecon_io, "_write_rows", refuse("wrote a block"))
    with pytest.raises(AssertionError, match="started a process pool"):
        write_samples(p, sample)
    monkeypatch.setattr(demrecon_io, "_write_rows", write_rows)
    monkeypatch.setattr(demrecon_io.tempfile, "TemporaryFile", refuse("made a temporary file"))
    with pytest.raises(AssertionError, match="made a temporary file"):
        write_samples(p, sample)
    if case == "one cpu":
        _set_blocks(monkeypatch, 1)
    elif case == "small table":
        est = sample.n_draws * len(_header(desk_grid)) * 25
        monkeypatch.setattr(demrecon_io, "BLOCK_BYTES", est // 2 + 1)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(30.0,))
    if case == "other thread":
        other.start()
    try:
        write_samples(p, sample)
    finally:
        stop.set()
        if other.is_alive():
            other.join(timeout=30.0)
    assert p.read_bytes() == _table_bytes(sample)


@pytest.mark.parametrize("blocks", [1, 2])
def test_write_samples_to_a_directory_raises(tmp_path, desk_grid, monkeypatch, blocks):
    """A path that is a directory raises IsADirectoryError, at one block as
    at two, whose one-block retry fails the same way, and leaves no
    temporary file and no process."""
    sample = _special_sample(desk_grid, _WRITE_CASES["interleaved_chains"])
    p = tmp_path / "samples.csv"
    p.mkdir()
    _set_blocks(monkeypatch, blocks)
    with pytest.raises(IsADirectoryError):
        write_samples(p, sample)
    assert os.listdir(tmp_path) == ["samples.csv"]
    assert os.listdir(p) == []
    assert multiprocessing.active_children() == []


def test_read_samples_header_only_warns_nothing(tmp_path, desk_grid):
    p = tmp_path / "samples.csv"
    _write_records(p, [_header(desk_grid)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParseError, match=r"samples\.csv: no sample rows$"):
            read_samples(p, desk_grid)


def test_read_samples_non_utf8_byte_in_last_row_of_large_file(tmp_path, capsys, desk_grid):
    """A byte that does not decode, past the first megabyte the parse reads,
    is a ParseError naming the file, and exit code 2 through the CLI."""
    rng = np.random.default_rng(4)
    n = 2000
    draws = {c: rng.uniform(0.1, 0.9, (n,) + shape) for c, shape in desk_grid.class_shapes().items()}
    sample = PosteriorSample(grid=desk_grid, draws=draws, sigma2=rng.uniform(0.1, 1.0, (n, 5)),
                             chain=np.repeat([0, 1], n // 2), acceptance={},
                             config=SamplerConfig(iterations=n, burn_in=0))
    run = tmp_path / "run"
    run.mkdir()
    p = run / "samples.csv"
    write_samples(p, sample)
    make_manifest(0, {}, desk_grid, None, None, [], 0.0).write(run / "manifest.json")
    raw = p.read_bytes()
    assert len(raw) > 2**20
    last = raw.rindex(b"\n", 0, len(raw) - 1) + 1
    p.write_bytes(raw[:last + 4] + b"\xe9" + raw[last + 5:])  # latin-1 e-acute
    with pytest.raises(ParseError, match=rf"^{re.escape(str(p))}: not UTF-8 text"):
        read_samples(p, desk_grid)
    assert main(["summarize", "--sample-dir", str(run), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: not UTF-8 text") and "Traceback" not in err, err


def test_write_trajectory_layout(tmp_path, desk_grid):
    theta = make_theta(desk_grid, seed=2)
    traj = project_full(theta.baseline, theta, desk_grid)
    p = tmp_path / "projection.csv"
    write_trajectory(p, traj)
    lines = p.read_text().splitlines()
    assert lines[0] == "year,sex,age,count"
    assert len(lines) == 1 + traj.counts.size
    first = lines[1].split(",")
    assert first[:3] == ["1960", "female", "0"]
    assert float(first[3]) == traj.counts[0, 0, 0]


def test_write_rows_column_order(tmp_path):
    p = tmp_path / "rows.csv"
    write_rows(p, [{"a": 1, "b": 2}, {"b": 4}], ["a", "b"])
    assert p.read_text().splitlines() == ["a,b", "1,2", ",4"]


# ---------------------------------------------------------------------------
# manifest


def test_sha256_matches_known_value(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"abc")
    assert sha256_file(p) == \
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_manifest_round_trip(tmp_path, desk_grid):
    theta = make_theta(desk_grid, seed=1)
    elic = flat_elicitation()
    hyper = beta_from_elicitation(elic, theta)
    f = tmp_path / "input.csv"
    f.write_text("age,1960\n0,1.0\n")
    m = make_manifest(seed=4, settings={"iterations": 10, "burn_in": 2},
                      grid=desk_grid, elicitation=elic, hyper=hyper,
                      input_paths=[f], wall_clock_seconds=1.25)
    path = tmp_path / "manifest.json"
    m.write(path)
    back = RunManifest.read(path)
    assert back == m
    assert back.to_grid() == desk_grid
    assert back.input_digests[str(f)] == sha256_file(f)
    assert back.settings["iterations"] == 10
    assert back.hyperparams["beta"]["srb"] == hyper.beta["srb"]


def test_manifest_grid_value_must_be_an_integer(tmp_path, desk_grid):
    path = tmp_path / "manifest.json"
    make_manifest(0, {}, desk_grid, None, None, [], 0.0).write(path)
    path.write_text(path.read_text().replace('"start_year": 1960', '"start_year": 1960.7'))
    with pytest.raises(ParseError, match=r"grid key 'start_year' must be an integer"):
        RunManifest.read(path)


def test_manifest_grid_step_of_0_2_0_is_dropped(tmp_path, desk_grid):
    """Manifests written by 0.2.0 hold the grid's step, always 5 there; it is
    dropped on reading, so their sample directories stay readable. Any other
    step is an unknown grid key."""
    path = tmp_path / "manifest.json"
    make_manifest(0, {}, desk_grid, None, None, [], 0.0).write(path)
    text = path.read_text()
    for step in (5, 10):
        path.write_text(text.replace('"start_year"', f'"step": {step}, "start_year"'))
        if step == 5:
            assert RunManifest.read(path).to_grid() == desk_grid
        else:
            with pytest.raises(ParseError, match=r"unknown grid keys \['step'\]"):
                RunManifest.read(path)
