"""CSV and YAML round trips, parse diagnostics, and the run manifest."""

import csv
import io as stdio
from pathlib import Path

import numpy as np
import pytest

from demrecon import (CensusData, ParseError, PosteriorSample, SamplerConfig,
                      beta_from_elicitation, load_census, load_elicitation,
                      load_grid, load_sampler_settings, load_theta,
                      make_manifest, parameter_names, project_full, read_samples,
                      run_chain, sha256_file, validate, write_census, write_samples,
                      write_theta, write_trajectory)
from demrecon.io import RunManifest, write_rows
from conftest import make_theta, flat_elicitation

DEMO = Path(__file__).resolve().parent.parent / "data" / "demo"


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
    assert str(validate(desk_grid, back)) == str(validate(desk_grid, theta))
    assert validate(desk_grid, back).ok


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


def test_load_grid_top_level_keys(tmp_path):
    p = tmp_path / "grid.yaml"
    p.write_text("start_year: 1960\nend_year: 1975\nopen_age: 15\n"
                 "fert_min_age: 10\nfert_max_age: 15\n"
                 "census_years: [1960, 1975]\n")
    assert load_grid(p).n_periods == 3


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


def test_sampler_section_rejects_unknown_keys(tmp_path):
    """A misspelled key of a sampler section must not silently run the
    defaults; top-level keys share the file with the grid's and are filtered."""
    p = tmp_path / "settings.yaml"
    p.write_text("sampler:\n  iteration: 10\n  burn_in: 2\n")
    with pytest.raises(ParseError, match=r"unknown sampler keys \['iteration'\]"):
        load_sampler_settings(p)
    p.write_text("start_year: 1960\nend_year: 1975\niterations: 10\n")
    assert load_sampler_settings(p) == {"iterations": 10}


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
    (2, "tempo[0]", "unknown parameter"),
])
def test_read_samples_reports_line_of_late_bad_row(tmp_path, desk_grid, field, bad, message):
    """A bad value or draw number in the last draw row is reported on its
    line (8); a foreign parameter name is a header error on line 1."""
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
