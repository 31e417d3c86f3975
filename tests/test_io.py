"""CSV and YAML round trips, parse diagnostics, and the run manifest."""

import csv
import io as stdio
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml

from demrecon import io as demrecon_io
from demrecon import (CensusData, ParseError, PosteriorSample, SamplerConfig,
                      beta_from_elicitation, load_census, load_elicitation,
                      load_grid, load_sampler_settings, load_theta,
                      make_manifest, parameter_names, project_full, read_samples,
                      run_chain, sha256_file, validate, write_census, write_samples,
                      write_theta, write_trajectory)
from demrecon.cli import main
from demrecon.io import RunManifest, write_rows
from conftest import draw_matrix, make_theta, flat_elicitation

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


def test_manifest_grid_value_must_be_an_integer(tmp_path, desk_grid):
    path = tmp_path / "manifest.json"
    make_manifest(0, {}, desk_grid, None, None, [], 0.0).write(path)
    path.write_text(path.read_text().replace('"start_year": 1960', '"start_year": 1960.7'))
    with pytest.raises(ParseError, match=r"grid key 'start_year' must be an integer"):
        RunManifest.read(path)
