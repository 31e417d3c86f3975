"""CSV and YAML round trips, parse diagnostics, and the run manifest."""

import csv
from io import StringIO

import numpy as np
import pytest

from demrecon import (CensusData, ParseError, PosteriorSample, SamplerConfig,
                      beta_from_elicitation, load_census, load_elicitation,
                      load_grid, load_sampler_settings, load_theta,
                      make_manifest, project_full, read_samples, run_chain,
                      sha256_file, validate, write_census, write_samples,
                      write_theta, write_trajectory)
from demrecon.io import RunManifest, write_rows
from conftest import make_theta, flat_elicitation


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


def test_read_samples_rejects_foreign_parameter(tmp_path, desk_grid):
    p = tmp_path / "samples.csv"
    p.write_text("chain,draw,parameter,value\n0,0,tempo[0],1.0\n")
    with pytest.raises(ParseError, match="unknown parameter"):
        read_samples(p, desk_grid)


def test_read_samples_rejects_incomplete_draw(tmp_path, desk_grid):
    p = tmp_path / "samples.csv"
    p.write_text("chain,draw,parameter,value\n0,0,srb[1960],1.05\n")
    with pytest.raises(ParseError, match="missing"):
        read_samples(p, desk_grid)


def _two_chain_samples(tmp_path, grid):
    """A random 2-chain sample written with write_samples, plus its lines."""
    rng = np.random.default_rng(8)
    n, K, P, F = 7, grid.n_ages, grid.n_periods, grid.n_fertile
    shapes = {"counts": (K, 2), "fertility": (F, P), "survival": (K + 1, P, 2),
              "migration": (K, P, 2), "srb": (P,)}
    draws = {c: rng.uniform(0.1, 0.9, (n,) + shape) for c, shape in shapes.items()}
    sample = PosteriorSample(grid=grid, draws=draws, sigma2=rng.uniform(0.1, 1.0, (n, 5)),
                             chain=np.array([0, 0, 0, 0, 1, 1, 1]), acceptance={},
                             config=SamplerConfig(iterations=n, burn_in=0))
    p = tmp_path / "samples.csv"
    write_samples(p, sample)
    return sample, p, p.read_text().splitlines()


@pytest.mark.parametrize("order", ["shuffled", "interleaved_chains"])
def test_read_samples_ignores_row_order(tmp_path, desk_grid, order):
    sample, p, lines = _two_chain_samples(tmp_path, desk_grid)
    header, rows = lines[0], lines[1:]
    if order == "shuffled":
        rows = [rows[i] for i in np.random.default_rng(2).permutation(len(rows))]
    else:  # chain 0 draw k, then chain 1 draw k, ...
        rows = sorted(rows, key=lambda r: (int(r.split(",")[1]), int(r.split(",")[0])))
    p.write_text("\n".join([header] + rows) + "\n")
    back = read_samples(p, desk_grid)
    assert np.array_equal(back.flat(), sample.flat())
    assert np.array_equal(back.chain, sample.chain)


@pytest.mark.parametrize("field,bad,message", [
    (3, "1.0e", "bad row"),
    (1, "x", "bad row"),
    (2, "tempo[0]", "unknown parameter"),
])
def test_read_samples_reports_line_of_late_bad_row(tmp_path, desk_grid, field, bad, message):
    _, p, lines = _two_chain_samples(tmp_path, desk_grid)
    lineno = len(lines) - 3  # inside the last draw's block
    rec = next(csv.reader([lines[lineno - 1]]))
    rec[field] = bad
    buf = StringIO()
    csv.writer(buf, lineterminator="").writerow(rec)
    lines[lineno - 1] = buf.getvalue()
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=rf"samples\.csv:{lineno}: {message}"):
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
