"""Command-line interface: golden projection run, pipeline round trips,
exit codes and reproducibility."""

import csv
import dataclasses
import hashlib
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demrecon import (FEMALE, PARAM_CLASSES, CensusData, ModelGrid, beta_from_elicitation,
                      gelman_rubin, load_census, load_elicitation, load_grid,
                      make_manifest, parameter_names, project_full, write_census,
                      write_samples, write_theta)
from demrecon import cli, sampler, simulate
from demrecon.cli import main
from conftest import make_theta, sample_from_thetas
from oracles import prior_draws_oracle

DEMO = Path(__file__).resolve().parent.parent / "data" / "demo"


def _read_projection(path):
    keys, vals = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["year", "sex", "age", "count"]
        for year, sex, age, count in reader:
            keys.append((int(year), sex, int(age)))
            vals.append(float(count))
    return keys, np.array(vals)


def _desk_inputs(tmp_path, mig=None, census_years="[1960, 1965, 1975]"):
    grid_yaml = tmp_path / "grid.yaml"
    grid_yaml.write_text(
        "grid:\n  start_year: 1960\n  end_year: 1975\n  open_age: 15\n"
        "  fert_min_age: 10\n  fert_max_age: 15\n"
        f"  census_years: {census_years}\n")
    elic_yaml = tmp_path / "elicitation.yaml"
    elic_yaml.write_text(
        "elicitation:\n  eta:\n    counts: 0.1\n    fertility: 0.1\n"
        "    survival: 0.1\n    migration: 0.2\n    srb: 0.1\n")
    grid = load_grid(grid_yaml)
    theta = make_theta(grid, seed=1)
    if mig is not None:
        theta = theta.replace(migration=np.full_like(theta.migration, mig))
    write_theta(tmp_path / "initial", theta, grid)
    return grid_yaml, elic_yaml, grid, theta


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# deterministic projection against the frozen expectation


def test_project_demo_matches_expected_file(tmp_path):
    code = main(["project", "--grid", str(DEMO / "grid.yaml"),
                 "--initial-estimates-dir", str(DEMO / "initial"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    got_keys, got = _read_projection(tmp_path / "projection.csv")
    want_keys, want = _read_projection(DEMO / "expected_projection.csv")
    assert got_keys == want_keys
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_project_missing_inputs_exit_2(tmp_path):
    code = main(["project", "--grid", str(DEMO / "grid.yaml"),
                 "--initial-estimates-dir", str(tmp_path / "nothing"),
                 "--out-dir", str(tmp_path)])
    assert code == 2


def test_console_script_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "demrecon.cli", "project",
         "--grid", str(DEMO / "grid.yaml"),
         "--initial-estimates-dir", str(DEMO / "initial"),
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "projection.csv" in proc.stdout


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats costs about a second at import and is not needed."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, demrecon.cli; assert 'scipy.stats' not in sys.modules, 'loaded'"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# simulate -> sample -> summarize -> diagnose


def test_full_pipeline(tmp_path):
    grid_yaml, elic_yaml, grid, theta = _desk_inputs(tmp_path)
    sim = tmp_path / "sim"
    assert main(["simulate", "--grid", str(grid_yaml),
                 "--initial-estimates-dir", str(tmp_path / "initial"),
                 "--elicitation", str(elic_yaml), "--seed", "7",
                 "--out-dir", str(sim)]) == 0
    for sub in ("initial", "census", "truth/theta"):
        assert (sim / sub).is_dir()
    assert (sim / "truth" / "variances.csv").is_file()
    assert (sim / "manifest.json").is_file()
    census = load_census(sim / "census", grid)
    assert census.years == grid.likelihood_years
    assert np.all(census.counts > 0)

    run = tmp_path / "run"
    assert main(["sample", "--grid", str(grid_yaml),
                 "--initial-estimates-dir", str(sim / "initial"),
                 "--census", str(sim / "census"),
                 "--elicitation", str(elic_yaml),
                 "--iterations", "60", "--burn-in", "20", "--thin", "2",
                 "--chains", "2", "--seed", "3",
                 "--out-dir", str(run)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert manifest["settings"]["iterations"] == 60
    assert manifest["hyperparams"]["beta"]["srb"] > 0
    assert all(len(d) == 64 for d in manifest["input_digests"].values())

    with open(run / "samples.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["chain", "draw"] + parameter_names(grid)
    assert len(rows[1:]) == 40  # 20 retained draws per chain, 2 chains
    assert {len(r) for r in rows} == {78}  # chain, draw and 76 parameters

    summ = tmp_path / "summ"
    assert main(["summarize", "--sample-dir", str(run),
                 "--indicator", "srb", "--indicator", "tfr",
                 "--threshold", "srb>1.05", "--trend", "tfr",
                 "--joint", "both_up=srb:1960:1970:>;tfr:1960:1970:>",
                 "--out-dir", str(summ)]) == 0
    with open(summ / "summary.csv") as fh:
        srows = list(csv.DictReader(fh))
    assert {"indicator", "year", "statistic", "value"} == set(srows[0])
    assert any(r["statistic"] == "both_up" for r in srows)
    assert any(r["statistic"] == "p(srb>1.05)" for r in srows)

    diag = tmp_path / "diag"
    assert main(["diagnose", "--sample-dir", str(run),
                 "--parameter", "srb[1960]", "--parameter", "sigma2[srb]",
                 "--out-dir", str(diag)]) == 0
    with open(diag / "diagnostics.csv") as fh:
        drows = list(csv.DictReader(fh))
    assert [r["parameter"] for r in drows] == ["srb[1960]", "sigma2[srb]"]
    # 40 retained draws cannot meet the run-length minimum; the note says so
    assert all(r["note"] for r in drows)
    assert all(r["gelman_rubin"] for r in drows)


def test_sample_reruns_are_byte_identical(tmp_path):
    grid_yaml, elic_yaml, grid, theta = _desk_inputs(tmp_path)
    sim = tmp_path / "sim"
    main(["simulate", "--grid", str(grid_yaml),
          "--initial-estimates-dir", str(tmp_path / "initial"),
          "--elicitation", str(elic_yaml), "--seed", "7", "--out-dir", str(sim)])
    args = ["sample", "--grid", str(grid_yaml),
            "--initial-estimates-dir", str(sim / "initial"),
            "--census", str(sim / "census"), "--elicitation", str(elic_yaml),
            "--iterations", "40", "--burn-in", "10", "--chains", "1",
            "--seed", "5"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    assert _digest(tmp_path / "a" / "samples.csv") == \
        _digest(tmp_path / "b" / "samples.csv")


def test_simulate_reruns_are_byte_identical(tmp_path):
    grid_yaml, elic_yaml, _, _ = _desk_inputs(tmp_path)
    for name in ("s1", "s2"):
        main(["simulate", "--grid", str(grid_yaml),
              "--initial-estimates-dir", str(tmp_path / "initial"),
              "--elicitation", str(elic_yaml), "--seed", "11",
              "--out-dir", str(tmp_path / name)])
    for f in ("census/census_female.csv", "census/census_male.csv",
              "truth/theta/srb.csv", "truth/variances.csv"):
        assert _digest(tmp_path / "s1" / f) == _digest(tmp_path / "s2" / f)


def test_simulate_truth_variances_csv(tmp_path):
    """truth/variances.csv holds one row per class, in PARAM_CLASSES order,
    whose value reads back exactly as the variance that simulate drew: the
    first kept prior draw from the seed's stream."""
    grid_yaml, elic_yaml, grid, theta = _desk_inputs(tmp_path)
    assert main(_command(tmp_path, grid_yaml, elic_yaml, "simulate") + ["--seed", "11"]) == 0
    hyper = beta_from_elicitation(load_elicitation(elic_yaml), theta)
    (want,), _, _ = prior_draws_oracle(theta, hyper, grid, np.random.default_rng(11), 1)
    with open(tmp_path / "out" / "truth" / "variances.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["class", "value"]
    assert [r[0] for r in rows[1:]] == list(PARAM_CLASSES)
    for (_, value), v in zip(rows[1:], want):
        assert float(value) == v


def test_flags_override_file_settings(tmp_path):
    grid_yaml, elic_yaml, grid, theta = _desk_inputs(tmp_path)
    grid_yaml.write_text(grid_yaml.read_text() +
                         "\nsampler:\n  iterations: 30\n  burn_in: 10\n"
                         "  chains: 1\n  seed: 1\n")
    sim = tmp_path / "sim"
    main(["simulate", "--grid", str(grid_yaml),
          "--initial-estimates-dir", str(tmp_path / "initial"),
          "--elicitation", str(elic_yaml), "--seed", "7", "--out-dir", str(sim)])
    run = tmp_path / "run"
    assert main(["sample", "--grid", str(grid_yaml),
                 "--initial-estimates-dir", str(sim / "initial"),
                 "--census", str(sim / "census"), "--elicitation", str(elic_yaml),
                 "--iterations", "40", "--burn-in", "20",
                 "--out-dir", str(run)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    # flags win; unset values fall back to the file
    assert manifest["settings"]["iterations"] == 40
    assert manifest["settings"]["burn_in"] == 20
    assert manifest["settings"]["chains"] == 1
    assert manifest["seed"] == 1


def _simulate_desk(tmp_path):
    """Desk inputs and a simulated census; returns the sample argv without
    the sampler flags and --out-dir, the grid file and the elicitation file."""
    grid_yaml, elic_yaml, grid, theta = _desk_inputs(tmp_path)
    sim = tmp_path / "sim"
    assert main(["simulate", "--grid", str(grid_yaml),
                 "--initial-estimates-dir", str(tmp_path / "initial"),
                 "--elicitation", str(elic_yaml), "--seed", "7", "--out-dir", str(sim)]) == 0
    argv = ["sample", "--grid", str(grid_yaml), "--initial-estimates-dir", str(sim / "initial"),
            "--census", str(sim / "census"), "--elicitation", str(elic_yaml)]
    return argv, grid_yaml, elic_yaml


def test_sampler_section_read_from_the_elicitation_file(tmp_path, capsys):
    argv, grid_yaml, elic_yaml = _simulate_desk(tmp_path)
    elic_yaml.write_text(elic_yaml.read_text() + "sampler:\n  thin: 2\n")
    run = tmp_path / "run"
    assert main(argv + ["--iterations", "6", "--burn-in", "2", "--chains", "1",
                        "--out-dir", str(run)]) == 0
    assert "(2 draws, 1 chain(s))" in capsys.readouterr().out
    assert json.loads((run / "manifest.json").read_text())["settings"]["thin"] == 2


def test_section_held_by_both_config_files_exit_2(tmp_path, capsys):
    argv, grid_yaml, elic_yaml = _simulate_desk(tmp_path)
    for path, thin in ((grid_yaml, 1), (elic_yaml, 2)):
        path.write_text(path.read_text() + f"sampler:\n  thin: {thin}\n")
    capsys.readouterr()
    run = tmp_path / "run"
    assert main(argv + ["--iterations", "6", "--burn-in", "2", "--out-dir", str(run)]) == 2
    err = capsys.readouterr().err
    assert f"{grid_yaml} and {elic_yaml} both hold a sampler: section" in err
    assert not run.exists()


# ---------------------------------------------------------------------------
# failure modes


def test_negative_projection_sample_exit_3(tmp_path):
    grid_yaml, elic_yaml, grid, theta = _desk_inputs(tmp_path, mig=-3.0)
    years = grid.likelihood_years
    census = CensusData(years=years,
                        counts=np.full((len(years), grid.n_ages, 2), 100.0))
    write_census(tmp_path / "census", census, grid)
    code = main(["sample", "--grid", str(grid_yaml),
                 "--initial-estimates-dir", str(tmp_path / "initial"),
                 "--census", str(tmp_path / "census"),
                 "--elicitation", str(elic_yaml),
                 "--iterations", "20", "--burn-in", "5",
                 "--out-dir", str(tmp_path / "run")])
    assert code == 3


def test_grid_census_year_without_counts_exit_2(tmp_path, capsys):
    """A census year the grid declares must be in the census files: a fit
    without it would silently drop that census from the likelihood."""
    grid_yaml, elic_yaml, grid, _ = _desk_inputs(tmp_path)
    sim = tmp_path / "sim"
    assert main(["simulate", "--grid", str(grid_yaml),
                 "--initial-estimates-dir", str(tmp_path / "initial"),
                 "--elicitation", str(elic_yaml), "--seed", "7", "--out-dir", str(sim)]) == 0
    census = load_census(sim / "census", grid)
    assert census.years == (1965, 1975)
    write_census(sim / "census", CensusData(years=(1975,), counts=census.counts[1:]), grid)
    assert main(["sample", "--grid", str(grid_yaml),
                 "--initial-estimates-dir", str(sim / "initial"),
                 "--census", str(sim / "census"), "--elicitation", str(elic_yaml),
                 "--iterations", "4", "--burn-in", "2", "--out-dir", str(tmp_path / "run")]) == 2
    assert "census: grid census year 1965 has no census counts" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_simulate_without_census_after_baseline_exit_2(tmp_path, capsys):
    """simulate draws census counts only in census years after the baseline
    year: a grid with no census years leaves it nothing to draw."""
    grid_yaml, elic_yaml, _, _ = _desk_inputs(tmp_path, census_years="[]")
    assert main(["simulate", "--grid", str(grid_yaml),
                 "--initial-estimates-dir", str(tmp_path / "initial"),
                 "--elicitation", str(elic_yaml), "--out-dir", str(tmp_path / "sim")]) == 2
    assert "simulate needs a census year after the baseline year" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_repeated_census_year_exit_2(tmp_path, capsys):
    """A census year given twice would have one of its columns ignored."""
    argv, grid_yaml, _ = _simulate_desk(tmp_path)
    grid = load_grid(grid_yaml)
    census = load_census(tmp_path / "sim" / "census", grid)
    write_census(tmp_path / "sim" / "census", CensusData(
        years=census.years + (1975,), counts=np.concatenate([census.counts,
                                                              3.0 * census.counts[-1:]])), grid)
    run = tmp_path / "run"
    assert main(argv + ["--iterations", "4", "--burn-in", "2", "--out-dir", str(run)]) == 2
    assert "census: year 1975 appears 2 times" in capsys.readouterr().err
    assert not (run / "samples.csv").exists()


def test_unallocatable_draw_matrix_exit_3(tmp_path, capsys):
    """numpy refuses a retained-draw matrix of exbibytes at once, before
    any sweep, and the command reports it without a traceback."""
    sim = tmp_path / "sim"
    demo = ["--grid", str(DEMO / "grid.yaml"), "--initial-estimates-dir", str(DEMO / "initial"),
            "--elicitation", str(DEMO / "elicitation.yaml")]
    assert main(["simulate", *demo, "--seed", "1", "--out-dir", str(sim)]) == 0
    capsys.readouterr()
    assert main(["sample", *demo, "--census", str(sim / "census"),
                 "--iterations", "1000000000000000", "--burn-in", "0", "--chains", "1",
                 "--out-dir", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_unrepresentable_draw_matrix_exit_3(tmp_path, capsys, monkeypatch):
    """A draw matrix past numpy's largest array size is refused in run_chain
    before any chain runs or any worker is forked: exit 3 and one line."""
    grid_yaml, elic_yaml, grid, _ = _desk_inputs(tmp_path)
    _write_census(tmp_path, grid)
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)

    def no_fork(fn, items):
        raise AssertionError("the draw matrix was not refused before the chains ran")

    monkeypatch.setattr(sampler, "_fork_map", no_fork)
    for iterations in (10 ** 17, 10 ** 20):
        for chains in (1, 2):
            argv = _command(tmp_path, grid_yaml, elic_yaml, "sample") + [
                "--iterations", str(iterations), "--burn-in", "0", "--chains", str(chains)]
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1, err
            assert not (tmp_path / "out" / "samples.csv").exists()


def test_zero_initial_count_exit_2(tmp_path, capsys):
    """The counts prior is centred on the log of the initial baseline, so
    sample and simulate refuse a zero count before any draw, naming its
    cell; project, which takes no log, accepts it."""
    grid_yaml, elic_yaml, grid, theta = _desk_inputs(tmp_path)
    _write_census(tmp_path, grid)
    baseline = theta.baseline.copy()
    baseline[-1, 1] = 0.0
    write_theta(tmp_path / "initial", theta.replace(baseline=baseline), grid)
    for command, code in (("project", 0), ("sample", 2), ("simulate", 2)):
        assert main(_command(tmp_path, grid_yaml, elic_yaml, command)) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: counts: ") and err.count("\n") == 1, err
            assert err.endswith("baseline[15,male] = 0\n")
        else:
            assert err == ""
    assert not (tmp_path / "out" / "samples.csv").exists()
    assert not (tmp_path / "out" / "truth").exists()


def test_zero_eta_exit_2(tmp_path):
    grid_yaml, elic_yaml, _, _ = _desk_inputs(tmp_path)
    elic_yaml.write_text(
        "elicitation:\n  eta:\n    counts: 0.0\n    fertility: 0.1\n"
        "    survival: 0.1\n    migration: 0.2\n    srb: 0.1\n")
    code = main(["simulate", "--grid", str(grid_yaml),
                 "--initial-estimates-dir", str(tmp_path / "initial"),
                 "--elicitation", str(elic_yaml), "--out-dir",
                 str(tmp_path / "sim")])
    assert code == 2


def test_simulate_variances_past_float_range_exit_3(tmp_path, capsys, monkeypatch):
    """With alpha 0.001 for every class, most variance draws underflow or
    overflow and the rest centre no positive population: simulate gives up
    with one error line, no traceback, and nothing written."""
    monkeypatch.setattr(simulate, "MAX_TRIES", 1000)  # 100000 tries take ~18 s
    elic = tmp_path / "elicitation.yaml"
    elic.write_text((DEMO / "elicitation.yaml").read_text()
                    + "  alpha: {counts: 0.001, fertility: 0.001, survival: 0.001,"
                      " migration: 0.001, srb: 0.001}\n")
    code = main(["simulate", "--grid", str(DEMO / "grid.yaml"),
                 "--initial-estimates-dir", str(DEMO / "initial"),
                 "--elicitation", str(elic), "--seed", "1", "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: no positive prior draw in 1000 consecutive tries"]
    assert not (tmp_path / "out").exists()


def test_invalid_initial_estimates_exit_2(tmp_path):
    grid_yaml, elic_yaml, grid, theta = _desk_inputs(tmp_path)
    bad = theta.replace(survival=np.full_like(theta.survival, 1.5))
    write_theta(tmp_path / "bad", bad, grid)
    code = main(["project", "--grid", str(grid_yaml),
                 "--initial-estimates-dir", str(tmp_path / "bad"),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2


def _command(tmp_path, grid_yaml, elic_yaml, command):
    """argv of project, sample or simulate on the inputs of ``_desk_inputs``."""
    argv = [command, "--grid", str(grid_yaml),
            "--initial-estimates-dir", str(tmp_path / "initial"),
            "--out-dir", str(tmp_path / "out")]
    if command != "project":
        argv += ["--elicitation", str(elic_yaml)]
    if command == "sample":
        argv += ["--census", str(tmp_path / "census"), "--iterations", "4", "--burn-in", "2"]
    return argv


@pytest.mark.parametrize("command", ["project", "sample", "simulate"])
def test_non_finite_input_exit_2(tmp_path, capsys, command):
    grid_yaml, elic_yaml, grid, theta = _desk_inputs(tmp_path)
    mig = theta.migration.copy()
    mig[1, 0, FEMALE] = np.nan
    write_theta(tmp_path / "initial", theta.replace(migration=mig), grid)
    years = grid.likelihood_years
    write_census(tmp_path / "census", CensusData(
        years=years, counts=np.full((len(years), grid.n_ages, 2), 100.0)), grid)
    assert main(_command(tmp_path, grid_yaml, elic_yaml, command)) == 2
    assert "migration[5,1960,female] = nan is not finite" in capsys.readouterr().err


def _write_census(tmp_path, grid):
    years = grid.likelihood_years
    write_census(tmp_path / "census", CensusData(
        years=years, counts=np.full((len(years), grid.n_ages, 2), 100.0)), grid)


@pytest.mark.parametrize("old, new, message", [
    ("counts: 0.1", "counts: .nan",
     "counts: elicited relative error must be finite and positive, got nan"),
    ("counts: 0.1", "counts: .inf",
     "counts: elicited relative error must be finite and positive, got inf"),
    ("counts: 0.1", "counts: 1e-300", "counts: eta 1e-300 and alpha 0.5 give beta = 0.0"),
    ("migration: 0.2", "migration: 1.0e+200",
     "migration: eta 1e+200 and alpha 0.5 give beta = inf; it must be finite and positive"),
    ("counts: 0.1", "counts: true", "eta counts must be a number, got True"),
    ("srb: 0.1\n", "srb: 0.1\n  alpha: {srb: .nan}\n",
     "srb: alpha must be finite and positive, got nan"),
    ("srb: 0.1\n", "srb: 0.1\n  alpha: {srb: .inf}\n",
     "srb: alpha must be finite and positive, got inf"),
    ("srb: 0.1\n", "srb: 0.1\n  alpha: {srb: true}\n", "alpha srb must be a number, got True"),
], ids=["eta_nan", "eta_inf", "eta_underflow", "eta_overflow", "eta_bool", "alpha_nan",
        "alpha_inf", "alpha_bool"])
def test_elicitation_values_must_be_finite_positive_numbers(tmp_path, capsys, old, new,
                                                            message):
    grid_yaml, elic_yaml, grid, _ = _desk_inputs(tmp_path)
    _write_census(tmp_path, grid)
    elic_yaml.write_text(elic_yaml.read_text().replace(old, new))
    assert main(_command(tmp_path, grid_yaml, elic_yaml, "sample")) == 2
    assert message in capsys.readouterr().err


def test_simulate_refuses_an_elicitation_whose_beta_overflows(tmp_path, capsys):
    """An eta whose squared half width passes float range ends simulate
    with exit 2 and one error line, and writes nothing."""
    grid_yaml, elic_yaml, _, _ = _desk_inputs(tmp_path)
    elic_yaml.write_text(elic_yaml.read_text().replace("migration: 0.2", "migration: 1.0e+200"))
    assert main(_command(tmp_path, grid_yaml, elic_yaml, "simulate")) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: migration: eta 1e+200 and alpha 0.5 give beta = inf;"
        " it must be finite and positive"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, where", [("sample", "flag"), ("sample", "sampler"),
                                            ("simulate", "flag")])
def test_negative_seed_exit_2(tmp_path, capsys, command, where):
    grid_yaml, elic_yaml, grid, _ = _desk_inputs(tmp_path)
    _write_census(tmp_path, grid)
    argv = _command(tmp_path, grid_yaml, elic_yaml, command)
    if where == "flag":
        argv += ["--seed", "-1"]
    else:
        grid_yaml.write_text(grid_yaml.read_text() + "sampler:\n  seed: -1\n")
    assert main(argv) == 2
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["project", "sample"])
def test_overflowing_start_names_first_non_finite_cell(tmp_path, capsys, command):
    """Counts that overflow to inf fail positivity like negative ones, and
    both commands name the first such cell."""
    grid_yaml, elic_yaml, grid, theta = _desk_inputs(tmp_path)
    huge = theta.replace(baseline=np.full_like(theta.baseline, 1e308),
                         migration=np.full_like(theta.migration, 0.01))
    write_theta(tmp_path / "initial", huge, grid)
    _write_census(tmp_path, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        counts = project_full(huge.baseline, huge, grid).counts
        code = main(_command(tmp_path, grid_yaml, elic_yaml, command))
    t, a, sex = np.argwhere(~np.isfinite(counts))[0]
    year, age, label = grid.stock_years[t], 5 * int(a), ("female", "male")[sex]
    out, err = capsys.readouterr()
    if command == "project":
        assert code == 0
        assert f"count at year={year} age={age} sex={label}" in out
    else:
        assert code == 3
        assert f"first offence at ({year}, {age}, '{label}')" in err


@pytest.mark.parametrize("command", ["project", "sample"])
def test_overflow_prints_only_the_commands_message(tmp_path, command):
    """numpy's overflow warnings stay off stderr, also in chain workers."""
    grid_yaml, elic_yaml, grid, theta = _desk_inputs(tmp_path)
    write_theta(tmp_path / "initial",
                theta.replace(baseline=np.full_like(theta.baseline, 1e308)), grid)
    _write_census(tmp_path, grid)
    argv = _command(tmp_path, grid_yaml, elic_yaml, command)
    if command == "sample":
        argv += ["--chains", "3"]
    proc = subprocess.run([sys.executable, "-m", "demrecon.cli"] + argv,
                          capture_output=True, text=True)
    if command == "project":
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith("warning: negative or non-finite count at year=")
    else:
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: initial estimates project to a negative")
        assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("where", ["every group", "workers only"])
def test_failed_start_in_chain_workers_exit_3(tmp_path, capsys, monkeypatch, where):
    grid_yaml, elic_yaml, grid, _ = _desk_inputs(tmp_path,
                                                 mig=-3.0 if where == "every group" else None)
    _write_census(tmp_path, grid)
    if where == "every group":
        message = "error: initial estimates project to a negative or non-finite count"
    else:
        parent, init = os.getpid(), sampler.ChainState.__init__

        def init_fails_in_workers(self, *args):
            if os.getpid() != parent:
                raise sampler.SamplingError("no start in a worker")
            init(self, *args)

        monkeypatch.setattr(sampler.ChainState, "__init__", init_fails_in_workers)
        message = "error: no start in a worker"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    assert main(_command(tmp_path, grid_yaml, elic_yaml, "sample") + ["--chains", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err
    assert len(forks) == 1
    assert multiprocessing.active_children() == []


def test_failed_fork_in_sample_exit_3(tmp_path, capsys, monkeypatch):
    """A fork the system refuses (EAGAIN, out of processes) ends sample with
    exit 3 and a one-line message, writes no samples.csv and leaves no
    process running; two usable CPUs send the chains to a forked worker."""
    grid_yaml, elic_yaml, grid, _ = _desk_inputs(tmp_path)
    _write_census(tmp_path, grid)
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 2)

    def refused():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused)
    assert main(_command(tmp_path, grid_yaml, elic_yaml, "sample") + ["--chains", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Resource temporarily unavailable" in err
    assert err.count("\n") == 1, err
    assert not (tmp_path / "out" / "samples.csv").exists()


@pytest.mark.parametrize("command", ["project", "sample", "simulate"])
def test_invalid_grid_reported_before_files_that_depend_on_it(tmp_path, capsys, command):
    grid_yaml, elic_yaml, _, _ = _desk_inputs(tmp_path)
    grid_yaml.write_text(grid_yaml.read_text().replace("start_year: 1960",
                                                       "start_year: 1980"))
    assert main(_command(tmp_path, grid_yaml, elic_yaml, command)) == 2
    err = capsys.readouterr().err
    assert "grid: end_year 1975 must exceed start_year 1980" in err
    assert "fertility.csv" not in err


@pytest.mark.parametrize("command", ["project", "sample", "simulate"])
def test_grid_step_key_exit_2(tmp_path, capsys, command):
    """The grid is fixed at 5 years: a step key is an unknown grid key."""
    grid_yaml, elic_yaml, _, _ = _desk_inputs(tmp_path)
    grid_yaml.write_text(grid_yaml.read_text() + "  step: 5\n")
    assert main(_command(tmp_path, grid_yaml, elic_yaml, command)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {grid_yaml}: unknown grid keys ['step']"), err


@pytest.mark.parametrize("key, line", [("open_age", "open_age: 15"),
                                       ("end_year", "end_year: 1975")])
@pytest.mark.parametrize("command", ["project", "sample", "simulate"])
def test_oversized_grid_exit_2(tmp_path, capsys, command, key, line):
    """An open age past MAX_OPEN_AGE or a span past MAX_SPAN is refused
    before any axis of the grid is built; 10**30 is past what numpy can
    size an array by."""
    grid_yaml, elic_yaml, _, _ = _desk_inputs(tmp_path)
    grid_yaml.write_text(grid_yaml.read_text().replace(line, f"{key}: {10**30}"))
    assert main(_command(tmp_path, grid_yaml, elic_yaml, command)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid inputs:\ngrid: ") and "Traceback" not in err, err
    assert f"grid: {key}" in err


@pytest.mark.parametrize("key", ["open_age", "end_year"])
def test_oversized_manifest_grid_exit_2(tmp_path, capsys, desk_grid, key):
    """summarize and diagnose validate the grid of the manifest."""
    run = _sample_dir(tmp_path / "run", desk_grid, [make_theta(desk_grid, seed=s)
                                                     for s in range(3)])
    manifest = run / "manifest.json"
    d = json.loads(manifest.read_text())
    d["grid"][key] = 10**30
    manifest.write_text(json.dumps(d))
    for command in ("summarize", "diagnose"):
        assert main([command, "--sample-dir", str(run), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid inputs:\ngrid: ") and f"grid: {key}" in err, err
    assert not (tmp_path / "out").exists()


def test_manifest_missing_key_exit_2(tmp_path, capsys, desk_grid):
    run = _sample_dir(tmp_path / "run", desk_grid, [make_theta(desk_grid, seed=s)
                                                     for s in range(3)])
    manifest = run / "manifest.json"
    manifest.write_text(json.dumps({k: v for k, v in json.loads(manifest.read_text()).items()
                                    if k != "seed"}))
    assert main(["summarize", "--sample-dir", str(run)]) == 2
    assert capsys.readouterr().err == f"error: {manifest}: manifest is missing keys ['seed']\n"


def test_census_years_not_a_list_exit_2(tmp_path, capsys):
    grid_yaml, elic_yaml, _, _ = _desk_inputs(tmp_path)
    grid_yaml.write_text(grid_yaml.read_text().replace("[1960, 1965, 1975]", "1960"))
    assert main(_command(tmp_path, grid_yaml, elic_yaml, "project")) == 2
    assert capsys.readouterr().err == f"error: {grid_yaml}: census_years must be a list of years\n"


def test_non_integer_row_label_exit_2_naming_the_line(tmp_path, capsys):
    grid_yaml, elic_yaml, _, _ = _desk_inputs(tmp_path)
    p = tmp_path / "initial" / "fertility.csv"
    lines = p.read_text().splitlines(keepends=True)
    lines[2] = "15.5" + lines[2][lines[2].index(","):]
    p.write_text("".join(lines))
    assert main(_command(tmp_path, grid_yaml, elic_yaml, "project")) == 2
    assert capsys.readouterr().err == \
        f"error: {p}:3: row label '15.5' is not an integer age\n"


def test_non_year_column_header_exit_2(tmp_path, capsys):
    grid_yaml, elic_yaml, _, _ = _desk_inputs(tmp_path)
    p = tmp_path / "initial" / "fertility.csv"
    lines = p.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    header[2] = "abc"
    lines[0] = ",".join(header) + "\n"
    p.write_text("".join(lines))
    assert main(_command(tmp_path, grid_yaml, elic_yaml, "project")) == 2
    assert capsys.readouterr().err == \
        f"error: {p}:1: column headers after 'age' must be years: {header[1:]}\n"


def test_zero_projected_census_year_count_sample_exit_3(tmp_path, capsys):
    """Age-0 survival 0.25 and migration -0.4 in the period that ends at
    the 1965 census make the age-0 factor 0.25 * 0.8 - 0.2 exactly 0: the
    start has zero projected counts at a census year and no likelihood."""
    grid_yaml, elic_yaml, grid, theta = _desk_inputs(tmp_path)
    _write_census(tmp_path, grid)
    surv, mig = theta.survival.copy(), theta.migration.copy()
    surv[0, 0, :] = 0.25
    mig[0, 0, :] = -0.4
    write_theta(tmp_path / "initial", theta.replace(survival=surv, migration=mig), grid)
    assert main(_command(tmp_path, grid_yaml, elic_yaml, "sample")) == 3
    assert capsys.readouterr().err == \
        "error: initial estimates give zero projected counts at a census year\n"
    assert not (tmp_path / "out" / "samples.csv").exists()


def test_sample_dir_of_0_2_0_reads_alike(tmp_path, desk_grid):
    """summarize and diagnose write the same bytes from a sample directory
    whose manifest holds the grid step that 0.2.0 wrote."""
    run = _sample_dir(tmp_path / "run", desk_grid, [make_theta(desk_grid, seed=s)
                                                     for s in range(20)])
    outputs = []
    for old in (False, True):
        if old:
            manifest = run / "manifest.json"
            manifest.write_text(manifest.read_text().replace('"start_year"',
                                                             '"step": 5, "start_year"'))
        out = tmp_path / f"out{old}"
        assert main(["summarize", "--sample-dir", str(run), "--out-dir", str(out)]) == 0
        assert main(["diagnose", "--sample-dir", str(run), "--r", "0.1",
                     "--out-dir", str(out)]) == 0
        outputs.append([(out / f).read_bytes() for f in ("summary.csv", "diagnostics.csv")])
    assert outputs[0] == outputs[1]


def test_summarize_rejects_unknown_indicator(tmp_path):
    grid_yaml, elic_yaml, grid, theta = _desk_inputs(tmp_path)
    sim = tmp_path / "sim"
    main(["simulate", "--grid", str(grid_yaml),
          "--initial-estimates-dir", str(tmp_path / "initial"),
          "--elicitation", str(elic_yaml), "--seed", "7", "--out-dir", str(sim)])
    run = tmp_path / "run"
    main(["sample", "--grid", str(grid_yaml),
          "--initial-estimates-dir", str(sim / "initial"),
          "--census", str(sim / "census"), "--elicitation", str(elic_yaml),
          "--iterations", "24", "--burn-in", "4", "--out-dir", str(run)])
    assert main(["summarize", "--sample-dir", str(run),
                 "--indicator", "happiness"]) == 2
    assert main(["summarize", "--sample-dir", str(run),
                 "--threshold", "srb==1"]) == 2
    assert main(["diagnose", "--sample-dir", str(run),
                 "--parameter", "tempo[0]"]) == 2


@pytest.mark.parametrize("flags", [
    ["--trend", "bogus"],
    ["--threshold", "bogus>1"],
    ["--joint", "up=srb:1960:1970:>;bogus:1960:1970:<"],
])
def test_summarize_rejects_unknown_name_before_reading(tmp_path, capsys, flags):
    # the sample directory does not exist: the name check must come first
    code = main(["summarize", "--sample-dir", str(tmp_path / "missing")] + flags)
    assert code == 2
    assert "unknown indicators ['bogus']" in capsys.readouterr().err


def _sample_dir(path, grid, thetas):
    """A sample directory laid out as ``demrecon sample`` writes it, holding
    the given parameter sets as draws."""
    path.mkdir()
    write_samples(path / "samples.csv", sample_from_thetas(grid, thetas))
    make_manifest(0, {}, grid, None, None, [], 0.0).write(path / "manifest.json")
    return path


@pytest.mark.parametrize("flags, message", [
    (["--threshold", "srb>abc"], "must look like 'srb>1.06'"),
    (["--threshold", "srb>=1.0x"], "must look like 'srb>1.06'"),
    (["--joint", "up=srb:19x0:1970:>"], "must be indicator:yearA:yearB"),
    (["--joint", "up=srb:1960:1975:>"], "srb has no year 1975"),
    (["--joint", "up=srtp:1960:1980:<"], "srtp has no year 1980"),
    (["--prob", "1.5"], "must lie in [0, 1]"),
    (["--threshold", "srb>nan"], "with a finite number"),
    (["--threshold", "srb<-inf"], "with a finite number"),
])
def test_summarize_bad_arguments_exit_2(tmp_path, capsys, desk_grid, flags, message):
    run = _sample_dir(tmp_path / "run", desk_grid, [make_theta(desk_grid, seed=s)
                                                     for s in range(3)])
    code = main(["summarize", "--sample-dir", str(run), "--out-dir", str(tmp_path)] + flags)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "summary.csv").exists()


def test_summarize_repeated_flag_values_count_once(tmp_path, desk_grid):
    """A value given again in --indicator, --prob, --threshold, --trend or
    --joint adds no rows: summary.csv is that of each value given once, in
    the order first given."""
    run = _sample_dir(tmp_path / "run", desk_grid, [make_theta(desk_grid, seed=s)
                                                     for s in range(3)])
    once = ["--indicator", "tfr", "--indicator", "srb", "--prob", "0.9", "--prob", "0.5",
            "--threshold", "srb>1.06", "--trend", "srb", "--joint", "up=srb:1960:1970:>"]
    again = ["--indicator", "tfr", "--indicator", "tfr", "--indicator", "srb",
             "--prob", "0.9", "--prob", "0.5", "--prob", "0.9", "--threshold", "srb>1.06",
             "--threshold", "srb > 1.06", "--trend", "srb", "--trend", "srb",
             "--joint", "up=srb:1960:1970:>", "--joint", "up=srb:1960:1970:>"]
    for name, flags in (("once", once), ("again", again)):
        assert main(["summarize", "--sample-dir", str(run),
                     "--out-dir", str(tmp_path / name)] + flags) == 0
    assert (tmp_path / "again" / "summary.csv").read_bytes() == \
        (tmp_path / "once" / "summary.csv").read_bytes()


def test_summarize_oversized_chain_label_exit_2(tmp_path, capsys, desk_grid):
    """A chain label beyond int64 is a parse error on its line, not a traceback."""
    run = _sample_dir(tmp_path / "run", desk_grid, [make_theta(desk_grid, seed=s)
                                                     for s in range(3)])
    p = run / "samples.csv"
    lines = p.read_text().splitlines(keepends=True)
    lines[3] = "1" + "0" * 30 + lines[3][lines[3].index(","):]
    p.write_text("".join(lines))
    code = main(["summarize", "--sample-dir", str(run), "--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}:4: bad row: chain '1{'0' * 30}'"), err
    assert "Traceback" not in err
    assert not (tmp_path / "summary.csv").exists()


def test_summarize_trend_needs_two_years_before_reading(tmp_path, capsys):
    """On a one-period grid a period series has one year and no trend; a
    stock series has two. The check comes before the sample is read."""
    grid = ModelGrid(start_year=1960, end_year=1965, open_age=15, fert_min_age=10,
                     fert_max_age=15, census_years=(1960, 1965))
    run = _sample_dir(tmp_path / "run", grid, [make_theta(grid, seed=s) for s in range(3)])
    assert main(["summarize", "--sample-dir", str(run), "--trend", "srtp"]) == 0
    (run / "samples.csv").unlink()
    capsys.readouterr()
    assert main(["summarize", "--sample-dir", str(run), "--trend", "srb"]) == 2
    assert "trend srb needs at least two years, has [1960]" in capsys.readouterr().err


def test_summarize_joint_on_stock_years(tmp_path, desk_grid):
    """srtp is a stock series, so its years run to the end year."""
    run = _sample_dir(tmp_path / "run", desk_grid, [make_theta(desk_grid, seed=s)
                                                     for s in range(3)])
    assert main(["summarize", "--sample-dir", str(run),
                 "--joint", "up=srtp:1960:1975:>"]) == 0


def test_summarize_joint_without_label_is_named_by_its_expression(tmp_path, desk_grid):
    """A joint without a label, or with an empty one, is named by its predicates."""
    run = _sample_dir(tmp_path / "run", desk_grid, [make_theta(desk_grid, seed=s)
                                                     for s in range(3)])
    for expr in ("srb:1960:1970:>", "=srb:1960:1970:>"):
        assert main(["summarize", "--sample-dir", str(run), "--indicator", "srb",
                     "--joint", expr]) == 0
        with open(run / "summary.csv") as fh:
            joint = [r for r in csv.DictReader(fh) if r["indicator"] == "joint"]
        assert [(r["year"], r["statistic"]) for r in joint] == [("", "srb:1960:1970:>")]


def test_summarize_joint_label_names_one_set_of_predicates(tmp_path, capsys, desk_grid):
    """One label given to different predicates exits 2 naming it; given to
    the same predicates, however spaced, it counts once."""
    run = _sample_dir(tmp_path / "run", desk_grid, [make_theta(desk_grid, seed=s)
                                                     for s in range(3)])
    base = ["summarize", "--sample-dir", str(run), "--indicator", "srb"]
    assert main(base + ["--joint", "a=srb:1960:1965:>", "--joint", "a=srb:1965:1970:<"]) == 2
    assert "joint label 'a' is given to different predicates" in capsys.readouterr().err
    assert not (run / "summary.csv").exists()
    assert main(base + ["--joint", "a=srb:1960:1965:>", "--joint", "a= srb:1960:1965:>"]) == 0
    with open(run / "summary.csv") as fh:
        joint = [r for r in csv.DictReader(fh) if r["indicator"] == "joint"]
    assert [(r["year"], r["statistic"]) for r in joint] == [("", "a")]


def test_summarize_divergent_life_expectancy_exit_3(tmp_path, capsys, desk_grid):
    theta = make_theta(desk_grid, seed=1)
    surv = theta.survival.copy()
    surv[-1, 1, FEMALE] = 1.0  # open group never dies: e0 diverges
    run = _sample_dir(tmp_path / "run", desk_grid, [theta, theta.replace(survival=surv)])
    assert main(["summarize", "--sample-dir", str(run), "--indicator", "srb"]) == 0
    assert main(["summarize", "--sample-dir", str(run),
                 "--indicator", "e0_female"]) == 3
    assert "life expectancy diverges" in capsys.readouterr().err


def test_diagnose_period_two_chain_is_a_note(tmp_path, desk_grid):
    """Draws alternating between two parameter sets binarize to a chain of
    period 2, whose run-length burn-in is undefined: a note, not a crash."""
    a, b = make_theta(desk_grid, seed=1), make_theta(desk_grid, seed=2)
    run = _sample_dir(tmp_path / "run", desk_grid, [a, b] * 30)
    assert main(["diagnose", "--sample-dir", str(run), "--r", "0.05",
                 "--parameter", "srb[1960]"]) == 0
    with open(run / "diagnostics.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert "period 2" in row["note"]


def _counting(monkeypatch, name):
    """Replace ``cli.<name>`` by a wrapper that counts its calls."""
    calls = []
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


def test_diagnose_one_gelman_rubin_call_over_unequal_chains(tmp_path, monkeypatch, desk_grid):
    """Three chains of 30, 22 and 41 draws, their rows interleaved in the
    file: each R-hat cell is the scalar R-hat of its column over the first
    22 draws of every chain, from one batched call."""
    lengths = {0: 30, 1: 22, 2: 41}
    labels = np.repeat(list(lengths), list(lengths.values()))
    np.random.default_rng(16).shuffle(labels)
    thetas = [make_theta(desk_grid, seed=s) for s in range(labels.size)]
    for i in np.flatnonzero(labels == 2):  # one chain sits higher in srb
        thetas[i] = thetas[i].replace(srb=thetas[i].srb + 0.05)
    sample = dataclasses.replace(sample_from_thetas(desk_grid, thetas), chain=labels)
    run = tmp_path / "run"
    run.mkdir()
    write_samples(run / "samples.csv", sample)
    make_manifest(0, {}, desk_grid, None, None, [], 0.0).write(run / "manifest.json")
    wanted = ["srb[1965]", "baseline[5,male]", "sigma2[migration]", "survival[10,1970,female]"]
    gr_calls = _counting(monkeypatch, "gelman_rubin")
    rl_calls = _counting(monkeypatch, "raftery_lewis")
    argv = ["diagnose", "--sample-dir", str(run), "--r", "0.1"]
    assert main(argv + [a for p in wanted for a in ("--parameter", p)]) == 0
    assert len(gr_calls) == 1 and len(rl_calls) == len(wanted)
    with open(run / "diagnostics.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["parameter"] for r in rows] == wanted

    flat = sample.flat()
    names = parameter_names(desk_grid)
    for row in rows:
        col = flat[:, names.index(row["parameter"])]
        want = gelman_rubin([col[labels == c][:22] for c in lengths])
        assert row["gelman_rubin"] == f"{want:.4g}"
    assert rows[wanted.index("sigma2[migration]")]["gelman_rubin"] == "1"
    assert float(rows[0]["gelman_rubin"]) > 1.1

    gr_calls.clear()
    assert main(argv) == 0
    assert len(gr_calls) == 1 and len(rl_calls) == len(wanted) + len(names)


def test_diagnose_repeated_parameter_counts_once(tmp_path, desk_grid):
    """A parameter named again in --parameter adds no row: diagnostics.csv
    is that of each name given once, in the order first given, R-hat
    column included."""
    thetas = [make_theta(desk_grid, seed=s) for s in range(40)]
    sample = dataclasses.replace(sample_from_thetas(desk_grid, thetas),
                                 chain=np.repeat([0, 1], 20))
    run = tmp_path / "run"
    run.mkdir()
    write_samples(run / "samples.csv", sample)
    make_manifest(0, {}, desk_grid, None, None, [], 0.0).write(run / "manifest.json")
    once = ["srb[1965]", "sigma2[counts]", "baseline[5,male]"]
    again = ["srb[1965]", "sigma2[counts]", "srb[1965]", "baseline[5,male]", "sigma2[counts]"]
    for name, wanted in (("once", once), ("again", again)):
        assert main(["diagnose", "--sample-dir", str(run), "--r", "0.1",
                     "--out-dir", str(tmp_path / name)]
                    + [a for p in wanted for a in ("--parameter", p)]) == 0
    got = (tmp_path / "again" / "diagnostics.csv").read_bytes()
    assert got == (tmp_path / "once" / "diagnostics.csv").read_bytes()
    assert got.count(b"\n") == 1 + len(once)


def test_diagnose_second_chain_of_one_draw_is_a_note(tmp_path, desk_grid):
    """Gelman-Rubin needs two draws per chain: with a second chain of one
    draw its error joins each row's note, and the run-length columns of
    the first chain are still written."""
    thetas = [make_theta(desk_grid, seed=s) for s in range(21)]
    sample = dataclasses.replace(sample_from_thetas(desk_grid, thetas),
                                 chain=np.repeat([0, 1], [20, 1]))
    run = tmp_path / "run"
    run.mkdir()
    write_samples(run / "samples.csv", sample)
    make_manifest(0, {}, desk_grid, None, None, [], 0.0).write(run / "manifest.json")
    assert main(["diagnose", "--sample-dir", str(run), "--r", "0.1",
                 "--parameter", "srb[1960]"]) == 0
    with open(run / "diagnostics.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["gelman_rubin"] == ""
    assert row["note"].endswith("chains must share one shape, (n,) or (n, m), with n >= 2")


def test_diagnose_one_chain_makes_no_gelman_rubin_call(tmp_path, monkeypatch, desk_grid):
    run = _sample_dir(tmp_path / "run", desk_grid, [make_theta(desk_grid, seed=s)
                                                     for s in range(20)])
    gr_calls = _counting(monkeypatch, "gelman_rubin")
    rl_calls = _counting(monkeypatch, "raftery_lewis")
    assert main(["diagnose", "--sample-dir", str(run), "--r", "0.1",
                 "--parameter", "srb[1960]", "--parameter", "srb[1965]"]) == 0
    assert gr_calls == [] and len(rl_calls) == 2
    with open(run / "diagnostics.csv") as fh:
        assert [r["gelman_rubin"] for r in csv.DictReader(fh)] == ["", ""]


def test_parser_built_once_keeps_no_state_between_calls(tmp_path, desk_grid):
    """Successive calls in one process write what calls on a freshly
    built parser write: list options start empty every time."""
    run = _sample_dir(tmp_path / "run", desk_grid, [make_theta(desk_grid, seed=s)
                                                     for s in range(40)])
    calls = [
        ["summarize", "--indicator", "srb", "--prob", "0.1", "--prob", "0.9"],
        ["summarize", "--indicator", "tfr"],
        ["summarize"],
        ["diagnose", "--r", "0.05", "--parameter", "srb[1960]", "--parameter", "srb[1965]"],
        ["diagnose", "--r", "0.05", "--parameter", "srb[1970]"],
    ]
    outputs = {}
    for fresh in (False, True):
        for k, argv in enumerate(calls):
            if fresh:
                cli._build_parser.cache_clear()
            out = tmp_path / f"{fresh}-{k}"
            assert main(argv + ["--sample-dir", str(run), "--out-dir", str(out)]) == 0
            (path,) = out.iterdir()
            outputs[fresh, k] = path.read_bytes()
    for k in range(len(calls)):
        assert outputs[False, k] == outputs[True, k]
    assert outputs[False, 1] != outputs[False, 0]
    assert outputs[False, 4] != outputs[False, 3]


@pytest.mark.parametrize("flags", [["--q", "2"], ["--r", "0"], ["--s", "1"],
                                   ["--r", "1e-160"], ["--r", "inf"], ["--r", "1e200"]])
def test_diagnose_bad_run_length_settings_exit_2(tmp_path, capsys, flags):
    # the sample directory does not exist: the settings check must come first
    code = main(["diagnose", "--sample-dir", str(tmp_path / "missing")] + flags)
    assert code == 2
    assert "need 0 < q < 1, 0 < s < 1 and r > 0" in capsys.readouterr().err


_UNREADABLE = [(command, target, corruption)
               for command, target in [("project", "grid.yaml"),
                                       ("project", "initial/survival_male.csv"),
                                       ("sample", "census/census_male.csv"),
                                       ("summarize", "run/samples.csv"),
                                       ("diagnose", "run/manifest.json")]
               for corruption in ("not_utf8", "directory", "missing")]
_UNREADABLE += [(command, "out", "file")
                for command in ("project", "sample", "simulate", "summarize", "diagnose")]


@pytest.mark.parametrize("command, target, corruption", _UNREADABLE)
def test_unreadable_path_exit_2_naming_it(tmp_path, capsys, command, target, corruption):
    """A file that is not UTF-8 text, a directory where a file should be, a
    missing file, or an --out-dir that is a file: exit 2 with the path, not a
    traceback. A missing file of any kind gets the same message."""
    grid_yaml, elic_yaml, grid, _ = _desk_inputs(tmp_path)
    years = grid.likelihood_years
    write_census(tmp_path / "census", CensusData(
        years=years, counts=np.full((len(years), grid.n_ages, 2), 100.0)), grid)
    run = _sample_dir(tmp_path / "run", grid, [make_theta(grid, seed=s) for s in range(3)])
    bad = tmp_path / target
    if corruption == "not_utf8":
        bad.write_bytes(bad.read_bytes().replace(b"\n", b"\n\xe9", 1))  # latin-1 e-acute
    elif corruption == "directory":
        bad.unlink()
        bad.mkdir()
    elif corruption == "missing":
        bad.unlink()
    else:
        bad.write_text("a file\n")
    if command in ("summarize", "diagnose"):
        argv = [command, "--sample-dir", str(run), "--out-dir", str(tmp_path / "out")]
    else:
        argv = _command(tmp_path, grid_yaml, elic_yaml, command)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and "Traceback" not in err, err
    if corruption == "missing":
        assert err == f"error: {bad}: No such file or directory\n"


@pytest.mark.parametrize("command, target, corrupt, key", [
    ("project", "grid", lambda t: t.replace("census_years", "census_year"), "census_year"),
    ("simulate", "elicitation", lambda t: t + "  alphas:\n    srb: 3\n", "alphas"),
    ("simulate", "elicitation", lambda t: t + "  alpha: {sbr: 3}\n", "sbr"),
    ("project", "grid", lambda t: t.replace("open_age: 15", "open_age: 15.5"), "open_age"),
    ("sample", "grid", lambda t: t + "sampler:\n  iterations: 100.9\n", "iterations"),
], ids=["grid_key", "elicitation_key", "alpha_class", "grid_value", "sampler_value"])
def test_unknown_config_key_or_fractional_value_exit_2_naming_it(tmp_path, capsys, command,
                                                                 target, corrupt, key):
    """A misspelled key or class must not run the defaults, and a fractional
    integer setting must not be truncated."""
    grid_yaml, elic_yaml, grid, _ = _desk_inputs(tmp_path)
    years = grid.likelihood_years
    write_census(tmp_path / "census", CensusData(
        years=years, counts=np.full((len(years), grid.n_ages, 2), 100.0)), grid)
    bad = grid_yaml if target == "grid" else elic_yaml
    bad.write_text(corrupt(bad.read_text()))
    assert main(_command(tmp_path, grid_yaml, elic_yaml, command)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and f"'{key}'" in err, err


@pytest.mark.parametrize("case", ["sampler_setting", "sampler_key", "census_year",
                                  "no_census_year", "eta", "alpha", "manifest_json", "manifest_keys", "manifest_grid",
                                  "manifest_grid_value"])
def test_malformed_config_exit_2_without_traceback(tmp_path, case):
    grid_yaml, elic_yaml, grid, _ = _desk_inputs(tmp_path)
    years = grid.likelihood_years
    write_census(tmp_path / "census", CensusData(
        years=years, counts=np.full((len(years), grid.n_ages, 2), 100.0)), grid)
    run = _sample_dir(tmp_path / "run", grid, [make_theta(grid, seed=s) for s in range(3)])
    inputs = ["--grid", str(grid_yaml), "--initial-estimates-dir", str(tmp_path / "initial"),
              "--out-dir", str(tmp_path / "out")]
    elic = ["--elicitation", str(elic_yaml)]
    argv, bad = {
        "sampler_setting": (["sample", "--census", str(tmp_path / "census")] + elic + inputs,
                            grid_yaml),
        "sampler_key": (["sample", "--census", str(tmp_path / "census")] + elic + inputs,
                        grid_yaml),
        "census_year": (["project"] + inputs, grid_yaml),
        "no_census_year": (["simulate"] + elic + inputs, grid_yaml),
        "eta": (["simulate"] + elic + inputs, elic_yaml),
        "alpha": (["simulate"] + elic + inputs, elic_yaml),
        "manifest_json": (["summarize", "--sample-dir", str(run)], run / "manifest.json"),
        "manifest_keys": (["diagnose", "--sample-dir", str(run)], run / "manifest.json"),
        "manifest_grid": (["diagnose", "--sample-dir", str(run)], run / "manifest.json"),
        "manifest_grid_value": (["summarize", "--sample-dir", str(run)],
                                run / "manifest.json"),
    }[case]
    corrupt = {
        "sampler_setting": lambda text: text + "sampler:\n  iterations: many\n",
        "sampler_key": lambda text: text + "sampler:\n  iteration: 10\n",
        "census_year": lambda text: text.replace("1965", "1965a"),
        "no_census_year": lambda text: text.replace("census_years", "census_year"),
        "eta": lambda text: text.replace("counts: 0.1", "counts: ten percent"),
        "alpha": lambda text: text + "  alpha:\n    srb: half\n",
        "manifest_json": lambda text: text[:-10],
        "manifest_keys": lambda text: json.dumps(
            {k: v for k, v in json.loads(text).items() if k != "grid"}),
        "manifest_grid": lambda text: json.dumps(
            {**json.loads(text), "grid": {"start_year": 1960, "tempo": 5}}),
        "manifest_grid_value": lambda text: text.replace('"start_year": 1960',
                                                         '"start_year": "1960s"'),
    }[case]
    bad.write_text(corrupt(bad.read_text()))
    proc = subprocess.run([sys.executable, "-m", "demrecon.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: {bad}: ")


# ---------------------------------------------------------------------------
# corrupt inputs

# each corruptible input (a directory stands for any CSV file in it) and
# the commands that read it
_READERS = {
    "grid.yaml": ("project", "simulate", "sample"),
    "elicitation.yaml": ("simulate", "sample"),
    "initial": ("project", "simulate", "sample"),
    "census": ("sample",),
    "run/manifest.json": ("summarize", "diagnose"),
    "run/samples.csv": ("summarize", "diagnose"),
}


def _argv(d, command, out="out"):
    """argv of command on the inputs under d, as laid out by ``corrupt_base``."""
    if command in ("summarize", "diagnose"):
        return [command, "--sample-dir", str(d / "run"), "--out-dir", str(d / out)]
    argv = [command, "--grid", str(d / "grid.yaml"), "--initial-estimates-dir",
            str(d / "initial"), "--out-dir", str(d / out)]
    if command != "project":
        argv += ["--elicitation", str(d / "elicitation.yaml"), "--seed", "1"]
    if command == "sample":
        argv += ["--census", str(d / "census"), "--iterations", "3", "--burn-in", "1",
                 "--chains", "2"]
    return argv


@pytest.fixture(scope="module")
def corrupt_base(tmp_path_factory):
    """Desk-grid inputs and the sample directory of a 3-sweep, 2-chain run."""
    d = tmp_path_factory.mktemp("corrupt_base")
    _, _, grid, _ = _desk_inputs(d)
    years = grid.likelihood_years
    write_census(d / "census", CensusData(
        years=years, counts=np.full((len(years), grid.n_ages, 2), 100.0)), grid)
    assert main(_argv(d, "sample", out="run")) == 0
    return d


@pytest.mark.parametrize("target", list(_READERS))
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_corrupt_input_exits_cleanly(corrupt_base, target, data):
    """One byte replaced, or the file truncated: every command that reads
    the file exits 0, 2 or 3 and never raises."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "inputs"
        shutil.copytree(corrupt_base, d)
        path = d / target
        if path.is_dir():
            path = data.draw(st.sampled_from(sorted(path.glob("*.csv"))), label="file")
        raw = path.read_bytes()
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[:pos]
        else:
            raw = raw[:pos] + bytes([data.draw(st.sampled_from(range(256)), label="byte")]) \
                + raw[pos + 1:]
        path.write_bytes(raw)
        for command in _READERS[target]:
            assert main(_argv(d, command)) in (0, 2, 3)
