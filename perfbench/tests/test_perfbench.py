"""Tests of the benchmark itself: input generators, correctness gates,
failure accounting and the traced counts.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from demrecon import cli, io, sampler

import gates
import harness
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent


def _quiet_cli(argv):
    assert cli.main(argv) == 0


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}  # manifests hold a timestamp


@pytest.mark.parametrize("name", ["demo-fit", "long-grid-fit"])
def test_generators_are_deterministic(tmp_path, name, capsys):
    w = workloads.WORKLOADS[name]
    workloads.generate(w, 5, tmp_path / "a", _quiet_cli)
    workloads.generate(w, 5, tmp_path / "b", _quiet_cli)
    workloads.generate(w, 6, tmp_path / "c", _quiet_cli)
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    census = Path("sim/census/census_female.csv")
    assert a[census] != c[census]


def test_long_grid_tiles_the_demo_periods():
    grid, theta, _ = workloads.base_problem("long")
    _, demo, _ = workloads.base_problem("demo")
    assert (grid.start_year, grid.end_year, grid.n_periods) == (1950, 2010, 12)
    assert grid.census_years == (1950, 1970, 1990, 2010)
    for p in range(12):
        np.testing.assert_array_equal(theta.survival[:, p], demo.survival[:, p % 4])
        assert theta.srb[p] == demo.srb[p % 4]


def test_prior_sample_generator_is_deterministic(tmp_path, capsys):
    w = dataclasses.replace(workloads.WORKLOADS["postprocess"], prior_draws=20)
    _, s1 = workloads.generate(w, 3, tmp_path / "a", _quiet_cli)
    _, s2 = workloads.generate(w, 3, tmp_path / "b", _quiet_cli)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert gates.sample_digest(s1) == gates.sample_digest(s2)
    back = gates.read_sample_dir(tmp_path / "a" / "prior")
    assert list(back.chain) == [0] * 10 + [1] * 10
    assert gates.sample_digest(back) == gates.sample_digest(s1)


def _perturbed_copy(src, dest, rel):
    lines = Path(src).read_text().splitlines()
    year, sex, age, count = lines[5].split(",")
    lines[5] = ",".join([year, sex, age, repr(float(count) * (1.0 + rel))])
    Path(dest).write_text("\n".join(lines) + "\n")


def test_projection_gate_tolerance(tmp_path):
    expected = workloads.DEMO / "expected_projection.csv"
    assert gates.check_projection(expected, expected) == []
    _perturbed_copy(expected, tmp_path / "near.csv", 1e-14)
    assert gates.check_projection(tmp_path / "near.csv", expected) == []
    _perturbed_copy(expected, tmp_path / "off.csv", 1e-10)
    assert len(gates.check_projection(tmp_path / "off.csv", expected)) == 1


def test_nonfinite_or_negative_draws_fail_the_gate(tmp_path, capsys):
    w = dataclasses.replace(workloads.WORKLOADS["postprocess"], prior_draws=4)
    _, sample = workloads.generate(w, 1, tmp_path, _quiet_cli)
    assert gates.check_draws(sample) == []
    nan = {**sample.draws, "fertility": sample.draws["fertility"].copy()}
    nan["fertility"][2, 0, 0] = np.nan
    assert gates.check_draws(dataclasses.replace(sample, draws=nan))
    neg = {**sample.draws, "counts": sample.draws["counts"].copy()}
    neg["counts"][1, 3, 0] = -1.0
    assert "negative" in gates.check_draws(dataclasses.replace(sample, draws=neg))[0]


def _one_rep(tmp_path, name, seed=workloads.DEFAULT_SEED, **changes):
    w = dataclasses.replace(workloads.WORKLOADS[name], **changes)
    bench = harness.Bench(w, seed, tmp_path)
    bench.setup()
    bench.rep(0, traced=False)
    return bench


def test_clean_repetition_has_no_failures(tmp_path):
    bench = _one_rep(tmp_path, "demo-fit")
    assert (bench.attempted, bench.failed) == (4, 0), bench.problems


def test_perturbed_draw_is_a_failed_operation(tmp_path, monkeypatch):
    write = io.write_samples

    def write_perturbed(path, sample):
        counts = sample.draws["counts"].copy()
        counts[0, 0, 0] = np.nextafter(counts[0, 0, 0], np.inf)
        write(path, dataclasses.replace(sample, draws={**sample.draws, "counts": counts}))

    monkeypatch.setattr(io, "write_samples", write_perturbed)
    bench = _one_rep(tmp_path, "demo-fit")
    assert (bench.attempted, bench.failed) == (4, 1)
    assert bench.problems[0].startswith("sample: draws digest")


def test_projection_off_by_more_than_tolerance_is_a_failed_operation(tmp_path, monkeypatch):
    write = io.write_trajectory

    def write_off(path, traj):
        counts = traj.counts.copy()
        counts[2, 4, 1] *= 1.0 + 1e-10
        write(path, dataclasses.replace(traj, counts=counts))

    monkeypatch.setattr(io, "write_trajectory", write_off)
    bench = _one_rep(tmp_path, "demo-fit", seed=7, iterations=2, burn_in=1, chains=1)
    assert bench.failed == 1
    assert bench.problems[0].startswith("project: projection 1970 male 20")


@pytest.mark.parametrize("name,steps,updates", [("demo-fit", 916, 346),
                                                ("long-grid-fit", 6492, 970)])
def test_traced_counts_per_sweep(tmp_path, name, steps, updates):
    w = dataclasses.replace(workloads.WORKLOADS[name], iterations=2, burn_in=1)
    original = sampler._step_counts
    bench = harness.Bench(w, 4, tmp_path, tracer=tracing.Tracer())
    bench.setup()
    bench.rep(0, traced=True)
    assert sampler._step_counts is original
    assert bench.failed == 0, bench.problems
    m = tracing.layer_metrics(bench.tracer, bench.setup_runs, bench.traced_reps)
    assert m["projection.step_calls_per_sweep"] == steps
    assert m["sampler.update_component_calls_per_sweep"] == updates
    grid = workloads.base_problem(w.grid)[0]
    assert m["diagnostics.raftery_lewis_calls"] == len(sampler.parameter_names(grid))


def test_incomplete_checkout_exits_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "demo-fit",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
