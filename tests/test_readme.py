"""The Python examples and the quick-start commands in README.md run as
written, with fewer iterations, and the names its API list mentions exist
in the package."""

import re
import shlex
from functools import reduce
from pathlib import Path

import numpy as np

import demrecon
from demrecon import load_elicitation, load_grid, load_sampler_settings
from demrecon.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(monkeypatch):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 2
    code, n = re.subn(r"iterations=\d+, burn_in=\d+", "iterations=6, burn_in=2",
                      "\n".join(blocks))
    assert n == 1
    monkeypatch.chdir(ROOT)  # the examples read data/demo by relative path
    ns = {}
    exec(compile(code, "README.md", "exec"), ns)
    sample, grid = ns["sample"], ns["grid"]
    assert sample.n_draws == 2 * 4
    assert {r["indicator"] for r in ns["rows"]} == {"srb", "tfr"}
    assert ns["traj"].counts.shape == (sample.n_draws, grid.n_periods + 1, grid.n_ages, 2)
    first = ns["project_full"](sample.draws["counts"][0], sample.theta_at(0), grid)
    assert np.array_equal(ns["traj"].counts[0], first.counts)


def test_readme_config_examples_load(tmp_path):
    """The YAML examples of "File formats" are config files as the loaders
    read them, holding the demo's values."""
    text = (ROOT / "README.md").read_text()
    section = re.search(r"## File formats\n(.*?)\n## ", text, flags=re.S).group(1)
    grid_yaml, elic_yaml = tmp_path / "grid.yaml", tmp_path / "elicitation.yaml"
    blocks = re.findall(r"```yaml\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 2
    grid_yaml.write_text(blocks[0])
    elic_yaml.write_text(blocks[1])
    grid = load_grid(grid_yaml)
    assert (grid.start_year, grid.end_year) == (1960, 1980)
    assert grid.census_years == (1960, 1970, 1980)
    assert grid == load_grid(ROOT / "data" / "demo" / "grid.yaml")
    assert load_sampler_settings(grid_yaml) == {"iterations": 5000, "burn_in": 2500}
    elic = load_elicitation(elic_yaml)
    assert elic.eta["migration"] == 0.2
    assert elic == load_elicitation(ROOT / "data" / "demo" / "elicitation.yaml")
    assert load_sampler_settings(elic_yaml) == {}


def test_readme_indicator_list_names_every_indicator():
    text = (ROOT / "README.md").read_text()
    section = re.search(r"### Summary indicators\n(.*?)\n## ", text, flags=re.S).group(1)
    names = tuple(re.findall(r"^- `([a-z0-9_]+)`:", section, flags=re.M))
    assert names == demrecon.INDICATOR_NAMES


def test_readme_api_list_names_exported_functions():
    text = (ROOT / "README.md").read_text()
    para = re.search(r"Lower-level entry points.*?\n\n", text, flags=re.S).group(0)
    names = re.findall(r"`([^`]+)`", para)
    assert len(names) >= 10
    for name in names:
        assert reduce(getattr, name.split("."), demrecon), name


def test_readme_quick_start_commands_run(tmp_path, monkeypatch):
    text = (ROOT / "README.md").read_text()
    section = re.search(r"## Quick start\n(.*?)\n## ", text, flags=re.S).group(1)
    script = "\n".join(re.findall(r"```sh\n(.*?)```", section, flags=re.S))
    script, n = re.subn(r"--iterations \d+ --burn-in \d+", "--iterations 12 --burn-in 4",
                        script.replace("\\\n", " "))
    assert n == 1
    commands = [shlex.split(line) for line in script.splitlines() if line.strip()]
    assert [c[1] for c in commands] == ["project", "simulate", "sample", "summarize",
                                        "diagnose"]
    (tmp_path / "data").symlink_to(ROOT / "data")  # the commands read data/demo
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "demrecon"
        assert main(argv[1:]) == 0, argv
    for out in ("proj/projection.csv", "fit/samples.csv", "fit/summary.csv",
                "fit/diagnostics.csv"):
        assert (tmp_path / "out" / out).is_file()
