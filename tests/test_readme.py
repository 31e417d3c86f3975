"""The Python examples in README.md run as written, with fewer iterations,
and the names its API list mentions exist in the package."""

import re
from functools import reduce
from pathlib import Path

import numpy as np

import demrecon

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


def test_readme_api_list_names_exported_functions():
    text = (ROOT / "README.md").read_text()
    para = re.search(r"Lower-level entry points.*?\n\n", text, flags=re.S).group(0)
    names = re.findall(r"`([^`]+)`", para)
    assert len(names) >= 10
    for name in names:
        assert reduce(getattr, name.split("."), demrecon), name
