"""Workload definitions and the generators of their inputs.

Every input a workload feeds the program is made here from the seed:
the grid file, the initial estimates, the elicitation file, the census
(through ``demrecon simulate``) and, for ``postprocess``, a prior sample
written with the package's own sample writer. The only files read from
the repository are the demo grid, initial estimates and elicitation
under ``data/demo``, which the generators start from.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from demrecon import INDICATOR_NAMES, ModelGrid, ThetaVector, beta_from_elicitation
from demrecon import io, simulate

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "data" / "demo"
DEFAULT_SEED = 0

# loose enough that Raftery-Lewis runs on the 1000-draw chains of the
# postprocess sample (Nmin = 937 at q=0.025, s=0.95) instead of
# returning the too-short note
DIAGNOSE_R = 0.01


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Each timed repetition runs ``project`` (the projection gate), then
    ``sample`` with the settings below, then ``summarize`` and
    ``diagnose``. Those two read the fit just made, or a prior sample
    of ``prior_draws`` draws (2 chains) when that is nonzero.
    """

    name: str
    why: str
    grid: str  # "demo" or "long"
    chains: int
    iterations: int
    burn_in: int
    prior_draws: int = 0


WORKLOADS = {
    w.name: w for w in (
        Workload("demo-fit",
                 "demo grid (K=17, P=4) fitted with 4 chains: short suffixes,"
                 " so per-call overhead dominates and lockstep chains have 4 chains to batch",
                 grid="demo", chains=4, iterations=8, burn_in=4),
        Workload("long-grid-fit",
                 "1950-2010 grid (P=12) fitted with 1 chain: long suffixes and"
                 " per-step arithmetic dominate, and chain batching has nothing to batch",
                 grid="long", chains=1, iterations=6, burn_in=3),
        Workload("postprocess",
                 "summarize and diagnose a 2000-draw, 2-chain prior sample: batch"
                 " re-projection and sample reads, with almost no sampler work",
                 grid="demo", chains=2, iterations=8, burn_in=4, prior_draws=2000),
    )
}


def base_problem(kind: str):
    """Grid, initial estimates and elicitation of a workload.

    ``demo`` is the shipped demo. ``long`` is a 1950-2010 grid made by
    tiling the demo's four period columns three times, with the demo
    baseline as the 1950 population.
    """
    grid = io.load_grid(DEMO / "grid.yaml")
    theta = io.load_theta(DEMO / "initial", grid)
    elic = io.load_elicitation(DEMO / "elicitation.yaml")
    if kind == "demo":
        return grid, theta, elic
    if kind != "long":
        raise ValueError(f"unknown grid kind {kind!r}")
    long_grid = dataclasses.replace(grid, start_year=1950, end_year=2010,
                                    census_years=(1950, 1970, 1990, 2010))
    tiled = ThetaVector(
        baseline=theta.baseline,
        fertility=np.tile(theta.fertility, (1, 3)),
        survival=np.tile(theta.survival, (1, 3, 1)),
        migration=np.tile(theta.migration, (1, 3, 1)),
        srb=np.tile(theta.srb, 3),
    )
    return long_grid, tiled, elic


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs: the grid and the paths the CLI reads."""

    grid: ModelGrid
    grid_file: Path
    elicitation: Path
    initial: Path
    census: Path
    prior: Path = None  # sample directory of the prior sample, if any

    @property
    def years(self) -> tuple:
        return tuple(int(y) for y in self.grid.period_years)


def generate(workload: Workload, seed: int, dest: Path, cli_main):
    """Write the workload's inputs under dest; the benchmark's set-up step.

    The census comes from ``demrecon simulate --seed seed`` through
    cli_main, so the same seed gives the same bytes. Returns the Inputs
    and the prior sample (None when the workload has none).
    """
    dest.mkdir(parents=True, exist_ok=True)
    grid, theta, elic = base_problem(workload.grid)
    grid_path = dest / "grid.yaml"
    grid_path.write_text(yaml.safe_dump({"grid": io.grid_as_dict(grid)}))
    elic_path = dest / "elicitation.yaml"
    elic_path.write_text(yaml.safe_dump(
        {"elicitation": {"eta": dict(elic.eta), "alpha": dict(elic.alpha)}}))
    io.write_theta(dest / "center", theta, grid)
    sim = dest / "sim"
    cli_main(["simulate", "--grid", str(grid_path), "--initial-estimates-dir",
              str(dest / "center"), "--elicitation", str(elic_path),
              "--seed", str(seed), "--out-dir", str(sim)])
    inputs = Inputs(grid=grid, grid_file=grid_path, elicitation=elic_path,
                    initial=sim / "initial", census=sim / "census")
    if not workload.prior_draws:
        return inputs, None
    prior = dest / "prior"
    prior.mkdir(exist_ok=True)
    sample = write_prior_sample(grid, theta, elic, workload.prior_draws, seed, prior)
    return dataclasses.replace(inputs, prior=prior), sample


def write_prior_sample(grid: ModelGrid, theta: ThetaVector, elic, n_draws: int,
                       seed: int, out: Path):
    """Draw n_draws from the prior, label them as 2 chains and store them
    the way ``demrecon sample`` does: samples.csv plus manifest.json."""
    hyper = beta_from_elicitation(elic, theta)
    sample = simulate.prior_sample(theta, hyper, grid, n_draws, seed=seed)
    half = n_draws // 2
    sample = dataclasses.replace(
        sample, chain=np.repeat(np.array([0, 1], dtype=np.int64), [half, n_draws - half]),
        config=dataclasses.replace(sample.config, chains=2))
    io.write_samples(out / "samples.csv", sample)
    settings = {"iterations": n_draws, "burn_in": 0, "thin": 1, "chains": 2}
    io.make_manifest(seed, settings, grid, elic, hyper, [], 0.0).write(out / "manifest.json")
    return sample


def project_argv(out: Path) -> list:
    return ["project", "--grid", str(DEMO / "grid.yaml"),
            "--initial-estimates-dir", str(DEMO / "initial"), "--out-dir", str(out)]


def sample_argv(workload: Workload, inputs: Inputs, seed: int, out: Path) -> list:
    return ["sample", "--grid", str(inputs.grid_file),
            "--initial-estimates-dir", str(inputs.initial),
            "--census", str(inputs.census), "--elicitation", str(inputs.elicitation),
            "--iterations", str(workload.iterations), "--burn-in", str(workload.burn_in),
            "--chains", str(workload.chains), "--seed", str(seed), "--out-dir", str(out)]


def summarize_argv(sample_dir: Path, years: tuple, out: Path) -> list:
    """All 12 indicators, plus one threshold, one trend and one joint."""
    argv = ["summarize", "--sample-dir", str(sample_dir), "--out-dir", str(out)]
    for name in INDICATOR_NAMES:
        argv += ["--indicator", name]
    first, last = years[0], years[-1]
    return argv + ["--threshold", "srb>1.05", "--trend", "e0_female",
                   "--joint", f"srb_up=srb:{first}:{last}:>"]


def diagnose_argv(sample_dir: Path, out: Path) -> list:
    """Every parameter of the grid."""
    return ["diagnose", "--sample-dir", str(sample_dir), "--r", str(DIAGNOSE_R),
            "--out-dir", str(out)]
