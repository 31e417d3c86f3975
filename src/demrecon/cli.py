"""Command-line entry points.

Five subcommands cover the pipeline:

  project    deterministic projection of a parameter set
  sample     posterior sampling, writes samples.csv + manifest.json
  summarize  credible intervals, exceedance and trend probabilities
  diagnose   run-length and multi-chain convergence diagnostics
  simulate   synthetic dataset with known truth, for calibration studies

Exit codes: 0 success, 2 invalid inputs or configuration, 3 a run that
started but could not continue.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import io
from .diagnostics import check_run_length_settings, gelman_rubin, raftery_lewis
from .grid import PARAM_CLASSES, validate
from .priors import ElicitationError, beta_from_elicitation
from .projection import project_full
from .sampler import (SAMPLER_SETTINGS, ConfigError, SamplerConfig, parameter_names,
                      run_chain)
from .summaries import COMPARISONS, INDICATOR_NAMES, check_statistics, summary_rows

VALIDATION_EXIT = 2
RUNTIME_EXIT = 3


class _Invalid(Exception):
    """Input or configuration problem: exit code 2."""


def _validated(grid, theta=None, census=None):
    violations = validate(grid, theta, census)
    if violations:
        raise _Invalid("invalid inputs:\n" + "\n".join(violations))


def _cmd_project(args) -> int:
    grid = io.load_grid(args.grid)
    _validated(grid)
    theta = io.load_theta(args.initial_estimates_dir, grid)
    _validated(grid, theta)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by first_negative below
        traj = project_full(theta.baseline, theta, grid)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "projection.csv"
    io.write_trajectory(path, traj)
    neg = traj.first_negative()
    if neg is not None:
        print(f"warning: negative or non-finite count at year={neg[0]} age={neg[1]} sex={neg[2]}")
    print(f"wrote {path}")
    return 0


def _cmd_sample(args) -> int:
    configs = (args.grid, args.elicitation)
    grid = io.load_grid(configs)
    _validated(grid)
    theta = io.load_theta(args.initial_estimates_dir, grid)
    census = io.load_census(args.census, grid)
    elic = io.load_elicitation(configs)
    _validated(grid, theta, census)
    hyper = beta_from_elicitation(elic, theta)
    flags = {k: v for k in SAMPLER_SETTINGS if (v := getattr(args, k)) is not None}
    config = SamplerConfig(**{**io.load_sampler_settings(configs), **flags})
    config.check()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)  # before sampling, so a bad path costs no run

    started = time.monotonic()
    sample = run_chain(config, grid, theta, census, hyper)
    elapsed = time.monotonic() - started

    io.write_samples(out / "samples.csv", sample)
    inputs = [args.grid, args.elicitation]
    inputs += sorted(str(p) for p in Path(args.initial_estimates_dir).glob("*.csv"))
    inputs += sorted(str(p) for p in Path(args.census).glob("*.csv"))
    settings = {k: getattr(config, k) for k in SAMPLER_SETTINGS if k != "seed"}
    manifest = io.make_manifest(config.seed, settings, grid, elic, hyper,
                                inputs, elapsed)
    manifest.write(out / "manifest.json")
    print(f"wrote {out / 'samples.csv'} ({sample.n_draws} draws,"
          f" {config.chains} chain(s)) and {out / 'manifest.json'}")
    return 0


def _parse_threshold(expr: str):
    for op in COMPARISONS:
        if op in expr:
            name, value = expr.split(op, 1)
            try:
                if np.isfinite(value := float(value)):
                    return name.strip(), op, value
            except ValueError:
                pass
            break
    raise _Invalid(f"threshold {expr!r} must look like 'srb>1.06', with a finite number")


def _parse_joint(expr: str):
    label, _, body = expr.partition("=")
    if not body:
        label, body = expr, expr
    preds = []
    for part in body.split(";"):
        bits = part.strip().split(":")
        try:
            if len(bits) == 4 and bits[3] in (">", "<"):
                preds.append((bits[0], int(bits[1]), int(bits[2]), bits[3]))
                continue
        except ValueError:  # a year that is not an integer
            pass
        raise _Invalid(f"joint predicate {part!r} must be indicator:yearA:yearB:> or :<")
    return label or body, tuple(preds)  # an empty label is named by its predicates


def _sample_grid(sample_dir):
    """Grid of a sample directory, from its manifest, validated."""
    grid = io.RunManifest.read(Path(sample_dir) / "manifest.json").to_grid()
    _validated(grid)
    return grid


def _cmd_summarize(args) -> int:
    # a value given again in a repeated flag counts once, where it was first given
    indicators = list(dict.fromkeys(args.indicator or ["srb", "tfr", "e0_female", "e0_male"]))
    probs = list(dict.fromkeys(args.prob or [0.025, 0.5, 0.975]))
    thresholds = list(dict.fromkeys(_parse_threshold(t) for t in args.threshold or []))
    trends = list(dict.fromkeys(args.trend or []))
    joints = {}  # label -> predicates
    for label, preds in map(_parse_joint, args.joint or []):
        if joints.setdefault(label, preds) != preds:
            raise _Invalid(f"joint label {label!r} is given to different predicates")
    named = indicators + [t[0] for t in thresholds] + trends \
        + [pred[0] for preds in joints.values() for pred in preds]
    unknown = [n for n in dict.fromkeys(named) if n not in INDICATOR_NAMES]
    if unknown:
        raise _Invalid(f"unknown indicators {unknown}; choose from {list(INDICATOR_NAMES)}")
    if not all(0.0 <= p <= 1.0 for p in probs):
        raise _Invalid(f"probabilities {probs} must lie in [0, 1]")
    grid = _sample_grid(args.sample_dir)
    try:
        check_statistics(grid, thresholds, trends, joints.items())
    except ValueError as e:
        raise _Invalid(str(e)) from None
    sample = io.read_samples(Path(args.sample_dir) / "samples.csv", grid)
    try:
        rows = summary_rows(sample, indicators, probs=probs, thresholds=thresholds,
                            trends=trends, joints=joints.items())
    except ValueError as e:  # draws outside an indicator's domain
        raise RuntimeError(f"cannot summarize {args.sample_dir}: {e}") from e
    out = Path(args.out_dir or args.sample_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "summary.csv"
    io.write_rows(path, rows, ["indicator", "year", "statistic", "value"])
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _cmd_diagnose(args) -> int:
    try:
        check_run_length_settings(args.q, args.r, args.s)
    except ValueError as e:
        raise _Invalid(f"--q {args.q:g} --r {args.r:g} --s {args.s:g}: {e}") from None
    grid = _sample_grid(args.sample_dir)
    names = parameter_names(grid)
    column = {n: i for i, n in enumerate(names)}
    wanted = list(dict.fromkeys(args.parameter or names))  # a name given again counts once
    unknown = [n for n in wanted if n not in column]
    if unknown:
        raise _Invalid(f"unknown parameters {unknown[:5]}")
    sample = io.read_samples(Path(args.sample_dir) / "samples.csv", grid)
    flat = sample.flat()
    # read_samples sorts rows by (chain, draw): each chain is one block of rows
    _, starts, lengths = np.unique(sample.chain, return_index=True, return_counts=True)
    first = flat[:lengths[0]]
    gr, gr_note = None, ""
    if len(starts) >= 2:
        n = lengths.min()
        cols = [column[p] for p in wanted] if args.parameter else slice(None)
        try:
            gr = gelman_rubin([flat[a:a + n, cols] for a in starts])
        except ValueError as e:
            gr_note = str(e)

    rows = []
    for k, name in enumerate(wanted):
        row = {"parameter": name, "nmin": "", "burn_in": "", "n_required": "",
               "thin": "", "dependence": "", "gelman_rubin": "", "note": ""}
        try:
            rep = raftery_lewis(first[:, column[name]], q=args.q, r=args.r, s=args.s)
            row.update(nmin=rep.nmin, burn_in=rep.burn_in, n_required=rep.n_required,
                       thin=rep.thin, dependence=f"{rep.dependence:.4g}")
        except ValueError as e:
            row["note"] = str(e)
        if gr is not None:
            row["gelman_rubin"] = f"{gr[k]:.4g}"
        elif gr_note:
            row["note"] = (row["note"] + "; " if row["note"] else "") + gr_note
        rows.append(row)

    out = Path(args.out_dir or args.sample_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "diagnostics.csv"
    io.write_rows(path, rows, ["parameter", "nmin", "burn_in", "n_required",
                               "thin", "dependence", "gelman_rubin", "note"])
    done = [r for r in rows if r["dependence"] != ""]
    if done:
        worst = max(done, key=lambda r: float(r["dependence"]))
        print(f"wrote {path}; largest dependence factor {worst['dependence']}"
              f" ({worst['parameter']})")
    else:
        print(f"wrote {path}; no parameter had a long enough chain, see the note column")
    return 0


def _cmd_simulate(args) -> int:
    from .simulate import simulate_dataset

    seed = args.seed or 0
    SamplerConfig(seed=seed).check()  # the sampler's rule for a seed
    configs = (args.grid, args.elicitation)
    grid = io.load_grid(configs)
    _validated(grid)
    if not grid.likelihood_years:
        raise _Invalid(f"{args.grid}: simulate needs a census year after the baseline year")
    center = io.load_theta(args.initial_estimates_dir, grid)
    elic = io.load_elicitation(configs)
    _validated(grid, center)
    hyper = beta_from_elicitation(elic, center)
    data = simulate_dataset(grid, center, hyper, seed=seed)

    out = Path(args.out_dir)
    io.write_theta(out / "initial", center, grid)
    io.write_census(out / "census", data.census, grid)
    io.write_theta(out / "truth" / "theta", data.theta_true, grid)
    io.write_rows(out / "truth" / "variances.csv",
                  [{"class": c, "value": repr(v)}
                   for c, v in zip(PARAM_CLASSES, data.variances_true.tolist())],
                  ["class", "value"])
    inputs = [args.grid, args.elicitation]
    inputs += sorted(str(p) for p in Path(args.initial_estimates_dir).glob("*.csv"))
    manifest = io.make_manifest(seed, {"command": "simulate"}, grid,
                                elic, hyper, inputs, 0.0)
    manifest.write(out / "manifest.json")
    print(f"wrote synthetic dataset under {out}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="demrecon",
                                 description="Bayesian two-sex population reconstruction")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="run the deterministic projection")
    p.add_argument("--grid", required=True)
    p.add_argument("--initial-estimates-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("sample", help="draw from the posterior")
    p.add_argument("--grid", required=True)
    p.add_argument("--initial-estimates-dir", required=True)
    p.add_argument("--census", required=True)
    p.add_argument("--elicitation", required=True)
    for key in SAMPLER_SETTINGS:
        p.add_argument("--" + key.replace("_", "-"), type=int, dest=key)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("summarize", help="summary tables from a sample")
    p.add_argument("--sample-dir", required=True)
    p.add_argument("--indicator", action="append")
    p.add_argument("--prob", action="append", type=float)
    p.add_argument("--threshold", action="append",
                   help="e.g. 'srb>1.06'; repeatable")
    p.add_argument("--trend", action="append",
                   help="indicator name; adds endpoint-change and slope posteriors")
    p.add_argument("--joint", action="append",
                   help="e.g. 'dip=srb:1960:1980:<;srb:1985:1995:>'")
    p.add_argument("--out-dir")
    p.set_defaults(fn=_cmd_summarize)

    p = sub.add_parser("diagnose", help="run-length and convergence diagnostics")
    p.add_argument("--sample-dir", required=True)
    p.add_argument("--q", type=float, default=0.025)
    p.add_argument("--r", type=float, default=0.005)
    p.add_argument("--s", type=float, default=0.95)
    p.add_argument("--parameter", action="append")
    p.add_argument("--out-dir")
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("simulate", help="synthetic dataset with known truth")
    p.add_argument("--grid", required=True)
    p.add_argument("--initial-estimates-dir", required=True,
                   help="directory with the center of the generating prior")
    p.add_argument("--elicitation", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_simulate)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (io.ParseError, _Invalid, ConfigError, ElicitationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return VALIDATION_EXIT
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError) as e:
        # a missing path, or a directory where a file should be or the reverse
        what = "exists and is not a directory" if isinstance(e, FileExistsError) else e.strerror
        print(f"error: {e.filename}: {what}", file=sys.stderr)
        return VALIDATION_EXIT
    except (RuntimeError, MemoryError, OSError) as e:  # SamplingError; a refused fork
        print(f"error: {e}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
