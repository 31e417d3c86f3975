"""Spans and counts recorded from outside the program.

A traced operation swaps the names that callers look up (module
attributes such as ``demrecon.sampler._step_counts`` and methods of
``ChainState``) for wrappers that record a span per call: name, start,
end, the enclosing span and the run id of the operation. The program's
files are not touched, and the originals are restored when the
operation ends. Spans and counts stay in memory until ``write``.
"""

from __future__ import annotations

import csv
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from demrecon import cli, io, sampler, simulate, summaries


def _indicator_span(args, kwargs):
    name = args[1] if len(args) > 1 else kwargs["name"]
    return f"summaries.indicator.{name}"


def _component_result(tracer, result):
    accepted, aprob = result
    tracer.count("update_component.accepted", accepted)
    tracer.count("update_component.zero_prob", not accepted and aprob == 0.0)


# (owner, attribute, span name or function of the call's arguments,
#  optional observer of the result). The owner is where the caller
# looks the name up, so each binding of a shared function is listed.
BINDINGS = [
    (sampler, "_step_counts", "projection.step", None),
    (sampler.ChainState, "__init__", "sampler.chain_init", None),
    (sampler.ChainState, "update_component", "sampler.update_component", _component_result),
    (sampler.ChainState, "update_variances", "sampler.update_variances", None),
    (cli, "run_chain", "sampler.run_chain", None),
    (cli, "project_full", "projection.project_full", None),
    (summaries, "project_full", "projection.project_full", None),
    (simulate, "project_full", "projection.project_full", None),
    (cli, "validate", "grid.validate", None),
    (cli, "summary_rows", "summaries.summary_rows", None),
    (summaries, "indicator_trajectories", _indicator_span, None),
    (cli, "raftery_lewis", "diagnostics.raftery_lewis", None),
    (cli, "gelman_rubin", "diagnostics.gelman_rubin", None),
    (simulate, "simulate_dataset", "simulate.simulate_dataset", None),
    (simulate, "prior_sample", "simulate.prior_sample", None),
] + [
    (io, fn, f"io.{fn}", None) for fn in (
        "load_grid", "load_theta", "load_census", "load_elicitation",
        "load_sampler_settings", "read_samples", "write_samples", "write_rows",
        "write_theta", "write_census", "write_trajectory", "make_manifest")
]


class Tracer:
    """In-memory spans and counts of one benchmark run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, run id)
        self.counts = Counter()  # (run id, key) -> count
        self.run = -1
        self._stack = []
        self._t0 = time.perf_counter()

    def count(self, key: str, n=1):
        self.counts[(self.run, key)] += int(n)

    def wrap(self, name, fn, observe=None):
        """fn, recording a span per call; name is a string or a function
        of the call's (args, kwargs)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                label = name if isinstance(name, str) else name(args, kwargs)
                spans[idx] = (label, t0, t1, parent, self.run)
            if observe is not None:
                observe(self, result)
            return result

        return traced

    @contextmanager
    def active(self, run: int):
        """Install every wrapper for one operation, then restore the originals."""
        self.run = run
        saved = []
        try:
            for owner, attr, name, observe in BINDINGS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, observe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, spans_path, counts_path, labels: dict):
        """Spans as CSV (times in seconds from the tracer's start) and
        counts as JSON; labels maps run ids to operation names."""
        with open(spans_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["run", "operation", "id", "parent", "name", "start_s", "end_s"])
            for i, (name, t0, t1, parent, run) in enumerate(self.spans):
                w.writerow([run, labels.get(run, ""), i, parent, name,
                            f"{t0 - self._t0:.9f}", f"{t1 - self._t0:.9f}"])
        by_run = {}
        for (run, key), n in sorted(self.counts.items()):
            by_run.setdefault(str(run), {})[key] = n
        with open(counts_path, "w") as fh:
            json.dump({"labels": {str(k): v for k, v in labels.items()},
                       "counts": by_run}, fh, indent=1, sort_keys=True)

    def by_run(self) -> dict:
        """Run id -> [(span index, span)]."""
        out = defaultdict(list)
        for i, s in enumerate(self.spans):
            out[s[4]].append((i, s))
        return out


def self_times(spans: list) -> dict:
    """Self time of every span of one run: its duration minus the time
    its direct children cover."""
    child = Counter()
    for _, (_, t0, t1, parent, _) in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return {i: (s[2] - s[1]) - child[i] for i, s in spans}


REP_LAYERS = ("cli", "sampler", "projection", "io", "summaries", "diagnostics", "grid")


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _dur(span) -> float:
    return span[2] - span[1]


def _rep_metrics(tracer: Tracer, index: dict, runs: dict) -> dict:
    """Per-layer numbers of one traced repetition; runs maps each
    operation (project, sample, summarize, diagnose) to its run id."""
    m = {}
    spans = {op: index[run] for op, run in runs.items()}
    selfs = {op: self_times(spans[op]) for op in runs}

    def named(op, name):
        return [(i, s) for i, s in spans[op] if s[0] == name]

    # sampler and its projection steps (chain start-up excluded)
    uc = named("sample", "sampler.update_component")
    uc_ids = {i for i, _ in uc}
    steps = named("sample", "projection.step")
    sweep_steps = [s for _, s in steps if s[3] in uc_ids]
    sweeps = len(named("sample", "sampler.update_variances"))
    run_chain = sum(_dur(s) for _, s in named("sample", "sampler.run_chain"))
    init = sum(_dur(s) for _, s in named("sample", "sampler.chain_init"))
    uc_time = sum(_dur(s) for _, s in uc)
    n_uc = max(len(uc), 1)
    sample_run = runs["sample"]
    m["projection.step_calls_per_sweep"] = len(sweep_steps) / sweeps
    m["projection.step_us"] = 1e6 * _mean([_dur(s) for _, s in steps])
    m["sampler.run_chain_s"] = run_chain
    m["sampler.sweep_ms"] = 1e3 * (run_chain - init) / sweeps
    m["sampler.update_component_calls_per_sweep"] = len(uc) / sweeps
    m["sampler.update_component_us"] = 1e6 * uc_time / n_uc
    m["sampler.update_component_self_us"] = 1e6 * (uc_time - sum(map(_dur, sweep_steps))) / n_uc
    m["sampler.update_variances_us"] = 1e6 * _mean(
        [_dur(s) for _, s in named("sample", "sampler.update_variances")])
    m["sampler.accept_frac"] = tracer.counts[(sample_run, "update_component.accepted")] / n_uc
    m["sampler.reject_zero_prob_frac"] = \
        tracer.counts[(sample_run, "update_component.zero_prob")] / n_uc

    # io
    m["io.load_inputs_ms"] = 1e3 * sum(
        _dur(s) for _, s in spans["sample"] if s[0].startswith("io.load_"))
    m["io.write_samples_s"] = sum(_dur(s) for _, s in named("sample", "io.write_samples"))
    m["io.read_samples_s"] = _mean([_dur(s) for op in ("summarize", "diagnose")
                                    for _, s in named(op, "io.read_samples")])

    # summaries and diagnostics
    m["summaries.summary_rows_s"] = sum(
        _dur(s) for _, s in named("summarize", "summaries.summary_rows"))
    for name in summaries.INDICATOR_NAMES:
        m[f"summaries.indicator_ms.{name}"] = 1e3 * sum(
            _dur(s) for _, s in named("summarize", f"summaries.indicator.{name}"))
    rl = named("diagnose", "diagnostics.raftery_lewis")
    m["diagnostics.raftery_lewis_calls"] = len(rl)
    m["diagnostics.raftery_lewis_ms"] = 1e3 * sum(_dur(s) for _, s in rl)
    m["diagnostics.gelman_rubin_ms"] = 1e3 * sum(
        _dur(s) for _, s in named("diagnose", "diagnostics.gelman_rubin"))

    # across the whole repetition
    every = [s for op in runs for _, s in spans[op]]
    pf = [_dur(s) for s in every if s[0] == "projection.project_full"]
    m["projection.project_full_calls"] = len(pf)
    m["projection.project_full_us"] = 1e6 * _mean(pf)
    m["grid.validate_ms"] = 1e3 * _mean([_dur(s) for s in every if s[0] == "grid.validate"])
    for op in runs:
        m[f"cli.{op}_self_s"] = sum(selfs[op][i] for i, s in spans[op] if s[0] == f"cli.{op}")
    for layer in REP_LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[op][i] for op in runs for i, s in spans[op]
                                   if s[0].split(".", 1)[0] == layer)
    return m


def _setup_metrics(spans: list) -> dict:
    """Per-layer numbers of one traced set-up."""
    selfs = self_times(spans)
    return {
        "simulate.simulate_dataset_ms": 1e3 * sum(
            _dur(s) for _, s in spans if s[0] == "simulate.simulate_dataset"),
        "simulate.prior_sample_s": sum(
            _dur(s) for _, s in spans if s[0] == "simulate.prior_sample"),
        "simulate.self_s": sum(selfs[i] for i, s in spans if s[0].startswith("simulate.")),
        "cli.simulate_self_s": sum(selfs[i] for i, s in spans if s[0] == "cli.simulate"),
    }


def layer_metrics(tracer: Tracer, setup_runs: list, reps: list) -> dict:
    """Median over traced set-ups and repetitions of each per-layer number."""
    index = tracer.by_run()
    out = {}
    for rows in ([_setup_metrics(index[r]) for r in setup_runs],
                 [_rep_metrics(tracer, index, runs) for runs in reps]):
        for key in rows[0]:
            out[key] = statistics.median(row[key] for row in rows)
    return out
