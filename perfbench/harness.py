"""The benchmark harness: one workload per process, driven through the CLI.

Each run generates the workload's inputs from the seed (the set-up,
repeated and timed), then repeats ``project``, ``sample``,
``summarize`` and ``diagnose`` through ``demrecon.cli.main`` until
``--seconds`` have passed, checking every output. With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates untraced and traced repetitions and reports the per-layer
metrics. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io as _stdio
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from demrecon import cli

import gates
import tracing
import workloads

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK_ROOT = REPO / ".perfbench-work"
TRACE_ROOT = REPO / ".perfbench-out"

# The reference VM shares its cores with other tenants, and its speed
# drifts by up to 3x within minutes, also while one command runs. So
# every reported time is scaled by the speed of a fixed probe loop of
# the same kind of work as the package's (small numpy operations and
# float formatting), timed right before, every PROBE_INTERVAL_S during
# (from a SIGALRM timer) and right after the call:
#   reported = (wall - time in probes) * PROBE_REF_S / median(probe times)
# Values are seconds at the speed where the loop takes PROBE_REF_S,
# about this machine's uncontended speed.
PROBE_REF_S = 0.4e-3
PROBE_INTERVAL_S = 0.025
PROBE_EDGE = 8

MIN_REPS = 3
MIN_TRACED_PAIRS = 2
# set-up is repeated at least MIN_SETUPS times, and further while the
# set-ups so far took less than SETUP_BUDGET_S, up to MAX_SETUPS
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 15, 1.0


def _probe_loop():
    a = np.linspace(1.0, 2.0, 34).reshape(17, 2)
    acc = 0.0
    for i in range(50):
        b = a * (1.0 + 1e-3 * i)
        c = np.empty_like(b)
        c[1:] = b[:-1] * 0.99
        c[0] = b.sum()
        acc += float(np.sum(c * c))
        acc += float(repr(acc)[:8])
    return acc


class SpeedProbe:
    """Times one call and scales it to the reference speed."""

    def __init__(self):
        self.samples = []
        self.inside_s = 0.0

    def _sample(self):
        t0 = time.perf_counter()
        _probe_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._sample()
        self.inside_s += time.perf_counter() - t0

    def measure(self, fn):
        """(fn(), its scaled seconds)."""
        for _ in range(PROBE_EDGE):
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            inside = self.inside_s
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(PROBE_EDGE):
            self._sample()
        return result, (t1 - t0 - inside) * PROBE_REF_S / self.speed()

    def speed(self) -> float:
        """Median probe time."""
        return statistics.median(self.samples)


class Bench:
    """One workload's set-up, timed repetitions and their checks."""

    def __init__(self, workload, seed, work, tracer=None, reference=True):
        self.w = workload
        self.seed = seed
        self.work = Path(work)
        self.tracer = tracer
        self.reference = reference  # compare with the recorded outputs at the default seed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.labels = {}  # run id -> operation label
        self.setup_s = []
        self.setup_runs = []
        self.times = {"sample": [], "summarize": [], "diagnose": []}
        self.traced_sample_s = []
        self.probe_s = []  # median probe time of each scaled call
        self.traced_reps = []  # {operation: run id} per traced repetition
        self.inputs = None
        self.prior = None
        self.fit = None
        self.fit_digest = None

    # -- bookkeeping ------------------------------------------------------

    def _record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {problems[0]}")

    def _new_run(self, label):
        run = len(self.labels)
        self.labels[run] = label
        return run

    def _scaled(self, fn):
        """(fn(), its seconds scaled to the reference speed)."""
        probe = SpeedProbe()
        result, seconds = probe.measure(fn)
        self.probe_s.append(probe.speed())
        return result, seconds

    def _cli(self, argv, traced, scaled=False):
        """Run one CLI command; returns (exit code or error text, scaled
        seconds, or None when not scaled)."""
        main = self.tracer.wrap(f"cli.{argv[0]}", cli.main) if traced else cli.main

        def call():
            try:
                return main(argv)
            except (Exception, SystemExit):
                return traceback.format_exc(limit=3)

        sink = _stdio.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code, seconds = self._scaled(call) if scaled else (call(), None)
        if code != 0:
            code = f"exit {code}: {sink.getvalue()[-500:]}" if isinstance(code, int) else code
        return code, seconds

    def _op(self, label, argv, gate, traced, run=None, scaled=True):
        """Run one command and check its output; returns its scaled
        seconds (None when not scaled)."""
        if traced:
            with self.tracer.active(run):
                code, seconds = self._cli(argv, traced=True, scaled=scaled)
        else:
            code, seconds = self._cli(argv, traced=False, scaled=scaled)
        if code != 0:
            self._record(label, [str(code)])
        else:
            try:
                self._record(label, gate())
            except Exception:
                self._record(label, [traceback.format_exc(limit=3)])
        return seconds

    # -- set-up -----------------------------------------------------------

    def _setup_once(self, i, traced):
        dest = self.work / f"inputs{i}"
        run = self._new_run(f"setup{i}") if traced else None

        def simulate_cmd(argv):
            code, _ = self._cli(argv, traced)
            if code != 0:
                raise RuntimeError(f"demrecon simulate failed: {code}")

        generate = workloads.generate
        if traced:
            generate = self.tracer.wrap("bench.setup", generate)
        with self.tracer.active(run) if traced else contextlib.nullcontext():
            (inputs, prior), seconds = self._scaled(
                lambda: generate(self.w, self.seed, dest, simulate_cmd))
        self.setup_s.append(seconds)
        if traced:
            self.setup_runs.append(run)
        return inputs, prior

    def setup(self):
        i = 0
        while i < MIN_SETUPS or (sum(self.setup_s) < SETUP_BUDGET_S and i < MAX_SETUPS):
            if self.inputs is not None:
                shutil.rmtree(self.inputs.grid_file.parent)
            self.inputs, self.prior = self._setup_once(i, traced=self.tracer is not None)
            i += 1
        if self.prior is not None:
            self._record("prior sample", gates.check_draws(self.prior))

    # -- timed repetitions --------------------------------------------------

    def _check_fit(self, out):
        sample = gates.read_sample_dir(out)
        problems = gates.check_draws(sample)
        digest = gates.sample_digest(sample)
        if self.fit_digest is None:
            self.fit_digest = digest
        elif digest != self.fit_digest:
            problems.append("draws differ from the first repetition's")
        if self.reference and self.seed == workloads.DEFAULT_SEED:
            want = _reference()["samples_sha256"][self.w.name]
            if digest != want:
                problems.append(f"draws digest {digest[:16]} differs from the recorded {want[:16]}")
        self.fit = sample
        return problems

    def _check_summary(self, path):
        problems = gates.check_summary(path, self.prior if self.prior is not None else self.fit)
        if self._compare_reference():
            problems += gates.check_reference(path, HERE / "reference" / "postprocess-summary.csv")
        return problems

    def _check_diagnostics(self, path, grid):
        problems = gates.check_diagnostics(path, grid)
        if self._compare_reference():
            problems += gates.check_reference(path, HERE / "reference" / "postprocess-diagnostics.csv")
        return problems

    def _compare_reference(self):
        return self.reference and self.prior is not None and self.seed == workloads.DEFAULT_SEED

    def rep(self, k, traced):
        """One repetition: project, sample, summarize, diagnose."""
        w, inputs, work = self.w, self.inputs, self.work
        runs = {op: self._new_run(f"rep{k}/{op}") for op in
                ("project", "sample", "summarize", "diagnose")} if traced else {}
        proj = work / "proj"
        self._op("project", workloads.project_argv(proj),
                 lambda: gates.check_projection(proj / "projection.csv",
                                                workloads.DEMO / "expected_projection.csv"),
                 traced, runs.get("project"), scaled=False)
        fit = work / "fit"
        shutil.rmtree(fit, ignore_errors=True)
        t_sample = self._op("sample", workloads.sample_argv(w, inputs, self.seed, fit),
                            lambda: self._check_fit(fit), traced, runs.get("sample"))
        target = inputs.prior or fit
        t_sum = self._op("summarize", workloads.summarize_argv(target, inputs.years, work / "sum"),
                         lambda: self._check_summary(work / "sum" / "summary.csv"),
                         traced, runs.get("summarize"))
        t_diag = self._op("diagnose", workloads.diagnose_argv(target, work / "diag"),
                          lambda: self._check_diagnostics(work / "diag" / "diagnostics.csv", inputs.grid),
                          traced, runs.get("diagnose"))
        if traced:
            self.traced_sample_s.append(t_sample)
            self.traced_reps.append(runs)
        else:
            self.times["sample"].append(t_sample)
            self.times["summarize"].append(t_sum)
            self.times["diagnose"].append(t_diag)

    def timed(self, seconds):
        """Repeat until ``seconds`` have passed; with a tracer, alternate
        untraced and traced repetitions, untraced first."""
        min_reps = 2 * MIN_TRACED_PAIRS if self.tracer else MIN_REPS
        start = time.perf_counter()
        k = 0
        while k < min_reps or time.perf_counter() - start < seconds:
            self.rep(k, traced=self.tracer is not None and k % 2 == 1)
            k += 1

    # -- results ------------------------------------------------------------

    def store_bytes(self):
        """Bytes of the stored sample that summarize and diagnose read,
        and its number of draws."""
        target = self.inputs.prior or self.work / "fit"
        sample = self.prior if self.prior is not None else self.fit
        return (target / "samples.csv").stat().st_size, sample.n_draws

    def end_to_end(self):
        nbytes, _ = self.store_bytes()
        return {
            "setup_s": statistics.median(self.setup_s),
            "sample_s": statistics.median(self.times["sample"]),
            "summarize_s": statistics.median(self.times["summarize"]),
            "diagnose_s": statistics.median(self.times["diagnose"]),
            "sample_store_mb": nbytes / 1e6,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ok_frac": (self.attempted - self.failed) / self.attempted,
        }

    def per_layer(self):
        nbytes, ndraws = self.store_bytes()
        out = tracing.layer_metrics(self.tracer, self.setup_runs, self.traced_reps)
        out["io.sample_bytes_per_draw"] = nbytes / ndraws
        out["trace.sample_overhead_s"] = (statistics.median(self.traced_sample_s)
                                          - statistics.median(self.times["sample"]))
        return out


def _reference():
    with open(HERE / "reference" / "digests.json") as fh:
        return json.load(fh)


def _declared():
    with open(REPO / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(name, seed, seconds, trace):
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        bench = Bench(workloads.WORKLOADS[name], seed, work,
                      tracer=tracing.Tracer() if trace else None)
        bench.setup()
        bench.timed(seconds)
        values = bench.per_layer() if trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        TRACE_ROOT.mkdir(exist_ok=True)
        stem = f"{name}-seed{seed}"
        bench.tracer.write(TRACE_ROOT / f"spans-{stem}.csv", TRACE_ROOT / f"counts-{stem}.json",
                           bench.labels)
    e2e, layers = _declared()
    units = layers if trace else e2e
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    for p in bench.problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(f"{'repetitions':45s} {len(bench.times['sample'])} untraced,"
          f" {len(bench.traced_reps)} traced, {len(bench.setup_s)} set-ups")
    print(f"{'probe loop (median, min, max)':45s}"
          f" {1e6 * statistics.median(bench.probe_s):.4g}"
          f" {1e6 * min(bench.probe_s):.4g} {1e6 * max(bench.probe_s):.4g} us;"
          f" times are scaled to {1e6 * PROBE_REF_S:g} us")
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units}}


def _print_table(prefix, result):
    for k, m in result["metrics"].items():
        print(f"{prefix}{k:45s} {m['value']:.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{prefix}{'fail_frac':45s} {frac:.6g} ({result['failed']}/{result['attempted']})")


def _run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        _print_table(f"{name:14s} ", results[name])
    print(json.dumps(results))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="demrecon benchmark")
    ap.add_argument("--workload", required=True,
                    help=f"one of {', '.join(workloads.WORKLOADS)}, or all")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from"
              f" {sorted(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    _print_table("", result)
    print(json.dumps(result))
    return 0


