"""Run one workload several times, one seed per run, and report the
spread of every metric.

    python3 perfbench/repeat.py --workload demo-fit --runs 10 --out runs.json

Runs perfbench/run.py once per seed (first_seed, first_seed+1, ...),
one run after another, and prints for each metric its median, its
quartiles as ``statistics.quantiles(values, n=4)`` gives them, and the
quartile distance as a share of the median. With --out it also writes
every run's result, that table and the machine's description as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def machine() -> dict:
    """Interpreter, library versions and processor of this machine."""
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": model}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"error: seed {seed} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']}", file=sys.stderr)

    table = {}
    for name, m in runs[0]["metrics"].items():
        table[name] = spread([r["metrics"][name]["value"] for r in runs])
        table[name]["unit"] = m["unit"]
        t = table[name]
        print(f"{name:45s} median {t['median']:.6g} {t['unit']}  q1 {t['q1']:.6g}"
              f"  q3 {t['q3']:.6g}  spread {t['spread']:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "machine": machine(), "runs": runs, "summary": table}, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
