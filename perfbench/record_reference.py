"""Record the outputs that the benchmark's gates compare against.

    python3 perfbench/record_reference.py

Runs one repetition of every workload at the default seed and writes
perfbench/reference/: the digest of each workload's fitted draws, and
the summary and diagnostics tables of the postprocess workload. Run it
only on a commit whose outputs are known to be right; the benchmark then
fails any later commit whose outputs differ.
"""

import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    missing = [p for p in run.NEEDED if not (run.REPO / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found", file=sys.stderr)
        return 2
    sys.path[:0] = [str(run.REPO / "src"), str(run.HERE)]
    import gates
    import harness
    import workloads

    ref = run.HERE / "reference"
    digests = {}
    harness.WORK_ROOT.mkdir(exist_ok=True)
    for name, w in workloads.WORKLOADS.items():
        work = tempfile.mkdtemp(prefix=f"{name}-", dir=harness.WORK_ROOT)
        try:
            bench = harness.Bench(w, workloads.DEFAULT_SEED, work, reference=False)
            bench.setup()
            bench.rep(0, traced=False)
            if bench.failed:
                print(f"error: {name}: {bench.problems}", file=sys.stderr)
                return 1
            digests[name] = gates.sample_digest(bench.fit)
            if w.prior_draws:
                shutil.copy(bench.work / "sum" / "summary.csv", ref / "postprocess-summary.csv")
                shutil.copy(bench.work / "diag" / "diagnostics.csv",
                            ref / "postprocess-diagnostics.csv")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(ref / "digests.json", "w") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "samples_sha256": digests}, fh, indent=2)
        fh.write("\n")
    print(f"wrote {ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
