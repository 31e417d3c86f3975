"""demrecon benchmark entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload demo-fit --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

It runs the package from this checkout's ``src`` in one process with
one thread (BLAS thread caps set to 1 before numpy loads), and exits
with code 2 without a result when the checkout lacks the package or the
demo data. See perfbench/README.md.
"""

import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
NEEDED = ("BENCHMARK.json", "src/demrecon/cli.py", "data/demo/grid.yaml",
          "data/demo/initial/srb.csv", "data/demo/expected_projection.csv")


def main() -> int:
    missing = [p for p in NEEDED if not (REPO / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {REPO};"
              " run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(REPO / "src"), str(HERE)]
    import harness

    return harness.main()


if __name__ == "__main__":
    sys.exit(main())
