"""The benchmark traces the program by swapping names for wrappers where
callers look them up (``perfbench/tracing.py``). Every such name must be
in its owner's ``__dict__``, so a rename in the package fails here before
it breaks the benchmark. The benchmark's own tests run here too."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def test_benchmark_bindings_are_owned_where_looked_up():
    bindings = runpy.run_path(str(TRACING))["BINDINGS"]
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in bindings
               if attr not in owner.__dict__]
    assert bindings and not missing


def test_benchmark_tests_pass():
    """The benchmark's own tests use the package (``PosteriorSample``
    fields, ``io`` writers, traced names), so a change to it that breaks
    them fails here."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
