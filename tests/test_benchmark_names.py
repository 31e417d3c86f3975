"""The benchmark traces the program by swapping names for wrappers where
callers look them up (``perfbench/tracing.py``). Every such name must be
in its owner's ``__dict__``, so a rename in the package fails here before
it breaks the benchmark."""

import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_benchmark_bindings_are_owned_where_looked_up():
    bindings = runpy.run_path(str(TRACING))["BINDINGS"]
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in bindings
               if attr not in owner.__dict__]
    assert bindings and not missing
