"""The traced benchmark run wraps package entry points by name.

`bench/spans.py` lists them in `WRAPPED` and wraps
`oracle.enumerate_subspaces` besides; a name that no longer resolves
crashes `bench/run.py --trace 1`.  The benchmark's own tests live
outside this suite, so the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
NAMES = [
    (layer, name)
    for layer, (funcs, classes) in spans.WRAPPED.items()
    for name in (*funcs, *(f"{cls}.{meth}" for cls, meths in classes.items() for meth in meths))
] + [("oracle", "enumerate_subspaces")]


@pytest.mark.parametrize("layer,name", NAMES, ids=[f"{layer}.{name}" for layer, name in NAMES])
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"{spans.PACKAGE}.{layer}")
    owner, _, attr = name.rpartition(".")
    if owner:
        # Methods are wrapped through the class dict, so they must be defined there.
        assert attr in vars(getattr(module, owner)), name
    else:
        assert callable(getattr(module, attr)), name
