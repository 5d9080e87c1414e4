"""Every library name the benchmark tracer patches must exist.

`perfbench/tracing.py` wraps library functions and methods by name when a
run asks for ``--trace``.  A rename or deletion in `nodalcover` that drops one
of those names would otherwise surface only when the benchmark runs.  This
test reads the tracer's tables from `perfbench/` and changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()

# names `Tracer.install` patches outside its SPANS, COUNTERS and METHODS tables
FUNCTIONS = [(mod, attr) for mod, attr, _ in tracing.SPANS + tracing.COUNTERS]
FUNCTIONS += [("field", "_make_rf"), ("groups", "iter_words_raw")]
CLASS_ATTRS = [(mod, cls, meth) for mod, cls, meth, _, _ in tracing.METHODS]
CLASS_ATTRS += [("descent", "LatticeAssignment", "lattice_of"), ("reps", "ContinuousRep", "build")]


@pytest.mark.parametrize("mod, attr", FUNCTIONS, ids=[f"{m}.{a}" for m, a in FUNCTIONS])
def test_traced_function_resolves(mod, attr):
    assert callable(getattr(importlib.import_module(f"nodalcover.{mod}"), attr))


@pytest.mark.parametrize("mod, cls, meth", CLASS_ATTRS,
                         ids=[f"{m}.{c}.{a}" for m, c, a in CLASS_ATTRS])
def test_traced_method_is_defined_on_its_class(mod, cls, meth):
    # install reads vars(cls)[meth], so an inherited method does not count
    owner = getattr(importlib.import_module(f"nodalcover.{mod}"), cls)
    assert meth in vars(owner)
