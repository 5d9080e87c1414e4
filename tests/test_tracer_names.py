"""Every library name the benchmark tracer patches must exist, and take the
arguments the tracer passes.

`perfbench/tracing.py` wraps library functions and methods by name when a
run asks for ``--trace``.  A rename or deletion in `nodalcover` that drops one
of those names, or a reshaped signature that no longer takes the arguments a
wrapper passes on, would otherwise surface only when the benchmark runs.  This
test reads the tracer's tables from `perfbench/` and changes nothing there.
"""

import importlib
import inspect
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

# (module, dotted attribute, positional argument count) of the calls the
# tracer's special wrappers pass on, and of the `covering.domain` span's callers
CALL_SHAPES = [
    ("groups", "iter_words_raw", 5),  # sig, max_len, carry_init, carry_step, sorted_grades
    ("field", "_make_rf", 3),  # F, num, den
    ("descent", "LatticeAssignment.lattice_of", 2),  # assignment, c
    ("reps", "ContinuousRep.build", 5),  # presentation, field, z, groups, homs
    ("covering", "fundamental_domain", 2),  # sig, w
]


@pytest.mark.parametrize("mod, path, nargs", CALL_SHAPES,
                         ids=[f"{m}.{p}" for m, p, _ in CALL_SHAPES])
def test_traced_call_shape_binds(mod, path, nargs):
    target = importlib.import_module(f"nodalcover.{mod}")
    for attr in path.split("."):
        target = getattr(target, attr)
    inspect.signature(target).bind(*range(nargs))  # TypeError if the shape changed
