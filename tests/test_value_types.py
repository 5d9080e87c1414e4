"""Equality and hashing of the value types whose `__eq__` and `__hash__` are
written by hand: values built from equal inputs are equal and hash alike,
changing any one compared field makes them unequal, the derived state that
construction works out takes no part, and each hash is the one the frozen
dataclasses generated or defined, so set and dict orders cannot move."""

import copy
import inspect

import pytest

from nodalcover.covering import ComponentIndex
from nodalcover.curves import NodalCurve, Node, Pi1Presentation, pi1_presentation
from nodalcover.field import FunctionField, MatrixK, RationalFunction
from nodalcover.groups import FiniteGroup, FPSignature, FPWord, cyclic_group
from nodalcover.reps import ContinuousRep

from helpers import F3, F5

Z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
Z3_ONE_AT_1 = ((2, 0, 1), (0, 1, 2), (1, 2, 0))  # Z3 relabelled by 0 <-> 1
G3 = FiniteGroup(Z3, ("a", "b", "c"), "Z3", (1, 2))
C3 = FiniteGroup(Z3, ("a", "b", "c"), "C3", (1, 2))
SIG = FPSignature(1, (G3, G3))
CHAIN = (("C1", ("R",)), ("C2", ("L",)))
CHAIN_NODE = (Node("n0", (("C1", "R"), ("C2", "L"))),)
CUBIC = NodalCurve.build([("C1", ("a", "b"))], [("x0", ("C1", "a"), ("C1", "b"))])
PRES = pi1_presentation(CUBIC)
Z2 = cyclic_group(2)
T = MatrixK(F3, ((F3.t_power(1),),))
ONE, NEG = MatrixK.identity(F3, 1), MatrixK(F3, ((F3.rf(-1),),))


def fields(*names):
    return lambda v: tuple(getattr(v, name) for name in names)


# class -> (constructor inputs, a changed value for each compared field, the
# derived attributes that construction stores and equality ignores, and what
# the hash hashes)
CASES = {
    FunctionField: ({"p": 3}, {"p": 5}, ("_zero", "_one"), fields("p")),
    RationalFunction: (
        {"field": F3, "num": (1, 1), "den": (1,)},
        {"field": F5, "num": (2, 1), "den": (0, 1)}, (), fields("field", "num", "den")),
    MatrixK: (
        {"field": F3, "entries": T.entries},
        {"field": F5, "entries": ONE.entries}, (), fields("field", "entries")),
    FiniteGroup: (
        {"table": Z3, "labels": ("a", "b", "c"), "name": "Z3", "generators": (1, 2)},
        {"table": Z3_ONE_AT_1, "labels": ("a", "b", "d"), "name": "C3", "generators": (1,)},
        ("identity", "inverse"), lambda G: (G.name, len(G.table), G.generators)),
    FPSignature: (
        {"r": 1, "factors": (G3, G3)}, {"r": 2, "factors": (G3, C3)},
        ("_tables", "_inverses", "_idents"), lambda sig: (sig.r, len(sig.factors))),
    FPWord: (
        {"sig": SIG, "letters": ((0, 1), (1, 2))},
        {"sig": FPSignature(1, (G3, C3)), "letters": ((0, 1), (1, 1))}, ("_alpha",),
        lambda w: w.letters),
    ComponentIndex: (
        {"j": 0, "sig": SIG, "letters": ((0, 1),)},
        {"j": 1, "sig": FPSignature(1, (G3, C3)), "letters": ((0, 2),)}, ("_alpha",),
        lambda c: (c.j, c.letters)),
    NodalCurve: (
        {"components": CHAIN, "nodes": CHAIN_NODE},
        {"components": CHAIN[::-1], "nodes": (Node("n1", CHAIN_NODE[0].ends),)},
        ("tree_edges", "loop_nodes"), fields("components", "nodes")),
    Pi1Presentation: (
        {"curve": CUBIC, "r": 1, "spanning_tree": (), "loop_nodes": ("x0",),
         "base_component": "C1", "path_data": PRES.path_data},
        {"curve": NodalCurve(CHAIN, CHAIN_NODE), "r": 2, "spanning_tree": ("x0",),
         "loop_nodes": (), "base_component": "C2", "path_data": ()}, (),
        fields("curve", "r", "spanning_tree", "loop_nodes", "base_component", "path_data")),
    ContinuousRep: (
        {"presentation": PRES, "field": F3, "rank": 1, "z_images": (T,),
         "factor_groups": (Z2,), "factor_homs": ((ONE, NEG),)},
        {"presentation": pi1_presentation(NodalCurve(CHAIN, CHAIN_NODE)), "field": F5,
         "rank": 2, "z_images": (T * T,), "factor_groups": (cyclic_group(3),),
         "factor_homs": ((ONE, ONE),)},
        ("z_inverses",),
        fields("presentation", "field", "rank", "z_images", "factor_groups", "factor_homs")),
}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_equal_inputs_give_equal_values_and_each_compared_field_counts(cls):
    inputs, changed, derived, hashed = CASES[cls]
    params = list(inspect.signature(cls).parameters)
    assert params[:len(inputs)] == list(inputs)
    assert set(params) <= set(inputs) | set(derived)
    assert set(changed) == set(inputs)
    a, b = cls(**inputs), cls(**inputs)
    assert a is not b
    assert a == b and not a != b and hash(a) == hash(b) == hash(hashed(a))
    assert a != object()
    for name, value in changed.items():
        other = cls(**dict(inputs, **{name: value}))
        assert a != other and not a == other, name


@pytest.mark.parametrize("cls,attr", [(cls, attr) for cls, case in CASES.items()
                                      for attr in case[2]],
                         ids=lambda x: getattr(x, "__name__", x))
def test_derived_state_takes_no_part_in_equality_or_hashing(cls, attr):
    """A copy whose derived attribute is replaced still equals the original
    and hashes alike.  The read-only guard in test_stdlib_only.py sees only
    stores that name a field literally, so this deliberate store on a private
    copy, through a parameter, passes it."""
    inputs = CASES[cls][0]
    a = cls(**inputs)
    b = copy.copy(a)
    setattr(b, attr, object())
    assert a == b and hash(a) == hash(b)


def test_a_word_equals_itself_whether_its_alpha_was_given_or_computed():
    letters = ((0, 1), (1, 2), (2, 1))
    computed = FPWord(SIG, letters)
    assert computed.alpha_coords == (2, 1)
    given = FPWord(SIG, letters, (2, 1))
    fresh = FPWord(SIG, letters)
    assert computed == given == fresh
    assert hash(computed) == hash(given) == hash(fresh)
