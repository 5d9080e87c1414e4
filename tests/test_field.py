"""Exact arithmetic: canonical forms, valuations, Frobenius, solving, lattices."""

import itertools
import math
import random
import re
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from nodalcover import field
from nodalcover.errors import DimensionMismatch, DivisionByZero, SingularBasis
from nodalcover.field import (
    MAX_LITERAL_DEGREE,
    FunctionField,
    MatrixK,
    _make_rf,
    _padd,
    _poly_from_string,
    _pdivmod,
    _pgcd,
    _pmul,
    _psub,
    lattice_hermite,
    rf_from_string,
    rf_to_string,
    solve_linear,
    tadic_coefficients,
)

from helpers import (
    F3,
    F5,
    F7,
    det_oracle,
    lattice_hermite_oracle,
    matrix_op_oracle,
    random_matrix,
    random_rf,
    rf_split_oracle,
    smith_exponents,
    solve_linear_oracle,
)

F2 = FunctionField(2)


# -- canonical forms ---------------------------------------------------------

def test_telescoping_sum_is_one():
    t = F3.t_power(1)
    one = F3.one()
    assert t / (t + one) + one / (t + one) == one


def test_zero_and_one_are_canonical_and_built_once():
    for F in (F2, F3, F5):
        assert (F.zero(), F.one()) == (F.rf(0), F.rf(1))
        assert F.zero() is F.zero() and F.one() is F.one()


def test_equal_fields_interoperate_and_others_are_refused():
    a, b = FunctionField(3), FunctionField(3)
    x, y = a.t_power(1) + a.one(), b.t_power(1)
    assert a is not b
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        assert getattr(x, op)(y) == getattr(F3.t_power(1) + F3.one(), op)(F3.t_power(1))
        for other in (FunctionField(5).t_power(1), 1, (0, 1)):
            with pytest.raises(DimensionMismatch):
                getattr(x, op)(other)


def test_mul_by_inverse_is_one():
    rng = random.Random(7)
    for _ in range(50):
        f = random_rf(rng, F3, nonzero=True)
        assert f * f.inverse() == F3.one()
        assert f / f == F3.one()


def _poly_gcd_oracle(p, a, b):
    """Plain Euclid on coefficient lists, independent of field internals."""
    def norm(c):
        c = list(c)
        while c and c[-1] % p == 0:
            c.pop()
        return c

    def divmod_(x, y):
        x = list(x)
        inv = pow(y[-1], p - 2, p)
        q = [0] * (len(x) - len(y) + 1)
        for k in range(len(x) - len(y), -1, -1):
            f = (x[k + len(y) - 1] * inv) % p
            q[k] = f
            for i, cy in enumerate(y):
                x[k + i] = (x[k + i] - f * cy) % p
        return q, norm(x)

    a, b = norm(a), norm(b)
    while b:
        _, r = divmod_(a, b)
        a, b = b, r
    return a


def test_canonicalization_against_gcd_oracle():
    # (t^2 - 1)/(t - 1) over the five-element field reduces to t + 1
    f = F5.rf((-1, 0, 1), (-1, 1))
    assert rf_to_string(f) == "t + 1"
    g = _poly_gcd_oracle(5, [4, 0, 1], [4, 1])
    # the oracle gcd is degree 1, and dividing it out leaves t + 1
    assert len(g) == 2
    assert f.num == (1, 1) and f.den == (1,)


def test_zero_normalization_and_division_guard():
    assert F3.rf(0, (1, 1)).num == ()
    assert F3.rf(0).den == (1,)
    with pytest.raises(DivisionByZero):
        F3.one() / F3.zero()
    with pytest.raises(DivisionByZero):
        F3.rf(1, 0)


def test_rf_reduces_and_normalises_what_it_is_given():
    """Ints and coefficient sequences are reduced mod p and trimmed, so any
    spelling of an element gives its canonical form."""
    canonical = _make_rf(F5, (4, 0, 1), (2, 1))
    for num, den in [((-1, 0, 1), (2, 1)), ((4, 5, 6), (7, 6)), ((4, 0, 1, 0, 0), (2, 1, 0)),
                     ((-6, 10, -4, 5), (-3, -4, 5))]:
        got = F5.rf(num, den)
        assert (got.num, got.den) == (canonical.num, canonical.den)
    assert F5.rf(-1) == F5.rf(4) == F5.rf(9) == F5.rf((4, 0), (1, 0, 0))
    assert F5.rf(7, 3) == F5.rf(4) and F5.rf(0, -2) == F5.zero()
    assert F5.rf((5, 10)) == F5.zero() and F5.rf(6, 1).num == (1,)
    for den in (0, 5, -10, (), (0,), (5, 0), (0, 10)):
        with pytest.raises(DivisionByZero):
            F5.rf(1, den)


# -- monomial fast paths against the general path -----------------------------

KERNEL_FIELDS = [FunctionField(2), F3, F7]
KERNEL_IDS = ["F2", "F3", "F7"]


def _coeffs(F, nonzero=False):
    return st.integers(1 if nonzero else 0, F.p - 1)


def _poly_of_order(data, F, order):
    """A normalised polynomial whose lowest nonzero term has degree ``order``."""
    low = data.draw(_coeffs(F, nonzero=True))
    rest = data.draw(st.lists(_coeffs(F), max_size=3))
    if rest:
        rest.append(data.draw(_coeffs(F, nonzero=True)))
    return (0,) * order + (low,) + tuple(rest)


def _monomial(data, F, k):
    return (0,) * k + (data.draw(_coeffs(F, nonzero=True)),)


def _orders(data, where):
    """(k, order) with order below, equal to or above k."""
    if where == "below":
        k = data.draw(st.integers(1, 4))
        return k, data.draw(st.integers(0, k - 1))
    if where == "equal":
        k = data.draw(st.integers(0, 4))
        return k, k
    k = data.draw(st.integers(0, 4))
    return k, data.draw(st.integers(k + 1, k + 3))


def _assert_euclid_form(F, num, den, got):
    """got is num/den in the general canonical form: the Euclidean gcd
    divided out and the denominator made monic."""
    g = _pgcd(F, num, den)
    n, d = _pdivmod(F, num, g)[0], _pdivmod(F, den, g)[0]
    inv = pow(d[-1], -1, F.p)
    assert got.num == tuple(c * inv % F.p for c in n)
    assert got.den == tuple(c * inv % F.p for c in d)
    assert got.den[-1] == 1
    assert len(_poly_gcd_oracle(F.p, got.num, got.den)) == 1


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=KERNEL_IDS)
@pytest.mark.parametrize("where", ["below", "equal", "above"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_make_rf_monomial_den_matches_euclid(F, where, data):
    # ord num below, equal to or above the denominator's degree k
    k, order = _orders(data, where)
    num = _poly_of_order(data, F, order)
    den = _monomial(data, F, k)
    _assert_euclid_form(F, num, den, _make_rf(F, num, den))


def _non_monomial_of_order(data, F, order):
    """A normalised polynomial of two or more terms, the lowest of degree ``order``."""
    low = data.draw(_coeffs(F, nonzero=True))
    rest = data.draw(st.lists(_coeffs(F), max_size=2))
    return (0,) * order + (low,) + tuple(rest) + (data.draw(_coeffs(F, nonzero=True)),)


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=KERNEL_IDS)
@pytest.mark.parametrize("where", ["below", "equal", "above"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_make_rf_monomial_num_matches_euclid(F, where, data):
    # ord den below, equal to or above the numerator's degree k
    k, order = _orders(data, where)
    num = _monomial(data, F, k)
    den = _non_monomial_of_order(data, F, order)
    _assert_euclid_form(F, num, den, _make_rf(F, num, den))


@pytest.mark.parametrize("F", KERNEL_FIELDS[1:], ids=KERNEL_IDS[1:])  # F2 has no c != 1
@pytest.mark.parametrize("where", ["below", "equal", "above"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_make_rf_monomial_over_monomial_matches_euclid(F, where, data):
    # c1*t^a over c2*t^b with c2 != 1, and a below, equal to or above b
    b, a = _orders(data, where)
    num = _monomial(data, F, a)
    den = (0,) * b + (data.draw(st.integers(2, F.p - 1)),)
    _assert_euclid_form(F, num, den, _make_rf(F, num, den))


def test_make_rf_reduces_monomial_sides_without_gcd(monkeypatch):
    """c*t^k over a denominator of several terms, and the reverse, are
    reduced by a shift: no polynomial gcd, while two sides of several terms
    each take one."""
    calls = []

    def counted(F, a, b, gcd=_pgcd):
        calls.append((a, b))
        return gcd(F, a, b)

    monkeypatch.setattr(field, "_pgcd", counted)
    for F in KERNEL_FIELDS:
        for k in range(4):
            for other in ((1, 1), (0, 1, 1), (0, 0, 1, 0, 1), (0, 0, 0, 0, 1, 1)):
                mono = (0,) * k + (F.p - 1,)
                for num, den in ((mono, other), (other, mono)):
                    _assert_euclid_form(F, num, den, _make_rf(F, num, den))
    assert calls == []
    _make_rf(F3, (1, 1), (2, 0, 1))
    assert len(calls) == 1


def _strip(coeffs):
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _schoolbook(F, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(c % F.p for c in out)


def _coefwise(F, a, b, sign):
    """a + sign*b coefficient by coefficient, mod p."""
    pad = max(len(a), len(b))
    a, b = a + (0,) * (pad - len(a)), b + (0,) * (pad - len(b))
    return _strip((x + sign * y) % F.p for x, y in zip(a, b))


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=KERNEL_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pmul_by_monomial_matches_schoolbook(F, data):
    a = _poly_of_order(data, F, data.draw(st.integers(0, 3)))
    m = _monomial(data, F, data.draw(st.integers(0, 4)))
    want = _schoolbook(F, a, m)
    assert _pmul(F, a, m) == want
    assert _pmul(F, m, a) == want


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=KERNEL_IDS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_general_kernels_match_schoolbook(F, data):
    poly = st.lists(_coeffs(F), max_size=6).map(_strip)
    a, b = data.draw(poly), data.draw(poly)
    assert _pmul(F, a, b) == _schoolbook(F, a, b)
    assert _padd(F, a, b) == _coefwise(F, a, b, 1)
    assert _psub(F, a, b) == _coefwise(F, a, b, -1)
    if not b:
        return
    q, r = _pdivmod(F, a, b)
    assert len(r) < len(b)
    assert _coefwise(F, _schoolbook(F, q, b), r, 1) == a
    g = _pgcd(F, a, b)
    assert g[-1] == 1
    assert len(g) == len(_poly_gcd_oracle(F.p, a, b))
    # the canonical form of a/b: the same element, coprime, monic denominator
    f = _make_rf(F, a, b)
    assert _schoolbook(F, f.num, b) == _schoolbook(F, a, f.den)
    assert f.den[-1] == 1
    assert len(_poly_gcd_oracle(F.p, f.num, f.den)) == 1


OPERAND_KINDS = ["zero", "constant", "polynomial", "laurent", "general"]


def _operand(data, F, kind):
    """A canonical element of one kind: zero, a constant (1 and p - 1 drawn
    often), a polynomial, c*t^-k*poly with k >= 1, or a denominator of two or
    more terms."""
    if kind == "zero":
        return F.zero()
    if kind == "constant":
        return F.rf(data.draw(st.sampled_from([1, F.p - 1]) | _coeffs(F, nonzero=True)))
    if kind == "laurent":
        num = _poly_of_order(data, F, 0)
        return _make_rf(F, num, _monomial(data, F, data.draw(st.integers(1, 4))))
    num = _poly_of_order(data, F, data.draw(st.integers(0, 3)))
    if kind == "polynomial":
        return _make_rf(F, num, (1,))
    return _make_rf(F, num, _non_monomial_of_order(data, F, data.draw(st.integers(0, 2))))


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=KERNEL_IDS)
@pytest.mark.parametrize("kind", OPERAND_KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_products_and_sums_match_the_cross_multiplied_euclid_form(F, kind, data):
    """a*b, a+b and a-b against the Euclid normal form of the cross-multiplied
    fraction, for every pair of operand kinds.  A b that repeats a's
    denominator and cancels its low terms makes a sum strip a power of t, and
    b = -a makes a + b and a - (-b) cancel to zero."""
    a = _operand(data, F, kind)
    mode = data.draw(st.sampled_from(["free", "cancel_low", "negate"]) if a else st.just("free"))
    if mode == "free":
        b = _operand(data, F, data.draw(st.sampled_from(OPERAND_KINDS)))
    elif mode == "negate":
        b = -a
    else:
        s = data.draw(st.integers(1, len(a.num)))
        low = tuple(-c % F.p for c in a.num[:s])
        b = _make_rf(F, low + tuple(data.draw(st.lists(_coeffs(F), max_size=3))), a.den)
    for x, y in ((a, b), (b, a), (a, -b)):
        _assert_euclid_form(F, _schoolbook(F, x.num, y.num), _schoolbook(F, x.den, y.den), x * y)
        cross = _schoolbook(F, x.num, y.den), _schoolbook(F, y.num, x.den)
        den = _schoolbook(F, x.den, y.den)
        _assert_euclid_form(F, _coefwise(F, *cross, 1), den, x + y)
        _assert_euclid_form(F, _coefwise(F, *cross, -1), den, x - y)


def _count_calls(monkeypatch, target, names):
    """Wrap target.<name> for each name; returns the dict of call counts."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in names:
        monkeypatch.setattr(target, name, counting(name, getattr(target, name)))
    return calls


def test_laurent_and_constant_arithmetic_skip_the_cross_products(monkeypatch):
    """Denominators t^ka and t^kb are added by a shift, and multiplied by two
    `_pmul` calls, the numerators and the denominators' shift, with no gcd; a
    constant scales without normalising, and a 1x1 matrix product is one
    entry product."""
    calls = _count_calls(monkeypatch, field, ("_pmul", "_pgcd", "_make_rf", "_rf_mul"))

    def counts_of(thunk):
        for name in calls:
            calls[name] = 0
        thunk()
        return dict(calls)

    for F in KERNEL_FIELDS:
        t = F.t_power(1)
        laurent = [F.rf((1, 1), (0, 0, 1)), F.rf((F.p - 1, 0, 1), (0, 0, 0, 1)), F.t_power(-1)]
        others = laurent + [t + F.one(), F.rf((1,), (1, 1))]
        for a, b in itertools.product(laurent, laurent):
            got = counts_of(lambda: a * b)
            assert (got["_pmul"], got["_pgcd"]) == (2, 0)
        for c in {F.rf(c) for c in (1, 2, F.p - 1) if c % F.p}:
            for x in others:
                for a, b in ((c, x), (x, c)):
                    got = counts_of(lambda: a * b)
                    assert (got["_pmul"], got["_make_rf"]) == (0, 0)
        for a, b in ((laurent[0], laurent[1]), (laurent[2], t), (t + F.one(), laurent[1])):
            assert counts_of(lambda: (a + b, a - b, b - a))["_pmul"] == 0

    a, b = F3.rf((1, 1), (0, 1)), F3.rf((2,), (1, 1))
    M, N = MatrixK(F3, ((a,),)), MatrixK(F3, ((b,),))
    assert counts_of(lambda: M * N)["_rf_mul"] == 1
    assert M * N == MatrixK(F3, ((a * b,),))
    assert M * MatrixK.zeros(F3, 1, 1) == MatrixK.zeros(F3, 1, 1)


# -- matrix operations: one field check, then the entry kernels -----------------

def test_from_rows_refuses_an_entry_of_another_field():
    with pytest.raises(DimensionMismatch):
        MatrixK.from_rows(F3, [[F5.rf(1)]])
    with pytest.raises(DimensionMismatch):
        MatrixK.from_rows(F3, [["1", 2], [F3.one(), F7.t_power(1)]])
    twin = FunctionField(3)
    M = MatrixK.from_rows(F3, [[twin.t_power(1), "t"], [1, F3.one()]])
    assert M.entries[0][0] == M.entries[0][1] == F3.t_power(1)


MIXED_FIELD_OPS = {
    "*": lambda x, y: x * y,
    "kron": lambda x, y: x.kron(y),
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "scale": lambda x, y: x.scale(y.entries[0][0]),
    "solve_linear": solve_linear,
}


@pytest.mark.parametrize("op", MIXED_FIELD_OPS)
def test_mixed_field_operands_fail_before_any_entry_work(monkeypatch, op):
    rows = [["1 + t", "(t^2)/(1 + t)"], ["(2)/(t)", "t + 2"]]
    M3, M5 = MatrixK.from_rows(F3, rows), MatrixK.from_rows(F5, rows)
    calls = _count_calls(monkeypatch, field, ("_pmul", "_make_rf"))
    for x, y in ((M3, M5), (M5, M3)):
        with pytest.raises(DimensionMismatch):
            MIXED_FIELD_OPS[op](x, y)
    assert calls == {"_pmul": 0, "_make_rf": 0}


def test_matrix_operations_check_no_entry_field(monkeypatch):
    """A 3x3 Laurent product, its sums, Kronecker and scalar products, and a
    3x3 solve and inverse run on the unchecked kernels: the field is checked
    once per operation, never per entry."""
    rows = [["1 + t", "(1)/(t)", "(t + 2)/(t^2)"], ["2", "(2*t^2 + 1)/(t)", "0"],
            ["(1)/(t^3)", "t", "(1 + t^2)/(t)"]]
    M = MatrixK.from_rows(F3, rows)
    N = MatrixK.from_rows(F3, [row[::-1] for row in rows])
    calls = _count_calls(monkeypatch, field.RationalFunction, ("_check",))
    results = [M * N, M + N, M - N, M.kron(N), M.scale(F3.rf((1,), (0, 1))),
               solve_linear(M, N), M.inverse()]
    assert calls == {"_check": 0}
    assert results[0] == matrix_op_oracle("*", M, N)
    assert results[-1] * M == MatrixK.identity(F3, 3)


def _matrix(data, F, rows, cols):
    kinds = st.sampled_from(OPERAND_KINDS)
    return MatrixK(F, tuple(tuple(_operand(data, F, data.draw(kinds)) for _ in range(cols))
                            for _ in range(rows)))


def _assert_over(F, M):
    assert M.field == F
    assert all(e.field == F for row in M.entries for e in row)


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=KERNEL_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matrix_operations_match_the_entrywise_oracle(F, data):
    """Every matrix operation on the kernels against the checked entry
    operators, for 1x1 to 3x3 and non-square shapes over every operand kind.
    The second operand lies over an equal field object or the same one."""
    n, m, k = (data.draw(st.integers(1, 3), label=name) for name in "nmk")
    G = data.draw(st.sampled_from([F, FunctionField(F.p)]), label="second field")
    A, B, C = _matrix(data, F, n, m), _matrix(data, G, n, m), _matrix(data, G, m, k)
    c = _operand(data, G, data.draw(st.sampled_from(OPERAND_KINDS)))
    for name, x, y, got in (("+", A, B, A + B), ("-", A, B, A - B), ("*", A, C, A * C),
                            ("kron", A, C, A.kron(C)), ("scale", A, c, A.scale(c))):
        assert got == matrix_op_oracle(name, x, y)
        _assert_over(F, got)
    sol = solve_linear(A, B)
    assert sol == solve_linear_oracle(A, B)
    for M in filter(None, (sol.particular,) + sol.kernel):
        _assert_over(F, M)
    S = _matrix(data, F, n, n)
    det = S.det()
    assert det == det_oracle(S) and det.field == F
    if det:
        inv = S.inverse()
        assert inv == solve_linear_oracle(S, MatrixK.identity(G, n)).particular
        _assert_over(F, inv)


# -- field axioms (randomized, exact equality) --------------------------------

small_rf = st.builds(
    lambda num, den: F3.rf(tuple(num), tuple(den)),
    st.lists(st.integers(0, 2), min_size=1, max_size=3),
    st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(lambda d: any(d)),
)


@settings(max_examples=150, deadline=None)
@given(small_rf, small_rf, small_rf)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == F3.zero()
    if not a.is_zero():
        assert a * a.inverse() == F3.one()
    # equality and hash are those of (field, num, den), as when
    # RationalFunction was a frozen dataclass
    same = (a / b) * b if b else a - c + c
    assert same == a
    for x in (same, b, a * b, field.RationalFunction(F5, a.num, a.den)):
        assert (x == a) == ((x.field, x.num, x.den) == (a.field, a.num, a.den))
        assert hash(x) == hash((x.field, x.num, x.den))


def test_t_power_is_canonical():
    t = F3.rf((0, 1))
    for k in range(-4, 5):
        f = F3.t_power(k)
        assert f == F3.rf(f.num, f.den) and f.valuation() == k
        expected = F3.one()
        for _ in range(abs(k)):
            expected = expected * t if k > 0 else expected / t
        assert f == expected


# -- valuations ---------------------------------------------------------------

def test_valuation_examples():
    assert F3.rf((0, 0, 0, 1), (1, 1)).valuation() == 3
    assert F3.rf(1, (0, 1)).valuation() == -1
    assert F3.zero().valuation() == math.inf


def test_valuation_is_discrete_valuation():
    rng = random.Random(11)
    for _ in range(1000):
        f = random_rf(rng)
        g = random_rf(rng)
        assert (f * g).valuation() == f.valuation() + g.valuation()
        if not (f + g).is_zero():
            assert (f + g).valuation() >= min(f.valuation(), g.valuation())


def test_tadic_coefficients_match_series():
    # 1/(1 - t) = 1 + t + t^2 + ... and (1 + t)/(1 - t) = 1 + 2t + 2t^2 + ...
    # over the three-element field
    assert tadic_coefficients(3, (1,), (1, 2), 4) == [1, 1, 1, 1]
    assert tadic_coefficients(3, (1, 1), (1, 2), 4) == [1, 2, 2, 2]


# -- Frobenius -----------------------------------------------------------------

def test_frobenius_examples_and_hom():
    t = F3.t_power(1)
    assert t.frobenius() == t * t * t == F3.t_power(3)
    rng = random.Random(3)
    for _ in range(100):
        f, g = random_rf(rng), random_rf(rng)
        assert (f + g).frobenius() == f.frobenius() + g.frobenius()
        assert (f * g).frobenius() == f.frobenius() * g.frobenius()
    assert F3.rf(2).frobenius() == F3.rf(2)


def test_frobenius_fixed_points_are_constants():
    # enumerate low-degree elements and solve f = f^p by inspection
    fixed = []
    import itertools
    for num in itertools.product(range(3), repeat=2):
        for den in itertools.product(range(3), repeat=2):
            if not any(den):
                continue
            f = F3.rf(num, den)
            if f.frobenius() == f:
                fixed.append(f)
    assert set(fixed) == {F3.rf(c) for c in range(3)}


def test_frobenius_injective_image_pth_powers():
    rng = random.Random(5)
    seen = {}
    for _ in range(200):
        f = random_rf(rng)
        img = f.frobenius()
        assert img.is_pth_power()
        assert img.pth_root() == f
        if img in seen:
            assert seen[img] == f
        seen[img] = f


# -- linear solving -------------------------------------------------------------

def test_solve_identity_and_zero():
    I = MatrixK.identity(F3, 3)
    rhs = random_matrix(random.Random(1), F3, 3)
    sol = solve_linear(I, rhs)
    assert sol.particular == rhs and not sol.kernel
    Z = MatrixK.zeros(F3, 2, 2)
    bad = MatrixK.from_rows(F3, [["1", "0"], ["0", "1"]])
    assert solve_linear(Z, bad).particular is None


def test_solve_residual_oracle():
    rng = random.Random(9)
    for _ in range(10):
        M = random_matrix(rng, F3, 4, invertible=True)
        b = random_matrix(rng, F3, 4)
        sol = solve_linear(M, b)
        assert M * sol.particular == b
        assert not sol.kernel


def test_kernel_is_echelonized():
    M = MatrixK.from_rows(F3, [["1", "1", "0"], ["0", "0", "0"]])
    sol = solve_linear(M, MatrixK.zeros(F3, 2, 1))
    assert len(sol.kernel) == 2
    # free columns get unit entries in index order
    assert sol.kernel[0].entries[1][0] == F3.one()
    assert sol.kernel[1].entries[2][0] == F3.one()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from((2, 3, 5, 7)),
       n=st.integers(1, 6), m=st.integers(1, 6), k=st.integers(1, 2),
       density=st.sampled_from((0.2, 0.5, 0.9)), deg=st.integers(0, 2),
       dependent=st.integers(0, 2), zero_row=st.booleans(),
       rhs_kind=st.sampled_from(("image", "random", "zero")))
def test_solve_linear_equals_the_first_pivot_oracle(seed, p, n, m, k, density, deg,
                                                    dependent, zero_row, rhs_kind):
    """The reduced row echelon form does not depend on the pivot rows, so
    the smallest-entry pivot with sparse updates returns the oracle's
    particular solution (or its inconsistency, a random right-hand side of a
    rank-deficient system) and its kernel basis."""
    rng = random.Random(seed)
    F = FunctionField(p)

    def entry(fill):
        return random_rf(rng, F, deg) if rng.random() < fill else F.zero()

    rows = [[entry(density) for _ in range(m)] for _ in range(n)]
    for _ in range(dependent if n > 2 else 0):
        i, j, l = rng.sample(range(n), 3)
        c, d = entry(1), entry(1)
        rows[i] = [c * x + d * y for x, y in zip(rows[j], rows[l])]
    if zero_row:
        rows[rng.randrange(n)] = [F.zero()] * m
    M = MatrixK(F, tuple(tuple(row) for row in rows))
    if rhs_kind == "image":
        rhs = M * MatrixK(F, tuple(tuple(entry(density) for _ in range(k)) for _ in range(m)))
    elif rhs_kind == "random":
        rhs = MatrixK(F, tuple(tuple(entry(1) for _ in range(k)) for _ in range(n)))
    else:
        rhs = MatrixK.zeros(F, n, k)
    assert solve_linear(M, rhs) == solve_linear_oracle(M, rhs)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 2), k=st.integers(-5, 5))
def test_matrix_power_matches_repeated_products(seed, n, k):
    M = random_matrix(random.Random(seed), F3, n, invertible=True)
    ident = MatrixK.identity(F3, n)
    base = M if k >= 0 else solve_linear(M, ident).particular
    expected = ident
    for _ in range(abs(k)):
        expected = expected * base
    assert M ** k == expected
    if k == 0:
        assert (M ** k).is_identity()


# -- determinants ---------------------------------------------------------------

def _leibniz(M):
    """The permutation sum: sign(s) * prod_i M[i][s(i)] over all s in S_n."""
    n, F = M.rows, M.field
    total = F.zero()
    for perm in itertools.permutations(range(n)):
        term = F.one()
        for i, j in enumerate(perm):
            term = term * M.entries[i][j]
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        total = total - term if odd else total + term
    return total


def _det_entry(data, F, den_kind):
    num = tuple(data.draw(st.lists(_coeffs(F), max_size=3)))
    if den_kind == "constant":
        den = (data.draw(_coeffs(F, nonzero=True)),)
    elif den_kind == "monomial":
        den = _monomial(data, F, data.draw(st.integers(0, 2)))
    else:
        # two or more terms: a nonzero constant and a nonzero top coefficient
        low = data.draw(_coeffs(F, nonzero=True))
        middle = data.draw(st.lists(_coeffs(F), max_size=1))
        den = (low, *middle, data.draw(_coeffs(F, nonzero=True)))
    return F.rf(num, den)


DET_SHAPES = ("plain", "zero column", "repeated row", "first pivot zero", "late swap")


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=KERNEL_IDS)
@pytest.mark.parametrize("den_kind", ["constant", "monomial", "general"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_det_equals_the_elimination_oracle_and_the_leibniz_sum(F, den_kind, data):
    """Bareiss against Gaussian elimination with inverted pivots and against
    the permutation sum, n <= 4.  "late swap" makes the leading 2 x 2 minor
    zero, so the second pivot of a 3 x 3 or 4 x 4 matrix needs a row swap."""
    n = data.draw(st.integers(1, 4))
    shape = data.draw(st.sampled_from(DET_SHAPES if n > 1 else DET_SHAPES[:2]))
    rows = [[_det_entry(data, F, den_kind) for _ in range(n)] for _ in range(n)]
    if shape == "zero column":
        c = data.draw(st.integers(0, n - 1))
        for row in rows:
            row[c] = F.zero()
    elif shape == "repeated row":
        i, j = data.draw(st.permutations(range(n)))[:2]
        rows[j] = list(rows[i])
    elif shape == "first pivot zero":
        rows[0][0] = F.zero()
    elif shape == "late swap":
        c = _det_entry(data, F, den_kind)
        rows[1][:2] = [c * e for e in rows[0][:2]]
    M = MatrixK(F, tuple(tuple(row) for row in rows))
    det = M.det()
    assert det == det_oracle(M) == _leibniz(M)
    if shape in ("zero column", "repeated row") or (shape == "late swap" and n == 2):
        assert det.is_zero()


def test_det_swaps_a_zero_pivot_and_flips_the_sign():
    # the first pivot is zero; then the second pivot is the zero leading minor
    # of [[1, 1], [1, 1]], so the third row swaps in at step 2
    for rows, expected in [([["0", "1"], ["1", "0"]], "2"),
                           ([["1", "1", "0"], ["1", "1", "1"], ["0", "1", "1"]], "2"),
                           ([["t", "1", "0"], ["t^2", "t", "1"], ["0", "1", "t"]], "2*t"),
                           ([["0", "0"], ["1", "t"]], "0")]:
        M = MatrixK.from_rows(F3, rows)
        assert M.det() == det_oracle(M) == rf_from_string(F3, expected)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from((2, 3, 7)), n=st.integers(1, 3))
def test_det_is_multiplicative(seed, p, n):
    rng = random.Random(seed)
    F = FunctionField(p)
    A, B = random_matrix(rng, F, n), random_matrix(rng, F, n)
    assert (A * B).det() == A.det() * B.det()


def test_det_needs_a_square_matrix():
    with pytest.raises(DimensionMismatch):
        MatrixK.zeros(F3, 2, 3).det()


# -- lattices ---------------------------------------------------------------------

def test_hermite_identity_and_diagonal():
    I = MatrixK.identity(F3, 2)
    assert lattice_hermite(I).basis == I
    D = MatrixK.from_rows(F3, [["t^2", "0"], ["0", "1"]])
    assert lattice_hermite(D).basis == D
    assert lattice_hermite(D).diagonal_exponents == (2, 0)


def _random_unit_a(rng, F=F3):
    # valuation-zero element: nonzero constant term over t-free denominator
    num = [rng.choice(range(1, F.p))] + [rng.randrange(F.p) for _ in range(2)]
    den = [1] + [rng.randrange(F.p) for _ in range(2)]
    return F.rf(tuple(num), tuple(den))


def _random_integral(rng, F=F3):
    num = [rng.randrange(F.p) for _ in range(3)]
    den = [1] + [rng.randrange(F.p) for _ in range(2)]
    return F.rf(tuple(num), tuple(den))


def _random_gl_a(rng, n, F=F3):
    """Random invertible-over-the-valuation-ring matrix via elementary ops."""
    M = MatrixK.identity(F, n)
    rows = [list(r) for r in M.entries]
    for _ in range(6):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            f = _random_integral(rng, F)
            for k in range(n):
                rows[k][j] = rows[k][j] + f * rows[k][i]
        elif kind == 1:
            u = _random_unit_a(rng, F)
            for k in range(n):
                rows[k][i] = rows[k][i] * u
        elif i != j:
            for k in range(n):
                rows[k][i], rows[k][j] = rows[k][j], rows[k][i]
    return MatrixK(F, tuple(tuple(r) for r in rows))


def test_hermite_invariant_under_unit_column_changes():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        B = random_matrix(rng, F3, n, invertible=True)
        U = _random_gl_a(rng, n)
        assert lattice_hermite(B) == lattice_hermite(B * U)


def test_hermite_idempotent_and_triangular():
    rng = random.Random(22)
    for _ in range(20):
        B = random_matrix(rng, F3, 2, invertible=True)
        H = lattice_hermite(B).basis
        assert lattice_hermite(H).basis == H
        assert H.entries[1][0].is_zero()
        for i in range(2):
            e = H.entries[i][i]
            assert e == F3.t_power(int(e.valuation()))


SINGULAR_BASES = {
    "ones": [["1", "1"], ["1", "1"]],
    # rank one, entries of valuations 1, 2, 0, 1
    "valuations": [["t", "t^2"], ["1", "t"]],
    # rank one, negative valuations
    "negative": [["(1)/(t)", "1"], ["(1)/(t^2)", "(1)/(t)"]],
    # rank one, general denominators: row 2 is (1 + t) times row 1
    "denominators": [["(1)/(t + 1)", "(t)/(t + 1)"], ["1", "t"]],
    # rank two of three, no zero entry; the third column is t^40 (c1 + c2)
    "rank-two": [["1", "t + 1", "t^41 + 2*t^40"], ["t", "2", "t^41 + 2*t^40"],
                 ["(1)/(t + 2)", "t^2", "(t^43 + 2*t^42 + t^40)/(t + 2)"]],
    "zero": [["0", "0"], ["0", "0"]],
    "non-square": [["1", "0", "t"], ["0", "1", "1"]],
}


def test_hermite_rejects_singular():
    for name, rows in SINGULAR_BASES.items():
        B = MatrixK.from_rows(F3, rows)
        if B.rows == B.cols:
            assert B.det().is_zero(), name
        start = time.perf_counter()
        with pytest.raises(SingularBasis):
            lattice_hermite(B)
        assert time.perf_counter() - start < 1.0, name


@st.composite
def hermite_bases(draw, min_n=1, den_kind="general"):
    """An invertible n x n basis over F2, F3 or F7, n <= 3, with entries 0 or
    t^v e, v in [-3, 3].  By `den_kind`, e is a nonzero constant
    ("monomial"), a polynomial a ("laurent") or a/b ("general"), with a and b
    of degree <= 2 and nonzero constant terms, so most general denominators
    are not monomials."""
    F = draw(st.sampled_from((F2, F3, F7)))
    n = draw(st.integers(min_n, 3))
    coeffs = st.integers(0, F.p - 1)

    def unit_poly():
        return (draw(st.integers(1, F.p - 1)),) + tuple(draw(st.lists(coeffs, max_size=2)))

    def unit():
        if den_kind == "monomial":
            return F.rf(draw(st.integers(1, F.p - 1)))
        return F.rf(unit_poly()) if den_kind == "laurent" else F.rf(unit_poly(), unit_poly())

    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if draw(st.integers(0, 5)):
                row.append(unit() * F.t_power(draw(st.integers(-3, 3))))
            else:
                row.append(F.zero())
        rows.append(tuple(row))
    B = MatrixK(F, tuple(rows))
    assume(not B.det().is_zero())
    return B


@settings(max_examples=150, deadline=None)
@given(B=hermite_bases(), seed=st.integers(0, 2 ** 32 - 1))
def test_hermite_equals_the_oracle(B, seed):
    L = lattice_hermite(B)
    assert L == lattice_hermite_oracle(B)
    U = _random_gl_a(random.Random(seed), B.rows, B.field)
    assert lattice_hermite(B * U) == L


@pytest.mark.parametrize("den_kind", ["monomial", "laurent", "general"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_diagonal_exponents_are_the_diagonal_valuations(den_kind, data):
    """`diagonal_exponents` reads each d_i off the lengths of the canonical
    t^{d_i}; it equals the valuations of the diagonal, on the Hermite form
    and on the oracle's, at ranks 1 to 3."""
    B = data.draw(hermite_bases(den_kind=den_kind))
    for L in (lattice_hermite(B), lattice_hermite_oracle(B)):
        diagonal = [row[i] for i, row in enumerate(L.basis.entries)]
        assert L.diagonal_exponents == tuple(int(e.valuation()) for e in diagonal)


@settings(max_examples=100, deadline=None)
@given(B=hermite_bases())
def test_hermite_entries_are_over_one_or_a_monic_t_power(B):
    """Each output entry is t^m times a polynomial, so its canonical
    denominator is 1 or t^k."""
    for row in lattice_hermite(B).basis.entries:
        for e in row:
            assert e.den[-1] == 1 and not any(e.den[:-1])


@settings(max_examples=60, deadline=None)
@given(B=hermite_bases(min_n=2), a=st.integers(4, 8))
def test_hermite_restarts_until_the_precision_passes_the_determinant(B, a):
    """With delta' >= 4 the first run, mod t, cannot certify itself: the
    precision grows until it exceeds delta', and only the last run
    certifies (a run certifies exactly when its precision exceeds delta')."""
    F, n = B.field, B.rows
    m = min(int(e.valuation()) for row in B.entries for e in row if e.num)
    shifted = [[e * F.t_power(-m) for e in row] for row in B.entries]
    # column j0 holds a valuation-0 entry; scaling another column by t^a
    # keeps the least valuation at 0 and raises v(det) by a
    j0 = next(j for row in shifted for j, e in enumerate(row) if e.valuation() == 0)
    j = (j0 + 1) % n
    C = MatrixK(F, tuple(tuple(e * F.t_power(a) if k == j else e for k, e in enumerate(row))
                         for row in shifted))
    expected = lattice_hermite_oracle(C)
    delta = sum(expected.diagonal_exponents)
    assert delta >= a
    precisions = []
    run = field._hermite_mod_tpow

    def spy(p, cols, N):
        precisions.append(N)
        return run(p, cols, N)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_hermite_mod_tpow", spy)
        assert lattice_hermite(C) == expected
    assert precisions[0] == 1 and len(precisions) >= 2
    assert all(N <= delta for N in precisions[:-1]) and precisions[-1] > delta


def _diagonal_columns(exponents, N):
    """The columns of diag(t^e_i) mod t^N, as `_hermite_mod_tpow` takes them."""
    return [[[int(r == j and k == e) for k in range(N)] for r in range(len(exponents))]
            for j, e in enumerate(exponents)]


def test_hermite_mod_tpow_returns_only_a_certified_diagonal():
    """A run returns the d_i only when it sees every pivot with sum below N:
    diag(t^3, t^3) sees both pivots at N = 4 but 3 + 3 >= 4, so it returns
    None, as a run that misses a pivot does; at N = 7 it certifies."""
    assert field._hermite_mod_tpow(3, _diagonal_columns((3, 3), 4), 4) is None
    assert field._hermite_mod_tpow(3, _diagonal_columns((3, 0), 2), 2) is None
    assert field._hermite_mod_tpow(3, _diagonal_columns((3, 3), 7), 7) == [3, 3]
    assert field._hermite_mod_tpow(3, _diagonal_columns((3, 0), 4), 4) == [3, 0]


def _precisions(B):
    """The N of each `_hermite_mod_tpow` run of `lattice_hermite(B)`, and its
    result or the exception it raised."""
    precisions, run = [], field._hermite_mod_tpow

    def spy(p, cols, N):
        precisions.append(N)
        return run(p, cols, N)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(field, "_hermite_mod_tpow", spy)
        try:
            out = lattice_hermite(B)
        except SingularBasis as exc:
            out = exc
    return precisions, out


def _singular_bound(B):
    """sum_i max_j deg P_ij, with P_ij = n_ij prod_{k != j} e_ik for the
    canonical n_ij / e_ij of t^-m B (see `lattice_hermite`), in
    RationalFunction arithmetic."""
    F = B.field
    m = min(int(e.valuation()) for row in B.entries for e in row if e.num)
    bound = 0
    for row in B.entries:
        shifted = [e * F.t_power(-m) for e in row]
        dens = sum(len(e.den) - 1 for e in shifted)
        bound += dens + max(len(e.num) - len(e.den) for e in shifted if e.num)
    return bound


def _assert_doubling(precisions, bound):
    assert precisions[0] == 1
    for N, after in zip(precisions, precisions[1:]):
        assert after == min(bound + 1, 2 * N)


@settings(max_examples=60, deadline=None)
@given(B=hermite_bases(min_n=2), a=st.integers(0, 40), j=st.integers(0, 2))
def test_hermite_precision_doubles_capped_at_the_bound(B, a, j):
    """Each run after the first doubles N, capped at bound + 1, and the last
    run is the first with N > delta'.  Scaling a column by t^a raises delta'
    by a, so the cap is reached at large a."""
    F, j = B.field, j % B.rows
    C = MatrixK(F, tuple(tuple(e * F.t_power(a) if k == j else e for k, e in enumerate(row))
                         for row in B.entries))
    precisions, out = _precisions(C)
    assert out == lattice_hermite_oracle(C)
    delta = sum(out.diagonal_exponents) - C.rows * min(
        int(e.valuation()) for row in C.entries for e in row if e.num)
    _assert_doubling(precisions, _singular_bound(C))
    assert all(N <= delta for N in precisions[:-1]) and precisions[-1] > delta


def test_hermite_precisions_on_fixed_bases():
    """This basis has diagonal t^3 and bound 26; the run at N = 4 sees all
    three pivots with sum 9, and N still just doubles: 8, then 16 > delta' =
    9.  A singular basis runs N = 1, 2, 4, ... up to bound + 1, then raises."""
    D = MatrixK.from_rows(F3, [["t^3", "1", "t^20"], ["0", "t^3", "0"], ["0", "0", "t^3"]])
    assert _singular_bound(D) == 26
    assert _precisions(D) == ([1, 2, 4, 8, 16], lattice_hermite_oracle(D))
    for name, rows in SINGULAR_BASES.items():
        B = MatrixK.from_rows(F3, rows)
        if B.rows != B.cols or all(e.is_zero() for row in B.entries for e in row):
            continue
        precisions, out = _precisions(B)
        assert isinstance(out, SingularBasis), name
        bound = _singular_bound(B)
        _assert_doubling(precisions, bound)
        assert precisions[-1] == bound + 1, name


def test_smith_exponents_invariance():
    # smith_exponents is the test oracle of the relative elementary divisors
    rng = random.Random(23)
    for _ in range(15):
        B = random_matrix(rng, F3, 2, invertible=True)
        e = smith_exponents(B)
        U, V = _random_gl_a(rng, 2), _random_gl_a(rng, 2)
        assert smith_exponents(U * B * V) == e
        assert list(e) == sorted(e)
    D = MatrixK.from_rows(F3, [["t^2", "0"], ["0", "(1)/(t)"]])
    assert smith_exponents(D) == (-1, 2)


# -- strings ---------------------------------------------------------------------

def test_string_roundtrip():
    rng = random.Random(31)
    for _ in range(100):
        f = random_rf(rng)
        assert rf_from_string(F3, rf_to_string(f)) == f
    assert rf_from_string(F3, "(t^2 + 1)/(t + 2)") == F3.rf((1, 0, 1), (2, 1))
    assert rf_from_string(F3, "2*t^3 - 1") == F3.rf((-1, 0, 0, 2))
    assert rf_from_string(F3, "2 * t - t^2") == F3.rf((0, 2, -1))
    assert rf_to_string(F3.zero()) == "0"


@pytest.mark.parametrize("literal, message", [
    ("t^-1", "negative exponent in 't^-1'"),
    ("1 + 2*t^-3", "negative exponent in '2*t^-3'"),
    ("(1)/(t^-2)", "negative exponent in 't^-2'"),
    ("2**t", "cannot parse term '2**t'"),
    ("2***t + 1", "cannot parse term '2***t'"),
    # int() reads all of these: 10, t^10, 3 and 12
    ("1_0", "cannot parse term '1_0'"),
    ("t^1_0", "cannot parse exponent in term 't^1_0'"),
    ("\u0663", "cannot parse term '\u0663'"),
    ("2*t + \uff11\uff12", "cannot parse term '\uff11\uff12'"),
])
def test_malformed_literal_is_refused_naming_the_term(literal, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        rf_from_string(F3, literal)


@pytest.mark.parametrize("literal", ["t+", "t++1", "+", "", " ", "()", "(t)/()", "1/",
                                     "t + -1", "++t", "+-t"])
def test_literal_with_an_empty_term_is_refused(literal):
    with pytest.raises(ValueError, match="empty term in "):
        rf_from_string(F3, literal)


def test_literal_may_sign_its_first_term():
    assert rf_from_string(F3, "-t") == rf_from_string(F3, " - t") == F3.rf((0, 2))
    assert rf_from_string(F3, "+t + 1") == rf_from_string(F3, "(+1 + t)/(+1)") == F3.rf((1, 1))
    assert rf_from_string(F3, "(-1)/(-t + 1)") == F3.rf(-1, (1, -1))


def _parse_outcome(parse, literal):
    try:
        return parse(literal)
    except Exception as exc:
        return type(exc)


def _parse_by_split_oracle(literal):
    num_s, den_s = rf_split_oracle(literal)
    return _make_rf(F3, _poly_from_string(F3, num_s), _poly_from_string(F3, den_s))


# a fraction's half, bare or in parentheses: far more of these parse than of
# the free strings
_LITERAL_HALF = st.builds(lambda text, wrap: f"({text})" if wrap else text,
                          st.text(alphabet="t0123^*+- ", min_size=1, max_size=5), st.booleans())
_LITERALS = st.one_of(st.text(alphabet="t0123^*+-/() ", max_size=12),
                      st.builds(lambda a, b, pad: f"{a}{pad}/{pad}{b}", _LITERAL_HALF,
                                _LITERAL_HALF, st.sampled_from(("", " "))))


@settings(max_examples=400, deadline=None)
@given(_LITERALS)
@example("1/0")
@example("(t + 1)/(t^2)")
@example(" t/2 ")
@example(" (t) / (2) ")
@example("(1/2)/3")
@example("1/(2)/3")
@example("(1)/(t)/(t)")
@example(")1/2")
def test_split_at_the_one_slash_equals_the_depth_scan(literal):
    """A polynomial holds no slash and no parenthesis but one outer pair, so
    every literal that parses has one slash, at depth 0: splitting at the
    first slash gives the element the depth scan gave, or an error of the
    same type."""
    assert _parse_outcome(lambda s: rf_from_string(F3, s), literal) == \
        _parse_outcome(_parse_by_split_oracle, literal)


def test_zero_denominator_is_refused_by_both_splits():
    for parse in (lambda s: rf_from_string(F3, s), _parse_by_split_oracle):
        with pytest.raises(DivisionByZero):
            parse("1/0")


def test_literal_exponent_past_the_degree_budget_is_refused():
    # only exponents above the budget, which are refused before allocating
    for literal in (f"t^{MAX_LITERAL_DEGREE + 1}", "2*t^99999999999 + 1",
                    "(1)/(t^99999999999)"):
        with pytest.raises(ValueError, match="degree budget of 1000"):
            rf_from_string(F3, literal)


def test_prime_validation():
    with pytest.raises(ValueError):
        FunctionField(4)
    # characteristics are bounded below 2^31: the largest prime under the
    # bound loads, the first prime above it does not
    assert FunctionField(2 ** 31 - 1).p == 2 ** 31 - 1
    with pytest.raises(ValueError, match="below 2"):
        FunctionField(2 ** 31 + 11)
