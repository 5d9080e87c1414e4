"""Exact arithmetic: canonical forms, valuations, Frobenius, solving, lattices."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from nodalcover.errors import DivisionByZero, SingularBasis
from nodalcover.field import (
    FunctionField,
    MatrixK,
    _make_rf,
    _padd,
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

from helpers import F3, F5, F7, random_matrix, random_rf, smith_exponents


# -- canonical forms ---------------------------------------------------------

def test_telescoping_sum_is_one():
    t = F3.t()
    one = F3.one()
    assert t / (t + one) + one / (t + one) == one


def test_mul_by_inverse_is_one():
    rng = random.Random(7)
    for _ in range(50):
        f = random_rf(rng, F3, nonzero=True)
        assert (f * f.inverse()).is_one()
        assert (f / f).is_one()


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


# -- monomial fast paths against the general path -----------------------------

KERNEL_FIELDS = [FunctionField(2), F3, F7]
KERNEL_IDS = ["F2", "F3", "F7"]


def _coeffs(F, nonzero=False):
    c = st.integers(0, F.p - 1)
    return c.filter(bool) if nonzero else c


def _poly_of_order(data, F, order):
    """A normalised polynomial whose lowest nonzero term has degree ``order``."""
    low = data.draw(_coeffs(F, nonzero=True))
    rest = data.draw(st.lists(_coeffs(F), max_size=3))
    if rest:
        rest.append(data.draw(_coeffs(F, nonzero=True)))
    return (0,) * order + (low,) + tuple(rest)


def _monomial(data, F, k):
    return (0,) * k + (data.draw(_coeffs(F, nonzero=True)),)


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=KERNEL_IDS)
@pytest.mark.parametrize("where", ["below", "equal", "above"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_make_rf_monomial_den_matches_euclid(F, where, data):
    # ord num below, equal to or above the denominator's degree k
    if where == "below":
        k = data.draw(st.integers(1, 4))
        order = data.draw(st.integers(0, k - 1))
    elif where == "equal":
        k = order = data.draw(st.integers(0, 4))
    else:
        k = data.draw(st.integers(0, 4))
        order = data.draw(st.integers(k + 1, k + 3))
    num = _poly_of_order(data, F, order)
    den = _monomial(data, F, k)
    got = _make_rf(F, num, den)
    # the general canonical form: divide out the Euclidean gcd, make den monic
    g = _pgcd(F, num, den)
    n, d = _pdivmod(F, num, g)[0], _pdivmod(F, den, g)[0]
    inv = F.cinv(d[-1])
    assert got.num == tuple(F.cmul(c, inv) for c in n)
    assert got.den == tuple(F.cmul(c, inv) for c in d)
    assert got.den[-1] == 1
    assert len(_poly_gcd_oracle(F.p, got.num, got.den)) == 1


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
        assert (a * a.inverse()).is_one()


@settings(max_examples=100, deadline=None)
@given(small_rf.filter(lambda f: not f.is_zero()), st.integers(-5, 5))
def test_rf_power_matches_repeated_products(f, k):
    expected = F3.one()
    for _ in range(abs(k)):
        expected = expected * (f if k > 0 else F3.one() / f)
    assert f ** k == expected


def test_t_power_is_canonical():
    for k in range(-4, 5):
        f = F3.t_power(k)
        assert f == F3.rf(f.num, f.den) and f.valuation() == k
        assert f == F3.t() ** k


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
    # 1/(1 - t) = 1 + t + t^2 + ... over the three-element field
    f = F3.rf(1, (1, -1))
    coeffs = tadic_coefficients(f, 4)
    assert coeffs == {0: 1, 1: 1, 2: 1, 3: 1}


# -- Frobenius -----------------------------------------------------------------

def test_frobenius_examples_and_hom():
    t = F3.t()
    assert t.frobenius() == t ** 3
    rng = random.Random(3)
    for _ in range(100):
        f, g = random_rf(rng), random_rf(rng)
        assert (f + g).frobenius() == f.frobenius() + g.frobenius()
        assert (f * g).frobenius() == f.frobenius() * g.frobenius()
    assert F3.from_int(2).frobenius() == F3.from_int(2)


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
    assert solve_linear(Z, bad).is_empty


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
    assert sol.kernel[0].entries[1][0].is_one()
    assert sol.kernel[1].entries[2][0].is_one()


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


# -- lattices ---------------------------------------------------------------------

def test_hermite_identity_and_diagonal():
    I = MatrixK.identity(F3, 2)
    assert lattice_hermite(I).basis == I
    D = MatrixK.from_rows(F3, [["t^2", "0"], ["0", "1"]])
    assert lattice_hermite(D).basis == D
    assert lattice_hermite(D).diagonal_exponents == (2, 0)


def _random_unit_a(rng):
    # valuation-zero element: nonzero constant term over t-free denominator
    num = [rng.choice([1, 2])] + [rng.randrange(3) for _ in range(2)]
    den = [1] + [rng.randrange(3) for _ in range(2)]
    return F3.rf(tuple(num), tuple(den))


def _random_integral(rng):
    num = [rng.randrange(3) for _ in range(3)]
    den = [1] + [rng.randrange(3) for _ in range(2)]
    return F3.rf(tuple(num), tuple(den))


def _random_gl_a(rng, n):
    """Random invertible-over-the-valuation-ring matrix via elementary ops."""
    M = MatrixK.identity(F3, n)
    rows = [list(r) for r in M.entries]
    for _ in range(6):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            f = _random_integral(rng)
            for k in range(n):
                rows[k][j] = rows[k][j] + f * rows[k][i]
        elif kind == 1:
            u = _random_unit_a(rng)
            for k in range(n):
                rows[k][i] = rows[k][i] * u
        elif i != j:
            for k in range(n):
                rows[k][i], rows[k][j] = rows[k][j], rows[k][i]
    return MatrixK(F3, tuple(tuple(r) for r in rows))


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


def test_hermite_rejects_singular():
    with pytest.raises(SingularBasis):
        lattice_hermite(MatrixK.from_rows(F3, [["1", "1"], ["1", "1"]]))


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
    assert rf_to_string(F3.zero()) == "0"


def test_prime_validation():
    with pytest.raises(ValueError):
        FunctionField(4)
    # characteristics are bounded below 2^31: the largest prime under the
    # bound loads, the first prime above it does not
    assert FunctionField(2 ** 31 - 1).p == 2 ** 31 - 1
    with pytest.raises(ValueError, match="below 2"):
        FunctionField(2 ** 31 + 11)
