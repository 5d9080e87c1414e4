"""Exact arithmetic over K = F_p(t) with its t-adic valuation ring.

Everything downstream (representation matrices, descent twists, lattice
transport) computes in the rational function field over a small prime
field.  Elements are kept in a canonical form (coprime numerator and
denominator, monic denominator, zero as 0/1) so equality is literal.
Coefficients are plain ints in [0, p), and the polynomial kernels reduce
mod p inline.  Monomial denominators c*t^k and monomial factors are
normalised and multiplied by shifting and scaling, without Euclid; only
denominators of two or more terms go through the polynomial gcd.

The valuation ring A consists of the elements of nonnegative t-adic
valuation, i.e. F_p[t] localized at (t); its maximal ideal is generated
by the uniformizer t.  No floating point is used anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, DivisionByZero, SingularBasis

INFINITY = math.inf

# The bound keeps the trial division of check_characteristic under 46,341
# steps, so a huge --prime or spec "p" is refused at once instead of hanging.
MAX_CHARACTERISTIC = 2 ** 31


def check_characteristic(p: int) -> None:
    """Raise ValueError unless p is a prime below MAX_CHARACTERISTIC."""
    if not 2 <= p < MAX_CHARACTERISTIC:
        raise ValueError(f"characteristic must be a prime below 2^31, got {p}")
    if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"characteristic must be prime, got {p}")


@dataclass(frozen=True)
class FunctionField:
    """The coefficient field of the package: F_p(t) for a prime p.

    Coefficients are ints in [0, p)."""

    p: int

    def __post_init__(self):
        check_characteristic(self.p)
        object.__setattr__(self, "_cache", {})

    # -- coefficient arithmetic ------------------------------------------
    def cadd(self, a, b):
        return (a + b) % self.p

    def cmul(self, a, b):
        return a * b % self.p

    def cinv(self, a):
        return pow(a, -1, self.p)

    # -- element constructors --------------------------------------------
    def rf(self, num, den=1) -> "RationalFunction":
        """Build an element from int coefficient sequences (ascending powers) or ints."""
        return _make_rf(self, self._coerce_poly(num), self._coerce_poly(den))

    def _coerce_poly(self, obj) -> tuple:
        if isinstance(obj, int):
            obj = (obj,)
        return _pnorm(tuple(c % self.p for c in obj))

    def zero(self) -> "RationalFunction":
        cache = self._cache
        if "zero" not in cache:
            cache["zero"] = self.rf(0)
        return cache["zero"]

    def one(self) -> "RationalFunction":
        cache = self._cache
        if "one" not in cache:
            cache["one"] = self.rf(1)
        return cache["one"]

    def t(self) -> "RationalFunction":
        cache = self._cache
        if "t" not in cache:
            cache["t"] = self.rf((0, 1))
        return cache["t"]

    def t_power(self, k: int) -> "RationalFunction":
        if k >= 0:
            return self.rf([0] * k + [1])
        return self.rf(1, [0] * (-k) + [1])

    def from_int(self, n: int) -> "RationalFunction":
        return self.rf(n)


# ---------------------------------------------------------------------------
# dense polynomial arithmetic (coefficient tuples, ascending powers)
# ---------------------------------------------------------------------------

def _pnorm(a: tuple) -> tuple:
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


def _padd(F: FunctionField, a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    p = F.p
    return _pnorm(tuple([(x + y) % p for x, y in zip(a, b)]) + a[len(b):])


def _pneg(F: FunctionField, a: tuple) -> tuple:
    p = F.p
    return tuple(-c % p for c in a)


def _psub(F: FunctionField, a: tuple, b: tuple) -> tuple:
    return _padd(F, a, _pneg(F, b))


def _pmul(F: FunctionField, a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    if any(a[:-1]):
        a, b = b, a
    p = F.p
    if not any(a[:-1]):
        # a = c*t^k: shift b by k and scale by c; over a field no term vanishes
        c = a[-1]
        if c != 1:
            b = tuple(c * cb % p for cb in b)
        return (0,) * (len(a) - 1) + b
    # exact int sums, reduced once at the end
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    return _pnorm(tuple([c % p for c in out]))


def _pdivmod(F: FunctionField, a: tuple, b: tuple) -> tuple[tuple, tuple]:
    if not b:
        raise DivisionByZero("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    p = F.p
    db = len(b) - 1
    inv_lb = pow(b[-1], -1, p)
    # remainder entries stay unreduced ints until they are read or returned
    rem = list(a)
    quo = [0] * (len(a) - db)
    for k in range(len(a) - db - 1, -1, -1):
        c = rem[k + db] % p
        if not c:
            continue
        q = c * inv_lb % p
        quo[k] = q
        for i, cb in enumerate(b, k):
            rem[i] -= q * cb
    return _pnorm(tuple(quo)), _pnorm(tuple([c % p for c in rem]))


def _pgcd(F: FunctionField, a: tuple, b: tuple) -> tuple:
    while b:
        _, r = _pdivmod(F, a, b)
        a, b = b, r
    if not a:
        return ()
    p = F.p
    inv = pow(a[-1], -1, p)
    return tuple([c * inv % p for c in a])


def _pord(a: tuple) -> int | None:
    for i, c in enumerate(a):
        if c:
            return i
    return None


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalFunction:
    """Canonical num/den over F_p[t]: coprime, monic denominator, int
    coefficients in [0, p)."""

    field: FunctionField
    num: tuple
    den: tuple

    # construction goes through _make_rf; the dataclass stays dumb.

    @property
    def p(self) -> int:
        return self.field.p

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == (1,) and self.den == (1,)

    def __bool__(self) -> bool:
        return bool(self.num)

    def _check(self, other: "RationalFunction"):
        if not isinstance(other, RationalFunction) or other.field != self.field:
            raise DimensionMismatch("operands live in different coefficient fields")

    def __add__(self, other):
        self._check(other)
        if not self.num:
            return other
        if not other.num:
            return self
        F = self.field
        if self.den == other.den:
            return _make_rf(F, _padd(F, self.num, other.num), self.den)
        num = _padd(F, _pmul(F, self.num, other.den), _pmul(F, other.num, self.den))
        return _make_rf(F, num, _pmul(F, self.den, other.den))

    def __sub__(self, other):
        self._check(other)
        if not other.num:
            return self
        F = self.field
        if not self.num:
            return RationalFunction(F, _pneg(F, other.num), other.den)
        if self.den == other.den:
            return _make_rf(F, _psub(F, self.num, other.num), self.den)
        num = _psub(F, _pmul(F, self.num, other.den), _pmul(F, other.num, self.den))
        return _make_rf(F, num, _pmul(F, self.den, other.den))

    def __neg__(self):
        return RationalFunction(self.field, _pneg(self.field, self.num), self.den)

    def __mul__(self, other):
        self._check(other)
        F = self.field
        if not self.num or not other.num:
            return F.zero()
        if self.num == (1,) and self.den == (1,):
            return other
        if other.num == (1,) and other.den == (1,):
            return self
        return _make_rf(F, _pmul(F, self.num, other.num), _pmul(F, self.den, other.den))

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        F = self.field
        return _make_rf(F, _pmul(F, self.num, other.den), _pmul(F, self.den, other.num))

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise DivisionByZero("zero has no inverse")
        return _make_rf(self.field, self.den, self.num)

    def __pow__(self, k: int) -> "RationalFunction":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = self.field.one()
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def valuation(self):
        """t-adic valuation; +inf on zero."""
        if self.is_zero():
            return INFINITY
        return _pord(self.num) - _pord(self.den)

    def frobenius(self) -> "RationalFunction":
        """The p-th power map; a ring endomorphism fixing the prime field."""
        p = self.field.p
        return RationalFunction(self.field, _pfrob(self.num, p), _pfrob(self.den, p))

    def is_pth_power(self) -> bool:
        p = self.field.p
        return _pis_frob(self.num, p) and _pis_frob(self.den, p)

    def pth_root(self) -> "RationalFunction":
        p = self.field.p
        if not self.is_pth_power():
            raise ValueError("element is not a p-th power")
        return RationalFunction(self.field, _punfrob(self.num, p), _punfrob(self.den, p))

    def __str__(self) -> str:
        return rf_to_string(self)

    def __repr__(self) -> str:
        return f"RF({rf_to_string(self)})"


def _make_rf(F: FunctionField, num: tuple, den: tuple) -> RationalFunction:
    num = _pnorm(num)
    den = _pnorm(den)
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return RationalFunction(F, (), (1,))
    p = F.p
    if not any(den[:-1]):
        # den = c*t^k (a constant is k = 0): the gcd is t^s with s = min(k, ord num)
        k, c = len(den) - 1, den[-1]
        s = 0
        while s < k and not num[s]:
            s += 1
        if c != 1:
            inv = pow(c, -1, p)
            num = tuple([x * inv % p for x in num])
        elif not s:
            return RationalFunction(F, num, den)
        return RationalFunction(F, num[s:], (0,) * (k - s) + (1,))
    g = _pgcd(F, num, den)
    if len(g) > 1 or g[0] != 1:
        num = _pdivmod(F, num, g)[0]
        den = _pdivmod(F, den, g)[0]
    lc = den[-1]
    if lc != 1:
        inv = pow(lc, -1, p)
        num = tuple([c * inv % p for c in num])
        den = tuple([c * inv % p for c in den])
    return RationalFunction(F, num, den)


def _pfrob(a: tuple, p: int) -> tuple:
    # (sum a_i t^i)^p = sum a_i^p t^{ip}, and a^p = a on F_p coefficients
    if not a:
        return ()
    out = [0] * ((len(a) - 1) * p + 1)
    for i, c in enumerate(a):
        out[i * p] = c
    return tuple(out)


def _pis_frob(a: tuple, p: int) -> bool:
    return all(c == 0 for i, c in enumerate(a) if i % p)


def _punfrob(a: tuple, p: int) -> tuple:
    if not a:
        return ()
    return tuple(a[i] for i in range(0, len(a), p))


# ---------------------------------------------------------------------------
# string form: polynomials in sparse c*t^k notation, elements as num/den
# ---------------------------------------------------------------------------

def _poly_to_string(a: tuple) -> str:
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        if k == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append("t" if k == 1 else f"t^{k}")
        else:
            parts.append(f"{c}*t" if k == 1 else f"{c}*t^{k}")
    return " + ".join(parts)


def _poly_from_string(F: FunctionField, s: str) -> tuple:
    s = s.strip().replace("-", "+-")
    if s.startswith("+-"):
        s = s[1:]
    coeffs: dict[int, int] = {}
    for raw in s.split("+"):
        term = raw.strip()
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:].strip()
        if "t" in term:
            coeff_part, _, exp_part = term.partition("t")
            coeff_part = coeff_part.rstrip("*").strip()
            exp = 1
            if exp_part.startswith("^"):
                try:
                    exp = int(exp_part[1:])
                except ValueError:
                    raise ValueError(f"cannot parse exponent in term {raw!r}") from None
                if exp < 0:
                    raise ValueError(
                        f"negative exponent in {raw!r}: put powers of t in the denominator")
            elif exp_part.strip():
                raise ValueError(f"cannot parse term {raw!r}")
            c = int(coeff_part) if coeff_part else 1
        else:
            exp = 0
            c = int(term)
        coeffs[exp] = coeffs.get(exp, 0) + (-c if neg else c)
    if not coeffs:
        return ()
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c % F.p
    return _pnorm(tuple(out))


def rf_to_string(f: RationalFunction) -> str:
    num = _poly_to_string(f.num)
    if f.den == (1,):
        return num
    return f"({num})/({_poly_to_string(f.den)})"


def rf_from_string(field: FunctionField, s: str) -> RationalFunction:
    s = s.strip()
    if "/" in s:
        # split at the top-level slash (parenthesized halves or bare monomials)
        depth = 0
        split = None
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "/" and depth == 0:
                split = i
                break
        if split is None:
            raise ValueError(f"cannot parse {s!r}")
        num_s, den_s = s[:split], s[split + 1:]
    else:
        num_s, den_s = s, "1"
    num_s = num_s.strip()
    den_s = den_s.strip()
    if num_s.startswith("(") and num_s.endswith(")"):
        num_s = num_s[1:-1]
    if den_s.startswith("(") and den_s.endswith(")"):
        den_s = den_s[1:-1]
    return _make_rf(field, _poly_from_string(field, num_s), _poly_from_string(field, den_s))


# ---------------------------------------------------------------------------
# matrices over K
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixK:
    """Immutable rectangular matrix with RationalFunction entries."""

    field: FunctionField
    entries: tuple[tuple[RationalFunction, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise DimensionMismatch("matrices must have positive dimensions")
        w = len(self.entries[0])
        if any(len(row) != w for row in self.entries):
            raise DimensionMismatch("ragged rows")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @classmethod
    def from_rows(cls, field: FunctionField, rows: Sequence[Sequence]) -> "MatrixK":
        conv = []
        for row in rows:
            out = []
            for e in row:
                if isinstance(e, RationalFunction):
                    out.append(e)
                elif isinstance(e, str):
                    out.append(rf_from_string(field, e))
                else:
                    out.append(field.rf(e))
            conv.append(tuple(out))
        return cls(field, tuple(conv))

    @classmethod
    def identity(cls, field: FunctionField, n: int) -> "MatrixK":
        one, zero = field.one(), field.zero()
        return cls(field, tuple(
            tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, field: FunctionField, rows: int, cols: int) -> "MatrixK":
        zero = field.zero()
        return cls(field, tuple(tuple(zero for _ in range(cols)) for _ in range(rows)))

    def __add__(self, other: "MatrixK") -> "MatrixK":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in matrix addition")
        return MatrixK(self.field, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "MatrixK") -> "MatrixK":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in matrix subtraction")
        return MatrixK(self.field, tuple(
            tuple(a - b for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)))

    def __mul__(self, other: "MatrixK") -> "MatrixK":
        if self.cols != other.rows:
            raise DimensionMismatch("shape mismatch in matrix product")
        cols = list(zip(*other.entries))
        zero = self.field.zero()
        out = []
        for row in self.entries:
            new = []
            for col in cols:
                acc = None
                for a, b in zip(row, col):
                    if a.num and b.num:
                        term = a * b
                        acc = term if acc is None else acc + term
                new.append(zero if acc is None else acc)
            out.append(tuple(new))
        return MatrixK(self.field, tuple(out))

    def scale(self, c: RationalFunction) -> "MatrixK":
        return MatrixK(self.field, tuple(tuple(c * e for e in row) for row in self.entries))

    def kron(self, other: "MatrixK") -> "MatrixK":
        out = []
        for ra in self.entries:
            for rb in other.entries:
                out.append(tuple(a * b for a in ra for b in rb))
        return MatrixK(self.field, tuple(out))

    def map_entries(self, fn) -> "MatrixK":
        return MatrixK(self.field, tuple(tuple(fn(e) for e in row) for row in self.entries))

    def frobenius(self) -> "MatrixK":
        return self.map_entries(lambda e: e.frobenius())

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one, zero = self.field.one(), self.field.zero()
        return all(e == (one if i == j else zero)
                   for i, row in enumerate(self.entries) for j, e in enumerate(row))

    def det(self) -> RationalFunction:
        if self.rows != self.cols:
            raise DimensionMismatch("determinant needs a square matrix")
        n = self.rows
        m = [list(row) for row in self.entries]
        acc = self.field.one()
        sign = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if m[r][col].num), None)
            if piv is None:
                return self.field.zero()
            if piv != col:
                m[piv], m[col] = m[col], m[piv]
                sign = -sign
            acc = acc * m[col][col]
            inv = m[col][col].inverse()
            for r in range(col + 1, n):
                if m[r][col].num:
                    f = m[r][col] * inv
                    m[r] = [a - f * b for a, b in zip(m[r], m[col])]
        if sign < 0:
            acc = -acc
        return acc

    def inverse(self) -> "MatrixK":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse needs a square matrix")
        sol = solve_linear(self, MatrixK.identity(self.field, self.rows))
        if sol.particular is None or sol.kernel:
            raise SingularBasis("matrix is not invertible")
        return sol.particular

    def __pow__(self, k: int) -> "MatrixK":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = MatrixK.identity(self.field, self.rows)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def column(self, j: int) -> "MatrixK":
        return MatrixK(self.field, tuple((row[j],) for row in self.entries))

    def to_strings(self) -> list[list[str]]:
        return [[rf_to_string(e) for e in row] for row in self.entries]

    def __repr__(self) -> str:
        return f"MatrixK({self.to_strings()})"


@dataclass(frozen=True)
class LinearSolution:
    """Affine solution space of M X = rhs: one particular solution plus a
    deterministic reduced kernel basis (column vectors).  particular is None
    when the system is inconsistent."""

    particular: MatrixK | None
    kernel: tuple[MatrixK, ...]

    @property
    def is_empty(self) -> bool:
        return self.particular is None


def solve_linear(M: MatrixK, rhs: MatrixK) -> LinearSolution:
    """Exact Gaussian elimination over K.

    The kernel basis comes from the reduced row echelon form: one vector per
    free column, with entry 1 at its own free column and 0 at the others, so
    the basis is canonical for a given column order.
    """
    if M.rows != rhs.rows:
        raise DimensionMismatch("matrix and right-hand side have different heights")
    F = M.field
    n, m, k = M.rows, M.cols, rhs.cols
    a = [list(M.entries[i]) + list(rhs.entries[i]) for i in range(n)]
    pivots: list[int] = []
    row = 0
    for col in range(m):
        piv = next((r for r in range(row, n) if a[r][col].num), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = a[row][col].inverse()
        a[row] = [e * inv for e in a[row]]
        for r in range(n):
            if r != row and a[r][col].num:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    zero, one = F.zero(), F.one()
    for r in range(row, n):
        if any(a[r][m + j].num for j in range(k)):
            return LinearSolution(None, ())
    part = [[zero] * k for _ in range(m)]
    for r, col in enumerate(pivots):
        for j in range(k):
            part[col][j] = a[r][m + j]
    free = [c for c in range(m) if c not in pivots]
    kernel = []
    for fcol in free:
        vec = [zero] * m
        vec[fcol] = one
        for r, col in enumerate(pivots):
            vec[col] = -a[r][fcol]
        kernel.append(MatrixK(F, tuple((e,) for e in vec)))
    return LinearSolution(MatrixK(F, tuple(tuple(r) for r in part)), tuple(kernel))


# ---------------------------------------------------------------------------
# t-adic expansions and lattice normal forms
# ---------------------------------------------------------------------------

def tadic_coefficients(f: RationalFunction, upto: int) -> dict[int, int]:
    """Coefficients of the t-adic expansion of f for exponents < upto."""
    if f.is_zero():
        return {}
    F = f.field
    v = f.valuation()
    if v >= upto:
        return {}
    on = _pord(f.num)
    od = _pord(f.den)
    n0 = f.num[on:]
    d0 = f.den[od:]
    terms = upto - v
    p = F.p
    inv0 = pow(d0[0], -1, p)
    series = []
    for kk in range(terms):
        acc = n0[kk] if kk < len(n0) else 0
        for i in range(1, min(kk, len(d0) - 1) + 1):
            acc -= d0[i] * series[kk - i]
        series.append(acc * inv0 % p)
    return {v + i: c for i, c in enumerate(series) if c}


def _residue_mod_tpow(f: RationalFunction, d: int) -> RationalFunction:
    """Canonical representative of f modulo t^d * A: the Laurent tail of the
    expansion below exponent d."""
    F = f.field
    coeffs = tadic_coefficients(f, d)
    if not coeffs:
        return F.zero()
    lo = min(coeffs)
    poly = [0] * (max(coeffs) - lo + 1)
    for k, c in coeffs.items():
        poly[k - lo] = c
    num = _pnorm(tuple(poly))
    if lo >= 0:
        return F.rf((0,) * lo + num)
    return _make_rf(F, num, (0,) * (-lo) + (1,))


@dataclass(frozen=True)
class LatticeK:
    """Full A-lattice in K^n, stored by its canonical t-adic Hermite basis."""

    field: FunctionField
    n: int
    basis: MatrixK

    @property
    def diagonal_exponents(self) -> tuple[int, ...]:
        return tuple(int(self.basis.entries[i][i].valuation()) for i in range(self.n))


def lattice_hermite(basis: MatrixK) -> LatticeK:
    """Canonical form of the column lattice of an invertible matrix.

    Column operations over the valuation ring only: the result is upper
    triangular with diagonal t^{d_i} and the entry (i, j), j > i, reduced to
    the canonical residue modulo t^{d_i} * A.  Two bases span the same
    lattice exactly when their canonical forms coincide.
    """
    if basis.rows != basis.cols:
        raise SingularBasis("lattice bases must be square")
    F = basis.field
    n = basis.rows
    cols = [[basis.entries[i][j] for i in range(n)] for j in range(n)]

    def val(c, i):
        return cols[c][i].valuation()

    for i in range(n - 1, -1, -1):
        best, bestv = None, INFINITY
        for c in range(i + 1):
            v = val(c, i)
            if v < bestv:
                best, bestv = c, v
        if best is None or bestv == INFINITY:
            raise SingularBasis("basis is singular over K")
        cols[best], cols[i] = cols[i], cols[best]
        d = int(bestv)
        unit_inv = (F.t_power(d) / cols[i][i])
        cols[i] = [e * unit_inv for e in cols[i]]
        tpow_inv = F.t_power(-d)
        for c in range(i):
            if cols[c][i].num:
                q = cols[c][i] * tpow_inv
                cols[c] = [a - q * b for a, b in zip(cols[c], cols[i])]
    for i in range(n - 1, -1, -1):
        d = int(cols[i][i].valuation())
        tpow_inv = F.t_power(-d)
        for j in range(i + 1, n):
            e = cols[j][i]
            if not e.num:
                continue
            r = _residue_mod_tpow(e, d)
            q = (e - r) * tpow_inv
            if q.num:
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[i])]
    entries = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return LatticeK(F, n, MatrixK(F, entries))
