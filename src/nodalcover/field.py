"""Exact arithmetic over K = F_p(t) with its t-adic valuation ring.

Everything downstream (representation matrices, descent twists, lattice
transport) computes in the rational function field over a small prime
field.  Elements are kept in a canonical form (coprime numerator and
denominator, monic denominator, zero as 0/1) so equality is literal.
Coefficients are plain ints in [0, p), and the polynomial kernels reduce
mod p inline.  `_make_rf` is the one normaliser of a (num, den) pair: when
either side is a monomial c*t^k the gcd is a power of t, stripped by a
shift, and only a numerator and a denominator of two or more terms each go
through the polynomial gcd.  `_pmul` multiplies by a monomial factor by
shifting and scaling.  Determinants are fraction-free (Bareiss), and each
exact division is a field division.

The valuation ring A consists of the elements of nonnegative t-adic
valuation, i.e. F_p[t] localized at (t); its maximal ideal is generated
by the uniformizer t.  Lattice normal forms (`lattice_hermite`) do no
rational-function arithmetic: the Hermite form is computed modulo t^N on
int lists of t-adic coefficients, at a precision N > v(det) that the run
certifies, and each output entry, t^m times a polynomial, is normalised by
`_make_rf`'s monomial rule, without Euclid.  No floating point is used
anywhere.

Value types are plain classes whose fields are read-only by contract: an
AST guard in `tests/test_stdlib_only.py` refuses any store to them outside
their own class.  Result records with no checks and no derived state
(`LinearSolution`, `LatticeK`) are `typing.NamedTuple`s.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import DimensionMismatch, DivisionByZero, SingularBasis

INFINITY = math.inf

# The bound keeps the trial division of check_characteristic under 46,341
# steps, so a huge spec "p" is refused at once instead of hanging.
MAX_CHARACTERISTIC = 2 ** 31

# A literal c*t^k is parsed into k + 1 dense coefficients, and a product of
# two entries costs about the product of their lengths, so an exponent in a
# spec is refused past this budget before anything is allocated.
MAX_LITERAL_DEGREE = 1000


def check_characteristic(p: int) -> None:
    """Raise ValueError unless p is a prime below MAX_CHARACTERISTIC."""
    if not 2 <= p < MAX_CHARACTERISTIC:
        raise ValueError(f"characteristic must be a prime below 2^31, got {p}")
    if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"characteristic must be prime, got {p}")


class FunctionField:
    """The coefficient field of the package: F_p(t) for a prime p.

    Coefficients are ints in [0, p)."""

    def __init__(self, p: int):
        check_characteristic(p)
        self.p = p
        self._zero = RationalFunction(self, (), (1,))
        self._one = RationalFunction(self, (1,), (1,))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash((self.p,))

    # -- element constructors --------------------------------------------
    def rf(self, num, den=1) -> "RationalFunction":
        """Build an element from int coefficient sequences (ascending powers) or ints."""
        p = self.p
        num = (num % p,) if isinstance(num, int) else tuple([c % p for c in num])
        den = (den % p,) if isinstance(den, int) else tuple([c % p for c in den])
        return _make_rf(self, num, den)

    def zero(self) -> "RationalFunction":
        return self._zero

    def one(self) -> "RationalFunction":
        return self._one

    def t_power(self, k: int) -> "RationalFunction":
        if k >= 0:
            return RationalFunction(self, (0,) * k + (1,), (1,))
        return RationalFunction(self, (1,), (0,) * -k + (1,))


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
    s = tuple([(x + y) % p for x, y in zip(a, b)]) + a[len(b):]
    return s if not s or s[-1] else _pnorm(s)


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

class RationalFunction:
    """Canonical num/den over F_p[t]: coprime, monic denominator, int
    coefficients in [0, p).  Construction goes through `_make_rf`, which
    normalises; this constructor stores what it is given, and an AST guard
    in `tests/test_stdlib_only.py` lists the few functions that call it.
    Each operator checks that its operands share a field and runs its kernel
    (`_rf_mul`, `_rf_combine`); a matrix operation checks once and calls the
    kernels.

    A canonical denominator is monic, so it is t^k exactly when all but its
    last coefficient are zero.  A nonzero constant c times n/d is c*n/d,
    already canonical, so it is not normalised.  A product over t^a and t^b
    takes the numerators' product over the denominators' product, which
    `_pmul` forms as a shift, and a sum over t^a and t^b, a < b, is
    (n_a*t^(b-a) + n_b)/t^b, with no product of denominators.  An operand
    whose denominator has two or more terms cross-multiplies."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: FunctionField, num: tuple, den: tuple):
        self.field = field
        self.num = num
        self.den = den

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.num, self.den) == (other.field, other.num, other.den)

    def __hash__(self):
        return hash((self.field, self.num, self.den))

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def _check(self, other: "RationalFunction"):
        if not isinstance(other, RationalFunction) or (
                other.field is not self.field and other.field != self.field):
            raise DimensionMismatch("operands live in different coefficient fields")

    def __add__(self, other):
        self._check(other)
        return _rf_combine(self.field, self, other, _padd)

    def __sub__(self, other):
        self._check(other)
        return _rf_combine(self.field, self, other, _psub)

    def __neg__(self):
        return RationalFunction(self.field, _pneg(self.field, self.num), self.den)

    def __mul__(self, other):
        self._check(other)
        return _rf_mul(self.field, self, other)

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


def _rf_mul(F: FunctionField, a: RationalFunction, b: RationalFunction) -> RationalFunction:
    """a * b; the caller has checked that both lie in F."""
    if not a.num or not b.num:
        return F._zero
    if len(b.num) == 1 == len(b.den):
        a, b = b, a
    if len(a.num) == 1 == len(a.den):
        # a nonzero constant c scales b, and c*n/d is still canonical
        c = a.num[0]
        if c == 1:
            return b
        p = F.p
        return RationalFunction(F, tuple([c * x % p for x in b.num]), b.den)
    return _make_rf(F, _pmul(F, a.num, b.num), _pmul(F, a.den, b.den))


def _rf_combine(F: FunctionField, x: RationalFunction, y: RationalFunction, op) -> RationalFunction:
    """x + y or x - y, as op is _padd or _psub; the caller has checked the field."""
    if not y.num:
        return x
    a, b, da, db = x.num, y.num, x.den, y.den
    if not a:
        return RationalFunction(F, op(F, a, b), db)
    if da == db:
        return _make_rf(F, op(F, a, b), da)
    ka, kb = len(da) - 1, len(db) - 1
    if da.count(0) == ka and db.count(0) == kb:
        # t^ka and t^kb: shift the numerator over the smaller power up
        if ka < kb:
            return _make_rf(F, op(F, (0,) * (kb - ka) + a, b), db)
        return _make_rf(F, op(F, a, (0,) * (ka - kb) + b), da)
    return _make_rf(F, op(F, _pmul(F, a, db), _pmul(F, b, da)), _pmul(F, da, db))


def _power(base, k: int):
    """base ** k for k >= 1, squaring from the top bit down: no product with
    the identity and no square past the last bit, so z ** -1 is one inverse."""
    out = base
    for bit in bin(k)[3:]:
        out = out * out
        if bit == "1":
            out = out * base
    return out


def _make_rf(F: FunctionField, num: tuple, den: tuple) -> RationalFunction:
    """The canonical form of num/den: coprime, monic denominator, zero as
    0/1.  When either side is a monomial c*t^k, the gcd is t^s with s the
    smaller of the two orders, so it is stripped by a shift; only two sides
    of two or more terms each go through Euclid."""
    num = num if not num or num[-1] else _pnorm(num)
    den = den if not den or den[-1] else _pnorm(den)
    if not den:
        raise DivisionByZero("zero denominator")
    if not num:
        return RationalFunction(F, (), (1,))
    if not any(den[:-1]) or not any(num[:-1]):
        s = 0
        while not num[s] and not den[s]:
            s += 1
        if s:
            num, den = num[s:], den[s:]
    else:
        g = _pgcd(F, num, den)
        if len(g) > 1 or g[0] != 1:
            num = _pdivmod(F, num, g)[0]
            den = _pdivmod(F, den, g)[0]
    lc = den[-1]
    if lc != 1:
        p = F.p
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


def _is_decimal(text: str) -> bool:
    """A nonempty run of ASCII digits 0-9: int() alone also reads '1_0' as
    10, '٣' as 3 and ' 2' as 2."""
    return text.isascii() and text.isdigit()


def _poly_from_string(F: FunctionField, s: str) -> tuple:
    # a minus starts a new term, except the sign of an exponent
    text = s.strip()
    s = text.replace("-", "+-").replace("^+-", "^-").removeprefix("+")
    coeffs: dict[int, int] = {}
    for raw in s.split("+"):
        term = raw.strip()
        if not term:
            raise ValueError(f"empty term in {text!r}")
        neg = term.startswith("-")
        if neg:
            term = term[1:].strip()
        coeff, t, exp_part = term.partition("t")
        if t:
            coeff = coeff.strip().removesuffix("*").strip() or "1"
        if not _is_decimal(coeff):
            raise ValueError(f"cannot parse term {raw.strip()!r}")
        c = int(coeff)
        exp = 1 if t else 0
        if exp_part.startswith("^"):
            exp_s = exp_part[1:]
            if exp_s.startswith("-") and _is_decimal(exp_s[1:]):
                raise ValueError(
                    f"negative exponent in {raw.strip()!r}: "
                    "put powers of t in the denominator")
            if not _is_decimal(exp_s):
                raise ValueError(f"cannot parse exponent in term {raw!r}")
            exp = int(exp_s)
            if exp > MAX_LITERAL_DEGREE:
                raise ValueError(f"exponent {exp} in {raw.strip()!r} is above the "
                                 f"degree budget of {MAX_LITERAL_DEGREE}")
        elif exp_part.strip():
            raise ValueError(f"cannot parse term {raw!r}")
        coeffs[exp] = coeffs.get(exp, 0) + (-c if neg else c)
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

class MatrixK:
    """Immutable rectangular matrix whose entries lie in its `field`, as
    `from_rows` checks.  Each operation checks once that its operands share
    that field, then runs its entry arithmetic through `_rf_mul` and `_rf_combine`."""

    def __init__(self, field: FunctionField, entries: tuple[tuple[RationalFunction, ...], ...]):
        if not entries or not entries[0]:
            raise DimensionMismatch("matrices must have positive dimensions")
        w = len(entries[0])
        for row in entries:
            if len(row) != w:
                raise DimensionMismatch("ragged rows")
        self.field = field
        self.entries = entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.entries) == (other.field, other.entries)

    def __hash__(self):
        return hash((self.field, self.entries))

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
                    if e.field is not field and e.field != field:
                        raise DimensionMismatch("entry lives in a different coefficient field")
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

    def _check(self, other) -> FunctionField:
        F = self.field
        if other.field is not F and other.field != F:
            raise DimensionMismatch("operands live in different coefficient fields")
        return F

    def _entrywise(self, other: "MatrixK", op, what: str) -> "MatrixK":
        F = self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"shape mismatch in matrix {what}")
        return MatrixK(F, tuple(
            tuple([_rf_combine(F, a, b, op) for a, b in zip(ra, rb)])
            for ra, rb in zip(self.entries, other.entries)))

    def __add__(self, other: "MatrixK") -> "MatrixK":
        return self._entrywise(other, _padd, "addition")

    def __sub__(self, other: "MatrixK") -> "MatrixK":
        return self._entrywise(other, _psub, "subtraction")

    def __mul__(self, other: "MatrixK") -> "MatrixK":
        F = self._check(other)
        if len(self.entries[0]) != len(other.entries):
            raise DimensionMismatch("shape mismatch in matrix product")
        if len(self.entries) == 1 == len(other.entries[0]) == len(other.entries):
            return MatrixK(F, ((_rf_mul(F, self.entries[0][0], other.entries[0][0]),),))
        cols = list(zip(*other.entries))
        out = []
        for row in self.entries:
            new = []
            for col in cols:
                acc = None
                for a, b in zip(row, col):
                    if a.num and b.num:
                        term = _rf_mul(F, a, b)
                        acc = term if acc is None else _rf_combine(F, acc, term, _padd)
                new.append(F._zero if acc is None else acc)
            out.append(tuple(new))
        return MatrixK(F, tuple(out))

    def scale(self, c: RationalFunction) -> "MatrixK":
        F = self._check(c)
        return MatrixK(F, tuple(tuple([_rf_mul(F, c, e) for e in row]) for row in self.entries))

    def kron(self, other: "MatrixK") -> "MatrixK":
        F = self._check(other)
        out = []
        for ra in self.entries:
            for rb in other.entries:
                out.append(tuple([_rf_mul(F, a, b) for a in ra for b in rb]))
        return MatrixK(F, tuple(out))

    def frobenius(self) -> "MatrixK":
        return MatrixK(self.field, tuple(tuple(e.frobenius() for e in row)
                                         for row in self.entries))

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one, zero = self.field.one(), self.field.zero()
        return all(e == (one if i == j else zero)
                   for i, row in enumerate(self.entries) for j, e in enumerate(row))

    def det(self) -> RationalFunction:
        """Bareiss (1968) elimination on first nonzero pivots: each division by
        the previous pivot is exact, and the first, by 1, is skipped.  Every
        division is `e / prev` in K."""
        if self.rows != self.cols:
            raise DimensionMismatch("determinant needs a square matrix")
        F = self.field
        n = self.rows
        m = [list(row) for row in self.entries]
        prev, sign = None, 1
        for col in range(n):
            piv = col
            while not m[piv][col].num:
                piv += 1
                if piv == n:
                    return F.zero()
            if piv != col:
                m[piv], m[col] = m[col], m[piv]
                sign = -sign
            pc, prow = m[col][col], m[col]
            for row in m[col + 1:]:
                f = row[col]
                for j in range(col + 1, n):
                    e = _rf_combine(F, _rf_mul(F, pc, row[j]), _rf_mul(F, f, prow[j]), _psub)
                    row[j] = e if prev is None else e / prev
            prev = pc
        return prev if sign > 0 else -prev

    def inverse(self) -> "MatrixK":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse needs a square matrix")
        sol = solve_linear(self, MatrixK.identity(self.field, self.rows))
        if sol.particular is None or sol.kernel:
            raise SingularBasis("matrix is not invertible")
        return sol.particular

    def __pow__(self, k: int) -> "MatrixK":
        if self.rows != self.cols:
            raise DimensionMismatch("power needs a square matrix")
        if not k:
            return MatrixK.identity(self.field, self.rows)
        return _power(self if k > 0 else self.inverse(), abs(k))

    def to_strings(self) -> list[list[str]]:
        return [[rf_to_string(e) for e in row] for row in self.entries]

    def __repr__(self) -> str:
        return f"MatrixK({self.to_strings()})"


class LinearSolution(NamedTuple):
    """Affine solution space of M X = rhs: one particular solution plus a
    deterministic reduced kernel basis (column vectors).  particular is None
    when the system is inconsistent."""

    particular: MatrixK | None
    kernel: tuple[MatrixK, ...]


def solve_linear(M: MatrixK, rhs: MatrixK) -> LinearSolution:
    """Exact Gaussian elimination over K.

    The kernel basis comes from the reduced row echelon form: one vector per
    free column, with entry 1 at its own free column and 0 at the others, so
    the basis is canonical for a given column order.

    The reduced row echelon form of [M | rhs] is unique, so the pivot row
    chosen in a column changes only the intermediate entries, never the
    particular solution, the kernel basis or the inconsistency verdict.  The
    pivot is the smallest entry (fewest stored coefficients in num and den),
    ties going to the sparsest row, then to the first: a constant or
    monomial pivot keeps the other rows free of new general denominators, so
    their updates need no Euclid.

    Normalising and subtracting touch only the columns where the pivot row
    is nonzero.  That row is zero left of `col`: every row at or below `row`
    is zero in the earlier pivot columns, which were eliminated, and in the
    earlier free columns, where no pivot was found and where later updates
    subtract only rows from that same zero set.
    """
    F = M._check(rhs)
    if M.rows != rhs.rows:
        raise DimensionMismatch("matrix and right-hand side have different heights")
    n, m, k = M.rows, M.cols, rhs.cols
    a = [list(M.entries[i]) + list(rhs.entries[i]) for i in range(n)]
    pivots: list[int] = []
    row = 0
    for col in range(m):
        candidates = [r for r in range(row, n) if a[r][col].num]
        if not candidates:
            continue
        piv = min(candidates, key=lambda r: (len(a[r][col].num) + len(a[r][col].den),
                                             sum(1 for x in a[r] if x.num)))
        a[row], a[piv] = a[piv], a[row]
        prow = a[row]
        nz = [j for j in range(col, m + k) if prow[j].num]
        inv = prow[col].inverse()
        for j in nz:
            prow[j] = _rf_mul(F, prow[j], inv)
        for r in range(n):
            if r != row and a[r][col].num:
                ar = a[r]
                f = ar[col]
                for j in nz:
                    ar[j] = _rf_combine(F, ar[j], _rf_mul(F, f, prow[j]), _psub)
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

def tadic_coefficients(p: int, num, den, terms: int) -> list[int]:
    """The first `terms` coefficients of the power series num/den over F_p.

    num and den are coefficient sequences (ascending powers) with
    den[0] != 0, so num/den lies in the valuation ring."""
    inv0 = pow(den[0], -1, p)
    top = len(den) - 1
    series: list[int] = []
    for k in range(terms):
        acc = num[k] if k < len(num) else 0
        for i in range(1, min(k, top) + 1):
            acc -= den[i] * series[k - i]
        series.append(acc * inv0 % p)
    return series


class LatticeK(NamedTuple):
    """Full A-lattice in K^n, stored by its canonical t-adic Hermite basis."""

    field: FunctionField
    n: int
    basis: MatrixK

    @property
    def diagonal_exponents(self) -> tuple[int, ...]:
        """The d_i of the diagonal t^{d_i}: the canonical t^d is (0,...,0,1)/(1,) for
        d >= 0 and (1,)/(0,...,0,1) for d < 0, so d = len(num) - len(den)."""
        return tuple([len(r[i].num) - len(r[i].den) for i, r in enumerate(self.basis.entries)])


def lattice_hermite(basis: MatrixK) -> LatticeK:
    """Canonical form of the column lattice of an invertible matrix.

    The result is upper triangular with diagonal t^{d_i}, and its entry
    (i, j), j > i, is the canonical residue modulo t^{d_i} A: a Laurent
    polynomial with exponents below d_i.  Column operations over A preserve
    the lattice, and the form is unique, so two bases span the same lattice
    exactly when their canonical forms coincide.

    It is the Hermite form modulo the determinant (Domich, Kannan and
    Trotter 1987) on int lists mod p.  Let m be the least valuation of an
    entry; B' = t^-m B has entries in A, L' = B' A^n and delta' = v(det B').
    Each entry of B' is expanded mod t^N (`tadic_coefficients`), and
    `_hermite_mod_tpow` runs the bottom-up elimination with valuation pivots
    and then the off-diagonal reduction, each column operation exact on the
    current polynomial matrix C followed by truncation mod t^N.

    Precision: a run certifies itself exactly when N > delta'.  Unimodular
    column operations and changes by t^N M_n(A) keep M = C A^n + t^N A^n
    fixed, and at the start M = L' + t^N A^n.  Adding t^N A^n to a lattice
    with elementary divisors t^{a_k} gives index sum_k min(a_k, N), which is
    below N only when every a_k < N, and then adds nothing.  (1) Let every
    pivot be seen with D = sum d_i < N.  The triangular C with diagonal
    t^{d_i} contains t^D A^n (C adj(C) = t^D I), so M = C A^n has index
    D < N; then L' = M, and the result is the form of L' with D = delta'.
    (2) Let N > delta', so M = L' has index delta' < N.  A pivot zero mod
    t^N at row i would leave rows >= i of M spanned by n - i - 1 columns
    and t^N A^{n-i}, of index >= N; so every pivot is seen, and the count
    applied to C A^n gives D = delta' < N.  N starts at 1, and after a run
    that does not certify it doubles, or becomes D + 1 if that is more.
    Output entries are t^m times polynomials, so `_make_rf` normalises each
    by its monomial rule, to denominator 1 or t^k, without Euclid.  A 1 x 1
    basis costs one valuation.

    Singular input.  Write b'_ij = n_ij / e_ij with e_ij(0) != 0, and clear
    each row's denominators: P_ij = n_ij prod_{k != j} e_ik.  Then
    det(P) = det(B') prod_ik e_ik, whose second factor is a unit, so a
    nonzero det(P) gives delta' <= deg det P <= bound = sum_i max_j deg P_ij.
    A run with N > bound that does not certify therefore proves det B = 0,
    and `SingularBasis` is raised; N never grows past bound + 1.
    """
    F, n, p = basis.field, len(basis.entries), basis.field.p
    if n != len(basis.entries[0]):
        raise SingularBasis("lattice bases must be square")
    if n == 1:
        e = basis.entries[0][0]
        if not e.num:
            raise SingularBasis("basis is singular over K")
        return LatticeK(F, 1, MatrixK(F, ((F.t_power(_pord(e.num) - _pord(e.den)),),)))
    # b_ij = t^v * n0/d0 with n0(0) and d0(0) nonzero
    parts = {}
    for i, row in enumerate(basis.entries):
        for j, e in enumerate(row):
            if e.num:
                on, od = _pord(e.num), _pord(e.den)
                parts[i, j] = (on - od, e.num[on:], e.den[od:])
    if len({i for i, _ in parts}) < n:
        raise SingularBasis("basis is singular over K")
    m = min([v for v, _, _ in parts.values()])

    def expansion(part, N):
        s = N if part is None else part[0] - m
        if s >= N:
            return [0] * N
        return [0] * s + tadic_coefficients(p, part[1], part[2], N - s)

    N, bound = 1, None
    while True:
        cols = [[expansion(parts.get((i, j)), N) for i in range(n)] for j in range(n)]
        ds = _hermite_mod_tpow(p, cols, N)
        if ds is not None and sum(ds) < N:
            break
        if bound is None:
            bound = 0
            for i in range(n):
                # (deg n_ij, deg e_ij) over the row's nonzero entries
                row = [(v - m + len(n0) - 1, len(d0) - 1)
                       for (r, _), (v, n0, d0) in parts.items() if r == i]
                bound += sum(de for _, de in row) + max(dn - de for dn, de in row)
        if N > bound:
            raise SingularBasis("basis is singular over K")
        N = min(bound + 1, 2 * N if ds is None else max(2 * N, sum(ds) + 1))

    # entry (i, j) is t^m * cols[j][i], a polynomial of degree < N
    shift, den = (0,) * max(m, 0), (0,) * max(-m, 0) + (1,)
    zero = F.zero()
    entries = tuple([tuple([_make_rf(F, shift + tuple(cols[j][i]), den) if j >= i else zero
                            for j in range(n)])
                     for i in range(n)])
    return LatticeK(F, n, MatrixK(F, entries))


def _hermite_mod_tpow(p: int, cols: list, N: int) -> list[int] | None:
    """Bring the columns (lists of rows of N coefficients, mod t^N) to
    Hermite form in place; see `lattice_hermite`.  Returns the diagonal
    exponents, or None when a pivot is zero mod t^N.  The off-diagonal
    reduction runs only when their sum is below N."""
    n = len(cols)
    ds = [0] * n
    for i in range(n - 1, -1, -1):
        best, d = None, N
        for c in range(i + 1):
            v = _pord(cols[c][i])
            if v is not None and v < d:
                best, d = c, v
        if best is None:
            return None
        cols[best], cols[i] = cols[i], cols[best]
        piv = cols[i]
        unit = _pnorm(tuple(piv[i][d:]))
        if unit != (1,):
            # scale by the inverse of the unit: the pivot becomes t^d exactly
            piv[:i + 1] = [tadic_coefficients(p, e, unit, N) for e in piv[:i + 1]]
        for c in range(i):
            q = cols[c][i][d:]
            if any(q):
                _sub_mul(p, cols[c], q, piv, i, N)
        ds[i] = d
    if sum(ds) >= N:
        return ds
    for i in range(n - 1, -1, -1):
        d, piv = ds[i], cols[i]
        for j in range(i + 1, n):
            q = cols[j][i][d:]
            if any(q):
                _sub_mul(p, cols[j], q, piv, i, N)
    return ds


def _sub_mul(p: int, col: list, q: list, piv: list, i: int, N: int) -> None:
    """col -= q * piv mod t^N on rows 0..i, where piv's row i is t^d and q
    has N - d terms; row i keeps exactly its part below t^d."""
    for r in range(i + 1):
        b = piv[r]
        if not any(b):
            continue
        out = col[r]
        for k, c in enumerate(q):
            if c:
                for l in range(N - k):
                    out[k + l] -= c * b[l]
        col[r] = [x % p for x in out]
