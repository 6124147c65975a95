"""Exact arithmetic kernel: rationals, real quadratic irrationals, cyclotomic
numbers and integer polynomials.

Every value is immutable and every operation is pure.  No floating point is
used anywhere; approximate answers (when an exact one is out of reach) are
certified rational enclosures produced by Sturm-sequence bisection.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

RationalLike = Union[int, Fraction]


class UnsupportedFieldError(ValueError):
    """Raised when an operation would mix incompatible number fields."""


class ExactnessError(ArithmeticError):
    """Raised when a computation that must stay exact would have to
    approximate."""


# ---------------------------------------------------------------------------
# square-free decomposition


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = c^2 * D with D squarefree.  Requires n >= 0.

    Trial division stops after 10^6.  The cofactor m left has no prime
    below p, the next divisor to try, so when m < p^3 it has at most two
    prime factors: a square joins c, and any other such m is squarefree.
    So every n below 10^18 is decomposed as by unbounded trial division;
    a larger cofactor that is not a square raises ExactnessError."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0, 1
    c, d = 1, 1
    m = n
    p = 2
    while p * p <= m and p <= 10**6:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            c *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if p * p <= m:  # else m is 1 or a prime
        r = math.isqrt(m)
        if r * r == m:
            return c * r, d
        if m >= p**3:
            raise ExactnessError(f"radicand {n} is beyond trial division to 10^6")
    return c, d * m


def is_perfect_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


# ---------------------------------------------------------------------------
# quadratic field elements


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


def _parts(x) -> Optional[tuple[int, int, int, int]]:
    """(a, b, c, D) of a QuadExt, an int or a Fraction; None otherwise."""
    if isinstance(x, QuadExt):
        return x._a, x._b, x._c, x.D
    if isinstance(x, int):
        return x, 0, 1, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator, 1
    return None


def _rational_hash(a: int, c: int) -> int:
    """hash(Fraction(a, c)) for integers a and c > 0, by the formula of
    Python's numeric hash, without building the Fraction.  Reducing a/c
    first matters only when c is a multiple of the hash modulus."""
    g = math.gcd(a, c)
    if g != 1:
        a, c = a // g, c // g
    m = sys.hash_info.modulus
    h = hash(abs(a)) * pow(c, -1, m) if c % m else sys.hash_info.inf
    return hash(h if a >= 0 else -h)  # reduces mod m; -1 becomes -2


def _power(x, n: int, one):
    """x ** n by repeated squaring from `one`; a negative n inverts x."""
    if n < 0:
        x, n = x.inverse(), -n
    out = one
    while n:
        if n & 1:
            out = out * x
        x = x * x
        n >>= 1
    return out


def _quad(a: int, b: int, c: int, D: int) -> "QuadExt":
    """Internal constructor of (a + b*sqrt(D)) / c from integers, c != 0
    and D squarefree: divides out gcd(a, b, c) and makes c positive."""
    g = math.gcd(a, b, c)
    if c < 0:
        g = -g
    if g != 1:
        a, b, c = a // g, b // g, c // g
    x = object.__new__(QuadExt)
    _set_a(x, a)
    _set_b(x, b)
    _set_c(x, c)
    _set_D(x, D if b else 1)
    return x


def _ratio_text(a: int, c: int) -> str:
    """str(Fraction(a, c)) for integers a and c > 0, without the Fraction."""
    g = math.gcd(a, c)
    return str(a // g) if g == c else f"{a // g}/{c // g}"


def _sign_of(x: int, y: int, D: int) -> int:
    """Sign of x + y*sqrt(D) for integers x, y and D >= 1: when x and y
    differ in sign, the larger of x^2 and y^2 D decides."""
    sx, sy = (x > 0) - (x < 0), (y > 0) - (y < 0)
    if sx == sy or not sy:
        return sx
    if not sx:
        return sy
    return sx if x * x > y * y * D else sy


def _ordering(test):
    """A QuadExt rich comparison from a test of the sign of self - other."""
    def op(self, other):
        c = self._compare(other)
        return c if c is NotImplemented else test(c)
    return op


class _Frozen:
    """Value semantics from `__slots__`, as a frozen dataclass has them: no
    assignment or deletion after `__init__`; equality, hash and repr by the
    slot values in order, which are the constructor's arguments; pickle and
    copy restore the slots.  Subclasses may define their own of each."""

    __slots__ = ()

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"


def _fact(obj: _Frozen, key: str, compute):
    """`compute(obj)`, cached under `key` in the `_facts` dict of the
    immutable `obj`: computed on first use, and nothing is cached when the
    call raises, so it raises again on every call.  The owner keeps
    `_facts` out of its equality, hash and repr; pickle and copy keep it.
    Keys are fixed names, not the compute functions, so that the cache
    holds only values."""
    facts = obj._facts
    if key not in facts:
        facts[key] = compute(obj)
    return facts[key]


class QuadExt(_Frozen):
    """An element (a + b*sqrt(D)) / c of a real quadratic field, held as
    four integers kept normalized: c > 0, gcd(a, b, c) = 1, D squarefree,
    and b = 0 exactly when D = 1, so equality is structural.  Arithmetic
    runs in plain ints through `_quad`.  `p` = a/c and `q` = b/c give the
    value as p + q*sqrt(D) with Fraction parts."""

    __slots__ = ("_a", "_b", "_c", "D")

    def __init__(self, p: RationalLike, q: RationalLike = 0, D: int = 1):
        p, q = _as_fraction(p), _as_fraction(q)
        if D < 1:
            raise ValueError("radicand must be positive")
        # sqrt(D) = s*sqrt(d) with d squarefree; sqrt(1) = 1 folds into p
        s, D = squarefree_decompose(D) if q else (0, 1)
        p, q = (p + q * s, Fraction(0)) if D == 1 else (p, q * s)
        # over c = lcm of the reduced denominators, gcd(a, b, c) = 1
        c = math.lcm(p.denominator, q.denominator)
        _set_a(self, p.numerator * (c // p.denominator))
        _set_b(self, q.numerator * (c // q.denominator))
        _set_c(self, c)
        _set_D(self, D)

    def __reduce__(self):
        return _quad, (self._a, self._b, self._c, self.D)

    # -- constructors

    @classmethod
    def sqrt(cls, n: RationalLike) -> "QuadExt":
        """Exact square root of a nonnegative int or integral Fraction."""
        n = _as_fraction(n)
        if n.denominator != 1:
            raise ValueError(f"not an integer: {n}")
        s, d = squarefree_decompose(n.numerator)
        return _quad(0, s, 1, d) if d > 1 else _quad(s, 0, 1, 1)

    # -- predicates

    @property
    def p(self) -> Fraction:
        return Fraction(self._a, self._c)

    @property
    def q(self) -> Fraction:
        return Fraction(self._b, self._c)

    @property
    def is_rational(self) -> bool:
        return not self._b

    def as_fraction(self) -> Fraction:
        if self._b:
            raise UnsupportedFieldError(f"{self} is irrational")
        return Fraction(self._a, self._c)

    def is_algebraic_integer(self) -> bool:
        """Trace 2a/c and norm (a^2 - b^2 D)/c^2 are integers."""
        a, c = self._a, self._c
        return 2 * a % c == 0 and (a * a - self._b ** 2 * self.D) % (c * c) == 0

    # -- field structure

    def conjugate(self) -> "QuadExt":
        return _quad(self._a, -self._b, self._c, self.D)

    def norm(self) -> Fraction:
        return Fraction(self._a ** 2 - self._b ** 2 * self.D, self._c ** 2)

    def trace(self) -> Fraction:
        return Fraction(2 * self._a, self._c)

    def _coerce(self, other) -> Optional[tuple[int, int, int, int]]:
        o = _parts(other)
        if o and o[1] and self._b and o[3] != self.D:
            raise UnsupportedFieldError(
                f"mixed radicands sqrt({self.D}) and sqrt({o[3]})"
            )
        return o

    def _add(self, other, sign: int):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, D = o
        a1, b1, c1 = self._a, self._b, self._c
        if b1:
            D = self.D
        if c == c1:
            return _quad(a1 + sign * a, b1 + sign * b, c, D)
        return _quad(a1 * c + sign * a * c1, b1 * c + sign * b * c1, c1 * c, D)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self._a, -self._b, self._c, self.D)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self)._add(other, 1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, D = o
        a1, b1 = self._a, self._b
        if b1:
            D = self.D
        return _quad(a1 * a + b1 * b * D, a1 * b + b1 * a, self._c * c, D)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        return _quad(1, 0, 1, 1) / self

    def __truediv__(self, other):
        """c (a1 + b1 sqrt(D)) (a - b sqrt(D)) / (c1 (a^2 - b^2 D)) for
        self = (a1 + b1 sqrt(D)) / c1 and other = (a + b sqrt(D)) / c."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, D = o
        a1, b1 = self._a, self._b
        if b1:
            D = self.D
        n = a * a - b * b * D
        if not n:
            raise ZeroDivisionError("zero or degenerate quadratic element")
        return _quad(c * (a1 * a - b1 * b * D), c * (b1 * a - a1 * b), self._c * n, D)

    def __rtruediv__(self, other):
        o = _parts(other)
        return NotImplemented if o is None else _quad(*o) / self

    def __pow__(self, n: int):
        return _power(self, n, _quad(1, 0, 1, 1))

    # -- ordering (real embedding with sqrt(D) > 0)

    def __eq__(self, other):
        if isinstance(other, CycNumber):
            # equal only as rationals, where the two hash alike
            return not self._b and other == Fraction(self._a, self._c)
        o = _parts(other)
        if o is None:
            return NotImplemented
        return (self._a, self._b, self._c, self.D) == o

    def __hash__(self):
        # the normalized integers identify an irrational value; a rational
        # a/c hashes as the Fraction (and int) it equals
        if self._b:
            return hash((self._a, self._b, self._c, self.D))
        return _rational_hash(self._a, self._c)

    def _compare(self, other):
        """Sign of self - other, in integers: over the common denominator
        c c1 > 0, that of x + y*sqrt(D) - z*sqrt(E).  When D = E or a side
        is rational, it is one field element.  Otherwise u = x + y*sqrt(D)
        and v = z*sqrt(E) decide when their signs differ, and else the sign
        of u^2 - v^2 = (x^2 + y^2 D - z^2 E) + 2xy*sqrt(D) does, which is
        never zero: 1, sqrt(D) and sqrt(E) are independent over Q."""
        o = _parts(other)
        if o is None:
            return NotImplemented
        a, b, c, E = o
        c1, D = self._c, self.D
        x, y, z = self._a * c - a * c1, self._b * c, b * c1
        if not (y and z) or D == E:
            return _sign_of(x, y - z, D if y else E)
        su, sv = _sign_of(x, y, D), (z > 0) - (z < 0)
        if su != sv:
            return 1 if su > sv else -1
        return su * _sign_of(x * x + y * y * D - z * z * E, 2 * x * y, D)

    __lt__ = _ordering(lambda c: c < 0)
    __le__ = _ordering(lambda c: c <= 0)
    __gt__ = _ordering(lambda c: c > 0)
    __ge__ = _ordering(lambda c: c >= 0)

    def __repr__(self):
        return f"QuadExt({self})"

    def __str__(self):
        # the text of str(p) and str(q) for the Fractions p and q
        a, b, c = self._a, self._b, self._c
        if not b:
            return _ratio_text(a, c)
        return f"{_ratio_text(a, c)} + {_ratio_text(b, c)}*sqrt({self.D})"


# slot setters for _quad and QuadExt.__init__; __setattr__ refuses them all
_set_a = QuadExt._a.__set__
_set_b = QuadExt._b.__set__
_set_c = QuadExt._c.__set__
_set_D = QuadExt.D.__set__


def _integer_field(values) -> tuple[int, dict[int, list[int]]]:
    """`(den, coords)` over one common denominator: `coords[1][k]` is the
    rational part of `values[k]` times den, and `coords[D][k]` its sqrt(D)
    coefficient times den, for each radicand D that occurs.  A value lies
    in one field, so at most one `coords[D][k]` with D > 1 is nonzero.
    Each value's c is the lcm of the denominators of its p and q.

    Integer linear expressions in the values can then be compared one
    coordinate at a time, with no `Fraction` arithmetic."""
    den = math.lcm(*(v._c for v in values))
    coords = {1: [v._a * (den // v._c) for v in values]}
    for k, v in enumerate(values):
        if v._b:
            coords.setdefault(v.D, [0] * len(values))[k] = v._b * (den // v._c)
    return den, coords


# ---------------------------------------------------------------------------
# integer polynomials


class IntPoly(_Frozen):
    """Polynomial with integer coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        object.__setattr__(self, "coeffs", tuple(int(c) for c in cs))

    @property
    def degree(self) -> int:
        if self.coeffs == (0,):
            return -1
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.degree >= 0 and self.coeffs[-1] == 1

    def __call__(self, x):
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(out)

    def divexact(self, other: "IntPoly") -> "IntPoly":
        """Exact division by a monic divisor."""
        if not other.is_monic:
            raise ValueError("divisor must be monic")
        quotient, rem = _poly_divmod(self.coeffs, other.coeffs)
        if rem:
            raise ValueError("division is not exact")
        return IntPoly(quotient)


def _poly_divmod(a: Sequence, b: Sequence) -> tuple[list, list]:
    """Quotient and remainder of a by b over Q, both lowest degree first;
    b's leading coefficient must be nonzero.  The remainder has no
    trailing zeros, so it is empty exactly when b divides a.  Integer
    coefficients stay integers when b is monic."""
    rem = list(a)
    d, lead = len(b) - 1, b[-1]
    quotient = [0] * (len(rem) - d)
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        if c:
            f = c if lead == 1 else Fraction(c, lead)
            quotient[i - d] = f
            for j, bj in enumerate(b, i - d):
                rem[j] -= f * bj
    del rem[d:]  # every entry from d up is zero now
    while rem and not rem[-1]:
        rem.pop()
    return quotient, rem


def _mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        for k in range(m):
            a = Ai[k]
            if a:
                Bk = B[k]
                row = out[i]
                for j in range(p):
                    row[j] += a * Bk[j]
    return out


def charpoly(M: Sequence[Sequence[int]]) -> IntPoly:
    """Characteristic polynomial det(xI - M) of a generic square matrix by
    the Faddeev-LeVerrier recurrence: the reference for bare matrices.
    Ring spectra use `ring.spectrum`."""
    n = len(M)
    for row in M:
        if len(row) != n:
            raise ValueError("matrix must be square")
    # the recurrence stays inside the integers: every c_k is a coefficient
    # of the characteristic polynomial, so the division by k is exact
    cs: list[int] = [1] + [0] * n  # cs[k] = coeff of x^(n-k)
    A = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # A <- M(A + c_{k-1} I)
        B = [row[:] for row in A]
        for i in range(n):
            B[i][i] += cs[k - 1]
        A = _mat_mul(M, B)
        t = sum(A[i][i] for i in range(n))
        q, r = divmod(-t, k)
        if r:
            raise ArithmeticError("charpoly produced a non-integer coefficient")
        cs[k] = q
    # lowest degree first: coeff of x^j is cs[n-j]
    return IntPoly([cs[k] for k in range(n, -1, -1)])


class Factorization(NamedTuple):
    """Partial factorization of a monic integer polynomial into rational
    roots, irreducible monic quadratics, and an untouched residual."""

    roots: tuple[Fraction, ...]
    quadratics: tuple[IntPoly, ...]
    residual: IntPoly

    def all_roots(self) -> list[QuadExt]:
        """Roots of the fully-factored part, as exact quadratic numbers."""
        out = [_quad(r.numerator, 0, r.denominator, 1) for r in self.roots]
        for quad in self.quadratics:
            c, b, _ = quad.coeffs
            disc = b * b - 4 * c
            if disc >= 0:  # a complex pair has no real embedding
                root = QuadExt.sqrt(disc)  # s*sqrt(D), or s when D = 1
                out.append(_quad(root._a - b, root._b, 2, root.D))
                out.append(_quad(-root._a - b, -root._b, 2, root.D))
        return out


def _divide_linear(coeffs: Sequence[int], r):
    """Synthetic division of an integer polynomial (lowest degree first) by
    x - r: the quotient's coefficients and the remainder, which is the
    value at r.  Integer throughout when r is an integer."""
    quotient = [0] * (len(coeffs) - 1)
    acc = 0
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * r + coeffs[k]
        quotient[k - 1] = acc
    return quotient, acc * r + coeffs[0]


def _at_plus_minus_one(coeffs: list[int]) -> tuple[int, int]:
    """p(1) and p(-1) for the coefficients of p, lowest degree first."""
    even, odd = sum(coeffs[::2]), sum(coeffs[1::2])
    return even + odd, even - odd


def _integer_roots(p: IntPoly, bound: int) -> tuple[list[int], IntPoly]:
    """Integer roots r with |r| <= bound of a monic p with p(0) != 0, with
    multiplicity, and the quotient of p by them.

    A root divides the constant term c, so only the divisors d <= bound of
    c are tested; trial division runs to min(bound, sqrt|c|), never past
    the square root that a full divisor listing needs.  Each divisor is
    tested once, in ascending order: after a hit the same d is tried again
    on the deflated polynomial, so repeated roots need no restart.

    By Descartes' rule of signs, p has no positive root when its
    coefficients show no sign change, that is, when none is negative or
    none is positive, and no negative root when those of p(-x) show none;
    d or -d is then not tried.  A codegree polynomial has only positive
    roots, so its negative divisors are never tested.

    Before the synthetic division, a cheap filter: p = (x - r) q with q
    monic and integral, so p(1) = (1 - r) q(1) and p(-1) = (-1 - r) q(-1),
    and r is tried only when r - 1 divides p(1) and r + 1 divides p(-1);
    r = 1 and r = -1 are roots exactly when p(1) = 0 and p(-1) = 0."""
    c = abs(p.coeffs[0])
    small = [d for d in range(1, min(bound, math.isqrt(c)) + 1) if c % d == 0]
    candidates = sorted(set(small).union(c // d for d in small if c // d <= bound))
    flipped = [-a if k % 2 else a for k, a in enumerate(p.coeffs)]  # p(-x)
    signs = [s for s, cs in ((1, p.coeffs), (-1, flipped)) if min(cs) < 0 < max(cs)]
    coeffs = list(p.coeffs)
    roots: list[int] = []
    at_one, at_minus_one = _at_plus_minus_one(coeffs)
    for d in candidates:
        for r in (d * s for s in signs):
            # deflation keeps the constant term nonzero, and every root of
            # the quotient still divides it
            while len(coeffs) > 1 and coeffs[0] % r == 0:
                if r == 1 or r == -1:
                    if (at_one if r == 1 else at_minus_one) != 0:
                        break
                elif at_one % (r - 1) or at_minus_one % (r + 1):
                    break
                quotient, value = _divide_linear(coeffs, r)
                if value:
                    break
                roots.append(r)
                coeffs = quotient
                at_one, at_minus_one = _at_plus_minus_one(coeffs)
    return roots, IntPoly(coeffs)


def _real_quadratic_factors(p: IntPoly) -> tuple[list[IntPoly], IntPoly]:
    """Split off every monic integer quadratic factor of p with two real
    roots, repeated ones included; p must have no rational root.

    The distinct real roots are isolated by Sturm bisection, narrow enough
    that the enclosures of the sum and the product of two roots each hold
    at most one integer.  Every pair whose enclosures hold integers s and
    t proposes x^2 - s*x + t, which is kept only if it divides p exactly.
    A degree-3 polynomial with a quadratic factor has a rational root, so
    only degree 4 and up is searched."""
    quadratics: list[IntPoly] = []
    if p.degree < 4:
        return quadratics, p
    bound = Fraction(1 + max(abs(c) for c in p.coeffs[:-1]))
    # |r| <= bound, so sum and product enclosures are narrower than 1
    chain = _sturm_chain(p)
    span = _sturm_span(chain, -bound, bound)
    roots = sorted(_real_root_enclosures(chain, span, 1 / (4 * bound + 4)))
    for i, (alo, ahi) in enumerate(roots):
        for blo, bhi in roots[i + 1:]:
            s = math.ceil(alo + blo)
            ends = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
            t = math.ceil(min(ends))
            if s > ahi + bhi or t > max(ends):
                continue
            quad = IntPoly([t, -s, 1])
            while p.degree >= 2:
                try:
                    p = p.divexact(quad)
                except ValueError:
                    break
                quadratics.append(quad)
    return quadratics, p


def factor_linear_quadratic(
    p: IntPoly, root_bound: Optional[int] = None
) -> Factorization:
    """Split off the integer roots and the real quadratic factors of a
    monic integer polynomial.  A residual of degree 2 is kept as a
    quadratic even when its roots are complex; anything else that resists
    is returned as the residual, untouched.

    `root_bound` bounds the absolute value of every root; it defaults to
    the Cauchy bound.  The library factors characteristic polynomials in
    `ring.spectrum`, of element matrices, whose eigenvalues are bounded by
    the largest row sum: the codegree element's at most once per ring (on
    a ring with a maximal-rank subring, once per base instead), and each
    basis element's only when the FP dimensions have neither a closed form
    nor can be read off it (`ring._perron_dims`).  The codegree matrix is symmetric and positive
    semidefinite, so every root, a formal codegree (Ostrik,
    arXiv:0810.3242), is real and positive."""
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    zeros = next((k for k, c in enumerate(p.coeffs) if c), 0)
    work = IntPoly(p.coeffs[zeros:])
    if root_bound is None:
        root_bound = 1 + max((abs(c) for c in work.coeffs[:-1]), default=0)
    found, work = _integer_roots(work, root_bound)
    roots = sorted([Fraction(0)] * zeros + [Fraction(r) for r in found])
    quadratics, work = _real_quadratic_factors(work)
    if work.degree == 2:
        quadratics.append(work)
        work = IntPoly([1])
    return Factorization(tuple(roots), tuple(quadratics), work)


# ---------------------------------------------------------------------------
# Sturm sequences (real-root counts and certified enclosures)


def _euclid_chain(p0: list[Fraction]) -> list[list[Fraction]]:
    chain = [p0, [k * c for k, c in enumerate(p0)][1:]]
    while chain[-1]:
        rem = _poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sturm_chain(p: IntPoly) -> list[list[Fraction]]:
    """Sturm chain of the squarefree part p / gcd(p, p').  A chain built on
    p itself vanishes identically at a repeated root, so its sign count
    there is wrong; the squarefree part has the same distinct roots."""
    chain = _euclid_chain([Fraction(c) for c in p.coeffs])
    gcd = chain[-1]
    if len(gcd) > 1:
        chain = _euclid_chain(_poly_divmod(chain[0], gcd)[0])
    return chain


def _sign_changes(chain, x: Fraction) -> int:
    signs = []
    for poly in chain:
        v = Fraction(0)
        for c in reversed(poly):
            v = v * x + c
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_span(chain, lo: Fraction, hi: Fraction):
    """(lo, hi] with the sign changes of `chain` at both ends; their
    difference counts the distinct real roots in (lo, hi]."""
    return lo, hi, _sign_changes(chain, lo), _sign_changes(chain, hi)


def _real_root_enclosures(
    chain, span, width: Fraction
) -> Iterator[tuple[Fraction, Fraction]]:
    """Disjoint enclosures (l, h], h - l <= width, one for each distinct
    real root in the `_sturm_span` `span` of the polynomial whose Sturm
    chain is `chain`, yielded in descending order.  The upper half of each
    interval is searched first, so the first enclosure costs one sign count
    per halving and the lower roots are narrowed only if asked for."""
    todo = [span]
    while todo:
        l, h, vl, vh = todo.pop()
        if vl == vh:
            continue
        if vl - vh == 1 and h - l <= width:
            yield l, h
            continue
        mid = (l + h) / 2
        vm = _sign_changes(chain, mid)
        todo.extend(((l, mid, vl, vm), (mid, h, vm, vh)))


def largest_real_root_bounds(
    p: IntPoly, width: Fraction = Fraction(1, 10**12)
) -> tuple[int, tuple[Fraction, Fraction]]:
    """The number of distinct real roots of a monic integer polynomial, and
    a certified enclosure (lo, hi] of the largest, both from one Sturm
    chain: the count is its sign changes across the Cauchy bound, and the
    enclosure is the first that `_real_root_enclosures` yields."""
    if not p.is_monic:
        raise ValueError("polynomial must be monic")
    chain = _sturm_chain(p)
    bound = Fraction(1 + max(abs(c) for c in p.coeffs))
    span = _sturm_span(chain, -bound, bound)
    if span[2] == span[3]:
        raise ValueError("polynomial has no real roots")
    return span[2] - span[3], next(_real_root_enclosures(chain, span, width))


# ---------------------------------------------------------------------------
# cyclotomic numbers

# largest cyclotomic order that documents and premodular data may need (the
# corpus needs 16): building Q(zeta_m) takes about 20 ms at m = 4096 but
# 41 s at m = 40028
MAX_CYCLOTOMIC_ORDER = 4096


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPoly:
    """n-th cyclotomic polynomial, by recursive division of x^n - 1."""
    if n < 1:
        raise ValueError("order must be positive")
    poly = IntPoly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            poly = poly.divexact(cyclotomic_polynomial(d))
    return poly


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Degree of Phi_n and its nonzero coefficients below the leading one,
    as (power, coefficient) pairs."""
    phi = cyclotomic_polynomial(n).coeffs
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


@lru_cache(maxsize=None)
def _hash_weights(n: int) -> tuple[int, tuple[int, ...]]:
    """`(W, weights)` with weights[k] / W the mean of the Galois conjugates
    of each basis power zeta_n^k.  zeta_n^k is a primitive d-th root of
    unity, d = n / gcd(k, n), and the primitive d-th roots average to
    mu(d) / phi(d), minus the subleading coefficient of Phi_d over its
    degree; W = phi(n), which every such phi(d) divides."""
    W = _phi_tail(n)[0]
    weights = []
    for k in range(W):
        phi = cyclotomic_polynomial(n // math.gcd(k, n)).coeffs
        weights.append(-phi[-2] * (W // (len(phi) - 1)))
    return W, tuple(weights)


def _reduce_ints(work: list[int], n: int) -> list[int]:
    """Integer coefficients of a polynomial in zeta_n, reduced modulo Phi_n
    to exactly deg(Phi_n) entries.  Phi_n is monic, so the reduction stays
    in the integers.  `work` may be consumed."""
    d, tail = _phi_tail(n)
    if len(work) > n:
        # fold zeta^n = 1 first
        folded = work[:n]
        for k in range(n, len(work)):
            folded[k % n] += work[k]
        work = folded
    for i in range(len(work) - 1, d - 1, -1):
        c = work[i]
        if c:
            off = i - d
            for j, pj in tail:
                work[off + j] -= c * pj
    if len(work) > d:
        del work[d:]
    elif len(work) < d:
        work.extend([0] * (d - len(work)))
    return work


def _cyc_dot(n: int, xs, ys) -> list[int]:
    """Coordinates of sum_c xs[c] * ys[c], reduced modulo Phi_n, for
    integer coordinate vectors over Q(zeta_n) such as `_cyclotomic_field`
    returns.  The polynomial products are accumulated unreduced and the
    sum is reduced once, so it is rational iff every entry after the
    first is zero.  Zero coefficients of each xs[c] are skipped, so pass
    the sparser factors first."""
    acc = [0] * (2 * _phi_tail(n)[0] - 1)
    for a, b in zip(xs, ys):
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b, i):
                    acc[j] += ai * bj
    return _reduce_ints(acc, n)


def _cyclotomic_field(values, conjugates: bool = True) -> tuple[int, int, list, list]:
    """`(n, den, nums, conjs)` over one field and one common denominator:
    n is the lcm of the orders of the `CycNumber` values, den the lcm of
    their denominators, and `nums[k]` and `conjs[k]` are the phi(n)
    integer coordinates (powers of zeta_n, reduced modulo Phi_n) of
    `values[k]` and of its complex conjugate, times den; for a rational
    value, `conjs[k]` is the tuple `nums[k]` itself.  Equal values get
    equal coordinates.  With `conjugates` false, `conjs` is empty.

    The cyclotomic analogue of `_integer_field`: sums of products of the
    values are then `_cyc_dot` or packed sums (`_packed_field`), with no
    `CycNumber` per term."""
    values = list(values)
    n = math.lcm(*(v.order for v in values))
    den = math.lcm(*(v._den for v in values))

    def coords(x: CycNumber) -> tuple[int, ...]:
        scale = den // x._den
        return x._num if scale == 1 else tuple(c * scale for c in x._num)

    nums, conjs = [], []
    for v in values:
        x = v.lift(n)
        nums.append(coords(x))
        if conjugates:
            conjs.append(nums[-1] if x.is_rational else coords(x.conjugate()))
    return n, den, nums, conjs


def _pack(coords, B: int) -> int:
    """Integer coordinates as one int, the polynomial evaluated at 2^B
    (Kronecker substitution): a product of packed values packs the
    polynomial product, and a sum of them packs the sum.
    `_unpack_remainder` recovers every coefficient below 2^(B-1)."""
    v = 0
    for c in reversed(coords):
        v = (v << B) + c
    return v


@lru_cache(maxsize=None)
def _reduction_growth(n: int) -> int:
    """The largest |coefficient| of x^u mod Phi_n over u < n, which x^n = 1
    makes every power: x^u itself below deg(Phi_n), then x times the one
    before, reduced."""
    low = cyclotomic_polynomial(n).coeffs[:-1]
    row, most = [-c for c in low], 1
    for _ in range(len(low), n):
        most = max(most, *map(abs, row))
        top = row.pop()
        row.insert(0, 0)
        if top:
            row = [a - top * c for a, c in zip(row, low)]
    return most


def _unpack_remainder(P: int, B: int, d: int, v: int) -> list[int]:
    """`coords` of `_packed_field`: the first d signed B-bit digits of
    the symmetric remainder of v modulo P: each low slot r, less 2^B when
    r >= 2^(B-1), after which (v - r) >> B is the rest."""
    v %= P
    if v > P >> 1:
        v -= P
    mask, half, top = (1 << B) - 1, 1 << (B - 1), 1 << B
    out = []
    for _ in range(d):
        r = v & mask
        v >>= B
        if r >= half:
            r -= top
            v += 1
        out.append(r)
    return out


def _packed_field(values, weight: int, factors: int, conjugates: bool = True, *,
                  row: int = 0) -> tuple:
    """`(n, den, nums, conjs, coords, rational, P)`: `_cyclotomic_field`
    of the values with every coordinate vector packed (`_pack`).  A sum S of
    products of up to `factors` values, with integer weights of total
    absolute value at most `weight`, is then a sum of products of ints,
    S(2^B), and r = S mod Phi_n is read from the symmetric remainder of
    S(2^B) modulo P = Phi_n(2^B): `coords(v)` gives r's d = deg(Phi_n)
    coordinates, and `rational(v)` the integer r is, or None.  Both are
    `partial`s, so the result pickles.

    With M the largest l1 norm of a coordinate vector, S has l1 norm at
    most U = max(weight, 1) M^factors, and r sums S_k (x^(k mod n) mod
    Phi_n), so every |r_t| <= U H < 2^(B-2), H = `_reduction_growth(n)`,
    and |r(2^B)| < 2^(B-2) 2^(Bd) / (2^B - 1) <= 2^(Bd) / 3.  The lower
    coefficients of Phi_n are those of x^d - Phi_n = x^d mod Phi_n, so
    within H, and 2^B >= 4H + 4 when U >= 1 (else r = 0), so P > 2^(Bd)
    2/3 > 2 |r(2^B)|.  Phi_n divides S - r, so r(2^B) is the symmetric
    remainder of S(2^B) modulo P (which is odd: Phi_n(0) = +-1), and its
    digits, each below 2^(B-1), unpack to r; r is rational iff |r(2^B)| <
    2^(B-1).  When the values are the rows of a determinant, `row` to a
    row, each of its products takes one value from each row, so U may be
    the product of the rows' l1 sums instead, if that is smaller.  A wider
    slot reads the same sums.  Packing is injective at any weight, so
    packed values compare as the values; a rational value is its own
    conjugate, and its packed int is reused.

    The slot is then widened until P is prime to n.  P is odd, and an odd
    prime q of n divides Phi_n(2^B) only when 2^B has order n / q^v
    modulo q, q^v the power of q in n; so a B that
    the order of 2 modulo every odd prime of n divides leaves a factor q
    only when n = q^v, and B + 1 then leaves none: the widening ends.
    Any other prime p of P has 2^B of order n modulo p, and if p divides
    a packed x(2^B) it divides the norm of x; so a value whose norm has
    only primes of n, such as 1 - zeta_n, packs to a unit modulo P, as
    elimination modulo P wants of its pivots (`premodular._det`)."""
    n, den, nums, conjs = _cyclotomic_field(values, conjugates)
    norms = [sum(map(abs, v)) for v in nums + conjs]
    U = max(weight, 1) * max(norms, default=0) ** factors
    if row:
        U = min(U, math.prod(sum(norms[i : i + row]) for i in range(0, len(nums), row)))
    B = (U * _reduction_growth(n)).bit_length() + 2
    while math.gcd(P := cyclotomic_polynomial(n)(1 << B), n) != 1:
        B += 1
    packed = [_pack(v, B) for v in nums]
    conj = [pv if c is v else _pack(c, B) for pv, v, c in zip(packed, nums, conjs)]
    return (n, den, packed, conj, partial(_unpack_remainder, P, B, _phi_tail(n)[0]),
            partial(_remainder_rational, P, 1 << (B - 1)), P)


def _remainder_rational(P: int, top: int, v: int) -> Optional[int]:
    """`rational` of `_packed_field`: the symmetric remainder of v modulo
    P, or None unless it is below top = 2^(B-1) in absolute value; P >=
    2 top - 1, so a residue below top is its own symmetric remainder."""
    r = v % P
    if r < top:
        return r
    r -= P
    return r if r > -top else None


def _content_free(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """Divide integer numerators and a nonzero denominator by their common
    content, leaving the denominator positive, so that equal values have
    equal representations."""
    if den != 1:
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            return tuple(c // g for c in num), den // g
    return tuple(num), den


def _cyc(order: int, num: list[int], den: int) -> "CycNumber":
    """Internal constructor from numerators already reduced modulo
    Phi_order; skips the reduction that the public constructor does."""
    num, den = _content_free(num, den)
    x = object.__new__(CycNumber)
    _set_order(x, order)
    _set_num(x, num)
    _set_den(x, den)
    return x


def _cyc_rational(order: int, p: int, q: int) -> "CycNumber":
    """The rational p/q (q != 0) in Q(zeta_order)."""
    num = [0] * _phi_tail(order)[0]
    num[0] = p
    return _cyc(order, num, q)


class CycNumber(_Frozen):
    """An element of Q(zeta_n), stored as the canonical representative of a
    polynomial in zeta_n modulo the n-th cyclotomic polynomial.

    The representative is kept as integer numerators over one positive
    common denominator with no common factor; `coeffs` gives the same
    representative as a tuple of Fractions, lowest power first.
    """

    __slots__ = ("order", "_num", "_den")

    def __init__(self, order: int, coeffs: Iterable[RationalLike]):
        if not isinstance(order, int):
            raise TypeError(f"order must be an integer, not {order!r}")
        _phi_tail(order)  # raises ValueError unless order >= 1
        fracs = [_as_fraction(c) for c in coeffs]
        den = math.lcm(*(f.denominator for f in fracs))
        num = [f.numerator * (den // f.denominator) for f in fracs]
        num, den = _content_free(_reduce_ints(num, order), den)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __reduce__(self):
        return _cyc, (self.order, self._num, self._den)

    # -- constructors

    @classmethod
    def from_rational(cls, x: RationalLike, order: int = 1) -> "CycNumber":
        f = _as_fraction(x)
        return _cyc_rational(order, f.numerator, f.denominator)

    @classmethod
    def root_of_unity(cls, order: int, power: int = 1) -> "CycNumber":
        power %= order
        num = [0] * (power + 1)
        num[power] = 1
        return _cyc(order, _reduce_ints(num, order), 1)

    # -- structure

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def is_zero(self) -> bool:
        return not any(self._num)

    @property
    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise UnsupportedFieldError(f"{self!r} is irrational")
        return Fraction(self._num[0], self._den)

    def lift(self, order: int) -> "CycNumber":
        """Re-express in Q(zeta_order); self.order must divide order."""
        if order == self.order:
            return self
        if order % self.order:
            raise UnsupportedFieldError("target order must be a multiple")
        if self.is_rational:
            return _cyc_rational(order, self._num[0], self._den)
        step = order // self.order
        work = [0] * order
        for k, c in enumerate(self._num):
            work[k * step] = c
        return _cyc(order, _reduce_ints(work, order), self._den)

    def _common_order(self, other: "CycNumber") -> int:
        n, m = self.order, other.order
        return n if n == m else math.lcm(n, m)

    def _coerce(self, other) -> "CycNumber | None":
        if isinstance(other, CycNumber):
            return other
        if isinstance(other, int):
            return _cyc_rational(self.order, other, 1)
        if isinstance(other, Fraction):
            return _cyc_rational(self.order, other.numerator, other.denominator)
        return None

    # -- arithmetic

    def _add(self, o: "CycNumber", sign: int) -> "CycNumber":
        n = self._common_order(o)
        a = self.lift(n)
        if o.is_rational:
            p, q = o._num[0] * sign, o._den
            da = a._den
            num = [c * q for c in a._num] if q != 1 else list(a._num)
            num[0] += p * da
            return _cyc(n, num, da * q)
        b = o.lift(n)
        da, db = a._den, b._den
        if da == db:
            if sign > 0:
                return _cyc(n, [x + y for x, y in zip(a._num, b._num)], da)
            return _cyc(n, [x - y for x, y in zip(a._num, b._num)], da)
        return _cyc(
            n,
            [x * db + sign * y * da for x, y in zip(a._num, b._num)],
            da * db,
        )

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._add(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.order, [-c for c in self._num], self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._add(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o - self

    def _scale(self, p: int, q: int) -> "CycNumber":
        """self * p/q, for integers p and q != 0."""
        return _cyc(self.order, [c * p for c in self._num], self._den * q)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scale(other, 1)
        if isinstance(other, Fraction):
            return self._scale(other.numerator, other.denominator)
        if not isinstance(other, CycNumber):
            return NotImplemented
        n = self._common_order(other)
        if other.is_rational:
            return self.lift(n)._scale(other._num[0], other._den)
        if self.is_rational:
            return other.lift(n)._scale(self._num[0], self._den)
        a, b = self.lift(n)._num, other.lift(n)._num
        return _cyc(n, _cyc_dot(n, (a,), (b,)), self._den * other._den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Inverse, as the product of the other Galois conjugates divided by
        the norm (which is rational and nonzero for a nonzero value)."""
        if self.is_zero:
            raise ZeroDivisionError("zero cyclotomic number")
        n = self.order
        if self.is_rational:
            return _cyc_rational(n, self._den, self._num[0])
        cofactor = None
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                g = self.galois(k)
                cofactor = g if cofactor is None else cofactor * g
        norm = (self * cofactor).as_fraction()
        return cofactor._scale(norm.denominator, norm.numerator)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inverse()

    def __pow__(self, n: int):
        return _power(self, n, _cyc_rational(self.order, 1, 1))

    # -- Galois action

    def galois(self, k: int) -> "CycNumber":
        """Apply zeta -> zeta^k; k must be coprime to the order."""
        n = self.order
        if math.gcd(k, n) != 1:
            raise ValueError("Galois exponent must be coprime to the order")
        work = [0] * n
        for i, c in enumerate(self._num):
            work[(i * k) % n] += c
        return _cyc(n, _reduce_ints(work, n), self._den)

    def conjugate(self) -> "CycNumber":
        """Complex conjugation, zeta -> zeta^(n-1)."""
        if self.order <= 2:
            return self
        return self.galois(self.order - 1)

    # -- comparison

    def __eq__(self, other):
        if isinstance(other, int):
            return self._den == 1 and self._num[0] == other and self.is_rational
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.order != o.order:
            n = self._common_order(o)
            self, o = self.lift(n), o.lift(n)
        return self._den == o._den and self._num == o._num

    def __hash__(self):
        # Hash the average of the Galois conjugates.  It is the value itself
        # when rational, so ints and Fractions hash alike, and it does not
        # change when a value is lifted to a larger order, so equal values
        # stored at different orders hash alike.
        W, weights = _hash_weights(self.order)
        total = sum([c * w for c, w in zip(self._num, weights) if c])
        return _rational_hash(total, self._den * W)

    def __repr__(self):
        return f"CycNumber(order={self.order}, coeffs={list(self.coeffs)})"


# slot setters for _cyc; CycNumber.__setattr__ refuses all assignments
_set_order = CycNumber.order.__set__
_set_num = CycNumber._num.__set__
_set_den = CycNumber._den.__set__


# ---------------------------------------------------------------------------
# embedding quadratic values into cyclotomic fields


def quadratic_conductor(D: int) -> int:
    """The least f with sqrt(D) in Q(zeta_f), D squarefree: D when
    D = 1 mod 4, else 4D."""
    return D if D % 4 == 1 else 4 * D


def embed_quadratic(x: QuadExt) -> CycNumber:
    """Embed p + q*sqrt(D), with sqrt(D) > 0, into Q(zeta_f) for the
    conductor f = `quadratic_conductor(D)` (rationals stay at order 1).

    sqrt(D) is the product of sqrt(2) = zeta_8 + zeta_8^-1 if D is even,
    the Gauss sum g_p = sum_a (a/p) zeta_p^a per odd prime p | D, each one
    integer vector reduced once, and i^-k for the k of those p = 3 mod 4:
    g_p = sqrt(p) if p = 1 mod 4, i*sqrt(p) if p = 3 mod 4 (Gauss).
    """
    if x.is_rational:
        return CycNumber.from_rational(x.as_fraction())
    D = x.D
    f = quadratic_conductor(D)
    primes: list[int] = []
    for p in range(2, D + 1):
        if D % p == 0 and all(p % r for r in primes):  # D is squarefree
            primes.append(p)
    k = sum(p % 4 == 3 for p in primes)
    # i^-k = (-1)^(k // 2) (-i)^(k % 2); 4 | f when k is odd
    root = CycNumber.root_of_unity(f, 3 * f // 4 if k % 2 else 0)
    for p in primes:
        work = [0] * f
        if p == 2:
            work[f // 8] = work[7 * f // 8] = 1
        else:
            for a in range(1, p):
                work[a * (f // p)] = 1 if pow(a, p // 2, p) == 1 else -1
        root = root * _cyc(f, _reduce_ints(work, f), 1)
    return x.p + x.q * (-1) ** (k // 2) * root
