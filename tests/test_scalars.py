import cmath
import copy
import math
import pickle
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrfw import scalars
from mrfw.scalars import (
    CycNumber,
    IntPoly,
    QuadExt,
    UnsupportedFieldError,
    _cyc_dot,
    _cyclotomic_field,
    _integer_field,
    _integer_roots,
    _pack,
    _packed_field,
    _poly_divmod,
    _real_root_enclosures,
    _reduce_ints,
    _sign_changes,
    _sign_of,
    _slot_width,
    _sturm_chain,
    _sturm_span,
    _unpack,
    charpoly,
    cyclotomic_polynomial,
    embed_quadratic,
    factor_linear_quadratic,
    largest_real_root_bounds,
    squarefree_decompose,
)


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(0) == (0, 1)


class TestQuadExt:
    def test_normalization(self):
        x = QuadExt(0, 1, 12)  # sqrt(12) = 2 sqrt(3)
        assert (x.p, x.q, x.D) == (0, 2, 3)
        y = QuadExt(3, 2, 4)  # sqrt(4) = 2
        assert y.is_rational and y.as_fraction() == 7

    def test_golden_ratio_is_algebraic_integer(self):
        phi = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
        assert phi.is_algebraic_integer()

    def test_one_plus_sqrt5_over_3_is_not(self):
        x = QuadExt(Fraction(1, 3), Fraction(1, 3), 5)
        assert not x.is_algebraic_integer()

    def test_rational_integer_case(self):
        assert QuadExt(7).is_algebraic_integer()
        assert not QuadExt(Fraction(7, 2)).is_algebraic_integer()

    def test_conjugate(self):
        x = QuadExt(3, 2, 2)
        assert x.conjugate() == QuadExt(3, -2, 2)
        assert x.conjugate().conjugate() == x
        assert QuadExt(5).conjugate() == QuadExt(5)

    def test_norm_of_mr_dimension(self):
        # (kappa + sqrt(kappa^2+4a))/2 with kappa=1, a=1: norm is -1
        x = (1 + QuadExt.sqrt(5)) * Fraction(1, 2)
        assert (x * x.conjugate()).as_fraction() == -1

    def test_ordering(self):
        phi = (1 + QuadExt.sqrt(5)) * Fraction(1, 2)
        assert QuadExt(1) < phi < QuadExt(2)
        assert QuadExt.sqrt(2) < QuadExt(Fraction(3, 2))
        assert QuadExt.sqrt(2) > QuadExt(Fraction(7, 5))
        assert -QuadExt.sqrt(3) < QuadExt(0)

    def test_ordering_across_fields(self):
        r2, r3, r5 = QuadExt.sqrt(2), QuadExt.sqrt(3), QuadExt.sqrt(5)
        assert r2 < r3 and r3 > r2 and r2 <= r3 and r3 >= r2
        assert not r3 < r2
        phi = (1 + r5) * Fraction(1, 2)  # 1.618...
        # 1.7320..., 2, 1.7639..., 1.6180..., 1.4142... and 1.6
        values = [r3, 2, 4 - r5, phi, r2, QuadExt(Fraction(8, 5))]
        want = [2, 4 - r5, r3, phi, QuadExt(Fraction(8, 5)), r2]
        assert sorted(values, reverse=True) == want
        assert max(values) == 2
        assert max(v for v in values if v != 2) == 4 - r5
        assert min(values) == r2

    def test_ordering_across_fields_near_ties(self):
        # Pell pairs with 2k^2 - 3m^2 = -1: k sqrt(2) and m sqrt(3) differ
        # by less than 1/(2 k sqrt(2)); the oracle is the sign of 2k^2 - 3m^2
        k, m = 1, 1
        for _ in range(8):
            d = 2 * k * k - 3 * m * m
            d = (d > 0) - (d < 0)
            assert d == -1
            for shift in (0, Fraction(7, 3)):
                x, y = shift + QuadExt(0, k, 2), shift + QuadExt(0, m, 3)
                assert (x < y, y > x, x != y) == (d < 0, d < 0, d != 0)
                assert (x > y, y < x, x >= y) == (d > 0, d > 0, d >= 0)
            k, m = 5 * k + 6 * m, 4 * k + 5 * m

    def test_mixed_radicand_rejected(self):
        with pytest.raises(UnsupportedFieldError):
            QuadExt.sqrt(2) + QuadExt.sqrt(3)

    def test_division(self):
        phi = (1 + QuadExt.sqrt(5)) * Fraction(1, 2)
        assert phi / phi == QuadExt(1)
        assert (phi * phi) / phi == phi


quad_values = st.builds(
    QuadExt,
    st.fractions(max_denominator=6),
    st.fractions(max_denominator=6),
    st.sampled_from([2, 3, 5]),
)


@given(
    st.fractions(max_denominator=4),
    st.fractions(max_denominator=4),
    st.fractions(max_denominator=4),
    st.fractions(max_denominator=4),
    st.sampled_from([2, 3, 5, 7]),
)
def test_quad_ring_axioms(p1, q1, p2, q2, D):
    x = QuadExt(p1, q1, D)
    y = QuadExt(p2, q2, D)
    assert x + y == y + x
    assert x * y == y * x
    z = QuadExt(1, 1, D)
    assert (x + y) * z == x * z + y * z
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
       st.integers(-9, 9), st.sampled_from([2, 3, 5]))
def test_ring_of_integers_closure(a1, b1, a2, b2, D):
    # half-integer elements with matching parity are algebraic integers for
    # D = 5 (\equiv 1 mod 4); plain integer combinations always are
    x = QuadExt(a1, b1, D)
    y = QuadExt(a2, b2, D)
    assert x.is_algebraic_integer() and y.is_algebraic_integer()
    assert (x + y).is_algebraic_integer()
    assert (x * y).is_algebraic_integer()


# every fraction with denominator at most 6 and absolute value below 50,
# drawn by bounds rather than by a filter (a filter that rejects most draws
# trips Hypothesis' filter_too_much health check on some seeds)
small_fractions = st.fractions(Fraction(-299, 6), Fraction(299, 6), max_denominator=6)


@st.composite
def spellings(draw):
    """One value written several ways; the first spelling equals all."""
    kind = draw(st.sampled_from(["rational", "quadratic", "cyclotomic"]))
    if kind == "rational":
        r = draw(small_fractions)
        c = draw(small_fractions)
        m = draw(st.integers(1, 12))
        out = [r, QuadExt(r), QuadExt(r - 2 * c, c, 4), CycNumber(m, [r]),
               CycNumber(m, [r]).lift(3 * m), CycNumber.from_rational(r, m),
               QuadExt(c, 1, 3) - QuadExt(c - r, 1, 3)]
        if r.denominator == 1:
            out.append(int(r))
        return out
    if kind == "quadratic":
        p = draw(small_fractions)
        q = draw(small_fractions.filter(bool))
        D = draw(st.sampled_from([2, 3, 5, 6, 7]))
        x = QuadExt(p, q, D)
        # the same value reached by arithmetic on other values
        reached = [p + q * QuadExt.sqrt(D), (x * 3 - p) / 3 + p / 3,
                   x.inverse().inverse(), x * x / x, -(-x)]
        return [x, QuadExt(p, q / 2, 4 * D), QuadExt(p, q / 3, 9 * D)] + reached
    m = draw(st.integers(2, 12))
    coeffs = draw(st.lists(small_fractions, min_size=1, max_size=m))
    x = CycNumber(m, coeffs)
    # zeta^m = 1, so shifting every power by m spells the same value
    shifted = CycNumber(m, [Fraction(0)] * m + coeffs)
    return [x, shifted, x.lift(m * draw(st.integers(2, 4))), (x + 1) - 1]


@given(spellings())
def test_equal_values_hash_equal(values):
    assert all(v == values[0] for v in values)
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)


def test_intpoly_is_a_value_not_a_tuple():
    p = IntPoly([1, 2, 0])
    assert p == IntPoly([1, 2]) and hash(p) == hash(IntPoly([1, 2]))
    assert p != (1, 2) and p != ((1, 2),)
    assert repr(p) == "IntPoly(coeffs=(1, 2))"
    assert pickle.loads(pickle.dumps(p)) == p
    with pytest.raises(TypeError):
        len(p)
    with pytest.raises(TypeError):
        p + p
    with pytest.raises(AttributeError):
        p.coeffs = (1,)
    with pytest.raises(AttributeError):
        del p.coeffs


def test_values_refuse_deletion():
    # a deleted slot would break the value's next hash or comparison
    x, z = QuadExt(1, 1, 2), CycNumber(3, [0, 1])
    with pytest.raises(AttributeError):
        del x.D
    with pytest.raises(AttributeError):
        del z.order
    assert hash(x) == hash(QuadExt(1, 1, 2)) and z == CycNumber(3, [0, 1])


def test_rational_quadext_hashes_as_fraction():
    # the integer formula covers a = -1 (hash -2) and a denominator that is
    # a multiple of the hash modulus, which has no inverse modulo it
    modulus = sys.hash_info.modulus
    for r in (Fraction(-1), Fraction(-1, 3), Fraction(7, 2 * modulus),
              Fraction(-5, modulus), Fraction(10**40 + 1, 3**50)):
        assert hash(QuadExt(r)) == hash(r), r


@st.composite
def cyc_any_order(draw):
    """A CycNumber of order 1 to 60, sparse or dense, and a lift of it."""
    n = draw(st.integers(1, 60))
    deg = cyclotomic_polynomial(n).degree
    coeffs = draw(st.lists(small_fractions | st.just(Fraction(0)), min_size=1, max_size=deg))
    x = CycNumber(n, coeffs)
    return x, x.lift(n * draw(st.integers(2, 3)))


def galois_mean(x: CycNumber) -> Fraction:
    """The mean of the Galois conjugates of x, from its definition."""
    n = x.order
    conjugates = [x.galois(k) for k in range(1, n + 1) if math.gcd(k, n) == 1]
    return sum(conjugates, CycNumber.from_rational(0, n)).as_fraction() / len(conjugates)


@given(cyc_any_order())
@settings(max_examples=60, deadline=None)
def test_cycnumber_hashes_as_its_galois_mean(pair):
    for x in pair:
        assert hash(x) == hash(galois_mean(x)), x


def test_cycnumber_hash_at_a_denominator_the_modulus_divides():
    # no inverse of the denominator modulo the hash modulus: the inf branch;
    # zeta_8 / modulus has mean 0 over the denominator 4 * modulus
    modulus = sys.hash_info.modulus
    z = CycNumber.root_of_unity(8)
    for r in (Fraction(1, modulus), Fraction(-7, 3 * modulus)):
        for x in (CycNumber.from_rational(r, 8), z + r, z * r, CycNumber(8, [r, r, r, r])):
            assert hash(x) == hash(galois_mean(x)) == hash(x.lift(24)), x
    assert hash(CycNumber.from_rational(Fraction(1, modulus), 8)) == sys.hash_info.inf


@given(st.one_of(
    st.builds(QuadExt, small_fractions, small_fractions, st.sampled_from([2, 3, 5, 12])),
    st.builds(CycNumber, st.integers(1, 12), st.lists(small_fractions, min_size=1, max_size=4)),
), st.integers(1, 5))
@settings(deadline=None)
def test_negative_powers_invert(x, k):
    if x == 0:
        with pytest.raises(ZeroDivisionError):
            x ** -k
        return
    assert x ** -k == (x ** k).inverse() == x.inverse() ** k
    assert x ** -k * x ** k == 1 and x ** 0 == 1


@given(spellings())
def test_equal_values_compare_equal_both_ways(values):
    # a rational QuadExt and a rational CycNumber answer for each other
    for a in values:
        for b in values:
            assert a == b and b == a, (a, b)


def test_quadext_and_cycnumber_meet_only_as_rationals():
    two = CycNumber.from_rational(2, 4)
    assert QuadExt(2) == two and two == QuadExt(2)
    assert QuadExt(3) != two and two != QuadExt(3)
    # sqrt(2) is zeta_8 + zeta_8^-1, but the two types hash irrationals
    # differently, so they never compare equal
    assert QuadExt.sqrt(2) != embed_quadratic(QuadExt.sqrt(2))
    with pytest.raises(TypeError):
        QuadExt(2) + two


# ---------------------------------------------------------------------------
# QuadExt against a plain (Fraction, Fraction, D) reference

ORACLE_RADICANDS = (1, 2, 3, 5, 6, 8, 12, 45)


def ref_quad(p, q, D):
    """(p, q, D) of p + q*sqrt(D) with D squarefree, and (p, 0, 1) when the
    value is rational: the normal form the public constructor promises."""
    s = max(k for k in range(1, math.isqrt(D) + 1) if D % (k * k) == 0)
    p, q, D = Fraction(p), Fraction(q) * s, D // (s * s)
    if D == 1 or q == 0:
        return p + q, Fraction(0), 1
    return p, q, D


def ref_add(x, y):
    return ref_quad(x[0] + y[0], x[1] + y[1], max(x[2], y[2]))


def ref_mul(x, y):
    D = max(x[2], y[2])
    return ref_quad(x[0] * y[0] + x[1] * y[1] * D, x[0] * y[1] + x[1] * y[0], D)


def ref_norm(x):
    return x[0] * x[0] - x[1] * x[1] * x[2]


def ref_inverse(x):
    n = ref_norm(x)
    return ref_quad(x[0] / n, -x[1] / n, x[2])


def ref_decimal(x):
    """p + q*sqrt(D) to 60 digits: a nonzero difference of two values with
    these small coordinates is far above that precision."""
    with localcontext() as ctx:
        ctx.prec = 60
        return (Decimal(x[0].numerator) / x[0].denominator
                + Decimal(x[1].numerator) / x[1].denominator * Decimal(x[2]).sqrt())


def ref_sign(x):
    v = ref_decimal(x)
    return (v > 0) - (v < 0)


def assert_matches(x, want):
    """x is normalized and equals the reference value in every reader:
    p, q, D, the hash and the printed text."""
    assert x._c > 0 and math.gcd(x._a, x._b, x._c) == 1
    assert (x._b == 0) == (x.D == 1)
    assert all(x.D % (k * k) for k in range(2, math.isqrt(x.D) + 1))
    p, q, D = want
    assert (x.p, x.q, x.D) == want
    assert type(x.p) is Fraction and type(x.q) is Fraction
    assert hash(x) == (hash(p) if q == 0 else hash((x._a, x._b, x._c, D)))
    assert str(x) == (str(p) if q == 0 else f"{p} + {q}*sqrt({D})")


oracle_parts = st.fractions(Fraction(-40), Fraction(40), max_denominator=12)


@st.composite
def same_field_pairs(draw):
    """Two reference values in one field; either may be rational."""
    D = draw(st.sampled_from(ORACLE_RADICANDS))
    xs = [(draw(oracle_parts), draw(st.sampled_from([0, 1, 1])) * draw(oracle_parts))
          for _ in range(2)]
    return [(QuadExt(p, q, D), ref_quad(p, q, D)) for p, q in xs]


@given(same_field_pairs(), st.integers(-3, 4))
@settings(max_examples=300)
def test_quadext_matches_fraction_oracle(pair, k):
    (x, rx), (y, ry) = pair
    assert_matches(x, rx)
    assert_matches(y, ry)
    assert_matches(x + y, ref_add(rx, ry))
    assert_matches(x - y, ref_add(rx, ref_quad(-ry[0], -ry[1], ry[2])))
    assert_matches(-x, ref_quad(-rx[0], -rx[1], rx[2]))
    assert_matches(x * y, ref_mul(rx, ry))
    assert_matches(x.conjugate(), ref_quad(rx[0], -rx[1], rx[2]))
    assert x.norm() == ref_norm(rx) and type(x.norm()) is Fraction
    assert x.trace() == 2 * rx[0] and type(x.trace()) is Fraction
    assert x.is_algebraic_integer() == (
        (2 * rx[0]).denominator == 1 and ref_norm(rx).denominator == 1
    )
    assert _sign_of(x._a, x._b, x.D) == ref_sign(rx)
    d = ref_sign(ref_add(rx, ref_quad(-ry[0], -ry[1], ry[2])))
    assert (x < y, x <= y, x > y, x >= y, x == y) == (d < 0, d <= 0, d > 0, d >= 0, d == 0)
    # rational operands on either side, never built into a QuadExt
    for r in (ry[0], int(ry[0])):
        assert_matches(x + r, ref_add(rx, ref_quad(r, 0, 1)))
        assert_matches(r - x, ref_add(ref_quad(r, 0, 1), ref_quad(-rx[0], -rx[1], rx[2])))
        assert_matches(r * x, ref_mul(rx, ref_quad(r, 0, 1)))
        assert (x == r) == (rx == ref_quad(r, 0, 1))
        assert (x < r) == (ref_sign(ref_add(rx, ref_quad(-r, 0, 1))) < 0)
    if ref_norm(ry):
        assert_matches(y.inverse(), ref_inverse(ry))
        assert_matches(x / y, ref_mul(rx, ref_inverse(ry)))
    else:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        with pytest.raises(ZeroDivisionError):
            x / y
    if k >= 0 or ref_norm(rx):
        want = ref_quad(1, 0, 1)
        for _ in range(abs(k)):
            want = ref_mul(want, rx if k > 0 else ref_inverse(rx))
        assert_matches(x ** k, want)


@given(st.lists(st.tuples(oracle_parts, oracle_parts, st.sampled_from(ORACLE_RADICANDS)),
                min_size=1, max_size=4))
def test_quadext_compares_across_fields(triples):
    values = [(QuadExt(*t), ref_quad(*t)) for t in triples]
    for x, rx in values:
        for y, ry in values:
            if rx[1] and ry[1] and rx[2] != ry[2]:
                # distinct radicands: the oracle compares decimal values
                vx, vy = ref_decimal(rx), ref_decimal(ry)
                d = (vx > vy) - (vx < vy)
            else:
                d = ref_sign(ref_add(rx, ref_quad(-ry[0], -ry[1], ry[2])))
            assert (x < y, x > y, x <= y, x >= y) == (d < 0, d > 0, d <= 0, d >= 0)


@given(st.lists(st.tuples(oracle_parts, oracle_parts, st.sampled_from(ORACLE_RADICANDS)),
                min_size=1, max_size=6))
def test_integer_field_matches_fraction_formula(triples):
    values = [QuadExt(*t) for t in triples]
    refs = [ref_quad(*t) for t in triples]
    den = math.lcm(*(x.denominator for p, q, _ in refs for x in (p, q)))
    coords = {1: [int(p * den) for p, _, _ in refs]}
    for k, (_, q, D) in enumerate(refs):
        if q:
            coords.setdefault(D, [0] * len(refs))[k] = int(q * den)
    assert _integer_field(values) == (den, coords)


def test_sqrt_accepts_integral_fractions():
    assert QuadExt.sqrt(Fraction(12)) == QuadExt.sqrt(12) == QuadExt(0, 2, 3)
    assert QuadExt.sqrt(Fraction(49)) == 7
    with pytest.raises(ValueError):
        QuadExt.sqrt(Fraction(1, 2))


@pytest.mark.parametrize("value", [
    QuadExt(1, 2, 5),
    QuadExt(Fraction(-3, 4), Fraction(5, 6), 12),
    QuadExt(Fraction(7, 3)),
    CycNumber.root_of_unity(5),
    CycNumber(12, [Fraction(1, 2), 0, Fraction(-3, 4)]),
    CycNumber.from_rational(Fraction(2, 3), 7),
])
def test_scalars_pickle_and_deepcopy(value):
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(copied) is type(value)
        assert copied == value and hash(copied) == hash(value)
        assert repr(copied) == repr(value)


def mat_eval(p, M):
    """p(M) for a square integer matrix M, by Horner's rule."""
    n = len(M)
    out = [[0] * n for _ in range(n)]
    for c in reversed(p.coeffs):
        out = [
            [sum(out[i][k] * M[k][j] for k in range(n)) + c * (i == j)
             for j in range(n)]
            for i in range(n)
        ]
    return out


class TestCharpoly:
    def test_identity(self):
        assert charpoly([[1, 0], [0, 1]]) == IntPoly([1, -2, 1])

    def test_zero_3x3(self):
        assert charpoly([[0] * 3 for _ in range(3)]) == IntPoly([0, 0, 0, 1])

    def test_z3_base_kappa0_extra_matrix(self):
        # left-multiplication matrix of the extra basis element, kappa = 0
        M = [
            [0, 0, 0, 1],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
            [1, 1, 1, 0],
        ]
        # oracle: cofactor expansion gives x^4 - 3x^2 = x^2 (x^2 - 3)
        assert charpoly(M) == IntPoly([0, 0, -3, 0, 1])

    @given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    @settings(max_examples=40)
    def test_cayley_hamilton(self, M):
        assert mat_eval(charpoly(M), M) == [[0] * 4 for _ in range(4)]


class TestFactorLinearQuadratic:
    def test_x2_times_x2_minus_3(self):
        f = factor_linear_quadratic(IntPoly([0, 0, -3, 0, 1]))
        assert f.roots == (0, 0)
        assert f.quadratics == (IntPoly([-3, 0, 1]),)
        assert f.residual == IntPoly([1])

    def test_z3_base_kappa1_codegrees(self):
        # (x-3)^2 (x^2 - 13x + 39): quadratic roots (13 +- sqrt(13))/2
        quad = IntPoly([39, -13, 1])
        full = IntPoly([-3, 1]) * IntPoly([-3, 1]) * quad
        f = factor_linear_quadratic(full)
        assert f.roots == (3, 3)
        assert f.quadratics == (quad,)
        roots = f.all_roots()
        expected = (13 + QuadExt.sqrt(13)) * Fraction(1, 2)
        assert expected in roots

    def test_linear(self):
        f = factor_linear_quadratic(IntPoly([-1, 1]))
        assert f.roots == (1,) and not f.quadratics
        assert f.residual == IntPoly([1])

    def test_every_real_quadratic_factor_repeated_ones_included(self):
        # codegree polynomial of Fibonacci x Ising
        q1, q2 = IntPoly([80, -20, 1]), IntPoly([20, -10, 1])
        f = factor_linear_quadratic(q1 * q1 * q2)
        assert sorted(f.quadratics, key=lambda q: q.coeffs) == [q2, q1, q1]
        assert not f.roots and f.residual == IntPoly([1])

    def test_complex_pair_stays_in_the_residual(self):
        # x^2 + 1 has no real roots to pair; x^2 - 3 is split off
        complex_pair, real_pair = IntPoly([1, 0, 1]), IntPoly([-3, 0, 1])
        f = factor_linear_quadratic(complex_pair * complex_pair * real_pair)
        assert f.quadratics == (real_pair,)
        assert f.residual == complex_pair * complex_pair

    @given(
        st.lists(st.integers(-6, 6), max_size=6),
        st.lists(
            st.sampled_from([(-2, 0), (-5, -1), (-1, -1), (1, 0), (7, 3)]),
            max_size=2,
        ),
    )
    @settings(max_examples=60)
    def test_roots_within_a_bound(self, roots, quads):
        p = IntPoly([1])
        for r in roots:
            p = p * IntPoly([-r, 1])
        for c, b in quads:
            p = p * IntPoly([c, b, 1])
        bound = max((abs(r) for r in roots), default=0)
        for f in (factor_linear_quadratic(p), factor_linear_quadratic(p, bound)):
            assert list(f.roots) == sorted(roots)
            rebuilt = f.residual
            for r in f.roots:
                rebuilt = rebuilt * IntPoly([-int(r), 1])
            for q in f.quadratics:
                rebuilt = rebuilt * q
            assert rebuilt == p

    def test_degree_gt_2_residual_untouched(self):
        # x^3 - 2 is irreducible over any quadratic tower
        f = factor_linear_quadratic(IntPoly([-2, 0, 0, 1]))
        assert not f.roots and not f.quadratics
        assert f.residual == IntPoly([-2, 0, 0, 1])


def integer_roots_bruteforce(p, bound):
    """Every integer root r, 0 < |r| <= bound, with multiplicity, by
    evaluating p at each r in turn and dividing it out while it vanishes."""
    roots = []
    for r in range(-bound, bound + 1):
        while r and p.degree > 0 and p(r) == 0:
            p = p.divexact(IntPoly([-r, 1]))
            roots.append(r)
    return roots, p


class TestIntegerRoots:
    @given(
        st.lists(st.integers(-9, 9).filter(bool), max_size=7),
        st.lists(
            st.sampled_from([(1, 0), (-2, 0), (-1, -1), (5, 1), (-6, 4)]),
            max_size=2,
        ),
        st.integers(0, 12),
    )
    @settings(max_examples=150)
    # r = 1 and r = -1 bypass the p(1), p(-1) divisibility filter, which
    # would divide by zero there; repeated ones must survive deflation
    @example([1, -1, 2, -2], [], 2)
    @example([1, 1, 1, -1, -1], [], 1)
    @example([-1, -1, 2, 2, -2], [(5, 1)], 12)
    def test_matches_bruteforce(self, roots, quads, bound):
        # roots of both signs, repeated ones, and quadratic factors without
        # integer roots, so that Descartes' rule skips a sign only sometimes
        p = IntPoly([1])
        for r in roots:
            p = p * IntPoly([-r, 1])
        for c, b in quads:
            p = p * IntPoly([c, b, 1])
        found, quotient = _integer_roots(p, bound)
        want, want_quotient = integer_roots_bruteforce(p, bound)
        assert sorted(found) == want
        assert quotient == want_quotient

    def test_positive_roots_skip_negative_divisors(self, monkeypatch):
        # the z3-base kappa-1 codegree polynomial (x - 3)^2 (x^2 - 13x + 39):
        # its coefficients alternate, so p(-x) has no sign change and no
        # negative divisor is tried
        tried = []
        divide = scalars._divide_linear

        def counting(coeffs, r):
            tried.append(r)
            return divide(coeffs, r)

        monkeypatch.setattr(scalars, "_divide_linear", counting)
        p = IntPoly([-3, 1]) * IntPoly([-3, 1]) * IntPoly([39, -13, 1])
        found, quotient = _integer_roots(p, 39)
        assert found == [3, 3] and quotient == IntPoly([39, -13, 1])
        assert tried and min(tried) > 0


@given(
    st.lists(st.integers(-9, 9), max_size=6),
    st.lists(st.integers(-9, 9), max_size=4),
    st.integers(-9, 9).filter(bool),
    st.lists(st.integers(-9, 9), max_size=4),
    st.booleans(),
)
@settings(max_examples=300)
def test_poly_divmod(quotient, rest, lead, remainder, fractions):
    """a = quotient * b + remainder with deg remainder < deg b: the division
    gives back both, and an empty remainder exactly when b divides a."""
    b = rest + [lead]
    remainder = remainder[:len(b) - 1]
    if fractions:
        quotient, b, remainder = ([Fraction(c, 3) for c in v] for v in (quotient, b, remainder))
    a = [0] * max(len(quotient) + len(b) - 1, len(remainder))
    for i, qi in enumerate(quotient):
        for j, bj in enumerate(b):
            a[i + j] += qi * bj
    for i, r in enumerate(remainder):
        a[i] += r
    q, r = _poly_divmod(a, b)
    while remainder and not remainder[-1]:
        remainder.pop()
    assert q == quotient and r == remainder and len(r) < len(b)
    assert (not r) == (not any(remainder))
    if not fractions and lead == 1:
        assert all(type(c) is int for c in q + r)


class TestDivexact:
    def test_divisor_must_be_monic(self):
        with pytest.raises(ValueError, match="divisor must be monic"):
            IntPoly([2, 4]).divexact(IntPoly([1, 2]))

    def test_inexact_division_refused(self):
        with pytest.raises(ValueError, match="division is not exact"):
            IntPoly([1, 0, 1]).divexact(IntPoly([-1, 1]))


class TestSturm:
    def test_count(self):
        p = IntPoly([-3, 0, 1])  # x^2 - 3
        assert largest_real_root_bounds(p)[0] == 2
        p = IntPoly([1, 0, 1]) * IntPoly([-2, 1])  # (x^2 + 1)(x - 2)
        assert largest_real_root_bounds(p)[0] == 1

    def test_repeated_roots(self):
        # x^2 (x^2 - 2)^2: a chain on p itself vanishes at 0
        p = IntPoly([0, 0, 4, 0, -4, 0, 1])
        count, (lo, hi) = largest_real_root_bounds(p, Fraction(1, 10**10))
        assert count == 3
        assert 0 < lo and lo * lo < 2 <= hi * hi

    def test_largest_root_bounds(self):
        p = IntPoly([-3, 0, 1])
        _, (lo, hi) = largest_real_root_bounds(p, Fraction(1, 10**10))
        assert lo * lo < 3 < hi * hi
        assert hi - lo <= Fraction(1, 10**10)

    def test_no_real_root(self):
        with pytest.raises(ValueError, match="no real roots"):
            largest_real_root_bounds(IntPoly([1, 0, 1]))

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=7), st.booleans(),
           st.sampled_from([Fraction(1, 2), Fraction(1, 10**6), Fraction(1, 10**12)]))
    @settings(max_examples=100, deadline=None)
    def test_largest_root_is_the_first_enclosure(self, low, square, width):
        # the count and enclosure are those of the one bisection that
        # isolates every root, on its dyadic grid across the Cauchy bound
        p = IntPoly(low + [1])
        if square:
            p = p * p
        chain = _sturm_chain(p)
        bound = Fraction(1 + max(abs(c) for c in p.coeffs))
        span = _sturm_span(chain, -bound, bound)
        enclosures = list(_real_root_enclosures(chain, span, width))
        assert enclosures == sorted(enclosures, reverse=True)
        if not enclosures:
            with pytest.raises(ValueError, match="no real roots"):
                largest_real_root_bounds(p, width)
            return
        count, (lo, hi) = largest_real_root_bounds(p, width)
        assert (count, (lo, hi)) == (len(enclosures), enclosures[0])
        assert lo < hi and hi - lo <= width
        # halving towards the largest root alone stops at the same interval,
        # unless a second root lies in it, which the enclosure then excludes
        l, h = -bound, bound
        top = _sign_changes(chain, h)
        while h - l > width:
            mid = (l + h) / 2
            l, h = (mid, h) if _sign_changes(chain, mid) > top else (l, mid)
        if _sign_changes(chain, l) - top == 1:
            assert (lo, hi) == (l, h)
        else:
            assert l <= lo < hi <= h

    def test_largest_root_narrows_only_the_largest(self, monkeypatch):
        # twelve real roots +-sqrt(k), k = 2..7; the lower eleven are never
        # narrowed, so the cost is one sign count per halving plus the ends
        p = IntPoly([1])
        for k in range(2, 8):
            p = p * IntPoly([-k, 0, 1])
        counts = []
        sign_changes = scalars._sign_changes

        def counting(chain, x):
            counts.append(x)
            return sign_changes(chain, x)

        monkeypatch.setattr(scalars, "_sign_changes", counting)
        width = Fraction(1, 10**10)
        count, (lo, hi) = largest_real_root_bounds(p, width)
        assert count == 12 and lo * lo < 7 <= hi * hi
        bound = 1 + max(abs(c) for c in p.coeffs)
        assert len(counts) <= math.ceil(math.log2(2 * bound / width)) + 4


class TestCyclotomic:
    def test_small_polynomials(self):
        assert cyclotomic_polynomial(1) == IntPoly([-1, 1])
        assert cyclotomic_polynomial(2) == IntPoly([1, 1])
        assert cyclotomic_polynomial(4) == IntPoly([1, 0, 1])
        assert cyclotomic_polynomial(5) == IntPoly([1, 1, 1, 1, 1])
        assert cyclotomic_polynomial(6) == IntPoly([1, -1, 1])
        assert cyclotomic_polynomial(12) == IntPoly([1, 0, -1, 0, 1])

    def test_root_of_unity_power(self):
        z = CycNumber.root_of_unity(5)
        assert z ** 5 == 1
        assert z ** 4 == z.inverse()
        total = z + z ** 2 + z ** 3 + z ** 4
        assert total == -1

    def test_conjugation(self):
        z = CycNumber.root_of_unity(8)
        assert z.conjugate() == z ** 7
        assert (z + z.conjugate()).conjugate() == z + z.conjugate()

    def test_inverse(self):
        z = CycNumber.root_of_unity(7)
        x = 2 + 3 * z - z ** 5
        assert x * x.inverse() == 1

    def test_mixed_orders(self):
        i = CycNumber.root_of_unity(4)
        m1 = CycNumber.root_of_unity(2)
        assert i * i == m1
        assert i ** 2 == -1

    def test_embed_sqrt5(self):
        s5 = embed_quadratic(QuadExt.sqrt(5))
        assert s5.order == 5 and s5 * s5 == 5
        phi = embed_quadratic((1 + QuadExt.sqrt(5)) * Fraction(1, 2))
        assert phi * phi == phi + 1
        z = CycNumber.root_of_unity(5)
        assert phi == 1 + z + z ** 4


def conductor(D: int) -> int:
    """Conductor of Q(sqrt(D)) for squarefree D > 0 (1 for D = 1)."""
    if D == 1:
        return 1
    return D if D % 4 == 1 else 4 * D


def complex_value(x: CycNumber) -> complex:
    """x at zeta_n = exp(2 pi i / n), in floating point."""
    return sum(
        float(c) * cmath.exp(2j * math.pi * k / x.order)
        for k, c in enumerate(x.coeffs)
    )


SQUAREFREE_UP_TO_100 = [D for D in range(1, 101) if squarefree_decompose(D) == (1, D)]


@pytest.mark.parametrize("D", SQUAREFREE_UP_TO_100)
def test_embed_sqrt_is_the_positive_root_at_the_conductor(D):
    root = embed_quadratic(QuadExt.sqrt(D))
    assert root * root == D
    assert root.conjugate() == root
    assert root.order == conductor(D)
    # positive, and the real square root, at the standard complex embedding
    assert abs(complex_value(root) - math.sqrt(D)) < 1e-9


EMBED_RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13, 15, 21, 30, 35)


@given(
    st.lists(st.tuples(oracle_parts, oracle_parts), min_size=2, max_size=2),
    st.sampled_from(EMBED_RADICANDS),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_embedding_is_a_ring_homomorphism(parts, D, rational):
    (p1, q1), (p2, q2) = parts
    x, y = QuadExt(p1, q1, D), QuadExt(p2, 0 if rational else q2, D)
    ex, ey = embed_quadratic(x), embed_quadratic(y)
    assert embed_quadratic(x + y) == ex + ey
    assert embed_quadratic(x * y) == ex * ey


# ---------------------------------------------------------------------------
# CycNumber against plain-Fraction polynomial arithmetic modulo Phi_n

ORACLE_ORDERS = (1, 2, 3, 4, 5, 7, 8, 12, 15)


def _phi(n: int) -> list[int]:
    """Phi_n, lowest degree first: x^n - 1 over Phi_d for each proper
    divisor d of n, by schoolbook division."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = _phi(d)
            quot = [0] * (len(poly) - len(div) + 1)
            for i in range(len(quot) - 1, -1, -1):
                c = poly[i + len(div) - 1]
                quot[i] = c
                for j, b in enumerate(div):
                    poly[i + j] -= c * b
            poly = quot
    return poly


def _mod_phi(p: list[Fraction], n: int) -> tuple[Fraction, ...]:
    phi = _phi(n)
    deg = len(phi) - 1
    p = list(p) + [Fraction(0)] * deg
    for i in range(len(p) - 1, deg - 1, -1):
        c = p[i]
        if c:
            for j, b in enumerate(phi):
                p[i - deg + j] -= c * b
    return tuple(p[:deg])


def _poly_mul(x, y) -> list[Fraction]:
    out = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return out


def _substitute(x, n: int, k: int, m: int) -> tuple[Fraction, ...]:
    """x(zeta_n) with zeta_n^i sent to zeta_m^(i*k mod m), reduced mod Phi_m."""
    out = [Fraction(0)] * m
    for i, c in enumerate(x):
        out[(i * k) % m] += c
    return _mod_phi(out, m)


cyc_coefficients = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))


@st.composite
def cyc_pairs(draw):
    n = draw(st.sampled_from(ORACLE_ORDERS))
    deg = len(_phi(n)) - 1
    vec = st.lists(cyc_coefficients, min_size=deg, max_size=deg)
    return n, tuple(draw(vec)), tuple(draw(vec))


@given(cyc_pairs(), st.integers(1, 3))
@settings(max_examples=150)
def test_cyc_arithmetic_matches_fraction_oracle(pair, mult):
    n, xs, ys = pair
    x, y = CycNumber(n, xs), CycNumber(n, ys)
    assert x.coeffs == xs and y.coeffs == ys
    assert (x + y).coeffs == tuple(a + b for a, b in zip(xs, ys))
    assert (x - y).coeffs == tuple(a - b for a, b in zip(xs, ys))
    assert (x * y).coeffs == _mod_phi(_poly_mul(xs, ys), n)
    m = n * mult
    assert x.lift(m).coeffs == _substitute(xs, n, mult, m)
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            assert x.galois(k).coeffs == _substitute(xs, n, k, n)
    if any(xs):
        inv = x.inverse().coeffs
        assert _mod_phi(_poly_mul(xs, inv), n) == _mod_phi([Fraction(1)], n)
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()


# orders whose lcm stays small enough for the recursive _phi oracle
FIELD_ORDERS = (1, 2, 3, 4, 5, 6, 8, 9, 12)


@st.composite
def cyc_values(draw):
    n = draw(st.sampled_from(FIELD_ORDERS))
    deg = len(_phi(n)) - 1
    return n, tuple(draw(st.lists(cyc_coefficients, min_size=deg, max_size=deg)))


@given(st.lists(cyc_values(), min_size=1, max_size=4))
@settings(max_examples=100, deadline=None)
def test_cyclotomic_field_matches_fraction_oracle(drawn):
    values = [CycNumber(n, xs) for n, xs in drawn]
    n, den, nums, conjs = _cyclotomic_field(values)
    assert n == math.lcm(*(order for order, _ in drawn))
    assert den == math.lcm(*(f.denominator for v in values for f in v.coeffs))
    lifted, conjugated = [], []
    for order, xs in drawn:
        step = n // order
        lifted.append(_substitute(xs, order, step, n))
        conjugated.append(_substitute(xs, order, n - step, n))
    assert [tuple(Fraction(c, den) for c in v) for v in nums] == lifted
    assert [tuple(Fraction(c, den) for c in v) for v in conjs] == conjugated
    # sum of |x|^2 over the values, reduced once, against the oracle
    total = [Fraction(0)] * (2 * len(lifted[0]) - 1)
    for x, y in zip(lifted, conjugated):
        for k, c in enumerate(_poly_mul(x, y)):
            total[k] += c
    got = _cyc_dot(n, nums, conjs)
    assert tuple(Fraction(c, den * den) for c in got) == _mod_phi(total, n)


@pytest.mark.parametrize("n", FIELD_ORDERS)
@pytest.mark.parametrize("B", [2, 3, 17, 64, 65, 200])
def test_pack_unpack_round_trip_at_extreme_digits(n, B):
    # as many digits as a packed multiplicity sum has, each at the largest
    # magnitude a B-bit slot holds, in every sign pattern the slots meet
    length = 3 * (len(_phi(n)) - 1) - 2
    top = (1 << (B - 1)) - 1
    patterns = [
        [top] * length,
        [-top] * length,
        [top if k % 2 else -top for k in range(length)],
        [-top if k % 3 else 0 for k in range(length)],
        [0] * (length - 1) + [-top],
        [-1] * length,
    ]
    for digits in patterns:
        assert _unpack(_pack(digits, B), B, length) == digits


@given(
    st.sampled_from(FIELD_ORDERS),
    st.lists(st.integers(-(10 ** 30), 10 ** 30), min_size=1, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_packed_sum_matches_cyc_dot(n, pool):
    # a sum of products of packed vectors, unpacked and reduced once, is
    # the per-term sum when B is chosen from the l1 bound of the factors
    d = len(_phi(n)) - 1
    vecs = [tuple(pool[(k + j) % len(pool)] for j in range(d)) for k in range(6)]
    xs, ys = vecs[:3], vecs[3:]
    M = max(sum(map(abs, v)) for v in vecs)
    B = _slot_width(len(xs) * M * M)
    packed = sum(_pack(x, B) * _pack(y, B) for x, y in zip(xs, ys))
    assert _reduce_ints(_unpack(packed, B, 2 * d - 1), n) == _cyc_dot(n, xs, ys)


@st.composite
def packed_sums(draw):
    """Values, a factor count f and weighted terms: each term is an integer
    weight and f picks of a value or of its conjugate."""
    values = [CycNumber(n, xs) for n, xs in draw(st.lists(cyc_values(), min_size=1, max_size=4))]
    factors = draw(st.sampled_from([2, 3]))
    pick = st.tuples(st.integers(0, len(values) - 1), st.booleans())
    term = st.tuples(
        st.integers(-(10 ** 6), 10 ** 6),
        st.lists(pick, min_size=factors, max_size=factors),
    )
    return values, factors, draw(st.lists(term, min_size=1, max_size=5))


# one value with one coordinate, so a product of f of them has the
# coefficient M^f and the weighted sum sits at the bound, either sign
AT_BOUND = [CycNumber(8, [0, 0, 0, 10 ** 20 + 7])]
# zeta_5 has l1 norm 1 and its conjugate -1 - zeta_5 - zeta_5^2 - zeta_5^3
# has 4, so the bound must take the conjugates' norms too
ZETA5 = [CycNumber.root_of_unity(5)]


@given(packed_sums())
@example((AT_BOUND, 2, [(10 ** 6, [(0, False), (0, True)]), (-(10 ** 6), [(0, True), (0, True)])]))
@example((AT_BOUND, 3, [(-(10 ** 6), [(0, False)] * 3)]))
@example((AT_BOUND, 3, [(10 ** 6, [(0, True)] * 3)]))
@example((ZETA5, 3, [(10 ** 6, [(0, True)] * 3)]))
@settings(max_examples=100, deadline=None)
def test_packed_field_sums_match_per_term(drawn):
    # weights whose absolute values sum to exactly the weight passed, so
    # every coefficient of the sum is within the bound the slots are cut to
    values, factors, terms = drawn
    weight = sum(abs(w) for w, _ in terms)
    n, den, nums, conjs, coords = _packed_field(values, weight, factors)
    plain = _cyclotomic_field(values)
    assert (n, den) == plain[:2]
    packed = 0
    for w, picks in terms:
        for i, c in picks:
            w *= (conjs if c else nums)[i]
        packed += w
    got = coords(packed, factors)
    if factors == 2:
        xs, ys = [], []
        for w, ((i, c), (j, e)) in terms:
            xs.append([w * x for x in plain[2 + c][i]])
            ys.append(plain[2 + e][j])
        assert got == _cyc_dot(n, xs, ys)
    else:
        total = [Fraction(0)] * (3 * len(plain[2][0]) - 2)
        for w, picks in terms:
            product = [Fraction(w)]
            for i, c in picks:
                product = _poly_mul(product, plain[2 + c][i])
            total = [a + b for a, b in zip(total, product)]
        assert tuple(map(Fraction, got)) == _mod_phi(total, n)


@given(st.lists(cyc_values(), min_size=1, max_size=6), st.integers(0, 5))
@example([(4, (Fraction(1), Fraction(0))), (4, (Fraction(-3), Fraction(1)))], 0)
@settings(max_examples=100, deadline=None)
def test_packed_field_keeps_values_apart_at_weight_zero(drawn, repeat):
    # weight 0 still cuts slots wide enough for one value, so packed
    # values (and conjugates) are equal exactly when the values are; with
    # 2-bit slots the example's 1 and -3 + zeta_4 would both pack to 1
    values = [CycNumber(n, xs) for n, xs in drawn]
    values += values[:repeat]
    _, _, nums, conjs, _ = _packed_field(values, 0, 1)
    everything = values + [v.conjugate() for v in values]
    packed = nums + conjs
    for a, pa in zip(everything, packed):
        for b, pb in zip(everything, packed):
            assert (pa == pb) == (a == b), (a, b)


def test_cyc_mixed_orders_lift_to_lcm():
    x = CycNumber.root_of_unity(4) + CycNumber.root_of_unity(3)
    assert x.order == 12
    assert (x * CycNumber.from_rational(Fraction(2, 3), 5)).order == 60
    assert CycNumber.root_of_unity(4) * Fraction(1, 2) == CycNumber(4, [0, Fraction(1, 2)])
