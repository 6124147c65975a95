import math
import random
import time
from fractions import Fraction

import pytest
from ring_oracles import deligne_product

from mrfw.corpus import (
    PREMODULAR_BUILDERS,
    cyclic_ring,
    fibonacci_ring,
    ising_ring,
    rep_s3_ring,
    trivial_ring,
    z3_base_ring,
)
from mrfw.mr import mr_extend
from mrfw.premodular import (
    _det,
    _is_root_of_unity,
    _to_cyc,
    NON_DEGENERATE,
    PROPERLY_DEGENERATE,
    SLIGHTLY_DEGENERATE,
    SYMMETRIC,
    centralizer_of,
    degeneracy_class,
    premodular_data,
)
from mrfw.ring import FusionRing, InvalidRingError, fpdims
from mrfw.scalars import MAX_CYCLOTOMIC_ORDER, CycNumber, QuadExt, _packed_field

Z5 = CycNumber.root_of_unity(5)
PHI = 1 + Z5 + Z5 ** 4
I4 = CycNumber.root_of_unity(4)


def fib_data():
    return premodular_data(fibonacci_ring(), [1, PHI], [1, Z5 ** 2])


def z2_modular_data():
    return premodular_data(cyclic_ring(2), [1, 1], [1, I4])


class TestSMatrix:
    def test_fibonacci(self):
        S = fib_data().S
        assert S[0] == (CycNumber.from_rational(1), PHI)
        assert S[1][0] == PHI
        assert S[1][1] == -1

    def test_fibonacci_quadratic_dims_embedded(self):
        phi_q = (1 + QuadExt.sqrt(5)) * Fraction(1, 2)
        assert premodular_data(fibonacci_ring(), [1, phi_q], [1, Z5 ** 2]).S == fib_data().S

    def test_pointed_z2_fourth_root(self):
        for theta in (I4, I4 ** 3):
            S = premodular_data(cyclic_ring(2), [1, 1], [1, theta]).S
            assert S == ((1, 1), (1, -1))

    def test_trivial_twists_give_dim_products(self):
        ring = rep_s3_ring()
        d = [1, 2, 1]
        S = premodular_data(ring, d, [1, 1, 1]).S
        for i in range(3):
            for j in range(3):
                assert S[i][j] == d[i] * d[j]

    def test_symmetric_and_first_row(self):
        for data in (fib_data(), z2_modular_data()):
            n = data.ring.rank
            for i in range(n):
                assert data.S[0][i] == data.dims[i]
                for j in range(n):
                    assert data.S[i][j] == data.S[j][i]

    def test_verlinde_scalar(self):
        # S squared is the global dimension times the identity for the two
        # modular entries
        for data, total in (
            (fib_data(), 2 + PHI),
            (z2_modular_data(), CycNumber.from_rational(2)),
        ):
            n = data.ring.rank
            for i in range(n):
                for j in range(n):
                    acc = CycNumber.from_rational(0)
                    for k in range(n):
                        acc = acc + data.S[i][k] * data.S[k][j]
                    assert acc == (total if i == j else 0)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError, match="multiplicative"):
            premodular_data(fibonacci_ring(), [1, 2], [1, 1])

    def test_rejects_nonunit_twist(self):
        with pytest.raises(ValueError, match="root of unity"):
            premodular_data(cyclic_ring(2), [1, 1], [1, 2])
        with pytest.raises(ValueError, match="unit"):
            premodular_data(cyclic_ring(2), [1, 1], [-1, 1])

    def test_rejects_invalid_ring(self):
        # Z_2 with the unit rows swapped: basis element 0 is not a unit
        ring = FusionRing(["1", "g"], [[[0, 1], [1, 0]], [[1, 0], [0, 1]]])
        with pytest.raises(InvalidRingError):
            premodular_data(ring, [1, 1], [1, 1])

    def test_ising_every_twist_is_modular(self):
        # the near-group C(Z_2, 0) with dims (1, 1, sqrt 2) and theta_g = -1:
        # S S-bar^T is the global dimension 4 times the identity
        ring = ising_ring()
        dims = [1, 1, QuadExt.sqrt(2)]
        z16 = CycNumber.root_of_unity(16)
        for j in range(8):
            data = premodular_data(ring, dims, [1, -1, z16 ** (2 * j + 1)])
            S = data.S
            for a in range(3):
                for b in range(3):
                    acc = sum(
                        (S[a][k] * S[b][k].conjugate() for k in range(3)),
                        CycNumber.from_rational(0),
                    )
                    assert acc == (4 if a == b else 0), (j, a, b)
            assert degeneracy_class(data).label == NON_DEGENERATE
            assert S[2][2] == 0 and S[0][2] * S[0][2] == 2

    def test_galois_conjugate_dims_accepted(self):
        # (1 - sqrt 5)/2 is the other eigenvalue of X's fusion matrix
        dims = [1, (1 - QuadExt.sqrt(5)) * Fraction(1, 2)]
        data = premodular_data(fibonacci_ring(), dims, [1, Z5])
        assert data.S[1][1] == -1
        assert degeneracy_class(data).label == NON_DEGENERATE

    @pytest.mark.parametrize(
        "ring,dim",
        [
            (fibonacci_ring(), QuadExt.sqrt(5)),  # beyond the row sum 2
            (fibonacci_ring(), QuadExt.sqrt(2) * Fraction(1, 2)),  # not integral
            (cyclic_ring(2), QuadExt.sqrt(10007)),  # would need Q(zeta_40028)
        ],
        ids=["sqrt5", "half-sqrt2", "sqrt10007"],
    )
    def test_quadratic_dim_screened_before_embedding(self, ring, dim):
        with pytest.raises(ValueError, match="dimension 1 is not a fusion matrix"):
            premodular_data(ring, [1, dim], [1, 1])

    def test_irrational_twist_is_not_a_root_of_unity(self):
        with pytest.raises(ValueError, match="twist 1 is not a root of unity"):
            premodular_data(cyclic_ring(2), [1, 1], [1, QuadExt.sqrt(10007)])


class TestConductorBound:
    """The field order is bounded before any value is embedded."""

    def test_near_group_101_refused_at_once(self):
        # X^2 = 1 + 101 X: d = (101 + sqrt 10205)/2 passes the eigenvalue
        # screen, but Q(zeta_10205) took 15 s of dense arithmetic
        ring = mr_extend(trivial_ring(), 101)
        dim = (101 + QuadExt.sqrt(10205)) * Fraction(1, 2)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"need Q\(zeta_10205\), above") as exc:
            premodular_data(ring, [1, dim], [1, 1])
        assert type(exc.value) is ValueError
        assert time.perf_counter() - start < 1

    def test_order_is_the_lcm_of_twists_and_dims(self):
        # a twist of order 4096 alone is at the bound; sqrt 2 needs
        # Q(zeta_8) and a twist of order 513 fits, but their lcm 4104 not
        theta = CycNumber.root_of_unity(MAX_CYCLOTOMIC_ORDER)
        data = premodular_data(cyclic_ring(2), [1, 1], [1, theta])
        assert data.S[1][1].order == MAX_CYCLOTOMIC_ORDER
        dims = [1, 1, QuadExt.sqrt(2)]
        with pytest.raises(ValueError, match="zeta_4104"):
            premodular_data(ising_ring(), dims, [1, -1, CycNumber.root_of_unity(513)])

    @pytest.mark.parametrize("name", sorted(PREMODULAR_BUILDERS))
    def test_corpus_documents_pass(self, name):
        ring, dims, twists = PREMODULAR_BUILDERS[name]()
        assert len(premodular_data(ring, dims, twists).S) == ring.rank


def reference_smatrix(ring, dims, twists):
    """The balancing equation summed term by term in CycNumber arithmetic,
    after the per-pair multiplicativity check: the oracle for the S-matrix
    of `premodular_data`."""
    n = ring.rank
    d = [_to_cyc(x) for x in dims]
    t = [_to_cyc(x) for x in twists]
    for i in range(n):
        for j in range(n):
            acc = CycNumber.from_rational(0)
            for k in range(n):
                acc = acc + ring.N[i][j][k] * d[k]
            if acc != d[i] * d[j]:
                raise ValueError(
                    f"dimensions are not multiplicative at ({i}, {j})"
                )
    t_inv = [tw.inverse() for tw in t]
    td = [tw * dk for tw, dk in zip(t, d)]
    S = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = CycNumber.from_rational(0)
            for k in range(n):
                if ring.N[i][j][k]:
                    acc = acc + ring.N[i][j][k] * td[k]
            row.append(t_inv[i] * t_inv[j] * acc)
        S.append(row)
    return S


def reference_cases():
    for n in range(1, 9):
        for order in (n, 2 * n):
            z = CycNumber.root_of_unity(order)
            twists = [z ** (k * k) for k in range(n)]
            yield f"z{n}-zeta{order}", cyclic_ring(n), [1] * n, twists
    phi_q = (1 + QuadExt.sqrt(5)) * Fraction(1, 2)
    for name, phi in (("cyc", PHI), ("quad", phi_q)):
        for power in (2, 3):
            yield f"fibonacci-{name}-{power}", fibonacci_ring(), [1, phi], [1, Z5 ** power]
    yield "rep-s3", rep_s3_ring(), [1, 2, 1], [1, 1, 1]
    yield "z3-base", z3_base_ring(2), [1, 1, 1, 3], [1, 1, 1, 1]
    yield "z4-partial", cyclic_ring(4), [1, 1, 1, 1], [1, I4, 1, I4]
    # X^2 = Sum_g g + 11 X over Z_12: a rational dim 12 and a
    # multiplicity 11 widen the packed slots
    z = CycNumber.root_of_unity(24)
    yield (
        "z12-k11-dim12", mr_extend(cyclic_ring(12), 11), [1] * 12 + [12],
        [z ** (2 * k * k) for k in range(12)] + [z ** 7],
    )


REFERENCE_CASES = {name: rest for name, *rest in reference_cases()}


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_smatrix_matches_per_term_reference(name):
    ring, dims, twists = REFERENCE_CASES[name]
    want = reference_smatrix(ring, dims, twists)
    data = premodular_data(ring, dims, twists)
    assert data.S == tuple(tuple(row) for row in want)
    assert data.dims == tuple(_to_cyc(x) for x in dims)
    assert data.twists == tuple(_to_cyc(x) for x in twists)
    # one field for every entry: the lcm of the input orders
    m = math.lcm(*(x.order for x in data.dims + data.twists))
    assert {x.order for row in data.S for x in row} == {m}


@pytest.mark.parametrize(
    "ring,dims",
    [
        (rep_s3_ring(), [1, 2, -1]),
        (rep_s3_ring(), [1, 1, 1]),
        (z3_base_ring(2), [1, 1, 1, 2]),
        (cyclic_ring(3), [1, 1, -1]),
    ],
)
def test_multiplicativity_message_matches_reference(ring, dims):
    twists = [1] * ring.rank
    with pytest.raises(ValueError) as want:
        reference_smatrix(ring, dims, twists)
    with pytest.raises(ValueError) as got:
        premodular_data(ring, dims, twists)
    assert str(got.value) == str(want.value)


class TestCentralizer:
    def test_fibonacci_nondegenerate(self):
        data = fib_data()
        assert centralizer_of(data, range(2)) == frozenset({0})

    def test_z2_modular(self):
        assert centralizer_of(z2_modular_data(), range(2)) == frozenset({0})

    def test_symmetric_case_full(self):
        ring = rep_s3_ring()
        data = premodular_data(ring, [1, 2, 1], [1, 1, 1])
        assert centralizer_of(data, range(3)) == frozenset({0, 1, 2})

    def test_subset_of_unit_is_everything(self):
        data = fib_data()
        assert centralizer_of(data, [0]) == frozenset({0, 1})

    def test_closure_holds_on_z3_base(self):
        ring = z3_base_ring(2)
        d = [int(v.as_fraction()) for v in fpdims(ring).dims]
        data = premodular_data(ring, d, [1, 1, 1, 1])
        for subset in ([0], [0, 1], range(4)):
            out = centralizer_of(data, subset)
            assert 0 in out


    @pytest.mark.parametrize(
        "n, forged, want",
        [
            # {0, 1} in Z3 lacks the dual 2 of 1
            (3, {(1, 2): CycNumber.root_of_unity(3)}, [0, 1]),
            # {0, 1, 3} in Z4 is dual-closed but lacks 1 * 1 = 2
            (4, {(1, 2): CycNumber.from_rational(-1)}, [0, 1, 3]),
        ],
    )
    def test_forged_s_matrix_centralizer_not_a_subring(self, n, forged, want):
        data = premodular_data(cyclic_ring(n), [1] * n, [1] * n)
        S = [list(row) for row in data.S]
        for (x, y), value in forged.items():
            S[x][y] = S[y][x] = value
        data = data._replace(S=tuple(map(tuple, S)))
        assert sorted(
            y for y in range(n) if S[1][y] == data.dims[1] * data.dims[y]
        ) == want
        with pytest.raises(ValueError, match="centralizer"):
            centralizer_of(data, [1])


class TestDegeneracy:
    def test_fibonacci(self):
        assert degeneracy_class(fib_data()).label == NON_DEGENERATE

    def test_z2_modular(self):
        report = degeneracy_class(z2_modular_data())
        assert report.label == NON_DEGENERATE
        assert report.center == frozenset({0})

    def test_z2_trivial_twist_symmetric(self):
        data = premodular_data(cyclic_ring(2), [1, 1], [1, 1])
        report = degeneracy_class(data)
        assert report.label == SYMMETRIC
        assert not report.svec_center

    def test_z2_minus_one_twist_symmetric_svec(self):
        data = premodular_data(cyclic_ring(2), [1, 1], [1, -1])
        report = degeneracy_class(data)
        assert report.label == SYMMETRIC
        assert report.svec_center

    def test_svec_times_fibonacci_slightly_degenerate(self):
        # sVec (Z2 with twist -1) times Fibonacci: the center is {1*1, g1*1},
        # an invertible with twist -1
        ring = deligne_product(cyclic_ring(2), fibonacci_ring())
        assert ring.labels == ("1*1", "1*X", "g1*1", "g1*X")
        data = premodular_data(ring, [1, PHI, 1, PHI], [1, Z5 ** 2, -1, -(Z5 ** 2)])
        report = degeneracy_class(data)
        assert report.label == SLIGHTLY_DEGENERATE
        assert report.center == frozenset({0, 2})
        assert report.svec_center

    def test_properly_degenerate(self):
        # trivial twists on a rank-3 ring: center is everything only when
        # the ring is symmetric; z3 pointed with partial twists lands in a
        # proper intermediate center
        ring = cyclic_ring(4)
        data = premodular_data(ring, [1, 1, 1, 1], [1, I4, 1, I4])
        report = degeneracy_class(data)
        assert report.label == PROPERLY_DEGENERATE
        assert report.center == frozenset({0, 2})


def laplace_det(M):
    """Cofactor expansion along the first row: the O(n!) oracle."""
    n = len(M)
    if n == 1:
        return M[0][0]
    acc = CycNumber.from_rational(0)
    for c in range(n):
        minor = [[M[r][cc] for cc in range(n) if cc != c] for r in range(1, n)]
        term = M[0][c] * laplace_det(minor)
        acc = acc + term if c % 2 == 0 else acc - term
    return acc


def elimination_det(M):
    """Gaussian elimination over the common cyclotomic field, one inverse
    per pivot: the oracle where cofactor expansion is too slow."""
    n = len(M)
    order = math.lcm(*(x.order for row in M for x in row))
    rows = [[x.lift(order) for x in row] for row in M]
    det = CycNumber.from_rational(1, order)
    for c in range(n):
        pivot = next((r for r in range(c, n) if not rows[r][c].is_zero), None)
        if pivot is None:
            return CycNumber.from_rational(0, order)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        top = rows[c]
        det = det * top[c]
        inv = top[c].inverse()
        for row in rows[c + 1:]:
            f = row[c] * inv
            for j in range(c + 1, n):
                row[j] = row[j] - f * top[j]
    return det


def pointed_smatrix(n):
    zeta = CycNumber.root_of_unity(n)
    data = premodular_data(cyclic_ring(n), [1] * n, [zeta ** (k * k) for k in range(n)])
    return [list(row) for row in data.S]


def random_cyc_matrix(rng, size, order):
    return [
        [
            CycNumber(order, [rng.randint(-3, 3) for _ in range(order)])
            for _ in range(size)
        ]
        for _ in range(size)
    ]


class TestDeterminant:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_pointed_matches_laplace(self, n):
        # s_jk = zeta^(2jk): for even n, row n/2 equals the unit row
        S = pointed_smatrix(n)
        det = _det(S)
        assert det == laplace_det(S)
        assert det.is_zero == (n % 2 == 0)

    def test_fibonacci_matches_laplace(self):
        S = [list(row) for row in fib_data().S]
        assert _det(S) == laplace_det(S) == -(2 + PHI)

    @pytest.mark.parametrize("size", [3, 4])
    @pytest.mark.parametrize("order", [3, 4, 5, 12])
    def test_random_matches_laplace(self, size, order):
        rng = random.Random(f"det:{size}:{order}")
        for _ in range(5):
            M = random_cyc_matrix(rng, size, order)
            assert _det(M) == laplace_det(M)

    @pytest.mark.parametrize("size", [3, 4])
    def test_singular(self, size):
        rng = random.Random(f"singular:{size}")
        for _ in range(5):
            M = random_cyc_matrix(rng, size, 5)
            repeated = [row[:] for row in M]
            repeated[-1] = list(repeated[0])
            combined = [row[:] for row in M]
            a, b = M[1][0] + 2, CycNumber.root_of_unity(5, 2)
            combined[-1] = [a * x + b * y for x, y in zip(M[0], M[1])]
            for S in (repeated, combined):
                assert laplace_det(S).is_zero
                assert _det(S).is_zero

    def test_zero_leading_entry_needs_pivoting(self):
        M = [[0, 1, 2], [1, 0, 3], [4, 5, 0]]
        C = [[CycNumber.from_rational(x) for x in row] for row in M]
        assert _det(C) == laplace_det(C) == 22

    @pytest.mark.parametrize("n", range(8, 22))
    def test_pointed_matches_elimination(self, n):
        S = pointed_smatrix(n)
        det = _det(S)
        assert det == elimination_det(S)
        assert det.is_zero == (n % 2 == 0)

    @pytest.mark.parametrize("order", [1, 2, 4, 5, 12, 105])
    def test_random_mixed_orders_match_laplace(self, order):
        # entries with Fraction coordinates, each over Q(zeta_k) for a
        # random divisor k of the order, and one matrix per size
        rng = random.Random(f"mixed:{order}")
        divisors = [k for k in range(1, order + 1) if order % k == 0]

        def entry():
            k = rng.choice(divisors)
            return CycNumber(k, [Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 7]))
                                 for _ in range(k)])

        for size in range(1, 6):
            M = [[entry() for _ in range(size)] for _ in range(size)]
            assert _det(M) == laplace_det(M)

    def test_singular_at_order_105(self):
        rng = random.Random("singular:105")
        M = random_cyc_matrix(rng, 3, 105)
        repeated = [M[0], M[1], M[0]]
        zeta = CycNumber.root_of_unity(105, 11)
        combined = [M[0], M[1], [zeta * x - Fraction(3, 7) * y for x, y in zip(M[0], M[1])]]
        zero_column = [[CycNumber.from_rational(0)] + row[1:] for row in M]
        for S in (repeated, combined, zero_column):
            assert laplace_det(S).is_zero
            assert _det(S).is_zero

    def test_column_without_a_unit_pivot(self):
        # the first column holds multiples of a prime q of P = Phi_12(2^B),
        # so none of its entries is a unit modulo P and the 2 x 2 gcd
        # transforms clear it; the large entry L fixes the slot width
        # whatever q is, as long as 3 q <= L
        zeta = CycNumber.root_of_unity(12)
        rng = random.Random("nonunit")
        rest = random_cyc_matrix(rng, 3, 12)

        def matrix(q, L):
            col = [CycNumber.from_rational(q, 12), -2 * q * zeta, q * zeta ** 5]
            M = [[c] + row[1:] for c, row in zip(col, rest)]
            M[0][1] = CycNumber.from_rational(L, 12)
            return M

        def modulus(M):
            return _packed_field([x for row in M for x in row], 6, 3, conjugates=False)

        for L in range(1000, 1100):
            P = modulus(matrix(1, L))[6]
            q = next((q for q in range(3, L // 3) if P % q == 0), None)
            if q:
                break
        M = matrix(q, L)
        _, _, nums, _, _, _, P2 = modulus(M)
        assert P2 == P and all(math.gcd(nums[3 * r] % P, P) > 1 for r in range(3))
        assert _det(M) == laplace_det(M) == elimination_det(M)
        assert not _det(M).is_zero

    @pytest.mark.parametrize("order", [256, 1024, MAX_CYCLOTOMIC_ORDER])
    def test_two_by_two_at_high_order(self, order):
        # pointed Z2 with twist zeta: S = [[1, 1], [1, zeta^-2]]
        zeta = CycNumber.root_of_unity(order)
        S = premodular_data(cyclic_ring(2), [1, 1], [1, zeta]).S
        assert _det(S) == zeta ** (order - 2) - 1


def _roots_of_unity_and_randoms(order, rng):
    zeta = CycNumber.root_of_unity(order)
    yield from (sign * zeta ** k for k in range(order) for sign in (1, -1))
    for _ in range(20):
        yield CycNumber(order, [rng.randint(-2, 2) for _ in range(order)])
        yield CycNumber(order, [Fraction(rng.randint(-4, 4), rng.choice([1, 2, 5]))
                                for _ in range(order)])


class TestRootOfUnity:
    @pytest.mark.parametrize("order", list(range(1, 61)) + [105])
    def test_norm_test_matches_power(self, order):
        rng = random.Random(f"root:{order}")
        for x in _roots_of_unity_and_randoms(order, rng):
            want = not x.is_zero and x ** (2 * x.order) == 1
            assert _is_root_of_unity(x) == want, x

    def test_norm_one_non_integer_rejected(self):
        # (3 + 4i) / 5 has x * conj(x) = 1 but is no algebraic integer
        x = (3 + 4 * I4) / 5
        assert x * x.conjugate() == 1
        assert not _is_root_of_unity(x)
        assert x ** 8 != 1
