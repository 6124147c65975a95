import copy
import functools
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ring_oracles import (
    cubic_ring,
    deligne_product,
    dense_close,
    dense_grading,
    dense_invertibles,
    dense_is_positive_character,
    dense_supp,
    dense_support,
    haagerup_izumi_ring,
    su2_ring,
    subrings_bruteforce,
)
from test_obstruction import (
    commutative_rings,
    noncommutative_rings,
    rank4_and_near_group_rings,
)

from mrfw.corpus import (
    RING_BUILDERS,
    cyclic_ring,
    fibonacci_ring,
    ising_ring,
    klein_four_ring,
    rep_s3_ring,
    s3_base_ring,
    trivial_ring,
    z3_base_ring,
)
from mrfw import ring as ring_module
from mrfw import scalars
from mrfw.mr import mr_extend
from mrfw.ring import (
    FusionRing,
    InvalidRingError,
    MRData,
    Violation,
    adjoint_and_grading,
    detect_mr,
    fpdims,
    invertibles,
    subrings,
    _elementwise_dim,
    _is_positive_character,
    _left_spectrum,
)
from mrfw.scalars import IntPoly, QuadExt, factor_linear_quadratic

CORPUS = {
    "trivial": trivial_ring(),
    "z2": cyclic_ring(2),
    "z3": cyclic_ring(3),
    "z4": cyclic_ring(4),
    "z2xz2": klein_four_ring(),
    "fibonacci": fibonacci_ring(),
    "ising": ising_ring(),
    "rep-s3": rep_s3_ring(),
    "z3-base-k0": z3_base_ring(0),
    "z3-base-k3": z3_base_ring(3),
    "s3-base-k3": s3_base_ring(3),
    "s3-base-k5": s3_base_ring(5),
}

PHI = (1 + QuadExt.sqrt(5)) * Fraction(1, 2)

# C(Z_a, kappa) for a <= 8, as (a, kappa) pairs
SMALL_NEAR_GROUPS = [(a, k) for a in range(1, 9) for k in sorted({0, 1, a})]


# rings on which the certified FP dimensions are compared with the
# element-by-element Perron roots
FPDIM_RINGS = {
    **RING_BUILDERS,
    **{f"z3-base-k{k}": functools.partial(z3_base_ring, k) for k in range(13)},
    **{f"s3-base-k{k}": functools.partial(s3_base_ring, k) for k in range(13)},
    **{
        f"C(Z{a},{k})": functools.partial(mr_extend, cyclic_ring(a), k)
        for a in range(1, 21)
        for k in sorted({0, 1, a})
    },
    "haagerup-izumi-z3": haagerup_izumi_ring,
    "fibonacci*ising": lambda: deligne_product(fibonacci_ring(), ising_ring()),
    "cubic": cubic_ring,
}


def dense_associativity(ring):
    """O(n^5) oracle: the first (i, j, k, l) in index order where
    (X_i X_j) X_k and X_i (X_j X_k) differ, as a one-element violation
    list."""
    n, N = ring.rank, ring.N
    for i, j, k, l in itertools.product(range(n), repeat=4):
        lhs = sum(N[i][j][m] * N[m][k][l] for m in range(n))
        rhs = sum(N[j][k][m] * N[i][m][l] for m in range(n))
        if lhs != rhs:
            return [Violation("associativity", (i, j, k, l), f"{lhs} != {rhs}")]
    return []


def dense_validate(ring):
    """validate() by plain loops: the first violation in index order of each
    axiom, in reporting order, with associativity from
    dense_associativity."""
    n, N, dual = ring.rank, ring.N, ring.dual
    cube = list(itertools.product(range(n), repeat=3))
    axioms = [
        [Violation("nonnegativity", (i, j, k), "negative")
         for i, j, k in cube if N[i][j][k] < 0],
        [Violation("unit-law", (0, j, k), "left unit fails")
         for j in range(n) for k in range(n) if N[0][j][k] != int(j == k)],
        [Violation("unit-law", (i, 0, k), "right unit fails")
         for i in range(n) for k in range(n) if N[i][0][k] != int(i == k)],
    ]
    for i in range(n):
        row = [N[i][j][0] for j in range(n)]
        if row.count(1) != 1 or sum(row) != 1:
            axioms.append([Violation("duality-normalization", (i,),
                                     f"unit multiplicities {row}")])
            break
    for i in range(n):
        if dual[dual[i]] != i or dual[0] != 0:
            axioms.append([Violation("duality-involution", (i,), f"dual map {dual}")])
            break
    axioms.append(
        [Violation("frobenius-reciprocity", (i, j, k),
                   f"{N[i][j][k]}, {N[dual[i]][k][j]}, {N[k][dual[j]][i]}")
         for i, j, k in cube
         if N[i][j][k] != N[dual[i]][k][j] or N[i][j][k] != N[k][dual[j]][i]]
    )
    axioms.append(dense_associativity(ring))
    return [found[0] for found in axioms if found]


def generator_rows(ring):
    """The row sets `validate` runs its associativity scan on, with W's
    known part recomputed as a least fixpoint after each checked row: X_0
    under the left unit law, each checked row, and every X_k that is the
    one nonzero term outside the known part of a product of two known
    elements.  Rows are checked in index order, skipping known ones; a
    failing row (by a scan of dense rows), or W short of the whole basis,
    ends in the full scan."""
    n, N = ring.rank, ring.N
    known = {0} if all(N[0][j][k] == (j == k) for j in range(n) for k in range(n)) else set()
    rows = []
    for s in range(n):
        if s in known:
            continue
        rows.append((s,))
        for j, k in itertools.product(range(n), repeat=2):
            lhs, rhs = [0] * n, [0] * n  # (X_s X_j) X_k and X_s (X_j X_k)
            for m in range(n):
                if N[s][j][m]:
                    lhs = [a + N[s][j][m] * b for a, b in zip(lhs, N[m][k])]
                if N[j][k][m]:
                    rhs = [a + N[j][k][m] * b for a, b in zip(rhs, N[s][m])]
            if lhs != rhs:
                return rows + [tuple(range(n))]
        known.add(s)
        new = {s}
        while new:
            outside = ({k for k in range(n) if N[i][j][k] and k not in known}
                       for i in known for j in known)
            new = set().union(*(terms for terms in outside if len(terms) == 1))
            known |= new
    return rows if len(known) == n else rows + [tuple(range(n))]


def frobenius_orbit(ring, i, j, k):
    """The entries N_ij^k is tied to by Frobenius reciprocity:
    (i, j, k) ~ (i*, k, j) ~ (k, j*, i)."""
    dual = ring.dual
    orbit, todo = set(), [(i, j, k)]
    while todo:
        t = todo.pop()
        if t not in orbit:
            orbit.add(t)
            a, b, c = t
            todo += [(dual[a], c, b), (c, dual[b], a)]
    return orbit


def one_term_products(ring):
    """The (i, j, m) with X_i X_j = X_m and i, j, m not the unit: the
    pairs the associativity scan compares by index lookup."""
    n, S = ring.rank, ring.sparse
    return [(i, j, S[i][j][0][0]) for i in range(1, n) for j in range(1, n)
            if len(S[i][j]) == 1 and S[i][j][0][0] != 0 and S[i][j][0][1] == 1]


def row_swaps(ring):
    """Each (i, j, a, b) with N_ij^a != N_ij^b, and the ring with those two
    entries of row (i, j) swapped."""
    n = ring.rank
    for i, j in itertools.product(range(n), repeat=2):
        row = ring.N[i][j]
        for a, b in itertools.combinations(range(n), 2):
            if row[a] != row[b]:
                N = [[list(r) for r in plane] for plane in ring.N]
                N[i][j][a], N[i][j][b] = row[b], row[a]
                yield (i, j, a, b), FusionRing(ring.labels, N)


# two-element rings whose inferred dual, (0, 0) and (1, 1), is not
# injective: every nonzero has its reciprocity matches, yet reciprocity
# fails at the violation given
NON_INJECTIVE_DUALS = [
    ([[[1, 1], [1, 0]], [[1, 0], [0, 0]]], ((0, 1, 1), "0, 0, 1")),
    ([[[0, 1], [1, 1]], [[0, 1], [1, 1]]], ((0, 0, 0), "0, 0, 1")),
]


# rings for the comparison with dense_validate: the corpus and C(Z_a,
# kappa), a <= 12, where the generating set {g, extra} leaves most rows
# unchecked
VALIDATE_RINGS = {
    **{name: build() for name, build in sorted(RING_BUILDERS.items())},
    **{f"C(Z{a},{k})": mr_extend(cyclic_ring(a), k)
       for a in range(1, 13) for k in sorted({0, 1, a})},
}


# the rings of VALIDATE_RINGS up to rank 7, where every mutant of a kind
# can be compared with dense_validate
SMALL_VALIDATE_RINGS = {name: ring for name, ring in VALIDATE_RINGS.items() if ring.rank <= 7}


@st.composite
def ring_mutants(draw):
    """A ring of VALIDATE_RINGS with one or two entries moved by 1..5 either
    way, with a whole Frobenius orbit moved (so that only associativity can
    fail), with the planes of a non-self-dual X_i and X_i* swapped, with a
    one-term product X_i X_j = X_m of non-units raised to 2 X_m along its
    whole orbit (only associativity can fail, and single-term pairs must
    not pass on it), or with two different entries of one row swapped
    (every plane and slice keeps its nonzero count)."""
    ring = VALIDATE_RINGS[draw(st.sampled_from(sorted(VALIDATE_RINGS)))]
    n = ring.rank
    N = [[list(row) for row in plane] for plane in ring.N]
    index = st.integers(0, n - 1)
    delta = st.integers(1, 5).flatmap(lambda d: st.sampled_from([d, -d]))
    pairs = [i for i in range(n) if ring.dual[i] != i]
    singles = one_term_products(ring)
    rows = [(i, j) for i in range(n) for j in range(n) if len(set(ring.N[i][j])) > 1]
    kind = draw(st.sampled_from(["entries", "orbit"] + ["swap"] * bool(pairs)
                                + ["scaled"] * bool(singles) + ["row swap"] * bool(rows)))
    if kind == "swap":
        i = draw(st.sampled_from(pairs))
        N[i], N[ring.dual[i]] = N[ring.dual[i]], N[i]
    elif kind == "orbit":
        d = draw(delta)
        for i, j, k in frobenius_orbit(ring, draw(index), draw(index), draw(index)):
            N[i][j][k] += d
    elif kind == "scaled":
        for i, j, k in frobenius_orbit(ring, *draw(st.sampled_from(singles))):
            N[i][j][k] = 2
    elif kind == "row swap":
        i, j = draw(st.sampled_from(rows))
        row = N[i][j]
        a = draw(index)
        b = draw(st.sampled_from([k for k in range(n) if row[k] != row[a]]))
        row[a], row[b] = row[b], row[a]
    else:
        for _ in range(draw(st.integers(1, 2))):
            N[draw(index)][draw(index)][draw(index)] += draw(delta)
    return FusionRing(ring.labels, N)


class TestValidate:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_rings_valid(self, name):
        assert CORPUS[name].validate() == []

    def test_fibonacci_rules(self):
        fib = fibonacci_ring()
        assert fib.N[1][1] == (1, 1)  # X (x) X = 1 + X

    @pytest.mark.parametrize("bad", [1.7, Fraction(3, 2), "1"], ids=repr)
    def test_non_integer_structure_constant_rejected(self, bad):
        # without the check, 1.7 truncated to 1 made a valid Z2 ring
        with pytest.raises(ValueError, match=r"N\[1\]\[1\]\[0\] = .* is not an integer"):
            FusionRing(["1", "g"], [[[1, 0], [0, 1]], [[0, 1], [bad, 0]]])

    def test_integer_types_become_exact_ints(self):
        ring = FusionRing(["1", "g"], [[[True, 0], [0, 1]], [[0, 1], [1, False]]])
        assert ring.N == cyclic_ring(2).N
        assert {type(x) for plane in ring.N for row in plane for x in row} == {int}

    def test_duality_normalization_violation(self):
        bad = FusionRing(["1", "X"], [[[1, 0], [0, 1]], [[0, 1], [2, 1]]])
        report = bad.validate()
        assert any(v.axiom == "duality-normalization" for v in report)
        # the result is cached per ring; callers get their own copy
        report.clear()
        assert bad.validate() != []
        assert not bad.is_valid
        with pytest.raises(InvalidRingError):
            bad.require_valid()

    def test_z3_base_kappa3_by_exhaustive_oracle(self):
        ring = z3_base_ring(3)
        assert dense_associativity(ring) == []
        assert ring.validate() == []

    @pytest.mark.parametrize(
        "name,survivors",
        [
            # moving the self-multiplicity of the extra simple by one turns
            # C(D, kappa) into the equally valid C(D, kappa +- 1); survivors
            # are given per step
            ("fibonacci", {1: {(1, 1, 1)}, -1: {(1, 1, 1)}}),
            ("rep-s3", {1: {(1, 1, 1)}, -1: {(1, 1, 1)}}),
            ("z3-base-k0", {1: {(3, 3, 3)}, -1: set()}),
            ("s3-base-k5", {1: {(3, 3, 3)}, -1: {(3, 3, 3)}}),
        ],
    )
    def test_single_mutation_detected(self, name, survivors):
        ring = CORPUS[name]
        n = ring.rank
        undetected = {1: set(), -1: set()}
        for step, i, j, k in itertools.product(undetected, *[range(n)] * 3):
            N = [[list(row) for row in plane] for plane in ring.N]
            N[i][j][k] += step
            mutant = FusionRing(ring.labels, N)
            report = mutant.validate()
            assert report == dense_validate(mutant)
            if report == []:
                undetected[step].add((i, j, k))
        assert undetected == survivors

    @pytest.mark.parametrize("name", sorted(VALIDATE_RINGS))
    def test_valid_rings_match_dense_oracle(self, name):
        ring = VALIDATE_RINGS[name]
        assert ring.validate() == dense_validate(ring) == []

    @settings(max_examples=200, deadline=None)
    @given(ring_mutants())
    def test_mutants_match_dense_oracle(self, mutant):
        assert mutant.validate() == dense_validate(mutant)

    @settings(max_examples=200, deadline=None)
    @given(ring_mutants())
    def test_mutants_check_the_fixpoint_rows(self, mutant):
        assert self.checked_rows(mutant)[0] == generator_rows(mutant)

    @staticmethod
    def checked_rows(ring):
        """The row sets the associativity scan is run on by validate()."""
        rows = []
        scan = FusionRing._associativity_violations

        def spy(self, supp, checked):
            rows.append(tuple(checked))
            return scan(self, supp, checked)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(FusionRing, "_associativity_violations", spy)
            report = ring.validate()
        return rows, report

    @staticmethod
    def nilpotent_ring(yy=0):
        """Basis 1, x, y, z whose only product of non-units is x x = y + z:
        associative.  With yy = 1, y y = y and z y = -y, so that (y + z) a
        is unchanged for every a, yet (y x) x = 0 != y (x x) = y."""
        N = [[[0] * 4 for _ in range(4)] for _ in range(4)]
        for i in range(4):
            N[0][i][i] = N[i][0][i] = 1
        N[1][1][2] = N[1][1][3] = 1
        N[2][2][2], N[3][2][2] = yy, -yy
        return FusionRing(["1", "x", "y", "z"], N)

    @pytest.mark.parametrize("a", [2, 5, 12])
    def test_near_group_checks_two_rows(self, a):
        # g generates the pointed part; the extra element needs its own row
        rows, report = self.checked_rows(mr_extend(cyclic_ring(a), a))
        assert (rows, report) == ([(1,), (a,)], [])

    def test_product_with_two_new_terms_waits(self):
        # x x = y + z puts y + z in W, not y or z; once the row of y is
        # checked, z follows from x x without a check of its own
        rows, report = self.checked_rows(self.nilpotent_ring())
        assert rows == [(1,), (2,)]
        assert not any(v.axiom == "associativity" for v in report)

    def test_product_with_two_new_terms_adds_neither(self):
        # the row of x passes and y + z is in W, but y is not
        ring = self.nilpotent_ring(yy=1)
        assert ring.validate() == dense_validate(ring)
        assert ring.validate()[-1] == Violation("associativity", (2, 1, 1, 2), "0 != 1")

    def test_row_of_x0_checked_without_left_unit(self):
        # e e = e + x, e x = e, x e = x x = 0: the row of x passes, and
        # only the row of X_0 = e fails
        ring = FusionRing(["e", "x"], [[[1, 1], [1, 0]], [[0, 0], [0, 0]]])
        assert ring.validate() == dense_validate(ring)
        assert ring.validate()[-1] == Violation("associativity", (0, 0, 0, 0), "1 != 2")

    def test_unchecked_row_still_caught(self):
        # on C(Z_5, 2) only the rows of g and the extra element are
        # checked; a broken entry in the plane of g^2 must still be found
        ring = mr_extend(cyclic_ring(5), 2)
        N = [[list(row) for row in plane] for plane in ring.N]
        for i, j, k in frobenius_orbit(ring, 2, 2, 4):
            N[i][j][k] += 1
        report = FusionRing(ring.labels, N).validate()
        assert [v.axiom for v in report] == ["associativity"]
        assert report == dense_validate(FusionRing(ring.labels, N))

    def test_scaled_one_term_products_fail_associativity_only(self):
        # X_i X_j = 2 X_m along a whole Frobenius orbit keeps every other
        # axiom; the pairs compared by index lookup must not pass it
        count = 0
        for name, ring in SMALL_VALIDATE_RINGS.items():
            for t in one_term_products(ring):
                N = [[list(row) for row in plane] for plane in ring.N]
                for i, j, k in frobenius_orbit(ring, *t):
                    N[i][j][k] = 2
                mutant = FusionRing(ring.labels, N)
                report = mutant.validate()
                assert report == dense_validate(mutant), (name, t)
                assert [v.axiom for v in report] == ["associativity"], (name, t)
                count += 1
        assert count == 238

    def test_row_swaps_break_reciprocity(self):
        # two different entries of one row swapped: every plane and slice
        # keeps its nonzero count, so only the matches can catch it
        count = 0
        for name, ring in SMALL_VALIDATE_RINGS.items():
            for where, mutant in row_swaps(ring):
                report = mutant.validate()
                assert report == dense_validate(mutant), (name, *where)
                assert "frobenius-reciprocity" in {v.axiom for v in report}
                count += 1
        assert count == 2160

    @pytest.mark.parametrize("N,violation", NON_INJECTIVE_DUALS)
    def test_reciprocity_counts_catch_a_dual_that_is_not_injective(self, N, violation):
        # every nonzero has its matches; the dual, not an involution, is
        # what makes the ordered scan run
        ring = FusionRing(["e", "x"], N)
        report = ring.validate()
        assert report == dense_validate(ring)
        assert Violation("frobenius-reciprocity", *violation) in report

    def test_matches_decide_reciprocity_for_an_involutive_dual(self):
        # _reciprocal holds exactly when dual is an involution and every
        # entry passes the dense reciprocity test
        def dense(ring):
            n, N, dual = ring.rank, ring.N, ring.dual
            return all(dual[dual[i]] == i for i in range(n)) and all(
                N[i][j][k] == N[dual[i]][k][j] == N[k][dual[j]][i]
                for i, j, k in itertools.product(range(n), repeat=3)
            )

        rings = [
            *SMALL_VALIDATE_RINGS.values(),
            *(mutant for ring in SMALL_VALIDATE_RINGS.values() for _, mutant in row_swaps(ring)),
            *(FusionRing(["e", "x"], N) for N, _ in NON_INJECTIVE_DUALS),
        ]
        outcomes = [ring_module._reciprocal(ring) for ring in rings]
        assert outcomes == list(map(dense, rings))
        assert outcomes.count(True) == len(SMALL_VALIDATE_RINGS) == 27
        assert len(rings) == 27 + 2160 + 2

    def test_explicit_zero_sum_is_no_violation(self):
        # (x x) y = y y + z y = y - y sums to an explicit 0 at y, and
        # x (x y) = 0: the vectors agree, so the row of x passes
        ring = self.nilpotent_ring(yy=1)
        assert list(ring._associativity_violations(ring.sparse, (1,))) == []
        assert ring.validate() == dense_validate(ring)


class TestLeftMatrix:
    def test_s3_base_extra_matrix_expected_form(self):
        ring = s3_base_ring(5)
        assert ring.left_matrix(3) == [
            [0, 0, 0, 1],
            [0, 0, 0, 2],
            [0, 0, 0, 1],
            [1, 2, 1, 5],
        ]

    def test_unit_matrix_is_identity(self):
        ring = rep_s3_ring()
        assert ring.left_matrix(0) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_z3_base_invertible_is_extended_permutation(self):
        ring = z3_base_ring(2)
        assert ring.left_matrix(1) == [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
        ]

    def test_dual_gives_transpose(self):
        ring = z3_base_ring(1)
        for i in range(ring.rank):
            m = ring.left_matrix(i)
            md = ring.left_matrix(ring.dual[i])
            assert md == [list(col) for col in zip(*m)]


class TestFPDims:
    def test_fibonacci(self):
        dims = fpdims(fibonacci_ring())
        assert dims.all_exact
        assert dims.dims[1] == PHI

    def test_pointed_z2(self):
        dims = fpdims(cyclic_ring(2))
        assert [d.as_fraction() for d in dims.dims] == [1, 1]

    def test_s3_base_kappa5_integral(self):
        dims = fpdims(s3_base_ring(5))
        assert [d.as_fraction() for d in dims.dims] == [1, 2, 1, 6]

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_eigen_identity(self, name):
        ring = CORPUS[name]
        dims = fpdims(ring)
        assert dims.all_exact
        d = dims.dims
        n = ring.rank
        for i in range(n):
            for j in range(n):
                lhs = QuadExt(0)
                for k in range(n):
                    lhs = lhs + ring.N[i][j][k] * d[k]
                assert lhs == d[i] * d[j]

    @pytest.mark.parametrize("name", sorted(FPDIM_RINGS))
    def test_matches_elementwise_perron_roots(self, name):
        ring = FPDIM_RINGS[name]()
        ref = [_elementwise_dim(*_left_spectrum(ring, i)) for i in range(ring.rank)]
        got = fpdims(ring)
        assert list(zip(got.dims, got.exact, got.bounds)) == ref

    def test_dims_have_nonnegative_field_coordinates(self):
        # an FP dimension is at least the absolute value of its Galois
        # conjugate, so its rational part and its sqrt(D) coefficient are
        # both nonnegative; the induced-unit walk cuts on their sum
        rings = [
            *(build() for build in FPDIM_RINGS.values()),
            *(base(k) for base in (z3_base_ring, s3_base_ring) for k in range(61)),
            *(mr_extend(cyclic_ring(a), k) for a in range(1, 9) for k in range(2 * a + 1)),
            deligne_product(ising_ring(), mr_extend(cyclic_ring(3), 0)),
        ]
        radicands = set()
        for ring in rings:
            fp = fpdims(ring)
            _, coords = scalars._integer_field(
                [d for d, exact in zip(fp.dims, fp.exact) if exact]
            )
            assert all(x >= 0 for col in coords.values() for x in col)
            radicands |= coords.keys()
        assert {2, 3, 5, 6} <= radicands

    def test_invertibles_need_no_charpoly(self, monkeypatch):
        # the extra object of C(Z5, 3) takes the closed form; on the
        # two-field product, with no maximal-rank subring, each element
        # that is not invertible takes one characteristic polynomial
        seen = []
        real = ring_module._left_spectrum
        monkeypatch.setattr(
            ring_module, "_left_spectrum", lambda r, i: seen.append(i) or real(r, i)
        )
        fpdims(mr_extend(cyclic_ring(5), 3))
        assert seen == []
        fpdims(deligne_product(ising_ring(), mr_extend(cyclic_ring(3), 0)))
        assert seen == [3, 7, 8, 9, 10, 11]

    def test_invertibles_need_no_detect_mr(self, monkeypatch):
        # a ring of invertibles has all its dims with no subring search
        monkeypatch.setattr(
            ring_module, "detect_mr", lambda ring: pytest.fail("detect_mr")
        )
        assert fpdims(cyclic_ring(20)).dims == (1,) * 20

    def test_mr_closed_form_is_certified(self, monkeypatch):
        # closed-form dims are cached only once _is_positive_character
        # certifies them; a vector that fails falls back on the spectra
        ring = s3_base_ring(4)
        want = fpdims(s3_base_ring(4))
        mr = detect_mr(ring)
        monkeypatch.setattr(
            ring_module, "mr_extra_dim", lambda a, kappa: QuadExt(kappa + 1)
        )
        assert not _is_positive_character(ring, ring_module.mr_dims(mr))
        assert fpdims(ring) == want

    def test_cubic_ring_takes_the_fallback(self, monkeypatch):
        calls = []
        real = ring_module._elementwise_dim
        monkeypatch.setattr(
            ring_module, "_elementwise_dim", lambda *s: calls.append(s) or real(*s)
        )
        dims = fpdims(cubic_ring())
        assert len(calls) == 2
        assert dims.exact == (True, False, False)
        # d_X is the largest root of x^3 - x^2 - 2x + 1, d_Y = d_X^2 - 1
        for (lo, hi), p in zip(
            dims.bounds[1:],
            (lambda x: x**3 - x**2 - 2 * x + 1, lambda y: y**3 - 2 * y**2 - y + 1),
        ):
            assert p(lo) < 0 <= p(hi) and hi - lo <= Fraction(1, 10**10)

    @pytest.mark.parametrize(
        "build, approximate, chains", [(cubic_ring, 2, 2), (lambda: su2_ring(5), 4, 8)]
    )
    def test_one_sturm_chain_per_approximate_root(
        self, monkeypatch, build, approximate, chains
    ):
        # each approximate Perron root takes one chain for both its count
        # of real roots and its enclosure; SU(2)_5's degree-6 polynomials
        # take one more each, in the search for quadratic factors
        ring = build()
        calls = []
        real = scalars._sturm_chain
        monkeypatch.setattr(scalars, "_sturm_chain", lambda p: calls.append(p) or real(p))
        assert fpdims(ring).exact.count(False) == approximate
        assert len(calls) == chains

    def test_elementwise_dim_counts_the_residual_roots(self):
        # (x - 3)(x^2 + 1)(x^2 + x + 1): the residual has no real root, so
        # the extracted 3 is exact; in (x - 3)(x^3 - 2) the residual's one
        # real root makes the largest root an enclosure, as before
        for residual, exact in ((IntPoly([1, 0, 1]) * IntPoly([1, 1, 1]), True),
                                (IntPoly([-2, 0, 0, 1]), False)):
            poly = IntPoly([-3, 1]) * residual
            fact = factor_linear_quadratic(poly)
            assert fact.residual == residual
            dim, got, bounds = _elementwise_dim(poly, fact)
            assert got == exact
            assert dim == 3 if exact else bounds[0] < 3 <= bounds[1]

    def test_product_with_repeated_roots(self):
        # 1 x sigma has x^2 (x^2 - 2)^2, where a Sturm chain on the
        # polynomial itself miscounts, and tau x 1 has (x^2 - x - 1)^3
        ring = deligne_product(fibonacci_ring(), ising_ring())
        dims = fpdims(ring)
        assert dims.exact == (True,) * 5 + (False,)
        assert dims.dims[:5] == (1, 1, QuadExt.sqrt(2), PHI, PHI)
        # tau x sigma: phi sqrt(2), with (phi sqrt(2))^2 = 3 + sqrt(5)
        lo, hi = dims.bounds[5]
        assert 0 < lo and QuadExt(lo * lo) < 3 + QuadExt.sqrt(5) <= QuadExt(hi * hi)

    def test_noncommutative_irrational(self):
        ring = haagerup_izumi_ring()
        assert ring.is_valid and not ring.is_commutative
        rho = (3 + QuadExt.sqrt(13)) * Fraction(1, 2)
        dims = fpdims(ring)
        assert dims.all_exact and dims.dims == (1, 1, 1, rho, rho, rho)

    @pytest.mark.parametrize("yx,certified", [((0, 0, 1), True), ((0, 1, 1), False)])
    def test_character_check_takes_ordered_pairs(self, yx, certified):
        # X X = 1, X Y = Y, Y Y = 2 + Y: d = (1, 1, 2) meets every relation
        # with i <= j; only Y X decides.  Y X = Y makes the structure
        # commutative and d a character, Y X = X + Y does neither
        N = [[[int(i == k) for k in range(3)] for i in range(3)]]
        N.append([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        N.append([[0, 0, 1], list(yx), [2, 0, 1]])
        ring = FusionRing(["1", "X", "Y"], N)
        assert ring.is_commutative is certified
        dims = [QuadExt(1), QuadExt(1), QuadExt(2)]
        assert _is_positive_character(ring, dims) is certified

    def test_character_check_requires_positivity(self):
        # the Galois conjugate of FPdim is a character, but not positive
        ring = fibonacci_ring()
        assert _is_positive_character(ring, [QuadExt(1), PHI])
        assert not _is_positive_character(ring, [QuadExt(1), PHI.conjugate()])

    def test_computed_once(self):
        ring = z3_base_ring(2)
        assert fpdims(ring) is fpdims(ring)

    @pytest.mark.parametrize("build", [fibonacci_ring, lambda: z3_base_ring(1), rep_s3_ring])
    def test_pickle_and_deepcopy_keep_cached_dims(self, build):
        # the cache is no part of the ring's value: a warm ring equals, hashes
        # and prints as a cold one, and its copies keep the cached facts
        ring, cold = build(), build()
        dims = fpdims(ring)
        assert cold._facts == {} and set(ring._facts) == {
            "sparse", "validate", "detect_mr", "is_commutative", "fpdims"
        }
        assert ring == cold and hash(ring) == hash(cold) and repr(ring) == repr(cold)
        for copied in (pickle.loads(pickle.dumps(ring)), copy.deepcopy(ring)):
            assert copied == ring and hash(copied) == hash(ring)
            assert copied.dual == ring.dual and copied.is_valid
            cached = copied._facts["fpdims"]
            assert cached == dims and fpdims(copied) is cached
            assert [hash(d) for d in cached.dims] == [hash(d) for d in dims.dims]

    def test_global_fpdim(self):
        assert fpdims(fibonacci_ring()).total() == (5 + QuadExt.sqrt(5)) * Fraction(1, 2)
        assert fpdims(cyclic_ring(2)).total().as_fraction() == 2
        expected = 3 + (7 + QuadExt.sqrt(13)) * Fraction(1, 2)
        assert fpdims(z3_base_ring(1)).total() == expected


class TestSubrings:
    def test_fibonacci(self):
        assert subrings(fibonacci_ring()) == [frozenset({0}), frozenset({0, 1})]

    def test_rep_s3(self):
        assert subrings(rep_s3_ring()) == [
            frozenset({0}),
            frozenset({0, 2}),
            frozenset({0, 1, 2}),
        ]

    def test_s3_base_adds_only_full_basis(self):
        got = subrings(s3_base_ring(2))
        assert got == [
            frozenset({0}),
            frozenset({0, 2}),
            frozenset({0, 1, 2}),
            frozenset({0, 1, 2, 3}),
        ]

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_matches_bruteforce(self, name):
        ring = CORPUS[name]
        if ring.rank > 5:
            pytest.skip("oracle reserved for rank <= 5")
        assert subrings(ring) == subrings_bruteforce(ring)

    @pytest.mark.parametrize("name", sorted(CORPUS) + ["haagerup-izumi"])
    def test_closure_is_smallest_closed_superset(self, name):
        # the closed subsets are sorted by size, so the first one holding
        # the seed is the smallest; closed subsets meet in closed subsets,
        # so it is unique
        ring = CORPUS.get(name) or haagerup_izumi_ring()
        closed = subrings_bruteforce(ring)
        seeds = itertools.chain(
            itertools.combinations(range(ring.rank), 1),
            itertools.combinations(range(ring.rank), 2),
        )
        for seed in seeds:
            want = next(s for s in closed if set(seed) <= s)
            assert ring.closure(seed) == want, seed

    @pytest.mark.parametrize("name", sorted(CORPUS) + ["haagerup-izumi"])
    def test_extending_a_subring_matches_closure(self, name):
        # subrings() extends a closed subring by one element and its dual,
        # skipping the pairs inside it; that is the closure from scratch
        ring = CORPUS.get(name) or haagerup_izumi_ring()
        for sub in subrings_bruteforce(ring):
            for x in set(range(ring.rank)) - sub:
                got = ring._close(sub, {x, ring.dual[x]})
                assert got == ring.closure(sub | {x}), (sub, x)

    def test_no_rank_limit(self):
        # rank 13: subgroups of Z12 (one per divisor) plus the whole ring
        got = subrings(mr_extend(cyclic_ring(12), 2))
        assert [len(s) for s in got] == [1, 2, 3, 4, 6, 12, 13]


class TestDetectMR:
    def test_fibonacci(self):
        mr = detect_mr(fibonacci_ring())
        assert mr is not None
        assert (mr.base, mr.kappa, mr.a, mr.dims) == ((0,), 1, 1, (1,))

    def test_ising(self):
        mr = detect_mr(ising_ring())
        assert mr is not None
        assert (mr.kappa, mr.a) == (0, 2)

    def test_rank2_pointed(self):
        mr = detect_mr(cyclic_ring(2))
        assert mr is not None
        assert (mr.base, mr.kappa) == ((0,), 0)

    def test_pointed_z4_has_no_mr(self):
        assert detect_mr(cyclic_ring(4)) is None

    @pytest.mark.parametrize(
        "ring",
        [builder() for _, builder in sorted(RING_BUILDERS.items())]
        + [mr_extend(cyclic_ring(a), k) for a, k in SMALL_NEAR_GROUPS],
        ids=sorted(RING_BUILDERS) + [f"C(Z{a},{k})" for a, k in SMALL_NEAR_GROUPS],
    )
    def test_matches_first_corank_one_subset_of_oracle(self, ring):
        n = ring.rank
        first = next((s for s in subrings_bruteforce(ring) if len(s) == n - 1), None)
        mr = detect_mr(ring)
        if first is None:
            assert mr is None
        else:
            (extra,) = set(range(n)) - first
            assert (mr.base, mr.extra) == (tuple(sorted(first)), extra)

    def test_searched_once_per_ring(self, monkeypatch):
        # fpdims reads the cached result on Ising; pickle and deepcopy keep
        # it, None included
        searches = []
        search = ring_module._search_mr
        monkeypatch.setattr(
            ring_module, "_search_mr", lambda ring: searches.append(ring) or search(ring)
        )
        for ring in (ising_ring(), cyclic_ring(4)):
            mr = detect_mr(ring)
            fpdims(ring)
            assert detect_mr(ring) is mr
            for copied in (pickle.loads(pickle.dumps(ring)), copy.deepcopy(ring)):
                assert copied == ring and detect_mr(copied) == mr
        assert searches == [ising_ring(), cyclic_ring(4)]

    def test_invalid_ring_raises_on_every_call(self):
        # a call that raises caches nothing: only the sparse index and the
        # axiom check, which returns its violations, are cached, and the
        # cache leaves the ring's value alone
        bad = FusionRing(["1", "X"], [[[1, 0], [0, 1]], [[0, 1], [2, 1]]])
        for _ in range(2):
            for fact in (detect_mr, fpdims):
                with pytest.raises(InvalidRingError, match="duality-normalization"):
                    fact(bad)
        assert set(bad._facts) == {"sparse", "validate"}
        cold = FusionRing(bad.labels, bad.N)
        assert bad == cold and hash(bad) == hash(cold) and repr(bad) == repr(cold)

    @pytest.mark.parametrize("a,kappa", [(12, 0), (12, 5), (20, 3)])
    def test_large_near_group_forced_data(self, a, kappa):
        # ranks 13 and 21
        mr = detect_mr(mr_extend(cyclic_ring(a), kappa))
        assert mr == MRData(tuple(range(a)), a, kappa, (1,) * a, a)


class TestGrading:
    def test_ising(self):
        g = adjoint_and_grading(ising_ring())
        assert g.group_order == 2
        assert g.adjoint == frozenset({0, 1})
        assert g.rank_one_components == (1,)

    def test_fibonacci_trivial(self):
        g = adjoint_and_grading(fibonacci_ring())
        assert g.group_order == 1
        assert g.adjoint == frozenset({0, 1})

    def test_one_component_needs_no_table(self):
        # C(Z_5, 3) has kappa > 0, so its adjoint subring is the whole ring
        ring = mr_extend(cyclic_ring(5), 3)
        g = adjoint_and_grading(ring)
        assert g.components == (frozenset(range(6)),) and g.table == ((0,),)
        assert g.rank_one_components == ()
        assert (g.adjoint, g.components, g.table) == dense_grading(ring)

    def test_grading_needs_no_fpdims(self, monkeypatch):
        # neither a one-component grading nor the Z2 grading of a kappa = 0
        # ring reads FP dimensions, so an fpdims that raises stops neither
        def refuse(ring):
            raise InvalidRingError("refused")

        monkeypatch.setattr(ring_module, "fpdims", refuse)
        for ring, order in ((mr_extend(cyclic_ring(5), 3), 1), (z3_base_ring(0), 2)):
            g = adjoint_and_grading(FusionRing(ring.labels, ring.N))
            assert g.group_order == order
            assert (g.adjoint, g.components, g.table) == dense_grading(ring)

    def test_mr_kappa0_z2_grading(self):
        ring = z3_base_ring(0)
        g = adjoint_and_grading(ring)
        assert g.group_order == 2
        assert g.adjoint == frozenset({0, 1, 2})

    def test_component_count_times_adjoint_dim(self):
        ring = ising_ring()
        g = adjoint_and_grading(ring)
        dims = fpdims(ring)
        adj = QuadExt(0)
        for i in g.adjoint:
            adj = adj + dims.dims[i] * dims.dims[i]
        assert g.group_order * adj == dims.total()


class TestInvertibles:
    def test_z3_base(self):
        ring = z3_base_ring(4)
        group = invertibles(ring)
        assert group.elements == (0, 1, 2)
        # cyclic of order 3: g1 * g1 = g2
        assert group.table[1][1] == 2

    def test_fibonacci_trivial_group(self):
        assert invertibles(fibonacci_ring()).elements == (0,)

    def test_rep_s3_z2(self):
        group = invertibles(rep_s3_ring())
        assert group.elements == (0, 2)
        assert group.table[1][1] == 0


def index_rings():
    """The rings the sparse index is checked on: `commutative_rings()` (the
    corpus among them), `rank4_and_near_group_rings(16)` and the
    noncommutative rings."""
    for name, build in commutative_rings():
        yield name, build()
    yield from rank4_and_near_group_rings(16)
    for name, build in noncommutative_rings():
        yield name, build()


def perturbed_rings():
    """Invalid rings that keep Frobenius reciprocity: one orbit of entries
    raised by one, which mostly breaks associativity, or lowered to -1.  A
    raised orbit that leaves the ring valid (C(D, kappa + 1)) is skipped
    by `dense_validate`."""
    for name in ("fibonacci", "ising", "rep-s3", "z3-base-k3", "s3-base-k5"):
        ring = CORPUS[name]
        n = ring.rank
        for i, j, k in ((n - 1, n - 1, n - 1), (1, n - 1, n - 1)):
            for target in (None, -1):
                N = [[list(row) for row in plane] for plane in ring.N]
                for a, b, c in frobenius_orbit(ring, i, j, k):
                    N[a][b][c] = N[a][b][c] + 1 if target is None else target
                mutant = FusionRing(ring.labels, N)
                if dense_validate(mutant):
                    yield f"{name} {(i, j, k)} -> {target or '+1'}", mutant


class TestSparseIndex:
    """`FusionRing.sparse` against the dense row scans it replaced, kept in
    `ring_oracles`: every analysis that reads the index gives what those
    scans give, on valid, noncommutative and invalid rings."""

    @staticmethod
    def analyses(ring):
        """validate, support, the closure of each element, subrings,
        detect_mr, fpdims and the positive-character check on a fresh copy
        of `ring`; a fact that raises InvalidRingError gives its message."""
        ring = FusionRing(ring.labels, ring.N)
        n = ring.rank
        out = {
            "validate": ring.validate(),
            "support": [[ring.support(i, j) for j in range(n)] for i in range(n)],
            "closure": [ring.closure((i,)) for i in range(n)],
        }
        for fact in (subrings, detect_mr, fpdims):
            try:
                out[fact.__name__] = fact(ring)
            except InvalidRingError as exc:
                out[fact.__name__] = str(exc)
        if isinstance(out["fpdims"], ring_module.FPDims):
            out["character"] = ring_module._is_positive_character(ring, out["fpdims"].dims)
        return out

    @classmethod
    def dense_analyses(cls, ring, monkeypatch):
        """`analyses` with the dense scans of `ring_oracles` in place of
        the index and of every routine that reads it."""
        with monkeypatch.context() as m:
            m.setattr(FusionRing, "sparse", property(dense_supp))
            m.setattr(FusionRing, "support", dense_support)
            m.setattr(FusionRing, "_close", dense_close)
            m.setattr(ring_module, "_is_positive_character", dense_is_positive_character)
            return cls.analyses(ring)

    @staticmethod
    def structure(ring):
        """Grading and invertibles as plain data, or the error's message."""
        try:
            g = adjoint_and_grading(ring)
            group = invertibles(ring)
        except InvalidRingError as exc:
            return str(exc)
        return (g.adjoint, g.components, g.table), (group.elements, group.table)

    @staticmethod
    def dense_structure(ring):
        try:
            return dense_grading(ring), dense_invertibles(ring)
        except InvalidRingError as exc:
            return str(exc)

    def test_index_is_the_nonzero_entries(self):
        for name, ring in [*index_rings(), *perturbed_rings()]:
            assert [[list(row) for row in plane] for plane in ring.sparse] == dense_supp(ring), name
            assert ring.sparse is ring._facts["sparse"]

    def test_valid_rings_match_dense_scans(self, monkeypatch):
        count = 0
        for name, ring in index_rings():
            assert self.analyses(ring) == self.dense_analyses(ring, monkeypatch), name
            assert self.structure(ring) == self.dense_structure(ring), name
            count += 1
        assert count == 602

    def test_perturbed_rings_match_dense_scans(self, monkeypatch):
        axioms, count = set(), 0
        for name, ring in perturbed_rings():
            report = ring.validate()
            axioms |= {v.axiom for v in report}
            assert report == dense_validate(ring), name
            assert self.analyses(ring) == self.dense_analyses(ring, monkeypatch), name
            assert self.structure(ring) == self.dense_structure(ring), name
            count += 1
        assert count == 14 and {"nonnegativity", "associativity"} <= axioms

    def test_generating_set_rows_are_the_fixpoint_rows(self):
        # one-term products join W's known part as soon as they are built,
        # the rest when the worklist runs dry: the same least fixpoint
        # before each row, so the same rows are checked
        count = 0
        for name, ring in [*index_rings(), *perturbed_rings()]:
            fresh = FusionRing(ring.labels, ring.N)
            assert TestValidate.checked_rows(fresh)[0] == generator_rows(ring), name
            count += 1
        assert count == 602 + 14

    def test_equal_rows_share_one_entry(self):
        for name, ring in [*index_rings(), *perturbed_rings()]:
            entries = {}
            for plane, index in zip(ring.N, ring.sparse):
                for row, entry in zip(plane, index):
                    assert entries.setdefault(row, entry) is entry, name

    def test_close_stops_at_the_full_basis(self, monkeypatch):
        # a seed that holds the basis is the closure, read off no index entry
        reads = []

        class Counted(tuple):
            def __getitem__(self, i):
                reads.append(i)
                return tuple.__getitem__(self, i)

        rings = list(index_rings())
        monkeypatch.setattr(FusionRing, "sparse", property(lambda r: Counted(ring_module._sparse_index(r))))
        for name, ring in rings:
            basis = frozenset(range(ring.rank))
            assert ring._close(frozenset(), set(basis)) == basis, name
            assert ring._close(frozenset({0}), set(basis) - {0}) == basis, name
        assert reads == []

    def test_negative_entries_are_indexed_not_supported(self):
        ring = FusionRing(["1", "X"], [[[1, 0], [0, 1]], [[0, 1], [1, -1]]])
        assert ring.sparse[1][1] == ((0, 1), (1, -1))
        assert ring.support(1, 1) == [0] == dense_support(ring, 1, 1)

    def test_pickle_and_deepcopy_keep_the_index(self):
        ring = z3_base_ring(2)
        index = ring.sparse
        for copied in (pickle.loads(pickle.dumps(ring)), copy.deepcopy(ring)):
            assert copied._facts["sparse"] == index
            assert copied.sparse is copied._facts["sparse"]
            assert copied == ring and hash(copied) == hash(ring)
