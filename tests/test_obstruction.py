import functools
import inspect
import itertools
import operator
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from gram_oracle import OracleBudgetExceeded, eager_free_rows, gram_bruteforce
from i1_oracle import images_bruteforce, tilings_bruteforce
from ring_oracles import (
    cubic_ring,
    deligne_product,
    haagerup_izumi_ring,
    induction_images,
    su2_ring,
)

from mrfw.chartab import fusion_from_table
from mrfw.corpus import (
    RING_BUILDERS,
    TABLE_BUILDERS,
    cyclic_ring,
    fibonacci_ring,
    group_ring,
    ising_ring,
    klein_four_ring,
    rep_s3_ring,
    s3_base_ring,
    trivial_ring,
    z3_base_ring,
)
from mrfw import obstruction
from mrfw import ring as ring_module
from mrfw.mr import mr_extend
from mrfw.obstruction import (
    FEASIBLE,
    INCONCLUSIVE,
    INFEASIBLE,
    GramResult,
    GramWitness,
    Tilings,
    classify_rank4_mr,
    codegree_matrix,
    codegrees,
    gram_search,
    i1_dimension_system,
    induction_data,
    obstruct,
    verify_witness,
)
from mrfw.ring import detect_mr, fpdims, left_charpoly, spectrum
from mrfw.scalars import ExactnessError, QuadExt, UnsupportedFieldError, charpoly


def s3_group_ring():
    # noncommutative pointed ring: permutations of three letters
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(3))] for q in perms]
        for p in perms
    ]
    return group_ring(table, [f"g{i}" for i in range(6)])


def near_group(n, kappa):
    return mr_extend(cyclic_ring(n), kappa)


def rep_ring(group):
    return fusion_from_table(TABLE_BUILDERS[group]())


# integral corpus bases: the group rings and representation rings
MR_CORPUS_BASES = {
    **{f"z{n}": functools.partial(cyclic_ring, n) for n in (1, 2, 3, 4)},
    "z2xz2": klein_four_ring,
    **{
        f"rep-{g}": functools.partial(rep_ring, g)
        for g in ("s3", "d8", "q8", "a4", "s4")
    },
}


def gram_of(rows, n):
    return [[sum(w[i] * w[j] for w in rows) for j in range(n)] for i in range(n)]


class TestCodegrees:
    def test_pointed_z2(self):
        assert codegrees(cyclic_ring(2)) == (QuadExt(2), QuadExt(2))

    def test_rep_s3(self):
        assert codegrees(rep_s3_ring()) == (QuadExt(6), QuadExt(3), QuadExt(2))

    def test_z3_base_kappa2(self):
        assert codegrees(z3_base_ring(2)) == (
            QuadExt(12),
            QuadExt(4),
            QuadExt(3),
            QuadExt(3),
        )

    def test_z3_base_quadratic_pair(self):
        for kappa in (1, 3, 6):
            cod = codegrees(z3_base_ring(kappa))
            root = QuadExt.sqrt(12 + kappa * kappa)
            big = (QuadExt(12 + kappa * kappa) + kappa * root) * Fraction(1, 2)
            small = (QuadExt(12 + kappa * kappa) - kappa * root) * Fraction(1, 2)
            assert cod[0] == big
            assert small in cod
            assert cod.count(QuadExt(3)) == 2

    def test_s3_base_kappa5(self):
        assert codegrees(s3_base_ring(5)) == (
            QuadExt(42),
            QuadExt(7),
            QuadExt(3),
            QuadExt(2),
        )

    @pytest.mark.parametrize(
        "ring",
        [
            fibonacci_ring(),
            ising_ring(),
            z3_base_ring(4),
            s3_base_ring(3),
            s3_group_ring(),
            haagerup_izumi_ring(),
        ],
    )
    def test_largest_codegree_is_global_dim(self, ring):
        assert codegrees(ring)[0] == fpdims(ring).total()

    def test_two_quadratic_pairs(self):
        # (x^2 - 20x + 80)^2 (x^2 - 10x + 20): codegrees of Fibonacci
        # times those of Ising
        got = codegrees(deligne_product(fibonacci_ring(), ising_ring()))
        r5 = QuadExt.sqrt(5)
        big, small = 10 + 2 * r5, 10 - 2 * r5
        assert got == (big, big, 5 + r5, small, small, 5 - r5)

    @pytest.mark.parametrize(
        "name", sorted(MR_CORPUS_BASES), ids=sorted(MR_CORPUS_BASES)
    )
    def test_mr_closed_form(self, name):
        # the codegrees of C(D, kappa) are those of D with one copy of
        # a = FPdim(D) replaced by a + l^2 for both roots l of
        # x^2 - kappa x - a; the other characters vanish on the extra object
        base = MR_CORPUS_BASES[name]()
        a = fpdims(base).total()
        rest = list(codegrees(base))
        rest.remove(a)
        for kappa in range(13):
            disc = QuadExt.sqrt(kappa * kappa + 4 * a.as_fraction())
            extra = [a + ((kappa + s * disc) * Fraction(1, 2)) ** 2 for s in (1, -1)]
            want = sorted(rest + extra, reverse=True)
            assert codegrees(mr_extend(base, kappa)) == tuple(want)

    def test_transpose_form_vs_squares_on_selfdual_basis(self):
        # with every basis element self-dual the two candidate codegree
        # matrices coincide
        ring = s3_base_ring(5)
        n = ring.rank
        naive = [[int(i == j) for j in range(n)] for i in range(n)]
        for T in range(1, n):
            MT = ring.left_matrix(T)
            for i in range(n):
                for j in range(n):
                    naive[i][j] += sum(
                        MT[i][k] * MT[k][j] for k in range(n)
                    )
        assert naive == codegree_matrix(ring)

    def test_squares_form_degenerates_without_transpose(self):
        # when the base has non-self-dual elements, summing plain squares
        # produces a singular matrix whose spectrum cannot be a codegree
        # multiset; the transpose form keeps the expected values
        ring = z3_base_ring(2)
        n = ring.rank
        naive = [[int(i == j) for j in range(n)] for i in range(n)]
        for T in range(1, n):
            MT = ring.left_matrix(T)
            for i in range(n):
                for j in range(n):
                    naive[i][j] += sum(
                        MT[i][k] * MT[k][j] for k in range(n)
                    )
        p = charpoly(naive)
        assert p(0) == 0  # zero eigenvalue
        assert all(f > 0 for f in codegrees(ring))


def commutative_rings():
    """The corpus, the rank-4 rings for kappa <= 12, C(Z_n, kappa) for
    n <= 11 and kappa <= 2n, the representation rings, Fibonacci x Ising
    and the cubic ring."""
    yield from RING_BUILDERS.items()
    for kappa in range(13):
        yield f"z3-base k={kappa}", lambda k=kappa: z3_base_ring(k)
        yield f"rep-s3 base k={kappa}", lambda k=kappa: s3_base_ring(k)
    for n in range(1, 12):
        for kappa in range(2 * n + 1):
            yield f"C(Z{n},{kappa})", lambda n=n, k=kappa: near_group(n, k)
    for g in TABLE_BUILDERS:
        yield f"rep({g})", lambda g=g: rep_ring(g)
    yield "fibonacci x ising", lambda: deligne_product(
        fibonacci_ring(), ising_ring()
    )
    yield "cubic", cubic_ring


def noncommutative_rings():
    yield "S3", s3_group_ring
    yield "haagerup-izumi", haagerup_izumi_ring


class TestRegularRepresentation:
    """Ring spectra in the regular representation: `left_charpoly` against
    the generic Faddeev-LeVerrier `charpoly`, and the codegree matrix, one
    element matrix, against its definition."""

    def test_left_charpoly_matches_charpoly(self):
        count = 0
        for name, build in [*commutative_rings(), *noncommutative_rings()]:
            ring = build()
            n = ring.rank
            for i in range(n):
                y = [int(k == i) for k in range(n)]
                M = ring.element_matrix(y)
                assert M == [list(row) for row in ring.N[i]] == ring.left_matrix(i)
                assert left_charpoly(ring, y) == charpoly(M), (name, i)
            H = codegree_matrix(ring)
            assert H == ring.element_matrix(obstruction._codegree_element(ring)), name
            assert spectrum(ring, H).poly == charpoly(H), name
            count += 1
        assert count == 192

    @pytest.mark.parametrize("name, build", list(noncommutative_rings()))
    def test_codegree_matrix_definition(self, name, build):
        # sum over T of M_T M_T^T, from the structure constants alone; the
        # element-matrix construction needs M_T^T = M_T*, which holds on
        # noncommutative rings too
        ring = build()
        assert not ring.is_commutative
        n, N = ring.rank, ring.N
        naive = [
            [sum(N[T][i][k] * N[T][j][k] for T in range(n) for k in range(n))
             for j in range(n)]
            for i in range(n)
        ]
        assert codegree_matrix(ring) == naive


def spectrum_route_dims(ring):
    """`_perron_dims` with no maximal-rank subring found: its spectrum
    route, one characteristic polynomial per non-invertible element."""
    with mock.patch.object(ring_module, "detect_mr", return_value=None):
        return ring_module._perron_dims(ring)


class TestCodegreeFPDims:
    """`induction_data` reads the FP dimensions from `fpdims`, whose one
    route `_perron_dims` takes the closed form on a ring with a
    maximal-rank subring and Perron roots on every other ring."""

    @staticmethod
    def perron_calls(monkeypatch):
        """The ids of the rings `_perron_dims` runs on."""
        calls = []
        perron = ring_module._perron_dims
        monkeypatch.setattr(
            ring_module, "_perron_dims", lambda ring: calls.append(id(ring)) or perron(ring)
        )
        return calls

    @staticmethod
    def count_spectra(monkeypatch):
        """Counts of `spectrum` calls, characteristic polynomials and
        factorizations from here on; `_left_spectrum` fails the test."""
        counts = {"spectrum": 0, "charpoly": 0, "factor": 0}

        def counting(key, f):
            def wrapped(*args):
                counts[key] += 1
                return f(*args)
            return wrapped

        spectrum_calls = counting("spectrum", ring_module.spectrum)
        for module in (obstruction, ring_module):
            monkeypatch.setattr(module, "spectrum", spectrum_calls)
        for name, key in [("_power_traces", "charpoly"), ("factor_linear_quadratic", "factor")]:
            monkeypatch.setattr(ring_module, name, counting(key, getattr(ring_module, name)))
        monkeypatch.setattr(
            ring_module, "_left_spectrum", lambda *args: pytest.fail("left spectrum")
        )
        return counts

    def test_seeded_dims_equal_perron_dims(self, monkeypatch):
        rings = [(name, build()) for name, build in commutative_rings()]
        rings += list(rank4_and_near_group_rings(10))
        calls = self.perron_calls(monkeypatch)
        routes = {"closed form": 0, "perron": 0}
        for name, ring in rings:
            mr = detect_mr(ring)
            try:
                induction_data(ring)
            except ExactnessError:
                # approximate FP dims or an unresolved codegree factor
                assert name in ("fibonacci x ising", "cubic"), name
                continue
            # every ring reaches _perron_dims once, through fpdims
            assert calls.count(id(ring)) == 1, name
            assert fpdims(ring) == spectrum_route_dims(ring), name
            routes["closed form" if mr else "perron"] += 1
        assert len(rings) == 432
        assert routes == {"closed form": 422, "perron": 8}

    @pytest.mark.parametrize(
        "build, mr",
        [(ising_ring, True), (functools.partial(cyclic_ring, 3), False),
         (lambda: z3_base_ring(0), True), (lambda: near_group(5, 0), True),
         (lambda: rep_ring("d8"), True), (lambda: two_field_ring(), False)],
        ids=["ising", "z3", "z3-base-k0", "C(Z5,0)", "rep(d8)", "ising x C(Z3,0)"],
    )
    def test_repeated_top_codegree_takes_the_fallback(self, build, mr, monkeypatch):
        # a nontrivial universal grading repeats the top codegree.  Each
        # ring runs _perron_dims once; with a maximal-rank subring it
        # takes the closed form: no _left_spectrum and, once its base's
        # codegrees are memoized, no characteristic polynomial.  Any other
        # ring takes _perron_dims' spectrum route.
        ring = build()
        assert (detect_mr(ring) is not None) is mr
        want = spectrum_route_dims(ring)
        induction_data(build())  # memoizes the base's codegrees
        calls = self.perron_calls(monkeypatch)
        if mr:
            counts = self.count_spectra(monkeypatch)
        cod = induction_data(ring).codegrees
        assert cod[0] == cod[1]
        assert calls == [id(ring)]
        if mr:
            assert counts == {"spectrum": 0, "charpoly": 0, "factor": 0}
        assert fpdims(ring) == want

    def test_cached_dims_are_kept(self, monkeypatch):
        ring = near_group(5, 3)
        before = fpdims(ring)
        for name in ("_perron_dims", "mr_dims"):
            monkeypatch.setattr(
                ring_module, name, lambda *args: pytest.fail("recomputed")
            )
        induction_data(ring)
        assert fpdims(ring) is before

    @pytest.mark.parametrize("kappa, status", [(3, INFEASIBLE), (5, FEASIBLE)])
    def test_obstruct_factors_one_charpoly(self, kappa, status, monkeypatch):
        # C(Z5, kappa) has a maximal-rank subring: obstruct takes the
        # spectrum of the base's codegree element, one characteristic
        # polynomial and one factorization, and none once the base's
        # codegrees are memoized; it never reaches _left_spectrum, also
        # when the Gram search reads the dims
        obstruction._base_codegrees.cache_clear()
        counts = self.count_spectra(monkeypatch)
        assert obstruct(near_group(5, kappa)).status == status
        assert counts == {"spectrum": 1, "charpoly": 1, "factor": 1}
        assert obstruct(near_group(5, kappa)).status == status
        assert counts == {"spectrum": 1, "charpoly": 1, "factor": 1}

    @pytest.mark.parametrize(
        "build", [functools.partial(cyclic_ring, 3), lambda: rep_ring("s4"), lambda: two_field_ring()],
        ids=["z3", "rep(s4)", "ising x C(Z3,0)"],
    )
    def test_codegree_matrix_built_once(self, build, monkeypatch):
        # with no maximal-rank subring, the codegree spectrum and
        # induction_data's H read one matrix, cached on the ring; each
        # codegree_matrix call returns its own copy of it
        built = []
        element = obstruction._codegree_element
        monkeypatch.setattr(
            obstruction, "_codegree_element", lambda r: built.append(r) or element(r)
        )
        ring = build()
        assert detect_mr(ring) is None
        H = induction_data(ring).H
        assert len(built) == 1
        M = codegree_matrix(ring)
        assert M == [list(row) for row in H]
        M[0][0] += 1
        assert codegree_matrix(ring) == [list(row) for row in H] and len(built) == 1

    @pytest.mark.parametrize(
        "build",
        [lambda: near_group(5, 3), ising_ring, functools.partial(cyclic_ring, 3),
         lambda: two_field_ring(), cubic_ring],
        ids=["C(Z5,3)", "ising", "z3", "ising x C(Z3,0)", "cubic"],
    )
    def test_obstruct_detects_mr_once(self, build, monkeypatch):
        # one subring search per ring: codegrees, fpdims' _perron_dims and
        # i1 all read the ring's cached detect_mr result, also on the
        # two-field product (no maximal-rank subring, an element that is
        # not invertible, a repeated top codegree).  The cubic ring's
        # codegree polynomial does not split, so it stops after the search
        ring = build()
        searches = []
        search = ring_module._search_mr
        monkeypatch.setattr(
            ring_module, "_search_mr", lambda r: searches.append(r) or search(r)
        )
        obstruct(ring, 1000)
        assert searches == [ring]


class TestMRClosedForm:
    """The closed-form codegrees and FP dimensions of a ring with a
    maximal-rank subring against the generic routes: the roots of the
    whole ring's codegree polynomial, and `_perron_dims`' spectrum route."""

    @staticmethod
    def mr_rings():
        yield from ((name, build()) for name, build in commutative_rings())
        yield from rank4_and_near_group_rings(16)
        for name, build in MR_CORPUS_BASES.items():
            for kappa in range(25):
                yield f"C({name},{kappa})", mr_extend(build(), kappa)
        for m in range(13):
            yield f"X^2 = 1 + {m}X", mr_extend(trivial_ring(), m)

    @staticmethod
    def check(ring, mr):
        """Closed forms, cold and warm memo, against the generic routes."""
        obstruction._base_codegrees.cache_clear()
        cold = obstruction._mr_codegrees(ring, mr)
        warm = obstruction._mr_codegrees(ring, mr)
        assert obstruction._base_codegrees.cache_info()[:2] == (1, 1)
        # the memo's key is the base's constants, read at the base's indices
        base = mr.base
        obstruction._base_codegrees(
            tuple(tuple(tuple(ring.N[i][j][k] for k in base) for j in base) for i in base)
        )
        assert obstruction._base_codegrees.cache_info()[:2] == (2, 1)
        assert cold == warm == codegrees(ring) == obstruction._codegree_spectrum(ring)
        with mock.patch.object(
            ring_module, "_left_spectrum", side_effect=AssertionError("left spectrum")
        ):
            dims = ring_module._perron_dims(ring)
        assert dims == spectrum_route_dims(ring)
        assert dims.dims == tuple(ring_module.mr_dims(mr))

    def test_matches_generic_routes(self):
        count = 0
        for name, ring in self.mr_rings():
            mr = detect_mr(ring)
            if mr is not None:
                self.check(ring, mr)
                count += 1
        assert count == 853

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(MR_CORPUS_BASES)), kappa=st.integers(0, 40))
    def test_hypothesis_base_and_kappa(self, name, kappa):
        ring = mr_extend(MR_CORPUS_BASES[name](), kappa)
        self.check(ring, detect_mr(ring))

    def test_unsplit_base_takes_the_whole_ring(self, monkeypatch):
        # a base whose codegree polynomial does not split leaves the whole
        # ring's, which gives the same verdict, steps and certificate
        ring = near_group(4, 4)
        want = obstruct(near_group(4, 4))
        monkeypatch.setattr(obstruction, "_base_codegrees", lambda N: None)
        calls = []
        real = obstruction._codegree_spectrum
        monkeypatch.setattr(
            obstruction, "_codegree_spectrum", lambda r: calls.append(r) or real(r)
        )
        assert obstruct(ring) == want
        assert calls == [ring]


class TestInductionImages:
    """On a commutative ring the Hom matrix of the induced objects, read
    off their forgetful images sum over Y of Y (x) X (x) Y*, is the
    codegree matrix."""

    def test_codegree_matrix_is_hom_matrix(self):
        count = 0
        for name, build in commutative_rings():
            ring = build()
            assert ring.is_commutative, name
            assert codegree_matrix(ring) == induction_images(ring), name
            count += 1
        assert count == 190

    def test_noncommutative_induction_data_raises(self):
        with pytest.raises(ValueError, match="commutative"):
            induction_data(s3_group_ring())

    def test_trivial(self):
        assert codegree_matrix(trivial_ring()) == [[1]]

    def test_s3_base_unit_row(self):
        for kappa in (0, 2, 5, 9):
            FI = codegree_matrix(s3_base_ring(kappa))
            assert FI[0] == [4, 3, 2, kappa]

    def test_s3_base_kappa5_full(self):
        FI = codegree_matrix(s3_base_ring(5))
        assert FI == [
            [4, 3, 2, 5],
            [3, 9, 3, 10],
            [2, 3, 4, 5],
            [5, 10, 5, 37],
        ]

    def test_z3_base_unit_row(self):
        FI = codegree_matrix(z3_base_ring(3))
        assert FI[0] == [4, 1, 1, 3]

    @pytest.mark.parametrize(
        "ring",
        [
            fibonacci_ring(),
            ising_ring(),
            rep_s3_ring(),
            z3_base_ring(5),
            s3_base_ring(7),
            cyclic_ring(4),
        ],
    )
    def test_hom_matrix_symmetric(self, ring):
        H = codegree_matrix(ring)
        assert H == [list(col) for col in zip(*H)]

    def test_fi_column_eigen_identity(self):
        # summing the forgetful images against FP dimensions recovers
        # dim * global dim in every column
        ring = s3_base_ring(4)
        FI = codegree_matrix(ring)
        d = fpdims(ring).dims
        total = fpdims(ring).total()
        for U in range(ring.rank):
            acc = QuadExt(0)
            for W in range(ring.rank):
                acc = acc + FI[U][W] * d[W]
            assert acc == d[U] * total


class TestI1System:
    def test_s3_base_kappa1_infeasible(self):
        res = i1_dimension_system(s3_base_ring(1))
        assert res.status == INFEASIBLE
        assert any("not an algebraic integer" in s for s in res.lines)

    def test_s3_base_kappa5_unique_solution(self):
        res = i1_dimension_system(s3_base_ring(5))
        assert res.status == FEASIBLE
        assert tuple(res.solutions) == (
            (
                (1, 0, 0, 0),
                (1, 2, 1, 0),
                (1, 0, 1, 2),
                (1, 1, 0, 3),
            ),
        )

    def test_s3_base_kappa5_dimension_checks(self):
        # unique solution satisfies every defining equation independently
        ring = s3_base_ring(5)
        res = i1_dimension_system(ring)
        d = fpdims(ring).dims
        data = induction_data(ring)
        (sol,) = res.solutions
        for vec, target in zip(sol, data.i1_dims):
            acc = QuadExt(0)
            for c, dim in zip(vec, d):
                acc = acc + c * dim
            assert acc == target
        cols = [sum(v[j] for v in sol) for j in range(4)]
        assert cols == [4, 3, 2, 5]

    def test_z3_base_forced_relation(self):
        res = i1_dimension_system(z3_base_ring(7))
        assert res.status == INFEASIBLE
        assert any("kappa - 3*a3 = 0" in s for s in res.lines)

    def test_z3_base_divisible_by_three(self):
        res = i1_dimension_system(z3_base_ring(3))
        assert res.status == FEASIBLE
        for sol in res.solutions:
            cols = [sum(v[j] for v in sol) for j in range(4)]
            assert cols == [4, 1, 1, 3]

    def test_noncommutative_inconclusive(self):
        res = i1_dimension_system(s3_group_ring())
        assert res.status == INCONCLUSIVE

    def test_fibonacci(self):
        res = i1_dimension_system(fibonacci_ring())
        assert tuple(res.solutions) == (((1, 0), (1, 1)),)


def rank4_and_near_group_rings(max_order):
    """Both rank-4 bases for kappa 0..60 and C(Z_n, kappa) for
    n <= max_order and kappa <= 2n."""
    for kappa in range(61):
        yield f"z3-base k={kappa}", z3_base_ring(kappa)
        yield f"rep-s3 base k={kappa}", s3_base_ring(kappa)
    for n in range(1, max_order + 1):
        for kappa in range(2 * n + 1):
            yield f"C(Z{n},{kappa})", near_group(n, kappa)


class TestI1Oracles:
    """The pruned candidate walk and the tiling count against the unpruned
    oracles of `i1_oracle`."""

    def test_candidates_match_box_filter(self):
        # and C(Z_n, n - 1) up to n = 8, where the extra object's dimension
        # n is walked before the invertibles'; rings whose dimensions span
        # several quadratic fields; and Rep(S4) extended, whose extra
        # object has dimension 2 sqrt(6) at kappa 0 (a box of 648)
        extra = [
            *((f"C(Z{n},{n - 1})", near_group(n, n - 1)) for n in (7, 8)),
            ("ising x C(Z3,0)", two_field_ring()),
            ("ising x ising", deligne_product(ising_ring(), ising_ring())),
            *((f"rep(s4) k={k}", mr_extend(rep_ring("s4"), k)) for k in (0, 3)),
        ]
        for name, ring in [*rank4_and_near_group_rings(6), *extra]:
            res = i1_dimension_system(ring)
            dims, bounds = fpdims(ring).dims, induction_data(ring).H[0]
            for s in res.summands:
                if s.is_algebraic_integer:
                    want = images_bruteforce(dims, bounds, s.target_dim)
                    assert s.candidates == want, (name, str(s.codegree))

    @staticmethod
    def count_walk(monkeypatch, rings):
        """The `_walk_box` calls of `i1_dimension_system` over the rings."""
        visits = []
        walk = obstruction._walk_box
        monkeypatch.setattr(
            obstruction, "_walk_box", lambda *args: visits.append(1) or walk(*args)
        )
        for ring in rings:
            i1_dimension_system(ring, induction_data(ring))
        return len(visits)

    def test_walk_is_not_exponential_on_near_group_n_minus_1(self, monkeypatch):
        # in basis order the walk made 131,089 calls here, about 2^(n+1)
        # for the prefixes of the invertibles of C(Z16, 15)
        ring = near_group(16, 15)
        res = i1_dimension_system(ring)
        assert res.status == FEASIBLE
        assert sum(len(s.candidates) for s in res.summands) == 17
        assert self.count_walk(monkeypatch, [ring]) == 51

    @pytest.mark.parametrize(
        "rings, calls",
        [
            (lambda: [near_group(12, 11)], 39),
            (lambda: [two_field_ring()], 128),
            # both rank-4 bases for kappa 0..60 and no C(Z_n, kappa)
            (lambda: (ring for _, ring in rank4_and_near_group_rings(0)), 979),
        ],
        ids=["C(Z12,11)", "ising x C(Z3,0)", "rank-4 sweep"],
    )
    def test_walk_calls_pinned(self, monkeypatch, rings, calls):
        # a change of the cut or of the walk order shows as a change of count
        assert self.count_walk(monkeypatch, rings()) == calls

    def test_count_and_order_match_enumeration(self):
        checked = 0
        for name, ring in rank4_and_near_group_rings(10):
            res = i1_dimension_system(ring)
            if not all(s.candidates for s in res.summands):
                continue  # decided before the tilings
            want = tilings_bruteforce(res.summands, induction_data(ring).H[0])
            assert (res.status == FEASIBLE) == bool(want), name
            assert len(res.solutions) == len(want), name
            assert list(res.solutions) == want, name
            checked += 1
        assert checked == 74

    @pytest.mark.parametrize(
        "build", [lambda: near_group(6, 6), lambda: two_field_ring()],
        ids=["C(Z6,6)", "ising x C(Z3,0)"],
    )
    def test_column_interval_matches_definition(self, build):
        # an interval that is too loose changes no count, so each one the
        # count reaches is checked against its definition: per column, the
        # sum of the summands' least and greatest entries, where summand i
        # and the rest of its run of ties draw from candidate `least` on
        tilings = i1_dimension_system(build()).solutions
        assert len(tilings)
        rows, tied, zero = tilings.rows, tilings.tied, (0,) * len(tilings.bounds)
        reached = {(i, least) for i, _, least in tilings._memo}
        assert any(least for _, least in reached)
        for i, least in reached:
            end = next((j for j in range(i + 1, len(rows)) if not tied[j]), len(rows))
            # per summand from i on, the columns of the candidates it draws
            cols = [
                list(zip(*rows[j][least if j < end else 0:]))
                for j in range(i, len(rows))
            ]
            want = tuple(
                tuple(map(sum, zip(zero, *([pick(c) for c in s] for s in cols))))
                for pick in (min, max)
            )
            assert tilings._interval(i, least) == want, (i, least)

    def test_tilings_compare_by_value(self):
        # equality and hash read the rows, ties and bounds, not the count
        # memo or the interval cache that counting fills
        ring = near_group(6, 6)
        warm = i1_dimension_system(ring).solutions
        count = len(warm)
        cold = Tilings(warm.rows, warm.tied, warm.bounds)
        assert warm._memo and not cold._memo
        assert warm == cold == i1_dimension_system(ring).solutions
        assert hash(warm) == hash(cold) and len({warm, cold}) == 1
        assert len(cold) == count and list(cold) == list(warm)
        other = Tilings(warm.rows, warm.tied, tuple(b + 1 for b in warm.bounds))
        assert warm != other and warm != (warm.rows, warm.tied, warm.bounds)

    def test_ising_su2_4_pinned(self):
        # 9942 tilings, counted without listing them; obstruct reads only
        # the first, which extends after 49 Gram nodes
        verdict = obstruct(deligne_product(ising_ring(), su2_ring(4)))
        assert verdict.status == FEASIBLE
        assert verdict.steps == (
            "codegrees: 48, 48, 48, 48, 24, 24, 16, 16, 16, 16, 12, 12, 8, 8, 6",
            "induced-unit system: 9942 exact solution(s)",
            "gram factorization found after 49 nodes",
        )
        got = ["".join(map(str, w)) for w in verdict.witness.all_rows()]
        assert got == (
            "100000000000000 100000000000000 100000000000000 100000000000000 "
            "100000000100000 100001000000000 100000010000000 100000010000000 "
            "100000010000000 100002000000000 101001000000000 101001000000000 "
            "102010000000000 102010000000000 103010000000000 040300100000000 "
            "020000200000000 020000002000000 002010030100000 001001020100000 "
            "001000010000000 001000000000000 001000000000000 000300001000000 "
            "000200002000000 000100100000000 000100001000000 000030000100000 "
            "000011000100000 000010000000000 000002020000000 000001020100000 "
            "000001010000000 000000301000000 000000202000000 000000202000000 "
            "000000101000000 000000010200000 000000002000000 000000000200000 "
            "000000000100000 000000000040200 000000000020202 000000000005030 "
            "000000000002000 000000000001010 000000000001000 000000000001000 "
            "000000000000400 000000000000302 000000000000102 000000000000100 "
            "000000000000100 000000000000040 000000000000020 000000000000010 "
            "000000000000010 000000000000002 000000000000002"
        ).split()

    @pytest.mark.parametrize("n, kappa", [(12, 4), (16, 6)])
    def test_unreachable_column_decides_at_root(self, n, kappa):
        # every summand is smaller than the extra object, so no candidate
        # reaches its column, which needs kappa: the column interval closes
        # the root instead of the enumeration trying every tiling
        ring = near_group(n, kappa)
        res = i1_dimension_system(ring)
        assert induction_data(ring).H[0][-1] == kappa
        assert all(v[-1] == 0 for s in res.summands for v in s.candidates)
        assert res.status == INFEASIBLE
        assert res.solutions == ()
        assert res.lines[-1] == (
            "per-summand images exist but no assignment reproduces the "
            "induced unit exactly"
        )


class TestGramSearch:
    def test_identity_feasible(self):
        res = gram_search([[1, 0], [0, 1]])
        assert res.status == FEASIBLE
        assert sorted(res.witness.all_rows()) == [(0, 1), (1, 0)]

    def test_fixed_row_overshoot(self):
        res = gram_search([[1, 0], [0, 1]], fixed_rows=((2, 0),))
        assert res.status == INFEASIBLE

    def test_infeasible_offdiagonal(self):
        # cross term present but one diagonal budget is zero
        res = gram_search([[1, 1], [1, 0]])
        assert res.status == INFEASIBLE

    def test_asymmetric_h_infeasible_at_zero_nodes(self):
        # every N^t N is symmetric; the first asymmetric pair is named
        H = [[2, 1, 0], [1, 2, 3], [0, 1, 2]]
        res = gram_search(H)
        assert res.status == INFEASIBLE
        assert res.nodes == 0
        assert res.log == ("H is not symmetric at (1,2): 3 != 1",)

    def test_node_cap(self):
        H = [[30, 10, 10], [10, 30, 10], [10, 10, 31]]
        res = gram_search(H, node_cap=3)
        assert res.status == INCONCLUSIVE
        assert any("node cap" in s for s in res.log)

    def test_witness_reverifies(self):
        ring = z3_base_ring(3)
        verdict = obstruct(ring)
        assert gram_of(verdict.witness.all_rows(), ring.rank) == (
            codegree_matrix(ring)
        )

    def test_witness_multiplicity_change_raises(self):
        # the re-check sums each distinct row once, times its multiplicity;
        # one multiplicity off by one in either direction must be caught
        ring = z3_base_ring(3)
        H = codegree_matrix(ring)
        witness = obstruct(ring).witness
        verify_witness(H, witness)
        free = list(witness.free_rows)
        for k, (row, m) in enumerate(free):
            for m2 in (m - 1, m + 1):
                bad = GramWitness(
                    witness.fixed_rows, tuple(free[:k] + [(row, m2)] + free[k + 1:])
                )
                with pytest.raises(ExactnessError, match=r"fails N\^t N = H"):
                    verify_witness(H, bad)

    def test_witness_check_survives_optimize_flag(self):
        # an explicit raise, not an assert: `python -O` still runs it
        code = (
            "from mrfw.obstruction import GramWitness, verify_witness\n"
            "from mrfw.scalars import ExactnessError\n"
            "try:\n"
            "    verify_witness([[1, 0], [0, 1]], GramWitness(((1, 0),), (((0, 1), 2),)))\n"
            "except ExactnessError as exc:\n"
            "    print(exc)\n"
        )
        src = Path(obstruction.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env={"PYTHONPATH": str(src)}, check=True,
        )
        assert out.stdout == "Gram witness fails N^t N = H at (1,1): 2 != 1\n"

    def test_matches_bruteforce_on_products(self):
        rng = random.Random(5771)
        for _ in range(40):
            n = rng.randrange(2, 5)
            rows = [
                tuple(rng.randrange(0, 3) for _ in range(n))
                for _ in range(rng.randrange(1, 5))
            ]
            H = [
                [sum(w[i] * w[j] for w in rows) for j in range(n)]
                for i in range(n)
            ]
            # the generating rows are themselves a witness, so feasibility
            # is known without any oracle
            res = gram_search(H)
            assert res.status == FEASIBLE

    def test_matches_bruteforce_on_perturbations(self):
        rng = random.Random(1213)
        checked = 0
        for _ in range(60):
            n = rng.randrange(2, 4)
            rows = [
                tuple(rng.randrange(0, 3) for _ in range(n))
                for _ in range(rng.randrange(1, 4))
            ]
            H = [
                [sum(w[i] * w[j] for w in rows) for j in range(n)]
                for i in range(n)
            ]
            i, j = rng.randrange(n), rng.randrange(n)
            H[i][j] += 1
            H[j][i] = H[i][j]
            try:
                expected = gram_bruteforce(H)
            except OracleBudgetExceeded:
                continue
            res = gram_search(H)
            assert res.status in (FEASIBLE, INFEASIBLE)
            assert (res.status == FEASIBLE) == expected
            checked += 1
        # the draw is seeded: one of the 60 is over the oracle's budget
        assert checked == 59

    # (status, nodes, log) of every Gram search of a verdict; C(Z9, 18)
    # needs 54,023 nodes, so one cap less stops it on its last node
    GRAM_RUNS = {
        "C(Z9,18) cap 54022": (
            lambda: obstruct(near_group(9, 18), node_cap=54_022).gram,
            [(INCONCLUSIVE, 54_023, ("node cap 54022 exceeded",))],
        ),
        "C(Z9,18) cap 54023": (
            lambda: obstruct(near_group(9, 18), node_cap=54_023).gram,
            [(FEASIBLE, 54_023, ())],
        ),
        "z3-base k=3": (lambda: obstruct(z3_base_ring(3)).gram, [(FEASIBLE, 6, ())]),
        "C(Z6,6)": (lambda: obstruct(near_group(6, 6)).gram, [(FEASIBLE, 35, ())]),
        "exhausted": (
            lambda: [gram_search([[1, 2, 2], [2, 4, 2], [2, 2, 4]])],
            [(INFEASIBLE, 5, (
                "exhausted 15 admissible rows in 5 nodes without completing H",
            ))],
        ),
    }

    @pytest.mark.parametrize("name", list(GRAM_RUNS))
    def test_node_counts_pinned(self, name):
        run, expected = self.GRAM_RUNS[name]
        assert [(g.status, g.nodes, g.log) for g in run()] == expected

    def test_depth_independent_of_call_stack(self):
        # 40 rows deep with only 20 frames to spare: the search must not
        # take a frame per row
        H = [[int(i == j) for j in range(40)] for i in range(40)]
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(len(inspect.stack()) + 20)
            res = gram_search(H)
        finally:
            sys.setrecursionlimit(limit)
        assert (res.status, res.nodes) == (FEASIBLE, 40)


def two_field_ring():
    # dimensions 1, sqrt(2), sqrt(3) and sqrt(6)
    return deligne_product(ising_ring(), near_group(3, 0))


def setup_outcome(setup):
    """The set-up's rows, their products as sets and their masks, or the
    message of the UnsupportedFieldError it raises."""
    try:
        free, prods, masks = setup()
    except UnsupportedFieldError as exc:
        return str(exc)
    return free, [set(pr) for pr in prods], masks


def gram_residuals(ring):
    """Each induced-unit solution of the ring whose fixed rows leave a
    nonnegative residual, as gram_search receives it: `(H, rows, dims)`."""
    data = induction_data(ring)
    i1 = i1_dimension_system(ring, data)
    if i1.status != FEASIBLE:
        return
    dims = fpdims(ring).dims
    H, n = data.H, len(data.H)
    for sol in i1.solutions:
        if all(
            H[i][j] >= sum(w[i] * w[j] for w in sol)
            for i in range(n) for j in range(i, n)
        ):
            yield H, sol, dims


class TestFreeRowsSetup:
    """The one-pass set-up `_free_rows` gives the eager set-up's rows, in
    its order, with the same masks, and `_row_products`, which gram_search
    calls on its first try of a row, gives the eager set-up's products."""

    @staticmethod
    def assert_same_setup(H, fixed_rows, dims):
        """Compare both set-ups with the dimensions and with no screen;
        return the outcome with the dimensions."""
        R, pos, *_ = eager_free_rows(H, fixed_rows)
        outcomes = []
        for d in (dims, None):
            want = setup_outcome(lambda: eager_free_rows(H, fixed_rows, d)[2:])

            def lazy():
                free, masks = obstruction._free_rows(
                    R, pos, None if d is None else obstruction._dimension_screen(d)
                )
                prods = [obstruction._row_products(w, pos) for w in free]
                return free, prods, masks

            assert setup_outcome(lazy) == want
            outcomes.append(want)
        return outcomes[0]

    @pytest.mark.parametrize(
        "rings",
        [
            lambda: rank4_and_near_group_rings(8),
            lambda: [("ising x C(Z3,0)", two_field_ring())],
        ],
        ids=["rank4 and C(Z_n) n<=8", "two fields"],
    )
    def test_matches_eager_on_every_residual(self, rings):
        # every residual gram_search receives: with the ring's dimensions,
        # and without any screen
        checked = 0
        for _, ring in rings():
            for H, sol, dims in gram_residuals(ring):
                self.assert_same_setup(H, sol, dims)
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize(
        "order, kappa, rows", [(12, 12, 5702), (10, 20, 920)]
    )
    def test_matches_eager_on_frontier_residual(self, order, kappa, rows):
        # the first residual of two cells beyond n <= 8, with hundreds to
        # thousands of rows
        H, sol, dims = next(gram_residuals(near_group(order, kappa)))
        free, _, _ = self.assert_same_setup(H, sol, dims)
        assert len(free) == rows

    def test_screen_raises_at_the_same_row(self):
        # random residuals over the two-field dimensions: where a row's
        # dimension mixes fields, both set-ups stop at the same first row
        dims = fpdims(two_field_ring()).dims
        n = len(dims)
        rng = random.Random(9041)
        outcomes = set()
        for _ in range(60):
            H = [[0] * n for _ in range(n)]
            for i in range(n):
                H[i][i] = rng.choice((0, 1, 1, 4))
                for j in range(i + 1, n):
                    H[i][j] = H[j][i] = rng.choice((0, 0, 0, 1))
            outcomes.add(isinstance(self.assert_same_setup(H, (), dims), str))
        assert outcomes == {True, False}


class TestSoundnessGate:
    """Rings known to be categorifiable must never be declared infeasible."""

    CASES = (
        [(f"rep({g})", lambda g=g: rep_ring(g))
         for g in ("s3", "d8", "q8", "a4", "s4", "z4", "z2xz2")]
        # Tambara-Yamagami C(A, 0)
        + [(f"C(Z{n},0)", lambda n=n: near_group(n, 0)) for n in range(1, 7)]
        + [("C(Z2xZ2,0)", lambda: mr_extend(klein_four_ring(), 0))]
        # near-groups C(Z_n, n-1) with n + 1 a prime power; n = 1 is C(Z1, 0)
        + [(f"C(Z{n},{n - 1})", lambda n=n: near_group(n, n - 1))
           for n in (2, 3, 4, 6, 7)]
    )

    @pytest.mark.parametrize(
        "build", [b for _, b in CASES], ids=[name for name, _ in CASES]
    )
    def test_never_infeasible(self, build):
        assert obstruct(build()).status != INFEASIBLE


class TestNearGroupSurvivors:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_survivors_are_evans_gannon(self, n):
        # a near-group C(Z_n, kappa) needs kappa = n - 1 or n | kappa
        # (Evans-Gannon, arXiv:1208.1500); up to kappa = 2n the pipeline
        # decides every cell and keeps exactly those
        got = {k: obstruct(near_group(n, k)).status for k in range(2 * n + 1)}
        assert INCONCLUSIVE not in got.values()
        survivors = {k for k, s in got.items() if s == FEASIBLE}
        assert survivors == {k for k in got if k == n - 1 or k % n == 0}


class TestWitnessPinning:
    """The pruned search returns the witness the unpruned search found
    first.  Rows are written as digit strings; each was recorded from the
    unpruned search at the default node cap (C(Z5, 5) took 1,990,038
    nodes there, rep(S4) 305,832)."""

    WITNESSES = {
        "z3-base k=3": (
            lambda: z3_base_ring(3),
            "1000 1001 1011 1101 0111 0101 0100 0011 0010 "
            "0001 0001 0001 0001 0001 0001 0001 0001 0001",
        ),
        "rep-s3 base k=5": (
            lambda: s3_base_ring(5),
            "1000 1210 1012 1103 0113 0102 0102 0100 0010 "
            "0001 0001 0001 0001 0001 0001 0001",
        ),
        "C(Z5,0)": (
            lambda: near_group(5, 0),
            "100000 100000 100010 100100 101000 110000 011000 010100 "
            "010010 010000 010000 001100 001010 001000 001000 000110 "
            "000100 000100 000010 000010 000002 000002 000001 000001",
        ),
        "C(Z5,4)": (
            lambda: near_group(5, 4),
            "100000 111110 100001 100001 100001 100001 010001 010001 "
            "010001 010001 010000 001001 001001 001001 001001 001000 "
            "000101 000101 000101 000101 000100 000011 000011 000011 "
            "000011 000010 000002 000001 000001",
        ),
        "C(Z5,5)": (
            lambda: near_group(5, 5),
            "100000 100001 100011 100101 101001 110001 011103 010011 "
            "010000 010000 010000 001011 001000 001000 001000 000111 "
            "000100 000100 000100 000011 000010 000003 000001 000001 "
            "000001 000001 000001 000001 000001 000001",
        ),
        "rep(s4)": (
            lambda: rep_ring("s4"),
            "10000 10100 10101 10110 11011 01110 01101 01100 01000 "
            "00111 00111 00100 00022 00011 00010 00010 00001 00001",
        ),
    }

    @pytest.mark.parametrize("name", list(WITNESSES))
    def test_first_witness_unchanged(self, name):
        build, rows = self.WITNESSES[name]
        verdict = obstruct(build())
        assert verdict.status == FEASIBLE
        got = ["".join(map(str, w)) for w in verdict.witness.all_rows()]
        assert got == rows.split()

    @pytest.mark.parametrize("n, kappa", [(5, 4), (5, 5), (5, 10), (6, 6)])
    def test_decided_under_bench_cap(self, n, kappa):
        # each hit a 50,000-node cap before the cover rule
        ring = near_group(n, kappa)
        verdict = obstruct(ring, node_cap=50_000)
        assert verdict.status == FEASIBLE
        assert gram_of(verdict.witness.all_rows(), ring.rank) == codegree_matrix(ring)


def quadext_screen(dims):
    """The dimension screen in plain `QuadExt` arithmetic, in the shape of
    `_dimension_screen`: no columns, and a test that sums the row's
    dimension term by term, which raises UnsupportedFieldError as soon as
    two quadratic fields meet."""
    total = sum((d * d for d in dims), QuadExt(0))

    def divides(row, sums=()):
        s = sum((c * d for c, d in zip(row, dims) if c), QuadExt(0))
        return (total * s.inverse()).is_algebraic_integer()

    return [()] * len(dims), divides


def screen_sums(row, cols):
    """The sums `_free_rows` carries down to a row: one dot product of the
    row per coordinate of `cols`."""
    return [sum(map(operator.mul, row, col)) for col in zip(*cols)]


class TestIntegerScreens:
    """The integer dimension screens agree with plain `QuadExt` arithmetic,
    on dimensions from one quadratic field and from several."""

    RINGS = {
        "fibonacci": fibonacci_ring,
        "ising": ising_ring,
        "z3-base k=3": lambda: z3_base_ring(3),
        "rep-s3 base k=5": lambda: s3_base_ring(5),
        "C(Z5,5)": lambda: near_group(5, 5),
        "rep(s4)": lambda: rep_ring("s4"),
    }

    @pytest.mark.parametrize("name", list(RINGS))
    def test_dimension_screen_matches_quadext(self, name):
        dims = fpdims(self.RINGS[name]()).dims
        cols, divides = obstruction._dimension_screen(dims)
        _, oracle = quadext_screen(dims)
        for row in itertools.product(range(4), repeat=len(dims)):
            if any(row):
                assert divides(row, screen_sums(row, cols)) == oracle(row)

    @pytest.mark.parametrize("name", list(RINGS))
    def test_quadext_fallback_agrees(self, name, monkeypatch):
        # the whole pipeline gives the same verdict when the Gram search
        # screens its rows with `quadext_screen` instead
        ring = self.RINGS[name]()
        fast = obstruct(ring)
        monkeypatch.setattr(obstruction, "_dimension_screen", quadext_screen)
        slow = obstruct(ring)
        assert slow.i1 == fast.i1
        assert (slow.status, slow.steps, slow.witness) == (
            fast.status, fast.steps, fast.witness
        )

    def test_two_field_rows_match_per_field_oracle(self):
        # dimensions 1, sqrt(2), sqrt(3) and sqrt(6): a row whose
        # dimension mixes fields makes both raise
        dims = fpdims(deligne_product(ising_ring(), near_group(3, 0))).dims
        assert {d.D for d in dims} == {1, 2, 3, 6}
        cols, divides = obstruction._dimension_screen(dims)
        _, oracle = quadext_screen(dims)
        rng = random.Random(3217)
        outcomes = set()
        for _ in range(3000):
            row = tuple(rng.choice((0, 0, 0, 1, 2)) for _ in dims)
            if not any(row):
                continue
            try:
                want = oracle(row)
            except UnsupportedFieldError:
                with pytest.raises(UnsupportedFieldError):
                    divides(row, screen_sums(row, cols))
                outcomes.add("raise")
            else:
                assert divides(row, screen_sums(row, cols)) == want
                outcomes.add(want)
        assert outcomes == {True, False, "raise"}

    def test_global_dimension_in_two_fields_raises(self):
        # (1 + sqrt(2))^2 and (1 + sqrt(3))^2 leave sqrt(2) and sqrt(3)
        # in the sum of squares
        dims = (QuadExt(1), 1 + QuadExt.sqrt(2), 1 + QuadExt.sqrt(3))
        with pytest.raises(UnsupportedFieldError):
            obstruction._dimension_screen(dims)

    # verdict recorded before the screens ran in integers over several
    # fields, when two-field dimensions took a `QuadExt` path
    TWO_FIELD_STEPS = (
        "codegrees: 24, 24, 24, 24, 12, 12, 12, 12, 12, 12, 6, 6",
        "induced-unit system: 194 exact solution(s)",
        "exhausted 109 admissible rows in 34 nodes without completing H",
        "fixed rows overshoot H at (1,2): residual -1",
        "fixed rows overshoot H at (2,4): residual -1",
        "gram factorization found after 27 nodes",
    )
    TWO_FIELD_WITNESS = (
        "100000000000 100000000000 100000000000 100000000000 100000100000 "
        "100001000000 100010000000 100010000000 100010000000 101000000000 "
        "111010000000 121000000000 020002000000 010000100000 010000000000 "
        "010000000000 002000200000 002000000000 001001000000 000400000000 "
        "000100030000 000100030000 000021100000 000011100000 000010000000 "
        "000010000000 000010000000 000001100000 000001000000 000001000000 "
        "000001000000 000000100000 000000100000 000000100000 000000004110 "
        "000000000310 000000000200 000000000100 000000000100 000000000030 "
        "000000000020 000000000010 000000000004 000000000002 000000000002"
    )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: deligne_product(ising_ring(), near_group(3, 0)),
            lambda: deligne_product(near_group(2, 0), near_group(3, 0)),
        ],
        ids=["ising x C(Z3,0)", "C(Z2,0) x C(Z3,0)"],
    )
    def test_two_field_verdict_pinned(self, build):
        verdict = obstruct(build())
        assert verdict.status == FEASIBLE
        assert verdict.steps == self.TWO_FIELD_STEPS
        got = ["".join(map(str, w)) for w in verdict.witness.all_rows()]
        assert got == self.TWO_FIELD_WITNESS.split()


class TestObstruct:
    def test_fibonacci_feasible(self):
        assert obstruct(fibonacci_ring()).status == FEASIBLE

    def test_ising_feasible(self):
        assert obstruct(ising_ring()).status == FEASIBLE

    def test_pointed_z4_feasible(self):
        assert obstruct(cyclic_ring(4)).status == FEASIBLE

    def test_z3_base_kappa1_infeasible(self):
        verdict = obstruct(z3_base_ring(1))
        assert verdict.status == INFEASIBLE
        assert verdict.stage == "i1"

    def test_noncommutative_inconclusive(self):
        assert obstruct(s3_group_ring()).status == INCONCLUSIVE

    @pytest.mark.parametrize(
        "build, step",
        [
            (cubic_ring, "codegree polynomial has an unresolved factor of degree 3"),
            (lambda: su2_ring(6), "approximate Frobenius-Perron dimensions"),
        ],
        ids=["cubic", "su2-6"],
    )
    def test_exactness_failure_inconclusive(self, build, step):
        # the codegrees or the FP dimensions leave every quadratic field
        verdict = obstruct(build())
        assert (verdict.status, verdict.stage, verdict.steps) == (
            INCONCLUSIVE, "codegrees", (f"exactness failure: {step}",)
        )
        assert (verdict.data, verdict.i1, verdict.gram, verdict.witness) == (
            None, None, (), None
        )

    def test_node_cap_inconclusive(self):
        verdict = obstruct(z3_base_ring(3), node_cap=1)
        assert verdict.status == INCONCLUSIVE

    # no ring in the corpus, the rank-4 sweep or the near-group families
    # reaches a Gram-stage `infeasible`, so these stand in for gram_search
    EXHAUSTED = GramResult(INFEASIBLE, None, 3, ("exhausted 0 admissible rows",))
    CAPPED = GramResult(INCONCLUSIVE, None, 5, ("node cap 5 exceeded",))
    NO_EXTENSION = "no induced-unit solution extends to a Gram factorization"

    def test_every_solution_exhausted_is_gram_infeasible(self, monkeypatch):
        monkeypatch.setattr(obstruction, "gram_search", lambda *args: self.EXHAUSTED)
        verdict = obstruct(z3_base_ring(3))
        n = len(verdict.i1.solutions)
        assert (verdict.status, verdict.stage, verdict.witness) == (INFEASIBLE, "gram", None)
        assert verdict.gram == (self.EXHAUSTED,) * n
        assert verdict.steps[-n - 1:] == self.EXHAUSTED.log * n + (self.NO_EXTENSION,)

    def test_capped_then_exhausted_is_gram_inconclusive(self, monkeypatch):
        results = iter([self.CAPPED])
        monkeypatch.setattr(
            obstruction, "gram_search", lambda *args: next(results, self.EXHAUSTED)
        )
        verdict = obstruct(two_field_ring())
        assert (verdict.status, verdict.stage, verdict.witness) == (INCONCLUSIVE, "gram", None)
        assert verdict.gram == (self.CAPPED,) + (self.EXHAUSTED,) * 193
        assert self.NO_EXTENSION not in verdict.steps

    def test_s3_base_small_sweep(self):
        # eliminated for every kappa outside {0, 5} and the multiples of 6
        got = {
            k: obstruct(s3_base_ring(k)).status for k in range(13)
        }
        survivors = {k for k, s in got.items() if s == FEASIBLE}
        assert survivors == {0, 5, 6, 12}
        assert all(s != INCONCLUSIVE for s in got.values())

    def test_z3_base_small_sweep(self):
        got = {k: obstruct(z3_base_ring(k)).status for k in range(13)}
        survivors = {k for k, s in got.items() if s == FEASIBLE}
        assert survivors == {0, 2, 3, 6, 9, 12}


class TestClassifier:
    def test_columns_and_merge(self):
        table = classify_rank4_mr(8)
        assert table.columns == ("z3-pointed", "rep-s3")
        assert len(table.verdicts) == 9
        # table agrees with one-off pipeline runs
        for k, row in table.verdicts:
            assert row[0] == obstruct(z3_base_ring(k)).status
            assert row[1] == obstruct(s3_base_ring(k)).status

    def test_z3_survivors_subset(self):
        table = classify_rank4_mr(10)
        surv = table.survivors("z3-pointed")
        assert all(k == 2 or k % 3 == 0 for k in surv)

    def test_kappa_zero_only(self):
        table = classify_rank4_mr(0)
        assert len(table.verdicts) == 1

    def test_parallel_merge_deterministic(self):
        seq = classify_rank4_mr(6)
        par = classify_rank4_mr(6, jobs=2)
        assert seq == par
