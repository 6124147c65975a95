import random
from fractions import Fraction

import pytest

from mrfw.corpus import (
    RANK3_BASES,
    cyclic_ring,
    fibonacci_ring,
    ising_ring,
    klein_four_ring,
    rep_s3_ring,
    s3_base_ring,
    trivial_ring,
    z3_base_ring,
)
from mrfw.mr import (
    INTEGRAL,
    IRRATIONAL,
    WEAKLY_INTEGRAL_ONLY,
    grading_forcing_check,
    integrality_class,
    mr_extend,
    mr_fpdim,
    pivotal_dims,
    prime_rank_check,
    spherical_witness,
)
from mrfw import ring as ring_module
from mrfw.ring import detect_mr, fpdims
from mrfw.scalars import QuadExt

PHI = (1 + QuadExt.sqrt(5)) * Fraction(1, 2)


class TestMRExtend:
    def test_trivial_base_gives_fibonacci(self):
        ring = mr_extend(trivial_ring(), 1)
        assert ring.N == fibonacci_ring().N

    def test_z2_base_kappa0_is_ising(self):
        ring = mr_extend(cyclic_ring(2), 0)
        assert ring.validate() == []
        mr = detect_mr(ring)
        assert (mr.kappa, mr.a, mr.dims) == (0, 2, (1, 1))

    def test_z2_base_kappa1_matches_rep_s3_rules(self):
        ring = mr_extend(cyclic_ring(2), 1)
        # same rules as Rep(S_3) up to the basis permutation (1, Y, X)
        rep = rep_s3_ring()
        perm = (0, 2, 1)
        relabeled = [
            [
                [ring.N[perm[i]][perm[j]][perm[k]] for k in range(3)]
                for j in range(3)
            ]
            for i in range(3)
        ]
        assert tuple(tuple(tuple(r) for r in p) for p in relabeled) == rep.N

    def test_rank4_bases_are_built_once(self, monkeypatch):
        # each rank-3 base is one shared instance, so mr_extend validates it
        # and computes its FP dimensions at most once over a whole sweep,
        # while every cell is a fresh ring
        calls = []
        perron = ring_module._perron_dims
        monkeypatch.setattr(
            ring_module, "_perron_dims", lambda ring: calls.append(ring) or perron(ring)
        )
        rings = [build(k) for build in (z3_base_ring, s3_base_ring) for k in range(61)]
        assert len(calls) <= 2
        assert len({id(ring) for ring in rings}) == 122
        assert all("fpdims" not in ring._facts for ring in rings)
        assert rings[3].labels == rings[64].labels == ("1", "X", "Y", "Z")
        with pytest.raises(TypeError):
            RANK3_BASES["z3-pointed"] = rep_s3_ring()

    def test_rejects_non_integral_base(self):
        with pytest.raises(ValueError):
            mr_extend(fibonacci_ring(), 0)

    def test_roundtrip(self):
        for base, kappa in [(cyclic_ring(3), 4), (rep_s3_ring(), 7), (klein_four_ring(), 2)]:
            ring = mr_extend(base, kappa)
            mr = detect_mr(ring)
            assert mr.kappa == kappa
            assert mr.base == tuple(range(base.rank))
            d = [int(v.as_fraction()) for v in fpdims(base).dims]
            assert list(mr.dims) == d
            assert mr.a == sum(x * x for x in d)

    def test_randomized_extensions_validate(self):
        rng = random.Random(20240817)
        bases = [
            trivial_ring(),
            cyclic_ring(2),
            cyclic_ring(3),
            cyclic_ring(4),
            cyclic_ring(5),
            klein_four_ring(),
            rep_s3_ring(),
        ]
        for _ in range(100):
            base = rng.choice(bases)
            kappa = rng.randrange(0, 25)
            ring = mr_extend(base, kappa)
            assert ring.validate() == []
            mr = detect_mr(ring)
            assert mr is not None and mr.kappa == kappa


class TestMRFPDim:
    def test_rep_s3_values(self):
        d_n, total = mr_fpdim(2, 1)
        assert d_n.as_fraction() == 2
        assert total.as_fraction() == 6

    def test_degenerate(self):
        d_n, total = mr_fpdim(1, 0)
        assert d_n.as_fraction() == 1
        assert total.as_fraction() == 2

    def test_fibonacci(self):
        d_n, total = mr_fpdim(1, 1)
        assert d_n == PHI
        assert total == (5 + QuadExt.sqrt(5)) * Fraction(1, 2)

    # kappa = 0, and kappa^2 + 4a a perfect square at (1, 0), (2, 1), (6, 1),
    # (3, 2), (5, 4), (12, 4) and (6, 5)
    @pytest.mark.parametrize(
        "a, kappa", [(a, k) for a in (1, 2, 3, 5, 6, 12) for k in (0, 1, 2, 4, 5, 11)]
    )
    def test_total_closed_form(self, a, kappa):
        # d_n^2 = kappa d_n + a, so a + d_n^2 = 2a + (kappa^2 + kappa sqrt(disc))/2
        d_n, total = mr_fpdim(a, kappa)
        root = QuadExt.sqrt(kappa * kappa + 4 * a)
        assert d_n * d_n == kappa * d_n + a
        assert total == 2 * a + (kappa * kappa + kappa * root) * Fraction(1, 2)

    def test_pinned_to_the_quadext_formula(self):
        # d_n from integers through ring.mr_extra_dim, the one shared
        # implementation, equals the QuadExt formula it replaced; QuadExt
        # equality compares the normalized integers
        for a in range(1, 25):
            for kappa in range(61):
                d_n = (QuadExt(kappa) + QuadExt.sqrt(kappa * kappa + 4 * a)) * Fraction(1, 2)
                got = mr_fpdim(a, kappa)
                assert got == (d_n, QuadExt(a) + d_n * d_n), (a, kappa)
                assert got[0] == ring_module.mr_extra_dim(a, kappa)

    def test_matches_ring_dims(self):
        ring = s3_base_ring(5)
        mr = detect_mr(ring)
        d_n, total = mr_fpdim(mr.a, mr.kappa)
        dims = fpdims(ring)
        assert dims.dims[mr.extra] == d_n
        assert dims.total() == total


class TestSphericalWitness:
    def test_a2_kappa2(self):
        cert = spherical_witness(2, 2)
        assert cert.conclusion == (2, 0)
        winner = [c for c in cert.candidates if c.survives]
        assert len(winner) == 1 and winner[0].xy == 1

    def test_kappa0(self):
        cert = spherical_witness(5, 0)
        assert cert.conclusion == (0, 0)

    def test_a3_kappa1(self):
        cert = spherical_witness(3, 1)
        assert cert.conclusion == (1, 0)
        assert [c.survives for c in cert.candidates] == [True]

    def test_degenerate_field(self):
        # kappa^2 + 4a = 9 is a perfect square; direct-integrality filter
        cert = spherical_witness(2, 1)
        assert cert.degenerate
        assert cert.conclusion == (1, 0)

    def test_grid(self):
        for a in range(1, 13):
            for kappa in range(0, 7):
                assert spherical_witness(a, kappa).conclusion == (kappa, 0)


class TestPivotalDims:
    def test_fibonacci_case(self):
        plus, tilde = pivotal_dims(1, 1, 1, 0)
        sqrt5 = QuadExt.sqrt(5)
        assert set(plus) == {(1 + sqrt5) * Fraction(1, 2), (1 - sqrt5) * Fraction(1, 2)}
        assert set(tilde) == {5 + sqrt5, 5 - sqrt5}

    def test_square_discriminant(self):
        plus, tilde = pivotal_dims(4, 0, 0, 0)
        assert set(plus) == {QuadExt(2), QuadExt(-2)}
        assert set(tilde) == {QuadExt(16)}

    def test_balanced_split(self):
        plus, tilde = pivotal_dims(2, 2, 1, 1)
        assert set(plus) == {QuadExt.sqrt(2), -QuadExt.sqrt(2)}
        assert set(tilde) == {QuadExt(8)}


class TestIntegralityClass:
    @pytest.mark.parametrize(
        "a,kappa,expected",
        [
            (2, 1, INTEGRAL),
            (2, 0, WEAKLY_INTEGRAL_ONLY),
            (1, 1, IRRATIONAL),
            (4, 0, INTEGRAL),
            (3, 2, INTEGRAL),
            (3, 1, IRRATIONAL),
        ],
    )
    def test_examples(self, a, kappa, expected):
        assert integrality_class(a, kappa) == expected

    def test_integral_implies_integer_dim(self):
        for a in range(1, 30):
            for kappa in range(0, 10):
                if integrality_class(a, kappa) == INTEGRAL:
                    d_n, _ = mr_fpdim(a, kappa)
                    assert d_n.as_fraction().denominator == 1


class TestGradingForcing:
    def test_ising(self):
        ring = ising_ring()
        report = grading_forcing_check(ring, detect_mr(ring))
        assert report is not None
        assert (report.multiplier, report.kappa, report.grading_group_order) == (2, 0, 2)

    def test_rep_s3_no_forcing(self):
        ring = rep_s3_ring()
        assert grading_forcing_check(ring, detect_mr(ring)) is None

    def test_klein_base_kappa0(self):
        ring = mr_extend(klein_four_ring(), 0)
        report = grading_forcing_check(ring, detect_mr(ring))
        assert report is not None and report.multiplier == 2

    def test_rejects_irrational(self):
        ring = fibonacci_ring()
        with pytest.raises(ValueError):
            grading_forcing_check(ring, detect_mr(ring))


class TestPrimeRankCheck:
    def test_z3_base(self):
        ring = z3_base_ring(2)
        cert = prime_rank_check(ring, detect_mr(ring))
        assert cert.subring_ranks == (3,)
        assert "impossible" in cert.lines[0]

    def test_fibonacci_vacuous(self):
        ring = fibonacci_ring()
        assert prime_rank_check(ring, detect_mr(ring)).is_vacuous

    def test_s3_base(self):
        ring = s3_base_ring(1)
        cert = prime_rank_check(ring, detect_mr(ring))
        assert cert.subring_ranks == (2, 3)
