"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line for its criterion.  Criterion 1 is
recorded as an expected failure: its blanket claim (infeasibility of the
rank-4 ring over the rank-3 base with a two-dimensional object, for every
kappa in [0, 60]) is contradicted by exact computation, which produces
explicit Gram factorizations at kappa in {0, 5} and at every multiple
of 6.  The attainable parts of the criterion are verified in full.
"""

import random
import time
from fractions import Fraction

import pytest
from gram_oracle import OracleBudgetExceeded, gram_bruteforce
from ring_oracles import subrings_bruteforce

from mrfw.chartab import fusion_from_table, theorem57_check
from mrfw.corpus import (
    TABLE_BUILDERS,
    cyclic_ring,
    fibonacci_ring,
    ising_ring,
    klein_four_ring,
    rep_s3_ring,
    s3_base_ring,
    trivial_ring,
    z3_base_ring,
)
from mrfw.mr import mr_extend, mr_fpdim, spherical_witness
from mrfw.obstruction import (
    FEASIBLE,
    INFEASIBLE,
    classify_rank4_mr,
    codegree_matrix,
    codegrees,
    gram_search,
    i1_dimension_system,
    obstruct,
)
from mrfw.premodular import (
    NON_DEGENERATE,
    SYMMETRIC,
    degeneracy_class,
    premodular_data,
)
from mrfw.ring import detect_mr, fpdims, invertibles, subrings
from mrfw.scalars import CycNumber, QuadExt


def emit(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_s3_base_sweep():
    """Sweep over the rank-3 base with a two-dimensional object."""
    t0 = time.monotonic()
    verdicts = {k: obstruct(s3_base_ring(k)) for k in range(61)}
    elapsed = time.monotonic() - t0

    # intermediate values of the kappa = 5 certificate
    FI = codegree_matrix(s3_base_ring(5))
    assert FI[1] == [3, 9, 3, 10]
    assert FI[2] == [2, 3, 4, 5]
    assert FI[3] == [5, 10, 5, 37]
    solutions = tuple(i1_dimension_system(s3_base_ring(5)).solutions)
    assert solutions == (
        ((1, 0, 0, 0), (1, 2, 1, 0), (1, 0, 1, 2), (1, 1, 0, 3)),
    )
    # nontrivial unit-induction coefficient vectors: the first and third
    # match the targeted values a = (2,1,0) and c = (1,0,3); the middle one
    # is (0,1,2), not the targeted (0,1,0), which fails its own dimension
    # equation: 42/3 = 14 = 1 + 0*2 + 1*1 + 2*6 requires the last entry 2
    (a_vec, b_vec, c_vec) = (
        solutions[0][1][1:],
        solutions[0][2][1:],
        solutions[0][3][1:],
    )
    assert a_vec == (2, 1, 0)
    assert c_vec == (1, 0, 3)
    assert b_vec == (0, 1, 2)
    d = [int(v.as_fraction()) for v in fpdims(s3_base_ring(5)).dims]
    assert 1 + sum(x * y for x, y in zip(b_vec, d[1:])) == 14  # 42 / 3
    assert 1 + sum(x * y for x, y in zip((0, 1, 0), d[1:])) != 14

    assert elapsed < 60.0
    survivors = sorted(k for k, v in verdicts.items() if v.status == FEASIBLE)
    expected_survivors = sorted({0, 5} | set(range(0, 61, 6)))
    assert survivors == expected_survivors
    for k in range(61):
        if k not in expected_survivors:
            assert verdicts[k].status == INFEASIBLE

    emit(
        1,
        False,
        "blanket infeasibility on kappa in [0, 60] is not attainable: "
        f"exact Gram factorizations exist at {survivors}; targeted "
        "intermediate vector b=(0,1,0) fails its own dimension equation, "
        "the computed value is b=(0,1,2); all other certificate values "
        f"reproduced exactly, sweep time {elapsed:.1f}s",
    )
    pytest.xfail(
        "infeasibility for every kappa in [0, 60] is contradicted by "
        "explicit Gram factorizations at kappa in {0, 5} and multiples "
        "of 6; the remaining certificate values are reproduced exactly"
    )


def test_criterion_2_z3_base_sweep():
    verdicts = {k: obstruct(z3_base_ring(k)) for k in range(61)}
    survivors = {k for k, v in verdicts.items() if v.status == FEASIBLE}
    allowed = {2} | set(range(0, 61, 3))
    assert survivors <= allowed
    for k, v in verdicts.items():
        if v.status == INFEASIBLE:
            assert any("kappa - 3*a3 = 0" in s for s in v.steps), (k, v.steps)
    # kappa = 2 survives through the perfect-square branch: the extra
    # dimension is rational because 2^2 + 4*3 = 16 is a perfect square
    assert 2 in survivors
    assert fpdims(z3_base_ring(2)).dims[3] == QuadExt(3)
    emit(
        2,
        True,
        f"survivors {sorted(survivors)} within {{2}} union 3Z; every "
        "eliminated kappa certifies the forced relation kappa - 3*a3 = 0",
    )


def test_criterion_3_spherical_grid():
    for a in range(1, 51):
        for kappa in range(0, 21):
            cert = spherical_witness(a, kappa)
            assert cert.conclusion == (kappa, 0), (a, kappa)
    emit(3, True, "spherical witness concludes (kappa, 0) on [1,50]x[0,20]")


def test_criterion_4_classifier():
    table = classify_rank4_mr(60)
    assert table.columns == ("z3-pointed", "rep-s3")
    assert len(table.verdicts) == 61
    by_kappa = dict(table.verdicts)
    for k in range(0, 61, 7):
        assert by_kappa[k][0] == obstruct(z3_base_ring(k)).status
        assert by_kappa[k][1] == obstruct(s3_base_ring(k)).status
    assert set(table.survivors("z3-pointed")) <= {2} | set(range(0, 61, 3))
    assert sorted(table.survivors("rep-s3")) == sorted(
        {0, 5} | set(range(0, 61, 6))
    )
    emit(
        4,
        True,
        "classifier emits the two base columns with the same per-kappa "
        "verdicts as the one-off pipeline (second column as computed in "
        "criterion 1, not the unattainable all-infeasible claim)",
    )


def test_criterion_5_group_corpus():
    positives = {"s3", "d8", "q8", "a4"}
    names = ("s3", "z4", "d8", "q8", "a4", "s4", "z2xz2")
    for name in names:
        rep = theorem57_check(TABLE_BUILDERS[name]())
        assert rep.holds == (name in positives), name
        if rep.holds:
            assert rep.witness is not None and rep.mr_basis is not None
    emit(
        5,
        True,
        "two-class criterion and corank-one subring detection agree on "
        f"{list(names)}, positive on {sorted(positives)}",
    )


def test_criterion_6_property_suite():
    # subring enumeration vs full subset brute force
    small = [
        trivial_ring(),
        cyclic_ring(2),
        cyclic_ring(3),
        cyclic_ring(4),
        klein_four_ring(),
        fibonacci_ring(),
        ising_ring(),
        rep_s3_ring(),
        z3_base_ring(2),
        s3_base_ring(5),
        fusion_from_table(TABLE_BUILDERS["d8"]()),
        fusion_from_table(TABLE_BUILDERS["s4"]()),
    ]
    for ring in small:
        assert subrings(ring) == subrings_bruteforce(ring)

    # Gram search vs the unpruned oracle, rank <= 4, entries <= 40; the
    # draw is seeded, so which instances hit the oracle's budget is pinned
    rng = random.Random(20240824)
    compared = skipped = 0
    while compared < 40:
        n = rng.randrange(2, 5)
        gen = [
            tuple(rng.randrange(0, 3) for _ in range(n))
            for _ in range(rng.randrange(1, 4))
        ]
        H = [
            [sum(w[i] * w[j] for w in gen) for j in range(n)] for i in range(n)
        ]
        if rng.random() < 0.5:
            i, j = rng.randrange(n), rng.randrange(n)
            H[i][j] += 1
            H[j][i] = H[i][j]
        if max(H[i][i] for i in range(n)) > 40:
            continue
        try:
            expected = gram_bruteforce(H)
        except OracleBudgetExceeded:
            skipped += 1
            continue
        assert (gram_search(H).status == FEASIBLE) == expected, H
        compared += 1
    assert skipped == 3

    # codegrees of the group-representation rings are centralizer orders
    for name in ("s3", "z4", "d8", "q8", "a4"):
        t = TABLE_BUILDERS[name]()
        got = sorted(
            (int(c.as_fraction()) for c in codegrees(fusion_from_table(t))),
            reverse=True,
        )
        assert got == sorted(t.centralizer_orders, reverse=True)

    # randomized corank-one extensions pass full validation
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
        ring = mr_extend(rng.choice(bases), rng.randrange(0, 30))
        assert ring.validate() == []
    emit(
        6,
        True,
        f"subring oracle, Gram brute-force oracle (40 cases, {skipped} of "
        f"{compared + skipped} over its budget), codegree = "
        "centralizer orders, 100 randomized extensions all validated",
    )


def test_criterion_7_premodular_corpus():
    z = CycNumber.root_of_unity(5)
    phi = 1 + z + z ** 4
    fib = premodular_data(fibonacci_ring(), [1, phi], [1, z ** 2])
    assert [list(r) for r in fib.S] == [[1, phi], [phi, -1]]
    assert degeneracy_class(fib).label == NON_DEGENERATE

    i4 = CycNumber.root_of_unity(4)
    z2 = premodular_data(cyclic_ring(2), [1, 1], [1, i4])
    assert [list(r) for r in z2.S] == [[1, 1], [1, -1]]
    assert degeneracy_class(z2).label == NON_DEGENERATE

    for ring, dims in (
        (cyclic_ring(2), [1, 1]),
        (rep_s3_ring(), [1, 2, 1]),
        (z3_base_ring(2), [1, 1, 1, 3]),
    ):
        data = premodular_data(ring, dims, [1] * ring.rank)
        assert degeneracy_class(data).label == SYMMETRIC

    # an invertible g with g X = X and twist 1 has s_{g,X} = d_X, and so
    # the S-row of the unit
    rep = rep_s3_ring()
    data = premodular_data(rep, [1, 2, 1], [1, 1, 1])
    mr = detect_mr(rep)
    fixing = [g for g in invertibles(rep).elements
              if g != 0 and rep.N[g][mr.extra][mr.extra] == 1]
    assert fixing and all(data.twists[g] == 1 and data.S[g] == data.S[0] for g in fixing)
    emit(
        7,
        True,
        "golden S-matrix [[1,phi],[phi,-1]] exact in the 5th cyclotomic, "
        "both modular entries non-degenerate, trivial twists symmetric, "
        "row(g) = row(1) reproduced for twist 1",
    )


def test_criterion_8_fpdim_grid():
    for a in range(1, 21):
        base = cyclic_ring(a) if a > 1 else trivial_ring()
        for kappa in range(0, 11):
            ring = mr_extend(base, kappa)
            dims = fpdims(ring)
            d_n, total = mr_fpdim(a, kappa)
            assert dims.dims[-1] == d_n, (a, kappa)
            assert dims.total() == total, (a, kappa)
    _, fib_total = mr_fpdim(1, 1)
    assert fib_total == (5 + QuadExt.sqrt(5)) * Fraction(1, 2)
    emit(
        8,
        True,
        "closed-form dimensions match the extension rings on [1,20]x[0,10]; "
        "golden total (5 + sqrt 5)/2 exact",
    )
