"""Scalar micro-benchmarks with operands taken from the workload inputs.

- quad_madd: x*y + y in Q(sqrt D) for x = FPdim of the extra object and
  y = global FP dimension of each irrational rank-4 sweep ring;
- cyc_mul: x*y in Q(zeta_n) for the orders the cyclotomic workload uses,
  with small integer coefficients drawn from the seed;
- charpoly: characteristic polynomials of every left-multiplication matrix
  of the ring-structure rings C(Z_a, kappa).

Every result is checked against a plain-Fraction recomputation in checker.
"""

from __future__ import annotations

import random
import statistics
import time

from mrfw.mr import mr_fpdim
from mrfw.scalars import CycNumber, charpoly

import checker
from spans import Speed
from workloads import RANK4_KAPPA_MAX, op_keys

REPEATS = 5
QUAD_ROUNDS = 8
CYC_ORDERS = (3, 4, 5, 6, 7)
CYC_PAIRS_PER_ORDER = 40

# a = global FP dimension of the rank-3 base: 3 for pointed Z_3, 6 for rep(S_3)
SWEEP_BASE_DIMS = (3, 6)


def _median_per_op(fn, ops: int, speed: Speed) -> float:
    """Median over REPEATS of the scaled seconds per operation."""
    spans = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        spans.append((t0, time.perf_counter()))
    return statistics.median(speed.scaled(t0, t1)[1] / ops for t0, t1 in spans)


def quad_operands(seed: int) -> list:
    pairs = []
    for a in SWEEP_BASE_DIMS:
        for kappa in range(RANK4_KAPPA_MAX + 1):
            d, total = mr_fpdim(a, kappa)
            if not d.is_rational:
                pairs.append((d, total))
    random.Random(f"quad:{seed}").shuffle(pairs)
    return pairs


def cyc_operands(seed: int) -> list:
    rng = random.Random(f"cyc:{seed}")
    pairs = []
    for n in CYC_ORDERS:
        deg = len(checker.cyclotomic_poly(n)) - 1
        for _ in range(CYC_PAIRS_PER_ORDER):
            x, y = ([rng.randint(-2, 2) for _ in range(deg)] for _ in range(2))
            pairs.append((n, x, y, CycNumber(n, x), CycNumber(n, y)))
    return pairs


def left_matrices(seed: int) -> list[list[list[int]]]:
    """Left-multiplication matrices of C(Z_a, kappa), built from its rules:
    g_i g_j = g_(i+j), g_i X = X g_i = X, X X = sum g_i + kappa X."""
    mats = []
    rings = {(a, k) for _, a, k in op_keys("ring-structure", seed)}
    for a, kappa in sorted(rings):
        n = a + 1
        for i in range(a):
            M = [[0] * n for _ in range(n)]
            for j in range(a):
                M[j][(i + j) % a] = 1
            M[a][a] = 1
            mats.append(M)
        M = [[0] * n for _ in range(n)]
        for j in range(a):
            M[j][a] = 1
            M[a][j] = 1
        M[a][a] = kappa
        mats.append(M)
    return mats


def run(seed: int, speed: Speed) -> tuple[dict, int, int]:
    """Per-op medians, the number of results checked, and how many were
    wrong."""
    checked = wrong = 0
    quad = quad_operands(seed)

    def quad_loop():
        for _ in range(QUAD_ROUNDS):
            for x, y in quad:
                x * y + y

    for x, y in quad:
        got = x * y + y
        want = checker.quad_madd_reference((x.p, x.q, x.D), (y.p, y.q, y.D))
        checked += 1
        wrong += (got.p, got.q) != want or got.D != x.D
    quad_us = _median_per_op(quad_loop, QUAD_ROUNDS * len(quad), speed) * 1e6

    cyc = cyc_operands(seed)

    def cyc_loop():
        for _, _, _, x, y in cyc:
            x * y

    for n, xs, ys, x, y in cyc:
        checked += 1
        wrong += (x * y).coeffs != checker.cyc_mul_reference(xs, ys, n)
    cyc_us = _median_per_op(cyc_loop, len(cyc), speed) * 1e6

    mats = left_matrices(seed)
    polys = [charpoly(M) for M in mats]
    for M, p in zip(mats, polys):
        checked += 1
        wrong += not checker.charpoly_ok(M, p.coeffs)

    def charpoly_loop():
        for M in mats:
            charpoly(M)

    charpoly_ms = _median_per_op(charpoly_loop, len(mats), speed) * 1e3
    metrics = {
        "scalars.quad_madd_us": quad_us,
        "scalars.cyc_mul_us": cyc_us,
        "scalars.charpoly_ms": charpoly_ms,
    }
    return metrics, checked, wrong
