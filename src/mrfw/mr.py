"""Constructions and deductions specific to rings with a maximal-rank
subring: the forced extension, the spherical-structure certificate chain,
and integrality / grading / primality consequences.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .ring import (
    FusionRing,
    MRData,
    adjoint_and_grading,
    fpdims,
    mr_extra_dim,
    subrings,
)
from .scalars import QuadExt, is_perfect_square

INTEGRAL = "integral"
WEAKLY_INTEGRAL_ONLY = "weakly-integral-only"
IRRATIONAL = "irrational"


def mr_extend(base: FusionRing, kappa: int, extra_label: str = "Z") -> FusionRing:
    """Adjoin a self-dual X_n to an integral base ring, with
    X_i (x) X_n = X_n (x) X_i = d_i X_n and X_n (x) X_n = sum d_i X_i + kappa X_n.
    """
    base.require_valid()
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    dims = fpdims(base)
    dims.require_exact()
    d = []
    for v in dims.dims:
        if not v.is_rational or v.as_fraction().denominator != 1:
            raise ValueError("base ring must have integer FP dimensions")
        d.append(int(v.as_fraction()))
    n = base.rank
    label = extra_label
    while label in base.labels:
        label += "'"
    labels = base.labels + (label,)
    N = [[[0] * (n + 1) for _ in range(n + 1)] for _ in range(n + 1)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                N[i][j][k] = base.N[i][j][k]
    for i in range(n):
        N[i][n][n] = d[i]
        N[n][i][n] = d[i]
        N[n][n][i] = d[i]
    N[n][n][n] = kappa
    return FusionRing(labels, N)


def mr_fpdim(a: int, kappa: int) -> tuple[QuadExt, QuadExt]:
    """FP dimension of the extra simple and of the whole ring:
    d_n = (kappa + sqrt(kappa^2 + 4a))/2, total = a + d_n^2."""
    if a < 1:
        raise ValueError("a must be positive")
    d_n = mr_extra_dim(a, kappa)
    return d_n, QuadExt(a) + d_n * d_n


def pivotal_dims(
    a: int, kappa: int, s: int, t: int
) -> tuple[tuple[QuadExt, QuadExt], tuple[QuadExt, QuadExt]]:
    """Both sign branches of dim(X_n^+) = ((s-t) +- sqrt((s-t)^2+4a))/2 and
    of the pivotalized global dimension 4a+(s-t)^2 +- (s-t)sqrt((s-t)^2+4a)."""
    if s + t != kappa or s < 0 or t < 0:
        raise ValueError("need s, t >= 0 with s + t = kappa")
    u = s - t
    root = QuadExt.sqrt(u * u + 4 * a)
    dim_plus = (
        (QuadExt(u) + root) * Fraction(1, 2),
        (QuadExt(u) - root) * Fraction(1, 2),
    )
    base = QuadExt(4 * a + u * u)
    dim_tilde = (base + QuadExt(u) * root, base - QuadExt(u) * root)
    return dim_plus, dim_tilde


class SphericalCandidate(NamedTuple):
    s: int
    t: int
    xy: Optional[Fraction]  # conjugate product, when the field is irrational
    x_branches: tuple[QuadExt, ...]  # direct values, in the degenerate case
    survives: bool


class SphericalCertificate(NamedTuple):
    """Certificate that the pivotalization splits as (s, t) = (kappa, 0).

    xy is the conjugate product of the normalized dimension, with closed
    form (16a^2 + 4a(s-t)^2) / (16a^2 + 4a kappa^2); the derivation is
    restated in xy_denominator_note because shorter variants of the
    denominator in circulation drop the 16a^2 term.
    """

    a: int
    kappa: int
    degenerate: bool  # kappa^2 + 4a is a perfect square
    candidates: tuple[SphericalCandidate, ...]
    conclusion: tuple[int, int]
    dim_plus: QuadExt
    dim_tilde: QuadExt
    xy_denominator_note: str = (
        "xy = (16a^2+4a(s-t)^2)/(16a^2+4a*kappa^2); conjugate product of "
        "the normalized dimension, denominator derived from the norm of "
        "the total pivotalized dimension"
    )


def spherical_witness(a: int, kappa: int) -> SphericalCertificate:
    """Run the algebraic-integer filter over every split s + t = kappa with
    s >= t and certify that only (kappa, 0) survives."""
    if a < 1:
        raise ValueError("a must be positive")
    disc = kappa * kappa + 4 * a
    degenerate = is_perfect_square(disc)
    fp_tilde = QuadExt(4 * a + kappa * kappa) + QuadExt(kappa) * QuadExt.sqrt(disc)
    candidates = []
    survivors = []
    for t in range(kappa // 2 + 1):
        s = kappa - t
        u = s - t
        if degenerate:
            # FPdim of the pivotalization is rational; filter by direct
            # integrality of x = dim / FPdim itself
            denom = fp_tilde.as_fraction()
            branches = tuple(x / denom for x in pivotal_dims(a, kappa, s, t)[1])
            ok = any(x.is_algebraic_integer() for x in branches)
            candidates.append(SphericalCandidate(s, t, None, branches, ok))
        else:
            xy = Fraction(16 * a * a + 4 * a * u * u, 16 * a * a + 4 * a * kappa * kappa)
            ok = xy.denominator == 1
            candidates.append(SphericalCandidate(s, t, xy, (), ok))
        if ok:
            survivors.append((s, t))
    if survivors != [(kappa, 0)]:
        raise AssertionError(
            f"spherical filter left unexpected survivors {survivors} "
            f"for a={a}, kappa={kappa}"
        )
    (s, t) = survivors[0]
    dim_plus, dim_tilde = pivotal_dims(a, kappa, s, t)
    return SphericalCertificate(
        a,
        kappa,
        degenerate,
        tuple(candidates),
        (s, t),
        dim_plus[0],
        dim_tilde[0],
    )


def integrality_class(a: int, kappa: int) -> str:
    """integral / weakly-integral-only / irrational, from kappa^2 + 4a."""
    if a < 1:
        raise ValueError("a must be positive")
    if is_perfect_square(kappa * kappa + 4 * a):
        return INTEGRAL
    if kappa == 0:
        # d_n = sqrt(a) irrational, but total 2a is an integer
        return WEAKLY_INTEGRAL_ONLY
    return IRRATIONAL


class ForcingReport(NamedTuple):
    """Witness that d_n^2 | FPdim(C) forces kappa = 0, adjoint = base and a
    Z_2 universal grading."""

    multiplier: int  # m with m * d_n^2 = total FP dimension
    kappa: int
    grading_group_order: int
    adjoint_is_base: bool


def grading_forcing_check(ring: FusionRing, mr: MRData) -> Optional[ForcingReport]:
    """When the ring is weakly integral and d_n^2 divides the global FP
    dimension, verify the forced conclusions."""
    cls = integrality_class(mr.a, mr.kappa)
    if cls == IRRATIONAL:
        raise ValueError("ring is not weakly integral")
    d_n, total = mr_fpdim(mr.a, mr.kappa)
    dn_sq = (d_n * d_n).as_fraction()
    tot = total.as_fraction()
    assert dn_sq.denominator == 1 and tot.denominator == 1
    if tot % dn_sq != 0:
        return None
    if mr.kappa != 0:
        raise AssertionError("divisibility held but kappa is nonzero")
    grading = adjoint_and_grading(ring)
    adjoint_is_base = grading.adjoint == frozenset(mr.base)
    if not adjoint_is_base or grading.group_order != 2:
        raise AssertionError("forced Z_2 grading not realized")
    return ForcingReport(int(tot // dn_sq), mr.kappa, grading.group_order, True)


class PrimalityCertificate(NamedTuple):
    rank: int
    subring_ranks: tuple[int, ...]  # proper nontrivial subring ranks
    lines: tuple[str, ...]

    @property
    def is_vacuous(self) -> bool:
        return not self.subring_ranks


def prime_rank_check(ring: FusionRing, mr: MRData) -> PrimalityCertificate:
    """Arithmetic certificate that no proper nontrivial subring rank r can
    satisfy r | rank and r | rank-1 simultaneously (forced by any nontrivial
    factorization), since consecutive integers are coprime."""
    ring.require_valid()
    n = ring.rank
    ranks = sorted(
        len(s) for s in subrings(ring) if 1 < len(s) < n
    )
    lines = []
    for r in ranks:
        divides_n = n % r == 0
        divides_n1 = (n - 1) % r == 0
        assert not (divides_n and divides_n1) or r == 1
        lines.append(
            f"rank-{r} subring: {n} = {r}*r and {n - 1} = {r}*r' would need "
            f"{r}*(r - r') = 1, impossible for r > 1 "
            f"(divides {n}: {divides_n}, divides {n - 1}: {divides_n1})"
        )
    return PrimalityCertificate(n, tuple(ranks), tuple(lines))
