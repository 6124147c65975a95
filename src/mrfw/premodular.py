"""S-matrices from the balancing equation, centralizers, and degeneracy.

Given a fusion ring with categorical dimensions and ribbon twists, the
S-matrix entry for a pair of objects is

    s_{X,Y} = theta_X^-1 * theta_Y^-1 * sum_Z N_{XY}^Z * theta_Z * d_Z,

computed exactly over a common cyclotomic field.  On top of it this module
computes centralizers of subsets (objects whose S-entries against the
subset factor as products of dimensions) and classifies the degeneracy of
the whole ring, with the determinant of S where the center is trivial.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .ring import FusionRing
from .scalars import (
    MAX_CYCLOTOMIC_ORDER,
    CycNumber,
    QuadExt,
    RationalLike,
    _cyc,
    _packed_field,
    embed_quadratic,
    quadratic_conductor,
)

NON_DEGENERATE = "non-degenerate"
SLIGHTLY_DEGENERATE = "slightly-degenerate"
SYMMETRIC = "symmetric"
PROPERLY_DEGENERATE = "properly-degenerate"

ScalarLike = "CycNumber | QuadExt | RationalLike"


def _to_cyc(x) -> CycNumber:
    if isinstance(x, CycNumber):
        return x
    if isinstance(x, QuadExt):
        return embed_quadratic(x)
    return CycNumber.from_rational(x)


def _order(x) -> int:
    """The order of the cyclotomic field `_to_cyc` puts x in."""
    if isinstance(x, CycNumber):
        return x.order
    if isinstance(x, QuadExt) and not x.is_rational:
        return quadratic_conductor(x.D)
    return 1


def _is_root_of_unity(x: CycNumber) -> bool:
    """x is an algebraic integer (denominator 1: the power basis of
    Z[zeta_m] is an integral basis) with x * conj(x) = 1.  Conjugation is
    central in the abelian Galois group, so |sigma(x)|^2 = sigma(x conj(x))
    = 1 for every sigma, and by Kronecker x is a root of unity."""
    return x._den == 1 and x * x.conjugate() == 1


class PremodularData(NamedTuple):
    """A fusion ring with exact dimensions, twists, and its S-matrix."""

    ring: FusionRing
    dims: tuple[CycNumber, ...]
    twists: tuple[CycNumber, ...]
    S: tuple[tuple[CycNumber, ...], ...]


def premodular_data(
    ring: FusionRing,
    dims: Sequence[ScalarLike],
    twists: Sequence[ScalarLike],
) -> PremodularData:
    """Dimensions, twists and S-matrix, all over Q(zeta_m) with m the lcm
    of their orders.  The ring must pass the axiom check (InvalidRingError
    otherwise); twists must be roots of unity, trivial on the unit, and
    dims multiplicative against the fusion rules (ValueError otherwise).

    An irrational quadratic dim d_i is screened before it is embedded: it
    and its conjugate are eigenvalues of the fusion matrix of X_i, so it
    must be an algebraic integer with both within that matrix's largest
    row sum.  A field order m above MAX_CYCLOTOMIC_ORDER is refused
    (ValueError) before any value is embedded: dense arithmetic in
    Q(zeta_m) takes seconds per entry at m = 10205.  The sums run in
    integer coordinates over one denominator, packed into one int each by
    one `_packed_field` call, and each sum is read off from one remainder
    modulo Phi_m(2^B); a twist's inverse is its complex conjugate.
    """
    ring.require_valid()
    n = ring.rank
    if len(dims) != n or len(twists) != n:
        raise ValueError("dims and twists must have one entry per basis element")
    if twists[0] != 1:
        raise ValueError("twist of the unit must be 1")
    if dims[0] != 1:
        raise ValueError("dimension of the unit must be 1")
    for i, x in enumerate(twists):
        # a real quadratic irrational is never a root of unity
        irrational = isinstance(x, QuadExt) and not x.is_rational
        if irrational or not _is_root_of_unity(_to_cyc(x)):
            raise ValueError(f"twist {i} is not a root of unity")
    for i, x in enumerate(dims):
        if isinstance(x, QuadExt) and not x.is_rational:
            b = max(map(sum, ring.N[i]))
            if not x.is_algebraic_integer() or max(x * x, x.conjugate() ** 2) > b * b:
                raise ValueError(f"dimension {i} is not a fusion matrix eigenvalue")
    order = math.lcm(*map(_order, [*dims, *twists]))
    if order > MAX_CYCLOTOMIC_ORDER:
        raise ValueError(
            f"dimensions and twists need Q(zeta_{order}), above the "
            f"supported cyclotomic order {MAX_CYCLOTOMIC_ORDER}"
        )
    d = [_to_cyc(x) for x in dims]
    t = [_to_cyc(x) for x in twists]
    # M, the largest l1 norm of the coordinate vectors, is at least den,
    # the norm of the unit dimension 1, so the coefficients of both
    # den * Sum_k N_ij^k d_k - d_i d_j and theta_i^-1 theta_j^-1 *
    # Sum_k N_ij^k theta_k d_k are within (rowsum + 1) * M^3
    rowsum = max(sum(Nij) for Ni in ring.N for Nij in Ni)
    m, den, nums, conjs, coords, rational, _ = _packed_field(
        d + [a * b for a, b in zip(t, d)] + t, rowsum + 1, 3
    )
    pd, ptd, pinv = nums[:n], nums[n : 2 * n], conjs[2 * n :]
    S = []
    for i in range(n):
        row = []
        for j in range(n):
            Nij = ring.N[i][j]
            diff = den * sum(map(mul, Nij, pd)) - pd[i] * pd[j]
            if rational(diff) != 0:
                raise ValueError(f"dimensions are not multiplicative at ({i}, {j})")
            acc = pinv[i] * pinv[j] * sum(map(mul, Nij, ptd))
            row.append(_cyc(m, coords(acc), den ** 3))
        S.append(tuple(row))
    return PremodularData(ring, tuple(d), tuple(t), tuple(S))


def centralizer_of(data: PremodularData, subset: Iterable[int]) -> frozenset[int]:
    """Objects whose S-entries against `subset` factor as d_X * d_Y.

    The result is verified to be a fusion subring: unital and closed under
    duals and fusion; a failure would mean the input data is not
    consistent and raises ValueError.
    """
    ring = data.ring
    idx = sorted(set(subset))
    out = frozenset(
        y
        for y in range(ring.rank)
        if all(data.S[x][y] == data.dims[x] * data.dims[y] for x in idx)
    )
    if ring.closure(out) != out:
        raise ValueError(f"centralizer {sorted(out)} is not a fusion subring")
    return out


def _det(M: Sequence[Sequence[CycNumber]]) -> CycNumber:
    """Determinant over the common cyclotomic field Q(zeta_m) of the
    entries, as one integer determinant modulo P = Phi_m(2^B): no inverse
    and no conjugate is taken in the field.

    Over the common denominator den, A = den M has integer coordinates,
    and det(A) = den^n det(M) = Sum_sigma sign(sigma) Prod_i A_{i,sigma(i)}
    is a sum of n! products of n entries, of total weight n!.  So at the
    slots of `_packed_field(entries, n!, n)`, `coords` reads det(A) from
    any integer congruent modulo P to its packed value, such as the
    determinant of the packed matrix (packing is a ring map).  That is
    taken over Z/PZ by row operations of determinant +-1: a swap negates
    it; a unit pivot clears its column with one `pow(p, -1, P)`; a column
    with no unit (zero, or a prime of P divides every entry) is cleared
    row by row by [[x, y], [-b/g, a/g]], of determinant 1, g = gcd(a, b)
    = x a + y b for the pivot a and the entry b.  The product of the
    diagonal is then det(A) modulo P, and `coords` of it over den^n is
    det(M)."""
    n = len(M)
    m, den, nums, _, coords, _, P = _packed_field(
        [x for row in M for x in row], math.factorial(n), n, conjugates=False
    )
    rows = [[v % P for v in nums[i : i + n]] for i in range(0, n * n, n)]
    det = 1
    for c in range(n):
        unit = next((r for r in range(c, n) if math.gcd(rows[r][c], P) == 1), None)
        if unit not in (None, c):
            rows[c], rows[unit] = rows[unit], rows[c]
            det = -det
        top = rows[c]
        inv = None if unit is None else pow(top[c], -1, P)
        for row in rows[c + 1 :]:
            if not row[c]:
                continue
            if inv is not None:
                f = row[c] * inv % P
                row[c:] = [(v - f * u) % P for u, v in zip(top[c:], row[c:])]
                continue
            g = math.gcd(top[c], row[c])
            a, b = top[c] // g, row[c] // g
            x = pow(a, -1, b)
            y = (1 - x * a) // b
            pairs = list(zip(top[c:], row[c:]))
            top[c:] = [(x * u + y * v) % P for u, v in pairs]
            row[c:] = [(a * v - b * u) % P for u, v in pairs]
        det = det * top[c] % P
    return _cyc(m, coords(det), den ** n)


class DegeneracyReport(NamedTuple):
    """Degeneracy classification of the whole ring.

    `label` is one of the four class constants; `center` is the
    centralizer of the full basis; `svec_center` marks a rank-2 center
    generated by an invertible with twist -1.
    """

    label: str
    center: frozenset[int]
    svec_center: bool


def degeneracy_class(data: PremodularData) -> DegeneracyReport:
    """Classify by the centralizer of everything.

    Trivial center with invertible S-matrix is non-degenerate; the full
    basis is symmetric; a proper rank-2 center whose nontrivial object is
    an invertible with twist -1 is slightly degenerate; anything else is
    properly degenerate.
    """
    n = data.ring.rank
    center = centralizer_of(data, range(n))
    svec = len(center) == 2 and any(
        data.twists[i] == -1 and data.dims[i] ** 2 == 1
        for i in center
        if i != 0
    )
    if center == frozenset({0}):
        det = _det(data.S)
        if not det.is_zero:
            return DegeneracyReport(NON_DEGENERATE, center, False)
        return DegeneracyReport(PROPERLY_DEGENERATE, center, False)
    if len(center) == n:
        return DegeneracyReport(SYMMETRIC, center, svec)
    if svec:
        return DegeneracyReport(SLIGHTLY_DEGENERATE, center, True)
    return DegeneracyReport(PROPERLY_DEGENERATE, center, False)

