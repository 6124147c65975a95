"""S-matrices from the balancing equation, centralizers, and degeneracy.

Given a fusion ring with categorical dimensions and ribbon twists, the
S-matrix entry for a pair of objects is

    s_{X,Y} = theta_X^-1 * theta_Y^-1 * sum_Z N_{XY}^Z * theta_Z * d_Z,

computed exactly over a common cyclotomic field.  On top of it this module
computes centralizers of subsets (objects whose S-entries against the
subset factor as products of dimensions), classifies the degeneracy of the
whole ring, and runs the row-degeneracy argument ruling out a trivial twist
on an invertible that fixes the corank-one extra object.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Iterable, NamedTuple, Optional, Sequence

from .mr import MRData
from .ring import FusionRing, invertibles
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
    if x.is_zero:
        return False
    return (x ** (2 * x.order)) == 1


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
    one `_packed_field` call and reduced once; a twist's inverse is its
    complex conjugate.
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
    m, den, nums, conjs, coords = _packed_field(
        d + [a * b for a, b in zip(t, d)] + t, rowsum + 1, 3
    )
    pd, ptd, pinv = nums[:n], nums[n : 2 * n], conjs[2 * n :]
    S = []
    for i in range(n):
        row = []
        for j in range(n):
            Nij = ring.N[i][j]
            diff = den * sum(map(mul, Nij, pd)) - pd[i] * pd[j]
            if diff and any(coords(diff, 2)):
                raise ValueError(f"dimensions are not multiplicative at ({i}, {j})")
            acc = pinv[i] * pinv[j] * sum(map(mul, Nij, ptd))
            row.append(_cyc(m, coords(acc, 3), den ** 3))
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
    """Determinant by Gaussian elimination over the common cyclotomic field
    of the entries: O(n^3) multiplications and one inverse per pivot."""
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
        for r in range(c + 1, n):
            row = rows[r]
            if row[c].is_zero:
                continue
            f = row[c] * inv
            for j in range(c + 1, n):
                if not top[j].is_zero:
                    row[j] = row[j] - f * top[j]
    return det


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


class RowComparison(NamedTuple):
    """S-matrix row of an invertible fixing the extra object vs the unit."""

    g: int
    twist_is_one: bool
    rows_equal: bool
    first_difference: Optional[int]
    trivial: bool


class TannakianReport(NamedTuple):
    comparisons: tuple[RowComparison, ...]
    degenerate: bool
    message: Optional[str]


def tannakian_row_obstruction(
    data: PremodularData, mr: MRData
) -> TannakianReport:
    """Row-degeneracy argument against a trivial twist on a fixing invertible.

    For each invertible g with g tensor X_n = X_n, the balancing equation
    collapses s_{g,X_n} to theta_g^-1 * d_{X_n}; with theta_g = 1 the whole
    S-row of g equals the row of the unit, so the S-matrix is degenerate
    and the pointed part cannot be Tannakian.  The unit itself is reported
    as a trivial witness.
    """
    if mr is None:
        raise ValueError("corank-one structure is required")
    ring = data.ring
    extra = mr.extra
    group = invertibles(ring, mr)
    comparisons: list[RowComparison] = []
    degenerate = False
    for g in group.elements:
        if ring.N[g][extra][extra] != 1:
            continue
        theta_one = data.twists[g] == 1
        diff = None
        for j in range(ring.rank):
            if data.S[g][j] != data.S[0][j]:
                diff = j
                break
        equal = diff is None
        trivial = g == 0
        if equal and theta_one and not trivial:
            degenerate = True
        comparisons.append(
            RowComparison(g, theta_one, equal, diff, trivial)
        )
    message = (
        "S degenerate: C_pt cannot be Tannakian" if degenerate else None
    )
    return TannakianReport(tuple(comparisons), degenerate, message)
