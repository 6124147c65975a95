"""Categorification obstructions from codegrees and induction-functor
feasibility.

The pipeline computes, purely from the fusion ring: the codegree matrix,
which is also the Hom matrix of the objects induced to the Drinfeld center,
and its exact eigenvalues; the dimension system for the summands of the
induced unit; and finally a nonnegative-integer Gram factorization search
for that Hom matrix.  Every verdict carries a
machine-checkable certificate.

"Feasible" always means "passes these necessary conditions"; it never
asserts that a categorification exists.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple, Optional

from .corpus import RANK3_BASES
from .mr import mr_extend
from .ring import (
    FusionRing,
    MRData,
    Spectrum,
    detect_mr,
    fpdims,
    seed_fpdims,
    spectrum,
)
from .scalars import (
    ExactnessError,
    QuadExt,
    UnsupportedFieldError,
    _integer_field,
)

INFEASIBLE = "infeasible"
FEASIBLE = "feasible"
INCONCLUSIVE = "inconclusive"

DEFAULT_NODE_CAP = 10**7

FEASIBLE_MEANING = (
    "feasible = passes these necessary conditions; existence of a "
    "categorification is not asserted"
)


def codegree_matrix(ring: FusionRing) -> list[list[int]]:
    """M = sum over basis elements T of M_T * transpose(M_T):
    M[i][j] = sum over T and k of N_Ti^k N_Tj^k.  Symmetric with
    nonnegative entries; its eigenvalues are the formal codegrees (Ostrik,
    arXiv:0810.3242, arXiv:1309.4822).

    Reciprocity gives transpose(M_T) = M_T*, so M is the matrix of left
    multiplication by the one ring element C = sum T (x) T*, also on a
    noncommutative ring, and is built as `element_matrix(C)`."""
    ring.require_valid()
    return ring.element_matrix(_codegree_element(ring))


def _codegree_element(ring: FusionRing) -> list[int]:
    """The coordinates of C = sum over basis elements T of T (x) T*."""
    n, N, dual = ring.rank, ring.N, ring.dual
    return [sum(N[t][dual[t]][m] for t in range(n)) for m in range(n)]


def codegrees(ring: FusionRing) -> tuple[QuadExt, ...]:
    """Exact codegrees in descending order, with multiplicity.

    The codegrees are the formal codegrees of the ring (Ostrik,
    arXiv:0810.3242): the eigenvalues of the codegree matrix, which is
    symmetric with nonnegative integer entries, so they are real and at
    most its largest row sum.  Raises ExactnessError when the
    characteristic polynomial does not split into linear and quadratic
    factors over the integers."""
    return _codegree_spectrum(ring)[1]


def _codegree_spectrum(ring: FusionRing) -> tuple[Spectrum, tuple[QuadExt, ...]]:
    """`spectrum` of C = sum T (x) T*, and its roots in descending order."""
    ring.require_valid()
    spec = spectrum(ring, _codegree_element(ring))
    if spec.factors.residual.degree > 0:
        raise ExactnessError(
            f"codegree polynomial has an unresolved factor of degree "
            f"{spec.factors.residual.degree}"
        )
    return spec, tuple(sorted(spec.factors.all_roots(), reverse=True))


class InductionData(NamedTuple):
    """Everything the obstruction pipeline derives before searching."""

    codegrees: tuple[QuadExt, ...]
    i1_dims: tuple[QuadExt, ...]  # candidate dims f_1/f_i of I(1) summands
    H: tuple[tuple[int, ...], ...]


def induction_data(ring: FusionRing) -> InductionData:
    """Codegrees, induced-unit summand dimensions and the Hom matrix H of
    the objects induced to the Drinfeld center, from one matrix.

    On a commutative ring the forgetful image of I(X_V) is
    sum over Y of Y (x) X_V (x) Y* = (sum Y (x) Y*) (x) X_V, so
    H[V][W] = sum over Y and k of N_YV^k N_{k Y*}^W, and reciprocity
    (N_{k Y*}^W = N_WY^k) with commutativity makes it the codegree matrix,
    whose eigenvalues are the formal codegrees (Ostrik, arXiv:0810.3242,
    arXiv:1309.4822).  Raises ValueError on a noncommutative ring.

    The largest codegree is the global FP dimension.  `seed_fpdims` reads
    the FP dimensions off its eigenvector when it is a simple root, so that
    the codegree polynomial is the only characteristic polynomial this
    ring needs.  A repeated top codegree (a nontrivial universal grading)
    leaves them to `fpdims`, which factors one polynomial per
    non-invertible basis element."""
    ring.require_valid()
    if not ring.is_commutative:
        raise ValueError(
            "induction data needs a commutative ring: the Hom matrix of "
            "the induced objects is the codegree matrix only then"
        )
    spec, cod = _codegree_spectrum(ring)
    seed_fpdims(ring, spec, cod)
    fp = fpdims(ring)
    fp.require_exact()
    # the global FP dimension sum d_i^2 must be the top codegree; over one
    # denominator den, with den*top = t + sum_D t_D sqrt(D) and
    # den*d_i = a_i + b_i sqrt(D), each d_i in one field, that is
    # sum a_i^2 + sum_D D sum b_i^2 = den t and 2 sum a_i b_i = den t_D
    top = cod[0]
    den, coords = _integer_field((top,) + fp.dims)
    t, *a = coords.pop(1)
    squares = _dot(a, a) + sum(D * _dot(b[1:], b[1:]) for D, b in coords.items())
    if squares != den * t or any(2 * _dot(a, b[1:]) != den * b[0] for b in coords.values()):
        raise ExactnessError(
            "largest codegree does not equal the global FP dimension"
        )
    dims = tuple(top / f for f in cod)
    return InductionData(cod, dims, tuple(map(tuple, spec.matrix)))


class I1Summand(NamedTuple):
    """One summand of the induced unit: its codegree, its forced dimension
    f_1/f_i, and the admissible forgetful-image coefficient vectors."""

    codegree: QuadExt
    target_dim: QuadExt
    is_algebraic_integer: bool
    forced_extra: Optional[Fraction]  # forced coefficient on the
    # irrational-dimension basis element, when the split applies
    candidates: tuple[tuple[int, ...], ...]


class Tilings:
    """The tilings of the induced unit: one candidate row per summand, with
    column sums equal to `bounds`.

    They come in the order of a depth-first walk: summands in order, each
    summand's candidates in ascending order.  Summands that share a
    codegree are interchangeable, so each such summand (`tied`) takes a
    candidate no smaller than its predecessor's.  `len()` counts the
    tilings with a memo on (summand, column sums still needed, least
    candidate index); iteration enters only branches whose count is
    positive, so it costs per tiling, not per branch.

    Both prune with a column interval, `_interval`: what the summands from
    i on can still add to each column lies between the sums of their
    per-column minima and maxima, so a column needing less or more closes
    the branch.  Summand i and the rest of its run of equal codegrees
    draw only from its candidates from the least index on, which closes a
    column that only earlier candidates reach."""

    __slots__ = ("rows", "tied", "bounds", "_run", "_intervals", "_memo")

    def __init__(
        self,
        rows: tuple[tuple[tuple[int, ...], ...], ...],  # candidates per summand
        tied: tuple[bool, ...],  # summand i shares its codegree with i - 1
        bounds: tuple[int, ...],
    ):
        self.rows, self.tied, self.bounds = rows, tied, bounds
        # run[i]: summand i and the summands after it tied to it
        run = [1] * len(rows)
        for i in range(len(rows) - 2, -1, -1):
            if tied[i + 1]:
                run[i] += run[i + 1]
        self._run = run
        lo = hi = (0,) * len(bounds)
        boxes = [(lo, hi)]
        for cands in reversed(rows):
            cols = tuple(zip(*cands))
            lo = tuple(map(operator.add, lo, map(min, cols)))
            hi = tuple(map(operator.add, hi, map(max, cols)))
            boxes.append((lo, hi))
        # (i, 0): the interval of summands i..; `_interval` adds the others
        self._intervals = {(len(rows) - i, 0): box for i, box in enumerate(boxes)}
        self._memo: dict[tuple, int] = {}

    def _interval(self, i: int, least: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per-column least and greatest sums that summands i.. can add when
        summand i takes a candidate from index `least` on."""
        box = self._intervals.get((i, least))
        if box is None:
            run = self._run[i]
            lo, hi = self._intervals[i + run, 0]
            cols = tuple(zip(*self.rows[i][least:]))
            box = (
                tuple(map(operator.add, lo, map(run.__mul__, map(min, cols)))),
                tuple(map(operator.add, hi, map(run.__mul__, map(max, cols)))),
            )
            self._intervals[i, least] = box
        return box

    def __eq__(self, other):
        if not isinstance(other, Tilings):
            return NotImplemented
        return (self.rows, self.tied, self.bounds) == (other.rows, other.tied, other.bounds)

    def __hash__(self):
        return hash((self.rows, self.tied, self.bounds))

    def _children(self, i: int, need: tuple[int, ...], least: int):
        """(candidate, need after it, least index for summand i + 1) for
        each candidate of summand i from index `least` on."""
        tie = i + 1 < len(self.rows) and self.tied[i + 1]
        cands = self.rows[i]
        for idx in range(least, len(cands)):
            yield cands[idx], tuple(map(operator.sub, need, cands[idx])), idx if tie else 0

    def _count(self, i: int, need: tuple[int, ...], least: int) -> int:
        key = (i, need, least)
        total = self._memo.get(key)
        if total is None:
            lo, hi = self._interval(i, least)
            if not (all(map(operator.le, lo, need)) and all(map(operator.le, need, hi))):
                total = 0
            elif i == len(self.rows):
                total = 1  # past the last summand the interval is all zeros
            else:
                total = 0
                for _, rest, nxt in self._children(i, need, least):
                    total += self._count(i + 1, rest, nxt)
            self._memo[key] = total
        return total

    def _walk(self, i: int, need: tuple[int, ...], least: int):
        if i == len(self.rows):
            yield ()
            return
        for v, rest, nxt in self._children(i, need, least):
            if self._count(i + 1, rest, nxt):
                for tail in self._walk(i + 1, rest, nxt):
                    yield (v,) + tail

    def __len__(self) -> int:
        return self._count(0, self.bounds, 0)

    def __iter__(self):
        return self._walk(0, self.bounds, 0) if len(self) else iter(())


class I1Result(NamedTuple):
    status: str  # feasible / infeasible / inconclusive
    summands: tuple[I1Summand, ...]
    solutions: Tilings | tuple[()]  # lazy; len() is the exact count
    lines: tuple[str, ...]


def _irrational_indices(dims) -> list[int]:
    return [j for j, d in enumerate(dims) if not d.is_rational]


def _dot(row, coeffs) -> int:
    return sum(map(operator.mul, row, coeffs))


def _images(ranges, order, weight, rem, checks) -> tuple[tuple[int, ...], ...]:
    """The vectors (1,) + c, c in the box `ranges` in lexicographic order,
    that pass every exact check `_dot(c, r) == t`.

    `weight[j]` is the sum of the `_integer_field` coordinates of basis
    element j's dimension and `rem` that of the dimension to fill, so the
    checks make `_dot(c, weight) == rem`.  An FP dimension is at least the
    absolute value of its Galois conjugate (Etingof-Nikshych-Ostrik,
    arXiv:math/0203060, section 8), so its coordinates are nonnegative
    and every weight is a positive integer.  The box is walked one basis
    element at a time, in `order`: once the weight left is below what the
    later coordinates must add at their least, a larger value here only
    lowers it and the loop stops; while it is above what they can add at
    their most, the value is skipped.  Both cuts drop only vectors that
    fail the checks, so sorting what is left gives the filtered box in its
    order.  Taking the large dimensions first keeps the small ones last,
    where the cuts bound them tightly: in basis order the walk on
    C(Z_n, n - 1) visits about 2^(n-1) prefixes of the invertibles, whose
    dimension the extra object could still make up."""
    m = len(ranges)
    ranges = [ranges[t] for t in order]
    weight = [weight[t] for t in order]
    need, room = [0] * (m + 1), [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        need[t] = need[t + 1] + ranges[t][0] * weight[t]
        room[t] = room[t + 1] + ranges[t][-1] * weight[t]
    out: list[tuple[int, ...]] = []
    box = (ranges, weight, need, room, checks, order)
    _walk_box(box, [0] * m, 0, rem, out)
    return tuple(sorted(out))


def _walk_box(box, vec: list[int], t: int, rem: int, out: list) -> None:
    """`_images` from walk step t on, with the basis coordinates of the
    earlier steps fixed in vec and weight rem left to fill; step t sets
    coordinate order[t], and the box lists are in walk order.  A module
    function, not a closure, so that no reference cycle outlives the
    call."""
    ranges, weight, need, room, checks, order = box
    if t == len(ranges):
        if all(_dot(vec, r) == c for r, c in checks):
            out.append((1,) + tuple(vec))
        return
    u, w = order[t], weight[t]
    for x in ranges[t]:
        left = rem - x * w
        if left < need[t + 1]:
            break
        if left <= room[t + 1]:
            vec[u] = x
            _walk_box(box, vec, t + 1, left, out)


def i1_dimension_system(
    ring: FusionRing,
    data: Optional[InductionData] = None,
    mr: Optional[MRData] = None,
) -> I1Result:
    """Solve for the forgetful images of the summands of the induced unit.

    Each summand has dimension f_1/f_i for a codegree f_i and contains the
    unit exactly once; coefficients are bounded by the decomposition of the
    induced unit, and their column sums must reproduce it exactly.  When
    the dimension field is irrational the irrational part of each equation
    forces the coefficient on the irrational-dimension basis element, which
    is recorded in the certificate.

    Each summand's candidates come from `_images`, once per distinct
    codegree; the tilings are a lazy `Tilings`."""
    ring.require_valid()
    if not ring.is_commutative:
        return I1Result(
            INCONCLUSIVE,
            (),
            (),
            ("ring is not commutative; multiplicity-one decomposition of "
             "the induced unit is not available",),
        )
    if data is None:
        data = induction_data(ring)
    if mr is None:
        mr = detect_mr(ring)
    dims = fpdims(ring)
    dims.require_exact()
    d = dims.dims
    n = ring.rank
    bounds = data.H[0]
    irr = _irrational_indices(d)
    # 1 + sum c_j d_j == target, one scaled integer coordinate at a time:
    # per coordinate, the dims' entries and the targets' entries less 1
    den, coords = _integer_field(d + data.i1_dims)
    coords[1] = coords[1][:n] + [t - den for t in coords[1][n:]]
    eqs = [(c[1:n], c[n:]) for c in coords.values()]
    # the exact weights of `_images`, each target's less the unit, and its
    # walk order: basis by decreasing FP dimension, stable
    weight = [sum(col) for col in zip(*coords.values())]
    order = sorted(range(n - 1), key=d[1:].__getitem__, reverse=True)
    if len(irr) == 1:
        # exactly one basis element carries the irrational part, so the
        # irrational half of each dimension equation pins its coefficient
        m = irr[0]
        q_m = d[m].q
    lines: list[str] = []
    summands: list[I1Summand] = []
    tied: list[bool] = []  # summand k has the codegree of summand k - 1
    own: list[str] = []  # the lines of the latest distinct summand
    for k, (f, target) in enumerate(zip(data.codegrees, data.i1_dims)):
        tied.append(bool(summands) and f == summands[-1].codegree)
        if tied[-1]:
            # codegrees come sorted, so equal ones are adjacent and give the
            # same summand, with the same lines
            summands.append(summands[-1])
            lines.extend(own)
            continue
        own = []
        alg = target.is_algebraic_integer()
        if not alg:
            own.append(
                f"codegree {f}: summand dimension {target} is not an "
                f"algebraic integer"
            )
        forced: Optional[Fraction] = None
        forced_ok = True
        if len(irr) == 1:
            forced = target.q / q_m
            forced_ok = forced.denominator == 1 and forced >= 0
            if mr is not None and m == mr.extra and f.is_rational:
                fi = f.as_fraction()
                own.append(
                    f"codegree {f}: irrational branch forces "
                    f"kappa - {fi}*a{m} = 0"
                    + ("" if forced_ok else
                       f"; kappa = {mr.kappa} admits no nonnegative "
                       f"integer a{m}")
                )
            elif not forced_ok:
                own.append(
                    f"codegree {f}: irrational part forces coefficient "
                    f"{forced} on basis element {m}, not a nonnegative "
                    f"integer"
                )
        cands: tuple[tuple[int, ...], ...] = ()
        if alg and forced_ok:
            ranges = [
                (int(forced),) if forced is not None and j == irr[0]
                else range(bounds[j] + 1)
                for j in range(1, n)
            ]
            cands = _images(
                ranges, order, weight[1:n], weight[n + k],
                [(r, t[k]) for r, t in eqs],
            )
            if not cands:
                own.append(
                    f"codegree {f}: no nonnegative integer image with "
                    f"dimension {target} within the induced-unit bounds"
                )
        summands.append(I1Summand(f, target, alg, forced, cands))
        lines.extend(own)
    feasible = all(s.candidates for s in summands)
    if not feasible:
        return I1Result(INFEASIBLE, tuple(summands), (), tuple(lines))
    # joint enumeration: the candidate rows must tile the induced unit
    tilings = Tilings(tuple(s.candidates for s in summands), tuple(tied), bounds)
    if not len(tilings):
        lines.append(
            "per-summand images exist but no assignment reproduces the "
            "induced unit exactly"
        )
        return I1Result(INFEASIBLE, tuple(summands), (), tuple(lines))
    return I1Result(FEASIBLE, tuple(summands), tilings, tuple(lines))


class GramWitness(NamedTuple):
    """A complete multiset of virtual-simple rows N with N^t N = H.

    Row r, column U: the multiplicity of virtual simple r in the induction
    of X_U, equal to the coefficient of X_U in its forgetful image."""

    fixed_rows: tuple[tuple[int, ...], ...]
    free_rows: tuple[tuple[tuple[int, ...], int], ...]  # (row, multiplicity)

    def all_rows(self) -> list[tuple[int, ...]]:
        out = list(self.fixed_rows)
        for row, mult in self.free_rows:
            out.extend([row] * mult)
        return out


def verify_witness(H, witness: GramWitness) -> None:
    """Raise ExactnessError unless the witness rows give N^t N = H exactly.

    The sum runs over the distinct rows, each free row once with its
    multiplicity m as m * w w^t, and over the nonzero entries of each
    row, so it costs per distinct row rather than per row of N."""
    n = len(H)
    G = [[0] * n for _ in range(n)]
    for w, m in [(w, 1) for w in witness.fixed_rows] + list(witness.free_rows):
        support = [(i, x) for i, x in enumerate(w) if x]
        for i, x in support:
            Gi, mx = G[i], m * x
            for j, y in support:
                Gi[j] += mx * y
    if G != [list(r) for r in H]:
        i, j = next(
            (i, j) for i in range(n) for j in range(n) if G[i][j] != H[i][j]
        )
        raise ExactnessError(
            f"Gram witness fails N^t N = H at ({i},{j}): {G[i][j]} != {H[i][j]}"
        )


class GramResult(NamedTuple):
    status: str  # feasible / infeasible / inconclusive
    witness: Optional[GramWitness]
    nodes: int
    log: tuple[str, ...]


def _dimension_screen(dims: tuple[QuadExt, ...]):
    """The coefficient columns of the row dimensions and a test: does the
    dimension of a row's image divide the global dimension?

    The test runs in integers.  With dims scaled to integer coordinates
    over den, each d^2 stays in the field of d, so the global dimension is
    (ga + gb*sqrt(D)) / den^2 and a row's dimension is (A + B*sqrt(D)) / den.
    Their quotient is (P + Q*sqrt(D)) / M, an algebraic integer iff its
    trace and norm are integers.

    Returns `(cols, divides)`: `cols[i]` holds basis element i's integer
    coordinates, rational part first and then one per radicand, so a row's
    `sums` are the sums of x_i * cols[i], and `divides(row, sums)` tests
    them.  Raises UnsupportedFieldError when the global dimension, or a
    row's dimension together with it, spans two quadratic fields."""
    den, coords = _integer_field(dims)
    ra = coords.pop(1)
    irr = list(coords.items())
    ga = sum(a * a for a in ra) + sum(D * _dot(b, b) for D, b in irr)
    gfield = [(D, 2 * _dot(ra, b)) for D, b in irr]
    gfield = [(D, g) for D, g in gfield if g]
    if len(gfield) > 1:
        raise UnsupportedFieldError(
            "global dimension spans " + " and ".join(
                f"sqrt({D})" for D, _ in gfield
            )
        )
    gD, gb = gfield[0] if gfield else (1, 0)
    fields = list(enumerate((D for D, _ in irr), 1))  # (index in sums, D)

    def divides(row, sums) -> bool:
        A = sums[0]
        D, B = gD, 0
        for k, E in fields:
            x = sums[k]
            if x:
                if B or (gb and E != gD):
                    raise UnsupportedFieldError(
                        f"the dimension of row {tuple(row)} and the global "
                        f"dimension span two quadratic fields"
                    )
                D, B = E, x
        P = ga * A - gb * B * D
        M = den * (A * A - B * B * D)
        if 2 * P % M:
            return False
        Q = gb * A - ga * B
        return (P * P - Q * Q * D) % (M * M) == 0

    return list(zip(ra, *(b for _, b in irr))), divides


def _free_rows(R: list[int], pos: list[list[int]], screen=None):
    """The admissible free rows of a residual in descending lexicographic
    order, with their masks: `(free, masks)`.

    R is the residual's upper triangle, entry (i, j) at `pos[i][j]`.  A row
    w is admissible when it is nonzero, w_i * w_j <= R_ij for every pair,
    and its dimension passes the `_dimension_screen`, if one is given.
    `masks[k]` has the bits of the entries (i, j) of row k's support, the
    pairs with w_i * w_j > 0.

    One recursion enumerates the rows.  The children of a row set one more
    entry after its last nonzero one, by position and then by value,
    largest first, and each child comes after its own subtree, whose rows
    are greater.  A row carries what its children need:
      - the bounds of the entries it may still set: isqrt(R_kk), lowered to
        R_jk // w_j by each entry j it sets; an entry whose bound reaches
        zero drops out;
      - the screen's sums over its support, so the screen is integer
        arithmetic on them, with no pass over the row;
      - its support and mask; a mask depends on the support alone, so
        it grows at most once per new position, whatever the entry's
        value, and only when a row there is kept or has children."""
    n = len(pos)
    Rm = [[R[p] for p in row] for row in pos]
    cols, divides = screen or ([()] * n, None)
    # steps[i][x]: the change in the screen's sums when entry i is set to x
    steps = [
        [[x * c for c in col] for x in range(math.isqrt(Rm[i][i]) + 1)]
        for i, col in enumerate(cols)
    ]
    free: list[tuple[int, ...]] = []
    masks: list[int] = []
    row = [0] * n

    def extend(cand, sums, supp, mask) -> None:
        # cand: (position, bound) for each entry the current row may set
        for t, (i, top) in enumerate(cand):
            Ri, si, pi = Rm[i], steps[i], pos[i]
            rest = cand[t + 1:]
            supp2 = supp + [i]
            mask2 = 0  # built when first needed; a built mask has bit (i, i)
            for x in range(top, 0, -1):
                row[i] = x
                sums2 = [*map(operator.add, sums, si[x])]
                if rest:
                    sub = [(k, b) for k, c in rest if (b := min(c, Ri[k] // x))]
                    if sub:
                        mask2 = mask2 or mask | sum([1 << pi[j] for j in supp2])
                        extend(sub, sums2, supp2, mask2)
                if divides is None or divides(row, sums2):
                    mask2 = mask2 or mask | sum([1 << pi[j] for j in supp2])
                    free.append(tuple(row))
                    masks.append(mask2)
            row[i] = 0

    extend(
        [(i, b) for i in range(n) if (b := math.isqrt(Rm[i][i]))],
        [0] * len(cols[0]) if cols else [],
        [],
        0,
    )
    return free, masks


def _row_products(w: tuple[int, ...], pos: list[list[int]]):
    """The `(pos[i][j], w_i * w_j)` of row w, over the pairs of its support."""
    supp = [i for i, x in enumerate(w) if x]
    return [(pos[i][j], w[i] * w[j]) for i in supp for j in supp if j <= i]


def gram_search(
    H: list[list[int]] | tuple[tuple[int, ...], ...],
    fixed_rows: tuple[tuple[int, ...], ...] = (),
    dims: Optional[tuple[QuadExt, ...]] = None,
    node_cap: int = DEFAULT_NODE_CAP,
) -> GramResult:
    """Exhaustive search for nonnegative integer rows completing the fixed
    rows to a matrix N with N^t N = H.

    When FP dimensions are supplied, free rows are restricted to images
    whose dimension divides the global dimension (the dimension of any
    simple of the center divides the global dimension).  Free rows are
    tried in descending lexicographic order with multiplicities, so the
    first witness found is deterministic.

    H must be symmetric; an asymmetric H is infeasible, since every
    N^t N is symmetric.  The residual H - sum w w^t is therefore kept as
    its upper triangle, and each row touches only the entries of its
    support, the pairs (i, j) with w_i * w_j > 0.

    The set-up, `_free_rows`, lists the admissible rows and their masks.
    A row's `(entry, w_i * w_j)` products are built when the search first
    tries that row, and kept for its later visits.  The search is one loop
    over an explicit stack of the rows taken, each with its multiplicity
    and the residual from before it, so neither its time nor its reach
    depends on the depth of the caller's stack.

    Two prunings cut subtrees that hold no solution.  A column whose
    diagonal residual is zero admits no further row, so positive cross
    terms left in it are unreachable.  The cover rule: the rows still
    available at position idx are free[idx:], and together their supports
    cover only some entries; a positive residual entry outside that
    cover can never be cleared, and since the cover only shrinks as idx
    grows, the node fails there.  Neither rule reorders the search, so
    every witness is the one the unpruned search finds first; only the
    node count drops."""
    n = len(H)
    log: list[str] = []
    for i in range(n):
        for j in range(i + 1, n):
            if H[i][j] != H[j][i]:
                log.append(
                    f"H is not symmetric at ({i},{j}): "
                    f"{H[i][j]} != {H[j][i]}"
                )
                return GramResult(INFEASIBLE, None, 0, tuple(log))
    # the upper triangle, row by row: entry (i, j), i <= j, at pos[i][j]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    pos = [[0] * n for _ in range(n)]
    for p, (i, j) in enumerate(pairs):
        pos[i][j] = pos[j][i] = p
    R = [int(H[i][j]) - sum(w[i] * w[j] for w in fixed_rows) for i, j in pairs]
    for p, (i, j) in enumerate(pairs):
        if R[p] < 0:
            log.append(
                f"fixed rows overshoot H at ({i},{j}): residual {R[p]}"
            )
            return GramResult(INFEASIBLE, None, 0, tuple(log))
    free, masks = _free_rows(
        R, pos, None if dims is None else _dimension_screen(dims)
    )
    prods: list[Optional[list[tuple[int, int]]]] = [None] * len(free)
    # uncovered[idx]: entries that no row of free[idx:] touches
    uncovered = [~0] * (len(free) + 1)
    for idx in range(len(free) - 1, -1, -1):
        uncovered[idx] = uncovered[idx + 1] & ~masks[idx]
    # per column: its diagonal bit and the bits of its other entries
    columns = [
        (1 << pos[i][i], sum(1 << pos[i][j] for j in range(n) if j != i))
        for i in range(n)
    ]
    nodes = 0
    path = []  # the rows taken: (idx, m, R, live), R and live from before it
    live = sum(1 << p for p, r in enumerate(R) if r)  # positive entries
    idx = 0
    while live:  # a new node, its scan starting at idx
        for diag, cross in columns:
            if not live & diag and live & cross:
                idx = len(free)  # exhausted column still has cross terms
                break
        m = 0
        while not m:
            while not live & uncovered[idx]:  # cover rule
                if not masks[idx] & ~live:  # no entry it meets is cleared
                    if prods[idx] is None:  # the search's first try of it
                        prods[idx] = _row_products(free[idx], pos)
                    # largest multiplicity keeping the residual nonnegative
                    m = min(R[p] // c for p, c in prods[idx])
                    if m:
                        break
                idx += 1
            else:  # no row fits: retake the last one with one less
                if not path:
                    log.append(
                        f"exhausted {len(free)} admissible rows in {nodes} "
                        f"nodes without completing H"
                    )
                    return GramResult(INFEASIBLE, None, nodes, tuple(log))
                idx, m, R, live = path.pop()
                m -= 1
                if not m:
                    idx += 1  # resume the scan after it
        nodes += 1
        if nodes > node_cap:
            log.append(f"node cap {node_cap} exceeded")
            return GramResult(INCONCLUSIVE, None, nodes, tuple(log))
        path.append((idx, m, R, live))
        R = R[:]
        for p, c in prods[idx]:
            R[p] -= m * c
            if not R[p]:
                live ^= 1 << p
        idx += 1
    witness = GramWitness(
        tuple(fixed_rows), tuple((free[idx], m) for idx, m, _, _ in path)
    )
    verify_witness(H, witness)
    return GramResult(FEASIBLE, witness, nodes, tuple(log))


class ObstructionVerdict(NamedTuple):
    """Outcome of the full pipeline with a replayable certificate."""

    status: str  # infeasible / feasible / inconclusive
    stage: Optional[str]  # stage that decided: codegrees / i1 / gram
    steps: tuple[str, ...]
    data: Optional[InductionData] = None
    i1: Optional[I1Result] = None
    gram: tuple[GramResult, ...] = ()
    witness: Optional[GramWitness] = None


def obstruct(
    ring: FusionRing, node_cap: int = DEFAULT_NODE_CAP
) -> ObstructionVerdict:
    """Commutativity gate, codegrees, dimension screen, induced-unit
    system, then the Gram factorization search.  The first failing stage
    decides."""
    ring.require_valid()
    steps: list[str] = []
    if not ring.is_commutative:
        return ObstructionVerdict(
            INCONCLUSIVE,
            "codegrees",
            ("ring is not commutative; the pipeline applies only to "
             "commutative fusion rings",),
        )
    try:
        data = induction_data(ring)
    except ExactnessError as exc:
        return ObstructionVerdict(
            INCONCLUSIVE, "codegrees", (f"exactness failure: {exc}",)
        )
    steps.append(
        "codegrees: " + ", ".join(str(f) for f in data.codegrees)
    )
    mr = detect_mr(ring)
    i1 = i1_dimension_system(ring, data, mr)
    steps.extend(i1.lines)
    if i1.status != FEASIBLE:
        return ObstructionVerdict(i1.status, "i1", tuple(steps), data, i1)
    steps.append(
        f"induced-unit system: {len(i1.solutions)} exact solution(s)"
    )
    dims = fpdims(ring).dims
    grams: list[GramResult] = []
    witness: Optional[GramWitness] = None
    saw_cap = False
    for sol in i1.solutions:
        res = gram_search(data.H, sol, dims, node_cap)
        grams.append(res)
        steps.extend(res.log)
        if res.status == FEASIBLE:
            witness = res.witness
            steps.append(
                f"gram factorization found after {res.nodes} nodes"
            )
            break
        if res.status == INCONCLUSIVE:
            saw_cap = True
    if witness is not None:
        return ObstructionVerdict(
            FEASIBLE, "gram", tuple(steps), data, i1, tuple(grams), witness
        )
    if saw_cap:
        return ObstructionVerdict(
            INCONCLUSIVE, "gram", tuple(steps), data, i1, tuple(grams)
        )
    steps.append("no induced-unit solution extends to a Gram factorization")
    return ObstructionVerdict(
        INFEASIBLE, "gram", tuple(steps), data, i1, tuple(grams)
    )


class ClassificationTable(NamedTuple):
    """Per-kappa verdicts for the two admissible rank-3 integral bases."""

    kappa_max: int
    columns: tuple[str, ...]
    verdicts: tuple[tuple[int, tuple[str, ...]], ...]

    def survivors(self, column: str) -> list[int]:
        c = self.columns.index(column)
        return [k for k, row in self.verdicts if row[c] == FEASIBLE]


def _classify_cell(
    args: tuple[str, FusionRing, int, int]
) -> tuple[str, int, str]:
    name, base, kappa, node_cap = args
    return name, kappa, obstruct(mr_extend(base, kappa), node_cap).status


def classify_rank4_mr(
    kappa_max: int,
    node_cap: int = DEFAULT_NODE_CAP,
    jobs: Optional[int] = None,
) -> ClassificationTable:
    """Run the pipeline for both rank-3 integral bases over the kappa
    range and merge the verdicts deterministically."""
    if kappa_max < 0:
        raise ValueError("kappa_max must be nonnegative")
    for base in RANK3_BASES.values():
        fpdims(base)  # validated once; the cached facts pickle with the ring
    cells = [
        (name, base, k, node_cap)
        for name, base in RANK3_BASES.items()
        for k in range(kappa_max + 1)
    ]
    if jobs is not None and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            statuses = list(pool.map(_classify_cell, cells))
    else:
        statuses = list(map(_classify_cell, cells))
    results = {(name, k): status for name, k, status in statuses}
    verdicts = tuple(
        (k, tuple(results[(name, k)] for name in RANK3_BASES))
        for k in range(kappa_max + 1)
    )
    return ClassificationTable(kappa_max, tuple(RANK3_BASES), verdicts)
