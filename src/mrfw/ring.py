"""Fusion ring data model: axioms, exact Frobenius-Perron dimensions,
subring enumeration, adjoint subring / universal grading, invertibles, and
detection of maximal-rank subring structure.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .scalars import (
    ExactnessError,
    Factorization,
    IntPoly,
    QuadExt,
    _fact,
    _Frozen,
    _integer_field,
    _quad,
    factor_linear_quadratic,
    largest_real_root_bounds,
    squarefree_decompose,
)


class InvalidRingError(ValueError):
    """Raised when an operation requires a valid fusion ring."""


class Violation(NamedTuple):
    """One failed axiom, pinpointing the first offending indices."""

    axiom: str
    indices: tuple[int, ...]
    detail: str

    def __str__(self):
        return f"{self.axiom} at {self.indices}: {self.detail}"


class FusionRing(_Frozen):
    """A based ring with nonnegative integer structure constants.

    N[i][j][k] is the multiplicity of X_k in X_i (x) X_j; basis index 0 is
    the unit.  The duality permutation is inferred from N[i][j][0], never
    taken on faith from a caller.  Instances are immutable, so the sparse
    index of the structure constants, commutativity, the axiom check, the
    FP dimensions and the `detect_mr` result are computed once and cached
    on the ring by `scalars._fact`, in `_facts`, which equality, hash and
    repr ignore and pickle and copy keep.  A call that raises caches
    nothing.
    """

    __slots__ = ("rank", "labels", "N", "dual", "_facts")

    def __init__(self, labels: Sequence[str], N: Sequence[Sequence[Sequence[int]]]):
        n = len(labels)
        if n == 0:
            raise ValueError("empty basis")
        if len(N) != n or any(len(r) != n or any(len(c) != n for c in r) for r in N):
            raise ValueError("structure constants must be an n x n x n array")
        tensor = tuple(tuple(map(tuple, plane)) for plane in N)
        flat = itertools.chain.from_iterable(itertools.chain.from_iterable(tensor))
        if set(map(type, flat)) != {int}:
            # the ordered scan names the first entry that is not an integer;
            # other integer types (bool, numpy ints) become exact ints
            for i, j, k in itertools.product(range(n), repeat=3):
                x = tensor[i][j][k]
                try:
                    operator.index(x)
                except TypeError:
                    raise ValueError(
                        f"structure constant N[{i}][{j}][{k}] = {x!r} is not "
                        f"an integer"
                    ) from None
            tensor = tuple(
                tuple(tuple(map(operator.index, row)) for row in plane)
                for plane in tensor
            )
        # best-effort duality inference; validate() reports ambiguities
        dual = []
        for i in range(n):
            partners = [j for j in range(n) if tensor[i][j][0] != 0]
            dual.append(partners[0] if len(partners) == 1 else i)
        object.__setattr__(self, "rank", n)
        object.__setattr__(self, "labels", tuple(str(s) for s in labels))
        object.__setattr__(self, "N", tensor)
        object.__setattr__(self, "dual", tuple(dual))
        object.__setattr__(self, "_facts", {})

    def __eq__(self, other):
        if not isinstance(other, FusionRing):
            return NotImplemented
        return self.labels == other.labels and self.N == other.N

    def __hash__(self):
        return hash((self.labels, self.N))

    def __repr__(self):
        return f"FusionRing(rank={self.rank}, labels={self.labels})"

    # -- axioms

    def validate(self) -> list[Violation]:
        """Axiom check; an empty list means valid.

        Reports the first violation, in index order, of each axiom.  Each
        axiom is first tested on the whole ring; its ordered scan runs only
        when that test fails, so the report is the exhaustive scan's.
        Nonnegativity and Frobenius reciprocity are tested on the `sparse`
        index, in time linear in the number of nonzero entries: the
        smallest indexed value (negative entries are indexed), and
        `_reciprocal`'s matches and counts.

        Associativity is tested on a generating set.  W, the set of x with
        (x a) b = x (a b) for all a, b, is a subspace, and a subalgebra:
        for s, w in W, ((s w) a) b = (s (w a)) b = s ((w a) b)
        = s (w (a b)) = (s w) (a b).  So X_0 is in W when the left unit law
        holds; checking the n^2 triples of row s puts X_s in W; and when a
        product X_s X_v of elements of W has a single basis term X_k
        outside the known part of W, X_k is in W.  Rows are checked in
        index order, skipping rows already known to be in W; once W holds
        the whole basis the ring is associative.  On C(Z_a, kappa) only
        g and the extra element are checked: 2 n^2 triples, not n^3.
        A triple (i, j, k) where X_i X_j = X_m and X_j X_k = X_m' are
        single terms with coefficient 1 is settled by comparing two index
        entries, those of X_m X_k and X_i X_m'; every other triple builds
        both sides as sparse vectors.

        The check runs once per (immutable) ring; every call returns a
        fresh list, so callers may modify it."""
        return list(_fact(self, "validate", lambda r: tuple(r._first_violations())))

    def _first_violations(self):
        """The first violation of each failing axiom, in reporting order."""
        n, N, dual, supp = self.rank, self.N, self.dual, self.sparse
        zeros = (0,) * n
        identity = tuple(zeros[:j] + (1,) + zeros[j + 1:] for j in range(n))
        left_unit = N[0] == identity
        units = [[row[0] for row in plane] for plane in N]

        def first(stream):
            return itertools.islice(stream, 1)

        def cube():
            return itertools.product(range(n), repeat=3)

        # negative entries are nonzero, so the index holds them all
        nonzeros = itertools.chain.from_iterable(itertools.chain.from_iterable(supp))
        if min(map(operator.itemgetter(1), nonzeros), default=0) < 0:
            yield from first(Violation("nonnegativity", (i, j, k), "negative")
                             for i, j, k in cube() if N[i][j][k] < 0)
        if not left_unit:
            yield from first(Violation("unit-law", (0, j, k), "left unit fails")
                             for j in range(n) for k in range(n) if N[0][j][k] != int(j == k))
        if tuple(plane[0] for plane in N) != identity:
            yield from first(Violation("unit-law", (i, 0, k), "right unit fails")
                             for i in range(n) for k in range(n) if N[i][0][k] != int(i == k))
        # each row i has exactly one j with N[i][j][0] = 1, all else 0
        yield from first(Violation("duality-normalization", (i,), f"unit multiplicities {row}")
                         for i, row in enumerate(units) if row.count(1) != 1 or sum(row) != 1)
        yield from first(Violation("duality-involution", (i,), f"dual map {dual}")
                         for i in range(n) if dual[dual[i]] != i or dual[0] != 0)
        if not _reciprocal(self):
            yield from first(Violation("frobenius-reciprocity", (i, j, k),
                                       f"{N[i][j][k]}, {N[dual[i]][k][j]}, {N[k][dual[j]][i]}")
                             for i, j, k in cube()
                             if not N[i][j][k] == N[dual[i]][k][j] == N[k][dual[j]][i])
        if not self._associative_on_generators(supp, left_unit):
            yield from first(self._associativity_violations(supp, range(n)))

    def _associative_on_generators(self, supp, left_unit: bool) -> bool:
        """True when the generating-set argument of `validate` proves
        associativity; False when a checked row fails or W stays short of
        the whole basis.

        `known` is the part of W's basis found so far.  A worklist, as in
        `_close`, expands each pair of its elements once; a product with two
        or more terms outside `known` is kept in `pending` and looked at
        again when the worklist runs dry."""
        n = self.rank
        known = {0} if left_unit else set()
        todo, done, pending = list(known), [], []
        for s in range(n):
            if s in known:
                continue
            if next(self._associativity_violations(supp, (s,)), None) is not None:
                return False
            known.add(s)
            todo.append(s)
            while todo and len(known) < n:
                i = todo.pop()
                done.append(i)
                for j in done:
                    pending += (supp[i][j], supp[j][i])
                if not todo:
                    waiting, pending = pending, []
                    for terms in waiting:
                        outside = {m for m, _ in terms if m not in known}
                        if len(outside) == 1:
                            known |= outside
                            todo += outside
                        elif outside:
                            pending.append(terms)
        return len(known) == n

    def _associativity_violations(self, supp, rows):
        """For i in `rows` and all j, k, in index order, compare
        (X_i X_j) X_k with X_i (X_j X_k) as sparse vectors built from the
        nonzero structure constants `supp`, the `sparse` index, at the
        smallest differing basis index l.

        When X_i X_j = X_m and X_j X_k = X_m' are single basis terms with
        coefficient 1, the two sides are the index entries supp[m][k] and
        supp[i][m']; equal entries (ascending and nonzero, so equal as
        vectors) pass the pair without building a vector."""
        n = self.rank
        for i in rows:
            Si = supp[i]
            for j in range(n):
                ij, Sj = Si[j], supp[j]
                m_ij = ij[0][0] if len(ij) == 1 and ij[0][1] == 1 else None
                for k in range(n):
                    jk = Sj[k]
                    if (m_ij is not None and len(jk) == 1 and jk[0][1] == 1
                            and supp[m_ij][k] == Si[jk[0][0]]):
                        continue
                    lhs: dict[int, int] = {}
                    rhs: dict[int, int] = {}
                    for m, c in ij:
                        for l, e in supp[m][k]:
                            lhs[l] = lhs.get(l, 0) + c * e
                    for m, c in jk:
                        for l, e in Si[m]:
                            rhs[l] = rhs.get(l, 0) + c * e
                    if lhs != rhs:
                        for l in sorted(lhs.keys() | rhs.keys()):
                            a, b = lhs.get(l, 0), rhs.get(l, 0)
                            if a != b:
                                yield Violation("associativity", (i, j, k, l), f"{a} != {b}")

    @property
    def is_valid(self) -> bool:
        return not self.validate()

    def require_valid(self):
        problems = self.validate()
        if problems:
            raise InvalidRingError("; ".join(str(v) for v in problems[:3]))

    @property
    def is_commutative(self) -> bool:
        """X_i X_j = X_j X_i for all i, j; computed once per ring."""
        return _fact(self, "is_commutative", _commutes)

    @property
    def sparse(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """The nonzero structure constants: sparse[i][j] holds the pairs
        (k, N_ij^k) with N_ij^k != 0, in ascending k.  Built once per ring;
        the axiom check, closures, the grading, the invertibles and the
        FP-dimension certificate read it instead of scanning rows of N."""
        return _fact(self, "sparse", _sparse_index)

    # -- basic constructions

    def element_matrix(self, y: Sequence[int]) -> list[list[int]]:
        """Matrix of left multiplication by y = sum_i y_i X_i: row j lists
        y (x) X_j in the basis.  Row 0 is y itself."""
        support = [i for i, c in enumerate(y) if c] or [0]
        coeffs = [y[i] for i in support]
        # item j of rows holds row j of the plane of each support element
        rows = zip(*(self.N[i] for i in support))
        return [[sum(map(operator.mul, coeffs, col)) for col in zip(*r)] for r in rows]

    def left_matrix(self, i: int) -> list[list[int]]:
        """Matrix of left multiplication by X_i: `element_matrix` of the
        basis vector e_i."""
        return self.element_matrix([int(k == i) for k in range(self.rank)])

    def support(self, i: int, j: int) -> list[int]:
        """The k with N_ij^k > 0, in ascending order."""
        return [k for k, c in self.sparse[i][j] if c > 0]

    def closure(self, seed: Sequence[int]) -> frozenset[int]:
        """Smallest basis subset containing the seed that is unital, closed
        under duals and under tensor supports."""
        return self._close(frozenset(), {0, *seed, *(self.dual[i] for i in seed)})

    def _close(self, closed: frozenset[int], seed: set[int]) -> frozenset[int]:
        """Closure of closed | seed, where `closed` is empty or a subring and
        `seed` is closed under duals.

        A worklist: each element, once taken from it, is multiplied on both
        sides by itself and by every element taken before it, so each pair
        is expanded once.  The elements of `closed` count as taken already:
        their products stay inside it, so no pair within it is expanded."""
        S, dual = self.sparse, self.dual
        cur = {*closed, *seed}
        todo, done = list(seed - closed), list(closed)
        while todo:
            i = todo.pop()
            done.append(i)
            for j in done:
                for terms in (S[i][j], S[j][i]):
                    for k, _ in terms:
                        if k not in cur:
                            new = {k, dual[k]} - cur
                            cur |= new
                            todo += new
        return frozenset(cur)


def _commutes(ring: FusionRing) -> bool:
    """The comparison behind `FusionRing.is_commutative`."""
    n, N = ring.rank, ring.N
    return all(N[i][j] == N[j][i] for i in range(n) for j in range(i + 1, n))


def _reciprocal(ring: FusionRing) -> bool:
    """Frobenius reciprocity, N_ij^k = N_{i* k}^j = N_{k j*}^i, tested on
    the `sparse` index: plane i must be the transpose of plane i*, and
    column slice j the transpose of slice j*.  Every nonzero (i, j, k, c)
    must be matched by N[i*][k][j] == c == N[k][j*][i], and each plane and
    slice must have as many nonzeros as its dual's.  Transposition is
    injective, so the matches map the nonzeros of plane i one-to-one onto
    those of plane i*, which equal counts make all of them; likewise for
    slices.  `dual` need not be an involution."""
    N, supp, dual = ring.N, ring.sparse, ring.dual
    counts = [list(map(len, Si)) for Si in supp]
    planes = list(map(sum, counts))
    slices = list(map(sum, zip(*counts)))
    if any(planes[i] != planes[d] or slices[i] != slices[d] for i, d in enumerate(dual)):
        return False
    for i, Si in enumerate(supp):
        Ndi = N[dual[i]]
        for j, terms in enumerate(Si):
            dj = dual[j]
            for k, c in terms:
                if not Ndi[k][j] == c == N[k][dj][i]:
                    return False
    return True


def _sparse_index(ring: FusionRing):
    """The index behind `FusionRing.sparse`, built from lists, which is
    quicker than nesting generators."""
    return tuple([
        tuple([tuple([(k, c) for k, c in enumerate(row) if c]) for row in plane])
        for plane in ring.N
    ])


class FPDims(NamedTuple):
    """Frobenius-Perron dimensions, exact where the minimal polynomials stay
    within a quadratic tower and certified rational enclosures otherwise."""

    dims: tuple[QuadExt, ...]
    exact: tuple[bool, ...]
    bounds: tuple[Optional[tuple[Fraction, Fraction]], ...]

    @property
    def all_exact(self) -> bool:
        return all(self.exact)

    def require_exact(self):
        if not self.all_exact:
            raise ExactnessError("approximate Frobenius-Perron dimensions")

    def total(self) -> QuadExt:
        self.require_exact()
        return sum(d * d for d in self.dims)


class MRData(NamedTuple):
    """A detected maximal-rank subring and the forced extension data."""

    base: tuple[int, ...]
    extra: int
    kappa: int
    dims: tuple[int, ...]  # integer FP dims of the base basis, in base order
    a: int  # sum of squared base dims = FPdim of the subring


class GradingData(NamedTuple):
    """Universal grading at the ring level."""

    adjoint: frozenset[int]
    components: tuple[frozenset[int], ...]
    table: tuple[tuple[int, ...], ...]  # group law on component indices
    rank_one_components: tuple[int, ...]  # flagged per Lemma on fiber functors

    @property
    def group_order(self) -> int:
        return len(self.components)


def fpdims(ring: FusionRing) -> FPDims:
    """Exact FP dimension of each basis element: the Perron root of its
    left-multiplication matrix, from `_perron_dims`.  Computed once per
    ring; later calls return the same object."""
    return _fact(ring, "fpdims", _perron_dims)


class Spectrum(NamedTuple):
    """Left multiplication by a ring element y, from `spectrum`."""

    poly: IntPoly  # the characteristic polynomial chi_y
    factors: Factorization  # of chi_y, roots bounded by the largest row sum


def spectrum(ring: FusionRing, M: Sequence[Sequence[int]]) -> Spectrum:
    """Left multiplication by a ring element y on a valid ring, given as
    its matrix M = ring.element_matrix(y); every characteristic polynomial
    the library factors is taken here."""
    poly = _power_traces(ring, M)
    return Spectrum(poly, factor_linear_quadratic(poly, max(map(sum, M))))


def left_charpoly(ring: FusionRing, y: Sequence[int]) -> IntPoly:
    """det(xI - M) for M = ring.element_matrix(y), unfactored."""
    return _power_traces(ring, ring.element_matrix(y))


def _power_traces(ring: FusionRing, M: Sequence[Sequence[int]]) -> IntPoly:
    """det(xI - M) for M = ring.element_matrix(y).

    Left multiplication is a representation of the associative ring, so
    M^k = element_matrix(y^k), and the trace of element_matrix(z) is
    tau . z with tau_i = sum_j N_ij^j.  The power y^k = e_0 M^k is one
    vector-matrix product away from y^(k-1), so the power sums
    p_k = tr M^k cost n vector products, not n matrix products, and
    Newton's identities k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1)
    give the integer coefficients with exact divisions."""
    n = ring.rank
    tau = [sum(plane[j][j] for j in range(n)) for plane in ring.N]
    cols = list(zip(*M))
    power = [int(k == 0) for k in range(n)]
    sums, cs = [], [1]  # sums[k - 1] = p_k, cs[k] = coeff of x^(n-k)
    for k in range(1, n + 1):
        power = [sum(map(operator.mul, power, col)) for col in cols]
        sums.append(sum(map(operator.mul, tau, power)))
        q, r = divmod(-sum(map(operator.mul, cs, reversed(sums))), k)
        if r:
            raise ArithmeticError("charpoly produced a non-integer coefficient")
        cs.append(q)
    return IntPoly(cs[::-1])


def _certified(ring: FusionRing, dims: Sequence[QuadExt]) -> Optional[FPDims]:
    """`dims` as exact FP dimensions if `_is_positive_character` certifies
    them, else None."""
    if not _is_positive_character(ring, dims):
        return None
    n = ring.rank
    return FPDims(tuple(dims), (True,) * n, (None,) * n)


def mr_extra_dim(a: int, kappa: int) -> QuadExt:
    """(kappa + sqrt(kappa^2 + 4a)) / 2, the larger root of x^2 = kappa x + a:
    the FP dimension of the extra object of C(D, kappa) with FPdim(D) = a.
    Built from integers by `_quad`, with no rational arithmetic."""
    s, D = squarefree_decompose(kappa * kappa + 4 * a)
    return _quad(kappa + s, 0, 2, 1) if D == 1 else _quad(kappa, s, 2, D)


def mr_dims(mr: MRData) -> list[QuadExt]:
    """The FP dimensions that a maximal-rank extension forces, uncertified:
    the base dims `mr.dims` and `mr_extra_dim` on the extra object X.

    The rules X (x) Y = d_Y X for Y in the base D make d a character of D
    (associativity of Y Z X), and X (x) X = sum d_Y Y + kappa X extends it
    to a character of the ring exactly when d_X^2 = kappa d_X + a; the
    larger root makes it positive, so it is FPdim."""
    dims = [_quad(d, 0, 1, 1) for d in mr.dims]  # the basis less X, in order
    dims.insert(mr.extra, mr_extra_dim(mr.a, mr.kappa))
    return dims


def _perron_dims(ring: FusionRing) -> FPDims:
    """FP dimensions of a valid ring, certified at once as the positive
    character: the one route behind `fpdims`.

    FPdim is the unique character of a fusion ring that is positive on the
    basis (Etingof-Nikshych-Ostrik, arXiv:math/0203060, section 8; EGNO,
    Tensor Categories, section 3.3): a positive d with
    d_i d_j = sum_k N_ij^k d_k is a positive eigenvector of every
    left-multiplication matrix, with eigenvalue d_i, and a nonnegative
    matrix has a positive eigenvector only for its Perron root.  So:

    - each invertible element (X (x) X^* = 1) gets dimension 1, with no
      characteristic polynomial, and a ring of invertibles stops there,
      with no `detect_mr`;
    - when `detect_mr` finds a maximal-rank subring, the closed form
      `mr_dims`, with no characteristic polynomial either;
    - otherwise every non-invertible element gets its largest extracted
      real root, exact in a quadratic field;
    - a vector is accepted if `_is_positive_character` holds.  When the
      last one fails (a Perron root left in an unfactored residual, or
      dimensions in two different quadratic fields), the non-invertible
      elements fall back to `_elementwise_dim`, one Perron root and at
      most one Sturm chain at a time."""
    ring.require_valid()
    n, N = ring.rank, ring.N
    unit = tuple(int(k == 0) for k in range(n))
    noninvertible = [i for i in range(n) if N[i][ring.dual[i]] != unit]
    mr = detect_mr(ring) if noninvertible else None
    fp = _certified(ring, mr_dims(mr)) if mr is not None else None
    if fp is not None:
        return fp
    spectra = {i: _left_spectrum(ring, i) for i in noninvertible}
    dims = [QuadExt(1)] * n
    for i, (_, fact) in spectra.items():
        dims[i] = max(fact.all_roots(), default=QuadExt(0))
    fp = _certified(ring, dims)
    if fp is not None:
        return fp
    exact = [True] * n
    bounds: list[Optional[tuple[Fraction, Fraction]]] = [None] * n
    for i, spec in spectra.items():
        dims[i], exact[i], bounds[i] = _elementwise_dim(*spec)
    return FPDims(tuple(dims), tuple(exact), tuple(bounds))


def _left_spectrum(ring: FusionRing, i: int) -> Spectrum:
    """Characteristic polynomial of X_i's left-multiplication matrix, whose
    rows are the plane N[i], and its factorization."""
    return spectrum(ring, ring.N[i])


def _elementwise_dim(
    poly: IntPoly, fact: Factorization
) -> tuple[QuadExt, bool, Optional[tuple[Fraction, Fraction]]]:
    """One Perron root from one Sturm chain of `poly`: exact when `poly`
    has no more distinct real roots than the extracted factors, which share
    no root with the residual (integer roots and real quadratic factors are
    deflated with multiplicity), so the largest was extracted; otherwise
    the chain's certified enclosure of the largest real root.

    This Sturm route is reached only by `fpdims` on a ring whose FP
    dimensions are not all quadratic, such as SU(2)_5 or the cubic ring
    XX = 1 + Y, XY = X + Y, YY = 1 + X + Y: no ring C(D, kappa) and no
    corpus ring is one.  From the CLI only `report` reaches it, and then
    stops with the operational error "approximate Frobenius-Perron
    dimensions"; `check` of a ring only validates it, and `obstruct`
    stops at the codegree stage first."""
    roots = fact.all_roots()
    if fact.residual.degree > 0:
        count, bounds = largest_real_root_bounds(poly, Fraction(1, 10**10))
        if count != len(set(roots)):
            return QuadExt(sum(bounds) / 2), False, bounds
    return max(roots), True, None


def _is_positive_character(ring: FusionRing, dims: Sequence[QuadExt]) -> bool:
    """d_0 = 1, every d_i > 0, and d_i d_j = sum_k N_ij^k d_k for every
    ordered pair (i, j); a commutative ring needs only i <= j.

    Runs in integers: with d_k = (a_k + b_k sqrt(D)) / den over the common
    field, both sides are compared as integer pairs scaled by den^2.
    Dimensions from two different quadratic fields are not certified."""
    den, coords = _integer_field(dims)
    if len(coords) > 2 or dims[0] != 1 or any(d <= 0 for d in dims):
        return False
    D = max(coords)
    pairs = list(zip(coords[1], coords[D] if D > 1 else [0] * len(dims)))
    n, S = ring.rank, ring.sparse
    commutative = ring.is_commutative
    for i, (ai, bi) in enumerate(pairs):
        for j in range(i if commutative else 0, n):
            aj, bj = pairs[j]
            sa = sb = 0
            for k, c in S[i][j]:
                sa += c * pairs[k][0]
                sb += c * pairs[k][1]
            if ai * aj + bi * bj * D != den * sa or ai * bj + bi * aj != den * sb:
                return False
    return True


def subrings(ring: FusionRing) -> list[frozenset[int]]:
    """All unital, dual- and tensor-closed basis subsets, as a join
    lattice: start from the trivial subring and close each subring found
    together with each element it lacks.  Every subring is reached along a
    chain of such one-element joins, so nothing is missed, and the work is
    (number of subrings) x rank closures, with no rank limit; each closure
    extends the closed subring, expanding only pairs with a new element."""
    ring.require_valid()
    found = {ring.closure(())}
    todo = list(found)
    while todo:
        sub = todo.pop()
        for x in range(ring.rank):
            if x not in sub:
                bigger = ring._close(sub, {x, ring.dual[x]})
                if bigger not in found:
                    found.add(bigger)
                    todo.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def detect_mr(ring: FusionRing) -> Optional[MRData]:
    """Find a rank-(n-1) subring and verify the forced fusion rules of the
    extension: X_n (x) X_i = d_i X_n and X_n (x) X_n = sum d_i X_i + kappa X_n.

    A rank-(n-1) subring is the complement of one non-unit element, so this
    takes at most n - 1 closure checks, tried in the (len, sorted) order of
    `subrings`.  There is at most one such subring: if the complements of
    a != b were both closed, Frobenius reciprocity would force
    X_a (x) X_b = 0.

    The search runs once per ring, and its result, None included, is
    cached; an InvalidRingError is raised again on every call."""
    return _fact(ring, "detect_mr", _search_mr)


def _search_mr(ring: FusionRing) -> Optional[MRData]:
    """The search of `detect_mr`, uncached."""
    ring.require_valid()
    n = ring.rank
    for extra in range(n - 1, 0, -1):
        sub = frozenset(range(n)) - {extra}
        if ring.closure(sub) != sub:
            continue
        if ring.dual[extra] != extra:
            raise InvalidRingError("maximal-rank extension with non-self-dual extra")
        base = tuple(sorted(sub))
        d = []
        for i in base:
            di = ring.N[extra][i][extra]
            for k in range(n):
                want = di if k == extra else 0
                if ring.N[extra][i][k] != want or ring.N[i][extra][k] != want:
                    raise InvalidRingError(
                        f"forced rule X_n*X_{i} = d_i X_n violated at k={k}"
                    )
            if di < 1:
                raise InvalidRingError(f"non-positive forced dimension d_{i}={di}")
            d.append(di)
        for pos, i in enumerate(base):
            if ring.N[extra][extra][i] != d[pos]:
                raise InvalidRingError("X_n*X_n decomposition disagrees with d_i")
        kappa = ring.N[extra][extra][extra]
        return MRData(base, extra, kappa, tuple(d), sum(x * x for x in d))
    return None


def adjoint_and_grading(ring: FusionRing) -> GradingData:
    """Adjoint subring (closure of all X (x) X^*) and the universal grading
    it induces; components of rank 1 are flagged."""
    ring.require_valid()
    n, S, dual = ring.rank, ring.sparse, ring.dual
    adjoint = ring.closure([k for i in range(n) for k, _ in S[i][dual[i]]])

    def related(i: int, j: int) -> bool:
        return any(k in adjoint for k, _ in S[i][dual[j]])

    components: list[set[int]] = []
    for i in range(n):
        for comp in components:
            rep = next(iter(comp))
            if related(i, rep):
                comp.add(i)
                break
        else:
            components.append({i})
    comps = sorted((frozenset(c) for c in components), key=lambda c: (0 not in c, sorted(c)))
    if comps[0] != adjoint:
        raise InvalidRingError("unit component differs from the adjoint subring")
    index_of = {}
    for ci, comp in enumerate(comps):
        for i in comp:
            index_of[i] = ci
    table = []
    for ca in comps:
        row = []
        for cb in comps:
            targets = {index_of[k] for i in ca for j in cb for k, _ in S[i][j]}
            if len(targets) != 1:
                raise InvalidRingError("grading components do not multiply to one component")
            row.append(targets.pop())
        table.append(tuple(row))
    # group sanity: unit row/column, and each row/column a permutation
    if any(table[0][c] != c or table[c][0] != c for c in range(len(comps))):
        raise InvalidRingError("grading table has no unit")
    for row in table:
        if sorted(row) != list(range(len(comps))):
            raise InvalidRingError("grading table is not a group table")
    dims = fpdims(ring)
    if dims.all_exact:
        totals = []
        for comp in comps:
            t = QuadExt(0)
            for i in comp:
                t = t + dims.dims[i] * dims.dims[i]
            totals.append(t)
        if any(t != totals[0] for t in totals[1:]):
            raise InvalidRingError("graded components have unequal FP dimension")
    rank_one = tuple(ci for ci, comp in enumerate(comps) if len(comp) == 1 and ci != 0)
    return GradingData(adjoint, tuple(comps), tuple(table), rank_one)


class InvertibleGroup(NamedTuple):
    elements: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]  # products as basis indices
    fixes_extra: Optional[bool]  # every invertible fixes X_n, when MR


def invertibles(ring: FusionRing, mr: Optional[MRData] = None) -> InvertibleGroup:
    """Group of basis elements with X (x) X^* = 1 exactly."""
    ring.require_valid()
    n, N, S = ring.rank, ring.N, ring.sparse
    unit = tuple(int(k == 0) for k in range(n))
    elems = [i for i in range(n) if N[i][ring.dual[i]] == unit]
    table = []
    for g in elems:
        row = []
        for h in elems:
            terms = S[g][h]
            if len(terms) != 1 or terms[0][0] not in elems:
                raise InvalidRingError("invertibles are not closed")
            row.append(terms[0][0])
        table.append(tuple(row))
    fixes = None
    if mr is not None:
        fixes = all(
            ring.N[g][mr.extra][k] == (1 if k == mr.extra else 0)
            for g in elems
            for k in range(n)
        )
    return InvertibleGroup(tuple(elems), tuple(table), fixes)
