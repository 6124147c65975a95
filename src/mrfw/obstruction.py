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

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .corpus import cyclic_ring, rep_s3_ring
from .mr import mr_extend
from .ring import FusionRing, MRData, detect_mr, fpdims, global_fpdim, left_charpoly
from .scalars import (
    ExactnessError,
    QuadExt,
    UnsupportedFieldError,
    _integer_field,
    factor_linear_quadratic,
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
    n, N, dual = ring.rank, ring.N, ring.dual
    return ring.element_matrix(
        [sum(N[t][dual[t]][m] for t in range(n)) for m in range(n)]
    )


def codegrees(ring: FusionRing) -> tuple[QuadExt, ...]:
    """Exact codegrees in descending order, with multiplicity.

    The codegrees are the formal codegrees of the ring (Ostrik,
    arXiv:0810.3242): the eigenvalues of the codegree matrix, which is
    symmetric with nonnegative integer entries, so they are real and at
    most its largest row sum.  Raises ExactnessError when the
    characteristic polynomial does not split into linear and quadratic
    factors over the integers."""
    return _codegrees_of(ring, codegree_matrix(ring))


def _codegrees_of(ring: FusionRing, M: list[list[int]]) -> tuple[QuadExt, ...]:
    """Codegrees from the codegree matrix M of `ring`."""
    fact = factor_linear_quadratic(left_charpoly(ring, M), max(map(sum, M)))
    if fact.residual.degree > 0:
        raise ExactnessError(
            f"codegree polynomial has an unresolved factor of degree "
            f"{fact.residual.degree}"
        )
    return tuple(sorted(fact.all_roots(), reverse=True))


@dataclass(frozen=True)
class InductionData:
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
    arXiv:1309.4822).  Raises ValueError on a noncommutative ring."""
    ring.require_valid()
    if not ring.is_commutative:
        raise ValueError(
            "induction data needs a commutative ring: the Hom matrix of "
            "the induced objects is the codegree matrix only then"
        )
    H = codegree_matrix(ring)
    cod = _codegrees_of(ring, H)
    total = global_fpdim(ring)
    if cod[0] != total:
        raise ExactnessError(
            "largest codegree does not equal the global FP dimension"
        )
    dims = tuple(total / f for f in cod)
    return InductionData(cod, dims, tuple(map(tuple, H)))


@dataclass(frozen=True)
class I1Summand:
    """One summand of the induced unit: its codegree, its forced dimension
    f_1/f_i, and the admissible forgetful-image coefficient vectors."""

    codegree: QuadExt
    target_dim: QuadExt
    is_algebraic_integer: bool
    forced_extra: Optional[Fraction]  # forced coefficient on the
    # irrational-dimension basis element, when the split applies
    candidates: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class I1Result:
    status: str  # feasible / infeasible / inconclusive
    summands: tuple[I1Summand, ...]
    solutions: tuple[tuple[tuple[int, ...], ...], ...]
    lines: tuple[str, ...]


def _irrational_indices(dims) -> list[int]:
    return [j for j, d in enumerate(dims) if not d.is_rational]


def _dot(row, coeffs) -> int:
    return sum(map(operator.mul, row, coeffs))


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
    is recorded in the certificate."""
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
    lines: list[str] = []
    summands: list[I1Summand] = []
    feasible = True
    for k, (f, target) in enumerate(zip(data.codegrees, data.i1_dims)):
        alg = target.is_algebraic_integer()
        if not alg:
            lines.append(
                f"codegree {f}: summand dimension {target} is not an "
                f"algebraic integer"
            )
        forced: Optional[Fraction] = None
        forced_ok = True
        if len(irr) == 1:
            # exactly one basis element carries the irrational part, so
            # the irrational half of the dimension equation pins its
            # coefficient
            m = irr[0]
            q_m = d[m].q
            forced = target.q / q_m
            forced_ok = forced.denominator == 1 and forced >= 0
            if mr is not None and m == mr.extra and f.is_rational:
                fi = f.as_fraction()
                lines.append(
                    f"codegree {f}: irrational branch forces "
                    f"kappa - {fi}*a{m} = 0"
                    + ("" if forced_ok else
                       f"; kappa = {mr.kappa} admits no nonnegative "
                       f"integer a{m}")
                )
            elif not forced_ok:
                lines.append(
                    f"codegree {f}: irrational part forces coefficient "
                    f"{forced} on basis element {m}, not a nonnegative "
                    f"integer"
                )
        cands: list[tuple[int, ...]] = []
        if alg and forced_ok:
            ranges = []
            for j in range(1, n):
                if forced is not None and j == irr[0]:
                    ranges.append((int(forced),))
                else:
                    ranges.append(tuple(range(bounds[j] + 1)))
            checks = [(r, t[k]) for r, t in eqs]
            cands = [
                (1,) + vec for vec in itertools.product(*ranges)
                if all(_dot(vec, r) == t for r, t in checks)
            ]
            if not cands:
                lines.append(
                    f"codegree {f}: no nonnegative integer image with "
                    f"dimension {target} within the induced-unit bounds"
                )
        summands.append(
            I1Summand(f, target, alg, forced, tuple(cands))
        )
        if not (alg and forced_ok and summands[-1].candidates):
            feasible = False
    if not feasible:
        return I1Result(INFEASIBLE, tuple(summands), (), tuple(lines))
    # joint enumeration: the candidate rows must tile the induced unit
    solutions: list[tuple[tuple[int, ...], ...]] = []

    def rec(i: int, acc: list[tuple[int, ...]], colsum: tuple[int, ...]):
        if i == len(summands):
            if list(colsum) == list(bounds):
                solutions.append(tuple(acc))
            return
        prev_same = (
            i > 0 and summands[i].codegree == summands[i - 1].codegree
        )
        for v in summands[i].candidates:
            if prev_same and v < acc[-1]:
                continue  # equal codegrees: summands interchangeable
            ns = tuple(a + b for a, b in zip(colsum, v))
            if all(x <= y for x, y in zip(ns, bounds)):
                rec(i + 1, acc + [v], ns)

    rec(0, [], (0,) * n)
    if not solutions:
        lines.append(
            "per-summand images exist but no assignment reproduces the "
            "induced unit exactly"
        )
        return I1Result(INFEASIBLE, tuple(summands), (), tuple(lines))
    return I1Result(FEASIBLE, tuple(summands), tuple(solutions), tuple(lines))


class NodeCapExceeded(Exception):
    """Search aborted after visiting the configured number of nodes."""


@dataclass(frozen=True)
class GramWitness:
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


@dataclass(frozen=True)
class GramResult:
    status: str  # feasible / infeasible / inconclusive
    witness: Optional[GramWitness]
    nodes: int
    log: tuple[str, ...]


def _dimension_screen(dims: tuple[QuadExt, ...]):
    """Predicate on rows: does the dimension of the row's image divide the
    global dimension?

    The test runs in integers.  With dims scaled to integer coordinates
    over den, each d^2 stays in the field of d, so the global dimension is
    (ga + gb*sqrt(D)) / den^2 and a row's dimension is (A + B*sqrt(D)) / den.
    Their quotient is (P + Q*sqrt(D)) / M, an algebraic integer iff its
    trace and norm are integers.  Raises UnsupportedFieldError when the
    global dimension, or a row's dimension together with it, spans two
    quadratic fields."""
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

    def divides(row) -> bool:
        A = _dot(row, ra)
        D, B = gD, 0
        for E, b in irr:
            x = _dot(row, b)
            if x:
                if B or (gb and E != gD):
                    raise UnsupportedFieldError(
                        f"the dimension of row {row} and the global "
                        f"dimension span two quadratic fields"
                    )
                D, B = E, x
        P = ga * A - gb * B * D
        Q = gb * A - ga * B
        M = den * (A * A - B * B * D)
        return 2 * P % M == 0 and (P * P - Q * Q * D) % (M * M) == 0

    return divides


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
    divides = None if dims is None else _dimension_screen(dims)
    # admissible rows in descending lexicographic order: w_i * w_j <= R_ij
    # for every pair, so each entry is bounded by those before it
    free: list[tuple[int, ...]] = []
    prefix = [0] * n

    def admissible(i: int) -> None:
        if i == n:
            row = tuple(prefix)
            if any(row) and (divides is None or divides(row)):
                free.append(row)
            return
        top = math.isqrt(R[pos[i][i]])
        for j in range(i):
            if prefix[j]:
                top = min(top, R[pos[j][i]] // prefix[j])
        for x in range(top, -1, -1):
            prefix[i] = x
            admissible(i + 1)
        prefix[i] = 0

    admissible(0)
    # per row: its (entry, w_i * w_j) products and their bitmask
    prods = [
        tuple((p, w[i] * w[j]) for p, (i, j) in enumerate(pairs) if w[i] * w[j])
        for w in free
    ]
    masks = [sum(1 << p for p, _ in pr) for pr in prods]
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

    def dfs(R, live, start) -> Optional[list[tuple[tuple[int, ...], int]]]:
        # live: bitmask of the positive residual entries
        nonlocal nodes
        if not live:
            return []
        for diag, cross in columns:
            if not live & diag and live & cross:
                return None  # exhausted column still has cross terms
        for idx in range(start, len(free)):
            if live & uncovered[idx]:
                return None  # cover rule
            if masks[idx] & ~live:
                continue  # the row meets an entry already cleared
            # largest multiplicity keeping the residual nonnegative
            limit = min(R[p] // c for p, c in prods[idx])
            for m in range(limit, 0, -1):
                nodes += 1
                if nodes > node_cap:
                    raise NodeCapExceeded
                R2 = R[:]
                live2 = live
                for p, c in prods[idx]:
                    R2[p] -= m * c
                    if not R2[p]:
                        live2 ^= 1 << p
                tail = dfs(R2, live2, idx + 1)
                if tail is not None:
                    return [(free[idx], m)] + tail
        return None

    try:
        found = dfs(R, sum(1 << p for p, r in enumerate(R) if r), 0)
    except NodeCapExceeded:
        log.append(f"node cap {node_cap} exceeded")
        return GramResult(INCONCLUSIVE, None, nodes, tuple(log))
    if found is None:
        log.append(
            f"exhausted {len(free)} admissible rows in {nodes} nodes "
            f"without completing H"
        )
        return GramResult(INFEASIBLE, None, nodes, tuple(log))
    witness = GramWitness(tuple(fixed_rows), tuple(found))
    # re-verify the witness before reporting it
    G = [[0] * n for _ in range(n)]
    for w in witness.all_rows():
        for i in range(n):
            for j in range(n):
                G[i][j] += w[i] * w[j]
    assert [list(r) for r in G] == [list(r) for r in H]
    return GramResult(FEASIBLE, witness, nodes, tuple(log))


@dataclass(frozen=True)
class ObstructionVerdict:
    """Outcome of the full pipeline with a replayable certificate."""

    status: str  # infeasible / feasible / inconclusive
    stage: Optional[str]  # stage that decided: codegrees / i1 / gram
    steps: tuple[str, ...]
    data: Optional[InductionData] = None
    i1: Optional[I1Result] = None
    gram: tuple[GramResult, ...] = ()
    witness: Optional[GramWitness] = None
    meaning: str = FEASIBLE_MEANING


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
    if i1.status == INCONCLUSIVE:
        return ObstructionVerdict(INCONCLUSIVE, "i1", tuple(steps), data, i1)
    if i1.status == INFEASIBLE:
        return ObstructionVerdict(INFEASIBLE, "i1", tuple(steps), data, i1)
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


@dataclass(frozen=True)
class ClassificationTable:
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
    bases = {"z3-pointed": cyclic_ring(3), "rep-s3": rep_s3_ring()}
    for base in bases.values():
        fpdims(base)  # validated once; the cached facts pickle with the ring
    cells = [
        (name, base, k, node_cap)
        for name, base in bases.items()
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
        (k, tuple(results[(name, k)] for name in bases))
        for k in range(kappa_max + 1)
    )
    return ClassificationTable(kappa_max, tuple(bases), verdicts)
