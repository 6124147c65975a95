"""Categorification obstructions from codegrees and induction-functor
feasibility.

The pipeline computes, purely from the fusion ring: the codegree matrix and
its exact eigenvalues, the images of the induction to the Drinfeld center
under the forgetful functor, the dimension system for the summands of the
induced unit, and finally a nonnegative-integer Gram factorization search
for the full Hom matrix of the induced objects.  Every verdict carries a
machine-checkable certificate.

"Feasible" always means "passes these necessary conditions"; it never
asserts that a categorification exists.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .ring import FusionRing, MRData, detect_mr, fpdims, global_fpdim
from .scalars import (
    ExactnessError,
    QuadExt,
    charpoly,
    factor_linear_quadratic,
    quad_compare,
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
    """M = sum over basis elements T of M_T * transpose(M_T), the matrix of
    left multiplication by sum T (x) T*.  Symmetric with nonnegative
    entries; its eigenvalues are the codegrees."""
    ring.require_valid()
    n = ring.rank
    M = [[0] * n for _ in range(n)]
    for T in range(n):
        MT = ring.left_matrix(T)
        for i in range(n):
            for j in range(n):
                M[i][j] += sum(MT[i][k] * MT[j][k] for k in range(n))
    return M


def codegrees(ring: FusionRing) -> tuple[QuadExt, ...]:
    """Exact codegrees in descending order, with multiplicity.

    Raises ExactnessError when the characteristic polynomial does not
    factor into linear and one quadratic factor over the integers."""
    return _codegrees_of(codegree_matrix(ring))


def _codegrees_of(M: list[list[int]]) -> tuple[QuadExt, ...]:
    fact = factor_linear_quadratic(charpoly(M))
    if fact.residual.degree > 0:
        raise ExactnessError(
            f"codegree polynomial has an unresolved factor of degree "
            f"{fact.residual.degree}"
        )
    roots = fact.all_roots()
    roots.sort(key=functools.cmp_to_key(quad_compare), reverse=True)
    return tuple(roots)


def induction_images(ring: FusionRing) -> list[list[int]]:
    """FI[V][W]: multiplicity of X_W in the image of the induced object of
    X_V under the forgetful functor, computed as the triple product
    sum over Y of Y (x) X_V (x) Y*."""
    ring.require_valid()
    n = ring.rank
    FI = [[0] * n for _ in range(n)]
    for V in range(n):
        for Y in range(n):
            Ys = ring.dual[Y]
            for k in range(n):
                c = ring.N[Y][V][k]
                if c:
                    for W in range(n):
                        FI[V][W] += c * ring.N[k][Ys][W]
    return FI


def hom_matrix(ring: FusionRing) -> list[list[int]]:
    """H[U][V] = dim Hom of the induced objects of X_U and X_V, equal to
    the multiplicity of X_V in the forgetful image of the induction of X_U.
    Symmetry is verified, not assumed."""
    H = induction_images(ring)
    n = len(H)
    for i in range(n):
        for j in range(i + 1, n):
            if H[i][j] != H[j][i]:
                raise ValueError(
                    f"Hom matrix asymmetry at ({i},{j}): "
                    f"{H[i][j]} != {H[j][i]}"
                )
    return H


@dataclass(frozen=True)
class InductionData:
    """Everything the obstruction pipeline derives before searching."""

    M: tuple[tuple[int, ...], ...]
    codegrees: tuple[QuadExt, ...]
    i1_dims: tuple[QuadExt, ...]  # candidate dims f_1/f_i of I(1) summands
    H: tuple[tuple[int, ...], ...]


def induction_data(ring: FusionRing) -> InductionData:
    M = codegree_matrix(ring)
    cod = _codegrees_of(M)
    total = global_fpdim(ring)
    if cod[0] != total:
        raise ExactnessError(
            "largest codegree does not equal the global FP dimension"
        )
    H = hom_matrix(ring)
    dims = tuple(total * f.inverse() for f in cod)
    return InductionData(
        tuple(tuple(r) for r in M),
        cod,
        dims,
        tuple(tuple(r) for r in H),
    )


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
    lines: list[str] = []
    summands: list[I1Summand] = []
    feasible = True
    for f, target in zip(data.codegrees, data.i1_dims):
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
            for vec in itertools.product(*ranges):
                s = QuadExt(1)
                for j, c in enumerate(vec):
                    if c:
                        s = s + c * d[j + 1]
                if s == target:
                    cands.append((1,) + vec)
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


def _row_dim_divides(row, dims, total, cache) -> bool:
    s = QuadExt(0)
    for c, d in zip(row, dims):
        if c:
            s = s + c * d
    key = (s.p, s.q, s.D)
    hit = cache.get(key)
    if hit is None:
        hit = (total * s.inverse()).is_algebraic_integer()
        cache[key] = hit
    return hit


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
    first witness found is deterministic."""
    n = len(H)
    log: list[str] = []
    R = [[int(x) for x in row] for row in H]
    for w in fixed_rows:
        for i in range(n):
            for j in range(n):
                R[i][j] -= w[i] * w[j]
    for i in range(n):
        for j in range(n):
            if R[i][j] < 0:
                log.append(
                    f"fixed rows overshoot H at ({i},{j}): residual "
                    f"{R[i][j]}"
                )
                return GramResult(INFEASIBLE, None, 0, tuple(log))
    total = dims and functools.reduce(
        lambda a, b: a + b, (d * d for d in dims)
    )
    div_cache: dict = {}
    caps = [math.isqrt(R[i][i]) for i in range(n)]
    free: list[tuple[int, ...]] = []
    for w in itertools.product(*[range(c, -1, -1) for c in caps]):
        if not any(w):
            continue
        if any(w[i] * w[j] > R[i][j] for i in range(n) for j in range(n)):
            continue
        if dims is not None and not _row_dim_divides(w, dims, total, div_cache):
            continue
        free.append(w)
    # descending lexicographic order for deterministic witnesses
    free.sort(reverse=True)
    nodes = 0

    def dfs(R, start) -> Optional[list[tuple[tuple[int, ...], int]]]:
        nonlocal nodes
        if all(R[i][j] == 0 for i in range(n) for j in range(n)):
            return []
        for i in range(n):
            if R[i][i] == 0 and any(R[i][j] for j in range(n)):
                return None  # exhausted column still has cross terms
        for idx in range(start, len(free)):
            w = free[idx]
            mmax = 0
            ok = True
            # largest multiplicity keeping the residual nonnegative
            limit = None
            for i in range(n):
                for j in range(n):
                    if w[i] * w[j]:
                        m = R[i][j] // (w[i] * w[j])
                        limit = m if limit is None else min(limit, m)
            if not limit:
                continue
            for m in range(limit, 0, -1):
                nodes += 1
                if nodes > node_cap:
                    raise NodeCapExceeded
                R2 = [
                    [R[i][j] - m * w[i] * w[j] for j in range(n)]
                    for i in range(n)
                ]
                tail = dfs(R2, idx + 1)
                if tail is not None:
                    return [(w, m)] + tail
        return None

    try:
        found = dfs(R, 0)
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


_RANK4_BASES = ("z3-pointed", "rep-s3")


def _rank4_ring(base: str, kappa: int) -> FusionRing:
    from .corpus import s3_base_ring, z3_base_ring

    if base == "z3-pointed":
        return z3_base_ring(kappa)
    if base == "rep-s3":
        return s3_base_ring(kappa)
    raise ValueError(f"unknown base {base!r}")


def _classify_cell(args: tuple[str, int, int]) -> tuple[str, int, str]:
    base, kappa, node_cap = args
    verdict = obstruct(_rank4_ring(base, kappa), node_cap)
    return base, kappa, verdict.status


def classify_rank4_mr(
    kappa_max: int,
    node_cap: int = DEFAULT_NODE_CAP,
    jobs: Optional[int] = None,
) -> ClassificationTable:
    """Run the pipeline for both rank-3 integral bases over the kappa
    range and merge the verdicts deterministically."""
    if kappa_max < 0:
        raise ValueError("kappa_max must be nonnegative")
    cells = [
        (base, k, node_cap)
        for base in _RANK4_BASES
        for k in range(kappa_max + 1)
    ]
    results: dict[tuple[str, int], str] = {}
    if jobs is not None and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for base, k, status in pool.map(_classify_cell, cells):
                results[(base, k)] = status
    else:
        for cell in cells:
            base, k, status = _classify_cell(cell)
            results[(base, k)] = status
    verdicts = tuple(
        (k, tuple(results[(base, k)] for base in _RANK4_BASES))
        for k in range(kappa_max + 1)
    )
    return ClassificationTable(kappa_max, _RANK4_BASES, verdicts)
