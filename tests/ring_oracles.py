"""Test-side helpers shared by several test modules: the dense row scans
that the sparse structure-constant index replaced, the exhaustive subring
oracle that `subrings` is compared against, the forgetful images of the
induced objects that `codegree_matrix` is compared against, a ring whose FP
dimensions lie outside every quadratic field, a noncommutative ring with
irrational dimensions, the SU(2)_k fusion rings, the Deligne product of two
rings, and the stdlib text that `canonical_dumps` is compared against."""

import itertools
import json

from mrfw.ring import FusionRing
from mrfw.scalars import UnsupportedFieldError


def dense_supp(ring):
    """The nonzero (k, N_ij^k) of each pair (i, j), in ascending k, by a
    scan of the whole row: the reference for `FusionRing.sparse`."""
    return [[[(m, c) for m, c in enumerate(row) if c] for row in plane] for plane in ring.N]


def dense_support(ring, i, j):
    """The k with N_ij^k > 0, by a scan of the whole row."""
    return [k for k in range(ring.rank) if ring.N[i][j][k] > 0]


def dense_close(ring, closed, seed):
    """`FusionRing._close` scanning whole rows: the closure of
    closed | seed, each pair of taken elements expanded once."""
    N, dual = ring.N, ring.dual
    cur = {*closed, *seed}
    todo, done = list(seed - closed), list(closed)
    while todo:
        i = todo.pop()
        done.append(i)
        for j in done:
            for row in (N[i][j], N[j][i]):
                for k, c in enumerate(row):
                    if c and k not in cur:
                        new = {k, dual[k]} - cur
                        cur |= new
                        todo += new
    return frozenset(cur)


def dense_is_positive_character(ring, dims):
    """`ring._is_positive_character` scanning whole rows, with exact
    QuadExt arithmetic in place of integer coordinates: d_0 = 1, every
    d_i > 0 and d_i d_j = sum_k N_ij^k d_k for every ordered pair."""
    n, N = ring.rank, ring.N
    try:
        return dims[0] == 1 and all(d > 0 for d in dims) and all(
            dims[i] * dims[j] == sum(c * dims[k] for k, c in enumerate(N[i][j]) if c)
            for i in range(n) for j in range(n)
        )
    except UnsupportedFieldError:  # dimensions in two quadratic fields
        return False


def dense_grading(ring):
    """The adjoint subring, the universal grading's components (unit
    component first) and their group table, from `dense_support`."""
    ring.require_valid()
    n, dual = ring.rank, ring.dual
    seed = {k for i in range(n) for k in dense_support(ring, i, dual[i])}
    adjoint = dense_close(ring, frozenset(), {0, *seed, *(dual[k] for k in seed)})
    components = []
    for i in range(n):
        for comp in components:
            rep = next(iter(comp))
            if any(k in adjoint for k in dense_support(ring, i, dual[rep])):
                comp.add(i)
                break
        else:
            components.append({i})
    comps = sorted((frozenset(c) for c in components), key=lambda c: (0 not in c, sorted(c)))
    index_of = {i: ci for ci, comp in enumerate(comps) for i in comp}
    table = tuple(
        tuple(
            {index_of[k] for i in ca for j in cb for k in dense_support(ring, i, j)}.pop()
            for cb in comps
        )
        for ca in comps
    )
    return adjoint, tuple(comps), table


def dense_invertibles(ring):
    """The X with X (x) X* = 1 and their products, from `dense_support`."""
    ring.require_valid()
    n, N = ring.rank, ring.N
    unit = tuple(int(k == 0) for k in range(n))
    elems = tuple(i for i in range(n) if N[i][ring.dual[i]] == unit)
    table = tuple(
        tuple(dense_support(ring, g, h)[0] for h in elems) for g in elems
    )
    return elems, table


def subrings_bruteforce(ring):
    """2^n oracle: check the closure axioms on every basis subset."""
    ring.require_valid()
    out = []
    nonunit = [i for i in range(ring.rank) if i != 0]
    for r in range(len(nonunit) + 1):
        for extra in itertools.combinations(nonunit, r):
            s = frozenset((0,) + extra)
            if any(ring.dual[i] not in s for i in s):
                continue
            if all(set(dense_support(ring, i, j)) <= s for i in s for j in s):
                out.append(s)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def induction_images(ring):
    """FI[V][W]: multiplicity of X_W in the forgetful image of the object
    induced from X_V to the Drinfeld center, computed as the triple product
    sum over Y of Y (x) X_V (x) Y*."""
    ring.require_valid()
    n, N = ring.rank, ring.N
    FI = [[0] * n for _ in range(n)]
    for V in range(n):
        for Y in range(n):
            Ys = ring.dual[Y]
            for k in range(n):
                c = N[Y][V][k]
                if c:
                    for W in range(n):
                        FI[V][W] += c * N[k][Ys][W]
    return FI


def cubic_ring():
    """Basis 1, X, Y with XX = 1 + Y, XY = X + Y, YY = 1 + X + Y: a valid
    ring whose FP dimensions are roots of an irreducible cubic."""
    N = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        N[0][i][i] = N[i][0][i] = 1
    for i, j, ks in ((1, 1, (0, 2)), (1, 2, (1, 2)), (2, 2, (0, 1, 2))):
        for k in ks:
            N[i][j][k] = N[j][i][k] = 1
    return FusionRing(["1", "X", "Y"], N)


def haagerup_izumi_ring():
    """Z_3 = {g^a} and g^a rho, a in Z_3, at indices a and 3 + a:
    rho g = g^-1 rho and rho rho = 1 + sum_h g^h rho.  Noncommutative, and
    each g^a rho has dimension (3 + sqrt(13)) / 2."""
    N = [[[0] * 6 for _ in range(6)] for _ in range(6)]
    for a in range(3):
        for b in range(3):
            N[a][b][(a + b) % 3] = 1
            N[a][3 + b][3 + (a + b) % 3] = 1
            N[3 + a][b][3 + (a - b) % 3] = 1
            N[3 + a][3 + b][(a - b) % 3] = 1
            for h in range(3):
                N[3 + a][3 + b][3 + h] = 1
    return FusionRing([f"g{a}" for a in range(3)] + [f"g{a}rho" for a in range(3)], N)


def su2_ring(level):
    """SU(2)_level: V_0 .. V_level with the truncated Clebsch-Gordan rule,
    N_ab^c = 1 iff |a - b| <= c <= min(a + b, 2 level - a - b) and
    a + b + c is even."""
    n = level + 1
    N = [
        [
            [
                int(abs(a - b) <= c <= min(a + b, 2 * level - a - b) and (a + b + c) % 2 == 0)
                for c in range(n)
            ]
            for b in range(n)
        ]
        for a in range(n)
    ]
    return FusionRing([f"V{a}" for a in range(n)], N)


def deligne_product(R, S):
    """R x S, basis X_i x Y_j at index i * S.rank + j, with structure
    constants N_R * N_S."""
    m = S.rank
    labels = [f"{a}*{b}" for a in R.labels for b in S.labels]
    N = [
        [
            [R.N[i][k][p] * S.N[j][l][q] for p in range(R.rank) for q in range(m)]
            for k in range(R.rank) for l in range(m)
        ]
        for i in range(R.rank) for j in range(m)
    ]
    return FusionRing(labels, N)


def stdlib_dumps(doc) -> str:
    """The documented canonical form, written by the json module alone."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
