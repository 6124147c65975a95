"""Test-side helpers shared by several test modules: the exhaustive subring
oracle that `subrings` is compared against, the forgetful images of the
induced objects that `codegree_matrix` is compared against, a ring whose FP
dimensions lie outside every quadratic field, a noncommutative ring with
irrational dimensions, the SU(2)_k fusion rings, the Deligne product of two
rings, and the stdlib text that `canonical_dumps` is compared against."""

import itertools
import json

from mrfw.ring import FusionRing


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
            if all(set(ring.support(i, j)) <= s for i in s for j in s):
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
