"""Reference oracles for Gram factorization, shared by the tests that
compare `gram_search` against them: an unpruned search, and the search's
set-up in its eager form."""

import itertools
import math

from mrfw.obstruction import _dot
from mrfw.scalars import UnsupportedFieldError, _integer_field


class OracleBudgetExceeded(Exception):
    """The oracle visited more nodes than its budget."""


def gram_bruteforce(H, budget=200_000):
    """Whether H is a sum of outer products w w^T of nonzero nonnegative
    integer rows w.

    Naive and independent of `gram_search`: every multiset of rows, no
    ordering heuristics, no admissibility filters beyond residual
    nonnegativity.  Raises OracleBudgetExceeded after `budget` nodes
    instead of running unboundedly."""
    n = len(H)
    rows = [
        w
        for w in itertools.product(
            *[range(math.isqrt(max(H[i][i], 0)) + 1) for i in range(n)]
        )
        if any(w)
    ]
    nodes = 0

    def rec(R, allowed):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise OracleBudgetExceeded
        if all(R[i][j] == 0 for i in range(n) for j in range(n)):
            return True
        for k, w in enumerate(allowed):
            # the diagonal alone rejects most rows; R2 would be negative there
            if any(w[i] * w[i] > R[i][i] for i in range(n)):
                continue
            R2 = [[R[i][j] - w[i] * w[j] for j in range(n)] for i in range(n)]
            if any(R2[i][j] < 0 for i in range(n) for j in range(n)):
                continue
            if rec(R2, allowed[k:]):
                return True
        return False

    return rec([[int(x) for x in row] for row in H], rows)


def eager_free_rows(H, fixed_rows=(), dims=None):
    """The Gram search's set-up in its eager form, as a reference for
    `obstruction._free_rows`: `(R, pos, free, prods, masks)`.

    R is the residual H - sum w w^T of the fixed rows as an upper triangle,
    entry (i, j) at `pos[i][j]`.  Every row is enumerated entry by entry,
    each entry bounded against all the entries before it; at each complete
    row the screen takes one dot product per coordinate over the whole
    row; and each admitted row's products scan all n(n+1)/2 pairs."""
    n = len(H)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    pos = [[0] * n for _ in range(n)]
    for p, (i, j) in enumerate(pairs):
        pos[i][j] = pos[j][i] = p
    R = [int(H[i][j]) - sum(w[i] * w[j] for w in fixed_rows) for i, j in pairs]
    divides = None
    if dims is not None:
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

    free = []
    prefix = [0] * n

    def admissible(i):
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
    prods = [
        tuple((p, w[i] * w[j]) for p, (i, j) in enumerate(pairs) if w[i] * w[j])
        for w in free
    ]
    masks = [sum(1 << p for p, _ in pr) for pr in prods]
    return R, pos, free, prods, masks
