"""Reference oracles for Gram factorization, shared by the tests that
compare `gram_search` against them: an unpruned search, and the search's
set-up in its eager form.

The set-up reference checks what `_free_rows` adds to the library's
`_dimension_screen`: its rows, their order and masks, and the screen sums
it carries down.  A copy of the screen's formula would share its faults,
so the formula is checked against `QuadExt` in `TestIntegerScreens`."""

import itertools
import math

from mrfw.obstruction import _dimension_screen, _dot


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
        # the diagonal alone rejects most rows, and R only falls along a
        # branch, so a row rejected here is rejected at every descendant
        allowed = [
            w for w in allowed if all(w[i] * w[i] <= R[i][i] for i in range(n))
        ]
        for k, w in enumerate(allowed):
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
    row the library's screen gets one dot product per coordinate over the
    whole row; and each admitted row's products scan all n(n+1)/2 pairs."""
    n = len(H)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    pos = [[0] * n for _ in range(n)]
    for p, (i, j) in enumerate(pairs):
        pos[i][j] = pos[j][i] = p
    R = [int(H[i][j]) - sum(w[i] * w[j] for w in fixed_rows) for i, j in pairs]
    cols, divides = ((), None) if dims is None else _dimension_screen(dims)
    free = []
    prefix = [0] * n

    def admissible(i):
        if i == n:
            row = tuple(prefix)
            sums = [_dot(row, c) for c in zip(*cols)]
            if any(row) and (divides is None or divides(row, sums)):
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
