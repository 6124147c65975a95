"""Unpruned reference oracle for Gram factorization, shared by the tests
that compare `gram_search` against it."""

import itertools
import math


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
