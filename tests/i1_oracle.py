"""Unpruned reference oracles for the induced-unit system, shared by the
tests that compare `i1_dimension_system` against them: the per-summand
candidates as a filter over the whole coefficient box, one radicand at a
time, and the tilings as a plain list from the joint enumeration that the
library used before it counted them."""

import itertools
import math
import operator


def images_bruteforce(dims, bounds, target):
    """Every (1,) + c, c in the box prod(range(bounds[j] + 1)) for j >= 1 in
    lexicographic order, with 1 + sum c_j dims[j] == target.

    The sum is compared one radicand at a time, as integers over a common
    denominator: the dimensions may lie in several quadratic fields, and
    1, sqrt(D), sqrt(E) are linearly independent over Q."""
    values = (*dims, target)
    keys = sorted({1} | {v.D for v in values})
    parts = [[v.p if k == 1 else v.q if k == v.D else 0 for v in values] for k in keys]
    den = math.lcm(*(x.denominator for part in parts for x in part))
    cols = [[int(x * den) for x in part] for part in parts]
    box = ((1,) + c for c in itertools.product(*(range(b + 1) for b in bounds[1:])))
    return tuple(
        v for v in box if all(sum(map(operator.mul, v, col)) == col[-1] for col in cols)
    )


def tilings_bruteforce(summands, bounds):
    """Every choice of one candidate per summand with column sums `bounds`,
    in depth-first order; a summand with the codegree of its predecessor
    takes a candidate no smaller than the predecessor's."""
    solutions = []

    def rec(i, acc, colsum):
        if i == len(summands):
            if list(colsum) == list(bounds):
                solutions.append(tuple(acc))
            return
        prev_same = i > 0 and summands[i].codegree == summands[i - 1].codegree
        for v in summands[i].candidates:
            if prev_same and v < acc[-1]:
                continue
            ns = tuple(a + b for a, b in zip(colsum, v))
            if all(x <= y for x, y in zip(ns, bounds)):
                rec(i + 1, acc + [v], ns)

    rec(0, [], (0,) * len(bounds))
    return solutions
