"""Independent checks of the benchmark's outputs.

Nothing here imports mrfw: the checks work on plain integers, fractions and
strings, and recompute what they need (the Hom matrix of the induced objects,
cyclotomic polynomials, the expected survivor sets) with their own code.

Each operation gets one of four outcomes:

- decided: it completed, its answer is definite and every check passed;
- inconclusive: a verdict hit its node cap on a cell that is also
  inconclusive in the reference, and no soundness rule is broken;
- refused: a ring analysis whose `detect_mr` raised `ValueError` on a ring
  above the documented subring-enumeration bound, all else being correct;
- failed: it raised anything else, or an answer is wrong.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

DECIDED = "decided"
INCONCLUSIVE = "inconclusive"
REFUSED = "refused"
FAILED = "failed"

# Rank above which `mrfw.ring.subrings`, and so `detect_mr`, raise ValueError.
SUBRING_RANK_BOUND = 12

# Two-class criterion, known from the groups' character tables.
TWO_CLASS_HOLDS = {
    "z2": None,  # order <= 2 is outside the criterion
    "z3": False,
    "z4": False,
    "z2xz2": False,
    "s3": True,
    "d8": True,
    "q8": True,
    "a4": True,
    "s4": False,
}


# ---------------------------------------------------------------------------
# reference tables


def table_sha256(table: dict) -> str:
    """SHA-256 of the canonical JSON of a verdict table."""
    text = json.dumps(table, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict_table(statuses: dict) -> dict:
    """Canonical verdict table {column: {kappa: status}} of a cell sweep."""
    table: dict = {}
    for key, status in statuses.items():
        table.setdefault(str(key[1]), {})[str(key[2])] = status
    return table


def load_reference(path: Path) -> dict:
    """Reference verdict tables, with each stored hash re-verified."""
    ref = json.loads(path.read_text(encoding="utf-8"))
    for name, entry in ref.items():
        if table_sha256(entry["table"]) != entry["sha256"]:
            raise ValueError(f"reference table {name} does not match its sha256")
    return ref


# ---------------------------------------------------------------------------
# number theory used by the soundness rules


def is_prime_power(m: int) -> bool:
    if m < 2:
        return False
    p = next(d for d in range(2, m + 1) if m % d == 0)
    while m % p == 0:
        m //= p
    return m == 1


def evans_gannon_allows(n: int, kappa: int) -> bool:
    """Near-group condition over Z_n (Evans-Gannon, arXiv:1208.1500)."""
    return kappa == n - 1 or kappa % n == 0


def known_categorifiable(n: int, kappa: int) -> bool:
    """C(Z_n, kappa) known to be categorifiable: Tambara-Yamagami
    (kappa = 0), or kappa = n - 1 with n + 1 a prime power."""
    return kappa == 0 or (kappa == n - 1 and is_prime_power(n + 1))


def rank4_survives(base: str, kappa: int) -> bool:
    """The paper's rank-4 survivor sets: {2} u 3Z over the pointed Z_3
    base, {0, 5} u 6Z over the representation ring of S_3."""
    if base == "z3-pointed":
        return kappa == 2 or kappa % 3 == 0
    if base == "rep-s3":
        return kappa in (0, 5) or kappa % 6 == 0
    raise ValueError(f"unknown rank-4 base {base!r}")


# ---------------------------------------------------------------------------
# Gram witnesses


def hom_matrix(N) -> list[list[int]]:
    """H[U][V] = dim Hom(Y (x) X_U (x) Y^*, X_V) summed over simple Y."""
    n = len(N)
    dual = [next(j for j in range(n) if N[i][j][0] == 1) for i in range(n)]
    H = [[0] * n for _ in range(n)]
    for U in range(n):
        for Y in range(n):
            for k in range(n):
                c = N[Y][U][k]
                if c:
                    for V in range(n):
                        H[U][V] += c * N[k][dual[Y]][V]
    return H


def witness_ok(rows, N) -> bool:
    """Rows are nonnegative integer vectors and N^T N equals H."""
    H = hom_matrix(N)
    n = len(H)
    if any(len(r) != n or any(x < 0 for x in r) for r in rows):
        return False
    for i in range(n):
        for j in range(n):
            if sum(r[i] * r[j] for r in rows) != H[i][j]:
                return False
    return True


# ---------------------------------------------------------------------------
# per-operation classification


def check_cell(key, facts: dict, reference_status: str | None) -> tuple[str, str]:
    """Obstruction cell of rank4-sweep or near-group-gram."""
    status = facts["status"]
    if key[0] == "near-group":
        _, n, kappa = key
        if status == "infeasible" and known_categorifiable(n, kappa):
            return FAILED, "known-categorifiable ring declared infeasible"
        if status == "feasible" and not evans_gannon_allows(n, kappa):
            return FAILED, "feasible outside the Evans-Gannon condition"
    elif status != "inconclusive":
        survives = rank4_survives(key[1], key[2])
        if (status == "feasible") != survives:
            return FAILED, f"{status} contradicts the rank-4 survivor set"
    if reference_status is None:
        return FAILED, "no reference verdict"
    if reference_status != "inconclusive" and status != reference_status:
        return FAILED, f"{status} differs from reference {reference_status}"
    if status == "feasible" and not witness_ok(facts["witness"], facts["N"]):
        return FAILED, "witness fails N^T N = H"
    if facts.get("roundtrip") is False:
        return FAILED, "certificate changed in a serialize round trip"
    if status == "inconclusive":
        return INCONCLUSIVE, "node cap reached"
    return DECIDED, status


def _is_extra_dim(d, a: int, kappa: int) -> bool:
    """d = (p, q, D) is the positive root of x^2 - kappa x - a."""
    p, q, D = d
    if p * p + q * q * D - kappa * p - a != 0 or q * (2 * p - kappa) != 0:
        return False
    return q > 0 or (q == 0 and p > 0)


def check_ring(key, facts: dict) -> tuple[str, str]:
    """Analysis of C(Z_a, kappa), rank a + 1: validate, fpdims, grading,
    invertibles and detect_mr."""
    _, a, kappa = key
    one = (Fraction(1), Fraction(0), 1)
    dims = facts["dims"]
    wrong = []
    if facts["violations"]:
        wrong.append("validate")
    if not (facts["exact"] and dims[:a] == [one] * a and _is_extra_dim(dims[a], a, kappa)
            and dims[a] == facts["mr_fpdim"]):
        wrong.append("fpdims")
    if (facts["grading_order"], facts["adjoint"]) != (
        (2, list(range(a))) if kappa == 0 else (1, list(range(a + 1)))
    ):
        wrong.append("grading")
    if facts["invertibles"] != list(range(a)) or facts["invertible_table"] != [
        [(i + j) % a for j in range(a)] for i in range(a)
    ]:
        wrong.append("invertibles")
    error = facts["detect_mr_error"]
    refused = error is not None and a + 1 > SUBRING_RANK_BOUND and error.startswith("ValueError:")
    if error is not None and not refused:
        wrong.append(f"detect_mr raised {error}")
    elif error is None and facts["detect_mr"] != {
        "base": list(range(a)), "extra": a, "kappa": kappa, "dims": [1] * a, "a": a
    }:
        wrong.append("detect_mr")
    if wrong:
        return FAILED, "wrong: " + ", ".join(wrong)
    return (REFUSED, error) if refused else (DECIDED, "ring analysis")


def expected_degeneracy(n: int) -> str:
    """Class of pointed Z_n with twists zeta_n^(k^2): the braiding
    zeta_n^(2jk) centralizes {j : n | 2j}; the order-2 element has twist
    -1 exactly when n = 2 mod 4."""
    if n <= 2:
        return "symmetric"
    if n % 2:
        return "non-degenerate"
    return "slightly-degenerate" if n % 4 == 2 else "properly-degenerate"


def _fusion_ok(N, degrees) -> bool:
    n = len(N)
    for i in range(n):
        if sum(1 for j in range(n) if N[i][j][0]) != 1:
            return False
        for j in range(n):
            if N[i][j] != N[j][i]:
                return False
            if sum(N[i][j][k] * degrees[k] for k in range(n)) != degrees[i] * degrees[j]:
                return False
    return True


def check_table(key, facts: dict) -> tuple[str, str]:
    """Analysis of a character table (validate_table, fusion_from_table,
    theorem57_check) or of pointed Z_n (premodular_data, degeneracy_class)."""
    kind, family, ident = key
    if kind == "premodular":
        ok = facts["s_matches"] and facts["label"] == expected_degeneracy(ident)
    elif family == "cyclic":
        # chi_i chi_j = chi_(i+j) in Z_n; abelian groups of order > 2 have
        # no two-class character
        N = facts["N"]
        n = len(N)
        ok = facts["problems"] == 0 and facts["two_class"] is False and all(
            N[i][j][k] == (1 if k == (i + j) % n else 0)
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )
    else:
        ok = (
            facts["problems"] == 0
            and _fusion_ok(facts["N"], facts["degrees"])
            and facts["two_class"] is TWO_CLASS_HOLDS[ident]
        )
    return (DECIDED, kind) if ok else (FAILED, f"{kind} analysis of {family} {ident} is wrong")


# ---------------------------------------------------------------------------
# plain-fraction references for the scalar micro-benchmarks


def cyclotomic_poly(n: int) -> list[int]:
    """Coefficients of Phi_n, lowest degree first: x^n - 1 divided by
    Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            div = cyclotomic_poly(d)
            quot = [0] * (len(poly) - len(div) + 1)
            rem = poly[:]
            for i in range(len(quot) - 1, -1, -1):
                c = rem[i + len(div) - 1]  # divisor is monic
                quot[i] = c
                for j, b in enumerate(div):
                    rem[i + j] -= c * b
            poly = quot
    return poly


def cyc_mul_reference(x, y, n: int) -> tuple[Fraction, ...]:
    """Coefficients of x*y in Q(zeta_n), x and y given as coefficient
    vectors in powers of zeta_n, reduced modulo Phi_n."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    prod = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += Fraction(a) * Fraction(b)
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c:
            for j, b in enumerate(phi):
                prod[i - deg + j] -= c * b
    return tuple((prod + [Fraction(0)] * deg)[:deg])


def quad_madd_reference(x, y) -> tuple[Fraction, Fraction]:
    """(p, q) of x*y + y for x = (p, q, D) and y = (p', q', D)."""
    p1, q1, D = x
    p2, q2, _ = y
    return p1 * p2 + q1 * q2 * D + p2, p1 * q2 + q1 * p2 + q2


def det_fraction(M) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    A = [[Fraction(v) for v in row] for row in M]
    n = len(A)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if A[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            A[c], A[pivot] = A[pivot], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            f = A[r][c] / A[c][c]
            if f:
                for k in range(c, n):
                    A[r][k] -= f * A[c][k]
    return det


def charpoly_ok(M, coeffs) -> bool:
    """coeffs (lowest degree first) agree with det(tI - M) at n + 1 points,
    which fixes a polynomial of degree n."""
    n = len(M)
    if len(coeffs) != n + 1:
        return False
    for t in range(n + 1):
        shifted = [[(t if i == j else 0) - M[i][j] for j in range(n)] for i in range(n)]
        value = sum(c * t**k for k, c in enumerate(coeffs))
        if det_fraction(shifted) != value:
            return False
    return True


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least 10 of `count` samples above
    its nearest-rank value."""
    if count < 11:
        raise ValueError("a tail percentile needs at least 11 samples")
    return 100 * (count - 10) // count


def nearest_rank(values: list, pct: int):
    """Nearest-rank pct-th percentile of sorted values."""
    return values[max(0, math.ceil(pct * len(values) / 100) - 1)]
