"""Character tables over cyclotomic fields and the two-class nonvanishing
criterion.

A finite group whose representation ring contains a corank-one based subring
is exactly a group with an irreducible character vanishing outside two
conjugacy classes.  This module ingests exact character tables, rebuilds the
fusion ring of representations from them, and checks both sides of that
equivalence independently.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .ring import FusionRing, detect_mr
from .scalars import CycNumber, RationalLike, _fact, _Frozen, _packed_field


def _as_cyc(x: CycNumber | RationalLike) -> CycNumber:
    if isinstance(x, CycNumber):
        return x
    return CycNumber.from_rational(x)


class CharacterTable(_Frozen):
    """Exact character table of a finite group.

    Rows are irreducible characters, columns are conjugacy classes, and
    column 0 is the class of the identity.  All values are cyclotomic
    numbers; the constructor coerces plain rationals.

    Instances are immutable, so each fact the module derives from a table
    is computed once and cached on it by `scalars._fact`: the table's lift
    to packed integer coordinates (`_lifted`), the `validate_table`
    problems and the `fusion_from_table` ring.  A check that raises caches
    nothing, so it raises the same error on every call.  The cache,
    `_facts`, is no part of the table's value: equality, hash and repr
    ignore it, and pickle and copy keep it.
    """

    __slots__ = ("order", "class_sizes", "characters", "name", "inverse_perm", "_facts")

    def __init__(
        self,
        order: int,
        class_sizes: Sequence[int],
        characters: Sequence[Sequence[CycNumber | RationalLike]],
        name: str = "",
        inverse_perm: Optional[Sequence[int]] = None,
    ):
        values = (
            int(order),
            tuple(int(s) for s in class_sizes),
            tuple(tuple(_as_cyc(v) for v in row) for row in characters),
            name,
            None if inverse_perm is None else tuple(int(i) for i in inverse_perm),
            {},
        )
        for slot, value in zip(self.__slots__, values):
            object.__setattr__(self, slot, value)

    def _key(self) -> tuple:
        return super()._key()[:-1]  # less `_facts`

    @property
    def k(self) -> int:
        """Number of conjugacy classes (= number of irreducible characters)."""
        return len(self.class_sizes)

    @property
    def centralizer_orders(self) -> tuple[int, ...]:
        return tuple(self.order // s for s in self.class_sizes)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(int(row[0].as_fraction()) for row in self.characters)


def _lift(t: CharacterTable, factors: int) -> tuple:
    """`(den, rows, conj, rational)`: `_packed_field` of the table's values
    for sums of products of up to `factors` of them weighted by class
    sizes, where `rows[i][c]` and `conj[i][c]` are chi_i at class c and
    its conjugate, packed.  Taken once per table, by `_lifted`."""
    _, den, nums, conjs, _, rational, _ = _packed_field(
        (v for row in t.characters for v in row),
        sum(map(abs, t.class_sizes)),
        factors,
    )
    rows, conj, at = [], [], 0
    for row in t.characters:
        rows.append(nums[at:at + len(row)])
        conj.append(conjs[at:at + len(row)])
        at += len(row)
    return den, rows, conj, rational


def _lifted(t: CharacterTable) -> tuple:
    """The table's lift, cached: taken once, at 3 factors, which is wide
    enough for the multiplicity sums, and so for every sum of fewer values
    (`_packed_field`: a wider slot reads the same sums)."""
    return _fact(t, "lift", lambda t: _lift(t, 3))


def _inverse_perm_problem(t: CharacterTable, rows: list, conj: list) -> Optional[str]:
    """What is wrong with the table's stored inverse-class permutation, at
    the first bad class: it is not a permutation of the k classes, or
    chi(g^-1) != conj(chi(g)) for some character chi."""
    perm, k = t.inverse_perm, t.k
    seen: set[int] = set()
    for c in range(max(len(perm), k)):
        if c >= len(perm) or not 0 <= perm[c] < k or perm[c] in seen:
            return f"inverse_perm is not a permutation of the {k} classes at class {c}"
        seen.add(perm[c])
    for c, p in enumerate(perm):
        if any(conj[i][c] != rows[i][p] for i in range(k)):
            return f"inverse_perm sends class {c} to {p}, not to its inverse class"
    return None


def validate_table(t: CharacterTable) -> list[str]:
    """Check the defining identities of a character table exactly.

    Returns a list of violation messages, empty when the table is
    consistent.  Each message names the first pair of rows or columns
    witnessing the failure of that identity.
    """
    return list(_fact(t, "validate", _validate))


def _validate(t: CharacterTable) -> tuple[str, ...]:
    den, packed, packed_conj, rational = _lifted(t)
    problems: list[str] = []
    k = t.k
    if sum(t.class_sizes) != t.order:
        problems.append(
            f"class sizes sum to {sum(t.class_sizes)}, group order is {t.order}"
        )
    for j, s in enumerate(t.class_sizes):
        if s <= 0 or t.order % s != 0:
            problems.append(f"class {j} size {s} does not divide order {t.order}")
    if k == 0:
        problems.append("table has no conjugacy classes")
        return tuple(problems)
    if len(t.characters) != k or any(len(row) != k for row in t.characters):
        problems.append("character matrix is not square of size k")
        return tuple(problems)
    if t.class_sizes[0] != 1:
        problems.append("column 0 must be the identity class of size 1")
    if any(v != 1 for v in t.characters[0]):
        problems.append("first row is not the trivial character")
    degs: list[Fraction] = []
    for i, row in enumerate(t.characters):
        v = row[0]
        if not v.is_rational or v.as_fraction().denominator != 1 or v.as_fraction() <= 0:
            problems.append(f"degree of character {i} is not a positive integer")
            return tuple(problems)
        degs.append(v.as_fraction())
    if sum(d * d for d in degs) != t.order:
        problems.append("sum of squared degrees does not equal the group order")
    if t.inverse_perm is not None:
        problem = _inverse_perm_problem(t, packed, packed_conj)
        if problem:
            problems.append(problem)
    # every coordinate carries den, so a product of two values carries den^2
    den2 = den * den
    # each sum below has k terms of two values: a row sum weighted by class
    # sizes, which may be zero or negative here, or a column sum, which runs
    # only when every size is at least 1, so Sum |s_c| bounds its weights too
    sized = [list(map(mul, t.class_sizes, row)) for row in packed_conj]
    for i in range(k):
        for j in range(i, k):
            want = t.order if i == j else 0
            if rational(sum(map(mul, sized[j], packed[i]))) != want * den2:
                problems.append(
                    f"row orthogonality fails for characters ({i}, {j})"
                )
    if any(s <= 0 for s in t.class_sizes):
        # reported above; the centralizer orders below divide by the sizes
        return tuple(problems)
    columns = list(zip(*packed))
    conj_columns = list(zip(*packed_conj))
    for c in range(k):
        for d in range(c, k):
            want = t.order // t.class_sizes[c] if c == d else 0
            if rational(sum(map(mul, conj_columns[d], columns[c]))) != want * den2:
                problems.append(
                    f"column orthogonality fails for classes ({c}, {d})"
                )
    return tuple(problems)


def fusion_from_table(t: CharacterTable) -> FusionRing:
    """Fusion ring of representations, from characters alone.

    The multiplicity of the k-th irreducible in the product of the i-th and
    j-th is the inner product of chi_i*chi_j with chi_k, a class-size
    weighted sum divided by the group order.  Any non-integer multiplicity
    means the table is inconsistent and raises ValueError.
    """
    return _fact(t, "fusion", _fusion)


def _fusion(t: CharacterTable) -> FusionRing:
    den, packed, packed_conj, rational = _lifted(t)
    kcount = t.k
    if t.order <= 0:
        raise ValueError(f"group order {t.order} is not positive")
    # each term is a class size times three values, each carrying den
    scale = den ** 3 * t.order
    sized = [list(map(mul, t.class_sizes, row)) for row in packed_conj]
    N = [[[0] * kcount for _ in range(kcount)] for _ in range(kcount)]
    # chi_i chi_j = chi_j chi_i pointwise, so N[i][j] = N[j][i]; pairs and
    # multiplicities are visited in index order, so the first bad entry
    # reported is the same as in a full (i, j, m) scan
    for i in range(kcount):
        for j in range(i, kcount):
            # chi_i chi_j unreduced, so each multiplicity is one remainder
            products = list(map(mul, packed[i], packed[j]))
            for m in range(kcount):
                acc = rational(sum(map(mul, sized[m], products)))
                if acc is None:
                    raise ValueError(
                        f"multiplicity ({i}, {j}, {m}) is irrational"
                    )
                q, r = divmod(acc, scale)
                if r or q < 0:
                    raise ValueError(
                        f"multiplicity ({i}, {j}, {m}) = "
                        f"{Fraction(acc, scale)} is not a nonnegative integer"
                    )
                N[i][j][m] = N[j][i][m] = q
    labels = [f"chi{i + 1}" for i in range(kcount)]
    ring = FusionRing(labels, N)
    report = ring.validate()
    if report:
        raise ValueError(f"table induces an invalid fusion ring: {report[0]}")
    return ring


class GagolaWitness(NamedTuple):
    """Character vanishing outside exactly two conjugacy classes."""

    char_index: int
    nonvanishing_classes: tuple[int, int]


def gagola_condition(t: CharacterTable) -> Optional[GagolaWitness]:
    """First character (by row order) nonzero on exactly two classes."""
    for i, row in enumerate(t.characters):
        support = tuple(j for j, v in enumerate(row) if not v.is_zero)
        if len(support) == 2:
            return GagolaWitness(i, (support[0], support[1]))
    return None


class GagolaReport(NamedTuple):
    """Both sides of the two-class criterion, computed independently.

    `witness` is the character-theoretic side; `mr_basis` is the
    ring-theoretic side (the corank-one based subring of the fusion ring,
    when present).  `kernel_classes` is the common kernel of the
    non-witness characters, as a set of class indices; on a positive
    instance it is exactly the witness support.
    """

    witness: Optional[GagolaWitness]
    mr_basis: Optional[tuple[int, ...]]
    kernel_classes: Optional[frozenset[int]]
    holds: bool


def _kernel_classes(t: CharacterTable, skip: int) -> frozenset[int]:
    """Classes on which every character except row `skip` takes its degree."""
    keep: set[int] = set()
    for c in range(t.k):
        if all(
            t.characters[i][c] == t.characters[i][0]
            for i in range(t.k)
            if i != skip
        ):
            keep.add(c)
    return frozenset(keep)


def theorem57_check(t: CharacterTable) -> GagolaReport:
    """Verify the equivalence: corank-one subring iff two-class character.

    Both sides are computed independently; disagreement raises ValueError,
    since it would falsify either the equivalence or the input table.  On a
    positive instance the structural picture behind the equivalence is also
    verified: the non-witness characters share a kernel N whose nonidentity
    elements form a single conjugacy class, the witness is supported on
    exactly {identity} and that class, and |N| matches.
    """
    if t.order <= 2:
        raise ValueError("criterion requires group order > 2")
    bad = validate_table(t)
    if bad:
        raise ValueError(f"invalid table: {bad[0]}")
    witness = gagola_condition(t)
    ring = fusion_from_table(t)
    mr = detect_mr(ring)
    gagola_holds = witness is not None
    mr_holds = mr is not None
    if gagola_holds != mr_holds:
        raise ValueError(
            "two-class criterion and corank-one subring detection disagree: "
            f"witness={witness}, mr={mr}"
        )
    if witness is None:
        return GagolaReport(None, None, None, False)
    assert mr is not None
    kernel = _kernel_classes(t, witness.char_index)
    if kernel != frozenset(witness.nonvanishing_classes):
        raise ValueError(
            "common kernel of the complementary characters does not match "
            f"the witness support: {sorted(kernel)} vs "
            f"{witness.nonvanishing_classes}"
        )
    if 0 not in kernel:
        raise ValueError("kernel does not contain the identity class")
    n_order = sum(t.class_sizes[c] for c in kernel)
    if t.order % n_order != 0:
        raise ValueError(
            f"kernel subgroup order {n_order} does not divide {t.order}"
        )
    if mr.extra != witness.char_index:
        raise ValueError(
            "subring complement and witness character disagree: "
            f"extra={mr.extra}, witness={witness.char_index}"
        )
    return GagolaReport(witness, mr.base, kernel, True)
