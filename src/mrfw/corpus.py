"""Built-in rings and character tables used by the CLI corpus and the test
suite."""

from __future__ import annotations

from types import MappingProxyType

from .chartab import CharacterTable
from .mr import mr_extend
from .ring import FusionRing
from .scalars import CycNumber, QuadExt


def trivial_ring() -> FusionRing:
    return FusionRing(["1"], [[[1]]])


def group_ring(table: list[list[int]], labels: list[str]) -> FusionRing:
    """Pointed ring of a finite group given by its multiplication table
    (table[i][j] = index of g_i g_j, index 0 the identity)."""
    n = len(table)
    N = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            N[i][j][table[i][j]] = 1
    return FusionRing(labels, N)


def cyclic_ring(n: int) -> FusionRing:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["1"] + [f"g{i}" for i in range(1, n)]
    return group_ring(table, labels)


def klein_four_ring() -> FusionRing:
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return group_ring(table, ["1", "a", "b", "ab"])


def fibonacci_ring() -> FusionRing:
    """Rank 2, X (x) X = 1 + X."""
    return mr_extend(trivial_ring(), 1, extra_label="X")


def ising_ring() -> FusionRing:
    """Rank 3 near-group rules with kappa = 0 over a Z_2 base."""
    return mr_extend(cyclic_ring(2), 0, extra_label="X")


def rep_s3_ring() -> FusionRing:
    """Rank 3 rules of the representations of S_3, basis (1, X, Y) with
    X the two-dimensional object: XX = 1 + X + Y, YY = 1, XY = YX = X."""
    N = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 1, 1], [0, 1, 0]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    ]
    return FusionRing(("1", "X", "Y"), N)


# the rank-3 integral bases of the rank-4 sweep, by column name; shared, so
# that `mr_extend` validates each base and finds its dims once, and read-only
RANK3_BASES = MappingProxyType({
    "z3-pointed": FusionRing(("1", "X", "Y"), cyclic_ring(3).N),
    "rep-s3": rep_s3_ring(),
})


def z3_base_ring(kappa: int) -> FusionRing:
    """Rank 4 near-group rules over the pointed Z_3 base."""
    return mr_extend(RANK3_BASES["z3-pointed"], kappa, extra_label="Z")


def s3_base_ring(kappa: int) -> FusionRing:
    """Rank 4 rules over the rank-3 representation ring of S_3."""
    return mr_extend(RANK3_BASES["rep-s3"], kappa, extra_label="Z")


def cyclic_table(n: int) -> CharacterTable:
    """Character table of the cyclic group of order n; all classes are
    singletons and the values are n-th roots of unity."""
    zeta = CycNumber.root_of_unity(n)
    rows = [[zeta ** (i * j) for j in range(n)] for i in range(n)]
    return CharacterTable(n, [1] * n, rows, name=f"z{n}")


def klein_table() -> CharacterTable:
    rows = [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ]
    return CharacterTable(4, [1, 1, 1, 1], rows, name="z2xz2")


def s3_table() -> CharacterTable:
    """Classes: identity, 3-cycles, transpositions."""
    rows = [
        [1, 1, 1],
        [1, 1, -1],
        [2, -1, 0],
    ]
    return CharacterTable(6, [1, 2, 3], rows, name="s3")


def d8_table() -> CharacterTable:
    """Dihedral group of order 8; classes: 1, r^2, {r, r^3}, reflections
    {s, sr^2}, reflections {sr, sr^3}."""
    rows = [
        [1, 1, 1, 1, 1],
        [1, 1, 1, -1, -1],
        [1, 1, -1, 1, -1],
        [1, 1, -1, -1, 1],
        [2, -2, 0, 0, 0],
    ]
    return CharacterTable(8, [1, 1, 2, 2, 2], rows, name="d8")


def q8_table() -> CharacterTable:
    """Quaternion group; same table values as the dihedral group of
    order 8, classes 1, -1, {i, -i}, {j, -j}, {k, -k}."""
    rows = [
        [1, 1, 1, 1, 1],
        [1, 1, 1, -1, -1],
        [1, 1, -1, 1, -1],
        [1, 1, -1, -1, 1],
        [2, -2, 0, 0, 0],
    ]
    return CharacterTable(8, [1, 1, 2, 2, 2], rows, name="q8")


def a4_table() -> CharacterTable:
    """Alternating group on four letters; classes: identity, double
    transpositions, and the two classes of 3-cycles."""
    w = CycNumber.root_of_unity(3)
    w2 = w * w
    rows = [
        [1, 1, 1, 1],
        [1, 1, w, w2],
        [1, 1, w2, w],
        [3, -1, 0, 0],
    ]
    return CharacterTable(12, [1, 3, 4, 4], rows, name="a4")


def s4_table() -> CharacterTable:
    """Symmetric group on four letters; classes: identity, transpositions,
    double transpositions, 3-cycles, 4-cycles."""
    rows = [
        [1, 1, 1, 1, 1],
        [1, -1, 1, 1, -1],
        [2, 0, 2, -1, 0],
        [3, 1, -1, 0, -1],
        [3, -1, -1, 0, 1],
    ]
    return CharacterTable(24, [1, 6, 3, 8, 6], rows, name="s4")


TABLE_BUILDERS = {
    "s3": s3_table,
    "z2": lambda: cyclic_table(2),
    "z3": lambda: cyclic_table(3),
    "z4": lambda: cyclic_table(4),
    "z2xz2": klein_table,
    "d8": d8_table,
    "q8": q8_table,
    "a4": a4_table,
    "s4": s4_table,
}


RING_BUILDERS = {
    "trivial": trivial_ring,
    "fibonacci": fibonacci_ring,
    "ising": ising_ring,
    "rep-s3": rep_s3_ring,
    "z2-group-ring": lambda: cyclic_ring(2),
    "z3-group-ring": lambda: cyclic_ring(3),
    "z4-group-ring": lambda: cyclic_ring(4),
    "z2xz2-group-ring": klein_four_ring,
    "z3-base-k3": lambda: z3_base_ring(3),
    "s3-base-k5": lambda: s3_base_ring(5),
}


def _premodular_fibonacci():
    z = CycNumber.root_of_unity(5)
    return fibonacci_ring(), [1, 1 + z + z ** 4], [1, z ** 2]


def _premodular_z2_modular():
    return cyclic_ring(2), [1, 1], [1, CycNumber.root_of_unity(4)]


def _premodular_ising():
    twist = CycNumber.root_of_unity(16)
    return ising_ring(), [1, 1, QuadExt.sqrt(2)], [1, -1, twist]


PREMODULAR_BUILDERS = {
    "premodular-fibonacci": _premodular_fibonacci,
    "premodular-z2-modular": _premodular_z2_modular,
    "premodular-ising": _premodular_ising,
}


def write_corpus(directory) -> list[str]:
    """Write every bundled document into `directory` in canonical form.

    Returns the written file names.  This is how the shipped corpus under
    mrfw/corpus is regenerated after a builder changes.
    """
    from pathlib import Path

    from .serialize import (
        premodular_to_doc,
        ring_to_doc,
        save_document,
        table_to_doc,
    )

    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    for name, build in RING_BUILDERS.items():
        save_document(ring_to_doc(build()), out / f"{name}.json")
        written.append(f"{name}.json")
    for name, build in TABLE_BUILDERS.items():
        save_document(table_to_doc(build()), out / f"{name}-table.json")
        written.append(f"{name}-table.json")
    for name, build in PREMODULAR_BUILDERS.items():
        ring, dims, twists = build()
        save_document(premodular_to_doc(ring, dims, twists), out / f"{name}.json")
        written.append(f"{name}.json")
    return written
