import copy
import pickle
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfw import chartab, scalars
from mrfw.chartab import (
    CharacterTable,
    fusion_from_table,
    gagola_condition,
    theorem57_check,
    validate_table,
)
from mrfw.corpus import (
    TABLE_BUILDERS,
    a4_table,
    cyclic_ring,
    cyclic_table,
    d8_table,
    q8_table,
    rep_s3_ring,
    s3_table,
    s4_table,
)
from mrfw.obstruction import codegrees
from mrfw.ring import FusionRing, detect_mr, fpdims, subrings
from mrfw.scalars import CycNumber


class TestValidateTable:
    @pytest.mark.parametrize("name", sorted(TABLE_BUILDERS))
    def test_corpus_valid(self, name):
        assert validate_table(TABLE_BUILDERS[name]()) == []

    def test_perturbed_entry_detected(self):
        t = s3_table()
        rows = [list(r) for r in t.characters]
        rows[2] = [rows[2][0], rows[2][1] + 1, rows[2][2]]
        bad = CharacterTable(t.order, t.class_sizes, rows)
        report = validate_table(bad)
        assert any("orthogonality" in msg for msg in report)

    def test_wrong_class_sizes(self):
        t = s3_table()
        bad = CharacterTable(6, [1, 3, 2], t.characters)
        assert validate_table(bad) != []

    def test_degree_sum_checked(self):
        bad = CharacterTable(5, [1, 4], [[1, 1], [1, Fraction(-1, 4)]])
        report = validate_table(bad)
        assert any("squared degrees" in msg for msg in report)

    def test_zero_class_size_reported(self):
        t = s3_table()
        bad = CharacterTable(6, [1, 0, 2], t.characters)
        report = validate_table(bad)
        assert any("class 1 size 0" in msg for msg in report)
        assert not any("column orthogonality" in msg for msg in report)

    def test_empty_table_reported(self):
        assert validate_table(CharacterTable(1, [], [])) == [
            "class sizes sum to 0, group order is 1",
            "table has no conjugacy classes",
        ]

    def test_centralizer_orders(self):
        assert s3_table().centralizer_orders == (6, 3, 2)
        assert s4_table().centralizer_orders == (24, 4, 8, 3, 4)


def with_inverse_perm(t, perm):
    """The table `t` with `perm` stored as its inverse-class permutation."""
    return CharacterTable(t.order, t.class_sizes, t.characters, inverse_perm=perm)


class TestInversePermutation:
    """A permutation stored on the table is checked by `validate_table`."""

    def test_cyclic(self):
        assert validate_table(with_inverse_perm(cyclic_table(4), (0, 3, 2, 1))) == []
        assert validate_table(with_inverse_perm(cyclic_table(5), (0, 4, 3, 2, 1))) == []

    def test_real_tables_fixed(self):
        for t in (s3_table(), d8_table(), q8_table(), s4_table()):
            assert validate_table(with_inverse_perm(t, tuple(range(t.k)))) == []

    def test_a4_swaps_threecycles(self):
        assert validate_table(with_inverse_perm(a4_table(), (0, 1, 3, 2))) == []

    @pytest.mark.parametrize(
        "perm,problem",
        [
            ((0, 1, 5), "inverse_perm is not a permutation of the 3 classes at class 2"),
            ((0, 1, 1), "inverse_perm is not a permutation of the 3 classes at class 2"),
            ((-1, 1, 2), "inverse_perm is not a permutation of the 3 classes at class 0"),
            ((0, 1), "inverse_perm is not a permutation of the 3 classes at class 2"),
            ((0, 1, 2, 3), "inverse_perm is not a permutation of the 3 classes at class 3"),
            ((0, 2, 1), "inverse_perm sends class 1 to 2, not to its inverse class"),
        ],
    )
    def test_bad_explicit_perm_reported(self, perm, problem):
        t = s3_table()
        bad = CharacterTable(t.order, t.class_sizes, t.characters, inverse_perm=perm)
        assert validate_table(bad) == [problem]
        with pytest.raises(ValueError, match=re.escape(f"invalid table: {problem}")):
            theorem57_check(bad)

    @pytest.mark.parametrize(
        "table,perm,problem",
        [
            (s3_table(), (0, 1, 5), "inverse_perm is not a permutation of the 3 classes at class 2"),
            (s3_table(), (0, 2, 1), "inverse_perm sends class 1 to 2, not to its inverse class"),
            (cyclic_table(3), (0, 1, 2), "inverse_perm sends class 1 to 1, not to its inverse class"),
            (a4_table(), (0, 1, 2, 3), "inverse_perm sends class 2 to 2, not to its inverse class"),
        ],
    )
    def test_bad_explicit_perm_reported_at_zero_class_sizes(self, table, perm, problem):
        # all sizes 0 give the packing weight 0; the values must still pack
        # apart, so the message is the one the true sizes give
        for sizes in (table.class_sizes, [0] * table.k):
            bad = CharacterTable(table.order, sizes, table.characters, inverse_perm=perm)
            assert problem in validate_table(bad)

    def test_explicit_perm_checked_against_conjugates(self):
        # Z3's classes 1 and 2 are mutually inverse; the identity is not
        t = cyclic_table(3)
        good = CharacterTable(t.order, t.class_sizes, t.characters, inverse_perm=(0, 2, 1))
        assert validate_table(good) == []
        bad = CharacterTable(t.order, t.class_sizes, t.characters, inverse_perm=(0, 1, 2))
        assert validate_table(bad) == [
            "inverse_perm sends class 1 to 1, not to its inverse class"
        ]


def naive_validate(t):
    """validate_table with one CycNumber per term of every orthogonality
    sum, as the library computed it before the sums moved to integer
    coordinates."""
    problems = []
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
        return problems
    if len(t.characters) != k or any(len(row) != k for row in t.characters):
        problems.append("character matrix is not square of size k")
        return problems
    if t.class_sizes[0] != 1:
        problems.append("column 0 must be the identity class of size 1")
    if any(v != 1 for v in t.characters[0]):
        problems.append("first row is not the trivial character")
    degs = []
    for i, row in enumerate(t.characters):
        v = row[0]
        if not v.is_rational or v.as_fraction().denominator != 1 or v.as_fraction() <= 0:
            problems.append(f"degree of character {i} is not a positive integer")
            return problems
        degs.append(v.as_fraction())
    if sum(d * d for d in degs) != t.order:
        problems.append("sum of squared degrees does not equal the group order")
    conj = [[v.conjugate() for v in row] for row in t.characters]
    for i in range(k):
        for j in range(i, k):
            acc = CycNumber.from_rational(0)
            for c in range(k):
                acc = acc + t.class_sizes[c] * (t.characters[i][c] * conj[j][c])
            if acc != (t.order if i == j else 0):
                problems.append(f"row orthogonality fails for characters ({i}, {j})")
    if any(s <= 0 for s in t.class_sizes):
        return problems
    for c in range(k):
        for d in range(c, k):
            acc = CycNumber.from_rational(0)
            for i in range(k):
                acc = acc + t.characters[i][c] * conj[i][d]
            if acc != (t.order // t.class_sizes[c] if c == d else 0):
                problems.append(f"column orthogonality fails for classes ({c}, {d})")
    return problems


def naive_fusion(t):
    """N[i][j][m] = <chi_i chi_j, chi_m>, one inner product per triple, in
    a full (i, j, m) scan.  Raises fusion_from_table's ValueError for the
    first multiplicity that is not a nonnegative integer."""
    k = t.k
    chi = t.characters
    out = []
    for i in range(k):
        plane = []
        for j in range(k):
            row = []
            for m in range(k):
                acc = CycNumber.from_rational(0)
                for c in range(k):
                    acc = acc + t.class_sizes[c] * (
                        chi[i][c] * chi[j][c] * chi[m][c].conjugate()
                    )
                val = acc / t.order
                if not val.is_rational:
                    raise ValueError(f"multiplicity ({i}, {j}, {m}) is irrational")
                f = val.as_fraction()
                if f.denominator != 1 or f < 0:
                    raise ValueError(
                        f"multiplicity ({i}, {j}, {m}) = {f} is not a "
                        "nonnegative integer"
                    )
                row.append(int(f))
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


def _outcome(f, t):
    try:
        return f(t)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _naive_ring(t):
    N = naive_fusion(t)
    report = FusionRing([f"chi{i + 1}" for i in range(t.k)], N).validate()
    if report:
        raise ValueError(f"table induces an invalid fusion ring: {report[0]}")
    return N


# every corpus table; Z_5..Z_12, whose conductors include 8, 9 and 12; and
# a rational table with a non-integer value, so the common denominator of
# the integer coordinates is 4 rather than 1
PERTURBATION_BASES = (
    [TABLE_BUILDERS[name]() for name in sorted(TABLE_BUILDERS)]
    + [cyclic_table(n) for n in range(5, 13)]
    + [CharacterTable(5, [1, 4], [[1, 1], [1, Fraction(-1, 4)]])]
)
PERTURBATIONS = (
    0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3),
    CycNumber.root_of_unity(3), CycNumber.root_of_unity(4),
    CycNumber.root_of_unity(5, 2), CycNumber.root_of_unity(8, 3),
    CycNumber.root_of_unity(9), -CycNumber.root_of_unity(12, 5),
    # large coordinates and a large common denominator widen the packed
    # sums' slots
    10 ** 30, -(10 ** 30) * CycNumber.root_of_unity(8, 3), Fraction(1, 10 ** 12),
)


@st.composite
def perturbed_tables(draw):
    """A base table with one entry shifted by, or replaced with, a small
    value that may leave the table's field."""
    t = draw(st.sampled_from(PERTURBATION_BASES))
    rows = [list(r) for r in t.characters]
    i = draw(st.integers(0, t.k - 1))
    c = draw(st.integers(0, t.k - 1))
    v = draw(st.sampled_from(PERTURBATIONS))
    # the table constructor coerces a plain rational replacement
    rows[i][c] = rows[i][c] + v if draw(st.booleans()) else v
    return CharacterTable(t.order, t.class_sizes, rows)


@settings(max_examples=120, deadline=None)
@given(perturbed_tables())
def test_perturbed_tables_match_per_term_sums(t):
    assert validate_table(t) == naive_validate(t)
    got = _outcome(lambda t: fusion_from_table(t).N, t)
    assert got == _outcome(_naive_ring, t)


def _resized(t, sizes, order=None):
    return CharacterTable(t.order if order is None else order, sizes, t.characters)


# class sizes that are zero, negative or huge, with the group order left as
# it is or made consistent with them: each weights the packed sums, whose
# slot width must still fit every digit
BAD_SIZE_TABLES = [
    _resized(s3_table(), [1, 0, 2]),
    _resized(s3_table(), [1, -3, 2]),
    _resized(s3_table(), [1, 3, -2], order=2),
    _resized(s3_table(), [0, 0, 0]),
    _resized(s3_table(), [1, 10 ** 40, 2]),
    _resized(s3_table(), [1, -(10 ** 40), 10 ** 40], order=1),
    _resized(cyclic_table(5), [1, 10 ** 30, 1, -(10 ** 30), 1], order=5),
    _resized(cyclic_table(7), [1] + [10 ** 50] * 6, order=1 + 6 * 10 ** 50),
    _resized(q8_table(), [1, 1, -2, 2, 2]),
]


def _naive_theorem57(t):
    if t.order <= 2:
        raise ValueError("criterion requires group order > 2")
    bad = naive_validate(t)
    if bad:
        raise ValueError(f"invalid table: {bad[0]}")
    return "valid"


@pytest.mark.parametrize("index", range(len(BAD_SIZE_TABLES)))
def test_bad_class_sizes_match_per_term_sums(index):
    t = BAD_SIZE_TABLES[index]
    assert validate_table(t) == naive_validate(t)
    assert validate_table(t) != []
    got = _outcome(theorem57_check, t)
    assert got == _outcome(_naive_theorem57, t)
    assert got.startswith("ValueError: ")
    got = _outcome(lambda t: fusion_from_table(t).N, t)
    assert got == _outcome(_naive_ring, t)


class TestFusionFromTable:
    def test_s3_matches_known_rules(self):
        ring = fusion_from_table(s3_table())
        # basis order (trivial, sign, 2-dim); the 2-dim object squares to
        # the sum of everything
        assert ring.N[2][2] == (1, 1, 1)
        assert ring.N[1][1] == (1, 0, 0)
        assert ring.N[1][2] == (0, 0, 1)
        # same ring as the reference rules up to reordering (1, V, sgn)
        rep = rep_s3_ring()
        perm = (0, 2, 1)
        relabeled = tuple(
            tuple(
                tuple(ring.N[perm[i]][perm[j]][perm[k]] for k in range(3))
                for j in range(3)
            )
            for i in range(3)
        )
        assert relabeled == rep.N

    def test_z4_pointed(self):
        ring = fusion_from_table(cyclic_table(4))
        assert ring.N == cyclic_ring(4).N

    def test_q8_two_dim_object(self):
        ring = fusion_from_table(q8_table())
        assert ring.N[4][4] == (1, 1, 1, 1, 0)

    @pytest.mark.parametrize("name", sorted(TABLE_BUILDERS))
    def test_output_is_valid_ring(self, name):
        ring = fusion_from_table(TABLE_BUILDERS[name]())
        assert ring.validate() == []

    @pytest.mark.parametrize("name", sorted(TABLE_BUILDERS))
    def test_dims_equal_degrees(self, name):
        t = TABLE_BUILDERS[name]()
        dims = fpdims(fusion_from_table(t))
        assert tuple(int(d.as_fraction()) for d in dims.dims) == t.degrees

    @pytest.mark.parametrize("name", sorted(TABLE_BUILDERS))
    def test_duality_matches_conjugation(self, name):
        t = TABLE_BUILDERS[name]()
        ring = fusion_from_table(t)
        for i in range(t.k):
            conj_row = tuple(v.conjugate() for v in t.characters[i])
            assert conj_row == t.characters[ring.dual[i]]

    @pytest.mark.parametrize(
        "family,ident",
        [("corpus", name) for name in sorted(TABLE_BUILDERS)]
        + [("cyclic", n) for n in range(5, 13)],
    )
    def test_matches_inner_product_oracle(self, family, ident):
        t = TABLE_BUILDERS[ident]() if family == "corpus" else cyclic_table(ident)
        assert fusion_from_table(t).N == naive_fusion(t)
        assert validate_table(t) == naive_validate(t) == []

    def test_irrational_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="irrational"):
            fusion_from_table(_irrational_s3())

    def test_negative_multiplicity_rejected(self):
        # the Klein table with its last row negated: chi1 chi2 = -chi3
        rows = [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [-1, 1, 1, -1]]
        t = CharacterTable(4, [1, 1, 1, 1], rows)
        msg = "multiplicity (1, 2, 3) = -1 is not a nonnegative integer"
        with pytest.raises(ValueError, match=re.escape(msg)):
            fusion_from_table(t)
        assert _outcome(_naive_ring, t) == f"ValueError: {msg}"

    @pytest.mark.parametrize("order", [0, -6])
    def test_nonpositive_order_rejected(self, order):
        # the multiplicities divide by the order
        t = s3_table()
        t = CharacterTable(order, t.class_sizes, t.characters, t.name, t.inverse_perm)
        with pytest.raises(ValueError, match=f"group order {order} is not positive"):
            fusion_from_table(t)

    def test_inconsistent_table_rejected(self):
        # orthogonal rows but non-group values: multiplicities fractional
        rows = [[1, 1], [1, -1]]
        t = CharacterTable(3, [1, 2], rows)
        with pytest.raises(ValueError):
            fusion_from_table(t)


class TestGagolaCondition:
    def test_s3_witness(self):
        w = gagola_condition(s3_table())
        assert w is not None
        assert w.char_index == 2
        assert w.nonvanishing_classes == (0, 1)

    def test_q8_witness(self):
        w = gagola_condition(q8_table())
        assert (w.char_index, w.nonvanishing_classes) == (4, (0, 1))

    def test_z4_none(self):
        assert gagola_condition(cyclic_table(4)) is None

    def test_s4_none(self):
        assert gagola_condition(s4_table()) is None


class TestTheorem57:
    POSITIVE = ("s3", "d8", "q8", "a4")
    NEGATIVE = ("z3", "z4", "z2xz2", "s4")

    @pytest.mark.parametrize("name", POSITIVE)
    def test_positive(self, name):
        rep = theorem57_check(TABLE_BUILDERS[name]())
        assert rep.holds
        assert rep.witness is not None
        assert rep.kernel_classes == frozenset(rep.witness.nonvanishing_classes)
        assert rep.witness.char_index not in rep.mr_basis

    @pytest.mark.parametrize("name", NEGATIVE)
    def test_negative(self, name):
        rep = theorem57_check(TABLE_BUILDERS[name]())
        assert not rep.holds
        assert rep.witness is None and rep.mr_basis is None

    def test_s3_kernel_is_index_two(self):
        rep = theorem57_check(s3_table())
        t = s3_table()
        n_order = sum(t.class_sizes[c] for c in rep.kernel_classes)
        assert n_order == 3  # the 3-element normal subgroup

    def test_s4_subring_ranks(self):
        ring = fusion_from_table(s4_table())
        ranks = sorted(len(s) for s in subrings(ring))
        assert ranks == [1, 2, 3, 5]
        assert detect_mr(ring) is None

    def test_order_two_rejected(self):
        with pytest.raises(ValueError):
            theorem57_check(cyclic_table(2))

    def test_lifts_and_packs_the_table_once(self, monkeypatch):
        # one field for every check on a table, and each of the k^2 values
        # packed once for the validation and the multiplicities; a
        # rational value is its own conjugate, so only
        # irrational values pack a conjugate too: S4's table is rational,
        # and packs 25 times.  The validation and the multiplicities run
        # once per table, however many checks read them
        calls = Counter()
        for module, name in ((scalars, "_cyclotomic_field"), (scalars, "_pack"),
                             (chartab, "_validate"), (chartab, "_fusion")):
            def counted(*args, _f=getattr(module, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(module, name, counted)
        for t, packs in ((s3_table(), 9), (a4_table(), 20), (s4_table(), 25),
                         (cyclic_table(7), 85)):
            irrational = sum(not v.is_rational for row in t.characters for v in row)
            assert packs == t.k ** 2 + irrational
            calls.clear()
            for check in CHECKS + CHECKS:
                check(t)
            assert calls == {"_cyclotomic_field": 1, "_pack": packs,
                             "_validate": 1, "_fusion": 1}


CHECKS = (validate_table, fusion_from_table, theorem57_check)


def _fresh(t):
    """The same table, with nothing cached."""
    return CharacterTable(t.order, t.class_sizes, t.characters, t.name, t.inverse_perm)


def _result(check, t):
    try:
        return check(t)
    except Exception as exc:
        return type(exc), str(exc)


def _irrational_s3():
    """S3's table with the sign character's value at the 3-cycles
    replaced by zeta_3."""
    t = s3_table()
    rows = [list(r) for r in t.characters]
    rows[1][1] = CycNumber.root_of_unity(3)
    return CharacterTable(t.order, t.class_sizes, rows)


# every table the checks reject in some way: bad sizes, a bad stored
# inverse-class permutation, an irrational or a negative multiplicity, a
# nonpositive order, fractional multiplicities from orthogonal rows
INVALID_TABLES = BAD_SIZE_TABLES + [
    CharacterTable(6, [1, 2, 3], s3_table().characters, inverse_perm=(0, 2, 1)),
    CharacterTable(6, [1, 2, 3], s3_table().characters, inverse_perm=(0, 1, 5)),
    CharacterTable(3, [1, 1, 1], [[1, 1, 1], [1, -1, -1], [2, 0, 0]]),
    _irrational_s3(),
    CharacterTable(4, [1, 1, 1, 1], [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [-1, 1, 1, -1]]),
    CharacterTable(0, [1, 2, 3], s3_table().characters),
    CharacterTable(-6, [1, 2, 3], s3_table().characters),
    CharacterTable(3, [1, 2], [[1, 1], [1, -1]]),
]


def assert_cache_matches_fresh_tables(t):
    """Each check, called twice in each of three orders on one table,
    returns what it returns on a fresh copy of the table, or raises the
    same exception; the validation and the multiplicities also match
    the per-term oracles, and only the checks that return are cached."""
    want = {check: _result(check, _fresh(t)) for check in CHECKS}
    orders = (CHECKS, CHECKS[::-1], (theorem57_check, validate_table, fusion_from_table))
    for order in orders:
        table = _fresh(t)
        for check in order + order:
            assert _result(check, table) == want[check], check.__name__
        for check, key in ((validate_table, "validate"), (fusion_from_table, "fusion")):
            assert (key in table._facts) is not isinstance(want[check], tuple)
        cold = _fresh(t)
        assert table == cold and hash(table) == hash(cold) and repr(table) == repr(cold)
    if t.inverse_perm is None:  # which the per-term oracle does not check
        assert _outcome(validate_table, t) == _outcome(naive_validate, t)
    if t.order > 0 and t.k <= 12:
        assert _outcome(lambda t: fusion_from_table(t).N, t) == _outcome(_naive_ring, t)


class TestFactCache:
    @pytest.mark.parametrize(
        "t",
        [TABLE_BUILDERS[name]() for name in sorted(TABLE_BUILDERS)]
        + [cyclic_table(n) for n in range(1, 22)]
        + INVALID_TABLES,
        ids=[f"corpus-{name}" for name in sorted(TABLE_BUILDERS)]
        + [f"z{n}" for n in range(1, 22)]
        + [f"invalid-{i}" for i in range(len(INVALID_TABLES))],
    )
    def test_cached_checks_match_fresh_tables(self, t):
        assert_cache_matches_fresh_tables(t)
        if t.name == f"z{t.k}":  # cyclic, also above the oracles' k <= 12
            assert fusion_from_table(t).N == cyclic_ring(t.k).N

    @settings(max_examples=60, deadline=None)
    @given(perturbed_tables())
    def test_cached_checks_match_fresh_perturbed_tables(self, t):
        assert_cache_matches_fresh_tables(t)

    @pytest.mark.parametrize("build", [s3_table, a4_table, lambda: cyclic_table(7)])
    def test_warm_cache_keeps_value_semantics(self, build, monkeypatch):
        cold, warm = build(), build()
        for check in CHECKS:
            check(warm)
        assert cold._facts == {} and set(warm._facts) == {"lift", "validate", "fusion"}
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        lift = warm._facts["lift"]
        monkeypatch.setattr(
            scalars, "_cyclotomic_field", lambda *args: pytest.fail("lifted again")
        )
        for copied in (pickle.loads(pickle.dumps(warm)), copy.deepcopy(warm)):
            assert copied == warm and hash(copied) == hash(warm)
            assert repr(copied) == repr(warm)
            facts = copied._facts
            assert facts.keys() == warm._facts.keys()
            assert facts["lift"][:3] == lift[:3]
            # the copied unpacking gives the cached validation again
            assert chartab._validate(copied) == facts["validate"]
            assert validate_table(copied) == list(warm._facts["validate"])
            assert fusion_from_table(copied) is facts["fusion"]
            assert fusion_from_table(copied) == fusion_from_table(warm)
            assert theorem57_check(copied) == theorem57_check(warm)


class TestCodegreeCentralizerProperty:
    @pytest.mark.parametrize("name", sorted(TABLE_BUILDERS))
    def test_codegrees_are_centralizer_orders(self, name):
        t = TABLE_BUILDERS[name]()
        ring = fusion_from_table(t)
        got = sorted((int(c.as_fraction()) for c in codegrees(ring)), reverse=True)
        assert got == sorted(t.centralizer_orders, reverse=True)
