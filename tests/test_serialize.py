import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ring_oracles import stdlib_dumps

from mrfw.corpus import (
    PREMODULAR_BUILDERS,
    RING_BUILDERS,
    TABLE_BUILDERS,
    fibonacci_ring,
    s3_table,
    write_corpus,
)
from mrfw.scalars import CycNumber, QuadExt
from mrfw.serialize import (
    MAX_CYCLOTOMIC_ORDER,
    MAX_RADICAND,
    DocumentError,
    canonical_dumps,
    load_document,
    parse_document,
    premodular_from_payload,
    premodular_to_doc,
    ring_from_payload,
    ring_to_doc,
    save_document,
    scalar_from_json,
    scalar_to_json,
    table_from_payload,
    table_to_doc,
)

CORPUS = Path(__file__).resolve().parents[1] / "src" / "mrfw" / "corpus"


class TestScalars:
    @pytest.mark.parametrize(
        "x",
        [
            Fraction(3),
            Fraction(-7, 2),
            QuadExt(1, 2, 5),
            QuadExt(Fraction(1, 2), Fraction(-3, 4), 13),
            CycNumber.root_of_unity(5),
            CycNumber(8, [Fraction(1, 2), 0, -1, 0]),
        ],
    )
    def test_round_trip(self, x):
        encoded = scalar_to_json(x)
        decoded = scalar_from_json(encoded)
        if isinstance(x, Fraction):
            assert decoded == x
        else:
            assert decoded == x

    def test_rational_forms(self):
        assert scalar_to_json(Fraction(4)) == 4
        assert scalar_to_json(Fraction(1, 3)) == "1/3"
        assert scalar_from_json("-2/5") == Fraction(-2, 5)

    def test_rational_quadext_collapses(self):
        assert scalar_to_json(QuadExt(7)) == 7

    def test_cyclotomic_order_bound(self):
        x = scalar_from_json({"order": MAX_CYCLOTOMIC_ORDER, "coeffs": [0, 1]})
        assert x == CycNumber.root_of_unity(MAX_CYCLOTOMIC_ORDER)
        # Q(zeta_40028) takes tens of seconds to build; refused at once,
        # as out-of-range input rather than as a malformed document
        start = time.perf_counter()
        for order in (MAX_CYCLOTOMIC_ORDER + 1, 40028):
            with pytest.raises(ValueError, match="above the supported maximum") as exc:
                scalar_from_json({"order": order, "coeffs": [0, 1]})
            assert not isinstance(exc.value, DocumentError)
        assert time.perf_counter() - start < 1

    def test_radicand_bound(self):
        # trial division of a radicand near the bound with no small factor
        # takes tens of milliseconds; 10^18 + 9 did not finish in 20 s
        start = time.perf_counter()
        x = scalar_from_json({"p": 0, "q": 1, "D": 999999999989})
        assert x == QuadExt.sqrt(999999999989)
        assert scalar_from_json({"p": 1, "q": 1, "D": MAX_RADICAND}) == 1 + 10**6
        for D in (MAX_RADICAND + 1, 10**18 + 9):
            with pytest.raises(ValueError, match="above the supported maximum") as exc:
                scalar_from_json({"p": 0, "q": 1, "D": D})
            assert not isinstance(exc.value, DocumentError)
        assert time.perf_counter() - start < 1

    def test_rejects_garbage(self):
        with pytest.raises(DocumentError):
            scalar_from_json("1.5")
        with pytest.raises(DocumentError):
            scalar_from_json({"p": 1})
        with pytest.raises(DocumentError):
            scalar_from_json(True)


class TestEnvelope:
    def test_unknown_kind(self):
        with pytest.raises(DocumentError, match="kind"):
            parse_document('{"schema": 1, "kind": "widget", "payload": {}}')

    def test_unknown_field(self):
        with pytest.raises(DocumentError, match="unknown fields"):
            parse_document(
                '{"schema": 1, "kind": "report", "payload": {}, "extra": 1}'
            )

    def test_schema_version(self):
        with pytest.raises(DocumentError, match="schema"):
            parse_document('{"schema": 99, "kind": "report", "payload": {}}')

    @pytest.mark.parametrize("schema", ["true", "1.0"])
    def test_schema_version_is_integer(self, schema):
        # both compare equal to 1 in Python, yet neither is version 1
        with pytest.raises(DocumentError, match="schema version must be an integer"):
            parse_document(f'{{"schema": {schema}, "kind": "report", "payload": {{}}}}')

    def test_not_json(self):
        with pytest.raises(DocumentError, match="JSON"):
            parse_document("{nope")

    def test_negative_structure_constant(self):
        with pytest.raises(DocumentError):
            ring_from_payload({"labels": ["1"], "N": [[[-1]]]})

    @pytest.mark.parametrize("bad", [True, 1.0, "1", -1])
    def test_first_bad_structure_constant_is_named(self, bad):
        # valid entries first, then `bad`, then a second bad entry: the
        # message names `bad`, the first in tensor order
        N = [[[1, 0], [0, 1]], [[0, bad], [1, -7]]]
        with pytest.raises(DocumentError, match=re.escape(f"constant {bad!r} is not")):
            ring_from_payload({"labels": ["1", "g"], "N": N})


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(RING_BUILDERS))
    def test_rings(self, name):
        ring = RING_BUILDERS[name]()
        doc = ring_to_doc(ring)
        back = ring_from_payload(doc["payload"])
        assert back.N == ring.N and back.labels == ring.labels

    @pytest.mark.parametrize("name", sorted(TABLE_BUILDERS))
    def test_tables(self, name):
        t = TABLE_BUILDERS[name]()
        back = table_from_payload(table_to_doc(t)["payload"])
        assert back.characters == t.characters
        assert back.class_sizes == t.class_sizes
        assert back.order == t.order

    @pytest.mark.parametrize("name", sorted(PREMODULAR_BUILDERS))
    def test_premodular(self, name):
        ring, dims, twists = PREMODULAR_BUILDERS[name]()
        doc = premodular_to_doc(ring, dims, twists)
        ring2, dims2, twists2 = premodular_from_payload(doc["payload"])
        assert ring2.N == ring.N
        # values compare across scalar types: ints, Fractions, QuadExt and
        # CycNumber read back as equal values
        assert dims2 == list(dims)
        assert twists2 == list(twists)
        assert [type(d) is QuadExt for d in dims2] == [type(d) is QuadExt for d in dims]

    def test_canonical_idempotent(self, tmp_path):
        doc = ring_to_doc(fibonacci_ring())
        p = tmp_path / "fib.json"
        save_document(doc, p)
        first = p.read_bytes()
        save_document(load_document(p), p)
        assert p.read_bytes() == first

    def test_canonical_sorted(self):
        text = canonical_dumps(table_to_doc(s3_table()))
        assert text.endswith("\n")
        assert text.index('"kind"') < text.index('"payload"')


# quotes, backslashes, control and non-ASCII characters, and the ", [ ]"
# of compact JSON text inside strings
TEXT = st.text(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\u2028é日𝄞 a0,[]:{}'), max_size=6)
INTS = st.one_of(st.integers(), st.integers(-(2**200), 2**200))
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    INTS,
    st.floats(),
    st.sampled_from([-0.0, 1e300]),
    TEXT,
)


def short_lists(elements):
    return st.lists(elements, max_size=4)


# the shapes the int-matrix fast path must accept or refuse: ragged rows,
# empty rows, ints mixed with rows, bools among ints, tuple rows
INT_SHAPES = st.one_of(
    short_lists(INTS),
    short_lists(short_lists(INTS)),
    short_lists(short_lists(INTS).map(tuple)).map(tuple),
    short_lists(st.one_of(INTS, short_lists(INTS))),
    short_lists(short_lists(st.one_of(INTS, st.booleans(), st.floats()))),
    short_lists(short_lists(short_lists(INTS))),
)
VALUES = st.recursive(
    st.one_of(LEAVES, INT_SHAPES),
    lambda children: st.one_of(
        short_lists(children),
        short_lists(children).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    ),
    max_leaves=8,
)


class TestCanonicalText:
    """canonical_dumps is the stdlib's indent=2 text, written without it."""

    @settings(max_examples=150, deadline=None)
    @given(doc=st.dictionaries(TEXT, VALUES, max_size=3))
    @example(doc={})
    @example(doc={"a": [], "b": {}, "c": [[]], "d": [[], []], "e": [[1], []]})
    @example(doc={"N": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]], "w": [[-1, 2**70]]})
    @example(doc={"x": [1, True], "y": [[1], [False]], "z": [[1], 2], "t": (1, (2,))})
    # runs of repeated rows, as in a Gram witness, and planes sharing rows,
    # including a tuple row equal to a list row: one cached text per row
    @example(doc={"w": [[1, 0, 2]] * 5 + [[0, 1, 1]] * 3})
    @example(doc={"N": [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], (0, 1)]]})
    # rows that compare and hash equal but are written differently
    @example(doc={"a": [[1, 0], [True, 0]], "b": [[1], [1.0]], "c": [[[1]], [[True]]]})
    @example(doc={"w": [[2**70, -1]] * 3, "s": ["a", "a", "\u00e9"]})
    def test_matches_stdlib(self, doc):
        assert canonical_dumps(doc) == stdlib_dumps(doc)

    def test_non_str_key_raises(self):
        # json.dumps would write the key as "1"; canonical text has no
        # such coercion
        doc = {"payload": {1: "one"}}
        assert '"1": "one"' in stdlib_dumps(doc)
        with pytest.raises(TypeError, match="keys must be str"):
            canonical_dumps(doc)


def cyclotomic_orders(v):
    """The order of every cyclotomic scalar in a decoded JSON value."""
    if isinstance(v, dict):
        if set(v) == {"order", "coeffs"}:
            return [v["order"]]
        v = list(v.values())
    if isinstance(v, list):
        return [m for x in v for m in cyclotomic_orders(x)]
    return []


class TestBundledCorpus:
    def test_files_match_builders(self, tmp_path):
        # the shipped corpus is exactly what write_corpus regenerates
        names = write_corpus(tmp_path)
        assert sorted(p.name for p in CORPUS.glob("*.json")) == sorted(names)
        for name in names:
            assert (tmp_path / name).read_bytes() == (CORPUS / name).read_bytes()

    def test_all_load(self):
        orders = []
        for p in CORPUS.glob("*.json"):
            doc = load_document(p)
            assert doc["kind"] in ("ring", "chartable", "premodular")
            orders += cyclotomic_orders(doc["payload"])
        # every cyclotomic scalar of the corpus is within the order bound
        assert max(orders) == 16 <= MAX_CYCLOTOMIC_ORDER
