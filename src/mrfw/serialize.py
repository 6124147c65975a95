"""JSON interchange documents for rings, character tables, and S-matrix data.

Every document is an envelope {"schema", "kind", "payload"} with kind one
of "ring", "chartable", "premodular", or "report".  Exact scalars are
serialized structurally: rationals as integers or "p/q" strings, quadratic
values as {"p", "q", "D"}, cyclotomic values as {"order", "coeffs"}.
Decimal strings never appear.  Canonical form is byte for byte the text of
``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False)`` plus a
newline, saved as UTF-8; load then save is the identity on canonical files.
mrfw writes that text without the stdlib's pure-Python indent encoder: it
checks types once per container and writes each distinct int row of a
matrix once (see `canonical_dumps`).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, islice
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any

from .chartab import CharacterTable
from .ring import FusionRing
from .scalars import MAX_CYCLOTOMIC_ORDER, CycNumber, QuadExt

SCHEMA_VERSION = 1
KINDS = ("ring", "chartable", "premodular", "report")
# largest quadratic radicand a document may name: QuadExt factors D by
# trial division, about 70 ms for a D near 10^12 with no small factor,
# while D = 10^18 + 9 did not finish in 20 s
MAX_RADICAND = 10**12


class DocumentError(ValueError):
    """Raised when a document fails schema validation."""


# ---------------------------------------------------------------------------
# scalars


def fraction_to_json(x: Fraction) -> int | str:
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def fraction_from_json(v: Any) -> Fraction:
    if isinstance(v, bool):
        raise DocumentError(f"not a rational: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        num, sep, den = v.partition("/")
        try:
            if sep:
                return Fraction(int(num), int(den))
            return Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:
            raise DocumentError(f"not a rational: {v!r}") from exc
    raise DocumentError(f"not a rational: {v!r}")


def scalar_to_json(x: Any) -> Any:
    if isinstance(x, QuadExt):
        if x.is_rational:
            return fraction_to_json(x.as_fraction())
        return {
            "p": fraction_to_json(x.p),
            "q": fraction_to_json(x.q),
            "D": x.D,
        }
    if isinstance(x, CycNumber):
        if x.is_rational:
            return fraction_to_json(x.as_fraction())
        return {
            "order": x.order,
            "coeffs": [fraction_to_json(c) for c in x.coeffs],
        }
    if isinstance(x, (int, Fraction)):
        return fraction_to_json(Fraction(x))
    raise DocumentError(f"unsupported scalar type: {type(x).__name__}")


def _require_int(v: Any, what: str, minimum: int | None = None) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise DocumentError(f"{what} must be an integer, not {v!r}")
    if minimum is not None and v < minimum:
        raise DocumentError(f"{what} must be at least {minimum}, not {v!r}")
    return v


def _require_list(v: Any, what: str) -> list:
    if not isinstance(v, list):
        raise DocumentError(f"{what} must be a list, not {v!r}")
    return v


def scalar_from_json(v: Any) -> Fraction | QuadExt | CycNumber:
    if isinstance(v, dict):
        keys = set(v)
        if keys == {"p", "q", "D"}:
            D = _require_int(v["D"], "radicand", 1)
            if D > MAX_RADICAND:
                # out of range, not malformed: plain ValueError, as below
                raise ValueError(
                    f"radicand {D} is above the supported maximum {MAX_RADICAND}"
                )
            return QuadExt(fraction_from_json(v["p"]), fraction_from_json(v["q"]), D)
        if keys == {"order", "coeffs"}:
            order = _require_int(v["order"], "cyclotomic order", 1)
            if order > MAX_CYCLOTOMIC_ORDER:
                # a well-formed value out of range: plain ValueError, which
                # the CLI reports as invalid input (exit 1), not DocumentError
                raise ValueError(
                    f"cyclotomic order {order} is above the supported "
                    f"maximum {MAX_CYCLOTOMIC_ORDER}"
                )
            return CycNumber(
                order,
                [
                    fraction_from_json(c)
                    for c in _require_list(v["coeffs"], "cyclotomic coeffs")
                ],
            )
        raise DocumentError(f"unknown scalar object keys: {sorted(keys)}")
    return fraction_from_json(v)


# ---------------------------------------------------------------------------
# envelopes


def _envelope(kind: str, payload: dict) -> dict:
    return {"schema": SCHEMA_VERSION, "kind": kind, "payload": payload}


def _require_keys(
    obj: dict, required: set[str], optional: set[str] | None, where: str
):
    """Check that `obj` is an object with every `required` field.  Fields
    outside `required` and `optional` are rejected, unless `optional` is
    None, when they are ignored."""
    if not isinstance(obj, dict):
        raise DocumentError(f"{where} must be an object")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise DocumentError(f"{where} missing fields: {sorted(missing)}")
    unknown = set() if optional is None else keys - required - optional
    if unknown:
        raise DocumentError(f"{where} has unknown fields: {sorted(unknown)}")


def ring_to_doc(ring: FusionRing) -> dict:
    return _envelope(
        "ring",
        {
            "labels": list(ring.labels),
            "N": [list(map(list, plane)) for plane in ring.N],
        },
    )


def ring_from_payload(payload: dict) -> FusionRing:
    _require_keys(payload, {"labels", "N"}, set(), "ring payload")
    labels = _require_list(payload["labels"], "labels")
    N = _require_list(payload["N"], "structure constants")
    n = len(labels)
    if n == 0:
        raise DocumentError("ring has an empty basis")
    if (
        len(N) != n
        or any(not isinstance(plane, list) or len(plane) != n for plane in N)
        or any(not isinstance(row, list) or len(row) != n for plane in N for row in plane)
    ):
        raise DocumentError("structure constant tensor is not rank x rank x rank")
    flat = list(chain.from_iterable(chain.from_iterable(N)))
    if set(map(type, flat)) != {int} or min(flat) < 0:
        # the ordered scan names the first bad entry
        for x in flat:
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise DocumentError(
                    f"structure constant {x!r} is not a nonnegative integer"
                )
    return FusionRing([str(s) for s in labels], N)


def table_to_doc(t: CharacterTable) -> dict:
    payload: dict[str, Any] = {
        "order": t.order,
        "class_sizes": list(t.class_sizes),
        "characters": [[scalar_to_json(v) for v in row] for row in t.characters],
    }
    if t.name:
        payload["name"] = t.name
    if t.inverse_perm is not None:
        payload["inverse_perm"] = list(t.inverse_perm)
    return _envelope("chartable", payload)


def table_from_payload(payload: dict) -> CharacterTable:
    _require_keys(
        payload,
        {"order", "class_sizes", "characters"},
        {"name", "inverse_perm"},
        "chartable payload",
    )
    rows = []
    for row in _require_list(payload["characters"], "characters"):
        vals = []
        for v in _require_list(row, "character row"):
            s = scalar_from_json(v)
            if isinstance(s, QuadExt):
                raise DocumentError(
                    "character values must be rational or cyclotomic"
                )
            vals.append(s)
        rows.append(vals)
    inverse_perm = payload.get("inverse_perm")
    if inverse_perm is not None:
        inverse_perm = [
            _require_int(i, "inverse_perm entry")
            for i in _require_list(inverse_perm, "inverse_perm")
        ]
    return CharacterTable(
        _require_int(payload["order"], "group order"),
        [
            _require_int(s, "class size")
            for s in _require_list(payload["class_sizes"], "class_sizes")
        ],
        rows,
        name=str(payload.get("name", "")),
        inverse_perm=inverse_perm,
    )


def premodular_to_doc(ring: FusionRing, dims, twists) -> dict:
    return _envelope(
        "premodular",
        {
            "ring": ring_to_doc(ring)["payload"],
            "dims": [scalar_to_json(d) for d in dims],
            "twists": [scalar_to_json(t) for t in twists],
        },
    )


def premodular_from_payload(payload: dict) -> tuple[FusionRing, list, list]:
    _require_keys(payload, {"ring", "dims", "twists"}, set(), "premodular payload")
    ring = ring_from_payload(payload["ring"])
    dims = [scalar_from_json(v) for v in _require_list(payload["dims"], "dims")]
    twists = [
        scalar_from_json(v) for v in _require_list(payload["twists"], "twists")
    ]
    return ring, dims, twists


def report_doc(payload: dict) -> dict:
    return _envelope("report", payload)


def replay_from_payload(payload: dict) -> tuple[FusionRing, Any, Any, int | None]:
    """The ring, status, stage and node cap (None when absent) that an
    obstruction certificate records.  Other fields are not needed to
    replay it; the CLI's replay compares the witness rows, when recorded,
    with the recomputed ones, and ignores the rest, `steps` included."""
    _require_keys(payload, {"ring", "status", "stage"}, None, "certificate payload")
    node_cap = None
    if "node_cap" in payload:
        node_cap = _require_int(payload["node_cap"], "node_cap", 1)
    ring = ring_from_payload(payload["ring"])
    return ring, payload["status"], payload["stage"], node_cap


# ---------------------------------------------------------------------------
# load / save


def parse_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # besides JSONDecodeError: integers past the int-digit limit, and
        # nesting past the recursion limit
        raise DocumentError(f"not valid JSON: {exc}") from exc
    _require_keys(doc, {"schema", "kind", "payload"}, set(), "document")
    if _require_int(doc["schema"], "schema version") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema version: {doc['schema']!r}")
    if doc["kind"] not in KINDS:
        raise DocumentError(f"unknown document kind: {doc['kind']!r}")
    # payloads of structured kinds are validated eagerly
    if doc["kind"] == "ring":
        ring_from_payload(doc["payload"])
    elif doc["kind"] == "chartable":
        table_from_payload(doc["payload"])
    elif doc["kind"] == "premodular":
        premodular_from_payload(doc["payload"])
    return doc


def load_document(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"not UTF-8 text: {exc}") from exc
    return parse_document(text)


def canonical_dumps(doc: dict) -> str:
    """The canonical text of `doc`: byte for byte
    ``json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``.

    Keys must be ``str``; any other key raises TypeError, where json.dumps
    would convert it."""
    return _write(doc, "\n") + "\n"


# json.dumps drops its C encoder whenever `indent` is set.  This writer
# checks types once per container instead of once per leaf: a list of
# exact ints, an int matrix, or an int 3-tensor is written by joining
# C-level conversions, and each distinct int row's text is built once per
# container, so a witness of 1,098 rows, 10 of them distinct, costs 10 row
# texts and one join.  Other leaves go through the C encoder.
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _write(value: Any, nl: str) -> str:
    """`value` as json.dumps with indent=2 writes it, where `nl` is a
    newline followed by the indentation of the line `value` starts on."""
    if type(value) is str:
        return encode_basestring(value)
    if type(value) is int:
        return int.__repr__(value)
    inner = nl + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sorted(value.items())
        for key, _ in items:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        body = ("," + inner).join(
            [encode_basestring(k) + ": " + _write(v, inner) for k, v in items]
        )
        return "{" + inner + body + nl + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = _packed(value, inner) if type(value) in (list, tuple) else None
        if body is None:
            body = ("," + inner).join([_write(v, inner) for v in value])
        return "[" + inner + body + nl + "]"
    return _encode(value)


def _packed(value: list | tuple, inner: str) -> str | None:
    """The items of `value` joined by "," and `inner`, as `_write` writes
    them, when they are exact ints, nonempty int rows or matrices of
    them; None for any other items.  Rows are exact lists or tuples, and
    every entry is an exact int (no bool or float), so equal rows have
    equal text and a row tuple is a safe key."""
    types = set(map(type, value))
    if types == {int}:
        return ("," + inner).join(map(int.__repr__, value))
    if not (types <= {list, tuple} and all(value)):
        return None
    item_types = set(map(type, chain.from_iterable(value)))
    if item_types == {int}:
        return ("," + inner).join(_row_texts(value, inner))
    if not item_types <= {list, tuple}:
        return None
    rows = list(chain.from_iterable(value))
    if all(rows) and set(map(type, chain.from_iterable(rows))) == {int}:
        row = inner + "  "
        texts = iter(_row_texts(rows, row))  # planes share row texts
        return ("," + inner).join(
            [
                "[" + row + ("," + row).join(islice(texts, len(plane))) + inner + "]"
                for plane in value
            ]
        )
    return None


def _row_texts(rows, inner: str) -> list[str]:
    """The text of each int row in `rows`, starting on a line indented by
    `inner`; each distinct row's text is built once."""
    keys = list(map(tuple, rows))
    entry = inner + "  "
    sep = "," + entry
    texts = {
        key: "[" + entry + sep.join(map(int.__repr__, key)) + inner + "]"
        for key in set(keys)
    }
    return list(map(texts.__getitem__, keys))


def save_document(doc: dict, path: str | Path) -> None:
    Path(path).write_text(canonical_dumps(doc), encoding="utf-8")
