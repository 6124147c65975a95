"""The four workloads: the operations each one generates from its seed,
their inputs, one pass over them, and the facts the checker judges.

An operation is an obstruction cell, a ring analysis or a table analysis.
A pass runs untraced (the library's own entry points, e.g. `obstruct`) or
traced, where the obstruction pipeline is run stage by stage through its
public functions, with a span around each call.  Importing this module
imports mrfw, which the pass runner times as set-up.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple, Optional

from mrfw import serialize
from mrfw.chartab import fusion_from_table, theorem57_check, validate_table
from mrfw.corpus import TABLE_BUILDERS, cyclic_ring, cyclic_table, s3_base_ring, z3_base_ring
from mrfw.mr import mr_extend, mr_fpdim
from mrfw.obstruction import (
    DEFAULT_NODE_CAP,
    FEASIBLE,
    FEASIBLE_MEANING,
    INCONCLUSIVE,
    INFEASIBLE,
    codegrees,
    gram_search,
    i1_dimension_system,
    induction_data,
    obstruct,
)
from mrfw.premodular import degeneracy_class, premodular_data
from mrfw.ring import adjoint_and_grading, detect_mr, fpdims, invertibles, subrings
from mrfw.scalars import CycNumber, ExactnessError

import checker
from spans import Tracer

WORKLOADS = ("rank4-sweep", "near-group-gram", "ring-structure", "cyclotomic")

RANK4_KAPPA_MAX = 60
RANK4_BASES = {"z3-pointed": z3_base_ring, "rep-s3": s3_base_ring}
RANK4_NODE_CAP = DEFAULT_NODE_CAP

# C(Z_n, kappa) for n in NEAR_GROUP_ORDERS and kappa = 0..2n.  The cap keeps
# a pass near three seconds: the capped cells stop at it, so their time
# measures Gram node throughput, and better pruning decides them.
NEAR_GROUP_ORDERS = (2, 3, 4, 5, 6)
NEAR_GROUP_NODE_CAP = 50_000

# C(Z_a, kappa): two values of kappa, drawn from the seed, for each rank
# 3..13, and one for rank 21.  Ranks 13 and 21 are above the subring
# enumeration bound, so detect_mr refuses them.
RING_BASE_ORDERS = tuple(range(2, 13))
RING_LARGE_BASE_ORDER = 20

CORPUS_TABLES = tuple(checker.TWO_CLASS_HOLDS)
CYCLIC_TABLE_ORDERS = (5, 6, 7)
POINTED_ORDERS = (2, 3, 4, 5, 6, 7)


def op_keys(workload: str, seed: int) -> list[tuple]:
    """Operations of one pass, in the order the seed gives them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "rank4-sweep":
        keys = [("rank4", b, k) for b in RANK4_BASES for k in range(RANK4_KAPPA_MAX + 1)]
    elif workload == "near-group-gram":
        keys = [("near-group", n, k) for n in NEAR_GROUP_ORDERS for k in range(2 * n + 1)]
    elif workload == "ring-structure":
        keys = [("ring", a, k) for a in RING_BASE_ORDERS for k in rng.sample(range(2 * a + 1), 2)]
        a = RING_LARGE_BASE_ORDER
        keys.append(("ring", a, rng.randrange(2 * a + 1)))
    elif workload == "cyclotomic":
        keys = (
            [("table", "corpus", name) for name in CORPUS_TABLES]
            + [("table", "cyclic", n) for n in CYCLIC_TABLE_ORDERS]
            + [("premodular", "pointed", n) for n in POINTED_ORDERS]
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(keys)
    return keys


def pointed_data(n: int):
    """Pointed Z_n with unit dimensions and twists zeta_n^(k^2)."""
    zeta = CycNumber.root_of_unity(n)
    return cyclic_ring(n), [1] * n, [zeta ** (k * k) for k in range(n)]


def build_inputs(keys: list[tuple]) -> dict:
    """Rings, tables and S-matrix data for the operations, built fresh."""
    inputs: dict = {}
    for key in keys:
        kind, a, b = key
        if kind == "rank4":
            inputs[key] = RANK4_BASES[a](b)
        elif kind in ("near-group", "ring"):
            inputs[key] = mr_extend(cyclic_ring(a), b)
        elif kind == "table":
            inputs[key] = TABLE_BUILDERS[b]() if a == "corpus" else cyclic_table(b)
        else:
            inputs[key] = pointed_data(b)
    return inputs


# ---------------------------------------------------------------------------
# obstruction cells


class StagedVerdict(NamedTuple):
    status: str
    stage: Optional[str]
    witness: object  # GramWitness or None
    steps: tuple = ()


def staged_obstruct(ring, node_cap: int, tr: Tracer) -> StagedVerdict:
    """The pipeline of `obstruct`, one public stage at a time.

    `codegrees` and `subrings` are called on their own for their spans;
    `induction_data` and `detect_mr` compute them again inside."""
    with tr.span("ring.validate"):
        ring.require_valid()
    if not ring.is_commutative:
        return StagedVerdict(INCONCLUSIVE, "codegrees", None)
    try:
        with tr.span("obstruction.codegrees"):
            codegrees(ring)
        with tr.span("obstruction.induction_data"):
            data = induction_data(ring)
    except ExactnessError:
        return StagedVerdict(INCONCLUSIVE, "codegrees", None)
    with tr.span("ring.subrings"):
        subrings(ring)
    with tr.span("ring.detect_mr"):
        mr = detect_mr(ring)
    with tr.span("obstruction.i1"):
        i1 = i1_dimension_system(ring, data, mr)
    tr.count("obstruction.i1_candidates", sum(len(s.candidates) for s in i1.summands))
    if i1.status != FEASIBLE:
        return StagedVerdict(i1.status, "i1", None)
    with tr.span("ring.fpdims"):
        dims = fpdims(ring).dims
    saw_cap = False
    for sol in i1.solutions:
        with tr.span("obstruction.gram"):
            res = gram_search(data.H, sol, dims, node_cap)
        tr.count("obstruction.gram_nodes", res.nodes)
        if res.status == FEASIBLE:
            return StagedVerdict(FEASIBLE, "gram", res.witness)
        if res.status == INCONCLUSIVE:
            tr.count("obstruction.gram_capped")
            saw_cap = True
    return StagedVerdict(INCONCLUSIVE if saw_cap else INFEASIBLE, "gram", None)


def certificate_roundtrip(ring, verdict, rows, node_cap: int) -> bool:
    """Serialize the certificate the CLI emits, parse it back, and compare."""
    payload = {
        "ring": serialize.ring_to_doc(ring)["payload"],
        "node_cap": node_cap,
        "status": verdict.status,
        "stage": verdict.stage,
        "steps": list(verdict.steps),
        "meaning": FEASIBLE_MEANING,
    }
    if rows is not None:
        payload["witness"] = rows
    text = serialize.canonical_dumps(serialize.report_doc(payload))
    doc = serialize.parse_document(text)
    return (
        doc["payload"] == payload
        and serialize.ring_from_payload(doc["payload"]["ring"]) == ring
        and serialize.canonical_dumps(doc) == text
    )


def _cell_op(ring, node_cap: int, roundtrip: bool, tr) -> dict:
    if tr.traced:
        verdict = staged_obstruct(ring, node_cap, tr)
    else:
        verdict = obstruct(ring, node_cap)
    rows = None
    if verdict.witness is not None:
        rows = [list(r) for r in verdict.witness.all_rows()]
    out = {"status": verdict.status, "stage": verdict.stage, "witness": rows}
    if roundtrip:
        with tr.span("serialize.roundtrip"):
            out["roundtrip"] = certificate_roundtrip(ring, verdict, rows, node_cap)
    return out


# ---------------------------------------------------------------------------
# ring and table analyses


def _ring_op(ring, tr) -> dict:
    out: dict = {}
    with tr.span("ring.validate"):
        out["violations"] = ring.validate()
    with tr.span("ring.fpdims"):
        out["fpdims"] = fpdims(ring)
    with tr.span("ring.grading"):
        out["grading"] = adjoint_and_grading(ring)
    with tr.span("ring.invertibles"):
        out["invertibles"] = invertibles(ring)
    if tr.traced:
        try:
            with tr.span("ring.subrings"):
                subrings(ring)
        except ValueError:
            tr.count("ring.subrings_refused")
    try:
        with tr.span("ring.detect_mr"):
            out["detect_mr"] = detect_mr(ring)
    except ValueError as exc:  # the checker decides whether it is allowed
        out["detect_mr_error"] = f"{type(exc).__name__}: {exc}"
    return out


def _table_op(table, tr) -> dict:
    out: dict = {}
    with tr.span("chartab.validate_table"):
        out["problems"] = validate_table(table)
    with tr.span("chartab.fusion_from_table"):
        out["fusion"] = fusion_from_table(table)
    if table.order > 2:  # theorem 5.7 needs group order > 2
        with tr.span("chartab.theorem57"):
            out["theorem57"] = theorem57_check(table)
    return out


def _premodular_op(data, tr) -> dict:
    with tr.span("premodular.smatrix"):
        pd = premodular_data(*data)
    with tr.span("premodular.degeneracy"):
        return {"data": pd, "degeneracy": degeneracy_class(pd)}


def run_op(key: tuple, inputs: dict, tr):
    kind = key[0]
    if kind == "rank4":
        return _cell_op(inputs[key], RANK4_NODE_CAP, True, tr)
    if kind == "near-group":
        return _cell_op(inputs[key], NEAR_GROUP_NODE_CAP, False, tr)
    if kind == "ring":
        return _ring_op(inputs[key], tr)
    if kind == "table":
        return _table_op(inputs[key], tr)
    return _premodular_op(inputs[key], tr)


def run_pass(keys: list[tuple], inputs: dict, tr) -> list:
    """Run every operation once, in order.  Returns (key, output, error,
    start, end) per operation, on the `time.perf_counter` clock."""
    results = []
    for key in keys:
        t0 = time.perf_counter()
        try:
            with tr.span("bench.op"):
                out, err = run_op(key, inputs, tr), None
        except Exception as exc:  # recorded as a failed operation
            out, err = None, f"{type(exc).__name__}: {exc}"
        results.append((key, out, err, t0, time.perf_counter()))
    return results


# ---------------------------------------------------------------------------
# facts for the checker


def _quad(x) -> tuple:
    return (x.p, x.q, x.D)


def facts(key: tuple, out: dict, inputs: dict) -> dict:
    """Plain data the checker needs from an operation's output."""
    kind, a, b = key
    if kind in ("rank4", "near-group"):
        return dict(out, N=inputs[key].N)
    if kind == "ring":
        mr = out.get("detect_mr")
        return {
            "violations": len(out["violations"]),
            "dims": [_quad(d) for d in out["fpdims"].dims],
            "exact": out["fpdims"].all_exact,
            "mr_fpdim": _quad(mr_fpdim(a, b)[0]),
            "grading_order": out["grading"].group_order,
            "adjoint": sorted(out["grading"].adjoint),
            "invertibles": list(out["invertibles"].elements),
            "invertible_table": [list(r) for r in out["invertibles"].table],
            "detect_mr": None if mr is None else {
                "base": list(mr.base),
                "extra": mr.extra,
                "kappa": mr.kappa,
                "dims": list(mr.dims),
                "a": mr.a,
            },
            "detect_mr_error": out.get("detect_mr_error"),
        }
    if kind == "table":
        report = out.get("theorem57")
        return {
            "problems": len(out["problems"]),
            "N": out["fusion"].N,
            "degrees": inputs[key].degrees,
            "two_class": None if report is None else report.holds,
        }
    S = out["data"].S
    return {
        "s_matches": all(
            S[j][k] == CycNumber.root_of_unity(b, 2 * j * k) for j in range(b) for k in range(b)
        ),
        "label": out["degeneracy"].label,
    }


def classify(key: tuple, out, err: Optional[str], inputs: dict, reference: dict) -> tuple[str, str]:
    """Outcome of one operation (see checker) and the reason for it."""
    if err is not None:
        return checker.FAILED, err
    kind = key[0]
    if kind == "rank4":
        ref = reference["rank4-sweep"]["table"][key[1]].get(str(key[2]))
        return checker.check_cell(key, facts(key, out, inputs), ref)
    if kind == "near-group":
        ref = reference["near-group-gram"]["table"][str(key[1])].get(str(key[2]))
        return checker.check_cell(key, facts(key, out, inputs), ref)
    if kind == "ring":
        return checker.check_ring(key, facts(key, out, inputs))
    return checker.check_table(key, facts(key, out, inputs))


# ---------------------------------------------------------------------------
# probes for the traced pass

PROBE_LAYERS = ("ring", "obstruction", "serialize", "chartab", "premodular")


def probe_keys(seed: int, missing: set) -> list[tuple]:
    """One small operation for each layer the workload never calls, so
    every layer metric is measured in every traced run.

    The obstruction probe is a feasible cell C(Z_3, 3m) of the sweep, with
    m drawn from the seed; the table probe is Z_5; the S-matrix probe is
    pointed Z_5."""
    keys: list[tuple] = []
    if missing & {"ring", "obstruction", "serialize"}:
        m = random.Random(f"probe:{seed}").randint(1, RANK4_KAPPA_MAX // 3)
        keys.append(("rank4", "z3-pointed", 3 * m))
    if "chartab" in missing:
        keys.append(("table", "cyclic", 5))
    if "premodular" in missing:
        keys.append(("premodular", "pointed", 5))
    return keys
