"""Self-test of the benchmark's checker and input generation.

    python3 bench/selftest.py

Shows that the checker counts a corrupted verdict, a bad Gram witness, a
known-categorifiable ring declared infeasible, and a wrong ring analysis as
failed operations; that a tampered reference table is caught by its hash;
and that the same seed gives the same inputs.  Exits 0 when every check
holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def main() -> int:
    reference = checker.load_reference(HERE / "reference" / "verdicts.json")

    # same seed, same inputs; another seed, another order
    for w in workloads.WORKLOADS:
        a, b = workloads.op_keys(w, 7), workloads.op_keys(w, 7)
        expect(a == b, f"{w}: seed 7 gives the same operations twice")
        expect(a != workloads.op_keys(w, 8), f"{w}: seed 8 gives another order")
    keys = workloads.op_keys("ring-structure", 7)
    rings_a = workloads.build_inputs(keys)
    rings_b = workloads.build_inputs(keys)
    expect(all(rings_a[k] == rings_b[k] for k in rings_a), "ring-structure: seed 7 builds equal rings")

    # a real feasible cell, then corrupted copies of its output
    key = ("rank4", "z3-pointed", 3)
    inputs = workloads.build_inputs([key])
    out = workloads.run_op(key, inputs, NullTracer())
    outcome, _ = workloads.classify(key, out, None, inputs, reference)
    expect(outcome == checker.DECIDED, "rank4 z3-pointed kappa=3 is decided and correct")

    flipped = dict(out, status="infeasible")
    outcome, why = workloads.classify(key, flipped, None, inputs, reference)
    expect(outcome == checker.FAILED, f"corrupted verdict counts as failed ({why})")

    bad = copy.deepcopy(out)
    bad["witness"][-1][-1] += 1
    outcome, why = workloads.classify(key, bad, None, inputs, reference)
    expect(outcome == checker.FAILED, f"bad witness counts as failed ({why})")

    outcome, why = workloads.classify(key, None, "ValueError: boom", inputs, reference)
    expect(outcome == checker.FAILED, f"a raising cell counts as failed ({why})")

    # soundness: Tambara-Yamagami C(Z_5, 0) must never be infeasible, even
    # against a reference that says so
    ty = ("near-group", 5, 0)
    facts = {"status": "infeasible", "witness": None, "N": None}
    outcome, why = checker.check_cell(ty, facts, "infeasible")
    expect(outcome == checker.FAILED, f"TY declared infeasible counts as failed ({why})")
    eg = ("near-group", 5, 3)
    facts = {"status": "feasible", "witness": None, "N": None}
    outcome, why = checker.check_cell(eg, facts, "inconclusive")
    expect(outcome == checker.FAILED, f"feasible outside Evans-Gannon counts as failed ({why})")
    capped = ("near-group", 5, 5)
    facts = {"status": "inconclusive", "witness": None, "N": None}
    outcome, _ = checker.check_cell(capped, facts, "inconclusive")
    expect(outcome == checker.INCONCLUSIVE, "a capped cell that is capped in the reference is inconclusive")

    # reference tables agree with the paper's survivor sets
    table = reference["rank4-sweep"]["table"]
    for base in workloads.RANK4_BASES:
        got = {int(k) for k, s in table[base].items() if s == "feasible"}
        want = {k for k in range(workloads.RANK4_KAPPA_MAX + 1) if checker.rank4_survives(base, k)}
        expect(got == want, f"reference survivors of {base} are the paper's set")

    # a tampered reference is refused
    tampered = json.loads((HERE / "reference" / "verdicts.json").read_text())
    tampered["rank4-sweep"]["table"]["rep-s3"]["1"] = "feasible"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "verdicts.json"
        path.write_text(json.dumps(tampered))
        try:
            checker.load_reference(path)
            refused = False
        except ValueError:
            refused = True
    expect(refused, "a tampered reference table fails its sha256")

    # ring analyses: a wrong answer fails, the documented refusal does not
    for rkey in [("ring", 11, 3), ("ring", 12, 3)]:
        rinputs = workloads.build_inputs([rkey])
        rfacts = workloads.facts(rkey, workloads.run_op(rkey, rinputs, NullTracer()), rinputs)
        outcome, why = checker.check_ring(rkey, rfacts)
        want = checker.DECIDED if rkey[1] + 1 <= checker.SUBRING_RANK_BOUND else checker.REFUSED
        expect(outcome == want, f"rank {rkey[1] + 1} ring analysis is {want} ({why})")
    bad = dict(rfacts, detect_mr_error="InvalidRingError: x")
    outcome, _ = checker.check_ring(rkey, bad)
    expect(outcome == checker.FAILED, "detect_mr raising another error above rank 12 counts as failed")
    small = ("ring", 3, 2)
    sinputs = workloads.build_inputs([small])
    sfacts = workloads.facts(small, workloads.run_op(small, sinputs, NullTracer()), sinputs)
    outcome, _ = checker.check_ring(small, dict(sfacts, detect_mr_error="ValueError: x", detect_mr=None))
    expect(outcome == checker.FAILED, "detect_mr ValueError at rank 4 counts as failed")
    wrong = dict(sfacts["detect_mr"], kappa=4)
    outcome, _ = checker.check_ring(small, dict(sfacts, detect_mr=wrong))
    expect(outcome == checker.FAILED, "detect_mr with the wrong kappa counts as failed")
    dims = list(sfacts["dims"])
    dims[-1] = (dims[-1][0] + 1, dims[-1][1], dims[-1][2])
    outcome, _ = checker.check_ring(small, dict(sfacts, dims=dims))
    expect(outcome == checker.FAILED, "a wrong FP dimension counts as failed")

    # micro-benchmark references catch a wrong product
    expect(checker.cyc_mul_reference([0, 1], [0, 1], 3) == (-1, -1), "zeta_3^2 = -1 - zeta_3")
    expect(not checker.charpoly_ok([[0, 1], [1, 0]], (1, 0, 1)), "a wrong charpoly is caught")
    expect(checker.charpoly_ok([[0, 1], [1, 0]], (-1, 0, 1)), "x^2 - 1 is the charpoly of the swap")

    pct = checker.tail_percentile(122)
    beyond = sum(v > checker.nearest_rank(list(range(122)), pct) for v in range(122))
    expect((pct, beyond) == (91, 10), "tail of 122 samples is p91 with 10 samples beyond")

    print(f"selftest: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
