import copy
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ring_oracles import cubic_ring, stdlib_dumps

from mrfw.cli import _verdict_payload, corpus_dir, main, resolve_document
from mrfw.corpus import (
    cyclic_ring,
    fibonacci_ring,
    s3_base_ring,
    s3_table,
    trivial_ring,
    write_corpus,
    z3_base_ring,
)
from mrfw.mr import mr_extend
from mrfw.obstruction import DEFAULT_NODE_CAP, obstruct
from mrfw.scalars import QuadExt
from mrfw.serialize import (
    load_document,
    premodular_to_doc,
    report_doc,
    ring_from_payload,
    ring_to_doc,
    save_document,
    table_to_doc,
)


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(*args, env=None):
    """Run `main` in-process on `args`, with `env` over the environment."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env or {}), redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return Result(code, out.getvalue(), err.getvalue())


def assert_exit(result, code, prefix):
    assert result.exit_code == code, result.output
    assert prefix in result.output
    assert "Traceback" not in result.output


def swapped_z2_payload():
    """Z_2 with the unit rows swapped: well-formed, but fails the unit axiom."""
    N = [[list(row) for row in plane] for plane in cyclic_ring(2).N]
    N[0], N[1] = N[1], N[0]
    return {"labels": ["0", "1"], "N": N}


class TestCheck:
    @pytest.mark.parametrize(
        "name",
        ["fibonacci", "s3-base-k5", "ising", "s3-table", "premodular-fibonacci",
         "premodular-ising"],
    )
    def test_corpus_valid(self, name):
        result = invoke("check", name)
        assert result.exit_code == 0, result.output
        assert "valid" in result.output

    def test_corrupted_tensor(self, tmp_path):
        doc = ring_to_doc(fibonacci_ring())
        doc["payload"]["N"][1][1][0] += 1
        p = tmp_path / "bad.json"
        save_document(doc, p)
        result = invoke("check", str(p))
        assert result.exit_code == 1
        assert "INVALID" in result.output

    def test_parse_error(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("{not json")
        result = invoke("check", str(p))
        assert result.exit_code == 2

    def test_not_utf8(self, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"schema": 1, "kind": "ring", "payload": {"labels": ["\xff"]}}')
        assert_exit(invoke("check", str(p)), 2, "error: not UTF-8 text")

    def test_missing_file(self):
        result = invoke("check", "no-such-entry")
        assert result.exit_code == 2

    def test_zero_class_size(self, tmp_path):
        doc = table_to_doc(s3_table())
        doc["payload"]["class_sizes"] = [1, 0, 2]
        p = tmp_path / "zero.json"
        save_document(doc, p)
        result = invoke("check", str(p))
        assert result.exit_code == 1
        assert "INVALID: class 1 size 0 does not divide order 6" in result.output

    def test_forged_inverse_perm(self, tmp_path):
        # class 2 of S3 has no inverse class 5; the table is otherwise valid
        doc = table_to_doc(s3_table())
        doc["payload"]["inverse_perm"] = [0, 1, 5]
        p = tmp_path / "perm.json"
        save_document(doc, p)
        want = "INVALID: inverse_perm is not a permutation of the 3 classes at class 2"
        assert_exit(invoke("check", str(p)), 1, want)
        assert_exit(invoke("gagola", str(p)), 1, want.replace(": ", ": invalid table: ", 1))

    def test_corpus_env_override(self, tmp_path):
        write_corpus(tmp_path)
        result = invoke("check", "fibonacci", env={"MRFW_CORPUS": str(tmp_path)})
        assert result.exit_code == 0
        empty = tmp_path / "empty"
        empty.mkdir()
        result = invoke("check", "fibonacci", env={"MRFW_CORPUS": str(empty)})
        assert result.exit_code == 2


def _bad_order(order):
    def mutate(doc):
        doc["payload"]["characters"][1][1] = {"order": order, "coeffs": [0, 1]}
    return mutate


def _set(key, value):
    def mutate(doc):
        doc["payload"][key] = value
    return mutate


MALFORMED_TABLES = {
    "order-0": _bad_order(0),
    "order-negative": _bad_order(-4),
    "order-string": _bad_order("x"),
    "class-size-string": _set("class_sizes", ["a", 1]),
    "characters-int": _set("characters", 5),
    "inverse-perm-string": _set("inverse_perm", ["a", 1, 2]),
}


def _set_at(key, index, value):
    def mutate(doc):
        doc["payload"][key][index] = value
    return mutate


MALFORMED_PREMODULAR = {
    "order-0": _set_at("twists", 1, {"order": 0, "coeffs": [0, 1]}),
    "order-negative": _set_at("twists", 1, {"order": -4, "coeffs": [0, 1]}),
    "order-string": _set_at("twists", 1, {"order": "x", "coeffs": [0, 1]}),
    "coeffs-int": _set_at("twists", 1, {"order": 4, "coeffs": 5}),
    "radicand-zero": _set_at("dims", 1, {"p": 0, "q": 1, "D": 0}),
    "twists-int": _set("twists", 5),
}


class TestMalformedPayloads:
    """Malformed scalars and tables are operational errors: exit 2."""

    def _run(self, tmp_path, command, doc):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        result = invoke(command, str(p))
        assert result.exit_code == 2, result.output
        assert "error: " in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command", ["check", "gagola"])
    @pytest.mark.parametrize("shape", sorted(MALFORMED_TABLES))
    def test_chartable(self, tmp_path, command, shape):
        doc = resolve_document("z3-table")
        MALFORMED_TABLES[shape](doc)
        self._run(tmp_path, command, doc)

    @pytest.mark.parametrize("command", ["check", "report"])
    @pytest.mark.parametrize(
        "labels,N",
        [([], []), (5, []), (["1"], 5), (["1"], [5])],
        ids=["empty-basis", "labels-int", "tensor-int", "plane-int"],
    )
    def test_ring(self, tmp_path, command, labels, N):
        doc = {"schema": 1, "kind": "ring", "payload": {"labels": labels, "N": N}}
        self._run(tmp_path, command, doc)

    @pytest.mark.parametrize("command", ["check", "smatrix"])
    @pytest.mark.parametrize("shape", sorted(MALFORMED_PREMODULAR))
    def test_premodular(self, tmp_path, command, shape):
        doc = resolve_document("premodular-z2-modular")
        MALFORMED_PREMODULAR[shape](doc)
        self._run(tmp_path, command, doc)


class TestReport:
    def test_ising(self):
        result = invoke("report", "ising")
        assert result.exit_code == 0
        assert "MR(a=2, kappa=0)" in result.output
        assert "weakly-integral-only" in result.output
        assert "order 2" in result.output
        assert "fiber-functor flag" in result.output

    def test_fibonacci(self):
        result = invoke("report", "fibonacci")
        assert result.exit_code == 0
        assert "MR(a=1, kappa=1)" in result.output
        assert "irrational" in result.output
        assert "conclusion (1, 0)" in result.output

    def test_z4_pointed_no_mr(self):
        result = invoke("report", "z4-group-ring")
        assert result.exit_code == 0
        assert "pointed" in result.output
        assert "no corank-one subring" in result.output

    def test_rank13_near_group(self, tmp_path):
        # C(Z_12, 4): rank 13, integral, with extra dimension 6
        p = tmp_path / "c-z12-4.json"
        save_document(ring_to_doc(mr_extend(cyclic_ring(12), 4)), p)
        result = invoke("report", str(p))
        assert result.exit_code == 0, result.output
        assert "Traceback" not in result.output
        assert "MR(a=12, kappa=4)" in result.output
        assert "integral" in result.output

    def test_invalid_ring(self, tmp_path):
        doc = ring_to_doc(mr_extend(cyclic_ring(4), 4))
        doc["payload"]["N"][2][1][3] += 1
        p = tmp_path / "broken.json"
        save_document(doc, p)
        result = invoke("report", str(p))
        assert_exit(result, 1, "INVALID")
        assert result.stdout == "INVALID: frobenius-reciprocity at (2, 1, 3): 2, 1, 1\n"

    def test_grading_forcing(self, tmp_path):
        p = tmp_path / "c-z4-0.json"
        save_document(ring_to_doc(mr_extend(cyclic_ring(4), 0)), p)
        result = invoke("report", str(p))
        assert result.exit_code == 0, result.output
        assert "grading forcing: kappa = 0 forces a Z_2 grading" in result.stdout.splitlines()


class TestObstruct:
    def test_fibonacci_feasible(self):
        result = invoke("obstruct", "fibonacci")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["payload"]["status"] == "feasible"

    def test_sweep_and_survivors(self):
        result = invoke("obstruct", "--sweep", "--kappa-max", "12")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        payload = doc["payload"]
        assert payload["columns"] == ["z3-pointed", "rep-s3"]
        assert payload["survivors"]["z3-pointed"] == [0, 2, 3, 6, 9, 12]
        assert payload["survivors"]["rep-s3"] == [0, 5, 6, 12]

    def test_sweep_jobs_deterministic(self):
        a = invoke("obstruct", "--sweep", "--kappa-max", "8")
        b = invoke("obstruct", "--sweep", "--kappa-max", "8", "--jobs", "2")
        assert a.output == b.output

    def test_replay_matches(self, tmp_path):
        result = invoke("obstruct", "z3-base-k3")
        cert = tmp_path / "cert.json"
        cert.write_text(result.output)
        replay = invoke("obstruct", "--replay", str(cert))
        assert replay.exit_code == 0
        assert "match" in replay.output

    def test_replay_detects_tamper(self, tmp_path):
        result = invoke("obstruct", "z3-base-k3")
        doc = json.loads(result.output)
        doc["payload"]["status"] = "infeasible"
        cert = tmp_path / "cert.json"
        save_document(doc, cert)
        replay = invoke("obstruct", "--replay", str(cert))
        assert replay.exit_code == 1
        assert "MISMATCH" in replay.output

    def test_exactness_failure_replays(self, tmp_path):
        # an inconclusive verdict is a completed run, exit 0, and replays
        p = tmp_path / "cubic.json"
        save_document(ring_to_doc(cubic_ring()), p)
        result = invoke("obstruct", str(p))
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)["payload"]
        assert (payload["status"], payload["stage"]) == ("inconclusive", "codegrees")
        cert = tmp_path / "cert.json"
        cert.write_text(result.output)
        assert_exit(invoke("obstruct", "--replay", str(cert)), 0, "(match)")

    def test_requires_argument(self):
        result = invoke("obstruct")
        assert result.exit_code != 0


class TestGagola:
    def test_positive(self):
        result = invoke("gagola", "s3-table")
        assert result.exit_code == 0
        assert "criterion holds" in result.output

    def test_negative(self):
        result = invoke("gagola", "s4-table")
        assert result.exit_code == 0
        assert "fails on both sides" in result.output

    def test_order_two(self):
        result = invoke("gagola", "z2-table")
        assert result.exit_code == 1


class TestSmatrix:
    def test_fibonacci(self):
        result = invoke("smatrix", "premodular-fibonacci")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        payload = doc["payload"]
        assert payload["degeneracy"] == "non-degenerate"
        assert payload["S"][1][1] == -1
        # the off-diagonal entry is the golden ratio reduced in the 5th
        # cyclotomic basis: 1 + z + z^4 = -z^2 - z^3
        assert payload["S"][0][1] == {"order": 5, "coeffs": [0, 0, -1, -1]}

    def test_z2_modular(self):
        result = invoke("smatrix", "premodular-z2-modular")
        doc = json.loads(result.output)
        assert doc["payload"]["S"] == [[1, 1], [1, -1]]
        assert doc["payload"]["degeneracy"] == "non-degenerate"


    def test_ising(self):
        result = invoke("smatrix", "premodular-ising")
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)["payload"]
        assert payload["degeneracy"] == "non-degenerate"
        assert payload["S"][2][2] == 0
        assert_exit(invoke("check", "premodular-ising"), 0, "valid premodular")

    @pytest.mark.parametrize("command", ["check", "smatrix"])
    def test_large_radicand_refused_before_embedding(self, tmp_path, command):
        # sqrt(10007) would live in Q(zeta_40028); it is no eigenvalue of a
        # Z_2 fusion matrix, so it is refused before any field is built
        doc = premodular_to_doc(cyclic_ring(2), [1, QuadExt.sqrt(10007)], [1, 1])
        p = tmp_path / "sqrt10007.json"
        save_document(doc, p)
        start = time.perf_counter()
        result = invoke(command, str(p))
        assert time.perf_counter() - start < 2
        assert_exit(result, 1, "INVALID: dimension 1")

    @pytest.mark.parametrize("command", ["check", "smatrix"])
    def test_huge_cyclotomic_order_refused(self, tmp_path, command):
        # building Q(zeta_40028) would stall the command for tens of
        # seconds; the order is refused while the document is read
        doc = premodular_to_doc(cyclic_ring(2), [1, 1], [1, 1])
        doc["payload"]["twists"][1] = {"order": 40028, "coeffs": [0, 1]}
        p = tmp_path / "order40028.json"
        save_document(doc, p)
        start = time.perf_counter()
        result = invoke(command, str(p))
        assert time.perf_counter() - start < 2
        assert_exit(result, 1, "INVALID: cyclotomic order 40028")

    @pytest.mark.parametrize("command", ["check", "smatrix"])
    def test_large_conductor_refused(self, tmp_path, command):
        # the near-group C(1, 101) passes the eigenvalue screen, but its
        # dimension (101 + sqrt 10205)/2 needs Q(zeta_10205): refused at once
        dim = (101 + QuadExt.sqrt(10205)) * Fraction(1, 2)
        doc = premodular_to_doc(mr_extend(trivial_ring(), 101), [1, dim], [1, 1])
        p = tmp_path / "near-group-101.json"
        save_document(doc, p)
        start = time.perf_counter()
        result = invoke(command, str(p))
        assert time.perf_counter() - start < 2
        assert_exit(result, 1, "INVALID: dimensions and twists need Q(zeta_10205)")

    @pytest.mark.parametrize("command", ["check", "smatrix"])
    def test_huge_radicand_refused(self, tmp_path, command):
        # factoring 10^18 + 9 by trial division did not finish in 20 s; the
        # radicand is refused while the document is read
        doc = premodular_to_doc(cyclic_ring(2), [1, 1], [1, 1])
        doc["payload"]["dims"][1] = {"p": 0, "q": 1, "D": 10**18 + 9}
        p = tmp_path / "radicand.json"
        save_document(doc, p)
        start = time.perf_counter()
        result = invoke(command, str(p))
        assert time.perf_counter() - start < 2
        assert_exit(result, 1, f"INVALID: radicand {10**18 + 9}")

    def test_invalid_ring_rejected(self, tmp_path):
        doc = premodular_to_doc(cyclic_ring(2), [1, 1], [1, 1])
        doc["payload"]["ring"] = swapped_z2_payload()
        p = tmp_path / "swapped.json"
        save_document(doc, p)
        for command in ("check", "smatrix"):
            result = invoke(command, str(p))
            assert result.exit_code == 1, (command, result.output)
            assert "INVALID" in result.output


class TestExtend:
    def test_extend_trivial_gives_fibonacci(self, tmp_path):
        result = invoke("extend", "trivial", "--kappa", "1", "--label", "X")
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["payload"]["N"] == ring_to_doc(fibonacci_ring())["payload"]["N"]

    def test_extend_rejects_irrational_base(self):
        result = invoke("extend", "fibonacci", "--kappa", "0")
        assert result.exit_code == 1

    def test_extend_output_checks(self, tmp_path):
        result = invoke("extend", "rep-s3", "--kappa", "7")
        p = tmp_path / "ext.json"
        p.write_text(result.output)
        check = invoke("check", str(p))
        assert check.exit_code == 0


class TestExitCodes:
    """Each input here once ended in a traceback or was accepted silently."""

    @pytest.mark.parametrize(
        "args", [["report"], ["extend", "--kappa", "1"]], ids=["report", "extend"]
    )
    def test_inexact_fpdims_are_operational(self, tmp_path, args):
        p = tmp_path / "cubic.json"
        save_document(ring_to_doc(cubic_ring()), p)
        result = invoke(*args, str(p))
        assert_exit(result, 2, "error: approximate Frobenius-Perron dimensions")

    @pytest.mark.parametrize(
        "args", [["check"], ["obstruct", "--replay"]], ids=["check", "replay"]
    )
    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000,
            '{"schema": 1, "kind": "ring", "payload": {"labels": ["1"], '
            '"N": [[[' + "1" * 5000 + "]]]}}",
        ],
        ids=["deep-nesting", "5000-digit-integer"],
    )
    def test_unparseable_json(self, tmp_path, args, text):
        # json.loads raises RecursionError on the one and a plain ValueError
        # (Python's int-digit limit) on the other
        p = tmp_path / "doc.json"
        p.write_text(text)
        result = invoke(*args, str(p))
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: not valid JSON")
        assert "Traceback" not in result.output

    def test_failed_report_prints_no_partial_report(self, tmp_path):
        p = tmp_path / "cubic.json"
        save_document(ring_to_doc(cubic_ring()), p)
        result = invoke("report", str(p))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "payload",
        [
            {"status": "feasible"},
            {"ring": ring_to_doc(fibonacci_ring())["payload"], "status": "feasible",
             "stage": "gram", "node_cap": "x"},
            {"ring": ring_to_doc(fibonacci_ring())["payload"], "status": "feasible",
             "stage": "gram", "node_cap": -5},
            ["ring"],
        ],
        ids=["no-ring", "node-cap-string", "node-cap-negative", "payload-list"],
    )
    def test_malformed_certificate(self, tmp_path, payload):
        p = tmp_path / "cert.json"
        p.write_text(json.dumps({"schema": 1, "kind": "report", "payload": payload}))
        assert_exit(invoke("obstruct", "--replay", str(p)), 2, "error: ")

    def test_certificate_of_invalid_ring(self, tmp_path):
        p = tmp_path / "cert.json"
        payload = {"ring": swapped_z2_payload(), "status": "feasible", "stage": "gram"}
        save_document({"schema": 1, "kind": "report", "payload": payload}, p)
        assert_exit(invoke("obstruct", "--replay", str(p)), 1, "INVALID: unit-law")

    @pytest.mark.parametrize("schema", [True, 1.0])
    def test_certificate_schema_not_integer_one(self, tmp_path, schema):
        # both compare equal to 1, yet neither is schema version 1
        doc = json.loads(invoke("obstruct", "z3-base-k3").output)
        doc["schema"] = schema
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(doc))
        assert_exit(invoke("obstruct", "--replay", str(p)), 2, "error: ")

    @pytest.mark.parametrize(
        "forge",
        [
            lambda w: [[9, 9, 9, 9] for _ in w],
            lambda w: [[w[0][0] + 1] + w[0][1:]] + w[1:],
            lambda w: w[:-1],
            lambda w: [[True if x == 1 else x for x in row] for row in w],
            lambda w: [[float(x) for x in row] for row in w],
            lambda w: "x",
            lambda w: {"rows": w},
            lambda w: None,
        ],
        ids=["all-nines", "one-entry", "row-dropped", "booleans", "floats",
             "string", "object", "null"],
    )
    def test_forged_witness_is_a_mismatch(self, tmp_path, certificate, forge):
        doc = copy.deepcopy(certificate)
        doc["payload"]["witness"] = forge(doc["payload"]["witness"])
        doc["payload"]["steps"] = ["forged"]
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(doc))
        result = invoke("obstruct", "--replay", str(p))
        assert_exit(result, 1, "replay: feasible at stage gram (MISMATCH)")
        assert "recorded witness differs" in result.output

    def test_witness_on_a_verdict_without_one(self, tmp_path):
        # C(Z_3, 1) is infeasible at i1; a witness recorded on it is forged
        p = tmp_path / "ring.json"
        save_document(ring_to_doc(z3_base_ring(1)), p)
        doc = json.loads(invoke("obstruct", str(p)).output)
        assert "witness" not in doc["payload"]
        p.write_text(json.dumps(doc))
        assert_exit(invoke("obstruct", "--replay", str(p)), 0, "(match)")
        doc["payload"]["witness"] = []
        p.write_text(json.dumps(doc))
        assert_exit(invoke("obstruct", "--replay", str(p)), 1, "(MISMATCH)")

    def test_certificate_steps_not_compared(self, tmp_path, certificate):
        doc = copy.deepcopy(certificate)
        doc["payload"]["steps"] = ["forged"]
        p = tmp_path / "cert.json"
        p.write_text(json.dumps(doc))
        assert_exit(invoke("obstruct", "--replay", str(p)), 0, "(match)")

    def test_certificate_extra_fields_ignored(self, tmp_path):
        doc = json.loads(invoke("obstruct", "z3-base-k3").output)
        doc["payload"]["stats"] = {"wall_s": 0.1}
        del doc["payload"]["node_cap"]
        p = tmp_path / "cert.json"
        save_document(doc, p)
        assert_exit(invoke("obstruct", "--replay", str(p)), 0, "(match)")

    @pytest.mark.parametrize(
        "args",
        [
            ["--sweep", "--jobs", "0"],
            ["--sweep", "--jobs", "-1"],
            ["--sweep", "--jobs", str((os.cpu_count() or 1) + 1)],
            ["--sweep", "--kappa-max", "-1"],
            ["fibonacci", "--node-cap", "0"],
            ["fibonacci", "--node-cap", "-5"],
        ],
        ids=["jobs-0", "jobs-negative", "jobs-above-cpus", "kappa-max-negative",
             "node-cap-0", "node-cap-negative"],
    )
    def test_option_out_of_range(self, args):
        # the parser rejects the value before the command body runs, so no
        # sweep and no worker pool starts
        assert_exit(invoke("obstruct", *args), 2, "Invalid value for")


class TestUsage:
    def test_help_lists_every_command(self):
        result = invoke("--help")
        assert result.exit_code == 0, result.output
        for name in ("check", "report", "obstruct", "gagola", "smatrix", "extend"):
            assert re.search(rf"^ +{name} ", result.stdout, re.M), name

    def test_obstruct_help_lists_every_option(self):
        result = invoke("obstruct", "--help")
        assert result.exit_code == 0, result.output
        for option in ("REF", "--sweep", "--kappa-max", "--node-cap", "--jobs",
                       "--replay"):
            assert option in result.stdout, option

    @pytest.mark.parametrize(
        "args,message",
        [([], "required: COMMAND"),
         (["bogus"], "invalid choice: 'bogus'"),
         (["obstruct"], "provide a ring document or use --sweep")],
        ids=["no-command", "unknown-command", "obstruct-without-ref"],
    )
    def test_usage_error(self, args, message):
        result = invoke(*args)
        assert result.exit_code == 2
        assert message in result.stderr
        assert result.stdout == ""
        assert "Traceback" not in result.output


def test_cold_start_loads_no_click_dataclasses_or_inspect():
    # every command pays for what `import mrfw.cli` loads, before any work
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; import mrfw.cli, mrfw.obstruction; "
        "print(sorted({'click', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


CORPUS_DOCUMENTS = {
    p.stem: json.loads(p.read_text(encoding="utf-8"))
    for p in sorted(corpus_dir().glob("*.json"))
}
CORPUS_RINGS = [name for name, doc in CORPUS_DOCUMENTS.items() if doc["kind"] == "ring"]


class TestCanonicalOutput:
    """Every JSON document the CLI prints is the stdlib's indent=2 text."""

    @pytest.mark.parametrize("build", [z3_base_ring, s3_base_ring],
                             ids=["z3-pointed", "rep-s3"])
    def test_rank4_certificates(self, tmp_path, build):
        p = tmp_path / "ring.json"
        for kappa in range(61):
            ring = build(kappa)
            save_document(ring_to_doc(ring), p)
            result = invoke("obstruct", str(p))
            assert result.exit_code == 0, result.output
            payload = _verdict_payload(ring, obstruct(ring), DEFAULT_NODE_CAP)
            assert result.output == stdlib_dumps(report_doc(payload)), kappa

    @pytest.mark.parametrize("name", CORPUS_RINGS)
    def test_corpus_rings(self, name):
        result = invoke("obstruct", name)
        assert result.exit_code == 0, result.output
        assert result.output == stdlib_dumps(json.loads(result.output))
        extended = invoke("extend", name, "--kappa", "3")
        if extended.exit_code == 0:
            base = ring_from_payload(CORPUS_DOCUMENTS[name]["payload"])
            assert extended.output == stdlib_dumps(ring_to_doc(mr_extend(base, 3)))

    @pytest.mark.parametrize(
        "args",
        [["obstruct", "--sweep", "--kappa-max", "6"],
         ["smatrix", "premodular-fibonacci"],
         ["smatrix", "premodular-z2-modular"],
         ["smatrix", "premodular-ising"]],
        ids=["sweep", "smatrix-fibonacci", "smatrix-z2", "smatrix-ising"],
    )
    def test_reports(self, args):
        result = invoke(*args)
        assert result.exit_code == 0, result.output
        assert result.output == stdlib_dumps(json.loads(result.output))


DOCUMENT_COMMANDS = [
    ["check"],
    ["report"],
    ["gagola"],
    ["smatrix"],
    ["extend", "--kappa", "1"],
    ["obstruct", "--node-cap", "2000"],
]
WRONG_VALUES = ["x", -1, 1.5, True, None, [], {}, "1/0"]
DELETE = object()


def json_paths(node, prefix=()):
    """The path of every value inside a JSON tree, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def certificate():
    return json.loads(invoke("obstruct", "z3-base-k3").output)


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_documents_keep_exit_code_contract(
        self, data, certificate, tmp_path_factory
    ):
        if data.draw(st.booleans(), label="replay"):
            doc, command = certificate, ["obstruct", "--replay"]
        else:
            doc = CORPUS_DOCUMENTS[data.draw(st.sampled_from(sorted(CORPUS_DOCUMENTS)))]
            command = data.draw(st.sampled_from(DOCUMENT_COMMANDS))
        doc = copy.deepcopy(doc)
        path = data.draw(st.sampled_from(list(json_paths(doc))))
        value = data.draw(st.sampled_from([DELETE] + WRONG_VALUES))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        p = tmp_path_factory.getbasetemp() / "mutated.json"
        p.write_text(json.dumps(doc), encoding="utf-8")
        result = invoke(*command, str(p))
        assert result.exit_code in (0, 1, 2), result.output
        assert "Traceback" not in result.output
        if command == ["obstruct", "--replay"] and path[:2] == ("payload", "witness"):
            # a changed witness is never a match; only its removal is
            removed = path == ("payload", "witness") and value is DELETE
            assert (result.exit_code == 0) == removed
