import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from mrfw.cli import main
from mrfw.corpus import cyclic_ring, fibonacci_ring, write_corpus
from mrfw.mr import mr_extend
from mrfw.serialize import load_document, ring_to_doc, save_document

runner = CliRunner()


def invoke(*args, env=None):
    return runner.invoke(main, list(args), env=env, catch_exceptions=False)


class TestCheck:
    @pytest.mark.parametrize(
        "name", ["fibonacci", "s3-base-k5", "ising", "s3-table", "premodular-fibonacci"]
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

    def test_missing_file(self):
        result = invoke("check", "no-such-entry")
        assert result.exit_code == 2

    def test_corpus_env_override(self, tmp_path):
        write_corpus(tmp_path)
        result = invoke("check", "fibonacci", env={"MRFW_CORPUS": str(tmp_path)})
        assert result.exit_code == 0
        empty = tmp_path / "empty"
        empty.mkdir()
        result = invoke("check", "fibonacci", env={"MRFW_CORPUS": str(empty)})
        assert result.exit_code == 2


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
