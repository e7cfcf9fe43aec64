"""Command-line surface: envelopes, determinism, exit codes, tables."""

import io
import json
import subprocess
import sys
import time

import pytest

from fptkit.cli import run


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def invoke_json(argv):
    code, text = invoke(argv)
    return code, json.loads(text)


class TestEnvelope:
    def test_shape(self):
        code, doc = invoke_json(["dset", "--set", "1/3", "--below", "9/10"])
        assert code == 0
        assert doc["command"] == "dset"
        assert set(doc) == {"command", "inputs", "outputs", "provenance"}
        assert doc["provenance"] == {k: "computed" for k in doc["outputs"]}

    def test_inputs_echo_roundtrip(self):
        _, doc = invoke_json(["dset", "--set", "2/6,1/2", "--below", "9/10"])
        # echoed inputs are canonical lowest-terms forms
        assert doc["inputs"]["set"] == ["1/3", "1/2"]
        assert doc["inputs"]["below"] == "9/10"

    def test_byte_determinism(self):
        a = invoke(["p0", "--set", "1/3"])
        b = invoke(["p0", "--set", "1/3"])
        assert a == b

    def test_lowest_terms_everywhere(self):
        _, doc = invoke_json(
            ["nu", "--p", "3", "--slopes", "0,1,2,inf", "--mults", "1,1,1,1", "--e", "2"]
        )
        assert doc["outputs"]["nu"] == 2
        assert doc["outputs"]["bracket"] == {"lower": "2/9", "upper": "1/3"}


class TestSubcommands:
    def test_dset_standard(self):
        _, doc = invoke_json(["dset", "--set", "", "--below", "9/10"])
        got = doc["outputs"]["elements"]
        assert got == ["0/1", "1/2", "2/3", "3/4", "4/5", "5/6", "6/7", "7/8", "8/9"]

    def test_p0_standard(self):
        _, doc = invoke_json(["p0", "--set", ""])
        out = doc["outputs"]
        assert out["epsilon"] == "1/2"
        assert out["Q"] == "59/30"
        assert out["witness"] == ["1/2", "2/3", "4/5"]
        assert out["p0"] == 60

    def test_p0_one_third_trace(self):
        _, doc = invoke_json(["p0", "--set", "1/3"])
        out = doc["outputs"]
        assert out["Q"] == "263/132"
        assert out["witness"] == ["1/3", "3/4", "10/11"]
        assert out["p0"] == 528
        totals = [c["total"] for c in out["trace"]]
        assert totals == ["11/6", "11/6", "59/30", "59/30", "143/72", "209/105", "263/132"]

    def test_t0(self):
        _, doc = invoke_json(["t0", "--set", "1/3"])
        out = doc["outputs"]
        assert out["t0"] == "1/15"
        assert out["witness_d"] == 5
        assert out["witness_lambda"] == "1/3"

    def test_hsb(self):
        _, doc = invoke_json(["hsb", "--n", "3"])
        assert doc["outputs"]["gap"] == "1/15"
        assert doc["outputs"]["bound"] == 15

    def test_bracket(self):
        _, doc = invoke_json(
            ["bracket", "--p", "2", "--slopes", "0,inf", "--mults", "3,1", "--e", "3"]
        )
        assert doc["outputs"]["lower"] == "1/4"
        assert doc["outputs"]["upper"] == "3/8"

    def test_fpure_at(self):
        _, doc = invoke_json(
            [
                "fpure-at", "--p", "2", "--slopes", "0,inf", "--mults", "3,1",
                "--lambda", "1/3", "--emax", "3",
            ]
        )
        assert doc["outputs"]["holds"] is True
        assert doc["outputs"]["witness_e"] == 2

    def test_certify_escalation(self):
        _, doc = invoke_json(
            [
                "certify", "--p", "5", "--weights", "1/2,2/3,2/3",
                "--slopes", "0,1,inf", "--emax", "3",
            ]
        )
        out = doc["outputs"]
        assert out["verdict"] == "strongly_F_regular"
        assert out["reason"] == "oracle_escalation"
        assert out["details"]["nu_over_q"] == "22/125"

    def test_certify_closed_form_needs_no_slopes(self):
        _, doc = invoke_json(["certify", "--p", "31", "--weights", "1/2,2/3,4/5"])
        assert doc["outputs"]["reason"] == "hara_monsky_rule"

    def test_classify_p1(self):
        _, doc = invoke_json(["classify-p1", "--coeffs", "1/2,2/3,4/5"])
        out = doc["outputs"]
        assert out["klt"] is True and out["log_fano"] is True
        assert out["total"] == "59/30"

    def test_perturb(self):
        _, doc = invoke_json(["perturb", "--set", "", "--N", "3"])
        assert doc["outputs"]["x"] == "1/2"


class TestExitCodes:
    def test_domain_error_is_one(self):
        code, doc = invoke_json(["dset", "--set", "", "--below", "3/2"])
        assert code == 1
        assert doc["error"]["type"] == "DomainError"

    def test_non_prime_p_is_one(self):
        code, doc = invoke_json(
            ["nu", "--p", "6", "--slopes", "0", "--mults", "1", "--e", "1"]
        )
        assert code == 1
        assert "prime" in doc["error"]["message"]

    def test_malformed_rational_is_two(self):
        code, _ = invoke(["dset", "--set", "0.5", "--below", "9/10"])
        assert code == 2

    def test_unknown_subcommand_is_two(self):
        code, _ = invoke(["frobenius-me"])
        assert code == 2

    def test_missing_required_is_two(self):
        code, _ = invoke(["nu", "--p", "3"])
        assert code == 2

    def test_coinciding_slopes_is_one(self):
        code, doc = invoke_json(
            ["nu", "--p", "5", "--slopes", "2,7", "--mults", "1,1", "--e", "1"]
        )
        assert code == 1
        assert "coincide" in doc["error"]["message"]

    def test_eighteen_digit_prime_is_decided_quickly(self):
        start = time.perf_counter()
        code, doc = invoke_json(
            ["certify", "--weights", "1/2,2/3,4/5", "--p", "1000000000000000003"]
        )
        assert time.perf_counter() - start < 3
        assert code == 0
        assert doc["outputs"]["verdict"] == "strongly_F_regular"

    def test_prime_past_the_test_limit_is_one(self):
        code, doc = invoke_json(
            ["certify", "--weights", "1/2,2/3,4/5", "--p", str(2**89 - 1)]
        )
        assert code == 1
        assert "3317044064679887385961981" in doc["error"]["message"]


class TestBudgetEnv:
    def test_ops_cap_wins(self, monkeypatch):
        monkeypatch.setenv("FPTKIT_ORACLE_BUDGET", "1000")
        code, doc = invoke_json(
            ["nu", "--p", "5", "--slopes", "0,1,2,3,4,inf", "--mults",
             "1,1,1,1,1,1", "--e", "3"]
        )
        assert code == 1
        assert doc["error"]["type"] == "OracleBudgetError"
        assert "q=125" in doc["error"]["message"]

    def test_e_cap_component(self, monkeypatch):
        monkeypatch.setenv("FPTKIT_ORACLE_BUDGET", "100000000,2")
        code, doc = invoke_json(
            ["nu", "--p", "2", "--slopes", "0", "--mults", "1", "--e", "3"]
        )
        assert code == 1
        assert "e=3" in doc["error"]["message"]

    def test_malformed_env_is_domain_error(self, monkeypatch):
        monkeypatch.setenv("FPTKIT_ORACLE_BUDGET", "plenty")
        code, doc = invoke_json(
            ["nu", "--p", "2", "--slopes", "0", "--mults", "1", "--e", "1"]
        )
        assert code == 1
        assert doc["error"]["type"] == "DomainError"

    def test_unset_env_uses_default(self, monkeypatch):
        monkeypatch.delenv("FPTKIT_ORACLE_BUDGET", raising=False)
        code, _ = invoke(
            ["nu", "--p", "2", "--slopes", "0", "--mults", "1", "--e", "1"]
        )
        assert code == 0


class TestTables:
    def test_dset_table(self):
        code, text = invoke(["dset", "--set", "1/3", "--below", "9/10", "--table"])
        assert code == 0
        assert "13/15" in text
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)

    def test_nu_table(self):
        code, text = invoke(
            ["nu", "--p", "3", "--slopes", "0,1,2,inf", "--mults", "1,1,1,1",
             "--e", "2", "--table"]
        )
        assert code == 0
        assert "nu" in text and "2/9" in text


class TestPaperCheck:
    def test_exits_zero_with_expected_deviations(self):
        code, text = invoke(["paper-check"])
        assert code == 0
        assert "expected deviations" in text
        assert "0 mismatches" in text

    def test_json_mode_rows(self):
        code, doc = invoke_json(["paper-check", "--json"])
        assert code == 0
        rows = doc["outputs"]["rows"]
        by_id = {r["id"]: r for r in rows}
        assert doc["outputs"]["summary"]["mismatch"] == 0

        dev = by_id["p0-standard"]
        assert dev["status"] == "expected-deviation"
        assert dev["expected"] == "60"
        assert dev["recorded"] == "30"
        assert dev["expected_provenance"] == "computed"

        ok = by_id["t0-standard-family"]
        assert ok["status"] == "ok"
        assert ok["recorded"] is None
        assert ok["expected_provenance"] == "paper-example"

    def test_provenance_tokens_only(self):
        _, doc = invoke_json(["paper-check", "--json"])
        for row in doc["outputs"]["rows"]:
            assert row["expected_provenance"] in ("paper-example", "computed")
            assert row["status"] in ("ok", "expected-deviation", "mismatch")


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from fptkit.cli import main; main()", "t0",
             "--set", ""],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["outputs"]["t0"] == "1/6"

    def test_module_runs_as_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fptkit.cli", "t0", "--set", ""],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["outputs"]["t0"] == "1/6"
