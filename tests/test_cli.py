"""Command-line surface: envelopes, determinism, exit codes, tables."""

import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fptkit
from fptkit import bounds, cli, coeffsets, regressions
from fptkit.cli import run
from fptkit.rationals import format_ratio


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def invoke_json(argv):
    code, text = invoke(argv)
    return code, json.loads(text)


def run_python(*args):
    """Run a Python subprocess that imports the fptkit under test."""
    src = str(Path(fptkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=os.environ | {"PYTHONPATH": path},
    )


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
        assert out["lambda_source"] == "D({1/3})"
        _, doc = invoke_json(["t0", "--set", "1/2,1/3"])
        assert doc["outputs"]["lambda_source"] == "D({1/3, 1/2})"

    def test_t0_lambda_list(self):
        code, doc = invoke_json(["t0", "--lambda-list", "1/2,1/3"])
        assert code == 0
        assert doc["inputs"] == {"lambda_list": ["1/2", "1/3"]}
        assert doc["outputs"] == {
            "t0": "1/15",
            "witness_d": 5,
            "witness_lambda": "1/3",
            "vacuous": False,
            "lambda_source": "list:1/3,1/2",
        }
        # the source is the sorted list as given, repeats kept
        _, doc = invoke_json(["t0", "--lambda-list", "1/2,1/3,1/2"])
        assert doc["outputs"]["lambda_source"] == "list:1/3,1/2,1/2"

    def test_t0_lambda_list_far_below_two_thirds(self):
        # the gap 1/(N(2N - 1)) at d = 2N - 1, N = 10^9, without a per-d scan
        code, doc = invoke_json(["t0", "--lambda-list", "1/1000000000"])
        assert code == 0
        out = doc["outputs"]
        assert out["t0"] == "1/1999999999000000000"
        assert out["witness_d"] == 1999999999
        assert out["witness_lambda"] == "1/1000000000"

    def test_t0_lambda_list_vacuous_note(self):
        # the bare integer 1 parses as 1/1; 2/d <= 2/3 < 1 leaves no gap
        code, doc = invoke_json(["t0", "--lambda-list", "1"])
        assert code == 0
        assert doc["inputs"] == {"lambda_list": ["1/1"]}
        assert doc["outputs"] == {
            "t0": None,
            "witness_d": None,
            "witness_lambda": None,
            "vacuous": True,
            "lambda_source": "list:1/1",
            "note": "vacuous: any p admissible",
        }
        assert doc["provenance"] == {k: "computed" for k in doc["outputs"]}

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

    @pytest.mark.parametrize(
        "arrangement",
        [
            ["--p", "2", "--slopes", "0,inf", "--mults", "3,1", "--e", "3"],
            ["--p", "3", "--slopes", "0,1,2,inf", "--mults", "1,1,1,1", "--e", "2"],
            ["--p", "5", "--slopes", "0,1,inf", "--mults", "3,4,4", "--e", "1"],
        ],
        ids=["x3y-p2", "all-lines-p3", "three-lines-p5"],
    )
    def test_nu_nests_the_bracket_outputs(self, arrangement):
        code_b, br = invoke_json(["bracket"] + arrangement)
        code_n, nu = invoke_json(["nu"] + arrangement)
        assert code_b == code_n == 0
        assert nu["inputs"] == br["inputs"]
        want = {k: br["outputs"][k] for k in ("e", "q", "nu")}
        want["bracket"] = {k: br["outputs"][k] for k in ("lower", "upper")}
        assert nu["outputs"] == want
        assert nu["provenance"] == {k: "computed" for k in want}

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["nu", "--p", "1_1", "--slopes", "0", "--mults", "1", "--e", "1"],
            ["bracket", "--p", "11", "--slopes", "0", "--mults", "1", "--e", "0_2"],
            ["nu", "--p", "11", "--slopes", "1_0", "--mults", "1", "--e", "1"],
            ["nu", "--p", "11", "--slopes", "0", "--mults", "1_1", "--e", "1"],
            ["fpure-at", "--p", "11", "--slopes", "0", "--mults", "1",
             "--lambda", "1", "--emax", "0_2"],
            ["certify", "--weights", "1/2", "--p", "1_1"],
            ["certify", "--weights", "1/2", "--p", "11", "--slopes", "0",
             "--emax", "0_2"],
            ["hsb", "--n", "1_0"],
            ["perturb", "--set", "1/3", "--N", "1_0"],
        ],
        ids=["p", "e", "slopes", "mults", "fpure-emax", "certify-p", "certify-emax",
             "n", "N"],
    )
    def test_underscored_integers_are_two(self, capsys, argv):
        # int() alone reads "1_1" as 11; the same token without "_" runs
        code, text = invoke(argv)
        assert (code, text) == (2, "")
        assert "_" in capsys.readouterr().err.splitlines()[-1]
        assert invoke([tok.replace("_", "") for tok in argv])[0] == 0

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["nu", "--p", "3", "--slopes", "0,1", "--mults", "1,x", "--e", "1"],
                "fptkit nu: error: argument --mults: not an integer list: '1,x'",
            ),
            (
                ["nu", "--p", "3", "--slopes", "0,y", "--mults", "1,1", "--e", "1"],
                "fptkit nu: error: argument --slopes: not a slope: 'y' "
                "(expected an integer or 'inf')",
            ),
            (
                ["dset", "--set", "1/3", "--below", "0.5"],
                "fptkit dset: error: argument --below: not a rational: '0.5' "
                "(expected 'a/b' or an integer; decimals are not accepted)",
            ),
            (
                ["dset", "--set", "1/3,0.5", "--below", "1/2"],
                "fptkit dset: error: argument --set: not a rational: '0.5' "
                "(expected 'a/b' or an integer; decimals are not accepted)",
            ),
            (
                # past Python's int-string limit the refusal names the limit
                ["dset", "--set", "1/3", "--below", "1" * 5000],
                "fptkit dset: error: argument --below: not an integer: "
                f"more than {sys.get_int_max_str_digits()} digits",
            ),
            (
                ["hsb", "--n", "1" * 5000],
                "fptkit hsb: error: argument --n: not an integer: "
                f"more than {sys.get_int_max_str_digits()} digits",
            ),
        ],
        ids=["mults", "slopes", "below", "set", "overlong-integer", "overlong-n"],
    )
    def test_argument_type_errors_are_two(self, capsys, argv, message):
        code, text = invoke(argv)
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"usage: fptkit {argv[0]} ")
        assert err.splitlines()[-1] == message

    @pytest.mark.parametrize("n", [bounds._HSB_N_CAP + 1, 10**4000])
    def test_hsb_past_its_cap_is_one_at_once(self, n):
        # uncapped, the d loop ran for any n of up to 4300 digits
        start = time.perf_counter()
        code, doc = invoke_json(["hsb", "--n", str(n)])
        assert time.perf_counter() - start < 1
        assert code == 1
        assert doc["error"]["type"] == "DomainError"
        cap = bounds._HSB_N_CAP
        assert doc["error"]["message"].startswith(f"n must lie in [3, {cap}], got ")

    def test_coinciding_slopes_is_one(self):
        code, doc = invoke_json(
            ["nu", "--p", "5", "--slopes", "2,7", "--mults", "1,1", "--e", "1"]
        )
        assert code == 1
        assert "coincide" in doc["error"]["message"]

    def test_certify_coinciding_slopes_is_one(self):
        # 0 = 7 mod 7: one line of weight 1, not klt, so no certificate
        code, doc = invoke_json(
            ["certify", "--weights", "1/2,1/2,1/2", "--p", "7", "--slopes", "0,7,inf"]
        )
        assert code == 1
        assert doc["error"]["type"] == "DomainError"
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

    @pytest.mark.parametrize(
        "env,e",
        [(None, "30000000"), ("100,100000", "10000")],
        ids=["e-cap", "ops-cap"],
    )
    def test_huge_e_is_refused_at_once(self, monkeypatch, env, e):
        if env is None:
            monkeypatch.delenv("FPTKIT_ORACLE_BUDGET", raising=False)
        else:
            monkeypatch.setenv("FPTKIT_ORACLE_BUDGET", env)
        start = time.perf_counter()
        code, doc = invoke_json(
            ["nu", "--p", "11", "--slopes", "0,1,inf", "--mults", "1,1,1", "--e", e]
        )
        assert time.perf_counter() - start < 1
        assert code == 1
        assert doc["error"]["type"] == "OracleBudgetError"
        assert f"q=11^{e}" in doc["error"]["message"]

    def test_ops_cap_estimate_too_long_to_print(self, monkeypatch):
        # a raised max_e lets q = (10^9+7)^600 through to the estimate, whose
        # 5400 digits pass Python's int-to-str limit
        monkeypatch.setenv("FPTKIT_ORACLE_BUDGET", f"{10**200},1000")
        code, doc = invoke_json(
            ["nu", "--p", "1000000007", "--slopes", "0", "--mults", "1", "--e", "600"]
        )
        assert code == 1
        assert doc["error"]["type"] == "OracleBudgetError"
        assert doc["error"]["message"] == (
            f"work estimate p*d*q >= 2^17968 exceeds {10**200} "
            "(limiting q=1000000007^600)"
        )

    def test_malformed_env_is_domain_error(self, monkeypatch):
        # an underscored limit is refused like any other malformed one
        for env in ("plenty", "100_000_000"):
            monkeypatch.setenv("FPTKIT_ORACLE_BUDGET", env)
            code, doc = invoke_json(
                ["nu", "--p", "2", "--slopes", "0", "--mults", "1", "--e", "1"]
            )
            assert code == 1
            assert doc["error"]["type"] == "DomainError"

    @pytest.mark.parametrize("env", ["-1", "0", "10,0", "10,-3"])
    def test_limit_below_one_is_domain_error(self, monkeypatch, env):
        # such a limit would refuse every nu; it is a malformed variable
        monkeypatch.setenv("FPTKIT_ORACLE_BUDGET", env)
        code, doc = invoke_json(
            ["nu", "--p", "2", "--slopes", "0", "--mults", "1", "--e", "1"]
        )
        assert code == 1
        assert doc["error"] == {
            "type": "DomainError",
            "message": "FPTKIT_ORACLE_BUDGET must be '<max_ops>' or "
            f"'<max_ops>,<max_e>', got {env!r}",
        }

    @pytest.mark.parametrize("env", ["1" * 5000, "10," + "1" * 5000], ids=["ops", "e"])
    def test_limit_past_the_digit_limit_is_domain_error(self, monkeypatch, env):
        monkeypatch.setenv("FPTKIT_ORACLE_BUDGET", env)
        code, text = invoke(["nu", "--p", "2", "--slopes", "0", "--mults", "1", "--e", "1"])
        assert code == 1
        message = f"FPTKIT_ORACLE_BUDGET must be '<max_ops>' or '<max_ops>,<max_e>', got {env!r}"
        assert text == (
            '{\n  "command": "nu",\n  "error": {\n    "message": '
            f'{json.dumps(message)},\n    "type": "DomainError"\n  }},\n  "inputs": {{}}\n}}\n'
        )

    def test_unset_env_uses_default(self, monkeypatch):
        monkeypatch.delenv("FPTKIT_ORACLE_BUDGET", raising=False)
        code, _ = invoke(
            ["nu", "--p", "2", "--slopes", "0", "--mults", "1", "--e", "1"]
        )
        assert code == 0


def _encode_per_value(value):
    """The JSON value of a library value: format_ratio on every Fraction,
    each tuple as a list."""
    if isinstance(value, Fraction):
        return format_ratio(value)
    if isinstance(value, dict):
        return {key: _encode_per_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_per_value(v) for v in value]
    return value


class TestEncode:
    """Rationals as text: the bytes of answers whose reports share Fractions."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["p0", "--set", "1/13"],
                "46ce8ad9c5dfc994900bb5cfeb1a444d57928329a03139518952f6fed2ea4200",
            ),
            (
                ["perturb", "--set", "1/7", "--N", "200"],
                "44ee56d28b186eed552043a7799d12b87f9f0efb4e9b53edea52b0e86b520f5d",
            ),
        ],
        ids=["p0-1/13", "perturb-1/7-200"],
    )
    def test_pinned_stdout(self, argv, digest):
        # sha256 of stdout as printed with one format_ratio call per value
        code, text = invoke(argv)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == digest


# fixed Fraction objects, so trees share them; TWIN equals HALF but is
# another object, and each is formatted on its own
HALF, TWIN = Fraction(1, 2), Fraction(2, 4)
_text = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t é€😀'), st.characters())
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, -1]),
    st.integers(min_value=-(10**40), max_value=10**40),
    _text,
    st.fractions(),
    st.sampled_from([HALF, TWIN, Fraction(-7, 3)]),
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(_text, kids, max_size=4),
    ),
    max_leaves=20,
)


class TestPrintJson:
    """`_print_json` writes what the indenting `json.dumps` writes for the
    tree with each Fraction as "a/b" and each tuple as a list."""

    @given(_trees)
    @settings(max_examples=150, deadline=None)
    def test_bytes_match_json_dumps(self, tree):
        out = io.StringIO()
        cli._print_json(tree, out)
        want = json.dumps(_encode_per_value(tree), indent=2, sort_keys=True) + "\n"
        assert out.getvalue() == want

    def test_known_text(self):
        # shared and equal Fractions, bools beside 0 and 1, empty containers
        third = Fraction(-1, 3)
        tree = {"b": [HALF, TWIN, (third, HALF), {}], "a": (), "c": [True, 1, False, 0]}
        out = io.StringIO()
        cli._print_json(tree, out)
        assert out.getvalue() == (
            '{\n  "a": [],\n  "b": [\n    "1/2",\n    "1/2",\n    [\n'
            '      "-1/3",\n      "1/2"\n    ],\n    {}\n  ],\n'
            '  "c": [\n    true,\n    1,\n    false,\n    0\n  ]\n}\n'
        )

    @given(_trees, st.sampled_from([1.5, float("nan"), set(), {1}, frozenset()]))
    @settings(max_examples=50, deadline=None)
    def test_other_types_raise_and_write_nothing(self, tree, bad):
        # the bad value comes after the tree, so its text is built first
        for wrapped in (bad, [tree, bad], {"a": tree, "b": [{"c": bad}]}):
            out = io.StringIO()
            with pytest.raises(TypeError):
                cli._print_json(wrapped, out)
            assert out.getvalue() == ""


class TestTables:
    def test_dset_table(self):
        code, text = invoke(["dset", "--set", "1/3", "--below", "9/10", "--table"])
        assert code == 0
        assert "13/15" in text
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)

    def test_nu_table(self):
        # nu's table is bracket's with lower and upper nested under bracket
        args = ["--p", "3", "--slopes", "0,1,2,inf", "--mults", "1,1,1,1", "--e", "2"]
        code, text = invoke(["nu"] + args + ["--table"])
        assert code == 0
        assert text == "e: 2\nq: 9\nnu: 2\nbracket: lower=2/9  upper=1/3\n"
        code, text = invoke(["bracket"] + args + ["--table"])
        assert code == 0
        assert text == "e: 2\nq: 9\nnu: 2\nlower: 2/9\nupper: 1/3\n"

    def test_list_of_dicts_table(self):
        code, text = invoke(["p0", "--set", "", "--table"])
        assert code == 0
        assert text == (
            "epsilon: 1/2\n"
            "Q: 59/30\n"
            "witness: 1/2, 2/3, 4/5\n"
            "p0_exact: 60/1\n"
            "p0: 60\n"
            "trace:\n"
            "  total=59/30  parts=['1/2', '2/3', '4/5']\n"
        )

    def test_scalars_in_a_table(self):
        # booleans print as True/False, None as "-"
        code, text = invoke(["t0", "--lambda-list", "1", "--table"])
        assert code == 0
        assert text == (
            "t0: -\n"
            "witness_d: -\n"
            "witness_lambda: -\n"
            "vacuous: True\n"
            "lambda_source: list:1/1\n"
            "note: vacuous: any p admissible\n"
        )

    def test_shared_fractions_table(self):
        # the trace's rows share Fraction objects, and each cell is
        # formatted on its own
        report = bounds.p0(coeffsets.CoeffSet([Fraction(1, 3)]))
        parts = [x for c in report.trace for x in c.parts]
        assert len({id(x) for x in parts}) < len(parts)
        code, text = invoke(["p0", "--set", "1/3", "--table"])
        assert code == 0
        assert text == (
            "epsilon: 1/3\n"
            "Q: 263/132\n"
            "witness: 1/3, 3/4, 10/11\n"
            "p0_exact: 528/1\n"
            "p0: 528\n"
            "trace:\n"
            "  total=11/6  parts=['1/3', '1/3', '1/3', '1/3', '1/2']\n"
            "  total=11/6  parts=['1/3', '1/2', '1/2', '1/2']\n"
            "  total=59/30  parts=['1/3', '1/3', '1/2', '4/5']\n"
            "  total=59/30  parts=['1/2', '2/3', '4/5']\n"
            "  total=143/72  parts=['1/3', '7/9', '7/8']\n"
            "  total=209/105  parts=['1/3', '4/5', '6/7']\n"
            "  total=263/132  parts=['1/3', '3/4', '10/11']\n"
        )

    @pytest.mark.parametrize(
        "argv,table",
        [
            (
                ["hsb", "--n", "4"],
                "gap: 1/28\n"
                "bound: 28\n"
                "per_d:\n"
                "  d=3  lambda=5/8  gap=1/24\n"
                "  d=4  lambda=1/4  gap=1/4\n"
                "  d=5  lambda=1/4  gap=3/20\n"
                "  d=6  lambda=1/4  gap=1/12\n"
                "  d=7  lambda=1/4  gap=1/28\n",
            ),
            (
                ["perturb", "--set", "1/3", "--N", "3"],
                "x: 1/2\n"
                "intervals: ['1/5', '1/3'], ['1/3', '1/2'], ['3/5', '2/3']\n"
                "endpoints: 1/5, 1/3, 1/2, 3/5, 2/3\n",
            ),
            (
                ["fpure-at", "--p", "2", "--slopes", "0,inf", "--mults", "3,1",
                 "--lambda", "1/3", "--emax", "3"],
                "holds: True\n"
                "witness_e: 2\n"
                "e_max: 3\n"
                "checks:\n"
                "  e=1  q=2  nu=0  required=1\n"
                "  e=2  q=4  nu=1  required=1\n",
            ),
            (
                ["certify", "--p", "5", "--weights", "1/2,2/3,2/3",
                 "--slopes", "0,1,inf", "--emax", "3"],
                "verdict: strongly_F_regular\n"
                "reason: oracle_escalation\n"
                "details: weights=['1/2', '2/3', '2/3']  total=11/6  c=6  "
                "integral_mults=[3, 4, 4]  lambda=1/6  hm_lower_bound=9/55  "
                "e=3  q=125  nu=22  nu_over_q=22/125\n",
            ),
            (
                ["classify-p1", "--coeffs", "1/2,2/3,4/5"],
                "klt: True\nlog_fano: True\ntotal: 59/30\n",
            ),
        ],
        ids=["hsb", "perturb", "fpure-at", "certify", "classify-p1"],
    )
    def test_pinned_tables(self, argv, table):
        assert invoke(argv + ["--table"]) == (0, table)


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

    def test_mismatch_fails_the_run(self, monkeypatch):
        monkeypatch.setattr(regressions, "_got_hm", lambda: "1/2")
        code, text = invoke(["paper-check"])
        assert code == 1
        bad = [line for line in text.splitlines() if line.startswith("BAD")]
        assert len(bad) == 1
        assert "hm-three-lines-p7" in bad[0]
        assert bad[0].endswith("1/2  [expected: 13/21]")
        assert text.rstrip("\n").endswith(", 1 mismatches")

        code, doc = invoke_json(["paper-check", "--json"])
        assert code == 1
        by_id = {r["id"]: r for r in doc["outputs"]["rows"]}
        assert by_id["hm-three-lines-p7"]["status"] == "mismatch"
        assert by_id["hm-three-lines-p7"]["got"] == "1/2"
        assert doc["outputs"]["summary"]["mismatch"] == 1

    def test_provenance_tokens_only(self):
        _, doc = invoke_json(["paper-check", "--json"])
        for row in doc["outputs"]["rows"]:
            assert row["expected_provenance"] in ("paper-example", "computed")
            assert row["status"] in ("ok", "expected-deviation", "mismatch")


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = run_python("-c", "from fptkit.cli import main; main()", "t0", "--set", "")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["outputs"]["t0"] == "1/6"

    def test_module_runs_as_script(self):
        proc = run_python("-m", "fptkit.cli", "t0", "--set", "")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["outputs"]["t0"] == "1/6"


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(environment, argv) of every `fptkit ...` line in README's fenced blocks."""
    examples, fenced = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
            continue
        words = shlex.split(line) if fenced else []
        env = {}
        while words and "=" in words[0]:
            name, value = words.pop(0).split("=", 1)
            env[name] = value
        if words[:1] == ["fptkit"]:
            examples.append((line, env, words[1:]))
    return examples


class TestReadmeExamples:
    EXAMPLES = readme_examples()

    def test_examples_are_found(self):
        assert len(self.EXAMPLES) >= 14
        assert any(env for _, env, _ in self.EXAMPLES)

    @pytest.mark.parametrize(
        "env,argv", [ex[1:] for ex in EXAMPLES], ids=[ex[0] for ex in EXAMPLES]
    )
    def test_example_exits_0(self, env, argv, monkeypatch):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert invoke(argv)[0] == 0
