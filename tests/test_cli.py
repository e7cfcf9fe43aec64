"""Command-line surface: envelopes, determinism, exit codes, tables."""

import argparse
import contextlib
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
from fptkit import bounds, cli, coeffsets, frobenius, regressions
from fptkit.cli import run
from fptkit.rationals import format_ratio


def invoke(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def invoke_json(argv):
    code, text = invoke(argv)
    return code, json.loads(text)


SRC = str(Path(fptkit.__file__).resolve().parents[1])


def run_python(*args):
    """Run a Python subprocess that imports the fptkit under test."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["dset", "--set", "1/3", "--below", "9999999/10000000"],
             "a slice of D(I) may have at most 262144 (f, m) candidates, got 19999998"),
            (["perturb", "--set", "1/7", "--N", "500"], "n must lie in [2, 250], got 500"),
        ],
        ids=["dset", "perturb"],
    )
    def test_coeffset_work_past_its_cap_is_one_at_once(self, argv, message):
        # uncapped, the dset slice ran for more than 20 s and perturb wrote
        # 10 MB in about 3 s
        start = time.perf_counter()
        code, doc = invoke_json(argv)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert doc["error"] == {"message": message, "type": "DomainError"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["dset", "--set", "1/100000000", "--below", "1/2"],
            ["p0", "--set", "1/100000000"],
            ["t0", "--set", "1/100000000"],
            ["perturb", "--set", "1/100000000", "--N", "3"],
        ],
        ids=["dset", "p0", "t0", "perturb"],
    )
    def test_plus_closure_past_its_cap_is_one_at_once(self, argv):
        # uncapped, each ran past 10 s building the 10^8 + 1 sums of I_plus
        start = time.perf_counter()
        code, doc = invoke_json(argv)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert doc["error"] == {
            "message": "I_plus may have at most 65536 elements, and this set's "
            "bound is 100000001",
            "type": "DomainError",
        }

    @pytest.mark.parametrize("n", [19, 23])
    def test_p0_past_its_prefix_cap_is_one_at_once(self, n):
        # uncapped, {1/19} wrote 6.5 MB in about 0.5 s and {1/23} 28.8 MB
        # in about 2.7 s
        start = time.perf_counter()
        code, doc = invoke_json(["p0", "--set", f"1/{n}"])
        assert time.perf_counter() - start < 1
        assert code == 1
        assert doc["error"] == {
            "message": "the constrained sum search may emit at most 16384 "
            "prefixes, and this set's walk emits more",
            "type": "DomainError",
        }

    @pytest.mark.parametrize("eps", ["2/1001", "1/500"])
    def test_p0_refused_on_the_multiples_of_eps_at_once(self, eps):
        # refused before dset_below builds the pool, which took 1.2-1.8 s
        start = time.perf_counter()
        code, doc = invoke_json(["p0", "--set", eps])
        assert time.perf_counter() - start < 0.5
        assert code == 1
        assert doc["error"] == {
            "message": "the constrained sum search may emit at most 16384 "
            "prefixes, and this set's walk emits more",
            "type": "DomainError",
        }

    def test_a_wide_lcm_with_few_sums_still_answers(self):
        code, doc = invoke_json(["dset", "--set", "1/2,999999/1000000", "--below", "9/10"])
        assert code == 0
        assert doc["outputs"]["elements"] == [f"{m - 1}/{m}" for m in range(1, 10)]

    def test_dset_below_the_cap_still_answers(self):
        # 199,998 (f, m) candidates, under the cap of 2^18
        code, doc = invoke_json(["dset", "--set", "1/3", "--below", "99999/100000"])
        assert code == 0
        assert doc["outputs"]["count"] == 133332

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


# generators with denominators far past the closure cap, near its edge and
# small; numerators past (0, 1) are refused by the set itself
_adversarial_generator = st.builds(
    lambda num, den: f"{num}/{den}",
    st.one_of(st.just(1), st.integers(-1, 4)),
    st.one_of(
        st.integers(2, 40),
        st.integers(41, 70_000),
        st.sampled_from([65_535, 65_536, 10**6, 10**8, 10**30]),
    ),
)
_adversarial_set = st.lists(_adversarial_generator, max_size=3).map(",".join)
# cutoffs near 1 (m up to 10^7), far below it, at 1 and past it
_adversarial_cutoff = st.builds(
    lambda k, form: form.format(k=k, k1=k - 1, k2=k + 1),
    st.one_of(st.integers(1, 200), st.integers(201, 10**7)),
    st.sampled_from(["{k1}/{k}", "{k}/{k2}", "1/{k}", "1", "{k2}/{k}"]),
)
# --n and --N near and past their caps, and integers of many digits
_adversarial_count = st.one_of(
    st.integers(-3, 1_100), st.integers(10**3, 10**50).map(lambda n: n * n)
).map(str)
_malformed = st.sampled_from(["1/0", "0.5", "1_2/3", "1/2/3", "x", "1/2,", "1e3"])


@st.composite
def _adversarial_argv(draw):
    """(argv, malformed): one coeffset request; if `malformed`, one of its
    values is a malformed token.  Values go in as --flag=value, so that
    argparse reads a leading minus sign as part of the value."""
    kind = draw(st.sampled_from(["dset", "t0", "p0", "hsb", "perturb"]))
    one_over = st.integers(17, 40).map(lambda n: f"1/{n}")
    if kind == "dset":
        flags = {"--set": draw(_adversarial_set), "--below": draw(_adversarial_cutoff)}
    elif kind == "t0":
        flag = draw(st.sampled_from(["--set", "--lambda-list"]))
        flags = {flag: draw(_adversarial_set)}
    elif kind == "p0":
        flags = {"--set": draw(st.one_of(one_over, _adversarial_set))}
    elif kind == "hsb":
        flags = {"--n": draw(_adversarial_count)}
    else:
        flags = {"--set": draw(_adversarial_set), "--N": draw(_adversarial_count)}
    malformed = draw(st.booleans()) and draw(st.booleans())
    if malformed:
        flags[draw(st.sampled_from(sorted(flags)))] = draw(_malformed)
    return [kind, *(f"{flag}={value}" for flag, value in flags.items())], malformed


class TestAdversarialCoeffsetArgv:
    """Every coeffset subcommand, on inputs built to blow it up, answers in
    bounded time or refuses with a DomainError envelope; exit 2 is for
    malformed tokens only."""

    LIMIT_S = 5  # the slowest answers seen take about 1.5 s

    @given(_adversarial_argv())
    @settings(max_examples=25, deadline=None)
    def test_answers_or_refuses_in_bounded_time(self, drawn):
        argv, malformed = drawn
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code, text = invoke(argv)
        assert time.perf_counter() - start < self.LIMIT_S
        if malformed:
            assert (code, text) == (2, "")
            assert err.getvalue().startswith(f"usage: fptkit {argv[0]} ")
            return
        doc = json.loads(text)
        assert code in (0, 1)
        if code == 1:
            assert doc["error"]["type"] == "DomainError"
        else:
            assert set(doc) == {"command", "inputs", "outputs", "provenance"}


_LONG = "1" + "0" * 5000  # past the 4300 digits an integer token may have
_BAD_INT = ["0", "-1", "6", "10" * 20, _LONG]
_BAD_RATIO = ["0", "-1/2", "3/2", f"1/{_LONG}"]
# well-typed adversarial values for each oracle flag: 0, negatives,
# composites, repeated slopes, counts that differ, integers of 5001 digits
_ORACLE_BAD = {
    "--p": ["4", "1", "0", "-3", _LONG],
    "--slopes": ["0,0", "1,6", "-1", _LONG, "0,1,2,inf,3,4,5,6"],
    "--mults": ["0", "-1", "1,1,1,1,1", "10" * 20, _LONG],
    "--e": _BAD_INT,
    "--emax": _BAD_INT,
    "--lambda": _BAD_RATIO,
    "--weights": _BAD_RATIO + ["1/2,-1/2", "1,1,1"],
}


@st.composite
def _oracle_argv(draw):
    """One nu, bracket, fpure-at or certify request; half the time one of
    its values is taken from `_ORACLE_BAD`.  Values go in as --flag=value."""
    kind = draw(st.sampled_from(["nu", "bracket", "fpure-at", "certify"]))
    lines = draw(st.integers(1, 4))
    slopes = ",".join(draw(st.permutations(["0", "1", "2", "inf"]))[:lines])
    ratios = st.sampled_from(["1/2", "2/3", "1/3", "3/5", "1"])
    small = st.sampled_from(["1", "2", "3", "5"])
    flags = {"--p": draw(st.sampled_from(["2", "3", "5", "7"]))}
    if kind == "certify":
        flags["--weights"] = ",".join(draw(st.lists(ratios, min_size=lines, max_size=lines)))
        flags["--emax"] = draw(small)
        if draw(st.booleans()):
            flags["--slopes"] = slopes
    else:
        mults = st.lists(st.sampled_from(["1", "2", "3"]), min_size=lines, max_size=lines)
        flags |= {"--slopes": slopes, "--mults": ",".join(draw(mults))}
        if kind == "fpure-at":
            flags |= {"--lambda": draw(ratios), "--emax": draw(small)}
        else:
            flags["--e"] = draw(small)
    if draw(st.booleans()):
        flag = draw(st.sampled_from(sorted(flags)))
        flags[flag] = draw(st.sampled_from(_ORACLE_BAD[flag]))
    return [kind, *(f"{flag}={value}" for flag, value in flags.items())]


class TestAdversarialOracleArgv:
    """The oracle subcommands answer (exit 0), refuse with a DomainError or
    OracleBudgetError envelope (exit 1), or refuse a token (exit 2)."""

    @given(_oracle_argv())
    @settings(max_examples=40, deadline=None)
    def test_answers_or_refuses(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = invoke(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert text == "" and err.getvalue().startswith(f"usage: fptkit {argv[0]} ")
            return
        doc = json.loads(text)
        if code == 1:
            assert doc["error"]["type"] in ("DomainError", "OracleBudgetError")
        else:
            assert set(doc) == {"command", "inputs", "outputs", "provenance"}


_RATIOS = st.sampled_from(["1/2", "2/3", "4/5", "1/3", "1", "0/7", "10/11", "1/10"])
_RATIO_LIST = st.lists(st.one_of(_RATIOS, st.sampled_from(_BAD_RATIO)), max_size=6).map(",".join)
# tokens that no subcommand takes: a word, a flag of another subcommand, a
# value, a malformed token and a flag argparse cannot know
_STRAY = st.sampled_from(["extra", "--table", "--set=1/2", "1/2", "--json", "-", "--x=1"])


@st.composite
def _plain_argv(draw):
    """(argv, malformed): one classify-p1, certify without --emax, or
    paper-check request; a classify-p1 or certify value is malformed now
    and then, and paper-check gets stray tokens as often as not."""
    kind = draw(st.sampled_from(["classify-p1", "certify", "paper-check"]))
    if kind == "paper-check":
        tail = draw(st.lists(_STRAY, max_size=2))
        if draw(st.booleans()):
            tail.insert(draw(st.integers(0, len(tail))), "--json")
        return [kind, *tail], any(token != "--json" for token in tail)
    if kind == "classify-p1":
        flags = {"--coeffs": draw(_RATIO_LIST)}
    else:
        flags = {
            "--weights": draw(_RATIO_LIST),
            "--p": draw(st.sampled_from(["2", "5", "7", "31", str(2**61 - 1), str(2**89 - 1),
                                         *_ORACLE_BAD["--p"]])),
        }
        if draw(st.booleans()):
            slopes = ["0,1,inf", "0,1,2,3", *_ORACLE_BAD["--slopes"]]
            flags["--slopes"] = draw(st.sampled_from(slopes))
    malformed = draw(st.booleans()) and draw(st.booleans())
    if malformed:
        flags[draw(st.sampled_from(sorted(flags)))] = draw(_malformed)
    return [kind, *(f"{flag}={value}" for flag, value in flags.items())], malformed


class TestAdversarialPlainArgv:
    """classify-p1, certify without --emax and paper-check answer (exit 0),
    refuse with a DomainError envelope (exit 1), or refuse a token with a
    usage line (exit 2), each within a fixed time."""

    LIMIT_S = 5  # the slowest calls seen take about 0.03 s

    @given(_plain_argv())
    @settings(max_examples=60, deadline=None)
    def test_answers_or_refuses_in_bounded_time(self, drawn):
        argv, malformed = drawn
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code, text = invoke(argv)
        assert time.perf_counter() - start < self.LIMIT_S
        assert code in (0, 1, 2), argv
        if code == 2 or malformed:
            # a value's usage line names the subcommand; a stray token is
            # refused by the top-level parser
            assert (code, text) == (2, ""), argv
            assert err.getvalue().startswith("usage: fptkit "), argv
            assert err.getvalue().rstrip("\n").split("\n")[-1].startswith("fptkit")
            return
        assert err.getvalue() == ""
        if argv[0] == "paper-check" and "--json" not in argv:
            assert text.endswith(" 0 mismatches\n") and code == 0
            return
        doc = json.loads(text)
        assert doc["command"] == argv[0]
        if code == 1:
            assert set(doc) == {"command", "inputs", "error"}
            assert doc["error"]["type"] == "DomainError"
        else:
            assert set(doc) == {"command", "inputs", "outputs", "provenance"}


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


@st.composite
def _shared_trees(draw):
    """Trees in which a few Fraction objects sit in many places, with long
    arrays of Fractions (a `dset` slice, `perturb`'s endpoints) and lists
    of {"parts", "total"} dicts (a `p0` trace)."""
    pool = draw(st.lists(st.fractions(), min_size=1, max_size=6))
    shared = st.sampled_from(pool)
    fractions = st.one_of(shared, st.fractions())
    long_array = st.lists(fractions, min_size=20, max_size=50)
    trace = st.lists(
        st.fixed_dictionaries(
            {"parts": st.lists(shared, min_size=3, max_size=5).map(tuple), "total": shared}
        ),
        max_size=12,
    )
    value = st.one_of(long_array, long_array.map(tuple), trace, shared, st.lists(shared))
    return draw(st.dictionaries(_text, value, max_size=4))


@st.composite
def _writer_path_trees(draw):
    """Trees for each branch the writer takes: arrays of fresh Fractions
    (a `dset` slice), arrays that mix Fractions already written with fresh
    ones in any order, integer and negative Fractions, arrays of leaves of
    several types, short and long arrays as dict values, arrays of arrays
    (`perturb`'s intervals), arrays that hold a dict after other items, and
    lists of dicts with the same keys (a `p0` trace) or not."""
    fresh = st.one_of(
        st.fractions(),
        st.integers(-(10**30), 10**30).map(Fraction),
        st.fractions(max_value=0),
    )
    pool = draw(st.lists(fresh, min_size=1, max_size=6))
    shared = st.one_of(st.sampled_from(pool), st.sampled_from([HALF, TWIN]))
    leaf = st.one_of(_leaves, shared, fresh)
    arrays = st.one_of(
        st.lists(fresh, min_size=1, max_size=60),
        st.lists(st.one_of(shared, fresh), min_size=1, max_size=40).map(tuple),
        st.lists(shared, min_size=1, max_size=6).map(tuple),
        st.lists(leaf, min_size=1, max_size=3),
        st.lists(leaf, min_size=20, max_size=40),
        st.lists(st.lists(fresh, min_size=2, max_size=2).map(tuple), min_size=1, max_size=8),
    )
    value = st.one_of(leaf, arrays, st.just([]), st.just({}))
    keys = draw(st.lists(_text, min_size=1, max_size=3, unique=True))
    same_keys = st.lists(
        st.fixed_dictionaries({key: value for key in keys}), min_size=1, max_size=8
    )
    # dicts of one size with other keys, so no order is reused by mistake
    other_dicts = st.lists(
        st.dictionaries(_text, value, min_size=1, max_size=2), min_size=2, max_size=4
    )
    dict_after = st.builds(lambda items, d: [*items, d], st.lists(value, max_size=3),
                           st.dictionaries(_text, value, min_size=1, max_size=2))
    top = st.one_of(value, same_keys, other_dicts, dict_after, same_keys.map(tuple))
    return draw(st.dictionaries(_text, top, max_size=4))


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

    @given(_shared_trees())
    @settings(max_examples=20, deadline=None)
    def test_shared_fractions_and_long_arrays_match_json_dumps(self, tree):
        out = io.StringIO()
        cli._print_json(tree, out)
        want = json.dumps(_encode_per_value(tree), indent=2, sort_keys=True) + "\n"
        assert out.getvalue() == want

    @given(_writer_path_trees())
    @settings(max_examples=100, deadline=None)
    def test_each_writer_path_matches_json_dumps(self, tree):
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

    def test_each_value_is_computed_once(self, monkeypatch):
        # one q_max per set (the qmax, p0 and case-sums rows share it), and
        # one nu call per level of each all-lines ladder (its nu row and the
        # bracket row share the climb)
        q_sets, levels = [], []
        q_max, nu = bounds.q_max, frobenius.nu

        def counted_q_max(coeffs):
            q_sets.append(coeffs)
            return q_max(coeffs)

        def counted_nu(arr, e, *args, **kwargs):
            if arr == frobenius.LineArrangement.all_rational_lines(arr.p):
                levels.append((arr.p, e))
            return nu(arr, e, *args, **kwargs)

        monkeypatch.setattr(bounds, "q_max", counted_q_max)
        monkeypatch.setattr(frobenius, "nu", counted_nu)
        rows = regressions.run_paper_checks()
        assert regressions.summarize(rows)["mismatch"] == 0
        assert sorted(map(str, q_sets)) == ["{1/3}", "{}"]
        assert levels == [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]

    def test_largest_below_rows_read_one_batch(self, monkeypatch):
        # the three largest-below rows share one I_plus of {1/3}
        batches = []
        each = coeffsets.largest_below_each

        def counted(coeffs, cuts):
            batches.append((coeffs, tuple(cuts)))
            return each(coeffs, cuts)

        monkeypatch.setattr(coeffsets, "largest_below_each", counted)
        assert regressions.summarize(regressions.run_paper_checks())["mismatch"] == 0
        cuts = (Fraction(13, 15), Fraction(8, 9), Fraction(11, 12))
        assert batches == [(regressions.ONE_THIRD, cuts)]

    def test_provenance_tokens_only(self):
        _, doc = invoke_json(["paper-check", "--json"])
        for row in doc["outputs"]["rows"]:
            assert row["expected_provenance"] in ("paper-example", "computed")
            assert row["status"] in ("ok", "expected-deviation", "mismatch")


# one valid argv tail per subcommand
VALID = {
    "dset": ["--set", "1/3", "--below", "5/6"],
    "t0": ["--set", "1/3"],
    "p0": ["--set", "1/3"],
    "hsb": ["--n", "4"],
    "nu": ["--p", "3", "--slopes", "0,1", "--mults", "1,1", "--e", "2"],
    "bracket": ["--p", "3", "--slopes", "0,1", "--mults", "1,1", "--e", "2"],
    "fpure-at": ["--p", "3", "--slopes", "0,1", "--mults", "1,1", "--lambda", "1/2",
                 "--emax", "2"],
    "certify": ["--weights", "1/2,1/2", "--p", "5"],
    "perturb": ["--set", "1/3", "--N", "4"],
    "classify-p1": ["--coeffs", "1/2,2/3"],
    "paper-check": ["--json"],
}


def _mixed_sequence():
    """argv lists over every subcommand: answers, refusals, help and each
    kind of usage error, with tokens before, between and after the name."""
    seq = [
        [], ["-h"], ["--help"], ["--he"], ["-x"], ["frobenius-me"], ["dse"],
        ["--x", "dset", "--set", "1/2"], ["--", "dset", "--set", "1/2", "--below", "1/2"],
        ["dset", "nu"], ["nu", "dset"], ["-h", "dset", "nu"], ["dset", "-h", "nu"],
        ["dset", "--set", "nu", "--below", "1/2"], ["--table"],
        ["t0", "--set", "1/3", "--lambda-list", "1/2"], ["paper-check", "--table"],
        ["dset", "--set", "", "--below", "3/2"],
        ["nu", "--p", "6", "--slopes", "0", "--mults", "1", "--e", "1"],
        # edges of the names a call builds parsers for: `-h` before a name,
        # names after `--`, a name twice, an option value that names another
        # subcommand, a near miss, an abbreviated `--help`, and the one
        # subcommand whose answer needs no required argument
        ["-h", "nu"], ["--help", "t0", "dset"], ["--", "nu"], ["--", "t0", "dset", "nu"],
        ["t0", "--", "dset"], ["dset", "dset"], ["nu", *VALID["nu"], "nu"],
        ["t0", "--lambda-list", "nu"], ["t0", "--set", "dset"], ["nu-x"], ["nu-x", "--dset"],
        ["--he", "dset"], ["dset", "--he"], ["paper-check", "--json"],
    ]
    for name, tail in VALID.items():
        if name != "paper-check":  # its answer is pinned in TestPaperCheck
            seq += [[name, *tail], [name, "--table", *tail]]
        seq += [
            [name, "-h"], ["-h", name], [name, "--help", *tail], [name, "--h"],
            [name, "--bogus"], [name, *tail, "extra"], [*tail, name], [name + "x"],
        ]
        if name != "paper-check":  # it has no required argument
            seq += [[name], [name, *tail[:2]]]
    return seq


class TestNamedArguments:
    """`run` gives arguments and `-h` only to the subcommands its argv names;
    each call's exit code, report, stdout and stderr are those of a parser
    that gives every subcommand its arguments."""

    def play(self, capsys, sequence, argv_of=lambda argv: argv):
        results = []
        for argv in sequence:
            buf = io.StringIO()
            code = run(argv_of(argv), out=buf)
            captured = capsys.readouterr()
            results.append((argv, code, buf.getvalue(), captured.out, captured.err))
        return results

    def full_parser(self, monkeypatch):
        """Make `run` parse with every subcommand's arguments, built the
        plain argparse way: the default parser class and subcommand prog."""
        description = cli._build_parser(()).description

        def build(tokens):
            parser = argparse.ArgumentParser(prog="fptkit", description=description)
            sub = parser.add_subparsers(dest="command", required=True)
            for name, handler, text, arguments, one_of in cli._SUBCOMMANDS:
                p = sub.add_parser(name, help=text)
                p.set_defaults(handler=handler)
                for flag, options in arguments:
                    p.add_argument(flag, **options)
                if one_of:
                    group = p.add_mutually_exclusive_group(required=True)
                    for flag, options in one_of:
                        group.add_argument(flag, **options)
            return parser

        monkeypatch.setattr(cli, "_build_parser", build)

    def test_a_mixed_sequence_matches_the_full_parser(self, capsys, monkeypatch):
        sequence = _mixed_sequence()
        got = self.play(capsys, sequence)
        assert {code for _, code, *_ in got} == {0, 1, 2}
        self.full_parser(monkeypatch)
        assert self.play(capsys, sequence) == got

    @pytest.mark.parametrize(
        "argv", [["hsb", "--n", "4"], ["nu", "-h"], ["-h"], [], ["t0"]],
        ids=["answer", "sub-help", "help", "empty", "usage-error"],
    )
    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch, argv):
        want = self.play(capsys, [argv])
        monkeypatch.setattr(sys, "argv", ["fptkit", *argv])
        assert self.play(capsys, [argv], lambda _: None) == want
        self.full_parser(monkeypatch)
        assert self.play(capsys, [argv], lambda _: None) == want

    def test_only_named_subcommands_get_arguments(self, monkeypatch):
        # every name keeps its choice, but a name argv does not hold maps to
        # one shared stand-in parser with no action; a call constructs
        # 2 + (names in argv) parsers: the top level, the stand-in and one
        # per named subcommand
        built = []
        init = argparse.ArgumentParser.__init__

        def record(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", record)
        names = [spec[0] for spec in cli._SUBCOMMANDS]
        for tokens, named in [
            ([], set()),
            (["classify-p1", "--coeffs", "1/2"], {"classify-p1"}),
            (["--", "t0", "dset", "nu"], {"t0", "dset", "nu"}),
            (["dset", "dset", "--set", "nu"], {"dset", "nu"}),
            (["nu-x", "--dset"], set()),
        ]:
            built.clear()
            parser = cli._build_parser(tokens)
            subparsers = parser._subparsers._group_actions[0].choices
            assert list(subparsers) == names
            stand_in = built[1]
            assert isinstance(stand_in, argparse.ArgumentParser)
            assert stand_in._actions == []
            assert {name for name, sub in subparsers.items() if sub is not stand_in} == named
            assert all(subparsers[name]._actions for name in named)
            assert len(built) == 2 + len(named)


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

    @pytest.mark.parametrize("argv", [["paper-check"], ["paper-check", "--json"]])
    def test_paper_check_as_the_only_request(self, argv):
        # `python -I -m fptkit.cli <argv>`: the CLI imports the regression
        # table inside paper-check, so this fresh process loads it there
        proc = run_python("-I", "-c", MODULE_AS_SCRIPT, SRC, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == invoke(argv)[1]


# `-I` ignores PYTHONPATH, so the child puts the fptkit under test on its
# path, then runs `fptkit.cli` as `-m` would, with argv after the path
MODULE_AS_SCRIPT = (
    "import runpy, sys; sys.path.insert(0, sys.argv.pop(1)); "
    "runpy.run_module('fptkit.cli', run_name='__main__', alter_sys=True)"
)


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
