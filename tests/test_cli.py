"""End-to-end command-line checks, including schema validation of JSON output."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from staircase import cli, diophantine
from staircase.delta import delta_rational, delta_right_limit

SCHEMA = json.loads(
    (Path(cli.__file__).parent / "schema.json").read_text())


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_word_christoffel(capsys):
    code, out, _ = run(capsys, ["word", "christoffel", "2", "5"])
    assert code == 0 and out.strip() == "00101"


def test_word_mechanical_upper(capsys):
    code, out, _ = run(capsys, ["word", "mechanical", "2/5", "0", "10", "--upper"])
    assert code == 0 and out.strip() == "1010010100"


def test_word_admissible_json(capsys):
    payload = run_json(capsys, ["word", "admissible", "2(10)"])
    assert payload == {"word": "2(10)^w", "admissible": True}


def test_delta_eval_golden_slope_half(capsys):
    payload = run_json(capsys, ["delta", "eval", "--alpha", "1/2"])
    assert payload["word"] == "11"
    lo, hi = payload["enclosure"]
    assert lo.startswith("1.6180339887") and hi.startswith("1.6180339887")


def test_delta_eval_right_limit(capsys):
    payload = run_json(capsys, ["delta", "eval", "--alpha", "1/2", "--right-limit"])
    assert payload["word"] == "1(10)^w"
    assert payload["enclosure"][0].startswith("1.80193773580")


def test_delta_eval_preset_cf(capsys):
    payload = run_json(capsys, ["delta", "eval", "--preset", "golden"])
    assert payload["nature"] == "labelled_transcendental"
    assert payload["enclosure"][0].startswith("1.8352446357")


def test_delta_plot_csv_file(capsys, tmp_path):
    out = tmp_path / "plot.csv"
    code, _, _ = run(capsys, ["delta", "plot", "--from", "0/1", "--to", "1/1",
                              "--max-den", "4", "--out", str(out),
                              "--output", "csv"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[:2] == ["slope_num", "slope_den"]
    assert len(lines) == 1 + 6  # header + Farey fractions with den <= 4


def test_cf_expand(capsys):
    payload = run_json(capsys, ["cf", "expand", "--alpha", "17/12", "-N", "8"])
    assert payload["quotients"] == [1, 2, 2, 2]


def test_cf_convergents_exact_and_logged(capsys):
    payload = run_json(capsys, ["cf", "convergents", "--preset", "golden", "-N", "6"])
    qs = [int(row["q"]) for row in payload["convergents"]]
    assert qs == [1, 1, 2, 3, 5, 8, 13]
    payload = run_json(capsys, ["cf", "convergents", "--preset", "golden",
                                "-N", "64", "--bit-budget", "16"])
    assert any("ln_q" in row for row in payload["convergents"])
    # a finite --cf list has as many convergents as terms
    payload = run_json(capsys, ["cf", "convergents", "--cf", "0,2,3", "-N", "2"])
    assert [(row["p"], row["q"]) for row in payload["convergents"]] == [
        ("0", "1"), ("1", "2"), ("3", "7")]


def test_measure_theta_targeted(capsys):
    payload = run_json(capsys, ["measure", "theta", "--preset", "targeted:2", "-N", "6"])
    # the running values settle on ln 2; the headline is the window max
    _, lo, hi = payload["running"][-1]
    assert abs(lo - math.log(2)) < 1e-3 and abs(hi - math.log(2)) < 1e-3
    assert payload["headline"][1] >= hi


def test_measure_mu_cf_spec(capsys):
    payload = run_json(capsys, ["measure", "mu",
                                "--cf", "2,1,2,1,1,4,e-pattern", "-N", "10"])
    assert payload["caveat"] is True
    assert all(2.0 <= hi < 4.0 for _, _, hi in payload["running"])


def test_classify_presets(capsys):
    payload = run_json(capsys, ["classify", "--preset", "alpha5", "-N", "6"])
    assert payload["label"] == "exponential"
    assert payload["caveat"] is True


@pytest.mark.parametrize("argv", [["measure", "mu"], ["measure", "theta"], ["classify"]])
def test_bit_budget_reaches_convergents(capsys, argv):
    """The global --bit-budget is the budget of every convergent table that
    measure and classify build; without it they use the default."""
    budgets = []
    convergents = diophantine.convergents

    def spy(cf, n, bit_budget=diophantine.DEFAULT_BIT_BUDGET):
        budgets.append(bit_budget)
        return convergents(cf, n, bit_budget)

    with mock.patch.object(diophantine, "convergents", spy):
        run_json(capsys, argv + ["--preset", "golden", "-N", "40", "--bit-budget", "16"])
        assert budgets and set(budgets) == {16}
        budgets.clear()
        run_json(capsys, argv + ["--preset", "golden", "-N", "40"])
        assert budgets and set(budgets) == {diophantine.DEFAULT_BIT_BUDGET}


@pytest.mark.parametrize("line", [
    "measure mu --preset targeted:1.5 -N 9",
    "measure theta --preset golden -N 1600",
    "measure theta --preset e -N 500",
    "measure theta --cf 0,1,fib -N 1600",
    "classify --preset sqrt2m1 -N 900",
    "cf convergents --preset alpha6 -N 150",
    "measure mu --preset alpha6 -N 150",
    "classify --preset alpha6 -N 150",
    "cf convergents --cf 0,1000000,periodic -N 800",
])
def test_numbers_beyond_float_range_keep_the_cli_contract(capsys, line):
    """Convergent denominators past 2^1023 end a window with a note, and an
    exact one longer than ``str`` prints (4300 digits) prints as ln_q."""
    code, out, err = run(capsys, line.split())
    assert (code, err) == (0, "")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    if line.startswith("cf convergents --cf"):
        rows = payload["convergents"]
        assert "q" in rows[700] and "ln_q" in rows[-1]


def test_probe_zero_json(capsys):
    payload = run_json(capsys, ["probe", "zero", "-K", "4"])
    assert payload["verdict"] == "toward_infinity"
    assert len(payload["probes"]) == 4


def test_probe_left_csv(capsys):
    code, out, _ = run(capsys, ["probe", "left", "--alpha", "2/5", "-K", "3",
                                "--output", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,alpha_k_num,alpha_k_den,quotient_lo,quotient_hi"
    assert lines[-1].startswith("verdict,toward_zero")


def test_trace_csv_and_json_shapes(capsys):
    code, out, _ = run(capsys, ["probe", "zero", "-K", "3", "--output", "csv"])
    assert code == 0
    rows = list(csv.reader(out.splitlines()))[1:]  # the rows past the header
    assert rows[-1][0] == "verdict"
    assert len(rows) == 3 + 1
    _, js, _ = run(capsys, ["probe", "zero", "-K", "3"])
    assert "toward_infinity" in js


def test_probe_lowerbound_json(capsys):
    payload = run_json(capsys, ["probe", "lowerbound",
                                "--alpha", "1/2", "--alpha-n", "2/5"])
    assert payload["holds"] is True and payload["N"] == 5


def test_probe_irrational_json(capsys):
    payload = run_json(capsys, ["probe", "irrational", "--preset", "golden", "-I", "3"])
    assert payload["verdict"] == "toward_zero"


def test_delta_eval_of_a_slope_under_one_thirty_second(capsys):
    """theta = [0; 40, 1, 1, ...] = 1/40.618...: its digit stream starts
    1 0^39 1, so the series root's first truncation, 1 0^31, has root 1 and
    must be lengthened.  Delta is increasing, so Delta(theta) lies between
    Delta(1/41+) and Delta(1/40)."""
    tol, digits = Fraction(1, 10 ** 12), 40
    payload = run_json(capsys, ["--tol", "1e-12", "delta", "eval", "--cf", "0,40,fib",
                                "--digits", str(digits)])
    lo, hi = map(Fraction, payload["enclosure"])
    assert hi - lo <= tol + Fraction(2, 10 ** digits)  # printed outward
    assert delta_right_limit(Fraction(1, 41)).enclosure.lo < lo
    assert hi < delta_rational(Fraction(1, 40)).enclosure.hi


def test_determinism_byte_identical(capsys):
    _, a, _ = run(capsys, ["delta", "eval", "--alpha", "2/5"])
    _, b, _ = run(capsys, ["delta", "eval", "--alpha", "2/5"])
    assert a == b


def test_digits_flag_and_env(capsys, monkeypatch):
    _, out, _ = run(capsys, ["delta", "eval", "--alpha", "1/2", "--digits", "8"])
    assert '"1.61803398"' in out
    monkeypatch.setenv(cli.ENV_DIGITS, "6")
    _, out, _ = run(capsys, ["delta", "eval", "--alpha", "1/2"])
    assert '"1.618033"' in out


def test_digits_past_the_int_str_limit(capsys, monkeypatch):
    """--digits and STAIRCASE_DIGITS above the 4300 digits that ``str``
    converts from Python 3.11 on print in full."""
    short = run_json(capsys, ["delta", "eval", "--alpha", "1/2"])["enclosure"][0]
    lo, hi = run_json(capsys, ["delta", "eval", "--alpha", "1/2", "--digits", "5000"])["enclosure"]
    assert lo.startswith(short) and len(lo) == len(hi) == 5002
    monkeypatch.setenv(cli.ENV_DIGITS, "5000")
    probes = run_json(capsys, ["probe", "zero", "-K", "3"])["probes"]
    assert all(len(p[end]) == 5002 for p in probes for end in ("quotient_lo", "quotient_hi"))


def test_exit_code_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["delta", "eval", "--bogus-flag"])
    assert exc.value.code == cli.EXIT_USAGE


def test_exit_code_precondition(capsys):
    code, _, err = run(capsys, ["delta", "eval", "--alpha=-1/2"])
    assert code == cli.EXIT_PRECONDITION
    assert err.strip().splitlines()[-1].startswith("error:")


def test_exit_code_certification(capsys):
    # alpha2's third partial quotient exists only in log space, so its digit
    # stream cannot be read off exactly
    code, _, err = run(capsys, ["delta", "eval", "--preset", "alpha2"])
    assert code == cli.EXIT_CERTIFICATION
    assert "error:" in err


@pytest.mark.parametrize("argv, env_digits, code", [
    (["--tol", "abc", "delta", "eval", "--alpha", "1/2"], None, cli.EXIT_USAGE),
    (["delta", "eval", "--alpha", "1/2", "--digits", "-3"], None, cli.EXIT_USAGE),
    (["delta", "eval", "--alpha", "1/2"], "x", cli.EXIT_USAGE),
    (["cf", "expand", "--alpha", "17/12", "-N", "-1"], None, cli.EXIT_PRECONDITION),
    # a --cf list without a generator suffix is a rational slope
    (["delta", "eval", "--cf", "0,1"], None, cli.EXIT_PRECONDITION),
    (["probe", "irrational", "--cf", "0,1,2", "-I", "2"], None, cli.EXIT_PRECONDITION),
    # more convergents (default -N 10) than the finite list has
    (["cf", "convergents", "--cf", "0,2,3"], None, cli.EXIT_PRECONDITION),
    # an unclosed bracket, or a bracketed letter that is not a decimal integer
    (["word", "admissible", "[x]"], None, cli.EXIT_PRECONDITION),
    (["word", "admissible", "[12"], None, cli.EXIT_PRECONDITION),
    # a letter longer than the 4300 digits ``int`` reads from Python 3.11 on
    (["word", "admissible", "[" + "9" * 5000 + "]1"], None, cli.EXIT_PRECONDITION),
    # every estimator window needs N >= 2, series-sample presets included
    (["classify", "--preset", "alpha1", "-N", "0"], None, cli.EXIT_PRECONDITION),
    (["measure", "theta", "--preset", "alpha1", "-N", "-1"], None, cli.EXIT_PRECONDITION),
    (["measure", "mu", "--preset", "golden", "-N", "1"], None, cli.EXIT_PRECONDITION),
    (["cf", "convergents", "--preset", "golden", "--bit-budget", "-1"], None, cli.EXIT_USAGE),
    # a period with its ")" missing, doubled or before the "("
    (["word", "admissible", "1(2"], None, cli.EXIT_PRECONDITION),
    (["word", "admissible", "1(2))"], None, cli.EXIT_PRECONDITION),
    (["word", "admissible", "1)(2)"], None, cli.EXIT_PRECONDITION),
    # a targeted preset whose base is not a fraction, or divides by zero
    (["measure", "mu", "--preset", "targeted:x"], None, cli.EXIT_PRECONDITION),
    (["classify", "--preset", "targeted:1/0"], None, cli.EXIT_PRECONDITION),
    # a targeted preset whose base is past the float range
    (["classify", "--preset", "targeted:1e400"], None, cli.EXIT_PRECONDITION),
    (["measure", "mu", "--preset", "targeted:1e400"], None, cli.EXIT_PRECONDITION),
    # a targeted preset with beta^3 < 3, where some floor(beta^q / q) is 0
    (["measure", "theta", "--preset", "targeted:5/4"], None, cli.EXIT_PRECONDITION),
    (["measure", "theta", "--preset", "targeted:1.4422"], None, cli.EXIT_PRECONDITION),
    # one number named twice
    (["delta", "eval", "--alpha", "1/2", "--cf", "0,1,fib"], None, cli.EXIT_PRECONDITION),
    (["measure", "mu", "--cf", "0,1,fib", "--preset", "e", "-N", "4"], None,
     cli.EXIT_PRECONDITION),
    (["cf", "convergents", "--cf", "0,1,1,1", "--preset", "e", "-N", "3"], None,
     cli.EXIT_PRECONDITION),
    # a --cf spec with no terms, no a0, a bad or zero term, or an empty tail
    (["delta", "eval", "--cf", ","], None, cli.EXIT_PRECONDITION),
    (["delta", "eval", "--cf", "fib"], None, cli.EXIT_PRECONDITION),
    (["delta", "eval", "--cf", "0,a,fib"], None, cli.EXIT_PRECONDITION),
    (["delta", "eval", "--cf", "0,0,fib"], None, cli.EXIT_PRECONDITION),
    (["delta", "eval", "--cf", "0,periodic"], None, cli.EXIT_PRECONDITION),
    # a --out path that is a directory
    (["delta", "plot", "--from", "0/1", "--to", "1/1", "--max-den", "3", "--out", ".",
      "--output", "csv"], None, cli.EXIT_PRECONDITION),
])
def test_malformed_input_one_line_error(capsys, monkeypatch, argv, env_digits, code):
    if env_digits is not None:
        monkeypatch.setenv(cli.ENV_DIGITS, env_digits)
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code and out == ""
    lines = err.splitlines()
    prefix = "error: usage: " if code == cli.EXIT_USAGE else "error: precondition: "
    assert len(lines) == 1 and lines[0].startswith(prefix), err


INT_DIGITS_LIMIT = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


@pytest.mark.skipif(not INT_DIGITS_LIMIT, reason="this interpreter reads ints of any length")
@pytest.mark.parametrize("argv, code", [
    (["delta", "eval", "--alpha", "BIG/7"], cli.EXIT_PRECONDITION),
    (["delta", "eval", "--cf", "0,BIG,fib"], cli.EXIT_PRECONDITION),
    (["measure", "mu", "--preset", "targeted:BIG"], cli.EXIT_PRECONDITION),
    (["--tol", "0.BIG", "delta", "eval", "--alpha", "1/2"], cli.EXIT_USAGE),
    (["word", "christoffel", "BIG", "5"], cli.EXIT_USAGE),
    (["probe", "zero", "-K", "BIG"], cli.EXIT_USAGE),
    (["cf", "expand", "--alpha", "1/3", "-N", "BIG"], cli.EXIT_USAGE),
    (["delta", "eval", "--alpha", "1/2", "--digits", "BIG"], cli.EXIT_USAGE),
])
@pytest.mark.parametrize("grouped", [False, True])
def test_numbers_past_the_int_str_limit_name_the_cause(capsys, argv, code, grouped):
    """One short line that names the length, without the digits or the
    interpreter's advice to raise its limit; digits written in groups of
    three (9_999_...) count as int() counts them."""
    n = INT_DIGITS_LIMIT + 700
    big = "9" * n
    if grouped:
        big = "_".join(big[i:i + 3] for i in range(0, n, 3))
    try:
        got = cli.main([a.replace("BIG", big) for a in argv])
    except SystemExit as exc:
        got = exc.code
    out, err = capsys.readouterr()
    prefix = "error: usage: " if code == cli.EXIT_USAGE else "error: precondition: "
    assert got == code and out == ""
    assert err.startswith(prefix) and err.endswith(f"{n}-digit number: too long\n")
    assert code != cli.EXIT_USAGE or err.startswith(prefix + "argument ")  # names the option
    assert len(err) < 100, err


def test_no_state_carries_between_main_calls(capsys, monkeypatch):
    monkeypatch.delenv(cli.ENV_DIGITS, raising=False)
    half = ["delta", "eval", "--alpha", "1/2"]
    _, out, _ = run(capsys, half + ["--digits", "8"])
    assert '"1.61803398"' in out
    _, plain, _ = run(capsys, half)
    assert '"1.618033988749630225356668233871"' in plain
    _, out, _ = run(capsys, ["--tol", "1/2"] + half)
    assert out != plain and run(capsys, half)[1] == plain
    probe = ["probe", "zero", "-K", "3"]
    assert run(capsys, probe + ["--output", "csv"])[1].startswith("k,")
    assert run(capsys, probe)[1].startswith("{")
    assert run(capsys, ["word", "christoffel", "--upper", "2", "5"])[1] == "10100\n"
    assert run(capsys, ["word", "christoffel", "2", "5"])[1] == "00101\n"
    # the environment is read on every call
    for env in ("6", "8", "12"):
        monkeypatch.setenv(cli.ENV_DIGITS, env)
        lo, hi = run_json(capsys, half)["enclosure"]
        assert lo.startswith("1.618033") and len(lo) == len(hi) == 2 + int(env)
    monkeypatch.setenv(cli.ENV_DIGITS, "x")
    with pytest.raises(SystemExit) as exc:
        cli.main(half)
    err = capsys.readouterr().err.splitlines()
    assert exc.value.code == cli.EXIT_USAGE
    assert len(err) == 1 and err[0].startswith("error: usage: ")
    monkeypatch.delenv(cli.ENV_DIGITS)
    assert run(capsys, half)[1] == plain


def test_the_grammar_is_built_once_and_not_at_import(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    for argv in (["word", "christoffel", "2", "5"], ["cf", "expand", "--alpha", "17/12"],
                 ["word", "central", "3", "8"]):
        assert cli.main(argv) == cli.EXIT_OK
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0 and len(built) == 1
    assert capsys.readouterr().out.endswith(build().format_help())
    # a fresh interpreter that imports the CLI constructs no parser at all
    probe = ("import argparse\n"
             "made = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "argparse.ArgumentParser.__init__ = lambda *a, **k: made.append(1) or init(*a, **k)\n"
             "import staircase.cli\n"
             "print(len(made), staircase.cli._parser.cache_info().currsize)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["0", "0"]


def test_admissible_word_is_not_the_digits_option(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_DIGITS, "2")
    assert run_json(capsys, ["word", "admissible", "2"])["word"] == "2"
    assert run_json(capsys, ["word", "admissible", "2(10)", "--digits", "5"])["word"] == "2(10)^w"


# ---------------------------------------------------------------------------
# Argv fuzzing: the exit-code, stderr and schema contract for every argv
# ---------------------------------------------------------------------------


def _leaves(parser, path=()):
    """(subcommand path, option strings, required options, number of
    positionals) per leaf of the parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, path + (name,))
            return
    options = [s for a in parser._actions for s in a.option_strings]
    required = [a.option_strings[0] for a in parser._actions if a.option_strings and a.required]
    positionals = [a for a in parser._actions if not a.option_strings]
    yield path, options, required, len(positionals)


LEAVES = list(_leaves(cli.build_parser()))
VALUES = st.one_of(
    st.integers(-2, 12).map(str),
    st.integers(0, 12).map(str),
    st.builds("{}/{}".format, st.integers(-2, 12), st.integers(0, 5)),
    st.sampled_from(sorted(diophantine.presets()) + ["targeted:2", "nope"]),
    st.sampled_from(["0,1,fib", "0,2,periodic", "2,1,2,e-pattern", "0,1", "0,", "x,fib"]),
    st.sampled_from(["2(10)", "[12]1(0[10])", "[x]", "[12", "(", "1)", "[]", "2"]),
    st.sampled_from(["", "-", "--", "x", ".", "1e-3", "nan", "-1/2", "½", "json", "csv"]),
)


@st.composite
def argvs(draw):
    path, options, required, n_positionals = draw(st.sampled_from(LEAVES))
    argv = list(path) + [draw(VALUES) for _ in range(n_positionals)]
    for option in required:
        argv += [option, draw(VALUES)]
    for _ in range(draw(st.integers(0, 4))):
        argv.append(draw(st.sampled_from(options)))
        if draw(st.integers(0, 3)):
            argv.append(draw(VALUES))
    return argv


@settings(max_examples=120, deadline=None, derandomize=True)
@given(argvs())
@example(["word", "admissible", "[x]"])
@example(["word", "admissible", "[12"])
def test_any_argv_keeps_the_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop(cli.ENV_DIGITS, None)
        os.chdir(tmp)  # --out writes here
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3), argv
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), (argv, lines)
    if code == 0 and out.getvalue().startswith("{"):
        jsonschema.validate(json.loads(out.getvalue()), SCHEMA)


# ---------------------------------------------------------------------------
# The number options, --out and the checks in main
# ---------------------------------------------------------------------------

NUMBER_LEAVES = [("delta", "eval"), ("cf", "convergents"), ("measure", "mu"),
                 ("measure", "theta"), ("classify",), ("probe", "irrational")]
OUT_LEAVES = [("delta", "plot"), ("probe", "left"), ("probe", "right"), ("probe", "zero"),
              ("probe", "irrational")]


def _one_line_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == cli.EXIT_PRECONDITION and out == "" and len(err.splitlines()) == 1, err
    return err


@pytest.mark.parametrize("tol", [["--tol", "0"], ["--tol=-1e-3"], ["--tol", "-0.001"],
                                 ["--tol", "0/7"]])
@pytest.mark.parametrize("where", ["before", "after"])
def test_tolerance_must_be_positive(capsys, tol, where):
    """A zero or negative --tol, before or after the subcommand, is a
    precondition error.  (Split in two, ``--tol -1e-3`` is a usage error
    instead: argparse reads -1e-3 as an option, not a value.)"""
    leaf = ["delta", "eval", "--alpha", "1/2"]
    argv = tol + leaf if where == "before" else leaf + tol
    assert _one_line_error(capsys, argv) == "error: precondition: tolerance must be positive\n"


def test_an_empty_alpha_is_a_bad_fraction_beside_a_preset(capsys):
    """--alpha counts toward the one number only when nonempty, but is read
    whenever it is given, so an empty one next to --preset is still refused."""
    err = _one_line_error(capsys, ["delta", "eval", "--alpha", "", "--preset", "golden"])
    assert err.startswith("error: precondition: bad fraction ''")


@pytest.mark.parametrize("path", NUMBER_LEAVES)
def test_every_number_leaf_names_exactly_one_number(capsys, path):
    need = "need --alpha, --cf, or --preset" if path == ("delta", "eval") else "need --cf or --preset"
    for extra in ([], ["--cf", ""], ["--preset", ""]):
        assert _one_line_error(capsys, [*path, *extra]) == f"error: precondition: {need}\n"
    for both in (["--cf", "0,1,fib", "--preset", "golden"],
                 ["--preset", "golden", "--cf", "0,1,fib"]):
        assert _one_line_error(capsys, [*path, *both]) == (
            "error: precondition: --cf, --preset each name a number: give only one\n")


def test_every_leaf_help_lists_its_number_and_out_options(capsys):
    assert len(LEAVES) == 16
    for path, _, _, _ in LEAVES:
        with pytest.raises(SystemExit) as exc:
            cli.main([*path, "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0
        listed = {flag for flag in ("--cf CF", "--preset PRESET", "--out OUT") if flag in out}
        want = {"--cf CF", "--preset PRESET"} if path in NUMBER_LEAVES else set()
        assert listed == want | ({"--out OUT"} if path in OUT_LEAVES else set()), path
    # delta eval lists --alpha ahead of --cf, as its usage line always has
    with pytest.raises(SystemExit):
        cli.main(["delta", "eval", "--help"])
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage.index("--alpha ALPHA") < usage.index("--cf CF") < usage.index("--preset PRESET")
