"""End-to-end command-line checks, including schema validation of JSON output."""

import json
import math
import os
from pathlib import Path

import jsonschema
import pytest

from staircase import cli

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


def test_probe_lowerbound_json(capsys):
    payload = run_json(capsys, ["probe", "lowerbound",
                                "--alpha", "1/2", "--alpha-n", "2/5"])
    assert payload["holds"] is True and payload["N"] == 5


def test_probe_irrational_json(capsys):
    payload = run_json(capsys, ["probe", "irrational", "--preset", "golden", "-I", "3"])
    assert payload["verdict"] == "toward_zero"


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


def test_exit_code_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["delta", "eval", "--bogus-flag"])
    assert exc.value.code == cli.EXIT_USAGE


def test_exit_code_precondition(capsys):
    code, _, err = run(capsys, ["delta", "eval", "--alpha=-1/2"])
    assert code == cli.EXIT_PRECONDITION
    assert err.strip().splitlines()[-1].startswith("error:")


def test_exit_code_certification(capsys):
    # a finite (rational) continued fraction runs out of terms mid-refinement
    code, _, err = run(capsys, ["delta", "eval", "--cf", "0,2,3"])
    assert code == cli.EXIT_CERTIFICATION
    assert "error:" in err


@pytest.mark.parametrize("argv, env_digits, code", [
    (["--tol", "abc", "delta", "eval", "--alpha", "1/2"], None, cli.EXIT_USAGE),
    (["delta", "eval", "--alpha", "1/2", "--digits", "-3"], None, cli.EXIT_USAGE),
    (["delta", "eval", "--alpha", "1/2"], "x", cli.EXIT_USAGE),
    (["cf", "expand", "--alpha", "17/12", "-N", "-1"], None, cli.EXIT_PRECONDITION),
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
    prefix = "error: usage: " if code == cli.EXIT_USAGE else "error: "
    assert len(lines) == 1 and lines[0].startswith(prefix), err
