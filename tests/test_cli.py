"""The command-line surface: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmock.cli import SERIES, main
from qmock.qseries import Series


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_json_roundtrips(capsys):
    code, out, _ = run(capsys, "coeffs", "--series", "H", "--order", "9",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    s = Series.from_json_obj(obj)
    # A_1..A_8 appear doubled at integer offsets above q^(-1/8)
    want = [45, 231, 770, 2277, 5796, 13915, 30843, 65550]
    got = [int(s.coefficient(-3 + 24 * n)) for n in range(1, 9)]
    assert got == [2 * a for a in want]


@pytest.mark.parametrize("name", sorted(SERIES))
def test_every_series_writes_from_its_valuation_and_roundtrips(name):
    for order in (*range(13), 64):
        s = SERIES[name](order)
        assert s.min_exp == (s.prec if s.is_zero() else s.val()), (name, order)
        text = json.dumps(s.to_json_obj())
        assert json.dumps(Series.from_json_obj(json.loads(text)).to_json_obj()) == text


def test_coeffs_plain_and_csv(capsys):
    code, out, _ = run(capsys, "coeffs", "--series", "A78", "--order", "16")
    assert code == 0
    assert out.startswith("q^-1 + 27*q^7 + 105*q^15")
    code, out, _ = run(capsys, "coeffs", "--series", "E2", "--order", "3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "exp24,exp,re,im"
    assert lines[1] == "0,0,1,0"
    assert lines[2] == "24,1,-24,0"


def test_coeffs_unknown_series_usage_error(capsys):
    code, out, err = run(capsys, "coeffs", "--series", "nope")
    assert code == 2
    assert "unknown series" in err
    assert out == ""


def test_invariant_both_routes(capsys):
    code, out, _ = run(capsys, "invariant", "--m", "0", "--n", "0", "--via", "both")
    assert code == 0
    assert out == "QplusTau8: -1\nHOver12: -1\n"


def test_invariant_json(capsys):
    code, out, _ = run(capsys, "invariant", "--m", "1", "--n", "1",
                       "--via", "qplus", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"m": 1, "n": 1, "values": {"QplusTau8": "-5/16"}}


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--max", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,n,phi_num,phi_den,route"
    assert "0,0,-1,1,FinalFormula" in lines
    assert "1,1,-5,16,FinalFormula" in lines


def test_table_plain_has_z_string(capsys):
    code, out, _ = run(capsys, "table", "--max", "2", "--format", "plain")
    assert code == 0
    assert "Z(p,S) = -1" in out


def test_column_plain(capsys):
    code, out, _ = run(capsys, "column", "--m", "0", "--n", "0")
    assert code == 0
    assert out == "H_0: 6\nH_1: -1/4\n"


def test_column_json_defaults_k_max(capsys):
    code, out, _ = run(capsys, "column", "--m", "2", "--n", "0",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["column"] == ["411/64", "-1/4", "-1/64"]


def test_verify_paper_table_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "paper-table")
    assert code == 0
    assert "4/4 checks passed" in out
    assert "FAIL" not in out


def test_verify_jacobi_reports_known_red_check(capsys):
    # the unit-constant derivative identity is recorded as failing with
    # the measured constant; the corrected identity passes
    code, out, _ = run(capsys, "verify", "--suite", "jacobi")
    assert code == 1
    assert "FAIL z0-derivative-identity" in out
    assert "c = -2" in out
    assert "PASS z0-derivative-corrected" in out


def test_moonshine_json(capsys):
    code, out, _ = run(capsys, "moonshine", "--n", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["target"] == 13915
    assert obj["distinct_witness"] == [3520, 10395]


def test_moonshine_cap_plain(capsys):
    code, out, _ = run(capsys, "moonshine", "--n", "1", "--cap", "1",
                       "--max-witnesses", "2", "--format", "plain")
    assert code == 0
    assert out.startswith("A_1 = 45\n")
    assert "count (cap 1): 2" in out


def test_reduce_z0_json(capsys):
    code, out, _ = run(capsys, "reduce-z0", "--k", "0", "--order", "16",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["k"] == 0
    assert len(obj["coefficients"]) >= 1


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "table", "--max", "2", "--format", "csv")
    _, second, _ = run(capsys, "table", "--max", "2", "--format", "csv")
    assert first == second


def test_order_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QMOCK_ORDER", "2")
    code, out, _ = run(capsys, "coeffs", "--series", "Mq")
    assert code == 0
    assert out.strip() == "O(q^(2))"
    monkeypatch.setenv("QMOCK_ORDER", "abc")
    code, _, err = run(capsys, "coeffs", "--series", "Mq")
    assert code == 2 and "QMOCK_ORDER" in err


def test_python_dash_m_runs_the_cli(capsys):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["verify", "--suite", "moonshine"]
    proc = subprocess.run(
        [sys.executable, "-m", "qmock", *argv],
        env=env, capture_output=True, text=True, check=False,
    )
    code, out, _ = run(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out


def test_reduce_z0_constant_at_orders_1_and_32(capsys):
    for order in ("1", "32"):
        code, out, _ = run(capsys, "reduce-z0", "--k", "1", "--order", order)
        assert code == 0
        assert out.startswith("H_1 = (-448) + ")


def test_reduce_z0_order_zero_is_insufficient_precision(capsys):
    # at order 0 the constant term is not certified; reporting 0 would
    # be a false answer
    code, out, err = run(capsys, "reduce-z0", "--k", "1", "--order", "0")
    assert code == 2
    assert out == ""
    assert "insufficient precision" in err and "z0_reduce" in err


@pytest.mark.parametrize("argv", [
    ("coeffs", "--series", "H", "--order", "-5"),
    ("reduce-z0", "--k", "1", "--order", "-1"),
    ("moonshine", "--n", "6", "--cap", "-1"),
    ("moonshine", "--n", "6", "--max-witnesses", "-2"),
    ("moonshine", "--n", "6", "--format", "csv"),  # the report has no csv
])
def test_negative_order_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    want = "invalid choice" if "--format" in argv else "must be nonnegative"
    assert want in capsys.readouterr().err


@pytest.mark.parametrize("fmt, calls", [("json", 1), ("csv", 0), ("plain", 0)])
def test_coeffs_builds_only_the_requested_format(capsys, monkeypatch, fmt, calls):
    seen = []
    to_json_obj = Series.to_json_obj

    def counting(self):
        seen.append(self)
        return to_json_obj(self)

    monkeypatch.setattr(Series, "to_json_obj", counting)
    code, out, _ = run(capsys, "coeffs", "--series", "H", "--order", "8", "--format", fmt)
    assert code == 0 and out.endswith("\n")
    assert len(seen) == calls


def test_negative_order_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QMOCK_ORDER", "-3")
    code, out, err = run(capsys, "coeffs", "--series", "H")
    assert code == 2 and out == ""
    assert "QMOCK_ORDER must be a nonnegative integer" in err
