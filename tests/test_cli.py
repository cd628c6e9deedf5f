"""CLI tests: output formats, exit codes, the reproduction report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from probfold.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """`python -m probfold.cli ARGV` in a child process that imports this checkout's src."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "probfold.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


# --- cases ---------------------------------------------------------------------

def test_cases_mfib_table(capsys):
    code, out, _ = run_cli(capsys, "cases", "mfib", "--p", "0.1", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["3\t81.0%", "2\t18.0%", "1\t1.0%"]


def test_cases_fcount_table(capsys):
    code, out, _ = run_cli(capsys, "cases", "fcount", "--q", "0.15", "--input", "abc")
    assert code == 0
    assert out.splitlines() == ["3\t61.4%", "2\t32.5%", "1\t5.7%", "0\t0.3%"]


def test_cases_sharp_degenerate(capsys):
    code, out, _ = run_cli(capsys, "cases", "mfib", "--p", "0", "--n", "10")
    assert code == 0
    assert out.splitlines() == ["55\t100.0%"]


def test_cases_integer_list_input(capsys):
    code, out, _ = run_cli(capsys, "cases", "favg_pair", "--p", "0.15", "--q", "0.1",
                           "--input", "2,3")
    assert code == 0
    assert out.splitlines()[0] == "(5, 2)\t58.5%"


def test_cases_carrier_violation_exits_1(capsys):
    code, _, err = run_cli(capsys, "cases", "mfib", "--p", "0.1", "--n", "-3")
    assert code == 1
    assert "natural" in err


def test_cases_non_number_sum_input_is_one_error_line():
    for name in ("fsum", "favg_pair", "favg_split"):
        proc = run_module("cases", name, "--p", "0.1", "--input", "abc")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: element 'a' of input 'abc' is not a real number\n"


def test_cases_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cases", "unknown_case", "--n", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["cases", "mfib", "--p", "1.5", "--n", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["cases", "mfib"])  # missing --n
    assert exc.value.code == 2


# --- matrix --------------------------------------------------------------------

def test_matrix_fneg_csv(capsys):
    code, out, _ = run_cli(capsys, "matrix", "fneg", "--p", "0.05")
    assert code == 0
    assert out == "0.05,1\n0.95,0\n"


def test_matrix_fixpoint_entries(capsys):
    code, out, _ = run_cli(capsys, "matrix", "ftwice_fixpoint", "--p", "0.1",
                           "--n", "4", "--m", "8")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 9 and all(len(r) == 5 for r in rows)
    assert abs(float(rows[8][4]) - 0.6561) <= 1e-12
    assert abs(float(rows[0][0]) - 1.0) == 0.0
    assert float(rows[1][2]) == 0.0


def test_matrix_fixpoint_sharp_case(capsys):
    code, out, _ = run_cli(capsys, "matrix", "ftwice_fixpoint", "--p", "0",
                           "--n", "3", "--m", "6")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    for j in range(4):
        assert rows[2 * j][j] == "1"


def test_matrix_case_to_matrix(capsys):
    code, out, _ = run_cli(capsys, "matrix", "msq", "--p", "0.1", "--n", "3", "--m", "9")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 10 and len(rows[0]) == 4
    assert abs(float(rows[9][3]) - 0.81) <= 1e-12


def test_matrix_truncation_exits_1(capsys):
    code, _, err = run_cli(capsys, "matrix", "msq", "--p", "0.1", "--n", "4", "--m", "9")
    assert code == 1
    assert "escapes" in err and "12" in err


def test_matrix_fixpoint_truncation_exits_1(capsys):
    code, _, err = run_cli(capsys, "matrix", "ftwice_fixpoint", "--p", "0.1",
                           "--n", "5", "--m", "8")
    assert code == 1
    assert "10" in err


@pytest.mark.parametrize("argv", [
    ("cases", "mfib", "--p", "0.1", "--n", "99999999999999999999"),
    ("cases", "ftwice", "--p", "0.1", "--n", "99999999999999999999"),
    ("matrix", "mfib", "--n", "99999999999999999999"),
    ("matrix", "ftwice_fixpoint", "--n", "99999999999999999999", "--m", "8"),
    ("matrix", "ftwice_fixpoint", "--n", "4", "--m", str(sys.maxsize)),
])
def test_counts_beyond_the_largest_index_are_one_error_line(argv):
    proc = run_module(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_matrix_header_labels(capsys):
    code, out, _ = run_cli(capsys, "matrix", "fneg", "--p", "0.05", "--header")
    assert code == 0
    assert out.splitlines()[0] == ",False,True"


def test_matrix_table_format(capsys):
    code, out, _ = run_cli(capsys, "matrix", "fneg", "--p", "0.05", "--format", "table")
    assert code == 0
    assert out.splitlines()[0].split() == ["0.05", "1"]


# --- laws ----------------------------------------------------------------------

def test_laws_single_law_line(capsys):
    code, out, _ = run_cli(capsys, "laws", "--law", "exchange", "--trials", "5")
    assert code == 0
    law, status, dev, trials = out.strip().split("\t")
    assert (law, status, trials) == ("exchange", "pass", "5")


def test_laws_full_suite_small(capsys):
    code, out, _ = run_cli(capsys, "laws", "--trials", "2", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 33
    statuses = {line.split("\t")[1] for line in lines}
    assert statuses <= {"pass", "expected-fail"}


def test_laws_verbose_prints_witness(capsys):
    code, out, _ = run_cli(capsys, "laws", "--law", "weak_product", "--trials", "2",
                           "--verbose")
    assert code == 0
    assert "reconstruction" in out


def test_laws_bad_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["laws", "--law", "not_a_law"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["laws", "--trials", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["laws", "--tol", "inf"])
    assert exc.value.code == 2


# --- report ----------------------------------------------------------------------

def test_report_writes_passing_markdown(tmp_path, capsys):
    out_path = tmp_path / "report.md"
    code, out, _ = run_cli(capsys, "report", str(out_path), "--trials", "3")
    assert code == 0
    text = out_path.read_text()
    assert "# Reproduction report" in text
    assert "**Overall: PASS**" in text
    assert "Expected inequality" in text
    assert "Law suite" in text
    assert text.count("**Section PASS**") >= 9


def test_report_regeneration_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.md", tmp_path / "b.md"
    assert run_cli(capsys, "report", str(a), "--trials", "2")[0] == 0
    assert run_cli(capsys, "report", str(b), "--trials", "2")[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_report_unwritable_path_exits_1(tmp_path, capsys):
    code, _, err = run_cli(capsys, "report", str(tmp_path / "missing" / "r.md"),
                           "--trials", "2")
    assert code == 1
    assert "cannot write" in err


# --- console entry point -----------------------------------------------------------

def test_module_entry_point_runs():
    proc = run_module("cases", "mfib", "--p", "0.1", "--n", "4")
    assert proc.returncode == 0
    assert proc.stdout.startswith("3\t81.0%")
