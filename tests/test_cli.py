"""CLI tests: output formats, exit codes, the reproduction report."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from probfold import cli, laws
from probfold.cli import _MATRIX_NAMES, main
from probfold.dist import DomainError

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def output_digest(code, out, err):
    """SHA-256 of a run's exit code, stdout and stderr."""
    return hashlib.sha256(repr((code, out, err)).encode()).hexdigest()


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


@pytest.mark.parametrize("name, text", [("fsum", "1e308"), ("favg_pair", "1.5,2"),
                                        ("favg_split", "1e308")])
def test_summing_cases_name_the_sequence_format(name, text):
    proc = run_module("cases", name, "--p", "0.1", "--input", text)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (f"error: input {text!r} is text, not numbers; "
                           "summing cases take comma-separated integers\n")


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


@pytest.mark.parametrize("argv, flag", [(("cases", "mfib", "--p", "1.5", "--n", "1"), "--p"),
                                        (("matrix", "fneg", "--q", "nan"), "--q")])
def test_a_bad_rate_is_a_usage_error_naming_its_flag(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"error: {flag}" in capsys.readouterr().err


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
    # indexable counts whose arrays numpy cannot size
    ("matrix", "mfib", "--n", str(sys.maxsize - 1)),
    ("matrix", "ftwice_fixpoint", "--n", str(sys.maxsize - 1), "--m", "8"),
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


# every matrix name under three flag sets: stdout, stderr and exit code, as
# printed by the implementation these digests were recorded from
_MATRIX_FLAGS = {
    "default": (),
    "table": ("--p", "0.1", "--q", "0.2", "--format", "table", "--header"),
    "small": ("--p", "0.1", "--q", "0.2", "--n", "3", "--m", "9", "--header"),
}
_MATRIX_DIGESTS = {
    "default": {
        "ftwice_fixpoint": "ea4691ff5771390edd762d3f9d05f159d3b9fd8cc4802530351a9974ed38b67a",
        "fneg": "93396cf6af51077f332580615e87efa919bd3d0ea642a608968d8f4b2e68763a",
        "mfib": "9ad5cf498afbd2a245b2747362cc50802f0fa462660a99eac1e5f03ea1953dce",
        "mfibl": "9ad5cf498afbd2a245b2747362cc50802f0fa462660a99eac1e5f03ea1953dce",
        "msq": "adbec5e63a82064a493e3553df94ec006d15b9e5b778548d0f72e25561a3f8ee",
        "msql": "adbec5e63a82064a493e3553df94ec006d15b9e5b778548d0f72e25561a3f8ee",
        "msqlo": "4aae426f4fec81161f51af24e8c702af733d6fa28366e33d8b8aba7b12a217ec",
        "msq'": "adbec5e63a82064a493e3553df94ec006d15b9e5b778548d0f72e25561a3f8ee",
        "msql'": "adbec5e63a82064a493e3553df94ec006d15b9e5b778548d0f72e25561a3f8ee",
        "ftwice": "ea4691ff5771390edd762d3f9d05f159d3b9fd8cc4802530351a9974ed38b67a",
    },
    "table": {
        "ftwice_fixpoint": "fe2230bc1f4a38a3d7fbd7f9a5b876030990a927a050f23873a3aadc9043eb7e",
        "fneg": "91097ee8b3d7ba9b4959e3e59ad57e4635ecd8a5ff6c98a95d1704d8cb75ef50",
        "mfib": "075f3114c31cd837cf6209090455c8afaa7ab7166bf9173bb08e4737460c6c64",
        "mfibl": "075f3114c31cd837cf6209090455c8afaa7ab7166bf9173bb08e4737460c6c64",
        "msq": "adbec5e63a82064a493e3553df94ec006d15b9e5b778548d0f72e25561a3f8ee",
        "msql": "adbec5e63a82064a493e3553df94ec006d15b9e5b778548d0f72e25561a3f8ee",
        "msqlo": "4aae426f4fec81161f51af24e8c702af733d6fa28366e33d8b8aba7b12a217ec",
        "msq'": "adbec5e63a82064a493e3553df94ec006d15b9e5b778548d0f72e25561a3f8ee",
        "msql'": "adbec5e63a82064a493e3553df94ec006d15b9e5b778548d0f72e25561a3f8ee",
        "ftwice": "fe2230bc1f4a38a3d7fbd7f9a5b876030990a927a050f23873a3aadc9043eb7e",
    },
    "small": {
        "ftwice_fixpoint": "e080c1f945c609e7da7b850a9f1596a7cfd19c515cf8764d6f7d8e2a7f167b04",
        "fneg": "4bad324f34802bb7665dfcd1c87646fd90b4d76b3ba3d6350b54c88383810d60",
        "mfib": "8ffb89a7efcb52a32bc77abfad769b082247e731cec82229332b5fe12592945e",
        "mfibl": "8ffb89a7efcb52a32bc77abfad769b082247e731cec82229332b5fe12592945e",
        "msq": "082db5ae37831c7ff54d34d80627bdc0c8ae86ae08321794ad1d4aae9bbbf5e2",
        "msql": "082db5ae37831c7ff54d34d80627bdc0c8ae86ae08321794ad1d4aae9bbbf5e2",
        "msqlo": "08b0d8fa61dfa5725cc639a5cd202bbdf2fe1debec5cebc9f461b70466f6bd89",
        "msq'": "253d87e4c83419a48560bfe052e25ba88a36c6494023c20e72a495acdff0849e",
        "msql'": "d69eab907f9c340603d76f551f1626e0898fce55a7f21034e2373804c91eb3c0",
        "ftwice": "e080c1f945c609e7da7b850a9f1596a7cfd19c515cf8764d6f7d8e2a7f167b04",
    },
}


@pytest.mark.parametrize("flags", sorted(_MATRIX_FLAGS))
def test_matrix_outputs_are_pinned(capsys, flags):
    digests = {name: output_digest(*run_cli(capsys, "matrix", name, *_MATRIX_FLAGS[flags]))
               for name in _MATRIX_NAMES}
    assert digests == _MATRIX_DIGESTS[flags]


def test_matrix_fixpoint_over_several_column_blocks_is_pinned(capsys):
    # 201 columns: the fixpoint's checks run over more than three blocks of them
    code, out, err = run_cli(capsys, "matrix", "ftwice_fixpoint", "--p", "0.1", "--n", "200", "--m", "401")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3d9acaa4985a4fdd086e1137db8afbea6aff18b8f1ddce0c1105902a94efb7b9")


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

@pytest.mark.parametrize("command", ["laws", "report"])
def test_a_library_error_in_any_command_is_one_error_line(monkeypatch, tmp_path, capsys, command):
    def broken(name, cfg):
        raise DomainError(f"law {name} broke")
    for module in (cli, laws):
        monkeypatch.setattr(module, "check_law", broken)
    path = tmp_path / "report.md"
    argv = ["laws"] if command == "laws" else ["report", str(path)]
    code, out, err = run_cli(capsys, *argv, "--trials", "2")
    assert (code, out, err) == (1, "", "error: law compose_mult broke\n")
    assert not path.exists()


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


def test_report_markdown_is_pinned(tmp_path, capsys):
    path = tmp_path / "report.md"
    assert run_cli(capsys, "report", str(path), "--seed", "1", "--trials", "3")[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "788ca3c710a7ccdaea706748b53cb55e2f5dda32f70c27d4b2283bf4c34ca722")


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
