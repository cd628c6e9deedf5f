"""Command-line front end: case tables, matrix dumps, the law suite, and the
consolidated reproduction report.

Every command runs through ``main``, which turns its outcome into an exit code:
0 all good; 1 a mismatch, a law failure, an unwritable report path, or any
typed library error (a carrier violation, escaping mass, an improper
distribution), printed as one ``error:`` line; 2 a usage error: argparse's
own, a rate outside [0, 1], a bad trial setting, or a missing
``--n``/``--input``.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import re
import sys

import numpy as np

from .cases import ALIASES, CaseParams, REGISTRY, fadd, run_case
from .dims import BOOLS, Range, UNIT
from .dist import (Dist, DomainError, DistributionError, _check_prob, canonical_value, dirac, pair,
                   percent_string, render, tv_distance)
from .laws import CATALOGUE, TrialConfig, _reconstruction, check_all, check_law, risk_preorder
from .matrix import (
    Matrix,
    TruncationError,
    from_probfn,
    from_probfn_truncated,
    from_sharp_fn,
    mat_choice,
    max_dev,
)
from .schemes import matrix_cata_fixpoint
from . import reference

_NAT_CASES = tuple(name for name, c in REGISTRY.items() if c.kind == "nat")
_MATRIX_NAMES = ("ftwice_fixpoint", "fneg") + _NAT_CASES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="probfold",
                                     description="fault-injected programs, stochastic matrices, law checks")
    sub = parser.add_subparsers(dest="command", required=True)
    trial = argparse.ArgumentParser(add_help=False)
    trial.add_argument("--seed", type=int, default=1)
    trial.add_argument("--trials", type=int, default=1000)
    trial.add_argument("--max-dim", type=int, default=6)
    trial.add_argument("--tol", type=float, default=1e-9)

    cases = sub.add_parser("cases", help="run a case study and print its distribution")
    cases.set_defaults(run=cmd_cases)
    cases.add_argument("name", choices=sorted(REGISTRY) + sorted(ALIASES))
    cases.add_argument("--p", type=float, default=0.0, help="primary fault rate")
    cases.add_argument("--q", type=float, default=0.0, help="secondary fault rate")
    cases.add_argument("--n", type=int, help="natural-number input")
    cases.add_argument("--input", dest="input_", metavar="INPUT",
                       help="string or comma-separated integers")

    matrix = sub.add_parser("matrix", help="print a case as a stochastic matrix")
    matrix.set_defaults(run=cmd_matrix)
    matrix.add_argument("name", choices=sorted(_MATRIX_NAMES))
    matrix.add_argument("--p", type=float, default=0.0)
    matrix.add_argument("--q", type=float, default=0.0)
    matrix.add_argument("--n", type=int, default=4, help="largest input (columns 0..n)")
    matrix.add_argument("--m", type=int, default=8, help="largest output (rows 0..m)")
    matrix.add_argument("--format", choices=("csv", "table"), default="csv")
    matrix.add_argument("--header", action="store_true", help="label rows and columns")

    laws = sub.add_parser("laws", parents=[trial], help="run the randomized law suite")
    laws.set_defaults(run=cmd_laws)
    laws.add_argument("--law", choices=sorted(CATALOGUE), help="check one law only")
    laws.add_argument("--verbose", action="store_true", help="dump witnesses")

    report = sub.add_parser("report", parents=[trial], help="write the consolidated reproduction report")
    report.set_defaults(run=cmd_report)
    report.add_argument("output", help="path of the markdown file to write")
    return parser


def _parse_input(text: str):
    if re.fullmatch(r"-?\d+(,-?\d+)*", text):
        return [int(x) for x in text.split(",")]
    return text


def cmd_cases(parser, args) -> int:
    name = ALIASES.get(args.name, args.name)
    flag, value = ("--n", args.n) if REGISTRY[name].kind == "nat" else ("--input", args.input_)
    if value is None:
        parser.error(f"case {name!r} needs {flag}")
    if isinstance(value, str):
        value = _parse_input(value)
    print(render(run_case(name, CaseParams(p=args.p, q=args.q, input=value))))
    return 0


def _table_lines(m: Matrix, header: bool) -> list[str]:
    """The cells of the CSV export, right-aligned in columns."""
    rows = list(csv.reader(io.StringIO(m.to_csv(header))))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return [" ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]


def _matrix_of(name: str, p: float, q: float, n: int, m: int) -> Matrix:
    """The matrix ``probfold matrix NAME`` prints: inputs 0..n as columns and
    outputs 0..m as rows (the faulty negation is over the booleans)."""
    if name == "fneg":
        return mat_choice(p, from_sharp_fn(lambda _b: False, BOOLS, BOOLS),
                          from_sharp_fn(lambda b: not b, BOOLS, BOOLS))
    states = Range(m + 1)
    if name == "ftwice_fixpoint":
        body, escapes = from_probfn_truncated(fadd(p, 2), states, states)
        init = from_probfn(lambda _u: dirac(0), UNIT, states)
        return matrix_cata_fixpoint(body, init, n, states, escapes=escapes)
    return from_probfn(lambda j: run_case(name, CaseParams(p=p, q=q, input=j)), Range(n + 1), states)


def cmd_matrix(parser, args) -> int:
    if not (0 <= args.n < sys.maxsize and 0 <= args.m < sys.maxsize):  # n+1 columns, m+1 rows
        raise DomainError(f"--n and --m must be naturals below {sys.maxsize}")
    m = _matrix_of(args.name, args.p, args.q, args.n, args.m)
    if args.format == "csv":
        sys.stdout.write(m.to_csv(header=args.header))
    else:
        print("\n".join(_table_lines(m, args.header)))
    return 0


def cmd_laws(parser, args) -> int:
    names = [args.law] if args.law else list(CATALOGUE)
    failed = False
    for name in names:
        rep = check_law(name, args.cfg)
        print(rep.line())
        if args.verbose and rep.witness:
            print(rep.witness)
        failed = failed or rep.status == "fail"
    return 1 if failed else 0


def cmd_report(parser, args) -> int:
    text, ok = build_report(args.cfg)
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 1
    print(f"report written to {args.output}: {'all sections pass' if ok else 'FAILURES present'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# report assembly

def _golden_rows(table: reference.GoldenTable) -> tuple[list[str], bool]:
    dist = run_case(table.case, CaseParams(p=table.p, q=table.q, input=table.input))
    rows = []
    ok = True
    for value, pct in table.lines:
        computed = dist.mass(value) * 100.0
        line_ok = abs(computed - pct) <= 0.05 + 1e-12
        ok = ok and line_ok
        rows.append(f"| `{value!r}` | {pct:.1f} | {percent_string(dist.mass(value))} "
                    f"| {abs(computed - pct):.4f} | {'yes' if line_ok else 'NO'} |")
    if table.complete:
        golden_values = {canonical_value(v) for v, _ in table.lines}
        for value, mass in dist.items():
            if value not in golden_values and mass * 100.0 >= 0.05:
                ok = False
                rows.append(f"| `{value!r}` | (absent) | {percent_string(mass)} | - | NO |")
    return rows, ok


def _section(title: str, tables: list[reference.GoldenTable]) -> tuple[list[str], bool]:
    lines = [f"## {title}", ""]
    ok = True
    for table in tables:
        rows, table_ok = _golden_rows(table)
        ok = ok and table_ok
        lines.append(f"### {table.key} (p={table.p}, q={table.q})")
        lines.append("")
        lines.append("| value | reference % | computed % | delta | ok |")
        lines.append("|---|---|---|---|---|")
        lines.extend(rows)
        lines.append("")
    return lines, ok


def _fixpoint_section() -> tuple[list[str], bool]:
    m = _matrix_of("ftwice_fixpoint", 0.1, 0.0, 4, 8)
    ok = True
    for i, row in enumerate(reference.FIXPOINT_ROWS):
        for j, printed in enumerate(row):
            decimals = len(printed.split(".")[1]) if "." in printed else 0
            if abs(round(float(m.data[i, j]), max(decimals, 1)) - float(printed)) > 1e-12:
                ok = False
    for j in range(5):
        for i in range(9):
            analytic = (math.comb(j, i // 2) * 0.9 ** (i // 2) * 0.1 ** (j - i // 2)
                        if i % 2 == 0 and i // 2 <= j else 0.0)
            if abs(m.data[i, j] - analytic) > 1e-12:
                ok = False
    lines = ["## Doubling loop: 9x5 matrix fixpoint (p=0.1, inputs 0..4, outputs 0..8)", "",
             "```", m.to_csv().rstrip("\n"), "```", "",
             f"Every printed entry matches at its printed precision and the closed binomial "
             f"form within 1e-12: {'yes' if ok else 'NO'}", ""]
    return lines, ok


def _counterexample_section() -> tuple[list[str], bool]:
    k = reference.counterexample_matrix()
    recon = _reconstruction(k)
    dev = max_dev(recon, k)
    col0 = recon.data[:, 0]
    col_ok = bool(np.max(np.abs(col0 - np.array(reference.RECONSTRUCTION_COL0))) <= 1e-12)
    dev_ok = dev >= 0.2
    f2 = Dist(reference.F_AT_2)
    g2 = Dist(reference.G_AT_2)
    paired = pair(f2, g2)
    pair_ok = all(abs(paired.mass(v) * 100.0 - pct) <= 0.05 + 1e-12 for v, pct in reference.PAIR_AT_2)
    ok = col_ok and dev_ok and pair_ok
    lines = ["## Pair-valued matrix not recoverable from its projections", "",
             "Reconstruction of k through its projections:", "",
             "```", recon.to_csv().rstrip("\n"), "```", "",
             f"- max entry deviation from k: {dev:.4f} (expected >= 0.2): {'yes' if dev_ok else 'NO'}",
             f"- first reconstructed column matches the known values within 1e-12: {'yes' if col_ok else 'NO'}",
             f"- pairing of the two projection factors at input 2 matches: {'yes' if pair_ok else 'NO'}", ""]
    return lines, ok


def _divergence_section() -> tuple[list[str], bool]:
    tv = tv_distance(
        run_case("msq'", CaseParams(p=0.1, q=0.1, input=3)),
        run_case("msql'", CaseParams(p=0.1, q=0.1, input=3)),
    )
    ok = tv >= 0.05
    lines = ["## Expected inequality: disturbed square, recursive vs linear", "",
             "With the second fault injected into the odd-number counter, neither projection "
             "stays sharp, so the two versions legitimately differ.", "",
             f"- TV(msq' 3, msql' 3) = {tv:.4f} (expected >= 0.05): {'yes' if ok else 'NO'}", ""]
    return lines, ok


def _risk_section() -> tuple[list[str], bool]:
    fib = [0, 1, 1, 2, 3, 5, 8]
    g = _matrix_of("mfib", 0.1, 0.0, 6, 8)
    h = _matrix_of("mfibl", 0.1, 0.0, 6, 8)
    f = from_sharp_fn(lambda n: fib[n], g.col_dim, g.row_dim)
    rep = risk_preorder(g, h, f)
    ok = rep.dominates
    lines = ["## Risk preorder: the linear version dominates the recursive one", "",
             "| input | recursive mass at correct value | linear mass at correct value |",
             "|---|---|---|"]
    lines += [f"| {col.input} | {col.g_mass:.6f} | {col.h_mass:.6f} |" for col in rep.columns]
    return lines + [""], ok


def build_report(cfg: TrialConfig) -> tuple[str, bool]:
    """Assemble the reproduction report; returns (markdown, all_ok)."""
    tables = {t.key: t for t in reference.GOLDEN_TABLES}
    groups = [
        ("Faulty Fibonacci: recursive vs linear",
         ["mfib n=4", "mfib n=5", "mfibl n=5", "mfib n=6", "mfibl n=6"]),
        ("Faulty square: recursive vs linear",
         ["msq n=0", "msq n=1", "msq n=2", "msq n=3", "msq n=6",
          "msql n=0", "msql n=1", "msql n=2", "msql n=3", "msql n=6"]),
        ("Faulty doubling loop", ["ftwice n=4"]),
        ("Loop projections: sharp counter, probabilistic accumulator",
         ["msqlo n=5", "msql n=5", "msq' n=3", "msql' n=3"]),
        ("Lossy copy, faulty count, and their pipeline",
         ["fcat abc", "fcount abc", "pipeline abc", "pipeline abc (consolidated)"]),
        ("Faulty sum and count, paired vs single fold",
         ["favg [2,3]", "favg [2,3] (single fold)"]),
    ]
    sections = [_section(title, [tables[k] for k in keys]) for title, keys in groups]
    sections += [_fixpoint_section(), _counterexample_section(), _divergence_section(), _risk_section()]
    lines = ["# Reproduction report", "",
             f"Configuration: seed={cfg.seed}, trials={cfg.trials}, max_dim={cfg.max_dim}, "
             f"tol={cfg.tol}, table tolerance 0.05 percentage points per line.", ""]
    for sec, sec_ok in sections:
        lines += sec + [f"**Section {'PASS' if sec_ok else 'FAIL'}**", ""]
    reports = check_all(cfg)
    law_ok = all(rep.status != "fail" for rep in reports)
    ok = law_ok and all(sec_ok for _, sec_ok in sections)
    lines += ["## Law suite", "", "```", *(rep.line() for rep in reports), "```", "",
              f"**Law suite {'PASS' if law_ok else 'FAIL'}**", "",
              f"**Overall: {'PASS' if ok else 'FAIL'}**", ""]
    return "\n".join(lines), ok


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("p", "q"):
            if flag in args:
                _check_prob(getattr(args, flag), f"--{flag}")
        if "seed" in args:
            args.cfg = TrialConfig(seed=args.seed, trials=args.trials, max_dim=args.max_dim, tol=args.tol)
    except DomainError as exc:
        parser.error(str(exc))
    try:
        return args.run(parser, args)
    except (DomainError, DistributionError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
