"""Command-line front end: case tables, matrix dumps, the law suite, and the
consolidated reproduction report.

Exit codes: 0 all good, 1 any mismatch / carrier violation / law failure,
2 usage errors (argparse).
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from .cases import ALIASES, CaseParams, REGISTRY, fadd, run_case
from .dims import BOOLS, Range, UNIT
from .dist import (Dist, DomainError, DistributionError, canonical_value, dirac, percent_string,
                   render, tv_distance)
from .laws import CATALOGUE, TrialConfig, check_law, risk_preorder
from .matrix import (
    Matrix,
    TruncationError,
    csv_number,
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

    cases = sub.add_parser("cases", help="run a case study and print its distribution")
    cases.add_argument("name", choices=sorted(REGISTRY) + sorted(ALIASES))
    cases.add_argument("--p", type=float, default=0.0, help="primary fault rate")
    cases.add_argument("--q", type=float, default=0.0, help="secondary fault rate")
    cases.add_argument("--n", type=int, help="natural-number input")
    cases.add_argument("--input", dest="input_", metavar="INPUT",
                       help="string or comma-separated integers")

    matrix = sub.add_parser("matrix", help="print a case as a stochastic matrix")
    matrix.add_argument("name", choices=sorted(_MATRIX_NAMES))
    matrix.add_argument("--p", type=float, default=0.0)
    matrix.add_argument("--q", type=float, default=0.0)
    matrix.add_argument("--n", type=int, default=4, help="largest input (columns 0..n)")
    matrix.add_argument("--m", type=int, default=8, help="largest output (rows 0..m)")
    matrix.add_argument("--format", choices=("csv", "table"), default="csv")
    matrix.add_argument("--header", action="store_true", help="label rows and columns")

    laws = sub.add_parser("laws", help="run the randomized law suite")
    laws.add_argument("--law", choices=sorted(CATALOGUE), help="check one law only")
    laws.add_argument("--seed", type=int, default=1)
    laws.add_argument("--trials", type=int, default=1000)
    laws.add_argument("--max-dim", type=int, default=6)
    laws.add_argument("--tol", type=float, default=1e-9)
    laws.add_argument("--verbose", action="store_true", help="dump witnesses")

    report = sub.add_parser("report", help="write the consolidated reproduction report")
    report.add_argument("output", help="path of the markdown file to write")
    report.add_argument("--seed", type=int, default=1)
    report.add_argument("--trials", type=int, default=1000)
    report.add_argument("--max-dim", type=int, default=6)
    report.add_argument("--tol", type=float, default=1e-9)
    return parser


def _parse_input(text: str):
    if re.fullmatch(r"-?\d+(,-?\d+)*", text):
        return [int(x) for x in text.split(",")]
    return text


def _check_rate(parser, value: float, flag: str) -> None:
    if not 0.0 <= value <= 1.0:
        parser.error(f"{flag} must be in [0, 1], got {value}")


def cmd_cases(parser, args) -> int:
    _check_rate(parser, args.p, "--p")
    _check_rate(parser, args.q, "--q")
    name = ALIASES.get(args.name, args.name)
    kind = REGISTRY[name].kind
    if kind == "nat":
        if args.n is None:
            parser.error(f"case {name!r} needs --n")
        value = args.n
    else:
        if args.input_ is None:
            parser.error(f"case {name!r} needs --input")
        value = _parse_input(args.input_)
    try:
        dist = run_case(name, CaseParams(p=args.p, q=args.q, input=value))
    except (DomainError, DistributionError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render(dist))
    return 0


def _table_lines(m: Matrix, header: bool) -> list[str]:
    cells = [[csv_number(x) for x in row] for row in m.data]
    col_labels = [str(v) for v in m.col_dim.elements()]
    row_labels = [str(v) for v in m.row_dim.elements()]
    if header:
        rows = [[""] + col_labels] + [[lab] + row for lab, row in zip(row_labels, cells)]
    else:
        rows = cells
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return [" ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]


def cmd_matrix(parser, args) -> int:
    _check_rate(parser, args.p, "--p")
    _check_rate(parser, args.q, "--q")
    if args.n < 0 or args.m < 0:
        print("error: --n and --m must be naturals", file=sys.stderr)
        return 1
    try:
        if args.name == "fneg":
            const_false = from_sharp_fn(lambda _b: False, BOOLS, BOOLS)
            negation = from_sharp_fn(lambda b: not b, BOOLS, BOOLS)
            m = mat_choice(args.p, const_false, negation)
        elif args.name == "ftwice_fixpoint":
            states = Range(args.m + 1)
            body, escapes = from_probfn_truncated(fadd(args.p, 2), states, states)
            init = from_probfn(lambda _u: dirac(0), UNIT, states)
            m = matrix_cata_fixpoint(body, init, args.n, states, escapes=escapes)
        else:
            cols, rows = Range(args.n + 1), Range(args.m + 1)
            m = from_probfn(
                lambda j: run_case(args.name, CaseParams(p=args.p, q=args.q, input=j)),
                cols, rows,
            )
    except (DomainError, DistributionError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "csv":
        sys.stdout.write(m.to_csv(header=args.header))
    else:
        print("\n".join(_table_lines(m, args.header)))
    return 0


def cmd_laws(parser, args) -> int:
    try:
        cfg = TrialConfig(seed=args.seed, trials=args.trials, max_dim=args.max_dim, tol=args.tol)
    except DomainError as exc:
        parser.error(str(exc))
    names = [args.law] if args.law else list(CATALOGUE)
    failed = False
    for name in names:
        rep = check_law(name, cfg)
        print(rep.line())
        if args.verbose and rep.witness:
            print(rep.witness)
        failed = failed or rep.status == "fail"
    return 1 if failed else 0


def cmd_report(parser, args) -> int:
    try:
        cfg = TrialConfig(seed=args.seed, trials=args.trials, max_dim=args.max_dim, tol=args.tol)
    except DomainError as exc:
        parser.error(str(exc))
    text, ok = build_report(cfg)
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
    lines.append(f"**Section {'PASS' if ok else 'FAIL'}**")
    lines.append("")
    return lines, ok


def _fixpoint_section() -> tuple[list[str], bool]:
    states = Range(9)
    body, escapes = from_probfn_truncated(fadd(0.1, 2), states, states)
    init = from_probfn(lambda _u: dirac(0), UNIT, states)
    m = matrix_cata_fixpoint(body, init, 4, states, escapes=escapes)
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
             f"form within 1e-12: {'yes' if ok else 'NO'}", "",
             f"**Section {'PASS' if ok else 'FAIL'}**", ""]
    return lines, ok


def _counterexample_section() -> tuple[list[str], bool]:
    from .matrix import fst_matrix, khatri, snd_matrix

    k = reference.counterexample_matrix()
    b, c = Range(2), Range(3)
    recon = khatri(fst_matrix(b, c) @ k, snd_matrix(b, c) @ k)
    dev = max_dev(recon, k)
    col0 = recon.data[:, 0]
    col_ok = bool(np.max(np.abs(col0 - np.array(reference.RECONSTRUCTION_COL0))) <= 1e-12)
    dev_ok = dev >= 0.2
    f2 = Dist(reference.F_AT_2)
    g2 = Dist(reference.G_AT_2)
    from .dist import pair as dist_pair
    paired = dist_pair(f2, g2)
    pair_ok = all(abs(paired.mass(v) * 100.0 - pct) <= 0.05 + 1e-12 for v, pct in reference.PAIR_AT_2)
    ok = col_ok and dev_ok and pair_ok
    lines = ["## Pair-valued matrix not recoverable from its projections", "",
             "Reconstruction of k through its projections:", "",
             "```", recon.to_csv().rstrip("\n"), "```", "",
             f"- max entry deviation from k: {dev:.4f} (expected >= 0.2): {'yes' if dev_ok else 'NO'}",
             f"- first reconstructed column matches the known values within 1e-12: {'yes' if col_ok else 'NO'}",
             f"- pairing of the two projection factors at input 2 matches: {'yes' if pair_ok else 'NO'}",
             "", f"**Section {'PASS' if ok else 'FAIL'}**", ""]
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
             f"- TV(msq' 3, msql' 3) = {tv:.4f} (expected >= 0.05): {'yes' if ok else 'NO'}",
             "", f"**Section {'PASS' if ok else 'FAIL'}**", ""]
    return lines, ok


def _risk_section() -> tuple[list[str], bool]:
    fib = [0, 1, 1, 2, 3, 5, 8]
    inputs = Range(7)
    outputs = Range(9)
    g = from_probfn(lambda n: run_case("mfib", CaseParams(p=0.1, input=n)), inputs, outputs)
    h = from_probfn(lambda n: run_case("mfibl", CaseParams(p=0.1, input=n)), inputs, outputs)
    f = from_sharp_fn(lambda n: fib[n], inputs, outputs)
    rep = risk_preorder(g, h, f)
    ok = rep.dominates
    lines = ["## Risk preorder: the linear version dominates the recursive one", "",
             "| input | recursive mass at correct value | linear mass at correct value |",
             "|---|---|---|"]
    lines += [f"| {col.input} | {col.g_mass:.6f} | {col.h_mass:.6f} |" for col in rep.columns]
    lines += ["", f"**Section {'PASS' if ok else 'FAIL'}**", ""]
    return lines, ok


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
    ok = True
    lines = ["# Reproduction report", "",
             f"Configuration: seed={cfg.seed}, trials={cfg.trials}, max_dim={cfg.max_dim}, "
             f"tol={cfg.tol}, table tolerance 0.05 percentage points per line.", ""]
    for title, keys in groups:
        sec, sec_ok = _section(title, [tables[k] for k in keys])
        lines += sec
        ok = ok and sec_ok
    for builder in (_fixpoint_section, _counterexample_section, _divergence_section, _risk_section):
        sec, sec_ok = builder()
        lines += sec
        ok = ok and sec_ok

    lines += ["## Law suite", "", "```"]
    law_ok = True
    for name in CATALOGUE:
        rep = check_law(name, cfg)
        lines.append(rep.line())
        law_ok = law_ok and rep.status != "fail"
    lines += ["```", "", f"**Law suite {'PASS' if law_ok else 'FAIL'}**", ""]
    ok = ok and law_ok
    lines += [f"**Overall: {'PASS' if ok else 'FAIL'}**", ""]
    return "\n".join(lines), ok


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "cases":
        return cmd_cases(parser, args)
    if args.command == "matrix":
        return cmd_matrix(parser, args)
    if args.command == "laws":
        return cmd_laws(parser, args)
    return cmd_report(parser, args)


if __name__ == "__main__":
    sys.exit(main())
