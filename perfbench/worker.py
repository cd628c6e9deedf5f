"""Run one workload in this process and write what it measured as JSON.

run.py starts this file in a child process, under an address-space limit and
a wall timeout, once per set-up probe and once for the measured run:

    python3 perfbench/worker.py --workload cases --seed 1 --seconds 30 \\
        --trace 0 --out perfbench/results/cases.json
    python3 perfbench/worker.py --workload cases --seed 1 --setup-probe

The measured run makes one untimed warm-up pass, then timed passes over the
workload's operations until ``--seconds`` have gone by. With ``--trace 1``
it alternates untraced and traced passes and also reports per-layer figures.
Every operation's last result is then checked against its reference.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OP_LIMIT_S = 20.0  # wall budget of one operation; an operation over it is a "timeout" failure
CAL_CALLS = 2  # speed-kernel calls after each operation


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout


def run_op(op):
    """Run one operation under the wall budget; returns (outcome, seconds).

    An outcome is ("ok", result), ("raised", class, message), ("budget",)
    when the address-space limit was hit, or ("timeout",)."""
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    t0 = time.perf_counter()
    try:
        outcome = ("ok", op.run())
    except OpTimeout:
        outcome = ("timeout",)
    except MemoryError:
        outcome = ("budget",)
    except Exception as exc:  # any library error is a counted failure of this operation
        outcome = ("raised", type(exc).__name__, str(exc)[:200])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return outcome, time.perf_counter() - t0


def run_pass(ops, skipped, tracer=None, kernel="python"):
    """One pass over the operations; returns (op seconds, outcomes, seconds of
    the speed kernel run after each operation, 0 when traced).

    An operation that blew its budget in the warm-up is not run again; it is
    charged its full wall budget."""
    times, outcomes, cal = [], [], 0.0
    for i, op in enumerate(ops):
        if i in skipped:
            outcome, dt = skipped[i], OP_LIMIT_S
        elif tracer is None:
            outcome, dt = run_op(op)
        else:
            span = tracer.begin_op(i)
            outcome, dt = run_op(op)
            tracer.end_op(span)
        times.append(dt)
        outcomes.append(outcome)
        if tracer is None:
            cal += speed.sample(kernel, CAL_CALLS)
    return times, outcomes, cal


def _kind(outcome) -> str:
    return outcome[1] if outcome[0] == "raised" else outcome[0]


def judge(op, outcome):
    """(status, reason, wrong) for one operation's outcome.

    ``wrong`` marks a returned result that disagrees with its reference; every
    other failure is an error, a missing error, or an exhausted budget."""
    kind = outcome[0]
    if kind in ("budget", "timeout"):
        return "fail", kind, False
    if kind == "raised":
        if outcome[1] == op.expect:
            return "pass", f"raised {outcome[1]} as required", False
        return "fail", f"{outcome[1]}: {outcome[2]}", False
    try:
        problems = op.check(outcome[1])
    except Exception as exc:  # a result of the wrong shape is a wrong answer
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    if problems:
        return "fail", "; ".join(problems), True
    if op.expect:
        return "fail", f"missing {op.expect} (result agrees with the reference within tolerance)", False
    return "pass", "", False


def blas_info(np) -> dict:
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    info["threads"] = threads
    return info


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "probfold", "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def environment(np, args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "seed": args.seed,
        "platform": platform.platform(),
    }


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def per_layer_names() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    import tracer
    import workloads

    units = {}
    for span in tracer.SPAN_NAMES:
        if span != "op":
            units[f"{span}.calls"] = "count"
            units[f"{span}.self_s"] = "s"
    units.update({"dist.Dist.support_out": "count", "dist.max_support": "count",
                  "dist.bind.cont_calls": "count", "dist.pair.entries": "count",
                  "matrix.Matrix.bytes": "bytes", "matrix.compose.flops": "flop",
                  "schemes.matrix_cata_fixpoint.madd_calls": "count",
                  "schemes.matrix_cata_fixpoint.flops": "flop"})
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, 0).ops:
            units[f"{name}.{op.name}.s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args(argv)

    t_setup = time.perf_counter()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy as np
    import probfold
    import workloads

    wl = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - t_setup
    expected_src = os.path.realpath(os.path.join(ROOT, "src", "probfold"))
    if os.path.dirname(os.path.realpath(probfold.__file__)) != expected_src:
        print(f"probfold was imported from {probfold.__file__}, not from {expected_src}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    ops = wl.ops
    t0 = time.perf_counter()
    warm_times, warm_outcomes, _ = run_pass(ops, {}, kernel=wl.speed_kernel)
    warmup_s = time.perf_counter() - t0
    skipped = {i: o for i, o in enumerate(warm_outcomes) if o[0] in ("budget", "timeout")}
    del warm_outcomes

    # Passes run until the next one would end more than half a pass past
    # the deadline, so a run measures about --seconds whatever the pass length.
    # Only the last pass's results are kept, so memory does not grow with
    # the number of passes; earlier passes keep their outcome kinds.
    passes, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        times, last, cal = run_pass(ops, skipped, kernel=wl.speed_kernel)
        passes.append((times, [_kind(o) for o in last],
                       speed.rescaled(sum(times), wl.speed_kernel, cal, CAL_CALLS * len(ops))))
        if args.trace:
            traced.append(traced_pass(ops, skipped, workloads, args.out if not traced else None))
        now = time.perf_counter()
        if now + (now - t0) / 2 >= deadline:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the checks
    op_rows, wrong = [], False
    for i, op in enumerate(ops):
        status, reason, is_wrong = judge(op, last[i])
        kinds = sorted({kinds[i] for _, kinds, _ in passes})
        if len(kinds) > 1:
            status, reason = "fail", f"outcome changed between passes: {kinds}"
        wrong |= is_wrong
        op_rows.append({"name": op.name, "size": op.size, "status": status, "reason": reason,
                        "note": op.note, "warmup_s": warm_times[i],
                        "median_s": statistics.median(times[i] for times, _, _ in passes)})

    wall = [sum(times) for times, _, _ in passes]
    pass_s = [p for _, _, p in passes]
    failed = sum(row["status"] == "fail" for row in op_rows)
    result = {
        "workload": wl.name, "params": wl.params, "setup_s": setup_s, "warmup_s": warmup_s,
        "speed_kernel": wl.speed_kernel,
        "pass_s": {"median": statistics.median(pass_s), "quartiles": quartiles(pass_s),
                   "samples": len(pass_s), "values": pass_s},
        "pass_wall_s": {"median": statistics.median(wall), "quartiles": quartiles(wall), "values": wall},
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops), "failed": failed, "correct": not wrong,
        "ops": op_rows, "env": environment(np, args),
    }
    if args.trace:
        result["per_layer"] = per_layer(wl, op_rows, wall, traced)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


def traced_pass(ops, skipped, workloads, out):
    """One traced pass: returns (pass seconds, aggregated layer figures).
    With ``out`` set, the pass's spans are written next to it."""
    import tracer as tr

    t = tr.Tracer(extra_modules=(workloads,))
    t.install()
    try:
        times, _, _ = run_pass(ops, skipped, t)
    finally:
        t.uninstall()
    spans = t.arrays()
    if out:
        t.save(os.path.splitext(out)[0] + ".spans.npz")
    return sum(times), tr.aggregate(spans)


def per_layer(wl, op_rows, wall, traced) -> dict:
    units = per_layer_names()
    aggs = [agg for _, agg in traced]
    values = {name: 0.0 for name in units}
    for name, value in aggs[0].items():
        if name.endswith(".self_s"):
            values[name] = statistics.median(agg[name] for agg in aggs)
        else:
            values[name] = value
    for row in op_rows:
        values[f"{wl.name}.{row['name']}.s"] = row["median_s"]
    values["trace.overhead"] = statistics.median(t for t, _ in traced) / statistics.median(wall)
    counts_repeat = all({k: v for k, v in agg.items() if not k.endswith(".self_s")}
                        == {k: v for k, v in aggs[0].items() if not k.endswith(".self_s")} for agg in aggs)
    return {"metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
            "traced_passes": len(aggs), "counts_repeat": counts_repeat}


if __name__ == "__main__":
    sys.exit(main())
