"""probfold benchmark: run one workload and print its metrics.

Run from the root of a probfold checkout:

    python3 perfbench/run.py --workload cases --seed 1 --seconds 30 --trace 0

Workloads are ``cases``, ``laws`` and ``fixpoint`` (see README.md). The
workload runs in a child process (worker.py) under an address-space limit
and a wall timeout, so an exploding support ends as a counted ``budget`` or
``timeout`` failure instead of exhausting the machine's memory. Set-up time
is the median of several fresh child processes that only import and
generate inputs. Pass times are rescaled to a reference machine speed
measured by fixed kernels (speed.py); raw wall times stay in the record.
The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
full record (environment, every pass, every operation) goes to
``perfbench/results/``.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("cases", "laws", "fixpoint")
SETUP_PROBES = 3
ADDRESS_SPACE_BYTES = 1 << 30
RUN_LIMIT_S = 170.0


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))


def run_worker(argv: list[str], timeout: float) -> str | None:
    """Run worker.py under the limits; returns its standard output, or None
    after reporting why it failed."""
    proc = subprocess.Popen([sys.executable, WORKER, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, preexec_fn=_limit_address_space)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: worker exceeded its {timeout:.0f} s wall limit", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}\n{err[-2000:]}", file=sys.stderr)
        return None
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    started = time.perf_counter()
    if not os.path.isfile(os.path.join("src", "probfold", "__init__.py")):
        print("error: run from the root of a probfold checkout (src/probfold not found)", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        probe = run_worker([*common, "--setup-probe"], RUN_LIMIT_S)
        if probe is None:
            return 1
        setups.append(json.loads(probe)["setup_s"])

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    remaining = RUN_LIMIT_S - (time.perf_counter() - started)
    if run_worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out],
                  remaining) is None:
        return 1
    with open(out) as fh:
        rec = json.load(fh)
    rec["setup_probes_s"] = setups
    with open(out, "w") as fh:
        json.dump(rec, fh, indent=1)

    for row in rec["ops"]:
        line = f"{args.workload}.{row['name']}: {row['status']} {row['median_s']:.4f} s {row['size']}"
        print(line + (f" -- {row['reason']}" if row["reason"] else ""))
    ps = rec["pass_s"]
    print(f"pass_s median {ps['median']:.4f} s at reference speed, quartiles "
          f"{[round(x, 4) for x in ps['quartiles']]}, {ps['samples']} passes; raw wall median "
          f"{rec['pass_wall_s']['median']:.4f} s; warm-up pass {rec['warmup_s']:.4f} s")
    print(f"fail_ratio {rec['failed']}/{rec['attempted']}; environment {json.dumps(rec['env'])}")

    if args.trace:
        metrics = rec["per_layer"]["metrics"]
        print(f"traced passes {rec['per_layer']['traced_passes']}, "
              f"counts repeat across them: {rec['per_layer']['counts_repeat']}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": ps["median"], "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
            "ok_ratio": {"value": (rec["attempted"] - rec["failed"]) / rec["attempted"], "unit": "ratio"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
