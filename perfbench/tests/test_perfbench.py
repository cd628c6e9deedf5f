"""Self-tests of the benchmark's checker and tracer (small sizes, a few seconds)."""

import json
import os
import signal
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(REPO, "src"), BENCH]

import oracle as O  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from probfold import dist, schemes  # noqa: E402
from probfold.cases import ftwice, mfib  # noqa: E402


class Shifted:
    """A distribution's items with some mass moved from one value to another."""

    def __init__(self, d, src, dst, amount):
        masses = dict(d.items())
        masses[src] -= amount
        masses[dst] = masses.get(dst, 0.0) + amount
        self._items = tuple(masses.items())

    def items(self):
        return self._items


def test_reference_check_rejects_a_millionth_of_shifted_mass():
    p, n = 0.1, 10
    check = workloads._dist_check(lambda: O.binomial(n, 1.0 - p, 2))
    d = ftwice(p, n)
    assert check(d) == []
    problems = check(Shifted(d, 2 * n, 2 * n - 2, 1e-6))
    assert problems and "TV 1.000e-06" in problems[0]


def test_exact_recurrence_matches_the_golden_table():
    # mfib n=4 at p=0.1 is 3: 81.0%, 2: 18.0%, 1: 1.0% in the paper's table
    ref = O.mutual(*O.fib_kernels(O.rate(0.1)), 0, 1, 4)[4]
    assert {v: round(100 * m, 1) for v, m in ref.items()} == {3: 81.0, 2: 18.0, 1: 1.0}


def _op(run, expect):
    return workloads.Op("probe", {}, run, workloads._matrix_check(lambda: O.banded_columns(0.1, 4, 9)),
                        expect=expect)


def test_missing_truncation_error_is_a_failure():
    op = _op(lambda: workloads._banded(0.1, 4, 9), "TruncationError")
    outcome, _ = worker.run_op(op)
    status, reason, wrong = worker.judge(op, outcome)
    assert (status, wrong) == ("fail", False)
    assert reason.startswith("missing TruncationError")


def test_required_truncation_error_passes_and_other_errors_fail():
    escaping = workloads._banded
    op = _op(lambda: escaping(0.1, 4, 8), "TruncationError")
    assert worker.judge(op, worker.run_op(op)[0])[0] == "pass"
    op = _op(lambda: escaping(0.1, 4, 8), None)
    status, reason, _ = worker.judge(op, worker.run_op(op)[0])
    assert status == "fail" and reason.startswith("TruncationError")


def test_wrong_matrix_is_a_wrong_answer():
    op = _op(lambda: workloads._banded(0.2, 4, 9), None)
    status, _, wrong = worker.judge(op, worker.run_op(op)[0])
    assert (status, wrong) == ("fail", True)


def _traced_counts():
    ops = [workloads.Op("mfib", {}, lambda: mfib(0.1, 13), lambda d: []),
           workloads.Op("fix", {}, lambda: workloads._banded(0.1, 6, 13), lambda m: [])]
    t = tracer.Tracer(extra_modules=(workloads,))
    t.install()
    try:
        worker.run_pass(ops, {}, t)
    finally:
        t.uninstall()
    spans = t.arrays()
    counts = {k: v for k, v in tracer.aggregate(spans).items() if not k.endswith(".self_s")}
    mfib_dists = int(((spans["name"] == t.ids["dist.Dist"]) & (spans["op_id"] == 0)).sum())
    return counts, mfib_dists


def test_two_traced_runs_give_identical_counts():
    (first, mfib_dists), (second, _) = _traced_counts(), _traced_counts()
    assert first == second
    assert mfib_dists == 108_241 and first["schemes.mutual_eval.calls"] == 1
    assert first["schemes.matrix_cata_fixpoint.madd_calls"] > 0
    # the wrappers are gone again, under every name they replaced
    assert schemes.bind is dist.bind and not hasattr(dist.bind, "__wrapped__")
    assert not hasattr(dist.Dist.__init__, "__wrapped__")


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed(name):
    assert workloads.build(name, 5).params == workloads.build(name, 5).params
    assert workloads.build(name, 5).params != workloads.build(name, 6).params


def test_exploding_support_is_a_timeout_or_budget_failure(monkeypatch):
    monkeypatch.setattr(worker, "OP_LIMIT_S", 0.3)
    previous = signal.signal(signal.SIGALRM, worker._alarm)
    try:
        slow = workloads.Op("mfib_n24", {}, lambda: mfib(0.1, 24), lambda d: [])
        assert worker.judge(slow, worker.run_op(slow)[0]) == ("fail", "timeout", False)
    finally:
        signal.signal(signal.SIGALRM, previous)

    def exhaust():
        raise MemoryError

    big = workloads.Op("over_budget", {}, exhaust, lambda d: [])
    assert worker.judge(big, worker.run_op(big)[0]) == ("fail", "budget", False)
