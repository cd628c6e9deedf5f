"""Case-registry tests: golden distributions, degenerate rates, carriers."""

import math

import pytest

from probfold.cases import (
    CaseParams,
    UnknownCaseError,
    fadd,
    fadd_combined,
    fadd_zero,
    favg_pair,
    favg_split,
    fsum,
    mfib,
    mfibl,
    msq,
    msq_prime,
    msql,
    msql_prime,
    run_case,
)
from probfold.dist import DomainError, dirac, tv_distance
from probfold import reference


# --- the faulty-addition family ------------------------------------------------

def test_fadd_definition():
    d = fadd(0.1, 2)(3)
    assert d.mass(5) == pytest.approx(0.9, abs=1e-15)
    assert d.mass(3) == pytest.approx(0.1, abs=1e-15)


def test_fadd_boundaries_merge():
    assert fadd(0.0, 5)(1) == dirac(6)
    assert fadd(0.3, 0)(7) == dirac(7)


def test_fadd_zero_boundary():
    assert fadd_zero(1.0, 5)(9) == dirac(0)
    d = fadd_zero(0.25, 5)(9)
    assert d.mass(0) == pytest.approx(0.25, abs=1e-15)
    assert d.mass(14) == pytest.approx(0.75, abs=1e-15)


def test_fadd_combined_masses():
    p, q = 0.2, 0.3
    d = fadd_combined(p, q, 5)(9)
    assert d.mass(0) == pytest.approx(q * p, abs=1e-15)
    assert d.mass(9) == pytest.approx((1 - q) * p, abs=1e-15)
    assert d.mass(14) == pytest.approx(1 - p, abs=1e-15)


def test_fadd_combined_collapses_without_reset():
    p = 0.2
    a, b = fadd_combined(p, 0.0, 5)(9), fadd(p, 5)(9)
    assert tv_distance(a, b) <= 1e-15


# --- registry behaviour -----------------------------------------------------------

def test_unknown_case_is_rejected():
    with pytest.raises(UnknownCaseError):
        run_case("nope", CaseParams(input=1))


def test_carrier_violations_are_rejected():
    with pytest.raises(DomainError):
        run_case("mfib", CaseParams(p=0.1, input=-1))
    with pytest.raises(DomainError):
        run_case("mfib", CaseParams(p=0.1, input="abc"))
    with pytest.raises(DomainError):
        run_case("fcat", CaseParams(p=0.1, input=3))
    with pytest.raises(DomainError):
        run_case("mfib", CaseParams(p=1.5, input=3))


def test_bad_rates_are_rejected_at_every_input_size():
    # n=0 never runs a step, so the rates must be checked when the algebras are built
    for fn, args, cause in [(mfib, (1.5,), "p=1.5"), (mfibl, (1.5,), "p=1.5"),
                            (msq, (-0.2,), "p=-0.2"), (msql, (-0.2,), "p=-0.2"),
                            (msq_prime, (0.1, 7.0), "q=7.0"), (msql_prime, (0.1, 7.0), "q=7.0")]:
        for n in (0, 3):
            with pytest.raises(DomainError, match=cause):
                fn(*args, n)


def test_sums_reject_elements_that_are_not_real_numbers():
    for xs, bad in [("abc", "'a'"), ([1, "x"], "'x'"), ((2, True), "True"),
                    ([1.5, math.nan], "nan"), ([None], "None"),
                    ([10**400, 2.5], str(10**400))]:
        for fn, args in [(fsum, (0.1,)), (favg_pair, (0.1, 0.2)), (favg_split, (0.1, 0.2))]:
            with pytest.raises(DomainError, match=f"element {bad} of input"):
                fn(*args, xs)
    assert fsum(0.0, (1, 2.5, -4)) == dirac(-0.5)


def test_sums_that_leave_the_float_range_are_rejected():
    for xs in ([1e308, 1e308], (-1e308, 1e308, 1e308)):
        for fn, args in [(fsum, (0.0,)), (fsum, (0.1,)), (favg_pair, (0.1, 0.2)),
                         (favg_split, (0.0, 0.0)), (favg_split, (0.1, 0.2))]:
            with pytest.raises(DomainError, match="leaves the float range"):
                fn(*args, xs)
    # only the folded sums are checked: an int sum is exact on the way
    assert fsum(0.0, [10**308, 10**308, -10**308]) == dirac(10**308)
    assert fsum(0.0, [1e308, -1e308, 1e308]) == dirac(1e308)


def test_prime_aliases():
    a = run_case("msq_prime", CaseParams(p=0.1, q=0.1, input=3))
    b = run_case("msq'", CaseParams(p=0.1, q=0.1, input=3))
    assert a == b


# --- golden examples ----------------------------------------------------------------

def test_run_case_examples():
    d = run_case("mfib", CaseParams(p=0.1, input=4))
    assert d.mass(3) == pytest.approx(0.81, abs=1e-12)
    assert d.mass(2) == pytest.approx(0.18, abs=1e-12)
    assert d.mass(1) == pytest.approx(0.01, abs=1e-12)

    o = run_case("msqlo", CaseParams(p=0.1, input=5))
    assert o.is_dirac() and o.support == (11,)

    d = run_case("msql", CaseParams(p=0.1, input=5))
    expected = {25: 0.6561, 9: 0.1, 16: 0.09, 21: 0.081, 24: 0.0729}
    assert set(d.support) == set(expected)
    for v, m in expected.items():
        assert d.mass(v) == pytest.approx(m, abs=1e-12)


def test_every_golden_table_line():
    for table in reference.GOLDEN_TABLES:
        d = run_case(table.case, CaseParams(p=table.p, q=table.q, input=table.input))
        for value, pct in table.lines:
            assert d.mass(value) * 100.0 == pytest.approx(pct, abs=0.05), (table.key, value)


def test_degenerate_rates_give_classical_diracs():
    fib = [0, 1, 1, 2, 3, 5, 8, 13]
    for n in range(8):
        assert run_case("mfib", CaseParams(input=n)) == dirac(fib[n])
        assert run_case("mfibl", CaseParams(input=n)) == dirac(fib[n])
        assert run_case("msq", CaseParams(input=n)) == dirac(n * n)
        assert run_case("msql", CaseParams(input=n)) == dirac(n * n)
        assert run_case("msq'", CaseParams(input=n)) == dirac(n * n)
        assert run_case("msql'", CaseParams(input=n)) == dirac(n * n)
        assert run_case("ftwice", CaseParams(input=n)) == dirac(2 * n)
    assert run_case("fcat", CaseParams(input="hello")) == dirac("hello")
    assert run_case("fcount", CaseParams(input="hello")) == dirac(5)
    assert run_case("fsum", CaseParams(input=[2, 3, 4])) == dirac(9)
    assert run_case("favg_pair", CaseParams(input=[2, 3, 4])) == dirac((9, 3))
    assert run_case("favg_split", CaseParams(input=[2, 3, 4])) == dirac((9, 3))
    assert run_case("pipeline_count_cat", CaseParams(input="xyz")) == dirac(3)
    assert run_case("pipeline_consolidated", CaseParams(input="xyz")) == dirac(3)


def test_every_output_is_a_proper_distribution():
    # the Dist constructor enforces total mass 1; re-check explicitly anyway
    samples = [
        ("mfib", CaseParams(p=0.2, input=6)),
        ("mfibl", CaseParams(p=0.2, input=6)),
        ("msq'", CaseParams(p=0.2, q=0.4, input=5)),
        ("fcat", CaseParams(p=0.35, input="abcd")),
        ("favg_split", CaseParams(p=0.3, q=0.2, input=[1, 2, 3])),
    ]
    for name, params in samples:
        d = run_case(name, params)
        assert math.fsum(m for _, m in d.items()) == pytest.approx(1.0, abs=1e-9)


# --- independent oracle for the square family ----------------------------------------

def _brute_msq(p, n):
    """Weighted path enumeration, no Dist machinery."""
    out = {0: 1.0}
    for i in range(n):
        odd = 2 * i + 1
        nxt = {}
        for m, pr in out.items():
            nxt[odd] = nxt.get(odd, 0.0) + pr * p
            nxt[m + odd] = nxt.get(m + odd, 0.0) + pr * (1.0 - p)
        out = nxt
    return out


def test_msq_against_brute_force():
    for n in (0, 1, 2, 3, 6):
        d = run_case("msq", CaseParams(p=0.1, input=n))
        brute = _brute_msq(0.1, n)
        assert set(d.support) == set(brute)
        for v, m in brute.items():
            assert d.mass(v) == pytest.approx(m, abs=1e-12)


def test_msq_equals_msql_but_primed_versions_differ():
    for n in range(9):
        lhs = run_case("msq", CaseParams(p=0.1, input=n))
        rhs = run_case("msql", CaseParams(p=0.1, input=n))
        assert tv_distance(lhs, rhs) <= 1e-12
    a = run_case("msq'", CaseParams(p=0.1, q=0.1, input=3))
    b = run_case("msql'", CaseParams(p=0.1, q=0.1, input=3))
    assert tv_distance(a, b) >= 0.05
