"""Case-registry tests: golden distributions, degenerate rates, carriers."""

import hashlib
import itertools
import math

import pytest

from probfold.cases import (
    ALIASES,
    REGISTRY,
    CaseParams,
    UnknownCaseError,
    fadd,
    fadd_combined,
    fadd_zero,
    favg_pair,
    favg_split,
    fsum,
    ftwice,
    mfib,
    mfibl,
    msq,
    msq_prime,
    msql,
    msql_prime,
    run_case,
)
from probfold.dims import BOOLS
from probfold.dist import DomainError, choice, dirac, tv_distance
from probfold.matrix import identity, mat_choice
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


def test_faulty_additions_reject_an_addend_that_is_not_a_real_number():
    # the rule the summing cases apply to their elements, checked when the step is built
    constructors = [lambda x: fadd(0.1, x), lambda x: fadd_zero(0.1, x), lambda x: fadd_combined(0.1, 0.2, x)]
    for make in constructors:
        for x in ("a", None, True, math.nan, math.inf):
            with pytest.raises(DomainError, match=f"^addend x={x!r} is not a real number$"):
                make(x)
        for x in (2, -3, 2.5):
            assert make(x)(1).mass(x + 1) == pytest.approx(0.9, abs=1e-15)


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


def test_rates_that_are_not_real_numbers_are_rejected():
    # one rule for every rate: the cases, the faulty steps and both choice operators
    for rate in ("0.1", True, None):
        cause = f"p={rate!r} is not a real number"
        with pytest.raises(DomainError, match=cause):
            run_case("fsum", CaseParams(p=rate, input=(1, 2)))
        for fn, args in [(mfib, (3,)), (ftwice, (3,)), (fsum, ((1, 2),)), (fadd, (2,)),
                         (choice, (dirac(0), dirac(1))), (mat_choice, (identity(BOOLS), identity(BOOLS)))]:
            with pytest.raises(DomainError, match=cause):
                fn(rate, *args)
        with pytest.raises(DomainError, match=f"q={rate!r} is not a real number"):
            run_case("fcount", CaseParams(q=rate, input="ab"))
    # a float rate out of range keeps its message
    with pytest.raises(DomainError, match=r"^p=1\.5 outside \[0, 1\]$"):
        run_case("fsum", CaseParams(p=1.5, input=(1, 2)))


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


# --- full-precision outputs ----------------------------------------------------

# Every registered case and alias over a grid of rates and inputs, including
# inputs where two branches of a fault step give the same value (a 0 element
# to sum, n=1 for the squares), hashed from the full-precision items(). The
# digests were recorded from the per-value implementation, where every fault
# step built a Dist for each support value; any drift in a last digit fails.
_GOLDEN_RATES = (0.0, 0.1, 0.19153, 1.0)
_GOLDEN_NATS = (0, 1, 2, 9)
_GOLDEN_SEQS = {
    "fcat": ("", "abcab", (1, 2, 2, 3)),
    "fcount": ("", "abcab", (1, 2, 2, 3)),
    "pipeline_count_cat": ("", "abcab"),
    "pipeline_consolidated": ("", "abcab"),
    "fsum": ((), (0, 0, 1, 0, -1, 2)),
    "favg_pair": ((), (0, 0, 1, 0, -1, 2)),
    "favg_split": ((), (0, 0, 1, 0, -1, 2)),
}
_GOLDEN_DIGESTS = {
    "favg_pair": "be1f4ada93fa57f0c31caf7b5cfef77e0909f9173f41be277423180b166481fb",
    "favg_split": "0e30e5c4bdee99e5868aae79527e38eef0f42e520cf06ed90ebbb923bcf94d22",
    "fcat": "ca5da2340aa7b800bb4c304126d73cfea6191cbef878913a5723428d4fa42d4a",
    "fcount": "ae8a18c7e53739f8ffb4cedb8edb80dd156e47e2c2881377aaca431b5ddc6f93",
    "fsum": "78cc8156f4845363e8eacda15009c2183400750890906afce5b4afa23b61c571",
    "ftwice": "4ef667b8d1faee565605e9af69b0eee22a402fd707cb056c54f5a4491c2ca028",
    "mfib": "45fad9b72ae049ce45f06478307964ef110f586a8dd7586e9f143044d0b63bee",
    "mfibl": "38747a726588e2d842293c2415b3112964dec8ae122271a4c3b634992b715818",
    "msq": "b9f476320e6eae3dbf149e8df75fbfc84877da4b1872c605f3a751878a25ae7b",
    "msq'": "a90e8a1f46f0c643cd66987ac6e549f3eeb316e8ea00958cd9f041de5aefa7db",
    "msql": "b4d29b0fc192999008500099966763e4745d63ca61263be1f5ec8e1e86767e8f",
    "msql'": "90412508f7dd1cfc41d5977e864787519b47cb18597c60de01fc7294693d7b84",
    "msqlo": "618995d6a87b031dfe38fa21fbfc94dd084b085188d0cd1672f8b301fcc981f4",
    "pipeline_consolidated": "e032cf44d670b0a8416a2041f7cdee0775f990e4e52f57c48c2aa79b880df759",
    "pipeline_count_cat": "add76c0eaed971fc5ed0e5948f35235aac742997274cbc3ccd913932cfa44b9c",
    "msq_prime": "a90e8a1f46f0c643cd66987ac6e549f3eeb316e8ea00958cd9f041de5aefa7db",
    "msql_prime": "90412508f7dd1cfc41d5977e864787519b47cb18597c60de01fc7294693d7b84",
}


@pytest.mark.parametrize("name", sorted(REGISTRY) + sorted(ALIASES))
def test_every_case_is_bit_identical_to_the_recorded_outputs(name):
    case = REGISTRY[ALIASES.get(name, name)]
    qs = _GOLDEN_RATES if case.uses_q else (0.0,)
    inputs = _GOLDEN_NATS if case.kind == "nat" else _GOLDEN_SEQS[ALIASES.get(name, name)]
    h = hashlib.sha256()
    for p, q, x in itertools.product(_GOLDEN_RATES, qs, inputs):
        h.update(repr(run_case(name, CaseParams(p=p, q=q, input=x)).items()).encode())
    assert h.hexdigest() == _GOLDEN_DIGESTS[name]
