"""Distribution-core tests: examples, invariants (hypothesis), rendering."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probfold.dims import Range
from probfold.dist import (
    Dist,
    DistributionError,
    DomainError,
    ProbFn,
    bind,
    choice,
    dirac,
    dist_map,
    kleisli,
    marginals,
    normalize,
    pair,
    percent_string,
    render_lines,
    support_key,
    tv_distance,
)
from probfold.cases import fadd, mfib, mfibl, msq

settings.register_profile("deterministic", derandomize=True, max_examples=100, deadline=None)
settings.load_profile("deterministic")


def values():
    return st.integers(min_value=-4, max_value=4)


@st.composite
def dists(draw, vals=None):
    vals = vals or values()
    entries = draw(st.dictionaries(vals, st.floats(0.01, 1.0), min_size=1, max_size=5))
    return normalize(entries)


# --- construction and basic ops ---------------------------------------------

def test_dirac_definition():
    assert dirac(0).items() == ((0, 1.0),)
    assert dirac(True).is_dirac()


def test_mfib_base_case_is_dirac():
    assert mfib(0.1, 0) == dirac(0)


def test_constructor_rejects_subdistributions():
    with pytest.raises(DistributionError):
        Dist({0: 0.5})
    with pytest.raises(DistributionError):
        Dist({0: 0.7, 1: 0.7})
    with pytest.raises(DistributionError):
        Dist({0: -0.2, 1: 1.2})


def test_constructor_merges_duplicate_pairs():
    d = Dist([(1, 0.5), (1, 0.5)])
    assert d.mass(1) == 1.0


def test_tiny_masses_are_pruned():
    d = Dist({0: 1.0, 1: 1e-16})
    assert d.support == (0,)


def test_normalize_is_explicit_scaffolding_only():
    d = normalize({0: 2.0, 1: 6.0})
    assert d.mass(0) == 0.25
    with pytest.raises(DistributionError):
        normalize({0: 0.0})


def test_lists_are_canonicalized_to_tuples():
    d = dirac([1, 2])
    assert d.support == ((1, 2),)
    assert d.mass((1, 2)) == 1.0


def test_choice_definition_and_boundaries():
    d = choice(0.05, dirac(False), dirac(True))
    assert d.mass(True) == pytest.approx(0.95, abs=1e-15)
    assert d.mass(False) == pytest.approx(0.05, abs=1e-15)
    e, f = dirac(1), dirac(2)
    assert choice(0.0, e, f) == f
    assert choice(1.0, e, f) == e
    assert choice(0.5, dirac(7), dirac(7)) == dirac(7)
    with pytest.raises(DomainError):
        choice(1.5, e, f)


def test_bind_left_unit_and_fadd_example():
    k = fadd(0.1, 2)
    assert bind(dirac(3), k) == k(3)
    d = bind(dirac(3), fadd(0.1, 2))
    assert d.mass(5) == pytest.approx(0.9, abs=1e-15)
    assert d.mass(3) == pytest.approx(0.1, abs=1e-15)


def test_bind_rejects_partial_continuations():
    table = {0: dirac(1)}
    with pytest.raises(DomainError):
        bind(Dist({0: 0.5, 1: 0.5}), lambda v: table[v])


def test_pair_of_diracs():
    assert pair(dirac("a"), dirac(2)) == dirac(("a", 2))


def test_pair_example_at_input_two():
    # the two projection factors at input 2 and their independent pairing
    f2 = Dist({2: 0.7, 1: 0.3})
    g2 = Dist({1: 0.4, 2: 0.2, 3: 0.4})
    d = pair(f2, g2)
    expected = {(2, 1): 0.28, (2, 3): 0.28, (2, 2): 0.14,
                (1, 1): 0.12, (1, 3): 0.12, (1, 2): 0.06}
    assert set(d.support) == set(expected)
    for v, m in expected.items():
        assert d.mass(v) == pytest.approx(m, abs=1e-12)


@given(dists(), dists())
def test_pair_marginals_recover_factors(d, e):
    # oracle: sum the product table directly
    table = {(b, c): mb * mc for b, mb in d.items() for c, mc in e.items()}
    got_fst, got_snd = marginals(pair(d, e))
    for b, _ in d.items():
        want = math.fsum(m for (bb, _), m in table.items() if bb == b)
        assert got_fst.mass(b) == pytest.approx(want, abs=1e-12)
        assert got_fst.mass(b) == pytest.approx(d.mass(b), abs=1e-12)
    for c, _ in e.items():
        assert got_snd.mass(c) == pytest.approx(e.mass(c), abs=1e-12)
    assert math.fsum(m for _, m in pair(d, e).items()) == pytest.approx(1.0, abs=1e-12)


# --- monad laws and metric properties (spec invariants) ---------------------

@st.composite
def kleisli_tables(draw):
    keys = list(range(-4, 5))
    return {k: draw(dists()) for k in keys}


@given(values(), kleisli_tables())
def test_monad_left_identity(x, table):
    k = lambda v: table[v]
    assert tv_distance(bind(dirac(x), k), k(x)) <= 1e-12


@given(dists())
def test_monad_right_identity(d):
    assert tv_distance(bind(d, dirac), d) <= 1e-12


@given(dists(), kleisli_tables(), kleisli_tables())
def test_monad_associativity(d, t1, t2):
    k = lambda v: t1[v]
    h = lambda v: t2[v]
    lhs = bind(bind(d, k), h)
    rhs = bind(d, lambda v: bind(k(v), h))
    assert tv_distance(lhs, rhs) <= 1e-12


@given(st.floats(0.0, 1.0), dists(), dists())
def test_choice_total_mass(p, d, e):
    total = math.fsum(m for _, m in choice(p, d, e).items())
    assert total == pytest.approx(1.0, abs=1e-12)


@given(dists(), dists(), dists())
def test_tv_is_a_metric(d, e, f):
    assert tv_distance(d, d) == 0.0
    assert tv_distance(d, e) == pytest.approx(tv_distance(e, d), abs=1e-15)
    assert tv_distance(d, f) <= tv_distance(d, e) + tv_distance(e, f) + 1e-12
    if tv_distance(d, e) <= 1e-15:
        for v, m in d.items():
            assert e.mass(v) == pytest.approx(m, abs=1e-12)


def test_tv_trivial_cases():
    assert tv_distance(dirac(0), dirac(1)) == 1.0
    d = Dist({0: 0.25, 1: 0.75})
    assert tv_distance(d, d) == 0.0


# --- the monad's own results: checked once per entry ------------------------

def _numbers():
    return st.integers(-3, 3) | st.floats(-3.0, 3.0)


def _support_lists():
    leaf = st.booleans() | _numbers() | st.text("ab", max_size=2)
    return st.one_of(
        st.lists(_numbers(), min_size=1, max_size=8),
        st.lists(st.text("abc", max_size=3), min_size=1, max_size=8),
        st.lists(st.just(()) | st.tuples(_numbers()) | st.tuples(_numbers(), _numbers()),
                 min_size=1, max_size=8),
        st.lists(leaf, min_size=1, max_size=8),
        st.lists(st.tuples(st.integers(0, 2), st.text("ab", max_size=1)), min_size=1, max_size=8),
        st.lists(st.recursive(leaf, lambda inner: st.tuples(inner, inner), max_leaves=4),
                 min_size=1, max_size=8),
    )


@given(_support_lists())
def test_support_is_in_support_key_order(vs):
    # all-number, all-string and number-tuple supports sort natively; every
    # other mix (bools, nested or str/int tuples, mixed kinds) by support_key
    d = Dist([(v, 1.0 / len(vs)) for v in vs])
    assert list(d.support) == sorted(d.support, key=support_key)


def _bits(d):
    return [(repr(v), m.hex()) for v, m in d.items()]


def _checked(pairs):
    """The same pairs accumulated in a plain dict, through every entry check."""
    acc = {}
    for v, m in pairs:
        acc[v] = acc.get(v, 0.0) + m
    return Dist(list(acc.items()))


@given(dists(), dists(), kleisli_tables(), st.floats(0.0, 1.0))
def test_monad_operations_match_the_checked_constructor(d, e, table, p):
    k = lambda v: table[v]
    assert _bits(bind(d, k)) == _bits(
        _checked((w, m * mw) for v, m in d.items() for w, mw in k(v).items()))
    de = pair(d, e)
    assert _bits(de) == _bits(
        _checked(((b, c), mb * mc) for b, mb in d.items() for c, mc in e.items()))
    assert _bits(choice(p, d, e)) == _bits(_checked(
        [(v, p * m) for v, m in d.items()] + [(v, (1.0 - p) * m) for v, m in e.items()]))
    fst, snd = marginals(de)
    assert _bits(fst) == _bits(_checked((b, m) for (b, _), m in de.items()))
    assert _bits(snd) == _bits(_checked((c, m) for (_, c), m in de.items()))
    assert _bits(dist_map(d, lambda v: [v % 2, abs(v)])) == _bits(
        _checked(((v % 2, abs(v)), m) for v, m in d.items()))


def test_monad_results_still_get_the_total_mass_check():
    # the accumulated drift of msq at p=0.1 crosses PROPER_TOL at n=29
    with pytest.raises(DistributionError, match="total mass"):
        msq(0.1, 29)


# --- the fib divergence, against an independent brute-force oracle ----------

def _brute_mfib(p, n):
    """Path enumeration of the doubly recursive program, no Dist machinery."""
    def go(n):
        if n == 0:
            return [(0, 1.0)]
        if n == 1:
            return [(1, 1.0)]
        out = []
        for x, px in go(n - 2):
            for y, py in go(n - 1):
                out.append((y, px * py * p))
                out.append((x + y, px * py * (1.0 - p)))
        return out
    acc = {}
    for v, pr in go(n):
        acc[v] = acc.get(v, 0.0) + pr
    return acc


def _brute_mfibl(p, n):
    states = [((0, 1), 1.0)]
    for _ in range(n):
        nxt = []
        for (x, y), pr in states:
            nxt.append(((y, y), pr * p))
            nxt.append(((y, x + y), pr * (1.0 - p)))
        states = nxt
    acc = {}
    for (x, _y), pr in states:
        acc[x] = acc.get(x, 0.0) + pr
    return acc


def test_fib_tv_against_brute_force_oracle():
    d, e = mfib(0.1, 5), mfibl(0.1, 5)
    bd, be = _brute_mfib(0.1, 5), _brute_mfibl(0.1, 5)
    for v, m in bd.items():
        assert d.mass(v) == pytest.approx(m, abs=1e-12)
    for v, m in be.items():
        assert e.mass(v) == pytest.approx(m, abs=1e-12)
    oracle_tv = 0.5 * math.fsum(
        abs(bd.get(v, 0.0) - be.get(v, 0.0)) for v in set(bd) | set(be)
    )
    assert tv_distance(d, e) == pytest.approx(oracle_tv, abs=1e-12)
    # frozen from the oracle: half-L1 distance of the two n=5 distributions
    assert oracle_tv == pytest.approx(0.1377, abs=1e-3)


# --- ProbFn ------------------------------------------------------------------

def test_probfn_sharpness():
    sharp = ProbFn(lambda v: dirac(v + 1), in_dim=Range(4))
    assert sharp.is_sharp()
    fuzzy = fadd(0.1, 2)
    assert not fuzzy.is_sharp(inputs=range(4))
    assert fadd(0.0, 2).is_sharp(inputs=range(4))


def test_kleisli_order():
    f = lambda v: dirac(v * 10)
    g = lambda v: dirac(v + 1)
    assert kleisli(f, g)(0) == dirac(10)


# --- rendering ---------------------------------------------------------------

def test_percent_rounds_half_away_from_zero():
    assert percent_string(0.0005) == "0.1"
    assert percent_string(0.815) == "81.5"
    # 1/16 is exactly 6.25%: half away from zero gives 6.3, banker's would give 6.2
    assert percent_string(0.0625) == "6.3"
    assert percent_string(0.5625) == "56.3"
    assert percent_string(0.0) == "0.0"
    assert percent_string(1.0) == "100.0"


def test_render_sorts_by_mass_then_value():
    d = Dist({3: 0.25, 1: 0.25, 2: 0.5})
    assert render_lines(d) == ["2\t50.0%", "1\t25.0%", "3\t25.0%"]


def test_render_quotes_strings():
    d = Dist({"": 0.5, "ab": 0.5})
    assert render_lines(d) == ['""\t50.0%', '"ab"\t50.0%']
