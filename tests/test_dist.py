"""Distribution-core tests: examples, invariants (hypothesis), rendering."""

import math
import operator
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probfold.dims import Range
from probfold import dist as dist_module
from probfold.dist import (
    PROPER_TOL,
    PRUNE_EPS,
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
    _Choice,
    _Masses,
    _affine,
    _affine_choice,
    _check_total,
    _identity,
    _pair_value,
    _paired,
    _plus_one,
    _plus_two,
    _second,
    _sorted_support,
    _sum,
    _zero,
)
from probfold.cases import _faulty, fadd, mfib, mfibl, msq

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


@pytest.mark.parametrize("value", [None, object(), {1: 2}], ids=["none", "object", "dict"])
def test_a_value_that_cannot_be_a_support_value_is_a_domain_error(value):
    for make in (lambda v: Dist([(v, 1.0)]), dirac):
        with pytest.raises(DomainError) as err:
            make(value)
        assert repr(value) in str(err.value)


@pytest.mark.parametrize("support, first, second", [
    ([(True, 0.5), (1, 0.5)], "True", "1"),
    ([(0, 0.5), (False, 0.5)], "0", "False"),
    ([(1.0, 0.5), (True, 0.5)], "1.0", "True"),
    ([((True, 0), 0.5), ((1, 0), 0.5)], "(True, 0)", "(1, 0)"),
    # the monad's own merges: a Dist from a choice, or a marginal
    pytest.param(partial(choice, 0.5, dirac(True), dirac(1)), "True", "1", id="choice"),
    pytest.param(lambda: marginals(Dist({(True, 0): 0.5, (1, 1): 0.5}))[0], "True", "1", id="marginals"),
])
def test_a_bool_and_the_number_it_equals_are_not_merged(support, first, second):
    # they used to merge into the first one's key: Dist({True: 1.0})
    with pytest.raises(DomainError) as err:
        support() if callable(support) else Dist(support)
    assert str(err.value) == f"support values {first} and {second} are equal, but a bool is not a number"


@pytest.mark.parametrize("make", [
    pytest.param(lambda a, b: Dist([(a, 0.5), (b, 0.5)]), id="constructor"),
    pytest.param(lambda a, b: choice(0.5, dirac(a), dirac(b)), id="choice"),
    pytest.param(lambda a, b: marginals(Dist({(a, 0): 0.5, (b, 1): 0.5}))[0], id="marginals"),
])
def test_an_int_and_a_float_that_merge_are_keyed_by_the_int_in_either_order(make):
    # they used to be keyed by whichever came first: Dist({1.0: 1.0}) for 1.0 first
    for a, b in ((1.0, 1), (1, 1.0)):
        d = make(a, b)
        assert [type(v) for v in d.support] == [int]
        assert render_lines(d) == ["1\t100.0%"]
    for a, b in (((1.0, 2), (1, 2.0)), ((1, 2.0), (1.0, 2))):
        assert [tuple(map(type, v)) for v in Dist([(a, 0.5), (b, 0.5)]).support] == [(int, int)]


def test_equal_numbers_and_equal_bools_still_merge():
    assert Dist([(1, 0.5), (1.0, 0.5)]).items() == ((1, 1.0),)
    assert Dist([(True, 0.5), (True, 0.5)]).items() == ((True, 1.0),)
    assert Dist([(False, 0.5), (2, 0.5)]).support == (False, 2)


def test_mass_lookup_gives_the_scans_answers():
    from probfold.dims import _alike
    from probfold.dist import canonical_value

    nan = float("nan")
    dists = [Dist({nan: 0.25, 1: 0.25, 2.5: 0.25, (1, True): 0.25}), Dist({True: 0.5, 0: 0.5}),
             Dist({(1.0, 2): 0.5, "x": 0.5}), Dist({(nan,): 1.0}), Dist({i: 1 / 64 for i in range(64)})]
    probes = [nan, float("nan"), (nan,), (float("nan"),), 1, 1.0, True, False, 0, 0.0, 2.5, (1, True), [1, True],
              (1, 1), (True, True), (1.0, 2), (1, 2), [1.0, 2], (True, 2), "x", "y", 63, 63.0, 64, None, {}, ({},)]
    for d in dists:
        for probe in probes:
            value = canonical_value(probe)
            # the scan that one lookup replaces: == misses the nan held, found by identity
            scan = next((m for v, m in d.items() if v == value and _alike(v, value)), 0.0)
            assert d.mass(probe) == scan and (probe in d) == (scan > 0.0)
    assert dists[0].mass(nan) == 0.0 and dists[3].mass((nan,)) == 1.0


def test_mass_membership_equality_and_distance_tell_a_bool_from_a_number():
    # each read True as 1 through plain dict equality
    for held, other in ((1, True), (True, 1), (0.0, False), ((1, 0), (True, 0)), ((False,), (0,))):
        d = Dist({held: 0.25, "x": 0.75})
        assert (d.mass(held), d.mass(other)) == (0.25, 0.0)
        assert held in d and other not in d
        assert dirac(held) == dirac(held) and dirac(held) != dirac(other)
        assert tv_distance(dirac(held), dirac(other)) == 1.0
        assert tv_distance(d, Dist({other: 0.25, "x": 0.75})) == 0.25
    assert Dist({1: 1.0}).mass(1.0) == 1.0 and [1, 0] in dirac((1, 0)) and dirac(1) == dirac(1.0)
    assert tv_distance(Dist({True: 0.5, 0: 0.5}), Dist({False: 0.5, 1: 0.5})) == 1.0
    assert Dist({True: 0.5, 0: 0.5}) != Dist({False: 0.5, 1: 0.5})


def _through_form(form, state):
    """The value of the affine branch with data ``form`` at ``state`` (a tuple of ints)."""
    return sum(k * s for k, s in zip(form, state)) + form[-1]


_INT_STATES = [(y,) for y in (-7, -1, 0, 1, 2, 13)]
_PAIR_STATES = [(x, y) for x in (-3, 0, 1, 5) for y in (-2, 0, 1, 9)]


_BRANCHES = {
    "identity": (_identity, _INT_STATES), "zero": (_zero, _INT_STATES),
    "add -4": (partial(operator.add, -4), _INT_STATES), "add 3": (partial(operator.add, 3), _INT_STATES),
    "second": (_second, _PAIR_STATES), "sum": (_sum, _PAIR_STATES), "plus_one": (_plus_one, _PAIR_STATES),
    "plus_two": (_plus_two, _PAIR_STATES), "pair_value -1 2 3": (partial(_pair_value, -1, 2, 3), _PAIR_STATES),
    "pair_value 0 0 -5": (partial(_pair_value, 0, 0, -5), _PAIR_STATES),
}


@pytest.mark.parametrize("branch, states", list(_BRANCHES.values()), ids=list(_BRANCHES))
def test_the_form_table_gives_each_branch_its_values(branch, states):
    form = _affine(branch)
    assert len(form) == len(states[0]) + 1
    for state in states:
        assert _through_form(form, state) == branch(state[0] if len(state) == 1 else state)


def test_float_bool_and_opaque_branches_have_no_form():
    for branch in (partial(operator.add, 2.5), partial(operator.add, True), partial(operator.sub, 1),
                   partial(operator.add, 1, 2), lambda y: y, partial(_pair_value, 1, 0, 2.5),
                   partial(_pair_value, True, 0, 0), partial(_pair_value, 1, 0), operator.itemgetter(0)):
        assert _affine(branch) is None


def test_each_view_reads_only_choices_over_its_own_states():
    p = 0.1
    assert _affine_choice(fadd(p, 2), 2) is None
    assert _affine_choice(_faulty(p, _sum), 1) is None
    assert _affine_choice(fadd(p, 2), 1) == ([p, 1.0 - p], [(1, 0), (1, 2)])
    assert _affine_choice(_faulty(p, _sum), 2) == ([p, 1.0 - p], [(0, 1, 0), (1, 1, 0)])
    assert _affine_choice(lambda y: dirac(y), 1) is None


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
    # other mix (bools, nested or str/int tuples, mixed kinds) by support_key.
    # A bool and the number it equals, which support_key keeps apart, are refused
    clash = any(v == w and support_key(v) != support_key(w) for v in vs for w in vs)
    try:
        d = Dist([(v, 1.0 / len(vs)) for v in vs])
    except DomainError:
        assert clash
        return
    assert not clash
    assert list(d.support) == sorted(d.support, key=support_key)


# --- one and two values: the constructor's constant-time tail ---------------

def _general_tail(acc):
    """The constructor's tail for a support of any size: prune, check the total, sort."""
    acc = {v: m for v, m in acc.items() if m >= PRUNE_EPS}
    _check_total(acc.values())
    return tuple((v, acc[v]) for v in _sorted_support(acc))


def _edge_total(sign):
    """The float furthest from 1 on ``sign``'s side whose total still passes."""
    t = 1.0 + sign * PROPER_TOL
    while abs(t - 1.0) > PROPER_TOL:
        t = math.nextafter(t, 1.0)
    while abs(math.nextafter(t, sign * 2.0) - 1.0) <= PROPER_TOL:
        t = math.nextafter(t, sign * 2.0)
    return t


_HI, _LO = _edge_total(1), _edge_total(-1)
# totals that pass at exactly the tolerance, and one ulp past it on each side
_TOTALS = (1.0, _HI, _LO, math.nextafter(_HI, 2.0), math.nextafter(_LO, 0.0))


def _tail_values():
    numbers = st.integers(-3, 3) | st.floats() | st.sampled_from([math.nan, -0.0, 0.0])
    leaf = numbers | st.booleans() | st.text("ab", max_size=2)
    unorderable = st.builds(object) | st.builds(lambda x: (x, object()), numbers)
    return st.one_of(leaf, st.tuples(numbers, numbers),
                     st.recursive(leaf, lambda inner: st.tuples(inner, inner), max_leaves=4), unorderable)


@st.composite
def _tail_supports(draw):
    """One or two (value, mass) entries: masses of 0 and below PRUNE_EPS, and
    totals at and one ulp past 1 +- PROPER_TOL (0.5 + (t - 0.5) is t exactly)."""
    light = st.sampled_from([0.0, 1e-16, math.nextafter(PRUNE_EPS, 0.0), PRUNE_EPS])
    v = draw(_tail_values())
    if draw(st.booleans()):
        return [(v, draw(light | st.sampled_from(_TOTALS) | st.floats(0.0, 2.0)))]
    m = draw(light | st.just(0.5) | st.floats(0.0, 1.0))
    n = draw(st.sampled_from(_TOTALS).map(lambda t: max(0.0, t - m)) | light | st.floats(0.0, 1.0))
    return [(v, m), (draw(_tail_values()), n)]


def _outcome(make):
    try:
        return repr(make())
    except Exception as exc:
        return type(exc), str(exc)


_THING, _OTHER = object(), object()


@given(_tail_supports())
@example([(1, 0.5), ("a", 0.5)]).via("int/str")
@example([("a", 0.5), (1, 0.5)]).via("str/int")
@example([(2, 0.5), (False, 0.5)]).via("int/bool")
@example([(True, 0.25), (0, 0.75)]).via("bool/int")
@example([("b", 0.5), ((1,), 0.5)]).via("str/tuple")
@example([((1, (2.5, "a")), 0.5), ((1, (2, 3)), 0.5)]).via("nested tuples")
@example([(math.nan, 0.5), (1.0, 0.5)]).via("nan first")
@example([(1.0, 0.5), (math.nan, 0.5)]).via("nan second")
@example([(-0.0, 1.0)]).via("negative zero")
@example([(_THING, 1.0)]).via("unorderable")
@example([((1, _THING), 0.5), (_OTHER, 0.5)]).via("two unorderable")
@example([(_THING, 0.5)]).via("unorderable, total off")
@example([(0, 0.5), (1, _HI - 0.5)]).via("total at 1 + tol")
@example([(0, 0.5), (1, math.nextafter(_HI, 2.0) - 0.5)]).via("total one ulp past 1 + tol")
@example([(0, 0.5), (1, _LO - 0.5)]).via("total at 1 - tol")
@example([(0, 0.5), (1, math.nextafter(_LO, 0.0) - 0.5)]).via("total one ulp past 1 - tol")
@example([(0, 1.0), (1, 1e-16)]).via("one mass pruned")
@example([(0, 1.0), (1, 0.0)]).via("one mass zero")
def test_one_and_two_value_supports_match_the_general_tail(entries):
    # the same floats, support order, error type and text as the general tail
    # through both inputs: the checked list and the trusted accumulator
    acc = dict(entries)
    expected = _outcome(lambda: _general_tail(acc))
    assert _outcome(lambda: Dist(list(acc.items())).items()) == expected
    assert _outcome(lambda: Dist(_Masses(acc)).items()) == expected


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


def test_dist_map_undefined_at_a_support_value_names_it():
    with pytest.raises(DomainError, match="^continuation undefined at support value 2$"):
        dist_map(Dist({0: 0.5, 2: 0.5}), {0: "a"}.__getitem__)


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


# --- choice steps ---------------------------------------------------------------

def _plus2(v):
    return v + 2


def _same(v):
    return v


def _zero(_v):
    return 0


_STEPS = {
    "two branches": _Choice(((0.1, _same), (0.9, _plus2))),
    "two branches meeting at 0": _Choice(((0.1, _same), (0.9, _zero))),
    "a light branch": _Choice(((1e-16, _same), (1.0 - 1e-16, _plus2))),
    "three branches meeting at 0": _Choice(((0.3, _zero), (0.2, _same), (0.5, _plus2))),
    "one branch": _Choice(((1.0, _plus2),)),
    "a pair": _paired(_Choice(((0.1, _same), (0.9, _zero))), _Choice(((0.25, _same), (0.75, _plus2)))),
    "a pair with a light product": _paired(_Choice(((1e-8, _same), (1.0 - 1e-8, _plus2))),
                                           _Choice(((1e-8, _zero), (1.0 - 1e-8, _same)))),
}


def _per_value(step):
    """The continuation a step stands for, one checked Dist per value: the
    Dist of a choice's branches, or the pair of two steps' Dists."""
    if isinstance(step, _Choice):
        return lambda v: Dist([(f(v), w) for w, f in step])
    left, right = map(_per_value, step)
    return lambda v: pair(left(v), right(v))


@pytest.mark.parametrize("name", _STEPS)
def test_bind_expands_a_step_to_the_per_value_floats(name):
    step = _STEPS[name]
    d = Dist({0: 0.2, 1: 0.3, 2: 0.5})
    expected = bind(d, _per_value(step)).items()
    assert bind(d, step).items() == bind(d, ProbFn(step)).items() == expected
    assert all(step(v) == _per_value(step)(v) for v in d)


@pytest.mark.parametrize("weights", [(-0.1, 1.1), (math.nan, 1.0), (math.inf, 0.0), (0.5, 0.4),
                                     (0.5, 0.5 + 2e-9)])
def test_choice_weights_are_checked_when_it_is_built(weights):
    with pytest.raises(DistributionError):
        _Choice(zip(weights, (_same, _plus2)))


def test_choice_weights_are_read_once():
    reads = []

    class Weight(float):
        def __float__(self):
            reads.append(self)
            return float.__float__(self)

    step = _Choice(((Weight(0.25), _same), (Weight(0.75), _plus2)))
    bind(Dist({v: 0.1 for v in range(10)}), step)
    assert len(reads) == 2


@pytest.mark.parametrize("drift", [0.0, 0.99 * PROPER_TOL, -0.99 * PROPER_TOL])
def test_a_choice_after_a_function_keeps_its_checked_weights(drift, monkeypatch):
    step = _Choice(((0.3, _same), (0.2, _zero), (0.5 + drift, _plus2)))
    g = lambda v: 3 * v - 1
    totals, fsum = [], math.fsum
    monkeypatch.setattr(dist_module.math, "fsum", lambda xs: totals.append(xs) or fsum(xs))
    composed = step.after(g)
    assert totals == []  # the weights are not checked again
    assert type(composed) is _Choice
    assert [w for w, _ in composed] == [w for w, _ in step]
    assert all(a is b for (a, _), (b, _) in zip(composed, step))
    for v in range(-3, 4):
        assert composed.outcomes(v) == step.outcomes(g(v))


@pytest.mark.parametrize("shape", ["two branches", "one branch", "a pair"])
@pytest.mark.parametrize("error", [KeyError, IndexError])
def test_an_undefined_branch_reads_as_the_per_value_path(shape, error):
    def partial_fn(v):
        if v == 2:
            raise error(v)
        return v

    step = {"two branches": _Choice(((0.5, partial_fn), (0.5, _same))),
            "one branch": _Choice(((1.0, partial_fn),)),
            "a pair": _paired(_STEPS["one branch"], _Choice(((0.5, _same), (0.5, partial_fn))))}[shape]
    d = Dist({0: 0.5, 2: 0.5})
    with pytest.raises(DomainError) as expanded:
        bind(d, step)
    with pytest.raises(DomainError) as per_value:
        bind(d, _per_value(step))
    assert str(expanded.value) == str(per_value.value) == "continuation undefined at support value 2"


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


# --- the certified total check of an array of masses -----------------------

def _edge_targets():
    """Totals a few ulps from 1 +- PROPER_TOL, or on one of those floats."""
    return st.tuples(st.sampled_from([1.0 + PROPER_TOL, 1.0 - PROPER_TOL, _HI, _LO]), st.integers(-4, 4)).map(
        lambda ts: _steps(*ts))


def _steps(total, steps):
    for _ in range(abs(steps)):
        total = math.nextafter(total, math.copysign(2.0, steps))
    return total


@st.composite
def _spread_masses(draw):
    """1 to 10**5 masses spread over many magnitudes, some zero, scaled so that their fsum total is ``target``."""
    n = draw(st.sampled_from([1, 2, 3, 10**5]) | st.integers(1, 10**5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masses = rng.random(n) ** draw(st.integers(1, 8)) * (rng.random(n) > draw(st.sampled_from([0.0, 0.1, 0.5])))
    masses[rng.integers(n)] += 1.0  # at least one mass that takes the nudge below
    target = draw(_edge_targets())
    masses *= target / math.fsum(masses.tolist())
    big = int(np.argmax(masses))
    for _ in range(3):  # nudge the largest mass until fsum lands on the target
        masses[big] += target - math.fsum(masses.tolist())
    return masses


def _np_sum_rounds_away(total: float, pairs: int) -> np.ndarray:
    """[b, 0 x 7, u, 0 x 7, u, ...] with u half an ulp of b, b's last bit 0 and
    fsum total b + k*u ``total``, for k = 2 * ``pairs`` or 2 fewer: numpy's
    pairwise sum adds every u into b's accumulator, where b + u rounds back
    to b, so its sum is k/2 ulps below the exact total."""
    k, u = 2 * pairs, math.ulp(total) / 2
    if (total - k * u) / math.ulp(total) % 2:
        k -= 2 if k > 2 else -2
    masses = np.zeros(8 * (k + 1))
    masses[0], masses[8::8] = total - k * u, u
    return masses


def _total_outcome(masses):
    try:
        _check_total(masses)
    except DistributionError as err:
        return str(err)
    return None


@given(_spread_masses() | st.builds(_np_sum_rounds_away, _edge_targets(), st.integers(1, 7)))
@example(_np_sum_rounds_away(math.nextafter(_HI, 2.0), 7)).via("np.sum within 1 + tol, fsum one ulp past it")
@example(_np_sum_rounds_away(math.nextafter(_LO, 0.0), 7)).via("np.sum within 1 - tol, fsum one ulp past it")
def test_the_array_check_raises_exactly_when_fsum_would(masses):
    assert (masses >= 0.0).all()
    assert _total_outcome(masses) == _total_outcome(masses.tolist())


def _fsum_calls(monkeypatch):
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
    return calls


def test_an_array_well_within_the_tolerance_passes_without_fsum(monkeypatch):
    calls = _fsum_calls(monkeypatch)
    _check_total(np.full(1000, 1e-3))
    assert calls == []


def test_an_array_the_bound_cannot_decide_goes_to_fsum(monkeypatch):
    # the largest total fsum passes: np.sum's error bound reaches past PROPER_TOL
    calls = _fsum_calls(monkeypatch)
    _check_total(np.array([_HI - 0.5, 0.5]))
    assert calls == [1]
    with pytest.raises(DistributionError) as err:
        _check_total(np.array([math.nextafter(_HI, 2.0) - 0.5, 0.5]))
    assert calls == [1, 1]
    assert str(err.value) == f"total mass {math.nextafter(_HI, 2.0)!r} is not 1 (within {PROPER_TOL})"
