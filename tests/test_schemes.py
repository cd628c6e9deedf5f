"""Recursion-scheme tests: loops, folds, the matrix fixpoint, transformations."""

import math

import numpy as np
import pytest

from probfold.cases import (
    fadd,
    fcat_algebra,
    fcount_algebra,
    consolidated_count_algebra,
    fib_algebras,
    sq_algebras,
)
from probfold.dims import Product, Range, UNIT
from probfold.dist import Dist, DomainError, bind, dirac, pair, tv_distance
from probfold.functors import CompF, ConstF, ForLoopF, IdF, ListF, SumF
from probfold.matrix import (
    TruncationError,
    from_probfn,
    from_probfn_truncated,
    from_sharp_fn,
    identity,
    junc,
    max_dev,
    to_probfn,
)
from probfold.laws import random_cs_matrix
from probfold.schemes import (
    Algebra,
    banana_split,
    base_choice_split,
    cata_eval,
    fold_fusion_check,
    fold_list,
    for_loop,
    matrix_cata_fixpoint,
    mutual_eval,
    tupled_from_mutual,
    unzip,
)

_FOR = ForLoopF()
_LIST = ListF()


# --- functor actions ----------------------------------------------------------

def test_functor_dim_and_matrix_actions_agree():
    rng = np.random.default_rng(3)
    functors = [
        IdF(),
        ConstF(Range(3)),
        _FOR,
        ListF(Range(2)),
        SumF(_FOR, IdF()),
        CompF(_FOR, ListF(Range(2))),
    ]
    m = random_cs_matrix(rng, Range(2), Range(3))
    for f in functors:
        fm = f.on_matrix(m)
        assert fm.col_dim == f.on_dim(m.col_dim)
        assert fm.row_dim == f.on_dim(m.row_dim)
        assert fm.is_column_stochastic()


def test_listf_without_alphabet_refuses_matrix_work():
    with pytest.raises(DomainError):
        ListF().on_dim(Range(2))


# --- loops and folds ----------------------------------------------------------

def test_for_loop_base_clause():
    init = Dist({3: 0.5, 4: 0.5})
    assert for_loop(fadd(0.1, 2), init, 0) == init


def test_ftwice_table():
    d = for_loop(fadd(0.1, 2), dirac(0), 4)
    expected = {8: 0.6561, 6: 0.2916, 4: 0.0486, 2: 0.0036, 0: 0.0001}
    assert set(d.support) == set(expected)
    for v, m in expected.items():
        assert d.mass(v) == pytest.approx(m, abs=1e-12)


def test_sharp_body_gives_dirac_doubling():
    for n in range(6):
        assert for_loop(fadd(0.0, 2), dirac(0), n) == dirac(2 * n)


def test_fold_list_identity_copy():
    alg = Algebra(_LIST, dirac(()), lambda av: dirac((av[0],) + av[1]))
    assert fold_list(alg.step, alg.base, (1, 2, 3)) == dirac((1, 2, 3))


def test_cata_eval_agrees_with_loop_and_fold():
    body = fadd(0.15, 3)
    alg = Algebra(_FOR, dirac(0), body)
    for n in range(5):
        assert cata_eval(_FOR, alg, n) == for_loop(body, dirac(0), n)
    lalg = fcat_algebra(0.1, "")
    for xs in ("", "a", "ab", "abc"):
        assert cata_eval(_LIST, lalg, xs) == fold_list(lalg.step, lalg.base, xs)


def test_cata_cancellation_identity():
    nat_alg = Algebra(_FOR, dirac(0), lambda s: dirac(s + 1))
    for n in range(6):
        assert cata_eval(_FOR, nat_alg, n) == dirac(n)
    list_alg = Algebra(_LIST, dirac(()), lambda av: dirac((av[0],) + av[1]))
    for xs in ((), (1,), (2, 1), (0, 1, 2), (1, 1, 1, 1), (3, 1, 4, 1, 5)):
        assert cata_eval(_LIST, list_alg, xs) == dirac(xs)


def test_cata_eval_rejects_bad_inputs():
    alg = Algebra(_FOR, dirac(0), lambda s: dirac(s))
    with pytest.raises(DomainError):
        cata_eval(_FOR, alg, -1)
    with pytest.raises(DomainError):
        cata_eval(_LIST, alg, "abc")


_NAT_ALG = Algebra(_FOR, dirac(0), lambda s: dirac(s))
_SEQ_ALG = Algebra(_LIST, dirac(0), lambda av: dirac(av[1]))
_FOLDS = {
    "nat": {
        "for_loop": lambda v: for_loop(_NAT_ALG.step, _NAT_ALG.base, v),
        "cata_eval": lambda v: cata_eval(_FOR, _NAT_ALG, v),
        "mutual_eval": lambda v: mutual_eval(_FOR, _NAT_ALG, _NAT_ALG, v),
    },
    "seq": {
        "fold_list": lambda v: fold_list(_SEQ_ALG.step, _SEQ_ALG.base, v),
        "cata_eval": lambda v: cata_eval(_LIST, _SEQ_ALG, v),
        "mutual_eval": lambda v: mutual_eval(_LIST, _SEQ_ALG, _SEQ_ALG, v),
    },
}
_BAD_INPUTS = {"nat": (-1, 2.5, True, "abc"), "seq": (5,)}


@pytest.mark.parametrize("kind, fold, value", [
    (kind, fold, value) for kind, folds in _FOLDS.items() for fold in folds for value in _BAD_INPUTS[kind]
])
def test_every_fold_rejects_inputs_outside_its_carrier(kind, fold, value):
    want = "natural number" if kind == "nat" else "sequence"
    with pytest.raises(DomainError, match=f"input {value!r} is not a {want}"):
        _FOLDS[kind][fold](value)


def test_functor_without_monadic_fold_is_rejected():
    alg = Algebra(IdF(), dirac(0), lambda s: dirac(s))
    with pytest.raises(DomainError, match="no monadic catamorphism"):
        cata_eval(IdF(), alg, 3)


# --- the matrix fixpoint -------------------------------------------------------

def _ftwice_pieces(p, m):
    states = Range(m + 1)
    body, escapes = from_probfn_truncated(fadd(p, 2), states, states)
    init = from_probfn(lambda _u: dirac(0), UNIT, states)
    return states, body, init, escapes


def test_fixpoint_reproduces_printed_matrix():
    states, body, init, escapes = _ftwice_pieces(0.1, 8)
    k = matrix_cata_fixpoint(body, init, 4, states, escapes=escapes)
    col4 = k.data[:, 4]
    want = np.array([0.0001, 0, 0.0036, 0, 0.0486, 0, 0.2916, 0, 0.6561])
    assert np.max(np.abs(col4 - want)) <= 1e-12
    assert k.is_column_stochastic()


def test_fixpoint_column_zero_is_init():
    rng = np.random.default_rng(5)
    states = Range(4)
    body = random_cs_matrix(rng, states, states)
    init = random_cs_matrix(rng, UNIT, states)
    k = matrix_cata_fixpoint(body, init, 3, states)
    assert np.array_equal(k.data[:, 0], init.data[:, 0])


def test_fixpoint_columns_match_monadic_loop():
    states, body, init, escapes = _ftwice_pieces(0.1, 8)
    k = matrix_cata_fixpoint(body, init, 4, states, escapes=escapes)
    loop_body = fadd(0.1, 2)
    for j in range(5):
        d = for_loop(loop_body, dirac(0), j)
        col = Dist(zip(states.elements(), k.data[:, j]))
        assert tv_distance(col, d) <= 1e-12


def _fixpoint_equation_dev(k, body, init, n_max):
    """max |k . in - [init | body . k_prev]| over the inputs 0..n_max."""
    inputs, prev = Range(n_max + 1), Range(n_max)
    in_mat = junc(from_sharp_fn(lambda _u: 0, UNIT, inputs),
                  from_sharp_fn(lambda j: j + 1, prev, inputs))
    k_prev = k @ from_sharp_fn(lambda j: j, prev, inputs)
    return max_dev(k @ in_mat, junc(init, body @ k_prev))


def test_fixpoint_satisfies_its_equation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        states = Range(int(rng.integers(1, 8)))
        body = random_cs_matrix(rng, states, states)
        init = random_cs_matrix(rng, UNIT, states)
        n_max = int(rng.integers(1, 12))
        k = matrix_cata_fixpoint(body, init, n_max, states)
        assert _fixpoint_equation_dev(k, body, init, n_max) <= 1e-12
    for p, n_max in ((0.1, 4), (0.3, 30), (0.0, 7)):
        states, body, init, escapes = _ftwice_pieces(p, 2 * n_max)
        k = matrix_cata_fixpoint(body, init, n_max, states, escapes=escapes)
        assert _fixpoint_equation_dev(k, body, init, n_max) <= 1e-12


def test_fixpoint_matches_binomial_columns_at_n400():
    p, n_max = 0.1, 400
    states, body, init, escapes = _ftwice_pieces(p, 2 * n_max)
    k = matrix_cata_fixpoint(body, init, n_max, states, escapes=escapes)
    want = np.zeros((2 * n_max + 1, n_max + 1))
    for j in range(n_max + 1):
        for i in range(j + 1):
            want[2 * i, j] = math.comb(j, i) * (1 - p) ** i * p ** (j - i)
    assert np.max(np.abs(k.data - want)) <= 1e-12


def test_fixpoint_detects_reachable_escape():
    # with inputs up to 5, the doubling loop needs value 10: outside 0..8
    states, body, init, escapes = _ftwice_pieces(0.1, 8)
    with pytest.raises(TruncationError) as err:
        matrix_cata_fixpoint(body, init, 5, states, escapes=escapes)
    assert "10" in str(err.value)


def test_fixpoint_detects_escape_below_any_threshold():
    # state 398, whose step escapes to 400, first carries mass 0.8**199 ~ 5e-20
    states, body, init, escapes = _ftwice_pieces(0.2, 399)
    with pytest.raises(TruncationError) as err:
        matrix_cata_fixpoint(body, init, 200, states, escapes=escapes)
    assert "at value 400" in str(err.value)


def test_fixpoint_rejects_negative_input_count():
    states, body, init, escapes = _ftwice_pieces(0.1, 8)
    with pytest.raises(DomainError) as err:
        matrix_cata_fixpoint(body, init, -1, states, escapes=escapes)
    assert "n_max" in str(err.value)


@pytest.mark.parametrize("n_max", [2.5, True, "4"])
def test_fixpoint_rejects_non_natural_input_count(n_max):
    states, body, init, escapes = _ftwice_pieces(0.1, 8)
    with pytest.raises(DomainError, match="n_max"):
        matrix_cata_fixpoint(body, init, n_max, states, escapes=escapes)


def test_fixpoint_sharp_body_gives_doubling_matrix():
    states, body, init, escapes = _ftwice_pieces(0.0, 6)
    k = matrix_cata_fixpoint(body, init, 3, states, escapes=escapes)
    for j in range(4):
        assert k.data[2 * j, j] == 1.0
    assert k.data.sum() == 4.0


# --- unzip ----------------------------------------------------------------------

def test_unzip_identity_functor():
    b, c = Range(2), Range(3)
    u = unzip(IdF(), b, c)
    assert max_dev(u, identity(Product(b, c))) == 0.0


def test_unzip_is_sharp_for_loop_and_list_shapes():
    for f in (_FOR, ListF(Range(2))):
        u = unzip(f, Range(2), Range(2))
        assert u.is_sharp()


# --- banana split ----------------------------------------------------------------

def test_banana_split_favg_table():
    from probfold.cases import fsum_algebra

    combined = banana_split(_LIST, fsum_algebra(0.15), fcount_algebra(0.1))
    d = cata_eval(_LIST, combined, (2, 3))
    expected = {(5, 2): 0.585225, (5, 1): 0.13005, (2, 2): 0.103275, (3, 2): 0.103275,
                (2, 1): 0.02295, (3, 1): 0.02295, (0, 2): 0.018225, (5, 0): 0.007225,
                (0, 1): 0.00405, (2, 0): 0.001275, (3, 0): 0.001275, (0, 0): 0.000225}
    assert set(d.support) == set(expected)
    for v, m in expected.items():
        assert d.mass(v) == pytest.approx(m, abs=1e-12)


def test_banana_split_sharp_case():
    from probfold.cases import fsum_algebra

    combined = banana_split(_LIST, fsum_algebra(0.0), fcount_algebra(0.0))
    assert cata_eval(_LIST, combined, (1, 2, 3)) == dirac((6, 3))


def test_banana_split_equals_pairing_on_random_algebras():
    rng = np.random.default_rng(17)
    for _ in range(25):
        c1, c2 = Range(int(rng.integers(2, 4))), Range(int(rng.integers(2, 4)))
        t1 = {s: to_probfn(random_cs_matrix(rng, c1, c1))(s) for s in c1.elements()}
        t2 = {s: to_probfn(random_cs_matrix(rng, c2, c2))(s) for s in c2.elements()}
        f_alg = Algebra(_FOR, dirac(0), lambda s, t=t1: t[s])
        g_alg = Algebra(_FOR, dirac(0), lambda s, t=t2: t[s])
        combined = banana_split(_FOR, f_alg, g_alg)
        n = int(rng.integers(0, 6))
        lhs = pair(cata_eval(_FOR, f_alg, n), cata_eval(_FOR, g_alg, n))
        assert tv_distance(lhs, cata_eval(_FOR, combined, n)) <= 1e-9


def test_banana_split_functor_mismatch():
    a = Algebra(_FOR, dirac(0), lambda s: dirac(s))
    b = Algebra(_LIST, dirac(0), lambda av: dirac(av[1]))
    with pytest.raises(DomainError):
        banana_split(_FOR, a, b)


# --- mutual recursion and tupling -------------------------------------------------

def test_tupling_side_condition_holds_for_square():
    h, k = sq_algebras(0.1)
    tupled, report = tupled_from_mutual(_FOR, h, k, test_inputs=range(7))
    assert report.snd_sharp and report.holds
    assert "holds" in report.message
    for n in range(7):
        lhs = pair(*mutual_eval(_FOR, h, k, n))
        assert tv_distance(lhs, cata_eval(_FOR, tupled, n)) <= 1e-9


def test_tupling_side_condition_fails_for_fib():
    h, k = fib_algebras(0.1)
    tupled, report = tupled_from_mutual(_FOR, h, k, test_inputs=range(7))
    assert not report.holds
    assert "may change" in report.message
    lhs = pair(*mutual_eval(_FOR, h, k, 5))
    assert tv_distance(lhs, cata_eval(_FOR, tupled, 5)) >= 0.01


def test_tupling_side_condition_without_inputs_is_unchecked():
    h, k = sq_algebras(0.1)
    _, report = tupled_from_mutual(_FOR, h, k, test_inputs=())
    assert not report.holds and not report.fst_sharp and not report.snd_sharp
    assert "unchecked" in report.message


def test_mutual_eval_rejects_negative_iteration_count():
    h, k = sq_algebras(0.1)
    with pytest.raises(DomainError):
        mutual_eval(_FOR, h, k, -3)


def test_all_sharp_algebras_tuple_to_the_classical_result():
    h, k = fib_algebras(0.0)
    tupled, report = tupled_from_mutual(_FOR, h, k, test_inputs=range(8))
    assert report.holds and report.fst_sharp and report.snd_sharp
    fib = [0, 1, 1, 2, 3, 5, 8, 13, 21]
    for n in range(8):
        assert cata_eval(_FOR, tupled, n) == dirac((fib[n], fib[n + 1]))
        f, g = mutual_eval(_FOR, h, k, n)
        assert f == dirac(fib[n]) and g == dirac(fib[n + 1])


# --- base-case choice law ----------------------------------------------------------

def test_base_choice_boundaries():
    f = fadd(0.1, 2)
    lhs0, _ = base_choice_split(f, 7, 1, 0.0, 3)
    assert lhs0 == for_loop(f, dirac(1), 3)
    lhs1, _ = base_choice_split(f, 7, 1, 1.0, 3)
    assert lhs1 == for_loop(f, dirac(7), 3)


def _brute_loop(p, add, start_weights, n):
    """Independent evaluator: weighted outcome lists, no Dist machinery."""
    states = list(start_weights.items())
    for _ in range(n):
        nxt = {}
        for s, pr in states:
            nxt[s] = nxt.get(s, 0.0) + pr * p
            nxt[s + add] = nxt.get(s + add, 0.0) + pr * (1.0 - p)
        states = list(nxt.items())
    return dict(states)


def test_base_choice_law_on_100_random_instances():
    rng = np.random.default_rng(30)
    for _ in range(100):
        size = int(rng.integers(2, 6))
        carrier = Range(size)
        f = to_probfn(random_cs_matrix(rng, carrier, carrier))
        a, b = int(rng.integers(0, size)), int(rng.integers(0, size))
        p = float(rng.random())
        n = int(rng.integers(0, 7))
        lhs, rhs = base_choice_split(f, a, b, p, n)
        assert tv_distance(lhs, rhs) <= 1e-12


def test_base_choice_law_against_independent_oracle():
    f = fadd(0.1, 2)
    lhs, rhs = base_choice_split(f, 0, 1, 0.3, 4)
    assert tv_distance(lhs, rhs) <= 1e-12
    oracle_lhs = _brute_loop(0.1, 2, {0: 0.3, 1: 0.7}, 4)
    left = _brute_loop(0.1, 2, {0: 1.0}, 4)
    right = _brute_loop(0.1, 2, {1: 1.0}, 4)
    oracle_rhs = {v: 0.3 * left.get(v, 0.0) + 0.7 * right.get(v, 0.0)
                  for v in set(left) | set(right)}
    for v, m in oracle_lhs.items():
        assert lhs.mass(v) == pytest.approx(m, abs=1e-12)
    for v, m in oracle_rhs.items():
        assert rhs.mass(v) == pytest.approx(m, abs=1e-12)


# --- fold fusion ---------------------------------------------------------------------

def test_fold_fusion_pipeline_table():
    count = fcount_algebra(0.15)
    post = lambda s: cata_eval(_LIST, count, s)
    report = fold_fusion_check(post, fcat_algebra(0.1, ""), consolidated_count_algebra(0.1, 0.15),
                               ["abc"])
    assert report.ok
    d = bind(cata_eval(_LIST, fcat_algebra(0.1, ""), "abc"), post)
    # oracle: each element is counted independently with chance (1-p)(1-q)
    keep = 0.9 * 0.85
    expected = {k: math.comb(3, k) * keep ** k * (1 - keep) ** (3 - k) for k in range(4)}
    for v, m in expected.items():
        assert d.mass(v) == pytest.approx(m, abs=1e-12)


def test_fold_fusion_degenerates_without_copy_fault():
    count = fcount_algebra(0.15)
    post = lambda s: cata_eval(_LIST, count, s)
    report = fold_fusion_check(post, fcat_algebra(0.0, ""), consolidated_count_algebra(0.0, 0.15),
                               ["abc", "aa", ""])
    assert report.ok
    d = cata_eval(_LIST, consolidated_count_algebra(0.0, 0.15), "abc")
    assert tv_distance(d, cata_eval(_LIST, count, "abc")) <= 1e-12


def test_fold_fusion_flags_wrong_candidates():
    count = fcount_algebra(0.15)
    post = lambda s: cata_eval(_LIST, count, s)
    wrong = consolidated_count_algebra(0.3, 0.15)
    report = fold_fusion_check(post, fcat_algebra(0.1, ""), wrong, ["abc"])
    assert not report.ok
    assert report.side_condition_dev > 1e-3
