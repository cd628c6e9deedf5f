"""Recursion-scheme tests: loops, folds, the matrix fixpoint, transformations."""

import hashlib
import math
import sys
import threading
import time

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probfold import cli
from probfold.cases import (
    fadd,
    fadd_combined,
    fadd_zero,
    fcat_algebra,
    fcount_algebra,
    consolidated_count_algebra,
    fib_algebras,
    msql,
    sq_algebras,
)
from probfold.dims import Product, Range, UNIT
from probfold.dist import (Dist, DomainError, ProbFn, _Choice, _pair_value, _plus_one, _plus_two, _second, _sum, bind,
                           choice, dirac, marginals, pair, tv_distance)
from probfold.functors import CompF, ConstF, ForLoopF, IdF, ListF, SumF
from probfold.matrix import (
    DimensionError,
    Matrix,
    TruncationError,
    _Sparse,
    from_probfn,
    from_probfn_truncated,
    from_sharp_fn,
    identity,
    junc,
    madd,
    max_dev,
    to_probfn,
)
from probfold.laws import random_cs_matrix
from probfold.schemes import (
    _SPARSE_FILL,
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


def _doubling_body_at_the_cutoff(p, m, side):
    """The doubling loop's pieces over 0..m, its odd columns below m spread
    over more rows: to just under the sparse kernel's fill for side 0, just
    over it for side 1. From 0 the loop reaches only even states, so the
    padding changes the body's fill, not the mass it moves."""
    states, body, init, escapes = _ftwice_pieces(p, m)
    odd = np.arange(1, m, 2)
    spare = body.data.size // _SPARSE_FILL - np.count_nonzero(body.data)
    per_col = 2 + spare // odd.size + side
    data = body.data.copy()
    data[:, odd] = 0.0
    data[:per_col, odd] = 1.0 / per_col
    assert (np.count_nonzero(data) * _SPARSE_FILL <= data.size) == (side == 0)
    return states, Matrix(states, states, data), init, escapes


def test_fixpoint_detects_escape_below_any_threshold():
    # state 398, whose step escapes to 400, first carries mass 0.8**199 ~ 5e-20;
    # so it does with the body padded to either side of the sparse kernel's cutoff
    for states, body, init, escapes in (_ftwice_pieces(0.2, 399),
                                        _doubling_body_at_the_cutoff(0.2, 399, 0),
                                        _doubling_body_at_the_cutoff(0.2, 399, 1)):
        with pytest.raises(TruncationError) as err:
            matrix_cata_fixpoint(body, init, 200, states, escapes=escapes)
        assert "at value 400" in str(err.value)


@pytest.mark.parametrize("m", [126, 128, 130, 132, 256, 258])
def test_fixpoint_names_the_first_escape_on_either_side_of_a_block_edge(m):
    # over 0..m-1, state m-2 first carries mass in column (m-2)/2 and its step
    # reaches m: columns 62 to 128, on both sides of the edges of the blocks of
    # columns the checks run over; without the escapes it is a leak
    states, body, init, escapes = _ftwice_pieces(0.1, m - 1)
    with pytest.raises(TruncationError) as err:
        matrix_cata_fixpoint(body, init, 300, states, escapes=escapes)
    assert str(err.value) == f"mass would escape {states} at value {m}"
    with pytest.raises(TruncationError) as err:
        matrix_cata_fixpoint(body, init, 300, states)
    assert str(err.value) == f"loop body loses mass from state {m - 2} outside {states}"


def test_fixpoint_checks_the_columns_that_feed_another_and_not_the_last():
    # over 0..129 state 128 first carries mass in column 64, the last of a block
    states, body, init, escapes = _ftwice_pieces(0.1, 129)
    assert matrix_cata_fixpoint(body, init, 64, states, escapes=escapes).is_column_stochastic()
    with pytest.raises(TruncationError, match="at value 130$"):
        matrix_cata_fixpoint(body, init, 65, states, escapes=escapes)


def test_fixpoint_names_a_leak_that_comes_before_an_escape_in_the_same_block():
    # 0 -> 1 -> 2 -> 3, but half of state 1's mass is lost (column 1 leaks)
    # and all of state 3's escapes (column 3)
    d = Range(4)
    body = Matrix(d, d, [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 1, 0]])
    init = from_sharp_fn(lambda _u: 0, UNIT, d)
    with pytest.raises(TruncationError) as err:
        matrix_cata_fixpoint(body, init, 10, d, escapes={3: [(4, 1.0)]})
    assert str(err.value) == f"loop body loses mass from state 1 outside {d}"


def test_fixpoint_stops_soon_after_an_early_escape_with_a_huge_count():
    # the escape comes in column 4 of 10**6: it raises in hundredths of a second,
    # where computing every column takes about 10 s on a 2-core box
    states, body, init, escapes = _ftwice_pieces(0.1, 8)
    started = time.perf_counter()
    with pytest.raises(TruncationError) as err:
        matrix_cata_fixpoint(body, init, 10**6, states, escapes=escapes)
    assert str(err.value) == "mass would escape Range(n=9) at value 10"
    assert time.perf_counter() - started < 2.0


def test_dense_fixpoint_over_several_column_blocks_is_pinned():
    rng = np.random.default_rng(14)
    states = Range(200)
    body, init = random_cs_matrix(rng, states, states), random_cs_matrix(rng, UNIT, states)
    assert np.count_nonzero(body.data) * _SPARSE_FILL > body.data.size  # the BLAS kernel
    k = matrix_cata_fixpoint(body, init, 200, states)
    assert hashlib.sha256(k.data.tobytes()).hexdigest() == (
        "4af6fc152468f94f01fc048ca037ee323bcef621fd721adb77964dd9d5bf0c67")


@pytest.mark.parametrize("m", [9, 201])
def test_a_body_built_with_its_nonzeros_gives_the_plain_body_fixpoint(m):
    # the fixpoint reads a choice body's own nonzeros, where it scans a plain
    # Matrix copy of the same data: the BLAS product runs over Range(9), the
    # scatter-add over Range(201), and each outcome is the same to the bit
    states = Range(m)
    init = from_probfn(lambda _u: dirac(0), UNIT, states)
    for step in (fadd(0.1, 2), fadd_zero(0.2, 3), fadd_combined(0.1, 0.3, 2)):
        body, escapes = from_probfn_truncated(step, states, states)
        plain = Matrix(states, states, body.data)
        assert isinstance(body, _Sparse) and type(plain) is Matrix
        # the nonzeros the plain body's scan finds, in the order it finds them
        dst, src = np.nonzero(plain.data)
        for carried, scanned in zip(body.nonzeros, (dst, src, plain.data[dst, src])):
            assert np.array_equal(carried, scanned)
        assert (dst.size * _SPARSE_FILL <= plain.data.size) == (m == 201)
        for n_max in (2, m // 2, 2 * m):
            for esc in (escapes, None):
                outcomes = []
                for b in (body, plain):
                    try:
                        outcomes.append(matrix_cata_fixpoint(b, init, n_max, states, escapes=esc).data.tobytes())
                    except TruncationError as err:
                        outcomes.append(str(err))
                assert outcomes[0] == outcomes[1]


def test_the_fixpoint_never_lays_a_nonzeros_body_out_dense(monkeypatch):
    # `probfold matrix ftwice_fixpoint` at n=300 over Range(601): the body
    # from_probfn_truncated returns is read by the fixpoint, its shape, repr
    # and dims checks, and none of them builds its dense array
    built = []

    def keep(*args):
        body, escapes = from_probfn_truncated(*args)
        built.append(body)
        return body, escapes
    monkeypatch.setattr(cli, "from_probfn_truncated", keep)
    k = cli._matrix_of("ftwice_fixpoint", 0.1, 0.0, 300, 600)
    (body,) = built
    assert isinstance(body, _Sparse) and body._dense is None
    states = Range(601)
    assert body.shape == (601, 601) and repr(body) == f"Matrix({states} -> {states}, 601x601)"
    with pytest.raises(DomainError):
        matrix_cata_fixpoint(body, from_probfn(lambda _u: dirac(0), UNIT, Range(5)), 3, Range(5))
    with pytest.raises(DimensionError):
        madd(body, identity(Range(5)))
    assert body._dense is None
    # the first read gives the column loop's dense body, bit for bit, as a
    # read-only C-order float64 array, kept for every later read
    ref_body, _ = from_probfn_truncated(lambda v: fadd(0.1, 2)(v), states, states)
    assert type(ref_body) is Matrix
    data = body.data
    assert data.dtype == np.float64 and data.flags.c_contiguous and not data.flags.writeable
    assert data.tobytes() == ref_body.data.tobytes() and body.data is data
    plain = Matrix(states, states, data)
    init = from_probfn(lambda _u: dirac(0), UNIT, states)
    assert matrix_cata_fixpoint(plain, init, 300, states).data.tobytes() == k.data.tobytes()


def test_threads_reading_a_nonzeros_body_get_one_dense_array():
    # more threads than cores, switching often: each read gives the same array
    states = Range(401)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            body, _ = from_probfn_truncated(fadd(0.1, 2), states, states)
            reads = []
            threads = [threading.Thread(target=lambda: reads.append(body.data)) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert len(reads) == 8 and all(r is reads[0] for r in reads)
    finally:
        sys.setswitchinterval(switch)
    ref_body, _ = from_probfn_truncated(lambda v: fadd(0.1, 2)(v), states, states)
    assert reads[0].tobytes() == ref_body.data.tobytes()


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


@pytest.mark.parametrize("n_max", [sys.maxsize, 10**20])
def test_fixpoint_rejects_counts_beyond_the_largest_index(n_max):
    states, body, init, escapes = _ftwice_pieces(0.1, 8)
    with pytest.raises(DomainError, match="n_max must be below"):
        matrix_cata_fixpoint(body, init, n_max, states, escapes=escapes)


@pytest.mark.parametrize("weight", [1.5, 1e300])
def test_fixpoint_rejects_a_body_that_creates_mass(weight):
    # nothing escapes: state 0's column sums above 1, which no loop body may do
    d = Range(2)
    body = Matrix(d, d, [[weight, 0.0], [0.0, 1.0]])
    init = from_sharp_fn(lambda _u: 0, UNIT, d)
    with pytest.raises(DomainError) as err:
        matrix_cata_fixpoint(body, init, 3, d)
    assert str(err.value) == f"loop body creates mass: the column of state 0 sums to {weight!r}"


def test_fixpoint_names_mass_that_a_tolerated_surplus_creates_over_the_loop():
    # 1 + 5e-10 passes the body check, but the surplus compounds: input 3's column
    # sums to 1 + 1.5e-9, although nothing escaped
    d = Range(1)
    with pytest.raises(DomainError, match=r"^loop body creates mass: the column of input 3 sums to 1\.0000000015"):
        matrix_cata_fixpoint(Matrix(d, d, [[1 + 5e-10]]), Matrix(UNIT, d, [[1.0]]), 10, d)


def test_fixpoint_mass_lost_below_the_step_threshold_is_a_truncation():
    # each step loses 5e-13, under the 1e-12 step check; from input 2001 on the
    # loss exceeds the column tolerance
    d = Range(1)
    with pytest.raises(TruncationError, match="not column-stochastic"):
        matrix_cata_fixpoint(Matrix(d, d, [[1 - 5e-13]]), Matrix(UNIT, d, [[1.0]]), 3000, d)


@pytest.mark.parametrize("mass", [2.0, 0.5])
def test_fixpoint_rejects_an_init_that_is_not_a_distribution(mass):
    # nothing escapes and the body keeps mass: only init's sum is wrong
    d = Range(2)
    with pytest.raises(DomainError) as err:
        matrix_cata_fixpoint(identity(d), Matrix(UNIT, d, [[mass], [0.0]]), 3, d)
    assert str(err.value) == f"init must be a distribution over {d}, but it sums to {mass!r}"


@pytest.mark.parametrize("key", [-1, 2, True, 1.0])
def test_fixpoint_rejects_escapes_keys_that_are_not_states(key):
    # -1 would name the last state, where init puts all its mass; 2 is past
    # the end; True and 1.0 equal the index 1 but are not one
    d = Range(2)
    init = from_sharp_fn(lambda _u: 1, UNIT, d)
    with pytest.raises(DomainError) as err:
        matrix_cata_fixpoint(identity(d), init, 3, d, escapes={key: [(9, 0.1)]})
    assert str(err.value) == f"escapes key {key} is not the index of a state of {d}"


def test_loop_counts_beyond_the_largest_index_are_rejected():
    with pytest.raises(DomainError, match="exceeds the largest supported count"):
        for_loop(lambda s: dirac(s + 1), dirac(0), sys.maxsize + 1)


def test_fixpoint_sharp_body_gives_doubling_matrix():
    states, body, init, escapes = _ftwice_pieces(0.0, 6)
    k = matrix_cata_fixpoint(body, init, 3, states, escapes=escapes)
    for j in range(4):
        assert k.data[2 * j, j] == 1.0
    assert k.data.sum() == 4.0


def _power_columns(body, init, n_max):
    """Column j is body^j . init, by repeated matrix powers."""
    return np.column_stack([np.linalg.matrix_power(body.data, j) @ init.data[:, 0]
                            for j in range(n_max + 1)])


@pytest.mark.parametrize("kernel", ["sparse", "dense"])
def test_both_recurrence_kernels_match_matrix_powers(kernel):
    n_max = 40
    if kernel == "sparse":  # the doubling loop's banded body
        states, body, init, escapes = _ftwice_pieces(0.3, 2 * n_max)
    else:
        rng = np.random.default_rng(9)
        states, escapes = Range(30), None
        body, init = random_cs_matrix(rng, states, states), random_cs_matrix(rng, UNIT, states)
    sparse = np.count_nonzero(body.data) * _SPARSE_FILL <= body.data.size
    assert sparse == (kernel == "sparse")
    k = matrix_cata_fixpoint(body, init, n_max, states, escapes=escapes)
    assert np.max(np.abs(k.data - _power_columns(body, init, n_max))) <= 1e-12


def test_tupled_square_as_a_fixpoint_over_its_pair_states_equals_msql():
    # the tupled step pairs two choices; its body over the pair states is
    # read from their outcomes, and column n of the fixpoint is msql's joint
    p, n_max = 0.1, 8
    h, k = sq_algebras(p)
    tupled, _ = tupled_from_mutual(_FOR, h, k, test_inputs=())
    squares, odds = Range(n_max ** 2 + 1), Range(2 * n_max + 2)
    states = Product(squares, odds)
    body, escapes = from_probfn_truncated(tupled.step, states, states)
    init = from_probfn(lambda _u: tupled.base, UNIT, states)
    fix = matrix_cata_fixpoint(body, init, n_max, states, escapes=escapes)
    for n in range(n_max + 1):
        marginal = fix.data[:, n].reshape(squares.size, odds.size).sum(axis=1)
        assert tv_distance(Dist(zip(squares.elements(), marginal)), msql(p, n)) <= 1e-12


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


def test_fold_fusion_carrier_values_need_an_alphabet():
    count = fcount_algebra(0.15)
    post = lambda s: cata_eval(_LIST, count, s)
    with pytest.raises(DomainError, match="alphabet"):
        fold_fusion_check(post, fcat_algebra(0.1, ""), consolidated_count_algebra(0.1, 0.15), ["abc"],
                          carrier_values=["", "a"])
    # an alphabet alone used to be ignored: the reachable states were checked instead
    with pytest.raises(DomainError, match="needs carrier_values"):
        fold_fusion_check(post, fcat_algebra(0.1, ""), consolidated_count_algebra(0.1, 0.15), ["abc"],
                          alphabet="abc")



@pytest.mark.parametrize("bad", [5, None, {"a": 1}, b"ab"], ids=["int", "None", "dict", "bytes"])
def test_fold_fusion_refuses_a_test_input_that_is_not_a_sequence(bad):
    # each was taken through tuple(): a raw TypeError, or a dict folded over its keys
    post = lambda s: cata_eval(_LIST, fcount_algebra(0.15), s)
    with pytest.raises(DomainError) as own:
        cata_eval(_LIST, fcat_algebra(0.1, ""), bad)
    with pytest.raises(DomainError) as checked:
        fold_fusion_check(post, fcat_algebra(0.1, ""), consolidated_count_algebra(0.1, 0.15), ["ab", bad])
    assert str(checked.value) == str(own.value) == f"input {bad!r} is not a sequence"


def test_fold_fusion_folds_a_nested_list_input_as_cata_eval_does():
    post = lambda s: cata_eval(_LIST, fcount_algebra(0.15), s)
    copy, count = fcat_algebra(0.1, ()), consolidated_count_algebra(0.1, 0.15)
    report = fold_fusion_check(post, copy, count, [[1, [2]]])
    assert report.ok
    pipeline = bind(cata_eval(_LIST, copy, [1, [2]]), post)
    assert report.pipeline_dev == tv_distance(pipeline, cata_eval(_LIST, count, [1, [2]]))


# --- one fold loop: every sub-input's fold on the way -------------------------------

def _items(dists):
    return [d.items() for d in dists]


def test_the_fold_loop_yields_the_fold_of_every_sub_input():
    from probfold.cases import fsum_algebra
    from probfold.schemes import _folds, _mutual_folds

    h, k = fib_algebras(0.1)
    sq_h, sq_k = sq_algebras(0.1)
    wrap = Algebra(_FOR, dirac(0), lambda s: choice(0.3, dirac((s + 1) % 3), dirac(s)))
    for alg in (Algebra(_FOR, dirac(0), fadd(0.1, 2)), wrap, tupled_from_mutual(_FOR, h, k, ())[0],
                tupled_from_mutual(_FOR, sq_h, sq_k, ())[0],
                banana_split(_FOR, wrap, Algebra(_FOR, dirac(0), fadd(0.2, 1)))):
        assert _items(_folds(_FOR.layers(alg.step, 8), alg.base)) == \
            _items(cata_eval(_FOR, alg, n) for n in range(9))
    for alg, xs in [(fcat_algebra(0.1, ""), "abcab"), (fcat_algebra(0.1, ()), (1, 2, 2, 3)),
                    (fcount_algebra(0.2), "abcab"), (fsum_algebra(0.15), (0, 0, 1, 0, -1, 2)),
                    (banana_split(_LIST, fsum_algebra(0.15), fcount_algebra(0.1)), (2, 3, 2))]:
        assert _items(_folds(_LIST.layers(alg.step, xs), alg.base)) == \
            _items(cata_eval(_LIST, alg, xs[i:]) for i in range(len(xs), -1, -1))
    for n, (f, g) in enumerate(_mutual_folds(_FOR, h, k, 8)):
        assert (f.items(), g.items()) == tuple(d.items() for d in mutual_eval(_FOR, h, k, n))


def test_tupling_checks_repeated_unsorted_inputs_as_one_at_a_time():
    from dataclasses import replace

    from probfold.cases import sq_prime_algebras

    inputs = (5, 0, 3, 3)
    for h, k in (sq_algebras(0.1), fib_algebras(0.1), fib_algebras(0.0), sq_prime_algebras(0.1, 0.2)):
        tupled, report = tupled_from_mutual(_FOR, h, k, test_inputs=iter(inputs))
        assert report.tested_inputs == inputs
        margins = [marginals(cata_eval(_FOR, tupled, n)) for n in inputs]
        assert report.fst_sharp == all(left.is_dirac() for left, _ in margins)
        assert report.snd_sharp == all(right.is_dirac() for _, right in margins)
        singly = [tupled_from_mutual(_FOR, h, k, test_inputs=(n,))[1] for n in inputs]
        assert report.fst_sharp == all(r.fst_sharp for r in singly)
        assert report.snd_sharp == all(r.snd_sharp for r in singly)
        assert replace(report, tested_inputs=(0, 3, 5)) == \
            tupled_from_mutual(_FOR, h, k, test_inputs=(0, 3, 5))[1]
    with pytest.raises(DomainError, match="input -1 is not a natural number"):
        tupled_from_mutual(_FOR, *sq_algebras(0.1), test_inputs=(3, -1))


def test_list_layers_are_built_lazily_but_check_their_input_when_asked():
    step = fcount_algebra(0.1).step
    with pytest.raises(DomainError, match="^input 5 is not a sequence$"):
        _LIST.layers(step, 5)
    layers = _LIST.layers(step, "abc")
    assert iter(layers) is layers and len(list(layers)) == 3


# _fold_each: a list step of affine branches that read no element folds once per length
_BLIND_STEPS = [_Choice(((0.3, _second), (0.7, _plus_one))), _Choice(((1.0, _plus_two),)),
                _Choice(((0.1, _plus_two), (0.2, _second), (0.7, _plus_one)))]
_READING_STEPS = [_Choice(((0.25, _second), (0.75, _sum))),
                  _Choice(((0.4, _plus_one), (0.6, functools.partial(_pair_value, 2, 1, -1)))),
                  _Choice(((0.4, _plus_one), (0.6, functools.partial(_pair_value, 0, 1, 1))))]


def _by_element_type(av):
    """An opaque step that reads its element's type."""
    return dirac(av[1] + 1) if isinstance(av[0], float) else choice(0.5, dirac(av[1]), dirac(av[1] + 2))


def _by_element_sign(av):
    """An opaque step that reads its element's sign: 0.0 and -0.0 are equal, but copysign tells them apart."""
    return dirac(av[1] + 1) if math.copysign(1.0, av[0]) > 0 else dirac(av[1])


# floats equal to ints among them: 1.0 == 1, but a step can tell them apart
_NUMBER_INPUTS = st.one_of(st.lists(st.integers(-1, 2), max_size=4).map(tuple),
                           st.lists(st.integers(-1, 2), max_size=4),
                           st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]), max_size=4).map(tuple))
_ANY_INPUTS = st.one_of(st.text("ab", max_size=4), _NUMBER_INPUTS)
_SIGNED_INPUTS = st.one_of(_NUMBER_INPUTS, st.lists(st.sampled_from([0.0, -0.0]), max_size=3).map(tuple))


@st.composite
def _fold_inputs(draw, kinds):
    """Inputs of ``kinds``, with a repeat and the empty input, in any order."""
    inputs = draw(st.lists(kinds, min_size=1, max_size=6))
    inputs += [draw(st.sampled_from(inputs)), draw(st.sampled_from(["", ()]))]
    return draw(st.permutations(inputs))


def _bits(dists):
    return [repr(d.items()) for d in dists]


@pytest.mark.parametrize("step, kinds", [(s, _ANY_INPUTS) for s in _BLIND_STEPS] +
                         [(s, _NUMBER_INPUTS) for s in _READING_STEPS] + [(_by_element_type, _ANY_INPUTS),
                                                                          (_by_element_sign, _SIGNED_INPUTS)],
                         ids=["second+1", "plus2", "plus2+second+1", "sum", "pair_value(2,1,-1)",
                              "pair_value(0,1,1)", "opaque", "opaque_sign"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_fold_each_gives_each_inputs_own_fold_bit_for_bit(step, kinds, data):
    from probfold.schemes import _fold_each, _folds, _last

    inputs = data.draw(_fold_inputs(kinds))
    base = data.draw(st.sampled_from([dirac(0), Dist({0: 0.5, 2: 0.5})]))
    own = [_last(_folds(_LIST.layers(step, xs), base)) for xs in inputs]
    folds = _fold_each(Algebra(_LIST, base, step), (xs for xs in inputs))
    assert folds == own
    assert [d.items() for d in folds] == [d.items() for d in own]
    assert _bits(folds) == _bits(own)


def test_fold_each_keeps_float_and_int_elements_apart():
    from probfold.schemes import _fold_each

    # 0*e + y + 1 is a float at a float element e: same length, not the same fold
    step = _Choice(((0.4, _second), (0.6, functools.partial(_pair_value, 0, 1, 1))))
    inputs = [(0.5, 2.5), (1, 2), (1.0, 2.0), (2,), (2.0,)]
    folds = _fold_each(Algebra(_LIST, dirac(0), step), inputs)
    assert _bits(folds) == _bits(fold_list(step, dirac(0), xs) for xs in inputs)
    assert len(set(_bits(folds))) == 4 and _bits(folds[:1]) == _bits(folds[2:3])
    assert all(type(v) is float for d in folds[::2] for v in d.support if v)


def test_fold_each_of_no_inputs_is_empty_and_refuses_a_non_sequence():
    from probfold.schemes import _fold_each

    for alg in (fcount_algebra(0.1), fcat_algebra(0.1, "")):
        assert _fold_each(alg, []) == []
        assert _fold_each(alg, iter(())) == []
        with pytest.raises(DomainError) as own:
            cata_eval(_LIST, alg, 5)
        with pytest.raises(DomainError) as each:
            _fold_each(alg, ["ab", "", 5])
        assert str(each.value) == str(own.value) == "input 5 is not a sequence"


def test_pipeline_count_cat_folds_each_copy_length_once():
    from probfold import schemes
    from probfold.cases import pipeline_count_cat

    letters = "abcdefghijkl"
    calls = []

    def counted(d, k):
        calls.append(k)
        return bind(d, k)
    expected = pipeline_count_cat(0.12, 0.08, letters)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schemes, "bind", counted)
        result = pipeline_count_cat(0.12, 0.08, letters)
    # a layer per letter for the copy and one per length for the counts
    assert len(calls) <= 2 * (len(letters) + 1)
    assert result.items() == expected.items()


# --- a for-loop's opaque step, once per distinct state ---------------------------------

def test_tupled_fib_loop_calls_each_step_once_per_distinct_state():
    h, k = fib_algebras(0.1)
    calls = {"h": 0, "k": 0}

    def counted(name, step):
        def call(s):
            calls[name] += 1
            return step(s)
        return call
    tupled, _ = tupled_from_mutual(_FOR, Algebra(_FOR, h.base, counted("h", h.step)),
                                   Algebra(_FOR, k.base, counted("k", k.step)), ())
    fold = cata_eval(_FOR, tupled, 20)
    # 5,232 states on the way, 1,306 of them distinct
    assert calls == {"h": 1306, "k": 1306}
    assert fold.items() == cata_eval(_FOR, tupled_from_mutual(_FOR, h, k, ())[0], 20).items()


_BIG = 10**5000  # past the 4,300 digits that int's repr takes


def _kinds(v):
    """``v``'s type, with its components' for a tuple and its sign for a
    float: 0.0 and -0.0 are equal, but copysign tells them apart."""
    if type(v) is tuple:
        return tuple, tuple(map(_kinds, v))
    return (float, math.copysign(1.0, v)) if type(v) is float else type(v)


def _retype(s):
    """1 -> 1.0 -> True -> "t", and any other state to 1: equal states of
    other types, which a memo keyed by value alone would merge."""
    if type(s) is int and s == 1:
        return dirac(1.0)
    if type(s) is float and s == 1.0:
        return dirac(True)
    return dirac("t") if s is True else dirac(1)


_WALK = [(0, (1, 2)), ((1, 2), (1.0, 2)), ((1.0, 2), (True, 2)), ((True, 2), _BIG), (_BIG, 1), (1, 1.0),
         (1.0, True)]


def _walk(s):
    """On along _WALK (tuples that differ only in a component's type, and a
    state above 4,300 digits) with 3/4, else to "t"; any state off it to 0."""
    return Dist([(next((b for a, b in _WALK if a == s and _kinds(a) == _kinds(s)), 0), 0.75), ("t", 0.25)])


def _by_type(s):
    """Stay, or go to the names of the state's types."""
    name = "/".join(type(x).__name__ for x in s) if type(s) is tuple else type(s).__name__
    return Dist([(s, 0.5), (name, 0.5)])


def _negate(s):
    """A float to its negation, 0.0 to -0.0 and back, and any other state to 0.0."""
    return dirac(-s) if type(s) is float else dirac(0.0)


_STATES = [0, 1, 1.0, True, False, 0.0, -0.0, 2.5, "t", (1, 2), (1.0, 2), (True, 2), ("int", 0.0), ("int", -0.0)]


@pytest.mark.parametrize("step", [_retype, _walk, _by_type, _negate], ids=["retype", "walk", "by_type", "negate"])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(states=st.lists(st.sampled_from(_STATES), min_size=1, max_size=3, unique=True),
       ns=st.lists(st.integers(0, 8), min_size=1, max_size=4))
def test_memoised_loops_give_the_unmemoised_folds(step, states, ns):
    from probfold.schemes import _fold_each, _folds, _last

    # no two states drawn are equal, but they mix ints, floats, bools, strings and tuples
    base = Dist([(v, 1 / len(states)) for v in states])
    alg = Algebra(_FOR, base, step)
    own = [_last(_folds(_FOR.layers(step, n), base)) for n in ns]
    for folds in ([for_loop(step, base, n) for n in ns], [cata_eval(_FOR, alg, n) for n in ns],
                  _fold_each(alg, ns)):
        assert folds == own
        assert [d.items() for d in folds] == [d.items() for d in own]
        assert [list(map(_kinds, d.support)) for d in folds] == [list(map(_kinds, d.support)) for d in own]


def _second_stays(s):
    return dirac(s[1])


def test_memoised_loops_hold_no_more_memory_as_they_run_longer():
    import tracemalloc

    def peak(n):
        tracemalloc.start()
        try:
            assert for_loop(lambda s: dirac(s + 1), dirac(0), n) == dirac(n)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # the memo keeps two layers' outcomes: one more state per layer would be ~8 MB more at 20,000 layers
    assert peak(20_000) - peak(200) < 100_000


def test_memoised_loops_leave_no_reference_cycle():
    import gc

    from probfold.cases import mfibl
    from probfold.schemes import _fold_each

    # a cycle would keep each finished fold's last two layers alive until a full collection
    gc.collect()
    gc.disable()
    try:
        assert for_loop(lambda s: dirac(s + 1), dirac(0), 50) == dirac(50)
        assert _fold_each(Algebra(_FOR, dirac(0), lambda s: dirac(s + 1)), [3, 5]) == [dirac(3), dirac(5)]
        mfibl(0.1, 8)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_memoised_loops_keep_binds_error_texts():
    from probfold.schemes import _fold_each, _folds, _last

    def undefined_at_2(s):
        return {0: dirac(1), 1: Dist({1: 0.5, 2: 0.5})}[s]

    def no_dist_at_2(s):
        return Dist({s: 0.5, s + 1: 0.5}) if s < 2 else None

    for step, text in ((undefined_at_2, "continuation undefined at support value {}"),
                       (no_dist_at_2, "continuation returned NoneType, not Dist, at {}")):
        alg = Algebra(_FOR, dirac(0), step)
        tupled = [Algebra(_FOR, dirac(0), lambda s, step=step: step(s[0])), Algebra(_FOR, dirac(0), _second_stays)]
        for run, at in ((lambda: _last(_folds(_FOR.layers(step, 4), dirac(0))), 2),
                        (lambda: for_loop(step, dirac(0), 4), 2), (lambda: cata_eval(_FOR, alg, 4), 2),
                        (lambda: _fold_each(alg, [1, 4]), 2),
                        (lambda: tupled_from_mutual(_FOR, *tupled, (1, 4)), (2, 0))):
            with pytest.raises(DomainError) as exc:
                run()
            assert str(exc.value) == text.format(at)


def test_memos_keep_0_0_and_minus_0_0_apart():
    from probfold.schemes import _fold_each

    # equal, but a step can read the sign: neither memo hands one's result to the other
    assert repr(for_loop(lambda s: dirac(-s), dirac(0.0), 2).items()) == "((0.0, 1.0),)"
    sign = Algebra(_LIST, dirac(0.0), lambda av: dirac(math.copysign(1.0, av[0])))
    assert _bits(_fold_each(sign, [(0.0,), (-0.0,)])) == _bits([dirac(1.0), dirac(-1.0)])
    assert _LIST._sub_inputs((0.0,))[-1] != _LIST._sub_inputs((-0.0,))[-1]


def test_list_sub_inputs_keep_1_1_0_and_true_apart_and_take_any_int():
    from probfold.schemes import _fold_each

    keys = [_LIST._sub_inputs(xs) for xs in [(1, 2), (1.0, 2), (True, 2), [1, 2]]]
    assert len({k[-1] for k in keys}) == 3 and keys[0] == keys[3]
    assert len({k[1] for k in keys}) == 1  # the suffix (2,) is shared
    # list elements, which a step can tell from tuples, and their components' types
    inputs = [[[1]], [(1,)], [[1.0]], ([1],), [{0: 1.0}], [{0: 1}]]
    kind = Algebra(_LIST, dirac(0), lambda av: dirac(av[1] + (type(av[0]) is list) + 10 * (type(av[0][0]) is float)))
    assert _fold_each(kind, inputs) == [dirac(1), dirac(0), dirac(11), dirac(1), dirac(10), dirac(0)]
    # list elements hash as the tuples they equal: one length is not one hash bucket
    assert len({hash(_LIST._sub_inputs([[i]])[-1]) for i in range(50)}) == 50
    h = Algebra(_LIST, dirac(0), lambda av: dirac(av[1][0] + 1))
    assert tupled_from_mutual(_LIST, h, h, [[[1], [2]]])[1].holds
    alg = Algebra(ListF(), dirac(0), lambda av: dirac(av[1] + (av[0] > 0)))
    report = fold_fusion_check(lambda s: dirac(s), alg, alg, [(_BIG, 1)])
    assert report.ok and (report.side_condition_dev, report.pipeline_dev) == (0.0, 0.0)
    assert cata_eval(_LIST, alg, (_BIG, 1)) == dirac(2)


# --- pairing any two continuations is a step ---------------------------------------------

def _light(s):
    return Dist({s: 1e-8, (s + 1) % 3: 1.0 - 1e-8})


def _plain_pairings():
    """(step, the per-value continuation it stands for, support to bind it on)
    for banana-split and tupling of plain continuations, alone and beside a
    fault step."""
    rng = np.random.default_rng(11)
    table = to_probfn(random_cs_matrix(rng, Range(3), Range(3)))
    plain = Algebra(_FOR, dirac(0), lambda s: table(s))
    light = Algebra(_FOR, dirac(0), _light)
    fault = Algebra(_FOR, dirac(0), fadd(0.1, 1))
    on_pairs = Dist(zip([(a, b) for a in range(3) for b in range(3)],
                        [0.05, 0.1, 0.05, 0.2, 0.1, 0.1, 0.15, 0.05, 0.2]))
    out = []
    for f, g in ((plain, light), (light, light), (plain, fault), (fault, light)):
        combined = banana_split(_FOR, f, g).step
        out.append((combined, lambda v, f=f, g=g: pair(f.step(v[0]), g.step(v[1])), on_pairs))
        tupled = tupled_from_mutual(_FOR, Algebra(_FOR, dirac(0), lambda s, f=f: f.step(s[0])),
                                    Algebra(_FOR, dirac(0), lambda s, g=g: g.step(s[1])), ())[0].step
        out.append((tupled, lambda v, f=f, g=g: pair(f.step(v[0]), g.step(v[1])), on_pairs))
    f_list = Algebra(_LIST, dirac(0), lambda av: table((av[0] + av[1]) % 3))
    g_list = Algebra(_LIST, dirac(0), lambda av: _light(av[1]))
    on_lists = Dist({(a, (s, t)): 1 / 18 for a in (0, 1) for s in range(3) for t in range(3)})
    out.append((banana_split(_LIST, f_list, g_list).step,
                lambda av: pair(f_list.step((av[0], av[1][0])), g_list.step((av[0], av[1][1]))), on_lists))
    return out


@pytest.mark.parametrize("index", range(9))
def test_pairing_plain_continuations_gives_the_per_value_floats(index):
    step, per_value, d = _plain_pairings()[index]
    assert bind(d, step).items() == bind(d, per_value).items()
    assert bind(d, ProbFn(step)).items() == bind(d, per_value).items()
    for v in d:
        assert step(v).items() == per_value(v).items()


def test_paired_plain_continuations_keep_binds_errors():
    def undefined_at_2(s):
        return {0: dirac(0), 1: dirac(1)}[s]

    def no_dist_at_2(s):
        return dirac(s) if s != 2 else 0.5

    d = Dist({(0, 1): 0.5, (2, 1): 0.5})
    for partial in (undefined_at_2, no_dist_at_2):
        f, g = Algebra(_FOR, dirac(0), partial), Algebra(_FOR, dirac(0), _light)
        steps = [banana_split(_FOR, f, g).step,
                 tupled_from_mutual(_FOR, Algebra(_FOR, dirac(0), lambda s: partial(s[0])),
                                    Algebra(_FOR, dirac(0), lambda s: _light(s[1])), ())[0].step]
        with pytest.raises(DomainError) as own:
            bind(Dist({0: 0.5, 2: 0.5}), partial)
        for step in steps:
            with pytest.raises(DomainError) as paired:
                bind(d, step)
            assert str(paired.value) == str(own.value).removesuffix("2") + "(2, 1)"
    with pytest.raises(DomainError) as per_value:
        bind(d, lambda v: pair(undefined_at_2(v[0]), _light(v[1])))
    assert str(per_value.value) == "continuation undefined at support value (2, 1)"
