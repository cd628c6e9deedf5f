"""Typed-matrix tests: dims, combinators, predicates, conversions, CSV."""

import math

import numpy as np
import pytest

from probfold.dims import _MEMO_SIZE, BOOLS, EnumDim, Product, Range, Sum, UNIT, _elements, _index, inl, inr
from probfold.dist import Dist, DomainError, _paired, dirac
from probfold.matrix import (
    DimensionError,
    Matrix,
    TruncationError,
    bang,
    compose,
    converse,
    from_probfn,
    from_probfn_truncated,
    from_sharp_fn,
    fst_matrix,
    hadamard,
    identity,
    junc,
    khatri,
    kron,
    madd,
    mat_choice,
    max_dev,
    oplus,
    relabel,
    snd_matrix,
    split,
    to_probfn,
)
from probfold.functors import ForLoopF
from probfold.laws import random_cs_matrix, random_sharp
from probfold.schemes import unzip
from probfold.cases import fadd


def fneg_matrix():
    const_false = from_sharp_fn(lambda _b: False, BOOLS, BOOLS)
    negation = from_sharp_fn(lambda b: not b, BOOLS, BOOLS)
    return mat_choice(0.05, const_false, negation)


# --- dims --------------------------------------------------------------------

def test_dim_sizes():
    assert UNIT.size == 1
    assert Range(4).size == 4
    assert BOOLS.size == 2
    assert Sum(Range(2), Range(3)).size == 5
    assert Product(Range(2), Range(3)).size == 6


def test_sum_enumeration_order():
    assert Sum(Range(2), BOOLS).elements() == (inl(0), inl(1), inr(False), inr(True))


def test_product_left_factor_is_outer():
    assert Product(Range(2), Range(3)).elements() == (
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))


def test_dim_equality_is_structural():
    assert Range(2) != BOOLS
    assert Sum(Range(1), Range(2)) != Range(3)
    assert Range(3) == Range(3)


def test_dim_index_errors():
    with pytest.raises(KeyError):
        Range(2).index_of(5)
    with pytest.raises(ValueError):
        Range(0)
    with pytest.raises(ValueError):
        EnumDim(("a", "a"))


# --- basic matrix behaviour --------------------------------------------------

def test_matrix_rejects_bad_shapes_and_negatives():
    with pytest.raises(DimensionError):
        Matrix(Range(2), Range(2), [[1.0, 0.0]])
    with pytest.raises(ValueError):
        Matrix(Range(1), Range(1), [[-0.5]])


@pytest.mark.parametrize("entry, cause", [(math.nan, "NaN"), (math.inf, "finite"),
                                          (-math.inf, "finite")])
def test_matrix_rejects_non_finite_entries_naming_the_cause(entry, cause):
    with pytest.raises(DomainError) as err:
        Matrix(Range(1), Range(2), [[0.5], [entry]])
    assert cause in str(err.value)


def test_matrix_data_is_read_only():
    m = identity(Range(2))
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0


def test_matrix_dims_and_data_cannot_be_reassigned():
    m = identity(Range(2))
    for name, value in (("col_dim", BOOLS), ("row_dim", BOOLS), ("data", np.zeros((2, 2)))):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
        with pytest.raises(AttributeError):
            delattr(m, name)
    shared = identity(Range(2))
    assert shared.col_dim == shared.row_dim == Range(2)
    assert np.array_equal(shared.data, np.eye(2))


def test_dim_memos_stay_bounded():
    for n in range(1, _MEMO_SIZE + 21):
        assert Range(n).index_of(n - 1) == n - 1
    for memo in (_elements, _index):
        assert memo.cache_info().currsize <= _MEMO_SIZE


def test_a_sized_dim_is_not_kept_alive():
    import gc
    import weakref

    dim = Product(Sum(Range(3), EnumDim(("x", "y"))), BOOLS)
    assert dim.size == 10 and dim.size == 10
    alive = weakref.ref(dim)
    del dim
    gc.collect()
    assert alive() is None


def test_structural_matrices_are_shared_read_only_values():
    b, c = Range(3), BOOLS
    assert identity(b) is identity(Range(3))
    assert fst_matrix(b, c) is fst_matrix(Range(3), BOOLS)
    assert unzip(ForLoopF(), b, c) is unzip(ForLoopF(), Range(3), BOOLS)
    for m in (identity(b), fst_matrix(b, c), unzip(ForLoopF(), b, c)):
        with pytest.raises(ValueError):
            m.data[0, 0] = 0.5


def test_rearranged_results_are_read_only():
    m = Matrix(Range(2), Range(2), [[0.25, 1.0], [0.75, 0.0]])
    for result in (converse(m), relabel(m, col_dim=BOOLS), junc(m, identity(Range(2)))):
        with pytest.raises(ValueError):
            result.data[0, 0] = 0.5


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("op, entry", [(compose, 1e200), (kron, 1e200), (khatri, 1e200),
                                       (hadamard, 1e200), (madd, 1.7e308)])
def test_combinator_overflow_is_rejected(op, entry):
    # finite, nonnegative operands whose product (or, for madd, sum) overflows
    big = Matrix(Range(1), Range(1), [[entry]])
    with pytest.raises(DomainError, match="finite"):
        op(big, big)


def test_identity_is_unit_of_composition():
    m = fneg_matrix()
    assert max_dev(compose(m, identity(BOOLS)), m) == 0.0
    assert max_dev(compose(identity(BOOLS), m), m) == 0.0


def test_fneg_matrix_entries():
    m = fneg_matrix()
    assert m.entry(False, False) == pytest.approx(0.05, abs=1e-15)
    assert m.entry(True, False) == pytest.approx(0.95, abs=1e-15)
    assert m.entry(False, True) == 1.0
    assert m.entry(True, True) == 0.0
    assert m.is_column_stochastic()
    assert not m.is_sharp()


def test_fneg_squared_against_naive_oracle():
    m = fneg_matrix()
    sq = compose(m, m)
    naive = np.array([
        [math.fsum(m.data[i, k] * m.data[k, j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ])
    assert float(np.max(np.abs(sq.data - naive))) <= 1e-15
    want = np.array([[0.9525, 0.05], [0.0475, 0.95]])
    assert float(np.max(np.abs(sq.data - want))) <= 1e-12


def test_compose_checks_dims():
    with pytest.raises(DimensionError) as err:
        compose(identity(Range(2)), identity(Range(3)))
    assert "Range(n=2)" in str(err.value) and "Range(n=3)" in str(err.value)


def test_converse_is_involutive_transpose():
    m = fneg_matrix()
    assert max_dev(converse(converse(m)), m) == 0.0
    assert np.array_equal(converse(m).data, np.array([[0.05, 0.95], [1.0, 0.0]]))
    i = identity(Range(3))
    assert max_dev(converse(i), i) == 0.0


def test_junc_glues_columns():
    i = identity(Range(2))
    j = junc(i, i)
    assert j.col_dim == Sum(Range(2), Range(2))
    assert np.array_equal(j.data, np.array([[1, 0, 1, 0], [0, 1, 0, 1]], dtype=float))
    with pytest.raises(DimensionError):
        junc(identity(Range(2)), identity(Range(3)))


def test_split_stacks_rows():
    i = identity(Range(2))
    s = split(i, i)
    assert s.row_dim == Sum(Range(2), Range(2))
    assert np.array_equal(s.data, np.array([[1, 0], [0, 1], [1, 0], [0, 1]], dtype=float))


def test_truncated_naturals_in_is_a_permutation():
    n = 5
    zero = from_sharp_fn(lambda _u: 0, UNIT, Range(n + 1))
    succ = from_sharp_fn(lambda j: j + 1, Range(n), Range(n + 1))
    in_mat = junc(zero, succ)
    assert in_mat.is_sharp()
    assert np.array_equal(np.sort(np.argmax(in_mat.data, axis=0)), np.arange(n + 1))
    assert np.array_equal(in_mat.data.sum(axis=1), np.ones(n + 1))


def test_oplus_identity_blocks():
    o = oplus(identity(Range(1)), identity(Range(2)))
    assert np.array_equal(o.data, np.eye(3))
    assert o.is_column_stochastic()


def test_kron_identity_and_vectors():
    assert np.array_equal(kron(identity(Range(2)), identity(Range(3))).data, np.eye(6))
    u = Matrix(UNIT, Range(2), [[0.3], [0.7]])
    v = Matrix(UNIT, Range(2), [[0.5], [0.5]])
    assert np.array_equal(khatri(u, v).data, kron(u, v).data)


def test_khatri_counterexample_first_column():
    from probfold.reference import COUNTEREXAMPLE_K_ROWS, RECONSTRUCTION_COL0

    b, c = Range(2), Range(3)
    k = Matrix(Range(3), Product(b, c), np.array(COUNTEREXAMPLE_K_ROWS))
    recon = khatri(compose(fst_matrix(b, c), k), compose(snd_matrix(b, c), k))
    assert np.max(np.abs(recon.data[:, 0] - np.array(RECONSTRUCTION_COL0))) <= 1e-12


def test_khatri_of_dirac_columns():
    a = from_sharp_fn(lambda _u: 1, UNIT, Range(3))
    b = from_sharp_fn(lambda _u: 2, UNIT, Range(4))
    k = khatri(a, b)
    assert k.entry((1, 2), ()) == 1.0
    assert k.is_sharp()


def test_projections_are_sharp_with_one_hit_per_column():
    f = fst_matrix(Range(2), Range(3))
    assert f.col_dim == Product(Range(2), Range(3))
    assert f.row_dim == Range(2)
    assert f.is_sharp()
    assert np.array_equal(f.data.sum(axis=0), np.ones(6))
    s = snd_matrix(Range(2), Range(3))
    assert s.row_dim == Range(3)
    assert s.is_sharp()


def test_reflection_law_fixed_instance():
    b, c = Range(2), Range(3)
    assert max_dev(khatri(fst_matrix(b, c), snd_matrix(b, c)), identity(Product(b, c))) == 0.0


def test_mat_choice_gives_fneg_and_boundaries():
    m = fneg_matrix()
    want = np.array([[0.05, 1.0], [0.95, 0.0]])
    assert float(np.max(np.abs(m.data - want))) <= 1e-15
    a, b = identity(Range(2)), Matrix(Range(2), Range(2), [[0, 1], [1, 0]])
    assert max_dev(mat_choice(0.0, a, b), b) == 0.0
    assert max_dev(mat_choice(1.0, a, b), a) == 0.0
    with pytest.raises(DimensionError):
        mat_choice(0.5, identity(Range(2)), identity(Range(3)))
    with pytest.raises(DomainError):
        mat_choice(-0.1, a, b)


def test_hadamard_unit_and_sharp_mask():
    m = fneg_matrix()
    ones = Matrix(BOOLS, BOOLS, np.ones((2, 2)))
    assert max_dev(hadamard(m, ones), m) == 0.0
    sharp = from_sharp_fn(lambda b: not b, BOOLS, BOOLS)
    masked = hadamard(m, sharp)
    assert masked.entry(True, False) == pytest.approx(0.95, abs=1e-15)
    assert masked.entry(False, False) == 0.0


def test_from_probfn_of_return_is_identity():
    m = from_probfn(dirac, Range(4), Range(4))
    assert np.array_equal(m.data, np.eye(4))


def test_from_probfn_round_trip():
    rng = np.random.default_rng(7)
    m = random_cs_matrix(rng, Range(4), Range(5))
    back = from_probfn(to_probfn(m), Range(4), Range(5))
    assert max_dev(back, m) <= 1e-12


def test_to_probfn_round_trip_pointwise():
    f = fadd(0.2, 1)
    m = from_probfn(f, Range(3), Range(4))
    g = to_probfn(m)
    for a in range(3):
        want, got = f(a), g(a)
        assert set(got.support) == set(want.support)
        for v, mass in want.items():
            assert got.mass(v) == pytest.approx(mass, abs=1e-12)


def test_to_probfn_builds_each_column_once():
    m = random_cs_matrix(np.random.default_rng(5), EnumDim(("a", "b", "c")), Range(4))
    f = to_probfn(m)
    for a in ("a", "b", "c", "b"):
        assert f(a) == m.column_dist(a)
        assert f(a) is f(a)
    for outside in ("d", 0, ("a",)):
        with pytest.raises(KeyError):
            f(outside)
    g = to_probfn(identity(Range(3)))
    assert g(2) == dirac(2)
    with pytest.raises(KeyError):
        g(3)


def test_from_probfn_truncation_names_the_value():
    with pytest.raises(TruncationError) as err:
        from_probfn(fadd(0.1, 2), Range(4), Range(4))
    assert "4" in str(err.value)


def test_from_probfn_truncated_records_escapes():
    m, escapes = from_probfn_truncated(fadd(0.1, 2), Range(4), Range(4))
    assert set(escapes) == {2, 3}
    assert escapes[2] == [(4, pytest.approx(0.9))]
    assert not m.is_column_stochastic()


def test_a_fault_step_gives_the_columns_of_its_dists():
    # column 5 of fadd(0.1, -2) loses both 5 and 3 from Range(3): the escapes
    # and the first one named keep the order of the Dist at that column, not
    # the order of the choice's branches; so do the pairs that the pairing of
    # two such choices loses from Range(3) x Range(3)
    pairs = Product(Range(3), Range(3))
    for step, rows, lost, first in [
        (fadd(0.1, -2), Range(3), [3, 5], "3"),
        (_paired(fadd(0.1, -2), fadd(0.2, -1)), pairs, [(3, 4), (3, 5), (5, 4), (5, 5)], "(3, 4)"),
    ]:
        per_value = lambda v, step=step: step(v)
        m, escapes = from_probfn_truncated(step, Range(6), rows)
        assert (m, escapes) == from_probfn_truncated(per_value, Range(6), rows)
        assert [v for v, _ in escapes[5]] == lost
        messages = []
        for f in (step, per_value):
            with pytest.raises(TruncationError) as err:
                from_probfn(f, EnumDim((5,)), rows)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == f"support value {first} of input 5 escapes output dim {rows}"
    assert from_probfn_truncated(fadd(0.1, -2), Range(6), Range(3))[1][5] == [(3, 0.9), (5, 0.1)]


def test_entrywise_combinators_name_both_typings_on_a_dim_mismatch():
    m, n = identity(Range(2)), identity(BOOLS)
    typings = "Range(n=2)->Range(n=2) vs Bools()->Bools()"
    for op, prefix in ((hadamard, "hadamard needs identical dims"), (madd, "matrix sum needs identical dims"),
                       (lambda a, b: mat_choice(0.5, a, b), "choice needs identical dims"),
                       (max_dev, "cannot compare")):
        with pytest.raises(DimensionError) as err:
            op(m, n)
        assert str(err.value) == f"{prefix}: {typings}"


def test_sharp_function_escape_names_the_value_and_its_input():
    with pytest.raises(TruncationError) as err:
        from_sharp_fn(lambda a: 5, Range(2), Range(2))
    assert str(err.value) == "support value 5 of input 0 escapes output dim Range(n=2)"


def test_sharp_function_image_that_is_no_support_value_is_a_domain_error():
    with pytest.raises(DomainError, match=r"\{1: 2\}"):
        from_sharp_fn(lambda a: {1: 2}, Range(2), Range(2))


def test_sharp_embedding_is_functorial():
    f = lambda x: (x + 1) % 4
    g = lambda x: (3 * x) % 4
    d = Range(4)
    lhs = compose(from_sharp_fn(f, d, d), from_sharp_fn(g, d, d))
    rhs = from_sharp_fn(lambda x: f(g(x)), d, d)
    assert max_dev(lhs, rhs) == 0.0


def test_cs_closure_under_combinators():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b, c = Range(int(rng.integers(1, 6))), Range(int(rng.integers(1, 6))), Range(int(rng.integers(1, 6)))
        m, n = random_cs_matrix(rng, a, b), random_cs_matrix(rng, a, c)
        p = random_cs_matrix(rng, b, c)
        assert compose(p, m).is_column_stochastic()
        assert junc(m, random_cs_matrix(rng, c, b)).is_column_stochastic()
        assert oplus(m, n).is_column_stochastic()
        assert kron(m, n).is_column_stochastic()
        assert khatri(m, n).is_column_stochastic()
        assert mat_choice(float(rng.random()), m, m).is_column_stochastic()
        assert random_sharp(rng, a, b).is_sharp()


def test_bang_is_the_ones_row():
    b = bang(Range(3))
    assert b.row_dim == UNIT
    assert np.array_equal(b.data, np.ones((1, 3)))


def test_csv_export_plain_and_header():
    m = fneg_matrix()
    assert m.to_csv() == "0.05,1\n0.95,0\n"
    header = m.to_csv(header=True).splitlines()
    assert header[0] == ",False,True"
    assert header[1] == "False,0.05,1"


def test_csv_full_precision_round_trip():
    m = Matrix(Range(1), Range(1), [[0.1 + 0.2]])
    text = m.to_csv().strip()
    assert float(text) == 0.1 + 0.2


def test_column_dist_requires_proper_columns():
    m = fneg_matrix()
    assert m.column_dist(False) == Dist({False: 0.05, True: 0.95})
    half = Matrix(Range(1), Range(2), [[0.5], [0.25]])
    with pytest.raises(Exception):
        half.column_dist(0)


def test_relabel_converts_between_size_equal_dims():
    from probfold.matrix import relabel

    m = identity(Range(2))
    b = relabel(m, col_dim=BOOLS, row_dim=BOOLS)
    assert b.col_dim == BOOLS and np.array_equal(b.data, m.data)
    with pytest.raises(DimensionError):
        relabel(m, col_dim=Range(3))


def test_nested_dim_enumerations():
    d = Sum(Product(Range(2), Range(2)), UNIT)
    assert d.size == 5
    assert d.elements() == (
        inl((0, 0)), inl((0, 1)), inl((1, 0)), inl((1, 1)), inr(()))
