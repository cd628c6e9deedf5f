"""The array kernels, checked bit for bit against the dict path they
replace: the merge of a choice's branches at many states at once
(``matrix._branch_outcomes``), the pair-state kernels of mutual and tupled
for-loops over choices of affine branches and of banana-split folds over
int pairs, and the dense array of folds of shifts over ints, each taking
the layers that ``schemes._affine_runs`` reads from a fold."""

import itertools
import math
import operator
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from probfold import schemes
from probfold.cases import (fadd, fadd_combined, fadd_zero, favg_pair, favg_split, fcat_algebra, fcount,
                            fcount_algebra, fsum, fsum_algebra, ftwice, msq, msq_prime, msql, pipeline_consolidated,
                            sq_algebras, sq_prime_algebras)
from probfold.dist import _affine as _pair_affine
from probfold.dist import (PROPER_TOL, PRUNE_EPS, Dist, DistributionError, _affine_choice, _Choice, _identity,
                           _pair_value, _paired, _plus_one, _plus_two, _Plain, _second, _sum, _zero, dirac, pair)
from probfold.functors import ForLoopF, ListF
from probfold.matrix import _branch_outcomes
from probfold.schemes import Algebra, banana_split, cata_eval, fold_list, for_loop, mutual_eval

_FOR, _LIST = ForLoopF(), ListF()
_NAMED = (_second, _sum, _plus_one, _plus_two)


@contextmanager
def _counted_array_layers(names=("_mutual_arrays", "_tupled_arrays")):
    """Count the array layers run: those of the pair-state kernels, or of the
    kernels ``names``."""
    ran = {"layers": 0}
    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            layer = getattr(schemes, name)

            def counted(*args, layer=layer):
                ran["layers"] += 1
                return layer(*args)
            mp.setattr(schemes, name, counted)
        yield ran


_counted_shift_layers = partial(_counted_array_layers, ("_shift_layer",))


def _outcome(run) -> str:
    try:
        out = run()
        return repr(out.items() if isinstance(out, Dist) else [d.items() for d in out])
    except (DistributionError, TypeError) as err:
        return f"{type(err).__name__}: {err}"


def _opaque(step: _Choice) -> _Choice:
    """The same choice with every branch behind a plain lambda: the dict path.
    A banana-split step gets opaque factors."""
    if type(step) is schemes._Split:
        return schemes._Split(step[2], _opaque(step[3]), _opaque(step[4]))
    return _Choice((w, lambda s, f=f: f(s)) for w, f in step)


def _split(functor, left, right):
    """The banana-split step of two steps."""
    return banana_split(functor, Algebra(functor, dirac(0), left), Algebra(functor, dirac(0), right)).step


def test_pair_state_branches_record_their_forms_and_read_sets():
    forms = {f: _pair_affine(f) for f in _NAMED}
    assert forms == {_second: (0, 1, 0), _sum: (1, 1, 0), _plus_one: (0, 1, 1), _plus_two: (0, 1, 2)}
    assert [forms[f].reads for f in _NAMED] == [(1,), (0, 1), (1,), (1,)]
    assert _pair_affine(partial(_pair_value, -1, 0, 3)) == (-1, 0, 3)
    assert _pair_affine(partial(_pair_value, -1, 0, 3)).reads == (0,)
    for opaque in (lambda s: s[1] + 2, partial(_pair_value, 1, 0, 2.5), partial(_pair_value, True, 0, 0)):
        assert _pair_affine(opaque) is None
    assert sq_algebras(0.1)[1].step[0][1] is _plus_two


_BRANCHES = st.one_of(st.sampled_from(_NAMED),
                      st.builds(partial, st.just(_pair_value), st.integers(-1, 2), st.integers(-1, 2),
                                st.integers(-2, 3)))
_WEIGHTS = st.sampled_from([0.0, 1e-16, 0.1, 0.25, 0.5, 0.7, 1 - 1e-16, 1.0])


@st.composite
def _choices(draw):
    branches = draw(st.lists(_BRANCHES, min_size=1, max_size=3))
    weights = [draw(_WEIGHTS) for _ in branches[1:]]
    assume(math.fsum(weights) <= 1.0)
    return _Choice(zip([1.0 - math.fsum(weights)] + weights, branches))


_INT_BRANCHES = st.one_of(st.sampled_from([_identity, _zero]),
                          st.builds(partial, st.just(operator.add), st.integers(-2, 2)))


@st.composite
def _merge_choices(draw):
    """A state arity and a choice of 1-4 affine branches over it, forms
    repeated, weights 0 and 1e-16 among them."""
    arity = draw(st.sampled_from([1, 2]))
    pool = draw(st.lists(_INT_BRANCHES if arity == 1 else _BRANCHES, min_size=1, max_size=3))
    fs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    weights = [draw(_WEIGHTS) for _ in fs[1:]]
    assume(math.fsum(weights) <= 1.0)
    return arity, _Choice(zip([1.0 - math.fsum(weights)] + weights, fs))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(drawn=_merge_choices())
def test_branch_outcomes_list_the_choice_outcomes_at_every_state_bit_for_bit(drawn):
    """On a grid of states, where heads meet and where they do not, the
    listed (value, weight > 0) pairs are ``_Choice.outcomes`` in order; the
    weights are one run-wide row exactly when the heads share one
    coefficient vector."""
    arity, step = drawn
    weights, forms = _affine_choice(step, arity)
    grid = np.arange(-4, 5, dtype=np.int64)
    states = (grid,) if arity == 1 else (grid[:, None], grid[None, :])
    values, mass = _branch_outcomes((weights, forms))(states)
    assert (mass.ndim == 1) == (len({form[:-1] for form in forms}) == 1)
    shape = (grid.size,) * arity + values.shape[-1:]
    values, mass = np.broadcast_to(values, shape), np.broadcast_to(mass, shape)
    for index in np.ndindex(shape[:-1]):
        state = tuple(grid[list(index)].tolist())
        listed = [(v, m.hex()) for v, m in zip(values[index].tolist(), mass[index].tolist()) if m > 0]
        assert listed == [(v, m.hex()) for v, m in step.outcomes(state[0] if arity == 1 else state)]


def _dists(values):
    return st.dictionaries(values, st.sampled_from([1e-16, 0.5, 1.0, 3.0]), min_size=1, max_size=4).map(
        lambda masses: Dist({v: m / math.fsum(masses.values()) for v, m in masses.items()}))


# far-apart values make a state span more slots than an array layer scans
_INTS = st.one_of(st.integers(-3, 3), st.sampled_from([-10**6, 10**6]))


# an example's loop stops early where its state passes this many entries:
# supports can multiply at every layer, and a small state exercises the kernel
# as well as a large one
_CAP = 1000


def _loop_count(n: int, folds, size) -> int:
    """``n``, or the first loop count of ``folds`` whose state passes _CAP entries."""
    try:
        return next((t for t, state in enumerate(folds) if size(state) > _CAP), n)
    except (DistributionError, TypeError):  # the fold fails before it grows that large
        return n


@settings(derandomize=True, max_examples=100, deadline=None)
@given(h=_choices(), k=_choices(), f0=_dists(_INTS), g0=_dists(_INTS), n=st.integers(0, 12))
def test_mutual_loops_on_arrays_give_the_dict_path_bit_for_bit(h, k, f0, g0, n):
    h_ref, k_ref = Algebra(_FOR, f0, _opaque(h)), Algebra(_FOR, g0, _opaque(k))
    n = _loop_count(n, schemes._mutual_folds(_FOR, h_ref, k_ref, n), lambda fg: len(fg[0]) * len(fg[1]))
    with _counted_array_layers() as ran:
        reference = _outcome(lambda: mutual_eval(_FOR, h_ref, k_ref, n))
        assert ran["layers"] == 0
        assert _outcome(lambda: mutual_eval(_FOR, Algebra(_FOR, f0, h), Algebra(_FOR, g0, k), n)) == reference
    assert ran["layers"] >= (n > 0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(h=_choices(), k=_choices(), d0=_dists(st.tuples(_INTS, _INTS)), n=st.integers(0, 12))
def test_tupled_loops_on_arrays_give_the_dict_path_bit_for_bit(h, k, d0, n):
    step = _paired(_opaque(h), _opaque(k))
    n = _loop_count(n, schemes._folds(itertools.repeat(step, n), d0), len)
    with _counted_array_layers() as ran:
        reference = _outcome(lambda: cata_eval(_FOR, Algebra(_FOR, d0, step), n))
        assert ran["layers"] == 0
        assert _outcome(lambda: cata_eval(_FOR, Algebra(_FOR, d0, _paired(h, k)), n)) == reference
    assert ran["layers"] >= (n > 0)


def _dict_path(algebras: tuple[Algebra, Algebra], n: int) -> Dist:
    return mutual_eval(_FOR, *map(_reference, algebras), n)[0]


_DRIFT_RUNS = {
    "arrays": (partial(msq, 0.1), partial(msq_prime, 0.1, 0.1)),
    "dict path": (partial(_dict_path, sq_algebras(0.1)), partial(_dict_path, sq_prime_algebras(0.1, 0.1))),
}


@pytest.mark.parametrize("path", list(_DRIFT_RUNS))
def test_the_drift_error_comes_at_the_same_loop_count_with_the_same_text(path):
    # the rounding drift of re-pairing marginals crosses PROPER_TOL at msq n=29
    # and msq' n=27; a kernel that renormalised, or skipped a layer's check,
    # would pass there or name another total
    sq, sq_prime = _DRIFT_RUNS[path]
    with _counted_array_layers() as ran:
        sq(28)
        sq_prime(26)
        for run, n, total in ((sq, 29, "1.0000000019355464"), (sq_prime, 27, "1.0000000013284296")):
            with pytest.raises(DistributionError) as err:
                run(n)
            assert str(err.value) == f"total mass {total} is not 1 (within 1e-09)"
    assert ran["layers"] == (28 + 26 + 29 + 27 if path == "arrays" else 0)


def test_the_square_programs_run_every_layer_on_arrays():
    for run in (msq, msql):
        with _counted_array_layers() as ran:
            run(0.1, 5)
        assert ran["layers"] == 5


def _reference(alg: Algebra) -> Algebra:
    return Algebra(_FOR, alg.base, _opaque(alg.step) if type(alg.step) is _Choice else alg.step)


def _fallbacks():
    h, k = sq_algebras(0.3)
    yield "bool base", Algebra(_FOR, dirac(True), h.step), k
    yield "near 2**62", Algebra(_FOR, dirac(2**62), h.step), Algebra(_FOR, dirac(2**62), k.step)
    # f grows by about 2**61 a layer: its fourth layer would leave int64
    yield "leaves int64 later", h, Algebra(_FOR, dirac(2**61), k.step)
    yield "plain step", Algebra(_FOR, h.base, _Plain(h.step)), k


@pytest.mark.parametrize("label, h, k", list(_fallbacks()), ids=lambda x: x if isinstance(x, str) else "")
def test_what_the_kernel_cannot_hold_takes_the_dict_path_unchanged(label, h, k):
    n = 6
    tupled = lambda h, k: Algebra(_FOR, pair(h.base, k.base), _paired(h.step, k.step))
    with _counted_array_layers() as ran:
        results = mutual_eval(_FOR, h, k, n)
        folded = cata_eval(_FOR, tupled(h, k), n)
    assert ran["layers"] == 0
    h_ref, k_ref = _reference(h), _reference(k)
    assert [d.items() for d in results] == [d.items() for d in mutual_eval(_FOR, h_ref, k_ref, n)]
    assert folded.items() == cata_eval(_FOR, tupled(h_ref, k_ref), n).items()
    assert all(type(v) is int or type(v) is bool for d in results for v in d.support)
    assert (max(results[0].support) >= 2**63) == label.startswith(("near", "leaves"))


def test_a_coefficient_outside_int64_takes_the_dict_path():
    # f stays 0, so 2**70 * f is 0, but numpy cannot take 2**70 as an int64:
    # the array layer raised OverflowError
    zero = Algebra(_FOR, dirac(0), _Choice(((1.0, partial(_pair_value, 0, 0, 0)),)))
    doubling = Algebra(_FOR, dirac(0), _Choice(((0.5, partial(_pair_value, 2**70, 2, 0)),
                                                (0.5, partial(_pair_value, 2**70, 2, 1)))))
    f, g = mutual_eval(_FOR, zero, doubling, 9)
    assert f.items() == ((0, 1.0),)
    assert g.items() == tuple((v, 2.0**-9) for v in range(512))


def test_a_loop_that_stays_in_int64_runs_on_arrays():
    h, k = sq_algebras(0.3)
    k = Algebra(_FOR, dirac(2**61), k.step)
    with _counted_array_layers() as ran:
        results = mutual_eval(_FOR, h, k, 3)
    assert ran["layers"] == 3
    assert [d.items() for d in results] == [d.items() for d in mutual_eval(_FOR, _reference(h), _reference(k), 3)]


def test_states_spanning_2_63_slots_or_more_run_on_arrays_unchanged():
    # no slot number in the box the values span fits in int64: the layer
    # sorts the values themselves
    spread = _Choice(((0.3, partial(_pair_value, 1, 0, 5)), (0.7, partial(_pair_value, -1, 0, -3))))
    shift = _Choice(((0.4, _second), (0.6, partial(_pair_value, 0, 1, 7))))
    pairs = Dist({(-2**40, -2**41): 0.25, (2**40, 2**41): 0.5, (3, -2**35): 0.25})
    ends = Algebra(_FOR, Dist({-2**62: 0.5, 2**62: 0.5}), _Choice(((0.5, partial(_pair_value, 1, 0, 0)),
                                                                   (0.5, partial(_pair_value, -1, 0, 0)))))
    fixed = Algebra(_FOR, dirac(0), _Choice(((1.0, _second),)))
    with _counted_array_layers() as ran:
        folded = cata_eval(_FOR, Algebra(_FOR, pairs, _paired(spread, shift)), 5)
        results = mutual_eval(_FOR, ends, fixed, 3)
    assert ran["layers"] == 5 + 3
    assert folded.items() == cata_eval(_FOR, Algebra(_FOR, pairs, _paired(_opaque(spread), _opaque(shift))), 5).items()
    assert [d.items() for d in results] == [d.items() for d in mutual_eval(_FOR, _reference(ends), fixed, 3)]


def test_array_results_hold_python_ints_and_name_no_numpy_type():
    h, k = sq_algebras(0.2)
    with _counted_array_layers() as ran:
        f, g = mutual_eval(_FOR, h, k, 8)
        d = cata_eval(_FOR, Algebra(_FOR, pair(h.base, k.base), _paired(h.step, k.step)), 8)
        with pytest.raises(DistributionError) as err:
            msq_prime(0.1, 0.1, 27)
    assert ran["layers"] > 0
    assert all(type(v) is int for v in f.support + g.support)
    assert all(type(v) is tuple and type(v[0]) is type(v[1]) is int for v in d.support)
    assert all(type(m) is float for _, m in f.items() + g.items() + d.items())
    for text in (repr(f), repr(g), repr(d), str(err.value)):
        assert "np." not in text and "int64" not in text


# --- folds of shifts over ints on one dense mass array ---------------------------

_SHIFT_WEIGHTS = st.sampled_from([0.0, 1e-16, PRUNE_EPS, 0.1, 0.25, 0.5, 0.7])
# a total off by up to PROPER_TOL passes the choice's check, and the loop's
# drift error fires within a few layers
_DRIFTS = st.one_of(st.just(0.0), st.sampled_from([0.5 * PROPER_TOL, 0.99 * PROPER_TOL, -0.99 * PROPER_TOL]))


@st.composite
def _shift_choices(draw, branches):
    fs = draw(st.lists(branches, min_size=1, max_size=4))
    weights = [draw(_SHIFT_WEIGHTS) for _ in fs[1:]]
    first = 1.0 - math.fsum(weights) + draw(_DRIFTS)
    assume(0.0 <= first <= 1.0)
    return _Choice(zip([first] + weights, fs))


_ADDS = st.integers(-3, 5).flatmap(lambda c: st.sampled_from([partial(operator.add, c)] + [_identity] * (c == 0)))
_LIST_BRANCHES = st.one_of(st.sampled_from(_NAMED),
                           st.builds(partial, st.just(_pair_value), st.integers(-1, 2), st.just(1), st.integers(-3, 5)))
# branches that pass over an element that is not an int
_LETTER_BRANCHES = st.one_of(st.sampled_from([_second, _plus_one, _plus_two]), _LIST_BRANCHES)


@st.composite
def _list_folds(draw):
    """A step of shifts and an input of ints or letters."""
    xs = draw(st.one_of(st.lists(st.integers(-3, 5), min_size=1, max_size=12), st.text("abc", min_size=1, max_size=12)))
    return draw(_shift_choices(_LETTER_BRANCHES if isinstance(xs, str) else _LIST_BRANCHES)), xs


@st.composite
def _int_bases(draw):
    """A base over ints: values within 8 of one anchor, negative or 10**30
    included, or now and then two anchors far apart."""
    anchors = draw(st.lists(st.sampled_from([0, -7, 10**30, -10**30]), min_size=1, max_size=2, unique=True))
    return draw(_dists(st.sampled_from(anchors).flatmap(lambda a: st.integers(a, a + 7))))


def _near(base: Dist) -> bool:
    return max(base.support) - min(base.support) < 8


def _check_layers(ran: int, outcome: str, layers: int, taken: bool) -> None:
    """The kernel ran every layer, or those up to the failing one, or none; and
    at least one where it must take the fold."""
    assert ran == 0 or ran == layers or (outcome.startswith("DistributionError") and ran < layers)
    assert ran > 0 or not (taken and layers)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(step=_shift_choices(_ADDS), base=_int_bases(), n=st.integers(0, 40))
def test_for_loops_of_shifts_on_a_dense_array_give_the_dict_path_bit_for_bit(step, base, n):
    with _counted_shift_layers() as ran:
        reference = _outcome(lambda: for_loop(_opaque(step), base, n))
        assert ran["layers"] == 0
        outcome = _outcome(lambda: for_loop(step, base, n))
    assert outcome == reference
    # a layer spans at most 8 more slots than it has shifts beyond the first
    _check_layers(ran["layers"], outcome, n, _near(base))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(fold=_list_folds(), base=_int_bases())
def test_list_folds_of_shifts_on_a_dense_array_give_the_dict_path_bit_for_bit(fold, base):
    step, xs = fold
    with _counted_shift_layers() as ran:
        reference = _outcome(lambda: fold_list(_opaque(step), base, xs))
        assert ran["layers"] == 0
        outcome = _outcome(lambda: fold_list(step, base, xs))
    assert outcome == reference
    scales = {_pair_affine(f)[0] for _, f in step}
    named = not any(type(f) is partial for _, f in step)
    _check_layers(ran["layers"], outcome, len(xs),
                  _near(base) and len(scales) == 1 and (named or not isinstance(xs, str)))


def test_the_shift_cases_run_every_layer_on_the_dense_array():
    runs = {"ftwice": (partial(ftwice, 0.1, 7), 7), "fcount": (partial(fcount, 0.1, "abcde"), 5),
            "pipeline_consolidated": (partial(pipeline_consolidated, 0.1, 0.2, "abc"), 3),
            "fsum": (partial(fsum, 0.1, [1, 2, 3]), 3), "favg_pair": (partial(favg_pair, 0.1, 0.2, [1, 2]), 4),
            # a banana-split fold over int pairs runs on the pair-state kernel
            "favg_split": (partial(favg_split, 0.1, 0.2, [1, 2]), 2),
            "favg_split, 14 ints": (partial(favg_split, 0.12, 0.13, [8, 8, 8, 7, 7, 5, 8, 7, 5, 6, 4, 1, 5, 3]), 14)}
    for name, (run, layers) in runs.items():
        with _counted_shift_layers() as ran, _counted_array_layers() as paired:
            run()
        assert (ran["layers"], paired["layers"]) == ((0, layers) if "split" in name else (layers, 0)), name


def test_a_fold_of_shifts_with_no_layers_gives_its_base():
    base = Dist({-2: 0.25, 10**30: 0.75})
    assert for_loop(fadd(0.1, 2), base, 0) is base
    assert fold_list(fsum_algebra(0.1).step, base, "") is base
    # the pair-state kernels leave a fold with no layers to the dict path too
    h, k = sq_algebras(0.1)
    pairs = Dist({(0, 1): 0.5, (2, 3): 0.5})
    assert cata_eval(_FOR, Algebra(_FOR, pairs, _paired(h.step, k.step)), 0) is pairs
    assert for_loop(_split(_FOR, fadd(0.1, 2).apply, fadd(0.2, 1).apply), pairs, 0) is pairs
    assert fold_list(_split(_LIST, fsum_algebra(0.1).step, fcount_algebra(0.2).step), pairs, []) is pairs
    f, g = mutual_eval(_FOR, h, k, 0)
    assert f is h.base and g is k.base


def _shift_fallbacks():
    """Folds no array kernel takes: (label, run, step)."""
    yield "bool base", lambda s: for_loop(s, dirac(True), 3), fadd(0.1, 2).apply
    yield "zero branch", lambda s: for_loop(s, dirac(3), 4), fadd_zero(0.1, 2).apply
    yield "zero and identity branches", lambda s: for_loop(s, dirac(3), 4), fadd_combined(0.1, 0.2, 2).apply
    yield "float elements under _sum", lambda s: fold_list(s, dirac(0), [1.5, 2, 3]), fsum_algebra(0.1).step
    yield "bool element under _sum", lambda s: fold_list(s, dirac(0), [True, 2]), fsum_algebra(0.1).step
    # 0*e is 0.0 for a float e: every value becomes a float
    yield "0*e of a float element", lambda s: fold_list(s, dirac(0), [1.5, 2]), _Choice(
        ((0.5, partial(_pair_value, 0, 1, 2)), (0.5, _second)))
    yield "fcat's _cons", lambda s: fold_list(s, dirac(""), "abc"), fcat_algebra(0.1, "abc").step
    # 2**40 slots for four values
    yield "huge addend", lambda s: for_loop(s, dirac(0), 3), fadd(0.1, 2**40).apply
    sum_count = _split(_LIST, fsum_algebra(0.1).step, fcount_algebra(0.2).step)
    yield "split: float element", lambda s: fold_list(s, dirac((0, 0)), [1.5, 2, 3]), sum_count
    yield "split: bool base", lambda s: fold_list(s, dirac((True, 0)), [1, 2]), sum_count
    # the element enters the sum's component as the constant 2**70
    yield "split: element beyond int64", lambda s: fold_list(s, dirac((0, 0)), [2**70, 1]), sum_count


@pytest.mark.parametrize("label, run, step", list(_shift_fallbacks()), ids=lambda x: x if isinstance(x, str) else "")
def test_what_the_dense_kernel_cannot_hold_takes_the_dict_path_unchanged(label, run, step):
    with _counted_array_layers(("_shift_layer", "_mutual_arrays", "_tupled_arrays")) as ran:
        outcome = _outcome(lambda: run(step))
    assert ran["layers"] == 0
    assert outcome == _outcome(lambda: run(_opaque(step)))


# --- banana-split folds over int pairs on the pair-state kernel ----------------

def _split_folds_beyond_shifts():
    """Banana-split folds that are no folds of shifts, as the dense kernel
    required: (label, run, step, layers)."""
    yield "zero branch in one factor", lambda s: for_loop(s, dirac((3, 1)), 4), _split(
        _FOR, fadd(0.1, 2).apply, fadd_zero(0.1, 1).apply), 4
    # 2**40 slots for a few values
    yield "huge addend", lambda s: fold_list(s, dirac((0, 0)), [2**40, 1, 2]), _split(
        _LIST, fsum_algebra(0.1).step, fcount_algebra(0.2).step), 3
    # 2*PRUNE_EPS * 0.4 drops and 2*PRUNE_EPS * 0.6 stays: three of four shifts
    yield "light product pruned", lambda s: for_loop(s, dirac((0, 0)), 3), _split(
        _FOR, _Choice(((2 * PRUNE_EPS, partial(operator.add, 1)), (1 - 2 * PRUNE_EPS, _identity))),
        fadd(0.4, 1).apply), 3


@pytest.mark.parametrize("label, run, step, layers", list(_split_folds_beyond_shifts()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_split_folds_run_every_layer_on_the_pair_kernel(label, run, step, layers):
    with _counted_array_layers() as ran, _counted_shift_layers() as shifted:
        outcome = _outcome(lambda: run(step))
    assert (ran["layers"], shifted["layers"]) == (layers, 0)
    assert outcome == _outcome(lambda: run(_opaque(step)))


@st.composite
def _pair_bases(draw):
    """A base over int pairs, each component within 8 of an anchor: 0, -7 or 10**30."""
    anchors = [draw(st.sampled_from([0, -7, 10**30])) for _ in range(2)]
    return draw(_dists(st.tuples(*(st.integers(a, a + 7) for a in anchors))))


def _fits(base: Dist) -> bool:
    """Whether the pair-state kernel must take a banana-split fold of two
    choices of affine branches from ``base``: it holds int pairs, and every
    value stays within int64. The drawn layers, at most 12 shifts by at most
    5 or 8 scalings by at most 2, keep a base below 2**40 within it."""
    return all(type(x) is int and abs(x) < 2**40 for v in base.support for x in v)


# reset and scaled factor branches, which the pair-state kernel takes and the
# dense one did not: a for-loop's reset to 0, a list fold's (a, b, c) for b
# other than 1
_SPLIT_ADDS = st.one_of(_ADDS, st.just(_zero))
_SCALED = st.builds(partial, st.just(_pair_value), st.integers(-1, 2), st.sampled_from([-1, 0, 2]), st.integers(-3, 5))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(left=_shift_choices(_SPLIT_ADDS), right=_shift_choices(_SPLIT_ADDS), base=_pair_bases(), n=st.integers(0, 12))
def test_split_for_loops_on_the_pair_kernel_give_the_dict_path_bit_for_bit(left, right, base, n):
    step = _split(_FOR, left, right)
    n = _loop_count(n, schemes._folds(itertools.repeat(_opaque(step), n), base), len)
    with _counted_array_layers() as ran, _counted_shift_layers() as shifted:
        reference = _outcome(lambda: for_loop(_opaque(step), base, n))
        assert ran["layers"] == 0
        outcome = _outcome(lambda: for_loop(step, base, n))
    assert outcome == reference
    assert shifted["layers"] == 0
    _check_layers(ran["layers"], outcome, n, _fits(base))


@st.composite
def _split_list_folds(draw):
    """Two affine factor steps and an input of ints or letters."""
    xs = draw(st.one_of(st.lists(st.integers(-3, 5), min_size=1, max_size=8), st.text("abc", min_size=1, max_size=8)))
    branches = st.one_of(_LETTER_BRANCHES if isinstance(xs, str) else _LIST_BRANCHES, _SCALED)
    return _split(_LIST, draw(_shift_choices(branches)), draw(_shift_choices(branches))), xs


@settings(derandomize=True, max_examples=60, deadline=None)
@given(fold=_split_list_folds(), base=_pair_bases())
def test_split_list_folds_on_the_pair_kernel_give_the_dict_path_bit_for_bit(fold, base):
    step, xs = fold
    kept = _loop_count(len(xs), schemes._folds(_LIST.layers(_opaque(step), xs), base), len)
    xs = xs[len(xs) - kept:]  # the innermost elements, folded first
    with _counted_array_layers() as ran, _counted_shift_layers() as shifted:
        reference = _outcome(lambda: fold_list(_opaque(step), base, xs))
        assert ran["layers"] == 0
        outcome = _outcome(lambda: fold_list(step, base, xs))
    assert outcome == reference
    assert shifted["layers"] == 0
    # over letters only named branches, which ignore the element, are taken
    named = not any(type(f) is partial or _pair_affine(f)[0] for factor in step[3:] for _, f in factor)
    _check_layers(ran["layers"], outcome, len(xs), (named or not isinstance(xs, str)) and _fits(base))


def test_a_split_step_keeps_its_outcomes_and_its_factors():
    left, right = fsum_algebra(0.1).step, fcount_algebra(0.2).step
    step = _split(_LIST, left, right)
    assert step[3:] == (left, right)
    for state in [(3, (0, 0)), (-2, (5, 7))]:
        e, (t, c) = state
        assert step(state) == pair(left((e, t)), right((e, c)))
        assert step.outcomes(state) == [((b, d), mb * mc) for b, mb in left.outcomes((e, t))
                                        for d, mc in right.outcomes((e, c))]
