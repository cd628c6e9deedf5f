"""The array kernel of for-loops over choices of affine pair-state branches,
checked bit for bit against the dict path it replaces."""

import itertools
import math
from contextlib import contextmanager
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from probfold import schemes
from probfold.cases import msq, msq_prime, msql, sq_algebras, sq_prime_algebras
from probfold.dist import _affine as _pair_affine
from probfold.dist import (Dist, DistributionError, _Choice, _pair_value, _paired, _plus_one, _plus_two, _Plain,
                           _second, _sum, dirac, pair)
from probfold.functors import ForLoopF
from probfold.schemes import Algebra, cata_eval, mutual_eval

_FOR = ForLoopF()
_NAMED = (_second, _sum, _plus_one, _plus_two)


@contextmanager
def _counted_array_layers():
    """Count the array layers run."""
    ran = {"layers": 0}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_mutual_arrays", "_tupled_arrays"):
            layer = getattr(schemes, name)

            def counted(*args, layer=layer):
                ran["layers"] += 1
                return layer(*args)
            mp.setattr(schemes, name, counted)
        yield ran


def _outcome(run) -> str:
    try:
        out = run()
        return repr(out.items() if isinstance(out, Dist) else [d.items() for d in out])
    except DistributionError as err:
        return f"{type(err).__name__}: {err}"


def _opaque(step: _Choice) -> _Choice:
    """The same choice with every branch behind a plain lambda: the dict path."""
    return _Choice((w, lambda s, f=f: f(s)) for w, f in step)


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
    except DistributionError:
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
