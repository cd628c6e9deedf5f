"""Recursion schemes in both semantics, plus the transformation engine.

Monadic evaluation (exact distribution arithmetic) is the primary semantics
for unbounded carriers; the matrix semantics works over caller-supplied
truncation dims. The transformation ops -- tupling of mutual recursion,
banana-split, base-case choice, fold fusion -- either carry machine-checked
side conditions or need none.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, islice
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .dims import _MEMO_SIZE, Dim, Range, UNIT
from .dist import Dist, DomainError, _after, _paired, bind, choice, dirac, marginals, pair, tv_distance
from .functors import ForLoopF, FunctorDesc, ListF
from .matrix import (
    CS_TOL,
    Matrix,
    TruncationError,
    _Fresh,
    _zeros,
    fst_matrix,
    khatri,
    madd,
    snd_matrix,
)

_FOR, _LIST = ForLoopF(), ListF()
_fst, _snd = itemgetter(0), itemgetter(1)

# the fixpoint scatter-adds a body's nonzeros when nnz * _SPARSE_FILL <= M*M:
# on a 2-core box, bincount over random columns beat BLAS gemv below 3% fill
# at M=200, 4% at M=400 and M=1201, and 8% at M=601
_SPARSE_FILL = 32


def _folds(layers: Iterable[Callable], base: Any, join: Callable | None = None) -> Iterator:
    """The one fold loop: ``base``, then each of ``layers`` (innermost first)
    joined on in turn, by ``bind`` unless ``join`` is given. It yields the fold
    of every sub-input on its way -- loop counts 0..n, a list's suffixes
    shortest first -- so a caller that needs several of them runs one chain."""
    # ``bind`` is looked up per call, not bound as a default: a caller that
    # rebinds the module's name (the benchmark's tracer) reaches every fold
    return accumulate(layers, join if join is not None else bind, initial=base)


def _last(folds: Iterator) -> Any:
    """The last value of a fold loop: the fold of the whole input."""
    return deque(folds, maxlen=1)[0]


def _fold(functor: FunctorDesc, step: Callable[[Any], Dist], base: Dist, value: Any) -> Dist:
    """The monadic catamorphism: bind the layers ``functor`` unfolds from
    ``value``, innermost first, starting from ``base``."""
    return _last(_folds(functor.layers(step, value), base))


def _fold_each(alg: "Algebra", inputs: Iterable[Any]) -> list[Dist]:
    """The fold of each of ``inputs``. Each input's loop resumes from its
    longest sub-input already folded, so every distinct sub-input is folded
    once."""
    functor, memo, folds = alg.functor, {}, []
    for value in inputs:
        subs = functor._sub_inputs(value)
        known = next((i for i in range(len(subs) - 1, -1, -1) if subs[i] in memo), None)
        base, start = (alg.base, 0) if known is None else (memo[subs[known]], known)
        layers = islice(functor.layers(alg.step, value), start, None)
        memo.update(zip(subs[start:], _folds(layers, base)))
        folds.append(memo[subs[-1]])
    return folds


def for_loop(body: Callable[[Any], Dist], init: Dist, n: int) -> Dist:
    """n-fold Kleisli iteration of ``body`` starting from ``init``."""
    return _fold(_FOR, body, init, n)


def fold_list(step: Callable[[tuple], Dist], base: Dist, xs: Sequence) -> Dist:
    """Right fold in the Kleisli category: step consumes (element, state)."""
    return _fold(_LIST, step, base, xs)


@dataclass(frozen=True)
class Algebra:
    """An F-algebra in junc form [base | step].

    ``base`` is the distribution for the nullary case; ``step`` consumes a
    state (ForLoopF) or an (element, state) pair (ListF) and returns a Dist
    over the carrier.
    """

    functor: FunctorDesc
    base: Dist
    step: Callable[[Any], Dist]


def cata_eval(functor: FunctorDesc, alg: Algebra, value: Any) -> Dist:
    """Evaluate the catamorphism of ``alg`` on one initial-algebra value."""
    if alg.functor != functor:
        raise DomainError(f"algebra functor {alg.functor} does not match {functor}")
    return _fold(functor, alg.step, alg.base, value)


def matrix_cata_fixpoint(body: Matrix, init: Matrix, n_max: int, m_dim: Dim,
                         escapes: dict[int, list[tuple[Any, float]]] | None = None) -> Matrix:
    """For-loop semantics as a matrix fixpoint over inputs 0..n_max.

    The result k solves k . in = [init | body . k_prev]: column 0 is ``init``
    and column j+1 is ``body`` applied to column j, the distribution after
    j+1 loop iterations. It is computed by that column recurrence, one
    matrix-vector product per column: a scatter-add over the body's nonzeros
    when at most one entry in ``_SPARSE_FILL`` is nonzero, else a dense
    product. Before a column feeds the next, any positive mass at a state
    listed in ``escapes`` (from ``from_probfn_truncated``) raises
    TruncationError naming the escaped value, with no threshold; mass lost
    through a body column that sums to less than one raises once it exceeds
    1e-12. An ``init`` that does not sum to one, an ``escapes`` key that is
    not a state's index, and a body column that sums to more than one (it
    creates mass) are each a DomainError, raised before any column is computed.
    Mass created within the tolerance compounds over the loop: a result column
    summing to more than one is a DomainError naming its input, and one that
    lost mass, step by step below 1e-12, a TruncationError.
    """
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 0:
        raise DomainError(f"n_max must be a natural number, got {n_max!r}")
    if n_max >= sys.maxsize:  # columns 0..n_max must stay indexable
        raise DomainError(f"n_max must be below {sys.maxsize}, got {n_max}")
    if body.col_dim != m_dim or body.row_dim != m_dim:
        raise DomainError(f"loop body must be square over {m_dim}, got {body.col_dim}->{body.row_dim}")
    if init.col_dim != UNIT or init.row_dim != m_dim:
        raise DomainError(f"init must be a column 1 -> {m_dim}, got {init.col_dim}->{init.row_dim}")
    mass = float(init.data.sum())
    if abs(mass - 1.0) > CS_TOL:
        raise DomainError(f"init must be a distribution over {m_dim}, but it sums to {mass!r}")
    bad = [key for key in escapes or () if key not in range(m_dim.size)]
    if bad:
        raise DomainError(f"escapes key {bad[0]!r} is not the index of a state of {m_dim}")
    sums = body.data.sum(axis=0)
    _check_no_mass_created(sums, m_dim, "state")
    cols = Range(n_max + 1)
    first = _zeros(cols, m_dim)
    steps = _zeros(cols, m_dim)
    deficits = 1.0 - sums
    escaping = np.array(sorted(escapes or ()), dtype=np.intp)
    sparse = np.count_nonzero(body.data) * _SPARSE_FILL <= body.data.size
    if sparse:  # few nonzeros, as a choice of sharp functions has
        dst, src = np.nonzero(body.data)  # entry (dst, src) moves mass from src to dst
        weights = body.data[dst, src]
    first[:, 0] = init.data[:, 0]
    col = first[:, 0]
    for j in range(1, n_max + 1):
        reached = col[escaping]
        if np.any(reached > 0.0):
            value = escapes[int(escaping[np.argmax(reached)])][0][0]
            raise TruncationError(f"mass would escape {m_dim} at value {value!r}")
        if deficits @ col > 1e-12:
            state = int(np.argmax(deficits * col))
            raise TruncationError(
                f"loop body loses mass from state {m_dim.elements()[state]!r} outside {m_dim}"
            )
        if sparse:
            col = np.bincount(dst, weights=weights * col[src], minlength=m_dim.size)
        else:
            col = body.data @ col
        steps[:, j] = col
    # both parts are this function's own arrays of products of checked
    # entries; madd's check catches any that overflowed
    k = madd(Matrix(cols, m_dim, _Fresh(first)), Matrix(cols, m_dim, _Fresh(steps)))
    _check_no_mass_created(k.data.sum(axis=0), cols, "input")
    if not k.is_column_stochastic(CS_TOL):
        raise TruncationError(f"fixpoint result is not column-stochastic over {m_dim}")
    return k


def _check_no_mass_created(sums: np.ndarray, dim: Dim, what: str) -> None:
    """DomainError naming the first column of ``dim`` whose total exceeds one."""
    created = np.flatnonzero(sums > 1.0 + CS_TOL)
    if created.size:
        i = int(created[0])
        raise DomainError(f"loop body creates mass: the column of {what} {dim.elements()[i]!r} "
                          f"sums to {float(sums[i])!r}")


@lru_cache(maxsize=_MEMO_SIZE)
def unzip(functor: FunctorDesc, b: Dim, c: Dim) -> Matrix:
    """The sharp arrow F(B*C) -> (F B)*(F C) pairing the functorial projections.

    It depends only on its arguments, so it is memoised like the structural
    matrices it is built from."""
    return khatri(functor.on_matrix(fst_matrix(b, c)), functor.on_matrix(snd_matrix(b, c)))


def banana_split(functor: FunctorDesc, alg_f: Algebra, alg_g: Algebra) -> Algebra:
    """Fuse two folds over the same input into one fold on pairs.

    Valid unconditionally (no sharpness needed): the combined step unzips
    its input, feeding f's component and g's component independently, which
    is exactly the kron-after-unzip algebra on the product carrier. Two
    choice steps combine into a step that ``bind`` still expands.
    """
    if alg_f.functor != functor or alg_g.functor != functor:
        raise DomainError("banana_split needs both algebras over the given functor")

    step = _paired(_after(alg_f.step, partial(functor.on_value, _fst)),
                   _after(alg_g.step, partial(functor.on_value, _snd)))
    return Algebra(functor, pair(alg_f.base, alg_g.base), step)


def mutual_eval(functor: FunctorDesc, h: Algebra, k: Algebra, value: Any) -> tuple[Dist, Dist]:
    """Evaluate a mutually recursive pair of functions, each step drawing the
    recursive occurrences independently (the pre-tupling semantics)."""
    if h.functor != functor or k.functor != functor:
        raise DomainError("mutual_eval needs both algebras over the given functor")
    return _last(_mutual_folds(functor, h, k, value))


def _mutual_folds(functor: FunctorDesc, h: Algebra, k: Algebra,
                  value: Any) -> Iterator[tuple[Dist, Dist]]:
    """The fold loop of mutual evaluation: the pair of both functions' results
    at every sub-input of ``value``, innermost first."""
    layers = zip(functor.layers(h.step, value), functor.layers(k.step, value))
    return _folds(layers, (h.base, k.base), _mutual_layer)


def _mutual_layer(fg: tuple[Dist, Dist], layer: tuple[Callable, Callable]) -> tuple[Dist, Dist]:
    """One layer of mutual recursion: both steps draw the recursive
    occurrences independently, from the pair of the previous results."""
    joint = pair(*fg)
    return bind(joint, layer[0]), bind(joint, layer[1])


@dataclass(frozen=True)
class SideConditionReport:
    """Outcome of the empirical sharpness check behind mutual-recursion tupling."""

    fst_sharp: bool
    snd_sharp: bool
    holds: bool
    tested_inputs: tuple
    message: str


def tupled_from_mutual(functor: FunctorDesc, h: Algebra, k: Algebra,
                       test_inputs: Iterable[Any]) -> tuple[Algebra, SideConditionReport]:
    """Tupling transformation: merge a mutually recursive pair into one fold.

    Returns the pair-carrier algebra together with a report on the sharpness
    side condition, checked empirically over ``test_inputs``: if one
    projection of the tupled fold is sharp there, the transformation is
    guaranteed distribution-preserving; otherwise it may change behaviour.
    With no test inputs the condition is reported unchecked and ``holds`` is
    false. Two choice steps tuple into a step that ``bind`` still expands.
    """
    if h.functor != functor or k.functor != functor:
        raise DomainError("tupled_from_mutual needs both algebras over the given functor")

    tupled = Algebra(functor, pair(h.base, k.base), _paired(h.step, k.step))

    tested = tuple(test_inputs)
    fst_sharp = snd_sharp = bool(tested)
    for fold in _fold_each(tupled, tested):
        left, right = marginals(fold)
        fst_sharp = fst_sharp and left.is_dirac()
        snd_sharp = snd_sharp and right.is_dirac()
    holds = fst_sharp or snd_sharp
    if not tested:
        message = "side condition unchecked: no test inputs were given"
    elif holds:
        which = "first" if fst_sharp else "second"
        message = f"sharp {which} projection: side condition holds on tested range"
    else:
        message = ("side condition fails on tested range (neither projection is "
                   "sharp): tupling may change the distribution")
    return tupled, SideConditionReport(fst_sharp, snd_sharp, holds, tested, message)


def base_choice_split(f: Callable[[Any], Dist], a: Any, b: Any, p: float, n: int) -> tuple[Dist, Dist]:
    """Both sides of the base-case fault-distribution law at iteration n.

    Left: iterate from the p-choice of the two base values. Right: p-choice
    of the two separately iterated runs. The law says they are equal.
    """
    lhs = for_loop(f, choice(p, dirac(a), dirac(b)), n)
    rhs = choice(p, for_loop(f, dirac(a), n), for_loop(f, dirac(b), n))
    return lhs, rhs


@dataclass(frozen=True)
class FusionReport:
    """Outcome of a fold-fusion check: side condition plus end-to-end equality."""

    side_condition_dev: float
    pipeline_dev: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.side_condition_dev <= self.tol and self.pipeline_dev <= self.tol


def fold_fusion_check(post: Callable[[Any], Dist], g_alg: Algebra, candidate: Algebra,
                      test_inputs: Iterable[Sequence], tol: float = 1e-9,
                      carrier_values: Iterable[Any] | None = None,
                      alphabet: Iterable[Any] | None = None) -> FusionReport:
    """Check that ``post`` composed with the fold of ``g_alg`` is the fold of
    ``candidate``.

    The fusion side condition is verified pointwise over a finite region of
    g's carrier: either ``carrier_values`` x ``alphabet`` when given (the two
    go together), or the states actually reachable while folding the test
    inputs. The pipelines themselves are then compared on every test input.
    """
    inputs = [xs if isinstance(xs, str) else tuple(xs) for xs in test_inputs]

    # each input's suffixes lie on its own fold's way: one loop per input
    tails = [(xs[i], xs[i + 1:]) for xs in inputs for i in range(len(xs))]
    g_folds = _fold_each(g_alg, inputs + [rest for _, rest in tails])
    points: list[tuple[Any, Any]] = []
    if carrier_values is not None:
        if alphabet is None:
            raise DomainError("fold_fusion_check needs an alphabet to go with carrier_values")
        points = [(a, s) for a in alphabet for s in carrier_values]
    else:
        seen = set()
        for (a, _), fold in zip(tails, g_folds[len(inputs):]):
            for s in fold.support:
                if (a, s) not in seen:
                    seen.add((a, s))
                    points.append((a, s))

    side_dev = tv_distance(bind(g_alg.base, post), candidate.base)
    for a, s in points:
        lhs = bind(g_alg.step((a, s)), post)
        rhs = bind(post(s), lambda t, a=a: candidate.step((a, t)))
        side_dev = max(side_dev, tv_distance(lhs, rhs))

    pipe_dev = 0.0
    for g_fold, cand_fold in zip(g_folds, _fold_each(candidate, inputs)):
        pipe_dev = max(pipe_dev, tv_distance(bind(g_fold, post), cand_fold))
    return FusionReport(side_dev, pipe_dev, tol)
