"""Recursion schemes in both semantics, plus the transformation engine.

Monadic evaluation (exact distribution arithmetic) is the primary semantics
for unbounded carriers; the matrix semantics works over caller-supplied
truncation dims. The transformation ops -- tupling of mutual recursion,
banana-split, base-case choice, fold fusion -- either carry machine-checked
side conditions or need none.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .dims import _MEMO_SIZE, Dim, Range, UNIT
from .dist import Dist, DomainError, _after, _paired, bind, choice, dirac, marginals, pair, tv_distance
from .functors import ForLoopF, FunctorDesc, ListF
from .matrix import (
    CS_TOL,
    Matrix,
    TruncationError,
    fst_matrix,
    khatri,
    madd,
    snd_matrix,
)

_FOR, _LIST = ForLoopF(), ListF()
_fst, _snd = itemgetter(0), itemgetter(1)


def _fold(functor: FunctorDesc, step: Callable[[Any], Dist], base: Dist, value: Any) -> Dist:
    """The monadic catamorphism: bind the layers ``functor`` unfolds from
    ``value``, innermost first, starting from ``base``."""
    d = base
    for k in functor.layers(step, value):
        d = bind(d, k)
    return d


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
    matrix-vector product per column. Before a column feeds the next, any
    positive mass at a state listed in ``escapes`` (from
    ``from_probfn_truncated``) raises TruncationError naming the escaped
    value, with no threshold; mass lost through a body column that sums to
    less than one raises once it exceeds 1e-12.
    """
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 0:
        raise DomainError(f"n_max must be a natural number, got {n_max!r}")
    if n_max >= sys.maxsize:  # columns 0..n_max must stay indexable
        raise DomainError(f"n_max must be below {sys.maxsize}, got {n_max}")
    if body.col_dim != m_dim or body.row_dim != m_dim:
        raise DomainError(f"loop body must be square over {m_dim}, got {body.col_dim}->{body.row_dim}")
    if init.col_dim != UNIT or init.row_dim != m_dim:
        raise DomainError(f"init must be a column 1 -> {m_dim}, got {init.col_dim}->{init.row_dim}")
    deficits = 1.0 - body.data.sum(axis=0)
    escaping = np.array(sorted(escapes or ()), dtype=np.intp)
    first = np.zeros((m_dim.size, n_max + 1))
    first[:, 0] = init.data[:, 0]
    steps = np.zeros_like(first)
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
        col = body.data @ col
        steps[:, j] = col
    cols = Range(n_max + 1)
    k = madd(Matrix(cols, m_dim, first), Matrix(cols, m_dim, steps))
    if not k.is_column_stochastic(CS_TOL):
        raise TruncationError(f"fixpoint result is not column-stochastic over {m_dim}")
    return k


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
    f, g = h.base, k.base
    for h_layer, k_layer in zip(functor.layers(h.step, value), functor.layers(k.step, value)):
        fg = pair(f, g)
        f, g = bind(fg, h_layer), bind(fg, k_layer)
    return f, g


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
    for value in tested:
        left, right = marginals(cata_eval(functor, tupled, value))
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
    g's carrier: either ``carrier_values`` x ``alphabet`` when given, or the
    states actually reachable while folding the test inputs. The pipelines
    themselves are then compared on every test input.
    """
    inputs = [xs if isinstance(xs, str) else tuple(xs) for xs in test_inputs]

    points: list[tuple[Any, Any]] = []
    if carrier_values is not None:
        if alphabet is None:
            declared = getattr(g_alg.functor, "alphabet", None)
            alphabet = (declared.elements() if declared is not None
                        else sorted({a for xs in inputs for a in xs}, key=repr))
        points = [(a, s) for a in alphabet for s in carrier_values]
    else:
        seen = set()
        for xs in inputs:
            for i in range(len(xs)):
                a = xs[i]
                for s in cata_eval(g_alg.functor, g_alg, xs[i + 1:]).support:
                    if (a, s) not in seen:
                        seen.add((a, s))
                        points.append((a, s))

    side_dev = tv_distance(bind(g_alg.base, post), candidate.base)
    for a, s in points:
        lhs = bind(g_alg.step((a, s)), post)
        rhs = bind(post(s), lambda t, a=a: candidate.step((a, t)))
        side_dev = max(side_dev, tv_distance(lhs, rhs))

    pipe_dev = 0.0
    for xs in inputs:
        lhs = bind(cata_eval(g_alg.functor, g_alg, xs), post)
        rhs = cata_eval(candidate.functor, candidate, xs)
        pipe_dev = max(pipe_dev, tv_distance(lhs, rhs))
    return FusionReport(side_dev, pipe_dev, tol)
