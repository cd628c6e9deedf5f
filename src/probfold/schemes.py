"""Recursion schemes in both semantics, plus the transformation engine.

Monadic evaluation (exact distribution arithmetic) is the primary semantics
for unbounded carriers; the matrix semantics works over caller-supplied
truncation dims. The transformation ops -- tupling of mutual recursion,
banana-split, base-case choice, fold fusion -- either carry machine-checked
side conditions or need none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .dims import Dim, Range, UNIT
from .dist import Dist, DomainError, bind, choice, dirac, marginals, pair, tv_distance
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


def for_loop(body: Callable[[Any], Dist], init: Dist, n: int) -> Dist:
    """n-fold Kleisli iteration of ``body`` starting from ``init``."""
    if n < 0:
        raise DomainError(f"iteration count must be >= 0, got {n}")
    d = init
    for _ in range(n):
        d = bind(d, body)
    return d


def fold_list(step: Callable[[tuple], Dist], base: Dist, xs: Sequence) -> Dist:
    """Right fold in the Kleisli category: step consumes (element, state)."""
    d = base
    for a in reversed(xs):
        d = bind(d, lambda s, a=a: step((a, s)))
    return d


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
    if isinstance(functor, ForLoopF):
        if not isinstance(value, int) or value < 0:
            raise DomainError(f"for-loop input must be a natural number, got {value!r}")
        return for_loop(alg.step, alg.base, value)
    if isinstance(functor, ListF):
        if not isinstance(value, (str, list, tuple)):
            raise DomainError(f"list-fold input must be a sequence, got {value!r}")
        return fold_list(alg.step, alg.base, value)
    raise DomainError(f"no initial-algebra evaluation for functor {functor}")


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
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
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


def unzip(functor: FunctorDesc, b: Dim, c: Dim) -> Matrix:
    """The sharp arrow F(B*C) -> (F B)*(F C) pairing the functorial projections."""
    return khatri(functor.on_matrix(fst_matrix(b, c)), functor.on_matrix(snd_matrix(b, c)))


def banana_split(functor: FunctorDesc, alg_f: Algebra, alg_g: Algebra) -> Algebra:
    """Fuse two folds over the same input into one fold on pairs.

    Valid unconditionally (no sharpness needed): the combined step feeds f's
    component and g's component independently, which is exactly the
    kron-after-unzip algebra on the product carrier.
    """
    if alg_f.functor != functor or alg_g.functor != functor:
        raise DomainError("banana_split needs both algebras over the given functor")
    base = pair(alg_f.base, alg_g.base)
    if isinstance(functor, ForLoopF):
        def step(s, _f=alg_f.step, _g=alg_g.step):
            x, y = s
            return pair(_f(x), _g(y))
        return Algebra(functor, base, step)
    if isinstance(functor, ListF):
        def step(av, _f=alg_f.step, _g=alg_g.step):
            a, (x, y) = av
            return pair(_f((a, x)), _g((a, y)))
        return Algebra(functor, base, step)
    raise DomainError(f"no monadic catamorphism for functor {functor}")


def mutual_eval(functor: FunctorDesc, h: Algebra, k: Algebra, value: Any) -> tuple[Dist, Dist]:
    """Evaluate a mutually recursive pair of functions, each step drawing the
    recursive occurrences independently (the pre-tupling semantics)."""
    if h.functor != functor or k.functor != functor:
        raise DomainError("mutual_eval needs both algebras over the given functor")
    if isinstance(functor, ForLoopF):
        if value < 0:
            raise DomainError(f"iteration count must be >= 0, got {value}")
        f, g = h.base, k.base
        for _ in range(value):
            fg = pair(f, g)
            f, g = bind(fg, h.step), bind(fg, k.step)
        return f, g
    if isinstance(functor, ListF):
        f, g = h.base, k.base
        for a in reversed(value):
            fg = pair(f, g)
            f = bind(fg, lambda s, a=a: h.step((a, s)))
            g = bind(fg, lambda s, a=a: k.step((a, s)))
        return f, g
    raise DomainError(f"no monadic catamorphism for functor {functor}")


@dataclass(frozen=True)
class SideConditionReport:
    """Outcome of the empirical sharpness check behind mutual-recursion tupling."""

    fst_sharp: bool
    snd_sharp: bool
    holds: bool
    tested_inputs: tuple
    message: str


def tupled_from_mutual(functor: FunctorDesc, h: Algebra, k: Algebra,
                       test_inputs: Iterable[Any] | None = None) -> tuple[Algebra, SideConditionReport]:
    """Tupling transformation: merge a mutually recursive pair into one fold.

    Returns the pair-carrier algebra together with a report on the sharpness
    side condition, checked empirically over ``test_inputs``: if one
    projection of the tupled fold is sharp there, the transformation is
    guaranteed distribution-preserving; otherwise it may change behaviour.
    With no test inputs the condition is reported unchecked and ``holds`` is
    false.
    """
    if h.functor != functor or k.functor != functor:
        raise DomainError("tupled_from_mutual needs both algebras over the given functor")
    base = pair(h.base, k.base)
    if isinstance(functor, ForLoopF):
        def step(s, _h=h.step, _k=k.step):
            return pair(_h(s), _k(s))
    elif isinstance(functor, ListF):
        def step(av, _h=h.step, _k=k.step):
            a, s = av
            return pair(_h((a, s)), _k((a, s)))
    else:
        raise DomainError(f"no monadic catamorphism for functor {functor}")
    tupled = Algebra(functor, base, step)

    if test_inputs is None:
        if isinstance(functor, ForLoopF):
            test_inputs = tuple(range(9))
        else:
            raise DomainError("pass test_inputs explicitly for list-shaped carriers")
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
            if isinstance(g_alg.functor, ListF) and g_alg.functor.alphabet is not None:
                alphabet = g_alg.functor.alphabet.elements()
            else:
                alphabet = tuple(sorted({a for xs in inputs for a in xs}, key=repr))
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
