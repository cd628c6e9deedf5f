"""Recursion schemes in both semantics, plus the transformation engine.

Monadic evaluation (exact distribution arithmetic) is the primary semantics
for unbounded carriers; the matrix semantics works over caller-supplied
truncation dims. The transformation ops -- tupling of mutual recursion,
banana-split, base-case choice, fold fusion -- either carry machine-checked
side conditions or need none.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, islice
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .dims import _MEMO_SIZE, Dim, Range, UNIT, _same
from .dist import (_INT64, PROPER_TOL, PRUNE_EPS, Dist, DomainError, _affine_choice, _as_step, _check_total, _Choice,
                   _Masses, _Pair, _paired, _Step, bind, canonical_value, choice, dirac, marginals, pair,
                   tv_distance)
from .functors import ForLoopF, FunctorDesc, ListF
from .matrix import (
    Matrix,
    TruncationError,
    _Fresh,
    _Sparse,
    _branch_outcomes,
    _value_bound,
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
# the fixpoint checks for escaping and leaking mass once per block of this
# many columns: two vectorised tests cost less than several numpy calls per
# column, and an error comes at most _BLOCK - 1 columns late
_BLOCK = 64


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
    ``value``, innermost first, starting from ``base``. A fold that
    ``_affine_runs`` reads as array layers runs on arrays, with the same
    result: over int pairs on the pair-state kernel (``_tupled_affine``), over
    ints when every branch shifts the state (``_shifted``). Any other for-loop
    reuses the outcomes its step gave at a state in the layer before
    (``_layers``). No Dist is false."""
    step = _as_step(step)  # once, not once per layer
    runs = _affine_runs(functor, step, value)
    return ((runs and (_tupled_affine(runs, base) or _shifted(functor, step, base, runs)))
            or _last(_folds(_layers(functor, step)(value), base)))


def _fold_each(alg: "Algebra", inputs: Iterable[Any]) -> list[Dist]:
    """The fold of each of ``inputs``. Each input's loop resumes from its
    longest sub-input already folded, so every distinct sub-input is folded
    once. A list fold whose step is a choice of affine branches none of which
    reads the element (``_reads_element``) is a for-loop over the input's
    length, so inputs of one length share one fold. A for-loop's layers share
    one memo of its step for all the inputs (``_layers``)."""
    functor, step, memo, folds = alg.functor, _as_step(alg.step), {}, []
    affine = isinstance(functor, ListF) and _affine_choice(step, 2)
    if affine and not any(_reads_element(form, f) for form, (_, f) in zip(affine[1], step)):
        functor, step, inputs = _FOR, step.after(_unread), map(len, map(_LIST._sequence, inputs))
    layers_of = _layers(functor, step)
    for value in inputs:
        subs = functor._sub_inputs(value)
        fold = memo.get(subs[-1])
        if fold is None:  # each key looked up once: a list's keys compare in Python
            start, fold = next(((i, known) for i in range(len(subs) - 2, 0, -1)
                                if (known := memo.get(subs[i])) is not None), (0, alg.base))
            for sub, fold in zip(subs[start + 1:], islice(_folds(layers_of(value, start), fold), 1, None)):
                memo[sub] = fold
        folds.append(fold)
    return folds


def _unread(y: Any) -> tuple:
    """The (element, state) input of a list step that reads no element."""
    return None, y


def _layers(functor: FunctorDesc, step: _Step) -> Callable[..., Iterator]:
    """The layers of folds of ``step`` over ``functor``, as a function of an
    input and the layer to start at. A for-loop applies its step at every
    layer and so meets states again: its layers are one ``_Memo`` of the step,
    turned to the next layer as each is taken. A choice, which ``bind``
    expands inline, and a list fold's step, each of whose layers takes its own
    element, are left as they are."""
    if not isinstance(functor, ForLoopF) or type(step) is _Choice:
        return lambda value, start=0: islice(functor.layers(step, value), start, None)
    compute, older, newer = step.outcomes, {}, {}

    def outcomes(value: Any):
        hit = older.get(value)
        if hit is None or not _same(hit[0], value):
            hit = value, compute(value)
        newer[value] = hit
        return hit[1]

    def turn(_layer: int) -> _Memo:
        # the memo holds ``outcomes`` but not ``turn``: no cycle keeps a
        # finished fold's outcomes alive until a full garbage collection
        nonlocal older, newer
        older, newer = newer, {}
        return memo

    memo = _Memo((outcomes,))
    return lambda value, start=0: map(turn, range(start, functor._count(value)))


class _Memo(_Step):
    """A for-loop's step that reuses the outcomes it computed at a state in
    the layer before: a step is a function of its state, and a loop meets a
    state again in the next layer. ``mfibl``'s loop at n=20 visits 5,232
    states, 1,306 of them distinct, each met again only in the next layer, so
    it computes 1,306 outcomes. The memo keeps the states of the layer being
    bound and of the one before (``_layers`` moves it on a layer and drops the
    older), so it holds at most two layers' outcomes however long the loop.
    It is keyed by value; a hit counts only where the state agrees in type
    and sign with the one kept, component by component (``dims._same``), so
    1, 1.0 and True, or 0.0 and -0.0, never share outcomes. The outcomes are
    the step's own, in its order."""

    __slots__ = ()

    # the closure itself: ``bind`` calls it with no bound method in between
    outcomes = property(_fst)


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
    """Evaluate the catamorphism of ``alg`` on one initial-algebra value.

    A fold that ``_affine_runs`` reads as layers of choices of affine
    branches runs on arrays: over int pairs (a tupled square program's
    for-loop, or a banana-split fold such as ``favg_split``), and over ints
    when every branch shifts the state (``fcount``, ``fsum``); the result is
    the same, bit for bit."""
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
    product. A body that ``from_probfn_truncated`` built from a choice of
    affine branches is held as its nonzeros (``matrix._Sparse``), and the
    fixpoint takes them and the body's column sums from there, so that body
    is never laid out dense; any other body's dense data is scanned for them.
    Either way the result is the same, bit for bit.

    The columns that feed a next one are checked once per block of
    ``_BLOCK`` (64) columns, and the first failing column is named: any
    positive mass at a state listed in ``escapes`` (from
    ``from_probfn_truncated``) raises TruncationError naming the escaped
    value, with no threshold; mass lost through a body column that sums to
    less than one raises once it exceeds 1e-12. Where a column does both, the
    escape is named. The error comes after at most 63 extra columns. An
    ``init`` that does not sum to one, an ``escapes`` key that is not a
    state's index, and a body column that sums to more than one (it creates
    mass) are each a DomainError, raised before any column is computed.
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
    if abs(mass - 1.0) > PROPER_TOL:
        raise DomainError(f"init must be a distribution over {m_dim}, but it sums to {mass!r}")
    bad = [key for key in escapes or () if type(key) is not int or key not in range(m_dim.size)]
    if bad:
        raise DomainError(f"escapes key {bad[0]!r} is not the index of a state of {m_dim}")
    if isinstance(body, _Sparse):  # held as its nonzeros: no dense data is built or scanned
        dst, src, weights = body.nonzeros  # entry (dst, src) moves mass from src to dst
        sums = np.bincount(src, weights=weights, minlength=m_dim.size)
        sparse = weights.size * _SPARSE_FILL <= m_dim.size ** 2
    else:
        sums = body.data.sum(axis=0)
        sparse = np.count_nonzero(body.data) * _SPARSE_FILL <= m_dim.size ** 2
        if sparse:  # few nonzeros, as a choice of sharp functions has
            dst, src = np.nonzero(body.data)
            weights = body.data[dst, src]
    _check_no_mass_created(sums, m_dim, "state")
    cols = Range(n_max + 1)
    first = _zeros(cols, m_dim)
    steps = _zeros(cols, m_dim)
    deficits = 1.0 - sums
    escaping = np.array(sorted(escapes or ()), dtype=np.intp)
    first[:, 0] = init.data[:, 0]
    col = first[:, 0]
    if n_max:  # column 0 feeds column 1
        _check_feeding_columns(first[:, :1], deficits, escaping, escapes, m_dim)
    for start in range(1, n_max + 1, _BLOCK):
        stop = min(start + _BLOCK, n_max + 1)
        for j in range(start, stop):
            if sparse:
                col = np.bincount(dst, weights=weights * col[src], minlength=m_dim.size)
            else:
                col = body.data @ col
            steps[:, j] = col
        # column n_max feeds no column
        _check_feeding_columns(steps[:, start:min(stop, n_max)], deficits, escaping, escapes, m_dim)
    # both parts are this function's own arrays of products of checked
    # entries; madd's check catches any that overflowed
    k = madd(Matrix(cols, m_dim, _Fresh(first)), Matrix(cols, m_dim, _Fresh(steps)))
    totals = k.data.sum(axis=0)
    _check_no_mass_created(totals, cols, "input")
    if not np.all(np.abs(totals - 1.0) <= PROPER_TOL):
        raise TruncationError(f"fixpoint result is not column-stochastic over {m_dim}")
    return k


def _check_feeding_columns(block: np.ndarray, deficits: np.ndarray, escaping: np.ndarray,
                           escapes: dict | None, m_dim: Dim) -> None:
    """TruncationError for the first column of ``block`` that puts positive
    mass on an ``escaping`` state or loses more than 1e-12 through the body's
    ``deficits``; where a column does both, the escape is named."""
    escaped = np.any(block[escaping] > 0.0, axis=0)
    leaked = deficits @ block > 1e-12
    failed = np.flatnonzero(escaped | leaked)
    if not failed.size:
        return
    i = int(failed[0])
    col = block[:, i]
    if escaped[i]:
        value = escapes[int(escaping[np.argmax(col[escaping])])][0][0]
        raise TruncationError(f"mass would escape {m_dim} at value {value!r}")
    state = int(np.argmax(deficits * col))
    raise TruncationError(f"loop body loses mass from state {m_dim.elements()[state]!r} outside {m_dim}")


def _check_no_mass_created(sums: np.ndarray, dim: Dim, what: str) -> None:
    """DomainError naming the first column of ``dim`` whose total exceeds one."""
    created = np.flatnonzero(sums > 1.0 + PROPER_TOL)
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


class _Split(_Pair):
    """The step of ``banana_split`` over ``functor``: the ``_Pair`` of
    ``left`` after F fst and ``right`` after F snd, which ``bind`` expands as
    any pair, followed by the functor and the two factor steps themselves
    (``step[2:]``), kept as data so that ``_affine_runs`` reads each factor's
    branches onto its own component of the pair state."""

    __slots__ = ()

    def __new__(cls, functor: FunctorDesc, left: Callable[[Any], Dist], right: Callable[[Any], Dist]):
        left, right = _as_step(left), _as_step(right)
        return tuple.__new__(cls, (left.after(partial(functor.on_value, _fst)),
                                   right.after(partial(functor.on_value, _snd)), functor, left, right))


def banana_split(functor: FunctorDesc, alg_f: Algebra, alg_g: Algebra) -> Algebra:
    """Fuse two folds over the same input into one fold on pairs.

    Valid unconditionally (no sharpness needed): the combined step unzips
    its input, feeding f's component and g's component independently, which
    is exactly the kron-after-unzip algebra on the product carrier. The
    combined step keeps both factor steps as data: two choice steps combine
    into a step that ``bind`` still expands, and two choices of affine
    branches of ints (``favg_split``'s sum and count) into a fold that runs
    on arrays over int pairs (``_affine_runs``), with the same result bit for
    bit.
    """
    if alg_f.functor != functor or alg_g.functor != functor:
        raise DomainError("banana_split needs both algebras over the given functor")
    return Algebra(functor, pair(alg_f.base, alg_g.base), _Split(functor, alg_f.step, alg_g.step))


def mutual_eval(functor: FunctorDesc, h: Algebra, k: Algebra, value: Any) -> tuple[Dist, Dist]:
    """Evaluate a mutually recursive pair of functions, each step drawing the
    recursive occurrences independently (the pre-tupling semantics).

    Two for-loops over ints whose steps are choices of affine branches (the
    square programs) run on arrays, read by ``_affine_runs`` from the pair of
    steps ``tupled_from_mutual`` builds: one outer product and one
    scatter-add per step and layer, with the same results and total-mass
    errors, bit for bit."""
    if h.functor != functor or k.functor != functor:
        raise DomainError("mutual_eval needs both algebras over the given functor")
    runs = _affine_runs(functor, _paired(h.step, k.step), value)
    return (runs and _mutual_affine(runs, h.base, k.base)) or _last(_mutual_folds(functor, h, k, value))


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


# an array layer sums the masses per value over the span of the values when
# it has at most this many slots per move (a fold of shifts: per value it
# surely reaches): one bincount over the offsets, 40 times faster than sorting
# 20,000 moves
_DENSE_SPAN = 8


def _stays_int64(columns: tuple[tuple, tuple], runs: list[tuple[list, int, Any]]) -> bool:
    """Whether ``columns``, the values of the two components of the pair
    states, are ints, never bools, and every layer of ``runs`` (``_affine_runs``)
    -- the two choices of each run taken its number of times in turn -- stays
    in int64 from them: ``matrix._value_bound``, layer by layer."""
    if not all(type(x) is int for col in columns for x in col):
        return False
    bounds = [max(map(abs, col)) for col in columns]
    for choices, times, _ in runs:
        for _ in range(times):
            if not all(x in _INT64 for x in bounds):
                return False
            grown = [_value_bound(forms, bounds) for _, forms in choices]
            if grown == bounds:
                break
            bounds = grown
    return all(x in _INT64 for x in bounds)


def _arrays(d: Dist) -> tuple[np.ndarray, np.ndarray]:
    """``d`` as arrays: its support values (one row per component, int64) and masses, in support order."""
    keys = np.array(d.support, dtype=np.int64).reshape(len(d), -1).T
    return keys, np.fromiter(d._mass.values(), float, len(d))


def _dist(arrays: tuple[np.ndarray, np.ndarray]) -> Dist:
    """The Dist of ``_arrays`` form, over Python ints or pairs of them."""
    keys, masses = arrays
    values = keys[0].tolist() if len(keys) == 1 else zip(*keys.tolist())
    return Dist(_Masses(zip(values, masses.tolist())))


def _gathered(keys: tuple[np.ndarray, ...], moved: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The masses ``moved`` (an array of moves) to the support values of
    ``keys`` (one int64 array per component, each broadcasting to the moves'
    shape) as ``bind`` gathers them: summed per value by one scatter-add, in
    the order of the moves, then light sums dropped and the total checked. A
    move of 0.0 adds nothing. The values come out in support order. A value
    no move reaches sums to 0.0 and drops with the light ones, so when the
    box the keys span has few slots per move, each value's slot is its
    offset in the box, in the order of its components; otherwise the values
    are sorted to number them."""
    lo = [int(k.min()) for k in keys]
    spans = [int(k.max()) - low + 1 for k, low in zip(keys, lo)]
    shape, moved = moved.shape, moved.ravel()
    if math.prod(spans) <= _DENSE_SPAN * moved.size:
        slots = np.empty(moved.size, dtype=np.int64)
        offsets = slots.reshape(shape)
        np.subtract(keys[0], lo[0], out=offsets)
        for k, low, span in zip(keys[1:], lo[1:], spans[1:]):  # int64 wraps, and the last sum fits
            offsets *= span
            offsets += k
            offsets -= low
        masses = np.bincount(slots, weights=moved)
        kept = np.flatnonzero(masses >= PRUNE_EPS)
        if len(keys) == 1:
            values = kept[None] + lo[0]
        else:
            values = np.array(np.unravel_index(kept, spans)) + np.array(lo)[:, None]
    else:
        keys = np.array([np.broadcast_to(k, shape).ravel() for k in keys])
        order = np.lexsort(keys[::-1])
        ordered = keys[:, order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
        slots = np.empty(order.size, dtype=np.intp)
        slots[order] = np.cumsum(first) - 1
        masses = np.bincount(slots, weights=moved)
        kept = np.flatnonzero(masses >= PRUNE_EPS)
        values = ordered[:, first][:, kept]
    _check_total(masses[kept])
    return values, masses[kept]


def _mutual_arrays(f: tuple, g: tuple, h: Callable, k: Callable) -> tuple[tuple, tuple]:
    """``_mutual_layer`` on arrays: the joint of f and g as ``pair`` forms it
    (products mb*mc, light ones set to 0.0, its total checked), then each
    choice's ``matrix._branch_outcomes`` ``h`` and ``k`` bound to it. A state's
    outcomes are listed input by input, so the scatter-add sums each value's
    masses in the order ``bind`` does."""
    (fv, fm), (gv, gm) = f, g
    joint = fm[:, None] * gm
    joint[joint < PRUNE_EPS] = 0.0
    _check_total(joint)
    states = fv[0][:, None], gv[0]
    bound = []
    for outcomes in (h, k):  # each state's outcomes in the order ``outcomes`` lists them, mass m*w
        values, weights = outcomes(states)
        bound.append(_gathered((values,), joint[:, :, None] * weights))
    return tuple(bound)


def _tupled_arrays(state: tuple, left: Callable, right: Callable) -> tuple[np.ndarray, np.ndarray]:
    """``bind`` of a state of int pairs with the pairing of two choices (their
    ``matrix._branch_outcomes``), on arrays: at each state, each left outcome
    with each right one, weight mb*mc, light ones set to 0.0, as
    ``_Pair.outcomes`` lists them; mass m*(mb*mc)."""
    keys, m = state
    (lv, lw), (rv, rw) = left(keys), right(keys)
    weights = lw[..., :, None] * rw[..., None, :]
    weights[weights < PRUNE_EPS] = 0.0
    return _gathered((lv[..., :, None], rv[..., None, :]), m[:, None, None] * weights)


def _mutual_affine(runs: list[tuple[list, int, Any]], f: Dist, g: Dist) -> tuple[Dist, Dist] | None:
    """``mutual_eval`` on arrays, a ``_mutual_arrays`` layer per layer of ``runs``
    (``_affine_runs`` of the pair of its steps), when the bases ``f`` and ``g``
    hold ints and every value of the layers stays in int64; None otherwise."""
    if not _stays_int64((f.support, g.support), runs):
        return None
    f, g = _arrays(f), _arrays(g)
    for (h, k), times in _tables(runs):
        for _ in range(times):
            f, g = _mutual_arrays(f, g, h, k)
    return _dist(f), _dist(g)


def _tupled_affine(runs: list[tuple[list, int, Any]], base: Dist) -> Dist | None:
    """The fold of ``runs`` (``_affine_runs``) from ``base`` on arrays, a
    ``_tupled_arrays`` layer per layer, when they have two components, the base
    holds int pairs and every value stays in int64; None for any other fold."""
    pairs = base.support
    if (len(runs[0][0]) != 2 or not all(type(v) is tuple and len(v) == 2 for v in pairs)
            or not _stays_int64(tuple(zip(*pairs)), runs)):
        return None
    state = _arrays(base)
    for (left, right), times in _tables(runs):
        for _ in range(times):
            state = _tupled_arrays(state, left, right)
    return _dist(state)


def _tables(runs: list[tuple[list, int, Any]]) -> Iterator[tuple[list[Callable], int]]:
    """Each of ``runs`` (``_affine_runs``) as its choices' ``matrix._branch_outcomes``,
    read once per distinct list element, and its number of layers."""
    tables = {}
    for choices, times, e in runs:
        if e not in tables:
            tables[e] = [_branch_outcomes(choice) for choice in choices]
        yield tables[e], times


def _affine_runs(functor: FunctorDesc, step: _Step, value: Any) -> list[tuple[list, int, Any]] | None:
    """A fold's layers as the array kernels take them, innermost first, as
    runs (choices, times, e): one ``dist._affine_choice`` per int state
    component, forms over the whole state, taken ``times`` times at list
    element e (0 where no branch reads one). A choice step gives one
    component, a for-loop's tupled ``_Pair`` two, and a banana-split step
    (``_Split``) of the fold's own functor two, each factor's form (a, c) of
    y, or (a, b, c) of (e, y), on its own component as k*y + c' with (k, c')
    = (a, c) or (b, a*e + c), placed once per distinct element. A list fold
    runs each element once where a branch reads it (a != 0). None for any other fold, for one with no
    layers, and where an element is not an int and a branch reads it or is a
    partial ``_pair_value``, which takes 0*e (0.0 at a float e)."""
    if not isinstance(functor, (ForLoopF, ListF)):
        return None
    list_fold = isinstance(functor, ListF)
    elements = functor._sequence(value)[::-1] if list_fold else ()
    n = len(elements) if list_fold else functor._count(value)
    tupled = type(step) is _Pair and not list_fold
    factors = step if tupled else step[3:] if type(step) is _Split and step[2] == functor else (step,)
    choices = [_affine_choice(factor, 2 if tupled or list_fold else 1) for factor in factors] if n else [None]
    if None in choices:
        return None
    if tupled:  # its branches read the whole pair state
        return [(choices, n, 0)]
    branches = [(form, f) for (_, forms), factor in zip(choices, factors) for form, (_, f) in zip(forms, factor)]
    ints = all(type(e) is int for e in elements)
    if not ints and any(_reads_element(form, f) for form, f in branches):
        return None
    runs = [(e, 1) for e in elements] if ints and list_fold and any(form[0] for form, _ in branches) else [(0, n)]
    zeros = (0,) * len(choices)  # component i's forms over the whole state: k at i, c' = a*e + c (e = 0 in a for-loop)
    placed = {e: [(weights, [(*zeros[:i], f[-2], *zeros[i + 1:], f[0] * e + f[-1]) for f in forms])
                  for i, (weights, forms) in enumerate(choices)] for e in {e for e, _ in runs}}
    return [(placed[e], times, e) for e, times in runs]


def _reads_element(form: tuple, f: Callable) -> bool:
    """Whether a list step's affine branch ``f``, of form (a, b, c) over
    (e, y), can give a value that depends on the element e: where a != 0,
    and for a partial ``_pair_value``, which takes 0*e (0.0 at a float e)."""
    return bool(form[0]) or type(f) is partial


def _shifted(functor: FunctorDesc, step: _Step, base: Dist, runs: list[tuple[list, int, Any]]) -> Dist | None:
    """The fold on one float64 array of masses at values lo, lo + 1, ...,
    when ``runs`` (``_affine_runs``) have one int component that every branch
    shifts (k = 1), the base holds ints and the array has at most
    ``_DENSE_SPAN`` slots per value the fold surely reaches, |base| + sum_t
    (|S_t| - 1) for S_t layer t's shifts: the (c, w) the step's ``outcomes``
    gives at the zero state and run element e, in descending c, read once per
    distinct e. None for any other fold. The array spans the base and each
    layer's shifts."""
    choices = runs[0][0]
    if len(choices) != 1 or any(k != 1 for k, _ in choices[0][1]) or not all(type(v) is int for v in base._mass):
        return None
    list_fold = isinstance(functor, ListF)
    shifts = {e: sorted(step.outcomes((e, 0) if list_fold else 0), reverse=True) for e in {e for _, _, e in runs}}
    layers = [(shifts[e], times) for _, times, e in runs]
    lo, hi = min(base._mass), max(base._mass)
    reach = len(base) + sum(times * (len(layer) - 1) for layer, times in layers)
    if hi - lo + 1 + sum(times * (layer[0][0] - layer[-1][0]) for layer, times in layers) > _DENSE_SPAN * reach:
        return None
    masses = np.zeros(hi - lo + 1)
    masses[[v - lo for v in base._mass]] = list(base._mass.values())
    weights = {e: np.array([w for _, w in layer])[:, None] for e, layer in shifts.items()}
    for _, times, e in runs:
        for _ in range(times):
            masses, lo = _shift_layer(masses, lo, shifts[e], weights[e])
    kept = masses.nonzero()[0]
    return Dist(_Masses(zip([lo + i for i in kept.tolist()], masses[kept].tolist())))


def _shift_layer(masses: np.ndarray, lo: int, layer: list, weights: np.ndarray) -> tuple[np.ndarray, int]:
    """One layer of ``_shifted``: the copies m*w added in descending shift, the input-major order of ``bind``'s
    sums, so every float is ``bind``'s; then light sums zeroed, the total checked and zero ends cut."""
    low = layer[-1][0]
    moved = np.zeros(masses.size + layer[0][0] - low)
    for (c, _), row in zip(layer, weights * masses):
        moved[c - low:c - low + masses.size] += row
    np.putmask(moved, moved < PRUNE_EPS, 0.0)
    _check_total(moved)
    kept = moved.nonzero()[0]
    return moved[kept[0]:kept[-1] + 1], lo + low + int(kept[0])


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
    tupled, report, _ = _tupled_checked(functor, h, k, test_inputs)
    return tupled, report


def _tupled_checked(functor: FunctorDesc, h: Algebra, k: Algebra,
                    test_inputs: Iterable[Any]) -> tuple[Algebra, SideConditionReport, list[Dist]]:
    """``tupled_from_mutual``, and the tupled folds of ``test_inputs`` that
    its side condition checked, in input order."""
    if h.functor != functor or k.functor != functor:
        raise DomainError("tupled_from_mutual needs both algebras over the given functor")

    tupled = Algebra(functor, pair(h.base, k.base), _paired(h.step, k.step))

    tested = tuple(test_inputs)
    fst_sharp = snd_sharp = bool(tested)
    folds = _fold_each(tupled, tested)
    for fold in folds:
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
    return tupled, SideConditionReport(fst_sharp, snd_sharp, holds, tested, message), folds


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
    go together: one without the other is a DomainError), or the states
    actually reachable while folding the test inputs. The pipelines
    themselves are then compared on every test input. A test input that is
    not a string, list or tuple is a DomainError, as in ``cata_eval``; the
    others are folded as ``canonical_value`` gives them, lists as tuples.
    """
    if (carrier_values is None) != (alphabet is None):
        missing, given = ("an alphabet", "carrier_values") if alphabet is None else ("carrier_values", "an alphabet")
        raise DomainError(f"fold_fusion_check needs {missing} to go with {given}")
    inputs = [canonical_value(_LIST._sequence(xs)) for xs in test_inputs]

    # each input's suffixes lie on its own fold's way: one loop per input
    tails = [(xs[i], xs[i + 1:]) for xs in inputs for i in range(len(xs))]
    g_folds = _fold_each(g_alg, inputs + [rest for _, rest in tails])
    if carrier_values is not None:
        points = [(a, s) for a in alphabet for s in carrier_values]
    else:
        points = dict.fromkeys((a, s) for (a, _), fold in zip(tails, g_folds[len(inputs):]) for s in fold.support)

    side_dev = tv_distance(bind(g_alg.base, post), candidate.base)
    for a, s in points:
        lhs = bind(g_alg.step((a, s)), post)
        rhs = bind(post(s), lambda t, a=a: candidate.step((a, t)))
        side_dev = max(side_dev, tv_distance(lhs, rhs))

    pipe_dev = 0.0
    for g_fold, cand_fold in zip(g_folds, _fold_each(candidate, inputs)):
        pipe_dev = max(pipe_dev, tv_distance(bind(g_fold, post), cand_fold))
    return FusionReport(side_dev, pipe_dev, tol)
