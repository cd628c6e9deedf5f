"""Seeded randomized verifier for the combinator-algebra laws.

Every numbered transformation law gets a catalogue entry: a draw spec and a
deviation expression, or a body that draws its own instance. A check runs a
configured number of random instances and reports the worst deviation between
the two sides. Negative results are first class: expected-fail laws succeed
exactly when a genuine violation is exhibited (reconstruction from
projections, fusion through a non-sharp function, tupling without a sharp
projection). Every trial of a law draws, in order, from one stream keyed by
(seed, law name), so results are bit-reproducible and do not depend on the
catalogue's order or on which other laws run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import product as iter_product
from typing import Any, Callable

import numpy as np

from .cases import (
    consolidated_count_algebra,
    fcat_algebra,
    fcount_algebra,
    fib_algebras,
)
from .dims import _MEMO_SIZE, BOOLS, Dim, EnumDim, Product, Range, Sum, UNIT
from .dist import Dist, DomainError, dirac, dist_map, kleisli, pair, tv_distance
from .functors import CompF, ConstF, ForLoopF, FunctorDesc, IdF, ListF, SumF
from .matrix import (
    Matrix,
    _same_dims,
    compose,
    converse,
    data_dev,
    from_probfn,
    from_sharp_fn,
    fst_matrix,
    hadamard,
    identity,
    inj_left,
    inj_right,
    junc,
    khatri,
    kron,
    madd,
    mat_choice,
    max_dev,
    oplus,
    snd_matrix,
    split,
    to_probfn,
)
from .schemes import (
    Algebra,
    _fold_each,
    _mutual_folds,
    _tupled_checked,
    banana_split,
    base_choice_split,
    cata_eval,
    fold_fusion_check,
    matrix_cata_fixpoint,
    unzip,
)
from . import reference

_FOR = ForLoopF()


@dataclass(frozen=True)
class TrialConfig:
    """Knobs for a law check: master seed, trial count, dim bound, tolerance."""

    seed: int = 1
    trials: int = 1000
    max_dim: int = 6
    tol: float = 1e-9

    def __post_init__(self):
        for name in ("seed", "trials", "max_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if not 2 <= self.max_dim <= 12:
            raise DomainError(f"max_dim must be in 2..12, got {self.max_dim}")
        if isinstance(self.tol, bool) or not (isinstance(self.tol, (int, float)) and 0 < self.tol < math.inf):
            raise DomainError(f"tol must be finite and positive, got {self.tol!r}")


@dataclass(frozen=True)
class LawReport:
    """Outcome of one law check."""

    law: str
    trials: int
    max_dev: float
    status: str  # "pass" | "fail" | "expected-fail"
    witness: str | None = None
    violations: int = 0  # instances, the fixed one included, that deviate beyond tol

    def line(self) -> str:
        return f"{self.law}\t{self.status}\t{self.max_dev:.3e}\t{self.trials}"


# ---------------------------------------------------------------------------
# random instance generators

def random_dim(rng: np.random.Generator, max_size: int) -> Dim:
    """A random dimension of total size 1..max_size, nesting depth <= 2."""
    size = int(rng.integers(1, max_size + 1))
    return _structured(rng, size, 2)


def _structured(rng, size: int, depth: int) -> Dim:
    if depth <= 0 or size == 1 or rng.random() < 0.5:
        return _leaf(rng, size)
    if size >= 2 and rng.random() < 0.6:
        left = int(rng.integers(1, size))
        return Sum(_structured(rng, left, depth - 1), _structured(rng, size - left, depth - 1))
    factors = [d for d in range(2, size) if size % d == 0]
    if factors:
        d = int(rng.choice(factors))
        return Product(_structured(rng, d, depth - 1), _structured(rng, size // d, depth - 1))
    return _leaf(rng, size)


def _leaf(rng, size: int) -> Dim:
    roll = rng.random()
    if size == 1 and roll < 0.3:
        return UNIT
    if size == 2 and roll < 0.3:
        return BOOLS
    if roll < 0.15:
        return EnumDim(tuple(f"e{i}" for i in range(size)))
    return Range(size)


def _dims(rng, cfg: TrialConfig, count: int) -> list[Dim]:
    return [random_dim(rng, cfg.max_dim) for _ in range(count)]


def _range(rng, low: int, high: int) -> Range:
    """Range of a size drawn from low..high-1."""
    return Range(int(rng.integers(low, high)))


def random_cs_matrix(rng: np.random.Generator, cols: Dim, rows: Dim) -> Matrix:
    """Column-stochastic matrix with columns drawn as normalized positive vectors."""
    data = rng.random((rows.size, cols.size)) + 1e-9
    data /= data.sum(axis=0, keepdims=True)
    return Matrix(cols, rows, data)


def random_sharp(rng: np.random.Generator, cols: Dim, rows: Dim) -> Matrix:
    """Sharp matrix: a single 1 per column, at a uniformly random row."""
    data = np.zeros((rows.size, cols.size))
    data[rng.integers(0, rows.size, size=cols.size), np.arange(cols.size)] = 1.0
    return Matrix(cols, rows, data)


def random_dist(rng: np.random.Generator, dim: Dim) -> Dist:
    w = rng.random(dim.size) + 1e-9
    w /= w.sum()
    return Dist(zip(dim.elements(), w))


def _random_k_sharp(rng, a: Dim, b: Dim, c: Dim, sharp_fst: bool) -> tuple[Matrix, np.ndarray]:
    """k : a -> b x c with a sharp first (or second) projection, and each column's pick there."""
    sharp, free = (b, c) if sharp_fst else (c, b)
    picks = rng.integers(0, sharp.size, size=a.size)
    data = np.zeros((b.size * c.size, a.size))
    for j, pick in enumerate(picks):
        block = rng.random(free.size) + 1e-9
        rows = pick * c.size + np.arange(c.size) if sharp_fst else pick + c.size * np.arange(b.size)
        data[rows, j] = block / block.sum()
    return Matrix(a, Product(b, c), data), picks


def _random_list(rng, alphabet, max_len: int) -> tuple:
    """A tuple of 0..max_len letters drawn uniformly from alphabet."""
    length = int(rng.integers(0, max_len + 1))
    return tuple(int(a) for a in rng.choice(alphabet, size=length))


def _sharp_fn_of(m: Matrix) -> Callable[[Any], Any]:
    """Value-level function encoded by a sharp matrix."""
    rows = m.row_dim.elements()
    table = {a: rows[int(np.argmax(m.data[:, j]))] for j, a in enumerate(m.col_dim.elements())}
    return lambda a: table[a]


def _witness(parts: dict[str, Any] | str) -> str:
    """A counterexample as text: a message, or named matrices (as CSV) and values."""
    if isinstance(parts, str):
        return parts
    chunks = []
    for name, value in parts.items():
        if isinstance(value, Matrix):
            chunks.append(f"{name}: {value.col_dim} -> {value.row_dim}\n{value.to_csv()}")
        else:
            chunks.append(f"{name} = {value!r}")
    return "\n".join(chunks)


@lru_cache(maxsize=_MEMO_SIZE)
def _list_dim(alphabet_size: int, max_len: int) -> EnumDim:
    """All tuples over range(alphabet_size) up to max_len, shortest first."""
    values = []
    for length in range(max_len + 1):
        values.extend(iter_product(range(alphabet_size), repeat=length))
    return EnumDim(tuple(values))


def _table_step(rng, keys, out_dim) -> Callable[[Any], Dist]:
    table = {key: random_dist(rng, out_dim) for key in keys}
    return lambda key: table[key]


# ---------------------------------------------------------------------------
# shared pieces of the laws

def _gap(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.max(np.abs(x - y)))


def _projections(k: Matrix) -> tuple[Matrix, Matrix]:
    """fst . k and snd . k, for k into a product."""
    b, c = k.row_dim.left, k.row_dim.right
    return fst_matrix(b, c) @ k, snd_matrix(b, c) @ k


def _reconstruction(k: Matrix) -> Matrix:
    """k rebuilt from its projections, fst . k paired with snd . k."""
    return khatri(*_projections(k))


@lru_cache(maxsize=_MEMO_SIZE)
def _for_in(n_max: int) -> tuple[Matrix, Matrix]:
    """The for-loop `in`, [zero | succ], on inputs 0..n_max and the inclusion
    of 0..n_max-1: constant matrices, memoised like the structural ones."""
    inputs, prev = Range(n_max + 1), Range(n_max)
    in_mat = junc(from_sharp_fn(lambda _u: 0, UNIT, inputs),
                  from_sharp_fn(lambda j: j + 1, prev, inputs))
    return in_mat, from_sharp_fn(lambda j: j, prev, inputs)


@lru_cache(maxsize=_MEMO_SIZE)
def _list_in(alphabet_size: int, max_len: int) -> tuple[Matrix, Matrix]:
    """The list `in`, [nil | cons], on the lists up to max_len over
    range(alphabet_size) and the inclusion of the shorter ones, memoised."""
    alphabet, lists = Range(alphabet_size), _list_dim(alphabet_size, max_len)
    shorter = _list_dim(alphabet_size, max_len - 1)
    in_mat = junc(from_sharp_fn(lambda _u: (), UNIT, lists),
                  from_sharp_fn(lambda av: (av[0],) + av[1], Product(alphabet, shorter), lists))
    return in_mat, from_sharp_fn(lambda xs: xs, shorter, lists)


def _khatri_entries(m: Matrix, n: Matrix) -> np.ndarray:
    """Reference loop: row (i, j) of the Khatri-Rao product is m[i] * n[j]."""
    rows_m, rows_n = m.row_dim.size, n.row_dim.size
    out = np.zeros((rows_m * rows_n, m.col_dim.size))
    for i, j in iter_product(range(rows_m), range(rows_n)):
        out[i * rows_n + j, :] = m.data[i, :] * n.data[j, :]
    return out


def _kron_entries(m: Matrix, n: Matrix) -> np.ndarray:
    """Reference loop: entry ((i, j), (s, t)) of the Kronecker product is m[i, s] * n[j, t]."""
    (rows_m, cols_m), (rows_n, cols_n) = m.data.shape, n.data.shape
    out = np.zeros((rows_m * rows_n, cols_m * cols_n))
    for (i, s), (j, t) in iter_product(np.ndindex(rows_m, cols_m), np.ndindex(rows_n, cols_n)):
        out[i * rows_n + j, s * cols_n + t] = m.data[i, s] * n.data[j, t]
    return out


def _compose_mult(f: Matrix, g: Matrix) -> float:
    """Kleisli composition's matrix is the product, whose entries are sums of products."""
    composed = from_probfn(kleisli(to_probfn(f), to_probfn(g)), g.col_dim, f.row_dim)
    prod = f @ g
    naive = np.array([
        [math.fsum(f.data[i, k] * g.data[k, j] for k in range(f.col_dim.size))
         for j in range(g.col_dim.size)]
        for i in range(f.row_dim.size)
    ])
    return max(max_dev(composed, prod), _gap(prod.data, naive))


def _for_universal(B: Matrix, I: Matrix, u: float) -> float:
    """The fixpoint k of body B from init I on 0..n_max solves k . in = [I | B . k_prev],
    and each of its columns has mass one."""
    n_max = 1 + int(5 * u)
    k = matrix_cata_fixpoint(B, I, n_max, B.col_dim)
    in_mat, shift = _for_in(n_max)
    drift = float(np.max(np.abs(k.data.sum(axis=0) - 1.0)))
    return max(max_dev(k @ in_mat, junc(I, B @ (k @ shift))), drift)


def _khatri_fusion(M: Matrix, N: Matrix, h: Matrix) -> float:
    return max_dev(khatri(M, N) @ h, khatri(M @ h, N @ h))


def _unzip_natural(functor: FunctorDesc, m: Matrix, n: Matrix) -> float:
    """unzip is natural: F M (x) F N after unzip equals unzip after F (M (x) N)."""
    lhs = kron(functor.on_matrix(m), functor.on_matrix(n)) @ unzip(functor, m.col_dim, n.col_dim)
    rhs = unzip(functor, m.row_dim, n.row_dim) @ functor.on_matrix(kron(m, n))
    return max_dev(lhs, rhs)


def _injective(combine: Callable[[Matrix, Matrix], Matrix], spec: str) -> _LawDef:
    """combine(M, N) = combine(P, Q) exactly when M = P and N = Q; P and Q are
    each a copy of M, N or a fresh draw of the same type, with even odds."""
    draw = _draws(spec)

    def law(rng, cfg):
        m, n = draw(rng, cfg).values()
        p = m if rng.random() < 0.5 else random_cs_matrix(rng, m.col_dim, m.row_dim)
        q = n if rng.random() < 0.5 else random_cs_matrix(rng, n.col_dim, n.row_dim)
        lhs = max_dev(combine(m, n), combine(p, q)) <= cfg.tol
        rhs = max_dev(m, p) <= cfg.tol and max_dev(n, q) <= cfg.tol
        return (0.0 if lhs == rhs else 1.0), dict(M=m, N=n, P=p, Q=q)
    return _LawDef(law)


def _tupling(h: Algebra, k: Algebra, inputs) -> tuple[bool, float]:
    """Whether tupling h and k passes its side condition on 0..5, and the largest
    TV distance over inputs (within 0..5) between the paired mutual fold and the
    tupled fold; both folds run once, the tupled one by the side condition's check."""
    _, report, folds = _tupled_checked(_FOR, h, k, range(6))
    mutual = list(_mutual_folds(_FOR, h, k, max(inputs)))
    return report.holds, max(tv_distance(pair(*mutual[n]), folds[n]) for n in inputs)


def _fold_matrix(alg: Algebra, inputs: Dim, carrier: Dim) -> Matrix:
    """The matrix of the library's fold of alg over every input in inputs. Inputs
    come shortest first, so each is one layer on a fold already made: a loop
    count on the count below it, a list on its tail."""
    folds = dict(zip(inputs.elements(), _fold_each(alg, inputs.elements())))
    return from_probfn(folds.__getitem__, inputs, carrier)


def _small_functor(rng) -> FunctorDesc:
    roll = rng.random()
    if roll < 0.35:
        return _FOR
    if roll < 0.7:
        return ListF(_range(rng, 1, 3))
    if roll < 0.85:
        return IdF()
    return ConstF(_range(rng, 1, 3))


# ---------------------------------------------------------------------------
# law bodies take (rng, cfg), fixed instances nothing; both return (deviation, witness parts)

def _law_weak_product(rng, cfg):
    b, c = (_range(rng, 2, max(3, cfg.max_dim // 2) + 1) for _ in range(2))
    k = random_cs_matrix(rng, random_dim(rng, cfg.max_dim), Product(b, c))
    return max_dev(_reconstruction(k), k), dict(k=k)


def _weak_product_fixed():
    k = reference.counterexample_matrix()
    recon = _reconstruction(k)
    return max_dev(recon, k), dict(k=k, reconstruction=recon)


def _law_index_rules(rng, cfg):
    # rule: y (f.N) x sums N over the f-preimage of y, for sharp f
    z, y, a = _dims(rng, cfg, 3)
    f, n = random_sharp(rng, z, y), random_cs_matrix(rng, a, z)
    fn = _sharp_fn_of(f)
    lhs = (f @ n).data
    oracle = np.zeros_like(lhs)
    for i, yv in enumerate(y.elements()):
        for j in range(a.size):
            oracle[i, j] = math.fsum(
                n.data[zi, j] for zi, zv in enumerate(z.elements()) if fn(zv) == yv
            )
    # rule: sandwiching N between sharp f and the converse of sharp g reads
    # entries off N directly: entry(y, x) = N(g y, f x)
    b, c, a2, d = _dims(rng, cfg, 4)
    n2 = random_cs_matrix(rng, b, c)
    f2, g2 = random_sharp(rng, a2, b), random_sharp(rng, d, c)
    ffn, gfn = _sharp_fn_of(f2), _sharp_fn_of(g2)
    lhs2 = (converse(g2) @ n2 @ f2).data
    oracle2 = np.zeros_like(lhs2)
    for i, yv in enumerate(d.elements()):
        for j, xv in enumerate(a2.elements()):
            oracle2[i, j] = n2.data[c.index_of(gfn(yv)), b.index_of(ffn(xv))]
    return max(_gap(lhs, oracle), _gap(lhs2, oracle2)), dict(f=f, N=n)


def _law_facts_27_28(rng, cfg):
    a = random_dim(rng, cfg.max_dim)
    b, c = _range(rng, 2, cfg.max_dim + 1), _range(rng, 2, cfg.max_dim + 1)
    k, picks = _random_k_sharp(rng, a, b, c, sharp_fst=True)
    dev = 0.0
    for j, pick in enumerate(picks):
        block = slice(pick * c.size, (pick + 1) * c.size)
        inside = math.fsum(k.data[block, j])
        outside = math.fsum(k.data[:, j]) - inside
        dev = max(dev, abs(inside - 1.0), abs(outside))
    return dev, dict(k=k)


def _law_sharp_reconstruction(rng, cfg):
    a = random_dim(rng, cfg.max_dim)
    b, c = _range(rng, 2, cfg.max_dim + 1), _range(rng, 2, cfg.max_dim + 1)
    k1, _ = _random_k_sharp(rng, a, b, c, sharp_fst=True)
    k2, _ = _random_k_sharp(rng, a, b, c, sharp_fst=False)
    dev = max(max_dev(_reconstruction(k), k) for k in (k1, k2))
    return dev, dict(k_fst_sharp=k1, k_snd_sharp=k2)


def _law_base_choice(rng, cfg):
    carrier = _range(rng, 2, 6)
    f = to_probfn(random_cs_matrix(rng, carrier, carrier))
    a, b = (int(rng.integers(0, carrier.size)) for _ in range(2))
    p = float(rng.random())
    n = int(rng.integers(0, 7))
    return tv_distance(*base_choice_split(f, a, b, p, n)), dict(a=a, b=b, p=p, n=n)


def _law_fold_fusion(rng, cfg):
    if rng.random() < 0.5:
        # counting after lossy copying vs its consolidated single fold
        p, q = float(rng.random()), float(rng.random())
        xs = "".join("ab"[i] for i in _random_list(rng, (0, 1), 5))
        count_alg = fcount_algebra(q)
        post = cache(partial(cata_eval, count_alg.functor, count_alg))  # each copy counted once
        report = fold_fusion_check(post, fcat_algebra(p, xs), consolidated_count_algebra(p, q), [xs])
    else:
        # relabeling a fold's carrier through a sharp bijection
        carrier = _range(rng, 2, 5)
        alphabet = tuple(range(int(rng.integers(1, 4))))
        g_step = _table_step(rng, [(a, s) for a in alphabet for s in carrier.elements()], carrier)
        g_alg = Algebra(ListF(), random_dist(rng, carrier), g_step)
        perm = rng.permutation(carrier.size)
        inv = np.argsort(perm)
        post = lambda s: dirac(int(perm[s]))
        cand = Algebra(
            ListF(),
            dist_map(g_alg.base, lambda s: int(perm[s])),
            lambda av: dist_map(g_step((av[0], int(inv[av[1]]))), lambda s: int(perm[s])),
        )
        xs = _random_list(rng, alphabet, 4)
        report = fold_fusion_check(post, g_alg, cand, [xs],
                                   carrier_values=carrier.elements(), alphabet=alphabet)
    dev = max(report.side_condition_dev, report.pipeline_dev)
    return dev, f"fold fusion deviation {dev!r}"


def _law_cata_universal(rng, cfg):
    carrier = _range(rng, 2, 5)
    base = random_dist(rng, carrier)
    if rng.random() < 0.5:
        functor, inputs, (in_mat, inclusion) = _FOR, Range(9), _for_in(8)
    else:
        functor, inputs, (in_mat, inclusion) = ListF(Range(2)), _list_dim(2, 4), _list_in(2, 4)
    step_dom = functor.on_dim(carrier).right
    step = _table_step(rng, step_dom, carrier)
    k = _fold_matrix(Algebra(functor, base, step), inputs, carrier)
    alg_mat = junc(from_probfn(lambda _u: base, UNIT, carrier), from_probfn(step, step_dom, carrier))
    dev = max_dev(k @ in_mat, alg_mat @ functor.on_matrix(k @ inclusion))
    return dev, f"universal-property deviation {dev!r}"


def _law_banana_split(rng, cfg):
    c1, c2 = _range(rng, 2, 5), _range(rng, 2, 5)
    functor = _FOR if rng.random() < 0.5 else ListF(_range(rng, 1, 3))
    f_alg, g_alg = (Algebra(functor, random_dist(rng, c), _table_step(rng, functor.on_dim(c).right, c))
                    for c in (c1, c2))
    value = int(rng.integers(0, 7)) if functor == _FOR else _random_list(rng, functor.alphabet.elements(), 5)
    combined = banana_split(functor, f_alg, g_alg)
    lhs = pair(cata_eval(functor, f_alg, value), cata_eval(functor, g_alg, value))
    dev = tv_distance(lhs, cata_eval(functor, combined, value))
    return dev, f"banana-split deviation {dev!r} at input {value!r}"


def _law_unzip_naturality(rng, cfg):
    functor = _FOR if rng.random() < 0.5 else ListF(_range(rng, 1, 3))
    b, b2, c, c2 = (_range(rng, 1, 4) for _ in range(4))
    m, n = random_cs_matrix(rng, b, b2), random_cs_matrix(rng, c, c2)
    return _unzip_natural(functor, m, n), dict(M=m, N=n)


def _law_unzip_corollary(rng, cfg):
    functor = _FOR if rng.random() < 0.5 else ListF(_range(rng, 1, 3))
    a, b, c = (_range(rng, 1, 4) for _ in range(3))
    m, n = random_cs_matrix(rng, a, b), random_cs_matrix(rng, a, c)
    lhs = unzip(functor, b, c) @ functor.on_matrix(khatri(m, n))
    rhs = khatri(functor.on_matrix(m), functor.on_matrix(n))
    return max_dev(lhs, rhs), dict(M=m, N=n)


def _law_khatri_fusion_nonsharp(rng, cfg):
    """Dims of two or more: a one-element a makes h sharp, b or c the pairing trivial."""
    a, b, c = _range(rng, 2, cfg.max_dim + 1), _range(rng, 2, 4), _range(rng, 2, 4)
    z = random_dim(rng, cfg.max_dim)
    m, n, h = random_cs_matrix(rng, a, b), random_cs_matrix(rng, a, c), random_cs_matrix(rng, z, a)
    return _khatri_fusion(m, n, h), dict(M=m, N=n, h=h)


def _law_unzip_comp(rng, cfg):
    outer, inner = _small_functor(rng), _small_functor(rng)
    functor = CompF(outer, inner)
    b, c = _range(rng, 1, 3), _range(rng, 1, 3)
    via = compose(unzip(outer, inner.on_dim(b), inner.on_dim(c)),
                  outer.on_matrix(unzip(inner, b, c)))
    dev = data_dev(unzip(functor, b, c), via)
    b2, c2 = _range(rng, 1, 3), _range(rng, 1, 3)
    m, n = random_cs_matrix(rng, b, b2), random_cs_matrix(rng, c, c2)
    return max(dev, _unzip_natural(functor, m, n)), dict(M=m, N=n)


def _law_unzip_sum(rng, cfg):
    g, h = _small_functor(rng), _small_functor(rng)
    functor = SumF(g, h)
    b, c = _range(rng, 1, 3), _range(rng, 1, 3)
    dev = 0.0
    for inj, summand in ((inj_left, g), (inj_right, h)):
        into = lambda d: inj(g.on_dim(d), h.on_dim(d))
        lhs = unzip(functor, b, c) @ into(Product(b, c))
        dev = max(dev, max_dev(lhs, kron(into(b), into(c)) @ unzip(summand, b, c)))
    # junc/oplus Khatri identity over arbitrary CS matrices
    a, a2 = _dims(rng, cfg, 2)
    bb, bb2, cc, cc2 = (_range(rng, 1, 4) for _ in range(4))
    m, n = random_cs_matrix(rng, a, bb), random_cs_matrix(rng, a, cc)
    p, q = random_cs_matrix(rng, a2, bb2), random_cs_matrix(rng, a2, cc2)
    j1 = kron(inj_left(bb, bb2), inj_left(cc, cc2))
    j2 = kron(inj_right(bb, bb2), inj_right(cc, cc2))
    lhs = junc(j1 @ khatri(m, n), j2 @ khatri(p, q))
    rhs = khatri(oplus(m, p), oplus(n, q))
    return max(dev, max_dev(lhs, rhs)), dict(M=m, N=n, P=p, Q=q)


def _law_mutual_recursion(rng, cfg):
    c1, c2 = _range(rng, 2, 5), _range(rng, 2, 5)
    states = [(x, y) for x in c1.elements() for y in c2.elements()]
    sharp_second = rng.random() < 0.5
    if sharp_second:
        h = Algebra(_FOR, random_dist(rng, c1), _table_step(rng, states, c1))
        phi = rng.integers(0, c2.size, size=c2.size)
        k = Algebra(_FOR, dirac(int(rng.integers(0, c2.size))),
                    lambda s, phi=phi: dirac(int(phi[s[1]])))
    else:
        phi = rng.integers(0, c1.size, size=c1.size)
        h = Algebra(_FOR, dirac(int(rng.integers(0, c1.size))),
                    lambda s, phi=phi: dirac(int(phi[s[0]])))
        k = Algebra(_FOR, random_dist(rng, c2), _table_step(rng, states, c2))
    holds, dev = _tupling(h, k, range(6))
    dev = max(0.0 if holds else 1.0, dev)
    return dev, f"tupling deviation {dev!r}"


def _mutual_recursion_fib_fixed():
    holds, dev = _tupling(*fib_algebras(0.1), [5])
    if holds:
        return 0.0, None
    return dev, f"pairing vs tupled fold differ by TV {dev!r} at n=5"


# ---------------------------------------------------------------------------
# catalogue and drivers

@dataclass(frozen=True)
class _LawDef:
    """A law: a body for random instances, a fixed instance run once, or both."""

    fn: Callable | None
    expected_fail: bool = False
    fixed: Callable[[], tuple] | None = None


def _draws(spec: str) -> Callable:
    """Drawer for a spec of NAME:DIMS tokens. Every dim letter is drawn first, in
    alphabetical order ("1" is the unit dim); then each token in order: no
    letter is a uniform scalar in [0, 1), one letter names that dim, two are a
    CS matrix from the first dim to the second (a sharp one if ":sharp" follows).
    """
    tokens = [token.split(":") for token in spec.split()]
    letters = sorted({ch for _, dims, *_ in tokens for ch in dims} - {"1"})

    def draw(rng, cfg) -> dict[str, Any]:
        dims = dict(zip(letters, _dims(rng, cfg, len(letters))), **{"1": UNIT})
        out: dict[str, Any] = {}
        for name, spelled, *kind in tokens:
            if not spelled:
                out[name] = float(rng.random())
            elif len(spelled) == 1:
                out[name] = dims[spelled]
            else:
                random_matrix = random_sharp if kind == ["sharp"] else random_cs_matrix
                out[name] = random_matrix(rng, dims[spelled[0]], dims[spelled[1]])
        return out
    return draw


def _row(spec: str, dev: Callable[..., float]) -> _LawDef:
    """A law whose instance is drawn from spec and whose deviation is dev(**draws)."""
    draw = _draws(spec)

    def law(rng, cfg):
        parts = draw(rng, cfg)
        return dev(**parts), parts
    return _LawDef(law)


# The lambdas look combinators up at call time, so rebinding a module name reaches every law.
CATALOGUE: dict[str, _LawDef] = {
    "compose_mult": _row("f:bc g:ab", _compose_mult),
    "junc_fusion": _row("M:ac N:bc P:cd",
                        lambda M, N, P: max_dev(P @ junc(M, N), junc(P @ M, P @ N))),
    "junc_equality": _injective(lambda m, n: junc(m, n), "M:ac N:bc"),
    "junc_absorption": _row("M:ac N:bc P:da Q:eb", lambda M, N, P, Q: max_dev(
        junc(M, N) @ oplus(P, Q), junc(M @ P, N @ Q))),
    "split_converse": _row("M:ca N:cb", lambda M, N: max_dev(
        split(M, N), converse(junc(converse(M), converse(N))))),
    "for_universal": _row("B:aa I:1a u:", _for_universal),
    "divide_conquer": _row("M:ac N:bc P:da Q:db", lambda M, N, P, Q: max_dev(
        junc(M, N) @ split(P, Q), madd(M @ P, N @ Q))),
    "khatri_def": _row("M:ab N:ac",
                       lambda M, N: _gap(khatri(M, N).data, _khatri_entries(M, N))),
    "kron_def": _row("M:ab N:cd", lambda M, N: _gap(kron(M, N).data, _kron_entries(M, N))),
    "vec_khatri_kron": _row("u:1a v:1b", lambda u, v: data_dev(khatri(u, v), kron(u, v))),
    "exchange": _row("M:ab N:cb P:ad Q:cd", lambda M, N, P, Q: max_dev(
        khatri(junc(M, N), junc(P, Q)), junc(khatri(M, P), khatri(N, Q)))),
    "pairwise_equality": _injective(lambda m, n: khatri(m, n), "M:ab N:ac"),
    "cancellation": _row("M:ab N:ac",
                         lambda M, N: max(map(max_dev, _projections(khatri(M, N)), (M, N)))),
    "weak_product": _LawDef(_law_weak_product, expected_fail=True, fixed=_weak_product_fixed),
    "reflection": _row("B:a C:b", lambda B, C: max_dev(
        khatri(fst_matrix(B, C), snd_matrix(B, C)), identity(Product(B, C)))),
    "index_rules": _LawDef(_law_index_rules),
    "facts_27_28": _LawDef(_law_facts_27_28),
    "sharp_reconstruction": _LawDef(_law_sharp_reconstruction),
    "choice_fusion": _row("p: M:bc N:bc h:ab h2:cd", lambda p, M, N, h, h2: max(
        max_dev(mat_choice(p, M, N) @ h, mat_choice(p, M @ h, N @ h)),
        max_dev(h2 @ mat_choice(p, M, N), mat_choice(p, h2 @ M, h2 @ N)))),
    "choice_exchange": _row("p: f:ac h:ac g:bc k:bc", lambda p, f, h, g, k: max_dev(
        mat_choice(p, junc(f, g), junc(h, k)), junc(mat_choice(p, f, h), mat_choice(p, g, k)))),
    "base_choice": _LawDef(_law_base_choice),
    "fold_fusion": _LawDef(_law_fold_fusion),
    "cata_universal": _LawDef(_law_cata_universal),
    "unzip_naturality": _LawDef(_law_unzip_naturality),
    "unzip_corollary": _LawDef(_law_unzip_corollary),
    "pairing_absorption": _row("N:ab M:bc Q:ad P:de", lambda N, M, Q, P: max_dev(
        khatri(M @ N, P @ Q), kron(M, P) @ khatri(N, Q))),
    "khatri_fusion_sharp": _row("M:ab N:ac h:da:sharp", _khatri_fusion),
    "khatri_fusion_nonsharp": _LawDef(_law_khatri_fusion_nonsharp, expected_fail=True),
    "unzip_comp": _LawDef(_law_unzip_comp),
    "unzip_sum": _LawDef(_law_unzip_sum),
    "banana_split": _LawDef(_law_banana_split),
    "mutual_recursion": _LawDef(_law_mutual_recursion),
    "mutual_recursion_fib": _LawDef(None, expected_fail=True, fixed=_mutual_recursion_fib_fixed),
}


class UnknownLawError(KeyError):
    pass


def check_law(name: str, cfg: TrialConfig) -> LawReport:
    """Run one catalogue law on cfg.trials seeded random instances, on its fixed
    instance (one trial when it has no random ones), or on both. An expected-fail
    law must be violated by each; the witness is the fixed instance's, if it has one."""
    try:
        spec = CATALOGUE[name]
    except KeyError:
        raise UnknownLawError(f"unknown law {name!r}; known: {', '.join(CATALOGUE)}") from None
    sources = []
    if spec.fn is not None:
        key = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
        rng = np.random.default_rng([cfg.seed & 0xFFFFFFFFFFFFFFFF, key])
        sources.append(spec.fn(rng, cfg) for _ in range(cfg.trials))
    if spec.fixed is not None:
        sources.append([spec.fixed()])
    worst, witness, each_violated, violations = 0.0, None, True, 0
    for runs in sources:
        first: str | None = None
        for dev, parts in runs:
            if dev > cfg.tol:
                violations += 1
                if first is None:
                    first = _witness(parts)
            worst = max(worst, dev)
        each_violated = each_violated and first is not None
        witness = witness if first is None else first
    if spec.expected_fail:
        status = "expected-fail" if each_violated else "fail"
    else:
        status = "pass" if worst <= cfg.tol else "fail"
    trials = cfg.trials if spec.fn is not None else 1
    return LawReport(name, trials, worst, status, witness, violations)


def check_all(cfg: TrialConfig) -> list[LawReport]:
    """Run the whole catalogue in order."""
    return [check_law(name, cfg) for name in CATALOGUE]


# ---------------------------------------------------------------------------
# risk preorder

@dataclass(frozen=True)
class RiskColumn:
    input: Any
    g_mass: float
    h_mass: float

    @property
    def leq(self) -> bool:
        return self.g_mass <= self.h_mass + 1e-12


@dataclass(frozen=True)
class RiskReport:
    """Per-input comparison of two approximations against a sharp reference."""

    columns: tuple[RiskColumn, ...]

    @property
    def dominates(self) -> bool:
        return all(col.leq for col in self.columns)


def risk_preorder(g: Matrix, h: Matrix, f: Matrix) -> RiskReport:
    """Decide g <=_f h: does h put at least as much mass on f's output, per input?

    Implemented through the entry-wise products g*f and h*f; requires f sharp.
    """
    if not f.is_sharp():
        raise DomainError("the reference matrix must be sharp")
    _same_dims(g, f, "g must have the reference's dims")
    _same_dims(h, f, "h must have the reference's dims")
    g_mass = hadamard(g, f).data.sum(axis=0)
    h_mass = hadamard(h, f).data.sum(axis=0)
    cols = tuple(
        RiskColumn(a, float(g_mass[j]), float(h_mass[j]))
        for j, a in enumerate(f.col_dim.elements())
    )
    return RiskReport(cols)
