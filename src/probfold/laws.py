"""Seeded randomized verifier for the combinator-algebra laws.

Every numbered transformation law gets a catalogue entry; a check runs a
configured number of random instances and reports the worst deviation between
the two sides. Negative results are first class: expected-fail laws succeed
exactly when a genuine violation is exhibited (reconstruction from
projections, fusion through a non-sharp function, tupling without a sharp
projection). RNG streams derive from (seed, law, trial), so results are
bit-reproducible and order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product
from typing import Any, Callable

import numpy as np

from .cases import (
    consolidated_count_algebra,
    fcat_algebra,
    fcount_algebra,
    fib_algebras,
)
from .dims import BOOLS, Dim, EnumDim, Product, Range, Sum, UNIT
from .dist import Dist, DomainError, dirac, dist_map, kleisli, pair, tv_distance
from .functors import CompF, ConstF, ForLoopF, FunctorDesc, IdF, ListF, SumF
from .matrix import (
    DimensionError,
    Matrix,
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
    matrices_close,
    max_dev,
    oplus,
    snd_matrix,
    split,
    to_probfn,
)
from .schemes import (
    Algebra,
    banana_split,
    base_choice_split,
    cata_eval,
    fold_fusion_check,
    matrix_cata_fixpoint,
    mutual_eval,
    tupled_from_mutual,
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
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if not 2 <= self.max_dim <= 12:
            raise DomainError(f"max_dim must be in 2..12, got {self.max_dim}")
        if not self.tol > 0:
            raise DomainError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class LawReport:
    """Outcome of one law check."""

    law: str
    trials: int
    max_dev: float
    status: str  # "pass" | "fail" | "expected-fail"
    witness: str | None = None

    def line(self) -> str:
        return f"{self.law}\t{self.status}\t{self.max_dev:.3e}\t{self.trials}"


# ---------------------------------------------------------------------------
# random instance generators

def random_dim(rng: np.random.Generator, max_size: int, depth: int = 2) -> Dim:
    """A random dimension of total size 1..max_size, nesting depth <= depth."""
    size = int(rng.integers(1, max_size + 1))
    return _structured(rng, size, depth)


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


def random_probfn(rng: np.random.Generator, in_dim: Dim, out_dim: Dim):
    return to_probfn(random_cs_matrix(rng, in_dim, out_dim))


def _sharp_fn_of(m: Matrix) -> Callable[[Any], Any]:
    """Value-level function encoded by a sharp matrix."""
    rows = m.row_dim.elements()
    table = {a: rows[int(np.argmax(m.data[:, j]))] for j, a in enumerate(m.col_dim.elements())}
    return lambda a: table[a]


def _witness(**parts) -> str:
    chunks = []
    for name, value in parts.items():
        if isinstance(value, Matrix):
            chunks.append(f"{name}: {value.col_dim} -> {value.row_dim}\n{value.to_csv()}")
        else:
            chunks.append(f"{name} = {value!r}")
    return "\n".join(chunks)


@lru_cache(maxsize=None)
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
# law bodies: each takes (rng, cfg) and returns (deviation, witness-or-None)

def _law_compose_mult(rng, cfg):
    a, b, c = (random_dim(rng, cfg.max_dim) for _ in range(3))
    f = random_probfn(rng, b, c)
    g = random_probfn(rng, a, b)
    composed = from_probfn(kleisli(f, g), a, c)
    mf, mg = from_probfn(f), from_probfn(g)
    prod = mf @ mg
    dev = max_dev(composed, prod)
    naive = np.array([
        [math.fsum(mf.data[i, k] * mg.data[k, j] for k in range(b.size)) for j in range(a.size)]
        for i in range(c.size)
    ])
    dev = max(dev, float(np.max(np.abs(prod.data - naive))))
    return dev, _witness(f=mf, g=mg) if dev > cfg.tol else None


def _law_junc_fusion(rng, cfg):
    a, b, c, d = (random_dim(rng, cfg.max_dim) for _ in range(4))
    m, n = random_cs_matrix(rng, a, c), random_cs_matrix(rng, b, c)
    p = random_cs_matrix(rng, c, d)
    dev = max_dev(p @ junc(m, n), junc(p @ m, p @ n))
    return dev, _witness(P=p, M=m, N=n) if dev > cfg.tol else None


def _law_junc_equality(rng, cfg):
    a, b, c = (random_dim(rng, cfg.max_dim) for _ in range(3))
    m, n = random_cs_matrix(rng, a, c), random_cs_matrix(rng, b, c)
    p = m if rng.random() < 0.5 else random_cs_matrix(rng, a, c)
    q = n if rng.random() < 0.5 else random_cs_matrix(rng, b, c)
    lhs = matrices_close(junc(m, n), junc(p, q), cfg.tol)
    rhs = matrices_close(m, p, cfg.tol) and matrices_close(n, q, cfg.tol)
    dev = 0.0 if lhs == rhs else 1.0
    return dev, _witness(M=m, N=n, P=p, Q=q) if dev > cfg.tol else None


def _law_junc_absorption(rng, cfg):
    a, b, c, a2, b2 = (random_dim(rng, cfg.max_dim) for _ in range(5))
    m, n = random_cs_matrix(rng, a, c), random_cs_matrix(rng, b, c)
    p, q = random_cs_matrix(rng, a2, a), random_cs_matrix(rng, b2, b)
    dev = max_dev(junc(m, n) @ oplus(p, q), junc(m @ p, n @ q))
    return dev, _witness(M=m, N=n, P=p, Q=q) if dev > cfg.tol else None


def _law_split_converse(rng, cfg):
    a, b, c = (random_dim(rng, cfg.max_dim) for _ in range(3))
    m, n = random_cs_matrix(rng, c, a), random_cs_matrix(rng, c, b)
    dev = max_dev(split(m, n), converse(junc(converse(m), converse(n))))
    return dev, _witness(M=m, N=n) if dev > cfg.tol else None


def _law_for_universal(rng, cfg):
    m_size = int(rng.integers(1, cfg.max_dim + 1))
    state = Range(m_size)
    body = random_cs_matrix(rng, state, state)
    init = random_cs_matrix(rng, UNIT, state)
    n_max = int(rng.integers(1, 6))
    k = matrix_cata_fixpoint(body, init, n_max, state)
    inputs = Range(n_max + 1)
    prev = Range(n_max)
    in_mat = junc(from_sharp_fn(lambda _u: 0, UNIT, inputs),
                  from_sharp_fn(lambda j: j + 1, prev, inputs))
    k_prev = k @ from_sharp_fn(lambda j: j, prev, inputs)
    dev = max_dev(k @ in_mat, junc(init, body @ k_prev))
    if not k.is_column_stochastic(cfg.tol):
        dev = max(dev, 1.0)
    return dev, _witness(body=body, init=init) if dev > cfg.tol else None


def _law_divide_conquer(rng, cfg):
    a, b, c, d = (random_dim(rng, cfg.max_dim) for _ in range(4))
    m, n = random_cs_matrix(rng, a, c), random_cs_matrix(rng, b, c)
    p, q = random_cs_matrix(rng, d, a), random_cs_matrix(rng, d, b)
    dev = max_dev(junc(m, n) @ split(p, q), madd(m @ p, n @ q))
    return dev, _witness(M=m, N=n, P=p, Q=q) if dev > cfg.tol else None


def _law_khatri_def(rng, cfg):
    a, b, c = (random_dim(rng, cfg.max_dim) for _ in range(3))
    m, n = random_cs_matrix(rng, a, b), random_cs_matrix(rng, a, c)
    k = khatri(m, n)
    naive = np.zeros((b.size * c.size, a.size))
    for i in range(b.size):
        for j in range(c.size):
            naive[i * c.size + j, :] = m.data[i, :] * n.data[j, :]
    dev = float(np.max(np.abs(k.data - naive)))
    return dev, _witness(M=m, N=n) if dev > cfg.tol else None


def _law_kron_def(rng, cfg):
    b, y, a, x = (random_dim(rng, cfg.max_dim) for _ in range(4))
    m, n = random_cs_matrix(rng, b, y), random_cs_matrix(rng, a, x)
    k = kron(m, n)
    naive = np.zeros((y.size * x.size, b.size * a.size))
    for i in range(y.size):
        for j in range(x.size):
            for s in range(b.size):
                for t in range(a.size):
                    naive[i * x.size + j, s * a.size + t] = m.data[i, s] * n.data[j, t]
    dev = float(np.max(np.abs(k.data - naive)))
    return dev, _witness(M=m, N=n) if dev > cfg.tol else None


def _law_vec_khatri_kron(rng, cfg):
    b, c = random_dim(rng, cfg.max_dim), random_dim(rng, cfg.max_dim)
    u, v = random_cs_matrix(rng, UNIT, b), random_cs_matrix(rng, UNIT, c)
    dev = data_dev(khatri(u, v), kron(u, v))
    return dev, _witness(u=u, v=v) if dev > cfg.tol else None


def _law_exchange(rng, cfg):
    a, b, c, d = (random_dim(rng, cfg.max_dim) for _ in range(4))
    m, n = random_cs_matrix(rng, a, b), random_cs_matrix(rng, c, b)
    p, q = random_cs_matrix(rng, a, d), random_cs_matrix(rng, c, d)
    dev = max_dev(khatri(junc(m, n), junc(p, q)), junc(khatri(m, p), khatri(n, q)))
    return dev, _witness(M=m, N=n, P=p, Q=q) if dev > cfg.tol else None


def _law_pairwise_equality(rng, cfg):
    a, b, c = (random_dim(rng, cfg.max_dim) for _ in range(3))
    k, h = random_cs_matrix(rng, a, b), random_cs_matrix(rng, a, c)
    f = k if rng.random() < 0.5 else random_cs_matrix(rng, a, b)
    g = h if rng.random() < 0.5 else random_cs_matrix(rng, a, c)
    lhs = matrices_close(khatri(k, h), khatri(f, g), cfg.tol)
    rhs = matrices_close(k, f, cfg.tol) and matrices_close(h, g, cfg.tol)
    dev = 0.0 if lhs == rhs else 1.0
    return dev, _witness(K=k, H=h, F=f, G=g) if dev > cfg.tol else None


def _law_cancellation(rng, cfg):
    a, b, c = (random_dim(rng, cfg.max_dim) for _ in range(3))
    m, n = random_cs_matrix(rng, a, b), random_cs_matrix(rng, a, c)
    paired = khatri(m, n)
    dev = max(max_dev(fst_matrix(b, c) @ paired, m), max_dev(snd_matrix(b, c) @ paired, n))
    return dev, _witness(M=m, N=n) if dev > cfg.tol else None


def _law_weak_product(rng, cfg):
    b = Range(int(rng.integers(2, max(3, cfg.max_dim // 2) + 1)))
    c = Range(int(rng.integers(2, max(3, cfg.max_dim // 2) + 1)))
    a = random_dim(rng, cfg.max_dim)
    k = random_cs_matrix(rng, a, Product(b, c))
    recon = khatri(fst_matrix(b, c) @ k, snd_matrix(b, c) @ k)
    dev = max_dev(recon, k)
    return dev, _witness(k=k) if dev > cfg.tol else None


def _weak_product_fixed(cfg):
    k = reference.counterexample_matrix()
    b, c = Range(2), Range(3)
    recon = khatri(fst_matrix(b, c) @ k, snd_matrix(b, c) @ k)
    dev = max_dev(recon, k)
    ok = dev >= 0.2
    return ok, dev, _witness(k=k, reconstruction=recon)


def _law_reflection(rng, cfg):
    b, c = random_dim(rng, cfg.max_dim), random_dim(rng, cfg.max_dim)
    dev = max_dev(khatri(fst_matrix(b, c), snd_matrix(b, c)), identity(Product(b, c)))
    return dev, None if dev <= cfg.tol else _witness(B=b, C=c)


def _law_index_rules(rng, cfg):
    # rule: y (f.N) x sums N over the f-preimage of y, for sharp f
    z, y, a = (random_dim(rng, cfg.max_dim) for _ in range(3))
    f = random_sharp(rng, z, y)
    n = random_cs_matrix(rng, a, z)
    fn = _sharp_fn_of(f)
    lhs = (f @ n).data
    oracle = np.zeros_like(lhs)
    for i, yv in enumerate(y.elements()):
        for j in range(a.size):
            oracle[i, j] = math.fsum(
                n.data[zi, j] for zi, zv in enumerate(z.elements()) if fn(zv) == yv
            )
    dev = float(np.max(np.abs(lhs - oracle)))
    # rule: sandwiching N between sharp f and the converse of sharp g reads
    # entries off N directly: entry(y, x) = N(g y, f x)
    b, c, a2, d = (random_dim(rng, cfg.max_dim) for _ in range(4))
    n2 = random_cs_matrix(rng, b, c)
    f2 = random_sharp(rng, a2, b)
    g2 = random_sharp(rng, d, c)
    ffn, gfn = _sharp_fn_of(f2), _sharp_fn_of(g2)
    lhs2 = (converse(g2) @ n2 @ f2).data
    oracle2 = np.zeros_like(lhs2)
    for i, yv in enumerate(d.elements()):
        for j, xv in enumerate(a2.elements()):
            oracle2[i, j] = n2.data[c.index_of(gfn(yv)), b.index_of(ffn(xv))]
    dev = max(dev, float(np.max(np.abs(lhs2 - oracle2))))
    return dev, _witness(f=f, N=n) if dev > cfg.tol else None


def _random_k_fst_sharp(rng, a: Dim, b: Dim, c: Dim) -> tuple[Matrix, np.ndarray]:
    data = np.zeros((b.size * c.size, a.size))
    picks = rng.integers(0, b.size, size=a.size)
    for j in range(a.size):
        block = rng.random(c.size) + 1e-9
        block /= block.sum()
        data[picks[j] * c.size:(picks[j] + 1) * c.size, j] = block
    return Matrix(a, Product(b, c), data), picks


def _random_k_snd_sharp(rng, a: Dim, b: Dim, c: Dim) -> Matrix:
    data = np.zeros((b.size * c.size, a.size))
    picks = rng.integers(0, c.size, size=a.size)
    for j in range(a.size):
        block = rng.random(b.size) + 1e-9
        block /= block.sum()
        data[picks[j] + c.size * np.arange(b.size), j] = block
    return Matrix(a, Product(b, c), data)


def _law_facts_27_28(rng, cfg):
    a = random_dim(rng, cfg.max_dim)
    b = Range(int(rng.integers(2, cfg.max_dim + 1)))
    c = Range(int(rng.integers(2, cfg.max_dim + 1)))
    k, picks = _random_k_fst_sharp(rng, a, b, c)
    dev = 0.0
    for j in range(a.size):
        block = slice(picks[j] * c.size, (picks[j] + 1) * c.size)
        inside = math.fsum(k.data[block, j])
        outside = math.fsum(k.data[:, j]) - inside
        dev = max(dev, abs(inside - 1.0), abs(outside))
    return dev, _witness(k=k) if dev > cfg.tol else None


def _law_sharp_reconstruction(rng, cfg):
    a = random_dim(rng, cfg.max_dim)
    b = Range(int(rng.integers(2, cfg.max_dim + 1)))
    c = Range(int(rng.integers(2, cfg.max_dim + 1)))
    k1, _ = _random_k_fst_sharp(rng, a, b, c)
    k2 = _random_k_snd_sharp(rng, a, b, c)
    dev = 0.0
    for k in (k1, k2):
        recon = khatri(fst_matrix(b, c) @ k, snd_matrix(b, c) @ k)
        dev = max(dev, max_dev(recon, k))
    return dev, _witness(k_fst_sharp=k1, k_snd_sharp=k2) if dev > cfg.tol else None


def _law_choice_fusion(rng, cfg):
    a, b, c, d = (random_dim(rng, cfg.max_dim) for _ in range(4))
    p = float(rng.random())
    m, n = random_cs_matrix(rng, b, c), random_cs_matrix(rng, b, c)
    h = random_cs_matrix(rng, a, b)
    dev = max_dev(mat_choice(p, m, n) @ h, mat_choice(p, m @ h, n @ h))
    h2 = random_cs_matrix(rng, c, d)
    dev = max(dev, max_dev(h2 @ mat_choice(p, m, n), mat_choice(p, h2 @ m, h2 @ n)))
    return dev, _witness(M=m, N=n, h=h, p=p) if dev > cfg.tol else None


def _law_choice_exchange(rng, cfg):
    a, b, c = (random_dim(rng, cfg.max_dim) for _ in range(3))
    p = float(rng.random())
    f, h = random_cs_matrix(rng, a, c), random_cs_matrix(rng, a, c)
    g, k = random_cs_matrix(rng, b, c), random_cs_matrix(rng, b, c)
    dev = max_dev(mat_choice(p, junc(f, g), junc(h, k)),
                  junc(mat_choice(p, f, h), mat_choice(p, g, k)))
    return dev, _witness(f=f, g=g, h=h, k=k, p=p) if dev > cfg.tol else None


def _law_base_choice(rng, cfg):
    size = int(rng.integers(2, 6))
    carrier = Range(size)
    f = random_probfn(rng, carrier, carrier)
    a, b = (int(rng.integers(0, size)) for _ in range(2))
    p = float(rng.random())
    n = int(rng.integers(0, 7))
    lhs, rhs = base_choice_split(f, a, b, p, n)
    dev = tv_distance(lhs, rhs)
    return dev, _witness(a=a, b=b, p=p, n=n) if dev > cfg.tol else None


def _law_fold_fusion(rng, cfg):
    if rng.random() < 0.5:
        # counting after lossy copying vs its consolidated single fold
        p, q = float(rng.random()), float(rng.random())
        length = int(rng.integers(0, 6))
        xs = "".join("ab"[int(i)] for i in rng.integers(0, 2, size=length))
        count_alg = fcount_algebra(q)
        post = lambda s: cata_eval(count_alg.functor, count_alg, s)
        report = fold_fusion_check(post, fcat_algebra(p, xs), consolidated_count_algebra(p, q), [xs])
    else:
        # relabeling a fold's carrier through a sharp bijection
        size = int(rng.integers(2, 5))
        carrier = Range(size)
        alphabet = tuple(range(int(rng.integers(1, 4))))
        keys = [(a, s) for a in alphabet for s in range(size)]
        g_step = _table_step(rng, keys, carrier)
        g_alg = Algebra(ListF(), random_dist(rng, carrier), g_step)
        perm = rng.permutation(size)
        inv = np.argsort(perm)
        post = lambda s: dirac(int(perm[s]))
        cand = Algebra(
            ListF(),
            dist_map(g_alg.base, lambda s: int(perm[s])),
            lambda av: dist_map(g_step((av[0], int(inv[av[1]]))), lambda s: int(perm[s])),
        )
        length = int(rng.integers(0, 5))
        xs = tuple(int(a) for a in rng.choice(alphabet, size=length)) if length else ()
        report = fold_fusion_check(post, g_alg, cand, [xs],
                                   carrier_values=range(size), alphabet=alphabet)
    dev = max(report.side_condition_dev, report.pipeline_dev)
    return dev, f"fold fusion deviation {dev!r}" if dev > cfg.tol else None


def _law_cata_universal(rng, cfg):
    size = int(rng.integers(2, 5))
    carrier = Range(size)
    base = random_dist(rng, carrier)
    base_col = from_probfn(lambda _u: base, UNIT, carrier)
    if rng.random() < 0.5:
        step = _table_step(rng, list(range(size)), carrier)
        alg = Algebra(_FOR, base, step)
        n_max = 8
        cols = Range(n_max + 1)
        k = from_probfn(lambda j: cata_eval(_FOR, alg, j), cols, carrier)
        prev = Range(n_max)
        in_mat = junc(from_sharp_fn(lambda _u: 0, UNIT, cols),
                      from_sharp_fn(lambda j: j + 1, prev, cols))
        k_prev = k @ from_sharp_fn(lambda j: j, prev, cols)
        alg_mat = junc(base_col, from_probfn(step, carrier, carrier))
        rhs = alg_mat @ oplus(identity(UNIT), k_prev)
    else:
        alph_size, max_len = 2, 4
        alphabet = Range(alph_size)
        lists, shorter = _list_dim(alph_size, max_len), _list_dim(alph_size, max_len - 1)
        keys = [(a, s) for a in range(alph_size) for s in range(size)]
        step = _table_step(rng, keys, carrier)
        alg = Algebra(ListF(alphabet), base, step)
        k = from_probfn(lambda xs: cata_eval(alg.functor, alg, xs), lists, carrier)
        in_mat = junc(from_sharp_fn(lambda _u: (), UNIT, lists),
                      from_sharp_fn(lambda av: (av[0],) + av[1], Product(alphabet, shorter), lists))
        k_short = k @ from_sharp_fn(lambda xs: xs, shorter, lists)
        alg_mat = junc(base_col, from_probfn(step, Product(alphabet, carrier), carrier))
        rhs = alg_mat @ oplus(identity(UNIT), kron(identity(alphabet), k_short))
    dev = max_dev(k @ in_mat, rhs)
    return dev, f"universal-property deviation {dev!r}" if dev > cfg.tol else None


def _law_banana_split(rng, cfg):
    c1, c2 = Range(int(rng.integers(2, 5))), Range(int(rng.integers(2, 5)))
    if rng.random() < 0.5:
        functor = _FOR
        f_alg = Algebra(functor, random_dist(rng, c1), _table_step(rng, c1.elements(), c1))
        g_alg = Algebra(functor, random_dist(rng, c2), _table_step(rng, c2.elements(), c2))
        value = int(rng.integers(0, 7))
    else:
        alphabet = tuple(range(int(rng.integers(1, 3))))
        functor = ListF()
        f_alg = Algebra(functor, random_dist(rng, c1),
                        _table_step(rng, [(a, s) for a in alphabet for s in c1.elements()], c1))
        g_alg = Algebra(functor, random_dist(rng, c2),
                        _table_step(rng, [(a, s) for a in alphabet for s in c2.elements()], c2))
        length = int(rng.integers(0, 6))
        value = tuple(int(a) for a in rng.choice(alphabet, size=length)) if length else ()
    combined = banana_split(functor, f_alg, g_alg)
    lhs = pair(cata_eval(functor, f_alg, value), cata_eval(functor, g_alg, value))
    rhs = cata_eval(functor, combined, value)
    dev = tv_distance(lhs, rhs)
    return dev, f"banana-split deviation {dev!r} at input {value!r}" if dev > cfg.tol else None


def _small_functor(rng) -> FunctorDesc:
    roll = rng.random()
    if roll < 0.35:
        return _FOR
    if roll < 0.7:
        return ListF(Range(int(rng.integers(1, 3))))
    if roll < 0.85:
        return IdF()
    return ConstF(Range(int(rng.integers(1, 3))))


def _law_unzip_naturality(rng, cfg):
    functor = _FOR if rng.random() < 0.5 else ListF(Range(int(rng.integers(1, 3))))
    b, b2, c, c2 = (Range(int(rng.integers(1, 4))) for _ in range(4))
    m, n = random_cs_matrix(rng, b, b2), random_cs_matrix(rng, c, c2)
    lhs = kron(functor.on_matrix(m), functor.on_matrix(n)) @ unzip(functor, b, c)
    rhs = unzip(functor, b2, c2) @ functor.on_matrix(kron(m, n))
    dev = max_dev(lhs, rhs)
    return dev, _witness(M=m, N=n) if dev > cfg.tol else None


def _law_pairing_absorption(rng, cfg):
    a, b, c, d, e = (random_dim(rng, cfg.max_dim) for _ in range(5))
    n, m = random_cs_matrix(rng, a, b), random_cs_matrix(rng, b, c)
    q, p = random_cs_matrix(rng, a, d), random_cs_matrix(rng, d, e)
    dev = max_dev(khatri(m @ n, p @ q), kron(m, p) @ khatri(n, q))
    return dev, _witness(M=m, N=n, P=p, Q=q) if dev > cfg.tol else None


def _law_unzip_corollary(rng, cfg):
    functor = _FOR if rng.random() < 0.5 else ListF(Range(int(rng.integers(1, 3))))
    a, b, c = (Range(int(rng.integers(1, 4))) for _ in range(3))
    m, n = random_cs_matrix(rng, a, b), random_cs_matrix(rng, a, c)
    lhs = unzip(functor, b, c) @ functor.on_matrix(khatri(m, n))
    rhs = khatri(functor.on_matrix(m), functor.on_matrix(n))
    dev = max_dev(lhs, rhs)
    return dev, _witness(M=m, N=n) if dev > cfg.tol else None


def _law_khatri_fusion_sharp(rng, cfg):
    a, b, c, z = (random_dim(rng, cfg.max_dim) for _ in range(4))
    m, n = random_cs_matrix(rng, a, b), random_cs_matrix(rng, a, c)
    h = random_sharp(rng, z, a)
    dev = max_dev(khatri(m, n) @ h, khatri(m @ h, n @ h))
    return dev, _witness(M=m, N=n, h=h) if dev > cfg.tol else None


def _law_khatri_fusion_nonsharp(rng, cfg):
    a = Range(int(rng.integers(2, cfg.max_dim + 1)))
    b = Range(int(rng.integers(2, 4)))
    c = Range(int(rng.integers(2, 4)))
    z = random_dim(rng, cfg.max_dim)
    m, n = random_cs_matrix(rng, a, b), random_cs_matrix(rng, a, c)
    h = random_cs_matrix(rng, z, a)
    if h.is_sharp():
        return 0.0, None
    dev = max_dev(khatri(m, n) @ h, khatri(m @ h, n @ h))
    return dev, _witness(M=m, N=n, h=h) if dev > cfg.tol else None


def _law_unzip_comp(rng, cfg):
    outer, inner = _small_functor(rng), _small_functor(rng)
    functor = CompF(outer, inner)
    b, c = Range(int(rng.integers(1, 3))), Range(int(rng.integers(1, 3)))
    via = compose(unzip(outer, inner.on_dim(b), inner.on_dim(c)),
                  outer.on_matrix(unzip(inner, b, c)))
    dev = data_dev(unzip(functor, b, c), via)
    b2, c2 = Range(int(rng.integers(1, 3))), Range(int(rng.integers(1, 3)))
    m, n = random_cs_matrix(rng, b, b2), random_cs_matrix(rng, c, c2)
    lhs = kron(functor.on_matrix(m), functor.on_matrix(n)) @ unzip(functor, b, c)
    rhs = unzip(functor, b2, c2) @ functor.on_matrix(kron(m, n))
    dev = max(dev, max_dev(lhs, rhs))
    return dev, _witness(M=m, N=n) if dev > cfg.tol else None


def _law_unzip_sum(rng, cfg):
    g, h = _small_functor(rng), _small_functor(rng)
    functor = SumF(g, h)
    b, c = Range(int(rng.integers(1, 3))), Range(int(rng.integers(1, 3)))
    bc = Product(b, c)
    i1 = inj_left(g.on_dim(bc), h.on_dim(bc))
    i2 = inj_right(g.on_dim(bc), h.on_dim(bc))
    tb1 = kron(inj_left(g.on_dim(b), h.on_dim(b)), inj_left(g.on_dim(c), h.on_dim(c)))
    tb2 = kron(inj_right(g.on_dim(b), h.on_dim(b)), inj_right(g.on_dim(c), h.on_dim(c)))
    dev = max_dev(unzip(functor, b, c) @ i1, tb1 @ unzip(g, b, c))
    dev = max(dev, max_dev(unzip(functor, b, c) @ i2, tb2 @ unzip(h, b, c)))
    # junc/oplus Khatri identity over arbitrary CS matrices
    a, a2 = random_dim(rng, cfg.max_dim), random_dim(rng, cfg.max_dim)
    bb, bb2, cc, cc2 = (Range(int(rng.integers(1, 4))) for _ in range(4))
    m, n = random_cs_matrix(rng, a, bb), random_cs_matrix(rng, a, cc)
    p, q = random_cs_matrix(rng, a2, bb2), random_cs_matrix(rng, a2, cc2)
    j1 = kron(inj_left(bb, bb2), inj_left(cc, cc2))
    j2 = kron(inj_right(bb, bb2), inj_right(cc, cc2))
    lhs = junc(j1 @ khatri(m, n), j2 @ khatri(p, q))
    rhs = khatri(oplus(m, p), oplus(n, q))
    dev = max(dev, max_dev(lhs, rhs))
    return dev, _witness(M=m, N=n, P=p, Q=q) if dev > cfg.tol else None


def _law_mutual_recursion(rng, cfg):
    c1, c2 = Range(int(rng.integers(2, 5))), Range(int(rng.integers(2, 5)))
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
    tupled, report = tupled_from_mutual(_FOR, h, k, test_inputs=range(6))
    dev = 0.0 if report.holds else 1.0
    for n in range(6):
        lhs = pair(*mutual_eval(_FOR, h, k, n))
        rhs = cata_eval(_FOR, tupled, n)
        dev = max(dev, tv_distance(lhs, rhs))
    return dev, f"tupling deviation {dev!r}" if dev > cfg.tol else None


def _law_mutual_recursion_fib(rng, cfg):
    h, k = fib_algebras(0.1)
    tupled, report = tupled_from_mutual(_FOR, h, k, test_inputs=range(6))
    if report.holds:
        return 0.0, None
    lhs = pair(*mutual_eval(_FOR, h, k, 5))
    rhs = cata_eval(_FOR, tupled, 5)
    dev = tv_distance(lhs, rhs)
    return dev, f"pairing vs tupled fold differ by TV {dev!r} at n=5" if dev > cfg.tol else None


# ---------------------------------------------------------------------------
# catalogue and drivers

@dataclass(frozen=True)
class _LawDef:
    fn: Callable
    expected_fail: bool = False
    fixed: Callable | None = None


CATALOGUE: dict[str, _LawDef] = {
    "compose_mult": _LawDef(_law_compose_mult),
    "junc_fusion": _LawDef(_law_junc_fusion),
    "junc_equality": _LawDef(_law_junc_equality),
    "junc_absorption": _LawDef(_law_junc_absorption),
    "split_converse": _LawDef(_law_split_converse),
    "for_universal": _LawDef(_law_for_universal),
    "divide_conquer": _LawDef(_law_divide_conquer),
    "khatri_def": _LawDef(_law_khatri_def),
    "kron_def": _LawDef(_law_kron_def),
    "vec_khatri_kron": _LawDef(_law_vec_khatri_kron),
    "exchange": _LawDef(_law_exchange),
    "pairwise_equality": _LawDef(_law_pairwise_equality),
    "cancellation": _LawDef(_law_cancellation),
    "weak_product": _LawDef(_law_weak_product, expected_fail=True, fixed=_weak_product_fixed),
    "reflection": _LawDef(_law_reflection),
    "index_rules": _LawDef(_law_index_rules),
    "facts_27_28": _LawDef(_law_facts_27_28),
    "sharp_reconstruction": _LawDef(_law_sharp_reconstruction),
    "choice_fusion": _LawDef(_law_choice_fusion),
    "choice_exchange": _LawDef(_law_choice_exchange),
    "base_choice": _LawDef(_law_base_choice),
    "fold_fusion": _LawDef(_law_fold_fusion),
    "cata_universal": _LawDef(_law_cata_universal),
    "unzip_naturality": _LawDef(_law_unzip_naturality),
    "unzip_corollary": _LawDef(_law_unzip_corollary),
    "pairing_absorption": _LawDef(_law_pairing_absorption),
    "khatri_fusion_sharp": _LawDef(_law_khatri_fusion_sharp),
    "khatri_fusion_nonsharp": _LawDef(_law_khatri_fusion_nonsharp, expected_fail=True),
    "unzip_comp": _LawDef(_law_unzip_comp),
    "unzip_sum": _LawDef(_law_unzip_sum),
    "banana_split": _LawDef(_law_banana_split),
    "mutual_recursion": _LawDef(_law_mutual_recursion),
    "mutual_recursion_fib": _LawDef(_law_mutual_recursion_fib, expected_fail=True),
}


class UnknownLawError(KeyError):
    pass


def _trial_rng(cfg: TrialConfig, law_index: int, trial: int) -> np.random.Generator:
    seed = cfg.seed & 0xFFFFFFFFFFFFFFFF
    return np.random.default_rng(np.random.SeedSequence([seed, law_index, trial]))


def check_law(name: str, cfg: TrialConfig) -> LawReport:
    """Run one catalogue law for cfg.trials seeded random instances."""
    try:
        spec = CATALOGUE[name]
    except KeyError:
        raise UnknownLawError(f"unknown law {name!r}; known: {', '.join(CATALOGUE)}") from None
    law_index = list(CATALOGUE).index(name)
    worst = 0.0
    witness: str | None = None
    violations = 0
    for t in range(cfg.trials):
        dev, wit = spec.fn(_trial_rng(cfg, law_index, t), cfg)
        if dev > cfg.tol:
            violations += 1
            if witness is None:
                witness = wit
        worst = max(worst, dev)
    if spec.expected_fail:
        found = violations >= 1
        if spec.fixed is not None:
            fixed_ok, fixed_dev, fixed_wit = spec.fixed(cfg)
            found = found and fixed_ok
            worst = max(worst, fixed_dev)
            witness = fixed_wit
        status = "expected-fail" if found else "fail"
    else:
        status = "pass" if worst <= cfg.tol else "fail"
        if status == "pass":
            witness = None
    return LawReport(name, cfg.trials, worst, status, witness)


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
    if g.col_dim != f.col_dim or g.row_dim != f.row_dim:
        raise DimensionError("g must have the reference's dims")
    if h.col_dim != f.col_dim or h.row_dim != f.row_dim:
        raise DimensionError("h must have the reference's dims")
    g_mass = hadamard(g, f).data.sum(axis=0)
    h_mass = hadamard(h, f).data.sum(axis=0)
    cols = tuple(
        RiskColumn(a, float(g_mass[j]), float(h_mass[j]))
        for j, a in enumerate(f.col_dim.elements())
    )
    return RiskReport(cols)
