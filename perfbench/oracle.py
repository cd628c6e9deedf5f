"""Independent references for the benchmark's operations.

Nothing here imports probfold: every reference is derived from the paper's
definitions of the case programs, so a defect in the library's own code path
cannot hide in its reference.

- Recurrences (mutual recursion, tupled folds, list folds) run in exact
  rational arithmetic. Every fault rate in [2**-5, 1) is an integer multiple
  of 2**-57, so a distribution is held as integer numerators over one
  power-of-two denominator, reduced after every step; no gcd is ever taken.
- Closed forms (binomials, per-subset products) are evaluated in floating
  point through log-gamma, accurate to ~1e-13, far inside the tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Hashable, Iterable

import numpy as np

DIST_TOL = 1e-9     # total variation, as the library's PROPER_TOL
ENTRY_TOL = 1e-12   # per matrix entry, as the library's fixpoint leak check

K = 57
ONE = 1 << K

# A kernel maps a state to [(value, weight)] with integer weights summing to ONE.
Kernel = Callable[..., list]


def rate(p: float) -> int:
    """The integer P with p == P / 2**57 exactly."""
    f = Fraction(p)
    if not 2 ** -5 <= p < 1 or ONE % f.denominator:
        raise ValueError(f"fault rate {p!r} is not a multiple of 2**-57 in [2**-5, 1)")
    return f.numerator * (ONE // f.denominator)


def to_float(num: dict, bits: int) -> dict:
    """Exact numerators over 2**bits as correctly rounded float masses."""
    den = 1 << bits
    return {v: n / den for v, n in num.items()}


def _reduce(num: dict, bits: int) -> tuple[dict, int]:
    """Cancel the largest power of two common to every numerator."""
    z = min((n & -n).bit_length() - 1 for n in num.values())
    z = min(z, bits)
    return {v: n >> z for v, n in num.items()}, bits - z


def fadd(P: int, x: int, y: int) -> list:
    """Faulty addition of x to y: y with probability p, else x + y."""
    return [(y, P), (x + y, ONE - P)]


def mutual(h: Kernel, k: Kernel, f0, g0, n: int) -> list[dict]:
    """Pre-tupling semantics of a mutually recursive pair: each step draws the
    two recursive results independently. Returns the first function's
    distribution after 0..n steps."""
    f, g, bf, bg = {f0: 1}, {g0: 1}, 0, 0
    out = [to_float(f, 0)]
    for _ in range(n):
        nf: dict = {}
        ng: dict = {}
        for x, mx in f.items():
            for y, my in g.items():
                m = mx * my
                for v, w in h(x, y):
                    nf[v] = nf.get(v, 0) + m * w
                for v, w in k(x, y):
                    ng[v] = ng.get(v, 0) + m * w
        f, bf, g, bg = *_reduce(nf, bf + bg + K), *_reduce(ng, bf + bg + K)
        out.append(to_float(f, bf))
    return out


def tupled(h: Kernel, k: Kernel, s0: tuple, n: int) -> dict:
    """Tupled fold: one Markov chain on (first, second) pairs, each step
    drawing the two components independently given the current pair.
    Returns the joint distribution after n steps."""
    joint, bits = {s0: 1}, 0
    for _ in range(n):
        nxt: dict = {}
        for (x, y), m in joint.items():
            for v, w in h(x, y):
                mw = m * w
                for u, z in k(x, y):
                    nxt[(v, u)] = nxt.get((v, u), 0) + mw * z
        joint, bits = _reduce(nxt, bits + 2 * K)
    return to_float(joint, bits)


def marginal(joint: dict, i: int) -> dict:
    out: dict = {}
    for v, m in joint.items():
        out[v[i]] = out.get(v[i], 0.0) + m
    return out


def fib_kernels(P: int):
    return (lambda x, y: [(y, ONE)]), (lambda x, y: fadd(P, x, y))


def sq_kernels(P: int, Q: int | None = None):
    """Square by sums of odd numbers; the odd counter is faulty when Q is given."""
    k = (lambda x, y: [(y + 2, ONE)]) if Q is None else (lambda x, y: fadd(Q, 2, y))
    return (lambda x, y: fadd(P, x, y)), k


def subset_sums(P: int, xs: Iterable[int]) -> dict:
    """Fold of faulty additions: each element is skipped with probability p."""
    d, bits = {0: 1}, 0
    for a in xs:
        nxt: dict = {}
        for s, m in d.items():
            for v, w in fadd(P, a, s):
                nxt[v] = nxt.get(v, 0) + m * w
        d, bits = _reduce(nxt, bits + K)
    return to_float(d, bits)


def binomial(n: int, success: float, step: int = 1) -> dict:
    """Closed form: value step*k with mass C(n,k) s^k (1-s)^(n-k)."""
    ls, lf = math.log(success), math.log1p(-success)
    lg = math.lgamma(n + 1)
    return {step * k: math.exp(lg - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * ls + (n - k) * lf)
            for k in range(n + 1)}


def subsequences(p: float, letters: str) -> dict:
    """Lossy copy of distinct letters: each subsequence S has mass
    (1-p)^|S| p^(L-|S|)."""
    L = len(letters)
    out = {}
    for mask in range(1 << L):
        kept = "".join(c for i, c in enumerate(letters) if mask >> i & 1)
        s = len(kept)
        out[kept] = (1.0 - p) ** s * p ** (L - s)
    return out


def product(d: dict, e: dict) -> dict:
    return {(b, c): mb * mc for b, mb in d.items() for c, mc in e.items()}


def tv(items: Iterable[tuple[Hashable, float]], ref: dict) -> float:
    """Total variation between (value, mass) pairs and a reference map."""
    got = dict(items)
    keys = set(got) | set(ref)
    return 0.5 * math.fsum(abs(got.get(v, 0.0) - ref.get(v, 0.0)) for v in keys)


def banded_columns(p: float, n_max: int, states: int) -> np.ndarray:
    """Doubling loop as a matrix: column j holds Binomial(j, 1-p) on the even
    states 2k."""
    out = np.zeros((states, n_max + 1))
    for j in range(n_max + 1):
        for v, m in binomial(j, 1.0 - p, 2).items():
            if v < states:
                out[v, j] = m
    return out


def power_columns(body: np.ndarray, init: np.ndarray, n_max: int) -> np.ndarray:
    """Column j is body^j @ init, from numpy.linalg.matrix_power squares."""
    squares = [np.linalg.matrix_power(body, 1 << b) for b in range(max(n_max, 1).bit_length())]
    out = np.zeros((body.shape[0], n_max + 1))
    for j in range(n_max + 1):
        col = init.copy()
        for b, sq in enumerate(squares):
            if j >> b & 1:
                col = sq @ col
        out[:, j] = col
    return out


def entry_dev(got: np.ndarray, ref: np.ndarray) -> float:
    if got.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(got - ref))) if got.size else 0.0
