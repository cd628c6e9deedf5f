"""Typed dense matrices over finite dimensions and their combinator algebra.

Columns index inputs, rows index outputs, so a column-stochastic (CS) matrix
is exactly a probabilistic function between its dimensions. Dimension checks
are structural and failures name both dims. Entries are nonnegative float64;
storage is dense numpy (desk-scale dims only, by design).

Data from outside is copied and checked entry by entry. A combinator's result
is built from matrices that passed those checks, so it is checked once: ops
that compute new values only check that no entry overflowed to inf, and pure
rearrangements are not checked at all. The structural matrices (identities,
``bang``, projections, injections) depend only on their dims and are shared,
read-only values, memoised per dim.
"""

from __future__ import annotations

import csv
import io
import sys
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from .dims import _MEMO_SIZE, Dim, Product, Sum, UNIT, _index
from .dist import Dist, DomainError, ProbFn, _as_step, _check_prob, dirac, support_key

CS_TOL = 1e-9


class DimensionError(TypeError):
    """Structural dimension mismatch between matrix operands."""


class TruncationError(ValueError):
    """Probability mass escaped a declared output dimension."""


class _Fresh:
    """A combinator's result array: float64, of the result's shape, owned by
    (or a read-only view shared with) the new matrix, with entries built from
    checked matrices. ``Matrix`` takes it without a copy or a shape check."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _computed(arr: np.ndarray) -> _Fresh:
    """Products and sums of finite nonnegative entries stay nonnegative but
    can still overflow to inf: the one check a computed result needs."""
    if arr.size and not float(arr.max()) < np.inf:
        raise DomainError(_bad_entries(arr))
    return _Fresh(arr)


class Matrix:
    """An immutable real matrix typed by (column Dim -> row Dim).

    Its dims and data cannot be reassigned: the memoised structural matrices
    are shared by every caller."""

    __slots__ = ("col_dim", "row_dim", "data")

    def __init__(self, col_dim: Dim, row_dim: Dim, data):
        if type(data) is _Fresh:
            arr = data.array
        else:
            arr = np.array(data, dtype=float)
            if arr.shape != (row_dim.size, col_dim.size):
                raise DimensionError(
                    f"data shape {arr.shape} does not match {row_dim.size}x{col_dim.size} "
                    f"for {col_dim} -> {row_dim}"
                )
            if arr.size and not (float(arr.min()) >= 0.0 and float(arr.max()) < np.inf):
                raise DomainError(_bad_entries(arr))
        arr.setflags(write=False)
        object.__setattr__(self, "col_dim", col_dim)
        object.__setattr__(self, "row_dim", row_dim)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"Matrix is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Matrix is immutable: cannot delete {name!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def entry(self, row_value: Any, col_value: Any) -> float:
        return float(self.data[self.row_dim.index_of(row_value), self.col_dim.index_of(col_value)])

    def column_dist(self, col_value: Any) -> Dist:
        """The distribution held by one column (requires a proper column)."""
        col = self.data[:, self.col_dim.index_of(col_value)]
        return Dist(zip(self.row_dim.elements(), col))

    def is_column_stochastic(self, tol: float = CS_TOL) -> bool:
        sums = self.data.sum(axis=0)
        return bool(np.all(np.abs(sums - 1.0) <= tol))

    def is_sharp(self, tol: float = CS_TOL) -> bool:
        """Column-stochastic with a single entry within tol of 1 per column."""
        if not self.is_column_stochastic(tol):
            return False
        return bool(np.all(self.data.max(axis=0) >= 1.0 - tol))

    def to_csv(self, header: bool = False) -> str:
        """Row-major CSV; floats keep full round-trip precision."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        if header:
            writer.writerow([""] + [str(v) for v in self.col_dim.elements()])
            for label, row in zip(self.row_dim.elements(), self.data):
                writer.writerow([str(label)] + [csv_number(x) for x in row])
        else:
            for row in self.data:
                writer.writerow([csv_number(x) for x in row])
        return out.getvalue()

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return compose(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.col_dim == other.col_dim
            and self.row_dim == other.row_dim
            and np.array_equal(self.data, other.data)
        )

    def __repr__(self) -> str:
        return f"Matrix({self.col_dim} -> {self.row_dim}, {self.shape[0]}x{self.shape[1]})"


def _bad_entries(arr: np.ndarray) -> str:
    if np.isnan(arr).any():
        return "matrix entries must not be NaN"
    if np.isinf(arr).any():
        return "matrix entries must be finite, got an infinite entry"
    return "matrix entries must be nonnegative"


def csv_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


@lru_cache(maxsize=_MEMO_SIZE)
def identity(dim: Dim) -> Matrix:
    return Matrix(dim, dim, _Fresh(np.eye(dim.size)))


def _zeros(col_dim: Dim, row_dim: Dim) -> np.ndarray:
    """A zero float64 array for a col_dim -> row_dim matrix. A shape whose
    bytes exceed the largest size numpy can address is a DomainError naming
    the dims, not numpy's ``array is too big``."""
    rows, cols = row_dim.size, col_dim.size
    if rows * cols * 8 > sys.maxsize:
        raise DomainError(f"a {rows}x{cols} matrix for {col_dim} -> {row_dim} is too large to allocate")
    return np.zeros((rows, cols))


@lru_cache(maxsize=_MEMO_SIZE)
def bang(dim: Dim) -> Matrix:
    """The all-ones row vector A -> 1 (the sharp constant function)."""
    return Matrix(dim, UNIT, _Fresh(np.ones((1, dim.size))))


def compose(m: Matrix, n: Matrix) -> Matrix:
    """Matrix composition m . n; requires cols(m) == rows(n)."""
    if m.col_dim != n.row_dim:
        raise DimensionError(f"cannot compose: {m.col_dim} (cols of left) != {n.row_dim} (rows of right)")
    return Matrix(n.col_dim, m.row_dim, _computed(m.data @ n.data))


def converse(m: Matrix) -> Matrix:
    """Transpose; swaps rows with columns."""
    return Matrix(m.row_dim, m.col_dim, _Fresh(m.data.T))


def junc(m: Matrix, n: Matrix) -> Matrix:
    """Glue side by side: [m|n] : Sum(A,B) -> C, m's columns first."""
    if m.row_dim != n.row_dim:
        raise DimensionError(f"junc needs equal row dims: {m.row_dim} != {n.row_dim}")
    return Matrix(Sum(m.col_dim, n.col_dim), m.row_dim, _Fresh(np.hstack([m.data, n.data])))


def split(m: Matrix, n: Matrix) -> Matrix:
    """Stack: C -> Sum(A,B) with m's rows above n's (the converse dual of junc)."""
    if m.col_dim != n.col_dim:
        raise DimensionError(f"split needs equal column dims: {m.col_dim} != {n.col_dim}")
    return Matrix(m.col_dim, Sum(m.row_dim, n.row_dim), _Fresh(np.vstack([m.data, n.data])))


def oplus(m: Matrix, n: Matrix) -> Matrix:
    """Direct sum: block diagonal [[m, 0], [0, n]]."""
    rows = m.shape[0] + n.shape[0]
    cols = m.shape[1] + n.shape[1]
    out = np.zeros((rows, cols))
    out[: m.shape[0], : m.shape[1]] = m.data
    out[m.shape[0] :, m.shape[1] :] = n.data
    return Matrix(Sum(m.col_dim, n.col_dim), Sum(m.row_dim, n.row_dim), _Fresh(out))


def kron(m: Matrix, n: Matrix) -> Matrix:
    """Kronecker product: entry((y,x),(b,a)) = m(y,b) * n(x,a)."""
    return Matrix(Product(m.col_dim, n.col_dim), Product(m.row_dim, n.row_dim),
                  _computed(np.kron(m.data, n.data)))


def khatri(m: Matrix, n: Matrix) -> Matrix:
    """Khatri-Rao (column-wise Kronecker): entry((b,c),a) = m(b,a) * n(c,a)."""
    if m.col_dim != n.col_dim:
        raise DimensionError(f"khatri needs equal column dims: {m.col_dim} != {n.col_dim}")
    b, a = m.shape
    c, _ = n.shape
    data = (m.data[:, None, :] * n.data[None, :, :]).reshape(b * c, a)
    return Matrix(m.col_dim, Product(m.row_dim, n.row_dim), _computed(data))


def _same_dims(m: Matrix, n: Matrix, what: str) -> None:
    """The check of the entry-wise combinators: equal column and row dims."""
    if m.col_dim != n.col_dim or m.row_dim != n.row_dim:
        raise DimensionError(f"{what}: {m.col_dim}->{m.row_dim} vs {n.col_dim}->{n.row_dim}")


def hadamard(m: Matrix, n: Matrix) -> Matrix:
    """Entry-wise product."""
    _same_dims(m, n, "hadamard needs identical dims")
    return Matrix(m.col_dim, m.row_dim, _computed(m.data * n.data))


def madd(m: Matrix, n: Matrix) -> Matrix:
    """Entry-wise sum (used by choice and fixpoint accumulation)."""
    _same_dims(m, n, "matrix sum needs identical dims")
    return Matrix(m.col_dim, m.row_dim, _computed(m.data + n.data))


def mat_choice(p: float, m: Matrix, n: Matrix) -> Matrix:
    """Probabilistic choice p*m + (1-p)*n of equally-typed matrices."""
    p = _check_prob(p, "p")
    _same_dims(m, n, "choice needs identical dims")
    return Matrix(m.col_dim, m.row_dim, _computed(p * m.data + (1.0 - p) * n.data))


@lru_cache(maxsize=_MEMO_SIZE)
def fst_matrix(b: Dim, c: Dim) -> Matrix:
    """Projection Product(B,C) -> B, as identity(B) kron bang(C).

    The kron rows come out as Product(B, Unit); relabeled to plain B (the
    enumeration orders coincide).
    """
    return relabel(kron(identity(b), bang(c)), row_dim=b)


@lru_cache(maxsize=_MEMO_SIZE)
def snd_matrix(b: Dim, c: Dim) -> Matrix:
    """Projection Product(B,C) -> C, as bang(B) kron identity(C), rows relabeled."""
    return relabel(kron(bang(b), identity(c)), row_dim=c)


@lru_cache(maxsize=_MEMO_SIZE)
def inj_left(a: Dim, b: Dim) -> Matrix:
    """Sharp injection A -> Sum(A,B)."""
    out = np.zeros((a.size + b.size, a.size))
    out[: a.size, :] = np.eye(a.size)
    return Matrix(a, Sum(a, b), _Fresh(out))


@lru_cache(maxsize=_MEMO_SIZE)
def inj_right(a: Dim, b: Dim) -> Matrix:
    """Sharp injection B -> Sum(A,B)."""
    out = np.zeros((a.size + b.size, b.size))
    out[a.size :, :] = np.eye(b.size)
    return Matrix(b, Sum(a, b), _Fresh(out))


def from_sharp_fn(fn: Callable[[Any], Any], col_dim: Dim, row_dim: Dim) -> Matrix:
    """Sharp matrix of a plain function between enumerated carriers: the
    matrix of the probabilistic function a -> dirac(fn(a))."""
    return from_probfn(lambda a: dirac(fn(a)), col_dim, row_dim)


def from_probfn(f: ProbFn | Callable[[Any], Dist], col_dim: Dim | None = None,
                row_dim: Dim | None = None) -> Matrix:
    """Matrix of a probabilistic function: entry(b,a) = mass of b in f(a).

    Any support value outside ``row_dim`` is a hard TruncationError naming the
    value -- mass is never silently dropped.
    """
    col_dim = col_dim if col_dim is not None else getattr(f, "in_dim", None)
    row_dim = row_dim if row_dim is not None else getattr(f, "out_dim", None)
    if col_dim is None or row_dim is None:
        raise DomainError("from_probfn needs explicit column and row dims")
    return _probfn_columns(f, col_dim, row_dim, strict=True)[0]


def from_probfn_truncated(f: ProbFn | Callable[[Any], Dist], col_dim: Dim,
                          row_dim: Dim) -> tuple[Matrix, dict[int, list[tuple[Any, float]]]]:
    """Like from_probfn, but records escaping mass per column instead of raising.

    Returns (matrix, escapes) where escapes maps column index to the dropped
    (value, mass) pairs. Callers must make sure no mass ever flows through a
    deficient column: matrix_cata_fixpoint raises TruncationError on any
    positive mass reaching such a column, with no threshold.
    """
    return _probfn_columns(f, col_dim, row_dim, strict=False)


def _probfn_columns(f, col_dim: Dim, row_dim: Dim,
                    strict: bool) -> tuple[Matrix, dict[int, list[tuple[Any, float]]]]:
    """The column loop behind both constructors; ``strict`` raises on the
    first support value outside ``row_dim`` instead of recording it.

    Each column is read from the step's outcomes, with no Dist for a choice or
    a pairing of choices. The values a column loses are put in support order,
    so the escapes and the value strict mode names are those of f(a)."""
    out = _zeros(col_dim, row_dim)
    escapes: dict[int, list[tuple[Any, float]]] = {}
    outcomes, index = _as_step(f).outcomes, _index(row_dim)
    for j, a in enumerate(col_dim.elements()):
        lost = []
        for v, m in outcomes(a):
            i = index.get(v)
            if i is None:
                lost.append((v, m))
            else:
                out[i, j] = m
        if lost:
            lost.sort(key=lambda vm: support_key(vm[0]))
            if strict:
                raise TruncationError(f"support value {lost[0][0]!r} of input {a!r} escapes output dim {row_dim}")
            escapes[j] = lost
    # every entry is a checked mass: a Dist's, a choice's weight or a product
    return Matrix(col_dim, row_dim, _Fresh(out)), escapes


def relabel(m: Matrix, col_dim: Dim | None = None, row_dim: Dim | None = None) -> Matrix:
    """Reindex a matrix by size-equal dims; the explicit escape hatch, since
    dimension equality is structural (Range(2) never coerces to Bools)."""
    col_dim = col_dim if col_dim is not None else m.col_dim
    row_dim = row_dim if row_dim is not None else m.row_dim
    if col_dim.size != m.col_dim.size or row_dim.size != m.row_dim.size:
        raise DimensionError(
            f"relabel must preserve sizes: {m.col_dim}->{m.row_dim} vs {col_dim}->{row_dim}"
        )
    return Matrix(col_dim, row_dim, _Fresh(m.data))


def to_probfn(m: Matrix) -> ProbFn:
    """Inverse of from_probfn: columns become distributions, each built once.
    Built columns are kept by index, so a value the column dim rejects is
    rejected on every call."""
    columns: dict[int, Dist] = {}

    def apply(value: Any) -> Dist:
        j = m.col_dim.index_of(value)
        if j not in columns:
            columns[j] = m.column_dist(value)
        return columns[j]
    return ProbFn(apply=apply, in_dim=m.col_dim, out_dim=m.row_dim)


def max_dev(m: Matrix, n: Matrix) -> float:
    """Largest entry-wise absolute difference of equally-typed matrices."""
    _same_dims(m, n, "cannot compare")
    return data_dev(m, n)


def data_dev(m: Matrix, n: Matrix) -> float:
    """Entry-wise deviation ignoring dim labels (shapes must agree)."""
    if m.shape != n.shape:
        raise DimensionError(f"shape mismatch: {m.shape} vs {n.shape}")
    if m.data.size == 0:
        return 0.0
    return float(np.max(np.abs(m.data - n.data)))
