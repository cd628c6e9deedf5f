"""Typed dense matrices over finite dimensions and their combinator algebra.

Columns index inputs, rows index outputs, so a column-stochastic (CS) matrix
is exactly a probabilistic function between its dimensions. Dimension checks
are structural and failures name both dims. Entries are nonnegative float64;
storage is dense numpy (desk-scale dims only, by design); a loop body built
from affine branches holds only its nonzeros until its data is read.

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
import operator
import sys
import threading
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from .dims import _MEMO_SIZE, Dim, Product, Range, Sum, UNIT, _alike, _index, inl, inr
from .dist import (_INT64, PROPER_TOL, PRUNE_EPS, Dist, DomainError, ProbFn, _affine_choice, _as_step, _check_prob,
                   _Form, dirac, support_key)


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

    def is_column_stochastic(self, tol: float = PROPER_TOL) -> bool:
        sums = self.data.sum(axis=0)
        return bool(np.all(np.abs(sums - 1.0) <= tol))

    def is_sharp(self, tol: float = PROPER_TOL) -> bool:
        """Column-stochastic with a single entry within tol of 1 per column."""
        if not self.is_column_stochastic(tol):
            return False
        return bool(np.all(self.data.max(axis=0) >= 1.0 - tol))

    def to_csv(self, header: bool = False) -> str:
        """Row-major CSV; floats keep full round-trip precision. The cells are
        formatted a block of rows at a time (``_csv_cells``); a number needs
        no quoting, so only the labels go through ``csv``."""
        out = io.StringIO()
        if header:
            csv.writer(out, lineterminator="\n").writerow([""] + [str(v) for v in self.col_dim.elements()])
            heads = [_csv_head(label) for label in self.row_dim.elements()]
        else:
            heads = [""] * self.row_dim.size
        data = self.data
        step = max(1, _CSV_CELLS // data.shape[1])  # a dim has at least one element
        for start in range(0, data.shape[0], step):
            rows = _csv_cells(data[start:start + step])
            out.writelines(head + ",".join(row) + "\n" for head, row in zip(heads[start:start + step], rows))
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


_CSV_CELLS = 1 << 16  # cells formatted per block of rows: bounds the text objects alive at once


def _csv_head(label: Any) -> str:
    """A row's label cell and the comma after it, as ``csv`` writes them
    before a number (every row has one)."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([str(label), "0"])
    return out.getvalue()[:-2]


def _csv_cells(block: np.ndarray) -> list[list[str]]:
    """The CSV cell of every entry of ``block``, as lists of rows, with
    Python called only for the nonzero entries: a zero (also -0.0) is "0",
    a whole number below 1e16 in magnitude its int, and any other entry its
    float repr, which reads back as the same float."""
    cells = np.full(block.shape, "0", dtype=object)
    nonzero = block != 0.0
    values = block[nonzero]
    whole = (values == np.trunc(values)) & (np.abs(values) < 1e16)
    texts = np.empty(values.shape, dtype=object)
    texts[whole] = list(map(str, values[whole].astype(np.int64).tolist()))
    texts[~whole] = list(map(repr, values[~whole].tolist()))
    cells[nonzero] = texts
    return cells.tolist()


@lru_cache(maxsize=_MEMO_SIZE)
def identity(dim: Dim) -> Matrix:
    return Matrix(dim, dim, _Fresh(np.eye(dim.size)))


def _check_fits(col_dim: Dim, row_dim: Dim) -> None:
    """A shape whose bytes exceed the largest size numpy can address is a
    DomainError naming the dims, not numpy's ``array is too big``."""
    rows, cols = row_dim.size, col_dim.size
    if rows * cols * 8 > sys.maxsize:
        raise DomainError(f"a {rows}x{cols} matrix for {col_dim} -> {row_dim} is too large to allocate")


def _zeros(col_dim: Dim, row_dim: Dim) -> np.ndarray:
    """A zero float64 array for a col_dim -> row_dim matrix (``_check_fits``)."""
    _check_fits(col_dim, row_dim)
    return np.zeros((row_dim.size, col_dim.size))


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
    """Kronecker product: entry((y,x),(b,a)) = m(y,b) * n(x,a). One broadcast
    multiply, as ``np.kron`` does after its four ``expand_dims``."""
    (b, a), (c, d) = m.shape, n.shape
    data = (m.data[:, None, :, None] * n.data[None, :, None, :]).reshape(b * c, a * d)
    return Matrix(Product(m.col_dim, n.col_dim), Product(m.row_dim, n.row_dim), _computed(data))


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
    """Sharp injection A -> Sum(A,B): the matrix of ``inl``."""
    return from_sharp_fn(inl, a, Sum(a, b))


@lru_cache(maxsize=_MEMO_SIZE)
def inj_right(a: Dim, b: Dim) -> Matrix:
    """Sharp injection B -> Sum(A,B): the matrix of ``inr``."""
    return from_sharp_fn(inr, b, Sum(a, b))


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

    A weighted choice of affine branches between ``Range``s -- the faulty
    additions ``fadd``, ``fadd_zero`` and ``fadd_combined`` with an int addend
    -- is built from its branches as arrays, not column by column, and the
    matrix it returns holds only its nonzeros: its dense data is built when
    first read, and matrix_cata_fixpoint never reads it. The entries and
    escapes are the same, bit for bit.
    """
    return _probfn_columns(f, col_dim, row_dim, strict=False)


class _Sparse(Matrix):
    """A matrix held as its dims and its nonzeros ``(rows, cols, weights)``,
    in the row-major order ``np.nonzero`` lists them, so the fixpoint reads
    them and never the dense data. ``shape`` comes from the dims; ``data``
    is built on its first read (zeros and one scatter of the nonzeros, C
    order, read-only) and kept, one array per matrix even when threads read
    it at once. Its size was checked when the matrix was built."""

    __slots__ = ("nonzeros", "_dense")
    _building = threading.Lock()

    def __init__(self, col_dim: Dim, row_dim: Dim, nonzeros: tuple[np.ndarray, ...]):
        for arr in nonzeros:
            arr.setflags(write=False)
        object.__setattr__(self, "col_dim", col_dim)
        object.__setattr__(self, "row_dim", row_dim)
        object.__setattr__(self, "nonzeros", nonzeros)
        object.__setattr__(self, "_dense", None)

    @property
    def shape(self) -> tuple[int, int]:
        return self.row_dim.size, self.col_dim.size

    @property
    def data(self) -> np.ndarray:
        if self._dense is None:
            with self._building:
                if self._dense is None:
                    arr = np.zeros(self.shape)
                    rows, cols, weights = self.nonzeros
                    arr[rows, cols] = weights
                    arr.setflags(write=False)
                    object.__setattr__(self, "_dense", arr)
        return self._dense


def _probfn_columns(f, col_dim: Dim, row_dim: Dim,
                    strict: bool) -> tuple[Matrix, dict[int, list[tuple[Any, float]]]]:
    """The column loop behind both constructors; ``strict`` raises on the
    first support value outside ``row_dim`` instead of recording it.

    Each column is read from the step's outcomes, with no Dist for a choice or
    a pairing of choices. The values a column loses are put in support order,
    so the escapes and the value strict mode names are those of f(a). A
    choice of affine branches between ``Range``s is built by
    ``_affine_columns`` instead, with the same result, as a ``_Sparse`` that
    holds only its nonzeros; only the column loop fills a dense array. Either
    way a matrix too large to allocate is a DomainError, raised first."""
    _check_fits(col_dim, row_dim)
    step = _as_step(f)
    choice = _affine_choice(step, 1) if type(col_dim) is Range and type(row_dim) is Range else None
    if choice is not None and _value_bound(choice[1], [col_dim.n - 1]) in _INT64:
        return _affine_columns(choice, col_dim, row_dim, strict)
    out = _zeros(col_dim, row_dim)
    escapes: dict[int, list[tuple[Any, float]]] = {}
    outcomes, (index, elements) = step.outcomes, _index(row_dim)
    for j, a in enumerate(col_dim.elements()):
        lost = []
        for v, m in outcomes(a):
            i = index.get(v)
            if i is None or not _alike(v, elements[i]):  # as Dim.index_of
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


def _value_bound(forms: list[_Form], bounds: list[int]) -> int:
    """The one int64 rule of both views (``dist._INT64``): sum |k|*bound + |c|, a bound on each value, product
    and partial sum numpy meets computing ``forms`` at states within ``bounds`` in magnitude."""
    return max(sum(map(operator.mul, map(abs, form), [*bounds, 1])) for form in forms)


def _branch_outcomes(choice: tuple[list[float], list[_Form]]) -> Callable[[tuple], tuple[np.ndarray, np.ndarray]]:
    """``_Choice.outcomes`` of a ``dist._affine_choice`` at many states at once,
    for both views. Branches that meet merge into the first, their weights
    added in branch order, and a merged weight below PRUNE_EPS drops: the
    floats, and at each state the order, that ``outcomes`` gives.

    The forms are read once, here: a branch of an earlier branch's form always
    meets it and is never listed; two forms of the same coefficients and other
    constants never meet; any other two meet only at some states. So one
    decision holds for the run: if the heads (the distinct forms) share one
    coefficient vector, every merged weight is one float; if they have two or
    more, each head differs from one of them, and every head is merged per
    state. Returns ``outcomes(states)``, which takes an int64 array per state
    component (shapes that broadcast to S; values kept in int64 by
    ``_value_bound``) and gives, broadcasting to S x K for the K branches of
    distinct forms, each one's value and its listed weight: the merged weight
    where it is listed, 0.0 where it meets an earlier branch or its merged
    weight drops. Values skip zero and unit coefficients."""
    weights, forms = choice
    first = [forms.index(form) for form in forms]  # the branch whose form each one has first
    heads = [k for k, j in enumerate(first) if j == k]  # one per distinct form, in branch order
    terms = []  # (component, coefficients of the heads, or None where all are 1), zero columns skipped
    for i in range(len(forms[0]) - 1):
        a = [forms[k][i] for k in heads]
        if any(a):
            terms.append((i, None if set(a) == {1} else np.array(a, dtype=np.int64)))
    constants = [forms[k][-1] for k in heads]
    constants = np.array(constants, dtype=np.int64) if any(constants) or not terms else None

    def sometimes(j: int, k: int) -> bool:
        return forms[j][:-1] != forms[k][:-1]

    # per head, the steps that give its listed weight: the weights to add in
    # branch order, each with the column of the branch it meets only at some
    # states (None: it always meets), and the earlier columns whose value takes it
    plans = []
    for c, k in enumerate(heads):
        adds = [(weights[l], heads.index(first[l]) if sometimes(k, l) else None)
                for l in range(k + 1, len(forms)) if first[l] == k or sometimes(k, l)]
        plans.append((weights[k], adds, [e for e, j in enumerate(heads[:c]) if sometimes(j, k)]))
    row = None
    if not any(sometimes(heads[0], k) for k in heads):  # no two heads ever meet
        row = []
        for m, adds, _ in plans:
            for w, _ in adds:  # in branch order
                m += w
            row.append(m if m >= PRUNE_EPS else 0.0)
        row = np.array(row)

    def outcomes(states: tuple) -> tuple[np.ndarray, np.ndarray]:
        values = constants
        for i, a in terms:
            term = states[i][..., None] if a is None else states[i][..., None] * a
            values = term if values is None else values + term
        if row is not None:
            return values, row
        mass = np.empty(values.shape)
        for c, (m, adds, taken) in enumerate(plans):
            v = values[..., c]
            for w, at in adds:
                m = m + w if at is None else np.where(values[..., at] == v, m + w, m)
            for e in taken:  # a value met before is merged there
                m = np.where(values[..., e] == v, 0.0, m)
            mass[..., c] = np.where(m >= PRUNE_EPS, m, 0.0)
        return values, mass
    return outcomes


def _affine_columns(choice: tuple[list[float], list[_Form]], col_dim: Range, row_dim: Range,
                    strict: bool) -> tuple[_Sparse, dict[int, list[tuple[int, float]]]]:
    """``_probfn_columns`` for a choice of affine branches over ints
    (``dist._affine_choice``) whose values stay in int64: all branch values
    at once, as arrays. Escapes and the value strict mode names come in the
    loop's order, as Python ints and floats."""
    rows, mass = _branch_outcomes(choice)((np.arange(col_dim.n, dtype=np.int64),))
    # a run-wide weight row, or constant branches: repeated per input, contiguous to index
    rows, mass = (np.ascontiguousarray(np.broadcast_to(x, (col_dim.n, x.shape[-1]))) for x in (rows, mass))
    keep = mass > 0.0  # a listed weight is at least PRUNE_EPS
    rows, mass = rows[keep], mass[keep]
    cols = np.nonzero(keep)[0]
    inside = (rows >= 0) & (rows < row_dim.n)
    lost = np.flatnonzero(~inside)
    escapes: dict[int, list[tuple[int, float]]] = {}
    if lost.size:
        lost = lost[np.lexsort((rows[lost], cols[lost]))]  # by input, then by value
        if strict:
            raise TruncationError(f"support value {int(rows[lost[0]])!r} of input {int(cols[lost[0]])!r} "
                                  f"escapes output dim {row_dim}")
        for j, v, m in zip(cols[lost].tolist(), rows[lost].tolist(), mass[lost].tolist()):
            escapes.setdefault(j, []).append((v, m))
    rows, cols, mass = rows[inside], cols[inside], mass[inside]
    order = np.lexsort((cols, rows))  # row-major, as np.nonzero lists them
    nonzeros = rows[order].astype(np.intp, copy=False), cols[order].astype(np.intp, copy=False), mass[order]
    return _Sparse(col_dim, row_dim, nonzeros), escapes


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
