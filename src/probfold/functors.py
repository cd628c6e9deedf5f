"""Shape functors for the recursion schemes.

The grammar covers the staple shapes: bounded iteration
(``ForLoopF``, F X = 1 + X), right folds over sequences (``ListF``,
F X = 1 + A*X), plus identity, constants, sums and composition for the
structural-induction checks. Each functor acts both on dimensions and on
matrices, and the two actions agree by construction. The two recursive shapes
also act on values and unfold their own inputs, which is all a monadic fold
needs to know about its shape.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Iterable, Sequence

from .dims import Dim, Product, Sum, UNIT, _same
from .dist import DomainError, _as_step, canonical_value
from .matrix import Matrix, identity, kron, oplus


@dataclass(frozen=True)
class FunctorDesc:
    """Base class for functor descriptors."""

    def on_dim(self, x: Dim) -> Dim:
        raise NotImplementedError

    def on_matrix(self, m: Matrix) -> Matrix:
        raise NotImplementedError

    def layers(self, step: Callable, value: Any) -> Iterable[Callable]:
        """Validate a fold input and return its per-layer continuations,
        innermost first: a monadic fold binds them in order."""
        raise DomainError(f"no monadic catamorphism for functor {self}")

    def on_value(self, fn: Callable, v: Any) -> Any:
        """Apply ``fn`` at the recursive position of one F-value."""
        raise DomainError(f"no monadic catamorphism for functor {self}")

    def _sub_inputs(self, value: Any) -> Sequence:
        """Validate a fold input and return keys of the sub-inputs its fold
        passes through, innermost first and ending with ``value``'s: one more
        than its layers. Elements that are equal but not alike (1, 1.0 and
        True) give different keys."""
        raise DomainError(f"no monadic catamorphism for functor {self}")


@dataclass(frozen=True)
class IdF(FunctorDesc):
    """F X = X."""

    def on_dim(self, x: Dim) -> Dim:
        return x

    def on_matrix(self, m: Matrix) -> Matrix:
        return m


@dataclass(frozen=True)
class ConstF(FunctorDesc):
    """F X = K for a fixed dimension K."""

    dim: Dim

    def on_dim(self, x: Dim) -> Dim:
        return self.dim

    def on_matrix(self, m: Matrix) -> Matrix:
        return identity(self.dim)


@dataclass(frozen=True)
class ForLoopF(FunctorDesc):
    """F X = 1 + X: the shape whose folds are bounded for-loops."""

    def on_dim(self, x: Dim) -> Dim:
        return Sum(UNIT, x)

    def on_matrix(self, m: Matrix) -> Matrix:
        return oplus(identity(UNIT), m)

    def layers(self, step: Callable, value: Any) -> Iterable[Callable]:
        return repeat(step, self._count(value))

    def _sub_inputs(self, value: Any) -> Sequence:
        return range(self._count(value) + 1)

    @staticmethod
    def _count(value: Any) -> int:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise DomainError(f"input {value!r} is not a natural number")
        if value > sys.maxsize:
            raise DomainError(f"loop count {value} exceeds the largest supported count {sys.maxsize}")
        return value

    def on_value(self, fn: Callable, v: Any) -> Any:
        return fn(v)


@dataclass(frozen=True)
class ListF(FunctorDesc):
    """F X = 1 + (A * X): the shape whose folds are right folds over A-lists.

    ``alphabet`` may be None for purely monadic use over unbounded carriers;
    matrix-level operations then refuse to run.
    """

    alphabet: Dim | None = None

    def _need_alphabet(self) -> Dim:
        if self.alphabet is None:
            raise DomainError("ListF needs a concrete alphabet Dim for matrix semantics")
        return self.alphabet

    def on_dim(self, x: Dim) -> Dim:
        return Sum(UNIT, Product(self._need_alphabet(), x))

    def on_matrix(self, m: Matrix) -> Matrix:
        return oplus(identity(UNIT), kron(identity(self._need_alphabet()), m))

    def layers(self, step: Callable, value: Any) -> Iterable[Callable]:
        # a generator: a fold that resumes past folded sub-inputs builds only the rest
        return (_as_step(step).after(lambda s, a=a: (a, s)) for a in reversed(self._sequence(value)))

    def _sub_inputs(self, value: Any) -> Sequence:
        seq = tuple(self._sequence(value))
        return [_Key(seq[i:]) for i in range(len(seq), -1, -1)]

    @staticmethod
    def _sequence(value: Any) -> Any:
        if not isinstance(value, (str, list, tuple)):
            raise DomainError(f"input {value!r} is not a sequence")
        return value

    def on_value(self, fn: Callable, v: Any) -> Any:
        return v[0], fn(v[1])


class _Key:
    """A tuple of list elements as a dict key, equal to another only where
    their elements are equal and agree in type (``dims._same``): 1, 1.0 and
    True are equal, but a step can tell them apart."""

    __slots__ = ("items", "_hash")

    def __init__(self, items: tuple):
        self.items = items
        try:
            self._hash = hash(items)
        except TypeError:  # a list element: hashed as the tuple it equals, which _same tells apart
            try:
                self._hash = hash(canonical_value(items))
            except TypeError:  # still unhashable, such as a dict: equal keys agree in length
                self._hash = len(items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return type(other) is _Key and self.items == other.items and _same(self.items, other.items)


@dataclass(frozen=True)
class SumF(FunctorDesc):
    """F X = G X + H X."""

    left: FunctorDesc
    right: FunctorDesc

    def on_dim(self, x: Dim) -> Dim:
        return Sum(self.left.on_dim(x), self.right.on_dim(x))

    def on_matrix(self, m: Matrix) -> Matrix:
        return oplus(self.left.on_matrix(m), self.right.on_matrix(m))


@dataclass(frozen=True)
class CompF(FunctorDesc):
    """F X = G (H X)."""

    outer: FunctorDesc
    inner: FunctorDesc

    def on_dim(self, x: Dim) -> Dim:
        return self.outer.on_dim(self.inner.on_dim(x))

    def on_matrix(self, m: Matrix) -> Matrix:
        return self.outer.on_matrix(self.inner.on_matrix(m))
