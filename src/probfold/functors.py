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

from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Iterable

from .dims import Dim, Product, Sum, UNIT
from .dist import DomainError
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
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise DomainError(f"input {value!r} is not a natural number")
        return repeat(step, value)

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
        if not isinstance(value, (str, list, tuple)):
            raise DomainError(f"input {value!r} is not a sequence")
        return [lambda s, a=a: step((a, s)) for a in reversed(value)]

    def on_value(self, fn: Callable, v: Any) -> Any:
        return v[0], fn(v[1])


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
