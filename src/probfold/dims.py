"""Finite index sets for typed stochastic matrices.

Every matrix axis is described by a ``Dim``: a finite, ordered enumeration of
values. Equality of dimensions is structural (``Range(2)`` is not ``BOOLS``),
and sums/products fix their enumeration order -- left block first, left factor
slowest -- so matrix layouts, CSV exports and golden tests are reproducible
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Iterator


@dataclass(frozen=True)
class Dim:
    """Base class for dimension descriptors. Instances are immutable."""

    @cached_property
    def size(self) -> int:
        """The number of elements, kept on the instance once computed."""
        match self:
            case Unit():
                return 1
            case Bools():
                return 2
            case Range(n):
                return n
            case EnumDim(values):
                return len(values)
            case Sum(a, b):
                return a.size + b.size
            case Product(a, b):
                return a.size * b.size
        raise TypeError(f"unknown dimension {self!r}")

    def elements(self) -> tuple[Any, ...]:
        return _elements(self)

    def index_of(self, value: Any) -> int:
        idx = _index(self).get(value)
        if idx is None:
            raise KeyError(f"{value!r} is not an element of {self}")
        return idx

    def __contains__(self, value: Any) -> bool:
        try:
            return value in _index(self)
        except TypeError:
            return False

    def __iter__(self) -> Iterator[Any]:
        return iter(self.elements())


@dataclass(frozen=True)
class Unit(Dim):
    """Singleton dimension; its only element is the empty tuple."""


@dataclass(frozen=True)
class Range(Dim):
    """Integers 0 .. n-1 in ascending order."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"Range size must be >= 1, got {self.n}")


@dataclass(frozen=True)
class Bools(Dim):
    """The booleans, False before True."""


@dataclass(frozen=True)
class EnumDim(Dim):
    """An explicit ordered enumeration of distinct hashable labels."""

    values: tuple

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("EnumDim needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError("EnumDim values must be distinct")


@dataclass(frozen=True)
class Sum(Dim):
    """Disjoint union; all of ``left``'s elements enumerate before ``right``'s."""

    left: Dim
    right: Dim


@dataclass(frozen=True)
class Product(Dim):
    """Pairs (a, b) with the left factor as the outer (slower-varying) index."""

    left: Dim
    right: Dim


UNIT = Unit()
BOOLS = Bools()

# entries per memo of dim-derived values (element tuples, index maps,
# structural matrices): a constant bound, so a large one a caller once built
# is not pinned for the life of the process
_MEMO_SIZE = 256


def inl(value: Any) -> tuple:
    """Left injection into a Sum dimension's value space."""
    return ("inl", value)


def inr(value: Any) -> tuple:
    """Right injection into a Sum dimension's value space."""
    return ("inr", value)


@lru_cache(maxsize=_MEMO_SIZE)
def _elements(dim: Dim) -> tuple:
    match dim:
        case Unit():
            return ((),)
        case Range(n):
            return tuple(range(n))
        case Bools():
            return (False, True)
        case EnumDim(values):
            return values
        case Sum(a, b):
            return tuple(inl(x) for x in _elements(a)) + tuple(inr(y) for y in _elements(b))
        case Product(a, b):
            return tuple((x, y) for x in _elements(a) for y in _elements(b))
    raise TypeError(f"unknown dimension {dim!r}")


@lru_cache(maxsize=_MEMO_SIZE)
def _index(dim: Dim) -> dict:
    return {value: i for i, value in enumerate(_elements(dim))}
