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
from math import copysign
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
        index, elements = _index(self)
        idx = index.get(value)
        if idx is None or not _alike(value, elements[idx]):
            raise KeyError(f"{value!r} is not an element of {self}")
        return idx

    def __contains__(self, value: Any) -> bool:
        index, elements = _index(self)
        try:
            return _alike(value, elements[index[value]])
        except (KeyError, TypeError):
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
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError(f"Range size must be an int, got {self.n!r}")
        if self.n < 1:
            raise ValueError(f"Range size must be >= 1, got {self.n}")


@dataclass(frozen=True)
class Bools(Dim):
    """The booleans, False before True."""


@dataclass(frozen=True)
class EnumDim(Dim):
    """An explicit ordered enumeration of distinct labels, each a value a
    ``Dist`` can hold (``dist.support_key`` orders it)."""

    values: tuple

    def __post_init__(self):
        from .dist import DomainError, support_key  # dist imports this module

        if len(self.values) < 1:
            raise ValueError("EnumDim needs at least one value")
        for value in self.values:  # first, so the distinctness check only hashes support values
            try:
                support_key(value)
            except DomainError:
                raise DomainError(f"EnumDim label {value!r} is not a support value") from None
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
def _index(dim: Dim) -> tuple[dict, tuple]:
    """The value -> index map of ``dim``'s elements, and the elements, which tell a bool from the number it equals."""
    return {value: i for i, value in enumerate(_elements(dim))}, _elements(dim)


def _alike(a: Any, b: Any) -> bool:
    """Whether the equal values ``a`` and ``b`` are alike: True equals 1, and
    (True, 0) equals (1, 0), but a bool never stands for a number in a Dim or
    a Dist."""
    if type(a) is type(b):
        return type(a) is not tuple or all(map(_alike, a, b))
    return type(a) is not bool and type(b) is not bool


_PLAIN = frozenset((bool, int, str))


def _same(a: Any, b: Any) -> bool:
    """Whether the equal values ``a`` and ``b`` agree in type, component by
    component of a tuple or list, and in sign where they are floats. 1, 1.0
    and True are equal, and so are (1, 2) and (1.0, 2), and 0.0 and -0.0, but
    a function of them can tell them apart: a memo hands the result it keeps
    for one to another only where the two are the same. A value of any other
    type, whose parts this does not read (a dict), is the same only as itself."""
    kind = type(a)
    if kind is not type(b):
        return False
    if kind is tuple or kind is list:
        return all(map(_same, a, b))
    if kind is float:
        return copysign(1.0, a) == copysign(1.0, b)
    return kind in _PLAIN or a is b
