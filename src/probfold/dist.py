"""Finite-support probability distributions and probabilistic functions.

A ``Dist`` is an immutable value-to-mass map with total mass 1; every
operation here is exact (no sampling). Values must be hashable and orderable
across the supported kinds (bools, numbers, strings, tuples) so iteration
order, rendering and golden outputs are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from itertools import chain
from typing import Any, Callable, Iterable, Iterator

from .dims import Dim

PRUNE_EPS = 1e-15  # support entries lighter than this are dropped
PROPER_TOL = 1e-9  # total mass must match 1 within this


class DistributionError(ValueError):
    """An improper distribution: negative mass or total mass away from 1."""


class DomainError(ValueError):
    """An argument left its declared domain (probability range, carrier...)."""


def canonical_value(value: Any) -> Any:
    """Normalize support values: lists become tuples, recursively."""
    if isinstance(value, (list, tuple)):
        return tuple(canonical_value(x) for x in value)
    return value


def support_key(value: Any):
    """Sort key giving a total order across the supported value kinds."""
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, tuple):
        return (3, tuple(support_key(x) for x in value))
    raise TypeError(f"unorderable support value {value!r}")


_NUMBERS = frozenset((int, float))


def _sorted_support(values: dict) -> list:
    """The values in ``support_key`` order. When they are all numbers, all
    strings, or all tuples of numbers, native comparison gives exactly that
    order and is used instead (``type`` keeps bools, which sort apart, out)."""
    kinds = set(map(type, values))
    if (kinds <= _NUMBERS or kinds == {str}
            or (kinds == {tuple} and set(map(type, chain.from_iterable(values))) <= _NUMBERS)):
        return sorted(values)
    return sorted(values, key=support_key)


class _Masses(dict):
    """Accumulator of the monad's own operations. Its values come from Dist
    supports or through ``canonical_value``, and its masses are sums and
    products of checked, finite, nonnegative masses, so ``Dist`` takes it
    without re-checking each entry; pruning and the total-mass check still
    run."""

    __slots__ = ()


class Dist:
    """Immutable finite-support probability distribution.

    The constructor accepts a mapping or an iterable of (value, mass) pairs;
    duplicate values accumulate. Each entry is canonicalised and checked for
    NaN and negative mass, except when the monad's own operations pass their
    already-checked accumulator. Sub-distributions are always rejected -- the
    total mass must be 1 within ``PROPER_TOL`` -- and there is deliberately no
    silent renormalization (see ``normalize`` for test scaffolding).
    """

    __slots__ = ("_mass",)

    def __init__(self, support: dict | Iterable[tuple[Any, float]]):
        if type(support) is _Masses:
            acc = support
        else:
            acc = {}
            pairs = support.items() if isinstance(support, dict) else support
            for value, mass in pairs:
                value = canonical_value(value)
                m = float(mass)
                if math.isnan(m):
                    raise DistributionError(f"NaN mass at {value!r}")
                if m < 0.0:
                    raise DistributionError(f"negative mass {m!r} at {value!r}")
                acc[value] = acc.get(value, 0.0) + m
        acc = {v: m for v, m in acc.items() if m >= PRUNE_EPS}
        total = math.fsum(acc.values())
        if abs(total - 1.0) > PROPER_TOL:
            raise DistributionError(f"total mass {total!r} is not 1 (within {PROPER_TOL})")
        self._mass = {v: acc[v] for v in _sorted_support(acc)}

    def mass(self, value: Any) -> float:
        return self._mass.get(canonical_value(value), 0.0)

    def items(self) -> tuple[tuple[Any, float], ...]:
        return tuple(self._mass.items())

    @property
    def support(self) -> tuple:
        return tuple(self._mass)

    def is_dirac(self) -> bool:
        return len(self._mass) == 1

    def __len__(self) -> int:
        return len(self._mass)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._mass)

    def __contains__(self, value: Any) -> bool:
        return canonical_value(value) in self._mass

    def __eq__(self, other) -> bool:
        return isinstance(other, Dist) and self._mass == other._mass

    def __repr__(self) -> str:
        return f"Dist({self._mass!r})"


def dirac(value: Any) -> Dist:
    """The one-point distribution on ``value``."""
    return Dist([(value, 1.0)])


def choice(p: float, d: Dist, e: Dist) -> Dist:
    """Convex combination: take ``d`` with probability p, else ``e``."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"choice probability {p!r} outside [0, 1]")
    acc = _Masses()
    for v, m in d._mass.items():
        acc[v] = acc.get(v, 0.0) + p * m
    for v, m in e._mass.items():
        acc[v] = acc.get(v, 0.0) + (1.0 - p) * m
    return Dist(acc)


def bind(d: Dist, k: Callable[[Any], Dist]) -> Dist:
    """Monadic bind: draw from ``d``, continue with ``k``."""
    acc = _Masses()
    get = acc.get
    for v, m in d._mass.items():
        try:
            out = k(v)
        except (KeyError, IndexError) as exc:
            raise DomainError(f"continuation undefined at support value {v!r}") from exc
        if not isinstance(out, Dist):
            raise DomainError(f"continuation returned {type(out).__name__}, not Dist, at {v!r}")
        for w, mw in out._mass.items():
            acc[w] = get(w, 0.0) + m * mw
    return Dist(acc)


def dist_map(d: Dist, f: Callable[[Any], Any]) -> Dist:
    """Push ``d`` forward through a plain (sharp) function."""
    acc = _Masses()
    for v, m in d._mass.items():
        w = canonical_value(f(v))
        acc[w] = acc.get(w, 0.0) + m
    return Dist(acc)


def pair(d: Dist, e: Dist) -> Dist:
    """Independent product: mass of (b, c) is d(b) * e(c)."""
    acc = _Masses()
    es = e._mass.items()
    for b, mb in d._mass.items():
        for c, mc in es:
            acc[(b, c)] = mb * mc
    return Dist(acc)


def marginals(d: Dist) -> tuple[Dist, Dist]:
    """Component distributions of a pair-valued distribution."""
    fst = _Masses()
    snd = _Masses()
    for v, m in d._mass.items():
        if not (isinstance(v, tuple) and len(v) == 2):
            raise DomainError(f"support value {v!r} is not a pair")
        b, c = v
        fst[b] = fst.get(b, 0.0) + m
        snd[c] = snd.get(c, 0.0) + m
    return Dist(fst), Dist(snd)


def tv_distance(d: Dist, e: Dist) -> float:
    """Total variation distance: half the L1 distance between the masses."""
    values = set(d.support) | set(e.support)
    return 0.5 * math.fsum(abs(d.mass(v) - e.mass(v)) for v in values)


def normalize(weights: dict | Iterable[tuple[Any, float]]) -> Dist:
    """Scale nonnegative weights to total mass 1. Test scaffolding only."""
    pairs = list(weights.items() if isinstance(weights, dict) else weights)
    total = math.fsum(m for _, m in pairs)
    if total <= 0.0:
        raise DistributionError(f"cannot normalize total weight {total!r}")
    return Dist((v, m / total) for v, m in pairs)


def kleisli(f: Callable[[Any], Dist], g: Callable[[Any], Dist]) -> Callable[[Any], Dist]:
    """Kleisli composition: run ``g`` first, feed its outcome to ``f``."""
    return lambda a: bind(g(a), f)


@dataclass(frozen=True)
class ProbFn:
    """A probabilistic function: ``apply`` maps carrier values to proper Dists.

    ``in_dim``/``out_dim`` declare finite carriers where available; they are
    what matrix conversion enumerates. Functions over unbounded carriers
    (naturals, sequences) leave them as None and get truncation dims from the
    caller.
    """

    apply: Callable[[Any], Dist]
    in_dim: Dim | None = None
    out_dim: Dim | None = None

    def __call__(self, value: Any) -> Dist:
        return self.apply(value)

    def is_sharp(self, inputs: Iterable[Any] | None = None) -> bool:
        """True when every tested input yields a Dirac distribution."""
        if inputs is None:
            if self.in_dim is None:
                raise DomainError("no enumerable inputs: pass them explicitly")
            inputs = self.in_dim.elements()
        return all(self.apply(v).is_dirac() for v in inputs)


def percent_string(mass: float) -> str:
    """mass*100 rounded half away from zero to one decimal, as text."""
    q = (Decimal(mass) * 100).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    return str(q)


def format_value(value: Any) -> str:
    if isinstance(value, str):
        return f'"{value}"'
    return str(value)


def render_lines(d: Dist) -> list[str]:
    """One ``value<TAB>pp.p%`` line per entry, heaviest first, ties by value."""
    ordered = sorted(d.items(), key=lambda e: (-e[1], support_key(e[0])))
    return [f"{format_value(v)}\t{percent_string(m)}%" for v, m in ordered]


def render(d: Dist) -> str:
    return "\n".join(render_lines(d))
