"""The bundled fault-injected programs, as a named registry.

Every case is built from the recursion-scheme ops (mutual evaluation, tupled
for-loops, list folds, banana-split) and evaluated by exhaustive enumeration,
so the distributions are exact. The registry names are the CLI contract.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from .dist import (Dist, DomainError, ProbFn, _Choice, _check_prob, _identity, _plus_one, _plus_two, _second, _sum,
                   _zero, bind, canonical_value, dirac, marginals, pair)
from .functors import ForLoopF, ListF
from .schemes import Algebra, _fold_each, banana_split, cata_eval, for_loop, mutual_eval, tupled_from_mutual


def fadd(p: float, x: int) -> ProbFn:
    """Faulty addition of x: with probability p it acts as the identity."""
    _check_prob(p, "p")
    return ProbFn(_Choice(((p, _identity), (1.0 - p, _add(x)))))


def _fadd(p: float, x: float, y: float) -> Dist:
    """One faulty addition x + y, for a rate its caller has already checked."""
    return Dist([(y, p), (x + y, 1.0 - p)])


def fadd_zero(q: float, x: int) -> ProbFn:
    """Faulty addition of x that resets to 0 with probability q."""
    _check_prob(q, "q")
    return ProbFn(_Choice(((q, _zero), (1.0 - q, _add(x)))))


def fadd_combined(p: float, q: float, x: int) -> ProbFn:
    """Addition that resets to 0 with probability q*p, degenerates to the
    identity with probability (1-q)*p, and is correct with probability 1-p."""
    _check_prob(p, "p")
    _check_prob(q, "q")
    return ProbFn(_Choice(((q * p, _zero), ((1.0 - q) * p, _identity), (1.0 - p, _add(x)))))


def _add(x) -> Callable[[Any], Any]:
    """The correct branch y -> x + y of a faulty addition, for a real ``x``.
    As ``partial(operator.add, x)`` it runs with no Python frame in ``bind``,
    and the matrix view reads it as a shift when ``x`` is an int
    (``dist._affine``)."""
    if not _is_real(x):
        raise DomainError(f"addend x={x!r} is not a real number")
    return partial(operator.add, x)


def _is_real(a) -> bool:
    """An int or float, not a bool, with a finite float value."""
    return not isinstance(a, bool) and isinstance(a, (int, float)) and abs(a) <= sys.float_info.max


_FOR = ForLoopF()
_LIST = ListF()


def _faulty(r: float, correct: Callable[[Any], Any]) -> _Choice:
    """The step that is ``correct`` with probability 1-r and otherwise returns
    the second component of its input pair: a faulty addition x + y that
    gives y, or a list step that drops its element."""
    return _Choice(((r, _second), (1.0 - r, correct)))


def fib_algebras(p: float) -> tuple[Algebra, Algebra]:
    """The mutually recursive pair behind the Fibonacci programs: the function
    itself and its derivative, with the fault in the derivative's addition."""
    _check_prob(p, "p")
    h = Algebra(_FOR, dirac(0), lambda s: dirac(s[1]))
    k = Algebra(_FOR, dirac(1), lambda s: _fadd(p, s[0], s[1]))
    return h, k


def sq_algebras(p: float) -> tuple[Algebra, Algebra]:
    """Square via sums of odd numbers; only the accumulating step is faulty,
    the odd-number counter stays sharp."""
    _check_prob(p, "p")
    h = Algebra(_FOR, dirac(0), _faulty(p, _sum))
    k = Algebra(_FOR, dirac(1), _Choice(((1.0, _plus_two),)))
    return h, k


def sq_prime_algebras(p: float, q: float) -> tuple[Algebra, Algebra]:
    """The disturbed square pair: the odd-number counter is faulty too."""
    _check_prob(p, "p")
    _check_prob(q, "q")
    h = Algebra(_FOR, dirac(0), _faulty(p, _sum))
    k = Algebra(_FOR, dirac(1), _faulty(q, _plus_two))
    return h, k


def _tupled(algebras: tuple[Algebra, Algebra], n: int) -> tuple[Dist, Dist]:
    """Both marginals of the tupled for-loop of a mutually recursive pair, at n."""
    tupled, _ = tupled_from_mutual(_FOR, *algebras, test_inputs=())
    return marginals(cata_eval(_FOR, tupled, n))


def mfib(p: float, n: int) -> Dist:
    return mutual_eval(_FOR, *fib_algebras(p), n)[0]


def mfibl(p: float, n: int) -> Dist:
    return _tupled(fib_algebras(p), n)[0]


def msq(p: float, n: int) -> Dist:
    return mutual_eval(_FOR, *sq_algebras(p), n)[0]


def msql(p: float, n: int) -> Dist:
    return _tupled(sq_algebras(p), n)[0]


def msqlo(p: float, n: int) -> Dist:
    return _tupled(sq_algebras(p), n)[1]


def msq_prime(p: float, q: float, n: int) -> Dist:
    return mutual_eval(_FOR, *sq_prime_algebras(p, q), n)[0]


def msql_prime(p: float, q: float, n: int) -> Dist:
    return _tupled(sq_prime_algebras(p, q), n)[0]


def ftwice(p: float, n: int) -> Dist:
    """Doubling as a for-loop over faulty addition of 2, from 0."""
    return for_loop(fadd(p, 2), dirac(0), n)


def _empty_like(xs):
    return "" if isinstance(xs, str) else ()


def _cons(av):
    a, s = av
    return a + s if isinstance(s, str) else (canonical_value(a),) + s


def fcat_algebra(p: float, xs: Any) -> Algebra:
    """Copy a sequence, losing each element with probability p."""
    _check_prob(p, "p")
    return Algebra(_LIST, dirac(_empty_like(xs)), _faulty(p, _cons))


def fcount_algebra(q: float) -> Algebra:
    """Count elements, skipping each with probability q."""
    _check_prob(q, "q")
    return Algebra(_LIST, dirac(0), _faulty(q, _plus_one))


def fsum_algebra(p: float) -> Algebra:
    """Sum a sequence of numbers through faulty addition."""
    _check_prob(p, "p")
    return Algebra(_LIST, dirac(0), _faulty(p, _sum))


def _check_reals(xs) -> None:
    """Reject a sequence holding anything but numbers with a finite float value
    (bools excluded), naming the first offender; other inputs are left to the fold."""
    if isinstance(xs, str) and any(c.isdigit() for c in xs):
        # numbers written as text (say '1.5,2'): naming a digit would mislead
        raise DomainError(f"input {xs!r} is text, not numbers; summing cases take comma-separated integers")
    if isinstance(xs, (str, list, tuple)):
        for a in xs:
            if not _is_real(a):
                raise DomainError(f"element {a!r} of input {xs!r} is not a real number")


def _check_sums(xs, sums) -> None:
    """Reject folded sums outside the float range, naming the input. A float
    sum that overflows stays inf or becomes nan at every later step, so
    checking the folded results once catches every path that overflowed."""
    if not all(abs(s) <= sys.float_info.max for s in sums):
        raise DomainError(f"a sum of input {xs!r} leaves the float range")


def consolidated_count_algebra(p: float, q: float) -> Algebra:
    """Closed form of counting after lossy copying: stay put with probability
    p + q - p*q, count with probability (1-p)*(1-q)."""
    _check_prob(p, "p")
    _check_prob(q, "q")
    return Algebra(_LIST, dirac(0), _faulty(p + q - p * q, _plus_one))


def fcat(p: float, xs) -> Dist:
    return cata_eval(_LIST, fcat_algebra(p, xs), xs)


def fcount(q: float, xs) -> Dist:
    return cata_eval(_LIST, fcount_algebra(q), xs)


def fsum(p: float, xs) -> Dist:
    _check_reals(xs)
    d = cata_eval(_LIST, fsum_algebra(p), xs)
    _check_sums(xs, d.support)
    return d


def pipeline_count_cat(p: float, q: float, xs) -> Dist:
    """Lossy copy piped into faulty counting. Counting reads no element, so
    copies of one length share one count, from one chain over the longest."""
    copies = fcat(p, xs)
    counts = dict(zip(copies.support, _fold_each(fcount_algebra(q), copies.support)))
    return bind(copies, counts.__getitem__)


def pipeline_consolidated(p: float, q: float, xs) -> Dist:
    """The fused single fold equivalent to the copy-then-count pipeline."""
    return cata_eval(_LIST, consolidated_count_algebra(p, q), xs)


def favg_pair(p: float, q: float, xs) -> Dist:
    """Independent pairing of the faulty sum and the faulty count."""
    return pair(fsum(p, xs), fcount(q, xs))


def favg_split(p: float, q: float, xs) -> Dist:
    """Single fold on (total, count) pairs, by banana-split."""
    _check_reals(xs)
    combined = banana_split(_LIST, fsum_algebra(p), fcount_algebra(q))
    d = cata_eval(_LIST, combined, xs)
    _check_sums(xs, (total for total, _count in d.support))
    return d


@dataclass(frozen=True)
class CaseParams:
    """Parameters for run_case: fault rates and the case input."""

    p: float = 0.0
    q: float = 0.0
    input: Any = None


@dataclass(frozen=True)
class CaseDef:
    run: Callable[[CaseParams], Dist]
    kind: str            # "nat" or "seq"
    uses_q: bool = False


REGISTRY: dict[str, CaseDef] = {
    "mfib": CaseDef(lambda c: mfib(c.p, c.input), "nat"),
    "mfibl": CaseDef(lambda c: mfibl(c.p, c.input), "nat"),
    "msq": CaseDef(lambda c: msq(c.p, c.input), "nat"),
    "msql": CaseDef(lambda c: msql(c.p, c.input), "nat"),
    "msqlo": CaseDef(lambda c: msqlo(c.p, c.input), "nat"),
    "msq'": CaseDef(lambda c: msq_prime(c.p, c.q, c.input), "nat", uses_q=True),
    "msql'": CaseDef(lambda c: msql_prime(c.p, c.q, c.input), "nat", uses_q=True),
    "ftwice": CaseDef(lambda c: ftwice(c.p, c.input), "nat"),
    "fcat": CaseDef(lambda c: fcat(c.p, c.input), "seq"),
    "fcount": CaseDef(lambda c: fcount(c.q, c.input), "seq", uses_q=True),
    "fsum": CaseDef(lambda c: fsum(c.p, c.input), "seq"),
    "pipeline_count_cat": CaseDef(lambda c: pipeline_count_cat(c.p, c.q, c.input), "seq", uses_q=True),
    "pipeline_consolidated": CaseDef(lambda c: pipeline_consolidated(c.p, c.q, c.input), "seq", uses_q=True),
    "favg_pair": CaseDef(lambda c: favg_pair(c.p, c.q, c.input), "seq", uses_q=True),
    "favg_split": CaseDef(lambda c: favg_split(c.p, c.q, c.input), "seq", uses_q=True),
}

# shell-friendly aliases for the primed names
ALIASES = {"msq_prime": "msq'", "msql_prime": "msql'"}


class UnknownCaseError(KeyError):
    pass


def run_case(name: str, params: CaseParams) -> Dist:
    """Exact output distribution of a registered case."""
    name = ALIASES.get(name, name)
    try:
        case = REGISTRY[name]
    except KeyError:
        raise UnknownCaseError(f"unknown case {name!r}; known: {', '.join(sorted(REGISTRY))}") from None
    _check_prob(params.p, "p")
    _check_prob(params.q, "q")
    return case.run(params)
