"""The bundled fault-injected programs, as a named registry.

Every case is built from the recursion-scheme ops (mutual evaluation, tupled
for-loops, list folds, banana-split) and evaluated by exhaustive enumeration,
so the distributions are exact. The registry names are the CLI contract.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable

from .dist import Dist, DomainError, ProbFn, bind, dirac, marginals, pair
from .functors import ForLoopF, ListF
from .schemes import Algebra, banana_split, cata_eval, for_loop, mutual_eval, tupled_from_mutual


def fadd(p: float, x: int) -> ProbFn:
    """Faulty addition of x: with probability p it acts as the identity."""
    _check_prob(p, "p")
    return ProbFn(lambda y: _fadd(p, x, y))


def _fadd(p: float, x: float, y: float) -> Dist:
    """One faulty addition x + y, for a rate its caller has already checked."""
    return Dist([(y, p), (x + y, 1.0 - p)])


def fadd_zero(q: float, x: int) -> ProbFn:
    """Faulty addition of x that resets to 0 with probability q."""
    _check_prob(q, "q")
    return ProbFn(lambda y: Dist([(0, q), (x + y, 1.0 - q)]))


def fadd_combined(p: float, q: float, x: int) -> ProbFn:
    """Addition that resets to 0 with probability q*p, degenerates to the
    identity with probability (1-q)*p, and is correct with probability 1-p."""
    _check_prob(p, "p")
    _check_prob(q, "q")
    return ProbFn(lambda y: Dist([(0, q * p), (y, (1.0 - q) * p), (x + y, 1.0 - p)]))


def _check_prob(value: float, name: str) -> None:
    if not 0.0 <= float(value) <= 1.0:
        raise DomainError(f"{name}={value!r} outside [0, 1]")


_FOR = ForLoopF()
_LIST = ListF()


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
    h = Algebra(_FOR, dirac(0), lambda s: _fadd(p, s[0], s[1]))
    k = Algebra(_FOR, dirac(1), lambda s: dirac(s[1] + 2))
    return h, k


def sq_prime_algebras(p: float, q: float) -> tuple[Algebra, Algebra]:
    """The disturbed square pair: the odd-number counter is faulty too."""
    _check_prob(p, "p")
    _check_prob(q, "q")
    h = Algebra(_FOR, dirac(0), lambda s: _fadd(p, s[0], s[1]))
    k = Algebra(_FOR, dirac(1), lambda s: _fadd(q, 2, s[1]))
    return h, k


def mfib(p: float, n: int) -> Dist:
    h, k = fib_algebras(p)
    return mutual_eval(_FOR, h, k, n)[0]


def mfibl(p: float, n: int) -> Dist:
    h, k = fib_algebras(p)
    tupled, _ = tupled_from_mutual(_FOR, h, k, test_inputs=())
    return marginals(cata_eval(_FOR, tupled, n))[0]


def msq(p: float, n: int) -> Dist:
    h, k = sq_algebras(p)
    return mutual_eval(_FOR, h, k, n)[0]


def msql(p: float, n: int) -> Dist:
    h, k = sq_algebras(p)
    tupled, _ = tupled_from_mutual(_FOR, h, k, test_inputs=())
    return marginals(cata_eval(_FOR, tupled, n))[0]


def msqlo(p: float, n: int) -> Dist:
    h, k = sq_algebras(p)
    tupled, _ = tupled_from_mutual(_FOR, h, k, test_inputs=())
    return marginals(cata_eval(_FOR, tupled, n))[1]


def msq_prime(p: float, q: float, n: int) -> Dist:
    h, k = sq_prime_algebras(p, q)
    return mutual_eval(_FOR, h, k, n)[0]


def msql_prime(p: float, q: float, n: int) -> Dist:
    h, k = sq_prime_algebras(p, q)
    tupled, _ = tupled_from_mutual(_FOR, h, k, test_inputs=())
    return marginals(cata_eval(_FOR, tupled, n))[0]


def ftwice(p: float, n: int) -> Dist:
    """Doubling as a for-loop over faulty addition of 2, from 0."""
    return for_loop(fadd(p, 2), dirac(0), n)


def _empty_like(xs):
    return "" if isinstance(xs, str) else ()


def _cons(a, s):
    return a + s if isinstance(s, str) else (a,) + s


def fcat_algebra(p: float, xs: Any) -> Algebra:
    """Copy a sequence, losing each element with probability p."""
    _check_prob(p, "p")
    empty = _empty_like(xs)
    return Algebra(_LIST, dirac(empty),
                   lambda av: Dist([(av[1], p), (_cons(av[0], av[1]), 1.0 - p)]))


def fcount_algebra(q: float) -> Algebra:
    """Count elements, skipping each with probability q."""
    _check_prob(q, "q")
    return Algebra(_LIST, dirac(0), lambda av: Dist([(av[1], q), (av[1] + 1, 1.0 - q)]))


def fsum_algebra(p: float) -> Algebra:
    """Sum a sequence of numbers through faulty addition."""
    _check_prob(p, "p")
    return Algebra(_LIST, dirac(0), lambda av: _fadd(p, av[0], av[1]))


def _check_reals(xs) -> None:
    """Reject a sequence holding anything but numbers with a finite float value
    (bools excluded), naming the first offender; other inputs are left to the fold."""
    if isinstance(xs, (str, list, tuple)):
        for a in xs:
            if (isinstance(a, bool) or not isinstance(a, (int, float))
                    or not abs(a) <= sys.float_info.max):
                raise DomainError(f"element {a!r} of input {xs!r} is not a real number")


def consolidated_count_algebra(p: float, q: float) -> Algebra:
    """Closed form of counting after lossy copying: stay put with probability
    p + q - p*q, count with probability (1-p)*(1-q)."""
    _check_prob(p, "p")
    _check_prob(q, "q")
    stay = p + q - p * q
    step = 1.0 - stay
    return Algebra(_LIST, dirac(0), lambda av: Dist([(av[1], stay), (av[1] + 1, step)]))


def fcat(p: float, xs) -> Dist:
    return cata_eval(_LIST, fcat_algebra(p, xs), xs)


def fcount(q: float, xs) -> Dist:
    return cata_eval(_LIST, fcount_algebra(q), xs)


def fsum(p: float, xs) -> Dist:
    _check_reals(xs)
    return cata_eval(_LIST, fsum_algebra(p), xs)


def pipeline_count_cat(p: float, q: float, xs) -> Dist:
    """Lossy copy piped into faulty counting."""
    alg = fcount_algebra(q)
    return bind(fcat(p, xs), lambda s: cata_eval(_LIST, alg, s))


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
    return cata_eval(_LIST, combined, xs)


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
