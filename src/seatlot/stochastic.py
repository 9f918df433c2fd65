"""Randomized apportionment with exact marginals, plus its exact law.

The scheme: shuffle the states, grant every state the floor of its quota,
then lay the fractional quotas end to end on a line offset by one uniform
draw and award a residual seat to each state whose segment contains an
integer.  Every outcome satisfies quota, and each state's expected seats
equal its quota exactly.

``exact_distribution`` is the verification oracle: it computes the full
law of the scheme, over every state ordering and every offset, in exact
integers.  Cyclic rotations of an ordering induce the same law (shifting
the offset absorbs the rotation), so only orderings with the last state
pinned are counted.  Whether a state wins depends only on the offset and
on the total fraction of the states before it, not on their order, so the
pure kernel counts all orderings at once: a dynamic program over the sets
of states placed so far, on the offset cells that those sets' totals cut
(see ``_kernels_py.averaged_mask_lengths``).  The fixed-order law of
``residual_distribution`` is one sweep of the one given ordering: the
allocation changes only where u plus a running sum crosses an integer, so
one sort of these breakpoints yields every cell.  States with a zero
fractional part never win and are left out, and the total is scaled back
up to the (s-1)! orderings.  Equality with a direct evaluation of every
cell of every ordering, and with the compiled tier's enumeration of the
orderings, is covered by tests.

``conditional_sampling_allocate`` implements a tempting but biased
alternative - draw residual-seat winners independently with probability
proportional to fractional quota, conditioned on all winners being distinct
- kept here as a counterexample; its selection probabilities provably drift
from the fractional quotas.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from . import _backend, _kernels_py
from .core import (Allocation, Problem, QuotaVector, check_integers,
                   compute_quota, entry, quota_vector)
from .errors import (CapacityError, ConvergenceError, InfeasibleError,
                     InputError, _shown)
from .rng import SeededSource, U53_DENOMINATOR

ENUMERATION_LIMIT = 8
# The exact law of s states has 2**s winner masks and costs (s-1)!
# orderings on the compiled tier; no limit may raise the state count past
# this.
_ENUMERATION_CEILING = 10


@entry
def random_permutation(n: int, src: SeededSource) -> tuple[int, ...]:
    """Uniform permutation of range(n), deterministic given the source."""
    return tuple(src.shuffled_range(n))


def _integral_quota(values) -> QuotaVector:
    """The quota vector of ``values``, whose fractional parts must total an
    integer: the scheme rounds them to whole seats."""
    quota = quota_vector(values)
    if quota.residual_seats < 0:
        raise InputError("fractional quotas must sum to an integer, got "
                         f"{Fraction(sum(quota.nums), quota.den)}")
    return quota


def _fractional_quota(fracs: Sequence[Fraction]) -> QuotaVector:
    """The quota vector of fractional quotas, which must lie in [0, 1) and
    total an integer.  The first entry outside [0, 1) is the one named."""
    for f in fracs:
        if not 0 <= f < 1:
            raise InputError(f"fractional quotas must lie in [0, 1), got "
                             f"{_shown(f, str)}")
    return _integral_quota(fracs)


@entry
def systematic_round(fracs: Sequence, u) -> list[int]:
    """Award residual seats by systematic rounding at exact offset ``u``.

    Returns the 0/1 vector whose i-th entry says whether the half-open
    interval of cumulative fractional quota ending at state i contains an
    integer.  The entries always sum to the (integer) total of ``fracs``.
    """
    if not 0 <= u < 1:
        raise InputError(f"offset must lie in [0, 1), got {_shown(u, str)}")
    _fractional_quota(fracs)
    # The grid carries the offset as one more entry, which is not rounded.
    grid = quota_vector([*fracs, u])
    *nums, u_num = grid.nums
    return list(_kernels_py.systematic_flags(nums, grid.den, u_num,
                                             range(len(nums))))


@entry
def stochastic_apportion(prob: Problem, src: SeededSource) -> Allocation:
    """One draw of the fair randomized scheme.

    The returned allocation always satisfies quota.  The audit record holds
    the state ordering used and the uniform offset (as a dyadic rational),
    which replay the draw exactly.
    """
    return _prepared(prob, None).draw(src)


def _scheme_draw(quota: QuotaVector, src: SeededSource
                 ) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """Shuffle, draw, round; returns (seats, ordering, offset numerator)."""
    order, u53, flags = _kernels_py.scheme_replicate(src, quota.nums,
                                                     quota.den)
    return tuple(map(add, quota.floors, flags)), tuple(order), u53


@dataclass(frozen=True)
class _Prepared:
    """A problem made ready for the scheme, which rounds ``scheme``: the
    problem's ``quota`` itself, or under ``bounds`` (zeros without) the
    composite vector of the iteration ``trace`` (None without bounds)."""

    quota: QuotaVector
    scheme: QuotaVector
    trace: object  # a lowerbound.IterationTrace, or None
    bounds: tuple[int, ...]

    @property
    def method(self) -> str:
        return "stochastic" if self.trace is None else "stochastic-lower-bound"

    def draw(self, src: SeededSource) -> Allocation:
        """One draw; under bounds each audit holds a fresh trace audit."""
        seats, order, u53 = _scheme_draw(self.scheme, src)
        audit = {"permutation": order, "u_numerator": u53,
                 "u_denominator": U53_DENOMINATOR}
        if self.trace is not None:
            audit["trace"] = self.trace.audit()
        return Allocation(seats, self.method, src.seed, audit)

    def law(self, limit: int) -> AllocationDistribution:
        return _allocation_law(self.scheme, limit=limit)


@functools.lru_cache(maxsize=1)
def _prepared(prob: Problem, bounds: Optional[tuple[int, ...]]) -> _Prepared:
    """``prob`` prepared for the scheme under per-state minimums ``bounds``
    (one per state as read, or None for none); infeasible bounds raise
    :class:`InfeasibleError` with the trace.  The bounds are read before
    the memo, so a bad bound is refused on every call.  The last problem
    is kept, so that repeated single draws on one problem (``simulate``
    with a callable that calls ``lower_bound_apportion``) pay only for the
    shuffle and the offset: at 50 states that is a quarter of a bounded
    draw that runs the iteration.  Every value kept is immutable; an
    exception is not kept."""
    quota = compute_quota(prob)
    if bounds is None:
        return _Prepared(quota, quota, None, (0,) * prob.size)
    from .lowerbound import _iterate  # circular
    trace = _iterate(quota, bounds, prob.seats)
    if not trace.feasible:
        raise InfeasibleError(
            "no allocation satisfies quota with the given bounds: "
            f"{trace.diagnostics}", diagnostics=trace.diagnostics,
            trace=trace)
    return _Prepared(quota, trace._composite, trace, bounds)


# The 0/1 bytes of the bits of each byte value, least significant first.
_BYTE_BITS = [bytes(b >> k & 1 for k in range(8)) for b in range(256)]


def _seats_from_mask(floors: Sequence[int], mask: int) -> tuple[int, ...]:
    """``floors`` plus one seat for every state whose bit is set in mask,
    the mask read a byte at a time."""
    flags = b"".join(map(_BYTE_BITS.__getitem__,
                         mask.to_bytes((len(floors) + 7) // 8, "little")))
    return tuple(map(add, floors, flags))


class AllocationDistribution:
    """Exact law of an allocation: support vectors (tuples of seat counts)
    with exact rational masses (int or Fraction)."""

    @entry
    def __init__(self, probabilities: Mapping[Tuple[int, ...], Fraction]):
        for seats, p in probabilities.items():
            if not isinstance(seats, tuple):
                raise InputError("support vectors must be tuples of seat "
                                 f"counts, got {_shown(seats)}")
            if type(p) is not int and not isinstance(p, Fraction):
                raise InputError("probabilities must be exact rationals (int "
                                 f"or Fraction), got {_shown(p)} for "
                                 f"{_shown(seats, str)}")
        check_integers(itertools.chain.from_iterable(probabilities),
                       "seat count", 0)
        items = sorted(probabilities.items())
        size = len(items[0][0]) if items else 0
        total = Fraction(0)
        for seats, p in items:
            if len(seats) != size:
                raise InputError(f"support vectors differ in length: "
                                 f"{_shown(items[0][0], str)} and "
                                 f"{_shown(seats, str)}")
            if p <= 0:
                raise InputError(f"probabilities must be positive, got "
                                 f"{_shown(p, str)} for {_shown(seats, str)}")
            total += p
        if total != 1:
            raise InputError(f"probabilities must sum to 1, got "
                             f"{_shown(total, str)}")
        self.probabilities: Dict[Tuple[int, ...], Fraction] = dict(items)
        self.size = size

    def __len__(self):
        return len(self.probabilities)

    def __eq__(self, other):
        return (isinstance(other, AllocationDistribution)
                and self.probabilities == other.probabilities)

    def support(self) -> list[tuple[int, ...]]:
        return list(self.probabilities)

    def items(self) -> Iterable[tuple[tuple[int, ...], Fraction]]:
        return self.probabilities.items()

    def probability(self, seats: Sequence[int]) -> Fraction:
        return self.probabilities.get(tuple(seats), Fraction(0))

    @entry
    def marginal_mean(self, i: int) -> Fraction:
        return sum((p * seats[i] for seats, p in self.probabilities.items()),
                   Fraction(0))

    def marginal_means(self) -> tuple[Fraction, ...]:
        return tuple(self.marginal_mean(i) for i in range(self.size))

    @entry
    def marginal_law(self, i: int) -> dict[int, Fraction]:
        law: dict[int, Fraction] = {}
        for seats, p in self.probabilities.items():
            law[seats[i]] = law.get(seats[i], Fraction(0)) + p
        return dict(sorted(law.items()))


def _allocation_law(quota: QuotaVector, *, average_orders: bool = True,
                    limit: int = ENUMERATION_LIMIT) -> AllocationDistribution:
    """Exact law of the floors plus the residual seats drawn on the
    fractional parts of ``quota``.

    Every exact law is computed here.  The ordering-averaged law has 2**s
    winner masks and costs (s-1)! orderings on the compiled tier and
    2**(s-1) sets of states on the pure one, so ``limit`` and the ceiling
    guard it, checked before any kernel is called.  The fixed-order law is one sweep of the
    states with a positive fraction, in input order: at most s + 1 cells,
    for any s.
    """
    nums, den = quota.nums, quota.den
    s = len(nums)
    if average_orders:
        if s > limit:
            raise CapacityError(
                f"exact enumeration supports at most {limit} states, got {s}")
        if s > _ENUMERATION_CEILING:
            raise CapacityError(
                f"exact enumeration is capped at {_ENUMERATION_CEILING} "
                f"states whatever the limit, got {s}")
        cells = enumerate(_backend.averaged_mask_lengths(nums, den, True))
        total = den * (math.factorial(s - 1) if s > 1 else 1)
    else:
        cells = _kernels_py.fixed_order_lengths(nums, den).items()
        total = den
    # The seats are the floors plus the mask's bits, so distinct masks give
    # distinct seat vectors and no two cells share a key.
    return AllocationDistribution(
        {_seats_from_mask(quota.floors, mask): Fraction(length, total)
         for mask, length in cells if length})


@entry
def residual_distribution(fracs: Sequence, *, average_orders: bool = True,
                          limit: int = ENUMERATION_LIMIT) -> AllocationDistribution:
    """Exact law of the residual-seat indicator vector.

    With ``average_orders`` the law is averaged over all state orderings
    (the full scheme) and ``limit`` caps the state count; otherwise the
    states are processed in the given fixed order, skipping the shuffle
    step, and any state count is served.
    """
    return _allocation_law(_fractional_quota(fracs),
                           average_orders=average_orders, limit=limit)


@entry
def exact_distribution(prob: Problem, *,
                       limit: int = ENUMERATION_LIMIT) -> AllocationDistribution:
    """Exact law of the randomized scheme's allocation for a problem.

    Marginal means reproduce the quota vector as a rational identity, and
    every support vector satisfies quota; this is the sampling-free oracle
    against which the scheme is verified.
    """
    return _prepared(prob, None).law(limit)


@entry
def conditional_sampling_allocate(fracs: Sequence, residual: int,
                                  src: SeededSource,
                                  max_attempts: int = 10 ** 6) -> list[int]:
    """Residual seats via distinct-conditioned categorical sampling.

    Draws ``residual`` indices independently with probability proportional
    to fractional quota (restricted to states with positive fraction) and
    resamples the whole tuple whenever two indices collide.  This realizes
    the law conditioned on distinctness - which is *not* marginally fair;
    see ``conditional_selection_law``.
    """
    support, nums, total = _conditional_weights(fracs, residual)
    out = [0] * len(fracs)
    if residual == 0:
        return out
    chosen = [0] * residual
    for _attempt in range(max_attempts):
        for t in range(residual):
            v = src.randbelow(total)
            acc = 0
            idx = len(support) - 1
            for i, w in enumerate(nums):
                acc += w
                if v < acc:
                    idx = i
                    break
            chosen[t] = idx
        if len(set(chosen)) == residual:
            for idx in chosen:
                out[support[idx]] = 1
            return out
    raise ConvergenceError(
        f"no collision-free tuple found in {max_attempts} attempts")


def _conditional_weights(fracs: tuple[Fraction, ...], residual: int):
    """(support, weights, total weight) of the conditioned sampler: the
    states with positive fraction and their fractions as numerators over
    the quota vector's denominator (so they need not lie in [0, 1), but a
    negative one is refused).  ``residual`` is a count within the support."""
    quota = quota_vector(fracs)
    weights = [f * quota.den + n for f, n in zip(quota.floors, quota.nums)]
    support = tuple(i for i, w in enumerate(weights) if w)
    if not 0 <= residual <= len(support):
        raise InputError(
            f"cannot pick {_shown(residual, str)} distinct states from "
            f"{len(support)} with positive fraction")
    nums = tuple(weights[i] for i in support)
    return support, nums, sum(nums)


@entry
def conditional_selection_law(fracs: Sequence, residual: int,
                              max_tuples: int = 10 ** 6) -> tuple[Fraction, ...]:
    """Exact per-state selection probability of the conditioned sampler.

    Enumerates every ordered tuple of distinct indices, weighting by the
    product of categorical probabilities, and normalizes.  The weights are
    the sampler's integer numerators over one denominator, which cancels in
    the normalization.  Small inputs only; guarded by ``max_tuples``.
    """
    support, nums, _total = _conditional_weights(fracs, residual)
    if residual == 0:
        return tuple(Fraction(0) for _ in fracs)
    if math.perm(len(support), residual) > max_tuples:
        raise CapacityError("too many ordered tuples to enumerate exactly")
    weight_total = 0
    per_state = [0] * len(fracs)
    for combo in itertools.permutations(range(len(support)), residual):
        w = math.prod(nums[j] for j in combo)
        weight_total += w
        for j in combo:
            per_state[support[j]] += w
    return tuple(Fraction(p, weight_total) for p in per_state)
