"""Exact-arithmetic domain types and quota predicates.

A *problem* is a list of states with positive integer populations and a
non-negative house size.  Each state's quota is its exactly proportional
share of the house.  A :class:`QuotaVector` holds the quotas as integers,
a floor and a numerator per state over one common denominator, and this one
type carries them from the census through the lower-bound iteration to the
kernels, and the command line prints quotas from them.  Its ``Fraction``
views (``quotas``, ``fractional``) are built on first read, for callers
that want rationals (traces, exact laws).  Quota ties and integrality (a
fractional part of exactly zero) are decided exactly, never through
floating point; floats appear only in rendered reports.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .errors import InputError


# What Fraction() raises for a value that is no finite rational: a wrong
# type, malformed text or NaN, an infinity, a zero denominator ('3/0').
_NOT_RATIONAL = (TypeError, ValueError, OverflowError, ZeroDivisionError)


def as_fraction(value, name: str) -> Fraction:
    """Coerce an int/Fraction/float/string to an exact Fraction; anything
    else, NaN and the infinities included, is refused with InputError."""
    try:
        return Fraction(value)
    except _NOT_RATIONAL as exc:
        raise InputError(
            f"{name} must be a finite rational, got {value!r}") from exc


def as_fractions(values: Sequence) -> tuple[Fraction, ...]:
    """Coerce a sequence of ints/Fractions/strings to exact Fractions."""
    try:
        return tuple(v if type(v) is Fraction else Fraction(v)
                     for v in values)
    except _NOT_RATIONAL as exc:
        raise InputError(f"not an exact rational vector: {values!r}") from exc


def check_integers(values: Iterable, name: str, least: int) -> None:
    """Refuse the first of ``values`` that is not an integer of at least
    ``least`` (0 or 1); bools are refused too.  Callers pass a whole
    sequence, so a vector is checked in one call."""
    for v in values:
        # A plain int passes on the first test alone; every draw builds an
        # Allocation, so this loop is on the draw path.
        if type(v) is not int or v < least:
            if not isinstance(v, int) or isinstance(v, bool) or v < least:
                kind = "non-negative" if least == 0 else "positive"
                raise InputError(
                    f"{name} must be a {kind} integer, got {v!r}")


@dataclass(frozen=True)
class Problem:
    """A set of labelled states with populations, and a house size."""

    labels: tuple[str, ...]
    populations: tuple[int, ...]
    seats: int

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(map(str, self.labels)))
        object.__setattr__(self, "populations", tuple(self.populations))
        if len(self.labels) != len(self.populations):
            raise InputError("labels and populations differ in length")
        if not self.labels:
            raise InputError("a problem needs at least one state")
        if len(set(self.labels)) != len(self.labels):
            raise InputError("state labels must be pairwise distinct")
        check_integers(self.populations, "population", 1)
        check_integers((self.seats,), "seats", 0)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def total_population(self) -> int:
        return sum(self.populations)


def check_problem(prob) -> None:
    """Refuse anything but a :class:`Problem` with InputError."""
    if not isinstance(prob, Problem):
        raise InputError(f"expected a Problem, got {type(prob).__name__}")


def problem(populations: Sequence[int], seats: int,
            labels: Optional[Sequence[str]] = None) -> Problem:
    """Convenience constructor with auto-generated labels S1..Sn."""
    if labels is None:
        labels = tuple(f"S{i + 1}" for i in range(len(populations)))
    return Problem(tuple(labels), tuple(populations), seats)


@dataclass(frozen=True)
class QuotaVector:
    """Exact quotas ``floors[i] + nums[i] / den``, in integers.

    ``0 <= nums[i] < den`` and ``den`` is the least common denominator of
    the fractional parts.  ``quotas[i]`` is the exact entitlement of state i
    and ``fractional[i]`` its residual entitlement, both as ``Fraction``s
    built on first read; ``ceilings`` (the upper quotas) is likewise kept
    after its first read.  ``residual_seats`` is the number of seats left
    after every floor is granted (-1 when the fractional parts do not total
    an integer), and ``unsatisfied_count`` the number of states still
    competing for them.
    """

    floors: tuple[int, ...]
    nums: tuple[int, ...]
    den: int

    @cached_property
    def quotas(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(f * den + n, den)
                     for f, n in zip(self.floors, self.nums))

    @cached_property
    def fractional(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def size(self) -> int:
        return len(self.floors)

    @cached_property
    def ceilings(self) -> tuple[int, ...]:
        return tuple(f + (1 if n else 0)
                     for f, n in zip(self.floors, self.nums))

    @property
    def residual_seats(self) -> int:
        seats, rest = divmod(sum(self.nums), self.den)
        return -1 if rest else seats

    @property
    def unsatisfied_count(self) -> int:
        return sum(1 for n in self.nums if n)


def quota_vector(values: Sequence) -> QuotaVector:
    """Build a QuotaVector from raw rational entitlements.

    Unlike :func:`compute_quota` this does not require the values to sum to
    an integer house size, which allows checks on externally supplied quota
    tables; ``residual_seats`` is -1 when the fractional parts do not total
    an integer.  A QuotaVector is returned as it is.
    """
    if isinstance(values, QuotaVector):
        return values
    quotas = as_fractions(values)
    for q in quotas:
        if q.numerator < 0:
            raise InputError(f"quota values must be non-negative, got {q}")
    den = math.lcm(*(q.denominator for q in quotas))
    split = [divmod(q.numerator * (den // q.denominator), den) for q in quotas]
    return QuotaVector(tuple(f for f, _ in split), tuple(n for _, n in split),
                       den)


def compute_quota(prob: Problem) -> QuotaVector:
    """Exact quotas seats * population / total for every state."""
    total = prob.total_population
    g = math.gcd(prob.seats, total)
    seats, den = prob.seats // g, total // g
    floors, nums = zip(*(divmod(seats * p, den) for p in prob.populations))
    g = math.gcd(den, *nums)
    return QuotaVector(floors, tuple(n // g for n in nums), den // g)


@dataclass(frozen=True)
class Allocation:
    """An integer seat vector with provenance for replay."""

    seats: tuple[int, ...]
    method: str
    seed: Optional[int] = None
    audit: Optional[Mapping] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "seats", tuple(self.seats))
        check_integers(self.seats, "seat count", 0)

    @property
    def total(self) -> int:
        return sum(self.seats)


def satisfies_quota(alloc, quota: QuotaVector) -> bool:
    """True when every state sits between its lower and upper quota;
    ``alloc`` is an Allocation or a plain seat sequence."""
    seats = tuple(getattr(alloc, "seats", alloc))
    if len(seats) != quota.size:
        raise InputError("allocation and quota vector differ in length")
    return all(f <= a <= c
               for a, f, c in zip(seats, quota.floors, quota.ceilings))


def broadcast_lower_bound(bound, size: int) -> tuple[int, ...]:
    """The minimums of ``size`` states from one integer for all or one per
    state, the one reader of lower bounds; anything else raises InputError."""
    if not isinstance(bound, Iterable):
        check_integers((bound,), "lower bound", 0)
        return (bound,) * size
    bounds = tuple(bound)
    if len(bounds) != size:
        raise InputError("lower-bound vector and state list differ in length")
    check_integers(bounds, "lower bound", 0)
    return bounds


def feasible_with_lower_bound(quota: QuotaVector,
                              bounds: int | Sequence[int],
                              seats: int) -> bool:
    """Existence test for an allocation satisfying quota with lower bound.

    Such an allocation exists exactly when no bound exceeds its state's
    upper quota and the floors forced by max(bound, lower quota) still fit
    in the house.
    """
    bounds = broadcast_lower_bound(bounds, quota.size)
    if any(b > c for b, c in zip(bounds, quota.ceilings)):
        return False
    return sum(max(b, f) for b, f in zip(bounds, quota.floors)) <= seats
