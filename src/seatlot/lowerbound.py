"""Apportionment under per-state minimum-seat requirements.

A state whose quota falls below its required minimum is over-represented by
force, so no fully fair scheme exists.  The approach here: grant every such
state (and every state whose quota equals its bound) exactly its bound, then
rescale the remaining states' quotas by a common ratio so they share the
remaining seats with equal representation per head.  When rescaling pushes
some state below its lower quota, that state is pinned at its lower quota
and the rescaling is repeated on the survivors; the iteration ends within
one round per state, and it ends with a usable quota vector precisely when
an allocation satisfying both quota and the bounds exists at all.

Two documented non-solutions are implemented for study alongside the real
scheme: ``resample_until_quota`` (rerun the scheme until the outcome
satisfies quota - the conditioning biases the expectations) and
``scaled_fractional_quota`` (shrink all fractional quotas by one factor -
simpler, but the resulting expectations are no longer proportional).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (_READERS, Allocation, Problem, QuotaVector, _instance,
                   check_integers, entry)
from .errors import (ConvergenceError, InfeasibleError, InputError,
                     _digit_limit_error)
from .rng import SeededSource
from .stochastic import (ENUMERATION_LIMIT, AllocationDistribution,
                         _allocation_law, _integral_quota, _prepared,
                         _scheme_draw)


@dataclass(frozen=True)
class StateClassification:
    """Partition of states by quota relative to bound, all comparisons exact."""

    small: tuple[int, ...]      # quota strictly below bound
    exact: tuple[int, ...]      # quota equal to bound
    surplus: tuple[int, ...]    # quota strictly above bound
    remaining_seats: int        # seats left after granting small+exact their bounds


@entry
def classify(quota, bounds: int | Sequence[int],
             seats: int) -> StateClassification:
    """Split states into small / exact / surplus against their bounds.

    ``quota`` is a QuotaVector or a sequence of raw rationals.  Raises
    :class:`InputError` for a house size that is not a non-negative
    integer, and :class:`InfeasibleError` when a bound exceeds its state's
    upper quota or the bounds alone overflow the house, naming the
    condition.
    """
    return _classify(quota, bounds, seats)


def _classify(quota: QuotaVector, bounds: tuple[int, ...],
              seats: int) -> StateClassification:
    """:func:`classify` on bounds and a house size already checked, in one
    pass over (floor, numerator, bound).  A quota ``f + n/den`` lies below
    its bound ``b`` exactly when ``f < b``, and then its upper quota
    ``f + (n > 0)`` lies below ``b`` too unless ``n > 0`` and ``b == f + 1``."""
    small, exact, surplus, over = [], [], [], []
    granted = 0
    for i, (f, n, b) in enumerate(zip(quota.floors, quota.nums, bounds)):
        if f > b or f == b and n:
            surplus.append(i)
        elif f == b:
            exact.append(i)
            granted += b
        else:
            small.append(i)
            granted += b
            if not n or b > f + 1:
                over.append(i)
    if over:
        raise InfeasibleError(
            f"lower bound exceeds upper quota for states {over}",
            diagnostics={"condition": "bound_above_upper_quota", "states": over})
    total_bound = sum(bounds)
    if total_bound > seats:
        raise InfeasibleError(
            f"lower bounds sum to {total_bound} > {seats} seats",
            diagnostics={"condition": "bounds_exceed_house",
                         "total_bound": total_bound, "seats": seats})
    return StateClassification(tuple(small), tuple(exact), tuple(surplus),
                               seats - granted)


@dataclass(frozen=True)
class AdjustedQuota:
    """Equal-representation quotas for the surplus states.

    ``values[k]`` is ``scale * quota`` for surplus state ``indices[k]``;
    the scale is the remaining seats divided by the surplus states' total
    quota, so the values sum to the remaining seats exactly.  ``offenders``
    are surplus states whose scaled value fell below their lower quota.
    ``scale`` is None for value sets supplied from outside rather than
    produced by rescaling.
    """

    scale: Optional[Fraction]
    indices: tuple[int, ...]
    values: tuple[Fraction, ...]
    original_floors: tuple[int, ...]
    original_ceilings: tuple[int, ...]
    condition_holds: bool
    offenders: tuple[int, ...]


def _adjusted_quota(adjusted) -> AdjustedQuota:
    """An AdjustedQuota whose indices, values and original floors and
    ceilings are tuples of one length: of non-negative integers, of exact
    rationals and of non-negative integers."""
    _read_adjusted(adjusted)
    fields = (adjusted.indices, adjusted.values, adjusted.original_floors,
              adjusted.original_ceilings)
    if not all(type(f) is tuple and len(f) == len(fields[0])
               for f in fields):
        raise InputError("adjusted indices, values, floors and ceilings "
                         "must be tuples of equal length")
    check_integers(adjusted.indices, "adjusted index", 0)
    check_integers(adjusted.original_floors + adjusted.original_ceilings,
                   "quota bound", 0)
    if not all(type(v) in (int, Fraction) for v in adjusted.values):
        raise InputError("adjusted values must be exact rationals (int or "
                         "Fraction)")
    return adjusted


_read_adjusted = _instance(AdjustedQuota)
_READERS.update(cls_=_instance(StateClassification), adjusted=_adjusted_quota)


def _adjusted(scale, indices, values, floors, ceilings) -> AdjustedQuota:
    """The AdjustedQuota of ``values`` for the states ``indices``, whose
    original lower and upper quotas are ``floors`` and ``ceilings``."""
    offenders = tuple(i for i, v, f in zip(indices, values, floors) if v < f)
    return AdjustedQuota(scale, indices, values, floors, ceilings,
                         not offenders, offenders)


@entry
def adjusted_quota_from_values(original, values,
                               indices: Optional[Sequence[int]] = None
                               ) -> AdjustedQuota:
    """Wrap externally supplied (original quota, adjusted value) pairs.

    Used to audit published tables: offender status and gaps are recomputed
    from the given numbers, no rescaling is performed.
    """
    if len(original) != len(values):
        raise InputError("original and adjusted vectors differ in length")
    if indices is None:
        indices = tuple(range(len(original)))
    elif len(indices) != len(original):
        raise InputError("indices and value vectors differ in length")
    return _adjusted(None, indices, values, tuple(map(math.floor, original)),
                     tuple(map(math.ceil, original)))


def _surplus(cls_: StateClassification, quota: QuotaVector):
    """The surplus states of ``cls_``, which must classify every state of
    ``quota``."""
    if sum(map(len, (cls_.small, cls_.exact, cls_.surplus))) != quota.size:
        raise InputError("classification and quota vector differ in length")
    return cls_.surplus


@entry
def equal_representation_quota(cls_: StateClassification,
                               quota) -> AdjustedQuota:
    """Round one of :func:`iterate_lower_bound`, as an AdjustedQuota."""
    surplus = _surplus(cls_, quota)
    if not surplus:
        raise InputError("no surplus states to rescale")
    floors, den, rest = quota.floors, quota.den, cls_.remaining_seats
    nums = [floors[i] * den + quota.nums[i] for i in surplus]
    total = sum(nums)
    return _adjusted(Fraction(rest * den, total), surplus,
                     tuple(Fraction(rest * n, total) for n in nums),
                     tuple(floors[i] for i in surplus),
                     tuple(quota.ceilings[i] for i in surplus))


@dataclass(frozen=True)
class ViolationBound:
    """Probability bound for running the scheme on offender-bearing values.

    ``verbatim`` applies the summand max(1, gap) per offender; ``union`` uses
    min(1, gap), which is what each offender's actual failure probability
    equals, so ``union`` is the attainable union bound.  Both are reported;
    with at most one offender the true violation probability equals
    ``union`` exactly.
    """

    verbatim: Fraction
    union: Fraction
    gaps: tuple[tuple[int, Fraction], ...]
    exact_for_single_offender: bool


@entry
def violation_probability_bound(adjusted: AdjustedQuota) -> ViolationBound:
    verbatim = Fraction(0)
    union = Fraction(0)
    gaps = []
    for i, v, f in zip(adjusted.indices, adjusted.values,
                       adjusted.original_floors):
        if v < f:
            gap = f - v
            gaps.append((i, gap))
            verbatim += max(Fraction(1), gap)
            union += min(Fraction(1), gap)
    return ViolationBound(
        verbatim=verbatim,
        union=union,
        gaps=tuple(gaps),
        exact_for_single_offender=len(gaps) <= 1,
    )


@dataclass(frozen=True)
class IterationRound:
    active: tuple[int, ...]
    scale: Fraction
    fixed: tuple[int, ...]


@dataclass(frozen=True)
class IterationTrace:
    """Record of the rescale-and-pin iteration.

    When feasible, ``final_quota`` is the full-length composite vector:
    bound values on small/exact states, lower quotas on pinned states, and
    rescaled values on the surviving active states; it sums to the house
    size and every entry lies within [lower quota, upper quota].
    """

    classification: Optional[StateClassification]
    rounds: tuple[IterationRound, ...]
    final_active: tuple[int, ...]
    fixed_at_floor: tuple[int, ...]
    _composite: Optional[QuotaVector]
    feasible: bool
    diagnostics: Optional[str] = None

    @property
    def final_quota(self) -> Optional[tuple[Fraction, ...]]:
        if self._composite is None:
            return None
        return self._composite.quotas

    def audit(self) -> dict:
        """JSON-ready summary of the trace, built afresh on every call.  A
        scale too long for the interpreter to print raises
        :class:`CapacityError`."""
        try:
            rounds = [{"active": list(r.active),
                       "scale": f"{r.scale.numerator}/{r.scale.denominator}",
                       "fixed": list(r.fixed)} for r in self.rounds]
        except ValueError as exc:  # past the int-to-string limit
            raise _digit_limit_error() from exc
        return {"rounds": rounds, "final_active": list(self.final_active),
                "fixed_at_floor": list(self.fixed_at_floor),
                "feasible": self.feasible, "diagnostics": self.diagnostics}


@entry
def iterate_lower_bound(quota, bounds: int | Sequence[int],
                        seats: int) -> IterationTrace:
    """Run the rescaling iteration to a composite quota vector or a verdict.

    All offenders of a round are pinned simultaneously before the ratio is
    recomputed, which keeps the outcome independent of state order.  The
    trace reports infeasibility; malformed input raises :class:`InputError`.

    ``quota`` is a QuotaVector or a sequence of raw rationals.  For quotas
    ``N[i] / D``, an active state's rescaled value is
    ``remaining * N[i] / sum(N[active])``: every comparison is in integers.
    The pinned states' floors and numerators leave ``remaining`` and the
    active total by subtraction.
    """
    return _iterate(quota, bounds, seats)


def _iterate(quota: QuotaVector, bounds: tuple[int, ...],
             seats: int) -> IterationTrace:
    """:func:`iterate_lower_bound` on bounds and a house size already
    checked, so that a bounded draw checks its bounds once."""
    try:
        cls_ = _classify(quota, bounds, seats)
    except InfeasibleError as exc:
        return IterationTrace(
            classification=None, rounds=(), final_active=(),
            fixed_at_floor=(), _composite=None, feasible=False,
            diagnostics=str(exc))
    floors, den = quota.floors, quota.den
    nums = [f * den + n for f, n in zip(floors, quota.nums)]
    active = cls_.surplus
    total = sum([nums[i] for i in active])
    remaining = cls_.remaining_seats
    fixed: list[int] = []
    rounds: list[IterationRound] = []
    while active:
        offenders = tuple([i for i in active
                           if remaining * nums[i] < floors[i] * total])
        rounds.append(IterationRound(active, Fraction(remaining * den, total),
                                     offenders))
        if not offenders:
            break
        fixed.extend(offenders)
        remaining -= sum([floors[i] for i in offenders])
        total -= sum([nums[i] for i in offenders])
        pinned = set(offenders)
        active = tuple([i for i in active if i not in pinned])

    def _trace(composite, diagnostics=None):
        return IterationTrace(
            classification=cls_, rounds=tuple(rounds),
            final_active=active, fixed_at_floor=tuple(fixed),
            _composite=composite, feasible=composite is not None,
            diagnostics=diagnostics)

    composite = list(bounds)
    for i in fixed:
        composite[i] = floors[i]
    if not active:
        if remaining < 0:
            return _trace(None, f"quota and the bounds force {seats - remaining}"
                          f" seats but the house has {seats}")
        if remaining > 0:
            return _trace(None, f"{remaining} seat(s) cannot be granted without "
                          "pushing some state above its upper quota")
        return _trace(QuotaVector(tuple(composite), (0,) * len(nums), 1))
    if remaining * den > total:
        # Only a scale above 1 can lift a value over its upper quota.  That
        # never happens for quota vectors derived from a problem (the scale
        # never exceeds 1 once small states exist); kept as a guard for raw
        # quota inputs.
        bad_upper = [i for i in active
                     if remaining * nums[i] > -(-nums[i] // den) * total]
        if bad_upper:
            return _trace(None, "rescaled quota exceeds upper quota for "
                          f"states {bad_upper}")
    fracs = [0] * len(nums)
    for i in active:
        composite[i], fracs[i] = divmod(remaining * nums[i], total)
    g = math.gcd(total, *fracs)
    return _trace(QuotaVector(tuple(composite),
                              tuple([n // g for n in fracs]),
                              total // g))


@entry
def lower_bound_apportion(prob: Problem, bounds: int | Sequence[int],
                          src: SeededSource) -> Allocation:
    """Randomized apportionment honouring per-state minimums.

    Runs the rescaling iteration, then the randomized rounding scheme on
    the composite quota vector.  The result satisfies quota and the bounds
    with probability one; expected seats equal the composite quota vector.
    """
    return _prepared(prob, bounds).draw(src)


@entry
def lower_bound_distribution(prob: Problem, bounds: int | Sequence[int],
                             *, limit: int = ENUMERATION_LIMIT
                             ) -> AllocationDistribution:
    """Exact law of the bounded scheme (small state counts only)."""
    return _prepared(prob, bounds).law(limit)


def _within_quota(seats, adjusted: AdjustedQuota) -> bool:
    """Whether every entry of ``seats`` lies between its state's original
    lower and upper quota in ``adjusted``."""
    return all(f <= a <= c for a, f, c in
               zip(seats, adjusted.original_floors,
                   adjusted.original_ceilings))


@entry
def resample_until_quota(adjusted: AdjustedQuota, src: SeededSource,
                         cap: int = 10 ** 5) -> Allocation:
    """Rerun the scheme on offender-bearing values until quota holds.

    Kept as a reference non-solution: conditioning on the accepted outcome
    shifts the expectations away from the values, so the accepted law is
    not fair.  Seats are indexed by ``adjusted.indices``.
    """
    if not adjusted.values:
        raise InputError("permutation length must be at least 1")
    quota = _integral_quota(adjusted.values)
    for attempt in range(1, cap + 1):
        seats, order, u53 = _scheme_draw(quota, src)
        if _within_quota(seats, adjusted):
            return Allocation(
                seats=tuple(seats), method="resample-until-quota",
                seed=src.seed,
                audit={"rounds": attempt, "indices": list(adjusted.indices)})
    raise ConvergenceError(f"no quota-satisfying outcome in {cap} runs")


@entry
def resample_conditional_law(adjusted: AdjustedQuota,
                             *, limit: int = ENUMERATION_LIMIT
                             ) -> AllocationDistribution:
    """Exact law of ``resample_until_quota``: the scheme's law on the
    adjusted values, restricted to quota-satisfying outcomes and
    renormalized."""
    quota = _integral_quota(adjusted.values)
    law = _allocation_law(quota, limit=limit)
    kept = {seats: p for seats, p in law.items()
            if _within_quota(seats, adjusted)}
    if not kept:
        raise InfeasibleError("no quota-satisfying outcome has positive probability")
    total = sum(kept.values(), Fraction(0))
    return AllocationDistribution({k: p / total for k, p in kept.items()})


@dataclass(frozen=True)
class ScaledQuota:
    """Uniformly shrunken fractional quotas for the surplus states."""

    factor: Fraction
    indices: tuple[int, ...]
    values: tuple[Fraction, ...]


@entry
def scaled_fractional_quota(quota, cls_: StateClassification) -> ScaledQuota:
    """Shrink surplus states' fractional quotas by one common factor.

    The factor makes floors plus scaled fractions sum to the remaining
    seats.  Simpler than the rescaling iteration but breaks proportional
    expectations; provided for comparison only.
    """
    surplus = _surplus(cls_, quota)
    fracs = [quota.fractional[i] for i in surplus]
    numerator = cls_.remaining_seats - sum(quota.floors[i] for i in surplus)
    frac_total = sum(fracs, Fraction(0))
    if frac_total == 0:
        if numerator == 0:
            return ScaledQuota(Fraction(0), surplus,
                               tuple(Fraction(0) for _ in surplus))
        raise InputError("no fractional quota available to scale")
    factor = Fraction(numerator) / frac_total
    values = tuple(factor * f for f in fracs)
    bad = [i for i, v in zip(surplus, values) if not 0 <= v < 1]
    if bad:
        raise InputError(
            f"scaled fractional quota leaves [0, 1) for states {bad}")
    return ScaledQuota(factor=factor, indices=surplus, values=values)
