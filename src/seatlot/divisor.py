"""Deterministic apportionment: divisor methods, largest remainders,
quota-staying audits, and paradox detectors.

A divisor method fixes a rounding threshold between consecutive seat counts
and divides every population by a common price per seat, rounding at the
threshold; the price is tuned until the seats sum to the house size.  The
tuning is exact: the result holds the house's largest priority values
population/threshold(seats so far), found by jump-and-step.  The jump
rounds every state at one exact starting price near the final one, which
grants every seat whose priority is above the price and none whose
priority is below it; the step then grants the best withheld seats, or
withdraws the worst granted ones, until the seats sum to the house size.
The jump misses the house size by fewer seats than there are states, so
the cost grows with the number of states, not with the house size, and no
floating-point search is involved.

Everything from the price to the seats is integers.  The starting price
is an integer pair (num, den), not reduced; one rounding loop
(``_rounded``) gives every state its seats at a price, raised to its
floor, for the jump and for ``lambda_allocation`` alike.  The step ranks
seats by integer keys, each priority times a common power of two
2**shift, rounded down: when no threshold numerator exceeds M, unequal
priorities differ by at least 1/M**2, so with 2**shift > M**2 the keys
order the seats exactly as the priorities do, ties included.
``Fraction``s appear only at the edges: a price or entitlement passed in
is read as one, and ``divisor_apportion`` builds its audit's two
priorities as two.  An Alabama scan under a named rule builds none.  Each
rule is one exact integer threshold (see ``DivisorRule``), from which
rounding, the priorities and the first-seat guarantee are all read;
Huntington-Hill's irrational threshold sqrt(b*(b+1)) is given squared and
compared through squares, which is exact for the non-negative quantities
involved.

Ties between equal priorities are broken by larger population first, then
by input position; the rule is arbitrary but fixed, so results are
reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .core import (_READERS, Allocation, Problem, as_fraction,
                   check_integers, compute_quota, entry)
from .errors import CapacityError, InfeasibleError, InputError, _shown
from .rng import _unpack_lanes


@dataclass(frozen=True)
class DivisorRule:
    """A divisor method, defined by its rounding threshold d(b) between
    ``b`` and ``b + 1`` seats.

    ``threshold(b)`` gives d(b) as integers ``(num, den)`` with den > 0, or
    d(b)**2 for ``squared_priority`` rules (Hill's d(b) is irrational).  An
    entitlement strictly above d(b) rounds up; equality keeps the floor.
    ``rounds_up``, ``priority`` and ``first_seat_guaranteed`` (d(0) = 0) are
    read from the threshold.  ``split``, d(b) - b for large b, only centres
    the jump's starting price: a wrong value costs time, not seats.
    """

    name: str
    split: Fraction
    squared_priority: bool
    threshold: Callable[[int], tuple[int, int]] = field(compare=False)

    @property
    def first_seat_guaranteed(self) -> bool:
        return self.threshold(0)[0] == 0

    def rounds_up(self, x, b: int) -> bool:
        """Whether entitlement ``x`` with ``b`` whole seats rounds to b + 1:
        x > d(b), tested in integers as a**k * den > num * c**k for x = a/c
        and d(b) = num/den, k = 2 for rules compared through squares
        (exact, as both sides are >= 0: a negative x is refused)."""
        x = as_fraction(x, "entitlement")
        if x < 0:
            raise InputError(f"entitlement must be non-negative, got "
                             f"{_shown(x, str)}")
        check_integers((b,), "seat count", 0)
        a, c = x.numerator, x.denominator
        num, den = self.threshold(b)
        if self.squared_priority:
            a, c = a * a, c * c
        return a * den > num * c

    def priority(self, pop: int, b: int) -> Optional[Fraction]:
        """Priority pop/d(b) of the next seat of a state of population
        ``pop`` >= 1 after ``b`` >= 0 seats, squared for rules compared
        through squares; ``None`` (infinite) when d(b) = 0."""
        check_integers((pop,), "population", 1)
        check_integers((b,), "seat count", 0)
        num, den = self.threshold(b)
        if self.squared_priority:
            pop *= pop
        return Fraction(pop * den, num) if num else None


# One line per rule, its threshold d(b) as (num, den): smallest divisors
# d(b) = b, harmonic mean of b and b + 1, geometric mean sqrt(b * (b + 1))
# given squared, major fractions b + 1/2, greatest divisors b + 1.
_HALF = Fraction(1, 2)
RULES: dict[str, DivisorRule] = {rule.name: rule for rule in (
    DivisorRule("adams", Fraction(0), False, lambda b: (b, 1)),
    DivisorRule("dean", _HALF, False, lambda b: (2 * b * (b + 1), 2 * b + 1)),
    DivisorRule("hill", _HALF, True, lambda b: (b * (b + 1), 1)),
    DivisorRule("webster", _HALF, False, lambda b: (2 * b + 1, 2)),
    DivisorRule("jefferson", Fraction(1), False, lambda b: (b + 1, 1)),
)}

DETERMINISTIC_METHODS = ("hamilton",) + tuple(RULES)


def _rule(rule) -> DivisorRule:
    """A ``DivisorRule`` as it is, or the rule in ``RULES`` of that name."""
    if isinstance(rule, DivisorRule):
        return rule
    if isinstance(rule, str) and rule in RULES:
        return RULES[rule]
    raise InputError(f"unknown divisor rule {_shown(rule)}; expected a "
                     f"DivisorRule or a name in RULES, one of {tuple(RULES)}")


_READERS.update(rule=_rule)


@entry
def lambda_allocation(prob: Problem, rule: DivisorRule | str,
                      divisor) -> tuple[int, ...]:
    """Per-state seats at a fixed price per seat (no tuning).

    Each population is divided by the price; the result keeps its floor
    unless it strictly exceeds the rule's threshold, in which case it rounds
    up.  Equality keeps the floor.  The price is any positive finite
    rational (int, Fraction, float or text such as ``'7/2'``).
    """
    s = prob.size
    seats, _ = _rounded(prob.populations, rule, divisor.numerator,
                        divisor.denominator, (0,) * s, range(s))
    return tuple(seats)


def _rounded(pops: Sequence[int], rule: DivisorRule, num: int, den: int,
             floors: Sequence[int], states: Sequence[int]):
    """The seats of ``states`` at the price num/den > 0, each rounded at the
    rule's threshold and raised to its floor, with their total; every
    other state keeps its floor.

    pops[i] / price is a/num with a = pops[i] * den: it keeps its floor b
    unless a/num > d(b), tested in integers as in ``DivisorRule``.
    """
    threshold = rule.threshold
    squared = rule.squared_priority
    scale = num * num if squared else num
    seats = list(floors)
    total = 0
    for i in states:
        a = pops[i] * den
        b = a // num
        t_num, t_den = threshold(b)
        if (a * a if squared else a) * t_den > t_num * scale:
            b += 1
        if b < seats[i]:
            b = seats[i]
        seats[i] = b
        total += b
    return seats, total


@entry
def divisor_apportion(prob: Problem, rule: DivisorRule | str) -> Allocation:
    """Tune the price per seat so the rounded seats sum to the house size.

    Implemented as exact selection of the house's largest priority values
    by jump-and-step: one allocation at a starting price misses the house
    size by fewer seats than there are states, and those seats are granted
    or withdrawn one at a time in priority order, so the cost does not grow
    with the house size.  The audit records the priority at the cut and
    the next one below it (any price strictly between them reproduces the
    allocation), squared for rules compared through squares.
    """
    pops = prob.populations
    seats, cut_key, next_key = _house(pops, rule, prob.seats, audit=True)
    if cut_key is None:
        cut_priority = next_priority = None
    else:
        # A key ends in its state's index: the cut is that state's last
        # seat, the next priority its first withheld one.
        cut, nxt = cut_key[3], next_key[3]
        cut_priority = rule.priority(pops[cut], seats[cut] - 1)
        next_priority = rule.priority(pops[nxt], seats[nxt])
    audit = {"cut_priority": cut_priority, "next_priority": next_priority,
             "squared": rule.squared_priority}
    return Allocation(seats=tuple(seats), method=rule.name, audit=audit)


def _house(pops: Sequence[int], rule: DivisorRule, r: int, audit=False):
    """The rule's seats for a house of ``r``, with the worst granted and the
    best withheld key as ``_jump_and_step`` gives them (None when r = 0)."""
    s = len(pops)
    if rule.first_seat_guaranteed and r < s:
        raise InfeasibleError(
            f"{rule.name} grants every state a seat, impossible with "
            f"{r} seats for {s} states")
    if r == 0:
        return [0] * s, None, None
    return _jump_and_step(pops, rule, (0,) * s, range(s), r, audit)


def _jump_price(pops: Sequence[int], rule: DivisorRule, floors: Sequence[int],
                states: Sequence[int], target: int) -> tuple[int, int]:
    """A starting price, as integers (num, den) in no lowest terms, at
    which the seats of ``states``, rounded at the price and raised to their
    floors, miss ``target`` by fewer seats than there are states.

    With zero floors this is P / (target + s * (split - 1/2)) for the
    population P and number s of ``states``.  A state whose floor lies
    above its share at the price is held at its floor, and the price is
    recomputed over the others.  The price only rises from round to round,
    so a held state stays at its floor.
    """
    # Twice the split minus one, in lowest terms as on/od: Adams -1, Dean,
    # Hill and Webster 0, Jefferson 1.  Scaling by od keeps every comparison
    # in integers.
    n, d = rule.split.numerator, rule.split.denominator
    g = math.gcd(2 * n - d, d)
    on, od = (2 * n - d) // g, d // g
    active = list(states)
    left = target
    # States are distinct indices, so as many as there are populations are
    # all of them.
    weight = (sum(pops) if len(active) == len(pops)
              else sum(pops[i] for i in active))
    num, den = 0, 1
    while True:
        denom = 2 * od * left + on * len(active)
        # The price rises to 2 od weight / denom, or stays where it is.
        rise, over = 2 * od * weight, max(denom, 1)
        if rise * den > num * over:
            num, den = rise, over
        if denom <= 0:
            # Only a split below one half (Adams) gets here, with at most half
            # a seat per state left to grant.  Every active share is now under
            # half a seat, so no state gets one seat more than its floor.
            return num, den
        # A state with a zero floor is never held: its floor clips nothing.
        held = {i for i in active if floors[i] and 2 * od * pops[i] * den
                < (2 * od * floors[i] + on) * num}
        if not held:
            return num, den
        left -= sum(floors[i] for i in held)
        weight -= sum(pops[i] for i in held)
        active = [i for i in active if i not in held]


def _jump_and_step(pops: Sequence[int], rule: DivisorRule, floors, states,
                   target: int, audit=False):
    """Grant ``states`` the seats above their ``floors`` with the best
    priority keys, so that their seats total ``target``.

    Returns the seat list with the worst granted key and the best withheld
    key.  The jump gives every state the onward seats whose priority is
    above the starting price (for Jefferson: not below it), which is a
    prefix of the priority order.  So the step grants the best withheld
    seats from a heap of next seats, or withdraws the worst granted ones
    from a heap of last granted seats, one step per seat the jump missed
    by; and the last seat moved, if any, is the other end of the audit.
    When the jump lands on ``target``, finding the two keys means keying
    every state again; only ``divisor_apportion``'s audit reads them, so
    without ``audit`` both are None.

    A key is ``(1, -v, -pop, index)`` for a finite priority pop**k * den /
    num, where v is that priority times 2**shift rounded down, and
    ``(0, 0, -pop, index)`` for an infinite one (num = 0); the heap of
    granted seats holds the keys negated, worst first.  The keys are exact
    integers: if no numerator exceeds M, two unequal priorities differ by
    at least 1/M**2, so with 2**shift > M**2 they scale to unequal values,
    and equal ones to equal values.  Tuple order is then priority order,
    ties included.  M is first read as the numerator of the threshold at
    the largest seat count the step can key, which bounds every numerator
    of a rule whose numerators grow with the seat count (all of
    ``RULES``); a key whose numerator exceeds it restarts the step from
    the jump's seats with a shift wide enough for that numerator.
    """
    num, den = _jump_price(pops, rule, floors, states, target)
    start, total = _rounded(pops, rule, num, den, floors, states)
    if total == target and not audit:
        return start, None, None
    # No state's seats pass its jump seats plus the seats the jump is short.
    top = max(map(start.__getitem__, states)) + max(target - total, 0)
    bound = rule.threshold(top)[0]
    while True:
        try:
            return _step(pops, rule, floors, states, target, start, total,
                         bound)
        except _WiderKeys as wider:
            bound = max(wider.args[0], bound * bound)


class _WiderKeys(Exception):
    """Raised with a threshold numerator above the keys' bound."""


def _step(pops, rule, floors, states, target, start, total, bound):
    # The step of ``_jump_and_step`` from the jump's seats ``start``, with
    # keys scaled for threshold numerators up to ``bound``.
    threshold = rule.threshold
    power, shift = 2 if rule.squared_priority else 1, 2 * bound.bit_length()
    scaled = [pop ** power << shift for pop in pops]

    def best_first(i, b):
        # The key of state i's seat after b seats, with its priority times
        # 2**shift rounded down.
        num, den = threshold(b)
        if not num:
            return (0, 0, -pops[i], i)
        if num > bound:
            raise _WiderKeys(num)
        return (1, -(scaled[i] * den // num), -pops[i], i)

    def worst_first(i, b):
        key = best_first(i, b)
        return (-key[0], -key[1], -key[2], -key[3])

    seats = list(start)
    if total > target:
        granted = [worst_first(i, seats[i] - 1)
                   for i in states if seats[i] > floors[i]]
        heapq.heapify(granted)
        while total > target:
            i = -heapq.heappop(granted)[3]
            seats[i] -= 1
            total -= 1
            if seats[i] > floors[i]:
                heapq.heappush(granted, worst_first(i, seats[i] - 1))
        j = -granted[0][3]
        return seats, best_first(j, seats[j] - 1), best_first(i, seats[i])
    withheld = [best_first(i, seats[i]) for i in states]
    heapq.heapify(withheld)
    worst_granted = None
    while total < target:
        worst_granted = heapq.heappop(withheld)
        i = worst_granted[3]
        seats[i] += 1
        total += 1
        heapq.heappush(withheld, best_first(i, seats[i]))
    if worst_granted is None:
        worst_granted = max(best_first(i, seats[i] - 1)
                            for i in states if seats[i] > floors[i])
    return seats, worst_granted, withheld[0]


@entry
def divisor_with_bounds(prob: Problem, rule: DivisorRule | str,
                        bounds: int | Sequence[int]) -> Allocation:
    """Current-practice variant: grant each state its minimum, then let the
    divisor method continue from there.

    Every state starts with ``bounds[i]`` seats; the remaining seats go to
    the largest onward priorities among states whose quota strictly exceeds
    their minimum (states already at or above their quota stop competing).
    With a minimum of one seat and the equal-proportions rule this is the
    method used for the US House today.
    """
    granted = sum(bounds)
    if granted > prob.seats:
        raise InfeasibleError(
            f"minimum seats sum to {granted} > {prob.seats} seats")
    residual = prob.seats - granted
    total = prob.total_population
    competitors = [i for i, (p, b) in enumerate(zip(prob.populations, bounds))
                   if prob.seats * p > b * total]
    if residual == 0:
        return Allocation(seats=bounds, method=f"{rule.name}+bounds")
    if not competitors:
        raise InfeasibleError(
            "seats remain but every state already meets or exceeds its quota")
    seats, _, _ = _jump_and_step(
        prob.populations, rule, bounds, competitors,
        residual + sum(bounds[i] for i in competitors))
    return Allocation(seats=tuple(seats), method=f"{rule.name}+bounds")


@entry
def hamilton_apportion(prob: Problem) -> Allocation:
    """Largest remainders: floors, then one extra seat per largest fraction.

    Remainder ties go to the larger population, then to the earlier state.
    """
    pops = prob.populations
    seats = _largest_remainders(pops, prob.total_population, prob.seats,
                                _tie_order(pops))
    return Allocation(seats=tuple(seats), method="hamilton")


def _tie_order(pops: Sequence[int]) -> list[int]:
    # States by larger population, then earlier index (the sort is stable,
    # also in reverse).
    return sorted(range(len(pops)), key=pops.__getitem__, reverse=True)


def _largest_remainders(pops: Sequence[int], total: int, seats: int,
                        tie_order: Sequence[int]) -> list[int]:
    """Hamilton's seats for ``seats`` seats, in integers.

    The seats left after the floors go to the largest remainders (see
    ``_floors_and_remainders``), equal remainders in ``tie_order``.
    """
    floors, rems = _floors_and_remainders(pops, total, seats)
    extra = sorted(tie_order, key=rems.__getitem__, reverse=True)
    for i in extra[:seats - sum(floors)]:
        floors[i] += 1
    return floors


def _floors_and_remainders(pops: Sequence[int], total: int,
                           seats: int) -> tuple[list[int], list[int]]:
    # State i's quota is seats * pops[i] / total; its floor and the raw
    # remainder seats * pops[i] % total rank exactly as the reduced
    # fractional quotas do, as they share one denominator.
    return ([seats * p // total for p in pops],
            [seats * p % total for p in pops])


@entry
def resolve_method(method) -> tuple[str, Callable[[Problem], Allocation]]:
    """Turn a method name or callable into (name, problem -> Allocation)."""
    if callable(method):
        return getattr(method, "__name__", "custom"), method
    name = str(method)
    if name == "hamilton":
        return name, hamilton_apportion
    if name in RULES:
        return name, lambda prob: divisor_apportion(prob, name)
    raise InputError(f"unknown deterministic method {name!r}; "
                     f"expected one of {DETERMINISTIC_METHODS}")


@dataclass(frozen=True)
class ParadoxReport:
    """A re-verifiable paradox witness: the instances plus the moved states."""

    kind: str
    method: str
    witness: dict


def _seat_change(kind: str, method: str, prob: Problem, house_before: int,
                 house_after: int, state: int, seats_before: int,
                 seats_after: int) -> ParadoxReport:
    """The witness of one state whose seats changed between two houses of
    ``prob``'s states (its own house size is not read)."""
    return ParadoxReport(kind=kind, method=method, witness={
        "labels": list(prob.labels),
        "populations": list(prob.populations),
        "house_before": house_before,
        "house_after": house_after,
        "state": state,
        "label": prob.labels[state],
        "seats_before": seats_before,
        "seats_after": seats_after,
    })


# The most house sizes one Alabama scan walks; more are refused with
# CapacityError before any house is apportioned.  At 50 states a Hamilton
# scan costs about 10 us per house and a Webster scan 44-50 us (Python
# 3.11, one core of a shared 2-core machine), so a scan at the ceiling runs
# for seconds to minutes, not hours.
ALABAMA_HOUSE_CEILING = 10 ** 6


def _houses(r_values) -> Sequence[int]:
    """The house sizes of an Alabama scan, in increasing order; see
    :func:`detect_alabama`."""
    if isinstance(r_values, range):
        rs = r_values if r_values.step > 0 else r_values[::-1]
    else:
        if not isinstance(r_values, Iterable):
            raise InputError(f"house sizes must be an iterable, got "
                             f"{type(r_values).__name__}")
        head = list(itertools.islice(r_values, ALABAMA_HOUSE_CEILING + 1))
        if len(head) > ALABAMA_HOUSE_CEILING:
            raise CapacityError(
                f"an Alabama scan walks at most {ALABAMA_HOUSE_CEILING} house "
                f"sizes; the iterable yields more")
        rs = sorted(set(head))
    if not rs:
        raise InputError("empty house-size range")
    # A slice, unlike len(), takes a range of any length.
    if rs[ALABAMA_HOUSE_CEILING:]:
        raise CapacityError(
            f"an Alabama scan walks at most {ALABAMA_HOUSE_CEILING} house "
            f"sizes; {rs[0]}..{rs[-1]} holds more")
    check_integers(rs, "seats", 0)
    return rs


_READERS.update(r_values=_houses)


@entry
def detect_alabama(prob: Problem, method,
                   r_values: Iterable[int]) -> list[ParadoxReport]:
    """Find states losing a seat when the house grows by one.

    Checks every pair (r, r+1) within ``r_values``; each losing state yields
    one report, in increasing order of r, then of state.  The houses are
    apportioned once each, in increasing order, and only the last house's
    seats are kept, so a scan holds O(states) beyond its reports.  A
    ``range`` is walked upwards without being listed, whatever its length,
    and refused with ``CapacityError`` when it holds more than
    ``ALABAMA_HOUSE_CEILING`` house sizes.  Any other iterable is read for
    at most ``ALABAMA_HOUSE_CEILING + 1`` items: one that yields more than
    the ceiling, duplicates included, is refused with ``CapacityError``
    without being read further, so an endless generator is refused too.
    The items read are sorted without duplicates.

    Hamilton's houses are walked on packed integer lanes (see
    ``_hamilton_losers``): each state's remainder and floor is one lane of
    a single integer, w bits wide, where w is the narrowest of 8, 16, 32,
    64, 128, ... bits that holds twice the total population and the
    largest house.  One house to the next then costs a few whole-integer
    operations and one sort of the remainders, whatever the width; a gap
    in the houses re-seeds the lanes from Hamilton's one-house floor and
    remainder pass.  A divisor method named by one of ``RULES`` runs each
    house straight through the integer jump-and-step core on the
    populations, with no ``Problem``, ``Allocation`` or audit built per
    house.  Any other method, a callable too whatever its name, is called
    once per house on a fresh ``Problem``.
    """
    name, fn = resolve_method(method)
    labels, pops = prob.labels, prob.populations
    if fn is hamilton_apportion:
        losers = _hamilton_losers(pops, r_values)
    elif not callable(method) and name in RULES:
        rule = RULES[name]
        losers = _losers(lambda r: _house(pops, rule, r)[0], r_values)
    else:
        losers = _losers(lambda r: fn(Problem(labels, pops, r)).seats,
                         r_values)
    return [_seat_change("alabama", name, prob, r, r + 1, i, before, after)
            for r, i, before, after in losers]


def _losers(seats_at: Callable[[int], Sequence[int]], rs: Sequence[int]):
    """(r, state, seats at r, seats at r + 1) for every state that loses a
    seat from house r to r + 1, with ``seats_at(r)`` the seats of house r,
    read once per house."""
    last_r = last = None
    for r in rs:
        seats = seats_at(r)
        if last_r == r - 1:
            for i, (before, after) in enumerate(zip(last, seats)):
                if after < before:
                    yield last_r, i, before, after
        last_r, last = r, seats


def _hamilton_losers(pops: Sequence[int], rs: Sequence[int]):
    """``_losers`` for Hamilton's method, walked on packed integer lanes.

    Lane i of an integer holds state i's value in bits w*i .. w*i + w - 1.
    With P the total population, 2P < 2**w and every house below 2**w:

    * the remainders r * p % P sit in lanes R, the floors in lanes F;
    * a lane holds t or more exactly when the top bit of its value
      + 2**(w-1) - t is set, as long as value and t differ by less than
      2**(w-1), which 2P < 2**w grants for every comparison below;
    * house r + 1 adds the populations to R; a lane then holds less than
      2P, and the lanes at P or above wrap: they lose P and their floor
      gains one;
    * k = r - sum(floors) seats are left; the k-th largest remainder c is
      read from one sort of the unpacked lanes.  When exactly k lanes hold
      c or more, they get the extra seats; otherwise equal remainders
      straddle the cut, and the lanes above c get a seat and the lanes at
      c the rest, in ``_tie_order``;
    * a state's seats change by -1 to 2 from a house to the next, so the
      top bit of seats + 2**(w-1) - last seats is clear exactly in the
      lanes that lose a seat.

    Every sum and difference keeps each lane within 0 .. 2**w - 1, so no
    lane carries into or borrows from the next.  Lanes are unpacked, by
    ``rng._unpack_lanes``, only to sort the remainders and to report a
    house with a loser.
    """
    s, total = len(pops), sum(pops)
    tie_order = _tie_order(pops)
    width = 8
    while max(2 * total, rs[-1]) >> width:
        width *= 2
    size = width // 8
    half = 1 << (width - 1)
    ones = ((1 << width * s) - 1) // ((1 << width) - 1)
    tops = ones << (width - 1)

    def pack(values):
        return int.from_bytes(b"".join(v.to_bytes(size, "little")
                                       for v in values), "little")

    def at_least(lanes, t):
        # One in each lane holding t or more: remainders (below P) against
        # t <= P, or stepped remainders (below 2P) against t = P.
        return ((lanes + ones * (half - t)) >> (width - 1)) & ones

    def extra(rems, k):
        # One in each lane that gets one of the k seats left after the
        # floors.
        if not k:
            return 0
        values = _unpack_lanes(rems, size, s)
        cut = sorted(values)[s - k]
        at_or_above = at_least(rems, cut)
        if at_or_above.bit_count() == k:
            return at_or_above
        above = at_least(rems, cut + 1)
        k -= above.bit_count()
        for i in tie_order:
            if values[i] == cut:
                above |= 1 << width * i
                k -= 1
                if not k:
                    return above

    step = pack(pops)
    last_r = last = None
    for r in rs:
        if last_r == r - 1:
            rems += step
            carry = at_least(rems, total)
            rems -= carry * total
            floors += carry
            floor_sum += carry.bit_count()
        else:
            floor_list, rem_list = _floors_and_remainders(pops, total, r)
            floors, rems = pack(floor_list), pack(rem_list)
            floor_sum = sum(floor_list)
        seats = floors + extra(rems, r - floor_sum)
        if last_r == r - 1 and (seats + tops - last) & tops != tops:
            for i, (before, after) in enumerate(
                    zip(_unpack_lanes(last, size, s),
                        _unpack_lanes(seats, size, s))):
                if after < before:
                    yield last_r, i, before, after
        last_r, last = r, seats


@entry
def detect_population_paradox(before: Problem, after: Problem,
                              method) -> list[ParadoxReport]:
    """Find pairs where the faster-growing state loses a seat to the slower.

    Both problems must share the state list and house size.  Growth is
    compared as the exact ratio new/old population.
    """
    if before.labels != after.labels:
        raise InputError("population-paradox check needs identical state lists")
    if before.seats != after.seats:
        raise InputError("population-paradox check needs identical house sizes")
    name, fn = resolve_method(method)
    a_before = fn(before).seats
    a_after = fn(after).seats
    growth = [Fraction(after.populations[i], before.populations[i])
              for i in range(before.size)]
    reports = []
    for i in range(before.size):
        if a_after[i] >= a_before[i]:
            continue
        for j in range(before.size):
            if j == i or a_after[j] <= a_before[j]:
                continue
            if growth[i] > growth[j]:
                reports.append(ParadoxReport(
                    kind="population", method=name,
                    witness={
                        "labels": list(before.labels),
                        "populations_before": list(before.populations),
                        "populations_after": list(after.populations),
                        "seats": before.seats,
                        "loser": i,
                        "gainer": j,
                        "loser_growth": str(growth[i]),
                        "gainer_growth": str(growth[j]),
                        "loser_seats": [a_before[i], a_after[i]],
                        "gainer_seats": [a_before[j], a_after[j]],
                    }))
    return reports


@entry
def fair_share_seats(population: int, base: Problem) -> int:
    """Seats a joining state of positive ``population`` deserves at the base
    problem's price per seat, rounded to the nearest integer (halves up)."""
    total = base.total_population
    return (2 * population * base.seats + total) // (2 * total)


@entry
def detect_new_state_paradox(base: Problem, extended: Problem,
                             method) -> list[ParadoxReport]:
    """Find original states whose seats change when a new state joins.

    ``extended`` must append exactly one state to ``base`` and enlarge the
    house by that state's fair share at the old price.
    """
    if extended.size != base.size + 1:
        raise InputError("extended problem must add exactly one state")
    if (extended.labels[:-1] != base.labels
            or extended.populations[:-1] != base.populations):
        raise InputError("extended problem must preserve the original states")
    expected = base.seats + fair_share_seats(extended.populations[-1], base)
    if extended.seats != expected:
        raise InputError(
            f"extended house must be {expected} seats "
            f"(base plus the new state's fair share), got "
            f"{_shown(extended.seats, str)}")
    name, fn = resolve_method(method)
    a_base = fn(base).seats
    a_ext = fn(extended).seats
    reports = []
    for i in range(base.size):
        if a_ext[i] != a_base[i]:
            reports.append(_seat_change("new_state", name, extended,
                                        base.seats, extended.seats, i,
                                        a_base[i], a_ext[i]))
    return reports


@dataclass(frozen=True)
class QuotaStayingSummary:
    method: str
    instances: int
    lower_violations: int
    upper_violations: int
    lower_witness: Optional[dict] = None
    upper_witness: Optional[dict] = None


@entry
def quota_staying_check(method, corpus: Sequence[Problem]) -> QuotaStayingSummary:
    """Count lower/upper quota violations of a method across a corpus."""
    if not corpus:
        raise InputError("empty corpus")
    name, fn = resolve_method(method)
    lower = upper = 0
    lower_witness = upper_witness = None
    for prob in corpus:
        quota = compute_quota(prob)
        floors, ceilings = quota.floors, quota.ceilings
        seats = fn(prob).seats
        for i in range(prob.size):
            if seats[i] < floors[i]:
                lower += 1
                if lower_witness is None:
                    lower_witness = {"populations": list(prob.populations),
                                     "seats": prob.seats, "state": i}
            if seats[i] > ceilings[i]:
                upper += 1
                if upper_witness is None:
                    upper_witness = {"populations": list(prob.populations),
                                     "seats": prob.seats, "state": i}
    return QuotaStayingSummary(
        method=name, instances=len(corpus),
        lower_violations=lower, upper_violations=upper,
        lower_witness=lower_witness, upper_witness=upper_witness)
