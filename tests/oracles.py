"""Independent reference implementations used only by the test suite.

Everything here recomputes results through a different route than the
library: full-permutation enumeration with midpoint evaluation for the
scheme's law and with right-endpoint evaluation for its integer cell
lengths, backtracking enumeration for allocation existence, a
sort-the-whole-priority-list apportionment with its own threshold formulas,
and largest remainders on Fraction quotas, compared house by house.
Keeping these separate from the package is the point - a bug would have to
be made twice, in two different shapes, to go unnoticed.
"""

import itertools
import math
from fractions import Fraction


def interval_contains_integer(left: Fraction, right: Fraction) -> bool:
    """Direct definition: does [left, right) contain an integer?"""
    return math.ceil(left) < right


def indicators_at(u: Fraction, fracs) -> tuple:
    """Residual indicators at exact offset u, straight from the definition."""
    out = []
    pos = u
    for f in fracs:
        nxt = pos + f
        out.append(1 if interval_contains_integer(pos, nxt) else 0)
        pos = nxt
    return tuple(out)


def full_permutation_distribution(fracs) -> dict:
    """Law of the shuffled systematic scheme via all s! orderings.

    For each ordering the offset space is cut at every point where a
    cumulative sum crosses an integer; each open cell is evaluated at its
    midpoint (never a breakpoint), using pure Fraction arithmetic.
    """
    fracs = [Fraction(f) for f in fracs]
    s = len(fracs)
    law = {}
    total_weight = Fraction(0)
    for order in itertools.permutations(range(s)):
        cuts = {Fraction(0), Fraction(1)}
        c = Fraction(0)
        for i in order:
            c += fracs[i]
            cuts.add((-c) % 1)
        cuts = sorted(cuts)
        for left, right in zip(cuts, cuts[1:]):
            mid = (left + right) / 2
            ordered_bits = indicators_at(mid, [fracs[i] for i in order])
            bits = [0] * s
            for k, i in enumerate(order):
                bits[i] = ordered_bits[k]
            key = tuple(bits)
            w = right - left
            law[key] = law.get(key, Fraction(0)) + w
            total_weight += w
    return {k: v / math.factorial(s) for k, v in law.items() if v}


def fixed_order_distribution(fracs) -> dict:
    """Single-ordering law by the same midpoint method."""
    fracs = [Fraction(f) for f in fracs]
    cuts = {Fraction(0), Fraction(1)}
    c = Fraction(0)
    for f in fracs:
        c += f
        cuts.add((-c) % 1)
    cuts = sorted(cuts)
    law = {}
    for left, right in zip(cuts, cuts[1:]):
        mid = (left + right) / 2
        key = indicators_at(mid, fracs)
        law[key] = law.get(key, Fraction(0)) + (right - left)
    return law


def mask_lengths(nums, den) -> list:
    """Cell lengths per winner mask over all s! orderings, in integers.

    ``nums`` are numerators over ``den`` in [0, den) whose total is a
    multiple of ``den``.  For each ordering the offsets 0..den (over den)
    are cut at every point where a running sum meets a multiple of den;
    each cell (left, right] is evaluated at its right endpoint straight
    from the definition: a state wins when its segment [u + c_prev, u + c)
    contains a multiple of den.  Entry m is the total length of the cells
    whose winners, as input-index bits, form m.
    """
    s = len(nums)
    acc = [0] * (1 << s)
    for order in itertools.permutations(range(s)):
        cums = list(itertools.accumulate(nums[i] for i in order))
        cuts = sorted({0, den} | {(-c) % den for c in cums})
        for left, right in zip(cuts, cuts[1:]):
            mask = 0
            lo = right
            for i, c in zip(order, cums):
                hi = right + c
                first_multiple = -(-lo // den) * den
                if first_multiple < hi:
                    mask |= 1 << i
                lo = hi
            acc[mask] += right - left
    return acc


def exists_allocation(lows, highs, total) -> bool:
    """Backtracking existence check for an integer vector in a box with a
    fixed sum."""
    lows = list(lows)
    highs = list(highs)

    def rec(i, remaining):
        if i == len(lows):
            return remaining == 0
        for a in range(lows[i], highs[i] + 1):
            if a > remaining:
                break
            if rec(i + 1, remaining - a):
                return True
        return False

    if any(lo > hi for lo, hi in zip(lows, highs)):
        return False
    return rec(0, total)


def exists_allocation_product(lows, highs, total) -> bool:
    """Tiny-case cross-check of exists_allocation via raw product scan."""
    ranges = [range(lo, hi + 1) for lo, hi in zip(lows, highs)]
    return any(sum(combo) == total for combo in itertools.product(*ranges))


def quota_bound_feasible(prob, bounds) -> bool:
    """Does any allocation satisfy quota and the lower bounds?  Brute force."""
    total = sum(prob.populations)
    quotas = [Fraction(prob.seats * p, total) for p in prob.populations]
    lows = [max(b, math.floor(q)) for b, q in zip(bounds, quotas)]
    highs = [math.ceil(q) for q in quotas]
    return exists_allocation(lows, highs, prob.seats)


def rescale_and_pin(quotas, bounds, seats):
    """The lower-bound iteration in Fraction arithmetic.

    States whose quota is at most their bound get the bound; the others
    share the remaining seats in proportion to their quotas, and every
    state pushed below its lower quota is pinned there before the next
    round.  Returns (feasible, rounds, final quota), each round an
    (active, scale, pinned) triple; the final quota is None when infeasible.
    """
    quotas = [Fraction(q) for q in quotas]
    floors = [math.floor(q) for q in quotas]
    ceils = [math.ceil(q) for q in quotas]
    if any(b > c for b, c in zip(bounds, ceils)) or sum(bounds) > seats:
        return False, [], None
    active = [i for i, (q, b) in enumerate(zip(quotas, bounds)) if q > b]
    left = seats - sum(b for q, b in zip(quotas, bounds) if q <= b)
    pinned, rounds, values = [], [], {}
    while active:
        scale = Fraction(left) / sum(quotas[i] for i in active)
        values = {i: scale * quotas[i] for i in active}
        below = tuple(i for i in active if values[i] < floors[i])
        rounds.append((tuple(active), scale, below))
        if not below:
            break
        pinned.extend(below)
        left -= sum(floors[i] for i in below)
        active = [i for i in active if i not in below]
    if (not active and left != 0) or any(values[i] > ceils[i] for i in active):
        return False, rounds, None
    final = [Fraction(b) for b in bounds]
    for i in pinned:
        final[i] = Fraction(floors[i])
    for i in active:
        final[i] = values[i]
    return True, rounds, tuple(final)


def oracle_priority(rule_name: str, pop: int, seats_so_far: int):
    """Priority of a state's next seat, written from the threshold table
    directly (None means a guaranteed seat).  Squared for hill."""
    b = seats_so_far
    if rule_name == "adams":
        return None if b == 0 else Fraction(pop) / b
    if rule_name == "dean":
        if b == 0:
            return None
        harmonic = 2 / (Fraction(1, b) + Fraction(1, b + 1))
        return Fraction(pop) / harmonic
    if rule_name == "hill":
        return None if b == 0 else Fraction(pop) ** 2 / (b * (b + 1))
    if rule_name == "webster":
        return Fraction(pop) / (b + Fraction(1, 2))
    if rule_name == "jefferson":
        return Fraction(pop) / (b + 1)
    raise ValueError(rule_name)


def _priority_list(pops, rule_name: str, starts, count: int) -> list:
    """The next ``count`` seats of every state after its ``starts`` seats,
    best first: (priority, state) pairs sorted by priority, then larger
    population, then earlier state.  A priority of None is infinite."""
    entries = []
    for i, (pop, start) in enumerate(zip(pops, starts)):
        for b in range(start, start + count):
            value = oracle_priority(rule_name, pop, b)
            if value is None:
                key = (0, Fraction(0), -pop, i)
            else:
                key = (1, -value, -pop, i)
            entries.append((key, value, i))
    entries.sort(key=lambda e: e[0])
    return [(value, i) for _key, value, i in entries]


def priority_list_apportion(prob, rule_name: str) -> tuple:
    """Apportion by sorting the complete priority list and taking the top
    seats (ties: larger population first, then earlier state)."""
    seats = [0] * prob.size
    for _value, i in _priority_list(prob.populations, rule_name,
                                    [0] * prob.size, prob.seats)[:prob.seats]:
        seats[i] += 1
    return tuple(seats)


def priority_list_cut(prob, rule_name: str) -> tuple:
    """(last taken, first left) priorities of the complete priority list of
    a house of at least one seat."""
    entries = _priority_list(prob.populations, rule_name,
                             [0] * prob.size, prob.seats + 1)
    return entries[prob.seats - 1][0], entries[prob.seats][0]


def bounded_priority_list_apportion(prob, rule_name: str, bounds):
    """Every state starts at its bound; the seats left go down the sorted
    list of onward priorities of the states whose quota exceeds their bound.
    None when the bounds overfill the house, or seats are left but no
    state's quota exceeds its bound."""
    left = prob.seats - sum(bounds)
    total = sum(prob.populations)
    if left < 0:
        return None
    competing = [Fraction(prob.seats * p, total) > b
                 for p, b in zip(prob.populations, bounds)]
    if left and not any(competing):
        return None
    entries = _priority_list(prob.populations, rule_name, bounds, left)
    seats = list(bounds)
    for _value, i in [e for e in entries if competing[e[1]]][:left]:
        seats[i] += 1
    return tuple(seats)


def largest_remainders(pops, seats) -> tuple:
    """Hamilton's method from its definition: each state gets the floor of
    its Fraction quota, then the seats left go one each to the largest
    fractional parts (ties: larger population first, then earlier state)."""
    total = sum(pops)
    quotas = [Fraction(seats * p, total) for p in pops]
    out = [math.floor(q) for q in quotas]
    ranked = sorted(range(len(pops)),
                    key=lambda i: (-(quotas[i] - out[i]), -pops[i], i))
    for i in ranked[:seats - sum(out)]:
        out[i] += 1
    return tuple(out)


def alabama_witnesses(pops, houses) -> list:
    """(house, state, seats at house, seats at house + 1) for every state
    that loses a seat from a house to the next one, both in ``houses``;
    by house, then state."""
    houses = set(houses)
    out = []
    for r in sorted(houses):
        if r + 1 not in houses:
            continue
        before = largest_remainders(pops, r)
        after = largest_remainders(pops, r + 1)
        out.extend((r, i, before[i], after[i]) for i in range(len(pops))
                   if after[i] < before[i])
    return out
