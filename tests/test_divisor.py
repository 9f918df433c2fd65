import dataclasses
import itertools
import math
import time
import tracemalloc
from fractions import Fraction as F
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seatlot import (Allocation, CapacityError, InfeasibleError, InputError,
                     Problem, SeededSource, compute_quota, divisor, problem,
                     satisfies_quota)
from seatlot.divisor import (RULES, detect_alabama, detect_new_state_paradox,
                             detect_population_paradox, divisor_apportion,
                             divisor_with_bounds, fair_share_seats,
                             hamilton_apportion, lambda_allocation,
                             quota_staying_check, resolve_method)

from fixtures import (CENSUS_50, HAMILTON_ALABAMA, HAMILTON_NEW_STATE,
                      HAMILTON_POPULATION, JEFFERSON_UPPER_QUOTA)
from oracles import (alabama_witnesses, bounded_priority_list_apportion,
                     largest_remainders, oracle_priority,
                     priority_list_apportion, priority_list_cut)

ALL_RULES = list(RULES.values())

# Few distinct populations with many common ratios, so priorities tie often
# across states.
TIE_POPULATIONS = (1, 2, 3, 4, 6, 8, 12)


# --- rule definitions -------------------------------------------------------

RATIONAL_THRESHOLDS = {
    "adams": lambda b: F(b),
    "dean": lambda b: F(0) if b == 0 else 2 / (F(1, b) + F(1, b + 1)),
    "webster": lambda b: b + F(1, 2),
    "jefferson": lambda b: F(b + 1),
}


def _random_prices(src, count=300):
    """(problem, price, entitlements) at random rational prices; small
    prices and populations put many entitlements on a threshold."""
    for _ in range(count):
        pops = [1 + src.randbelow(400) for _ in range(5)]
        price = F(1 + src.randbelow(60), 1 + src.randbelow(12))
        yield problem(pops, 10), price, [p / price for p in pops]


@pytest.mark.parametrize("name", ["adams", "dean", "webster", "jefferson"])
def test_rounds_up_matches_rational_threshold(name):
    rule = RULES[name]
    threshold = RATIONAL_THRESHOLDS[name]
    src = SeededSource(17)
    for _ in range(2000):
        b = src.randbelow(30)
        x = F(src.randbelow(400), 1 + src.randbelow(12))
        assert rule.rounds_up(x, b) == (x > threshold(b))
    for prob, price, xs in _random_prices(src):
        floors = [math.floor(x) for x in xs]
        assert lambda_allocation(prob, rule, price) == tuple(
            b + (x > threshold(b)) for x, b in zip(xs, floors))


def test_hill_rounds_up_matches_high_precision_sqrt():
    rule = RULES["hill"]
    src = SeededSource(18)
    with mpmath.workdps(60):
        for _ in range(10_000):
            b = src.randbelow(40)
            x = F(1 + src.randbelow(2000), 1 + src.randbelow(50))
            numeric = mpmath.mpf(x.numerator) / x.denominator \
                > mpmath.sqrt(mpmath.mpf(b) * (b + 1))
            assert rule.rounds_up(x, b) == numeric
        for prob, price, xs in _random_prices(src):
            want = []
            for x in xs:
                b = math.floor(x)
                want.append(b + (mpmath.mpf(x.numerator) / x.denominator
                                 > mpmath.sqrt(mpmath.mpf(b) * (b + 1))))
            assert lambda_allocation(prob, rule, price) == tuple(want)


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.name)
def test_threshold_between_b_and_b_plus_one(rule):
    # x = b never rounds up (threshold >= b); x = b+1 rounds up unless the
    # threshold equals b+1 itself (greatest divisors).
    for b in range(0, 25):
        assert not rule.rounds_up(F(b), b)
        if rule.name == "jefferson":
            assert not rule.rounds_up(F(b + 1), b)
        else:
            assert rule.rounds_up(F(b + 1), b)


def test_priorities_strictly_decrease_per_state():
    for rule in ALL_RULES:
        for pop in (1, 7, 360):
            values = [rule.priority(pop, b) for b in range(0, 12)]
            finite = [v for v in values if v is not None]
            assert all(a > b for a, b in zip(finite, finite[1:]))
            if rule.first_seat_guaranteed:
                assert values[0] is None


# --- fixed-price allocation ---------------------------------------------------

def test_lambda_allocation_examples():
    assert lambda_allocation(problem((5, 5), 10), RULES["webster"], 1) == (5, 5)
    assert lambda_allocation(problem((87, 13), 10), RULES["jefferson"],
                             10 ** 9) == (0, 0)
    # integral entitlements sit exactly on the smallest-divisors threshold
    # and keep their floors
    assert lambda_allocation(problem((3, 1), 4), RULES["adams"],
                             F(1, 2)) == (6, 2)


def test_lambda_allocation_rejects_bad_price():
    with pytest.raises(InputError):
        lambda_allocation(problem((5, 5), 10), RULES["webster"], 0)


# Values Fraction() refuses with ValueError, OverflowError and
# ZeroDivisionError in turn.
NOT_RATIONAL = [float("nan"), float("inf"), float("-inf"), "3/0"]


@pytest.mark.parametrize("price", NOT_RATIONAL, ids=repr)
def test_lambda_allocation_refuses_a_price_that_is_no_rational(price):
    with pytest.raises(InputError, match="price per seat must be a finite"):
        lambda_allocation(problem((5, 5), 10), RULES["webster"], price)


@pytest.mark.parametrize("x", NOT_RATIONAL, ids=repr)
@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.name)
def test_rounds_up_refuses_an_entitlement_that_is_no_rational(rule, x):
    with pytest.raises(InputError, match="entitlement must be a finite"):
        rule.rounds_up(x, 2)


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.name)
def test_rounds_up_refuses_a_negative_entitlement(rule):
    # Hill compares squares, so -5 rounded up as if it were 5 > sqrt(6).
    with pytest.raises(InputError, match="entitlement must be non-negative"):
        rule.rounds_up(-5, 2)
    with pytest.raises(InputError, match="entitlement must be non-negative"):
        rule.rounds_up(F(-1, 3), 0)


@pytest.mark.parametrize("b", [-1, 1.5, True, "2"], ids=repr)
@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.name)
def test_rounds_up_refuses_a_seat_count_that_is_no_count(rule, b):
    # webster.rounds_up(0, -1) answered True.
    with pytest.raises(InputError,
                       match="seat count must be a non-negative integer"):
        rule.rounds_up(0, b)


@pytest.mark.parametrize("pop, b", [(5, -1), (-3, 1), (0, 2), (2.5, 1),
                                    (4, 1.5), (True, 1), (4, True)],
                         ids=repr)
@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.name)
def test_priority_refuses_a_population_or_seat_count_out_of_range(rule, pop,
                                                                   b):
    # webster.priority(5, -1) was -10, and hill.priority(-3, 1) was 9/2: the
    # square lost the population's sign.
    with pytest.raises(InputError, match="must be a (positive|non-negative) "
                                         "integer"):
        rule.priority(pop, b)


@pytest.mark.parametrize("population", [-5, 0, 2.5, True, "7"], ids=repr)
def test_fair_share_seats_refuses_a_population_below_one(population):
    # fair_share_seats(-5, base) gave -3 seats, and a population of 0 none.
    with pytest.raises(InputError, match="population must be a positive"):
        fair_share_seats(population, problem((10, 20), 12))


def _by_rule(call, rule):
    prob = problem(_census(states=8, seed=5), 60)
    if call == "apportion":
        alloc = divisor_apportion(prob, rule)
        return alloc.seats, alloc.audit, alloc.method
    if call == "bounds":
        alloc = divisor_with_bounds(prob, rule, 2)
        return alloc.seats, alloc.audit, alloc.method
    return lambda_allocation(prob, rule, 1000)


@pytest.mark.parametrize("call", ["apportion", "bounds", "lambda"])
def test_rule_name_reads_as_its_rule(call):
    # divisor_apportion(prob, "webster") raised AttributeError; a name in
    # RULES now gives what its rule gives, and anything else is refused.
    for name, rule in RULES.items():
        assert _by_rule(call, name) == _by_rule(call, rule)
    for bad in (3, None, "nope", ["webster"], "Webster"):
        with pytest.raises(InputError, match="^unknown divisor rule .*a "
                                             "DivisorRule or a name in RULES"):
            _by_rule(call, bad)


NON_PROBLEM_CALLS = {
    "fair_share_seats": lambda bad: fair_share_seats(5, bad),
    "lambda_allocation": lambda bad: lambda_allocation(bad, "webster", 2),
    "quota_staying_check": lambda bad: quota_staying_check("webster", [bad]),
    "divisor_apportion": lambda bad: divisor_apportion(bad, "webster"),
    "divisor_with_bounds": lambda bad: divisor_with_bounds(bad, "hill", 1),
    "hamilton_apportion": hamilton_apportion,
    "detect_alabama": lambda bad: detect_alabama(bad, "hamilton", range(3)),
    "detect_population_paradox": lambda bad: detect_population_paradox(
        bad, problem((2, 3), 4), "hamilton"),
    "detect_new_state_paradox": lambda bad: detect_new_state_paradox(
        problem((2, 3), 4), bad, "hamilton"),
}


@pytest.mark.parametrize("name", sorted(NON_PROBLEM_CALLS))
def test_entry_points_refuse_a_non_problem(name):
    # The first three raised AttributeError on None.
    for bad in (None, (2, 3), "2,3"):
        with pytest.raises(InputError, match="^expected a Problem, got "):
            NON_PROBLEM_CALLS[name](bad)


def test_lambda_allocation_reads_any_rational_price():
    prob = problem((7, 3), 10)
    want = lambda_allocation(prob, RULES["webster"], F(7, 2))
    for price in (3.5, "7/2", "3.5", F(14, 4)):
        assert lambda_allocation(prob, RULES["webster"], price) == want


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.name)
def test_lambda_allocation_monotone_in_price(rule):
    src = SeededSource(23)
    for _ in range(40):
        pops = [1 + src.randbelow(200) for _ in range(4)]
        prob = problem(pops, 10)
        prices = sorted(F(1 + src.randbelow(600), 1 + src.randbelow(6))
                        for _ in range(6))
        allocs = [lambda_allocation(prob, rule, price) for price in prices]
        for a, b in zip(allocs, allocs[1:]):
            assert all(x >= y for x, y in zip(a, b))


def test_rule_copy_under_another_name_behaves_the_same():
    # A rule is its threshold and split, not its name: a copy jumps from
    # the same price and gives the same seats and audit.
    adams = RULES["adams"]
    copy = dataclasses.replace(adams, name="adams-copy")
    pops = _census()
    s = len(pops)
    for house in (s, 435, 10 ** 6):
        prob = problem(pops, house)
        assert divisor._jump_price(pops, copy, (0,) * s, range(s), house) \
            == divisor._jump_price(pops, adams, (0,) * s, range(s), house)
        want, got = divisor_apportion(prob, adams), divisor_apportion(prob, copy)
        assert (got.seats, got.audit) == (want.seats, want.audit)
        assert divisor_with_bounds(prob, copy, 1).seats \
            == divisor_with_bounds(prob, adams, 1).seats


# --- tuned apportionment -------------------------------------------------------

@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.name)
def test_integral_quotas_reproduced(rule):
    prob = problem((5, 3, 2), 10)
    assert divisor_apportion(prob, rule).seats == (5, 3, 2)


def test_jefferson_example():
    assert divisor_apportion(problem((87, 13), 10),
                             RULES["jefferson"]).seats == (9, 1)


def test_first_seat_rules_need_enough_seats():
    for name in ("adams", "dean", "hill"):
        with pytest.raises(InfeasibleError):
            divisor_apportion(problem((5, 3, 2), 2), RULES[name])
        assert divisor_apportion(problem((5, 3, 2), 3),
                                 RULES[name]).seats == (1, 1, 1)


def test_zero_seats():
    assert divisor_apportion(problem((4, 9), 0),
                             RULES["jefferson"]).seats == (0, 0)
    with pytest.raises(InfeasibleError):
        divisor_apportion(problem((4, 9), 0), RULES["adams"])


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.name)
def test_sum_and_scaling_invariance(rule):
    src = SeededSource(29)
    for _ in range(60):
        s = 1 + src.randbelow(6)
        pops = [1 + src.randbelow(300) for _ in range(s)]
        seats = s if rule.first_seat_guaranteed else src.randbelow(25)
        seats = max(seats, s) if rule.first_seat_guaranteed else seats
        prob = problem(pops, seats)
        alloc = divisor_apportion(prob, rule)
        assert sum(alloc.seats) == seats
        factor = 1 + src.randbelow(9)
        scaled = problem([p * factor for p in pops], seats)
        scaled_alloc = divisor_apportion(scaled, rule)
        assert scaled_alloc.seats == alloc.seats
        # the audited cut rescales by the same factor (squared for rules
        # compared through squares)
        cut = alloc.audit["cut_priority"]
        cut_scaled = scaled_alloc.audit["cut_priority"]
        if cut is not None and cut_scaled is not None:
            power = 2 if rule.squared_priority else 1
            assert cut_scaled == cut * factor ** power


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.name)
def test_matches_priority_list_oracle(rule):
    src = SeededSource(31)
    for _ in range(120):
        s = 1 + src.randbelow(6)
        pops = [1 + src.randbelow(120) for _ in range(s)]
        seats = src.randbelow(31)
        if rule.first_seat_guaranteed and seats < s:
            seats = s
        prob = problem(pops, seats)
        assert divisor_apportion(prob, rule).seats \
            == priority_list_apportion(prob, rule.name)


@given(st.lists(st.sampled_from(TIE_POPULATIONS), min_size=1, max_size=6),
       st.integers(min_value=1, max_value=40), st.sampled_from(ALL_RULES))
@settings(max_examples=400, deadline=None)
def test_tie_heavy_seats_and_audit_match_oracle(pops, seats, rule):
    prob = problem(pops, seats)
    if rule.first_seat_guaranteed and seats < len(pops):
        with pytest.raises(InfeasibleError):
            divisor_apportion(prob, rule)
        return
    alloc = divisor_apportion(prob, rule)
    assert alloc.seats == priority_list_apportion(prob, rule.name)
    assert (alloc.audit["cut_priority"], alloc.audit["next_priority"]) \
        == priority_list_cut(prob, rule.name)


@given(st.lists(st.sampled_from(TIE_POPULATIONS), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=40), st.sampled_from(ALL_RULES),
       st.data())
@settings(max_examples=400, deadline=None)
def test_tie_heavy_bounded_matches_oracle(pops, seats, rule, data):
    bounds = data.draw(st.lists(st.integers(min_value=0, max_value=4),
                                min_size=len(pops), max_size=len(pops)))
    prob = problem(pops, seats)
    want = bounded_priority_list_apportion(prob, rule.name, bounds)
    if want is None:
        with pytest.raises(InfeasibleError):
            divisor_with_bounds(prob, rule, bounds)
    else:
        assert divisor_with_bounds(prob, rule, bounds).seats == want


@pytest.fixture
def jump_misses(monkeypatch):
    """Records, for every jump-and-step call, whether bounds were set and
    how many seats the jump allocated beyond its target (negative: short).
    The jump's integer price (num, den) is read as the rational num/den."""
    misses = []
    jump_and_step = divisor._jump_and_step

    def spy(pops, rule, floors, states, target, *audit):
        price = F(*divisor._jump_price(pops, rule, floors, states, target))
        jump = lambda_allocation(problem(pops, target), rule, price)
        miss = sum(max(floors[i], jump[i]) for i in states) - target
        assert abs(miss) < len(states)
        misses.append((any(floors), miss))
        return jump_and_step(pops, rule, floors, states, target, *audit)

    monkeypatch.setattr(divisor, "_jump_and_step", spy)
    return misses


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.name)
def test_jump_short_and_over_both_match_oracles(rule, jump_misses):
    # The step grants seats after a short jump and withdraws them after an
    # overshoot; both happen here, with and without bounds.
    src = SeededSource(59)
    for _ in range(200):
        s = 1 + src.randbelow(6)
        pops = [TIE_POPULATIONS[src.randbelow(len(TIE_POPULATIONS))]
                for _ in range(s)]
        prob = problem(pops, s + src.randbelow(30))
        assert divisor_apportion(prob, rule).seats \
            == priority_list_apportion(prob, rule.name)
        bounds = [src.randbelow(3) for _ in range(s)]
        want = bounded_priority_list_apportion(prob, rule.name, bounds)
        if want is not None:
            assert divisor_with_bounds(prob, rule, bounds).seats == want
    for bounded in (False, True):
        signs = {(m > 0) - (m < 0) for b, m in jump_misses if b == bounded}
        assert {-1, 1} <= signs


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.name)
def test_large_bounds_keep_the_step_short(rule, jump_misses):
    # Minimums far above some states' shares, in a house too large for the
    # oracle; the spy checks the jump's miss, and every seat above a
    # minimum must outrank every withheld seat of a competing state.
    src = SeededSource(67)
    house = 10 ** 6
    for k in range(30):
        pops = _census(states=8, seed=k)
        weights = [src.randbelow(1000) for _ in pops]
        scale = src.randbelow(house) / max(sum(weights), 1)
        bounds = [int(w * scale) for w in weights]
        alloc = divisor_with_bounds(problem(pops, house), rule, bounds)
        assert sum(alloc.seats) == house
        granted, withheld = [], []
        for p, a, b in zip(pops, alloc.seats, bounds):
            if house * p <= b * sum(pops):
                assert a == b
                continue
            if a > b:
                granted.append(oracle_priority(rule.name, p, a - 1))
            withheld.append(oracle_priority(rule.name, p, a))
        assert min(map(_rank, granted)) >= max(map(_rank, withheld))
    assert len(jump_misses) == 30


def test_adams_price_never_falls_after_a_state_is_held(jump_misses):
    # The large state is held at its minimum of 10, leaving 2 seats for
    # nine small states, under half a seat each.  Pricing those alone would
    # give the large state tens of thousands of seats to withdraw.
    pops = (10 ** 6,) + (1,) * 9
    bounds = (10,) + (0,) * 9
    prob = problem(pops, 12)
    assert divisor_with_bounds(prob, RULES["adams"], bounds).seats \
        == bounded_priority_list_apportion(prob, "adams", bounds) \
        == (10, 1, 1) + (0,) * 7
    assert len(jump_misses) == 1


def _census(states=50, seed=61):
    src = SeededSource(seed)
    return [500_000 + src.randbelow(40_000_000) for _ in range(states)]


def _rank(value):
    # Orders priorities with None (a guaranteed seat) above every value.
    return (1, 0) if value is None else (0, value)


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.name)
def test_billion_seat_house_passes_exact_price_test(rule):
    _assert_exact_price(rule, _census())


@pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.name)
def test_huge_populations_pass_exact_price_test(rule):
    # Every population above 2**64, far beyond a float's precision, and no
    # two in a common ratio.
    _assert_exact_price(rule, [p * (2 ** 64 + 1) + i
                               for i, p in enumerate(_census())])


def _assert_exact_price(rule, pops):
    house = 10 ** 9
    alloc = divisor_apportion(problem(pops, house), rule)
    assert sum(alloc.seats) == house
    # Every granted seat outranks every withheld one, and the audit names
    # the worst granted and the best withheld priority.
    granted = [oracle_priority(rule.name, p, a - 1)
               for p, a in zip(pops, alloc.seats) if a]
    withheld = [oracle_priority(rule.name, p, a)
                for p, a in zip(pops, alloc.seats)]
    cut = min(granted, key=_rank)
    best = max(withheld, key=_rank)
    assert _rank(cut) >= _rank(best)
    assert alloc.audit["cut_priority"] == cut
    assert alloc.audit["next_priority"] == best
    bounded = divisor_with_bounds(problem(pops, house), rule, 1)
    assert bounded.seats == alloc.seats


def test_tie_break_population_then_index():
    # Equal priorities: 4/2 = 2/1 under greatest divisors; the larger
    # population wins the contested seat.
    prob = problem((4, 2, 2), 3)
    alloc = divisor_apportion(prob, RULES["jefferson"])
    assert alloc.seats == (2, 1, 0)


# --- exact priority keys ------------------------------------------------------

# Per rule: populations, house and seats where the last seat is decided by
# two priorities that differ by less than a float's precision.  As floats
# they tie, and the tie-break (larger population first) would give the seat
# to the first state; exactly, the second state's priority is larger.  The
# small third state moves the jump's price, so the step decides the seat.
_SMALL = 2 ** 60 // 7
FLOAT_TIES = {
    "adams": ((2 * 2 ** 60 - 1, 2 ** 60, _SMALL), 5, (2, 2, 1)),
    "dean": ((9 * 2 ** 58 - 1, 5 * 2 ** 58, _SMALL), 5, (2, 2, 1)),
    "hill": ((math.isqrt(3 * 2 ** 120 - 1), 2 ** 60, _SMALL), 5, (2, 2, 1)),
    "webster": ((3 * 2 ** 60 - 1, 2 ** 60, _SMALL), 2, (1, 1, 0)),
    "jefferson": ((2 * 2 ** 60 - 1, 2 ** 60, _SMALL), 2, (1, 1, 0)),
}


@pytest.mark.parametrize("name", sorted(FLOAT_TIES))
def test_priorities_equal_as_floats_are_ranked_exactly(name):
    pops, house, want = FLOAT_TIES[name]
    prob = problem(pops, house)
    cut, best = priority_list_cut(prob, name)
    assert cut > best and float(cut) == float(best)
    alloc = divisor_apportion(prob, RULES[name])
    assert alloc.seats == priority_list_apportion(prob, name) == want
    assert (alloc.audit["cut_priority"], alloc.audit["next_priority"]) \
        == (cut, best)
    assert divisor_with_bounds(prob, RULES[name], 0).seats == want


def _webster_unreduced(b):
    # Webster's threshold (2b + 1) / 2, unreduced by a large factor at odd b,
    # so the numerators do not grow with b.
    k = 1 if b % 2 == 0 else 10 ** 6
    return (2 * b + 1) * k, 2 * k


def test_unreduced_thresholds_give_the_same_seats_and_audit():
    webster = RULES["webster"]
    twin = dataclasses.replace(webster, name="webster-unreduced",
                               threshold=_webster_unreduced)
    pops, house, _ = FLOAT_TIES["webster"]
    census = [pop for _label, pop in CENSUS_50]
    for prob, bound in ((problem(pops, house), 0), (problem(census, 435), 1),
                        (problem(census, 10 ** 9), 1)):
        want, got = divisor_apportion(prob, webster), divisor_apportion(prob, twin)
        assert (got.seats, got.audit) == (want.seats, want.audit)
        assert divisor_with_bounds(prob, twin, bound).seats \
            == divisor_with_bounds(prob, webster, bound).seats


def _threshold_priority_list(pops, threshold, house):
    """(seats, cut, next) from the complete list of exact priorities
    p * den / num, ranked as the library ranks them."""
    entries = []
    for i, pop in enumerate(pops):
        for b in range(house + 1):
            num, den = threshold(b)
            value = F(pop * den, num) if num else None
            entries.append(((0, 0) if value is None else (1, -value),
                            -pop, i, value))
    entries.sort()
    seats = [0] * len(pops)
    for entry in entries[:house]:
        seats[entry[2]] += 1
    return tuple(seats), entries[house - 1][3], entries[house][3]


def _webster_nudged(b):
    # b + 1/2 - 10**-9 below five seats and b + 1/2 from there on, so the
    # numerators of the first five thresholds dwarf the later ones.
    return (2 * b + 1, 2) if b >= 5 else ((2 * b + 1) * 10 ** 9 - 2, 2 * 10 ** 9)


def test_numerators_that_shrink_with_seats_keep_keys_exact():
    # At 10 seats the largest state holds 6 seats, so the keys are first
    # scaled for the small numerator of d(6) or above.  The first state's
    # second seat and the second state's third seat differ by about 5e-10,
    # and only keys rescaled for the large early numerators rank them.
    rule = dataclasses.replace(RULES["webster"], name="webster-nudged",
                               threshold=_webster_nudged)
    pops = (3, 5, 12)
    assert _threshold_priority_list(pops, _webster_nudged, 10)[0] == (2, 2, 6)
    for house in range(1, 40):
        seats, cut, best = _threshold_priority_list(pops, _webster_nudged,
                                                    house)
        alloc = divisor_apportion(problem(pops, house), rule)
        assert alloc.seats == seats
        assert (alloc.audit["cut_priority"], alloc.audit["next_priority"]) \
            == (cut, best)


def _fractions_built(call, monkeypatch) -> int:
    """How many Fractions ``call()`` builds."""
    built = 0
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(F, "__new__", counting_new)
        call()
    return built


@pytest.mark.parametrize("call", [*RULES, "hill+bound1"])
def test_fractions_built_per_call_do_not_grow_with_states(call, monkeypatch):
    # The price, the rounding and the step run on integers; only the
    # audit's two priorities are Fractions, and a bounded call has no audit.
    if call == "hill+bound1":
        def apportion(prob):
            return divisor_with_bounds(prob, RULES["hill"], 1)
        want = 0
    else:
        def apportion(prob):
            return divisor_apportion(prob, RULES[call])
        want = 2
    census = [pop for _label, pop in CENSUS_50]
    counts = {(states, house): _fractions_built(
                  lambda: apportion(problem(census[:states], house)),
                  monkeypatch)
              for states in (10, 50) for house in (435, 10 ** 9)}
    assert set(counts.values()) == {want}, counts


@pytest.mark.parametrize("name", ["webster", "hill"])
def test_alabama_scan_builds_no_fraction_per_house(name, monkeypatch):
    census = [pop for _label, pop in CENSUS_50]
    prob = problem(census, 1)
    assert _fractions_built(
        lambda: detect_alabama(prob, name, range(50, 300)), monkeypatch) == 0


def test_bounded_divisor_grants_minimums():
    prob = problem((50, 30, 1), 10)
    alloc = divisor_with_bounds(prob, RULES["hill"], (1, 1, 1))
    assert alloc.seats[2] == 1
    assert sum(alloc.seats) == 10
    assert all(a >= 1 for a in alloc.seats)
    with pytest.raises(InfeasibleError):
        divisor_with_bounds(problem((2, 2), 1), RULES["hill"], (1, 1))


def test_exact_jump_keys_no_seat_for_a_bounded_house():
    # Hill's jump lands exactly on the 435-seat house of CENSUS_50 with a
    # minimum of one seat, so the jump's rounding pass, one threshold per
    # competing state, is the whole cost.  The step used to key every
    # state again for an audit cut that divisor_with_bounds throws away.
    hill = RULES["hill"]
    calls = []

    def counted(b):
        calls.append(b)
        return hill.threshold(b)

    census = [pop for _label, pop in CENSUS_50]
    prob = problem(census, 435)
    seats = divisor_with_bounds(
        prob, dataclasses.replace(hill, threshold=counted), 1).seats
    assert seats == divisor_with_bounds(prob, hill, 1).seats
    assert len(calls) == sum(435 * pop > sum(census) for pop in census)


def test_bounded_divisor_state_at_its_quota_stops_competing():
    # Quotas (1/2, 1/2, 1): the third state's quota equals its minimum, so
    # the seat left goes to the first state, not to the third, although
    # their greatest-divisors priorities tie and the third is larger.
    alloc = divisor_with_bounds(problem((1, 1, 2), 2), RULES["jefferson"],
                                (0, 0, 1))
    assert alloc.seats == (1, 0, 1)


def test_bounded_divisor_reduces_to_plain_with_zero_bounds():
    src = SeededSource(37)
    for _ in range(40):
        pops = [1 + src.randbelow(90) for _ in range(3)]
        prob = problem(pops, 1 + src.randbelow(20))
        assert divisor_with_bounds(prob, RULES["webster"], (0, 0, 0)).seats \
            == divisor_apportion(prob, RULES["webster"]).seats


# --- largest remainders ---------------------------------------------------------

def test_hamilton_examples():
    assert hamilton_apportion(problem((5, 3, 2), 10)).seats == (5, 3, 2)
    assert hamilton_apportion(problem((2, 3), 7)).seats == (3, 4)


def test_hamilton_tie_break():
    # remainders tie at 1/2; the larger population takes the extra seat
    prob = problem((3, 1), 2)
    assert hamilton_apportion(prob).seats == (2, 0)
    # equal everything: earlier state wins
    prob = problem((1, 1), 1)
    assert hamilton_apportion(prob).seats == (1, 0)


def test_hamilton_always_satisfies_quota():
    src = SeededSource(41)
    for _ in range(500):
        s = 1 + src.randbelow(8)
        pops = [1 + src.randbelow(400) for _ in range(s)]
        prob = problem(pops, src.randbelow(40))
        quota = compute_quota(prob)
        alloc = hamilton_apportion(prob)
        assert sum(alloc.seats) == prob.seats
        assert satisfies_quota(alloc, quota)


# Tie-heavy populations (repeated values, small totals, so remainders tie
# across different populations too) or arbitrary ones.
HAMILTON_POPULATIONS = st.lists(
    st.one_of(st.sampled_from(TIE_POPULATIONS), st.integers(1, 10 ** 9)),
    min_size=1, max_size=7)


@given(HAMILTON_POPULATIONS, st.integers(0, 60))
@example([7], 0)
@example([7], 5)
@example([4, 4, 4], 2)
@example([3, 1], 2)
@example([1, 2, 3], 0)
@settings(max_examples=500, deadline=None)
def test_hamilton_matches_largest_remainder_oracle(pops, seats):
    assert hamilton_apportion(problem(pops, seats)).seats \
        == largest_remainders(pops, seats)


# --- quota staying ---------------------------------------------------------------

def _staying_corpus(count=400, seed=43):
    src = SeededSource(seed)
    corpus = []
    for _ in range(count):
        s = 2 + src.randbelow(5)
        pops = [1 + src.randbelow(200) for _ in range(s)]
        corpus.append(problem(pops, s + src.randbelow(25)))
    return corpus


def test_jefferson_stays_above_lower_quota():
    summary = quota_staying_check("jefferson", _staying_corpus())
    assert summary.lower_violations == 0


def test_adams_stays_below_upper_quota():
    summary = quota_staying_check("adams", _staying_corpus())
    assert summary.upper_violations == 0


def test_hamilton_stays_within_quota():
    summary = quota_staying_check("hamilton", _staying_corpus())
    assert summary.lower_violations == 0
    assert summary.upper_violations == 0


def test_jefferson_upper_quota_witness():
    fix = JEFFERSON_UPPER_QUOTA
    prob = problem(fix["populations"], fix["seats"])
    alloc = divisor_apportion(prob, RULES["jefferson"])
    assert alloc.seats == fix["allocation"]
    quota = compute_quota(prob)
    i = fix["violator"]
    assert alloc.seats[i] >= quota.ceilings[i] + 1


# --- paradox detectors ------------------------------------------------------------

def test_alabama_witness_reverifies():
    fix = HAMILTON_ALABAMA
    prob = problem(fix["populations"], fix["house_before"])
    reports = detect_alabama(prob, "hamilton",
                             range(fix["house_before"], fix["house_before"] + 2))
    assert reports
    losers = {rep.witness["state"] for rep in reports}
    assert fix["loser"] in losers
    assert hamilton_apportion(
        problem(fix["populations"], fix["house_before"])).seats \
        == fix["seats_before"]
    assert hamilton_apportion(
        problem(fix["populations"], fix["house_before"] + 1)).seats \
        == fix["seats_after"]


def test_divisor_methods_house_monotone_on_witness():
    fix = HAMILTON_ALABAMA
    prob = problem(fix["populations"], fix["house_before"])
    for rule in ALL_RULES:
        lo = len(fix["populations"]) if rule.first_seat_guaranteed else 1
        assert detect_alabama(prob, rule.name, range(lo, 25)) == []


def test_alabama_single_state_trivial():
    assert detect_alabama(problem((7,), 3), "hamilton", range(1, 10)) == []
    with pytest.raises(InputError):
        detect_alabama(problem((7,), 3), "hamilton", [])
    with pytest.raises(InputError):
        detect_alabama(problem((7,), 3), "hamilton", (r for r in ()))


def _house_set(data):
    """(houses as passed to the scan, the same houses as a list): ranges of
    either sign of step, unsorted lists with duplicates and gaps, and
    one-shot generators; any of them may be empty."""
    kind = data.draw(st.sampled_from(["range", "reversed", "list",
                                      "generator"]))
    if kind in ("range", "reversed"):
        lo, hi = data.draw(st.integers(0, 30)), data.draw(st.integers(0, 45))
        step = data.draw(st.integers(1, 3))
        houses = (range(lo, hi, step) if kind == "range"
                  else range(hi, lo - 1, -step))
        return houses, list(houses)
    values = data.draw(st.lists(st.integers(0, 45), max_size=30))
    return (values if kind == "list" else (r for r in values)), values


@given(HAMILTON_POPULATIONS, st.data())
@settings(max_examples=400, deadline=None)
def test_alabama_matches_oracle(pops, data):
    prob = problem(pops, 1)
    houses, values = _house_set(data)
    if not values:
        with pytest.raises(InputError):
            detect_alabama(prob, "hamilton", houses)
        return
    reports = detect_alabama(prob, "hamilton", houses)
    assert [(rep.witness["house_before"], rep.witness["state"],
             rep.witness["seats_before"], rep.witness["seats_after"])
            for rep in reports] == alabama_witnesses(pops, values)
    for rep in reports:
        w = rep.witness
        assert (rep.kind, rep.method) == ("alabama", "hamilton")
        assert w["house_after"] == w["house_before"] + 1
        assert w["labels"] == list(prob.labels)
        assert w["populations"] == list(pops)
        assert w["label"] == prob.labels[w["state"]]


def _assert_alabama_matches_oracle(pops, houses):
    reports = detect_alabama(problem(pops, 1), "hamilton", houses)
    assert [(rep.witness["house_before"], rep.witness["state"],
             rep.witness["seats_before"], rep.witness["seats_after"])
            for rep in reports] == alabama_witnesses(pops, list(houses))


@given(st.lists(st.integers(1, 2 ** 70), min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(0, 2 ** 40), st.integers(1, 12)),
                min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_alabama_walk_on_lanes_wider_than_64_bits(pops, windows):
    # Twice the total population passes 2**64 for most draws, so the lanes
    # are 128 bits wide and unpacked without ``array``; each window is
    # walked house by house, and the gap between windows re-seeds.
    houses = sorted({lo + j for lo, n in windows for j in range(n)})
    _assert_alabama_matches_oracle(pops, houses)


@given(st.lists(st.sampled_from(TIE_POPULATIONS), min_size=2, max_size=9),
       st.integers(0, 40), st.integers(1, 30))
@example([4, 4, 4], 0, 12)
@example([1, 2, 2, 1], 1, 20)
@settings(max_examples=300, deadline=None)
def test_alabama_walk_breaks_ties_at_the_cut(pops, lo, n):
    # Equal populations keep equal remainders at every house, so equal
    # remainders straddle the cut at most houses (at house 1 of the first
    # example, three remainders of 4 out of 12 compete for one seat).
    _assert_alabama_matches_oracle(pops, range(lo, lo + n))


@given(st.one_of(st.tuples(st.integers(1, 2 ** 70)),
                 st.lists(st.integers(1, 5), min_size=1, max_size=4)),
       st.integers(1, 40))
@example((1,), 1)
@example([2, 3], 11)
@settings(max_examples=200, deadline=None)
def test_alabama_walk_from_house_zero(pops, n):
    # No seat is left after the floors (k = 0) at house 0, at every
    # multiple of the total population, and at every house of a one-state
    # problem.
    _assert_alabama_matches_oracle(pops, range(n))


def test_alabama_runs_a_user_callable_named_hamilton():
    # Not the library's Hamilton: the whole house goes to state r % 2, so
    # every step moves it.  The scan must call it once per house, in order.
    calls = []

    def hamilton(prob):
        calls.append(prob.seats)
        seats = [0, 0]
        seats[prob.seats % 2] = prob.seats
        return Allocation(seats=tuple(seats), method="hamilton")

    reports = detect_alabama(problem((5, 5), 1), hamilton, [4, 2, 3, 2, 6])
    assert calls == [2, 3, 4, 6]
    assert [(rep.method, rep.witness["house_before"], rep.witness["state"],
             rep.witness["seats_before"], rep.witness["seats_after"])
            for rep in reports] == [("hamilton", 2, 0, 2, 0),
                                    ("hamilton", 3, 1, 3, 0)]


def test_alabama_runs_a_user_callable_named_webster():
    # A callable named like a rule is not the rule: the scan calls it once
    # per house, in order, on a Problem of that house.
    calls = []

    def webster(prob):
        calls.append(prob.seats)
        return divisor_apportion(prob, RULES["jefferson"])

    pops = (7, 3, 1)
    assert detect_alabama(problem(pops, 1), webster, range(1, 9)) == []
    assert calls == list(range(1, 9))


@given(st.lists(st.sampled_from(TIE_POPULATIONS), min_size=1, max_size=8),
       st.integers(0, 30), st.integers(1, 30), st.sampled_from(ALL_RULES))
@example([4, 4, 4], 0, 12, RULES["webster"])
@example([2, 1, 2, 1], 2, 20, RULES["jefferson"])
@settings(max_examples=400, deadline=None)
def test_rule_scan_matches_priority_list_house_by_house(pops, lo, n, rule):
    # Equal and proportional populations tie priorities at most houses.  The
    # scan must walk every house to the oracle's seats: the seats it
    # compares are recorded, and its reports match the oracle's.
    prob = problem(pops, 1)
    s = len(pops)
    houses = range(lo, lo + n)
    if rule.first_seat_guaranteed and lo < s:
        with pytest.raises(InfeasibleError, match="grants every state a seat"):
            detect_alabama(prob, rule.name, houses)
        houses = range(s, lo + n)
        if not houses:
            return
    walked = {}
    losers = divisor._losers

    def recording_losers(seats_at, rs):
        def record(r):
            walked[r] = tuple(seats_at(r))
            return walked[r]
        return losers(record, rs)

    with mock.patch.object(divisor, "_losers", recording_losers):
        reports = detect_alabama(prob, rule.name, houses)
    want = {r: priority_list_apportion(problem(pops, r), rule.name)
            for r in houses}
    assert walked == want
    assert [(rep.witness["house_before"], rep.witness["state"],
             rep.witness["seats_before"], rep.witness["seats_after"])
            for rep in reports] == [
        (r, i, want[r][i], want[r + 1][i]) for r in houses[:-1]
        for i in range(s) if want[r + 1][i] < want[r][i]]


@pytest.mark.parametrize("houses", [range(-1, 3), [2, -1], [1, 2.5],
                                    [True, 2]])
@pytest.mark.parametrize("method", ["hamilton", "webster"])
def test_alabama_refuses_bad_house_sizes(houses, method):
    with pytest.raises(InputError, match="seats must be a non-negative"):
        detect_alabama(problem((3, 5), 1), method, houses)


def test_alabama_scan_keeps_only_the_last_house():
    # Equal states never lose a seat, so no report is kept: the scan's peak
    # memory must not grow with its 20,000 houses, at 3 states or at 50.
    for pops in ((1, 1, 1), (7,) * 50):
        prob = problem(pops, 1)
        detect_alabama(prob, "hamilton", range(1, 100))
        tracemalloc.start()
        try:
            assert detect_alabama(prob, "hamilton", range(1, 20_001)) == []
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, pops


@pytest.mark.parametrize("houses", [
    range(0, divisor.ALABAMA_HOUSE_CEILING + 1),
    range(10 ** 30, 0, -1),
    range(5, 5 + 2 * divisor.ALABAMA_HOUSE_CEILING + 2, 2),
    list(range(divisor.ALABAMA_HOUSE_CEILING + 1)),
])
def test_alabama_refuses_more_houses_than_its_ceiling(houses):
    # Such scans used to run for as long as the range asked.  The refusal
    # comes before any house is apportioned.
    calls = []

    def method(prob):
        calls.append(prob.seats)
        return hamilton_apportion(prob)

    for m in ("hamilton", method):
        with pytest.raises(CapacityError, match="at most 1000000 house"):
            detect_alabama(problem((3, 5, 8), 1), m, houses)
    assert calls == []


def test_alabama_walks_as_many_houses_as_its_ceiling():
    class Walked(Exception):
        pass

    def method(prob):
        raise Walked

    houses = range(7, 7 + divisor.ALABAMA_HOUSE_CEILING)
    with pytest.raises(Walked):
        detect_alabama(problem((3, 5), 1), method, houses)


def test_alabama_reads_no_more_of_an_iterable_than_its_ceiling_allows():
    # An iterable used to be listed in full before the ceiling was checked,
    # so an endless generator ran until memory ran out.
    ceiling = divisor.ALABAMA_HOUSE_CEILING
    pulled = 0

    def houses():
        nonlocal pulled
        for r in range(1, ceiling + 3):
            pulled += 1
            yield r

    with pytest.raises(CapacityError, match="the iterable yields more"):
        detect_alabama(problem((3, 5, 8), 1), "hamilton", houses())
    assert pulled == ceiling + 1
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="the iterable yields more"):
        detect_alabama(problem((3, 5, 8), 1), "webster", itertools.count())
    assert time.perf_counter() - start < 10


def test_population_paradox_witness():
    fix = HAMILTON_POPULATION
    before = problem(fix["populations_before"], fix["seats"])
    after = Problem(before.labels, fix["populations_after"], fix["seats"])
    reports = detect_population_paradox(before, after, "hamilton")
    assert any(rep.witness["loser"] == fix["loser"]
               and rep.witness["gainer"] == fix["gainer"] for rep in reports)
    assert detect_population_paradox(before, after, "webster") == []


def test_population_paradox_identity_is_empty():
    prob = problem((8, 5, 2), 6)
    assert detect_population_paradox(prob, prob, "hamilton") == []


def test_population_paradox_input_validation():
    a = problem((8, 5), 6)
    for b, error in [
            (problem((8, 5), 6, labels=("A", "B")),
             "population-paradox check needs identical state lists"),
            (problem((8, 5), 7),
             "population-paradox check needs identical house sizes")]:
        with pytest.raises(InputError) as exc:
            detect_population_paradox(a, b, "hamilton")
        assert str(exc.value) == error


def test_new_state_witness():
    fix = HAMILTON_NEW_STATE
    base = problem(fix["base_populations"], fix["base_seats"])
    assert fair_share_seats(fix["new_population"], base) == fix["extra_seats"]
    extended = Problem(base.labels + ("NEW",),
                       base.populations + (fix["new_population"],),
                       base.seats + fix["extra_seats"])
    reports = detect_new_state_paradox(base, extended, "hamilton")
    assert {rep.witness["state"] for rep in reports} \
        == set(fix["changed_states"])


def test_new_state_trivial_integral_case():
    base = problem((6, 4), 5)          # quotas 3 and 2
    extended = Problem(("S1", "S2", "NEW"), (6, 4, 2), 6)  # fair share 1
    assert detect_new_state_paradox(base, extended, "hamilton") == []


def test_new_state_validation():
    base = problem((6, 4), 5)
    for extended, error in [
            (base, "extended problem must add exactly one state"),
            (problem((6, 5, 2), 6),
             "extended problem must preserve the original states"),
            (Problem(("S1", "S2", "NEW"), (6, 4, 2), 9),
             "extended house must be 6 seats (base plus the new state's "
             "fair share), got 9")]:
        with pytest.raises(InputError) as exc:
            detect_new_state_paradox(base, extended, "hamilton")
        assert str(exc.value) == error


def test_quota_staying_check_refuses_an_empty_corpus():
    with pytest.raises(InputError) as exc:
        quota_staying_check("hamilton", [])
    assert str(exc.value) == "empty corpus"


def test_resolve_method():
    name, fn = resolve_method("hamilton")
    assert name == "hamilton" and fn is hamilton_apportion
    name, fn = resolve_method("webster")
    assert fn(problem((5, 3, 2), 10)).seats == (5, 3, 2)
    with pytest.raises(InputError):
        resolve_method("dhondt")


def test_new_state_jefferson_recorded_not_asserted():
    # Whether greatest-divisors exhibits the new-state effect on a random
    # corpus is recorded for inspection, not asserted either way.
    src = SeededSource(53)
    found = 0
    for _ in range(60):
        s = 2 + src.randbelow(4)
        pops = tuple(1 + src.randbelow(30) for _ in range(s))
        base = problem(pops, 2 + src.randbelow(15))
        new_pop = 1 + src.randbelow(30)
        extra = fair_share_seats(new_pop, base)
        extended = Problem(base.labels + ("NEW",),
                           base.populations + (new_pop,),
                           base.seats + extra)
        found += bool(detect_new_state_paradox(base, extended, "jefferson"))
    print(f"jefferson new-state reports on {found}/60 corpus instances")


# --- bias ordering: reported, not asserted ---------------------------------

def test_threshold_order_bias_report():
    # Methods ordered by threshold should tend to hand the largest state
    # weakly more seats as the threshold grows.  The tendency is recorded
    # for inspection; only the computation itself is asserted.
    order = ["adams", "dean", "hill", "webster", "jefferson"]
    src = SeededSource(47)
    agree = total = 0
    for _ in range(150):
        s = 2 + src.randbelow(4)
        pops = [1 + src.randbelow(300) for _ in range(s)]
        seats = s + src.randbelow(25)
        prob = problem(pops, seats)
        big = max(range(s), key=lambda i: pops[i])
        seats_by_rule = [divisor_apportion(prob, RULES[name]).seats[big]
                         for name in order]
        total += 1
        if all(a <= b for a, b in zip(seats_by_rule, seats_by_rule[1:])):
            agree += 1
    print(f"largest-state monotone across rules on {agree}/{total} instances")
    assert total == 150
