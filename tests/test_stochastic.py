import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seatlot import (CapacityError, InputError, SeededSource, _backend,
                     stochastic,
                     compute_quota, problem, quota_vector, satisfies_quota)
from seatlot.lowerbound import iterate_lower_bound, lower_bound_distribution
from seatlot.rng import U53_DENOMINATOR
from seatlot.stochastic import (AllocationDistribution,
                                conditional_sampling_allocate,
                                conditional_selection_law, exact_distribution,
                                random_permutation, residual_distribution,
                                stochastic_apportion, systematic_round)

from fixtures import CENSUS_50, CONDITIONAL_UNFAIR
from oracles import (fixed_order_distribution, full_permutation_distribution,
                     indicators_at)


# --- systematic rounding -------------------------------------------------

def test_round_hand_examples():
    assert systematic_round([F(1, 2), F(1, 2)], F(1, 4)) == [0, 1]
    assert systematic_round([F(1, 2), F(1, 2)], F(3, 5)) == [1, 0]
    assert systematic_round([F(0), F(0), F(0)], F(1, 3)) == [0, 0, 0]


@pytest.mark.parametrize("u", ["x", None, float("nan"), "1/0", [0]],
                         ids=repr)
def test_round_refuses_an_offset_that_is_no_rational(u):
    # systematic_round([1/2, 1/2], "x") raised ValueError from Fraction(u).
    with pytest.raises(InputError, match="^offset must be a finite rational"):
        systematic_round([F(1, 2), F(1, 2)], u)


def test_round_rejects_bad_input():
    with pytest.raises(InputError):
        systematic_round([F(1, 2)], F(0))       # total not an integer
    with pytest.raises(InputError):
        systematic_round([F(3, 2), F(1, 2)], F(0))  # entry outside [0, 1)
    with pytest.raises(InputError):
        systematic_round([F(1, 2), F(1, 2)], F(3, 2))  # offset outside [0, 1)


@st.composite
def fractional_vectors(draw, max_states=8, max_den=40):
    s = draw(st.integers(min_value=1, max_value=max_states))
    den = draw(st.integers(min_value=1, max_value=max_den))
    nums = [draw(st.integers(min_value=0, max_value=den - 1))
            for _ in range(s - 1)]
    nums.append((-sum(nums)) % den)
    return [F(n, den) for n in nums]


@given(fractional_vectors(), st.data())
@settings(max_examples=200, deadline=None)
def test_round_sums_to_residual_and_matches_definition(fracs, data):
    u_den = data.draw(st.integers(min_value=1, max_value=997))
    u = F(data.draw(st.integers(min_value=0, max_value=u_den - 1)), u_den)
    out = systematic_round(fracs, u)
    assert sum(out) == sum(fracs)
    assert tuple(out) == indicators_at(u, fracs)


@given(fractional_vectors(), st.integers(min_value=0,
                                         max_value=U53_DENOMINATOR - 1))
@settings(max_examples=200, deadline=None)
def test_grid_fast_path_equals_exact_offset(fracs, u53):
    # The sampling path maps a dyadic offset onto the common-denominator
    # grid; rounding there must equal rounding at the exact rational
    # offset, as the library-free oracle and systematic_round compute it.
    from seatlot import _kernels_py
    integer = quota_vector(fracs)
    nums, den = integer.nums, integer.den
    pos = _kernels_py.position_from_bits53(u53, den)
    fast = list(_kernels_py.systematic_flags(nums, den, pos,
                                             range(len(nums))))
    u = F(u53, U53_DENOMINATOR)
    assert tuple(fast) == indicators_at(u, fracs)
    assert fast == systematic_round(fracs, u)


def _mask_by_shifts(frac_nums, den, u_num, order):
    """The winner mask as the rounding loop built it one state at a time,
    ``mask |= 1 << i``."""
    r = u_num - den if u_num else 0
    mask = 0
    for i in order:
        r += frac_nums[i]
        if r > 0:
            r -= den
            mask |= 1 << i
    return mask


STATE_COUNTS = st.one_of(st.integers(1, 200),
                         st.integers(1, 25).map(lambda k: 8 * k))


@given(STATE_COUNTS, st.data())
@settings(max_examples=200, deadline=None)
def test_flags_mask_equals_the_shifted_mask(s, data):
    from seatlot import _kernels_py
    den = data.draw(st.integers(1, 50))
    nums = data.draw(st.lists(st.integers(0, den - 1), min_size=s,
                              max_size=s))
    u_num = data.draw(st.integers(0, den))
    order = data.draw(st.permutations(range(s)))
    flags = _kernels_py.systematic_flags(nums, den, u_num, order)
    assert len(flags) == s
    assert (_kernels_py.flags_mask(flags)
            == _mask_by_shifts(nums, den, u_num, order))


@given(STATE_COUNTS, st.data())
@settings(max_examples=200, deadline=None)
def test_seats_from_mask_adds_each_bit(s, data):
    floors = data.draw(st.lists(st.integers(0, 2 ** 70), min_size=s,
                                max_size=s))
    mask = data.draw(st.integers(0, (1 << s) - 1))
    assert stochastic._seats_from_mask(floors, mask) == tuple(
        f + (mask >> i & 1) for i, f in enumerate(floors))


# --- permutations ---------------------------------------------------------

def test_permutation_basics():
    assert random_permutation(1, SeededSource(5)) == (0,)
    p1 = random_permutation(6, SeededSource(5))
    p2 = random_permutation(6, SeededSource(5))
    assert p1 == p2
    assert sorted(p1) == list(range(6))
    with pytest.raises(InputError):
        random_permutation(0, SeededSource(5))


@pytest.mark.parametrize("n", [True, False, 2.0])
def test_permutation_refuses_non_integer_length(n):
    # random_permutation(True, src) used to return (0,).
    with pytest.raises(InputError, match="permutation length"):
        random_permutation(n, SeededSource(5))


# --- full scheme ----------------------------------------------------------

def test_apportion_replayable_from_audit():
    prob = problem((13, 8, 21, 3, 55), 17)
    alloc = stochastic_apportion(prob, SeededSource(404))
    quota = compute_quota(prob)
    order = alloc.audit["permutation"]
    u = F(alloc.audit["u_numerator"], alloc.audit["u_denominator"])
    inds = systematic_round([quota.fractional[i] for i in order], u)
    replay = list(quota.floors)
    for k, i in enumerate(order):
        replay[i] += inds[k]
    assert tuple(replay) == alloc.seats


def test_apportion_always_satisfies_quota():
    src = SeededSource(8)
    for _ in range(300):
        s = 1 + src.randbelow(12)
        pops = [1 + src.randbelow(500) for _ in range(s)]
        seats = src.randbelow(60)
        prob = problem(pops, seats)
        alloc = stochastic_apportion(prob, src.child(src.randbelow(1000)))
        quota = compute_quota(prob)
        assert sum(alloc.seats) == seats
        assert satisfies_quota(alloc, quota)


def test_apportion_integral_quotas_deterministic():
    prob = problem((5, 3, 2), 10)
    for seed in range(25):
        assert stochastic_apportion(prob, SeededSource(seed)).seats == (5, 3, 2)


def test_apportion_small_support():
    prob = problem((1, 1, 7), 3)
    seen = set()
    for seed in range(200):
        seen.add(stochastic_apportion(prob, SeededSource(seed)).seats)
    assert seen <= {(1, 0, 2), (0, 1, 2), (0, 0, 3)}
    assert len(seen) == 3


# --- exact law ------------------------------------------------------------

def test_exact_distribution_examples():
    law = exact_distribution(problem((1, 1, 7), 3))
    assert law.probability((0, 0, 3)) == F(1, 3)
    assert law.marginal_mean(2) == F(7, 3)
    law2 = exact_distribution(problem((2, 3), 7))
    assert law2.probability((3, 4)) == F(4, 5)
    assert law2.probability((2, 5)) == F(1, 5)
    law3 = exact_distribution(problem((5, 3, 2), 10))
    assert law3.probabilities == {(5, 3, 2): F(1)}


def test_residual_distribution_half_half():
    law = residual_distribution([F(1, 2), F(1, 2)])
    assert law.probabilities == {(1, 0): F(1, 2), (0, 1): F(1, 2)}


@pytest.mark.parametrize("fracs, error", [
    ([F(1, 2)], "fractional quotas must sum to an integer, got 1/2"),
    ([F(1, 2), F(1, 4)], "fractional quotas must sum to an integer, got 3/4"),
    ([F(3, 2), F(-1, 2)], "fractional quotas must lie in [0, 1), got 3/2"),
    ([F(1, 2), F(-1, 2), F(3, 2)],
     "fractional quotas must lie in [0, 1), got -1/2"),
    ([F(1), F(0)], "fractional quotas must lie in [0, 1), got 1"),
])
def test_residual_distribution_refuses_as_systematic_round(fracs, error):
    # The law reads its checks off the quota vector; the texts are those
    # of systematic_round's own check, first offending entry first.
    for call in (lambda: residual_distribution(fracs),
                 lambda: systematic_round(fracs, F(0))):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == error


def test_exact_distribution_capacity(monkeypatch):
    with pytest.raises(CapacityError):
        exact_distribution(problem((1,) * 9, 3))
    exact_distribution(problem((1,) * 9, 3), limit=9)

    # No limit lifts the state count past the ceiling, and the refusal
    # comes before any kernel runs.
    def kernel(*args):
        raise AssertionError("kernel called past the ceiling")

    monkeypatch.setattr(_backend, "averaged_mask_lengths", kernel)
    for s in (11, 30):
        with pytest.raises(CapacityError):
            exact_distribution(problem((1,) * s, 3), limit=s)
        with pytest.raises(CapacityError):
            lower_bound_distribution(problem((1,) * s, s), (1,) * s, limit=s)
        with pytest.raises(CapacityError):
            residual_distribution([F(1, 2)] * 2 + [F(0)] * (s - 2), limit=s)


@pytest.mark.parametrize("limit", [0, -3, True, 2.5], ids=repr)
def test_enumeration_limit_must_be_a_positive_integer(limit):
    prob = problem((1, 2, 3), 2)
    calls = (lambda: exact_distribution(prob, limit=limit),
             lambda: lower_bound_distribution(prob, (0, 1, 0), limit=limit),
             lambda: residual_distribution([F(1, 2)] * 2, limit=limit),
             lambda: residual_distribution([F(1, 2)] * 2, limit=limit,
                                           average_orders=False))
    for call in calls:
        with pytest.raises(InputError,
                           match=f"limit must be a positive integer, "
                                 f"got {limit!r}"):
            call()


def test_distribution_validates():
    with pytest.raises(InputError):
        AllocationDistribution({(1,): F(1, 2)})
    with pytest.raises(InputError):
        AllocationDistribution({(1,): F(1, 2), (0,): F(-1, 2)})


def test_distribution_refuses_support_vectors_of_unequal_length():
    # The law was accepted, and its marginal_means() was (3/2,), read off
    # the first state alone.
    for law in ({(1,): F(1, 2), (2, 3): F(1, 2)},
                {(0, 1): F(1, 3), (1,): F(1, 3), (0, 0): F(1, 3)}):
        with pytest.raises(InputError, match="support vectors differ in "
                                             "length"):
            AllocationDistribution(law)


@pytest.mark.parametrize("law, error", [
    # Accepted: the law's masses were no longer exact.
    ({(1,): 1.0}, "probabilities must be exact rationals"),
    ({(1,): F(1, 2), (0,): 0.5}, "probabilities must be exact rationals"),
    ({(1,): True}, "probabilities must be exact rationals"),
    # TypeError from <= and from len().
    ({(1,): "x"}, "probabilities must be exact rationals"),
    ({1: F(1)}, "support vectors must be tuples of seat counts"),
    ({(1,): F(1, 2), 2: F(1, 2)}, "support vectors must be tuples"),
    # Accepted; marginal_means() then raised TypeError.
    ({("a",): F(1)}, "seat count must be a non-negative integer"),
    ({(1.0,): F(1)}, "seat count must be a non-negative integer"),
    ({(-1,): F(1)}, "seat count must be a non-negative integer")])
def test_distribution_refuses_inexact_masses_and_non_seat_keys(law, error):
    with pytest.raises(InputError, match=f"^{error}"):
        AllocationDistribution(law)


def test_distribution_takes_integer_and_fraction_masses():
    law = AllocationDistribution({(0, 2): F(1, 2), (1, 1): F(1, 2)})
    assert law.marginal_means() == (F(1, 2), F(3, 2))
    assert AllocationDistribution({(3,): 1}).marginal_means() == (3,)


def test_distribution_refuses_an_empty_law():
    # An empty mapping was accepted, and its marginal_means() then raised
    # StopIteration.
    with pytest.raises(InputError) as exc:
        AllocationDistribution({})
    assert str(exc.value) == "probabilities must sum to 1, got 0"


@given(fractional_vectors(max_states=5, max_den=12))
@settings(max_examples=60, deadline=None)
def test_rotation_classes_equal_full_enumeration(fracs):
    # The library enumerates orderings with the last state pinned; the
    # oracle evaluates midpoints of all s! orderings.  Laws must be equal.
    law = residual_distribution(fracs)
    oracle = full_permutation_distribution(fracs)
    assert law.probabilities == oracle


def closed(nums, den):
    """The fractions nums/den and one more that brings their total to an
    integer."""
    return [F(n, den) for n in nums + [-sum(nums) % den]]


BIG_DEN = 2 ** 64 + 13


@pytest.mark.parametrize("fracs", [
    pytest.param([], id="0-states"),
    pytest.param([F(0)], id="1-state"),
    pytest.param([F(1, 2), F(1, 2)], id="2-states"),
    pytest.param([F(1, 3), F(0), F(2, 3)], id="3-with-a-zero"),
    pytest.param([F(1, 4)] * 4, id="4-ties"),
    pytest.param(closed([5, BIG_DEN // 3, 0, 2 * BIG_DEN // 5], BIG_DEN),
                 id="5-den-above-2**64"),
    pytest.param([F(1, 3)] * 6, id="6-ties"),
    pytest.param(closed([1, BIG_DEN // 3, 0, BIG_DEN // 3, 4 * BIG_DEN // 7,
                         0], BIG_DEN), id="7-den-above-2**64"),
    pytest.param([F(1, 4), F(0), F(1, 2), F(1, 4), F(1, 2), F(0), F(3, 4),
                  F(3, 4)], id="8-zeros-and-ties")])
def test_integer_masses_read_as_the_oracle_law(fracs):
    # The law holds integer masses over one denominator, reduced by their
    # gcd and sorted by support vector; its Fraction view is the oracle's
    # law, and rebuilding the law from the view gives it back.
    law = residual_distribution(fracs)
    oracle = full_permutation_distribution(fracs)
    assert dict(law.items()) == law.probabilities == oracle
    assert sum(law.masses.values()) == law.total
    assert math.gcd(law.total, *law.masses.values()) == 1
    assert list(law.masses) == sorted(oracle)
    assert AllocationDistribution(law.probabilities) == law


def test_laws_over_different_denominators_compare_equal():
    # The kernel counts (1, 1, 7) at 3 seats over 3 * 2! = 6; a law built
    # from Fractions, or from masses seven times as large, is the same law.
    law = exact_distribution(problem((1, 1, 7), 3))
    scaled = AllocationDistribution._of(
        {seats: 7 * m for seats, m in law.masses.items()})
    fractions = AllocationDistribution(
        {(0, 0, 3): F(1, 3), (0, 1, 2): F(1, 3), (1, 0, 2): F(1, 3)})
    assert law == scaled == fractions
    assert (scaled.masses, scaled.total) == (law.masses, law.total) == (
        {(0, 0, 3): 1, (0, 1, 2): 1, (1, 0, 2): 1}, 3)
    assert law != AllocationDistribution({(0, 0, 3): 1})
    assert law != law.probabilities


def census_orderings():
    """(ordered fractional parts, floors, quota, bounds, order) of CENSUS_50
    at 435 seats under three seeded orderings, unbounded and with the
    composite quota of bound 1."""
    prob = problem([p for _, p in CENSUS_50], 435)
    quota = compute_quota(prob)
    composite = quota_vector(
        iterate_lower_bound(quota, (1,) * prob.size, 435).final_quota)
    for bound, scheme in ((0, quota), (1, composite)):
        for seed in (1, 2, 3):
            order = random_permutation(prob.size, SeededSource(seed))
            yield pytest.param(
                [scheme.fractional[i] for i in order], scheme.floors, quota,
                (bound,) * prob.size, order, id=f"bound{bound}-seed{seed}")


def check_fixed_order_law(fracs):
    law = residual_distribution(fracs, average_orders=False)
    assert law.probabilities == fixed_order_distribution(fracs)
    # Fairness needs no shuffle: marginals equal the fractions exactly.
    assert law.marginal_means() == tuple(fracs)
    return law


# The fixed order is swept as one tail; the examples hold 0, 2 and 3
# states with a positive fraction, with zeros and tied breakpoints.
@given(fractional_vectors(max_states=6, max_den=18))
@example([F(0)])
@example([F(0), F(0)])
@example([F(1, 3), F(0), F(2, 3), F(0)])
@example([F(1, 2), F(1, 4), F(1, 4)])
@example([F(0), F(1, 3), F(1, 3), F(1, 3)])
@settings(max_examples=60, deadline=None)
def test_fixed_order_law_matches_oracle_and_is_fair(fracs):
    check_fixed_order_law(fracs)


@pytest.mark.parametrize("fracs, floors, quota, bounds, order",
                         census_orderings())
def test_fixed_order_law_matches_oracle_at_census_scale(fracs, floors, quota,
                                                        bounds, order):
    # The fixed-order law has at most s + 1 cells, so no state cap applies.
    law = check_fixed_order_law(fracs)
    assert 1 < len(law) <= len(fracs) + 1
    for residual in law.support():
        seats = list(floors)
        for k, i in enumerate(order):
            seats[i] += residual[k]
        assert sum(seats) == 435
        assert satisfies_quota(seats, quota)
        assert all(a >= b for a, b in zip(seats, bounds))


def test_exact_marginals_equal_quota_random_instances():
    src = SeededSource(31337)
    for _ in range(40):
        s = 1 + src.randbelow(6)
        pops = [1 + src.randbelow(100) for _ in range(s)]
        seats = src.randbelow(30)
        prob = problem(pops, seats)
        law = exact_distribution(prob)
        quota = compute_quota(prob)
        assert law.marginal_means() == quota.quotas
        for seats_vec in law.support():
            assert sum(seats_vec) == seats
            assert satisfies_quota(seats_vec, quota)


def test_marginal_law():
    law = exact_distribution(problem((1, 1, 7), 3))
    assert law.marginal_law(2) == {2: F(2, 3), 3: F(1, 3)}


@pytest.mark.parametrize("state", [3, 5, -1, 1.0, True, None])
def test_marginals_refuse_a_state_outside_the_law(state):
    # marginal_law(5) and marginal_mean(5) raised IndexError.
    law = exact_distribution(problem((1, 1, 7), 3))
    for marginal in (law.marginal_law, law.marginal_mean):
        with pytest.raises(InputError, match="^state index must be"):
            marginal(state)


# --- conditional sampling counterexample ----------------------------------

def test_conditional_single_pick_is_plain_categorical():
    fracs = [F(1, 2), F(1, 4), F(1, 4)]
    counts = [0, 0, 0]
    n = 20_000
    master = SeededSource(55)
    for k in range(n):
        out = conditional_sampling_allocate(fracs, 1, master.child(k))
        counts[out.index(1)] += 1
    for i, f in enumerate(fracs):
        sigma = math.sqrt(n * f * (1 - f))
        assert abs(counts[i] - n * f) <= 4 * sigma


def test_conditional_forced_full_selection():
    out = conditional_sampling_allocate([F(1, 2), F(1, 2)], 2, SeededSource(9))
    assert out == [1, 1]


def test_conditional_skips_zero_fraction_states():
    out = conditional_sampling_allocate([F(0), F(1, 2), F(1, 2)], 2,
                                        SeededSource(10))
    assert out == [0, 1, 1]
    with pytest.raises(InputError):
        conditional_sampling_allocate([F(0), F(1, 2), F(1, 2)], 3,
                                      SeededSource(10))


def test_conditional_weights_keyed_on_validated_fractions():
    # 0.5+0j hashes and compares equal to 1/2 but is no rational; a valid
    # call on [1/2, 1/2] just before must not let it through.
    half = [F(1, 2), F(1, 2)]
    assert conditional_sampling_allocate(half, 2, SeededSource(9)) == [1, 1]
    with pytest.raises(InputError, match="exact rational"):
        conditional_sampling_allocate([0.5 + 0j, 0.5], 2, SeededSource(9))
    # the weights are numerators over the quota vector's denominator, the
    # lcm of the denominators; they need not lie in [0, 1), but a negative
    # one is refused by the quota vector
    assert stochastic._conditional_weights(
        (F(0), F(1, 2), F(1, 3), F(7, 6)), 1) == ((1, 2, 3), (3, 2, 7), 12)
    for sampler in (
            lambda fracs: conditional_sampling_allocate(fracs, 1,
                                                        SeededSource(9)),
            lambda fracs: conditional_selection_law(fracs, 1)):
        with pytest.raises(InputError) as exc:
            sampler([F(1, 2), F(-1, 3), F(5, 6)])
        assert str(exc.value) == "quota values must be non-negative, got -1/3"


def test_conditional_law_fixture():
    fix = CONDITIONAL_UNFAIR
    law = conditional_selection_law(fix["fractional"], fix["residual"])
    assert law == fix["selection_law"]
    # the drift away from the fractional quotas is macroscopic
    gaps = [abs(a - b) for a, b in zip(law, fix["fractional"])]
    assert max(gaps) > F(1, 1000)


def test_conditional_samplers_at_residual_zero_pick_no_state():
    fracs = [F(1, 2), F(1, 2), F(0)]
    assert conditional_sampling_allocate(fracs, 0, SeededSource(9)) \
        == [0, 0, 0]
    assert conditional_selection_law(fracs, 0) == (0, 0, 0)


def test_conditional_law_refuses_more_tuples_than_its_cap():
    # 5 * 4 = 20 ordered pairs of distinct states.
    with pytest.raises(CapacityError, match="^too many ordered tuples"):
        conditional_selection_law([F(2, 5)] * 5, 2, max_tuples=19)


def test_conditional_samplers_refuse_negative_fractions():
    # A negative fraction used to be dropped from the support silently.
    fracs = ["-1/2", "3/2"]
    with pytest.raises(InputError, match="-1/2"):
        conditional_sampling_allocate(fracs, 1, SeededSource(1))
    with pytest.raises(InputError, match="-1/2"):
        conditional_selection_law(fracs, 1)


@pytest.mark.parametrize("residual", [-1, 3])
def test_conditional_law_refuses_an_impossible_residual(residual):
    # Two of the three states have a positive fraction.
    with pytest.raises(InputError) as exc:
        conditional_selection_law([F(1, 2), F(0), F(1, 2)], residual)
    assert str(exc.value) == (f"cannot pick {residual} distinct states from 2 "
                              "with positive fraction")


def test_conditional_retry_cap_raises():
    from seatlot.errors import ConvergenceError

    # The first tuple drawn from seed 3 repeats a state.
    with pytest.raises(ConvergenceError, match="in 1 attempts"):
        conditional_sampling_allocate([F(1, 2), F(1, 4), F(1, 4)], 2,
                                      SeededSource(3), max_attempts=1)


@pytest.mark.parametrize("residual", [1.5, True])
def test_conditional_samplers_refuse_a_residual_that_is_no_count(residual):
    # 1.5 raised TypeError from math.perm, and True was read as 1.
    with pytest.raises(InputError, match=f"residual must be a non-negative "
                       f"integer, got {residual}"):
        conditional_selection_law([F(1, 2), F(1, 2)], residual)
    with pytest.raises(InputError, match=f"residual must be a non-negative "
                       f"integer, got {residual}"):
        conditional_sampling_allocate([F(1, 2), F(1, 2)], residual,
                                      SeededSource(1))


@pytest.mark.parametrize("budget", [0, 2.5, "x"])
def test_conditional_sampler_refuses_an_attempt_budget_that_is_no_count(
        budget):
    # 2.5 raised TypeError from range(); 0 drew nothing and reported that
    # no tuple was found.
    with pytest.raises(InputError, match="max_attempts must be a positive "
                       "integer"):
        conditional_sampling_allocate([F(1, 2), F(1, 2)], 1, SeededSource(1),
                                      max_attempts=budget)


@pytest.mark.parametrize("budget", [0, 2.5, "x"])
def test_conditional_law_refuses_a_tuple_budget_that_is_no_count(budget):
    # "x" raised TypeError from the comparison with math.perm.
    with pytest.raises(InputError, match="max_tuples must be a positive "
                       "integer"):
        conditional_selection_law([F(1, 2), F(1, 2)], 1, max_tuples=budget)


def test_single_residual_seat_law_is_categorical():
    # With one residual seat the only fair quota-satisfying law is the
    # categorical one: state i wins with probability equal to its fraction.
    src = SeededSource(71)
    for _ in range(30):
        s = 2 + src.randbelow(5)
        den = 2 + src.randbelow(30)
        nums = [src.randbelow(den) for _ in range(s - 1)]
        # pad to a total of exactly one residual seat
        total = sum(nums) % den
        nums.append((den - total) % den)
        if sum(nums) != den:
            continue
        fracs = [F(x, den) for x in nums]
        law = residual_distribution(fracs)
        expected = {}
        for i, f in enumerate(fracs):
            if f:
                key = tuple(1 if j == i else 0 for j in range(s))
                expected[key] = f
        assert law.probabilities == expected


def test_conditional_law_matches_product_enumeration():
    import itertools

    fracs = [F(3, 10), F(9, 10), F(4, 5)]
    residual = 2
    law = conditional_selection_law(fracs, residual)
    support = range(len(fracs))
    total = F(0)
    per_state = [F(0)] * len(fracs)
    for combo in itertools.product(support, repeat=residual):
        if len(set(combo)) != residual:
            continue
        w = F(1)
        for i in combo:
            w *= fracs[i]
        total += w
        for i in set(combo):
            per_state[i] += w
    assert law == tuple(p / total for p in per_state)
