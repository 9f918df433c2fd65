import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seatlot import (InputError, Problem, compute_quota,
                     feasible_with_lower_bound, problem, quota_vector,
                     satisfies_quota)
from seatlot.core import (Allocation, QuotaVector, as_fraction,
                          broadcast_lower_bound)

from oracles import quota_bound_feasible


def test_quota_simple_example():
    q = compute_quota(problem((1, 1, 7), 3))
    assert q.quotas == (F(1, 3), F(1, 3), F(7, 3))
    assert q.floors == (0, 0, 2)
    assert q.residual_seats == 1
    assert q.unsatisfied_count == 3
    assert q.ceilings == (1, 1, 3)


def test_quota_integral():
    q = compute_quota(problem((5, 3, 2), 10))
    assert q.quotas == (F(5), F(3), F(2))
    assert q.residual_seats == 0
    assert q.unsatisfied_count == 0


def test_quota_two_state():
    q = compute_quota(problem((2, 3), 7))
    assert q.quotas == (F(14, 5), F(21, 5))
    assert q.fractional == (F(4, 5), F(1, 5))
    assert q.residual_seats == 1


def test_zero_seats_allowed():
    q = compute_quota(problem((3, 4), 0))
    assert q.quotas == (F(0), F(0))
    assert q.residual_seats == 0


populations = st.lists(st.integers(min_value=1, max_value=10 ** 6),
                       min_size=1, max_size=12)


@given(populations, st.integers(min_value=0, max_value=2000))
@settings(max_examples=200, deadline=None)
def test_quota_invariants(pops, seats):
    prob = problem(pops, seats)
    q = compute_quota(prob)
    # The integer form: floors plus numerators over the least common
    # denominator of the fractional parts.
    floors, nums, den = q.floors, q.nums, q.den
    assert q.quotas == tuple(F(seats * p, sum(pops)) for p in pops)
    assert q.quotas == tuple(f + F(n, den) for f, n in zip(floors, nums))
    assert all(0 <= n < den for n in nums)
    assert math.gcd(den, *nums) == 1
    assert sum(q.quotas) == seats
    assert all(0 <= f < 1 for f in q.fractional)
    assert sum(q.fractional) == q.residual_seats
    assert 0 <= q.residual_seats <= q.unsatisfied_count


@given(st.lists(st.fractions(min_value=0, max_value=50, max_denominator=60),
                min_size=1, max_size=10))
@settings(max_examples=300, deadline=None)
def test_quota_vector_matches_fraction_arithmetic(values):
    # Raw tables, including ones whose total is not an integer.
    q = quota_vector(values)
    floors = tuple(math.floor(v) for v in values)
    fractional = tuple(v - f for v, f in zip(values, floors))
    total = sum(fractional, F(0))
    assert q.quotas == tuple(values)
    assert q.floors == floors
    assert q.fractional == fractional
    assert q.ceilings == tuple(math.ceil(v) for v in values)
    assert q.residual_seats == (total.numerator if total.denominator == 1
                                else -1)
    assert q.unsatisfied_count == sum(1 for f in fractional if f)
    assert all(0 <= n < q.den for n in q.nums)
    assert q.den == math.lcm(*(f.denominator for f in fractional))
    assert q.quotas is q.quotas     # built once, then cached


@given(populations, st.integers(min_value=0, max_value=2000))
@settings(max_examples=100, deadline=None)
def test_quota_vector_round_trips_problem_quotas(pops, seats):
    q = compute_quota(problem(pops, seats))
    assert quota_vector(q.quotas) == q


def test_problem_validation():
    with pytest.raises(InputError):
        Problem(("A", "A"), (1, 2), 3)          # duplicate labels
    with pytest.raises(InputError):
        Problem(("A",), (0,), 3)                # zero population
    with pytest.raises(InputError):
        Problem(("A",), (1,), -1)               # negative seats
    with pytest.raises(InputError):
        Problem((), (), 3)                      # no states
    with pytest.raises(InputError):
        Problem(("A", "B"), (1,), 3)            # length mismatch


def test_seats_refuse_bools():
    # Populations and bounds refuse bools; True would otherwise pass as 1.
    with pytest.raises(InputError, match="True"):
        Problem(("a", "b"), (1, 2), True)
    with pytest.raises(InputError, match="False"):
        problem((1, 2), False)


def test_allocation_validation():
    with pytest.raises(InputError):
        Allocation(seats=(1, -1), method="x")


@pytest.mark.parametrize("seats", [(True, 2), (0, False), (1, 2.0)])
def test_allocation_refuses_non_integer_seats(seats):
    # A bool used to pass as 1: Allocation(seats=(True, 2)).total was 3.
    with pytest.raises(InputError, match="seat count must be"):
        Allocation(seats=seats, method="x")


def test_satisfies_quota_examples():
    q = compute_quota(problem((1, 1, 7), 3))
    assert satisfies_quota((0, 1, 2), q)
    assert not satisfies_quota((1, 1, 1), q)    # state 3 below lower quota
    qi = compute_quota(problem((5, 3, 2), 10))
    assert satisfies_quota((5, 3, 2), qi)
    with pytest.raises(InputError):
        satisfies_quota((1, 2), q)


def test_satisfies_quota_monotone_closure():
    # Anything componentwise between floors and ceilings passes; with
    # residual seats that means floors plus any 0/1 bump vector.
    q = compute_quota(problem((3, 4, 5, 7), 9))
    for bumps in itertools.product((0, 1), repeat=4):
        seats = tuple(f + b for f, b in zip(q.floors, bumps))
        assert satisfies_quota(seats, q)


def test_feasible_examples():
    q = compute_quota(problem((1, 1, 7), 3))
    assert not feasible_with_lower_bound(q, (1, 1, 1), 3)
    assert feasible_with_lower_bound(q, (0, 0, 0), 3)
    # quotas 0.5 / 2.5 / 5.0: forced floors are 1 + 2 + 5 = 8 <= 8
    q2 = compute_quota(problem((1, 5, 10), 8))
    assert q2.quotas == (F(1, 2), F(5, 2), F(5))
    assert feasible_with_lower_bound(q2, (1, 1, 1), 8)


def test_feasible_all_zero_bounds_always_true():
    for pops in [(1,), (3, 9), (2, 2, 5, 8)]:
        for seats in range(0, 9):
            q = compute_quota(problem(pops, seats))
            assert feasible_with_lower_bound(q, (0,) * len(pops), seats)


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1,
                max_size=4),
       st.integers(min_value=0, max_value=8),
       st.data())
@settings(max_examples=300, deadline=None)
def test_feasible_matches_brute_force(pops, seats, data):
    bounds = data.draw(st.lists(
        st.integers(min_value=0, max_value=3),
        min_size=len(pops), max_size=len(pops)))
    prob = problem(pops, seats)
    q = compute_quota(prob)
    assert (feasible_with_lower_bound(q, bounds, seats)
            == quota_bound_feasible(prob, bounds))


def test_quota_vector_from_raw_values():
    q = quota_vector(["43.038", F(1, 2)])
    assert q.quotas == (F("43.038"), F(1, 2))
    assert q.floors == (43, 0)
    with pytest.raises(InputError):
        quota_vector([-1])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "3/0", None],
                         ids=repr)
def test_values_that_are_no_rational_are_refused(value):
    with pytest.raises(InputError, match="not an exact rational vector"):
        quota_vector([1, value])
    with pytest.raises(InputError, match="x must be a finite rational"):
        as_fraction(value, "x")


def test_broadcast_lower_bound():
    assert broadcast_lower_bound(1, 3) == (1, 1, 1)
    assert broadcast_lower_bound([0, 2, 1], 3) == (0, 2, 1)
    with pytest.raises(InputError):
        broadcast_lower_bound([1, 2], 3)
    with pytest.raises(InputError):
        broadcast_lower_bound(-1, 3)
    with pytest.raises(InputError, match="True"):
        broadcast_lower_bound((0, True), 2)


def test_lower_bounds_refuse_bools():
    # Problem refuses bool populations; True would otherwise pass as 1.
    with pytest.raises(InputError, match="True"):
        broadcast_lower_bound(True, 3)
    with pytest.raises(InputError, match="False"):
        broadcast_lower_bound([1, False, 0], 3)


@pytest.mark.parametrize("fields", [
    ((0, 0), (5, 1), 2), ((1,), (1,), 0), ((1, 2), (0,), 1),
    ((-1, 2), (0, 0), 1), ((1, 2), (0, 0), True), ([1, 2], [0, 0], 1)],
    ids=["numerator-at-den", "zero-den", "lengths", "negative-floor",
         "bool-den", "lists"])
def test_a_caller_built_quota_vector_is_read_against_its_invariant(fields):
    # iterate_lower_bound returned a feasible trace for the first, and the
    # second raised ZeroDivisionError from its quotas.
    with pytest.raises(InputError, match="^quota "):
        QuotaVector(*fields)


def test_ceilings_kept_outside_equality():
    q = compute_quota(problem((3, 5, 9, 2), 11))
    assert q.ceilings is q.ceilings
    assert q.ceilings == tuple(f + (n > 0) for f, n in zip(q.floors, q.nums))
    fresh = QuotaVector(q.floors, q.nums, q.den)
    assert q == fresh and hash(q) == hash(fresh)
    with pytest.raises(AttributeError):
        q.den = 1
