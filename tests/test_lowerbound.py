from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seatlot import (ConvergenceError, InfeasibleError, InputError,
                     SeededSource, child_seed, compute_quota,
                     feasible_with_lower_bound, problem, quota_vector,
                     satisfies_quota)
from seatlot import lowerbound, stochastic
from seatlot.core import Allocation, broadcast_lower_bound
from seatlot.divisor import RULES, divisor_with_bounds
from seatlot.lowerbound import (AdjustedQuota, StateClassification,
                                adjusted_quota_from_values, classify,
                                equal_representation_quota,
                                iterate_lower_bound, lower_bound_apportion,
                                lower_bound_distribution,
                                resample_conditional_law,
                                resample_until_quota, scaled_fractional_quota,
                                violation_probability_bound)
from seatlot.montecarlo import empirical_distribution, simulate
from seatlot.stochastic import exact_distribution

from fixtures import RESAMPLE_UNFAIR, TABLE_OFFENDER_PAIRS
from oracles import quota_bound_feasible, rescale_and_pin

HALF_CASE = quota_vector([F(1, 2), F(5, 2), F(5)])     # sums to 8
TINY_CASE = quota_vector([F(1, 3), F(1, 3), F(7, 3)])  # sums to 3


# --- classification --------------------------------------------------------

def test_classify_zero_bounds_trivial():
    cls_ = classify(HALF_CASE, (0, 0, 0), 8)
    assert cls_.small == ()
    assert cls_.exact == ()
    assert cls_.surplus == (0, 1, 2)
    assert cls_.remaining_seats == 8


def test_classify_half_case():
    cls_ = classify(HALF_CASE, (1, 1, 1), 8)
    assert cls_.small == (0,)
    assert cls_.exact == ()
    assert cls_.surplus == (1, 2)
    assert cls_.remaining_seats == 7


def test_classify_tiny_case_succeeds_but_iteration_fails():
    cls_ = classify(TINY_CASE, (1, 1, 1), 3)
    assert cls_.small == (0, 1)
    assert cls_.remaining_seats == 1
    trace = iterate_lower_bound(TINY_CASE, (1, 1, 1), 3)
    assert not trace.feasible


def test_classify_precondition_errors():
    with pytest.raises(InfeasibleError) as exc:
        classify(TINY_CASE, (2, 0, 0), 3)      # bound above upper quota
    assert "upper quota" in str(exc.value)
    with pytest.raises(InfeasibleError) as exc:
        classify(HALF_CASE, (1, 3, 5), 8)      # bounds overflow the house
    assert exc.value.diagnostics["condition"] == "bounds_exceed_house"


def test_classify_exact_states():
    cls_ = classify(quota_vector([F(2), F(3)]), (2, 0), 5)
    assert cls_.exact == (0,)
    assert cls_.surplus == (1,)
    assert cls_.remaining_seats == 3


# --- equal representation rescaling ---------------------------------------

def test_rescale_trivial_when_no_small_states():
    cls_ = classify(HALF_CASE, (0, 0, 0), 8)
    adj = equal_representation_quota(cls_, HALF_CASE)
    assert adj.scale == 1
    assert adj.values == HALF_CASE.quotas
    assert adj.condition_holds


def test_rescale_half_case():
    cls_ = classify(HALF_CASE, (1, 1, 1), 8)
    adj = equal_representation_quota(cls_, HALF_CASE)
    assert adj.scale == F(14, 15)
    assert adj.values == (F(7, 3), F(14, 3))
    assert adj.offenders == (2,)                   # 14/3 < floor(5.0) = 5
    assert not adj.condition_holds
    assert sum(adj.values) == cls_.remaining_seats


def test_rescale_requires_surplus_states():
    cls_ = classify(quota_vector([F(1, 2)]), (1,), 1)
    with pytest.raises(InputError):
        equal_representation_quota(cls_, [F(1, 2)])


def test_scale_below_one_iff_small_states_exist():
    src = SeededSource(74)
    for _ in range(200):
        s = 2 + src.randbelow(5)
        pops = [1 + src.randbelow(40) for _ in range(s)]
        seats = 1 + src.randbelow(25)
        prob = problem(pops, seats)
        quota = compute_quota(prob)
        bounds = [src.randbelow(2) for _ in range(s)]
        try:
            cls_ = classify(quota, bounds, seats)
        except InfeasibleError:
            continue
        if not cls_.surplus:
            continue
        adj = equal_representation_quota(cls_, quota)
        if cls_.small:
            assert adj.scale < 1
        else:
            assert adj.scale == 1


# --- violation probability bound -------------------------------------------

def test_bound_no_offenders_is_zero():
    cls_ = classify(HALF_CASE, (0, 0, 0), 8)
    adj = equal_representation_quota(cls_, HALF_CASE)
    vb = violation_probability_bound(adj)
    assert vb.verbatim == 0
    assert vb.union == 0
    assert vb.exact_for_single_offender


def test_bound_published_offender_pairs():
    for _label, original, adjusted, gap in TABLE_OFFENDER_PAIRS:
        adj = adjusted_quota_from_values([original], [adjusted])
        vb = violation_probability_bound(adj)
        assert vb.gaps == ((0, gap),)
        assert vb.union == gap
        assert vb.verbatim == 1                 # max(1, gap) with gap < 1
        assert vb.exact_for_single_offender


def test_adjusted_values_refuse_mismatched_indices():
    with pytest.raises(InputError) as exc:
        adjusted_quota_from_values([F(5, 2), F(3)], [F(3, 2), F(3)],
                                   indices=[4])
    assert str(exc.value) == "indices and value vectors differ in length"
    assert adjusted_quota_from_values([F(5, 2), F(3)], [F(3, 2), F(3)],
                                      indices=[4, 7]).offenders == (4,)


def test_bound_integral_quota_offender():
    # A state with integral quota can still fall below its lower quota.
    adj = adjusted_quota_from_values([F(10)], [F("9.984")])
    vb = violation_probability_bound(adj)
    assert vb.gaps == ((0, F("0.016")),)


def test_bound_validity_against_simulation():
    # Run the scheme on the rescaled values 10^5 times: the quota-violation
    # frequency never exceeds the verbatim bound and, with exactly one
    # offender, sits within 4 standard errors of the attainable union bound.
    from seatlot import _backend

    cls_ = classify(HALF_CASE, (1, 1, 1), 8)
    adj = equal_representation_quota(cls_, HALF_CASE)
    vb = violation_probability_bound(adj)
    assert len(vb.gaps) == 1
    floors = [int(v) for v in adj.values]
    fracs = [v - f for v, f in zip(adj.values, floors)]
    integer = quota_vector(fracs)
    nums, den = integer.nums, integer.den
    n = 100_000
    _s, _sq, qviol, _bv, _mm, _masks = _backend.simulate_batch(
        floors, nums, den, list(adj.original_floors),
        list(adj.original_ceilings), [0, 0], 321, n,
        sum(floors) + sum(nums) // den)
    assert qviol <= n * vb.verbatim
    import math
    p = vb.union
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(qviol - n * p) <= 4 * sigma


def test_resample_cap_exceeded():
    from seatlot.errors import ConvergenceError

    # No outcome of the scheme on these values can reach the target
    # brackets, so the rerun loop must hit its cap.
    adj = adjusted_quota_from_values(
        [F(7, 2), F(5, 2)], [F(1, 2), F(1, 2)])
    with pytest.raises(ConvergenceError):
        resample_until_quota(adj, SeededSource(1), cap=50)


@pytest.mark.parametrize("cap", [0, 1.5, "x"])
def test_resample_refuses_a_cap_that_is_no_count(cap):
    # 1.5 raised TypeError from range(), and 0 ran no draw and reported
    # "no quota-satisfying outcome in 0 runs".
    adj = adjusted_quota_from_values([F(5, 2), F(5, 2)], [F(5, 2), F(5, 2)])
    with pytest.raises(InputError, match="cap must be a positive integer"):
        resample_until_quota(adj, SeededSource(3), cap=cap)


def test_half_case_union_bound_matches_scheme_law():
    # One offender: the probability that running the scheme on the rescaled
    # values breaks quota equals the gap exactly.
    cls_ = classify(HALF_CASE, (1, 1, 1), 8)
    adj = equal_representation_quota(cls_, HALF_CASE)
    vb = violation_probability_bound(adj)
    law = exact_distribution(problem((7, 14), 7))  # quotas 7/3 and 14/3
    bad = sum((p for seats, p in law.items()
               if not all(f <= a <= c for a, f, c in
                          zip(seats, adj.original_floors,
                              adj.original_ceilings))), F(0))
    assert bad == vb.union


# --- iteration --------------------------------------------------------------

def test_iterate_half_case():
    trace = iterate_lower_bound(HALF_CASE, (1, 1, 1), 8)
    assert trace.feasible
    assert [(r.active, r.scale, r.fixed) for r in trace.rounds] == [
        ((1, 2), F(14, 15), (2,)),
        ((1,), F(4, 5), ()),
    ]
    assert trace.final_quota == (F(1), F(2), F(5))
    assert trace.fixed_at_floor == (2,)


def test_iterate_no_small_states_single_round():
    trace = iterate_lower_bound(HALF_CASE, (0, 0, 0), 8)
    assert trace.feasible
    assert len(trace.rounds) == 1
    assert trace.rounds[0].scale == 1
    assert trace.final_quota == HALF_CASE.quotas


def test_iterate_infeasible_tiny_case():
    trace = iterate_lower_bound(TINY_CASE, (1, 1, 1), 3)
    assert not trace.feasible
    assert trace.diagnostics


def test_iterate_reports_precondition_failures_as_trace():
    trace = iterate_lower_bound(TINY_CASE, (2, 2, 2), 3)
    assert not trace.feasible
    assert trace.classification is None


@pytest.mark.parametrize("bounds, seats", [
    ((1, -1, 1), 3), ((1, 1, 1), 2.5), ((1, 1), 3)])
def test_iterate_refuses_malformed_input(bounds, seats):
    # These were reported as infeasible traces, as if no allocation met them.
    with pytest.raises(InputError):
        iterate_lower_bound(TINY_CASE, bounds, seats)


def test_iterate_seat_conservation_and_bounds():
    src = SeededSource(4242)
    for _ in range(300):
        s = 1 + src.randbelow(5)
        pops = [1 + src.randbelow(30) for _ in range(s)]
        seats = src.randbelow(20)
        prob = problem(pops, seats)
        quota = compute_quota(prob)
        bounds = [src.randbelow(3) for _ in range(s)]
        trace = iterate_lower_bound(quota, bounds, seats)
        assert trace.feasible == quota_bound_feasible(prob, bounds)
        assert trace.feasible == feasible_with_lower_bound(quota, bounds, seats)
        assert len(trace.rounds) <= s
        if not trace.feasible:
            continue
        assert sum(trace.final_quota) == seats
        # every component within quota brackets, bounds respected
        for i, value in enumerate(trace.final_quota):
            assert bounds[i] <= value
            assert quota.floors[i] <= value <= quota.ceilings[i] or (
                i in (trace.classification.small + trace.classification.exact))
            # small/exact states sit at their bound, which satisfies quota
            if i in trace.classification.small:
                assert value == bounds[i] == quota.ceilings[i]
        # scales decrease across rounds and never exceed 1
        scales = [r.scale for r in trace.rounds]
        assert all(x <= 1 for x in scales)
        assert all(a > b for a, b in zip(scales, scales[1:]))
        # active-set values never exceed the original quotas
        for i in trace.final_active:
            assert trace.final_quota[i] <= quota.quotas[i]
        # per-round conservation: pinned seats plus scaled mass equal the
        # house minus bound grants
        cls_ = trace.classification
        for rnd in trace.rounds:
            pinned = [i for i in cls_.surplus
                      if i not in rnd.active and i in trace.fixed_at_floor]
            mass = rnd.scale * sum(quota.quotas[i] for i in rnd.active)
            assert mass + sum(quota.floors[i] for i in pinned) \
                == cls_.remaining_seats


def _assert_rescale_is_round_one(quota, bounds, seats, trace):
    try:
        cls_ = classify(quota, bounds, seats)
    except InfeasibleError:
        return
    if cls_.surplus:
        adj = equal_representation_quota(cls_, quota)
        first = trace.rounds[0]
        assert (adj.scale, adj.indices, adj.offenders) \
            == (first.scale, first.active, first.fixed)
        assert adj.values == tuple(adj.scale * quota.quotas[i]
                                   for i in adj.indices)
        assert sum(adj.values) == cls_.remaining_seats


def _assert_matches_rescale_and_pin(quota, bounds, seats):
    trace = iterate_lower_bound(quota, bounds, seats)
    _assert_rescale_is_round_one(quota, bounds, seats, trace)
    feasible, rounds, final = rescale_and_pin(
        getattr(quota, "quotas", quota), bounds, seats)
    assert trace.feasible == feasible
    assert [(r.active, r.scale, r.fixed) for r in trace.rounds] == rounds
    assert trace.final_quota == final
    if feasible:
        # The integer composite is what the kernels receive: floors and
        # numerators over the least common denominator of the fractions.
        floors = tuple(v.numerator // v.denominator for v in final)
        fractions = quota_vector([v - f for v, f in zip(final, floors)])
        composite = trace._composite
        assert (composite.floors, composite.nums, composite.den) \
            == (floors, fractions.nums, fractions.den)
    return trace


@given(st.lists(st.integers(min_value=1, max_value=400), min_size=1,
                max_size=8), st.integers(min_value=0, max_value=60),
       st.data())
@settings(max_examples=300, deadline=None)
def test_iteration_matches_fraction_reference_on_problems(pops, seats, data):
    bounds = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                min_size=len(pops), max_size=len(pops)))
    prob = problem(pops, seats)
    _assert_matches_rescale_and_pin(compute_quota(prob), bounds, seats)


@given(st.lists(st.fractions(min_value=0, max_value=30, max_denominator=12),
                min_size=1, max_size=8), st.integers(min_value=-1, max_value=1),
       st.data())
@settings(max_examples=300, deadline=None)
def test_iteration_matches_fraction_reference_on_raw_tables(quotas, slack,
                                                            data):
    # The bound-check CLI passes quota tables that need not sum to the
    # house; a house near their total keeps most of them feasible.
    seats = max(0, int(sum(quotas)) + slack)
    bounds = data.draw(st.lists(st.integers(min_value=0, max_value=3),
                                min_size=len(quotas), max_size=len(quotas)))
    _assert_matches_rescale_and_pin(quota_vector(quotas), bounds, seats)


@pytest.mark.parametrize("quotas, bounds, seats, diagnostics", [
    ((18, 8), (1, 1), 28,
     "rescaled quota exceeds upper quota for states [0, 1]"),
    ((10,), (0,), 9, "quota and the bounds force 10 seats but the house has 9"),
    ((1,), (1,), 2, "1 seat(s) cannot be granted without pushing some state "
                    "above its upper quota"),
    # Once the remaining seats are negative, every active state falls below
    # its floor, those with a floor of 0 too.
    ((10, F(1, 2), F(1, 2)), (0, 0, 0), 9,
     "quota and the bounds force 10 seats but the house has 9"),
], ids=["above-upper-quota", "forced-past-house", "seats-left-over",
        "negative-remainder"])
def test_iteration_infeasible_diagnostics(quotas, bounds, seats, diagnostics):
    trace = _assert_matches_rescale_and_pin(quota_vector(quotas), bounds,
                                            seats)
    assert (trace.feasible, trace.diagnostics) == (False, diagnostics)
    assert trace.final_quota is None


@pytest.mark.parametrize("pops, seats, bounds", [
    ((1508, 864, 25, 5, 102, 110), 28, (2, 0, 1, 0, 1, 0)),
    ((41, 199, 42, 324, 166, 8, 439), 31, (0, 0, 1, 2, 0, 1, 3))])
def test_iteration_five_round_chains(pops, seats, bounds):
    trace = _assert_matches_rescale_and_pin(
        compute_quota(problem(pops, seats)), bounds, seats)
    assert trace.feasible
    assert len(trace.rounds) == 5
    assert [len(r.fixed) for r in trace.rounds][-1] == 0


def test_trace_audit_json_ready():
    import json

    trace = iterate_lower_bound(HALF_CASE, (1, 1, 1), 8)
    blob = json.dumps(trace.audit())
    assert "14/15" in blob


# --- bounded apportionment ---------------------------------------------------

def test_bounded_apportion_half_case_deterministic():
    prob = problem((1, 5, 10), 8)     # quotas 1/2, 5/2, 5
    for seed in range(20):
        alloc = lower_bound_apportion(prob, (1, 1, 1), SeededSource(seed))
        assert alloc.seats == (1, 2, 5)
    assert alloc.audit["trace"]["feasible"]


def test_bounded_apportion_infeasible_raises_with_trace():
    prob = problem((1, 1, 7), 3)
    with pytest.raises(InfeasibleError) as exc:
        lower_bound_apportion(prob, (1, 1, 1), SeededSource(0))
    assert exc.value.trace is not None
    assert not exc.value.trace.feasible


def test_bounded_entry_points_refuse_missing_bounds():
    prob = problem((1, 5, 10), 8)
    with pytest.raises(InputError, match="lower bounds are required"):
        lower_bound_apportion(prob, None, SeededSource(0))
    with pytest.raises(InputError, match="lower bounds are required"):
        lower_bound_distribution(prob, None)


# Quotas 8, 6/5 and 4/5: under a bound of 1 the third state is raised to
# it, and the first round of rescaling pins the first at its floor.
BOUNDED = problem((20, 3, 2), 10)
BOUNDED_QUOTA = compute_quota(BOUNDED)


def _same(a, b):
    # An allocation compares without its audit; the audit holds the trace.
    return a == b and (not isinstance(a, Allocation) or a.audit == b.audit)


@pytest.mark.parametrize("call, none_is_no_bounds", [
    (lambda b: broadcast_lower_bound(b, 3), False),
    (lambda b: classify(BOUNDED_QUOTA, b, 10), False),
    (lambda b: iterate_lower_bound(BOUNDED_QUOTA, b, 10), False),
    (lambda b: feasible_with_lower_bound(BOUNDED_QUOTA, b, 10), False),
    (lambda b: lower_bound_apportion(BOUNDED, b, SeededSource(7)), False),
    (lambda b: lower_bound_distribution(BOUNDED, b), False),
    (lambda b: divisor_with_bounds(BOUNDED, RULES["hill"], b), False),
    (lambda b: simulate("stochastic", BOUNDED, 7, 50, b), True),
    (lambda b: empirical_distribution(BOUNDED, 7, 50, b), True)],
    ids=["broadcast_lower_bound", "classify", "iterate_lower_bound",
         "feasible_with_lower_bound", "lower_bound_apportion",
         "lower_bound_distribution", "divisor_with_bounds", "simulate",
         "empirical_distribution"])
def test_every_bounded_entry_point_reads_one_bound_format(call,
                                                          none_is_no_bounds):
    # One integer stands for the same integer in every state.  classify,
    # iterate_lower_bound and feasible_with_lower_bound raised TypeError on
    # it, and every entry point raised TypeError on a float or an object.
    assert _same(call(1), call((1, 1, 1)))
    assert _same(call(0), call([0, 0, 0]))
    bad = [1.0, object(), [1, 1.0, 1]] + ([] if none_is_no_bounds else [None])
    for bound in bad:
        with pytest.raises(InputError):
            call(bound)


def test_zero_bounds_reduce_to_plain_scheme():
    prob = problem((3, 5, 9, 2), 11)
    assert (lower_bound_distribution(prob, (0, 0, 0, 0)).probabilities
            == exact_distribution(prob).probabilities)


def test_bounded_law_marginals_equal_composite_quota():
    # Four states, bound 1 each: one small state triggers rescaling and the
    # final quota keeps fractional parts, so randomness remains.
    prob = problem((2, 11, 13, 24), 20)
    quota = compute_quota(prob)
    bounds = (1, 1, 1, 1)
    trace = iterate_lower_bound(quota, bounds, prob.seats)
    assert trace.feasible
    assert any(v - int(v) for v in trace.final_quota)
    law = lower_bound_distribution(prob, bounds)
    assert law.marginal_means() == trace.final_quota
    for seats in law.support():
        assert satisfies_quota(seats, quota)
        assert all(a >= b for a, b in zip(seats, bounds))


def test_bounded_apportion_random_instances_respect_quota_and_bounds():
    src = SeededSource(919)
    for _ in range(150):
        s = 1 + src.randbelow(6)
        pops = [1 + src.randbelow(50) for _ in range(s)]
        seats = src.randbelow(30)
        prob = problem(pops, seats)
        quota = compute_quota(prob)
        bounds = [src.randbelow(3) for _ in range(s)]
        if not feasible_with_lower_bound(quota, bounds, seats):
            continue
        alloc = lower_bound_apportion(prob, bounds, src.child(1))
        assert sum(alloc.seats) == seats
        assert satisfies_quota(alloc, quota)
        assert all(a >= b for a, b in zip(alloc.seats, bounds))


# --- one prepared problem across draws ---------------------------------------

def test_prepared_problem_alternating_matches_unkept(monkeypatch):
    a = problem((2, 11, 13, 24), 20)
    b = problem((7, 3, 19, 5, 11), 17)
    cases = [(a, (1, 1, 1, 1)), (b, 1), (a, (1, 1, 1, 1)), (a, 1),
             (a, (0, 5, 1, 1)), (b, 1)]

    def draws():
        return [(alloc.seats, alloc.audit) for alloc in (
            lower_bound_apportion(prob, bounds, SeededSource(k))
            for k, (prob, bounds) in enumerate(cases))]

    kept = draws()
    monkeypatch.setattr(stochastic, "_prepared",
                        stochastic._prepared.__wrapped__)
    assert kept == draws()


def test_prepared_problem_audit_is_fresh_per_draw():
    prob = problem((2, 11, 13, 24), 20)
    first = lower_bound_apportion(prob, 1, SeededSource(1))
    expected = iterate_lower_bound(compute_quota(prob), (1, 1, 1, 1),
                                   20).audit()
    assert first.audit["trace"] == expected
    first.audit["trace"]["rounds"].clear()
    first.audit["trace"]["feasible"] = False
    assert lower_bound_apportion(prob, 1, SeededSource(2)).audit["trace"] \
        == expected


def test_prepared_problem_infeasible_raises_every_time():
    prob = problem((1, 1, 7), 3)
    for _ in range(3):
        with pytest.raises(InfeasibleError) as exc:
            lower_bound_apportion(prob, 1, SeededSource(0))
        assert not exc.value.trace.feasible
        assert lower_bound_apportion(prob, 0, SeededSource(0)).total == 3


def test_prepared_problem_bad_bound_after_valid_call():
    prob = problem((2, 11, 13, 24), 20)
    for bad in (-1, (1, 1, 1), (1, 1, 1, -1), (1, 1, 1, True), True):
        lower_bound_apportion(prob, (1, 1, 1, 1), SeededSource(0))
        with pytest.raises(InputError):
            lower_bound_apportion(prob, bad, SeededSource(0))
        with pytest.raises(InputError):
            lower_bound_distribution(prob, bad)


def test_simulate_prepares_bounded_problem_once(monkeypatch):
    calls = []
    original = lowerbound._iterate

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lowerbound, "_iterate", counting)
    stochastic._prepared.cache_clear()
    prob = problem(tuple(100 + 37 * i for i in range(50)), 435)
    report = simulate(lambda p, src: lower_bound_apportion(p, 1, src),
                      prob, 5, 50, lower_bounds=1)
    assert report.bound_violations == report.quota_violations == 0
    assert len(calls) == 1


# --- resample-until-quota (documented non-solution) --------------------------

def _resample_fixture():
    fix = RESAMPLE_UNFAIR
    return adjusted_quota_from_values(
        [F(fix["original_floors"][0]) + F(2, 5),
         F(fix["original_floors"][1]) + F(3, 5)],
        fix["values"])


def test_resample_fixture_is_an_offender_case():
    adj = _resample_fixture()
    assert adj.offenders == (0,)
    assert adj.original_floors == RESAMPLE_UNFAIR["original_floors"]
    assert adj.original_ceilings == RESAMPLE_UNFAIR["original_ceilings"]


def test_resample_conditional_law_differs_from_values():
    adj = _resample_fixture()
    law = resample_conditional_law(adj)
    assert law.probabilities == {(3, 2): F(1)}
    means = law.marginal_means()
    assert means == RESAMPLE_UNFAIR["conditional_means"]
    gaps = [abs(m - v) for m, v in zip(means, adj.values)]
    assert max(gaps) > F(1, 1000)


def test_resample_draws_satisfy_target():
    adj = _resample_fixture()
    for seed in range(50):
        alloc = resample_until_quota(adj, SeededSource(seed))
        assert all(f <= a <= c for a, f, c in
                   zip(alloc.seats, adj.original_floors,
                       adj.original_ceilings))
        assert alloc.audit["rounds"] >= 1


def test_resample_acceptance_probability_single_small_gap():
    # One offender with gap 0.038: the scheme's outcome satisfies quota
    # unless the offender misses its ceiling, so each rerun round accepts
    # with probability exactly 1 - 0.038 = 0.962.
    adj = adjusted_quota_from_values(
        [F("43.038"), F(2)], [F("42.962"), F("2.038")])
    assert adj.offenders == (0,)
    law = resample_conditional_law(adj)
    assert law.probabilities == {(43, 2): F(1)}
    floors = [int(v) for v in adj.values]
    fracs = [v - f for v, f in zip(adj.values, floors)]
    from seatlot.stochastic import residual_distribution

    raw = residual_distribution(fracs)
    accept = sum((p for bits, p in raw.items()
                  if all(f <= fl + b <= c for fl, b, f, c in
                         zip(floors, bits, adj.original_floors,
                             adj.original_ceilings))), F(0))
    assert accept == F("0.962")
    # mean rounds over a large seeded batch agrees with 1/0.962
    n = 50_000
    rounds_total, failures = 0, 0
    for k in range(n):
        try:
            alloc = resample_until_quota(
                adj, SeededSource(child_seed(17, k)), 10 ** 4)
        except ConvergenceError:
            failures += 1
            continue
        rounds_total += alloc.audit["rounds"]
    assert failures == 0
    import math

    mean_rounds = rounds_total / n
    expected = 1 / 0.962
    # geometric distribution: sd of the mean is sqrt(q)/p/sqrt(n)
    sd = math.sqrt(0.038) / 0.962 / math.sqrt(n)
    assert abs(mean_rounds - expected) <= 4 * sd


def test_resample_without_offenders_accepts_first_round():
    adj = adjusted_quota_from_values([F(5, 2), F(5, 2)], [F(5, 2), F(5, 2)])
    alloc = resample_until_quota(adj, SeededSource(3))
    assert alloc.audit["rounds"] == 1


def test_resample_of_no_states_draws_what_its_law_holds():
    # The draw was refused with the text of random_permutation, while the
    # law of the same values is the point law of the empty allocation.
    adj = adjusted_quota_from_values([], [])
    assert resample_conditional_law(adj).masses == {(): 1}
    assert resample_until_quota(adj, SeededSource(3)).seats == ()


def test_resample_builds_the_quota_vector_of_its_values_once(monkeypatch):
    # Every call rebuilt the quota vector of the same values.
    built = []
    monkeypatch.setattr(lowerbound, "_integral_quota",
                        lambda values: built.append(values)
                        or stochastic._integral_quota(values))
    adj = adjusted_quota_from_values([F(5, 2), F(5, 2)], [F(5, 2), F(5, 2)])
    for seed in range(3):
        resample_until_quota(adj, SeededSource(seed))
    resample_conditional_law(adj)
    assert built == [adj.values]


def test_resample_law_refuses_values_with_no_outcome_within_quota():
    # Values (1/2, 5/2) round to (0, 3) or (1, 2); quota asks 2 or 3 seats
    # of state 0.
    adj = adjusted_quota_from_values([F(5, 2), F(1, 2)], [F(1, 2), F(5, 2)])
    with pytest.raises(InfeasibleError, match="^no quota-satisfying "
                                              "outcome has positive"):
        resample_conditional_law(adj)


def test_resample_rejects_non_integral_values():
    adj = adjusted_quota_from_values([F(5, 2), F(5, 2)], [F(5, 2), F(9, 4)])
    with pytest.raises(InputError,
                       match=r"must sum to an integer, got 3/4"):
        resample_until_quota(adj, SeededSource(3))
    with pytest.raises(InputError,
                       match=r"must sum to an integer, got 3/4"):
        resample_conditional_law(adj)


# --- uniform fractional shrink (documented non-solution) ---------------------

def test_scaled_fractional_trivial_factor_one():
    cls_ = classify(HALF_CASE, (0, 0, 0), 8)
    scaled = scaled_fractional_quota(HALF_CASE, cls_)
    assert scaled.factor == 1
    assert scaled.values == (F(1, 2), F(1, 2), F(0))


def test_scaled_fractional_zero_factor():
    q = quota_vector([F(1, 2), F("2.3"), F("5.2")])
    cls_ = classify(q, (1, 1, 1), 8)
    scaled = scaled_fractional_quota(q, cls_)
    assert scaled.factor == 0
    assert scaled.values == (F(0), F(0))


def test_scaled_fractional_spread_factor():
    q = quota_vector([F(1, 2), F("2.4"), F("5.1")])
    cls_ = classify(q, (1, 1, 1), 9)
    scaled = scaled_fractional_quota(q, cls_)
    assert scaled.factor == 2
    assert scaled.values == (F(4, 5), F(1, 5))


def test_scaled_fractional_refuses_when_no_fraction_is_left():
    # The surplus states' quotas 3 and 2 are whole and exceed the 4 seats
    # left to them.
    q = quota_vector([3, 2, F(1, 2), F(1, 2)])
    cls_ = classify(q, (0, 0, 1, 1), 6)
    with pytest.raises(InputError, match="^no fractional quota available "
                                         "to scale$"):
        scaled_fractional_quota(q, cls_)


def test_scaled_fractional_range_error():
    q = quota_vector([F(1, 2), F("2.6"), F("5.9")])
    cls_ = classify(q, (1, 1, 1), 10)
    # factor (10 - 1 - 7) / (0.6 + 0.9) = 4/3 pushes 0.9 above 1
    with pytest.raises(InputError):
        scaled_fractional_quota(q, cls_)


@pytest.mark.parametrize("call", [
    lambda cls_, q: equal_representation_quota(cls_, q),
    lambda cls_, q: scaled_fractional_quota(q, cls_)],
    ids=["equal_representation_quota", "scaled_fractional_quota"])
@pytest.mark.parametrize("fields, match", [
    (((), (), (0,), None), "remaining seats must be a non-negative integer"),
    (((), (), (5,), 3), r"classified states must be 0\.\.0, each once"),
    (((0,), (), (0,), 3), r"classified states must be 0\.\.1, each once"),
    (((), [], (0,), 3), "classified states must be tuples"),
    (((), (), (True,), 3), "classified state must be a non-negative")],
    ids=["no-seat-count", "index-past-the-states", "index-twice", "list",
         "bool-index"])
def test_a_classification_is_checked_when_built(call, fields, match):
    # The first raised TypeError and the second IndexError.
    with pytest.raises(InputError, match=match):
        call(StateClassification(*fields), quota_vector([1]))


@pytest.mark.parametrize("fields, match", [
    ((None, None, None, None), "tuples of equal length"),
    (((0, 1), (F(1, 2),), (0,), (1,)), "tuples of equal length"),
    (((0,), (1.5,), (0,), (1,)), "exact rationals"),
    (((-1,), (F(1, 2),), (0,), (1,)), "adjusted index"),
    (((0,), (F(1, 2),), (None,), (1,)), "quota bound")],
    ids=["none", "short-values", "float", "negative-index", "none-floor"])
def test_an_adjusted_quota_is_read_by_its_fields(fields, match):
    # AdjustedQuota(None, ...) raised TypeError from zip(None, ...).
    with pytest.raises(InputError, match=match):
        AdjustedQuota(None, *fields, True, ())
