import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seatlot import (Allocation, CapacityError, InputError, SeededSource,
                     _backend, compute_quota, problem, quota_vector,
                     resolve_method, stochastic_apportion)
from seatlot.montecarlo import (REPLICATE_CEILING, ProblemPair,
                                SimulationReport,
                                empirical_distribution,
                                fairness_test, house_increase_pair,
                                monotonicity_scan, population_move_pair,
                                random_problem, simulate,
                                stochastic_dominance)
from seatlot.stochastic import exact_distribution


def test_simulate_reproducible_and_equals_manual_loop():
    prob = problem((2, 3), 7)
    report = simulate("stochastic", prob, master_seed=99, n=500)
    again = simulate("stochastic", prob, master_seed=99, n=500)
    assert report == again
    master = SeededSource(99)
    sums = [0, 0]
    sumsqs = [0, 0]
    for k in range(500):
        seats = stochastic_apportion(prob, master.child(k)).seats
        for i, a in enumerate(seats):
            sums[i] += a
            sumsqs[i] += a * a
    assert report.seat_sums == tuple(sums)
    assert report.seat_sumsqs == tuple(sumsqs)
    assert report.quota_violations == 0


def test_simulate_integral_quota_zero_variance():
    prob = problem((5, 3, 2), 10)
    report = simulate("stochastic", prob, master_seed=0, n=100)
    assert report.means() == (F(5), F(3), F(2))
    assert all(report.variance(i) == 0 for i in range(3))
    assert all(fairness_test(report, compute_quota(prob)))


def test_simulate_two_state_mean_within_four_sigma():
    prob = problem((2, 3), 7)
    report = simulate("stochastic", prob, master_seed=5, n=100_000)
    quota = compute_quota(prob)
    assert all(fairness_test(report, quota))
    assert report.quota_violations == 0


def test_simulate_deterministic_methods():
    prob = problem((87, 13), 10)
    report = simulate("jefferson", prob, master_seed=1, n=50)
    assert report.means() == (F(9), F(1))
    assert report.std_error(0) == 0.0
    # jefferson breaks upper quota here: quota ceiling of state 1 is 9
    fix = problem((2, 1, 1), 2)
    rep = simulate("jefferson", fix, master_seed=1, n=50)
    assert rep.quota_violations == 50


def test_simulate_callable_method():
    prob = problem((1, 1, 7), 3)

    def scheme(p, src):
        return stochastic_apportion(p, src)

    rep = simulate(scheme, prob, master_seed=4, n=200)
    direct = simulate("stochastic", prob, master_seed=4, n=200)
    assert rep.seat_sums == direct.seat_sums


@pytest.mark.parametrize("name", ["jefferson", "hamilton", "adams"])
def test_deterministic_report_equals_the_replicate_loop(name):
    # One evaluation scaled by n tallies as n replicates of the method.
    prob = problem((2, 1, 1, 40), 6)
    fn = resolve_method(name)[1]

    def each(p, _src):
        return fn(p)

    each.__name__ = name
    for bounds in (None, 1, (0, 2, 0, 1)):
        assert simulate(name, prob, 3, 7, lower_bounds=bounds) \
            == simulate(each, prob, 3, 7, lower_bounds=bounds)


@pytest.mark.parametrize("seats", [(3, 3), (2, 2, 1, 1)])
def test_simulate_refuses_a_seat_vector_of_the_wrong_length(seats):
    # A shorter vector was tallied as if the missing states had no seats,
    # and a longer one raised IndexError.
    def wrong_length(_prob, _src):
        return Allocation(seats, "wrong")

    with pytest.raises(InputError, match="method 'wrong_length' returned "
                                         f"{len(seats)} seats for 3 states"):
        simulate(wrong_length, problem((1, 2, 3), 6), 0, 3)


def test_simulate_with_lower_bounds():
    prob = problem((1, 5, 10), 8)
    report = simulate("stochastic", prob, master_seed=3, n=200,
                      lower_bounds=1)
    assert report.method == "stochastic-lower-bound"
    assert report.means() == (F(1), F(2), F(5))
    assert report.bound_violations == 0
    assert report.quota_violations == 0


def test_simulate_rejects_bad_n():
    with pytest.raises(InputError):
        simulate("stochastic", problem((1, 2), 1), 0, 0)


@pytest.mark.parametrize("method", ["stochastic", "webster",
                                    lambda prob, src: prob])
@pytest.mark.parametrize("n", [True, 2.5, "3"])
def test_simulate_rejects_non_integer_n(method, n):
    # n=True used to return a report with replicates=True.
    with pytest.raises(InputError, match="replicate count"):
        simulate(method, problem((1, 2), 1), 0, n)


@pytest.mark.parametrize("n", [0, -5, True, 2.5])
def test_empirical_distribution_rejects_bad_n(n):
    # It used to return an empty tally.
    with pytest.raises(InputError, match="replicate count"):
        empirical_distribution(problem((1, 2), 1), 0, n)


def _never_called(*args):
    raise AssertionError("a replicate ran past the ceiling")


@pytest.mark.parametrize("seed", [True, 1.5, "3"])
@pytest.mark.parametrize("draw", [
    lambda seed: simulate("stochastic", problem((1, 2), 2), seed, 10),
    lambda seed: simulate("hamilton", problem((1, 2), 2), seed, 10),
    lambda seed: simulate(_never_called, problem((1, 2), 2), seed, 10),
    lambda seed: empirical_distribution(problem((1, 2), 2), seed, 10),
], ids=["stochastic", "hamilton", "callable", "empirical"])
def test_bool_or_non_integer_master_seed_is_refused(draw, seed, monkeypatch):
    # The scheme drew True as seed 1 and raised a bare TypeError on 1.5;
    # Hamilton reported master_seed 1.5.  The refusal comes before any
    # replicate runs.
    monkeypatch.setattr(_backend, "simulate_batch", _never_called)
    with pytest.raises(InputError, match="^seed must be an integer, got "):
        draw(seed)


@pytest.mark.parametrize("draw", [
    lambda n: simulate("stochastic", problem((1, 2), 1), 0, n),
    lambda n: simulate("webster", problem((1, 2), 1), 0, n),
    lambda n: simulate(_never_called, problem((1, 2), 1), 0, n),
    lambda n: empirical_distribution(problem((1, 2), 1), 0, n),
], ids=["stochastic", "webster", "callable", "empirical"])
def test_replicate_counts_above_the_ceiling_are_refused(draw, monkeypatch):
    # Replicate counts had no ceiling.  The refusal comes before any
    # replicate runs.
    monkeypatch.setattr(_backend, "simulate_batch", _never_called)
    with pytest.raises(CapacityError, match=f"at most {REPLICATE_CEILING} "):
        draw(REPLICATE_CEILING + 1)


def test_fairness_test_exact_comparison():
    prob = problem((2, 3), 7)
    report = simulate("stochastic", prob, master_seed=11, n=20_000)
    quota = compute_quota(prob)
    assert all(fairness_test(report, quota))
    # shift the target: means are ~0.8/0.2 away, far beyond 4 sigma
    shifted = quota_vector((quota.quotas[0] + 1, quota.quotas[1] - 1))
    assert not any(fairness_test(report, shifted))


@pytest.mark.parametrize("labels, sums, sumsqs", [
    ((), (5,), (5,)), (("A", "B"), (5,), (5,)), ((), (5, 5), (5,))],
    ids=["unlabelled", "labelled", "short-squares"])
def test_fairness_test_refuses_a_report_of_another_length(labels, sums,
                                                          sumsqs):
    # An unlabelled report of one seat sum against a 2-state quota raised
    # IndexError.
    report = SimulationReport("stochastic", 1, 10, labels, sums, sumsqs, 0, 0)
    with pytest.raises(InputError,
                       match="report and quota vector differ in length"):
        fairness_test(report, quota_vector((1, 1)))


def test_unlabelled_report_has_a_mean_per_state():
    # The means were counted by the labels, so an unlabelled report had none.
    report = SimulationReport("x", 1, 10, (), (5, 3), (5, 3), 0, 0)
    assert report.means() == (F(1, 2), F(3, 10))


@pytest.mark.parametrize("state", [3, -1, True, "x", 1.0, None], ids=repr)
def test_a_report_refuses_a_state_outside_it(state):
    # mean(-1) read the last state and mean(True) state 1; mean(3) raised
    # IndexError and mean("x") TypeError.
    report = SimulationReport("x", 1, 10, (), (5, 3, 2), (5, 3, 2), 0, 0)
    for read in (report.mean, report.variance, report.std_error):
        with pytest.raises(InputError, match="^state index must be"):
            read(state)


NO_REPLICATES = SimulationReport("x", 1, 0, (), (0,), (0,), 0, 0)


@pytest.mark.parametrize("read", [
    lambda r: fairness_test(r, quota_vector([1])), lambda r: r.mean(0),
    lambda r: r.std_error(0)], ids=["fairness_test", "mean", "std_error"])
def test_a_report_without_replicates_is_refused(read):
    # fairness_test passed every state of it, and mean and std_error
    # divided by zero.
    with pytest.raises(InputError,
                       match="replicate count must be a positive integer"):
        read(NO_REPLICATES)


@pytest.mark.parametrize("read, message", [
    (lambda r: fairness_test(r, quota_vector([1])), "must be tuples"),
    (lambda r: r.mean(0), "must be tuples"),
    (lambda r: r.std_error(0), "must be tuples")],
    ids=["fairness_test", "mean", "std_error"])
def test_a_report_is_read_by_its_fields(read, message):
    # A report with no seat sums raised TypeError from len(None).
    with pytest.raises(InputError, match=message):
        read(SimulationReport("x", 1, 10, (), None, None, 0, 0))


@pytest.mark.parametrize("sums, sumsqs, match", [
    ((5, 3), (5,), "differ in length"), ((5, "3"), (5, 3), "seat sum"),
    ((5, 3), (5, -3), "seat sum")], ids=["short-squares", "text", "negative"])
def test_a_report_state_needs_its_sum_and_square(sums, sumsqs, match):
    # variance(1) of the short report raised IndexError.
    report = SimulationReport("x", 1, 10, (), sums, sumsqs, 0, 0)
    with pytest.raises(InputError, match=match):
        report.variance(1)


def test_fairness_test_refuses_a_z_that_is_no_rational():
    # "a" raised ValueError from Fraction().
    report = SimulationReport("x", 1, 10, (), (10,), (10,), 0, 0)
    with pytest.raises(InputError, match="z must be a finite rational"):
        fairness_test(report, quota_vector([1]), z="a")


def test_empirical_distribution_matches_exact_law():
    prob = problem((1, 1, 7), 3)
    n = 100_000
    counts = empirical_distribution(prob, master_seed=21, n=n)
    law = exact_distribution(prob)
    assert set(counts) <= set(law.support())
    for seats, p in law.items():
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts.get(seats, 0) - n * p) <= 4 * sigma


def test_empirical_total_variation_distance():
    # TV distance to the exact law stays within 5 * sqrt(|support| / n).
    src = SeededSource(77)
    for trial in range(5):
        s = 2 + src.randbelow(7)
        pops = [1 + src.randbelow(60) for _ in range(s)]
        prob = problem(pops, src.randbelow(25))
        n = 100_000
        counts = empirical_distribution(prob, master_seed=trial, n=n)
        law = exact_distribution(prob)
        support = set(law.support()) | set(counts)
        tv = sum(abs(F(counts.get(seats, 0), n) - law.probability(seats))
                 for seats in support) / 2
        assert tv <= 5 * math.sqrt(len(support) / n)


def test_empirical_distribution_with_bounds():
    prob = problem((2, 11, 13, 24), 20)
    counts = empirical_distribution(prob, master_seed=2, n=5000,
                                    lower_bounds=1)
    assert sum(counts.values()) == 5000
    for seats in counts:
        assert all(a >= 1 for a in seats)


# --- stochastic dominance ----------------------------------------------------

def test_dominance_identical_both_ways():
    law = {2: F(1, 3), 3: F(2, 3)}
    assert stochastic_dominance(law, law)


def test_dominance_point_masses():
    two = {2: F(1)}
    three = {3: F(1)}
    assert stochastic_dominance(two, three)
    assert not stochastic_dominance(three, two)


def marginal_laws(max_support=5):
    def build(weights):
        total = sum(weights)
        return {i: F(w, total) for i, w in enumerate(weights) if w}
    return st.lists(st.integers(min_value=0, max_value=9),
                    min_size=1, max_size=max_support).filter(
                        lambda w: sum(w) > 0).map(build)


@given(marginal_laws())
@settings(max_examples=100, deadline=None)
def test_dominance_reflexive(law):
    assert stochastic_dominance(law, law)


@given(marginal_laws(), marginal_laws())
@settings(max_examples=150, deadline=None)
def test_dominance_antisymmetric(a, b):
    if stochastic_dominance(a, b) and stochastic_dominance(b, a):
        assert a == b


@given(marginal_laws(), marginal_laws(), marginal_laws())
@settings(max_examples=150, deadline=None)
def test_dominance_transitive(a, b, c):
    if stochastic_dominance(a, b) and stochastic_dominance(b, c):
        assert stochastic_dominance(a, c)


# --- monotonicity scans --------------------------------------------------------

def test_single_state_pairs_trivially_monotone():
    pair = ProblemPair(before=problem((5,), 3), after=problem((5,), 4))
    report = monotonicity_scan([pair], "house_increase")
    assert report.ok and report.checked == 1


def test_population_move_scan_small_corpus():
    src = SeededSource(61)
    pairs = [population_move_pair(src, max_states=5, max_population=30,
                                  max_seats=18) for _ in range(40)]
    report = monotonicity_scan(pairs, "population_move")
    assert report.checked == 40
    assert report.ok, report.failures


def test_house_increase_scan_small_corpus():
    src = SeededSource(62)
    pairs = [house_increase_pair(src, max_states=5, max_population=30,
                                 max_seats=18) for _ in range(40)]
    report = monotonicity_scan(pairs, "house_increase")
    assert report.checked == 40
    assert report.ok, report.failures


def test_house_increase_deterministic_integer_case():
    pair = ProblemPair(before=problem((5, 3, 2), 10),
                       after=problem((5, 3, 2), 11))
    report = monotonicity_scan([pair], "house_increase")
    assert report.ok


def test_monotonicity_scan_validates_kind():
    with pytest.raises(InputError):
        monotonicity_scan([], "shrink")


@pytest.mark.parametrize("sizes", [
    {"max_population": 2 ** 64 + 1},
    {"max_states": 2 ** 64 + 1},
    {"max_seats": 2 ** 70},
])
def test_random_problem_refuses_ranges_wider_than_one_draw(sizes):
    # A range of more than 2**64 values made randbelow loop for ever.
    with pytest.raises(InputError):
        random_problem(SeededSource(7), **sizes)


def test_random_problem_accepts_a_range_of_two_to_the_64():
    prob = random_problem(SeededSource(7), max_states=2,
                          max_population=2 ** 64)
    assert all(1 <= p <= 2 ** 64 for p in prob.populations)


@pytest.mark.parametrize("draw, sizes", [
    (random_problem, {"max_states": 2.5}),
    (random_problem, {"min_states": F(1)}),
    (random_problem, {"max_population": "x"}),
    (random_problem, {"max_seats": None}),
    (random_problem, {"min_seats": True}),
    (house_increase_pair, {"max_seats": 1.5}),
    (population_move_pair, {"max_population": "x"}),
    (population_move_pair, {"max_population": 60.0}),
], ids=lambda v: getattr(v, "__name__", repr(v)))
def test_corpus_builders_refuse_range_ends_that_are_no_integers(draw, sizes):
    # A float end raised TypeError from randbelow, a text end TypeError
    # from a comparison, and min_seats=True was read as 1.  The refusal
    # comes before any draw.
    src = SeededSource(9)
    with pytest.raises(InputError, match="range end must be a non-negative "
                                         "integer"):
        draw(src, **sizes)
    assert src.bits53() == SeededSource(9).bits53()


def test_population_move_pair_takes_a_state_count_range():
    # min_states raised TypeError: the pair passed its own min_states too.
    pair = population_move_pair(SeededSource(8), min_states=4, max_states=5)
    assert 4 <= pair.before.size <= 5


@pytest.mark.parametrize("max_population", [1, 0])
def test_population_move_pair_refuses_populations_that_cannot_move(
        max_population):
    # With every population at 1 no state can give up heads, and the draw
    # loop ran for ever.  The refusal comes before any draw.
    src = SeededSource(8)
    with pytest.raises(InputError, match="max_population of at least 2"):
        population_move_pair(src, max_population=max_population)
    assert src.bits53() == SeededSource(8).bits53()


def test_corpus_builders_deterministic():
    a = random_problem(SeededSource(7), max_states=6)
    b = random_problem(SeededSource(7), max_states=6)
    assert a == b
    pa = population_move_pair(SeededSource(8))
    pb = population_move_pair(SeededSource(8))
    assert pa == pb
    assert pa.before.total_population == pa.after.total_population
    assert pa.before.populations[pa.moved_from] \
        > pa.after.populations[pa.moved_from]
