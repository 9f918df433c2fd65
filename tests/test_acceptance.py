"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Each criterion carries a wall-clock budget; exceeding
it fails the criterion.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from seatlot import (ConvergenceError, SeededSource, child_seed,
                     compute_quota, feasible_with_lower_bound, problem,
                     quota_vector, satisfies_quota)
from seatlot.cli import main as cli_main
from seatlot.divisor import (RULES, detect_alabama, detect_population_paradox,
                             divisor_apportion, hamilton_apportion)
from seatlot.lowerbound import (adjusted_quota_from_values,
                                iterate_lower_bound, resample_conditional_law,
                                resample_until_quota,
                                violation_probability_bound)
from seatlot.montecarlo import (SimulationReport, fairness_test,
                                house_increase_pair, monotonicity_scan,
                                population_move_pair, simulate)
from seatlot.stochastic import (conditional_sampling_allocate,
                                conditional_selection_law, exact_distribution,
                                residual_distribution)
from seatlot.core import Problem

from fixtures import (CONDITIONAL_UNFAIR, HAMILTON_ALABAMA,
                      HAMILTON_POPULATION, RESAMPLE_UNFAIR)
from oracles import exists_allocation, priority_list_apportion

BUDGET_SECONDS = {1: 60, 2: 120, 3: 10, 4: 10, 5: 300, 6: 120, 7: 300,
                  8: 180, 9: 300}


@contextmanager
def criterion(number, title):
    start = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - start
        assert elapsed < BUDGET_SECONDS[number], (
            f"criterion {number} took {elapsed:.1f}s, "
            f"budget {BUDGET_SECONDS[number]}s")
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"ACCEPTANCE {number}: FAIL - {title} ({elapsed:.1f}s)")
        raise
    print(f"ACCEPTANCE {number}: PASS - {title} ({elapsed:.1f}s)")


def test_criterion_1_quota_almost_surely():
    with criterion(1, "randomized scheme satisfies quota on every draw"):
        src = SeededSource(20260811)
        for _ in range(10_000):
            s = 1 + src.randbelow(20)
            pops = [1 + src.randbelow(10 ** 6) for _ in range(s)]
            seats = src.randbelow(1001)
            prob = problem(pops, seats)
            report = simulate("stochastic", prob,
                              master_seed=src.randbelow(1 << 63), n=10)
            assert report.quota_violations == 0
            assert report.sum_mismatches == 0


def test_criterion_2_exact_fairness():
    with criterion(2, "exact law marginals equal quotas (rational identity)"):
        src = SeededSource(9022)
        for _ in range(500):
            s = 1 + src.randbelow(8)
            pops = [1 + src.randbelow(10 ** 4) for _ in range(s)]
            seats = src.randbelow(501)
            prob = problem(pops, seats)
            law = exact_distribution(prob)
            quota = compute_quota(prob)
            assert law.marginal_means() == quota.quotas
            total = sum((p for _seats, p in law.items()), F(0))
            assert total == 1


def test_criterion_3_published_offender_gaps(tmp_path, capsys):
    with criterion(3, "published offender gaps 0.038 and 0.001 reproduced"):
        quota_file = tmp_path / "pairs.csv"
        quota_file.write_text(
            "NewYork,43.038,42.962\nPennsylvania,19.013,18.999\n")
        code = cli_main(["bound-check", "--quotas", str(quota_file),
                         "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        by_label = {line.split(",")[0]: line.split(",")
                    for line in lines[1:]}
        assert by_label["NewYork"][6] == "0.038"
        assert by_label["Pennsylvania"][6] == "0.001"
        # same numbers straight from the library, exact
        adj = adjusted_quota_from_values(
            [F("43.038"), F("19.013")], [F("42.962"), F("18.999")])
        vb = violation_probability_bound(adj)
        assert dict(vb.gaps) == {0: F("0.038"), 1: F("0.001")}


def test_criterion_4_infeasible_instance(tmp_path):
    with criterion(4, "1/1/7 with 3 seats and bound 1 is infeasible end to end"):
        prob = problem((1, 1, 7), 3)
        quota = compute_quota(prob)
        assert not feasible_with_lower_bound(quota, (1, 1, 1), 3)
        trace = iterate_lower_bound(quota, (1, 1, 1), 3)
        assert not trace.feasible
        census = tmp_path / "tiny.csv"
        census.write_text("A,1\nB,1\nC,7\n")
        code = cli_main(["apportion", "--data", str(census), "--seats", "3",
                         "--method", "stochastic", "--seed", "1",
                         "--lower-bound", "1"])
        assert code == 1


def test_criterion_5_iteration_matches_brute_force():
    with criterion(5, "bounded iteration verdicts and laws, exhaustive scan"):
        checked = feasible_count = 0
        for s in range(1, 5):
            bound_space = list(itertools.product(range(3), repeat=s))
            for pops in itertools.product(range(1, 7), repeat=s):
                for r in range(0, 9):
                    prob = problem(pops, r)
                    quota = compute_quota(prob)
                    lows_base = quota.floors
                    highs = quota.ceilings
                    for bounds in bound_space:
                        trace = iterate_lower_bound(quota, bounds, r)
                        brute = exists_allocation(
                            [max(b, f) for b, f in zip(bounds, lows_base)],
                            highs, r)
                        assert trace.feasible == brute, (pops, r, bounds)
                        assert feasible_with_lower_bound(quota, bounds, r) \
                            == brute
                        checked += 1
                        if not trace.feasible:
                            continue
                        feasible_count += 1
                        floors = [int(v) for v in trace.final_quota]
                        fracs = [v - f for v, f in
                                 zip(trace.final_quota, floors)]
                        if any(fracs):
                            supports = [
                                tuple(f + b for f, b in zip(floors, bits))
                                for bits in
                                residual_distribution(fracs).support()]
                        else:
                            supports = [tuple(floors)]
                        for seats_vec in supports:
                            assert sum(seats_vec) == r
                            assert satisfies_quota(seats_vec, quota)
                            assert all(a >= b for a, b
                                       in zip(seats_vec, bounds))
        assert checked == sum(6 ** s * 9 * 3 ** s for s in range(1, 5))
        assert feasible_count > 0


def test_criterion_6_deterministic_methods():
    with criterion(6, "hamilton/jefferson/adams quota behaviour and "
                      "priority-list agreement"):
        src = SeededSource(606)
        oracle_checks = 0
        for _ in range(10_000):
            s = 1 + src.randbelow(6)
            pops = [1 + src.randbelow(150) for _ in range(s)]
            seats = src.randbelow(31)
            prob = problem(pops, seats)
            quota = compute_quota(prob)
            ham = hamilton_apportion(prob)
            assert sum(ham.seats) == seats
            assert satisfies_quota(ham, quota)
            jeff = divisor_apportion(prob, RULES["jefferson"])
            assert all(a >= f for a, f in zip(jeff.seats, quota.floors))
            assert jeff.seats == priority_list_apportion(prob, "jefferson")
            oracle_checks += 1
            seats_big = max(seats, s)
            prob_big = problem(pops, seats_big)
            quota_big = compute_quota(prob_big)
            adams = divisor_apportion(prob_big, RULES["adams"])
            assert all(a <= c for a, c
                       in zip(adams.seats, quota_big.ceilings))
            assert adams.seats == priority_list_apportion(prob_big, "adams")
            for name in ("dean", "hill", "webster"):
                rule = RULES[name]
                target = prob_big if rule.first_seat_guaranteed else prob
                assert divisor_apportion(target, rule).seats \
                    == priority_list_apportion(target, name)
                oracle_checks += 1
        assert oracle_checks > 0


def test_criterion_7_paradox_witnesses():
    with criterion(7, "hamilton paradox witnesses found; divisor methods "
                      "house monotone on the corpus"):
        # Alabama: exhaustive three-state corpus, house sizes 1..20.
        hamilton_reports = []
        corpus = list(itertools.product(range(1, 11), repeat=3))
        for pops in corpus:
            prob = problem(pops, 1)
            hamilton_reports.extend(
                detect_alabama(prob, "hamilton", range(1, 21)))
        assert hamilton_reports
        fix = HAMILTON_ALABAMA
        assert any(
            tuple(rep.witness["populations"]) == fix["populations"]
            and rep.witness["house_before"] == fix["house_before"]
            and rep.witness["state"] == fix["loser"]
            for rep in hamilton_reports)
        assert hamilton_apportion(
            problem(fix["populations"], fix["house_before"])).seats \
            == fix["seats_before"]
        assert hamilton_apportion(
            problem(fix["populations"], fix["house_before"] + 1)).seats \
            == fix["seats_after"]
        for name, rule in RULES.items():
            lo = 3 if rule.first_seat_guaranteed else 1
            for pops in corpus:
                prob = problem(pops, lo)
                assert detect_alabama(prob, name, range(lo, 21)) == [], (
                    name, pops)
        # Population paradox: seeded growing-population pairs.
        src = SeededSource(2024)
        pop_reports = []
        pairs = []
        for _ in range(300):
            s = 3 + src.randbelow(3)
            pops = tuple(1 + src.randbelow(40) for _ in range(s))
            r = 2 + src.randbelow(18)
            grown = tuple(p + 1 + src.randbelow(12) for p in pops)
            before = problem(pops, r)
            after = Problem(before.labels, grown, r)
            pairs.append((before, after))
            pop_reports.extend(
                detect_population_paradox(before, after, "hamilton"))
        assert pop_reports
        fix = HAMILTON_POPULATION
        before = problem(fix["populations_before"], fix["seats"])
        after = Problem(before.labels, fix["populations_after"], fix["seats"])
        pinned = detect_population_paradox(before, after, "hamilton")
        assert any(rep.witness["loser"] == fix["loser"]
                   and rep.witness["gainer"] == fix["gainer"]
                   for rep in pinned)
        for before, after in pairs:
            assert detect_population_paradox(before, after, "webster") == []


def test_criterion_8_unfairness_counterexamples():
    with criterion(8, "conditional sampling and rerun-until-quota are "
                      "measurably unfair"):
        n = 10 ** 6
        # Conditioned distinct-index sampling.
        fix = CONDITIONAL_UNFAIR
        fracs = list(fix["fractional"])
        law = conditional_selection_law(fracs, fix["residual"])
        assert law == fix["selection_law"]
        exact_gap = max(abs(a - b) for a, b in zip(law, fracs))
        assert exact_gap > F(1, 1000)
        counts, failures = [0] * len(fracs), 0
        for k in range(n):
            try:
                picked = conditional_sampling_allocate(
                    fracs, fix["residual"],
                    SeededSource(child_seed(8080, k)), 10 ** 6)
            except ConvergenceError:
                failures += 1
                continue
            for i, bit in enumerate(picked):
                counts[i] += bit
        assert failures == 0
        report = SimulationReport(
            method="conditional-sampling", master_seed=8080, replicates=n,
            labels=("a", "b", "c"),
            seat_sums=tuple(counts), seat_sumsqs=tuple(counts),
            quota_violations=0, bound_violations=0)
        verdict = fairness_test(report, quota_vector(fracs), z=4)
        assert not all(verdict), verdict
        # and the empirical law agrees with the enumerated conditioned law
        for i in range(3):
            p = law[i]
            sigma = math.sqrt(n * p * (1 - p))
            assert abs(counts[i] - n * p) <= 4 * sigma
        # Rerun-until-quota on offender-bearing values.
        rfix = RESAMPLE_UNFAIR
        adj = adjusted_quota_from_values(
            [F(3) + F(2, 5), F(2) + F(1, 5)], rfix["values"])
        claw = resample_conditional_law(adj)
        cond_means = claw.marginal_means()
        assert cond_means == rfix["conditional_means"]
        assert max(abs(m - v) for m, v in zip(cond_means, adj.values)) \
            > F(1, 1000)
        sums, sumsqs, fail = [0, 0], [0, 0], 0
        for k in range(n):
            try:
                alloc = resample_until_quota(
                    adj, SeededSource(child_seed(9090, k)), 10 ** 4)
            except ConvergenceError:
                fail += 1
                continue
            for i, a in enumerate(alloc.seats):
                sums[i] += a
                sumsqs[i] += a * a
        assert fail == 0
        report = SimulationReport(
            method="resample-until-quota", master_seed=9090, replicates=n,
            labels=("a", "b"), seat_sums=tuple(sums),
            seat_sumsqs=tuple(sumsqs), quota_violations=0,
            bound_violations=0)
        verdict = fairness_test(report, quota_vector(adj.values), z=4)
        assert not all(verdict), verdict


def test_criterion_9_stochastic_monotonicity():
    with criterion(9, "exact-marginal monotonicity over the pinned "
                      "200-pair corpora"):
        src = SeededSource(909)
        move_pairs = [population_move_pair(src, max_states=6,
                                           max_population=40, max_seats=25)
                      for _ in range(200)]
        move_report = monotonicity_scan(move_pairs, "population_move")
        assert move_report.checked == 200
        assert move_report.ok, move_report.failures
        src = SeededSource(910)
        house_pairs = [house_increase_pair(src, max_states=6,
                                           max_population=40, max_seats=25)
                       for _ in range(200)]
        house_report = monotonicity_scan(house_pairs, "house_increase")
        assert house_report.checked == 200
        assert house_report.ok, house_report.failures
