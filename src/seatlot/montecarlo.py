"""Statistical verification lab: seeded simulation, fairness z-tests,
stochastic dominance, and monotonicity scans over exact marginals.

Every simulation is a pure function of (method, problem, master seed,
replicate count): replicate k draws from the stream seeded by
``child_seed(master_seed, k)``, and results are integer accumulations, so
any execution order - or backend - produces the identical report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import _backend
from ._kernels_py import MAX_MASK_STATES
from .core import (_READERS, Problem, QuotaVector, _instance, _state_index,
                   as_tuple, check_integers, compute_quota, entry, problem)
from .divisor import resolve_method
from .errors import CapacityError, InputError, _shown
from .rng import MAX_BOUND, SeededSource, child_seed
from .stochastic import (ENUMERATION_LIMIT, _prepared, _seats_from_mask,
                         exact_distribution)

# The most replicates one simulate or empirical_distribution call draws;
# more are refused with CapacityError before any replicate runs.  The pure
# batch draws about 42,000 replicates a second at 50 states (perfbench
# lab_replicates, 2 vCPUs), so a call at the ceiling runs for about four
# minutes, not hours.
REPLICATE_CEILING = 10 ** 7


def _report(report) -> SimulationReport:
    """A SimulationReport of at least one replicate whose seat sums and
    sums of squares are tuples of non-negative integers."""
    _read_report(report)
    sums, sumsqs = report.seat_sums, report.seat_sumsqs
    if not type(sums) is type(sumsqs) is tuple:
        raise InputError("report seat sums and sums of squares must be "
                         "tuples")
    check_integers(sums + sumsqs, "seat sum", 0)
    check_integers((report.replicates,), "replicate count", 1)
    return report


def _report_state(i, report) -> int:
    """State ``i`` of ``report``, which holds a seat sum and a sum of
    squares for each state."""
    if len(_report(report).seat_sums) != len(report.seat_sumsqs):
        raise InputError("report seat sums and sums of squares differ in "
                         "length")
    return _state_index(i, report)


# The methods of a report read their state index through its fields; these
# readers are in place before the methods are defined.
_READERS.update(dict.fromkeys(("mean.i", "variance.i", "std_error.i"),
                              _report_state))


@dataclass(frozen=True)
class SimulationReport:
    """Integer-exact summary of n seeded replicates."""

    method: str
    master_seed: int
    replicates: int
    labels: tuple[str, ...]
    seat_sums: tuple[int, ...]
    seat_sumsqs: tuple[int, ...]
    quota_violations: int
    bound_violations: int
    sum_mismatches: int = 0

    @property
    def size(self) -> int:
        return len(self.seat_sums)

    @entry
    def mean(self, i: int) -> Fraction:
        return Fraction(self.seat_sums[i], self.replicates)

    def means(self) -> tuple[Fraction, ...]:
        return tuple(self.mean(i) for i in range(self.size))

    @entry
    def variance(self, i: int) -> Fraction:
        """Sample variance of state i's seats (0 when n < 2)."""
        n = self.replicates
        if n < 2:
            return Fraction(0)
        return Fraction(n * self.seat_sumsqs[i] - self.seat_sums[i] ** 2,
                        n * (n - 1))

    @entry
    def std_error(self, i: int) -> float:
        return math.sqrt(self.variance(i) / self.replicates)


def _replicates(n) -> int:
    check_integers((n,), "replicate count", 1)
    if n > REPLICATE_CEILING:
        raise CapacityError(f"a simulation draws at most {REPLICATE_CEILING} "
                            f"replicates, got {_shown(n, str)}")
    return n


_read_report = _instance(SimulationReport)
_READERS.update(n=_replicates, report=_report)


def _scheme_batch(prob: Problem, lower_bounds, master_seed: int, n: int):
    """n seeded replicates of the scheme on ``prob`` in one kernel call:
    (prepared problem, kernel result)."""
    p = _prepared(prob, lower_bounds)
    return p, _backend.simulate_batch(
        p.scheme.floors, p.scheme.nums, p.scheme.den, list(p.quota.floors),
        list(p.quota.ceilings), list(p.bounds), master_seed, n, prob.seats)


def _tally(name: str, prob: Problem, bounds, draws):
    """(seat sums, sums of squares, quota violations, bound violations, sum
    mismatches) over the seat vectors ``draws`` of method ``name``; a seat
    vector of the wrong length is refused, naming the method."""
    quota = compute_quota(prob)
    floors, ceilings = quota.floors, quota.ceilings
    sums = [0] * prob.size
    sumsqs = [0] * prob.size
    qviol = bviol = mismatches = 0
    for seats in draws:
        if len(seats) != prob.size:
            raise InputError(f"method {name!r} returned {len(seats)} seats "
                             f"for {prob.size} states")
        bad_quota = bad_bound = False
        for i, a in enumerate(seats):
            sums[i] += a
            sumsqs[i] += a * a
            if not floors[i] <= a <= ceilings[i]:
                bad_quota = True
            if a < bounds[i]:
                bad_bound = True
        qviol += bad_quota
        bviol += bad_bound
        mismatches += sum(seats) != prob.seats
    return sums, sumsqs, qviol, bviol, mismatches


@entry
def simulate(method, prob: Problem, master_seed: int, n: int,
             lower_bounds=None) -> SimulationReport:
    """Run n independent replicates of a method and tally exactly.

    ``method`` is ``"stochastic"``, a deterministic method name, or a
    callable ``(problem, source) -> Allocation``.  Reports per-state seat
    sums and sums of squares plus counts of replicates violating quota or
    the lower bounds.  A master seed that is a bool or not an integer is
    refused with ``InputError``, more than ``REPLICATE_CEILING``
    replicates with ``CapacityError``, and a seat vector whose length is
    not the state count with ``InputError``.
    """
    if method == "stochastic":
        prepared, (sums, sumsqs, qviol, bviol, mismatches, _masks) = (
            _scheme_batch(prob, lower_bounds, master_seed, n))
        name, scale = prepared.method, 1
    else:
        bounds = (0,) * prob.size if lower_bounds is None else lower_bounds
        if callable(method):
            name, scale = getattr(method, "__name__", "custom"), 1
            draws = (method(prob, SeededSource(child_seed(master_seed, k)))
                     .seats for k in range(n))
        else:
            # A deterministic method ignores its stream: one evaluation,
            # scaled by n, tallies as n replicates would.
            name, fn = resolve_method(method)
            draws, scale = (fn(prob).seats,), n
        sums, sumsqs, qviol, bviol, mismatches = _tally(name, prob, bounds,
                                                        draws)
    return SimulationReport(
        method=name, master_seed=master_seed, replicates=n,
        labels=prob.labels, seat_sums=tuple(scale * a for a in sums),
        seat_sumsqs=tuple(scale * a for a in sumsqs),
        quota_violations=scale * qviol, bound_violations=scale * bviol,
        sum_mismatches=scale * mismatches)


@entry
def empirical_distribution(prob: Problem, master_seed: int, n: int,
                           lower_bounds=None) -> dict[tuple[int, ...], int]:
    """Allocation -> count over n seeded replicates of the scheme; the
    master seed and n are checked as by :func:`simulate`."""
    if prob.size > MAX_MASK_STATES:
        raise CapacityError("empirical distribution tracking supports at "
                            f"most {MAX_MASK_STATES} states")
    prepared, (*_tallies, masks) = _scheme_batch(
        prob, lower_bounds, master_seed, n)
    # Distinct masks give distinct seat vectors (the floors plus the mask's
    # bits), so no two counts share a key.
    return dict(sorted((_seats_from_mask(prepared.scheme.floors, mask), count)
                       for mask, count in enumerate(masks) if count))


@entry
def fairness_test(report: SimulationReport, quota: QuotaVector,
                  z=4) -> tuple[bool, ...]:
    """Per-state pass/fail: |empirical mean - quota| <= z standard errors.

    The comparison is exact (rational arithmetic on the squared inequality).
    Zero-variance states pass only on exact equality.
    """
    if not len(report.seat_sums) == len(report.seat_sumsqs) == quota.size:
        raise InputError("report and quota vector differ in length")
    n = report.replicates
    out = []
    for i, q in enumerate(quota.quotas):
        if n == 1:
            out.append(Fraction(report.seat_sums[i]) == q)
            continue
        lhs = (Fraction(report.seat_sums[i]) - n * q) ** 2 * (n - 1)
        rhs = z * z * (n * report.seat_sumsqs[i] - report.seat_sums[i] ** 2)
        out.append(lhs <= rhs)
    return tuple(out)


@entry
def stochastic_dominance(lower: dict, upper: dict) -> bool:
    """True iff ``lower`` is stochastically at most ``upper``.

    Both arguments are exact marginal laws (seat count -> probability); the
    test is the pointwise CDF comparison CDF(lower) >= CDF(upper).
    """
    support = sorted(set(lower) | set(upper))
    c_lower = c_upper = Fraction(0)
    for x in support:
        c_lower += lower.get(x, 0)
        c_upper += upper.get(x, 0)
        if c_lower < c_upper:
            return False
    return True


@dataclass(frozen=True)
class ProblemPair:
    """Two problems differing by one population move or one extra seat."""

    before: Problem
    after: Problem
    moved_from: Optional[int] = None
    moved_to: Optional[int] = None


@dataclass
class MonotonicityReport:
    kind: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _kind(kind) -> str:
    if kind not in ("population_move", "house_increase"):
        raise InputError(f"unknown monotonicity kind {_shown(kind)}")
    return kind


_read_pair = _instance(ProblemPair)
_READERS.update(kind=_kind, pairs=lambda pairs: tuple(
    map(_read_pair, as_tuple(pairs, "pairs"))))


@entry
def monotonicity_scan(pairs: Sequence[ProblemPair], kind: str,
                      *, limit: int = ENUMERATION_LIMIT
                      ) -> MonotonicityReport:
    """Exact-marginal dominance verdicts over a corpus of problem pairs.

    ``population_move`` checks that the losing state's seat law does not
    rise and the gaining state's does not fall; ``house_increase`` checks
    every state's law is non-decreasing.  Dominance is computed from exact
    distributions, not coupled sampling; any failure is recorded with a full
    witness.
    """
    report = MonotonicityReport(kind=kind)
    for pair in pairs:
        law_before = exact_distribution(pair.before, limit=limit)
        law_after = exact_distribution(pair.after, limit=limit)
        if kind == "population_move":
            checks = []
            if pair.moved_from is not None:
                checks.append((pair.moved_from, "after_at_most_before",
                               law_after.marginal_law(pair.moved_from),
                               law_before.marginal_law(pair.moved_from)))
            if pair.moved_to is not None:
                checks.append((pair.moved_to, "after_at_least_before",
                               law_before.marginal_law(pair.moved_to),
                               law_after.marginal_law(pair.moved_to)))
        else:
            if (pair.before.populations != pair.after.populations
                    or pair.after.seats != pair.before.seats + 1):
                raise InputError(
                    "house_increase pairs must share populations and differ "
                    "by one seat")
            checks = [(i, "after_at_least_before",
                       law_before.marginal_law(i), law_after.marginal_law(i))
                      for i in range(pair.before.size)]
        report.checked += 1
        for state, direction, lower, upper in checks:
            if not stochastic_dominance(lower, upper):
                report.failures.append({
                    "state": state,
                    "direction": direction,
                    "before_populations": list(pair.before.populations),
                    "after_populations": list(pair.after.populations),
                    "seats": (pair.before.seats, pair.after.seats),
                })
    return report


@entry
def random_problem(src: SeededSource, *, min_states: int = 1,
                   max_states: int = 6, max_population: int = 60,
                   max_seats: int = 30, min_seats: int = 0) -> Problem:
    """Uniform-ish random instance for scan corpora; deterministic in src.

    Each range may hold at most ``MAX_BOUND`` (2**64) values, the most one
    draw of ``src`` covers.
    """
    for what, low, high in (("state count", min_states, max_states),
                            ("population", 1, max_population),
                            ("house size", min_seats, max_seats)):
        if low > high:
            raise InputError(f"empty {what} range: {low}..{high}")
        if high - low + 1 > MAX_BOUND:
            raise InputError(f"{what} range {low}..{high} holds more than "
                             f"2**64 values")
    s = min_states + src.randbelow(max_states - min_states + 1)
    pops = tuple(1 + src.randbelow(max_population) for _ in range(s))
    seats = min_seats + src.randbelow(max_seats - min_seats + 1)
    return problem(pops, seats)


@entry
def population_move_pair(src: SeededSource, **kwargs) -> ProblemPair:
    """Random pair: same totals, some heads moved from one state to another."""
    if kwargs.get("max_population", 2) < 2:
        raise InputError("a population move needs a max_population of "
                         f"at least 2, got {_shown(kwargs['max_population'])}")
    # A move needs two states; a caller may ask for more.
    kwargs["min_states"] = max(2, kwargs.get("min_states", 2))
    while True:
        before = random_problem(src, **kwargs)
        movable = [i for i, p in enumerate(before.populations) if p >= 2]
        if movable:
            break
    i = movable[src.randbelow(len(movable))]
    j = src.randbelow(before.size - 1)
    if j >= i:
        j += 1
    m = 1 + src.randbelow(before.populations[i] - 1)
    pops = list(before.populations)
    pops[i] -= m
    pops[j] += m
    after = Problem(before.labels, tuple(pops), before.seats)
    return ProblemPair(before=before, after=after, moved_from=i, moved_to=j)


@entry
def house_increase_pair(src: SeededSource, **kwargs) -> ProblemPair:
    before = random_problem(src, **kwargs)
    after = Problem(before.labels, before.populations, before.seats + 1)
    return ProblemPair(before=before, after=after)
