"""The three benchmark workloads.

Each workload is a list of phases.  A phase makes op ``k`` from
``(seed, phase, k)`` alone, so the same seed gives the same inputs, and a
run executes ops 0, 1, 2, ... of every phase, interleaved.  Every op gets a
fresh seeded census, so a run averages over many inputs.  ``make(k)`` does the
untimed work (input generation, writing census files); ``Op.run`` is the
timed call into the package; ``Op.check`` verifies its output with
:mod:`checks`; ``Op.canon`` gives the bytes that go into the replay digest.

Every workload reports the same end-to-end slots (see ``run.py``):

================  ==================  ==================  ====================
slot              census_apportion    lab_replicates      divisor_houses
================  ==================  ==================  ====================
op_p50_ms         one unbounded call  one callable draw   one 435-seat call
throughput_per_s  CLI calls           batch replicates    Alabama-scan houses
heavy_p50_ms      one bounded call    one exact law       one 10^5-seat call
================  ==================  ==================  ====================
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from census import STATES, census, rng_for, to_csv
import checks

import seatlot
from seatlot import cli, divisor, lowerbound, montecarlo, stochastic

HOUSE = 435
LARGE_HOUSE = 100_000
BATCH_REPLICATES = 2000
DRAWS_PER_OP = 50
ALABAMA_HOUSES = range(HOUSE, HOUSE + 1000)
ONE_SEAT_EACH = (1,) * STATES
SMALL_METHODS = tuple(divisor.RULES) + ("hamilton", "hill+bound1")
LARGE_METHODS = tuple(divisor.RULES) + ("hamilton",)


@dataclass
class Op:
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    canon: Callable[[Any], bytes]
    work: int = 1
    rendered: Optional[Callable[[Any], int]] = None  # CLI output bytes
    kind: str = ""   # the variant a p50 may be restricted to


@dataclass
class Phase:
    """The phase gets ``share`` of the run's wall time, but never fewer
    than ``min_ops`` ops, and always whole ``cycle``s of ops (one of each
    variant).  The traced run and the replay digest use the first
    ``trace_ops`` ops; ``warm_ops`` ops precede the measurement."""

    name: str
    share: float
    min_ops: int
    trace_ops: int
    make: Callable[[int], Op]
    rate_name: str
    warm_ops: int = 1
    cycle: int = 1
    replay_every: int = 0


@dataclass
class Workload:
    """``latency`` names the phase behind op_p50_ms and the reported p99,
    ``throughput`` the phase behind throughput_per_s and ``heavy`` the phase
    behind heavy_p50_ms; a ``*_kind`` restricts its p50 to the ops of that
    kind, and op_p50_ms is per ``latency_work`` units of an op's work.
    ``aliases`` gives those figures their names in this workload."""

    name: str
    why: str
    latency: str
    throughput: str
    heavy: str
    aliases: dict[str, str]
    phases: list[Phase] = field(default_factory=list)
    latency_kind: Optional[str] = None
    heavy_kind: Optional[str] = None
    latency_work: int = 1


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _report_bytes(rep) -> bytes:
    return _json_bytes([rep.method, rep.replicates, list(rep.seat_sums),
                        list(rep.seat_sumsqs), rep.quota_violations,
                        rep.bound_violations,
                        getattr(rep, "sum_mismatches", 0)])


def _law_bytes(law) -> bytes:
    return _json_bytes(sorted([list(seats), p.numerator, p.denominator]
                              for seats, p in law.items()))


def _alloc_bytes(alloc) -> bytes:
    audit = alloc.audit or {}
    return _json_bytes([list(alloc.seats),
                        str(audit.get("cut_priority")),
                        str(audit.get("next_priority"))])


def _problem(rows, seats):
    return seatlot.Problem(tuple(lab for lab, _ in rows),
                           tuple(pop for _, pop in rows), seats)


# -- census_apportion ---------------------------------------------------------

def census_apportion(seed: int, workdir: Path) -> Workload:
    path = workdir / "census.csv"

    def apportion(k):
        bound = k % 2 == 0
        fmt = "table" if (k // 2) % 2 == 0 else "json-lines"
        rows = census(rng_for(seed, "apportion", k))
        path.write_text(to_csv(rows), encoding="utf-8")
        argv = (["apportion", "--data", str(path), "--seats", str(HOUSE),
                 "--method", "stochastic", "--format", fmt,
                 "--seed", str(rng_for(seed, "cli-seed", 1, k)
                               .getrandbits(63))]
                + (["--lower-bound", "1"] if bound else []))

        def run():
            out = io.StringIO()
            return cli.main(argv, out=out), out.getvalue()

        def check(result):
            rc, text = result
            return rc == 0 and checks.cli_ok(text, fmt, [rows], HOUSE,
                                             1 if bound else 0)

        return Op(run, check, lambda result: result[1].encode("utf-8"),
                  rendered=lambda result: len(result[1].encode("utf-8")),
                  kind="bounded" if bound else "unbounded")

    return Workload(
        "census_apportion",
        "the paper's headline use: one fresh census per CLI call, so nothing "
        "is reused; parsing, Fraction quotas, iteration and rendering dominate",
        latency="apportion", throughput="apportion", heavy="apportion",
        latency_kind="unbounded", heavy_kind="bounded",
        aliases={"op_p50_ms": "apportion_unbounded_p50_ms",
                 "op_p99_ms": "apportion_p99_ms",
                 "heavy_p50_ms": "apportion_bounded_p50_ms"},
        phases=[Phase("apportion", 1.0, min_ops=1500, trace_ops=200,
                      make=apportion, rate_name="apportions_per_s",
                      warm_ops=4, cycle=4, replay_every=25)])


# -- lab_replicates -----------------------------------------------------------

def lab_replicates(seed: int, workdir: Path) -> Workload:
    wl = Workload(
        "lab_replicates",
        "each report runs on one census, so setup is paid once per report and "
        "kernel work dominates; big batches and single draws use the kernel "
        "two ways",
        latency="draws", throughput="batch", heavy="exact",
        latency_work=DRAWS_PER_OP,
        aliases={"op_p50_ms": "draw_p50_ms", "op_p99_ms": "draw_p99_ms",
                 "heavy_p50_ms": "exact_law_p50_ms"})

    def batch(k):
        bound = 1 if k % 2 else None
        rng = rng_for(seed, "batch", k)
        rows = census(rng)
        pops = [p for _, p in rows]
        prob = _problem(rows, HOUSE)
        master = rng.getrandbits(63)
        return Op(lambda: montecarlo.simulate("stochastic", prob, master,
                                              BATCH_REPLICATES,
                                              lower_bounds=bound),
                  lambda rep: checks.report_ok(rep, pops, HOUSE,
                                               BATCH_REPLICATES, bound or 0),
                  _report_bytes, work=BATCH_REPLICATES)

    def lower_bound_draw(problem, src):
        # simulate calls ``method(problem, source)``; this binds the bound.
        return lowerbound.lower_bound_apportion(problem, ONE_SEAT_EACH, src)

    def draws(k):
        rng = rng_for(seed, "draws", k)
        rows = census(rng)
        pops = [p for _, p in rows]
        prob = _problem(rows, HOUSE)
        master = rng.getrandbits(63)
        return Op(lambda: montecarlo.simulate(lower_bound_draw, prob, master,
                                              DRAWS_PER_OP, lower_bounds=1),
                  lambda rep: checks.report_ok(rep, pops, HOUSE,
                                               DRAWS_PER_OP, 1),
                  _report_bytes, work=DRAWS_PER_OP)

    def exact(k):
        rng = rng_for(seed, "exact", k)
        small = census(rng, states=8)
        seats = 20 + rng.randrange(61)
        problem = _problem(small, seats)
        small_pops = [p for _, p in small]
        return Op(lambda: stochastic.exact_distribution(problem),
                  lambda law: checks.law_ok(law, small_pops, seats),
                  _law_bytes)

    wl.phases = [
        Phase("batch", 0.4, min_ops=8, trace_ops=4, make=batch,
              rate_name="replicates_per_s", cycle=2),
        Phase("draws", 0.3, min_ops=25, trace_ops=6, make=draws,
              rate_name="draws_per_s"),
        Phase("exact", 0.3, min_ops=15, trace_ops=6, make=exact,
              rate_name="exact_laws_per_s"),
    ]
    return wl


# -- divisor_houses -----------------------------------------------------------

def divisor_houses(seed: int, workdir: Path) -> Workload:
    def method_op(methods, phase, k, house):
        # All methods of one cycle share a census.
        method = methods[k % len(methods)]
        rows = census(rng_for(seed, phase, k // len(methods)))
        pops = [p for _, p in rows]
        prob = _problem(rows, house)
        if method == "hamilton":
            return Op(lambda: divisor.hamilton_apportion(prob),
                      lambda a: checks.hamilton_ok(a, pops, house),
                      _alloc_bytes)
        if method == "hill+bound1":
            return Op(lambda: divisor.divisor_with_bounds(
                          prob, divisor.RULES["hill"], 1),
                      lambda a: checks.bounded_divisor_ok(a, "hill", pops,
                                                          house, 1),
                      _alloc_bytes)
        return Op(lambda: divisor.divisor_apportion(prob, divisor.RULES[method]),
                  lambda a: checks.divisor_ok(a, method, pops, house),
                  _alloc_bytes)

    def alabama(k):
        rows = census(rng_for(seed, "alabama", k))
        labels = [lab for lab, _ in rows]
        pops = [p for _, p in rows]
        prob = _problem(rows, HOUSE)
        return Op(lambda: divisor.detect_alabama(prob, "hamilton",
                                                 ALABAMA_HOUSES),
                  lambda reps: checks.alabama_ok(reps, labels, pops,
                                                 ALABAMA_HOUSES),
                  lambda reps: _json_bytes([r.witness for r in reps]),
                  work=len(ALABAMA_HOUSES))

    return Workload(
        "divisor_houses",
        "cost grows with house size (435 and 10^5 seats, Alabama scans); no "
        "kernel runs, so a jump-and-step change shows here and nowhere else",
        latency="small", throughput="alabama", heavy="large",
        aliases={"op_p50_ms": "divisor_small_p50_ms",
                 "op_p99_ms": "divisor_small_p99_ms",
                 "heavy_p50_ms": "divisor_large_p50_ms"},
        phases=[
            Phase("small", 0.25, min_ops=1400, trace_ops=70,
                  make=lambda k: method_op(SMALL_METHODS, "small", k, HOUSE),
                  rate_name="divisor_small_per_s",
                  warm_ops=len(SMALL_METHODS), cycle=len(SMALL_METHODS)),
            Phase("large", 0.35, min_ops=2 * len(LARGE_METHODS),
                  trace_ops=len(LARGE_METHODS),
                  make=lambda k: method_op(LARGE_METHODS, "large", k,
                                           LARGE_HOUSE),
                  rate_name="divisor_large_per_s",
                  warm_ops=0, cycle=len(LARGE_METHODS)),
            Phase("alabama", 0.4, min_ops=3, trace_ops=2, make=alabama,
                  rate_name="alabama_houses_per_s", warm_ops=0)])


WORKLOADS = {
    "census_apportion": census_apportion,
    "lab_replicates": lab_replicates,
    "divisor_houses": divisor_houses,
}
