"""Output checks behind ``fail_ratio``.

Every check here is written against the problem definition, with integer
(or exact ``Fraction``) arithmetic, and never calls the code being timed:

* a stochastic or Hamilton seat vector sums to the house and gives every
  state the floor or the ceiling of ``seats*p/P``; a bounded vector also
  gives every state at least its bound;
* CLI output repeats the census, prints each quota as the reduced fraction
  ``seats*p/P`` with its 6-place decimal, and carries a consistent audit;
* a ``simulate`` report counts no quota, bound or sum violation, and its
  tallies are consistent with seats on the floor or ceiling of every draw;
* an exact law has masses summing to 1 and marginal means equal to
  ``seats*p/P``;
* a divisor allocation passes an exact price test against its audit;
* an Alabama scan reports exactly the witnesses that an independent
  Hamilton rerun of each house finds.
"""

from __future__ import annotations

import json
from fractions import Fraction


def quota_range(pops, house):
    """``[(floor, ceil)]`` of each quota ``house*p/P``."""
    total = sum(pops)
    return [(house * p // total, -(-house * p // total)) for p in pops]


def seats_ok(seats, pops, house, bound=0) -> bool:
    seats = list(seats)
    return (len(seats) == len(pops) and sum(seats) == house
            and all(lo <= a <= hi and a >= bound
                    for a, (lo, hi) in zip(seats, quota_range(pops, house))))


def fraction_text(num, den) -> str:
    f = Fraction(num, den)
    return f"{f.numerator}/{f.denominator}"


def decimal_text(num, den, places=6) -> str:
    """Non-negative ``num/den`` rounded half up to ``places`` decimals."""
    scale = 10 ** places
    n = (2 * num * scale + den) // (2 * den)
    whole, frac = divmod(n, scale)
    return f"{whole}.{str(frac).zfill(places)}"


# -- CLI output ------------------------------------------------------------

def parse_cli(text: str, fmt: str):
    """Split ``apportion`` stdout into ``[(seat rows, audit record)]``.

    A seat row is ``(label, population, quota, quota_decimal, seats)`` as
    printed.  Raises ``ValueError`` on any line that fits neither format.
    """
    problems, rows = [], []
    lines = text.splitlines()
    if fmt == "json-lines":
        for line in lines:
            obj = json.loads(line)
            if obj["type"] == "seat":
                rows.append((obj["label"], str(obj["population"]),
                             obj["quota"], obj["quota_decimal"],
                             str(obj["seats"])))
            elif obj["type"] == "audit":
                problems.append((rows, obj))
                rows = []
            else:
                raise ValueError(f"unexpected record {obj['type']!r}")
        return problems
    k = 0
    while k < len(lines):
        line = lines[k]
        if line.startswith("# "):
            k += 1
        elif line.split() == ["label", "population", "quota",
                              "quota_decimal", "seats"]:
            if not set(lines[k + 1]) <= {"-"}:
                raise ValueError("table header without rule line")
            k += 2
        elif line.startswith("{"):
            problems.append((rows, json.loads(line)))
            rows = []
            k += 1
        else:
            fields = line.split()
            if len(fields) != 5:
                raise ValueError(f"bad table row {line!r}")
            rows.append(tuple(fields))
            k += 1
    return problems


def cli_ok(text, fmt, censuses, house, bound) -> bool:
    """One ``apportion --method stochastic`` stdout against its censuses."""
    try:
        problems = parse_cli(text, fmt)
    except (ValueError, KeyError, IndexError):
        return False
    if len(problems) != len(censuses):
        return False
    method = "stochastic-lower-bound" if bound else "stochastic"
    for (rows, audit), census in zip(problems, censuses):
        pops = [p for _, p in census]
        total = sum(pops)
        if len(rows) != len(census):
            return False
        seats = []
        for (label, pop, quota, qdec, seat), (want_label, want_pop) in zip(
                rows, census):
            if (label != want_label or pop != str(want_pop)
                    or quota != fraction_text(house * want_pop, total)
                    or qdec != decimal_text(house * want_pop, total)
                    or not seat.isdigit()):
                return False
            seats.append(int(seat))
        if not seats_ok(seats, pops, house, bound):
            return False
        if (audit.get("method") != method
                or audit.get("total_seats") != house
                or sorted(audit.get("permutation", ())) != list(range(len(pops)))):
            return False
    return True


# -- Monte Carlo reports and exact laws -------------------------------------

def report_ok(report, pops, house, n, bound=0) -> bool:
    """Tallies of ``n`` draws that each put a state on its floor or ceiling.

    With seats in {f, f+1}, a^2 = f^2 + (2f+1)(a-f), so the sum of squares
    is fixed by the sum: n*f^2 + (2f+1)*(S - n*f).
    """
    if (report.replicates != n or report.quota_violations
            or report.bound_violations
            or getattr(report, "sum_mismatches", 0)
            or sum(report.seat_sums) != n * house):
        return False
    for (lo, hi), s, sq in zip(quota_range(pops, house), report.seat_sums,
                               report.seat_sumsqs):
        if not n * max(lo, bound) <= s <= n * hi:
            return False
        if sq != n * lo * lo + (2 * lo + 1) * (s - n * lo):
            return False
    return True


def law_ok(law, pops, house) -> bool:
    total = sum(pops)
    items = list(law.items())
    if sum((p for _, p in items), Fraction(0)) != 1:
        return False
    if not all(p > 0 and seats_ok(seats, pops, house) for seats, p in items):
        return False
    for i, pop in enumerate(pops):
        mean = sum((p * seats[i] for seats, p in items), Fraction(0))
        if mean != Fraction(house * pop, total):
            return False
    return True


# -- Deterministic methods ---------------------------------------------------

def priority(rule, pop, b):
    """Priority of a state's seat number b+1; None is infinite (first seat).

    Hill's is the square of its priority, which orders the same way.
    """
    if rule == "adams":
        return None if b == 0 else Fraction(pop, b)
    if rule == "dean":
        return None if b == 0 else Fraction(pop * (2 * b + 1), 2 * b * (b + 1))
    if rule == "hill":
        return None if b == 0 else Fraction(pop * pop, b * (b + 1))
    if rule == "webster":
        return Fraction(2 * pop, 2 * b + 1)
    if rule == "jefferson":
        return Fraction(pop, b + 1)
    raise ValueError(f"unknown rule {rule!r}")


def _key(value):
    # Infinite priorities sort above every finite one.
    return (1, 0) if value is None else (0, value)


def divisor_ok(alloc, rule, pops, house) -> bool:
    """Exact price test: every seat granted outranks every seat withheld,
    and the audit's cut and next priorities are exactly the last granted
    and the best withheld."""
    seats = list(alloc.seats)
    audit = alloc.audit or {}
    if len(seats) != len(pops) or sum(seats) != house:
        return False
    if audit.get("squared") != (rule == "hill"):
        return False
    granted = [priority(rule, p, a - 1) for p, a in zip(pops, seats) if a]
    withheld = [priority(rule, p, a) for p, a in zip(pops, seats)]
    cut = min(granted, key=_key)
    best = max(withheld, key=_key)
    return (_key(cut) >= _key(best)
            and _key(audit.get("cut_priority")) == _key(cut)
            and _key(audit.get("next_priority")) == _key(best))


def bounded_divisor_ok(alloc, rule, pops, house, bound) -> bool:
    """Price test for ``divisor_with_bounds``: states whose quota does not
    exceed the bound sit at the bound; among the others every seat above
    the bound outranks every withheld seat."""
    seats = list(alloc.seats)
    total = sum(pops)
    if len(seats) != len(pops) or sum(seats) != house:
        return False
    granted, withheld = [], []
    for p, a in zip(pops, seats):
        if house * p <= bound * total:
            if a != bound:
                return False
            continue
        if a < bound:
            return False
        if a > bound:
            granted.append(priority(rule, p, a - 1))
        withheld.append(priority(rule, p, a))
    return not granted or min(map(_key, granted)) >= max(map(_key, withheld))


def hamilton(pops, house) -> list[int]:
    """Largest remainders; remainder ties to the larger state, then the
    earlier one."""
    total = sum(pops)
    seats, rems = [], []
    for p in pops:
        q, r = divmod(house * p, total)
        seats.append(q)
        rems.append(r)
    order = sorted(range(len(pops)), key=lambda i: (-rems[i], -pops[i], i))
    for i in order[:house - sum(seats)]:
        seats[i] += 1
    return seats


def hamilton_ok(alloc, pops, house) -> bool:
    return list(alloc.seats) == hamilton(pops, house)


def alabama_ok(reports, labels, pops, houses) -> bool:
    """The scan's witnesses are exactly those an independent rerun of every
    house in the range finds, each with its two houses' seats."""
    houses = sorted(set(houses))
    allocs = {r: hamilton(pops, r) for r in houses}
    want = sorted((r, i, allocs[r][i], allocs[r + 1][i])
                  for r in houses if r + 1 in allocs
                  for i in range(len(pops)) if allocs[r + 1][i] < allocs[r][i])
    got = []
    for rep in reports:
        w = rep.witness
        if (rep.kind != "alabama" or w["labels"] != list(labels)
                or w["populations"] != list(pops)
                or w["house_after"] != w["house_before"] + 1
                or w["label"] != labels[w["state"]]):
            return False
        got.append((w["house_before"], w["state"], w["seats_before"],
                    w["seats_after"]))
    return sorted(got) == want
