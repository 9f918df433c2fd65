"""Command-line interface: census ingestion, apportionment, verification.

Subcommands
-----------
apportion     allocate seats to a census file by any implemented method
distribution  exact law of the randomized scheme (small state counts)
simulate      seeded Monte Carlo report for a method
paradox-scan  search seeded corpora for Alabama/population/new-state paradoxes
bound-check   lower-bound diagnostics for a quota vector (or audit published
              original/adjusted quota pairs)
table1        per-decade lower-bound diagnostics over a directory of census
              files

Exit status: 0 on success, 1 when the request is infeasible (diagnostics on
stderr), 2 on usage or parse errors.  Identical invocations with identical
seeds produce byte-identical output.  Exact rationals are printed as
"num/den" next to a fixed-precision decimal; the decimal is never the
source of truth.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import sys
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import add, floordiv, mod, mul
from pathlib import Path

from .errors import (ApportionmentError, CapacityError, InfeasibleError,
                     InputError, _digit_limit_error, _shown)

# The library modules are imported by the subcommands that run them, so a
# one-shot run loads only what it needs.  The keys of ``divisor.RULES``, in
# its order, are spelt out here (a test holds them equal) so that building
# the parser imports no library code.
RULE_NAMES = ("adams", "dean", "hill", "webster", "jefferson")
METHOD_CHOICES = ("stochastic", "hamilton") + RULE_NAMES
FORMAT_CHOICES = ("table", "csv", "json-lines")
# The most states one paradox-scan instance may draw: every instance builds
# a problem of up to that many states, so a larger --max-states is refused
# before any draw.
MAX_SCAN_STATES = 10 ** 4
# The most paradox-scan trials one run may make: each trial is one drawn
# instance and one scan, so a larger --trials is refused before any trial.
MAX_SCAN_TRIALS = 10 ** 5
# The most house steps one Alabama paradox-scan may walk, over all its
# trials: --trials times --max-seats is refused above it before any trial.
MAX_SCAN_HOUSES = 10 ** 7
MAX_DIGITS = 4300  # longest number text read: int() reads no more digits
# A number cell, told by its shape alone so that no number is expanded to
# decide it: a digit among signs, points, '/' and exponents.
_NUMBER_SHAPE = re.compile(r"[-+./eE0-9]*[0-9][-+./eE0-9]*")


def _digit_cap() -> int:
    """The longest number text read: ``MAX_DIGITS``, or the interpreter's
    own int-to-string digit limit when that is lower."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    return min(MAX_DIGITS, limit or MAX_DIGITS)


def _checked_seed(seed: int) -> int:
    """``seed`` when it lies in 0..2**64 - 1.  The library reads a seed
    modulo 2**64, so any other --seed would draw as a different one."""
    if not 0 <= seed < 1 << 64:
        raise InputError(f"--seed must be in 0..2**64 - 1, got {seed}")
    return seed


def _quota_texts(floors, nums, den: int, places: int = 6
                 ) -> tuple[list[str], list[str]]:
    """The rationals ``f + n / den`` (den > 0, 0 <= n < den) for f, n in
    zip(floors, nums), as two columns of texts: 'p/q' in lowest terms and a
    decimal of ``places`` digits rounded half up, in integers only.

    A state's reduced fraction is (f * d + n / g) / d, with g = gcd(n, den)
    and d = den / g.  Its decimal digits are n / den scaled and rounded,
    floor(n * 10**places / den + 1/2), which carries into the whole part
    when it reaches 10**places.
    """
    scale = 10 ** places
    gcds = list(map(math.gcd, nums, repeat(den)))
    dens = list(map(floordiv, repeat(den), gcds))
    numerators = map(add, map(mul, floors, dens), map(floordiv, nums, gcds))
    twice = 2 * den
    rounded = [(2 * scale * n + den) // twice for n in nums]
    wholes = map(add, floors, map(floordiv, rounded, repeat(scale)))
    try:
        return (list(map("{}/{}".format, numerators, dens)),
                list(map(f"{{}}.{{:0{places}d}}".format, wholes,
                         map(mod, rounded, repeat(scale)))))
    except ValueError as exc:  # past the interpreter's int-to-string limit
        raise _digit_limit_error() from exc


def _rational_texts(num: int, den: int, places: int = 6) -> tuple[str, str]:
    """``num / den`` (den > 0) as 'p/q' in lowest terms and as a decimal of
    ``places`` digits rounded half away from zero, in integers only."""
    whole, n = divmod(abs(num), den)
    (fraction,), (decimal,) = _quota_texts((whole,), (n,), den, places)
    sign = "-" if num < 0 else ""
    return sign + fraction, sign + decimal


def fraction_str(f: Fraction) -> str:
    f = Fraction(f)
    return _rational_texts(f.numerator, f.denominator)[0]


def decimal_str(f: Fraction, places: int = 6) -> str:
    """Fixed-precision decimal rendering (round half away from zero)."""
    f = Fraction(f)
    return _rational_texts(f.numerator, f.denominator, places)[1]


class _NotANumber(InputError):
    """No number where a row needs one: on the first row, a header."""


def _check_length(text: str) -> None:
    if len(text) > (cap := _digit_cap()):
        raise InputError(f"number longer than {cap} characters")


def parse_fraction(text: str) -> Fraction:
    """Parse 'num/den' or decimal text to an exact rational.  An exponent
    ('1e3') is refused: Fraction would expand a power of ten of any size."""
    _check_length(text)
    if "e" not in text.lower():
        with contextlib.suppress(ValueError, ZeroDivisionError):
            return Fraction(text)
    raise _NotANumber(f"not a rational number: {text!r}")


def _integer(text: str) -> int | None:
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        _check_length(text)
        return int(text)
    return None


def _read_rows(source, what: str, value) -> dict:
    """Map each label in a CSV path or stream to ``value(row)``, in order."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, "rb") as file:
                data = file.read()
            source = io.StringIO(data.decode("utf-8"), newline="")
        except OSError as exc:
            raise InputError(f"cannot read {what} file: {exc}") from exc
        except UnicodeDecodeError as exc:
            line = len((data[:exc.start] + b".").splitlines())
            raise InputError(f"line {line}: {what} file is not UTF-8") from exc
    rows, values = csv.reader(source), {}
    try:
        for index, row in enumerate(rows):
            try:
                if row and (len(row) > 1 or row[0].strip()):
                    parsed, label = value(row), row[0].strip()
                    if not label or label in values:
                        raise InputError(f"duplicate state label {label!r}"
                                         if label else "empty state label")
                    values[label] = parsed
            except _NotANumber:  # a header: row 1, no number in its cell
                if index or len(row) > 1 and _NUMBER_SHAPE.fullmatch(
                        row[1].strip()):
                    raise
    except (InputError, csv.Error) as exc:
        raise InputError(f"line {rows.line_num}: {exc}") from exc
    return values


def parse_census(source) -> list[tuple[str, int]]:
    """Read (label, population) rows from a CSV path or stream."""
    cap = _digit_cap()

    def population(row):
        if len(row) < 2:
            raise InputError("expected 'label,population'")
        text = row[1].strip()
        if not (text.isascii() and text.isdigit()):
            raise _NotANumber(
                f"population must be a positive integer, got {text!r}")
        if len(text) > cap:
            raise InputError(f"number longer than {cap} characters")
        population = int(text)
        if population < 1:
            raise InputError("population must be >= 1")
        return population

    rows = list(_read_rows(source, "census", population).items())
    if not rows:
        raise InputError("census file contains no states")
    return rows


def parse_quota_file(source) -> tuple[list[str], list[Fraction], list]:
    """Read label,quota[,adjusted] rows; adjusted is all-or-none."""
    def quota_pair(row):
        if len(row) < 2:
            raise InputError("expected 'label,quota[,adjusted]'")
        try:
            quota = parse_fraction(row[1])
        except _NotANumber:
            raise _NotANumber(f"bad quota value {row[1]!r}") from None
        adjusted = row[2] if len(row) > 2 and row[2].strip() else None
        try:
            return quota, adjusted and parse_fraction(adjusted)
        except _NotANumber:
            raise InputError(f"bad adjusted value {adjusted!r}") from None

    pairs = _read_rows(source, "quota", quota_pair)
    if not pairs:
        raise InputError("quota file contains no states")
    quotas, adjusted = map(list, zip(*pairs.values()))
    if 0 < adjusted.count(None) < len(adjusted):
        raise InputError("adjusted quota column must be present for all states or none")
    return list(pairs), quotas, (None if None in adjusted else adjusted)


def read_lower_bound(value, labels) -> tuple[int, ...]:
    """Scalar broadcast ('1') or label,bound file (a path or stream)."""
    from .core import broadcast_lower_bound

    def bound(row):
        if len(row) < 2 or (number := _integer(row[1].strip())) is None:
            raise _NotANumber("expected 'label,bound'")
        return number

    if value is None:
        return (0,) * len(labels)
    if isinstance(value, str) and (scalar := _integer(value)) is not None:
        return broadcast_lower_bound(scalar, len(labels))
    bounds = _read_rows(value, "lower-bound", bound)
    missing = [lab for lab in labels if lab not in bounds]
    extra = [lab for lab in bounds if lab not in labels]
    if missing or extra:
        raise InputError(
            f"lower-bound file mismatch; missing {missing}, unknown {extra}")
    return broadcast_lower_bound([bounds[lab] for lab in labels], len(labels))


def _json_text(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# How json.dumps encodes a str and an exact int (not a bool), without
# building an encoder; every other value goes through _json_text.
_JSON_ENCODERS = {str: encode_basestring_ascii, int: int.__repr__}


def _json_cells(column) -> list[str]:
    """The JSON texts of one column's cells: one encoder for the column
    when all its cells share a type, else one per cell."""
    types = set(map(type, column))
    if len(types) == 1:
        return list(map(_JSON_ENCODERS.get(types.pop(), _json_text), column))
    return [_JSON_ENCODERS.get(type(v), _json_text)(v) for v in column]


class Emitter:
    """Writes rows in table/csv/json-lines form, deterministically."""

    def __init__(self, fmt: str, out):
        self.fmt = fmt
        self.out = out

    def rows(self, columns, rows, kind="row"):
        """Write a block of ``rows`` (any iterable, read once) under
        ``columns``.  csv.writer lays out csv rows and decides their
        quoting; the table and json-lines layouts turn the rows into
        columns and are built a column at a time, with one write."""
        if self.fmt == "csv":
            writer = csv.writer(self.out, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
            return
        cells = list(zip(*rows)) or [()] * len(columns)
        if self.fmt == "json-lines":
            self.out.write(self._json_lines(columns, cells, kind))
        else:
            self.out.write(self._table(columns, cells))

    @staticmethod
    def _json_lines(columns, cells, kind):
        # Each line is json.dumps({"type": kind, **row}, sort_keys=True,
        # separators=(",", ":")): the keys are sorted once per block, and
        # each key's text is interleaved with its column's cell texts.
        where = {"type": None}
        where.update((c, i) for i, c in enumerate(columns))
        count = len(cells[0]) if cells else 0
        parts = []
        for n, key in enumerate(sorted(where)):
            parts.append(repeat(("," if n else "{")
                                + encode_basestring_ascii(key) + ":", count))
            i = where[key]
            parts.append(repeat(_json_cells((kind,))[0], count) if i is None
                         else _json_cells(cells[i]))
        parts.append(repeat("}\n", count))
        return "".join(chain.from_iterable(zip(*parts)))

    @staticmethod
    def _table(columns, cells):
        # One template per block, each column left-aligned to its widest
        # text, lays out a whole line in one format call.
        texts = [[str(column), *map(str, values)]
                 for column, values in zip(columns, cells)]
        template = "  ".join([f"{{:<{max(map(len, column))}}}"
                              for column in texts])
        header, *lines = map(template.format, *texts)
        return "\n".join([header, "-" * len(header), *lines, ""])

    def note(self, text: str):
        if self.fmt == "table":
            print(text, file=self.out)

    def record(self, obj: dict):
        """Structured extra record: always emitted in json-lines, summarized
        in table mode, omitted from csv (keeps csv round-trippable)."""
        if self.fmt == "json-lines":
            self._json(obj)
        elif self.fmt == "table":
            print(json.dumps(obj, sort_keys=True, separators=(", ", ": ")),
                  file=self.out)

    def _json(self, obj):
        print(_json_text(obj), file=self.out)


def _problem_from_args(data_path, seats):
    from .core import Problem

    labels, populations = zip(*parse_census(data_path))
    return Problem(labels, populations, seats)


def _apportion_once(prob, method, bounds, src):
    """(allocation, problem quota) of one apportion run, which computes the
    quota once: the draw and the printed table share it.  The scheme and
    the divisor rules take ``bounds`` as ``read_lower_bound`` checked them,
    without a second check."""
    if method == "stochastic":
        from .stochastic import _prepared
        prepared = _prepared(prob, bounds if any(bounds) else None)
        return prepared.draw(src), prepared.quota
    from .core import compute_quota
    from .divisor import RULES, divisor_with_bounds, resolve_method

    quota = compute_quota(prob)
    if not any(bounds):
        return resolve_method(method)[1](prob), quota
    if method == "hamilton":
        raise InputError(
            "lower bounds are supported for the stochastic scheme and "
            "the divisor methods, not for hamilton")
    # The body behind the readers: the bounds are read.
    return divisor_with_bounds.__wrapped__(prob, RULES[method],
                                           bounds), quota


def _seat_rows(prob, quota, seats):
    """The rows of one apportion block.  A generator: the quota texts are
    built when the emitter reads the rows, so their cost is the
    rendering's."""
    texts = _quota_texts(quota.floors, quota.nums, quota.den)
    yield from zip(prob.labels, prob.populations, *texts, seats)


def cmd_apportion(args, out) -> int:
    from .rng import SeededSource

    emitter = Emitter(args.format, out)
    reuse = args.reuse_stream
    sizes = set()
    problems = []
    for path in args.data:
        prob = _problem_from_args(path, args.seats)
        problems.append((path, prob))
        sizes.add(prob.size)
    if reuse and len(sizes) > 1:
        raise InputError("--reuse-stream requires equal state counts across files")
    master = SeededSource(0 if args.seed is None else _checked_seed(args.seed))
    for index, (path, prob) in enumerate(problems):
        bounds = read_lower_bound(args.lower_bound, prob.labels)
        if args.method == "stochastic":
            src = SeededSource(master.seed) if reuse else master.child(index)
        else:
            src = None
        alloc, quota = _apportion_once(prob, args.method, bounds, src)
        columns = ["label", "population", "quota", "quota_decimal", "seats"]
        rows = _seat_rows(prob, quota, alloc.seats)
        if len(problems) > 1:
            emitter.note(f"# {path}")
        emitter.rows(columns, rows, kind="seat")
        record = {"type": "audit", "source": str(path),
                  "method": alloc.method, "total_seats": alloc.total}
        if args.method == "stochastic":
            record["master_seed"] = master.seed
            record["stream_seed"] = alloc.seed
            record["permutation"] = list(alloc.audit["permutation"])
            record["u"] = (f"{alloc.audit['u_numerator']}/"
                           f"{alloc.audit['u_denominator']}")
            if "trace" in alloc.audit:
                record["trace"] = alloc.audit["trace"]
        elif alloc.audit:
            cut = alloc.audit.get("cut_priority")
            nxt = alloc.audit.get("next_priority")
            record["cut_priority"] = None if cut is None else fraction_str(cut)
            record["next_priority"] = None if nxt is None else fraction_str(nxt)
            record["squared_priorities"] = alloc.audit.get("squared", False)
        emitter.record(record)
    return 0


def cmd_distribution(args, out) -> int:
    from .stochastic import ENUMERATION_LIMIT, exact_distribution

    emitter = Emitter(args.format, out)
    prob = _problem_from_args(args.data, args.seats)
    bounds = read_lower_bound(args.lower_bound, prob.labels)
    limit = ENUMERATION_LIMIT if args.limit is None else args.limit
    if any(bounds):
        from .lowerbound import lower_bound_distribution
        law = lower_bound_distribution(prob, bounds, limit=limit)
    else:
        law = exact_distribution(prob, limit=limit)
    columns = ["allocation", "probability", "probability_decimal"]
    rows = [(" ".join(str(a) for a in seats), *_rational_texts(m, law.total))
            for seats, m in law.masses.items()]
    emitter.rows(columns, rows, kind="mass")
    means = law.marginal_means()
    emitter.record({
        "type": "marginals",
        "labels": list(prob.labels),
        "expected_seats": [fraction_str(m) for m in means],
    })
    return 0


def cmd_simulate(args, out) -> int:
    from .core import compute_quota
    from .montecarlo import simulate

    emitter = Emitter(args.format, out)
    prob = _problem_from_args(args.data, args.seats)
    bounds = read_lower_bound(args.lower_bound, prob.labels)
    if args.method != "stochastic" and any(bounds):
        raise InputError("simulate supports lower bounds with --method stochastic")
    report = simulate(args.method, prob, _checked_seed(args.seed), args.n,
                      lower_bounds=bounds if any(bounds) else None)
    quota = compute_quota(prob)
    columns = ["label", "quota_decimal", "mean_seats", "mean_exact",
               "std_error"]
    rows = []
    for i, label in enumerate(prob.labels):
        mean = report.mean(i)
        rows.append((label, decimal_str(quota.quotas[i]), decimal_str(mean),
                     fraction_str(mean), f"{report.std_error(i):.6e}"))
    emitter.rows(columns, rows, kind="state")
    emitter.record({
        "type": "summary", "method": report.method,
        "master_seed": report.master_seed, "replicates": report.replicates,
        "quota_violations": report.quota_violations,
        "bound_violations": report.bound_violations,
    })
    return 0


def cmd_paradox_scan(args, out) -> int:
    from .core import Problem
    from .divisor import (RULES, detect_alabama, detect_new_state_paradox,
                          detect_population_paradox, fair_share_seats)
    from .montecarlo import random_problem
    from .rng import MAX_BOUND, SeededSource

    if args.trials < 0:
        raise InputError(f"--trials must be >= 0, got {args.trials}")
    if args.trials > MAX_SCAN_TRIALS:
        raise CapacityError(f"--trials must be at most {MAX_SCAN_TRIALS}, "
                            f"got {args.trials}")
    steps = args.trials * args.max_seats
    if args.kind == "alabama" and steps > MAX_SCAN_HOUSES:
        raise CapacityError(
            f"an Alabama scan walks at most {MAX_SCAN_HOUSES} houses over "
            f"all trials; --trials times --max-seats is {steps}")
    if not 0 <= args.max_growth < MAX_BOUND:
        raise InputError(
            f"--max-growth must be in 0..2**64 - 1, got {args.max_growth}")
    if args.max_states > MAX_SCAN_STATES:
        raise InputError(f"--max-states must be at most {MAX_SCAN_STATES}, "
                         f"got {args.max_states}")
    emitter = Emitter(args.format, out)
    src = SeededSource(_checked_seed(args.seed))
    # An Alabama scan walks its own houses; the drawn house is not read.
    min_seats, max_seats = ((1, 1) if args.kind == "alabama"
                            else (2, args.max_seats))
    # A rule that grants every state a seat has no house below the state
    # count: its scans start there, and instances it cannot seat are
    # skipped and not counted.  An empty --max-seats range stays an error.
    guaranteed = (args.method in RULES
                  and RULES[args.method].first_seat_guaranteed)
    # Each report is printed as it is found, so memory does not grow with
    # --trials.
    if args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["kind", "method", "witness"])
    reports = checked = 0
    for _ in range(args.trials):
        prob = random_problem(
            src, min_states=2, max_states=args.max_states,
            max_population=args.max_population,
            min_seats=min_seats, max_seats=max_seats)
        least = prob.size if guaranteed else 1
        if args.kind == "alabama":
            houses = range(least, args.max_seats + 1)
            if not houses and args.max_seats > 0:
                continue
            found = detect_alabama(prob, args.method, houses)
        elif args.kind == "population":
            if prob.seats < least:
                continue
            grown = tuple(p + src.randbelow(args.max_growth + 1)
                          for p in prob.populations)
            after = Problem(prob.labels, grown, prob.seats)
            found = detect_population_paradox(prob, after, args.method)
        else:
            new_pop = 1 + src.randbelow(args.max_population)
            extended = Problem(prob.labels + ("NEW",),
                               prob.populations + (new_pop,),
                               prob.seats + fair_share_seats(new_pop, prob))
            if prob.seats < least or extended.seats <= least:
                continue
            found = detect_new_state_paradox(prob, extended, args.method)
        for rep in found:
            emitter.record({"type": "paradox", "kind": rep.kind,
                            "method": rep.method, "witness": rep.witness})
            if args.format == "csv":
                writer.writerow([rep.kind, rep.method,
                                 json.dumps(rep.witness, sort_keys=True)])
        reports += len(found)
        checked += 1
    emitter.note(f"scanned {checked} instances, found {reports} reports")
    if args.format == "json-lines":
        emitter.record({"type": "summary", "kind": args.kind,
                        "method": args.method, "instances": checked,
                        "reports": reports})
    return 0


def _bound_record(adj, vb, **fields) -> dict:
    """The ``bound`` record of ``bound-check``: the offenders and the
    violation bounds, plus the mode's own ``fields``."""
    return {"type": "bound", "offenders": list(adj.offenders),
            "verbatim_bound": fraction_str(vb.verbatim),
            "union_bound": fraction_str(vb.union),
            "union_bound_decimal": decimal_str(vb.union, 3),
            "exact_for_single_offender": vb.exact_for_single_offender,
            **fields}


def cmd_bound_check(args, out) -> int:
    from .core import quota_vector
    from .lowerbound import (adjusted_quota_from_values, classify,
                             equal_representation_quota, iterate_lower_bound,
                             violation_probability_bound)

    emitter = Emitter(args.format, out)
    labels, quotas, adjusted = parse_quota_file(args.quotas)
    bounds = read_lower_bound(args.lower_bound, labels)
    if adjusted is not None:
        adj = adjusted_quota_from_values(quotas, adjusted)
        vb = violation_probability_bound(adj)
        gap_by_state = dict(vb.gaps)
        columns = ["label", "quota", "adjusted", "lower_quota", "offender",
                   "gap", "gap_decimal"]
        rows = []
        for i, label in enumerate(labels):
            gap = gap_by_state.get(i)
            rows.append((
                label, decimal_str(quotas[i]), decimal_str(adjusted[i]),
                adj.original_floors[i], "yes" if i in adj.offenders else "no",
                fraction_str(gap) if gap is not None else "",
                decimal_str(gap, 3) if gap is not None else ""))
        emitter.rows(columns, rows, kind="state")
        emitter.record(_bound_record(adj, vb))
        return 0
    if args.seats is None:
        raise InputError("--seats is required unless the quota file carries "
                         "an adjusted column")
    qv = quota_vector(quotas)
    cls_ = classify(qv, bounds, args.seats)
    if not cls_.surplus:
        raise InputError("no state's quota exceeds its bound; nothing to rescale")
    adj = equal_representation_quota(cls_, qv)
    vb = violation_probability_bound(adj)
    trace = iterate_lower_bound(qv, bounds, args.seats)
    value_by_state = dict(zip(adj.indices, adj.values))
    gap_by_state = dict(vb.gaps)
    kinds = {i: kind for kind in ("small", "exact", "surplus")
             for i in getattr(cls_, kind)}
    columns = ["label", "quota", "class", "rescaled", "offender", "gap_decimal"]
    rows = []
    for i, label in enumerate(labels):
        value = value_by_state.get(i)
        gap = gap_by_state.get(i)
        rows.append((
            label, decimal_str(quotas[i]), kinds[i],
            decimal_str(value) if value is not None else "",
            "yes" if i in adj.offenders else
            ("no" if value is not None else ""),
            decimal_str(gap, 3) if gap is not None else ""))
    emitter.rows(columns, rows, kind="state")
    emitter.record(_bound_record(
        adj, vb, scale=fraction_str(adj.scale),
        scale_decimal=decimal_str(adj.scale),
        remaining_seats=cls_.remaining_seats, small_states=list(cls_.small),
        iteration=trace.audit()))
    return 0


def cmd_table1(args, out) -> int:
    from .core import compute_quota
    from .lowerbound import classify, equal_representation_quota

    emitter = Emitter(args.format, out)
    directory = Path(args.data)
    if not directory.is_dir():
        raise InputError(f"not a directory: {directory}")
    files = sorted(directory.glob("*.csv"))
    if not files:
        raise InputError(f"no census files (*.csv) in {directory}")
    columns = ["year", "small_states", "state", "quota", "rescaled_quota"]
    rows = []
    for path in files:
        prob = _problem_from_args(path, args.seats)
        bounds = read_lower_bound(str(args.lower_bound), prob.labels)
        quota = compute_quota(prob)
        cls_ = classify(quota, bounds, args.seats)
        year = path.stem
        if not cls_.surplus:
            rows.append((year, len(cls_.small), "none", "", ""))
            continue
        adj = equal_representation_quota(cls_, quota)
        value_by_state = dict(zip(adj.indices, adj.values))
        if not adj.offenders:
            rows.append((year, len(cls_.small), "none", "", ""))
        for i in adj.offenders:
            rows.append((year, len(cls_.small), prob.labels[i],
                         decimal_str(quota.quotas[i], 3),
                         decimal_str(value_by_state[i], 3)))
    emitter.rows(columns, rows, kind="offender")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process and shared
    by every call, so no caller may change it.  Its ``subcommands`` maps
    each subcommand's name to that subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="seatlot",
        description="Exact apportionment: fair seat lottery, divisor methods, "
                    "and verification tooling.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMAT_CHOICES, default="table")

    p = sub.add_parser("apportion", help="allocate seats for a census file")
    p.add_argument("--data", required=True, nargs="+",
                   help="census CSV file(s): label,population")
    p.add_argument("--seats", required=True, type=int)
    p.add_argument("--method", required=True, choices=METHOD_CHOICES)
    p.add_argument("--seed", type=int, default=None,
                   help="64-bit seed for the stochastic scheme (default 0)")
    p.add_argument("--lower-bound", default=None,
                   help="scalar minimum per state, or a label,bound CSV file")
    p.add_argument("--reuse-stream", action="store_true",
                   help="replay identical randomness for every data file "
                        "(coupling studies); default derives a fresh child "
                        "stream per file")
    add_format(p)
    p.set_defaults(func=cmd_apportion)

    p = sub.add_parser("distribution",
                       help="exact allocation law of the randomized scheme")
    p.add_argument("--data", required=True)
    p.add_argument("--seats", required=True, type=int)
    p.add_argument("--lower-bound", default=None)
    p.add_argument("--limit", type=int, default=None,
                   help="maximum number of states to enumerate exactly "
                        "(at most 10)")
    add_format(p)
    p.set_defaults(func=cmd_distribution)

    p = sub.add_parser("simulate", help="seeded Monte Carlo report")
    p.add_argument("--data", required=True)
    p.add_argument("--seats", required=True, type=int)
    p.add_argument("--method", required=True, choices=METHOD_CHOICES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--lower-bound", default=None)
    add_format(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("paradox-scan",
                       help="search a seeded corpus for paradoxes")
    p.add_argument("--kind", required=True,
                   choices=("alabama", "population", "new-state"))
    p.add_argument("--method", required=True,
                   choices=("hamilton",) + RULE_NAMES)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-states", type=int, default=5)
    p.add_argument("--max-population", type=int, default=40)
    p.add_argument("--max-seats", type=int, default=25)
    p.add_argument("--max-growth", type=int, default=10)
    add_format(p)
    p.set_defaults(func=cmd_paradox_scan)

    p = sub.add_parser("bound-check",
                       help="lower-bound diagnostics on a quota vector")
    p.add_argument("--quotas", required=True,
                   help="CSV: label,quota[,adjusted]; quotas as decimals or "
                        "num/den")
    p.add_argument("--lower-bound", default="1")
    p.add_argument("--seats", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_bound_check)

    p = sub.add_parser("table1",
                       help="offender diagnostics per census file in a "
                            "directory")
    p.add_argument("--data", required=True, help="directory of census CSVs")
    p.add_argument("--seats", type=int, default=435)
    p.add_argument("--lower-bound", default=1)
    add_format(p)
    p.set_defaults(func=cmd_table1)
    parser.subcommands = sub.choices
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, parsed once.  The top-level
    parser hands every string after a subcommand's name to that
    subcommand's parser with ``parse_known_args`` and keeps only the name,
    so the same call is made here directly.  When no subcommand is named
    first, or its parser leaves strings unparsed, the full parse runs and
    prints its own usage errors and help."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    subparser = parser.subcommands.get(argv[0]) if argv else None
    if subparser is not None:
        args, extras = subparser.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = _parse_args(argv)
    try:
        return args.func(args, out)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        if exc.diagnostics:
            print(f"diagnostics: {_shown(exc.diagnostics, str)}",
                  file=sys.stderr)
        return 1
    except (InputError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ApportionmentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``seatlot ... | head``).  Point stdout at
        # the null device, so the flush at exit cannot fail a second time,
        # and stop with status 1 and nothing on stderr.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
