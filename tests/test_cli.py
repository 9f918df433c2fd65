import argparse
import csv
import hashlib
import io
import json
import math
import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fixtures
from seatlot import (_backend, cli, lowerbound, montecarlo, problem,
                     stochastic)
from seatlot.cli import (FORMAT_CHOICES, MAX_DIGITS, MAX_SCAN_HOUSES,
                         MAX_SCAN_STATES, MAX_SCAN_TRIALS, RULE_NAMES,
                         Emitter, _rational_texts, decimal_str, fraction_str,
                         main, parse_census, parse_fraction, parse_quota_file,
                         read_lower_bound)
from seatlot.core import compute_quota
from seatlot.divisor import ALABAMA_HOUSE_CEILING, RULES, divisor_apportion
from seatlot.errors import CapacityError, InputError
from seatlot.montecarlo import REPLICATE_CEILING
from seatlot.rng import SeededSource


TOO_LONG = f"number longer than {MAX_DIGITS} characters"
# A stochastic apportion of the golden 50-state census (golden_inputs).
APPORTION = ["apportion", "--data", "c50.csv", "--seats", "435", "--method",
             "stochastic"]


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


@pytest.fixture
def census(tmp_path):
    path = tmp_path / "states.csv"
    path.write_text("A,2\nB,3\n")
    return str(path)


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("A,1\nB,1\nC,7\n")
    return str(path)


# --- parsing ----------------------------------------------------------------

def test_parse_census_basic():
    rows = parse_census(io.StringIO("A,2\nB,3\n"))
    assert rows == [("A", 2), ("B", 3)]


def test_parse_census_header_tolerated():
    rows = parse_census(io.StringIO("state,population\nA,2\nB,3\n"))
    assert rows == [("A", 2), ("B", 3)]


def test_parse_census_duplicate_label_with_line():
    with pytest.raises(InputError) as exc:
        parse_census(io.StringIO("A,2\nA,3\n"))
    assert "line 2" in str(exc.value)


def test_parse_census_bad_population_with_line():
    with pytest.raises(InputError) as exc:
        parse_census(io.StringIO("A,2\nB,zero\n"))
    assert "line 2" in str(exc.value)
    with pytest.raises(InputError):
        parse_census(io.StringIO("A,0\n"))
    with pytest.raises(InputError):
        parse_census(io.StringIO("A,-3\n"))


def test_census_non_ascii_digit_is_an_input_error(tmp_path, capsys):
    # "\u00b2".isdigit() holds but int() rejects it.
    path = tmp_path / "states.csv"
    path.write_text("A,2\nB,\u00b2\n", encoding="utf-8")
    code, _ = run_cli(["apportion", "--data", str(path), "--seats", "3",
                       "--method", "hamilton"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")


def test_parse_census_empty_file():
    with pytest.raises(InputError):
        parse_census(io.StringIO(""))


def test_parse_census_fifty_rows_roundtrip():
    text = "".join(f"S{i},{i * 13 + 1}\n" for i in range(50))
    rows = parse_census(io.StringIO(text))
    assert len(rows) == 50
    assert rows[7] == ("S7", 92)


def test_parse_fraction_forms():
    assert parse_fraction("43.038") == F(21519, 500)
    assert parse_fraction("21519/500") == F(21519, 500)
    # Fraction would expand an exponent into a power of ten of any size.
    for text in ("many", "1e3", "1E-3", "1e999999999", "1e-999999999"):
        with pytest.raises(InputError, match="^not a rational number"):
            parse_fraction(text)
    with pytest.raises(InputError, match=f"^{TOO_LONG}$"):
        parse_fraction("1/" + "3" * MAX_DIGITS)


def test_rendering_helpers():
    assert fraction_str(F(19, 500)) == "19/500"
    assert decimal_str(F(19, 500), 3) == "0.038"
    assert decimal_str(F(1, 1000), 3) == "0.001"
    assert decimal_str(F(14, 5)) == "2.800000"
    assert decimal_str(F(-1, 2), 2) == "-0.50"


def _decimal_reference(f, places):
    """Round half away from zero through Fraction arithmetic."""
    f = F(f)
    n = math.floor(abs(f) * 10 ** places + F(1, 2))
    whole, frac = divmod(n, 10 ** places)
    return f"{'-' if f < 0 else ''}{whole}.{str(frac).zfill(places)}"


def test_decimal_str_matches_fraction_rounding():
    rng = random.Random(2026)
    cases = [(F(k, 2 * 10 ** p), p) for p in range(9) for k in (-3, -1, 1, 3)]
    for _ in range(5000):
        f = F(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 9))
        cases.append((f, rng.randint(0, 8)))
    for f, places in cases:
        assert decimal_str(f, places) == _decimal_reference(f, places), (f, places)
    assert decimal_str(3) == decimal_str("3") == "3.000000"


# The 4,300-digit edges of the interpreter's default int-to-string limit.
EDGES = (10 ** 4299, 10 ** 4300 - 1)


@settings(max_examples=300, deadline=None)
@given(floor=st.one_of(st.integers(0, 2 ** 80), st.sampled_from(EDGES)),
       den=st.one_of(st.just(1), st.integers(1, 2 ** 80),
                     st.sampled_from(EDGES)),
       data=st.data())
@example(floor=0, den=1, data=None)
@example(floor=EDGES[1], den=1, data=None)
@example(floor=0, den=EDGES[1], data=None)
@example(floor=1, den=EDGES[1], data=None)
def test_quota_texts_from_integers_match_the_fraction(floor, den, data):
    # A quota floor + n / den renders from its integers as the parent
    # rendered the Fraction, or is refused where str() of the Fraction's
    # parts fails.
    n, places = (0, 6) if data is None else (
        data.draw(st.integers(0, den - 1)), data.draw(st.integers(0, 8)))
    q = F(floor * den + n, den)
    try:
        expected = (f"{q.numerator}/{q.denominator}",
                    _decimal_reference(q, places))
    except ValueError:
        with pytest.raises(CapacityError, match="^cannot print a number"):
            _rational_texts(floor * den + n, den, places)
        return
    assert _rational_texts(floor * den + n, den, places) == expected
    assert (fraction_str(q), decimal_str(q, places)) == expected


def _json_line_reference(kind, columns, row):
    obj = {"type": kind}
    obj.update(zip(columns, row))
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


TEXTS = st.one_of(
    st.text(st.characters(blacklist_categories=()), max_size=8),
    st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\x7f", "\u00e9\u2028",
                     "\U0001f600", "\ud800", "a\udfffb", "type"]))
CELLS = st.one_of(TEXTS, st.integers(-2 ** 80, 2 ** 80), st.booleans(),
                  st.none(), st.floats(), st.lists(st.integers(), max_size=3),
                  st.dictionaries(TEXTS, st.integers(), max_size=3))


@settings(max_examples=300, deadline=None)
@given(columns=st.lists(TEXTS, min_size=1, max_size=5), kind=TEXTS,
       data=st.data())
def test_json_lines_rows_equal_json_dumps(columns, kind, data):
    rows = data.draw(st.lists(st.lists(CELLS, min_size=len(columns),
                                       max_size=len(columns)), max_size=4))
    out = io.StringIO()
    Emitter("json-lines", out).rows(columns, iter(rows), kind=kind)
    assert out.getvalue() == "".join(_json_line_reference(kind, columns, row)
                                     for row in rows)


def _table_reference(columns, rows):
    """The table layout as two passes over the cells, one print per line."""
    out = io.StringIO()
    widths = [max(len(str(c)), *(len(str(r[i])) for r in rows))
              if rows else len(str(c))
              for i, c in enumerate(columns)]
    line = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    print(line, file=out)
    print("-" * len(line), file=out)
    for row in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)),
              file=out)
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(columns=st.lists(TEXTS, min_size=1, max_size=5), data=st.data())
def test_table_rows_equal_the_two_pass_layout(columns, data):
    cells = st.one_of(TEXTS, st.integers(-2 ** 80, 2 ** 80), st.none())
    rows = data.draw(st.lists(st.lists(cells, min_size=len(columns),
                                       max_size=len(columns)), max_size=4))
    out = io.StringIO()
    Emitter("table", out).rows(columns, iter(rows))
    assert out.getvalue() == _table_reference(columns, rows)


@settings(max_examples=200, deadline=None)
@given(columns=st.lists(st.one_of(TEXTS, st.just("")), min_size=1,
                        max_size=5),
       data=st.data())
def test_csv_rows_equal_csv_writer(columns, data):
    # The table and json-lines layouts are built a column at a time; csv
    # writes the rows as csv.writer does, quoting and zero rows included.
    cells = st.one_of(TEXTS, st.sampled_from(["", ",", "a,b", "\r", "\n"]),
                      st.integers(-2 ** 80, 2 ** 80), st.booleans(),
                      st.none(), st.floats())
    rows = data.draw(st.lists(st.lists(cells, min_size=len(columns),
                                       max_size=len(columns)), max_size=4))
    out = io.StringIO()
    Emitter("csv", out).rows(columns, iter(rows))
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    assert out.getvalue() == expected.getvalue()


def test_parse_quota_file_modes(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("A,43.038,42.962\nB,19.013,18.999\n")
    labels, quotas, adjusted = parse_quota_file(str(path))
    assert labels == ["A", "B"]
    assert adjusted == [F("42.962"), F("18.999")]
    path.write_text("A,43.038\nB,19.013,18.999\n")
    with pytest.raises(InputError):
        parse_quota_file(str(path))


# The three file readers on inputs whose outputs were recorded before they
# shared one reader: where a header may stand, what blank rows and short
# rows do, and which errors name which line.
READER_CASES = {
    "census-header": (parse_census, "state,population\nA,2\n", [("A", 2)]),
    "census-empty-field-header": (parse_census, ",\nA,1\n", [("A", 1)]),
    "census-blank-rows": (parse_census, "\nA,1\n\n  \nB,2\n",
                          [("A", 1), ("B", 2)]),
    "census-header-after-blank": (
        parse_census, "\nstate,pop\nA,1\n",
        "line 2: population must be a positive integer, got 'pop'"),
    "census-short-row-line-1": (parse_census, "A\n",
                                "line 1: expected 'label,population'"),
    "census-short-row-line-2": (parse_census, "A,1\nB\n",
                                "line 2: expected 'label,population'"),
    "census-zero-line-1": (parse_census, "A,0\n",
                           "line 1: population must be >= 1"),
    "census-negative-line-1": (
        parse_census, "A,-3\n",
        "line 1: population must be a positive integer, got '-3'"),
    "census-signed-line-1": (
        parse_census, "A,+5\nB,10\n",
        "line 1: population must be a positive integer, got '+5'"),
    "census-decimal-line-1": (
        parse_census, "A,4779736.0\nB,10\n",
        "line 1: population must be a positive integer, got '4779736.0'"),
    "census-huge-exponent-line-1": (
        parse_census, "A,1e999999999\n",
        "line 1: population must be a positive integer, got '1e999999999'"),
    "census-empty-label-line-1": (parse_census, ",1\n",
                                  "line 1: empty state label"),
    "quota-header": (parse_quota_file, "label,quota\nA,1/2\n",
                     (["A"], [F(1, 2)], None)),
    "quota-short-row-line-1": (parse_quota_file, "A\n",
                               "line 1: expected 'label,quota[,adjusted]'"),
    "quota-bad-adjusted-line-1": (parse_quota_file, "A,1,x\n",
                                  "line 1: bad adjusted value 'x'"),
    "quota-bad-value-line-2": (parse_quota_file, "A,1\nB, x\n",
                               "line 2: bad quota value ' x'"),
    "quota-exponent-line-1": (parse_quota_file, "A,1e3\nB,1/2\n",
                              "line 1: bad quota value '1e3'"),
    "quota-huge-exponent-line-1": (
        parse_quota_file, "A,1e999999999\n",
        "line 1: bad quota value '1e999999999'"),
    "quota-adjusted-all-or-none": (
        parse_quota_file, "A,1,2\nB,3\n",
        "adjusted quota column must be present for all states or none"),
    "bound-short-row-line-1": (read_lower_bound, "hdr\nA,1\n", (1,)),
    "bound-short-row-line-2": (read_lower_bound, "A,1\nB\n",
                               "line 2: expected 'label,bound'"),
    "bound-header": (read_lower_bound, "label,bound\nA,2\n", (2,)),
    "bound-decimal-line-1": (read_lower_bound, "A,1.5\n",
                             "line 1: expected 'label,bound'"),
    "bound-empty-file": (read_lower_bound, "",
                         "lower-bound file mismatch; missing ['A'], "
                         "unknown []"),
}


@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_file_readers_keep_their_header_and_row_rules(name):
    read, text, expected = READER_CASES[name]
    args = (io.StringIO(text),) + (("A",),) * (read is read_lower_bound)
    if isinstance(expected, str):
        with pytest.raises(InputError) as exc:
            read(*args)
        assert str(exc.value) == expected
    else:
        assert read(*args) == expected


@pytest.mark.parametrize("read", [parse_census, parse_quota_file,
                                  read_lower_bound])
def test_a_number_past_the_digit_cap_is_an_error_not_a_header(read):
    args = (("A",),) if read is read_lower_bound else ()
    with pytest.raises(InputError, match=f"^line 1: {TOO_LONG}$"):
        read(io.StringIO("A," + "7" * (MAX_DIGITS + 1) + "\n"), *args)
    # Populations far beyond int64 stay accepted up to the cap.
    assert parse_census(io.StringIO("A," + "7" * MAX_DIGITS + "\n")) \
        == [("A", int("7" * MAX_DIGITS))]


# Each exited 1 with a traceback, or did not finish, before the one reader.
HOSTILE_FILES = {
    "census-long-population": (
        "census", b"A,1\nB," + b"9" * 5000 + b"\n",
        f"error: line 2: {TOO_LONG}\n"),
    "bound-long-value": (
        "bound", b"A,1\nB," + b"9" * 5000 + b"\n",
        f"error: line 2: {TOO_LONG}\n"),
    "quota-huge-exponent": (
        "quota", b"A,1\nB,1e999999999\n",
        "error: line 2: bad quota value '1e999999999'\n"),
    "quota-tiny-exponent": (
        "quota", b"A,1\nB,1e-999999999\n",
        "error: line 2: bad quota value '1e-999999999'\n"),
    **{f"{kind}-not-utf8": (kind, b"A,1\nB\xff,2\n",
                            f"error: line 2: {what} file is not UTF-8\n")
       for kind, what in (("census", "census"), ("quota", "quota"),
                          ("bound", "lower-bound"))},
    **{f"{kind}-field-past-csv-limit": (
        kind, b"A,1\nB," + b"1" * 131073 + b"\n",
        "error: line 2: field larger than field limit (131072)\n")
       for kind in ("census", "quota", "bound")},
}


def reader_argv(kind, path, census_path):
    """A CLI run that reads ``path`` as a file of the given kind."""
    if kind == "census":
        return ["apportion", "--data", path, "--seats", "3",
                "--method", "hamilton"]
    if kind == "quota":
        return ["bound-check", "--quotas", path, "--seats", "3"]
    return ["apportion", "--data", census_path, "--seats", "3",
            "--method", "webster", "--lower-bound", path]


@pytest.mark.parametrize("name", sorted(HOSTILE_FILES))
def test_hostile_files_exit_2_with_their_line(name, census, tmp_path,
                                              capsys):
    kind, data, error = HOSTILE_FILES[name]
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    code, _ = run_cli(reader_argv(kind, str(path), census))
    assert (code, capsys.readouterr().err) == (2, error)


@pytest.mark.parametrize("population", ["-3", "+5", "4779736.0"])
def test_a_bad_population_on_line_1_exits_2(population, tmp_path, capsys):
    # The row was read as a header: the run exited 0 without state A.
    path = tmp_path / "states.csv"
    path.write_text(f"A,{population}\nB,10\n")
    code, _ = run_cli(reader_argv("census", str(path), None))
    assert (code, capsys.readouterr().err) == (
        2, "error: line 1: population must be a positive integer, "
           f"got {population!r}\n")


def test_long_scalar_lower_bound_exits_2(census, capsys):
    code, _ = run_cli(["apportion", "--data", census, "--seats", "7",
                       "--method", "stochastic",
                       "--lower-bound", "9" * 5000])
    assert (code, capsys.readouterr().err) == (2, f"error: {TOO_LONG}\n")


def test_table1_names_the_line_of_a_census_that_is_not_utf8(tmp_path,
                                                            capsys):
    (tmp_path / "1990.csv").write_bytes(b"A,1\nB,2\nC\xff,3\n")
    code, _ = run_cli(["table1", "--data", str(tmp_path), "--seats", "3"])
    assert (code, capsys.readouterr().err) \
        == (2, "error: line 3: census file is not UTF-8\n")


FIELDS = st.sampled_from(["A", "B", " A ", "", "label", "1", "0", "-1",
                          "007", "1/2", "-3/4", ".5", "1.", "1e3", "+2",
                          "1_0", "\u00b2", "\uff11", "x", '"A,B"', "9" * 4301])
CSV_TEXT = st.lists(st.lists(FIELDS, max_size=4).map(",".join),
                    max_size=6).map("\n".join)


@pytest.mark.parametrize("kind", ["census", "quota", "bound"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(st.binary(max_size=80),
                      st.text(max_size=80).map(str.encode),
                      CSV_TEXT.map(str.encode)))
def test_any_file_exits_0_1_or_2_without_a_traceback(kind, data, census,
                                                     tmp_path, capsys):
    path = tmp_path / "input.csv"
    path.write_bytes(data)
    capsys.readouterr()
    code, _ = run_cli(reader_argv(kind, str(path), census))
    err = capsys.readouterr().err
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ")


# --- apportion ----------------------------------------------------------------

def test_apportion_deterministic_replay(census):
    code1, out1 = run_cli(["apportion", "--data", census, "--seats", "7",
                           "--method", "stochastic", "--seed", "7"])
    code2, out2 = run_cli(["apportion", "--data", census, "--seats", "7",
                           "--method", "stochastic", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_apportion_integral_any_method(tmp_path):
    path = tmp_path / "int.csv"
    path.write_text("A,5\nB,3\nC,2\n")
    for method in ("stochastic", "hamilton", "adams", "dean", "hill",
                   "webster", "jefferson"):
        code, out = run_cli(["apportion", "--data", str(path), "--seats",
                             "10", "--method", method, "--seed", "1",
                             "--format", "json-lines"])
        assert code == 0
        seats = [json.loads(line)["seats"]
                 for line in out.splitlines()
                 if json.loads(line)["type"] == "seat"]
        assert seats == [5, 3, 2]


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
@pytest.mark.parametrize("command", [
    ["apportion", "--seats", "7", "--method", "stochastic"],
    ["simulate", "--seats", "7", "--method", "stochastic", "--n", "5"],
    ["paradox-scan", "--kind", "alabama", "--method", "hamilton",
     "--trials", "1"]], ids=lambda command: command[0])
def test_seeds_outside_64_bits_are_refused(command, seed, census, capsys):
    # The library reads seeds modulo 2**64: --seed 2**70 drew as --seed 0,
    # and --seed -1 as 2**64 - 1.
    data = [] if command[0] == "paradox-scan" else ["--data", census]
    assert run_cli([*command, *data, "--seed", str(seed)]) == (2, "")
    assert capsys.readouterr().err \
        == f"error: --seed must be in 0..2**64 - 1, got {seed}\n"


def test_largest_seed_is_accepted(census):
    code, out = run_cli(["apportion", "--data", census, "--seats", "7",
                         "--method", "stochastic", "--seed", str(2 ** 64 - 1),
                         "--format", "json-lines"])
    assert code == 0
    assert json.loads(out.splitlines()[-1])["master_seed"] == 2 ** 64 - 1


def test_apportion_infeasible_exit_code(tiny):
    code, _out = run_cli(["apportion", "--data", tiny, "--seats", "3",
                          "--method", "stochastic", "--seed", "1",
                          "--lower-bound", "1"])
    assert code == 1


def test_apportion_audit_json(census):
    code, out = run_cli(["apportion", "--data", census, "--seats", "7",
                         "--method", "stochastic", "--seed", "9",
                         "--format", "json-lines"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    audit = [r for r in records if r["type"] == "audit"][0]
    assert audit["master_seed"] == 9
    assert sorted(audit["permutation"]) == [0, 1]
    num, den = audit["u"].split("/")
    assert den == str(2 ** 53)
    assert 0 <= int(num) < 2 ** 53


def test_apportion_csv_roundtrip(census):
    code, out = run_cli(["apportion", "--data", census, "--seats", "7",
                         "--method", "hamilton", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["label"] for r in rows] == ["A", "B"]
    assert [int(r["population"]) for r in rows] == [2, 3]
    assert [F(r["quota"]) for r in rows] == [F(14, 5), F(21, 5)]
    assert [int(r["seats"]) for r in rows] == [3, 4]


def test_apportion_lower_bound_divisor(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("A,50\nB,30\nC,1\n")
    code, out = run_cli(["apportion", "--data", str(path), "--seats", "10",
                         "--method", "hill", "--lower-bound", "1",
                         "--format", "json-lines"])
    assert code == 0
    seats = [json.loads(line)["seats"] for line in out.splitlines()
             if json.loads(line)["type"] == "seat"]
    assert sum(seats) == 10 and seats[2] == 1


def test_apportion_lower_bound_file(tmp_path, census):
    bounds = tmp_path / "bounds.csv"
    bounds.write_text("A,1\nB,2\n")
    code, out = run_cli(["apportion", "--data", census, "--seats", "7",
                         "--method", "stochastic", "--seed", "3",
                         "--lower-bound", str(bounds),
                         "--format", "json-lines"])
    assert code == 0
    audit = [json.loads(line) for line in out.splitlines()
             if json.loads(line)["type"] == "audit"][0]
    assert audit["trace"]["feasible"]
    assert audit["trace"]["rounds"]
    mismatched = tmp_path / "bad.csv"
    mismatched.write_text("A,1\nZ,2\n")
    code, _ = run_cli(["apportion", "--data", census, "--seats", "7",
                       "--method", "stochastic", "--seed", "3",
                       "--lower-bound", str(mismatched)])
    assert code == 2


@pytest.mark.parametrize("bound", ["\u00b2", "--1"])
def test_lower_bound_file_bad_number_is_an_input_error(tmp_path, census,
                                                       capsys, bound):
    # Both pass a str.isdigit() test (after stripping every "-") that int()
    # then fails.
    bounds = tmp_path / "bounds.csv"
    bounds.write_text(f"B,1\nA,{bound}\n", encoding="utf-8")
    code, _ = run_cli(["apportion", "--data", census, "--seats", "7",
                       "--method", "stochastic", "--lower-bound", str(bounds)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")


@pytest.mark.parametrize("text, error", [
    ("A,1\n,2\n", "error: line 2: empty state label\n"),
    ("A,1\nA,2\n", "error: line 2: duplicate state label 'A'\n"),
], ids=["empty", "duplicate"])
def test_lower_bound_file_refuses_empty_and_duplicate_labels(
        tmp_path, census, capsys, text, error):
    bounds = tmp_path / "bounds.csv"
    bounds.write_text(text)
    code, _ = run_cli(["apportion", "--data", census, "--seats", "7",
                       "--method", "stochastic", "--lower-bound", str(bounds)])
    assert code == 2
    assert capsys.readouterr().err == error


@pytest.mark.parametrize("bound", ["\uff11", "1_0"])
def test_scalar_lower_bound_needs_ascii_digits(tmp_path, monkeypatch, census,
                                               capsys, bound):
    # int() reads a fullwidth one as 1 and "1_0" as 10; as a scalar bound
    # only ASCII digits count, so both are taken as a bound-file path.
    monkeypatch.chdir(tmp_path)
    code, _ = run_cli(["apportion", "--data", census, "--seats", "7",
                       "--method", "stochastic", "--lower-bound", bound])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: cannot read lower-bound file")


def count_fractions(run):
    """Calls ``run()`` and returns the number of Fractions it built."""
    built = 0
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(F, "__new__", counting_new)
        run()
    return built


@pytest.mark.parametrize("fmt", FORMAT_CHOICES)
def test_apportion_renders_without_fractions(fmt, golden_inputs):
    # The quota texts come from the quota's integers: an unbounded call
    # builds no Fraction, and a bounded one only each iteration round's
    # scale.
    argv = ["apportion", "--data", "c50.csv", "--seats", "435", "--method",
            "stochastic", "--format", fmt]
    codes = []
    assert count_fractions(lambda: codes.append(run_cli(argv)[0])) == 0
    prob = problem([pop for _label, pop in fixtures.CENSUS_50], 435)
    rounds = lowerbound.iterate_lower_bound(compute_quota(prob),
                                            (1,) * prob.size, 435).rounds
    stochastic._prepared.cache_clear()
    assert count_fractions(lambda: codes.append(
        run_cli(argv + ["--lower-bound", "1"])[0])) == len(rounds) == 3
    assert codes == [0, 0]


def count_core_calls(monkeypatch, name):
    """The list of argument tuples of every later call to ``core.<name>``,
    made through any seatlot module that holds it.  The prepared-scheme
    memo is emptied, so the next draw prepares its problem afresh."""
    import seatlot
    calls = []
    original = getattr(seatlot.core, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("seatlot")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counting)
    stochastic._prepared.cache_clear()
    return calls


@pytest.mark.parametrize("extra", [
    ["--method", "stochastic"],
    ["--method", "stochastic", "--lower-bound", "1"],
    ["--method", "webster"]])
def test_apportion_computes_the_quota_once(extra, golden_inputs,
                                           monkeypatch):
    # The draw's quota is the one the table prints: a run computes it once.
    calls = count_core_calls(monkeypatch, "compute_quota")
    code, _ = run_cli(["apportion", "--data", "c50.csv", "--seats", "435",
                       *extra])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("bound", ["1", "bounds.csv"])
def test_bounded_apportion_checks_its_bounds_once(bound, golden_inputs,
                                                  monkeypatch):
    # read_lower_bound, stochastic._prepare and iterate_lower_bound each
    # checked the same bounds, and read_lower_bound and divisor_with_bounds
    # those of a divisor rule: the draw and the rule take the bounds read.
    Path("bounds.csv").write_text(
        "".join(f"{label},1\n" for label, _ in fixtures.CENSUS_50))
    calls = count_core_calls(monkeypatch, "broadcast_lower_bound")
    for method in ("stochastic", "webster"):
        before = len(calls)
        code, _ = run_cli([*APPORTION[:-1], method, "--lower-bound", bound])
        assert code == 0
        assert len(calls) - before == 1, method


def test_a_bounded_library_draw_checks_its_bounds_once(monkeypatch):
    # _prepare checks the bounds before its memo; iterate_lower_bound
    # checked them again.
    prob = problem([pop for _label, pop in fixtures.CENSUS_50], 435)
    calls = count_core_calls(monkeypatch, "broadcast_lower_bound")
    lowerbound.lower_bound_apportion(prob, 1, SeededSource(7))
    assert calls == [(1, 50)]


def test_reading_bounds_builds_no_fraction():
    assert count_fractions(lambda: (
        read_lower_bound("2", ("A", "B")),
        read_lower_bound(io.StringIO("A,1\nB,2\n"), ("A", "B")))) == 0


def _populations(*pops):
    return "".join(f"S{i},{pop}\n" for i, pop in enumerate(pops))


# Each ended in a ValueError traceback from str() or int() of a long int.
LONG_NUMBERS = {
    # A 4,301-digit total: the quota's denominator cannot be printed.
    "hamilton-4300-digits": (
        None, _populations("9" * 4300, "9" * 4299 + "8"),
        ["--method", "hamilton"],
        "error: cannot print a number of more than 4300 digits\n"),
    # The quotas print, but an iteration round's scale does not.
    "bounded-scale": (
        None, _populations(*((i + 1) * 10 ** 4297 + 3 ** i
                             for i in range(10)), 1),
        ["--method", "stochastic", "--lower-bound", "1"],
        "error: cannot print a number of more than 4300 digits\n"),
    # A lower limit lowers the reader's digit cap with it.
    "limit-640": (
        "640", _populations("7" * 1000, "8" * 1000),
        ["--method", "hamilton"],
        "error: line 1: number longer than 640 characters\n"),
}


@pytest.mark.parametrize("name", sorted(LONG_NUMBERS))
def test_long_numbers_exit_2_in_a_fresh_interpreter(name, fresh_python,
                                                    tmp_path):
    limit, text, extra, error = LONG_NUMBERS[name]
    (tmp_path / "c.csv").write_text(text)
    env = {} if limit is None else {"PYTHONINTMAXSTRDIGITS": limit}
    proc = fresh_python("-m", "seatlot.cli", "apportion", "--data", "c.csv",
                        "--seats", "1000", *extra, cwd=tmp_path,
                        **env)
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) \
        == (2, b"", error)


@pytest.mark.parametrize("argv, error", [
    (["apportion", "--data", "a.csv", "b.csv", "--seats", "7", "--method",
      "stochastic", "--reuse-stream"],
     "--reuse-stream requires equal state counts across files"),
    (["simulate", "--data", "a.csv", "--seats", "7", "--method", "webster",
      "--n", "10", "--seed", "1", "--lower-bound", "1"],
     "simulate supports lower bounds with --method stochastic"),
    (["table1", "--data", "empty"], "no census files (*.csv) in empty"),
], ids=["reuse-stream-sizes", "simulate-bounds-deterministic",
        "table1-no-csv"])
def test_cli_refusals_exit_2(argv, error, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.csv").write_text("A,2\nB,3\n")
    (tmp_path / "b.csv").write_text("A,2\nB,3\nC,4\n")
    (tmp_path / "empty").mkdir()
    (tmp_path / "empty" / "notes.txt").write_text("A,2\n")
    capsys.readouterr()
    assert run_cli(argv) == (2, "")
    assert capsys.readouterr().err == f"error: {error}\n"


def test_closed_stdout_exits_1_quietly(fresh_python, tmp_path):
    # 5,000 seat rows overflow the pipe buffer, so the CLI is still writing
    # when the reader closes the pipe after the header line.
    (tmp_path / "c.csv").write_text("".join(f"S{i},{1000 + 7 * i}\n"
                                            for i in range(5000)))
    proc = fresh_python("-c", (
        "import json, subprocess, sys\n"
        "cli = subprocess.Popen([sys.executable, '-m', 'seatlot.cli',\n"
        "                        'apportion', '--data', 'c.csv', '--seats',\n"
        "                        '100000', '--method', 'hamilton'],\n"
        "                       stdout=subprocess.PIPE, stderr=subprocess.PIPE)\n"
        "line = cli.stdout.readline()\n"
        "cli.stdout.close()\n"
        "err = cli.stderr.read()\n"
        "print(json.dumps([line.decode(), cli.wait(), err.decode()]))\n"),
        cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    line, code, err = json.loads(proc.stdout)
    assert line.split() == ["label", "population", "quota", "quota_decimal",
                            "seats"]
    assert (code, err) == (1, "")


def test_apportion_billion_seat_house(tmp_path):
    path = tmp_path / "states.csv"
    path.write_text("".join(f"S{i},{500_000 + 797_003 * i}\n"
                            for i in range(50)))
    code, out = run_cli(["apportion", "--data", str(path), "--method",
                         "hill", "--seats", "1000000000", "--format",
                         "json-lines"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert sum(r["seats"] for r in records if r["type"] == "seat") \
        == 1_000_000_000
    assert [r["total_seats"] for r in records if r["type"] == "audit"] \
        == [1_000_000_000]


def test_apportion_hamilton_rejects_bounds(census):
    code, _ = run_cli(["apportion", "--data", census, "--seats", "7",
                       "--method", "hamilton", "--lower-bound", "1"])
    assert code == 2


def test_apportion_reuse_stream(tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("A,2\nB,3\n")
    b = tmp_path / "b.csv"
    b.write_text("A,2\nB,4\n")
    code, out = run_cli(["apportion", "--data", str(a), str(b), "--seats",
                         "7", "--method", "stochastic", "--seed", "5",
                         "--reuse-stream", "--format", "json-lines"])
    assert code == 0
    audits = [json.loads(line) for line in out.splitlines()
              if json.loads(line)["type"] == "audit"]
    assert audits[0]["u"] == audits[1]["u"]
    assert audits[0]["permutation"] == audits[1]["permutation"]
    # fresh streams differ
    code, out = run_cli(["apportion", "--data", str(a), str(b), "--seats",
                         "7", "--method", "stochastic", "--seed", "5",
                         "--format", "json-lines"])
    audits = [json.loads(line) for line in out.splitlines()
              if json.loads(line)["type"] == "audit"]
    assert audits[0]["u"] != audits[1]["u"]


# --- distribution ---------------------------------------------------------------

def test_distribution_exact_law(tiny):
    code, out = run_cli(["distribution", "--data", tiny, "--seats", "3",
                         "--format", "json-lines"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    masses = {r["allocation"]: r["probability"]
              for r in records if r["type"] == "mass"}
    assert masses == {"0 0 3": "1/3", "0 1 2": "1/3", "1 0 2": "1/3"}
    marg = [r for r in records if r["type"] == "marginals"][0]
    assert marg["expected_seats"] == ["1/3", "1/3", "7/3"]


def test_distribution_lower_bound(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("A,1\nB,5\nC,10\n")
    code, out = run_cli(["distribution", "--data", str(path), "--seats", "8",
                         "--lower-bound", "1", "--format", "json-lines"])
    assert code == 0
    masses = [json.loads(line) for line in out.splitlines()
              if json.loads(line)["type"] == "mass"]
    assert len(masses) == 1
    assert masses[0]["allocation"] == "1 2 5"


def test_distribution_capacity_exit(tmp_path, monkeypatch):
    path = tmp_path / "big.csv"
    path.write_text("".join(f"S{i},{i + 1}\n" for i in range(9)))
    code, _ = run_cli(["distribution", "--data", str(path), "--seats", "4"])
    assert code == 2

    # --limit cannot lift the state count past the ceiling; the refusal
    # comes before the kernel would allocate 2**30 cells.
    def kernel(*args):
        raise AssertionError("kernel called past the ceiling")

    monkeypatch.setattr(_backend, "averaged_mask_lengths", kernel)
    path.write_text("".join(f"S{i},{i + 1}\n" for i in range(30)))
    code, _ = run_cli(["distribution", "--data", str(path), "--seats", "4",
                       "--limit", "30"])
    assert code == 2


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_distribution_refuses_a_limit_below_one(limit, tmp_path, capsys):
    path = tmp_path / "c.csv"
    path.write_text("A,1\nB,2\nC,3\n")
    capsys.readouterr()
    code, out = run_cli(["distribution", "--data", str(path), "--seats", "2",
                         "--limit", limit])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err \
        == f"error: limit must be a positive integer, got {limit}\n"


# --- simulate --------------------------------------------------------------------

def test_simulate_cli(census):
    code, out = run_cli(["simulate", "--data", census, "--seats", "7",
                         "--method", "stochastic", "--n", "2000",
                         "--seed", "12", "--format", "json-lines"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    summary = [r for r in records if r["type"] == "summary"][0]
    assert summary["quota_violations"] == 0
    assert summary["replicates"] == 2000
    code2, out2 = run_cli(["simulate", "--data", census, "--seats", "7",
                           "--method", "stochastic", "--n", "2000",
                           "--seed", "12", "--format", "json-lines"])
    assert out2 == out


def test_simulate_refuses_more_replicates_than_the_ceiling(census, capsys,
                                                            monkeypatch):
    # --n had no ceiling, so a huge count ran until killed.  The refusal
    # comes before the kernel draws any replicate.
    def kernel(*args):
        raise AssertionError("kernel called past the ceiling")

    monkeypatch.setattr(_backend, "simulate_batch", kernel)
    n = REPLICATE_CEILING + 1
    code, out = run_cli(["simulate", "--data", census, "--seats", "7",
                         "--method", "stochastic", "--n", str(n),
                         "--seed", "1"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: a simulation draws at most {REPLICATE_CEILING} replicates, "
        f"got {n}\n")


# --- paradox-scan ------------------------------------------------------------------

def test_paradox_scan_alabama_hamilton_finds_reports():
    code, out = run_cli(["paradox-scan", "--kind", "alabama", "--method",
                         "hamilton", "--trials", "60", "--seed", "3",
                         "--max-seats", "20", "--format", "json-lines"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    summary = [r for r in records if r["type"] == "summary"][0]
    assert summary["reports"] > 0


@pytest.mark.parametrize("fmt", FORMAT_CHOICES)
def test_paradox_scan_prints_each_report_as_it_is_found(fmt, monkeypatch):
    # Output printed before each trial's draw: a scan that held its reports
    # until the last trial would print nothing until then.
    out = io.StringIO()
    printed = []

    def drawn(*args, **kwargs):
        printed.append(len(out.getvalue()))
        return random_problem(*args, **kwargs)

    random_problem = montecarlo.random_problem
    monkeypatch.setattr(montecarlo, "random_problem", drawn)
    assert main(["paradox-scan", "--kind", "alabama", "--method", "hamilton",
                 "--trials", "60", "--seed", "3", "--max-seats", "20",
                 "--format", fmt], out=out) == 0
    header = "kind,method,witness\n" if fmt == "csv" else ""
    assert printed[0] == len(header) and printed[-1] > printed[0]


def test_paradox_scan_webster_clean():
    code, out = run_cli(["paradox-scan", "--kind", "alabama", "--method",
                         "webster", "--trials", "60", "--seed", "3",
                         "--max-seats", "20", "--format", "json-lines"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    summary = [r for r in records if r["type"] == "summary"][0]
    assert summary["reports"] == 0


@pytest.mark.parametrize("extra", [
    ["--max-states", "1"],
    ["--max-population", "0"],
    ["--kind", "new-state", "--max-seats", "1"],
    ["--max-growth", "-1"],
    ["--kind", "alabama", "--trials", "-5"],
    ["--kind", "alabama", "--method", "adams", "--max-seats", "0"],
])
def test_paradox_scan_out_of_range_sizes_are_usage_errors(extra, capsys):
    code, _ = run_cli(["paradox-scan", "--kind", "population", "--method",
                       "hamilton", "--trials", "5", *extra])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("kind, extra", [
    ("population", ["--max-growth", str(2 ** 64)]),
    ("population", ["--max-population", str(2 ** 64 + 1)]),
    ("new-state", ["--max-population", str(2 ** 64 + 1)]),
])
def test_paradox_scan_refuses_draw_bounds_above_two_to_the_64(kind, extra,
                                                              capsys):
    # Each of these used to run until killed: no 64-bit draw falls below
    # a bound above 2**64.
    code, out = run_cli(["paradox-scan", "--kind", kind, "--method",
                         "hamilton", "--trials", "1", "--seed", "1", *extra])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("method", ["adams", "dean", "hill"])
@pytest.mark.parametrize("kind", ["alabama", "population", "new-state"])
def test_paradox_scan_runs_rules_that_seat_every_state(kind, method):
    # These rules cannot seat fewer seats than states; each scan used to
    # exit 1 at its default settings.  Instances they cannot seat are
    # skipped, and every witness re-verifies.
    code, out = run_cli(["paradox-scan", "--kind", kind, "--method", method,
                         "--trials", "50", "--format", "json-lines"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    summary = records[-1]
    assert summary["type"] == "summary" and 0 < summary["instances"] <= 50
    rule = RULES[method]
    for rec in records[:-1]:
        w = rec["witness"]
        if kind == "population":
            continue
        s = len(w["labels"]) - (kind == "new-state")
        before = divisor_apportion(problem(w["populations"][:s],
                                           w["house_before"]), rule)
        after = divisor_apportion(problem(w["populations"],
                                          w["house_after"]), rule)
        i = w["state"]
        assert (before.seats[i], after.seats[i]) == (w["seats_before"],
                                                     w["seats_after"])


def test_paradox_scan_refuses_too_many_states(capsys):
    # A --max-states near 2**64 used to build a problem of that many states
    # and run until killed.
    code, out = run_cli(["paradox-scan", "--kind", "alabama", "--method",
                         "hamilton", "--max-states", str(2 ** 64 - 1)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: --max-states must be at most {MAX_SCAN_STATES}, "
        f"got {2 ** 64 - 1}\n")


@pytest.mark.parametrize("method", ["hamilton", "webster"])
def test_paradox_scan_refuses_more_houses_than_the_ceiling(method, capsys):
    # A --max-seats of 10**9 used to scan for hours.
    ceiling = ALABAMA_HOUSE_CEILING
    code, out = run_cli(["paradox-scan", "--kind", "alabama", "--method",
                         method, "--trials", "1",
                         "--max-seats", str(ceiling + 1)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: an Alabama scan walks at most {ceiling} house sizes; "
        f"1..{ceiling + 1} holds more\n")


def test_paradox_scan_refuses_more_trials_than_the_ceiling(capsys,
                                                          monkeypatch):
    # --trials had no ceiling.  The refusal comes before the first draw.
    def draw(*args, **kwargs):
        raise AssertionError("instance drawn past the ceiling")

    monkeypatch.setattr(montecarlo, "random_problem", draw)
    n = MAX_SCAN_TRIALS + 1
    code, out = run_cli(["paradox-scan", "--kind", "population", "--method",
                         "hamilton", "--trials", str(n)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: --trials must be at most {MAX_SCAN_TRIALS}, got {n}\n")


def test_paradox_scan_budgets_the_houses_of_all_trials(capsys, monkeypatch):
    # --trials 100000 --max-seats 1000000 passed both ceilings and asked for
    # 10**11 house steps.
    def draw(*args, **kwargs):
        raise AssertionError("instance drawn")

    monkeypatch.setattr(montecarlo, "random_problem", draw)
    start = time.perf_counter()
    code, out = run_cli(["paradox-scan", "--kind", "alabama", "--method",
                         "hamilton", "--trials", str(MAX_SCAN_TRIALS),
                         "--max-seats", str(ALABAMA_HOUSE_CEILING)])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        f"error: an Alabama scan walks at most {MAX_SCAN_HOUSES} houses over "
        f"all trials; --trials times --max-seats is "
        f"{MAX_SCAN_TRIALS * ALABAMA_HOUSE_CEILING}\n")
    # The budget itself is allowed: the first instance is drawn.
    with pytest.raises(AssertionError, match="instance drawn"):
        run_cli(["paradox-scan", "--kind", "alabama", "--method", "hamilton",
                 "--trials", "10", "--max-seats", str(MAX_SCAN_HOUSES // 10)])


# --- bound-check --------------------------------------------------------------------

def test_bound_check_published_pairs(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("NewYork,43.038,42.962\nPennsylvania,19.013,18.999\n")
    code, out = run_cli(["bound-check", "--quotas", str(path),
                         "--format", "json-lines"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    gaps = {r["label"]: r["gap_decimal"]
            for r in records if r["type"] == "state"}
    assert gaps == {"NewYork": "0.038", "Pennsylvania": "0.001"}
    bound = [r for r in records if r["type"] == "bound"][0]
    assert bound["union_bound_decimal"] == "0.039"


def test_bound_check_full_mode(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("A,0.5\nB,2.5\nC,5.0\n")
    code, out = run_cli(["bound-check", "--quotas", str(path),
                         "--lower-bound", "1", "--seats", "8",
                         "--format", "json-lines"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    bound = [r for r in records if r["type"] == "bound"][0]
    assert bound["scale"] == "14/15"
    assert bound["offenders"] == [2]
    assert bound["iteration"]["feasible"]


def test_bound_check_refuses_negative_seats(tmp_path, capsys):
    # It used to exit 1: "lower bounds sum to 3 > -1 seats".
    path = tmp_path / "q.csv"
    path.write_text("A,0.5\nB,2.5\nC,5.0\n")
    code, out = run_cli(["bound-check", "--quotas", str(path),
                         "--seats", "-1"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith(
        "error: seats must be a non-negative integer")


def test_bound_check_needs_seats_without_adjusted(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("A,0.5\nB,2.5\n")
    code, _ = run_cli(["bound-check", "--quotas", str(path)])
    assert code == 2


def test_bound_check_bad_adjusted_value_names_its_line(tmp_path, capsys):
    path = tmp_path / "q.csv"
    path.write_text("A,1/2,x\nB,3/2,1\n")
    code, _ = run_cli(["bound-check", "--quotas", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: line 1: ")


@pytest.mark.parametrize("text", ["A,1/2\nA,3/2\n", "A,1/2\n,3/2\n"],
                         ids=["duplicate", "empty"])
def test_bound_check_refuses_empty_and_duplicate_labels(tmp_path, capsys,
                                                         text):
    path = tmp_path / "q.csv"
    path.write_text(text)
    code, _ = run_cli(["bound-check", "--quotas", str(path), "--seats", "2"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")
    with pytest.raises(InputError, match="line 2: "):
        parse_quota_file(io.StringIO(text))


# --- table1 -------------------------------------------------------------------------

def test_table1_synthetic_directory(tmp_path):
    census_dir = tmp_path / "census"
    census_dir.mkdir()
    # A small-state-plus-offender shape, and a clean decade.
    (census_dir / "1950.csv").write_text("Tiny,1\nMid,5\nBig,10\n")
    (census_dir / "1960.csv").write_text("A,5\nB,3\nC,2\n")
    code, out = run_cli(["table1", "--data", str(census_dir), "--seats", "8",
                         "--lower-bound", "1", "--format", "json-lines"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    by_year = {}
    for r in records:
        by_year.setdefault(r["year"], []).append(r)
    assert by_year["1950"][0]["state"] == "Big"
    assert by_year["1950"][0]["quota"] == "5.000"
    assert by_year["1950"][0]["rescaled_quota"] == "4.667"
    assert by_year["1960"][0]["state"] == "none"
    code, _ = run_cli(["table1", "--data", str(tmp_path / "missing")])
    assert code == 2


# --- output contract -------------------------------------------------------

GOLDEN_RUNS = {
    **{f"apportion-{fmt}{tag}": ["apportion", "--data", "c50.csv", "--seats",
                                  "435", "--method", "stochastic", "--seed",
                                  "7", "--format", fmt, *extra]
       for fmt in ("table", "csv", "json-lines")
       for tag, extra in (("", []), ("-bound1", ["--lower-bound", "1"]))},
    "apportion-webster-bound1": ["apportion", "--data", "c50.csv", "--seats",
                                 "435", "--method", "webster",
                                 "--lower-bound", "1"],
    # The last line of each prints the audit's cut and next priorities.
    **{f"apportion-{rule}-1e9": ["apportion", "--data", "c50.csv", "--seats",
                                 "1000000000", "--method", rule,
                                 "--format", "json-lines"]
       for rule in ("adams", "dean", "hill", "webster", "jefferson")},
    "apportion-hill-1e5-bound1": ["apportion", "--data", "c50.csv",
                                  "--seats", "100000", "--method", "hill",
                                  "--lower-bound", "1"],
    "simulate": ["simulate", "--data", "c50.csv", "--seats", "435",
                 "--method", "stochastic", "--n", "2000", "--seed", "11"],
    "simulate-bound1": ["simulate", "--data", "c50.csv", "--seats", "435",
                        "--method", "stochastic", "--n", "2000", "--seed",
                        "11", "--lower-bound", "1"],
    "distribution-8": ["distribution", "--data", "c8.csv", "--seats", "20"],
    "distribution-8-bound1": ["distribution", "--data", "c8.csv", "--seats",
                              "20", "--lower-bound", "1"],
    "distribution-50-refused": ["distribution", "--data", "c50.csv",
                                "--seats", "435"],
    "bound-check-rescale": ["bound-check", "--quotas", "rescale.csv",
                            "--seats", "20"],
    "bound-check-audit": ["bound-check", "--quotas", "audit.csv"],
    "table1": ["table1", "--data", "decades", "--seats", "435"],
    **{f"paradox-alabama-{method}": ["paradox-scan", "--kind", "alabama",
                                     "--method", method, "--seed", "5",
                                     "--trials", "200", "--max-seats", "40",
                                     "--format", "json-lines"]
       for method in ("hamilton", "adams", "dean", "hill", "webster",
                      "jefferson")},
    # Populations up to 2**64: twice the total passes 2**64, so the scan
    # walks 128-bit lanes.
    "paradox-alabama-hamilton-wide": ["paradox-scan", "--kind", "alabama",
                                      "--method", "hamilton", "--seed", "5",
                                      "--trials", "3", "--max-states", "50",
                                      "--max-population", str(2 ** 64),
                                      "--max-seats", "3000",
                                      "--format", "json-lines"],
    "paradox-population": ["paradox-scan", "--kind", "population",
                           "--method", "hamilton", "--seed", "5", "--trials",
                           "400", "--max-growth", "20", "--format", "csv"],
    "paradox-new-state": ["paradox-scan", "--kind", "new-state", "--method",
                          "hamilton", "--seed", "5", "--trials", "200"],
}


@pytest.fixture
def golden_inputs(tmp_path, monkeypatch):
    def census(rows):
        return "".join(f"{label},{pop}\n" for label, pop in rows)

    (tmp_path / "c50.csv").write_text(census(fixtures.CENSUS_50))
    (tmp_path / "c8.csv").write_text(census(fixtures.CENSUS_8))
    (tmp_path / "rescale.csv").write_text(fixtures.QUOTAS_RESCALE)
    (tmp_path / "audit.csv").write_text(fixtures.QUOTAS_AUDIT)
    decades = tmp_path / "decades"
    decades.mkdir()
    (decades / "1990.csv").write_text(census(fixtures.CENSUS_50))
    (decades / "2000.csv").write_text(census(
        (label, pop + pop // (3 + i % 5))
        for i, (label, pop) in enumerate(fixtures.CENSUS_50)))
    monkeypatch.chdir(tmp_path)


def sha256(data) -> str:
    return hashlib.sha256(
        data.encode() if isinstance(data, str) else data).hexdigest()


def golden_digest(args, capsys):
    """(exit code, sha256 of stdout, sha256 of stderr) of one CLI run."""
    capsys.readouterr()
    code, stdout = run_cli(args)
    return code, sha256(stdout), sha256(capsys.readouterr().err)


@pytest.mark.parametrize("backend", ["pure-python", "compiled"])
@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_cli_golden(name, backend, golden_inputs, capsys, monkeypatch,
                    request):
    """Identical invocations print byte-identical output, release to
    release and on either kernel backend: stdout, stderr and exit code
    match the committed digests."""
    monkeypatch.setattr(_backend, "_kernels_c", request.getfixturevalue("kc")
                        if backend == "compiled" else None)
    assert golden_digest(GOLDEN_RUNS[name], capsys) == fixtures.CLI_GOLDEN[name]


def test_method_choices_are_the_rules():
    # The parser spells the rule names out, so that building it imports no
    # divisor code; they stay divisor.RULES's keys, in its order.
    assert RULE_NAMES == tuple(RULES)


PARSER_RUNS = {
    "help": ["--help"],
    "apportion-help": ["apportion", "--help"],
    "apportion-bad-method": ["apportion", "--data", "c50.csv", "--seats",
                             "435", "--method", "bogus"],
}


@pytest.mark.parametrize("name", sorted(PARSER_RUNS))
def test_parser_output_golden(name, capsys, monkeypatch):
    """Help text and usage errors are byte-identical at 80 columns, each
    time the parser is used."""
    monkeypatch.setenv("COLUMNS", "80")
    capsys.readouterr()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(PARSER_RUNS[name], out=io.StringIO())
        printed = capsys.readouterr()
        assert (exc.value.code, sha256(printed.out), sha256(printed.err)) \
            == fixtures.CLI_PARSER_GOLDEN[name]


PARITY_RUNS = [
    *GOLDEN_RUNS.values(), *PARSER_RUNS.values(),
    ["-h", "apportion"], ["apportion", "-h"], ["simulate", "--help"],
    [*APPORTION, "--bogus"], [*APPORTION, "--bogus", "1"],
    ["--data", "c50.csv"], [], ["aportion", *APPORTION[1:]],
    ["APPORTION", *APPORTION[1:]],
    [*APPORTION, "--lower", "1"], [*APPORTION, "--se", "7"],
    [*APPORTION, "--"], [*APPORTION, "--", "x"],
    ["apportion", "--", *APPORTION[1:]], ["--", *APPORTION],
]


def _parsed_run(argv, parse, capsys):
    """(exit status, output, stdout, stderr, namespaces) of ``main(argv)``
    when it parses with ``parse``; a parse that exits gives no namespace."""
    namespaces = []

    def recording(args):
        namespaces.append(parse(args))
        return namespaces[-1]

    out = io.StringIO()
    capsys.readouterr()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_parse_args", recording)
        try:
            code = main(argv, out=out)
        except SystemExit as exc:
            code = exc.code
    printed = capsys.readouterr()
    return code, out.getvalue(), printed.out, printed.err, namespaces


@pytest.mark.parametrize("argv", PARITY_RUNS, ids=" ".join)
def test_main_parses_as_the_full_parser(argv, golden_inputs, capsys,
                                        monkeypatch):
    # main hands a call that names a subcommand to that subcommand's parser
    # alone; status, output, errors, help and namespace are the full
    # parse's.  A call it parses alone never reaches the top-level parser.
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli.build_parser()
    top_level = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        if self is parser:
            top_level.append(args)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    one_pass = _parsed_run(argv, cli._parse_args, capsys)
    alone = not top_level
    assert one_pass == _parsed_run(argv, parser.parse_args, capsys)
    *_, stderr, namespaces = one_pass
    if namespaces:
        assert namespaces[0].command == argv[0]
    named = bool(argv) and argv[0] in parser.subcommands
    assert alone == (named and "unrecognized arguments" not in stderr)


# --- one-shot runs ------------------------------------------------------------
# A new interpreter takes the ``__main__`` path from a cold start; in-process
# tests cannot see it, as pytest has already imported every module.

def test_one_shot_runs_match_the_golden_digests(fresh_python, golden_inputs,
                                                tmp_path):
    def one_shot(args):
        proc = fresh_python("-m", "seatlot.cli", *args, cwd=tmp_path,
                            COLUMNS="80")
        return proc.returncode, sha256(proc.stdout), sha256(proc.stderr)

    assert one_shot(["--help"]) == fixtures.CLI_PARSER_GOLDEN["help"]
    assert one_shot(GOLDEN_RUNS["apportion-table"]) \
        == fixtures.CLI_GOLDEN["apportion-table"]


def test_stochastic_apportion_imports_only_what_it_runs(fresh_python,
                                                        golden_inputs,
                                                        tmp_path):
    # Without --lower-bound the draw needs neither the divisor methods, nor
    # the lower-bound iteration, nor the Monte Carlo lab.
    proc = fresh_python(
        "-c", "import io, json, sys\n"
              "from seatlot.cli import main\n"
              "code = main(sys.argv[1:], out=io.StringIO())\n"
              "print(json.dumps([code, sorted(\n"
              "    m for m in sys.modules if m.startswith('seatlot'))]))\n",
        *GOLDEN_RUNS["apportion-table"], cwd=tmp_path,
        SEATLOT_PURE_PYTHON="1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, [
        "seatlot", "seatlot._backend", "seatlot._kernels_py", "seatlot.cli",
        "seatlot.core", "seatlot.errors", "seatlot.rng",
        "seatlot.stochastic"]]
