"""The argument boundary: every public function and validating constructor
refuses a hostile argument with an ApportionmentError.

The cases are built from ``seatlot.__all__`` and ``inspect.signature``: a
valid call per entry point, from valid values by parameter name, then one
argument at a time replaced by each hostile value.  A new entry point whose
parameters have common names is covered without a new test.
"""

import inspect
import re
import signal
import time
from fractions import Fraction as F

import pytest

import seatlot
from seatlot import (CapacityError, InfeasibleError, InputError,
                     SeededSource, broadcast_lower_bound, classify,
                     compute_quota, detect_alabama,
                     detect_new_state_paradox, detect_population_paradox,
                     equal_representation_quota, exact_distribution,
                     house_increase_pair, iterate_lower_bound,
                     population_move_pair, problem, random_permutation,
                     random_problem, residual_distribution, simulate)
from seatlot.divisor import divisor_with_bounds
from seatlot.errors import ApportionmentError

HOSTILE = {"None": None, "True": True, "1.5": 1.5, "'x'": "x", "-1": -1,
           "()": (), "object()": object(), "10**40": 10 ** 40,
           "-10**5000": -10 ** 5000, "10**5000": 10 ** 5000}

# The records a public function reads check their fields when built.
CONSTRUCTORS = ("Problem", "Allocation", "AllocationDistribution",
                "SeededSource", "AdjustedQuota", "DivisorRule", "QuotaVector",
                "SimulationReport", "StateClassification")
# Public classes that are no entry point, with the reason.
EXEMPT_CLASSES = {
    **dict.fromkeys(
        ("IterationTrace", "MonotonicityReport", "ParadoxReport",
         "ScaledQuota", "ViolationBound"),
        "a result record that no public function reads"),
    "ProblemPair": "a pair of problems whose fields a scan reads through "
                   "entry points, which read each problem and state index",
    **dict.fromkeys(
        ("ApportionmentError", "CapacityError", "ConvergenceError",
         "InfeasibleError", "InputError"), "an error the boundary raises"),
}
# Public functions that run no table reader, with the reason.
READ_THEMSELVES = {
    "broadcast_lower_bound": "the table's reader of lower bounds",
    "quota_vector": "the table's reader of quotas",
    "child_seed": "rng sits below the table and reads its own arguments",
}

FUNCTIONS = sorted(name for name in seatlot.__all__
                   if inspect.isfunction(getattr(seatlot, name)))
ENTRY_POINTS = FUNCTIONS + list(CONSTRUCTORS)


def valid_values():
    """A valid value for each parameter name; "function.name" serves that
    function alone.  Built afresh for every call, as sources are used up."""
    prob = problem([5, 3, 2], 4)
    quota = compute_quota(prob)
    cls_ = classify(quota, 1, 4)
    return {
        "prob": prob, "base": problem([5, 3], 4),
        "extended": problem([5, 3, 2], 5), "before": prob,
        "after": problem([6, 3, 2], 4), "corpus": [prob],
        "src": SeededSource(1), "seed": 1, "master_seed": 1, "index": 2,
        "quota": quota, "bounds": 1, "bound": 1, "size": 3,
        "lower_bounds": 1, "seats": 4, "Allocation.seats": (1, 2),
        "populations": [5, 3], "labels": ["a", "b"], "cls_": cls_,
        "adjusted": equal_representation_quota(cls_, quota),
        "report": simulate("stochastic", prob, 1, 10),
        "fracs": [F(1, 2), F(1, 2)], "residual": 1, "max_attempts": 10,
        "max_tuples": 10, "u": F(1, 3), "average_orders": True, "limit": 8,
        "cap": 10, "values": [F(2), F(2)], "original": [F(5, 2), F(3, 2)],
        "indices": [0, 1], "n": 5, "method": "hamilton",
        "r_values": range(3, 6), "rule": "webster", "divisor": 2,
        "pairs": [house_increase_pair(SeededSource(2))],
        "kind": "house_increase", "alloc": (3, 1, 0), "z": 4,
        "lower": {0: F(1)}, "upper": {1: F(1)}, "min_states": 1,
        "max_states": 4, "max_population": 9, "max_seats": 5,
        "min_seats": 0, "probabilities": {(1,): F(1)}, "audit": None,
        "floors": (2, 1, 0), "nums": (0, 1, 4), "den": 5, "replicates": 10,
        "SimulationReport.labels": ("a", "b"), "seat_sums": (5, 3),
        "seat_sumsqs": (5, 3), "quota_violations": 0, "bound_violations": 0,
        "sum_mismatches": 0, "scale": F(15, 16),
        "AdjustedQuota.indices": (0, 1),
        "AdjustedQuota.values": (F(15, 8), F(9, 8)),
        "original_floors": (2, 1), "original_ceilings": (2, 2),
        "condition_holds": False, "offenders": (0,), "small": (2,),
        "exact": (), "surplus": (0, 1), "remaining_seats": 3,
        "name": "webster", "split": F(1, 2), "squared_priority": False,
        "threshold": lambda b: (2 * b + 1, 2),
    }


def parameters(name):
    return [p for p in inspect.signature(getattr(seatlot, name))
            .parameters.values() if p.name != "self"]


def valid_call(name):
    """The keyword arguments of a valid call; a ``**`` parameter takes a
    problem range, which the pair builders pass on."""
    values = valid_values()
    kwargs = {}
    for p in parameters(name):
        if p.kind is p.VAR_KEYWORD:
            kwargs["max_seats"] = values["max_seats"]
        else:
            kwargs[p.name] = values.get(f"{name}.{p.name}",
                                        values.get(p.name, p.default))
    return kwargs


class _TimedOut(Exception):
    pass


def _time_out(*_args):
    raise _TimedOut


def test_every_public_class_is_classified():
    classes = [name for name in seatlot.__all__
               if inspect.isclass(getattr(seatlot, name))]
    assert [name for name in classes
            if name not in CONSTRUCTORS and name not in EXEMPT_CLASSES] == []


def test_every_public_parameter_has_a_reader():
    # The wrapper core.entry compiles reads parameter p through the global
    # _read_<p>, so its code names every parameter it reads.
    unread = []
    for name in FUNCTIONS:
        fn = getattr(seatlot, name)
        if name in READ_THEMSELVES:
            continue
        if not hasattr(fn, "__wrapped__"):
            unread.append(f"{name}: runs no readers")
            continue
        unread += [f"{name}({p.name})" for p in parameters(name)
                   if f"_read_{p.name}" not in fn.__code__.co_names]
    assert unread == []


def test_every_valid_call_runs():
    for name in ENTRY_POINTS:
        getattr(seatlot, name)(**valid_call(name))


def test_hostile_arguments_raise_apportionment_errors():
    # Each call must end within 2 s; an alarm stops one that does not.
    failures = []
    previous = signal.signal(signal.SIGALRM, _time_out)
    start = time.perf_counter()
    try:
        for name in ENTRY_POINTS:
            for p in parameters(name):
                for label, value in HOSTILE.items():
                    kwargs = valid_call(name)
                    key = ("max_seats" if p.kind is p.VAR_KEYWORD
                           else p.name)
                    kwargs[key] = value
                    case = f"{name}({key}={label})"
                    signal.setitimer(signal.ITIMER_REAL, 2)
                    try:
                        getattr(seatlot, name)(**kwargs)
                    except ApportionmentError:
                        pass
                    except _TimedOut:
                        failures.append(f"{case}: ran past 2 s")
                    except Exception as exc:  # the defect this test finds
                        failures.append(f"{case}: {type(exc).__name__}: "
                                        f"{exc}")
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert failures == []
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("call", [
    lambda: broadcast_lower_bound(1, 10 ** 40),
    lambda: random_permutation(10 ** 40, SeededSource(1))],
    ids=["broadcast_lower_bound", "random_permutation"])
def test_a_size_past_the_interpreter_is_a_capacity_error(call):
    # Both raised OverflowError.
    with pytest.raises(CapacityError, match="must be at most "):
        call()


H = 10 ** 5000
BITS = "a positive integer of 16610 bits"


@pytest.mark.parametrize("call, error, message", [
    (lambda: exact_distribution(problem((1, 1, 7), 3)).marginal_law(H),
     InputError, f"state index must be below 3, got {BITS}"),
    (lambda: SeededSource((H,)), InputError,
     "seed must be an integer, got a tuple too long to print"),
    (lambda: residual_distribution([F(1, H + 1)]), InputError,
     "fractional quotas must sum to an integer, got a positive fraction of "
     "16610 bits"),
    (lambda: classify([H], [H], H - 1), InfeasibleError,
     f"lower bounds sum to {BITS} > {BITS} seats"),
    (lambda: iterate_lower_bound([H], [H], H - 1), None,
     f"lower bounds sum to {BITS} > {BITS} seats"),
    (lambda: iterate_lower_bound([H + 1], [0], H), None,
     f"quota and the bounds force {BITS} seats but the house has {BITS}"),
    (lambda: iterate_lower_bound([1], [1], H + 1), None,
     f"{BITS} seat(s) cannot be granted without pushing some state above "
     "its upper quota"),
    (lambda: divisor_with_bounds(problem((1, 2), H), "webster", H),
     InfeasibleError, "minimum seats sum to a positive integer of 16611 bits"
     f" > {BITS} seats"),
    (lambda: detect_alabama(problem((3, 5), 4), "hamilton",
                            range(H, H + 2 * 10 ** 6)), CapacityError,
     f"an Alabama scan walks at most 1000000 house sizes; {BITS}..{BITS} "
     "holds more"),
    (lambda: detect_new_state_paradox(problem((3, 5), H),
                                      problem((3, 5, 7), 4), "hamilton"),
     InputError, "extended house must be a positive integer of 16611 bits "
     "seats (base plus the new state's fair share), got 4"),
    *((lambda build=build: build(SeededSource(1), max_seats=H), InputError,
       f"house size range 0..{BITS} holds more than 2**64 values")
      for build in (random_problem, population_move_pair,
                    house_increase_pair)),
    (lambda: detect_population_paradox(
        problem([p * 10 ** 4400 + 1 for p in (33, 5, 2, 30)], 17),
        problem([p * 10 ** 4400 + 1 for p in (39, 6, 3, 39)], 17),
        "hamilton"), CapacityError,
     "cannot print a number of more than 4300 digits")],
    ids=["marginal_law", "seed", "residual_distribution", "classify",
         "iterate-classify", "iterate-forced", "iterate-left",
         "divisor_with_bounds", "detect_alabama", "new-state",
         "random_problem", "population_move_pair", "house_increase_pair",
         "population-witness"])
def test_a_number_too_long_to_print_is_named_by_its_size(call, error,
                                                         message):
    # Past the interpreter's int-to-str digit limit, printing the refused
    # value raised ValueError in place of the refusal.  The iteration
    # reports infeasibility in its trace (error None), and a witness too
    # long to print is refused as a result is.
    if error is None:
        assert call().diagnostics == message
        return
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
