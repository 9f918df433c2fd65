"""The argument boundary: every public function and validating constructor
refuses a hostile argument with an ApportionmentError.

The cases are built from ``seatlot.__all__`` and ``inspect.signature``: a
valid call per entry point, from valid values by parameter name, then one
argument at a time replaced by each hostile value.  A new entry point whose
parameters have common names is covered without a new test.
"""

import inspect
import signal
import time
from fractions import Fraction as F

import pytest

import seatlot
from seatlot import (CapacityError, InputError, SeededSource,
                     broadcast_lower_bound, classify, compute_quota,
                     equal_representation_quota, exact_distribution,
                     house_increase_pair, problem, random_permutation,
                     simulate)
from seatlot.errors import ApportionmentError

HOSTILE = {"None": None, "True": True, "1.5": 1.5, "'x'": "x", "-1": -1,
           "()": (), "object()": object(), "10**40": 10 ** 40,
           "-10**5000": -10 ** 5000}

CONSTRUCTORS = ("Problem", "Allocation", "AllocationDistribution",
                "SeededSource")
# Public classes that are no entry point, with the reason.
EXEMPT_CLASSES = {
    **dict.fromkeys(
        ("AdjustedQuota", "DivisorRule", "IterationTrace",
         "MonotonicityReport", "ParadoxReport", "ProblemPair", "QuotaVector",
         "ScaledQuota", "SimulationReport", "StateClassification",
         "ViolationBound"),
        "a plain result record: it holds what the library built, and a "
        "function that takes one reads it (a quota vector against its "
        "invariant)"),
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


@pytest.mark.parametrize("call, message", [
    (lambda: exact_distribution(problem((1, 1, 7), 3)).marginal_law(
        10 ** 5000), "state index must be below 3, got a positive integer "
     "of 16610 bits"),
    (lambda: SeededSource((10 ** 5000,)), "seed must be an integer, got a "
     "tuple too long to print")], ids=["marginal_law", "seed"])
def test_a_number_too_long_to_print_is_named_by_its_size(call, message):
    # Past the interpreter's int-to-str digit limit, printing the refused
    # value raised ValueError in place of the refusal.
    with pytest.raises(InputError, match=f"^{message}$"):
        call()
