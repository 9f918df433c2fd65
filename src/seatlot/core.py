"""Exact-arithmetic domain types, quota predicates and the argument boundary.

A *problem* is a list of states with positive integer populations and a
non-negative house size.  Each state's quota is its exactly proportional
share of the house.  A :class:`QuotaVector` holds the quotas as integers,
a floor and a numerator per state over one common denominator, and this one
type carries them from the census through the lower-bound iteration to the
kernels, and the command line prints quotas from them.  Its ``Fraction``
views (``quotas``, ``fractional``) are built on first read, for callers
that want rationals (traces, exact laws).  Quota ties and integrality (a
fractional part of exactly zero) are decided exactly, never through
floating point; floats appear only in rendered reports.

What counts as a valid argument is decided in one table, ``_READERS``: the
reader of each public parameter, by name.  :func:`entry` puts a public
function behind the readers of its parameters, so every public function
refuses a bad argument with an :class:`ApportionmentError` before its body
runs.  The private paths the command line and the batch take get values
already read, and run no reader.
"""

from __future__ import annotations

import inspect
import math
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, update_wrapper
from typing import Optional, Sequence

from .errors import CapacityError, InputError, _shown
from .rng import SeededSource


# What Fraction() raises for a value that is no finite rational: a wrong
# type, malformed text or NaN, an infinity, a zero denominator ('3/0').
_NOT_RATIONAL = (TypeError, ValueError, OverflowError, ZeroDivisionError)


def as_fraction(value, name: str) -> Fraction:
    """Coerce an int/Fraction/float/string to an exact Fraction; anything
    else, NaN and the infinities included, is refused with InputError."""
    try:
        return Fraction(value)
    except _NOT_RATIONAL as exc:
        raise InputError(
            f"{name} must be a finite rational, got {_shown(value)}") from exc


def as_fractions(values: Sequence) -> tuple[Fraction, ...]:
    """Coerce a sequence of ints/Fractions/strings to exact Fractions."""
    try:
        return tuple(v if type(v) is Fraction else Fraction(v)
                     for v in values)
    except _NOT_RATIONAL as exc:
        raise InputError(f"not an exact rational vector: "
                         f"{_shown(values)}") from exc


def as_tuple(values, name: str) -> tuple:
    """``values`` as a tuple; a value that is not iterable is refused."""
    try:
        return tuple(values)
    except TypeError as exc:
        raise InputError(f"{name} must be a sequence, got "
                         f"{type(values).__name__}") from exc


def check_integers(values: Iterable, name: str, least: int) -> None:
    """Refuse the first of ``values`` that is not an integer of at least
    ``least`` (0 or 1); bools are refused too.  Callers pass a whole
    sequence, so a vector is checked in one call."""
    for v in values:
        # A plain int passes on the first test alone; every draw builds an
        # Allocation, so this loop is on the draw path.
        if type(v) is not int or v < least:
            if not isinstance(v, int) or isinstance(v, bool) or v < least:
                kind = "non-negative" if least == 0 else "positive"
                raise InputError(
                    f"{name} must be a {kind} integer, got {_shown(v)}")


def check_size(value, name: str, least: int) -> int:
    """``value`` read as a count of at least ``least`` that sizes a tuple
    or a range; one above ``sys.maxsize`` cannot, and is refused with
    :class:`CapacityError`."""
    check_integers((value,), name, least)
    if value > sys.maxsize:
        raise CapacityError(f"{name} must be at most {sys.maxsize}")
    return value


@dataclass(frozen=True)
class Problem:
    """A set of labelled states with populations, and a house size."""

    labels: tuple[str, ...]
    populations: tuple[int, ...]
    seats: int

    def __post_init__(self):
        object.__setattr__(self, "labels",
                           tuple(map(str, as_tuple(self.labels, "labels"))))
        object.__setattr__(self, "populations",
                           as_tuple(self.populations, "populations"))
        if len(self.labels) != len(self.populations):
            raise InputError("labels and populations differ in length")
        if not self.labels:
            raise InputError("a problem needs at least one state")
        if len(set(self.labels)) != len(self.labels):
            raise InputError("state labels must be pairwise distinct")
        check_integers(self.populations, "population", 1)
        check_integers((self.seats,), "seats", 0)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def total_population(self) -> int:
        return sum(self.populations)


@dataclass(frozen=True)
class QuotaVector:
    """Exact quotas ``floors[i] + nums[i] / den``, in integers.

    ``0 <= nums[i] < den`` and ``den`` is the least common denominator of
    the fractional parts.  ``quotas[i]`` is the exact entitlement of state i
    and ``fractional[i]`` its residual entitlement, both as ``Fraction``s
    built on first read; ``ceilings`` (the upper quotas) is likewise kept
    after its first read.  ``residual_seats`` is the number of seats left
    after every floor is granted (-1 when the fractional parts do not total
    an integer), and ``unsatisfied_count`` the number of states still
    competing for them.  The library builds its quota vectors to hold
    this; one a caller builds is checked when a public function reads it.
    """

    floors: tuple[int, ...]
    nums: tuple[int, ...]
    den: int

    @cached_property
    def quotas(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(f * den + n, den)
                     for f, n in zip(self.floors, self.nums))

    @cached_property
    def fractional(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @property
    def size(self) -> int:
        return len(self.floors)

    @cached_property
    def ceilings(self) -> tuple[int, ...]:
        return tuple(f + (1 if n else 0)
                     for f, n in zip(self.floors, self.nums))

    @property
    def residual_seats(self) -> int:
        seats, rest = divmod(sum(self.nums), self.den)
        return -1 if rest else seats

    @property
    def unsatisfied_count(self) -> int:
        return sum(1 for n in self.nums if n)


def quota_vector(values: Sequence) -> QuotaVector:
    """Build a QuotaVector from raw rational entitlements; the reader of
    every ``quota`` argument.

    Unlike :func:`compute_quota` this does not require the values to sum to
    an integer house size, which allows checks on externally supplied quota
    tables; ``residual_seats`` is -1 when the fractional parts do not total
    an integer.  A QuotaVector is returned as it is once its floors and
    numerators are tuples of equal length, its floors non-negative integers
    and its numerators integers in 0..den-1 for a positive integer den.
    """
    if isinstance(values, QuotaVector):
        floors, nums, den = values.floors, values.nums, values.den
        if not (type(floors) is type(nums) is tuple
                and len(floors) == len(nums)):
            raise InputError("quota floors and numerators must be tuples of "
                             "equal length")
        check_integers((den,), "quota denominator", 1)
        check_integers(floors, "quota floor", 0)
        check_integers(nums, "quota numerator", 0)
        if any(n >= den for n in nums):
            raise InputError("quota numerators must lie below the "
                             "denominator")
        return values
    quotas = as_fractions(values)
    for q in quotas:
        if q.numerator < 0:
            raise InputError(f"quota values must be non-negative, got "
                             f"{_shown(q, str)}")
    den = math.lcm(*(q.denominator for q in quotas))
    split = [divmod(q.numerator * (den // q.denominator), den) for q in quotas]
    return QuotaVector(tuple(f for f, _ in split), tuple(n for _, n in split),
                       den)


@dataclass(frozen=True)
class Allocation:
    """An integer seat vector with provenance for replay."""

    seats: tuple[int, ...]
    method: str
    seed: Optional[int] = None
    audit: Optional[Mapping] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "seats", as_tuple(self.seats, "seats"))
        check_integers(self.seats, "seat count", 0)

    @property
    def total(self) -> int:
        return sum(self.seats)


def broadcast_lower_bound(bound, size: int) -> tuple[int, ...]:
    """The minimums of ``size`` states from one integer for all or one per
    state, the one reader of lower bounds; anything else raises InputError,
    and a size past ``sys.maxsize`` CapacityError."""
    if type(size) is not int or not 0 <= size <= sys.maxsize:
        check_size(size, "state count", 0)
    if not isinstance(bound, Iterable):
        check_integers((bound,), "lower bound", 0)
        return (bound,) * size
    bounds = tuple(bound)
    if len(bounds) != size:
        raise InputError("lower-bound vector and state list differ in length")
    check_integers(bounds, "lower bound", 0)
    return bounds


# -- the argument boundary ---------------------------------------------------

def _integer(name: str, least: int):
    """The reader of one integer of at least ``least``, named ``name``."""
    def read(value):
        check_integers((value,), name, least)
        return value
    return read


def _instance(cls):
    """The reader of an instance of ``cls``."""
    def read(value):
        if not isinstance(value, cls):
            raise InputError(f"expected a {cls.__name__}, got "
                             f"{type(value).__name__}")
        return value
    return read


def _integers(values, name: str) -> tuple[int, ...]:
    values = as_tuple(values, name)
    check_integers(values, name, 0)
    return values


def _bounds(bounds, owner) -> tuple[int, ...]:
    if bounds is None:  # the unbounded scheme is stochastic_apportion
        raise InputError("lower bounds are required (got None); use 0 for "
                         "no minimum")
    return broadcast_lower_bound(bounds, owner.size)


def _state_index(i, owner) -> int:
    check_integers((i,), "state index", 0)
    if i >= owner.size:
        raise InputError(f"state index must be below {owner.size}, "
                         f"got {_shown(i, str)}")
    return i


def _method(method):
    if isinstance(method, str) or callable(method):
        return method  # its function resolves a name
    raise InputError(f"a method is a name or a callable, got "
                     f"{type(method).__name__}")


def _law(law) -> dict[int, Fraction]:
    check_integers(_read_mapping(law), "seat count", 0)
    return dict(zip(law, as_fractions(law.values())))


def _seed(seed) -> int:
    SeededSource(seed)  # refuses what a source refuses
    return seed


def _residual(residual) -> int:
    if type(residual) is not int:  # the samplers refuse a negative count
        check_integers((residual,), "residual", 0)
    return residual


def _price(divisor) -> Fraction:
    price = as_fraction(divisor, "price per seat")
    if price <= 0:
        raise InputError(f"price per seat must be positive, "
                         f"got {_shown(price, str)}")
    return price


# The ranges random_problem draws from, which the pair builders pass on.
_RANGES = {"min_states": _integer("state count range end", 0),
           "max_states": _integer("state count range end", 0),
           "max_population": _integer("population range end", 0),
           "min_seats": _integer("house size range end", 0),
           "max_seats": _integer("house size range end", 0)}


def _ranges(kwargs) -> dict:
    for name in kwargs.keys() - _RANGES.keys():
        raise InputError(f"unknown problem range {name!r}")
    return {name: _RANGES[name](v) for name, v in kwargs.items()}


_read_problem, _read_mapping = _instance(Problem), _instance(Mapping)
# The reader of each public parameter, by name; a key "function.name"
# serves that function alone.  A reader returns the value its function
# gets.  A reader in _OWNED also gets the call's state-count holder: its
# ``self``, ``prob`` or ``quota``, as read.  The modules that define the
# other records add their readers.
_READERS = {
    **_RANGES, "prob": _read_problem, "base": _read_problem,
    "extended": _read_problem, "before": _read_problem,
    "after": _read_problem, "src": _instance(SeededSource),
    "corpus": lambda c: tuple(map(_read_problem, as_tuple(c, "corpus"))),
    "probabilities": _read_mapping, "lower": _law, "upper": _law,
    "quota": quota_vector, "bounds": _bounds, "i": _state_index,
    "lower_bounds": lambda bounds, owner: (
        None if bounds is None else broadcast_lower_bound(bounds, owner.size)),
    "fracs": as_fractions, "values": as_fractions, "original": as_fractions,
    "populations": lambda pops: as_tuple(pops, "populations"),
    "labels": lambda v: None if v is None else as_tuple(v, "labels"),
    "indices": lambda v: None if v is None else _integers(v, "index"),
    "alloc": lambda a: _integers(getattr(a, "seats", a), "seat count"),
    "method": _method, "kwargs": _ranges, "master_seed": _seed,
    "seats": _integer("seats", 0),
    "random_permutation.n": lambda n: check_size(n, "permutation length", 1),
    "population": _integer("population", 1), "residual": _residual,
    "limit": _integer("limit", 1), "cap": _integer("cap", 1),
    "max_attempts": _integer("max_attempts", 1),
    "max_tuples": _integer("max_tuples", 1), "average_orders": bool,
    "u": lambda u: as_fraction(u, "offset"),
    "z": lambda z: as_fraction(z, "z"), "divisor": _price,
}
_OWNED = ("bounds", "lower_bounds", "i")


def entry(fn):
    """``fn`` behind its readers: a function with the same parameters that
    reads each argument in order, with the reader ``_READERS`` holds for
    its name, and calls ``fn`` on the values read.  ``self`` is not read.
    The readers are looked up here, once, and the wrapper is compiled from
    source as ``dataclasses`` compiles its methods, so a call pays for its
    readers and one frame.  A parameter with no reader is passed as it
    is; the boundary tests name it, as the wrapper reads each parameter
    through a global ``_read_<name>``."""
    params = inspect.signature(fn).parameters.values()
    owner = next((p.name for p in params
                  if p.name in ("self", "prob", "quota")), None)
    env, head, reads, args = {"_body": fn}, [], [], []
    for p in params:
        name = p.name
        reader = _READERS.get(f"{fn.__name__}.{name}", _READERS.get(name))
        if p.kind is p.KEYWORD_ONLY and "*" not in head:
            head.append("*")
        if name != "self" and reader is not None:
            env[f"_read_{name}"] = reader
            extra = f", {owner}" if name in _OWNED else ""
            reads.append(f"    {name} = _read_{name}({name}{extra})\n")
        star = "**" if p.kind is p.VAR_KEYWORD else ""
        head.append(star + name)
        args.append(f"{name}={name}" if p.kind is p.KEYWORD_ONLY
                    else star + name)
    exec(f"def {fn.__name__}({', '.join(head)}):\n{''.join(reads)}"
         f"    return _body({', '.join(args)})\n", env)
    read = env[fn.__name__]
    read.__defaults__, read.__kwdefaults__ = fn.__defaults__, fn.__kwdefaults__
    return update_wrapper(read, fn)


@entry
def problem(populations: Sequence[int], seats: int,
            labels: Optional[Sequence[str]] = None) -> Problem:
    """Convenience constructor with auto-generated labels S1..Sn."""
    if labels is None:
        labels = tuple(f"S{i + 1}" for i in range(len(populations)))
    return Problem(labels, populations, seats)


@entry
def compute_quota(prob: Problem) -> QuotaVector:
    """Exact quotas seats * population / total for every state."""
    total = prob.total_population
    g = math.gcd(prob.seats, total)
    seats, den = prob.seats // g, total // g
    floors, nums = zip(*(divmod(seats * p, den) for p in prob.populations))
    g = math.gcd(den, *nums)
    return QuotaVector(floors, tuple(n // g for n in nums), den // g)


@entry
def satisfies_quota(alloc, quota: QuotaVector) -> bool:
    """True when every state sits between its lower and upper quota;
    ``alloc`` is an Allocation or a plain seat sequence."""
    if len(alloc) != quota.size:
        raise InputError("allocation and quota vector differ in length")
    return all(f <= a <= c
               for a, f, c in zip(alloc, quota.floors, quota.ceilings))


@entry
def feasible_with_lower_bound(quota: QuotaVector,
                              bounds: int | Sequence[int],
                              seats: int) -> bool:
    """Existence test for an allocation satisfying quota with lower bound.

    Such an allocation exists exactly when no bound exceeds its state's
    upper quota and the floors forced by max(bound, lower quota) still fit
    in the house.
    """
    if any(b > c for b, c in zip(bounds, quota.ceilings)):
        return False
    return sum(max(b, f) for b, f in zip(bounds, quota.floors)) <= seats
