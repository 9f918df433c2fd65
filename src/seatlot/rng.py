"""Deterministic, platform-independent pseudo-random source.

Every random decision in seatlot flows through :class:`SeededSource`, a
SplitMix64 generator.  SplitMix64 is a tiny, well-studied 64-bit generator
(the canonical seeder for the xoshiro family): the state advances by a fixed
odd constant and each output is a bit-mixing finalizer of the state.  It is
implemented here, rather than taken from :mod:`random`, so that the exact
output sequence is pinned by this file alone and can be replicated verbatim
by the compiled kernels.

Reproducibility contract:

* identical seeds produce identical output sequences on every platform,
  Python version and backend (compiled or pure);
* ``child(k)`` derives an independent stream as a pure function of
  ``(seed, k)``, so parallel replicates can be generated in any order;
* integers below a bound n <= 2**64 come from unbiased rejection
  sampling of one 64-bit draw each (draws with value >= ``(2**64 // n) *
  n`` are discarded); a larger bound is refused, as every draw would be.

Block draws.  The state after t draws is ``seed + t * GOLDEN`` (mod 2**64),
so the next k outputs do not depend on one another.  ``_next_block`` mixes
them at once as k 128-bit lanes of one Python integer: masking every lane
to 64 bits before each multiply keeps each product inside its lane, so the
lanes never carry into one another.  ``_unpack_lanes`` reads them back,
as it reads the Hamilton walk's lanes in :mod:`seatlot.divisor`; the
integer arithmetic is exact, so the outputs are the scalar outputs on
every platform.  ``shuffled_range`` consumes blocks of at most ``_BLOCK``
draws, which keeps its extra memory bounded at any length.  Child seed k of
a master is output k of the stream seeded at the master, so a batch takes
its seeds in blocks too (``_child_seed_blocks``), and each replicate's
shuffle and offset draws in one more (``_replicate_draws``).
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction

from .errors import InputError, _shown

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
# Draws are uniform on [0, _SPAN); a bound n accepts the draws below the
# largest multiple of n in that range.  randbelow and the block shuffle
# both read it, so lowering it forces rejections on both paths alike.
_SPAN = 1 << 64
# The largest bound randbelow accepts: above 2**64 no multiple of the
# bound fits under the span, so every draw would be rejected.
MAX_BOUND = 1 << 64
_BLOCK = 128
_BIG_ENDIAN = sys.byteorder == "big"
# array typecodes by item size in bytes, for lanes of 8 to 64 bits.
_LANE_CODES = {array(code).itemsize: code for code in "QLIHB"}

U53_DENOMINATOR = 1 << 53


def mix64(value: int) -> int:
    """SplitMix64 output finalizer (variant 13 of Stafford's mixers)."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


_LANES: dict[int, tuple[int, int, int]] = {}


def _lane_constants(k: int) -> tuple[int, int, int]:
    """(ones, steps, mask) for k lanes of 128 bits: lane t holds 1, the
    state increment of draw t + 1, and 2**64 - 1.  At most _BLOCK entries
    are ever cached."""
    consts = _LANES.get(k)
    if consts is None:
        ones = int.from_bytes((b"\x01" + bytes(15)) * k, "little")
        steps = 0
        for t in range(k, 0, -1):
            steps = steps << 128 | (t * _GOLDEN) & _MASK64
        consts = _LANES[k] = (ones, steps, ones * _MASK64)
    return consts


def _mixed_lanes(state: int, k: int) -> int:
    """The k outputs that follow ``state``, 1 <= k <= _BLOCK, mixed as
    lanes of one integer exactly as ``mix64`` mixes each alone.  Output t
    is the low 64 bits of lane t; bits 64 to 96 of every lane are 0."""
    ones, steps, mask = _lane_constants(k)
    z = (state * ones + steps) & mask
    z = ((z ^ (z >> 30)) & mask) * _MUL1 & mask
    z = ((z ^ (z >> 27)) & mask) * _MUL2 & mask
    return z ^ z >> 31


def _unpack_lanes(value: int, size: int, count: int):
    """The ``count`` lanes of ``size`` bytes of ``value``, lowest first: an
    array when an array type has that size, else a list."""
    data = value.to_bytes(size * count, "little")
    code = _LANE_CODES.get(size)
    if code is None:
        return [int.from_bytes(data[j:j + size], "little")
                for j in range(0, size * count, size)]
    lanes = array(code, data)
    if _BIG_ENDIAN:
        lanes.byteswap()
    return lanes


def _next_block(state: int, k: int) -> array:
    """The k outputs that follow ``state``, 1 <= k <= _BLOCK."""
    return _unpack_lanes(_mixed_lanes(state, k), 8, 2 * k)[::2]


def _child_seed_blocks(master_seed: int, n: int):
    """Yield ``child_seed(master_seed, k)`` for k = 0 .. n - 1 in blocks of
    at most _BLOCK: child k is output k of the stream seeded at the
    master."""
    state = master_seed & _MASK64
    for start in range(0, n, _BLOCK):
        k = min(_BLOCK, n - start)
        yield _next_block(state, k)
        state = (state + k * _GOLDEN) & _MASK64


# (addend, bit-64 mask) of the first s - 1 lanes, keyed by (s, _SPAN): at
# most _BLOCK entries for each span.
_HIGH_DRAW_TESTS: dict[tuple[int, int], tuple[int, int]] = {}


def _replicate_draws(seed: int, s: int) -> array | None:
    """The s draws of one scheme replicate on the stream seeded at ``seed``
    (0 <= seed < 2**64, 1 <= s <= _BLOCK): the s - 1 draws that
    ``shuffled_range(s)`` takes when none is rejected, then the draw of
    ``bits53``.  None when a shuffle draw is at or above ``_SPAN - s``,
    where the shuffle may reject it; ``shuffled_range`` then decides.

    The test runs on the packed lanes: adding 2**64 - _SPAN + s to a draw
    sets bit 64 of its lane exactly when the draw is at or above
    _SPAN - s, and the sum cannot carry past bit 64.
    """
    z = _mixed_lanes(seed, s)
    if s > 1:
        key = (s, _SPAN)
        test = _HIGH_DRAW_TESTS.get(key)
        if test is None:
            ones = _lane_constants(s - 1)[0]
            test = (ones * ((1 << 64) - _SPAN + s), ones << 64)
            _HIGH_DRAW_TESTS[key] = test
        if (z + test[0]) & test[1]:
            return None
    return _unpack_lanes(z, 8, 2 * s)[::2]


def child_seed(master_seed: int, index: int) -> int:
    """Seed for child stream ``index``, a pure function of its arguments.

    Children of one master are spaced along the SplitMix64 orbit and then
    mixed, which keeps distinct (master, index) pairs from colliding in
    practice; child k is output k of the stream seeded at the master, read
    modulo 2**64.  The compiled kernels use this exact formula.  A bool or
    non-integer argument, and a negative index, raise
    :class:`InputError`.
    """
    # Exact type first: the callable path of simulate seeds every draw here.
    if type(master_seed) is not int:
        SeededSource._check_int(master_seed, "seed")
    if type(index) is not int:
        SeededSource._check_int(index, "child index")
    if index < 0:
        raise InputError("child index must be non-negative")
    return mix64((master_seed + (index + 1) * _GOLDEN) & _MASK64)


class SeededSource:
    """SplitMix64 stream seeded by an int, read modulo 2**64; a bool or any
    other seed raises :class:`InputError`.

    Not shareable across threads: concurrent tasks should each derive their
    own stream with :meth:`child`.
    """

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        # Exact type first: a source is built per replicate.
        if type(seed) is not int:
            self._check_int(seed, "seed")
        self.seed = seed & _MASK64
        self._state = self.seed

    @staticmethod
    def _check_int(value, what: str) -> None:
        """Refuse a bool or a non-integer ``value`` with InputError."""
        if not isinstance(value, int) or isinstance(value, bool):
            raise InputError(f"{what} must be an integer, got {_shown(value)}")

    def __repr__(self):
        return f"SeededSource(seed={self.seed})"

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return mix64(self._state)

    def bits53(self) -> int:
        """Uniform integer in [0, 2**53): the top 53 bits of one output."""
        return self.next_u64() >> 11

    def uniform_fraction(self) -> Fraction:
        """Uniform rational k / 2**53; exact, suitable for interval tests."""
        return Fraction(self.bits53(), U53_DENOMINATOR)

    def randbelow(self, n: int) -> int:
        """Unbiased uniform integer in [0, n), for 1 <= n <= MAX_BOUND."""
        if not isinstance(n, int) or isinstance(n, bool):
            raise TypeError(f"randbelow bound must be an integer, got {n!r}")
        if n <= 0:
            raise ValueError("randbelow bound must be positive")
        if n > MAX_BOUND:
            raise ValueError(f"randbelow bound must be at most 2**64, got {n}")
        if n == 1:
            return 0
        limit = _SPAN - _SPAN % n
        while True:
            draw = self.next_u64()
            if draw < limit:
                return draw % n

    def shuffled_range(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of [0, n), consuming randbelow(i+1) for
        i = n-1 .. 1.  The compiled kernels replay the same order.

        The draws come in blocks from ``_next_block``.  A draw below
        ``_SPAN - n`` is accepted by every bound up to n, so only draws at
        or above it pay the exact test.  At the first rejected draw the
        rest of the shuffle continues through ``randbelow``; either way the
        order and the state are those of the draw-by-draw loop.
        """
        order = list(range(n))
        i = n - 1
        safe = _SPAN - n
        state = self._state
        while i > 0:
            k = i if i < _BLOCK else _BLOCK
            for t, draw in enumerate(_next_block(state, k)):
                m = i + 1
                if draw >= safe and draw >= _SPAN - _SPAN % m:
                    self._state = (state + (t + 1) * _GOLDEN) & _MASK64
                    while i > 0:
                        j = self.randbelow(i + 1)
                        order[i], order[j] = order[j], order[i]
                        i -= 1
                    return order
                j = draw % m
                order[i], order[j] = order[j], order[i]
                i -= 1
            state = (state + k * _GOLDEN) & _MASK64
        self._state = state
        return order

    def child(self, index: int) -> "SeededSource":
        """Independent stream derived from (self.seed, index)."""
        return SeededSource(child_seed(self.seed, index))
