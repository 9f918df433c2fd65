"""Pure-Python kernels for the hot inner loops.

This module is the reference implementation.  ``averaged_mask_lengths``
and ``simulate_batch`` also have a compiled twin in ``_kernels_native.c``,
reached through ``seatlot._backend``; this module is their fallback when no
library is built or a call's integer magnitudes exceed int64.  Both
backends must produce bit-identical results; ``tests/test_kernels.py``
enforces that.  The other kernels exist only here and are called directly.

Conventions shared by both backends:

* Fractional seat entitlements arrive as integer numerators ``frac_nums``
  over a common denominator ``den``; each numerator lies in [0, den) and
  their total is a multiple of ``den``.
* A rounding position ``u_num`` is a numerator over the same ``den``
  (0 <= u_num <= den).  State ``k`` of the given order wins a residual seat
  exactly when the half-open interval [u + c(k-1), u + c(k)) of cumulative
  entitlements contains an integer, i.e. when ceil((u_num + c(k)) / den)
  exceeds ceil((u_num + c(k-1)) / den).
* A single draw returns its winners as a 0/1 ``bytearray`` of flags (entry i
  = 1 when state i wins a residual seat), so a caller adds them to the
  floors in one pass.  The exact law and the batch tallies key on bit masks
  (bit i = state i wins).
* All randomness is SplitMix64 per :mod:`seatlot.rng`; replicate ``k`` of a
  batch uses the stream seeded by ``child_seed(master_seed, k)``.

Both exact laws, ``averaged_mask_lengths`` and ``fixed_order_lengths``,
add their cells through one sweep, ``_sweep``.  The averaged law sweeps
the fixed tail (end, last) of each mirror pair once for all of the pair's
orderings (see its docstring).  The pure batch, ``simulate_batch``,
shuffles and rounds each replicate in one backward pass over its block of
draws; it runs ``scheme_replicate``, the single-draw replicate, only as
its exact fallback, and ``flags_mask`` packs that fallback's flags.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

from .rng import (_BLOCK, U53_DENOMINATOR, SeededSource,
                  _child_seed_blocks, _replicate_draws)

# Winner masks index at most 2**16 cells; _kernels_native.c has the same.
MAX_MASK_STATES = 16
# The first state of a group that has none: no bit, no fraction.
_NO_STATE = (0, 0)


def position_from_bits53(u53, den):
    """Map a uniform draw k/2**53 to the rounding position on the den-grid.

    Indicator vectors, as functions of the continuous offset u, are constant
    on the half-open grid cells (c/den, (c+1)/den]; ceil(k*den / 2**53) is the
    representative of the cell containing k/2**53, so rounding at the mapped
    position equals rounding at the exact rational k/2**53.
    """
    return (u53 * den + U53_DENOMINATOR - 1) >> 53


def _sweep(den, s, groups, acc):
    """Add every cell length of each ordering to ``acc[winner mask]``.

    ``groups`` yields ``(first, rest, tail)``: the orderings
    ``(first, *middle, *tail)`` for every permutation ``middle`` of
    ``rest``.  A state is a ``(bit, fraction)`` item, bit = 1 << its
    input index; ``first = _NO_STATE`` stands for no first state, and with
    it and an empty ``rest`` the tail is the one ordering swept.  The
    states of an ordering are all t states with a positive fraction, so
    its running sums end on a multiple of ``den``.  Masks are in the
    input-index basis; the cell lengths of one ordering sum to ``den``.
    ``acc`` is anything that supports ``acc[mask] += length``: a list of
    2**s entries or a ``collections.defaultdict(int)``.

    Sweep.  In one ordering the mask on the first cell (0, b1] follows from
    the running sums c_k: position k wins iff floor(c_k / den) exceeds
    floor(c_(k-1) / den).  As the offset passes the breakpoint
    den - (c_k mod den), k < t - 1, the point u + c_k crosses an integer, so
    position k gains the seat position k+1 held: the mask XORs both bits.
    One sort of the breakpoints then yields every cell in order.  Equal
    breakpoints need no grouping; their toggles compose, and the masks
    between them get cells of length zero.

    Fixed tail.  The running sum before the tail is the same for every
    middle, so the tail's breakpoints and wins are found once per group;
    only the toggle of the tail's first breakpoint depends on the middle,
    through the state that precedes it.
    """
    toggles = (1 << s) - 1
    for (prev0, r0), rest, tail in groups:
        # r is the running sum mod den before a state; a key is
        # breakpoint << s | toggle, so keys sort by breakpoint.  After
        # ``first`` the running sum is its fraction and its bit precedes
        # the middle.  end_key is the key of the tail's first state
        # without the bit of the state before it.
        r = (r0 + sum(f for _, f in rest)) % den
        end_key = tail_mask = prev = 0
        tail_keys = []
        for bit, f in tail:
            if r:
                if prev:
                    tail_keys.append((den - r) << s | prev | bit)
                else:
                    end_key = (den - r) << s | bit
            r += f
            if r >= den:
                r -= den
                tail_mask |= bit
            prev = bit
        for middle in itertools.permutations(rest):
            r = r0
            prev = prev0
            mask = tail_mask
            keys = tail_keys.copy()
            for bit, f in middle:
                if r:
                    keys.append((den - r) << s | prev | bit)
                r += f
                if r >= den:
                    r -= den
                    mask |= bit
                prev = bit
            if end_key:
                keys.append(end_key | prev)
            keys.sort()
            prev = 0
            for key in keys:
                b = key >> s
                acc[mask] += b - prev
                mask ^= key & toggles
                prev = b
            acc[mask] += den - prev


def _live(frac_nums):
    """The states with a positive fraction, in input order, as
    ``(bit, fraction)`` items."""
    return [(1 << i, f) for i, f in enumerate(frac_nums) if f]


def fixed_order_lengths(frac_nums, den):
    """Cell length per winner mask of the one ordering that takes the
    states in input order, as a ``defaultdict(int)`` keyed by mask, for
    any number of states.  Zero fractions are left out, as in the
    ordering-averaged law; they never win."""
    acc = defaultdict(int)
    _sweep(den, len(frac_nums), [(_NO_STATE, (), _live(frac_nums))], acc)
    return acc


def averaged_mask_lengths(frac_nums, den):
    """Total cell length per winner mask, summed over the (s-1)! state
    orderings that keep the last state in the final slot.

    Cyclic rotations of an ordering induce the same allocation law
    (shifting the offset absorbs the rotation), so these orderings give
    the law of the scheme; ``_backend`` scales to all s! orderings.  Masks
    are in the input-index basis.  Divide by ``den * (s-1)!`` to get
    probabilities.

    The orderings are swept by ``_sweep``.  Three exact shortcuts give
    the same integers as sweeping every ordering:

    * Mirror pairs.  Reversing the head of an ordering (last state pinned)
      and rotating maps the offset u to -u, which turns every segment
      [a, b) into (a, b].  The two differ only when an endpoint is an
      integer, which happens at finitely many offsets, so the mirror has
      the same length per mask.  Only heads with head[0] < head[-1] are
      swept, one pair (head[0], head[-1]) at a time, each counted twice
      (for three or more states; a one-state head is its own mirror and
      is swept once).
    * Fixed tail.  An ordering of a pair is (first, *middle, end, last).
      The running sum before ``end`` is f_first plus the middle's total
      whatever order the middle takes, so the breakpoints and wins of
      ``end`` and ``last`` are found once per pair, and each ordering
      sweeps only its t - 3 middle states.
    * Zero fractions.  A state with a zero fractional part has an empty
      segment and never wins, so only the s' states with a positive part
      are ordered; each of their orderings stands for (s-1)!/(s'-1)!
      orderings with the last state pinned, and with s' = 0 every offset
      gives the empty mask.
    """
    s = len(frac_nums)
    if s == 0:
        return [den]
    acc = [0] * (1 << s)
    scale = math.factorial(s - 1)
    live = _live(frac_nums)
    if not live:
        acc[0] = den * scale
        return acc
    scale //= math.factorial(len(live) - 1)
    *head, last = live
    if len(head) < 2:
        groups = [(_NO_STATE, (), live)]
    else:
        scale *= 2
        groups = ((head[a], head[:a] + head[a + 1:b] + head[b + 1:],
                   (head[b], last))
                  for a, b in itertools.combinations(range(len(head)), 2))
    _sweep(den, s, groups, acc)
    if scale != 1:
        acc = [length * scale for length in acc]
    return acc


def systematic_flags(frac_nums, den, u_num, order):
    """Winner flags of systematic rounding at position ``u_num``, the
    states taken in ``order``: a ``bytearray`` of ``len(frac_nums)``
    entries, 1 for each state that wins a residual seat.

    The loop keeps r = u + c(k) - den * ceil((u + c(k)) / den), which lies
    in (-den, 0]; adding the next fraction lifts it above 0 exactly when
    the ceiling grows, so each state costs one add and one compare.
    """
    r = u_num - den if u_num else 0
    flags = bytearray(len(frac_nums))
    for i in order:
        r += frac_nums[i]
        if r > 0:
            r -= den
            flags[i] = 1
    return flags


# Maps flag bytes 0 and 1 to the digits "0" and "1".
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def flags_mask(flags):
    """The bit mask of 0/1 ``flags`` (bit i = flags[i]), read in one pass
    as a base-2 numeral, most significant state first."""
    return int(flags[::-1].translate(_DIGITS) or b"0", 2)


def scheme_replicate(src, frac_nums, den):
    """One scheme replicate: shuffle, draw, round.

    Returns ``(order, u53, flags)``: the ordering, the offset draw and the
    winner flags (flags[i] = 1 when state i wins a residual seat).
    """
    order = src.shuffled_range(len(frac_nums))
    u53 = src.bits53()
    return order, u53, systematic_flags(
        frac_nums, den, position_from_bits53(u53, den), order)


def _failure_masks(floors, ok):
    """(bad if won, bad if lost): the masks of the states i for which
    ``ok(i, seats)`` fails at f + 1 seats and at f seats, f = floors[i]."""
    won = lost = 0
    for i, f in enumerate(floors):
        if not ok(i, f + 1):
            won |= 1 << i
        if not ok(i, f):
            lost |= 1 << i
    return won, lost


def simulate_batch(scheme_floors, frac_nums, den, quota_floors, quota_ceils,
                   lower_bounds, master_seed, n, house_size):
    """n seeded scheme replicates with per-replicate violation checks.

    Returns ``(seat_sums, seat_sumsqs, quota_violations, bound_violations,
    sum_mismatches, mask_counts)``: violation counts are per replicate,
    sum_mismatches counts replicates whose seats do not total house_size,
    and mask_counts (input-index winner masks, only for s <=
    MAX_MASK_STATES, else None) recover the empirical allocation
    distribution.

    Replicate draws.  The seeds ``child_seed(master_seed, k)`` come in
    blocks (``rng._child_seed_blocks``), and each replicate's s draws in
    one more (``rng._replicate_draws``): the s - 1 draws of its shuffle,
    then its offset.  Fisher-Yates fixes the ordering from its last
    position down, one position per shuffle draw, so the rounding loop of
    ``systematic_flags`` runs backwards alongside it.  With q = r + den,
    which lies in (0, den], the forward loop ends on the q in that range
    that is congruent to u_num plus the fractions' total modulo den.
    Each fixed state undoes its step: it won a seat exactly when
    q - f <= 0, and the q before it is q - f, plus den if it won.  So each
    state goes straight into the winner mask, and no ordering, flags or
    source is built.  A block with a shuffle draw that the shuffle may
    reject, and every replicate of more than ``_BLOCK`` states, goes
    through ``scheme_replicate`` on ``SeededSource(seed)`` instead, its
    flags packed by ``flags_mask``.

    Every tally follows from the winner mask W of each replicate and the
    per-state win counts w.  A state with floor f gets f + W_i seats, so
    its seat sum is n*f + w and its sum of squares n*f**2 + (2f + 1)*w.  A
    replicate violates quota (or a bound) when W meets the states that
    fail with a residual seat or misses one that fails without it; its
    seats total sum(floors) + popcount(W).  The win counts are kept as bit
    planes: bit i of ``planes[p]`` is bit p of state i's count, and adding
    W is a ripple-carry add across the planes.
    """
    s = len(frac_nums)
    quota_won, quota_lost = _failure_masks(
        scheme_floors, lambda i, a: quota_floors[i] <= a <= quota_ceils[i])
    bound_won, bound_lost = _failure_masks(
        scheme_floors, lambda i, a: a >= lower_bounds[i])
    residual = house_size - sum(scheme_floors)
    quota_violations = 0
    bound_violations = 0
    sum_mismatches = 0
    mask_counts = [0] * (1 << s) if s <= MAX_MASK_STATES else None
    planes = []
    items = [(f, 1 << i) for i, f in enumerate(frac_nums)]
    total = sum(frac_nums)
    positions = range(s - 1, 0, -1)
    blocked = 0 < s <= _BLOCK
    for seeds in _child_seed_blocks(master_seed, n):
        for seed in seeds:
            draws = _replicate_draws(seed, s) if blocked else None
            if draws is None:
                winners = flags_mask(
                    scheme_replicate(SeededSource(seed), frac_nums, den)[2])
            else:
                u_num = position_from_bits53(draws[-1] >> 11, den)
                q = (u_num + total) % den or den
                pool = items.copy()
                winners = 0
                for i, draw in zip(positions, draws):
                    j = draw % (i + 1)
                    f, bit = pool[j]
                    pool[j] = pool[i]
                    q -= f
                    if q <= 0:
                        q += den
                        winners |= bit
                f, bit = pool[0]
                if f >= q:
                    winners |= bit
            if winners & quota_won or (winners & quota_lost) != quota_lost:
                quota_violations += 1
            if winners & bound_won or (winners & bound_lost) != bound_lost:
                bound_violations += 1
            if winners.bit_count() != residual:
                sum_mismatches += 1
            if mask_counts is not None:
                mask_counts[winners] += 1
            carry = winners
            for p, plane in enumerate(planes):
                planes[p] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
    sums = []
    sumsqs = []
    for i, f in enumerate(scheme_floors):
        wins = sum((plane >> i & 1) << p for p, plane in enumerate(planes))
        sums.append(n * f + wins)
        sumsqs.append(n * f * f + (2 * f + 1) * wins)
    return (sums, sumsqs, quota_violations, bound_violations,
            sum_mismatches, mask_counts)
