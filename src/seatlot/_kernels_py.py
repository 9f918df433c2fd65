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

The ordering-averaged law, ``averaged_mask_lengths``, counts every
ordering at once: a dynamic program over the sets of states placed so far
keeps the orderings of each offset cell as lanes of one integer (see its
docstring).  The fixed-order law, ``fixed_order_lengths``, is one sweep of
one ordering, ``_sweep``.  The pure batch, ``simulate_batch``,
shuffles and rounds each replicate in one backward pass over its block of
draws; it runs ``scheme_replicate``, the single-draw replicate, only as
its exact fallback, and ``flags_mask`` packs that fallback's flags.
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict

from .rng import (_BLOCK, U53_DENOMINATOR, SeededSource,
                  _child_seed_blocks, _replicate_draws, _unpack_lanes)

# Winner masks index at most 2**16 cells; _kernels_native.c has the same.
MAX_MASK_STATES = 16


def position_from_bits53(u53, den):
    """Map a uniform draw k/2**53 to the rounding position on the den-grid.

    Indicator vectors, as functions of the continuous offset u, are constant
    on the half-open grid cells (c/den, (c+1)/den]; ceil(k*den / 2**53) is the
    representative of the cell containing k/2**53, so rounding at the mapped
    position equals rounding at the exact rational k/2**53.
    """
    return (u53 * den + U53_DENOMINATOR - 1) >> 53


def _sweep(den, s, states, acc):
    """Add every cell length of one ordering of ``states`` to
    ``acc[winner mask]``: a list of 2**s entries or a ``defaultdict(int)``.

    A state is a ``(bit, fraction)`` item, bit = 1 << its input index; the
    states are all those with a positive fraction, so their running sums
    end on a multiple of ``den`` and the cell lengths sum to ``den``.

    The mask on the first cell (0, b1] follows from the running sums c_k:
    position k wins iff floor(c_k / den) exceeds floor(c_(k-1) / den).  As
    the offset passes the breakpoint den - (c_k mod den), k < t - 1, the
    point u + c_k crosses an integer, so position k gains the seat
    position k+1 held: the mask XORs both bits.  One sort of the
    breakpoints then yields every cell in order.  Equal breakpoints need no
    grouping; their toggles compose, and the masks between them get cells
    of length zero.
    """
    toggles = (1 << s) - 1
    # r is the running sum mod den before a state; a key is
    # breakpoint << s | toggle, so keys sort by breakpoint.
    keys = []
    r = mask = prev = 0
    for bit, f in states:
        if r:
            keys.append((den - r) << s | prev | bit)
        r += f
        if r >= den:
            r -= den
            mask |= bit
        prev = bit
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
    _sweep(den, len(frac_nums), _live(frac_nums), acc)
    return acc


def averaged_mask_lengths(frac_nums, den):
    """Total cell length per winner mask, summed over the (s-1)! state
    orderings that keep the last state in the final slot.

    Cyclic rotations of an ordering induce the same allocation law
    (shifting the offset absorbs the rotation), so these orderings give
    the law of the scheme; ``_backend`` scales to all s! orderings.  Masks
    are in the input-index basis.  Divide by ``den * (s-1)!`` to get
    probabilities.

    A state with a zero fraction never wins, so only the s' states with a
    positive fraction are ordered, the last of them pinned after the h =
    s' - 1 head states; each such ordering stands for (s-1)!/(s'-1)! of
    all s.  A head of at most one state has one ordering, for ``_sweep``.

    Larger heads go through a dynamic program over the sets S of head
    states placed so far.  State i placed right after S wins exactly when
    (u + c(S), u + c(S) + f_i) holds a multiple of den: for the offsets u
    in the cyclic interval (beta(S + i), beta(S)), beta(S) = -c(S) mod
    den, whatever the order within S.  So the 2**h points beta(S) cut
    [0, den) into cells, each such interval is a run of whole cells, and
    the program keeps, per S and winner mask W, the orderings of S that
    give W on each cell, as lanes of one integer.  Placing i splits them
    by ``won = v & region`` and ``v - won``.  A lane counts orderings of
    at most h states, at most h!, so lanes of bits(h!) bits, rounded up to
    1, 2, 4 or 8 bytes for ``_unpack_lanes``, never carry.  The last state
    wins on (0, beta(head)) = (0, f_last); each final lane, times its
    cell's length, adds to its mask.
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
    *head, (last, f_last) = live
    h = len(head)
    if h < 2:
        _sweep(den, s, live, acc)
    else:
        # beta[S] for every set S of head positions, one subset at a time.
        beta = [0] * (1 << h)
        for S in range(1, 1 << h):
            low = S & -S
            beta[S] = (beta[S ^ low] - head[low.bit_length() - 1][1]) % den
        cuts = sorted(set(beta))
        lengths = [b - a for a, b in zip(cuts, cuts[1:] + [den])]
        size = 1 << ((math.factorial(h).bit_length() - 1) // 8).bit_length()
        width = 8 * size
        cell = {b: 1 << width * k for k, b in enumerate(cuts)}
        # at[S]: the lowest bit of beta(S)'s lane.  The region of S + i is
        # at[S] - at[S + i], plus all lanes when it wraps past den.
        at = [cell[b] for b in beta]
        wrap = (1 << width * len(cuts)) - 1
        # One layer per head size: set S -> {winner mask W: packed counts}.
        layer = {0: {0: wrap // ((1 << width) - 1)}}
        for _ in range(h):
            after = defaultdict(dict)
            for S, counts in layer.items():
                for j, (bit, _f) in enumerate(head):
                    if S >> j & 1:
                        continue
                    T = S | 1 << j
                    region = at[S] - at[T]
                    if region < 0:
                        region += wrap
                    out = after[T]
                    for W, v in counts.items():
                        won = v & region
                        if won:
                            out[W | bit] = out.get(W | bit, 0) + won
                            v -= won
                        if v:
                            out[W] = out.get(W, 0) + v
            layer = after
        # The last state wins on the cells below beta(head) = f_last.
        below = lengths[:cuts.index(f_last)]
        for W, v in layer[(1 << h) - 1].items():
            counts = _unpack_lanes(v, size, len(cuts))
            part = sum(map(operator.mul, below, counts))
            acc[W | last] += part
            acc[W] += sum(map(operator.mul, lengths, counts)) - part
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
