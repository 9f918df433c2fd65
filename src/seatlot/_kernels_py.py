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
* Indicator vectors are packed as bit masks (bit i = state i wins a seat).
* All randomness is SplitMix64 per :mod:`seatlot.rng`; replicate ``k`` of a
  batch uses the stream seeded by ``child_seed(master_seed, k)``.
"""

from __future__ import annotations

import itertools
import math

from .rng import SeededSource, child_seed

_M53 = 1 << 53


def systematic_round_ints(frac_nums, den, u_num):
    """0/1 residual-seat indicators for one ordering, exact integer test."""
    out = []
    prev_ceil = (u_num + den - 1) // den
    c = u_num
    for f in frac_nums:
        c += f
        cur_ceil = (c + den - 1) // den
        out.append(cur_ceil - prev_ceil)
        prev_ceil = cur_ceil
    return out


def position_from_bits53(u53, den):
    """Map a uniform draw k/2**53 to the rounding position on the den-grid.

    Indicator vectors, as functions of the continuous offset u, are constant
    on the half-open grid cells (c/den, (c+1)/den]; ceil(k*den / 2**53) is the
    representative of the cell containing k/2**53, so rounding at the mapped
    position equals rounding at the exact rational k/2**53.
    """
    return (u53 * den + _M53 - 1) >> 53


def sweep_orders(frac_nums, den, orders, acc):
    """Add every cell length of each ordering to ``acc[winner mask]``.

    Each ordering lists the input indices of all t states with a positive
    fraction, so its running sums end on a multiple of ``den``.  Masks
    are in the input-index basis; the cell lengths of one ordering sum to
    ``den``.  ``acc`` is anything that supports ``acc[mask] += length``: a
    list of 2**s entries or a ``collections.defaultdict(int)``.

    Sweep.  In one ordering the mask on the first cell (0, b1] follows from
    the running sums c_k: position k wins iff floor(c_k / den) exceeds
    floor(c_(k-1) / den).  As the offset passes the breakpoint
    den - (c_k mod den), k < t - 1, the point u + c_k crosses an integer, so
    position k gains the seat position k+1 held: the mask XORs both bits.
    One sort of the breakpoints then yields every cell in order.  Equal
    breakpoints need no grouping; their toggles compose, and the masks
    between them get cells of length zero.
    """
    s = len(frac_nums)
    toggles = (1 << s) - 1
    for order in orders:
        # r is the running sum mod den before state i; a key is
        # breakpoint << s | toggle, so keys sort by breakpoint.
        r = 0
        mask = 0
        keys = []
        prev_bit = 0
        for i in order:
            bit = 1 << i
            if r:
                keys.append((den - r) << s | prev_bit | bit)
            r += frac_nums[i]
            if r >= den:
                r -= den
                mask |= bit
            prev_bit = bit
        keys.sort()
        prev = 0
        for key in keys:
            b = key >> s
            acc[mask] += b - prev
            mask ^= key & toggles
            prev = b
        acc[mask] += den - prev


def averaged_mask_lengths(frac_nums, den, fix_last):
    """Total cell length per winner mask, summed over state orderings.

    With ``fix_last`` the sum runs over the (s-1)! orderings that keep the
    last state in the final slot, otherwise over all s! orderings; cyclic
    rotations of an ordering induce the same allocation law (shifting the
    offset absorbs the rotation), so the second sum is s times the first.
    Masks are in the input-index basis.  Divide by ``den * (number of
    orderings)`` to get probabilities.

    Each ordering is swept by ``sweep_orders``.  Two exact shortcuts give
    the same integers as sweeping every ordering:

    * Mirror pairs.  Reversing the head of an ordering (last state pinned)
      and rotating maps the offset u to -u, which turns every segment
      [a, b) into (a, b].  The two differ only when an endpoint is an
      integer, which happens at finitely many offsets, so the mirror has
      the same length per mask.  Only heads with head[0] < head[-1] are
      swept, each counted twice (for three or more states; a one-state
      head is its own mirror).
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
    scale = math.factorial(s - 1) * (1 if fix_last else s)
    live = [i for i, f in enumerate(frac_nums) if f]
    if not live:
        acc[0] = den * scale
        return acc
    scale //= math.factorial(len(live) - 1)
    if len(live) >= 3:
        scale *= 2
    *head, last = live
    sweep_orders(frac_nums, den,
                 (perm + (last,) for perm in itertools.permutations(head)
                  if perm[0] <= perm[-1]), acc)
    if scale != 1:
        acc = [length * scale for length in acc]
    return acc


def scheme_replicate(src, frac_nums, den, s, seats_out, scheme_floors):
    """One scheme replicate: shuffle, draw, round; fills seats_out and
    returns ``(order, u53)``, the ordering and the offset draw."""
    order = src.shuffled_range(s)
    u53 = src.bits53()
    u = position_from_bits53(u53, den)
    prev_ceil = (u + den - 1) // den
    c = u
    for k in range(s):
        i = order[k]
        c += frac_nums[i]
        cur_ceil = (c + den - 1) // den
        seats_out[i] = scheme_floors[i] + (cur_ceil - prev_ceil)
        prev_ceil = cur_ceil
    return order, u53


def simulate_batch(scheme_floors, frac_nums, den, quota_floors, quota_ceils,
                   lower_bounds, master_seed, n, house_size):
    """n seeded scheme replicates with per-replicate violation checks.

    Returns ``(seat_sums, seat_sumsqs, quota_violations, bound_violations,
    sum_mismatches, mask_counts)``: violation counts are per replicate,
    sum_mismatches counts replicates whose seats do not total house_size,
    and mask_counts (input-index winner masks, only for s <= 16, else None)
    recover the empirical allocation distribution.
    """
    s = len(frac_nums)
    sums = [0] * s
    sumsqs = [0] * s
    quota_violations = 0
    bound_violations = 0
    sum_mismatches = 0
    mask_counts = [0] * (1 << s) if s <= 16 else None
    seats = [0] * s
    for k in range(n):
        src = SeededSource(child_seed(master_seed, k))
        scheme_replicate(src, frac_nums, den, s, seats, scheme_floors)
        bad_quota = False
        bad_bound = False
        mask = 0
        total = 0
        for i in range(s):
            a = seats[i]
            total += a
            sums[i] += a
            sumsqs[i] += a * a
            if a < quota_floors[i] or a > quota_ceils[i]:
                bad_quota = True
            if a < lower_bounds[i]:
                bad_bound = True
            if mask_counts is not None and a > scheme_floors[i]:
                mask |= 1 << i
        if bad_quota:
            quota_violations += 1
        if bad_bound:
            bound_violations += 1
        if total != house_size:
            sum_mismatches += 1
        if mask_counts is not None:
            mask_counts[mask] += 1
    return (sums, sumsqs, quota_violations, bound_violations,
            sum_mismatches, mask_counts)
