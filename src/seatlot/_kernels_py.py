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


def fixed_order_cells(frac_nums, den):
    """Partition of offsets [0, 1) into cells of constant allocation.

    Returns ``[(mask, length)]``: for each cell, the winner mask (bit k =
    position k of the given order) and the integer cell length over ``den``.
    Lengths sum to ``den``; cell j is the offset interval (b_j, b_{j+1}]
    between consecutive breakpoints, evaluated at its right endpoint.
    """
    cums = []
    c = 0
    for f in frac_nums:
        c += f
        cums.append(c)
    bps = sorted({(-c) % den for c in cums})
    cells = []
    if not bps:
        return [(0, den)]
    nb = len(bps)
    for j in range(nb):
        left = bps[j]
        right = bps[j + 1] if j + 1 < nb else den
        inds = systematic_round_ints(frac_nums, den, right)
        mask = 0
        for k, bit in enumerate(inds):
            if bit:
                mask |= 1 << k
        cells.append((mask, right - left))
    return cells


def averaged_mask_lengths(frac_nums, den, fix_last):
    """Total cell length per winner mask, summed over state orderings.

    With ``fix_last`` the last state stays in the final slot and only the
    (s-1)! orderings of the remaining states are enumerated; cyclic rotations
    of an ordering induce the same allocation law, so these representatives
    average to the same distribution as all s! orderings.  Masks are in the
    input-index basis.  Divide by ``den * (number of orderings)`` to get
    probabilities.
    """
    s = len(frac_nums)
    if s == 0:
        return [den]
    acc = [0] * (1 << s)
    if fix_last and s > 1:
        head, tail = list(range(s - 1)), [s - 1]
    else:
        head, tail = list(range(s)), []
    for perm in itertools.permutations(head):
        order = list(perm) + tail
        cums = []
        c = 0
        for i in order:
            c += frac_nums[i]
            cums.append(c)
        bps = sorted({(-c) % den for c in cums})
        nb = len(bps)
        for j in range(nb):
            left = bps[j]
            right = bps[j + 1] if j + 1 < nb else den
            mask = 0
            prev_ceil = (right + den - 1) // den
            c = right
            for k in order:
                c += frac_nums[k]
                cur_ceil = (c + den - 1) // den
                if cur_ceil != prev_ceil:
                    mask |= 1 << k
                prev_ceil = cur_ceil
            acc[mask] += right - left
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
