/* Compiled batch kernels for seatlot, loaded with ctypes by _kernels_c.py.

   Each kernel mirrors the function of the same name in _kernels_py.py and
   must give bit-identical results; tests/test_kernels.py compares them.
   Randomness is SplitMix64 exactly as in rng.py.  Callers keep every value
   inside int64 (see _backend.py); the one wider product, u53 * den, is
   taken in 128 bits.  Output arrays arrive zeroed from the caller, and
   `work` is caller-owned scratch. */

#include <stdint.h>

typedef int64_t i64;
typedef uint64_t u64;

#define GOLDEN 0x9E3779B97F4A7C15ULL
#define MAX_MASK_STATES 16 /* _kernels_py.MAX_MASK_STATES */

static u64 mix64(u64 z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static u64 next64(u64 *state)
{
    *state += GOLDEN;
    return mix64(*state);
}

static u64 child_seed(u64 master, u64 index)
{
    return mix64(master + (index + 1) * GOLDEN);
}

/* SeededSource.randbelow for n >= 1: n == 1 consumes no draw; draws at or
   above the largest multiple of n that fits in 2**64 are rejected. */
static u64 randbelow(u64 *state, u64 n)
{
    u64 rem, draw;
    if (n == 1)
        return 0;
    rem = (UINT64_MAX % n + 1) % n; /* 2**64 mod n */
    do
        draw = next64(state);
    while (rem != 0 && draw >= 0 - rem);
    return draw % n;
}

static i64 ceil_div(i64 a, i64 den) /* a >= 0 */
{
    return (a + den - 1) / den;
}

/* One scheme replicate: shuffle, draw the offset, round. */
static void scheme_replicate(u64 *state, i64 s, const i64 *floors,
                             const i64 *fr, i64 den, i64 *order, i64 *seats)
{
    i64 i, j, tmp, c, prev, cur;
    u64 u53;
    for (i = 0; i < s; i++)
        order[i] = i;
    for (i = s - 1; i > 0; i--) {
        j = (i64)randbelow(state, (u64)(i + 1));
        tmp = order[i];
        order[i] = order[j];
        order[j] = tmp;
    }
    u53 = next64(state) >> 11;
    c = (i64)(((unsigned __int128)u53 * (u64)den + ((1ULL << 53) - 1)) >> 53);
    prev = ceil_div(c, den);
    for (i = 0; i < s; i++) {
        j = order[i];
        c += fr[j];
        cur = ceil_div(c, den);
        seats[j] = floors[j] + (cur - prev);
        prev = cur;
    }
}

/* Adds each cell length of one ordering of the t states in `order` to
   acc[winner mask] by a sweep over its breakpoints; see _sweep in
   _kernels_py.py.  The mask on the first cell (0, b1] comes from the
   running sums: position k wins iff the running sum wraps past a multiple
   of den there.  Passing the breakpoint den - (c_k mod den), k < t - 1,
   moves a seat from position k+1 to position k, so the mask XORs both
   bits.  Equal breakpoints compose their toggles and leave zero-length
   cells between them. */
static void sweep_order(i64 t, const i64 *fr, const i64 *order, i64 den,
                        i64 *acc)
{
    i64 bps[MAX_MASK_STATES], key, r = 0, prev = 0;
    u64 toggles[MAX_MASK_STATES], mask = 0, toggle;
    i64 i, j, n = 0;
    for (i = 0; i < t; i++) {
        r += fr[order[i]];
        if (r >= den) {
            r -= den;
            mask |= 1ULL << order[i];
        }
        if (r != 0 && i + 1 < t) {
            key = den - r;
            toggle = 1ULL << order[i] | 1ULL << order[i + 1];
            for (j = n - 1; j >= 0 && bps[j] > key; j--) {
                bps[j + 1] = bps[j];
                toggles[j + 1] = toggles[j];
            }
            bps[j + 1] = key;
            toggles[j + 1] = toggle;
            n++;
        }
    }
    for (j = 0; j < n; j++) {
        acc[mask] += bps[j] - prev;
        mask ^= toggles[j];
        prev = bps[j];
    }
    acc[mask] += den - prev;
}

/* s <= MAX_MASK_STATES; acc has 2**s entries.  States with a zero
   fraction never win, so only the t states with a positive fraction are
   ordered: the last of them stays pinned and Heap's algorithm enumerates
   the head.  Reversing the head maps the offset u to -u, which turns each
   segment [a, b) into (a, b]; they differ only at finitely many offsets,
   so a head and its mirror have the same length per mask, and only the
   one with head[0] < head[t-2] is swept (the first, ascending head is one;
   a one-state head is its own mirror).  A final scale restores the
   (s-1)! orderings with the last state pinned: (s-1)!/(t-1)!, twice that
   for t >= 3. */
void averaged_mask_lengths(i64 s, const i64 *fr, i64 den, i64 *acc)
{
    i64 order[MAX_MASK_STATES] = {0}, counters[MAX_MASK_STATES] = {0};
    i64 t = 0, head, scale = 1;
    i64 i, k, tmp;
    if (s == 0) {
        acc[0] = den;
        return;
    }
    for (i = 0; i < s; i++)
        if (fr[i] != 0)
            order[t++] = i;
    for (i = t > 0 ? t : 1; i < s; i++)
        scale *= i; /* (s-1)! / (t-1)! */
    if (t == 0) {
        acc[0] = den * scale;
        return;
    }
    if (t >= 3)
        scale *= 2;
    head = t - 1;
    sweep_order(t, fr, order, den, acc);
    i = 0;
    while (i < head) {
        if (counters[i] < i) {
            k = i % 2 == 0 ? 0 : counters[i];
            tmp = order[k];
            order[k] = order[i];
            order[i] = tmp;
            if (order[0] < order[head - 1])
                sweep_order(t, fr, order, den, acc);
            counters[i]++;
            i = 0;
        } else {
            counters[i] = 0;
            i++;
        }
    }
    if (scale != 1)
        for (i = 0; i < (i64)1 << s; i++)
            acc[i] *= scale;
}

/* totals = {quota violations, bound violations, seat-sum mismatches};
   mask_counts has 2**s entries or is NULL; work holds 2*s. */
void simulate_batch(i64 s, const i64 *floors, const i64 *fr, i64 den,
                    const i64 *quota_floors, const i64 *quota_ceils,
                    const i64 *lower_bounds, u64 master, i64 n, i64 house,
                    i64 *sums, i64 *sumsqs, i64 *totals, i64 *mask_counts,
                    i64 *work)
{
    i64 *order = work, *seats = work + s;
    i64 k, i, a, total;
    int bad_quota, bad_bound;
    u64 state, mask;
    for (k = 0; k < n; k++) {
        state = child_seed(master, (u64)k);
        scheme_replicate(&state, s, floors, fr, den, order, seats);
        bad_quota = bad_bound = 0;
        mask = 0;
        total = 0;
        for (i = 0; i < s; i++) {
            a = seats[i];
            total += a;
            sums[i] += a;
            sumsqs[i] += a * a;
            bad_quota |= a < quota_floors[i] || a > quota_ceils[i];
            bad_bound |= a < lower_bounds[i];
            if (mask_counts && a > floors[i])
                mask |= 1ULL << i;
        }
        totals[0] += bad_quota;
        totals[1] += bad_bound;
        totals[2] += total != house;
        if (mask_counts)
            mask_counts[mask]++;
    }
}
