"""Backend contract: compiled and pure kernels must agree bit-for-bit,
and the dispatcher must fall back cleanly when magnitudes exceed int64."""

import itertools
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seatlot._backend as backend
import seatlot._kernels_py as kpy
from seatlot import rng
from seatlot.rng import SeededSource

from oracles import mask_lengths

COMPILED = ("averaged_mask_lengths", "simulate_batch")


@pytest.fixture
def compiled_calls(kc, monkeypatch):
    """Routes the dispatcher to the fixture library; lists the kernel calls
    it makes there."""
    calls = []

    def recorded(name):
        def call(*args):
            calls.append(name)
            return getattr(kc, name)(*args)
        return call

    monkeypatch.setattr(backend, "_kernels_c", SimpleNamespace(
        **{name: recorded(name) for name in COMPILED}))
    return calls


def random_fracs(src, s, den):
    """Random numerators over den whose total is a multiple of den."""
    nums = [src.randbelow(den) for _ in range(s - 1)]
    total = sum(nums)
    pad = (-total) % den
    nums.append(pad)
    assert all(0 <= x < den for x in nums)
    return nums


def test_averaged_mask_lengths_agreement(kc):
    # Odd trials draw denominators up to 12, where breakpoints tie and
    # fractions vanish often.
    src = SeededSource(3)
    for trial in range(60):
        s = src.randbelow(10)
        den = 1 + src.randbelow(12 if trial % 2 else 500)
        nums = random_fracs(src, s, den) if s else []
        assert (kpy.averaged_mask_lengths(nums, den)
                == kc.averaged_mask_lengths(nums, den))


@pytest.mark.parametrize("nums, den", [
    ([0, 0, 0], 5), ([0, 3, 0, 2], 5), ([0, 2, 0, 3, 4, 0], 9),
    ([1, 0, 2, 1, 2, 0, 3, 3], 4)], ids=["t=0", "t=2", "t=3", "t=6"])
def test_kernels_sum_over_the_live_orderings(kc, nums, den):
    # Each tier sums over the (t-1)! orderings of the t states with a
    # positive fraction that pin the last of them; the zero fractions are
    # counted by the dispatcher alone.
    t = len(nums) - nums.count(0)
    for kernels in (kpy, kc):
        assert (sum(kernels.averaged_mask_lengths(nums, den))
                == den * math.factorial(max(t - 1, 0)))


@st.composite
def tied_fracs(draw):
    """(nums, den): up to 6 numerators over a small den, about half zero."""
    s = draw(st.integers(min_value=1, max_value=6))
    den = draw(st.integers(min_value=1, max_value=12))
    nums = [draw(st.one_of(st.just(0), st.integers(0, den - 1)))
            for _ in range(s - 1)]
    nums.append((-sum(nums)) % den)
    return nums, den


@given(tied_fracs())
@settings(max_examples=150, deadline=None)
def test_averaged_mask_lengths_match_oracle(kc, case):
    check_against_oracle(kc, *case)


def check_against_oracle(kc, nums, den):
    # All s! orderings, every cell evaluated at its right endpoint: the
    # dispatcher's pinned sum is 1/s of it and its unpinned sum all of it,
    # with the pure tier and with the compiled one behind it.
    expected = mask_lengths(nums, den)
    for tier in (None, kc):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backend, "_kernels_c", tier)
            pinned = backend.averaged_mask_lengths(nums, den, True)
            assert [length * len(nums) for length in pinned] == expected
            assert backend.averaged_mask_lengths(nums, den, False) == expected


def head_betas(nums, den):
    """beta(S) = minus the fractions of S, modulo den, for every set S of
    head states, keyed by S as a 0/1 tuple.  The head is every state with a
    positive fraction but the last."""
    head = [f for f in nums if f][:-1]
    return {S: -sum(f for f, x in zip(head, S) if x) % den
            for S in itertools.product((0, 1), repeat=len(head))}


def placements(betas):
    """(beta(S), beta(S + i)) for each set S and head state i outside S."""
    return [(b, betas[S[:i] + (1,) + S[i + 1:]])
            for S, b in betas.items() for i, x in enumerate(S) if not x]


def prefix_set_cases():
    """(nums, den, edge) on each edge of the prefix-set program; ``edge``,
    when given, holds for the case's cut points.  One live state cannot
    occur: a single fraction in (0, den) is no multiple of den."""
    yield pytest.param([0, 0, 0], 5, lambda betas: len(betas) == 1,
                       id="no-live")
    # A head of one state has one ordering, which _sweep sweeps.
    yield pytest.param([0, 3, 0, 2], 5, lambda betas: len(betas) == 2,
                       id="one-state-head")
    # beta({0}) = beta({1}) = 2: two sets share a cut point.
    yield pytest.param([2, 2, 1, 3], 4, lambda betas: len(
        set(betas.values())) < len(betas), id="coinciding-cuts")
    # beta({0}) = 1 and beta({0, 1}) = 2: placing state 1 after state 0
    # wins on (2, 4) and (0, 1), a run of cells that wraps past den.
    yield pytest.param([3, 3, 3, 3], 4, lambda betas: any(
        0 < b < a for b, a in placements(betas)), id="wrapping-region")
    # No head state wins on (0, 4) in any ordering, so that cell's lane
    # for the empty mask holds 6! = 720, in lanes of 2 bytes.
    yield pytest.param([1, 1, 1, 1, 1, 1, 4], 10, lambda betas: all(
        4 <= a < b for b, a in placements(betas) if b),
        id="lanes-at-h-factorial")
    den = (1 << 64) + 13
    nums = [5, den // 3, 2 * den // 5, 4 * den // 7]
    yield pytest.param(nums + [-sum(nums) % den], den, lambda betas: max(
        betas.values()) >= 1 << 64, id="den-above-2**64")
    # Zero fractions among the states and cut points tied over den 4.
    yield pytest.param([1, 0, 2, 1, 2, 0, 3, 3], 4, lambda betas: len(
        set(betas.values())) < len(betas), id="zeros-and-ties")
    src = SeededSource(24)
    for s in (7, 8):
        den = 1 + src.randbelow(10 ** 9)
        yield pytest.param(random_fracs(src, s, den), den, None,
                           id=f"seeded-{s}")


@pytest.mark.parametrize("nums, den, edge", prefix_set_cases())
def test_prefix_sets_match_oracle(kc, nums, den, edge):
    assert edge is None or edge(head_betas(nums, den))
    check_against_oracle(kc, nums, den)


def tally_cases():
    """simulate_batch arguments for s = 1, 3, 8, 16, 17, 50, 128 and 129
    states: a replicate's draws fill one block at 128 states, and the pure
    batch runs each replicate through ``scheme_replicate`` at 129.

    The first variant is consistent (quota bounds around the floors, house
    equal to floors plus residual).  The second draws quota bounds that
    fail with or without the residual seat, lower bounds one above some
    floors, and a house up to one off: quota and bound violations occur in
    some replicates of a batch but not in all, and a house one off is a
    sum mismatch in every replicate.  The third sets the lower bound of
    the last state two above its floor, which its residual seat cannot
    meet, so every replicate breaks a bound.
    """
    src = SeededSource(4)
    cases = []
    for s in (1, 3, 8, 16, 17, 50, 128, 129):
        for variant in range(3):
            den = 1 + src.randbelow(800)
            nums = random_fracs(src, s, den)
            floors = [src.randbelow(5) for _ in range(s)]
            house = sum(floors) + sum(nums) // den
            qfloors = floors
            qceils = [f + 1 for f in floors]
            bounds = [src.randbelow(2) for _ in range(s)]
            if variant == 1:
                qfloors = [f + (src.randbelow(8) == 0) for f in floors]
                qceils = [f + (src.randbelow(4) != 0) for f in floors]
                bounds = [f + (src.randbelow(6) == 0) for f in floors]
                house += src.randbelow(3) - 1
            elif variant == 2:
                bounds = [0] * (s - 1) + [floors[-1] + 2]
            cases.append((floors, nums, den, qfloors, qceils, bounds,
                          src.randbelow(2 ** 32) - 2 ** 31,
                          60 if s < 50 else 30, house))
    return cases


def tally_by_draws(floors, nums, den, qfloors, qceils, bounds, master, n,
                   house):
    """simulate_batch's result, from the single draw on each child
    stream and the definition of each count."""
    from seatlot.core import QuotaVector
    from seatlot.rng import child_seed
    from seatlot.stochastic import _scheme_draw

    s = len(nums)
    quota = QuotaVector(tuple(floors), tuple(nums), den)
    sums, sumsqs = [0] * s, [0] * s
    qviol = bviol = mismatches = 0
    masks = [0] * (1 << s) if s <= 16 else None
    for k in range(n):
        seats, _order, _u53 = _scheme_draw(
            quota, SeededSource(child_seed(master, k)))
        for i, a in enumerate(seats):
            sums[i] += a
            sumsqs[i] += a * a
        qviol += any(not qfloors[i] <= a <= qceils[i]
                     for i, a in enumerate(seats))
        bviol += any(a < bounds[i] for i, a in enumerate(seats))
        mismatches += sum(seats) != house
        if masks is not None:
            masks[sum(1 << i for i in range(s) if seats[i] > floors[i])] += 1
    return sums, sumsqs, qviol, bviol, mismatches, masks


def test_pure_batch_tallies_match_single_draws():
    # Runs without a compiler: every count of the pure batch, replicate by
    # replicate, against the single-draw path.
    partial = set()
    mismatches = 0
    for args in tally_cases():
        expected = tally_by_draws(*args)
        assert kpy.simulate_batch(*args) == expected
        n = args[7]
        partial.update(name for name, count in
                       zip(("quota", "bound"), expected[2:4])
                       if 0 < count < n)
        mismatches += expected[4]
    assert partial == {"quota", "bound"}
    assert mismatches


def test_pure_batch_fallback_matches_single_draws(monkeypatch):
    # With the span halved, about half of all draws are rejected, so most
    # replicates of two or more states leave the blocked pass for
    # scheme_replicate; the tallies still match the single draws.
    monkeypatch.setattr(rng, "_SPAN", 1 << 63)
    scheme_replicate = kpy.scheme_replicate
    calls = []

    def replicate(*args):
        calls.append(args)
        return scheme_replicate(*args)

    monkeypatch.setattr(kpy, "scheme_replicate", replicate)
    replicates = fallbacks = 0
    for args in tally_cases():
        expected = tally_by_draws(*args)
        calls.clear()
        assert kpy.simulate_batch(*args) == expected
        replicates += args[7]
        fallbacks += len(calls)
    assert 0 < fallbacks < replicates


def test_simulate_batch_agreement(kc):
    for args in tally_cases():
        assert kpy.simulate_batch(*args) == kc.simulate_batch(*args)
    src = SeededSource(4)
    for trial in range(20):
        s = 1 + src.randbelow(8)
        den = 1 + src.randbelow(800)
        nums = random_fracs(src, s, den)
        floors = [src.randbelow(5) for _ in range(s)]
        residual = sum(nums) // den
        ceils = [f + 1 for f in floors]
        bounds = [src.randbelow(2) for _ in range(s)]
        house = sum(floors) + residual
        args = (floors, nums, den, floors, ceils, bounds,
                src.randbelow(2 ** 32), 500, house)
        assert kpy.simulate_batch(*args) == kc.simulate_batch(*args)
    # Beyond 16 states no mask counts are kept.
    nums = random_fracs(src, 20, 997)
    args = ([3] * 20, nums, 997, [3] * 20, [4] * 20, [0] * 20, -5, 50,
            60 + sum(nums) // 997)
    assert kpy.simulate_batch(*args) == kc.simulate_batch(*args)


def test_dispatcher_falls_back_on_big_integers(compiled_calls):
    # A denominator at 2**62 or beyond: the dispatcher must route to the
    # pure kernels, which stay exact.
    den = (1 << 62) + 3
    nums = [den // 3, den - den // 3]
    args = ([1, 2], nums, den, [1, 2], [2, 3], [0, 0], 99, 40, 4)
    out = backend.simulate_batch(*args)
    assert out == kpy.simulate_batch(*args)
    assert sum(out[0]) == 40 * 4
    lengths = backend.averaged_mask_lengths(nums, den, False)
    assert lengths == [2 * n for n in kpy.averaged_mask_lengths(nums, den)]
    assert sum(lengths) == 2 * den
    assert compiled_calls == []
    # Small magnitudes do reach the compiled library.
    small = [1, 2]
    assert (backend.averaged_mask_lengths(small, 3, False)
            == [2 * n for n in kpy.averaged_mask_lengths(small, 3)])
    args = ([1, 2], small, 3, [1, 2], [2, 3], [0, 0], 99, 40, 4)
    assert backend.simulate_batch(*args) == kpy.simulate_batch(*args)
    assert compiled_calls == list(COMPILED)


def test_dispatcher_bounds_only_the_pinned_sum(compiled_calls):
    # The 2 orderings of 3 states that pin the last one fit in int64 at
    # this denominator, though all 6 would not; the compiled tier sums the
    # pinned ones and the dispatcher scales them by s.
    den = (1 << 60) + 1
    nums = [den // 3, den // 3, den - 2 * (den // 3)]
    assert (backend.averaged_mask_lengths(nums, den, False)
            == [3 * n for n in kpy.averaged_mask_lengths(nums, den)])
    assert compiled_calls == ["averaged_mask_lengths"]


def test_compiled_kernels_refuse_what_their_buffers_cannot_hold(kc):
    with pytest.raises(ValueError, match="supports at most 16 states"):
        kc.averaged_mask_lengths([0] * 17, 1)
    with pytest.raises(ValueError, match="^expected 2 values, got 1$"):
        kc.simulate_batch([1, 2], [0, 0], 1, [1], [1, 2], [0, 0], 0, 1, 3)


def test_backend_name_reported():
    assert backend.ACTIVE in ("compiled", "pure-python")


@pytest.mark.parametrize("stale", [False, True])
def test_built_library_selects_backend(kc, tmp_path, stale):
    # A copy of the package with the library built next to it imports the
    # compiled backend.  A _kernels_c module without load(), such as the
    # extension module an older build left behind (Python imports it ahead
    # of _kernels_c.py), must leave the pure kernels active instead of
    # breaking the import.
    package = tmp_path / "seatlot"
    shutil.copytree(Path(backend.__file__).parent, package,
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    kc.build(str(package))
    if stale:
        (package / "_kernels_c.py").write_text("")
    env = {**os.environ, "PYTHONPATH": str(tmp_path),
           "SEATLOT_PURE_PYTHON": "0"}
    out = subprocess.run(
        [sys.executable, "-c", "import seatlot; print(seatlot.kernel_backend)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ("pure-python" if stale else "compiled")


def test_batch_matches_single_draw_path(kc):
    # One replicate of simulate_batch, on either backend, must equal the
    # single draw that stochastic_apportion makes on the derived child
    # stream.
    from seatlot.core import QuotaVector
    from seatlot.rng import child_seed
    from seatlot.stochastic import _scheme_draw

    src = SeededSource(12345)
    for trial in range(40):
        s = 1 + src.randbelow(8)
        den = 1 + src.randbelow(900)
        nums = random_fracs(src, s, den)
        floors = [src.randbelow(4) for _ in range(s)]
        master = src.randbelow(2 ** 40)
        seats, _order, _u53 = _scheme_draw(
            QuotaVector(tuple(floors), tuple(nums), den),
            SeededSource(child_seed(master, 0)))
        for kernels in (kpy, kc):
            sums, _sq, _qv, _bv, _mm, _masks = kernels.simulate_batch(
                floors, nums, den, floors, [f + 1 for f in floors],
                [0] * s, master, 1, sum(floors) + sum(nums) // den)
            assert tuple(sums) == seats
