import math
import tracemalloc

import pytest

from seatlot import InputError, rng
from seatlot.rng import SeededSource, child_seed, mix64


def test_same_seed_same_stream():
    a = SeededSource(123456789)
    b = SeededSource(123456789)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_known_splitmix_values():
    # First outputs for seed 0, from the reference splitmix64 sequence.
    src = SeededSource(0)
    assert [src.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_seed_is_masked_to_64_bits():
    assert SeededSource(1 << 64).seed == 0
    assert SeededSource(-1).seed == (1 << 64) - 1


@pytest.mark.parametrize("seed", [True, False, 1.5, 2.0, "3", None])
def test_seed_that_is_not_an_int_is_refused(seed):
    # True drew as seed 1, and 1.5 raised a bare TypeError.
    with pytest.raises(InputError, match="^seed must be an integer, got "):
        SeededSource(seed)


def test_child_seed_pure_function():
    assert child_seed(42, 7) == child_seed(42, 7)
    assert child_seed(42, 7) != child_seed(42, 8)
    assert child_seed(42, 7) != child_seed(43, 7)
    src = SeededSource(42)
    assert src.child(7).seed == child_seed(42, 7)


@pytest.mark.parametrize("master, index", [
    (True, 0), (1.5, 0), ("3", 0), (None, 0), (1, True), (1, 1.5)])
def test_bool_or_non_integer_child_seed_is_refused(master, index):
    # child_seed(True, 0) drew as child_seed(1, 0), and child_seed(1.5, 0)
    # raised a bare TypeError.
    with pytest.raises(InputError, match="must be an integer, got "):
        child_seed(master, index)


def test_child_seed_reads_the_master_modulo_two_to_the_64():
    for k in (0, 1, 300):
        assert child_seed(2 ** 64 + 5, k) == child_seed(5, k)
        assert child_seed(-1, k) == child_seed(2 ** 64 - 1, k)


def test_negative_child_index_is_an_input_error():
    # It raised a bare ValueError; InputError is one, so callers that
    # catch ValueError still catch it.
    for call in (lambda: child_seed(42, -1), lambda: SeededSource(42).child(-1)):
        with pytest.raises(InputError, match="child index"):
            call()


def test_mix64_range():
    for v in (0, 1, 2 ** 63, 2 ** 64 - 1):
        assert 0 <= mix64(v) < 2 ** 64


def test_randbelow_bounds_and_determinism():
    src = SeededSource(7)
    draws = [src.randbelow(10) for _ in range(2000)]
    assert all(0 <= d < 10 for d in draws)
    src2 = SeededSource(7)
    assert draws == [src2.randbelow(10) for _ in range(2000)]
    assert SeededSource(5).randbelow(1) == 0
    with pytest.raises(ValueError):
        SeededSource(5).randbelow(0)


@pytest.mark.parametrize("bound", [2.5, 2.0, True, False, "3"])
def test_randbelow_refuses_non_integer_bounds(bound):
    # randbelow(2.5) used to return 1.0.
    with pytest.raises(TypeError):
        SeededSource(1).randbelow(bound)


def test_randbelow_refuses_bounds_above_two_to_the_64_before_drawing():
    # Above 2**64 the acceptance limit is 0, so every draw would be
    # rejected: randbelow(2**64 + 1) used to loop for ever.
    src = SeededSource(9)
    with pytest.raises(ValueError):
        src.randbelow(2 ** 64 + 1)
    with pytest.raises(ValueError):
        src.randbelow(2 ** 70)
    assert src.next_u64() == SeededSource(9).next_u64()


def test_randbelow_two_to_the_64_is_the_raw_draw():
    src, raw = SeededSource(4), SeededSource(4)
    assert [src.randbelow(2 ** 64) for _ in range(5)] \
        == [raw.next_u64() for _ in range(5)]


def test_randbelow_one_consumes_no_draw():
    a = SeededSource(9)
    a.randbelow(1)
    b = SeededSource(9)
    assert a.next_u64() == b.next_u64()


def test_bits53_range():
    src = SeededSource(3)
    for _ in range(100):
        assert 0 <= src.bits53() < 2 ** 53


def test_uniform_fraction_in_unit_interval():
    src = SeededSource(11)
    for _ in range(100):
        u = src.uniform_fraction()
        assert 0 <= u < 1
        assert u.denominator <= 2 ** 53


def test_shuffle_deterministic_and_complete():
    src = SeededSource(99)
    perm = src.shuffled_range(10)
    assert sorted(perm) == list(range(10))
    assert SeededSource(99).shuffled_range(10) == perm


def test_permutations_roughly_uniform():
    # n=4: each of the 24 permutations should appear with frequency near
    # 1/24 over many seeded draws (within 4 standard errors).
    n_draws = 100_000
    counts = {}
    src = SeededSource(2718281828)
    for _ in range(n_draws):
        key = tuple(src.shuffled_range(4))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 24
    p = 1 / 24
    sigma = math.sqrt(n_draws * p * (1 - p))
    for key, count in counts.items():
        assert abs(count - n_draws * p) <= 4 * sigma, (key, count)


def scalar_shuffle(src, n):
    """Fisher-Yates on randbelow, one draw at a time."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = src.randbelow(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def draws_taken(seed, src):
    """How many outputs ``src`` has produced since ``seed``."""
    return ((src._state - seed) * pow(0x9E3779B97F4A7C15, -1, 2 ** 64)
            % 2 ** 64)


@pytest.mark.parametrize("k", [1, 2, 3, 49, rng._BLOCK])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1, 0x9E3779B97F4A7C15 * 7])
def test_block_draws_equal_scalar_draws(seed, k):
    src = SeededSource(seed)
    assert list(rng._next_block(src._state, k)) == [
        src.next_u64() for _ in range(k)]


SHUFFLE_LENGTHS = [0, 1, 2, 50, 1000,
                   rng._BLOCK, rng._BLOCK + 1, rng._BLOCK + 2]


@pytest.mark.parametrize("n", SHUFFLE_LENGTHS)
def test_block_shuffle_is_the_scalar_shuffle(n):
    # n - 1 draws: one block short of, at and one past the block cap.
    for seed in (0, 5, 2 ** 64 - 1):
        block, scalar = SeededSource(seed), SeededSource(seed)
        assert block.shuffled_range(n) == scalar_shuffle(scalar, n)
        assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("n", SHUFFLE_LENGTHS)
def test_block_shuffle_after_rejections(monkeypatch, n):
    # With the span halved about half of all draws are rejected, so the
    # shuffle leaves its blocks for randbelow; order and state still match.
    monkeypatch.setattr(rng, "_SPAN", 1 << 63)
    rejected = 0
    for seed in (0, 5, 2 ** 64 - 1):
        block, scalar = SeededSource(seed), SeededSource(seed)
        assert block.shuffled_range(n) == scalar_shuffle(scalar, n)
        rejected += draws_taken(seed, scalar) - max(n - 1, 0)
        assert block.next_u64() == scalar.next_u64()
    assert rejected >= max(n - 1, 0)


def test_block_shuffle_memory_is_the_order_list():
    # Blocks are capped, so a long shuffle peaks at about its own list.
    n = 200_000
    tracemalloc.start()
    try:
        order = list(range(n))
        _, alone = tracemalloc.get_traced_memory()
        del order
        tracemalloc.reset_peak()
        SeededSource(1).shuffled_range(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * alone
    assert len(rng._LANES) <= rng._BLOCK


@pytest.mark.parametrize("master", [-7, 2 ** 64 + 3, 2 ** 70 - 1])
def test_child_seed_blocks_are_the_child_seeds(master):
    blocks = list(rng._child_seed_blocks(master, 301))
    assert [len(block) for block in blocks] == [rng._BLOCK, rng._BLOCK, 45]
    seeds = [seed for block in blocks for seed in block]
    for k in (0, 127, 128, 300):
        assert seeds[k] == child_seed(master, k)
    assert seeds == [child_seed(master, k) for k in range(301)]


def unmix64(z):
    """The state whose ``mix64`` output is z: each step of the finalizer
    undone in reverse order."""
    def unshift(y, k):
        x = y
        for _ in range(64 // k + 1):
            x = y ^ (x >> k)
        return x

    z = unshift(z, 31) * pow(rng._MUL2, -1, 2 ** 64) % 2 ** 64
    z = unshift(z, 27) * pow(rng._MUL1, -1, 2 ** 64) % 2 ** 64
    return unshift(z, 30)


def outputs(seed, n):
    """The first n outputs of the stream seeded at ``seed``."""
    src = SeededSource(seed)
    return [src.next_u64() for _ in range(n)]


def seed_with_draw(t, draw):
    """A seed whose stream yields ``draw`` as its output t (from 0)."""
    return (unmix64(draw) - (t + 1) * rng._GOLDEN) % 2 ** 64


@pytest.mark.parametrize("n", [1, 2, 50, rng._BLOCK])
def test_replicate_draws_are_the_shuffle_and_offset_draws(n):
    for seed in (0, 5, 2 ** 64 - 1):
        draws = rng._replicate_draws(seed, n)
        src = SeededSource(seed)
        order = src.shuffled_range(n)
        u53 = src.bits53()
        assert draws_taken(seed, src) == n
        assert list(draws) == outputs(seed, n)
        assert u53 == draws[-1] >> 11
        # Fisher-Yates on the block gives the shuffle's order.
        replay = list(range(n))
        for i, draw in zip(range(n - 1, 0, -1), draws):
            j = draw % (i + 1)
            replay[i], replay[j] = replay[j], replay[i]
        assert replay == order


@pytest.mark.parametrize("span", [1 << 64, 1 << 63])
@pytest.mark.parametrize("n", [2, 5, rng._BLOCK])
def test_replicate_draws_refuse_exactly_the_high_shuffle_draws(
        monkeypatch, span, n):
    monkeypatch.setattr(rng, "_SPAN", span)
    # One draw placed at either side of _SPAN - n, first, last and as the
    # offset; only a shuffle draw at or above it refuses the block.
    for t in (0, n - 2, n - 1):
        for draw in (span - n - 1, span - n, span - 1, 2 ** 64 - 1):
            seed = seed_with_draw(t, draw)
            draws = rng._replicate_draws(seed, n)
            drawn = outputs(seed, n)
            assert drawn[t] == draw
            high = any(d >= span - n for d in drawn[:-1])
            assert (draws is None) == high, (t, draw)
    # Seeded streams, where about half of all draws lie above a halved span.
    for seed in range(200):
        high = any(d >= span - n for d in outputs(seed, n)[:-1])
        assert (rng._replicate_draws(seed, n) is None) == high
