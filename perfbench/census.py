"""Seeded census generator for the benchmark.

Produces 50-state censuses with US-like skew: populations between about
5*10^5 and 4*10^7, most states small and a few very large, totalling a few
10^8.  Only integer draws from :class:`random.Random` are used (no floats),
so one seed gives byte-identical files on every platform and Python 3
version.
"""

from __future__ import annotations

import random

STATES = 50
MIN_POPULATION = 500_000
SPREAD = 39_500_000


def rng_for(*parts) -> random.Random:
    """Independent stream named by its parts, e.g. ``rng_for(seed, "op", 7)``."""
    return random.Random("/".join(str(p) for p in parts))


def populations(rng: random.Random, states: int = STATES) -> list[int]:
    """Distinct positive populations; t*t*u/10^9 skews toward small states."""
    pops: list[int] = []
    seen = set()
    while len(pops) < states:
        t = rng.randrange(1000)
        u = rng.randrange(1000)
        pop = MIN_POPULATION + SPREAD * t * t * u // 10 ** 9 + rng.randrange(1000)
        if pop not in seen:
            seen.add(pop)
            pops.append(pop)
    return pops


def census(rng: random.Random, states: int = STATES) -> list[tuple[str, int]]:
    """``[(label, population)]`` with labels ST00, ST01, ..."""
    return [(f"ST{i:02d}", pop)
            for i, pop in enumerate(populations(rng, states))]


def to_csv(rows) -> str:
    """``label,population`` lines, as the ``seatlot apportion`` CLI reads."""
    return "".join(f"{label},{pop}\n" for label, pop in rows)
