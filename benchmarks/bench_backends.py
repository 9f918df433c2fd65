#!/usr/bin/env python3
"""Benchmark the compiled batch kernels against the pure-Python reference.

Runs the two compiled kernels (the exact law and the Monte Carlo batch) on a
representative workload through both backends, prints wall-clock times in
milliseconds to three significant digits plus the speedup, and exits with
status 1 if the backends disagree on any result.
The compiled library is the one built next to the package
(``pip install -e .``); when there is none, the script compiles
``src/seatlot/_kernels_native.c`` with ``cc`` (or ``gcc``) into a temporary
directory.  Usage:

    PYTHONPATH=src python benchmarks/bench_backends.py [--repeat N]
"""

import argparse
import math
import sys
import tempfile
import time

import seatlot._kernels_py as kpy
from seatlot import _backend, _kernels_c
from seatlot.rng import SeededSource


def _fracs(src, s, den):
    nums = [src.randbelow(den) for _ in range(s - 1)]
    nums.append((-sum(nums)) % den)
    return nums


def workloads():
    src = SeededSource(101)
    den = 999_983
    s = 12
    nums = _fracs(src, s, den)
    floors = [src.randbelow(40) for _ in range(s)]
    ceils = [f + 1 for f in floors]
    house = sum(floors) + sum(nums) // den

    den8 = 9973
    nums8 = _fracs(SeededSource(5), 8, den8)
    yield ("exact law, 8 states (5040 orderings)",
           lambda k: k.averaged_mask_lengths(nums8, den8))

    yield ("simulate_batch n=100000, 12 states",
           lambda k: k.simulate_batch(floors, nums, den, floors, ceils,
                                      [0] * s, 7, 100_000, house))


def timed(fn, repeat):
    best = []
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best.append(time.perf_counter() - start)
    return min(best), result


def ms(seconds):
    """``seconds`` in milliseconds, to three significant digits."""
    value = seconds * 1e3
    places = 2 - math.floor(math.log10(value)) if value > 0 else 0
    return f"{round(value, places):.{max(places, 0)}f} ms"


def compiled_kernels(workdir):
    """seatlot._kernels_c bound to a built library, or None without one."""
    library = _backend._built_library() or _kernels_c.build(workdir)
    if library is None:
        return None
    _kernels_c.load(library)
    return _kernels_c


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    mismatches = 0
    with tempfile.TemporaryDirectory() as workdir:
        kc = compiled_kernels(workdir)
        print(f"{'workload':<42} {'pure':>10} {'compiled':>10} {'speedup':>8}")
        print("-" * 74)
        for name, runner in workloads():
            t_py, out_py = timed(lambda: runner(kpy), args.repeat)
            if kc is None:
                print(f"{name:<42} {ms(t_py):>10} {'n/a':>10} {'n/a':>8}")
                continue
            t_c, out_c = timed(lambda: runner(kc), args.repeat)
            match = "" if out_py == out_c else "  !! MISMATCH"
            mismatches += bool(match)
            print(f"{name:<42} {ms(t_py):>10} {ms(t_c):>10} "
                  f"{t_py / t_c:>7.1f}x{match}")
    if kc is None:
        print("\nno compiled library: build it with `pip install -e .` "
              "or put a C compiler on PATH as `cc` or `gcc`")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
