"""Kernel backend selection for the two compiled batch kernels.

``averaged_mask_lengths`` (the exact law) and ``simulate_batch`` (the Monte
Carlo batch) have a compiled twin in ``_kernels_native.c``, a plain C
library that :mod:`seatlot._kernels_c` loads with ctypes.  A call goes to
it when setuptools built the library next to this file, the environment
variable ``SEATLOT_PURE_PYTHON`` is unset (or ``0``), and the kernel's int64
predicate below holds for the call.  Otherwise it goes to
:mod:`seatlot._kernels_py`, the reference implementation, which handles
arbitrary precision.  Without a built library ctypes is never imported.
"""

from __future__ import annotations

import math
import os
from importlib.machinery import EXTENSION_SUFFIXES

from . import _kernels_py


def _built_library():
    """Path of the kernel library built next to this file, or None."""
    here = os.path.dirname(os.path.abspath(__file__))
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(here, "_kernels_native" + suffix)
        if os.path.isfile(path):
            return path
    return None


def _load(library):
    """seatlot._kernels_c bound to ``library``, or None if it cannot be."""
    try:
        from . import _kernels_c
        _kernels_c.load(library)
    except (OSError, AttributeError):
        # OSError: a library built for another platform.  AttributeError: a
        # library lacking a kernel, or a stale ``_kernels_c`` extension
        # module of an older build, which Python imports ahead of
        # ``_kernels_c.py`` and which has no ``load``.
        return None
    return _kernels_c


_kernels_c = None
if os.environ.get("SEATLOT_PURE_PYTHON", "0") in ("", "0"):
    _library = _built_library()
    if _library is not None:
        _kernels_c = _load(_library)

ACTIVE = "compiled" if _kernels_c is not None else "pure-python"

# Compiled kernels compute cell positions up to den * (residual + 2),
# accumulate cell lengths up to den * (s-1)! (the pinned orderings) and
# seat squares up to n * (house + 1)**2; keep a wide margin below 2**63.
_CAP = 1 << 62


def averaged_mask_lengths(frac_nums, den, fix_last):
    """Cell length per winner mask, summed over the (s-1)! orderings that
    pin the last state, or over all s! without ``fix_last``: s times the
    pinned sum, as rotating an ordering leaves its law unchanged."""
    s = len(frac_nums)
    if (_kernels_c is not None and s <= _kernels_py.MAX_MASK_STATES
            and den * max(sum(frac_nums) // den + 2,
                          math.factorial(max(s - 1, 0))) < _CAP):
        lengths = _kernels_c.averaged_mask_lengths(frac_nums, den)
    else:
        lengths = _kernels_py.averaged_mask_lengths(frac_nums, den)
    if fix_last or s < 2:
        return lengths
    return [length * s for length in lengths]


def _scheme_fits(scheme_floors, frac_nums, den, n):
    residual = sum(frac_nums) // den
    house = sum(scheme_floors) + residual
    return den * (residual + 2) < _CAP and n * (house + 1) ** 2 < _CAP


def simulate_batch(scheme_floors, frac_nums, den, quota_floors, quota_ceils,
                   lower_bounds, master_seed, n, house_size):
    if (_kernels_c is not None
            and _scheme_fits(scheme_floors, frac_nums, den, n)):
        return _kernels_c.simulate_batch(
            scheme_floors, frac_nums, den, quota_floors, quota_ceils,
            lower_bounds, master_seed, n, house_size)
    return _kernels_py.simulate_batch(
        scheme_floors, frac_nums, den, quota_floors, quota_ceils,
        lower_bounds, master_seed, n, house_size)
