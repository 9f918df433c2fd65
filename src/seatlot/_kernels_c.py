"""ctypes bindings for the compiled batch kernels in ``_kernels_native.c``.

The two kernels keep the names, signatures and return shapes of their
twins in :mod:`seatlot._kernels_py`.  Every integer passed must fit in int64,
because ctypes silently truncates a wider one; :mod:`seatlot._backend`
checks magnitudes before it calls here.  :func:`load` binds the kernels to a
built library: :mod:`seatlot._backend` calls it once, with the library that
setuptools built next to this file.  :func:`build` compiles the source
with the system C compiler instead, for tests and benchmarks run from a
checkout.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
from importlib.machinery import EXTENSION_SUFFIXES

from ._kernels_py import MAX_MASK_STATES
from .rng import _MASK64

_I64 = ctypes.c_int64
_U64 = ctypes.c_uint64
_ARR = ctypes.POINTER(_I64)
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_kernels_native.c")

_ARGTYPES = {
    "averaged_mask_lengths": (_I64, _ARR, _I64, _ARR),
    "simulate_batch": (_I64, _ARR, _ARR, _I64, _ARR, _ARR, _ARR, _U64, _I64,
                       _I64, _ARR, _ARR, _ARR, _ARR, _ARR),
}

_lib = None


def build(directory):
    """Compile ``_kernels_native.c`` into ``directory`` with ``cc`` (or
    ``gcc``) and return the library's path; None without a compiler."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    library = os.path.join(directory,
                           "_kernels_native" + EXTENSION_SUFFIXES[0])
    subprocess.run([compiler, "-O2", "-shared", "-fPIC", "-o", library,
                    _SOURCE], check=True)
    return library


def load(path):
    """Bind the kernels of this module to the shared library at ``path``."""
    global _lib
    lib = ctypes.CDLL(path)
    for name, argtypes in _ARGTYPES.items():
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = None
    _lib = lib


def _arrays(size, *lists):
    """int64 copies of the lists; the C side reads ``size`` items of each."""
    for values in lists:
        if len(values) != size:
            raise ValueError(f"expected {size} values, got {len(values)}")
    return [(_I64 * size)(*values) for values in lists]


def _zeros(size):
    return (_I64 * size)()


def averaged_mask_lengths(frac_nums, den):
    s = len(frac_nums)
    if s > MAX_MASK_STATES:
        raise ValueError(
            f"compiled kernel supports at most {MAX_MASK_STATES} states")
    acc = _zeros(1 << s)
    _lib.averaged_mask_lengths(s, *_arrays(s, frac_nums), den, acc)
    return list(acc)


def simulate_batch(scheme_floors, frac_nums, den, quota_floors, quota_ceils,
                   lower_bounds, master_seed, n, house_size):
    s = len(frac_nums)
    floors, nums, qfloors, qceils, bounds = _arrays(
        s, scheme_floors, frac_nums, quota_floors, quota_ceils, lower_bounds)
    sums, sumsqs, totals = _zeros(s), _zeros(s), _zeros(3)
    masks = _zeros(1 << s) if s <= MAX_MASK_STATES else None
    _lib.simulate_batch(s, floors, nums, den, qfloors, qceils, bounds,
                        master_seed & _MASK64, n, house_size, sums, sumsqs,
                        totals, masks, _zeros(2 * s))
    return (list(sums), list(sumsqs), *totals,
            None if masks is None else list(masks))
