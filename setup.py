from setuptools import Extension, setup

# A plain C library, not a CPython extension: seatlot._kernels_c loads it
# with ctypes.  Optional, so a failed build installs the pure-Python kernels.
setup(ext_modules=[Extension("seatlot._kernels_native",
                             ["src/seatlot/_kernels_native.c"],
                             optional=True)])
