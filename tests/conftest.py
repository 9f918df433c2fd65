import os
import subprocess
import sys
from pathlib import Path

import pytest

# Make the test-only oracle/fixture modules importable regardless of how
# pytest was invoked.
sys.path.insert(0, str(Path(__file__).parent))

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def kc(tmp_path_factory):
    """seatlot._kernels_c bound to a library compiled into a temporary
    directory, so the parity tests run wherever a C compiler exists."""
    from seatlot import _kernels_c
    library = _kernels_c.build(str(tmp_path_factory.mktemp("kernels")))
    if library is None:
        pytest.skip("no C compiler to build the compiled kernels")
    previous = _kernels_c._lib
    _kernels_c.load(library)
    yield _kernels_c
    _kernels_c._lib = previous


@pytest.fixture
def fresh_python():
    """Runs ``python *args`` in a new interpreter that imports seatlot from
    this tree, with ``extra_env`` added to the environment; returns the
    completed process, output in bytes."""
    def run(*args, cwd=None, **extra_env):
        path = os.pathsep.join(filter(None, [str(SRC),
                                             os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, **extra_env)
        return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                              capture_output=True, timeout=120, check=False)
    return run
