import os
import sys
import warnings

# One BLAS thread for the session and the CLI subprocesses it starts.  OpenBLAS
# reads these when numpy is first imported: on a loaded 2-core host one
# build-sized GEMM (FaddeevDilog._raw_grid) took 32 ms multi-threaded, 0.08 ms
# on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py; its BLAS threads are not pinned")

import pytest  # noqa: E402

from shapedtqft.data import load as load_bundled  # noqa: E402
from shapedtqft.params import ModularParameter  # noqa: E402
from shapedtqft.quadrature import QuadratureConfig  # noqa: E402

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def mp1():
    return ModularParameter(1.0)


@pytest.fixture(scope="session")
def cfg9():
    return QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)


@pytest.fixture(scope="session")
def cfg11():
    return QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11)


@pytest.fixture(scope="session")
def trefoil():
    return load_bundled("trefoil.json")


@pytest.fixture(scope="session")
def fig8():
    return load_bundled("fig8.json")


@pytest.fixture(scope="session")
def fig8_complement():
    return load_bundled("fig8_complement.json")

