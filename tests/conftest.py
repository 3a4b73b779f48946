import os
import sys
import warnings

# One BLAS thread for the session and the CLI subprocesses it starts.  OpenBLAS
# reads these when numpy is first imported: on a loaded 2-core host one
# build-sized GEMM (FaddeevDilog._raw_grid, one per line fill) took 32 ms
# multi-threaded, 0.08 ms on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py; its BLAS threads are not pinned")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from shapedtqft import qdilog, special  # noqa: E402
from shapedtqft.data import load as load_bundled  # noqa: E402
from shapedtqft.params import ModularParameter  # noqa: E402
from shapedtqft.quadrature import IntegralResult, QuadratureConfig  # noqa: E402

ACCEPTANCE_LINES = []
CALIBRATION_LINES = []
# trapezoid steps: the first level and a fine level, and two irrational
# steps off the dyadic ones, a coarse one and 2/sqrt(3)
LATTICE_STEPS = (0.8, 0.1, 8 / np.sqrt(3), 2 / np.sqrt(3))


def capture_integrands(monkeypatch, module):
    """Replace module.integrate_nd by a stub that records each integrand."""
    seen = []

    def stub(f, dim, cfg):
        seen.append((f, dim))
        return IntegralResult(1.0, 0.0, 0, "trapezoid")
    monkeypatch.setattr(module, "integrate_nd", stub)
    return seen


def lattice_mismatch(f, dim, h, reach=5.0, n=200, seed=0):
    """Largest |f.lattice(h, k)(k) / f(k h) - 1| over n seeded integer
    vectors k with |k_j h| <= reach, prepared on their own hull; f(x) is the
    integrand's direct-engine form.  Where f(k h) is exactly 0 (a zero
    of a measure), the lattice form must be 0 as well, else the mismatch is
    inf."""
    kmax = max(1, int(reach // h))
    k = np.random.default_rng(seed).integers(-kmax, kmax + 1, size=(n, dim))
    lat, ref = f.lattice(h, k)(k), f(k * h)
    zero = ref == 0
    if (lat[zero] != 0).any():
        return np.inf
    return float(np.abs(lat[~zero] / ref[~zero] - 1).max())


def count_line_caches(monkeypatch):
    """Record the arguments of every qdilog.LineCache built from now on."""
    built = []
    init = qdilog.LineCache.__init__
    monkeypatch.setattr(qdilog.LineCache, "__init__",
                        lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
    return built


def record_fills(monkeypatch):
    """Record (z0, h, m) for every LineTables entry computed from now on, in
    the order of the pieces handed to LineTables._fill, the one path by which
    table entries are computed (one FaddeevDilog.lines call per grid step)."""
    filled = []
    fill = special.LineTables._fill

    def recorded(self, pieces):
        for (z0, h), lo, n in pieces:
            filled.extend((z0, h, m) for m in range(lo, lo + n))
        return fill(self, pieces)
    monkeypatch.setattr(special.LineTables, "_fill", recorded)
    return filled


def pytest_terminal_summary(terminalreporter):
    for title, lines in (("acceptance criteria", ACCEPTANCE_LINES),
                         ("error calibration", CALIBRATION_LINES)):
        if lines:
            terminalreporter.write_sep("=", title)
            for line in lines:
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

