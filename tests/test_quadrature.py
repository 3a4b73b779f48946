"""Adaptive panels on finite intervals, truncation by decay estimate, trapezoid,
tensor and Monte-Carlo paths."""
import numpy as np
import pytest
from scipy.special import k1

from shapedtqft import quadrature, tqft
from shapedtqft.errors import DecayEstimateFailure, QuadratureFailure
from shapedtqft.quadrature import QuadratureConfig, integrate_1d, integrate_nd
from shapedtqft.tqft import partition_function
from tests.conftest import capture_integrands


def test_gaussian_1d():
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)
    res = integrate_1d(lambda t: np.exp(-np.pi * t**2) + 0j, cfg, interval=(-8.0, 8.0))
    assert abs(res.value - 1.0) < 1e-12
    assert res.error_estimate < 1e-10
    assert res.method == "adaptive"


def test_oscillatory_1d():
    # int e^{-t^2} cos(8 t) dt = sqrt(pi) e^{-16}
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-10)
    res = integrate_1d(lambda t: np.exp(-t**2) * np.cos(8 * t) + 0j, cfg, interval=(-8.0, 8.0))
    assert abs(res.value - np.sqrt(np.pi) * np.exp(-16.0)) < 1e-12


def test_gk_refuses_unmet_tolerance():
    # a jump at t = 1/3 keeps its panel's error at ~3e-9 after the last
    # splitting round: refused rather than returned with that error estimate
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)
    with pytest.raises(QuadratureFailure, match="after 30 panels"):
        integrate_1d(lambda t: np.where(t < 1 / 3, 1.0, 2.0) + 0j, cfg, interval=(-1.0, 1.0))


def test_integrate_1d_needs_an_interval():
    # integrals over R take integrate_nd; Gauss-Kronrod keeps finite intervals
    with pytest.raises(TypeError):
        integrate_1d(lambda t: np.exp(-np.pi * t**2) + 0j, QuadratureConfig())


def test_trapezoid_1d_sizes_slowly_decaying_rays(monkeypatch):
    # 0.1 exp(-0.3 sqrt(1 + t^2)) decays at rate 0.3 < 1, so each ray is cut
    # where the tail integral, not only |f|, is below target (cut where |f|
    # is, the measured tail 1.2e-10 exceeds tol); in 1D the box takes no
    # diagonal probes, which would repeat the two axis rays
    fits = []
    fit = quadrature.estimate_decay
    monkeypatch.setattr(quadrature, "estimate_decay", lambda *a: fits.append(a) or fit(*a))
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    res = integrate_nd(lambda p: 0.1 * np.exp(-0.3 * np.sqrt(1 + p[:, 0]**2)) + 0j, 1, cfg)
    assert res.method == "trapezoid" and len(fits) == 2
    assert abs(res.value - 0.2 * k1(0.3)) <= res.error_estimate <= 1e-10


@pytest.mark.parametrize("dim,tol,nodes,exact", [
    (1, 1e-9, 39, 1.0),              # e^{-pi t^2}
    (2, 1e-12, 104_329, np.pi**2),   # sech x sech y
])
def test_squared_halving_estimate_bounds_analytic_integrands(dim, tol, nodes, exact):
    # the error squares with each halving, so the halving estimate, about
    # d_k^2 / d_{k-1}, bounds the error of T(h_k) and stops one halving before
    # d_k would (79 and 418,609 nodes)
    f = {1: lambda p: np.exp(-np.pi * p[:, 0]**2) + 0j,
         2: lambda p: 1 / (np.cosh(p[:, 0]) * np.cosh(p[:, 1])) + 0j}[dim]
    res = integrate_nd(f, dim, QuadratureConfig(abs_tol=tol, rel_tol=tol))
    assert res.method == "trapezoid" and res.evaluations == nodes
    assert abs(res.value - exact) <= res.error_estimate


def test_trapezoid_refuses_tolerance_below_phib_floor():
    # the floor phib_tol * integral of |f| = 1e-13 exceeds tol 1e-14: refused
    # after the first level (one probe call and one grid call), not at the grid cap
    calls = []

    def f(p):
        calls.append(len(p))
        return np.exp(-np.pi * p[:, 0]**2) + 0j

    with pytest.raises(QuadratureFailure, match="floor"):
        integrate_nd(f, 1, QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14))
    assert calls == [6, 11]


def _gaussian(dim):
    a = np.array([0.5, 0.3, 0.4])[:dim]
    return lambda p: np.exp(-(a * p**2).sum(axis=1) - 0.1 * p[:, 0] * p[:, -1] + 1j * p[:, 0])


def test_box_probes_one_lattice_call_per_family(fig8, mp1, monkeypatch):
    # each ray family (axis rays, diagonals) takes its probes in one lattice
    # call, and the box and rates are those of probing each radius r along
    # each ray d by its own call at the node d of step r/|d|
    x, angles = fig8
    seen = capture_integrands(monkeypatch, tqft)
    partition_function(x, angles, mp=mp1, cfg=QuadratureConfig(abs_tol=2e-5, rel_tol=2e-5,
                                                               phib_tol=1e-11))
    on_lattice = quadrature._on_lattice

    def per_probe(f, k, h):
        n = np.abs(k).max(axis=1)
        return np.array([on_lattice(f, row[None] // m, m * h)[0] for row, m in zip(k, n)])

    for f, dim, cfg in ((_gaussian(1), 1, QuadratureConfig()),
                        (_gaussian(2), 2, QuadratureConfig()),
                        (_gaussian(3), 3, QuadratureConfig()),
                        (seen[0][0], 3, QuadratureConfig(abs_tol=2e-5, rel_tol=2e-5))):
        calls = []
        monkeypatch.setattr(quadrature, "_on_lattice",
                            lambda f, k, h: calls.append(len(k)) or on_lattice(f, k, h))
        radii, rates = quadrature._estimate_box(f, dim, cfg)
        assert calls == ([6] if dim == 1 else [6 * dim, 3 * 2**dim])
        monkeypatch.setattr(quadrature, "_on_lattice", per_probe)
        ref_radii, ref_rates = quadrature._estimate_box(f, dim, cfg)
        assert np.abs(radii - ref_radii).max() <= 1e-12 * np.abs(ref_radii).max()
        assert np.abs(rates - ref_rates).max() <= 1e-12 * np.abs(ref_rates).max()


def test_product_gaussian_3d():
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    res = integrate_nd(lambda p: np.exp(-np.pi * (p**2).sum(axis=1)) + 0j, 3, cfg)
    assert res.method == "trapezoid"
    assert abs(res.value - 1.0) < 1e-9
    assert abs(res.value - 1.0) <= res.error_estimate


def test_gaussian_2d_offdiagonal():
    # correlated quadratic form, exact value 2 pi / sqrt(det A), A = [[2,1],[1,2]]
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)

    def f(p):
        x, y = p[:, 0], p[:, 1]
        return np.exp(-(x**2 + x * y + y**2)) + 0j

    res = integrate_nd(f, 2, cfg)
    assert res.method == "trapezoid"
    assert abs(res.value - 2 * np.pi / np.sqrt(3)) < 1e-8
    assert abs(res.value - 2 * np.pi / np.sqrt(3)) <= res.error_estimate


def test_trapezoid_reproducible():
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    f = lambda p: np.exp(-(p**2).sum(axis=1) + 0.5j * p[:, 0] * p[:, 1])  # noqa: E731
    r1 = integrate_nd(f, 2, cfg)
    r2 = integrate_nd(f, 2, cfg)
    assert (r1.value, r1.error_estimate, r1.evaluations) == \
        (r2.value, r2.error_estimate, r2.evaluations)


def test_trapezoid_refuses_unattainable_tolerance():
    # the kink at the origin limits the trapezoid to O(h^2): tol 1e-14 is
    # refused once the next halving would exceed the grid cap (phib_tol is
    # set below the tolerance, which the Phi_b floor would refuse at once)
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, phib_tol=1e-16)
    with pytest.raises(QuadratureFailure, match="would exceed"):
        integrate_nd(lambda p: np.exp(-np.abs(p).sum(axis=1)) + 0j, 2, cfg)


def test_trapezoid_refuses_box_that_misses_a_ridge():
    # a ridge at 22.5 degrees runs between the probed axis and diagonal rays,
    # so the fitted box cuts it where |f| is still far above tol: the tail
    # measured on the faces is refused, not returned as the error
    th = np.pi / 8

    def f(p):
        along = p[:, 0] * np.cos(th) + p[:, 1] * np.sin(th)
        across = -p[:, 0] * np.sin(th) + p[:, 1] * np.cos(th)
        return np.exp(-2.0 * across**2) / np.cosh(2.5 * along) + 0j

    with pytest.raises(QuadratureFailure, match="tail"):
        integrate_nd(f, 2, QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9))


def test_tolerance_tightening_consistency():
    # doubling effort keeps results within reported error estimates
    def f(t):
        return np.exp(-np.abs(t)) * np.cos(3 * t) + 0j

    r1 = integrate_1d(f, QuadratureConfig(abs_tol=1e-6, rel_tol=1e-6), interval=(-40.0, 40.0))
    r2 = integrate_1d(f, QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10), interval=(-40.0, 40.0))
    assert abs(r1.value - r2.value) <= r1.error_estimate + r2.error_estimate


def test_decay_estimate_failure():
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8)
    with pytest.raises(DecayEstimateFailure):
        integrate_nd(lambda p: np.exp(0.2 * np.abs(p).sum(axis=1)) + 0j, 2, cfg)


def test_tensor4_gaussian():
    cfg = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-6)
    res = integrate_nd(lambda p: np.exp(-np.pi * (p**2).sum(axis=1)) + 0j, 4, cfg)
    assert res.method == "tensor"
    assert abs(res.value - 1.0) <= max(3 * res.error_estimate, 1e-6)


def test_monte_carlo_unbiased_over_seeds():
    # separable gaussian; mean over 30 seeds within 3 standard errors of 1
    values, errors = [], []
    for seed in range(30):
        cfg = QuadratureConfig(abs_tol=1e-4, rel_tol=1e-4, mc_samples=20000,
                               rng_seed=seed, force_monte_carlo=True)
        res = integrate_nd(lambda p: np.exp(-np.pi * (p**2).sum(axis=1)) + 0j, 3, cfg)
        assert res.method == "monte_carlo"
        values.append(res.value.real)
        errors.append(res.error_estimate)
    mean = np.mean(values)
    se = np.std(values, ddof=1) / np.sqrt(len(values))
    assert abs(mean - 1.0) < 3 * se
    # reported per-run error estimates are the right scale
    assert np.median(errors) < 0.05 and np.median(errors) > 1e-5


def test_monte_carlo_reproducible():
    cfg = QuadratureConfig(mc_samples=5000, rng_seed=42, force_monte_carlo=True)
    f = lambda p: np.exp(-np.pi * (p**2).sum(axis=1)) + 0j
    r1 = integrate_nd(f, 2, cfg)
    r2 = integrate_nd(f, 2, cfg)
    assert r1.value == r2.value and r1.error_estimate == r2.error_estimate
