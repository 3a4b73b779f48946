"""Acceptance gate: one test per criterion, each at its stated tolerance and
time budget, reporting a pass/fail line in the terminal summary."""
import time

import numpy as np
import pytest

from shapedtqft.complexes import (GaugeFixing, random_bipyramid_angles, standalone_bipyramid,
                                  tas_basis)
from shapedtqft.data import load as load_bundled
from shapedtqft.geometry import (gluing_residual, maximize_volume_in_gauge_class,
                                 volume_gradient)
from shapedtqft.identities import (check_classical_pentagon,
                                   check_elliptic_beta_integral,
                                   check_entropy_pentagon,
                                   check_hyperbolic_pentagon,
                                   check_octahedron_duality, random_balanced_33,
                                   random_entropy_tuple, random_octahedron_params)
from shapedtqft.params import EllipticBases, ModularParameter
from shapedtqft.qdilog import phi_b
from shapedtqft.quadrature import QuadratureConfig
from shapedtqft.reduced import (knot61_reduced2d, ratio_integral_fig8,
                                tilde52_reduced2d, triple_ratio_52)
from shapedtqft.special import cap_psi, cap_psi_direct, elliptic_gamma, hyperbolic_gamma
from shapedtqft.tqft import (check_pachner_invariance, check_shape_gauge_invariance,
                             faddeev_popov_check, knot_quad_angle, partition_function)
from tests.conftest import ACCEPTANCE_LINES


def record(num, label, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    ACCEPTANCE_LINES.append(
        f"criterion {num:>2} [{label}]: {status}  {detail}  ({elapsed:.1f}s of {budget:.0f}s)")
    assert ok, f"criterion {num} [{label}]: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def test_criterion_01_special_function_suite():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = {}
    mp = ModularParameter(1.15)
    z = rng.uniform(-6, 6, 100) + 1j * rng.uniform(-0.9, 0.9, 100) * abs(mp.cb)
    inv = phi_b(z, mp) * phi_b(-z, mp) * mp.zeta_inv * np.exp(-1j * np.pi * z**2)
    worst["inversion"] = np.abs(inv - 1).max()
    zf = rng.uniform(-5, 5, 100) + 1j * rng.uniform(-0.3, 0.3, 100)
    fr = []
    for bp in (mp.b, 1 / mp.b):
        lhs = phi_b(zf - 0.5j * bp, mp)
        rhs = (1 + np.exp(2 * np.pi * bp * zf)) * phi_b(zf + 0.5j * bp, mp)
        fr.append(np.abs(lhs / rhs - 1).max())
    worst["functional"] = max(fr)
    un = np.conj(phi_b(z, mp)) * phi_b(np.conj(z), mp)
    worst["unitarity"] = np.abs(un - 1).max()
    u = rng.uniform(0.15, mp.q_total - 0.15, 100) + 1j * rng.uniform(-0.4, 0.4, 100)
    gi = hyperbolic_gamma(u, mp) * hyperbolic_gamma(mp.q_total - u, mp)
    worst["gamma2_inversion"] = np.abs(gi - 1).max()
    bases = EllipticBases(0.3, 0.3)
    ze = rng.uniform(0.3, 0.9, 100) * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
    refl = elliptic_gamma(ze, bases) * elliptic_gamma(bases.p * bases.q / ze, bases)
    worst["elliptic_reflection"] = np.abs(refl - 1).max()
    ok = (max(worst[k] for k in ("inversion", "functional", "unitarity",
                                 "gamma2_inversion")) < 1e-9
          and worst["elliptic_reflection"] < 1e-12)
    detail = " ".join(f"{k}={v:.1e}" for k, v in worst.items())
    record(1, "special functions", ok, detail, time.time() - t0, 120)


def test_criterion_02_fourier_kernel_closed_form():
    t0 = time.time()
    rng = np.random.default_rng(2025)
    mp = ModularParameter(1.0)
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    worst = 0.0
    for _ in range(10):
        u = 1j * rng.uniform(0.05, 0.55)
        v = -1j * rng.uniform(0.05, 0.55)
        w = rng.uniform(0.05, 0.45) * rng.choice([-1.0, 1.0])
        closed = complex(cap_psi(u, v, w, mp))
        direct = cap_psi_direct(u, v, w, mp, cfg).value
        worst = max(worst, abs(direct / closed - 1))
    record(2, "kernel closed form vs integral", worst < 1e-6,
           f"max_rel={worst:.1e}", time.time() - t0, 60)


def test_criterion_03_hyperbolic_pentagon():
    t0 = time.time()
    rng = np.random.default_rng(2026)
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    worst = 0.0
    for b in (1.0, 1.3):
        mp = ModularParameter(b)
        for _ in range(10):
            p = random_balanced_33(rng, mp)
            worst = max(worst, check_hyperbolic_pentagon(p, mp, cfg))
    record(3, "hyperbolic pentagon", worst < 1e-5, f"max_rel={worst:.1e}",
           time.time() - t0, 600)


def test_criterion_04_elliptic_beta_integral():
    t0 = time.time()
    rng = np.random.default_rng(2027)
    bases = EllipticBases(0.3, 0.3)
    worst, done = 0.0, 0
    while done < 10:
        s = rng.uniform(0.25, 0.7, 5) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        s6 = bases.p * bases.q / np.prod(s)
        if abs(s6) >= 0.9:
            continue
        worst = max(worst, check_elliptic_beta_integral(np.append(s, s6), bases))
        done += 1
    record(4, "elliptic beta integral", worst < 1e-8, f"max_rel={worst:.1e}",
           time.time() - t0, 120)


def test_criterion_05_classical_pentagon():
    t0 = time.time()
    rng = np.random.default_rng(2028)
    cfg = QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11)
    worst = check_classical_pentagon(0.2, 0.2, 0.2, 0.2, 0.2, cfg)
    for _ in range(9):
        a = rng.uniform(0.15, 0.6, 5)
        worst = max(worst, check_classical_pentagon(*a, cfg))
    record(5, "classical pentagon", worst < 1e-7, f"max_res={worst:.1e}",
           time.time() - t0, 60)


def test_criterion_06_entropy_pentagon():
    t0 = time.time()
    rng = np.random.default_rng(2029)
    worst = max(check_entropy_pentagon(*random_entropy_tuple(rng)) for _ in range(100))
    record(6, "entropy pentagon", worst < 1e-12, f"max_res={worst:.1e}",
           time.time() - t0, 1)


def test_criterion_07_trefoil_golden():
    t0 = time.time()
    x, _ = load_bundled("trefoil.json")
    worst = 0.0
    for b in (1.0, 0.8):
        mp = ModularParameter(b)
        cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
        for a0 in (np.pi / 2, 1.1, 0.6):
            rest = np.pi - a0
            angles = np.array([[0.45 * rest, 0.55 * rest, a0]])
            res = partition_function(x, angles, mp=mp, cfg=cfg)
            closed = 2 * abs(phi_b(mp.u_of(a0), mp)) ** 2
            worst = max(worst, abs(res.value / closed - 1))
    record(7, "trefoil golden", worst < 1e-6, f"max_rel={worst:.1e}",
           time.time() - t0, 120)


def test_criterion_08_figure_eight_golden():
    t0 = time.time()
    x, angles = load_bundled("fig8.json")  # complete balancing beta = gamma
    mp = ModularParameter(1.0)
    cfg1 = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    ratio = ratio_integral_fig8(mp, cfg1).value
    a_knot = knot_quad_angle(x, angles, 3)
    knot_factor = 2 * abs(phi_b(mp.u_of(a_knot), mp)) ** 2
    closed = knot_factor * abs(ratio) ** 2
    cfg3 = QuadratureConfig(abs_tol=2e-5, rel_tol=2e-5, phib_tol=1e-11)
    res = partition_function(x, angles, mp=mp, cfg=cfg3)
    rel = abs(res.value / closed - 1)
    tilde = res.value / knot_factor
    imfrac = abs(tilde.imag) / abs(tilde)
    slack = abs(res.value - closed) / res.error_estimate
    ok = rel < 1e-4 and imfrac < 1e-6 and tilde.real > 0 and res.dim == 3 and slack <= 1.0
    record(8, "figure-eight golden (3D)", ok,
           f"rel={rel:.1e} tilde_im/|.|={imfrac:.1e} |W-ref|/abs_err={slack:.2f}",
           time.time() - t0, 900)


def test_criterion_09_knot52_reduced():
    t0 = time.time()
    mp = ModularParameter(1.0)
    beta1 = 1.1  # complete balancing: gamma3 = delta1 = beta1, theta = pi - beta1
    closed = abs(triple_ratio_52(mp, QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)).value) ** 2
    two_d = tilde52_reduced2d(beta1, beta1, beta1, np.pi - beta1, mp,
                              QuadratureConfig(abs_tol=3e-6, rel_tol=3e-6)).value
    rel = abs(two_d / closed - 1)
    imfrac = abs(two_d.imag) / abs(two_d)  # modulus-squared structure
    record(9, "5_2 reduced 2D vs closed", rel < 1e-3 and imfrac < 1e-4,
           f"rel={rel:.1e} im/|.|={imfrac:.1e}", time.time() - t0, 1200)


def test_criterion_10_knot61_reduced():
    t0 = time.time()
    mp = ModularParameter(1.0)
    _x, angles = load_bundled("knot61.json")
    pars = dict(beta2=angles[1][1], gamma2=angles[2][1], rho2=angles[3][1],
                delta3=angles[4][2],
                theta_x=angles[1][0] - angles[2][0] - angles[4][0],
                theta_z=angles[3][0] + angles[4][0])
    j1 = knot61_reduced2d(**pars, mp=mp, cfg=QuadratureConfig(abs_tol=2e-6, rel_tol=2e-6))
    j2 = knot61_reduced2d(**pars, mp=mp, cfg=QuadratureConfig(abs_tol=4e-7, rel_tol=4e-7))
    consistent = abs(j1.value - j2.value) <= j1.error_estimate + j2.error_estimate
    partner = knot61_reduced2d(**pars, mp=mp, partner=True,
                               cfg=QuadratureConfig(abs_tol=2e-6, rel_tol=2e-6))
    tilde = j1.value * partner.value
    imfrac = abs(tilde.imag) / abs(tilde)
    ok = consistent and imfrac < 1e-4 and tilde.real > 0
    record(10, "6_1 reduced 2D", ok,
           f"|dJ|={abs(j1.value - j2.value):.1e} err_budget={j1.error_estimate + j2.error_estimate:.1e} "
           f"im/|.|={imfrac:.1e}", time.time() - t0, 1200)


def test_criterion_11_pachner_invariance():
    t0 = time.time()
    mp = ModularParameter(1.0)
    x, central = standalone_bipyramid()
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8)
    rng = np.random.default_rng(2030)
    worst = 0.0
    for _ in range(5):
        ang = random_bipyramid_angles(rng)
        bs = dict(zip(x.boundary_edges, rng.uniform(-0.5, 0.5, len(x.boundary_edges))))
        rep = check_pachner_invariance(x, ang, central, mp, cfg, boundary_state=bs)
        worst = max(worst, rep["rel_discrepancy"])
    record(11, "3-2 move invariance", worst < 1e-5, f"max_rel={worst:.1e}",
           time.time() - t0, 600)


def test_criterion_12_gauge_independence():
    t0 = time.time()
    mp = ModularParameter(1.0)
    worst = 0.0
    # trefoil: two gauges and a small tangential deformation
    x1, a1 = load_bundled("trefoil.json")
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    worst = max(worst, faddeev_popov_check(
        x1, a1, GaugeFixing(((0, 0, 0.5),)), GaugeFixing(((0, 1, 0.5),)), mp, cfg)["rel_discrepancy"])
    worst = max(worst, check_shape_gauge_invariance(x1, a1, 0, 0.05, mp, cfg)["rel_discrepancy"])
    # figure-eight complex: 3D integrals
    x2, a2 = load_bundled("fig8.json")
    cfg3 = QuadratureConfig(abs_tol=1.5e-6, rel_tol=3e-6, phib_tol=1e-12)
    worst = max(worst, faddeev_popov_check(
        x2, a2, GaugeFixing(((0, 0, 0.5),)), GaugeFixing(((0, 3, 0.5),)), mp, cfg3)["rel_discrepancy"])
    worst = max(worst, check_shape_gauge_invariance(x2, a2, 0, 0.05, mp, cfg3)["rel_discrepancy"])
    record(12, "gauge independence", worst < 1e-5, f"max_rel={worst:.1e}",
           time.time() - t0, 600)


def test_criterion_13_octahedron_duality():
    t0 = time.time()
    mp = ModularParameter(1.0)
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    rng = np.random.default_rng(2031)
    worst = 0.0
    for _ in range(5):
        al, be, t, s, u, w = random_octahedron_params(rng, mp)
        worst = max(worst, check_octahedron_duality(al, be, t, s, u, w, mp, cfg))
    record(13, "octahedron duality", worst < 1e-3, f"max_rel={worst:.1e}",
           time.time() - t0, 900)


def test_criterion_14_volume_maximization():
    t0 = time.time()
    x, angles = load_bundled("fig8_complement.json")
    rng = np.random.default_rng(2032)
    gens = tas_basis(x)
    ok = True
    worst_angle, worst_glue = 0.0, 0.0
    for _ in range(3):
        start = np.asarray(angles, float).copy()
        for g in gens:
            trial = start + rng.uniform(-0.3, 0.3) * g
            if (trial > 0.05).all() and (trial < np.pi - 0.05).all():
                start = trial
        beta, conv = maximize_volume_in_gauge_class(x, start, tol=1e-11)
        ok = ok and conv
        worst_angle = max(worst_angle, float(np.abs(beta - np.pi / 3).max()))
        worst_glue = max(worst_glue, max(abs(v) for v in gluing_residual(x, beta).values()))
    grad_dev = 0.0
    from shapedtqft.special import lobachevsky
    for _ in range(50):
        a = np.clip(rng.dirichlet(np.ones(3), size=2) * np.pi, 0.05, np.pi - 0.05)
        g = volume_gradient(a)
        idx = (rng.integers(0, 2), rng.integers(0, 3))
        h = 1e-6
        ap, am = a.copy(), a.copy()
        ap[idx] += h
        am[idx] -= h
        fd = (np.sum(lobachevsky(ap)) - np.sum(lobachevsky(am))) / (2 * h)
        grad_dev = max(grad_dev, abs(g[idx] - fd) / max(1.0, abs(fd)))
    ok = ok and worst_angle < 1e-6 and worst_glue < 1e-8 and grad_dev < 1e-6
    record(14, "volume maximization", ok,
           f"|angle-pi/3|={worst_angle:.1e} gluing={worst_glue:.1e} grad_dev={grad_dev:.1e}",
           time.time() - t0, 120)


@pytest.mark.stretch
def test_stretch_full_4d_monte_carlo_52():
    """Optional stretch: full 4D pipeline for 5_2 by Monte Carlo vs the
    renormalized closed form, within 3 reported standard errors."""
    mp = ModularParameter(1.0)
    x, angles = load_bundled("knot52.json")
    closed = abs(triple_ratio_52(mp, QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)).value) ** 2
    a_knot = knot_quad_angle(x, angles, next(e for e, c in enumerate(x.edge_classes)
                                             if len(c) == 1))
    target = 2 * abs(phi_b(mp.u_of(a_knot), mp)) ** 2 * closed
    cfg = QuadratureConfig(mc_samples=4_000_000, rng_seed=5, force_monte_carlo=True,
                           phib_tol=1e-10)
    res = partition_function(x, angles, mp=mp, cfg=cfg)
    assert res.dim == 4
    assert abs(res.value - target) < 3 * res.error_estimate


@pytest.mark.stretch
def test_stretch_full_monte_carlo_61():
    """Optional stretch: the whole 6_1 state integral (5D after one delta)
    against the knot factor times the reduced modulus-squared form."""
    mp = ModularParameter(1.0)
    x, angles = load_bundled("knot61.json")
    pars = dict(beta2=angles[1][1], gamma2=angles[2][1], rho2=angles[3][1],
                delta3=angles[4][2],
                theta_x=angles[1][0] - angles[2][0] - angles[4][0],
                theta_z=angles[3][0] + angles[4][0])
    j = knot61_reduced2d(**pars, mp=mp,
                         cfg=QuadratureConfig(abs_tol=1e-6, rel_tol=1e-6)).value
    knot = next(e for e, c in enumerate(x.edge_classes) if len(c) == 1)
    target = 2 * abs(phi_b(mp.u_of(knot_quad_angle(x, angles, knot)), mp)) ** 2 * abs(j) ** 2
    cfg = QuadratureConfig(mc_samples=4_000_000, rng_seed=11, force_monte_carlo=True,
                           phib_tol=1e-10)
    res = partition_function(x, angles, mp=mp, cfg=cfg)
    assert res.dim == 5 and res.method == "monte_carlo"
    assert abs(res.value - target) < 3 * res.error_estimate
