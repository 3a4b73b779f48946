"""Calibration: each reported error bounds the distance to a closed form.

Every case integrates on the trapezoid and checks |value - reference| <=
abs_err, where abs_err is the integral's error estimate plus the error of
the reference itself, when it carries one.  The worst slack
|value - reference| / abs_err of each family is reported in the terminal
summary.
"""
import numpy as np
import pytest

from shapedtqft import identities
from shapedtqft.data import load as load_bundled
from shapedtqft.identities import (check_hyperbolic_beta_integral, check_hyperbolic_pentagon,
                                   check_octahedron_duality, random_balanced_6,
                                   random_balanced_33, random_octahedron_params)
from shapedtqft.params import ModularParameter
from shapedtqft.qdilog import phi_b
from shapedtqft.quadrature import QuadratureConfig, integrate_nd
from shapedtqft.reduced import ratio_integral_fig8, tilde52_reduced2d, triple_ratio_52
from shapedtqft.special import hyper_B, hyperbolic_gamma
from shapedtqft.tqft import knot_quad_angle, partition_function
from tests.conftest import CALIBRATION_LINES


def capture_results(monkeypatch):
    """Record the IntegralResult of every identities.integrate_nd call."""
    seen = []
    integrate = identities.integrate_nd

    def capture(f, dim, cfg):
        res = integrate(f, dim, cfg)
        seen.append(res)
        return res
    monkeypatch.setattr(identities, "integrate_nd", capture)
    return seen


def report(family, slacks):
    """Record the worst slack of a family for the terminal summary; returns it."""
    worst = max(slacks)
    CALIBRATION_LINES.append(f"{family}: worst |value - reference| / abs_err = {worst:.3g} "
                             f"over {len(slacks)} cases")
    return worst


def tol_cfg(tol, **kw):
    return QuadratureConfig(abs_tol=tol, rel_tol=tol, **kw)


def test_pentagon_and_beta_closed_forms(monkeypatch):
    # seed 7, ten draws of each identity per coupling and tolerance; the
    # beta integral's left side is half the integral
    seen = capture_results(monkeypatch)
    slacks = {"pentagon": [], "beta integral": []}
    for tol in (1e-6, 1e-9, 1e-12):
        cfg = tol_cfg(tol)
        for b in (1.0, 1.3):
            mp = ModularParameter(b)
            rng = np.random.default_rng(7)
            for _ in range(10):
                p = random_balanced_33(rng, mp)
                check_hyperbolic_pentagon(p, mp, cfg)
                ref = complex(hyper_B(p.a[1] + p.b[0], p.a[2] + p.b[1], mp, cfg.phib_tol)
                              * hyper_B(p.a[0] + p.b[1], p.a[2] + p.b[0], mp, cfg.phib_tol))
                res = seen.pop()
                slacks["pentagon"].append(abs(res.value - ref) / res.error_estimate)
                p = random_balanced_6(rng, mp)
                check_hyperbolic_beta_integral(p, mp, cfg)
                al = p.alphas
                ref = 2 * np.prod([complex(hyperbolic_gamma(al[i] + al[j], mp, cfg.phib_tol))
                                   for i in range(6) for j in range(i + 1, 6)])
                res = seen.pop()
                slacks["beta integral"].append(abs(res.value - ref) / res.error_estimate)
    worst = {family: report(family, values) for family, values in slacks.items()}
    assert max(worst.values()) <= 1.0, worst


def test_octahedron_sides_agree_within_their_errors(monkeypatch):
    # criterion 13's five draws: |Z4 - Z5| against err4 + err5
    seen = capture_results(monkeypatch)
    mp = ModularParameter(1.0)
    slacks = []
    for tol in (1e-5, 1e-7, 1e-9):
        rng = np.random.default_rng(2031)
        for _ in range(5):
            check_octahedron_duality(*random_octahedron_params(rng, mp), mp, tol_cfg(tol))
            z4, z5 = seen[-2:]
            slacks.append(abs(z4.value - z5.value) / (z4.error_estimate + z5.error_estimate))
    assert report("octahedron Z4 vs Z5", slacks) <= 1.0


def test_trefoil_golden():
    # criterion 7's angles: W = 2 |Phi_b(u(a0))|^2
    x, _ = load_bundled("trefoil.json")
    slacks = []
    for tol in (1e-6, 1e-9, 1e-12):
        for b in (1.0, 0.8):
            mp = ModularParameter(b)
            for a0 in (np.pi / 2, 1.1, 0.6):
                rest = np.pi - a0
                res = partition_function(x, np.array([[0.45 * rest, 0.55 * rest, a0]]),
                                         mp=mp, cfg=tol_cfg(tol))
                ref = 2 * abs(phi_b(mp.u_of(a0), mp)) ** 2
                slacks.append(abs(res.value - ref) / res.error_estimate)
    assert report("trefoil golden", slacks) <= 1.0


@pytest.fixture(scope="module")
def fig8_reference():
    """Criterion 8's reference W = knot factor * |ratio integral|^2 and its error."""
    x, angles = load_bundled("fig8.json")
    mp = ModularParameter(1.0)
    ratio = ratio_integral_fig8(mp, tol_cfg(1e-10))
    knot_factor = 2 * abs(phi_b(mp.u_of(knot_quad_angle(x, angles, 3)), mp)) ** 2
    return (knot_factor * abs(ratio.value) ** 2,
            knot_factor * ratio.error_estimate * (2 * abs(ratio.value) + ratio.error_estimate))


def test_fig8_state_integral(fig8_reference):
    x, angles = load_bundled("fig8.json")
    mp = ModularParameter(1.0)
    ref, ref_err = fig8_reference
    slacks = []
    for tol in (1e-3, 2e-5, 1e-6):
        res = partition_function(x, angles, mp=mp, cfg=tol_cfg(tol, phib_tol=1e-11))
        slacks.append(abs(res.value - ref) / (res.error_estimate + ref_err))
    assert report("fig8 state integral", slacks) <= 1.0


def test_knot52_reduced_form():
    # criterion 9's angle: the 2D form equals |triple_ratio_52|^2
    mp = ModularParameter(1.0)
    beta1 = 1.1
    triple = triple_ratio_52(mp, tol_cfg(1e-10))
    ref = abs(triple.value) ** 2
    ref_err = triple.error_estimate * (2 * abs(triple.value) + triple.error_estimate)
    slacks = []
    for tol in (3e-6, 1e-8):
        res = tilde52_reduced2d(beta1, beta1, beta1, np.pi - beta1, mp, tol_cfg(tol))
        slacks.append(abs(res.value - ref) / (res.error_estimate + ref_err))
    assert report("5_2 reduced form", slacks) <= 1.0


def test_kink_at_the_origin():
    # e^{-|x|} integrates to 2, but its kink makes the trapezoid error O(h^2):
    # the error shrinks by 4 per halving instead of squaring, so the stop rule
    # must not report the squared estimate
    slacks = []
    for tol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        res = integrate_nd(lambda p: np.exp(-np.abs(p[:, 0])) + 0j, 1, tol_cfg(tol))
        slacks.append(abs(res.value - 2) / res.error_estimate)
    assert report("e^-|x| kink", slacks) <= 1.0
