"""Reduced/closed forms of the bundled H-triangulations."""
import numpy as np
import pytest

from shapedtqft import reduced
from shapedtqft.data import load as load_bundled
from shapedtqft.params import ModularParameter
from shapedtqft.quadrature import QuadratureConfig
from shapedtqft.reduced import (knot61_reduced2d, ratio_integral_fig8,
                                tilde52_reduced2d, triple_ratio_52)
from tests.conftest import (LATTICE_STEPS, capture_integrands, count_line_caches,
                            lattice_mismatch)


def test_ratio_integral_contour_shift_independence(mp1):
    vals = []
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    for frac in (0.05, 0.1, 0.2):
        vals.append(ratio_integral_fig8(mp1, cfg, shift=frac * abs(mp1.cb)).value)
    assert abs(vals[0] - vals[1]) < 1e-8
    assert abs(vals[1] - vals[2]) < 1e-8
    assert abs(vals[1].imag) < 1e-10  # the full integral is real here


@pytest.mark.parametrize("frac", [0.03, 0.02])
def test_ratio_integral_small_shift_needs_a_wide_box(mp1, frac):
    # the integrand decays at rate 2 pi shift only (0.19 and 0.13), so the box
    # must reach past radius 120; the grid cap, not a radius cap, bounds the work
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    ref = ratio_integral_fig8(mp1, cfg)
    res = ratio_integral_fig8(mp1, cfg, shift=frac * abs(mp1.cb))
    assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate


def test_triple_ratio_shift_independence(mp1):
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    v1 = triple_ratio_52(mp1, cfg, shift=0.1).value
    v2 = triple_ratio_52(mp1, cfg, shift=0.25).value
    assert abs(v1 - v2) < 1e-8


def test_knot52_reduced_at_second_coupling():
    # closed form vs 2D reduction away from b = 1
    mp = ModularParameter(0.9)
    beta1 = 1.0
    closed = abs(triple_ratio_52(mp, QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)).value) ** 2
    two_d = tilde52_reduced2d(beta1, beta1, beta1, np.pi - beta1, mp,
                              QuadratureConfig(abs_tol=3e-6, rel_tol=3e-6)).value
    assert abs(two_d / closed - 1) < 1e-4


def test_knot61_partner_is_conjugate(mp1):
    pars = dict(beta2=1.1, gamma2=1.2, rho2=1.0, delta3=np.pi - 2.0,
                theta_x=0.0, theta_z=1.1)
    cfg = QuadratureConfig(abs_tol=2e-6, rel_tol=2e-6)
    j = knot61_reduced2d(**pars, mp=mp1, cfg=cfg)
    jp = knot61_reduced2d(**pars, mp=mp1, cfg=cfg, partner=True)
    assert abs(jp.value - np.conj(j.value)) < 1e-7 * abs(j.value)


@pytest.mark.parametrize("h", LATTICE_STEPS)
def test_reduced_lattice_forms_match_direct(mp1, monkeypatch, h):
    # criterion 9's 5_2 form, both factors of criterion 10's 6_1 form, and
    # the 1D golden references of criteria 8 and 9
    seen = capture_integrands(monkeypatch, reduced)
    cfg = QuadratureConfig()
    ratio_integral_fig8(mp1, cfg)
    triple_ratio_52(mp1, cfg)
    tilde52_reduced2d(1.1, 1.1, 1.1, np.pi - 1.1, mp1, cfg)
    _x, angles = load_bundled("knot61.json")
    pars = dict(beta2=angles[1][1], gamma2=angles[2][1], rho2=angles[3][1],
                delta3=angles[4][2],
                theta_x=angles[1][0] - angles[2][0] - angles[4][0],
                theta_z=angles[3][0] + angles[4][0])
    for partner in (False, True):
        knot61_reduced2d(**pars, mp=mp1, cfg=cfg, partner=partner)
    assert [dim for _f, dim in seen] == [1, 1, 2, 2, 2]
    for f, dim in seen:
        assert lattice_mismatch(f, dim, h) <= 1e-12


def test_references_build_no_line_cache(mp1, monkeypatch):
    built = count_line_caches(monkeypatch)
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    for reference in (ratio_integral_fig8, triple_ratio_52):
        res = reference(mp1, cfg)
        assert res.method == "trapezoid" and res.error_estimate <= 1e-10
    assert built == []
