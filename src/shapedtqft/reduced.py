"""Reduced and closed forms of the bundled one-vertex H-triangulations.

After gauge fixing and Fourier reduction, each bundled knot complex
factorizes as W = 2 |Phi_b(u(knot angle))|^2 * (remaining integral); the
expressions here evaluate those remaining integrals independently of the
state-integral pipeline, for use as golden references:

  - trefoil: the remaining factor is 1;
  - figure-eight (4_1): |int_{R-i d} Phi_b(-z)/Phi_b(z) dz|^2 at complete
    balancing;
  - 5_2: a genuinely 2D oscillatory reduced form that collapses to
    |int_{R-i d} e^{i pi y^2} / Phi_b(y)^3 dy|^2 at complete balancing;
  - 6_1: a 2D form whose two conjugate factors multiply to a positive
    number (the modulus-squared factorization).
"""
from __future__ import annotations

import numpy as np

from .params import ModularParameter
from .qdilog import LineCache, get_engine
from .quadrature import IntegralResult, QuadratureConfig, integrate_1d, integrate_nd

__all__ = ["ratio_integral_fig8", "triple_ratio_52", "tilde52_reduced2d",
           "knot61_reduced2d", "default_shift"]

_PI = np.pi


def default_shift(mp: ModularParameter, cfg: QuadratureConfig) -> float:
    """Contour drop for R - i0 prescriptions: cfg value or 0.1 |Im c_b|."""
    return cfg.contour_shift if cfg.contour_shift > 0 else 0.1 * abs(mp.cb)


def ratio_integral_fig8(mp: ModularParameter, cfg: QuadratureConfig) -> IntegralResult:
    """int_{R - i delta} Phi_b(-z)/Phi_b(z) dz (figure-eight reduced factor)."""
    eng = get_engine(mp.b, cfg.phib_tol)
    d = default_shift(mp, cfg)
    up = LineCache(eng, +d, 8.0)
    dn = LineCache(eng, -d, 8.0)

    def f(t):
        return np.exp(up(-t) - dn(t))

    return integrate_1d(f, cfg)


def triple_ratio_52(mp: ModularParameter, cfg: QuadratureConfig) -> IntegralResult:
    """int_{R - i delta} e^{i pi y^2} / Phi_b(y)^3 dy (5_2 reduced factor)."""
    eng = get_engine(mp.b, cfg.phib_tol)
    d = default_shift(mp, cfg)
    dn = LineCache(eng, -d, 8.0)

    def f(t):
        z = t - 1j * d
        return np.exp(1j * _PI * z**2 - 3.0 * dn(t))

    return integrate_1d(f, cfg)


def tilde52_reduced2d(beta1, gamma3, delta1, theta, mp: ModularParameter,
                      cfg: QuadratureConfig) -> IntegralResult:
    """The 5_2 renormalized partition function as a 2D integral.

    tilde W = int dx1 dx2  e^{-i pi (x1^2 - x2^2)} e^{-2 i c_b theta (x1+x2)}
              * Phi(u(beta1)+x1) Phi(u(gamma3)-x2) Phi(u(delta1)+x1)
              / [Phi(-u(beta1)+x2) Phi(-u(gamma3)-x1) Phi(-u(delta1)+x2)]

    with theta = beta2 - gamma2 + delta2 and gamma3 = pi - gamma1 - gamma2.
    At complete balancing (delta1 = gamma3 = beta1, theta = pi - beta1) it
    equals |triple_ratio_52|^2.
    """
    eng = get_engine(mp.b, cfg.phib_tol)
    ub = mp.u_of(beta1).imag
    ug = mp.u_of(gamma3).imag
    ud = mp.u_of(delta1).imag
    lines = {k: LineCache(eng, y, 10.0) for k, y in
             (("b+", ub), ("b-", -ub), ("g+", ug), ("g-", -ug), ("d+", ud), ("d-", -ud))}
    h = abs(mp.cb)

    def f(pts):
        x1, x2 = pts[:, 0], pts[:, 1]
        logv = (lines["b+"](x1) + lines["g+"](-x2) + lines["d+"](x1)
                - lines["b-"](x2) - lines["g-"](-x1) - lines["d-"](x2))
        return np.exp(logv - 1j * _PI * (x1**2 - x2**2) + 2.0 * h * theta * (x1 + x2))

    return integrate_nd(f, 2, cfg)


def knot61_reduced2d(beta2, gamma2, rho2, delta3, theta_x, theta_z,
                     mp: ModularParameter, cfg: QuadratureConfig,
                     partner: bool = False) -> IntegralResult:
    """One factor of the 6_1 renormalized partition function (2D integral).

    J  = int dx dz  Phi(u(beta2)+x) Phi(u(rho2)+z)
         / [Phi(-u(gamma2)-x) Phi(-u(delta3)+z-x)]
         * e^{-2 i c_b (theta_x x + theta_z z) + i pi z^2}

    with theta_x = beta1 - gamma1 - delta1 and theta_z = rho1 + delta1.
    `partner=True` evaluates the second factor of the modulus-squared
    factorization (its integrand, not the conjugated result); the product
    J * J_partner is the renormalized invariant and is real positive.
    """
    eng = get_engine(mp.b, cfg.phib_tol)
    yb = mp.u_of(beta2).imag
    yg = mp.u_of(gamma2).imag
    yr = mp.u_of(rho2).imag
    yd = mp.u_of(delta3).imag
    h = abs(mp.cb)
    if not partner:
        lb = LineCache(eng, yb, 10.0)
        lg = LineCache(eng, -yg, 10.0)
        lr = LineCache(eng, yr, 10.0)
        ld = LineCache(eng, -yd, 10.0)

        def f(pts):
            x, z = pts[:, 0], pts[:, 1]
            logv = lb(x) + lr(z) - lg(-x) - ld(z - x)
            return np.exp(logv + 2.0 * h * (theta_x * x + theta_z * z) + 1j * _PI * z**2)
    else:
        lb = LineCache(eng, -yb, 10.0)
        lg = LineCache(eng, yg, 10.0)
        lr = LineCache(eng, -yr, 10.0)
        ld = LineCache(eng, yd, 10.0)

        def f(pts):
            y, v = pts[:, 0], pts[:, 1]
            logv = lg(-y) + ld(v - y) - lb(y) - lr(v)
            return np.exp(logv + 2.0 * h * (theta_x * y + theta_z * v) - 1j * _PI * v**2)

    return integrate_nd(f, 2, cfg)
