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
from .quadrature import IntegralResult, QuadratureConfig, integrate_nd
from .special import line_integrand

__all__ = ["ratio_integral_fig8", "triple_ratio_52", "tilde52_reduced2d",
           "knot61_reduced2d"]

_PI = np.pi


def ratio_integral_fig8(mp: ModularParameter, cfg: QuadratureConfig,
                        shift: float | None = None) -> IntegralResult:
    """int_{R - i delta} Phi_b(-z)/Phi_b(z) dz (figure-eight reduced factor).

    The contour drop delta is shift, by default 0.1 |Im c_b|.
    """
    d = 0.1 * abs(mp.cb) if shift is None else shift

    def log_f(_g2, phi, v, _x):
        (t,) = v
        return phi(1j * d, -t) - phi(-1j * d, t)

    return integrate_nd(line_integrand(log_f, mp, cfg.phib_tol), 1, cfg)


def triple_ratio_52(mp: ModularParameter, cfg: QuadratureConfig,
                    shift: float | None = None) -> IntegralResult:
    """int_{R - i delta} e^{i pi y^2} / Phi_b(y)^3 dy (5_2 reduced factor).

    The contour drop delta is shift, by default 0.1 |Im c_b|.
    """
    d = 0.1 * abs(mp.cb) if shift is None else shift

    def log_f(_g2, phi, v, x):
        (t,), (xt,) = v, x
        return 1j * _PI * (xt - 1j * d) ** 2 - 3.0 * phi(-1j * d, t)

    return integrate_nd(line_integrand(log_f, mp, cfg.phib_tol), 1, cfg)


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
    ub = mp.u_of(beta1).imag
    ug = mp.u_of(gamma3).imag
    ud = mp.u_of(delta1).imag
    cb = abs(mp.cb)

    def log_f(_g2, phi, v, x):
        (v1, v2), (x1, x2) = v, x
        return (phi(1j * ub, v1) + phi(1j * ug, -v2) + phi(1j * ud, v1)
                - phi(-1j * ub, v2) - phi(-1j * ug, -v1) - phi(-1j * ud, v2)
                - 1j * _PI * (x1**2 - x2**2) + 2.0 * cb * theta * (x1 + x2))

    return integrate_nd(line_integrand(log_f, mp, cfg.phib_tol), 2, cfg)


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
    yb = mp.u_of(beta2).imag
    yg = mp.u_of(gamma2).imag
    yr = mp.u_of(rho2).imag
    yd = mp.u_of(delta3).imag
    cb = abs(mp.cb)
    if not partner:
        def log_f(_g2, phi, v, xz):
            (vx, vz), (x, z) = v, xz
            return (phi(1j * yb, vx) + phi(1j * yr, vz)
                    - phi(-1j * yg, -vx) - phi(-1j * yd, vz - vx)
                    + 2.0 * cb * (theta_x * x + theta_z * z) + 1j * _PI * z**2)
    else:
        def log_f(_g2, phi, v, yv):
            (vy, vv), (y, v_) = v, yv
            return (phi(1j * yg, -vy) + phi(1j * yd, vv - vy)
                    - phi(-1j * yb, vy) - phi(-1j * yr, vv)
                    + 2.0 * cb * (theta_x * y + theta_z * v_) - 1j * _PI * v_**2)

    return integrate_nd(line_integrand(log_f, mp, cfg.phib_tol), 2, cfg)
