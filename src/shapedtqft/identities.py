"""Numerical verification of the standalone integral identities.

Contours along the imaginary axis are parametrized as u = i t with t real,
under which the measure du/(i sqrt(omega1 omega2)) becomes plain dt (the
normalization fixes sqrt(omega1 omega2) = 1).  Every balanced integrand
then decays at the universal rate ~ 2 pi (omega1 + omega2) |t|, provided
the real parts of all gamma2 arguments stay inside (0, omega1 + omega2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from .errors import ConstraintViolation, QuadratureFailure
from .params import EllipticBases, ModularParameter
from .quadrature import QuadratureConfig, halving_estimate, integrate_nd
from .special import (LineTables, cap_psi, classical_beta, elliptic_gamma, hyperbolic_gamma,
                      line_integrand, theta_fn)

__all__ = [
    "BalancedParams33", "BalancedParams6", "check_hyperbolic_pentagon",
    "check_hyperbolic_beta_integral", "check_elliptic_beta_integral",
    "check_classical_pentagon", "check_orthogonality_smeared",
    "orthogonality_symbol_deviation", "check_octahedron_duality", "check_entropy_pentagon",
    "random_balanced_33", "random_balanced_6", "random_elliptic_params", "random_entropy_tuple",
]

_PI = np.pi
_SMEAR_RE_EPS = 0.02   # real part detaching the smeared kernel's contour from its poles


def _require_window(mp, *values):
    q = mp.q_total
    for v in values:
        if not (1e-6 < complex(v).real < q - 1e-6):
            raise ConstraintViolation(
                f"gamma2 argument offset {v} has real part outside (0, {q})")


def _log_gamma2(mp, tol, *cs):
    """log gamma2 at the constant offsets cs, from one hyperbolic_gamma call.

    Where every c is a real point of the window (0, Q), gamma2 is real and
    positive there, and this is the real log |gamma2|: a line integrand
    whose log_const it forms stays conjugation-even.  Otherwise it is the
    complex log.
    """
    cs = np.array(cs, dtype=complex)
    g = hyperbolic_gamma(cs, mp, tol)
    real = (cs.imag == 0).all() and ((cs.real > 0) & (cs.real < mp.q_total)).all()
    return np.log(np.abs(g)) if real else np.log(g)


def _require_balanced(mp, values, balance_tol):
    """Refuse parameters whose sum misses omega1 + omega2 by more than
    balance_tol * max(1, Q), or whose real parts leave the window (0, Q)."""
    total = sum(values)
    if abs(total - mp.q_total) > balance_tol * max(1.0, mp.q_total):
        raise ConstraintViolation(f"balancing sum {total} != {mp.q_total}")
    _require_window(mp, *values)


@dataclass(frozen=True)
class BalancedParams33:
    """Three (a_i, b_i) pairs with sum(a_i + b_i) = omega1 + omega2."""
    a: tuple
    b: tuple

    def validate(self, mp: ModularParameter):
        if len(self.a) != 3 or len(self.b) != 3:
            raise ConstraintViolation("need three a and three b parameters")
        _require_balanced(mp, (*self.a, *self.b), 1e-14)


@dataclass(frozen=True)
class BalancedParams6:
    """Six parameters with sum = omega1 + omega2."""
    alphas: tuple

    def validate(self, mp: ModularParameter, balance_tol: float = 1e-14):
        if len(self.alphas) != 6:
            raise ConstraintViolation("need six parameters")
        _require_balanced(mp, self.alphas, balance_tol)


def random_balanced_33(rng, mp, imag_scale=0.0):
    """Random admissible pentagon parameters (Dirichlet split of the total)."""
    parts = rng.dirichlet(np.ones(6)) * mp.q_total
    parts = 0.7 * parts + 0.3 * mp.q_total / 6.0  # keep away from the window edges
    vals = parts.astype(complex)
    if imag_scale:
        im = rng.uniform(-imag_scale, imag_scale, 6)
        im -= im.mean()
        vals = vals + 1j * im
    return BalancedParams33(tuple(vals[:3]), tuple(vals[3:]))


def random_balanced_6(rng, mp):
    parts = rng.dirichlet(np.ones(6)) * mp.q_total
    parts = 0.7 * parts + 0.3 * mp.q_total / 6.0
    return BalancedParams6(tuple(parts.astype(complex)))


def random_elliptic_params(rng, bases: EllipticBases):
    """Six elliptic beta parameters with prod s_i = p q and each |s_i| away
    from 1: moduli |pq|^{w_i}, w = 0.7 Dirichlet(1^6) + 0.05, so that
    |pq|^{3/4} <= |s_i| <= |pq|^{1/20}, and phases that sum to arg(p q)."""
    pq = complex(bases.p) * complex(bases.q)
    w = 0.7 * rng.dirichlet(np.ones(6)) + 0.05
    phases = rng.uniform(0, 2 * _PI, 6)
    phases[5] = np.angle(pq) - phases[:5].sum()
    return abs(pq) ** w * np.exp(1j * phases)


def check_hyperbolic_pentagon(p: BalancedParams33, mp: ModularParameter,
                              cfg: QuadratureConfig) -> float:
    """Relative residual of the five-term B-kernel identity.

    Its constants, the three gamma2(a_i + b_i) of the denominator and the
    right side B(x1, y1) B(x2, y2), take one hyperbolic_gamma call.  With
    real parameters every constant is real and the integrand
    conjugation-even.
    """
    p.validate(mp)
    x1, y1 = p.a[1] + p.b[0], p.a[2] + p.b[1]
    x2, y2 = p.a[0] + p.b[1], p.a[2] + p.b[0]
    logs = _log_gamma2(mp, cfg.phib_tol, *np.add(p.a, p.b), x1, y1, x1 + y1, x2, y2, x2 + y2)
    factors = [f for a, b in zip(p.a, p.b) for f in (("g2", a, -1, 1), ("g2", b, 1, 1))]
    f = line_integrand(factors, mp, cfg.phib_tol, log_const=-logs[:3].sum())
    lhs = integrate_nd(f, 1, cfg).value
    rhs = complex(np.exp(logs[3] + logs[4] - logs[5] + logs[6] + logs[7] - logs[8]))
    return abs(lhs - rhs) / abs(rhs)


def check_hyperbolic_beta_integral(p: BalancedParams6, mp: ModularParameter,
                                   cfg: QuadratureConfig,
                                   balance_tol: float = 1e-14) -> float:
    """Relative residual of the six-parameter hyperbolic beta integral."""
    p.validate(mp, balance_tol)

    def log_measure(x):
        # the measure 1/(gamma2(2it) gamma2(-2it)) = 4 sinh(2 pi b t) sinh(2 pi t/b),
        # in log space; its double zero at t = 0 makes the integrand exactly 0 there
        a = 2 * _PI * np.abs(x[0])
        with np.errstate(divide="ignore"):
            return (mp.q_total * a + np.log1p(-np.exp(-2 * mp.b * a))
                    + np.log1p(-np.exp(-2 * a / mp.b)))

    factors = [f for al in p.alphas for f in (("g2", al, 1, 1), ("g2", al, -1, 1))]
    f = line_integrand(factors, mp, cfg.phib_tol, log_extra=log_measure)
    lhs = 0.5 * integrate_nd(f, 1, cfg).value
    rhs = 1.0 + 0.0j
    for i in range(6):
        for j in range(i + 1, 6):
            rhs *= complex(hyperbolic_gamma(p.alphas[i] + p.alphas[j], mp, cfg.phib_tol))
    return abs(lhs - rhs) / abs(rhs)


def check_elliptic_beta_integral(s_params, bases: EllipticBases, tol: float = 1e-13,
                                 require_balanced: bool = True) -> float:
    """Relative residual of the elliptic beta integral on the unit circle.

    The measure 1/(Gamma(z^2) Gamma(z^-2)) is written as
    theta(z^2; p) theta(z^-2; q), so the integrand is finite (zero) at
    z = +-1 and the trapezoid nodes z = exp(2 pi i k/n) nest: each doubling
    of n, from 64, evaluates only the new nodes.  It stops when the shared
    halving_estimate is at most tol * max(1, |value|), and raises
    QuadratureFailure when that needs more than 16384 nodes.
    """
    s = np.asarray(s_params, dtype=complex)
    if len(s) != 6 or (np.abs(s) >= 1.0).any():
        raise ConstraintViolation("need six parameters with |s_i| < 1")
    p, q = complex(bases.p), complex(bases.q)
    if require_balanced and abs(np.prod(s) - p * q) > 1e-12:
        raise ConstraintViolation("balancing prod(s) = p q violated")

    def kappa():
        n = max(int(np.ceil(np.log(tol) / np.log(max(abs(p), abs(q), 1e-12)))) + 2, 8)
        pp = np.prod(1.0 - p ** np.arange(1, n))
        qq = np.prod(1.0 - q ** np.arange(1, n))
        return pp * qq / 2.0

    def node_sum(k, n):
        z = np.exp(2j * _PI * k / n)
        vals = theta_fn(z**2, p, tol) * theta_fn(z**-2, q, tol)
        for si in s:
            vals = vals * elliptic_gamma(si * z, bases, tol) * elliptic_gamma(si / z, bases, tol)
        return complex(np.sum(vals))

    n = 64
    total = node_sum(np.arange(n), n)
    value, diff, est = total / n, None, np.inf
    while est > tol * max(1.0, abs(value)):
        if n >= 16384:
            raise QuadratureFailure(f"elliptic beta integral needs more than 16384 nodes; "
                                    f"halving estimate {est:.3g} above tolerance")
        total += node_sum(np.arange(1, 2 * n, 2), 2 * n)  # dz/(2 pi i z) = dtheta/(2 pi)
        n *= 2
        prev, value = value, total / n
        prev_diff, diff = diff, abs(value - prev)
        est = halving_estimate(diff, prev_diff)
    lhs = kappa() * value
    rhs = 1.0 + 0.0j
    for i in range(6):
        for j in range(i + 1, 6):
            rhs *= complex(elliptic_gamma(s[i] * s[j], bases, tol))
    return abs(lhs - rhs) / abs(rhs)


def check_classical_pentagon(a1, a2, a3, b1, b2, cfg: QuadratureConfig) -> float:
    """Relative residual of the Euler-beta pentagon (contour i R, measure dt/2pi)."""
    c = a1 + a2 + b1 + b2
    for v in (a1, a2, a3, b1, b2):
        if complex(v).real <= 0:
            raise ConstraintViolation("real parts must be positive for convergence")

    def f(p):
        u = 1j * p[:, 0]
        return (classical_beta(a1 + u, b1 - u) * classical_beta(a2 + u, b2 - u)
                * classical_beta(a3 + u, c)) / (2 * _PI)

    lhs = integrate_nd(f, 1, cfg).value
    rhs = complex(classical_beta(a2 + b1, a3 + b2) * classical_beta(a1 + b2, a3 + b1))
    return abs(lhs - rhs) / abs(rhs)


def orthogonality_symbol_deviation(a_im: float, mp: ModularParameter,
                                   cfg: QuadratureConfig) -> float:
    """Residual of the delta normalization of the shift-form B-kernel
    orthogonality, in Fourier space.

    With a = i a_im, f(u) = gamma2(a - iu) gamma2(a + iu) and g its
    reflection at -a, the closed-form transforms multiply to the CONSTANT
    symbol fhat(-w) ghat(w) = gamma2(2a) gamma2(-2a), which is exactly the
    delta with unit coefficient after the B normalization.  Returns the
    largest relative deviation from that constant on a w-grid.
    """
    a = 1j * a_im  # the symbol check is exact at purely imaginary a
    cb = mp.cb
    ws = np.linspace(-2.0, 2.0, 9)
    sym = np.array([complex(cap_psi(-1j * a + cb, 1j * a - cb, w + 1j * a - cb, mp)
                            * cap_psi(1j * a + cb, -1j * a - cb, -w - 1j * a - cb, mp))
                    for w in ws])
    norm = complex(hyperbolic_gamma(2 * a, mp, cfg.phib_tol)
                   * hyperbolic_gamma(-2 * a, mp, cfg.phib_tol))
    return float(np.abs(sym / norm - 1.0).max())


def check_orthogonality_smeared(a_im: float, center: float, sigma: float,
                                mp: ModularParameter, cfg: QuadratureConfig):
    """Delta-normalization check of the shift-form B-kernel orthogonality

        int_R B(a - iu, a + iu) B(-a - i(u+b), -a + i(u+b)) du  ->  delta(b).

    The sharp statement lives in Fourier space: `symbol_deviation` is
    orthogonality_symbol_deviation(a_im), the quantitative residual.

    The real-space Gaussian smear of the straight-contour kernel (poles
    detached by Re a = 0.02, a = 0.02 + i a_im) is also reported: it contains the delta plus a
    regularization background concentrated near b = 0, so the trend
    |smeared| growing as sigma shrinks and the far-center smear staying
    small are the qualitative delta signatures.  The smear is one integral
    over all of R^2 in (u, b), with no window cut around the center: its
    integrand is four gamma2 line factors, which the 2D trapezoid reads
    from exact LineTables, times the Gaussian in b.
    """
    symbol_dev = orthogonality_symbol_deviation(a_im, mp, cfg)
    a = _SMEAR_RE_EPS + 1j * a_im
    log_dens = _log_gamma2(mp, cfg.phib_tol, 2 * a, -2 * a).sum()
    log_norm = np.log(sigma * np.sqrt(2 * _PI))
    # gamma2(a -+ iu) gamma2(-a -+ i(u + b)), over (u, b)
    factors = [("g2", a, (-1, 0), 1), ("g2", a, (1, 0), 1),
               ("g2", -a, (-1, -1), 1), ("g2", -a, (1, 1), 1)]
    f = line_integrand(factors, mp, cfg.phib_tol, log_const=-log_dens - log_norm,
                       log_extra=lambda x: -(x[1] - center)**2 / (2 * sigma**2))
    smeared = integrate_nd(f, 2, cfg).value
    prediction = np.exp(-center**2 / (2 * sigma**2) - log_norm)  # unit delta at b = 0
    dev = abs(smeared - prediction) / max(abs(prediction), abs(smeared), 1e-300)
    return {"smeared": smeared, "prediction": prediction,
            "rel_deviation": float(dev), "symbol_deviation": symbol_dev,
            "sigma": sigma}


def check_octahedron_duality(alpha_params, beta_params, t, s, u, w,
                             mp: ModularParameter, cfg: QuadratureConfig,
                             balance_tol: float = 1e-12,
                             skew: float = 0.0) -> float:
    """Four-tetrahedron vs five-tetrahedron octahedron partition functions.

    Z4 is the composed kernel as a single integral (four B-factors, 1D);
    Z5 re-expands the seed transform into a 2D integral over (x, y) (five
    B-factors), taken in one call to the 2D trapezoid.  Equality is the
    pentagon identity acting inside the composition.  All gamma factors run
    along fixed horizontal lines, and both sides read them from one set of
    exact LineTables on the trapezoid lattice (1D for Z4, 2D for Z5), so the
    factors they share are filled once.  Each side takes its constant
    factors in one hyperbolic_gamma call; at real parameters every offset
    and constant is real, so both integrands are conjugation-even and read
    the half lattice.

    `skew` shifts the kernel parameter on the Z4 side only (negative
    control: a nonzero skew must produce a macroscopic residual).  Note the
    equality itself transforms covariantly under a common change of t, so
    perturbing the seed balancing alone does not break it.
    """
    al = tuple(complex(v) for v in alpha_params)
    be = tuple(complex(v) for v in beta_params)
    t, s, u, w = complex(t), complex(s), complex(u), complex(w)
    total = 2 * t + sum(al) + sum(be)
    if abs(total - mp.q_total) > balance_tol:
        raise ConstraintViolation(f"Bailey balancing 2t + sum = {total} != {mp.q_total}")
    # straight-contour validity: every gamma2 slot needs Re in (0, Q)
    q = mp.q_total
    _require_window(mp, *al, *be, t, s, u, s + t + w, s + t - w, t + u, 2 * s,
                    t + u + 2 * s, s + w, s - w, q - 2 * s - 2 * t - u,
                    s + 2 * t + u + w, 2 * t)
    tables = LineTables(mp, cfg.phib_tol)
    z4 = _octahedron_z4(al, be, t, s, u, w, mp, cfg, skew, tables)
    z5 = _octahedron_z5(al, be, t, s, u, w, mp, cfg, tables)
    return abs(z4 - z5) / max(abs(z4), abs(z5))


def _octahedron_z4(al, be, t, s, u, w, mp, cfg, skew, tables=None):
    """Z4 as one 1D trapezoid over x = i xs."""
    ptol = cfg.phib_tol
    st = s + t + skew
    logs = _log_gamma2(mp, ptol, 2 * s, 2 * st, al[0] + be[0], al[1] + be[1])
    log_c4 = logs[0] - logs[1:].sum()

    # B(st+w-x, st-w+x) B(t+u+x, 2s) prod_i B(al_i - x, be_i + x), x = i xs
    factors = [("g2", st + w, -1, 1), ("g2", st - w, 1, 1), ("g2", t + u, 1, 1),
               ("g2", t + u + 2 * s, 1, -1)]
    factors += [f for a, b in zip(al, be) for f in (("g2", a, -1, 1), ("g2", b, 1, 1))]
    return integrate_nd(line_integrand(factors, mp, ptol, tables, log_const=log_c4),
                        1, cfg).value


def _octahedron_z5(al, be, t, s, u, w, mp, cfg, tables=None):
    """Z5 as one 2D trapezoid over (x, y) = (i xs, i ys)."""
    ptol = cfg.phib_tol
    logs = _log_gamma2(mp, ptol, s + 2 * t + u + w, s + w + u, 2 * t, al[0] + be[0], al[1] + be[1])
    log_c5 = logs[0] - logs[1:].sum()

    # B(s+w-x, u+x) B(s+2t+u+w, s-w+x) B(t+x-y, t-x+y) prod_i B(al_i - y, be_i + y)
    factors = [("g2", s + w, (-1, 0), 1), ("g2", u, (1, 0), 1), ("g2", s - w, (1, 0), 1),
               ("g2", 2 * s + 2 * t + u, (1, 0), -1), ("g2", t, (1, -1), 1),
               ("g2", t, (-1, 1), 1)]
    factors += [f for a, b in zip(al, be) for f in (("g2", a, (0, -1), 1), ("g2", b, (0, 1), 1))]
    return integrate_nd(line_integrand(factors, mp, ptol, tables, log_const=log_c5),
                        2, cfg).value


# -- entropy pentagon -----------------------------------------------------------

def check_entropy_pentagon(a1, a2, b1, b2, b3, tol: float = 1e-9) -> float:
    """Residual of the quadrature-free entropy identity.

    For positive (a_1, a_2, b_1, b_2, b_3) with sum = 1 and a1 a2 = b1 b2 b3:

        sum_{i,j} (a_i + b_j) log(a_i + b_j)
            = sum_i a_i log a_i + sum_j [ b_j log b_j + (1-b_j) log(1-b_j) ].

    (The saddle-point limit of the beta-function pentagon; the complement
    terms attach to the three-element group.)
    """
    vals = np.array([a1, a2, b1, b2, b3], dtype=float)
    if (vals <= 0).any():
        raise ConstraintViolation("all five parameters must be positive")
    if abs(vals.sum() - 1.0) > tol:
        raise ConstraintViolation(f"sum = {vals.sum()} != 1")
    if abs(a1 * a2 - b1 * b2 * b3) > tol:
        raise ConstraintViolation(f"product constraint a1 a2 = {a1*a2} != b1 b2 b3 = {b1*b2*b3}")
    aa = vals[:2]
    bb = vals[2:]
    lhs = sum((ai + bj) * np.log(ai + bj) for ai in aa for bj in bb)
    rhs = (np.sum(aa * np.log(aa))
           + np.sum(bb * np.log(bb) + (1.0 - bb) * np.log(1.0 - bb)))
    return float(abs(lhs - rhs))


def random_octahedron_params(rng, mp):
    """Sample (alpha, beta, t, s, u, w) inside the straight-contour window."""
    q = mp.q_total
    al = rng.uniform(0.12, 0.20, 2) * q
    be = rng.uniform(0.12, 0.20, 2) * q
    t = (q - al.sum() - be.sum()) / 2.0
    s = rng.uniform(0.08, 0.14) * q
    u = rng.uniform(0.05, 0.12) * q
    w = rng.uniform(0.02, 0.06) * q
    return al, be, t, s, u, w


def random_entropy_tuple(rng):
    """Random positive tuple satisfying both entropy-pentagon constraints."""
    while True:
        a1, a2, b1 = rng.uniform(0.02, 0.45, 3)
        ssum = 1.0 - a1 - a2 - b1
        prod = a1 * a2 / b1
        if ssum <= 0:
            continue
        disc = ssum * ssum - 4.0 * prod
        if disc <= 1e-12:
            continue
        b2 = 0.5 * (ssum + np.sqrt(disc))
        b3 = 0.5 * (ssum - np.sqrt(disc))
        if b2 > 1e-4 and b3 > 1e-4:
            return a1, a2, b1, b2, b3


def solve_symmetric_entropy_tuple(a: float, split: float = 1.0 / 3.0):
    """Given a1 = a2 = a, solve (b1, b2, b3) from the two constraints.

    b1 = split*(1 - 2a); b2, b3 are the roots of the remaining quadratic.
    Raises ConstraintViolation when no positive solution exists.
    """
    if not 0 < a < 0.5:
        raise ConstraintViolation("need 0 < a < 1/2")
    b1 = split * (1.0 - 2.0 * a)
    ssum = 1.0 - 2.0 * a - b1
    prod = a * a / b1
    disc = ssum * ssum - 4.0 * prod
    if disc < 0:
        raise ConstraintViolation(f"no positive solution at a={a}, split={split}")
    b2 = 0.5 * (ssum + np.sqrt(disc))
    b3 = 0.5 * (ssum - np.sqrt(disc))
    if b3 <= 0:
        raise ConstraintViolation("degenerate split")
    return a, a, b1, b2, b3
