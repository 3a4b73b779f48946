"""Special functions: hyperbolic gamma, B-kernel, Fourier kernels, elliptic gamma,
theta, classical beta, and the Lobachevsky volume function.

For real coupling the hyperbolic gamma is evaluated exclusively through the
quantum dilogarithm via

    gamma2(-i nabla (x + c_b); omega1, omega2) = e^{i pi x^2 / 2} / (sqrt(zeta_inv) Phi_b(x)),

inverted as x = i u / nabla - c_b (the |q| = 1 divergence kills the product
form there).  The product form is kept for genuinely complex period ratios
and for cross validation.  sqrt(zeta_inv) is the principal branch; it is
pinned against the direct contour integral by the test suite.
"""
from __future__ import annotations

import numpy as np
from scipy.special import loggamma, zeta as riemann_zeta

from .errors import NonConvergence, PoleHit
from .params import EllipticBases, ModularParameter
from .qdilog import get_engine
from .quadrature import IntegralResult, QuadratureConfig, integrate_1d

__all__ = [
    "hyperbolic_gamma", "hyperbolic_gamma_product", "bernoulli_b22", "hyper_B",
    "cap_psi", "psi_fn", "cap_psi_direct", "elliptic_gamma", "theta_fn",
    "classical_beta", "lobachevsky", "phi_b_asymptotic_tail",
    "LineTables", "line_integrand",
]

_PI = np.pi


def bernoulli_b22(u, omega1=None, omega2=None, mp: ModularParameter | None = None):
    """Second-order double Bernoulli polynomial B_{2,2}(u; omega1, omega2)."""
    if mp is not None:
        omega1, omega2 = mp.omega1, mp.omega2
    u = np.asarray(u, dtype=complex)
    return (u**2 / (omega1 * omega2) - u / omega1 - u / omega2
            + omega1 / (6.0 * omega2) + omega2 / (6.0 * omega1) + 0.5)


def hyperbolic_gamma(u, mp: ModularParameter, tol: float = 1e-13):
    """gamma2(u; b, 1/b) for positive real coupling, scalar or array u."""
    u = np.asarray(u, dtype=complex)
    x = 1j * u - mp.cb
    eng = get_engine(mp.b, tol)
    sqrt_zeta = np.sqrt(mp.zeta_inv)  # principal branch
    return np.exp(0.5j * _PI * x**2) / (sqrt_zeta * eng(x))


def hyperbolic_gamma_general(u, omega1, omega2, tol: float = 1e-13):
    """gamma2(u; omega1, omega2) for arbitrary periods.

    Positive real ratios rescale (degree-zero homogeneity) onto the
    quantum-dilogarithm route; ratios with positive imaginary part use the
    double q-product.
    """
    ratio = complex(omega1) / complex(omega2)
    if abs(ratio.imag) < 1e-14 and ratio.real > 0:
        scale = np.sqrt(complex(omega1) * complex(omega2))
        mp = ModularParameter(float(np.sqrt(ratio.real)))
        return hyperbolic_gamma(np.asarray(u, dtype=complex) / scale, mp, tol)
    return hyperbolic_gamma_product(u, complex(omega1), complex(omega2), tol)


def hyperbolic_gamma_product(u, omega1: complex, omega2: complex, tol: float = 1e-14,
                             max_terms: int = 40000):
    """gamma2 via the double q-product; needs Im(omega1/omega2) > 0.

    Used only for non-real period ratios and in cross-validation tests.
    """
    ratio = omega1 / omega2
    if ratio.imag <= 0:
        raise NonConvergence("product form requires Im(omega1/omega2) > 0; "
                             "use the Phi_b route for real ratios")
    q = np.exp(2j * _PI * omega1 / omega2)
    qt = np.exp(-2j * _PI * omega2 / omega1)
    if abs(q) >= 1.0 or abs(qt) >= 1.0:
        raise NonConvergence("|q| or |q~| >= 1")
    u = np.asarray(u, dtype=complex)

    def pochhammer(a, base):
        n = int(np.ceil(np.log(tol * (1 - abs(base))) / np.log(abs(base)))) + 2
        if n > max_terms:
            raise NonConvergence(f"q-product needs {n} terms (> {max_terms})")
        ks = np.arange(n)
        terms = 1.0 - np.multiply.outer(a, base**ks)
        if (np.abs(terms) < 1e-300).any():
            raise PoleHit("q-product hit a vanishing factor")
        return np.exp(np.sum(np.log(terms), axis=-1))

    num = pochhammer(np.exp(2j * _PI * u / omega1) * qt, qt)
    den = pochhammer(np.exp(2j * _PI * u / omega2), q)
    return np.exp(-0.5j * _PI * bernoulli_b22(u, omega1, omega2)) * num / den


def hyper_B(x, y, mp: ModularParameter, tol: float = 1e-13):
    """B(x, y) = gamma2(x) gamma2(y) / gamma2(x + y)."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return (hyperbolic_gamma(x, mp, tol) * hyperbolic_gamma(y, mp, tol)
            / hyperbolic_gamma(x + y, mp, tol))


def gamma2_line(c: complex, mp: ModularParameter, tol: float = 1e-13, radius: float = 8.0):
    """Evaluator of w -> log gamma2(c + i w) for real w (fixed offset c).

    The underlying dilogarithm argument runs along a horizontal line, whose
    LineCache gives log Phi_b at interpolation speed; the Gaussian prefactor
    is added in log space.  The cache covers |w| <= radius (plus |Im c|) and
    grows on demand.  The package's one caller is the Boltzmann weight off
    the trapezoid lattice (the dim-4 tensor grid and Monte Carlo), which
    sums the logs of its rows and takes one exp per state.  Integrands on
    the lattice, the 1D identities among them, read exact LineTables.
    """
    from .qdilog import LineCache
    z0 = _phi_argument(c, mp)
    cache = LineCache(get_engine(mp.b, tol), z0.imag, radius + abs(z0.real))

    def log_ev(w):
        z = z0 - np.asarray(w, dtype=float)
        return _log_gamma2_from_phi(z, cache(z.real), mp)

    return log_ev


def _phi_argument(c, mp: ModularParameter) -> complex:
    """z0 = i c - c_b: gamma2(c + i w) is the Phi_b factor at z = z0 - w."""
    return 1j * complex(c) - mp.cb


def _log_gamma2_from_phi(z, log_phi, mp: ModularParameter):
    """log gamma2 from log Phi_b(z) at its argument z (see _phi_argument):
    gamma2 = e^{i pi z^2 / 2} / (sqrt(zeta_inv) Phi_b(z))."""
    return 0.5j * _PI * z**2 - np.log(np.sqrt(mp.zeta_inv)) - log_phi


class LineTables:
    """Exact line factors on a trapezoid lattice: one log Phi_b table per (line, step h).

    A trapezoid node is k h with k an integer vector, and each line factor of
    a state-integral integrand moves by an integer combination of k.  So a
    Phi_b factor is only needed at z0 + m h, m an integer, and a gamma2
    factor at c + i m h, which is the Phi_b factor at z0 - m h with
    z0 = i c - c_b: phi(z0, h, m) and gamma2(c, h, m) return those logs.
    A table holds log Phi_b on one contiguous range of m, filled by
    FaddeevDilog.line: no spline, and no pointwise pole check, but a line
    through the zero/pole lattice raises PoleHit.  A call that reaches past
    the range extends it at the end it passes, and no table is ever
    rebuilt, so an entry once computed never changes.  The range is the
    span of the m asked for, which the quadrature box bounds.  A table at
    step h whose step-parent (same z0, step 2h) exists, as each halving of
    the trapezoid finds, takes its even m from the parent (extending it if
    need be) and fills only its odd m, so each Phi_b entry is computed once.
    """

    def __init__(self, mp: ModularParameter, tol: float = 1e-13):
        self.mp = mp
        self.eng = get_engine(mp.b, tol)
        self._tables = {}   # (z0, h) -> [first m, log Phi_b values]

    def gamma2(self, c, h, m):
        """log gamma2(c + i m h) for an integer array m."""
        m = np.asarray(m, dtype=np.intp)
        if not m.size:
            return np.zeros(m.shape, dtype=complex)
        # map Phi_b to gamma2 once per m in the range, not once per point
        z0, span = _phi_argument(c, self.mp), np.arange(m.min(), m.max() + 1)
        vals = _log_gamma2_from_phi(z0 - h * span, self.phi(z0, -h, span), self.mp)
        return vals[m - span[0]]

    def phi(self, z0, h, m):
        """log Phi_b(z0 + m h) for an integer array m (h of either sign)."""
        key = (complex(z0), float(h))
        m = np.asarray(m, dtype=np.intp)
        if not m.size:
            return np.zeros(m.shape, dtype=complex)
        lo, hi = int(m.min()), int(m.max())
        entry = self._tables.get(key)
        if entry is None:
            entry = self._tables[key] = [lo, self._fill(key, lo, hi + 1 - lo)]
        first, vals = entry
        if lo < first:
            vals = np.concatenate([self._fill(key, lo, first - lo), vals])
            first = lo
        end = first + len(vals)
        if hi >= end:
            vals = np.concatenate([vals, self._fill(key, end, hi + 1 - end)])
        entry[:] = first, vals
        return vals[m - first]

    def _fill(self, key, lo, n):
        """log Phi_b(z0 + m h) at m = lo .. lo + n - 1."""
        z0, h = key
        if abs(abs(z0.imag) - self.eng.cb_abs) < 1e-9:
            raise PoleHit(f"line Im z = {z0.imag} runs through the zero/pole lattice")
        if (z0, 2.0 * h) not in self._tables:
            return self._line(z0, h, lo, n, 1)
        m = lo + np.arange(n)
        odd = m % 2 == 1
        out = np.empty(n, dtype=complex)
        out[~odd] = self.phi(z0, 2.0 * h, m[~odd] // 2)
        if odd.any():   # a grid of step 2h through the odd m
            out[odd] = self._line(z0, h, int(m[odd][0]), int(odd.sum()), 2)
        return out

    def _line(self, z0, h, lo, n, stride):
        """log Phi_b(z0 + m h) at m = lo, lo + stride, ..., n entries, by one
        FaddeevDilog.line call."""
        x = z0.real + h * (lo + stride * np.arange(n))
        logs = self.eng.line(float(x.min()), abs(h) * stride, n, z0.imag)
        return logs if h > 0 else logs[::-1]    # FaddeevDilog.line runs left to right


def line_integrand(log_body, mp: ModularParameter, tol: float = 1e-13,
                   tables: LineTables | None = None):
    """nD integrand exp(log_body(g2, phi, v, x)) with a lattice form on LineTables.

    v and x hold one row per variable.  log_body sums the logs of its line
    factors, g2(c, a) = log gamma2(c + i a h) and phi(z0, a) =
    log Phi_b(z0 + a h), each at an integer combination a of the rows of v,
    and may add terms in the coordinates x themselves.  f(x) for points x of
    shape (N, dim) runs on the direct engine (v = x, h = 1); f.lattice(k, h),
    which the trapezoid and the box probes call at the nodes k h, reads the
    exact tables (v = k, x = k h).  Integrands that share line factors may
    share tables (built for the same mp and tol), so each entry is filled once.
    """
    eng = get_engine(mp.b, tol)
    if tables is None:
        tables = LineTables(mp, tol)

    def f(x):
        x = np.asarray(x, dtype=float).T
        return np.exp(log_body(lambda c, w: np.log(hyperbolic_gamma(c + 1j * w, mp, tol)),
                               lambda z0, w: np.log(eng(z0 + w)), x, x))

    def lattice(k, h):
        return np.exp(log_body(lambda c, m: tables.gamma2(c, h, m),
                               lambda z0, m: tables.phi(z0, h, m), k.T, h * k.T))

    f.lattice = lattice
    return f


def cap_psi(u, v, w, mp: ModularParameter, tol: float = 1e-13):
    """Closed form of the Fourier kernel int_R Phi_b(u+x)/Phi_b(v+x) e^{2 pi i w x} dx."""
    eng = get_engine(mp.b, tol)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    val = (mp.zeta_o * eng(u - v - mp.cb) * eng(w + mp.cb) / eng(u - v + w - mp.cb)
           * np.exp(-2j * _PI * w * (v + mp.cb)))
    return val


def psi_fn(x, y, mp: ModularParameter, tol: float = 1e-13):
    """psi(x, y) = cap_psi(x, -x, y)."""
    x = np.asarray(x, dtype=complex)
    return cap_psi(x, -x, y, mp, tol)


def phi_b_asymptotic_tail(w, a_cut):
    """Regularized left tail int_{-inf}^{-A} e^{2 pi i w x} dx = e^{-2 pi i w A}/(2 pi i w)."""
    return np.exp(-2j * _PI * w * a_cut) / (2j * _PI * w)


def cap_psi_direct(u, v, w, mp: ModularParameter, cfg: QuadratureConfig) -> IntegralResult:
    """Direct quadrature of the defining Fourier integral (oracle for cap_psi).

    Needs Im(u - v) > 0 so the ratio decays on the right; on the left the
    ratio tends to 1 and the pure-oscillation tail is summed in closed
    (Abel-regularized) form.  w must have nonzero real part if real.
    """
    u, v, w = complex(u), complex(v), complex(w)
    if (u - v).imag <= 0:
        raise NonConvergence("direct kernel integral needs Im(u - v) > 0")
    if w == 0:
        raise NonConvergence("w = 0 has no regularized tail")
    eng = get_engine(mp.b, cfg.phib_tol)
    step = min(mp.b, 1.0 / mp.b)
    # left cut where |Phi(u+x)/Phi(v+x) - 1| < tol; right cut from the decay rate
    a_cut = (np.log(1.0 / cfg.abs_tol) + 4.0) / (2 * _PI * step) + max(abs(u), abs(v))
    b_cut = (np.log(1.0 / cfg.abs_tol) + 4.0) / (2 * _PI * (u - v).imag) + max(abs(u), abs(v))

    def f(t):
        return eng(u + t) / eng(v + t) * np.exp(2j * _PI * w * t)

    core = integrate_1d(f, cfg, interval=(-a_cut, b_cut))
    tail = phi_b_asymptotic_tail(w, a_cut)
    return IntegralResult(core.value + tail, core.error_estimate, core.evaluations, "adaptive")


def elliptic_gamma(z, bases: EllipticBases, tol: float = 1e-14):
    """Elliptic gamma: prod_{i,j>=0} (1 - p^{i+1} q^{j+1}/z) / (1 - z p^i q^j)."""
    p, q = complex(bases.p), complex(bases.q)
    if abs(p) >= 1.0 or abs(q) >= 1.0:
        raise NonConvergence("elliptic gamma needs |p|, |q| < 1")
    z = np.asarray(z, dtype=complex)
    m = max(abs(p), abs(q))
    zmax = max(float(np.abs(z).max()), float(np.abs(1.0 / z).max()) * abs(p * q), 1.0)
    # tail bound: sum_{i+j>N} zmax m^{i+j} <= zmax (N+2) m^{N+1} / (1-m)^2
    n = 2
    while zmax * (n + 2) * m ** (n + 1) / (1 - m) ** 2 > tol:
        n += 1
        if n > 4000:
            raise NonConvergence("elliptic product truncation did not close")
    ii, jj = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = (ii + jj) <= n
    pq_num = (p ** (ii[keep] + 1)) * (q ** (jj[keep] + 1))
    pq_den = (p ** ii[keep]) * (q ** jj[keep])
    num_args = -np.multiply.outer(1.0 / z, pq_num)
    den_args = -np.multiply.outer(z, pq_den)
    if (np.abs(1.0 + den_args) < 1e-12).any():
        raise PoleHit("z within tolerance of an elliptic gamma pole p^{-i} q^{-j}")
    return np.prod(1.0 + num_args, axis=-1) / np.prod(1.0 + den_args, axis=-1)


def theta_fn(z, p: complex, tol: float = 1e-14):
    """theta(z; p) = (z; p)_inf (p/z; p)_inf; exactly 0 at the zeros z = 1 and z = p."""
    p = complex(p)
    if abs(p) >= 1.0:
        raise NonConvergence("theta needs |p| < 1")
    z = np.asarray(z, dtype=complex)
    n = max(int(np.ceil(np.log(tol * (1 - abs(p))) / np.log(abs(p)))) + 2, 4)
    ks = p ** np.arange(n)
    return np.prod(1.0 - np.multiply.outer(z, ks), axis=-1) * np.prod(
        1.0 - np.multiply.outer(p / z, ks), axis=-1)


def classical_beta(x, y):
    """Euler beta via complex log-gamma."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return np.exp(loggamma(x) + loggamma(y) - loggamma(x + y))


_CL2_KMAX = 40
_CL2_ZETAS = riemann_zeta(2 * np.arange(1, _CL2_KMAX + 1))


def lobachevsky(theta, tol: float = 1e-15):
    """Lobachevsky function L(theta) = (1/2) sum_{n>=1} sin(2 n theta)/n^2.

    Evaluated as Cl2(2 theta)/2 through the zeta-accelerated expansion
    Cl2(t) = t - t log|t| + sum_k zeta(2k) t^{2k+1} / (k (2k+1) (2 pi)^{2k}),
    absolutely convergent for |t| <= pi with ratio <= 1/4; truncation stops
    once the geometric tail bound drops below tol.
    """
    theta = np.asarray(theta, dtype=float)
    t = np.mod(2.0 * theta + _PI, 2.0 * _PI) - _PI  # fold 2*theta into [-pi, pi)
    out = np.where(t == 0.0, 0.0, t - t * np.log(np.maximum(np.abs(t), 1e-300)))
    r = (t / (2.0 * _PI)) ** 2
    term = t.copy().astype(float)
    acc = np.zeros_like(out)
    for k in range(1, _CL2_KMAX + 1):
        term = term * r
        contrib = _CL2_ZETAS[k - 1] * term / (k * (2 * k + 1))
        acc = acc + contrib
        if float(np.max(np.abs(contrib))) < tol * 0.1:
            break
    return 0.5 * (out + acc)
