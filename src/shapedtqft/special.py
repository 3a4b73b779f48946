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

from .errors import NonConvergence, PoleHit, WeightOutOfRange
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
    LineCache reads log Phi_b from the direct engine; the Gaussian prefactor
    is added in log space.  Every w is exact to the engine; radius is only
    passed on to the LineCache.  Nothing in the package calls it: every
    integrand, the Boltzmann weight included, reads exact LineTables.  It
    is kept, with LineCache, for the benchmark harness (bench/), which
    calls it.
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
    z0 = i c - c_b: the table key (z0, -h) that gamma2_key gives.  A table
    holds log Phi_b on one contiguous range of m, with no pointwise pole
    check, but a line through the zero/pole lattice raises PoleHit.
    reserve extends the tables to the spans a caller is about to read, and
    phi(z0, h, m) only reads them; reader(factors, h, hull) does both for
    every lattice integrand of the package.  Every entry comes from
    FaddeevDilog.lines on its own line and step, so tables at different
    steps are independent, and no table is ever rebuilt, so an entry once
    computed never changes.
    """

    def __init__(self, mp: ModularParameter, tol: float = 1e-13):
        self.mp = mp
        self.eng = get_engine(mp.b, tol)
        self._tables = {}   # (z0, h) -> (first m, log Phi_b values)

    def gamma2_key(self, c, h):
        """The table whose entry m is the Phi_b factor of gamma2(c + i m h)."""
        return complex(_phi_argument(c, self.mp)), -float(h)

    def phi(self, z0, h, m):
        """log Phi_b(z0 + m h) for an integer array m inside a reserved span."""
        m = np.asarray(m, dtype=np.intp)
        if not m.size:
            return np.zeros(m.shape, dtype=complex)
        first, vals = self._tables[(complex(z0), float(h))]
        if m.min() < first or m.max() >= first + len(vals):
            raise IndexError(f"m in [{m.min()}, {m.max()}] outside the reserved "
                             f"[{first}, {first + len(vals) - 1}] of the table ({z0}, {h})")
        return vals[m - first]

    def reserve(self, needs):
        """Extend the tables to cover each need (key, lo, hi): the entries
        m = lo..hi of the table key = (z0, h), h of either sign.

        The spans of one key merge into their hull.  One _fill computes the
        entries of every hull missing at either end of its table, and the
        tables are extended by them.
        """
        hulls = {}
        for (z0, h), lo, hi in needs:
            key = (complex(z0), float(h))
            a, b = hulls.get(key, (int(lo), int(hi)))
            hulls[key] = min(a, int(lo)), max(b, int(hi))
        pieces = []     # (key, lo, n)
        for key, (lo, hi) in hulls.items():
            if abs(abs(key[0].imag) - self.eng.cb_abs) < 1e-9:
                raise PoleHit(f"line Im z = {key[0].imag} runs through the zero/pole lattice")
            first, vals = self._tables.get(key, (lo, ()))
            pieces += [(key, a, b - a + 1) for a, b in ((lo, first - 1), (first + len(vals), hi))
                       if a <= b]
        for (key, lo, _n), logs in zip(pieces, self._fill(pieces)):
            first, old = self._tables.get(key, (lo, logs[:0]))
            self._tables[key] = ((lo, np.concatenate([logs, old])) if lo < first
                                 else (first, np.concatenate([old, logs])))

    def reader(self, factors, h, hull, log_const=0.0, log_extra=None):
        """Reader k -> e^{log_const} * (the product of the line factors, see
        line_integrand) * exp(log_extra(x)) at x = k h, for (N, dim) integer
        arrays k in the convex hull of the (M, dim) integer nodes hull.

        A factor's entry m = d.k spans [lo, hi], the extremes of d.p over the
        nodes p of hull.  Every span is reserved here in one call, a gamma2
        factor with a real offset c only at 0 <= m <= max(-lo, hi), its
        m < 0 taken by conjugation: gamma2(c - i m h) = conj gamma2(c + i m h)
        for real c.  Each factor's table is the exp of mult * its log less
        its largest real part top, so every entry has modulus <= 1.  The
        scale e^{log_const + sum of top} times the factors with lo = hi must
        be a finite nonzero double, or WeightOutOfRange is raised.  The
        reader multiplies the scale by the other factors' entries, gathered
        at the index m - lo formed by adding and subtracting columns of k.
        """
        hull = np.asarray(hull, dtype=np.intp)
        forms = np.array([f[2] for f in factors], dtype=np.intp).reshape(len(factors), hull.shape[1])
        m = hull @ forms.T
        h, plan = float(h), []
        for (kind, c, _d, mult), d, lo, hi in zip(factors, forms.tolist(), m.min(axis=0).tolist(),
                                                  m.max(axis=0).tolist()):
            mirror = kind == "g2" and complex(c).imag == 0
            key = self.gamma2_key(c, h) if kind == "g2" else (complex(c), h)
            plan.append((kind, key, mirror, lo, hi, d, mult))
        self.reserve([(key, 0, max(-lo, hi)) if mirror else (key, lo, hi)
                      for _kind, key, mirror, lo, hi, *_rest in plan])
        log_scale, tables = complex(log_const), []
        for kind, (z0, step), mirror, lo, hi, d, mult in plan:
            span = np.arange(0, max(-lo, hi) + 1) if mirror else np.arange(lo, hi + 1)
            logs = self.phi(z0, step, span)
            if kind == "g2":
                logs = _log_gamma2_from_phi(z0 + step * span, logs, self.mp)
            if mirror:
                logs = np.concatenate([logs[:0:-1].conj(), logs])
            logs, first = mult * logs, (-span[-1] if mirror else lo)   # first: the m of logs[0]
            if lo == hi:
                log_scale += logs[lo - first]
                continue
            top = logs.real.max()
            log_scale += top
            terms = [(j, dj) for j, dj in enumerate(d) if dj]
            tables.append((terms, -first, np.exp(logs - top)))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            scale = np.exp(log_scale)
        if not (np.isfinite(scale) and scale != 0):
            raise WeightOutOfRange(f"lattice scale exp({log_scale:.6g}) is not a finite nonzero "
                                   f"double at step h = {h:g}")

        def read(k):
            out = np.full(len(k), scale)
            for ((j, c), *rest), offset, table in tables:
                m = c * k[:, j] + offset
                for j, c in rest:           # small integer entries: add or subtract columns
                    if c == 1:
                        m += k[:, j]
                    elif c == -1:
                        m -= k[:, j]
                    else:
                        m += c * k[:, j]
                out *= table[m]
            return out if log_extra is None else out * np.exp(log_extra(h * k.T))

        return read

    def _fill(self, pieces):
        """log Phi_b(z0 + m h) at m = lo..lo + n - 1 for each piece (key, lo, n),
        key = (z0, h), through one FaddeevDilog.lines call per grid step |h|:
        the one path by which table entries are computed."""
        out = [None] * len(pieces)
        by_step = {}
        for i, ((_z0, h), _lo, _n) in enumerate(pieces):
            by_step.setdefault(abs(h), []).append(i)
        for dx, idx in by_step.items():
            # FaddeevDilog.lines runs left to right
            specs = [(z0.real + h * (lo if h > 0 else lo + n - 1), n, z0.imag)
                     for (z0, h), lo, n in (pieces[i] for i in idx)]
            for i, logs in zip(idx, self.eng.lines(specs, dx)):
                out[i] = logs if pieces[i][0][1] > 0 else logs[::-1]
        return out


def line_integrand(factors, mp: ModularParameter, tol: float = 1e-13,
                   tables: LineTables | None = None, log_const=0.0, log_extra=None):
    """nD integrand e^{log_const} * (product of factors) * exp(log_extra(x)),
    with a lattice form on LineTables.

    A factor (kind, c, d, mult) is gamma2(c + i d.x)^mult for kind "g2" and
    Phi_b(c + d.x)^mult for kind "phi", with d an integer vector (an int in
    1D) and mult a real power; log_extra(x), x with one row per variable,
    holds any other log term: a Gaussian, a measure, a chirp.  f(x) for
    points x of shape (N, dim) evaluates each factor on the direct engine,
    the reference for f.lattice(h, hull) = LineTables.reader on the same
    factors, which the box probes call once and the trapezoid once for its
    first three levels, both at step h0/4, then once per later level.
    Integrands that share line factors may share
    tables (built for the same mp and tol), so each entry is filled once.
    """
    eng = get_engine(mp.b, tol)
    if tables is None:
        tables = LineTables(mp, tol)

    def f(x):
        x = np.asarray(x, dtype=float).T
        logs = log_const if log_extra is None else log_const + log_extra(x)
        for kind, c, d, mult in factors:
            w = np.atleast_1d(d) @ x
            logs = logs + mult * np.log(hyperbolic_gamma(c + 1j * w, mp, tol) if kind == "g2"
                                        else eng(c + w))
        return np.exp(logs)

    f.lattice = lambda h, hull: tables.reader(factors, h, hull, log_const, log_extra)
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
