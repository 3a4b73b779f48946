"""Special functions: hyperbolic gamma, B-kernel, Fourier kernels, elliptic gamma,
theta, classical beta, and the Lobachevsky volume function.

For real coupling the hyperbolic gamma is evaluated exclusively through the
quantum dilogarithm via

    gamma2(-i nabla (x + c_b); omega1, omega2) = e^{i pi x^2 / 2} / (sqrt(zeta_inv) Phi_b(x)),

inverted as x = i u / nabla - c_b (the |q| = 1 divergence kills the product
form there).  The product form is kept for genuinely complex period ratios
and for cross validation.  sqrt(zeta_inv) is the principal branch; the
test suite pins it against the engine's Phi_b: the closed form at b = 1, the
direct contour integral at every other b.

The classical functions need no library beyond numpy: the Lobachevsky
function is the imaginary part of qdilog's Li_2 series on the unit circle,
and the Bernoulli numbers B_2k of that series (exact Fractions from the
integer tangent-number recurrence) also give the coefficients of the
Stirling series behind the complex log-gamma of classical_beta.
"""
from __future__ import annotations

import numpy as np

from .errors import NonConvergence, PoleHit, WeightOutOfRange
from .params import EllipticBases, ModularParameter
from .qdilog import _BERNOULLI, _li2, get_engine
from .quadrature import IntegralResult, QuadratureConfig, integrate_1d

__all__ = [
    "hyperbolic_gamma", "hyperbolic_gamma_product", "bernoulli_b22", "hyper_B",
    "cap_psi", "psi_fn", "cap_psi_direct", "elliptic_gamma", "theta_fn",
    "classical_beta", "lobachevsky",
    "LineTables", "line_integrand",
]

_PI = np.pi
_PI_LO = 1.2246467991473532e-16     # pi - _PI
_QPRODUCT_MAX_TERMS = 40000


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


def hyperbolic_gamma_product(u, omega1: complex, omega2: complex, tol: float = 1e-14):
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
        if n > _QPRODUCT_MAX_TERMS:
            raise NonConvergence(f"q-product needs {n} terms (> {_QPRODUCT_MAX_TERMS})")
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
    """Exact line factors on a trapezoid lattice, kept per (line, step h, mult).

    A trapezoid node is k h with k an integer vector, and each line factor of
    a state-integral integrand moves by an integer combination of k.  So a
    Phi_b factor is only needed at z0 + m h, m an integer, and a gamma2
    factor at c + i m h, which is the Phi_b factor at z0 - m h with
    z0 = i c - c_b: the table key (z0, -h).  (A gamma2 key has step -h, a
    Phi_b key +h, so the two kinds never share a table.)

    For each (table key, mult) the one store keeps the factor's logs
    mult * log(factor) on one contiguous range of m, the union of the spans
    read so far, their largest real part top and the exponentiated table
    e^{logs - top}.  A reader (the lattice form of every integrand of the
    package) that reaches past a kept range computes only the missing
    entries at either end, through _fill, the one path by which entries are
    computed (FaddeevDilog.lines on their own line and step, so tables at
    different steps are independent), and concatenates them onto the kept
    logs in new arrays, so a reader prepared earlier keeps its own and an
    entry once computed never changes.  There is no pointwise pole check,
    but a line through the zero/pole lattice raises PoleHit.
    """

    def __init__(self, mp: ModularParameter, tol: float = 1e-13):
        self.mp = mp
        self.eng = get_engine(mp.b, tol)
        self._kept = {}     # ((z0, h), mult) -> (first m, logs, top, exp(logs - top))

    def reader(self, factors, h, hull, log_const=0.0, log_extra=None):
        """Reader k -> e^{log_const} * (the product of the line factors, see
        line_integrand) * exp(log_extra(x)) at x = k h, for (N, dim) integer
        arrays k in the convex hull of the (M, dim) integer nodes hull.

        A factor's entry m = d.k spans [lo, hi], the extremes of d.p over the
        nodes p of hull; a gamma2 factor with a real offset c spans
        [-M, M], M = max(-lo, hi), and its entries are computed at m >= 0
        only, m < 0 taken by conjugation: gamma2(c - i m h) = conj
        gamma2(c + i m h) for real c.  Factors on one kept table (see the
        class docstring) read the union of their spans.  Factors whose spans
        the kept tables cover cost no array work here; the entries missing
        from the others are computed in one _fill call.  Each kept table has
        modulus <= 1.  The scale e^{log_const + sum of the tables' top}
        times the factors with lo = hi must be a finite nonzero double at
        every call, or WeightOutOfRange is raised.  The reader multiplies
        the scale by the other factors' entries, gathered at the index
        m - first formed by adding and subtracting columns of k.
        """
        hull = np.asarray(hull, dtype=np.intp)
        forms = np.array([f[2] for f in factors], dtype=np.intp).reshape(len(factors), hull.shape[1])
        m = hull @ forms.T
        h, plan, spans = float(h), [], {}
        for (kind, c, _d, mult), d, lo, hi in zip(factors, forms.tolist(), m.min(axis=0).tolist(),
                                                  m.max(axis=0).tolist()):
            mirror = kind == "g2" and complex(c).imag == 0
            name = ((complex(_phi_argument(c, self.mp)), -h) if kind == "g2" else (complex(c), h), mult)
            a, b = (-max(-lo, hi), max(-lo, hi)) if mirror else (lo, hi)
            if name in spans:       # factors on one kept table: the union of their spans
                a, b = min(a, spans[name][2]), max(b, spans[name][3])
            spans[name] = kind, mirror, a, b
            plan.append((name, lo, hi, d))
        grown, pieces = [], []      # (name, kind, mirror, new runs (lo, n)) of each growing table
        for name, (kind, mirror, a, b) in spans.items():
            first, logs = self._kept.get(name, (a, ()))[:2]
            if mirror:              # only m >= 0 is computed: the kept 0..M
                a, first, logs = 0, 0, logs[len(logs) // 2:]
            runs = [(lo, hi - lo + 1) for lo, hi in ((a, first - 1), (first + len(logs), b)) if lo <= hi]
            if runs:
                grown.append((name, kind, mirror, runs))
                pieces += [(name[0], lo, n) for lo, n in runs]
        filled = iter(self._fill(pieces) if pieces else ())
        for name, kind, mirror, runs in grown:
            (z0, step), mult = name
            first, logs = self._kept.get(name, (runs[0][0], np.zeros(0, dtype=complex)))[:2]
            parts = [logs]
            for lo, n in runs:
                vals = next(filled)
                if kind == "g2":
                    vals = _log_gamma2_from_phi(z0 + step * np.arange(lo, lo + n), vals, self.mp)
                if mirror:          # m = lo..lo + n - 1 and their conjugates at -m, m = 0 once
                    parts = [mult * (vals[:0:-1] if lo == 0 else vals[::-1]).conj(), *parts, mult * vals]
                    first = -(lo + n - 1)
                elif lo < first:
                    parts, first = [mult * vals, *parts], lo
                else:
                    parts.append(mult * vals)
            logs = np.concatenate(parts)
            top = logs.real.max()
            self._kept[name] = first, logs, top, np.exp(logs - top)
        log_scale, tables = complex(log_const), []
        for name, lo, hi, d in plan:
            first, logs, top, table = self._kept[name]
            if lo == hi:
                log_scale += logs[lo - first]
                continue
            log_scale += top
            terms = [(j, dj) for j, dj in enumerate(d) if dj]
            tables.append((terms, -first, table))
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
        the one path by which table entries are computed.  A line through the
        zero/pole lattice raises PoleHit before anything is computed."""
        out = [None] * len(pieces)
        by_step = {}
        for i, ((z0, h), _lo, _n) in enumerate(pieces):
            self.eng.check_line(z0.imag)
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

    f.conjugation_even is True when every factor is a gamma2 with a real
    offset and a real mult, log_const is real and there is no log_extra:
    then f(-x) = conj f(x), since conj gamma2(c + i w) = gamma2(c - i w) for
    real c, and the trapezoid reads half the lattice.  A Phi_b factor never
    qualifies: conj Phi_b(z) = 1 / Phi_b(conj z).
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
    f.conjugation_even = (log_extra is None and complex(log_const).imag == 0
                          and all(kind == "g2" and complex(c).imag == 0 and complex(mult).imag == 0
                                  for kind, c, _d, mult in factors))
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


def cap_psi_direct(u, v, w, mp: ModularParameter, cfg: QuadratureConfig) -> IntegralResult:
    """Direct quadrature of the defining Fourier integral (oracle for cap_psi).

    Needs Im(u - v) > 0 so the ratio decays on the right; on the left the
    ratio tends to 1 and the pure-oscillation tail int_{-inf}^{-A} e^{2 pi i w t} dt
    = e^{-2 pi i w A}/(2 pi i w) is summed in closed (Abel-regularized) form.
    w must be nonzero.  The reported error is the Gauss-Kronrod error plus
    both cuts' tails, each 4 |g(cut)| / rate like the trapezoid's face tail:
    g = (ratio - 1) e^{2 pi i w t} decays at rate 2 pi (min(b, 1/b) - Im w)
    left of -A, and ratio e^{2 pi i w t} at rate 2 pi (Im(u - v) + Im w)
    right of B.
    """
    u, v, w = complex(u), complex(v), complex(w)
    if (u - v).imag <= 0:
        raise NonConvergence("direct kernel integral needs Im(u - v) > 0")
    if w == 0:
        raise NonConvergence("w = 0 has no regularized tail")
    eng = get_engine(mp.b, cfg.phib_tol)
    step = min(mp.b, 1.0 / mp.b)
    rate_a, rate_b = 2 * _PI * (step - w.imag), 2 * _PI * ((u - v).imag + w.imag)
    if min(rate_a, rate_b) <= 0:
        raise NonConvergence(f"e^(2 pi i w t) with Im w = {w.imag:.3g} outgrows a tail of the ratio")
    # left cut where |Phi(u+x)/Phi(v+x) - 1| < tol; right cut from the decay rate
    a_cut = (np.log(1.0 / cfg.abs_tol) + 4.0) / (2 * _PI * step) + max(abs(u), abs(v))
    b_cut = (np.log(1.0 / cfg.abs_tol) + 4.0) / (2 * _PI * (u - v).imag) + max(abs(u), abs(v))

    def f(t):
        return eng(u + t) / eng(v + t) * np.exp(2j * _PI * w * t)

    core = integrate_1d(f, cfg, interval=(-a_cut, b_cut))
    wave = np.exp(-2j * _PI * w * a_cut)   # e^{2 pi i w t} at t = -A
    cuts = 4.0 * abs(f(-a_cut) - wave) / rate_a + 4.0 * abs(f(b_cut)) / rate_b
    return IntegralResult(core.value + wave / (2j * _PI * w), core.error_estimate + float(cuts),
                          core.evaluations + 2, "adaptive")


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


_LOGGAMMA_SHIFT = 10.0
# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of log Gamma
_STIRLING = np.array([float(b / (2 * k * (2 * k - 1))) for k, b in enumerate(_BERNOULLI[:8], 1)])


def _loggamma(z):
    """A logarithm of Gamma(z), complex array z off the poles; its branch is
    not scipy's, so only exp of sums of it is meaningful.

    The recurrence Gamma(z) = Gamma(z + n) / (z (z + 1) ... (z + n - 1)) moves
    Re z up to >= _LOGGAMMA_SHIFT, where Stirling's series with 8 terms is
    below 1e-17.
    """
    z = np.asarray(z, dtype=complex)
    n = np.maximum(np.ceil(_LOGGAMMA_SHIFT - z.real), 0.0)
    out = np.zeros_like(z)
    for k in range(int(n.max(initial=0.0))):
        out -= np.log(np.where(k < n, z + k, 1.0))
    z = z + n
    w = 1.0 / z
    w2, series = w * w, _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * w2 + c
    return out + (z - 0.5) * np.log(z) - z + 0.5 * np.log(2 * _PI) + series * w


def _gamma_pole(z):
    """True where z is a pole of Gamma: a non-positive integer."""
    return (z.imag == 0) & (z.real <= 0) & (z.real == np.floor(z.real))


def classical_beta(x, y):
    """Euler beta B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y) via _loggamma.

    Raises PoleHit if x or y is a non-positive integer; where only x + y is
    one, B is exactly 0.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if _gamma_pole(x).any() or _gamma_pole(y).any():
        raise PoleHit("classical beta: x or y is a non-positive integer, a pole of Gamma")
    s = x + y
    zero = _gamma_pole(s)
    out = np.exp(_loggamma(x) + _loggamma(y) - _loggamma(np.where(zero, 1.0, s)))
    return np.where(zero, 0.0, out)[()]


def lobachevsky(theta):
    """Lobachevsky function L(theta) = (1/2) sum_{n>=1} sin(2 n theta)/n^2
    = (1/2) Im Li_2(e^{2 i theta}), through qdilog's Li_2 series at
    log w = 2 i theta, reduced to [-pi, pi] with a two-part pi (exact to
    rounding near the zeros k pi, where L is steepest); L(0) = 0.
    """
    theta = np.asarray(theta, dtype=float)
    k = np.round(theta / _PI)
    t = (2.0 * (theta - k * _PI) - 2.0 * k * _PI_LO).ravel()
    zero = t == 0.0
    li, _lv = _li2(1j * np.where(zero, _PI, t))
    return np.where(zero, 0.0, 0.5 * li.imag).reshape(theta.shape)[()]
