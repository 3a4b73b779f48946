"""The noncompact quantum dilogarithm for positive real coupling.

The function is defined inside the strip |Im z| < |Im c_b| by

    Phi_b(z) = exp( int_{R+i0} e^{-2izw} / (4 sinh(wb) sinh(w/b) w) dw ),

with c_b = i(b + 1/b)/2.  Key properties used and exposed here:

    shift relations   Phi_b(z - ib'/2) = (1 + e^{2 pi b' z}) Phi_b(z + ib'/2),  b' in {b, 1/b}
    inversion         Phi_b(z) Phi_b(-z) = zeta_inv^{-1} e^{i pi z^2}
    unitarity         conj(Phi_b(z)) = 1 / Phi_b(conj(z))
    zeros             z = -c_b - i(m b + n/b),  m, n >= 0
    poles             z = +c_b + i(m b + n/b),  m, n >= 0

Numerics: the contour R+i0 is deformed to the straight line Im w = h0
(h0 = min(b,1/b)/2, safely below the first sinh zero at i pi min(b,1/b)),
where the third-order pole at w = 0 is a smooth bump; 24-point Gauss
panels sized to the maximal kernel frequency cover the line, truncated
where the analytic envelope exp(-(b + 1/b - 2|Im z|)|t|) falls below the
target precision.  Before
integrating, Im z is folded into [-d/2, d/2] (d = min(b,1/b)) by the shift
relations and |Re z| beyond the asymptotic threshold is handled by
Phi_b -> 1 (left) or the inversion relation (right).  Evaluation is
vectorized over arrays of z.
"""
from __future__ import annotations

import numpy as np

from .errors import PoleHit, QuadratureFailure
from .params import ModularParameter

__all__ = ["FaddeevDilog", "LineCache", "phi_b", "get_engine"]

_PI = np.pi
_LINE_CHECK_TOL = 1e-8      # relative spline error the LineCache self-check accepts
_LINE_MIN_SPACING = 1.25e-3  # spacing floor: 0.02 halved four times
_ENGINES: dict[tuple[float, float], "FaddeevDilog"] = {}


class FaddeevDilog:
    """Vectorized evaluator of Phi_b at fixed coupling and target precision."""

    def __init__(self, b: float, tol: float = 1e-13, pole_tol: float = 1e-7):
        if not (b > 0 and np.isfinite(b)):
            raise ValueError("coupling b must be positive real")
        self.b = float(b)
        self.tol = float(tol)
        self.pole_tol = float(pole_tol)
        self.step = min(self.b, 1.0 / self.b)
        self.cb_abs = 0.5 * (self.b + 1.0 / self.b)
        self.band = 0.5 * self.step                   # fold Im z into [-band, band]
        self.h0 = 0.5 * self.step                     # contour height
        self.q1 = np.exp(1j * _PI * self.step**2)
        # beyond |Re z| > re_cut: Phi_b(z) = 1 resp. inversion, to within tol
        self.re_cut = (np.log(1.0 / tol) + 3.0) / (2 * _PI * self.step)
        cb = 1j * self.cb_abs
        self.zeta_inv = complex(np.exp(1j * _PI * (1.0 + 2.0 * cb**2) / 6.0))
        # worst-case node table (band edge); per-batch slices shrink it.
        # panel width tracks the maximal kernel frequency re_cut/pi (cycles
        # per unit), keeping <= ~4.5 cycles per 24-node Gauss panel.
        rate_min = 2.0 * (self.cb_abs - self.band)
        rmax = (np.log(1.0 / tol) + 4.0) / rate_min
        panel_w = min(2.0, 4.5 * np.pi / self.re_cut)
        xs, ws = np.polynomial.legendre.leggauss(24)
        nhalf = int(np.ceil(rmax / panel_w))
        mids = panel_w * (np.arange(nhalf) + 0.5)
        t = (mids[:, None] + 0.5 * panel_w * xs[None, :]).ravel()
        w = np.tile(0.5 * panel_w * ws, nhalf)
        wp = t + 1j * self.h0
        wm = -t + 1j * self.h0
        self._tpos = t
        self._gp = w / (4.0 * np.sinh(wp * self.b) * np.sinh(wp / self.b) * wp)
        self._gm = w / (4.0 * np.sinh(wm * self.b) * np.sinh(wm / self.b) * wm)

    # -- pole / zero lattice ------------------------------------------------
    def lattice_distance(self, z):
        """Distance to the combined zero/pole lattice +-(c_b + i(mb + n/b))."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        y = np.abs(z.imag) - self.cb_abs
        d_im = np.full(z.shape, np.inf)
        ok = y > -0.5 * self.step
        if ok.any():
            yy = np.maximum(y[ok], 0.0)
            m_max = int(np.ceil(yy.max() / self.b)) + 1
            n_max = int(np.ceil(yy.max() * self.b)) + 1
            lat = np.unique([m * self.b + n / self.b
                             for m in range(m_max + 1) for n in range(n_max + 1)])
            d_im[ok] = np.abs(y[ok][:, None] - lat[None, :]).min(axis=1)
        return np.hypot(z.real, np.where(np.isfinite(d_im), d_im, 1.0))

    def check_poles(self, z):
        d = self.lattice_distance(z)
        if (d < self.pole_tol).any():
            zbad = np.atleast_1d(np.asarray(z, dtype=complex))[d < self.pole_tol][0]
            raise PoleHit(f"Phi_b argument {zbad} within {self.pole_tol} of the zero/pole lattice")

    # -- evaluation ----------------------------------------------------------
    def _raw(self, z):
        """Direct contour integral; requires |Im z| <= band and |Re z| <= re_cut."""
        ymax = float(np.abs(z.imag).max()) if z.size else 0.0
        rate = 2.0 * (self.cb_abs - ymax)
        r_need = (np.log(1.0 / self.tol) + 4.0) / rate
        m = self._tpos <= r_need
        t = self._tpos[m]
        ker = np.exp(np.multiply.outer(-2j * z, t))
        # e^{-2iz(+-t + i h0)} = e^{-+2izt} * e^{2 z h0}
        logv = np.exp(2.0 * z * self.h0) * (ker @ self._gp[m] + (1.0 / ker) @ self._gm[m])
        return np.exp(logv)

    def __call__(self, z, check=True):
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        if check:
            self.check_poles(z)
        pref = np.ones(z.shape, dtype=complex)
        zz = z.copy()
        n = np.round(zz.imag / self.step).astype(int)
        for _ in range(int(np.abs(n).max()) if n.size else 0):
            hi = n > 0
            lo = n < 0
            if hi.any():
                zz[hi] -= 1j * self.step
                pref[hi] /= (1.0 + self.q1 * np.exp(2 * _PI * self.step * zz[hi]))
                n[hi] -= 1
            if lo.any():
                pref[lo] *= (1.0 + self.q1 * np.exp(2 * _PI * self.step * zz[lo]))
                zz[lo] += 1j * self.step
                n[lo] += 1
        out = np.empty_like(zz)
        far_neg = zz.real < -self.re_cut
        far_pos = zz.real > self.re_cut
        mid = ~(far_neg | far_pos)
        out[far_neg] = 1.0
        if far_pos.any():
            out[far_pos] = np.exp(1j * _PI * zz[far_pos] ** 2) / self.zeta_inv
        if mid.any():
            out[mid] = self._raw(zz[mid])
        res = pref * out
        return res[0] if scalar else res


class LineCache:
    """Fast Phi_b along a fixed horizontal line Im z = y inside the strip.

    log Phi_b is interpolated by cubic splines on the left half-lines
    Im z = +-y (phase-unwrapped; the right half comes from the inversion
    relation), giving ~50x the direct-contour throughput.  Queries outside
    the cached radius trigger a rebuild with a doubled range.  A failed
    self-check halves the spacing, down to _LINE_MIN_SPACING.
    """

    def __init__(self, engine: FaddeevDilog, y: float, radius: float, spacing: float = 0.02):
        if abs(abs(y) - engine.cb_abs) < 1e-9:
            raise PoleHit(f"line Im z = {y} runs through the zero/pole lattice")
        self.engine = engine
        self.y = float(y)
        self.spacing = float(spacing)
        self._build(radius)

    def _build(self, radius):
        from scipy.interpolate import CubicSpline
        eng = self.engine
        self.radius = float(max(radius, 4.0))
        while True:
            n = int(np.ceil((self.radius + 2.0) / self.spacing)) + 1
            xs = np.linspace(-self.radius - 2.0, 0.5, n)
            self._splines = {}
            for sgn in (+1.0, -1.0):
                vals = eng(xs + 1j * sgn * self.y, check=False)
                logs = np.log(vals)
                logs = logs.real + 1j * np.unwrap(logs.imag)
                self._splines[sgn] = CubicSpline(xs, logs)
            # self-check against the direct evaluation (relative, off the nodes)
            probes = np.linspace(-self.radius - 1.5, 0.4, 23) + 0.37 * self.spacing
            ref = eng(probes + 1j * self.y, check=False)
            err = np.abs(np.exp(self._splines[1.0](probes)) / ref - 1.0).max()
            if err <= _LINE_CHECK_TOL:
                return
            if 0.5 * self.spacing < _LINE_MIN_SPACING:
                raise QuadratureFailure(f"line cache Im z = {self.y}: spline error {err:.3g} "
                                        f"at the spacing floor {self.spacing:.3g}")
            self.spacing *= 0.5

    def __call__(self, x):
        """Phi_b(x + i y) for a real array x."""
        x = np.asarray(x, dtype=float)
        amax = float(np.abs(x).max()) if x.size else 0.0
        if amax > self.radius:
            self._build(max(2.0 * self.radius, amax + 2.0))
        left = x <= 0.25
        out = np.empty(x.shape, dtype=complex)
        if left.any():
            out[left] = np.exp(self._splines[1.0](x[left]))
        if (~left).any():
            xr = x[~left]
            z = xr + 1j * self.y
            # Phi(z) = zeta_inv^{-1} e^{i pi z^2} / Phi(-z)
            out[~left] = (np.exp(1j * _PI * z**2) / self.engine.zeta_inv
                          / np.exp(self._splines[-1.0](-xr)))
        return out


def get_engine(b: float, tol: float = 1e-13) -> FaddeevDilog:
    key = (round(float(b), 15), float(tol))
    eng = _ENGINES.get(key)
    if eng is None:
        eng = FaddeevDilog(b, tol)
        _ENGINES[key] = eng
    return eng


def phi_b(z, mp: ModularParameter, tol: float = 1e-13):
    """Phi_b(z) for scalar or array z; raises PoleHit near the pole lattice."""
    return get_engine(mp.b, tol)(z)
