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
panels sized to the maximal kernel frequency cover the line (the panel
next to the pole is split in two), truncated where the analytic envelope
exp(-(b + 1/b - 2|Im z|)|t|) falls below the target precision.  Before
integrating, Im z is folded into [-d/2, d/2] (d = min(b,1/b)) by the shift
relations; Re z > 0 is taken from the inversion relation and Re z below
the asymptotic threshold -re_cut as Phi_b -> 1, so the contour is only
summed at Re z in [-re_cut, 0].  The shift factors, the inversion relation
and the contour sum are combined in log space, so Phi_b is finite wherever
it is representable.  Evaluation is vectorized over arrays of z;
FaddeevDilog.lines takes several uniform grids on horizontal lines at one
step in one pass: it factors their sums into one matrix product of cached
per-step phase rows (O(M) exps per line on M nodes) and returns log Phi_b
there, and FaddeevDilog.line is its one-line case.  Those grids are exact:
special.LineTables keeps them, per lattice step, for every integrand of
line factors gamma2(c + i d.x)^mult and Phi_b(c + d.x)^mult, d an integer
vector (the Boltzmann weight and the identity integrands alike), and its
reader fills all the entries one trapezoid level or box-probe family
needs with one lines call per step.
LineCache keeps log Phi_b on a line as a table of spline cubics.  Nothing
in the package builds one any more (special.gamma2_line, its one user, has
no package caller either); both are kept for the benchmark harness:
bench/tracing.py wraps LineCache.__init__ (reading its spacing default)
and LineCache.__call__, so their signatures are load-bearing.
"""
from __future__ import annotations

import itertools

import numpy as np

from .errors import PoleHit, QuadratureFailure
from .params import ModularParameter

__all__ = ["FaddeevDilog", "LineCache", "phi_b", "get_engine"]

_PI = np.pi
_LINE_CHECK_TOL = 1e-8      # relative spline error the LineCache self-check accepts
_LINE_MIN_SPACING = 1.25e-3  # spacing floor: 0.02 halved four times
_PHASE_CACHE_BYTES = 8 << 20   # bound on one engine's cached phase rows
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
        self._log_zeta_inv = np.log(self.zeta_inv)
        # worst-case node table (band edge); per-batch slices shrink it.
        # panel width tracks the maximal kernel frequency re_cut/pi (cycles
        # per unit), keeping <= ~4.5 cycles per 24-node Gauss panel.
        rate_min = 2.0 * (self.cb_abs - self.band)
        rmax = (np.log(1.0 / tol) + 4.0) / rate_min
        panel_w = min(2.0, 4.5 * np.pi / self.re_cut)
        # the first panel is split in two: the third-order pole at w = 0 sits
        # only h0 below the contour, closer than a half-width of a full panel
        xs, ws = np.polynomial.legendre.leggauss(24)
        nhalf = int(np.ceil(rmax / panel_w))
        edges = np.concatenate([[0.0, 0.5 * panel_w], panel_w * np.arange(1, nhalf + 1)])
        mids = 0.5 * (edges[1:] + edges[:-1])
        halves = 0.5 * np.diff(edges)
        t = (mids[:, None] + halves[:, None] * xs[None, :]).ravel()
        w = (halves[:, None] * ws[None, :]).ravel()
        wp = t + 1j * self.h0
        wm = -t + 1j * self.h0
        self._tpos = t
        self._gp = w / (4.0 * np.sinh(wp * self.b) * np.sinh(wp / self.b) * wp)
        self._gm = w / (4.0 * np.sinh(wm * self.b) * np.sinh(wm / self.b) * wm)
        self._phases = {}   # step d -> phase rows, see _phase_rows

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
    def _nodes(self, ymax):
        """Contour nodes and weights needed for |Im z| <= ymax (a prefix)."""
        rate = 2.0 * (self.cb_abs - ymax)
        m = self._tpos.searchsorted((np.log(1.0 / self.tol) + 4.0) / rate, side="right")
        return self._tpos[:m], self._gp[:m], self._gm[:m]

    def _phase_rows(self, d, rows, m):
        """e^{-2i l d t} for l < rows on the first m nodes (their conjugates
        are the e^{2i l d t}): a slice of a cache keyed by the step d,
        computed elementwise over all of _tpos (so a slice does not depend on
        how the cache grew) and cleared before an insert past
        _PHASE_CACHE_BYTES."""
        p = self._phases.get(d)
        if p is None or len(p) < rows:
            p = np.exp(np.multiply.outer(-2j * d * np.arange(rows), self._tpos))
            if p.nbytes + sum(q.nbytes for q in self._phases.values()) > _PHASE_CACHE_BYTES:
                self._phases.clear()
            if p.nbytes <= _PHASE_CACHE_BYTES:
                self._phases[d] = p
        return p[:rows, :m]

    def _raw(self, segs):
        """log Phi_b by the direct contour integral at the points of the
        arrays segs, concatenated; requires |Im z| <= band and |Re z| <= re_cut."""
        z = np.concatenate(segs)
        t, gp, gm = self._nodes(float(np.abs(z.imag).max()))
        ker = np.exp(np.multiply.outer(-2j * z, t))
        # e^{-2iz(+-t + i h0)} = e^{-+2izt} * e^{2 z h0}
        return np.exp(2.0 * z * self.h0) * (ker @ gp + (1.0 / ker) @ gm)

    def _raw_grid(self, segs, dx):
        """_raw on segments that are each a uniform grid z0 + k dx, through
        one GEMM.

        With k = j B + l (B a power of two, so the steps B dx recur) the
        kernel factors as e^{-2i z0 t} e^{-2i jB dx t} e^{-2i l dx t}: the
        last two are cached phase rows, whose conjugates give the e^{+2izt}
        half; the first is one exp row per segment, taken into the weights.
        The nodes are the prefix for the largest |Im z| of the batch, a
        deeper truncation of the same contour for the other segments.  All
        of it is one (sum n/B x 2M) x (2M x B) np.dot (matmul is slower on
        the transposed heads), whose left factor is one gather of start rows
        times segment weights; a warm cache leaves one exp row of M nodes
        per segment and one exp per point.
        """
        z = np.concatenate(segs)
        t, gp, gm = self._nodes(float(np.abs(z.imag).max()))
        ns = np.array([len(s) for s in segs])
        blk = 1 << (int(len(z) ** 0.5).bit_length() - 1)
        nbs = -(-ns // blk)
        heads = self._phase_rows(dx, blk, t.size)
        rows = np.exp(np.multiply.outer(-2j * np.array([s[0] for s in segs]), t))
        seg = np.repeat(np.arange(len(segs)), nbs)    # the segment of each block row
        r0 = np.cumsum(nbs) - nbs                     # its first block row
        starts = self._phase_rows(blk * dx, int(nbs.max()), t.size)[np.arange(len(seg)) - r0[seg]]
        fwd = np.empty((len(seg), 2, t.size), dtype=complex)
        np.multiply(starts, (gp * rows)[seg], out=fwd[:, 0])
        np.multiply(starts.conj(), (gm / rows)[seg], out=fwd[:, 1])
        sums = np.dot(fwd.reshape(len(fwd), -1), np.concatenate([heads, heads.conj()], axis=1).T).ravel()
        # point i of segment s (which starts at point p0) sits at r0 B + i - p0
        pick = np.arange(len(z)) + np.repeat(r0 * blk - (np.cumsum(ns) - ns), ns)
        return np.exp(2.0 * z * self.h0) * sums[pick]

    def _log_shift(self, z):
        """log(1 + q1 e^{2 pi step z}), the factor of one shift relation,
        without overflow at large Re z."""
        a = 2 * _PI * self.step * z
        big = a.real > 0
        out = np.empty_like(a)
        out[~big] = np.log1p(self.q1 * np.exp(a[~big]))
        out[big] = a[big] + np.log(self.q1 + np.exp(-a[big]))
        return out

    def _evaluate(self, z, raw, starts=(0,)):
        """log Phi_b on a 1D array z: fold Im z into [-band, band] by the shift
        relations, then take Re z > 0 from the inversion relation and
        Re z < -re_cut as Phi_b = 1.

        raw gets the remaining folded points with Re in [-re_cut, 0] in one
        call, as arrays increasing in Re: the points of Re z <= 0, then -z of
        those of Re z > 0, each split into one array per run z[starts[i]:
        starts[i + 1]].  It returns their log Phi_b concatenated.  The contour
        sums are well conditioned there, while at Re z > 0 the factor
        e^{2 z h0} amplifies their rounding.  Every factor is accumulated in
        log space, so no intermediate overflows where Phi_b itself is
        representable.
        """
        log_pref = np.zeros(z.shape, dtype=complex)
        zz = z.copy()
        n = np.round(zz.imag / self.step).astype(int)
        for _ in range(int(np.abs(n).max()) if n.size else 0):
            hi = n > 0
            lo = n < 0
            if hi.any():
                zz[hi] -= 1j * self.step
                log_pref[hi] -= self._log_shift(zz[hi])
                n[hi] -= 1
            if lo.any():
                log_pref[lo] += self._log_shift(zz[lo])
                zz[lo] += 1j * self.step
                n[lo] += 1
        out = np.zeros(zz.shape, dtype=complex)
        right = zz.real > 0
        near = np.abs(zz.real) <= self.re_cut
        parts = [(run[::sgn], sgn) for half, sgn in ((~right, 1), (right, -1))
                 for idx in [np.flatnonzero(half & near)]
                 for run in np.split(idx, np.searchsorted(idx, starts[1:])) if run.size]
        if parts:
            out[np.concatenate([idx for idx, _ in parts])] = raw([sgn * zz[idx] for idx, sgn in parts])
        # log Phi_b(z) = i pi z^2 - log zeta_inv - log Phi_b(-z)
        out[right] = 1j * _PI * zz[right] ** 2 - self._log_zeta_inv - out[right]
        return log_pref + out

    def __call__(self, z, check=True):
        z = np.asarray(z, dtype=complex)
        if check:
            self.check_poles(z)
        res = np.exp(self._evaluate(z.ravel(), self._raw)).reshape(z.shape)
        return res[()] if z.ndim == 0 else res

    def lines(self, specs, dx: float):
        """log Phi_b(x0 + k dx + i y) for k = 0..n-1 (dx > 0) on each line
        (x0, n, y) of specs, as a list of arrays, without pole checks.

        The logs of the values __call__ gives on these points, up to
        multiples of 2 pi i.  All lines take one _evaluate pass (fold,
        inversion and shift factors vectorized across them) and one
        _raw_grid call: each half of a folded line that _evaluate hands to
        raw (the left one and the mirrored right one) is again a uniform
        grid of step dx, so every line and half is one segment of one GEMM.
        """
        ns = [int(n) for _x0, n, _y in specs]
        z = np.concatenate([x0 + dx * np.arange(n) + 1j * y for x0, n, y in specs])
        starts = list(itertools.accumulate(ns[:-1], initial=0))
        logs = self._evaluate(z, lambda segs: self._raw_grid(segs, dx), starts)
        return np.split(logs, starts[1:])

    def line(self, x0: float, dx: float, n: int, y: float):
        """log Phi_b(x0 + k dx + i y) for k = 0..n-1 (dx > 0): lines() on one line."""
        return self.lines([(x0, n, y)], dx)[0]


class LineCache:
    """log Phi_b along a fixed horizontal line Im z = y inside the strip.

    log Phi_b is interpolated by cubic splines on the left half-lines
    Im z = +-y (phase-unwrapped; the right half adds i pi z^2 - log zeta_inv
    by the inversion relation).  The nodes are a uniform grid, which
    FaddeevDilog.line evaluates with one GEMM, so a query finds its cubic in
    one table by one division and evaluates it by Horner; callers sum these
    logs and exponentiate once.  Both half-lines are checked against the
    direct engine off the nodes.  Queries outside the cached radius trigger
    a rebuild with a doubled range.  A failed self-check halves the spacing,
    down to _LINE_MIN_SPACING.
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
        x0 = -self.radius - 2.0
        while True:
            n = int(np.ceil((self.radius + 2.0) / self.spacing)) + 1
            dx = (0.5 - x0) / (n - 1)
            xs = x0 + dx * np.arange(n)
            # columns k < n - 1 hold the cubics of Im z = +y, the rest those of -y
            coef = []
            for sgn in (+1.0, -1.0):
                logs = eng.line(x0, dx, n, sgn * self.y)
                coef.append(CubicSpline(xs, logs.real + 1j * np.unwrap(logs.imag)).c)
            self._x0, self._dx, self._nint = x0, dx, n - 1
            self._coef = np.concatenate(coef, axis=1)
            # self-check of both half-lines against the direct evaluation
            # (relative, off the nodes); the -y table at the probes is the
            # cache at the mirrored points x > 0.25
            probes = np.linspace(-self.radius - 1.5, 0.4, 23) + 0.37 * self.spacing
            err = max(np.abs(np.exp(self._horner(probes, sgn < 0))
                             / eng(probes + 1j * sgn * self.y, check=False) - 1.0).max()
                      for sgn in (+1.0, -1.0))
            if err <= _LINE_CHECK_TOL:
                return
            if 0.5 * self.spacing < _LINE_MIN_SPACING:
                raise QuadratureFailure(f"line cache Im z = {self.y}: spline error {err:.3g} "
                                        f"at the spacing floor {self.spacing:.3g}")
            self.spacing *= 0.5

    def _horner(self, x, minus):
        """Spline of Im z = -y (minus) or +y at x in [x0, 0.5], by Horner."""
        k = np.clip(((x - self._x0) / self._dx).astype(np.intp), 0, self._nint - 1)
        t = x - (self._x0 + self._dx * k)
        c = self._coef.take(k + self._nint * minus, axis=1)
        return ((c[0] * t + c[1]) * t + c[2]) * t + c[3]

    def __call__(self, x):
        """log Phi_b(x + i y) for a real array x."""
        x = np.asarray(x, dtype=float)
        amax = float(np.abs(x).max()) if x.size else 0.0
        if amax > self.radius:
            self._build(max(2.0 * self.radius, amax + 2.0))
        right = x > 0.25
        out = self._horner(np.where(right, -x, x), right)
        # log Phi(z) = i pi z^2 - log zeta_inv - log Phi(-z)
        z = x + 1j * self.y
        return np.where(right, 1j * _PI * z**2 - self.engine._log_zeta_inv - out, out)


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
