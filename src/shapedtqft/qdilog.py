"""The noncompact quantum dilogarithm for positive real coupling.

The function is defined inside the strip |Im z| < |Im c_b| by

    Phi_b(z) = exp( int_{R+i0} e^{-2izw} / (4 sinh(wb) sinh(w/b) w) dw ),

with c_b = i(b + 1/b)/2.  Key properties used and exposed here:

    shift relations   Phi_b(z - ib'/2) = (1 + e^{2 pi b' z}) Phi_b(z + ib'/2),  b' in {b, 1/b}
    inversion         Phi_b(z) Phi_b(-z) = zeta_inv^{-1} e^{i pi z^2}
    unitarity         conj(Phi_b(z)) = 1 / Phi_b(conj(z))
    zeros             z = -c_b - i(m b + n/b),  m, n >= 0
    poles             z = +c_b + i(m b + n/b),  m, n >= 0

Numerics: at b = 1 no contour is summed.  Phi_1 has the closed form of
Garoufalidis and Kashaev (arXiv:1411.6062),

    Phi_1(z) = exp( (i / 2 pi) [ Li_2(e^{2 pi z}) + 2 pi z log(1 - e^{2 pi z}) ] ),

taken at Re z <= 0 at every Im z (no fold, no cut) and through the inversion
relation at Re z > 0; Li_2 is a Bernoulli series (_li2).
At every other b the contour R+i0 is deformed to the straight line Im w = h0
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
there.  Every line value of the package comes from the engine directly:
special.LineTables keeps such grids, per lattice step, for every integrand
of line factors gamma2(c + i d.x)^mult and Phi_b(c + d.x)^mult, d an
integer vector (the Boltzmann weight and the identity integrands alike),
and its reader fills all the entries one trapezoid level or the box probes
need with one lines call per step.  A reader's fill costs mostly a fixed
part per call, not per entry, so the box probes sit on the trapezoid's first
table step h0/4: before level h0/8 an integral prepares at one step only.
LineCache reads log Phi_b on one horizontal line from the engine, with no
package caller (nor has special.gamma2_line, its one user); both are kept
for the benchmark harness: bench/tracing.py wraps LineCache.__init__
(reading its spacing default) and LineCache.__call__, and reads the radius
and spacing attributes, so these are load-bearing.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

import numpy as np

from .errors import PoleHit
from .params import ModularParameter

__all__ = ["FaddeevDilog", "LineCache", "phi_b", "get_engine"]

_PI = np.pi
_PHASE_CACHE_BYTES = 8 << 20   # bound on one engine's cached phase rows
_POLE_TOL = 1e-7                # closest approach to the zero/pole lattice
_ENGINES: dict[tuple[float, float], "FaddeevDilog"] = {}


def _bernoulli_even(n):
    """B_2, B_4, ..., B_2n as exact Fractions.

    The tangent numbers T_k (tan x = sum_k T_k x^{2k-1} / (2k-1)!) come from
    the Knuth-Buckholtz integer recurrence, and B_2k = (-1)^{k-1} 2k T_k /
    (4^k (4^k - 1)).
    """
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return [Fraction((-1) ** (k - 1) * 2 * k * t[k], 4 ** k * (4 ** k - 1))
            for k in range(1, n + 1)]


# B_2 .. B_24: the Li_2 series below (the first term left out is below 1e-21
# at |u| <= pi/3), and the first 8 for special's Stirling series
_BERNOULLI = _bernoulli_even(12)
_LI2_COEFFS = np.array([float(bk / factorial(2 * k + 1)) for k, bk in enumerate(_BERNOULLI, 1)])


def _li2(log_w):
    """(Li_2(w), log(1 - w)) on a 1D array log w, |w| <= 1, w != 1.

    Li_2(w) = u - u^2/4 + sum_k B_2k u^{2k+1} / (2k+1)! in u = -log(1 - w)
    where Re w <= 1/2, else, by the reflection Li_2(w) = pi^2/6 - log w
    log(1 - w) - Li_2(1 - w), the same series in u = -log w: |u| <= pi/3 on
    both branches, which share one series call.  1 - w = -expm1(log w)
    keeps full precision near w = 1.
    """
    v = -np.expm1(log_w)
    lv = np.log(v)
    refl = v.real < 0.5
    u = np.where(refl, -log_w, -lv)
    u2 = u * u
    acc = _LI2_COEFFS[-1]
    for c in _LI2_COEFFS[-2::-1]:
        acc = acc * u2 + c
    li = u + u2 * (acc * u - 0.25)
    li[refl] = _PI**2 / 6 - log_w[refl] * lv[refl] - li[refl]
    return li, lv


class FaddeevDilog:
    """Vectorized evaluator of Phi_b at fixed coupling and target precision."""

    def __init__(self, b: float, tol: float = 1e-13):
        if not (b > 0 and np.isfinite(b)):
            raise ValueError("coupling b must be positive real")
        self.b = float(b)
        self.tol = float(tol)
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
        """Distance to the combined zero/pole lattice +-(c_b + i(mb + n/b)).

        Its |Im| are |c_b| + m B + n s, B = max(b, 1/b), s = step, m, n >= 0.
        For each m B up to the first one past y = |Im z| - |c_b| the nearest
        n s is the rounded one, clipped at 0, so the work grows linearly with
        |Im z|, and the memory with the number of points only.
        """
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        y = np.abs(z.imag) - self.cb_abs
        d_im = np.full(z.shape, np.inf)
        ok = y > -0.5 * self.step
        if ok.any():
            big, yk, d = max(self.b, 1.0 / self.b), y[ok], np.inf
            for m in range(int(max(yk.max(), 0.0) // big) + 2):
                r = yk - m * big
                d = np.minimum(d, np.abs(r - self.step * np.maximum(np.round(r / self.step), 0.0)))
            d_im[ok] = d
        return np.hypot(z.real, np.where(np.isfinite(d_im), d_im, 1.0))

    def check_poles(self, z):
        d = self.lattice_distance(z)
        if (d < _POLE_TOL).any():
            zbad = np.atleast_1d(np.asarray(z, dtype=complex))[d < _POLE_TOL][0]
            raise PoleHit(f"Phi_b argument {zbad} within {_POLE_TOL} of the zero/pole lattice")

    def check_line(self, y):
        """Refuse the horizontal line Im z = y through the zero/pole lattice."""
        if abs(abs(y) - self.cb_abs) < 1e-9:
            raise PoleHit(f"line Im z = {y} runs through the zero/pole lattice")

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

    def _closed_form(self, z):
        """log Phi_1 on a 1D array z (b = 1): the closed form of the module
        docstring at Re z <= 0, where |w| = |e^{2 pi z}| <= 1 and it holds at
        every Im z, and the inversion relation at Re z > 0.  Li_2 and
        log(1 - w) come from _li2 at the principal log w = 2 pi z mod 2 pi i,
        which keeps full precision near w = 1, the zero/pole lattice; z = 0
        is exactly i pi / 12.
        """
        right = z.real > 0
        zl = np.where(right, -z, z)
        zero = zl == 0
        zl[zero] = -1.0
        li, lv = _li2(2 * _PI * (zl - 1j * np.round(zl.imag)))    # log w = 2 pi z mod 2 pi i
        out = (0.5j / _PI) * li + 1j * zl * lv
        out[zero] = 1j * _PI / 12
        # log Phi_1(z) = i pi z^2 - log zeta_inv - log Phi_1(-z)
        out[right] = 1j * _PI * z[right] ** 2 - self._log_zeta_inv - out[right]
        return out

    def _evaluate(self, z, raw, starts=(0,)):
        """log Phi_b on a 1D array z: at b = 1 the closed form, else fold
        Im z into [-band, band] by the shift relations, then take Re z > 0
        from the inversion relation and Re z < -re_cut as Phi_b = 1.

        raw gets the remaining folded points with Re in [-re_cut, 0] in one
        call, as arrays increasing in Re: the points of Re z <= 0, then -z of
        those of Re z > 0, each split into one array per run z[starts[i]:
        starts[i + 1]].  It returns their log Phi_b concatenated.  The contour
        sums are well conditioned there, while at Re z > 0 the factor
        e^{2 z h0} amplifies their rounding.  Every factor is accumulated in
        log space, so no intermediate overflows where Phi_b itself is
        representable.
        """
        if self.b == 1.0:
            return self._closed_form(z)
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
        multiples of 2 pi i.  All lines take one _evaluate pass: at b = 1
        the closed form, else fold, inversion and shift factors vectorized
        across them and one _raw_grid call: each half of a folded line that
        _evaluate hands to raw (the left one and the mirrored right one) is
        again a uniform grid of step dx, so every line and half is one
        segment of one GEMM.
        """
        ns = [int(n) for _x0, n, _y in specs]
        z = np.concatenate([x0 + dx * np.arange(n) + 1j * y for x0, n, y in specs])
        starts = list(itertools.accumulate(ns[:-1], initial=0))
        logs = self._evaluate(z, lambda segs: self._raw_grid(segs, dx), starts)
        return np.split(logs, starts[1:])


class LineCache:
    """log Phi_b along a fixed horizontal line Im z = y inside the strip,
    read from the engine's direct evaluation at every query.

    radius and spacing record the arguments and never change: no table is
    kept, so a query at any x is exact to the engine.
    """

    def __init__(self, engine: FaddeevDilog, y: float, radius: float, spacing: float = 0.02):
        engine.check_line(y)
        self.engine = engine
        self.y = float(y)
        self.radius = float(radius)
        self.spacing = float(spacing)

    def __call__(self, x):
        """log Phi_b(x + i y) for a real array x."""
        z = np.asarray(x, dtype=float) + 1j * self.y
        return self.engine._evaluate(z.ravel(), self.engine._raw).reshape(z.shape)


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
