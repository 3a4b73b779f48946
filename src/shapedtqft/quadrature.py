"""Certified quadrature for exponentially decaying (oscillatory) integrands on R^n.

All integrands are complex-valued and vectorized: a 1D integrand maps an
array of abscissas to an array of values, an nD integrand maps an (N, dim)
array of points to N values.  Infinite domains are truncated at a radius
where an empirically fitted exponential envelope C*exp(-mu*r) drops below
abs_tol/(10*dim).  1D panels are refined with a nested Gauss-Kronrod pair;
2D and 3D boxes take a nested-halving tensor trapezoid, exponentially
convergent on integrands analytic in a strip around the real state space
(Trefethen & Weideman, SIAM Review 56, 2014).  Its error is the halving
difference plus the truncation tail measured on the faces of the box; a
box whose tail alone exceeds the tolerance is refused with
QuadratureFailure.  Sums are accumulated in a fixed order so results are
reproducible to the bit.

Lattice integrands.  Every point the trapezoid and the box probes evaluate
is a lattice point k*h, with k an integer vector: a trapezoid node at step
h, an axis probe r*e_j as (k = e_j, h = r), a diagonal probe (r/sqrt(dim))*s
for a sign vector s as (k = s, h = r/sqrt(dim)).  An nD integrand f may
carry an attribute f.lattice, a callable (k, h) -> values at the points
k*h for an (N, dim) integer array k; these two rules call it instead of
f(k*h), so that f can index exact per-step tables rather than interpolate.
The points, the box, the step sequence and the evaluation count are the
same either way.  Gauss-Kronrod panels, the dim-4 tensor grid and Monte
Carlo evaluate off the lattice and always call f itself.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DecayEstimateFailure, QuadratureFailure

__all__ = ["QuadratureConfig", "IntegralResult", "integrate_1d", "integrate_nd", "estimate_decay"]

# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529])
_WG7 = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870])
_GAUSS_IDX = np.arange(1, 15, 2)  # Gauss-7 nodes sit at the odd Kronrod positions

_TRAP_H0 = 0.8              # first trapezoid step
_TRAP_CHUNK = 1 << 15       # points per integrand call; bounds peak memory
_TRAP_MAX_POINTS = 1 << 24  # largest grid the trapezoid may halve to
_GK_MAX_ROUNDS = 22         # panel-splitting rounds of integrate_1d
_GK_MAX_PANELS = 60_000     # panels integrate_1d may hold at once


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    truncation_radius: float | str = "auto"
    contour_shift: float = 0.0          # delta used by callers for R - i*delta contours
    mc_samples: int = 200_000
    rng_seed: int = 0
    phib_tol: float = 1e-13             # precision requested from the special-function kernel
    force_monte_carlo: bool = False


@dataclass
class IntegralResult:
    value: complex
    error_estimate: float
    evaluations: int
    method: str  # adaptive | trapezoid | tensor | monte_carlo

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")


def _panel_eval(f, a, b, counter):
    """Evaluate GK15/G7 on the panels [a_i, b_i] with one vectorized call."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * _XGK[None, :]
    vals = np.asarray(f(pts.ravel()), dtype=complex).reshape(pts.shape)
    counter[0] += pts.size
    ik = (vals @ _WGK) * half
    ig = (vals[:, _GAUSS_IDX] @ _WG7) * half
    err = np.abs(ik - ig)
    # standard GK error sharpening: (200 |ik-ig|)^{1.5} scaled by panel magnitude
    scale = (np.abs(vals) @ _WGK) * np.abs(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        sharp = np.where(scale > 0, scale * np.minimum(1.0, (200.0 * err / np.maximum(scale, 1e-300)) ** 1.5), 0.0)
    err = np.where(sharp > 0, np.minimum(err, sharp), err)
    return ik, err


def estimate_decay(f_abs, radii=(2.0, 4.0, 8.0), floor=1e-280):
    """Fit |f| ~ C exp(-mu r) along one ray; returns (C, mu).

    f_abs maps radius -> |f|.  Raises DecayEstimateFailure when the samples
    grow outward (mu <= 0) above the underflow floor.
    """
    rs = np.asarray(radii, dtype=float)
    vals = np.array([float(f_abs(r)) for r in rs])
    live = vals > floor
    if not live.any():
        return floor, 1.0  # already dead at the innermost radius
    if live.sum() == 1:
        return float(vals[live][0]), 2.0
    rs, vals = rs[live], vals[live]
    logs = np.log(vals)
    slope, intercept = np.polyfit(rs, logs, 1)
    if slope >= -1e-12:
        raise DecayEstimateFailure(
            f"integrand does not decay along a sampled ray (fitted rate {-slope:.3g})")
    return float(np.exp(intercept)), float(-slope)


def _truncation_radius_1d(f, cfg):
    """(-rm, rp, tail_bound): cut where the fitted envelope is below abs_tol/10."""
    if cfg.truncation_radius != "auto":
        r = float(cfg.truncation_radius)
        return (-r, r, 0.0)
    c, mu = estimate_decay(lambda r: np.abs(f(np.array([r])))[0])
    c2, mu2 = estimate_decay(lambda r: np.abs(f(np.array([-r])))[0])
    target = max(cfg.abs_tol / 10.0, 1e-280)
    rp = max(6.0, np.log(max(c / target, 1.0)) / mu + 1.0)
    rm = max(6.0, np.log(max(c2 / target, 1.0)) / mu2 + 1.0)
    rp, rm = min(rp, 200.0), min(rm, 200.0)
    # safety factor 4: radial samples of an oscillatory |f| can sit below the
    # true envelope (e.g. at cosine minima), biasing the fitted amplitude low
    tail = 4.0 * ((c / mu) * np.exp(-mu * rp) + (c2 / mu2) * np.exp(-mu2 * rm))
    return (-rm, rp, float(tail))


def integrate_1d(f, cfg: QuadratureConfig, interval=None) -> IntegralResult:
    """Adaptive GK15 integration of a vectorized complex integrand.

    interval defaults to a symmetric truncation of the real line sized from
    the decay estimate (cfg.truncation_radius overrides).
    """
    tail = 0.0
    if interval is None:
        a, b, tail = _truncation_radius_1d(f, cfg)
    else:
        a, b = float(interval[0]), float(interval[1])
    counter = [0]
    width = b - a
    n0 = max(8, min(256, int(np.ceil(width / 1.0))))
    edges = np.linspace(a, b, n0 + 1)
    ivals, errs = _panel_eval(f, edges[:-1], edges[1:], counter)
    panels = [[edges[i], edges[i + 1], ivals[i], errs[i], 0] for i in range(n0)]
    for _round in range(_GK_MAX_ROUNDS):
        total = sum(p[2] for p in panels)
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        err_total = sum(p[3] for p in panels)
        if err_total <= tol:
            break
        cut = max(tol / (2.0 * len(panels)), err_total / (8.0 * len(panels)))
        splitting = [p for p in panels if p[3] > cut]
        if not splitting:
            break
        if len(panels) + len(splitting) > _GK_MAX_PANELS:
            raise QuadratureFailure(
                f"panel budget exhausted ({len(panels)} panels, error {err_total:.3g} > tol {tol:.3g})")
        keep = [p for p in panels if p[3] <= cut]
        aa = np.concatenate([[p[0], 0.5 * (p[0] + p[1])] for p in splitting])
        bb = np.concatenate([[0.5 * (p[0] + p[1]), p[1]] for p in splitting])
        ivn, ern = _panel_eval(f, aa, bb, counter)
        children = [[aa[i], bb[i], ivn[i], ern[i], 0] for i in range(len(aa))]
        for j, p in enumerate(splitting):
            children[2 * j][4] = children[2 * j + 1][4] = p[4] + 1
        panels = keep + children
    else:
        err_total = sum(p[3] for p in panels)
        total = sum(p[2] for p in panels)
        if err_total > max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            raise QuadratureFailure(
                f"max_depth={_GK_MAX_ROUNDS} reached with error {err_total:.3g}")
    panels.sort(key=lambda p: p[0])
    value = sum(p[2] for p in panels)
    err_total = float(sum(p[3] for p in panels)) + tail
    return IntegralResult(complex(value), err_total, counter[0], "adaptive")


def _on_lattice(f, k, h):
    """f at the points k*h (k an (N, dim) integer array), through f.lattice
    when f has that form."""
    lattice = getattr(f, "lattice", None)
    return np.asarray(lattice(k, h) if lattice is not None else f(k * h), dtype=complex)


def _estimate_box(f, dim, cfg):
    """Per-axis truncation radii with a diagonal safety check, and the
    fitted decay rates along the +ax and -ax rays (rates[ax])."""
    target = max(cfg.abs_tol / (10.0 * dim), 1e-280)
    radii, rates = [], np.zeros((dim, 2))
    for ax in range(dim):
        r_axis = 4.0
        for sgn in (+1, -1):
            def probe(r, ax=ax, sgn=sgn):
                k = np.zeros((1, dim), dtype=int)
                k[0, ax] = sgn
                return abs(_on_lattice(f, k, r)[0])
            c, mu = estimate_decay(probe)
            rates[ax, int(sgn < 0)] = mu
            r_axis = max(r_axis, np.log(max(c / target, 1.0)) / mu + 1.0)
        radii.append(min(r_axis, 120.0))
    radii = np.array(radii)
    diags = [np.ones(dim, dtype=int)]
    if dim <= 3:
        diags = [np.array(s) for s in itertools.product((1, -1), repeat=dim)]
    for d in diags:
        def probe(r, d=d):
            return abs(_on_lattice(f, d[None, :], r / np.sqrt(dim))[0])
        c, mu = estimate_decay(probe)  # raises on growth along the diagonal
        r_need = np.log(max(c / target, 1.0)) / mu + 1.0
        if r_need > np.linalg.norm(radii):
            radii *= min(1.8, float(r_need / np.linalg.norm(radii)) + 0.1)
    return radii, rates


def _trapezoid(f, dim, cfg, radii, rates, counter):
    """Nested-halving tensor trapezoid on the box prod_j [-r_j, r_j].

    Nodes sit at k*h; each halving evaluates only the new nodes (an odd
    index on some axis), in C-order slices.  The error of T(h/2) is
    |T(h) - T(h/2)| plus a tail bound: for each face, 4 * (integral of |f|
    over the outermost layer of odd index, new in the last halving) / (the
    fitted rate of that ray).  The layer is measured rather than
    extrapolated from the fit on the axis, because the integrand's ridge can
    leave the box off the axis.  Returns T(h/2) once that error meets the
    tolerance.  Raises QuadratureFailure when the halving difference meets
    it but the tail alone exceeds it: the box is too small, and halving h
    further would only move the measured layer towards the faces.  (On a
    coarse grid the tail is measured further inside the box, so it is not
    judged alone before the halving difference has converged.)
    """
    h, total, value, err = 2.0 * _TRAP_H0, 0j, None, np.inf
    while True:
        h *= 0.5
        kmax = (radii // h).astype(int)
        shape = tuple(2 * kmax + 1)
        n = int(np.prod(shape))
        if n > _TRAP_MAX_POINTS:
            raise QuadratureFailure(f"trapezoid grid at h={h:.3g} would exceed {_TRAP_MAX_POINTS} "
                                    f"nodes; last halving difference {err:.3g} above tolerance")
        edge = kmax - (kmax % 2 == 0)  # outermost odd index per axis
        layers = np.zeros((dim, 2))     # sum of |f| on the layers k_j = +edge_j, -edge_j
        for lo in range(0, n, _TRAP_CHUNK):
            kt = np.array(np.unravel_index(np.arange(lo, min(lo + _TRAP_CHUNK, n)), shape))
            kt -= kmax[:, None]        # one row per axis
            if value is not None:
                kt = kt[:, np.bitwise_or.reduce(kt & 1, axis=0).astype(bool)]
            vals = _on_lattice(f, kt.T, h)
            total += complex(np.sum(vals))
            counter[0] += len(vals)
            mag = np.abs(vals)
            layers += [[mag[kj == e].sum(), mag[kj == -e].sum()] for kj, e in zip(kt, edge)]
        prev, value = value, h ** dim * total
        if prev is not None:
            err = abs(value - prev)
            tail = 4.0 * h ** (dim - 1) * float(np.sum(layers / rates))
            tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
            if err + tail <= tol:
                return value, err + tail
            if err <= tol < tail:
                raise QuadratureFailure(f"truncation tail {tail:.3g} measured on the faces of the "
                                        f"box exceeds tolerance {tol:.3g}; the box is too small")


def _tensor4(f, cfg, radii, counter):
    """Reduced-node tensor Gauss grid for dim=4 with an embedded error estimate."""
    n = int(min(max(40, 10 * max(radii)), 64))
    vals = {}
    for nn in (n, n - 8):
        xs, ws = np.polynomial.legendre.leggauss(nn)
        axes = [(xs * r, ws * r) for r in radii]  # map [-1,1] -> [-r, r]
        grid = np.stack(np.meshgrid(*[a[0] for a in axes], indexing="ij"), axis=-1).reshape(-1, 4)
        wmesh = np.meshgrid(*[a[1] for a in axes], indexing="ij")
        wgt = np.ones_like(wmesh[0])
        for wm in wmesh:
            wgt = wgt * wm
        chunks = []
        csz = 200_000
        for i in range(0, len(grid), csz):
            chunks.append(np.asarray(f(grid[i:i + csz]), dtype=complex))
        fv = np.concatenate(chunks)
        counter[0] += len(grid)
        vals[nn] = complex(np.sum(fv * wgt.ravel()))
    err = abs(vals[n] - vals[n - 8])
    return vals[n], err


def _monte_carlo(f, dim, cfg, radii, counter):
    """Importance sampling with a separable Laplace envelope fitted to the decay."""
    rng = np.random.default_rng(cfg.rng_seed)
    # per-axis rates: envelope exp(-mu_i |x_i|) with mu_i from the radius estimate
    target = max(cfg.abs_tol / (10.0 * dim), 1e-280)
    mus = np.array([max(np.log(1.0 / target) / r, 0.05) for r in radii])
    nbatch = 32
    per = max(cfg.mc_samples // nbatch, 1)
    sums = []
    for _ in range(nbatch):
        u = rng.uniform(-1.0, 1.0, size=(per, dim))
        x = -np.sign(u) * np.log(1.0 - np.abs(u)) / mus[None, :]
        q = np.prod(0.5 * mus[None, :] * np.exp(-mus[None, :] * np.abs(x)), axis=1)
        fv = np.asarray(f(x), dtype=complex)
        counter[0] += per
        sums.append(np.mean(fv / q))
    sums = np.array(sums)
    value = complex(np.mean(sums))
    stderr = float(np.hypot(np.std(sums.real, ddof=1), np.std(sums.imag, ddof=1)) / np.sqrt(nbatch))
    return value, stderr


def integrate_nd(f, dim: int, cfg: QuadratureConfig) -> IntegralResult:
    """Integrate a vectorized integrand over R^dim (truncated by decay estimates).

    dim == 1 uses adaptive GK15 panels, dim 2 and 3 the nested-halving
    tensor trapezoid, dim == 4 a reduced tensor Gauss grid, dim >= 5 (or
    cfg.force_monte_carlo) Monte-Carlo importance sampling.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if dim == 1 and not cfg.force_monte_carlo:
        return integrate_1d(lambda t: f(t[:, None]), cfg)
    radii, rates = _estimate_box(f, dim, cfg)
    counter = [0]
    if cfg.force_monte_carlo or dim >= 5:
        value, err = _monte_carlo(f, dim, cfg, radii, counter)
        return IntegralResult(value, err, counter[0], "monte_carlo")
    if dim == 4:
        value, err = _tensor4(f, cfg, radii, counter)
        return IntegralResult(value, err, counter[0], "tensor")
    value, err = _trapezoid(f, dim, cfg, radii, rates, counter)
    return IntegralResult(complex(value), float(err), counter[0], "trapezoid")
