"""Certified quadrature for exponentially decaying (oscillatory) integrands on R^n.

All integrands are complex-valued and vectorized: a 1D integrand maps an
array of abscissas to an array of values, an nD integrand maps an (N, dim)
array of points to N values.  integrate_nd takes every integral over R^n.
It truncates R^n to a box where an empirically fitted exponential envelope
C*exp(-mu*r), and its tail integral C*exp(-mu*r)/mu, drop below
abs_tol/(10*dim), and takes boxes of dim 1 to 4 with a nested-halving
tensor trapezoid, exponentially convergent on integrands analytic in a
strip around the real state space (Trefethen & Weideman, SIAM Review 56,
2014).  Its error estimate is halving_estimate, which every nested rule
of the package shares: with d_k = |T(h_k) - T(h_{k-1})| and
r = d_k / d_{k-1}, it is d_k r / (1 - r) when r < 1/4, else d_k (Bailey,
Jeyabalan & Li, Exp. Math. 14, 2005), floored at cfg.phib_tol * h^dim *
sum |f|, the precision of the line factors; the reported error is that plus
the truncation tail measured on the faces of the box.  A request below the
floor, and a box whose tail alone exceeds the tolerance, are refused with
QuadratureFailure; the grid cap, not a radius cap, bounds the box.  Dim 5
and up take Monte Carlo over lattice cells, whose error is a standard
error, not a bound.  A radius, a trapezoid level or a Monte Carlo value
that is not finite is refused with QuadratureFailure too.  integrate_1d
refines Gauss-Kronrod panels on a finite interval; it too meets its
tolerance or raises QuadratureFailure.  Sums are accumulated in a fixed
order so results are reproducible to the bit.

Lattice integrands.  Every point integrate_nd evaluates is a lattice point
k*h, with k an integer vector: a trapezoid node at step h; a Monte Carlo
sample's node at step _MC_STEP; a box probe at the trapezoid's step h0/4,
on the node nearest radius r = 2, 4, 8 along its ray (an axis ray e_j at
k = (r/(h0/4)) e_j exactly, a diagonal s at k = rint(r s/(|s| h0/4))),
fitted at its own radius |k| h0/4.  An nD integrand f may carry an
attribute f.lattice, a callable (h, hull) -> read that prepares, at step h
once, the nodes in the convex hull of the (M, dim) integer array hull and
returns a reader k -> values at the points k*h for (N, dim) integer arrays
k in that hull: the package's lattice integrands are products of line
factors gamma2(c + i d.x) and Phi_b(c + d.x), d an integer vector, whose
entries d.k of exact per-step tables special.LineTables.reader prepares
and reads.  The trapezoid calls f.lattice once for its first three levels
h0, h0/2 and h0/4, at step h0/4 with the 2^dim corners of the h0/4 box
(node k of level h0/2^l is node 2^(2-l) k there), and once for each later
level with the corners of its box; Monte Carlo calls it once per batch
with the corners of the batch's bounding box and the box probes once, all
rays together, with their nodes.  So every preparation before level h0/8 is at
step h0/4, and the trapezoid's finds the probes' entries filled.  All fall
back to f(k*h) without it, so an integrand with a lattice form need not be
callable.  The trapezoid enumerates the new nodes of each level row by row
along the last axis, without visiting the old ones, and passes each chunk
as the transpose of a (dim, n) array, so that every column of k is
contiguous: the reader forms its integer table indices from these columns.
The points, the box, the step sequence and the evaluation count are the
same either way.

Conjugation-even integrands.  An integrand that also carries
f.conjugation_even = True promises f(-x) = conj f(x), as the closed state
integral does at a zero origin.  Its integral is real, and the trapezoid
evaluates the origin once and, at each level, only the new nodes k > 0 in
lexicographic order: T(h) = h^dim (Re f(0) + 2 Re sum_{k > 0} f(k h)), with
the mass |f(0)| + 2 sum |f| and each face layer the sum of the half's two
layers at +-edge.  That is (full + 1)/2 evaluations; the grid cap still
counts the full grid.  Monte Carlo samples Re f instead: its value is real
and its standard error the spread of the real parts alone.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DecayEstimateFailure, QuadratureFailure

__all__ = ["QuadratureConfig", "IntegralResult", "integrate_1d", "integrate_nd", "estimate_decay",
           "halving_estimate"]

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
_TRAP_MAX_POINTS = 1 << 27  # largest grid the trapezoid may halve to
_GK_MAX_ROUNDS = 22         # panel-splitting rounds of integrate_1d
_GK_MAX_PANELS = 60_000     # panels integrate_1d may hold at once
_PROBE_RADII = (2.0, 4.0, 8.0)  # radii of the box probes along each ray
_MC_STEP = 0.05             # lattice step of the Monte Carlo cells


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    mc_samples: int = 200_000
    rng_seed: int = 0
    phib_tol: float = 1e-13             # precision requested from the special-function kernel
    force_monte_carlo: bool = False


@dataclass
class IntegralResult:
    value: complex
    error_estimate: float
    evaluations: int
    method: str  # adaptive | trapezoid | monte_carlo

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


def estimate_decay(f_abs, radii=_PROBE_RADII, floor=1e-280):
    """Fit |f| ~ C exp(-mu r) along one ray; returns (C, mu).

    f_abs maps radius -> |f|.  Raises DecayEstimateFailure when the samples
    grow outward (mu <= 0) above the underflow floor.
    """
    samples = [(float(r), float(f_abs(r))) for r in radii]
    live = [(r, v) for r, v in samples if v > floor]
    if not live:
        return floor, 1.0  # already dead at the innermost radius
    if len(live) == 1:
        return live[0][1], 2.0
    r_mean = sum(r for r, _v in live) / len(live)
    logs = [math.log(v) for _r, v in live]
    log_mean = sum(logs) / len(logs)
    dr = [r - r_mean for r, _v in live]     # closed-form least-squares line through (r, log |f|)
    slope = sum(d * (g - log_mean) for d, g in zip(dr, logs)) / sum(d * d for d in dr)
    if slope >= -1e-12:
        raise DecayEstimateFailure(
            f"integrand does not decay along a sampled ray (fitted rate {-slope:.3g})")
    return float(np.exp(log_mean - slope * r_mean)), -slope   # inf, not OverflowError, past range


def integrate_1d(f, cfg: QuadratureConfig, interval) -> IntegralResult:
    """Adaptive GK15 integration of a vectorized complex integrand over the
    finite interval (a, b) = interval.  Integrals over R take integrate_nd.
    """
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
    panels.sort(key=lambda p: p[0])
    value = sum(p[2] for p in panels)
    err_total = float(sum(p[3] for p in panels))
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
    if err_total > tol:
        raise QuadratureFailure(f"panels leave error {err_total:.3g} above tolerance "
                                f"{tol:.3g} after {len(panels)} panels")
    return IntegralResult(complex(value), err_total, counter[0], "adaptive")


def _on_lattice(f, h, hull):
    """Reader k -> f at the points k*h, for (N, dim) integer arrays k in the
    convex hull of the nodes hull: f.lattice(h, hull) when f has that form."""
    lattice = getattr(f, "lattice", None)
    read = lattice(h, np.asarray(hull, dtype=np.intp)) if lattice is not None \
        else (lambda k: f(k * h))
    return lambda k: np.asarray(read(k), dtype=complex)


def _box_corners(lo, hi):
    """The 2^dim corners of the integer box lo <= k <= hi, as (2^dim, dim) nodes."""
    return np.array(list(itertools.product(*zip(hi, lo))), dtype=np.intp)


def _probe_rays(f, rays, h):
    """Fitted (C, mu) of |f| along each row d of the integer array rays,
    from one lattice call at step h: the probe at radius R is the node k
    nearest the point R d/|d| (k = rint(R d / (|d| h))), and the fit takes
    it at its own radius |k| h."""
    unit = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    k = np.rint(unit[:, None, :] * np.array(_PROBE_RADII)[:, None] / h).astype(np.intp)
    k = k.reshape(-1, rays.shape[1])
    mags = np.abs(_on_lattice(f, h, k)(k)).reshape(len(rays), -1)
    radii = (np.linalg.norm(k, axis=1) * h).reshape(len(rays), -1)
    return [estimate_decay(dict(zip(r.tolist(), row)).__getitem__, r.tolist())
            for r, row in zip(radii, mags)]


def _estimate_box(f, dim, cfg):
    """Per-axis truncation radii with a diagonal safety check, and the
    fitted decay rates along the +ax and -ax rays (rates[ax]).

    Each axis ray is cut where both the fitted envelope c e^{-mu r} and its
    tail integral c e^{-mu r}/mu are below target.  Every probe, axis rays
    +-e_j and diagonals s together, takes one lattice call at the
    trapezoid's step h0/4, whose tables its first three levels then find
    filled: the axis probes sit at radii 2, 4, 8 exactly, the diagonals at
    the nearest nodes (exact in 4D, within 0.1 of those radii in 2D and 3D
    and 0.21 in 5D).  In 1D the diagonals are the axis rays, so only dim 2
    and up take diagonal probes.  A non-finite radius raises QuadratureFailure.
    """
    target = max(cfg.abs_tol / (10.0 * dim), 1e-280)
    eye = np.eye(dim, dtype=int)
    rays = np.stack([eye, -eye], axis=1).reshape(-1, dim)   # +e_0, -e_0, ...
    if 2 <= dim <= 3:
        rays = np.vstack([rays, list(itertools.product((1, -1), repeat=dim))])
    elif dim >= 4:
        rays = np.vstack([rays, np.ones((1, dim), dtype=int)])
    fits = _probe_rays(f, rays, _TRAP_H0 / 4)  # raises on growth along any ray
    axis, diags = fits[:2 * dim], fits[2 * dim:]
    rates = np.array([mu for _c, mu in axis]).reshape(dim, 2)
    need = [np.log(max(c / (target * min(mu, 1.0)), 1.0)) / mu + 1.0 for c, mu in axis]
    radii = np.maximum(np.reshape(need, (dim, 2)).max(axis=1), 4.0)
    for c, mu in diags:
        r_need = np.log(max(c / target, 1.0)) / mu + 1.0
        if r_need > np.linalg.norm(radii):
            radii *= min(1.8, float(r_need / np.linalg.norm(radii)) + 0.1)
    if not np.isfinite(radii).all():
        raise QuadratureFailure(f"truncation radii {radii.tolist()} are not finite (target {target:.3g})")
    return radii, rates


def halving_estimate(diff, prev_diff):
    """Error of the finer of two nested-rule values diff apart, when the
    halving before moved the value by prev_diff (None at the first).

    With r = diff / prev_diff, the later moves sum to diff * r / (1 - r) if
    they keep shrinking by r or faster, as on an analytic integrand, where
    the error squares.  r >= 1/4 is the O(h^2) rate of a kink, or no
    convergence yet: then diff, the error of the coarser value, is reported.
    """
    if prev_diff is not None and diff < 0.25 * prev_diff:
        r = diff / prev_diff
        return diff * r / (1.0 - r)
    return diff


def _level_chunks(kmax, first, half=False):
    """The new nodes of one trapezoid level on the box |k_j| <= kmax_j, in
    chunks of at most _TRAP_CHUNK nodes: (k, blocks) per chunk.

    In C order the grid is a set of rows along the last axis, one per
    prefix (the other indices).  A row holds every last-axis index at the
    first level or when some prefix index is odd, and only the odd ones
    otherwise.  With half, only the new nodes k > 0 (lexicographically
    positive), one of each pair {k, -k}: the rows from the middle prefix
    (all zeros) on, the middle row holding only its positive indices.  A
    chunk is a range of consecutive prefixes, as few as the chunk holds; its
    blocks are (prefixes, pattern): the (dim - 1, r) array of its r rows
    that hold the last-axis indices pattern, the middle row first, then the
    full rows.  k, of shape (dim, n), holds the block nodes row by row: the
    prefix columns repeated, the pattern tiled.  Only a row longer than a
    chunk is split, into pieces that each run over all the prefixes.
    """
    *pre_kmax, last_kmax = (int(m) for m in kmax)
    pre_kmax = np.array(pre_kmax, dtype=np.intp)
    pre_shape = tuple(2 * pre_kmax + 1)
    n_pre = math.prod(pre_shape)
    mid = n_pre // 2 if half else -1    # index of the middle prefix, in half mode
    line = np.arange(-last_kmax, last_kmax + 1)
    for piece in range(0, len(line), _TRAP_CHUNK):
        full = line[piece:piece + _TRAP_CHUNK]
        odd = full if first else full[(full & 1).astype(bool)]
        positive = odd[odd > 0]
        per = _TRAP_CHUNK // max(len(odd), 1)   # the most rows a chunk can hold
        start = max(mid, 0)
        while start < n_pre:
            index = np.arange(start, min(start + per, n_pre))
            pre = (np.array(np.unravel_index(index, pre_shape)) - pre_kmax[:, None] if pre_shape
                   else np.zeros((0, len(index)), dtype=np.intp))
            is_mid = index == mid
            is_full = first | np.bitwise_or.reduce(pre & 1, axis=0).astype(bool)
            lengths = np.where(is_mid, len(positive), np.where(is_full, len(full), len(odd)))
            taken = int(np.searchsorted(np.cumsum(lengths), _TRAP_CHUNK, side="right"))
            start += taken
            pre, is_mid, is_full = pre[:, :taken], is_mid[:taken], is_full[:taken]
            blocks = [(p, pat) for p, pat in ((pre[:, is_mid], positive),
                                              (pre[:, is_full & ~is_mid], full),
                                              (pre[:, ~is_full & ~is_mid], odd))
                      if p.shape[1] and len(pat)]
            k = np.empty((len(kmax), sum(p.shape[1] * len(pat) for p, pat in blocks)), np.intp)
            pos = 0
            for p, pat in blocks:   # views (dim, rows, len(pat)) of k, filled by broadcasting
                rows = k[:, pos:pos + p.shape[1] * len(pat)].reshape(len(kmax), -1, len(pat))
                rows[:-1], rows[-1] = p[:, :, None], pat
                pos += rows[0].size
            if pos:
                yield k, blocks


def _face_layers(mag, blocks, edge):
    """Sums of mag over a chunk's nodes on the layers k_j = +edge_j and
    k_j = -edge_j, one row per axis j: for a prefix axis, from the sums of
    the rows; for the last axis, from the one column of each row there."""
    layers = np.zeros((len(edge), 2))
    pos = 0
    for pre, pat in blocks:
        rows = mag[pos:pos + pre.shape[1] * len(pat)].reshape(pre.shape[1], len(pat))
        pos += rows.size
        sums = rows.sum(axis=1)
        for j, e in enumerate(edge[:-1]):
            layers[j] += sums[pre[j] == e].sum(), sums[pre[j] == -e].sum()
        layers[-1] += rows[:, pat == edge[-1]].sum(), rows[:, pat == -edge[-1]].sum()
    return layers


def _trapezoid(f, dim, cfg, radii, rates, counter):
    """Nested-halving tensor trapezoid on the box prod_j [-r_j, r_j].

    Nodes sit at k*h; each halving evaluates only the new nodes (an odd
    index on some axis), which _level_chunks enumerates row by row, and
    _face_layers sums |f| on the faces from the rows.  Every result reads at
    least three levels (the squared estimate needs two differences), so the
    first three read one lattice preparation at h0/4, and each later level
    takes its own.  The error of T(h_k) is estimated by halving_estimate of
    d_k = |T(h_k) - T(h_{k-1})| and d_{k-1}.
    Its squared form also squares away the roundoff and Phi_b noise that d_k
    carries, so it is floored at cfg.phib_tol * h^dim * sum |f|.  The
    reported error is max(estimate, floor) plus a tail bound: for each
    face, 4 * (integral of |f| over the outermost layer of odd index, new in
    the last halving) / (the fitted rate of that ray).
    The layer is measured rather than extrapolated from the fit on the axis,
    because the integrand's ridge can leave the box off the axis.  Returns
    T(h) once that error meets the tolerance.  Raises QuadratureFailure at
    the first level whose sum or mass is not finite; when the floor alone
    exceeds the tolerance, at the first level; and when the
    halving estimate meets it but the tail alone exceeds it: the box is too
    small, and halving h further would only move the measured layer towards
    the faces.  (On a coarse grid the tail is measured further inside the
    box, so it is not judged alone before the halving estimate has
    converged.)  A conjugation-even f takes the half lattice (see the
    module docstring); its value is real.
    """
    half = getattr(f, "conjugation_even", False)
    h, total, mass, value, diff, est = 2.0 * _TRAP_H0, 0j, 0.0, None, None, np.inf
    for level in itertools.count():
        h *= 0.5
        kmax = (radii // h).astype(int)
        shape = tuple(int(m) for m in 2 * kmax + 1)
        n = math.prod(shape)           # Python ints: an unbounded box must not wrap
        if n > _TRAP_MAX_POINTS:
            raise QuadratureFailure(f"trapezoid grid at h={h:.3g} would exceed {_TRAP_MAX_POINTS} "
                                    f"nodes; last halving estimate {est:.3g} above tolerance")
        edge = kmax - (kmax % 2 == 0)  # outermost odd index per axis
        layers = np.zeros((dim, 2))     # sum of |f| on the layers k_j = +edge_j, -edge_j
        if level == 0:      # h0, h0/2 and h0/4 read one preparation at step h0/4
            kmax4 = (radii // (h / 4)).astype(int)
            shared = _on_lattice(f, h / 4, _box_corners(-kmax4, kmax4))
        if level < 2:       # node k at step h is node (4 >> level) k at step h0/4
            read = lambda k, s=4 >> level: shared(s * k)
        else:
            read = shared if level == 2 else _on_lattice(f, h, _box_corners(-kmax, kmax))
        if half and value is None:
            origin = complex(read(np.zeros((1, dim), dtype=np.intp))[0])
            counter[0] += 1
        for kt, blocks in _level_chunks(kmax, value is None, half):
            vals = read(kt.T)
            total += complex(np.sum(vals))
            counter[0] += len(vals)
            mag = np.abs(vals)
            mass += float(mag.sum())
            layers += _face_layers(mag, blocks, edge)
        prev = value
        if half:    # the other half mirrors this one: f(-k) = conj f(k)
            value = h ** dim * complex(origin.real + 2.0 * total.real)
            level_mass = abs(origin) + 2.0 * mass
            layers[:] = layers.sum(axis=1, keepdims=True)
        else:
            value, level_mass = h ** dim * total, mass
        if not (np.isfinite(value) and np.isfinite(level_mass)):
            raise QuadratureFailure(f"trapezoid sum {value} (mass {level_mass:.3g}) at h={h:.3g} is not finite")
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
        floor = cfg.phib_tol * h ** dim * level_mass
        if floor > tol:
            raise QuadratureFailure(f"Phi_b precision floor {floor:.3g} (phib_tol {cfg.phib_tol:.3g}) "
                                    f"exceeds tolerance {tol:.3g}")
        if prev is None:
            continue
        prev_diff, diff = diff, abs(value - prev)
        est = max(halving_estimate(diff, prev_diff), floor)
        tail = 4.0 * h ** (dim - 1) * float(np.sum(layers / rates))
        if est + tail <= tol:
            return value, est + tail
        if est <= tol < tail:
            raise QuadratureFailure(f"truncation tail {tail:.3g} measured on the faces of the "
                                    f"box exceeds tolerance {tol:.3g}; the box is too small")


def _monte_carlo(f, dim, cfg, radii, counter):
    """Importance sampling of lattice cells with a separable Laplace envelope
    fitted to the decay: a draw x falls in the cell of k = rint(x/h), h =
    _MC_STEP, whose mass is P(k) = prod_j p_j(k_j), p(0) = 1 - e^{-mu h/2},
    p(k) = e^{-mu |k| h} sinh(mu h/2); so h^dim f(k h) / P(k) is unbiased for
    T(h) = h^dim sum_k f(k h).  Each batch reads f once, prepared on the
    corners of its nodes' bounding box.  A conjugation-even f has a real
    T(h), so its samples take Re f: the value is real and the standard
    error is the spread of the real parts alone; a non-finite value or
    error raises QuadratureFailure."""
    even = getattr(f, "conjugation_even", False)
    rng = np.random.default_rng(cfg.rng_seed)
    # per-axis rates: envelope exp(-mu_i |x_i|) with mu_i from the radius estimate
    target = max(cfg.abs_tol / (10.0 * dim), 1e-280)
    mus = np.array([max(np.log(1.0 / target) / r, 0.05) for r in radii])
    h = _MC_STEP
    nbatch = 32
    per = max(cfg.mc_samples // nbatch, 1)
    sums = []
    for _ in range(nbatch):
        u = rng.uniform(-1.0, 1.0, size=(per, dim))
        x = -np.sign(u) * np.log(1.0 - np.abs(u)) / mus[None, :]
        k = np.rint(x / h).astype(np.intp)
        mass = np.where(k == 0, -np.expm1(-0.5 * mus * h),
                        np.exp(-mus * np.abs(k) * h) * np.sinh(0.5 * mus * h)).prod(axis=1)
        fv = _on_lattice(f, h, _box_corners(k.min(axis=0), k.max(axis=0)))(k)
        if even:
            fv = fv.real
        counter[0] += per
        sums.append(np.mean(fv / mass) * h ** dim)
    sums = np.array(sums)
    value = complex(np.mean(sums))
    stderr = float(np.hypot(np.std(sums.real, ddof=1), np.std(sums.imag, ddof=1)) / np.sqrt(nbatch))
    if not (np.isfinite(value) and np.isfinite(stderr)):
        raise QuadratureFailure(f"Monte Carlo value {value} (standard error {stderr}) is not finite")
    return value, stderr


def integrate_nd(f, dim: int, cfg: QuadratureConfig) -> IntegralResult:
    """Integrate a vectorized integrand over R^dim (truncated by decay estimates).

    dim 1 to 4 take the nested-halving tensor trapezoid, dim >= 5 (or
    cfg.force_monte_carlo) Monte-Carlo importance sampling of lattice cells.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    radii, rates = _estimate_box(f, dim, cfg)
    counter = [0]
    if cfg.force_monte_carlo or dim >= 5:
        value, err = _monte_carlo(f, dim, cfg, radii, counter)
        return IntegralResult(value, err, counter[0], "monte_carlo")
    value, err = _trapezoid(f, dim, cfg, radii, rates, counter)
    return IntegralResult(complex(value), float(err), counter[0], "trapezoid")
