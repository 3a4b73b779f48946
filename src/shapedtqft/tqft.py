"""Tetrahedral Boltzmann weights and the gauge-fixed state integral.

A positively oriented tetrahedron with quad angles (a_0, a_1, a_2) and edge
state s contributes

    prod_q gamma2( delta * a(q) + i * (s~(succ q) - s~(succ^2 q)) ),

where s~(q) is the sum of the state over q's opposite edge pair.  Negative
tetrahedra use the reversed difference, which equals the complex conjugate
of the positive weight at real states; this is the unique convention
compatible with unitarity of the quantum dilogarithm.  So at a zero origin
(a closed complex, or zero boundary states) B(-s) = conj B(s) and W is
real: partition_function marks its integrand conjugation-even there, and
the trapezoid takes half the lattice (see quadrature).

The partition function integrates the total weight over interior-edge
states with one coordinate delta function per interior vertex: delta(c*s_e)
pins s_e = 0 and contributes 1/|c| (c = 1/2 on a loop edge, else 1).
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .complexes import QUAD_PAIRS, GaugeFixing, Triangulation, validate_angles
from .errors import InvalidGauge, ShapeViolation, WeightOutOfRange
from .params import ModularParameter
from .quadrature import QuadratureConfig, integrate_nd
from .special import LineTables, gamma2_line, hyperbolic_gamma

__all__ = ["tet_weight", "BoltzmannEvaluator", "PartitionResult", "partition_function",
           "check_pachner_invariance", "check_shape_gauge_invariance",
           "faddeev_popov_check", "knot_quad_angle"]


def tet_weight(orientation: int, angles3, s6, mp: ModularParameter,
               tol: float = 1e-13):
    """Boltzmann weight of one tetrahedron; s6 is (..., 6) over local edges."""
    a = np.asarray(angles3, dtype=float)
    if abs(a.sum() - np.pi) > 1e-9 or (a <= 0).any() or (a >= np.pi).any():
        raise ShapeViolation(f"angles {a} are not a shape (positive, sum pi)")
    s = np.atleast_2d(np.asarray(s6, dtype=float))
    stil = np.stack([s[:, QUAD_PAIRS[q][0]] + s[:, QUAD_PAIRS[q][1]] for q in range(3)], axis=1)
    args = np.empty((s.shape[0], 3), dtype=complex)
    for q in range(3):
        d = stil[:, (q + 1) % 3] - stil[:, (q + 2) % 3]
        if orientation < 0:
            d = -d
        args[:, q] = mp.delta * a[q] + 1j * d
    out = hyperbolic_gamma(args, mp, tol).prod(axis=-1)
    return out[0] if np.ndim(s6) == 1 else out


class BoltzmannEvaluator:
    """Vectorized total weight B(X, s) as a function of edge-class states.

    Per quad factor the dilogarithm argument runs along a fixed horizontal
    line; identical (angle, state-dependence) rows are collapsed to
    multiplicities.  A copy made by on_lattice(h, origin, variables, hull)
    serves states origin + h k for integer vectors k on the edges
    `variables` in the convex hull of the nodes hull, which the trapezoid
    of dim 1 to 4 asks for once per level (the corners of its box), the box
    probes once per ray family and the dim-0 state once: there each row's
    argument is its constant plus an integer multiple of h, and the weight
    multiplies factors read exactly from the shared LineTables, prepared
    when the copy is made.  The evaluator itself serves states off any
    lattice (Monte Carlo): it sums mult * log gamma2 over the rows, each
    read from its line's gamma2_line evaluator (a spline LineCache
    underneath), and takes one exp per state.
    """

    def __init__(self, x: Triangulation, angles, mp: ModularParameter,
                 cfg: QuadratureConfig | None = None):
        self.x = x
        self.angles = validate_angles(x, angles)
        self.mp = mp
        self.cfg = cfg or QuadratureConfig()
        coeff = np.zeros((x.n_tets, 3, x.n_edges))
        for t in range(x.n_tets):
            for q in range(3):
                for eidx in QUAD_PAIRS[q]:
                    coeff[t, q, x.edge_class_of[(t, eidx)]] += 1.0
        groups = {}
        for t in range(x.n_tets):
            sgn = x.tetrahedra[t].orientation
            for q in range(3):
                d = coeff[t, (q + 1) % 3] - coeff[t, (q + 2) % 3]
                d = d if sgn > 0 else -d
                key = (round(mp.delta * self.angles[t, q], 14), tuple(np.round(d, 12)))
                groups[key] = groups.get(key, 0) + 1
        rows = sorted(groups.items())
        self._bases = [base_r for (base_r, _), _ in rows]
        self._diff = np.array([diff_r for (_, diff_r), _ in rows])   # (rows, n_edges)
        self._mults = [mult for _, mult in rows]
        self._lines = {}
        self._tables = LineTables(mp, self.cfg.phib_tol)
        self._lattice = None    # (scale, per-row (terms, M_r, table)) on a copy from on_lattice

    def on_lattice(self, h: float, origin, variables, hull):
        """This evaluator for states origin + h k, where k is an integer vector
        on the edges `variables` (the other edges hold origin's values) in the
        convex hull of the nodes hull, of shape (M, len(variables)).

        The copy shares the rows and the tables of this evaluator, and its
        weight takes the integer array k of shape (N, len(variables)), not
        states.  Row r's argument is then c_r + m_r h with c_r = origin .
        diff_r and the integer m_r = k . D_r, D_r = diff_r on `variables`,
        kept as its nonzero terms (j, D_rj); its gamma2 comes from the table
        of the offset base_r + i c_r at step h.  The table work is done here,
        once for the hull: every row's span |m_r| <= M_r, M_r the largest
        |D_r . p| over the nodes p of hull (m_r is linear in k), is reserved
        in one call, a row with a real offset (c_r = 0, every row at a zero
        origin) only at m >= 0, its m < 0 taken by conjugation:
        gamma2(c - i m h) = conj gamma2(c + i m h) for real c.  Each row's
        table is the exp of mult_r * log gamma2 less its largest real part
        top_r, so every entry has modulus <= 1.  The weight is the scale
        e^{sum of top_r} times the factors of the rows with M_r = 0 (whose m
        is 0), which must be a finite nonzero double or WeightOutOfRange is
        raised, times the product over the other rows of table_r[m_r + M_r].
        """
        h = float(h)
        rows = np.rint(self._diff[:, list(variables)]).astype(int)
        reach = np.abs(rows @ np.asarray(hull, dtype=int).T).max(axis=1)
        spans = [(base + 1j * c, 0 if c == 0 else -hi, hi) for base, c, hi in
                 zip(self._bases, self._diff @ np.asarray(origin, dtype=float), reach.tolist())]
        self._tables.reserve([(self._tables.gamma2_key(c, h), lo, hi) for c, lo, hi in spans])
        factors, log_scale = [], 0j
        for (c, lo, hi), mult, d in zip(spans, self._mults, rows.tolist()):
            logs = self._tables.gamma2_span(c, h, lo, hi)
            if lo == 0:     # mirror a real offset's m >= 0 onto m < 0
                logs = np.concatenate([logs[:0:-1].conj(), logs])
            if mult != 1:
                logs = mult * logs
            if not hi:
                log_scale += logs[0]
                continue
            top = logs.real.max()
            log_scale += top
            factors.append(([(j, c) for j, c in enumerate(d) if c], hi, logs - top))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            scale = np.exp(log_scale)
        if not (np.isfinite(scale) and scale != 0):
            raise WeightOutOfRange(f"weight scale exp({log_scale:.6g}) is not a finite nonzero "
                                   f"double at step h = {h:g}")
        lat = copy.copy(self)
        lat._lattice = (scale, [(terms, hi, np.exp(logs)) for terms, hi, logs in factors])
        return lat

    def weight(self, states):
        """B(X, s) for states of shape (n_edges,) or (N, n_edges); on a copy
        from on_lattice, for integer k of shape (len(variables),) or
        (N, len(variables))."""
        if self._lattice is not None:
            out = self._lattice_weight(np.atleast_2d(np.asarray(states, dtype=np.intp)))
        else:
            s = np.atleast_2d(np.asarray(states, dtype=float))
            logw = np.zeros(s.shape[0], dtype=complex)
            for base, mult, dr in zip(self._bases, self._mults, self._diff @ s.T):
                line = self._lines.get(base)
                if line is None:    # sized to the first states; the cache grows on demand
                    rad = float(np.abs(dr).max()) + 4.0 if dr.size else 6.0
                    line = self._lines[base] = gamma2_line(base, self.mp, self.cfg.phib_tol, rad)
                logw += mult * line(dr)
            out = np.exp(logw)
        return out[0] if np.ndim(states) == 1 else out

    def _lattice_weight(self, k):
        """The weight at the integer nodes k, shape (N, len(variables)), from
        the tables on_lattice prepared: each row's index m_r + M_r is formed
        by adding and subtracting integer columns of k, and its entries are
        gathered and multiplied."""
        scale, factors = self._lattice
        out = np.full(len(k), scale)
        for ((j, c), *rest), hi, table in factors:
            m = c * k[:, j] + hi
            for j, c in rest:           # small integer entries: add or subtract columns
                if c == 1:
                    m += k[:, j]
                elif c == -1:
                    m -= k[:, j]
                else:
                    m += c * k[:, j]
            out *= table[m]
        return out


@dataclass
class PartitionResult:
    value: complex
    error_estimate: float
    dim: int
    gauge: str
    evaluations: int
    method: str

    def to_json_dict(self, mp: ModularParameter, config_hash: str = ""):
        return {"W_re": self.value.real, "W_im": self.value.imag,
                "abs_err": self.error_estimate, "dim": self.dim,
                "gauge": self.gauge, "b": mp.b, "config_hash": config_hash}


def _assemble_states(x, variables, pinned, boundary_state):
    """Closure building full edge-state rows from integration variables."""
    n_e = x.n_edges
    fixed = np.zeros(n_e)
    if boundary_state is not None:
        for e, v in (boundary_state.items() if isinstance(boundary_state, dict)
                     else zip(x.boundary_edges, boundary_state)):
            fixed[e] = v
    for e in pinned:
        fixed[e] = 0.0
    var_idx = np.array(variables, dtype=int)

    def build(tmat):
        s = np.tile(fixed, (len(tmat), 1))
        if len(var_idx):
            s[:, var_idx] = tmat
        return s
    return build


def partition_function(x: Triangulation, angles, boundary_state=None,
                       gauge: GaugeFixing | None = None,
                       mp: ModularParameter | None = None,
                       cfg: QuadratureConfig | None = None) -> PartitionResult:
    """Gauge-fixed state integral over the interior edges of X."""
    mp = mp or ModularParameter(1.0)
    cfg = cfg or QuadratureConfig()
    if gauge is None:
        gauge = GaugeFixing.automatic(x)
    assigned = gauge.validated(x)
    if x.boundary_edges and boundary_state is None:
        raise InvalidGauge("complex has boundary edges; a boundary state is required")
    pinned = [e for (_v, e, _c) in assigned]
    jacobian = float(np.prod([1.0 / abs(c) for (_v, _e, c) in assigned])) if assigned else 1.0
    variables = [e for e in x.interior_edges if e not in pinned]
    dim = len(variables)
    if dim != len(x.interior_edges) - len(x.interior_vertices):
        raise InvalidGauge("gauge does not eliminate exactly one edge per interior vertex")
    ev = BoltzmannEvaluator(x, angles, mp, cfg)
    build = _assemble_states(x, variables, pinned, boundary_state)
    gauge_desc = ";".join(f"v{v}:e{e}*{c}" for (v, e, c) in assigned) or "none"
    origin = build(np.zeros((1, dim)))[0]
    if dim == 0:
        node = np.zeros((1, 0), dtype=np.intp)
        val = ev.on_lattice(1.0, origin, variables, node).weight(node[0])
        return PartitionResult(complex(jacobian * val), 0.0, 0, gauge_desc, 1, "exact")

    def integrand(tm):
        return ev.weight(build(tm))

    integrand.lattice = lambda h, hull: ev.on_lattice(h, origin, variables, hull).weight
    # at a zero origin every row has a real offset, and B(-s) = conj B(s)
    integrand.conjugation_even = not origin.any()
    res = integrate_nd(integrand, dim, cfg)
    return PartitionResult(jacobian * res.value, jacobian * res.error_estimate,
                           dim, gauge_desc, res.evaluations, res.method)


def knot_quad_angle(x: Triangulation, angles, edge_class: int):
    """Angle of the quad separating a degree-1 (knot) edge; used to peel off
    the factor 2*|Phi_b(u(angle))|^2 when renormalizing H-triangulations."""
    from .complexes import EDGE_TO_QUAD
    cls = x.edge_classes[edge_class]
    if len(cls) != 1:
        raise ValueError(f"edge {edge_class} has degree {len(cls)}; expected a knot edge of degree 1")
    t, e = cls[0]
    return float(np.asarray(angles)[t][EDGE_TO_QUAD[e]])


def _compare(w1: PartitionResult, w2: PartitionResult):
    """{"before", "after", "rel_discrepancy"}: the discrepancy is
    |W1 - W2| / max(|W1|, |W2|), and 0 when both vanish."""
    denom = max(abs(w1.value), abs(w2.value))
    rel = abs(w1.value - w2.value) / denom if denom else 0.0
    return {"before": w1, "after": w2, "rel_discrepancy": float(rel)}


def check_pachner_invariance(x, angles, edge_class, mp, cfg, boundary_state=None,
                             gauge=None):
    """Compare W before/after the shaped 3-2 move at matched boundary states."""
    from .complexes import pachner_32
    x2, angles2, edge_map = pachner_32(x, edge_class, angles)
    bs2 = None
    if boundary_state is not None:
        bs_full = dict(boundary_state) if isinstance(boundary_state, dict) \
            else dict(zip(x.boundary_edges, boundary_state))
        bs2 = {edge_map[e]: v for e, v in bs_full.items() if edge_map[e] is not None}
    return _compare(partition_function(x, angles, boundary_state, gauge, mp, cfg),
                    partition_function(x2, angles2, bs2, None, mp, cfg))


def check_shape_gauge_invariance(x, angles, edge_class, t, mp, cfg,
                                 boundary_state=None, gauge=None):
    """Compare W(a) with W(a + t*g_edge), the angles moved along an edge's shape gauge."""
    from .complexes import shape_gauge_transform
    angles2 = shape_gauge_transform(x, angles, edge_class, t)
    return _compare(partition_function(x, angles, boundary_state, gauge, mp, cfg),
                    partition_function(x, angles2, boundary_state, gauge, mp, cfg))


def faddeev_popov_check(x, angles, gauge_a: GaugeFixing, gauge_b: GaugeFixing,
                        mp, cfg, boundary_state=None):
    """Gauge-fixing independence: W(gauge_a) vs W(gauge_b)."""
    return _compare(partition_function(x, angles, boundary_state, gauge_a, mp, cfg),
                    partition_function(x, angles, boundary_state, gauge_b, mp, cfg))
