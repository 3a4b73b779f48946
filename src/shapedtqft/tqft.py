"""Tetrahedral Boltzmann weights and the gauge-fixed state integral.

A positively oriented tetrahedron with quad angles (a_0, a_1, a_2) and edge
state s contributes

    prod_q gamma2( delta * a(q) + i * (s~(succ q) - s~(succ^2 q)) ),

where s~(q) is the sum of the state over q's opposite edge pair.  Negative
tetrahedra use the reversed difference, which equals the complex conjugate
of the positive weight at real states; this is the unique convention
compatible with unitarity of the quantum dilogarithm.  On edge-class states
the difference is Triangulation.quad_forms[t, q] . s, which the Boltzmann
rows read; tet_weight, on local states, is the independent reference.  So
at a zero origin (a closed complex, or zero boundary states) B(-s) =
conj B(s) and W is real: partition_function marks its integrand
conjugation-even there, and the trapezoid takes half the lattice (see
quadrature).

The partition function integrates the total weight over interior-edge
states with one coordinate delta function per interior vertex: delta(c*s_e)
pins s_e = 0 and contributes 1/|c| (c = 1/edge_ends[e, v]: 1/2 on a loop
edge, else 1).
"""
from __future__ import annotations

import copy
import math
import numbers
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .complexes import (EDGE_TO_QUAD, QUAD_PAIRS, GaugeFixing, Triangulation, pachner_32,
                        shape_gauge_transform, validate_angles, validate_shape)
from .errors import InvalidGauge, NotApplicable
from .params import ModularParameter
from .quadrature import QuadratureConfig, integrate_nd
from .special import LineTables, hyperbolic_gamma

__all__ = ["tet_weight", "BoltzmannEvaluator", "PartitionResult", "partition_function",
           "check_pachner_invariance", "check_shape_gauge_invariance",
           "faddeev_popov_check", "knot_quad_angle"]


def tet_weight(orientation: int, angles3, s6, mp: ModularParameter,
               tol: float = 1e-13):
    """Boltzmann weight of one tetrahedron; s6 is (..., 6) over local edges."""
    a = validate_shape(angles3)
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
    line; the rows (delta * angle, quad_forms[t, q]) are collapsed to
    multiplicities, in lexicographic order.  A copy made by
    on_lattice(h, origin, variables, hull) serves states origin + h k for
    integer vectors k on the edges `variables` in the convex hull of the
    nodes hull, which the trapezoid of dim 1 to 4 asks for once for its
    first three levels (at step h0/4) and once per later level (the corners
    of its box), Monte Carlo once per batch (the corners of its bounding
    box), the box probes once (their nodes, at step h0/4 too) and the dim-0
    state once: there row r is the line factor
    gamma2(base_r + i c_r + i (D_r . k) h)^mult_r, D_r an integer vector,
    the form the identity integrands declare too, and the weight is the
    shared LineTables' reader on those factors.
    """

    def __init__(self, x: Triangulation, angles, mp: ModularParameter,
                 cfg: QuadratureConfig | None = None):
        self.x = x
        self.angles = validate_angles(x, angles)
        self.mp = mp
        self.cfg = cfg or QuadratureConfig()
        bases = [round(mp.delta * self.angles[t, q], 14) for t in range(x.n_tets) for q in range(3)]
        rows, mults = np.unique(np.column_stack([bases, x.quad_forms.reshape(-1, x.n_edges)]),
                                axis=0, return_counts=True)
        self._bases = rows[:, 0].tolist()
        self._diff = rows[:, 1:].astype(int)   # (rows, n_edges): the rows' quad forms
        self._mults = mults.tolist()
        self._tables = LineTables(mp, self.cfg.phib_tol)
        self._lattice = None    # the LineTables reader, on a copy from on_lattice

    def on_lattice(self, h: float, origin, variables, hull):
        """This evaluator for states origin + h k, where k is an integer vector
        on the edges `variables` (the other edges hold origin's values) in the
        convex hull of the nodes hull, of shape (M, len(variables)); its
        weight takes k of shape (N, len(variables)), not states.  Row r is
        the factor ("g2", base_r + i c_r, D_r, mult_r), c_r = origin . diff_r
        and D_r = diff_r on `variables`, of this evaluator's LineTables.
        """
        rows = self._diff[:, list(variables)]
        offsets = self._diff @ np.asarray(origin, dtype=float)
        factors = [("g2", base + 1j * c, d, mult)
                   for base, c, d, mult in zip(self._bases, offsets, rows, self._mults)]
        lat = copy.copy(self)
        lat._lattice = self._tables.reader(factors, h, hull)
        return lat

    def weight(self, k):
        """B(X, origin + h k) on a copy from on_lattice, for integer k of
        shape (len(variables),) or (N, len(variables))."""
        if self._lattice is None:
            raise TypeError("the weight reads a lattice: call it on a copy from on_lattice")
        out = self._lattice(np.atleast_2d(np.asarray(k, dtype=np.intp)))
        return out[0] if np.ndim(k) == 1 else out


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


def _boundary_values(x: Triangulation, boundary_state):
    """{boundary edge: value} from a dict keyed by the boundary edges of x or
    a sequence in x.boundary_edges order (None on a closed complex); anything
    but one finite real value per boundary edge raises InvalidGauge."""
    edges = x.boundary_edges
    if boundary_state is None and edges:
        raise InvalidGauge("complex has boundary edges; a boundary state is required")
    if isinstance(boundary_state, dict):
        ok, values = set(boundary_state) == set(edges), [boundary_state.get(e) for e in edges]
    else:
        values = list(() if boundary_state is None else boundary_state)
        ok = len(values) == len(edges)
    if not (ok and all(isinstance(v, numbers.Real) and math.isfinite(v) for v in values)):
        raise InvalidGauge(f"a boundary state takes one finite real value per boundary "
                           f"edge {edges}, not {boundary_state!r}")
    return dict(zip(edges, map(float, values)))


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
    fixed = _boundary_values(x, boundary_state)
    origin = np.zeros(x.n_edges)
    origin[list(fixed)] = list(fixed.values())
    pinned = [e for (_v, e, _c) in assigned]
    jacobian = float(np.prod([1.0 / abs(c) for (_v, _e, c) in assigned])) if assigned else 1.0
    variables = [e for e in x.interior_edges if e not in pinned]
    dim = len(variables)
    if dim != len(x.interior_edges) - len(x.interior_vertices):
        raise InvalidGauge("gauge does not eliminate exactly one edge per interior vertex")
    ev = BoltzmannEvaluator(x, angles, mp, cfg)
    gauge_desc = ";".join(f"v{v}:e{e}*{c}" for (v, e, c) in assigned) or "none"
    if dim == 0:
        node = np.zeros((1, 0), dtype=np.intp)
        val = ev.on_lattice(1.0, origin, variables, node).weight(node[0])
        return PartitionResult(complex(jacobian * val), 0.0, 0, gauge_desc, 1, "exact")
    # the integrand is its lattice form alone: quadrature reads every point there;
    # at a zero origin every row has a real offset, and B(-s) = conj B(s)
    integrand = SimpleNamespace(
        lattice=lambda h, hull: ev.on_lattice(h, origin, variables, hull).weight,
        conjugation_even=not origin.any())
    res = integrate_nd(integrand, dim, cfg)
    return PartitionResult(jacobian * res.value, jacobian * res.error_estimate,
                           dim, gauge_desc, res.evaluations, res.method)


def knot_quad_angle(x: Triangulation, angles, edge_class: int):
    """Angle of the quad separating a degree-1 (knot) edge; used to peel off
    the factor 2*|Phi_b(u(angle))|^2 when renormalizing H-triangulations.
    Angles that are no shape structure raise ShapeViolation."""
    if edge_class not in range(x.n_edges):
        raise NotApplicable(f"edge {edge_class} is not an edge class of the complex")
    cls = x.edge_classes[edge_class]
    if len(cls) != 1:
        raise NotApplicable(f"edge {edge_class} has degree {len(cls)}; "
                            "expected a knot edge of degree 1")
    t, e = cls[0]
    return float(validate_angles(x, angles)[t][EDGE_TO_QUAD[e]])


def _compare(w1: PartitionResult, w2: PartitionResult):
    """{"before", "after", "rel_discrepancy"}: the discrepancy is
    |W1 - W2| / max(|W1|, |W2|), and 0 when both vanish."""
    denom = max(abs(w1.value), abs(w2.value))
    rel = abs(w1.value - w2.value) / denom if denom else 0.0
    return {"before": w1, "after": w2, "rel_discrepancy": float(rel)}


def check_pachner_invariance(x, angles, edge_class, mp, cfg, boundary_state=None,
                             gauge=None):
    """Compare W before/after the shaped 3-2 move at matched boundary states."""
    x2, angles2, edge_map = pachner_32(x, edge_class, angles)
    bs2 = {edge_map[e]: v for e, v in _boundary_values(x, boundary_state).items()}
    return _compare(partition_function(x, angles, boundary_state, gauge, mp, cfg),
                    partition_function(x2, angles2, bs2, None, mp, cfg))


def check_shape_gauge_invariance(x, angles, edge_class, t, mp, cfg,
                                 boundary_state=None, gauge=None):
    """Compare W(a) with W(a + t*g_edge), the angles moved along an edge's shape gauge."""
    angles2 = shape_gauge_transform(x, angles, edge_class, t)
    return _compare(partition_function(x, angles, boundary_state, gauge, mp, cfg),
                    partition_function(x, angles2, boundary_state, gauge, mp, cfg))


def faddeev_popov_check(x, angles, gauge_a: GaugeFixing, gauge_b: GaugeFixing,
                        mp, cfg, boundary_state=None):
    """Gauge-fixing independence: W(gauge_a) vs W(gauge_b)."""
    return _compare(partition_function(x, angles, boundary_state, gauge_a, mp, cfg),
                    partition_function(x, angles, boundary_state, gauge_b, mp, cfg))
