"""Hyperbolic-volume layer: Lobachevsky volume of shape structures, concave
maximization over an edge-holonomy gauge class, Thurston shape parameters
and gluing residuals.

Shape parameter of a quad: z(q) = e^{i a(q)} sin a(q'') / sin a(q') with
(q', q'') the cyclic successors; the rotation identities are
z(q') = 1 - 1/z(q) and z(q'') = 1/(1 - z(q)).
"""
from __future__ import annotations

import numpy as np

from .complexes import EDGE_TO_QUAD, Triangulation, tas_basis, validate_angles
from .errors import BoundaryDegeneration, NotCritical
from .special import lobachevsky

__all__ = ["shape_parameters", "shape_volume", "volume_gradient",
           "maximize_volume_in_gauge_class", "gluing_residual",
           "angle_holonomy_eigenvalue_report"]

_BOX_MARGIN = 1e-6
_ASCENT_MAX_ITER = 500   # Newton steps of the volume ascent
_CRIT_TOL = 1e-6         # largest gluing residual of a critical shape


def shape_parameters(angles):
    """Per-quad complex shape variables z(q); Im z > 0 for valid shapes."""
    a = np.asarray(angles, dtype=float)
    z = np.empty(a.shape, dtype=complex)
    for q in range(3):
        z[:, q] = np.exp(1j * a[:, q]) * np.sin(a[:, (q + 2) % 3]) / np.sin(a[:, (q + 1) % 3])
    return z


def shape_volume(angles) -> float:
    """Sum of Lobachevsky terms over all quads (hyperbolic volume)."""
    return float(np.sum(lobachevsky(np.asarray(angles, dtype=float))))


def volume_gradient(angles):
    """d(volume)/d(angle) = -log|2 sin(angle)| per quad."""
    a = np.asarray(angles, dtype=float)
    return -np.log(2.0 * np.sin(a))


def maximize_volume_in_gauge_class(x: Triangulation, angles, tol: float = 1e-10):
    """Maximize the volume over the gauge class of `angles` by damped Newton ascent.

    On the chart of an orthonormal basis B of span(tas_basis) the volume is
    strictly concave, with gradient B grad V and Hessian -B diag(cot a) B^T.
    Each Newton step is halved until every angle stays 1e-6 inside (0, pi)
    (or, already closer, gets no closer) and the volume clears the Armijo
    line less 1e-14 |V| for rounding.  Returns (maximizer, converged):
    converged once the chart gradient norm is below tol, False on a singular
    Hessian or after _ASCENT_MAX_ITER steps.  Raises BoundaryDegeneration
    when the halving bottoms out against the angle box.
    """
    a0 = validate_angles(x, angles)
    gens = tas_basis(x)
    if not gens:
        return a0.copy(), True
    _u, s, vt = np.linalg.svd(np.stack([g.ravel() for g in gens]), full_matrices=False)
    basis = vt[s > 1e-10 * s[0]]
    a = a0.flatten()
    for _it in range(_ASCENT_MAX_ITER):
        grad = basis @ volume_gradient(a)
        if np.linalg.norm(grad) < tol:
            return a.reshape(a0.shape), True
        try:
            dc = np.linalg.solve(-(basis / np.tan(a)) @ basis.T, -grad)
        except np.linalg.LinAlgError:
            break
        v_here, slope, step = shape_volume(a), float(grad @ dc), 1.0
        floor = np.minimum(_BOX_MARGIN, np.minimum(a, np.pi - a))
        while True:
            trial = a + step * (dc @ basis)
            if ((np.minimum(trial, np.pi - trial) >= floor).all()
                    and shape_volume(trial) >= v_here + 0.25 * step * slope
                    - 1e-14 * abs(v_here)):
                break
            step *= 0.5
            if step < 1e-14:
                raise BoundaryDegeneration(
                    "volume ascent ran into the boundary of the angle box")
        a = trial
    return a.reshape(a0.shape), False


def gluing_residual(x: Triangulation, angles):
    """Per interior edge: (product of shape parameters around the edge) - 1.

    Positively oriented tetrahedra contribute z of the separating quad,
    negatively oriented ones 1/conj(z).
    """
    a = validate_angles(x, angles)
    z = shape_parameters(a)
    out = {}
    for e in x.interior_edges:
        prod = 1.0 + 0.0j
        for (t, eidx) in x.edge_classes[e]:
            zq = z[t][EDGE_TO_QUAD[eidx]]
            prod *= zq if x.tetrahedra[t].orientation > 0 else 1.0 / np.conj(zq)
        out[e] = prod - 1.0
    return out


def angle_holonomy_eigenvalue_report(x: Triangulation, angles, loops):
    """Holonomies and predicted holonomy-eigenvalue phases +-h/2 per loop.

    Requires a critical shape (all gluing residuals below 1e-6); no
    representation matrices are constructed.
    """
    from .complexes import angle_holonomy
    res = gluing_residual(x, angles)
    worst = max((abs(v) for v in res.values()), default=0.0)
    if worst > _CRIT_TOL:
        raise NotCritical(f"largest gluing residual {worst:.3g} exceeds {_CRIT_TOL}")
    report = []
    for loop in loops:
        h = angle_holonomy(x, angles, loop)
        report.append({"holonomy": h, "phase": (h / 2.0, -h / 2.0)})
    return report
