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
_ASCENT_MAX_ITER = 500   # gradient steps of the volume ascent
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
    """Ascend the volume along the tangential deformation space.

    Returns (maximizer, converged); raises BoundaryDegeneration when the
    ascent is pushed against the angle box (some angle within 1e-6 of
    {0, pi} with an outward gradient component).
    """
    a0 = validate_angles(x, angles)
    gens = tas_basis(x)
    if not gens:
        return a0.copy(), True
    gmat = np.stack([g.ravel() for g in gens])
    # orthonormal basis of the span
    u, s, _vt = np.linalg.svd(gmat, full_matrices=False)
    basis = _vt[s > 1e-10 * s[0]]
    k = len(basis)
    if k == 0:
        return a0.copy(), True

    flat0 = a0.ravel()

    def angles_of(c):
        return flat0 + c @ basis

    def grad_of(a):
        return basis @ (-np.log(2.0 * np.sin(a)))

    c = np.zeros(k)
    step = 1.0
    for _it in range(_ASCENT_MAX_ITER):
        a = angles_of(c)
        grad = grad_of(a)
        gn = float(np.linalg.norm(grad))
        if gn < max(tol, 1e-6):
            break
        v_here = float(np.sum(lobachevsky(a)))
        step = min(step * 4.0, 1.0)
        while True:
            trial = angles_of(c + step * grad)
            inside = (trial > _BOX_MARGIN).all() and (trial < np.pi - _BOX_MARGIN).all()
            if inside and float(np.sum(lobachevsky(trial))) > v_here + 0.25 * step * gn**2:
                break
            step *= 0.5
            if step < 1e-14:
                if not inside or (np.minimum(a, np.pi - a) < 10 * _BOX_MARGIN).any():
                    raise BoundaryDegeneration(
                        "volume ascent ran into the boundary of the angle box")
                break  # flat curvature: hand over to the Newton polish
        if step < 1e-14:
            break
        c = c + step * grad
    # Newton polish on the chart (the volume is strictly concave there)
    for _it in range(40):
        a = angles_of(c)
        grad = grad_of(a)
        gn = float(np.linalg.norm(grad))
        if gn < tol:
            return angles_of(c).reshape(a0.shape), True
        hess = -(basis * (1.0 / np.tan(a))[None, :]) @ basis.T
        try:
            dc = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        while scale > 1e-12:
            trial = angles_of(c + scale * dc)
            if (trial > _BOX_MARGIN).all() and (trial < np.pi - _BOX_MARGIN).all():
                break
            scale *= 0.5
        c = c + scale * dc
    gn = float(np.linalg.norm(grad_of(angles_of(c))))
    return angles_of(c).reshape(a0.shape), gn < tol


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
