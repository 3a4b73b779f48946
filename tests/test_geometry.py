"""Volume, gauge-class maximization, shape parameters, gluing residuals."""
import numpy as np
import pytest

from shapedtqft.complexes import edge_loop, shape_gauge_transform, tas_basis
from shapedtqft.data import load as load_bundled
from shapedtqft.errors import BoundaryDegeneration, NotCritical
from shapedtqft.geometry import (angle_holonomy_eigenvalue_report, gluing_residual,
                                 maximize_volume_in_gauge_class, shape_parameters,
                                 shape_volume, volume_gradient)
from shapedtqft.special import lobachevsky


def gauge_class_start(x, base, rng, scale=0.3):
    a = np.asarray(base, dtype=float).copy()
    for g in tas_basis(x):
        trial = a + rng.uniform(-scale, scale) * g
        if (trial > 0.05).all() and (trial < np.pi - 0.05).all():
            a = trial
    return a


def near_box_start(base, g, gap=1e-3):
    """base + t g with the largest t > 0 that keeps every angle gap inside (0, pi)."""
    a, d = np.asarray(base, dtype=float), np.asarray(g, dtype=float)
    t = min((np.pi - gap - av) / dv if dv > 0 else (av - gap) / -dv
            for av, dv in zip(a.ravel(), d.ravel()) if abs(dv) > 1e-12)
    return a + t * d


def test_volume_symmetric_values(fig8_complement):
    x, angles = fig8_complement
    v = shape_volume(angles)
    assert abs(v - 6 * lobachevsky(np.pi / 3)) < 1e-14
    assert abs(v - 2.029883212819307) < 1e-12


def test_volume_vanishing_degenerate_term():
    a = np.array([[1e-9, np.pi / 2, np.pi / 2 - 1e-9]])
    term = lobachevsky(1e-9)
    assert abs(term) < 1e-7  # L(0) = 0, continuous
    assert shape_volume(a) < 0.1


def test_volume_quad_relabeling_invariance():
    rng = np.random.default_rng(40)
    a = rng.dirichlet(np.ones(3), size=4) * np.pi
    assert abs(shape_volume(a) - shape_volume(np.roll(a, 1, axis=1))) < 1e-13


def test_maximizer_fixed_point(fig8_complement):
    x, angles = fig8_complement
    beta, ok = maximize_volume_in_gauge_class(x, angles, tol=1e-11)
    assert ok and np.abs(beta - np.asarray(angles)).max() < 1e-9


def test_figure_eight_complete_structure(fig8_complement):
    x, angles = fig8_complement
    rng = np.random.default_rng(41)
    for _ in range(3):
        start = gauge_class_start(x, angles, rng)
        assert shape_volume(start) < shape_volume(angles)
        beta, ok = maximize_volume_in_gauge_class(x, start, tol=1e-11)
        assert ok
        assert np.abs(beta - np.pi / 3).max() < 1e-6
        res = gluing_residual(x, beta)
        assert max(abs(v) for v in res.values()) < 1e-8


def test_boundary_degeneration_contract(fig8_complement):
    # a start hugging the box either converges inward or degenerates, never
    # silently returns an invalid shape
    x, angles = fig8_complement
    gens = tas_basis(x)
    a = np.asarray(angles, float) + 0.0
    g = gens[0]
    tmax = min((np.pi / 3 - 1e-3) / abs(v) for v in g.ravel() if abs(v) > 1e-12)
    start = a + tmax * g  # within 1e-3 of the boundary
    try:
        beta, ok = maximize_volume_in_gauge_class(x, start, tol=1e-11)
        assert (beta > 0).all() and (beta < np.pi).all()
        assert np.abs(beta - np.pi / 3).max() < 1e-6
    except BoundaryDegeneration:
        pass


@pytest.mark.parametrize("name", ["bipyramid", "fig8", "fig8_complement", "knot52",
                                  "knot61", "trefoil"])
def test_maximizer_on_every_bundled_complex(name):
    # from seeded gauge-class starts and from starts 1e-3 off the angle box
    # along the first four generators (both signs), each run either refuses
    # or converges inside (0, pi), no lower in volume, to the one maximizer of
    # the class, which a restart reproduces
    x, angles = load_bundled(name + ".json")
    ref, ok = maximize_volume_in_gauge_class(x, angles, tol=1e-11)
    assert ok
    rng = np.random.default_rng(48)
    starts = [gauge_class_start(x, angles, rng) for _ in range(5)]
    starts += [near_box_start(angles, sign * g) for g in tas_basis(x)[:4] for sign in (1, -1)]
    converged = 0
    for start in starts:
        try:
            beta, ok = maximize_volume_in_gauge_class(x, start, tol=1e-11)
        except BoundaryDegeneration:
            continue
        assert ok
        assert (beta > 0).all() and (beta < np.pi).all()
        assert shape_volume(beta) >= shape_volume(start)
        assert np.abs(beta - ref).max() < 1e-9
        again, ok = maximize_volume_in_gauge_class(x, beta, tol=1e-11)
        assert ok and np.abs(again - beta).max() <= 1e-12
        converged += 1
    assert converged > 0


def test_gradient_vs_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = rng.dirichlet(np.ones(3), size=2) * np.pi
        a = np.clip(a, 0.05, np.pi - 0.05)
        g = volume_gradient(a)
        h = 1e-6
        idx = (rng.integers(0, 2), rng.integers(0, 3))
        ap, am = a.copy(), a.copy()
        ap[idx] += h
        am[idx] -= h
        fd = (np.sum(lobachevsky(ap)) - np.sum(lobachevsky(am))) / (2 * h)
        assert abs(g[idx] - fd) < 1e-6 * max(1.0, abs(fd))


def test_concavity_along_gauge_segments(fig8_complement):
    x, angles = fig8_complement
    rng = np.random.default_rng(43)
    for _ in range(10):
        a1 = gauge_class_start(x, angles, rng)
        a2 = gauge_class_start(x, angles, rng)
        mid = 0.5 * (a1 + a2)
        assert shape_volume(mid) >= 0.5 * (shape_volume(a1) + shape_volume(a2)) - 1e-12


def test_holonomy_preserved_on_chart(fig8):
    from shapedtqft.complexes import angle_holonomy
    x, angles = fig8
    rng = np.random.default_rng(44)
    for e in x.interior_edges:
        a2 = shape_gauge_transform(x, angles, e, rng.uniform(-0.04, 0.04))
        for e2 in x.interior_edges:
            loop = edge_loop(x, e2)
            h1 = angle_holonomy(x, np.asarray(angles), loop)
            h2 = angle_holonomy(x, a2, loop)
            assert abs(h1 - h2) < 1e-12


def test_shape_parameter_rotation_identities():
    rng = np.random.default_rng(45)
    a = rng.dirichlet(np.ones(3), size=50) * np.pi
    a = np.clip(a, 1e-3, np.pi - 1e-3)
    a[:, 2] = np.pi - a[:, 0] - a[:, 1]
    z = shape_parameters(a)
    ok = np.abs(a.sum(axis=1) - np.pi) < 1e-12
    z0, z1, z2 = z[ok, 0], z[ok, 1], z[ok, 2]
    assert np.abs(z1 - (1 - 1 / z0)).max() < 1e-10
    assert np.abs(z2 - 1 / (1 - z0)).max() < 1e-10
    assert np.abs(z0 * z1 * z2 + 1).max() < 1e-10
    assert (z0.imag > 0).all()


def test_gluing_residual_negative_control(fig8_complement):
    x, angles = fig8_complement
    rng = np.random.default_rng(46)
    skew = gauge_class_start(x, angles, rng)
    res = gluing_residual(x, skew)
    assert max(abs(v) for v in res.values()) > 1e-2


def test_gluing_residual_empty_for_unglued():
    from shapedtqft.complexes import build_complex
    x = build_complex([+1], [])
    assert gluing_residual(x, np.array([[1.0, 1.0, np.pi - 2.0]])) == {}


def test_holonomy_report(fig8_complement):
    x, angles = fig8_complement
    loops = [edge_loop(x, e) for e in x.interior_edges]
    rep = angle_holonomy_eigenvalue_report(x, np.asarray(angles), loops)
    for entry in rep:
        assert abs(entry["holonomy"] - 2 * np.pi) < 1e-9
        assert abs(entry["phase"][0] - np.pi) < 1e-9
    assert angle_holonomy_eigenvalue_report(x, np.asarray(angles), []) == []


def test_holonomy_report_requires_critical(fig8_complement):
    x, angles = fig8_complement
    rng = np.random.default_rng(47)
    skew = gauge_class_start(x, angles, rng)
    with pytest.raises(NotCritical):
        angle_holonomy_eigenvalue_report(x, skew, [])
