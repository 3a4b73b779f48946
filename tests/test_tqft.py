"""Boltzmann weights and the gauge-fixed state integral."""
import numpy as np
import pytest

from shapedtqft import qdilog
from shapedtqft.complexes import (GaugeFixing, random_bipyramid_angles, standalone_bipyramid,
                                  state_gauge_image)
from shapedtqft.errors import ShapeViolation
from shapedtqft.params import ModularParameter
from shapedtqft.qdilog import phi_b
from shapedtqft.quadrature import QuadratureConfig
from shapedtqft.special import hyperbolic_gamma
from shapedtqft.tqft import (BoltzmannEvaluator, check_pachner_invariance,
                             check_shape_gauge_invariance, faddeev_popov_check,
                             knot_quad_angle, partition_function, tet_weight)
from tests.conftest import LATTICE_STEPS

LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def local_gauge_image(g4):
    return np.array([g4[v1] + g4[v2] for (v1, v2) in LOCAL_EDGES])


def test_tet_weight_zero_state_symmetric(mp1):
    # all angles pi/3, s = 0: three equal gamma2 factors
    w = tet_weight(+1, np.full(3, np.pi / 3), np.zeros(6), mp1)
    g = complex(hyperbolic_gamma(mp1.delta * np.pi / 3, mp1))
    assert abs(w - g**3) < 1e-12


def test_tet_weight_rejects_non_shape(mp1):
    # same typed error as validate_angles
    for bad in ([1.0, 1.0, 1.0], [np.pi, 0.0, 0.0], [2.0, 1.5, np.pi - 3.5]):
        with pytest.raises(ShapeViolation):
            tet_weight(+1, bad, np.zeros(6), mp1)


def test_tet_weight_gauge_invariance(mp1):
    rng = np.random.default_rng(7)
    a = np.array([0.4, 1.1, np.pi - 1.5])
    for orient in (+1, -1):
        s = rng.normal(size=6)
        w0 = tet_weight(orient, a, s, mp1)
        for _ in range(20):
            bg = local_gauge_image(rng.normal(size=4))
            w1 = tet_weight(orient, a, s + bg, mp1)
            assert abs(w1 / w0 - 1) < 1e-10


def test_tet_weight_conjugation_convention(mp1):
    rng = np.random.default_rng(8)
    a = np.array([0.7, 0.9, np.pi - 1.6])
    s = rng.normal(size=6)
    wp = tet_weight(+1, a, s, mp1)
    wm = tet_weight(-1, a, s, mp1)
    assert abs(wm - np.conj(wp)) < 1e-11


def test_tet_weight_decays_in_state(mp1):
    a = np.array([0.8, 1.0, np.pi - 1.8])
    vals = []
    for r in (4.0, 8.0):
        s = np.zeros(6)
        s[0] = r
        vals.append(abs(tet_weight(+1, a, s, mp1)))
    rate = np.log(vals[0] / vals[1]) / 4.0
    assert rate > 0.1


def test_weight_gauge_invariance_full_complex(fig8, mp1):
    x, angles = fig8
    ev = BoltzmannEvaluator(x, angles, mp1)
    rng = np.random.default_rng(9)
    s = rng.normal(size=x.n_edges)
    w0 = ev.weight(s)
    for v in range(x.n_vertices):
        bg = state_gauge_image(x, {v: rng.normal()})
        assert abs(ev.weight(s + bg) / w0 - 1) < 1e-9


def direct_weight(x, angles, s, mp):
    """Product of tet_weight (direct engine) over the tetrahedra of x."""
    out = np.ones(len(s), dtype=complex)
    for t, tet in enumerate(x.tetrahedra):
        cls = [x.edge_class_of[(t, e)] for e in range(6)]
        out *= tet_weight(tet.orientation, np.asarray(angles)[t], s[:, cls], mp)
    return out


def test_fast_path_matches_exact(fig8, mp1):
    # the line-cache weight against the direct-engine oracle: the product of
    # tet_weight over the tetrahedra, each local edge read from its edge class
    x, angles = fig8
    rng = np.random.default_rng(10)
    s = rng.normal(size=(40, x.n_edges))
    fast = BoltzmannEvaluator(x, angles, mp1).weight(s)
    assert np.abs(fast / direct_weight(x, angles, s, mp1) - 1).max() < 1e-7


@pytest.mark.parametrize("h", LATTICE_STEPS)
def test_lattice_weight_matches_direct(fig8, mp1, h):
    # the lattice weight at states origin + h k against the direct engine:
    # fig8 on the free edges of its automatic gauge, and the bipyramid whose
    # boundary edges hold nonzero constants, so each row has its own offset
    rng = np.random.default_rng(14)
    x8, angles8 = fig8
    pinned = [e for (_v, e, _c) in GaugeFixing.automatic(x8).validated(x8)]
    xb, _central = standalone_bipyramid()
    origin_b = np.zeros(xb.n_edges)
    origin_b[xb.boundary_edges] = rng.uniform(-0.5, 0.5, len(xb.boundary_edges))
    cases = ((x8, angles8, np.zeros(x8.n_edges),
              [e for e in x8.interior_edges if e not in pinned]),
             (xb, random_bipyramid_angles(rng), origin_b, list(xb.interior_edges)))
    kmax = max(1, int(5.0 // h))
    for x, angles, origin, free in cases:
        k = np.zeros((200, x.n_edges), dtype=int)
        k[:, free] = rng.integers(-kmax, kmax + 1, size=(200, len(free)))
        s = origin + h * k
        lat = BoltzmannEvaluator(x, angles, mp1).on_lattice(h, origin)
        assert np.abs(lat.weight(s) / direct_weight(x, angles, s, mp1) - 1).max() <= 1e-12


def test_fig8_trapezoid_builds_no_line_cache(fig8, mp1, monkeypatch):
    # criterion 8's integral: every weight call, box probes included, reads
    # the lattice tables; the node count is that of the spline path
    built = []
    init = qdilog.LineCache.__init__
    monkeypatch.setattr(qdilog.LineCache, "__init__",
                        lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
    x, angles = fig8
    cfg = QuadratureConfig(abs_tol=2e-5, rel_tol=2e-5, phib_tol=1e-11)
    res = partition_function(x, angles, mp=mp1, cfg=cfg)
    assert res.method == "trapezoid" and res.evaluations == 617_859
    assert built == []


def test_orientation_flip_conjugates_weight(fig8, mp1):
    from shapedtqft.complexes import Gluing, build_complex
    x, angles = fig8
    flipped = build_complex(
        [-t.orientation for t in x.tetrahedra],
        [Gluing(g.tet_a, g.face_a, g.tet_b, g.face_b, g.perm) for g in x.gluings])
    rng = np.random.default_rng(11)
    s = 0.5 * rng.normal(size=x.n_edges)
    w = BoltzmannEvaluator(x, angles, mp1).weight(s)
    wf = BoltzmannEvaluator(flipped, angles, mp1).weight(s)
    assert abs(wf - np.conj(w)) < 1e-7 * abs(w)


@pytest.mark.parametrize("b,a0", [(1.0, np.pi / 2), (1.0, 1.1), (0.8, np.pi / 2)])
def test_trefoil_partition_golden(trefoil, b, a0):
    x, _ = trefoil
    mp = ModularParameter(b)
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    rest = np.pi - a0
    angles = np.array([[0.45 * rest, 0.55 * rest, a0]])
    res = partition_function(x, angles, mp=mp, cfg=cfg)
    closed = 2 * abs(phi_b(mp.u_of(a0), mp)) ** 2
    assert abs(res.value / closed - 1) < 1e-6
    assert res.dim == 1


def test_partition_dimension_formula(fig8, mp1):
    x, angles = fig8
    cfg = QuadratureConfig(abs_tol=5e-3, rel_tol=5e-3, phib_tol=1e-10)
    res = partition_function(x, angles, mp=mp1, cfg=cfg)
    assert res.dim == len(x.interior_edges) - len(x.interior_vertices) == 3


def test_gauge_choice_independent_trefoil(trefoil, mp1, cfg9):
    x, angles = trefoil
    vals = []
    for g in (GaugeFixing(((0, 0, 0.5),)), GaugeFixing(((0, 1, 0.5),)),
              GaugeFixing(((0, 1, 1.0),))):  # coefficient normalized internally
        vals.append(partition_function(x, angles, gauge=g, mp=mp1, cfg=cfg9).value)
    assert abs(vals[0] - vals[1]) < 1e-8 * abs(vals[0])
    assert vals[1] == vals[2]


def test_faddeev_popov_trefoil(trefoil, mp1, cfg9):
    x, angles = trefoil
    rep = faddeev_popov_check(x, angles, GaugeFixing(((0, 0, 0.5),)),
                              GaugeFixing(((0, 1, 0.5),)), mp1, cfg9)
    assert rep["rel_discrepancy"] < 1e-8
    same = faddeev_popov_check(x, angles, GaugeFixing(((0, 0, 0.5),)),
                               GaugeFixing(((0, 0, 0.5),)), mp1, cfg9)
    assert same["rel_discrepancy"] == 0.0


def test_shape_gauge_invariance_trefoil(trefoil, mp1, cfg9):
    x, angles = trefoil
    rep0 = check_shape_gauge_invariance(x, angles, 0, 0.0, mp1, cfg9)
    assert rep0["rel_discrepancy"] == 0.0
    rep = check_shape_gauge_invariance(x, angles, 0, 0.05, mp1, cfg9)
    assert rep["rel_discrepancy"] < 1e-6


@pytest.mark.parametrize("b", [1.0, 0.8])
def test_pachner_bipyramid_invariance(b):
    mp = ModularParameter(b)
    x, central = standalone_bipyramid()
    rng = np.random.default_rng(12)
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8)
    ang = random_bipyramid_angles(rng)
    bs = dict(zip(x.boundary_edges, rng.uniform(-0.4, 0.4, len(x.boundary_edges))))
    rep = check_pachner_invariance(x, ang, central, mp, cfg, boundary_state=bs)
    assert rep["rel_discrepancy"] < 1e-6
    assert rep["before"].dim == 1 and rep["after"].dim == 0


def test_pachner_inadmissible_reports_cleanly(mp1, cfg9):
    from shapedtqft.errors import NotApplicable
    x, central = standalone_bipyramid()
    ang = random_bipyramid_angles(np.random.default_rng(13))
    ang[0] = [0.5, np.pi - 1.0, 0.5]  # unbalanced central edge
    with pytest.raises(NotApplicable):
        check_pachner_invariance(x, ang, central, mp1, cfg9,
                                 boundary_state={e: 0.0 for e in x.boundary_edges})


def test_knot_quad_angle(fig8):
    x, angles = fig8
    knot = next(e for e, c in enumerate(x.edge_classes) if len(c) == 1)
    assert knot_quad_angle(x, angles, knot) == angles[0][0]
    with pytest.raises(ValueError):
        knot_quad_angle(x, angles, 0)


def test_renormalized_trefoil_is_one(trefoil, mp1, cfg9):
    # dividing by 2|Phi(u(alpha_knot))|^2 gives exactly 1 for the trefoil
    x, angles = trefoil
    res = partition_function(x, angles, mp=mp1, cfg=cfg9)
    knot = next(e for e, c in enumerate(x.edge_classes) if len(c) == 1)
    factor = 2 * abs(phi_b(mp1.u_of(knot_quad_angle(x, angles, knot)), mp1)) ** 2
    assert abs(res.value / factor - 1.0) < 1e-7
