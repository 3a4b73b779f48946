"""Combinatorics: quotient cells, gauge maps, tangential deformations, moves."""
import json

import numpy as np
import pytest

from shapedtqft.complexes import (EDGE_INDEX, EDGE_TO_QUAD, GaugeFixing, Gluing,
                                  angle_holonomy, build_complex, edge_loop,
                                  edge_weight, from_json_dict, pachner_32,
                                  random_bipyramid_angles, shape_gauge_transform,
                                  standalone_bipyramid, state_gauge_image, tas_basis,
                                  validate_angles)
from shapedtqft.data import load as load_bundled
from shapedtqft.errors import (BadGluing, BadLoop, InvalidGauge, NotApplicable,
                               ShapeViolation)

ID = (0, 1, 2)


def test_trefoil_quotient_counts(trefoil):
    x, _ = trefoil
    assert x.n_tets == 1 and x.n_vertices == 1 and x.n_edges == 2
    # knot edge = local (0,3), alone in its class
    knot = x.edge_class_of[(0, EDGE_INDEX[(0, 3)])]
    assert x.edge_classes[knot] == [(0, 2)]
    assert len(x.edge_classes[1 - knot]) == 5


def test_unglued_tetrahedron():
    x = build_complex([+1], [])
    assert x.n_vertices == 4 and x.n_edges == 6
    assert len(x.boundary_faces) == 4
    assert x.interior_edges == [] and x.interior_vertices == []


def test_fig8_edge_classes_match_listed_identifications(fig8):
    # quotient must reproduce the published four classes {x, y, z, x'}
    x, _ = fig8
    degrees = sorted(len(c) for c in x.edge_classes)
    assert degrees == [1, 5, 5, 7]
    knot = next(c for c in x.edge_classes if len(c) == 1)
    assert knot == [(0, EDGE_INDEX[(2, 3)])]
    xclass = next(c for c in x.edge_classes if len(c) == 7)
    assert (0, EDGE_INDEX[(0, 1)]) in xclass and (2, EDGE_INDEX[(2, 3)]) in xclass


def test_knot52_and_knot61_structure():
    x52, _ = load_bundled("knot52.json")
    assert x52.n_vertices == 1 and sorted(len(c) for c in x52.edge_classes) == [1, 5, 5, 6, 7]
    x61, _ = load_bundled("knot61.json")
    assert x61.n_vertices == 1 and sorted(len(c) for c in x61.edge_classes) == [1, 4, 5, 6, 6, 8]
    assert x61.edge_classes[x61.edge_class_of[(0, 0)]] == [(0, 0)]  # knot edge


def test_bad_gluings_rejected():
    with pytest.raises(BadGluing):  # doubly used face (both maps orientation-ok)
        build_complex([+1, +1], [Gluing(0, 0, 1, 1, ID), Gluing(0, 0, 1, 3, ID)])
    with pytest.raises(BadGluing):  # orientation-preserving map
        build_complex([+1, +1], [Gluing(0, 0, 1, 0, ID)])
    with pytest.raises(BadGluing):  # not a permutation
        build_complex([+1, +1], [Gluing(0, 0, 1, 0, (0, 0, 2))])


def test_state_gauge_image_zero_and_indicator():
    x = build_complex([+1], [])
    assert np.abs(state_gauge_image(x, {})).max() == 0.0
    v0 = x.vertex_class_of[(0, 0)]
    bg = state_gauge_image(x, {v0: 1.0})
    vals = {e: bg[x.edge_class_of[(0, e)]] for e in range(6)}
    assert vals[EDGE_INDEX[(0, 1)]] == 1.0 and vals[EDGE_INDEX[(2, 3)]] == 0.0


def test_state_gauge_image_loops_double(trefoil):
    x, _ = trefoil
    bg = state_gauge_image(x, {0: 1.0})
    assert np.allclose(bg, 2.0)  # every edge is a loop at the single vertex


@pytest.mark.parametrize("name", ["trefoil.json", "fig8.json", "knot52.json",
                                  "knot61.json", "fig8_complement.json"])
def test_gauge_map_injective(name):
    x, _ = load_bundled(name)
    m = np.stack([state_gauge_image(x, {v: 1.0}) for v in range(x.n_vertices)], axis=1)
    assert np.linalg.matrix_rank(m) == x.n_vertices


def test_quad_difference_gauge_invariant(fig8):
    # s~(q') - s~(q'') is unchanged under s -> s + bg for all basis potentials
    x, _ = fig8
    rng = np.random.default_rng(0)
    s = rng.normal(size=x.n_edges)
    coeff = np.zeros((x.n_tets, 3, x.n_edges))
    for t in range(x.n_tets):
        for q in range(3):
            from shapedtqft.complexes import QUAD_PAIRS
            for eidx in QUAD_PAIRS[q]:
                coeff[t, q, x.edge_class_of[(t, eidx)]] += 1
    for v in range(x.n_vertices):
        bg = state_gauge_image(x, {v: 1.0})
        for t in range(x.n_tets):
            for q in range(3):
                d = coeff[t, (q + 1) % 3] - coeff[t, (q + 2) % 3]
                assert abs(d @ bg) < 1e-14


def test_edge_weight_trefoil_example(trefoil):
    x, angles = trefoil
    w = [edge_weight(x, angles, e) for e in range(2)]
    assert abs(sum(w) - 2 * np.pi) < 1e-12


def test_holonomy_equals_weight_on_edge_loops():
    for name in ("fig8.json", "knot52.json", "knot61.json"):
        x, _ = load_bundled(name)
        rng = np.random.default_rng(1)
        a = rng.dirichlet(np.ones(3), size=x.n_tets) * np.pi
        for e in x.interior_edges:
            loop = edge_loop(x, e)
            assert abs(angle_holonomy(x, a, loop) - edge_weight(x, a, e)) < 1e-12


def test_empty_loop_and_bad_loop(fig8):
    x, angles = fig8
    assert angle_holonomy(x, angles, []) == 0.0
    with pytest.raises(BadLoop):
        angle_holonomy(x, angles, [(0, 1, 1)])
    with pytest.raises(BadLoop):  # disconnected steps
        angle_holonomy(x, angles, [(0, 0, 1), (1, 2, 3)])


@pytest.mark.parametrize("name", ["trefoil.json", "fig8.json", "knot52.json",
                                  "knot61.json"])
def test_tas_generators_properties(name):
    # per-tetrahedron sums and all edge weights vanish (checked inside), and
    # for sphere vertex links the span matches the brute-force null space of
    # the defining linear system (torus links carry extra cycle generators
    # that around-vertex loops do not reach)
    x, _ = load_bundled(name)
    gens = tas_basis(x)
    rows = []
    for t in range(x.n_tets):  # per-tet sum constraints
        r = np.zeros(3 * x.n_tets)
        r[3 * t: 3 * t + 3] = 1.0
        rows.append(r)
    for e in range(x.n_edges):  # per-edge weight constraints
        r = np.zeros(3 * x.n_tets)
        for (t, eidx) in x.edge_classes[e]:
            r[3 * t + EDGE_TO_QUAD[eidx]] += 1.0
        rows.append(r)
    null_dim = 3 * x.n_tets - np.linalg.matrix_rank(np.stack(rows))
    span = np.stack([g.ravel() for g in gens]) if gens else np.zeros((0, 3 * x.n_tets))
    assert np.linalg.matrix_rank(span) == null_dim


def test_tas_complement_subspace(fig8_complement):
    # torus vertex link: around-vertex generators span a strict subspace
    x, _ = fig8_complement
    gens = tas_basis(x)
    span = np.stack([g.ravel() for g in gens])
    assert np.linalg.matrix_rank(span) >= 1


def test_tas_single_tetrahedron_trivial():
    from shapedtqft.complexes import build_complex
    x = build_complex([+1], [])
    assert tas_basis(x) == []  # no interior edges, only the zero space


def test_shape_gauge_transform_properties(fig8):
    x, angles = fig8
    rng = np.random.default_rng(2)
    assert np.allclose(shape_gauge_transform(x, angles, 0, 0.0), angles)
    for e in x.interior_edges:
        t = rng.uniform(-0.05, 0.05)
        a2 = shape_gauge_transform(x, angles, e, t)
        assert np.abs(a2.sum(axis=1) - np.pi).max() < 1e-12
        for e2 in range(x.n_edges):  # all weights preserved (tangential direction)
            assert abs(edge_weight(x, a2, e2) - edge_weight(x, angles, e2)) < 1e-12
    with pytest.raises(ShapeViolation):
        shape_gauge_transform(x, angles, 0, 50.0)


def test_pachner_32_bipyramid_combinatorics():
    x, central = standalone_bipyramid()
    assert len(x.boundary_faces) == 6 and x.n_edges == 10
    ang = random_bipyramid_angles(np.random.default_rng(3))
    x2, ang2, emap = pachner_32(x, central, ang)
    assert x2.n_tets == 2 and x2.n_edges == 9 and len(x2.boundary_faces) == 6
    assert emap[central] is None
    assert sorted(v for v in emap.values() if v is not None) == list(range(9))
    validate_angles(x2, ang2)
    # boundary face lattice preserved:同 multiset of per-face edge-class triples
    def face_edge_sets(xx, mapping=None):
        out = []
        for (t, f) in xx.boundary_faces:
            vs = [v for v in range(4) if v != f]
            es = []
            for i in range(3):
                for j in range(i + 1, 3):
                    e = xx.edge_class_of[(t, EDGE_INDEX[tuple(sorted((vs[i], vs[j])))])]
                    es.append(mapping[e] if mapping else e)
            out.append(tuple(sorted(es)))
        return sorted(out)
    assert face_edge_sets(x, emap) == face_edge_sets(x2)


def test_pachner_32_angle_transfer_preserves_spokes():
    # result angle at each outer spoke equals the source dihedral sum there
    x, central = standalone_bipyramid()
    ang = random_bipyramid_angles(np.random.default_rng(4))
    x2, ang2, emap = pachner_32(x, central, ang)
    for e_old in range(x.n_edges):
        e_new = emap[e_old]
        if e_new is None:
            continue
        w_old = edge_weight(x, ang, e_old)
        w_new = edge_weight(x2, ang2, e_new)
        assert abs(w_old - w_new) < 1e-9


def test_pachner_32_preconditions():
    x, central = standalone_bipyramid()
    ang = random_bipyramid_angles(np.random.default_rng(5))
    # unbalanced edge
    bad = ang.copy()
    bad[0] = np.array([0.5, np.pi - 1.0, 0.5])
    with pytest.raises(NotApplicable):
        pachner_32(x, central, bad)
    # boundary edge (degree != 3 interior)
    boundary_edge = next(e for e in range(x.n_edges) if e != central)
    with pytest.raises(NotApplicable):
        pachner_32(x, boundary_edge, ang)
    # induced angle out of (0, pi): push one spoke sum above pi
    skew = random_bipyramid_angles(np.random.default_rng(6))
    skew[0][0] += skew[0][2] - 0.02
    skew[0][2] = 0.02
    skew[1][0] += skew[1][1] - 0.02
    skew[1][1] = 0.02
    try:
        pachner_32(x, central, skew)
    except (ShapeViolation, NotApplicable):
        pass  # either degeneration is acceptable for this contrived shape


def test_pachner_32_refuses_edge_outside_the_complex(fig8):
    # an edge class outside range(n_edges) is refused by name: 99 is no
    # IndexError, and -1 does not take the last edge class
    x, angles = fig8
    xb, _central = standalone_bipyramid()
    for xx, ang in ((x, angles), (xb, random_bipyramid_angles(np.random.default_rng(5)))):
        for edge in (xx.n_edges, 99, -1):
            with pytest.raises(NotApplicable, match=f"edge {edge} is not an edge class"):
                pachner_32(xx, edge, ang)


def test_degree4_edge_not_applicable():
    # four tetrahedra around one edge: suspension of a square
    gl = [Gluing(0, 0, 3, 3, ID), Gluing(0, 2, 1, 3, ID),
          Gluing(1, 0, 2, 3, ID), Gluing(2, 0, 3, 1, ID)]
    x = build_complex([+1, +1, +1, +1], gl)
    central = x.edge_class_of[(0, EDGE_INDEX[(1, 3)])]
    if central in x.interior_edges and len(x.edge_classes[central]) == 4:
        ang = np.tile([np.pi / 4, np.pi / 2, np.pi / 4], (4, 1))
        with pytest.raises(NotApplicable):
            pachner_32(x, central, ang)


def test_gauge_fixing_rules(trefoil):
    x, _ = trefoil
    auto = GaugeFixing.automatic(x)
    assert auto.assignments == ((0, 0, 0.5),)  # loop edge -> coefficient 1/2
    # any nonzero user coefficient on a loop normalizes to 1/2
    assert GaugeFixing(((0, 1, 1.0),)).validated(x) == ((0, 1, 0.5),)
    with pytest.raises(InvalidGauge):
        GaugeFixing(((0, 1, 0.0),)).validated(x)
    with pytest.raises(InvalidGauge):
        GaugeFixing(()).validated(x)


def test_gauge_refuses_edge_outside_the_complex(trefoil):
    x, _ = trefoil
    for edge in (x.n_edges, 99, -1):
        with pytest.raises(InvalidGauge, match=f"edge {edge} is not an edge class"):
            GaugeFixing(((0, edge, 0.5),)).validated(x)


def test_gauge_pairing_property(fig8):
    # <lambda_v, b g> = g(v) for the validated coordinate gauges
    x, _ = fig8
    gauge = GaugeFixing.automatic(x).validated(x)
    for (v, e, c) in gauge:
        for vv in x.interior_vertices:
            bg = state_gauge_image(x, {vv: 1.0})
            assert abs(c * bg[e] - (1.0 if vv == v else 0.0)) < 1e-14


def test_json_round_trip(fig8):
    x, angles = fig8
    doc = x.to_json_dict(angles)
    x2, angles2 = from_json_dict(json.loads(json.dumps(doc)))
    assert x2.n_edges == x.n_edges and x2.n_vertices == x.n_vertices
    assert np.allclose(angles2, angles)
    bad = json.loads(json.dumps(doc))
    bad["angles"][0][0] += 0.5
    with pytest.raises(ShapeViolation):
        from_json_dict(bad)


def test_quotient_recompute_stability(fig8):
    # rebuilding from the same data yields identical partitions
    x, _ = fig8
    x2 = build_complex([t.orientation for t in x.tetrahedra], list(x.gluings))
    assert x2.edge_classes == x.edge_classes
    assert x2.vertex_classes == x.vertex_classes
