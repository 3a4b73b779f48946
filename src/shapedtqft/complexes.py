"""Oriented triangulated pseudo-3-manifolds.

Tetrahedra carry local vertices 0..3 and an orientation sign; face i is the
triangle opposite vertex i.  Gluings identify two faces through a vertex
bijection recorded as a permutation of the canonical (ascending) vertex
triples, and must reverse the induced boundary orientations.  Quad k of a
tetrahedron separates the opposite-edge pair that contains local edge (0, k+1):

    quad 0 <-> {01, 23},   quad 1 <-> {02, 13},   quad 2 <-> {03, 12}

The cyclic successor acts as k -> k+1 (mod 3) on a positively oriented
tetrahedron; see "Quad conventions" in the README for the worked picture.
A dihedral-angle assignment lives on quads, one angle per quad per
tetrahedron, with per-tetrahedron sum pi.

The state integral and the gauge maps read the quad/edge incidence from two
read-only integer arrays of a `Triangulation`: `quad_forms[t, q] = o_t (n(t, q+1) - n(t, q+2))`,
n(t, p)[e] counting the local edges of quad p in edge class e, and
`edge_ends[e, v]`, the ends of class e at vertex v (2 on a loop).

The shaped 3-2 move `pachner_32` reads everything through one label map per
source tetrahedron (the central edge's ends n, s to apex vertex 0, equator
vertex E_i to i + 1), and refuses an edge weight further from 2*pi than
`validate_angles` lets an angle sum stray from pi.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BadGluing, BadLoop, InvalidGauge, NotApplicable, ShapeViolation

__all__ = [
    "Tetrahedron", "Gluing", "Triangulation", "GaugeFixing", "build_complex",
    "state_gauge_image", "edge_weight", "angle_holonomy", "tas_basis",
    "shape_gauge_transform", "pachner_32", "standalone_bipyramid", "random_bipyramid_angles",
    "EDGE_PAIRS", "EDGE_INDEX", "QUAD_PAIRS", "EDGE_TO_QUAD", "face_vertices",
    "validate_angles", "validate_shape",
]

EDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
EDGE_INDEX = {pair: i for i, pair in enumerate(EDGE_PAIRS)}
# quad k separates EDGE_PAIRS[QUAD_PAIRS[k][0]] from EDGE_PAIRS[QUAD_PAIRS[k][1]]
QUAD_PAIRS = ((0, 5), (1, 4), (2, 3))
EDGE_TO_QUAD = (0, 1, 2, 2, 1, 0)

# largest |angle sum - pi| a tetrahedron of a shape may carry
_ANGLE_SUM_TOL = 1e-12


def _ordered_sign(order):
    """Sign of the permutation that sorts `order`."""
    sign = 1
    order = list(order)
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    return sign


def face_vertices(face: int):
    """Canonical ascending vertex triple of the face opposite `face`."""
    return tuple(v for v in range(4) if v != face)


@dataclass(frozen=True)
class Tetrahedron:
    index: int
    orientation: int  # +1 or -1

    def __post_init__(self):
        if self.orientation not in (+1, -1):
            raise ValueError("orientation must be +1 or -1")


@dataclass(frozen=True)
class Gluing:
    tet_a: int
    face_a: int
    tet_b: int
    face_b: int
    perm: tuple  # canonical-order bijection: can_a[r] -> can_b[perm[r]]

    def vertex_map(self):
        """Dict local-vertex-of-a -> local-vertex-of-b on the glued faces."""
        ca = face_vertices(self.face_a)
        cb = face_vertices(self.face_b)
        return {ca[r]: cb[self.perm[r]] for r in range(3)}


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


class Triangulation:
    """Immutable quotient complex of glued tetrahedra.

    Edge classes are lists of (tet, edge_index) incidences; vertex classes
    lists of (tet, vertex).  `interior_edges` / `interior_vertices` hold the
    class ids not meeting any unglued face.  `quad_forms` (n_tets, 3, n_edges)
    and `edge_ends` (n_edges, n_vertices) are the module docstring's arrays.
    """

    def __init__(self, tetrahedra, gluings):
        self.tetrahedra = tuple(tetrahedra)
        self.gluings = tuple(gluings)
        self.n_tets = len(self.tetrahedra)
        self._validate_gluings()
        self._build_quotient()

    # -- construction ---------------------------------------------------
    def _validate_gluings(self):
        used = set()
        for g in self.gluings:
            for (t, f) in ((g.tet_a, g.face_a), (g.tet_b, g.face_b)):
                if not (0 <= t < self.n_tets and 0 <= f < 4):
                    raise BadGluing(f"face ({t},{f}) out of range")
                if (t, f) in used:
                    raise BadGluing(f"face ({t},{f}) glued twice")
                used.add((t, f))
            if (g.tet_a, g.face_a) == (g.tet_b, g.face_b):
                raise BadGluing("cannot glue a face to itself")
            if tuple(sorted(g.perm)) != (0, 1, 2):
                raise BadGluing(f"perm {g.perm} is not a permutation of (0,1,2)")
            sa = self.tetrahedra[g.tet_a].orientation
            sb = self.tetrahedra[g.tet_b].orientation
            if _ordered_sign(g.perm) != -sa * sb * (-1) ** (g.face_a + g.face_b):
                raise BadGluing(
                    f"gluing ({g.tet_a},{g.face_a})<->({g.tet_b},{g.face_b}) "
                    f"perm {g.perm} does not reverse orientation")

    def _build_quotient(self):
        verts = [(t, v) for t in range(self.n_tets) for v in range(4)]
        edges = [(t, e) for t in range(self.n_tets) for e in range(6)]
        ufv = _UnionFind(verts)
        ufe = _UnionFind(edges)
        for g in self.gluings:
            vm = g.vertex_map()
            for va, vb in vm.items():
                ufv.union((g.tet_a, va), (g.tet_b, vb))
            for va1, va2 in combinations(sorted(vm), 2):
                ea = EDGE_INDEX[(va1, va2)]
                eb = EDGE_INDEX[tuple(sorted((vm[va1], vm[va2])))]
                ufe.union((g.tet_a, ea), (g.tet_b, eb))

        def classes(uf, items):
            groups = {}
            for x in items:
                groups.setdefault(uf.find(x), []).append(x)
            return [sorted(groups[r]) for r in sorted(groups)]

        self.vertex_classes = classes(ufv, verts)
        self.edge_classes = classes(ufe, edges)
        self.vertex_class_of = {x: i for i, cls in enumerate(self.vertex_classes) for x in cls}
        self.edge_class_of = {x: i for i, cls in enumerate(self.edge_classes) for x in cls}
        glued = {(g.tet_a, g.face_a) for g in self.gluings} | {(g.tet_b, g.face_b) for g in self.gluings}
        self.boundary_faces = sorted((t, f) for t in range(self.n_tets) for f in range(4)
                                     if (t, f) not in glued)
        bverts, bedges = set(), set()
        for (t, f) in self.boundary_faces:
            cv = face_vertices(f)
            for v in cv:
                bverts.add(self.vertex_class_of[(t, v)])
            for v1, v2 in combinations(cv, 2):
                bedges.add(self.edge_class_of[(t, EDGE_INDEX[(v1, v2)])])
        self.boundary_edges = sorted(bedges)
        self.boundary_vertices = sorted(bverts)
        self.interior_edges = [i for i in range(len(self.edge_classes)) if i not in bedges]
        self.interior_vertices = [i for i in range(len(self.vertex_classes)) if i not in bverts]
        self._gluing_of_face = {}
        for g in self.gluings:
            self._gluing_of_face[(g.tet_a, g.face_a)] = g
            self._gluing_of_face[(g.tet_b, g.face_b)] = g
        n = np.zeros((self.n_tets, 3, self.n_edges), dtype=int)   # n[t, p, e]
        for (t, e), ec in self.edge_class_of.items():
            n[t, EDGE_TO_QUAD[e], ec] += 1
        orient = np.array([tet.orientation for tet in self.tetrahedra], dtype=int)
        self.quad_forms = orient[:, None, None] * (np.roll(n, -1, axis=1) - np.roll(n, -2, axis=1))
        self.edge_ends = np.zeros((self.n_edges, self.n_vertices), dtype=int)
        for ec, ((t, e), *_) in enumerate(self.edge_classes):
            for v in EDGE_PAIRS[e]:
                self.edge_ends[ec, self.vertex_class_of[(t, v)]] += 1
        self.quad_forms.flags.writeable = self.edge_ends.flags.writeable = False

    # -- queries ----------------------------------------------------------
    @property
    def n_vertices(self):
        return len(self.vertex_classes)

    @property
    def n_edges(self):
        return len(self.edge_classes)

    def glued_to(self, tet, face):
        """(tet', face', vertex_map) across the gluing, or None on the boundary."""
        g = self._gluing_of_face.get((tet, face))
        if g is None:
            return None
        if (g.tet_a, g.face_a) == (tet, face):
            return g.tet_b, g.face_b, g.vertex_map()
        inv = {vb: va for va, vb in g.vertex_map().items()}
        return g.tet_a, g.face_a, inv

    # -- serialization ------------------------------------------------------
    def to_json_dict(self, angles=None):
        d = {
            "schema": "shapedtqft/triangulation/1",
            "tets": self.n_tets,
            "orientations": [t.orientation for t in self.tetrahedra],
            "gluings": [{"a": [g.tet_a, g.face_a], "b": [g.tet_b, g.face_b],
                         "perm": list(g.perm)} for g in self.gluings],
        }
        if angles is not None:
            d["angles"] = [[float(a) for a in row] for row in np.asarray(angles)]
        return d


def build_complex(tetrahedra, gluings) -> Triangulation:
    """Assemble the quotient complex; raises BadGluing on ill-formed input."""
    tets = [t if isinstance(t, Tetrahedron) else Tetrahedron(i, int(t))
            for i, t in enumerate(tetrahedra)]
    gl = [g if isinstance(g, Gluing) else Gluing(g[0], g[1], g[2], g[3], tuple(g[4]))
          for g in gluings]
    return Triangulation(tets, gl)


def from_json_dict(d):
    """Parse the triangulation schema; returns (Triangulation, angles-or-None)."""
    for key in ("tets", "orientations", "gluings"):
        if key not in d:
            raise ValueError(f"triangulation JSON missing field '{key}'")
    n = int(d["tets"])
    if len(d["orientations"]) != n:
        raise ValueError("orientations length != tets")
    gl = [Gluing(int(g["a"][0]), int(g["a"][1]), int(g["b"][0]), int(g["b"][1]),
                 tuple(int(p) for p in g["perm"])) for g in d["gluings"]]
    x = build_complex([int(s) for s in d["orientations"]], gl)
    angles = None
    if d.get("angles") is not None:
        angles = validate_angles(x, d["angles"])
    return x, angles


def validate_shape(angles3, where: str = "tetrahedron"):
    """Check one tetrahedron's quad angles: each in (0, pi), summing to pi
    within _ANGLE_SUM_TOL; returns them as a float array."""
    a = np.asarray(angles3, dtype=float)
    if abs(a.sum() - np.pi) > _ANGLE_SUM_TOL:
        raise ShapeViolation(f"{where}: angle sum {a.sum()} != pi")
    if (a <= 0).any() or (a >= np.pi).any():
        raise ShapeViolation(f"{where}: angles {a} leave (0, pi)")
    return a


def validate_angles(x: Triangulation, angles):
    """Check shape-structure constraints; returns the (n_tets, 3) array."""
    a = np.asarray(angles, dtype=float)
    if a.shape != (x.n_tets, 3):
        raise ShapeViolation(f"angles must be shaped ({x.n_tets}, 3), got {a.shape}")
    for t in range(x.n_tets):
        validate_shape(a[t], f"tetrahedron {t}")
    return a


# -- states and gauge -------------------------------------------------------

def state_gauge_image(x: Triangulation, g):
    """Pure-gauge state bg = edge_ends @ g of a vertex potential g (2 g(v) on a loop).

    g maps vertex-class ids to reals (dict or array over all vertex classes);
    missing vertices count as zero.
    """
    if isinstance(g, dict):
        g = [g.get(v, 0.0) for v in range(x.n_vertices)]
    return x.edge_ends @ np.asarray(g, dtype=float)


def _coordinate_coefficient(x: Triangulation, v, e, interior):
    """Coefficient of edge e in a coordinate gauge at interior vertex v:
    1/edge_ends[e, v] (1/2 on a loop at v) when v is the edge's only interior
    end, else None."""
    if {int(u) for u in np.flatnonzero(x.edge_ends[e])} & interior != {v}:
        return None
    return 1.0 / int(x.edge_ends[e, v])


@dataclass(frozen=True)
class GaugeFixing:
    """Coordinate gauge: per interior vertex one edge class and a coefficient.

    The pairing requirement <lambda_v, bg> = g(v) forces the coefficient
    1/edge_ends[e, v] on an edge whose only interior end is v: 1/2 on a loop
    at v, 1 on an edge to a boundary vertex; other coefficients are
    normalized to the valid value when the delta bookkeeping is applied.
    """
    assignments: tuple  # ((vertex_class, edge_class, coefficient), ...)

    def validated(self, x: Triangulation):
        """Return ((vertex, edge, coeff_valid), ...) or raise InvalidGauge."""
        seen_edges = set()
        interior = set(x.interior_vertices)
        if {a[0] for a in self.assignments} != interior:
            raise InvalidGauge("gauge must fix exactly the interior vertices "
                               f"{sorted(interior)}")
        out = []
        for v, e, c in self.assignments:
            if e not in range(x.n_edges):
                raise InvalidGauge(f"edge {e} is not an edge class of the complex")
            if c == 0:
                raise InvalidGauge("zero coefficient")
            if e in seen_edges:
                raise InvalidGauge(f"edge {e} used by two gauge forms")
            seen_edges.add(e)
            valid = _coordinate_coefficient(x, v, e, interior)
            if valid is None:
                raise InvalidGauge(
                    f"edge {e} does not give a coordinate gauge at vertex {v}: "
                    "its interior endpoints must be exactly {v}")
            out.append((v, e, valid))
        return tuple(out)

    @staticmethod
    def automatic(x: Triangulation):
        """Lexicographically least usable edge per interior vertex (1/2 on loops)."""
        assignments, interior = [], set(x.interior_vertices)
        for v in x.interior_vertices:
            used = {a[1] for a in assignments}
            usable = [(v, e, c) for e in x.interior_edges if e not in used
                      if (c := _coordinate_coefficient(x, v, e, interior)) is not None]
            if not usable:
                raise InvalidGauge(f"no coordinate gauge edge available at vertex {v}")
            assignments.append(usable[0])
        return GaugeFixing(tuple(assignments))


# -- angle bookkeeping --------------------------------------------------------

def edge_weight(x: Triangulation, angles, edge_class: int) -> float:
    """Total dihedral angle at an edge: sum of separating-quad angles.
    Angles that are no shape structure raise ShapeViolation."""
    if edge_class not in range(x.n_edges):
        raise NotApplicable(f"edge {edge_class} is not an edge class of the complex")
    a = validate_angles(x, angles)
    return float(sum(a[t][EDGE_TO_QUAD[e]] for (t, e) in x.edge_classes[edge_class]))


def angle_holonomy(x: Triangulation, angles, loop) -> float:
    """Sum of quad angles along a dual edge loop.

    The loop is a sequence of (tet, face_in, face_out) steps; the quad taken
    in each tetrahedron is the one separating the edge shared by the two
    faces, and consecutive steps must be connected by the face gluings.
    Angles that are no shape structure raise ShapeViolation.
    """
    a = validate_angles(x, angles)
    steps = list(loop)
    if not steps:
        return 0.0
    total = 0.0
    for i, (t, fin, fout) in enumerate(steps):
        if fin == fout or not (0 <= fin < 4 and 0 <= fout < 4):
            raise BadLoop(f"step {i}: faces must be distinct members of 0..3")
        common = tuple(sorted(set(range(4)) - {fin, fout}))
        total += a[t][EDGE_TO_QUAD[EDGE_INDEX[common]]]
        nxt = x.glued_to(t, fout)
        if nxt is None:
            raise BadLoop(f"step {i}: face ({t},{fout}) is a boundary face")
        t2, f2, _ = nxt
        t_next, fin_next, _ = steps[(i + 1) % len(steps)]
        if (t2, f2) != (t_next, fin_next):
            raise BadLoop(f"step {i}: gluing leads to ({t2},{f2}), "
                          f"loop expects ({t_next},{fin_next})")
    return float(total)


def edge_loop(x: Triangulation, edge_class: int):
    """The dual loop around an interior edge, as (tet, face_in, face_out) steps."""
    if edge_class not in x.interior_edges:
        raise BadLoop(f"edge {edge_class} is not interior")
    t0, e0 = x.edge_classes[edge_class][0]
    v1, v2 = EDGE_PAIRS[e0]
    others = [v for v in range(4) if v not in (v1, v2)]
    steps = []
    t, pair, fin = t0, (v1, v2), others[0]
    for _ in range(4 * len(x.edge_classes[edge_class]) + 4):
        fout = next(v for v in range(4) if v not in pair and v != fin)
        steps.append((t, fin, fout))
        res = x.glued_to(t, fout)
        if res is None:
            raise BadLoop(f"edge {edge_class} loop hit boundary face ({t},{fout})")
        t2, f2, vm = res
        pair2 = tuple(sorted((vm[pair[0]], vm[pair[1]])))
        t, pair, fin = t2, pair2, f2
        if (t, fin) == (t0, others[0]) and pair == (v1, v2):
            break
    else:
        raise BadLoop("edge loop failed to close")
    return steps


def tas_basis(x: Triangulation):
    """Generators of the tangential deformation space from interior-edge loops.

    The generator of edge e, -quad_forms[:, :, e], is +-1 on the neighbours
    of each separating quad, with zero per-tetrahedron and per-edge sums.
    Only around-vertex loops are generated: for sphere vertex links these
    span the whole tangential space, while torus links (ideal
    triangulations) carry extra cycle directions not reachable this way.
    """
    return [(-x.quad_forms[:, :, e]).astype(float) for e in x.interior_edges]


def shape_gauge_transform(x: Triangulation, angles, edge_class: int, t: float):
    """Shape angles + t * (loop generator of the edge); raises on leaving (0, pi)."""
    if edge_class not in x.interior_edges:
        raise NotApplicable(f"edge {edge_class} is not interior")
    a = validate_angles(x, angles) - t * x.quad_forms[:, :, edge_class]
    if (a <= 0).any() or (a >= np.pi).any():
        raise ShapeViolation("shape gauge transform pushed an angle out of (0, pi)")
    return a


# -- Pachner 3-2 ---------------------------------------------------------------

def _walk_bipyramid(x: Triangulation, edge_class: int):
    """Walk the three tetrahedra around a degree-3 interior edge.

    Returns (tets, locs) where tets = [t0, t1, t2] in cyclic order and
    locs[i] = (n, s, e_i, e_{i+1}) of local vertices: n/s the central edge
    ends (consistently transported), e_i/e_{i+1} the equator vertices.
    """
    reps = x.edge_classes[edge_class]
    if len(reps) != 3 or len({t for (t, _) in reps}) != 3:
        raise NotApplicable(f"edge {edge_class} has degree {len(reps)}, "
                            "need 3 distinct incidences in distinct tetrahedra")
    if edge_class not in x.interior_edges:
        raise NotApplicable(f"edge {edge_class} is on the boundary")
    t0, e0 = reps[0]
    n, s = EDGE_PAIRS[e0]
    others = [v for v in range(4) if v not in (n, s)]
    eq_prev, eq_next = others
    tets, locs = [], []
    t, nn, ss = t0, n, s
    for i in range(3):
        tets.append(t)
        locs.append((nn, ss, eq_prev, eq_next))
        res = x.glued_to(t, eq_prev)  # face opposite the trailing equator vertex
        if res is None:
            raise NotApplicable("bipyramid face on the boundary")
        t2, f2, vm = res
        nn2, ss2, eqv2 = vm[nn], vm[ss], vm[eq_next]
        eq_next2 = next(v for v in range(4) if v not in (nn2, ss2, eqv2))
        t, nn, ss, eq_prev, eq_next = t2, nn2, ss2, eqv2, eq_next2
    if t != t0 or (nn, ss) != (n, s):
        raise NotApplicable("tetrahedra around the edge do not close into a bipyramid")
    if len(set(tets)) != 3:
        raise NotApplicable("bipyramid walk revisits a tetrahedron")
    return tets, locs


def pachner_32(x: Triangulation, edge_class: int, angles):
    """Replace the three tetrahedra around a balanced degree-3 interior edge
    by two apex tetrahedra tet_N, tet_S glued along the equator triangle.

    Source tet i holds (n, s, E_i, E_{i+1}); its label map sends n and s to
    apex vertex 0 and E_j to vertex j + 1, and its face opposite s
    (resp. n) becomes tet_N's (resp. tet_S's) face opposite E_{i+2}.  Each
    result spoke angle is the sum of the two source angles at that spoke.
    An edge weight further from 2*pi than the angle-sum tolerance of
    validate_angles is refused (NotApplicable), as each apex sum is
    3*pi - weight.  Returns (new_triangulation, new_angles, edge_map);
    edge_map sends each old edge class to its class in the result and the
    central edge to None.
    """
    if edge_class not in range(x.n_edges):
        raise NotApplicable(f"edge {edge_class} is not an edge class of the complex")
    a = validate_angles(x, angles)
    w = edge_weight(x, a, edge_class)
    if abs(w - 2 * np.pi) > _ANGLE_SUM_TOL:
        raise NotApplicable(f"edge weight {w} != 2*pi; the shaped move needs a balanced edge")
    tets, locs = _walk_bipyramid(x, edge_class)

    # orientation of the ordered tuples (n, e_i, e_{i+1}, s); must be common
    etas = [x.tetrahedra[t].orientation * _ordered_sign((locs[i][0], locs[i][2],
                                                         locs[i][3], locs[i][1]))
            for i, t in enumerate(tets)]
    if len(set(etas)) != 1:
        raise NotApplicable("inconsistent orientations around the edge")

    # result complex: survivors keep their order and labels, then tet_N, tet_S
    survivors = [t for t in range(x.n_tets) if t not in tets]
    idx_n, idx_s = len(survivors), len(survivors) + 1
    new = {t: {v: v for v in range(4)} for t in survivors}
    kept = {(t, f): (i, f) for i, t in enumerate(survivors) for f in range(4)}
    new_angles = np.zeros((idx_s + 1, 3))
    new_angles[:idx_n] = a[survivors]
    for i, t in enumerate(tets):
        nn, ss, ea, eb = locs[i]
        new[t] = {nn: 0, ss: 0, ea: i + 1, eb: (i + 1) % 3 + 1}
        kept[(t, ss)] = (idx_n, (i + 2) % 3 + 1)
        kept[(t, nn)] = (idx_s, (i + 2) % 3 + 1)
        # spoke (apex, E_j) is quad j of its apex tet and lies in source tets j-1, j
        for row, apex in ((idx_n, nn), (idx_s, ss)):
            for eq in (ea, eb):
                quad = EDGE_TO_QUAD[EDGE_INDEX[tuple(sorted((apex, eq)))]]
                new_angles[row, new[t][eq] - 1] += a[t, quad]

    new_gluings = []
    for g in x.gluings:
        if (g.tet_a, g.face_a) not in kept:
            continue  # an inner face of the bipyramid, glued to another
        (ta, fa), (tb, fb) = kept[(g.tet_a, g.face_a)], kept[(g.tet_b, g.face_b)]
        vm = {new[g.tet_a][va]: new[g.tet_b][vb] for va, vb in g.vertex_map().items()}
        cb = face_vertices(fb)
        new_gluings.append(Gluing(ta, fa, tb, fb, tuple(cb.index(vm[v]) for v in face_vertices(fa))))
    new_gluings.append(Gluing(idx_n, 0, idx_s, 0, (0, 1, 2)))  # equator triangle

    x2 = build_complex([x.tetrahedra[t].orientation for t in survivors] + [etas[0], -etas[0]],
                       new_gluings)
    validate_angles(x2, new_angles)

    # edge map: an old edge lands in the result tet of a kept face holding it
    edge_map = {}
    for ec, cls in enumerate(x.edge_classes):
        if ec == edge_class:
            edge_map[ec] = None
            continue
        t, e = cls[0]
        pair = EDGE_PAIRS[e]
        host = next(kept[(t, f)][0] for f in range(4) if f not in pair and (t, f) in kept)
        edge_map[ec] = x2.edge_class_of[(host, EDGE_INDEX[tuple(sorted(new[t][v] for v in pair))])]
    return x2, new_angles, edge_map


def standalone_bipyramid():
    """Three positively oriented tetrahedra around one interior balanced-able
    edge; boundary is the six-triangle bipyramid sphere.

    Model vertices 0..4: tets (0,1,2,3), (0,1,3,4), (1,2,3,4) share edge (1,3).
    Returns (triangulation, central_edge_class).
    """
    gl = [Gluing(0, 0, 2, 3, (0, 1, 2)),
          Gluing(0, 2, 1, 3, (0, 1, 2)),
          Gluing(1, 0, 2, 1, (0, 1, 2))]
    x = build_complex([+1, +1, +1], gl)
    central = x.edge_class_of[(0, EDGE_INDEX[(1, 3)])]
    assert central in x.interior_edges and len(x.edge_classes[central]) == 3
    return x, central


def random_bipyramid_angles(rng):
    """Random shape on the standalone bipyramid with a balanced central edge."""
    c = np.full(3, 2 * np.pi / 3) + rng.uniform(-0.25, 0.25, 3)
    c[2] = 2 * np.pi - c[0] - c[1]
    ang = np.zeros((3, 3))
    for t, qc, cv in ((0, 1, c[0]), (1, 2, c[1]), (2, 1, c[2])):
        rest = np.pi - cv
        split = rng.uniform(0.35, 0.65)
        ang[t][qc] = cv
        ang[t][(qc + 1) % 3] = rest * split
        ang[t][(qc + 2) % 3] = rest * (1 - split)
    return ang
