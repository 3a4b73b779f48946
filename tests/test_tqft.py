"""Boltzmann weights and the gauge-fixed state integral."""
import itertools
import types

import numpy as np
import pytest

from shapedtqft import quadrature, special, tqft
from shapedtqft.complexes import (GaugeFixing, random_bipyramid_angles, standalone_bipyramid,
                                  state_gauge_image)
from shapedtqft.data import load as load_bundled
from shapedtqft.errors import (InvalidGauge, NotApplicable, ShapedTqftError, ShapeViolation,
                               WeightOutOfRange)
from shapedtqft.params import ModularParameter
from shapedtqft.qdilog import phi_b
from shapedtqft.quadrature import QuadratureConfig
from shapedtqft.identities import random_balanced_33
from shapedtqft.special import LineTables, hyperbolic_gamma, line_integrand
from shapedtqft.tqft import (BoltzmannEvaluator, check_pachner_invariance,
                             check_shape_gauge_invariance, faddeev_popov_check,
                             knot_quad_angle, partition_function, tet_weight)
from tests.conftest import LATTICE_STEPS, capture_integrands, count_line_caches, record_fills

CRITERION8_CFG = QuadratureConfig(abs_tol=2e-5, rel_tol=2e-5, phib_tol=1e-11)
BUNDLED = ("trefoil.json", "fig8.json", "fig8_complement.json", "knot52.json", "knot61.json",
           "bipyramid.json")

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
    for bad in ([1.0, 1.0, 1.0], [np.pi, 0.0, 0.0], [2.0, 1.5, np.pi - 3.5],
                [1.0, 1.0, np.pi - 2.0 + 5e-10]):
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


@pytest.mark.parametrize("b", [1.0, 1.3])
def test_quad_forms_give_tet_weight(b):
    # prod_q gamma2(delta a_q + i quad_forms[t, q] . s) on the edge-class
    # states s is tet_weight on the tetrahedron's local states s[class(t, e)]
    mp = ModularParameter(b)
    rng = np.random.default_rng(11)
    for name in BUNDLED:
        x, angles = load_bundled(name)
        s = rng.normal(scale=0.5, size=(4, x.n_edges))
        for t, tet in enumerate(x.tetrahedra):
            args = mp.delta * angles[t][:, None] + 1j * (x.quad_forms[t] @ s.T)
            via_forms = hyperbolic_gamma(args, mp).prod(axis=0)
            local = s[:, [x.edge_class_of[(t, e)] for e in range(6)]]
            direct = tet_weight(tet.orientation, angles[t], local, mp)
            assert np.abs(via_forms / direct - 1).max() <= 1e-12, (name, t)


def state_weight(ev, s):
    """B(X, s) at one state s: the lattice weight at the origin s of a
    lattice with no free edges."""
    return ev.on_lattice(1.0, s, [], np.zeros((1, 0), int)).weight(np.zeros(0, int))


def test_weight_gauge_invariance_full_complex(fig8, mp1):
    x, angles = fig8
    ev = BoltzmannEvaluator(x, angles, mp1)
    rng = np.random.default_rng(9)
    s = rng.normal(size=x.n_edges)
    w0 = state_weight(ev, s)
    for v in range(x.n_vertices):
        bg = state_gauge_image(x, {v: rng.normal()})
        assert abs(state_weight(ev, s + bg) / w0 - 1) < 1e-12


def direct_weight(x, angles, s, mp):
    """Product of tet_weight (direct engine) over the tetrahedra of x."""
    out = np.ones(len(s), dtype=complex)
    for t, tet in enumerate(x.tetrahedra):
        cls = [x.edge_class_of[(t, e)] for e in range(6)]
        out *= tet_weight(tet.orientation, np.asarray(angles)[t], s[:, cls], mp)
    return out


@pytest.mark.parametrize("h", LATTICE_STEPS)
def test_lattice_weight_matches_direct(fig8, mp1, h):
    # the lattice weight at the integer nodes k (states origin + h k) against
    # the direct engine: fig8 on the free edges of its automatic gauge, out to
    # and including the corners of a box past its faces (radii 4-5.9 at the
    # criterion 8 and 1e-6 settings), and the bipyramid whose boundary edges
    # hold nonzero constants, so each row has its own offset
    rng = np.random.default_rng(14)
    x8, angles8 = fig8
    pinned = [e for (_v, e, _c) in GaugeFixing.automatic(x8).validated(x8)]
    xb, _central = standalone_bipyramid()
    origin_b = np.zeros(xb.n_edges)
    origin_b[xb.boundary_edges] = rng.uniform(-0.5, 0.5, len(xb.boundary_edges))
    cases = ((x8, angles8, np.zeros(x8.n_edges),
              [e for e in x8.interior_edges if e not in pinned]),
             (xb, random_bipyramid_angles(rng), origin_b, list(xb.interior_edges)))
    kmax = max(1, int(6.0 // h))
    for x, angles, origin, free in cases:
        corners = kmax * np.array(list(itertools.product((1, -1), repeat=len(free))))
        k = np.concatenate([rng.integers(-kmax, kmax + 1, size=(200, len(free))), corners])
        s = np.tile(origin, (len(k), 1))
        s[:, free] += h * k
        lat = BoltzmannEvaluator(x, angles, mp1).on_lattice(h, origin, free, k)
        assert np.abs(lat.weight(k) / direct_weight(x, angles, s, mp1) - 1).max() <= 1e-12


def free_edges(x):
    pinned = [e for (_v, e, _c) in GaugeFixing.automatic(x).validated(x)]
    return [e for e in x.interior_edges if e not in pinned]


@pytest.mark.parametrize("shift", [800.0, -800.0, np.nan])
def test_lattice_weight_refuses_nonfinite_scale(fig8, mp1, monkeypatch, shift):
    # the lattice weight multiplies factors of modulus <= 1 and rescales once
    # by e^{sum of the rows' largest log moduli}: a scale that overflows,
    # underflows to 0 or is NaN raises, when LineTables.reader prepares the
    # box, instead of returning inf, 0 or NaN.  Shifting every log Phi_b
    # entry _fill computes shifts each row's log gamma2 by -shift.  The
    # identity integrands share that preparation: a pentagon integrand
    # raises too.
    x, angles = fig8
    fill = LineTables._fill
    monkeypatch.setattr(LineTables, "_fill",
                        lambda self, pieces: [logs + shift for logs in fill(self, pieces)])
    with pytest.raises(WeightOutOfRange):
        BoltzmannEvaluator(x, angles, mp1).on_lattice(0.1, np.zeros(x.n_edges), free_edges(x),
                                                      [(1, 2, 3), (-1, -2, -3)])
    p = random_balanced_33(np.random.default_rng(5), mp1)
    factors = [f for a, b in zip(p.a, p.b) for f in (("g2", a, -1, 1), ("g2", b, 1, 1))]
    with pytest.raises(WeightOutOfRange):
        line_integrand(factors, mp1).lattice(0.1, [[-5], [5]])
    assert issubclass(WeightOutOfRange, ShapedTqftError)


def test_fig8_trapezoid_builds_no_line_cache(fig8, mp1, monkeypatch):
    # criterion 8's integral: every weight call, box probes included, reads
    # the lattice tables; the squared halving estimate stops it at h = 0.2,
    # and at its zero origin the trapezoid evaluates the origin and one node
    # of each pair {k, -k}.  Forced Monte Carlo samples lattice cells and
    # reads the same tables, landing within 3 of its standard errors.
    built = count_line_caches(monkeypatch)
    x, angles = fig8
    res = partition_function(x, angles, mp=mp1, cfg=CRITERION8_CFG)
    assert res.method == "trapezoid" and res.evaluations == 37_265
    mc = partition_function(x, angles, mp=mp1,
                            cfg=QuadratureConfig(mc_samples=32_000, force_monte_carlo=True))
    assert mc.method == "monte_carlo" and mc.evaluations == 32_000
    assert abs(mc.value - res.value) < 3 * mc.error_estimate
    assert built == []


@pytest.mark.parametrize("b", [0.7, 1.0, 1.3])
@pytest.mark.parametrize("name", BUNDLED)
def test_weight_is_conjugation_even_at_zero_origin(name, b):
    # the symmetry the half lattice rests on: at a zero origin (the
    # bipyramid at a zero boundary state) B(-s) = conj B(s), so W is real;
    # checked on the direct tet_weight product, not on the mirrored tables
    x, angles = load_bundled(name)
    mp = ModularParameter(b)
    free = free_edges(x)
    k = np.random.default_rng(16).integers(-15, 16, size=(20, len(free)))
    s = np.zeros((len(k), x.n_edges))
    s[:, free] = 0.2 * k
    w = direct_weight(x, angles, s, mp)
    assert (np.abs(direct_weight(x, angles, -s, mp) - np.conj(w)) <= 1e-12 * np.abs(w)).all()


SUMMATION_ROUNDINGS = 64     # see test_half_lattice_state_integral_matches_full_grid
TOL9_CFG = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)


@pytest.mark.parametrize("name,b,cfg", [
    pytest.param("fig8.json", 1.0, CRITERION8_CFG, id="fig8.json-cfg0"),
    pytest.param("trefoil.json", 1.0, TOL9_CFG, id="trefoil.json-cfg1"),
    *(pytest.param("trefoil.json", b, TOL9_CFG, id=f"trefoil.json-b{b}") for b in (0.9, 1.1, 1.3)),
    pytest.param("fig8_complement.json", 1.0, TOL9_CFG, id="fig8_complement.json-b1.0"),
])
def test_half_lattice_state_integral_matches_full_grid(name, b, cfg, monkeypatch):
    # at a zero origin partition_function marks its integrand
    # conjugation-even; the half lattice gives the real part of the full
    # grid's value (the same integrand without the mark) and (full + 1) / 2
    # evaluations.  Its error estimate agrees only as far as the rounding of
    # T(h) allows: the two runs sum the same node values in different
    # orders.  numpy sums a chunk of at most 2^15 values pairwise (at most 27
    # roundings along any term's path), the chunk totals add in sequence
    # (a few chunks here), and h^dim and the half's 2 Re(total) + f(0) add
    # three: so each T(h_k) is within SUMMATION_ROUNDINGS * u * h_k^dim * M_k
    # of its exact sum, M_k the sum of |f| read up to level k.  With T(h_{k-1})
    # bounded by the same M_k, the two runs' d_k differ by at most
    # eps_k = 2 * SUMMATION_ROUNDINGS * u * (1 + 2^dim) * h_k^dim * M_k, and
    # their estimates lie in the interval halving_estimate spans over
    # d_k +- eps_k and d_{k-1} -+ eps_{k-1}: it grows with d_k and falls
    # with d_{k-1}, d_k^2 / (d_{k-1} - d_k) on its squared branch
    x, angles = load_bundled(name)
    seen = capture_integrands(monkeypatch, tqft)
    partition_function(x, angles, mp=ModularParameter(b), cfg=cfg)
    (f, dim), = seen
    assert f.conjugation_even
    levels, mass = [], [0.0]    # per run and level: (d_k, d_{k-1}, estimate, M_k)
    estimate = quadrature.halving_estimate

    def recorded(diff, prev_diff):
        levels[-1].append((diff, prev_diff, estimate(diff, prev_diff), mass[0]))
        return levels[-1][-1][2]

    def lattice(h, hull):
        read = f.lattice(h, hull)

        def summed(k):
            vals = read(k)
            mass[0] += float(np.abs(vals).sum())
            return vals
        return summed

    def run(conjugation_even):
        levels.append([])
        mass[0] = 0.0
        g = types.SimpleNamespace(lattice=lattice, conjugation_even=conjugation_even)
        return quadrature.integrate_nd(g, dim, cfg)

    monkeypatch.setattr(quadrature, "halving_estimate", recorded)
    half_res, full_res = run(True), run(False)
    assert half_res.value.imag == 0.0
    assert abs(half_res.value.real - full_res.value.real) <= 1e-14 * abs(full_res.value)
    assert half_res.evaluations == (full_res.evaluations + 1) // 2
    half, full = levels
    assert len(half) == len(full) >= 2
    u = np.finfo(float).eps / 2
    eps = [2 * SUMMATION_ROUNDINGS * u * (1 + 2**dim) * (quadrature._TRAP_H0 / 2**k)**dim * m_k
           for k, (*_d, m_k) in enumerate(full, start=1)]
    for k, ((d, p, est, _m), (d_f, p_f, est_f, _m_f)) in enumerate(zip(half, full)):
        assert abs(d - d_f) <= eps[k]
        lo, hi = ((estimate(d_f - eps[k], None), estimate(d_f + eps[k], None)) if p_f is None else
                  (estimate(d_f - eps[k], p_f + eps[k - 1]), estimate(d_f + eps[k], p_f - eps[k - 1])))
        assert lo <= est <= hi and lo <= est_f <= hi
    # the reported error adds the face tail and the floor, each summed from
    # the same |f| in another order
    assert abs(half_res.error_estimate - full_res.error_estimate) <= (
        hi - lo + SUMMATION_ROUNDINGS * u * full_res.error_estimate)


def test_nonzero_boundary_state_keeps_the_full_grid(mp1, monkeypatch):
    # a nonzero boundary state moves the origin: B(-s) = conj B(s) no longer
    # holds, and the integrand is not marked
    xb, _central = standalone_bipyramid()
    angles = random_bipyramid_angles(np.random.default_rng(3))
    seen = capture_integrands(monkeypatch, tqft)
    partition_function(xb, angles, boundary_state=np.zeros(len(xb.boundary_edges)), mp=mp1)
    partition_function(xb, angles, boundary_state=np.full(len(xb.boundary_edges), 0.3), mp=mp1)
    assert [f.conjugation_even for f, _dim in seen] == [True, False]


def test_monte_carlo_state_integral_is_real_at_zero_origin(fig8, mp1):
    # forced Monte Carlo on a conjugation-even integrand averages Re f / P,
    # so fig8's W_im is exactly 0; at a nonzero boundary state the
    # integrand is not marked and keeps its imaginary part
    cfg = QuadratureConfig(mc_samples=32_000, force_monte_carlo=True)
    x, angles = fig8
    mc = partition_function(x, angles, mp=mp1, cfg=cfg)
    assert mc.method == "monte_carlo" and mc.value.imag == 0.0
    xb, _central = standalone_bipyramid()
    angles = random_bipyramid_angles(np.random.default_rng(3))
    mc = partition_function(xb, angles, boundary_state=np.full(len(xb.boundary_edges), 0.3),
                            mp=mp1, cfg=cfg)
    assert mc.method == "monte_carlo" and mc.value.imag != 0.0


def test_fig8_tables_fill_once_for_all_levels_and_half_of_real_offsets(fig8, mp1, monkeypatch):
    # criterion 8's integral prepares its tables twice, both at step h = 0.2:
    # once for its box probes and once for its three trapezoid levels (h =
    # 0.8, 0.4, 0.2 all read the preparation there), not once per level or
    # chunk.  The probes' reader fills every table the trapezoid reads in
    # one _fill call, so the trapezoid's preparation finds them kept and
    # makes none.  At its zero origin every row has a real offset, whose
    # entries are filled at m >= 0 only and mirrored to m < 0 by conjugation.
    fills, seen = [], []    # per LineTables.reader call: its _fill calls
    fill = special.LineTables._fill
    monkeypatch.setattr(special.LineTables, "_fill",
                        lambda self, pieces: fills[-1].append(pieces) or fill(self, pieces))
    reader = special.LineTables.reader
    monkeypatch.setattr(special.LineTables, "reader",
                        lambda self, *a: seen.append(self) or fills.append([]) or reader(self, *a))
    filled = record_fills(monkeypatch)
    x, angles = fig8
    partition_function(x, angles, mp=mp1, cfg=CRITERION8_CFG)
    assert len(fills) == 2 and len({id(t) for t in seen}) == 1
    probes, levels = fills
    assert len(probes) == 1 and levels == []
    kept = seen[0]._kept
    assert kept and all(z0.real == 0 for (z0, _h), _mult in kept)
    assert all(first == -(len(logs) // 2) for first, logs, *_rest in kept.values())
    assert filled and all(m >= 0 for _z0, _h, m in filled)


def test_orientation_flip_conjugates_weight(fig8, mp1):
    from shapedtqft.complexes import Gluing, build_complex
    x, angles = fig8
    flipped = build_complex(
        [-t.orientation for t in x.tetrahedra],
        [Gluing(g.tet_a, g.face_a, g.tet_b, g.face_b, g.perm) for g in x.gluings])
    rng = np.random.default_rng(11)
    s = 0.5 * rng.normal(size=x.n_edges)
    w = state_weight(BoltzmannEvaluator(x, angles, mp1), s)
    wf = state_weight(BoltzmannEvaluator(flipped, angles, mp1), s)
    assert abs(wf - np.conj(w)) < 1e-12 * abs(w)


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


def test_pachner_bipyramid_builds_no_line_cache(mp1, monkeypatch):
    # both sides read the lattice tables: the 1D integral on the trapezoid and
    # the single dim-0 state at the origin of a lattice
    built = count_line_caches(monkeypatch)
    x, central = standalone_bipyramid()
    rng = np.random.default_rng(12)
    ang = random_bipyramid_angles(rng)
    bs = dict(zip(x.boundary_edges, rng.uniform(-0.4, 0.4, len(x.boundary_edges))))
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    rep = check_pachner_invariance(x, ang, central, mp1, cfg, boundary_state=bs)
    assert rep["rel_discrepancy"] < 1e-12
    assert built == []


def test_pachner_inadmissible_reports_cleanly(mp1, cfg9):
    from shapedtqft.errors import NotApplicable
    x, central = standalone_bipyramid()
    ang = random_bipyramid_angles(np.random.default_rng(13))
    ang[0] = [0.5, np.pi - 1.0, 0.5]  # unbalanced central edge
    with pytest.raises(NotApplicable):
        check_pachner_invariance(x, ang, central, mp1, cfg9,
                                 boundary_state={e: 0.0 for e in x.boundary_edges})


def test_malformed_boundary_state_is_refused(trefoil, mp1):
    # partition_function and the 3-2 move read the boundary state the same
    # way: exactly one finite real value per boundary edge, as a dict keyed
    # by the boundary edges or a sequence in boundary_edges order; anything
    # else (short, long, off-boundary keys, NaN, complex) raises InvalidGauge
    # before integrating
    x, central = standalone_bipyramid()
    ang = random_bipyramid_angles(np.random.default_rng(12))
    edges = x.boundary_edges
    good = dict.fromkeys(edges, 0.1)
    bad = [[0.1] * 3, [0.1] * (len(edges) + 1), {**good, x.interior_edges[0]: 0.1},
           {**good, 99: 0.1}, {e: 0.1 for e in edges[1:]}, [np.nan] + [0.1] * (len(edges) - 1),
           [0.1j] * len(edges), "abc"]
    for bs in bad:
        with pytest.raises(InvalidGauge):
            partition_function(x, ang, boundary_state=bs, mp=mp1)
        with pytest.raises(InvalidGauge):
            check_pachner_invariance(x, ang, central, mp1, QuadratureConfig(), boundary_state=bs)
    with pytest.raises(InvalidGauge):
        partition_function(*trefoil, boundary_state=[0.1], mp=mp1)
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8)
    by_key = partition_function(x, ang, boundary_state=good, mp=mp1, cfg=cfg)
    in_order = partition_function(x, ang, boundary_state=[0.1] * len(edges), mp=mp1, cfg=cfg)
    assert by_key.value == in_order.value


def test_knot_quad_angle(fig8):
    x, angles = fig8
    knot = next(e for e, c in enumerate(x.edge_classes) if len(c) == 1)
    assert knot_quad_angle(x, angles, knot) == angles[0][0]
    with pytest.raises(NotApplicable, match="degree"):
        knot_quad_angle(x, angles, 0)
    with pytest.raises(NotApplicable, match="edge 99 is not an edge class"):
        knot_quad_angle(x, angles, 99)
    # angles that are no shape: one tetrahedron's triple, and angles of 5.0
    with pytest.raises(ShapeViolation, match="shaped"):
        knot_quad_angle(x, np.asarray(angles)[0], knot)
    with pytest.raises(ShapeViolation, match="angle sum"):
        knot_quad_angle(x, np.full((x.n_tets, 3), 5.0), knot)


def test_renormalized_trefoil_is_one(trefoil, mp1, cfg9):
    # dividing by 2|Phi(u(alpha_knot))|^2 gives exactly 1 for the trefoil
    x, angles = trefoil
    res = partition_function(x, angles, mp=mp1, cfg=cfg9)
    knot = next(e for e, c in enumerate(x.edge_classes) if len(c) == 1)
    factor = 2 * abs(phi_b(mp1.u_of(knot_quad_angle(x, angles, knot)), mp1)) ** 2
    assert abs(res.value / factor - 1.0) < 1e-7
