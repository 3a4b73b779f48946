"""Standalone integral identities: pentagons, beta integrals, kernels, entropy."""
import numpy as np
import pytest

from shapedtqft import identities, qdilog, quadrature, special
from shapedtqft.errors import ConstraintViolation, QuadratureFailure
from shapedtqft.identities import (BalancedParams33, BalancedParams6,
                                   check_classical_pentagon,
                                   check_elliptic_beta_integral,
                                   check_entropy_pentagon,
                                   check_hyperbolic_beta_integral,
                                   check_hyperbolic_pentagon,
                                   check_octahedron_duality,
                                   check_orthogonality_smeared,
                                   random_balanced_33, random_balanced_6,
                                   random_entropy_tuple, random_octahedron_params,
                                   solve_symmetric_entropy_tuple)
from shapedtqft.params import EllipticBases, ModularParameter
from shapedtqft.quadrature import QuadratureConfig
from tests.conftest import (LATTICE_STEPS, capture_integrands, count_line_caches,
                            lattice_mismatch, record_fills)


@pytest.fixture(scope="module")
def cfg():
    return QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)


@pytest.fixture
def no_gauss_kronrod(monkeypatch):
    """Make any Gauss-Kronrod panel raise: integrals over R take the trapezoid."""
    def refuse(*args):
        raise AssertionError("an integral over R reached Gauss-Kronrod panels")
    monkeypatch.setattr(quadrature, "_panel_eval", refuse)


def test_pentagon_symmetric_point(mp1, cfg):
    q = mp1.q_total
    p = BalancedParams33((q / 6,) * 3, (q / 6,) * 3)
    assert check_hyperbolic_pentagon(p, mp1, cfg) < 1e-6


def test_pentagon_random_balanced(mp1, cfg):
    rng = np.random.default_rng(20)
    for imag in (0.0, 0.05):
        p = random_balanced_33(rng, mp1, imag_scale=imag)
        assert check_hyperbolic_pentagon(p, mp1, cfg) < 1e-5


def test_pentagon_at_second_coupling(cfg):
    mp = ModularParameter(1.3)
    rng = np.random.default_rng(21)
    assert check_hyperbolic_pentagon(random_balanced_33(rng, mp), mp, cfg) < 1e-5


def test_pentagon_relabeling_symmetry(mp1, cfg):
    # simultaneous a/b-index swap (1<->2 with b1<->b2) is a symmetry of the identity
    rng = np.random.default_rng(22)
    p = random_balanced_33(rng, mp1)
    r1 = check_hyperbolic_pentagon(p, mp1, cfg)
    p2 = BalancedParams33((p.a[1], p.a[0], p.a[2]), (p.b[1], p.b[0], p.b[2]))
    r2 = check_hyperbolic_pentagon(p2, mp1, cfg)
    assert r1 < 1e-5 and r2 < 1e-5


def test_pentagon_balancing_enforced(mp1, cfg):
    with pytest.raises(ConstraintViolation):
        check_hyperbolic_pentagon(BalancedParams33((0.3, 0.3, 0.3), (0.3, 0.3, 0.31)),
                                  mp1, cfg)


def test_pentagon_at_bailey_parameters(mp1, cfg, no_gauss_kronrod):
    # the seed Bailey transform of B(al_i - z, be_i + z) with kernel
    # B(t + w - z, t - w + z) is the pentagon at a = (t + w, al), b = (t - w, be)
    rng = np.random.default_rng(26)
    q = mp1.q_total
    for _ in range(5):
        parts = rng.uniform(0.08, 0.18, 4) * q
        t = (q - parts.sum()) / 2
        w = rng.uniform(-0.12, 0.12) * q
        p = BalancedParams33((t + w, *parts[:2]), (t - w, *parts[2:]))
        assert check_hyperbolic_pentagon(p, mp1, cfg) < 1e-5


def test_hyperbolic_beta_symmetric(mp1, cfg):
    p = BalancedParams6((mp1.q_total / 6,) * 6)
    assert check_hyperbolic_beta_integral(p, mp1, cfg) < 1e-5


def test_hyperbolic_beta_random(mp1, cfg):
    rng = np.random.default_rng(23)
    for _ in range(3):
        assert check_hyperbolic_beta_integral(random_balanced_6(rng, mp1), mp1, cfg) < 1e-4


def test_hyperbolic_beta_balancing_sensitivity(mp1, cfg):
    q = mp1.q_total
    good = check_hyperbolic_beta_integral(BalancedParams6((q / 6,) * 6), mp1, cfg)
    perturbed = BalancedParams6((q / 6 + 1e-2,) + (q / 6,) * 5)
    bad = check_hyperbolic_beta_integral(perturbed, mp1, cfg, balance_tol=1.0)
    assert bad > 10 * max(good, 1e-9)


def test_elliptic_beta_symmetric_point():
    bases = EllipticBases(0.3, 0.3)
    s = (0.09) ** (1 / 6) * np.ones(6)
    assert check_elliptic_beta_integral(s, bases) < 1e-10


def test_elliptic_beta_random_balanced():
    rng = np.random.default_rng(24)
    bases = EllipticBases(0.3, 0.3)
    done = 0
    while done < 3:
        s = rng.uniform(0.25, 0.7, 5) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        s6 = bases.p * bases.q / np.prod(s)
        if abs(s6) >= 0.9:
            continue
        assert check_elliptic_beta_integral(np.append(s, s6), bases) < 1e-8
        done += 1


def test_elliptic_beta_nodes_nest(monkeypatch):
    # criterion 4's first three draws: each doubling evaluates only the new
    # nodes, so a draw takes at most 512 nodes (the un-nested loop took up to 960)
    nodes = []
    theta = identities.theta_fn
    monkeypatch.setattr(identities, "theta_fn",
                        lambda z, p, tol: nodes.append(np.size(z)) or theta(z, p, tol))
    rng = np.random.default_rng(2027)
    bases = EllipticBases(0.3, 0.3)
    per_draw = []
    while len(per_draw) < 3:
        s = rng.uniform(0.25, 0.7, 5) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        s6 = bases.p * bases.q / np.prod(s)
        if abs(s6) >= 0.9:
            continue
        nodes.clear()
        assert check_elliptic_beta_integral(np.append(s, s6), bases) <= 1e-12
        per_draw.append(sum(nodes) // 2)  # theta(z^2; p) and theta(z^-2; q) at each node
    assert per_draw == [256, 512, 256]


def test_elliptic_beta_refuses_at_node_cap(monkeypatch):
    # an integrand whose node values never settle: refused at 16384 nodes
    noise = np.random.default_rng(0)
    monkeypatch.setattr(identities, "elliptic_gamma", lambda z, *_a: np.ones(np.shape(z)))
    monkeypatch.setattr(identities, "theta_fn", lambda z, *_a: noise.normal(size=np.shape(z)))
    bases = EllipticBases(0.3, 0.3)
    with pytest.raises(QuadratureFailure, match="16384 nodes"):
        check_elliptic_beta_integral(0.09 ** (1 / 6) * np.ones(6), bases)


def test_elliptic_beta_balancing_sensitivity():
    bases = EllipticBases(0.3, 0.3)
    s = (0.09) ** (1 / 6) * np.ones(6)
    bad = check_elliptic_beta_integral(s * 1.01 ** (1 / 6), bases, require_balanced=False)
    assert bad > 1e-3


def test_classical_pentagon_symmetric(cfg, no_gauss_kronrod):
    assert check_classical_pentagon(0.2, 0.2, 0.2, 0.2, 0.2, cfg) < 1e-8


def test_classical_pentagon_random(cfg):
    rng = np.random.default_rng(25)
    for _ in range(5):
        a = rng.uniform(0.15, 0.6, 5)
        assert check_classical_pentagon(*a, cfg) < 1e-7


def test_classical_pentagon_swap_symmetry(cfg):
    # a1 <-> a2 together with b1 <-> b2 leaves both sides invariant
    r1 = check_classical_pentagon(0.3, 0.5, 0.25, 0.4, 0.2, cfg)
    r2 = check_classical_pentagon(0.5, 0.3, 0.25, 0.2, 0.4, cfg)
    assert r1 < 1e-7 and r2 < 1e-7


# -- orthogonality -----------------------------------------------------------------

def test_orthogonality_symbol_and_locality(mp1, no_gauss_kronrod):
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-7)
    near = check_orthogonality_smeared(0.2, 0.0, 0.5, mp1, cfg)
    # the Fourier symbol of the kernel is constant: the delta normalization
    assert near["symbol_deviation"] < 1e-8
    tighter = check_orthogonality_smeared(0.2, 0.0, 0.25, mp1, cfg)
    # shrinking sigma concentrates on the delta: the smear grows toward it
    assert abs(tighter["smeared"]) > abs(near["smeared"])
    far = check_orthogonality_smeared(0.2, 3 * 0.25, 0.25, mp1, cfg)
    assert abs(far["smeared"]) < 0.5 * abs(tighter["smeared"])


# -- octahedron -------------------------------------------------------------------

def test_octahedron_duality_points(mp1):
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    rng = np.random.default_rng(27)
    for _ in range(3):
        al, be, t, s, u, w = random_octahedron_params(rng, mp1)
        assert check_octahedron_duality(al, be, t, s, u, w, mp1, cfg) < 1e-4


def test_bailey_step_produces_valid_pair(mp1, no_gauss_kronrod):
    # a Bailey composition step with kernel parameter s = 0.2 and u = 0.24 on the
    # seed alpha (0.24, 0.20), beta (0.28, 0.22) is the octahedron Z4 = Z5: the
    # stepped pair satisfies the defining transform at w = 0.06 with respect to s + t
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8)
    al, be = (0.24, 0.20), (0.28, 0.22)
    t = (mp1.q_total - sum(al) - sum(be)) / 2
    assert check_octahedron_duality(al, be, t, 0.2, 0.24, 0.06, mp1, cfg) < 1e-5


def test_octahedron_skew_sensitivity(mp1):
    # negative control: breaking the composed kernel on one side only
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    rng = np.random.default_rng(28)
    al, be, t, s, u, w = random_octahedron_params(rng, mp1)
    good = check_octahedron_duality(al, be, t, s, u, w, mp1, cfg)
    bad = check_octahedron_duality(al, be, t, s, u, w, mp1, cfg, skew=1e-2)
    assert bad > 10 * max(good, 1e-8)


def test_octahedron_one_integral_per_side(mp1, monkeypatch):
    # Z4 is one 1D integral and Z5 one 2D integral, both on the trapezoid:
    # no nested quadrature, and identities cannot reach Gauss-Kronrod panels
    assert not hasattr(identities, "integrate_1d")
    calls = []
    integrate = identities.integrate_nd
    monkeypatch.setattr(identities, "integrate_nd",
                        lambda f, dim, cfg: calls.append(dim) or integrate(f, dim, cfg))
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    al, be, t, s, u, w = random_octahedron_params(np.random.default_rng(29), mp1)
    assert check_octahedron_duality(al, be, t, s, u, w, mp1, cfg) < 1e-4
    assert calls == [1, 2]


def test_octahedron_sides_fill_each_phib_entry_once(mp1, monkeypatch):
    # Z4 and Z5 read one LineTables, so the alpha/beta factors they share are
    # filled once: no (line, step, m) is computed twice.  Every offset is
    # real, so each gamma2 table is filled at m >= 0 only and mirrored.  The
    # count includes the entries the radius-8 axis probes read at step h0/4
    # past the trapezoid's radius-4 box, and every entry of each later
    # level's table at its own step.
    built = []
    init = special.LineTables.__init__
    monkeypatch.setattr(special.LineTables, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    filled = record_fills(monkeypatch)
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    assert check_octahedron_duality(*criterion13_octahedron(mp1), mp1, cfg) <= 1e-7
    assert len(built) == 1
    assert len(filled) == len(set(filled)) == 3_826


def criterion3_first_pentagons():
    """(mp, params) of the first pentagon of criterion 3's draws at each
    coupling: its draws 1 and 11."""
    rng = np.random.default_rng(2026)
    out = []
    for b in (1.0, 1.3):
        mp = ModularParameter(b)
        first, *_rest = [random_balanced_33(rng, mp) for _ in range(10)]
        out.append((mp, first))
    return out


def criterion13_octahedron(mp):
    """The first octahedron of the criterion 13 draws, as check_octahedron_duality takes it."""
    al, be, t, s, u, w = random_octahedron_params(np.random.default_rng(2031), mp)
    return (tuple(complex(v) for v in al), tuple(complex(v) for v in be),
            complex(t), complex(s), complex(u), complex(w))


@pytest.mark.parametrize("h", LATTICE_STEPS)
def test_octahedron_z5_lattice_matches_direct(mp1, monkeypatch, h):
    # the 2D identity integrands: the octahedron's Z5 and the orthogonality
    # smear, whose line factors sit 0.02 from the pole lattice
    seen = capture_integrands(monkeypatch, identities)
    identities._octahedron_z5(*criterion13_octahedron(mp1), mp1, QuadratureConfig())
    check_orthogonality_smeared(0.2, 0.75, 0.25, mp1, QuadratureConfig())
    assert [dim for _f, dim in seen] == [2, 2]
    for f, dim in seen:
        assert lattice_mismatch(f, dim, h) <= 1e-12


@pytest.mark.parametrize("h", LATTICE_STEPS)
def test_1d_identity_lattice_forms_match_direct(mp1, monkeypatch, h):
    # the pentagon (real and complex offsets, two couplings), the beta
    # integral, whose measure vanishes at t = 0, and the octahedron's Z4
    seen = capture_integrands(monkeypatch, identities)
    cfg = QuadratureConfig()
    for b in (1.0, 1.3):
        mp = ModularParameter(b)
        for imag in (0.0, 0.05):
            p = random_balanced_33(np.random.default_rng(5), mp, imag_scale=imag)
            check_hyperbolic_pentagon(p, mp, cfg)
    check_hyperbolic_beta_integral(random_balanced_6(np.random.default_rng(23), mp1), mp1, cfg)
    identities._octahedron_z4(*criterion13_octahedron(mp1), mp1, cfg, 0.0)
    assert [dim for _f, dim in seen] == [1] * 6
    for f, dim in seen:
        assert lattice_mismatch(f, dim, h) <= 1e-12


@pytest.mark.parametrize("integrand", ["pentagon", "z4"])
def test_lattice_and_pointwise_forms_integrate_alike(mp1, monkeypatch, integrand):
    # criterion 3's first pentagon and criterion 13's first Z4: through its
    # lattice form the trapezoid reads h0, h0/2 and h0/4 from one
    # preparation at h0/4 and each later level from its own; the same
    # integrand without the lattice form is evaluated at each level's points
    # k h.  Both forms are conjugation-even, so both read the half lattice.
    # Same nodes and step sequence, values equal to rounding.
    seen = capture_integrands(monkeypatch, identities)
    if integrand == "pentagon":
        check_hyperbolic_pentagon(random_balanced_33(np.random.default_rng(2026), mp1), mp1,
                                  QuadratureConfig())
    else:
        identities._octahedron_z4(*criterion13_octahedron(mp1), mp1, QuadratureConfig(), 0.0)
    (f, dim), = seen
    assert f.conjugation_even

    def pointwise_form(x):
        return f(x)
    pointwise_form.conjugation_even = True
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    lattice = quadrature.integrate_nd(f, dim, cfg)
    pointwise = quadrature.integrate_nd(pointwise_form, dim, cfg)
    assert lattice.evaluations == pointwise.evaluations
    assert abs(lattice.value - pointwise.value) <= 1e-13 * abs(pointwise.value)


def test_identity_quadrature_work_is_pinned(mp1, monkeypatch):
    # the evaluation counts of criterion 3's first pentagon at each coupling
    # (its draws 1 and 11) and of Z4 and Z5 of criterion 13's first
    # octahedron, at the criteria's tolerances and at 1e-10: a change to the
    # tables or the box probes must not move the box or the step sequence of
    # the trapezoid.  The residual bound 1e-12 needs tolerance 1e-10: at
    # 1e-7 the squared halving estimate stops Z5 one halving earlier.  Every
    # one of these integrands is conjugation-even and reads the half
    # lattice: (n + 1) / 2 of the n nodes the full lattice reads on the same
    # box and step sequence.
    counts = []
    integrate = identities.integrate_nd

    def counted(f, dim, cfg):
        res = integrate(f, dim, cfg)
        counts.append(res.evaluations)
        return res

    monkeypatch.setattr(identities, "integrate_nd", counted)
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    for mp, first in criterion3_first_pentagons():
        assert check_hyperbolic_pentagon(first, mp, cfg) <= 1e-12
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    assert check_octahedron_duality(*criterion13_octahedron(mp1), mp1, cfg) <= 1e-7
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    assert check_octahedron_duality(*criterion13_octahedron(mp1), mp1, cfg) <= 1e-12
    full = [319, 319, 159, 101_761, 159, 408_321]
    assert counts == [(n + 1) // 2 for n in full]


def test_identity_integrands_marked_conjugation_even(mp1, monkeypatch):
    # the pentagon at real parameters and both octahedron sides are
    # products of real-offset gamma2 factors times a real constant, read on
    # the half lattice; the complex pentagon, the beta integral (its
    # measure is a log_extra) and the smear (complex offsets) are not
    seen = capture_integrands(monkeypatch, identities)
    cfg = QuadratureConfig()
    for imag in (0.0, 0.05):
        check_hyperbolic_pentagon(random_balanced_33(np.random.default_rng(5), mp1, imag), mp1, cfg)
    check_octahedron_duality(*criterion13_octahedron(mp1), mp1, cfg)
    check_hyperbolic_beta_integral(random_balanced_6(np.random.default_rng(23), mp1), mp1, cfg)
    check_orthogonality_smeared(0.2, 0.75, 0.25, mp1, cfg)
    assert [f.conjugation_even for f, _dim in seen] == [True, False, True, True, False, False]


def test_marked_pentagon_integrand_is_conjugation_even(monkeypatch):
    # criterion 3's first draw at each coupling: f(-x) = conj f(x) on the
    # direct engine at 200 seeded points with |x| <= 5
    seen = capture_integrands(monkeypatch, identities)
    for mp, first in criterion3_first_pentagons():
        check_hyperbolic_pentagon(first, mp, QuadratureConfig())
    x = np.random.default_rng(25).uniform(-5, 5, size=(200, 1))
    for f, _dim in seen:
        assert f.conjugation_even
        assert (np.abs(f(-x) - np.conj(f(x))) <= 1e-13 * np.abs(f(x))).all()


def test_complex_pentagon_keeps_the_full_lattice(mp1, monkeypatch):
    # parameters with imaginary parts: the integrand is not marked, so the
    # trapezoid reads the full lattice and keeps the imaginary part that
    # the half lattice would drop, and the identity holds
    runs = []
    integrate = identities.integrate_nd
    monkeypatch.setattr(identities, "integrate_nd",
                        lambda f, dim, cfg: runs.append((f, integrate(f, dim, cfg))) or runs[-1][1])
    p = random_balanced_33(np.random.default_rng(2026), mp1, imag_scale=0.2)
    assert check_hyperbolic_pentagon(p, mp1, QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)) < 1e-5
    (f, res), = runs
    assert not f.conjugation_even
    assert res.value.imag != 0


def test_closed_forms_take_one_engine_call_per_integral(mp1, monkeypatch):
    # outside integrate_nd, whose probes and trapezoid read LineTables, a
    # pentagon trial takes its constants (the three gamma2 of the
    # denominator and both B of the right side) in one FaddeevDilog call,
    # and an octahedron trial one per side, Z4 and Z5: criterion 3's first
    # draw at each coupling and criterion 13's first octahedron
    calls, inside = [], [False]
    call = qdilog.FaddeevDilog.__call__
    monkeypatch.setattr(qdilog.FaddeevDilog, "__call__",
                        lambda self, *a, **kw: calls.append(inside[0]) or call(self, *a, **kw))
    integrate = identities.integrate_nd

    def flagged(f, dim, cfg):
        inside[0] = True
        try:
            return integrate(f, dim, cfg)
        finally:
            inside[0] = False
    monkeypatch.setattr(identities, "integrate_nd", flagged)
    per_trial = []
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    for mp, first in criterion3_first_pentagons():
        calls.clear()
        assert check_hyperbolic_pentagon(first, mp, cfg) <= 1e-12
        per_trial.append(calls.count(False))
    calls.clear()
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    assert check_octahedron_duality(*criterion13_octahedron(mp1), mp1, cfg) <= 1e-7
    per_trial.append(calls.count(False))
    assert per_trial == [1, 1, 2]


def test_lattice_calls_fill_in_one_engine_call_per_step(mp1, monkeypatch):
    # the box probes, the first three trapezoid levels together (h0, h0/2
    # and h0/4 read one preparation at h0/4, the probes' step) and each
    # later level fill every table entry they read in one _fill call: at
    # most one FaddeevDilog.lines call per grid step, on criterion 3's first
    # pentagon and criterion 13's first octahedron at b = 1 (the closed
    # form), and on a pentagon at b = 1.3, where each of those calls is one
    # _raw_grid call (one GEMM)
    calls, gemms = [], []   # per LineTables._fill: the grid steps of its lines / _raw_grid calls
    fill, lines = special.LineTables._fill, qdilog.FaddeevDilog.lines
    raw_grid = qdilog.FaddeevDilog._raw_grid
    monkeypatch.setattr(special.LineTables, "_fill",
                        lambda self, pieces: calls.append([]) or gemms.append([]) or fill(self, pieces))
    monkeypatch.setattr(qdilog.FaddeevDilog, "lines",
                        lambda self, specs, dx: calls[-1].append(dx) or lines(self, specs, dx))
    monkeypatch.setattr(qdilog.FaddeevDilog, "_raw_grid",
                        lambda self, segs, dx: gemms[-1].append(dx) or raw_grid(self, segs, dx))
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    assert check_hyperbolic_pentagon(random_balanced_33(np.random.default_rng(2026), mp1),
                                     mp1, cfg) <= 1e-12
    pentagon, calls[:] = list(calls), []
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    assert check_octahedron_duality(*criterion13_octahedron(mp1), mp1, cfg) <= 1e-7
    for steps in (pentagon, calls):
        assert all(len(set(dxs)) == len(dxs) for dxs in steps)
    assert [sum(map(len, steps)) for steps in (pentagon, calls)] == [4, 7]
    assert not any(gemms)
    mp = ModularParameter(1.3)
    calls[:], gemms[:] = [], []
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    assert check_hyperbolic_pentagon(random_balanced_33(np.random.default_rng(2026), mp),
                                     mp, cfg) <= 1e-12
    assert gemms == calls
    assert all(len(set(dxs)) == len(dxs) for dxs in gemms)
    assert sum(map(len, gemms)) == 4


def test_identity_checks_build_no_line_cache(mp1, monkeypatch):
    # criterion 3's first draw at each coupling and criterion 13's first
    # octahedron, whose Z4 and Z5 both read the lattice tables
    built = count_line_caches(monkeypatch)
    rng = np.random.default_rng(2026)
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    for b in (1.0, 1.3):
        mp = ModularParameter(b)
        assert check_hyperbolic_pentagon(random_balanced_33(rng, mp), mp, cfg) <= 1e-12
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    assert check_octahedron_duality(*criterion13_octahedron(mp1), mp1, cfg) <= 1e-12
    assert built == []


def test_octahedron_covariant_under_common_t_shift(mp1):
    # the duality transforms covariantly in t: a common perturbation of the
    # seed balancing leaves the two sides equal
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    rng = np.random.default_rng(31)
    al, be, t, s, u, w = random_octahedron_params(rng, mp1)
    r = check_octahedron_duality(al, be, t + 1e-2, s, u, w, mp1, cfg, balance_tol=1.0)
    assert r < 1e-4


# -- entropy pentagon ------------------------------------------------------------------

def test_entropy_symmetric_solve():
    tup = solve_symmetric_entropy_tuple(0.1)
    assert abs(sum(tup) - 1) < 1e-12
    assert abs(tup[0] * tup[1] - tup[2] * tup[3] * tup[4]) < 1e-12
    assert check_entropy_pentagon(*tup) < 1e-12


def test_entropy_random_tuples():
    rng = np.random.default_rng(29)
    for _ in range(100):
        assert check_entropy_pentagon(*random_entropy_tuple(rng)) < 1e-12


def test_entropy_constraint_sensitivity():
    a1, a2, b1, b2, b3 = random_entropy_tuple(np.random.default_rng(30))
    with pytest.raises(ConstraintViolation):
        check_entropy_pentagon(a1, a2, b1, b2, b3 * 1.05)
    # bypassing validation, the residual is macroscopic
    r = check_entropy_pentagon(a1, a2, b1 * 1.02, b2, b3, tol=1.0)
    assert r > 1e-6


def test_residual_scales_with_tolerance(mp1):
    # no plateau above tolerance: tightening the quadrature budget improves
    # the verified residual down to the kernel accuracy floor
    p = BalancedParams6((mp1.q_total / 6,) * 6)
    loose = check_hyperbolic_beta_integral(
        p, mp1, QuadratureConfig(abs_tol=1e-4, rel_tol=1e-4))
    tight = check_hyperbolic_beta_integral(
        p, mp1, QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9))
    assert tight <= max(loose, 1e-7)
    assert tight < 1e-6


def test_entropy_rejects_nonpositive():
    with pytest.raises(ConstraintViolation):
        check_entropy_pentagon(-0.1, 0.4, 0.3, 0.2, 0.2)
