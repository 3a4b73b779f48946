"""Standalone integral identities: pentagons, beta integrals, kernels, entropy."""
import numpy as np
import pytest

from shapedtqft import identities, qdilog
from shapedtqft.errors import ConstraintViolation
from shapedtqft.identities import (BalancedParams33, BalancedParams6,
                                   bailey_pair_seed, bailey_step,
                                   check_classical_pentagon,
                                   check_elliptic_beta_integral,
                                   check_entropy_pentagon,
                                   check_hyperbolic_beta_integral,
                                   check_hyperbolic_pentagon,
                                   check_octahedron_duality,
                                   check_orthogonality_smeared,
                                   random_balanced_33, random_balanced_6,
                                   random_entropy_tuple, random_octahedron_params,
                                   solve_symmetric_entropy_tuple, verify_bailey_pair)
from shapedtqft.params import EllipticBases, ModularParameter
from shapedtqft.quadrature import QuadratureConfig
from tests.conftest import LATTICE_STEPS, capture_integrands, lattice_mismatch


@pytest.fixture(scope="module")
def cfg():
    return QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)


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


def test_elliptic_beta_balancing_sensitivity():
    bases = EllipticBases(0.3, 0.3)
    s = (0.09) ** (1 / 6) * np.ones(6)
    bad = check_elliptic_beta_integral(s * 1.01 ** (1 / 6), bases, require_balanced=False)
    assert bad > 1e-3


def test_classical_pentagon_symmetric(cfg):
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

def test_orthogonality_symbol_and_locality(mp1):
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-7)
    near = check_orthogonality_smeared(0.2, 0.0, 0.5, mp1, cfg)
    # the Fourier symbol of the kernel is constant: the delta normalization
    assert near["symbol_deviation"] < 1e-8
    tighter = check_orthogonality_smeared(0.2, 0.0, 0.25, mp1, cfg)
    # shrinking sigma concentrates on the delta: the smear grows toward it
    assert abs(tighter["smeared"]) > abs(near["smeared"])
    far = check_orthogonality_smeared(0.2, 3 * 0.25, 0.25, mp1, cfg)
    assert abs(far["smeared"]) < 0.5 * abs(tighter["smeared"])


# -- Bailey / octahedron -------------------------------------------------------------

def test_bailey_seed_verifies(mp1, cfg):
    rng = np.random.default_rng(26)
    q = mp1.q_total
    for _ in range(5):
        parts = rng.uniform(0.08, 0.18, 4) * q
        t = (q - parts.sum()) / 2
        pair = bailey_pair_seed(parts[:2], parts[2:], t, mp1)
        w = rng.uniform(-0.12, 0.12) * q
        assert verify_bailey_pair(pair, w, mp1, cfg) < 1e-5


def test_bailey_seed_balancing_enforced(mp1):
    with pytest.raises(ConstraintViolation):
        bailey_pair_seed((0.2, 0.2), (0.2, 0.2), 0.7, mp1)


def test_bailey_step_produces_valid_pair(mp1):
    # the stepped pair satisfies the defining transform with respect to s + t
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8)
    q = mp1.q_total
    al, be = (0.24, 0.20), (0.28, 0.22)
    t = (q - sum(al) - sum(be)) / 2
    seed = bailey_pair_seed(al, be, t, mp1)
    stepped = bailey_step(seed, 0.2, 0.24, mp1, cfg)
    assert abs(stepped.t - (0.2 + t)) < 1e-14
    assert verify_bailey_pair(stepped, 0.06, mp1, cfg) < 1e-5


def test_octahedron_duality_points(mp1):
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    rng = np.random.default_rng(27)
    for _ in range(3):
        al, be, t, s, u, w = random_octahedron_params(rng, mp1)
        assert check_octahedron_duality(al, be, t, s, u, w, mp1, cfg) < 1e-4


def test_octahedron_skew_sensitivity(mp1):
    # negative control: breaking the composed kernel on one side only
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    rng = np.random.default_rng(28)
    al, be, t, s, u, w = random_octahedron_params(rng, mp1)
    good = check_octahedron_duality(al, be, t, s, u, w, mp1, cfg)
    bad = check_octahedron_duality(al, be, t, s, u, w, mp1, cfg, skew=1e-2)
    assert bad > 10 * max(good, 1e-8)


def test_octahedron_one_integral_per_side(mp1, monkeypatch):
    # Z4 is one 1D integral and Z5 one 2D integral: no nested quadrature
    calls = {"integrate_1d": 0, "integrate_nd": 0}
    for name in calls:
        def counted(*args, _fn=getattr(identities, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(identities, name, counted)
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    al, be, t, s, u, w = random_octahedron_params(np.random.default_rng(29), mp1)
    assert check_octahedron_duality(al, be, t, s, u, w, mp1, cfg) < 1e-4
    assert calls == {"integrate_1d": 1, "integrate_nd": 1}


def criterion13_octahedron(mp):
    """The first octahedron of the criterion 13 draws, as check_octahedron_duality takes it."""
    al, be, t, s, u, w = random_octahedron_params(np.random.default_rng(2031), mp)
    return (tuple(complex(v) for v in al), tuple(complex(v) for v in be),
            complex(t), complex(s), complex(u), complex(w))


@pytest.mark.parametrize("h", LATTICE_STEPS)
def test_octahedron_z5_lattice_matches_direct(mp1, monkeypatch, h):
    seen = capture_integrands(monkeypatch, identities)
    identities._octahedron_z5(*criterion13_octahedron(mp1), mp1, QuadratureConfig())
    (f, dim), = seen
    assert lattice_mismatch(f, dim, h) <= 1e-12


def test_octahedron_z5_builds_no_line_cache(mp1, monkeypatch):
    built = []
    init = qdilog.LineCache.__init__
    monkeypatch.setattr(qdilog.LineCache, "__init__",
                        lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
    cfg = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
    z5 = identities._octahedron_z5(*criterion13_octahedron(mp1), mp1, cfg)
    assert np.isfinite(z5) and z5 != 0
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
