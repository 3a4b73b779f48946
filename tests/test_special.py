"""Hyperbolic/elliptic gamma, B and Fourier kernels, beta, Lobachevsky."""
import numpy as np
import pytest
import scipy.special as scipy_special
from scipy.integrate import quad

from shapedtqft import identities, special
from shapedtqft.errors import NonConvergence, PoleHit
from shapedtqft.identities import random_balanced_33
from shapedtqft.params import EllipticBases, ModularParameter
from shapedtqft.qdilog import FaddeevDilog, phi_b
from shapedtqft.quadrature import QuadratureConfig
from shapedtqft.special import (LineTables, bernoulli_b22, cap_psi, cap_psi_direct,
                                classical_beta, elliptic_gamma, gamma2_line, hyper_B,
                                hyperbolic_gamma, hyperbolic_gamma_general,
                                hyperbolic_gamma_product, line_integrand, lobachevsky, psi_fn,
                                theta_fn)
from tests.conftest import record_fills


# -- bernoulli ----------------------------------------------------------------

def test_bernoulli_examples():
    assert abs(bernoulli_b22(1.0, 1.0, 1.0) - (-1 / 6)) < 1e-15
    mp = ModularParameter(1.0)
    assert abs(bernoulli_b22(1.0, mp=mp) - (-1 / 6)) < 1e-15


def test_bernoulli_reflection():
    # B22(u) = B22(omega1 + omega2 - u), exact
    mp = ModularParameter(1.1)
    rng = np.random.default_rng(0)
    u = rng.uniform(-1, 2, 20) + 1j * rng.uniform(-1, 1, 20)
    lhs = bernoulli_b22(u, mp=mp)
    rhs = bernoulli_b22(mp.q_total - u, mp=mp)
    assert np.abs(lhs - rhs).max() < 1e-13


# -- hyperbolic gamma ----------------------------------------------------------

@pytest.mark.parametrize("b", [1.0, 0.8])
def test_gamma2_inversion(b):
    mp = ModularParameter(b)
    rng = np.random.default_rng(1)
    u = rng.uniform(0.15, mp.q_total - 0.15, 100) + 1j * rng.uniform(-0.5, 0.5, 100)
    res = hyperbolic_gamma(u, mp) * hyperbolic_gamma(mp.q_total - u, mp)
    assert np.abs(res - 1).max() < 1e-9


def test_gamma2_self_dual_point():
    for b in (1.0, 1.25):
        mp = ModularParameter(b)
        assert abs(hyperbolic_gamma(mp.q_total / 2, mp) - 1.0) < 1e-10


@pytest.mark.parametrize("b", [1.0, 1.3, 0.77])
def test_gamma2_beta_measure_is_elementary(b):
    # 1/(gamma2(2it) gamma2(-2it)) = 4 sinh(2 pi b t) sinh(2 pi t/b), the
    # measure of the hyperbolic beta integral
    mp = ModularParameter(b)
    t = np.linspace(-3.0, 3.0, 60)
    lhs = 1.0 / (hyperbolic_gamma(2j * t, mp) * hyperbolic_gamma(-2j * t, mp))
    rhs = 4 * np.sinh(2 * np.pi * b * t) * np.sinh(2 * np.pi * t / b)
    assert np.abs(lhs / rhs - 1).max() <= 1e-13


def test_gamma2_conjugation():
    mp = ModularParameter(1.0)
    z = 0.5 + 0.3j
    lhs = np.conj(hyperbolic_gamma(z, mp))
    rhs = hyperbolic_gamma(np.conj(z), mp)
    assert abs(lhs - rhs) < 1e-10


def test_gamma2_product_form_requires_complex_ratio():
    with pytest.raises(NonConvergence):
        hyperbolic_gamma_product(0.3, 1.0, 2.0)


def test_gamma2_product_form_inversion():
    w1, w2 = 1.0 + 0.4j, 1.1 - 0.1j
    q = w1 + w2
    rng = np.random.default_rng(2)
    u = rng.uniform(0.3, 1.5, 10) + 1j * rng.uniform(-0.2, 0.2, 10)
    res = hyperbolic_gamma_product(u, w1, w2) * hyperbolic_gamma_product(q - u, w1, w2)
    assert np.abs(res - 1).max() < 1e-10


def test_gamma2_product_form_continuity_to_real_ratio():
    # product form at omega1 = b e^{i eps} approaches the real-b value as eps -> 0
    b = 0.9
    mp = ModularParameter(b)
    u = 0.8 + 0.1j
    ref = complex(hyperbolic_gamma(u, mp))
    errs = []
    for eps in (1e-2, 1e-3):
        val = complex(hyperbolic_gamma_product(u, b * np.exp(1j * eps), 1 / b))
        errs.append(abs(val - ref))
    assert errs[0] < 0.05 and errs[1] < errs[0] * 0.2


def test_gamma2_large_omega2_reduction():
    # gamma2(z; 1, w2) ~ (w2/(2 pi))^{1/2 - z} Gamma(z)/sqrt(2 pi), improving in w2
    from scipy.special import gamma as euler_gamma
    z = 0.6
    errs = []
    for w2 in (50.0, 100.0, 200.0):
        val = complex(hyperbolic_gamma_general(z, 1.0, w2))
        ref = (w2 / (2 * np.pi)) ** (0.5 - z) * euler_gamma(z) / np.sqrt(2 * np.pi)
        errs.append(abs(val / ref - 1))
    assert errs[0] < 1e-2
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("b", [1.0, 1.3])
def test_gamma2_line_matches_hyperbolic_gamma(b):
    # offsets include the pentagon's complex ones; the far points lie beyond
    # the radius passed to the line cache
    mp = ModularParameter(b)
    p = random_balanced_33(np.random.default_rng(5), mp, imag_scale=0.05)
    near = np.linspace(-3.0, 3.0, 41)
    far = np.linspace(-10.0, 10.0, 61)
    for c in (*p.a, *p.b, 0.5 * mp.q_total):
        line = gamma2_line(c, mp, radius=4.0)
        for ws in (near, far):
            ref = hyperbolic_gamma(c + 1j * ws, mp)
            assert np.abs(np.exp(line(ws)) / ref - 1.0).max() <= 1e-7


@pytest.mark.parametrize("b", [1.0, 1.3])
def test_line_tables_extend_without_rebuild(b, monkeypatch):
    # a reserve past the table fills only the new entries, leaves the old ones
    # bit-identical, and the reader on the reserved span fills nothing and
    # matches the direct engine; a lookup outside the reserved span is refused
    mp = ModularParameter(b)
    filled = record_fills(monkeypatch)
    tables = LineTables(mp)
    c, z0, h = 0.4 * mp.q_total + 0.1j, 0.3 + 0.2j, 0.1
    for key, factor, direct in ((tables.gamma2_key(c, h), ("g2", c, 1, 1),
                                 lambda m: hyperbolic_gamma(c + 1j * m * h, mp)),
                                ((z0, h), ("phi", z0, 1, 1),
                                 lambda m: phi_b(z0 + m * h, mp))):
        filled.clear()
        tables.reserve([(key, -5, 5)])
        first = tables.phi(*key, np.arange(-5, 6))
        tables.reserve([(key, -40, 30), (key, -7, 2)])
        wider = tables.phi(*key, np.arange(-40, 31))
        assert np.array_equal(wider[35:46], first)
        # 11, then 35 and 25 new entries
        assert [m for _z0, _h, m in filled] == [*range(-5, 6), *range(-40, -5), *range(6, 31)]
        m = np.arange(-40, 31)[:, None]
        read = tables.reader([factor], h, m)
        assert len(filled) == 71
        assert np.abs(read(m) / direct(m[:, 0]) - 1).max() <= 1e-12
        with pytest.raises(IndexError):
            tables.phi(*key, np.arange(25, 32))


@pytest.mark.parametrize("b", [1.0, 1.3])
def test_line_tables_steps_are_independent(b, monkeypatch):
    # a table at step h/2 reserved after the step-h table fills all its own
    # entries, a grid of step h/2, leaves the step-h table bit-identical and
    # matches the direct engine; a gamma2 factor's tables at step -h alike
    mp = ModularParameter(b)
    filled = record_fills(monkeypatch)
    tables = LineTables(mp)
    c, z0, h = 0.4 * mp.q_total + 0.1j, 0.3 + 0.2j, 0.1
    coarse, fine = np.arange(-20, 21), np.arange(-40, 41)
    for key, factor, direct in ((lambda step: tables.gamma2_key(c, step), ("g2", c, 1, 1),
                                 lambda m: hyperbolic_gamma(c + 1j * m * h / 2, mp)),
                                (lambda step: (complex(z0), step), ("phi", z0, 1, 1),
                                 lambda m: phi_b(z0 + m * h / 2, mp))):
        tables.reserve([(key(h), -20, 20)])
        before = tables.phi(*key(h), coarse).copy()
        filled.clear()
        tables.reserve([(key(h / 2), -40, 40)])
        assert filled == [(*key(h / 2), m) for m in range(-40, 41)]    # its own 81 entries
        assert np.array_equal(tables.phi(*key(h), coarse), before)
        read = tables.reader([factor], h / 2, fine[:, None])
        assert len(filled) == 81
        assert np.abs(read(fine[:, None]) / direct(fine) - 1).max() <= 1e-12
    # both steps reserved at once: each fills its own entries
    filled.clear()
    both = LineTables(mp)
    both.reserve([((z0, h / 2), -40, 40), ((z0, h), -20, 20)])
    assert len(filled) == len(set(filled)) == 41 + 81


@pytest.mark.parametrize("b", [1.0, 1.3])
def test_reader_mirrors_real_offset_gamma2(b, monkeypatch):
    # a gamma2 factor with a real offset is filled at m >= 0 only, out to the
    # largest |m| the hull reaches, and read at m < 0 by conjugation; a
    # complex offset is filled on its span [lo, hi]
    mp = ModularParameter(b)
    filled = record_fills(monkeypatch)
    tables = LineTables(mp)
    c, h = 0.4 * mp.q_total, 0.1
    k = np.arange(-30, 21)[:, None]
    read = tables.reader([("g2", c, 1, 1), ("g2", c, -1, 2)], h, k)
    assert [m for _z0, _h, m in filled] == list(range(31))
    w = 1j * k[:, 0] * h
    direct = hyperbolic_gamma(c + w, mp) * hyperbolic_gamma(c - w, mp)**2
    assert np.abs(read(k) / direct - 1).max() <= 1e-12
    filled.clear()
    tables.reader([("g2", c + 0.1j, 1, 1)], h, k)
    assert [m for _z0, _h, m in filled] == list(range(-30, 21))


@pytest.mark.parametrize("b", [1.0, 1.3, 0.77])
def test_line_tables_batch_matches_single_lines(b):
    # one reserve of tables at steps of either sign and at different |Im z|
    # (folded ones included), of 1 to 3 entries, and reaching past -re_cut
    # and +re_cut: one FaddeevDilog.lines call per grid step, whose entries
    # agree with a FaddeevDilog.lines fill of each table alone
    mp = ModularParameter(b)
    tables = LineTables(mp)
    eng = tables.eng
    cut, h = eng.re_cut, 0.3
    keys = [(complex(x0, y), step, lo, hi)
            for y in np.array([-0.95, -0.4, 0.0, 0.6, 0.95, 1.4]) * eng.cb_abs
            for x0, step, lo, hi in ((0.2, h, -60, 50), (-0.1, -h, -45, 70), (0.7, h, 0, 0),
                                     (-0.3, -h, 3, 4), (0.05, h, -2, 0),
                                     (cut + 0.4, h, -3, 20), (-cut - 0.4, -h, -3, 20))]
    tables.reserve([((z0, step), lo, hi) for z0, step, lo, hi in keys])
    for z0, step, lo, hi in keys:
        m = np.arange(lo, hi + 1)
        x = z0.real + step * m
        alone = eng.lines([(float(x.min()), len(m), z0.imag)], abs(step))[0]
        alone = alone if step > 0 else alone[::-1]
        assert np.abs(np.exp(tables.phi(z0, step, m) - alone) - 1).max() <= 1e-14
    with pytest.raises(PoleHit):
        tables.reserve([((0.1 + 1j * eng.cb_abs, h), 0, 3)])


def record_table_work(monkeypatch):
    """Record (method, its first argument) for every LineTables.reserve,
    _fill and phi call from now on: the needs, the pieces, the table z0."""
    work = []
    for name in ("reserve", "_fill", "phi"):
        method = getattr(LineTables, name)
        monkeypatch.setattr(LineTables, name, lambda self, first, *rest, name=name, method=method:
                            work.append((name, first)) or method(self, first, *rest))
    return work


def box(*kmax):
    """The corners of the integer box |k_j| <= kmax_j, as a reader's hull."""
    return np.array(np.meshgrid(*[(-m, m) for m in kmax])).reshape(len(kmax), -1).T


@pytest.mark.parametrize("b", [1.0, 1.3])
def test_reader_on_a_covered_hull_does_no_table_work(b, monkeypatch):
    # each factor's exponentiated table is kept per (table key, mult): a
    # second reader at the same step on a hull the first one covered calls
    # neither reserve, _fill nor phi, and reads values bit-identical to the
    # first reader's, for real- and complex-offset gamma2 factors (two
    # sharing a kept table) and a Phi_b factor
    mp = ModularParameter(b)
    tables = LineTables(mp)
    c, h = 0.4 * mp.q_total, 0.1
    factors = [("g2", c, (1, 0), 1), ("g2", c, (-1, 1), 1), ("g2", c + 0.1j, (0, 1), -1),
               ("phi", 0.3 + 0.2j, (1, 1), 1)]
    k = np.random.default_rng(25).integers(-15, 16, size=(200, 2))
    before = tables.reader(factors, h, box(30, 20))(k)
    work = record_table_work(monkeypatch)
    after = tables.reader(factors, h, box(15, 15))(k)
    assert work == []
    assert np.array_equal(after, before)


@pytest.mark.parametrize("b", [1.0, 1.3])
def test_reader_rederives_only_the_factor_past_its_kept_span(b, monkeypatch):
    # a hull that reaches past the kept span of one factor re-derives that
    # factor alone, over the union of its spans: only its table is reserved,
    # filled and read.  Every kept entry has modulus <= 1, the new reader
    # matches the direct engine, and the earlier reader, which keeps its own
    # arrays, reads what it read before
    mp = ModularParameter(b)
    tables = LineTables(mp)
    c, h = 0.4 * mp.q_total, 0.1
    factors = [("g2", c, (1, 0), 1), ("g2", c + 0.1j, (0, 1), -1), ("phi", 0.3 + 0.2j, (1, 0), 1)]
    k = np.random.default_rng(25).integers(-20, 21, size=(200, 2))
    first = tables.reader(factors, h, box(20, 20))
    before = first(k)
    work = record_table_work(monkeypatch)
    wide = box(20, 40)
    second = tables.reader(factors, h, wide)
    key = tables.gamma2_key(c + 0.1j, h)
    assert [name for name, _arg in work] == ["reserve", "_fill", "phi"]
    (_n, needs), (_n, pieces), (_n, z0) = work
    assert [need[0] for need in needs] == [key] and {piece[0] for piece in pieces} == {key}
    assert z0 == key[0]
    assert all(np.abs(table).max() <= 1 for *_rest, table in tables._kept.values())
    k2 = np.random.default_rng(26).integers(-20, 21, size=(200, 2)) * [1, 2]
    w = 1j * k2 * h
    direct = (hyperbolic_gamma(c + w[:, 0], mp) / hyperbolic_gamma(c + 0.1j + w[:, 1], mp)
              * phi_b(0.3 + 0.2j + k2[:, 0] * h, mp))
    assert np.abs(second(k2) / direct - 1).max() <= 1e-12
    assert np.array_equal(first(k), before)


REAL_G2 = [("g2", 0.3, -1, 1), ("g2", 0.7, 1, -2)]


@pytest.mark.parametrize("factors,options,even", [
    (REAL_G2, {}, True),
    (REAL_G2, {"log_const": -1.5}, True),
    ([("g2", 0.3 + 0.01j, -1, 1), REAL_G2[1]], {}, False),
    ([*REAL_G2, ("phi", 0.2, 1, 1)], {}, False),
    (REAL_G2, {"log_extra": lambda x: -x[0] ** 2}, False),
    (REAL_G2, {"log_const": -1.5 + 0.1j}, False),
    ([("g2", 0.3, -1, 1 + 0.5j)], {}, False),
], ids=["real", "real-log-const", "complex-offset", "phi", "log-extra", "complex-log-const",
        "complex-mult"])
def test_line_integrand_flags_exactly_real_offset_gamma2_products(mp1, factors, options, even):
    # conj gamma2(c + i w) = gamma2(c - i w) for real c, so a product of
    # real powers of real-offset gamma2 factors times a real constant has
    # f(-x) = conj f(x); a complex offset, a Phi_b factor (conj Phi_b(z) =
    # 1 / Phi_b(conj z)), a log_extra, a complex log_const or mult is not
    # marked
    f = line_integrand(factors, mp1, **options)
    assert f.conjugation_even is even


# -- B kernel -------------------------------------------------------------------

def test_hyper_b_two_forms_agree():
    mp = ModularParameter(1.0)
    x, y = 0.4 + 0.2j, 0.3 - 0.1j
    b1 = complex(hyper_B(x, y, mp))
    b2 = complex(hyperbolic_gamma(x, mp) * hyperbolic_gamma(y, mp)
                 * hyperbolic_gamma(mp.q_total - x - y, mp))
    assert abs(b1 / b2 - 1) < 1e-10


def test_hyper_b_inversion_edge():
    # near x + y = Q the ratio and triple-product forms must stay consistent
    # (exactly at Q both diverge: gamma2(Q) is a zero of the denominator)
    mp = ModularParameter(1.0)
    x = 0.7 + 0.05j
    y = mp.q_total - x - 0.01
    lhs = complex(hyper_B(x, y, mp))
    rhs = complex(hyperbolic_gamma(x, mp) * hyperbolic_gamma(y, mp)
                  * hyperbolic_gamma(mp.q_total - x - y, mp))
    assert abs(lhs / rhs - 1) < 1e-9


def test_hyper_b_to_psi_dictionary():
    # B(delta a + i xh, delta be + i yh) = psi(u(a) + xh/2, yh - 2 c_b be/pi)
    mp = ModularParameter(1.0)
    al, be, xh, yh = np.pi / 3, np.pi / 4, 0.2, 0.5
    lhs = complex(hyper_B(mp.delta * al + 1j * xh, mp.delta * be + 1j * yh, mp))
    rhs = complex(psi_fn(mp.u_of(al) + xh / 2, yh - 2 * mp.cb * be / np.pi, mp))
    assert abs(lhs / rhs - 1) < 1e-10


def test_b_psi_bridge_identity():
    # B(i xh, i yh) = cap_psi(xh/2 + c_b, -xh/2 - c_b, yh)
    mp = ModularParameter(1.0)
    xh, yh = 0.3, 0.2
    lhs = complex(hyper_B(1j * xh, 1j * yh, mp))
    rhs = complex(cap_psi(xh / 2 + mp.cb, -xh / 2 - mp.cb, yh, mp))
    assert abs(lhs / rhs - 1) < 1e-8


def test_psi_is_cap_psi_diagonal():
    mp = ModularParameter(1.0)
    x, y = 0.4j, 0.2
    assert abs(complex(psi_fn(x, y, mp)) - complex(cap_psi(x, -x, y, mp))) == 0.0


def test_cap_psi_against_direct_integral(cfg9):
    mp = ModularParameter(1.0)
    u, v, w = 0.2j, -0.3j, 0.1
    closed = complex(cap_psi(u, v, w, mp))
    direct = cap_psi_direct(u, v, w, mp, cfg9).value
    assert abs(direct / closed - 1) < 1e-6


def test_cap_psi_direct_random_points(cfg9):
    mp = ModularParameter(1.0)
    rng = np.random.default_rng(3)
    for _ in range(4):
        u = 1j * rng.uniform(0.1, 0.5)
        v = -1j * rng.uniform(0.1, 0.5)
        w = rng.uniform(0.05, 0.4) * rng.choice([-1, 1])
        closed = complex(cap_psi(u, v, w, mp))
        direct = cap_psi_direct(u, v, w, mp, cfg9).value
        assert abs(direct / closed - 1) < 1e-6


# -- elliptic family --------------------------------------------------------------

def test_gamma2_pole_guard():
    import pytest as _pytest
    from shapedtqft.errors import PoleHit
    mp = ModularParameter(1.0)
    with _pytest.raises(PoleHit):
        hyperbolic_gamma(0.0, mp)          # pole lattice at -m w1 - n w2
    with _pytest.raises(PoleHit):
        hyperbolic_gamma(mp.q_total, mp)   # zero lattice at Q + m w1 + n w2


def test_cap_psi_direct_preconditions(cfg9):
    mp = ModularParameter(1.0)
    with pytest.raises(NonConvergence):
        cap_psi_direct(-0.2j, 0.3j, 0.1, mp, cfg9)  # Im(u - v) < 0
    with pytest.raises(NonConvergence):
        cap_psi_direct(0.3j, -0.2j, 0.0, mp, cfg9)  # w = 0: no regularized tail
    for w in (0.1 + 1.5j, 0.1 - 0.6j):  # the wave outgrows the left, resp. right, decay
        with pytest.raises(NonConvergence, match="outgrows"):
            cap_psi_direct(0.3j, -0.2j, w, mp, cfg9)


def test_elliptic_reflection():
    bases = EllipticBases(0.3, 0.3)
    z = 0.5
    res = elliptic_gamma(z, bases) * elliptic_gamma(bases.p * bases.q / z, bases)
    assert abs(complex(res) - 1) < 1e-12


def test_elliptic_functional_equation():
    bases = EllipticBases(0.2, 0.3)
    z = 0.4
    lhs = complex(elliptic_gamma(bases.q * z, bases))
    rhs = complex(theta_fn(z, bases.p) * elliptic_gamma(z, bases))
    assert abs(lhs - rhs) < 1e-12


def test_elliptic_base_symmetry():
    z = 0.6 + 0.1j
    v1 = complex(elliptic_gamma(z, EllipticBases(0.25, 0.35)))
    v2 = complex(elliptic_gamma(z, EllipticBases(0.35, 0.25)))
    assert abs(v1 - v2) < 1e-13


def test_elliptic_reflection_random():
    rng = np.random.default_rng(4)
    bases = EllipticBases(0.3, 0.3)
    z = rng.uniform(0.3, 0.9, 100) * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
    res = elliptic_gamma(z, bases) * elliptic_gamma(bases.p * bases.q / z, bases)
    assert np.abs(res - 1).max() < 1e-12


@pytest.mark.parametrize("p,q", [(0.3, 0.3), (0.2, 0.3), (0.3, 0.2 + 0.1j)])
def test_elliptic_measure_is_a_theta_product(p, q):
    # 1/(Gamma(z^2) Gamma(z^-2)) = theta(z^2; p) theta(z^-2; q), on and off |z| = 1
    rng = np.random.default_rng(6)
    bases = EllipticBases(p, q)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 60))
    for z in (phases, rng.uniform(0.8, 1.25, 60) * phases):
        measure = 1 / (elliptic_gamma(z**2, bases) * elliptic_gamma(z**-2, bases))
        theta = theta_fn(z**2, p) * theta_fn(z**-2, q)
        assert np.abs(theta / measure - 1).max() <= 1e-13


@pytest.mark.filterwarnings("error")
def test_theta_is_exactly_zero_at_its_zeros():
    # theta(z; p) vanishes at z = p^k; the rule on |z| = 1 meets z^2 = 1 at every level
    vals = theta_fn(np.array([1.0, 0.3, 0.5]), 0.3)
    assert vals[0] == 0 and vals[1] == 0 and vals[2] != 0
    assert theta_fn(1.0, 0.2 + 0.1j) == 0


# -- classical beta / Lobachevsky ---------------------------------------------------

def test_classical_beta_basics():
    assert abs(complex(classical_beta(1.0, 1.0)) - 1.0) < 1e-14
    assert abs(complex(classical_beta(2.0, 3.0)) - 1 / 12) < 1e-14


@pytest.mark.parametrize("x, y", [(0.0, 1.0), (-1.0, 0.5), (0.5, -2.0)])
def test_classical_beta_refuses_a_pole_of_x_or_y(x, y):
    with pytest.raises(PoleHit):
        classical_beta(x, y)


def test_classical_beta_is_zero_at_a_pole_of_x_plus_y():
    # B(-1/2, 1/2) = Gamma(-1/2) Gamma(1/2) / Gamma(0) = 0
    assert classical_beta(-0.5, 0.5) == 0
    assert np.array_equal(classical_beta(np.array([-0.5, 1.0]), np.array([0.5, 1.0])) == 0,
                          [True, False])


def test_cl2_zetas_match_scipy():
    vals = scipy_special.zeta(2 * np.arange(1, 41))
    assert np.abs(special._CL2_ZETAS / vals - 1).max() <= 4e-16


def test_classical_beta_matches_scipy_loggamma(monkeypatch):
    def scipy_beta(x, y):
        lg = scipy_special.loggamma
        return np.exp(lg(x) + lg(y) - lg(x + y))

    rng = np.random.default_rng(24)
    x, y = (rng.uniform(0.05, 3, 2000) + 1j * rng.uniform(-20, 20, 2000) for _ in range(2))
    assert np.abs(classical_beta(x, y) / scipy_beta(x, y) - 1).max() <= 1e-13
    # every argument pair of criterion 5's ten pentagons
    seen = []

    def recording(x, y):
        seen.append(np.broadcast_arrays(np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)))
        return classical_beta(x, y)

    monkeypatch.setattr(identities, "classical_beta", recording)
    rng = np.random.default_rng(2028)
    for a in [(0.2,) * 5] + [rng.uniform(0.15, 0.6, 5) for _ in range(9)]:
        identities.check_classical_pentagon(*a, QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11))
    x, y = (np.concatenate([np.ravel(pair[i]) for pair in seen]) for i in (0, 1))
    assert len(x) > 10000
    assert np.abs(classical_beta(x, y) / scipy_beta(x, y) - 1).max() <= 1e-13


def test_lobachevsky_zero_and_odd_periodicity():
    assert abs(lobachevsky(np.pi / 2)) < 1e-15
    th = 0.7
    assert abs(lobachevsky(np.pi - th) + lobachevsky(th)) < 1e-12
    assert abs(lobachevsky(-th) + lobachevsky(th)) < 1e-15
    assert abs(lobachevsky(th + np.pi) - lobachevsky(th)) < 1e-12


def test_lobachevsky_quadrature_oracle():
    # L(theta) = -int_0^theta log|2 sin t| dt
    for th in (np.pi / 3, 0.4, 1.2):
        oracle = quad(lambda t: -np.log(2 * np.sin(t)), 0, th, limit=200)[0]
        assert abs(lobachevsky(th) - oracle) < 1e-10
    # 6 L(pi/3) is the figure-eight complement volume 2.0298832128193...
    assert abs(6 * lobachevsky(np.pi / 3) - 2.029883212819307) < 1e-12


def test_lobachevsky_sine_series_cross_check():
    # slowly convergent defining series, loose tolerance
    th = 0.9
    n = np.arange(1, 200001)
    series = 0.5 * np.sum(np.sin(2 * n * th) / n**2)
    assert abs(lobachevsky(th) - series) < 1e-5
