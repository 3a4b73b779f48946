"""Quantum dilogarithm: defining identities, oracle values, pole handling."""
import time

import numpy as np
import pytest

from shapedtqft import qdilog
from shapedtqft.errors import PoleHit
from shapedtqft.params import ModularParameter
from shapedtqft.qdilog import FaddeevDilog, LineCache, get_engine, phi_b


def random_strip_points(rng, b, n):
    cb = 0.5 * (b + 1 / b)
    return rng.uniform(-6, 6, n) + 1j * rng.uniform(-0.95, 0.95, n) * cb


@pytest.mark.parametrize("b", [1.0, 1.3, 0.77])
def test_inversion_relation(b):
    mp = ModularParameter(b)
    rng = np.random.default_rng(101)
    z = random_strip_points(rng, b, 100)
    res = phi_b(z, mp) * phi_b(-z, mp) * mp.zeta_inv * np.exp(-1j * np.pi * z**2)
    assert np.abs(res - 1).max() < 1e-9


@pytest.mark.parametrize("b", [1.0, 1.3])
@pytest.mark.parametrize("which", [0, 1])
def test_functional_equations(b, which):
    # Phi(z - i b'/2) = (1 + e^{2 pi b' z}) Phi(z + i b'/2) for b' in {b, 1/b}
    mp = ModularParameter(b)
    bp = (b, 1.0 / b)[which]
    rng = np.random.default_rng(102)
    z = rng.uniform(-5, 5, 100) + 1j * rng.uniform(-0.3, 0.3, 100)
    lhs = phi_b(z - 0.5j * bp, mp)
    rhs = (1 + np.exp(2 * np.pi * bp * z)) * phi_b(z + 0.5j * bp, mp)
    assert np.abs(lhs / rhs - 1).max() < 1e-9


def test_unitarity():
    mp = ModularParameter(1.1)
    rng = np.random.default_rng(103)
    z = random_strip_points(rng, 1.1, 100)
    res = np.conj(phi_b(z, mp)) * phi_b(np.conj(z), mp)
    assert np.abs(res - 1).max() < 1e-9


@pytest.mark.parametrize("b", [1.0, 1.3])
def test_inversion_relation_far_out(b):
    # |Phi_b| reaches e^{-+678} at 120 +- 0.9i; the shift factors there are
    # multiplied in log space, so no intermediate overflows.  The residual is
    # taken mod 2 pi i; beyond 1e-11 it is allowed the rounding of the
    # Gaussian term i pi z^2 (one ulp is 7e-12 at |z| = 120)
    mp = ModularParameter(b)
    assert np.isfinite(phi_b(np.array([120 + 0.9j, 120 - 0.9j]), mp)).all()
    cb = 0.5 * (b + 1 / b)
    x = np.linspace(-124.3, 124.3, 301)
    for y in np.linspace(-0.95, 0.95, 9) * cb:
        z = x + 1j * y
        with np.errstate(over="ignore", divide="ignore"):   # |Phi_b| beyond e^{+-709}
            lp, lm = np.log(phi_b(z, mp)), np.log(phi_b(-z, mp))
        live = (np.abs(lp.real) < 700) & (np.abs(lm.real) < 700)
        assert live.sum() > 100
        res = lp + lm + np.log(mp.zeta_inv) - 1j * np.pi * z**2
        res = res.real + 1j * np.angle(np.exp(1j * res.imag))
        bound = 1e-11 + 4 * np.spacing(np.pi * np.abs(z) ** 2)
        assert (np.abs(res) <= bound)[live].all()


def test_symmetry_b_to_inverse():
    z = np.array([0.4 - 0.2j, -1.7 + 0.5j, 3.3 + 0.1j])
    v1 = phi_b(z, ModularParameter(1.3))
    v2 = phi_b(z, ModularParameter(1 / 1.3))
    assert np.abs(v1 - v2).max() < 1e-11


def test_value_at_zero_b1():
    # Phi(0)^2 = zeta_inv^{-1} = e^{i pi/6}; branch fixed by the integral
    mp = ModularParameter(1.0)
    v = phi_b(0.0, mp)
    assert abs(v**2 - np.exp(1j * np.pi / 6)) < 1e-10
    assert abs(v - np.exp(1j * np.pi / 12)) < 1e-10


def test_spec_inversion_example():
    # Phi(0.3) Phi(-0.3) = zeta_inv^{-1} e^{i pi 0.09}
    mp = ModularParameter(1.0)
    lhs = phi_b(0.3, mp) * phi_b(-0.3, mp)
    rhs = np.exp(1j * np.pi * 0.09) / mp.zeta_inv
    assert abs(lhs - rhs) < 1e-10


def test_against_mpmath_oracle():
    # independent high-precision quadrature of the defining contour integral
    # (at b = 1 it checks the closed form, at the other couplings the contour)
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for b, z in ((1.0, 0.3 + 0.0j), (1.0, -1.2 + 0.2j), (1.2, 0.7 + 0.2j),
                 (0.77, 0.5 - 0.1j), (0.77, -2.1 + 0.25j)):
        bb = mpmath.mpf(b)
        zz = mpmath.mpc(z)
        h = mpmath.mpf(0.5) * min(bb, 1 / bb)

        def f(t):
            w = t + 1j * h
            return mpmath.e**(-2j * zz * w) / (4 * mpmath.sinh(w * bb) * mpmath.sinh(w / bb) * w)

        breaks = [-mpmath.inf] + list(range(-40, 41, 2)) + [mpmath.inf]
        ref = complex(mpmath.e**mpmath.quad(f, breaks))
        ours = complex(phi_b(z, ModularParameter(b)))
        assert abs(ours / ref - 1) < 1e-12


def test_closed_form_at_b1_matches_polylog(monkeypatch):
    # Phi_1(z) = exp((i / 2 pi) [Li_2(w) + 2 pi z log(1 - w)]), w = e^{2 pi z},
    # with mpmath's principal branches, which give Phi_1 (up to 2 pi i in
    # the exponent) at every z off the lattice: on both sides of Re z = 0,
    # at |Im z| > 1/2 and > 1 (no fold: the contour is never summed), and
    # 1e-6 from the zero at -i and the pole at +i
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    monkeypatch.setattr(FaddeevDilog, "_raw", None)
    monkeypatch.setattr(FaddeevDilog, "_raw_grid", None)
    rng = np.random.default_rng(105)
    near = 1e-6 * np.exp(2j * np.pi * np.arange(8) / 8)
    z = np.concatenate([rng.uniform(-12, 12, 60) + 1j * rng.uniform(-0.95, 0.95, 60),
                        rng.uniform(-4, 4, 40) + 1j * rng.uniform(0.5, 1.0, 40) * rng.choice([-1, 1], 40),
                        rng.uniform(-4, 4, 40) + 1j * rng.uniform(1.0, 2.7, 40) * rng.choice([-1, 1], 40),
                        -1j + near, 1j + near])
    assert (z.real > 0).sum() > 50 and (z.real < 0).sum() > 50

    def polylog_form(z):
        z = mpmath.mpc(z)
        w = mpmath.exp(2 * mpmath.pi * z)
        return complex(mpmath.exp(1j / (2 * mpmath.pi) * (mpmath.polylog(2, w)
                                                          + 2 * mpmath.pi * z * mpmath.log(1 - w))))

    ref = np.array([polylog_form(x) for x in z])
    assert np.abs(get_engine(1.0)(z) / ref - 1).max() <= 1e-13
    assert phi_b(0.0, ModularParameter(1.0)) == np.exp(1j * np.pi / 12)


def test_contour_at_b1_matches_closed_form():
    # the contour GEMM engine, which serves every b != 1, summed directly at
    # b = 1 over the folded band (|Im z| <= band, Re z in [-re_cut, 0])
    eng = FaddeevDilog(1.0)
    x = np.linspace(-eng.re_cut, 0.0, 301)
    for y in np.linspace(-eng.band, eng.band, 11):
        z = x + 1j * y
        for raw in (eng._raw([z]), eng._raw_grid([z[:150], z[150:]], x[1] - x[0])):
            assert np.abs(np.exp(raw - eng._closed_form(z)) - 1).max() <= 1e-13


def test_pole_and_zero_locations():
    mp = ModularParameter(1.0)
    with pytest.raises(PoleHit):
        phi_b(1j, mp)          # pole at +c_b
    with pytest.raises(PoleHit):
        phi_b(-1j, mp)         # zero at -c_b (guarded alike)
    with pytest.raises(PoleHit):
        phi_b(1j * 2.0, mp)    # c_b + i(b + 1/b)*... lattice point
    eng = get_engine(1.0)
    # approaching from the side: |Phi| blows up at the pole, vanishes at the zero
    up = abs(eng(1j + 1e-3, check=False))
    dn = abs(eng(-1j + 1e-3, check=False))
    assert up > 1e2 and dn < 1e-2


def enumerated_lattice_distance(eng, z):
    """Distance to the zero/pole lattice by enumerating every m b + n/b up
    to |Im z|: the reference for FaddeevDilog.lattice_distance."""
    y = np.abs(z.imag) - eng.cb_abs
    ok = y > -0.5 * eng.step
    d_im = np.full(z.shape, np.inf)
    top = max(y[ok].max(), 0.0)
    lat = np.unique([m * eng.b + n / eng.b for m in range(int(np.ceil(top / eng.b)) + 2)
                     for n in range(int(np.ceil(top * eng.b)) + 2)])
    d_im[ok] = np.abs(y[ok][:, None] - lat[None, :]).min(axis=1)
    return np.hypot(z.real, np.where(np.isfinite(d_im), d_im, 1.0))


@pytest.mark.parametrize("b", [0.77, 1.0, 1.3])
def test_lattice_distance_matches_enumeration(b):
    eng = FaddeevDilog(b)
    rng = np.random.default_rng(27)
    z = rng.uniform(-2, 2, 1000) + 1j * rng.uniform(-20, 20, 1000)
    z[:50] = rng.uniform(-1e-6, 1e-6, 50) + 1j * (eng.cb_abs + eng.b * rng.integers(0, 8, 50)
                                                   + rng.integers(0, 8, 50) / eng.b)
    assert np.abs(eng.lattice_distance(z) - enumerated_lattice_distance(eng, z)).max() <= 1e-13


def test_pole_check_far_up_is_linear_in_im_z():
    # the check takes the multiples of max(b, 1/b) only, so |Im z| = 3e4
    # costs 3e4 rounded candidates, not the 9e8 lattice points below it
    eng = FaddeevDilog(1.0)
    t0 = time.perf_counter()
    assert eng.lattice_distance(0.3 + 30000.25j)[0] == np.hypot(0.3, 0.25)
    with pytest.raises(PoleHit):
        phi_b(1e-9 + 30000j, ModularParameter(1.0))
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.parametrize("b", [1.0, 1.3, 0.77])
def test_line_grid_matches_direct(b):
    # lines across the strip, folded ones (|y| > band) included, on a build
    # grid, on grids that cross -re_cut and +re_cut, on lines of 1 to 3
    # points, on a line wholly at Re z > 0 (no left half) and on lines wholly
    # beyond -re_cut or +re_cut (no contour sum at all)
    eng = FaddeevDilog(b)
    assert 0.95 * eng.cb_abs > eng.band
    cut = eng.re_cut
    grids = ((-12.0, 0.5, 626), (-cut - 1.3, cut + 0.9, 501), (-0.7, 0.2, 1), (-0.7, 0.2, 2),
             (-0.2, 0.3, 3), (0.1, 3.0, 40), (-cut - 5.0, -cut - 0.5, 30), (cut + 0.5, cut + 4.0, 20))
    worst = 0.0
    for y in np.linspace(-0.95, 0.95, 9) * eng.cb_abs:
        for x0, x1, n in grids:
            dx = (x1 - x0) / max(n - 1, 1)
            direct = eng(x0 + dx * np.arange(n) + 1j * y, check=False)
            worst = max(worst, np.abs(np.exp(eng.lines([(x0, n, y)], dx)[0]) / direct - 1).max())
    assert worst <= 1e-13


def test_line_is_independent_of_the_phase_cache():
    # a warm engine (one 3,000-point line filled its phase rows at this step)
    # and cold engines give bit-identical tables on other lines at that step
    # (the contour path: b = 1 takes the closed form and keeps no phase rows)
    dx = 0.011
    warm = FaddeevDilog(1.3)
    warm.lines([(-25.0, 3000, 0.3)], dx)
    for line in ((-9.0, 1100, 0.8), (-4.0, 2000, -0.2), (-1.0, 40, 0.55)):
        assert np.array_equal(warm.lines([line], dx)[0], FaddeevDilog(1.3).lines([line], dx)[0])


def test_phase_cache_stays_within_its_bound():
    # grids at many distinct spacings, on the lines Im z = +-0.3 over
    # [-6, 0.5], each add phase rows for two steps; the cache is cleared
    # rather than grown past its byte bound (the contour path, as above)
    eng = FaddeevDilog(1.3)
    added = 0
    for spacing in np.linspace(0.0091, 0.0199, 40):
        before = {d: p.nbytes for d, p in eng._phases.items()}
        n = int(np.ceil(6.0 / spacing)) + 1
        eng.lines([(-6.0, n, 0.3), (-6.0, n, -0.3)], 6.5 / (n - 1))
        added += sum(p.nbytes - before.get(d, 0) for d, p in eng._phases.items())
        assert sum(p.nbytes for p in eng._phases.values()) <= qdilog._PHASE_CACHE_BYTES
    assert added > qdilog._PHASE_CACHE_BYTES


def test_line_cache_matches_direct():
    eng = FaddeevDilog(1.0)
    rng = np.random.default_rng(104)
    for y in (0.0, 0.31, -0.77):
        cache = LineCache(eng, y, 9.0)
        x = rng.uniform(-9, 9, 200)
        direct = eng(x + 1j * y, check=False)
        assert np.abs(np.exp(cache(x)) / direct - 1).max() < 1e-14


def test_line_cache_grows_on_demand():
    eng = FaddeevDilog(1.0)
    cache = LineCache(eng, 0.2, 5.0)
    x = np.array([-14.0, 14.0])
    direct = eng(x + 0.2j, check=False)
    assert np.abs(np.exp(cache(x)) / direct - 1).max() < 1e-14


@pytest.mark.parametrize("b", [1.0, 1.3])
@pytest.mark.parametrize("y", [0.31, -0.31])
def test_line_cache_log_matches_direct(b, y):
    # the cache returns log Phi_b, read from the engine: dense on
    # [0.2, 0.3], within two spacings of either end of the radius, and
    # beyond the radius
    eng = FaddeevDilog(b)
    cache = LineCache(eng, y, 5.0)
    r = cache.radius
    inside = np.concatenate([np.linspace(0.2, 0.3, 1001),
                             np.linspace(r - 2 * cache.spacing, r, 201),
                             np.linspace(-r, -r + 2 * cache.spacing, 201)])
    beyond = np.linspace(r, r + 1.0, 1001)
    for x in (inside, beyond):
        direct = eng(x + 1j * y, check=False)
        assert np.abs(np.exp(cache(x)) / direct - 1).max() <= 1e-14
