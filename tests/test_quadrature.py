"""Adaptive panels on finite intervals, truncation by decay estimate, trapezoid
and Monte-Carlo paths."""
import itertools

import numpy as np
import pytest
from scipy.special import k1

from shapedtqft import quadrature, tqft
from shapedtqft.errors import DecayEstimateFailure, QuadratureFailure
from shapedtqft.quadrature import QuadratureConfig, integrate_1d, integrate_nd
from shapedtqft.tqft import partition_function
from tests.conftest import capture_integrands


def test_gaussian_1d():
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)
    res = integrate_1d(lambda t: np.exp(-np.pi * t**2) + 0j, cfg, interval=(-8.0, 8.0))
    assert abs(res.value - 1.0) < 1e-12
    assert res.error_estimate < 1e-10
    assert res.method == "adaptive"


def test_oscillatory_1d():
    # int e^{-t^2} cos(8 t) dt = sqrt(pi) e^{-16}
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-10)
    res = integrate_1d(lambda t: np.exp(-t**2) * np.cos(8 * t) + 0j, cfg, interval=(-8.0, 8.0))
    assert abs(res.value - np.sqrt(np.pi) * np.exp(-16.0)) < 1e-12


def test_gk_refuses_unmet_tolerance():
    # a jump at t = 1/3 keeps its panel's error at ~3e-9 after the last
    # splitting round: refused rather than returned with that error estimate
    cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-13)
    with pytest.raises(QuadratureFailure, match="after 30 panels"):
        integrate_1d(lambda t: np.where(t < 1 / 3, 1.0, 2.0) + 0j, cfg, interval=(-1.0, 1.0))


def test_integrate_1d_needs_an_interval():
    # integrals over R take integrate_nd; Gauss-Kronrod keeps finite intervals
    with pytest.raises(TypeError):
        integrate_1d(lambda t: np.exp(-np.pi * t**2) + 0j, QuadratureConfig())


def test_trapezoid_1d_sizes_slowly_decaying_rays(monkeypatch):
    # 0.1 exp(-0.3 sqrt(1 + t^2)) decays at rate 0.3 < 1, so each ray is cut
    # where the tail integral, not only |f|, is below target (cut where |f|
    # is, the measured tail 1.2e-10 exceeds tol); in 1D the box takes no
    # diagonal probes, which would repeat the two axis rays
    fits = []
    fit = quadrature.estimate_decay
    monkeypatch.setattr(quadrature, "estimate_decay", lambda *a: fits.append(a) or fit(*a))
    cfg = QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)
    res = integrate_nd(lambda p: 0.1 * np.exp(-0.3 * np.sqrt(1 + p[:, 0]**2)) + 0j, 1, cfg)
    assert res.method == "trapezoid" and len(fits) == 2
    assert abs(res.value - 0.2 * k1(0.3)) <= res.error_estimate <= 1e-10


@pytest.mark.parametrize("dim,tol,nodes,exact", [
    (1, 1e-9, 39, 1.0),              # e^{-pi t^2}
    (2, 1e-12, 104_329, np.pi**2),   # sech x sech y
])
def test_squared_halving_estimate_bounds_analytic_integrands(dim, tol, nodes, exact):
    # the error squares with each halving, so the halving estimate, about
    # d_k^2 / d_{k-1}, bounds the error of T(h_k) and stops one halving before
    # d_k would (79 and 418,609 nodes)
    f = {1: lambda p: np.exp(-np.pi * p[:, 0]**2) + 0j,
         2: lambda p: 1 / (np.cosh(p[:, 0]) * np.cosh(p[:, 1])) + 0j}[dim]
    res = integrate_nd(f, dim, QuadratureConfig(abs_tol=tol, rel_tol=tol))
    assert res.method == "trapezoid" and res.evaluations == nodes
    assert abs(res.value - exact) <= res.error_estimate


def test_trapezoid_refuses_tolerance_below_phib_floor():
    # the floor phib_tol * integral of |f| = 1e-13 exceeds tol 1e-14: refused
    # after the first level (one probe call and one grid call), not at the grid cap
    calls = []

    def f(p):
        calls.append(len(p))
        return np.exp(-np.pi * p[:, 0]**2) + 0j

    with pytest.raises(QuadratureFailure, match="floor"):
        integrate_nd(f, 1, QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14))
    assert calls == [6, 11]


def test_half_lattice_floor_takes_the_full_mass():
    # the same refusal with the Gaussian marked conjugation-even (it is real
    # and even): the first level takes the origin and its 5 positive nodes,
    # and the floor phib_tol * h * (|f(0)| + 2 sum |f|) is the full grid's,
    # 1.01e-13 at h = 0.8
    calls = []

    def f(p):
        calls.append(len(p))
        return np.exp(-np.pi * p[:, 0]**2) + 0j

    f.conjugation_even = True
    with pytest.raises(QuadratureFailure, match=r"floor 1\.01e-13 "):
        integrate_nd(f, 1, QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14))
    assert calls == [6, 1, 5]


def _gaussian(dim):
    a = np.array([0.5, 0.3, 0.4])[:dim]
    return lambda p: np.exp(-(a * p**2).sum(axis=1) - 0.1 * p[:, 0] * p[:, -1] + 1j * p[:, 0])


@pytest.mark.parametrize("dim", [1, 2])
def test_first_three_levels_share_one_lattice_call(monkeypatch, dim):
    # h0, h0/2 and h0/4 are read from one lattice call at step h0/4 on the
    # corners of the h0/4 box (their nodes are its nodes of index divisible
    # by 4 and 2); every later level takes one call on its own box's corners
    # on prod_j sech(3 x_j), whose poles at +-i pi/6 keep the halving going
    # to h0/16 at tol 1e-12
    calls, diffs = [], []

    def f(p):
        return 1 / np.cosh(3 * p).prod(axis=1) + 0j

    def lattice(h, hull):
        calls.append((h, hull))
        return lambda k: f(k * h)

    f.lattice = lattice
    estimate = quadrature.halving_estimate
    monkeypatch.setattr(quadrature, "halving_estimate",
                        lambda d, p: diffs.append(d) or estimate(d, p))
    radii, rates = np.array([12.0, 11.0])[:dim], np.full((dim, 2), 3.0)
    value, _err = quadrature._trapezoid(f, dim, QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12),
                                        radii, rates, [0])
    assert abs(value - (np.pi / 3)**dim) <= 1e-12
    levels = len(diffs) + 1
    assert levels == 5
    h0 = quadrature._TRAP_H0
    assert [h for h, _hull in calls] == [h0 / 2**j for j in range(2, levels)]
    for h, hull in calls:
        kmax = (radii // h).astype(int)
        assert sorted(map(tuple, hull)) == sorted(itertools.product(*((-m, m) for m in kmax)))


def test_box_probes_take_one_lattice_call(fig8, mp1, monkeypatch):
    # every probe, axis rays and diagonals together, is read in one lattice
    # call at step h0/4, and the box and rates are those of probing each
    # node k = m d (d a ray) by its own call at the node d of step m h0/4
    x, angles = fig8
    seen = capture_integrands(monkeypatch, tqft)
    partition_function(x, angles, mp=mp1, cfg=QuadratureConfig(abs_tol=2e-5, rel_tol=2e-5,
                                                               phib_tol=1e-11))
    on_lattice = quadrature._on_lattice

    def per_probe(f, h, _hull):
        def read(k):
            n = np.abs(k).max(axis=1)
            return np.array([on_lattice(f, m * h, row[None] // m)(row[None] // m)[0]
                             for row, m in zip(k, n)])
        return read

    def counted(f, h, hull):
        read = on_lattice(f, h, hull)
        return lambda k: calls.append(len(k)) or read(k)

    for f, dim, cfg in ((_gaussian(1), 1, QuadratureConfig()),
                        (_gaussian(2), 2, QuadratureConfig()),
                        (_gaussian(3), 3, QuadratureConfig()),
                        (seen[0][0], 3, QuadratureConfig(abs_tol=2e-5, rel_tol=2e-5))):
        calls = []
        monkeypatch.setattr(quadrature, "_on_lattice", counted)
        radii, rates = quadrature._estimate_box(f, dim, cfg)
        assert calls == [6 * dim + (3 * 2**dim if dim > 1 else 0)]
        monkeypatch.setattr(quadrature, "_on_lattice", per_probe)
        ref_radii, ref_rates = quadrature._estimate_box(f, dim, cfg)
        assert np.abs(radii - ref_radii).max() <= 1e-12 * np.abs(ref_radii).max()
        assert np.abs(rates - ref_rates).max() <= 1e-12 * np.abs(ref_rates).max()


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_box_probes_fit_at_their_own_radii(monkeypatch, dim):
    # |f| = e^{-|x|} along every ray, and each probe is fitted at its node's
    # radius |k| h0/4: every axis and diagonal fit is (C, mu) = (1, 1),
    # although the 2D and 3D diagonal nodes lie up to 0.08 off the radii 2, 4, 8
    fits = []
    fit = quadrature.estimate_decay
    monkeypatch.setattr(quadrature, "estimate_decay", lambda *a: fits.append(fit(*a)) or fits[-1])
    quadrature._estimate_box(lambda p: np.exp(-np.linalg.norm(p, axis=1)) + 0j, dim,
                             QuadratureConfig())
    assert len(fits) == 2 * dim + {1: 0, 2: 4, 3: 8, 4: 1}[dim]
    assert np.abs(np.array(fits) - 1.0).max() <= 1e-12


# the multiples m of the diagonal probe nodes k = m s (s a sign vector, all
# ones from 4D) at step h0/4 nearest the radii 2, 4, 8
DIAGONAL_PROBE_SCALES = {2: (7, 14, 28), 3: (6, 12, 23), 4: (5, 10, 20)}


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_lattice_form_sees_step_h0_over_4_until_h0_over_8(monkeypatch, dim):
    # the box probes and the first three trapezoid levels read step h0/4:
    # the probes on a hull of exactly their nodes, the trapezoid on the
    # corners of its h0/4 box; each later level reads its own step.  In 1D
    # and 2D prod_j sech(3 x_j) halves to h0/16 at tol 1e-12; in 3D and 4D
    # a Gaussian stops at h0/4
    calls, diffs = [], []
    if dim <= 2:
        f, tol = (lambda p: 1 / np.cosh(3 * p).prod(axis=1) + 0j), 1e-12
    else:
        f, tol = (lambda p: np.exp(-np.pi * (p**2).sum(axis=1)) + 0j), 1e-9

    def lattice(h, hull):
        calls.append((h, hull))
        return lambda k: f(k * h)

    f.lattice = lattice
    estimate = quadrature.halving_estimate
    monkeypatch.setattr(quadrature, "halving_estimate",
                        lambda d, p: diffs.append(d) or estimate(d, p))
    res = integrate_nd(f, dim, QuadratureConfig(abs_tol=tol, rel_tol=tol))
    assert res.method == "trapezoid"
    levels = len(diffs) + 1
    assert levels == (5 if dim <= 2 else 3)
    h0 = quadrature._TRAP_H0
    assert [h for h, _hull in calls] == [h0 / 4] * 2 + [h0 / 2**j for j in range(3, levels)]
    eye = np.eye(dim, dtype=int)
    probes = [s * m * e for e in eye for s in (1, -1) for m in (10, 20, 40)]
    if dim > 1:
        signs = itertools.product((1, -1), repeat=dim) if dim <= 3 else [(1,) * dim]
        probes += [m * np.array(s) for s in signs for m in DIAGONAL_PROBE_SCALES[dim]]
    assert sorted(map(tuple, calls[0][1])) == sorted(map(tuple, probes))


def test_product_gaussian_3d():
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    res = integrate_nd(lambda p: np.exp(-np.pi * (p**2).sum(axis=1)) + 0j, 3, cfg)
    assert res.method == "trapezoid"
    assert abs(res.value - 1.0) < 1e-9
    assert abs(res.value - 1.0) <= res.error_estimate


def test_gaussian_2d_offdiagonal():
    # correlated quadratic form, exact value 2 pi / sqrt(det A), A = [[2,1],[1,2]]
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)

    def f(p):
        x, y = p[:, 0], p[:, 1]
        return np.exp(-(x**2 + x * y + y**2)) + 0j

    res = integrate_nd(f, 2, cfg)
    assert res.method == "trapezoid"
    assert abs(res.value - 2 * np.pi / np.sqrt(3)) < 1e-8
    assert abs(res.value - 2 * np.pi / np.sqrt(3)) <= res.error_estimate


def test_trapezoid_reproducible():
    cfg = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    f = lambda p: np.exp(-(p**2).sum(axis=1) + 0.5j * p[:, 0] * p[:, 1])  # noqa: E731
    r1 = integrate_nd(f, 2, cfg)
    r2 = integrate_nd(f, 2, cfg)
    assert (r1.value, r1.error_estimate, r1.evaluations) == \
        (r2.value, r2.error_estimate, r2.evaluations)


@pytest.mark.parametrize("chunk", [1 << 15, 24])
@pytest.mark.parametrize("kmax", [(30,), (31,), (5, 2), (2, 13), (3, 4, 1), (2, 1, 2, 3),
                                  (1, 2, 3, 2)])
def test_level_chunks_visit_each_new_node_once(monkeypatch, kmax, chunk):
    # each level evaluates exactly its new nodes, those with an odd index on
    # some axis (every node at the first level), none twice and at most
    # _TRAP_CHUNK per call; a chunk of 24 nodes splits the rows of the 1D
    # boxes and of (2, 13) and packs the others' rows unevenly; the face
    # layers of every chunk equal masked sums over its nodes.  The half
    # enumeration visits one node of each pair {k, -k} of new nodes, the
    # lexicographically positive one: with the origin, which the trapezoid
    # evaluates on its own at the first level, that covers the level.
    monkeypatch.setattr(quadrature, "_TRAP_CHUNK", chunk)
    kmax = np.array(kmax)
    edge = kmax - (kmax % 2 == 0)
    box = np.array(list(itertools.product(*[range(-m, m + 1) for m in kmax])))
    origin = (0,) * len(kmax)
    for first, half in itertools.product((True, False), repeat=2):
        seen = []
        for kt, blocks in quadrature._level_chunks(kmax, first, half):
            assert kt.shape == (len(kmax), sum(p.shape[1] * len(pat) for p, pat in blocks))
            assert kt.shape[1] <= chunk
            mag = 1.0 + (np.array([7, 11, 13, 17][:len(kmax)]) @ kt) % 23
            masked = [[mag[kj == e].sum(), mag[kj == -e].sum()] for kj, e in zip(kt, edge)]
            assert np.array_equal(quadrature._face_layers(mag, blocks, edge), masked)
            seen += map(tuple, kt.T)
        assert len(seen) == len(set(seen))
        new = {tuple(k) for k in box if first or (k & 1).any()}
        if half:
            assert all(k > origin for k in seen)
            mirrored = set(seen) | {tuple(-np.array(k)) for k in seen}
            assert len(mirrored) == 2 * len(seen)
            assert mirrored | ({origin} if first else set()) == new
        else:
            assert set(seen) == new


def test_trapezoid_refuses_unattainable_tolerance():
    # the kink at the origin limits the trapezoid to O(h^2): tol 1e-14 is
    # refused once the next halving would exceed the grid cap (phib_tol is
    # set below the tolerance, which the Phi_b floor would refuse at once)
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, phib_tol=1e-16)
    with pytest.raises(QuadratureFailure, match="would exceed"):
        integrate_nd(lambda p: np.exp(-np.abs(p).sum(axis=1)) + 0j, 2, cfg)


def test_trapezoid_refuses_box_that_misses_a_ridge():
    # a ridge at 22.5 degrees runs between the probed axis and diagonal rays,
    # so the fitted box cuts it where |f| is still far above tol: the tail
    # measured on the faces is refused, not returned as the error
    th = np.pi / 8

    def f(p):
        along = p[:, 0] * np.cos(th) + p[:, 1] * np.sin(th)
        across = -p[:, 0] * np.sin(th) + p[:, 1] * np.cos(th)
        return np.exp(-2.0 * across**2) / np.cosh(2.5 * along) + 0j

    with pytest.raises(QuadratureFailure, match="tail"):
        integrate_nd(f, 2, QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9))


def sech_with_nan_node(p):
    """sech(2x) on (N, 1) points, NaN at the node x = 0.3 (k = 3 at h = 0.1)."""
    v = (1.0 / np.cosh(2.0 * p[:, 0])).astype(complex)
    v[np.abs(p[:, 0] - 0.3) < 1e-9] = np.nan
    return v


def test_box_refuses_an_overflowing_envelope():
    # C e^{-10|x|} with C = 1e300: the radius where the envelope falls below
    # the target is not finite, which is refused before any grid is sized
    with pytest.raises(QuadratureFailure, match="not finite"):
        integrate_nd(lambda p: 1e300 * np.exp(-10.0 * np.abs(p[:, 0])) + 0j, 1, QuadratureConfig())


def test_trapezoid_refuses_a_nan_node():
    # sech(2x) needs the level h = 0.1, whose new node x = 0.3 is NaN: that
    # level is refused, rather than halved on towards the grid cap
    with pytest.raises(QuadratureFailure, match="h=0.1 is not finite"):
        integrate_nd(sech_with_nan_node, 1, QuadratureConfig())


def test_monte_carlo_refuses_a_nan_node():
    # Monte Carlo cells at step 0.05 sample the NaN node x = 0.3
    cfg = QuadratureConfig(mc_samples=32_000, force_monte_carlo=True)
    with pytest.raises(QuadratureFailure, match="not finite"):
        integrate_nd(sech_with_nan_node, 1, cfg)


def test_tolerance_tightening_consistency():
    # doubling effort keeps results within reported error estimates
    def f(t):
        return np.exp(-np.abs(t)) * np.cos(3 * t) + 0j

    r1 = integrate_1d(f, QuadratureConfig(abs_tol=1e-6, rel_tol=1e-6), interval=(-40.0, 40.0))
    r2 = integrate_1d(f, QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10), interval=(-40.0, 40.0))
    assert abs(r1.value - r2.value) <= r1.error_estimate + r2.error_estimate


def test_decay_estimate_failure():
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8)
    with pytest.raises(DecayEstimateFailure):
        integrate_nd(lambda p: np.exp(0.2 * np.abs(p).sum(axis=1)) + 0j, 2, cfg)


def test_trapezoid_gaussian_4d():
    cfg = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-6)
    res = integrate_nd(lambda p: np.exp(-np.pi * (p**2).sum(axis=1)) + 0j, 4, cfg)
    assert res.method == "trapezoid"
    assert abs(res.value - 1.0) <= res.error_estimate


def test_monte_carlo_unbiased_over_seeds():
    # separable gaussian; mean over 30 seeds within 3 standard errors of 1
    values, errors = [], []
    for seed in range(30):
        cfg = QuadratureConfig(abs_tol=1e-4, rel_tol=1e-4, mc_samples=20000,
                               rng_seed=seed, force_monte_carlo=True)
        res = integrate_nd(lambda p: np.exp(-np.pi * (p**2).sum(axis=1)) + 0j, 3, cfg)
        assert res.method == "monte_carlo"
        values.append(res.value.real)
        errors.append(res.error_estimate)
    mean = np.mean(values)
    se = np.std(values, ddof=1) / np.sqrt(len(values))
    assert abs(mean - 1.0) < 3 * se
    # reported per-run error estimates are the right scale
    assert np.median(errors) < 0.05 and np.median(errors) > 1e-5


def test_monte_carlo_takes_real_parts_of_a_conjugation_even_integrand():
    # e^{-|x|^2 + i x_0} has f(-x) = conj f(x); marked so, each sample takes
    # Re f: the value is real, with the unmarked run's real part, and its
    # standard error is the spread of the real parts alone
    cfg = QuadratureConfig(mc_samples=20_000, force_monte_carlo=True)

    def f(p):
        return np.exp(-(p**2).sum(axis=1) + 1j * p[:, 0])

    plain = integrate_nd(f, 2, cfg)
    f.conjugation_even = True
    marked = integrate_nd(f, 2, cfg)
    assert plain.value.imag != 0.0 and marked.value.imag == 0.0
    assert abs(marked.value.real - plain.value.real) <= 1e-15 * abs(plain.value)
    assert marked.error_estimate < plain.error_estimate
    assert abs(marked.value - np.pi * np.exp(-0.25)) <= 3 * marked.error_estimate


def test_monte_carlo_reproducible():
    cfg = QuadratureConfig(mc_samples=5000, rng_seed=42, force_monte_carlo=True)
    f = lambda p: np.exp(-np.pi * (p**2).sum(axis=1)) + 0j
    r1 = integrate_nd(f, 2, cfg)
    r2 = integrate_nd(f, 2, cfg)
    assert r1.value == r2.value and r1.error_estimate == r2.error_estimate
