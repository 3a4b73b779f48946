"""The benchmark's workloads: set-up, seeded job inputs, jobs and their gates.

Every workload goes through the package's public API.  A job returns the
values it computed (compared bit for bit between traced and untraced runs)
and one `Check` per gated unit: the state integral for `fig8-3d`, a single
identity trial for `identities`.  A unit fails when it raises or misses its
acceptance-gate threshold against the closed form.
"""
from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from shapedtqft import data, identities, reduced, tqft
from shapedtqft.complexes import from_json_dict, shape_gauge_transform
from shapedtqft.params import ModularParameter
from shapedtqft.qdilog import get_engine, phi_b
from shapedtqft.quadrature import QuadratureConfig
from shapedtqft.special import gamma2_line


@dataclass
class Check:
    name: str
    passed: bool
    diag: dict = field(default_factory=dict)


@dataclass
class JobResult:
    values: list            # floats, for the bit-identity check
    checks: list            # list[Check]


@dataclass
class Workload:
    name: str
    setup: Callable          # quick -> state dict (state["refs"] is JSON-able)
    draw: Callable           # (state, seed, index) -> job input dict
    run: Callable            # (state, job) -> JobResult


def _load(name):
    return from_json_dict(json.loads(data.read_text(name)))


def _knot_factor(x, angles, mp):
    knot = next(e for e, cls in enumerate(x.edge_classes) if len(cls) == 1)
    return 2.0 * abs(phi_b(mp.u_of(tqft.knot_quad_angle(x, angles, knot)), mp)) ** 2


def _failed(name, exc) -> Check:
    return Check(name, False, {"error": "".join(traceback.format_exception(exc))})


# -- fig8-3d -------------------------------------------------------------------
# Criterion 8's settings on the adaptive iterated path.  The automatic gauge is
# fixed because the gauge changes the integrand the quadrature sees, and so the
# cost; the seed only draws a tangential deformation, which leaves W unchanged
# (criterion 12).

FIG8_CFG = QuadratureConfig(abs_tol=2e-5, rel_tol=2e-5, phib_tol=1e-11)
FIG8_MAX_T = 0.03


def _fig8_setup(quick):
    x, angles = _load("fig8.json")
    mp = ModularParameter(1.0)
    ratio = reduced.ratio_integral_fig8(mp, QuadratureConfig(abs_tol=1e-10, rel_tol=1e-10)).value
    knot_factor = _knot_factor(x, angles, mp)
    get_engine(mp.b, FIG8_CFG.phib_tol)
    return {"x": x, "angles": angles, "mp": mp,
            "refs": {"knot_factor": knot_factor, "W": knot_factor * abs(ratio) ** 2}}


def _fig8_draw(state, seed, index):
    rng = np.random.default_rng([seed, index])
    edge = int(rng.choice(state["x"].interior_edges))
    return {"edge": edge, "t": float(rng.uniform(-FIG8_MAX_T, FIG8_MAX_T))}


def _fig8_run(state, job):
    refs = state["refs"]
    try:
        angles = shape_gauge_transform(state["x"], state["angles"], job["edge"], job["t"])
        res = tqft.partition_function(state["x"], angles, mp=state["mp"], cfg=FIG8_CFG)
    except Exception as exc:  # a raising job is a failed job
        return JobResult([], [_failed("fig8", exc)])
    err = abs(res.value - refs["W"])
    rel = err / refs["W"]
    tilde = res.value / refs["knot_factor"]
    imfrac = abs(tilde.imag) / abs(tilde)
    slack = err / res.error_estimate if res.error_estimate else float("inf")
    ok = (rel < 1e-4 and imfrac < 1e-6 and tilde.real > 0 and res.dim == 3
          and slack <= 1.0)
    diag = {"rel": rel, "imag_frac": imfrac, "abs_err": res.error_estimate, "slack": slack,
            "evaluations": res.evaluations}
    return JobResult([res.value.real, res.value.imag, res.error_estimate],
                     [Check("fig8", ok, diag)])


# -- identities ----------------------------------------------------------------
# Criterion 3 and 13 trials: mostly line-cache builds, little evaluation.

PENTAGON_CFG = QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
OCTAHEDRON_CFG = QuadratureConfig(abs_tol=1e-7, rel_tol=1e-7)
PENTAGON_COUPLINGS = (1.0, 1.3)


def _identities_setup(quick):
    mps = {b: ModularParameter(b) for b in PENTAGON_COUPLINGS}
    for mp in mps.values():
        # one line per engine also finishes the lazy spline import before timing
        gamma2_line(0.5 * mp.q_total, mp, PENTAGON_CFG.phib_tol)
    return {"mps": mps, "pentagons_per_b": 1 if quick else 10,
            "octahedra": 1 if quick else 5, "refs": {}}


def _identities_draw(state, seed, index):
    rng = np.random.default_rng([seed, index])
    pent = [(b, identities.random_balanced_33(rng, state["mps"][b]))
            for b in PENTAGON_COUPLINGS for _ in range(state["pentagons_per_b"])]
    octa = [identities.random_octahedron_params(rng, state["mps"][1.0])
            for _ in range(state["octahedra"])]
    return {"pentagon": pent, "octahedron": octa}


def _identities_run(state, job):
    values, checks = [], []
    for b, p in job["pentagon"]:
        try:
            r = identities.check_hyperbolic_pentagon(p, state["mps"][b], PENTAGON_CFG)
        except Exception as exc:
            checks.append(_failed("pentagon", exc))
            continue
        values.append(r)
        checks.append(Check("pentagon", r < 1e-5, {"residual": r, "b": b}))
    for al, be, t, s, u, w in job["octahedron"]:
        try:
            r = identities.check_octahedron_duality(al, be, t, s, u, w, state["mps"][1.0],
                                                    OCTAHEDRON_CFG)
        except Exception as exc:
            checks.append(_failed("octahedron", exc))
            continue
        values.append(r)
        checks.append(Check("octahedron", r < 1e-3, {"residual": r}))
    return JobResult(values, checks)


WORKLOADS = {w.name: w for w in (
    Workload("fig8-3d", _fig8_setup, _fig8_draw, _fig8_run),
    Workload("identities", _identities_setup, _identities_draw, _identities_run),
)}
