"""Command-line interface.

Subcommands: special, partition, verify, angles, pachner.
Exit codes: 0 ok, 1 residual above threshold, 2 usage error, 3 input schema error.
All reports are JSON with sorted keys; identical configurations (including
seeds) produce byte-identical output.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from . import data as _data
from .complexes import GaugeFixing, pachner_32, random_bipyramid_angles
from .errors import (InputSchemaError, NotApplicable, PoleHit, ShapedTqftError,
                     ShapeViolation, UsageError)
from .geometry import gluing_residual, maximize_volume_in_gauge_class, shape_volume
from .identities import (BalancedParams33, check_elliptic_beta_integral,
                         check_entropy_pentagon, check_hyperbolic_pentagon,
                         check_octahedron_duality, orthogonality_symbol_deviation,
                         random_balanced_33, random_elliptic_params, random_entropy_tuple,
                         random_octahedron_params)
from .params import EllipticBases, ModularParameter
from .qdilog import phi_b
from .quadrature import QuadratureConfig
from .special import hyperbolic_gamma
from .tqft import (check_pachner_invariance, check_shape_gauge_invariance,
                   faddeev_popov_check, knot_quad_angle, partition_function)

EXIT_OK, EXIT_RESIDUAL, EXIT_USAGE, EXIT_SCHEMA = 0, 1, 2, 3
VERIFY_TOL = 1e-7
# suites whose quadrature runs tighter than VERIFY_TOL when --tol is not given
SUITE_TOL = {"pentagon": 1e-9, "pachner": 1e-8, "gauge": 1e-9}
# residual below which a suite passes when --max-residual is not given
VERIFY_THRESHOLD = {"entropy": 1e-12, "pentagon": 1e-5, "elliptic": 1e-8, "orthogonality": 1e-8,
                    "bailey": 1e-5, "octahedron": 1e-3, "pachner": 1e-5, "gauge": 1e-5}
SPECIAL_TOL = (1e-14, 1e-6)   # tolerances the special-function kernel accepts


def _emit(report, path=None):
    text = json.dumps(report, sort_keys=True, indent=2, default=float)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _config_hash(args) -> str:
    blob = json.dumps({k: v for k, v in sorted(vars(args).items())
                       if k != "func"}, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _check_numbers(args):
    """Refuse a coupling, tolerance or trial count no computation can take."""
    b, tol = getattr(args, "b", 1.0), getattr(args, "tol", None)
    if not (b > 0 and np.isfinite(b)):
        raise UsageError(f"--b {b:g}: coupling b must be a positive real")
    if tol is not None and not tol > 0:
        raise UsageError(f"--tol {tol:g}: tolerance must be positive")
    max_residual = getattr(args, "max_residual", None)
    if max_residual is not None and not max_residual > 0:
        raise UsageError(f"--max-residual {max_residual:g}: threshold must be positive")
    if getattr(args, "trials", 1) < 1:
        raise UsageError(f"--trials {args.trials}: at least one trial is needed")


def _parse_complex(text):
    return complex(text.replace(" ", "").replace("i", "j"))


def cmd_special(args):
    if not SPECIAL_TOL[0] <= args.tol <= SPECIAL_TOL[1]:
        raise UsageError(f"--tol {args.tol:g} outside [{SPECIAL_TOL[0]:g}, {SPECIAL_TOL[1]:g}]")
    mp = ModularParameter(args.b)
    if args.fn == "phi_b":
        if args.check_inversion:
            z = _parse_complex(args.x if args.x is not None else args.z or "0.3")
            v = (phi_b(z, mp, args.tol) * phi_b(-z, mp, args.tol) * mp.zeta_inv
                 * np.exp(-1j * np.pi * z * z))
            resid = abs(v - 1.0)
            _emit({"function": "phi_b", "check": "inversion", "z": str(z),
                   "residual": resid, "b": args.b, "tol": args.tol}, args.out)
            return EXIT_OK if resid < args.max_residual else EXIT_RESIDUAL
        z = _parse_complex(args.z)
        val = complex(phi_b(z, mp, tol=args.tol))
    elif args.fn == "gamma2":
        if args.check_inversion:
            x = _parse_complex(args.x if args.x is not None else "0.4")
            v = hyperbolic_gamma(x, mp, args.tol) * hyperbolic_gamma(mp.q_total - x, mp, args.tol)
            resid = abs(complex(v) - 1.0)
            _emit({"function": "gamma2", "check": "inversion", "x": str(x),
                   "residual": resid, "b": args.b, "tol": args.tol}, args.out)
            return EXIT_OK if resid < args.max_residual else EXIT_RESIDUAL
        z = _parse_complex(args.z)
        val = complex(hyperbolic_gamma(z, mp, tol=args.tol))
    else:
        print(f"unknown special function '{args.fn}'", file=sys.stderr)
        return EXIT_USAGE
    print(f"{args.fn}({args.z}; b={args.b}) = {val.real!r} + {val.imag!r} i")
    _emit({"function": args.fn, "z": str(args.z), "b": args.b,
           "re": val.real, "im": val.imag}, args.out)
    return EXIT_OK


def _load_input(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
        from .complexes import from_json_dict
        x, angles = from_json_dict(doc)
    except FileNotFoundError:
        raise InputSchemaError(f"input file not found: {path}") from None
    except (ShapeViolation, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise InputSchemaError(f"input schema error: {exc}") from exc
    if angles is None:
        raise InputSchemaError("input schema error: 'angles' field required")
    return x, angles


def _parse_gauge(text, x):
    if text == "auto":
        return None
    try:
        assignments = []
        for part in text.split(","):
            vpart, epart = part.split(":")
            e, c = epart.split("*")
            assignments.append((int(vpart.lstrip("v")), int(e.lstrip("e")), float(c)))
        return GaugeFixing(tuple(assignments))
    except Exception:
        raise UsageError(f"cannot parse gauge assignment '{text}' (want e.g. v0:e1*0.5)") from None


def cmd_partition(args):
    x, angles = _load_input(args.input)
    mp = ModularParameter(args.b)
    cfg = QuadratureConfig(abs_tol=args.tol, rel_tol=args.tol)
    gauge = _parse_gauge(args.gauge, x)
    deg1 = [e for e, cls in enumerate(x.edge_classes) if len(cls) == 1]
    if args.renormalize == "knot-edge" and not deg1:
        raise UsageError("no degree-1 knot edge to renormalize by")
    res = partition_function(x, angles, boundary_state=None, gauge=gauge, mp=mp, cfg=cfg)
    report = res.to_json_dict(mp, _config_hash(args))
    if args.renormalize == "knot-edge":
        a_knot = knot_quad_angle(x, angles, deg1[0])
        factor = 2.0 * abs(phi_b(mp.u_of(a_knot), mp)) ** 2
        tilde = res.value / factor
        report["renormalized_re"] = tilde.real
        report["renormalized_im"] = tilde.imag
        report["knot_factor"] = factor
    _emit(report, args.out)
    return EXIT_OK


def cmd_angles(args):
    x, angles = _load_input(args.input)
    try:
        beta, converged = maximize_volume_in_gauge_class(x, angles, tol=args.tol)
    except ShapedTqftError as exc:
        print(f"maximization failed: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    res = gluing_residual(x, beta)
    _emit({"converged": bool(converged),
           "volume": shape_volume(beta),
           "angles": [[float(v) for v in row] for row in beta],
           "gluing_residuals": {str(k): abs(v) for k, v in res.items()}}, args.out)
    return EXIT_OK if converged else EXIT_RESIDUAL


def cmd_pachner(args):
    x, angles = _load_input(args.input)
    try:
        x2, angles2, edge_map = pachner_32(x, args.edge, angles)
    except (NotApplicable, ShapeViolation) as exc:
        print(f"move not applicable: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    doc = x2.to_json_dict(angles2)
    doc["edge_map"] = {str(k): v for k, v in edge_map.items()}
    _emit(doc, args.out)
    return EXIT_OK


def _suite_report(name, residuals, threshold, params=None):
    worst = max(residuals) if residuals else 0.0
    rep = {"suite": name, "residuals": residuals, "worst": worst,
           "threshold": threshold, "pass": bool(worst < threshold)}
    if params is not None:
        rep["parameters"] = params
    return rep


def cmd_verify(args):
    rng = np.random.default_rng(args.seed)
    mp = ModularParameter(args.b)
    name = args.suite
    if name not in VERIFY_THRESHOLD:
        print(f"unknown suite '{name}'", file=sys.stderr)
        return EXIT_USAGE
    threshold = args.max_residual if args.max_residual is not None else VERIFY_THRESHOLD[name]
    tol = args.tol if args.tol is not None else SUITE_TOL.get(name, VERIFY_TOL)
    cfg = QuadratureConfig(abs_tol=tol, rel_tol=tol)
    residuals = []
    params = []
    if name == "entropy":
        for _ in range(args.trials):
            tup = random_entropy_tuple(rng)
            params.append([float(v) for v in tup])
            residuals.append(check_entropy_pentagon(*tup))
    elif name == "pentagon":
        for _ in range(args.trials):
            p = random_balanced_33(rng, mp)
            params.append({"a": [str(v) for v in p.a], "b": [str(v) for v in p.b]})
            residuals.append(check_hyperbolic_pentagon(p, mp, cfg))
    elif name == "elliptic":
        bases = EllipticBases(0.3, 0.3)
        for _ in range(args.trials):
            s = random_elliptic_params(rng, bases)
            params.append([str(v) for v in s])
            residuals.append(check_elliptic_beta_integral(s, bases))
    elif name == "orthogonality":
        # residual = constancy of the Fourier symbol (the delta normalization)
        for a_im in (0.2, 0.1):
            params.append({"a_im": a_im})
            residuals.append(orthogonality_symbol_deviation(a_im, mp, cfg))
    elif name == "bailey":
        # the seed Bailey transform of B(al_i - z, be_i + z) is the pentagon
        q = mp.q_total
        for _ in range(args.trials):
            parts = rng.dirichlet(np.ones(5)) * q * 0.5 + q * 0.05
            al, be = (parts[0], parts[1]), (parts[2], parts[3])
            t = (q - parts[0] - parts[1] - parts[2] - parts[3]) / 2
            w = rng.uniform(-0.1, 0.1) * q
            params.append({"alpha": list(al), "beta": list(be), "t": t, "w": w})
            p = BalancedParams33((t + w, *al), (t - w, *be))
            residuals.append(check_hyperbolic_pentagon(p, mp, cfg))
    elif name == "octahedron":
        q = mp.q_total
        for _ in range(args.trials):
            al, be, t, s, u, w = random_octahedron_params(rng, mp)
            params.append({"alpha": list(al), "beta": list(be), "t": t,
                           "s": s, "u": u, "w": w})
            residuals.append(check_octahedron_duality(al, be, t, s, u, w, mp, cfg))
    elif name == "pachner":
        from .complexes import standalone_bipyramid
        bp, central = standalone_bipyramid()
        for _ in range(args.trials):
            ang = random_bipyramid_angles(rng)
            bs = dict(zip(bp.boundary_edges,
                          rng.uniform(-0.4, 0.4, len(bp.boundary_edges))))
            rep = check_pachner_invariance(bp, ang, central, mp, cfg, boundary_state=bs)
            residuals.append(rep["rel_discrepancy"])
    elif name == "gauge":
        x, angles = _data.load("trefoil.json")
        gA = GaugeFixing(((0, 0, 0.5),))
        gB = GaugeFixing(((0, 1, 0.5),))
        residuals.append(faddeev_popov_check(x, angles, gA, gB, mp, cfg)["rel_discrepancy"])
        residuals.append(check_shape_gauge_invariance(x, angles, 0, 0.05, mp, cfg)["rel_discrepancy"])
    report = _suite_report(name, residuals, threshold, params or None)
    report["config"] = {"seed": args.seed, "b": args.b,
                        "tol": tol,
                        "trials": args.trials}
    report["seed"] = args.seed
    report["b"] = args.b
    _emit(report, args.out)
    return EXIT_OK if report["pass"] else EXIT_RESIDUAL


def main(argv=None):
    ap = argparse.ArgumentParser(prog="shapedtqft",
                                 description="shaped-triangulation state integrals")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("special", help="evaluate special functions")
    sp.add_argument("fn", help="phi_b | gamma2")
    sp.add_argument("--z", default="0.0")
    sp.add_argument("--x", default=None)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--check-inversion", action="store_true")
    sp.add_argument("--max-residual", type=float, default=1e-9)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_special)

    pp = sub.add_parser("partition", help="gauge-fixed partition function")
    pp.add_argument("input")
    pp.add_argument("--b", type=float, default=1.0)
    pp.add_argument("--gauge", default="auto")
    pp.add_argument("--tol", type=float, default=1e-6)
    pp.add_argument("--renormalize", choices=["knot-edge"], default=None)
    pp.add_argument("--out", default=None)
    pp.set_defaults(func=cmd_partition)

    vp = sub.add_parser("verify", help="run an identity suite")
    vp.add_argument("suite", help="pentagon | elliptic | orthogonality | bailey | "
                                  "octahedron | entropy | pachner | gauge")
    vp.add_argument("--trials", type=int, default=5)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--b", type=float, default=1.0)
    vp.add_argument("--tol", type=float, default=None,
                    help=f"quadrature tolerance (default {VERIFY_TOL:g}; "
                         + ", ".join(f"{k} {v:g}" for k, v in SUITE_TOL.items()) + ")")
    vp.add_argument("--max-residual", type=float, default=None)
    vp.add_argument("--out", default=None)
    vp.set_defaults(func=cmd_verify)

    gp = sub.add_parser("angles", help="maximize volume in the gauge class")
    gp.add_argument("input")
    gp.add_argument("--tol", type=float, default=1e-10)
    gp.add_argument("--out", default=None)
    gp.set_defaults(func=cmd_angles)

    mp_ = sub.add_parser("pachner", help="apply a shaped 3-2 move")
    mp_.add_argument("input")
    mp_.add_argument("--edge", type=int, required=True)
    mp_.add_argument("--out", default=None)
    mp_.set_defaults(func=cmd_pachner)

    args = ap.parse_args(argv)
    try:
        _check_numbers(args)
        return args.func(args)
    except InputSchemaError as exc:
        print(exc, file=sys.stderr)
        return EXIT_SCHEMA
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except PoleHit as exc:
        print(f"pole hit: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL
    except ShapedTqftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESIDUAL


if __name__ == "__main__":
    sys.exit(main())
