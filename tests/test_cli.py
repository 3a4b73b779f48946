"""Command-line surface: subcommands, exit codes, schemas, reproducibility."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from shapedtqft import cli, identities, quadrature
from shapedtqft.data import path_of
from shapedtqft.params import ModularParameter
from shapedtqft.quadrature import QuadratureConfig


def run_cli(*args, timeout=600):
    return subprocess.run([sys.executable, "-m", "shapedtqft.cli", *args],
                          capture_output=True, text=True, timeout=timeout)


def test_special_phi_b_at_zero(tmp_path):
    out = tmp_path / "r.json"
    r = run_cli("special", "phi_b", "--z", "0", "--b", "1", "--out", str(out))
    assert r.returncode == 0
    rep = json.loads(out.read_text())
    val = rep["re"] + 1j * rep["im"]
    assert abs(val**2 - np.exp(1j * np.pi / 6)) < 1e-10


def test_special_gamma2_inversion_check():
    r = run_cli("special", "gamma2", "--check-inversion", "--x", "0.4")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["residual"] < 1e-9


def test_special_unknown_function_exits_2():
    r = run_cli("special", "nosuch", "--z", "1")
    assert r.returncode == 2


def test_special_refuses_out_of_range_tol(capsys):
    # a tolerance the kernel cannot honour is refused, not clipped into range
    r = run_cli("special", "phi_b", "--tol", "1e-16")
    assert r.returncode == 2 and "outside [1e-14, 1e-06]" in r.stderr
    assert cli.main(["special", "gamma2", "--z", "0.4", "--tol", "1e-3"]) == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fn", ["phi_b", "gamma2"])
def test_special_inversion_check_honours_tol(monkeypatch, capsys, fn):
    # both factors of the inversion check are evaluated at --tol, and the
    # report states it
    seen = []
    for name in ("phi_b", "hyperbolic_gamma"):
        monkeypatch.setattr(cli, name, lambda z, mp, tol=1e-13, real=getattr(cli, name):
                            seen.append(tol) or real(z, mp, tol))
    argv = ["special", fn, "--check-inversion", "--tol", "1e-6", "--max-residual", "1e-3"]
    assert cli.main(argv) == cli.EXIT_OK
    assert seen == [1e-6, 1e-6] and json.loads(capsys.readouterr().out)["tol"] == 1e-6


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_pins_blas_threads(preset):
    # run on its own, the CLI gets one BLAS thread unless the caller chose
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    if preset is not None:
        env.update(dict.fromkeys(names, preset))
    code = "import os, shapedtqft; print([os.environ[n] for n in %r])" % (names,)
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == str([preset or "1"] * 3)


def test_gamma2_line_imports_no_interpolation():
    # a fresh interpreter that loads the CLI and evaluates a gamma2 line
    # never imports scipy.interpolate
    code = ("import sys, shapedtqft.cli\n"
            "from shapedtqft.params import ModularParameter\n"
            "from shapedtqft.special import gamma2_line\n"
            "mp = ModularParameter(1.0)\n"
            "gamma2_line(0.5 * mp.q_total, mp, 1e-13)([0.0, 1.5])\n"
            "print('scipy.interpolate' in sys.modules)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_runtime_imports_no_scipy():
    # the package needs numpy only: a fresh interpreter that loads the CLI and
    # runs the volume functional, the classical beta pentagon (criterion 5's
    # first point) and a gamma2 line never imports scipy
    code = ("import sys, shapedtqft.cli\n"
            "from shapedtqft.data import load\n"
            "from shapedtqft.geometry import shape_volume\n"
            "from shapedtqft.identities import check_classical_pentagon\n"
            "from shapedtqft.params import ModularParameter\n"
            "from shapedtqft.quadrature import QuadratureConfig\n"
            "from shapedtqft.special import classical_beta, gamma2_line\n"
            "shape_volume(load('fig8.json')[1])\n"
            "classical_beta(2.0, 3.0)\n"
            "check_classical_pentagon(0.2, 0.2, 0.2, 0.2, 0.2,\n"
            "                         QuadratureConfig(abs_tol=1e-11, rel_tol=1e-11))\n"
            "mp = ModularParameter(1.0)\n"
            "gamma2_line(0.5 * mp.q_total, mp, 1e-13)([0.0, 1.5])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


TREFOIL = str(path_of("trefoil.json"))


@pytest.mark.parametrize("argv", [
    ["special", "phi_b", "--b", "0"], ["special", "gamma2", "--b", "-1"],
    ["partition", TREFOIL, "--b", "0"], ["partition", TREFOIL, "--b", "-1"],
    ["verify", "pentagon", "--b", "0"], ["verify", "entropy", "--b", "-1"],
])
def test_nonpositive_coupling_is_a_usage_error(capsys, argv):
    assert cli.main(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "coupling b must be a positive real" in err


@pytest.mark.parametrize("argv, message", [
    (["partition", TREFOIL, "--tol", "0"], "tolerance must be positive"),
    (["partition", TREFOIL, "--tol", "-1"], "tolerance must be positive"),
    (["verify", "pentagon", "--tol", "-1"], "tolerance must be positive"),
    (["verify", "pentagon", "--trials", "-2"], "at least one trial"),
    (["verify", "bailey", "--trials", "0"], "at least one trial"),
])
def test_bad_tolerance_and_trials_are_usage_errors(capsys, argv, message):
    # refused before any quadrature runs, not failed inside it or passed vacuously
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1 and message in captured.err


def test_bad_coupling_exits_2_without_traceback():
    r = run_cli("verify", "pentagon", "--b", "-1")
    assert r.returncode == 2
    assert r.stderr == "--b -1: coupling b must be a positive real\n"


@pytest.mark.parametrize("argv", [["special", "phi_b", "--z", "abc"],
                                  ["special", "gamma2", "--check-inversion", "--x", "1+"]])
def test_malformed_complex_is_a_usage_error(capsys, argv):
    # a number that does not parse is refused with exit 2 and one line of
    # stderr, not a ValueError traceback
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("cannot parse complex number")


def test_partition_trefoil(tmp_path):
    out = tmp_path / "w.json"
    r = run_cli("partition", str(path_of("trefoil.json")), "--b", "1",
                "--tol", "1e-8", "--out", str(out))
    assert r.returncode == 0
    rep = json.loads(out.read_text())
    assert abs(rep["W_re"] - 1.0) < 1e-6 and abs(rep["W_im"]) < 1e-6
    assert rep["dim"] == 1 and rep["b"] == 1.0


def test_partition_renormalize_trefoil(tmp_path):
    out = tmp_path / "w.json"
    r = run_cli("partition", str(path_of("trefoil.json")), "--renormalize",
                "knot-edge", "--tol", "1e-8", "--out", str(out))
    assert r.returncode == 0
    rep = json.loads(out.read_text())
    assert abs(rep["renormalized_re"] - 1.0) < 1e-6


def test_partition_renormalize_without_knot_edge_refuses_before_integrating(monkeypatch,
                                                                           capsys):
    # fig8_complement has no degree-1 edge: the usage error comes first
    calls = []
    monkeypatch.setattr(cli, "partition_function", lambda *a, **kw: calls.append(a))
    argv = ["partition", str(path_of("fig8_complement.json")), "--renormalize", "knot-edge"]
    assert cli.main(argv) == cli.EXIT_USAGE == 2
    assert calls == []
    assert capsys.readouterr().err == "no degree-1 knot edge to renormalize by\n"


def test_partition_gauge_edge_outside_the_complex_is_an_error(capsys):
    argv = ["partition", str(path_of("trefoil.json")), "--gauge", "v0:e99*0.5"]
    assert cli.main(argv) == cli.EXIT_RESIDUAL
    assert capsys.readouterr().err.startswith("error: edge 99 is not an edge class")


def test_partition_malformed_angles_exit_3(tmp_path):
    doc = json.loads(path_of("trefoil.json").read_text())
    doc["angles"][0][0] += 0.3  # per-tet sum != pi
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    r = run_cli("partition", str(bad))
    assert r.returncode == 3
    assert "tetrahedron 0" in r.stderr


def test_partition_missing_file_exit_3():
    r = run_cli("partition", "/nonexistent/file.json")
    assert r.returncode == 3


def test_main_returns_input_errors_without_exiting(tmp_path, capsys):
    # input helpers raise typed errors, which main maps to exit codes: a
    # SystemExit from inside a helper would fail this test
    assert cli.main(["partition", str(tmp_path / "missing.json")]) == cli.EXIT_SCHEMA == 3
    assert "input file not found" in capsys.readouterr().err
    trefoil = str(path_of("trefoil.json"))
    assert cli.main(["partition", trefoil, "--gauge", "v0-e1"]) == cli.EXIT_USAGE == 2
    assert "cannot parse gauge assignment" in capsys.readouterr().err


def test_verify_entropy_and_threshold_override():
    r = run_cli("verify", "entropy", "--trials", "100")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["pass"] and rep["worst"] < 1e-12
    r2 = run_cli("verify", "entropy", "--trials", "5", "--max-residual", "1e-20")
    assert r2.returncode == 1


def test_verify_refuses_nonpositive_max_residual(capsys):
    # 0 is a threshold of its own, not "unset": it is refused like --tol 0,
    # while the smallest positive threshold is taken as given
    for bad in ("0", "-1e-3", "nan"):
        assert cli.main(["verify", "entropy", "--trials", "2", f"--max-residual={bad}"]) == 2
        assert "--max-residual" in capsys.readouterr().err
    assert cli.main(["verify", "entropy", "--trials", "2", "--max-residual", "5e-324"]) == 1
    assert json.loads(capsys.readouterr().out)["threshold"] == 5e-324


def test_verify_unknown_suite_exit_2():
    assert run_cli("verify", "nosuch").returncode == 2


def test_verify_pachner_seeded():
    r = run_cli("verify", "pachner", "--trials", "2", "--seed", "7")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["worst"] < 1e-5


def test_verify_reports_are_byte_identical():
    r1 = run_cli("verify", "entropy", "--trials", "20", "--seed", "3")
    r2 = run_cli("verify", "entropy", "--trials", "20", "--seed", "3")
    assert r1.stdout == r2.stdout
    r3 = run_cli("verify", "entropy", "--trials", "20", "--seed", "4")
    assert r3.stdout != r1.stdout


@pytest.mark.parametrize("suite, checks, default_tol", [
    ("pentagon", ("check_hyperbolic_pentagon",), 1e-9),
    ("pachner", ("check_pachner_invariance",), 1e-8),
    ("gauge", ("faddeev_popov_check", "check_shape_gauge_invariance"), 1e-9),
])
def test_verify_suites_honour_tol(monkeypatch, capsys, suite, checks, default_tol):
    # each suite keeps its own tolerance by default and takes --tol when given;
    # the reported config states the tolerance the suite ran at
    seen = []

    def fake(*args, **kwargs):
        seen.append(next(a.abs_tol for a in args if isinstance(a, QuadratureConfig)))
        return 0.0 if suite == "pentagon" else {"rel_discrepancy": 0.0}

    for name in checks:
        monkeypatch.setattr(cli, name, fake)
    assert cli.main(["verify", suite, "--trials", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["tol"] == default_tol
    assert cli.main(["verify", suite, "--trials", "1", "--tol", "3e-6"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["tol"] == 3e-6
    half = len(seen) // 2
    assert seen[:half] == [default_tol] * half and seen[half:] == [3e-6] * half


def test_verify_bailey_reports_parameters(capsys):
    assert cli.main(["verify", "bailey", "--trials", "2", "--seed", "5"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert len(rep["parameters"]) == len(rep["residuals"]) == 2
    q = ModularParameter(1.0).q_total
    for par in rep["parameters"]:
        assert abs(2 * par["t"] + sum(par["alpha"]) + sum(par["beta"]) - q) < 1e-12


def test_verify_orthogonality_suite(capsys, monkeypatch):
    # the suite reports the Fourier-symbol residuals only: no smear is integrated
    def refuse(*_args, **_kwargs):
        raise AssertionError("verify orthogonality must not integrate")
    monkeypatch.setattr(identities, "integrate_nd", refuse)
    monkeypatch.setattr(quadrature, "integrate_nd", refuse)
    assert cli.main(["verify", "orthogonality"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["parameters"] == [{"a_im": 0.2}, {"a_im": 0.1}]
    assert len(rep["residuals"]) == 2 and rep["worst"] < 1e-8


def test_verify_gauge_suite():
    r = run_cli("verify", "gauge")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["pass"] and rep["worst"] < 1e-5


def test_verify_elliptic_suite():
    # every draw is checked: the sampler keeps prod s_i = p q with all |s_i| < 1
    r = run_cli("verify", "elliptic", "--trials", "3", "--seed", "1")
    assert r.returncode == 0
    residuals = json.loads(r.stdout)["residuals"]
    assert len(residuals) == 3 and max(residuals) < 1e-8


def test_partition_fig8_renormalized_matches_ratio_integral(tmp_path):
    # loose-tolerance 3D pipeline through the CLI against the reduced factor
    from shapedtqft.params import ModularParameter
    from shapedtqft.quadrature import QuadratureConfig
    from shapedtqft.reduced import ratio_integral_fig8
    out = tmp_path / "w.json"
    r = run_cli("partition", str(path_of("fig8.json")), "--tol", "3e-4",
                "--renormalize", "knot-edge", "--out", str(out), timeout=900)
    assert r.returncode == 0
    rep = json.loads(out.read_text())
    ratio = ratio_integral_fig8(ModularParameter(1.0),
                                QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)).value
    assert abs(rep["renormalized_re"] - abs(ratio) ** 2) < 1e-2 * abs(ratio) ** 2
    assert abs(rep["renormalized_im"]) < 1e-4


def test_angles_subcommand(tmp_path):
    out = tmp_path / "a.json"
    r = run_cli("angles", str(path_of("fig8_complement.json")), "--out", str(out))
    assert r.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["converged"]
    assert abs(rep["volume"] - 2.0298832128) < 1e-8
    assert max(rep["gluing_residuals"].values()) < 1e-8


def test_pachner_subcommand(tmp_path):
    out = tmp_path / "p.json"
    r = run_cli("pachner", str(path_of("bipyramid.json")), "--edge", "4",
                "--out", str(out))
    assert r.returncode == 0
    rep = json.loads(out.read_text())
    assert rep["tets"] == 2
    assert rep["edge_map"]["4"] is None
    r2 = run_cli("pachner", str(path_of("bipyramid.json")), "--edge", "0")
    assert r2.returncode == 1  # boundary edge: move not applicable


@pytest.mark.parametrize("name,edge", [("fig8.json", "99"), ("bipyramid.json", "-1")])
def test_pachner_refuses_edge_outside_the_complex(capsys, name, edge):
    # no IndexError traceback, and -1 does not silently take the last edge
    assert cli.main(["pachner", str(path_of(name)), "--edge", edge]) == cli.EXIT_RESIDUAL
    assert capsys.readouterr().err.startswith(
        f"move not applicable: edge {edge} is not an edge class")
