"""Tests of the benchmark harness itself (run: python3 -m pytest bench).

Each workload runs once in --quick mode, untraced and traced, so the harness
cannot rot; the traced run must reproduce the untraced values bit for bit and
its counts must reconcile with the package's own evaluation counts.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, cwd=ROOT, run=BENCH / "run.py"):
    cmd = [sys.executable, str(run), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _lines(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _check_result(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in specs}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_untraced(workload):
    report, result = _lines(_run(workload, 0))
    _check_result(result, SPEC["end_to_end"])
    assert report["refs_match_setup_processes"]
    assert result["metrics"]["pass_frac"]["value"] == 1.0
    assert report["facts"]["blas_env"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_traced_matches_and_reconciles(workload):
    report, result = _lines(_run(workload, 1))
    _check_result(result, SPEC["per_layer"])
    assert report["bit_identical"] and all(report["bit_identical"])
    assert all(report["reconciled"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # quadrature.evaluations sums the leaf calls, each of at least 8 GK15 panels,
    # so integrands nested inside another integrand are counted too
    leaf_calls = report["counts"][0]["quadrature.leaf_calls"]
    assert leaf_calls > 0 and m["quadrature.evaluations"] >= 8 * 15 * leaf_calls
    if workload == "fig8-3d":
        # the only weight states outside quadrature.evaluations are the 3D box's
        # decay probes: 3 radii on 6 axis rays and 8 diagonals
        assert m["tqft.weight.states"] - m["quadrature.evaluations"] == 42
        assert m["quadrature.box_probes"] == 42
    if workload == "identities":
        assert m["identities.pentagon.trial_s"] > 0 and m["identities.octahedron.trial_s"] > 0
        assert m["tqft.weight.calls"] == 0
    else:
        assert m["reduced.reference_s"] > 0 and m["tqft.weight.live_frac"] > 0


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, run=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
