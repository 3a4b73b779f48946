"""Benchmark of shapedtqft: wall time to a result of stated accuracy.

    python3 bench/run.py --workload fig8-3d --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload identities --seed 1 --seconds 1 --trace 1 --quick

Run from the root of a source checkout; the package is imported from `src/`.
One single-threaded process runs seeded jobs of one workload for about
`--seconds` seconds and checks each result against its closed form.

--trace 0 prints the end-to-end metrics: median job wall time, set-up time
(median of fresh processes, start to ready), peak resident memory and the
share of gated units that passed.  --trace 1 runs every job twice, untraced
and then traced with the same inputs, requires bit-identical values, and
prints the per-layer metrics (per-job means) with the tracing overhead.
--quick runs one reduced-size job per workload (see workloads.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
machine facts and per-job diagnostics, which also go to bench/out/.
"""
import os

# One BLAS thread, set before numpy is imported here or in a set-up process,
# so that no BLAS thread competes with the measured one.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("fig8-3d", "identities")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="one reduced-size job")
    ap.add_argument("--probe", choices=WORKLOAD_NAMES,
                    help="internal: set up one workload, print its references, exit")
    args = ap.parse_args(argv)
    if args.probe is None and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _probe(name, quick):
    """Set-up process: import, load, build engines and references, report ready."""
    from workloads import WORKLOADS
    state = WORKLOADS[name].setup(quick)
    print(json.dumps(state["refs"]), flush=True)


def _setup_probes(name, quick, count):
    """Seconds from process start to ready for `count` fresh set-up processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", name]
    if quick:
        cmd.append("--quick")
    times, refs = [], []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                times.append(time.perf_counter() - t0)
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up process for {name} exited with {proc.returncode}")
        refs.append(json.loads(line))
    return times, refs


def _facts(args, job_inputs):
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "quick": args.quick, "blas_env": BLAS_ENV,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "source_lines": sum(len(p.read_text().splitlines())
                                for p in sorted((SRC / "shapedtqft").glob("*.py"))),
            "jobs": job_inputs}


def _time_jobs(seconds, quick, step):
    """Run step(i) for i = 0, 1, ... until the next one would end past `seconds`."""
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t0)
        if quick or time.perf_counter() - start + statistics.median(durations) > seconds:
            return durations


def _tally(results):
    checks = [c for r in results for c in r.checks]
    return len(checks), sum(not c.passed for c in checks), [
        {"check": c.name, "passed": c.passed, **c.diag} for c in checks]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_plain(args, wl):
    probe_s, probe_refs = _setup_probes(wl.name, args.quick, 1 if args.quick else SETUP_PROBES)
    state = wl.setup(args.quick)
    results, inputs = [], []

    def step(i):
        inputs.append(wl.draw(state, args.seed, i))
        results.append(wl.run(state, inputs[-1]))

    walls = _time_jobs(args.seconds, args.quick, step)
    attempted, failed, diags = _tally(results)
    same_refs = all(r == state["refs"] for r in probe_refs)
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(statistics.median(probe_s), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_frac": _metric((attempted - failed) / attempted, "frac"),
    }
    extra = {"job_wall_s": walls, "setup_probe_s": probe_s, "refs": state["refs"],
             "refs_match_setup_processes": same_refs, "checks": diags}
    return same_refs and failed == 0, attempted, failed, metrics, inputs, extra


def _layer_metrics(tracer, jobs, import_s, untraced, traced):
    """Per-job means of the per-layer counters and span times.

    A layer the workload never calls reports 0, and so does a ratio whose
    denominator is 0 (for example tqft.* on identities).
    """
    counts = {k: float(np.mean([tracer.counts[j][k] for j in jobs]))
              for k in {k for j in jobs for k in tracer.counts[j]}}
    times = [tracer.job_times(j) for j in jobs]

    def incl(name):
        return float(np.mean([t.get(name, (0.0, 0.0, []))[0] for t in times]))

    def own(prefix):
        return float(np.mean([sum(v[1] for k, v in t.items() if k.startswith(prefix))
                              for t in times]))

    def trial(name):
        d = [x for t in times for x in t.get(name, (0.0, 0.0, []))[2]]
        return statistics.median(d) if d else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    c = lambda k: counts.get(k, 0.0)  # noqa: E731
    direct_s, weight_s = incl("qdilog.direct"), incl("tqft.weight")
    return {
        "qdilog.direct.points": _metric(c("qdilog.direct.points"), "count"),
        "qdilog.direct.s": _metric(direct_s, "s"),
        "qdilog.direct.points_per_s": _metric(ratio(c("qdilog.direct.points"), direct_s), "1/s"),
        "qdilog.line_build.count": _metric(c("qdilog.line_build.count"), "count"),
        "qdilog.line_build.s": _metric(incl("qdilog.line_build"), "s"),
        "qdilog.line_rebuild.count": _metric(c("qdilog.line_rebuild.count"), "count"),
        "qdilog.line_build.halvings": _metric(c("qdilog.line_build.halvings"), "count"),
        "qdilog.line_eval.calls": _metric(c("qdilog.line_eval.calls"), "count"),
        "qdilog.line_eval.points": _metric(c("qdilog.line_eval.points"), "count"),
        "qdilog.line_eval.self_s": _metric(own("qdilog.line_eval"), "s"),
        "qdilog.line_eval.points_per_call": _metric(
            ratio(c("qdilog.line_eval.points"), c("qdilog.line_eval.calls")), "points/call"),
        "tqft.weight.calls": _metric(c("tqft.weight.calls"), "count"),
        "tqft.weight.states": _metric(c("tqft.weight.states"), "count"),
        "tqft.weight.self_s": _metric(own("tqft.weight"), "s"),
        "tqft.weight.states_per_s": _metric(ratio(c("tqft.weight.states"), weight_s), "1/s"),
        "tqft.weight.live_frac": _metric(ratio(c("tqft.weight.live"), c("tqft.weight.states")),
                                         "frac"),
        "quadrature.integrate_1d.calls": _metric(c("quadrature.integrate_1d.calls"), "count"),
        "quadrature.evaluations": _metric(c("quadrature.evaluations"), "count"),
        "quadrature.box_probes": _metric(c("quadrature.box_probes"), "count"),
        "quadrature.self_s": _metric(own("quadrature."), "s"),
        "identities.pentagon.trial_s": _metric(trial("identities.pentagon"), "s"),
        "identities.octahedron.trial_s": _metric(trial("identities.octahedron"), "s"),
        "reduced.reference_s": _metric(tracer.setup_seconds("reduced."), "s"),
        "cli.import_s": _metric(import_s, "s"),
        "trace.wall_s": _metric(statistics.median(traced), "s"),
        "trace.overhead_frac": _metric(
            statistics.median(t / u - 1.0 for t, u in zip(traced, untraced)), "frac"),
    }


def reconciles(tracer, job) -> bool:
    """Weight states = quadrature evaluations + decay probes, for jobs with weights."""
    c = tracer.counts[job]
    return (c["tqft.weight.states"] == 0 or c["tqft.weight.states"]
            == c["quadrature.evaluations"] + c["quadrature.box_probes"])


def run_traced(args, wl, import_s):
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        state = wl.setup(args.quick)
    finally:
        tracer.uninstall()
    results, inputs, untraced, traced, identical = [], [], [], [], []

    def step(i):
        job = wl.draw(state, args.seed, i)
        t0 = time.perf_counter()
        plain = wl.run(state, job)
        untraced.append(time.perf_counter() - t0)
        tracer.install()
        try:
            t0 = time.perf_counter()
            root = tracer.start_job(i)
            try:
                res = wl.run(state, job)
            finally:
                tracer.end_job(root)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        inputs.append(job)
        results.append(res)
        identical.append(plain.values == res.values
                         and [c.passed for c in plain.checks] == [c.passed for c in res.checks])

    _time_jobs(args.seconds, args.quick, step)
    jobs = list(range(len(results)))
    attempted, failed, diags = _tally(results)
    metrics = _layer_metrics(tracer, jobs, import_s, untraced, traced)
    reconciled = [reconciles(tracer, j) for j in jobs]
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{wl.name}-seed{args.seed}.npz"
    np.savez_compressed(spans_file, **tracer.spans())
    extra = {"untraced_wall_s": untraced, "traced_wall_s": traced,
             "bit_identical": identical, "reconciled": reconciled,
             "counts": [dict(tracer.counts[j]) for j in jobs],
             "spans_file": str(spans_file.relative_to(ROOT)), "checks": diags}
    ok = failed == 0 and all(identical) and all(reconciled)
    return ok, attempted, failed, metrics, inputs, extra


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "shapedtqft" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/shapedtqft; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    if args.probe:
        _probe(args.probe, args.quick)
        return 0
    t0 = time.perf_counter()
    import shapedtqft.cli  # noqa: F401  (the whole package, as the command line loads it)
    import_s = time.perf_counter() - t0
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    if args.trace:
        ok, attempted, failed, metrics, inputs, extra = run_traced(args, wl, import_s)
    else:
        ok, attempted, failed, metrics, inputs, extra = run_plain(args, wl)
    report = {"facts": _facts(args, inputs), **extra, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"run-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, sort_keys=True, default=repr) + "\n")
    print(json.dumps(report, sort_keys=True, default=repr))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
