"""Per-layer tracing of shapedtqft from outside the package.

`Tracer.install()` wraps the public entry points of each layer on their
classes and modules, records one span (name, start, end, parent, job) per
call and counts work at the same boundaries.  `Tracer.uninstall()` restores
the originals, so an untraced job runs the package's own code unchanged.

Wrapped boundaries:

  qdilog      FaddeevDilog.__call__          -> qdilog.direct
              LineCache.__init__             -> qdilog.line_build
              LineCache.__call__             -> qdilog.line_eval
  tqft        BoltzmannEvaluator.weight      -> tqft.weight
  quadrature  integrate_1d / integrate_nd / estimate_decay, rebound in every
              module that imported them by name, so nested calls count too;
              evaluations are summed over leaf calls (those that start no
              integrate_1d / integrate_nd of their own), whose integrand is
              the caller's function rather than another integral
  identities  check_hyperbolic_pentagon / check_octahedron_duality
  reduced     ratio_integral_fig8 (the figure-eight closed-form reference)

A span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import inspect
import math
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from shapedtqft import identities, qdilog, quadrature, reduced, special, tqft

# Modules that bind integrate_1d / integrate_nd / estimate_decay by name.
_QUAD_IMPORTERS = (quadrature, special, identities, reduced, tqft)
_QUAD_FUNCS = ("integrate_1d", "integrate_nd", "estimate_decay")
_SETUP = -1


class Tracer:
    """Spans and counters for one benchmark run, kept in memory until the end."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.job_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.child_col = array("d")
        self._stack: list[int] = []
        self._quad_frames: list[bool] = []   # per open quadrature call: has a child
        self.job = _SETUP
        self.counts: dict[int, Counter] = {_SETUP: Counter()}
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.job_col.append(self.job)
        self.end_col.append(0.0)
        self.child_col.append(0.0)
        self._stack.append(idx)
        self.start_col.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        self._stack.pop()
        self.end_col[idx] = end
        parent = self.parent_col[idx]
        if parent >= 0:
            self.child_col[parent] += end - self.start_col[idx]

    def start_job(self, job: int) -> int:
        """Open the root span of a timed job; counters go to that job."""
        self.job = job
        self.counts[job] = Counter()
        return self.open("bench.job")

    def end_job(self, idx: int) -> None:
        self.close(idx)
        self.job = _SETUP

    @property
    def count(self) -> Counter:
        return self.counts[self.job]

    def _span(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrappers --------------------------------------------------------------
    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        tr = self
        direct_call = qdilog.FaddeevDilog.__call__
        line_init = qdilog.LineCache.__init__
        line_call = qdilog.LineCache.__call__
        spacing_default = inspect.signature(line_init).parameters["spacing"].default
        weight = tqft.BoltzmannEvaluator.weight

        @functools.wraps(direct_call)
        def direct(self, z, *args, **kwargs):
            tr.count["qdilog.direct.points"] += np.size(z)
            return tr._span("qdilog.direct", direct_call, self, z, *args, **kwargs)

        @functools.wraps(line_init)
        def build(self, *args, **kwargs):
            bound = inspect.signature(line_init).bind(self, *args, **kwargs)
            tr._span("qdilog.line_build", line_init, self, *args, **kwargs)
            requested = bound.arguments.get("spacing", spacing_default)
            tr.count["qdilog.line_build.count"] += 1
            tr.count["qdilog.line_build.halvings"] += round(math.log2(requested / self.spacing))

        @functools.wraps(line_call)
        def evaluate(self, x):
            radius, spacing = self.radius, self.spacing
            out = tr._span("qdilog.line_eval", line_call, self, x)
            c = tr.count
            c["qdilog.line_eval.calls"] += 1
            c["qdilog.line_eval.points"] += np.size(x)
            if self.radius > radius:
                c["qdilog.line_rebuild.count"] += 1
            c["qdilog.line_build.halvings"] += round(math.log2(spacing / self.spacing))
            return out

        @functools.wraps(weight)
        def traced_weight(self, states):
            out = tr._span("tqft.weight", weight, self, states)
            c = tr.count
            c["tqft.weight.calls"] += 1
            c["tqft.weight.states"] += np.atleast_2d(states).shape[0]
            c["tqft.weight.live"] += int(np.count_nonzero(np.abs(out) >= self.cfg.abs_tol))
            return out

        self._patch(qdilog.FaddeevDilog, "__call__", direct)
        self._patch(qdilog.LineCache, "__init__", build)
        self._patch(qdilog.LineCache, "__call__", evaluate)
        self._patch(tqft.BoltzmannEvaluator, "weight", traced_weight)

        quad = {name: getattr(quadrature, name) for name in _QUAD_FUNCS}

        def integrator(name):
            fn = quad[name]

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                frames = tr._quad_frames
                if frames:
                    frames[-1] = True
                frames.append(False)
                try:
                    res = tr._span("quadrature." + name, fn, *args, **kwargs)
                finally:
                    nested = frames.pop()
                c = tr.count
                if name == "integrate_1d":
                    c["quadrature.integrate_1d.calls"] += 1
                if not nested:
                    c["quadrature.leaf_calls"] += 1
                    c["quadrature.evaluations"] += res.evaluations
                return res
            return wrapped

        @functools.wraps(quad["estimate_decay"])
        def decay(f_abs, *args, **kwargs):
            def probe(r):
                tr.count["quadrature.box_probes"] += 1
                return f_abs(r)
            return tr._span("quadrature.estimate_decay", quad["estimate_decay"], probe,
                            *args, **kwargs)

        wrappers = {"integrate_1d": integrator("integrate_1d"),
                    "integrate_nd": integrator("integrate_nd"),
                    "estimate_decay": decay}
        for mod in _QUAD_IMPORTERS:
            for name, wrapper in wrappers.items():
                if name in mod.__dict__:
                    self._patch(mod, name, wrapper)

        def spanned(mod, attr, name):
            fn = getattr(mod, attr)
            self._patch(mod, attr, functools.wraps(fn)(
                lambda *args, **kwargs: tr._span(name, fn, *args, **kwargs)))

        spanned(identities, "check_hyperbolic_pentagon", "identities.pentagon")
        spanned(identities, "check_octahedron_duality", "identities.octahedron")
        spanned(reduced, "ratio_integral_fig8", "reduced.ratio_integral_fig8")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------
    def spans(self) -> dict:
        """Column arrays of every span (times in perf_counter seconds)."""
        return {"names": np.array(self.names), "name": np.array(self.name_col),
                "parent": np.array(self.parent_col), "job": np.array(self.job_col),
                "start": np.array(self.start_col), "end": np.array(self.end_col),
                "child": np.array(self.child_col)}

    def job_times(self, job: int) -> dict[str, tuple[float, float, list[float]]]:
        """name -> (inclusive seconds, self seconds, span durations) within one job."""
        sp = self.spans()
        mask = sp["job"] == job
        dur = sp["end"][mask] - sp["start"][mask]
        own = dur - sp["child"][mask]
        names = sp["name"][mask]
        out = {}
        for nid in np.unique(names):
            sel = names == nid
            out[self.names[nid]] = (float(dur[sel].sum()), float(own[sel].sum()),
                                    dur[sel].tolist())
        return out

    def setup_seconds(self, prefix: str) -> float:
        """Inclusive time of the set-up spans whose name starts with prefix."""
        sp = self.spans()
        wanted = np.array([n.startswith(prefix) for n in self.names], dtype=bool)
        mask = (sp["job"] == _SETUP) & wanted[sp["name"]]
        return float((sp["end"][mask] - sp["start"][mask]).sum())
