"""Spans and counters for gofkit's layers, recorded from outside the program.

``Instrumentation.install`` replaces public gofkit functions and methods with
wrappers that open a span around each call. The same wrapper object is put
into every gofkit module that holds the original, so names imported into
``cli`` and ``bench`` (``cli.load_spectrum``, ``bench.mmd_vstat``, ...) are
timed too. ``remove`` puts the originals back. Nothing under ``src/`` changes.

Spans are kept in memory as ``[name, start, end, parent]`` and written out by
the caller when the run ends. A layer's self time is its span's duration
minus the durations of its child spans (the program is single-threaded, so
children never overlap).
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import time
import tracemalloc

import numpy as np

GOFKIT_MODULES = ("gofkit", "gofkit.cli", "gofkit.bench", "gofkit.embedding",
                  "gofkit.spectrum", "gofkit.dists", "gofkit.calibrate",
                  "gofkit.kernels")
# Spans whose self time is whatever no named layer below them took: the
# entry points a workload calls, and features of a basis no layer names.
# Coverage leaves them out, so it shows how much time the named layers explain.
CATCH_ALL = ("bench.run_plan", "bench.boundary_probe", "cli.main", "spectrum.features.other")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.chisq_keys = set()
        self.gram_peak_bytes = 0
        self._stack = [-1]

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def current(self):
        top = self._stack[-1]
        return None if top < 0 else self.spans[top][0]

    def count(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def times(self):
        """Total and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_s = {}, {}
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        return total, self_s


def _feature_layer(basis, nystrom_cls) -> str:
    if isinstance(basis, nystrom_cls):
        return "spectrum.features.nystrom"
    if "tensor_indices" in basis.meta:
        return "spectrum.features.tensor"
    if basis.meta.get("kernel_id") == "cosine-ref":
        return "spectrum.features.cosine"
    return "spectrum.features.other"


class Instrumentation:
    """Installs and removes the span wrappers around gofkit's layers."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    # -- helpers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        """Point every gofkit module attribute holding ``original`` at ``wrapper``."""
        for modname in GOFKIT_MODULES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        from gofkit import bench, calibrate, cli, dists, embedding, kernels, spectrum

        t = self.tracer

        def wrap_fn(module, attr, name, after=None):
            original = getattr(module, attr)
            self._replace_everywhere(original, self._span(name, original, after))

        wrap_fn(bench, "run_plan", "bench.run_plan")
        wrap_fn(bench, "boundary_probe", "bench.boundary_probe")
        wrap_fn(bench, "emit", "bench.emit")
        wrap_fn(cli, "main", "cli.main")

        def after_sample(args, kwargs, out):
            t.count("dists.sample.points", out.shape[0])
            if args[0].family == "spectral":
                t.count("dists.sample.spectral_points", out.shape[0])

        wrap_fn(dists, "sample", "dists.sample", after_sample)
        wrap_fn(dists, "least_favorable", "dists.least_favorable")

        def after_chisq(args, kwargs, out):
            lam = np.ascontiguousarray(args[0] if args else kwargs["eigenvalues"],
                                       dtype=float)
            t.count("calibrate.chisq.calls", 1)
            t.count("calibrate.chisq.draws", out.reps * lam.size)
            digest = hashlib.sha256(lam.tobytes()).hexdigest()
            t.chisq_keys.add((digest, out.alpha, out.reps, out.seed))

        wrap_fn(calibrate, "chisq_mix_quantile", "calibrate.chisq", after_chisq)

        def after_empirical(args, kwargs, out):
            t.count("calibrate.empirical.reps", out.reps)

        wrap_fn(calibrate, "empirical_null_quantile", "calibrate.empirical",
                after_empirical)

        def after_adaptive(args, kwargs, out):
            grid = args[1] if len(args) > 1 else kwargs["grid"]
            t.count("embedding.adaptive.grid_points", grid.values.size)

        wrap_fn(embedding, "mmd_vstat", "embedding.statistic")
        wrap_fn(embedding, "studentized_stat", "embedding.statistic")
        wrap_fn(embedding, "adaptive_stat", "embedding.statistic", after_adaptive)
        wrap_fn(spectrum, "load_spectrum", "spectrum.load_spectrum")
        wrap_fn(spectrum, "nystrom_decompose", "spectrum.decompose")
        wrap_fn(spectrum, "sphere_zonal_spectrum", "spectrum.decompose")

        # factories: the returned callables are what does the work
        def kernel_span(kernel):
            def after(args, kwargs, out):
                t.count("kernels.eval.cells", out.shape[0] * out.shape[1])
            return self._span("kernels.eval", kernel, after)

        resolve = kernels.resolve_kernel
        self._replace_everywhere(
            resolve, functools.wraps(resolve)(lambda kid: kernel_span(resolve(kid))))

        def counted_sampler(sampler):
            def draw(n, rng):
                if t.current() == "dists.sample":
                    t.count("dists.sample.proposal_rows", n)
                return sampler(n, rng)
            return draw

        null_sampler = dists.null_sampler
        self._replace_everywhere(
            null_sampler, functools.wraps(null_sampler)(
                lambda null_id: counted_sampler(null_sampler(null_id))))

        # methods
        features = spectrum.SpectralBasis.features
        nystrom_cls = spectrum.NystromBasis

        @functools.wraps(features)
        def features_wrapper(basis, X):
            layer = _feature_layer(basis, nystrom_cls)
            idx = t.open(layer)
            try:
                out = features(basis, X)
            finally:
                t.close(idx)
            t.count(layer + ".cells", out.shape[0] * out.shape[1])
            t.count("spectrum.features.calls", 1)
            return out

        self._set(spectrum.SpectralBasis, "features", features_wrapper)
        self._set(spectrum.SpectralBasis, "summary",
                  self._span("spectrum.summary", spectrum.SpectralBasis.summary))

        zonal_summary = spectrum.SphereZonalBasis.summary

        @functools.wraps(zonal_summary)
        def zonal_wrapper(basis, X):
            idx = t.open("spectrum.zonal_summary")
            tracemalloc.start()
            try:
                out = zonal_summary(basis, X)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                t.close(idx)
            t.gram_peak_bytes = max(t.gram_peak_bytes, peak)
            return out

        self._set(spectrum.SphereZonalBasis, "summary", zonal_wrapper)

        from_csv = embedding.Sample.__dict__["from_csv"].__func__

        def after_csv(args, kwargs, out):
            t.count("embedding.from_csv.rows", out.n)

        self._set(embedding.Sample, "from_csv",
                  classmethod(self._span("embedding.from_csv", from_csv, after_csv)))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float,
                  file_bytes: int) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced pass."""
    total, self_s = tracer.times()
    c = tracer.counts.get
    chisq_calls = c("calibrate.chisq.calls", 0)
    proposals = c("dists.sample.proposal_rows", 0)
    named_self = sum(v for name, v in self_s.items() if name not in CATCH_ALL)
    return {
        "spectrum.features.tensor.self_s": self_s.get("spectrum.features.tensor", 0.0),
        "spectrum.features.tensor.cells": c("spectrum.features.tensor.cells", 0),
        "spectrum.features.cosine.s": total.get("spectrum.features.cosine", 0.0),
        "spectrum.features.cosine.cells": c("spectrum.features.cosine.cells", 0),
        "spectrum.features.calls": c("spectrum.features.calls", 0),
        "dists.sample.self_s": self_s.get("dists.sample", 0.0),
        "dists.sample.points": c("dists.sample.points", 0),
        "dists.sample.proposal_rows": proposals,
        "dists.sample.accept_frac": (c("dists.sample.spectral_points", 0) / proposals
                                     if proposals else 0.0),
        "dists.least_favorable.s": total.get("dists.least_favorable", 0.0),
        "calibrate.chisq.s": total.get("calibrate.chisq", 0.0),
        "calibrate.chisq.calls": chisq_calls,
        "calibrate.chisq.distinct_frac": (len(tracer.chisq_keys) / chisq_calls
                                          if chisq_calls else 0.0),
        "calibrate.chisq.draws": c("calibrate.chisq.draws", 0),
        "calibrate.empirical.self_s": self_s.get("calibrate.empirical", 0.0),
        "calibrate.empirical.reps": c("calibrate.empirical.reps", 0),
        "calibrate.file_bytes": file_bytes,
        "spectrum.features.nystrom.self_s": self_s.get("spectrum.features.nystrom", 0.0),
        "kernels.eval.s": total.get("kernels.eval", 0.0),
        "kernels.eval.cells": c("kernels.eval.cells", 0),
        "embedding.from_csv.s": total.get("embedding.from_csv", 0.0),
        "embedding.from_csv.rows": c("embedding.from_csv.rows", 0),
        "spectrum.load_spectrum.s": total.get("spectrum.load_spectrum", 0.0),
        "cli.self_s": self_s.get("cli.main", 0.0),
        "spectrum.zonal_summary.s": total.get("spectrum.zonal_summary", 0.0),
        "spectrum.zonal_summary.gram_bytes": tracer.gram_peak_bytes,
        "spectrum.decompose.s": total.get("spectrum.decompose", 0.0),
        "spectrum.summary.self_s": self_s.get("spectrum.summary", 0.0),
        "embedding.statistic.self_s": self_s.get("embedding.statistic", 0.0),
        "embedding.adaptive.grid_points": c("embedding.adaptive.grid_points", 0),
        "bench.self_s": (self_s.get("bench.run_plan", 0.0)
                         + self_s.get("bench.boundary_probe", 0.0)),
        "bench.emit.s": total.get("bench.emit", 0.0),
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "trace.coverage_frac": named_self / traced_wall,
    }
