"""Span recorder for the traced run, and the per-layer metrics made from it.

`Recorder.install` wraps `fup`'s public functions where the package's own
modules look them up (the package namespace, each submodule that imported
the name, the BakerMap methods and the sweep's point runners), so nothing in
`fup` changes and an untraced run executes none of this. Each wrapped call,
while recording is on, leaves one span: name, start, end, parent span and
the report it belongs to, plus counts measured at that boundary (FFT points,
|F_1| evaluations, Jacobi rotations, Gelfand levels) and, for the solvers and
the G/S_k sweeps, the tracemalloc peak allocated during the call. Spans stay
in memory until `write` is called at the end of the run.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

import numpy as np

MB = 1e6
# per-call timings: (span name, metric prefix, unit, scale from seconds)
PER_CALL = [("spectral.gram_matvec", "spectral.gram_matvec", "ms", 1e3),
            ("baker.apply", "baker.apply", "us", 1e6),
            ("sweep.point", "sweep.point", "ms", 1e3)]
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class Recorder:
    """Collects spans while `enabled`; `phase` is "setup", a round index, or
    "memory" for the extra round run under tracemalloc."""

    def __init__(self):
        self.enabled = False
        self.phase = "setup"
        self.report = None
        self.spans = []
        self._stack = []
        self._mem = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name, fn, measure=None, alloc=False):
        """fn, recording a span named `name` for each call made while enabled.

        measure(args, kwargs, result) returns extra counts for the span;
        alloc records the tracemalloc peak allocated during the call when
        tracemalloc is tracing.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            sid = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else None
            rec.spans.append(None)
            rec._stack.append(sid)
            traced_alloc = alloc and tracemalloc.is_tracing()
            if traced_alloc:
                rec._mem_enter()
            extra = {}
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    extra = measure(args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter()
                if traced_alloc:
                    extra["alloc"] = rec._mem_exit()
                rec._stack.pop()
                rec.spans[sid] = (name, t0, t1, parent, rec.report, rec.phase, extra)

        return wrapper

    def _mem_enter(self):
        current, peak = tracemalloc.get_traced_memory()
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        tracemalloc.reset_peak()
        self._mem.append([current, current])

    def _mem_exit(self) -> int:
        base, peak = self._mem.pop()
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        if self._mem:
            self._mem[-1][1] = max(self._mem[-1][1], peak)
        return peak - base

    def install(self):
        """Wrap the layers' public functions at every site `fup` calls them from."""
        import fup.baker as baker
        import fup.spectral as spectral
        import fup.sweep as sweep
        modules = [m for n, m in list(sys.modules.items()) if n == "fup" or n.startswith("fup.")]

        def everywhere(owner, attr, wrapper):
            original = getattr(owner, attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

        def span_everywhere(module_name, attr, name, **opts):
            owner = sys.modules[module_name]
            everywhere(owner, attr, self.wrap(name, getattr(owner, attr), **opts))

        span_everywhere("fup.cantor", "cantor_elements", "cantor.build")
        span_everywhere("fup.cantor", "dilate", "cantor.build")
        span_everywhere("fup.spectral", "masked_norm", "spectral.norm")
        span_everywhere("fup.jacobi", "jacobi_svd", "jacobi.svd",
                        measure=lambda a, kw, r: {"rotations": r.rotations})
        span_everywhere("fup.diophantine", "g_bound", "diophantine.g_bound", alloc=True)
        span_everywhere("fup.diophantine", "sk_estimate", "diophantine.sk_estimate", alloc=True)
        span_everywhere("fup.diophantine", "f1_abs", "diophantine.f1",
                        measure=lambda a, kw, r: {"points": int(np.size(r))})
        span_everywhere("fup.testfn", "z_certificate", "testfn.z_certificate")
        span_everywhere("fup.testfn", "verify_tail_bound", "testfn.tail_bound")
        span_everywhere("fup.testfn", "band_masses", "testfn.band_masses",
                        measure=lambda a, kw, r: {"points": int(np.size(r))})
        span_everywhere("fup.testfn", "convolution_chain", "testfn.chain")
        span_everywhere("fup.baker", "gelfand_bound", "baker.gelfand", measure=_levels)
        span_everywhere("fup.sweep", "run_sweep", "sweep.run")
        for attr in ("write_json", "write_jsonl", "write_csv"):
            span_everywhere("fup.serialize", attr, "serialize.write")
        span_everywhere("fup.svgplot", "emit_plot", "svgplot.emit")

        gram_factory = spectral.masked_gram_apply

        @functools.wraps(gram_factory)
        def masked_gram_apply(X, Y, N):
            apply, dim = gram_factory(X, Y, N)
            return self.wrap("spectral.gram_matvec", apply,
                             measure=lambda a, kw, r: {"fft_points": 2 * N}), dim

        everywhere(spectral, "masked_gram_apply", masked_gram_apply)
        # the same solver functions serve both layers; the call site decides
        for module, name in ((spectral, "spectral.solver"), (baker, "baker.solver")):
            for attr in ("lanczos_top", "power_top"):
                setattr(module, attr, self.wrap(name, getattr(module, attr), alloc=True))
        for attr in ("apply", "adjoint"):
            setattr(baker.BakerMap, attr, self.wrap("baker.apply", getattr(baker.BakerMap, attr)))
        baker.BakerMap.gram_apply = self.wrap("baker.gram_matvec", baker.BakerMap.gram_apply)
        for command, (runner, cols) in list(sweep._RUNNERS.items()):
            sweep._RUNNERS[command] = (self.wrap("sweep.point", runner), cols)

    # -- results --------------------------------------------------------------

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics from the timed rounds: counts and busy times per
        round (one pass over the workload's reports), per-call medians and
        tails over every call; allocation peaks are the largest of the memory
        round's calls."""
        spans = [s for s in self.spans if s is not None]
        timed = [s for s in spans if isinstance(s[5], int)]
        child_time = {}
        for i, s in enumerate(self.spans):
            if s is not None and isinstance(s[5], int) and s[3] is not None:
                key = (s[3], s[0])
                child_time[key] = child_time.get(key, 0.0) + s[2] - s[1]

        def busy(name, among=timed):
            return sum(s[2] - s[1] for s in among if s[0] == name)

        def calls(name):
            return sum(1 for s in timed if s[0] == name)

        def total(name, key):
            return sum(s[6].get(key, 0) for s in timed if s[0] == name)

        def self_time(name, child):
            return sum(s[2] - s[1] - child_time.get((i, child), 0.0)
                       for i, s in enumerate(self.spans)
                       if s is not None and isinstance(s[5], int) and s[0] == name)

        def peak_mb(*names):
            return max((s[6].get("alloc", 0) for s in spans if s[0] in names), default=0) / MB

        iterated = total("baker.gelfand", "iterated")
        converged = total("baker.gelfand", "converged")
        per_round = {
            "spectral.norm_calls": calls("spectral.norm"),
            "spectral.gram_matvecs": calls("spectral.gram_matvec"),
            "spectral.gram_s": busy("spectral.gram_matvec"),
            "spectral.fft_points": total("spectral.gram_matvec", "fft_points"),
            "spectral.fft_mb": total("spectral.gram_matvec", "fft_points") * 32 / MB,
            "spectral.solver_self_s": self_time("spectral.solver", "spectral.gram_matvec"),
            "jacobi.svd_s": busy("jacobi.svd"),
            "jacobi.rotations": total("jacobi.svd", "rotations"),
            "diophantine.g_bound_s": busy("diophantine.g_bound"),
            "diophantine.f1_points": total("diophantine.f1", "points"),
            "diophantine.sk_estimate_s": busy("diophantine.sk_estimate"),
            "testfn.z_certificate_s": busy("testfn.z_certificate"),
            "testfn.tail_bound_s": busy("testfn.tail_bound"),
            "testfn.band_mass_points": total("testfn.band_masses", "points"),
            "testfn.chain_s": busy("testfn.chain"),
            "baker.apply_calls": calls("baker.apply"),
            "baker.gram_matvecs": calls("baker.gram_matvec"),
            "baker.solver_self_s": self_time("baker.solver", "baker.gram_matvec"),
            "baker.levels_iterated": iterated,
            "baker.levels_converged": converged,
            "baker.levels_shortcut": total("baker.gelfand", "shortcut"),
            "sweep.points": calls("sweep.point"),
            "serialize.write_s": busy("serialize.write"),
            "svgplot.emit_s": busy("svgplot.emit"),
        }
        out = {name: value / rounds for name, value in per_round.items()}
        out["cantor.build_s"] = (busy("cantor.build", [s for s in spans if s[5] == "setup"])
                                 + busy("cantor.build") / rounds)
        out["baker.levels_converged_share"] = converged / iterated if iterated else 0.0
        out["spectral.solver_alloc_peak_mb"] = peak_mb("spectral.solver")
        out["baker.solver_alloc_peak_mb"] = peak_mb("baker.solver")
        out["diophantine.alloc_peak_mb"] = peak_mb("diophantine.g_bound", "diophantine.sk_estimate")
        for span_name, prefix, unit, scale in PER_CALL:
            durations = [(s[2] - s[1]) * scale for s in timed if s[0] == span_name]
            median, tail, pct = tail_summary(durations)
            out[f"{prefix}_{unit}"] = median
            out[f"{prefix}_{unit}_tail"] = tail
            out[f"{prefix}_tail_pct"] = pct
            out[f"{prefix}_samples"] = len(durations)
        return out

    def write(self, path) -> None:
        """One JSON object per span, in the order the calls began."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                if s is None:
                    continue
                name, t0, t1, parent, report, phase, extra = s
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "report": report, "phase": phase,
                                     **extra}) + "\n")


def _levels(args, kwargs, report) -> dict:
    diags = report.diagnostics
    iterated = [d for d in diags if d["source"] == "iteration"]
    return {"iterated": len(iterated), "converged": sum(d["converged"] for d in iterated),
            "shortcut": len(diags) - len(iterated)}


def tail_summary(values) -> tuple[float, float, float]:
    """(median, highest percentile with at least ten samples beyond it, that
    percentile). Below forty samples the tail is the median itself."""
    if not values:
        return 0.0, 0.0, 0.0
    arr = np.asarray(values)
    median = float(np.median(arr))
    for pct in TAIL_PERCENTILES:
        if arr.size * (1 - pct / 100) >= 10:
            return median, float(np.percentile(arr, pct)), pct
    return median, median, 50.0
