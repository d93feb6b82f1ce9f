"""Per-layer spans recorded from outside the program.

The tracer replaces each layer's public functions where their caller binds
them (a module attribute, or a copy of a module a caller imported whole)
with a wrapper that records a span: its self time (duration minus the time
of the spans it encloses) and a count.  Spans live in memory; nothing is
written while a run is being traced.  ``Tracer.restore`` undoes every
replacement.
"""

import os
import statistics
import time
import types
from collections import defaultdict

import numpy as np

ROOT_SPAN = "cli.main"

# reported metric -> spans whose self times it sums
SELF_TIME_METRICS = {
    "scene.synthesize_s": ("scene.synthesize",),
    "stft.analyze_s": ("stft.analyze",),
    "stft.synthesize_s": ("stft.synthesize",),
    "wavio.read_s": ("wavio.read",),
    "wavio.write_s": ("wavio.write",),
    "spatial_stats.coherence_s": ("spatial_stats.coherence",),
    "spatial_stats.cues_s": ("spatial_stats.cues", "spatial_stats.cues_csv"),
    "costs.eval_s": ("costs.combined", "costs.hessian"),
    "solver.closed_form_s": ("solver.closed_form",),
    "solver.optimizer_s": ("solver.solve", "solver.bfgs", "solver.calibrate"),
    "metrics.evaluate_s": ("metrics.evaluate",),
    "metrics.apply_s": ("metrics.apply",),
    "metrics.report_s": ("metrics.report",),
    "cli.other_s": (ROOT_SPAN,),
}

# reported metric -> span whose call count it is
CALL_COUNT_METRICS = {
    "costs.evals": "costs.combined",
    "costs.hessians": "costs.hessian",
    "solver.solves": "solver.solve",
    "solver.bfgs_runs": "solver.bfgs",
    "spatial_stats.cue_calls": "spatial_stats.cues",
    "metrics.evaluate_calls": "metrics.evaluate",
}

# counters the wrappers update from arguments and results
COUNTERS = ("scene.tensor_bytes", "stft.frames", "wavio.bytes_written",
            "solver.iterations", "solver.calibration_probes",
            "solver.penalized_bins", "solver.converged_bins")


class Tracer:
    """Span stack, self times and counters of the runs traced since ``reset``."""

    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self._stack = []  # [name, start, time covered by child spans]
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = dict.fromkeys(COUNTERS, 0)

    def count(self, name, amount=1):
        self.counters[name] += amount

    def in_span(self, name):
        return any(frame[0] == name for frame in self._stack)

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[1]
            self._stack.pop()
            self.self_time[name] += duration - frame[2]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += duration

    def wrapped(self, name, fn, after=None):
        """``fn`` recording a span; ``after(args, result)`` updates counters."""

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` with its traced form."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrapped(name, original, after))

    def rebind_module(self, owner, attr, spans):
        """Give ``owner`` its own copy of the module it binds as ``attr``.

        ``spans`` maps function names to span names; only the copy's
        functions are traced, so calls inside the module stay untraced.
        """
        module = getattr(owner, attr)
        copy = types.ModuleType(module.__name__)
        copy.__dict__.update(module.__dict__)
        for fn_name, span in spans.items():
            after = None
            if isinstance(span, tuple):
                span, after = span
            setattr(copy, fn_name, self.wrapped(span, getattr(module, fn_name), after))
        self._patches.append((owner, attr, module))
        setattr(owner, attr, copy)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self):
        """Trace every layer boundary of a ``process`` run."""
        from binaural_mwf import cli, metrics, scene, solver

        count = self.count

        def scene_bytes(args, result):
            count("scene.tensor_bytes",
                  sum(t.data.nbytes for t in (result.y, result.x, result.v)))

        def analyzed_frames(args, result):
            count("stft.frames", result.data.shape[0] * result.data.shape[1])

        def synthesized_frames(args, result):
            count("stft.frames", args[0].data.shape[0] * args[0].data.shape[1])

        def written_bytes(args, result):
            count("wavio.bytes_written", os.path.getsize(args[0]))

        def solve_outcome(args, result):
            spec, phi = args[0], args[1]
            count("solver.iterations", int(np.sum(result.iterations)))
            if self.in_span("solver.calibrate"):
                count("solver.calibration_probes")
            if spec.variant == "mwf" or spec.alpha == 0.0:
                return
            band = (phi.freqs > 0.0) & (phi.freqs <= spec.cue_cutoff)
            penalized = band & ~result.flagged
            count("solver.penalized_bins", int(np.sum(penalized)))
            count("solver.converged_bins", int(np.sum(penalized & result.converged)))

        self.patch(cli, "synthesize_scene", "scene.synthesize", scene_bytes)
        self.patch(cli, "synthesize", "stft.synthesize", synthesized_frames)
        self.patch(scene, "analyze", "stft.analyze", analyzed_frames)
        self.rebind_module(cli, "wavio", {
            "read_wav": "wavio.read",
            "write_wav": ("wavio.write", written_bytes),
        })
        self.rebind_module(cli, "spatial_stats", {
            "estimate_coherence": "spatial_stats.coherence",
            "cues_to_csv": "spatial_stats.cues_csv",
        })
        self.patch(metrics, "input_cues", "spatial_stats.cues")
        self.patch(metrics, "output_cues", "spatial_stats.cues")
        self.patch(solver, "combined", "costs.combined")
        self.patch(solver, "combined_hessian", "costs.hessian")
        self.patch(solver, "mwf_closed_form", "solver.closed_form")
        self.patch(solver, "minimize_bfgs", "solver.bfgs")
        self.patch(solver, "solve_all_bins", "solver.solve", solve_outcome)
        self.patch(solver, "calibrate_alpha", "solver.calibrate")
        self.rebind_module(solver, "metrics", {"evaluate_filters": "metrics.evaluate"})
        self.rebind_module(cli, "metrics", {
            "evaluate_filters": "metrics.evaluate",
            "apply_filters": "metrics.apply",
            "noise_cue_pair": "metrics.report",
            "input_snr_db": "metrics.report",
            "report_to_json": "metrics.report",
            "write_ic_spectrum_csv": "metrics.report",
        })

    def snapshot(self):
        """(metrics, exact counts) of the runs traced since ``reset``."""
        counts = {name: self.calls[span] for name, span in CALL_COUNT_METRICS.items()}
        counts.update(self.counters)
        out = {name: sum(self.self_time[s] for s in spans)
               for name, spans in SELF_TIME_METRICS.items()}
        out.update(counts)
        evals, penalized = counts["costs.evals"], counts["solver.penalized_bins"]
        out["costs.us_per_eval"] = (
            1e6 * self.self_time["costs.combined"] / evals if evals else 0.0)
        # no penalized bin means nothing could fail to converge
        out["solver.converged_ratio"] = (
            counts["solver.converged_bins"] / penalized if penalized else 1.0)
        out["scene.tensor_mb"] = counts["scene.tensor_bytes"] / 1e6
        return out, counts

    def span_calls(self):
        return sum(self.calls.values())


def per_call_overhead(repeats=20000):
    """Seconds a traced call costs more than a direct one (median of 5)."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrapped("noop", noop)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        t1 = time.perf_counter()
        for _ in range(repeats):
            traced()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / repeats)
    return statistics.median(samples)
