"""Span recorder for the traced benchmark run.

The tracer wraps the functions through which one interpcomp module calls the
next.  Each wrapper replaces a module (or class) attribute in the *calling*
module, so it sees exactly the calls that cross that boundary, and records
one span per call: layer, kind, start, end and parent.  Every numpy.fft
transform is counted as well.  ``installed()`` puts the wrappers in place and
always restores the original attributes; nothing under ``src/`` is edited.

A span's self time is its duration minus the durations of its direct
children.  Summed over all spans of a pass, self times add up to the root
span, so the per-layer self times account for the traced pass time.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


# (owner, attribute, layer, kind).  The owner is the interpcomp module (or a
# class in it) whose code makes the call, so each entry sits on one module
# boundary.  imagebench.enlarge is listed because psnr_benchmark reaches it
# through its own module.  An owner or attribute the program no longer has
# is skipped and reported, so the traced run survives refactors.
BOUNDARIES = [
    ("solver", "_interp_axis", "samplers", "interp"),
    ("modular", "interpolate", "samplers", "interp"),
    ("modular", "interpolate2d", "samplers", "interp"),
    ("imagebench", "interpolate2d", "samplers", "interp"),
    ("solver", "_mix_axis", "modular", "mix"),
    ("solver", "modular_reconstruct", "modular", "mix"),
    ("solver", "modular_reconstruct2d", "modular", "mix"),
    ("solver", "lowpass_array", "spectral", "lowpass"),
    ("modular", "lowpass_array", "spectral", "lowpass"),
    ("solver", "snr_db", "signal_core", "snr"),
    ("solver", "image_snr_db", "signal_core", "snr"),
    ("cli", "gen_bandlimited", "signal_core", "gen"),
    ("cli", "gen_bandlimited2d", "signal_core", "gen"),
    ("cli", "add_awgn", "signal_core", "gen"),
    ("cli", "add_awgn2d", "signal_core", "gen"),
    ("imagebench", "psnr_db", "signal_core", "psnr"),
    ("cli", "iterate", "solver", "solve"),
    ("cli", "iterate2d", "solver", "solve"),
    ("imagebench", "iterate2d", "solver", "solve"),
    ("solver.ReconOperator", "apply_values", "solver", "op"),
    ("solver.ReconOperator2D", "apply_values", "solver", "op"),
    ("cli", "read_pgm", "imagebench", "read"),
    ("cli", "write_pgm", "imagebench", "write"),
    ("cli", "enlarge", "imagebench", "enlarge"),
    ("imagebench", "enlarge", "imagebench", "enlarge"),
    ("cli", "main", "cli", "main"),
]

FFT_TRANSFORMS = (
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2",
    "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn",
)

# name -> unit of every per-layer metric, in report order.  Self times ("_s")
# of all layers plus cli.self_s and bench.self_s sum to trace.pass_s.
LAYER_METRICS = {
    "solver.op_apps": "count",
    "solver.solves": "count",
    "solver.s_per_op_app": "s",
    "solver.loop_s": "s",
    "solver.iters_to_100db.m0": "iter",
    "solver.iters_to_100db.m1": "iter",
    "solver.iters_to_100db.m2": "iter",
    "samplers.interp_calls": "count",
    "samplers.interp_s": "s",
    "samplers.fine_points": "count",
    "modular.mix_calls": "count",
    "modular.mix_s": "s",
    "spectral.lowpass_calls": "count",
    "spectral.lowpass_s": "s",
    "spectral.fft_calls": "count",
    "spectral.fft_points": "count",
    "spectral.bytes_computed": "B",
    "signal_core.snr_calls": "count",
    "signal_core.snr_s": "s",
    "signal_core.gen_s": "s",
    "signal_core.psnr_s": "s",
    "imagebench.read_s": "s",
    "imagebench.read_bytes": "B",
    "imagebench.write_s": "s",
    "imagebench.write_bytes": "B",
    "imagebench.enlarge_calls": "count",
    "imagebench.enlarge_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}

SELF_TIME_METRICS = [
    "solver.loop_s", "samplers.interp_s", "modular.mix_s", "spectral.lowpass_s",
    "signal_core.snr_s", "signal_core.gen_s", "signal_core.psnr_s",
    "imagebench.read_s", "imagebench.write_s", "imagebench.enlarge_s",
    "cli.self_s", "bench.self_s",
]


def _size(result) -> int:
    return int(np.size(getattr(result, "values", result)))


# Counters filled from a call's arguments and result, after its span closed.
AFTER = {
    "interp": lambda counts, args, result: counts.update(
        {"samplers.fine_points": _size(result)}),
    "solve": lambda counts, args, result: counts.update(
        {"solver.op_apps": result.operator_applications}),
    "read": lambda counts, args, result: counts.update(
        {"imagebench.read_bytes": os.path.getsize(args[0])}),
    "write": lambda counts, args, result: counts.update(
        {"imagebench.write_bytes": os.path.getsize(args[1])}),
}


class Tracer:
    """Spans and counters of one traced pass; ``reset()`` starts the next."""

    def __init__(self):
        self.missing = []  # boundaries absent from the program, set by installed()
        self.reset()

    def reset(self):
        self.spans = []  # [layer, kind, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()

    def _open(self, layer, kind):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([layer, kind, perf_counter(), 0.0, parent])

    def _close(self):
        self.spans[self.stack.pop()][3] = perf_counter()

    @contextmanager
    def span(self, layer, kind):
        self._open(layer, kind)
        try:
            yield
        finally:
            self._close()

    def _wrap(self, fn, layer, kind):
        after = AFTER.get(kind)

        def traced(*args, **kwargs):
            self._open(layer, kind)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    def _count_fft(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            arr = np.asarray(args[0])
            self.counts["spectral.fft_calls"] += 1
            self.counts["spectral.fft_points"] += max(arr.size, result.size)
            self.counts["spectral.bytes_computed"] += arr.nbytes + result.nbytes
            return result

        return counted

    @staticmethod
    def resolve(owner):
        """The interpcomp module or class named by ``owner``, or None if absent."""
        module, _, cls = owner.partition(".")
        try:
            obj = importlib.import_module(f"interpcomp.{module}")
        except ImportError:
            return None
        return getattr(obj, cls, None) if cls else obj

    @contextmanager
    def installed(self):
        """Wrap every boundary present; always restore the originals on exit."""
        wrappers, self.missing = [], []
        for owner, attr, layer, kind in BOUNDARIES:
            obj = self.resolve(owner)
            if obj is None or not hasattr(obj, attr):
                self.missing.append(f"{owner}.{attr}")
            else:
                wrappers.append((obj, attr, self._wrap(getattr(obj, attr), layer, kind)))
        for name in FFT_TRANSFORMS:
            if hasattr(np.fft, name):
                wrappers.append((np.fft, name, self._count_fft(getattr(np.fft, name))))
        originals = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in wrappers]
        try:
            for obj, attr, wrapper in wrappers:
                setattr(obj, attr, wrapper)
            yield self
        finally:
            for obj, attr, fn in originals:
                setattr(obj, attr, fn)

    def metrics(self) -> dict:
        """Per-layer numbers of the spans recorded since the last reset."""
        duration = [end - start for _, _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for i, (_, _, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += duration[i]
        calls, self_s, incl_s = Counter(), Counter(), Counter()
        for i, (layer, kind, _, _, _) in enumerate(self.spans):
            key = f"{layer}.{kind}"
            calls[key] += 1
            self_s[key] += duration[i] - child_time[i]
            incl_s[key] += duration[i]
        op_calls = calls["solver.op"]
        return {
            "solver.op_apps": self.counts["solver.op_apps"],
            "solver.solves": calls["solver.solve"],
            "solver.s_per_op_app": incl_s["solver.op"] / op_calls if op_calls else 0.0,
            "solver.loop_s": self_s["solver.solve"] + self_s["solver.op"],
            "samplers.interp_calls": calls["samplers.interp"],
            "samplers.interp_s": self_s["samplers.interp"],
            "samplers.fine_points": self.counts["samplers.fine_points"],
            "modular.mix_calls": calls["modular.mix"],
            "modular.mix_s": self_s["modular.mix"],
            "spectral.lowpass_calls": calls["spectral.lowpass"],
            "spectral.lowpass_s": self_s["spectral.lowpass"],
            "spectral.fft_calls": self.counts["spectral.fft_calls"],
            "spectral.fft_points": self.counts["spectral.fft_points"],
            "spectral.bytes_computed": self.counts["spectral.bytes_computed"],
            "signal_core.snr_calls": calls["signal_core.snr"],
            "signal_core.snr_s": self_s["signal_core.snr"],
            "signal_core.gen_s": self_s["signal_core.gen"],
            "signal_core.psnr_s": self_s["signal_core.psnr"],
            "imagebench.read_s": self_s["imagebench.read"],
            "imagebench.read_bytes": self.counts["imagebench.read_bytes"],
            "imagebench.write_s": self_s["imagebench.write"],
            "imagebench.write_bytes": self.counts["imagebench.write_bytes"],
            "imagebench.enlarge_calls": calls["imagebench.enlarge"],
            "imagebench.enlarge_s": self_s["imagebench.enlarge"],
            "cli.self_s": self_s["cli.main"],
            "bench.self_s": self_s["bench.pass"],
            "trace.pass_s": incl_s["bench.pass"],
        }
