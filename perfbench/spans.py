"""Span tracing of reconkit's layers, installed from outside the package.

A :class:`Tracer` replaces the public functions listed in :data:`LAYERS` with
wrappers that record one span per call (name, start, end, parent span, op id
and an optional count) and puts the originals back on :meth:`Tracer.uninstall`.
Spans stay in memory until :meth:`Tracer.write` dumps them as JSON lines.
Self time is a span's duration minus the durations of its direct children;
calls nest strictly on the single benchmark thread, so children never overlap.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from reconkit import autodiff, baselines, containers, fourier, metrics, mri, networks
from reconkit import phantom, sampling, training


def _shape(a):
    return np.shape(getattr(a, "data", a))


def _conv2d_gflop(args, kwargs, result):
    """2*c_out*c_in*k*k*h*w, computed from the argument shapes."""
    _, h, w = _shape(args[0])
    c_out, c_in, k, _ = _shape(args[1])
    return 2.0 * c_out * c_in * k * k * h * w / 1e9


def _tape_records(args, kwargs, result):
    return len(args[0].tape)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


# (owner, attribute, span name, count taken from the call or None).  mri
# imported fft2c/ifft2c by name, so those copies are wrapped under the
# reconkit.fourier span names as well.
LAYERS = [
    (autodiff, "conv2d", "autodiff.conv2d", _conv2d_gflop),
    (autodiff, "backward", "autodiff.backward", _tape_records),
    (fourier, "fft2c", "fourier.fft2c", None),
    (fourier, "ifft2c", "fourier.ifft2c", None),
    (mri, "fft2c", "fourier.fft2c", None),
    (mri, "ifft2c", "fourier.ifft2c", None),
    (mri, "forward_op", "mri.forward_op", None),
    (mri, "adjoint_op", "mri.adjoint_op", None),
    (networks.CirimModel, "forward", "networks.CirimModel.forward", None),
    (networks, "rim_block", "networks.rim_block", None),
    (baselines, "cs_l1wavelet", "baselines.cs_l1wavelet", None),
    (baselines, "wavelet2", "baselines.wavelet2", None),
    (baselines, "iwavelet2", "baselines.iwavelet2", None),
    (metrics, "ssim", "metrics.ssim", None),
    (metrics, "psnr", "metrics.psnr", None),
    (metrics, "contrast_resolution", "metrics.contrast_resolution", None),
    (metrics, "wm_noise", "metrics.wm_noise", None),
    (metrics, "bg_noise", "metrics.bg_noise", None),
    (metrics, "snr", "metrics.snr", None),
    (training, "adam_step", "training.adam_step", None),
    (training, "validation_score", "training.validation_score", None),
    (sampling, "poisson2d_mask", "sampling.poisson2d_mask", None),
    (phantom, "make_phantom", "phantom.make_phantom", None),
    (phantom, "simulate_acquisition", "phantom.simulate_acquisition", None),
    (containers, "write_record", "containers.write_record", _file_bytes),
    (containers, "read_record", "containers.read_record", _file_bytes),
    (containers, "load_checkpoint", "containers.load_checkpoint", None),
]

OP = "op"            # name of the root span of each timed op
SETUP = "setup"      # op id of spans recorded during the traced set-up


class Tracer:
    """In-memory span recorder.  Each span is [name, start, end, parent, op, count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None               # id of the op in progress; None between ops
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for owner, attr, name, count in LAYERS:
            inner = getattr(owner, attr)
            self._saved.append((owner, attr, inner))
            setattr(owner, attr, self._wrap(inner, name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, inner = self._saved.pop()
            setattr(owner, attr, inner)

    def _wrap(self, inner, name, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        traced.__name__ = getattr(inner, "__name__", name)
        traced.__doc__ = inner.__doc__
        return traced

    def begin_op(self, op) -> None:
        """Open the root span of one op; layer calls until end_op become its children."""
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append([OP, perf_counter(), 0.0, None, op, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()
        self.op = None

    def add_root(self, op, start: float, end: float) -> None:
        """Root span built after the fact (train ops end at an optimizer step)."""
        self.spans.append([OP, start, end, None, op, None])

    def write(self, path) -> None:
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            for i, (name, start, end, parent, op, count) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                    "end": end - t0, "parent": parent, "op": op,
                                    "count": count}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Layer spans opened outside any root span (train ops are closed after the
    fact) are charged to the root span of the same op.
    """
    roots = {s[4]: i for i, s in enumerate(spans) if s[0] == OP}
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        parent = s[3]
        if parent is None and s[0] != OP:
            parent = roots.get(s[4])
        if parent is not None:
            out[parent] -= s[2] - s[1]
    return out


def summarize(spans: list[list], n_ops: int) -> tuple[dict, dict]:
    """Per-name totals of "calls", "ms", "self_ms" and "count".

    Returns the totals over the timed ops divided by the op count, and the
    totals over the traced set-up.  Spans of the untimed output checks
    (op None) are left out.
    """
    selfs = self_times(spans)
    per_op = defaultdict(lambda: {"calls": 0.0, "ms": 0.0, "self_ms": 0.0, "count": 0.0})
    setup = defaultdict(lambda: {"calls": 0.0, "ms": 0.0, "self_ms": 0.0, "count": 0.0})
    for (name, start, end, _parent, op, count), self_s in zip(spans, selfs):
        if op is None:
            continue
        acc = (setup if op == SETUP else per_op)[name]
        acc["calls"] += 1
        acc["ms"] += (end - start) * 1e3
        acc["self_ms"] += self_s * 1e3
        acc["count"] += count or 0.0
    n = max(1, n_ops)
    return {name: {k: v / n for k, v in acc.items()} for name, acc in per_op.items()}, dict(setup)


def cs_iterations(spans: list[list]) -> float:
    """Mean FISTA iterations per CS solve.

    A solve evaluates the objective once before the loop and once per
    iteration, and takes one gradient per iteration: 1 + 2*iterations
    forward operator calls.
    """
    n_fwd: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[0] == "baselines.cs_l1wavelet" and s[4] is not None and s[4] != SETUP:
            n_fwd[i] = 0
    for s in spans:
        if s[0] == "mri.forward_op" and s[3] in n_fwd:
            n_fwd[s[3]] += 1
    if not n_fwd:
        return 0.0
    return float(np.mean([(n - 1) / 2.0 for n in n_fwd.values()]))
