"""Host-speed calibration: a fixed piece of work timed next to every op.

On a shared host the same op's wall time moves by 15-35% with the load of
other tenants, in spells that last from seconds to minutes, so a run's wall
times say as much about the hour as about the program.  The calibration
kernel does the kinds of work the workloads do -- a float32 matrix product
of the shape ``autodiff.conv2d`` multiplies, complex 2-D FFTs of a 4-coil
image, elementwise float64 arithmetic and a Python loop over small-array
operations like Poisson-disc dart throwing -- on fixed inputs, without
calling reconkit.  It slows down and speeds up with the host, never with
the program.

An op's wall time divided by the kernel's time measured around it is the
op's cost in kernel units; times ``REFERENCE_S`` it reads as the op's time
at the reference speed, the speed at which the kernel takes
``REFERENCE_S``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.004     # about the kernel's time on the 2-vCPU host the benchmark was tuned on
NEIGHBOURS = 3          # measurements on each side of a part that its factor's median takes

_rng = np.random.default_rng(20211130)
_WEIGHT = _rng.random((16, 16 * 9), dtype=np.float32)          # conv2d's GEMM: 16 channels, 3x3
# im2col columns in blocks small enough that OpenBLAS keeps each product on
# the calling thread: waking its worker threads costs a scheduler tick that
# depends on how long they slept, not on the host's speed
_COLS = [_rng.random((16 * 9, 256), dtype=np.float32) for _ in range(16)]
_KSPACE = _rng.random((4, 64, 64)) + 1j * _rng.random((4, 64, 64))
_FIELD = _rng.random((16, 64, 64))
_GRID = _rng.random((64, 64)) < 0.1                             # points of a sparse mask
_PROBES = [(int(y), int(x)) for y, x in _rng.integers(0, 64, (40, 2))]


def _kernel() -> None:
    for _ in range(2):
        for col in _COLS:
            _WEIGHT @ col
        np.fft.ifft2(np.fft.fft2(_KSPACE, norm="ortho"), norm="ortho")
        np.tanh(_FIELD * 0.5 + _FIELD)
        for py, px in _PROBES:          # small-array work in a Python loop, as dart throwing does
            y0, x0 = max(0, py - 3), max(0, px - 3)
            sub = _GRID[y0:py + 4, x0:px + 4]
            if sub.any():
                qy, qx = np.nonzero(sub)
                np.any((qy + y0 - py) ** 2 + (qx + x0 - px) ** 2 < 4.0)


def kernel_seconds(repeats: int) -> float:
    """Median wall time of ``repeats`` back-to-back runs of the kernel."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return float(np.median(times))


def factors(kernel_s: list) -> list:
    """Per timed part, the factor that turns its wall time into time at the reference speed.

    ``kernel_s`` holds the kernel time measured just before each part, in
    order.  A part's factor is ``REFERENCE_S`` over the median of its own
    measurement and the ``NEIGHBOURS`` on each side: one measurement lasts
    about 10-20 ms and catches the host in a fast or a slow moment, while the
    part it precedes lasts 150-500 ms; the median over a few seconds follows
    the spells of load and drops the moments.
    """
    n = len(kernel_s)
    return [REFERENCE_S / float(np.median(kernel_s[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1]))
            for i in range(n)]
