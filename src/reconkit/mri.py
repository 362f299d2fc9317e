"""Multicoil accelerated-MRI forward model and its adjoint.

The forward operator maps a complex image x through coil sensitivities,
a centered orthonormal FFT and a binary sampling mask:

    A(x)  = mask * fft2c(maps * x)        (per coil)
    A*(y) = sum_i conj(maps_i) * ifft2c(mask * y_i)

:class:`SenseOperator` is the one implementation.  It is built once per
record and keeps k-space at the sampled positions only: ``sample(x)`` is
A(x) there, a ``(coils, n_kept)`` array, ``adjoint(v)`` scatters such an
array into a zero coil stack and runs A*, and ``take(y)`` picks a full-grid
stack's sampled entries.  The centring is run as ``fourier`` states it, as
two phase ramps around a plain FFT, with the ramps folded into products
the operator makes anyway: the image ramp multiplies the (h, w) image (not
the coil stack), the k-space ramp the sampled entries, and the FFT runs in
place on the coil stack the call has just made:

    sample(x)  = k_ramp[kept] * fft2(maps * (img_ramp * x))[:, kept]
    adjoint(v) = conj(img_ramp) * sum_i conj(maps_i) * ifft2(scatter(conj(k_ramp[kept]) * v_i))

The sampled entries have the bits of the full-grid products, in the same
operand order, and at even sizes those of the roll form; the result dtype
is numpy's promotion of the operands, as for the plain expressions above.

With sensitivity maps normalized so that sum_i |S_i|^2 == 1 everywhere, the
pair is an exact adjoint pair and ``A*(A(x)) == x`` under full sampling.
``forward_op``, ``adjoint_op`` and ``loglik_gradient`` (the data-fidelity
gradient A*(A(x) - y)) are full-grid wrappers for one-off calls, each over
an operator built for the call.  The CS baseline and the networks build one
operator per record and keep the measurements and residuals on the sampled
entries; the networks put it on the autodiff tape as ``autodiff.linear``
nodes, and their image-space soft DC x - d * A*(A(x) - y) is checked
against ``soft_dc_kspace``, the k-space rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .fourier import centring_ramps
from .schema import Seed, read_value
# not used here: acceptance criterion 4 and the benchmark's layer tracer read the
# centred FFT pair as mri.fft2c / mri.ifft2c
from .fourier import fft2c, ifft2c  # noqa: F401


class DimensionError(ValueError):
    """Shapes of image / maps / mask / k-space do not agree."""


@dataclass
class SamplingMask:
    """Binary k-space selection pattern plus generation metadata."""

    keep: np.ndarray                      # (h, w) of {0, 1}, float or bool
    kind: str = "full"                    # gaussian2d | equidistant1d | poisson2d | full
    requested_acceleration: float = 1.0
    seed: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        self.keep = _checked_keep(self.keep)

    @property
    def n_kept(self) -> int:
        return int(np.count_nonzero(self.keep))

    @property
    def achieved_acceleration(self) -> float:
        return self.keep.size / self.n_kept


def _checked_keep(keep) -> np.ndarray:
    """`keep` as an array, held to a mask's rule: 2D, only 0 and 1, at least one sample."""
    keep = np.asarray(keep)
    if keep.ndim != 2:
        raise DimensionError(f"mask must be 2D, got shape {keep.shape}")
    # a keep outside {0, 1} (2.0, NaN) breaks ||A|| <= 1, which CS's unit step relies on, and
    # the operator reads a mask only through its nonzero positions
    if not ((keep == 0) | (keep == 1)).all():
        raise ValueError("mask keep must hold only 0 and 1")
    if not keep.any():
        raise ValueError("mask keeps no samples")
    return keep


def _mask_array(mask) -> np.ndarray:
    """The keep array of a SamplingMask, or a raw array held to the same rule."""
    if isinstance(mask, SamplingMask):
        return mask.keep
    return _checked_keep(mask)


def _check_maps(maps: np.ndarray) -> np.ndarray:
    maps = np.asarray(maps)
    if maps.ndim != 3 or len(maps) < 1:
        raise DimensionError(f"sensitivity maps must be (coils, h, w) with at least one coil, "
                             f"got {maps.shape}")
    return maps


def expand(x: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Image -> per-coil image stack, coil i = maps_i * x."""
    x = np.asarray(x)
    maps = _check_maps(maps)
    if x.shape != maps.shape[1:]:
        raise DimensionError(f"image {x.shape} does not match maps {maps.shape}")
    return maps * x[None, :, :]


def reduce(stack: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Per-coil image stack -> image, sum_i conj(maps_i) * stack_i."""
    stack = np.asarray(stack)
    maps = _check_maps(maps)
    if stack.shape != maps.shape:
        raise DimensionError(f"stack {stack.shape} does not match maps {maps.shape}")
    return np.sum(np.conjugate(maps) * stack, axis=0)


def _times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b, a the left operand, written over b when b already has the product's dtype.

    numpy's complex multiply is not bitwise commutative, so the operators
    keep the operand order of the plain expressions in the module docstring.
    """
    return np.multiply(a, b, out=b if np.result_type(a, b) == b.dtype else None)


class SenseOperator:
    """A and A* of one record's maps and mask, with k-space kept at the sampled positions only.

    Holds the maps, the image ramp, the flat indices of the sampled positions
    and the k-space ramp there, as ``mask * k_ramp`` and ``mask * conj(k_ramp)``
    (the bits of the full-grid products at those positions).  The ramps are
    in the maps' complex dtype, so an image of the maps' precision is
    transformed in it, and the mask promotes only the k-space products, as
    in the plain expressions.  The conjugate maps are formed a coil at a
    time in each adjoint: held, they would add a coil stack to the peak of
    a one-off ``adjoint_op`` call.
    """

    def __init__(self, maps: np.ndarray, mask):
        self.maps = _check_maps(maps)
        m = _mask_array(mask)
        if m.shape != self.maps.shape[1:]:
            raise DimensionError(f"mask {m.shape} does not match maps {self.maps.shape}")
        self.img_ramp, k_ramp = centring_ramps(*m.shape, np.result_type(self.maps, np.complex64))
        self.kept = np.flatnonzero(m != 0)      # numpy finds a bool array's nonzeros fastest
        m, k_ramp = m.ravel()[self.kept], k_ramp.ravel()[self.kept]
        self.k_ramp, self.conj_k_ramp = m * k_ramp, m * np.conjugate(k_ramp)

    def take(self, y: np.ndarray) -> np.ndarray:
        """The sampled entries of a full-grid coil stack, as a (coils, n_kept) array."""
        y = np.asarray(y)
        if y.shape != self.maps.shape:
            raise DimensionError(f"k-space {y.shape} does not match maps {self.maps.shape}")
        return np.take(y.reshape(len(y), -1), self.kept, axis=1)

    def sample(self, x: np.ndarray) -> np.ndarray:
        """A(x) at the sampled positions, as a (coils, n_kept) array."""
        x = np.asarray(x)
        if x.shape != self.maps.shape[1:]:
            raise DimensionError(f"image {x.shape} does not match maps {self.maps.shape}")
        k = scipy.fft.fft2(self.maps * (self.img_ramp * x)[None], axes=(-2, -1), norm="ortho",
                           overwrite_x=True)
        return _times(self.k_ramp, np.take(k.reshape(len(k), -1), self.kept, axis=1))

    def residual(self, x: np.ndarray, y_kept: np.ndarray) -> np.ndarray:
        """A(x) - y at the sampled positions, `y_kept` as `take` gives it."""
        r = self.sample(x)
        return np.subtract(r, y_kept, out=r if np.result_type(r, y_kept) == r.dtype else None)

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """A*(v) of the sampled entries `v`, a (coils, n_kept) array."""
        v = np.asarray(v)
        if v.shape != (len(self.maps), self.kept.size):
            raise DimensionError(f"sampled k-space {v.shape} does not match "
                                 f"{(len(self.maps), self.kept.size)}")
        stack = scipy.fft.ifft2(self._scatter(self.conj_k_ramp * v), axes=(-2, -1),
                                norm="ortho", overwrite_x=True)
        # coil by coil, the order in which np.sum(axis=0) adds
        x = np.conjugate(self.maps[0]) * stack[0]
        for i in range(1, len(stack)):
            x += _times(np.conjugate(self.maps[i]), stack[i])
        return np.multiply(np.conjugate(self.img_ramp), x, out=x)

    def _scatter(self, v: np.ndarray) -> np.ndarray:
        """A zero coil stack holding `v` at the sampled positions."""
        stack = np.zeros(self.maps.shape, v.dtype)
        for coil, values in zip(stack.reshape(len(stack), -1), v):
            coil[self.kept] = values      # one 1D scatter per coil: the fast and lean form
        return stack


def forward_op(x: np.ndarray, maps: np.ndarray, mask) -> np.ndarray:
    """A(x): masked per-coil k-space of a complex image, zero where the mask is."""
    op = SenseOperator(maps, mask)
    return op._scatter(op.sample(x))


def adjoint_op(y: np.ndarray, maps: np.ndarray, mask) -> np.ndarray:
    """A*(y): coil-combined image of masked k-space."""
    op = SenseOperator(maps, mask)
    return op.adjoint(op.take(y))


def add_noise(y: np.ndarray, sigma: float, mask, seed: int) -> np.ndarray:
    """Add iid complex Gaussian noise (std sigma) at sampled positions only."""
    read_value(Seed, seed, "seed", ValueError)
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma (the noise level) must be finite and non-negative, got {sigma}")
    y = np.asarray(y)
    if sigma == 0:
        return y.copy()
    m = _mask_array(mask)
    if y.shape[1:] != m.shape:
        raise DimensionError(f"k-space {y.shape} does not match mask {m.shape}")
    at = np.flatnonzero(m != 0)      # numpy finds a bool array's nonzeros fastest
    scale = sigma / np.sqrt(2.0)
    # drawn over the whole grid, real parts then imaginary, so the noise at a
    # position does not depend on the mask
    re, im = np.random.default_rng(seed).standard_normal((2, *y.shape)).reshape(2, len(y), -1)
    out = y.copy()
    flat = out.reshape(len(y), -1)
    flat[:, at] = flat[:, at] + scale * (re[:, at] + 1j * im[:, at])
    return out


def soft_dc_kspace(k: np.ndarray, y: np.ndarray, mask, d: float) -> np.ndarray:
    """Soft replacement of sampled k-space positions: k - d*mask*(k - y).

    d = 0 leaves k untouched; d = 1 hard-replaces sampled positions by the
    measurements.
    """
    m = _mask_array(mask)
    return k - d * (m[None, :, :] * (k - y))


def loglik_gradient(x: np.ndarray, y: np.ndarray, maps: np.ndarray, mask) -> np.ndarray:
    """A*(A(x) - y): the gradient of 0.5 * sum_i ||A(x) - y_i||^2 with respect to x.

    The 1/sigma^2 likelihood weighting is left to the caller (the networks
    absorb it into their learned updates).
    """
    op = SenseOperator(maps, mask)
    return op.adjoint(op.residual(x, op.take(y)))
