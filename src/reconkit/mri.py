"""Multicoil accelerated-MRI forward model and its adjoint.

The forward operator maps a complex image x through coil sensitivities,
a centered orthonormal FFT and a binary sampling mask:

    forward_op(x) = mask * fft2c(maps * x)        (per coil)
    adjoint_op(y) = sum_i conj(maps_i) * ifft2c(mask * y_i)

The operators run the centring as ``fourier`` states it, as two phase
ramps around a plain FFT, and fold the ramps into products they make
anyway: the image ramp multiplies the (h, w) image (not the coil stack), the
k-space ramp the mask, and the FFT runs in place on the coil stack the call
has just made, so no ``fftshift`` copy is left:

    forward_op(x) = (mask * k_ramp) * fft2(maps * (img_ramp * x))
    adjoint_op(y) = conj(img_ramp) * sum_i conj(maps_i) * ifft2((mask * conj(k_ramp)) * y_i)

At even sizes the values are bitwise those of the roll form (only the sign
of a zero at an unsampled k-space position can differ); the result dtype is
numpy's promotion of the operands, as for the plain expressions above.

With sensitivity maps normalized so that sum_i |S_i|^2 == 1 everywhere, the
pair is an exact adjoint pair and ``adjoint_op(forward_op(x)) == x`` under
full sampling.  ``loglik_gradient`` is the data-fidelity gradient
A*(A(x) - y) of the networks' data consistency (the CS baseline keeps its
residuals and runs the two operators itself); the networks' image-space
soft DC is x - d * loglik_gradient(x), and
``soft_dc_kspace`` is the k-space rule it is checked against.  All functions
are pure and operate on plain numpy arrays; the networks put them on the
autodiff tape as single ``autodiff.linear`` nodes.
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
        self.keep = np.asarray(self.keep)
        if self.keep.ndim != 2:
            raise DimensionError(f"mask must be 2D, got shape {self.keep.shape}")
        # a keep outside {0, 1} (2.0, NaN) breaks ||A|| <= 1, which CS's unit step relies on
        if not ((self.keep == 0) | (self.keep == 1)).all():
            raise ValueError("mask keep must hold only 0 and 1")
        if self.keep.sum() < 1:
            raise ValueError("mask keeps no samples")

    @property
    def n_kept(self) -> int:
        return int(np.count_nonzero(self.keep))

    @property
    def achieved_acceleration(self) -> float:
        return self.keep.size / self.n_kept


def _mask_array(mask) -> np.ndarray:
    if isinstance(mask, SamplingMask):
        return mask.keep
    return np.asarray(mask)


def _check_maps(maps: np.ndarray) -> np.ndarray:
    maps = np.asarray(maps)
    if maps.ndim != 3:
        raise DimensionError(f"sensitivity maps must be (coils, h, w), got {maps.shape}")
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


def forward_op(x: np.ndarray, maps: np.ndarray, mask) -> np.ndarray:
    """A(x): masked per-coil k-space of a complex image."""
    x = np.asarray(x)
    maps = _check_maps(maps)
    m = _mask_array(mask)
    if x.shape != maps.shape[1:]:
        raise DimensionError(f"image {x.shape} does not match maps {maps.shape}")
    if m.shape != x.shape:
        raise DimensionError(f"mask {m.shape} does not match image {x.shape}")
    img_ramp, k_ramp = centring_ramps(*x.shape, np.result_type(x, maps, np.complex64))
    k = scipy.fft.fft2(expand(img_ramp * x, maps), axes=(-2, -1), norm="ortho",
                       overwrite_x=True)
    return _times(m * k_ramp, k)


def adjoint_op(y: np.ndarray, maps: np.ndarray, mask) -> np.ndarray:
    """A*(y): coil-combined image of masked k-space."""
    y = np.asarray(y)
    maps = _check_maps(maps)
    m = _mask_array(mask)
    if y.shape != maps.shape:
        raise DimensionError(f"k-space {y.shape} does not match maps {maps.shape}")
    if m.shape != y.shape[1:]:
        raise DimensionError(f"mask {m.shape} does not match k-space {y.shape}")
    img_ramp, k_ramp = centring_ramps(*m.shape, np.result_type(m, y, np.complex64))
    stack = scipy.fft.ifft2((m * np.conjugate(k_ramp)) * y, axes=(-2, -1), norm="ortho",
                            overwrite_x=True)
    x = np.sum(_times(np.conjugate(maps), stack), axis=0)
    return np.multiply(np.conjugate(img_ramp), x, out=x)


def add_noise(y: np.ndarray, sigma: float, mask, seed: int) -> np.ndarray:
    """Add iid complex Gaussian noise (std sigma) at sampled positions only."""
    read_value(Seed, seed, "seed", ValueError)
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma (the noise level) must be finite and non-negative, got {sigma}")
    y = np.asarray(y)
    if sigma == 0:
        return y.copy()
    m = _mask_array(mask).astype(bool)
    rng = np.random.default_rng(seed)
    scale = sigma / np.sqrt(2.0)
    # drawn over the whole grid, so the noise at a position does not depend on the mask
    re, im = rng.standard_normal(y.shape), rng.standard_normal(y.shape)
    out = y.copy()
    out[:, m] = out[:, m] + scale * (re[:, m] + 1j * im[:, m])
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
    k = forward_op(x, maps, mask)
    if k.shape != np.shape(y):
        raise DimensionError(f"k-space {np.shape(y)} does not match prediction {k.shape}")
    return adjoint_op(k - y, maps, mask)
