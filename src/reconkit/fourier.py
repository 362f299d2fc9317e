"""Centered, orthonormal 2D Fourier transforms.

Convention used everywhere in this package: the DC sample sits at grid index
(h // 2, w // 2) and both directions carry 1/sqrt(n) scaling, so the pair is
unitary: ``ifft2c(fft2c(x)) == x`` to machine precision and L2 norms are
preserved.  Both functions operate on the last two axes, which lets a
multicoil stack (coils, h, w) go through unchanged.  scipy's FFT backend is
used because it preserves single precision.

The centring is not a pair of ``fftshift`` copies but the DFT shift theorem:
a centred DFT is the plain DFT between two diagonal phase ramps,

    fft2c(v)  = k_ramp * fft2(img_ramp * v)
    ifft2c(k) = conj(img_ramp) * ifft2(conj(k_ramp) * k)

where, per axis of length n with c = n // 2, the image ramp is
exp(2*pi*i*j*c/n) and the k-space ramp is that ramp times exp(-2*pi*i*c**2/n).
For even n both are exact +-1 checkerboards (the constant is -1 when
n % 4 == 2), so even sizes give the same bits as the roll form.
:func:`centring_ramps` is the one implementation; ``mri`` folds the ramps
into its operators' own products.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.fft


def _axis_ramps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The image and k-space ramps of one axis of length n."""
    c = n // 2
    j = np.arange(n)
    p_img, p_k = (j * c) % n, (j * c - c * c) % n   # phases in units of 2*pi/n
    if n % 2 == 0:   # every phase is 0 or n/2: an exact +-1
        return 1 - 2 * (p_img > 0), 1 - 2 * (p_k > 0)
    return np.exp(2j * np.pi * p_img / n), np.exp(2j * np.pi * p_k / n)


@lru_cache(maxsize=16)
def centring_ramps(h: int, w: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The (h, w) image and k-space ramps of the centred DFT, in complex `dtype`.

    Read-only, because every caller shares the cached arrays.
    """
    (img_h, k_h), (img_w, k_w) = _axis_ramps(h), _axis_ramps(w)
    ramps = np.outer(img_h, img_w).astype(dtype), np.outer(k_h, k_w).astype(dtype)
    for r in ramps:
        r.setflags(write=False)
    return ramps


def _complex_dtype(x: np.ndarray) -> np.dtype:
    """The dtype scipy's FFT gives x: float and complex keep their precision, all else is float64."""
    return np.result_type(x.dtype if x.dtype.kind in "fc" else np.float64, np.complex64)


def _checked(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError(f"{name} expects a 2D grid (or a stack of them), got shape {x.shape}")
    return x


def fft2c(x: np.ndarray) -> np.ndarray:
    """Centered orthonormal 2D FFT over the last two axes."""
    x = _checked(x, "fft2c")
    img_ramp, k_ramp = centring_ramps(*x.shape[-2:], _complex_dtype(x))
    k = scipy.fft.fft2(img_ramp * x, axes=(-2, -1), norm="ortho", overwrite_x=True)
    return np.multiply(k_ramp, k, out=k)


def ifft2c(k: np.ndarray) -> np.ndarray:
    """Inverse (and adjoint) of :func:`fft2c`."""
    k = _checked(k, "ifft2c")
    img_ramp, k_ramp = centring_ramps(*k.shape[-2:], _complex_dtype(k))
    x = scipy.fft.ifft2(np.conjugate(k_ramp) * k, axes=(-2, -1), norm="ortho", overwrite_x=True)
    return np.multiply(np.conjugate(img_ramp), x, out=x)
