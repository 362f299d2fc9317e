"""Non-learned reconstructions: zero-filled adjoint and l1-wavelet CS.

The compressed-sensing solver minimizes

    0.5 * sum_i ||A(x) - y_i||^2 + alpha * ||W x||_1

with W an orthogonal Daubechies 4-tap wavelet transform (periodic, 3 levels)
applied to the real and imaginary parts, using the monotone FISTA variant.
Under the orthonormal-FFT / normalized-maps / binary-mask construction the
forward operator satisfies ||A|| <= 1, so a unit step size is always valid
and there is nothing to tune beyond alpha.
"""

from __future__ import annotations

import numpy as np

from . import mri

# Daubechies 4-tap analysis filters (orthogonal)
_SQRT3 = np.sqrt(3.0)
DB4_LO = np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (4.0 * np.sqrt(2.0))
DB4_HI = np.array([DB4_LO[3], -DB4_LO[2], DB4_LO[1], -DB4_LO[0]])


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Sign-preserving shrinkage: sign(v) * max(|v| - t, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _analysis_1d(x: np.ndarray, axis: int) -> np.ndarray:
    x = np.moveaxis(x, axis, -1)
    n = x.shape[-1]
    idx = (2 * np.arange(n // 2)[:, None] + np.arange(4)[None, :]) % n
    windows = x[..., idx]
    lo = windows @ DB4_LO
    hi = windows @ DB4_HI
    return np.moveaxis(np.concatenate([lo, hi], axis=-1), -1, axis)


def _synthesis_1d(c: np.ndarray, axis: int) -> np.ndarray:
    c = np.moveaxis(c, axis, -1)
    n = c.shape[-1]
    half = n // 2
    lo, hi = c[..., :half], c[..., half:]
    out = np.zeros_like(c)
    # transpose of the analysis: scatter each coefficient back over its window
    for k in range(4):
        pos = (2 * np.arange(half) + k) % n
        out[..., pos] += DB4_LO[k] * lo + DB4_HI[k] * hi
    return np.moveaxis(out, -1, axis)


def _pad_to_multiple(x: np.ndarray, mult: int) -> tuple[np.ndarray, tuple[int, int]]:
    h, w = x.shape
    ph = (-h) % mult
    pw = (-w) % mult
    if ph == 0 and pw == 0:
        return x, (0, 0)
    return np.pad(x, ((0, ph), (0, pw)), mode="symmetric"), (ph, pw)


def wavelet2(x: np.ndarray, levels: int = 3) -> np.ndarray:
    """Orthogonal 2D multi-level wavelet analysis (dims divisible by 2**levels)."""
    h, w = x.shape
    if h % (1 << levels) or w % (1 << levels):
        raise ValueError(f"shape {x.shape} not divisible by 2**{levels}")
    out = np.array(x, dtype=np.float64)
    hh, ww = h, w
    for _ in range(levels):
        sub = out[:hh, :ww]
        sub = _analysis_1d(sub, 0)
        sub = _analysis_1d(sub, 1)
        out[:hh, :ww] = sub
        hh //= 2
        ww //= 2
    return out


def iwavelet2(c: np.ndarray, levels: int = 3) -> np.ndarray:
    """Inverse (= transpose) of :func:`wavelet2`."""
    h, w = c.shape
    out = np.array(c, dtype=np.float64)
    for lev in reversed(range(levels)):
        hh, ww = h >> lev, w >> lev
        sub = out[:hh, :ww]
        sub = _synthesis_1d(sub, 1)
        sub = _synthesis_1d(sub, 0)
        out[:hh, :ww] = sub
    return out


def _wavelet_l1(x: np.ndarray, levels: int) -> float:
    xp, _ = _pad_to_multiple(x.real, 1 << levels)
    total = np.abs(wavelet2(xp, levels)).sum()
    xp, _ = _pad_to_multiple(x.imag, 1 << levels)
    total += np.abs(wavelet2(xp, levels)).sum()
    return float(total)


def _wavelet_shrink(x: np.ndarray, t: float, levels: int) -> np.ndarray:
    h, w = x.shape
    parts = []
    for part in (x.real, x.imag):
        xp, _ = _pad_to_multiple(part, 1 << levels)
        c = soft_threshold(wavelet2(xp, levels), t)
        parts.append(iwavelet2(c, levels)[:h, :w])
    return parts[0] + 1j * parts[1]


def zero_filled(y: np.ndarray, maps: np.ndarray, mask) -> np.ndarray:
    """The aliased linear baseline: plain adjoint of the measurements."""
    return mri.adjoint_op(y, maps, mask)


def cs_l1wavelet(y: np.ndarray, maps: np.ndarray, mask, alpha: float = 0.005,
                 max_iter: int = 60, levels: int = 3, tol: float = 1e-6,
                 history: list | None = None) -> np.ndarray:
    """Monotone FISTA for the l1-wavelet regularized reconstruction.

    Stops at `max_iter` iterations or once the relative change between
    successive proximal candidates drops below `tol`.  Pass a list as
    `history` to collect the objective value per iteration.
    """
    if alpha < 0:
        raise ValueError(f"regularization weight must be non-negative, got {alpha}")

    def objective(x):
        r = mri.forward_op(x, maps, mask) - y
        f = 0.5 * float(np.sum(np.abs(r) ** 2))
        if alpha > 0:
            f += alpha * _wavelet_l1(x, levels)
        return f

    x = mri.adjoint_op(y, maps, mask)
    z = x.copy()
    x_prev = x.copy()
    t = 1.0
    fx = objective(x)
    if history is not None:
        history.append(fx)
    cand_prev = None
    for _ in range(max_iter):
        u = z - mri.loglik_gradient(z, y, maps, mask)   # unit step: ||A|| <= 1 by construction
        cand = _wavelet_shrink(u, alpha, levels) if alpha > 0 else u
        f_cand = objective(cand)
        x_prev = x
        if f_cand <= fx:                   # monotone selection
            x, fx = cand, f_cand
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x + (t / t_next) * (cand - x) + ((t - 1.0) / t_next) * (x - x_prev)
        t = t_next
        if history is not None:
            history.append(fx)
        if cand_prev is not None:
            denom = np.linalg.norm(cand)
            if denom > 0 and np.linalg.norm(cand - cand_prev) / denom < tol:
                break
        cand_prev = cand
    return x


def operator_norm_estimate(maps: np.ndarray, mask, iters: int = 30, seed: int = 0) -> float:
    """Largest singular value of the forward operator, by power iteration."""
    h, w = mri._mask_array(mask).shape
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((h, w)) + 1j * rng.standard_normal((h, w))
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(iters):
        z = mri.adjoint_op(mri.forward_op(x, maps, mask), maps, mask)
        sigma = np.linalg.norm(z)
        if sigma == 0:
            return 0.0
        x = z / sigma
    return float(np.sqrt(sigma))
