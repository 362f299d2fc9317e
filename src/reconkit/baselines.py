"""Non-learned reconstructions: zero-filled adjoint and l1-wavelet CS.

The compressed-sensing solver minimizes

    0.5 * sum_i ||A(x) - y_i||^2 + alpha * ||W x||_1

with W an orthogonal Daubechies 4-tap wavelet transform (periodic, 3 levels)
applied to the real and imaginary parts, using the monotone FISTA variant.
A is linear, so each image the solver holds keeps its residual A(.) - y
beside it, and an iteration runs one forward and one adjoint operator.
Each wavelet level is an orthogonal matrix per size, applied to rows and
columns as two GEMMs; synthesis is the transpose.
Under the orthonormal-FFT / normalized-maps / binary-mask construction the
forward operator satisfies ||A|| <= 1, so a unit step size is always valid
and there is nothing to tune beyond alpha.
"""

from __future__ import annotations

import functools

import numpy as np

from . import mri

# Daubechies 4-tap analysis filters (orthogonal)
_SQRT3 = np.sqrt(3.0)
DB4_LO = np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (4.0 * np.sqrt(2.0))
DB4_HI = np.array([DB4_LO[3], -DB4_LO[2], DB4_LO[1], -DB4_LO[0]])


def soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    """Sign-preserving shrinkage: sign(v) * max(|v| - t, 0)."""
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


@functools.lru_cache(maxsize=16)
def _level_matrix(n: int) -> np.ndarray:
    """One periodic DB4 analysis level on length n as an orthogonal (n, n) matrix.

    Row i < n/2 gives lo[i] = sum_k DB4_LO[k] * x[(2i + k) % n], row n/2 + i
    the matching hi[i] with DB4_HI; synthesis is the transpose.  Read-only,
    because every caller shares the cached array.
    """
    half = n // 2
    rows = np.arange(half)
    m = np.zeros((n, n))
    for k in range(4):
        cols = (2 * rows + k) % n   # wraps twice onto the same column when n == 2
        np.add.at(m, (rows, cols), DB4_LO[k])
        np.add.at(m, (half + rows, cols), DB4_HI[k])
    m.setflags(write=False)
    return m


def _checked_shape(x: np.ndarray, levels: int) -> tuple[int, int]:
    h, w = x.shape[-2:]
    if h % (1 << levels) or w % (1 << levels):
        raise ValueError(f"shape {x.shape} not divisible by 2**{levels} in its last two axes")
    return h, w


def _pad_to_multiple(x: np.ndarray, mult: int) -> np.ndarray:
    """Symmetric padding of the last two axes up to multiples of `mult`."""
    ph, pw = (-x.shape[-2]) % mult, (-x.shape[-1]) % mult
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, [(0, 0)] * (x.ndim - 2) + [(0, ph), (0, pw)], mode="symmetric")


def wavelet2(x: np.ndarray, levels: int = 3) -> np.ndarray:
    """Orthogonal 2D multi-level wavelet analysis over the last two axes.

    Both axes must be divisible by 2**levels.  Level l maps the low-pass
    corner `sub` to M_h @ sub @ M_w.T, so a (2, h, w) stack of real and
    imaginary parts is transformed in one call.
    """
    h, w = _checked_shape(x, levels)
    out = np.array(x, dtype=np.float64)
    for lev in range(levels):
        hh, ww = h >> lev, w >> lev
        out[..., :hh, :ww] = _level_matrix(hh) @ out[..., :hh, :ww] @ _level_matrix(ww).T
    return out


def iwavelet2(c: np.ndarray, levels: int = 3) -> np.ndarray:
    """Inverse (= transpose) of :func:`wavelet2`: M_h.T @ sub @ M_w, coarsest level first."""
    h, w = _checked_shape(c, levels)
    out = np.array(c, dtype=np.float64)
    for lev in reversed(range(levels)):
        hh, ww = h >> lev, w >> lev
        out[..., :hh, :ww] = _level_matrix(hh).T @ out[..., :hh, :ww] @ _level_matrix(ww)
    return out


def _coefficients(x: np.ndarray, levels: int) -> np.ndarray:
    """W of the real and imaginary parts of a complex image, as one (2, h', w') stack."""
    return wavelet2(_pad_to_multiple(np.stack([x.real, x.imag]), 1 << levels), levels)


def _wavelet_l1(x: np.ndarray, levels: int) -> float:
    return float(np.abs(_coefficients(x, levels)).sum())


def _wavelet_shrink(x: np.ndarray, t: float, levels: int) -> np.ndarray:
    h, w = x.shape
    re, im = iwavelet2(soft_threshold(_coefficients(x, levels), t), levels)[:, :h, :w]
    return re + 1j * im


def zero_filled(y: np.ndarray, maps: np.ndarray, mask) -> np.ndarray:
    """The aliased linear baseline: plain adjoint of the measurements."""
    return mri.adjoint_op(y, maps, mask)


# the CS working point: l1-wavelet weight and iteration cap
CS_ALPHA = 0.005
CS_MAX_ITER = 60


def cs_l1wavelet(y: np.ndarray, maps: np.ndarray, mask, alpha: float = CS_ALPHA,
                 max_iter: int = CS_MAX_ITER, levels: int = 3, tol: float = 1e-6,
                 history: list | None = None) -> np.ndarray:
    """Monotone FISTA for the l1-wavelet regularized reconstruction.

    Stops at `max_iter` iterations or once the relative change between
    successive proximal candidates drops below `tol`.  Pass a list as
    `history` to collect the objective value per iteration.  An iteration
    runs the forward operator once, on the candidate: its residual serves
    the objective and, combined like the images, the next gradient.
    `alpha` must be finite and non-negative, `max_iter` and `levels`
    non-negative.
    """
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and non-negative, got {alpha}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")
    if levels < 0:
        raise ValueError(f"levels must be non-negative, got {levels}")

    def objective(x, r):
        f = 0.5 * float(np.sum(np.abs(r) ** 2))
        if alpha > 0:
            f += alpha * _wavelet_l1(x, levels)
        return f

    def residual(x):
        r = mri.forward_op(x, maps, mask)
        r -= y
        return r

    x = mri.adjoint_op(y, maps, mask)
    r_x = residual(x)
    z, r_z = x, r_x
    t = 1.0
    fx = objective(x, r_x)
    if history is not None:
        history.append(fx)
    cand_prev = None
    for _ in range(max_iter):
        u = z - mri.adjoint_op(r_z, maps, mask)   # unit step: ||A|| <= 1 by construction
        cand = _wavelet_shrink(u, alpha, levels) if alpha > 0 else u
        r_cand = residual(cand)
        f_cand = objective(cand, r_cand)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        x_prev, r_prev = x, r_x
        if f_cand <= fx:                   # monotone selection
            x, r_x, fx = cand, r_cand, f_cand
            step, r_z = (t - 1.0) / t_next, r_prev
        else:
            step, r_z = t / t_next, r_cand
        # z = x + (t / t_next) * (cand - x) + ((t - 1) / t_next) * (x - x_prev) has one
        # nonzero difference, cand - x_prev.  A is linear, so r_z is the same combination
        # of residuals, formed in the residual buffer the selection left unused.
        z = x + step * (cand - x_prev)
        np.subtract(r_cand, r_prev, out=r_z)
        r_z *= step
        r_z += r_x
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
