"""Image-quality metrics for reconstruction evaluation.

SSIM and PSNR score reconstructions against a fully sampled reference.  For
data without a reference, lesion contrast resolution (CR), white-matter
gradient-mode noise (WMN), background 99th-percentile noise (BGN) and their
cohort-relative weighted average (WA) quantify contrast preservation and
denoising, and SNR relates foreground signal to k-space periphery noise.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import binary_dilation

from . import autodiff as ad


class MetricError(ValueError):
    """Metric preconditions violated (empty region, degenerate input, ...)."""


# ---------------------------------------------------------------------------
# reference-based metrics
# ---------------------------------------------------------------------------

SSIM_WINDOW = 7
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def _box_mean(a: np.ndarray) -> np.ndarray:
    """Mean over every fully interior SSIM_WINDOW x SSIM_WINDOW box of a 2D array.

    Two passes of shifted slices: the SSIM_WINDOW-tap row sums, added left
    to right, then SSIM_WINDOW of those rows, added top to bottom, then one
    division by the box size.  That is the order in which numpy's
    ``sliding_window_view(a, (7, 7)).mean(axis=(-2, -1))`` adds the same
    terms, so the result has the same bits, except when `a` is exactly
    SSIM_WINDOW wide (one output column): there numpy reduces in another
    order and the two differ by a few ulp.
    """
    oh, ow = a.shape[0] - SSIM_WINDOW + 1, a.shape[1] - SSIM_WINDOW + 1
    rows = a[:, 0:ow] + a[:, 1:1 + ow]
    for k in range(2, SSIM_WINDOW):
        rows += a[:, k:k + ow]
    out = rows[0:oh] + rows[1:1 + oh]
    for k in range(2, SSIM_WINDOW):
        out += rows[k:k + oh]
    out /= SSIM_WINDOW * SSIM_WINDOW
    return out


def ssim_tensor(test, ref: np.ndarray) -> ad.Tensor:
    """Mean local SSIM as an autodiff tensor, differentiable in `test`.

    Local means/variances use population statistics over each fully interior
    window, so the score is the mean of the SSIM map on the valid region;
    the data range is max(ref).  Each box mean of `test` is one
    ``autodiff.linear`` node whose VJP box-averages the gradient zero-padded
    by SSIM_WINDOW - 1.
    """
    test = ad.astensor(test)
    ref = np.asarray(ref, dtype=np.float64)
    if test.shape != ref.shape:
        raise MetricError(f"image shapes differ: {test.shape} vs {ref.shape}")
    if min(test.shape) < SSIM_WINDOW:
        raise MetricError(f"image smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")

    data_range = ref.max()
    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2

    def box(t: ad.Tensor) -> ad.Tensor:
        return ad.linear(t, _box_mean, lambda g: _box_mean(np.pad(g, SSIM_WINDOW - 1)))

    # tensors stay on the left of each operator so numpy never sees them
    mu_t = box(test)
    mu_r = _box_mean(ref)
    var_t = box(test * test) - mu_t * mu_t
    var_r = _box_mean(ref * ref) - mu_r * mu_r
    cov = box(test * ref) - mu_t * mu_r

    num = (2 * mu_t * mu_r + c1) * (2 * cov + c2)
    den = (mu_t * mu_t + mu_r * mu_r + c1) * (var_t + var_r + c2)
    return ad.reduce_mean(num / den)


def ssim(test: np.ndarray, ref: np.ndarray) -> float:
    """Mean local SSIM over a uniform SSIM_WINDOW window; data range is max(ref)."""
    return float(ssim_tensor(np.asarray(test, dtype=np.float64), ref).data)


def psnr(test: np.ndarray, ref: np.ndarray) -> float:
    """10 log10(max(ref)^2 / MSE), in dB; identical inputs give +inf."""
    test = np.asarray(test, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if test.shape != ref.shape:
        raise MetricError(f"image shapes differ: {test.shape} vs {ref.shape}")
    mse = np.mean((test - ref) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(ref.max() ** 2 / mse))


# ---------------------------------------------------------------------------
# reference-free metrics
# ---------------------------------------------------------------------------

CR_DILATION = 4         # voxels around a lesion that CR compares it with
WMN_BINS = 256          # histogram bins of the WMN gradient mode
OTSU_BINS = 256         # histogram bins of the Otsu tissue threshold
SNR_CORNER_FRAC = 0.05  # side of SNR's k-space corner squares, per smaller grid dimension


def contrast_resolution(img: np.ndarray, lesion_mask: np.ndarray, wm_mask: np.ndarray) -> float:
    """Lesion-versus-surrounding-white-matter contrast.

    The comparison region is the lesion mask dilated by CR_DILATION voxels,
    intersected with the white-matter mask and stripped of the lesion itself.
    """
    img = np.abs(np.asarray(img))
    lesion_mask = np.asarray(lesion_mask, dtype=bool)
    wm_mask = np.asarray(wm_mask, dtype=bool)
    if not lesion_mask.any():
        raise MetricError("lesion mask is empty")
    surrounding = binary_dilation(lesion_mask, iterations=CR_DILATION) & wm_mask & ~lesion_mask
    if not surrounding.any():
        raise MetricError("no surrounding white matter after dilation and intersection")
    s_les = img[lesion_mask].mean()
    s_wm = img[surrounding].mean()
    return float((s_les - s_wm) / (s_les + s_wm))


def wm_noise(img: np.ndarray, wm_mask: np.ndarray) -> float:
    """Mode of the gradient-magnitude image inside the white-matter mask.

    The image is first normalized by its mean white-matter intensity, the
    gradient magnitude comes from central differences, and the mode is taken
    over a WMN_BINS-bin histogram spanning [0, 99th percentile] of the
    in-mask values.
    """
    img = np.abs(np.asarray(img, dtype=np.float64))
    wm_mask = np.asarray(wm_mask, dtype=bool)
    if not wm_mask.any():
        raise MetricError("white-matter mask is empty")
    mean_wm = img[wm_mask].mean()
    if mean_wm == 0:
        raise MetricError("white-matter region has zero mean intensity")
    norm = img / mean_wm
    gy, gx = np.gradient(norm)
    gmag = np.hypot(gy, gx)[wm_mask]
    hi = np.percentile(gmag, 99)
    if hi == 0:
        return 0.0
    hist, edges = np.histogram(gmag, bins=WMN_BINS, range=(0.0, hi))
    k = int(np.argmax(hist))
    return float(0.5 * (edges[k] + edges[k + 1]))


def bg_noise(img: np.ndarray) -> float:
    """99th percentile of the magnitude over the background (non-tissue) region."""
    mag = np.abs(np.asarray(img, dtype=np.float64))
    t = otsu_threshold(mag)
    background = mag <= t
    if not background.any():
        raise MetricError("no background region below the tissue threshold")
    return float(np.percentile(mag[background], 99))


def snr(img: np.ndarray, kspace: np.ndarray) -> float:
    """Foreground mean over k-space periphery median.

    Numerator: mean magnitude above the Otsu tissue threshold.  Denominator:
    median magnitude pooled over four corner squares (side = SNR_CORNER_FRAC
    of the smaller grid dimension), averaged across coils.
    """
    mag = np.abs(np.asarray(img, dtype=np.float64))
    kspace = np.asarray(kspace)
    if kspace.ndim != 3:
        raise MetricError(f"k-space must be (coils, h, w), got {kspace.shape}")
    t = otsu_threshold(mag)
    fg = mag[mag > t]
    if fg.size == 0:
        raise MetricError("no foreground above the tissue threshold")
    numerator = fg.mean()

    _, h, w = kspace.shape
    side = max(1, int(round(SNR_CORNER_FRAC * min(h, w))))
    kmag = np.abs(kspace)
    corners = np.concatenate([
        kmag[:, :side, :side].reshape(kspace.shape[0], -1),
        kmag[:, :side, -side:].reshape(kspace.shape[0], -1),
        kmag[:, -side:, :side].reshape(kspace.shape[0], -1),
        kmag[:, -side:, -side:].reshape(kspace.shape[0], -1),
    ], axis=1)
    # exact zeros are unsampled positions, not measurements
    medians = [np.median(row[row > 0]) for row in corners if (row > 0).any()]
    if not medians:
        raise MetricError("k-space periphery holds no sampled data")
    denominator = float(np.mean(medians))
    if denominator == 0:
        raise MetricError("k-space periphery is exactly zero")
    return float(numerator / denominator)


def otsu_threshold(values: np.ndarray) -> float:
    """OTSU_BINS-bin histogram threshold maximizing between-class variance.

    When several cut points maximize the variance (a plateau across empty
    bins between well-separated clusters) the middle one is returned.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    lo, hi = v.min(), v.max()
    if lo == hi:
        raise MetricError("cannot threshold a constant input")
    hist, edges = np.histogram(v, bins=OTSU_BINS, range=(lo, hi))
    p = hist.astype(np.float64) / hist.sum()
    omega = np.cumsum(p)
    centers = 0.5 * (edges[:-1] + edges[1:])
    mu = np.cumsum(p * centers)
    mu_total = mu[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_b = (mu_total * omega - mu) ** 2 / (omega * (1.0 - omega))
    sigma_b[~np.isfinite(sigma_b)] = -1.0
    sigma_b = sigma_b[:-1]
    ties = np.flatnonzero(sigma_b >= sigma_b.max() * (1.0 - 1e-9))
    k = int(ties[len(ties) // 2])
    return float(edges[k + 1])


def weighted_average(rows: list[tuple[float, float, float]]) -> list[float]:
    """Cohort-relative aggregate of (cr, wmn, bgn) rows.

    WA = (1 - cr/max_cr) + wmn/max_wmn + bgn/max_bgn with maxima over the
    cohort, so a high-contrast, low-noise method scores low.
    """
    if not rows:
        raise MetricError("need at least one cohort row")
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise MetricError(f"rows must be (cr, wmn, bgn) triples, got shape {arr.shape}")
    maxima = arr.max(axis=0)
    if np.any(maxima <= 0):
        raise MetricError(f"cohort maxima must be positive, got {maxima.tolist()}")
    wa = (1.0 - arr[:, 0] / maxima[0]) + arr[:, 1] / maxima[1] + arr[:, 2] / maxima[2]
    return [float(v) for v in wa]
