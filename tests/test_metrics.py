"""Quality metrics: SSIM/PSNR oracles, contrast and noise scores, Otsu, WA."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from reconkit import metrics, phantom
from reconkit.fourier import fft2c
from reconkit.phantom import Ellipse, PhantomSpec


def naive_ssim(test, ref, window=7, k1=0.01, k2=0.03):
    """Brute-force sliding-window reference implementation."""
    h, w = test.shape
    data_range = ref.max()
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    vals = []
    for i in range(h - window + 1):
        for j in range(w - window + 1):
            a = test[i:i + window, j:j + window]
            b = ref[i:i + window, j:j + window]
            mu_a, mu_b = a.mean(), b.mean()
            var_a = (a ** 2).mean() - mu_a ** 2
            var_b = (b ** 2).mean() - mu_b ** 2
            cov = (a * b).mean() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2)) /
                        ((mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)))
    return float(np.mean(vals))


class TestSsim:
    def test_identity_is_one(self):
        x = np.abs(np.random.default_rng(0).standard_normal((16, 16)))
        assert metrics.ssim(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_inverted_checkerboard_scores_low(self):
        x = np.indices((16, 16)).sum(axis=0) % 2
        assert metrics.ssim(1.0 - x, x.astype(float)) < 0.5

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(1)
        ref = np.abs(rng.standard_normal((16, 16))) + 0.1
        test = ref + 0.1 * rng.standard_normal((16, 16))
        assert metrics.ssim(test, ref) == pytest.approx(naive_ssim(test, ref), abs=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(metrics.MetricError):
            metrics.ssim(np.ones((8, 8)), np.ones((8, 9)))

    def test_asymmetric_in_data_range(self):
        rng = np.random.default_rng(2)
        a = np.abs(rng.standard_normal((12, 12)))
        b = 2.0 * np.abs(rng.standard_normal((12, 12)))
        # data range comes from the reference argument, so swapping changes it
        assert metrics.ssim(a, b) != pytest.approx(metrics.ssim(b, a), abs=1e-6)


def window_box_mean(a):
    """The box mean as one 7x7 window reduction per output pixel."""
    return sliding_window_view(a, (7, 7)).mean(axis=(-2, -1))


def assert_same_bits(got, want, note=""):
    assert got.dtype == want.dtype and got.shape == want.shape, note
    assert got.tobytes() == want.tobytes(), note


class TestBoxMean:
    SHAPES = [(h, w) for h in (7, 8, 13, 16, 31, 64) for w in (8, 9, 12, 16, 23, 64)]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_to_window_mean(self, dtype):
        rng = np.random.default_rng(3)
        for shape in self.SHAPES:
            a = (100.0 * rng.standard_normal(shape)).astype(dtype)
            assert_same_bits(metrics._box_mean(a), window_box_mean(a), str(shape))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_equal_on_padded_gradient(self, dtype):
        # the VJP of the box mean box-averages the gradient zero-padded by 6
        g = np.random.default_rng(4).standard_normal((58, 51)).astype(dtype)
        padded = np.pad(g, 6)
        assert_same_bits(metrics._box_mean(padded), window_box_mean(padded))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_seven_wide_within_a_few_ulp(self, dtype):
        # one output column: numpy reduces the window in another order
        rng = np.random.default_rng(5)
        for h in (7, 8, 20, 64):
            a = (100.0 * rng.random((h, 7))).astype(dtype)
            np.testing.assert_array_max_ulp(metrics._box_mean(a), window_box_mean(a), maxulp=8)


class TestPsnr:
    def test_twenty_db_fixture(self):
        # max(ref) = 1, MSE = 0.01 -> 10*log10(1/0.01) = 20 dB
        ref = np.zeros((10, 10))
        ref[0, 0] = 1.0
        test = ref + 0.1
        assert metrics.psnr(test, ref) == pytest.approx(20.0, abs=1e-9)

    def test_identical_is_infinite(self):
        x = np.random.default_rng(3).standard_normal((8, 8))
        assert np.isinf(metrics.psnr(x, x))

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(4)
        ref = np.abs(rng.standard_normal((8, 8)))
        test = ref + 0.05 * rng.standard_normal((8, 8))
        assert metrics.psnr(3.7 * test, 3.7 * ref) == pytest.approx(metrics.psnr(test, ref), abs=1e-9)


class TestContrastResolution:
    def _masks(self):
        lesion = np.zeros((32, 32), dtype=bool)
        lesion[14:18, 14:18] = True
        wm = np.zeros((32, 32), dtype=bool)
        wm[8:24, 8:24] = True
        return lesion, wm

    def test_equal_signals_give_zero(self):
        lesion, wm = self._masks()
        img = np.full((32, 32), 0.5)
        assert metrics.contrast_resolution(img, lesion, wm) == pytest.approx(0.0, abs=1e-12)

    def test_direct_evaluation(self):
        lesion, wm = self._masks()
        img = np.full((32, 32), 0.4)
        img[lesion] = 0.6
        assert metrics.contrast_resolution(img, lesion, wm) == pytest.approx(0.2, abs=1e-12)

    def test_scale_invariance(self):
        lesion, wm = self._masks()
        rng = np.random.default_rng(5)
        img = np.abs(rng.standard_normal((32, 32))) + 0.2
        a = metrics.contrast_resolution(img, lesion, wm)
        b = metrics.contrast_resolution(7.3 * img, lesion, wm)
        assert a == pytest.approx(b, abs=1e-12)

    def test_empty_surrounding_rejected(self):
        lesion = np.zeros((16, 16), dtype=bool)
        lesion[6:10, 6:10] = True
        wm = np.zeros((16, 16), dtype=bool)   # no WM anywhere
        with pytest.raises(metrics.MetricError):
            metrics.contrast_resolution(np.ones((16, 16)), lesion, wm)


class TestWmNoise:
    def test_constant_image_is_zero(self):
        wm = np.zeros((16, 16), dtype=bool)
        wm[4:12, 4:12] = True
        assert metrics.wm_noise(np.full((16, 16), 0.7), wm) == 0.0

    def test_monotone_in_noise_level(self):
        spec = PhantomSpec(size=64, ellipses=[Ellipse(0, 0, 0.8, 0.8, 0, 0.5)], wm_index=0)
        img, _, wm = phantom.make_phantom(spec)
        rng = np.random.default_rng(6)
        noise = rng.standard_normal((64, 64))
        vals = [metrics.wm_noise(np.abs(img) + s * noise, wm) for s in (0.01, 0.02, 0.04)]
        assert vals[0] < vals[1] < vals[2]

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        img = np.abs(rng.standard_normal((24, 24))) + 0.5
        wm = np.zeros((24, 24), dtype=bool)
        wm[6:18, 6:18] = True
        assert metrics.wm_noise(img, wm) == pytest.approx(metrics.wm_noise(5.0 * img, wm), abs=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(metrics.MetricError):
            metrics.wm_noise(np.ones((8, 8)), np.zeros((8, 8), dtype=bool))


class TestBgNoise:
    def test_clean_background_is_zero(self):
        img = np.zeros((32, 32))
        img[8:24, 8:24] = 1.0
        assert metrics.bg_noise(img) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_background_quantile(self):
        rng = np.random.default_rng(8)
        img = np.zeros((128, 128))
        img[32:96, 32:96] = 1.0
        amplitude = 0.1
        bg = rng.uniform(0, amplitude, size=img.shape)
        img = np.where(img > 0, img, bg)
        # 99th percentile of U(0, a) is 0.99 a
        assert metrics.bg_noise(img) == pytest.approx(0.99 * amplitude, rel=0.05)

    def test_aliasing_ghost_raises_bgn(self):
        img = np.zeros((64, 64))
        img[16:48, 16:48] = 1.0
        clean = metrics.bg_noise(img + 0.001)
        ghost = img.copy()
        ghost[:8, :] += 0.15 * img[16:24, :]   # shifted copy into the background
        assert metrics.bg_noise(ghost + 0.001) > clean


class TestSnr:
    def test_direct_evaluation(self):
        img = np.zeros((40, 40))
        img[10:30, 10:30] = 1.0
        kspace = np.full((2, 40, 40), 0.1 + 0j)
        assert metrics.snr(img, kspace) == pytest.approx(10.0, rel=1e-6)

    def test_joint_scale_invariance(self):
        spec = phantom.default_brain_spec(32, seed=9)
        img, _, _ = phantom.make_phantom(spec)
        maps = phantom.make_coils(2, 32, 32)
        k = fft2c(maps * img[None])
        a = metrics.snr(np.abs(img), k)
        b = metrics.snr(4.2 * np.abs(img), 4.2 * k)
        assert a == pytest.approx(b, rel=1e-9)


class TestOtsu:
    def test_bimodal_threshold_between_modes(self):
        rng = np.random.default_rng(10)
        vals = np.concatenate([np.full(900, 0.1), np.full(100, 0.9)])
        vals = vals + 0.01 * rng.standard_normal(vals.size)
        t = metrics.otsu_threshold(vals)
        assert 0.15 < t < 0.85

    def test_two_deltas(self):
        vals = np.concatenate([np.zeros(50), np.ones(50)])
        assert 0.0 < metrics.otsu_threshold(vals) < 1.0

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(11)
        vals = np.concatenate([rng.normal(0.2, 0.05, 500), rng.normal(0.8, 0.1, 300)])
        bins = 256
        hist, edges = np.histogram(vals, bins=bins, range=(vals.min(), vals.max()))
        centers = 0.5 * (edges[:-1] + edges[1:])
        variances = np.full(bins - 1, -1.0)
        for k in range(bins - 1):
            w0 = hist[:k + 1].sum()
            w1 = hist[k + 1:].sum()
            if w0 == 0 or w1 == 0:
                continue
            mu0 = (hist[:k + 1] * centers[:k + 1]).sum() / w0
            mu1 = (hist[k + 1:] * centers[k + 1:]).sum() / w1
            variances[k] = w0 * w1 * (mu0 - mu1) ** 2
        ties = np.flatnonzero(variances >= variances.max() * (1.0 - 1e-9))
        best_t = edges[int(ties[len(ties) // 2]) + 1]
        assert metrics.otsu_threshold(vals) == pytest.approx(best_t, abs=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(metrics.MetricError):
            metrics.otsu_threshold(np.full(10, 3.0))


# Cohort scoring fixture: (method, training data, CR, WMN, BGN) rows with the
# published weighted-average column they must reproduce.
COHORT_ROWS = [
    ("CascadeNet", "T1", 0.128, 0.135, 0.292, 1.08),
    ("CascadeNet", "T2-Knee", 0.087, 0.290, 0.302, 1.43),
    ("CascadeNet", "FLAIR", 0.145, 0.126, 0.265, 0.96),
    ("CascadeNet", "FLAIR-1D", 0.139, 0.121, 0.309, 1.05),
    ("CIRIM", "T1", 0.179, 0.145, 0.172, 0.69),
    ("CIRIM", "T2-Knee", 0.097, 0.285, 0.322, 1.42),
    ("CIRIM", "FLAIR", 0.183, 0.131, 0.104, 0.55),
    ("CIRIM", "FLAIR-1D", 0.173, 0.110, 0.137, 0.62),
    ("E2EVN", "T1", 0.145, 0.144, 0.359, 1.13),
    ("E2EVN", "T2-Knee", 0.109, 0.301, 0.576, 1.79),
    ("E2EVN", "FLAIR", 0.159, 0.116, 0.358, 1.03),
    ("E2EVN", "FLAIR-1D", 0.134, 0.141, 0.360, 1.17),
    ("IRIM", "T1", 0.159, 0.128, 0.200, 0.80),
    ("IRIM", "T2-Knee", 0.078, 0.260, 0.348, 1.51),
    ("IRIM", "FLAIR", 0.169, 0.145, 0.181, 0.74),
    ("IRIM", "FLAIR-1D", 0.176, 0.151, 0.213, 0.77),
    ("KIKINet", "T1", 0.117, 0.184, 0.432, 1.40),
    ("KIKINet", "T2-Knee", 0.149, 0.235, 0.294, 1.10),
    ("KIKINet", "FLAIR", 0.105, 0.175, 0.626, 1.75),
    ("KIKINet", "FLAIR-1D", 0.103, 0.144, 0.352, 1.29),
    ("LPDNet", "T1", 0.240, 0.206, 0.210, 0.56),
    ("LPDNet", "T2-Knee", 0.030, 0.126, 0.204, 1.34),
    ("LPDNet", "FLAIR", 0.117, 0.099, 0.332, 1.15),
    ("LPDNet", "FLAIR-1D", 0.066, 0.129, 0.338, 1.40),
    ("RIM", "T1", 0.178, 0.168, 0.170, 0.71),
    ("RIM", "T2-Knee", 0.091, 0.149, 0.251, 1.18),
    ("RIM", "FLAIR", 0.197, 0.175, 0.134, 0.58),
    ("RIM", "FLAIR-1D", 0.183, 0.158, 0.165, 0.67),
    ("UNet", "T1", 0.182, 0.174, 0.276, 0.87),
    ("UNet", "T2-Knee", 0.125, 0.924, 0.285, 1.93),
    ("UNet", "FLAIR", 0.087, 0.079, 0.625, 1.72),
    ("UNet", "FLAIR-1D", 0.065, 0.105, 0.348, 1.40),
    ("PICS", "-", 0.178, 0.140, 0.147, 0.64),
    ("Zero-Filled", "-", 0.072, 0.092, 0.372, 1.39),
]


class TestWeightedAverage:
    def test_full_cohort_fixture(self):
        triples = [(cr, wmn, bgn) for _, _, cr, wmn, bgn, _ in COHORT_ROWS]
        expected = [wa for *_, wa in COHORT_ROWS]
        computed = metrics.weighted_average(triples)
        for (method, data, *_), got, want in zip(COHORT_ROWS, computed, expected):
            assert got == pytest.approx(want, abs=0.015), f"{method}/{data}"

    def test_spot_anchors(self):
        triples = [(cr, wmn, bgn) for _, _, cr, wmn, bgn, _ in COHORT_ROWS]
        computed = dict(zip([(m, d) for m, d, *_ in COHORT_ROWS],
                            metrics.weighted_average(triples)))
        assert computed[("PICS", "-")] == pytest.approx(0.64, abs=0.01)
        assert computed[("CIRIM", "FLAIR")] == pytest.approx(0.55, abs=0.01)
        assert computed[("CascadeNet", "T1")] == pytest.approx(1.08, abs=0.01)
        assert computed[("Zero-Filled", "-")] == pytest.approx(1.39, abs=0.01)

    def test_single_row_cohort_scores_two(self):
        assert metrics.weighted_average([(0.2, 0.3, 0.4)]) == [pytest.approx(2.0)]

    def test_non_positive_maxima_rejected(self):
        with pytest.raises(metrics.MetricError):
            metrics.weighted_average([(0.0, 0.1, 0.2), (-0.1, 0.05, 0.1)])

    def test_empty_rejected(self):
        with pytest.raises(metrics.MetricError):
            metrics.weighted_average([])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_best_method_scores_lowest(self, seed):
        rng = np.random.default_rng(seed)
        rows = [tuple(rng.uniform(0.05, 1.0, 3)) for _ in range(5)]
        # a dominating row: highest contrast, lowest noise
        best = (max(r[0] for r in rows) + 0.1, 0.01, 0.01)
        was = metrics.weighted_average(rows + [best])
        assert was[-1] == min(was)
