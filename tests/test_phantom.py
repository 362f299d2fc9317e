"""Phantom generation, coil maps, and acquisition simulation."""

import numpy as np
import pytest

from reconkit import metrics, mri, phantom, sampling
from reconkit.phantom import Ellipse, PhantomSpec

from conftest import BAD_PHANTOM_SPECS, rel_error


class TestMakePhantom:
    def test_empty_spec_gives_zero_image(self):
        img, lesion, wm = phantom.make_phantom(PhantomSpec(size=16))
        assert not img.any() and not lesion.any() and not wm.any()

    def test_single_ellipse_binary_magnitude(self):
        spec = PhantomSpec(size=32, ellipses=[Ellipse(0, 0, 0.5, 0.5, 0, 1.0)])
        img, _, _ = phantom.make_phantom(spec)
        mag = np.abs(img)
        assert set(np.round(np.unique(mag), 12)) == {0.0, 1.0}
        assert mag[16, 16] == 1.0
        assert mag[0, 0] == 0.0

    def test_lesion_contrast_matches_geometry(self):
        # lesion adds 0.2 on a 0.4 white-matter host: CR = 0.2/1.0
        spec = PhantomSpec(
            size=64,
            ellipses=[Ellipse(0, 0, 0.7, 0.7, 0, 0.4)],
            lesions=[Ellipse(0.2, 0.2, 0.08, 0.08, 0, 0.2)],
            wm_index=0,
        )
        img, lesion, wm = phantom.make_phantom(spec)
        cr = metrics.contrast_resolution(np.abs(img), lesion, wm)
        assert cr == pytest.approx(0.2, abs=1e-12)

    def test_wm_mask_excludes_lesions(self):
        spec = PhantomSpec(
            size=32,
            ellipses=[Ellipse(0, 0, 0.8, 0.8, 0, 0.4)],
            lesions=[Ellipse(0, 0, 0.1, 0.1, 0, 0.2)],
            wm_index=0,
        )
        _, lesion, wm = phantom.make_phantom(spec)
        assert lesion.any()
        assert not (lesion & wm).any()

    def test_out_of_fov_ellipse_rejected(self):
        spec = PhantomSpec(size=16, ellipses=[Ellipse(0.8, 0, 0.5, 0.5, 0, 1.0)])
        with pytest.raises(phantom.PhantomSpecError):
            phantom.make_phantom(spec)

    @pytest.mark.parametrize("make, message", [
        (lambda: phantom.make_phantom(PhantomSpec(size=0)), "size must be at least 1, got 0"),
        (lambda: phantom.make_phantom(PhantomSpec(size=-3)), "size must be at least 1, got -3"),
        (lambda: phantom.default_brain_spec(16, n_lesions=-1), "n_lesions "),
        (lambda: phantom.default_brain_spec(16, jitter=float("nan")), "jitter "),
        (lambda: phantom.default_brain_spec(16, jitter=float("inf")), "jitter "),
        (lambda: phantom.default_brain_spec(16, jitter=-0.01), "jitter "),
        (lambda: phantom.make_phantom(PhantomSpec(size=8, ellipses=[Ellipse(0, 0, 0.5, 0.0)])),
         "ax must be above 0, got 0.0"),
        (lambda: phantom.make_phantom(PhantomSpec(size=8, lesions=[Ellipse(0, 0, -0.1, 0.1)])),
         "ay must be above 0, got -0.1"),
        (lambda: phantom.make_phantom(PhantomSpec(size=8, ellipses=[Ellipse(0, 0, 0.5, 0.5)],
                                                  wm_index=1)), "wm_index "),
        (lambda: phantom.make_phantom(PhantomSpec(size=8, ellipses=[Ellipse(0, 0, 0.5, 0.5)],
                                                  wm_index=-1)), "wm_index "),
    ], ids=["size_0", "size_negative", "lesions_negative", "jitter_nan", "jitter_inf",
            "jitter_negative", "ellipse_ax_0", "lesion_ay_negative", "wm_index_past_end",
            "wm_index_negative"])
    def test_undrawable_spec_names_its_field(self, make, message):
        with pytest.raises(phantom.PhantomSpecError) as err:
            make()
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("row", sorted(BAD_PHANTOM_SPECS))
    def test_malformed_spec_dict_names_its_field(self, row):
        d, message = BAD_PHANTOM_SPECS[row]
        with pytest.raises(phantom.PhantomSpecError) as err:
            phantom.make_phantom(PhantomSpec.from_dict(d))
        assert str(err.value).startswith(message)

    def test_phase_model_applied(self):
        coeffs = np.zeros((3, 3))
        coeffs[0, 1] = 1.0
        spec = PhantomSpec(size=16, ellipses=[Ellipse(0, 0, 0.9, 0.9, 0, 1.0)],
                           phase_coeffs=coeffs)
        img, _, _ = phantom.make_phantom(spec)
        assert np.abs(img.imag).max() > 0.1

    def test_spec_dict_roundtrip(self):
        spec = phantom.default_brain_spec(32, seed=5)
        back = PhantomSpec.from_dict(spec.to_dict())
        a, _, _ = phantom.make_phantom(spec)
        b, _, _ = phantom.make_phantom(back)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("size, other", [(16, 64), (15, 16), (12, 20), (20, 12), (64, 15)])
    def test_a_cold_call_and_a_warm_call_give_the_same_bytes(self, size, other):
        # the warm call comes after a phantom of another size has been built
        spec = phantom.default_brain_spec(size, seed=3)
        assert spec.phase_coeffs is not None
        phantom._grid.cache_clear()
        cold = phantom.make_phantom(spec)
        phantom.make_phantom(phantom.default_brain_spec(other, seed=3))
        warm = phantom.make_phantom(spec)
        for a, b in zip(cold, warm):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_cached_grid_is_read_only(self):
        phantom.make_phantom(phantom.default_brain_spec(16))
        for a in phantom._grid(16):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


class TestMakeCoils:
    def test_single_coil_is_unit(self):
        maps = phantom.make_coils(1, 12, 12)
        assert np.allclose(maps, 1.0)

    def test_normalization_invariant(self):
        for n in (2, 4, 8):
            maps = phantom.make_coils(n, 24, 16)
            rss = np.sum(np.abs(maps) ** 2, axis=0)
            assert np.abs(rss - 1.0).max() < 1e-6

    def test_maps_vary_smoothly(self):
        n, h, w = 4, 64, 64
        width = 0.9 * min(h, w)
        maps = phantom.make_coils(n, h, w)
        # bound from the Gaussian envelope plus the linear phase ramp:
        # |grad log g| <= r_max / width^2 with r_max ~ 1.3 * max(h, w),
        # doubled for the normalization quotient, plus pi*(1/h + 1/w)
        bound = 2 * 1.3 * max(h, w) / width ** 2 + np.pi * (1 / h + 1 / w)
        dy = np.abs(np.diff(maps, axis=1)).max()
        dx = np.abs(np.diff(maps, axis=2)).max()
        assert max(dy, dx) < bound

    def test_at_least_one_coil(self):
        with pytest.raises(ValueError):
            phantom.make_coils(0, 8, 8)


class TestSimulateAcquisition:
    def test_noiseless_full_mask_recovers_reference(self):
        spec = phantom.default_brain_spec(32, seed=1)
        img, lesion, wm = phantom.make_phantom(spec)
        maps = phantom.make_coils(3, 32, 32)
        mask = sampling.full_mask(32, 32)
        rec = phantom.simulate_acquisition(img, maps, mask, 0.0, seed=2,
                                           lesion_mask=lesion, wm_mask=wm)
        zf = mri.adjoint_op(rec.kspace, rec.maps, rec.mask)
        assert rel_error(zf, rec.reference) < 1e-10

    def test_reference_normalized_to_unit_peak(self):
        spec = phantom.default_brain_spec(32, seed=3)
        img, _, _ = phantom.make_phantom(spec)
        maps = phantom.make_coils(2, 32, 32)
        rec = phantom.simulate_acquisition(img, maps, sampling.full_mask(32, 32), 0.01, seed=4)
        assert np.abs(rec.reference).max() == pytest.approx(1.0, abs=1e-12)

    def test_fixed_seed_byte_identical(self):
        spec = phantom.default_brain_spec(24, seed=5)
        img, lesion, wm = phantom.make_phantom(spec)
        maps = phantom.make_coils(2, 24, 24)
        mask = sampling.gaussian2d_mask(24, 24, 2.0, seed=6)
        a = phantom.simulate_acquisition(img, maps, mask, 0.05, seed=7, lesion_mask=lesion, wm_mask=wm)
        b = phantom.simulate_acquisition(img, maps, mask, 0.05, seed=7, lesion_mask=lesion, wm_mask=wm)
        assert np.array_equal(a.kspace, b.kspace)
        assert np.array_equal(a.reference, b.reference)
        assert a.meta == b.meta

    def test_snr_decreases_with_noise(self):
        spec = phantom.default_brain_spec(48, seed=8)
        img, lesion, wm = phantom.make_phantom(spec)
        maps = phantom.make_coils(3, 48, 48)
        mask = sampling.gaussian2d_mask(48, 48, 2.0, seed=9)
        snrs = []
        for sigma in (0.01, 0.05, 0.2):
            rec = phantom.simulate_acquisition(img, maps, mask, sigma, seed=10,
                                               lesion_mask=lesion, wm_mask=wm)
            zf = mri.adjoint_op(rec.kspace, rec.maps, rec.mask)
            snrs.append(metrics.snr(np.abs(zf), rec.kspace))
        assert snrs[0] > snrs[1] > snrs[2]

    def test_default_family_varies_with_seed(self):
        a, _, _ = phantom.make_phantom(phantom.default_brain_spec(32, seed=1))
        b, _, _ = phantom.make_phantom(phantom.default_brain_spec(32, seed=2))
        assert not np.array_equal(a, b)
