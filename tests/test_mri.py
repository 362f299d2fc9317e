"""Forward model: expand/reduce, forward/adjoint, noise, soft DC."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconkit import autodiff as ad
from reconkit import metrics, mri, networks, phantom, sampling
from reconkit.fourier import fft2c

from conftest import random_complex, rel_error


def _setup(seed=0, h=8, w=8, coils=3, acc=2.0):
    rng = np.random.default_rng(seed)
    x = random_complex(rng, (h, w))
    maps = phantom.make_coils(coils, h, w)
    mask = sampling.gaussian2d_mask(h, w, acc, seed=seed)
    return rng, x, maps, mask


class TestExpandReduce:
    def test_single_unit_coil_is_identity(self):
        x = random_complex(np.random.default_rng(1), (6, 6))
        maps = np.ones((1, 6, 6), dtype=complex)
        assert np.array_equal(mri.expand(x, maps)[0], x)
        assert np.array_equal(mri.reduce(mri.expand(x, maps), maps), x)

    def test_zero_image_gives_zero_stack(self):
        maps = phantom.make_coils(4, 5, 5)
        assert not mri.expand(np.zeros((5, 5), dtype=complex), maps).any()

    def test_reduce_expand_is_identity_with_normalized_maps(self):
        _, x, maps, _ = _setup(2)
        assert rel_error(mri.reduce(mri.expand(x, maps), maps), x) < 1e-12

    def test_reduce_conjugate_linearity_in_maps(self):
        rng, x, maps, _ = _setup(3)
        stack = mri.expand(x, maps)
        theta = 0.7
        rotated = mri.reduce(stack, maps * np.exp(1j * theta))
        assert rel_error(rotated, np.exp(-1j * theta) * mri.reduce(stack, maps)) < 1e-12

    def test_dim_mismatch(self):
        maps = phantom.make_coils(2, 4, 4)
        with pytest.raises(mri.DimensionError):
            mri.expand(np.zeros((5, 5), dtype=complex), maps)
        with pytest.raises(mri.DimensionError):
            mri.reduce(np.zeros((3, 4, 4), dtype=complex), maps)


class TestForwardAdjoint:
    def test_full_mask_unit_coil_forward_is_fft(self):
        x = random_complex(np.random.default_rng(4), (8, 8))
        maps = np.ones((1, 8, 8), dtype=complex)
        mask = sampling.full_mask(8, 8)
        assert rel_error(mri.forward_op(x, maps, mask)[0], fft2c(x)) < 1e-14

    def test_unsampled_entries_exactly_zero(self):
        _, x, maps, mask = _setup(5)
        y = mri.forward_op(x, maps, mask)
        assert not y[:, ~mask.keep.astype(bool)].any()

    def test_adjoint_identity_random(self):
        rng, x, maps, mask = _setup(6)
        y = random_complex(rng, maps.shape)
        lhs = np.vdot(y, mri.forward_op(x, maps, mask))
        rhs = np.vdot(mri.adjoint_op(y, maps, mask), x)
        assert abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(y)) < 1e-10

    def test_full_mask_roundtrip(self):
        _, x, maps, _ = _setup(7)
        mask = sampling.full_mask(8, 8)
        assert rel_error(mri.adjoint_op(mri.forward_op(x, maps, mask), maps, mask), x) < 1e-10

    def test_adjoint_of_zero_is_zero(self):
        _, _, maps, mask = _setup(8)
        assert not mri.adjoint_op(np.zeros(maps.shape, dtype=complex), maps, mask).any()

    def test_zero_filled_recon_shows_aliasing(self, small_record):
        rec = small_record
        zf = mri.adjoint_op(rec.kspace, rec.maps, rec.mask)
        score = metrics.ssim(np.abs(zf), np.abs(rec.reference))
        assert score < 1.0

    def test_mask_idempotent(self):
        _, _, _, mask = _setup(9)
        assert np.array_equal(mask.keep * mask.keep, mask.keep)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_linearity_superposition(self, seed):
        rng = np.random.default_rng(seed)
        h = w = 8
        maps = phantom.make_coils(2, h, w)
        mask = sampling.gaussian2d_mask(h, w, 2.0, seed=seed % 100)
        a, b = random_complex(rng, (h, w)), random_complex(rng, (h, w))
        al, be = rng.standard_normal(2)
        lhs = mri.forward_op(al * a + be * b, maps, mask)
        rhs = al * mri.forward_op(a, maps, mask) + be * mri.forward_op(b, maps, mask)
        assert rel_error(lhs, rhs) < 1e-11


class TestNoise:
    def test_sigma_zero_is_identity(self):
        rng, x, maps, mask = _setup(10)
        y = mri.forward_op(x, maps, mask)
        assert np.array_equal(mri.add_noise(y, 0.0, mask, seed=1), y)

    def test_negative_sigma_rejected(self):
        _, x, maps, mask = _setup(11)
        y = mri.forward_op(x, maps, mask)
        with pytest.raises(ValueError):
            mri.add_noise(y, -0.1, mask, seed=1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_named(self, sigma):
        _, x, maps, mask = _setup(11)
        y = mri.forward_op(x, maps, mask)
        with pytest.raises(ValueError, match="sigma"):
            mri.add_noise(y, sigma, mask, seed=1)

    def test_noise_only_at_sampled_positions(self):
        _, x, maps, mask = _setup(12)
        y = mri.forward_op(x, maps, mask)
        noisy = mri.add_noise(y, 0.5, mask, seed=2)
        off = ~mask.keep.astype(bool)
        assert np.array_equal(noisy[:, off], y[:, off])

    def test_empirical_std_within_two_percent(self):
        # >= 1e5 sampled points; complex std should be sigma
        mask = sampling.full_mask(320, 320)
        y = np.zeros((1, 320, 320), dtype=complex)
        sigma = 0.7
        noisy = mri.add_noise(y, sigma, mask, seed=3)
        measured = np.sqrt(np.mean(np.abs(noisy) ** 2))
        assert abs(measured - sigma) / sigma < 0.02

    def test_seed_determinism(self):
        _, x, maps, mask = _setup(13)
        y = mri.forward_op(x, maps, mask)
        a = mri.add_noise(y, 0.3, mask, seed=42)
        b = mri.add_noise(y, 0.3, mask, seed=42)
        assert np.array_equal(a, b)


def _soft_dc(x_hat, y, maps, mask, d):
    """The soft DC the networks run, on plain complex arrays."""
    ops = networks._Operators(y, maps, mask)
    out = ops.soft_dc(ad.constant(ad.complex_to_channels(x_hat)), ad.constant(np.full(1, d)))
    return ad.channels_to_complex(out.data)


class TestSoftDC:
    def test_d_zero_is_bitwise_identity(self):
        rng, x, maps, mask = _setup(14)
        y = mri.forward_op(x, maps, mask)
        x_hat = random_complex(rng, x.shape)
        assert np.array_equal(_soft_dc(x_hat, y, maps, mask, 0.0), x_hat)

    def test_d_one_keeps_consistent_prediction(self):
        _, x, maps, mask = _setup(15)
        y = mri.forward_op(x, maps, mask)
        # x is data-consistent with its own measurements
        out = _soft_dc(x, y, maps, mask, 1.0)
        assert rel_error(out, x) < 1e-12

    def test_d_one_from_zero_gives_zero_filled(self):
        _, x, maps, mask = _setup(16)
        y = mri.forward_op(x, maps, mask)
        out = _soft_dc(np.zeros_like(x), y, maps, mask, 1.0)
        assert rel_error(out, mri.adjoint_op(y, maps, mask)) < 1e-12

    def test_kspace_rule_hard_replacement(self):
        rng, x, maps, mask = _setup(17)
        y = mri.forward_op(x, maps, mask)
        k = random_complex(rng, y.shape)
        out = mri.soft_dc_kspace(k, y, mask, 1.0)
        on = mask.keep.astype(bool)
        assert np.abs(out[:, on] - y[:, on]).max() < 1e-12
        assert np.array_equal(out[:, ~on], k[:, ~on])

    def test_kspace_rule_linear_interpolation(self):
        rng, x, maps, mask = _setup(18)
        y = mri.forward_op(x, maps, mask)
        k = random_complex(rng, y.shape)
        on = mask.keep.astype(bool)
        base = np.abs(k[:, on] - y[:, on]).max()
        prev = np.inf
        for d in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = mri.soft_dc_kspace(k, y, mask, d)
            resid = np.abs(out[:, on] - y[:, on]).max()
            assert resid <= prev + 1e-12
            assert np.allclose(resid, (1 - d) * base, rtol=1e-9, atol=1e-12)
            prev = resid
