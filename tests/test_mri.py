"""Forward model: expand/reduce, forward/adjoint, the folded centring, noise, soft DC."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st

from reconkit import autodiff as ad
from reconkit import baselines, fourier, metrics, mri, networks, phantom, sampling
from reconkit.fourier import fft2c
from reconkit.schema import Seed, read_value

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


class TestMaskValues:
    @pytest.mark.parametrize("bad", [2.0, 0.5, -1.0, np.nan, np.inf])
    def test_keep_outside_zero_one_is_named(self, bad):
        keep = np.ones((4, 4))
        keep[1, 2] = bad
        with pytest.raises(ValueError, match="keep"):
            mri.SamplingMask(keep)

    # a raw keep array enters through mri._mask_array, and is held to the same rule
    @pytest.mark.parametrize("bad", [2.0, 3.0, -1.0, np.nan])
    @pytest.mark.parametrize("call", ["forward_op", "adjoint_op", "zero_filled", "cs_l1wavelet",
                                      "add_noise"])
    def test_raw_keep_outside_zero_one_is_named(self, small_record, call, bad):
        rec = small_record
        keep = rec.mask.keep.copy()
        keep[keep == 1] = bad
        calls = {
            "forward_op": lambda: mri.forward_op(rec.reference, rec.maps, keep),
            "adjoint_op": lambda: mri.adjoint_op(rec.kspace, rec.maps, keep),
            "zero_filled": lambda: baselines.zero_filled(rec.kspace, rec.maps, keep),
            "cs_l1wavelet": lambda: baselines.cs_l1wavelet(rec.kspace, rec.maps, keep,
                                                           max_iter=2),
            "add_noise": lambda: mri.add_noise(rec.kspace, 0.1, keep, seed=0),
        }
        with pytest.raises(ValueError, match="mask keep must hold only 0 and 1"):
            calls[call]()

    def test_raw_keep_without_samples_is_named(self, small_record):
        rec = small_record
        with pytest.raises(ValueError, match="mask keeps no samples"):
            mri.adjoint_op(rec.kspace, rec.maps, np.zeros(rec.mask.keep.shape))

    @pytest.mark.parametrize("dtype", [bool, np.float32, np.float64])
    def test_binary_keep_accepted(self, dtype):
        keep = np.eye(4, dtype=dtype)
        assert mri.SamplingMask(keep).n_kept == 4


# --- the folded centring against the roll form it replaces -------------------

def _roll_fft2c(v):
    axes = (-2, -1)
    return np.fft.fftshift(scipy.fft.fft2(np.fft.ifftshift(v, axes=axes), axes=axes,
                                          norm="ortho"), axes=axes)


def _roll_ifft2c(k):
    axes = (-2, -1)
    return np.fft.fftshift(scipy.fft.ifft2(np.fft.ifftshift(k, axes=axes), axes=axes,
                                           norm="ortho"), axes=axes)


# the products take named operands: numpy may reuse a large temporary right operand as
# the output and swap the operands, and its complex multiply is not bitwise commutative
def _roll_forward(x, maps, keep):
    k = _roll_fft2c(maps * x[None])
    return keep[None] * k


def _roll_adjoint(y, maps, keep):
    stack = _roll_ifft2c(keep[None] * y)
    return np.sum(np.conjugate(maps) * stack, axis=0)


def _operands(n, cdtype, mdtype=np.float64, coils=4, seed=0):
    rng = np.random.default_rng(seed)
    x = random_complex(rng, (n, n)).astype(cdtype)
    y = random_complex(rng, (coils, n, n)).astype(cdtype)
    maps = phantom.make_coils(coils, n, n).astype(cdtype)
    keep = sampling.gaussian2d_mask(n, n, 2.0, seed=seed).keep.astype(mdtype)
    return x, y, maps, keep


def _pairs(x, y, maps, keep):
    """(folded, roll reference) for each of the four functions."""
    return [(fft2c(y), _roll_fft2c(y)), (fourier.ifft2c(y), _roll_ifft2c(y)),
            (mri.forward_op(x, maps, keep), _roll_forward(x, maps, keep)),
            (mri.adjoint_op(y, maps, keep), _roll_adjoint(y, maps, keep))]


class TestFoldedCentring:
    @pytest.mark.parametrize("cdtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_power_of_two_sizes_are_bitwise_the_roll_form(self, n, cdtype):
        for got, want in _pairs(*_operands(n, cdtype)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("cdtype, tol", [(np.complex64, 1e-6), (np.complex128, 1e-14)])
    @pytest.mark.parametrize("n", [5, 7, 17, 18, 20, 31, 48])
    def test_other_sizes_match_the_roll_form(self, n, cdtype, tol):
        for got, want in _pairs(*_operands(n, cdtype)):
            assert got.dtype == want.dtype
            assert rel_error(got, want) < tol

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 10, 12, 17])
    def test_ramps_are_the_shift_theorem_phases(self, n):
        img, k = fourier.centring_ramps(n, 1, np.dtype(np.complex128))
        c = n // 2
        j = np.arange(n)
        want_img = np.exp(2j * np.pi * j * c / n)
        assert np.allclose(img[:, 0], want_img, rtol=0, atol=1e-14)
        assert np.allclose(k[:, 0], want_img * np.exp(-2j * np.pi * c * c / n), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n, constant", [(6, -1), (10, -1), (8, 1), (12, 1)])
    def test_even_ramps_are_exact_checkerboards(self, n, constant):
        img, k = fourier.centring_ramps(n, 4, np.dtype(np.complex128))
        sign = (-1.0) ** np.arange(n)
        assert np.array_equal(img, np.outer(sign, (-1.0) ** np.arange(4)))
        assert np.array_equal(k, constant * img)   # the w = 4 axis's own constant is +1
        assert not img.imag.any() and not k.imag.any()

    def test_ramps_are_cached_read_only_in_the_asked_dtype(self):
        for dtype in (np.complex64, np.complex128):
            ramps = fourier.centring_ramps(6, 7, np.dtype(dtype))
            assert ramps is fourier.centring_ramps(6, 7, np.dtype(dtype))
            for r in ramps:
                assert r.shape == (6, 7) and r.dtype == dtype and not r.flags.writeable


class TestResultDtypes:
    """The dtype numpy's promotion of the operands gives, as the plain products did."""

    @pytest.mark.parametrize("mdtype", [np.float32, np.float64, bool])
    @pytest.mark.parametrize("cdtype", [np.complex64, np.complex128])
    def test_operator_dtypes(self, cdtype, mdtype):
        x, y, maps, keep = _operands(16, cdtype, mdtype)
        want = np.result_type(keep, maps, np.complex64)
        assert mri.forward_op(x, maps, keep).dtype == want
        assert mri.adjoint_op(y, maps, keep).dtype == want
        assert fft2c(y).dtype == cdtype
        assert fourier.ifft2c(y).dtype == cdtype

    def test_single_precision_image_with_double_maps(self):
        x, y, maps, keep = _operands(16, np.complex64, np.float32)
        maps = maps.astype(np.complex128)
        assert mri.forward_op(x, maps, keep).dtype == np.complex128
        assert mri.adjoint_op(y, maps, keep).dtype == np.complex128

    def test_results_are_fresh_arrays(self):
        x, y, maps, keep = _operands(16, np.complex128)
        inputs = (x, y, maps, keep) + fourier.centring_ramps(16, 16, np.dtype(np.complex128))
        for _ in range(2):   # the second round would see a buffer the first one wrote to
            for got, want in _pairs(x, y, maps, keep):
                assert got.flags.writeable
                assert not any(np.shares_memory(got, a) for a in inputs)
                assert np.array_equal(got, want)
                got[...] = np.nan


# --- the one operator against the full-grid operators it replaced -------------

def _full_grid_times(a, b):
    return np.multiply(a, b, out=b if np.result_type(a, b) == b.dtype else None)


# verbatim copies of forward_op, adjoint_op and loglik_gradient before SenseOperator: each
# call rebuilt its operands and worked on the whole coil stack
def _full_grid_forward(x, maps, mask):
    x = np.asarray(x)
    maps = mri._check_maps(maps)
    m = mri._mask_array(mask)
    if x.shape != maps.shape[1:]:
        raise mri.DimensionError(f"image {x.shape} does not match maps {maps.shape}")
    if m.shape != x.shape:
        raise mri.DimensionError(f"mask {m.shape} does not match image {x.shape}")
    img_ramp, k_ramp = fourier.centring_ramps(*x.shape, np.result_type(x, maps, np.complex64))
    k = scipy.fft.fft2(mri.expand(img_ramp * x, maps), axes=(-2, -1), norm="ortho",
                       overwrite_x=True)
    return _full_grid_times(m * k_ramp, k)


def _full_grid_adjoint(y, maps, mask):
    y = np.asarray(y)
    maps = mri._check_maps(maps)
    m = mri._mask_array(mask)
    if y.shape != maps.shape:
        raise mri.DimensionError(f"k-space {y.shape} does not match maps {maps.shape}")
    if m.shape != y.shape[1:]:
        raise mri.DimensionError(f"mask {m.shape} does not match k-space {y.shape}")
    img_ramp, k_ramp = fourier.centring_ramps(*m.shape, np.result_type(m, y, np.complex64))
    stack = scipy.fft.ifft2((m * np.conjugate(k_ramp)) * y, axes=(-2, -1), norm="ortho",
                            overwrite_x=True)
    x = np.sum(_full_grid_times(np.conjugate(maps), stack), axis=0)
    return np.multiply(np.conjugate(img_ramp), x, out=x)


def _full_grid_loglik_gradient(x, y, maps, mask):
    k = _full_grid_forward(x, maps, mask)
    if k.shape != np.shape(y):
        raise mri.DimensionError(f"k-space {np.shape(y)} does not match prediction {k.shape}")
    return _full_grid_adjoint(k - y, maps, mask)


GRIDS = [(64, 64), (16, 16), (15, 15), (12, 20)]


def _record_operands(h, w, cdtype, coils=4, seed=0):
    """An image, measurements zero off the mask, maps and a 3x mask in the matching real dtype."""
    rng = np.random.default_rng(seed)
    keep = sampling.gaussian2d_mask(h, w, 3.0, seed=seed).keep.astype(
        np.finfo(cdtype).dtype)
    x = random_complex(rng, (h, w)).astype(cdtype)
    y = (random_complex(rng, (coils, h, w)) * keep).astype(cdtype)
    return x, y, phantom.make_coils(coils, h, w).astype(cdtype), keep


class TestSenseOperator:
    @pytest.mark.parametrize("cdtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("h, w", GRIDS, ids=[f"{h}x{w}" for h, w in GRIDS])
    def test_wrappers_are_bitwise_the_full_grid_operators(self, h, w, cdtype):
        x, y, maps, keep = _record_operands(h, w, cdtype)
        for got, want in [(mri.forward_op(x, maps, keep), _full_grid_forward(x, maps, keep)),
                          (mri.adjoint_op(y, maps, keep), _full_grid_adjoint(y, maps, keep)),
                          (mri.loglik_gradient(x, y, maps, keep),
                           _full_grid_loglik_gradient(x, y, maps, keep))]:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)     # a zero's sign may differ off the mask
        op = mri.SenseOperator(maps, keep)
        on = keep.astype(bool)
        assert op.sample(x).tobytes() == _full_grid_forward(x, maps, keep)[:, on].tobytes()
        assert op.adjoint(op.take(y)).tobytes() == _full_grid_adjoint(y, maps, keep).tobytes()

    @pytest.mark.parametrize("h, w", [(15, 15), (12, 20)])
    def test_sample_and_adjoint_are_an_adjoint_pair(self, h, w):
        rng = np.random.default_rng(h + w)
        maps = phantom.make_coils(3, h, w)
        op = mri.SenseOperator(maps, sampling.gaussian2d_mask(h, w, 2.0, seed=h))
        x = random_complex(rng, (h, w))
        v = random_complex(rng, (3, op.kept.size))
        lhs, rhs = np.vdot(v, op.sample(x)), np.vdot(op.adjoint(v), x)
        assert abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(v)) < 1e-12

    def test_take_picks_the_sampled_entries_in_order(self):
        rng, _, maps, mask = _setup(19)
        y = random_complex(rng, maps.shape)
        op = mri.SenseOperator(maps, mask)
        assert np.array_equal(op.take(y), y[:, mask.keep.astype(bool)])
        assert np.array_equal(mri.adjoint_op(y, maps, mask), op.adjoint(op.take(y)))

    def test_measurements_off_the_mask_are_not_read(self):
        rng, x, maps, mask = _setup(20)
        y = mri.forward_op(x, maps, mask)
        off = y.copy()
        off[:, ~mask.keep.astype(bool)] = np.nan
        assert np.array_equal(mri.adjoint_op(off, maps, mask), mri.adjoint_op(y, maps, mask))

    def test_shapes_that_do_not_fit_are_named(self):
        _, x, maps, mask = _setup(21)
        op = mri.SenseOperator(maps, mask)
        with pytest.raises(mri.DimensionError, match="image"):
            op.sample(x[:4])
        with pytest.raises(mri.DimensionError, match="sampled k-space"):
            op.adjoint(np.zeros((len(maps), op.kept.size + 1), complex))
        with pytest.raises(mri.DimensionError, match="k-space"):
            op.take(np.zeros((1, 8, 8), complex))
        with pytest.raises(mri.DimensionError, match="mask"):
            mri.SenseOperator(maps, np.ones((8, 7)))
        with pytest.raises(mri.DimensionError, match="at least one coil"):
            mri.SenseOperator(maps[:0], mask)


class TestOperatorMemory:
    @pytest.mark.parametrize("op", ["forward_op", "adjoint_op"])
    def test_peak_is_at_most_two_and_a_half_coil_stacks(self, op):
        x, y, maps, keep = _operands(64, np.complex128)
        arg = x if op == "forward_op" else y
        getattr(mri, op)(arg, maps, keep)   # the ramps are cached on the first call
        tracemalloc.start()
        try:
            getattr(mri, op)(arg, maps, keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * maps.nbytes


def _add_noise_two_draws(y, sigma, mask, seed):
    """`mri.add_noise` as it was with two draws and boolean gathers, kept as the reference."""
    read_value(Seed, seed, "seed", ValueError)
    if not 0 <= sigma < np.inf:
        raise ValueError(f"sigma (the noise level) must be finite and non-negative, got {sigma}")
    y = np.asarray(y)
    if sigma == 0:
        return y.copy()
    m = mri._mask_array(mask).astype(bool)
    rng = np.random.default_rng(seed)
    scale = sigma / np.sqrt(2.0)
    # drawn over the whole grid, so the noise at a position does not depend on the mask
    re, im = rng.standard_normal(y.shape), rng.standard_normal(y.shape)
    out = y.copy()
    out[:, m] = out[:, m] + scale * (re[:, m] + 1j * im[:, m])
    return out


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

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_matches_the_full_grid_formula(self, dtype):
        # noise drawn over the whole grid, added at the sampled positions
        _, x, maps, mask = _setup(14)
        y = mri.forward_op(x, maps, mask).astype(dtype)
        rng = np.random.default_rng(5)
        noise = 0.3 / np.sqrt(2.0) * (rng.standard_normal(y.shape)
                                      + 1j * rng.standard_normal(y.shape))
        want = y.copy()
        m = mask.keep.astype(bool)
        want[:, m] = want[:, m] + noise[:, m]
        got = mri.add_noise(y, 0.3, mask, seed=5)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("keep_dtype", [np.float64, np.float32, bool])
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_matches_the_two_draw_version(self, dtype, keep_dtype, sigma):
        # one draw of both parts, indexed by flat position, keeps every byte
        for seed in (0, 1, 7, 123):
            _, x, maps, mask = _setup(seed, h=12, w=10, coils=4)
            y = mri.forward_op(x, maps, mask).astype(dtype)
            keep = mask.keep.astype(keep_dtype)
            got, want = mri.add_noise(y, sigma, keep, seed), _add_noise_two_draws(y, sigma, keep,
                                                                                    seed)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_mask_of_another_grid_is_named(self):
        _, x, maps, mask = _setup(15)
        y = mri.forward_op(x, maps, mask)
        with pytest.raises(mri.DimensionError, match="does not match mask"):
            mri.add_noise(y, 0.3, np.ones((4, 16)), seed=0)

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
