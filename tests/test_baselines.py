"""Zero-filled and compressed-sensing baselines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconkit import baselines, metrics, mri, phantom, sampling

from conftest import random_complex, rel_error
from test_mri import _full_grid_adjoint, _full_grid_forward


class TestSoftThreshold:
    def test_zero_threshold_is_identity(self):
        v = np.random.default_rng(0).standard_normal(50)
        assert np.array_equal(baselines.soft_threshold(v, 0.0), v)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-100, 100), st.floats(0, 50))
    def test_matches_definition(self, v, t):
        out = baselines.soft_threshold(np.array([v]), t)[0]
        assert out == pytest.approx(np.sign(v) * max(abs(v) - t, 0.0), abs=1e-12)

    def test_shrinks_toward_zero(self):
        v = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        out = baselines.soft_threshold(v, 1.0)
        assert np.array_equal(out, [-2.0, 0.0, 0.0, 0.0, 2.0])


class TestWavelet:
    def test_orthogonality_norm_preserved(self):
        x = np.random.default_rng(1).standard_normal((32, 32))
        c = baselines.wavelet2(x, levels=3)
        assert abs(np.linalg.norm(c) - np.linalg.norm(x)) < 1e-10 * np.linalg.norm(x)

    def test_perfect_reconstruction(self):
        x = np.random.default_rng(2).standard_normal((64, 32))
        back = baselines.iwavelet2(baselines.wavelet2(x, levels=3), levels=3)
        assert rel_error(back, x) < 1e-10

    # every level size of 64 and of the padded 20 -> 24 case, and the smallest level
    @pytest.mark.parametrize("n", [64, 32, 16, 24, 12, 6, 2])
    def test_level_matrix_orthogonal(self, n):
        m = baselines._level_matrix(n)
        assert np.abs(m @ m.T - np.eye(n)).max() < 1e-12
        assert not m.flags.writeable

    def test_level_matches_windowed_definition(self):
        x = np.random.default_rng(4).standard_normal(8)
        n = x.size
        lo = [sum(baselines.DB4_LO[k] * x[(2 * i + k) % n] for k in range(4)) for i in range(n // 2)]
        hi = [sum(baselines.DB4_HI[k] * x[(2 * i + k) % n] for k in range(4)) for i in range(n // 2)]
        assert np.allclose(baselines._level_matrix(n) @ x, lo + hi, rtol=0, atol=1e-14)

    def test_stack_equals_slices(self):
        # real and imaginary parts go through one call as a (2, h, w) stack
        x = np.random.default_rng(5).standard_normal((2, 24, 16))
        for transform in (baselines.wavelet2, baselines.iwavelet2):
            stacked = transform(x)
            for part in range(2):
                assert np.allclose(stacked[part], transform(x[part]), rtol=0, atol=1e-13)
        assert rel_error(baselines.iwavelet2(baselines.wavelet2(x)), x) < 1e-10

    def test_transpose_identity(self):
        # <Wx, c> == <x, W^T c> makes synthesis the exact transpose
        rng = np.random.default_rng(3)
        x = rng.standard_normal((16, 16))
        c = rng.standard_normal((16, 16))
        lhs = np.vdot(baselines.wavelet2(x), c)
        rhs = np.vdot(x, baselines.iwavelet2(c))
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_indivisible_shape_rejected(self):
        with pytest.raises(ValueError):
            baselines.wavelet2(np.zeros((12, 12)), levels=3)
        with pytest.raises(ValueError):
            baselines.iwavelet2(np.zeros((12, 12)), levels=3)

    def test_constant_concentrates_in_approximation(self):
        c = baselines.wavelet2(np.ones((16, 16)), levels=3)
        detail = c.copy()
        detail[:2, :2] = 0
        assert np.abs(detail).max() < 1e-10


def operator_norm_estimate(maps, mask, iters=30, seed=0):
    """Largest singular value of the forward operator, by power iteration."""
    h, w = maps.shape[-2:]
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


class TestOperatorNorm:
    def test_norm_at_most_one(self):
        for seed in (0, 1, 2):
            maps = phantom.make_coils(4, 24, 24)
            mask = sampling.gaussian2d_mask(24, 24, 3.0, seed=seed)
            norm = operator_norm_estimate(maps, mask, seed=seed)
            assert norm <= 1.0 + 1e-6

    def test_full_mask_norm_is_one(self):
        maps = phantom.make_coils(3, 16, 16)
        mask = sampling.full_mask(16, 16)
        assert operator_norm_estimate(maps, mask) == pytest.approx(1.0, abs=1e-6)


class TestZeroFilled:
    def test_equals_adjoint(self, small_record):
        rec = small_record
        assert np.array_equal(baselines.zero_filled(rec.kspace, rec.maps, rec.mask),
                              mri.adjoint_op(rec.kspace, rec.maps, rec.mask))

    def test_full_mask_recovers_reference(self):
        spec = phantom.default_brain_spec(32, seed=4)
        img, _, _ = phantom.make_phantom(spec)
        maps = phantom.make_coils(3, 32, 32)
        mask = sampling.full_mask(32, 32)
        rec = phantom.simulate_acquisition(img, maps, mask, 0.0, seed=5)
        zf = baselines.zero_filled(rec.kspace, rec.maps, rec.mask)
        assert rel_error(zf, rec.reference) < 1e-10

    def test_linear_in_measurements(self):
        rec_rng = np.random.default_rng(6)
        maps = phantom.make_coils(2, 16, 16)
        mask = sampling.gaussian2d_mask(16, 16, 2.0, seed=7)
        a = random_complex(rec_rng, (2, 16, 16))
        b = random_complex(rec_rng, (2, 16, 16))
        lhs = baselines.zero_filled(2.0 * a + 3.0 * b, maps, mask)
        rhs = 2.0 * baselines.zero_filled(a, maps, mask) + 3.0 * baselines.zero_filled(b, maps, mask)
        assert rel_error(lhs, rhs) < 1e-12


def two_forward_fista(y, maps, mask, alpha=baselines.CS_ALPHA, max_iter=baselines.CS_MAX_ITER,
                      levels=3, tol=1e-6, history=None):
    """Reference monotone FISTA that runs A twice per iteration, for the gradient at z
    and for the objective at the candidate, and takes the candidate's wavelet l1 from
    its own analysis."""
    def objective(x):
        r = mri.forward_op(x, maps, mask) - y
        f = 0.5 * float(np.sum(np.abs(r) ** 2))
        if alpha > 0:
            f += alpha * baselines._wavelet_l1(x, levels)
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
        u = z - mri.loglik_gradient(z, y, maps, mask)
        cand = baselines._wavelet_shrink(u, alpha, levels)[0] if alpha > 0 else u
        f_cand = objective(cand)
        x_prev = x
        if f_cand <= fx:
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


def padded_record():
    """20x20, 2 coils: not divisible by 8, so CS pads symmetrically before the wavelet."""
    spec = phantom.PhantomSpec(size=20, ellipses=[phantom.Ellipse(0, 0, 0.7, 0.7, 0, 0.8)])
    img, _, _ = phantom.make_phantom(spec)
    maps = phantom.make_coils(2, 20, 20)
    mask = sampling.gaussian2d_mask(20, 20, 2.0, seed=10)
    return phantom.simulate_acquisition(img, maps, mask, 0.01, seed=11)


class TestCsL1Wavelet:
    def test_alpha_zero_full_mask_recovers_reference(self):
        spec = phantom.default_brain_spec(32, seed=8)
        img, _, _ = phantom.make_phantom(spec)
        maps = phantom.make_coils(3, 32, 32)
        mask = sampling.full_mask(32, 32)
        rec = phantom.simulate_acquisition(img, maps, mask, 0.0, seed=9)
        x = baselines.cs_l1wavelet(rec.kspace, rec.maps, rec.mask, alpha=0.0, max_iter=60)
        zf = mri.adjoint_op(rec.kspace, rec.maps, rec.mask)
        assert rel_error(x, zf) < 1e-3

    def test_objective_monotone_nonincreasing(self, desk_record):
        rec = desk_record
        history = []
        baselines.cs_l1wavelet(rec.kspace, rec.maps, rec.mask, alpha=0.005,
                               max_iter=60, history=history)
        diffs = np.diff(history)
        assert (diffs <= 1e-10).all()

    def test_beats_zero_filled_at_4x(self, desk_record):
        rec = desk_record
        ref = np.abs(rec.reference)
        zf = np.abs(baselines.zero_filled(rec.kspace, rec.maps, rec.mask))
        cs = np.abs(baselines.cs_l1wavelet(rec.kspace, rec.maps, rec.mask))
        gain = metrics.ssim(cs, ref) - metrics.ssim(zf, ref)
        assert gain >= 0.03

    def test_negative_alpha_rejected(self, small_record):
        rec = small_record
        with pytest.raises(ValueError):
            baselines.cs_l1wavelet(rec.kspace, rec.maps, rec.mask, alpha=-1.0)

    @pytest.mark.parametrize("option, name", [
        ({"alpha": float("nan")}, "alpha"), ({"alpha": float("inf")}, "alpha"),
        ({"max_iter": -1}, "max_iter"), ({"max_iter": 1.5}, "max_iter"),
        ({"alpha": "0.1"}, "alpha"), ({"max_iter": True}, "max_iter"),
    ], ids=["alpha_nan", "alpha_inf", "max_iter_negative", "max_iter_fraction", "alpha_text",
            "max_iter_true"])
    def test_argument_out_of_range_is_named(self, small_record, option, name):
        rec = small_record
        with pytest.raises(ValueError, match=f"^{name} "):
            baselines.cs_l1wavelet(rec.kspace, rec.maps, rec.mask, **option)

    def test_non_power_of_two_padding(self):
        rec = padded_record()
        x = baselines.cs_l1wavelet(rec.kspace, rec.maps, rec.mask, max_iter=10)
        assert x.shape == (20, 20)
        assert np.isfinite(x).all()

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_one_forward_and_one_adjoint_per_iteration(self, small_record, monkeypatch, n):
        calls = {"sample": 0, "adjoint": 0}
        for name in calls:
            op = getattr(mri.SenseOperator, name)

            def counted(self, *args, _op=op, _name=name):
                calls[_name] += 1
                return _op(self, *args)
            monkeypatch.setattr(mri.SenseOperator, name, counted)
        rec = small_record
        history = []
        monkeypatch.setattr(baselines, "CS_TOL", 0.0)
        baselines.cs_l1wavelet(rec.kspace, rec.maps, rec.mask, max_iter=n, history=history)
        assert len(history) == 1 + n
        assert calls == {"sample": 1 + n, "adjoint": 1 + n}

    @pytest.mark.parametrize("n", [0, 1, 7])
    @pytest.mark.parametrize("case, per_iteration", [("unpadded", 1), ("padded_20x20", 2)])
    def test_wavelet_analyses_per_iteration(self, small_record, monkeypatch, n, case,
                                            per_iteration):
        calls = []
        wavelet2 = baselines.wavelet2

        def counted(*args):
            calls.append(1)
            return wavelet2(*args)
        monkeypatch.setattr(baselines, "wavelet2", counted)
        rec = padded_record() if case == "padded_20x20" else small_record
        history = []
        monkeypatch.setattr(baselines, "CS_TOL", 0.0)
        baselines.cs_l1wavelet(rec.kspace, rec.maps, rec.mask, max_iter=n, history=history)
        assert len(history) == 1 + n
        assert len(calls) == 1 + per_iteration * n

    @pytest.mark.parametrize("case", ["desk", "padded_20x20", "alpha_zero"])
    def test_matches_two_forward_reference(self, desk_record, case):
        rec = padded_record() if case == "padded_20x20" else desk_record
        options = {"alpha": 0.0} if case == "alpha_zero" else {}
        got_history, want_history = [], []
        got = baselines.cs_l1wavelet(rec.kspace, rec.maps, rec.mask, history=got_history,
                                     **options)
        want = two_forward_fista(rec.kspace, rec.maps, rec.mask, history=want_history,
                                 **options)
        assert rel_error(got, want) < 1e-12
        np.testing.assert_allclose(got_history, want_history, rtol=1e-12, atol=0)

    def test_measurements_off_the_mask_change_nothing(self, small_record):
        # the data term sums the residual over the sampled entries only
        rec = small_record
        off = rec.kspace + (1 - rec.mask.keep)
        got_history, want_history = [], []
        got = baselines.cs_l1wavelet(off, rec.maps, rec.mask, max_iter=5, history=got_history)
        want = baselines.cs_l1wavelet(rec.kspace, rec.maps, rec.mask, max_iter=5,
                                      history=want_history)
        assert got.tobytes() == want.tobytes()
        assert got_history == want_history

    @pytest.mark.parametrize("case", ["desk", "padded_20x20", "alpha_zero"])
    def test_bitwise_the_full_grid_solver(self, desk_record, case):
        rec = padded_record() if case == "padded_20x20" else desk_record
        options = {"alpha": 0.0} if case == "alpha_zero" else {}
        got_history, want_history = [], []
        got = baselines.cs_l1wavelet(rec.kspace, rec.maps, rec.mask, history=got_history,
                                     **options)
        want = full_grid_cs(rec.kspace, rec.maps, rec.mask, history=want_history, **options)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # the data term now sums over fewer entries, in another order
        np.testing.assert_allclose(got_history, want_history, rtol=1e-13, atol=0)


def full_grid_soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def full_grid_wavelet_shrink(x, t, levels):
    h, w = x.shape
    c = full_grid_soft_threshold(baselines._coefficients(x, levels), t)
    re, im = baselines.iwavelet2(c, levels)[:, :h, :w]
    return re + 1j * im, float(np.abs(c).sum())


def full_grid_cs(y, maps, mask, alpha=baselines.CS_ALPHA, max_iter=baselines.CS_MAX_ITER,
                 history=None):
    """A verbatim copy of cs_l1wavelet before SenseOperator, over the verbatim full-grid
    operators: its residuals are whole coil stacks."""
    if not (np.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and non-negative, got {alpha}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be non-negative, got {max_iter}")

    def objective(r, l1):
        return 0.5 * float(np.sum(np.abs(r) ** 2)) + alpha * l1

    def residual(x):
        r = _full_grid_forward(x, maps, mask)
        r -= y
        return r

    x = _full_grid_adjoint(y, maps, mask)
    padded = any(n % (1 << baselines.CS_LEVELS) for n in x.shape)
    r_x = residual(x)
    z, r_z = x, r_x
    t = 1.0
    fx = objective(r_x, baselines._wavelet_l1(x, baselines.CS_LEVELS) if alpha > 0 else 0.0)
    if history is not None:
        history.append(fx)
    cand_prev = None
    for _ in range(max_iter):
        u = z - _full_grid_adjoint(r_z, maps, mask)   # unit step: ||A|| <= 1 by construction
        if alpha > 0:
            cand, l1 = full_grid_wavelet_shrink(u, alpha, baselines.CS_LEVELS)
            if padded:
                l1 = baselines._wavelet_l1(cand, baselines.CS_LEVELS)
        else:
            cand, l1 = u, 0.0
        r_cand = residual(cand)
        f_cand = objective(r_cand, l1)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        x_prev, r_prev = x, r_x
        if f_cand <= fx:                   # monotone selection
            x, r_x, fx = cand, r_cand, f_cand
            step, r_z = (t - 1.0) / t_next, r_prev
        else:
            step, r_z = t / t_next, r_cand
        z = x + step * (cand - x_prev)
        np.subtract(r_cand, r_prev, out=r_z)
        r_z *= step
        r_z += r_x
        t = t_next
        if history is not None:
            history.append(fx)
        if cand_prev is not None:
            denom = np.linalg.norm(cand)
            if denom > 0 and np.linalg.norm(cand - cand_prev) / denom < baselines.CS_TOL:
                break
        cand_prev = cand
    return x
