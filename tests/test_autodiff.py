"""Differentiable core: centered FFTs, conv, tape, parameter store."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconkit import autodiff as ad
from reconkit import fourier, networks, phantom

from conftest import finite_diff, rel_error, random_complex


def naive_dft2c(x):
    """Direct O(n^4) evaluation of the centered orthonormal DFT."""
    h, w = x.shape
    out = np.zeros((h, w), dtype=complex)
    ms = np.arange(h) - h // 2
    ns = np.arange(w) - w // 2
    for ki in range(h):
        for li in range(w):
            k, l = ki - h // 2, li - w // 2
            ph = np.exp(-2j * np.pi * (k * ms[:, None] / h + l * ns[None, :] / w))
            out[ki, li] = (x * ph).sum()
    return out / np.sqrt(h * w)


class TestFourier:
    def test_impulse_becomes_constant(self):
        x = np.zeros((4, 4), dtype=complex)
        x[2, 2] = 1.0
        k = fourier.fft2c(x)
        assert np.allclose(k, naive_dft2c(x), atol=1e-12)
        assert np.allclose(k, 0.25, atol=1e-12)

    def test_ones_becomes_centered_impulse(self):
        x = np.ones((2, 2), dtype=complex)
        k = fourier.fft2c(x)
        assert np.allclose(k, naive_dft2c(x), atol=1e-12)
        expected = np.zeros((2, 2), dtype=complex)
        expected[1, 1] = 2.0
        assert np.allclose(k, expected, atol=1e-12)

    def test_matches_naive_dft_on_random_input(self):
        x = random_complex(np.random.default_rng(0), (6, 5))
        assert np.allclose(fourier.fft2c(x), naive_dft2c(x), atol=1e-10)

    def test_roundtrip_random(self):
        x = random_complex(np.random.default_rng(1), (8, 8))
        back = fourier.ifft2c(fourier.fft2c(x))
        assert rel_error(back, x) < 1e-10

    def test_ifft_of_zero_is_zero(self):
        assert not fourier.ifft2c(np.zeros((4, 6), dtype=complex)).any()

    def test_adjoint_identity(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, (8, 8))
        b = random_complex(rng, (8, 8))
        lhs = np.vdot(b, fourier.fft2c(a))
        rhs = np.vdot(fourier.ifft2c(b), a)
        assert abs(lhs - rhs) / (np.linalg.norm(a) * np.linalg.norm(b)) < 1e-12

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            fourier.fft2c(np.zeros(5))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 64), st.integers(2, 64))
    def test_unitarity_property(self, seed, h, w):
        x = random_complex(np.random.default_rng(seed), (h, w))
        assert abs(np.linalg.norm(fourier.fft2c(x)) - np.linalg.norm(x)) <= 1e-10 * np.linalg.norm(x)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_linearity_property(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_complex(rng, (8, 8)), random_complex(rng, (8, 8))
        al, be = rng.standard_normal(2)
        lhs = fourier.fft2c(al * a + be * b)
        rhs = al * fourier.fft2c(a) + be * fourier.fft2c(b)
        assert rel_error(lhs, rhs) < 1e-12


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 6, 6))
        k = np.zeros((2, 2, 3, 3))
        k[0, 0, 1, 1] = 1.0
        k[1, 1, 1, 1] = 1.0
        out = ad.conv2d(ad.constant(x), ad.constant(k), ad.constant(np.zeros(2)))
        assert np.allclose(out.data, x, atol=1e-14)

    def test_zero_kernel_gives_bias(self):
        x = np.random.default_rng(4).standard_normal((3, 5, 5))
        bias = np.array([1.5, -2.0, 0.25])
        out = ad.conv2d(ad.constant(x), ad.constant(np.zeros((3, 3, 3, 3))), ad.constant(bias))
        assert np.allclose(out.data, bias[:, None, None] * np.ones((3, 5, 5)))

    def test_ones_kernel_zero_padding(self):
        # 3x3 ones over a 3x3 ones image: 9 in the middle, 4 in the corners
        x = np.ones((1, 3, 3))
        k = np.ones((1, 1, 3, 3))
        out = ad.conv2d(ad.constant(x), ad.constant(k), ad.constant(np.zeros(1))).data[0]
        assert out[1, 1] == pytest.approx(9.0)
        for corner in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert out[corner] == pytest.approx(4.0)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ad.GraphError):
            ad.conv2d(ad.constant(np.zeros((2, 4, 4))),
                      ad.constant(np.zeros((1, 3, 3, 3))), ad.constant(np.zeros(1)))

    def test_even_kernel_rejected(self):
        with pytest.raises(ad.GraphError):
            ad.conv2d(ad.constant(np.zeros((1, 4, 4))),
                      ad.constant(np.zeros((1, 1, 2, 2))), ad.constant(np.zeros(1)))

    def test_adjoint_identity_via_vjp(self):
        # conv is linear in x and in the kernel: <conv(x, k), b> = <x, gx> = <k, gk>
        # images smaller than the kernel, one row, one column, one pixel; and one float32
        # pass, whose sums of a few dozen products keep the identity to 1e-5
        rng = np.random.default_rng(5)
        cases = [(3, 5, 5), (1, 4, 6), (5, 4, 6), (5, 2, 3), (3, 1, 7), (3, 6, 1), (3, 1, 1)]
        for dtype, tol, (ksize, h, w) in ([(np.float64, 1e-8, c) for c in cases]
                                          + [(np.float32, 1e-5, (3, 5, 5))]):
            x = rng.standard_normal((2, h, w)).astype(dtype)
            k = rng.standard_normal((3, 2, ksize, ksize)).astype(dtype)
            b = rng.standard_normal((3, h, w)).astype(dtype)
            tape = ad.Tape()
            xt, kt = ad.leaf(x, tape), ad.leaf(k, tape)
            out = ad.conv2d(xt, kt, ad.constant(np.zeros(3, dtype)))
            loss = ad.reduce_sum(ad.mul(out, ad.constant(b)))
            ad.backward(loss)
            assert out.dtype == xt.grad.dtype == kt.grad.dtype == dtype
            lhs = np.vdot(out.data, b)
            assert abs(lhs - np.vdot(x, xt.grad)) / (np.linalg.norm(x) * np.linalg.norm(b)) < tol
            assert abs(lhs - np.vdot(k, kt.grad)) / (np.linalg.norm(k) * np.linalg.norm(b)) < tol

    def test_float32_stays_single_precision(self):
        rng = np.random.default_rng(6)
        tape = ad.Tape()
        x = ad.leaf(rng.standard_normal((2, 4, 6)).astype(np.float32), tape)
        k = ad.leaf(rng.standard_normal((3, 2, 3, 3)).astype(np.float32), tape)
        b = ad.leaf(rng.standard_normal(3).astype(np.float32), tape)
        out = ad.conv2d(x, k, b)
        ad.backward(ad.reduce_sum(ad.mul(out, out)))
        assert out.dtype == np.float32
        assert x.grad.dtype == k.grad.dtype == b.grad.dtype == np.float32


class TestBackwardContracts:
    def test_squared_norm_gradient(self):
        p0 = np.random.default_rng(6).standard_normal((4, 3))
        tape = ad.Tape()
        p = ad.leaf(p0, tape)
        loss = ad.reduce_sum(ad.mul(p, p))
        ad.backward(loss)
        assert np.allclose(p.grad, 2 * p0, atol=1e-12)

    def test_complex_magnitude_squared_gradient(self):
        # |z|^2 with z = a + ib as a two-channel leaf (a, b): gradients (2a, 2b)
        rng = np.random.default_rng(7)
        a0, b0 = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        tape = ad.Tape()
        z = ad.leaf(ad.complex_to_channels(a0 + 1j * b0), tape)
        m = ad.magnitude(z)
        loss = ad.reduce_sum(ad.mul(m, m))
        ad.backward(loss)
        assert np.allclose(z.grad[0], 2 * a0, atol=1e-10)
        assert np.allclose(z.grad[1], 2 * b0, atol=1e-10)

    def test_gradient_kept_in_tensor_dtype(self):
        # a float64 constant makes the VJP float64; the float32 leaf still gets float32
        tape = ad.Tape()
        x = ad.leaf(np.array([1.5, -2.0], dtype=np.float32), tape)
        y = ad.mul(x, np.array([3.0, 0.5]))
        ad.backward(ad.reduce_sum(ad.add(y, ad.mul(x, x))))
        assert y.dtype == y.grad.dtype == np.float64
        assert x.grad.dtype == np.float32
        assert np.array_equal(x.grad, np.array([6.0, -3.5], dtype=np.float32))

    def test_non_scalar_loss_rejected(self):
        tape = ad.Tape()
        p = ad.leaf(np.ones(3), tape)
        with pytest.raises(ad.GraphError):
            ad.backward(ad.mul(p, p))

    def test_complex_loss_rejected(self):
        tape = ad.Tape()
        p = ad.leaf(np.ones(2), tape)
        z = ad.add(p, 1j)
        with pytest.raises(ad.GraphError):
            ad.backward(ad.reduce_sum(z))

    def test_each_record_visited_once(self):
        tape = ad.Tape()
        x = ad.leaf(np.array([1.5, -0.5]), tape)
        y = ad.mul(x, x)
        z = ad.add(y, y)          # diamond: y consumed twice
        loss = ad.reduce_sum(z)
        calls = []
        patched = []
        for op, out, inputs, vjp in tape._records:
            def wrapped(g, _v=vjp, _op=op):
                calls.append(_op)
                return _v(g)
            patched.append((op, out, inputs, wrapped))
        tape._records = patched
        ad.backward(loss)
        assert len(calls) == len(set(id(r) for r in patched)) == len(patched)
        assert np.allclose(x.grad, 4 * x.data)

    def test_requires_grad_means_on_a_tape(self):
        tape = ad.Tape()
        x = ad.leaf(np.ones(2), tape)
        c = ad.constant(np.ones(2))
        on, off = ad.mul(c, x), ad.mul(c, c)
        assert x.requires_grad and on.requires_grad and on.tape is tape
        assert not c.requires_grad and not off.requires_grad and off.tape is None
        assert len(tape) == 1      # only the product that touches the leaf is recorded
        with pytest.raises(AttributeError):
            c.requires_grad = True

    def test_shared_gradient_array_never_changed_in_place(self):
        # add hands one array to both inputs as their first gradient, and each
        # input then gets a second contribution from an earlier record
        tape = ad.Tape()
        a = ad.leaf(np.array([1.0, -2.0]), tape)
        b = ad.leaf(np.array([0.5, 3.0]), tape)
        c, d, e = np.array([2.0, -1.0]), np.array([4.0, 0.25]), np.array([-3.0, 5.0])
        first = ad.add(ad.reduce_sum(ad.mul(a, d)), ad.reduce_sum(ad.mul(b, e)))
        s = ad.add(a, b)
        ad.backward(ad.add(first, ad.reduce_sum(ad.mul(s, c))))
        assert np.array_equal(a.grad, c + d)
        assert np.array_equal(b.grad, c + e)
        assert np.array_equal(s.grad, c)

    def test_clear_drops_records(self):
        tape = ad.Tape()
        x = ad.leaf(np.array([2.0, 3.0]), tape)
        ad.backward(ad.reduce_sum(ad.mul(x, x)))
        assert len(tape) == 2
        tape.clear()
        assert len(tape) == 0
        assert np.array_equal(x.grad, 2 * x.data)

    def test_gradient_through_reused_tensor(self):
        tape = ad.Tape()
        x = ad.leaf(np.array([2.0, 3.0]), tape)
        loss = ad.reduce_sum(ad.add(ad.mul(x, x), x))   # d/dx = 2x + 1
        ad.backward(loss)
        assert np.allclose(x.grad, 2 * x.data + 1)


def _fd_vs_autodiff(build, arrays, tol=1e-4, eps=1e-5):
    """Compare autodiff grads with central differences for real leaf arrays."""
    tape = ad.Tape()
    leaves = [ad.leaf(a, tape) for a in arrays]
    loss = build(*leaves)
    ad.backward(loss)

    def scalar(*arrs):
        consts = [ad.constant(a) for a in arrs]
        return float(build(*consts).data)

    fd = finite_diff(scalar, [a.astype(np.float64) for a in arrays], eps=eps)
    for leaf_t, g in zip(leaves, fd):
        assert rel_error(leaf_t.grad, g) < tol


_RNG = np.random.default_rng(2024)


def _r(*shape):
    return _RNG.standard_normal(shape)


def _loglik_case():
    """The networks' data-fidelity node on a 2-coil 4x4 random-mask problem."""
    keep = (_RNG.random((4, 4)) < 0.5).astype(float)
    keep[2, 2] = 1.0
    ops = networks._Operators(random_complex(_RNG, (2, 4, 4)), phantom.make_coils(2, 4, 4), keep)

    def build(x):
        return ad.reduce_sum(ad.absolute(ad.add(ops.loglik_gradient(x), 2.0)))

    return build, [_r(2, 4, 4)]


def _on_channels(f):
    return lambda v: ad.complex_to_channels(f(ad.channels_to_complex(v)))


OP_CASES = {
    "add": (lambda a, b: ad.reduce_sum(ad.mul(ad.add(a, b), ad.add(a, b))), [_r(4, 4), _r(4, 4)]),
    "sub": (lambda a, b: ad.reduce_sum(ad.mul(ad.sub(a, b), ad.sub(a, b))), [_r(4, 4), _r(4, 4)]),
    "mul": (lambda a, b: ad.reduce_sum(ad.mul(a, b)), [_r(4, 4), _r(4, 4)]),
    "mul_broadcast": (lambda a, b: ad.reduce_sum(ad.mul(ad.mul(a, b), ad.mul(a, b))),
                      [_r(3, 1, 1), _r(3, 4, 4)]),
    "div": (lambda a, b: ad.reduce_sum(ad.div(a, ad.add(ad.mul(b, b), 1.0))), [_r(4, 4), _r(4, 4)]),
    # the FFT is not self-adjoint, so a swapped apply/adjoint pair fails here
    "linear_fft": (lambda x: ad.reduce_sum(ad.mul(
        ad.linear(x, _on_channels(fourier.fft2c), _on_channels(fourier.ifft2c)),
        np.array([2.0, 1.0])[:, None, None])), [_r(2, 4, 4)]),
    "magnitude": (lambda x: ad.reduce_sum(ad.magnitude(ad.add(x, 3.0))), [_r(2, 4, 4)]),
    "absolute_real": (lambda a: ad.reduce_sum(ad.absolute(ad.add(a, 4.0))), [_r(4, 4)]),
    "relu": (lambda a: ad.reduce_sum(ad.relu(ad.add(a, 0.7))), [0.3 * _r(4, 4)]),
    "tanh": (lambda a: ad.reduce_sum(ad.tanh(a)), [_r(4, 4)]),
    "sigmoid": (lambda a: ad.reduce_sum(ad.sigmoid(a)), [_r(4, 4)]),
    "reduce_sum_axis": (lambda a: ad.reduce_sum(ad.mul(ad.reduce_sum(a, axis=0),
                                                       ad.reduce_sum(a, axis=0))), [_r(3, 4)]),
    "reduce_mean": (lambda a: ad.reduce_mean(ad.mul(a, a)), [_r(4, 4)]),
    "reduce_mean_axis": (lambda a: ad.reduce_sum(ad.mul(ad.reduce_mean(a, axis=1), 3.0)), [_r(3, 4)]),
    "concat": (lambda a, b: ad.reduce_sum(ad.mul(ad.concat([a, b], axis=0),
                                                 ad.concat([b, a], axis=0))), [_r(2, 3), _r(2, 3)]),
    "reshape": (lambda a: ad.reduce_sum(ad.mul(ad.reshape(a, (2, 8)), ad.reshape(a, (2, 8)))), [_r(4, 4)]),
    "conv2d": (lambda x, k, b: ad.reduce_sum(ad.mul(ad.conv2d(x, k, b), ad.conv2d(x, k, b))),
               [_r(2, 5, 5), _r(3, 2, 3, 3), _r(3)]),
    "avg_pool2": (lambda a: ad.reduce_sum(ad.mul(ad.avg_pool2(a), ad.avg_pool2(a))), [_r(2, 4, 4)]),
    "upsample2": (lambda a: ad.reduce_sum(ad.mul(ad.upsample2(a), ad.upsample2(a))), [_r(2, 3, 3)]),
    "linear": _loglik_case(),
    # the 1x1 gates and 5x5 input convolutions the networks run, on a
    # rectangular image so a wrong row stride cannot cancel out
    "conv2d_k1": (lambda x, k, b: ad.reduce_sum(ad.mul(ad.conv2d(x, k, b), ad.conv2d(x, k, b))),
                  [_r(2, 4, 6), _r(3, 2, 1, 1), _r(3)]),
    "conv2d_k5": (lambda x, k, b: ad.reduce_sum(ad.mul(ad.conv2d(x, k, b), ad.conv2d(x, k, b))),
                  [_r(2, 4, 6), _r(3, 2, 5, 5), _r(3)]),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradient_matches_finite_differences(name):
    build, arrays = OP_CASES[name]
    _fd_vs_autodiff(build, arrays)


class TestParameterStore:
    def test_duplicate_name_rejected(self):
        store = ad.ParameterStore()
        store.add("w", np.zeros(3))
        with pytest.raises(ad.GraphError):
            store.add("w", np.zeros(3))

    def test_complex_values_rejected(self):
        store = ad.ParameterStore()
        with pytest.raises(ad.GraphError):
            store.add("w", np.zeros(3, dtype=complex))

    def test_leaves_collect_roundtrip(self):
        store = ad.ParameterStore()
        store.add("w", np.array([1.0, 2.0]))
        tape = ad.Tape()
        leaves = store.leaves(tape)
        loss = ad.reduce_sum(ad.mul(leaves["w"], leaves["w"]))
        ad.backward(loss)
        assert np.allclose(leaves["w"].grad, [2.0, 4.0])


def _idle(tape: ad.Tape) -> list[int]:
    """The ids of the pool's buffers that only the pool holds (an id holds no reference)."""
    return [id(bufs[i]) for bufs in tape._pool.values() for i in range(len(bufs))
            if ad._refs(bufs, i) == ad._POOL_ONLY]


class TestBufferPool:
    def test_clear_takes_back_a_dropped_buffer(self):
        tape = ad.Tape()
        x = ad.leaf(np.arange(-4.0, 4.0), tape)
        ad.relu(x)
        assert _idle(tape) == []
        tape.clear()
        (buf_id,) = _idle(tape)
        assert id(ad.relu(x).data) == buf_id and _idle(tape) == []

    @pytest.mark.parametrize("keep", ["array", "view"])
    def test_clear_never_takes_back_a_kept_buffer(self, keep):
        tape = ad.Tape()
        x = ad.leaf(np.arange(-4.0, 4.0), tape)
        out = ad.relu(x).data
        kept = out if keep == "array" else out[2:5]
        before = kept.copy()
        del out
        tape.clear()
        again = ad.relu(ad.mul(x, -1.0))
        assert not np.shares_memory(again.data, kept)
        assert np.array_equal(kept, before)

    def test_second_pass_reuses_buffers_and_keeps_the_first_results(self):
        # a conv/relu/add/mul graph, twice on one tape: the second pass's results
        # land in the first pass's buffers, except those the caller kept
        rng = np.random.default_rng(12)
        tape = ad.Tape()
        w = ad.leaf(rng.standard_normal((3, 2, 3, 3)), tape)
        b = ad.leaf(rng.standard_normal(3), tape)

        def run(x0):
            h = ad.relu(ad.conv2d(ad.constant(x0), w, b))
            y = ad.add(ad.mul(h, h), h)
            ad.backward(ad.reduce_sum(y))
            return y.data, h.data[1]

        img, view = run(rng.standard_normal((2, 6, 5)))
        grad = w.grad
        kept = [img.copy(), view.copy(), grad.copy()]
        w.grad = b.grad = None
        tape.clear()
        free = len(_idle(tape))
        assert free > 0
        img2, _ = run(rng.standard_normal((2, 6, 5)))
        assert len(_idle(tape)) < free   # taken from the pool
        for a, before in zip((img, view, grad), kept):
            assert np.array_equal(a, before)
            assert not np.shares_memory(a, img2) and not np.shares_memory(a, w.grad)
