"""Tape-based reverse-mode automatic differentiation over numpy arrays.

A :class:`Tape` records every differentiable operation in execution order and
``backward`` replays the records in reverse, accumulating vector-Jacobian
products into each tensor's ``grad``, stored in that tensor's dtype.

The tape is real-only.  A complex image is a real ``(2, h, w)`` tensor,
channel 0 the real part and channel 1 the imaginary part;
:func:`complex_to_channels` and :func:`channels_to_complex` own that format.
Complex arrays live only inside ``linear`` (one node for any numpy linear
operator given with its adjoint, which is how the Fourier transforms and the
forward model reach the tape) and inside ``magnitude``.

The op vocabulary is the fixed set the reconstruction networks use
(elementwise arithmetic, activations, the magnitude of a two-channel image,
2D convolution, 2x pooling/upsampling, reductions, concat/reshape) plus
``linear``.
There is no broadcasting beyond channel/bias expansion, no graph compiler and
no higher-order derivatives.  Tensors are value-semantic; a tape is
single-threaded while recording and during backward.

A tape also owns a buffer pool keyed by (shape, dtype).  On a tape,
``conv2d`` (output, input gradient, scratch), ``add``, ``mul`` (output, VJP
products), ``relu`` and gradient accumulation take their arrays from it.  The
pool keeps every buffer it lends, and lends one again once nothing else
refers to it, directly or through a view.  Training builds the same graph
every step, so a tape kept across steps (``training.train`` keeps one per
epoch) hands step k+1 the memory of step k instead of fresh pages from the
OS.  Untaped passes allocate with ``np.empty``.
"""

from __future__ import annotations

import sys
from typing import Callable, Sequence

import numpy as np


class GraphError(ValueError):
    """Contract violation in graph construction or backward."""


def _refs(bufs: list, i: int) -> int:
    buf = bufs[i]
    return sys.getrefcount(buf)


# what _refs reads for a buffer that only the pool refers to
_POOL_ONLY = _refs([np.empty(0)], 0)


class Tape:
    """Ordered record of differentiable ops, replayed in reverse by backward.

    Its buffer pool lives as long as the tape: records are per pass, buffers
    are kept for the next pass on the same tape until the tape is dropped.
    """

    __slots__ = ("_records", "_pool")

    def __init__(self) -> None:
        # each record: (op name, output tensor, input tensors, vjp callable)
        self._records: list[tuple[str, "Tensor", tuple["Tensor", ...], Callable]] = []
        self._pool: dict[tuple, list[np.ndarray]] = {}     # (shape, dtype) -> every buffer lent

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        """Drop every record, and with them the graph's tensors and VJP closures.

        This breaks the cycle of a tape and the tensors it records.  The
        buffers only the records held are then idle in the pool; the rest (an
        image or a gradient the caller kept) are lent again once let go.
        """
        self._records.clear()

    def record(self, op: str, out: "Tensor", inputs: tuple["Tensor", ...], vjp: Callable) -> None:
        self._records.append((op, out, inputs, vjp))

    def _take(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        # the most recently lent idle buffer, likely still in cache; else a new one
        bufs = self._pool.setdefault((shape, dtype), [])
        for i in range(len(bufs) - 1, -1, -1):
            if _refs(bufs, i) == _POOL_ONLY:
                bufs.append(bufs.pop(i))
                return bufs[-1]
        bufs.append(np.empty(shape, dtype))
        return bufs[-1]


class Tensor:
    """A numpy array plus the tape it is recorded on, if any."""

    __slots__ = ("data", "grad", "tape")

    def __init__(self, data, tape: Tape | None = None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.tape = tape

    @property
    def requires_grad(self) -> bool:
        """A tensor gets a gradient exactly when it is on a tape."""
        return self.tape is not None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # arithmetic sugar; all the work happens in the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def constant(x) -> Tensor:
    return Tensor(np.asarray(x))


def leaf(x, tape: Tape) -> Tensor:
    """A trainable graph input: gradients accumulate on it during backward."""
    return Tensor(np.asarray(x), tape=tape)


def _tape_of(inputs: Sequence[Tensor]) -> Tape | None:
    return next((t.tape for t in inputs if t.tape is not None), None)


def _apply(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, vjp: Callable) -> Tensor:
    tape = _tape_of(inputs)
    out = Tensor(out_data, tape=tape)
    if tape is not None:
        tape.record(op, out, inputs, vjp)
    return out


def _empty(tape: Tape | None, shape, dtype) -> np.ndarray:
    """An uninitialised array: from the tape's pool, or np.empty when there is no tape."""
    if tape is None:
        return np.empty(shape, dtype)
    return tape._take(tuple(shape), np.dtype(dtype))


def _binary(tape: Tape | None, ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ufunc(a, b) written into a buffer from _empty: the same bits as the operator gives."""
    return ufunc(a, b, out=_empty(tape, np.broadcast_shapes(a.shape, b.shape),
                                  np.result_type(a, b)))


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add g into t.grad, kept in t's dtype (a float32 tensor gets a float32 gradient).

    No stored gradient is changed in place: a VJP may hand one array, or
    views of it, to several inputs, so the first write stores g itself and
    a later one stores a new sum.  The gradient a sum replaces is idle in the
    pool as soon as nothing else refers to it.
    """
    if t.grad is None:
        t.grad = g.astype(t.dtype, copy=False)
    else:
        t.grad = _binary(t.tape, np.add, t.grad, g).astype(t.dtype, copy=False)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g over the axes that broadcasting expanded to reach it from `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def backward(loss: Tensor) -> None:
    """Fill gradients of everything the (scalar, real) loss depends on."""
    if loss.data.size != 1:
        raise GraphError(f"loss must be scalar, got shape {loss.data.shape}")
    if np.iscomplexobj(loss.data):
        raise GraphError("loss must be real-valued")
    if loss.tape is None:
        raise GraphError("loss is not attached to a tape")
    loss.grad = np.ones_like(loss.data)
    for _op, out, inputs, vjp in reversed(loss.tape._records):
        if out.grad is not None:
            for t, gi in zip(inputs, vjp(out.grad)):
                if gi is not None and t.requires_grad:
                    _accumulate(t, gi)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        return (_unbroadcast(g, a.shape) if na else None, _unbroadcast(g, b.shape) if nb else None)

    return _apply("add", (a, b), _binary(_tape_of((a, b)), np.add, a.data, b.data), vjp)


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        return (_unbroadcast(g, a.shape) if na else None, _unbroadcast(-g, b.shape) if nb else None)

    return _apply("sub", (a, b), a.data - b.data, vjp)


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    na, nb = a.requires_grad, b.requires_grad
    ad, bd = a.data, b.data
    tape = _tape_of((a, b))

    def product_gradient(g, other, shape):
        return _unbroadcast(_binary(tape, np.multiply, g, other), shape)

    def vjp(g):
        ga = product_gradient(g, bd, a.shape) if na else None
        gb = product_gradient(g, ad, b.shape) if nb else None
        return (ga, gb)

    return _apply("mul", (a, b), _binary(tape, np.multiply, ad, bd), vjp)


def div(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    na, nb = a.requires_grad, b.requires_grad
    ad, bd = a.data, b.data

    def vjp(g):
        ga = _unbroadcast(g * (1.0 / bd), a.shape) if na else None
        gb = _unbroadcast(-g * (ad / (bd * bd)), b.shape) if nb else None
        return (ga, gb)

    return _apply("div", (a, b), ad / bd, vjp)


# ---------------------------------------------------------------------------
# two-channel images and magnitudes
# ---------------------------------------------------------------------------

def complex_to_channels(z: np.ndarray) -> np.ndarray:
    """Complex (h, w) image -> real (2, h, w): real part, imaginary part."""
    return np.stack([z.real, z.imag])


def channels_to_complex(x: np.ndarray) -> np.ndarray:
    """Real (2, h, w) image -> complex (h, w) image x[0] + i x[1]."""
    return x[0] + 1j * x[1]


def absolute(a) -> Tensor:
    a = astensor(a)
    ad = a.data

    def vjp(g):
        return (g * np.sign(ad),)

    return _apply("abs", (a,), np.abs(ad), vjp)


def magnitude(x) -> Tensor:
    """|x[0] + i x[1]| of a two-channel image, shape (h, w)."""
    x = astensor(x)
    xd = x.data
    out = np.abs(channels_to_complex(xd))

    def vjp(g):
        # d|z| with respect to (Re z, Im z) is z/|z|, zero-safe at the origin;
        # times the reciprocal, as numpy's complex division by a real computes it
        return (g * (xd * (1.0 / np.where(out == 0, 1.0, out))),)

    return _apply("magnitude", (x,), out, vjp)


# ---------------------------------------------------------------------------
# activations (real tensors)
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = astensor(a)
    out = np.maximum(a.data, 0, out=_empty(a.tape, a.shape, a.dtype))

    def vjp(g):
        return (g * (a.data > 0),)

    return _apply("relu", (a,), out, vjp)


def tanh(a) -> Tensor:
    a = astensor(a)
    out = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return _apply("tanh", (a,), out, vjp)


def sigmoid(a) -> Tensor:
    a = astensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _apply("sigmoid", (a,), out, vjp)


# ---------------------------------------------------------------------------
# reductions and structure
# ---------------------------------------------------------------------------

def _spread(g: np.ndarray, shape: tuple[int, ...], axis) -> np.ndarray:
    """g copied back over the axis a reduction removed (every axis for None)."""
    if axis is not None:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def reduce_sum(a, axis=None) -> Tensor:
    a = astensor(a)
    shape = a.data.shape

    def vjp(g):
        return (_spread(g, shape, axis),)

    return _apply("sum", (a,), a.data.sum(axis=axis), vjp)


def reduce_mean(a, axis=None) -> Tensor:
    a = astensor(a)
    shape = a.data.shape
    n = a.data.size if axis is None else shape[axis]

    def vjp(g):
        return (_spread(g / n, shape, axis),)

    return _apply("mean", (a,), a.data.mean(axis=axis), vjp)


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    ts = tuple(astensor(p) for p in parts)
    cuts = np.cumsum([t.data.shape[axis] for t in ts])[:-1]

    def vjp(g):    # views of g, one per input on the tape
        return tuple(part if t.requires_grad else None
                     for t, part in zip(ts, np.split(g, cuts, axis)))

    return _apply("concat", ts, np.concatenate([t.data for t in ts], axis=axis), vjp)


def reshape(a, shape) -> Tensor:
    a = astensor(a)
    orig = a.data.shape

    def vjp(g):
        return (g.reshape(orig),)

    return _apply("reshape", (a,), a.data.reshape(shape), vjp)


# ---------------------------------------------------------------------------
# linear operators
# ---------------------------------------------------------------------------

def linear(x, apply: Callable, adjoint: Callable) -> Tensor:
    """One node for a linear (or affine) map: out = apply(x.data), VJP = adjoint(g).

    `adjoint` is the adjoint of the linear part of `apply`.  A complex-linear
    A acting on two-channel images back-propagates as A^H with no extra
    conjugation: for a real loss L and z = a + ib, the pair of channel
    gradients read as dL/da + i*dL/db is the gradient with respect to z, and
    A^H maps the output's gradient to the input's.
    """
    x = astensor(x)

    def vjp(g):
        return (adjoint(g),)

    return _apply("linear", (x,), apply(x.data), vjp)


# ---------------------------------------------------------------------------
# convolution and resampling (real tensors, channels-first)
# ---------------------------------------------------------------------------

def conv2d(x, kernel, bias) -> Tensor:
    """Same-size 2D cross-correlation with zero padding.

    x: (c_in, h, w), kernel: (c_out, c_in, k, k) with k odd, bias: (c_out,).
    One correlation, a sum of k*k GEMMs, serves the forward pass and the
    input gradient.  An image is padded and flattened to rows of width wp,
    with one spare zero row; tap (dy, dx) reads the slice at dy*wp + dx, and
    the 2*pad wrap-around columns of each output row are cropped.  The input
    gradient correlates the padded output gradient g with the kernel flipped
    and its channel axes swapped; the kernel gradient reads g through a view
    of that padded g.  A 1x1 kernel is one GEMM on the input as it is.  The
    padded arrays and the one reused product buffer come from the tape's
    pool, and the padded image is rebuilt in the VJP rather than kept by it.
    """
    x, kernel, bias = astensor(x), astensor(kernel), astensor(bias)
    if x.ndim != 3 or kernel.ndim != 4:
        raise GraphError(f"conv2d expects (c_in,h,w) and (c_out,c_in,k,k), got {x.shape} and {kernel.shape}")
    c_out, c_in, k, k2 = kernel.shape
    if k != k2 or k % 2 == 0:
        raise GraphError(f"conv2d kernel must be square with odd size, got {kernel.shape}")
    if x.shape[0] != c_in:
        raise GraphError(f"channel mismatch: input has {x.shape[0]} channels, kernel expects {c_in}")
    if bias.shape != (c_out,):
        raise GraphError(f"bias must have shape ({c_out},), got {bias.shape}")
    _, h, w = x.shape
    pad = (k - 1) // 2
    wp = w + 2 * pad
    n = h * wp
    last = (k - 1) * (wp + 1)       # the offset of the final tap
    wk = kernel.data
    taps = [(dy, dx, dy * wp + dx) for dy in range(k) for dx in range(k)]
    tape = _tape_of((x, kernel, bias))

    def padded(a):
        # a (c, h, w) array as rows of width wp, inside a zero border plus a spare row
        if pad == 0:
            return a.reshape(a.shape[0], n)
        buf = _empty(tape, (a.shape[0], (h + 2 * pad + 1) * wp), a.dtype)
        buf.fill(0)
        buf.reshape(a.shape[0], -1, wp)[:, pad:pad + h, pad:pad + w] = a
        return buf

    def correlate(src, pairs, start=None):
        # [start +] the sum of mat @ src[:, o:o + n] over (mat, o), in order, as (c, h, wp);
        # the first product is written into the sum, so a 1x1 input gradient is one GEMM
        (mat, o), *rest = pairs
        dtype = np.result_type(src, mat) if start is None else np.result_type(src, mat, start)
        acc = np.matmul(mat, src[:, o:o + n], out=_empty(tape, (mat.shape[0], n), dtype))
        if start is not None:
            acc += start
        prod = _empty(tape, acc.shape, np.result_type(mat, src))
        for mat, o in rest:
            acc += np.matmul(mat, src[:, o:o + n], out=prod)
        return acc.reshape(-1, h, wp)

    out = correlate(padded(x.data), [(wk[:, :, dy, dx], o) for dy, dx, o in taps],
                    bias.data[:, None])[:, :, :w]

    nx, nk, nb = x.requires_grad, kernel.requires_grad, bias.requires_grad

    def vjp(g):
        gp = padded(g)
        gx = gk = gb = None
        if nx:
            gx = correlate(gp, [(wk[:, :, dy, dx].T, last - o) for dy, dx, o in taps])[:, :, :w]
        if nk:
            xp = padded(x.data)
            gn = gp[:, last // 2:last // 2 + n]     # g as rows of width wp
            gk = _empty(tape, wk.shape, np.result_type(g, xp))
            for dy, dx, o in taps:
                gk[:, :, dy, dx] = gn @ xp[:, o:o + n].T
        if nb:
            gb = g.sum(axis=(1, 2))
        return (gx, gk, gb)

    return _apply("conv2d", (x, kernel, bias), out, vjp)


def avg_pool2(x) -> Tensor:
    """2x2 average pooling on (c, h, w); h and w must be even."""
    x = astensor(x)
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise GraphError(f"avg_pool2 needs even spatial dims, got {x.shape}")
    out = x.data.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))

    def vjp(g):
        return (_repeat2(g) / 4.0,)

    return _apply("avg_pool2", (x,), out, vjp)


def upsample2(x) -> Tensor:
    """Nearest-neighbour 2x upsampling on (c, h, w)."""
    x = astensor(x)
    c, h, w = x.shape

    def vjp(g):
        return (g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)),)

    return _apply("upsample2", (x,), _repeat2(x.data), vjp)


def _repeat2(a: np.ndarray) -> np.ndarray:
    """Each pixel of a (c, h, w) array as a 2x2 block: nearest-neighbour upsampling."""
    return np.repeat(np.repeat(a, 2, axis=1), 2, axis=2)


# ---------------------------------------------------------------------------
# trainable parameter registry
# ---------------------------------------------------------------------------

class Parameter:
    """One named trainable array plus its optimizer state."""

    __slots__ = ("name", "value", "m", "v")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None


class ParameterStore:
    """Ordered registry of named real-valued parameters, all in one dtype: the model's precision."""

    def __init__(self, dtype="float64") -> None:
        self.dtype = np.dtype(dtype)
        self._entries: dict[str, Parameter] = {}
        self.step_count = 0

    def add(self, name: str, value: np.ndarray) -> Parameter:
        if name in self._entries:
            raise GraphError(f"duplicate parameter name: {name}")
        if np.iscomplexobj(value):
            raise GraphError(f"parameters are stored as real tensors, got complex for {name}")
        p = Parameter(name, np.array(value, dtype=self.dtype))
        self._entries[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._entries[name]

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def n_parameters(self) -> int:
        return sum(p.value.size for p in self._entries.values())

    def leaves(self, tape: Tape) -> dict[str, Tensor]:
        """Fresh leaf tensors for one forward/backward pass."""
        return {name: leaf(p.value, tape) for name, p in self._entries.items()}

    def frozen(self) -> dict[str, Tensor]:
        """Constant tensors for inference (no tape, no gradients)."""
        return {name: constant(p.value) for name, p in self._entries.items()}

    def clamp(self, name: str, lo: float, hi: float) -> None:
        p = self._entries[name]
        np.clip(p.value, lo, hi, out=p.value)

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._entries.items()}
