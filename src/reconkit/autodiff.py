"""Tape-based reverse-mode automatic differentiation over numpy arrays.

A :class:`Tape` records every differentiable operation in execution order and
``backward`` replays the records in reverse, accumulating vector-Jacobian
products into each tensor's ``grad``.  Complex tensors are differentiated
through their real and imaginary parts: for a real-valued loss L and a complex
node z = a + ib the accumulated gradient is dL/da + i*dL/db, which is exactly
what gradient descent on the underlying real parametrization needs.

The op vocabulary is the fixed set the reconstruction networks use
(elementwise arithmetic, activations, complex pack/unpack, 2D convolution,
2x pooling/upsampling, reductions, concat/slice/reshape) plus ``linear``, one
node for any numpy linear operator given with its adjoint; the Fourier
transforms reach the tape only inside ``linear``.
There is no broadcasting beyond channel/bias expansion, no graph compiler and
no higher-order derivatives.  Tensors are value-semantic; a tape is
single-threaded while recording and during backward.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np


class GraphError(ValueError):
    """Contract violation in graph construction or backward."""


class Tape:
    """Ordered record of differentiable ops, replayed in reverse by backward."""

    __slots__ = ("_records",)

    def __init__(self) -> None:
        # each record: (op name, output tensor, input tensors, vjp callable)
        self._records: list[tuple[str, "Tensor", tuple["Tensor", ...], Callable]] = []

    def __len__(self) -> int:
        return len(self._records)

    def __bool__(self) -> bool:
        return True  # an empty tape is still a tape

    def record(self, op: str, out: "Tensor", inputs: tuple["Tensor", ...], vjp: Callable) -> None:
        out.node_id = len(self._records)
        self._records.append((op, out, inputs, vjp))


class Tensor:
    """A numpy array plus optional tape bookkeeping."""

    __slots__ = ("data", "grad", "tape", "requires_grad", "node_id")

    def __init__(self, data, tape: Tape | None = None, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.tape = tape
        self.requires_grad = requires_grad
        self.node_id: int | None = None

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

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, idx):
        return getitem(self, idx)


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else constant(x)


def constant(x) -> Tensor:
    return Tensor(np.asarray(x))


def leaf(x, tape: Tape) -> Tensor:
    """A trainable graph input: gradients accumulate on it during backward."""
    return Tensor(np.asarray(x), tape=tape, requires_grad=True)


def _find_tape(inputs: Iterable[Tensor]) -> Tape | None:
    for t in inputs:
        if t.tape is not None:
            return t.tape
    return None


def _apply(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, vjp: Callable) -> Tensor:
    needs = any(t.requires_grad for t in inputs)
    tape = _find_tape(inputs) if needs else None
    out = Tensor(out_data, tape=tape, requires_grad=needs and tape is not None)
    if out.requires_grad:
        tape.record(op, out, inputs, vjp)
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:
        t.grad = np.array(g, copy=True)
    else:
        t.grad = t.grad + g


def _match(g: np.ndarray, t: Tensor) -> np.ndarray:
    """Cast a gradient to the target tensor's domain (real targets get Re g)."""
    if np.iscomplexobj(g) and not np.iscomplexobj(t.data):
        g = g.real
    return _unbroadcast(g, t.data.shape)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
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
        g = out.grad
        if g is None:
            continue
        for t, gi in zip(inputs, vjp(g)):
            if gi is not None and t.requires_grad:
                _accumulate(t, gi)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        return (_match(g, a) if na else None, _match(g, b) if nb else None)

    return _apply("add", (a, b), a.data + b.data, vjp)


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        return (_match(g, a) if na else None, _match(-g, b) if nb else None)

    return _apply("sub", (a, b), a.data - b.data, vjp)


def neg(a) -> Tensor:
    a = astensor(a)

    def vjp(g):
        return (_match(-g, a),)

    return _apply("neg", (a,), -a.data, vjp)


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    na, nb = a.requires_grad, b.requires_grad
    ad, bd = a.data, b.data

    def vjp(g):
        ga = _match(g * np.conjugate(bd), a) if na else None
        gb = _match(g * np.conjugate(ad), b) if nb else None
        return (ga, gb)

    return _apply("mul", (a, b), ad * bd, vjp)


def div(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    na, nb = a.requires_grad, b.requires_grad
    ad, bd = a.data, b.data

    def vjp(g):
        ga = _match(g * np.conjugate(1.0 / bd), a) if na else None
        gb = _match(-g * np.conjugate(ad / (bd * bd)), b) if nb else None
        return (ga, gb)

    return _apply("div", (a, b), ad / bd, vjp)


# ---------------------------------------------------------------------------
# complex structure
# ---------------------------------------------------------------------------

def real(a) -> Tensor:
    a = astensor(a)

    def vjp(g):
        return (g.astype(a.data.dtype, copy=False) if np.iscomplexobj(a.data) else g,)

    return _apply("real", (a,), a.data.real.copy(), vjp)


def imag(a) -> Tensor:
    a = astensor(a)

    def vjp(g):
        return (1j * g if np.iscomplexobj(a.data) else np.zeros_like(g),)

    return _apply("imag", (a,), a.data.imag.copy(), vjp)


def make_complex(re, im) -> Tensor:
    re, im = astensor(re), astensor(im)
    nr, ni = re.requires_grad, im.requires_grad

    def vjp(g):
        return (g.real if nr else None, g.imag if ni else None)

    return _apply("make_complex", (re, im), re.data + 1j * im.data, vjp)


def absolute(a) -> Tensor:
    a = astensor(a)
    ad = a.data
    out = np.abs(ad)

    def vjp(g):
        # d|z| in the (Re, Im) parametrization is z/|z|; zero-safe at the origin
        denom = np.where(out == 0, 1.0, out)
        return (g * (ad / denom),)

    return _apply("abs", (a,), out, vjp)


# ---------------------------------------------------------------------------
# activations (real tensors)
# ---------------------------------------------------------------------------

def relu(a) -> Tensor:
    a = astensor(a)
    out = np.maximum(a.data, 0)

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

def reduce_sum(a, axis=None) -> Tensor:
    a = astensor(a)
    shape = a.data.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _apply("sum", (a,), a.data.sum(axis=axis), vjp)


def reduce_mean(a, axis=None) -> Tensor:
    a = astensor(a)
    shape = a.data.shape
    n = a.data.size if axis is None else shape[axis]

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g / n, shape).copy(),)
        g = np.expand_dims(g / n, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return _apply("mean", (a,), a.data.mean(axis=axis), vjp)


def concat(parts: Sequence, axis: int = 0) -> Tensor:
    ts = tuple(astensor(p) for p in parts)
    sizes = [t.data.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)
    needs = [t.requires_grad for t in ts]

    def vjp(g):
        out = []
        for t, n, o0, o1 in zip(ts, needs, offsets[:-1], offsets[1:]):
            if not n:
                out.append(None)
                continue
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(int(o0), int(o1))
            out.append(_match(g[tuple(sl)], t))
        return tuple(out)

    return _apply("concat", ts, np.concatenate([t.data for t in ts], axis=axis), vjp)


def getitem(a, idx) -> Tensor:
    a = astensor(a)

    def vjp(g):
        ga = np.zeros_like(a.data)
        ga[idx] = g
        return (ga,)

    return _apply("getitem", (a,), a.data[idx].copy(), vjp)


def reshape(a, shape) -> Tensor:
    a = astensor(a)
    orig = a.data.shape

    def vjp(g):
        return (g.reshape(orig),)

    return _apply("reshape", (a,), a.data.reshape(shape).copy(), vjp)


# ---------------------------------------------------------------------------
# linear operators
# ---------------------------------------------------------------------------

def linear(x, apply: Callable, adjoint: Callable) -> Tensor:
    """One node for a linear (or affine) map: out = apply(x.data), VJP = adjoint(g).

    `adjoint` is the adjoint of the linear part of `apply`.  Under the tape's
    dL/da + i*dL/db convention a complex-linear A back-propagates as A^H g
    with no extra conjugation.
    """
    x = astensor(x)

    def vjp(g):
        return (_match(adjoint(g), x),)

    return _apply("linear", (x,), apply(x.data), vjp)


# ---------------------------------------------------------------------------
# convolution and resampling (real tensors, channels-first)
# ---------------------------------------------------------------------------

def conv2d(x, kernel, bias) -> Tensor:
    """Same-size 2D cross-correlation with zero padding.

    x: (c_in, h, w), kernel: (c_out, c_in, k, k) with k odd, bias: (c_out,).
    A sum of k*k GEMMs, one per tap: in the padded image flattened to rows of
    width wp, tap (dy, dx) reads the slice at dy*wp + dx, and the 2*pad
    wrap-around columns of each output row are cropped.  An extra zero row
    at the bottom keeps the last slice in bounds.
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
    xp = np.pad(x.data, ((0, 0), (pad, pad + 1), (pad, pad))).reshape(c_in, -1)
    wk = kernel.data
    taps = [(dy, dx, dy * wp + dx) for dy in range(k) for dx in range(k)]

    acc = np.broadcast_to(bias.data[:, None], (c_out, n)).astype(np.result_type(xp, wk, bias.data))
    for dy, dx, o in taps:
        acc += wk[:, :, dy, dx] @ xp[:, o:o + n]
    out = acc.reshape(c_out, h, wp)[:, :, :w]

    nx, nk, nb = x.requires_grad, kernel.requires_grad, bias.requires_grad

    def vjp(g):
        gfull = np.pad(g, ((0, 0), (0, 0), (0, 2 * pad))).reshape(c_out, n)
        gx = gk = gb = None
        if nx:
            gxp = np.zeros(xp.shape, dtype=np.result_type(g, wk))
            for dy, dx, o in taps:
                gxp[:, o:o + n] += wk[:, :, dy, dx].T @ gfull
            gx = gxp.reshape(c_in, h + 2 * pad + 1, wp)[:, pad:pad + h, pad:pad + w]
        if nk:
            gk = np.empty(wk.shape, dtype=np.result_type(g, xp))
            for dy, dx, o in taps:
                gk[:, :, dy, dx] = gfull @ xp[:, o:o + n].T
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
        g4 = np.repeat(np.repeat(g, 2, axis=1), 2, axis=2) / 4.0
        return (g4,)

    return _apply("avg_pool2", (x,), out, vjp)


def upsample2(x) -> Tensor:
    """Nearest-neighbour 2x upsampling on (c, h, w)."""
    x = astensor(x)
    c, h, w = x.shape
    out = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)

    def vjp(g):
        return (g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)),)

    return _apply("upsample2", (x,), out, vjp)


# ---------------------------------------------------------------------------
# trainable parameter registry
# ---------------------------------------------------------------------------

class Parameter:
    """One named trainable array plus its optimizer state."""

    __slots__ = ("name", "value", "m", "v")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.array(value)
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None


class ParameterStore:
    """Ordered registry of named real-valued parameters."""

    def __init__(self) -> None:
        self._entries: dict[str, Parameter] = {}
        self.step_count = 0

    def add(self, name: str, value: np.ndarray) -> Parameter:
        if name in self._entries:
            raise GraphError(f"duplicate parameter name: {name}")
        if np.iscomplexobj(value):
            raise GraphError(f"parameters are stored as real tensors, got complex for {name}")
        p = Parameter(name, value)
        self._entries[name] = p
        return p

    def __getitem__(self, name: str) -> Parameter:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def n_parameters(self) -> int:
        return sum(p.value.size for p in self._entries.values())

    def leaves(self, tape: Tape, dtype=None) -> dict[str, Tensor]:
        """Fresh leaf tensors for one forward/backward pass."""
        out = {}
        for name, p in self._entries.items():
            v = p.value if dtype is None else p.value.astype(dtype, copy=False)
            out[name] = leaf(v, tape)
        return out

    def frozen(self, dtype=None) -> dict[str, Tensor]:
        """Constant tensors for inference (no tape, no gradients)."""
        out = {}
        for name, p in self._entries.items():
            v = p.value if dtype is None else p.value.astype(dtype, copy=False)
            out[name] = constant(v)
        return out

    def clamp(self, name: str, lo: float, hi: float) -> None:
        p = self._entries[name]
        np.clip(p.value, lo, hi, out=p.value)

    def copy_values(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._entries.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for name, v in values.items():
            if name not in self._entries:
                raise GraphError(f"unknown parameter in snapshot: {name}")
            p = self._entries[name]
            if p.value.shape != v.shape:
                raise GraphError(f"shape mismatch for {name}: {p.value.shape} vs {v.shape}")
            p.value = np.array(v, dtype=p.value.dtype)
