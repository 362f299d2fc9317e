"""Unrolled reconstruction networks.

The recurrent reconstructor family runs a fixed number of unrolled update
iterations.  Each iteration feeds the data-fidelity gradient A*(A(x) - y)
together with the current estimate into a small convolutional recurrent cell
(GRU or IndRNN) that emits an additive image update, so data consistency is
enforced implicitly through the gradient input.  Cascading
stacks several independently parametrized blocks; an optional explicit soft
data-consistency step interpolates sampled k-space toward the measurements
after each cascade.  The variational-cascade baseline replaces the recurrent
regularizer with a small encoder-decoder convnet.  Both run one cascade loop.

All forward passes are built from :mod:`reconkit.autodiff` ops, so the same
code serves initialisation and loading (each parameter drawn or loaded where
the pass first uses it), seeded inference (constant parameters, no tape) and
training (leaf parameters on a tape).  The running image is a real two-channel
``(2, h, w)`` tensor (real part, imaginary part) from the zero-filled start
to the output, so it feeds the convolutions as it is.  The forward model
itself is not rebuilt here: each forward pass builds one
:class:`reconkit.mri.SenseOperator` and keeps the measurements on its
sampled entries, and the data-fidelity gradient A*(A(x) - y) goes on the
tape as one ``autodiff.linear`` node whose VJP is the normal operator A*A;
it is the one place the image is complex.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from typing import Literal, NamedTuple

import numpy as np

from . import autodiff as ad
from . import mri
from .autodiff import ParameterStore, Tensor
from .schema import Count, Seed, check, read_fields, read_value


class DivergedError(RuntimeError):
    """The unrolled reconstruction or a training step produced non-finite values."""


class ConfigError(ValueError):
    """Invalid network configuration."""


@dataclass(frozen=True)
class RimCellConfig:
    channels: Count = 64
    kernel_sizes: tuple[Count, Count, Count] = (5, 3, 3)
    unit: Literal["gru", "indrnn"] | None = None      # None: the model kind's
    iterations: Count = 8

    def __post_init__(self):
        check(self, ConfigError)
        if not all(k % 2 for k in self.kernel_sizes):
            raise ConfigError(f"kernel_sizes must be odd, got {self.kernel_sizes}")


@dataclass(frozen=True)
class CascadeConfig:
    n_cascades: Count | None = None   # None: the model kind's
    explicit_dc: bool | None = None   # None: the model kind's
    dc_weight_init: float = 0.5
    share_params: bool = False

    def __post_init__(self):
        check(self, ConfigError)


@dataclass(frozen=True)
class UnetConfig:
    pools: Count = 4
    channels: Count = 18

    def __post_init__(self):
        check(self, ConfigError)


class KindDefaults(NamedTuple):
    unit: str | None    # recurrent unit; None: VarNet's convnet, with no gradient input
    n_cascades: int
    explicit_dc: bool


# what a model of each kind takes for a config field left at None
MODEL_KINDS = {
    "rim": KindDefaults("gru", 1, False),
    "irim": KindDefaults("indrnn", 1, False),
    "cirim": KindDefaults("indrnn", 5, False),
    "varnet": KindDefaults(None, 8, True),
}


def _fill(cfg, kind: str):
    """`cfg` with each field it left at None set to the kind's value in MODEL_KINDS."""
    defaults = MODEL_KINDS[kind]._asdict()
    return replace(cfg, **{f.name: defaults[f.name] for f in fields(cfg)
                           if getattr(cfg, f.name) is None})


# ---------------------------------------------------------------------------
# graph-building helpers
# ---------------------------------------------------------------------------

def _real_dtype(params) -> np.dtype:
    """A forward pass runs in the real dtype of the parameters it is given (float32 for none)."""
    return np.result_type(np.float32, *(t.dtype for t in params.values()))


class _Operators:
    """The forward model of one forward pass, in its dtype: the operator and the sampled data."""

    def __init__(self, y: np.ndarray, maps: np.ndarray, mask, rdtype=np.float64):
        self.rdtype = np.dtype(rdtype)
        cdtype = np.result_type(self.rdtype, np.complex64)
        self.op = mri.SenseOperator(np.asarray(maps).astype(cdtype),
                                    mri._mask_array(mask).astype(self.rdtype))
        self.y = self.op.take(y).astype(cdtype, copy=False)
        self.h, self.w = self.op.maps.shape[1:]

    def zero_filled(self) -> Tensor:
        return ad.constant(ad.complex_to_channels(self.op.adjoint(self.y)))

    def loglik_gradient(self, x: Tensor) -> Tensor:
        """A*(A(x) - y) of a two-channel image, complex only inside the node."""
        def on_channels(f):
            return lambda v: ad.complex_to_channels(f(ad.channels_to_complex(v)))

        op = self.op
        return ad.linear(x, on_channels(lambda z: op.adjoint(op.residual(z, self.y))),
                         on_channels(lambda z: op.adjoint(op.sample(z))))

    def soft_dc(self, x: Tensor, d: Tensor) -> Tensor:
        """x - d * A*(A(x) - y); an exact no-op at d = 0."""
        return ad.sub(x, ad.mul(d, self.loglik_gradient(x)))


class _Pass(dict):
    """The params of a pass that fills `store`: each is drawn from `rng`, or a loading pass
    takes it from the checkpoint's `loaded` values, when the forward pass first uses it."""

    def __init__(self, store: ParameterStore, rng=None, loaded=None):
        super().__init__()
        self.store, self.rng, self.loaded = store, rng, loaded


def _param(params, name: str, shape: tuple, init) -> Tensor:
    """params[name]; a pass that fills its store first adds `init(rng, shape)` to it under
    `name`, or the checkpoint's array once its name and shape are checked."""
    if isinstance(params, _Pass) and name not in params:
        value = init(params.rng, shape) if params.loaded is None else params.loaded.get(name)
        if value is None:
            raise ad.GraphError(f"parameter {name} is missing")
        if value.shape != shape:
            raise ad.GraphError(f"parameter {name} has shape {value.shape}, the model's is {shape}")
        params[name] = ad.constant(params.store.add(name, value).value)
    return params[name]


def _conv(x, params, name: str, c_out: int, k: int, gain: float = 1.0):
    """A k x k convolution to c_out channels, its weights drawn Glorot-normal times `gain`."""
    c_in = x.shape[0]
    weight = _param(params, f"{name}.weight", (c_out, c_in, k, k), lambda rng, shape: rng.normal(
        0.0, gain * np.sqrt(2.0 / (c_in * k * k + c_out * k * k)), size=shape))
    return ad.conv2d(x, weight, _param(params, f"{name}.bias", (c_out,), lambda _, s: np.zeros(s)))


# ---------------------------------------------------------------------------
# recurrent cells (gates are 1x1 convolutions over the spatial grid)
# ---------------------------------------------------------------------------

def gru_step(x, s_prev, params, prefix: str = ""):
    """Gated recurrent update: s = (1 - z) * s_prev + z * tanh-candidate.

    Written as s_prev + z * (candidate - s_prev), which needs no constant
    (a float64 1.0 would turn a float32 pass into float64).
    """
    c = s_prev.shape[0]
    cat = ad.concat([s_prev, x], axis=0)
    r = ad.sigmoid(_conv(cat, params, f"{prefix}reset", c, 1))
    z = ad.sigmoid(_conv(cat, params, f"{prefix}update", c, 1))
    cat_r = ad.concat([ad.mul(r, s_prev), x], axis=0)
    s_tilde = ad.tanh(_conv(cat_r, params, f"{prefix}cand", c, 1))
    return ad.add(s_prev, ad.mul(z, ad.sub(s_tilde, s_prev)))


def indrnn_step(x, s_prev, params, prefix: str = ""):
    """Element-wise recurrence: s = relu(W x + u .* s_prev + b)."""
    c = s_prev.shape[0]
    wx = _conv(x, params, f"{prefix}input", c, 1)
    u = ad.reshape(_param(params, f"{prefix}recurrent", (c,),
                          lambda rng, shape: rng.uniform(0.0, 1.0, size=shape)), (-1, 1, 1))
    return ad.relu(ad.add(wx, ad.mul(u, s_prev)))


_UNIT_STEPS = {"gru": gru_step, "indrnn": indrnn_step}


# ---------------------------------------------------------------------------
# the cascade loop every model kind shares
# ---------------------------------------------------------------------------

class CascadeModel:
    """Cascaded blocks, each optionally followed by a learned explicit soft-DC step.

    A subclass supplies one block: ``_apply_block(x, ops, params, prefix)``
    returns its output image and per-iteration estimates, and ``_min_side``
    is the smallest image side it accepts.  The forward pass is the one
    description of the layers: ``init_params`` and ``load_params`` run it once
    on that side, and each parameter is drawn or loaded where the pass first uses it.
    """

    _min_side = 1

    def __init__(self, kind: str, cascade: CascadeConfig | None):
        self.kind = read_value(Literal[tuple(MODEL_KINDS)], kind, "kind", ConfigError)
        self.cascade = _fill(cascade or CascadeConfig(), kind)

    def _prefix(self, k: int) -> str:
        return "shared." if self.cascade.share_params else f"cascade{k}."

    def _block_prefixes(self) -> list[str]:
        n_blocks = 1 if self.cascade.share_params else self.cascade.n_cascades
        return [self._prefix(k) for k in range(n_blocks)]

    def init_params(self, store: ParameterStore, seed: int) -> None:
        """Add every parameter to `store`, drawn by one pass on an all-zero 1-coil image."""
        read_value(Seed, seed, "seed", ValueError)
        self._run_pass(_Pass(store, rng=np.random.default_rng(seed)))

    def load_params(self, store: ParameterStore, values: dict[str, np.ndarray]) -> None:
        """Add to `store` the parameters `values` holds, by that pass, which draws nothing; a
        GraphError names the first one missing or of another shape, or else an extra value."""
        self._run_pass(params := _Pass(store, loaded=values))
        if extra := [name for name in values if name not in params]:
            raise ad.GraphError(f"value {extra[0]} is not a parameter of the model")

    def _run_pass(self, params: _Pass) -> None:
        side = self._min_side
        self.forward(np.zeros((1, side, side), np.complex64), np.ones((1, side, side)),
                     np.ones((side, side)), params)

    def constraints(self) -> list[tuple[str, float, float]]:
        """Value clamps applied after each optimizer step."""
        return []

    def config_dict(self) -> dict:
        """The kind and each config section, resolved: the echo a checkpoint stores."""
        return {"kind": self.kind, **{name: asdict(cfg) for name, cfg in vars(self).items()
                                      if is_dataclass(cfg)}}

    def forward(self, y, maps, mask, params):
        """The final image and, per cascade, the list of its estimates."""
        ops = _Operators(y, maps, mask, _real_dtype(params))
        x = ops.zero_filled()
        all_estimates = []
        for k in range(self.cascade.n_cascades):
            x, estimates = self._apply_block(x, ops, params, self._prefix(k))
            if self.cascade.explicit_dc:
                x = ops.soft_dc(x, _param(params, f"cascade{k}.dc_weight", (1,), lambda _, shape:
                                          np.full(shape, self.cascade.dc_weight_init)))
                # the cascade's prediction is its data-consistent output
                estimates[-1] = x
            if not np.all(np.isfinite(x.data)):
                raise DivergedError(f"non-finite reconstruction after cascade {k}")
            all_estimates.append(estimates)
        return x, all_estimates


# ---------------------------------------------------------------------------
# RIM block and cascades
# ---------------------------------------------------------------------------

def rim_block(x, ops: _Operators, params, cfg: RimCellConfig, prefix: str = ""):
    """One unrolled run of cfg.iterations update steps on a two-channel image.

    The hidden states start at zero.  Returns (final image, per-iteration
    estimates).  A pass that fills its store, drawing or loading, runs one
    iteration: the first uses every parameter of the block.
    """
    s0 = s1 = ad.constant(np.zeros((cfg.channels, ops.h, ops.w), dtype=ops.rdtype))
    step = _UNIT_STEPS[cfg.unit]
    k1, k2, k3 = cfg.kernel_sizes
    estimates = []
    for tau in range(1 if isinstance(params, _Pass) else cfg.iterations):
        feat = ad.concat([ops.loglik_gradient(x), x], axis=0)
        a1 = _conv(feat, params, f"{prefix}conv1", cfg.channels, k1)
        s0 = step(a1, s0, params, f"{prefix}unit1.")
        a2 = _conv(s0, params, f"{prefix}conv2", cfg.channels, k2)
        s1 = step(a2, s1, params, f"{prefix}unit2.")
        x = ad.add(x, _conv(s1, params, f"{prefix}conv3", 2, k3, gain=0.1))
        if not np.all(np.isfinite(x.data)):
            raise DivergedError(f"non-finite reconstruction in {prefix.rstrip('.')} "
                                f"at unroll iteration {tau}")
        estimates.append(x)
    return x, estimates


class CirimModel(CascadeModel):
    """Cascaded recurrent reconstructor (single cascade = plain RIM/IRIM)."""

    def __init__(self, cell: RimCellConfig | None = None,
                 cascade: CascadeConfig | None = None, kind: str = "cirim"):
        super().__init__(kind, cascade)
        if MODEL_KINDS[kind].unit is None:
            raise ConfigError(f"a {kind} model has no recurrent cell; build it with build_model")
        self.cell = _fill(cell or RimCellConfig(), kind)

    def _apply_block(self, x, ops, params, prefix):
        return rim_block(x, ops, params, self.cell, prefix)

    def constraints(self) -> list[tuple[str, float, float]]:
        if self.cell.unit != "indrnn":
            return []
        # keep the T-step product of recurrent weights from exploding
        return [(f"{p}unit{i}.recurrent", -1.0, 1.0)
                for p in self._block_prefixes() for i in (1, 2)]


# ---------------------------------------------------------------------------
# variational cascade baseline
# ---------------------------------------------------------------------------

def unet_forward(x, params, prefix: str, cfg: UnetConfig):
    """Encoder-decoder of 3x3 convolutions, `channels << i` wide at depth i, back to two channels."""
    skips = []
    h = x
    for i in range(cfg.pools):
        h = ad.relu(_conv(h, params, f"{prefix}enc{i}a", cfg.channels << i, 3))
        h = ad.relu(_conv(h, params, f"{prefix}enc{i}b", cfg.channels << i, 3))
        skips.append(h)
        h = ad.avg_pool2(h)
    h = ad.relu(_conv(h, params, f"{prefix}mid_a", cfg.channels << cfg.pools, 3))
    h = ad.relu(_conv(h, params, f"{prefix}mid_b", cfg.channels << cfg.pools, 3))
    for i in reversed(range(cfg.pools)):
        h = ad.upsample2(h)
        h = ad.concat([h, skips[i]], axis=0)
        h = ad.relu(_conv(h, params, f"{prefix}dec{i}a", cfg.channels << i, 3))
        h = ad.relu(_conv(h, params, f"{prefix}dec{i}b", cfg.channels << i, 3))
    return _conv(h, params, f"{prefix}out", 2, 1, gain=0.1)


class VarnetModel(CascadeModel):
    """Cascade of residual image-space convnet regularizers with optional soft DC.

    The running state is the coil-combined image, initialized from the
    measured data via the adjoint; each cascade applies a residual
    encoder-decoder update and, when enabled, the k-space soft replacement
    step restricted to sampled positions.
    """

    def __init__(self, unet: UnetConfig | None = None,
                 cascade: CascadeConfig | None = None):
        super().__init__("varnet", cascade)
        self.unet = unet or UnetConfig()

    @property
    def _min_side(self) -> int:
        return 1 << self.unet.pools

    def _apply_block(self, x, ops, params, prefix):
        x = ad.add(x, unet_forward(x, params, prefix, self.unet))
        return x, [x]

    def forward(self, y, maps, mask, params):
        h, w = np.shape(y)[-2:]
        if h % self._min_side or w % self._min_side:
            raise ConfigError(f"pools={self.unet.pools} needs an image size divisible by "
                              f"{self._min_side}, got {h}x{w}")
        # the losses see only the final image
        x, _ = super().forward(y, maps, mask, params)
        return x, [[x]]


# ---------------------------------------------------------------------------
# model factory and functional entry points
# ---------------------------------------------------------------------------

def build_model(kind: str, cell: RimCellConfig | None = None,
                cascade: CascadeConfig | None = None,
                unet: UnetConfig | None = None):
    """A model of `kind`; a config or config field left out is the kind's (MODEL_KINDS).

    A config section the kind does not use, or a VarNet without explicit DC (it has
    no gradient input), raises a ConfigError naming it.
    """
    unused, given = ("cell", cell) if kind == "varnet" else ("unet", unet)
    if given is not None:
        raise ConfigError(f"config section {unused!r} is not used by a {kind} model")
    model = VarnetModel(unet, cascade) if kind == "varnet" else CirimModel(cell, cascade, kind)
    if kind == "varnet" and not model.cascade.explicit_dc:
        raise ConfigError("config field 'cascade.explicit_dc' must be true for a varnet model")
    return model


def model_from_config(config: dict):
    """The model a config echo describes; a malformed one raises a ConfigError naming the field.

    A field left out, or `null` where the field may be None, is the kind's.
    """
    kind = config.get("kind")
    resolved = vars(build_model(kind))      # the kind's own model has each section it uses
    sections = {}
    for section, raw in config.items():
        if section == "kind":
            continue
        if not is_dataclass(resolved.get(section)):
            raise ConfigError(f"config section {section!r} is not used by a {kind} model")
        sections[section] = read_fields(type(resolved[section]), raw, ConfigError, section + ".")
    return build_model(kind, **sections)


def reconstruct(model, store: ParameterStore, record) -> np.ndarray:
    """Seeded inference on a dataset record with frozen parameters; a complex image."""
    x, _ = model.forward(record.kspace, record.maps, record.mask, store.frozen())
    return ad.channels_to_complex(x.data)
