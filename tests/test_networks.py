"""Recurrent cells, unrolled blocks, cascades and the variational baseline."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reconkit import autodiff as ad
from reconkit import mri, networks, phantom, sampling, training
from reconkit.networks import (CascadeConfig, CirimModel, RimCellConfig, UnetConfig,
                               VarnetModel, build_model, gru_step, indrnn_step, rim_block)

from conftest import finite_diff, rel_error


def _gru_params(c_in, channels, fill=0.0):
    params = {}
    for gate in ("reset", "update", "cand"):
        params[f"{gate}.weight"] = ad.constant(np.full((channels, c_in + channels, 1, 1), fill))
        params[f"{gate}.bias"] = ad.constant(np.zeros(channels))
    return params


class TestGruStep:
    def test_zero_weights_halve_state(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((3, 4, 4))
        x = rng.standard_normal((3, 4, 4))
        out = gru_step(ad.constant(x), ad.constant(s), _gru_params(3, 3))
        # zero gates: r = z = 1/2, candidate tanh(0) = 0
        assert np.allclose(out.data, 0.5 * s, atol=1e-12)

    def test_zero_state_zero_weights_stay_zero(self):
        x = np.random.default_rng(1).standard_normal((2, 3, 3))
        out = gru_step(ad.constant(x), ad.constant(np.zeros((2, 3, 3))), _gru_params(2, 2))
        assert not out.data.any()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_output_bounded_by_state_and_one(self, seed):
        rng = np.random.default_rng(seed)
        c = 3
        params = {}
        for gate in ("reset", "update", "cand"):
            params[f"{gate}.weight"] = ad.constant(rng.standard_normal((c, 2 * c, 1, 1)))
            params[f"{gate}.bias"] = ad.constant(rng.standard_normal(c))
        s = 3.0 * rng.standard_normal((c, 5, 5))
        x = 3.0 * rng.standard_normal((c, 5, 5))
        out = gru_step(ad.constant(x), ad.constant(s), params).data
        bound = np.maximum(np.abs(s), 1.0)
        assert (np.abs(out) <= bound + 1e-12).all()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ad.GraphError):
            gru_step(ad.constant(np.zeros((2, 4, 4))), ad.constant(np.zeros((3, 4, 4))),
                     _gru_params(2, 2))


class TestIndrnnStep:
    def _params(self, c, w_fill, u_val):
        return {
            "input.weight": ad.constant(np.full((c, c, 1, 1), w_fill)),
            "input.bias": ad.constant(np.zeros(c)),
            "recurrent": ad.constant(np.full(c, u_val)),
        }

    def test_identity_recurrence(self):
        s = np.abs(np.random.default_rng(2).standard_normal((2, 3, 3)))
        out = indrnn_step(ad.constant(np.zeros((2, 3, 3))), ad.constant(s), self._params(2, 0.0, 1.0))
        assert np.allclose(out.data, s, atol=1e-14)

    def test_half_recurrence(self):
        s = np.ones((1, 2, 2))
        out = indrnn_step(ad.constant(np.zeros((1, 2, 2))), ad.constant(s), self._params(1, 0.0, 0.5))
        assert np.allclose(out.data, 0.5, atol=1e-14)

    def test_negative_recurrence_clipped_by_relu(self):
        s = np.abs(np.random.default_rng(3).standard_normal((2, 3, 3)))
        out = indrnn_step(ad.constant(np.zeros((2, 3, 3))), ad.constant(s), self._params(2, 0.0, -1.0))
        assert not out.data.any()


class TestLoglikGradient:
    def test_zero_at_consistent_point(self, small_record):
        rec = small_record
        x = mri.adjoint_op(rec.kspace, rec.maps, rec.mask)
        y = mri.forward_op(x, rec.maps, rec.mask)
        g = mri.loglik_gradient(x, y, rec.maps, rec.mask)
        assert np.abs(g).max() < 1e-12

    def test_zero_image_gives_negative_adjoint(self, small_record):
        rec = small_record
        g = mri.loglik_gradient(np.zeros(rec.shape, dtype=complex), rec.kspace, rec.maps, rec.mask)
        assert rel_error(g, -mri.adjoint_op(rec.kspace, rec.maps, rec.mask)) < 1e-12

    def test_matches_finite_difference_of_half_squared_residual(self, small_record):
        rec = small_record
        rng = np.random.default_rng(4)
        xr = rng.standard_normal(rec.shape)
        xi = rng.standard_normal(rec.shape)

        def objective(re_part, im_part):
            x = re_part + 1j * im_part
            r = mri.forward_op(x, rec.maps, rec.mask) - rec.kspace
            return 0.5 * float(np.sum(np.abs(r) ** 2))

        g = mri.loglik_gradient(xr + 1j * xi, rec.kspace, rec.maps, rec.mask)
        fd_re, fd_im = finite_diff(objective, [xr, xi], eps=1e-6)
        assert rel_error(g.real, fd_re) < 1e-6
        assert rel_error(g.imag, fd_im) < 1e-6


def _tiny_cell(unit="indrnn", iterations=2, channels=4):
    return RimCellConfig(channels=channels, kernel_sizes=(5, 3, 3), unit=unit,
                         iterations=iterations)


def _assert_single_precision_pass(model, rec):
    """float32 leaves give a float32 training step: the pass takes its dtype from them.

    SamplingMask.keep and the record's arrays are float64/complex128, and a
    Python constant on the tape is a float64 array, so any of them would
    upcast the pass; a gradient is kept in its tensor's dtype.  Every tape
    output and every gradient of the forward pass and its loss is float32
    (complex64 lives only inside ``linear``).
    """
    store = ad.ParameterStore(np.float32)
    model.init_params(store, 6)
    tape = ad.Tape()
    leaves = store.leaves(tape)
    x, estimates = model.forward(rec.kspace, rec.maps, rec.mask, leaves)
    ad.backward(training._loss_for(x, estimates, rec, training.TrainConfig(loss="cirim")))
    assert {out.dtype for _op, out, _inputs, _vjp in tape._records} == {np.dtype(np.float32)}
    grads = [out.grad for _op, out, _inputs, _vjp in tape._records] + \
        [t.grad for t in leaves.values()]
    assert {g.dtype for g in grads if g is not None} == {np.dtype(np.float32)}
    assert "linear" in {op for op, *_ in tape._records}
    assert x.dtype == np.float32


class TestRimBlock:
    def test_zero_weights_identity_and_estimate_count(self, small_record):
        rec = small_record
        model = CirimModel(_tiny_cell(), CascadeConfig(n_cascades=1), kind="irim")
        store = ad.ParameterStore()
        model.init_params(store, 0)
        for _, p in store.items():
            p.value[:] = 0.0
        ops = networks._Operators(rec.kspace, rec.maps, rec.mask)
        x0 = ops.zero_filled()
        x, ests = rim_block(x0, ops, store.frozen(), model.cell, "cascade0.")
        assert np.array_equal(x.data, x0.data)
        assert len(ests) == model.cell.iterations

    def test_divergence_names_iteration(self, small_record):
        rec = small_record
        model = CirimModel(_tiny_cell(), CascadeConfig(n_cascades=1), kind="irim")
        store = ad.ParameterStore()
        model.init_params(store, 0)
        store["cascade0.conv3.weight"].value[:] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(networks.DivergedError, match="iteration 0"):
            model.forward(rec.kspace, rec.maps, rec.mask, store.frozen())

    @pytest.mark.parametrize("share_params, name, block", [
        (False, "cascade1.conv3.bias", "cascade1"), (True, "shared.conv3.bias", "shared")])
    def test_divergence_names_the_block(self, small_record, share_params, name, block):
        rec = small_record
        model = CirimModel(_tiny_cell(), CascadeConfig(n_cascades=2, share_params=share_params),
                           kind="cirim")
        store = ad.ParameterStore()
        model.init_params(store, 0)
        store[name].value[:] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(
                networks.DivergedError,
                match=f"non-finite reconstruction in {block} at unroll iteration 0$"):
            model.forward(rec.kspace, rec.maps, rec.mask, store.frozen())


class TestCirim:
    def test_single_cascade_equals_rim_block(self, small_record):
        rec = small_record
        model = CirimModel(_tiny_cell("gru"), CascadeConfig(n_cascades=1), kind="rim")
        store = ad.ParameterStore()
        model.init_params(store, 3)
        x_model, ests_model = model.forward(rec.kspace, rec.maps, rec.mask, store.frozen())
        ops = networks._Operators(rec.kspace, rec.maps, rec.mask)
        x_block, ests_block = rim_block(ops.zero_filled(), ops, store.frozen(),
                                        model.cell, "cascade0.")
        assert np.array_equal(x_model.data, x_block.data)
        assert len(ests_model) == 1 and len(ests_model[0]) == len(ests_block)

    def test_zero_weights_return_zero_filled(self, small_record):
        rec = small_record
        model = CirimModel(_tiny_cell(), CascadeConfig(n_cascades=3), kind="cirim")
        store = ad.ParameterStore()
        model.init_params(store, 1)
        for _, p in store.items():
            p.value[:] = 0.0
        x, ests = model.forward(rec.kspace, rec.maps, rec.mask, store.frozen())
        zf = mri.adjoint_op(rec.kspace, rec.maps, rec.mask)
        assert np.array_equal(ad.channels_to_complex(x.data), zf)
        assert len(ests) == 3

    def test_dc_weight_zero_equals_implicit_path(self, small_record):
        rec = small_record
        cell = _tiny_cell()
        explicit = CirimModel(cell, CascadeConfig(n_cascades=2, explicit_dc=True,
                                                  dc_weight_init=0.0), kind="cirim")
        store = ad.ParameterStore()
        explicit.init_params(store, 5)
        implicit = CirimModel(cell, CascadeConfig(n_cascades=2, explicit_dc=False), kind="cirim")
        params = store.frozen()
        xe, _ = explicit.forward(rec.kspace, rec.maps, rec.mask, params)
        xi, _ = implicit.forward(rec.kspace, rec.maps, rec.mask, params)
        assert np.array_equal(xe.data, xi.data)

    def test_non_finite_dc_output_names_cascade(self, small_record):
        rec = small_record
        model = CirimModel(_tiny_cell(), CascadeConfig(n_cascades=2, explicit_dc=True),
                           kind="cirim")
        store = ad.ParameterStore()
        model.init_params(store, 0)
        store["cascade0.dc_weight"].value[:] = np.inf     # a config rejects a non-finite init
        with np.errstate(invalid="ignore"), \
                pytest.raises(networks.DivergedError, match="after cascade 0"):
            model.forward(rec.kspace, rec.maps, rec.mask, store.frozen())

    def test_shared_parameters_mode(self, small_record):
        rec = small_record
        model = CirimModel(_tiny_cell(), CascadeConfig(n_cascades=3, share_params=True),
                           kind="cirim")
        store = ad.ParameterStore()
        model.init_params(store, 2)
        assert all(name.startswith("shared.") for name in store.names())
        x, ests = model.forward(rec.kspace, rec.maps, rec.mask, store.frozen())
        assert len(ests) == 3
        assert np.isfinite(x.data).all()

    def test_complex64_pass_stays_single_precision(self, small_record):
        model = CirimModel(_tiny_cell(), CascadeConfig(n_cascades=2, explicit_dc=True,
                                                       dc_weight_init=0.5), kind="cirim")
        _assert_single_precision_pass(model, small_record)

    def test_gru_rim_pass_stays_single_precision(self, small_record):
        model = CirimModel(_tiny_cell("gru"), CascadeConfig(n_cascades=1), kind="rim")
        _assert_single_precision_pass(model, small_record)

    def test_explicit_dc_trains_dc_weight(self, small_record):
        rec = small_record
        model = CirimModel(_tiny_cell(), CascadeConfig(n_cascades=1, explicit_dc=True,
                                                       dc_weight_init=0.0), kind="cirim")
        store = ad.ParameterStore()
        model.init_params(store, 4)
        tape = ad.Tape()
        leaves = store.leaves(tape)
        x, _ = model.forward(rec.kspace, rec.maps, rec.mask, leaves)
        ref = ad.constant(ad.complex_to_channels(rec.reference))
        loss = ad.reduce_mean(ad.absolute(ad.sub(ad.magnitude(x), ad.magnitude(ref))))
        ad.backward(loss)
        assert leaves["cascade0.dc_weight"].grad is not None
        assert np.abs(leaves["cascade0.dc_weight"].grad).max() > 0


class TestVarnet:
    def _model(self, explicit_dc, d_init=0.0):
        return VarnetModel(UnetConfig(pools=2, channels=4),
                           CascadeConfig(n_cascades=2, explicit_dc=explicit_dc,
                                         dc_weight_init=d_init))

    def test_complex64_pass_stays_single_precision(self, small_record):
        _assert_single_precision_pass(self._model(True, d_init=0.5), small_record)

    def test_zero_weights_dc_off_returns_zero_filled(self, small_record):
        rec = small_record
        model = self._model(False)
        store = ad.ParameterStore()
        model.init_params(store, 0)
        for _, p in store.items():
            p.value[:] = 0.0
        x, _ = model.forward(rec.kspace, rec.maps, rec.mask, store.frozen())
        assert np.array_equal(ad.channels_to_complex(x.data),
                              mri.adjoint_op(rec.kspace, rec.maps, rec.mask))

    def test_dc_weight_zero_equals_dc_off(self, small_record):
        rec = small_record
        explicit = self._model(True, d_init=0.0)
        store = ad.ParameterStore()
        explicit.init_params(store, 6)
        implicit = self._model(False)
        params = store.frozen()
        xe, _ = explicit.forward(rec.kspace, rec.maps, rec.mask, params)
        xi, _ = implicit.forward(rec.kspace, rec.maps, rec.mask, params)
        assert np.array_equal(xe.data, xi.data)

    def test_single_cascade_is_residual_denoiser(self, small_record):
        rec = small_record
        model = VarnetModel(UnetConfig(pools=2, channels=4),
                            CascadeConfig(n_cascades=1, explicit_dc=False))
        store = ad.ParameterStore()
        model.init_params(store, 7)
        x, _ = model.forward(rec.kspace, rec.maps, rec.mask, store.frozen())
        zf = mri.adjoint_op(rec.kspace, rec.maps, rec.mask)
        feat = ad.complex_to_channels(zf)
        upd = networks.unet_forward(ad.constant(feat), store.frozen(), "cascade0.",
                                    model.unet).data
        assert rel_error(ad.channels_to_complex(x.data), zf + upd[0] + 1j * upd[1]) < 1e-12

    def test_sampled_kspace_approaches_measurements_as_d_grows(self, small_record):
        rec = small_record
        on = rec.mask.keep.astype(bool)
        dists = []
        for d in (0.0, 0.25, 0.5, 0.75, 1.0):
            model = self._model(True, d_init=d)
            store = ad.ParameterStore()
            model.init_params(store, 8)      # same nets each time, only d changes
            x, _ = model.forward(rec.kspace, rec.maps, rec.mask, store.frozen())
            k = mri.forward_op(ad.channels_to_complex(x.data), rec.maps, rec.mask)
            dists.append(np.linalg.norm(k[:, on] - rec.kspace[:, on]))
        assert all(b < a for a, b in zip(dists, dists[1:]))

    def test_pool_depth_needs_divisible_dims(self, small_record):
        rec = small_record   # 16x16: pools=5 would need 32 | h
        model = VarnetModel(UnetConfig(pools=5, channels=2),
                            CascadeConfig(n_cascades=1, explicit_dc=False))
        store = ad.ParameterStore()
        model.init_params(store, 9)
        with pytest.raises(networks.ConfigError, match=r"^pools=5 .* 32, got 16x16$"):
            model.forward(rec.kspace, rec.maps, rec.mask, store.frozen())
        # checked before the first cascade, on the width as on the height
        with pytest.raises(networks.ConfigError, match=r"^pools=3 .* 8, got 16x12$"):
            VarnetModel(UnetConfig(pools=3)).forward(np.zeros((1, 16, 12)), None, None, {})


class TestFactory:
    def test_kinds_and_defaults(self):
        assert build_model("rim").cell.unit == "gru"
        assert build_model("rim").cascade.n_cascades == 1
        assert build_model("irim").cell.unit == "indrnn"
        assert build_model("cirim").cascade.n_cascades == 5
        assert build_model("varnet").cascade.n_cascades == 8
        with pytest.raises(networks.ConfigError):
            build_model("unet")

    @pytest.mark.parametrize("kind", ["irim", "cirim"])
    def test_a_cell_without_a_unit_takes_the_kinds(self, kind):
        assert build_model(kind, cell=RimCellConfig(channels=4)).cell.unit == "indrnn"

    def test_a_varnet_cascade_without_a_dc_mode_is_explicit(self):
        assert build_model("varnet", cascade=CascadeConfig(n_cascades=2)).cascade.explicit_dc

    @pytest.mark.parametrize("config, unit, explicit_dc, n_cascades", [
        ({"kind": "cirim", "cell": {"channels": 16, "iterations": 4}}, "indrnn", False, 5),
        ({"kind": "irim", "cell": {"channels": 4}}, "indrnn", False, 1),
        ({"kind": "rim", "cascade": {"explicit_dc": True}}, "gru", True, 1),
        ({"kind": "varnet", "cascade": {"n_cascades": 2}}, None, True, 2),
        ({"kind": "cirim", "cell": {"unit": None},
          "cascade": {"n_cascades": None, "explicit_dc": None}}, "indrnn", False, 5),
    ], ids=["cirim_cell", "irim_cell", "rim_cascade", "varnet_cascade", "cirim_nulls"])
    def test_a_partial_config_takes_the_kinds_fields(self, config, unit, explicit_dc, n_cascades):
        model = networks.model_from_config(config)
        assert model.config_dict().get("cell", {}).get("unit") == unit
        assert (model.cascade.explicit_dc, model.cascade.n_cascades) == (explicit_dc, n_cascades)

    def test_config_roundtrip(self):
        model = build_model("cirim", cell=_tiny_cell(), cascade=CascadeConfig(n_cascades=2))
        clone = networks.model_from_config(model.config_dict())
        assert clone.config_dict() == model.config_dict()

    def test_invalid_configs_rejected(self):
        with pytest.raises(networks.ConfigError):
            RimCellConfig(iterations=0)
        with pytest.raises(networks.ConfigError):
            RimCellConfig(kernel_sizes=(4, 3, 3))
        with pytest.raises(networks.ConfigError):
            RimCellConfig(unit="lstm")
        with pytest.raises(networks.ConfigError):
            CascadeConfig(n_cascades=0)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_dc_weight_named(self, weight):
        with pytest.raises(networks.ConfigError, match="dc_weight_init"):
            CascadeConfig(dc_weight_init=weight)

    @pytest.mark.parametrize("channels", [0, -2])
    def test_channels_below_one_named(self, channels):
        with pytest.raises(networks.ConfigError, match="channels"):
            RimCellConfig(channels=channels)

    @pytest.mark.parametrize("kernel_sizes", [(3, 3), (3, 3.0, 3), (3, -1, 3)],
                             ids=["two", "a_float", "negative"])
    def test_kernel_sizes_are_three_odd_positive_ints(self, kernel_sizes):
        with pytest.raises(networks.ConfigError, match="kernel_sizes"):
            RimCellConfig(kernel_sizes=kernel_sizes)


class TestFactoryRejects:
    @pytest.mark.parametrize("build, named", [
        (lambda: build_model("varnet", cell=RimCellConfig(channels=4)), "'cell'"),
        (lambda: build_model("cirim", unet=UnetConfig(channels=4)), "'unet'"),
        (lambda: CirimModel(kind="varnet"), "varnet"),
        (lambda: build_model("varnet", cascade=CascadeConfig(explicit_dc=False)),
         "'cascade.explicit_dc'"),
    ], ids=["cell_on_a_varnet", "unet_on_a_cirim", "cirim_model_of_kind_varnet",
            "varnet_without_explicit_dc"])
    def test_a_section_the_kind_does_not_use_is_named(self, build, named):
        with pytest.raises(networks.ConfigError, match=named):
            build()


# every kind at two cascades or its own one, in each DC mode it allows (VarNet has no
# gradient input, so only explicit), and a two-cascade kind also with one shared block
WHOLE_MODEL_CASES = [(kind, dc, share) for kind, d in networks.MODEL_KINDS.items()
                     for dc in ((True,) if d.unit is None else (False, True))
                     for share in ((False, True) if d.n_cascades > 1 else (False,))]
WHOLE_MODEL_IDS = [f"{kind}-{'explicit' if dc else 'implicit'}{'-shared' if share else ''}"
                   for kind, dc, share in WHOLE_MODEL_CASES]


@pytest.fixture(scope="module")
def tiny_record():
    """8x8, 2 coils: criterion 2's problem size."""
    img, lesion, wm = phantom.make_phantom(phantom.default_brain_spec(8, seed=41))
    mask = sampling.gaussian2d_mask(8, 8, 1.6, seed=42)
    return phantom.simulate_acquisition(img, phantom.make_coils(2, 8, 8), mask, 0.02, seed=43,
                                        lesion_mask=lesion, wm_mask=wm)


def _whole_model(kind, explicit_dc, share_params):
    cascade = CascadeConfig(n_cascades=min(networks.MODEL_KINDS[kind].n_cascades, 2),
                            explicit_dc=explicit_dc, share_params=share_params)
    if kind == "varnet":
        return build_model(kind, unet=UnetConfig(pools=1, channels=2), cascade=cascade)
    return build_model(kind, cell=RimCellConfig(channels=2, kernel_sizes=(3, 3, 1),
                                                iterations=2), cascade=cascade)


def _store_off_the_kinks(model, dtype="float64"):
    """A store of `dtype` at the model's init, with every bias drawn small and non-zero."""
    store = ad.ParameterStore(dtype)
    model.init_params(store, seed=7)
    rng = np.random.default_rng(8)
    for name, p in store.items():
        if name.endswith(".bias"):
            p.value = rng.normal(0.0, 0.1, size=p.value.shape).astype(store.dtype)
    return store


def _loss_and_gradient(model, rec, store):
    """The cirim loss of one pass and its gradient, all parameters in one flat vector."""
    tape = ad.Tape()
    leaves = store.leaves(tape)
    x, estimates = model.forward(rec.kspace, rec.maps, rec.mask, leaves)
    loss = training._loss_for(x, estimates, rec, training.TrainConfig(loss="cirim"))
    ad.backward(loss)
    return float(loss.data), np.concatenate([
        (np.zeros(t.shape) if t.grad is None else t.grad).ravel() for t in leaves.values()])


@pytest.mark.parametrize("kind, explicit_dc, share_params", WHOLE_MODEL_CASES,
                         ids=WHOLE_MODEL_IDS)
def test_whole_model_gradient_matches_finite_differences(tiny_record, kind, explicit_dc,
                                                         share_params):
    """The end-to-end gradient of the iteration-weighted loss, against central differences.

    Criterion 2 checks one implicit-DC IndRNN CIRIM; this covers the GRU,
    VarNet's pooling, upsampling and skip concat, explicit soft DC with a
    non-zero weight, and two cascades feeding one shared leaf.  The point
    is off the ReLU kinks: at the zero bias init, a layer whose inputs are
    all dead has a pre-activation of exactly its bias, 0, where the central
    difference sees half a slope and the VJP's `a > 0` sees none (VarNet
    reads 6e-3 there, not a gradient bug).  Small drawn biases move every
    pre-activation off 0, and the check holds to criterion 2's 1e-4.
    """
    rec, model = tiny_record, _whole_model(kind, explicit_dc, share_params)
    store = _store_off_the_kinks(model)
    _, auto = _loss_and_gradient(model, rec, store)
    cfg, eps = training.TrainConfig(loss="cirim"), 1e-5

    def loss_value() -> float:
        x, estimates = model.forward(rec.kspace, rec.maps, rec.mask, store.frozen())
        return float(training._loss_for(x, estimates, rec, cfg).data)

    fd = []
    for name in store.names():
        flat = store[name].value.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_value()
            flat[i] = orig - eps
            down = loss_value()
            flat[i] = orig
            fd.append((up - down) / (2 * eps))
    assert rel_error(auto, np.array(fd)) < 1e-4


@pytest.mark.parametrize("kind, explicit_dc, share_params", WHOLE_MODEL_CASES,
                         ids=WHOLE_MODEL_IDS)
def test_float32_pass_matches_float64_pass(tiny_record, kind, explicit_dc, share_params):
    """A float32 store's loss and gradient match a float64 store's from the same values.

    Both stores are drawn from one float64 draw; the float32 one rounds it
    once.  float32's unit roundoff is 6e-8, and the pass is some hundred
    rounded ops deep (two cascades of two unrolled iterations, each with
    two FFTs), so its relative error is a small multiple of that: it reads
    at most 2e-7 here.  The 1e-5 bound leaves a 50x margin and is still
    100x below the 1e-3 of a half-precision value, so a pass that loses
    precision shows; the dtype check shows one that leaves float32.
    """
    model = _whole_model(kind, explicit_dc, share_params)
    loss64, grad64 = _loss_and_gradient(model, tiny_record, _store_off_the_kinks(model))
    loss32, grad32 = _loss_and_gradient(model, tiny_record,
                                        _store_off_the_kinks(model, "float32"))
    assert abs(loss32 - loss64) < 1e-5 * abs(loss64)
    assert grad32.dtype == np.float32
    assert rel_error(grad32, grad64) < 1e-5


# What init_params drew at seed 3 when each block listed its layers in an init function
# of its own: per resolved kind, DC mode and sharing, each parameter's name, shape and the
# first 16 hex digits of the sha256 of its float32 and of its float64 value, in the store
# order of that time.  Each case is two cascades of a 3-wide cell (kernels 5, 3, 3) or of
# a 3-wide U-net two pools deep.
INIT_PINS = json.loads((Path(__file__).parent / "data" / "init_params_pins.json").read_text())


def _init_case_model(kind, explicit_dc, share_params):
    cascade = CascadeConfig(n_cascades=2, explicit_dc=explicit_dc, share_params=share_params)
    return (build_model(kind, unet=UnetConfig(pools=2, channels=3), cascade=cascade)
            if kind == "varnet" else build_model(kind, cell=RimCellConfig(channels=3),
                                                 cascade=cascade))


INIT_CASES = [(kind, dc, share, dtype) for kind, d in networks.MODEL_KINDS.items()
              for dc in ((None, True) if d.unit is None else (None, False, True))
              for share in (False, True) for dtype in ("float32", "float64")]


@pytest.mark.parametrize("kind, explicit_dc, share_params, dtype", INIT_CASES,
                         ids=[f"{k}-dc={dc}-{'shared' if s else 'own'}-{t}"
                              for k, dc, s, t in INIT_CASES])
def test_init_params_draws_the_pinned_values(kind, explicit_dc, share_params, dtype):
    """The init pass draws every value bit for bit; only a DC weight may move in the store.

    A cascade's `dc_weight` is drawn when its cascade first uses it, right after
    its block, where the init functions added all of them after all blocks.
    """
    model = _init_case_model(kind, explicit_dc, share_params)
    store = ad.ParameterStore(dtype)
    model.init_params(store, 3)
    dc = "explicit" if model.cascade.explicit_dc else "implicit"
    pinned = INIT_PINS[f"{kind}-{dc}{'-shared' if share_params else ''}"]
    column = 2 if dtype == "float32" else 3
    assert {name: [list(p.value.shape), hashlib.sha256(p.value.tobytes()).hexdigest()[:16]]
            for name, p in store.items()} == {row[0]: [row[1], row[column]] for row in pinned}

    def without_dc(names):
        return [name for name in names if not name.endswith(".dc_weight")]
    assert without_dc(store.names()) == without_dc(row[0] for row in pinned)


@pytest.mark.parametrize("kind, explicit_dc, share_params, dtype", INIT_CASES,
                         ids=[f"{k}-dc={dc}-{'shared' if s else 'own'}-{t}"
                              for k, dc, s, t in INIT_CASES])
def test_pinned_init_round_trips_through_a_checkpoint(kind, explicit_dc, share_params, dtype,
                                                      tmp_path, monkeypatch):
    """The loading pass gives back the store it was saved from: names in order, dtype, bytes."""
    model = _init_case_model(kind, explicit_dc, share_params)
    store = ad.ParameterStore(dtype)
    model.init_params(store, 3)
    path = tmp_path / "ckpt.cks"
    training.save_trained(path, model, store.copy_values())
    # the method's store, in place of the method that runs it
    monkeypatch.setattr(training, "method_model", lambda name, model, store: store)
    loaded = training.method_checkpoint(path)
    assert loaded.dtype == store.dtype
    assert ([(name, p.value.dtype, p.value.tobytes()) for name, p in loaded.items()]
            == [(name, p.value.dtype, p.value.tobytes()) for name, p in store.items()])


@pytest.mark.parametrize("kind, convs_per_block", [("rim", 9), ("irim", 5), ("cirim", 5),
                                                   ("varnet", 19)])
def test_init_params_runs_each_block_once(kind, convs_per_block, monkeypatch):
    """The initialising pass, and the loading pass, run one unrolled iteration of each
    cascade's block, the one that adds all its parameters: a GRU cell's makes 9
    convolutions, an IndRNN cell's 5 and a four-pool U-net 19, not 8 iterations' worth
    of a cell's."""
    calls = []
    conv2d = ad.conv2d

    def counted(*args, **kwargs):
        calls.append(1)
        return conv2d(*args, **kwargs)
    monkeypatch.setattr(ad, "conv2d", counted)
    model = build_model(kind)
    store = ad.ParameterStore()
    model.init_params(store, seed=0)
    assert len(calls) == convs_per_block * model.cascade.n_cascades
    calls.clear()
    model.load_params(ad.ParameterStore(), {name: p.value for name, p in store.items()})
    assert len(calls) == convs_per_block * model.cascade.n_cascades
