"""Losses, ADAM, the training loop and the evaluation harness."""

import gc
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from reconkit import autodiff as ad
from reconkit import metrics, phantom, sampling, training
from reconkit.networks import CascadeConfig, RimCellConfig, UnetConfig, build_model, reconstruct
from reconkit.training import (TrainConfig, adam_step, cirim_loss, evaluate,
                               iteration_loss_weights, l1_loss, ssim_loss, train)

from conftest import BAD_MODEL_CONFIGS, finite_diff, poison_adam_step, rel_error

C = ad.complex_to_channels


def _tiny_records(n, size=16, coils=2, seed=0, sigma=0.02, acc=2.0):
    maps = phantom.make_coils(coils, size, size)
    out = []
    for i in range(n):
        spec = phantom.default_brain_spec(size, seed=seed + i)
        img, lesion, wm = phantom.make_phantom(spec)
        mask = sampling.gaussian2d_mask(size, size, acc, seed=seed + 100 + i)
        out.append(phantom.simulate_acquisition(img, maps, mask, sigma, seed=seed + 200 + i,
                                                lesion_mask=lesion, wm_mask=wm))
    return out


def _tiny_model(kind="cirim", iterations=2, channels=4, cascades=1):
    if kind == "varnet":
        return build_model("varnet", unet=UnetConfig(pools=2, channels=4),
                           cascade=CascadeConfig(n_cascades=cascades))
    return build_model(kind, cell=RimCellConfig(channels=channels, iterations=iterations),
                       cascade=CascadeConfig(n_cascades=cascades))


class TestL1Loss:
    def test_identical_is_zero(self):
        x = np.random.default_rng(0).standard_normal((8, 8)) + 1j
        assert float(l1_loss(C(x), C(x)).data) == 0.0

    def test_constant_magnitude_offset(self):
        rng = np.random.default_rng(1)
        ref = np.abs(rng.standard_normal((8, 8))) + 0.5
        test = (ref + 0.1) * np.exp(1j * rng.standard_normal((8, 8)))
        assert float(l1_loss(C(test), C(ref.astype(complex))).data) == pytest.approx(0.1, abs=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert float(l1_loss(C(a), C(b)).data) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(training.TrainingError):
            l1_loss(np.zeros((4, 4)), np.zeros((4, 5)))


class TestIterationWeights:
    def test_eight_step_profile(self):
        w = iteration_loss_weights(8)
        assert w[-1] / w[0] == pytest.approx(10.0, rel=1e-12)
        ratios = w[1:] / w[:-1]
        assert np.allclose(ratios, 10.0 ** (1.0 / 7.0), rtol=1e-12)
        assert w[0] == pytest.approx(0.1, rel=1e-12)
        assert w[-1] == pytest.approx(1.0, rel=1e-12)

    def test_single_iteration_weight_is_one(self):
        assert iteration_loss_weights(1).tolist() == [1.0]

    def test_early_orientation_inverts(self):
        late = iteration_loss_weights(5, "late")
        early = iteration_loss_weights(5, "early")
        assert np.allclose(early * late, 1.0, rtol=1e-12)
        assert early[0] / early[-1] == pytest.approx(10.0, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(training.TrainingError):
            iteration_loss_weights(0)
        with pytest.raises(training.TrainingError):
            iteration_loss_weights(4, "sideways")


class TestCirimLoss:
    def test_perfect_estimates_zero_loss(self):
        ref = np.abs(np.random.default_rng(3).standard_normal((6, 6))) + 0.2
        ests = [[C(ref.astype(complex))] * 3, [C(ref.astype(complex))] * 3]
        assert float(cirim_loss(ests, C(ref.astype(complex))).data) == 0.0

    def test_missing_estimates_rejected(self):
        ref = C(np.ones((4, 4), dtype=complex))
        with pytest.raises(training.TrainingError):
            cirim_loss([[ref, ref], [ref]], ref)
        with pytest.raises(training.TrainingError):
            cirim_loss([], ref)

    def test_later_iterations_weigh_more(self):
        ref = C(np.zeros((4, 4), dtype=complex))
        bad = C(np.ones((4, 4), dtype=complex))
        good = C(np.zeros((4, 4), dtype=complex))
        early_bad = float(cirim_loss([[bad, good]], ref).data)
        late_bad = float(cirim_loss([[good, bad]], ref).data)
        assert late_bad > early_bad


class TestSsimLoss:
    def test_identical_is_zero(self):
        x = np.abs(np.random.default_rng(4).standard_normal((12, 12))) + 0.5
        loss = ssim_loss(C(x.astype(complex)), C(x.astype(complex)))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        b = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        assert 0.0 <= float(ssim_loss(C(a), C(b)).data) <= 2.0

    def test_matches_metric(self):
        rng = np.random.default_rng(6)
        ref = np.abs(rng.standard_normal((16, 16))) + 0.3
        test = ref + 0.05 * rng.standard_normal((16, 16))
        loss = ssim_loss(C(test.astype(complex)), C(ref.astype(complex)))
        assert float(loss.data) == pytest.approx(1.0 - metrics.ssim(test, ref), abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        ref = np.abs(rng.standard_normal((10, 10))) + 0.5
        re0 = np.abs(rng.standard_normal((10, 10))) + 0.5
        im0 = 0.3 * rng.standard_normal((10, 10))

        tape = ad.Tape()
        x = ad.leaf(C(re0 + 1j * im0), tape)
        loss = ssim_loss(x, ad.constant(C(ref.astype(complex))))
        ad.backward(loss)

        def scalar(re_a, im_a):
            return float(ssim_loss(C(re_a + 1j * im_a), C(ref.astype(complex))).data)

        fd_re, fd_im = finite_diff(scalar, [re0, im0], eps=1e-6)
        assert rel_error(x.grad[0], fd_re) < 1e-4
        assert rel_error(x.grad[1], fd_im) < 1e-4


def _grad_leaf(g):
    """A leaf tensor carrying gradient `g`, as backward leaves it."""
    t = ad.leaf(np.zeros_like(g), ad.Tape())
    t.grad = g
    return t


class TestAdam:
    def test_zero_gradients_leave_parameters(self):
        store = ad.ParameterStore()
        store.add("w", np.array([1.0, -2.0]))
        before = store["w"].value.copy()
        # a leaf that backward never reached counts as a zero gradient
        adam_step(store, grads={"w": ad.leaf(before, ad.Tape())}, lr=1e-3)
        assert np.array_equal(store["w"].value, before)

    def test_first_step_bounded_by_lr(self):
        store = ad.ParameterStore()
        store.add("w", np.array([0.3, -0.7, 2.0]))
        g = np.array([5.0, -0.01, 300.0])
        before = store["w"].value.copy()
        adam_step(store, grads={"w": _grad_leaf(g)}, lr=1e-3)
        step = store["w"].value - before
        # bias-corrected first step is lr * g/(|g| + eps'): magnitude <= lr
        assert (np.abs(step) <= 1e-3 * (1 + 1e-6)).all()
        assert np.allclose(np.sign(step), -np.sign(g))

    def test_missing_gradients_rejected(self):
        store = ad.ParameterStore()
        store.add("w", np.zeros(2))
        with pytest.raises(training.TrainingError, match="w"):
            adam_step(store, grads={}, lr=1e-3)

    def test_quadratic_bowl_convergence(self):
        store = ad.ParameterStore()
        target = np.array([0.7, -1.3, 0.2])
        store.add("p", np.zeros(3))
        for _ in range(2000):
            adam_step(store, grads={"p": _grad_leaf(2.0 * (store["p"].value - target))}, lr=1e-2)
            if np.abs(store["p"].value - target).max() < 1e-3:
                break
        assert np.abs(store["p"].value - target).max() < 1e-3


def _assert_store_holds_best_values(result):
    """The store ends at the finite best_values snapshot."""
    assert all(np.isfinite(v).all() for v in result.best_values.values())
    assert set(result.store.names()) == set(result.best_values)
    for name, p in result.store.items():
        assert np.isfinite(p.value).all(), name
        assert np.array_equal(p.value, result.best_values[name]), name


def test_cirim_step_tape_records():
    """One float32 CIRIM step (K=2, T=4) records these ops, and no complex array.

    A second step on the same tape records the same: the tape's records are
    per step even though its buffers are kept.
    """
    rec = _tiny_records(1)[0]
    model = build_model("cirim", cell=RimCellConfig(channels=3, iterations=4, unit="indrnn"),
                        cascade=CascadeConfig(n_cascades=2))
    store = ad.ParameterStore(np.float32)
    model.init_params(store, 0)
    tape = ad.Tape()
    for step in range(2):
        leaves = store.leaves(tape)
        x, estimates = model.forward(rec.kspace, rec.maps, rec.mask, leaves)
        loss = training._loss_for(x, estimates, rec, TrainConfig(dtype="float32"))
        counts = {}
        for op, out, _inputs, _vjp in tape._records:
            counts[op] = counts.get(op, 0) + 1
            assert not np.iscomplexobj(out.data), op
        assert counts == {"conv2d": 40, "add": 31, "mul": 24, "reshape": 16, "relu": 16,
                          "magnitude": 8, "sub": 8, "abs": 8, "mean": 8, "linear": 7,
                          "concat": 7}, step
        ad.backward(loss)
        assert len(tape) == 173
        tape.clear()


def _unreachable_graph_objects(run) -> list:
    """The tapes and tensors that only the cyclic collector could free after run()."""
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return [o for o in gc.garbage if isinstance(o, (ad.Tape, ad.Tensor))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


class TestStepMemory:
    def test_train_frees_each_step_graph(self):
        records = _tiny_records(3, seed=90)
        cfg = TrainConfig(dtype="float32")
        left = _unreachable_graph_objects(
            lambda: train(_tiny_model(cascades=2), records, [], epochs=1, seed=0, cfg=cfg))
        assert left == []

    def test_diverged_step_frees_its_graph(self, monkeypatch):
        # 1e30 is finite, so step 1 is taken; step 2's float32 forward pass overflows
        records = _tiny_records(3, seed=91)
        poison_adam_step(monkeypatch, 1, value=1e30)
        cfg = TrainConfig(dtype="float32")
        results = []
        with np.errstate(invalid="ignore", over="ignore"):
            left = _unreachable_graph_objects(lambda: results.append(
                train(_tiny_model(), records, [], epochs=1, seed=6, cfg=cfg)))
        assert results[0].diverged and results[0].steps == 1
        assert left == []

    def test_desk_step_footprint(self, desk_record):
        """tracemalloc's peak for one desk float32 CIRIM step (K=2, T=4, 16 channels, 64x64).

        It counts allocations, not time, so it repeats exactly.  A step on a
        fresh tape reads about 40 MB: the graph's buffers come from the
        tape's pool, which lends a buffer again as soon as nothing else
        refers to it, so scratch, replaced sums and summed VJP results are
        reused within the step.  It read 38 MB before the pool, 43 MB with
        the pool but only the scratch reused within the step, and 57 MB when
        conv2d's VJP kept its padded input and every first gradient was
        copied.
        """
        model, store, cfg = _desk_cirim()
        training._train_step(model, desk_record, store, cfg)   # ADAM's moments are made here
        assert _step_peak_mb(lambda: training._train_step(model, desk_record, store, cfg)) < 45.0

    def test_step_on_a_kept_tape_reuses_its_buffers(self, desk_record):
        """A second desk step on the same tape allocates far less than a step on a fresh one.

        tracemalloc reads about 7 MB for it (the leaves' gradients, ADAM and
        the arrays no op takes from the pool), against about 40 MB on a
        fresh tape.
        """
        model, store, cfg = _desk_cirim()
        tape = ad.Tape()
        training._train_step(model, desk_record, store, cfg, tape)
        assert _step_peak_mb(lambda: training._train_step(model, desk_record, store, cfg,
                                                          tape)) < 10.0

    def test_pool_dropped_before_validation(self, monkeypatch):
        records = _tiny_records(3, seed=92)
        tapes, live = [], []

        class TrackedTape(ad.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        inner = training.validation_score

        def validation_score(*args, **kwargs):
            live.append([t() is not None for t in tapes])
            return inner(*args, **kwargs)

        monkeypatch.setattr(training, "Tape", TrackedTape)
        monkeypatch.setattr(training, "validation_score", validation_score)
        train(_tiny_model(), records[1:], records[:1], epochs=2, seed=0)
        assert live == [[False], [False, False]]


def _desk_cirim():
    model = build_model("cirim", cell=RimCellConfig(channels=16, iterations=4, unit="indrnn"),
                        cascade=CascadeConfig(n_cascades=2))
    store = ad.ParameterStore(np.float32)
    model.init_params(store, 0)
    return model, store, TrainConfig(dtype="float32")


def _step_peak_mb(step) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


class TestStepsShareATape:
    @pytest.mark.parametrize("kind, unit, dtype", [("cirim", "indrnn", "float32"),
                                                   ("rim", "gru", "float64")])
    def test_train_matches_steps_on_fresh_tapes(self, kind, unit, dtype):
        """One epoch of train, whose steps share a tape, gives the bits of fresh-tape steps."""
        records = _tiny_records(4, seed=93)
        cfg = TrainConfig(dtype=dtype)

        def model():
            return build_model(kind, cell=RimCellConfig(channels=4, iterations=3, unit=unit),
                               cascade=CascadeConfig(n_cascades=2) if kind == "cirim" else None)

        result = train(model(), records[1:], records[:1], epochs=1, seed=5, cfg=cfg)

        m = model()
        store = ad.ParameterStore(dtype)
        m.init_params(store, 5)
        order = np.random.default_rng(5).permutation(3)
        steps = [training._train_step(m, records[1:][i], store, cfg) for i in order]
        val_loss, val_ssim = training.validation_score(m, records[:1], store, cfg)
        log = [{"epoch": 0, "split": "train", "loss": float(np.mean([s[0] for s in steps])),
                "ssim": float(np.mean([s[1] for s in steps]))},
               {"epoch": 0, "split": "val", "loss": val_loss, "ssim": val_ssim}]
        assert result.log == log
        assert result.steps == 3
        for name, value in store.copy_values().items():
            assert value.dtype == result.best_values[name].dtype
            assert value.tobytes() == result.best_values[name].tobytes(), name

    def test_pool_is_steady_and_spares_kept_results(self):
        """On a kept tape the pool holds as many buffers after step 3 as after step 2.

        Step 1's image and a leaf's gradient, kept by the caller, are pool
        buffers that are never lent again, so they are unchanged after step 3.
        """
        records = _tiny_records(3, seed=95)
        model = _tiny_model(cascades=2)
        store = ad.ParameterStore(np.float32)
        model.init_params(store, 0)
        cfg = TrainConfig(dtype="float32")
        tape = ad.Tape()
        leaves = store.leaves(tape)
        rec = records[0]
        x, estimates = model.forward(rec.kspace, rec.maps, rec.mask, leaves)
        ad.backward(training._loss_for(x, estimates, rec, cfg))
        kept = {"image": x.data, "grad": leaves["cascade0.conv1.weight"].grad}
        before = {name: a.copy() for name, a in kept.items()}
        del leaves, x, estimates
        tape.clear()
        pooled = [buf for bufs in tape._pool.values() for buf in bufs]
        for name, a in kept.items():
            assert any(buf is (a if a.base is None else a.base) for buf in pooled), name
        del pooled
        sizes = []
        for rec in records[1:]:
            training._train_step(model, rec, store, cfg, tape)
            sizes.append(sum(len(bufs) for bufs in tape._pool.values()))
        assert sizes[0] == sizes[1]
        for name, a in kept.items():
            assert np.array_equal(a, before[name]), name

    def test_kept_results_survive_the_next_step(self):
        """The image, a leaf's gradient and a view of an intermediate outlive the next step."""
        records = _tiny_records(2, seed=94)
        model = _tiny_model(cascades=2)
        store = ad.ParameterStore(np.float32)
        model.init_params(store, 0)
        cfg = TrainConfig(dtype="float32")
        tape = ad.Tape()
        leaves = store.leaves(tape)
        rec = records[0]
        x, estimates = model.forward(rec.kspace, rec.maps, rec.mask, leaves)
        ad.backward(training._loss_for(x, estimates, rec, cfg))
        kept = {"image": x.data, "grad": leaves["cascade0.conv1.weight"].grad,
                "view": estimates[0][0].data[1, 2:5]}
        before = {name: a.copy() for name, a in kept.items()}
        del leaves, x, estimates
        tape.clear()
        training._train_step(model, records[1], store, cfg, tape)
        for name, a in kept.items():
            assert np.array_equal(a, before[name]), name


class TestTrainLoop:
    @pytest.mark.parametrize("epochs", [0, -1])
    def test_zero_epochs_rejected(self, epochs):
        # like max_steps=0: a run of no epochs would hand back untrained parameters
        with pytest.raises(training.TrainingError, match="epoch"):
            train(_tiny_model(), _tiny_records(2), [], epochs=epochs, seed=0)

    def test_same_seed_identical_loss_curves(self):
        records = _tiny_records(3, seed=10)
        curves = []
        for _ in range(2):
            result = train(_tiny_model(), records[1:], records[:1], epochs=3, seed=42)
            curves.append([row["loss"] for row in result.log])
        assert curves[0] == curves[1]

    @pytest.mark.parametrize("kind", ["cirim", "rim", "varnet"])
    def test_loss_decreases_by_epoch_five(self, kind):
        # seed-fixed statistical check: all three seeds must improve
        for seed in (0, 1, 2):
            records = _tiny_records(4, seed=20 + seed)
            cfg = TrainConfig(lr=1e-3, loss="l1" if kind == "varnet" else "cirim",
                              dtype="float32")
            result = train(_tiny_model(kind), records[1:], records[:1], epochs=6,
                           seed=seed, cfg=cfg)
            tr = [row["loss"] for row in result.log if row["split"] == "train"]
            assert tr[5] < tr[0], f"{kind} seed {seed}: {tr}"

    def test_max_steps_caps_training(self):
        records = _tiny_records(3, seed=30)
        cfg = TrainConfig(max_steps=4, dtype="float32")
        result = train(_tiny_model(), records[1:], records[:1], epochs=10, seed=1, cfg=cfg)
        assert result.steps == 4

    def test_float32_training_keeps_one_precision(self):
        records = _tiny_records(3, seed=30)
        result = train(_tiny_model(), records[1:], records[:1], epochs=1, seed=1,
                       cfg=TrainConfig(dtype="float32"))
        for name, p in result.store.items():
            dtypes = {p.value.dtype, p.m.dtype, p.v.dtype, result.best_values[name].dtype}
            assert dtypes == {np.dtype(np.float32)}, name

    def test_best_validation_checkpoint_kept(self):
        records = _tiny_records(4, seed=40)
        result = train(_tiny_model(), records[1:], records[:1], epochs=4, seed=2)
        vals = [row["loss"] for row in result.log if row["split"] == "val"]
        assert min(vals) == pytest.approx(vals[int(np.argmin(vals))])
        assert set(result.best_values) == set(result.store.names())
        assert result.best_step == 3 * (int(np.argmin(vals)) + 1)  # 3 steps per epoch

    def test_store_ends_at_best_values_of_an_earlier_epoch(self):
        # a large step size makes validation prefer the first epoch's parameters
        records = _tiny_records(4, seed=40)
        result = train(_tiny_model(), records[1:], records[:1], epochs=3, seed=2,
                       cfg=TrainConfig(lr=0.3))
        assert not result.diverged
        assert result.best_step == 3 and result.steps == 9
        _assert_store_holds_best_values(result)

    def test_divergence_stops_with_last_good_parameters(self, monkeypatch):
        records = _tiny_records(4, seed=80)
        poison_adam_step(monkeypatch, 2)
        with np.errstate(invalid="ignore", over="ignore"):
            result = train(_tiny_model(), records, [], epochs=1, seed=6)
        assert result.diverged
        assert result.steps == 1  # the step that left the inf weight is not counted
        _assert_store_holds_best_values(result)

    @pytest.mark.parametrize("n_val", [0, 1])
    def test_divergence_on_last_step_of_epoch(self, monkeypatch, n_val):
        records = _tiny_records(3 + n_val, seed=81)
        poison_adam_step(monkeypatch, 3)
        with np.errstate(invalid="ignore", over="ignore"):
            result = train(_tiny_model(), records[:3], records[3:], epochs=2, seed=6)
        assert result.diverged
        assert result.steps == 2
        _assert_store_holds_best_values(result)

    def test_divergence_in_validation_keeps_last_good_parameters(self, monkeypatch):
        # 1e30 is finite, so the step is taken; the float32 validation pass overflows
        records = _tiny_records(4, seed=81)
        poison_adam_step(monkeypatch, 3, value=1e30)
        cfg = TrainConfig(dtype="float32")
        with np.errstate(invalid="ignore", over="ignore"):
            result = train(_tiny_model(), records[:3], records[3:], epochs=2, seed=6, cfg=cfg)
        assert result.diverged
        assert [row["split"] for row in result.log] == ["train"]
        assert result.best_step == 0  # no validation pass finished
        _assert_store_holds_best_values(result)

    @pytest.mark.parametrize("field, value, message", [
        ("dtype", "float16", "dtype must be one of ['float32', 'float64'], got 'float16'"),
        ("loss", "l2", "loss must be one of ['l1', 'cirim', 'ssim'], got 'l2'"),
        ("weight_orientation", "middle",
         "weight_orientation must be one of ['late', 'early'], got 'middle'"),
        ("max_steps", 0, "max_steps must be at least 1, got 0"),
        ("lr", -1.0, "lr must be above 0, got -1.0"),
        ("lr", 0.0, "lr must be above 0, got 0.0"),
        ("lr", float("nan"), "lr must be a finite number, got nan"),
        ("lr", float("inf"), "lr must be a finite number, got inf"),
        ("lr", "1e-3", "lr must be a finite number, got '1e-3'")],
        ids=["dtype-float16", "loss-l2", "weight_orientation-middle", "max_steps-0", "lr--1.0",
             "lr-0.0", "lr-nan", "lr-inf", "lr-1e-3"])
    def test_unknown_config_value_rejected_before_any_step(self, monkeypatch, field, value,
                                                           message):
        def no_step(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(training, "_train_step", no_step)
        with pytest.raises(training.TrainingError, match=f"^{re.escape(message)}$"):
            train(_tiny_model(), _tiny_records(1), [], epochs=1, seed=0,
                  cfg=TrainConfig(**{field: value}))

    def test_validation_score_cannot_be_reached_with_a_bad_config(self):
        """A loss name `_loss_for` does not know would otherwise score as the cirim loss."""
        model, store = _tiny_model(), ad.ParameterStore()
        model.init_params(store, 0)
        message = "loss must be one of ['l1', 'cirim', 'ssim'], got 'typo'"
        with pytest.raises(training.TrainingError, match=f"^{re.escape(message)}$"):
            training.validation_score(model, _tiny_records(1), store, TrainConfig(loss="typo"))

    def test_empty_training_set_rejected(self):
        with pytest.raises(training.TrainingError):
            train(_tiny_model(), [], [], epochs=1, seed=0)

    def test_training_log_csv_shape(self):
        records = _tiny_records(2, seed=50)
        result = train(_tiny_model(), records[1:], records[:1], epochs=2, seed=3)
        blob = training.training_log_csv(result.log).decode()
        lines = [l for l in blob.split("\r\n") if l]
        assert lines[0] == "epoch,split,loss,ssim"
        assert len(lines) == 1 + 2 * 2


class TestEvaluate:
    def test_reference_method_scores_perfectly(self, small_record):
        ident = training.MethodSpec("oracle", lambda rec: rec.reference)
        rows = evaluate([ident], [small_record], timing=False)
        row = next(r for r in rows if r["method"] == "oracle" and r["id"] == "0000")
        assert row["ssim"] == pytest.approx(1.0, abs=1e-12)
        assert np.isinf(row["psnr_db"])
        assert float(l1_loss(C(small_record.reference), C(small_record.reference)).data) == 0.0

    def test_zero_filled_floor_always_present(self, small_record):
        rows = evaluate([training.method_cs(max_iter=3)], [small_record], timing=False)
        assert any(r["method"] == "zerofill" for r in rows)

    def test_single_method_cohort_wa_is_two(self, small_record):
        rows = evaluate([training.method_zero_filled()], [small_record], timing=False)
        summary = next(r for r in rows if r["id"] == "mean")
        assert summary["wa"] == pytest.approx(2.0, abs=1e-9)

    def test_timing_off_zeroes_wall_ms(self, small_record):
        rows = evaluate([training.method_zero_filled()], [small_record], timing=False)
        assert all(r["wall_ms"] == 0.0 for r in rows)

    def test_deterministic_csv_bytes(self, small_record):
        from reconkit.containers import metrics_csv_bytes
        rows1 = evaluate([training.method_zero_filled()], [small_record], timing=False)
        rows2 = evaluate([training.method_zero_filled()], [small_record], timing=False)
        assert metrics_csv_bytes(rows1) == metrics_csv_bytes(rows2)

    def test_checkpoint_method_roundtrip(self, tmp_path, small_record):
        model = _tiny_model()
        records = _tiny_records(2, seed=60)
        result = train(model, records, [], epochs=1, seed=4)
        assert result.best_step == result.steps == 2  # without validation, the last epoch
        path = tmp_path / "ckpt.cks"
        training.save_trained(path, model, result.best_values)
        method = training.method_checkpoint(path)
        out = method.recon(small_record)
        assert out.shape == small_record.shape
        assert method.name == "cirim"

    @pytest.mark.parametrize("dtype, image_dtype", [("float32", np.complex64),
                                                    ("float64", np.complex128)])
    def test_checkpoint_runs_in_its_training_precision(self, tmp_path, small_record,
                                                       dtype, image_dtype):
        from reconkit import containers
        model = _tiny_model()
        result = train(model, _tiny_records(2, seed=60), [], epochs=1, seed=4,
                       cfg=TrainConfig(dtype=dtype))
        path = tmp_path / "ckpt.cks"
        training.save_trained(path, model, result.best_values)
        assert containers.load_checkpoint(path)[2]["dtype"] == dtype
        assert training.method_checkpoint(path).recon(small_record).dtype == image_dtype

    def test_float64_checkpoint_reconstructs_the_bits_of_its_store(self, tmp_path, small_record):
        model = _tiny_model()
        result = train(model, _tiny_records(2, seed=61), [], epochs=1, seed=4)
        path = tmp_path / "ckpt.cks"
        training.save_trained(path, model, result.best_values)
        out = training.method_checkpoint(path).recon(small_record)
        assert out.tobytes() == reconstruct(model, result.store, small_record).tobytes()

    def test_float64_checkpoint_with_float32_arrays_still_loads(self, tmp_path, small_record):
        # as every float64 checkpoint written before they kept their precision
        from reconkit import containers
        model = _tiny_model()
        result = train(model, _tiny_records(2, seed=61), [], epochs=1, seed=4)
        path = tmp_path / "ckpt.cks"
        containers.save_checkpoint(path, model.config_dict(),
                                   {k: v.astype(np.float32) for k, v in result.best_values.items()},
                                   meta={"dtype": "float64"})
        out = training.method_checkpoint(path).recon(small_record)
        ref = reconstruct(model, result.store, small_record)
        assert out.dtype == np.complex128
        assert np.allclose(out, ref, rtol=1e-4, atol=1e-6 * np.abs(ref).max())

    def test_checkpoint_without_dtype_runs_in_float64(self, tmp_path, small_record):
        # as every checkpoint written before the field was
        from reconkit import containers
        model = _tiny_model()
        store = ad.ParameterStore()
        model.init_params(store, 0)
        path = tmp_path / "ckpt.cks"
        containers.save_checkpoint(path, model.config_dict(), store.copy_values())
        assert training.method_checkpoint(path).recon(small_record).dtype == np.complex128

    def test_run_variants_evaluates_its_float32_models_in_float32(self, monkeypatch):
        from reconkit.experiments import DeskDataset, run_variants
        seen = {}
        inner = training.evaluate

        def evaluate(methods, records, **kwargs):
            seen.update((m.name, m.recon(records[0]).dtype) for m in methods)
            return inner(methods, records, **kwargs)

        monkeypatch.setattr(training, "evaluate", evaluate)
        data = DeskDataset(train=_tiny_records(1, seed=80), test=_tiny_records(1, seed=81))
        run_variants({"cirim": _tiny_model(), "rim": _tiny_model("rim")}, data, steps=1,
                     train_seed=0)
        assert seen["cirim"] == seen["rim"] == np.complex64

    def test_checkpoint_with_tampered_config_rejected(self, tmp_path):
        from reconkit import containers
        model = _tiny_model()
        records = _tiny_records(2, seed=70)
        result = train(model, records, [], epochs=1, seed=5)
        path = tmp_path / "ckpt.cks"
        training.save_trained(path, model, result.best_values)
        config, values, _ = containers.load_checkpoint(path)
        config["cell"]["channels"] = 32          # no longer matches the records
        containers.save_checkpoint(path, config, values)
        with pytest.raises(containers.CheckpointMismatchError, match="cascade0.conv1.weight"):
            training.method_checkpoint(path)

    def test_checkpoint_loads_without_a_draw(self, tmp_path, small_record, monkeypatch):
        model = _tiny_model()
        store = ad.ParameterStore()
        model.init_params(store, 0)
        path = tmp_path / "ckpt.cks"
        training.save_trained(path, model, store.copy_values())

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"loading a checkpoint drew from rng.{name}")
        monkeypatch.setattr(np.random, "default_rng", lambda *args: NoDraws())
        out = training.method_checkpoint(path).recon(small_record)
        assert out.tobytes() == reconstruct(model, store, small_record).tobytes()

    def test_matched_rim_width_is_the_scans_width(self, monkeypatch):
        """The bisection picks the width a scan of all 61 picks, at every decision edge."""
        from reconkit import experiments
        iterations = 4
        counts = {c: experiments.count_parameters(experiments._gru_rim(c, iterations))
                  for c in range(4, 65)}
        assert all(counts[c] < counts[c + 1] for c in range(4, 64))
        # each count, each midpoint between neighbours and one on either side of both
        edges = ([counts[c] for c in counts]
                 + [(counts[c] + counts[c + 1]) // 2 for c in range(4, 64)])
        targets = sorted({t + d for t in edges for d in (-1, 0, 1)} | {0, counts[64] + 10**6})
        monkeypatch.setattr(experiments, "count_parameters",
                            lambda model: counts[model.cell.channels])
        for target in targets:
            want = min(counts, key=lambda c: abs(counts[c] - target))
            assert experiments.matched_rim_channels(target, iterations) == want, target

    def test_run_variants_names_an_empty_test_set(self):
        from reconkit.experiments import DeskDataset, run_variants
        data = DeskDataset(train=_tiny_records(1, seed=80))
        with pytest.raises(training.TrainingError, match="test record"):
            run_variants({"cirim": _tiny_model()}, data, steps=1, train_seed=0)

    def test_run_variants_names_a_variant_that_repeats_a_method(self, monkeypatch):
        from reconkit.experiments import DeskDataset, run_variants
        data = DeskDataset(train=_tiny_records(1, seed=80), test=_tiny_records(1, seed=81))
        steps = []
        inner = training.adam_step
        monkeypatch.setattr(training, "adam_step",
                            lambda store, **kwargs: steps.append(inner(store, **kwargs)))
        with pytest.raises(ValueError, match="two methods are named 'cs'"):
            run_variants({"cs": _tiny_model()}, data, steps=1, train_seed=0)
        assert steps == []      # the clash is found before any variant trains

    @pytest.mark.parametrize("row", sorted(BAD_MODEL_CONFIGS))
    def test_malformed_checkpoint_config_names_the_field(self, tmp_path, row):
        from reconkit import containers
        from reconkit.networks import ConfigError
        config, field = BAD_MODEL_CONFIGS[row]
        path = tmp_path / "ckpt.cks"
        containers.save_checkpoint(path, config, {})
        with pytest.raises(ConfigError, match=field):
            training.method_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        ("drop", "cascade0.conv1.bias is missing"),
        ("add", "cascade9.extra is not a parameter"),
        ("reshape", "cascade0.conv3.bias has shape"),
        ("channels_512", "cascade0.conv1.weight has shape"),
        ("cascades_40", "cascade2.conv1.weight is missing"),
    ])
    def test_checkpoint_parameter_mismatch_named(self, tmp_path, edit, message):
        """The first parameter the loading pass reaches that does not fit is named before
        the pass runs its layer, so the echo of a far wider model costs no draw or layer."""
        from reconkit import containers
        model = _tiny_model(iterations=4, channels=16, cascades=2)     # the desk CIRIM
        store = ad.ParameterStore("float32")
        model.init_params(store, 0)
        config, values = model.config_dict(), store.copy_values()
        if edit == "drop":
            del values["cascade0.conv1.bias"]
        elif edit == "add":
            values["cascade9.extra"] = np.zeros(3)
        elif edit == "reshape":
            values["cascade0.conv3.bias"] = np.zeros(3)
        elif edit == "channels_512":
            config["cell"]["channels"] = 512
        else:
            config["cascade"]["n_cascades"] = 40
        path = tmp_path / "ckpt.cks"
        containers.save_checkpoint(path, config, values, meta={"dtype": "float32"})
        tracemalloc.start()
        try:
            with pytest.raises(containers.CheckpointMismatchError, match=message):
                training.method_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
