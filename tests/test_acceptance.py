"""Acceptance gate: every release criterion with its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s``); criteria
with runtime bounds assert their own elapsed time.
"""

import functools
import hashlib
import time

import numpy as np
import pytest

from reconkit import autodiff as ad
from reconkit import baselines, metrics, mri, networks, phantom, sampling
from reconkit.experiments import desk_pipeline
from reconkit.mri import SamplingMask
from reconkit.networks import CascadeConfig, CirimModel, RimCellConfig, UnetConfig, VarnetModel
from reconkit.training import cirim_loss, iteration_loss_weights

from conftest import random_complex
from test_autodiff import OP_CASES, _fd_vs_autodiff
from test_metrics import COHORT_ROWS


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS - {description}")
        return wrapper
    return decorate


@pytest.fixture(scope="session")
def desk_run():
    t0 = time.perf_counter()
    result = desk_pipeline()
    elapsed = time.perf_counter() - t0
    return result, elapsed


@criterion(1, "adjoint identity on 100 random instances, < 5 s")
def test_criterion_1_adjoint_identity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(100):
        h = int(rng.integers(8, 33))
        w = int(rng.integers(8, 33))
        n_coils = int(rng.integers(1, 5))
        maps = phantom.make_coils(n_coils, h, w)
        keep = (rng.random((h, w)) < rng.uniform(0.2, 1.0)).astype(float)
        keep[h // 2, w // 2] = 1.0
        mask = SamplingMask(keep, kind="full")
        x = random_complex(rng, (h, w))
        y = random_complex(rng, (n_coils, h, w))
        lhs = np.vdot(y, mri.forward_op(x, maps, mask))
        rhs = np.vdot(mri.adjoint_op(y, maps, mask), x)
        err = abs(lhs - rhs) / (np.linalg.norm(x) * np.linalg.norm(y))
        assert err < 1e-10
    assert time.perf_counter() - t0 < 5.0


@criterion(2, "finite-difference gradient oracle (all ops + unrolled loss), < 60 s")
def test_criterion_2_gradient_oracle(small_record):
    t0 = time.perf_counter()

    # (a) every differentiable op
    for name in sorted(OP_CASES):
        build, arrays = OP_CASES[name]
        _fd_vs_autodiff(build, arrays, tol=1e-4, eps=1e-5)

    # (b) the fully unrolled cascaded reconstruction loss on an 8x8 problem
    rng = np.random.default_rng(202)
    spec = phantom.default_brain_spec(8, seed=41)
    img, lesion, wm = phantom.make_phantom(spec)
    maps = phantom.make_coils(2, 8, 8)
    mask = sampling.gaussian2d_mask(8, 8, 1.6, seed=42)
    record = phantom.simulate_acquisition(img, maps, mask, 0.02, seed=43,
                                          lesion_mask=lesion, wm_mask=wm)
    model = CirimModel(RimCellConfig(channels=4, kernel_sizes=(5, 3, 3),
                                     unit="indrnn", iterations=2),
                       CascadeConfig(n_cascades=2), kind="cirim")
    store = ad.ParameterStore()
    model.init_params(store, seed=7)

    ref = ad.constant(ad.complex_to_channels(record.reference))

    def loss_value() -> float:
        x, ests = model.forward(record.kspace, record.maps, record.mask, store.frozen())
        return float(cirim_loss(ests, ref).data)

    tape = ad.Tape()
    leaves = store.leaves(tape)
    x, ests = model.forward(record.kspace, record.maps, record.mask, leaves)
    loss = cirim_loss(ests, ref)
    ad.backward(loss)

    eps = 1e-5
    auto = np.concatenate([leaves[n].grad.ravel() for n in store.names()])
    fd = np.empty_like(auto)
    pos = 0
    for name in store.names():
        value = store[name].value
        flat = value.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_value()
            flat[i] = orig - eps
            down = loss_value()
            flat[i] = orig
            fd[pos] = (up - down) / (2 * eps)
            pos += 1
    rel = np.linalg.norm(auto - fd) / np.linalg.norm(fd)
    assert rel < 1e-4
    assert time.perf_counter() - t0 < 60.0


@criterion(3, "zero-weight networks return the zero-filled image bit for bit")
def test_criterion_3_zero_network_neutrality(small_record):
    rec = small_record
    zero_filled = mri.adjoint_op(rec.kspace, rec.maps, rec.mask)
    models = {
        "cirim": CirimModel(RimCellConfig(channels=4, iterations=2, unit="indrnn"),
                            CascadeConfig(n_cascades=2), kind="cirim"),
        "rim": CirimModel(RimCellConfig(channels=4, iterations=2, unit="gru"),
                          CascadeConfig(n_cascades=1), kind="rim"),
        "irim": CirimModel(RimCellConfig(channels=4, iterations=2, unit="indrnn"),
                           CascadeConfig(n_cascades=1), kind="irim"),
        "varnet": VarnetModel(UnetConfig(pools=2, channels=4),
                              CascadeConfig(n_cascades=2, explicit_dc=False)),
    }
    for kind, model in models.items():
        store = ad.ParameterStore()
        model.init_params(store, seed=0)
        for _, p in store.items():
            p.value[:] = 0.0
        x, _ = model.forward(rec.kspace, rec.maps, rec.mask, store.frozen())
        assert np.array_equal(ad.channels_to_complex(x.data), zero_filled), kind


@criterion(4, "DC toggle: d=0 equals implicit path exactly; d=1 hard-replaces")
def test_criterion_4_dc_toggle(small_record):
    rec = small_record
    cell = RimCellConfig(channels=4, iterations=2, unit="indrnn")

    explicit = CirimModel(cell, CascadeConfig(n_cascades=2, explicit_dc=True,
                                              dc_weight_init=0.0), kind="cirim")
    store = ad.ParameterStore()
    explicit.init_params(store, seed=3)
    implicit = CirimModel(cell, CascadeConfig(n_cascades=2, explicit_dc=False), kind="cirim")
    params = store.frozen()
    xe, _ = explicit.forward(rec.kspace, rec.maps, rec.mask, params)
    xi, _ = implicit.forward(rec.kspace, rec.maps, rec.mask, params)
    assert np.array_equal(xe.data, xi.data)

    vstore = ad.ParameterStore()
    varnet_on = VarnetModel(UnetConfig(pools=2, channels=4),
                            CascadeConfig(n_cascades=2, explicit_dc=True, dc_weight_init=0.0))
    varnet_on.init_params(vstore, seed=4)
    varnet_off = VarnetModel(UnetConfig(pools=2, channels=4),
                             CascadeConfig(n_cascades=2, explicit_dc=False))
    vp = vstore.frozen()
    xv_on, _ = varnet_on.forward(rec.kspace, rec.maps, rec.mask, vp)
    xv_off, _ = varnet_off.forward(rec.kspace, rec.maps, rec.mask, vp)
    assert np.array_equal(xv_on.data, xv_off.data)

    # d = 1: one cascade's DC step pins the sampled k-space to the data
    x_hat, _ = implicit.forward(rec.kspace, rec.maps, rec.mask, params)
    k_hat = mri.fft2c(mri.expand(ad.channels_to_complex(x_hat.data), rec.maps))
    k_dc = mri.soft_dc_kspace(k_hat, rec.kspace, rec.mask, 1.0)
    on = rec.mask.keep.astype(bool)
    assert np.abs(k_dc[:, on] - rec.kspace[:, on]).max() < 1e-10
    # and the soft DC the networks run equals, at d = 1, the hard-replaced
    # k-space reduced back to an image
    ops = networks._Operators(rec.kspace, rec.maps, rec.mask)
    x_dc = ops.soft_dc(ad.constant(x_hat.data), ad.constant(np.ones(1)))
    x_replaced = mri.reduce(mri.ifft2c(k_dc), rec.maps)
    assert np.abs(ad.channels_to_complex(x_dc.data) - x_replaced).max() < 1e-10


@criterion(5, "cohort weighted-average fixture reproduces the published column")
def test_criterion_5_weighted_average_fixture():
    triples = [(cr, wmn, bgn) for _, _, cr, wmn, bgn, _ in COHORT_ROWS]
    computed = metrics.weighted_average(triples)
    labels = [(m, d) for m, d, *_ in COHORT_ROWS]
    expected = {lbl: wa for lbl, (*_, wa) in zip(labels, COHORT_ROWS)}
    for lbl, got in zip(labels, computed):
        assert got == pytest.approx(expected[lbl], abs=0.015), lbl
    anchors = dict(zip(labels, computed))
    assert anchors[("PICS", "-")] == pytest.approx(0.64, abs=0.01)
    assert anchors[("CIRIM", "FLAIR")] == pytest.approx(0.55, abs=0.01)
    assert anchors[("CascadeNet", "T1")] == pytest.approx(1.08, abs=0.01)
    assert anchors[("Zero-Filled", "-")] == pytest.approx(1.39, abs=0.01)


@criterion(6, "mask generators hit their acceleration and ACS contracts, < 10 s")
def test_criterion_6_mask_audit():
    t0 = time.perf_counter()

    gauss = sampling.gaussian2d_mask(320, 320, 10.0, seed=11)
    assert abs(gauss.achieved_acceleration - 10.0) / 10.0 < 0.01

    poisson = sampling.poisson2d_mask(224, 224, acceleration=7.5, seed=12)
    assert abs(poisson.achieved_acceleration - 7.5) / 7.5 <= 0.05

    w = 320
    equi = sampling.equidistant1d_mask(320, w, acceleration=4, center_frac=0.08, seed=13)
    n_center = int(round(0.08 * w))
    c0 = w // 2 - n_center // 2
    cols = equi.keep[0].astype(bool)
    assert cols[c0:c0 + n_center].all()
    assert not cols[c0 - 1] or (c0 - 1) % 4 == 0
    assert equi.extra["n_center_lines"] == n_center

    assert time.perf_counter() - t0 < 10.0


@criterion(7, "desk-scale training beats the baselines in the required order, < 15 min")
def test_criterion_7_desk_scale_ordering(desk_run):
    result, elapsed = desk_run
    ssim = result.mean_ssim
    assert ssim["cirim"] >= ssim["cs"] >= ssim["zerofill"]
    assert ssim["cirim"] - ssim["zerofill"] >= 0.05
    assert ssim["cirim"] >= ssim["rim"] - 0.005
    # parameter budgets are matched within a few percent
    params = result.params
    assert abs(params["cirim"] - params["rim"]) / params["cirim"] < 0.1
    # cascade benefit also shows up in the best validation loss
    cirim_val = min(r["loss"] for r in result.results["cirim"].log if r["split"] == "val")
    rim_val = min(r["loss"] for r in result.results["rim"].log if r["split"] == "val")
    assert cirim_val <= rim_val
    assert elapsed < 15 * 60


@criterion(8, "compressed-sensing baseline: monotone objective, exact limit at alpha=0")
def test_criterion_8_cs_contract(desk_record):
    rec = desk_record
    history = []
    baselines.cs_l1wavelet(rec.kspace, rec.maps, rec.mask, alpha=0.005, max_iter=60,
                           history=history)
    assert (np.diff(history) <= 1e-10).all()

    spec = phantom.default_brain_spec(32, seed=81)
    img, _, _ = phantom.make_phantom(spec)
    maps = phantom.make_coils(3, 32, 32)
    full = sampling.full_mask(32, 32)
    clean = phantom.simulate_acquisition(img, maps, full, 0.0, seed=82)
    x = baselines.cs_l1wavelet(clean.kspace, clean.maps, clean.mask, alpha=0.0, max_iter=60)
    rel = np.linalg.norm(x - clean.reference) / np.linalg.norm(clean.reference)
    assert rel < 1e-3


@criterion(9, "unroll loss weights: ratio 10 end to end, geometric in between")
def test_criterion_9_loss_weights():
    w = iteration_loss_weights(8)
    assert w[-1] / w[0] == pytest.approx(10.0, rel=1e-12)
    ratios = w[1:] / w[:-1]
    assert np.allclose(ratios, 10.0 ** (1.0 / 7.0), rtol=1e-12)


# the first 16 hex digits of sha256 of the desk_pipeline CSV
DESK_CSV_SHA256 = "390fbdde653df1a6"


def test_desk_csv_bytes_are_pinned(desk_run):
    result, _ = desk_run
    digest = hashlib.sha256(result.csv_bytes).hexdigest()
    assert digest.startswith(DESK_CSV_SHA256), (
        f"the desk_pipeline CSV changed: sha256 {digest}. A change that moves these bits on "
        f"purpose documents the move and updates DESK_CSV_SHA256")


@criterion(10, "repeating the pipeline with identical seeds is byte-identical")
def test_criterion_10_determinism(desk_run):
    first, _ = desk_run
    second = desk_pipeline()
    assert second.csv_bytes == first.csv_bytes
