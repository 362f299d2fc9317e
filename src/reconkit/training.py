"""Losses, the ADAM optimizer, the training loop and the evaluation harness."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import Literal, Sequence

import numpy as np

from . import autodiff as ad
from . import baselines, containers, metrics
from .autodiff import ParameterStore, Tape, Tensor
from .networks import DivergedError, model_from_config, reconstruct
from .phantom import DatasetRecord
from .schema import Count, Positive, check


class TrainingError(RuntimeError):
    """Training contract violation (missing estimates, bad config, ...)."""


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def l1_loss(x_hat, x_ref) -> Tensor:
    """Mean absolute difference of the magnitudes of two two-channel images."""
    th, tr = ad.astensor(x_hat), ad.astensor(x_ref)
    if th.shape != tr.shape:
        raise TrainingError(f"image shapes differ: {th.shape} vs {tr.shape}")
    return ad.reduce_mean(ad.absolute(ad.sub(ad.magnitude(th), ad.magnitude(tr))))


def iteration_loss_weights(n_iterations: int, orientation: str = "late") -> np.ndarray:
    """Geometric per-iteration loss weights.

    "late" makes the last step 10x the first (w_tau = 10^((tau-T)/(T-1)));
    "early" flips the exponent, for ablation.  A single iteration gets
    weight 1.
    """
    if n_iterations < 1:
        raise TrainingError(f"need at least one iteration, got {n_iterations}")
    if n_iterations == 1:
        return np.ones(1)
    tau = np.arange(1, n_iterations + 1, dtype=np.float64)
    if orientation == "late":
        expo = (tau - n_iterations) / (n_iterations - 1)
    elif orientation == "early":
        expo = (n_iterations - tau) / (n_iterations - 1)
    else:
        raise TrainingError(f"unknown weight orientation {orientation!r}")
    return 10.0 ** expo


def cirim_loss(estimates: Sequence[Sequence], x_ref, orientation: str = "late") -> Tensor:
    """Iteration-weighted magnitude l1, averaged over cascades.

    `estimates` is a list per cascade of the per-iteration two-channel
    images; later iterations weigh more so the final prediction dominates.
    The weights take the loss terms' dtype, so a float32 pass stays float32.
    """
    if not estimates or not estimates[0]:
        raise TrainingError("no estimates provided")
    n_iter = len(estimates[0])
    weights = iteration_loss_weights(n_iter, orientation)
    total = None
    for ests in estimates:
        if len(ests) != n_iter:
            raise TrainingError(f"cascade with {len(ests)} estimates, expected {n_iter}")
        for w, e in zip(weights, ests):
            l1 = l1_loss(e, x_ref)
            term = ad.mul(np.asarray(w / (n_iter * len(estimates)), dtype=l1.dtype), l1)
            total = term if total is None else ad.add(total, term)
    return total


def ssim_loss(x_hat, x_ref) -> Tensor:
    """1 - SSIM of the magnitudes of two two-channel images, differentiable; in [0, 2]."""
    th, tr = ad.astensor(x_hat), ad.astensor(x_ref)
    if th.shape != tr.shape:
        raise TrainingError(f"image shapes differ: {th.shape} vs {tr.shape}")
    return ad.sub(1.0, metrics.ssim_tensor(ad.magnitude(th), ad.magnitude(tr).data))


# ---------------------------------------------------------------------------
# ADAM
# ---------------------------------------------------------------------------

def adam_step(store: ParameterStore, *, grads: dict[str, Tensor], lr: float) -> None:
    """One bias-corrected ADAM update over every parameter in the store.

    `grads` maps every parameter name to the leaf tensor whose gradient
    `backward` filled, in the leaf's dtype, the store's; a leaf with no
    gradient counts as a zero gradient.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8    # the usual moment decays and denominator guard
    missing = [name for name in store.names() if name not in grads]
    if missing:
        raise TrainingError(f"no gradient leaf for parameter(s) {missing}")
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in store.items():
        if p.m is None:
            p.m = np.zeros_like(p.value)
            p.v = np.zeros_like(p.value)
        g = grads[name].grad
        g = np.zeros_like(p.value) if g is None else g
        p.m = beta1 * p.m + (1.0 - beta1) * g
        p.v = beta2 * p.v + (1.0 - beta2) * (g * g)
        m_hat = p.m / bc1
        v_hat = p.v / bc2
        p.value = p.value - lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    lr: Positive = 1e-3
    loss: Literal["l1", "cirim", "ssim"] = "cirim"
    weight_orientation: Literal["late", "early"] = "late"
    dtype: containers.Precision = "float64"      # the model's one precision; "float32" runs faster
    max_steps: Count | None = None

    def __post_init__(self):
        check(self, TrainingError)


@dataclass
class TrainResult:
    store: ParameterStore
    best_values: dict
    log: list = field(default_factory=list)
    steps: int = 0
    best_step: int = 0      # optimizer steps behind best_values
    diverged: bool = False


def _magnitude(x: Tensor) -> np.ndarray:
    return np.abs(ad.channels_to_complex(x.data))


def _loss_for(x, estimates, record, cfg: TrainConfig):
    # the reference in the pass's complex dtype, as two channels
    ref = ad.complex_to_channels(record.reference.astype(np.result_type(x.dtype, np.complex64)))
    if cfg.loss == "l1":
        return l1_loss(x, ref)
    if cfg.loss == "ssim":
        return ssim_loss(x, ref)
    return cirim_loss(estimates, ref, orientation=cfg.weight_orientation)


def _train_step(model, record: DatasetRecord, store: ParameterStore,
                cfg: TrainConfig, tape: Tape | None = None) -> tuple[float, float]:
    """One forward/backward/ADAM step; raises DivergedError instead of taking a bad one.

    The step's graph is freed as soon as backward has run, or the pass
    failed: a tape and the tensors it records refer to each other, so
    without the clear the graph would wait for a cyclic garbage collection.
    The step's buffers stay in the tape's pool, so a step run on the tape of
    the step before reuses that step's memory (without `tape`, the step gets
    a fresh tape of its own).
    """
    tape = Tape() if tape is None else tape
    leaves = store.leaves(tape)
    try:
        x, estimates = model.forward(record.kspace, record.maps, record.mask, leaves)
        loss = _loss_for(x, estimates, record, cfg)
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            raise DivergedError(f"non-finite loss {loss_val}")
        ad.backward(loss)
    finally:
        tape.clear()
    adam_step(store, grads=leaves, lr=cfg.lr)
    for name, lo, hi in model.constraints():
        store.clamp(name, lo, hi)
    for name, p in store.items():
        if not np.isfinite(p.value).all():
            raise DivergedError(f"parameter {name} is non-finite after the optimizer step")
    ssim_val = metrics.ssim(_magnitude(x), np.abs(record.reference))
    return loss_val, ssim_val


def validation_score(model, records: Sequence[DatasetRecord], store: ParameterStore,
                     cfg: TrainConfig) -> tuple[float, float]:
    losses, ssims = [], []
    params = store.frozen()
    for rec in records:
        x, estimates = model.forward(rec.kspace, rec.maps, rec.mask, params)
        losses.append(float(_loss_for(x, estimates, rec, cfg).data))
        ssims.append(metrics.ssim(_magnitude(x), np.abs(rec.reference)))
    return float(np.mean(losses)), float(np.mean(ssims))


def train(model, train_records: Sequence[DatasetRecord],
          val_records: Sequence[DatasetRecord], epochs: int, seed: int,
          cfg: TrainConfig | None = None) -> TrainResult:
    """Batch-size-1 training, deterministic per seed.

    Logs one training and one validation row per epoch; keeps the parameter
    snapshot with the best validation loss (the last one without validation
    records) as `best_values`.  The steps of an epoch share one tape, so
    each step reuses the buffers of the step before; the tape and its
    buffers are dropped before the validation pass.  A DivergedError ends
    the run: from a step (non-finite reconstruction, loss or updated
    parameter; that step is not counted) or from the validation pass;
    `best_values` then holds the last good parameters.  Either way `store`
    (in `cfg.dtype`) ends at a copy of `best_values`.
    """
    cfg = cfg or TrainConfig()
    if epochs < 1:
        raise TrainingError(f"need at least one epoch, got {epochs}")
    if len(train_records) < 1:
        raise TrainingError("need at least one training record")

    store = ParameterStore(cfg.dtype)
    model.init_params(store, seed)
    result = TrainResult(store=store, best_values=store.copy_values())
    best_val = np.inf
    rng = np.random.default_rng(seed)

    try:
        for epoch in range(epochs):
            order = rng.permutation(len(train_records))
            if cfg.max_steps is not None:
                order = order[:cfg.max_steps - result.steps]
            losses, ssims = [], []
            tape = Tape()
            try:
                for idx in order:
                    loss_val, ssim_val = _train_step(model, train_records[idx], store, cfg, tape)
                    losses.append(loss_val)
                    ssims.append(ssim_val)
                    result.steps += 1
            finally:  # a diverged epoch still logs the steps it took
                del tape  # the pool is not kept through the validation pass
                if losses:
                    result.log.append({"epoch": epoch, "split": "train",
                                       "loss": float(np.mean(losses)),
                                       "ssim": float(np.mean(ssims))})
            if val_records:
                val_loss, val_ssim = validation_score(model, val_records, store, cfg)
                result.log.append({"epoch": epoch, "split": "val",
                                   "loss": val_loss, "ssim": val_ssim})
                if val_loss < best_val:
                    best_val = val_loss
                    result.best_values, result.best_step = store.copy_values(), result.steps
            else:
                result.best_values, result.best_step = store.copy_values(), result.steps
            if cfg.max_steps is not None and result.steps >= cfg.max_steps:
                break
    except DivergedError:
        result.diverged = True
    for name, p in store.items():
        p.value = result.best_values[name].copy()
    return result


def training_log_csv(log: list[dict]) -> bytes:
    lines = ["epoch,split,loss,ssim"]
    for row in log:
        lines.append(f"{row['epoch']},{row['split']},{row['loss']:.8f},{row['ssim']:.6f}")
    return ("\r\n".join(lines) + "\r\n").encode("utf-8")


def save_trained(path, model, values: dict, extra_meta: dict | None = None) -> None:
    meta = {**(extra_meta or {}), "dtype": np.result_type(*values.values()).name}  # precision
    containers.save_checkpoint(path, model.config_dict(), values, meta=meta)


# ---------------------------------------------------------------------------
# evaluation harness
# ---------------------------------------------------------------------------

@dataclass
class MethodSpec:
    name: str
    recon: Callable         # a DatasetRecord to its complex image

    def __post_init__(self):
        check(self, TrainingError)


def method_zero_filled() -> MethodSpec:
    return MethodSpec("zerofill", lambda rec: baselines.zero_filled(rec.kspace, rec.maps, rec.mask))


def method_cs(alpha: float = baselines.CS_ALPHA,
              max_iter: int = baselines.CS_MAX_ITER) -> MethodSpec:
    return MethodSpec("cs", lambda rec: baselines.cs_l1wavelet(
        rec.kspace, rec.maps, rec.mask, alpha=alpha, max_iter=max_iter))


def method_model(name: str, model, store: ParameterStore) -> MethodSpec:
    return MethodSpec(name, lambda rec: reconstruct(model, store, rec))


def method_checkpoint(path, name: str | None = None) -> MethodSpec:
    """The model a checkpoint holds, run in its `dtype`."""
    config, values, extra = containers.load_checkpoint(path)
    model = model_from_config(config)
    store = ParameterStore(extra["dtype"])
    try:
        model.load_params(store, values)
    except ad.GraphError as exc:
        raise containers.CheckpointMismatchError(
            f"the checkpoint does not fit its {model.kind} model: {exc}") from exc
    return method_model(name or model.kind, model, store)


def _safe(metric_fn, *args):
    try:
        return metric_fn(*args)
    except metrics.MetricError:
        return None


def check_method_names(names: Sequence[str]) -> None:
    """Two methods with one name are a ValueError: their rows could not be told apart."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"two methods are named {name!r}")


def evaluate(methods: Sequence[MethodSpec], records: Sequence[DatasetRecord],
             dataset_name: str = "phantoms", timing: bool = True) -> list[dict]:
    """Score every method on every record; zero-filled is always included.

    Returns per-record rows plus one "mean" summary row per method carrying
    the cohort-relative weighted average.  With `timing` off, wall_ms is
    written as zero so repeated runs are byte-identical.  Two methods with
    one name are a ValueError (`check_method_names`).
    """
    methods = list(methods)
    if not any(m.name == "zerofill" for m in methods):
        methods.insert(0, method_zero_filled())
    check_method_names([m.name for m in methods])

    rows: list[dict] = []
    for rid, rec in enumerate(records):
        ref_mag = np.abs(rec.reference)
        for m in methods:
            t0 = time.perf_counter()
            x_hat = m.recon(rec)
            wall_ms = (time.perf_counter() - t0) * 1000.0 if timing else 0.0
            mag = np.abs(x_hat)
            rows.append({
                "id": f"{rid:04d}",
                "method": m.name,
                "dataset": dataset_name,
                "acc": rec.meta.get("acceleration", rec.mask.achieved_acceleration),
                "ssim": _safe(metrics.ssim, mag, ref_mag),
                "psnr_db": _safe(metrics.psnr, mag, ref_mag),
                "cr": _safe(metrics.contrast_resolution, mag, rec.lesion_mask, rec.wm_mask),
                "wmn": _safe(metrics.wm_noise, mag, rec.wm_mask),
                "bgn": _safe(metrics.bg_noise, mag),
                "wa": None,
                "snr": _safe(metrics.snr, mag, rec.kspace),
                "wall_ms": wall_ms,
            })

    rows.extend(summarize_rows(rows, dataset_name))
    return rows


def summarize_rows(rows: list[dict], dataset_name: str) -> list[dict]:
    """Per-method mean rows, in the order of `rows`, with the cohort-relative weighted average."""
    summary = []
    cohort = []
    for name in dict.fromkeys(r["method"] for r in rows):
        sub = [r for r in rows if r["method"] == name and r["id"] != "mean"]
        means = {}
        for key in ("acc", "ssim", "psnr_db", "cr", "wmn", "bgn", "snr", "wall_ms"):
            vals = [r[key] for r in sub if r.get(key) is not None and np.isfinite(r[key])]
            means[key] = float(np.mean(vals)) if vals else None
        summary.append({"id": "mean", "method": name, "dataset": dataset_name,
                        "wa": None, **means})
        cohort.append((means["cr"], means["wmn"], means["bgn"]))

    if cohort and all(all(v is not None for v in row) for row in cohort):
        try:
            for srow, wa in zip(summary, metrics.weighted_average(cohort)):
                srow["wa"] = wa
        except metrics.MetricError:
            pass
    return summary


def mean_metric(rows: list[dict], method: str, key: str = "ssim") -> float:
    for r in rows:
        if r["id"] == "mean" and r["method"] == method:
            return r[key]
    raise KeyError(f"no summary row for method {method!r}")
