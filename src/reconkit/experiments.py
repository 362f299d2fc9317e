"""Desk-scale experiments: seeded phantom data, training and evaluation.

`run_variants` is the one experiment runner: it trains named models with one
recipe, scores them next to the zero-filled and compressed-sensing baselines,
and returns the metric rows with their CSV bytes, so reruns compare byte for
byte. `desk_pipeline` runs it on CIRIM and a budget-matched GRU RIM.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, field

import numpy as np

from . import containers, training
from .autodiff import ParameterStore
from .networks import CascadeConfig, ConfigError, RimCellConfig, build_model
from .phantom import DatasetRecord, default_brain_spec, make_coils, make_phantom, simulate_acquisition
from .sampling import gaussian2d_mask
from .schema import Count, Seed, check


@dataclass(frozen=True)
class DeskConfig:
    """The desk experiment: CIRIM's shape, the training length and the seeds."""
    steps: Count = 300          # optimizer steps per model
    channels: Count = 16        # CIRIM hidden width
    cascades: Count = 2
    iterations: Count = 4       # unrolled iterations per block
    data_seed: Seed = 1234
    train_seed: Seed = 77

    def __post_init__(self):
        check(self, ConfigError)


@dataclass
class DeskDataset:
    train: list[DatasetRecord] = field(default_factory=list)
    val: list[DatasetRecord] = field(default_factory=list)
    test: list[DatasetRecord] = field(default_factory=list)


def build_desk_dataset(n_train: int = 20, n_val: int = 5, n_test: int = 50,
                       size: int = 64, n_coils: int = 4, acceleration: float = 4.0,
                       sigma: float = 0.02, seed: int = DeskConfig.data_seed) -> DeskDataset:
    maps = make_coils(n_coils, size, size)
    records = []
    total = n_train + n_val + n_test
    for i in range(total):
        spec = default_brain_spec(size=size, seed=seed + i)
        image, lesion_mask, wm_mask = make_phantom(spec)
        mask = gaussian2d_mask(size, size, acceleration, seed=seed + 10_000 + i)
        rec = simulate_acquisition(image, maps, mask, sigma, seed=seed + 20_000 + i,
                                   lesion_mask=lesion_mask, wm_mask=wm_mask)
        records.append(rec)
    return DeskDataset(train=records[:n_train],
                       val=records[n_train:n_train + n_val],
                       test=records[n_train + n_val:])


def count_parameters(model) -> int:
    store = ParameterStore()
    model.init_params(store, seed=0)
    return store.n_parameters()


def _gru_rim(channels: int, iterations: int):
    return build_model("rim", cell=RimCellConfig(channels=channels, iterations=iterations))


def matched_rim_channels(target_params: int, iterations: int) -> int:
    """Hidden width in 4..64 of a single-cascade GRU block closest to a parameter budget,
    the narrower on a tie; the count grows with the width, so a bisection finds it."""
    count = functools.cache(lambda c: count_parameters(_gru_rim(c, iterations)))
    widths = range(4, 65)
    i = bisect.bisect_left(widths, target_params, key=count)
    return min(widths[max(i - 1, 0):i + 1], key=lambda c: abs(count(c) - target_params))


def matched_rim(model, iterations: int):
    """The single-cascade GRU RIM with about as many parameters as `model`."""
    return _gru_rim(matched_rim_channels(count_parameters(model), iterations), iterations)


@dataclass
class DeskRunResult:
    rows: list
    csv_bytes: bytes
    mean_ssim: dict         # method or variant name -> mean test SSIM
    params: dict            # method or variant name -> parameter count (0 for the baselines)
    results: dict           # variant name -> its training.TrainResult


def run_variants(models: dict, data: DeskDataset, steps: int, train_seed: int,
                 timing: bool = False) -> DeskRunResult:
    """Train each named model for `steps` steps, then score it next to zerofill and CS."""
    if not data.test:
        raise training.TrainingError("need at least one test record")
    fixed = [training.method_zero_filled(), training.method_cs()]
    training.check_method_names([m.name for m in fixed] + list(models))   # before any training
    epochs = int(np.ceil(steps / max(1, len(data.train)))) + 1
    cfg = training.TrainConfig(loss="cirim", dtype="float32", max_steps=steps)
    results = {name: training.train(model, data.train, data.val, epochs, train_seed, cfg)
               for name, model in models.items()}
    methods = fixed + [training.method_model(name, model, results[name].store)
                       for name, model in models.items()]
    size = data.test[0].reference.shape[-1]
    rows = training.evaluate(methods, data.test, dataset_name=f"desk{size}", timing=timing)
    return DeskRunResult(
        rows=rows, csv_bytes=containers.metrics_csv_bytes(rows),
        mean_ssim={m.name: training.mean_metric(rows, m.name, "ssim") for m in methods},
        params={"zerofill": 0, "cs": 0, **{n: r.store.n_parameters() for n, r in results.items()}},
        results=results)


def desk_pipeline(cfg: DeskConfig = DeskConfig(), timing: bool = False) -> DeskRunResult:
    """CIRIM and its budget-matched GRU RIM through `run_variants`, with fixed seeds."""
    cell = RimCellConfig(channels=cfg.channels, iterations=cfg.iterations)
    cirim = build_model("cirim", cell=cell, cascade=CascadeConfig(n_cascades=cfg.cascades))
    return run_variants({"rim": matched_rim(cirim, cfg.iterations), "cirim": cirim},
                        build_desk_dataset(seed=cfg.data_seed),
                        cfg.steps, cfg.train_seed, timing=timing)
