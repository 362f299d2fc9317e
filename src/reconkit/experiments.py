"""Desk-scale end-to-end experiment: data generation, training, evaluation.

One function builds a seeded phantom dataset, trains the cascaded recurrent
reconstructor plus a single-block recurrent baseline at a matched parameter
budget, evaluates them against the compressed-sensing and zero-filled
baselines, and returns the metric rows together with the serialized CSV so
reruns can be compared byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import containers, training
from .autodiff import ParameterStore
from .networks import CascadeConfig, CirimModel, RimCellConfig, build_model
from .phantom import DatasetRecord, default_brain_spec, make_coils, make_phantom, simulate_acquisition
from .sampling import gaussian2d_mask


@dataclass
class DeskDataset:
    train: list[DatasetRecord] = field(default_factory=list)
    val: list[DatasetRecord] = field(default_factory=list)
    test: list[DatasetRecord] = field(default_factory=list)


def build_desk_dataset(n_train: int = 20, n_val: int = 5, n_test: int = 50,
                       size: int = 64, n_coils: int = 4, acceleration: float = 4.0,
                       sigma: float = 0.02, seed: int = 1234) -> DeskDataset:
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


def matched_rim_channels(target_params: int, iterations: int,
                         search: range = range(4, 65)) -> int:
    """Hidden width for a single-cascade GRU block closest to a parameter budget."""
    best_c, best_gap = search.start, None
    for c in search:
        model = CirimModel(RimCellConfig(channels=c, iterations=iterations, unit="gru"),
                           CascadeConfig(n_cascades=1), kind="rim")
        gap = abs(count_parameters(model) - target_params)
        if best_gap is None or gap < best_gap:
            best_c, best_gap = c, gap
    return best_c


@dataclass
class DeskRunResult:
    rows: list
    csv_bytes: bytes
    mean_ssim: dict
    cirim_params: int
    rim_params: int
    rim_channels: int
    cirim_result: training.TrainResult
    rim_result: training.TrainResult


def desk_pipeline(steps: int = 300, channels: int = 16, cascades: int = 2,
                  iterations: int = 4, lr: float = training.TrainConfig.lr,
                  data_seed: int = 1234, train_seed: int = 77,
                  dataset: DeskDataset | None = None,
                  timing: bool = False) -> DeskRunResult:
    """The full desk-scale pipeline with fixed seeds."""
    data = dataset or build_desk_dataset(seed=data_seed)
    epochs = int(np.ceil(steps / max(1, len(data.train)))) + 1
    cfg = training.TrainConfig(lr=lr, loss="cirim", dtype="float32", max_steps=steps)

    cirim = build_model("cirim",
                        cell=RimCellConfig(channels=channels, iterations=iterations, unit="indrnn"),
                        cascade=CascadeConfig(n_cascades=cascades))
    cirim_params = count_parameters(cirim)
    cirim_result = training.train(cirim, data.train, data.val, epochs, train_seed, cfg)

    rim_c = matched_rim_channels(cirim_params, iterations)
    rim = build_model("rim", cell=RimCellConfig(channels=rim_c, iterations=iterations, unit="gru"),
                      cascade=CascadeConfig(n_cascades=1))
    rim_params = count_parameters(rim)
    rim_result = training.train(rim, data.train, data.val, epochs, train_seed, cfg)

    methods = [
        training.method_zero_filled(),
        training.method_cs(),
        training.method_model("rim", rim, rim_result.store),
        training.method_model("cirim", cirim, cirim_result.store),
    ]
    rows = training.evaluate(methods, data.test, dataset_name="desk64", timing=timing)
    mean_ssim = {name: training.mean_metric(rows, name, "ssim")
                 for name in ("zerofill", "cs", "rim", "cirim")}
    return DeskRunResult(rows=rows, csv_bytes=containers.metrics_csv_bytes(rows),
                         mean_ssim=mean_ssim, cirim_params=cirim_params,
                         rim_params=rim_params, rim_channels=rim_c,
                         cirim_result=cirim_result, rim_result=rim_result)
