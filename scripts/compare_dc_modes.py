#!/usr/bin/env python3
"""Compare implicit-only and explicit data consistency at desk scale.

Trains the same cascaded recurrent reconstructor twice on one seeded phantom
dataset: once relying only on the data-fidelity gradient input (implicit DC)
and once with the learned soft k-space replacement between cascades (explicit
DC), then reports test-set SSIM/PSNR side by side.
"""

import argparse
import time

import numpy as np

from reconkit import training
from reconkit.experiments import build_desk_dataset
from reconkit.networks import CascadeConfig, RimCellConfig, build_model


def train_variant(name, explicit_dc, data, args):
    model = build_model(
        "cirim",
        cell=RimCellConfig(channels=args.channels, iterations=args.iterations, unit="indrnn"),
        cascade=CascadeConfig(n_cascades=args.cascades, explicit_dc=explicit_dc,
                              dc_weight_init=0.1),
    )
    cfg = training.TrainConfig(loss="cirim", dtype="float32", max_steps=args.steps)
    epochs = int(np.ceil(args.steps / max(1, len(data.train)))) + 1
    t0 = time.perf_counter()
    result = training.train(model, data.train, data.val, epochs, args.seed, cfg)
    elapsed = time.perf_counter() - t0
    print(f"trained {name}: {result.steps} steps in {elapsed:.0f}s")
    return training.method_model(name, model, result.store)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("--size", type=int, default=32, help="phantom grid size")
    parser.add_argument("--steps", type=int, default=150, help="optimizer steps per variant")
    parser.add_argument("--channels", type=int, default=8, help="hidden channels")
    parser.add_argument("--cascades", type=int, default=2, help="cascades")
    parser.add_argument("--iterations", type=int, default=3, help="unrolled iterations")
    parser.add_argument("--n-test", type=int, default=20, help="test phantoms")
    parser.add_argument("--seed", type=int, default=7, help="training seed")
    parser.add_argument("--data-seed", type=int, default=101, help="dataset seed")
    args = parser.parse_args()

    data = build_desk_dataset(n_train=12, n_val=3, n_test=args.n_test, size=args.size,
                              n_coils=4, acceleration=4.0, sigma=0.02, seed=args.data_seed)
    methods = [
        training.method_zero_filled(),
        train_variant("cirim-implicit", False, data, args),
        train_variant("cirim-explicit", True, data, args),
    ]
    rows = training.evaluate(methods, data.test, dataset_name=f"desk{args.size}", timing=False)
    print(f"\n{'method':>16}  {'ssim':>7}  {'psnr_db':>8}")
    for name in ("zerofill", "cirim-implicit", "cirim-explicit"):
        ssim = training.mean_metric(rows, name, "ssim")
        psnr = training.mean_metric(rows, name, "psnr_db")
        print(f"{name:>16}  {ssim:7.4f}  {psnr:8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
