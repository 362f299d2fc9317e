#!/usr/bin/env python3
"""Compare implicit-only and explicit data consistency at desk scale.

Trains three reconstructors on one seeded phantom dataset with one recipe:
the cascaded recurrent reconstructor relying only on the data-fidelity
gradient input (implicit DC), the same with a learned soft k-space
replacement after each cascade (explicit DC), and a variational network, the
explicit-DC architecture with an encoder-decoder regularizer in place of the
recurrent cell. Reports test-set SSIM/PSNR and parameter counts next to the
zero-filled and compressed-sensing baselines.
"""

import argparse
import time

from reconkit import training
from reconkit.experiments import build_desk_dataset, run_variants
from reconkit.networks import CascadeConfig, RimCellConfig, UnetConfig, build_model


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
                              seed=args.data_seed)
    cell = RimCellConfig(channels=args.channels, iterations=args.iterations)

    def cascade(explicit_dc=None):
        return CascadeConfig(n_cascades=args.cascades, explicit_dc=explicit_dc,
                             dc_weight_init=0.1)

    variants = {
        "cirim-implicit": build_model("cirim", cell=cell, cascade=cascade(False)),
        "cirim-explicit": build_model("cirim", cell=cell, cascade=cascade(True)),
        "varnet": build_model("varnet", unet=UnetConfig(channels=args.channels, pools=2),
                              cascade=cascade()),
    }
    t0 = time.perf_counter()
    result = run_variants(variants, data, args.steps, args.seed)
    print(f"trained and evaluated in {time.perf_counter() - t0:.0f}s")
    print(f"\n{'method':>16}  {'ssim':>7}  {'psnr_db':>8}  {'params':>8}")
    for name, ssim in result.mean_ssim.items():
        psnr = training.mean_metric(result.rows, name, "psnr_db")
        print(f"{name:>16}  {ssim:7.4f}  {psnr:8.2f}  {result.params[name]:>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
