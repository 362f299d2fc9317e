#!/usr/bin/env python3
"""Run the desk-scale end-to-end experiment and write its report.

Generates the seeded 75-phantom dataset (20 train / 5 val / 50 test), trains
the cascaded recurrent reconstructor and a parameter-matched single-block
baseline, evaluates them against compressed sensing and the zero-filled
adjoint, and writes the metrics CSV, each model's training log and a short
summary. Every default is the library's (`reconkit.experiments.DeskConfig`).
"""

import argparse
import time
from pathlib import Path

from reconkit import training
from reconkit.experiments import DeskConfig, desk_pipeline
from reconkit.networks import ConfigError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("--out", default="desk_run", help="output directory")
    parser.add_argument("--steps", type=int, default=DeskConfig.steps, help="steps per model")
    parser.add_argument("--channels", type=int, default=DeskConfig.channels,
                        help="cascaded model hidden width")
    parser.add_argument("--cascades", type=int, default=DeskConfig.cascades, help="cascades")
    parser.add_argument("--iterations", type=int, default=DeskConfig.iterations,
                        help="unrolled iterations per block")
    parser.add_argument("--data-seed", type=int, default=DeskConfig.data_seed, help="dataset seed")
    parser.add_argument("--train-seed", type=int, default=DeskConfig.train_seed,
                        help="training seed")
    parser.add_argument("--timing", action="store_true", help="record wall-clock ms in the CSV")
    args = parser.parse_args()
    try:        # before any data is drawn or directory made
        cfg = DeskConfig(steps=args.steps, channels=args.channels, cascades=args.cascades,
                         iterations=args.iterations, data_seed=args.data_seed,
                         train_seed=args.train_seed)
    except ConfigError as exc:
        parser.error(str(exc))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    result = desk_pipeline(cfg, timing=args.timing)
    print(f"finished in {time.perf_counter() - t0:.1f}s")

    (out / "report.csv").write_bytes(result.csv_bytes)
    for name, trained in result.results.items():
        (out / f"{name}_train.log.csv").write_bytes(training.training_log_csv(trained.log))
    print("parameters: " + "  ".join(f"{name}={result.params[name]}" for name in result.results))
    print("mean SSIM on the 50-phantom test set:")
    for name, ssim in result.mean_ssim.items():
        print(f"  {name:>9}: {ssim:.4f}")
    print(f"report: {out / 'report.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
