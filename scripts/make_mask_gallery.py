#!/usr/bin/env python3
"""Generate one mask of each kind, write PBM previews and an audit CSV."""

import argparse
from pathlib import Path

from reconkit import containers, sampling


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("--out", default="mask_gallery", help="output directory")
    parser.add_argument("--size", type=int, default=224, help="grid size")
    parser.add_argument("--seed", type=int, default=0, help="generation seed")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n = args.size
    masks = [
        sampling.gaussian2d_mask(n, n, 10.0, seed=args.seed),
        sampling.gaussian2d_mask(n, n, 4.0, seed=args.seed),
        sampling.equidistant1d_mask(n, n, acceleration=4, seed=args.seed),
        sampling.poisson2d_mask(n, n, acceleration=7.5, seed=args.seed),
    ]
    lines = [",".join(sampling.MaskReport.CSV_HEADER)]
    for mask in masks:
        stem = f"{mask.kind}_{mask.requested_acceleration:g}x"
        containers.write_mask(out / f"{stem}.cks", mask)
        containers.export_mask_pbm(mask, out / f"{stem}.pbm")
        report = sampling.MaskReport(mask)
        lines.append(report.csv_row())
        print(f"{stem}: achieved {report.achieved_acceleration:.2f}x, "
              f"{report.n_kept} samples")
    (out / "audit.csv").write_text("\r\n".join(lines) + "\r\n")
    print(f"gallery in {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
