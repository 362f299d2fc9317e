#!/usr/bin/env python3
"""reconkit benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {train,eval,acquire} --seed N \
        --seconds S --trace {0,1}

Run from the root of a reconkit checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output holds
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a separate traced pass.  Per-run results (environment included) and, when
traced, the spans go to ``.perfbench_out/`` in the checkout.  See
``perfbench/README.md`` for the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads OpenBLAS.  The benchmark is a single
# client running one op at a time, and the calibration kernel that scales its
# times runs on one core: with a second BLAS thread, load on the other core
# would slow the ops without slowing the kernel.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np
import scipy

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

# name -> (unit, stats reported) for the per-layer metrics of a traced run
LAYER_STATS = {
    "autodiff.conv2d": ("calls", "ms", "self_ms"),
    "autodiff.backward": ("calls", "ms"),
    "fourier.fft2c": ("calls", "ms"),
    "fourier.ifft2c": ("calls", "ms"),
    "mri.forward_op": ("calls", "ms", "self_ms"),
    "mri.adjoint_op": ("calls", "ms", "self_ms"),
    "networks.CirimModel.forward": ("calls", "ms", "self_ms"),
    "networks.rim_block": ("calls", "ms", "self_ms"),
    "baselines.cs_l1wavelet": ("calls", "ms", "self_ms"),
    "baselines.wavelet2": ("calls", "ms"),
    "baselines.iwavelet2": ("calls", "ms"),
    "metrics.ssim": ("calls", "ms"),
    "metrics.psnr": ("calls", "ms"),
    "metrics.contrast_resolution": ("calls", "ms"),
    "metrics.wm_noise": ("calls", "ms"),
    "metrics.bg_noise": ("calls", "ms"),
    "metrics.snr": ("calls", "ms"),
    "training.adam_step": ("calls", "ms"),
    "training.validation_score": ("calls", "ms"),
    "sampling.poisson2d_mask": ("calls", "ms"),
    "phantom.make_phantom": ("calls", "ms"),
    "phantom.simulate_acquisition": ("calls", "ms"),
    "containers.write_record": ("calls", "ms"),
    "containers.read_record": ("calls", "ms"),
}
STAT_UNITS = {"calls": "calls/op", "ms": "ms/op", "self_ms": "ms/op"}
# metric -> (span name, unit) for counts the spans carry
SPAN_COUNTS = {
    "autodiff.conv2d.gflop": ("autodiff.conv2d", "GFLOP/op"),
    "autodiff.tape_records": ("autodiff.backward", "records/op"),
    "containers.write_record.bytes": ("containers.write_record", "B/op"),
    "containers.read_record.bytes": ("containers.read_record", "B/op"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["train", "eval", "acquire"])
    p.add_argument("--seed", required=True, type=int, help="workload seed (>= 0)")
    p.add_argument("--seconds", required=True, type=float, help="timed length of the run")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="1: report per-layer metrics from a separate traced pass")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "seed": seed,
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def median_per_input(values, keys) -> list:
    """Each distinct input's median latency in the run, the sample of the p50/p90 metrics.

    Ops on the same input (``keys``) do the same work, so the median of an
    input's repeats is its own cost, without the few ops that a burst of
    load from other tenants, too short for the calibration to follow, slowed
    down.  An input that occurs once counts with its one sample.
    """
    by_key = defaultdict(list)
    for key, value in zip(keys, values):
        by_key[key].append(value)
    return [float(np.median(v)) for v in by_key.values()]


def wall_times(tally) -> dict:
    """Throughput and latency percentiles at the host's speed of the moment."""
    costs = median_per_input([t * 1e3 for t in tally.latencies], tally.op_keys)
    return {
        "ops_per_s": (tally.ops_per_s, "1/s"),
        "op_ms_p50": (float(np.percentile(costs, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(costs, 90)), "ms"),
    }


def end_to_end(tally, setups, quality) -> dict:
    norm_lat, norm_wall = tally.normalized()
    norm_ms = median_per_input([t * 1e3 for t in norm_lat], tally.op_keys)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s_norm": ((tally.attempted - tally.failed) / norm_wall if norm_wall > 0 else 0.0,
                           "1/s"),
        "op_ms_p50_norm": (float(np.percentile(norm_ms, 50)), "ms"),
        "op_ms_p90_norm": (float(np.percentile(norm_ms, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ssim_mean": (quality["ssim_mean"], "1"),
        "ssim_cs": (quality["ssim_cs"], "1"),
    }


def per_layer(tracer, n_ops: int, untraced_rate: float, traced) -> tuple[dict, dict]:
    """Per-layer metrics, and the self time of every span name for the accounting table."""
    from spans import OP, cs_iterations, summarize

    summary, setup = summarize(tracer.spans, n_ops)

    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    out = {}
    for name, stats in LAYER_STATS.items():
        for stat in stats:
            out[f"{name}.{stat}"] = (get(name, stat), STAT_UNITS[stat])
    for metric, (name, unit) in SPAN_COUNTS.items():
        out[metric] = (get(name, "count"), unit)
    out["baselines.cs_l1wavelet.iterations"] = (cs_iterations(tracer.spans), "iter/solve")
    load = setup.get("containers.load_checkpoint", {})
    out["containers.load_checkpoint.calls"] = (load.get("calls", 0.0), "calls/setup")
    out["containers.load_checkpoint.ms"] = (load.get("ms", 0.0), "ms/setup")
    out["op.ms"] = (get(OP, "ms"), "ms/op")
    out["op.self_ms"] = (get(OP, "self_ms"), "ms/op")
    out["trace.ops_per_s"] = (traced.ops_per_s, "1/s")
    out["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    overhead = 100.0 * (untraced_rate - traced.ops_per_s) / untraced_rate if untraced_rate else 0.0
    out["trace.overhead_pct"] = (overhead, "%")
    return out, {name: acc["self_ms"] for name, acc in summary.items()}


def measure(args, workdir: Path, lines: list) -> tuple[dict, object]:
    from spans import OP, SETUP, Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = cls(args.seed, fresh_dir(workdir))
        t0 = perf_counter()
        workload.setup()
        setups.append(perf_counter() - t0)
    lines.append(f"set-up times (s): {', '.join(f'{s:.4f}' for s in setups)}")
    lines.extend(workload.warm_errors)
    gc.collect()        # the set-ups' garbage, so that collecting it falls in no timed op
    if not args.trace:
        tally = workload.run(args.seconds)
        return end_to_end(tally, setups, workload.quality()), tally

    # the untraced half gives the baseline rate the tracing overhead is taken from
    tally = workload.run(args.seconds / 2)

    tracer = Tracer()
    tracer.install()
    try:
        traced_workload = cls(args.seed, fresh_dir(workdir))
        tracer.op = SETUP
        traced_workload.setup()
        tracer.op = None
        traced = traced_workload.run(args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl"
    tracer.write(spans_path)
    n_ops = traced.attempted
    result, selfs = per_layer(tracer, n_ops, tally.ops_per_s, traced)
    traced.attempted += tally.attempted
    traced.failed += tally.failed
    traced.errors = tally.errors + traced.errors
    lines.append(f"traced pass: {n_ops} ops; spans in {spans_path.relative_to(ROOT)}")
    lines.append("self time per op (ms), every wrapped layer plus the unwrapped remainder:")
    for name, ms in sorted(selfs.items(), key=lambda kv: -kv[1]):
        label = "remainder (code outside every wrapped layer)" if name == OP else name
        lines.append(f"  {ms:10.3f}  {label}")
    lines.append(f"  {sum(selfs.values()):10.3f}  total = op.ms {result['op.ms'][0]:.3f}")
    return result, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "reconkit" / "__init__.py").is_file():
        print(f"error: no reconkit sources under {SRC}; run from a reconkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import reconkit
    if Path(reconkit.__file__).resolve().parent != SRC / "reconkit":
        print(f"error: imported reconkit from {reconkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work_{args.workload}_{os.getpid()}"
    lines = [f"reconkit benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"]
    env = environment(args.seed)
    lines.append("env: " + json.dumps(env, sort_keys=True))
    try:
        measured, tally = measure(args, workdir, lines)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = tally.failed == 0 and tally.attempted > 0
    metrics = {}
    for name, (value, unit) in measured.items():
        if not math.isfinite(value):
            correct = False
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:36s} = {value:.6g} {unit}")
    walls = {}
    if not args.trace:
        lines.append(f"  (op_ms_p50/p90 over the {len(set(tally.op_keys))} distinct inputs of "
                     f"n={len(tally.latencies)} ops in {tally.wall:.3f} s, each at its median; "
                     f"setup_s is the median of {SETUP_REPEATS} set-ups)")
        lines.append(f"at the host's speed of the moment (calibration factor median "
                     f"{statistics.median(calibration.factors(tally.kernel_s)):.4f}):")
        for name, (value, unit) in wall_times(tally).items():
            walls[name] = {"value": value, "unit": unit}
            lines.append(f"{name:36s} = {value:.6g} {unit}")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append(f"{'error_rate':36s} = {error_rate:.6g} ratio "
                 f"({tally.failed} failed of {tally.attempted} attempted)")
    for message in tally.errors:
        lines.append(f"  failure: {message}")

    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    record = {**result, "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "error_rate": error_rate, "wall_times": walls, "env": env,
              "part_ms": [t * 1e3 for t in tally.seconds], "part_key": tally.keys,
              "kernel_ms": [t * 1e3 for t in tally.kernel_s]}
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("\n".join(lines))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
