"""Command-line entry point.

Subcommands cover the full pipeline: ``phantom gen`` -> ``mask gen`` ->
``simulate`` -> ``train`` -> ``recon`` / ``eval``.  Every command is a pure
function of its flags and seeds, so rerunning a command with the same inputs
reproduces identical output files.  A JSON config file may supply any flag
(``--config``); explicitly passed flags win.  ``RECON_SEED`` serves as the
seed default of last resort.  Unknown flags exit with code 2 (usage), runtime
failures with code 1 and a single machine-parsable error line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import multiprocessing
import os
import sys
import typing
from pathlib import Path

import numpy as np

from . import containers, baselines, sampling, training
from .networks import MODEL_KINDS, CascadeConfig, RimCellConfig, UnetConfig, build_model
from .phantom import (PhantomSpec, PhantomSpecError, default_brain_spec, make_coils, make_phantom,
                      simulate_acquisition)
from .schema import read_value


def _seed(given: int | None) -> int:
    """A command's seed: its --seed, else RECON_SEED (read only here), else 0; never negative."""
    name, text = ("--seed", given) if given is not None else (
        "RECON_SEED", os.environ.get("RECON_SEED", "0"))
    try:
        seed = int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None
    _at_least(name, seed, 0)
    return seed


def _parse_size(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise ValueError(f"size must look like 64x64, got {text!r}") from None


_NOT_FLAGS = ("config", "func", "command", "subcommand")   # namespace entries only


def _config_flags(args: argparse.Namespace) -> list[str]:
    """The --config keys that are flags of the command, as flags argparse checks.

    `true` becomes a bare flag; `false` and `null` leave the flag out.
    """
    cfg = read_value(dict, json.loads(Path(args.config).read_text()), "--config", ValueError)
    flags = []
    for key, val in cfg.items():
        if hasattr(args, key) and key not in _NOT_FLAGS and val is not None and val is not False:
            opt = "--in" if key == "input" else "--" + key.replace("_", "-")
            flags.append(opt if val is True else f"{opt}={val}")
    return flags


def _per_kind(show) -> str:
    """A help text's list of one default per model kind."""
    return ", ".join(f"{kind} {show(d)}" for kind, d in MODEL_KINDS.items())


_MASK_MAKERS = {"gaussian2d": sampling.gaussian2d_mask,
                "equidistant1d": sampling.equidistant1d_mask,
                "poisson2d": sampling.poisson2d_mask,
                "full": sampling.full_mask}

# each flag of `mask gen` that only some kinds take, by its argparse name, and the
# generator keyword it sets
_MASK_OPTIONS = {"acc": "acceleration", "seed": "seed", "fwhm": "fwhm_rel", "acs": "acs_frac",
                 "center_frac": "center_frac", "offset_policy": "offset_policy"}


# phantom gen's family flags: the default_brain_spec keyword each sets, and the flag
_FAMILY_FLAGS = {"size": "--size", "n_lesions": "--lesions", "jitter": "--jitter"}


def _given(**options) -> dict:
    """The keyword options whose flag was given; the rest keep the library's defaults."""
    return {key: val for key, val in options.items() if val is not None}


def _map_jobs(fn, jobs: list, workers: int) -> list:
    """fn over jobs, results in job order: in `workers` processes, or in this one for 1."""
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            return pool.map(fn, jobs)
    return [fn(job) for job in jobs]


def _records_in(path: Path) -> list[Path]:
    """The .cks files of a directory, in name order, or the one file `path` names."""
    if not path.is_dir():
        return [path]
    paths = sorted(path.glob("*.cks"))
    if not paths:
        raise ValueError(f"no records found under {path}")
    return paths


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _gen_one_phantom(job) -> None:
    out_path, spec = job
    image, lesion_mask, wm_mask = make_phantom(spec)
    # the directory is made once a phantom is drawn, so a spec that cannot be leaves none
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    containers.write_phantom(out_path, image, lesion_mask, wm_mask,
                             meta={"spec": spec.to_dict(), "seed": spec.seed})


def _phantom_specs(args) -> list[PhantomSpec]:
    """One spec per phantom: the brain family, its flags winning over a family file's
    options, or a full spec file with each phantom's seed."""
    first = _seed(args.seed)
    seeds = range(first, first + args.count)
    family = _given(size=args.size, n_lesions=args.lesions, jitter=args.jitter)
    spec = json.loads(Path(args.spec).read_text()) if args.spec else {"family": "brain"}
    if isinstance(spec, dict) and spec.get("family") == "brain":
        hints = typing.get_type_hints(default_brain_spec)
        for key in sorted(spec.keys() - {"family"}):
            if key not in _FAMILY_FLAGS:
                raise PhantomSpecError(f"{key} is not an option of the brain family "
                                       f"({', '.join(_FAMILY_FLAGS)})")
            family.setdefault(key, read_value(hints[key], spec[key], key, PhantomSpecError))
        return [default_brain_spec(seed=seed, **family) for seed in seeds]
    if family:
        raise ValueError(f"{_FAMILY_FLAGS[next(iter(family))]} is not an option of a full "
                         f"--spec file")
    base = PhantomSpec.from_dict(spec)
    return [dataclasses.replace(base, seed=seed) for seed in seeds]


def _at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")


def cmd_phantom_gen(args) -> int:
    _at_least("--count", args.count, 1)
    _at_least("--jobs", args.jobs, 1)
    out = Path(args.out)
    jobs = [(str(out / f"phantom_{i:04d}.cks"), spec)
            for i, spec in enumerate(_phantom_specs(args))]
    _map_jobs(_gen_one_phantom, jobs, args.jobs)
    print(f"wrote {len(jobs)} phantom(s) to {out}")
    return 0


def cmd_mask_gen(args) -> int:
    h, w = _parse_size(args.size)
    make = _MASK_MAKERS[args.kind]
    takes = inspect.signature(make).parameters
    given = _given(**{flag: getattr(args, flag) for flag in _MASK_OPTIONS})
    for flag in given:
        if _MASK_OPTIONS[flag] not in takes:
            raise ValueError(f"--{flag.replace('_', '-')} is not an option of --kind {args.kind}")
    # RECON_SEED is read only for a kind that draws its mask
    if "seed" in takes and "seed" not in given:
        given["seed"] = _seed(None)
    mask = make(h, w, **{_MASK_OPTIONS[flag]: val for flag, val in given.items()})
    containers.write_mask(args.out, mask)
    if args.pbm:
        containers.export_mask_pbm(mask, args.pbm)
    report = sampling.MaskReport(mask)
    print(",".join(report.CSV_HEADER))
    print(report.csv_row())
    return 0


def cmd_simulate(args) -> int:
    mask = containers.read_mask(args.mask)
    src = Path(args.phantom)
    paths = _records_in(src)
    out = Path(args.out)
    maps, seed = None, _seed(args.seed)
    for i, p in enumerate(paths):
        image, lesion_mask, wm_mask, _meta = containers.read_phantom(p)
        if maps is None:
            maps = make_coils(args.coils, *image.shape)
        rec = simulate_acquisition(image, maps, mask, args.sigma, seed + i,
                                   lesion_mask=lesion_mask, wm_mask=wm_mask)
        # a directory of phantoms gives a directory of records, however many it holds;
        # it is made once a record is simulated, so a bad flag leaves none
        dest = out / f"record_{i:04d}.cks" if src.is_dir() else out
        dest.parent.mkdir(parents=True, exist_ok=True)
        containers.write_record(dest, rec)
    print(f"wrote {len(paths)} record(s) to {out}")
    return 0


def cmd_train(args) -> int:
    _at_least("--val-count", args.val_count, 0)
    paths = _records_in(Path(args.data))
    records = [containers.read_record(p) for p in paths]
    n_val = min(args.val_count, max(0, len(records) - 1))
    val_records = records[:n_val]
    train_records = records[n_val:]

    # a flag left out is the kind's value or the config's default; a section goes to
    # build_model only with a flag of its own, so build_model names one the kind lacks
    try:
        kernels = None if args.kernels is None else tuple(int(k) for k in args.kernels.split(","))
    except ValueError:
        raise ValueError(f"--kernels must be ints like 5,3,3, got {args.kernels!r}") from None
    cascade = _given(n_cascades=args.cascades, dc_weight_init=args.dc_weight,
                     explicit_dc=None if args.dc is None else args.dc == "explicit")
    cell = _given(kernel_sizes=kernels, iterations=args.iterations)
    unet = _given(pools=args.pools)
    hidden = cell if "cell" in vars(build_model(args.model)) else unet  # takes --channels
    hidden.update(_given(channels=args.channels))
    model = build_model(args.model, cascade=CascadeConfig(**cascade),
                        cell=RimCellConfig(**cell) if cell else None,
                        unet=UnetConfig(**unet) if unet else None)
    if args.dc_weight is not None and not model.cascade.explicit_dc:
        raise ValueError(f"--dc-weight is an option of explicit DC only; this {args.model} "
                         f"has implicit DC")

    cfg = training.TrainConfig(lr=args.lr, loss=args.loss, dtype=args.dtype,
                               max_steps=args.steps)
    seed = _seed(args.seed)
    result = training.train(model, train_records, val_records, args.epochs, seed, cfg)
    training.save_trained(args.out, model, result.best_values,
                          extra_meta={"seed": seed, "steps": result.steps,
                                      "best_step": result.best_step,
                                      "diverged": result.diverged})
    log_path = args.log or str(Path(args.out).with_suffix(".log.csv"))
    Path(log_path).write_bytes(training.training_log_csv(result.log))
    status = "diverged; kept last good parameters" if result.diverged else "done"
    print(f"{status}: {result.steps} step(s), checkpoint {args.out}, log {log_path}")
    return 0


def cmd_recon(args) -> int:
    method = _build_method(args.model, **_given(alpha=args.alpha, max_iter=args.iters))
    rec = containers.read_record(args.input)
    containers.export_image(method.recon(rec), args.out)
    print(f"wrote {args.out}")
    return 0


_CS_FLAGS = {"alpha": "--alpha", "max_iter": "--iters"}     # method_cs keyword -> recon flag


def _build_method(desc: str, **cs_options) -> training.MethodSpec:
    """The method a descriptor names; `cs_options` are the method_cs keywords given."""
    if cs_options and desc != "cs":
        raise ValueError(f"{_CS_FLAGS[next(iter(cs_options))]} is an option of --model cs only")
    if desc == "zerofill":
        return training.method_zero_filled()
    if desc == "cs":
        return training.method_cs(**cs_options)
    name = Path(desc).stem
    if name in ("zerofill", "cs"):
        raise ValueError(f"checkpoint {desc} would be reported as the {name} baseline; "
                         f"rename the file")
    return training.method_checkpoint(desc, name=name)


def _eval_worker(payload):
    method_descs, record_paths, dataset_name, timing = payload
    methods = [_build_method(d) for d in method_descs]
    records = [containers.read_record(p) for p in record_paths]
    rows = training.evaluate(methods, records, dataset_name=dataset_name, timing=timing)
    return [r for r in rows if r["id"] != "mean"]


def cmd_eval(args) -> int:
    _at_least("--jobs", args.jobs, 1)
    paths = [str(p) for p in _records_in(Path(args.data))]
    descs = [d.strip() for d in args.methods.split(",") if d.strip()]
    dataset_name = Path(args.data).stem or "records"

    chunks = np.array_split(np.array(paths, dtype=object), args.jobs)
    payloads = [(descs, list(c), dataset_name, not args.no_timing) for c in chunks if len(c)]
    rows = [r for part in _map_jobs(_eval_worker, payloads, args.jobs) for r in part]
    per_record = len(rows) // len(paths)    # every record gets one row per method
    for i, r in enumerate(rows):
        r["id"] = f"{i // per_record:04d}"
    rows.extend(training.summarize_rows(rows, dataset_name))
    containers.write_metrics_csv(args.out, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Echoes each default but None: a flag left to the library says so in its help."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def build_parser(strict: bool = True) -> argparse.ArgumentParser:
    """The reconkit parser.

    `strict=False` gives the parser that finds the command and its --config
    before the config's flags are added, so that a config can supply
    required flags: it requires no flag or subcommand, has no -h, and raises
    `argparse.ArgumentError` instead of exiting, leaving every report to the
    strict parser.
    """
    fmt = _HelpFormatter
    quiet = {"add_help": strict, "exit_on_error": strict}
    parser = argparse.ArgumentParser(prog="reconkit", **quiet,
                                     description="Accelerated-MRI reconstruction sandbox.")
    sub = parser.add_subparsers(dest="command", required=strict)

    phantom = sub.add_parser("phantom", **quiet, help="synthetic phantom generation")
    psub = phantom.add_subparsers(dest="subcommand", required=strict)
    pg = psub.add_parser("gen", **quiet, help="generate phantom containers", formatter_class=fmt,
                         description="Family flags left out keep default_brain_spec's defaults.")
    pg.add_argument("--spec", default=None, help="JSON phantom spec or brain-family description")
    pg.add_argument("--out", required=strict, help="output directory")
    pg.add_argument("--count", type=int, default=1, help="number of phantoms")
    pg.add_argument("--seed", type=int, default=None,
                    help="base seed; left out: RECON_SEED, else 0")
    pg.add_argument("--size", type=int, default=None, help="grid size")
    pg.add_argument("--lesions", type=int, default=None, help="lesions per phantom")
    pg.add_argument("--jitter", type=float, default=None, help="family geometry jitter")
    pg.add_argument("--jobs", type=int, default=1, help="parallel workers")

    mask = sub.add_parser("mask", **quiet, help="undersampling mask generation")
    msub = mask.add_subparsers(dest="subcommand", required=strict)
    mg = msub.add_parser("gen", **quiet, help="generate a sampling mask", formatter_class=fmt,
                         description="Acceleration and shape flags left out keep the generator's "
                                     "own defaults; a flag the kind does not take is an error.")
    mg.add_argument("--kind", required=strict, choices=list(_MASK_MAKERS))
    mg.add_argument("--size", required=strict, help="grid size as HxW, e.g. 64x64")
    mg.add_argument("--acc", type=float, default=None,
                    help="acceleration factor (typical: 4, 6, 8, 10; defaults: " + ", ".join(
                        f"{kind} {inspect.signature(make).parameters['acceleration'].default}"
                        for kind, make in _MASK_MAKERS.items() if kind != "full") + ")")
    mg.add_argument("--seed", type=int, default=None,
                    help="selection seed of a kind that draws; left out: RECON_SEED, else 0")
    mg.add_argument("--out", required=strict, help="output .cks mask file")
    mg.add_argument("--fwhm", type=float, default=None, help="gaussian2d FWHM relative to grid")
    mg.add_argument("--acs", type=float, default=None,
                    help="fully sampled central ellipse half-axes, fraction of each dimension")
    mg.add_argument("--center-frac", type=float, default=None,
                    help="equidistant1d fully kept central line fraction")
    mg.add_argument("--offset-policy", choices=["fixed", "random"], default=None,
                    help="equidistant1d line offset policy")
    mg.add_argument("--pbm", default=None, help="also write a 1-bit PBM preview")

    sim = sub.add_parser("simulate", **quiet, help="simulate acquisitions", formatter_class=fmt)
    sim.add_argument("--phantom", required=strict, help="phantom .cks file or directory")
    sim.add_argument("--mask", required=strict, help="mask .cks file")
    sim.add_argument("--coils", type=int, default=4, help="number of receiver coils")
    sim.add_argument("--sigma", type=float, default=0.0, help="complex noise std at sampled points")
    sim.add_argument("--seed", type=int, default=None,
                     help="noise seed; left out: RECON_SEED, else 0")
    sim.add_argument("--out", required=strict, help="output record file or directory")

    tr = sub.add_parser("train", **quiet, help="train a reconstructor", formatter_class=fmt)
    tr.add_argument("--model", required=strict, choices=list(MODEL_KINDS))
    tr.add_argument("--dc", choices=["implicit", "explicit"], default=None,
                    help="data consistency: implicit (gradient input only) or explicit (a "
                         "learned soft-DC step after each cascade); defaults: "
                         + _per_kind(lambda d: "explicit" if d.explicit_dc else "implicit"))
    tr.add_argument("--data", required=strict, help="directory of record .cks files")
    tr.add_argument("--epochs", type=int, default=10, help="training epochs (batch size 1)")
    tr.add_argument("--steps", type=int, default=None, help="optional cap on optimizer steps")
    tr.add_argument("--seed", type=int, default=None,
                    help="init/shuffle seed; left out: RECON_SEED, else 0")
    tr.add_argument("--out", required=strict, help="output checkpoint .cks")
    tr.add_argument("--log", default=None, help="training log CSV path")
    tr.add_argument("--val-count", type=int, default=1, help="records held out for validation")
    tr.add_argument("--cascades", type=int, default=None,
                    help="cascade count (defaults: " + _per_kind(lambda d: d.n_cascades) + ")")
    tr.add_argument("--iterations", type=int, default=None,
                    help=f"unrolled iterations (library default: {RimCellConfig.iterations})")
    tr.add_argument("--channels", type=int, default=None,
                    help=f"hidden channels (defaults: {RimCellConfig.channels} for the "
                         f"recurrent kinds, {UnetConfig.channels} for varnet)")
    tr.add_argument("--kernels", default=None, help="RIM conv kernel sizes (library default: "
                    + ",".join(map(str, RimCellConfig.kernel_sizes)) + ")")
    tr.add_argument("--pools", type=int, default=None,
                    help=f"varnet pooling depth (library default: {UnetConfig.pools})")
    tr.add_argument("--dc-weight", type=float, default=None,
                    help=f"soft-DC weight init (library default: {CascadeConfig.dc_weight_init})")
    tr.add_argument("--lr", type=float, default=training.TrainConfig.lr,
                    help="ADAM learning rate")
    tr.add_argument("--loss", choices=typing.get_args(
                        typing.get_type_hints(training.TrainConfig)["loss"]),
                    default=training.TrainConfig.loss,
                    help="loss; on varnet's one estimate, cirim equals l1")
    tr.add_argument("--dtype", choices=typing.get_args(containers.Precision),
                    default=training.TrainConfig.dtype, help="training precision")

    rc = sub.add_parser("recon", **quiet, help="reconstruct one record", formatter_class=fmt)
    rc.add_argument("--model", required=strict,
                    help="checkpoint .cks path, or 'zerofill' / 'cs'")
    rc.add_argument("--in", dest="input", required=strict, help="record .cks file")
    rc.add_argument("--out", required=strict, help="output 16-bit PGM image")
    rc.add_argument("--alpha", type=float, default=None,
                    help=f"cs only: regularization weight; left out: {baselines.CS_ALPHA}")
    rc.add_argument("--iters", type=int, default=None,
                    help=f"cs only: iteration cap; left out: {baselines.CS_MAX_ITER}")

    ev = sub.add_parser("eval", **quiet, help="score methods over a record set", formatter_class=fmt)
    ev.add_argument("--methods", required=strict,
                    help="comma list of checkpoint paths and/or 'zerofill','cs'")
    ev.add_argument("--data", required=strict, help="directory of record .cks files")
    ev.add_argument("--out", required=strict, help="metrics CSV path")
    ev.add_argument("--jobs", type=int, default=1, help="parallel workers over records")
    ev.add_argument("--no-timing", action="store_true",
                    help="write wall_ms as zero for byte-reproducible reports")

    for command, func in ((pg, cmd_phantom_gen), (mg, cmd_mask_gen), (sim, cmd_simulate),
                          (tr, cmd_train), (rc, cmd_recon), (ev, cmd_eval)):
        command.add_argument("--config", default=None, help="JSON config supplying defaults")
        command.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        found, _ = build_parser(strict=False).parse_known_args(argv)
    except argparse.ArgumentError:
        found = None    # the strict parse below reports it
    try:
        if getattr(found, "config", None):
            # the config's flags go before the typed ones, which win as the later flags
            n_words = 2 if hasattr(found, "subcommand") else 1
            argv = argv[:n_words] + _config_flags(found) + argv[n_words:]
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single-line machine-parsable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
