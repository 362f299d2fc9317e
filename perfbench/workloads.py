"""The benchmark's three workloads: train, eval and acquire.

Each workload is a closed loop with a single client: one op at a time on the
calling thread.  Every input is generated here from the workload seed; the
library only ever sees the generated arrays and files.  All three use the
desk settings of ``experiments.build_desk_dataset`` and the CLI defaults:
64x64 images, 4 coils, noise sigma 0.02, 4x undersampling.

A workload object goes through ``setup()`` (everything before the first
timed op, warm-up ops included), ``run(seconds)`` (the timed ops, each
checked after its timer stops) and ``quality()`` (the SSIM sentinels).
An untraced run times the calibration kernel (``calibration.py``) just
before each op, outside the op's timer, to read the op at the reference
speed as well as at the host's speed of the moment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from time import perf_counter

import numpy as np

import calibration
from reconkit import baselines, containers, experiments, metrics, phantom, sampling, training
from reconkit.networks import CascadeConfig, RimCellConfig, build_model

SIZE = 64
COILS = 4
SIGMA = 0.02
ACCELERATION = 4.0
CELL = RimCellConfig(channels=16, iterations=4, unit="indrnn")   # the desk CIRIM
CASCADE = CascadeConfig(n_cascades=2)
N_TRAIN, N_VAL = 20, 5          # desk training and validation split
INIT_SEED = 77                  # desk_pipeline's training seed; the data carry the workload seed
SETUP_TRAIN_STEPS = 6           # short training behind the eval checkpoints
WARMUP_STEPS = 5                # untimed optimizer steps before timing train
WARMUP_OPS = 2                  # untimed records before timing eval and acquire
N_EVAL_RECORDS = 8              # .cks files eval cycles through, each several times a run
N_ACQUIRE_RECORDS = 10          # records acquire cycles through, each several times a run
N_CS_CHECK = 5                  # records the post-run CS sentinel solves
OP_CALIBRATION_REPEATS = 4      # kernel runs before each record and each training call
STEP_CALIBRATION_REPEATS = 2    # kernel runs after each optimizer step

RECORD_ARRAYS = ("reference", "maps", "mask.keep", "kspace", "lesion_mask", "wm_mask")


def subseed(seed: int, tag: int) -> int:
    """A seed for one input stream, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0] % 1_000_000_000)


def _desk_dataset(seed: int, n_train: int, n_val: int, n_test: int) -> experiments.DeskDataset:
    return experiments.build_desk_dataset(n_train=n_train, n_val=n_val, n_test=n_test,
                                          size=SIZE, n_coils=COILS, acceleration=ACCELERATION,
                                          sigma=SIGMA, seed=seed)


def _cs_ssim(records) -> float:
    """Mean SSIM of the CS reconstruction (eval's CS settings) over records."""
    cs = training.method_cs()
    return float(np.mean([metrics.ssim(np.abs(cs.recon(r)), np.abs(r.reference))
                          for r in records]))


@dataclass
class Tally:
    """What the timed ops did: counts, and the timed parts of the run in order.

    A part is one op, or on ``train`` the rest of a training call after its
    last step.  ``keys`` names the input of each op part (None for the rest
    of a call): ops with the same key do the same work, the same record or
    the same step of a training call.  ``kernel_s`` holds the calibration
    kernel's time measured just before each part (``calibration.REFERENCE_S``
    in a traced pass, which does not calibrate).  No part includes the
    kernel.
    """

    attempted: int = 0
    failed: int = 0
    seconds: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)
    keys: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def add(self, seconds: float, kernel_s: float, key) -> None:
        self.seconds.append(seconds)
        self.kernel_s.append(kernel_s)
        self.keys.append(key)

    @property
    def wall(self) -> float:
        return sum(self.seconds)

    @property
    def op_keys(self) -> list:
        return [k for k in self.keys if k is not None]

    @property
    def latencies(self) -> list:
        return [s for s, k in zip(self.seconds, self.keys) if k is not None]

    def normalized(self) -> tuple[list, float]:
        """Op latencies and timed wall time, each part at its calibration factor."""
        parts = [s * f for s, f in zip(self.seconds, calibration.factors(self.kernel_s))]
        return [p for p, k in zip(parts, self.keys) if k is not None], sum(parts)

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        if len(self.errors) < 5:
            self.errors.append(message)

    @property
    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.wall if self.wall > 0 else 0.0


class RecordLoop:
    """Shared timed loop for workloads whose op is one record."""

    def op(self, i: int):
        raise NotImplementedError

    def key(self, i: int) -> int:
        """Which input op i works on; ops on the same input do the same work."""
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        """Return why op i's output is wrong, or None."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed ops.  A failure is noted, not raised: the timed ops meet and count it."""
        for i in range(WARMUP_OPS):
            try:
                error = self.check(i, self.op(i))
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            if error:
                self.warm_errors.append(f"warm-up op {i}: {error}")

    def run(self, seconds: float, tracer=None) -> Tally:
        tally = Tally()
        deadline = perf_counter() + seconds
        i = 0
        while True:
            error = None
            kernel_s = (calibration.kernel_seconds(OP_CALIBRATION_REPEATS) if tracer is None
                        else calibration.REFERENCE_S)
            t0 = perf_counter()
            if tracer is not None:
                tracer.begin_op(i)
            try:
                out = self.op(i)
            except Exception as exc:  # a failing op is counted, the run goes on
                error = f"{type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.end_op()
            t1 = perf_counter()
            tally.attempted += 1
            tally.add(t1 - t0, kernel_s, self.key(i))
            if error is None:
                try:
                    error = self.check(i, out)
                except Exception as exc:
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error:
                tally.fail(1, f"op {i}: {error}")
            i += 1
            if t1 >= deadline:
                return tally


class TrainWorkload:
    """``training.train`` on the desk CIRIM, one epoch per call; op = one optimizer step."""

    name = "train"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.val_ssim = float("nan")
        self.warm_errors: list[str] = []

    def setup(self) -> None:
        self.data = _desk_dataset(subseed(self.seed, 1), N_TRAIN, N_VAL, 0)
        self.model = build_model("cirim", cell=CELL, cascade=CASCADE)
        self.cfg = training.TrainConfig(loss="cirim", dtype="float32", max_steps=N_TRAIN)
        warm = training.TrainConfig(loss="cirim", dtype="float32", max_steps=WARMUP_STEPS)
        try:
            training.train(self.model, self.data.train, self.data.val, 1, INIT_SEED, warm)
        except Exception as exc:  # noted, not raised: the timed calls meet and count it
            self.warm_errors.append(f"warm-up call: {type(exc).__name__}: {exc}")

    def run(self, seconds: float, tracer=None) -> Tally:
        tally = Tally()
        done: list[float] = []           # completion time of every optimizer step
        resumed: list[float] = []        # when training went on after it, calibration done
        kernels: list[float] = []        # calibration kernel time for the interval that follows
        inner = training.adam_step

        def adam_step(*args, **kwargs):
            out = inner(*args, **kwargs)
            done.append(perf_counter())
            if tracer is None:
                kernels.append(calibration.kernel_seconds(STEP_CALIBRATION_REPEATS))
            else:
                kernels.append(calibration.REFERENCE_S)
                tracer.op = len(done)
            resumed.append(perf_counter())
            return out

        training.adam_step = adam_step
        try:
            deadline = perf_counter() + seconds
            while True:
                first, n_spans = len(done), len(tracer.spans) if tracer is not None else 0
                if tracer is not None:
                    tracer.op = first
                kernel_s = (calibration.kernel_seconds(OP_CALIBRATION_REPEATS) if tracer is None
                            else calibration.REFERENCE_S)
                t0 = perf_counter()
                try:
                    result, error = training.train(self.model, self.data.train, self.data.val,
                                                   1, INIT_SEED, self.cfg), None
                except Exception as exc:  # a failing call is counted, the run goes on
                    result, error = None, f"{type(exc).__name__}: {exc}"
                t1 = perf_counter()
                steps = done[first:]
                starts = [t0] + resumed[first:]          # one more than steps: the tail's start
                ends = steps + [t1]
                befores = [kernel_s] + kernels[first:]
                for k, (start, end, kernel) in enumerate(zip(starts, ends, befores)):
                    tally.add(end - start, kernel, k if k < len(steps) else None)
                if tracer is not None:
                    self._close_ops(tracer, n_spans, t0, steps, t1, first)
                if error is None and result.diverged:
                    error = f"diverged after {result.steps} step(s)"
                if error is not None:
                    # the step that raised or diverged never reached the optimizer
                    tally.attempted += len(steps) + 1
                    tally.fail(1, error)
                else:
                    tally.attempted += len(steps)
                    error = self._check(result)
                    if error:
                        tally.fail(len(steps), error)
                    else:
                        self.val_ssim = result.log[-1]["ssim"]
                if t1 >= deadline:
                    return tally
        finally:
            training.adam_step = inner

    @staticmethod
    def _close_ops(tracer, n_spans: int, t0: float, steps: list, t1: float, first: int) -> None:
        """Root spans for the steps of one call; the call's tail joins its last step."""
        if not steps:
            return
        last = first + len(steps) - 1
        for span in tracer.spans[n_spans:]:
            if span[4] == last + 1:
                span[4] = last
        starts = [t0] + steps[:-1]
        ends = steps[:-1] + [t1]
        for k, (start, end) in enumerate(zip(starts, ends)):
            tracer.add_root(first + k, start, end)
        tracer.op = None

    @staticmethod
    def _check(result: training.TrainResult) -> str | None:
        for row in result.log:
            if not (np.isfinite(row["loss"]) and np.isfinite(row["ssim"])):
                return f"non-finite {row['split']} loss or SSIM in epoch {row['epoch']}"
        if result.log[-1]["split"] != "val":
            return "no validation pass"
        for name, value in result.best_values.items():
            if not np.all(np.isfinite(value)):
                return f"non-finite parameter {name}"
        return None

    def quality(self) -> dict:
        return {"ssim_mean": self.val_ssim, "ssim_cs": _cs_ssim(self.data.val[:N_CS_CHECK])}


class EvalWorkload(RecordLoop):
    """What ``reconkit eval`` does per record: read it, run four methods, score them."""

    name = "eval"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.nonfinite: list[str] = []
        self.ssims: dict[int, dict[str, float]] = {}
        self.warm_errors: list[str] = []

    def setup(self) -> None:
        data = _desk_dataset(subseed(self.seed, 1), N_TRAIN, 0, N_EVAL_RECORDS)
        self.paths = []
        for i, rec in enumerate(data.test):
            path = self.workdir / f"record_{i:04d}.cks"
            containers.write_record(path, rec)
            self.paths.append(path)

        cirim = build_model("cirim", cell=CELL, cascade=CASCADE)
        rim_channels = experiments.matched_rim_channels(experiments.count_parameters(cirim),
                                                        CELL.iterations)
        rim = build_model("rim", cell=RimCellConfig(channels=rim_channels,
                                                    iterations=CELL.iterations, unit="gru"),
                          cascade=CascadeConfig(n_cascades=1))
        cfg = training.TrainConfig(loss="cirim", dtype="float32", max_steps=SETUP_TRAIN_STEPS)
        methods = [training.method_zero_filled(), training.method_cs()]
        for name, model in (("rim", rim), ("cirim", cirim)):
            result = training.train(model, data.train, [], 1, INIT_SEED, cfg)
            path = self.workdir / f"{name}.cks"
            training.save_trained(path, model, result.best_values)
            methods.append(training.method_checkpoint(path, name=name))
        self.methods = [self._checked(m) for m in methods]
        self.warm_up()
        self.ssims.clear()

    def _checked(self, method: training.MethodSpec) -> training.MethodSpec:
        def recon(rec):
            x = method.recon(rec)
            if not np.all(np.isfinite(x)):
                self.nonfinite.append(method.name)
            return x
        return training.MethodSpec(method.name, recon)

    def key(self, i: int) -> int:
        return i % len(self.paths)      # the records repeat, so each is timed several times

    def op(self, i: int):
        self.nonfinite.clear()
        rec = containers.read_record(self.paths[self.key(i)])
        return training.evaluate(self.methods, [rec], dataset_name="desk64", timing=True)

    def check(self, i: int, rows) -> str | None:
        if self.nonfinite:
            return f"non-finite reconstruction from {', '.join(self.nonfinite)}"
        scores = {r["method"]: r["ssim"] for r in rows if r["id"] != "mean"}
        if len(scores) != len(self.methods):
            return f"scored {sorted(scores)}, expected {len(self.methods)} methods"
        for method, s in scores.items():
            if s is None or not np.isfinite(s):
                return f"SSIM of {method} is {s}"
        self.ssims[self.key(i)] = scores
        return None

    def quality(self) -> dict:
        rows = list(self.ssims.values())
        return {"ssim_mean": float(np.mean([r["cirim"] for r in rows])),
                "ssim_cs": float(np.mean([r["cs"] for r in rows]))}


class AcquireWorkload(RecordLoop):
    """``phantom gen`` + ``mask gen --kind poisson2d --acc 4`` + ``simulate`` per record."""

    name = "acquire"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.seeds = (subseed(seed, 11), subseed(seed, 12), subseed(seed, 13))
        self.zf_ssims: dict[int, float] = {}
        self.kept: dict[int, phantom.DatasetRecord] = {}
        self.warm_errors: list[str] = []

    def setup(self) -> None:
        self.maps = phantom.make_coils(COILS, SIZE, SIZE)
        self.warm_up()
        self.zf_ssims.clear()
        self.kept.clear()

    def key(self, i: int) -> int:
        return i % N_ACQUIRE_RECORDS    # the records repeat, so each is timed several times

    def op(self, i: int):
        k = self.key(i)
        s_phantom, s_mask, s_noise = self.seeds
        image, lesion, wm = phantom.make_phantom(phantom.default_brain_spec(size=SIZE,
                                                                            seed=s_phantom + k))
        mask = sampling.poisson2d_mask(SIZE, SIZE, ACCELERATION, seed=s_mask + k)
        rec = phantom.simulate_acquisition(image, self.maps, mask, SIGMA, seed=s_noise + k,
                                           lesion_mask=lesion, wm_mask=wm)
        path = self.workdir / f"record_{k:04d}.cks"
        containers.write_record(path, rec)
        return rec, containers.read_record(path)

    def check(self, i: int, out) -> str | None:
        rec, back = out
        for name in RECORD_ARRAYS:
            if _stored(attrgetter(name)(rec)) != _stored(attrgetter(name)(back)):
                return f".cks round trip changed {name}"
        written = json.loads(json.dumps([rec.meta, rec.mask.kind, rec.mask.seed,
                                         rec.mask.requested_acceleration, rec.mask.extra]))
        if [back.meta, back.mask.kind, back.mask.seed, back.mask.requested_acceleration,
                back.mask.extra] != written:
            return ".cks round trip changed the metadata"
        x = baselines.zero_filled(back.kspace, back.maps, back.mask)
        if not np.all(np.isfinite(x)):
            return "non-finite zero-filled reconstruction"
        s = metrics.ssim(np.abs(x), np.abs(back.reference))
        if not np.isfinite(s):
            return f"zero-filled SSIM is {s}"
        self.zf_ssims[self.key(i)] = s
        if self.key(i) < N_CS_CHECK:
            self.kept[self.key(i)] = back
        return None

    def quality(self) -> dict:
        return {"ssim_mean": float(np.mean(list(self.zf_ssims.values()))),
                "ssim_cs": _cs_ssim(list(self.kept.values()))}


def _stored(a) -> bytes:
    """The bytes a .cks container stores for an array (float32 or complex64)."""
    a = np.asarray(a)
    return a.astype("<c8" if np.iscomplexobj(a) else "<f4").tobytes()


WORKLOADS = {w.name: w for w in (TrainWorkload, EvalWorkload, AcquireWorkload)}
