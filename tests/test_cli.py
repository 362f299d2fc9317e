"""CLI surface: pipeline wiring, determinism, exit codes, config merging."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from reconkit import containers, sampling, training
from reconkit.autodiff import ParameterStore
from reconkit.cli import build_parser, main
from reconkit.networks import MODEL_KINDS, CascadeConfig, RimCellConfig, build_model
from reconkit.phantom import PhantomSpec, default_brain_spec, make_phantom

from conftest import (BAD_MODEL_CONFIGS, BAD_PHANTOM_SPECS, BAD_TYPED_FILES, poison_adam_step,
                      set_container_header, write_bad_typed_file)


# every malformed spec, and the brain-family files that `phantom gen` itself rejects
BAD_SPEC_FILES = {
    **BAD_PHANTOM_SPECS,
    "family_size_text": ({"family": "brain", "size": "big"}, "size must be an integer"),
    "family_unknown_option": ({"family": "brain", "lesions": 3},
                              "lesions is not an option of the brain family"),
}


def run(argv):
    return main(argv)


class TestMaskGen:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.cks", tmp_path / "b.cks"
        args = ["mask", "gen", "--kind", "gaussian2d", "--size", "64x64",
                "--acc", "4", "--seed", "7"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_all_kinds(self, tmp_path):
        for kind in ("gaussian2d", "equidistant1d", "poisson2d", "full"):
            out = tmp_path / f"{kind}.cks"
            # a full mask draws nothing, so it takes no --acc and no --seed
            drawn = [] if kind == "full" else ["--acc", "3", "--seed", "1"]
            assert run(["mask", "gen", "--kind", kind, "--size", "32x32",
                        *drawn, "--out", str(out)]) == 0
            mask = containers.read_mask(out)
            assert mask.kind == kind

    def test_pbm_preview(self, tmp_path):
        out, pbm = tmp_path / "m.cks", tmp_path / "m.pbm"
        run(["mask", "gen", "--kind", "full", "--size", "8x8",
             "--out", str(out), "--pbm", str(pbm)])
        assert pbm.read_bytes().startswith(b"P4\n8 8\n")

    @pytest.mark.parametrize("kind, flag, value", [
        ("poisson2d", "--fwhm", "0.1"), ("poisson2d", "--center-frac", "0.5"),
        ("full", "--acc", "6"), ("full", "--acs", "0.1"), ("equidistant1d", "--acs", "0.1"),
        ("gaussian2d", "--offset-policy", "random"), ("full", "--seed", "5"),
    ])
    def test_flag_the_kind_does_not_take_is_named(self, tmp_path, capsys, kind, flag, value):
        out = tmp_path / "m.cks"
        assert run(["mask", "gen", "--kind", kind, "--size", "32x32", flag, value,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err and kind in err
        assert not out.exists()


class TestExitCodes:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run(["mask", "gen", "--does-not-exist", "1"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag, value, name", [
        ("--iters", "-1", "max_iter"), ("--alpha", "nan", "alpha"), ("--alpha", "inf", "alpha"),
    ])
    def test_cs_argument_out_of_range_exits_one(self, tmp_path, capsys, small_record,
                                                flag, value, name):
        rec, out = tmp_path / "rec.cks", tmp_path / "cs.pgm"
        containers.write_record(rec, small_record)
        assert run(["recon", "--model", "cs", "--in", str(rec), flag, value,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: " + name)
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("model, flag, value", [
        ("zerofill", "--alpha", "7"), ("zerofill", "--iters", "5"), ("cirim.cks", "--alpha", "0.01"),
    ])
    def test_cs_flag_beside_another_method_exits_one(self, tmp_path, capsys, small_record,
                                                     model, flag, value):
        rec, out = tmp_path / "rec.cks", tmp_path / "r.pgm"
        containers.write_record(rec, small_record)
        assert run(["recon", "--model", model, "--in", str(rec), flag, value,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: {flag} is an option of --model cs only")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("methods, name", [("a/cirim.cks,b/cirim.cks", "cirim"),
                                               ("cs,zerofill,cs", "cs")])
    def test_eval_of_two_methods_with_one_name_exits_one(self, tmp_path, capsys, small_record,
                                                         methods, name):
        rec, out = tmp_path / "rec.cks", tmp_path / "r.csv"
        containers.write_record(rec, small_record)
        model = build_model("cirim", cell=RimCellConfig(channels=2, iterations=1),
                            cascade=CascadeConfig(n_cascades=1))
        store = ParameterStore()
        model.init_params(store, 0)
        for d in ("a", "b"):        # one model under one file name in two directories
            (tmp_path / d).mkdir()
            training.save_trained(tmp_path / d / "cirim.cks", model, store.copy_values())
        methods = ",".join(m if m in ("cs", "zerofill") else str(tmp_path / m)
                           for m in methods.split(","))
        assert run(["eval", "--methods", methods, "--data", str(rec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: two methods are named {name!r}")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("name", ["zerofill", "cs"])
    def test_eval_of_a_checkpoint_named_like_a_baseline_exits_one(self, tmp_path, capsys,
                                                                  small_record, name):
        rec, out, ckpt = tmp_path / "rec.cks", tmp_path / "r.csv", tmp_path / f"{name}.cks"
        containers.write_record(rec, small_record)
        model = build_model("cirim", cell=RimCellConfig(channels=2, iterations=1),
                            cascade=CascadeConfig(n_cascades=1))
        store = ParameterStore()
        model.init_params(store, 0)
        training.save_trained(ckpt, model, store.copy_values())
        # alone, or beside the baseline it would be reported as
        for methods in (str(ckpt), f"{ckpt},cs,zerofill"):
            assert run(["eval", "--methods", methods, "--data", str(rec), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: ValueError: checkpoint {ckpt} would be reported as "
                                  f"the {name} baseline")
            assert len(err.strip().splitlines()) == 1
            assert not out.exists()

    def test_simulate_of_an_empty_directory_exits_one(self, tmp_path, capsys):
        empty, mask, out = tmp_path / "empty", tmp_path / "m.cks", tmp_path / "records"
        empty.mkdir()
        assert run(["mask", "gen", "--kind", "full", "--size", "8x8", "--out", str(mask)]) == 0
        capsys.readouterr()
        assert run(["simulate", "--phantom", str(empty), "--mask", str(mask),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: no records found under {empty}")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("row", sorted(BAD_SPEC_FILES))
    def test_malformed_spec_file_exits_one(self, tmp_path, capsys, row):
        spec, message = BAD_SPEC_FILES[row]
        path, out = tmp_path / "spec.json", tmp_path / "ph"
        path.write_text(json.dumps(spec))
        assert run(["phantom", "gen", "--spec", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: PhantomSpecError: " + message)
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--size", "32"), ("--lesions", "1"),
                                             ("--jitter", "0.1")])
    def test_family_flag_beside_a_full_spec_exits_one(self, tmp_path, capsys, flag, value):
        path, out = tmp_path / "spec.json", tmp_path / "ph"
        path.write_text(json.dumps({"size": 16, "ellipses": [{"cy": 0, "cx": 0, "ay": 0.5,
                                                              "ax": 0.5}]}))
        assert run(["phantom", "gen", "--spec", str(path), flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: {flag} is not an option of a full --spec")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_runtime_failure_returns_one(self, tmp_path, capsys):
        rc = run(["recon", "--model", "zerofill", "--in", str(tmp_path / "missing.cks"),
                  "--out", str(tmp_path / "o.pgm")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_invalid_acceleration_returns_one(self, tmp_path, capsys):
        rc = run(["mask", "gen", "--kind", "gaussian2d", "--size", "8x8",
                  "--acc", "0.5", "--out", str(tmp_path / "m.cks")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("kind, acc", [("gaussian2d", "nan"), ("poisson2d", "nan"),
                                           ("equidistant1d", "nan"), ("gaussian2d", "inf"),
                                           ("poisson2d", "inf"), ("equidistant1d", "inf")])
    def test_non_finite_acceleration_is_named(self, tmp_path, capsys, kind, acc):
        out = tmp_path / "m.cks"
        assert run(["mask", "gen", "--kind", kind, "--size", "16x16", "--acc", acc,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: acceleration must be")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-0.1"])
    def test_bad_sigma_is_named(self, tmp_path, capsys, sigma):
        ph, mask, out = tmp_path / "ph", tmp_path / "m.cks", tmp_path / "rec.cks"
        assert run(["phantom", "gen", "--out", str(ph), "--size", "16"]) == 0
        assert run(["mask", "gen", "--kind", "full", "--size", "16x16", "--out", str(mask)]) == 0
        capsys.readouterr()
        assert run(["simulate", "--phantom", str(ph), "--mask", str(mask), "--sigma", sigma,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: sigma")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind, size", [("poisson2d", "0x64"), ("gaussian2d", "0x0"),
                                            ("full", "0x0"), ("equidistant1d", "8x0"),
                                            ("gaussian2d", "8x-8")])
    def test_empty_mask_grid_names_size(self, tmp_path, capsys, kind, size):
        out = tmp_path / "m.cks"
        assert run(["mask", "gen", "--kind", kind, "--size", size, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: h and w must be at least 1")
        assert f"size {size}" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_malformed_record_header_exits_one(self, tmp_path, capsys, small_record):
        rec = tmp_path / "rec.cks"
        containers.write_record(rec, small_record)
        set_container_header(rec, {"kind": "record", "version": 1, "meta": {}})
        rc = run(["eval", "--methods", "zerofill", "--data", str(rec),
                  "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FormatError: header.arrays is missing")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("row", sorted(BAD_TYPED_FILES))
    def test_unusable_typed_file_exits_one(self, tmp_path, capsys, small_record, row):
        bad, good, out = tmp_path / "bad.cks", tmp_path / "rec.cks", str(tmp_path / "out")
        write_bad_typed_file(row, bad, small_record)
        containers.write_record(good, small_record)
        kind = row.split("_")[0]
        if kind in ("mask", "phantom"):    # recon and eval read neither file; simulate does
            phantom, mask = tmp_path / "ph.cks", tmp_path / "m.cks"
            containers.write_phantom(phantom, small_record.reference,
                                     small_record.lesion_mask, small_record.wm_mask)
            containers.write_mask(mask, small_record.mask)
            phantom, mask = (bad, mask) if kind == "phantom" else (phantom, bad)
            commands = [["simulate", "--phantom", str(phantom), "--mask", str(mask),
                         "--out", out]]
        else:
            method, data = (str(bad), str(good)) if kind == "model" else ("zerofill", str(bad))
            commands = [["recon", "--model", method, "--in", data, "--out", out],
                        ["eval", "--methods", method, "--data", data, "--out", out]]
        for argv in commands:
            assert run(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: FormatError: ") and BAD_TYPED_FILES[row] in err
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("row", sorted(BAD_MODEL_CONFIGS))
    def test_malformed_checkpoint_config_exits_one(self, tmp_path, capsys, small_record, row):
        config, field = BAD_MODEL_CONFIGS[row]
        bad, rec = tmp_path / "bad.cks", tmp_path / "rec.cks"
        containers.save_checkpoint(bad, config, {})
        containers.write_record(rec, small_record)
        assert run(["eval", "--methods", str(bad), "--data", str(rec),
                    "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and field in err
        assert len(err.strip().splitlines()) == 1


class TestPipeline:
    @pytest.fixture()
    def workspace(self, tmp_path):
        ph = tmp_path / "phantoms"
        recs = tmp_path / "records"
        mask = tmp_path / "mask.cks"
        assert run(["phantom", "gen", "--out", str(ph), "--count", "4",
                    "--seed", "3", "--size", "16"]) == 0
        assert run(["mask", "gen", "--kind", "gaussian2d", "--size", "16x16",
                    "--acc", "2", "--seed", "5", "--out", str(mask)]) == 0
        assert run(["simulate", "--phantom", str(ph), "--mask", str(mask),
                    "--coils", "2", "--sigma", "0.02", "--seed", "9",
                    "--out", str(recs)]) == 0
        return tmp_path, ph, recs, mask

    def test_end_to_end(self, workspace, tmp_path):
        base, ph, recs, mask = workspace
        assert len(list(recs.glob("*.cks"))) == 4

        ckpt = base / "cirim.cks"
        assert run(["train", "--model", "cirim", "--data", str(recs), "--epochs", "2",
                    "--seed", "11", "--out", str(ckpt), "--channels", "4",
                    "--iterations", "2", "--cascades", "1", "--dtype", "float32"]) == 0
        assert ckpt.exists()
        config, values, extra = containers.load_checkpoint(ckpt)
        assert config["kind"] == "cirim"
        log = ckpt.with_suffix(".log.csv").read_bytes().decode()
        assert log.startswith("epoch,split,loss,ssim")

        img = base / "out.pgm"
        first = sorted(recs.glob("*.cks"))[0]
        assert run(["recon", "--model", str(ckpt), "--in", str(first),
                    "--out", str(img)]) == 0
        assert img.read_bytes().startswith(b"P5\n16 16\n65535\n")

        report = base / "report.csv"
        assert run(["eval", "--methods", f"{ckpt},cs,zerofill", "--data", str(recs),
                    "--out", str(report), "--no-timing"]) == 0
        text = report.read_bytes().decode()
        assert text.startswith("id,method,dataset,acc,ssim,psnr_db,cr,wmn,bgn,wa,snr,wall_ms")
        assert "zerofill" in text and "cs" in text and "cirim" in text

    def test_varnet_trains_with_explicit_dc_by_default(self, workspace):
        base, ph, recs, mask = workspace
        ckpt = base / "varnet.cks"
        assert run(["train", "--model", "varnet", "--data", str(recs), "--epochs", "1",
                    "--seed", "11", "--out", str(ckpt), "--channels", "2", "--pools", "2",
                    "--cascades", "2", "--dtype", "float32"]) == 0
        config, values, _extra = containers.load_checkpoint(ckpt)
        assert config["cascade"]["explicit_dc"] is True
        assert {"cascade0.dc_weight", "cascade1.dc_weight"} <= set(values)

    @pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
    def test_default_flags_train_the_library_default_model(self, workspace, kind):
        base, ph, recs, mask = workspace
        ckpt = base / f"{kind}.cks"
        assert run(["train", "--model", kind, "--data", str(recs), "--steps", "1",
                    "--out", str(ckpt)]) == 0
        config, _values, _extra = containers.load_checkpoint(ckpt)
        assert config == json.loads(json.dumps(build_model(kind).config_dict()))

    @pytest.mark.parametrize("argv, message", [
        (["train", "--epochs", "0"], "TrainingError: need at least one epoch"),
        (["train", "--val-count", "-1", "--steps", "1"], "ValueError: --val-count"),
        (["phantom", "gen", "--count", "-2"], "ValueError: --count"),
        (["train", "--kernels", "3,3", "--steps", "1"],
         "ConfigError: kernel_sizes must be a list of 3 items, got (3, 3)\n"),
        (["train", "--kernels", "3,x", "--steps", "1"], "ValueError: --kernels"),
        (["train", "--channels", "0", "--steps", "1"], "ConfigError: channels"),
        (["train", "--channels", "-2", "--steps", "1"], "ConfigError: channels"),
        (["train", "--lr", "-1", "--steps", "1"], "TrainingError: lr must be above 0, got -1.0\n"),
        (["train", "--lr", "0", "--steps", "1"], "TrainingError: lr must be above 0, got 0.0\n"),
        (["train", "--lr", "nan", "--steps", "1"],
         "TrainingError: lr must be a finite number, got nan\n"),
        (["train", "--lr", "inf", "--steps", "1"],
         "TrainingError: lr must be a finite number, got inf\n"),
        (["train", "--seed", "-3", "--steps", "1"],
         "ValueError: --seed must be at least 0, got -3\n"),
        (["phantom", "gen", "--jobs", "0"], "ValueError: --jobs"),
        (["phantom", "gen", "--jobs", "-3"], "ValueError: --jobs"),
        (["train", "--dc", "explicit", "--dc-weight", "nan", "--steps", "1"],
         "ConfigError: dc_weight_init must be a finite number, got nan\n"),
        (["train", "--dc", "explicit", "--dc-weight", "inf", "--steps", "1"],
         "ConfigError: dc_weight_init must be a finite number, got inf\n"),
        (["train", "--model", "varnet", "--pools", "5", "--steps", "1"], "ConfigError: pools"),
        (["train", "--pools", "2", "--steps", "1"],
         "ConfigError: config section 'unet' is not used by a cirim model"),
        (["train", "--model", "rim", "--pools", "2", "--steps", "1"],
         "ConfigError: config section 'unet' is not used by a rim model"),
        (["train", "--model", "varnet", "--iterations", "2", "--steps", "1"],
         "ConfigError: config section 'cell' is not used by a varnet model"),
        (["train", "--model", "varnet", "--kernels", "3,3,3", "--steps", "1"],
         "ConfigError: config section 'cell' is not used by a varnet model"),
        (["train", "--model", "irim", "--dc-weight", "0.3", "--steps", "1"],
         "ValueError: --dc-weight"),
        (["train", "--dc", "implicit", "--dc-weight", "0.3", "--steps", "1"],
         "ValueError: --dc-weight"),
        (["phantom", "gen", "--size", "0"], "PhantomSpecError: size"),
        (["phantom", "gen", "--size", "-3"], "PhantomSpecError: size"),
        (["phantom", "gen", "--lesions", "-1"], "PhantomSpecError: n_lesions"),
        (["phantom", "gen", "--jitter", "nan"], "PhantomSpecError: jitter"),
        (["phantom", "gen", "--jitter", "-0.1"], "PhantomSpecError: jitter"),
        (["mask", "gen", "--kind", "equidistant1d", "--size", "16x16", "--center-frac", "nan"],
         "ValueError: center_frac"),
        (["mask", "gen", "--kind", "equidistant1d", "--size", "16x16", "--center-frac", "-0.5"],
         "ValueError: center_frac"),
    ], ids=["epochs_0", "val_count_negative", "count_negative", "kernels_two", "kernels_not_ints",
            "channels_0", "channels_negative", "lr_negative", "lr_0", "lr_nan", "lr_inf",
            "seed_negative", "jobs_0", "jobs_negative", "dc_weight_nan", "dc_weight_inf", "pools_too_deep",
            "pools_on_cirim", "pools_on_rim", "iterations_on_varnet", "kernels_on_varnet",
            "dc_weight_on_irim", "dc_weight_on_implicit_cirim",
            "size_0", "size_negative", "lesions_negative", "jitter_nan", "jitter_negative",
            "center_frac_nan", "center_frac_negative"])
    def test_malformed_count_exits_one(self, workspace, capsys, argv, message):
        base, _ph, recs, _mask = workspace
        # the defaults come first, so the case's own flags win; a varnet takes no --iterations
        extra = (["--model", "cirim", "--data", str(recs), "--cascades", "1", "--channels", "2"]
                 + ([] if "varnet" in argv else ["--iterations", "1"])
                 if argv[0] == "train" else [])
        out = base / "out"
        assert run(argv[:1] + extra + argv[1:] + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + message)
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_eval_jobs_below_one_exits_one(self, workspace, capsys, jobs):
        base, _ph, recs, _mask = workspace
        out = base / "report.csv"
        assert run(["eval", "--methods", "zerofill", "--data", str(recs), "--jobs", jobs,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: --jobs")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_simulate_of_a_one_phantom_directory_writes_a_directory(self, workspace, tmp_path):
        _base, ph, recs, mask = workspace
        one, out = tmp_path / "one", tmp_path / "recs1"
        one.mkdir()
        first = sorted(ph.glob("*.cks"))[0]
        (one / first.name).write_bytes(first.read_bytes())
        assert run(["simulate", "--phantom", str(one), "--mask", str(mask), "--coils", "2",
                    "--sigma", "0.02", "--seed", "9", "--out", str(out)]) == 0
        assert out.is_dir()
        # the record the four-phantom directory gives for the same first phantom
        assert (out / "record_0000.cks").read_bytes() == (recs / "record_0000.cks").read_bytes()

    # a valid value of each model flag that is not the library default of any kind
    # (--dc takes the mode the kind does not default to)
    MODEL_FLAGS = {"--cascades": "2", "--dc": None, "--dc-weight": "0.3", "--channels": "3",
                   "--iterations": "2", "--kernels": "3,3,3", "--pools": "1"}

    @pytest.mark.parametrize("flag", sorted(MODEL_FLAGS))
    @pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
    def test_every_model_flag_changes_the_model_or_is_an_error(self, workspace, capsys, kind,
                                                              flag):
        base, _ph, recs, _mask = workspace
        value = self.MODEL_FLAGS[flag] or ("implicit" if MODEL_KINDS[kind].explicit_dc
                                           else "explicit")
        ckpt = base / "model.cks"
        rc = run(["train", "--model", kind, "--data", str(recs), "--steps", "1", flag, value,
                  "--out", str(ckpt)])
        err = capsys.readouterr().err
        if rc == 0:
            config, _values, _extra = containers.load_checkpoint(ckpt)
            assert config != json.loads(json.dumps(build_model(kind).config_dict()))
        else:
            assert rc == 1 and err.startswith("error: ")
            assert len(err.strip().splitlines()) == 1
            assert not ckpt.exists()

    def test_varnet_with_implicit_dc_is_an_error(self, workspace, capsys):
        base, ph, recs, mask = workspace
        rc = run(["train", "--model", "varnet", "--dc", "implicit", "--data", str(recs),
                  "--epochs", "1", "--out", str(base / "v.cks"), "--pools", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: config field 'cascade.explicit_dc'")
        assert len(err.strip().splitlines()) == 1
        assert not (base / "v.cks").exists()

    def test_train_divergence_writes_checkpoint(self, workspace, monkeypatch):
        base, ph, recs, mask = workspace
        poison_adam_step(monkeypatch, 2)
        ckpt = base / "diverged.cks"
        with np.errstate(invalid="ignore", over="ignore"):
            rc = run(["train", "--model", "cirim", "--data", str(recs), "--epochs", "1",
                      "--seed", "11", "--out", str(ckpt), "--channels", "4",
                      "--iterations", "2", "--cascades", "1", "--dtype", "float32"])
        assert rc == 0
        _config, values, extra = containers.load_checkpoint(ckpt)
        assert extra["diverged"] is True
        assert extra["steps"] == 1  # the step that left the inf weight is not counted
        assert all(np.isfinite(v).all() for v in values.values())

    def test_train_divergence_in_validation_writes_checkpoint(self, workspace, monkeypatch):
        base, ph, recs, mask = workspace
        # the last step of the first epoch leaves a weight that overflows in float32
        poison_adam_step(monkeypatch, 3, value=1e30)
        ckpt = base / "diverged_val.cks"
        with np.errstate(invalid="ignore", over="ignore"):
            rc = run(["train", "--model", "cirim", "--data", str(recs), "--epochs", "2",
                      "--seed", "11", "--out", str(ckpt), "--channels", "4",
                      "--iterations", "2", "--cascades", "1", "--dtype", "float32"])
        assert rc == 0
        _config, values, extra = containers.load_checkpoint(ckpt)
        assert extra["diverged"] is True
        assert all(np.isfinite(v).all() for v in values.values())
        assert extra["best_step"] == 0  # the initial parameters, not those of step 3

    def test_eval_determinism_and_jobs(self, workspace, tmp_path):
        base, ph, recs, mask = workspace
        r1, r2, r4 = base / "r1.csv", base / "r2.csv", base / "r4.csv"
        args = ["eval", "--methods", "zerofill,cs", "--data", str(recs), "--no-timing"]
        assert run(args + ["--out", str(r1)]) == 0
        assert run(args + ["--out", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        assert run(args + ["--out", str(r4), "--jobs", "2"]) == 0
        assert r1.read_bytes() == r4.read_bytes()

    def test_recon_zerofill_full_mask_matches_reference(self, tmp_path):
        ph = tmp_path / "ph"
        run(["phantom", "gen", "--out", str(ph), "--count", "1", "--seed", "2",
             "--size", "16"])
        mask = tmp_path / "full.cks"
        run(["mask", "gen", "--kind", "full", "--size", "16x16",
             "--out", str(mask)])
        rec_path = tmp_path / "rec.cks"
        run(["simulate", "--phantom", str(ph / "phantom_0000.cks"), "--mask", str(mask),
             "--coils", "2", "--sigma", "0", "--out", str(rec_path)])
        img = tmp_path / "zf.pgm"
        assert run(["recon", "--model", "zerofill", "--in", str(rec_path),
                    "--out", str(img)]) == 0
        rec = containers.read_record(rec_path)
        expected_mag = np.abs(rec.reference)
        quant = np.round(expected_mag / expected_mag.max() * 65535).astype(np.uint16)
        got = containers.import_pgm(img)
        # float32 storage and the FFT round trip shift a few quantization bins
        assert np.abs(got.astype(int) - quant.astype(int)).max() <= 2

    def test_default_shape_flags_are_the_library_defaults(self, tmp_path):
        # flags left out pass no keyword, so the generators' own defaults apply
        for kind, make in (("gaussian2d", sampling.gaussian2d_mask),
                           ("equidistant1d", sampling.equidistant1d_mask),
                           ("poisson2d", sampling.poisson2d_mask)):
            out, ref = tmp_path / f"{kind}.cks", tmp_path / f"{kind}_ref.cks"
            assert run(["mask", "gen", "--kind", kind, "--size", "32x32", "--acc", "4",
                        "--seed", "3", "--out", str(out)]) == 0
            containers.write_mask(ref, make(32, 32, 4, seed=3))
            assert out.read_bytes() == ref.read_bytes()
        assert run(["phantom", "gen", "--out", str(tmp_path / "ph"), "--seed", "5"]) == 0
        spec = default_brain_spec(seed=5)
        containers.write_phantom(tmp_path / "ref.cks", *make_phantom(spec),
                                 meta={"spec": spec.to_dict(), "seed": 5})
        assert (tmp_path / "ph" / "phantom_0000.cks").read_bytes() == \
            (tmp_path / "ref.cks").read_bytes()

    def test_spec_files_make_the_library_phantoms(self, tmp_path):
        full = {"size": 16, "ellipses": [{"cy": 0, "cx": 0, "ay": 0.6, "ax": 0.5, "angle": 0.2}],
                "lesions": [{"cy": 0.1, "cx": 0, "ay": 0.1, "ax": 0.1, "intensity": 0.2}],
                "wm_index": 0, "phase_coeffs": [[0, 0.5, 0], [0.3, 0, 0], [0, 0, 0]]}
        family = {"family": "brain", "size": 16, "n_lesions": 1, "jitter": 0.01}
        # a family file fills the options no flag gives, so --size wins over its size
        for spec, flags, expected in (
                (full, [], PhantomSpec.from_dict({**full, "seed": 5})),
                (family, ["--size", "32"], default_brain_spec(32, seed=5, n_lesions=1,
                                                              jitter=0.01))):
            path, out, ref = tmp_path / "spec.json", tmp_path / "ph", tmp_path / "ref.cks"
            path.write_text(json.dumps(spec))
            assert run(["phantom", "gen", "--spec", str(path), "--seed", "5", *flags,
                        "--out", str(out)]) == 0
            containers.write_phantom(ref, *make_phantom(expected),
                                     meta={"spec": expected.to_dict(), "seed": 5})
            assert (out / "phantom_0000.cks").read_bytes() == ref.read_bytes()

    def test_phantom_gen_jobs_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["phantom", "gen", "--out", str(a), "--count", "3", "--seed", "1",
             "--size", "16"])
        run(["phantom", "gen", "--out", str(b), "--count", "3", "--seed", "1",
             "--size", "16", "--jobs", "2"])
        for pa, pb in zip(sorted(a.glob("*.cks")), sorted(b.glob("*.cks"))):
            assert pa.read_bytes() == pb.read_bytes()


class TestConfigMerging:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"acc": 8.0, "seed": 99}))
        out = tmp_path / "m.cks"
        assert run(["mask", "gen", "--kind", "gaussian2d", "--size", "32x32",
                    "--acc", "2", "--config", str(cfg), "--out", str(out)]) == 0
        mask = containers.read_mask(out)
        assert mask.requested_acceleration == 2.0   # explicit flag wins
        assert mask.seed == 99                      # config fills the rest

    def test_config_supplies_required_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "m.cks"
        cfg.write_text(json.dumps({"out": str(out), "size": "8x8"}))
        assert run(["mask", "gen", "--kind", "full", "--config", str(cfg)]) == 0
        assert containers.read_mask(out).keep.shape == (8, 8)

    def test_missing_required_flag_still_exits_two(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"size": "8x8"}))
        with pytest.raises(SystemExit) as err:
            run(["mask", "gen", "--kind", "full", "--config", str(cfg)])
        assert err.value.code == 2

    @pytest.mark.parametrize("cfg", [{"kind": "gausian2d"}, {"acc": "four"},
                                     {"pbm": True}])
    def test_bad_config_value_exits_two(self, tmp_path, cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "m.cks"
        with pytest.raises(SystemExit) as err:
            run(["mask", "gen", "--kind", "full", "--size", "8x8", "--config", str(path),
                 "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    def test_config_booleans_and_unknown_keys(self, tmp_path):
        ph = tmp_path / "ph"
        run(["phantom", "gen", "--out", str(ph), "--count", "1", "--seed", "2", "--size", "16"])
        mask = tmp_path / "full.cks"
        run(["mask", "gen", "--kind", "full", "--size", "16x16", "--out", str(mask)])
        rec = tmp_path / "rec.cks"
        run(["simulate", "--phantom", str(ph / "phantom_0000.cks"), "--mask", str(mask),
             "--coils", "2", "--out", str(rec)])
        reports = []
        for i, cfg in enumerate([{"no_timing": True, "not_a_flag": 1},
                                 {"no_timing": False}, {"no_timing": None}]):
            path = tmp_path / f"cfg{i}.json"
            path.write_text(json.dumps(cfg))
            report = tmp_path / f"r{i}.csv"
            assert run(["eval", "--methods", "zerofill", "--data", str(rec),
                        "--config", str(path), "--out", str(report)]) == 0
            reports.append(report.read_text().splitlines()[1].split(","))
        assert float(reports[0][-1]) == 0.0                       # true: --no-timing
        assert float(reports[1][-1]) > 0 and float(reports[2][-1]) > 0

    def test_config_file_that_is_not_an_object_is_named(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]")
        assert run(["mask", "gen", "--kind", "full", "--size", "8x8", "--config", str(path),
                    "--out", str(tmp_path / "m.cks")]) == 1
        err = capsys.readouterr().err
        assert err == "error: ValueError: --config must be an object, got [1, 2]\n"

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RECON_SEED", "123")
        out = tmp_path / "m.cks"
        # parser defaults are bound at build time, so rebuild through main
        assert run(["mask", "gen", "--kind", "gaussian2d", "--size", "16x16",
                    "--acc", "2", "--out", str(out)]) == 0
        assert containers.read_mask(out).seed == 123
        # a kind that draws nothing ignores RECON_SEED rather than rejecting it
        assert run(["mask", "gen", "--kind", "full", "--size", "16x16", "--out", str(out)]) == 0

    @pytest.mark.parametrize("text", ["abc", "1.5"])
    def test_malformed_env_seed_is_named_only_where_a_seed_is_taken(
            self, tmp_path, monkeypatch, capsys, small_record, text):
        monkeypatch.setenv("RECON_SEED", text)
        rec, out = tmp_path / "rec.cks", tmp_path / "out"
        containers.write_record(rec, small_record)
        # eval and a mask that draws nothing take no seed, so they ignore it
        assert run(["eval", "--methods", "zerofill", "--data", str(rec), "--no-timing",
                    "--out", str(tmp_path / "r.csv")]) == 0
        assert run(["mask", "gen", "--kind", "full", "--size", "16x16",
                    "--out", str(tmp_path / "m.cks")]) == 0
        assert run(["phantom", "gen", "--size", "16", "--seed", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        for argv in (["phantom", "gen", "--size", "16"],
                     ["mask", "gen", "--kind", "gaussian2d", "--size", "16x16", "--acc", "2"]):
            assert run(argv + ["--out", str(tmp_path / "bad")]) == 1
            err = capsys.readouterr().err
            assert err == f"error: ValueError: RECON_SEED must be an integer, got {text!r}\n"
        assert not (tmp_path / "bad").exists()


    @pytest.mark.parametrize("argv, env_seed, message", [
        (["phantom", "gen", "--size", "16", "--seed", "-2"], None,
         "--seed must be at least 0, got -2"),
        (["phantom", "gen", "--size", "16"], "-3", "RECON_SEED must be at least 0, got -3"),
        (["simulate", "--seed", "-5", "--sigma", "0.02"], None,
         "--seed must be at least 0, got -5"),
        (["simulate", "--seed", "-5"], None, "--seed must be at least 0, got -5"),
        (["mask", "gen", "--kind", "gaussian2d", "--size", "16x16"], "-1",
         "RECON_SEED must be at least 0, got -1"),
    ], ids=["phantom_seed", "phantom_env_seed", "simulate_noisy", "simulate_noiseless",
            "mask_env_seed"])
    def test_negative_seed_is_named(self, tmp_path, monkeypatch, capsys, argv, env_seed,
                                    message):
        """Named whether or not the command draws anything with it."""
        ph, mask, out = tmp_path / "ph", tmp_path / "full.cks", tmp_path / "out"
        if argv[0] == "simulate":
            assert run(["phantom", "gen", "--size", "16", "--seed", "0", "--out", str(ph)]) == 0
            assert run(["mask", "gen", "--kind", "full", "--size", "16x16",
                        "--out", str(mask)]) == 0
            argv = argv + ["--phantom", str(ph), "--mask", str(mask)]
        if env_seed is None:
            monkeypatch.delenv("RECON_SEED", raising=False)
        else:
            monkeypatch.setenv("RECON_SEED", env_seed)
        capsys.readouterr()
        assert run(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not out.exists()


class TestHelp:
    def test_every_subcommand_documents_defaults(self, capsys):
        for argv in (["train", "--help"], ["mask", "gen", "--help"],
                     ["recon", "--help"], ["eval", "--help"],
                     ["simulate", "--help"], ["phantom", "gen", "--help"]):
            with pytest.raises(SystemExit) as err:
                run(argv)
            assert err.value.code == 0
        capsys.readouterr()

    def test_train_help_echoes_working_defaults(self, capsys):
        with pytest.raises(SystemExit):
            run(["train", "--help"])
        text = capsys.readouterr().out
        assert "cirim 5" in text          # default cascades
        assert "default: 8" in text       # unrolled iterations
        assert "0.001" in text            # learning rate

    def test_mask_help_echoes_accelerations(self, capsys):
        with pytest.raises(SystemExit):
            run(["mask", "gen", "--help"])
        text = capsys.readouterr().out
        assert "4, 6, 8, 10" in text

    def test_recon_help_echoes_cs_default(self, capsys):
        with pytest.raises(SystemExit):
            run(["recon", "--help"])
        assert "0.005" in capsys.readouterr().out

    def test_flags_left_to_the_library_echo_no_none_default(self, capsys):
        notes = {"train": ["(library default: 8)", "(library default: 5,3,3)",
                           "(library default: 4)", "(library default: 0.5)"],
                 "recon": ["left out: 0.005", "left out: 60"]}
        for command, wanted in notes.items():
            with pytest.raises(SystemExit):
                run([command, "--help"])
            text = " ".join(capsys.readouterr().out.split())   # undo argparse's wrapping
            assert "(default: None)" not in text
            for note in wanted:
                assert note in text


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv[:1] == ["reconkit"]]
    assert len(commands) >= 6
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])     # argparse exits 2 on a flag it does not know
