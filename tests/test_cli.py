"""CLI surface: pipeline wiring, determinism, exit codes, config merging."""

import json

import numpy as np
import pytest

from reconkit import containers, sampling
from reconkit.cli import main
from reconkit.networks import MODEL_KINDS, build_model
from reconkit.phantom import default_brain_spec, make_phantom

from conftest import (BAD_MODEL_CONFIGS, BAD_TYPED_FILES, poison_adam_step,
                      set_container_header, write_bad_typed_file)


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

    def test_empty_poisson_grid_names_size(self, tmp_path, capsys):
        rc = run(["mask", "gen", "--kind", "poisson2d", "--size", "0x64",
                  "--out", str(tmp_path / "m.cks")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: ")
        assert "size 0x64" in err

    def test_malformed_record_header_exits_one(self, tmp_path, capsys, small_record):
        rec = tmp_path / "rec.cks"
        containers.write_record(rec, small_record)
        set_container_header(rec, {"kind": "record", "version": 1, "meta": {}})
        rc = run(["eval", "--methods", "zerofill", "--data", str(rec),
                  "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FormatError: ") and "'arrays'" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("row", sorted(BAD_TYPED_FILES))
    def test_unusable_typed_file_exits_one(self, tmp_path, capsys, small_record, row):
        bad, good, out = tmp_path / "bad.cks", tmp_path / "rec.cks", str(tmp_path / "out")
        write_bad_typed_file(row, bad, small_record)
        containers.write_record(good, small_record)
        kind = row.split("_")[0]
        if kind == "mask":    # recon and eval read no mask file; simulate does
            phantom = tmp_path / "ph.cks"
            containers.write_phantom(phantom, small_record.reference,
                                     small_record.lesion_mask, small_record.wm_mask)
            commands = [["simulate", "--phantom", str(phantom), "--mask", str(bad),
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
        (["train", "--kernels", "3,3", "--steps", "1"], "ConfigError: kernel_sizes"),
        (["train", "--kernels", "3,x", "--steps", "1"], "ValueError: --kernels"),
    ], ids=["epochs_0", "val_count_negative", "count_negative", "kernels_two", "kernels_not_ints"])
    def test_malformed_count_exits_one(self, workspace, capsys, argv, message):
        base, _ph, recs, _mask = workspace
        extra = (["--model", "cirim", "--data", str(recs), "--cascades", "1", "--channels", "2",
                  "--iterations", "1"] if argv[0] == "train" else [])
        out = base / "out"
        assert run(argv + extra + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: " + message)
        assert not out.exists()

    def test_varnet_with_implicit_dc_is_an_error(self, workspace, capsys):
        base, ph, recs, mask = workspace
        rc = run(["train", "--model", "varnet", "--dc", "implicit", "--data", str(recs),
                  "--epochs", "1", "--out", str(base / "v.cks"), "--pools", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
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

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RECON_SEED", "123")
        out = tmp_path / "m.cks"
        # parser defaults are bound at build time, so rebuild through main
        assert run(["mask", "gen", "--kind", "gaussian2d", "--size", "16x16",
                    "--acc", "2", "--out", str(out)]) == 0
        assert containers.read_mask(out).seed == 123
        # a kind that draws nothing ignores RECON_SEED rather than rejecting it
        assert run(["mask", "gen", "--kind", "full", "--size", "16x16", "--out", str(out)]) == 0


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
