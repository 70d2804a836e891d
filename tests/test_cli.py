import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from foldcast import data, pgm
from foldcast.cli import _load_dataset, _window, main
from foldcast.config import (
    REGISTRY, ConfigError, model_config, parse_config, render_spec, train_config,
)
from foldcast.forecaster import ForecastModel, ModelConfig, TrainConfig, fuse
from foldcast.rendering import render

ROOT = Path(__file__).resolve().parents[1]

DESK = [
    "synth_kind=sinusoid_mix", "synth_length=400", "synth_period=8",
    "synth_amplitude=1.0", "synth_noise_std=0.1", "synth_seed=1",
    "seq_len=48", "pred_len=16", "stride=16", "eval_stride=16",
    "periodicity=8", "image_size=32", "patch_size=8", "align_const=1.0",
    "d_model=16", "n_heads=2", "e_layers=1", "d_layers=1", "d_ff=32",
    "dropout=0.0", "frozen=false", "lora_rank=2", "lora_alpha=8",
    "lora_dropout=0.0", "batch_size=4", "epochs=1", "lr=1e-3",
]


# out-of-range settings that a typed config rejects; the settings before the
# last one only bring it into reach
CONFIG_SETTINGS = [
    "fixed_beta=nan", "beta_init=inf", "lora_dropout=1.0", "lora_dropout=1.5",
    "lora_dropout=-0.2", "lora_alpha=nan", "adam_beta1=1.0", "adam_beta2=1.5", "adam_eps=-1",
    "residual_weight=2", "lora_rank=0", "lora_rank=17", "n_heads=3 use_tga=false d_model=15",
    "lr=nan", "lr=inf", "d_layers=0", "image_size=16 patch_size=16", "stride=0",
    "eval_stride=0", "pss_samples=0",
]


def desk_args(*extra):
    out = []
    for kv in DESK:
        out += ["-o", kv]
    for kv in extra:
        out += ["-o", kv]
    return out


class TestConfig:
    def test_defaults(self):
        cfg = parse_config()
        assert cfg["image_size"] == 224
        assert cfg["lora_rank"] == 4
        assert cfg["norm_const"] == 0.4
        assert cfg["align_const"] == 0.4
        assert cfg["patience"] == 3
        # one source of defaults: the CLI registry agrees with the dataclasses
        assert model_config(cfg) == ModelConfig()
        assert train_config(cfg) == TrainConfig()

    def test_every_field_is_set_by_exactly_one_key(self):
        def scalar_paths(obj, path):
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if dataclasses.is_dataclass(value):
                    yield from scalar_paths(value, f"{path}.{f.name}")
                else:
                    yield f"{path}.{f.name}"

        fields = [*scalar_paths(ModelConfig(), "model"), *scalar_paths(TrainConfig(), "train")]
        set_by_keys = [path for k in REGISTRY.values() for path in k.fields]
        assert sorted(set_by_keys) == sorted(fields)

    def test_every_key_a_config_sets_builds_its_fields(self):
        cfg = parse_config(None, DESK + ["residual_weight=0.3", "adam_beta1=0.8"])
        mcfg, tcfg = model_config(cfg), train_config(cfg)
        assert mcfg.render == render_spec(cfg)
        assert (mcfg.render.image_height, mcfg.render.image_width) == (32, 32)
        assert (mcfg.backbone.image_height, mcfg.backbone.image_width) == (32, 32)
        assert mcfg.render.patch_size == mcfg.backbone.patch_size == 8
        assert (mcfg.sma.lam, mcfg.lora_rank, mcfg.backbone.frozen) == (0.3, 2, False)
        assert (tcfg.beta1, tcfg.batch_size, tcfg.epochs) == (0.8, 4, 1)

    @pytest.mark.parametrize("command", ["render", "pss", "synth-image", "train", "eval",
                                         "forecast", "gradcheck"])
    def test_help_lists_every_key_with_its_default(self, capsys, command):
        with pytest.raises(SystemExit) as e:
            main([command, "--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        for key, k in REGISTRY.items():
            line = re.search(rf"^  {key} = (.*?) +{re.escape(k.help)}$", out, re.M)
            assert line, key
            # the default is shown as a config file writes it
            assert parse_config(None, [f"{key}={line[1]}"])[key] == k.default, key

    def test_docs_name_only_known_keys(self):
        cfg_files = sorted((ROOT / "demos").glob("*.cfg"))
        assert cfg_files
        for cfg_file in cfg_files:
            parse_config(cfg_file)  # an unknown key raises, naming its line
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        keys = set(re.findall(r"-o ([a-z_]\w*)=", readme)) - {"key"}  # `-o key=value`: the syntax
        assert keys and sorted(keys - set(REGISTRY)) == []

    def test_file_then_override(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("lr = 0.01  # comment\nepochs = 3\n")
        cfg = parse_config(p, ["lr=0.5"])
        assert cfg["lr"] == 0.5
        assert cfg["epochs"] == 3

    def test_unknown_key_suggests_nearest(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("lrr = 0.01\n")
        with pytest.raises(ConfigError, match="'lr'"):
            parse_config(p)

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(None, ["epochs=three"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg")

    def test_non_utf8_file_names_the_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(b"lr = 0.01\nepochs = \xff\n")
        with pytest.raises(ValueError, match=f"{p}: line 2 is not UTF-8"):
            parse_config(p)

    @pytest.mark.parametrize("override", ["fixed_beta=abc", "synth_amplitude=1,x", "synth_amplitude=,"])
    def test_typed_value_names_the_key(self, override):
        with pytest.raises(ConfigError, match=f"bad value for {override.split('=')[0]!r}"):
            parse_config(None, [override])

    def test_values_are_typed(self):
        cfg = parse_config(None, ["synth_amplitude=1.0, 0.5", "fixed_beta=0.3"])
        assert cfg["synth_amplitude"] == (1.0, 0.5) and cfg["fixed_beta"] == 0.3
        assert parse_config(None, ["fixed_beta="])["fixed_beta"] is None


class TestRender:
    def test_writes_pgm_and_summary(self, tmp_path):
        out = tmp_path / "r"
        rc = main(["render", *desk_args(), "--out", str(out)])
        assert rc == 0
        pgms = list(out.glob("*.pgm"))
        assert len(pgms) == 1
        assert (out / "render.json").exists()
        img = pgm.read_pgm(pgms[0])
        assert img.shape == (32, 32)
        meta = json.loads((out / "render.json").read_text())
        assert meta["layout"]["visible_width"] + meta["layout"]["masked_width"] == 32
        assert meta["config"]["fixed_beta"] is None
        assert meta["config"]["synth_amplitude"] == [1.0]

    def test_matches_per_variable_reference(self, tmp_path):
        # every variable's PGM, sidecar and the layout equal a window
        # normalized and rendered one variable at a time
        rng = np.random.default_rng(4)
        values = rng.normal(size=(120, 3)) * [1.0, 5.0, 0.01] + [0.0, -3.0, 7.0]
        csv = tmp_path / "multi.csv"
        csv.write_text("date,a,b,c\n" + "".join(
            f"t{i}," + ",".join(map(str, row.tolist())) + "\n" for i, row in enumerate(values)))
        settings = [f"csv={csv}", "seq_len=48", "pred_len=16", "periodicity=8",
                    "image_size=32", "patch_size=8", "align_const=1.0"]
        out = tmp_path / "r"
        assert main(["render", *[a for kv in settings for a in ("-o", kv)],
                     "--start", "30", "--out", str(out)]) == 0
        cfg = parse_config(None, settings)
        ctx = data.load_csv(csv).values[30:78]
        mean, std = ctx.mean(axis=0), np.maximum(ctx.std(axis=0), data.SIGMA_FLOOR)
        ref = tmp_path / "ref"
        ref.mkdir()
        for v in range(3):
            ri = render((ctx[:, v] - mean[v]) / std[v] * cfg["norm_const"], 16, render_spec(cfg))
            pgm.write_pgm16(ref / f"multi_var{v}.pgm", ri.pixels)
            for name in (f"multi_var{v}.pgm", f"multi_var{v}.pgm.txt"):
                assert (out / name).read_bytes() == (ref / name).read_bytes()
        meta = json.loads((out / "render.json").read_text())
        assert meta["files"] == [f"multi_var{v}.pgm" for v in range(3)]
        assert meta["layout"] == {
            "visible_width": ri.visible_width, "masked_width": ri.masked_width,
            "pad_len": ri.pad_len, "periods_context": ri.periods_context,
        }


class TestPss:
    def test_series_summary(self, tmp_path):
        out = tmp_path / "p"
        rc = main(["pss", *desk_args("pss_samples=5"), "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "pss_summary.json").read_text())
        assert summary["n"] == 5
        assert np.isfinite(summary["mean_alpha"])
        lines = (out / "pss_samples.csv").read_text().strip().splitlines()
        assert lines[0] == "sample_id,alpha,r_squared"
        assert len(lines) == 6
        rows = [line.split(",") for line in lines[1:]]
        alphas = [float(alpha) for _, alpha, _ in rows]  # plain numbers, not numpy reprs
        assert np.mean(alphas) == pytest.approx(summary["mean_alpha"], rel=1e-12)
        assert all(r2 == "" for _, _, r2 in rows)

    def test_image_directory(self, tmp_path):
        imgs = tmp_path / "imgs"
        imgs.mkdir()
        rng = np.random.default_rng(0)
        for i in range(3):
            pgm.write_pgm16(imgs / f"i{i}.pgm", rng.normal(size=(64, 64)))
        out = tmp_path / "p"
        rc = main(["pss", "-o", "image_size=64", "--images", str(imgs), "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "pss_summary.json").read_text())["n"] == 3

    def test_constant_image_exit_2_naming_the_file(self, tmp_path, capsys):
        imgs = tmp_path / "imgs"
        imgs.mkdir()
        pgm.write_pgm16(imgs / "a.pgm", np.random.default_rng(0).normal(size=(40, 40)))
        pgm.write_pgm16(imgs / "flat.pgm", np.full((40, 40), 0.3))
        rc = main(["pss", "-o", "image_size=64", "--images", str(imgs), "--out", str(tmp_path / "p")])
        assert rc == 2
        assert f"{imgs / 'flat.pgm'}: power-law fit" in capsys.readouterr().err

    def test_constant_series_exit_2_naming_the_window(self, tmp_path, capsys):
        csv = tmp_path / "flat.csv"
        csv.write_text("date,a\n" + "".join(f"t{i},7.77\n" for i in range(200)))
        rc = main(["pss", *desk_args(f"csv={csv}", "pss_samples=3"), "--out", str(tmp_path / "p")])
        assert rc == 2
        assert re.search(r"window at row \d+, variable 0 is constant", capsys.readouterr().err)

    def test_text_file(self, tmp_path):
        txt = tmp_path / "t.txt"
        txt.write_text("the quick brown fox jumps over the lazy dog " * 40)
        out = tmp_path / "p"
        rc = main(["pss", "-o", "image_size=32", "--text", str(txt), "--out", str(out)])
        assert rc == 0
        assert (out / "pss_summary.json").exists()

    def test_empty_text_file_exit_2_naming_the_file(self, tmp_path, capsys):
        txt = tmp_path / "empty.txt"
        txt.write_text("")
        rc = main(["pss", "-o", "image_size=32", "--text", str(txt), "--out", str(tmp_path / "p")])
        assert rc == 2
        assert f"{txt}: text must be non-empty" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [[], ["--images", "{dir}"], ["--text", "{dir}/t.txt"]])
    def test_no_samples_exit_2(self, tmp_path, capsys, mode):
        (tmp_path / "t.txt").write_text("abc")
        mode = [arg.format(dir=tmp_path) for arg in mode]
        rc = main(["pss", *desk_args("pss_samples=0"), *mode, "--out", str(tmp_path / "p")])
        assert rc == 2
        assert "pss_samples" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["pss"], ["synth-image", "--alpha", "2"]])
    @pytest.mark.parametrize("band", ["f_lo=0.6", "f_hi=0.05", "f_lo=nan", "f_lo=0.8 f_hi=0.85"])
    def test_fit_band_without_two_bins_exit_2_before_reading_data(
        self, tmp_path, capsys, command, band
    ):
        settings = [*band.split(), f"csv={tmp_path / 'no.csv'}"]
        rc = main([*command, *desk_args(*settings), "--out", str(tmp_path / "p")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "f_lo" in err and "f_hi" in err and "no.csv" not in err

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["pss", *desk_args("pss_samples=4"), "--out", str(out)]) == 0
            outs.append((out / "pss_samples.csv").read_bytes() + (out / "pss_summary.json").read_bytes())
        assert outs[0] == outs[1]


class TestSynthImage:
    def test_writes_pgm(self, tmp_path):
        out = tmp_path / "s.pgm"
        rc = main(["synth-image", "-o", "image_size=64", "--alpha", "2.0", "--out", str(out)])
        assert rc == 0
        assert pgm.read_pgm(out).shape == (64, 64)

    @pytest.mark.parametrize("setting, key", [
        ("--alpha nan", "--alpha"), ("--alpha inf", "--alpha"), ("--alpha 1e308", "--alpha"),
        ("--alpha 2 -o image_size=6", "image_size")])
    def test_bad_setting_exit_2_writing_nothing(self, tmp_path, capsys, setting, key):
        rc = main(["synth-image", "-o", "image_size=32", *setting.split(),
                   "--out", str(tmp_path / "b.pgm")])
        assert rc == 2
        assert key in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestTrainEvalForecast:
    def test_full_cycle(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", *desk_args(), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert "test" in report and "epochs" in report and "config" in report
        assert (out / "model.ntf").exists()

        out2 = tmp_path / "eval"
        rc = main(["eval", *desk_args(), "--checkpoint", str(out / "model.ntf"), "--out", str(out2)])
        assert rc == 0
        ev = json.loads((out2 / "eval.json").read_text())
        assert ev["test"]["mse"] == pytest.approx(report["test"]["mse"])

        out3 = tmp_path / "fc"
        rc = main(["forecast", *desk_args(), "--checkpoint", str(out / "model.ntf"),
                   "--start", "5", "--out", str(out3)])
        assert rc == 0
        lines = (out3 / "forecast.csv").read_text().strip().splitlines()
        assert len(lines) == 17  # header + pred_len
        fj = json.loads((out3 / "forecast.json").read_text())
        beta = fj["beta"]
        assert 0.0 <= beta <= 1.0
        assert np.shape(fj["y_structural"]) == np.shape(fj["y_spectral"]) == (16, 1)
        # the two terms sum to the normalized forecast, which denormalizes to forecast.csv
        y_st, y_sp = np.array(fj["y_structural"]), np.array(fj["y_spectral"])
        st, sp = np.array(fj["structural_term"]), np.array(fj["spectral_term"])
        assert np.array_equal(st, beta * y_st) and np.array_equal(sp, (1 - beta) * y_sp)
        assert np.array_equal(st + sp, fuse(y_st, y_sp, beta))
        assert fj["structural_term_norm"] == np.linalg.norm(st)
        assert fj["spectral_term_norm"] == np.linalg.norm(sp)
        assert "mse_structural" not in fj and "mse_spectral" not in fj
        cfg = parse_config(None, DESK)
        w = _window(cfg, _load_dataset(cfg), 5, 16)
        csv = np.array([[float(f) for f in line.split(",")[1:]] for line in lines[1:]])
        assert np.array_equal(data.denormalize(st + sp, w), csv)

    def test_missing_checkpoint_exit_2(self, tmp_path):
        rc = main(["forecast", *desk_args(), "--checkpoint", str(tmp_path / "no.ntf"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_truncated_checkpoint_exit_2(self, tmp_path):
        ckpt = tmp_path / "cut.ntf"
        ckpt.write_bytes(b"NTF1\x05\x00\x00\x00\x03")  # cut inside a header
        rc = main(["forecast", *desk_args(), "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_unknown_config_key_exit_2(self, tmp_path):
        rc = main(["train", "-o", "lrr=1", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_no_input_exit_2(self, tmp_path):
        rc = main(["train", "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("setting", [
        "n_heads=0", "patch_size=0", "d_ff=0", "e_layers=-1", "batch_size=-1",
        "norm_const=0", "norm_const=inf", "few_shot_ratio=nan", "few_shot_ratio=2",
        "synth_period=0", "synth_noise_std=-1", "synth_length=10", "eval_stride=-3",
        "seed=-1", "synth_seed=-1", "workers=0", "workers=-3", "image_size=0",
        "synth_amplitude=inf", "synth_amplitude=nan", "synth_amplitude=1,inf", "synth_kind=foo",
        "test_frac=nan", "test_frac=1.0 train_frac=0.5 val_frac=-0.5", "patience=-1",
        "periodicity=0", "align_const=2", "patch_size=7", "n_heads=3", "dropout=1.5",
        *CONFIG_SETTINGS])
    def test_out_of_range_setting_exit_2(self, tmp_path, capsys, setting):
        """The message names the key and the value it rejects."""
        settings = setting.split()
        rc = main(["train", *desk_args(*settings), "--out", str(tmp_path / "x")])
        assert rc == 2
        key, value = settings[-1].split("=")
        err = capsys.readouterr().err
        assert key in err
        assert all(part in err for part in value.split(","))  # a list prints its elements

    @pytest.mark.parametrize("setting", CONFIG_SETTINGS)
    def test_config_setting_exit_2_before_reading_data(self, tmp_path, capsys, setting):
        settings = setting.split()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the error
            rc = main(["train", *desk_args(*settings, f"csv={tmp_path / 'no.csv'}"),
                       "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert settings[-1].split("=")[0] in err and "no.csv" not in err

    @pytest.mark.parametrize("command", ["render", "pss", "train", "forecast"])
    @pytest.mark.parametrize("setting", ["seq_len=0", "pred_len=0"])
    def test_length_below_one_exit_2(self, tmp_path, capsys, command, setting):
        ckpt = tmp_path / "m.ntf"
        ForecastModel(model_config(parse_config(None, DESK))).save(ckpt)
        extra = ["--checkpoint", str(ckpt)] if command == "forecast" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the error
            rc = main([command, *desk_args(setting), *extra, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert setting.split("=")[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["render", "pss", "train", "eval", "forecast"])
    def test_single_patch_column_exit_2_before_reading_data(self, tmp_path, capsys, command):
        ckpt = tmp_path / "m.ntf"
        ckpt.write_bytes(b"")  # the config fails before the checkpoint is read
        extra = ["--checkpoint", str(ckpt)] if command in ("eval", "forecast") else []
        settings = desk_args("image_size=16", "patch_size=16", f"csv={tmp_path / 'no.csv'}")
        rc = main([command, *settings, *extra, "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "image_size 16 < 2 * patch_size 16" in err and "no.csv" not in err

    def test_odd_width_with_aligner_exit_2_before_reading_data(self, tmp_path, capsys):
        missing = tmp_path / "no.csv"
        rc = main(["train", *desk_args("image_size=25", "patch_size=5", f"csv={missing}"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "image_size 25 is odd" in err and "no.csv" not in err

    @pytest.mark.parametrize("command", ["render", "forecast"])
    def test_negative_start_exit_2(self, tmp_path, capsys, command):
        ckpt = tmp_path / "m.ntf"
        ForecastModel(model_config(parse_config(None, DESK))).save(ckpt)
        extra = ["--checkpoint", str(ckpt)] if command == "forecast" else []
        rc = main([command, *desk_args(), *extra, "--start", "-1", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "window [-1, " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, override", [
        (["pss"], "fixed_beta=abc"), (["synth-image", "--alpha", "2"], "synth_amplitude=,"),
        (["gradcheck"], "fixed_beta=abc")])
    def test_bad_value_exit_2_in_every_subcommand(self, tmp_path, capsys, command, override):
        rc = main([*command, *desk_args(override), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"bad value for {override.split('=')[0]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["train", "--config", "{dir}", "--out", "{dir}/x"],
        ["forecast", *desk_args(), "--checkpoint", "{dir}", "--out", "{dir}/x"],
        ["train", "-o", "csv={dir}", "--out", "{dir}/x"]])
    def test_directory_in_place_of_a_file_exit_2(self, tmp_path, capsys, command):
        rc = main([arg.format(dir=tmp_path) for arg in command])
        assert rc == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_non_finite_step_exit_3(self, tmp_path, monkeypatch, capsys):
        real = ForecastModel.loss_and_grads

        def nan_loss(self, *windows, **kw):
            _, grads, outcome = real(self, *windows, **kw)
            return float("nan"), grads, outcome

        monkeypatch.setattr(ForecastModel, "loss_and_grads", nan_loss)
        rc = main(["train", *desk_args(), "--out", str(tmp_path / "x")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "optimizer step 1: loss nan" in err
        report = json.loads((tmp_path / "x" / "report.json").read_text())
        assert report["failed_step"] == 1
        assert report["error"] in err
        assert report["epochs"] == []
        assert math.isfinite(report["epoch0_val_mse"])
        assert report["config"]["seed"] == 0
        assert not (tmp_path / "x" / "model.ntf").exists()


class TestGradcheckCommand:
    def test_pass_exit_0(self, tmp_path, capsys):
        rc = main(["gradcheck", "--component", "tga", "--out", str(tmp_path / "g")])
        assert rc == 0
        rep = json.loads((tmp_path / "g" / "gradcheck.json").read_text())
        assert rep["passed"]
        tga = rep["groups"]["tga"]
        assert sorted(tga) == ["bound", "kink_redraws", "max_raw_rel_gap", "max_rel_err", "passed",
                               "worst_tensor"]
        assert tga["worst_tensor"] in ("tga.W_proj", "tga.w_fusion")
        line = capsys.readouterr().out.splitlines()[0]
        assert line == (f"  tga: max rel err {tga['max_rel_err']:.3e} (bound 1e-04), raw gap "
                        f"{tga['max_raw_rel_gap']:.3e} ({tga['worst_tensor']}), "
                        f"kink redraws {tga['kink_redraws']} pass")

    def test_out_naming_a_file_exit_2(self, tmp_path):
        (tmp_path / "g").write_text("")
        assert main(["gradcheck", "--component", "beta", "--out", str(tmp_path / "g")]) == 2

    def test_injected_fault_exit_1(self):
        rc = main(["gradcheck", "--component", "lora", "--inject-fault"])
        assert rc == 1
