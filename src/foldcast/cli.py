"""Command-line interface.

Subcommands: render, pss, synth-image, train, eval, forecast, gradcheck.
Every subcommand writes machine-readable outputs (JSON/CSV/PGM) carrying the
resolved config snapshot, plus a one-line human summary on stdout.  Exit codes:
0 success, 1 validation/test failure, 2 I/O or config error, 3 a training
step with a non-finite loss or gradient norm.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import data, forecaster as fc, pgm, spectral
from .config import ConfigError, RunConfig, amplitudes, model_config, parse_config, render_spec, train_config
from .rendering import render


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_dataset(cfg: RunConfig) -> data.Dataset:
    if cfg["csv"]:
        return data.load_csv(cfg["csv"])
    if cfg["synth_kind"]:
        return data.synth_series(
            cfg["synth_kind"],
            cfg["synth_length"],
            cfg["synth_period"],
            amplitude=amplitudes(cfg),
            noise_std=cfg["synth_noise_std"],
            seed=cfg["synth_seed"],
        )
    raise ConfigError("no input: set csv=PATH or synth_kind=...")


def _split_windows(cfg: RunConfig, ds: data.Dataset):
    spec = data.SplitSpec(
        cfg["train_frac"], cfg["val_frac"], cfg["test_frac"],
        lookback=cfg["seq_len"], horizon=cfg["pred_len"],
    )
    tr, va, te = data.chronological_split(ds, spec)
    if cfg["few_shot_ratio"] < 1.0:
        tr = data.few_shot_subset(
            tr, cfg["few_shot_ratio"], min_window=cfg["seq_len"] + cfg["pred_len"]
        )
    nc = cfg["norm_const"]
    return (
        data.windows(tr, cfg["seq_len"], cfg["pred_len"], cfg["stride"], nc),
        data.windows(va, cfg["seq_len"], cfg["pred_len"], cfg["eval_stride"], nc),
        data.windows(te, cfg["seq_len"], cfg["pred_len"], cfg["eval_stride"], nc),
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_render(cfg: RunConfig, args) -> int:
    ds = _load_dataset(cfg)
    T, H = cfg["seq_len"], cfg["pred_len"]
    start = args.start
    if start + T > ds.n_steps:
        raise ConfigError(f"window [{start}, {start + T}) exceeds series length {ds.n_steps}")
    spec = render_spec(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ctx = ds.values[start : start + T]
    mean = ctx.mean(axis=0)
    std = np.maximum(ctx.std(axis=0), data.SIGMA_FLOOR)
    files = []
    meta = None
    for v in range(ds.n_variables):
        xn = (ctx[:, v] - mean[v]) / std[v] * cfg["norm_const"]
        ri = render(xn, H, spec)
        path = out / f"{ds.name}_var{v}.pgm"
        pgm.write_pgm16(path, ri.pixels)
        files.append(path.name)
        meta = {
            "visible_width": ri.visible_width,
            "masked_width": ri.masked_width,
            "pad_len": ri.pad_len,
            "periods_context": ri.periods_context,
        }
    _write_json(out / "render.json", {
        "config": cfg.snapshot(), "dataset": ds.name, "start": start,
        "layout": meta, "files": files,
    })
    print(f"rendered {len(files)} variable(s) from {ds.name}[{start}:{start + T}] into {out}")
    return 0


def _pss_images(args, cfg: RunConfig):
    samples = []
    if args.images:
        paths = sorted(Path(args.images).glob("*.pgm"))
        if not paths:
            raise ConfigError(f"no .pgm files under {args.images}")
        size = cfg["image_size"]
        for p in paths:
            img = spectral.load_grayscale_image(p, size, size)
            samples.append((p.stem, spectral.pss_of_image(img, cfg["f_lo"], cfg["f_hi"])))
    elif args.text:
        text = Path(args.text).read_text(encoding="utf-8", errors="replace")
        size = cfg["image_size"]
        chunk = size * size
        n = max(min(cfg["pss_samples"], len(text) // chunk), 1)
        for i in range(n):
            img = spectral.ascii_text_to_image(text[i * chunk : (i + 1) * chunk] or text, size, size)
            samples.append((f"chunk{i:04d}", spectral.pss_of_image(img, cfg["f_lo"], cfg["f_hi"])))
    else:
        ds = _load_dataset(cfg)
        spec = render_spec(cfg)
        stats = spectral.pss_of_series(
            ds, spec, cfg["pss_samples"], cfg["seq_len"], seed=cfg["seed"],
            horizon=cfg["pred_len"], f_lo=cfg["f_lo"], f_hi=cfg["f_hi"],
            workers=cfg["workers"],
        )
        return [(f"window{i:04d}", a) for i, a in enumerate(stats.alphas)], None
    return samples, True


def cmd_pss(cfg: RunConfig, args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    samples, has_fits = _pss_images(args, cfg)
    lines = ["sample_id,alpha,r_squared"]
    alphas = []
    for sid, fit in samples:
        if has_fits:
            lines.append(f"{sid},{fit.alpha!r},{fit.r_squared!r}")
            alphas.append(fit.alpha)
        else:
            lines.append(f"{sid},{fit!r},")
            alphas.append(fit)
    (out / "pss_samples.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    stats = spectral.summarize_alphas(np.array(alphas))
    _write_json(out / "pss_summary.json", {
        "config": cfg.snapshot(),
        "mean_alpha": stats.mean, "std_alpha": stats.std, "n": stats.n,
        "f_lo": cfg["f_lo"], "f_hi": cfg["f_hi"],
    })
    print(f"PSS over {stats.n} samples: alpha = {stats.mean:.4f} +- {stats.std:.4f}")
    return 0


def cmd_synth_image(cfg: RunConfig, args) -> int:
    img = spectral.synth_power_law_image(args.alpha, cfg["image_size"], cfg["image_size"], seed=cfg["seed"])
    pgm.write_pgm16(args.out, img)
    fit = spectral.pss_of_image(img, cfg["f_lo"], cfg["f_hi"])
    _write_json(Path(args.out).with_suffix(".json"), {
        "config": cfg.snapshot(), "target_alpha": args.alpha,
        "measured_alpha": fit.alpha, "r_squared": fit.r_squared,
    })
    print(f"wrote {args.out}: target alpha {args.alpha}, measured {fit.alpha:.4f}")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    ds = _load_dataset(cfg)
    trw, vaw, tew = _split_windows(cfg, ds)
    model = fc.ForecastModel(model_config(cfg), seed=cfg["seed"])
    report = fc.train(model, trw, vaw, train_config(cfg))
    test = fc.evaluate(tew, fc.model_predict_fn(model), workers=cfg["workers"])
    report["test"] = test
    report["config"] = cfg.snapshot()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "model.ntf")
    _write_json(out / "report.json", report)
    print(
        f"trained on {len(trw)} windows, best epoch {report['best_epoch']}; "
        f"test mse {test['mse']:.6f} mae {test['mae']:.6f}"
    )
    return 0


def _load_model(cfg: RunConfig, checkpoint) -> fc.ForecastModel:
    path = Path(checkpoint)
    if not path.exists():
        raise ConfigError(f"checkpoint not found: {path}")
    model = fc.ForecastModel(model_config(cfg), seed=cfg["seed"])
    model.load(path)
    return model


def cmd_eval(cfg: RunConfig, args) -> int:
    ds = _load_dataset(cfg)
    _, _, tew = _split_windows(cfg, ds)
    model = _load_model(cfg, args.checkpoint)
    test = fc.evaluate(tew, fc.model_predict_fn(model), workers=cfg["workers"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "eval.json", {"config": cfg.snapshot(), "test": test})
    print(f"test mse {test['mse']:.6f} mae {test['mae']:.6f} over {test['n_windows']} windows")
    return 0


def cmd_forecast(cfg: RunConfig, args) -> int:
    ds = _load_dataset(cfg)
    model = _load_model(cfg, args.checkpoint)
    T, H = cfg["seq_len"], cfg["pred_len"]
    start = args.start
    if start + T + H > ds.n_steps:
        raise ConfigError(f"window [{start}, {start + T + H}) exceeds series length {ds.n_steps}")
    seg = data.Segment(ds.values[start : start + T + H], start, start + T + H)
    w = data.windows(seg, T, H, norm_const=cfg["norm_const"])[0]
    outcome = model.forward(w, train=False)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["step," + ",".join(f"var{v}" for v in range(ds.n_variables))]
    for h in range(H):
        lines.append(f"{h}," + ",".join(repr(x) for x in outcome.prediction[h]))
    (out / "forecast.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(out / "forecast.json", {
        "config": cfg.snapshot(), "start": start,
        "mse": outcome.mse, "mae": outcome.mae, "beta": model.beta,
        "y_structural": outcome.y_structural.tolist(),
        "y_spectral": outcome.y_spectral.tolist(),
        "mse_structural": fc.mse(data.denormalize(outcome.y_structural, w), w.target),
        "mse_spectral": fc.mse(data.denormalize(outcome.y_spectral, w), w.target),
    })
    print(f"forecast {H} steps from t={start + T}: mse {outcome.mse:.6f} mae {outcome.mae:.6f}")
    return 0


def cmd_gradcheck(cfg: RunConfig, args) -> int:
    report = fc.gradcheck(args.component, seed=cfg["seed"], inject_fault=args.inject_fault)
    report["config"] = cfg.snapshot()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "gradcheck.json", report)
    for name, r in report["groups"].items():
        status = "pass" if r["passed"] else "FAIL"
        print(f"  {name}: max rel err {r['max_rel_err']:.3e} (bound {r['bound']:.0e}) {status}")
    if not report["passed"]:
        print("gradcheck FAILED")
        return 1
    print("gradcheck passed")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="foldcast")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("-o", "--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config entry")

    p = sub.add_parser("render", help="render one window per variable to 16-bit PGM")
    common(p)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("pss", help="power-spectrum-slope analysis")
    common(p)
    p.add_argument("--images", default=None, help="directory of PGM images")
    p.add_argument("--text", default=None, help="text file mapped through ASCII codes")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pss)

    p = sub.add_parser("synth-image", help="write a synthetic 1/f^alpha PGM")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth_image)

    p = sub.add_parser("train", help="train the dual-branch forecaster")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("forecast", help="forecast one window with a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_forecast)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    common(p)
    p.add_argument("--component", default="all",
                   choices=["all", "sma", "tga", "lora", "beta", "backbone"])
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one analytic gradient to prove the check can fail")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gradcheck)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.overrides)
        return args.fn(cfg, args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FloatingPointError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
