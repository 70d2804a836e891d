"""Command-line interface.

Subcommands: render, pss, synth-image, train, eval, forecast, gradcheck.
Every subcommand writes machine-readable outputs (JSON/CSV/PGM) carrying the
resolved config, plus a one-line human summary on stdout.  Exit codes:
0 success, 1 validation/test failure, 2 I/O or config error, 3 a training
step with a non-finite loss or gradient norm (`train` still writes its
report so far to report.json, with the failing step and the error).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import data, forecaster as fc, pgm, spectral
from .config import REGISTRY, ConfigError, model_config, parse_config, render_spec, train_config
from .rendering import render


def _write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_dataset(cfg: dict) -> data.Dataset:
    if cfg["csv"]:
        return data.load_csv(cfg["csv"])
    if cfg["synth_kind"]:
        return data.synth_series(
            cfg["synth_kind"],
            cfg["synth_length"],
            cfg["synth_period"],
            amplitude=cfg["synth_amplitude"],
            noise_std=cfg["synth_noise_std"],
            seed=cfg["synth_seed"],
        )
    raise ConfigError("no input: set csv=PATH or synth_kind=...")


def _split_windows(cfg: dict, ds: data.Dataset):
    spec = data.SplitSpec(
        cfg["train_frac"], cfg["val_frac"], cfg["test_frac"],
        lookback=cfg["seq_len"], horizon=cfg["pred_len"],
    )
    tr, va, te = data.chronological_split(ds, spec)
    tr = data.few_shot_subset(tr, cfg["few_shot_ratio"], min_window=cfg["seq_len"] + cfg["pred_len"])
    nc = cfg["norm_const"]
    return (
        data.windows(tr, cfg["seq_len"], cfg["pred_len"], cfg["stride"], nc),
        data.windows(va, cfg["seq_len"], cfg["pred_len"], cfg["eval_stride"], nc),
        data.windows(te, cfg["seq_len"], cfg["pred_len"], cfg["eval_stride"], nc),
    )


# ---------------------------------------------------------------------------
# subcommands


def _window(cfg: dict, ds: data.Dataset, start: int, h: int) -> data.TimeSeriesWindow:
    """The window of `seq_len` context and `h` target steps from `start`."""
    end = start + cfg["seq_len"] + h
    if start < 0 or end > ds.n_steps:
        raise ConfigError(f"window [{start}, {end}) lies outside the series [0, {ds.n_steps})")
    seg = data.Segment(ds.values[start:end], start, end)
    return data.windows(seg, cfg["seq_len"], h, norm_const=cfg["norm_const"])[0]


def cmd_render(cfg: dict, args) -> int:
    spec = render_spec(cfg)
    ds = _load_dataset(cfg)
    w = _window(cfg, ds, args.start, cfg["pred_len"])
    ri = render(data.normalize(w).T, cfg["pred_len"], spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for v, pixels in enumerate(ri.pixels):
        path = out / f"{ds.name}_var{v}.pgm"
        pgm.write_pgm16(path, pixels)
        files.append(path.name)
    layout = {
        k: getattr(ri, k) for k in ("visible_width", "masked_width", "pad_len", "periods_context")
    }
    _write_json(out / "render.json", {
        "config": cfg, "dataset": ds.name, "start": args.start,
        "layout": layout, "files": files,
    })
    end = args.start + cfg["seq_len"]
    print(f"rendered {len(files)} variable(s) from {ds.name}[{args.start}:{end}] into {out}")
    return 0


def _check_fit_band(cfg: dict) -> None:
    """Fail, naming f_lo and f_hi, when they leave the power-law fit fewer
    than 2 radial bins of an `image_size` square image."""
    size = cfg["image_size"]
    freqs = spectral.radial_average(np.zeros((size, size))).freqs
    n = int(np.count_nonzero((freqs > cfg["f_lo"]) & (freqs < cfg["f_hi"])))
    if n < 2:
        raise ConfigError(
            f"f_lo {cfg['f_lo']} and f_hi {cfg['f_hi']} leave {n} radial bin(s) of a "
            f"{size}x{size} image; the power-law fit needs at least 2"
        )


def _pss_images(args, cfg: dict):
    """(sample id, alpha, r_squared) of every sample; the series mode's
    r_squared is None."""
    _check_fit_band(cfg)
    size = cfg["image_size"]
    if args.images:
        paths = sorted(Path(args.images).glob("*.pgm"))
        if not paths:
            raise ConfigError(f"no .pgm files under {args.images}")
        images = ((p.stem, p, spectral.load_grayscale_image(p, size, size)) for p in paths)
    elif args.text:
        text = Path(args.text).read_text(encoding="utf-8", errors="replace")
        chunk = size * size
        n = max(min(cfg["pss_samples"], len(text) // chunk), 1)
        images = (
            (f"chunk{i:04d}", f"{args.text} chunk{i:04d}",
             spectral.ascii_text_to_image(text[i * chunk : (i + 1) * chunk] or text, size, size))
            for i in range(n)
        )
    else:
        spec = render_spec(cfg)
        stats = spectral.pss_of_series(
            _load_dataset(cfg), spec, cfg["pss_samples"], cfg["seq_len"],
            seed=cfg["seed"], horizon=cfg["pred_len"], f_lo=cfg["f_lo"], f_hi=cfg["f_hi"],
            workers=cfg["workers"],
        )
        return [(f"window{i:04d}", float(a), None) for i, a in enumerate(stats.alphas)]
    rows = []
    for sid, source, img in images:
        try:
            fit = spectral.pss_of_image(img, cfg["f_lo"], cfg["f_hi"])
        except ValueError as e:
            raise ValueError(f"{source}: {e}") from None
        rows.append((sid, fit.alpha, fit.r_squared))
    return rows


def cmd_pss(cfg: dict, args) -> int:
    rows = _pss_images(args, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["sample_id,alpha,r_squared"]
    lines += [f"{sid},{a!r}," + ("" if r2 is None else repr(r2)) for sid, a, r2 in rows]
    (out / "pss_samples.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    stats = spectral.summarize_alphas(np.array([a for _, a, _ in rows]))
    _write_json(out / "pss_summary.json", {
        "config": cfg,
        "mean_alpha": stats.mean, "std_alpha": stats.std, "n": stats.n,
        "f_lo": cfg["f_lo"], "f_hi": cfg["f_hi"],
    })
    print(f"PSS over {stats.n} samples: alpha = {stats.mean:.4f} +- {stats.std:.4f}")
    return 0


def cmd_synth_image(cfg: dict, args) -> int:
    size = cfg["image_size"]
    if size < 8:
        raise ConfigError(f"image_size must be at least 8 for synth-image, got {size}")
    if not np.isfinite(args.alpha):
        raise ConfigError(f"--alpha must be finite, got {args.alpha}")
    _check_fit_band(cfg)
    try:  # a large finite alpha can overflow the spectrum; nothing is written then
        with np.errstate(over="raise", invalid="raise"):
            img = spectral.synth_power_law_image(args.alpha, size, size, seed=cfg["seed"])
            fit = spectral.pss_of_image(img, cfg["f_lo"], cfg["f_hi"])
    except (FloatingPointError, ValueError) as e:
        raise ConfigError(f"--alpha {args.alpha}: {e}") from None
    pgm.write_pgm16(args.out, img)
    _write_json(Path(args.out).with_suffix(".json"), {
        "config": cfg, "target_alpha": args.alpha,
        "measured_alpha": fit.alpha, "r_squared": fit.r_squared,
    })
    print(f"wrote {args.out}: target alpha {args.alpha}, measured {fit.alpha:.4f}")
    return 0


def cmd_train(cfg: dict, args) -> int:
    mcfg, tcfg = model_config(cfg), train_config(cfg)
    ds = _load_dataset(cfg)
    trw, vaw, tew = _split_windows(cfg, ds)
    model = fc.ForecastModel(mcfg, seed=cfg["seed"])
    out = Path(args.out)
    try:
        report = fc.train(model, trw, vaw, tcfg)
    except FloatingPointError as e:  # the partial report, then exit 3
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "report.json", {**e.report, "error": str(e), "config": cfg})
        raise
    test = fc.evaluate(tew, fc.model_predict_fn(model), workers=cfg["workers"])
    report["test"] = test
    report["config"] = cfg
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "model.ntf")
    _write_json(out / "report.json", report)
    print(
        f"trained on {len(trw)} windows, best epoch {report['best_epoch']}; "
        f"test mse {test['mse']:.6f} mae {test['mae']:.6f}"
    )
    return 0


def _load_model(cfg: dict, checkpoint) -> fc.ForecastModel:
    path = Path(checkpoint)
    if not path.exists():
        raise ConfigError(f"checkpoint not found: {path}")
    model = fc.ForecastModel(model_config(cfg), seed=cfg["seed"])
    model.load(path)
    return model


def cmd_eval(cfg: dict, args) -> int:
    model = _load_model(cfg, args.checkpoint)
    ds = _load_dataset(cfg)
    _, _, tew = _split_windows(cfg, ds)
    test = fc.evaluate(tew, fc.model_predict_fn(model), workers=cfg["workers"])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "eval.json", {"config": cfg, "test": test})
    print(f"test mse {test['mse']:.6f} mae {test['mae']:.6f} over {test['n_windows']} windows")
    return 0


def cmd_forecast(cfg: dict, args) -> int:
    model = _load_model(cfg, args.checkpoint)
    ds = _load_dataset(cfg)
    T, H = cfg["seq_len"], cfg["pred_len"]
    w = _window(cfg, ds, args.start, H)
    outcome = model.forward(w, train=False)
    st, sp = model.beta * outcome.y_structural, (1.0 - model.beta) * outcome.y_spectral
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["step," + ",".join(f"var{v}" for v in range(ds.n_variables))]
    for h in range(H):
        lines.append(f"{h}," + ",".join(repr(x) for x in outcome.prediction[h]))
    (out / "forecast.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(out / "forecast.json", {
        "config": cfg, "start": args.start,
        "mse": outcome.mse, "mae": outcome.mae, "beta": model.beta,
        "y_structural": outcome.y_structural.tolist(),
        "y_spectral": outcome.y_spectral.tolist(),
        "structural_term": st.tolist(), "spectral_term": sp.tolist(),  # sum: normalized forecast
        "structural_term_norm": float(np.linalg.norm(st)),
        "spectral_term_norm": float(np.linalg.norm(sp)),
    })
    print(f"forecast {H} steps from t={args.start + T}: mse {outcome.mse:.6f} mae {outcome.mae:.6f}")
    return 0


def cmd_gradcheck(cfg: dict, args) -> int:
    report = fc.gradcheck(args.component, seed=cfg["seed"], inject_fault=args.inject_fault)
    report["config"] = cfg
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


def _settings_help() -> str:
    """Every config key, its default as a config file writes it, and its help."""
    def text(value):
        if isinstance(value, tuple):
            return ",".join(map(str, value))
        if isinstance(value, bool):
            return str(value).lower()
        return "" if value is None else str(value)

    rows = [(f"{key} = {text(k.default)}", k.help) for key, k in REGISTRY.items()]
    width = max(len(left) for left, _ in rows)
    return "settings (--config FILE or -o KEY=VALUE) and their defaults:\n" + "\n".join(
        f"  {left:<{width}}  {help}" for left, help in rows)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="foldcast")
    sub = ap.add_subparsers(dest="command", required=True)
    epilog = _settings_help()

    def command(name, fn, help):
        p = sub.add_parser(name, help=help, epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("-o", "--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config entry")
        p.set_defaults(fn=fn)
        return p

    p = command("render", cmd_render, "render one window per variable to 16-bit PGM")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--out", required=True)

    p = command("pss", cmd_pss, "power-spectrum-slope analysis")
    p.add_argument("--images", default=None, help="directory of PGM images")
    p.add_argument("--text", default=None, help="text file mapped through ASCII codes")
    p.add_argument("--out", required=True)

    p = command("synth-image", cmd_synth_image, "write a synthetic 1/f^alpha PGM")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True)

    p = command("train", cmd_train, "train the dual-branch forecaster")
    p.add_argument("--out", required=True)

    p = command("eval", cmd_eval, "evaluate a checkpoint on the test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)

    p = command("forecast", cmd_forecast, "forecast one window with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--out", required=True)

    p = command("gradcheck", cmd_gradcheck, "gradient verification: one directional central "
                "difference per trainable tensor of a small whole model")
    p.add_argument("--component", default="all",
                   choices=["all", "sma", "tga", "lora", "beta", "backbone"])
    p.add_argument("--inject-fault", action="store_true",
                   help="scale the checked analytic gradients by 1.1 to prove the check can fail")
    p.add_argument("--out", default=None)
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
