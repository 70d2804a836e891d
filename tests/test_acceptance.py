"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 2 uses the real ETTh1 CSV when available (FOLDCAST_ETTH1 env var or
./data/ETTh1.csv); otherwise it runs the same assertions against a frozen
synthetic hourly surrogate.
"""

import filecmp
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from foldcast import adapter, backbone as bb, data, forecaster as fc, sma, spectral
from foldcast.backbone import BackboneConfig
from foldcast.cli import main as cli_main
from foldcast.data import normalize_target
from foldcast.rendering import RenderSpec, fold_to_grid, render, resize_bilinear, unfold_from_grid
from foldcast.sma import SmaConfig
from tests.test_forecaster import drop_lora_paths
from tests.test_rendering import bilinear_oracle
from tests.test_sma import output_phase_error
from tests.test_spectral import dft2_oracle


def report(ok: bool, label: str, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_pss_oracle_recovery():
    t0 = time.monotonic()
    errs = {}
    for alpha in (1.0, 2.0, 3.0):
        fits = [
            spectral.pss_of_image(spectral.synth_power_law_image(alpha, 224, 224, seed=s))
            for s in range(20)
        ]
        errs[alpha] = abs(np.mean([f.alpha for f in fits]) - alpha)
    elapsed = time.monotonic() - t0
    ok = all(e <= 0.05 for e in errs.values()) and elapsed < 30.0
    report(ok, "criterion 1 (PSS oracle recovery)",
           f"|mean-target| = {max(errs.values()):.2e} over alpha in (1,2,3), {elapsed:.1f}s")


def _pss_dataset():
    env = os.environ.get("FOLDCAST_ETTH1", "")
    for cand in ([env] if env else []) + ["data/ETTh1.csv"]:
        if cand and Path(cand).exists():
            return data.load_csv(cand), "ETTh1"
    ds = data.synth_series(
        "sinusoid_mix", 20000, 24, amplitude=1.0, noise_std=2.0, seed=3,
        name="hourly-surrogate",
    )
    return ds, "synthetic hourly surrogate (ETTh1.csv not present)"


def test_criterion_2_paper_anchored_pss():
    t0 = time.monotonic()
    ds, source = _pss_dataset()
    means = []
    for P in (24, 32, 48):
        spec = RenderSpec(periodicity=P, image_height=224, image_width=224, align_const=0.4)
        stats = spectral.pss_of_series(ds, spec, n_samples=100, T=1440, seed=11)
        means.append(stats.mean)
    elapsed = time.monotonic() - t0
    in_band = 0.9 <= means[0] <= 1.9
    monotone = means[0] <= means[1] <= means[2]
    ok = in_band and monotone and elapsed < 120.0
    report(ok, "criterion 2 (paper-anchored PSS)",
           f"{source}: alpha(P=24)={means[0]:.3f} in [0.9,1.9]; "
           f"sweep {means[0]:.2f} -> {means[1]:.2f} -> {means[2]:.2f} non-decreasing; {elapsed:.1f}s")


def test_criterion_3_fft_identities():
    rng = np.random.default_rng(0)
    worst_rt = worst_par = worst_oracle = 0.0
    for H, W in [(8, 8), (6, 10), (7, 4), (16, 16)]:
        x = rng.normal(size=(H, W))
        worst_rt = max(worst_rt, float(np.abs(sma.irfft2(sma.rfft2(x)) - x).max()))
        par = abs(np.sum(x**2) - np.sum(spectral.power_centered(x)) / (H * W)) / np.sum(x**2)
        worst_par = max(worst_par, float(par))
    for H, W in [(4, 4), (8, 8), (3, 8)]:
        x = rng.normal(size=(H, W))
        full = dft2_oracle(x)
        power = np.abs(np.fft.fftshift(full)) ** 2
        worst_oracle = max(worst_oracle, float(np.abs(spectral.power_centered(x) - power).max()))
        worst_oracle = max(
            worst_oracle, float(np.abs(sma.rfft2(x) - full[:, : W // 2 + 1]).max())
        )
    ok = worst_rt < 1e-10 and worst_par < 1e-9 and worst_oracle < 1e-10
    report(ok, "criterion 3 (FFT identities)",
           f"round-trip {worst_rt:.1e}, Parseval {worst_par:.1e}, brute-force DFT {worst_oracle:.1e}")


def test_criterion_4_rendering_round_trip():
    rng = np.random.default_rng(1)
    # fold/unfold inverses, 1000 random cases
    fold_exact = True
    for _ in range(1000):
        P = int(rng.integers(1, 16))
        F = int(rng.integers(1, 16))
        x = rng.normal(size=P * F)
        fold_exact &= bool(np.array_equal(unfold_from_grid(fold_to_grid(x, P)), x))
    # render -> reconstruct exact when dims are interpolation-free
    worst_rt = 0.0
    for seed in range(100):
        r = np.random.default_rng(seed)
        P, f_ctx, f_hor = int(r.integers(2, 9)), int(r.integers(1, 7)), int(r.integers(1, 5))
        spec = RenderSpec(periodicity=P, image_height=P, image_width=f_ctx + f_hor,
                          align_const=1.0, patch_size=1)
        x = r.normal(size=P * f_ctx)
        truth = r.normal(size=P * f_hor)
        ri = render(x, P * f_hor, spec)
        decoded = np.concatenate([ri.pixels[:, :f_ctx], fold_to_grid(truth, P)], axis=1)
        from foldcast.rendering import reconstruct
        worst_rt = max(worst_rt, float(np.abs(reconstruct(decoded, ri) - truth).max()))
    # bilinear vs nested-loop oracle on <=16x16 grids
    worst_bl = 0.0
    for _ in range(25):
        h, w = rng.integers(1, 17, size=2)
        oh, ow = rng.integers(1, 17, size=2)
        g = rng.normal(size=(int(h), int(w)))
        worst_bl = max(worst_bl, float(np.abs(
            resize_bilinear(g, int(oh), int(ow)) - bilinear_oracle(g, int(oh), int(ow))
        ).max()))
    ok = fold_exact and worst_rt < 1e-12 and worst_bl < 1e-12
    report(ok, "criterion 4 (rendering round-trip)",
           f"fold/unfold exact x1000, reconstruct {worst_rt:.1e}, bilinear-vs-oracle {worst_bl:.1e}")


def test_criterion_5_sma_contracts():
    rng = np.random.default_rng(2)
    img = rng.normal(size=(8, 8))
    p = sma.init_enhancer(np.random.default_rng(3), channels=16)
    out0, _ = sma.sma_forward(img, p, SmaConfig(lam=0.0))
    identity = np.array_equal(out0, img)
    out1, _ = sma.sma_forward(img, p, SmaConfig(lam=1.0))
    phase_ok = output_phase_error(img, out1) < 1e-6
    err = fc.gradcheck("sma", seed=5)["groups"]["sma"]["max_rel_err"]
    ok = identity and phase_ok and err < 1e-4
    report(ok, "criterion 5 (SMA contracts)",
           f"lam=0 bit-exact {identity}, phase invariant ok {phase_ok}, FD rel err {err:.2e} < 1e-4")


def test_criterion_6_adapter_contracts():
    # LoRA B=0: end-to-end bitwise equality with the adapter-free model
    rspec = RenderSpec(periodicity=8, image_height=32, image_width=32, align_const=1.0, patch_size=8)
    bcfg = BackboneConfig(image_height=32, image_width=32, patch_size=8, d_model=16,
                          n_heads=2, e_layers=2, d_layers=1, d_ff=32, dropout=0.0, frozen=True)
    model = fc.ForecastModel(fc.ModelConfig(render=rspec, backbone=bcfg, sma=SmaConfig(0.05),
                                            lora_rank=2, lora_alpha=8.0, lora_dropout=0.0), seed=4)
    total = 80
    x = np.sin(2 * np.pi * np.arange(total) / 8.0) + 0.1 * np.random.default_rng(5).normal(size=total)
    w = data.windows(data.Segment(x[:, None], 0, total), 48, 16, norm_const=0.4)[0]
    with_adapters = model.forward(w).prediction
    with pytest.MonkeyPatch.context() as patch:  # the gradient checks below run with LoRA
        drop_lora_paths(patch)
        bitwise = np.array_equal(with_adapters, model.forward(w).prediction)
    # sinusoid spot values
    table = adapter.sinusoid_table(2, 4)
    spots = abs(table[1, 0] - np.sin(1.0)) < 1e-12 and abs(table[1, 1] - np.cos(1.0)) < 1e-12
    # FD gradients
    tga_err = fc.gradcheck("tga", seed=6)["groups"]["tga"]["max_rel_err"]
    lora_err = fc.gradcheck("lora", seed=7)["groups"]["lora"]["max_rel_err"]
    # numeric rank bound
    rng = np.random.default_rng(8)
    A = adapter.init_lora(rng, 12, 3, 1)["lora.enc0.q.A"]
    B = rng.normal(size=(12, 3))
    W = rng.normal(size=(12, 12))
    sv = np.linalg.svd(adapter.lora_apply(W, A, B, 16.0 / 3) - W, compute_uv=False)
    rank_ok = int((sv > 1e-10).sum()) <= 3
    ok = bitwise and spots and tga_err < 1e-4 and lora_err < 1e-4 and rank_ok
    report(ok, "criterion 6 (adapter contracts)",
           f"B=0 bitwise {bitwise}, sin/cos spots {spots}, "
           f"TGA FD {tga_err:.2e}, LoRA FD {lora_err:.2e}, rank bound {rank_ok}")


def test_criterion_7_fusion_contracts():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    endpoints = np.array_equal(fc.fuse(a, b, 1.0), a) and np.array_equal(fc.fuse(a, b, 0.0), b)
    # beta gradient vs chain-rule closed form through the real model
    rspec = RenderSpec(periodicity=8, image_height=32, image_width=32, align_const=1.0, patch_size=8)
    bcfg = BackboneConfig(image_height=32, image_width=32, patch_size=8, d_model=16,
                          n_heads=2, e_layers=1, d_layers=1, d_ff=32, dropout=0.0, frozen=False)
    model = fc.ForecastModel(fc.ModelConfig(render=rspec, backbone=bcfg, sma=SmaConfig(0.05),
                                            lora_rank=2, lora_alpha=8.0, lora_dropout=0.0), seed=10)
    total = 80
    x = np.sin(2 * np.pi * np.arange(total) / 8.0) + 0.1 * np.random.default_rng(11).normal(size=total)
    ws = data.windows(data.Segment(x[:, None], 0, total), 48, 16, stride=8, norm_const=0.4)
    _, grads, (y_st, y_sp) = model.loss_and_grads(ws[0], train=False)
    target = normalize_target(ws[0])
    yhat = fc.fuse(y_st[0], y_sp[0], model.beta)
    closed = np.mean(2.0 * (yhat - target) * (y_st[0] - y_sp[0]))
    grad_ok = abs(grads["fuse.beta"][0] - closed) < 1e-10
    # beta stays in [0, 1] across a full training run
    report_t = fc.train(model, ws[:2], ws[2:3], fc.TrainConfig(lr=0.05, batch_size=2, epochs=4, patience=5, seed=2))
    betas = [e["beta"] for e in report_t["epochs"]]
    clamped = all(0.0 <= bta <= 1.0 for bta in betas)
    ok = endpoints and grad_ok and clamped
    report(ok, "criterion 7 (fusion contracts)",
           f"endpoints exact {endpoints}, beta grad |diff|<1e-10 {grad_ok}, "
           f"beta in [0,1] over {len(betas)} epochs {clamped}")


def test_criterion_8_desk_training():
    t0 = time.monotonic()
    ds = data.synth_series("sinusoid_mix", 5000, 24, amplitude=(1.0, 0.6, 0.4), noise_std=0.1, seed=7)
    spec = data.SplitSpec(0.6, 0.2, 0.2, lookback=288, horizon=96)
    tr, va, te = data.chronological_split(ds, spec)
    # stride 7 is coprime to every component period: training windows cover
    # all phases, which the phase-shifted test segment requires
    trw = data.windows(tr, 288, 96, stride=7, norm_const=0.4)
    vaw = data.windows(va, 288, 96, stride=96, norm_const=0.4)
    tew = data.windows(te, 288, 96, stride=48, norm_const=0.4)
    naive = fc.evaluate(tew, lambda w: fc.seasonal_naive(w, 24))["mse"]
    rspec = RenderSpec(periodicity=24, image_height=64, image_width=64, align_const=1.0, patch_size=16)
    bcfg = BackboneConfig(image_height=64, image_width=64, patch_size=16, d_model=64,
                          n_heads=4, e_layers=2, d_layers=1, d_ff=256, dropout=0.0, frozen=False)
    model = fc.ForecastModel(fc.ModelConfig(render=rspec, backbone=bcfg, sma=SmaConfig(0.05),
                                            lora_rank=4, lora_alpha=16.0, lora_dropout=0.0), seed=0)
    epoch0 = fc.evaluate(tew, fc.model_predict_fn(model))["mse"]
    fc.train(model, trw, vaw, fc.TrainConfig(lr=1e-3, batch_size=8, epochs=6, patience=3, seed=0))
    final = fc.evaluate(tew, fc.model_predict_fn(model))["mse"]
    elapsed = time.monotonic() - t0
    ok = final < naive and final < 0.5 * epoch0 and elapsed < 600.0
    report(ok, "criterion 8 (end-to-end desk training)",
           f"test MSE {final:.4f} < seasonal-naive {naive:.4f} and < 0.5*epoch0 ({0.5 * epoch0:.4f}); {elapsed:.0f}s")


def test_criterion_9_ablation_structure():
    rspec = RenderSpec(periodicity=8, image_height=32, image_width=32, align_const=1.0, patch_size=8)
    bcfg = BackboneConfig(image_height=32, image_width=32, patch_size=8, d_model=16,
                          n_heads=2, e_layers=1, d_layers=1, d_ff=32, dropout=0.0, frozen=False)
    total = 400
    x = np.sin(2 * np.pi * np.arange(total) / 8.0) + 0.1 * np.random.default_rng(12).normal(size=total)
    ws = data.windows(data.Segment(x[:, None], 0, total), 48, 16, stride=16, norm_const=0.4)
    variants = {
        "no_spectral_branch": dict(fixed_beta=1.0, use_tga=True),
        "no_structural_branch": dict(fixed_beta=0.0, use_tga=True),
        "only_lora": dict(fixed_beta=1.0, use_tga=False),
    }
    preds, metrics = {}, {}
    for name, kw in variants.items():
        model = fc.ForecastModel(
            fc.ModelConfig(render=rspec, backbone=bcfg, sma=SmaConfig(0.05),
                           lora_rank=2, lora_alpha=8.0, lora_dropout=0.0, **kw), seed=13)
        fc.train(model, ws[:-2], ws[-2:], fc.TrainConfig(lr=1e-3, batch_size=4, epochs=2, patience=5, seed=4))
        preds[name] = model.forward(ws[0]).prediction
        metrics[name] = fc.evaluate(ws[-2:], fc.model_predict_fn(model))["mse"]
    names = list(variants)
    distinct = all(
        not np.array_equal(preds[a], preds[b])
        for i, a in enumerate(names) for b in names[i + 1:]
    )
    ok = distinct and len(set(metrics.values())) == 3
    report(ok, "criterion 9 (ablation structure)",
           f"variants distinct {distinct}; metrics {', '.join(f'{k}={v:.4f}' for k, v in metrics.items())}")


DESK_CLI = [
    "synth_kind=sinusoid_mix", "synth_length=400", "synth_period=8",
    "synth_amplitude=1.0", "synth_noise_std=0.1", "synth_seed=1",
    "seq_len=48", "pred_len=16", "stride=16", "eval_stride=16",
    "periodicity=8", "image_size=32", "patch_size=8", "align_const=1.0",
    "d_model=16", "n_heads=2", "e_layers=1", "d_layers=1", "d_ff=32",
    "dropout=0.0", "frozen=false", "lora_rank=2", "lora_alpha=8",
    "lora_dropout=0.0", "batch_size=4", "epochs=1", "lr=1e-3",
    "pss_samples=4", "seed=0", "workers=1",
]


def _run_cli(args):
    rc = cli_main(args)
    assert rc == 0, f"cli {args} -> {rc}"


def test_criterion_10_determinism(tmp_path):
    over = []
    for kv in DESK_CLI:
        over += ["-o", kv]
    runs = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        _run_cli(["render", *over, "--out", str(root / "render")])
        _run_cli(["pss", *over, "--out", str(root / "pss")])
        _run_cli(["synth-image", *over, "--alpha", "2.0", "--out", str(root / "synth.pgm")])
        _run_cli(["train", *over, "--out", str(root / "train")])
        _run_cli(["eval", *over, "--checkpoint", str(root / "train" / "model.ntf"),
                  "--out", str(root / "eval")])
        _run_cli(["forecast", *over, "--checkpoint", str(root / "train" / "model.ntf"),
                  "--start", "3", "--out", str(root / "fc")])
        _run_cli(["gradcheck", *over, "--component", "tga", "--out", str(root / "grad")])
        runs.append(root)
    mismatched = []
    files_a = sorted(p for p in runs[0].rglob("*") if p.is_file())
    for fa in files_a:
        fb = runs[1] / fa.relative_to(runs[0])
        if not fb.exists() or fa.read_bytes() != fb.read_bytes():
            mismatched.append(str(fa.relative_to(runs[0])))
    ok = not mismatched and len(files_a) >= 10
    report(ok, "criterion 10 (determinism)",
           f"{len(files_a)} output files bitwise-identical across two runs"
           + (f"; mismatches: {mismatched}" if mismatched else ""))
