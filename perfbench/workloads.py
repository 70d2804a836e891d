"""The three benchmark workloads.

Each workload has a `setup` (timed, repeated), a `round` of operations that
is repeated for the measured seconds, and `finish` checks that run once after
the rounds.  Every model, render and training setting is passed explicitly,
so a workload does not change when a default in the program does.  The
workloads call foldcast through module attributes (``data.load_csv``, not a
name imported from ``foldcast.data``) so the traced run sees every call.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from foldcast import data, forecaster, spectral
from foldcast.backbone import BackboneConfig
from foldcast.rendering import RenderSpec
from foldcast.sma import SmaConfig

import checks


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Recorder:
    """Counts operations and checks; keeps the timings of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.times: dict[str, list[float]] = {}

    def time(self, key: str, fn, count: int = 1):
        """Run one operation (worth `count` operations), timing it under `key`.

        An operation that raises counts as failed and returns None.
        """
        self.attempted += count
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += count
            self.problems.append(f"{key}: {type(exc).__name__}: {exc}")
            return None
        self.times.setdefault(key, []).append(time.perf_counter() - t0)
        return out

    def check(self, result) -> bool:
        ok, detail = result
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = False
            self.problems.append(f"check failed: {detail}")
        return ok


def _median(values):
    return float(np.median(values)) if values else float("nan")


def _desk_model_config(s) -> forecaster.ModelConfig:
    return forecaster.ModelConfig(
        render=RenderSpec(
            periodicity=s["period"], image_height=s["image"], image_width=s["image"],
            align_const=s["align_const"], patch_size=s["patch"],
        ),
        backbone=BackboneConfig(
            image_height=s["image"], image_width=s["image"], patch_size=s["patch"],
            d_model=s["d_model"], n_heads=s["n_heads"], e_layers=s["e_layers"],
            d_layers=s["d_layers"], d_ff=s["d_ff"], dropout=s["dropout"], frozen=s["frozen"],
        ),
        sma=SmaConfig(lam=0.05),
        lora_rank=4,
        lora_alpha=16.0,
        lora_dropout=s["lora_dropout"],
        use_tga=True,
        use_sma=True,
        fixed_beta=None,
        beta_init=0.5,
    )


# ---------------------------------------------------------------------------
# desk-train


DESK = {
    "full": dict(
        length=5000, period=24, T=288, H=96, image=64, patch=16, d_model=64, n_heads=4,
        e_layers=2, d_layers=1, d_ff=256, dropout=0.0, lora_dropout=0.0, frozen=False,
        align_const=1.0, train_stride=7, val_stride=96, test_stride=3, forecasts=200,
    ),
    "tiny": dict(
        length=1200, period=8, T=48, H=16, image=32, patch=8, d_model=16, n_heads=2,
        e_layers=1, d_layers=1, d_ff=32, dropout=0.0, lora_dropout=0.0, frozen=False,
        align_const=1.0, train_stride=16, val_stride=48, test_stride=16, forecasts=40,
    ),
}


class DeskTrain:
    """Criterion-8 data and model: one epoch of `train`, `evaluate` over the
    test windows, then single-window forecasts, from the same start each round."""

    name = "desk-train"
    min_setups = 5

    def __init__(self, seed: int, size: str, workdir):
        self.seed = seed
        self.s = DESK[size]
        self.cfg = _desk_model_config(self.s)
        self.train_cfg = forecaster.TrainConfig(
            lr=1e-3, batch_size=8, epochs=1, patience=3, seed=0,
            beta1=0.9, beta2=0.999, eps=1e-8,
        )
        self.test_mse: list[float] = []

    def setup(self):
        s = self.s
        ds = data.synth_series(
            "sinusoid_mix", s["length"], s["period"], amplitude=(1.0, 0.6, 0.4),
            noise_std=0.1, seed=self.seed, name="desk",
        )
        spec = data.SplitSpec(0.6, 0.2, 0.2, lookback=s["T"], horizon=s["H"])
        tr, va, te = data.chronological_split(ds, spec)
        self.train_w = data.windows(tr, s["T"], s["H"], stride=s["train_stride"], norm_const=0.4)
        self.val_w = data.windows(va, s["T"], s["H"], stride=s["val_stride"], norm_const=0.4)
        self.test_w = data.windows(te, s["T"], s["H"], stride=s["test_stride"], norm_const=0.4)
        self.model = forecaster.ForecastModel(self.cfg, seed=0)
        self.model.forward(self.test_w[0], train=False)  # warm-up
        self.start = self.model.snapshot()

    def before(self, rec: Recorder):
        predict = forecaster.model_predict_fn(self.model)
        self.untrained_mse = forecaster.evaluate(self.test_w, predict, workers=1)["mse"]
        self.naive_mse = forecaster.evaluate(
            self.test_w, lambda w: forecaster.seasonal_naive(w, self.s["period"]), workers=1
        )["mse"]

    def round(self, rec: Recorder, rng):
        m = self.model
        m.restore(self.start)
        steps = math.ceil(len(self.train_w) / self.train_cfg.batch_size)
        report = rec.time(
            "train", lambda: forecaster.train(m, self.train_w, self.val_w, self.train_cfg), steps
        )
        if report is not None:
            losses = [report["epoch0_val_mse"]] + [
                v for e in report["epochs"] for v in (e["train_mse"], e["val_mse"])
            ]
            rec.check(checks.all_finite(losses, "training and validation losses"))
        predict = forecaster.model_predict_fn(m)
        ev = rec.time(
            "eval", lambda: forecaster.evaluate(self.test_w, predict, workers=1), len(self.test_w)
        )
        if ev is not None:
            self.test_mse.append(ev["mse"])
            rec.check(checks.improves(ev["mse"], self.untrained_mse, "test MSE after one epoch"))
        picks = rng.integers(0, len(self.test_w), size=self.s["forecasts"])
        preds = [
            rec.time("forecast", lambda w=self.test_w[i]: m.forward(w, train=False).prediction)
            for i in picks
        ]
        H = self.s["H"]
        rec.check(
            (all(p is not None and checks.forecast_shape(p, H, 1)[0] for p in preds),
             f"{len(preds)} forecasts finite with shape {(H, 1)}")
        )

    def finish(self, rec: Recorder, rng):
        m = self.model
        w = self.train_w[int(rng.integers(0, len(self.train_w)))]
        names = m.trainable_names()

        def loss_and_grads():
            loss, grads, _ = m.loss_and_grads(w, train=False)
            return loss, grads

        rec.check(checks.directional_derivative(loss_and_grads, m.named_params(), names, rng))
        rec.check(
            (len(set(self.test_mse)) == 1, f"test MSE identical in every round: {self.test_mse}")
        )

    def metrics(self, rec: Recorder) -> tuple[dict, dict]:
        n_train = len(self.train_w)
        train_rate = [n_train / t for t in rec.times.get("train", [])]
        eval_rate = [len(self.test_w) / t for t in rec.times.get("eval", [])]
        fc_ms = [1e3 * t for t in rec.times.get("forecast", [])]
        main = {
            "samples_per_s": (_median(train_rate), "1/s"),
            "latency_p50_ms": (_median(fc_ms), "ms"),
        }
        detail = {
            "train_samples_per_s": (_median(train_rate), "1/s"),
            "eval_samples_per_s": (_median(eval_rate), "1/s"),
            "forecast_p50_ms": (_median(fc_ms), "ms"),
            "forecast_p95_ms": (float(np.percentile(fc_ms, 95)) if fc_ms else math.nan, "ms"),
            "forecast_calls": (len(fc_ms), "count"),
            "test_mse": (self.test_mse[0] if self.test_mse else math.nan, "mse"),
            "untrained_test_mse": (self.untrained_mse, "mse"),
            "seasonal_naive_mse": (self.naive_mse, "mse"),
        }
        return main, detail


# ---------------------------------------------------------------------------
# paper-frozen


PAPER = {
    "full": dict(rows=17420, T=1440, H=96, period=24, image=224, patch=16, d_model=512,
                 n_heads=8, e_layers=2, d_layers=1, d_ff=2048),
    "tiny": dict(rows=1200, T=96, H=24, period=8, image=32, patch=8, d_model=16,
                 n_heads=2, e_layers=1, d_layers=1, d_ff=32),
}

ETT_COLUMNS = ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT")


def write_ett_csv(path, rows: int, seed: int) -> None:
    """An ETTh1-layout CSV (hourly date column plus 7 load/temperature
    columns): daily and weekly cycles, a slow drift and AR(1) noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(rows, dtype=np.float64)
    cols = []
    for _ in ETT_COLUMNS:
        level, amp_d, amp_w = rng.uniform(2, 20), rng.uniform(0.5, 4), rng.uniform(0.2, 2)
        ph_d, ph_w = rng.uniform(0, 2 * np.pi, size=2)
        eps = rng.normal(0.0, rng.uniform(0.2, 1.0), size=rows)
        ar = np.empty(rows)
        ar[0] = eps[0]
        for i in range(1, rows):
            ar[i] = 0.8 * ar[i - 1] + eps[i]
        drift = rng.normal(0.0, 0.02, size=rows).cumsum()
        cols.append(level + amp_d * np.sin(2 * np.pi * t / 24 + ph_d)
                    + amp_w * np.sin(2 * np.pi * t / 168 + ph_w) + drift + ar)
    values = np.stack(cols, axis=1)
    start = np.datetime64("2016-07-01T00:00")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date," + ",".join(ETT_COLUMNS) + "\n")
        for i in range(rows):
            stamp = str(start + np.timedelta64(i, "h")).replace("T", " ") + ":00"
            fh.write(stamp + "," + ",".join(f"{v:.6f}" for v in values[i]) + "\n")


class PaperFrozen:
    """Paper-scale frozen model on a 7-variable CSV: one Adam step per round,
    a checkpoint round trip, and forecasts with the reloaded model."""

    name = "paper-frozen"
    min_setups = 2

    def __init__(self, seed: int, size: str, workdir):
        self.seed = seed
        self.s = s = PAPER[size]
        self.csv = os.path.join(workdir, "ett.csv")
        self.ckpt = os.path.join(workdir, "model.ntf")
        write_ett_csv(self.csv, s["rows"], seed)
        self.cfg = forecaster.ModelConfig(
            render=RenderSpec(
                periodicity=s["period"], image_height=s["image"], image_width=s["image"],
                align_const=0.4, patch_size=s["patch"],
            ),
            backbone=BackboneConfig(
                image_height=s["image"], image_width=s["image"], patch_size=s["patch"],
                d_model=s["d_model"], n_heads=s["n_heads"], e_layers=s["e_layers"],
                d_layers=s["d_layers"], d_ff=s["d_ff"], dropout=0.1, frozen=True,
            ),
            sma=SmaConfig(lam=0.05),
            lora_rank=4,
            lora_alpha=16.0,
            lora_dropout=0.1,
            use_tga=True,
            use_sma=True,
            fixed_beta=None,
            beta_init=0.5,
        )
        self.train_cfg = forecaster.TrainConfig(
            lr=2e-6, batch_size=1, epochs=1, patience=3, seed=0,
            beta1=0.9, beta2=0.999, eps=1e-8,
        )
        self.n_steps = 0

    def setup(self):
        s = self.s
        ds = data.load_csv(self.csv, name="ett")
        spec = data.SplitSpec(0.6, 0.2, 0.2, lookback=s["T"], horizon=s["H"])
        tr, _, te = data.chronological_split(ds, spec)
        self.train_w = data.windows(tr, s["T"], s["H"], stride=24, norm_const=0.4)
        self.test_w = data.windows(te, s["T"], s["H"], stride=48, norm_const=0.4)
        self.model = forecaster.ForecastModel(self.cfg, seed=0)
        self.model.forward(self.test_w[0], train=False)  # warm-up

    def before(self, rec: Recorder):
        params = self.model.named_params()
        self.params = params
        self.base = {n: v.copy() for n, v in params.items() if n.startswith("bb.")}
        self.lora_b = {n: v.copy() for n, v in params.items()
                       if n.startswith("lora.") and n.endswith(".B")}
        self.adam = forecaster.AdamState.init(params, self.model.trainable_names())
        self.train_rng = np.random.default_rng(self.seed)

    def _step(self, w):
        m = self.model
        loss, grads, _ = m.loss_and_grads(w, rng=self.train_rng)
        forecaster.adam_step(self.params, grads, self.adam, self.train_cfg)
        np.clip(m.beta_raw, 0.0, 1.0, out=m.beta_raw)
        return loss

    def _window(self, w, scale, shift, perm):
        """The same window with affinely mapped or permuted variables,
        re-windowed by the program so its statistics are its own."""
        vals = np.concatenate([w.context, w.target])[:, perm] * scale + shift
        seg = data.Segment(vals, 0, vals.shape[0])
        return data.windows(seg, self.s["T"], self.s["H"], stride=1, norm_const=0.4)[0]

    def round(self, rec: Recorder, rng):
        m = self.model
        w_train = self.train_w[int(rng.integers(0, len(self.train_w)))]
        loss = rec.time("train", lambda: self._step(w_train))
        self.n_steps += 1
        rec.check(checks.all_finite([math.nan if loss is None else loss], "training loss"))

        fresh = forecaster.ForecastModel(self.cfg, seed=1)

        def round_trip():
            m.save(self.ckpt)
            fresh.load(self.ckpt)

        rec.time("checkpoint", round_trip)

        w = self.test_w[int(rng.integers(0, len(self.test_w)))]
        N = w.context.shape[1]
        H = self.s["H"]
        scale = rng.uniform(0.5, 3.0, size=N)
        shift = rng.uniform(-5.0, 5.0, size=N)
        perm = rng.permutation(N)
        ident = np.arange(N)
        w_aff = self._window(w, scale, shift, ident)
        w_perm = self._window(w, 1.0, 0.0, perm)
        y = rec.time("forecast", lambda: m.forward(w, train=False).prediction)
        y_re = rec.time("forecast", lambda: fresh.forward(w, train=False).prediction)
        y_aff = rec.time("forecast", lambda: fresh.forward(w_aff, train=False).prediction)
        y_perm = rec.time("forecast", lambda: fresh.forward(w_perm, train=False).prediction)
        if y is None or y_re is None or y_aff is None or y_perm is None:
            rec.check((False, "a forecast raised"))
            return
        rec.check(checks.forecast_shape(y, H, N))
        rec.check(checks.bitwise_equal(y_re, y, "reloaded-checkpoint forecast"))
        rec.check(checks.close_rel(y_aff, y * scale + shift, 1e-9, "forecast of a*x+b vs a*y+b"))
        rec.check(checks.close_rel(y_perm, y[:, perm], 1e-9, "forecast of permuted variables"))
        rec.check(checks.frozen_unchanged(self.base, self.params))

    def finish(self, rec: Recorder, rng):
        rec.check(checks.any_moved(self.lora_b, self.params, "LoRA B factors"))

    def metrics(self, rec: Recorder):
        n_vars = self.test_w[0].context.shape[1]
        train_rate = [n_vars / t for t in rec.times.get("train", [])]
        fc_ms = [1e3 * t for t in rec.times.get("forecast", [])]
        main = {
            "samples_per_s": (_median(train_rate), "1/s"),
            "latency_p50_ms": (_median(fc_ms), "ms"),
        }
        detail = {
            "train_samples_per_s": (_median(train_rate), "1/s"),
            "forecast_p50_ms": (_median(fc_ms), "ms"),
            "forecast_calls": (len(fc_ms), "count"),
            "checkpoint_s": (_median(rec.times.get("checkpoint", [])), "s"),
            "checkpoint_mb": (os.path.getsize(self.ckpt) / 2**20, "MiB"),
            "adam_steps": (self.n_steps, "count"),
        }
        return main, detail


# ---------------------------------------------------------------------------
# pss


PSS = {
    "full": dict(length=20000, T=1440, H=96, period=24, image=224, chunks=10, chunk=20,
                 latency_calls=40, oracle_images=20),
    "tiny": dict(length=2000, T=240, H=24, period=24, image=64, chunks=2, chunk=8,
                 latency_calls=8, oracle_images=4),
}


class Pss:
    """PSS over windows of the criterion-2 hourly surrogate, serial and with
    the worker pool, single-sample latency, and synthetic 1/f^alpha oracle
    images.  The serial calls are the timed ones; the pooled call's rate
    depends on how much of a second core the machine gives (see run.py)."""

    name = "pss"
    min_setups = 5

    def __init__(self, seed: int, size: str, workdir):
        self.seed = seed
        self.s = s = PSS[size]
        self.workers = nproc()
        self.spec = RenderSpec(
            periodicity=s["period"], image_height=s["image"], image_width=s["image"],
            align_const=0.4, patch_size=16,
        )

    def _pss(self, n, seed, workers):
        return spectral.pss_of_series(
            self.ds, self.spec, n_samples=n, T=self.s["T"], seed=seed, horizon=self.s["H"],
            f_lo=0.05, f_hi=0.5, workers=workers,
        )

    def setup(self):
        s = self.s
        self.ds = data.synth_series(
            "sinusoid_mix", s["length"], s["period"], amplitude=1.0, noise_std=2.0,
            seed=self.seed, name="hourly-surrogate",
        )
        self._pss(2, self.seed, 1)  # warm-up

    def before(self, rec: Recorder):
        pass

    def round(self, rec: Recorder, rng):
        # Many short serial calls rather than one long one: their median
        # shrugs off the bursts of outside load that a long call averages in.
        s = self.s
        seeds = [int(x) for x in rng.integers(0, 2**31, size=s["chunks"])]
        serial = [rec.time("pss", lambda k=k: self._pss(s["chunk"], k, 1), s["chunk"])
                  for k in seeds]
        rec.check(checks.all_finite(
            [a for st in serial for a in (st.alphas if st is not None else [math.nan])],
            "PSS alphas"))
        pooled = rec.time("pooled", lambda: self._pss(s["chunk"], seeds[0], self.workers),
                          s["chunk"])
        if serial[0] is not None and pooled is not None:
            rec.check(checks.bitwise_equal(pooled.alphas, serial[0].alphas,
                                           f"alphas with workers={self.workers} vs 1"))
        for _ in range(s["latency_calls"]):
            one = int(rng.integers(0, 2**31))
            rec.time("latency", lambda: self._pss(1, one, 1))
        alphas = {}
        for alpha in (1.0, 2.0, 3.0):
            alphas[alpha] = []
            for _ in range(s["oracle_images"]):
                img_seed = int(rng.integers(0, 2**31))
                fit = rec.time("oracle", lambda: spectral.pss_of_image(
                    spectral.synth_power_law_image(alpha, s["image"], s["image"], seed=img_seed),
                    0.05, 0.5))
                alphas[alpha].append(math.nan if fit is None else fit.alpha)
        rec.check(checks.alpha_recovered(alphas))

    def finish(self, rec: Recorder, rng):
        pass

    def metrics(self, rec: Recorder):
        rate = [self.s["chunk"] / t for t in rec.times.get("pss", [])]
        pooled = [self.s["chunk"] / t for t in rec.times.get("pooled", [])]
        lat_ms = [1e3 * t for t in rec.times.get("latency", [])]
        main = {
            "samples_per_s": (_median(rate), "1/s"),
            "latency_p50_ms": (_median(lat_ms), "ms"),
        }
        detail = {
            "pss_samples_per_s": (_median(rate), "1/s"),
            "pss_pooled_samples_per_s": (_median(pooled), "1/s"),
            "pss_pool_workers": (self.workers, "count"),
            "pss_single_sample_p50_ms": (_median(lat_ms), "ms"),
            "pss_single_sample_p95_ms": (
                float(np.percentile(lat_ms, 95)) if lat_ms else math.nan, "ms"),
            "pss_single_sample_calls": (len(lat_ms), "count"),
            "oracle_images": (len(rec.times.get("oracle", [])), "count"),
        }
        return main, detail


WORKLOADS = {cls.name: cls for cls in (DeskTrain, PaperFrozen, Pss)}
