"""Dual-branch forecasting model and training loop.

Each variable of a window is normalized, rendered to a masked image, and sent
through two branches sharing one backbone: the spectral branch applies the
magnitude aligner before the (frozen) autoencoder, the structural branch feeds
the raw rendering through the adapter-equipped autoencoder.  Both decoded
images are mapped back to normalized forecasts, blended by a learnable clamped
scalar, and denormalized.  Training minimizes MSE in normalized space with
Adam; metrics are reported on denormalized values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import adapter, backbone as bb, data, sma
from .backbone import BackboneConfig
from .data import TimeSeriesWindow, denormalize, normalize, normalize_target
from .rendering import RenderSpec, reconstruct, reconstruct_backward, render
from .sma import SmaConfig


@dataclass(frozen=True)
class ForecastOutcome:
    prediction: np.ndarray  # [H, N] denormalized
    y_structural: np.ndarray  # [H, N] normalized-space branch output
    y_spectral: np.ndarray  # [H, N] normalized-space branch output
    mse: float
    mae: float


@dataclass
class ModelConfig:
    render: RenderSpec = field(default_factory=RenderSpec)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    sma: SmaConfig = field(default_factory=SmaConfig)
    lora_rank: int = 4
    lora_alpha: float = 16.0
    lora_dropout: float = 0.1
    use_tga: bool = True
    use_sma: bool = True
    fixed_beta: float | None = None
    beta_init: float = 0.5

    def __post_init__(self):
        if self.render.patch_size != self.backbone.patch_size:
            raise ValueError("render and backbone patch sizes differ")
        if (
            self.render.image_height != self.backbone.image_height
            or self.render.image_width != self.backbone.image_width
        ):
            raise ValueError("render and backbone image dims differ")
        if self.use_sma and self.render.image_width % 2:
            raise ValueError(
                f"image_size {self.render.image_width} is odd: the spectral aligner "
                "(use_sma) needs an even image width"
            )
        D = self.backbone.d_model
        if D % 2:  # the grounding adapter's sinusoid table pairs sines and cosines
            raise ValueError(f"d_model must be even, got {D}")
        if not 1 <= self.lora_rank <= D:
            raise ValueError(f"lora_rank must lie in [1, d_model = {D}], got {self.lora_rank}")
        if not 0.0 <= self.lora_dropout < 1.0:
            raise ValueError(f"lora_dropout must lie in [0, 1), got {self.lora_dropout}")
        for name in ("lora_alpha", "fixed_beta", "beta_init"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 8
    epochs: int = 10
    patience: int = 3
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be at least 0, got {self.epochs}")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} (adam_{name}) must lie in [0, 1), got {value}")
        if not self.eps > 0:
            raise ValueError(f"eps (adam_eps) must be positive, got {self.eps}")


def clamp_beta(beta: float) -> float:
    return min(max(beta, 0.0), 1.0)


def fuse(y_st: np.ndarray, y_sp: np.ndarray, beta: float) -> np.ndarray:
    """Convex combination beta * y_st + (1 - beta) * y_sp."""
    if y_st.shape != y_sp.shape:
        raise ValueError(f"branch shapes differ: {y_st.shape} vs {y_sp.shape}")
    return beta * y_st + (1.0 - beta) * y_sp


def beta_grad(err: np.ndarray, y_st: np.ndarray, y_sp: np.ndarray) -> float:
    """Gradient of one window's mean(err**2) with respect to beta, where
    err = fuse(y_st, y_sp, beta) - target."""
    g_yhat = 2.0 * err / err.size
    return float(np.sum(g_yhat * (y_st - y_sp)))


def mse(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean((np.asarray(pred) - np.asarray(truth)) ** 2))


def mae(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(np.abs(np.asarray(pred) - np.asarray(truth))))


def seasonal_naive(w: TimeSeriesWindow, period: int) -> np.ndarray:
    """Repeat the last observed period across the horizon (raw units)."""
    T = w.context.shape[0]
    H = w.target.shape[0]
    if T < period:
        raise ValueError("context shorter than one period")
    last = w.context[T - period :]
    reps = np.arange(H) % period
    return last[reps]


class ForecastModel:
    """Parameter container plus forward/backward for the dual-branch network."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        D = cfg.backbone.d_model
        self.bb_params = bb.init_backbone(cfg.backbone, rng)
        self.enhancer = sma.init_enhancer(rng, channels=16, dropout_rate=0.1)
        self.tga = adapter.init_tga(rng, D)
        self.lora = {
            f"enc{i}": {
                n: adapter.init_lora(rng, D, cfg.lora_rank, cfg.lora_alpha)
                for n in ("q", "k", "v")
            }
            for i in range(cfg.backbone.e_layers)
        }
        self.beta_raw = np.array([cfg.beta_init], dtype=np.float64)

    # -- parameter bookkeeping -------------------------------------------

    def named_params(self) -> dict[str, np.ndarray]:
        """Flat name -> array view of every trainable tensor (shared storage)."""
        out = {f"bb.{k}": v for k, v in self.bb_params.items()}
        for k in self.enhancer.grad_keys():
            out[f"sma.{k}"] = getattr(self.enhancer, k)
        out["tga.W_proj"] = self.tga.W_proj
        out["tga.w_fusion"] = self.tga.w_fusion
        for pfx, factors in self.lora.items():
            for n, f in factors.items():
                out[f"lora.{pfx}.{n}.A"] = f.A
                out[f"lora.{pfx}.{n}.B"] = f.B
        out["fuse.beta"] = self.beta_raw
        return out

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Parameters plus non-trainable buffers, for checkpointing."""
        out = dict(self.named_params())
        out["sma.bn_running_mean"] = self.enhancer.bn_running_mean
        out["sma.bn_running_var"] = self.enhancer.bn_running_var
        return out

    def trainable_names(self) -> list[str]:
        names = []
        if not self.cfg.backbone.frozen:
            names += [f"bb.{k}" for k in self.bb_params]
        if self.cfg.use_sma:
            names += [f"sma.{k}" for k in self.enhancer.grad_keys()]
        if self.cfg.use_tga:
            names += ["tga.W_proj", "tga.w_fusion"]
        for pfx, factors in self.lora.items():
            for n in factors:
                names += [f"lora.{pfx}.{n}.A", f"lora.{pfx}.{n}.B"]
        if self.cfg.fixed_beta is None:
            names.append("fuse.beta")
        return names

    @property
    def beta(self) -> float:
        if self.cfg.fixed_beta is not None:
            return clamp_beta(self.cfg.fixed_beta)
        return clamp_beta(float(self.beta_raw[0]))

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.state_tensors().items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for k, v in self.state_tensors().items():
            v[...] = snap[k]

    def save(self, path) -> None:
        bb.save_weights(path, self.state_tensors())

    def load(self, path) -> None:
        """Read a checkpoint written by `save` into this model's arrays.

        The names and shapes must match the model's exactly; a checkpoint
        that does not leaves the model untouched.
        """
        bb.read_weights(path, out=self.state_tensors())

    # -- forward / backward ----------------------------------------------

    def _branches(self, windows, train, rng, grads=None, masks=None):
        """Normalized-space branch outputs and fused errors of B windows.

        Returns (y_st, y_sp, errors), each [B, H, N]: `errors` is the fused
        forecast minus the normalized target.  The windows must share their
        context length T, horizon H and variable count N.  The variables run
        in groups: a group's contexts [B, n, T] are rendered in one call, run
        through each branch as one [B, n, H_img, W_img] batch and
        reconstructed in one call.  Each sample's forward is computed exactly
        as it would be alone.

        Without `grads` every variable is in one group and no cache is kept,
        so each layer's activations are freed as the next one runs.  With a
        `grads` dict each variable is a group of its own, and its backward
        runs right after its forward and adds the gradient of the windows'
        summed losses into `grads`, so a variable's caches are released when
        the next variable's forward rebinds them instead of piling up.
        Backward draws no random numbers and the aligner's running statistics
        change only in forward, so the interleaving gives the same gradients
        as a forward over every variable first.  A train-mode pass draws its
        dropout masks and updates the running statistics in batch order:
        window-major over every variable without `grads`, one variable's
        windows at a time with them.  A `masks` list runs the variables one
        at a time as `grads` does and collects the aligner's ReLU masks.
        """
        (T, N), (H, _) = windows[0].context.shape, windows[0].target.shape
        for w in windows:
            if w.context.shape != (T, N) or w.target.shape != (H, N):
                raise ValueError(
                    f"a batch needs windows of one shape: context {w.context.shape} and "
                    f"target {w.target.shape} against {(T, N)} and {(H, N)}"
                )
        x_norm = np.stack([normalize(w) for w in windows]).swapaxes(1, 2)  # [B, N, T]
        targets = np.stack([normalize_target(w) for w in windows])
        beta = self.beta
        y_st = np.zeros((len(windows), H, N))
        y_sp = np.zeros((len(windows), H, N))
        errors = np.zeros((len(windows), H, N))
        tga = self.tga if self.cfg.use_tga else None
        keep = grads is not None or masks is not None
        for vs in [slice(v, v + 1) for v in range(N)] if keep else [slice(None)]:
            # T and H fix the geometry: one rendering describes every window
            ri = render(x_norm[:, vs], H, self.cfg.render)
            vis_cols = ri.visible_width // self.cfg.render.patch_size
            read = ri.read_patches
            out_st, c_st = bb.autoencode(
                ri.pixels, self.bb_params, self.cfg.backbone, vis_cols, read, lora=self.lora,
                tga=tga, train=train, rng=rng, lora_drop=self.cfg.lora_dropout, keep_cache=keep,
            )
            if self.cfg.use_sma:
                aligned, c_sma = sma.sma_forward(
                    ri.pixels, self.enhancer, self.cfg.sma, train=train, rng=rng, keep_cache=keep
                )
                if masks is not None:
                    masks.append(c_sma["enh"]["live"])
            else:
                aligned, c_sma = ri.pixels, None
            out_sp, c_sp = bb.autoencode(
                aligned, self.bb_params, self.cfg.backbone, vis_cols, read, train=train,
                rng=rng, keep_cache=keep,
            )
            y_st[:, :, vs] = reconstruct(out_st, ri).swapaxes(1, 2)
            y_sp[:, :, vs] = reconstruct(out_sp, ri).swapaxes(1, 2)
            errors[:, :, vs] = fuse(y_st[:, :, vs], y_sp[:, :, vs], beta) - targets[:, :, vs]
            if grads is not None:
                g_yhat = (2.0 * errors[:, :, vs] / (H * N)).swapaxes(1, 2)
                self._backward_variable(
                    grads, ri, beta * g_yhat, (1.0 - beta) * g_yhat, c_st, c_sp, c_sma
                )
        return y_st, y_sp, errors

    def _backward_variable(self, grads, ri, g_st, g_sp, c_st, c_sp, c_sma):
        """Add one variable's gradients, given those of its two branch outputs [B, 1, H]."""
        cfg = self.cfg.backbone
        # nothing upstream of the structural branch trains: its image gradient is not formed
        bb.autoencode_backward(
            reconstruct_backward(g_st, ri), self.bb_params, cfg, c_st, grads, image_grad=False
        )
        # the spectral branch has no adapters: its backward feeds only the
        # base weights and the aligner
        if cfg.frozen and not self.cfg.use_sma:
            return
        g_aligned = bb.autoencode_backward(
            reconstruct_backward(g_sp, ri), self.bb_params, cfg, c_sp, grads,
            image_grad=self.cfg.use_sma,
        )
        if self.cfg.use_sma:
            for k, val in sma.sma_backward(g_aligned, c_sma, self.enhancer).items():
                grads[f"sma.{k}"] += val

    def forward(self, w: TimeSeriesWindow, train: bool = False, rng=None) -> ForecastOutcome:
        """Full dual-branch pass over every variable of one window, run as one
        batch.  With `train=True` it draws its dropout masks and updates the
        aligner's running statistics over the variables at once, not one
        variable at a time as `loss_and_grads` does."""
        y_st, y_sp, _ = self._branches([w], train, rng)
        pred = denormalize(fuse(y_st[0], y_sp[0], self.beta), w)
        return ForecastOutcome(
            prediction=pred,
            y_structural=y_st[0],
            y_spectral=y_sp[0],
            mse=mse(pred, w.target),
            mae=mae(pred, w.target),
        )

    def loss_and_grads(self, *windows: TimeSeriesWindow, rng=None, train: bool = True):
        """Normalized-space MSE loss and gradients of one window, or of several
        run as one batch.

        Returns (loss, grads, (y_structural, y_spectral)).  The windows must
        share T, H and N; the loss and every gradient are the means over the
        windows, and the two branch outputs are normalized-space [B, H, N]
        arrays.  The gradient dict is one flat buffer that every backward
        adds into; it holds exactly the tensors of `trainable_names()`: no
        `bb.*` key when the backbone is frozen, no `sma.*`, `tga.*` or
        `fuse.beta` key when that part is switched off or fixed.
        """
        if not windows:
            raise ValueError("loss_and_grads needs at least one window")
        params = self.named_params()
        grads = {k: np.zeros_like(params[k]) for k in self.trainable_names()}
        y_st, y_sp, errors = self._branches(windows, train, rng, grads)
        if "fuse.beta" in grads:
            for err, st, sp in zip(errors, y_st, y_sp):
                grads["fuse.beta"][0] += beta_grad(err, st, sp)
        for g in grads.values():
            g /= len(windows)
        loss = sum(float(np.mean(err**2)) for err in errors) / len(windows)
        return loss, grads, (y_st, y_sp)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, params: dict[str, np.ndarray], names) -> "AdamState":
        return cls(
            m={n: np.zeros_like(params[n]) for n in names},
            v={n: np.zeros_like(params[n]) for n in names},
        )


def adam_step(params, grads, state: AdamState, cfg: TrainConfig) -> None:
    """Bias-corrected Adam update, in place, over the tensors in `state`.

    m, v and the parameter are updated in their own buffers through two
    scratch arrays per tensor, in the operation order of the textbook
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    p -= lr (m / bc1) / (sqrt(v / bc2) + eps), so the result is bitwise
    that formula's.  `grads` is only read."""
    state.t += 1
    bc1 = 1.0 - cfg.beta1**state.t
    bc2 = 1.0 - cfg.beta2**state.t
    for name in state.m:
        g, m, v = grads[name], state.m[name], state.v[name]
        a, b = np.empty_like(m), np.empty_like(m)
        np.multiply(1.0 - cfg.beta1, g, out=a)
        m *= cfg.beta1
        m += a
        np.multiply(1.0 - cfg.beta2, g, out=a)
        a *= g
        v *= cfg.beta2
        v += a
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += cfg.eps
        np.divide(m, bc1, out=a)
        a *= cfg.lr
        a /= b
        params[name] -= a


# ---------------------------------------------------------------------------
# training / evaluation


def _val_loss(model: ForecastModel, windows, batch_size: int, masks=None) -> float:
    """Mean loss of `loss_and_grads` over eval-mode forward passes, run
    `batch_size` windows at a time; a `masks` list collects the aligner's
    ReLU masks (`ForecastModel._branches`)."""
    total = 0.0
    for start in range(0, len(windows), batch_size):
        _, _, errors = model._branches(windows[start : start + batch_size], False, None, masks=masks)
        for err in errors:
            total += float(np.mean(err**2))
    return total / len(windows)


def _check_finite(step: int, loss: float, grads: dict) -> None:
    """Raise FloatingPointError unless the loss and the global gradient norm
    of optimizer step `step` are finite, naming the first non-finite tensor."""
    norm2 = sum(float(np.vdot(g, g)) for g in grads.values())
    if np.isfinite(loss) and np.isfinite(norm2):
        return
    bad = next((k for k, g in grads.items() if not np.isfinite(g).all()), None)
    raise FloatingPointError(
        f"optimizer step {step}: loss {loss}, gradient norm {np.sqrt(norm2)}, "
        + (f"first non-finite tensor {bad}" if bad else "every gradient tensor finite")
    )


def train(model: ForecastModel, train_windows, val_windows, cfg: TrainConfig) -> dict:
    """Adam training with early stopping; returns the report dict.

    The windows of each optimizer step run as one batch through
    `ForecastModel.loss_and_grads`, and validation runs in eval mode in
    chunks of the same size, so memory grows with `batch_size`.  Beta is
    clamped to [0, 1] right after every optimizer step (projected gradient).
    The best-validation snapshot is restored before returning.  A non-finite
    loss or gradient norm stops training with FloatingPointError; its
    `report` attribute holds the report so far, with the failing step under
    `failed_step`.
    """
    if not train_windows or not val_windows:
        raise ValueError("need at least one train and one val window")
    rng = np.random.default_rng(cfg.seed)
    params = model.named_params()
    state = AdamState.init(params, model.trainable_names())
    report = {"epoch0_val_mse": _val_loss(model, val_windows, cfg.batch_size), "epochs": []}
    best_val = report["epoch0_val_mse"]
    best_snap = model.snapshot()
    best_epoch = 0
    bad = 0
    n = len(train_windows)
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = [train_windows[i] for i in order[start : start + cfg.batch_size]]
            loss, grads, _ = model.loss_and_grads(*batch, rng=rng)
            step += 1
            try:
                _check_finite(step, loss, grads)
            except FloatingPointError as e:
                report["failed_step"] = step
                e.report = report
                raise
            epoch_loss += loss * len(batch)
            adam_step(params, grads, state, cfg)
            np.clip(model.beta_raw, 0.0, 1.0, out=model.beta_raw)
        train_mse = epoch_loss / n
        val_mse = _val_loss(model, val_windows, cfg.batch_size)
        report["epochs"].append(
            {"train_mse": train_mse, "val_mse": val_mse, "beta": model.beta}
        )
        if val_mse < best_val:
            best_val = val_mse
            best_snap = model.snapshot()
            best_epoch = epoch
            bad = 0
        else:
            bad += 1
            if bad > cfg.patience:
                break
    model.restore(best_snap)
    report["best_epoch"] = best_epoch
    report["best_val_mse"] = best_val
    return report


def evaluate(windows, predict_fn, workers: int = 1) -> dict:
    """Unweighted mean of per-window denormalized MSE/MAE.

    `predict_fn(window)` must return a denormalized [H, N] prediction; a
    ForecastModel's eval-mode forward slots in directly.
    """
    if not windows:
        raise ValueError("no windows to evaluate")

    def one(w):
        pred = predict_fn(w)
        return mse(pred, w.target), mae(pred, w.target)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            metrics = list(pool.map(one, windows))
    else:
        metrics = [one(w) for w in windows]
    return {
        "mse": float(np.mean([m[0] for m in metrics])),
        "mae": float(np.mean([m[1] for m in metrics])),
        "n_windows": len(windows),
    }


def model_predict_fn(model: ForecastModel):
    return lambda w: model.forward(w, train=False).prediction


# ---------------------------------------------------------------------------
# gradient verification

# per group, the bound on the relative error of one directional central
# difference per trainable tensor of `gradcheck`'s small whole model
GRADCHECK_BOUNDS = {
    "sma": 1e-4,
    "tga": 1e-4,
    "lora": 1e-4,
    "beta": 1e-10,
    "backbone": 1e-4,
}
# the step of every group: short enough for the backbone, which curves most
# (layer norm of the small mask-token rows)
GRADCHECK_STEP = 3e-6


def directional_error(model: ForecastModel, windows, grads, direction, h):
    """Relative error of the gradient along `direction`, a dict of tensors d_g,
    against the central difference (L(p + h d) - L(p - h d)) / 2h of the
    eval-mode loss: their gap, less a floor of 100 eps L(p) / h for the
    losses' rounding, over the summed magnitudes of the terms <grads[g], d_g>.
    Returns None when a step crosses a kink: the aligner's ReLU masks there
    differ from those at p."""
    params, snap = model.named_params(), model.snapshot()
    losses, masks = [], [[], [], []]
    for step, step_masks in zip((0.0, h, -h), masks):
        for name, d in direction.items():
            params[name][...] = snap[name] + step * d
        losses.append(_val_loss(model, windows, len(windows), step_masks))
    model.restore(snap)
    if any(not all(map(np.array_equal, masks[0], step_masks)) for step_masks in masks[1:]):
        return None
    terms = [float(np.sum(grads[name] * d)) for name, d in direction.items()]
    gap = abs((losses[1] - losses[2]) / (2 * h) - sum(terms))
    excess = max(gap - 100 * float(np.finfo(float).eps) * losses[0] / h, 0.0)
    scale = sum(abs(t) for t in terms)
    return excess / scale if scale else (math.inf if excess else 0.0)


def gradcheck(component: str = "all", seed: int = 0, inject_fault: bool = False) -> dict:
    """Compare, for each trainable tensor of the requested group(s) of a small
    whole model drawn from `seed`, in which every group trains, the gradient
    of `loss_and_grads` along a random unit direction on that tensor with a
    central difference of the loss (`directional_error`); a direction whose
    step crosses a ReLU kink is drawn again.  A group's `max_rel_err` is its
    tensors' largest error.  Returns {"groups": {name: {"max_rel_err",
    "bound", "passed"}}, "passed"}.  `inject_fault` scales the checked
    gradients by 1.1 to prove the check can fail.
    """
    if component != "all" and component not in GRADCHECK_BOUNDS:
        raise ValueError(f"unknown gradcheck component {component!r}")
    size = dict(image_height=8, image_width=12, patch_size=4)
    model = ForecastModel(ModelConfig(
        render=RenderSpec(periodicity=4, align_const=1.0, **size), lora_rank=2,
        backbone=BackboneConfig(**size, d_model=8, n_heads=2, e_layers=2, d_layers=1, d_ff=16,
                                frozen=False),
    ), seed=seed)
    # a zero LoRA B would zero every A gradient, and zero biases and running
    # mean put the aligner's ReLU on its kink wherever a magnitude is 0
    rng, e = np.random.default_rng(seed), model.enhancer
    lora_B = [f.B for factors in model.lora.values() for f in factors.values()]
    for arr in (*lora_B, e.conv1_b, e.bn_beta, e.bn_running_mean):
        arr[...] = rng.normal(0.0, 0.1, size=arr.shape)
    series = [data.synth_series("sinusoid_mix", 28, 4, noise_std=0.1, seed=seed + v) for v in (0, 1)]
    windows = data.windows(data.Segment(np.hstack([s.values for s in series]), 0, 28), 16, 8, 4)
    _, grads, _ = model.loss_and_grads(*windows, train=False)
    params = model.named_params()
    worst = dict.fromkeys(GRADCHECK_BOUNDS if component == "all" else (component,), 0.0)
    for i, name in enumerate(model.trainable_names()):
        head = name.split(".", 1)[0]
        group = {"bb": "backbone", "fuse": "beta"}.get(head, head)
        if group not in worst:
            continue
        if inject_fault:
            grads[name] *= 1.1
        rng, err = np.random.default_rng([seed, i]), None  # the same draws whichever groups run
        while err is None:
            d = rng.normal(size=params[name].shape)
            err = directional_error(model, windows, grads, {name: d / np.linalg.norm(d)}, GRADCHECK_STEP)
        worst[group] = max(worst[group], err)
    results = {g: {"max_rel_err": err, "bound": GRADCHECK_BOUNDS[g], "passed": bool(err < GRADCHECK_BOUNDS[g])}
               for g, err in worst.items()}
    return {"groups": results, "passed": all(r["passed"] for r in results.values())}
