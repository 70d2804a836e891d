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
            raise ValueError(f"patience must be at least 0, got {self.patience}")
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


def _train_rng(train: bool, rng):
    """What the layers receive: `rng` in train mode, which needs one, else None."""
    if train and rng is None:
        raise ValueError("a train-mode pass needs an rng")
    return rng if train else None


def param_group(name: str) -> str:
    """The group of a tensor, from the head of its name: `bb.*` is the
    backbone, `fuse.beta` is beta, and `sma.*`, `tga.*` and `lora.*` are
    their own groups."""
    head = name.split(".", 1)[0]
    return {"bb": "backbone", "fuse": "beta"}.get(head, head)


class ForecastModel:
    """Parameters plus forward/backward for the dual-branch network.

    `params` holds every tensor of the model under its checkpoint name, in
    checkpoint order: `bb.*`, the aligner's trainable `sma.*`, `tga.*`,
    `lora.enc<i>.<q|k|v>.<A|B>`, `fuse.beta` and, last, the aligner's
    running statistics `sma.BUFFERS`.  Every layer reads its tensors from it
    and adds its gradients into `grads` under the same names.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        D = cfg.backbone.d_model
        self.params = {  # drawn in this order
            **bb.init_backbone(cfg.backbone, rng),
            **sma.init_enhancer(rng),
            **adapter.init_tga(rng, D),
            **adapter.init_lora(rng, D, cfg.lora_rank, cfg.backbone.e_layers),
            "fuse.beta": np.array([cfg.beta_init], dtype=np.float64),
        }
        for name in sma.BUFFERS:
            self.params[name] = self.params.pop(name)

    # -- parameter bookkeeping -------------------------------------------

    def named_params(self) -> dict[str, np.ndarray]:
        """Flat name -> array of every parameter, the buffers left out (shared storage)."""
        return {k: v for k, v in self.params.items() if k not in sma.BUFFERS}

    def trainable_names(self) -> list[str]:
        """The tensors that train, in `params` order: the keys of every `grads` buffer."""
        cfg = self.cfg
        off = {"backbone": cfg.backbone.frozen, "sma": not cfg.use_sma, "tga": not cfg.use_tga,
               "lora": False, "beta": cfg.fixed_beta is not None}
        return [k for k in self.named_params() if not off[param_group(k)]]

    @property
    def beta_raw(self) -> np.ndarray:
        """The learnable fusion weight `fuse.beta`, a shape-(1,) array."""
        return self.params["fuse.beta"]

    @property
    def beta(self) -> float:
        if self.cfg.fixed_beta is not None:
            return clamp_beta(self.cfg.fixed_beta)
        return clamp_beta(float(self.beta_raw[0]))

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for k, v in self.params.items():
            v[...] = snap[k]

    def save(self, path) -> None:
        bb.save_weights(path, self.params)

    def load(self, path) -> None:
        """Read a checkpoint written by `save` into this model's arrays.

        The names and shapes must match the model's exactly; a checkpoint
        that does not leaves the model untouched.
        """
        bb.read_weights(path, out=self.params)

    # -- forward / backward ----------------------------------------------

    def _branches(self, windows, rng=None, grads=None, masks=None):
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
        as a forward over every variable first.  A pass handed an `rng` draws
        its dropout masks from it and updates the running statistics in batch
        order: window-major over every variable without `grads`, one
        variable's windows at a time with them.  A `masks` list runs the
        variables one at a time as `grads` does and collects the aligner's
        ReLU masks.
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
        cfg = self.cfg
        keep = grads is not None or masks is not None
        for vs in [slice(v, v + 1) for v in range(N)] if keep else [slice(None)]:
            # T and H fix the geometry: one rendering describes every window
            ri = render(x_norm[:, vs], H, cfg.render)
            vis_cols = ri.visible_width // cfg.render.patch_size
            read = ri.read_patches
            # the structural branch runs both adapters, the spectral one neither
            out_st, c_st = bb.autoencode(
                ri.pixels, self.params, cfg.backbone, vis_cols, read,
                lora_scale=cfg.lora_alpha / cfg.lora_rank, tga=cfg.use_tga, rng=rng,
                lora_drop=cfg.lora_dropout, keep_cache=keep,
            )
            if cfg.use_sma:
                aligned, c_sma = sma.sma_forward(
                    ri.pixels, self.params, cfg.sma, rng=rng, keep_cache=keep
                )
                if masks is not None:
                    masks.append(c_sma["enh"]["live"])
            else:
                aligned, c_sma = ri.pixels, None
            out_sp, c_sp = bb.autoencode(
                aligned, self.params, cfg.backbone, vis_cols, read, rng=rng, keep_cache=keep
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
            reconstruct_backward(g_st, ri), self.params, cfg, c_st, grads, image_grad=False
        )
        # the spectral branch has no adapters: its backward feeds only the
        # base weights and the aligner
        if cfg.frozen and not self.cfg.use_sma:
            return
        g_aligned = bb.autoencode_backward(
            reconstruct_backward(g_sp, ri), self.params, cfg, c_sp, grads,
            image_grad=self.cfg.use_sma,
        )
        if self.cfg.use_sma:
            sma.sma_backward(g_aligned, c_sma, self.params, grads)

    def forward(self, w: TimeSeriesWindow, train: bool = False, rng=None) -> ForecastOutcome:
        """Full dual-branch pass over every variable of one window, run as one
        batch.  With `train=True` it draws its dropout masks from `rng` and
        updates the aligner's running statistics over the variables at once,
        not one variable at a time as `loss_and_grads` does."""
        y_st, y_sp, _ = self._branches([w], _train_rng(train, rng))
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
        `fuse.beta` key when that part is switched off or fixed.  A train-mode
        pass, the default, needs `rng`; an eval-mode one does not draw from it.
        """
        if not windows:
            raise ValueError("loss_and_grads needs at least one window")
        grads = {k: np.zeros_like(self.params[k]) for k in self.trainable_names()}
        y_st, y_sp, errors = self._branches(windows, _train_rng(train, rng), grads)
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
        _, _, errors = model._branches(windows[start : start + batch_size], masks=masks)
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
    eval-mode loss.  Returns (error, raw gap): the gap between the two, less
    a floor of 100 eps L(p) / h for the losses' rounding, and the whole gap,
    each over the summed magnitudes of the terms <grads[g], d_g>.  Returns
    None when a step crosses a kink: the aligner's ReLU masks there differ
    from those at p."""
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
    return tuple(x / scale if scale else (math.inf if x else 0.0) for x in (excess, gap))


def gradcheck(component: str = "all", seed: int = 0, inject_fault: bool = False) -> dict:
    """Compare, for each trainable tensor of the requested group(s) of a small
    whole model drawn from `seed`, in which every group trains, the gradient
    of `loss_and_grads` along a random unit direction on that tensor with a
    central difference of the loss (`directional_error`); a direction whose
    step crosses a ReLU kink is drawn again.  A group's `max_rel_err` is its
    tensors' largest error, `max_raw_rel_gap` their largest gap before the
    rounding floor is taken off and `worst_tensor` the first tensor with that
    gap; `kink_redraws` counts the directions drawn again.  Returns
    {"groups": {name: {"max_rel_err", "max_raw_rel_gap", "worst_tensor",
    "kink_redraws", "bound", "passed"}}, "passed"}.  `inject_fault` scales
    the checked gradients by 1.1 to prove the check can fail.
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
    rng, params = np.random.default_rng(seed), model.params
    lora_B = [k for k in params if k.startswith("lora.") and k.endswith(".B")]
    for name in (*lora_B, "sma.conv1_b", "sma.bn_beta", "sma.bn_running_mean"):
        params[name][...] = rng.normal(0.0, 0.1, size=params[name].shape)
    series = [data.synth_series("sinusoid_mix", 28, 4, noise_std=0.1, seed=seed + v) for v in (0, 1)]
    windows = data.windows(data.Segment(np.hstack([s.values for s in series]), 0, 28), 16, 8, 4)
    _, grads, _ = model.loss_and_grads(*windows, train=False)
    results = {g: {"max_rel_err": 0.0, "max_raw_rel_gap": 0.0, "worst_tensor": None,
                   "kink_redraws": 0}
               for g in (GRADCHECK_BOUNDS if component == "all" else (component,))}
    for i, name in enumerate(model.trainable_names()):
        r = results.get(param_group(name))
        if r is None:
            continue
        if inject_fault:
            grads[name] *= 1.1
        rng = np.random.default_rng([seed, i])  # the same draws whichever groups run
        while True:
            d = rng.normal(size=params[name].shape)
            found = directional_error(model, windows, grads, {name: d / np.linalg.norm(d)}, GRADCHECK_STEP)
            if found is not None:
                break
            r["kink_redraws"] += 1
        r["max_rel_err"] = max(r["max_rel_err"], found[0])
        if r["worst_tensor"] is None or found[1] > r["max_raw_rel_gap"]:
            r.update(max_raw_rel_gap=found[1], worst_tensor=name)
    for g, r in results.items():
        r.update(bound=GRADCHECK_BOUNDS[g], passed=bool(r["max_rel_err"] < GRADCHECK_BOUNDS[g]))
    return {"groups": results, "passed": all(r["passed"] for r in results.values())}
