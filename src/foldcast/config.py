"""Flat run configuration: `key = value` files, '#' comments, flag overrides.

Every key is registered with a type and default; unknown keys are rejected
with a nearest-key suggestion.  A key that sets a field of a config dataclass
takes its default from that dataclass, so the CLI and the Python API agree.
Values are re-validated by the owning module's constructors when the typed
config objects are built.
"""

from __future__ import annotations

import difflib
from pathlib import Path

from .backbone import BackboneConfig
from .data import SplitSpec, read_utf8
from .forecaster import ModelConfig, TrainConfig
from .rendering import RenderSpec
from .sma import SmaConfig
from .spectral import DEFAULT_F_HI, DEFAULT_F_LO


class ConfigError(ValueError):
    pass


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _optional_float(text: str) -> float | None:
    return float(text) if text else None


def _floats(text: str) -> tuple[float, ...]:
    vals = tuple(float(p) for p in text.split(",") if p.strip())
    if not vals:
        raise ValueError("no number given")
    return vals


_SPLIT, _MODEL, _TRAIN = SplitSpec(), ModelConfig(), TrainConfig()
_RENDER, _BACKBONE = _MODEL.render, _MODEL.backbone

# key -> (default, parser, help)
REGISTRY: dict[str, tuple] = {
    # data
    "csv": ("", str, "dataset CSV path (ETT layout)"),
    "train_frac": (_SPLIT.train_frac, float, "chronological train fraction"),
    "val_frac": (_SPLIT.val_frac, float, "chronological val fraction"),
    "test_frac": (_SPLIT.test_frac, float, "chronological test fraction"),
    "few_shot_ratio": (1.0, float, "fraction of the training segment to keep (earliest-first)"),
    "seq_len": (1440, int, "context length T"),
    "pred_len": (96, int, "horizon length H"),
    "stride": (24, int, "training window stride"),
    "eval_stride": (48, int, "val/test window stride"),
    "norm_const": (0.4, float, "normalization coefficient"),
    # synthetic data
    "synth_kind": ("", str, "synthetic kind: sinusoid_mix | trend_plus_season | noise"),
    "synth_length": (5000, int, "synthetic series length"),
    "synth_period": (24, int, "synthetic base period"),
    "synth_amplitude": ((1.0,), _floats, "amplitude or comma-separated component amplitudes"),
    "synth_noise_std": (0.1, float, "synthetic noise standard deviation"),
    "synth_seed": (7, int, "synthetic generator seed"),
    # rendering
    "periodicity": (_RENDER.periodicity, int, "fold periodicity P"),
    "image_size": (_RENDER.image_height, int, "square image side"),
    "align_const": (_RENDER.align_const, float, "visible-width proportional scale"),
    "patch_size": (_RENDER.patch_size, int, "backbone patch size"),
    # backbone
    "d_model": (_BACKBONE.d_model, int, "hidden width"),
    "n_heads": (_BACKBONE.n_heads, int, "attention heads"),
    "e_layers": (_BACKBONE.e_layers, int, "encoder layers"),
    "d_layers": (_BACKBONE.d_layers, int, "decoder layers"),
    "d_ff": (_BACKBONE.d_ff, int, "feed-forward width"),
    "dropout": (_BACKBONE.dropout, float, "block dropout rate"),
    "frozen": (_BACKBONE.frozen, _bool, "freeze backbone base weights"),
    # adapters / fusion
    "residual_weight": (_MODEL.sma.lam, float, "spectral-aligner residual blend weight"),
    "lora_rank": (_MODEL.lora_rank, int, "low-rank adapter rank"),
    "lora_alpha": (_MODEL.lora_alpha, float, "low-rank adapter scaling factor"),
    "lora_dropout": (_MODEL.lora_dropout, float, "dropout on the low-rank path"),
    "use_tga": (_MODEL.use_tga, _bool, "enable the temporal grounding adapter"),
    "use_sma": (_MODEL.use_sma, _bool, "enable the spectral magnitude aligner"),
    "fixed_beta": (_MODEL.fixed_beta, _optional_float, "pin fusion beta to a constant (empty = learnable)"),
    "beta_init": (_MODEL.beta_init, float, "initial fusion beta"),
    # training
    "lr": (_TRAIN.lr, float, "learning rate (desk default; paper-scale uses 2e-6)"),
    "batch_size": (_TRAIN.batch_size, int, "windows per optimizer step"),
    "epochs": (_TRAIN.epochs, int, "training epochs"),
    "patience": (_TRAIN.patience, int, "early-stopping patience"),
    "seed": (_TRAIN.seed, int, "global seed"),
    "adam_beta1": (_TRAIN.beta1, float, "Adam first-moment decay"),
    "adam_beta2": (_TRAIN.beta2, float, "Adam second-moment decay"),
    "adam_eps": (_TRAIN.eps, float, "Adam epsilon"),
    # spectral analysis
    "pss_samples": (100, int, "number of sampled windows for PSS"),
    "f_lo": (DEFAULT_F_LO, float, "power-law fit mask lower bound"),
    "f_hi": (DEFAULT_F_HI, float, "power-law fit mask upper bound"),
    # execution
    "workers": (1, int, "worker count (results are worker-count independent)"),
}


def _set(values: dict, key: str, raw: str, where: str):
    if key not in REGISTRY:
        near = difflib.get_close_matches(key, REGISTRY, n=1)
        hint = f"; nearest known key: {near[0]!r}" if near else ""
        raise ConfigError(f"{where}: unknown key {key!r}{hint}")
    _, parser, _ = REGISTRY[key]
    try:
        values[key] = parser(raw.strip())
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for {key!r}: {e}") from None


def parse_config(path=None, overrides: list[str] | None = None) -> dict:
    """Defaults, then file entries, then `key=value` overrides (flags win).

    Every value is converted as it is read, so the dict holds final typed
    values and a bad one fails here with its file:line or override."""
    values = {k: v[0] for k, v in REGISTRY.items()}
    if path:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        for lineno, line in enumerate(read_utf8(path).splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = [s.strip() for s in line.split("=", 1)]
            _set(values, key, raw, f"{path}:{lineno}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, raw = [s.strip() for s in item.split("=", 1)]
        _set(values, key, raw, f"override {item!r}")
    return values


def render_spec(cfg: dict) -> RenderSpec:
    return RenderSpec(
        periodicity=cfg["periodicity"],
        image_height=cfg["image_size"],
        image_width=cfg["image_size"],
        align_const=cfg["align_const"],
        patch_size=cfg["patch_size"],
    )


def backbone_config(cfg: dict) -> BackboneConfig:
    return BackboneConfig(
        image_height=cfg["image_size"],
        image_width=cfg["image_size"],
        patch_size=cfg["patch_size"],
        d_model=cfg["d_model"],
        n_heads=cfg["n_heads"],
        e_layers=cfg["e_layers"],
        d_layers=cfg["d_layers"],
        d_ff=cfg["d_ff"],
        dropout=cfg["dropout"],
        frozen=cfg["frozen"],
    )


def model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(
        render=render_spec(cfg),
        backbone=backbone_config(cfg),
        sma=SmaConfig(lam=cfg["residual_weight"]),
        lora_rank=cfg["lora_rank"],
        lora_alpha=cfg["lora_alpha"],
        lora_dropout=cfg["lora_dropout"],
        use_tga=cfg["use_tga"],
        use_sma=cfg["use_sma"],
        fixed_beta=cfg["fixed_beta"],
        beta_init=cfg["beta_init"],
    )


def train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        lr=cfg["lr"],
        batch_size=cfg["batch_size"],
        epochs=cfg["epochs"],
        patience=cfg["patience"],
        seed=cfg["seed"],
        beta1=cfg["adam_beta1"],
        beta2=cfg["adam_beta2"],
        eps=cfg["adam_eps"],
    )
