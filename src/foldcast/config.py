"""Flat run configuration: `key = value` files, '#' comments, flag overrides.

`REGISTRY` is the one table of keys, which each subcommand's `--help` lists:
a key's default, parser, help text and the typed-config fields it sets, as
dotted paths under `model` (a `ModelConfig`) or `train` (a `TrainConfig`).
Such a key's default is its first field's, and `render_spec`, `model_config`
and `train_config` fill each field from the key the table names for it.
Unknown keys get a nearest-key suggestion; the dataclasses validate values.
"""

from __future__ import annotations

import difflib
from dataclasses import fields
from functools import reduce
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .data import SplitSpec, read_utf8
from .forecaster import ModelConfig, TrainConfig
from .rendering import RenderSpec
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


def _at_least(least: int) -> Callable[[str], int]:
    """An int parser that rejects values below `least`."""
    def parse(text: str) -> int:
        n = int(text)
        if n < least:
            raise ValueError(f"must be at least {least}, got {n}")
        return n
    return parse


class Key(NamedTuple):
    default: object
    parser: Callable[[str], object]
    help: str
    fields: tuple[str, ...] = ()  # the typed-config fields the key sets


_DEFAULTS = SimpleNamespace(model=ModelConfig(), train=TrainConfig())


def _sets(parser, help: str, *paths: str) -> Key:
    """A key that sets the fields at `paths`, with the first one's default."""
    return Key(reduce(getattr, paths[0].split("."), _DEFAULTS), parser, help, paths)


REGISTRY: dict[str, Key] = {
    # data
    "csv": Key("", str, "dataset CSV path (ETT layout)"),
    "train_frac": Key(SplitSpec.train_frac, float, "chronological train fraction"),
    "val_frac": Key(SplitSpec.val_frac, float, "chronological val fraction"),
    "test_frac": Key(SplitSpec.test_frac, float, "chronological test fraction"),
    "few_shot_ratio": Key(1.0, float, "fraction of the training segment to keep (earliest-first)"),
    "seq_len": Key(1440, _at_least(1), "context length T"),
    "pred_len": Key(96, _at_least(1), "horizon length H"),
    "stride": Key(24, _at_least(1), "training window stride"),
    "eval_stride": Key(48, _at_least(1), "val/test window stride"),
    "norm_const": Key(0.4, float, "normalization coefficient"),
    # synthetic data
    "synth_kind": Key("", str, "synthetic kind: sinusoid_mix | trend_plus_season | noise"),
    "synth_length": Key(5000, int, "synthetic series length"),
    "synth_period": Key(24, int, "synthetic base period"),
    "synth_amplitude": Key((1.0,), _floats, "amplitude or comma-separated component amplitudes"),
    "synth_noise_std": Key(0.1, float, "synthetic noise standard deviation"),
    "synth_seed": Key(7, _at_least(0), "synthetic generator seed"),
    # rendering
    "periodicity": _sets(int, "fold periodicity P", "model.render.periodicity"),
    "image_size": _sets(_at_least(1), "square image side", "model.render.image_height",
                        "model.render.image_width", "model.backbone.image_height",
                        "model.backbone.image_width"),
    "align_const": _sets(float, "visible-width proportional scale", "model.render.align_const"),
    "patch_size": _sets(int, "backbone patch size",
                        "model.render.patch_size", "model.backbone.patch_size"),
    # backbone
    "d_model": _sets(int, "hidden width", "model.backbone.d_model"),
    "n_heads": _sets(int, "attention heads", "model.backbone.n_heads"),
    "e_layers": _sets(int, "encoder layers", "model.backbone.e_layers"),
    "d_layers": _sets(int, "decoder layers (at least 1)", "model.backbone.d_layers"),
    "d_ff": _sets(int, "feed-forward width", "model.backbone.d_ff"),
    "dropout": _sets(float, "block dropout (aligner's 0.1 is fixed)", "model.backbone.dropout"),
    "frozen": _sets(_bool, "freeze backbone base weights", "model.backbone.frozen"),
    # adapters / fusion
    "residual_weight": _sets(float, "spectral-aligner residual blend weight", "model.sma.lam"),
    "lora_rank": _sets(int, "low-rank adapter rank", "model.lora_rank"),
    "lora_alpha": _sets(float, "low-rank adapter scaling factor", "model.lora_alpha"),
    "lora_dropout": _sets(float, "dropout on the low-rank path", "model.lora_dropout"),
    "use_tga": _sets(_bool, "enable the temporal grounding adapter", "model.use_tga"),
    "use_sma": _sets(_bool, "enable the spectral magnitude aligner", "model.use_sma"),
    "fixed_beta": _sets(_optional_float, "pin fusion beta to a constant (empty = learnable)",
                        "model.fixed_beta"),
    "beta_init": _sets(float, "initial fusion beta", "model.beta_init"),
    # training
    "lr": _sets(float, "learning rate (desk default; paper-scale uses 2e-6)", "train.lr"),
    "batch_size": _sets(int, "windows per optimizer step", "train.batch_size"),
    "epochs": _sets(int, "training epochs", "train.epochs"),
    "patience": _sets(int, "early-stopping patience", "train.patience"),
    "seed": _sets(_at_least(0), "global seed", "train.seed"),
    "adam_beta1": _sets(float, "Adam first-moment decay", "train.beta1"),
    "adam_beta2": _sets(float, "Adam second-moment decay", "train.beta2"),
    "adam_eps": _sets(float, "Adam epsilon", "train.eps"),
    # spectral analysis
    "pss_samples": Key(100, _at_least(1), "number of sampled windows for PSS"),
    "f_lo": Key(DEFAULT_F_LO, float, "power-law fit mask lower bound"),
    "f_hi": Key(DEFAULT_F_HI, float, "power-law fit mask upper bound"),
    # execution
    "workers": Key(1, _at_least(1), "worker count (results are worker-count independent)"),
}

_KEY_OF = {path: key for key, k in REGISTRY.items() for path in k.fields}


def _set(values: dict, entry: str, where: str, form: str):
    """Convert one `key = value` entry into `values`; `form` is the syntax
    its error names."""
    if "=" not in entry:
        raise ConfigError(f"{where}: expected {form}")
    key, raw = [s.strip() for s in entry.split("=", 1)]
    if key not in REGISTRY:
        near = difflib.get_close_matches(key, REGISTRY, n=1)
        hint = f"; nearest known key: {near[0]!r}" if near else ""
        raise ConfigError(f"{where}: unknown key {key!r}{hint}")
    try:
        values[key] = REGISTRY[key].parser(raw)
    except ValueError as e:
        raise ConfigError(f"{where}: bad value for {key!r}: {e}") from None


def parse_config(path=None, overrides: list[str] | None = None) -> dict:
    """Defaults, then file entries, then `key=value` overrides (flags win).

    Every value is converted as it is read, so the dict holds final typed
    values and a bad one fails here with its file:line or override."""
    values = {key: k.default for key, k in REGISTRY.items()}
    if path:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        for lineno, line in enumerate(read_utf8(path).splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if line:
                _set(values, line, f"{path}:{lineno}", "'key = value'")
    for item in overrides or []:
        _set(values, item, f"override {item!r}", "key=value")
    return values


def _build(cfg: dict, path: str, default):
    """The dataclass `default` at `path`, each field set from its key's value
    in `cfg` and each nested dataclass built the same way, in field order."""
    kwargs = {}
    for f in fields(default):
        sub, nested = f"{path}.{f.name}", getattr(default, f.name)
        kwargs[f.name] = cfg[_KEY_OF[sub]] if sub in _KEY_OF else _build(cfg, sub, nested)
    return type(default)(**kwargs)


def render_spec(cfg: dict) -> RenderSpec:
    return _build(cfg, "model.render", _DEFAULTS.model.render)


def model_config(cfg: dict) -> ModelConfig:
    return _build(cfg, "model", _DEFAULTS.model)


def train_config(cfg: dict) -> TrainConfig:
    return _build(cfg, "train", _DEFAULTS.train)
