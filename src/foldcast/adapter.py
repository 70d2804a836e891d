"""Structural adapters: sinusoidal temporal grounding of patch embeddings and
low-rank updates of attention projections.

The grounding adapter assigns each patch its flattened grid index, looks up a
sinusoidal encoding, projects it through a learnable D x D matrix, and adds the
result through a sigmoid gate: X + sigmoid(w) * (P_temp @ W_proj^T).  The
low-rank update is W' = W + (alpha/r) * B @ A with B zero-initialized so the
adapted model starts exactly at the frozen base.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rendering import _read_only


@dataclass
class TgaParams:
    W_proj: np.ndarray  # [D, D]
    w_fusion: np.ndarray  # shape-(1,) gate logit, kept as an array for in-place updates

    @property
    def gate(self) -> float:
        return float(sigmoid(self.w_fusion)[0])


@dataclass
class LoraFactor:
    A: np.ndarray  # [r, D]
    B: np.ndarray  # [D, r]
    alpha_lora: float

    @property
    def rank(self) -> int:
        return self.A.shape[0]

    @property
    def scale(self) -> float:
        return self.alpha_lora / self.rank


def init_tga(rng: np.random.Generator, D: int) -> TgaParams:
    bound = 1.0 / np.sqrt(D)
    return TgaParams(
        W_proj=rng.uniform(-bound, bound, size=(D, D)), w_fusion=np.zeros(1)
    )


def init_lora(rng: np.random.Generator, D: int, rank: int, alpha_lora: float) -> LoraFactor:
    if not 1 <= rank <= D:
        raise ValueError(f"rank must lie in [1, {D}], got {rank}")
    return LoraFactor(
        A=rng.normal(0.0, 0.02, size=(rank, D)),
        B=np.zeros((D, rank)),
        alpha_lora=alpha_lora,
    )


def temporal_indices(L: int) -> np.ndarray:
    """Flattened patch-grid positions 0..L-1 standing in for temporal order."""
    if L < 1:
        raise ValueError("L must be positive")
    return np.arange(L, dtype=np.float64)


@lru_cache(maxsize=8)
def sinusoid_table(L: int, D: int) -> np.ndarray:
    """[L, D] table with (sin(i/w_k), cos(i/w_k)) pairs, w_k = 10000^(2k/D); cached read-only."""
    if D % 2:
        raise ValueError("D must be even")
    idx = temporal_indices(L)[:, None]
    k = np.arange(D // 2, dtype=np.float64)
    omega = 10000.0 ** (2.0 * k / D)
    args = idx / omega[None, :]
    table = np.empty((L, D))
    table[:, 0::2] = np.sin(args)
    table[:, 1::2] = np.cos(args)
    return _read_only(table)


def sigmoid(x) -> np.ndarray:
    x = np.clip(np.asarray(x, dtype=np.float64), -60.0, 60.0)
    return 1.0 / (1.0 + np.exp(-x))


def tga_forward(X: np.ndarray, p: TgaParams, table: np.ndarray):
    """X + sigmoid(w_fusion) * (table @ W_proj^T) for tokens X [..., L, D];
    returns (output, cache)."""
    if X.shape[-2:] != table.shape:
        raise ValueError(f"token shape {X.shape} != table shape {table.shape}")
    g = p.gate
    proj = table @ p.W_proj.T
    out = X + g * proj
    return out, {"g": g, "proj": proj, "table": table}


def tga_backward(grad_out: np.ndarray, cache):
    """Gradients wrt W_proj and w_fusion.  The adapter adds to the tokens, so
    the incoming tokens' gradient is `grad_out` itself."""
    g = cache["g"]
    summed = grad_out.reshape(-1, *grad_out.shape[-2:]).sum(axis=0)  # over the samples
    dW = g * summed.T @ cache["table"]
    dw_fusion = g * (1.0 - g) * float(np.sum(grad_out * cache["proj"]))
    return {"W_proj": dW, "w_fusion": np.array([dw_fusion])}


def lora_apply(W: np.ndarray, f: LoraFactor) -> np.ndarray:
    """Merged weight W + (alpha/r) * B @ A."""
    D = W.shape[0]
    if f.B.shape[0] != D or f.A.shape[1] != W.shape[1]:
        raise ValueError(
            f"factor shapes A{f.A.shape} B{f.B.shape} do not match weight {W.shape}"
        )
    return W + f.scale * (f.B @ f.A)


def fold_rows(x: np.ndarray) -> np.ndarray:
    """[..., D] -> [N, D]: the leading axes folded into one, for the weight
    and bias gradients that sum over every token of every sample."""
    return x.reshape(-1, x.shape[-1])


def lora_project(
    x: np.ndarray,
    W: np.ndarray,
    b: np.ndarray,
    f: LoraFactor | None,
    drop_scale: np.ndarray | None = None,
):
    """y = x @ W^T + b plus the low-rank path, for x [..., L, D]; returns
    (y, cache).

    `drop_scale` is an inverted-dropout mask applied to the low-rank path's
    input only.  A zero-initialized B adds an exact zero, so the output equals
    the base projection bit for bit.
    """
    y = x @ W.T
    y += b
    cache = {"x": x, "xa": None, "drop_scale": drop_scale}
    if f is not None:
        xd = x * drop_scale if drop_scale is not None else x
        xa = xd @ f.A.T
        cache["xa"] = xa
        cache["xd"] = xd
        cache["factor"] = f
        y += f.scale * (xa @ f.B.T)
    return y, cache


def lora_project_backward(g: np.ndarray, W: np.ndarray, cache, base_grads: bool = True):
    """Gradients for the base weight/bias, the factor, and the input.

    Weight, bias and factor gradients sum over the leading axes.  With
    `base_grads=False` (frozen base) dW and db are not formed and come back
    as None.
    """
    dW = db = None
    if base_grads:
        dW = fold_rows(g).T @ fold_rows(cache["x"])
        db = fold_rows(g).sum(axis=0)
    dx = g @ W
    factor_grads = None
    if cache["xa"] is not None:
        f = cache["factor"]
        dB = f.scale * (fold_rows(g).T @ fold_rows(cache["xa"]))
        dxa = f.scale * (g @ f.B)
        dA = fold_rows(dxa).T @ fold_rows(cache["xd"])
        dxd = dxa @ f.A
        if cache["drop_scale"] is not None:
            dxd = dxd * cache["drop_scale"]
        dx = dx + dxd
        factor_grads = {"A": dA, "B": dB}
    return dW, db, dx, factor_grads
