"""Structural adapters: sinusoidal temporal grounding of patch embeddings and
low-rank updates of attention projections.

The grounding adapter assigns each patch its flattened grid index, looks up a
sinusoidal encoding, projects it through a learnable D x D matrix, and adds the
result through a sigmoid gate: X + sigmoid(w) * (P_temp @ W_proj^T).  The
low-rank update is W' = W + (alpha/r) * B @ A with B zero-initialized so the
adapted model starts exactly at the frozen base.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .rendering import _read_only


def init_tga(rng: np.random.Generator, D: int) -> dict[str, np.ndarray]:
    """The grounding adapter's tensors under their checkpoint names:
    `tga.W_proj` [D, D] and the gate logit `tga.w_fusion`, a shape-(1,)
    array so that it updates in place."""
    bound = 1.0 / np.sqrt(D)
    return {"tga.W_proj": rng.uniform(-bound, bound, size=(D, D)), "tga.w_fusion": np.zeros(1)}


def init_lora(rng: np.random.Generator, D: int, rank: int, e_layers: int) -> dict[str, np.ndarray]:
    """The low-rank factors of every encoder layer's Q, K and V projections,
    in that order: `lora.enc<i>.<q|k|v>.A` [r, D] drawn from N(0, 0.02²) and
    `.B` [D, r] zero."""
    if not 1 <= rank <= D:
        raise ValueError(f"rank must lie in [1, {D}], got {rank}")
    out = {}
    for i in range(e_layers):
        for n in ("q", "k", "v"):
            out[f"lora.enc{i}.{n}.A"] = rng.normal(0.0, 0.02, size=(rank, D))
            out[f"lora.enc{i}.{n}.B"] = np.zeros((D, rank))
    return out


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


def tga_forward(X: np.ndarray, params: dict, table: np.ndarray):
    """X + sigmoid(tga.w_fusion) * (table @ tga.W_proj^T) for tokens X [..., L, D];
    returns (output, cache)."""
    if X.shape[-2:] != table.shape:
        raise ValueError(f"token shape {X.shape} != table shape {table.shape}")
    g = float(sigmoid(params["tga.w_fusion"])[0])
    proj = table @ params["tga.W_proj"].T
    out = X + g * proj
    return out, {"g": g, "proj": proj, "table": table}


def tga_backward(grad_out: np.ndarray, cache, grads) -> None:
    """Add the gradients wrt `tga.W_proj` and `tga.w_fusion` into `grads`.
    The adapter adds to the tokens, so the incoming tokens' gradient is
    `grad_out` itself."""
    g = cache["g"]
    summed = grad_out.reshape(-1, *grad_out.shape[-2:]).sum(axis=0)  # over the samples
    grads["tga.W_proj"] += g * summed.T @ cache["table"]
    grads["tga.w_fusion"] += g * (1.0 - g) * float(np.sum(grad_out * cache["proj"]))


def lora_apply(W: np.ndarray, A: np.ndarray, B: np.ndarray, scale: float) -> np.ndarray:
    """Merged weight W + scale * B @ A, the scale being alpha / r."""
    if B.shape[0] != W.shape[0] or A.shape[1] != W.shape[1]:
        raise ValueError(f"factor shapes A{A.shape} B{B.shape} do not match weight {W.shape}")
    return W + scale * (B @ A)


def fold_rows(x: np.ndarray) -> np.ndarray:
    """[..., D] -> [N, D]: the leading axes folded into one, for the weight
    and bias gradients that sum over every token of every sample."""
    return x.reshape(-1, x.shape[-1])


def lora_project(x: np.ndarray, params: dict, w: str, b: str, lora: str | None = None,
                 scale: float = 1.0, drop_scale: np.ndarray | None = None):
    """y = x @ params[w]^T + params[b] for x [..., L, D], plus, when `lora`
    names a factor pair, the low-rank path scale * (x @ A^T) @ B^T with
    A = params[lora + ".A"] and B = params[lora + ".B"]; returns (y, cache).

    `drop_scale` is an inverted-dropout mask applied to the low-rank path's
    input only.  A zero-initialized B adds an exact zero, so the output equals
    the base projection bit for bit.
    """
    y = x @ params[w].T
    y += params[b]
    cache = {"x": x, "w": w, "b": b, "lora": lora, "scale": scale, "drop_scale": drop_scale}
    if lora is not None:
        xd = x * drop_scale if drop_scale is not None else x
        xa = xd @ params[lora + ".A"].T
        cache.update(xa=xa, xd=xd)
        y += scale * (xa @ params[lora + ".B"].T)
    return y, cache


def lora_project_backward(g: np.ndarray, params: dict, cache, grads) -> np.ndarray:
    """Input gradient of `lora_project`, given g of its output.

    Every gradient is added into `grads` under the name the forward read and
    sums over the leading axes.  The weight and bias gradients are formed
    exactly when `grads` holds the weight's name; the factor pair always trains.
    """
    if cache["w"] in grads:
        grads[cache["w"]] += fold_rows(g).T @ fold_rows(cache["x"])
        grads[cache["b"]] += fold_rows(g).sum(axis=0)
    dx = g @ params[cache["w"]]
    lora = cache["lora"]
    if lora is not None:
        s = cache["scale"]
        grads[lora + ".B"] += s * (fold_rows(g).T @ fold_rows(cache["xa"]))
        dxa = s * (g @ params[lora + ".B"])
        grads[lora + ".A"] += fold_rows(dxa).T @ fold_rows(cache["xd"])
        dxd = dxa @ params[lora + ".A"]
        if cache["drop_scale"] is not None:
            dxd = dxd * cache["drop_scale"]
        dx = dx + dxd
    return dx
