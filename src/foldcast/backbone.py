"""Masked-autoencoder vision transformer in plain numpy with exact backprop.

Pre-norm attention/MLP blocks, learned 1D positional embeddings over the patch
grid, a learned mask token filling the horizon region before decoding, and a
linear head back to patch pixels.  Low-rank adapters can hook the Q/K/V
projections of every encoder layer; the temporal grounding adapter slots in
between patch embedding and the positional embedding.

The model computes on one grayscale channel.  The weights keep the
pretrained 3-channel layout, `patch_embed.w [D, 3p²]` and `head.w [3p², D]`:
embedding an image replicated into three channels equals embedding the single
channel with `patch_embed.w` summed over its channel blocks, and averaging the
three decoded channels equals decoding with `head.w`/`head.b` averaged over
theirs, so the copies are never formed.

Only the patches a caller reads are decoded.  `autoencode` takes `out_idx`,
the row-major indices of those patches, and returns an image that is exact
on them and zero elsewhere; its backward reads the image gradient only
there.  Each block takes `rows`, the indices of the rows it outputs: LN1, K
and V still see every row, so the gradients of every input row stay exact,
while Q, the attention output, the residual, LN2 and the MLP run on `rows`
only.  The encoder blocks and every decoder block but the last pass
`slice(None)`; the last decoder block passes `out_idx`.  Only the visible
patches are embedded, adapted and encoded.

Every function takes leading batch axes: tokens are [..., L, D] and images
[..., H, W], and a 2-D input is the batch-free case of the same code.  The
samples of a batch share `vis_idx` and `out_idx`.  Matrix products against a
weight broadcast over the leading axes, one product per sample, so each
sample's forward is computed exactly as it would be alone; weight and bias
gradients fold the leading axes into the token axis,
`g.reshape(-1, D).T @ x.reshape(-1, D)`, and so sum over every sample of the
batch.  Folding the leading axes into the forward's products as well would
change the last bits of a sample with the batch size.

A forward handed an `rng` trains: it draws its dropout masks from it, in
call order; without one it is the eval pass and draws nothing.  A forward
that no backward follows passes `keep_cache=False`: it keeps no cache, and
each block's activations are freed as the next block runs, and its MLP
forms the GELU output in the buffers of its input and of tanh(u).
Elementwise chains (layer norm, GELU, softmax, the bias after a product)
write into their own buffers in the operation order of their formulas, so
the results are bitwise those of the formulas.  The visible patch indices
and the grounding adapter's sinusoid table depend only on the grid and the
width, and are cached read-only, keyed by plain ints.

Every function reads its tensors from one flat name -> float64 array dict,
the whole model's `ForecastModel.params`, under their checkpoint names:
`bb.<parameter>` for the base weights, `lora.enc<i>.<q|k|v>.<A|B>` and
`tga.W_proj`/`tga.w_fusion` for the adapters (the dict also holds the
aligner's `sma.*` tensors and `fuse.beta`).  Each backward adds its
gradients into one flat buffer, `grads`, under the very key its forward
read, and forms a tensor's gradient exactly when `grads` holds its name (a
layer tests its weight's and adds its bias's alongside): a frozen model's
buffer holds no `bb.*` key.  The on-disk format ("NTF1") is a
little-endian named-tensor container with bit-exact round trips.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import adapter
from .adapter import fold_rows
from .rendering import _read_only

_LN_EPS = 1e-6
_GELU_C0 = np.sqrt(2.0 / np.pi)
_GELU_C1 = 0.044715


@dataclass(frozen=True)
class BackboneConfig:
    image_height: int = 224
    image_width: int = 224
    patch_size: int = 16
    d_model: int = 512
    n_heads: int = 8
    e_layers: int = 2
    d_layers: int = 1
    d_ff: int = 2048
    dropout: float = 0.1
    frozen: bool = True

    def __post_init__(self):
        for name, least in (("d_model", 1), ("n_heads", 1), ("d_ff", 1), ("patch_size", 1),
                            ("e_layers", 0), ("d_layers", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if self.d_model % self.n_heads:
            raise ValueError(f"d_model {self.d_model} must be divisible by n_heads, "
                             f"got {self.n_heads}")
        if self.image_height % self.patch_size or self.image_width % self.patch_size:
            raise ValueError(f"image dims {self.image_height}x{self.image_width} must be "
                             f"divisible by patch_size, got {self.patch_size}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")

    @property
    def grid_rows(self) -> int:
        return self.image_height // self.patch_size

    @property
    def grid_cols(self) -> int:
        return self.image_width // self.patch_size

    @property
    def n_patches(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def patch_dim(self) -> int:
        return 3 * self.patch_size * self.patch_size


# ---------------------------------------------------------------------------
# patch handling


def patchify(image: np.ndarray, patch: int) -> np.ndarray:
    """[..., H, W] -> [..., L, patch*patch] in row-major grid order."""
    *lead, H, W = image.shape
    if H % patch or W % patch:
        raise ValueError(f"image dims {H}x{W} not divisible by patch {patch}")
    gh, gw = H // patch, W // patch
    x = image.reshape(*lead, gh, patch, gw, patch)
    return np.swapaxes(x, -3, -2).reshape(*lead, gh * gw, patch * patch)


def unpatchify(patches: np.ndarray, grid_shape: tuple[int, int], patch: int) -> np.ndarray:
    """Exact inverse of patchify."""
    gh, gw = grid_shape
    lead = patches.shape[:-2]
    x = patches.reshape(*lead, gh, gw, patch, patch)
    return np.swapaxes(x, -3, -2).reshape(*lead, gh * patch, gw * patch)


@lru_cache(maxsize=16)
def visible_indices(grid_shape: tuple[int, int], vis_cols: int) -> np.ndarray:
    """Row-major indices of patches whose grid column lies in the visible
    region; cached read-only."""
    gh, gw = grid_shape
    if not 1 <= vis_cols <= gw:
        raise ValueError(f"vis_cols {vis_cols} outside [1, {gw}]")
    cols = np.arange(gh * gw) % gw
    return _read_only(np.nonzero(cols < vis_cols)[0])


# ---------------------------------------------------------------------------
# parameter initialization


def _linear_init(rng, out_dim, in_dim):
    bound = 1.0 / np.sqrt(in_dim)
    return rng.uniform(-bound, bound, size=(out_dim, in_dim))


def _block_params(rng, prefix: str, D: int, d_ff: int, params: dict):
    params[f"bb.{prefix}.ln1.g"] = np.ones(D)
    params[f"bb.{prefix}.ln1.b"] = np.zeros(D)
    for name in ("wq", "wk", "wv", "wo"):
        params[f"bb.{prefix}.attn.{name}"] = _linear_init(rng, D, D)
    for name in ("bq", "bk", "bv", "bo"):
        params[f"bb.{prefix}.attn.{name}"] = np.zeros(D)
    params[f"bb.{prefix}.ln2.g"] = np.ones(D)
    params[f"bb.{prefix}.ln2.b"] = np.zeros(D)
    params[f"bb.{prefix}.mlp.w1"] = _linear_init(rng, d_ff, D)
    params[f"bb.{prefix}.mlp.b1"] = np.zeros(d_ff)
    params[f"bb.{prefix}.mlp.w2"] = _linear_init(rng, D, d_ff)
    params[f"bb.{prefix}.mlp.b2"] = np.zeros(D)


def init_backbone(cfg: BackboneConfig, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """The base weights under their checkpoint names, `bb.<parameter>`."""
    D, pd, L = cfg.d_model, cfg.patch_dim, cfg.n_patches
    params: dict[str, np.ndarray] = {}
    params["bb.patch_embed.w"] = _linear_init(rng, D, pd)
    params["bb.patch_embed.b"] = np.zeros(D)
    params["bb.enc_pos"] = rng.normal(0.0, 0.02, size=(L, D))
    for i in range(cfg.e_layers):
        _block_params(rng, f"enc{i}", D, cfg.d_ff, params)
    params["bb.mask_token"] = rng.normal(0.0, 0.02, size=D)
    params["bb.dec_pos"] = rng.normal(0.0, 0.02, size=(L, D))
    for i in range(cfg.d_layers):
        _block_params(rng, f"dec{i}", D, cfg.d_ff, params)
    params["bb.dec_norm.g"] = np.ones(D)
    params["bb.dec_norm.b"] = np.zeros(D)
    params["bb.head.w"] = _linear_init(rng, pd, D)
    params["bb.head.b"] = np.zeros(pd)
    return params


# ---------------------------------------------------------------------------
# primitives


def _layernorm(x, params, name):
    """Row-wise layer norm of x [..., D] with gain `<name>.g` and bias
    `<name>.b` of `params`; returns (output, cache).

    The variance comes from the centred copy, squared and summed, which is
    what `np.var` computes; the centred copy is then scaled in place into
    `xhat`, so the result is bitwise `g * (x - mu) / sqrt(var + eps) + b`.
    """
    xhat = x - x.mean(axis=-1, keepdims=True)
    var = np.square(xhat).sum(axis=-1, keepdims=True)
    var /= x.shape[-1]
    invstd = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= invstd
    g = params[f"{name}.g"]
    out = xhat * g
    out += params[f"{name}.b"]
    return out, {"xhat": xhat, "invstd": invstd, "g": g, "name": name}


def _layernorm_backward(gr, cache, grads):
    """Input gradient; adds the gain/bias gradients when `grads` holds the gain."""
    xhat, invstd, g, name = cache["xhat"], cache["invstd"], cache["g"], cache["name"]
    if f"{name}.g" in grads:
        grads[f"{name}.g"] += fold_rows(gr * xhat).sum(axis=0)
        grads[f"{name}.b"] += fold_rows(gr).sum(axis=0)
    gg = gr * g
    mg = gg.mean(axis=-1, keepdims=True)
    mgx = (gg * xhat).mean(axis=-1, keepdims=True)
    return invstd * (gg - mg - xhat * mgx)


def _gelu(x, in_place=False):
    """tanh-approximated GELU; returns (output, tanh(u)).

    u = C0 * (x + C1 * x³) is formed in one buffer, in the operation order of
    that formula, and the output is (0.5 * x) * (1 + tanh(u)).  With
    `in_place` the output is formed in x's buffer and tanh(u)'s is spent on
    1 + tanh(u), so it returns (x, None)."""
    t = x * x
    t *= x
    t *= _GELU_C1
    t += x
    t *= _GELU_C0
    np.tanh(t, out=t)
    if in_place:
        t += 1.0
        x *= 0.5
        x *= t
        return x, None
    a = np.multiply(x, 0.5)
    a *= 1.0 + t
    return a, t


def _gelu_backward(gr, x, t):
    du = _GELU_C0 * (1.0 + 3.0 * _GELU_C1 * x * x)
    return gr * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def _dropout_scale(shape, rate, rng):
    if rng is None or rate <= 0.0:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _softmax(s):
    """Softmax over the last axis, computed in place in s."""
    s -= s.max(axis=-1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _split_heads(x, n_heads):
    """[..., L, D] -> [..., n_heads, L, D / n_heads]."""
    *lead, L, D = x.shape
    return np.swapaxes(x.reshape(*lead, L, n_heads, D // n_heads), -3, -2)


def _merge_heads(x):
    """Inverse of _split_heads."""
    *lead, nh, L, dh = x.shape
    return np.swapaxes(x, -3, -2).reshape(*lead, L, nh * dh)


# ---------------------------------------------------------------------------
# attention / MLP / block


def _attn_forward(x, params, prefix, cfg, rows, lora_scale=None, rng=None, lora_drop=0.0):
    """Attention output for the rows `rows` of x; keys and values see every
    row.  With a `lora_scale` the Q, K and V projections add the low-rank
    paths of `lora.<prefix>.<q|k|v>`."""
    key = f"bb.{prefix}.attn."
    cache = {"x": x}
    proj = {}
    for name in ("q", "k", "v"):
        xin = x[..., rows, :] if name == "q" else x
        lora = f"lora.{prefix}.{name}" if lora_scale is not None else None
        drop = _dropout_scale(xin.shape, lora_drop, rng) if lora else None
        proj[name], cache[name] = adapter.lora_project(
            xin, params, key + "w" + name, key + "b" + name, lora, lora_scale, drop
        )
    q = _split_heads(proj["q"], cfg.n_heads)
    k = _split_heads(proj["k"], cfg.n_heads)
    v = _split_heads(proj["v"], cfg.n_heads)
    scores = q @ np.swapaxes(k, -1, -2)
    scores /= np.sqrt(cfg.d_model // cfg.n_heads)
    probs = _softmax(scores)
    ctx = probs @ v
    merged = _merge_heads(ctx)
    out = merged @ params[key + "wo"].T
    out += params[key + "bo"]
    drop_o = _dropout_scale(out.shape, cfg.dropout, rng)
    if drop_o is not None:
        out *= drop_o
    cache.update(probs=probs, qh=q, kh=k, vh=v, merged=merged, drop_o=drop_o, rows=rows)
    return out, cache


def _attn_backward(gr, params, prefix, cfg, cache, grads):
    key = f"bb.{prefix}.attn."
    if cache["drop_o"] is not None:
        gr = gr * cache["drop_o"]
    if key + "wo" in grads:
        grads[key + "wo"] += fold_rows(gr).T @ fold_rows(cache["merged"])
        grads[key + "bo"] += fold_rows(gr).sum(axis=0)
    gmerged = gr @ params[key + "wo"]
    gctx = _split_heads(gmerged, cfg.n_heads)
    probs, q, k, v = cache["probs"], cache["qh"], cache["kh"], cache["vh"]
    gprobs = gctx @ np.swapaxes(v, -1, -2)
    gv = np.swapaxes(probs, -1, -2) @ gctx
    gscores = probs * (gprobs - (gprobs * probs).sum(axis=-1, keepdims=True))
    gscores /= np.sqrt(cfg.d_model // cfg.n_heads)
    gq = gscores @ k
    gk = np.swapaxes(gscores, -1, -2) @ q
    gx = np.zeros_like(cache["x"])
    for name, gh in (("q", gq), ("k", gk), ("v", gv)):
        dx = adapter.lora_project_backward(_merge_heads(gh), params, cache[name], grads)
        gx[..., cache["rows"] if name == "q" else slice(None), :] += dx
    return gx


def _mlp_forward(x, params, prefix, cfg, rng=None, keep_cache=True):
    """Returns (output, cache), the cache None unless `keep_cache`; without
    it the GELU runs in its input's buffer, as no backward reads that."""
    key = f"bb.{prefix}.mlp."
    w1, b1 = params[key + "w1"], params[key + "b1"]
    w2, b2 = params[key + "w2"], params[key + "b2"]
    h = x @ w1.T
    h += b1
    a, tanh_u = _gelu(h, in_place=not keep_cache)
    drop_h = _dropout_scale(a.shape, cfg.dropout, rng)
    if drop_h is not None:
        a *= drop_h
    y = a @ w2.T
    y += b2
    drop_y = _dropout_scale(y.shape, cfg.dropout, rng)
    if drop_y is not None:
        y *= drop_y
    if not keep_cache:
        return y, None
    return y, {"x": x, "h": h, "tanh_u": tanh_u, "drop_h": drop_h, "drop_y": drop_y}


def _mlp_backward(gr, params, prefix, cache, grads):
    key = f"bb.{prefix}.mlp."
    w1, w2 = params[key + "w1"], params[key + "w2"]
    if cache["drop_y"] is not None:
        gr = gr * cache["drop_y"]
    if key + "w2" in grads:
        # the activation, recomputed with the forward's operations
        ad = 0.5 * cache["h"] * (1.0 + cache["tanh_u"])
        if cache["drop_h"] is not None:
            ad = ad * cache["drop_h"]
        grads[key + "w2"] += fold_rows(gr).T @ fold_rows(ad)
        grads[key + "b2"] += fold_rows(gr).sum(axis=0)
    gad = gr @ w2
    if cache["drop_h"] is not None:
        gad = gad * cache["drop_h"]
    gh = _gelu_backward(gad, cache["h"], cache["tanh_u"])
    if key + "w1" in grads:
        grads[key + "w1"] += fold_rows(gh).T @ fold_rows(cache["x"])
        grads[key + "b1"] += fold_rows(gh).sum(axis=0)
    return gh @ w1


def _block_forward(
    x, params, prefix, cfg, rows, lora_scale=None, rng=None, lora_drop=0.0, keep_cache=True
):
    """One pre-norm block whose output holds only the rows `rows` of x.

    LN1, K and V run on every row; Q, the attention output, the residual, LN2
    and the MLP only on `rows`.  `slice(None)` keeps every row.  Returns
    (output, cache), the cache None unless `keep_cache`.
    """
    n1, ln1 = _layernorm(x, params, f"bb.{prefix}.ln1")
    # the attention output, to which the residual is added in place
    x2, attn = _attn_forward(n1, params, prefix, cfg, rows, lora_scale, rng, lora_drop)
    x2 += x[..., rows, :]
    if not keep_cache:  # free the attention's activations before the MLP forms its own
        del n1, ln1, attn
    n2, ln2 = _layernorm(x2, params, f"bb.{prefix}.ln2")
    out, mlp = _mlp_forward(n2, params, prefix, cfg, rng, keep_cache)
    out += x2
    if not keep_cache:
        return out, None
    return out, {"ln1": ln1, "attn": attn, "ln2": ln2, "mlp": mlp}


def _block_backward(gr, params, prefix, cfg, cache, grads):
    """Gradient wrt every input row, given that of the output rows."""
    gm = _mlp_backward(gr, params, prefix, cache["mlp"], grads)
    gx2 = _layernorm_backward(gm, cache["ln2"], grads) + gr
    ga = _attn_backward(gx2, params, prefix, cfg, cache["attn"], grads)
    gx = _layernorm_backward(ga, cache["ln1"], grads)
    gx[..., cache["attn"]["rows"], :] += gx2
    return gx


# ---------------------------------------------------------------------------
# encoder / decoder


def _embed_weight(params) -> np.ndarray:
    """`patch_embed.w` [D, 3p²] summed over its channel blocks: [D, p²]."""
    w = params["bb.patch_embed.w"]
    return w.reshape(w.shape[0], 3, -1).sum(axis=1)


def _head(params) -> tuple[np.ndarray, np.ndarray]:
    """`head.w` [3p², D] and `head.b` [3p²] averaged over their channel blocks."""
    w, b = params["bb.head.w"], params["bb.head.b"]
    return w.reshape(3, -1, w.shape[1]).mean(axis=0), b.reshape(3, -1).mean(axis=0)


def embed(patches: np.ndarray, params: dict) -> np.ndarray:
    """Affine projection of single-channel pixel patches [..., L, p²] to token space."""
    tokens = patches @ _embed_weight(params).T
    tokens += params["bb.patch_embed.b"]
    return tokens


def encode(
    tokens, params, cfg: BackboneConfig, lora_scale=None, rng=None, lora_drop=0.0,
    keep_cache=True,
):
    """Run encoder blocks over (visible) tokens; returns (latent, caches).

    With a `lora_scale` every layer adds its low-rank paths.  Without
    `keep_cache` the caches are None, and each block's activations are freed
    as the next block runs."""
    x = tokens
    caches = []
    for i in range(cfg.e_layers):
        x, c = _block_forward(
            x, params, f"enc{i}", cfg, slice(None), lora_scale, rng, lora_drop, keep_cache
        )
        caches.append(c)
    return x, caches if keep_cache else None


def encode_backward(gr, params, cfg, caches, grads):
    """Gradient wrt the encoder input."""
    for i in reversed(range(cfg.e_layers)):
        gr = _block_backward(gr, params, f"enc{i}", cfg, caches[i], grads)
    return gr


def decode_with_mask_tokens(
    latent, vis_idx, out_idx, params, cfg: BackboneConfig, rng=None, keep_cache=True
):
    """Scatter visible latents into the full grid, fill the rest with the mask
    token, add decoder positions, decode, and project to single-channel patch
    pixels [..., len(out_idx), p²] for the patches `out_idx`.

    Every decoder block but the last runs on all L rows; the last one outputs
    only the rows `out_idx`, and `dec_norm` and the head run on those rows.
    Returns (patches, cache), the cache None unless `keep_cache`.
    """
    L = cfg.n_patches
    if latent.shape[-2] != vis_idx.shape[0]:
        raise ValueError(
            f"latent count {latent.shape[-2]} != visible count {vis_idx.shape[0]}"
        )
    x = np.empty((*latent.shape[:-2], L, cfg.d_model))
    x[...] = params["bb.mask_token"] + params["bb.dec_pos"]
    x[..., vis_idx, :] = latent + params["bb.dec_pos"][vis_idx]
    caches = []
    for i in range(cfg.d_layers):
        rows = out_idx if i == cfg.d_layers - 1 else slice(None)
        x, c = _block_forward(x, params, f"dec{i}", cfg, rows, None, rng, keep_cache=keep_cache)
        caches.append(c)
    n, ln = _layernorm(x, params, "bb.dec_norm")
    head_w, head_b = _head(params)
    out = n @ head_w.T
    out += head_b
    if not keep_cache:
        return out, None
    cache = {"blocks": caches, "ln": ln, "n": n, "vis_idx": vis_idx, "out_idx": out_idx}
    return out, cache


def decode_backward(gr, params, cfg, cache, grads):
    """Gradient wrt the visible latents, given that of the decoded `out_idx`
    patches."""
    head_w, _ = _head(params)
    if "bb.head.w" in grads:
        # each channel block receives a third of the single-channel gradient
        hw = grads["bb.head.w"].reshape(3, -1, cfg.d_model)
        hw += fold_rows(gr).T @ fold_rows(cache["n"]) / 3.0
        hb = grads["bb.head.b"].reshape(3, -1)
        hb += fold_rows(gr).sum(axis=0) / 3.0
    gn = gr @ head_w
    gx = _layernorm_backward(gn, cache["ln"], grads)
    for i in reversed(range(cfg.d_layers)):
        gx = _block_backward(gx, params, f"dec{i}", cfg, cache["blocks"][i], grads)
    L, D = cfg.n_patches, cfg.d_model
    vis_idx = cache["vis_idx"]
    if "bb.dec_pos" in grads:
        grads["bb.dec_pos"] += gx.reshape(-1, L, D).sum(axis=0)
    if "bb.mask_token" in grads:
        hidden = np.isin(np.arange(L), vis_idx, invert=True)  # the mask-token rows, in order
        grads["bb.mask_token"] += fold_rows(gx[..., hidden, :]).sum(axis=0)
    return gx[..., vis_idx, :]


# ---------------------------------------------------------------------------
# full autoencoder pass (one branch)


def autoencode(
    image: np.ndarray, params: dict, cfg: BackboneConfig, vis_cols: int, out_idx: np.ndarray,
    lora_scale: float | None = None, tga: bool = False, rng=None, lora_drop: float = 0.0,
    keep_cache: bool = True,
):
    """Image [..., H, W] -> visible patches -> tokens (-> TGA) -> +pos ->
    encode -> decode -> image [..., H, W]; returns (image, cache).

    Only the visible patches are embedded, and with `tga` adapted over their
    rows of `adapter.sinusoid_table(cfg.n_patches, cfg.d_model)`; with a
    `lora_scale` the encoder adds its low-rank paths.  The image
    returned is exact on the patches `out_idx` (row-major indices) and zero
    elsewhere; `np.arange(cfg.n_patches)` decodes the whole image.  Without a
    backward, `keep_cache=False` keeps no cache and returns None in its place.
    """
    grid = (cfg.grid_rows, cfg.grid_cols)
    vis_idx = visible_indices(grid, vis_cols)
    patches = patchify(image, cfg.patch_size)[..., vis_idx, :]
    tokens = embed(patches, params)
    tga_cache = None
    if tga:
        table = adapter.sinusoid_table(cfg.n_patches, cfg.d_model)[vis_idx]
        tokens, tga_cache = adapter.tga_forward(tokens, params, table)
    tokens += params["bb.enc_pos"][vis_idx]
    latent, enc_caches = encode(tokens, params, cfg, lora_scale, rng, lora_drop, keep_cache)
    out_patches, dec_cache = decode_with_mask_tokens(
        latent, vis_idx, out_idx, params, cfg, rng, keep_cache
    )
    full = np.zeros((*image.shape[:-2], cfg.n_patches, out_patches.shape[-1]))
    full[..., out_idx, :] = out_patches
    image_out = unpatchify(full, grid, cfg.patch_size)
    if not keep_cache:
        return image_out, None
    cache = {"patches": patches, "tga": tga_cache, "enc": enc_caches, "dec": dec_cache}
    return image_out, cache


def autoencode_backward(grad_image, params, cfg: BackboneConfig, cache, grads, image_grad=True):
    """Add the gradients of one branch to `grads`; return the image gradient.

    The exact adjoint of autoencode: `grad_image` is read only on the
    decoded `out_idx` patches, and the image gradient is non-zero only on the
    visible patches.  `grads` is the flat gradient buffer described in the
    module docstring: a tensor whose name it does not hold gets no gradient,
    and the adapters and the image still receive theirs.  With
    `image_grad=False` the image gradient is not formed and None comes back.
    """
    vis_idx = cache["dec"]["vis_idx"]
    gp = patchify(grad_image, cfg.patch_size)[..., cache["dec"]["out_idx"], :]
    glat = decode_backward(gp, params, cfg, cache["dec"], grads)
    gvis = encode_backward(glat, params, cfg, cache["enc"], grads)
    if "bb.enc_pos" in grads:
        grads["bb.enc_pos"][vis_idx] += gvis.reshape(-1, *gvis.shape[-2:]).sum(axis=0)
    if cache["tga"] is not None:
        adapter.tga_backward(gvis, cache["tga"], grads)
    if "bb.patch_embed.w" in grads:
        # every channel block saw the same single-channel patches
        pw = grads["bb.patch_embed.w"].reshape(cfg.d_model, 3, -1)
        pw += (fold_rows(gvis).T @ fold_rows(cache["patches"]))[:, None, :]
        grads["bb.patch_embed.b"] += fold_rows(gvis).sum(axis=0)
    if not image_grad:
        return None
    gpatches = np.zeros((*gvis.shape[:-2], cfg.n_patches, cache["patches"].shape[-1]))
    gpatches[..., vis_idx, :] = gvis @ _embed_weight(params)
    return unpatchify(gpatches, (cfg.grid_rows, cfg.grid_cols), cfg.patch_size)


# ---------------------------------------------------------------------------
# named-tensor serialization (magic "NTF1", little-endian)

_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def save_weights(path, tensors: dict[str, np.ndarray]) -> None:
    """Write a name -> array dict; row-major payloads, bit-exact round trip.

    Each payload is written from the array's own memory, not from a copy.
    """
    with open(path, "wb") as fh:
        fh.write(b"NTF1")
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr)
            code = _DTYPE_CODES.get(arr.dtype)
            if code is None:
                raise ValueError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
            arr = arr.astype(_DTYPES[code], copy=False)
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<BB", code, arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(_bytes_of(arr))


def _bytes_of(arr: np.ndarray) -> np.ndarray:
    """The bytes of a C-contiguous array, as a flat uint8 view of it."""
    return arr.reshape(-1).view(np.uint8)


def _read_index(fh, path) -> dict[str, tuple[np.dtype, tuple[int, ...], int]]:
    """name -> (dtype, shape, payload offset) of an open NTF1 file.

    Reads the headers only, seeking past every payload, and checks each
    payload against the file's size.
    """
    size = fh.seek(0, 2)
    fh.seek(0)
    magic = fh.read(4)
    if magic != b"NTF1":
        raise ValueError(f"{path}: bad magic {magic!r}")
    off = 4

    def take(fmt):
        nonlocal off
        n = struct.calcsize(fmt)
        piece = fh.read(n)
        if len(piece) < n:
            raise ValueError(f"{path}: truncated header at byte {off}")
        off += n
        return struct.unpack(fmt, piece)

    (count,) = take("<I")
    index: dict[str, tuple[np.dtype, tuple[int, ...], int]] = {}
    for _ in range(count):
        (nlen,) = take("<H")
        if off + nlen > size:
            raise ValueError(f"{path}: truncated header at byte {off}")
        try:
            name = fh.read(nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: tensor name at byte {off} is not UTF-8") from None
        off += nlen
        code, rank = take("<BB")
        if code not in _DTYPES:
            raise ValueError(f"{path}: tensor {name!r} has unknown dtype code {code}")
        shape = take(f"<{rank}I")
        dtype = _DTYPES[code]
        nbytes = math.prod(shape) * dtype.itemsize
        if off + nbytes > size:
            raise ValueError(f"{path}: truncated payload for tensor {name!r} at byte {off}")
        if name in index:
            raise ValueError(f"{path}: duplicate tensor name {name!r}")
        index[name] = (dtype, shape, off)
        off = fh.seek(off + nbytes)
    return index


def read_weights(path, out: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Read an NTF1 file into `out`, a name -> array dict that must hold
    exactly the file's names with the file's shapes; returns `out`.

    Every header is checked before the first payload is read: a truncated or
    malformed file raises ValueError naming the path and the byte offset
    where decoding stopped, and a file that does not match leaves `out`
    untouched.  Each payload is read straight into its array of `out`, and
    converted to that array's dtype if it differs.
    """
    with open(path, "rb") as fh:
        index = _read_index(fh, path)
        unknown = sorted(set(index) - set(out))
        if unknown:
            raise ValueError(f"{path}: unknown tensor names: {unknown}")
        missing = sorted(set(out) - set(index))
        if missing:
            raise ValueError(f"{path}: missing tensor names: {missing}")
        for name, (_, shape, _) in index.items():
            if shape != out[name].shape:
                raise ValueError(
                    f"{path}: tensor {name!r} has shape {shape}, expected {out[name].shape}"
                )
        for name, (dtype, shape, off) in index.items():
            fh.seek(off)
            dest = out[name]
            if dest.dtype == dtype and dest.flags.c_contiguous:
                fh.readinto(_bytes_of(dest))
            else:
                payload = fh.read(dest.size * dtype.itemsize)
                dest[...] = np.frombuffer(payload, dtype).reshape(shape)
    return out
