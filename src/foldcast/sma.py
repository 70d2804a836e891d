"""Spectral magnitude aligner: enhance the Fourier magnitude of an image while
preserving its phase, then blend residually with the input.

Forward chain: rfft2 -> (magnitude, phase) -> conv/BN/ReLU/dropout/conv stack on
the magnitude -> recombine with the original phase -> irfft2 -> residual blend
I + lam * (I_enhanced - I).  All gradients are hand-derived.  irfft2 is numpy's
real inverse FFT, a real-linear map on any half-spectrum, including one whose
edge columns (0 and W/2) are no longer Hermitian-consistent after enhancement;
the adjoints of rfft2 and irfft2 are written in closed form against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TINY = 1e-12


@dataclass
class SmaConfig:
    lam: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")


@dataclass
class EnhancerParams:
    conv1_w: np.ndarray  # [C, 1, 3, 3]
    conv1_b: np.ndarray  # [C]
    bn_gamma: np.ndarray  # [C]
    bn_beta: np.ndarray  # [C]
    bn_running_mean: np.ndarray  # [C] buffer
    bn_running_var: np.ndarray  # [C] buffer
    conv2_w: np.ndarray  # [1, C, 3, 3]
    conv2_b: np.ndarray  # [1]
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5
    dropout_rate: float = 0.1

    def grad_keys(self):
        return ("conv1_w", "conv1_b", "bn_gamma", "bn_beta", "conv2_w", "conv2_b")


def init_enhancer(rng: np.random.Generator, channels: int = 16, dropout_rate: float = 0.1) -> EnhancerParams:
    """Fan-in-scaled uniform kernels, zero biases, identity batch norm."""
    b1 = 1.0 / np.sqrt(1 * 9)
    b2 = 1.0 / np.sqrt(channels * 9)
    return EnhancerParams(
        conv1_w=rng.uniform(-b1, b1, size=(channels, 1, 3, 3)),
        conv1_b=np.zeros(channels),
        bn_gamma=np.ones(channels),
        bn_beta=np.zeros(channels),
        bn_running_mean=np.zeros(channels),
        bn_running_var=np.ones(channels),
        conv2_w=rng.uniform(-b2, b2, size=(1, channels, 3, 3)),
        conv2_b=np.zeros(1),
        dropout_rate=dropout_rate,
    )


# ---------------------------------------------------------------------------
# half-spectrum transforms


def rfft2(image: np.ndarray) -> np.ndarray:
    """Real 2D FFT onto the non-negative horizontal frequencies [H, W/2+1]."""
    image = np.asarray(image)
    H, W = image.shape
    if H < 2 or W < 2:
        raise ValueError("rfft2 needs H, W >= 2")
    if W % 2:
        raise ValueError("rfft2 requires even W")
    return np.fft.rfft2(image)


def irfft2(hs: np.ndarray, H: int, W: int) -> np.ndarray:
    """Inverse of rfft2: numpy's irfft2 of a half-spectrum [H, W/2+1] to [H, W].

    numpy inverts along H first, then takes the real inverse along W, which
    reads only the real part of columns 0 and W/2.  On a half-spectrum whose
    edge columns are not Hermitian-consistent this is the real part of the
    inverse 2D DFT of its Hermitian extension, a real-linear map.
    """
    Hs, Wh = hs.shape
    if Hs != H:
        raise ValueError(f"half-spectrum height {Hs} != H={H}")
    if Wh != W // 2 + 1 or W % 2:
        raise ValueError(f"half-spectrum width {Wh} does not match even W={W}")
    return np.fft.irfft2(hs, s=(H, W))


def rfft2_adjoint(grad_hs: np.ndarray, H: int, W: int) -> np.ndarray:
    """Adjoint of rfft2 as a real-linear map (gradient wrt the input image).

    irfft2 counts each interior column twice, through its Hermitian mirror;
    halving those columns makes it H*W times the adjoint of rfft2.
    """
    g = np.array(grad_hs, dtype=np.complex128)
    g[:, 1 : W // 2] *= 0.5
    return irfft2(g, H, W) * (H * W)


def irfft2_adjoint(grad_image: np.ndarray, W: int) -> np.ndarray:
    """Adjoint of irfft2: real image gradient back to half-spectrum gradient.

    Interior columns appear twice in the Hermitian extension, hence the factor
    of two; columns 0 and W/2 appear once.
    """
    g = np.asarray(grad_image, dtype=np.float64)
    H = g.shape[0]
    out = np.fft.rfft2(g) / (H * W)
    out[:, 1 : W // 2] *= 2.0
    return out


def decompose(hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-spectrum -> (magnitude, phase)."""
    return np.abs(hs), np.angle(hs)


def recombine(magnitude: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """(magnitude, phase) -> half-spectrum; negative magnitudes flip phase by pi."""
    if magnitude.shape != phase.shape:
        raise ValueError("magnitude and phase shapes differ")
    return magnitude * np.exp(1j * phase)


# ---------------------------------------------------------------------------
# conv / batchnorm / dropout primitives (3x3, stride 1, zero pad 1)
#
# A 3x3 convolution is one matrix product against nine shifted copies
# ("taps") of its input or output, whichever has fewer channels: with C input
# and O output channels, copying the C side costs 9C images, the O side 9O.
# Tap k = 3i + j of x [C, H, W] is x_pad[:, i:i+H, j:j+W]; `_shift_add`, the
# adjoint of `_taps`, adds tap k back at offset (i, j).  Reversing the tap
# axis, k -> 8 - k, mirrors the kernel.


def _taps(x: np.ndarray) -> np.ndarray:
    """[C, H, W] -> [C, 9, H, W], the nine zero-padded shifts of x."""
    C, H, W = x.shape
    xp = np.zeros((C, H + 2, W + 2))
    xp[:, 1 : 1 + H, 1 : 1 + W] = x
    out = np.empty((C, 9, H, W))
    for k in range(9):
        i, j = divmod(k, 3)
        out[:, k] = xp[:, i : i + H, j : j + W]
    return out


def _shift_add(z: np.ndarray) -> np.ndarray:
    """Adjoint of _taps: [C, 9, H, W] -> [C, H, W]."""
    C, _, H, W = z.shape
    out = np.zeros((C, H + 2, W + 2))
    for k in range(9):
        i, j = divmod(k, 3)
        out[:, i : i + H, j : j + W] += z[:, k]
    return out[:, 1 : 1 + H, 1 : 1 + W]


def conv3x3(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-correlation of x [C, H, W] with w [O, C, 3, 3], plus b [O]."""
    C, H, W = x.shape
    O = w.shape[0]
    if C <= O:
        out = w.reshape(O, C * 9) @ _taps(x).reshape(C * 9, H * W)
    else:  # each tap of the output is a product over the channels of x
        z = w.transpose(0, 2, 3, 1).reshape(O * 9, C) @ x.reshape(C, H * W)
        out = _shift_add(z.reshape(O, 9, H, W)[:, ::-1])
    return out.reshape(O, H, W) + b[:, None, None]


def conv3x3_backward(g: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients wrt w, b and x, given g [O, H, W] of conv3x3's output."""
    C, H, W = x.shape
    O = w.shape[0]
    g2 = g.reshape(O, H * W)
    if C <= O:
        gw = g2 @ _taps(x).reshape(C * 9, H * W).T
        gx = _shift_add((w.reshape(O, C * 9).T @ g2).reshape(C, 9, H, W))
    else:
        gtaps = _taps(g)[:, ::-1].reshape(O * 9, H * W)
        gw = (gtaps @ x.reshape(C, H * W).T).reshape(O, 9, C).transpose(0, 2, 1)
        gx = w.reshape(O, C, 9).transpose(1, 0, 2).reshape(C, O * 9) @ gtaps
    return gw.reshape(w.shape), g.sum(axis=(1, 2)), gx.reshape(C, H, W)


def _bn_forward(x, p: EnhancerParams, train: bool):
    if train:
        mean = x.mean(axis=(1, 2))
        var = x.var(axis=(1, 2))  # population variance for normalization
        n = x.shape[1] * x.shape[2]
        unbiased = var * n / max(n - 1, 1)
        p.bn_running_mean = (1 - p.bn_momentum) * p.bn_running_mean + p.bn_momentum * mean
        p.bn_running_var = (1 - p.bn_momentum) * p.bn_running_var + p.bn_momentum * unbiased
    else:
        mean = p.bn_running_mean
        var = p.bn_running_var
    invstd = 1.0 / np.sqrt(var + p.bn_eps)
    xhat = (x - mean[:, None, None]) * invstd[:, None, None]
    out = p.bn_gamma[:, None, None] * xhat + p.bn_beta[:, None, None]
    return out, {"xhat": xhat, "invstd": invstd, "train": train}


def _bn_backward(g, cache, p: EnhancerParams):
    xhat = cache["xhat"]
    invstd = cache["invstd"][:, None, None]
    dgamma = (g * xhat).sum(axis=(1, 2))
    dbeta = g.sum(axis=(1, 2))
    gg = g * p.bn_gamma[:, None, None]
    if cache["train"]:
        # the means of gg and gg * xhat over each channel, from the sums above
        n = xhat.shape[1] * xhat.shape[2]
        mg = (p.bn_gamma * dbeta / n)[:, None, None]
        mgx = (p.bn_gamma * dgamma / n)[:, None, None]
        dx = invstd * (gg - mg - xhat * mgx)
    else:
        dx = gg * invstd
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# enhancer and full aligner


def enhancer_forward(A: np.ndarray, p: EnhancerParams, train: bool = False, rng=None):
    """Conv -> BN -> ReLU -> dropout -> conv on the magnitude spectrum.

    Returns (A_enhanced, cache); cache records everything backward needs,
    including the dropout mask, so train-mode gradients are exact.  Of the
    [C, H, W/2+1] activations it keeps only the normalized one and two
    boolean masks; backward recomputes the input of the second convolution.
    """
    x0 = A[None, :, :]
    h1 = conv3x3(x0, p.conv1_w, p.conv1_b)
    h2, bn_cache = _bn_forward(h1, p, train)
    relu_mask = h2 > 0
    keep = None
    if train and p.dropout_rate > 0:
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        keep = rng.random(h2.shape) >= p.dropout_rate
    h5 = conv3x3(_mask(h2, relu_mask, keep, p), p.conv2_w, p.conv2_b)
    cache = {"x0": x0, "bn": bn_cache, "relu_mask": relu_mask, "keep": keep}
    return h5[0], cache


def _mask(x, relu_mask, keep, p: EnhancerParams):
    """x times the ReLU mask and the inverted-dropout scale.  Given the masks
    this map is diagonal, hence its own adjoint."""
    x = x * relu_mask
    return x * (keep / (1.0 - p.dropout_rate)) if keep is not None else x


def enhancer_backward(g_out: np.ndarray, cache, p: EnhancerParams):
    """Gradients of the enhancer wrt its parameters and its input magnitude."""
    g = g_out[None, :, :]
    bn, relu_mask, keep = cache["bn"], cache["relu_mask"], cache["keep"]
    h2 = p.bn_gamma[:, None, None] * bn["xhat"] + p.bn_beta[:, None, None]
    gw2, gb2, gh4 = conv3x3_backward(g, _mask(h2, relu_mask, keep, p), p.conv2_w)
    gh1, dgamma, dbeta = _bn_backward(_mask(gh4, relu_mask, keep, p), bn, p)
    gw1, gb1, gx0 = conv3x3_backward(gh1, cache["x0"], p.conv1_w)
    grads = {
        "conv1_w": gw1,
        "conv1_b": gb1,
        "bn_gamma": dgamma,
        "bn_beta": dbeta,
        "conv2_w": gw2,
        "conv2_b": gb2,
    }
    return grads, gx0[0]


def sma_forward(
    image: np.ndarray,
    p: EnhancerParams,
    cfg: SmaConfig,
    train: bool = False,
    rng=None,
):
    """Full aligner pass; returns (blended image, cache for backward)."""
    I = np.asarray(image, dtype=np.float64)
    H, W = I.shape
    F = rfft2(I)
    A, phi = decompose(F)
    A_enh, enh_cache = enhancer_forward(A, p, train, rng)
    Fp = recombine(A_enh, phi)
    I_enh = irfft2(Fp, H, W)
    out = I + cfg.lam * (I_enh - I)
    cache = {
        "A": A,
        "phi": phi,
        "A_enh": A_enh,
        "enh": enh_cache,
        "shape": (H, W),
        "lam": cfg.lam,
        "I_enh": I_enh,
    }
    return out, cache


def sma_backward(grad_out: np.ndarray, cache, p: EnhancerParams):
    """Gradients of the aligner wrt enhancer parameters and the input image."""
    H, W = cache["shape"]
    lam = cache["lam"]
    g = np.asarray(grad_out, dtype=np.float64)
    g_image = (1.0 - lam) * g
    g_enh_img = lam * g

    gFp = irfft2_adjoint(g_enh_img, W)
    cos_phi = np.cos(cache["phi"])
    sin_phi = np.sin(cache["phi"])
    gA_enh = gFp.real * cos_phi + gFp.imag * sin_phi
    gphi = cache["A_enh"] * (-sin_phi * gFp.real + cos_phi * gFp.imag)

    grads, gA = enhancer_backward(gA_enh, cache["enh"], p)

    A_safe = np.maximum(cache["A"], _TINY)
    phase_ok = cache["A"] > _TINY
    gF_re = gA * cos_phi + np.where(phase_ok, -gphi * sin_phi / A_safe, 0.0)
    gF_im = gA * sin_phi + np.where(phase_ok, gphi * cos_phi / A_safe, 0.0)
    g_image = g_image + rfft2_adjoint(gF_re + 1j * gF_im, H, W)
    return grads, g_image
