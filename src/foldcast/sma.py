"""Spectral magnitude aligner: enhance the Fourier magnitude of an image while
preserving its phase, then blend residually with the input.

Forward chain: rfft2 -> magnitude np.abs and phase np.angle -> conv/BN/ReLU/
dropout/conv stack on the magnitude -> times exp(i * phase) -> irfft2 ->
residual blend I + lam * (I_enhanced - I), on images [..., H, W] whose leading
axes are a batch: batch norm takes each image's own statistics, and the
parameter gradients are summed over the images.  The first convolution has a
single input channel, so batch norm folds into it: one product against the
nine shifted copies of the magnitude gives the normalized activation, in train
mode from the 9x9 covariance of those copies.  A pass trains exactly when it
is handed an rng, which draws its dropout masks.  All gradients are
hand-derived and cover the enhancer's parameters only; the image gradient is
never formed, since nothing before the aligner is trained, and the cache keeps
only what backward reads: the phase, lam and the enhancer's cache.  irfft2 is
numpy's real inverse FFT, a real-linear map on any half-spectrum, including
one whose edge columns (0 and W/2) are no longer Hermitian-consistent after
enhancement; its adjoint is written in closed form against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5


@dataclass
class SmaConfig:
    lam: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam (residual_weight) must lie in [0, 1], got {self.lam}")


# the batch norm's running statistics: checkpointed, updated in forward, never trained
BUFFERS = ("sma.bn_running_mean", "sma.bn_running_var")


def init_enhancer(rng: np.random.Generator, channels: int = 16) -> dict[str, np.ndarray]:
    """The enhancer's tensors under their checkpoint names, `sma.<name>`:
    fan-in-scaled uniform kernels, zero biases and an identity batch norm."""
    b1 = 1.0 / np.sqrt(1 * 9)
    b2 = 1.0 / np.sqrt(channels * 9)
    return {
        "sma.conv1_w": rng.uniform(-b1, b1, size=(channels, 1, 3, 3)),
        "sma.conv1_b": np.zeros(channels),
        "sma.bn_gamma": np.ones(channels),
        "sma.bn_beta": np.zeros(channels),
        "sma.conv2_w": rng.uniform(-b2, b2, size=(1, channels, 3, 3)),
        "sma.conv2_b": np.zeros(1),
        "sma.bn_running_mean": np.zeros(channels),
        "sma.bn_running_var": np.ones(channels),
    }


# ---------------------------------------------------------------------------
# half-spectrum transforms


def rfft2(image: np.ndarray) -> np.ndarray:
    """Real 2D FFT of [..., H, W] onto the non-negative horizontal frequencies."""
    image = np.asarray(image)
    H, W = image.shape[-2:]
    if H < 2 or W < 2:
        raise ValueError("rfft2 needs H, W >= 2")
    if W % 2:
        raise ValueError("rfft2 requires even W")
    return np.fft.rfft2(image)


def irfft2(hs: np.ndarray) -> np.ndarray:
    """Inverse of rfft2: numpy's irfft2 of a half-spectrum [..., H, W/2+1].

    W is even, as rfft2 requires, so the half-spectrum's width fixes it.
    numpy inverts along H first, then takes the real inverse along W, which
    reads only the real part of columns 0 and W/2.  On a half-spectrum whose
    edge columns are not Hermitian-consistent this is the real part of the
    inverse 2D DFT of its Hermitian extension, a real-linear map.
    """
    H, Wh = hs.shape[-2:]
    return np.fft.irfft2(hs, s=(H, 2 * (Wh - 1)))


def irfft2_adjoint(grad_image: np.ndarray) -> np.ndarray:
    """Adjoint of irfft2: real image gradient back to half-spectrum gradient.

    Interior columns appear twice in the Hermitian extension, hence the factor
    of two; columns 0 and W/2 appear once.
    """
    g = np.asarray(grad_image, dtype=np.float64)
    H, W = g.shape[-2:]
    out = np.fft.rfft2(g) / (H * W)
    out[..., 1 : W // 2] *= 2.0
    return out


# ---------------------------------------------------------------------------
# 3x3 convolutions (stride 1, zero pad 1)
#
# A 3x3 convolution is one matrix product of the [O * 9, C] kernel against the
# input's channels, giving the nine shifted copies ("taps") of each output
# channel.  Tap k = 3i + j of x [..., H, W] is x_pad[..., i:i+H, j:j+W];
# `_shift_add`, the adjoint of `_taps`, adds tap k back at offset (i, j).
# Reversing the tap axis, k -> 8 - k, mirrors the kernel.


def _taps(x: np.ndarray) -> np.ndarray:
    """[..., H, W] -> [..., 9, H, W], the nine zero-padded shifts of x."""
    *lead, H, W = x.shape
    xp = np.zeros((*lead, H + 2, W + 2))
    xp[..., 1 : 1 + H, 1 : 1 + W] = x
    out = np.empty((*lead, 9, H, W))
    for k in range(9):
        i, j = divmod(k, 3)
        out[..., k, :, :] = xp[..., i : i + H, j : j + W]
    return out


def _shift_add(z: np.ndarray) -> np.ndarray:
    """Adjoint of _taps: [..., 9, H, W] -> [..., H, W]."""
    *lead, _, H, W = z.shape
    out = np.zeros((*lead, H + 2, W + 2))
    for k in range(9):
        i, j = divmod(k, 3)
        out[..., i : i + H, j : j + W] += z[..., k, :, :]
    return out[..., 1 : 1 + H, 1 : 1 + W]


def conv3x3(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross-correlation of x [..., C, H, W] with w [O, C, 3, 3], plus b [O]."""
    *lead, C, H, W = x.shape
    O = w.shape[0]
    z = w.transpose(0, 2, 3, 1).reshape(O * 9, C) @ x.reshape(*lead, C, H * W)
    return _shift_add(z.reshape(*lead, O, 9, H, W)[..., ::-1, :, :]) + b[:, None, None]


def conv3x3_backward(g: np.ndarray, x: np.ndarray, w: np.ndarray):
    """Gradients wrt w, b and x, given g [..., O, H, W] of conv3x3's output;
    those of w and b keep the leading axes, one per sample."""
    *lead, C, H, W = x.shape
    O = w.shape[0]
    gtaps = _taps(g)[..., ::-1, :, :].reshape(*lead, O * 9, H * W)
    gw = (gtaps @ x.reshape(*lead, C, H * W).swapaxes(-1, -2)).reshape(*lead, O, 9, C)
    gx = w.reshape(O, C, 9).transpose(1, 0, 2).reshape(C, O * 9) @ gtaps
    return (gw.swapaxes(-1, -2).reshape(*lead, *w.shape), g.sum(axis=(-2, -1)),
            gx.reshape(*lead, C, H, W))


# ---------------------------------------------------------------------------
# enhancer and full aligner
#
# conv1 has one input channel, so channel c of its output is w1[c] . X + b1[c]
# over the nine taps X [9, n] of the magnitude (n = H * (W/2+1)), and batch
# norm after it is affine in X as well.  In train mode the batch statistics are
# w1 @ xbar + b1 and ((w1 @ S) * w1).sum(1), with xbar the mean tap and S the
# 9x9 covariance of the centred taps Xc = X - xbar; in eval mode the centre is
# 0 and the statistics are the running ones.  Either way BN(conv1(A)) is the
# one product (gamma * invstd * w1) @ Xc plus a per-channel constant, so
# neither conv1's output nor the normalized activation is ever formed.


def enhancer_forward(A: np.ndarray, p: dict, rng=None, dropout_rate: float = 0.1):
    """Conv -> BN -> ReLU -> dropout -> conv on magnitude spectra [..., H, W/2+1],
    with the `sma.*` tensors of `p`.

    Returns (A_enhanced, cache); cache records everything backward needs,
    including the dropout mask, so train-mode gradients are exact: the input
    A, from which backward rebuilds the taps, the masked [..., C, H, W/2+1]
    activation and its boolean mask (ReLU and dropout together), and the
    batch-norm terms.  The inverted-dropout scale is a scalar on conv2, so it
    scales conv2's weights.  The running statistics take one train-mode update
    per image, in order and in place, so arrays held from the model stay its own.
    """
    b1 = p["sma.conv1_b"]
    running_mean, running_var = p["sma.bn_running_mean"], p["sma.bn_running_var"]
    C = len(b1)
    *lead, H, Wh = A.shape
    n = H * Wh
    w1 = p["sma.conv1_w"].reshape(C, 9)
    X = _taps(A).reshape(*lead, 9, n)
    S = None
    if rng is not None:
        centre = X.mean(axis=-1)
        X -= centre[..., None]  # an uncentred Gram loses digits to a large offset
        S = X @ X.swapaxes(-1, -2) / n
        mean = (w1 @ centre[..., None])[..., 0] + b1
        var = ((w1 @ S) * w1).sum(axis=-1)  # population variance for normalization
        unbiased = var * n / max(n - 1, 1)
        for m, u in zip(mean.reshape(-1, C), unbiased.reshape(-1, C)):
            running_mean *= 1 - _BN_MOMENTUM
            running_mean += _BN_MOMENTUM * m
            running_var *= 1 - _BN_MOMENTUM
            running_var += _BN_MOMENTUM * u
    else:
        centre = np.zeros(9)
        mean, var = running_mean, running_var
    invstd = 1.0 / np.sqrt(var + _BN_EPS)
    scale = p["sma.bn_gamma"] * invstd
    d = b1 + (w1 @ centre[..., None])[..., 0] - mean  # conv1(A) - mean = w1 @ Xc + d
    h = (scale[..., None] * w1) @ X
    del X  # backward rebuilds the taps; freed before conv2 forms its own
    h += (scale * d + p["sma.bn_beta"])[..., None]
    live = h > 0
    drop_scale = 1.0
    if rng is not None and dropout_rate > 0:
        live &= rng.random((*lead, C, n)) >= dropout_rate
        drop_scale = 1.0 / (1.0 - dropout_rate)
    h *= live
    a = h.reshape(*lead, C, H, Wh)
    out = conv3x3(a, p["sma.conv2_w"] * drop_scale, p["sma.conv2_b"])
    cache = {"A": A, "a": a, "live": live, "centre": centre, "S": S, "invstd": invstd,
             "d": d, "drop_scale": drop_scale}
    return out[..., 0, :, :], cache


def enhancer_backward(g_out: np.ndarray, cache, p: dict, grads) -> None:
    """Add the gradients of the enhancer wrt its parameters, summed over the
    images, into `grads` under the names of `p` that the forward read.

    With g the gradient of the batch norm's output (conv2's input gradient
    times the mask) and P = g @ Xc.T, the batch-norm and conv1 gradients
    come from P, the channel sums of g and the 9x9 covariance S: no pass over
    the activations beyond the mask and the two products.
    """
    a, live, invstd, d = cache["a"], cache["live"], cache["invstd"], cache["d"]
    *lead, C, H, Wh = a.shape
    s = cache["drop_scale"]
    gw2, gb2, g = conv3x3_backward(g_out[..., None, :, :], a, p["sma.conv2_w"] * s)
    g = g.reshape(*lead, C, H * Wh)
    g *= live
    X = _taps(cache["A"]).reshape(*lead, 9, H * Wh)
    X -= cache["centre"][..., None]
    w1 = p["sma.conv1_w"].reshape(C, 9)
    dbeta = g.sum(axis=-1)
    P = g @ X.swapaxes(-1, -2)
    dgamma = invstd * ((P * w1).sum(axis=-1) + d * dbeta)
    gs = p["sma.bn_gamma"] * invstd
    if cache["S"] is None:  # eval mode: batch norm is a fixed affine map
        gw1, gb1 = gs[..., None] * P, gs * dbeta
    else:
        # conv1's output gradient is invstd * (gamma g - mean(gamma g) - xhat *
        # mean(gamma g xhat)) with xhat = invstd * w1 @ Xc (d is 0 here); the
        # centred taps sum to 0, so the mean terms leave gw1 only through
        # xhat @ Xc.T = n * invstd * w1 @ S, and gb1 is 0: BN removes conv1's bias
        gw1 = gs[..., None] * (P - (invstd * dgamma)[..., None] * (w1 @ cache["S"]))
        gb1 = np.zeros(C)
    per_image = {"sma.conv1_w": gw1, "sma.conv1_b": gb1, "sma.bn_gamma": dgamma,
                 "sma.bn_beta": dbeta, "sma.conv2_w": gw2 * s, "sma.conv2_b": gb2}
    for k, v in per_image.items():
        # add the images up in order, as one-image calls would (np.sum may pair them)
        grads[k] += np.add.accumulate(v.reshape(-1, *p[k].shape))[-1]


def sma_forward(
    image: np.ndarray, p: dict, cfg: SmaConfig, rng=None, keep_cache: bool = True,
    dropout_rate: float = 0.1,
):
    """Full aligner pass with the `sma.*` tensors of `p`; returns (blended
    images, cache for backward).  `dropout_rate` is that of the enhancer's
    activations, drawn only in train mode.

    The cache holds what sma_backward reads: the phase, lam and the
    enhancer's cache.  When no backward follows, `keep_cache=False` keeps no
    cache and returns None in its place."""
    I = np.asarray(image, dtype=np.float64)
    F = rfft2(I)
    phi = np.angle(F)
    A_enh, enh_cache = enhancer_forward(np.abs(F), p, rng, dropout_rate)
    I_enh = irfft2(A_enh * np.exp(1j * phi))
    out = I + cfg.lam * (I_enh - I)
    if not keep_cache:
        return out, None
    return out, {"phi": phi, "lam": cfg.lam, "enh": enh_cache}


def sma_backward(grad_out: np.ndarray, cache, p: dict, grads) -> None:
    """Add the gradients of the aligner wrt the enhancer parameters into
    `grads`.

    The input image's gradient is not formed: the aligner's input is the
    rendering, and nothing upstream of it is trainable.
    """
    gFp = irfft2_adjoint(cache["lam"] * np.asarray(grad_out, dtype=np.float64))
    gA_enh = gFp.real * np.cos(cache["phi"]) + gFp.imag * np.sin(cache["phi"])
    enhancer_backward(gA_enh, cache["enh"], p, grads)
