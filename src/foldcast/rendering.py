"""Periodic folding of 1-D windows into 2-D grayscale images and its inverse.

A context of T steps is left-padded by replication to a multiple of the
periodicity P, folded into a P x F grid (each column = one period of P
consecutive steps), resized to the visible region of the target image, and
composed with a zero-valued masked region standing in for the horizon.  The
inverse maps a decoded image back to a forecast by resizing to the full
period grid and unfolding column-major.

Every function takes leading batch axes: contexts [..., T], grids and images
[..., H, W], forecasts [..., H].  The samples of a batch share one geometry
(T, the horizon and the spec), so one rendering describes them all, and a
1-D context is the batch-free case of the same code.

The tables that depend only on the geometry (each axis's interpolation
sources and weights, its interpolation matrix, the patches that reconstruct
reads) are built once per geometry, keyed by plain ints, and cached read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class RenderSpec:
    periodicity: int = 24
    image_height: int = 224
    image_width: int = 224
    align_const: float = 0.4
    patch_size: int = 16

    def __post_init__(self):
        if self.periodicity < 1:
            raise ValueError(f"periodicity must be positive, got {self.periodicity}")
        if self.patch_size < 1:
            raise ValueError(f"patch_size must be at least 1, got {self.patch_size}")
        if self.image_height % self.patch_size or self.image_width % self.patch_size:
            raise ValueError(f"image dims {self.image_height}x{self.image_width} must be "
                             f"divisible by patch_size, got {self.patch_size}")
        if self.image_width < 2 * self.patch_size:  # one visible and one masked column
            raise ValueError(f"image_size {self.image_width} < 2 * patch_size {self.patch_size}")
        if not 0.0 < self.align_const <= 1.0:
            raise ValueError(f"align_const must lie in (0, 1], got {self.align_const}")


@dataclass(frozen=True)
class RenderedImage:
    pixels: np.ndarray  # [..., image_height, image_width]
    visible_width: int
    masked_width: int
    pad_len: int
    periods_context: int
    context_len: int
    horizon_len: int
    spec: RenderSpec

    @property
    def periods_total(self) -> int:
        p = self.spec.periodicity
        horizon_pad = -(-self.horizon_len // p) * p  # horizon rounded up to whole periods
        return (self.context_len + self.pad_len + horizon_pad) // p

    @property
    def read_patches(self) -> np.ndarray:
        """Row-major indices of the patches that hold every pixel reconstruct reads.

        The horizon's period-grid rows and columns interpolate between their
        i0 and i1 source pixels on each axis (i1 counts even at weight 0); a
        patch is read when its patch row holds a source row and its patch
        column a source column.  The array is cached and read-only.
        """
        spec = self.spec
        return _read_patches(
            spec.image_height, spec.image_width, spec.patch_size, spec.periodicity,
            self.periods_total, self.pad_len + self.context_len, self.horizon_len,
        )


@lru_cache(maxsize=16)
def _read_patches(
    img_h: int, img_w: int, p: int, P: int, periods_total: int, start: int, horizon_len: int
) -> np.ndarray:
    """`RenderedImage.read_patches` of the horizon steps [start, start +
    horizon_len) of a P x periods_total grid, resized to img_h x img_w."""
    k = np.arange(horizon_len) + start
    y0, y1, _, _ = _interp_weights(img_h, P)
    x0, x1, _, _ = _interp_weights(img_w, periods_total)
    rows, cols = k % P, k // P
    read = np.zeros((img_h // p, img_w // p), dtype=bool)
    read[np.ix_(np.r_[y0[rows], y1[rows]] // p, np.r_[x0[cols], x1[cols]] // p)] = True
    return _read_only(np.flatnonzero(read))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def pad_left_replicate(x: np.ndarray, P: int) -> np.ndarray:
    """Prepend copies of x[..., 0] until the length is divisible by P."""
    x = np.asarray(x, dtype=np.float64)
    p_l = (P - x.shape[-1] % P) % P
    if p_l == 0:
        return x
    return np.concatenate([np.repeat(x[..., :1], p_l, axis=-1), x], axis=-1)


def fold_to_grid(x: np.ndarray, P: int) -> np.ndarray:
    """Fold series [..., P*F] into [..., P, F] grids, one period per column."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] % P:
        raise ValueError(f"length {x.shape[-1]} not divisible by periodicity {P}")
    return x.reshape(*x.shape[:-1], -1, P).swapaxes(-1, -2)


def unfold_from_grid(grid: np.ndarray) -> np.ndarray:
    """Inverse of fold_to_grid: column-major read-out back to series [..., P*F]."""
    grid = np.asarray(grid)
    return grid.swapaxes(-1, -2).reshape(*grid.shape[:-2], -1)


def resize_bilinear(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize with half-pixel centers and edge clamping.

    Source coordinate for output index i is (i + 0.5) * in/out - 0.5, clamped
    to the valid range.  The result is R_h @ grid @ R_w^T with the matrices of
    _interp_matrix, but each output reads its four neighbours directly, so the
    cost grows with out_h * out_w and not with the input's size.  An axis of
    unchanged size has t = 0, so equal input/output dims give a finite input
    back bit for bit.
    """
    grid = np.asarray(grid, dtype=np.float64)
    in_h, in_w = grid.shape[-2:]
    y0, y1, ty, uy = _interp_weights(in_h, out_h)
    x0, x1, tx, ux = _interp_weights(in_w, out_w)
    ty, uy = ty[:, None], uy[:, None]
    top, bot = grid[..., y0, :], grid[..., y1, :]
    top = top[..., x0] * ux + top[..., x1] * tx
    bot = bot[..., x0] * ux + bot[..., x1] * tx
    return top * uy + bot * ty


def resize_bilinear_backward(grad_out: np.ndarray, in_h: int, in_w: int) -> np.ndarray:
    """Adjoint of resize_bilinear: R_h^T @ grad_out @ R_w."""
    grad_out = np.asarray(grad_out, dtype=np.float64)
    out_h, out_w = grad_out.shape[-2:]
    return _interp_matrix(in_h, out_h).T @ grad_out @ _interp_matrix(in_w, out_w)


@lru_cache(maxsize=32)
def _interp_weights(n_in: int, n_out: int):
    """Per output i along one axis: the two source samples i0, i1 it
    interpolates between, the weight t of i1 and the weight 1 - t of i0;
    cached read-only."""
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.int64)
    i1 = np.minimum(i0 + 1, n_in - 1)
    t = src - i0
    return tuple(_read_only(a) for a in (i0, i1, t, 1 - t))


@lru_cache(maxsize=16)
def _interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    """[n_out, n_in] bilinear weights along one axis, from _interp_weights;
    cached read-only."""
    i0, i1, t, u = _interp_weights(n_in, n_out)
    rows = np.arange(n_out)
    m = np.zeros((n_out, n_in))
    m[rows, i0] = u
    m[rows, i1] += t
    return _read_only(m)


def layout_widths(T: int, H: int, spec: RenderSpec) -> tuple[int, int]:
    """Split the image width into visible (context) and masked (horizon) parts.

    Allocation is proportional to T/(T+H) in patch-column units, scaled by
    align_const and clamped to [1, n_cols - 1].
    """
    if T < 1 or H < 1:
        raise ValueError("T and H must be positive")
    n_cols = spec.image_width // spec.patch_size
    n_vis = int(round(n_cols * (T / (T + H)) * spec.align_const))
    n_vis = min(max(n_vis, 1), n_cols - 1)
    w_vis = n_vis * spec.patch_size
    return w_vis, spec.image_width - w_vis


def _fold(context_norm: np.ndarray, horizon_len: int, spec: RenderSpec):
    """T, the period grids [..., P, F] of contexts [..., T] and their visible width."""
    x = np.asarray(context_norm, dtype=np.float64)
    if x.ndim < 1:
        raise ValueError("render expects contexts with a time axis")
    P = spec.periodicity
    grid = fold_to_grid(pad_left_replicate(x, P), P)
    return x.shape[-1], grid, layout_widths(x.shape[-1], horizon_len, spec)[0]


def render(context_norm: np.ndarray, horizon_len: int, spec: RenderSpec) -> RenderedImage:
    """Render normalized contexts [..., T] into masked grayscale images."""
    T, grid, w_vis = _fold(context_norm, horizon_len, spec)
    visible = resize_bilinear(grid, spec.image_height, w_vis)
    w_mask = spec.image_width - w_vis
    pixels = np.concatenate([visible, np.zeros((*visible.shape[:-1], w_mask))], axis=-1)
    return RenderedImage(
        pixels=pixels,
        visible_width=w_vis,
        masked_width=w_mask,
        pad_len=grid.shape[-1] * spec.periodicity - T,
        periods_context=grid.shape[-1],
        context_len=T,
        horizon_len=horizon_len,
        spec=spec,
    )


def reconstruct(decoded: np.ndarray, prov: RenderedImage) -> np.ndarray:
    """Map decoded grayscale images [..., H_img, W] back to normalized-space
    forecasts [..., H].

    The decoded image is resized to the full period grid [P, F_total], unfolded
    column-major, and the horizon slice [T : T+H] (after removing the left pad)
    is returned.
    """
    decoded = np.asarray(decoded, dtype=np.float64)
    spec = prov.spec
    expect = (spec.image_height, spec.image_width)
    if decoded.shape[-2:] != expect:
        raise ValueError(f"decoded image shape {decoded.shape} != rendered {expect}")
    P = spec.periodicity
    f_total = prov.periods_total
    grid = resize_bilinear(decoded, P, f_total)
    series = unfold_from_grid(grid)
    start = prov.pad_len + prov.context_len
    return series[..., start : start + prov.horizon_len]


def reconstruct_backward(grad_forecast: np.ndarray, prov: RenderedImage) -> np.ndarray:
    """Adjoint of reconstruct: forecast-slice gradients [..., H] back to image space."""
    spec = prov.spec
    grad_forecast = np.asarray(grad_forecast, dtype=np.float64)
    series_grad = np.zeros((*grad_forecast.shape[:-1], prov.periods_total * spec.periodicity))
    start = prov.pad_len + prov.context_len
    series_grad[..., start : start + prov.horizon_len] = grad_forecast
    grid_grad = fold_to_grid(series_grad, spec.periodicity)
    return resize_bilinear_backward(grid_grad, spec.image_height, spec.image_width)
