"""Properties over random shapes: the adjoint identity <Ax, y> = <x, A^T y> of
each hand-written linear map, and exact render -> reconstruct round trips."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from foldcast import rendering as rd
from foldcast import sma
from foldcast.rendering import RenderSpec
from tests.test_rendering import exact_spec

# derandomized, without an example database, so every run draws the same cases
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 12)


def assert_adjoint(Ax, y, x, ATy):
    """Real inner products agree to round-off, relative to the summed terms."""
    lhs = np.sum(Ax.real * y.real + Ax.imag * y.imag)
    rhs = np.sum(x.real * ATy.real + x.imag * ATy.imag)
    scale = np.sum(np.abs(Ax) * np.abs(y)) + np.sum(np.abs(x) * np.abs(ATy))
    assert abs(lhs - rhs) <= 1e-12 * scale


def complex_normal(rng, shape):
    """Random half-spectrum; its edge columns are not Hermitian-consistent."""
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@PROPERTY
@given(in_h=sizes, in_w=sizes, out_h=sizes, out_w=sizes, seed=seeds)
@example(in_h=5, in_w=7, out_h=1, out_w=1, seed=0)
@example(in_h=6, in_w=9, out_h=6, out_w=9, seed=1)
@example(in_h=1, in_w=1, out_h=4, out_w=3, seed=2)
def test_resize_bilinear_adjoint(in_h, in_w, out_h, out_w, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(in_h, in_w))
    y = rng.normal(size=(out_h, out_w))
    assert_adjoint(
        rd.resize_bilinear(x, out_h, out_w), y, x, rd.resize_bilinear_backward(y, in_h, in_w)
    )


@PROPERTY
@given(
    P=st.integers(1, 8), T=st.integers(1, 40), horizon=st.integers(1, 20),
    image_height=sizes, image_width=st.integers(2, 12),
    align_const=st.floats(0.1, 1.0), seed=seeds,
)
def test_reconstruct_adjoint(P, T, horizon, image_height, image_width, align_const, seed):
    rng = np.random.default_rng(seed)
    spec = RenderSpec(periodicity=P, image_height=image_height, image_width=image_width,
                      align_const=align_const, patch_size=1)
    ri = rd.render(rng.normal(size=T), horizon, spec)
    decoded = rng.normal(size=ri.pixels.shape)
    g = rng.normal(size=horizon)
    assert_adjoint(rd.reconstruct(decoded, ri), g, decoded, rd.reconstruct_backward(g, ri))


@PROPERTY
@given(H=st.integers(2, 12), half_w=st.integers(1, 8), seed=seeds)
def test_rfft2_adjoint(H, half_w, seed):
    W = 2 * half_w
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(H, W))
    y = complex_normal(rng, (H, half_w + 1))
    assert_adjoint(sma.rfft2(x), y, x, sma.rfft2_adjoint(y, H, W))


@PROPERTY
@given(H=st.integers(1, 12), half_w=st.integers(1, 8), seed=seeds)
def test_irfft2_adjoint(H, half_w, seed):
    W = 2 * half_w
    rng = np.random.default_rng(seed)
    F = complex_normal(rng, (H, half_w + 1))
    g = rng.normal(size=(H, W))
    assert_adjoint(sma.irfft2(F, H, W), g, F, sma.irfft2_adjoint(g, W))


@PROPERTY
@given(
    P=st.integers(1, 8), f_ctx=st.integers(1, 8), f_hor=st.integers(1, 5),
    ctx_short=st.integers(0, 7), hor_short=st.integers(0, 7), seed=seeds,
)
def test_render_reconstruct_round_trip(P, f_ctx, f_hor, ctx_short, hor_short, seed):
    """With image height P and one column per period, render folds the
    context without interpolation and reconstruct reads the horizon back."""
    T = P * f_ctx - ctx_short % P
    horizon = P * f_hor - hor_short % P
    spec = exact_spec(P, f_ctx, f_hor)
    assume(rd.layout_widths(T, horizon, spec)[0] == f_ctx)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=T)
    truth = rng.normal(size=horizon)
    ri = rd.render(x, horizon, spec)
    assert np.array_equal(ri.pixels[:, :f_ctx], rd.fold_to_grid(rd.pad_left_replicate(x, P), P))
    future = np.concatenate([truth, rng.normal(size=P * f_hor - horizon)])
    decoded = np.concatenate([ri.pixels[:, :f_ctx], rd.fold_to_grid(future, P)], axis=1)
    assert np.array_equal(rd.reconstruct(decoded, ri), truth)


read_geometry = dict(
    P=st.integers(1, 30), T=st.integers(1, 200), horizon=st.integers(1, 60),
    grid_h=st.integers(1, 6), grid_w=st.integers(2, 8), patch=st.integers(1, 5),
    align_const=st.floats(0.1, 1.0), seed=seeds,
)


def read_mask(P, T, horizon, grid_h, grid_w, patch, align_const, seed):
    """A rendering of that geometry and its pixel mask of `read_patches`."""
    spec = RenderSpec(periodicity=P, image_height=grid_h * patch, image_width=grid_w * patch,
                      align_const=align_const, patch_size=patch)
    ri = rd.render(np.random.default_rng(seed).normal(size=T), horizon, spec)
    flags = np.zeros(grid_h * grid_w)
    flags[ri.read_patches] = 1.0
    mask = np.kron(flags.reshape(grid_h, grid_w), np.ones((patch, patch))) == 1.0
    return ri, mask


@PROPERTY
@given(**read_geometry)
def test_reconstruct_backward_zero_outside_read_patches(**geometry):
    ri, mask = read_mask(**geometry)
    g = np.random.default_rng(geometry["seed"] + 1).normal(size=ri.horizon_len)
    assert np.all(rd.reconstruct_backward(g, ri)[~mask] == 0.0)


@PROPERTY
@given(**read_geometry)
def test_reconstruct_reads_only_read_patches(**geometry):
    ri, mask = read_mask(**geometry)
    decoded = np.random.default_rng(geometry["seed"] + 1).normal(size=ri.pixels.shape)
    assert np.array_equal(rd.reconstruct(np.where(mask, decoded, 0.0), ri),
                          rd.reconstruct(decoded, ri))
