"""Properties over random shapes: the adjoint identity <Ax, y> = <x, A^T y> of
each hand-written linear map, exact render -> reconstruct round trips, a batch
of samples computing what the samples compute one by one, the aligner against
a direct conv -> BN -> ReLU -> dropout -> conv reference, the whole model's
gradient against a central difference, the PSS spectrum and
annuli against numpy's full FFT and an exhaustive binning, the fit band's
annuli against the whole plane's, the render's DFT
from its period grid against an FFT of the drawn image, and the PGM, CSV,
config and checkpoint readers on damaged files."""

import copy
import dataclasses
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from foldcast import adapter
from foldcast import backbone as bb
from foldcast import data, pgm, sma, spectral
from foldcast import forecaster as fc
from foldcast.config import parse_config
from foldcast import rendering as rd
from foldcast.data import normalize_target
from foldcast.forecaster import fuse
from foldcast.rendering import RenderSpec
from tests.test_backbone import toy_config
from tests.test_forecaster import desk_model, randomize_lora_B, toy_windows
from tests.test_rendering import exact_spec
from tests.test_sma import param_grads
from tests.test_spectral import radial_oracle

# derandomized, without an example database, so every run draws the same cases
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 12)
batches = st.integers(0, 4)  # 0: no batch axis


def lead(B):
    """The leading batch axes of a case: none for B = 0, else (B,)."""
    return (B,) if B else ()


def assert_stacked(B, batched, fn, *args):
    """With a batch axis, `batched` is fn over the samples of `args`, stacked,
    bit for bit."""
    if B:
        assert np.array_equal(batched, np.stack([fn(*sample) for sample in zip(*args)]))


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
@given(B=batches, in_h=sizes, in_w=sizes, out_h=sizes, out_w=sizes, seed=seeds)
@example(B=0, in_h=5, in_w=7, out_h=1, out_w=1, seed=0)
@example(B=2, in_h=6, in_w=9, out_h=6, out_w=9, seed=1)
@example(B=0, in_h=1, in_w=1, out_h=4, out_w=3, seed=2)
def test_resize_bilinear_adjoint(B, in_h, in_w, out_h, out_w, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(*lead(B), in_h, in_w))
    y = rng.normal(size=(*lead(B), out_h, out_w))
    Ax, ATy = rd.resize_bilinear(x, out_h, out_w), rd.resize_bilinear_backward(y, in_h, in_w)
    assert_adjoint(Ax, y, x, ATy)
    assert_stacked(B, Ax, lambda a: rd.resize_bilinear(a, out_h, out_w), x)
    assert_stacked(B, ATy, lambda a: rd.resize_bilinear_backward(a, in_h, in_w), y)


@PROPERTY
@given(
    B=batches, P=st.integers(1, 8), T=st.integers(1, 40), horizon=st.integers(1, 20),
    image_height=sizes, image_width=st.integers(2, 12),
    align_const=st.floats(0.1, 1.0), seed=seeds,
)
def test_reconstruct_adjoint(B, P, T, horizon, image_height, image_width, align_const, seed):
    rng = np.random.default_rng(seed)
    spec = RenderSpec(periodicity=P, image_height=image_height, image_width=image_width,
                      align_const=align_const, patch_size=1)
    x = rng.normal(size=(*lead(B), T))
    ri = rd.render(x, horizon, spec)
    decoded = rng.normal(size=ri.pixels.shape)
    g = rng.normal(size=(*lead(B), horizon))
    Ax, ATy = rd.reconstruct(decoded, ri), rd.reconstruct_backward(g, ri)
    assert_adjoint(Ax, g, decoded, ATy)
    # every sample of a batch shares the geometry of one 1-D rendering
    assert_stacked(B, ri.pixels, lambda a: rd.render(a, horizon, spec).pixels, x)
    assert_stacked(B, Ax, lambda a, c: rd.reconstruct(a, rd.render(c, horizon, spec)), decoded, x)
    assert_stacked(B, ATy, lambda a, c: rd.reconstruct_backward(a, rd.render(c, horizon, spec)),
                   g, x)


@PROPERTY
@given(B=batches, H=st.integers(1, 12), half_w=st.integers(1, 8), seed=seeds)
def test_irfft2_adjoint(B, H, half_w, seed):
    W = 2 * half_w
    rng = np.random.default_rng(seed)
    F = complex_normal(rng, (*lead(B), H, half_w + 1))
    g = rng.normal(size=(*lead(B), H, W))
    assert_adjoint(sma.irfft2(F), g, F, sma.irfft2_adjoint(g))


@PROPERTY
@given(
    B=batches, P=st.integers(1, 8), f_ctx=st.integers(1, 8), f_hor=st.integers(1, 5),
    ctx_short=st.integers(0, 7), hor_short=st.integers(0, 7), seed=seeds,
)
def test_render_reconstruct_round_trip(B, P, f_ctx, f_hor, ctx_short, hor_short, seed):
    """With image height P and one column per period, render folds the
    context without interpolation and reconstruct reads the horizon back."""
    T = P * f_ctx - ctx_short % P
    horizon = P * f_hor - hor_short % P
    spec = exact_spec(P, f_ctx, f_hor)
    assume(rd.layout_widths(T, horizon, spec)[0] == f_ctx)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(*lead(B), T))
    truth = rng.normal(size=(*lead(B), horizon))
    ri = rd.render(x, horizon, spec)
    assert np.array_equal(ri.pixels[..., :f_ctx],
                          rd.fold_to_grid(rd.pad_left_replicate(x, P), P))
    future = np.concatenate([truth, rng.normal(size=(*lead(B), P * f_hor - horizon))], axis=-1)
    decoded = np.concatenate([ri.pixels[..., :f_ctx], rd.fold_to_grid(future, P)], axis=-1)
    assert np.array_equal(rd.reconstruct(decoded, ri), truth)
    assert np.array_equal(rd.unfold_from_grid(rd.fold_to_grid(future, P)), future)


read_geometry = dict(
    B=batches, P=st.integers(1, 30), T=st.integers(1, 200), horizon=st.integers(1, 60),
    grid_h=st.integers(1, 6), grid_w=st.integers(2, 8), patch=st.integers(1, 5),
    align_const=st.floats(0.1, 1.0), seed=seeds,
)


def read_mask(B, P, T, horizon, grid_h, grid_w, patch, align_const, seed):
    """A rendering of B contexts of that geometry and its pixel mask of `read_patches`."""
    spec = RenderSpec(periodicity=P, image_height=grid_h * patch, image_width=grid_w * patch,
                      align_const=align_const, patch_size=patch)
    ri = rd.render(np.random.default_rng(seed).normal(size=(*lead(B), T)), horizon, spec)
    flags = np.zeros(grid_h * grid_w)
    flags[ri.read_patches] = 1.0
    mask = np.kron(flags.reshape(grid_h, grid_w), np.ones((patch, patch))) == 1.0
    return ri, mask


@PROPERTY
@given(**read_geometry)
def test_reconstruct_backward_zero_outside_read_patches(**geometry):
    ri, mask = read_mask(**geometry)
    g = np.random.default_rng(geometry["seed"] + 1).normal(
        size=(*lead(geometry["B"]), ri.horizon_len))
    assert np.all(rd.reconstruct_backward(g, ri)[..., ~mask] == 0.0)


@PROPERTY
@given(**read_geometry)
def test_reconstruct_reads_only_read_patches(**geometry):
    ri, mask = read_mask(**geometry)
    decoded = np.random.default_rng(geometry["seed"] + 1).normal(size=ri.pixels.shape)
    assert np.array_equal(rd.reconstruct(np.where(mask, decoded, 0.0), ri),
                          rd.reconstruct(decoded, ri))


def windows_reference(seg, T, H, stride, norm_const):
    """`data.windows` as one loop over the windows, with numpy's own mean and std."""
    vals = seg.values
    out = []
    for s in range(0, vals.shape[0] - T - H + 1, stride):
        ctx = vals[s : s + T]
        out.append(data.TimeSeriesWindow(
            context=ctx, target=vals[s + T : s + T + H], mean=ctx.mean(axis=0),
            std=np.maximum(ctx.std(axis=0), data.SIGMA_FLOOR), norm_const=norm_const))
    return out


@PROPERTY
@given(N=st.integers(1, 7), T=st.integers(1, 300), H=st.integers(1, 50),
       stride=st.integers(1, 40), count=st.integers(1, 30), spare=st.integers(0, 39),
       layout=st.sampled_from(["whole", "row slice", "column view"]),
       scale=st.sampled_from([0.0, 1e-9, 1.0, 1e6]), seed=seeds)
@example(N=1, T=5, H=2, stride=1, count=1, spare=0, layout="whole", scale=1.0, seed=0)
@example(N=3, T=9000, H=1, stride=4000, count=3, spare=0, layout="row slice", scale=1.0,
         seed=1)  # contexts longer than numpy's 8192-element reduction buffer
@example(N=7, T=24, H=24, stride=24, count=9, spare=3, layout="whole", scale=1.0, seed=2)
def test_windows_equal_a_per_window_loop(N, T, H, stride, count, spare, layout, scale, seed):
    """The statistics of every window come out bitwise as a loop over the windows
    computes them, for any variable count, window geometry and memory layout
    (a `[n, 1]` column view of a 1-D series has a zero stride)."""
    n = T + H + (count - 1) * stride + spare % stride
    rng = np.random.default_rng(seed)
    if layout == "column view":
        vals = (rng.normal(size=n * N) * scale + 3.0).reshape(N, n).T
        if N == 1:
            vals = vals[:, 0][:, None]
    else:
        vals = rng.normal(size=(n + 5, N)) * scale + 3.0
        vals = vals[5:] if layout == "row slice" else vals[:n]
    seg = data.Segment(vals, 0, n)
    got = data.windows(seg, T, H, stride, norm_const=0.4)
    want = windows_reference(seg, T, H, stride, 0.4)
    assert len(got) == len(want) == count
    for g, w in zip(got, want):
        for field in ("context", "target", "mean", "std"):
            assert np.array_equal(getattr(g, field), getattr(w, field)), field
        assert g.norm_const == w.norm_const


def rel_err(a, ref):
    """Largest difference relative to the reference's largest entry; 0 when both are zero."""
    return np.abs(a - ref).max() / max(np.abs(ref).max(), np.finfo(float).tiny)


def conv_einsum(x, w, b):
    """Reference 3x3 convolution: one einsum per kernel tap."""
    C, H, W = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.empty((w.shape[0], H, W))
    out[...] = b[:, None, None]
    for i in range(3):
        for j in range(3):
            out += np.einsum("oc,chw->ohw", w[:, :, i, j], xp[:, i : i + H, j : j + W])
    return out


def conv_einsum_backward(g, x, w):
    """Reference gradients of conv_einsum wrt w, b and x."""
    C, H, W = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    gw = np.zeros_like(w)
    gxp = np.zeros_like(xp)
    for i in range(3):
        for j in range(3):
            gw[:, :, i, j] = np.einsum("ohw,chw->oc", g, xp[:, i : i + H, j : j + W])
            gxp[:, i : i + H, j : j + W] += np.einsum("oc,ohw->chw", w[:, :, i, j], g)
    return gw, g.sum(axis=(1, 2)), gxp[:, 1 : 1 + H, 1 : 1 + W]


conv_shapes = dict(B=batches, C=st.integers(1, 4), O=st.integers(1, 4), H=st.integers(2, 9),
                   W=st.integers(2, 9), seed=seeds)


def conv_case(B, C, O, H, W, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(*lead(B), C, H, W)), rng.normal(size=(O, C, 3, 3)),
            rng.normal(size=O), rng.normal(size=(*lead(B), O, H, W)))


@PROPERTY
@given(**conv_shapes)
def test_conv3x3_adjoint(B, C, O, H, W, seed):
    """conv3x3 is bilinear in (x, w): its backward is the adjoint in each.
    The weight gradient comes per sample, so w's adjoint is the sum."""
    x, w, _, g = conv_case(B, C, O, H, W, seed)
    y = sma.conv3x3(x, w, np.zeros(O))
    gw, gb, gx = sma.conv3x3_backward(g, x, w)
    assert_adjoint(y, g, x, gx)
    assert_adjoint(y, g, w, gw.reshape(-1, *w.shape).sum(axis=0))
    assert np.array_equal(gb, g.sum(axis=(-2, -1)))


@PROPERTY
@given(**conv_shapes)
def test_conv3x3_matches_einsum_reference(B, C, O, H, W, seed):
    x, w, b, g = conv_case(B, C, O, H, W, seed)
    y, grads = sma.conv3x3(x, w, b), sma.conv3x3_backward(g, x, w)
    samples = list(zip(x.reshape(-1, C, H, W), g.reshape(-1, O, H, W)))
    ref = np.stack([conv_einsum(xs, w, b) for xs, _ in samples])
    assert rel_err(y, ref.reshape(y.shape)) <= 1e-12
    refs = zip(*[conv_einsum_backward(gs, xs, w) for xs, gs in samples])
    for got, expect in zip(grads, refs):
        assert rel_err(got, np.stack(expect).reshape(got.shape)) <= 1e-12
    assert_stacked(B, y, lambda xs: sma.conv3x3(xs, w, b), x)
    for k in range(3):
        assert_stacked(B, grads[k], lambda gs, xs: sma.conv3x3_backward(gs, xs, w)[k], g, x)


def enhancer_reference(A, params, rng, g, dropout_rate):
    """The aligner's enhancer written out layer by layer on the einsum
    convolutions: conv -> BN -> ReLU -> dropout -> conv, and its backward for
    the upstream gradient g; in train mode exactly when handed an rng.
    Returns (output, running mean, running var, parameter gradients, the
    summed magnitudes of conv1's output gradient)."""
    n, train = A.size, rng is not None
    p = SimpleNamespace(**{k.removeprefix("sma."): v for k, v in params.items()})
    h1 = conv_einsum(A[None], p.conv1_w, p.conv1_b)
    rm, rv = p.bn_running_mean, p.bn_running_var
    if train:
        mean, var = h1.mean(axis=(1, 2)), h1.var(axis=(1, 2))
        rm = (1 - sma._BN_MOMENTUM) * rm + sma._BN_MOMENTUM * mean
        rv = (1 - sma._BN_MOMENTUM) * rv + sma._BN_MOMENTUM * var * n / (n - 1)
    else:
        mean, var = rm, rv
    invstd = (1.0 / np.sqrt(var + sma._BN_EPS))[:, None, None]
    xhat = (h1 - mean[:, None, None]) * invstd
    h2 = p.bn_gamma[:, None, None] * xhat + p.bn_beta[:, None, None]
    mask = (h2 > 0).astype(float)
    if train and dropout_rate > 0:
        mask *= (rng.random(h2.shape) >= dropout_rate) / (1.0 - dropout_rate)
    a = h2 * mask
    out = conv_einsum(a, p.conv2_w, p.conv2_b)[0]
    gw2, gb2, ga = conv_einsum_backward(g[None], a, p.conv2_w)
    gh2 = ga * mask
    dgamma, dbeta = (gh2 * xhat).sum(axis=(1, 2)), gh2.sum(axis=(1, 2))
    gg = p.bn_gamma[:, None, None] * gh2
    if train:
        gh1 = invstd * (gg - gg.mean(axis=(1, 2), keepdims=True)
                        - xhat * (gg * xhat).mean(axis=(1, 2), keepdims=True))
    else:
        gh1 = invstd * gg
    gw1, gb1, _ = conv_einsum_backward(gh1, A[None], p.conv1_w)
    grads = {"sma.conv1_w": gw1, "sma.conv1_b": gb1, "sma.bn_gamma": dgamma,
             "sma.bn_beta": dbeta, "sma.conv2_w": gw2, "sma.conv2_b": gb2}
    return out, rm, rv, grads, np.abs(gh1).sum(axis=(1, 2))


def train_rng(train, seed):
    """A layer's train switch: a fresh generator from `seed` in train mode, None in eval."""
    return np.random.default_rng(seed) if train else None


@PROPERTY
@given(C=st.integers(1, 4), H=st.integers(1, 6), half_w=st.integers(1, 6),
       train=st.booleans(), dropout=st.sampled_from([0.0, 0.1]),
       offset=st.sampled_from([0.0, 1e3]), seed=seeds)
def test_enhancer_matches_layer_by_layer_reference(C, H, half_w, train, dropout, offset, seed):
    """Batch norm folded into conv1 (train-mode statistics from the taps'
    9x9 covariance) computes the direct stack: outputs, running statistics
    and parameter gradients.  In train mode BN cancels conv1's bias, so its
    gradient is round-off against the terms that cancel.  An offset
    magnitude checks that the centred taps keep their digits."""
    rng = np.random.default_rng(seed)
    image = rng.normal(size=(2 * H, 2 * half_w))
    A = np.abs(sma.rfft2(image)) + offset
    g = rng.normal(size=A.shape)
    p = sma.init_enhancer(rng, channels=C)
    p["sma.conv1_b"][...] = rng.normal(size=C)
    p["sma.bn_gamma"][...] = rng.uniform(0.5, 1.5, size=C)
    p["sma.bn_beta"][...] = rng.normal(size=C)
    p["sma.bn_running_mean"][...] = rng.normal(size=C) * (1 + offset)
    p["sma.bn_running_var"][...] = rng.uniform(0.5, 2.0, size=C) * (1 + offset) ** 2
    ref, rm, rv, ref_grads, gh1_scale = enhancer_reference(
        A, p, train_rng(train, seed + 1), g, dropout)
    q = copy.deepcopy(p)
    out, cache = sma.enhancer_forward(A, q, train_rng(train, seed + 1), dropout)
    grads = param_grads(sma.enhancer_backward, g, cache, q)
    assert rel_err(out, ref) <= 1e-12
    assert rel_err(q["sma.bn_running_mean"], rm) <= 1e-12
    assert rel_err(q["sma.bn_running_var"], rv) <= 1e-12
    for name, ref_grad in ref_grads.items():
        if train and name == "sma.conv1_b":
            assert np.all(np.abs(grads[name] - ref_grad) <= 1e-12 * gh1_scale)
        else:
            assert rel_err(grads[name], ref_grad) <= 1e-12, name


@PROPERTY
@given(B=st.integers(1, 4), H=st.integers(2, 8), half_w=st.integers(1, 5), train=st.booleans(),
       dropout=st.sampled_from([0.0, 0.1]), seed=seeds)
def test_aligner_batch_equals_image_by_image(B, H, half_w, train, dropout, seed):
    """The aligner on [B, H, W] computes B one-image calls in order: their
    outputs, the running statistics they leave and the sum of their
    gradients.  Its dropout masks are one draw of the one-image calls' stream."""
    rng = np.random.default_rng(seed)
    images = rng.normal(size=(B, H, 2 * half_w))
    g = rng.normal(size=images.shape)
    p = sma.init_enhancer(rng, channels=3)
    p["sma.bn_gamma"][...] = rng.uniform(0.5, 1.5, size=3)
    p["sma.bn_beta"][...] = rng.normal(size=3)
    cfg = sma.SmaConfig(lam=0.3)
    q, r = copy.deepcopy(p), copy.deepcopy(p)
    out, cache = sma.sma_forward(images, q, cfg, train_rng(train, seed + 1), dropout_rate=dropout)
    grads = param_grads(sma.sma_backward, g, cache, q)
    draws = train_rng(train, seed + 1)
    singles = [sma.sma_forward(image, r, cfg, draws, dropout_rate=dropout) for image in images]
    single_grads = [param_grads(sma.sma_backward, gi, c, r) for gi, (_, c) in zip(g, singles)]
    ref = np.stack([o for o, _ in singles])
    if train:
        assert rel_err(out, ref) <= 1e-12
    else:
        assert np.array_equal(out, ref)
    assert rel_err(q["sma.bn_running_mean"], r["sma.bn_running_mean"]) <= 1e-12
    assert rel_err(q["sma.bn_running_var"], r["sma.bn_running_var"]) <= 1e-12
    for name in grads:
        assert rel_err(grads[name], sum(sg[name] for sg in single_grads)) <= 1e-12, name


@PROPERTY
@given(B=st.integers(1, 4), vis_cols=st.integers(1, 4), n_out=st.integers(1, 16), seed=seeds,
       d_layers=st.sampled_from((1, 2, 3)))
@example(B=3, vis_cols=2, n_out=5, seed=0, d_layers=1)
@example(B=3, vis_cols=2, n_out=5, seed=0, d_layers=2)
@example(B=3, vis_cols=2, n_out=5, seed=0, d_layers=3)
def test_autoencode_batch_equals_stacked_samples(B, vis_cols, n_out, seed, d_layers):
    """Every product against a weight is one product per sample, so each
    sample of a batch decodes as it would alone."""
    cfg = toy_config(d_layers=d_layers)
    rng = np.random.default_rng(seed)
    params = bb.init_backbone(cfg, rng)
    images = rng.normal(size=(B, cfg.image_height, cfg.image_width))
    out_idx = np.sort(rng.choice(cfg.n_patches, size=n_out, replace=False))
    batched, _ = bb.autoencode(images, params, cfg, vis_cols, out_idx)
    one_by_one = np.stack([bb.autoencode(img, params, cfg, vis_cols, out_idx)[0]
                           for img in images])
    assert batched.shape == one_by_one.shape
    assert rel_err(batched, one_by_one) <= 1e-12


def normalized_loss(model, w, y_st, y_sp):
    """The loss `loss_and_grads` reports, from a window's branch outputs."""
    yhat = fuse(y_st, y_sp, model.beta)
    return float(np.mean((yhat - normalize_target(w)) ** 2))


@PROPERTY
@given(B=st.integers(1, 4), n_vars=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_batched_step_equals_mean_of_windows(B, n_vars, seed):
    """One batched step: each window's loss bit for bit, and the mean of the
    one-window gradients.  The aligner draws its dropout masks for a variable
    in window order, which is the one-window calls' order for one variable;
    with several variables the step runs in eval mode."""
    train = n_vars == 1
    model = desk_model(seed=seed % 7)
    randomize_lora_B(model, np.random.default_rng(seed + 1))
    windows = toy_windows(B, n_vars=n_vars, seed=seed)
    loss, grads, (y_st, y_sp) = model.loss_and_grads(
        *windows, rng=np.random.default_rng(seed), train=train)
    rng = np.random.default_rng(seed)
    singles = [model.loss_and_grads(w, rng=rng, train=train) for w in windows]
    assert [normalized_loss(model, *case) for case in zip(windows, y_st, y_sp)] == \
        [single_loss for single_loss, _, _ in singles]
    assert loss == sum(single_loss for single_loss, _, _ in singles) / B
    assert sorted(grads) == sorted(model.trainable_names())
    for name, g in grads.items():
        mean = sum(single_grads[name] for _, single_grads, _ in singles) / B
        # a key bias and the first convolution's bias feed a softmax and a
        # batch norm that cancel them: zero in exact arithmetic, round-off here
        if not name.endswith(("attn.bk", "conv1_b")):
            assert rel_err(g, mean) <= 1e-12, name


@PROPERTY
@given(
    rows=st.integers(1, 3), cols=st.integers(2, 4), P=st.integers(1, 5),
    e_layers=st.integers(0, 2), d_layers=st.integers(1, 2), frozen=st.booleans(),
    use_tga=st.booleans(), use_sma=st.booleans(),
    fixed_beta=st.one_of(st.none(), st.floats(0.0, 1.0)), beta_init=st.floats(0.1, 0.9),
    n_vars=st.integers(1, 3), n_windows=st.integers(1, 3), seed=seeds,
)
@example(rows=2, cols=3, P=1, e_layers=2, d_layers=2, frozen=False, use_tga=True, use_sma=True,
         fixed_beta=None, beta_init=0.5, n_vars=2, n_windows=2, seed=0)
@example(rows=3, cols=2, P=4, e_layers=0, d_layers=1, frozen=True, use_tga=False,
         use_sma=False, fixed_beta=0.3, beta_init=0.5, n_vars=1, n_windows=1, seed=1)
def test_loss_and_grads_match_a_central_difference(
    rows, cols, P, e_layers, d_layers, frozen, use_tga, use_sma, fixed_beta, beta_init,
    n_vars, n_windows, seed,
):
    """The whole model's gradient along a random direction d over every
    trainable tensor equals a central difference of the eval-mode loss with
    h = 1e-5, to 1e-5 of the summed magnitudes of the per-tensor terms
    <grad_g, d_g> beyond the losses' rounding: the check `gradcheck` runs
    with one tensor at a time."""
    patch, h = 4, 1e-5
    size = dict(image_height=rows * patch, image_width=cols * patch, patch_size=patch)
    model = fc.ForecastModel(fc.ModelConfig(
        render=RenderSpec(periodicity=P, align_const=1.0, **size),
        backbone=bb.BackboneConfig(**size, d_model=8, n_heads=2, e_layers=e_layers,
                                   d_layers=d_layers, d_ff=16, dropout=0.0, frozen=frozen),
        lora_rank=2, lora_alpha=4.0, lora_dropout=0.0, use_tga=use_tga, use_sma=use_sma,
        fixed_beta=fixed_beta, beta_init=beta_init,
    ), seed=seed % 7)
    rng = np.random.default_rng(seed)
    randomize_lora_B(model, rng)
    # with zero biases and running mean, the aligner's ReLU sits on its kink
    # wherever a magnitude is 0, as on every row frequency of a P = 1 image
    for name in ("sma.conv1_b", "sma.bn_beta", "sma.bn_running_mean"):
        model.params[name][...] = rng.normal(0.0, 0.1, size=model.params[name].shape)
    windows = toy_windows(n_windows, T=6 + seed % 19, H=1 + seed % 7, n_vars=n_vars, seed=seed)
    params = model.named_params()
    direction = {name: rng.normal(size=params[name].shape) for name in model.trainable_names()}
    norm = np.sqrt(sum(np.sum(d**2) for d in direction.values()))
    direction = {name: d / norm for name, d in direction.items()}  # a step of length h
    _, grads, _ = model.loss_and_grads(*windows, train=False)
    found = fc.directional_error(model, windows, grads, direction, h)
    # the loss is smooth only between the ReLU's kinks: a step across one has
    # no derivative to compare with
    assume(found is not None)
    assert found[0] <= 1e-5


spectrum_shapes = dict(H=st.integers(1, 40), W=st.integers(1, 40), seed=seeds)


@PROPERTY
@given(**spectrum_shapes)
@example(H=1, W=1, seed=0)
@example(H=7, W=40, seed=1)
def test_power_centered_matches_shifted_full_fft(H, W, seed):
    x = np.random.default_rng(seed).normal(size=(H, W))
    P = spectral.power_centered(x)
    assert rel_err(P, np.abs(np.fft.fftshift(np.fft.fft2(x))) ** 2) <= 1e-12
    # the centered point mirror of row i is (2 (H//2) - i) mod H
    mirror_rows = (2 * (H // 2) - np.arange(H)) % H
    mirror_cols = (2 * (W // 2) - np.arange(W)) % W
    assert np.array_equal(P, P[mirror_rows][:, mirror_cols])


@PROPERTY
@given(**spectrum_shapes)
def test_radial_average_matches_exhaustive_oracle(H, W, seed):
    power = np.random.default_rng(seed).uniform(0.1, 2.0, size=(H, W))
    rs = spectral.radial_average(power)
    ks, means, counts = radial_oracle(power)
    r_max = np.sqrt((H / 2) ** 2 + (W / 2) ** 2)
    assert rs.r_max == r_max
    assert np.array_equal(rs.freqs, ks / r_max)
    assert np.array_equal(rs.counts, counts)
    assert rel_err(rs.power, means) <= 1e-12


@PROPERTY
@given(**spectrum_shapes, f_lo=st.floats(-0.1, 1.0), width=st.floats(0.0, 1.0))
@example(H=224, W=224, seed=0, f_lo=0.05, width=0.45)
@example(H=7, W=40, seed=1, f_lo=0.05, width=0.45)
@example(H=40, W=7, seed=2, f_lo=-0.1, width=1.0)
def test_band_spectrum_is_the_radial_average_inside_the_band(H, W, seed, f_lo, width):
    """The annuli that fit_band sums over the DFT's band rows and columns are
    the in-band annuli of the whole centred plane, strictly inside the band,
    and the band's rows and columns are the ones its cells touch."""
    f_hi = f_lo + width
    x = np.random.default_rng(seed).normal(size=(H, W))
    band = spectral.fit_band(H, W, f_lo, f_hi)
    rs = spectral._band_spectrum(np.fft.rfft2(x)[np.ix_(band.rows, band.cols)], band)
    full = spectral.radial_average(spectral.power_centered(x))
    inside = (full.freqs > f_lo) & (full.freqs < f_hi)
    assert np.array_equal(rs.freqs, full.freqs[inside])
    assert np.array_equal(rs.counts, full.counts[inside])
    assert np.all(np.abs(rs.power - full.power[inside]) <= 1e-12 * full.power[inside])
    assert np.all((rs.freqs > f_lo) & (rs.freqs < f_hi))
    n_cols = max(len(band.cols), 1)
    assert np.array_equal(np.unique(band.cells // n_cols), np.arange(len(band.rows)))
    assert np.array_equal(np.unique(band.cells % n_cols), np.arange(len(band.cols)))


@PROPERTY
@given(H=st.integers(1, 40), W=st.integers(1, 40))
def test_cached_tables_are_read_only(H, W):
    rs = spectral.radial_average(np.ones((H, W)))
    # the render DFT tables of a P = W grid of F = H periods in W + H columns,
    # on a band that holds every annulus
    band_dft = spectral._band_dft_tables(W, H, H, W, W + H, -1.0, 2.0)
    band = spectral.fit_band(H, W, -1.0, 2.0)
    # the grounding adapter's table of an H x W patch grid at width 2W
    sinusoids = adapter.sinusoid_table(H * W, 2 * W)
    tables = [rs.freqs, rs.counts, spectral._centered_index(H, W),
              *spectral._annuli(H, W)[:4], *band_dft, sinusoids,
              *(getattr(band, f.name) for f in dataclasses.fields(band) if f.name != "r_max")]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0
    assert spectral.radial_average(np.ones((H, W))).freqs is rs.freqs
    assert all(a is b for a, b in
               zip(spectral._band_dft_tables(W, H, H, W, W + H, -1.0, 2.0), band_dft))
    assert spectral.fit_band(H, W, -1.0, 2.0) is band
    assert adapter.sinusoid_table(H * W, 2 * W) is sinusoids
    assert np.array_equal(sinusoids, adapter.sinusoid_table.__wrapped__(H * W, 2 * W))


@settings(PROPERTY, max_examples=15)
@given(H=st.integers(8, 40), W=st.integers(8, 40), seed=seeds)
def test_pss_of_series_same_with_cold_and_warm_tables(H, W, seed):
    ds = data.synth_series("sinusoid_mix", 400, 12, amplitude=1.0, noise_std=0.5, seed=1)
    spec = RenderSpec(periodicity=12, image_height=H, image_width=W, patch_size=1)

    def alphas():
        return spectral.pss_of_series(ds, spec, 3, 120, seed=seed % 1000, horizon=24).alphas

    spectral.fit_band.cache_clear()
    spectral._band_dft_tables.cache_clear()
    cold = alphas()
    assert np.array_equal(cold, alphas())


@PROPERTY
@given(
    shape=st.lists(st.integers(1, 3), max_size=4), P=st.integers(2, 39), T=st.integers(1, 399),
    horizon=st.integers(1, 100), patch=st.integers(1, 5), grid_h=st.integers(1, 11),
    grid_w=st.integers(2, 11), align_const=st.floats(0.05, 1.0), seed=seeds,
    f_lo=st.floats(-1.0, 1.0), width=st.floats(0.0, 3.0),
)
@example(shape=[], P=24, T=1, horizon=96, patch=16, grid_h=14, grid_w=14, align_const=0.4, seed=0,
         f_lo=-1.0, width=3.0)
@example(shape=[2], P=7, T=30, horizon=5, patch=3, grid_h=5, grid_w=4, align_const=1.0, seed=1,
         f_lo=0.05, width=0.45)
def test_band_dft_tables_give_the_dft_of_the_render(
    shape, P, T, horizon, patch, grid_h, grid_w, align_const, seed, f_lo, width
):
    """A render's DFT on a band's rows and columns is its period grid between
    the two band tables."""
    spec = RenderSpec(periodicity=P, image_height=patch * grid_h, image_width=patch * grid_w,
                      align_const=align_const, patch_size=patch)
    H, W = spec.image_height, spec.image_width
    x = np.random.default_rng(seed).normal(size=(*shape, T))
    band = spectral.fit_band(H, W, f_lo, f_lo + width)
    ref = np.fft.rfft2(rd.render(x, horizon, spec).pixels)[..., band.rows[:, None], band.cols]
    _, grid, w_vis = rd._fold(x, horizon, spec)
    rows, cols = spectral._band_dft_tables(P, H, grid.shape[-1], w_vis, W, f_lo, f_lo + width)
    got = rows @ grid @ cols
    assert got.shape == ref.shape
    assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * np.abs(ref).max(initial=0.0)


def refuse(*args, **kwargs):
    raise AssertionError("pss_of_series drew an image")


@settings(PROPERTY, max_examples=12)
@given(P=st.sampled_from([24, 32, 48]), noise_std=st.floats(0.1, 4.0), seed=seeds)
def test_pss_of_series_is_the_pss_of_the_rendered_image(P, noise_std, seed):
    """At the criterion-2 geometry, without drawing the image: a dataset of
    exactly T steps makes the one sample the whole series."""
    T, horizon = 1440, 96
    ds = data.synth_series("sinusoid_mix", T, P, amplitude=1.0, noise_std=noise_std,
                           seed=seed % 2**31)
    spec = RenderSpec(periodicity=P, image_height=224, image_width=224, align_const=0.4)
    x = ds.values[:, 0]
    ref = spectral.pss_of_image(rd.render((x - x.mean()) / x.std(), horizon, spec).pixels).alpha
    with pytest.MonkeyPatch.context() as mp:
        for owner in (rd, spectral):
            mp.setattr(owner, "resize_bilinear", refuse)
        mp.setattr(rd, "render", refuse)
        alpha = spectral.pss_of_series(ds, spec, 1, T, horizon=horizon).alphas[0]
    assert abs(alpha - ref) <= 1e-12 * abs(ref)


def pgm_files(p5, sidecar):
    """The bytes of a valid 3x4 P5 (16-bit) or P2 (maxval 255) file and of
    its sidecar, the file's header as four tokens."""
    img = np.arange(12, dtype=np.int64).reshape(3, 4) * 20
    if p5:
        head = [b"P5", b"4", b"3", b"65535"]
        payload = (img * 250).astype(">u2").tobytes()
    else:
        head = [b"P2", b"4", b"3", b"255"]
        payload = b"\n".join(b" ".join(b"%d" % v for v in row) for row in img) + b"\n"
    side = b"min = -1.5\nmax = 2.25\n" if sidecar else None
    return head, payload, side


header_tokens = st.sampled_from(
    [b"", b"0", b"-3", b"+4", b"1_2", b"4.0", b"nan", b"inf", b"1e3", b"65536", b"70000",
     b"99999999999", b"P6", b"#", b"\xff", b"9" * 5000])


@PROPERTY
@given(
    p5=st.booleans(), sidecar=st.booleans(), damage_sidecar=st.booleans(),
    header=st.none() | st.tuples(st.integers(0, 3), header_tokens),
    flips=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=3),
    cut=st.none() | st.integers(0, 2**16),
)
@example(p5=False, sidecar=False, damage_sidecar=False, header=None, flips=[(13, ord("-"))],
         cut=None)
@example(p5=False, sidecar=True, damage_sidecar=True, header=None, flips=[(6, ord("n"))],
         cut=None)
def test_read_pgm_raises_only_value_errors_naming_the_file(
        p5, sidecar, damage_sidecar, header, flips, cut):
    """Truncations, byte flips and bad header tokens of a valid file or of its
    sidecar either read as a 2-D float image or raise a ValueError naming the
    file."""
    head, payload, side = pgm_files(p5, sidecar)
    if header is not None:
        head[header[0]] = header[1]
    body = bytearray(b"\n".join(head) + b"\n" + payload)
    side = None if side is None else bytearray(side)
    target = side if damage_sidecar and side is not None else body
    for pos, byte in flips:
        target[pos % len(target)] = byte
    if cut is not None:
        del target[cut % (len(target) + 1):]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.pgm"
        path.write_bytes(body)
        if side is not None:
            (Path(tmp) / "x.pgm.txt").write_bytes(side)
        try:
            img = pgm.read_pgm(path)
        except ValueError as err:
            assert str(path) in str(err)
        else:
            assert img.dtype == np.float64 and img.ndim == 2


damage = dict(
    flips=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=3),
    cut=st.none() | st.integers(0, 2**16),
)


def damaged(body: bytes, flips, cut) -> bytes:
    """`body` with the bytes at `flips` replaced, then cut at `cut`."""
    out = bytearray(body)
    for pos, byte in flips:
        out[pos % len(out)] = byte
    if cut is not None:
        del out[cut % (len(out) + 1):]
    return bytes(out)


def read_damaged(name, body, read):
    """`read` of a file holding `body`, or None after a ValueError that names
    the file; any other exception fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(body)
        try:
            return read(path)
        except ValueError as err:
            assert str(path) in str(err)
            return None


VALID_CONFIG = (b"# desk run\nseq_len = 48\npred_len = 16  # horizon\nlr = 1e-3\n"
                b"frozen = false\nsynth_amplitude = 1.0, 0.5\nfixed_beta = 0.3\n")


@PROPERTY
@given(**damage)
@example(flips=[(9, 0xFF)], cut=None)
def test_parse_config_raises_only_value_errors_naming_the_file(flips, cut):
    read_damaged("run.cfg", damaged(VALID_CONFIG, flips, cut), parse_config)


VALID_CSV = (b"date,a,b\n2020-01-01 00:00:00,1.5,-2\n2020-01-01 01:00:00,3,4e-1\n"
             b"2020-01-01 02:00:00,5,6\n")


@PROPERTY
@given(**damage)
@example(flips=[(9, 0xFF)], cut=None)
@example(flips=[(29, ord("n")), (30, ord("a")), (31, ord("n"))], cut=None)
def test_load_csv_raises_only_value_errors_naming_the_file(flips, cut):
    ds = read_damaged("x.csv", damaged(VALID_CSV, flips, cut), data.load_csv)
    assert ds is None or (ds.values.ndim == 2 and np.isfinite(ds.values).all())


def valid_checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ntf"
        desk_model().save(path)
        return path.read_bytes()


VALID_NTF = valid_checkpoint()


@PROPERTY
@given(**damage)
@example(flips=[(10, ord("x"))], cut=None)  # the first tensor's name
@example(flips=[(28, 8)], cut=None)  # the first tensor's first dimension
def test_read_weights_raises_only_value_errors_naming_the_file(flips, cut):
    read_damaged("m.ntf", damaged(VALID_NTF, flips, cut),
                 lambda path: bb.read_weights(path, out=desk_model().state_tensors()))
